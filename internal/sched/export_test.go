package sched

// WirePatterns exposes the per-net pattern count to the external tests.
var WirePatterns = wirePatterns
