package sched

// WirePatterns exposes the per-net pattern count to the external tests.
var WirePatterns = wirePatterns

// ScheduleOne exposes scheduleCore, the per-core planner BuildPartial
// runs, to the external tests.
var ScheduleOne = scheduleCore
