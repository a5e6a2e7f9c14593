package core

// SetCrippleInvalidation flips the delta evaluator's test-only hook that
// skips the invalidation rules, deliberately reusing stale schedules for
// every core but the changed one. The differential tests use it to prove
// the delta-vs-full equivalence check actually detects a
// stale-invalidation bug.
func (d *DeltaEvaluator) SetCrippleInvalidation(v bool) { d.crippleInvalidation = v }

// SetTamperRescheduled flips the delta evaluator's test-only hook that
// corrupts the TAT of every core the delta path re-schedules, before
// validation. The tamper test uses it to prove those schedules are
// validated: the corrupted delta must be refused.
func (d *DeltaEvaluator) SetTamperRescheduled(v bool) { d.tamperRescheduled = v }
