package obs

// The canonical metric registry: every counter and gauge name the flow is
// allowed to touch. Metrics is create-on-first-use, so a typo'd name
// ("explore.cache_hit" next to "explore.cache_hits") silently splits a
// metric instead of failing — this list plus the end-to-end registry test
// at the repo root (TestMetricNamesRegistered) is what catches that.
//
// Adding a metric is a two-line change: the obs.C/obs.G call site and an
// entry here, with the comment saying what one unit of it means.

// KnownCounters lists every monotonic counter name.
var KnownCounters = []string{
	"atpg.aborted_faults",              // PODEM gave up on a fault (backtrack limit)
	"atpg.backtracks",                  // PODEM decision reversals
	"atpg.detected",                    // faults detected by generated or simulated vectors
	"atpg.faults",                      // faults targeted by ATPG
	"atpg.implications",                // PODEM implication steps
	"atpg.store_errors",                // test-set store reads or writes that failed with an I/O error
	"atpg.store_hits",                  // test sets served from the test-set store instead of ATPG
	"atpg.store_rejects",               // test-set store entries that did not check out and were regenerated
	"atpg.untestable",                  // faults proven untestable
	"atpg.vectors",                     // test vectors kept after generation
	"ccg.builds",                       // core connectivity graphs constructed
	"ccg.clones",                       // delta-evaluation graph splices (CloneWithVersion)
	"ccg.relaxations",                  // Dijkstra edge relaxations
	"ccg.reservation_conflicts",        // path searches that hit a reserved edge slot
	"ccg.searches",                     // shortest-path searches
	"chipsim.cycles",                   // chip-level RTL simulation cycles stepped
	"core.baseline_muxes_preinstalled", // degraded flow: baseline muxes re-applied
	"core.degraded_evaluations",        // EvaluateDegradedCtx runs
	"core.degraded_fallbacks",          // degraded flow: greedy version fallbacks taken
	"core.delta_evaluations",           // selections evaluated via the incremental delta path
	"core.delta_fallbacks",             // delta attempts that punted to a full evaluation
	"core.evaluations",                 // full chip evaluations (Evaluate/EvaluateSelection)
	"core.forced_muxes",                // system-level test muxes force-installed
	"explore.cache_hits",               // delta-evaluator requests answered by an exact base match
	"explore.cache_misses",             // delta-evaluator requests that computed a result
	"explore.cancelled",                // explorations ended by context cancellation
	"explore.eval_panics",              // evaluations recovered from panic
	"explore.iterations",               // improvement-walk iterations
	"explore.moves_accepted",           // improvement moves applied
	"explore.moves_proposed",           // candidate replacement steps generated
	"explore.moves_rejected",           // improvement moves tried and taken back
	"explore.points_evaluated",         // design points evaluated by Enumerate
	"obshttp.progress_streams",         // SSE /progress subscriptions accepted
	"obshttp.requests",                 // observability endpoint requests served
	"obshttp.servers_started",          // obshttp servers bound
	"proptest.paths_replayed",          // scheduled paths replayed cycle-accurately
	"resil.faults_injected",            // faults applied to cloned chips
	"resil.run_errors",                 // campaign runs that ended in a flow error
	"resil.runs",                       // campaign runs executed
	"rtlsim.cycles",                    // core-level RTL simulation cycles stepped
	"sched.cores_scheduled",            // cores given a complete test schedule
	"sched.cores_skipped",              // cores dropped by partial scheduling
	"sched.ports_unreachable",          // ports with no justification/propagation path
	"sched.test_muxes_added",           // test muxes inserted by the scheduler
	"serve.drains",                     // graceful drains begun (SIGTERM or /drain)
	"serve.http_requests",              // daemon API requests served
	"serve.jobs_accepted",              // jobs admitted past admission control
	"serve.jobs_completed",             // jobs that settled successfully
	"serve.jobs_failed",                // jobs that settled with an error
	"serve.jobs_recovered",             // unfinished jobs re-run from the journal at startup
	"serve.jobs_rejected",              // submissions refused (invalid spec, queue full, draining)
	"serve.journal_write_errors",       // job journal snapshots that failed to persist
	"serve.journal_writes",             // job journal snapshots persisted (temp+rename)
	"serve.lease_retries",              // work-unit reassignments scheduled after failure or expiry
	"serve.leases_expired",             // leases reclaimed after heartbeat silence past the TTL
	"serve.leases_granted",             // work units leased to pool workers
	"serve.worker_panics",              // pool attempts recovered from panic
	"shard.checkpoints_written",        // shard checkpoint frames persisted (temp+rename)
	"shard.frames_discarded",           // corrupt/torn checkpoint byte regions skipped on load
	"shard.resumed_ranges",             // completed work ranges loaded from checkpoints on resume
	"shard.retries",                    // shard attempts retried after a transient failure
	"trans.versions_built",             // transparency versions constructed
	"wrap.cores_wrapped",               // cores fitted with a P1500-style wrapper
	"wrap.paths_replayed",              // wrapper chains replayed cycle-accurately
	"wrap.schedules",                   // chip-level TAM schedules computed
}

// KnownGauges lists every last-value gauge name.
var KnownGauges = []string{
	"ccg.edges",                // CCG edge count of the last build
	"ccg.nodes",                // CCG node count of the last build
	"explore.parallel_workers", // worker-pool width of the last enumeration
	"serve.active_leases",      // work units currently leased to pool workers
	"serve.jobs_running",       // jobs currently executing
	"serve.queue_depth",        // work units waiting for a pool worker
}

var knownSet = func() map[string]bool {
	m := make(map[string]bool, len(KnownCounters)+len(KnownGauges))
	for _, n := range KnownCounters {
		m[n] = true
	}
	for _, n := range KnownGauges {
		m[n] = true
	}
	return m
}()

// Known reports whether name is in the canonical metric registry.
func Known(name string) bool { return knownSet[name] }
