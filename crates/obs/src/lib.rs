//! Std-only observability for the dmig solver pipeline.
//!
//! The crate provides three primitives behind one process-global,
//! thread-safe [`Recorder`]:
//!
//! * **spans** — hierarchical wall-clock intervals with thread
//!   attribution ([`span`], [`span_labeled`], [`span_under`]);
//! * **counters and gauges** — named atomic `u64`s ([`counter_add`],
//!   [`gauge_set`], [`gauge_max`]);
//! * **histograms** — log₂-bucketed distributions for latencies and
//!   operation counts ([`observe`], [`stopwatch`]).
//!
//! Collection is **off by default** and every recording call starts with a
//! single relaxed atomic load, so instrumentation left in hot paths costs
//! nothing measurable in production (the `obs_overhead` bench in
//! `dmig-bench` holds this to ≤1%). Turn it on with [`set_enabled`], pull
//! the data with [`snapshot`], and render it with
//! [`Snapshot::render_tree`] or [`Snapshot::to_json`].
//!
//! The crate is deliberately dependency-free: the workspace has no
//! crates.io access, so JSON is emitted by hand via the [`json`] helpers.
//!
//! # Example
//!
//! ```
//! let _ = dmig_obs::recorder(); // the shared global instance
//! dmig_obs::set_enabled(true);
//! {
//!     let _solve = dmig_obs::span("solve");
//!     dmig_obs::counter_add(dmig_obs::keys::FLOW_SOLVES, 1);
//!     dmig_obs::observe("dinic.max_flow_ns", 1234);
//! }
//! let snap = dmig_obs::snapshot();
//! assert_eq!(snap.counters["flow_solves"], 1);
//! dmig_obs::set_enabled(false);
//! dmig_obs::reset();
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod conf;
pub mod diff;
pub mod events;
pub mod explain;
pub mod fsio;
pub mod gate;
pub mod hist;
pub mod history;
pub mod json;
mod recorder;
pub mod sampler;
pub mod serve;
mod snapshot;
pub mod trace;
pub mod value;

pub use hist::{Histogram, HistogramSnapshot};
pub use recorder::{global as recorder, OpenSpan, Recorder, SpanGuard, SpanId, Stopwatch};
pub use snapshot::{Snapshot, SpanNode};
pub use value::Value;

/// Codes stored in the [`keys::LIVE_PHASE`] gauge by the pipeline stages,
/// so a live scrape can tell *where* a run currently is. Monotonically
/// ordered by pipeline position for an ordinary `solve`/`simulate` run.
pub mod phase {
    /// No pipeline stage has reported yet.
    pub const IDLE: u64 = 0;
    /// Unsharded solve in progress.
    pub const SOLVE: u64 = 1;
    /// Sharded pipeline: graph-cut cell partition.
    pub const PARTITION: u64 = 2;
    /// Sharded pipeline: per-shard cell solving.
    pub const CELLS: u64 = 3;
    /// Sharded pipeline: merge and boundary-round reconciliation.
    pub const BOUNDARY: u64 = 4;
    /// Simulation / fault-tolerant execution of a schedule.
    pub const SIMULATE: u64 = 5;
    /// Run finished; the final snapshot is what remains.
    pub const DONE: u64 = 6;
}

/// Well-known counter, gauge, and histogram names.
///
/// Naming convention: bare snake_case for pipeline-level totals that
/// appear in reports (`flow_solves`), and `area.metric` for
/// subsystem-scoped values (`dinic.bfs_phases`, `sim.rounds`). Histogram
/// names end in a unit suffix (`_ns`) when they record time.
pub mod keys {
    /// Max-flow problems solved while peeling quota levels (counter).
    pub const FLOW_SOLVES: &str = "flow_solves";
    /// Euler-split halvings performed by the quota partitioner (counter).
    pub const EULER_SPLITS: &str = "euler_splits";
    /// Degree-subgraph units satisfied by the greedy warm start (counter).
    pub const WARM_START_HITS: &str = "warm_start_hits";
    /// Degree-subgraph units that needed the flow solver (counter).
    pub const WARM_START_MISSES: &str = "warm_start_misses";
    /// Euler orientations computed by `solve_even` (counter).
    pub const EULER_ORIENTATIONS: &str = "euler_orientations";
    /// Cycle/ear chunks claimed while labeling pairing cycles (counter).
    ///
    /// Under multi-worker orientation the chunk count depends on how the
    /// claim race interleaves, so unlike the solver counters above it is
    /// *not* expected to be identical across thread counts.
    pub const EULER_CHUNKS: &str = "euler.chunks";
    /// Chunk junctions merged by the deterministic stitch pass (counter).
    ///
    /// Always `chunks - cycles`; zero when every chunk closed its own
    /// cycle (e.g. any single-worker orientation).
    pub const EULER_STITCHES: &str = "euler.stitches";
    /// Milliseconds spent inside chunked Euler orientation (counter).
    pub const EULER_PAR_MS: &str = "euler.par_ms";
    /// Connected components solved by the parallel driver (counter).
    pub const COMPONENTS_SOLVED: &str = "components_solved";
    /// Deepest recursion reached by the quota partitioner (gauge).
    pub const QUOTA_MAX_DEPTH: &str = "quota.max_recursion_depth";
    /// Dinic max-flow invocations (counter).
    pub const DINIC_CALLS: &str = "dinic.calls";
    /// BFS level-graph phases across all Dinic runs (counter).
    pub const DINIC_BFS_PHASES: &str = "dinic.bfs_phases";
    /// Augmenting paths found across all Dinic runs (counter).
    pub const DINIC_AUGMENTING_PATHS: &str = "dinic.augmenting_paths";
    /// Per-call Dinic wall time in nanoseconds (histogram).
    pub const DINIC_MAX_FLOW_NS: &str = "dinic.max_flow_ns";
    /// Push-relabel max-flow invocations (counter).
    pub const PUSH_RELABEL_CALLS: &str = "push_relabel.calls";
    /// Saturating + non-saturating pushes across all runs (counter).
    pub const PUSH_RELABEL_PUSHES: &str = "push_relabel.pushes";
    /// Relabel operations across all runs (counter).
    pub const PUSH_RELABEL_RELABELS: &str = "push_relabel.relabels";
    /// Per-component solve wall time in nanoseconds (histogram).
    pub const COMPONENT_SOLVE_NS: &str = "component.solve_ns";
    /// Worker permits handed out by the shared thread budget (counter).
    pub const POOL_ACQUIRES: &str = "pool.acquires";
    /// Worker-permit requests denied because the budget was spent (counter).
    pub const POOL_ACQUIRE_DENIED: &str = "pool.acquire_denied";
    /// Subproblem tasks enqueued on the intra-component work pool (counter).
    pub const POOL_TASKS: &str = "pool.tasks";
    /// Tasks executed by a worker other than the one that enqueued them
    /// (counter).
    pub const POOL_STEALS: &str = "pool.steals";
    /// Widest worker fan-out a single quota recursion reached (gauge).
    pub const POOL_MAX_WORKERS: &str = "pool.max_workers";
    /// Deepest pending-task queue a quota recursion reached (gauge).
    pub const POOL_MAX_QUEUE_DEPTH: &str = "pool.max_queue_depth";
    /// Solver scratch arenas reused from the process-wide pool (counter).
    pub const SCRATCH_REUSES: &str = "scratch.reuses";
    /// Solver scratch arenas freshly allocated on pool miss (counter).
    pub const SCRATCH_ALLOCS: &str = "scratch.allocs";
    /// Rounds executed by the simulation engine (counter).
    pub const SIM_ROUNDS: &str = "sim.rounds";
    /// Object transfers executed by the simulation engine (counter).
    pub const SIM_TRANSFERS: &str = "sim.transfers";
    /// Transfers per simulated round (histogram).
    pub const SIM_ROUND_TRANSFERS: &str = "sim.round_transfers";
    /// Wall-clock nanoseconds the engine spent per round (histogram).
    pub const SIM_ROUND_WALL_NS: &str = "sim.round_wall_ns";
    /// Rounds whose wall time exceeded the stall threshold (k× the
    /// rolling median round time) (counter).
    pub const SIM_STALLS: &str = "sim.stalls";
    /// Percentage of scheduled rounds the engine has executed (gauge).
    pub const SIM_PROGRESS_PCT: &str = "sim.progress_pct";
    /// Rounds of the schedule the CLI produced (gauge).
    pub const SOLVE_ROUNDS: &str = "solve.rounds";
    /// Lower bound `Δ'` (LB1) of the solved instance (gauge).
    pub const SOLVE_LB1: &str = "solve.lb1";
    /// Lower bound `Γ'` (LB2) of the solved instance, set only with
    /// `--explain` (gauge).
    pub const SOLVE_LB2: &str = "solve.lb2";
    /// Closed-loop replans performed by the fault-tolerant executor
    /// (counter).
    pub const EXEC_REPLANS: &str = "exec.replans";
    /// Transfer attempts retried after a flaky failure (counter).
    pub const EXEC_RETRIES: &str = "exec.retries";
    /// Items lost to dead disks or exhausted retries (counter).
    pub const EXEC_LOST_ITEMS: &str = "exec.lost_items";
    /// Executed rounds during which some disk ran below the degradation
    /// threshold (counter).
    pub const EXEC_DEGRADED_ROUNDS: &str = "exec.degraded_rounds";
    /// Items rerouted to a replacement disk after a crash-stop (counter).
    pub const EXEC_REDIRECTS: &str = "exec.redirects";
    /// Crash-stop fault events applied by the executor (counter).
    pub const EXEC_CRASHES: &str = "exec.crashes";
    /// Structured events recorded by the flight recorder (counter).
    pub const EVENTS_EMITTED: &str = "events.emitted";
    /// Events evicted from the flight recorder's bounded ring (counter).
    pub const EVENTS_DROPPED: &str = "events.dropped";
    /// `ItemLost` events recorded by the flight recorder (counter).
    pub const EVENTS_ITEM_LOST: &str = "events.item_lost";
    /// Binding lower bound `max(Δ', Γ')` the attribution engine reported
    /// (gauge).
    pub const EXPLAIN_BINDING_BOUND: &str = "explain.binding_bound";
    /// The disk realizing LB1 per the attribution engine (gauge).
    pub const EXPLAIN_LB1_DISK: &str = "explain.lb1_disk";
    /// Worker shards used by the sharded solve pipeline (gauge).
    pub const SHARD_COUNT: &str = "shard.count";
    /// Edges cut to the boundary set by the cell partition (gauge).
    pub const SHARD_CUT_EDGES: &str = "shard.cut_edges";
    /// Cut fraction in basis points: `cut_edges * 10000 / total` (gauge).
    pub const SHARD_CUT_FRACTION: &str = "shard.cut_fraction";
    /// Milliseconds spent merging shard schedules and aligning the
    /// boundary rounds (counter).
    pub const SHARD_RECONCILE_MS: &str = "shard.reconcile_ms";
    /// Rounds of the boundary pass appended after the cell rounds (gauge).
    pub const SHARD_BOUNDARY_ROUNDS: &str = "shard.boundary_rounds";
    /// Current pipeline stage code; see [`crate::phase`] (gauge).
    pub const LIVE_PHASE: &str = "live.phase";
    /// Rounds the live engine has executed in the current plan (gauge).
    pub const LIVE_ROUND: &str = "live.round";
    /// Work items finished by the current phase: cells solved while
    /// sharding, transfers executed while simulating (gauge).
    pub const LIVE_ITEMS_DONE: &str = "live.items_done";
    /// Shard bins being solved right now (gauge).
    pub const LIVE_SHARD_ACTIVE: &str = "live.shard_active";
    /// Resident set size (VmRSS) sampled from /proc/self/status (gauge).
    pub const MEM_RSS_BYTES: &str = "mem.rss_bytes";
    /// Peak resident set size (VmHWM) from /proc/self/status (gauge).
    pub const MEM_RSS_PEAK_BYTES: &str = "mem.rss_peak_bytes";
    /// Extra-worker permits currently free in the shared budget (gauge).
    pub const POOL_PERMITS_AVAILABLE: &str = "pool.permits_available";
    /// Extra-worker permits the budget was last reset to (gauge).
    pub const POOL_PERMITS_CAPACITY: &str = "pool.permits_capacity";
    /// Scratch arenas currently parked in the process-wide pool (gauge).
    pub const POOL_PARKED: &str = "pool.parked";
    /// High-water mark of parked scratch arenas (gauge).
    pub const POOL_PARKED_HIGH_WATER: &str = "pool.parked_high_water";
    /// Ticks taken by the background sampling profiler (counter).
    pub const PROF_SAMPLES: &str = "prof.samples";
    /// HTTP requests answered by the `--serve` listener (counter).
    pub const SERVE_REQUESTS: &str = "serve.requests";
    /// Round index of the last checkpoint the workspace journal holds
    /// (gauge).
    pub const WS_ROUND: &str = "ws.round";
    /// Executor checkpoints appended to the workspace journal (counter).
    pub const WS_CHECKPOINTS: &str = "ws.checkpoints";
    /// Times an executor was revived from a journal checkpoint (counter).
    pub const WS_RESUMES: &str = "ws.resumes";
    /// Bytes appended to the workspace journal so far (gauge).
    pub const WS_JOURNAL_BYTES: &str = "ws.journal_bytes";
}

/// Name prefix of the sampling profiler's per-span self-time family:
/// each distinct open span name gets a `prof.self_ns.<span>` histogram.
/// Lives outside [`keys`] because the family is open-ended — the suffix
/// is the span name observed at runtime.
pub const PROF_SELF_NS_PREFIX: &str = "prof.self_ns.";

/// One row per `keys::*` constant: `(key, one-line doc)`. The unit test
/// `keys_reference_covers_every_constant` fails when a constant is added
/// here without a doc row (or vice versa), and the README carries the
/// rendered [`render_keys_table`] between `<!-- keys:begin/end -->`
/// markers, kept in sync by its own test.
#[must_use]
#[allow(clippy::too_many_lines)]
pub fn keys_reference() -> Vec<(&'static str, &'static str)> {
    vec![
        (
            keys::FLOW_SOLVES,
            "Max-flow problems solved while peeling quota levels (counter).",
        ),
        (
            keys::EULER_SPLITS,
            "Euler-split halvings performed by the quota partitioner (counter).",
        ),
        (
            keys::WARM_START_HITS,
            "Degree-subgraph units satisfied by the greedy warm start (counter).",
        ),
        (
            keys::WARM_START_MISSES,
            "Degree-subgraph units that needed the flow solver (counter).",
        ),
        (
            keys::EULER_ORIENTATIONS,
            "Euler orientations computed by `solve_even` (counter).",
        ),
        (
            keys::EULER_CHUNKS,
            "Cycle/ear chunks claimed while labeling pairing cycles; \
             thread-count dependent by design (counter).",
        ),
        (
            keys::EULER_STITCHES,
            "Chunk junctions merged by the deterministic stitch pass (counter).",
        ),
        (
            keys::EULER_PAR_MS,
            "Milliseconds spent inside chunked Euler orientation (counter).",
        ),
        (
            keys::COMPONENTS_SOLVED,
            "Connected components solved by the parallel driver (counter).",
        ),
        (
            keys::QUOTA_MAX_DEPTH,
            "Deepest recursion reached by the quota partitioner (gauge).",
        ),
        (keys::DINIC_CALLS, "Dinic max-flow invocations (counter)."),
        (
            keys::DINIC_BFS_PHASES,
            "BFS level-graph phases across all Dinic runs (counter).",
        ),
        (
            keys::DINIC_AUGMENTING_PATHS,
            "Augmenting paths found across all Dinic runs (counter).",
        ),
        (
            keys::DINIC_MAX_FLOW_NS,
            "Per-call Dinic wall time in nanoseconds (histogram).",
        ),
        (
            keys::PUSH_RELABEL_CALLS,
            "Push-relabel max-flow invocations (counter).",
        ),
        (
            keys::PUSH_RELABEL_PUSHES,
            "Saturating + non-saturating pushes across all runs (counter).",
        ),
        (
            keys::PUSH_RELABEL_RELABELS,
            "Relabel operations across all runs (counter).",
        ),
        (
            keys::COMPONENT_SOLVE_NS,
            "Per-component solve wall time in nanoseconds (histogram).",
        ),
        (
            keys::POOL_ACQUIRES,
            "Worker permits handed out by the shared thread budget (counter).",
        ),
        (
            keys::POOL_ACQUIRE_DENIED,
            "Worker-permit requests denied because the budget was spent (counter).",
        ),
        (
            keys::POOL_TASKS,
            "Subproblem tasks enqueued on the intra-component work pool (counter).",
        ),
        (
            keys::POOL_STEALS,
            "Tasks executed by a worker other than the one that enqueued them (counter).",
        ),
        (
            keys::POOL_MAX_WORKERS,
            "Widest worker fan-out a single quota recursion reached (gauge).",
        ),
        (
            keys::POOL_MAX_QUEUE_DEPTH,
            "Deepest pending-task queue a quota recursion reached (gauge).",
        ),
        (
            keys::SCRATCH_REUSES,
            "Solver scratch arenas reused from the process-wide pool (counter).",
        ),
        (
            keys::SCRATCH_ALLOCS,
            "Solver scratch arenas freshly allocated on pool miss (counter).",
        ),
        (
            keys::SIM_ROUNDS,
            "Rounds executed by the simulation engine (counter).",
        ),
        (
            keys::SIM_TRANSFERS,
            "Object transfers executed by the simulation engine (counter).",
        ),
        (
            keys::SIM_ROUND_TRANSFERS,
            "Transfers per simulated round (histogram).",
        ),
        (
            keys::SIM_ROUND_WALL_NS,
            "Wall-clock nanoseconds the engine spent per round (histogram).",
        ),
        (
            keys::SIM_STALLS,
            "Rounds whose wall time exceeded the stall threshold (counter).",
        ),
        (
            keys::SIM_PROGRESS_PCT,
            "Percentage of scheduled rounds the engine has executed (gauge).",
        ),
        (
            keys::SOLVE_ROUNDS,
            "Rounds of the schedule the CLI produced (gauge).",
        ),
        (
            keys::SOLVE_LB1,
            "Lower bound Δ' (LB1) of the solved instance (gauge).",
        ),
        (
            keys::SOLVE_LB2,
            "Lower bound Γ' (LB2) of the solved instance, set only with --explain (gauge).",
        ),
        (
            keys::EXEC_REPLANS,
            "Closed-loop replans performed by the fault-tolerant executor (counter).",
        ),
        (
            keys::EXEC_RETRIES,
            "Transfer attempts retried after a flaky failure (counter).",
        ),
        (
            keys::EXEC_LOST_ITEMS,
            "Items lost to dead disks or exhausted retries (counter).",
        ),
        (
            keys::EXEC_DEGRADED_ROUNDS,
            "Executed rounds with some disk below the degradation threshold (counter).",
        ),
        (
            keys::EXEC_REDIRECTS,
            "Items rerouted to a replacement disk after a crash-stop (counter).",
        ),
        (
            keys::EXEC_CRASHES,
            "Crash-stop fault events applied by the executor (counter).",
        ),
        (
            keys::EVENTS_EMITTED,
            "Structured events recorded by the flight recorder (counter).",
        ),
        (
            keys::EVENTS_DROPPED,
            "Events evicted from the flight recorder's bounded ring (counter).",
        ),
        (
            keys::EVENTS_ITEM_LOST,
            "`ItemLost` events recorded by the flight recorder (counter).",
        ),
        (
            keys::EXPLAIN_BINDING_BOUND,
            "Binding lower bound max(Δ', Γ') reported by the attribution engine (gauge).",
        ),
        (
            keys::EXPLAIN_LB1_DISK,
            "The disk realizing LB1 per the attribution engine (gauge).",
        ),
        (
            keys::SHARD_COUNT,
            "Worker shards used by the sharded solve pipeline (gauge).",
        ),
        (
            keys::SHARD_CUT_EDGES,
            "Edges cut to the boundary set by the cell partition (gauge).",
        ),
        (
            keys::SHARD_CUT_FRACTION,
            "Cut fraction in basis points: `cut_edges * 10000 / total` (gauge).",
        ),
        (
            keys::SHARD_RECONCILE_MS,
            "Milliseconds spent merging shard schedules and aligning the boundary rounds (counter).",
        ),
        (
            keys::SHARD_BOUNDARY_ROUNDS,
            "Rounds of the boundary pass appended after the cell rounds (gauge).",
        ),
        (
            keys::LIVE_PHASE,
            "Current pipeline stage code; see the `phase` module (gauge).",
        ),
        (
            keys::LIVE_ROUND,
            "Rounds the live engine has executed in the current plan (gauge).",
        ),
        (
            keys::LIVE_ITEMS_DONE,
            "Work items finished by the current phase: cells solved while sharding, transfers executed while simulating (gauge).",
        ),
        (
            keys::LIVE_SHARD_ACTIVE,
            "Shard bins being solved right now (gauge).",
        ),
        (
            keys::MEM_RSS_BYTES,
            "Resident set size (VmRSS) sampled from /proc/self/status (gauge).",
        ),
        (
            keys::MEM_RSS_PEAK_BYTES,
            "Peak resident set size (VmHWM) from /proc/self/status (gauge).",
        ),
        (
            keys::POOL_PERMITS_AVAILABLE,
            "Extra-worker permits currently free in the shared budget (gauge).",
        ),
        (
            keys::POOL_PERMITS_CAPACITY,
            "Extra-worker permits the budget was last reset to (gauge).",
        ),
        (
            keys::POOL_PARKED,
            "Scratch arenas currently parked in the process-wide pool (gauge).",
        ),
        (
            keys::POOL_PARKED_HIGH_WATER,
            "High-water mark of parked scratch arenas (gauge).",
        ),
        (
            keys::PROF_SAMPLES,
            "Ticks taken by the background sampling profiler (counter).",
        ),
        (
            keys::SERVE_REQUESTS,
            "HTTP requests answered by the `--serve` listener (counter).",
        ),
        (
            keys::WS_ROUND,
            "Round index of the last checkpoint the workspace journal holds (gauge).",
        ),
        (
            keys::WS_CHECKPOINTS,
            "Executor checkpoints appended to the workspace journal (counter).",
        ),
        (
            keys::WS_RESUMES,
            "Times an executor was revived from a journal checkpoint (counter).",
        ),
        (
            keys::WS_JOURNAL_BYTES,
            "Bytes appended to the workspace journal so far (gauge).",
        ),
    ]
}

/// Renders [`keys_reference`] as the Markdown table embedded in the
/// README's metric-key reference section.
#[must_use]
pub fn render_keys_table() -> String {
    let mut out = String::from("| key | description |\n| --- | --- |\n");
    for (key, doc) in keys_reference() {
        out.push_str(&format!("| `{key}` | {doc} |\n"));
    }
    // The sampler's self-time family is open-ended (one histogram per span
    // name), so it is documented as a prefix row rather than a constant.
    out.push_str(&format!(
        "| `{PROF_SELF_NS_PREFIX}<span>` | Sampled self-time per open span \
         name, one tick interval per hit (histogram). |\n"
    ));
    out
}

/// Whether the global recorder is collecting.
#[inline]
#[must_use]
pub fn is_enabled() -> bool {
    recorder().is_enabled()
}

/// Turns collection on or off on the global recorder.
pub fn set_enabled(enabled: bool) {
    recorder().set_enabled(enabled);
}

/// Discards all data held by the global recorder (registered names are
/// kept, zeroed).
pub fn reset() {
    recorder().reset();
}

/// Opens a span on the global recorder; closed when the guard drops.
pub fn span(name: &'static str) -> SpanGuard {
    recorder().span(name)
}

/// Opens a labelled span; the label closure only runs while enabled.
pub fn span_labeled<F: FnOnce() -> String>(name: &'static str, f: F) -> SpanGuard {
    recorder().span_labeled(name, f)
}

/// Opens a span under an explicit parent (cross-thread attribution).
pub fn span_under<F: FnOnce() -> String>(
    parent: Option<SpanId>,
    name: &'static str,
    f: F,
) -> SpanGuard {
    recorder().span_under(parent, name, f)
}

/// The innermost open span on this thread, for handing to workers.
#[must_use]
pub fn current_span() -> Option<SpanId> {
    recorder().current_span()
}

/// Adds `delta` to a named counter (0 pre-registers the key).
pub fn counter_add(name: &'static str, delta: u64) {
    recorder().counter_add(name, delta);
}

/// Sets a named gauge.
pub fn gauge_set(name: &'static str, value: u64) {
    recorder().gauge_set(name, value);
}

/// Raises a named gauge to `value` if larger.
pub fn gauge_max(name: &'static str, value: u64) {
    recorder().gauge_max(name, value);
}

/// Moves a named gauge by a signed delta, clamping at zero.
pub fn gauge_add(name: &'static str, delta: i64) {
    recorder().gauge_add(name, delta);
}

/// Records one observation in a named histogram.
pub fn observe(name: &'static str, value: u64) {
    recorder().observe(name, value);
}

/// Starts a stopwatch that records into a named histogram on drop.
pub fn stopwatch(name: &'static str) -> Stopwatch {
    recorder().stopwatch(name)
}

/// Snapshots everything the global recorder has collected.
#[must_use]
pub fn snapshot() -> Snapshot {
    recorder().snapshot()
}

/// Shared helpers for in-crate tests that touch the process-global
/// recorder: one lock serializes them all (lib, sampler, serve tests run
/// in the same binary), and [`testutil::Cleanup`] restores the
/// disabled/empty state on exit even on panic.
#[cfg(test)]
pub(crate) mod testutil {
    use std::sync::{Mutex, MutexGuard};

    pub(crate) fn obs_lock() -> MutexGuard<'static, ()> {
        static LOCK: Mutex<()> = Mutex::new(());
        LOCK.lock().unwrap_or_else(|e| e.into_inner())
    }

    pub(crate) struct Cleanup;
    impl Drop for Cleanup {
        fn drop(&mut self) {
            crate::set_enabled(false);
            crate::reset();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::testutil::{obs_lock, Cleanup};

    #[test]
    fn disabled_recorder_collects_nothing() {
        let _l = obs_lock();
        let _c = Cleanup;
        super::set_enabled(false);
        super::reset();
        {
            let s = super::span("ghost");
            assert!(s.id().is_none());
            super::counter_add("ghost_counter", 5);
            super::observe("ghost_hist", 1);
            let _w = super::stopwatch("ghost_watch");
        }
        let snap = super::snapshot();
        assert!(snap.spans.is_empty());
        assert_eq!(snap.counters.get("ghost_counter"), None);
        assert!(snap.histograms.is_empty() || !snap.histograms.contains_key("ghost_hist"));
    }

    #[test]
    fn spans_nest_on_one_thread() {
        let _l = obs_lock();
        let _c = Cleanup;
        super::reset();
        super::set_enabled(true);
        {
            let _outer = super::span("outer");
            {
                let _inner = super::span_labeled("inner", || "x=1".to_string());
            }
            let _sibling = super::span("sibling");
        }
        let snap = super::snapshot();
        assert_eq!(snap.spans.len(), 1);
        assert_eq!(snap.spans[0].name, "outer");
        let kids: Vec<&str> = snap.spans[0]
            .children
            .iter()
            .map(|c| c.name.as_str())
            .collect();
        assert_eq!(kids, ["inner", "sibling"]);
        assert_eq!(snap.spans[0].children[0].label.as_deref(), Some("x=1"));
        assert!(snap.spans[0].duration_ns.is_some());
    }

    #[test]
    fn cross_thread_parenting_attributes_to_coordinator() {
        let _l = obs_lock();
        let _c = Cleanup;
        super::reset();
        super::set_enabled(true);
        {
            let coord = super::span("coordinator");
            let parent = coord.id();
            std::thread::scope(|scope| {
                for i in 0..2 {
                    scope.spawn(move || {
                        let _s = super::span_under(parent, "worker", || format!("#{i}"));
                    });
                }
            });
        }
        let snap = super::snapshot();
        assert_eq!(snap.spans.len(), 1);
        assert_eq!(snap.spans[0].children.len(), 2);
        let threads: Vec<u64> = snap.spans[0].children.iter().map(|c| c.thread).collect();
        assert_ne!(threads[0], snap.spans[0].thread);
        assert_ne!(threads[1], snap.spans[0].thread);
    }

    #[test]
    fn counters_gauges_histograms_roundtrip() {
        let _l = obs_lock();
        let _c = Cleanup;
        super::reset();
        super::set_enabled(true);
        super::counter_add("c", 0); // pre-register
        super::counter_add("c", 3);
        super::counter_add("c", 4);
        super::gauge_set("g", 9);
        super::gauge_max("g", 5); // lower: ignored
        super::gauge_max("g", 12);
        super::observe("h", 7);
        super::observe("h", 9);
        let snap = super::snapshot();
        assert_eq!(snap.counters["c"], 7);
        assert_eq!(snap.gauges["g"], 12);
        assert_eq!(snap.histograms["h"].count, 2);
        assert_eq!(snap.histograms["h"].sum, 16);
    }

    #[test]
    fn reset_keeps_keys_and_invalidates_straddling_guards() {
        let _l = obs_lock();
        let _c = Cleanup;
        super::reset();
        super::set_enabled(true);
        super::counter_add("kept", 5);
        let straddler = super::span("straddler");
        super::reset();
        drop(straddler); // must not resurrect or corrupt anything
        let snap = super::snapshot();
        assert_eq!(snap.counters["kept"], 0, "key kept, value zeroed");
        assert!(snap.spans.is_empty());
        assert_eq!(super::current_span(), None);
    }

    #[test]
    fn stopwatch_records_on_drop() {
        let _l = obs_lock();
        let _c = Cleanup;
        super::reset();
        super::set_enabled(true);
        {
            let _w = super::stopwatch("watch_ns");
        }
        let snap = super::snapshot();
        assert_eq!(snap.histograms["watch_ns"].count, 1);
    }

    /// Every `pub const NAME: &str = "...";` inside `mod keys`, extracted
    /// from this file's own source.
    fn keys_in_source() -> Vec<String> {
        let src = include_str!("lib.rs");
        let body = src
            .split("pub mod keys {")
            .nth(1)
            .and_then(|rest| rest.split("\n}").next())
            .expect("keys module present in lib.rs");
        body.lines()
            .filter_map(|line| {
                let line = line.trim();
                let rest = line.strip_prefix("pub const ")?;
                let value = rest.split('=').nth(1)?.trim();
                Some(value.trim_end_matches(';').trim_matches('"').to_string())
            })
            .collect()
    }

    #[test]
    fn keys_reference_covers_every_constant() {
        let in_source = keys_in_source();
        assert!(
            in_source.len() >= 40,
            "extraction broke: only {} keys found",
            in_source.len()
        );
        let documented: Vec<&str> = super::keys_reference().iter().map(|(k, _)| *k).collect();
        for key in &in_source {
            assert!(
                documented.contains(&key.as_str()),
                "key `{key}` added to `mod keys` without a row in \
                 `keys_reference()` — document it there (and re-generate \
                 the README table)"
            );
        }
        for key in &documented {
            assert!(
                in_source.iter().any(|k| k == key),
                "`keys_reference()` documents `{key}` but no such constant \
                 exists in `mod keys`"
            );
        }
        assert_eq!(in_source.len(), documented.len(), "duplicate rows or keys");
    }

    #[test]
    fn keys_reference_docs_are_one_line_and_typed() {
        for (key, doc) in super::keys_reference() {
            assert!(!doc.contains('\n'), "{key}: doc must be one line");
            assert!(
                doc.contains("(counter)") || doc.contains("(gauge)") || doc.contains("(histogram)"),
                "{key}: doc must state the metric type"
            );
        }
    }

    #[test]
    fn readme_keys_table_is_in_sync() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../../README.md");
        let readme = std::fs::read_to_string(path).expect("README.md readable");
        let embedded = readme
            .split("<!-- keys:begin -->")
            .nth(1)
            .and_then(|rest| rest.split("<!-- keys:end -->").next())
            .expect("README carries <!-- keys:begin/end --> markers");
        assert_eq!(
            embedded.trim(),
            super::render_keys_table().trim(),
            "README metric-key table drifted from `render_keys_table()` — \
             paste the new table between the keys:begin/end markers"
        );
    }

    #[test]
    fn concurrent_counting_is_lossless() {
        let _l = obs_lock();
        let _c = Cleanup;
        super::reset();
        super::set_enabled(true);
        std::thread::scope(|scope| {
            for _ in 0..4 {
                scope.spawn(|| {
                    for _ in 0..1000 {
                        super::counter_add("spins", 1);
                    }
                });
            }
        });
        assert_eq!(super::snapshot().counters["spins"], 4000);
    }
}
