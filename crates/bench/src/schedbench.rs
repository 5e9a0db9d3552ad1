//! Scheduler sweep: host-side cost of the level-synchronous scheduler vs
//! the sequential oracle — the record behind `BENCH_sched.json`.
//!
//! For each substrate (`grid`, `tri-grid`) × size, one cell times
//! [`embed_recursion`] — the distributed pipeline (setup + the
//! partition/merge recursion), the unit the scheduler actually controls —
//! under [`Scheduler::Sequential`] (one full-graph kernel invocation per
//! subproblem phase) and under [`Scheduler::LevelSync`] (all same-level
//! subproblems partitioned in a single batched invocation over a shared
//! [`SimSession`] arena), asserts the two runs' metrics and statistics
//! are bit-identical, and reports the wall-time speedup. Timing
//! `embed_distributed` instead would let the scheduler-independent
//! centralized fidelity epilogue (see DESIGN.md) dominate large cells
//! and wash the comparison out; rotation-level conformance between the
//! schedulers is pinned separately by `core/tests/scheduler.rs`.
//!
//! The simulated CONGEST cost (`metrics.rounds`, the parallel-composed
//! count, and `stats.sequential_rounds`, the charged tally) is identical
//! by construction — the sweep records it once per cell as a cross-check.
//!
//! Each row additionally carries a `threads` column: the kernel worker
//! threads pinned (`SimConfig::threads`) for the level-synchronous run.
//! The oracle always runs at 1 thread, so the thread sweep at large cells
//! isolates the host-side effect of parallel round execution inside the
//! batched kernel — with metrics/statistics still asserted bit-identical
//! at every thread count (the kernel's determinism contract).
//!
//! [`embed_recursion`]: planar_embedding::embed_recursion
//! [`Scheduler::Sequential`]: planar_embedding::Scheduler::Sequential
//! [`Scheduler::LevelSync`]: planar_embedding::Scheduler::LevelSync
//! [`SimSession`]: congest_sim::SimSession

use congest_sim::Metrics;
use planar_embedding::{embed_recursion, EmbedderConfig, RecursionStats, Scheduler};
use planar_lib::gen;

use crate::timing::bench;

/// One cell of the scheduler sweep.
#[derive(Clone, Debug)]
pub struct SchedRow {
    /// Substrate family (`"grid"` or `"tri-grid"`).
    pub family: &'static str,
    /// Vertex count.
    pub n: usize,
    /// Kernel worker threads pinned for the level-synchronous run
    /// (`SimConfig::threads`). The sequential oracle always runs at 1
    /// thread, so rows with `threads > 1` measure the parallel round
    /// execution inside the batched kernel against the same baseline.
    pub threads: usize,
    /// Timed iterations per scheduler (median is reported).
    pub iters: usize,
    /// Median wall time of the sequential (oracle) scheduler, seconds.
    pub sequential_secs: f64,
    /// Median wall time of the level-synchronous scheduler, seconds.
    pub level_sync_secs: f64,
    /// `sequential_secs / level_sync_secs`.
    pub speedup: f64,
    /// Parallel-composed simulated rounds (identical across schedulers).
    pub rounds: usize,
    /// Charged sequential round tally (identical across schedulers).
    pub sequential_rounds: usize,
    /// Whether metrics and recursion statistics were bit-identical
    /// (asserted — recorded for the JSON reader's benefit).
    pub outputs_identical: bool,
    /// Process peak RSS after this cell, bytes (0 = probe unavailable).
    /// Monotone across rows — the last cell of a sweep bounds the whole
    /// sweep; per-n deltas bound the marginal cost of a cell.
    pub peak_rss_bytes: usize,
}

fn substrate(family: &'static str, n: usize) -> planar_graph::Graph {
    let side = (n as f64).sqrt().round() as usize;
    match family {
        "grid" => gen::grid(side, side),
        "tri-grid" => gen::triangulated_grid(side, side),
        other => unreachable!("unknown sched substrate {other}"),
    }
}

fn config(scheduler: Scheduler) -> EmbedderConfig {
    EmbedderConfig {
        // Invariant checking is host-side superlinear work outside the
        // scheduler's control. Off: the cell times the recursion itself.
        check_invariants: false,
        certify: false,
        scheduler,
        ..EmbedderConfig::default()
    }
}

/// Timed iterations for a cell of `n` vertices (the huge cells run the
/// sequential oracle for minutes; one timed pass is enough there).
fn iters_for(n: usize) -> usize {
    if n >= 40_000 {
        1
    } else if n >= 4096 {
        3
    } else {
        5
    }
}

/// Runs one timed cell at `threads = 1` (the historical shape).
///
/// # Panics
///
/// As [`sched_cell_threads`].
pub fn sched_cell(family: &'static str, n: usize) -> SchedRow {
    sched_cell_threads(family, n, &[1])
        .pop()
        .expect("one thread count yields one row")
}

/// Runs one substrate cell: the sequential oracle is validated and timed
/// once (always at 1 kernel thread), then the level-synchronous scheduler
/// is validated and timed at each requested kernel thread count, yielding
/// one row per thread count. All rows of a cell share the oracle timing
/// and iteration count, so `speedup` across rows isolates the effect of
/// the parallel round execution inside the batched kernel.
///
/// # Panics
///
/// Panics if either scheduler fails, or if any level-synchronous run's
/// metrics/statistics differ from the oracle's (the conformance contract
/// — and, for `threads > 1`, the thread-count determinism contract: a
/// benchmark that compares divergent computations would be meaningless).
pub fn sched_cell_threads(family: &'static str, n: usize, threads: &[usize]) -> Vec<SchedRow> {
    let g = substrate(family, n);
    let run = |scheduler: Scheduler, t: usize| -> (Metrics, RecursionStats) {
        let mut cfg = config(scheduler);
        cfg.sim.threads = Some(t);
        embed_recursion(&g, &cfg).expect("sched cell must embed")
    };
    let (seq_metrics, seq_stats) = run(Scheduler::Sequential, 1);
    let iters = iters_for(n);
    let seq = bench(&format!("sched/{family}{n}/sequential"), iters, || {
        run(Scheduler::Sequential, 1)
    });

    let mut rows = Vec::new();
    for &t in threads {
        let (lvl_metrics, lvl_stats) = run(Scheduler::LevelSync, t);
        let identical = seq_metrics == lvl_metrics && seq_stats == lvl_stats;
        assert!(
            identical,
            "sched cell {family}/n={n}/threads={t}: schedulers diverged"
        );
        let lvl = bench(&format!("sched/{family}{n}/level-sync/t{t}"), iters, || {
            run(Scheduler::LevelSync, t)
        });
        rows.push(SchedRow {
            family,
            n,
            threads: t,
            iters,
            sequential_secs: seq.median_secs(),
            level_sync_secs: lvl.median_secs(),
            speedup: seq.median_secs() / lvl.median_secs(),
            rounds: lvl_metrics.rounds,
            sequential_rounds: lvl_stats.sequential_rounds,
            outputs_identical: identical,
            peak_rss_bytes: crate::mem::peak_rss_bytes(),
        });
    }
    rows
}

/// Runs the sweep (substrates × `sizes`), serially — timing cells must not
/// contend for cores the way the audited/correctness sweeps may. Cells
/// with `n >= 4096` run the level-synchronous scheduler at every thread
/// count in `threads`; smaller cells stay at 1 (their kernel invocations
/// are too small to amortize a fan-out, and the extra rows would only pad
/// the record).
pub fn sched_sweep(sizes: &[usize], threads: &[usize]) -> Vec<SchedRow> {
    let mut rows = Vec::new();
    for family in ["grid", "tri-grid"] {
        for &n in sizes {
            let cell_threads: &[usize] = if n >= 4096 { threads } else { &[1] };
            rows.extend(sched_cell_threads(family, n, cell_threads));
        }
    }
    rows
}

/// Renders rows as the `BENCH_sched.json` document (hand-rolled JSON, as
/// the other BENCH files: every field numeric or a known-safe literal).
pub fn to_json(rows: &[SchedRow]) -> String {
    let mut s = String::from("{\n");
    s.push_str("  \"benchmark\": \"scheduler\",\n");
    s.push_str(
        "  \"metric\": \"host wall time of the distributed pipeline (embed_recursion: \
         setup + partition/merge recursion) under the level-synchronous scheduler vs \
         the sequential oracle; metrics and statistics asserted bit-identical per \
         cell; simulated rounds are scheduler-independent\",\n",
    );
    s.push_str("  \"cells\": [\n");
    for (i, r) in rows.iter().enumerate() {
        s.push_str(&format!(
            concat!(
                "    {{\"family\": \"{}\", \"n\": {}, \"threads\": {}, \"iters\": {}, ",
                "\"sequential_secs\": {:.6}, \"level_sync_secs\": {:.6}, ",
                "\"speedup\": {:.3}, \"rounds\": {}, \"sequential_rounds\": {}, ",
                "\"outputs_identical\": {}, \"peak_rss_bytes\": {}}}{}\n"
            ),
            r.family,
            r.n,
            r.threads,
            r.iters,
            r.sequential_secs,
            r.level_sync_secs,
            r.speedup,
            r.rounds,
            r.sequential_rounds,
            r.outputs_identical,
            r.peak_rss_bytes,
            if i + 1 < rows.len() { "," } else { "" }
        ));
    }
    s.push_str("  ]\n}\n");
    s
}

/// Writes [`to_json`] to `path`.
///
/// # Errors
///
/// Propagates the underlying I/O error.
pub fn write_json(path: &std::path::Path, rows: &[SchedRow]) -> std::io::Result<()> {
    std::fs::write(path, to_json(rows))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cell_asserts_identity_and_times_both_schedulers() {
        let r = sched_cell("grid", 64);
        assert_eq!((r.threads, r.iters), (1, 5));
        assert!(r.outputs_identical);
        assert!(r.sequential_secs > 0.0 && r.level_sync_secs > 0.0);
        assert!(r.rounds > 0 && r.sequential_rounds >= r.rounds);
    }

    /// A thread sweep shares the oracle timing across its rows, keeps the
    /// per-row thread count, and asserts identity at every thread count.
    #[test]
    fn thread_sweep_shares_oracle_and_stays_identical() {
        let rows = sched_cell_threads("grid", 64, &[1, 2]);
        assert_eq!(rows.len(), 2);
        assert_eq!(rows[0].threads, 1);
        assert_eq!(rows[1].threads, 2);
        assert_eq!(rows[0].sequential_secs, rows[1].sequential_secs);
        assert_eq!(rows[0].rounds, rows[1].rounds);
        assert!(rows.iter().all(|r| r.outputs_identical));
    }

    #[test]
    fn json_document_is_well_formed_enough() {
        let rows = vec![sched_cell("tri-grid", 64)];
        let s = to_json(&rows);
        assert!(s.contains("\"benchmark\": \"scheduler\""));
        assert!(s.contains("\"threads\": 1"));
        assert!(s.contains("\"outputs_identical\": true"));
        assert_eq!(s.matches('{').count(), s.matches('}').count());
    }
}
