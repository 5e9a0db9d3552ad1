//! Simulation-kernel throughput benchmark: the perf record behind
//! `BENCH_kernel.json`.
//!
//! Measures delivered messages per second of a single-source flood over
//! planar substrates (square grid, triangulated grid, and random maximal
//! planar) for **both** kernels:
//!
//! * `fast` — the allocation-free arc-indexed kernel ([`congest_sim::run`]);
//! * `reference` — the original seed kernel
//!   ([`congest_sim::reference::run_reference`]), kept as the baseline the
//!   speedup is measured against.
//!
//! The flood program is the canonical kernel microworkload: every node
//! forwards exactly once on first receipt, so total delivered messages are
//! exactly `2m + deg(source)`-ish (each node fires its whole out-star once)
//! and the round count equals the source's eccentricity. Both kernels must
//! report identical [`Metrics`] on every case — the measurement doubles as
//! a conformance check.
//!
//! Each row records the `threads` *requested* for the fast kernel: `1`
//! pins the sequential round loop, and large substrates (n >= 50k) get an
//! additional `threads = 4` row that requests workers the way a user
//! would — through the `PLANAR_THREADS` environment variable — so the
//! kernel's automatic engagement gating applies: the request is capped at
//! the host's real cores and ignored when a round has too little work to
//! amortize the fan-out (`effective_threads` records what actually ran).
//! The conformance assert holds regardless of the thread count (parallel
//! delivery is bit-deterministic by construction).
//!
//! Every row also records the memory the run costs: `kernel_bytes` is the
//! fast kernel's retained arena (chain tables, bit-packed payload pool,
//! scratch — exact, via [`Simulator::memory_bytes`]), reported per node in
//! the printed table, and `peak_rss_bytes` is the process high-water mark
//! after the row ([`crate::mem::peak_rss_bytes`]).
//!
//! [`embed_mem`] is the memory stage behind the million-node acceptance
//! gate: the full distributed embedding pipeline — setup plus the
//! scheduled partition/merge recursion, every byte of it through the
//! kernel arenas ([`embed_recursion_with_memory`]) — on a
//! random-maximal-planar graph, reporting wall time, the execution
//! context's retained kernel footprint, and peak RSS. The centralized
//! fidelity epilogue is deliberately *excluded*: it is a
//! kernel-independent stand-in (a documented deviation, see the
//! `driver.rs` fidelity note) whose left-right embedder is linear but
//! allocates its own working set, which would blur the kernel footprint
//! this stage measures without exercising one byte of it.
//!
//! Entry points: [`kernel_bench`] produces rows, [`write_json`] emits the
//! `BENCH_kernel.json` record (hand-rolled JSON; `serde_json` is not
//! available offline, see `shims/README.md`). Reachable via
//! `cargo run -p planar-bench --bin harness -- bench-kernel` and
//! `cargo bench -p planar-bench --bench kernel`.

use std::time::Instant;

use congest_sim::reference::run_reference;
use congest_sim::{parallel_plan, pool, Metrics, NodeCtx, NodeProgram, SimConfig, Simulator};
use planar_embedding::{embed_recursion_with_memory, EmbedderConfig};
use planar_graph::{Graph, VertexId};
use planar_lib::gen;

use crate::mem;

/// Single-source flood: node 0 announces in round 0; every other node
/// forwards one word to its whole neighborhood on first receipt.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Flood {
    seen: bool,
}

impl NodeProgram for Flood {
    type Msg = u32;

    fn init(&mut self, ctx: &NodeCtx<'_>) -> Vec<(VertexId, u32)> {
        if ctx.id == VertexId(0) {
            self.seen = true;
            ctx.neighbors.iter().map(|&w| (w, 0)).collect()
        } else {
            Vec::new()
        }
    }

    fn on_round(&mut self, ctx: &NodeCtx<'_>, inbox: &[(VertexId, u32)]) -> Vec<(VertexId, u32)> {
        if self.seen || inbox.is_empty() {
            return Vec::new();
        }
        self.seen = true;
        let hop = inbox.iter().map(|&(_, h)| h).min().unwrap_or(0) + 1;
        ctx.neighbors.iter().map(|&w| (w, hop)).collect()
    }
}

/// Fresh flood programs for `g` (all unseen; the kernel calls `init`).
pub fn flood_programs(g: &Graph) -> Vec<Flood> {
    vec![Flood { seen: false }; g.vertex_count()]
}

/// One benchmark case: a flood over one substrate, timed on both kernels.
#[derive(Clone, Debug)]
pub struct KernelBenchRow {
    /// Substrate family (`"grid"` or `"tri-grid"`).
    pub family: &'static str,
    /// Vertex count.
    pub n: usize,
    /// Undirected edge count.
    pub edges: usize,
    /// Rounds to quiescence (identical on both kernels).
    pub rounds: usize,
    /// Messages delivered per run (identical on both kernels).
    pub messages: usize,
    /// Measured iterations per kernel (best-of is reported).
    pub iters: usize,
    /// Worker threads *requested* for the fast kernel: `1` pins the
    /// sequential loop; `> 1` requests workers via `PLANAR_THREADS`, i.e.
    /// through the kernel's automatic core/work gating. The reference
    /// kernel is always sequential.
    pub threads: usize,
    /// Worker threads the kernel's engagement plan actually granted
    /// (request capped at the host's real cores; 1 = sequential).
    pub effective_threads: usize,
    /// Fastest wall-clock run of the arc-indexed kernel, seconds.
    pub fast_secs: f64,
    /// Fastest wall-clock run of the seed reference kernel, seconds.
    pub reference_secs: f64,
    /// Retained arena of the fast kernel after the runs: mailbox chain
    /// tables, bit-packed payload pool, per-vertex tables, scratch
    /// (exact, from [`Simulator::memory_bytes`]).
    pub kernel_bytes: usize,
    /// Process peak RSS after this row, bytes (0 = probe unavailable).
    pub peak_rss_bytes: usize,
}

impl KernelBenchRow {
    /// Delivered messages per second, fast kernel.
    pub fn fast_mps(&self) -> f64 {
        self.messages as f64 / self.fast_secs
    }

    /// Delivered messages per second, reference kernel.
    pub fn reference_mps(&self) -> f64 {
        self.messages as f64 / self.reference_secs
    }

    /// Throughput ratio fast / reference.
    pub fn speedup(&self) -> f64 {
        self.fast_mps() / self.reference_mps()
    }

    /// Retained kernel bytes per vertex.
    pub fn bytes_per_node(&self) -> f64 {
        self.kernel_bytes as f64 / self.n as f64
    }
}

/// Scoped `PLANAR_THREADS` override: sets the variable for the lifetime of
/// the guard and restores the previous state on drop, so a multi-thread
/// row's request cannot leak into the next row (or the caller's
/// environment).
struct ThreadsEnvGuard {
    prev: Option<String>,
}

impl ThreadsEnvGuard {
    fn request(threads: usize) -> Self {
        let prev = std::env::var(pool::THREADS_ENV).ok();
        std::env::set_var(pool::THREADS_ENV, threads.to_string());
        ThreadsEnvGuard { prev }
    }
}

impl Drop for ThreadsEnvGuard {
    fn drop(&mut self) {
        match &self.prev {
            Some(v) => std::env::set_var(pool::THREADS_ENV, v),
            None => std::env::remove_var(pool::THREADS_ENV),
        }
    }
}

fn timed(mut f: impl FnMut() -> Metrics) -> (f64, Metrics) {
    let t0 = Instant::now();
    let m = f();
    (t0.elapsed().as_secs_f64(), m)
}

/// Times one substrate on both kernels; panics if their [`Metrics`]
/// disagree (the determinism contract).
///
/// The two kernels are timed *interleaved* (fast, reference, fast,
/// reference, …) and best-of-`iters` is reported for each, so machine
/// drift and allocator/cache state affect both measurements symmetrically
/// instead of biasing whichever kernel runs last.
pub fn measure(family: &'static str, g: &Graph, iters: usize, threads: usize) -> KernelBenchRow {
    // `threads = 1` pins the sequential loop. A multi-thread request goes
    // through `PLANAR_THREADS` (scoped to this row) with `threads: None`,
    // so the kernel's automatic gating — core cap, per-round work floor —
    // decides what actually engages, exactly as it would for a user.
    let _env = (threads > 1).then(|| ThreadsEnvGuard::request(threads));
    let cfg = SimConfig {
        threads: if threads > 1 { None } else { Some(1) },
        ..SimConfig::default()
    };
    let effective_threads = parallel_plan(
        cfg.threads,
        pool::kernel_threads(cfg.threads),
        pool::available_cores(),
    )
    .threads;
    // A repeat caller holds one Simulator; buffer capacity carries over.
    let mut sim: Simulator<u32> = Simulator::new();
    let mut run_fast = || {
        sim.run(g, flood_programs(g), &cfg)
            .expect("flood stays within budget")
            .metrics
    };
    let run_ref = || {
        run_reference(g, flood_programs(g), &cfg)
            .expect("flood stays within budget")
            .metrics
    };
    let fast_m = run_fast(); // warm-up, and the metrics all runs must reproduce
    let ref_m = run_ref();
    assert_eq!(
        fast_m, ref_m,
        "fast and reference kernels diverged on {family}"
    );
    let mut fast_secs = f64::INFINITY;
    let mut reference_secs = f64::INFINITY;
    for _ in 0..iters {
        let (dt, m) = timed(&mut run_fast);
        assert_eq!(
            m, fast_m,
            "fast kernel produced different metrics across runs"
        );
        fast_secs = fast_secs.min(dt);
        let (dt, m) = timed(run_ref);
        assert_eq!(
            m, ref_m,
            "reference kernel produced different metrics across runs"
        );
        reference_secs = reference_secs.min(dt);
    }
    KernelBenchRow {
        family,
        n: g.vertex_count(),
        edges: g.edge_count(),
        rounds: fast_m.rounds,
        messages: fast_m.messages,
        iters,
        threads,
        effective_threads,
        fast_secs,
        reference_secs,
        kernel_bytes: sim.memory_bytes(),
        peak_rss_bytes: mem::peak_rss_bytes(),
    }
}

/// Measured iterations for a substrate of `n` vertices: more for small
/// (noisy) cases, fewer for the big ones.
fn iters_for(n: usize) -> usize {
    if n <= 2_000 {
        20
    } else if n <= 20_000 {
        7
    } else {
        3
    }
}

/// Vertex count at which the sweep adds a parallel fast-kernel row on top
/// of the sequential one (small floods cannot amortize the fan-out).
const PAR_ROW_MIN_N: usize = 50_000;

/// Seed of the random-maximal-planar substrate (fixed: rows must be
/// reproducible run to run).
const RMP_SEED: u64 = 7;

/// Runs the flood benchmark over grid, triangulated-grid, and
/// random-maximal-planar substrates at (approximately) each requested
/// vertex count, printing one line per case.
///
/// Every substrate gets a sequential (`threads = 1`) row; substrates with
/// n >= 50k additionally get a `threads = 4` row timing the parallel round
/// execution path against the same sequential reference baseline (the
/// conformance assert inside [`measure`] doubles as the outputs-identical
/// check). `iters` is decided once per substrate, so the sequential and
/// parallel rows of a cell are directly comparable.
pub fn kernel_bench(sizes: &[usize]) -> Vec<KernelBenchRow> {
    let mut rows = Vec::new();
    for &n in sizes {
        let side = (n as f64).sqrt().round() as usize;
        for (family, g) in [
            ("grid", gen::grid(side, side)),
            ("tri-grid", gen::triangulated_grid(side, side)),
            ("rmp", gen::random_maximal_planar(n, RMP_SEED)),
        ] {
            let iters = iters_for(g.vertex_count());
            let threads: &[usize] = if g.vertex_count() >= PAR_ROW_MIN_N {
                &[1, 4]
            } else {
                &[1]
            };
            for &t in threads {
                let row = measure(family, &g, iters, t);
                println!(
                    "flood/{:<9} n={:<7} t={}/{}  rounds={:<4} msgs={:<8} fast={:>10.6}s ref={:>10.6}s  {:>8.0} vs {:>8.0} msg/s  speedup {:.2}x  {:>5.1} B/node  rss={}",
                    row.family,
                    row.n,
                    row.threads,
                    row.effective_threads,
                    row.rounds,
                    row.messages,
                    row.fast_secs,
                    row.reference_secs,
                    row.fast_mps(),
                    row.reference_mps(),
                    row.speedup(),
                    row.bytes_per_node(),
                    mem::fmt_bytes(row.peak_rss_bytes),
                );
                rows.push(row);
            }
        }
    }
    rows
}

/// One embedding memory measurement over the distributed pipeline: wall
/// time, the execution context's retained kernel footprint, and process
/// peak RSS (see [`embed_mem`]).
#[derive(Clone, Debug)]
pub struct EmbedMemRow {
    /// Substrate family (`"rmp"`).
    pub family: &'static str,
    /// Vertex count.
    pub n: usize,
    /// Undirected edge count.
    pub edges: usize,
    /// Wall-clock seconds for the full embedding (graph generation
    /// excluded).
    pub secs: f64,
    /// Simulated CONGEST rounds the embedding consumed.
    pub rounds: usize,
    /// Bytes the execution context's kernel arenas retain when the
    /// recursion finishes ([`embed_recursion_with_memory`]).
    pub kernel_bytes: usize,
    /// Process peak RSS after the run, bytes (0 = probe unavailable).
    pub peak_rss_bytes: usize,
}

impl EmbedMemRow {
    /// Retained kernel-cache bytes per vertex.
    pub fn bytes_per_node(&self) -> f64 {
        self.kernel_bytes as f64 / self.n as f64
    }
}

/// Embeds a random-maximal-planar graph of `n` vertices through the full
/// distributed pipeline (setup + scheduled partition/merge recursion,
/// [`embed_recursion_with_memory`]) and reports the memory cost. This is
/// the million-node acceptance stage: it must *complete* — invariant
/// checking and certification are off, as for every large benchmark run,
/// so the measurement is the distributed pipeline itself. The
/// centralized epilogue is excluded (see the module doc): its cost and
/// memory belong to the centralized stand-in, not to the kernel state
/// under test.
pub fn embed_mem(n: usize) -> EmbedMemRow {
    let g = gen::random_maximal_planar(n, RMP_SEED);
    let edges = g.edge_count();
    let cfg = EmbedderConfig {
        check_invariants: false,
        certify: false,
        ..EmbedderConfig::default()
    };
    let t0 = Instant::now();
    let (metrics, _stats, kernel_bytes) =
        embed_recursion_with_memory(&g, &cfg).expect("substrate is planar");
    let secs = t0.elapsed().as_secs_f64();
    EmbedMemRow {
        family: "rmp",
        n,
        edges,
        secs,
        rounds: metrics.rounds,
        kernel_bytes,
        peak_rss_bytes: mem::peak_rss_bytes(),
    }
}

/// Runs [`embed_mem`] for each requested size, printing one line per run.
pub fn embed_mem_stage(sizes: &[usize]) -> Vec<EmbedMemRow> {
    sizes
        .iter()
        .map(|&n| {
            let row = embed_mem(n);
            println!(
                "embed/{:<9} n={:<8} rounds={:<8} secs={:>9.3}  kernel={} ({:.1} B/node)  rss={}",
                row.family,
                row.n,
                row.rounds,
                row.secs,
                mem::fmt_bytes(row.kernel_bytes),
                row.bytes_per_node(),
                mem::fmt_bytes(row.peak_rss_bytes),
            );
            row
        })
        .collect()
}

/// Renders rows as the `BENCH_kernel.json` document. Hand-rolled: every
/// field is numeric or a known-safe literal, so no escaping is needed.
pub fn to_json(rows: &[KernelBenchRow], embeds: &[EmbedMemRow]) -> String {
    let mut s = String::from("{\n");
    s.push_str("  \"benchmark\": \"congest-kernel-flood\",\n");
    s.push_str("  \"metric\": \"delivered messages per second (best of N runs)\",\n");
    s.push_str(&format!(
        "  \"budget_words\": {},\n  \"workloads\": [\n",
        SimConfig::default().budget_words
    ));
    for (i, r) in rows.iter().enumerate() {
        s.push_str(&format!(
            concat!(
                "    {{\"family\": \"{}\", \"n\": {}, \"edges\": {}, ",
                "\"rounds\": {}, \"messages\": {}, \"iters\": {}, \"threads\": {}, ",
                "\"effective_threads\": {}, ",
                "\"fast_secs\": {:.9}, \"reference_secs\": {:.9}, ",
                "\"fast_msgs_per_sec\": {:.1}, \"reference_msgs_per_sec\": {:.1}, ",
                "\"speedup\": {:.3}, ",
                "\"kernel_bytes\": {}, \"bytes_per_node\": {:.1}, ",
                "\"peak_rss_bytes\": {}}}{}\n"
            ),
            r.family,
            r.n,
            r.edges,
            r.rounds,
            r.messages,
            r.iters,
            r.threads,
            r.effective_threads,
            r.fast_secs,
            r.reference_secs,
            r.fast_mps(),
            r.reference_mps(),
            r.speedup(),
            r.kernel_bytes,
            r.bytes_per_node(),
            r.peak_rss_bytes,
            if i + 1 < rows.len() { "," } else { "" },
        ));
    }
    s.push_str("  ],\n  \"embeddings\": [\n");
    for (i, r) in embeds.iter().enumerate() {
        s.push_str(&format!(
            concat!(
                "    {{\"family\": \"{}\", \"n\": {}, \"edges\": {}, ",
                "\"rounds\": {}, \"secs\": {:.3}, ",
                "\"kernel_bytes\": {}, \"bytes_per_node\": {:.1}, ",
                "\"peak_rss_bytes\": {}}}{}\n"
            ),
            r.family,
            r.n,
            r.edges,
            r.rounds,
            r.secs,
            r.kernel_bytes,
            r.bytes_per_node(),
            r.peak_rss_bytes,
            if i + 1 < embeds.len() { "," } else { "" },
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
pub fn write_json(
    path: &std::path::Path,
    rows: &[KernelBenchRow],
    embeds: &[EmbedMemRow],
) -> std::io::Result<()> {
    std::fs::write(path, to_json(rows, embeds))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn flood_covers_graph_and_kernels_agree() {
        let g = gen::grid(8, 8);
        let row = measure("grid", &g, 1, 1);
        assert_eq!(row.n, 64);
        // Every node fires its out-star exactly once.
        assert_eq!(row.messages, 2 * g.edge_count());
        // Source eccentricity on an 8x8 grid from the corner, +1 for the
        // final round of ignored deliveries.
        assert_eq!(row.rounds, 15);
    }

    /// A parallel row reproduces the sequential row's conformance-checked
    /// metrics exactly (the assert inside `measure` compares against the
    /// always-sequential reference kernel, so this is the outputs-identical
    /// guarantee for the `threads > 1` rows of `BENCH_kernel.json`) — and
    /// its `PLANAR_THREADS` request is gated by the kernel's engagement
    /// plan, never exceeding the host's real cores.
    #[test]
    fn parallel_row_matches_sequential_metrics() {
        let g = gen::grid(8, 8);
        let seq = measure("grid", &g, 1, 1);
        let par = measure("grid", &g, 1, 4);
        assert_eq!(par.threads, 4);
        assert!(
            par.effective_threads <= pool::available_cores().max(1),
            "auto request must be core-capped, got {} on {} cores",
            par.effective_threads,
            pool::available_cores()
        );
        assert_eq!((par.rounds, par.messages), (seq.rounds, seq.messages));
    }

    /// Rows carry live memory accounting: a non-trivial kernel arena and
    /// (on Linux) a peak-RSS probe.
    #[test]
    fn rows_report_memory() {
        let g = gen::grid(8, 8);
        let row = measure("grid", &g, 1, 1);
        assert!(row.kernel_bytes > 0);
        assert!(row.bytes_per_node() > 0.0);
        if cfg!(target_os = "linux") {
            assert!(row.peak_rss_bytes > 0);
        }
    }

    /// The end-to-end memory stage completes a small random-maximal-planar
    /// embedding and reports the driver's warm cache footprint.
    #[test]
    fn embed_mem_stage_smoke() {
        let row = embed_mem(96);
        assert_eq!(row.family, "rmp");
        assert_eq!(row.n, 96);
        assert_eq!(row.edges, 3 * 96 - 6);
        assert!(row.rounds > 0);
        assert!(row.kernel_bytes > 0);
    }

    #[test]
    fn json_record_is_well_formed_enough() {
        let g = gen::grid(4, 4);
        let rows = vec![measure("grid", &g, 1, 1)];
        let embeds = vec![embed_mem(64)];
        let j = to_json(&rows, &embeds);
        assert!(j.contains("\"fast_msgs_per_sec\""));
        assert!(j.contains("\"reference_msgs_per_sec\""));
        assert!(j.contains("\"threads\": 1"));
        assert!(j.contains("\"effective_threads\""));
        assert!(j.contains("\"speedup\""));
        assert!(j.contains("\"bytes_per_node\""));
        assert!(j.contains("\"peak_rss_bytes\""));
        assert!(j.contains("\"embeddings\""));
        assert_eq!(j.matches('{').count(), j.matches('}').count());
    }
}
