//! End-to-end benchmark of the planar embedder with per-layer traces.
//!
//! One command drives the public entry points of `planar-embedding` and
//! `planar-service` in a closed loop — one caller, the next call only
//! after the previous one returns — on inputs generated from a seed, and
//! prints every metric by name and unit. Three workloads separate the
//! layers:
//!
//! * `embed-dense` — [`embed_distributed`] on random maximal planar graphs
//!   (n≈512, D≈6, one 3-connected block) with certification and invariant
//!   checks on: the centralized epilogue and the invariant checks dominate.
//! * `embed-long` — the same call on seeded wheel chains (n≈2k, D≈800,
//!   blocks of ≤14 edges): the simulated rounds of setup and recursion
//!   dominate.
//! * `service-churn` — a resident fleet in [`ServiceState`] driven by
//!   seeded churn deltas, round-robin over the tenants: validation, gate,
//!   incremental re-embedding, epilogue and certificate splicing.
//!
//! Every output is checked outside the timed region ([`check`]). With
//! `--trace 1` a separate run times each layer's public functions from
//! this crate ([`spans`]); nothing is traced inside the measured crates.
//!
//! [`embed_distributed`]: planar_embedding::embed_distributed
//! [`ServiceState`]: planar_service::ServiceState

pub mod check;
pub mod cli;
pub mod embed;
pub mod inputs;
pub mod json;
pub mod report;
pub mod service;
pub mod spans;
pub mod stats;

use std::time::Instant;

use json::Json;

pub use cli::{Plan, Scale, Workload};
pub use report::RunResult;

/// Kernel threads every workload runs with (`SimConfig::threads`). On a
/// shared 2-vCPU x86-64 host the kernel's parallel round path made
/// `embed-long` calls both slower and far less steady than one thread
/// (0.21–0.52 s per call against 0.19–0.33 s), so the benchmark pins one
/// thread and records the effective count with every result.
pub const KERNEL_THREADS: usize = 1;

/// Runs one workload as `plan` describes and returns its result; the
/// caller prints it ([`RunResult::print`]).
pub fn run(plan: &Plan) -> RunResult {
    match plan.workload {
        Workload::EmbedDense | Workload::EmbedLong => embed::run(plan),
        Workload::ServiceChurn => service::run(plan),
    }
}

/// Runs `f` and returns its wall time in seconds with its result.
pub(crate) fn timed<T>(f: impl FnOnce() -> T) -> (f64, T) {
    let t0 = Instant::now();
    let out = std::hint::black_box(f());
    (t0.elapsed().as_secs_f64(), out)
}

/// Adds a timed call of op `i`; the first pass appends each op.
pub(crate) fn add_call(ops: &mut Vec<Vec<f64>>, i: usize, dt: f64) {
    match ops.get_mut(i) {
        Some(calls) => calls.push(dt),
        None => ops.push(vec![dt]),
    }
}

/// Sets the op-time metrics from each op's mean over its passes, and
/// records the sample counts, the tail percentile and the times of all
/// calls as timed.
///
/// The same op on the same input runs at different speeds from one
/// second to the next on a shared host: on a 2-vCPU x86-64 VM one
/// `embed-long` graph took 0.165–0.29 s within a single run, in spells
/// of one to several seconds, with thread CPU time equal to wall time
/// (other tenants' load, not steal). The calls then fall into a fast and
/// a slow mode, and a median over all calls jumps from one to the other
/// when their mix crosses one half. An op's mean over its passes moves
/// smoothly with the mix instead (and an op's fastest pass depends on
/// whether a fast spell happened to cover it). So `op_p50_s` and
/// `op_tail_s` are the median and tail over ops of that mean, and
/// `ops_per_s` is ops over its sum.
pub(crate) fn set_op_times(r: &mut RunResult, ops: &[Vec<f64>], passes: usize) {
    let means: Vec<f64> = ops.iter().map(|c| stats::mean(c)).collect();
    let calls: Vec<f64> = ops.concat();
    let t = stats::tail(&means, stats::TAIL_BEYOND);
    r.set("op_p50_s", stats::median(&means));
    r.set("op_tail_s", t.value);
    r.set("ops_per_s", means.len() as f64 / means.iter().sum::<f64>());
    r.note(
        "samples",
        Json::obj([
            ("ops", Json::Int(means.len() as i64)),
            ("passes", Json::Int(passes as i64)),
            ("timed_calls", Json::Int(calls.len() as i64)),
            ("op_time", Json::str("the op's mean over its passes")),
        ]),
    );
    r.note(
        "tail",
        Json::obj([
            ("percentile", Json::Num(t.percentile)),
            ("samples", Json::Int(t.samples as i64)),
            ("beyond", Json::Int(t.beyond as i64)),
        ]),
    );
    let raw = stats::tail(&calls, stats::TAIL_BEYOND);
    r.note(
        "calls_as_timed",
        Json::obj([
            ("p50_s", Json::Num(stats::median(&calls))),
            ("tail_s", Json::Num(raw.value)),
            ("tail_percentile", Json::Num(raw.percentile)),
        ]),
    );
}
