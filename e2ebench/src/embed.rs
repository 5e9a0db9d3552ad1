//! The `embed-dense` and `embed-long` workloads: one caller embedding a
//! seeded pool of graphs round-robin, in passes, with `embed_distributed`
//! under certification and invariant checks.

use std::hint::black_box;
use std::time::Instant;

use planar_cert::build_certificates;
use planar_embedding::setup::run_setup;
use planar_embedding::{
    certify_with_certificates, embed_distributed, embed_recursion, EmbedError, EmbedderConfig,
    EmbeddingOutcome,
};
use planar_graph::Graph;

use crate::check::{embedding_fault, Digest};
use crate::cli::{Plan, Workload};
use crate::inputs::{dense_pool, long_pool, Props};
use crate::json::Json;
use crate::report::{peak_rss_mb, RunResult};
use crate::spans::Recorder;
use crate::stats::{mean, median};
use crate::{add_call, set_op_times, timed, KERNEL_THREADS};

/// Pool generations per pass. One takes milliseconds, so each pass
/// repeats it to give `setup_s` a steadier median.
const SETUP_REPS: usize = 5;

/// What the first successful call on a pool graph returned; later calls
/// on the same graph must match it exactly.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
struct First {
    rotation: Digest,
    rounds: usize,
}

/// Per-op sums of the traced run's layer counters.
#[derive(Default)]
struct LayerSums {
    ops: usize,
    setup_rounds: f64,
    rec_rounds: f64,
    partition_rounds: f64,
    merge_rounds: f64,
    symmetry_rounds: f64,
    words: f64,
    merges: f64,
    cert_rounds: f64,
    /// Traced over untraced wall time of the same graph, one per op.
    overhead: Vec<f64>,
}

/// Runs an embed workload.
pub fn run(plan: &Plan) -> RunResult {
    let sc = plan.scale;
    let long = plan.workload == Workload::EmbedLong;
    let make_pool = || {
        if long {
            long_pool(plan.seed, sc.long_n, sc.long_pool)
        } else {
            dense_pool(plan.seed, sc.dense_n, sc.dense_pool)
        }
    };
    let mut cfg = EmbedderConfig {
        certify: true,
        ..EmbedderConfig::default()
    };
    cfg.sim.threads = Some(KERNEL_THREADS);

    let mut r = RunResult::default();
    let mut firsts: Vec<Option<First>> = Vec::new();
    let (mut setup_times, mut ops) = (Vec::new(), Vec::new());
    let mut check_s = Vec::new();
    let mut props: Vec<Props> = Vec::new();
    let mut rec = plan.trace.then(Recorder::new);
    let mut sums = LayerSums::default();

    // Every pass generates the pool afresh (`SETUP_REPS` set-up samples)
    // and embeds each graph once. Untraced runs make at least
    // `min_passes` passes; a run stops at the deadline, mid-pass if need
    // be.
    let min_passes = if plan.trace { 0 } else { sc.min_passes };
    let deadline = Instant::now() + plan.seconds;
    let (mut op, mut pass) = (0usize, 0usize);
    'run: while op == 0 || pass < min_passes || Instant::now() < deadline {
        let mut pool = Vec::new();
        for _ in 0..SETUP_REPS {
            // Free the previous rep's graphs first, so reps do not stack
            // up in memory.
            pool.clear();
            let (dt, p) = timed(make_pool);
            setup_times.push(dt);
            pool = p;
        }
        if pass == 0 {
            props = pool.iter().map(Props::of).collect();
            firsts = vec![None; pool.len()];
        }
        pass += 1;
        for (gi, g) in pool.iter().enumerate() {
            if op > 0 && pass > min_passes && Instant::now() >= deadline {
                break 'run;
            }
            // A traced run alternates which call of the pair goes first,
            // so neither always finds the graph warm in the caches.
            let mut traced = None;
            if let Some(rec) = rec.as_mut().filter(|_| !op.is_multiple_of(2)) {
                traced = Some(traced_op(rec, &mut sums, op as u64, g, &cfg));
            }
            let (dt, res) = timed(|| embed_distributed(black_box(g), &cfg));
            add_call(&mut ops, gi, dt);
            r.attempted += 1;
            let t0 = Instant::now();
            judge(&mut r, g, gi, &res, &mut firsts);
            check_s.push(t0.elapsed().as_secs_f64());
            if let Some(rec) = rec.as_mut().filter(|_| op.is_multiple_of(2)) {
                traced = Some(traced_op(rec, &mut sums, op as u64, g, &cfg));
            }
            if let Some(traced) = traced {
                r.attempted += 1;
                match traced {
                    Ok((traced_dt, res)) => {
                        sums.overhead.push(traced_dt / dt);
                        judge(&mut r, g, gi, &Ok(res), &mut firsts);
                    }
                    Err(why) => r.fail(format!("graph {gi}: {why}")),
                }
            }
            op += 1;
        }
    }

    let rounds: Vec<f64> = firsts.iter().flatten().map(|f| f.rounds as f64).collect();
    let mut digest = Digest::default();
    for f in &firsts {
        match f {
            Some(f) => {
                digest.word(f.rotation.value());
                digest.word(f.rounds as u64);
            }
            None => digest.word(u64::MAX),
        }
    }
    r.set("setup_s", median(&setup_times));
    set_op_times(&mut r, &ops, pass);
    r.set("sim_rounds_per_op", mean(&rounds));
    r.set("ok_frac", 1.0 - r.failed as f64 / r.attempted as f64);
    r.set("peak_rss_mb", peak_rss_mb());
    r.set("check.verify_s", mean(&check_s));
    r.set(
        "epilogue.blocks",
        mean(&props.iter().map(|p| p.blocks as f64).collect::<Vec<_>>()),
    );
    r.set(
        "epilogue.max_block_edges",
        props.iter().map(|p| p.max_block_edges).max().unwrap_or(0) as f64,
    );

    r.note(
        "op",
        Json::str("one embed_distributed call, certify on, check_invariants on, KERNEL_THREADS kernel threads"),
    );
    r.note(
        "inputs",
        Json::obj([
            (
                "family",
                Json::str(if long {
                    "seeded wheel chain, wheels of 4..=8 vertices, leader in the first wheel"
                } else {
                    "random_maximal_planar"
                }),
            ),
            ("pool", Json::Int(props.len() as i64)),
            ("graphs", Json::Arr(props.iter().map(Props::json).collect())),
        ]),
    );
    r.note("sim_rounds_over", Json::str("each pool graph once"));
    r.note("digest", Json::str(digest.hex()));
    r.note(
        "checks",
        Json::str(
            "every rotation passes verify_embedding, every certification is accepted, \
             and repeated calls on one graph return the same rotation and rounds",
        ),
    );

    if let Some(rec) = rec {
        layer_metrics(&mut r, &rec, &sums, long);
        r.spans = Some(rec);
    }
    r
}

/// Checks one call's result against the graph and against the first
/// result on the same graph.
fn judge(
    r: &mut RunResult,
    g: &Graph,
    gi: usize,
    res: &Result<EmbeddingOutcome, EmbedError>,
    firsts: &mut [Option<First>],
) {
    let out = match res {
        Ok(out) => out,
        Err(e) => return r.fail(format!("graph {gi}: embed_distributed failed: {e}")),
    };
    if let Some(why) = embedding_fault(g, &out.rotation, out.certification.as_ref()) {
        return r.fail(format!("graph {gi}: {why}"));
    }
    let got = First {
        rotation: Digest::of_rotation(&out.rotation),
        rounds: out.metrics.rounds,
    };
    match firsts[gi] {
        None => firsts[gi] = Some(got),
        Some(first) if first != got => r.fail(format!(
            "graph {gi}: repeated call differs ({first:?} then {got:?})"
        )),
        Some(_) => {}
    }
}

/// One traced op: the end-to-end call as the root span, then each layer's
/// public entry point on the same graph as its children. Returns the
/// root's wall time and the end-to-end result.
fn traced_op(
    rec: &mut Recorder,
    sums: &mut LayerSums,
    op: u64,
    g: &Graph,
    cfg: &EmbedderConfig,
) -> Result<(f64, EmbeddingOutcome), String> {
    let (root, res) = rec.time("embed", op, None, || embed_distributed(black_box(g), cfg));
    let out = res.map_err(|e| format!("embed_distributed failed: {e}"))?;
    let checked = EmbedderConfig {
        certify: false,
        ..cfg.clone()
    };
    let unchecked = EmbedderConfig {
        check_invariants: false,
        ..checked.clone()
    };
    let (rc, res) = rec.time("recursion_checked", op, Some(root), || {
        embed_recursion(black_box(g), &checked)
    });
    res.map_err(|e| format!("embed_recursion (checks on) failed: {e}"))?;
    let (rs, res) = rec.time("recursion", op, Some(rc), || {
        embed_recursion(black_box(g), &unchecked)
    });
    let (rec_metrics, rec_stats) =
        res.map_err(|e| format!("embed_recursion (checks off) failed: {e}"))?;
    let (_, res) = rec.time("setup", op, Some(rs), || run_setup(black_box(g), &cfg.sim));
    let (_, setup_metrics) = res.map_err(|e| format!("run_setup failed: {e}"))?;
    let (_, res) = rec.time("epilogue", op, Some(root), || {
        planar_lib::embed(black_box(g))
    });
    let rot = res.map_err(|e| format!("planar_lib::embed failed: {e}"))?;
    let (_, res) = rec.time("cert.build", op, Some(root), || build_certificates(g, &rot));
    let certs = res.map_err(|e| format!("build_certificates failed: {e}"))?;
    let (_, res) = rec.time("cert.verify", op, Some(root), || {
        certify_with_certificates(g, &rot, certs, cfg)
    });
    let cert = res.map_err(|e| format!("certify_with_certificates failed: {e}"))?;
    if !cert.accepted() {
        return Err("replayed certification rejected".into());
    }

    sums.ops += 1;
    sums.setup_rounds += setup_metrics.rounds as f64;
    sums.rec_rounds += rec_metrics.rounds.saturating_sub(setup_metrics.rounds) as f64;
    sums.partition_rounds += rec_stats.phase_rounds.partition as f64;
    sums.merge_rounds += rec_stats.phase_rounds.merge as f64;
    sums.symmetry_rounds += rec_stats.phase_rounds.symmetry as f64;
    sums.words += rec_metrics.words.saturating_sub(setup_metrics.words) as f64;
    sums.merges += rec_stats.merges.len() as f64;
    sums.cert_rounds += cert.report.metrics.rounds as f64;
    Ok((rec.duration_s(root), out))
}

/// Per-layer metrics and shares of a traced embed run.
fn layer_metrics(r: &mut RunResult, rec: &Recorder, sums: &LayerSums, long: bool) {
    let ops = sums.ops;
    let per_op = |x: f64| if ops == 0 { 0.0 } else { x / ops as f64 };
    let layers = [
        ("setup.self_s", "setup"),
        ("recursion.self_s", "recursion"),
        ("invariants.self_s", "recursion_checked"),
        ("epilogue.self_s", "epilogue"),
        ("cert.build_s", "cert.build"),
        ("cert.verify_s", "cert.verify"),
        ("unattributed_s", "embed"),
    ];
    for (metric, span) in layers {
        r.set(metric, rec.mean_self_s(span, ops));
    }
    let rec_rounds = per_op(sums.rec_rounds);
    r.set("setup.rounds", per_op(sums.setup_rounds));
    r.set("recursion.rounds", rec_rounds);
    r.set("recursion.partition_rounds", per_op(sums.partition_rounds));
    r.set("recursion.merge_rounds", per_op(sums.merge_rounds));
    r.set("recursion.symmetry_rounds", per_op(sums.symmetry_rounds));
    r.set("recursion.words", per_op(sums.words));
    r.set("recursion.merges", per_op(sums.merges));
    r.set(
        "recursion.ns_per_round",
        if rec_rounds > 0.0 {
            r.values["recursion.self_s"] * 1e9 / rec_rounds
        } else {
            0.0
        },
    );
    r.set("cert.rounds", per_op(sums.cert_rounds));
    r.set("trace.overhead_frac", median(&sums.overhead) - 1.0);

    // Shares of the mean end-to-end call, and the layer-separation
    // prediction this workload was chosen for.
    let total: f64 = layers.iter().map(|(m, _)| r.values[m]).sum();
    let share = |names: &[&str]| {
        if total > 0.0 {
            names.iter().map(|n| r.values[n]).sum::<f64>() / total
        } else {
            0.0
        }
    };
    let distributed = share(&["setup.self_s", "recursion.self_s"]);
    let centralized = share(&["epilogue.self_s", "invariants.self_s"]);
    let (prediction, holds) = if long {
        (
            "setup + recursion take most of the call, epilogue + invariants little",
            distributed > 0.5 && centralized < distributed,
        )
    } else {
        (
            "epilogue + invariants take most of the call, setup + recursion little",
            centralized > 0.5 && distributed < centralized,
        )
    };
    r.note(
        "layer_shares",
        Json::obj([
            ("traced_ops", Json::Int(ops as i64)),
            ("mean_call_s", Json::Num(total)),
            ("setup", Json::Num(share(&["setup.self_s"]))),
            ("recursion", Json::Num(share(&["recursion.self_s"]))),
            ("invariants", Json::Num(share(&["invariants.self_s"]))),
            ("epilogue", Json::Num(share(&["epilogue.self_s"]))),
            ("cert", Json::Num(share(&["cert.build_s", "cert.verify_s"]))),
            ("unattributed", Json::Num(share(&["unattributed_s"]))),
            ("prediction", Json::str(prediction)),
            ("prediction_holds", Json::Bool(holds)),
        ]),
    );
}
