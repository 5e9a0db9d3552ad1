//! The `service-churn` workload: a resident fleet in [`ServiceState`]
//! and one client applying seeded churn deltas round-robin across the
//! tenants, each call only after the previous one returned.

use std::hint::black_box;
use std::time::Instant;

use congest_sim::mix_seed;
use planar_cert::build_certificates;
use planar_embedding::{certify_with_certificates, DeltaClass, EmbedderConfig, Scheduler};
use planar_graph::Graph;
use planar_service::{
    apply_delta, preflight, ChurnGen, Delta, DeltaOutcome, GateVerdict, ServiceConfig,
    ServiceError, ServiceState, TenantId,
};

use crate::check::{confirm_nonplanar, embedding_fault, Digest, NonPlanarEvidence};
use crate::cli::{Plan, Scale};
use crate::inputs::{fleet, Props, TAG_CHURN};
use crate::json::Json;
use crate::report::{peak_rss_mb, RunResult};
use crate::spans::{Recorder, SpanId};
use crate::stats::{mean, median};
use crate::{add_call, set_op_times, timed, KERNEL_THREADS};

/// An admitted fleet.
struct Fleet {
    svc: ServiceState,
    ids: Vec<TenantId>,
    labels: Vec<&'static str>,
    props: Vec<Props>,
    /// Summed `create_tenant` wall time.
    admit_s: f64,
    /// Admission failures.
    errors: Vec<String>,
}

/// Generates the fleet and admits every tenant.
fn admit(seed: u64, sc: &Scale) -> Fleet {
    let mut cfg = ServiceConfig::default();
    cfg.sim.threads = Some(KERNEL_THREADS);
    let mut svc = ServiceState::new(cfg);
    let (mut ids, mut labels, mut props, mut errors) =
        (Vec::new(), Vec::new(), Vec::new(), Vec::new());
    let mut admit_s = 0.0;
    for (label, g) in fleet(seed, sc.tenant_n, sc.tenants_per_family) {
        let p = Props::of(&g);
        let (dt, res) = timed(|| svc.create_tenant_labeled(g, Some(label)));
        admit_s += dt;
        match res {
            Ok(id) => {
                ids.push(id);
                labels.push(label);
                props.push(p);
            }
            Err(e) => errors.push(format!("admitting a {label} tenant failed: {e}")),
        }
    }
    Fleet {
        svc,
        ids,
        labels,
        props,
        admit_s,
        errors,
    }
}

/// Counters over the deltas of one pass.
#[derive(Default)]
struct Counts {
    applied: usize,
    incremental: usize,
    plan_hits: usize,
    by_class: [usize; 4],
    dirty_region: usize,
    rejected_nonplanar: usize,
    gate_short_circuits: usize,
    evidence_density: usize,
    evidence_dmp: usize,
    /// Simulated rounds of the applied deltas.
    rounds: usize,
}

fn class_index(c: DeltaClass) -> usize {
    match c {
        DeltaClass::TreePreserving => 0,
        DeltaClass::TreeRepairable => 1,
        DeltaClass::VertexSetChange => 2,
        DeltaClass::Fallback => 3,
    }
}

/// Replayed layer calls of one traced delta, timed on the recorder's
/// clock before and after the real `apply`.
struct Replay {
    validate: (u64, u64),
    gate: (u64, u64),
}

/// One applied delta, as the checks and the replays see it.
struct Step<'a> {
    id: TenantId,
    /// The tenant's graph before the delta.
    old: &'a Graph,
    delta: &'a Delta,
    res: &'a Result<DeltaOutcome, ServiceError>,
}

/// Runs the service workload.
///
/// Every pass admits the fleet afresh (one set-up sample) and replays the
/// same stream of `stream_rounds` fleet rounds from fresh churn
/// generators, so every pass applies exactly the deltas of the first to
/// exactly the same tenants and must reproduce its outcomes. The first
/// pass alone feeds the counters, so they are a function of the seed.
pub fn run(plan: &Plan) -> RunResult {
    let sc = plan.scale;
    let mut r = RunResult::default();
    let mut rec = plan.trace.then(Recorder::new);
    let mut counts = Counts::default();
    let (mut setup_times, mut admit_times) = (Vec::new(), Vec::new());
    let (mut ops, mut fingerprints) = (Vec::new(), Vec::new());
    let (mut check_s, mut cert_rounds, mut overhead) = (Vec::new(), Vec::new(), Vec::new());
    let (mut labels, mut props) = (Vec::new(), Vec::new());
    let mut digest = Digest::default();

    // Untraced runs make at least `min_passes` passes; traced runs
    // alternate untraced and traced passes, at least one of each. A run
    // stops at the deadline, mid-pass if need be.
    let min_passes = if plan.trace { 2 } else { sc.min_passes };
    let deadline = Instant::now() + plan.seconds;
    let mut pass = 0usize;
    'run: while pass < min_passes || Instant::now() < deadline {
        let (dt, mut fl) = timed(|| admit(plan.seed, &sc));
        setup_times.push(dt);
        admit_times.push(fl.admit_s);
        r.attempted += (fl.ids.len() + fl.errors.len()) as u64;
        for e in std::mem::take(&mut fl.errors) {
            r.fail(e);
        }
        for (t, &id) in fl.ids.iter().enumerate() {
            let tenant = fl.svc.tenant(id).expect("admitted tenant");
            if let Some(why) =
                embedding_fault(tenant.graph(), tenant.rotation(), tenant.certification())
            {
                r.fail(format!("tenant {t} at admission: {why}"));
            }
        }
        if fl.ids.is_empty() {
            r.fail("no tenant admitted".into());
            return r;
        }
        if pass == 0 {
            labels = fl.labels.clone();
            props = fl.props.clone();
        }
        let traced_pass = plan.trace && pass % 2 == 1;
        pass += 1;

        // The embedder configuration the service runs tenants under, for
        // the replayed certification.
        let scfg = fl.svc.config();
        let embedder = EmbedderConfig {
            sim: scfg.sim.clone(),
            check_invariants: scfg.check_invariants,
            reliability: None,
            certify: scfg.certify,
            kernel: scfg.kernel,
            scheduler: Scheduler::LevelSync,
        };
        let tenants = fl.ids.len();
        let mut churn: Vec<ChurnGen> = (0..tenants as u64)
            .map(|t| ChurnGen::new(mix_seed(plan.seed, &[TAG_CHURN, t])))
            .collect();
        for i in 0..sc.stream_rounds * tenants {
            if pass > min_passes && Instant::now() >= deadline {
                break 'run;
            }
            let t = i % tenants;
            let id = fl.ids[t];
            let old = fl.svc.tenant(id).expect("admitted tenant").graph().clone();
            let delta = churn[t].next_delta(&old);
            let arg = delta.clone();
            let (dt, res, spans) = match rec.as_mut().filter(|_| traced_pass) {
                None => {
                    let (dt, res) = timed(|| fl.svc.apply(id, arg));
                    add_call(&mut ops, i, dt);
                    (dt, res, None)
                }
                Some(rec) => {
                    let replay = replay_before(rec, &fl.svc, id, &delta);
                    let (root, res) = rec.time("apply", i as u64, None, || fl.svc.apply(id, arg));
                    (rec.duration_s(root), res, Some((root, replay)))
                }
            };
            r.attempted += 1;

            let step = Step {
                id,
                old: &old,
                delta: &delta,
                res: &res,
            };
            let t0 = Instant::now();
            if pass == 1 {
                let fp = judge(&mut r, &mut counts, &fl.svc, &step);
                fingerprints.push(fp);
                digest.word(fp);
            } else if judge(&mut r, &mut Counts::default(), &fl.svc, &step) != fingerprints[i] {
                r.fail(format!(
                    "pass {pass}, delta {i}: outcome differs from pass 1"
                ));
            }
            check_s.push(t0.elapsed().as_secs_f64());

            if let (Some(rec), Some((root, replay))) = (rec.as_mut(), spans) {
                // Traced passes follow untraced ones, and only the
                // untraced calls are kept in `ops`.
                overhead.push(dt / ops[i].last().expect("an untraced pass ran first"));
                match replay_after(rec, &fl.svc, &step, root, replay, &embedder) {
                    Ok(Some(rounds)) => cert_rounds.push(rounds as f64),
                    Ok(None) => {}
                    Err(why) => r.fail(format!("delta {i} on tenant {t}: {why}")),
                }
            }
        }
    }

    let ratio = |a: usize, b: usize| if b == 0 { 0.0 } else { a as f64 / b as f64 };
    let stream = fingerprints.len();
    r.set("setup_s", median(&setup_times));
    set_op_times(&mut r, &ops, pass);
    r.set("sim_rounds_per_op", ratio(counts.rounds, counts.applied));
    r.set("ok_frac", 1.0 - r.failed as f64 / r.attempted as f64);
    r.set("peak_rss_mb", peak_rss_mb());

    r.set("admission.build_s", median(&admit_times));
    r.set("check.verify_s", mean(&check_s));
    r.set(
        "epilogue.blocks",
        mean(&props.iter().map(|p| p.blocks as f64).collect::<Vec<_>>()),
    );
    r.set(
        "epilogue.max_block_edges",
        props.iter().map(|p| p.max_block_edges).max().unwrap_or(0) as f64,
    );
    r.set(
        "service.incremental_coverage",
        ratio(counts.incremental, counts.applied),
    );
    r.set(
        "service.plan_hit_frac",
        ratio(counts.plan_hits, counts.applied),
    );
    r.set(
        "service.gate_short_circuit_frac",
        ratio(counts.gate_short_circuits, counts.rejected_nonplanar),
    );
    r.set(
        "service.dirty_region_mean",
        ratio(counts.dirty_region, counts.incremental),
    );
    r.set("service.tree_preserving", counts.by_class[0] as f64);
    r.set("service.tree_repairable", counts.by_class[1] as f64);
    r.set("service.vertex_set", counts.by_class[2] as f64);
    r.set("service.fallbacks", counts.by_class[3] as f64);
    r.set(
        "service.rejected_nonplanar",
        counts.rejected_nonplanar as f64,
    );

    r.note(
        "op",
        Json::str(
            "one ServiceState::apply of a ChurnGen delta, ServiceConfig::default() \
             with the kernel pinned to KERNEL_THREADS",
        ),
    );
    r.note(
        "inputs",
        Json::obj([
            ("tenants", Json::Int(labels.len() as i64)),
            ("stream_deltas", Json::Int(stream as i64)),
            (
                "fleet",
                Json::Arr(
                    labels
                        .iter()
                        .zip(&props)
                        .map(|(l, p)| Json::obj([("family", Json::str(*l)), ("graph", p.json())]))
                        .collect(),
                ),
            ),
        ]),
    );
    r.note(
        "outcomes",
        Json::obj([
            ("applied", Json::Int(counts.applied as i64)),
            (
                "rejected_nonplanar",
                Json::Int(counts.rejected_nonplanar as i64),
            ),
            (
                "rejected_frac",
                Json::Num(ratio(counts.rejected_nonplanar, stream)),
            ),
            (
                "gate_short_circuits",
                Json::Int(counts.gate_short_circuits as i64),
            ),
            (
                "rejections_confirmed_by_density",
                Json::Int(counts.evidence_density as i64),
            ),
            (
                "rejections_confirmed_by_is_planar",
                Json::Int(counts.evidence_dmp as i64),
            ),
        ]),
    );
    r.note(
        "sim_rounds_over",
        Json::str(format!(
            "the applied deltas of the {stream}-delta stream ({} fleet rounds)",
            sc.stream_rounds
        )),
    );
    r.note("digest", Json::str(digest.hex()));
    r.note(
        "checks",
        Json::str(
            "every admitted and every post-delta resident rotation passes verify_embedding \
             with its certification accepted; an applied delta leaves exactly \
             apply_delta(old, delta); a rejection leaves the tenant unchanged and is confirmed \
             non-planar by m > 3n - 6 or else by planar_lib::is_planar, which shares the DMP \
             code of the embedder's epilogue and so is not an independent oracle; every pass \
             reproduces the outcomes of the first",
        ),
    );

    if let Some(rec) = rec {
        let traced = overhead.len();
        let layers = [
            ("service.validate_s", "validate"),
            ("service.gate_s", "gate"),
            ("service.reembed_s", "handle"),
            ("epilogue.self_s", "epilogue"),
            ("cert.build_s", "cert.build"),
            ("cert.verify_s", "cert.verify"),
            ("unattributed_s", "apply"),
        ];
        for (metric, span) in layers {
            r.set(metric, rec.mean_self_s(span, traced));
        }
        r.set("cert.rounds", mean(&cert_rounds));
        r.set("trace.overhead_frac", median(&overhead) - 1.0);
        let total: f64 = layers.iter().map(|(m, _)| r.values[m]).sum();
        let shares = layers.iter().map(|(m, _)| {
            (
                *m,
                Json::Num(if total > 0.0 {
                    r.values[m] / total
                } else {
                    0.0
                }),
            )
        });
        r.note(
            "layer_shares",
            Json::obj(
                [
                    ("traced_ops", Json::Int(traced as i64)),
                    ("mean_apply_s", Json::Num(total)),
                ]
                .into_iter()
                .chain(shares),
            ),
        );
        r.spans = Some(rec);
    }
    r
}

/// Checks one delta's outcome, updates the counters, and returns a
/// fingerprint of the outcome for the digests.
fn judge(r: &mut RunResult, counts: &mut Counts, svc: &ServiceState, step: &Step) -> u64 {
    let Step {
        id,
        old,
        delta,
        res,
    } = *step;
    let tenant = svc.tenant(id).expect("admitted tenant");
    let mut fp = Digest::default();
    match res {
        Err(e) => {
            r.fail(format!("{id}: apply failed: {e}"));
            fp.word(0);
        }
        Ok(DeltaOutcome::RejectedInvalid { error }) => {
            r.fail(format!("{id}: churn delta rejected as invalid: {error}"));
            fp.word(1);
        }
        Ok(DeltaOutcome::Applied { report, gate }) => {
            counts.applied += 1;
            let taken = report.taken();
            counts.by_class[class_index(taken)] += 1;
            if report.is_incremental() {
                counts.incremental += 1;
                counts.dirty_region += report.dirty_region();
            }
            if report.planned == taken {
                counts.plan_hits += 1;
            }
            counts.rounds += report.rounds;
            let expected = apply_delta(old, delta);
            if expected.as_ref().ok() != Some(tenant.graph()) {
                r.fail(format!("{id}: applied delta left a different graph"));
            } else if *gate == GateVerdict::DefinitelyNonPlanar {
                r.fail(format!("{id}: applied a delta the gate called non-planar"));
            } else if let Some(why) =
                embedding_fault(tenant.graph(), tenant.rotation(), tenant.certification())
            {
                r.fail(format!("{id}: resident embedding after delta: {why}"));
            }
            fp.word(2);
            fp.word(class_index(taken) as u64);
            fp.word(report.rounds as u64);
            fp.word(Digest::of_rotation(tenant.rotation()).value());
        }
        Ok(DeltaOutcome::RejectedNonPlanar { gate }) => {
            counts.rejected_nonplanar += 1;
            let short = *gate == GateVerdict::DefinitelyNonPlanar;
            counts.gate_short_circuits += usize::from(short);
            if tenant.graph() != old {
                r.fail(format!("{id}: rejected delta changed the tenant"));
            } else {
                match apply_delta(old, delta).map(|g| confirm_nonplanar(&g)) {
                    Ok(NonPlanarEvidence::Density) => counts.evidence_density += 1,
                    Ok(NonPlanarEvidence::Dmp) => counts.evidence_dmp += 1,
                    Ok(NonPlanarEvidence::Planar) => {
                        r.fail(format!("{id}: rejected a delta whose result is planar"))
                    }
                    Err(e) => r.fail(format!("{id}: rejected delta is invalid: {e}")),
                }
            }
            fp.word(3);
            fp.word(u64::from(short));
        }
    }
    fp.value()
}

/// The traced layers that run before the real call: validation
/// (`apply_delta`) and the gate (`preflight`) on the tenant as it stands.
fn replay_before(rec: &Recorder, svc: &ServiceState, id: TenantId, delta: &Delta) -> Replay {
    let tenant = svc.tenant(id).expect("admitted tenant");
    let v0 = rec.now_ns();
    let _ = black_box(apply_delta(tenant.graph(), delta));
    let v1 = rec.now_ns();
    let _ = black_box(preflight(tenant.graph(), tenant.rotation(), delta));
    let g1 = rec.now_ns();
    Replay {
        validate: (v0, v1),
        gate: (v1, g1),
    }
}

/// Records one traced delta's spans. The service's own handling time
/// (`DeltaRecord::service_nanos`) becomes the `handle` span under the
/// `apply` root; validation, gate, epilogue and certification replays are
/// its children, so `handle`'s self time is the re-embedding layer
/// (planner, staged repair, partition and merge re-runs, splicing). The
/// epilogue and certification are replayed on the tenant's new graph, or
/// the epilogue alone on the rejected graph when the gate let the delta
/// through. Returns the replayed certification's rounds, if one ran.
fn replay_after(
    rec: &mut Recorder,
    svc: &ServiceState,
    step: &Step,
    root: SpanId,
    replay: Replay,
    embedder: &EmbedderConfig,
) -> Result<Option<usize>, String> {
    let Step {
        id,
        old,
        delta,
        res,
    } = *step;
    let op = rec.span(root).op;
    let tenant = svc.tenant(id).expect("admitted tenant");
    let nanos = tenant
        .records()
        .last()
        .map_or(0, |d| u64::try_from(d.service_nanos).unwrap_or(u64::MAX));
    let start = rec.span(root).start_ns;
    let handle = rec.record("handle", op, Some(root), start, start.saturating_add(nanos));
    rec.record(
        "validate",
        op,
        Some(handle),
        replay.validate.0,
        replay.validate.1,
    );
    rec.record("gate", op, Some(handle), replay.gate.0, replay.gate.1);
    match res {
        Ok(DeltaOutcome::Applied { .. }) => {
            let g = tenant.graph();
            let (_, rot) = rec.time("epilogue", op, Some(handle), || {
                planar_lib::embed(black_box(g))
            });
            let rot = rot.map_err(|e| format!("replayed epilogue failed: {e}"))?;
            if &rot != tenant.rotation() {
                return Err("replayed epilogue differs from the resident rotation".into());
            }
            let (_, certs) = rec.time("cert.build", op, Some(handle), || {
                build_certificates(g, &rot)
            });
            let certs = certs.map_err(|e| format!("replayed build_certificates failed: {e}"))?;
            let (_, cert) = rec.time("cert.verify", op, Some(handle), || {
                certify_with_certificates(g, &rot, certs, embedder)
            });
            let cert = cert.map_err(|e| format!("replayed certification failed: {e}"))?;
            if !cert.accepted() {
                return Err("replayed certification rejected".into());
            }
            Ok(Some(cert.report.metrics.rounds))
        }
        Ok(DeltaOutcome::RejectedNonPlanar { gate })
            if *gate != GateVerdict::DefinitelyNonPlanar =>
        {
            let mutated = apply_delta(old, delta).map_err(|e| format!("replay: {e}"))?;
            let (_, out) = rec.time("epilogue", op, Some(handle), || {
                planar_lib::embed(black_box(&mutated))
            });
            if out.is_ok() {
                return Err("replayed epilogue embedded a rejected graph".into());
            }
            Ok(None)
        }
        _ => Ok(None),
    }
}
