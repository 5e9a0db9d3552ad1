//! Tiny-n runs of every workload through the same code paths as the
//! benchmark, and the agreement of `BENCHMARK.json` with the metric
//! catalogue.

use std::time::Duration;

use planar_e2ebench::json::Json;
use planar_e2ebench::report::{END_TO_END, PER_LAYER};
use planar_e2ebench::{run, Plan, RunResult, Scale, Workload};

fn plan(workload: Workload, trace: bool) -> Plan {
    Plan {
        workload,
        seed: 11,
        seconds: Duration::from_millis(200),
        trace,
        scale: Scale::tiny(),
    }
}

fn field<'a>(r: &'a RunResult, key: &str) -> &'a Json {
    &r.record
        .iter()
        .find(|(k, _)| k == key)
        .unwrap_or_else(|| panic!("record has no {key}"))
        .1
}

#[test]
fn every_workload_passes_its_checks() {
    for w in Workload::ALL {
        let r = run(&plan(w, false));
        assert!(r.correct(), "{}: {:?}", w.name(), r.faults);
        let metrics = r.metrics(false);
        assert_eq!(metrics.len(), END_TO_END.len());
        for (d, v) in metrics {
            assert!(v.is_finite() && v > 0.0, "{}: {} = {v}", w.name(), d.name);
        }
        assert_eq!(r.values["ok_frac"], 1.0);
        // An untraced run makes its minimum passes even past the deadline.
        let Json::Obj(samples) = field(&r, "samples") else {
            panic!("samples is an object");
        };
        let passes = samples.iter().find(|(k, _)| k == "passes").map(|(_, v)| v);
        assert!(
            matches!(passes, Some(Json::Int(p)) if *p >= Scale::tiny().min_passes as i64),
            "{}: {passes:?}",
            w.name()
        );
    }
}

#[test]
fn every_workload_traces_its_layers() {
    for w in Workload::ALL {
        let r = run(&plan(w, true));
        assert!(r.correct(), "{}: {:?}", w.name(), r.faults);
        assert_eq!(r.metrics(true).len(), PER_LAYER.len());
        let rec = r.spans.as_ref().expect("a traced run keeps its spans");
        assert!(!rec.spans().is_empty());
        // The self times of every span tree add back up to its root.
        let selfs: f64 = rec.self_times_s().iter().sum();
        let roots: f64 = rec
            .spans()
            .iter()
            .filter(|s| s.parent.is_none())
            .map(|s| (s.end_ns - s.start_ns) as f64 * 1e-9)
            .sum();
        assert!(
            (selfs - roots).abs() < 1e-6,
            "{}: {selfs} vs {roots}",
            w.name()
        );
        assert!(matches!(field(&r, "layer_shares"), Json::Obj(_)));
    }
}

#[test]
fn the_same_seed_gives_the_same_outputs() {
    for (w, key) in [
        (Workload::EmbedDense, "digest"),
        (Workload::EmbedLong, "digest"),
        (Workload::ServiceChurn, "digest"),
    ] {
        let a = run(&plan(w, false));
        let b = run(&plan(w, false));
        assert_eq!(field(&a, key), field(&b, key), "{}", w.name());
        assert_eq!(a.values["sim_rounds_per_op"], b.values["sim_rounds_per_op"]);
    }
}

#[test]
fn benchmark_json_lists_the_catalogue() {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    let text = std::fs::read_to_string(path).expect("BENCHMARK.json at the repository root");
    for d in END_TO_END.iter().chain(PER_LAYER) {
        let entry = format!(r#""name": "{}", "unit": "{}""#, d.name, d.unit);
        assert!(text.contains(&entry), "BENCHMARK.json lacks {entry}");
    }
    for w in Workload::ALL {
        assert!(text.contains(&format!(r#""name": "{}""#, w.name())));
    }
    let names = text.matches(r#""name":"#).count();
    assert_eq!(
        names,
        Workload::ALL.len() + END_TO_END.len() + PER_LAYER.len(),
        "BENCHMARK.json names exactly the workloads and catalogued metrics"
    );
}
