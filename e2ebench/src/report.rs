//! The metric catalogue, host facts, and the two output lines: the
//! record (inputs, host, percentiles, digests, notes) and the result line
//! (`correct`, `attempted`, `failed`, `metrics`), which is always printed
//! last.

use std::collections::BTreeMap;
use std::path::PathBuf;

use crate::cli::Plan;
use crate::json::Json;
use crate::spans::Recorder;

/// One metric: name and unit, as in `BENCHMARK.json`.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct MetricDef {
    /// Name, from `[A-Za-z0-9_.-]`.
    pub name: &'static str,
    /// Unit.
    pub unit: &'static str,
}

const fn m(name: &'static str, unit: &'static str) -> MetricDef {
    MetricDef { name, unit }
}

/// End-to-end metrics, printed by every untraced run. An *op* is one
/// `embed_distributed` call on the embed workloads and one
/// `ServiceState::apply` on `service-churn`.
pub const END_TO_END: &[MetricDef] = &[
    // Median time to generate the inputs (and admit the fleet).
    m("setup_s", "s"),
    // Median wall time of one op.
    m("op_p50_s", "s"),
    // Wall time of one op at the tail percentile (see stats::tail).
    m("op_tail_s", "s"),
    // Closed-loop throughput: ops over the summed op wall time.
    m("ops_per_s", "1/s"),
    // Mean simulated CONGEST rounds per op over the run-independent set.
    m("sim_rounds_per_op", "rounds"),
    // Ops that neither errored nor failed a check, over ops attempted.
    m("ok_frac", "ratio"),
    // Peak resident memory of the process.
    m("peak_rss_mb", "MB"),
];

/// Per-layer metrics, printed by every traced run; a layer the workload
/// does not reach reads 0. Times are mean self times per op, so the
/// layers of one workload add up to its mean op time.
pub const PER_LAYER: &[MetricDef] = &[
    m("setup.self_s", "s"),
    m("setup.rounds", "rounds"),
    m("recursion.self_s", "s"),
    m("recursion.rounds", "rounds"),
    m("recursion.partition_rounds", "rounds"),
    m("recursion.merge_rounds", "rounds"),
    m("recursion.symmetry_rounds", "rounds"),
    m("recursion.words", "words"),
    m("recursion.merges", "count"),
    m("recursion.ns_per_round", "ns"),
    m("invariants.self_s", "s"),
    m("epilogue.self_s", "s"),
    m("epilogue.blocks", "count"),
    m("epilogue.max_block_edges", "count"),
    m("cert.build_s", "s"),
    m("cert.verify_s", "s"),
    m("cert.rounds", "rounds"),
    m("service.validate_s", "s"),
    m("service.gate_s", "s"),
    m("service.reembed_s", "s"),
    m("service.incremental_coverage", "ratio"),
    m("service.plan_hit_frac", "ratio"),
    m("service.gate_short_circuit_frac", "ratio"),
    m("service.dirty_region_mean", "vertices"),
    m("service.fallbacks", "count"),
    m("service.rejected_nonplanar", "count"),
    m("service.tree_preserving", "count"),
    m("service.tree_repairable", "count"),
    m("service.vertex_set", "count"),
    m("admission.build_s", "s"),
    m("unattributed_s", "s"),
    m("check.verify_s", "s"),
    m("trace.overhead_frac", "ratio"),
];

/// Everything one run measured.
#[derive(Debug, Default)]
pub struct RunResult {
    /// Ops attempted (embed calls or deltas, plus fleet admissions).
    pub attempted: u64,
    /// Ops that errored or failed a check.
    pub failed: u64,
    /// The first few failure descriptions.
    pub faults: Vec<String>,
    /// Metric values by name; the catalogue decides which are printed.
    pub values: BTreeMap<&'static str, f64>,
    /// Workload-specific record fields.
    pub record: Vec<(String, Json)>,
    /// The traced run's spans.
    pub spans: Option<Recorder>,
}

/// Failure descriptions kept for the record.
const KEPT_FAULTS: usize = 8;

impl RunResult {
    /// Counts one failed op.
    pub fn fail(&mut self, why: String) {
        self.failed += 1;
        if self.faults.len() < KEPT_FAULTS {
            self.faults.push(why);
        }
    }

    /// Sets a metric value.
    pub fn set(&mut self, name: &'static str, value: f64) {
        self.values.insert(name, value);
    }

    /// Adds a record field.
    pub fn note(&mut self, key: &str, value: Json) {
        self.record.push((key.to_string(), value));
    }

    /// Whether every op passed its checks.
    pub fn correct(&self) -> bool {
        self.failed == 0 && self.attempted > 0
    }

    /// The metrics a run prints: the end-to-end catalogue untraced, the
    /// per-layer one traced. Unset metrics read 0: a layer the workload
    /// does not reach, or every metric of a run that failed before
    /// measuring.
    pub fn metrics(&self, trace: bool) -> Vec<(MetricDef, f64)> {
        let catalogue = if trace { PER_LAYER } else { END_TO_END };
        catalogue
            .iter()
            .map(|d| (*d, self.values.get(d.name).copied().unwrap_or(0.0)))
            .collect()
    }

    /// The result line.
    pub fn result_line(&self, trace: bool) -> String {
        let metrics = self.metrics(trace).into_iter().map(|(d, v)| {
            (
                d.name,
                Json::obj([("value", Json::Num(v)), ("unit", Json::str(d.unit))]),
            )
        });
        Json::obj([
            ("correct", Json::Bool(self.correct())),
            ("attempted", Json::Int(self.attempted as i64)),
            ("failed", Json::Int(self.failed as i64)),
            ("metrics", Json::obj(metrics)),
        ])
        .render()
    }

    /// The record line: the plan, host facts, failures and the workload's
    /// own fields.
    pub fn record_line(&self, plan: &Plan, spans_file: Option<&str>) -> String {
        let failed_frac = if self.attempted == 0 {
            1.0
        } else {
            self.failed as f64 / self.attempted as f64
        };
        let mut fields = vec![
            ("workload".to_string(), Json::str(plan.workload.name())),
            ("seed".to_string(), Json::Int(plan.seed as i64)),
            ("seconds".to_string(), Json::Num(plan.seconds.as_secs_f64())),
            ("trace".to_string(), Json::Bool(plan.trace)),
            ("host".to_string(), host()),
            ("failed_frac".to_string(), Json::Num(failed_frac)),
            (
                "faults".to_string(),
                Json::Arr(self.faults.iter().map(|f| Json::str(f.as_str())).collect()),
            ),
        ];
        fields.extend(self.record.iter().cloned());
        if let Some(path) = spans_file {
            fields.push(("spans_file".to_string(), Json::str(path)));
        }
        Json::Obj(vec![("record".to_string(), Json::Obj(fields))]).render()
    }

    /// Prints the record line and then the result line (last), writing the
    /// spans of a traced run first.
    pub fn print(&self, plan: &Plan) {
        let spans_file = self.spans.as_ref().and_then(|rec| {
            let path = spans_path(plan);
            match rec.write_jsonl(&path) {
                Ok(()) => Some(path.display().to_string()),
                Err(e) => {
                    eprintln!("could not write spans to {}: {e}", path.display());
                    None
                }
            }
        });
        println!("{}", self.record_line(plan, spans_file.as_deref()));
        println!("{}", self.result_line(plan.trace));
    }
}

/// Where a traced run writes its spans: `out/` in this package.
fn spans_path(plan: &Plan) -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("out")
        .join(format!(
            "spans-{}-{}.jsonl",
            plan.workload.name(),
            plan.seed
        ))
}

/// Host facts recorded with every result.
fn host() -> Json {
    let pin = Some(crate::KERNEL_THREADS);
    let requested = congest_sim::pool::kernel_threads(pin);
    let cores = congest_sim::pool::available_cores();
    let effective = congest_sim::network::parallel_plan(pin, requested, cores).threads;
    Json::obj([
        ("nproc", Json::Int(cores as i64)),
        ("kernel_threads_requested", Json::Int(requested as i64)),
        ("kernel_threads_effective", Json::Int(effective as i64)),
        (
            "planar_threads_env",
            std::env::var(congest_sim::pool::THREADS_ENV).map_or(Json::str("unset"), Json::Str),
        ),
        (
            "build_profile",
            Json::str(if cfg!(debug_assertions) {
                "debug"
            } else {
                "release"
            }),
        ),
        ("os", Json::str(std::env::consts::OS)),
        ("arch", Json::str(std::env::consts::ARCH)),
    ])
}

/// Peak resident set of this process in MiB (`VmHWM`), or 0 where
/// `/proc` is unavailable. The bench harness has the same probe; the
/// benchmark depends on the product crates only, so that reworking the
/// harness cannot break it.
pub fn peak_rss_mb() -> f64 {
    let Ok(status) = std::fs::read_to_string("/proc/self/status") else {
        return 0.0;
    };
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(0.0, |kib| kib / 1024.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Whether `name` is a valid metric name: 1 to 64 characters from
    /// `[A-Za-z0-9_.-]`, starting with a letter or digit.
    fn valid_name(name: &str) -> bool {
        let ok = |c: char| c.is_ascii_alphanumeric() || matches!(c, '_' | '.' | '-');
        !name.is_empty()
            && name.len() <= 64
            && name.starts_with(|c: char| c.is_ascii_alphanumeric())
            && name.chars().all(ok)
    }

    #[test]
    fn metric_names_use_the_allowed_charset() {
        for d in END_TO_END.iter().chain(PER_LAYER) {
            assert!(valid_name(d.name), "bad metric name {}", d.name);
            assert!(
                !d.unit.is_empty()
                    && d.unit.len() <= 16
                    && d.unit
                        .chars()
                        .all(|c| c.is_ascii_alphanumeric() || "_/%.-".contains(c)),
                "bad unit {}",
                d.unit
            );
        }
        let mut names: Vec<_> = END_TO_END.iter().chain(PER_LAYER).map(|d| d.name).collect();
        names.sort_unstable();
        let before = names.len();
        names.dedup();
        assert_eq!(before, names.len(), "metric names are used once");
        for bad in ["", ".x", "a b", "a/b", "ü", &"x".repeat(65)] {
            assert!(!valid_name(bad), "{bad:?} should be invalid");
        }
        assert!(valid_name("cert.build_s") && valid_name("9-a_b.c"));
    }

    #[test]
    fn result_line_has_exactly_the_result_keys() {
        let mut r = RunResult {
            attempted: 3,
            ..RunResult::default()
        };
        for d in END_TO_END {
            r.set(d.name, 1.5);
        }
        let line = r.result_line(false);
        assert!(line.starts_with(r#"{"correct": true, "attempted": 3, "failed": 0, "metrics": {"#));
        assert!(line.contains(r#""setup_s": {"value": 1.5, "unit": "s"}"#));
        // Traced lines print every per-layer metric, unset ones as 0.
        let traced = r.result_line(true);
        for d in PER_LAYER {
            assert!(traced.contains(&format!("\"{}\": {{\"value\": ", d.name)));
        }
        r.fail("x".into());
        assert!(r.result_line(false).starts_with(r#"{"correct": false"#));
    }

    #[test]
    fn peak_rss_is_positive_on_linux() {
        if cfg!(target_os = "linux") {
            assert!(peak_rss_mb() > 0.0);
        }
    }
}
