//! Command line: `--workload <name> --seed <n> --seconds <s> --trace <0|1>`.

use std::time::Duration;

/// The benchmark's workloads.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Workload {
    /// `embed_distributed` on random maximal planar graphs.
    EmbedDense,
    /// `embed_distributed` on seeded wheel chains.
    EmbedLong,
    /// Churn deltas against a resident service fleet.
    ServiceChurn,
}

impl Workload {
    /// Every workload, in `BENCHMARK.json` order.
    pub const ALL: [Workload; 3] = [
        Workload::EmbedDense,
        Workload::EmbedLong,
        Workload::ServiceChurn,
    ];

    /// The workload's name on the command line and in the record.
    pub fn name(self) -> &'static str {
        match self {
            Workload::EmbedDense => "embed-dense",
            Workload::EmbedLong => "embed-long",
            Workload::ServiceChurn => "service-churn",
        }
    }

    fn parse(s: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == s)
    }
}

/// Input sizes and passes. [`Scale::full`] is the benchmark;
/// [`Scale::tiny`] is the smoke-test shape of the same code paths.
///
/// A run repeats the same ops in passes, each pass starting from a fresh
/// set-up, and takes an op's latency as its mean over the passes (see
/// `set_op_times`).
#[derive(Clone, Copy, Debug)]
pub struct Scale {
    /// Vertices per `embed-dense` graph.
    pub dense_n: usize,
    /// Vertices per `embed-long` chain (rounded up to a whole wheel).
    pub long_n: usize,
    /// Distinct `embed-dense` graphs per seed, embedded once per pass.
    pub dense_pool: usize,
    /// Distinct `embed-long` graphs per seed, used the same way.
    pub long_pool: usize,
    /// Vertices per service tenant.
    pub tenant_n: usize,
    /// Tenants of each fleet family.
    pub tenants_per_family: usize,
    /// Fleet rounds (one delta per tenant) in the `service-churn` stream
    /// that every pass replays against a freshly admitted fleet.
    pub stream_rounds: usize,
    /// Passes an untraced run makes even past `--seconds`, so every op
    /// has that many samples and `setup_s` that many set-ups.
    pub min_passes: usize,
}

impl Scale {
    /// The benchmark's sizes.
    pub fn full() -> Scale {
        Scale {
            dense_n: 512,
            long_n: 2000,
            dense_pool: 10,
            long_pool: 40,
            tenant_n: 256,
            tenants_per_family: 8,
            stream_rounds: 12,
            min_passes: 2,
        }
    }

    /// Small inputs that run every code path in well under a second.
    pub fn tiny() -> Scale {
        Scale {
            dense_n: 24,
            long_n: 40,
            dense_pool: 2,
            long_pool: 2,
            tenant_n: 16,
            tenants_per_family: 1,
            stream_rounds: 2,
            min_passes: 2,
        }
    }
}

/// One invocation.
#[derive(Clone, Copy, Debug)]
pub struct Plan {
    /// Which workload.
    pub workload: Workload,
    /// Seed every input derives from.
    pub seed: u64,
    /// How long the measured loop runs.
    pub seconds: Duration,
    /// Time each layer separately (per-layer metrics) instead of the
    /// untraced end-to-end metrics.
    pub trace: bool,
    /// Input sizes.
    pub scale: Scale,
}

/// The usage line printed on bad arguments.
pub const USAGE: &str = "usage: planar-e2ebench --workload <embed-dense|embed-long|service-churn> \
--seed <u64> --seconds <s> --trace <0|1>";

/// Parses the command line (without the program name). Every flag is
/// required.
pub fn parse(args: &[String]) -> Result<Plan, String> {
    let (mut workload, mut seed, mut seconds, mut trace) = (None, None, None, None);
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => {
                workload = Some(
                    Workload::parse(value).ok_or_else(|| format!("unknown workload {value}"))?,
                )
            }
            "--seed" => seed = Some(value.parse::<u64>().map_err(|e| format!("--seed: {e}"))?),
            "--seconds" => {
                let s = value
                    .parse::<f64>()
                    .map_err(|e| format!("--seconds: {e}"))?;
                if !(s.is_finite() && s > 0.0 && s <= 3600.0) {
                    return Err(format!("--seconds out of range: {value}"));
                }
                seconds = Some(Duration::from_secs_f64(s));
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace takes 0 or 1, not {value}")),
                })
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    Ok(Plan {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace: trace.ok_or("--trace is required")?,
        scale: Scale::full(),
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn args(s: &str) -> Vec<String> {
        s.split_whitespace().map(String::from).collect()
    }

    #[test]
    fn parses_a_full_command_line() {
        let plan = parse(&args(
            "--workload embed-long --seed 7 --seconds 20 --trace 1",
        ))
        .unwrap();
        assert_eq!(plan.workload, Workload::EmbedLong);
        assert_eq!(plan.seed, 7);
        assert_eq!(plan.seconds, Duration::from_secs(20));
        assert!(plan.trace);
    }

    #[test]
    fn rejects_bad_arguments() {
        for bad in [
            "",
            "--workload nope --seed 1 --seconds 1 --trace 0",
            "--workload embed-dense --seed x --seconds 1 --trace 0",
            "--workload embed-dense --seed 1 --seconds 0 --trace 0",
            "--workload embed-dense --seed 1 --seconds 1 --trace 2",
            "--workload embed-dense --seed 1 --seconds 1",
            "--workload embed-dense --seed 1 --seconds 1 --trace 0 --extra 1",
        ] {
            assert!(parse(&args(bad)).is_err(), "{bad:?} should be rejected");
        }
    }
}
