//! The span recorder of the traced run.
//!
//! A span is one call into a layer's public function, timed from this
//! crate: name, start, end, the span that caused it, and the operation it
//! belongs to. Spans stay in memory and are written out when the run ends.
//!
//! A span's *self time* is its duration minus the durations of its direct
//! children. Children either run inside the parent's interval or are
//! separate calls to an entry point the parent calls internally — the
//! traced run times `embed_recursion` and `run_setup` on their own and
//! records them under the `embed_distributed` call that contains them.
//! Either way the self times of a tree sum to its root's duration, so the
//! per-layer shares add back up to the end-to-end call.

use std::io::Write;
use std::path::Path;
use std::time::Instant;

use crate::json::Json;

/// Index of a span in its [`Recorder`].
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct SpanId(usize);

/// One recorded span; times are nanoseconds since the recorder started.
#[derive(Clone, Debug, PartialEq)]
pub struct Span {
    /// Layer name, e.g. `epilogue`.
    pub name: &'static str,
    /// Operation (embed call or delta) the span belongs to.
    pub op: u64,
    /// The span that caused this one.
    pub parent: Option<SpanId>,
    /// Start, in nanoseconds since the recorder started.
    pub start_ns: u64,
    /// End, in nanoseconds since the recorder started.
    pub end_ns: u64,
}

/// In-memory span store.
#[derive(Debug)]
pub struct Recorder {
    origin: Instant,
    spans: Vec<Span>,
}

impl Default for Recorder {
    fn default() -> Self {
        Recorder::new()
    }
}

impl Recorder {
    /// An empty recorder whose clock starts now.
    pub fn new() -> Self {
        Recorder {
            origin: Instant::now(),
            spans: Vec::new(),
        }
    }

    /// Nanoseconds since the recorder started.
    pub fn now_ns(&self) -> u64 {
        u64::try_from(self.origin.elapsed().as_nanos()).unwrap_or(u64::MAX)
    }

    /// Times `f` as a span named `name` under `parent`.
    pub fn time<T>(
        &mut self,
        name: &'static str,
        op: u64,
        parent: Option<SpanId>,
        f: impl FnOnce() -> T,
    ) -> (SpanId, T) {
        let start_ns = self.now_ns();
        let out = f();
        let end_ns = self.now_ns();
        (self.record(name, op, parent, start_ns, end_ns), out)
    }

    /// Records a span measured by the caller (on [`now_ns`]'s clock, or
    /// as a known duration after a known start).
    ///
    /// [`now_ns`]: Recorder::now_ns
    pub fn record(
        &mut self,
        name: &'static str,
        op: u64,
        parent: Option<SpanId>,
        start_ns: u64,
        end_ns: u64,
    ) -> SpanId {
        self.spans.push(Span {
            name,
            op,
            parent,
            start_ns,
            end_ns,
        });
        SpanId(self.spans.len() - 1)
    }

    /// The span behind `id`.
    pub fn span(&self, id: SpanId) -> &Span {
        &self.spans[id.0]
    }

    /// All spans, in recording order.
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Duration of `id` in seconds.
    pub fn duration_s(&self, id: SpanId) -> f64 {
        let s = self.span(id);
        s.end_ns.saturating_sub(s.start_ns) as f64 * 1e-9
    }

    /// Self time of every span in seconds, indexed like [`spans`]: its
    /// duration minus its direct children's durations. May be negative
    /// when separately timed children together outlast the parent.
    ///
    /// [`spans`]: Recorder::spans
    pub fn self_times_s(&self) -> Vec<f64> {
        let mut out: Vec<f64> = (0..self.spans.len())
            .map(|i| self.duration_s(SpanId(i)))
            .collect();
        for (i, s) in self.spans.iter().enumerate() {
            if let Some(SpanId(p)) = s.parent {
                out[p] -= self.duration_s(SpanId(i));
            }
        }
        out
    }

    /// Per-name mean self time over `ops` operations, in seconds: the sum
    /// of every self time recorded under `name` divided by `ops`, so that
    /// layers an operation skips count as zero and the means of one tree's
    /// names add up to the mean root duration.
    pub fn mean_self_s(&self, name: &str, ops: usize) -> f64 {
        if ops == 0 {
            return 0.0;
        }
        let selfs = self.self_times_s();
        let total: f64 = self
            .spans
            .iter()
            .zip(&selfs)
            .filter(|(s, _)| s.name == name)
            .map(|(_, t)| t)
            .sum();
        total / ops as f64
    }

    /// Writes every span as one JSON line to `path`, creating its
    /// directory.
    pub fn write_jsonl(&self, path: &Path) -> std::io::Result<()> {
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        for (i, s) in self.spans.iter().enumerate() {
            let line = Json::obj([
                ("id", Json::Int(i as i64)),
                ("name", Json::str(s.name)),
                ("op", Json::Int(s.op as i64)),
                (
                    "parent",
                    s.parent
                        .map_or(Json::Int(-1), |SpanId(p)| Json::Int(p as i64)),
                ),
                ("start_ns", Json::Int(s.start_ns as i64)),
                ("end_ns", Json::Int(s.end_ns as i64)),
            ]);
            writeln!(out, "{}", line.render())?;
        }
        out.flush()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    use std::time::Duration;

    const MS: u64 = 1_000_000;

    #[test]
    fn self_time_subtracts_direct_children_only() {
        let mut rec = Recorder::new();
        // embed (10ms) ⊃ recursion_checked (6ms) ⊃ recursion (2ms) ⊃
        // setup (0.5ms); epilogue (3ms) also under embed.
        let root = rec.record("embed", 0, None, 0, 10 * MS);
        let rc = rec.record("recursion_checked", 0, Some(root), 10 * MS, 16 * MS);
        let r = rec.record("recursion", 0, Some(rc), 16 * MS, 18 * MS);
        rec.record("setup", 0, Some(r), 18 * MS, 18 * MS + MS / 2);
        rec.record("epilogue", 0, Some(root), 19 * MS, 22 * MS);
        let selfs = rec.self_times_s();
        let want = [1e-3, 4e-3, 1.5e-3, 0.5e-3, 3e-3];
        for (got, want) in selfs.iter().zip(want) {
            assert!((got - want).abs() < 1e-12, "{selfs:?}");
        }
        // The self times of the tree add back up to the root's duration.
        assert!((selfs.iter().sum::<f64>() - rec.duration_s(root)).abs() < 1e-12);
    }

    #[test]
    fn a_child_inside_its_parent_is_subtracted_from_it() {
        let mut rec = Recorder::new();
        let start = rec.now_ns();
        std::thread::sleep(Duration::from_millis(2));
        let c0 = rec.now_ns();
        std::thread::sleep(Duration::from_millis(1));
        let c1 = rec.now_ns();
        let outer = rec.record("outer", 3, None, start, rec.now_ns());
        let child = rec.record("child", 3, Some(outer), c0, c1);
        let selfs = rec.self_times_s();
        let (d_outer, d_child) = (rec.duration_s(outer), rec.duration_s(child));
        assert!(d_outer >= 3e-3 && d_child >= 1e-3);
        assert!((selfs[0] - (d_outer - d_child)).abs() < 1e-12);
        assert!(selfs[0] >= 2e-3);
        assert_eq!(rec.span(child).parent, Some(outer));
        assert_eq!(rec.span(child).op, 3);
    }

    #[test]
    fn mean_self_counts_skipped_layers_as_zero() {
        let mut rec = Recorder::new();
        let a = rec.record("apply", 0, None, 0, 4 * MS);
        rec.record("gate", 0, Some(a), MS, 2 * MS);
        rec.record("apply", 1, None, 5 * MS, 7 * MS);
        assert!((rec.mean_self_s("gate", 2) - 0.5e-3).abs() < 1e-12);
        assert!((rec.mean_self_s("apply", 2) - 2.5e-3).abs() < 1e-12);
        assert_eq!(rec.mean_self_s("gate", 0), 0.0);
    }
}
