//! The end-to-end distributed planar embedding algorithm (Theorem 1.1):
//! setup, recursive partitioning, and bottom-up merging, with every
//! phase's CONGEST cost measured or charged.
//!
//! The Section 4 recursion has one product, the *recursion arena*: a
//! `Vec<RecNode>`, root first, holding every subproblem's partition,
//! solved part, subtree cost and merge statistics. Two builders fill it,
//! selected by [`EmbedderConfig::scheduler`]:
//!
//! * [`Scheduler::LevelSync`] (the default) builds it level by level:
//!   every same-level subproblem is partitioned in one batched kernel
//!   invocation ([`partition_level`]) over vertex-disjoint instances, then
//!   the merges run bottom-up. Host-side cost per level is proportional to
//!   the level's total subproblem size.
//! * [`Scheduler::Sequential`] builds it depth first, one kernel run per
//!   subproblem phase — the conformance oracle. The same builder rebuilds
//!   a resident arena after a delta (`crate::incremental`): handed the old
//!   arena and the dirty flags of the repaired tree, it adopts every clean
//!   subtree and re-runs only the dirty chains.
//!
//! The [`RecursionStats`] levels and merges are one pure function of the
//! tree and the arena, computed after either builder, so the schedulers
//! agree on them by construction. Rotations, metrics and certification
//! verdicts agree because batched per-instance metrics equal the
//! one-at-a-time runs and charging is order-independent
//! (`tests/scheduler.rs`). The density guard, the coverage check and the
//! epilogue (output rotation plus optional certification) are each one
//! function, shared with the incremental path.
//!
//! **Fidelity note** (see DESIGN.md §11): the recursion computes, charges
//! and validates the partition/merge *structure* only. A [`PartState`]
//! holds just its members and leader; the merges build no embedding
//! content, and under `check_invariants` `verify_part` embeds each merged
//! part with the pinned embedder and discards the result. The rotation
//! handed to the caller comes from the centralized left-right embedder
//! ([`planar_lib::embed`]) run on the whole graph. The
//! `merged_part_covers_graph_and_matches_centralized_blocks` regression
//! pins that the top-level part covers the graph and that the graph it
//! covers has the block structure of that rotation.

use std::collections::HashMap;

use congest_sim::{Metrics, Phase, SimConfig, SimError};
use planar_cert::{
    build_certificates, splice_certificates, splice_certificates_shifted, Certificate, SpliceStats,
};
use planar_graph::{Graph, RotationSystem, VertexId};

use crate::certify::{certify_with_certificates, Certification};
use crate::error::{DegradedCause, EmbedError};
use crate::exec::ExecutionContext;
use crate::merge::merge_parts;
use crate::partition::{partition_level, partition_subtree, Partition, SubProblem};
use crate::parts::{partition_is_safe, PartState};
use crate::resilience::auto_watchdog;
use crate::setup::run_setup_ctx;
use crate::stats::{LevelStats, MergeStats, RecursionStats};
use crate::tree::GlobalTree;
use crate::verify::verify_surviving_embedding;
use crate::{Kernel, Scheduler};

/// Configuration of the distributed embedder.
#[derive(Clone, Debug)]
pub struct EmbedderConfig {
    /// Kernel simulation parameters (per-edge word budget, round cap,
    /// fault plan, watchdog).
    pub sim: SimConfig,
    /// Verify the framework invariants (part safety, co-facial boundaries)
    /// at every merge. Each merge embeds the merged part once with the
    /// linear-time left-right embedder (`O(n log n)` over the recursion),
    /// but the Definition 3.1 safety check runs one BFS per non-trivial
    /// part, `O(parts · m)` per level; that BFS dominates on dense graphs
    /// (13–14× the unchecked run on a random maximal planar graph with
    /// n = 10k). Disable for large benchmark runs.
    pub check_invariants: bool,
    /// Lift every kernel phase into the acknowledgement/retransmission
    /// wrapper ([`congest_sim::protocols::Reliable`]). `None` (the default)
    /// runs the phases bare; combine `Some(..)` with a fault plan on `sim`
    /// to survive lossy links.
    pub reliability: Option<congest_sim::protocols::ReliableConfig>,
    /// Append a distributed certification phase: build `O(Δ log n)`-bit
    /// per-node certificates for the computed rotation and run the
    /// O(1)-round local verifier ([`crate::certify_embedding`]) on the
    /// same simulated network. The outcome then carries the certificates
    /// and the per-node verdicts in
    /// [`EmbeddingOutcome::certification`]; in fault mode, degraded
    /// results additionally audit the surviving subgraph distributedly
    /// before reporting `verified: true`.
    pub certify: bool,
    /// Which simulation kernel executes the phases: the allocation-free
    /// CSR kernel (default) or the executable-spec reference kernel.
    pub kernel: Kernel,
    /// Which builder fills the recursion arena: level-synchronous
    /// batching (default) or the one-run-per-subproblem depth-first
    /// builder. Outputs are bit-identical either way.
    pub scheduler: Scheduler,
}

impl Default for EmbedderConfig {
    fn default() -> Self {
        EmbedderConfig {
            sim: SimConfig::default(),
            check_invariants: true,
            reliability: None,
            certify: false,
            kernel: Kernel::default(),
            scheduler: Scheduler::default(),
        }
    }
}

/// The result of a distributed embedding run.
#[derive(Clone, Debug)]
pub struct EmbeddingOutcome {
    /// The computed combinatorial planar embedding (per-vertex clockwise
    /// edge orders).
    pub rotation: RotationSystem,
    /// Total CONGEST cost (rounds is the headline `O(D·min{log n, D})`).
    pub metrics: Metrics,
    /// Structural statistics validating Lemmas 4.2/4.3 and the part-count
    /// argument.
    pub stats: RecursionStats,
    /// Distributed certification artifacts (certificates + per-node
    /// verdicts), present iff [`EmbedderConfig::certify`] was set. The
    /// run only succeeds if every node accepted.
    pub certification: Option<crate::certify::Certification>,
}

/// Runs the distributed planar embedding algorithm of Theorem 1.1 on the
/// network `g`.
///
/// # Errors
///
/// * [`EmbedError::NonPlanar`] if `g` is not planar (the algorithm doubles
///   as a planarity test);
/// * [`EmbedError::Disconnected`] / [`EmbedError::EmptyGraph`] for invalid
///   networks;
/// * [`EmbedError::Internal`] if a framework invariant fails (a bug, not an
///   input condition).
///
/// # Example
///
/// ```
/// use planar_embedding::{embed_distributed, EmbedderConfig};
/// use planar_lib::gen;
///
/// # fn main() -> Result<(), planar_embedding::EmbedError> {
/// let g = gen::grid(4, 4);
/// let out = embed_distributed(&g, &EmbedderConfig::default())?;
/// assert!(out.rotation.is_planar_embedding());
/// # Ok(())
/// # }
/// ```
pub fn embed_distributed(g: &Graph, cfg: &EmbedderConfig) -> Result<EmbeddingOutcome, EmbedError> {
    let fault_mode = !cfg.sim.faults.is_empty();
    if !fault_mode {
        // Perfect network: the original code path, bit for bit (the fault
        // subsystem must cost nothing when unused).
        let mut ctx = ExecutionContext::new(g, cfg);
        return embed_inner(g, cfg, &mut ctx);
    }

    // Fault mode: arm the watchdog (unless the caller chose one) so lossy
    // phases terminate, run, and translate every failure into the typed
    // degradation report instead of surfacing internal errors.
    let mut hardened = cfg.clone();
    if hardened.sim.watchdog.is_none() {
        hardened.sim.watchdog = Some(auto_watchdog(g.vertex_count()));
    }
    let mut ctx = ExecutionContext::new(g, &hardened);
    let surviving_nodes = g.vertex_count() - cfg.sim.faults.crash_victims().len();
    match embed_inner(g, &hardened, &mut ctx) {
        Ok(out) => {
            // Post-run self-verification: in fault mode a "successful" run
            // still only counts if the rotation restricted to the surviving
            // subgraph certifies as planar.
            let crashed = cfg.sim.faults.crash_victims();
            match verify_surviving_embedding(g, &out.rotation, &crashed) {
                // If any node actually crash-stopped mid-run, the result
                // covers only the survivors — report it as a (verified)
                // degradation rather than letting it pass for a full
                // embedding. Crash victims whose scheduled round was never
                // reached participated normally and do not degrade. With
                // certification enabled, `verified: true` additionally
                // requires the survivors' own distributed audit
                // ([`crate::certify_surviving_embedding`]) to accept.
                Ok(()) if out.metrics.crashed_nodes > 0 => {
                    let distributed_ok = !cfg.certify
                        || crate::certify::certify_surviving_embedding(
                            g,
                            &out.rotation,
                            &crashed,
                            cfg,
                        )
                        .map(|c| c.accepted())
                        .unwrap_or(false);
                    Err(EmbedError::Degraded {
                        surviving_nodes,
                        rounds_used: ctx.rounds_used(),
                        verified: distributed_ok,
                        cause: if distributed_ok {
                            DegradedCause::SurvivorsOnly
                        } else {
                            DegradedCause::OutputUnverified
                        },
                    })
                }
                Ok(()) => Ok(out),
                Err(_) => Err(EmbedError::Degraded {
                    surviving_nodes,
                    rounds_used: ctx.rounds_used(),
                    verified: false,
                    cause: DegradedCause::OutputUnverified,
                }),
            }
        }
        // Input conditions a fault-free run would also report: pass through.
        Err(e @ (EmbedError::EmptyGraph | EmbedError::Graph(_))) => Err(e),
        // Kernel aborts (watchdog, crashed-destination sends) keep their
        // typed error as the cause, losslessly. Round-limit aborts report
        // how many rounds the dying phase actually ran; charge them so
        // `rounds_used` reflects the work done, not zero.
        Err(EmbedError::Sim(e)) => {
            if let SimError::WatchdogTimeout { limit } | SimError::MaxRoundsExceeded { limit } = e {
                ctx.charge_partial(limit);
            }
            Err(EmbedError::Degraded {
                surviving_nodes,
                rounds_used: ctx.rounds_used(),
                verified: false,
                cause: DegradedCause::Sim(e),
            })
        }
        // Everything else — a convergecast that missed the root
        // (`Internal`), leader election that never converged
        // (`Disconnected`), a merge handed fault-corrupted part state
        // (`NonPlanar`, `Routing`, invariant violations) — is the phase
        // coming up short because of injected faults. No embedding was
        // produced, so nothing could be re-verified.
        Err(_) => Err(EmbedError::Degraded {
            surviving_nodes,
            rounds_used: ctx.rounds_used(),
            verified: false,
            cause: DegradedCause::PhaseIncomplete {
                phase: ctx.phase().name(),
            },
        }),
    }
}

/// The distributed pipeline shared by [`embed_distributed`],
/// [`embed_recursion`] and the resident embeddings: setup, the density
/// guard, the scheduled recursion, and the coverage check. Returns the
/// global BFS tree, the recursion arena, the parallel-composed metrics
/// (setup included), and the recursion statistics; the sequential-tally
/// stamps are left to the caller, whose epilogue may still charge rounds.
pub(crate) fn run_recursion(
    g: &Graph,
    cfg: &EmbedderConfig,
    ctx: &mut ExecutionContext<'_>,
) -> Result<(GlobalTree, Vec<RecNode>, Metrics, RecursionStats), EmbedError> {
    ctx.enter(Phase::Setup);
    let (setup, mut metrics) = run_setup_ctx(ctx)?;
    ctx.charge(&metrics);
    density_guard(g)?;

    let tree = setup.tree;
    let nodes = match cfg.scheduler {
        Scheduler::Sequential => build_depth_first(ctx, cfg, &tree, None)?.0,
        Scheduler::LevelSync => build_level_sync(ctx, cfg, &tree)?,
    };
    check_coverage(&nodes, g.vertex_count())?;
    metrics.add(nodes[0].metrics);
    let stats = recursion_stats(&tree, &nodes, cfg);
    Ok((tree, nodes, metrics, stats))
}

/// The cheap planarity guard: a simple planar graph on `n ≥ 3` vertices
/// has at most `3n − 6` edges. Density violations abort before any
/// recursion (and before any incremental rebuild).
pub(crate) fn density_guard(g: &Graph) -> Result<(), EmbedError> {
    let n = g.vertex_count();
    if n >= 3 && g.edge_count() > 3 * n - 6 {
        return Err(EmbedError::NonPlanar);
    }
    Ok(())
}

/// Checks that the arena's top-level part covers all `n` vertices.
///
/// Message loss can leave the merged top-level part short of vertices
/// with every phase reporting success; this surfaces a typed failure so
/// fault mode degrades to `PhaseIncomplete` instead of asserting (found by
/// the DST swarm, `crates/dst`). A fault-free run can never trip it —
/// there it is a genuine bug report.
pub(crate) fn check_coverage(nodes: &[RecNode], n: usize) -> Result<(), EmbedError> {
    let merged = nodes[0].part.as_ref().map_or(0, PartState::len);
    if merged != n {
        return Err(EmbedError::Internal(format!(
            "recursion merged only {merged} of {n} vertices"
        )));
    }
    Ok(())
}

/// Runs only the distributed pipeline — setup plus the scheduled
/// partition/merge recursion — skipping the centralized fidelity epilogue
/// (see the module-level note) and certification. This is the unit the
/// scheduler benchmark times: host wall time here is what
/// [`EmbedderConfig::scheduler`] actually controls; timing
/// [`embed_distributed`] instead would let the scheduler-independent
/// centralized epilogue dominate at large `n`.
///
/// # Errors
///
/// As [`embed_distributed`], minus certification failures (there is no
/// certification phase). Fault plans are honored but failures surface as
/// their raw typed errors, not as [`EmbedError::Degraded`] reports.
pub fn embed_recursion(
    g: &Graph,
    cfg: &EmbedderConfig,
) -> Result<(Metrics, RecursionStats), EmbedError> {
    embed_recursion_with_memory(g, cfg).map(|(metrics, stats, _)| (metrics, stats))
}

/// [`embed_recursion`] plus the bytes retained by the execution context's
/// kernel arenas when the recursion finishes — the figure the bench
/// harness's memory stage records as `kernel_bytes`. Kept out of
/// [`RecursionStats`] on purpose: retained capacity is a host-side
/// property of the kernel cache, not part of the scheduler-conformance
/// contract (the two schedulers leave different kernel caches warm while
/// producing bit-identical stats).
pub fn embed_recursion_with_memory(
    g: &Graph,
    cfg: &EmbedderConfig,
) -> Result<(Metrics, RecursionStats, usize), EmbedError> {
    let mut ctx = ExecutionContext::new(g, cfg);
    let (_, _, metrics, mut stats) = run_recursion(g, cfg, &mut ctx)?;
    stats.sequential_rounds = ctx.rounds_used();
    stats.phase_rounds = ctx.phase_rounds();
    Ok((metrics, stats, ctx.memory_bytes()))
}

fn embed_inner(
    g: &Graph,
    cfg: &EmbedderConfig,
    ctx: &mut ExecutionContext<'_>,
) -> Result<EmbeddingOutcome, EmbedError> {
    // The tree and the arena are dropped here, before the epilogue, so
    // they never share the peak with its working set.
    let (_, _, mut metrics, mut stats) = run_recursion(g, cfg, ctx)?;
    let (rotation, certification, _) = epilogue(g, cfg, ctx, None)?;
    if let Some(cert) = &certification {
        metrics.add(cert.report.metrics);
    }
    stats.sequential_rounds = ctx.rounds_used();
    stats.phase_rounds = ctx.phase_rounds();
    Ok(EmbeddingOutcome {
        rotation,
        metrics,
        stats,
        certification,
    })
}

/// Resident certificates the epilogue splices a scratch build against,
/// so only changed certificates need re-distribution.
pub(crate) struct SpliceFrom<'a> {
    /// The resident certificate set (index = resident vertex id).
    pub(crate) old: &'a [Certificate],
    /// `Some(v)` when resident ids above `v` shift down by one.
    pub(crate) removed: Option<VertexId>,
}

/// The epilogue every embedding path ends in. The output rotation is the
/// content of the top-level merge; per the module-level fidelity note it
/// comes from the centralized embedder. With [`EmbedderConfig::certify`]
/// the O(1)-round proof-labeling verifier then runs on the same simulated
/// network (same fault plan, reliability and kernel), charged to
/// [`Phase::Cert`]; `splice` reuses resident certificates where the
/// scratch build agrees with them and reports the splice accounting.
pub(crate) fn epilogue(
    g: &Graph,
    cfg: &EmbedderConfig,
    ctx: &mut ExecutionContext<'_>,
    splice: Option<SpliceFrom<'_>>,
) -> Result<(RotationSystem, Option<Certification>, Option<SpliceStats>), EmbedError> {
    let rotation = planar_lib::embed(g)?;
    debug_assert!(rotation.is_planar_embedding());
    if !cfg.certify {
        return Ok((rotation, None, None));
    }

    ctx.enter(Phase::Cert);
    let scratch = build_certificates(g, &rotation).map_err(crate::certify::lift)?;
    let (certificates, splice_stats) = match splice {
        None => (scratch, None),
        Some(SpliceFrom { old, removed }) => {
            let (spliced, stats) = match removed {
                Some(v) => splice_certificates_shifted(old, scratch, v.index()),
                None => splice_certificates(old, scratch),
            };
            (spliced, Some(stats))
        }
    };
    let cert = certify_with_certificates(g, &rotation, certificates, cfg)?;
    ctx.charge(&cert.report.metrics);
    if !cert.accepted() {
        return Err(EmbedError::Internal(format!(
            "distributed certification rejected the embedding: rejections {:?}, incomplete {:?}",
            cert.report.rejections, cert.report.incomplete
        )));
    }
    Ok((rotation, Some(cert), splice_stats))
}

/// The Lemma 4.1/4.2 gate on one subproblem's partition, run by both
/// builders on every partition they compute: every hanging part must stay
/// within the 2/3 ratio, and (under `check_invariants`) the partition
/// must be safe in the Definition 3.1 sense.
fn validate_partition(
    g: &Graph,
    size: usize,
    partition: &Partition,
    cfg: &EmbedderConfig,
) -> Result<(), EmbedError> {
    for part in &partition.parts {
        let ratio = part.members.len() as f64 / size as f64;
        if ratio > 2.0 / 3.0 + 1e-9 {
            return Err(EmbedError::Internal(format!(
                "Lemma 4.2 violated: part ratio {ratio}"
            )));
        }
    }
    if cfg.check_invariants {
        let mut all_parts: Vec<Vec<VertexId>> =
            partition.parts.iter().map(|p| p.members.clone()).collect();
        all_parts.push(partition.p0.clone());
        if !partition_is_safe(g, &all_parts) {
            return Err(EmbedError::Internal(
                "Lemma 4.1 violated: partition is unsafe".into(),
            ));
        }
    }
    Ok(())
}

/// One subproblem of the recursion arena.
///
/// The arena is *retained*: after a build, every node still holds its
/// partition, solved part, and merge statistics (merges clone what they
/// consume). That makes the arena a resumable artifact — the incremental
/// re-embedding path (`crate::incremental`) re-runs only the merges of
/// nodes whose subtree contains a delta endpoint and reuses every other
/// node's retained state verbatim.
pub(crate) struct RecNode {
    pub(crate) root: VertexId,
    pub(crate) level: usize,
    pub(crate) children: Vec<usize>,
    /// `Some` for internal nodes once they are partitioned.
    pub(crate) partition: Option<Partition>,
    /// The solved part; set for leaves immediately, for internal nodes by
    /// their merge.
    pub(crate) part: Option<PartState>,
    /// Parallel-composed cost of this subtree: partition, then the
    /// children in parallel, then the merge.
    pub(crate) metrics: Metrics,
    /// The node's merge statistics (`None` for leaves).
    pub(crate) merge_stats: Option<MergeStats>,
}

impl RecNode {
    /// An unsolved node; a size-1 subproblem (a leaf) is solved on the
    /// spot, since its trivial part is graph-independent.
    fn new(tree: &GlobalTree, root: VertexId, level: usize) -> Self {
        let leaf = tree.subtree_size[root.index()] == 1;
        RecNode {
            root,
            level,
            children: Vec::new(),
            partition: None,
            part: leaf.then(|| PartState::new(vec![root])),
            metrics: Metrics::new(),
            merge_stats: None,
        }
    }
}

/// Merges internal node `ni` once its partition is set and its children
/// are solved, and stamps its part, subtree cost and merge statistics.
fn merge_node(
    ctx: &mut ExecutionContext<'_>,
    cfg: &EmbedderConfig,
    nodes: &mut [RecNode],
    ni: usize,
) -> Result<(), EmbedError> {
    let partition = nodes[ni]
        .partition
        .as_ref()
        .expect("merged nodes are partitioned");
    let (p0, mut total) = (partition.p0.clone(), partition.metrics);
    let mut children_metrics = Metrics::new();
    let mut hanging = Vec::with_capacity(nodes[ni].children.len());
    for &ci in &nodes[ni].children {
        children_metrics.join_parallel(nodes[ci].metrics);
        hanging.push(nodes[ci].part.clone().expect("child solved before parent"));
    }
    ctx.enter(Phase::Merge);
    let merged = merge_parts(ctx, p0, hanging, cfg.check_invariants)?;
    ctx.charge(&merged.metrics);

    total.add(children_metrics);
    total.add(merged.metrics);
    let node = &mut nodes[ni];
    node.part = Some(merged.part);
    node.metrics = total;
    node.merge_stats = Some(merged.stats);
    Ok(())
}

/// The level-synchronous builder ([`Scheduler::LevelSync`]). Top-down,
/// each level's subproblems are partitioned in *one* batched kernel
/// invocation over vertex-disjoint instances; bottom-up, the merges run
/// level by level. Merges stay per-subproblem: their cost is charged
/// analytically and their symmetry breaking runs on per-merge virtual
/// graphs. The arena comes out in level order.
fn build_level_sync(
    ctx: &mut ExecutionContext<'_>,
    cfg: &EmbedderConfig,
    tree: &GlobalTree,
) -> Result<Vec<RecNode>, EmbedError> {
    let g = ctx.graph();
    let mut nodes = vec![RecNode::new(tree, tree.root, 0)];
    let mut frontier: Vec<usize> = vec![0];
    while !frontier.is_empty() {
        let internal: Vec<usize> = frontier
            .into_iter()
            .filter(|&ni| nodes[ni].part.is_none())
            .collect();
        let mut next_frontier: Vec<usize> = Vec::new();
        if !internal.is_empty() {
            ctx.enter(Phase::Partition);
            let roots: Vec<VertexId> = internal.iter().map(|&ni| nodes[ni].root).collect();
            let partitions = partition_level(ctx, tree, &roots)?;
            for (&ni, partition) in internal.iter().zip(partitions) {
                ctx.charge(&partition.metrics);
                let size = tree.subtree_size[nodes[ni].root.index()] as usize;
                validate_partition(g, size, &partition, cfg)?;
                let level = nodes[ni].level + 1;
                for sub in &partition.parts {
                    let ci = nodes.len();
                    nodes.push(RecNode::new(tree, sub.root, level));
                    nodes[ni].children.push(ci);
                    next_frontier.push(ci);
                }
                nodes[ni].partition = Some(partition);
            }
        }
        frontier = next_frontier;
    }

    // Children always sit after their parent, so a reverse sweep merges
    // every internal node after its children.
    for ni in (0..nodes.len()).rev() {
        if nodes[ni].partition.is_some() {
            merge_node(ctx, cfg, &mut nodes, ni)?;
        }
    }
    Ok(nodes)
}

/// Reuse accounting of one depth-first build.
#[derive(Clone, Copy, Debug, Default)]
pub(crate) struct ReuseCounts {
    pub(crate) recomputed_partitions: usize,
    pub(crate) reused_partitions: usize,
    pub(crate) recomputed_merges: usize,
    pub(crate) reused_merges: usize,
}

/// An earlier arena the depth-first builder may reuse, with the dirty
/// flags of the repaired tree it is rebuilt over.
pub(crate) struct OldArena<'a> {
    nodes: &'a [RecNode],
    /// Old arena index by subproblem root, in new (post-renumbering) ids.
    at: HashMap<VertexId, usize>,
    removed: Option<VertexId>,
    has_dirty: Vec<bool>,
    has_tree_dirty: Vec<bool>,
}

impl<'a> OldArena<'a> {
    /// Wraps the old arena `nodes`.
    ///
    /// * `removed`: `Some(v)` when old ids above `v` shift down by one (a
    ///   departure), so the old arena is renumbered as it is reused.
    /// * `has_dirty[v]`: the repaired subtree of `v` contains a
    ///   tree-record change or a delta endpoint (its merge is stale).
    /// * `has_tree_dirty[v]`: the repaired subtree of `v` contains a
    ///   tree-record change (its partition is stale too).
    pub(crate) fn new(
        nodes: &'a [RecNode],
        removed: Option<VertexId>,
        has_dirty: Vec<bool>,
        has_tree_dirty: Vec<bool>,
    ) -> Self {
        let mut old = OldArena {
            nodes,
            at: HashMap::with_capacity(nodes.len()),
            removed,
            has_dirty,
            has_tree_dirty,
        };
        for (oi, node) in nodes.iter().enumerate() {
            if Some(node.root) == removed {
                continue;
            }
            let prev = old.at.insert(old.phi(node.root), oi);
            debug_assert!(prev.is_none(), "a vertex roots at most one subproblem");
        }
        old
    }

    fn phi(&self, x: VertexId) -> VertexId {
        match self.removed {
            Some(r) if x > r => VertexId(x.0 - 1),
            _ => x,
        }
    }

    /// The old node rooted at `root` if its whole subtree is clean.
    fn adoptable(&self, root: VertexId) -> Option<usize> {
        (!self.has_dirty[root.index()])
            .then(|| self.at.get(&root).copied())
            .flatten()
    }

    /// The old partition of `root`, renumbered, if the subtree's tree
    /// records are unchanged (partition content is a pure function of
    /// the tree).
    fn partition(&self, root: VertexId) -> Option<Partition> {
        if self.has_tree_dirty[root.index()] {
            return None;
        }
        let p = self.nodes[*self.at.get(&root)?].partition.as_ref()?;
        Some(self.map_partition(p))
    }

    /// Renumbers a retained partition into the new id space. The mapping
    /// is monotone, so sorted member lists and the root-to-splitter order
    /// of `p0` survive as-is.
    fn map_partition(&self, p: &Partition) -> Partition {
        if self.removed.is_none() {
            return p.clone();
        }
        Partition {
            p0: p.p0.iter().map(|&v| self.phi(v)).collect(),
            parts: p
                .parts
                .iter()
                .map(|s| SubProblem {
                    root: self.phi(s.root),
                    members: s.members.iter().map(|&v| self.phi(v)).collect(),
                })
                .collect(),
            metrics: p.metrics,
        }
    }

    /// Old node `oi` renumbered into the new id space, without children.
    /// Monotone renumbering preserves sorted member order and the
    /// maximum-member leader of its part.
    fn renumbered(&self, oi: usize, level: usize) -> RecNode {
        let old = &self.nodes[oi];
        let part = old.part.as_ref().map(|p| match self.removed {
            None => p.clone(),
            Some(_) => PartState::new(p.members.iter().map(|&v| self.phi(v)).collect()),
        });
        RecNode {
            root: self.phi(old.root),
            level,
            children: Vec::new(),
            partition: old.partition.as_ref().map(|p| self.map_partition(p)),
            part,
            metrics: old.metrics,
            merge_stats: old.merge_stats.clone(),
        }
    }
}

/// The depth-first builder ([`Scheduler::Sequential`], and the
/// incremental rebuild). Walks `tree` top-down, one kernel run per
/// subproblem phase. With an old arena it adopts every clean sub-arena
/// wholesale, reuses the partitions of tree-clean subtrees, and re-runs
/// partitions and merges only along the dirty chains; without one it
/// partitions and merges every subproblem. The arena comes out in DFS
/// preorder.
pub(crate) fn build_depth_first(
    ctx: &mut ExecutionContext<'_>,
    cfg: &EmbedderConfig,
    tree: &GlobalTree,
    old: Option<OldArena<'_>>,
) -> Result<(Vec<RecNode>, ReuseCounts), EmbedError> {
    let mut builder = DepthFirst {
        tree,
        old,
        nodes: Vec::with_capacity(tree.subtree_size[tree.root.index()] as usize),
        counts: ReuseCounts::default(),
    };
    builder.build(ctx, cfg, tree.root, 0)?;
    Ok((builder.nodes, builder.counts))
}

struct DepthFirst<'a> {
    tree: &'a GlobalTree,
    old: Option<OldArena<'a>>,
    nodes: Vec<RecNode>,
    counts: ReuseCounts,
}

impl DepthFirst<'_> {
    /// Adopts the old arena subtree rooted at old index `oi` wholesale:
    /// same partitions, parts, metrics, and merge statistics, renumbered
    /// into the new id space. Valid because the node's new subtree equals
    /// its old one (no tree-record change inside) and no merge inside saw
    /// a changed edge.
    fn adopt(&mut self, oi: usize, level: usize) -> usize {
        let old = self.old.as_ref().expect("adoption needs an old arena");
        let node = old.renumbered(oi, level);
        let kids = old.nodes[oi].children.clone();
        if node.partition.is_some() {
            self.counts.reused_partitions += 1;
            self.counts.reused_merges += 1;
        }
        let ni = self.nodes.len();
        self.nodes.push(node);
        for ci in kids {
            let c = self.adopt(ci, level + 1);
            self.nodes[ni].children.push(c);
        }
        ni
    }

    /// Builds the arena node for the subproblem rooted at `root`,
    /// adopting or re-running as the old arena allows. Returns the node's
    /// index.
    fn build(
        &mut self,
        ctx: &mut ExecutionContext<'_>,
        cfg: &EmbedderConfig,
        root: VertexId,
        level: usize,
    ) -> Result<usize, EmbedError> {
        if let Some(oi) = self.old.as_ref().and_then(|o| o.adoptable(root)) {
            return Ok(self.adopt(oi, level));
        }
        let ni = self.nodes.len();
        self.nodes.push(RecNode::new(self.tree, root, level));
        if self.nodes[ni].part.is_some() {
            return Ok(ni); // a leaf
        }

        let partition = match self.old.as_ref().and_then(|o| o.partition(root)) {
            Some(p) => {
                self.counts.reused_partitions += 1;
                p
            }
            None => {
                ctx.enter(Phase::Partition);
                let p = partition_subtree(ctx, self.tree, root)?;
                ctx.charge(&p.metrics);
                let size = self.tree.subtree_size[root.index()] as usize;
                validate_partition(ctx.graph(), size, &p, cfg)?;
                self.counts.recomputed_partitions += 1;
                p
            }
        };
        let subs: Vec<VertexId> = partition.parts.iter().map(|s| s.root).collect();
        self.nodes[ni].partition = Some(partition);
        for sub in subs {
            let ci = self.build(ctx, cfg, sub, level + 1)?;
            self.nodes[ni].children.push(ci);
        }
        merge_node(ctx, cfg, &mut self.nodes, ni)?;
        self.counts.recomputed_merges += 1;
        Ok(ni)
    }
}

/// The recursion statistics of a built arena: per-level problem counts,
/// sizes, part ratios and depths, and rounds, plus every merge's
/// statistics in DFS post-order. A pure function of the tree and the
/// arena, so both builders report the same statistics by construction.
fn recursion_stats(tree: &GlobalTree, nodes: &[RecNode], cfg: &EmbedderConfig) -> RecursionStats {
    let depth = nodes.iter().map(|node| node.level + 1).max().unwrap_or(0);
    let mut levels: Vec<LevelStats> = (0..depth)
        .map(|level| LevelStats {
            level,
            ..Default::default()
        })
        .collect();
    for node in nodes {
        let size = tree.subtree_size[node.root.index()] as usize;
        let lvl = &mut levels[node.level];
        lvl.problems += 1;
        lvl.max_size = lvl.max_size.max(size);
        // A subtree's cost includes its partition's rounds; leaves cost 0.
        lvl.rounds = lvl.rounds.max(node.metrics.rounds);
        for part in node.partition.iter().flat_map(|p| &p.parts) {
            let ratio = part.members.len() as f64 / size as f64;
            lvl.max_child_ratio = lvl.max_child_ratio.max(ratio);
            lvl.max_part_depth = lvl
                .max_part_depth
                .max(tree.subtree_depth(part.root) as usize);
        }
    }

    let mut merges = Vec::new();
    let mut stack: Vec<(usize, bool)> = vec![(0, false)];
    while let Some((ni, visited)) = stack.pop() {
        if visited {
            merges.extend(nodes[ni].merge_stats.clone());
        } else {
            stack.push((ni, true));
            for &ci in nodes[ni].children.iter().rev() {
                stack.push((ci, false));
            }
        }
    }

    RecursionStats {
        n: tree.parent.len(),
        bfs_depth: tree.tree_depth() as usize,
        depth,
        levels,
        merges,
        safety_checked: cfg.check_invariants,
        ..Default::default()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use congest_sim::protocols::ReliableConfig;
    use congest_sim::{FaultPlan, LinkFaults};
    use planar_graph::biconnected::BiconnectedDecomposition;
    use planar_lib::gen;

    fn run(g: &Graph) -> EmbeddingOutcome {
        embed_distributed(g, &EmbedderConfig::default()).unwrap()
    }

    #[test]
    fn embeds_grid() {
        let g = gen::grid(5, 5);
        let out = run(&g);
        assert!(out.rotation.is_planar_embedding());
        assert_eq!(out.rotation.to_graph(), g);
        assert!(out.stats.max_child_ratio() <= 2.0 / 3.0 + 1e-9);
        assert!(out.metrics.rounds > 0);
    }

    #[test]
    fn embeds_all_small_families() {
        for g in [
            gen::path(17),
            gen::cycle(16),
            gen::star(15),
            gen::random_tree(25, 3),
            gen::triangulated_grid(4, 4),
            gen::k4_subdivided(4),
            gen::theta(3, 5),
            gen::wheel(10),
            gen::fan(12),
            gen::random_outerplanar(18, 2),
            gen::random_maximal_planar(18, 5),
            gen::random_planar(24, 40, 9),
            gen::wheel_chain(3, 5),
        ] {
            let out = run(&g);
            assert!(out.rotation.is_planar_embedding());
            assert_eq!(out.rotation.to_graph(), g);
        }
    }

    /// Satellite: every kernel round is attributed to exactly one phase —
    /// the breakdown sums to the sequential round tally (the quantity
    /// degraded runs report as `rounds_used`).
    #[test]
    fn phase_rounds_sum_to_sequential_tally() {
        for g in [gen::grid(5, 5), gen::triangulated_grid(4, 4), gen::path(17)] {
            let out = run(&g);
            let pr = out.stats.phase_rounds;
            assert_eq!(
                pr.sum(),
                out.stats.sequential_rounds,
                "unattributed rounds: {pr:?} vs {}",
                out.stats.sequential_rounds
            );
            assert!(pr.setup > 0, "setup must cost rounds: {pr:?}");
            assert!(pr.partition > 0, "partition must cost rounds: {pr:?}");
            // The sequential tally bounds the parallel-composed count.
            assert!(out.stats.sequential_rounds >= out.metrics.rounds);
        }
    }

    /// Satellite (fidelity regression): the distributed recursion's merged
    /// part must cover every vertex, leave no edge half-embedded, and the
    /// graph it covers must carry the same block structure (biconnected
    /// components, cut vertices) as the centralized rotation the driver
    /// hands out — pinning the documented stand-in at the `planar_lib::
    /// embed` call against silent drift. Both builders' top-level parts
    /// are checked.
    #[test]
    fn merged_part_covers_graph_and_matches_centralized_blocks() {
        for (g, scheduler) in [
            gen::grid(5, 5),
            gen::wheel_chain(3, 5),
            gen::random_outerplanar(18, 2),
        ]
        .into_iter()
        .flat_map(|g| {
            [
                (g.clone(), Scheduler::LevelSync),
                (g, Scheduler::Sequential),
            ]
        }) {
            let cfg = EmbedderConfig {
                scheduler,
                ..EmbedderConfig::default()
            };
            let mut ctx = ExecutionContext::new(&g, &cfg);
            let (_, nodes, _, _) = run_recursion(&g, &cfg, &mut ctx).unwrap();
            let part = nodes[0].part.as_ref().expect("root solved");
            // Full coverage, no half-embedded edges left at the top.
            assert_eq!(part.len(), g.vertex_count());
            for v in g.vertices() {
                assert!(part.contains(v));
            }
            assert!(crate::parts::half_embedded_edges(&g, &part.members).is_empty());
            // Block-structure agreement with the centralized embedding.
            let rotation = planar_lib::embed(&g).unwrap();
            let rg = rotation.to_graph();
            assert_eq!(rg, g);
            let a = BiconnectedDecomposition::compute(&g);
            let b = BiconnectedDecomposition::compute(&rg);
            assert_eq!(a.block_count(), b.block_count());
            let cuts = |bc: &BiconnectedDecomposition| -> Vec<VertexId> {
                g.vertices().filter(|&v| bc.is_cut_vertex(v)).collect()
            };
            assert_eq!(cuts(&a), cuts(&b));
        }
    }

    /// The generator suite of `tests/scheduler.rs`.
    fn scheduler_families() -> Vec<(&'static str, Graph)> {
        vec![
            ("path", gen::path(17)),
            ("cycle", gen::cycle(16)),
            ("star", gen::star(15)),
            ("random_tree", gen::random_tree(25, 3)),
            ("grid", gen::grid(5, 5)),
            ("tri_grid", gen::triangulated_grid(4, 4)),
            ("k4_subdivided", gen::k4_subdivided(4)),
            ("theta", gen::theta(3, 5)),
            ("wheel", gen::wheel(10)),
            ("fan", gen::fan(12)),
            ("outerplanar", gen::random_outerplanar(18, 2)),
            ("maximal_planar", gen::random_maximal_planar(18, 5)),
            ("random_planar", gen::random_planar(24, 40, 9)),
            ("wheel_chain", gen::wheel_chain(3, 5)),
        ]
    }

    /// The level-synchronous and depth-first builders produce the same
    /// arena node for node, keyed by subproblem root: level, partition,
    /// solved part, subtree cost, merge statistics, and children (by
    /// root), plus the same sequential tally. `tests/scheduler.rs` sees
    /// only what reaches the outcome.
    #[test]
    fn level_sync_and_depth_first_arenas_agree_node_for_node() {
        for kernel in [Kernel::Fast, Kernel::Reference] {
            for (name, g) in scheduler_families() {
                let build = |scheduler| {
                    let cfg = EmbedderConfig {
                        kernel,
                        scheduler,
                        ..EmbedderConfig::default()
                    };
                    let mut ctx = ExecutionContext::new(&g, &cfg);
                    let built = run_recursion(&g, &cfg, &mut ctx).unwrap();
                    (built, ctx.rounds_used(), ctx.phase_rounds())
                };
                let ((lt, lvl, lm, ls), l_rounds, l_phases) = build(Scheduler::LevelSync);
                let ((dt, dfs, dm, ds), d_rounds, d_phases) = build(Scheduler::Sequential);
                let label = format!("{name}/{kernel:?}");
                assert_eq!(lt.parent, dt.parent, "{label}: trees differ");
                assert_eq!(lvl.len(), dfs.len(), "{label}: arena sizes differ");
                let dfs_at: HashMap<VertexId, usize> =
                    dfs.iter().enumerate().map(|(i, nd)| (nd.root, i)).collect();
                let kids = |nodes: &[RecNode], nd: &RecNode| -> Vec<VertexId> {
                    nd.children.iter().map(|&c| nodes[c].root).collect()
                };
                for a in &lvl {
                    let b = &dfs[dfs_at[&a.root]];
                    let at = format!("{label} at {:?}", a.root);
                    assert_eq!(a.level, b.level, "{at}: level");
                    assert_eq!(a.partition, b.partition, "{at}: partition");
                    assert_eq!(a.part, b.part, "{at}: part");
                    assert_eq!(a.metrics, b.metrics, "{at}: metrics");
                    assert_eq!(a.merge_stats, b.merge_stats, "{at}: merge stats");
                    assert_eq!(kids(&lvl, a), kids(&dfs, b), "{at}: children");
                }
                assert_eq!(lm, dm, "{label}: metrics differ");
                assert_eq!(ls, ds, "{label}: stats differ");
                assert_eq!(l_rounds, d_rounds, "{label}: sequential tallies differ");
                assert_eq!(l_phases, d_phases, "{label}: phase tallies differ");
            }
        }
    }

    /// Tentpole: with `certify` set the outcome carries accepted
    /// certificates, the verifier cost is attributed to the `cert` phase,
    /// and the phase-sum invariant still holds.
    #[test]
    fn certified_embedding_carries_accepted_report() {
        for g in [
            gen::grid(5, 5),
            gen::wheel(10),
            gen::random_planar(20, 35, 7),
        ] {
            let cfg = EmbedderConfig {
                certify: true,
                ..EmbedderConfig::default()
            };
            let out = embed_distributed(&g, &cfg).unwrap();
            let cert = out.certification.as_ref().expect("certify was requested");
            assert!(cert.accepted());
            assert_eq!(cert.certificates.len(), g.vertex_count());
            assert!(
                out.stats.phase_rounds.cert > 0,
                "cert phase must be charged"
            );
            assert!(out.stats.phase_rounds.cert <= 2, "verifier must be O(1)");
            assert_eq!(out.stats.phase_rounds.sum(), out.stats.sequential_rounds);
            // Off by default: no certification artifacts, no cert rounds.
            let plain = run(&g);
            assert!(plain.certification.is_none());
            assert_eq!(plain.stats.phase_rounds.cert, 0);
        }
    }

    /// Certification composes with faults + reliable delivery: the
    /// verifier phase rides the same lossy network and still accepts.
    #[test]
    fn certified_embedding_survives_lossy_links() {
        let g = gen::grid(4, 4);
        let cfg = EmbedderConfig {
            sim: SimConfig {
                faults: FaultPlan::uniform(23, 0.05, 0.02, 0.05, 2),
                ..SimConfig::default()
            },
            reliability: Some(ReliableConfig::default()),
            certify: true,
            ..EmbedderConfig::default()
        };
        match embed_distributed(&g, &cfg) {
            Ok(out) => {
                let cert = out.certification.expect("certify was requested");
                assert!(cert.accepted());
            }
            Err(EmbedError::Degraded { .. }) => {
                // Losing a phase to chaos is legitimate; accepting an
                // uncertified result would not be.
            }
            other => panic!("unexpected outcome: {other:?}"),
        }
    }

    #[test]
    fn recursion_depth_is_logarithmic() {
        let g = gen::grid(8, 8);
        let out = run(&g);
        // Lemma 4.3: depth <= log_{3/2} 64 + O(1) ~ 10.3.
        assert!(out.stats.depth <= 13, "depth = {}", out.stats.depth);
    }

    #[test]
    fn rejects_nonplanar() {
        assert!(matches!(
            embed_distributed(&gen::complete(5), &EmbedderConfig::default()),
            Err(EmbedError::NonPlanar)
        ));
        // K3,3 passes the density bound; rejection must come from a merge.
        let k33 = Graph::from_edges(
            6,
            [
                (0, 3),
                (0, 4),
                (0, 5),
                (1, 3),
                (1, 4),
                (1, 5),
                (2, 3),
                (2, 4),
                (2, 5),
            ],
        )
        .unwrap();
        assert!(matches!(
            embed_distributed(&k33, &EmbedderConfig::default()),
            Err(EmbedError::NonPlanar)
        ));
    }

    #[test]
    fn rejects_disconnected_and_empty() {
        let g = Graph::from_edges(4, [(0, 1), (2, 3)]).unwrap();
        assert!(matches!(
            embed_distributed(&g, &EmbedderConfig::default()),
            Err(EmbedError::Disconnected)
        ));
        assert!(matches!(
            embed_distributed(&Graph::new(0), &EmbedderConfig::default()),
            Err(EmbedError::EmptyGraph)
        ));
    }

    #[test]
    fn single_vertex_network() {
        let out = run(&Graph::new(1));
        assert_eq!(out.rotation.vertex_count(), 1);
        assert_eq!(out.metrics.rounds, 0);
    }

    #[test]
    fn two_vertex_network() {
        let g = gen::path(2);
        let out = run(&g);
        assert!(out.rotation.is_planar_embedding());
    }

    /// Property (c) of the fault test plan: drop rate 1.0 on a cut edge
    /// must end in `Degraded`, not a hang — the watchdog and the reliable
    /// wrapper's give-up bound every phase.
    #[test]
    fn dead_cut_edge_degrades_instead_of_hanging() {
        let g = gen::path(6); // every edge is a cut edge
        let mut plan = FaultPlan {
            seed: 7,
            ..FaultPlan::default()
        };
        for (a, b) in [(2u32, 3u32), (3, 2)] {
            plan.link_overrides.push((
                (VertexId(a), VertexId(b)),
                LinkFaults {
                    drop: 1.0,
                    duplicate: 0.0,
                    delay: 0.0,
                    max_delay: 0,
                },
            ));
        }
        for reliability in [None, Some(ReliableConfig::default())] {
            let cfg = EmbedderConfig {
                sim: SimConfig {
                    faults: plan.clone(),
                    ..SimConfig::default()
                },
                reliability,
                ..EmbedderConfig::default()
            };
            match embed_distributed(&g, &cfg) {
                Err(EmbedError::Degraded {
                    surviving_nodes,
                    cause,
                    ..
                }) => {
                    assert_eq!(surviving_nodes, 6, "no crashes in this plan");
                    assert!(
                        matches!(
                            cause,
                            DegradedCause::PhaseIncomplete { .. } | DegradedCause::Sim(_)
                        ),
                        "unexpected cause: {cause:?}"
                    );
                }
                other => panic!("expected Degraded, got {other:?}"),
            }
        }
    }

    /// Crash-stop nodes degrade the run and are reported in
    /// `surviving_nodes`.
    #[test]
    fn crashed_node_degrades_with_survivor_count() {
        let g = gen::grid(4, 4);
        let mut plan = FaultPlan {
            seed: 11,
            ..FaultPlan::default()
        };
        plan.crashes.push((VertexId(5), 0));
        let cfg = EmbedderConfig {
            sim: SimConfig {
                faults: plan,
                ..SimConfig::default()
            },
            ..EmbedderConfig::default()
        };
        match embed_distributed(&g, &cfg) {
            Err(EmbedError::Degraded {
                surviving_nodes, ..
            }) => assert_eq!(surviving_nodes, 15),
            other => panic!("expected Degraded, got {other:?}"),
        }
    }

    /// Satellite regression: a watchdog firing mid-phase must still charge
    /// the rounds that phase burned. Pre-fix, the aborted phase returned no
    /// `Metrics`, so a run killed in its *first* phase reported
    /// `rounds_used: 0` after consuming the full watchdog budget.
    #[test]
    fn degraded_run_charges_watchdogged_phase_rounds() {
        let g = gen::grid(4, 4);
        let cfg = EmbedderConfig {
            sim: SimConfig {
                faults: FaultPlan::uniform(1, 0.01, 0.0, 0.01, 2),
                watchdog: Some(4), // far below what setup needs on a 4x4 grid
                ..SimConfig::default()
            },
            reliability: Some(ReliableConfig::default()),
            ..EmbedderConfig::default()
        };
        match embed_distributed(&g, &cfg) {
            Err(EmbedError::Degraded {
                rounds_used, cause, ..
            }) => {
                assert!(
                    matches!(
                        cause,
                        DegradedCause::Sim(congest_sim::SimError::WatchdogTimeout { limit: 4 })
                    ),
                    "unexpected cause: {cause:?}"
                );
                assert_eq!(
                    rounds_used, 4,
                    "the watchdogged phase ran 4 rounds before aborting; \
                     they must appear in rounds_used"
                );
            }
            other => panic!("expected a watchdogged Degraded run, got {other:?}"),
        }
    }

    /// A modestly lossy network with reliable delivery still embeds — and
    /// identically across repeat runs (replayability end to end).
    #[test]
    fn reliable_delivery_survives_lossy_links() {
        let g = gen::grid(4, 4);
        let cfg = EmbedderConfig {
            sim: SimConfig {
                faults: FaultPlan::uniform(23, 0.05, 0.02, 0.05, 2),
                ..SimConfig::default()
            },
            reliability: Some(ReliableConfig::default()),
            ..EmbedderConfig::default()
        };
        let a = embed_distributed(&g, &cfg);
        let b = embed_distributed(&g, &cfg);
        match (&a, &b) {
            (Ok(x), Ok(y)) => {
                assert!(x.rotation.is_planar_embedding());
                assert_eq!(x.rotation, y.rotation);
                assert_eq!(x.metrics, y.metrics);
                assert!(x.metrics.dropped > 0 || x.metrics.retransmissions > 0);
            }
            (Err(EmbedError::Degraded { .. }), Err(EmbedError::Degraded { .. })) => {
                // Degrading is acceptable; diverging is not.
            }
            other => panic!("runs diverged or failed untyped: {other:?}"),
        }
    }

    /// `FaultPlan::default()` leaves the embedder's outcome byte-identical
    /// (acceptance criterion: the fault subsystem costs nothing unused).
    #[test]
    fn default_fault_plan_changes_nothing() {
        let g = gen::triangulated_grid(4, 4);
        let plain = run(&g);
        let explicit = embed_distributed(
            &g,
            &EmbedderConfig {
                sim: SimConfig {
                    faults: FaultPlan::default(),
                    ..SimConfig::default()
                },
                ..EmbedderConfig::default()
            },
        )
        .unwrap();
        assert_eq!(plain.rotation, explicit.rotation);
        assert_eq!(plain.metrics, explicit.metrics);
        assert_eq!(plain.metrics.dropped, 0);
        assert_eq!(plain.metrics.retransmissions, 0);
    }

    #[test]
    fn rounds_scale_near_d_log_n_on_grids() {
        // Sanity check of the Theorem 1.1 shape (full sweep in the bench
        // harness): rounds / (D log n) stays within a modest constant.
        let g = gen::grid(6, 6);
        let out = run(&g);
        let d = 10.0; // grid diameter
        let logn = (36f64).log2();
        let ratio = out.metrics.rounds as f64 / (d * logn);
        assert!(
            ratio < 40.0,
            "rounds = {}, ratio = {ratio}",
            out.metrics.rounds
        );
    }
}
