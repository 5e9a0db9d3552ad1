//! Incremental re-embedding: resident embeddings that absorb deltas by
//! re-running only the dirty region of the recursion.
//!
//! A [`ResidentEmbedding`] keeps everything one full run produced: the
//! global BFS tree, the recursion arena (every subproblem's partition,
//! solved part, metrics, and merge statistics — see [`RecNode`]; either
//! scheduler's builder yields one), the rotation system, and the
//! certification artifacts, plus a warm [`KernelCache`] so successive
//! kernel runs reuse their mailbox arenas. [`ResidentEmbedding::reembed`]
//! then brings the resident state to a mutated graph at a fraction of a
//! full run's cost:
//!
//! 1. **Planning** (`crate::planner`): the delta is classified into a
//!    typed [`DeltaClass`] and the resident tree is repaired host-side —
//!    spliced, grafted, or pruned via the `tree.rs` machinery — under the
//!    *sticky-root* model: the tree stays rooted where the last full
//!    build elected, and the planner maintains it as exactly the BFS tree
//!    the deterministic kernel would build from that root (min-id parent
//!    rule, sorted children). The staged repair must equal a from-scratch
//!    host model of the mutated graph field-for-field before anything
//!    else runs; a miss falls back to the full path as
//!    [`FullCause::PlanRejected`]. No distributed setup re-runs on the
//!    incremental path at all.
//! 2. **Dirty-region rebuild**: the driver's depth-first builder — the
//!    one [`Scheduler::Sequential`](crate::Scheduler::Sequential) runs —
//!    rebuilds the arena top-down over the repaired tree, handed the old
//!    arena and the dirty flags. Every subproblem is the full subtree of its
//!    root, so a node whose subtree contains neither a tree-record change
//!    nor a delta endpoint is *adopted* wholesale — partition, part,
//!    metrics, merge statistics, and its entire sub-arena (renumbered on
//!    departures). A node whose subtree is only edge-dirty reuses its
//!    retained partition (partition content is a pure function of the
//!    tree) and re-runs just its merge; a tree-dirty node re-runs its
//!    partition through [`ExecutionContext`] too. The dirty nodes form
//!    the root-to-repair-site chains — `O(log n)` of the arena per delta.
//! 3. **Epilogue**: the driver's one epilogue runs, so the centralized
//!    fidelity stand-in ([`planar_lib::embed`]) produces the rotation
//!    exactly as the full driver does (see the fidelity note in
//!    `driver.rs`), and certification splices the resident certificate
//!    set against a scratch build ([`planar_cert::splice_certificates`],
//!    shift-aware on departures) before one distributed re-verification
//!    — so only changed certificates need re-distribution.
//!
//! **Bit-identity contract**: the rotation system, the certification
//! verdict, and the planarity outcome of `reembed` are bit-identical to a
//! full re-embedding of the mutated graph ([`embed_distributed`] with the
//! same configuration). The rotation comes from the same centralized
//! epilogue on the same graph; the planarity outcome agrees because the
//! density guard runs in both paths and the epilogue decides the rest;
//! the certification verdict agrees because a spliced certificate set is
//! element-wise equal to the scratch set. The sticky root cannot leak
//! into any of these: partitions and merges are valid for a BFS tree
//! from *any* fixed root, and all contract outputs are root-independent.
//! What incremental runs save is kernel simulation — setup and every
//! clean subtree — and metrics/round tallies are intentionally not part
//! of the contract.
//!
//! Deltas the planner cannot scope (classified [`DeltaClass::Fallback`])
//! take a full re-run under the configured scheduler, which also
//! re-elects the root (the sticky root is always the last full build's).
//! A rejected delta (the mutated graph is non-planar) leaves the resident
//! state *and* the resident graph untouched: all recomputation is staged
//! on the side and committed only after the epilogue accepts.
//!
//! [`embed_distributed`]: crate::embed_distributed

use congest_sim::KernelCache;
use planar_cert::SpliceStats;
use planar_graph::{Graph, RotationSystem, VertexId};

use crate::certify::Certification;
use crate::driver::{
    build_depth_first, check_coverage, density_guard, epilogue, run_recursion, OldArena, RecNode,
    SpliceFrom,
};
use crate::error::EmbedError;
use crate::exec::ExecutionContext;
use crate::planner::{self, DeltaClass, PlanAction, RepairPlan};
use crate::tree::GlobalTree;
use crate::{EmbedderConfig, Kernel};

/// Why a re-embedding took the full (non-incremental) path.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum FullCause {
    /// The first build of the resident embedding — nothing to reuse yet.
    InitialBuild,
    /// A vertex-set delta outside the planner's repairable shapes: a
    /// non-appended arrival, an anchor spread wider than two levels, a
    /// departure of the root or of an internal tree vertex, or a
    /// departure without the explicit hint
    /// ([`ResidentEmbedding::reembed_departure`]).
    VertexSetChanged,
    /// An edge delta whose BFS repair would cascade: a tree-edge deletion
    /// with no alternative parent, or an insert that shortens distances.
    TreeChanged,
    /// The staged repair failed its oracle-grade verification against the
    /// from-scratch host model. This never fires in a correct build; the
    /// DST churn oracle raises a violation when it does.
    PlanRejected,
}

/// Which path one [`ResidentEmbedding::reembed`] call took, with its
/// reuse accounting.
#[derive(Clone, Debug, PartialEq)]
pub enum ReembedPath {
    /// A full retained re-run (setup, all partitions, all merges).
    Full {
        /// Why the incremental analysis did not apply.
        cause: FullCause,
    },
    /// The incremental path: no distributed setup, adopted arena
    /// subtrees, and only the dirty chains re-run.
    Incremental {
        /// The class the delta was planned (and executed) as.
        class: DeltaClass,
        /// Number of distinct dirty vertices (tree-record changes plus
        /// delta endpoints) the planner scoped the rebuild to.
        dirty_region: usize,
        /// Partitions re-run because their subtree's tree records
        /// changed.
        recomputed_partitions: usize,
        /// Retained partitions reused (adopted or re-validated against an
        /// unchanged subtree).
        reused_partitions: usize,
        /// Merges re-run because their subtree contains a dirty vertex.
        recomputed_merges: usize,
        /// Internal nodes whose retained merge result was adopted.
        reused_merges: usize,
        /// Certificate splice accounting, when certification is on.
        splice: Option<SpliceStats>,
    },
}

/// The outcome report of one build or re-embed.
#[derive(Clone, Debug, PartialEq)]
pub struct ReembedReport {
    /// Which path ran and what it reused.
    pub path: ReembedPath,
    /// The class the planner predicted for the delta before executing
    /// anything ([`DeltaClass::Fallback`] for initial builds). Equals
    /// [`ReembedReport::taken`] unless the staged repair was rejected —
    /// the DST churn oracle flags any disagreement.
    pub planned: DeltaClass,
    /// Sequential kernel rounds the call consumed (re-run partitions and
    /// merges plus certification for incremental; the full tally
    /// otherwise).
    pub rounds: usize,
}

impl ReembedReport {
    /// `true` if this report came from the incremental path.
    pub fn is_incremental(&self) -> bool {
        matches!(self.path, ReembedPath::Incremental { .. })
    }

    /// The class the call actually executed: the planned class on the
    /// incremental path, [`DeltaClass::Fallback`] on the full path.
    pub fn taken(&self) -> DeltaClass {
        match &self.path {
            ReembedPath::Incremental { class, .. } => *class,
            ReembedPath::Full { .. } => DeltaClass::Fallback,
        }
    }

    /// Dirty-region size of the plan (0 on the full path).
    pub fn dirty_region(&self) -> usize {
        match &self.path {
            ReembedPath::Incremental { dirty_region, .. } => *dirty_region,
            ReembedPath::Full { .. } => 0,
        }
    }
}

/// A complete resident state computed on the side, committed only after
/// the epilogue accepts the graph — so a rejected delta leaves the
/// resident untouched on either path.
struct Staged {
    tree: GlobalTree,
    nodes: Vec<RecNode>,
    rotation: RotationSystem,
    certification: Option<Certification>,
    path: ReembedPath,
}

/// A long-lived embedding of one graph, retaining every artifact needed
/// to absorb deltas incrementally. See the module docs for the reuse
/// structure and the bit-identity contract.
pub struct ResidentEmbedding {
    graph: Graph,
    cfg: EmbedderConfig,
    tree: GlobalTree,
    nodes: Vec<RecNode>,
    rotation: RotationSystem,
    certification: Option<Certification>,
    cache: Option<KernelCache>,
}

impl std::fmt::Debug for ResidentEmbedding {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ResidentEmbedding")
            .field("vertices", &self.graph.vertex_count())
            .field("edges", &self.graph.edge_count())
            .field("arena_nodes", &self.nodes.len())
            .field("certified", &self.certification.is_some())
            .finish()
    }
}

impl ResidentEmbedding {
    /// Builds the resident embedding of `graph` — a full run under the
    /// configured scheduler, with the recursion arena retained (both
    /// builders yield one).
    ///
    /// Fault plans are rejected: a resident embedding models a long-lived
    /// service tenant, not a chaos run.
    ///
    /// # Errors
    ///
    /// As [`embed_distributed`](crate::embed_distributed) on `graph`,
    /// plus [`EmbedError::Internal`] for a faulted configuration.
    pub fn build(graph: Graph, cfg: &EmbedderConfig) -> Result<(Self, ReembedReport), EmbedError> {
        if !cfg.sim.faults.is_empty() {
            return Err(EmbedError::Internal(
                "resident embeddings require a fault-free configuration".into(),
            ));
        }
        let mut ctx = ExecutionContext::new(&graph, cfg);
        let staged = stage_full(&graph, cfg, &mut ctx, FullCause::InitialBuild)?;
        let report = ReembedReport {
            path: staged.path,
            planned: DeltaClass::Fallback,
            rounds: ctx.rounds_used(),
        };
        let cache = Some(ctx.into_kernel_cache());
        let resident = ResidentEmbedding {
            graph,
            cfg: cfg.clone(),
            tree: staged.tree,
            nodes: staged.nodes,
            rotation: staged.rotation,
            certification: staged.certification,
            cache,
        };
        Ok((resident, report))
    }

    /// The resident graph.
    pub fn graph(&self) -> &Graph {
        &self.graph
    }

    /// The resident rotation system.
    pub fn rotation(&self) -> &RotationSystem {
        &self.rotation
    }

    /// The resident certification artifacts (present iff the
    /// configuration certifies).
    pub fn certification(&self) -> Option<&Certification> {
        self.certification.as_ref()
    }

    /// `true` if `{u, v}` is an edge of the resident BFS tree. Deleting
    /// a *non*-tree edge preserves every BFS distance and parent choice,
    /// so such deltas are guaranteed `TreePreserving` — callers
    /// (benchmarks, tests) use this to construct incremental-friendly
    /// workloads without re-deriving the driver's deterministic tree.
    pub fn is_tree_edge(&self, u: VertexId, v: VertexId) -> bool {
        let tree_parent = |x: VertexId| self.tree.parent.get(x.index()).copied().flatten();
        tree_parent(u) == Some(v) || tree_parent(v) == Some(u)
    }

    /// The configuration the resident embedding runs under.
    pub fn config(&self) -> &EmbedderConfig {
        &self.cfg
    }

    /// The kernel executing resident runs.
    pub fn kernel(&self) -> Kernel {
        self.cfg.kernel
    }

    /// Heap bytes held warm by the resident kernel cache between deltas
    /// (zero while a re-embed is in flight and the cache is loaned to the
    /// execution context). The service layer reports this per tenant.
    pub fn kernel_memory_bytes(&self) -> usize {
        self.cache.as_ref().map_or(0, |c| c.memory_bytes())
    }

    /// Re-embeds onto `new_graph` (the resident graph after one or more
    /// deltas), incrementally when the delta planner finds a local repair
    /// and by a full retained re-run otherwise (recorded in the report).
    ///
    /// Edge deltas and appended-vertex arrivals are planned from the
    /// graph diff alone; a departure needs the explicit
    /// [`reembed_departure`](Self::reembed_departure) hint (the removed
    /// id is not always recoverable from the renumbered graph) and falls
    /// back to the full path here.
    ///
    /// On error — most importantly [`EmbedError::NonPlanar`] when the
    /// delta broke planarity — the resident state is unchanged: the old
    /// graph, rotation, arena, and certificates all stay resident, so the
    /// caller can reject the delta and continue serving.
    ///
    /// # Errors
    ///
    /// As [`embed_distributed`](crate::embed_distributed) on `new_graph`.
    pub fn reembed(&mut self, new_graph: Graph) -> Result<ReembedReport, EmbedError> {
        let old_n = self.graph.vertex_count();
        let new_n = new_graph.vertex_count();
        let plan = if new_n == old_n {
            planner::plan_edge_delta(&self.graph, &self.tree, &new_graph)
        } else if new_n == old_n + 1 {
            planner::plan_arrival(&self.graph, &self.tree, &new_graph)
        } else {
            planner::DeltaPlan {
                planned: DeltaClass::Fallback,
                action: PlanAction::Full(FullCause::VertexSetChanged),
            }
        };
        self.reembed_planned(new_graph, plan)
    }

    /// [`reembed`](Self::reembed) for a node departure: `removed` is the
    /// departed vertex's id *in the resident graph* (ids above it shift
    /// down by one in `new_graph`, as [`planar_graph::Graph::remove_vertex`]
    /// compacts). Leaf departures take the incremental
    /// [`DeltaClass::VertexSetChange`] path; root or internal departures
    /// fall back.
    ///
    /// # Errors
    ///
    /// As [`reembed`](Self::reembed).
    pub fn reembed_departure(
        &mut self,
        new_graph: Graph,
        removed: VertexId,
    ) -> Result<ReembedReport, EmbedError> {
        let plan = if self.graph.vertex_count() == new_graph.vertex_count() + 1 {
            planner::plan_departure(&self.graph, &self.tree, &new_graph, removed)
        } else {
            planner::DeltaPlan {
                planned: DeltaClass::Fallback,
                action: PlanAction::Full(FullCause::VertexSetChanged),
            }
        };
        self.reembed_planned(new_graph, plan)
    }

    /// Executes a planned delta: stages the incremental repair or the
    /// full fallback, and commits only on success. The full fallback's
    /// tree is rooted at the fresh election — the new sticky root.
    fn reembed_planned(
        &mut self,
        new_graph: Graph,
        plan: planner::DeltaPlan,
    ) -> Result<ReembedReport, EmbedError> {
        let cache = self.cache.take().unwrap_or_default();
        let mut ctx = ExecutionContext::with_kernel_cache(&new_graph, &self.cfg, cache);
        let staged = match plan.action {
            PlanAction::Full(cause) => stage_full(&new_graph, &self.cfg, &mut ctx, cause),
            PlanAction::Incremental(repair) => {
                self.stage_incremental(&new_graph, *repair, &mut ctx)
            }
        };
        let rounds = ctx.rounds_used();
        self.cache = Some(ctx.into_kernel_cache());
        let staged = staged?;
        self.graph = new_graph;
        self.tree = staged.tree;
        self.nodes = staged.nodes;
        self.rotation = staged.rotation;
        self.certification = staged.certification;
        Ok(ReembedReport {
            path: staged.path,
            planned: plan.planned,
            rounds,
        })
    }

    /// The staged incremental rebuild: density guard, dirty-region arena
    /// rebuild with adoption, epilogue, certificate splice — never
    /// touching the resident state.
    fn stage_incremental(
        &self,
        new_graph: &Graph,
        repair: RepairPlan,
        ctx: &mut ExecutionContext<'_>,
    ) -> Result<Staged, EmbedError> {
        density_guard(new_graph)?;

        // Propagate dirt up the repaired tree: a subtree is dirty iff it
        // contains a dirty vertex, so marking parents in decreasing-depth
        // order computes every subtree's flag in O(n).
        let n = new_graph.vertex_count();
        let tree = &repair.tree;
        let mut has_dirty = vec![false; n];
        let mut has_tree_dirty = vec![false; n];
        for &v in &repair.tree_dirty {
            has_dirty[v.index()] = true;
            has_tree_dirty[v.index()] = true;
        }
        for &v in &repair.edge_dirty {
            has_dirty[v.index()] = true;
        }
        let mut order: Vec<usize> = (0..n).collect();
        order.sort_unstable_by_key(|&i| std::cmp::Reverse(tree.depth[i]));
        for &i in &order {
            if let Some(p) = tree.parent[i] {
                if has_dirty[i] {
                    has_dirty[p.index()] = true;
                }
                if has_tree_dirty[i] {
                    has_tree_dirty[p.index()] = true;
                }
            }
        }

        let old = OldArena::new(&self.nodes, repair.removed, has_dirty, has_tree_dirty);
        let (nodes, counts) = build_depth_first(ctx, &self.cfg, tree, Some(old))?;
        check_coverage(&nodes, n)?;

        // The same epilogue, on the same graph, as the full driver's, so
        // the rotation is bit-identical by construction; the resident
        // certificates are spliced against the scratch build.
        let splice = SpliceFrom {
            old: self
                .certification
                .as_ref()
                .map_or(&[], |c| c.certificates.as_slice()),
            removed: repair.removed,
        };
        let (rotation, certification, splice) = epilogue(new_graph, &self.cfg, ctx, Some(splice))?;

        Ok(Staged {
            path: ReembedPath::Incremental {
                class: repair.class,
                dirty_region: repair.dirty_region(),
                recomputed_partitions: counts.recomputed_partitions,
                reused_partitions: counts.reused_partitions,
                recomputed_merges: counts.recomputed_merges,
                reused_merges: counts.reused_merges,
                splice,
            },
            tree: repair.tree,
            nodes,
            rotation,
            certification,
        })
    }
}

/// One full run: the scheduled recursion with its arena kept, then the
/// shared epilogue.
fn stage_full(
    graph: &Graph,
    cfg: &EmbedderConfig,
    ctx: &mut ExecutionContext<'_>,
    cause: FullCause,
) -> Result<Staged, EmbedError> {
    let (tree, nodes, _, _) = run_recursion(graph, cfg, ctx)?;
    let (rotation, certification, _) = epilogue(graph, cfg, ctx, None)?;
    Ok(Staged {
        tree,
        nodes,
        rotation,
        certification,
        path: ReembedPath::Full { cause },
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::embed_distributed;
    use planar_lib::gen;

    fn cfg(certify: bool) -> EmbedderConfig {
        EmbedderConfig {
            certify,
            ..EmbedderConfig::default()
        }
    }

    /// A tree edge whose child has another parent candidate one level up,
    /// so deleting it is `TreeRepairable`.
    fn repairable_tree_edge(g: &Graph, tree: &GlobalTree) -> planar_graph::EdgeId {
        g.edges()
            .find(|e| {
                let c = if tree.parent[e.lo().index()] == Some(e.hi()) {
                    e.lo()
                } else if tree.parent[e.hi().index()] == Some(e.lo()) {
                    e.hi()
                } else {
                    return false;
                };
                g.neighbors(c).iter().any(|&w| {
                    tree.depth[w.index()] + 1 == tree.depth[c.index()]
                        && Some(w) != tree.parent[c.index()]
                })
            })
            .expect("the graph has a repairable tree edge")
    }

    /// The resident build equals a one-shot embed on the same graph.
    #[test]
    fn build_matches_embed_distributed() {
        let g = gen::grid(4, 5);
        let (resident, report) = ResidentEmbedding::build(g.clone(), &cfg(true)).unwrap();
        let full = embed_distributed(&g, &cfg(true)).unwrap();
        assert_eq!(resident.rotation(), &full.rotation);
        assert_eq!(
            resident.certification().map(|c| c.accepted()),
            full.certification.as_ref().map(|c| c.accepted())
        );
        assert!(matches!(
            report.path,
            ReembedPath::Full {
                cause: FullCause::InitialBuild
            }
        ));
    }

    /// A non-tree edge delta takes the `TreePreserving` incremental path
    /// and matches the full oracle bit for bit (rotation, certification
    /// verdict).
    #[test]
    fn incremental_edge_delta_matches_oracle() {
        let g = gen::grid(8, 8);
        let (mut resident, _) = ResidentEmbedding::build(g.clone(), &cfg(true)).unwrap();
        // Delete a non-tree edge: removing it leaves every tree path (and
        // hence every BFS distance and deterministic parent choice)
        // intact, so the tree survives and the delta is `TreePreserving`.
        let mut mutated = g.clone();
        let victim = g
            .edges()
            .find(|e| {
                resident.tree.parent[e.lo().index()] != Some(e.hi())
                    && resident.tree.parent[e.hi().index()] != Some(e.lo())
            })
            .expect("a grid has non-tree edges");
        mutated.remove_edge(victim.lo(), victim.hi()).unwrap();

        let report = resident.reembed(mutated.clone()).unwrap();
        assert!(report.is_incremental(), "path: {:?}", report.path);
        assert_eq!(report.planned, DeltaClass::TreePreserving);
        assert_eq!(report.taken(), DeltaClass::TreePreserving);
        if let ReembedPath::Incremental {
            recomputed_partitions,
            recomputed_merges,
            reused_merges,
            splice,
            dirty_region,
            ..
        } = &report.path
        {
            assert_eq!(*recomputed_partitions, 0, "the tree was preserved");
            assert!(*recomputed_merges > 0);
            assert!(
                reused_merges > recomputed_merges,
                "most merges must be reused ({reused_merges} reused, {recomputed_merges} re-run)"
            );
            assert_eq!(*dirty_region, 2);
            assert!(splice.as_ref().unwrap().reused > 0);
        }
        let oracle = embed_distributed(&mutated, &cfg(true)).unwrap();
        assert_eq!(resident.rotation(), &oracle.rotation);
        assert_eq!(
            resident.certification().unwrap().report.accepted,
            oracle.certification.unwrap().report.accepted
        );
        assert_eq!(resident.graph(), &mutated);
    }

    /// Deleting a repairable tree edge splices the tree and re-runs only
    /// the dirty chains — no full fallback, bit-identical to the oracle.
    #[test]
    fn tree_edge_delta_repairs_the_dirty_region() {
        let g = gen::grid(6, 6);
        let (mut resident, _) = ResidentEmbedding::build(g.clone(), &cfg(true)).unwrap();
        let victim = repairable_tree_edge(&g, &resident.tree);
        let mut mutated = g.clone();
        mutated.remove_edge(victim.lo(), victim.hi()).unwrap();

        let report = resident.reembed(mutated.clone()).unwrap();
        assert_eq!(
            report.taken(),
            DeltaClass::TreeRepairable,
            "path: {:?}",
            report.path
        );
        assert_eq!(report.planned, DeltaClass::TreeRepairable);
        if let ReembedPath::Incremental {
            recomputed_partitions,
            reused_partitions,
            ..
        } = &report.path
        {
            assert!(*recomputed_partitions > 0, "the dirty chain re-partitions");
            assert!(
                reused_partitions > recomputed_partitions,
                "most partitions must be reused"
            );
        }
        let oracle = embed_distributed(&mutated, &cfg(true)).unwrap();
        assert_eq!(resident.rotation(), &oracle.rotation);
        assert_eq!(resident.graph(), &mutated);
        // The resident can keep absorbing deltas after a repair.
        let report = resident.reembed(resident.graph().clone()).unwrap();
        assert!(report.is_incremental());
    }

    /// An insert between same-depth endpoints takes the incremental path
    /// — this was a guaranteed full fallback before the delta planner.
    #[test]
    fn insert_takes_the_incremental_path() {
        let g = gen::grid(6, 6);
        let (mut resident, _) = ResidentEmbedding::build(g.clone(), &cfg(true)).unwrap();
        let tree = &resident.tree;
        let mut pair = None;
        'outer: for u in g.vertices() {
            for v in g.vertices() {
                if u < v && !g.has_edge(u, v) && tree.depth[u.index()] == tree.depth[v.index()] {
                    let mut m = g.clone();
                    m.add_edge(u, v).unwrap();
                    if planar_lib::embed(&m).is_ok() {
                        pair = Some((u, v));
                        break 'outer;
                    }
                }
            }
        }
        let (u, v) = pair.expect("a grid has a planar same-depth insert");
        let mut mutated = g.clone();
        mutated.add_edge(u, v).unwrap();
        let report = resident.reembed(mutated.clone()).unwrap();
        assert!(report.is_incremental(), "path: {:?}", report.path);
        assert_eq!(report.taken(), DeltaClass::TreePreserving);
        let oracle = embed_distributed(&mutated, &cfg(true)).unwrap();
        assert_eq!(resident.rotation(), &oracle.rotation);
    }

    /// A pendant arrival grafts into the resident tree and takes the
    /// incremental `VertexSetChange` path, bit-identical to the oracle.
    #[test]
    fn pendant_arrival_takes_the_incremental_path() {
        let g = gen::wheel(10);
        let (mut resident, _) = ResidentEmbedding::build(g.clone(), &cfg(true)).unwrap();
        let mut mutated = g.clone();
        let fresh = mutated.add_vertex();
        mutated.add_edge(fresh, VertexId(0)).unwrap();
        let report = resident.reembed(mutated.clone()).unwrap();
        assert_eq!(
            report.taken(),
            DeltaClass::VertexSetChange,
            "path: {:?}",
            report.path
        );
        let oracle = embed_distributed(&mutated, &cfg(true)).unwrap();
        assert_eq!(resident.rotation(), &oracle.rotation);
        assert_eq!(
            resident.certification().unwrap().report.accepted,
            oracle.certification.unwrap().report.accepted
        );
    }

    /// A leaf departure (with the explicit hint) renumbers the resident
    /// arena and takes the incremental path; the certificates splice
    /// shift-aware.
    #[test]
    fn leaf_departure_takes_the_incremental_path() {
        let g = gen::grid(5, 5);
        let (mut resident, _) = ResidentEmbedding::build(g.clone(), &cfg(true)).unwrap();
        let tree = &resident.tree;
        let leaf = g
            .vertices()
            .find(|&v| {
                tree.children[v.index()].is_empty() && v != tree.root && {
                    let mut m = g.clone();
                    m.remove_vertex(v).unwrap();
                    m.is_connected()
                }
            })
            .expect("a grid tree has removable leaves");
        let mut mutated = g.clone();
        mutated.remove_vertex(leaf).unwrap();
        let report = resident.reembed_departure(mutated.clone(), leaf).unwrap();
        assert_eq!(
            report.taken(),
            DeltaClass::VertexSetChange,
            "path: {:?}",
            report.path
        );
        let oracle = embed_distributed(&mutated, &cfg(true)).unwrap();
        assert_eq!(resident.rotation(), &oracle.rotation);
        assert_eq!(resident.graph(), &mutated);
        // And the renumbered resident keeps serving.
        let mut again = mutated.clone();
        let fresh = again.add_vertex();
        again.add_edge(fresh, VertexId(0)).unwrap();
        let report = resident.reembed(again.clone()).unwrap();
        assert_eq!(report.taken(), DeltaClass::VertexSetChange);
        let oracle = embed_distributed(&again, &cfg(true)).unwrap();
        assert_eq!(resident.rotation(), &oracle.rotation);
    }

    /// A departure without the hint falls back to the full path (the
    /// removed id is not recoverable from the renumbered graph alone).
    #[test]
    fn unhinted_departure_falls_back_to_full() {
        let g = gen::grid(4, 4);
        let (mut resident, _) = ResidentEmbedding::build(g.clone(), &cfg(false)).unwrap();
        let tree = &resident.tree;
        let leaf = g
            .vertices()
            .find(|&v| {
                tree.children[v.index()].is_empty() && v != tree.root && {
                    let mut m = g.clone();
                    m.remove_vertex(v).unwrap();
                    m.is_connected()
                }
            })
            .unwrap();
        let mut mutated = g.clone();
        mutated.remove_vertex(leaf).unwrap();
        let report = resident.reembed(mutated.clone()).unwrap();
        assert!(matches!(
            report.path,
            ReembedPath::Full {
                cause: FullCause::VertexSetChanged
            }
        ));
        let oracle = embed_distributed(&mutated, &EmbedderConfig::default()).unwrap();
        assert_eq!(resident.rotation(), &oracle.rotation);
    }

    /// A tree-edge deletion with no alternative parent cascades and falls
    /// back as `TreeChanged`, still matching the oracle.
    #[test]
    fn cascading_tree_edge_delta_falls_back_to_full() {
        let g = gen::cycle(7);
        let (mut resident, _) = ResidentEmbedding::build(g.clone(), &cfg(false)).unwrap();
        // In a cycle rooted at the max id, vertex 1 hangs under 0 and has
        // no other up-neighbor: deleting {0, 1} re-routes its whole path.
        let mut mutated = g.clone();
        mutated.remove_edge(VertexId(0), VertexId(1)).unwrap();
        let report = resident.reembed(mutated.clone()).unwrap();
        assert!(matches!(
            report.path,
            ReembedPath::Full {
                cause: FullCause::TreeChanged
            }
        ));
        assert_eq!(report.planned, DeltaClass::Fallback);
        assert_eq!(report.taken(), DeltaClass::Fallback);
        let oracle = embed_distributed(&mutated, &EmbedderConfig::default()).unwrap();
        assert_eq!(resident.rotation(), &oracle.rotation);
    }

    /// A planarity-breaking delta is rejected with the resident state
    /// fully intact (graph, rotation, certificates).
    #[test]
    fn rejected_delta_leaves_resident_untouched() {
        let g = gen::grid(4, 4);
        let (mut resident, _) = ResidentEmbedding::build(g.clone(), &cfg(true)).unwrap();
        let before_rotation = resident.rotation().clone();
        // K5 on the first five vertices makes the graph non-planar.
        let mut mutated = g.clone();
        for u in 0..5u32 {
            for v in (u + 1)..5 {
                if !mutated.has_edge(VertexId(u), VertexId(v)) {
                    mutated.add_edge(VertexId(u), VertexId(v)).unwrap();
                }
            }
        }
        let err = resident.reembed(mutated).unwrap_err();
        assert!(matches!(err, EmbedError::NonPlanar));
        assert_eq!(resident.graph(), &g);
        assert_eq!(resident.rotation(), &before_rotation);
        // And the resident can still serve further deltas.
        let mut ok = g.clone();
        ok.add_edge(VertexId(0), VertexId(5)).unwrap_or(());
        // (edge may exist in the grid; reembed on the unchanged graph is
        // also a valid no-op delta)
        let report = resident.reembed(ok).unwrap();
        assert!(report.rounds > 0);
    }

    /// A planarity-breaking *incremental-classed* delta is also rejected
    /// with the resident untouched: the staging covers the
    /// repaired-tree path, not just the full fallback.
    #[test]
    fn rejected_incremental_delta_leaves_resident_untouched() {
        // A maximal planar graph: any insert breaks the density bound.
        let g = gen::random_maximal_planar(16, 5);
        let (mut resident, _) = ResidentEmbedding::build(g.clone(), &cfg(true)).unwrap();
        let before_rotation = resident.rotation().clone();
        let tree = &resident.tree;
        let pair = {
            let mut found = None;
            'outer: for u in g.vertices() {
                for v in g.vertices() {
                    if u < v && !g.has_edge(u, v) && tree.depth[u.index()] == tree.depth[v.index()]
                    {
                        found = Some((u, v));
                        break 'outer;
                    }
                }
            }
            found
        };
        if let Some((u, v)) = pair {
            let mut mutated = g.clone();
            mutated.add_edge(u, v).unwrap();
            let err = resident.reembed(mutated).unwrap_err();
            assert!(matches!(err, EmbedError::NonPlanar));
            assert_eq!(resident.graph(), &g);
            assert_eq!(resident.rotation(), &before_rotation);
        }
    }

    /// A resident built under the depth-first scheduler keeps it (the
    /// build no longer forces level-sync) and absorbs a tree-preserving
    /// delete and then a tree-repairable delete on the incremental path,
    /// each bit-identical to a full embed under the same configuration.
    #[test]
    fn sequential_resident_absorbs_deltas_incrementally() {
        let seq = EmbedderConfig {
            scheduler: crate::Scheduler::Sequential,
            ..cfg(true)
        };
        let g = gen::grid(6, 6);
        let (mut resident, _) = ResidentEmbedding::build(g.clone(), &seq).unwrap();
        assert_eq!(resident.config().scheduler, crate::Scheduler::Sequential);
        assert_eq!(
            resident.rotation(),
            &embed_distributed(&g, &seq).unwrap().rotation
        );

        // A non-tree edge: the BFS tree survives.
        let victim = g
            .edges()
            .find(|e| !resident.is_tree_edge(e.lo(), e.hi()))
            .expect("a grid has non-tree edges");
        let mut mutated = g.clone();
        mutated.remove_edge(victim.lo(), victim.hi()).unwrap();
        let report = resident.reembed(mutated.clone()).unwrap();
        assert_eq!(
            report.taken(),
            DeltaClass::TreePreserving,
            "{:?}",
            report.path
        );
        let oracle = embed_distributed(&mutated, &seq).unwrap();
        assert_eq!(resident.rotation(), &oracle.rotation);
        assert_eq!(resident.certification(), oracle.certification.as_ref());

        // A tree edge whose child has another parent candidate.
        let g = mutated;
        let victim = repairable_tree_edge(&g, &resident.tree);
        let mut mutated = g.clone();
        mutated.remove_edge(victim.lo(), victim.hi()).unwrap();
        let report = resident.reembed(mutated.clone()).unwrap();
        assert_eq!(
            report.taken(),
            DeltaClass::TreeRepairable,
            "{:?}",
            report.path
        );
        let oracle = embed_distributed(&mutated, &seq).unwrap();
        assert_eq!(resident.rotation(), &oracle.rotation);
        assert_eq!(resident.certification(), oracle.certification.as_ref());
        assert_eq!(resident.graph(), &mutated);
    }

    /// Faulted configurations are rejected up front.
    #[test]
    fn faulted_config_is_rejected() {
        let mut c = cfg(false);
        c.sim.faults = congest_sim::FaultPlan::uniform(3, 0.1, 0.0, 0.0, 1);
        assert!(matches!(
            ResidentEmbedding::build(gen::path(4), &c),
            Err(EmbedError::Internal(_))
        ));
    }
}
