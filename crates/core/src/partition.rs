//! The partitioning step of Section 4: split a BFS subtree `T_s` into the
//! coordinator path `P_0 = s..v` (where `v` is the 2/3-splitter found by a
//! distributed centroid walk) and the hanging subtree parts `P_1..P_k`.
//!
//! Two entry points compute the *same* partition at the same per-subtree
//! cost: [`partition_subtree`] runs one subtree per kernel invocation
//! (the depth-first builder's path), while [`partition_level`] batches
//! every same-level subtree of the recursion into one kernel invocation
//! over vertex-disjoint [`Instance`]s — per-instance metrics are
//! bit-identical to the one-at-a-time runs, and the kernel enforces that
//! sibling subtrees never exchange a message.

use std::collections::HashMap;

use congest_sim::protocols::{CentroidWalk, Downcast};
use congest_sim::routing::{schedule, Transfer};
use congest_sim::{Instance, Metrics, SimConfig};
use planar_graph::{Graph, VertexId};

use crate::error::EmbedError;
use crate::exec::ExecutionContext;
use crate::tree::GlobalTree;

/// A subproblem of the recursion: a full BFS subtree.
#[derive(Clone, Debug, PartialEq)]
pub struct SubProblem {
    /// Root of the subtree.
    pub root: VertexId,
    /// All vertices of the subtree.
    pub members: Vec<VertexId>,
}

/// The result of partitioning one subtree.
#[derive(Clone, Debug, PartialEq)]
pub struct Partition {
    /// The trivial path part `P_0`, ordered from the subtree root `s` to the
    /// splitter `v`.
    pub p0: Vec<VertexId>,
    /// The hanging parts `P_1..P_k`, each a full subtree.
    pub parts: Vec<SubProblem>,
    /// Kernel cost of computing the partition.
    pub metrics: Metrics,
}

/// Runs the distributed partition of the subtree rooted at `root`
/// through `ctx`: the two kernel protocols (centroid walk, label
/// downcast) run on the context's kernel with its reliability policy; the
/// routed part-root notification is charged analytically and needs no
/// protection.
///
/// Cost: a centroid walk (`O(depth)` rounds, measured by the kernel), one
/// round of part-root notification (charged via routed transfers) and a
/// label downcast into each hanging subtree (`O(depth)` rounds, measured).
///
/// # Errors
///
/// Propagates kernel/routing errors (which indicate internal bugs, not bad
/// inputs).
pub fn partition_subtree(
    ctx: &mut ExecutionContext<'_>,
    tree: &GlobalTree,
    root: VertexId,
) -> Result<Partition, EmbedError> {
    let g = ctx.graph();
    let members = tree.subtree_members(root);
    let total = tree.subtree_size[root.index()];
    debug_assert_eq!(members.len() as u64, total);
    let mut metrics = Metrics::new();

    // 1. Centroid walk (Lemma 4.2's splitter), message-level. Nodes outside
    //    the subtree participate as completely inert fillers, so this
    //    full-graph run costs exactly what an instance-scoped run over the
    //    members costs.
    let in_subtree: HashMap<VertexId, ()> = members.iter().map(|&v| (v, ())).collect();
    let walkers: Vec<CentroidWalk> = g
        .vertices()
        .map(|v| {
            if in_subtree.contains_key(&v) {
                centroid_walker(tree, v, total, root)
            } else {
                CentroidWalk::inactive()
            }
        })
        .collect();
    let out = ctx.run_phase(walkers)?;
    metrics.add(out.metrics);
    let centroid = members
        .iter()
        .copied()
        .find(|v| out.programs[v.index()].is_centroid())
        .ok_or_else(|| EmbedError::Internal("centroid walk did not terminate".into()))?;

    let spine = PartitionSpine::from_centroid(g, tree, root, centroid, ctx.sim(), &mut metrics)?;

    // 3. Part-label downcast inside every hanging subtree (all in parallel).
    let programs: Vec<Downcast> = g
        .vertices()
        .map(|v| {
            if in_subtree.contains_key(&v) {
                spine.downcaster(tree, v)
            } else {
                Downcast::new(&[], None)
            }
        })
        .collect();
    let out = ctx.run_phase(programs)?;
    metrics.add(out.metrics);

    Ok(spine.finish(tree, metrics))
}

/// Partitions every subtree in `roots` — the same-level subproblems of the
/// level-synchronous scheduler — in **two batched kernel invocations**
/// (one for all centroid walks, one for all label downcasts) instead of
/// two per subtree.
///
/// The subtrees must be vertex-disjoint (same-level subproblems of the
/// recursion always are); each becomes one [`Instance`] whose members run
/// exactly the programs the one-at-a-time path gives them, so the returned
/// partitions — splitter, `P_0`, parts, *and metrics* — are bit-identical
/// to calling [`partition_subtree`] once per root, and the kernel
/// rejects any message between sibling subtrees
/// ([`congest_sim::SimError::CrossInstanceSend`]).
///
/// # Errors
///
/// As [`partition_subtree`].
pub fn partition_level(
    ctx: &mut ExecutionContext<'_>,
    tree: &GlobalTree,
    roots: &[VertexId],
) -> Result<Vec<Partition>, EmbedError> {
    if roots.is_empty() {
        return Ok(Vec::new());
    }
    let g = ctx.graph();
    let memberships: Vec<Vec<VertexId>> = roots.iter().map(|&r| tree.subtree_members(r)).collect();

    // 1. All centroid walks, one shared round lattice.
    let walk_instances: Vec<Instance<CentroidWalk>> = roots
        .iter()
        .zip(&memberships)
        .map(|(&root, members)| {
            let total = tree.subtree_size[root.index()];
            debug_assert_eq!(members.len() as u64, total);
            Instance::new(
                members
                    .iter()
                    .map(|&v| (v, centroid_walker(tree, v, total, root)))
                    .collect(),
            )
        })
        .collect();
    let walk_out = ctx.run_phase_many(walk_instances)?;

    // 2. Per subtree: splitter, P_0, part roots, charged notification.
    let mut spines = Vec::with_capacity(roots.len());
    let mut metrics: Vec<Metrics> = Vec::with_capacity(roots.len());
    for (i, (&root, members)) in roots.iter().zip(&memberships).enumerate() {
        let inst = &walk_out.instances[i];
        let mut m = Metrics::new();
        m.add(inst.metrics);
        let centroid = members
            .iter()
            .copied()
            .find(|&v| inst.program(v).is_some_and(CentroidWalk::is_centroid))
            .ok_or_else(|| EmbedError::Internal("centroid walk did not terminate".into()))?;
        spines.push(PartitionSpine::from_centroid(
            g,
            tree,
            root,
            centroid,
            ctx.sim(),
            &mut m,
        )?);
        metrics.push(m);
    }

    // 3. All part-label downcasts, one shared round lattice.
    let down_instances: Vec<Instance<Downcast>> = spines
        .iter()
        .zip(&memberships)
        .map(|(spine, members)| {
            Instance::new(
                members
                    .iter()
                    .map(|&v| (v, spine.downcaster(tree, v)))
                    .collect(),
            )
        })
        .collect();
    let down_out = ctx.run_phase_many(down_instances)?;

    Ok(spines
        .into_iter()
        .zip(metrics)
        .zip(&down_out.instances)
        .map(|((spine, mut m), inst)| {
            m.add(inst.metrics);
            spine.finish(tree, m)
        })
        .collect())
}

/// The subtree's centroid-walk program: every member knows its tree
/// children's subtree sizes and the subtree total.
fn centroid_walker(tree: &GlobalTree, v: VertexId, total: u64, root: VertexId) -> CentroidWalk {
    let child_sizes: HashMap<VertexId, u64> = tree.children[v.index()]
        .iter()
        .map(|&c| (c, tree.subtree_size[c.index()]))
        .collect();
    CentroidWalk::new(child_sizes, total, v == root)
}

/// The host-side skeleton of one partition between the centroid walk and
/// the label downcast: `P_0`, the part roots, and the downcast labels.
/// Shared verbatim by the sequential and the batched path so both derive
/// the identical partition from the identical walk outcome.
struct PartitionSpine {
    p0: Vec<VertexId>,
    on_p0: HashMap<VertexId, ()>,
    part_roots: Vec<VertexId>,
    root_label: HashMap<VertexId, u32>,
}

impl PartitionSpine {
    /// Derives `P_0` and the part roots from the walk's splitter and
    /// charges the one-round part-root notification to `metrics`.
    fn from_centroid(
        g: &Graph,
        tree: &GlobalTree,
        root: VertexId,
        centroid: VertexId,
        cfg: &SimConfig,
        metrics: &mut Metrics,
    ) -> Result<Self, EmbedError> {
        // P_0 = path from s down to the splitter.
        let mut p0 = tree.path_to_ancestor(centroid, root);
        p0.reverse();
        let on_p0: HashMap<VertexId, ()> = p0.iter().map(|&v| (v, ())).collect();

        // Part roots: children of P_0 vertices that are not on P_0
        // themselves. One charged round: each P_0 vertex tells those
        // children.
        let mut part_roots: Vec<VertexId> = Vec::new();
        let mut notify: Vec<Transfer> = Vec::new();
        for &p in &p0 {
            for &c in &tree.children[p.index()] {
                if !on_p0.contains_key(&c) {
                    part_roots.push(c);
                    notify.push(Transfer::new(vec![p, c], 1));
                }
            }
        }
        metrics.add(schedule(g, &notify, cfg.budget_words)?);

        let root_label: HashMap<VertexId, u32> = part_roots.iter().map(|&r| (r, r.0)).collect();
        Ok(PartitionSpine {
            p0,
            on_p0,
            part_roots,
            root_label,
        })
    }

    /// The label-downcast program a subtree member runs: `P_0` vertices are
    /// inert, part roots inject their own id, everyone else relays to its
    /// tree children.
    fn downcaster(&self, tree: &GlobalTree, v: VertexId) -> Downcast {
        if self.on_p0.contains_key(&v) {
            Downcast::new(&[], None)
        } else {
            Downcast::new(&tree.children[v.index()], self.root_label.get(&v).copied())
        }
    }

    /// Materializes the hanging parts and stamps the phase attribution.
    fn finish(self, tree: &GlobalTree, mut metrics: Metrics) -> Partition {
        let parts: Vec<SubProblem> = self
            .part_roots
            .into_iter()
            .map(|r| SubProblem {
                root: r,
                members: tree.subtree_members(r),
            })
            .collect();
        // All rounds above belong to the partition phase.
        metrics.phase_rounds.partition = metrics.rounds;
        Partition {
            p0: self.p0,
            parts,
            metrics,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::setup::run_setup;
    use planar_lib::gen;

    fn setup_tree(g: &Graph) -> GlobalTree {
        run_setup(g, &SimConfig::default()).unwrap().0.tree
    }

    /// Partitions one subtree in a fresh context of its own.
    fn partition_alone(g: &Graph, tree: &GlobalTree, root: VertexId) -> Partition {
        partition_subtree(
            &mut ExecutionContext::with_sim(g, &SimConfig::default()),
            tree,
            root,
        )
        .unwrap()
    }

    #[test]
    fn partition_respects_lemma_4_2() {
        let g = gen::grid(6, 6);
        let tree = setup_tree(&g);
        let p = partition_alone(&g, &tree, tree.root);
        let n = g.vertex_count();
        // P_0 non-empty, starts at the root.
        assert_eq!(p.p0[0], tree.root);
        // Every hanging part has size <= 2n/3 (Lemma 4.2).
        for part in &p.parts {
            assert!(3 * part.members.len() <= 2 * n);
        }
        // Parts + P_0 partition the subtree.
        let covered: usize = p.p0.len() + p.parts.iter().map(|q| q.members.len()).sum::<usize>();
        assert_eq!(covered, n);
        // Part diameter (tree depth within part) < depth(T_s) (Lemma 4.2).
        let depth_ts = tree.tree_depth();
        for part in &p.parts {
            assert!(tree.subtree_depth(part.root) < depth_ts.max(1));
        }
    }

    #[test]
    fn partition_of_path_graph() {
        let g = gen::path(9); // root will be vertex 8
        let tree = setup_tree(&g);
        let p = partition_alone(&g, &tree, tree.root);
        // On a path rooted at an end, P_0 runs from 8 down to the first
        // splitter (vertex 6: below it hang 6 vertices <= 2*9/3 = 6, above 2).
        assert_eq!(p.p0, vec![VertexId(8), VertexId(7), VertexId(6)]);
        assert_eq!(p.parts.len(), 1);
        assert_eq!(p.parts[0].root, VertexId(5));
        assert_eq!(p.parts[0].members.len(), 6);
    }

    #[test]
    fn partition_of_star_is_center_plus_leaves() {
        let g = gen::star(7); // center 0, leaves 1..6; root = 6 (max id)
        let tree = setup_tree(&g);
        let p = partition_alone(&g, &tree, tree.root);
        // The walk goes 6 -> 0 (subtree below 0 has 6 > 2*7/3 = 4.67).
        assert_eq!(p.p0, vec![VertexId(6), VertexId(0)]);
        assert_eq!(p.parts.len(), 5);
        for part in &p.parts {
            assert_eq!(part.members.len(), 1);
        }
    }

    #[test]
    fn partition_cost_is_linear_in_depth() {
        let g = gen::path(64);
        let tree = setup_tree(&g);
        let p = partition_alone(&g, &tree, tree.root);
        // Centroid walk + notify + downcast: all O(depth) = O(n) on a path.
        assert!(p.metrics.rounds <= 3 * 64, "rounds = {}", p.metrics.rounds);
    }

    #[test]
    fn partition_single_vertex_subtree() {
        let g = gen::path(4);
        let tree = setup_tree(&g);
        // Leaf subtree (vertex 0): P_0 = [0], no parts.
        let p = partition_alone(&g, &tree, VertexId(0));
        assert_eq!(p.p0, vec![VertexId(0)]);
        assert!(p.parts.is_empty());
    }

    #[test]
    fn batched_level_matches_one_at_a_time() {
        let g = gen::grid(6, 6);
        let tree = setup_tree(&g);
        let cfg = SimConfig::default();
        // Partition the root, then its hanging parts both ways.
        let top = partition_alone(&g, &tree, tree.root);
        let roots: Vec<VertexId> = top
            .parts
            .iter()
            .filter(|p| p.members.len() > 1)
            .map(|p| p.root)
            .collect();
        assert!(roots.len() > 1, "grid should split into several parts");
        let mut ctx = ExecutionContext::with_sim(&g, &cfg);
        let batched = partition_level(&mut ctx, &tree, &roots).unwrap();
        for (i, &root) in roots.iter().enumerate() {
            let solo = partition_alone(&g, &tree, root);
            assert_eq!(batched[i].p0, solo.p0);
            assert_eq!(batched[i].metrics, solo.metrics);
            let b_parts: Vec<_> = batched[i].parts.iter().map(|p| p.root).collect();
            let s_parts: Vec<_> = solo.parts.iter().map(|p| p.root).collect();
            assert_eq!(b_parts, s_parts);
        }
    }
}
