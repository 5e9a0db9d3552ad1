//! Parts (the units of the paper's partition framework, Section 3) and
//! their invariants.
//!
//! A *part* is a connected set of vertices; an edge is *embedded* when both
//! endpoints are in the same part and *half-embedded* otherwise. The safety
//! property (Definition 3.1) guarantees that in any planar embedding the
//! half-embedded edges of a part all lie in one face.
//!
//! Two checks run under `check_invariants`, both linear:
//!
//! * [`part_safety`] judges Definition 3.1 for a set of pairwise disjoint
//!   parts (all partitions of one recursion level) with one articulation
//!   pass over a quotient graph, `O(n + m)` per level;
//! * [`verify_part`] checks the co-facial consequence on one merged part by
//!   a planarity test of its induced subgraph plus an apex over its
//!   attachment vertices, `O(vol · log |part|)` for the part's volume.

use std::collections::{HashMap, HashSet};

use planar_graph::biconnected::BiconnectedDecomposition;
use planar_graph::{Graph, VertexId};

use crate::error::EmbedError;

/// A part of the evolving partition, as tracked by the merge driver.
#[derive(Clone, Debug, PartialEq)]
pub struct PartState {
    /// Members, sorted ascending.
    pub members: Vec<VertexId>,
    /// The part leader (maximum-id member), the endpoint of all summary
    /// transfers.
    pub leader: VertexId,
}

impl PartState {
    /// Creates a part from an arbitrary member list (sorted and deduped).
    pub fn new(mut members: Vec<VertexId>) -> Self {
        members.sort();
        members.dedup();
        let leader = *members.last().expect("parts are non-empty");
        PartState { members, leader }
    }

    /// Number of members.
    pub fn len(&self) -> usize {
        self.members.len()
    }

    /// `true` if the part has no members (never happens for valid parts).
    pub fn is_empty(&self) -> bool {
        self.members.is_empty()
    }

    /// Membership test (binary search).
    pub fn contains(&self, v: VertexId) -> bool {
        self.members.binary_search(&v).is_ok()
    }

    /// Merges several parts into one.
    pub fn union(parts: &[&PartState]) -> PartState {
        let mut members = Vec::new();
        for p in parts {
            members.extend_from_slice(&p.members);
        }
        PartState::new(members)
    }
}

/// The half-embedded edges of a part: pairs `(inside, outside)`.
pub fn half_embedded_edges(g: &Graph, members: &[VertexId]) -> Vec<(VertexId, VertexId)> {
    let set: HashSet<VertexId> = members.iter().copied().collect();
    let mut out = Vec::new();
    for &v in members {
        for &w in g.neighbors(v) {
            if !set.contains(&w) {
                out.push((v, w));
            }
        }
    }
    out.sort();
    out
}

/// The attachment vertices of a part: members incident to at least one
/// half-embedded edge, sorted.
pub fn attachments(g: &Graph, members: &[VertexId]) -> Vec<VertexId> {
    let mut att: Vec<VertexId> = half_embedded_edges(g, members)
        .into_iter()
        .map(|(v, _)| v)
        .collect();
    att.sort();
    att.dedup();
    att
}

/// Checks the consequence of the safety property (Definition 3.1 /
/// Figure 1): the part is connected, and its induced subgraph is
/// planar-embeddable with all attachment vertices on one common face —
/// that is, the induced subgraph plus an apex adjacent to every attachment
/// is planar (the apex trick of [`planar_lib::embed_pinned`]).
///
/// Builds that augmented graph in one pass over the members, looking
/// neighbors up by binary search, and runs the left-right planarity test
/// on it without building a rotation system. Members in ascending order
/// (as in [`PartState::members`]) are used as given; any other order is
/// sorted into a copy first.
///
/// # Errors
///
/// * [`EmbedError::Graph`] if a member is out of range or listed twice;
/// * [`EmbedError::Internal`] if the part is disconnected;
/// * [`EmbedError::NonPlanar`] if the part's subgraph is non-planar or no
///   embedding of it has all attachments on one face (for a safe partition
///   of a planar network that cannot happen, so either is a planarity
///   witness for the whole network).
pub fn verify_part(g: &Graph, members: &[VertexId]) -> Result<(), EmbedError> {
    let sorted: Vec<VertexId>;
    let members = if members.windows(2).all(|w| w[0] < w[1]) {
        members
    } else {
        // Report duplicates and out-of-range members exactly as
        // `induced_subgraph` does.
        g.induced_subgraph(members)?;
        sorted = {
            let mut s = members.to_vec();
            s.sort_unstable();
            s
        };
        &sorted
    };
    let n = g.vertex_count();
    if let Some(&v) = members.get(members.partition_point(|v| v.index() < n)) {
        g.check_vertex(v)?;
    }

    let k = members.len();
    let apex = VertexId::from_index(k);
    let mut rows: Vec<Vec<VertexId>> = Vec::with_capacity(k + 1);
    let mut apex_row: Vec<VertexId> = Vec::new();
    for (i, &v) in members.iter().enumerate() {
        let mut row = Vec::with_capacity(g.degree(v) + 1);
        let mut attached = false;
        for &w in g.neighbors(v) {
            match members.binary_search(&w) {
                Ok(j) => row.push(VertexId::from_index(j)),
                Err(_) => attached = true,
            }
        }
        if attached {
            row.push(apex);
            apex_row.push(VertexId::from_index(i));
        }
        rows.push(row);
    }
    if !rows_connected(&rows, apex) {
        return Err(EmbedError::Internal(format!(
            "part with {k} members is not connected"
        )));
    }
    if !apex_row.is_empty() {
        rows.push(apex_row);
    }
    let aug = Graph::from_adjacency(rows).expect("induced rows plus an apex form a simple graph");
    if !planar_lib::is_planar(&aug) {
        return Err(EmbedError::NonPlanar);
    }
    Ok(())
}

/// `true` if the graph on `rows` (local indices, every entry equal to
/// `apex` ignored) is connected; the empty graph counts as connected.
fn rows_connected(rows: &[Vec<VertexId>], apex: VertexId) -> bool {
    if rows.is_empty() {
        return true;
    }
    let mut seen = vec![false; rows.len()];
    let mut stack = vec![0usize];
    seen[0] = true;
    let mut reached = 1;
    while let Some(x) = stack.pop() {
        for &w in &rows[x] {
            if w != apex && !seen[w.index()] {
                seen[w.index()] = true;
                reached += 1;
                stack.push(w.index());
            }
        }
    }
    reached == rows.len()
}

/// No part / no quotient node.
const NONE: u32 = u32::MAX;

/// Definition 3.1 verdicts for pairwise disjoint parts: `safe[i]` is
/// `true` iff `parts[i]` is trivial (fewer induced edges than vertices, as
/// in a forest) or `G − parts[i]` is connected (an empty complement counts
/// as connected).
///
/// One pass for all parts: every induced-connected component of every part
/// is contracted to one node of a quotient graph `H` (a vertex outside all
/// parts is a node of its own), and one iterative lowpoint (articulation
/// point) pass over `H` counts, for every node `x`, the components of
/// `H − x`. Contracting connected vertex sets preserves component counts,
/// so for a part that induces one connected component `x`, `G − P` is
/// connected iff `H − x` has at most one component. A non-trivial part
/// that induces several components (or none) is judged by a direct BFS of
/// its complement. `O(n + m)` plus that BFS, independent of the number of
/// parts; when every part is trivial, only the parts' own adjacency is
/// read.
///
/// # Panics
///
/// Panics if a vertex is out of range, or — when some part is
/// non-trivial — appears twice across (or within) `parts`.
pub fn part_safety(g: &Graph, parts: &[&[VertexId]]) -> Vec<bool> {
    // The depth-first builder judges one partition per call, often of
    // forest parts only; this exit keeps such a call proportional to the
    // parts' volume. `all` stops at the first non-trivial part.
    if parts.iter().all(|part| is_trivial(g, part)) {
        return vec![true; parts.len()];
    }
    let n = g.vertex_count();
    let mut part_of = vec![NONE; n];
    for (i, part) in parts.iter().enumerate() {
        for &v in *part {
            assert!(
                part_of[v.index()] == NONE,
                "parts must be pairwise disjoint ({v} listed twice)"
            );
            part_of[v.index()] = i as u32;
        }
    }

    // Quotient nodes: one per induced component of a part, one per
    // unpartitioned vertex. Count each part's components and induced edges
    // on the way.
    let mut node = vec![NONE; n];
    let mut components = vec![0u32; parts.len()];
    let mut induced_edges = vec![0usize; parts.len()];
    let mut nodes = 0u32;
    let mut stack: Vec<VertexId> = Vec::new();
    for s in g.vertices() {
        if node[s.index()] != NONE {
            continue;
        }
        node[s.index()] = nodes;
        let p = part_of[s.index()];
        if p != NONE {
            components[p as usize] += 1;
            stack.push(s);
            while let Some(x) = stack.pop() {
                for &w in g.neighbors(x) {
                    if part_of[w.index()] == p {
                        induced_edges[p as usize] += usize::from(x < w);
                        if node[w.index()] == NONE {
                            node[w.index()] = nodes;
                            stack.push(w);
                        }
                    }
                }
            }
        }
        nodes += 1;
    }

    let mut safe: Vec<bool> = parts
        .iter()
        .zip(&induced_edges)
        .map(|(part, &e)| e < part.len())
        .collect();
    let contracted: Vec<usize> = (0..parts.len())
        .filter(|&i| !safe[i] && components[i] == 1)
        .collect();
    for i in 0..parts.len() {
        if !safe[i] && components[i] != 1 {
            safe[i] = complement_connected(g, &part_of, i as u32);
        }
    }
    if contracted.is_empty() {
        return safe;
    }

    let cuts = QuotientCuts::compute(g, &node, nodes as usize);
    for i in contracted {
        let x = node[parts[i][0].index()] as usize;
        safe[i] = cuts.components_without(x) <= 1;
    }
    safe
}

/// `true` if `part` induces fewer edges than it has vertices, read from
/// the part's own adjacency (a sorted copy for membership).
fn is_trivial(g: &Graph, part: &[VertexId]) -> bool {
    let mut sorted = part.to_vec();
    sorted.sort_unstable();
    let induced_edges: usize = part
        .iter()
        .map(|&v| {
            let nbrs = g.neighbors(v).iter();
            nbrs.filter(|&&w| v < w && sorted.binary_search(&w).is_ok())
                .count()
        })
        .sum();
    induced_edges < part.len()
}

/// `true` if the vertices outside part `p` induce a connected (or empty)
/// subgraph of `g`: a direct BFS of the complement.
fn complement_connected(g: &Graph, part_of: &[u32], p: u32) -> bool {
    let outside = |v: VertexId| part_of[v.index()] != p;
    let Some(start) = g.vertices().find(|&v| outside(v)) else {
        return true;
    };
    let mut seen = vec![false; g.vertex_count()];
    seen[start.index()] = true;
    let mut stack = vec![start];
    let mut reached = 1;
    while let Some(x) = stack.pop() {
        for &w in g.neighbors(x) {
            if outside(w) && !seen[w.index()] {
                seen[w.index()] = true;
                reached += 1;
                stack.push(w);
            }
        }
    }
    reached == part_of.iter().filter(|&&q| q != p).count()
}

/// Per-node cut counts of the quotient graph `H`, from one iterative
/// lowpoint pass.
struct QuotientCuts {
    /// Connected components of `H`.
    components: usize,
    /// DFS roots of `H`.
    root: Vec<bool>,
    /// Children `c` of each node `x` in the DFS forest with
    /// `low[c] >= disc[x]`: the pieces below `x` that removing `x`
    /// separates (every child, for a root).
    cut_children: Vec<u32>,
}

impl QuotientCuts {
    /// Builds `H` (node `node[v]` per vertex `v`; edges inside a node
    /// dropped, parallel edges kept — they change no cut) in CSR form and
    /// runs the lowpoint DFS.
    fn compute(g: &Graph, node: &[u32], nodes: usize) -> Self {
        let mut off = vec![0u32; nodes + 1];
        for v in g.vertices() {
            let x = node[v.index()];
            let out = g.neighbors(v).iter().filter(|w| node[w.index()] != x);
            off[x as usize + 1] += out.count() as u32;
        }
        for x in 0..nodes {
            off[x + 1] += off[x];
        }
        let mut fill = off[..nodes].to_vec();
        let mut adj = vec![0u32; off[nodes] as usize];
        for v in g.vertices() {
            let x = node[v.index()];
            for &w in g.neighbors(v) {
                let y = node[w.index()];
                if y != x {
                    adj[fill[x as usize] as usize] = y;
                    fill[x as usize] += 1;
                }
            }
        }

        // Lowpoints may use the tree edge to the parent: that only lowers
        // `low[c]` to `disc[parent]`, which `low[c] >= disc[x]` still
        // counts as a cut.
        let mut disc = vec![NONE; nodes];
        let mut low = vec![0u32; nodes];
        let mut root = vec![false; nodes];
        let mut cut_children = vec![0u32; nodes];
        let mut pos = fill; // reused as the DFS edge cursor
        pos.copy_from_slice(&off[..nodes]);
        let mut components = 0;
        let mut time = 0u32;
        let mut stack: Vec<u32> = Vec::new();
        for r in 0..nodes {
            if disc[r] != NONE {
                continue;
            }
            components += 1;
            root[r] = true;
            disc[r] = time;
            low[r] = time;
            time += 1;
            stack.push(r as u32);
            while let Some(&x) = stack.last() {
                let xi = x as usize;
                if pos[xi] < off[xi + 1] {
                    let y = adj[pos[xi] as usize] as usize;
                    pos[xi] += 1;
                    if disc[y] == NONE {
                        disc[y] = time;
                        low[y] = time;
                        time += 1;
                        stack.push(y as u32);
                    } else {
                        low[xi] = low[xi].min(disc[y]);
                    }
                } else {
                    stack.pop();
                    if let Some(&p) = stack.last() {
                        let p = p as usize;
                        low[p] = low[p].min(low[xi]);
                        cut_children[p] += u32::from(low[xi] >= disc[p]);
                    }
                }
            }
        }
        QuotientCuts {
            components,
            root,
            cut_children,
        }
    }

    /// Connected components of `H − x`.
    fn components_without(&self, x: usize) -> usize {
        let below = self.cut_children[x] as usize;
        if self.root[x] {
            self.components - 1 + below
        } else {
            self.components + below
        }
    }
}

/// Checks Definition 3.1 directly on a full partition: every non-trivial
/// part (one whose induced subgraph is not a forest) leaves `V \ P_i`
/// connected. One [`part_safety`] pass; the parts must be pairwise
/// disjoint.
pub fn partition_is_safe(g: &Graph, parts: &[Vec<VertexId>]) -> bool {
    let parts: Vec<&[VertexId]> = parts.iter().map(Vec::as_slice).collect();
    part_safety(g, &parts).into_iter().all(|s| s)
}

/// The charged size, in `O(log n)` words, of a part's interface summary
/// restricted to a set of relevant attachment vertices: constant overhead,
/// two words per boundary block (its id), and one word per relevant
/// attachment slot.
///
/// This is the compressed-PQ-tree accounting of DESIGN.md §1: by
/// Observation 3.2 the interface is determined by the block decomposition
/// and per-block fixed orders, so a summary listing each relevant block and
/// the order of relevant attachments within it suffices.
pub fn summary_words(g: &Graph, members: &[VertexId], relevant: &[VertexId]) -> usize {
    let (sub, map) = g.induced_subgraph(members).expect("valid members");
    let reverse: HashMap<VertexId, VertexId> = map
        .iter()
        .enumerate()
        .map(|(i, &v)| (v, VertexId::from_index(i)))
        .collect();
    let bc = BiconnectedDecomposition::compute(&sub);
    let mut relevant_blocks: HashSet<usize> = HashSet::new();
    let mut slots = 0usize;
    for &r in relevant {
        if let Some(&local) = reverse.get(&r) {
            slots += 1;
            for &b in bc.blocks_of_vertex(local) {
                relevant_blocks.insert(b);
            }
        }
    }
    4 + 2 * relevant_blocks.len() + slots
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;
    use planar_lib::gen;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    /// The direct Definition 3.1 check, part by part: a hash set per
    /// part, and one BFS of the whole-graph complement of every
    /// non-trivial part (`O(parts · (n + m))`). The oracle for
    /// [`part_safety`].
    pub(crate) fn partition_is_safe_oracle(g: &Graph, parts: &[Vec<VertexId>]) -> bool {
        for part in parts {
            let set: HashSet<VertexId> = part.iter().copied().collect();
            // Trivial part (induces a forest)? Count induced edges.
            let induced_edges = part
                .iter()
                .map(|&v| {
                    g.neighbors(v)
                        .iter()
                        .filter(|&&w| v < w && set.contains(&w))
                        .count()
                })
                .sum::<usize>();
            if induced_edges < part.len() {
                continue; // a tree/forest: trivial, no constraint
            }
            // Non-trivial: complement must be connected (or empty).
            let complement: Vec<VertexId> = g.vertices().filter(|v| !set.contains(v)).collect();
            if complement.is_empty() {
                continue;
            }
            let (csub, _) = g
                .induced_subgraph(&complement)
                .expect("complement vertices are valid");
            if !csub.is_connected() {
                return false;
            }
        }
        true
    }

    /// The pipeline [`verify_part`] replaced: induced subgraph, attachment
    /// pins through a hash map, and a pinned embedding that is discarded.
    fn verify_part_oracle(g: &Graph, members: &[VertexId]) -> Result<(), EmbedError> {
        let (sub, map) = g.induced_subgraph(members)?;
        if !sub.is_connected() {
            return Err(EmbedError::Internal(format!(
                "part with {} members is not connected",
                members.len()
            )));
        }
        let reverse: HashMap<VertexId, VertexId> = map
            .iter()
            .enumerate()
            .map(|(i, &v)| (v, VertexId::from_index(i)))
            .collect();
        let pins: Vec<VertexId> = attachments(g, members).iter().map(|a| reverse[a]).collect();
        planar_lib::embed_pinned(&sub, &pins)?;
        Ok(())
    }

    /// The disjoint union of `a` and `b` (`b` renumbered after `a`).
    fn disjoint_union(a: &Graph, b: &Graph) -> Graph {
        let shift = a.vertex_count() as u32;
        let edges = a.edges().map(|e| (e.lo().0, e.hi().0));
        let shifted = b.edges().map(|e| (e.lo().0 + shift, e.hi().0 + shift));
        Graph::from_edges(a.vertex_count() + b.vertex_count(), edges.chain(shifted)).unwrap()
    }

    /// A connected vertex set grown by randomized search from `seed`, at
    /// most `size` vertices, avoiding `taken` (which it then marks).
    fn grow(
        g: &Graph,
        rng: &mut StdRng,
        seed: VertexId,
        size: usize,
        taken: &mut [bool],
    ) -> Vec<VertexId> {
        let mut set = Vec::new();
        let mut frontier = vec![seed];
        while set.len() < size && !frontier.is_empty() {
            let v = frontier.swap_remove(rng.gen_range(0..frontier.len()));
            if taken[v.index()] {
                continue;
            }
            taken[v.index()] = true;
            set.push(v);
            frontier.extend(g.neighbors(v).iter().filter(|w| !taken[w.index()]));
        }
        set.sort();
        set
    }

    /// Random pairwise disjoint parts of `g`: grown connected sets (often
    /// non-trivial), random scattered sets (often several induced
    /// components, often forests), or — one time in eight — a single part
    /// holding every vertex (an empty complement). Some vertices stay
    /// unpartitioned.
    fn random_parts(g: &Graph, rng: &mut StdRng) -> Vec<Vec<VertexId>> {
        let n = g.vertex_count();
        if rng.gen_range(0..8) == 0 {
            return vec![g.vertices().collect()];
        }
        let mut taken = vec![false; n];
        let mut parts = Vec::new();
        for _ in 0..rng.gen_range(1..6) {
            let part = if rng.gen_range(0..3) > 0 {
                let seed = VertexId::from_index(rng.gen_range(0..n));
                let size = rng.gen_range(1..n.max(2));
                grow(g, rng, seed, size, &mut taken)
            } else {
                let mut part: Vec<VertexId> = g
                    .vertices()
                    .filter(|v| !taken[v.index()] && rng.gen_range(0..4) == 0)
                    .collect();
                part.iter().for_each(|v| taken[v.index()] = true);
                part.sort();
                part
            };
            if !part.is_empty() {
                parts.push(part);
            }
        }
        parts
    }

    /// Hosts for the differential tests: planar, non-planar (dense and
    /// sparse) and disconnected.
    fn hosts() -> Vec<(&'static str, Graph)> {
        let mut k33 = Graph::new(6);
        for a in 0..3 {
            for b in 3..6 {
                k33.add_edge(VertexId(a), VertexId(b)).unwrap();
            }
        }
        vec![
            ("grid", gen::grid(5, 6)),
            ("tri_grid", gen::triangulated_grid(5, 5)),
            ("maximal_planar", gen::random_maximal_planar(30, 3)),
            ("random_planar", gen::random_planar(32, 50, 4)),
            ("theta", gen::theta(4, 4)),
            ("wheel_chain", gen::wheel_chain(3, 5)),
            ("random_tree", gen::random_tree(20, 6)),
            ("k5", gen::complete(5)),
            ("k7", gen::complete(7)),
            ("k33", k33.clone()),
            ("k33+grid", disjoint_union(&k33, &gen::grid(3, 3))),
            (
                "disconnected",
                disjoint_union(&gen::wheel(8), &gen::cycle(6)),
            ),
        ]
    }

    #[test]
    fn part_state_basics() {
        let p = PartState::new(vec![VertexId(3), VertexId(1), VertexId(3)]);
        assert_eq!(p.members, vec![VertexId(1), VertexId(3)]);
        assert_eq!(p.leader, VertexId(3));
        assert!(p.contains(VertexId(1)));
        assert!(!p.contains(VertexId(2)));
        assert_eq!(p.len(), 2);
    }

    #[test]
    fn union_of_parts() {
        let a = PartState::new(vec![VertexId(0), VertexId(1)]);
        let b = PartState::new(vec![VertexId(5), VertexId(2)]);
        let u = PartState::union(&[&a, &b]);
        assert_eq!(u.len(), 4);
        assert_eq!(u.leader, VertexId(5));
    }

    #[test]
    fn half_embedded_and_attachments() {
        let g = gen::cycle(6);
        let members = vec![VertexId(0), VertexId(1), VertexId(2)];
        let he = half_embedded_edges(&g, &members);
        assert_eq!(
            he,
            vec![(VertexId(0), VertexId(5)), (VertexId(2), VertexId(3))]
        );
        assert_eq!(attachments(&g, &members), vec![VertexId(0), VertexId(2)]);
    }

    #[test]
    fn verify_part_accepts_cycle_arc() {
        let g = gen::cycle(8);
        let members: Vec<VertexId> = (0..4).map(VertexId).collect();
        verify_part(&g, &members).unwrap();
    }

    #[test]
    fn verify_part_rejects_disconnected() {
        let g = gen::cycle(8);
        let members = vec![VertexId(0), VertexId(4)];
        assert!(matches!(
            verify_part(&g, &members),
            Err(EmbedError::Internal(_))
        ));
    }

    #[test]
    fn safety_of_paper_partition_vs_unsafe() {
        // Figure 6 analogue on a theta graph with hubs 0,1 and four 4-edge
        // paths (interiors {2,3,4}, {5,6,7}, {8,9,10}, {11,12,13}).
        let g = gen::theta(4, 4);
        // Each verdict agrees with the per-part oracle.
        let partition_is_safe = |g: &Graph, parts: &[Vec<VertexId>]| {
            let safe = partition_is_safe(g, parts);
            assert_eq!(safe, partition_is_safe_oracle(g, parts), "{parts:?}");
            safe
        };
        // A single path interior is a tree: trivial, hence always safe.
        let path1: Vec<VertexId> = vec![VertexId(2), VertexId(3), VertexId(4)];
        assert!(partition_is_safe(&g, std::slice::from_ref(&path1)));
        // Both hubs + one path interior induce a *tree* too (hubs are not
        // adjacent), so even though removing it disconnects the rest, the
        // part is trivial and Definition 3.1 does not constrain it.
        let tree_part: Vec<VertexId> = vec![
            VertexId(0),
            VertexId(1),
            VertexId(2),
            VertexId(3),
            VertexId(4),
        ];
        assert!(partition_is_safe(&g, &[tree_part]));
        // Both hubs + two path interiors induce a cycle: non-trivial, and
        // removing it separates the remaining two path interiors -> unsafe.
        let cyc: Vec<VertexId> = vec![
            VertexId(0),
            VertexId(1),
            VertexId(2),
            VertexId(3),
            VertexId(4),
            VertexId(5),
            VertexId(6),
            VertexId(7),
        ];
        assert!(!partition_is_safe(&g, std::slice::from_ref(&cyc)));
        // With only three paths total the complement is a single path
        // interior, which is connected -> safe.
        let g3 = gen::theta(3, 4);
        assert!(partition_is_safe(&g3, &[cyc]));
    }

    #[test]
    fn summary_words_scale_with_relevant_set() {
        let g = gen::grid(3, 3);
        let members: Vec<VertexId> = (0..6).map(VertexId).collect(); // two grid rows
        let att = attachments(&g, &members);
        let full = summary_words(&g, &members, &att);
        let partial = summary_words(&g, &members, &att[..1]);
        assert!(full > partial);
        assert!(partial >= 4);
    }

    #[test]
    fn part_safety_matches_the_per_part_oracle_on_random_parts() {
        let mut rng = StdRng::seed_from_u64(0x5afe);
        let mut checked = [0usize; 2];
        for (name, g) in hosts() {
            for trial in 0..60 {
                let parts = random_parts(&g, &mut rng);
                let slices: Vec<&[VertexId]> = parts.iter().map(Vec::as_slice).collect();
                let verdicts = part_safety(&g, &slices);
                for (part, &safe) in parts.iter().zip(&verdicts) {
                    let expect = partition_is_safe_oracle(&g, std::slice::from_ref(part));
                    assert_eq!(safe, expect, "{name} trial {trial}: part {part:?}");
                    checked[usize::from(safe)] += 1;
                }
                assert_eq!(
                    partition_is_safe(&g, &parts),
                    partition_is_safe_oracle(&g, &parts),
                    "{name} trial {trial}: {parts:?}"
                );
            }
        }
        // Both verdicts occur often enough to mean something.
        assert!(checked[0] > 50 && checked[1] > 50, "verdicts {checked:?}");
    }

    #[test]
    fn part_safety_covers_every_branch() {
        let v = |ids: &[u32]| ids.iter().copied().map(VertexId).collect::<Vec<_>>();
        let judge = |g: &Graph, parts: &[Vec<VertexId>]| {
            let slices: Vec<&[VertexId]> = parts.iter().map(Vec::as_slice).collect();
            let got = part_safety(g, &slices);
            for (part, &safe) in parts.iter().zip(&got) {
                assert_eq!(
                    safe,
                    partition_is_safe_oracle(g, std::slice::from_ref(part))
                );
            }
            got
        };
        let g = gen::theta(4, 4);
        // A cycle through both hubs separates the other two paths; a path
        // interior is a tree; vertex 13 alone is trivial.
        let cycle = v(&[0, 1, 2, 3, 4, 5, 6, 7]);
        assert_eq!(
            judge(&g, &[cycle.clone(), v(&[8, 9, 10]), v(&[13])]),
            vec![false, true, true]
        );
        // Whole-graph part: empty complement.
        assert_eq!(judge(&g, &[(0..14).map(VertexId).collect()]), vec![true]);
        // The triviality test counts edges against vertices: the cycle
        // plus a far vertex has fewer edges than vertices, so it counts as
        // trivial although removing it disconnects the rest.
        assert_eq!(judge(&g, &[v(&[0, 1, 2, 3, 4, 5, 6, 7, 12])]), vec![true]);
        // An empty part is non-trivial in that sense (0 edges, 0
        // vertices); its complement is the whole graph, connected here.
        assert_eq!(judge(&g, &[Vec::new(), cycle]), vec![true, false]);
        // No parts at all.
        assert!(judge(&g, &[]).is_empty());
        // A non-trivial part with two induced components (two opposite
        // squares of a 4x4 grid): judged by the direct complement BFS,
        // which finds the two remaining squares apart.
        let grid = gen::grid(4, 4);
        assert_eq!(
            judge(&grid, &[v(&[0, 1, 4, 5, 10, 11, 14, 15]), v(&[3])]),
            vec![false, true]
        );
        // One square alone leaves the rest of the grid connected.
        assert_eq!(judge(&grid, &[v(&[0, 1, 4, 5])]), vec![true]);
    }

    #[test]
    #[should_panic(expected = "pairwise disjoint")]
    fn part_safety_rejects_overlapping_parts() {
        // The whole cycle is non-trivial, so the quotient pass runs.
        let g = gen::cycle(6);
        let cycle: Vec<VertexId> = g.vertices().collect();
        part_safety(&g, &[&cycle, &[VertexId(1)]]);
    }

    #[test]
    fn verify_part_matches_the_pinned_embedding_pipeline() {
        let mut rng = StdRng::seed_from_u64(0xfa11);
        let mut seen: HashSet<String> = HashSet::new();
        for (name, g) in hosts() {
            let n = g.vertex_count();
            for trial in 0..80 {
                let members: Vec<VertexId> = if trial % 4 == 3 {
                    // Scattered: often disconnected.
                    let mut m: Vec<VertexId> =
                        g.vertices().filter(|_| rng.gen_range(0..3) == 0).collect();
                    m.sort();
                    m
                } else {
                    let seed = VertexId::from_index(rng.gen_range(0..n));
                    let size = rng.gen_range(1..=n);
                    grow(&g, &mut rng, seed, size, &mut vec![false; n])
                };
                let got = verify_part(&g, &members);
                let expect = verify_part_oracle(&g, &members);
                assert_eq!(
                    std::mem::discriminant(&got.as_ref().map(|_| ())),
                    std::mem::discriminant(&expect.as_ref().map(|_| ())),
                    "{name} trial {trial}: {members:?}: {got:?} vs {expect:?}"
                );
                if let (Err(a), Err(b)) = (&got, &expect) {
                    assert_eq!(std::mem::discriminant(a), std::mem::discriminant(b));
                }
                seen.insert(format!("{:?}", got.map_err(|e| std::mem::discriminant(&e))));
            }
        }
        // Ok, NonPlanar and Internal all occurred.
        assert_eq!(seen.len(), 3, "outcomes {seen:?}");
    }

    #[test]
    fn verify_part_fixed_cases_match_the_pipeline() {
        let v = |ids: &[u32]| ids.iter().copied().map(VertexId).collect::<Vec<_>>();
        let k5 = gen::complete(5);
        let mut k33 = Graph::new(6);
        for a in 0..3 {
            for b in 3..6 {
                k33.add_edge(VertexId(a), VertexId(b)).unwrap();
            }
        }
        let cases: Vec<(Graph, Vec<VertexId>, &str)> = vec![
            // K5 itself, and a K4 part whose four attachments cannot share
            // a face (K4 plus apex = K5).
            (k5.clone(), (0..5).map(VertexId).collect(), "NonPlanar"),
            (k5, v(&[0, 1, 2, 3]), "NonPlanar"),
            // K3,3 as a whole part; K3,3 minus a vertex, whose three
            // attachments re-create K3,3 with the apex; K3,3 minus two
            // vertices (a star, pinned at its three leaves).
            (k33.clone(), (0..6).map(VertexId).collect(), "NonPlanar"),
            (k33.clone(), v(&[0, 1, 2, 3, 4]), "NonPlanar"),
            (k33, v(&[0, 1, 2, 3]), "Ok"),
            // A wheel's rim with the hub outside: every rim vertex pinned,
            // all on the hub's face.
            (gen::wheel(7), (1..7).map(VertexId).collect(), "Ok"),
            // Disconnected part.
            (gen::cycle(8), v(&[0, 4]), "Internal"),
            // Unsorted, duplicate and out-of-range members.
            (gen::cycle(8), v(&[3, 1, 2]), "Ok"),
            (gen::cycle(8), v(&[3, 1, 3]), "Graph"),
            (gen::cycle(8), v(&[1, 2, 9]), "Graph"),
            (gen::cycle(8), Vec::new(), "Ok"),
        ];
        for (g, members, expect) in cases {
            let got = verify_part(&g, &members);
            let old = verify_part_oracle(&g, &members);
            let kind = |r: &Result<(), EmbedError>| match r {
                Ok(()) => "Ok",
                Err(EmbedError::NonPlanar) => "NonPlanar",
                Err(EmbedError::Internal(_)) => "Internal",
                Err(EmbedError::Graph(_)) => "Graph",
                Err(_) => "other",
            };
            assert_eq!(kind(&got), expect, "{members:?}: {got:?}");
            assert_eq!(kind(&old), expect, "{members:?}: oracle {old:?}");
            if let (Err(EmbedError::Graph(a)), Err(EmbedError::Graph(b))) = (&got, &old) {
                assert_eq!(a, b, "{members:?}");
            }
        }
    }
}
