//! Parts (the units of the paper's partition framework, Section 3) and
//! their invariants.
//!
//! A *part* is a connected set of vertices; an edge is *embedded* when both
//! endpoints are in the same part and *half-embedded* otherwise. The safety
//! property (Definition 3.1) guarantees that in any planar embedding the
//! half-embedded edges of a part all lie in one face; [`verify_part`] checks
//! exactly that consequence by computing a pinned embedding of the part.

use std::collections::{HashMap, HashSet};

use planar_graph::biconnected::BiconnectedDecomposition;
use planar_graph::{Graph, VertexId};
use planar_lib::embed_pinned;

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
/// Figure 1): the part's induced subgraph is planar-embeddable with all
/// attachment vertices on one common face, and the part is connected.
///
/// # Errors
///
/// * [`EmbedError::Internal`] if the part is disconnected or the pinned
///   embedding fails despite the graph being planar (a violation of the
///   framework's safety reasoning);
/// * [`EmbedError::NonPlanar`] if the part's subgraph is itself non-planar.
pub fn verify_part(g: &Graph, members: &[VertexId]) -> Result<(), EmbedError> {
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
    embed_pinned(&sub, &pins)?;
    Ok(())
}

/// Checks Definition 3.1 directly on a full partition: every non-trivial
/// part (one whose induced subgraph is not a tree) leaves `V \ P_i`
/// connected.
pub fn partition_is_safe(g: &Graph, parts: &[Vec<VertexId>]) -> bool {
    let n = g.vertex_count();
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
    debug_assert!(
        parts.iter().map(Vec::len).sum::<usize>() <= n,
        "parts must be disjoint"
    );
    true
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
mod tests {
    use super::*;
    use planar_lib::gen;

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
}
