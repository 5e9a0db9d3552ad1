//! Whole-graph planarity testing and embedding, built on the linear-time
//! left-right embedder, plus constrained ("pinned outer face") embedding.

use planar_graph::{Graph, RotationSystem, VertexId};

use crate::lr::{embed_lr, test_lr};
use crate::PlanarityError;

/// Computes a combinatorial planar embedding of `g` (any simple graph,
/// connected or not).
///
/// Runs the left-right planarity test on the whole graph in `O(n + m)` time
/// (after the `m <= 3n - 6` density guard). The result depends only on the
/// graph, so two calls on one graph return identical rotations.
///
/// # Errors
///
/// Returns [`PlanarityError::TooManyEdges`] or [`PlanarityError::NonPlanar`]
/// when `g` is not planar.
///
/// # Example
///
/// ```
/// use planar_graph::Graph;
/// use planar_lib::embed;
///
/// # fn main() -> Result<(), planar_lib::PlanarityError> {
/// let g = Graph::from_edges(4, [(0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3)])?;
/// let rs = embed(&g)?;
/// assert!(rs.is_planar_embedding());
/// # Ok(())
/// # }
/// ```
pub fn embed(g: &Graph) -> Result<RotationSystem, PlanarityError> {
    density_guard(g)?;
    let rot = embed_lr(g)?;
    Ok(RotationSystem::new(g, rot).expect("the left-right embedder yields valid rotations"))
}

/// Returns `true` if `g` is planar.
///
/// Runs the same density guard and left-right test as [`embed`] but
/// builds no rotation system.
pub fn is_planar(g: &Graph) -> bool {
    density_guard(g).is_ok() && test_lr(g).is_ok()
}

/// The planar edge bound `m <= 3n - 6` (for `n >= 3`).
fn density_guard(g: &Graph) -> Result<(), PlanarityError> {
    let n = g.vertex_count();
    let m = g.edge_count();
    if n >= 3 && m > 3 * n - 6 {
        return Err(PlanarityError::TooManyEdges { n, m });
    }
    Ok(())
}

/// A planar embedding together with the cyclic order in which a set of
/// pinned vertices appears on one common face.
#[derive(Clone, Debug)]
pub struct PinnedEmbedding {
    /// The embedding of the (un-augmented) input graph.
    pub rotation: RotationSystem,
    /// The pinned vertices in the cyclic order they appear around the
    /// common face. Contains each pinned vertex exactly once.
    pub pin_order: Vec<VertexId>,
}

/// Embeds `g` such that all `pins` lie on one common face.
///
/// This is the primitive the distributed merge solver relies on: a part's
/// half-embedded edges must all reach the outer face (the consequence of the
/// safety property, Definition 3.1). Implemented by the classical apex
/// trick: add a virtual vertex adjacent to every pin, embed, then delete it —
/// the faces around the apex merge into a single face containing all pins.
///
/// # Errors
///
/// * [`PlanarityError::NonPlanar`] / [`PlanarityError::TooManyEdges`] if `g`
///   itself is not planar;
/// * [`PlanarityError::UnsatisfiableConstraint`] if `g` is planar but no
///   planar embedding has all pins on one face.
///
/// # Example
///
/// ```
/// use planar_graph::{Graph, VertexId};
/// use planar_lib::embed_pinned;
///
/// # fn main() -> Result<(), planar_lib::PlanarityError> {
/// let g = Graph::from_edges(4, [(0, 1), (1, 2), (2, 3), (3, 0)])?;
/// let pinned = embed_pinned(&g, &[VertexId(0), VertexId(2)])?;
/// assert!(pinned.rotation.is_planar_embedding());
/// assert_eq!(pinned.pin_order.len(), 2);
/// # Ok(())
/// # }
/// ```
pub fn embed_pinned(g: &Graph, pins: &[VertexId]) -> Result<PinnedEmbedding, PlanarityError> {
    let n = g.vertex_count();
    let mut unique_pins: Vec<VertexId> = pins.to_vec();
    unique_pins.sort();
    unique_pins.dedup();
    for &p in &unique_pins {
        g.check_vertex(p)?;
    }
    if unique_pins.is_empty() {
        let rotation = embed(g)?;
        return Ok(PinnedEmbedding {
            rotation,
            pin_order: Vec::new(),
        });
    }
    // Augment with an apex vertex adjacent to every pin.
    let apex = VertexId::from_index(n);
    let mut aug = Graph::new(n + 1);
    for e in g.edges() {
        aug.add_edge(e.lo(), e.hi())
            .expect("copying a simple graph");
    }
    for &p in &unique_pins {
        aug.add_edge(apex, p).expect("apex edges are new");
    }
    let aug_rot = match embed(&aug) {
        Ok(r) => r,
        Err(_) => {
            // Report the graph's own obstruction if it has one.
            embed(g)?;
            return Err(PlanarityError::UnsatisfiableConstraint {
                reason: format!(
                    "no planar embedding of the graph has all {} pinned vertices on one face",
                    unique_pins.len()
                ),
            });
        }
    };
    // The cyclic order of pins on the merged face is the rotation around the
    // apex, reversed (looking at the face from the other side of the deleted
    // vertex).
    let mut pin_order: Vec<VertexId> = aug_rot.order_at(apex).to_vec();
    pin_order.reverse();
    // Delete the apex from all rotations.
    let mut orders = aug_rot.into_orders();
    orders.pop();
    for order in &mut orders {
        order.retain(|&w| w != apex);
    }
    let rotation = RotationSystem::new(g, orders).expect("removing the apex preserves validity");
    debug_assert!(rotation.is_planar_embedding());
    Ok(PinnedEmbedding {
        rotation,
        pin_order,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use planar_graph::cyclic::cyclic_eq_reflect;

    #[test]
    fn embeds_tree() {
        let g = Graph::from_edges(5, [(0, 1), (0, 2), (1, 3), (1, 4)]).unwrap();
        let rs = embed(&g).unwrap();
        assert!(rs.is_planar_embedding());
        assert_eq!(rs.face_count(), 1);
    }

    #[test]
    fn embeds_graph_with_cut_vertices() {
        // Bow-tie plus a pendant path.
        let g = Graph::from_edges(
            7,
            [
                (0, 1),
                (1, 2),
                (0, 2),
                (2, 3),
                (3, 4),
                (2, 4),
                (4, 5),
                (5, 6),
            ],
        )
        .unwrap();
        let rs = embed(&g).unwrap();
        assert!(rs.is_planar_embedding());
    }

    #[test]
    fn embeds_disconnected() {
        let g = Graph::from_edges(7, [(0, 1), (1, 2), (2, 0), (3, 4), (5, 6)]).unwrap();
        let rs = embed(&g).unwrap();
        assert!(rs.is_planar_embedding());
    }

    #[test]
    fn rejects_k5_and_k33() {
        let mut edges = Vec::new();
        for u in 0..5u32 {
            for v in (u + 1)..5 {
                edges.push((u, v));
            }
        }
        assert!(!is_planar(&Graph::from_edges(5, edges).unwrap()));
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
        assert!(!is_planar(&k33));
    }

    #[test]
    fn is_planar_agrees_with_embed() {
        let mut graphs = vec![
            crate::gen::complete(4),
            crate::gen::complete(5),
            crate::gen::grid(4, 5),
            crate::gen::random_maximal_planar(40, 2),
            Graph::new(0),
            Graph::new(3),
        ];
        // Maximal planar plus one edge: past the density guard. K3,3
        // subdivided inside a sparse graph: only the LR test rejects it.
        let mut dense = crate::gen::random_maximal_planar(12, 5);
        let (u, v) = (0..12u32)
            .flat_map(|u| (u + 1..12).map(move |v| (VertexId(u), VertexId(v))))
            .find(|&(u, v)| !dense.has_edge(u, v))
            .unwrap();
        dense.add_edge(u, v).unwrap();
        graphs.push(dense);
        let mut k33 = Graph::new(15);
        let mut next = 6u32;
        for a in 0..3u32 {
            for b in 3..6u32 {
                k33.add_edge(VertexId(a), VertexId(next)).unwrap();
                k33.add_edge(VertexId(next), VertexId(b)).unwrap();
                next += 1;
            }
        }
        graphs.push(k33);
        let verdicts: Vec<bool> = graphs.iter().map(is_planar).collect();
        for (g, &planar) in graphs.iter().zip(&verdicts) {
            assert_eq!(planar, embed(g).is_ok());
        }
        assert_eq!(
            verdicts,
            [true, false, true, true, true, true, false, false]
        );
    }

    #[test]
    fn pinned_cycle_all_vertices() {
        let g = Graph::from_edges(5, [(0, 1), (1, 2), (2, 3), (3, 4), (4, 0)]).unwrap();
        let pins: Vec<VertexId> = g.vertices().collect();
        let pe = embed_pinned(&g, &pins).unwrap();
        assert!(pe.rotation.is_planar_embedding());
        // Pins around the common face must follow the cycle order (up to
        // rotation/reflection).
        let expected: Vec<VertexId> = (0..5).map(VertexId).collect();
        assert!(cyclic_eq_reflect(&pe.pin_order, &expected));
    }

    #[test]
    fn pinned_unsatisfiable_on_octahedron() {
        // The octahedron is 4-connected, so its embedding is unique; vertices
        // 0 and 5 are antipodal and never co-facial.
        let g = Graph::from_edges(
            6,
            [
                (0, 1),
                (0, 2),
                (0, 3),
                (0, 4),
                (5, 1),
                (5, 2),
                (5, 3),
                (5, 4),
                (1, 2),
                (2, 3),
                (3, 4),
                (4, 1),
            ],
        )
        .unwrap();
        let err = embed_pinned(&g, &[VertexId(0), VertexId(5)]).unwrap_err();
        assert!(matches!(
            err,
            PlanarityError::UnsatisfiableConstraint { .. }
        ));
    }

    #[test]
    fn pinned_with_no_pins_is_plain_embed() {
        let g = Graph::from_edges(3, [(0, 1), (1, 2), (2, 0)]).unwrap();
        let pe = embed_pinned(&g, &[]).unwrap();
        assert!(pe.rotation.is_planar_embedding());
        assert!(pe.pin_order.is_empty());
    }

    #[test]
    fn pinned_duplicate_pins_are_deduped() {
        let g = Graph::from_edges(3, [(0, 1), (1, 2), (2, 0)]).unwrap();
        let pe = embed_pinned(&g, &[VertexId(0), VertexId(0), VertexId(1)]).unwrap();
        assert_eq!(pe.pin_order.len(), 2);
    }

    #[test]
    fn pinned_rejects_bad_vertex() {
        let g = Graph::from_edges(3, [(0, 1), (1, 2), (2, 0)]).unwrap();
        assert!(embed_pinned(&g, &[VertexId(17)]).is_err());
    }

    #[test]
    fn pin_order_covers_k4_outer_triangle() {
        let g = Graph::from_edges(4, [(0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3)]).unwrap();
        let pe = embed_pinned(&g, &[VertexId(0), VertexId(1), VertexId(2)]).unwrap();
        assert_eq!(pe.pin_order.len(), 3);
        assert!(pe.rotation.is_planar_embedding());
    }
}
