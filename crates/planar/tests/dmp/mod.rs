//! The DMP embedder as a whole-graph oracle: each biconnected block is
//! embedded by [`embedder::embed_biconnected`] and the blocks are composed
//! at cut vertices (any arrangement of blocks around a cut vertex is
//! planar — the freedom Figure 3 of the paper describes).

pub mod embedder;

use planar_graph::biconnected::BiconnectedDecomposition;
use planar_graph::{Graph, RotationSystem, VertexId};
use planar_lib::PlanarityError;

/// Embeds any simple graph with DMP, block by block.
pub fn dmp_embed(g: &Graph) -> Result<RotationSystem, PlanarityError> {
    let n = g.vertex_count();
    let m = g.edge_count();
    if n >= 3 && m > 3 * n - 6 {
        return Err(PlanarityError::TooManyEdges { n, m });
    }
    let bc = BiconnectedDecomposition::compute(g);
    let mut local = vec![0u32; n];
    let mut rot: Vec<Vec<VertexId>> = vec![Vec::new(); n];
    for b in 0..bc.block_count() {
        let verts = bc.block_vertices(b);
        for (i, &v) in verts.iter().enumerate() {
            local[v.index()] = i as u32;
        }
        let mut sub = Graph::new(verts.len());
        for &e in bc.block_edges(b) {
            sub.add_edge(
                VertexId(local[e.lo().index()]),
                VertexId(local[e.hi().index()]),
            )
            .expect("block edges are unique");
        }
        for (i, order) in embedder::embed_biconnected(&sub)?.into_iter().enumerate() {
            rot[verts[i].index()].extend(order.into_iter().map(|w| verts[w.index()]));
        }
    }
    Ok(RotationSystem::new(g, rot).expect("block composition yields valid rotations"))
}
