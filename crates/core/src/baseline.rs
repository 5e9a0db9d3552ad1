//! The trivial baseline of footnote 2: "any graph problem can be solved in
//! O(m) rounds in the CONGEST model, simply by gathering the whole network
//! topology and solving the problem locally" — in planar graphs `O(m) =
//! O(n)` rounds.
//!
//! Implemented with honest accounting: a leader is elected (kernel), every
//! edge is shipped to the leader along the BFS tree (packet-scheduled, so
//! congestion near the root is paid for), the leader embeds locally with
//! the centralized linear-time left-right embedder (`planar_lib::embed`),
//! and every vertex's rotation is shipped back down.

use congest_sim::routing::{schedule, Transfer};
use congest_sim::SimConfig;
use planar_graph::Graph;

use crate::driver::EmbeddingOutcome;
use crate::error::EmbedError;
use crate::setup::run_setup;
use crate::stats::RecursionStats;

/// Runs the trivial gather-and-solve baseline.
///
/// # Errors
///
/// Same error surface as [`crate::embed_distributed`]; non-planar inputs
/// are detected by the leader's local embedding attempt.
///
/// # Example
///
/// ```
/// use congest_sim::SimConfig;
/// use planar_embedding::embed_baseline;
/// use planar_lib::gen;
///
/// # fn main() -> Result<(), planar_embedding::EmbedError> {
/// let g = gen::cycle(16);
/// let out = embed_baseline(&g, &SimConfig::default())?;
/// assert!(out.rotation.is_planar_embedding());
/// // Gathering Theta(n) words through the root costs Omega(n / B) rounds.
/// assert!(out.metrics.rounds >= 8);
/// # Ok(())
/// # }
/// ```
pub fn embed_baseline(g: &Graph, cfg: &SimConfig) -> Result<EmbeddingOutcome, EmbedError> {
    let (setup, mut metrics) = run_setup(g, cfg)?;
    let tree = &setup.tree;
    let root = tree.root;

    // Phase 1: gather the topology. Each edge {u, v} is reported once, by
    // its smaller endpoint, as two words routed up the BFS tree.
    let mut transfers: Vec<Transfer> = Vec::new();
    for e in g.edges() {
        let path = tree.path_to_ancestor(e.lo(), root);
        transfers.push(Transfer::new(path, 2));
    }
    metrics.add(schedule(g, &transfers, cfg.budget_words)?);

    // Phase 2: the leader solves locally (computation is free in CONGEST).
    let rotation = planar_lib::embed(g)?;

    // Phase 3: ship each vertex its rotation (deg + 1 words) down the tree.
    let mut transfers: Vec<Transfer> = Vec::new();
    for v in g.vertices() {
        if v == root {
            continue;
        }
        let mut path = tree.path_to_ancestor(v, root);
        path.reverse();
        transfers.push(Transfer::new(path, g.degree(v) + 1));
    }
    metrics.add(schedule(g, &transfers, cfg.budget_words)?);

    let stats = RecursionStats {
        n: g.vertex_count(),
        bfs_depth: tree.tree_depth() as usize,
        ..Default::default()
    };
    Ok(EmbeddingOutcome {
        rotation,
        metrics,
        stats,
        certification: None,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use planar_lib::gen;

    #[test]
    fn baseline_embeds_and_costs_linear() {
        let g = gen::grid(6, 6);
        let out = embed_baseline(&g, &SimConfig::default()).unwrap();
        assert!(out.rotation.is_planar_embedding());
        // Gathering ~2m words through the root's <= 4 edges with budget 8:
        // at least m/16 rounds; and at least D rounds.
        let m = g.edge_count();
        assert!(out.metrics.rounds >= m / 16);
    }

    #[test]
    fn baseline_rejects_nonplanar() {
        assert!(matches!(
            embed_baseline(&gen::complete(5), &SimConfig::default()),
            Err(EmbedError::NonPlanar)
        ));
    }

    #[test]
    fn baseline_scales_linearly_in_n() {
        // Rounds on a path should grow ~linearly: the leader sits at one
        // end, so everything funnels through a single edge.
        let r1 = embed_baseline(&gen::path(64), &SimConfig::default())
            .unwrap()
            .metrics
            .rounds;
        let r2 = embed_baseline(&gen::path(128), &SimConfig::default())
            .unwrap()
            .metrics
            .rounds;
        assert!(r2 as f64 >= 1.6 * r1 as f64, "r1 = {r1}, r2 = {r2}");
    }
}
