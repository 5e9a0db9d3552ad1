//! Seeded input generation and the input properties the record states.
//!
//! Every input is a pure function of the workload seed; the program under
//! test only ever sees the generated graphs.

use congest_sim::mix_seed;
use planar_graph::biconnected::BiconnectedDecomposition;
use planar_graph::traversal::bfs;
use planar_graph::{Graph, VertexId};
use planar_lib::gen;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use crate::json::Json;

/// Stable sub-seed tags, so the inputs of one dimension never shift when
/// another changes.
const TAG_DENSE: u64 = 1;
const TAG_LONG: u64 = 2;
const TAG_FLEET: u64 = 3;
/// Churn stream tag, used by the service workload.
pub const TAG_CHURN: u64 = 4;

/// Wheel sizes (hub plus rim) of the long chains: at most 8, so no block
/// has more than 14 edges.
const WHEEL_SIZES: std::ops::RangeInclusive<u32> = 4..=8;

/// The `embed-dense` pool: `pool` random maximal planar graphs on `n`
/// vertices.
pub fn dense_pool(seed: u64, n: usize, pool: usize) -> Vec<Graph> {
    (0..pool as u64)
        .map(|i| gen::random_maximal_planar(n, mix_seed(seed, &[TAG_DENSE, i])))
        .collect()
}

/// The `embed-long` pool: `pool` seeded wheel chains of about `n`
/// vertices.
pub fn long_pool(seed: u64, n: usize, pool: usize) -> Vec<Graph> {
    (0..pool as u64)
        .map(|i| wheel_chain(n, mix_seed(seed, &[TAG_LONG, i])))
        .collect()
}

/// A chain of wheels with seeded sizes, joined by bridges between seeded
/// vertices, under a seeded relabelling. Wheels are added until the chain
/// has at least `n` vertices.
///
/// The relabelling is uniform except that the largest id — the leader the
/// distributed setup elects — lands in the first wheel. The BFS tree then
/// spans the whole chain (depth ≈ D) on every seed; a leader in the middle
/// would halve the depth on some seeds and not on others, and the
/// simulated rounds with it. (`planar_lib::gen::wheel_chain` ignores its
/// seed, so it cannot vary the input.)
pub fn wheel_chain(n: usize, seed: u64) -> Graph {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut edges: Vec<(u32, u32)> = Vec::new();
    let mut size = 0u32;
    let mut exit: Option<u32> = None;
    let mut first_wheel = 0u32;
    while (size as usize) < n.max(1) {
        let w = rng.gen_range(WHEEL_SIZES);
        let (hub, ring) = (size, w - 1);
        for i in 1..=ring {
            edges.push((hub, hub + i));
            edges.push((hub + i, if i == ring { hub + 1 } else { hub + i + 1 }));
        }
        let entry = hub + rng.gen_range(0..w);
        if let Some(x) = exit {
            edges.push((x, entry));
        } else {
            first_wheel = w;
        }
        // Leave through a rim vertex other than the entry.
        let mut out = hub + 1 + rng.gen_range(0..ring);
        if out == entry {
            out = hub + 1 + (out - hub) % ring;
        }
        exit = Some(out);
        size += w;
    }
    let mut label = permutation(size as usize, &mut rng);
    let leader = label
        .iter()
        .position(|&l| l == size - 1)
        .expect("a permutation holds its maximum");
    label.swap(leader, rng.gen_range(0..first_wheel) as usize);
    let edges = edges
        .into_iter()
        .map(|(a, b)| (label[a as usize], label[b as usize]));
    Graph::from_edges(size as usize, edges).expect("wheel chain edges are valid")
}

/// A uniformly random permutation of `0..n` (Fisher–Yates).
fn permutation(n: usize, rng: &mut StdRng) -> Vec<u32> {
    let mut p: Vec<u32> = (0..n as u32).collect();
    for i in (1..n).rev() {
        p.swap(i, rng.gen_range(0..=i));
    }
    p
}

/// `g` with its vertices renamed by a seeded permutation.
fn relabel(g: &Graph, seed: u64) -> Graph {
    let label = permutation(g.vertex_count(), &mut StdRng::seed_from_u64(seed));
    let edges = g
        .edges()
        .map(|e| (label[e.lo().index()], label[e.hi().index()]));
    Graph::from_edges(g.vertex_count(), edges).expect("relabelled edges are valid")
}

/// Fleet families of `service-churn`, in admission order.
pub const FLEET_FAMILIES: [&str; 6] = [
    "grid",
    "tri-grid",
    "random-planar",
    "random-maximal-planar",
    "wheel-chain",
    "random-tree",
];

/// The `service-churn` fleet: `per_family` tenants of about `n` vertices
/// from each of [`FLEET_FAMILIES`], interleaved by family. The grids have
/// no randomness of their own and get a seeded relabelling.
pub fn fleet(seed: u64, n: usize, per_family: usize) -> Vec<(&'static str, Graph)> {
    let side = ((n as f64).sqrt().round() as usize).max(2);
    let mut out = Vec::with_capacity(per_family * FLEET_FAMILIES.len());
    for k in 0..per_family as u64 {
        for (f, &family) in FLEET_FAMILIES.iter().enumerate() {
            let s = mix_seed(seed, &[TAG_FLEET, f as u64, k]);
            let g = match family {
                "grid" => relabel(&gen::grid(side, side), s),
                "tri-grid" => relabel(&gen::triangulated_grid(side, side), s),
                "random-planar" => gen::random_planar(n, n + n / 2, s),
                "random-maximal-planar" => gen::random_maximal_planar(n, s),
                "wheel-chain" => wheel_chain(n, s),
                "random-tree" => gen::random_tree(n, s),
                _ => unreachable!("FLEET_FAMILIES is closed"),
            };
            out.push((family, g));
        }
    }
    out
}

/// Structural properties of one input graph.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Props {
    /// Vertices.
    pub n: usize,
    /// Edges.
    pub m: usize,
    /// Biconnected blocks.
    pub blocks: usize,
    /// Edges of the largest block.
    pub max_block_edges: usize,
    /// Depth of the BFS tree from the largest id (the elected leader).
    pub bfs_depth: u32,
}

impl Props {
    /// Measures `g`.
    pub fn of(g: &Graph) -> Props {
        let bc = BiconnectedDecomposition::compute(g);
        let max_block_edges = (0..bc.block_count())
            .map(|b| bc.block_edges(b).len())
            .max()
            .unwrap_or(0);
        let n = g.vertex_count();
        let bfs_depth = if n == 0 {
            0
        } else {
            bfs(g, VertexId::from_index(n - 1)).depth()
        };
        Props {
            n,
            m: g.edge_count(),
            blocks: bc.block_count(),
            max_block_edges,
            bfs_depth,
        }
    }

    /// The record's form.
    pub fn json(&self) -> Json {
        Json::obj([
            ("n", Json::Int(self.n as i64)),
            ("m", Json::Int(self.m as i64)),
            ("blocks", Json::Int(self.blocks as i64)),
            ("max_block_edges", Json::Int(self.max_block_edges as i64)),
            ("bfs_depth", Json::Int(i64::from(self.bfs_depth))),
        ])
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn inputs_are_a_function_of_the_seed() {
        assert_eq!(dense_pool(5, 40, 2), dense_pool(5, 40, 2));
        assert_ne!(dense_pool(5, 40, 2), dense_pool(6, 40, 2));
        assert_eq!(wheel_chain(300, 9), wheel_chain(300, 9));
        assert_ne!(wheel_chain(300, 9), wheel_chain(300, 10));
        let a: Vec<Graph> = fleet(1, 36, 1).into_iter().map(|(_, g)| g).collect();
        let b: Vec<Graph> = fleet(2, 36, 1).into_iter().map(|(_, g)| g).collect();
        assert_eq!(a.len(), FLEET_FAMILIES.len());
        for (x, y) in a.iter().zip(&b) {
            assert_ne!(x, y, "every fleet family varies with the seed");
        }
    }

    #[test]
    fn wheel_chains_are_long_planar_and_have_small_blocks() {
        for seed in 0..4 {
            let g = wheel_chain(2000, seed);
            let p = Props::of(&g);
            assert!(p.n >= 2000 && p.n < 2008, "{p:?}");
            assert!(g.is_connected());
            assert!(p.max_block_edges <= 14, "{p:?}");
            // ~333 wheels, each ≥1 hop plus its bridge: a deep BFS tree
            // from the leader in the first wheel.
            assert!(p.bfs_depth >= 600, "{p:?}");
            assert!(planar_lib::is_planar(&g));
        }
    }
}
