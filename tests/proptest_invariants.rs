//! Randomized-workload tests of the core invariants.
//!
//! Formerly proptest strategies; now deterministic seeded sweeps (48 cases
//! per property, mirroring the old `ProptestConfig::with_cases(48)`), since
//! the offline build environment cannot vendor proptest. Each case derives
//! its workload from a `StdRng` stream so the sweep stays reproducible and
//! the failure message names the offending case index.

use congest_sim::routing::{schedule, Transfer};
use congest_sim::SimConfig;
use planar_embedding::interface::achievable_boundary_orders;
use planar_embedding::{embed_distributed, EmbedderConfig};
use planar_graph::biconnected::BiconnectedDecomposition;
use planar_graph::cyclic::{canonical_rotation_reflect, cyclic_eq_reflect};
use planar_graph::{Graph, VertexId};
use planar_lib::gen;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

const CASES: usize = 48;

/// Case `i`: a random connected planar graph (family selector, size, seed),
/// matching the old `planar_graph_strategy`.
fn planar_graph_case(rng: &mut StdRng) -> Graph {
    let family = rng.gen_range(0u32..6);
    let n = rng.gen_range(4usize..40);
    let seed = rng.gen_range(0u64..=u64::MAX);
    match family {
        0 => gen::random_tree(n, seed),
        1 => gen::random_outerplanar(n.max(3), seed),
        2 => gen::random_maximal_planar(n.max(3), seed),
        3 => gen::random_planar(n.max(4), 2 * n, seed),
        4 => gen::grid(2 + n % 5, 2 + n / 5),
        _ => gen::k4_subdivided(n / 4 + 1),
    }
}

/// Theorem 1.1 output contract: the distributed embedding is always a
/// genus-0 rotation system of the exact input graph.
#[test]
fn distributed_embedding_always_planar() {
    let mut rng = StdRng::seed_from_u64(0xA11CE);
    for case in 0..CASES {
        let g = planar_graph_case(&mut rng);
        let cfg = EmbedderConfig {
            check_invariants: false,
            ..Default::default()
        };
        let out = embed_distributed(&g, &cfg).expect("planar inputs embed");
        assert!(out.rotation.is_planar_embedding(), "case {case}");
        assert_eq!(out.rotation.to_graph(), g, "case {case}");
    }
}

/// Lemma 4.2 + CONGEST discipline on random inputs.
#[test]
fn structural_bounds() {
    let mut rng = StdRng::seed_from_u64(0xB0B);
    for case in 0..CASES {
        let g = planar_graph_case(&mut rng);
        let out = embed_distributed(&g, &EmbedderConfig::default()).expect("planar inputs embed");
        assert!(
            out.stats.max_child_ratio() <= 2.0 / 3.0 + 1e-9,
            "case {case}"
        );
        assert!(
            out.metrics.max_words_edge_round <= SimConfig::default().budget_words,
            "case {case}"
        );
    }
}

/// The centralized left-right embedder agrees with the Euler-genus verifier.
#[test]
fn lr_embeddings_verify() {
    let mut rng = StdRng::seed_from_u64(0xD321);
    for case in 0..CASES {
        let g = planar_graph_case(&mut rng);
        let rs = planar_lib::embed(&g).expect("planar inputs embed");
        assert!(rs.is_planar_embedding(), "case {case}");
        assert_eq!(
            rs.face_count() as i64,
            2 * planar_graph::traversal::connected_components(&g).len() as i64
                - g.vertex_count() as i64
                + g.edge_count() as i64,
            "case {case}"
        );
    }
}

/// Pinned embeddings really keep all pins on one face: adding an apex
/// adjacent to the pins keeps the graph planar.
#[test]
fn pinned_embedding_pins_cofacial() {
    let mut rng = StdRng::seed_from_u64(0x1997);
    for case in 0..CASES {
        let n = rng.gen_range(4usize..24);
        let seed = rng.gen_range(0u64..=u64::MAX);
        let k = rng.gen_range(2usize..6);
        let g = gen::random_outerplanar(n, seed);
        let pins: Vec<VertexId> = (0..k.min(n))
            .map(|i| VertexId((i * n / k.min(n)) as u32))
            .collect();
        let pe = planar_lib::embed_pinned(&g, &pins).expect("outerplanar parts pin");
        assert!(pe.rotation.is_planar_embedding(), "case {case}");
        let mut sorted = pe.pin_order.clone();
        sorted.sort();
        sorted.dedup();
        let mut expected = pins.clone();
        expected.sort();
        expected.dedup();
        assert_eq!(sorted, expected, "case {case}");
    }
}

/// Observation 3.2 consequence (Figure 2): over all achievable boundary
/// orders of a random outerplanar part, the suborder of half-edges attached
/// to any fixed biconnected block at non-cut vertices is the same up to
/// rotation+reflection.
#[test]
fn block_suborders_are_rigid() {
    let mut rng = StdRng::seed_from_u64(0x0B52);
    for case in 0..CASES {
        let n = rng.gen_range(4usize..8);
        let seed = rng.gen_range(0u64..=u64::MAX);
        let g = gen::sparse_outerplanar(n, 2, seed);
        let half: Vec<(VertexId, u32)> = g.vertices().map(|v| (v, v.0)).collect();
        let orders = achievable_boundary_orders(&g, &half);
        if orders.is_empty() {
            continue; // prop_assume!: skip unembeddable pin sets
        }
        let bc = BiconnectedDecomposition::compute(&g);
        for b in 0..bc.block_count() {
            let block_labels: Vec<u32> = bc
                .block_vertices(b)
                .into_iter()
                .filter(|&v| !bc.is_cut_vertex(v))
                .map(|v| v.0)
                .collect();
            if block_labels.len() < 3 {
                continue;
            }
            let mut reference: Option<Vec<u32>> = None;
            for order in &orders {
                let sub: Vec<u32> = order
                    .iter()
                    .copied()
                    .filter(|l| block_labels.contains(l))
                    .collect();
                match &reference {
                    None => reference = Some(sub),
                    Some(r) => assert!(
                        cyclic_eq_reflect(r, &sub),
                        "case {case}: block suborder changed across embeddings"
                    ),
                }
            }
        }
    }
}

/// Canonicalization is idempotent and reflection-invariant.
#[test]
fn canonical_rotation_properties() {
    let mut rng = StdRng::seed_from_u64(0xCA70);
    for case in 0..CASES {
        let len = rng.gen_range(1usize..12);
        let mut v: Vec<u32> = (0..len).map(|_| rng.gen_range(0u32..50)).collect();
        let c = canonical_rotation_reflect(&v);
        assert_eq!(canonical_rotation_reflect(&c), c, "case {case}");
        v.reverse();
        assert_eq!(canonical_rotation_reflect(&v), c, "case {case}");
    }
}

/// The routing scheduler is work-conserving: rounds are bounded by path
/// length + total contention, and at least max(path lengths).
#[test]
fn routing_bounds() {
    let mut rng = StdRng::seed_from_u64(0x2077);
    for case in 0..CASES {
        let n = rng.gen_range(3usize..30);
        let k = rng.gen_range(1usize..12);
        let words: Vec<usize> = (0..k).map(|_| rng.gen_range(1usize..30)).collect();
        let g = gen::path(n);
        let transfers: Vec<Transfer> = words
            .iter()
            .map(|&w| Transfer::new((0..n as u32).map(VertexId).collect(), w))
            .collect();
        let budget = 8;
        let m = schedule(&g, &transfers, budget).unwrap();
        let hops = n - 1;
        let total_packets: usize = words.iter().map(|w| w.div_ceil(budget)).sum();
        assert!(m.rounds >= hops, "case {case}");
        assert!(m.rounds <= hops + total_packets, "case {case}");
        assert!(m.max_words_edge_round <= budget, "case {case}");
    }
}

/// Biconnected decomposition partitions the edge set.
#[test]
fn blocks_partition_edges() {
    let mut rng = StdRng::seed_from_u64(0xB10C);
    for case in 0..CASES {
        let g = planar_graph_case(&mut rng);
        let bc = BiconnectedDecomposition::compute(&g);
        let total: usize = (0..bc.block_count()).map(|b| bc.block_edges(b).len()).sum();
        assert_eq!(total, g.edge_count(), "case {case}");
        for e in g.edges() {
            assert!(bc.block_of_edge(e).is_some(), "case {case}");
        }
    }
}
