//! End-to-end integration tests spanning all crates: distributed embedder
//! vs trivial baseline vs the centralized embedder on every workload family,
//! output validation, error surfaces and the paper's structural bounds.

use congest_sim::SimConfig;
use planar_embedding::{embed_baseline, embed_distributed, EmbedError, EmbedderConfig};
use planar_graph::traversal::diameter_exact;
use planar_graph::{Graph, VertexId};
use planar_lib::gen;

fn families(n: usize, seed: u64) -> Vec<(&'static str, Graph)> {
    let side = (n as f64).sqrt().round() as usize;
    vec![
        ("path", gen::path(n)),
        ("cycle", gen::cycle(n)),
        ("star", gen::star(n)),
        ("tree", gen::random_tree(n, seed)),
        ("grid", gen::grid(side, side)),
        ("tri-grid", gen::triangulated_grid(side, side)),
        ("fan", gen::fan(n)),
        ("wheel", gen::wheel(n)),
        ("theta", gen::theta(4, n / 4)),
        ("outerplanar", gen::random_outerplanar(n, seed)),
        ("maximal-planar", gen::random_maximal_planar(n, seed)),
        ("random-planar", gen::random_planar(n, 2 * n, seed)),
        ("k4-subdivided", gen::k4_subdivided(n / 6 + 1)),
        ("wheel-chain", gen::wheel_chain(3, n / 3)),
    ]
}

#[test]
fn distributed_embedding_is_planar_on_all_families() {
    for (name, g) in families(36, 1) {
        let out = embed_distributed(&g, &EmbedderConfig::default())
            .unwrap_or_else(|e| panic!("{name}: {e}"));
        assert!(out.rotation.is_planar_embedding(), "{name}: genus != 0");
        assert_eq!(
            out.rotation.to_graph(),
            g,
            "{name}: rotation covers wrong graph"
        );
    }
}

#[test]
fn baseline_and_distributed_agree_on_planarity() {
    for (name, g) in families(30, 2) {
        let a = embed_distributed(&g, &EmbedderConfig::default());
        let b = embed_baseline(&g, &SimConfig::default());
        assert!(a.is_ok(), "{name} distributed failed");
        assert!(b.is_ok(), "{name} baseline failed");
        assert!(b.unwrap().rotation.is_planar_embedding(), "{name}");
    }
}

#[test]
fn structural_bounds_hold_on_all_families() {
    for (name, g) in families(48, 3) {
        let out = embed_distributed(&g, &EmbedderConfig::default()).unwrap();
        // Lemma 4.2.
        assert!(
            out.stats.max_child_ratio() <= 2.0 / 3.0 + 1e-9,
            "{name}: child ratio {}",
            out.stats.max_child_ratio()
        );
        // Lemma 4.3: recursion depth <= min(log_1.5 n, bfs-depth) + slack.
        let n = g.vertex_count() as f64;
        let bound = (n.ln() / 1.5f64.ln()).min(out.stats.bfs_depth.max(1) as f64);
        assert!(
            out.stats.depth as f64 <= bound + 3.0,
            "{name}: depth {} > bound {bound}",
            out.stats.depth
        );
        // CONGEST discipline (T6).
        assert!(out.metrics.max_words_edge_round <= SimConfig::default().budget_words);
    }
}

#[test]
fn rounds_beat_baseline_on_low_diameter_networks() {
    // The paper's raison d'etre: on low-diameter planar networks the
    // distributed algorithm is much faster than gathering the topology.
    let g = gen::fan(2048);
    let ours = embed_distributed(
        &g,
        &EmbedderConfig {
            check_invariants: false,
            ..Default::default()
        },
    )
    .unwrap();
    let base = embed_baseline(&g, &SimConfig::default()).unwrap();
    assert!(
        ours.metrics.rounds * 10 < base.metrics.rounds,
        "ours {} vs baseline {}",
        ours.metrics.rounds,
        base.metrics.rounds
    );
}

#[test]
fn rounds_scale_with_diameter_not_n() {
    // Fix the family, grow n: rounds / (D log n) stays bounded by a
    // constant (Theorem 1.1).
    let cfg = EmbedderConfig {
        check_invariants: false,
        ..Default::default()
    };
    let mut ratios = Vec::new();
    for side in [8usize, 16, 24] {
        let g = gen::grid(side, side);
        let d = diameter_exact(&g).unwrap() as f64;
        let out = embed_distributed(&g, &cfg).unwrap();
        ratios.push(out.metrics.rounds as f64 / (d * (g.vertex_count() as f64).log2()));
    }
    let (min, max) = (
        ratios.iter().cloned().fold(f64::INFINITY, f64::min),
        ratios.iter().cloned().fold(0.0, f64::max),
    );
    assert!(
        max / min < 2.0,
        "normalized rounds should be near-constant: {ratios:?}"
    );
}

#[test]
fn nonplanar_inputs_rejected_by_both() {
    let k5 = gen::complete(5);
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
    // A subdivided K3,3 defeats density checks.
    let mut k33sub = Graph::new(6 + 9);
    let mut mid = 6u32;
    for u in 0..3u32 {
        for v in 3..6u32 {
            k33sub.add_edge(VertexId(u), VertexId(mid)).unwrap();
            k33sub.add_edge(VertexId(mid), VertexId(v)).unwrap();
            mid += 1;
        }
    }
    for g in [k5, k33, k33sub] {
        assert!(matches!(
            embed_distributed(&g, &EmbedderConfig::default()),
            Err(EmbedError::NonPlanar)
        ));
        assert!(matches!(
            embed_baseline(&g, &SimConfig::default()),
            Err(EmbedError::NonPlanar)
        ));
    }
}

#[test]
fn error_surface_for_bad_networks() {
    let disconnected = Graph::from_edges(5, [(0, 1), (2, 3)]).unwrap();
    assert!(matches!(
        embed_distributed(&disconnected, &EmbedderConfig::default()),
        Err(EmbedError::Disconnected)
    ));
    assert!(matches!(
        embed_distributed(&Graph::new(0), &EmbedderConfig::default()),
        Err(EmbedError::EmptyGraph)
    ));
}

#[test]
fn deterministic_across_runs() {
    let g = gen::random_planar(40, 70, 9);
    let a = embed_distributed(&g, &EmbedderConfig::default()).unwrap();
    let b = embed_distributed(&g, &EmbedderConfig::default()).unwrap();
    assert_eq!(a.metrics, b.metrics);
    assert_eq!(a.rotation, b.rotation);
}

#[test]
fn facade_crate_reexports_work() {
    // The root package re-exports all crates under stable names.
    let g = planar_networks::planar::gen::cycle(8);
    let out = planar_networks::embedding::embed_distributed(&g, &Default::default()).unwrap();
    assert!(out.rotation.is_planar_embedding());
}
