//! Sparse non-planar regression: a subdivided `K3,3` glued into a grid has
//! `m <= 3n - 6`, so the density guard cannot reject it and only the
//! planarity test itself can. Both the distributed entry point and the
//! service's edge-insertion path must report it as non-planar.

use planar_embedding::{embed_distributed, EmbedError, EmbedderConfig};
use planar_graph::{Graph, VertexId};
use planar_lib::gen;
use planar_service::{Delta, DeltaOutcome, OracleMode, ServiceConfig, ServiceState};

const ROWS: usize = 6;
const COLS: usize = 6;

/// A `ROWS x COLS` grid plus a `K3,3` whose nine edges are paths of three
/// edges each; branch vertex `a0` is grid vertex 0 and `b0` is the last
/// grid vertex. Returns the graph and one edge of a subdivided path.
fn grid_with_k33() -> (Graph, (VertexId, VertexId)) {
    let grid = gen::grid(ROWS, COLS);
    let h = grid.vertex_count() as u32;
    let mut g = Graph::new(h as usize);
    for e in grid.edges() {
        g.add_edge(e.lo(), e.hi()).unwrap();
    }
    let a = [VertexId(0), g.add_vertex(), g.add_vertex()];
    let b = [VertexId(h - 1), g.add_vertex(), g.add_vertex()];
    let mut path_edge = None;
    for &u in &a {
        for &v in &b {
            let (mid1, mid2) = (g.add_vertex(), g.add_vertex());
            g.add_edge(u, mid1).unwrap();
            g.add_edge(mid1, mid2).unwrap();
            g.add_edge(mid2, v).unwrap();
            path_edge = Some((mid1, mid2));
        }
    }
    let (n, m) = (g.vertex_count(), g.edge_count());
    assert!(
        m <= 3 * n - 6,
        "the density guard must not apply: n={n} m={m}"
    );
    (g, path_edge.unwrap())
}

#[test]
fn embed_distributed_rejects_sparse_k33_subdivision() {
    let (g, _) = grid_with_k33();
    assert!(g.is_connected());
    for check_invariants in [true, false] {
        let cfg = EmbedderConfig {
            check_invariants,
            ..EmbedderConfig::default()
        };
        let res = embed_distributed(&g, &cfg);
        assert!(
            matches!(res, Err(EmbedError::NonPlanar)),
            "check_invariants={check_invariants}: {:?}",
            res.err()
        );
    }
}

#[test]
fn service_rejects_edge_that_completes_k33() {
    let (full, (u, v)) = grid_with_k33();
    let mut planar = full.clone();
    planar.remove_edge(u, v).unwrap();
    assert!(planar.is_connected());
    let mut svc = ServiceState::new(ServiceConfig {
        oracle: OracleMode::Always,
        ..ServiceConfig::default()
    });
    let id = svc.create_tenant(planar.clone()).unwrap();
    let before = svc.tenant(id).unwrap();
    let (graph, rotation) = (before.graph().clone(), before.rotation().clone());
    assert_eq!(graph, planar);

    let out = svc.apply(id, Delta::InsertEdge(u, v)).unwrap();
    assert!(
        matches!(out, DeltaOutcome::RejectedNonPlanar { .. }),
        "{out:?}"
    );
    let after = svc.tenant(id).unwrap();
    assert_eq!(
        after.graph(),
        &graph,
        "rejection leaves the graph unchanged"
    );
    assert_eq!(after.rotation(), &rotation, "and the rotation");
    assert_eq!(after.stats().rejected_nonplanar, 1);
    assert_eq!(after.stats().applied, 0);
    assert_eq!(svc.divergences(), 0, "the oracle agrees with the rejection");
}
