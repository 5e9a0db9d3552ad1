//! Differential test of the left-right embedder (`planar_lib::embed`,
//! `embed_pinned`, `is_planar`) against the independent DMP oracle in
//! `tests/dmp/`, on seeded graphs with at most 64 vertices:
//!
//! * every generator family, at several sizes and seeds;
//! * random edge subsets of those graphs, and random `G(n, m)` graphs with
//!   `m <= 3n - 6` (mostly non-planar for larger `m`);
//! * `K5` and `K3,3` subdivisions glued into planar hosts, all with
//!   `m <= 3n - 6`, so that only the planarity test itself can reject them.
//!
//! LR and DMP must agree on every verdict (plain and pinned), every LR
//! rotation must pass `is_planar_embedding`, and every pinned result must
//! have all pins on one traced face of `rotation.faces()`.

mod dmp;

use std::collections::BTreeSet;

use planar_graph::{Graph, VertexId};
use planar_lib::{embed, embed_pinned, gen, is_planar, PlanarityError};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use dmp::dmp_embed;

/// Checks the plain verdict and rotation of one graph; returns whether it is
/// planar.
fn check_embed(g: &Graph, label: &str) -> bool {
    let lr = embed(g);
    let oracle = dmp_embed(g);
    assert_eq!(
        lr.is_ok(),
        oracle.is_ok(),
        "{label}: LR says {lr:?}, DMP says {:?}",
        oracle.as_ref().err()
    );
    assert_eq!(is_planar(g), lr.is_ok(), "{label}: is_planar disagrees");
    match lr {
        Ok(rs) => {
            assert!(
                rs.is_planar_embedding(),
                "{label}: LR rotation has genus > 0"
            );
            assert_eq!(embed(g).unwrap(), rs, "{label}: LR is not deterministic");
            true
        }
        Err(e) => {
            assert!(
                matches!(
                    e,
                    PlanarityError::NonPlanar { .. } | PlanarityError::TooManyEdges { .. }
                ),
                "{label}: unexpected error {e:?}"
            );
            false
        }
    }
}

/// The apex construction the oracle uses for pinned embedding.
fn with_apex(g: &Graph, pins: &[VertexId]) -> Graph {
    let mut aug = Graph::new(g.vertex_count() + 1);
    for e in g.edges() {
        aug.add_edge(e.lo(), e.hi()).unwrap();
    }
    let apex = VertexId::from_index(g.vertex_count());
    for &p in pins {
        aug.add_edge(apex, p).unwrap();
    }
    aug
}

/// `true` if some face of `rs`, walked edge by edge, visits every pin.
fn pins_share_a_face(rs: &planar_graph::RotationSystem, pins: &[VertexId]) -> bool {
    rs.faces().iter().any(|face| {
        let on_face: BTreeSet<VertexId> = face.iter().map(|&(u, _)| u).collect();
        pins.iter().all(|p| on_face.contains(p))
    })
}

/// Checks one pinned instance of a connected planar graph with edges;
/// returns whether the pins could be put on one face.
fn check_pinned(g: &Graph, pins: &[VertexId], label: &str) -> bool {
    let mut unique: Vec<VertexId> = pins.to_vec();
    unique.sort();
    unique.dedup();
    let oracle_ok = dmp_embed(&with_apex(g, &unique)).is_ok();
    match embed_pinned(g, pins) {
        Ok(pe) => {
            assert!(
                oracle_ok,
                "{label} pins {unique:?}: DMP finds no common face"
            );
            assert!(pe.rotation.is_planar_embedding(), "{label}: genus > 0");
            assert!(
                pins_share_a_face(&pe.rotation, &unique),
                "{label}: pins {unique:?} are not on one face"
            );
            let mut order = pe.pin_order.clone();
            order.sort();
            assert_eq!(order, unique, "{label}: pin_order is not the pin set");
            true
        }
        Err(PlanarityError::UnsatisfiableConstraint { .. }) => {
            assert!(
                !oracle_ok,
                "{label} pins {unique:?}: DMP finds a common face"
            );
            false
        }
        Err(e) => panic!("{label}: unexpected error {e:?}"),
    }
}

/// Pin sets for a connected planar graph: the vertices of one face of its
/// LR embedding (always satisfiable), and a few random vertex sets. Adds
/// the satisfiable and unsatisfiable outcomes to `tally`.
fn check_pin_sets(g: &Graph, rng: &mut StdRng, label: &str, tally: &mut [usize; 2]) {
    if g.edge_count() == 0 || !g.is_connected() {
        return;
    }
    let rs = embed(g).unwrap();
    let faces = rs.faces();
    let face = &faces[rng.gen_range(0..faces.len())];
    let face_pins: Vec<VertexId> = face.iter().map(|&(u, _)| u).collect();
    assert!(
        check_pinned(g, &face_pins, label),
        "{label}: a face's own vertices"
    );
    tally[0] += 1;
    let n = g.vertex_count() as u32;
    for k in 1..=4usize {
        let pins: Vec<VertexId> = (0..k).map(|_| VertexId(rng.gen_range(0..n))).collect();
        tally[usize::from(!check_pinned(g, &pins, label))] += 1;
    }
}

/// Keeps each edge of `g` with probability `keep_pct` percent.
fn edge_subset(g: &Graph, keep_pct: u32, rng: &mut StdRng) -> Graph {
    let mut sub = Graph::new(g.vertex_count());
    for e in g.edges() {
        if rng.gen_range(0..100u32) < keep_pct {
            sub.add_edge(e.lo(), e.hi()).unwrap();
        }
    }
    sub
}

/// A uniform random simple graph with `n` vertices and `m` edges.
fn random_gnm(n: usize, m: usize, rng: &mut StdRng) -> Graph {
    let mut g = Graph::new(n);
    while g.edge_count() < m {
        let u = VertexId(rng.gen_range(0..n as u32));
        let v = VertexId(rng.gen_range(0..n as u32));
        let _ = g.add_edge(u, v);
    }
    g
}

#[test]
fn every_family_and_edge_subset_agrees() {
    let mut rng = StdRng::seed_from_u64(0x1e57_d1ff);
    let mut planar = 0;
    let mut nonplanar = 0;
    let mut pinned = [0usize; 2];
    for fam in gen::FAMILIES {
        for req_n in [fam.min_n, 8, 17, 30, 64] {
            let seeds: &[u64] = if fam.randomized { &[0, 1, 7] } else { &[0] };
            for &seed in seeds {
                let g = (fam.build)(req_n, seed);
                if g.vertex_count() > 64 {
                    continue;
                }
                let label = format!("{}/n={req_n}/seed={seed}", fam.name);
                assert!(
                    check_embed(&g, &label),
                    "{label}: family graph must be planar"
                );
                check_pin_sets(&g, &mut rng, &label, &mut pinned);
                for keep in [30, 60, 90] {
                    let sub = edge_subset(&g, keep, &mut rng);
                    let label = format!("{label}/keep={keep}");
                    assert!(
                        check_embed(&sub, &label),
                        "{label}: subgraph of a planar graph"
                    );
                    check_pin_sets(&sub, &mut rng, &label, &mut pinned);
                    planar += 1;
                }
            }
        }
    }
    for n in [5usize, 6, 8, 12, 20, 33, 64] {
        for round in 0..12 {
            let m = rng.gen_range(n - 1..=3 * n - 6);
            let g = random_gnm(n, m, &mut rng);
            let label = format!("gnm/n={n}/m={m}/round={round}");
            if check_embed(&g, &label) {
                planar += 1;
                check_pin_sets(&g, &mut rng, &label, &mut pinned);
            } else {
                nonplanar += 1;
            }
        }
    }
    assert!(
        planar > 100 && nonplanar > 20,
        "{planar} planar, {nonplanar} non-planar"
    );
    assert!(
        pinned[0] > 100 && pinned[1] > 20,
        "{} satisfiable, {} unsatisfiable pin sets",
        pinned[0],
        pinned[1]
    );
}

/// `K5` or `K3,3` with every edge subdivided `len - 1` times, on vertex ids
/// `offset..`.
fn kuratowski_subdivision(k5: bool, len: usize, offset: u32) -> (Vec<(u32, u32)>, u32) {
    let branch: Vec<(u32, u32)> = if k5 {
        (0..5u32)
            .flat_map(|u| ((u + 1)..5).map(move |v| (u, v)))
            .collect()
    } else {
        (0..3u32)
            .flat_map(|u| (3..6u32).map(move |v| (u, v)))
            .collect()
    };
    let mut next = offset + if k5 { 5 } else { 6 };
    let mut edges = Vec::new();
    for (u, v) in branch {
        let mut prev = offset + u;
        for _ in 1..len {
            edges.push((prev, next));
            prev = next;
            next += 1;
        }
        edges.push((prev, offset + v));
    }
    (edges, next)
}

/// A planar host with a Kuratowski subdivision glued in: `glue` of the
/// subdivision's vertices are identified with distinct host vertices, and
/// one extra edge ties a subdivision vertex to the host.
fn glued_nonplanar(host: &Graph, k5: bool, len: usize, glue: usize, rng: &mut StdRng) -> Graph {
    let h = host.vertex_count() as u32;
    let (k_edges, end) = kuratowski_subdivision(k5, len, h);
    // Identify the first `glue` subdivision vertices with host vertices.
    let mut map: Vec<u32> = (0..end).collect();
    let mut used = BTreeSet::new();
    for k in h..h + glue as u32 {
        let mut target = rng.gen_range(0..h);
        while !used.insert(target) {
            target = rng.gen_range(0..h);
        }
        map[k as usize] = target;
    }
    // Renumber the surviving subdivision vertices densely after the host.
    let mut next = h;
    for k in h + glue as u32..end {
        map[k as usize] = next;
        next += 1;
    }
    let mut g = Graph::new(next as usize);
    for e in host.edges() {
        g.add_edge(e.lo(), e.hi()).unwrap();
    }
    for (u, v) in k_edges {
        // An edge may coincide with a host edge; the subdivision survives.
        let _ = g.add_edge(VertexId(map[u as usize]), VertexId(map[v as usize]));
    }
    let tie = VertexId(map[(end - 1) as usize]);
    let _ = g.add_edge(tie, VertexId(rng.gen_range(0..h)));
    g
}

#[test]
fn sparse_kuratowski_subdivisions_are_rejected() {
    let mut rng = StdRng::seed_from_u64(0x0b57_ac1e);
    let hosts = [
        ("grid", gen::grid(4, 5)),
        ("tri-grid", gen::triangulated_grid(4, 4)),
        ("random-planar", gen::random_planar(20, 35, 3)),
        ("random-maximal-planar", gen::random_maximal_planar(16, 5)),
        ("wheel-chain", gen::wheel_chain(3, 5)),
        ("random-tree", gen::random_tree(12, 9)),
    ];
    let mut cases = 0;
    for (name, host) in &hosts {
        for k5 in [false, true] {
            for len in [1usize, 2, 3] {
                for glue in 0..=3usize {
                    let g = glued_nonplanar(host, k5, len, glue, &mut rng);
                    let (n, m) = (g.vertex_count(), g.edge_count());
                    if g.vertex_count() > 64 || m > 3 * n - 6 {
                        continue;
                    }
                    let label = format!(
                        "{name}+{}/len={len}/glue={glue}",
                        if k5 { "K5" } else { "K33" }
                    );
                    assert!(!check_embed(&g, &label), "{label}: must be non-planar");
                    assert!(
                        matches!(embed(&g), Err(PlanarityError::NonPlanar { embedded_edges }) if embedded_edges < m),
                        "{label}: the density guard must not be what rejects it"
                    );
                    cases += 1;
                }
            }
        }
    }
    assert!(cases >= 100, "only {cases} sparse non-planar cases");
}
