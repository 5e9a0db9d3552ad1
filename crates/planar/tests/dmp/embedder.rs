//! The Demoucron–Malgrange–Pertuiset (DMP) incremental planarity test and
//! embedder for biconnected graphs, kept as an independent differential
//! oracle for the left-right embedder in `src/lr.rs`.
//!
//! DMP is the classical "face by face" algorithm: embed any cycle, then
//! repeatedly take a *fragment* (a chord, or a connected component of the
//! unembedded part together with its attachment edges), check which faces of
//! the current partial embedding can host it, and embed one path of the
//! fragment into such a face, splitting it in two. If some fragment has no
//! admissible face the graph is non-planar. It recomputes every fragment and
//! face set per embedded path, so it is super-quadratic: use it on small
//! graphs only.
//!
//! The implementation maintains faces (as directed vertex cycles) and the
//! rotation system *together*, so the returned rotations always trace the
//! maintained faces.

use std::collections::{HashSet, VecDeque};

use planar_graph::{EdgeId, Graph, VertexId};

use planar_lib::PlanarityError;

/// A fragment of the unembedded part relative to the embedded subgraph `S`.
#[derive(Clone, Debug)]
struct Fragment {
    /// Attachment vertices (embedded vertices touched by the fragment), sorted.
    attachments: Vec<VertexId>,
    /// Vertices of the fragment outside `S` (empty for a chord).
    interior: Vec<VertexId>,
    /// For a chord fragment, the chord edge.
    chord: Option<EdgeId>,
}

/// Embeds a biconnected graph (a single "block": one edge, or a 2-connected
/// graph), returning per-vertex rotations.
///
/// # Errors
///
/// Returns [`PlanarityError::NonPlanar`] if the block is not planar.
///
/// # Panics
///
/// Panics (in debug builds) if the input is not a single block; callers go
/// through [`super::dmp_embed`], which decomposes arbitrary graphs into
/// blocks.
pub fn embed_biconnected(g: &Graph) -> Result<Vec<Vec<VertexId>>, PlanarityError> {
    let n = g.vertex_count();
    let m = g.edge_count();
    debug_assert!(g.is_connected(), "block must be connected");
    if m == 0 {
        return Ok(vec![Vec::new(); n]);
    }
    if m == 1 {
        let e = g.edges().next().expect("m == 1");
        let mut rot = vec![Vec::new(); n];
        rot[e.lo().index()].push(e.hi());
        rot[e.hi().index()].push(e.lo());
        return Ok(rot);
    }
    // Planar edge bound: blocks with n >= 3 satisfy m <= 3n - 6.
    if n >= 3 && m > 3 * n - 6 {
        return Err(PlanarityError::TooManyEdges { n, m });
    }

    let mut state = DmpState::new(g);
    state.embed_initial_cycle();
    loop {
        let fragments = state.fragments();
        if fragments.is_empty() {
            break;
        }
        // Face vertex sets for admissibility checks, rebuilt per iteration.
        let face_sets: Vec<HashSet<VertexId>> = state
            .faces
            .iter()
            .map(|f| f.iter().copied().collect())
            .collect();
        let mut choice: Option<(usize, usize)> = None; // (fragment, face)
        for (fi, frag) in fragments.iter().enumerate() {
            let admissible: Vec<usize> = face_sets
                .iter()
                .enumerate()
                .filter(|(_, fs)| frag.attachments.iter().all(|a| fs.contains(a)))
                .map(|(i, _)| i)
                .collect();
            match admissible.len() {
                0 => {
                    return Err(PlanarityError::NonPlanar {
                        embedded_edges: state.embedded_edge_count,
                    })
                }
                1 => {
                    choice = Some((fi, admissible[0]));
                    break;
                }
                _ => {
                    if choice.is_none() {
                        choice = Some((fi, admissible[0]));
                    }
                }
            }
        }
        let (fi, face_idx) = choice.expect("non-empty fragment list yields a choice");
        let path = state.alpha_path(&fragments[fi]);
        state.embed_path(&path, face_idx);
    }
    Ok(state.rot)
}

struct DmpState<'g> {
    g: &'g Graph,
    in_s: Vec<bool>,
    edge_embedded: HashSet<EdgeId>,
    embedded_edge_count: usize,
    rot: Vec<Vec<VertexId>>,
    /// Faces as directed vertex cycles: consecutive entries are edges, and
    /// for any consecutive triple `(a, b, c)`, `c` follows `a` in `rot[b]`.
    faces: Vec<Vec<VertexId>>,
}

impl<'g> DmpState<'g> {
    fn new(g: &'g Graph) -> Self {
        DmpState {
            g,
            in_s: vec![false; g.vertex_count()],
            edge_embedded: HashSet::new(),
            embedded_edge_count: 0,
            rot: vec![Vec::new(); g.vertex_count()],
            faces: Vec::new(),
        }
    }

    /// Finds any cycle via DFS (undirected graphs have only back edges) and
    /// embeds it as the initial two-face configuration.
    fn embed_initial_cycle(&mut self) {
        let cycle = find_cycle(self.g).expect("biconnected graph with >= 2 edges has a cycle");
        let k = cycle.len();
        for i in 0..k {
            let prev = cycle[(i + k - 1) % k];
            let next = cycle[(i + 1) % k];
            let v = cycle[i];
            self.rot[v.index()] = vec![prev, next];
            self.in_s[v.index()] = true;
            self.mark_edge(EdgeId::new(v, next));
        }
        let fwd = cycle.clone();
        let bwd: Vec<VertexId> = cycle.iter().rev().copied().collect();
        self.faces = vec![fwd, bwd];
    }

    fn mark_edge(&mut self, e: EdgeId) {
        if self.edge_embedded.insert(e) {
            self.embedded_edge_count += 1;
        }
    }

    /// Computes all fragments relative to the current embedded subgraph.
    fn fragments(&self) -> Vec<Fragment> {
        let mut frags = Vec::new();
        // Chords: unembedded edges with both endpoints embedded.
        for e in self.g.edges() {
            if !self.edge_embedded.contains(&e)
                && self.in_s[e.lo().index()]
                && self.in_s[e.hi().index()]
            {
                frags.push(Fragment {
                    attachments: vec![e.lo(), e.hi()],
                    interior: Vec::new(),
                    chord: Some(e),
                });
            }
        }
        // Components of G - S with their attachment edges.
        let mut seen = vec![false; self.g.vertex_count()];
        for v in self.g.vertices() {
            if self.in_s[v.index()] || seen[v.index()] {
                continue;
            }
            let mut comp = Vec::new();
            let mut attach = HashSet::new();
            let mut queue = VecDeque::from([v]);
            seen[v.index()] = true;
            while let Some(x) = queue.pop_front() {
                comp.push(x);
                for &w in self.g.neighbors(x) {
                    if self.in_s[w.index()] {
                        attach.insert(w);
                    } else if !seen[w.index()] {
                        seen[w.index()] = true;
                        queue.push_back(w);
                    }
                }
            }
            let mut attachments: Vec<VertexId> = attach.into_iter().collect();
            attachments.sort();
            debug_assert!(
                attachments.len() >= 2,
                "fragment of a 2-connected graph has >= 2 attachments"
            );
            frags.push(Fragment {
                attachments,
                interior: comp,
                chord: None,
            });
        }
        frags
    }

    /// A path through the fragment between two distinct attachment vertices,
    /// with all interior vertices outside `S`.
    fn alpha_path(&self, frag: &Fragment) -> Vec<VertexId> {
        if let Some(chord) = frag.chord {
            return vec![chord.lo(), chord.hi()];
        }
        let a1 = frag.attachments[0];
        let a2 = frag.attachments[1];
        let in_interior: HashSet<VertexId> = frag.interior.iter().copied().collect();
        // BFS from a1 through interior vertices only, targeting a2.
        let mut pred: Vec<Option<VertexId>> = vec![None; self.g.vertex_count()];
        let mut seen = vec![false; self.g.vertex_count()];
        let mut queue = VecDeque::new();
        seen[a1.index()] = true;
        for &w in self.g.neighbors(a1) {
            if in_interior.contains(&w) && !seen[w.index()] {
                seen[w.index()] = true;
                pred[w.index()] = Some(a1);
                queue.push_back(w);
            }
        }
        while let Some(x) = queue.pop_front() {
            if self.g.has_edge(x, a2) {
                let mut path = vec![a2, x];
                let mut cur = x;
                while let Some(p) = pred[cur.index()] {
                    path.push(p);
                    cur = p;
                }
                path.reverse();
                return path;
            }
            for &w in self.g.neighbors(x) {
                if in_interior.contains(&w) && !seen[w.index()] {
                    seen[w.index()] = true;
                    pred[w.index()] = Some(x);
                    queue.push_back(w);
                }
            }
        }
        unreachable!("fragment interior connects its attachments by construction")
    }

    /// Embeds `path` (endpoints embedded and on face `face_idx`, interior
    /// new) into the face, splitting it in two.
    fn embed_path(&mut self, path: &[VertexId], face_idx: usize) {
        let f = self.faces.swap_remove(face_idx);
        let k = f.len();
        let u = path[0];
        let v = *path.last().expect("path has >= 2 vertices");
        let i = f.iter().position(|&x| x == u).expect("u on face");
        let j = f.iter().position(|&x| x == v).expect("v on face");
        debug_assert_ne!(i, j, "path endpoints must be distinct");
        let a = f[(i + k - 1) % k]; // predecessor of u on the face
        let c = f[(j + k - 1) % k]; // predecessor of v on the face

        // Insert path[1] right after `a` in rot[u]: the face guarantees that
        // `b = f[i+1]` currently follows `a`, and the new edge goes between.
        let first = path[1];
        let pos_a = self.rot[u.index()]
            .iter()
            .position(|&x| x == a)
            .expect("face predecessor present in rotation");
        self.rot[u.index()].insert(pos_a + 1, first);

        // Insert path[m-1] right after `c` in rot[v].
        let last = path[path.len() - 2];
        let pos_c = self.rot[v.index()]
            .iter()
            .position(|&x| x == c)
            .expect("face predecessor present in rotation");
        self.rot[v.index()].insert(pos_c + 1, last);

        // Interior vertices get the degree-2 rotation [prev, next].
        for t in 1..path.len() - 1 {
            let p = path[t];
            self.rot[p.index()] = vec![path[t - 1], path[t + 1]];
            self.in_s[p.index()] = true;
        }
        for t in 0..path.len() - 1 {
            self.mark_edge(EdgeId::new(path[t], path[t + 1]));
        }

        // Split the face. Let arc1 = f[i..=j] (cyclically) and arc2 = f[j..=i].
        let mut arc1 = Vec::new();
        let mut t = i;
        loop {
            arc1.push(f[t]);
            if t == j {
                break;
            }
            t = (t + 1) % k;
        }
        let mut arc2 = Vec::new();
        let mut t = j;
        loop {
            arc2.push(f[t]);
            if t == i {
                break;
            }
            t = (t + 1) % k;
        }
        // f1 = u ..arc1.. v, then the path interior reversed (v back to u).
        let mut f1 = arc1;
        f1.extend(path[1..path.len() - 1].iter().rev());
        // f2 = v ..arc2.. u, then the path interior forward (u to v).
        let mut f2 = arc2;
        f2.extend(path[1..path.len() - 1].iter());
        self.faces.push(f1);
        self.faces.push(f2);
    }
}

/// Finds any cycle in `g` as a vertex list, or `None` if `g` is a forest.
fn find_cycle(g: &Graph) -> Option<Vec<VertexId>> {
    let n = g.vertex_count();
    let mut depth: Vec<Option<u32>> = vec![None; n];
    let mut parent: Vec<Option<VertexId>> = vec![None; n];
    for root in g.vertices() {
        if depth[root.index()].is_some() {
            continue;
        }
        // Iterative DFS.
        depth[root.index()] = Some(0);
        let mut stack = vec![(root, 0usize)];
        while let Some(&mut (v, ref mut next)) = stack.last_mut() {
            if *next < g.degree(v) {
                let w = g.neighbors(v)[*next];
                *next += 1;
                if depth[w.index()].is_none() {
                    depth[w.index()] = Some(depth[v.index()].unwrap() + 1);
                    parent[w.index()] = Some(v);
                    stack.push((w, 0));
                } else if Some(w) != parent[v.index()] && depth[w.index()] < depth[v.index()] {
                    // Back edge (v, w): cycle is w -> ... -> v via parents.
                    let mut cycle = vec![v];
                    let mut cur = v;
                    while cur != w {
                        cur = parent[cur.index()].expect("w is an ancestor of v");
                        cycle.push(cur);
                    }
                    cycle.reverse();
                    return Some(cycle);
                }
            } else {
                stack.pop();
            }
        }
    }
    None
}

#[cfg(test)]
mod tests {
    use super::*;
    use planar_graph::RotationSystem;

    fn embed_and_verify(g: &Graph) -> RotationSystem {
        let rot = embed_biconnected(g).expect("graph should be planar");
        let rs = RotationSystem::new(g, rot).expect("valid rotation");
        assert!(rs.is_planar_embedding(), "embedding must have genus 0");
        rs
    }

    #[test]
    fn cycle_embeds_with_two_faces() {
        let g = Graph::from_edges(5, [(0, 1), (1, 2), (2, 3), (3, 4), (4, 0)]).unwrap();
        let rs = embed_and_verify(&g);
        assert_eq!(rs.face_count(), 2);
    }

    #[test]
    fn k4_embeds_with_four_faces() {
        let g = Graph::from_edges(4, [(0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3)]).unwrap();
        let rs = embed_and_verify(&g);
        assert_eq!(rs.face_count(), 4);
    }

    #[test]
    fn cube_graph_embeds() {
        // Q3: 8 vertices, 12 edges, 6 faces.
        let g = Graph::from_edges(
            8,
            [
                (0, 1),
                (1, 2),
                (2, 3),
                (3, 0), // bottom
                (4, 5),
                (5, 6),
                (6, 7),
                (7, 4), // top
                (0, 4),
                (1, 5),
                (2, 6),
                (3, 7), // pillars
            ],
        )
        .unwrap();
        let rs = embed_and_verify(&g);
        assert_eq!(rs.face_count(), 6);
    }

    #[test]
    fn maximal_planar_octahedron() {
        // Octahedron: 6 vertices, 12 edges, 8 triangular faces.
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
        let rs = embed_and_verify(&g);
        assert_eq!(rs.face_count(), 8);
        for f in rs.faces() {
            assert_eq!(f.len(), 3);
        }
    }

    #[test]
    fn k5_is_nonplanar() {
        let mut edges = Vec::new();
        for u in 0..5u32 {
            for v in (u + 1)..5 {
                edges.push((u, v));
            }
        }
        let g = Graph::from_edges(5, edges).unwrap();
        // K5 has m = 10 > 3*5 - 6 = 9: caught by the edge bound.
        assert!(matches!(
            embed_biconnected(&g),
            Err(PlanarityError::TooManyEdges { .. })
        ));
    }

    #[test]
    fn k33_is_nonplanar() {
        let g = Graph::from_edges(
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
        // K3,3 passes the edge bound (9 <= 12) so DMP itself must reject it.
        assert!(matches!(
            embed_biconnected(&g),
            Err(PlanarityError::NonPlanar { .. })
        ));
    }

    #[test]
    fn k5_minus_edge_is_planar() {
        let mut edges = Vec::new();
        for u in 0..5u32 {
            for v in (u + 1)..5 {
                if (u, v) != (0, 1) {
                    edges.push((u, v));
                }
            }
        }
        let g = Graph::from_edges(5, edges).unwrap();
        embed_and_verify(&g);
    }

    #[test]
    fn k33_minus_edge_is_planar() {
        let g = Graph::from_edges(
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
            ],
        )
        .unwrap();
        embed_and_verify(&g);
    }

    #[test]
    fn single_edge_block() {
        let g = Graph::from_edges(2, [(0, 1)]).unwrap();
        let rot = embed_biconnected(&g).unwrap();
        assert_eq!(rot[0], vec![VertexId(1)]);
        assert_eq!(rot[1], vec![VertexId(0)]);
    }

    #[test]
    fn find_cycle_on_forest_is_none() {
        let g = Graph::from_edges(4, [(0, 1), (1, 2), (1, 3)]).unwrap();
        assert!(find_cycle(&g).is_none());
    }

    #[test]
    fn find_cycle_returns_real_cycle() {
        let g = Graph::from_edges(6, [(0, 1), (1, 2), (2, 3), (3, 0), (3, 4), (4, 5)]).unwrap();
        let c = find_cycle(&g).unwrap();
        assert!(c.len() >= 3);
        for i in 0..c.len() {
            assert!(g.has_edge(c[i], c[(i + 1) % c.len()]));
        }
    }

    #[test]
    fn grid_block_embeds() {
        // 4x4 grid: biconnected, 16 vertices, 24 edges, 10 faces.
        let idx = |r: u32, c: u32| r * 4 + c;
        let mut edges = Vec::new();
        for r in 0..4u32 {
            for c in 0..4u32 {
                if c + 1 < 4 {
                    edges.push((idx(r, c), idx(r, c + 1)));
                }
                if r + 1 < 4 {
                    edges.push((idx(r, c), idx(r + 1, c)));
                }
            }
        }
        let g = Graph::from_edges(16, edges).unwrap();
        let rs = embed_and_verify(&g);
        assert_eq!(rs.face_count(), 10); // Euler: F = 2 - V + E = 2 - 16 + 24
    }
}
