//! The left-right (LR) planarity test with embedding extraction.
//!
//! This is the linear-time centralized embedder the paper's footnote 2
//! assumes (the role Hopcroft–Tarjan plays there), in the formulation of
//! de Fraysseix, Ossona de Mendez and Rosenstiehl as laid out in
//! U. Brandes, *The Left-Right Planarity Test* (2009). It runs on any simple
//! graph — disconnected, with cut vertices, or 3-connected — in one pass
//! over a DFS forest; no block decomposition is needed.
//!
//! Five phases, each `O(n + m)`:
//!
//! 1. **Orientation.** A DFS orients every edge away from the root (tree
//!    edges) or towards an ancestor (back edges) and computes each edge's
//!    lowpoint, second lowpoint and *nesting depth*.
//! 2. **Testing.** A second DFS visits the out-edges of every vertex by
//!    nesting depth and maintains a stack of conflict pairs of return-edge
//!    intervals. Two return edges that must lie on different sides of the
//!    tree are recorded relative to each other (`reference`/`side`); an
//!    interval that has to sit on both sides at once proves non-planarity.
//! 3. **Sign resolution.** Each edge's side is resolved from the chain of
//!    relative sides to an absolute left (−1) or right (+1).
//! 4. **Ordering.** Out-edges are re-sorted by signed nesting depth; this is
//!    the rotation of each vertex restricted to its out-edges.
//! 5. **Embedding.** A third DFS inserts every in-edge next to the reference
//!    edges `left_ref`/`right_ref` of its target.
//!
//! Every DFS is iterative (an explicit stack), so path-like inputs with a
//! million vertices do not overflow a thread stack. Both sorts are counting
//! sorts, stable on edge id, and no hashed container is iterated, so the
//! output depends only on the graph's (sorted) adjacency order.

use planar_graph::{Graph, VertexId};

use crate::PlanarityError;

/// Sentinel for "no edge" / "no vertex" / "unvisited".
const NONE: u32 = u32::MAX;

/// A set of return edges that must all lie on the same side, represented by
/// its lowest and highest member (`NONE` when empty).
#[derive(Clone, Copy, Debug)]
struct Interval {
    low: u32,
    high: u32,
}

impl Interval {
    const EMPTY: Interval = Interval {
        low: NONE,
        high: NONE,
    };

    fn is_empty(self) -> bool {
        self.low == NONE && self.high == NONE
    }
}

/// Two intervals whose edges must lie on different sides.
#[derive(Clone, Copy, Debug)]
struct ConflictPair {
    left: Interval,
    right: Interval,
}

impl ConflictPair {
    const EMPTY: ConflictPair = ConflictPair {
        left: Interval::EMPTY,
        right: Interval::EMPTY,
    };

    fn swap(&mut self) {
        std::mem::swap(&mut self.left, &mut self.right);
    }
}

/// Embeds `g`, returning per-vertex rotations, or
/// [`PlanarityError::NonPlanar`] if `g` has no planar embedding.
///
/// The caller is expected to have applied the `m <= 3n - 6` density guard;
/// the test itself is correct on denser inputs too, just not linear.
pub(crate) fn embed_lr(g: &Graph) -> Result<Vec<Vec<VertexId>>, PlanarityError> {
    let mut lr = tested(g)?;
    lr.resolve_signs();
    lr.sort_out_edges(true);
    Ok(lr.embed())
}

/// Runs the left-right test (phases 1 and 2) on `g` and stops there:
/// [`PlanarityError::NonPlanar`] if `g` has no planar embedding, no
/// rotations built otherwise.
pub(crate) fn test_lr(g: &Graph) -> Result<(), PlanarityError> {
    tested(g).map(|_| ())
}

/// Orients `g` and runs the LR partition test.
fn tested(g: &Graph) -> Result<LeftRight, PlanarityError> {
    let mut lr = LeftRight::orient(g);
    lr.sort_out_edges(false);
    lr.test()?;
    Ok(lr)
}

/// The LR state. Vertices are indexed `0..n`; oriented edges `0..m` in the
/// order the orientation DFS met them.
struct LeftRight {
    // Per vertex.
    height: Vec<u32>,
    parent_edge: Vec<u32>,
    roots: Vec<u32>,
    /// Out-edges of `v` are `out[out_off[v]..out_off[v + 1]]`, sorted by
    /// (signed, after phase 3) nesting depth.
    out_off: Vec<u32>,
    out: Vec<u32>,
    // Per oriented edge.
    src: Vec<u32>,
    dst: Vec<u32>,
    lowpt: Vec<u32>,
    /// Second lowpoint; only needed during orientation.
    lowpt2: Vec<u32>,
    nesting: Vec<i64>,
    reference: Vec<u32>,
    side: Vec<i8>,
    lowpt_edge: Vec<u32>,
    stack_bottom: Vec<u32>,
    /// The conflict-pair stack `S`.
    stack: Vec<ConflictPair>,
}

impl LeftRight {
    /// Phase 1: orients `g` by an iterative DFS and computes lowpoints and
    /// nesting depths.
    fn orient(g: &Graph) -> Self {
        let n = g.vertex_count();
        let m = g.edge_count();
        let mut lr = LeftRight {
            height: vec![NONE; n],
            parent_edge: vec![NONE; n],
            roots: Vec::new(),
            out_off: vec![0; n + 1],
            out: vec![NONE; m],
            src: Vec::with_capacity(m),
            dst: Vec::with_capacity(m),
            lowpt: Vec::with_capacity(m),
            lowpt2: Vec::with_capacity(m),
            nesting: vec![0; m],
            reference: vec![NONE; m],
            side: vec![1; m],
            lowpt_edge: vec![NONE; m],
            stack_bottom: vec![NONE; m],
            stack: Vec::new(),
        };
        // (vertex, index of the next neighbor to scan)
        let mut dfs: Vec<(u32, u32)> = Vec::new();
        for root in 0..n {
            if lr.height[root] != NONE {
                continue;
            }
            lr.height[root] = 0;
            lr.roots.push(root as u32);
            dfs.push((root as u32, 0));
            while let Some(&mut (v, ref mut next)) = dfs.last_mut() {
                let vi = v as usize;
                let nbrs = g.neighbors(VertexId(v));
                if (*next as usize) < nbrs.len() {
                    let w = nbrs[*next as usize].0;
                    *next += 1;
                    let wi = w as usize;
                    if lr.height[wi] == NONE {
                        // Tree edge; finished when `w` is popped.
                        let e = lr.push_edge(v, w, lr.height[vi]);
                        lr.parent_edge[wi] = e;
                        lr.height[wi] = lr.height[vi] + 1;
                        dfs.push((w, 0));
                    } else if lr.height[wi] < lr.height[vi]
                        && lr.src[lr.parent_edge[vi] as usize] != w
                    {
                        // Back edge to a proper ancestor other than the
                        // parent. (A neighbor deeper than `v` is a finished
                        // descendant that already oriented the edge.)
                        let e = lr.push_edge(v, w, lr.height[wi]);
                        lr.finish_edge(e);
                    }
                } else {
                    dfs.pop();
                    let pe = lr.parent_edge[vi];
                    if pe != NONE {
                        lr.finish_edge(pe);
                    }
                }
            }
        }
        debug_assert_eq!(lr.src.len(), m);
        lr.lowpt2 = Vec::new();
        for &s in &lr.src {
            lr.out_off[s as usize + 1] += 1;
        }
        for v in 0..n {
            lr.out_off[v + 1] += lr.out_off[v];
        }
        lr
    }

    /// Orients the edge `v -> w` with lowpoint `low`; returns its id.
    fn push_edge(&mut self, v: u32, w: u32, low: u32) -> u32 {
        let e = self.src.len() as u32;
        self.src.push(v);
        self.dst.push(w);
        self.lowpt.push(low);
        self.lowpt2.push(self.height[v as usize]);
        e
    }

    /// Sets the nesting depth of the finished edge `e` and folds its
    /// lowpoints into the parent edge of its source.
    fn finish_edge(&mut self, e: u32) {
        let e = e as usize;
        let v = self.src[e] as usize;
        let chordal = self.lowpt2[e] < self.height[v];
        self.nesting[e] = 2 * i64::from(self.lowpt[e]) + i64::from(chordal);
        let pe = self.parent_edge[v];
        if pe == NONE {
            return;
        }
        let pe = pe as usize;
        let (low, low2) = (self.lowpt[e], self.lowpt2[e]);
        if low < self.lowpt[pe] {
            self.lowpt2[pe] = self.lowpt[pe].min(low2);
            self.lowpt[pe] = low;
        } else if low > self.lowpt[pe] {
            self.lowpt2[pe] = self.lowpt2[pe].min(low);
        } else {
            self.lowpt2[pe] = self.lowpt2[pe].min(low2);
        }
    }

    /// Phases 2 and 4 ordering: fills `out` with each vertex's out-edges in
    /// increasing nesting depth, ties broken by edge id. Nesting depths lie
    /// in `0..=2n+1` before sign resolution and in `-(2n+1)..=2n+1` after,
    /// so one global counting sort does it in linear time.
    fn sort_out_edges(&mut self, signed: bool) {
        let n = self.height.len();
        let m = self.src.len();
        let span = 2 * n as i64 + 2;
        let shift = if signed { span } else { 0 };
        let buckets = (span + shift) as usize;
        let key = |e: usize| (self.nesting[e] + shift) as usize;
        let mut start = vec![0u32; buckets + 1];
        for e in 0..m {
            start[key(e) + 1] += 1;
        }
        for k in 0..buckets {
            start[k + 1] += start[k];
        }
        let mut by_depth = vec![0u32; m];
        for e in 0..m {
            let k = key(e);
            by_depth[start[k] as usize] = e as u32;
            start[k] += 1;
        }
        let mut fill: Vec<u32> = self.out_off[..n].to_vec();
        for &e in &by_depth {
            let v = self.src[e as usize] as usize;
            self.out[fill[v] as usize] = e;
            fill[v] += 1;
        }
    }

    fn conflicting(&self, i: Interval, b: u32) -> bool {
        !i.is_empty() && self.lowpt[i.high as usize] > self.lowpt[b as usize]
    }

    /// The lowest return point of any edge in `p`.
    fn lowest(&self, p: &ConflictPair) -> u32 {
        let low = |i: Interval| {
            if i.low == NONE {
                NONE
            } else {
                self.lowpt[i.low as usize]
            }
        };
        low(p.left).min(low(p.right))
    }

    /// Sets `reference[e] = r`, ignoring an absent `e`.
    fn set_ref(&mut self, e: u32, r: u32) {
        if e != NONE {
            self.reference[e as usize] = r;
        }
    }

    /// Phase 2: the LR partition test, by an iterative DFS over the
    /// nesting-ordered out-edges.
    fn test(&mut self) -> Result<(), PlanarityError> {
        let n = self.height.len();
        let mut pos: Vec<u32> = self.out_off[..n].to_vec();
        let mut dfs: Vec<u32> = Vec::new();
        // Edges whose constraints have been integrated without conflict.
        let mut integrated = 0usize;
        let roots = std::mem::take(&mut self.roots);
        for &root in &roots {
            dfs.push(root);
            'visit: while let Some(&v) = dfs.last() {
                let vi = v as usize;
                let e = self.parent_edge[vi];
                let first = self.out_off[vi];
                while pos[vi] < self.out_off[vi + 1] {
                    let ei = self.out[pos[vi] as usize];
                    let eu = ei as usize;
                    if self.stack_bottom[eu] == NONE {
                        self.stack_bottom[eu] = self.stack.len() as u32;
                        let w = self.dst[eu];
                        if self.parent_edge[w as usize] == ei {
                            // Tree edge: test the subtree first.
                            dfs.push(w);
                            continue 'visit;
                        }
                        self.lowpt_edge[eu] = ei;
                        self.stack.push(ConflictPair {
                            left: Interval::EMPTY,
                            right: Interval { low: ei, high: ei },
                        });
                    }
                    // Integrate the return edges of `ei`.
                    if self.lowpt[eu] < self.height[vi] {
                        if pos[vi] == first {
                            self.lowpt_edge[e as usize] = self.lowpt_edge[eu];
                        } else if !self.add_constraints(ei, e) {
                            return Err(PlanarityError::NonPlanar {
                                embedded_edges: integrated,
                            });
                        }
                    }
                    integrated += 1;
                    pos[vi] += 1;
                }
                if e != NONE {
                    self.remove_back_edges(e);
                }
                dfs.pop();
            }
        }
        self.roots = roots;
        Ok(())
    }

    /// Merges the return edges of `ei` (all above its stack bottom) into one
    /// conflict pair together with the earlier siblings' intervals they
    /// conflict with. Returns `false` if some interval would have to lie on
    /// both sides.
    fn add_constraints(&mut self, ei: u32, e: u32) -> bool {
        let mut p = ConflictPair::EMPTY;
        let bottom = self.stack_bottom[ei as usize] as usize;
        // Merge the return edges of `ei` into `p.right`.
        loop {
            let mut q = self.stack.pop().expect("ei has return edges");
            if !q.left.is_empty() {
                q.swap();
            }
            if !q.left.is_empty() {
                return false;
            }
            if self.lowpt[q.right.low as usize] > self.lowpt[e as usize] {
                if p.right.is_empty() {
                    p.right = q.right;
                } else {
                    self.set_ref(p.right.low, q.right.high);
                }
                p.right.low = q.right.low;
            } else {
                // Align with the lowpoint edge of the parent.
                self.set_ref(q.right.low, self.lowpt_edge[e as usize]);
            }
            if self.stack.len() == bottom {
                break;
            }
        }
        // Merge the conflicting return edges of earlier siblings into `p.left`.
        while let Some(&top) = self.stack.last() {
            if !self.conflicting(top.left, ei) && !self.conflicting(top.right, ei) {
                break;
            }
            let mut q = top;
            self.stack.pop();
            if self.conflicting(q.right, ei) {
                q.swap();
            }
            if self.conflicting(q.right, ei) {
                return false;
            }
            // The interval below lowpt(ei) joins `p.right`.
            self.set_ref(p.right.low, q.right.high);
            if q.right.low != NONE {
                p.right.low = q.right.low;
            }
            if p.left.is_empty() {
                p.left = q.left;
            } else {
                self.set_ref(p.left.low, q.left.high);
            }
            p.left.low = q.left.low;
        }
        if !(p.left.is_empty() && p.right.is_empty()) {
            self.stack.push(p);
        }
        true
    }

    /// Drops the back edges ending at the source `u` of the tree edge `e`
    /// now that `e`'s subtree is done, and records `e`'s reference edge.
    fn remove_back_edges(&mut self, e: u32) {
        let u = self.src[e as usize];
        let hu = self.height[u as usize];
        // Whole conflict pairs returning to `u`.
        while let Some(top) = self.stack.last() {
            if self.lowest(top) != hu {
                break;
            }
            let p = self.stack.pop().expect("non-empty");
            if p.left.low != NONE {
                self.side[p.left.low as usize] = -1;
            }
        }
        // One more pair may end partly at `u`: trim both intervals.
        if let Some(mut p) = self.stack.pop() {
            while p.left.high != NONE && self.dst[p.left.high as usize] == u {
                p.left.high = self.reference[p.left.high as usize];
            }
            if p.left.high == NONE && p.left.low != NONE {
                self.reference[p.left.low as usize] = p.right.low;
                self.side[p.left.low as usize] = -1;
                p.left.low = NONE;
            }
            while p.right.high != NONE && self.dst[p.right.high as usize] == u {
                p.right.high = self.reference[p.right.high as usize];
            }
            if p.right.high == NONE && p.right.low != NONE {
                self.reference[p.right.low as usize] = p.left.low;
                self.side[p.right.low as usize] = -1;
                p.right.low = NONE;
            }
            self.stack.push(p);
        }
        // The side of `e` is the side of a highest return edge.
        if self.lowpt[e as usize] < hu {
            let top = self.stack.last().expect("e has a return edge below u");
            let (hl, hr) = (top.left.high, top.right.high);
            self.reference[e as usize] = if hl != NONE
                && (hr == NONE || self.lowpt[hl as usize] > self.lowpt[hr as usize])
            {
                hl
            } else {
                hr
            };
        }
    }

    /// Phase 3: resolves every relative side to an absolute one and signs
    /// the nesting depths. Each reference chain is walked once.
    fn resolve_signs(&mut self) {
        let mut chain: Vec<u32> = Vec::new();
        for e in 0..self.src.len() {
            let mut x = e as u32;
            while self.reference[x as usize] != NONE {
                chain.push(x);
                x = self.reference[x as usize];
            }
            while let Some(y) = chain.pop() {
                let y = y as usize;
                let r = self.reference[y] as usize;
                self.side[y] *= self.side[r];
                self.reference[y] = NONE;
            }
            self.nesting[e] *= i64::from(self.side[e]);
        }
    }

    /// Phase 5: builds the rotations. Half-edge `2e` sits at `src[e]` and
    /// points to `dst[e]`; half-edge `2e + 1` is its twin at `dst[e]`.
    fn embed(self) -> Vec<Vec<VertexId>> {
        let n = self.height.len();
        let mut rings = Rings {
            cw: vec![NONE; 2 * self.src.len()],
            ccw: vec![NONE; 2 * self.src.len()],
            first: vec![NONE; n],
        };
        // The out-edges in signed nesting order.
        for (v, range) in self.out_off.windows(2).enumerate() {
            let outs = &self.out[range[0] as usize..range[1] as usize];
            for (i, &e) in outs.iter().enumerate() {
                rings.link(2 * e, 2 * outs[(i + 1) % outs.len()]);
            }
            if let Some(&e) = outs.first() {
                rings.first[v] = 2 * e;
            }
        }
        let mut left_ref = vec![NONE; n];
        let mut right_ref = vec![NONE; n];
        let mut pos: Vec<u32> = self.out_off[..n].to_vec();
        let mut dfs: Vec<u32> = Vec::new();
        for &root in &self.roots {
            dfs.push(root);
            while let Some(&v) = dfs.last() {
                let vi = v as usize;
                if pos[vi] == self.out_off[vi + 1] {
                    dfs.pop();
                    continue;
                }
                let ei = self.out[pos[vi] as usize];
                pos[vi] += 1;
                let w = self.dst[ei as usize] as usize;
                let twin = 2 * ei + 1;
                if self.parent_edge[w] == ei {
                    // The parent becomes the first neighbor of `w`.
                    rings.insert_before(w, rings.first[w], twin);
                    left_ref[vi] = 2 * ei;
                    right_ref[vi] = 2 * ei;
                    dfs.push(w as u32);
                } else if self.side[ei as usize] == 1 {
                    rings.insert_after(right_ref[w], twin);
                } else {
                    rings.insert_before(w, left_ref[w], twin);
                    left_ref[w] = twin;
                }
            }
        }
        let target = |h: u32| {
            let e = (h / 2) as usize;
            VertexId(if h & 1 == 0 { self.dst[e] } else { self.src[e] })
        };
        rings
            .first
            .iter()
            .map(|&start| {
                let mut order = Vec::new();
                let mut h = start;
                while h != NONE {
                    order.push(target(h));
                    h = rings.cw[h as usize];
                    if h == start {
                        break;
                    }
                }
                order
            })
            .collect()
    }
}

/// Each vertex's half-edges as a circular doubly linked list in clockwise
/// order, starting at `first[v]`.
struct Rings {
    cw: Vec<u32>,
    ccw: Vec<u32>,
    first: Vec<u32>,
}

impl Rings {
    fn link(&mut self, a: u32, b: u32) {
        self.cw[a as usize] = b;
        self.ccw[b as usize] = a;
    }

    /// Inserts `h` directly clockwise after `r`.
    fn insert_after(&mut self, r: u32, h: u32) {
        let next = self.cw[r as usize];
        self.link(r, h);
        self.link(h, next);
    }

    /// Inserts `h` directly counter-clockwise before `r` in the ring of `v`
    /// (or starts the ring when `r` is `NONE`); `h` takes over as first if
    /// `r` was.
    fn insert_before(&mut self, v: usize, r: u32, h: u32) {
        if r == NONE {
            self.link(h, h);
            self.first[v] = h;
            return;
        }
        let prev = self.ccw[r as usize];
        self.link(prev, h);
        self.link(h, r);
        if self.first[v] == r {
            self.first[v] = h;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use planar_graph::RotationSystem;

    fn embed_and_verify(g: &Graph) -> RotationSystem {
        let rot = embed_lr(g).expect("graph should be planar");
        let rs = RotationSystem::new(g, rot).expect("valid rotation");
        assert!(rs.is_planar_embedding(), "embedding must have genus 0");
        rs
    }

    fn k33() -> Graph {
        Graph::from_edges(
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
        .unwrap()
    }

    #[test]
    fn empty_and_edgeless() {
        assert!(embed_lr(&Graph::new(0)).unwrap().is_empty());
        let rot = embed_lr(&Graph::new(3)).unwrap();
        assert!(rot.iter().all(Vec::is_empty));
    }

    #[test]
    fn k4_has_four_faces() {
        let g = Graph::from_edges(4, [(0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3)]).unwrap();
        assert_eq!(embed_and_verify(&g).face_count(), 4);
    }

    #[test]
    fn cube_has_six_faces() {
        let g = Graph::from_edges(
            8,
            [
                (0, 1),
                (1, 2),
                (2, 3),
                (3, 0),
                (4, 5),
                (5, 6),
                (6, 7),
                (7, 4),
                (0, 4),
                (1, 5),
                (2, 6),
                (3, 7),
            ],
        )
        .unwrap();
        assert_eq!(embed_and_verify(&g).face_count(), 6);
    }

    #[test]
    fn k33_and_k5_are_nonplanar() {
        assert!(matches!(
            embed_lr(&k33()),
            Err(PlanarityError::NonPlanar { .. })
        ));
        // K5 is past the density guard; the test itself rejects it too.
        let mut edges = Vec::new();
        for u in 0..5u32 {
            for v in (u + 1)..5 {
                edges.push((u, v));
            }
        }
        let k5 = Graph::from_edges(5, edges).unwrap();
        assert!(matches!(
            embed_lr(&k5),
            Err(PlanarityError::NonPlanar { .. })
        ));
    }

    #[test]
    fn k33_minus_any_edge_is_planar() {
        let g = k33();
        for e in g.edges() {
            let mut h = g.clone();
            h.remove_edge(e.lo(), e.hi()).unwrap();
            embed_and_verify(&h);
        }
    }

    #[test]
    fn nonplanar_count_is_below_m() {
        let Err(PlanarityError::NonPlanar { embedded_edges }) = embed_lr(&k33()) else {
            panic!("K3,3 is not planar");
        };
        assert!(embedded_edges < 9);
    }

    #[test]
    fn forest_and_cut_vertices() {
        let g = Graph::from_edges(
            9,
            [
                (0, 1),
                (1, 2),
                (0, 2),
                (2, 3),
                (3, 4),
                (2, 4),
                (4, 5),
                (6, 7),
                (7, 8),
            ],
        )
        .unwrap();
        embed_and_verify(&g);
    }
}
