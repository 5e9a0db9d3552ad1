//! The merge phase (Section 5): combining the parts `P_0, P_1, ..., P_k` of
//! one recursion node into a single embedded part, following the
//! *unrestricted path-coordinated merge* algorithm of Section 5.3 step by
//! step.
//!
//! Structure (numbers match the paper's algorithm):
//!
//! 1. number the `P_0` vertices;
//! 2. two iterations of { (a) low-connection computation, (b)
//!    vertex-coordinated merges per coordinator, (c)/(d) retirement of
//!    single-connection parts, (e) coordinator copy split-off, (f) Lemma 5.3
//!    symmetry breaking on the inter-part graph, (g)/(h) star merges, (i)
//!    setting aside long monotone paths };
//!
//! 3.–5. two-connection parts: local embedding, delivery of orders, and
//! the keep-highest-ID rule;
//! 6. the restricted path-coordinated merge with `P_0` as coordinator.
//!
//! **Simulation strategy** (DESIGN.md §1): the *control flow* above runs
//! exactly as written, with every data movement charged — kernel rounds for
//! the symmetry breaking, packet-scheduled transfers for summaries and
//! order deliveries, and `O(part diameter)` housekeeping per merge event
//! (Remark 1's upcast/downcast simulation). The merges build no
//! *embedding content*: a [`PartState`] is its member set and leader. With
//! `check` set, each merged part is embedded by the pinned embedder
//! ([`planar_lib::embed_pinned`], via `verify_part`) to test the safety
//! consequence, and that embedding is discarded; per Observation 3.2 the
//! charged summaries carry exactly the information a coordinator-side
//! solver would need.

use std::collections::{BTreeMap, BTreeSet, HashMap, HashSet, VecDeque};

use congest_sim::routing::{schedule, Transfer};
use congest_sim::{Metrics, Phase, PhaseRounds};
use planar_graph::{Graph, VertexId};

use crate::error::EmbedError;
use crate::exec::ExecutionContext;
use crate::parts::{summary_words, verify_part, PartState};
use crate::stats::MergeStats;
use crate::symmetry::symmetry_break_ctx;

/// Result of merging one recursion node.
#[derive(Clone, Debug)]
pub struct MergeOutcome {
    /// The merged part covering the whole subproblem `H`.
    pub part: PartState,
    /// Total charged cost of the merge.
    pub metrics: Metrics,
    /// Structural statistics (validates the `O(D)` part-count argument).
    pub stats: MergeStats,
}

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum Status {
    Active,
    Paused,
    Retired,
}

struct MergeCtx<'a, 'g> {
    exec: &'a mut ExecutionContext<'g>,
    g: &'g Graph,
    p0: Vec<VertexId>,
    p0_pos: HashMap<VertexId, usize>,
    h_set: HashSet<VertexId>,
    parts: Vec<PartState>,
    status: Vec<Status>,
    part_of: HashMap<VertexId, usize>,
    check: bool,
    metrics: Metrics,
    stats: MergeStats,
}

/// Merges `P_0` with the hanging parts into one part covering the whole
/// subproblem, through `exec`: the one kernel protocol it runs (the
/// symmetry-breaking step) executes on the context's kernel with its
/// reliability policy; the routed summary movements are charged
/// analytically and need no protection.
///
/// # Errors
///
/// * [`EmbedError::NonPlanar`] if a merge has no planar completion;
/// * [`EmbedError::Internal`] if a framework invariant (safety, Def. 3.1)
///   fails — this would falsify the paper's Lemma 4.1 and is always a bug.
pub fn merge_parts(
    exec: &mut ExecutionContext<'_>,
    p0: Vec<VertexId>,
    hanging: Vec<PartState>,
    check: bool,
) -> Result<MergeOutcome, EmbedError> {
    let g = exec.graph();
    let mut h_members: Vec<VertexId> = p0.clone();
    for p in &hanging {
        h_members.extend_from_slice(&p.members);
    }
    h_members.sort();
    h_members.dedup();

    let p0_pos: HashMap<VertexId, usize> = p0.iter().enumerate().map(|(i, &v)| (v, i)).collect();
    let h_set: HashSet<VertexId> = h_members.iter().copied().collect();
    let mut part_of = HashMap::new();
    for (i, p) in hanging.iter().enumerate() {
        for &v in &p.members {
            part_of.insert(v, i);
        }
    }
    let mut ctx = MergeCtx {
        exec,
        g,
        p0,
        p0_pos,
        h_set,
        status: vec![Status::Active; hanging.len()],
        parts: hanging,
        part_of,
        check,
        metrics: Metrics::new(),
        stats: MergeStats::default(),
    };
    ctx.stats.subtree_size = h_members.len();
    ctx.stats.p0_len = ctx.p0.len();
    ctx.stats.initial_parts = ctx.parts.len();

    // Step 2: two functionally identical iterations.
    for _iteration in 0..2 {
        ctx.step_a_and_b()?; // low connections + vertex-coordinated merges
        ctx.step_c_d()?; // retire single-connection parts
        ctx.step_f_to_i()?; // symmetry breaking + star merges + pausing
    }
    ctx.steps_3_to_5()?; // two-connection parts
    let part = ctx.step_6(&h_members)?; // restricted path-coordinated merge

    // Attribute every round not already claimed by the symmetry-breaking
    // sub-step to the merge phase, so the breakdown sums to `rounds`.
    let mut metrics = ctx.metrics;
    metrics.phase_rounds.merge = metrics.rounds - metrics.phase_rounds.symmetry;

    Ok(MergeOutcome {
        part,
        metrics,
        stats: ctx.stats,
    })
}

impl MergeCtx<'_, '_> {
    /// Indices of the `P_0` vertices a part connects to.
    fn connections(&self, idx: usize) -> BTreeSet<usize> {
        let mut out = BTreeSet::new();
        for &v in &self.parts[idx].members {
            for &w in self.g.neighbors(v) {
                if let Some(&pos) = self.p0_pos.get(&w) {
                    out.insert(pos);
                }
            }
        }
        out
    }

    /// Indices of other non-retired parts a part shares an edge with.
    fn part_neighbors(&self, idx: usize) -> BTreeSet<usize> {
        let mut out = BTreeSet::new();
        for &v in &self.parts[idx].members {
            for &w in self.g.neighbors(v) {
                if let Some(&j) = self.part_of.get(&w) {
                    if j != idx && self.status[j] != Status::Retired {
                        out.insert(j);
                    }
                }
            }
        }
        out
    }

    /// Whether the part has a half-embedded edge leaving `H` entirely.
    fn has_outside(&self, idx: usize) -> bool {
        self.parts[idx]
            .members
            .iter()
            .any(|&v| self.g.neighbors(v).iter().any(|w| !self.h_set.contains(w)))
    }

    /// The part's attachment vertices adjacent to `P_0` position `pos`.
    fn attachments_to(&self, idx: usize, pos: usize) -> Vec<VertexId> {
        let coord = self.p0[pos];
        self.parts[idx]
            .members
            .iter()
            .copied()
            .filter(|&v| self.g.has_edge(v, coord))
            .collect()
    }

    /// The part's attachment vertices adjacent to any vertex of `targets` —
    /// the *merge-relevant* attachments whose interface structure must be
    /// shipped (the compressed-PQ-tree principle: a merge summary carries
    /// only the degrees of freedom the merge actually touches).
    fn attachments_toward(&self, idx: usize, targets: &HashSet<VertexId>) -> Vec<VertexId> {
        self.parts[idx]
            .members
            .iter()
            .copied()
            .filter(|&v| self.g.neighbors(v).iter().any(|w| targets.contains(w)))
            .collect()
    }

    /// BFS path from `from` to `to` within `allowed ∪ {from, to}`.
    fn path_within(
        &self,
        allowed: &HashSet<VertexId>,
        from: VertexId,
        to: VertexId,
    ) -> Result<Vec<VertexId>, EmbedError> {
        if from == to {
            return Ok(vec![from]);
        }
        let mut pred: HashMap<VertexId, VertexId> = HashMap::new();
        let mut queue = VecDeque::from([from]);
        let mut seen: HashSet<VertexId> = HashSet::from([from]);
        while let Some(v) = queue.pop_front() {
            for &w in self.g.neighbors(v) {
                if w == to {
                    let mut path = vec![to, v];
                    let mut cur = v;
                    while let Some(&p) = pred.get(&cur) {
                        path.push(p);
                        cur = p;
                    }
                    path.reverse();
                    return Ok(path);
                }
                if allowed.contains(&w) && seen.insert(w) {
                    pred.insert(w, v);
                    queue.push_back(w);
                }
            }
        }
        Err(EmbedError::Internal(format!(
            "no route from {from} to {to} within part"
        )))
    }

    /// Routing region of a part: its members plus the `P_0` spine (the
    /// coordinator copies of step 2e make the spine usable by every part).
    fn region(&self, idxs: &[usize]) -> HashSet<VertexId> {
        let mut allowed: HashSet<VertexId> = self.p0.iter().copied().collect();
        for &i in idxs {
            allowed.extend(self.parts[i].members.iter().copied());
        }
        allowed
    }

    /// Depth bound of a part's communication region (for Remark 1
    /// housekeeping charges): BFS depth from the leader within the region.
    fn region_depth(&self, idxs: &[usize]) -> usize {
        let allowed = self.region(idxs);
        let leader = self.parts[idxs[0]].leader;
        let mut depth: HashMap<VertexId, usize> = HashMap::from([(leader, 0)]);
        let mut queue = VecDeque::from([leader]);
        let mut max = 0;
        while let Some(v) = queue.pop_front() {
            let d = depth[&v];
            for &w in self.g.neighbors(v) {
                if allowed.contains(&w) && !depth.contains_key(&w) {
                    depth.insert(w, d + 1);
                    max = max.max(d + 1);
                    queue.push_back(w);
                }
            }
        }
        max
    }

    /// Charges the Remark 1 per-part housekeeping: one upcast + one downcast
    /// on the part's BFS tree.
    fn housekeeping(&self, idxs: &[usize]) -> Metrics {
        let size: usize = idxs.iter().map(|&i| self.parts[i].len()).sum();
        Metrics {
            rounds: 2 * self.region_depth(idxs) + 2,
            messages: 2 * size,
            words: 2 * size,
            max_words_edge_round: 1,
            ..Metrics::default()
        }
    }

    /// Merges the given parts (indices) into one; updates `part_of`; retains
    /// the merged part at `idxs[0]` and tombstones the rest.
    fn union_parts(&mut self, idxs: &[usize]) -> Result<usize, EmbedError> {
        debug_assert!(idxs.len() >= 2);
        let refs: Vec<&PartState> = idxs.iter().map(|&i| &self.parts[i]).collect();
        let merged = PartState::union(&refs);
        if self.check {
            verify_part(self.g, &merged.members)?;
        }
        let keep = idxs[0];
        for &v in &merged.members {
            self.part_of.insert(v, keep);
        }
        self.parts[keep] = merged;
        for &i in &idxs[1..] {
            self.parts[i] = PartState::new(vec![self.parts[i].leader]);
            self.parts[i].members.clear(); // tombstone
            self.status[i] = Status::Retired;
        }
        Ok(keep)
    }

    fn active_indices(&self) -> Vec<usize> {
        (0..self.parts.len())
            .filter(|&i| self.status[i] == Status::Active && !self.parts[i].is_empty())
            .collect()
    }

    /// Steps 2a + 2b: per-part low-connection computation, then a
    /// vertex-coordinated merge at every `P_0` vertex.
    fn step_a_and_b(&mut self) -> Result<(), EmbedError> {
        let actives = self.active_indices();
        if actives.is_empty() {
            return Ok(());
        }
        // (a) Each part computes its lowest-numbered P_0 connection:
        // one convergecast + one downcast per part, in parallel.
        let mut step = Metrics::new();
        for &i in &actives {
            step.join_parallel(self.housekeeping(&[i]));
        }
        self.metrics.add(step);

        // (b) Group by low connection; merge connected subsets.
        let mut groups: BTreeMap<usize, Vec<usize>> = BTreeMap::new();
        for &i in &actives {
            let low = *self
                .connections(i)
                .iter()
                .next()
                .ok_or_else(|| EmbedError::Internal("part without P_0 connection".into()))?;
            groups.entry(low).or_default().push(i);
        }
        let mut transfers: Vec<Transfer> = Vec::new();
        let mut merges: Vec<Vec<usize>> = Vec::new();
        for (&low, group) in &groups {
            // Connected components of the group under direct part adjacency.
            let group_set: HashSet<usize> = group.iter().copied().collect();
            let mut seen: HashSet<usize> = HashSet::new();
            for &start in group {
                if seen.contains(&start) {
                    continue;
                }
                let mut comp = vec![start];
                seen.insert(start);
                let mut stack = vec![start];
                while let Some(x) = stack.pop() {
                    for nb in self.part_neighbors(x) {
                        if group_set.contains(&nb) && seen.insert(nb) {
                            comp.push(nb);
                            stack.push(nb);
                        }
                    }
                }
                if comp.len() < 2 {
                    continue; // nothing to merge: the lone part stays silent
                }
                // Charge: every component member ships its merge-relevant
                // summary to the coordinator and receives decisions back.
                // Relevant attachments: those toward the coordinator and
                // toward the other parts of the component.
                let coord = self.p0[low];
                let mut targets: HashSet<VertexId> = HashSet::from([coord]);
                for &i in &comp {
                    targets.extend(self.parts[i].members.iter().copied());
                }
                for &i in &comp {
                    let atts = self.attachments_to(i, low);
                    let att = atts.first().copied().ok_or_else(|| {
                        EmbedError::Internal("low-connection without attachment".into())
                    })?;
                    let region = self.region(&[i]);
                    let mut path = self.path_within(&region, self.parts[i].leader, att)?;
                    path.push(coord);
                    let mut others = targets.clone();
                    for &v in &self.parts[i].members {
                        others.remove(&v);
                    }
                    let relevant = self.attachments_toward(i, &others);
                    let words = summary_words(self.g, &self.parts[i].members, &relevant);
                    let rev: Vec<VertexId> = path.iter().rev().copied().collect();
                    transfers.push(Transfer::new(path, words));
                    transfers.push(Transfer::new(rev, words));
                }
                merges.push(comp);
            }
        }
        self.metrics
            .add(schedule(self.g, &transfers, self.exec.sim().budget_words)?);
        let mut step = Metrics::new();
        for comp in merges {
            let kept = self.union_parts(&comp)?;
            step.join_parallel(self.housekeeping(&[kept]));
        }
        self.metrics.add(step);
        Ok(())
    }

    /// Steps 2c + 2d: retire parts connected to exactly one `P_0` vertex and
    /// to no other part. Without an outside connection (2c) they are done
    /// for good; with one (2d) they only rejoin at the very last step —
    /// either way they stop participating in the merge reduction.
    fn step_c_d(&mut self) -> Result<(), EmbedError> {
        let mut transfers: Vec<Transfer> = Vec::new();
        let mut step = Metrics::new();
        for i in self.active_indices() {
            let conns = self.connections(i);
            if conns.len() != 1 || !self.part_neighbors(i).is_empty() {
                continue;
            }
            let pos = *conns.iter().next().expect("one connection");
            let coord = self.p0[pos];
            // The part computes one fixed embedding (a pairwise merge with
            // {i}): housekeeping; then delivers the order of its connecting
            // edges to the coordinator: one word per connecting edge, in
            // parallel over those edges (plus the outside flag for 2d).
            step.join_parallel(self.housekeeping(&[i]));
            for att in self.attachments_to(i, pos) {
                transfers.push(Transfer::new(vec![att, coord], 2));
            }
            if self.has_outside(i) {
                self.stats.retired_single += 1; // 2d
            } else {
                self.stats.retired_single += 1; // 2c
            }
            self.status[i] = Status::Retired;
        }
        self.metrics.add(step);
        self.metrics
            .add(schedule(self.g, &transfers, self.exec.sim().budget_words)?);
        Ok(())
    }

    /// Steps 2e–2i: coordinator copies (free — routing already may use the
    /// spine), symmetry breaking on the inter-part graph, star merges, and
    /// pausing of long monotone paths.
    fn step_f_to_i(&mut self) -> Result<(), EmbedError> {
        let actives = self.active_indices();
        if actives.len() < 2 {
            return Ok(());
        }
        // Build the virtual inter-part graph, colored by low connection.
        let vidx: HashMap<usize, usize> =
            actives.iter().enumerate().map(|(vi, &i)| (i, vi)).collect();
        let mut gv = Graph::new(actives.len());
        let mut colors = vec![0u32; actives.len()];
        for (vi, &i) in actives.iter().enumerate() {
            colors[vi] = *self.connections(i).iter().next().unwrap_or(&0) as u32;
            for nb in self.part_neighbors(i) {
                if let Some(&vj) = vidx.get(&nb) {
                    if vi < vj {
                        gv.add_edge(VertexId::from_index(vi), VertexId::from_index(vj))
                            .ok();
                    }
                }
            }
        }
        // The symmetry-breaking segments run on the *virtual* inter-part
        // graph; enter the symmetry phase around them so the trace auditor
        // attributes the kernel segments to their own phase and a run
        // killed here degrades as symmetry-incomplete (their real-network
        // cost is charged analytically below, not by these kernel runs).
        self.exec.enter(Phase::Symmetry);
        let outcome = symmetry_break_ctx(self.exec, &gv, &colors)?;
        self.exec.enter(Phase::Merge);
        self.stats.symmetry_rounds_virtual += outcome.rounds;
        // Remark 1: each virtual round costs O(part diameter) real rounds.
        let max_depth = actives
            .iter()
            .map(|&i| self.region_depth(&[i]))
            .max()
            .unwrap_or(0);
        let sizes: usize = actives.iter().map(|&i| self.parts[i].len()).sum();
        let symmetry_rounds = outcome.rounds * (2 * max_depth + 2);
        self.metrics.add(Metrics {
            rounds: symmetry_rounds,
            messages: outcome.rounds * sizes,
            words: 2 * outcome.rounds * sizes,
            max_words_edge_round: 3,
            phase_rounds: PhaseRounds {
                symmetry: symmetry_rounds,
                ..PhaseRounds::default()
            },
            ..Metrics::default()
        });

        // (g)/(h): star merges (stars from the lemma plus 2-chains).
        let mut merge_groups: Vec<Vec<usize>> = Vec::new();
        for (center, leaves) in &outcome.stars {
            let mut group = vec![actives[center.index()]];
            group.extend(leaves.iter().map(|l| actives[l.index()]));
            merge_groups.push(group);
        }
        for chain in &outcome.chains {
            match chain.len() {
                2 => merge_groups.push(chain.iter().map(|c| actives[c.index()]).collect()),
                l if l >= 3 => {
                    // (i): set aside; these skip the next iteration.
                    self.stats.paused_paths += 1;
                    for c in chain {
                        self.status[actives[c.index()]] = Status::Paused;
                    }
                }
                _ => {}
            }
        }
        let mut transfers: Vec<Transfer> = Vec::new();
        let mut step = Metrics::new();
        for group in merge_groups {
            // Charge: each satellite ships its summary to the group head and
            // receives decisions back, routed within the union region.
            let head = group[0];
            let region = self.region(&group);
            let mut group_vertices: HashSet<VertexId> = HashSet::new();
            for &i in &group {
                group_vertices.extend(self.parts[i].members.iter().copied());
            }
            for &i in &group[1..] {
                let path =
                    self.path_within(&region, self.parts[i].leader, self.parts[head].leader)?;
                let mut others = group_vertices.clone();
                for &v in &self.parts[i].members {
                    others.remove(&v);
                }
                let relevant = self.attachments_toward(i, &others);
                let words = summary_words(self.g, &self.parts[i].members, &relevant);
                let rev: Vec<VertexId> = path.iter().rev().copied().collect();
                transfers.push(Transfer::new(path, words));
                transfers.push(Transfer::new(rev, words));
            }
            let kept = self.union_parts(&group)?;
            step.join_parallel(self.housekeeping(&[kept]));
        }
        self.metrics
            .add(schedule(self.g, &transfers, self.exec.sim().budget_words)?);
        self.metrics.add(step);
        Ok(())
    }

    /// Steps 3–5: parts connected to exactly two `P_0` vertices and nothing
    /// else embed themselves, deliver their orders to both coordinators
    /// (step 3), which order them deterministically (step 4); only the
    /// highest-id part per `(i, j)` pair stays for step 6 (step 5).
    fn steps_3_to_5(&mut self) -> Result<(), EmbedError> {
        // Paused paths rejoin from here on.
        for s in self.status.iter_mut() {
            if *s == Status::Paused {
                *s = Status::Active;
            }
        }
        let mut doubles: BTreeMap<(usize, usize), Vec<usize>> = BTreeMap::new();
        let mut transfers: Vec<Transfer> = Vec::new();
        let mut step = Metrics::new();
        for i in self.active_indices() {
            let conns = self.connections(i);
            if conns.len() != 2 || !self.part_neighbors(i).is_empty() || self.has_outside(i) {
                continue;
            }
            let mut it = conns.iter();
            let (a, b) = (*it.next().unwrap(), *it.next().unwrap());
            // Step 3: report the part id and both connection numbers to both
            // coordinators, then embed via two pairwise merges.
            for pos in [a, b] {
                for att in self.attachments_to(i, pos) {
                    transfers.push(Transfer::new(vec![att, self.p0[pos]], 3));
                }
            }
            step.join_parallel(self.housekeeping(&[i]));
            doubles.entry((a, b)).or_default().push(i);
        }
        self.metrics.add(step);
        self.metrics
            .add(schedule(self.g, &transfers, self.exec.sim().budget_words)?);
        // Step 5: keep only the highest-leader part per (i, j) pair.
        for (_, group) in doubles {
            let keep = group
                .iter()
                .copied()
                .max_by_key(|&i| self.parts[i].leader)
                .expect("non-empty group");
            for i in group {
                if i != keep {
                    self.status[i] = Status::Retired;
                    self.stats.retired_double += 1;
                }
            }
        }
        Ok(())
    }

    /// Step 6: the restricted path-coordinated merge with `P_0` as the
    /// coordinator, producing the fully merged part.
    fn step_6(&mut self, h_members: &[VertexId]) -> Result<PartState, EmbedError> {
        let remaining = self.active_indices();
        self.stats.final_parts = remaining.len();
        let s = self.p0[0];
        let mut transfers: Vec<Transfer> = Vec::new();
        let mut step = Metrics::new();
        for &i in &remaining {
            let conns = self.connections(i);
            let low = *conns.iter().next().ok_or_else(|| {
                EmbedError::Internal("remaining part without P_0 connection".into())
            })?;
            let atts = self.attachments_to(i, low);
            let att = atts[0];
            // Summary: leader -> low coordinator -> pipelined along P_0 to s.
            let region = self.region(&[i]);
            let mut path = self.path_within(&region, self.parts[i].leader, att)?;
            for pos in (0..=low).rev() {
                path.push(self.p0[pos]);
            }
            let words = 4 + conns.len();
            let rev: Vec<VertexId> = path.iter().rev().copied().collect();
            transfers.push(Transfer::new(path, words));
            transfers.push(Transfer::new(rev, words));
            step.join_parallel(self.housekeeping(&[i]));
        }
        // Every part (including retired ones) receives its final rotation
        // slots: one word per connecting edge, in parallel.
        for i in 0..self.parts.len() {
            if self.parts[i].is_empty() {
                continue;
            }
            for pos in self.connections(i) {
                for att in self.attachments_to(i, pos) {
                    transfers.push(Transfer::new(vec![self.p0[pos], att], 1));
                }
            }
        }
        // P_0's own sweep: one token pass along the path.
        step.join_parallel(Metrics {
            rounds: self.p0.len(),
            messages: self.p0.len(),
            words: self.p0.len(),
            max_words_edge_round: 1,
            ..Metrics::default()
        });
        self.metrics.add(step);
        self.metrics
            .add(schedule(self.g, &transfers, self.exec.sim().budget_words)?);
        let _ = s;

        let merged = PartState::new(h_members.to_vec());
        if self.check {
            verify_part(self.g, &merged.members)?;
        }
        Ok(merged)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::partition::partition_subtree;
    use crate::setup::run_setup;
    use congest_sim::SimConfig;
    use planar_lib::gen;

    /// Runs setup + one partition + the merge of that partition's parts
    /// (each hanging part used as-is, unrecursed — valid because merge only
    /// needs member sets).
    fn merge_one_level(g: &Graph) -> MergeOutcome {
        let cfg = SimConfig::default();
        let (setup, _) = run_setup(g, &cfg).unwrap();
        let mut ctx = ExecutionContext::with_sim(g, &cfg);
        let p = partition_subtree(&mut ctx, &setup.tree, setup.tree.root).unwrap();
        let hanging: Vec<PartState> = p
            .parts
            .iter()
            .map(|q| PartState::new(q.members.clone()))
            .collect();
        merge_parts(&mut ctx, p.p0.clone(), hanging, true).unwrap()
    }

    #[test]
    fn merge_covers_whole_graph() {
        let g = gen::grid(5, 5);
        let out = merge_one_level(&g);
        assert_eq!(out.part.len(), 25);
        assert!(out.metrics.rounds > 0);
        assert_eq!(out.stats.subtree_size, 25);
    }

    #[test]
    fn merge_on_cycle() {
        let g = gen::cycle(12);
        let out = merge_one_level(&g);
        assert_eq!(out.part.len(), 12);
    }

    #[test]
    fn merge_on_tree() {
        let g = gen::random_tree(30, 7);
        let out = merge_one_level(&g);
        assert_eq!(out.part.len(), 30);
    }

    #[test]
    fn merge_on_k4_subdivided() {
        let g = gen::k4_subdivided(4);
        let out = merge_one_level(&g);
        assert_eq!(out.part.len(), g.vertex_count());
    }

    #[test]
    fn merge_stats_populated() {
        let g = gen::triangulated_grid(4, 6);
        let out = merge_one_level(&g);
        assert!(out.stats.initial_parts >= 1);
        assert!(out.stats.final_parts <= out.stats.initial_parts);
        assert!(out.stats.p0_len >= 1);
    }

    #[test]
    fn merge_trivial_no_hanging_parts() {
        // A path where P_0 swallows... a 2-vertex graph: P_0 = both.
        let out = merge_one_level(&gen::path(2));
        assert_eq!(out.part.len(), 2);
    }

    #[test]
    fn final_parts_bounded_on_wide_shallow_graph() {
        // A fan has diameter 2; the paper's argument says the restricted
        // merge sees O(D) parts after the reduction. Measure it.
        let g = gen::fan(40);
        let out = merge_one_level(&g);
        assert!(
            out.stats.final_parts <= 12,
            "expected O(D) final parts on a diameter-2 graph, got {}",
            out.stats.final_parts
        );
    }
}
