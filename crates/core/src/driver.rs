//! The end-to-end distributed planar embedding algorithm (Theorem 1.1):
//! setup, recursive partitioning, and level-by-level merging, with every
//! phase's CONGEST cost measured or charged.
//!
//! Two schedulers drive the Section 4 recursion (selected by
//! [`EmbedderConfig::scheduler`]):
//!
//! * [`Scheduler::LevelSync`] (the default) is *level-synchronous*: it
//!   collects every same-level subproblem and partitions all of them in
//!   one batched kernel invocation ([`partition_level`]) over
//!   vertex-disjoint instances, then runs all merges bottom-up. Host-side
//!   cost per level is proportional to the level's total subproblem size.
//! * [`Scheduler::Sequential`] is the original depth-first recursion, one
//!   full-graph kernel run per subproblem phase — the conformance oracle.
//!
//! Both produce bit-identical rotations, metrics, statistics and
//! certification verdicts (`tests/scheduler.rs`); the round tally composes
//! identically because charging is order-independent and batched
//! per-instance metrics equal the one-at-a-time runs.
//!
//! **Fidelity note** (see DESIGN.md): the distributed recursion computes,
//! charges, and validates the full partition/merge structure, but the
//! *final* rotation handed to the caller is produced by the centralized
//! solver [`planar_lib::embed`] on the whole graph — the stand-in for
//! reading the rotation out of the top-level merged part, whose content
//! the coordinator-side skeleton solver computed piecewise. The
//! `merged_part_covers_graph_and_matches_centralized_blocks` regression
//! pins the agreement between the two.

use congest_sim::{Metrics, Phase, SimConfig, SimError};
use planar_graph::{Graph, RotationSystem, VertexId};

use crate::error::{DegradedCause, EmbedError};
use crate::exec::ExecutionContext;
use crate::merge::merge_parts_ctx;
use crate::partition::{partition_level, partition_subtree_ctx, Partition};
use crate::parts::{partition_is_safe, PartState};
use crate::resilience::auto_watchdog;
use crate::setup::run_setup_ctx;
use crate::stats::{LevelStats, MergeStats, RecursionStats};
use crate::tree::GlobalTree;
use crate::verify::verify_surviving_embedding;
use crate::{Kernel, Scheduler};

/// Configuration of the distributed embedder.
#[derive(Clone, Debug)]
pub struct EmbedderConfig {
    /// Kernel simulation parameters (per-edge word budget, round cap,
    /// fault plan, watchdog).
    pub sim: SimConfig,
    /// Verify the framework invariants (part safety, co-facial boundaries)
    /// at every merge. Each merge embeds the merged part once with the
    /// linear-time left-right embedder (`O(n log n)` over the recursion),
    /// but the Definition 3.1 safety check runs one BFS per non-trivial
    /// part, `O(parts · m)` per level; that BFS dominates on dense graphs
    /// (13–14× the unchecked run on a random maximal planar graph with
    /// n = 10k). Disable for large benchmark runs.
    pub check_invariants: bool,
    /// Lift every kernel phase into the acknowledgement/retransmission
    /// wrapper ([`congest_sim::protocols::Reliable`]). `None` (the default)
    /// runs the phases bare; combine `Some(..)` with a fault plan on `sim`
    /// to survive lossy links.
    pub reliability: Option<congest_sim::protocols::ReliableConfig>,
    /// Append a distributed certification phase: build `O(Δ log n)`-bit
    /// per-node certificates for the computed rotation and run the
    /// O(1)-round local verifier ([`crate::certify_embedding`]) on the
    /// same simulated network. The outcome then carries the certificates
    /// and the per-node verdicts in
    /// [`EmbeddingOutcome::certification`]; in fault mode, degraded
    /// results additionally audit the surviving subgraph distributedly
    /// before reporting `verified: true`.
    pub certify: bool,
    /// Which simulation kernel executes the phases: the allocation-free
    /// CSR kernel (default) or the executable-spec reference kernel.
    pub kernel: Kernel,
    /// How the driver walks the recursion: level-synchronous batching
    /// (default) or the original one-run-per-subproblem depth-first
    /// recursion. Outputs are bit-identical either way.
    pub scheduler: Scheduler,
}

impl Default for EmbedderConfig {
    fn default() -> Self {
        EmbedderConfig {
            sim: SimConfig::default(),
            check_invariants: true,
            reliability: None,
            certify: false,
            kernel: Kernel::default(),
            scheduler: Scheduler::default(),
        }
    }
}

/// The result of a distributed embedding run.
#[derive(Clone, Debug)]
pub struct EmbeddingOutcome {
    /// The computed combinatorial planar embedding (per-vertex clockwise
    /// edge orders).
    pub rotation: RotationSystem,
    /// Total CONGEST cost (rounds is the headline `O(D·min{log n, D})`).
    pub metrics: Metrics,
    /// Structural statistics validating Lemmas 4.2/4.3 and the part-count
    /// argument.
    pub stats: RecursionStats,
    /// Distributed certification artifacts (certificates + per-node
    /// verdicts), present iff [`EmbedderConfig::certify`] was set. The
    /// run only succeeds if every node accepted.
    pub certification: Option<crate::certify::Certification>,
}

/// Runs the distributed planar embedding algorithm of Theorem 1.1 on the
/// network `g`.
///
/// # Errors
///
/// * [`EmbedError::NonPlanar`] if `g` is not planar (the algorithm doubles
///   as a planarity test);
/// * [`EmbedError::Disconnected`] / [`EmbedError::EmptyGraph`] for invalid
///   networks;
/// * [`EmbedError::Internal`] if a framework invariant fails (a bug, not an
///   input condition).
///
/// # Example
///
/// ```
/// use planar_embedding::{embed_distributed, EmbedderConfig};
/// use planar_lib::gen;
///
/// # fn main() -> Result<(), planar_embedding::EmbedError> {
/// let g = gen::grid(4, 4);
/// let out = embed_distributed(&g, &EmbedderConfig::default())?;
/// assert!(out.rotation.is_planar_embedding());
/// # Ok(())
/// # }
/// ```
pub fn embed_distributed(g: &Graph, cfg: &EmbedderConfig) -> Result<EmbeddingOutcome, EmbedError> {
    let fault_mode = !cfg.sim.faults.is_empty();
    if !fault_mode {
        // Perfect network: the original code path, bit for bit (the fault
        // subsystem must cost nothing when unused).
        let mut ctx = ExecutionContext::new(g, cfg);
        return embed_inner(g, cfg, &mut ctx);
    }

    // Fault mode: arm the watchdog (unless the caller chose one) so lossy
    // phases terminate, run, and translate every failure into the typed
    // degradation report instead of surfacing internal errors.
    let mut hardened = cfg.clone();
    if hardened.sim.watchdog.is_none() {
        hardened.sim.watchdog = Some(auto_watchdog(g.vertex_count()));
    }
    let mut ctx = ExecutionContext::new(g, &hardened);
    let surviving_nodes = g.vertex_count() - cfg.sim.faults.crash_victims().len();
    match embed_inner(g, &hardened, &mut ctx) {
        Ok(out) => {
            // Post-run self-verification: in fault mode a "successful" run
            // still only counts if the rotation restricted to the surviving
            // subgraph certifies as planar.
            let crashed = cfg.sim.faults.crash_victims();
            match verify_surviving_embedding(g, &out.rotation, &crashed) {
                // If any node actually crash-stopped mid-run, the result
                // covers only the survivors — report it as a (verified)
                // degradation rather than letting it pass for a full
                // embedding. Crash victims whose scheduled round was never
                // reached participated normally and do not degrade. With
                // certification enabled, `verified: true` additionally
                // requires the survivors' own distributed audit
                // ([`crate::certify_surviving_embedding`]) to accept.
                Ok(()) if out.metrics.crashed_nodes > 0 => {
                    let distributed_ok = !cfg.certify
                        || crate::certify::certify_surviving_embedding(
                            g,
                            &out.rotation,
                            &crashed,
                            cfg,
                        )
                        .map(|c| c.accepted())
                        .unwrap_or(false);
                    Err(EmbedError::Degraded {
                        surviving_nodes,
                        rounds_used: ctx.rounds_used(),
                        verified: distributed_ok,
                        cause: if distributed_ok {
                            DegradedCause::SurvivorsOnly
                        } else {
                            DegradedCause::OutputUnverified
                        },
                    })
                }
                Ok(()) => Ok(out),
                Err(_) => Err(EmbedError::Degraded {
                    surviving_nodes,
                    rounds_used: ctx.rounds_used(),
                    verified: false,
                    cause: DegradedCause::OutputUnverified,
                }),
            }
        }
        // Input conditions a fault-free run would also report: pass through.
        Err(e @ (EmbedError::EmptyGraph | EmbedError::Graph(_))) => Err(e),
        // Kernel aborts (watchdog, crashed-destination sends) keep their
        // typed error as the cause, losslessly. Round-limit aborts report
        // how many rounds the dying phase actually ran; charge them so
        // `rounds_used` reflects the work done, not zero.
        Err(EmbedError::Sim(e)) => {
            if let SimError::WatchdogTimeout { limit } | SimError::MaxRoundsExceeded { limit } = e {
                ctx.charge_partial(limit);
            }
            Err(EmbedError::Degraded {
                surviving_nodes,
                rounds_used: ctx.rounds_used(),
                verified: false,
                cause: DegradedCause::Sim(e),
            })
        }
        // Everything else — a convergecast that missed the root
        // (`Internal`), leader election that never converged
        // (`Disconnected`), a merge handed fault-corrupted part state
        // (`NonPlanar`, `Routing`, invariant violations) — is the phase
        // coming up short because of injected faults. No embedding was
        // produced, so nothing could be re-verified.
        Err(_) => Err(EmbedError::Degraded {
            surviving_nodes,
            rounds_used: ctx.rounds_used(),
            verified: false,
            cause: DegradedCause::PhaseIncomplete {
                phase: ctx.phase().name(),
            },
        }),
    }
}

/// The distributed pipeline shared by [`embed_distributed`] and
/// [`embed_recursion`]: setup, the density guard, and the scheduled
/// partition/merge recursion. Returns the merged top-level part, the
/// parallel-composed metrics (setup included), and the recursion
/// statistics with `depth` stamped; the sequential-tally stamps are left
/// to the caller, whose epilogue may still charge rounds.
fn run_recursion(
    g: &Graph,
    cfg: &EmbedderConfig,
    ctx: &mut ExecutionContext<'_>,
) -> Result<(PartState, Metrics, RecursionStats), EmbedError> {
    let n = g.vertex_count();
    ctx.enter(Phase::Setup);
    let (setup, setup_metrics) = run_setup_ctx(ctx)?;
    ctx.charge(&setup_metrics);
    // Cheap planarity guard; density violations abort before recursing.
    if n >= 3 && g.edge_count() > 3 * n - 6 {
        return Err(EmbedError::NonPlanar);
    }

    let mut stats = RecursionStats {
        n,
        bfs_depth: setup.tree.tree_depth() as usize,
        safety_checked: cfg.check_invariants,
        ..Default::default()
    };
    let mut metrics = setup_metrics;

    let (part, rec_metrics) = match cfg.scheduler {
        Scheduler::Sequential => {
            solve_sequential(g, &setup.tree, setup.tree.root, 0, cfg, &mut stats, ctx)?
        }
        Scheduler::LevelSync => solve_level_sync(g, &setup.tree, cfg, &mut stats, ctx)?,
    };
    if part.len() != n {
        // Message loss can leave the merged top-level part short of
        // vertices with every phase reporting success; surface a typed
        // failure so fault mode degrades to `PhaseIncomplete` instead of
        // asserting (found by the DST swarm, `crates/dst`). A fault-free
        // run can never trip this — there it is a genuine bug report.
        return Err(EmbedError::Internal(format!(
            "recursion merged only {} of {n} vertices",
            part.len()
        )));
    }
    metrics.add(rec_metrics);
    stats.depth = stats.levels.len();
    Ok((part, metrics, stats))
}

/// [`run_recursion`] with every intermediate artifact retained: the
/// global BFS tree from setup and the full level-synchronous recursion
/// arena, alongside the usual metrics and statistics. This is the driver
/// entry point the incremental re-embedding path builds its resident
/// state from (always [`Scheduler::LevelSync`] — the arena *is* the
/// level-synchronous recursion).
pub(crate) fn run_recursion_retained(
    g: &Graph,
    cfg: &EmbedderConfig,
    ctx: &mut ExecutionContext<'_>,
) -> Result<(GlobalTree, Vec<RecNode>, Metrics, RecursionStats), EmbedError> {
    let n = g.vertex_count();
    ctx.enter(Phase::Setup);
    let (setup, setup_metrics) = run_setup_ctx(ctx)?;
    ctx.charge(&setup_metrics);
    if n >= 3 && g.edge_count() > 3 * n - 6 {
        return Err(EmbedError::NonPlanar);
    }

    let mut stats = RecursionStats {
        n,
        bfs_depth: setup.tree.tree_depth() as usize,
        safety_checked: cfg.check_invariants,
        ..Default::default()
    };
    let mut metrics = setup_metrics;
    let nodes = solve_level_sync_retained(g, &setup.tree, cfg, &mut stats, ctx)?;
    let merged = nodes[0].part.as_ref().expect("root solved").len();
    if merged != n {
        return Err(EmbedError::Internal(format!(
            "recursion merged only {merged} of {n} vertices"
        )));
    }
    metrics.add(nodes[0].metrics);
    stats.depth = stats.levels.len();
    Ok((setup.tree, nodes, metrics, stats))
}

/// Runs only the distributed pipeline — setup plus the scheduled
/// partition/merge recursion — skipping the centralized fidelity epilogue
/// (see the module-level note) and certification. This is the unit the
/// scheduler benchmark times: host wall time here is what
/// [`EmbedderConfig::scheduler`] actually controls; timing
/// [`embed_distributed`] instead would let the scheduler-independent
/// centralized epilogue dominate at large `n`.
///
/// # Errors
///
/// As [`embed_distributed`], minus certification failures (there is no
/// certification phase). Fault plans are honored but failures surface as
/// their raw typed errors, not as [`EmbedError::Degraded`] reports.
pub fn embed_recursion(
    g: &Graph,
    cfg: &EmbedderConfig,
) -> Result<(Metrics, RecursionStats), EmbedError> {
    let mut ctx = ExecutionContext::new(g, cfg);
    let (_part, metrics, mut stats) = run_recursion(g, cfg, &mut ctx)?;
    stats.sequential_rounds = ctx.rounds_used();
    stats.phase_rounds = ctx.phase_rounds();
    Ok((metrics, stats))
}

/// [`embed_recursion`] plus the bytes retained by the execution context's
/// kernel arenas when the recursion finishes — the figure the bench
/// harness's memory stage records as `kernel_bytes`. Kept out of
/// [`RecursionStats`] on purpose: retained capacity is a host-side
/// property of the arena, not part of the scheduler-conformance contract
/// (the two schedulers retain different arenas while producing
/// bit-identical stats).
pub fn embed_recursion_with_memory(
    g: &Graph,
    cfg: &EmbedderConfig,
) -> Result<(Metrics, RecursionStats, usize), EmbedError> {
    let mut ctx = ExecutionContext::new(g, cfg);
    let (_part, metrics, mut stats) = run_recursion(g, cfg, &mut ctx)?;
    stats.sequential_rounds = ctx.rounds_used();
    stats.phase_rounds = ctx.phase_rounds();
    let kernel_bytes = ctx.memory_bytes();
    Ok((metrics, stats, kernel_bytes))
}

fn embed_inner(
    g: &Graph,
    cfg: &EmbedderConfig,
    ctx: &mut ExecutionContext<'_>,
) -> Result<EmbeddingOutcome, EmbedError> {
    let (_part, mut metrics, mut stats) = run_recursion(g, cfg, ctx)?;

    // The output embedding: the content of the top-level merge (all edges
    // embedded, no half-embedded edges left). See the module-level fidelity
    // note: the rotation itself comes from the centralized solver.
    let rotation = planar_lib::embed(g)?;
    debug_assert!(rotation.is_planar_embedding());

    // Optional distributed certification epilogue: the O(1)-round proof-
    // labeling verifier runs on the same simulated network (same fault
    // plan, reliability, and kernel), so its cost lands in the tally like
    // any other phase.
    let certification = if cfg.certify {
        ctx.enter(Phase::Cert);
        let cert = crate::certify::certify_embedding(g, &rotation, cfg)?;
        ctx.charge(&cert.report.metrics);
        metrics.add(cert.report.metrics);
        if !cert.accepted() {
            return Err(EmbedError::Internal(format!(
                "distributed certification rejected the embedding: rejections {:?}, incomplete {:?}",
                cert.report.rejections, cert.report.incomplete
            )));
        }
        Some(cert)
    } else {
        None
    };

    stats.sequential_rounds = ctx.rounds_used();
    stats.phase_rounds = ctx.phase_rounds();
    Ok(EmbeddingOutcome {
        rotation,
        metrics,
        stats,
        certification,
    })
}

/// Records one subproblem's partition in the per-level statistics and
/// validates Lemmas 4.1/4.2 — shared verbatim by both schedulers so their
/// statistics agree field for field.
fn note_partition(
    g: &Graph,
    tree: &GlobalTree,
    size: usize,
    level: usize,
    partition: &Partition,
    cfg: &EmbedderConfig,
    stats: &mut RecursionStats,
) -> Result<(), EmbedError> {
    {
        let lvl = &mut stats.levels[level];
        lvl.problems += 1;
        lvl.max_size = lvl.max_size.max(size);
        lvl.rounds = lvl.rounds.max(partition.metrics.rounds);
        for part in &partition.parts {
            let ratio = part.members.len() as f64 / size as f64;
            lvl.max_child_ratio = lvl.max_child_ratio.max(ratio);
            lvl.max_part_depth = lvl
                .max_part_depth
                .max(tree.subtree_depth(part.root) as usize);
        }
    }
    validate_partition(g, size, partition, cfg)
}

/// The Lemma 4.1/4.2 gate on one subproblem's partition, shared by both
/// schedulers and the incremental rebuild: every hanging part must stay
/// within the 2/3 ratio, and (under `check_invariants`) the partition
/// must be safe in the Definition 3.1 sense.
pub(crate) fn validate_partition(
    g: &Graph,
    size: usize,
    partition: &Partition,
    cfg: &EmbedderConfig,
) -> Result<(), EmbedError> {
    for part in &partition.parts {
        let ratio = part.members.len() as f64 / size as f64;
        if ratio > 2.0 / 3.0 + 1e-9 {
            return Err(EmbedError::Internal(format!(
                "Lemma 4.2 violated: part ratio {ratio}"
            )));
        }
    }
    if cfg.check_invariants {
        let mut all_parts: Vec<Vec<VertexId>> =
            partition.parts.iter().map(|p| p.members.clone()).collect();
        all_parts.push(partition.p0.clone());
        if !partition_is_safe(g, &all_parts) {
            return Err(EmbedError::Internal(
                "Lemma 4.1 violated: partition is unsafe".into(),
            ));
        }
    }
    Ok(())
}

/// Records a size-1 subproblem (a recursion leaf) in the level statistics
/// and returns its trivial solution.
fn solve_leaf(root: VertexId, level: usize, stats: &mut RecursionStats) -> (PartState, Metrics) {
    stats.levels[level].problems += 1;
    stats.levels[level].max_size = stats.levels[level].max_size.max(1);
    (PartState::new(vec![root]), Metrics::new())
}

/// Makes sure `stats.levels` reaches `level`.
fn ensure_level(stats: &mut RecursionStats, level: usize) {
    if stats.levels.len() <= level {
        stats.levels.push(LevelStats {
            level,
            ..Default::default()
        });
    }
}

/// [`Scheduler::Sequential`]: recursively solves the subproblem rooted at
/// `root`, one kernel invocation per phase; returns the merged part and
/// the (parallel-composed) cost. The conformance oracle for
/// [`solve_level_sync`].
fn solve_sequential(
    g: &Graph,
    tree: &GlobalTree,
    root: VertexId,
    level: usize,
    cfg: &EmbedderConfig,
    stats: &mut RecursionStats,
    ctx: &mut ExecutionContext<'_>,
) -> Result<(PartState, Metrics), EmbedError> {
    let size = tree.subtree_size[root.index()] as usize;
    ensure_level(stats, level);
    if size == 1 {
        return Ok(solve_leaf(root, level, stats));
    }

    ctx.enter(Phase::Partition);
    let partition = partition_subtree_ctx(ctx, tree, root)?;
    ctx.charge(&partition.metrics);
    note_partition(g, tree, size, level, &partition, cfg, stats)?;

    // Recurse on all hanging parts; they are vertex-disjoint, so their costs
    // compose in parallel.
    let mut children_metrics = Metrics::new();
    let mut hanging = Vec::with_capacity(partition.parts.len());
    for sub in &partition.parts {
        let (part, m) = solve_sequential(g, tree, sub.root, level + 1, cfg, stats, ctx)?;
        children_metrics.join_parallel(m);
        hanging.push(part);
    }

    ctx.enter(Phase::Merge);
    let merged = merge_parts_ctx(ctx, partition.p0, hanging, cfg.check_invariants)?;
    ctx.charge(&merged.metrics);
    stats.merges.push(merged.stats);

    let mut total = partition.metrics;
    total.add(children_metrics);
    total.add(merged.metrics);
    stats.levels[level].rounds = stats.levels[level].rounds.max(total.rounds);
    Ok((merged.part, total))
}

/// One subproblem of the level-synchronous recursion arena.
///
/// The arena is *retained*: after a run, every node still holds its
/// partition, solved part, and merge statistics (nothing is `take()`n in
/// the merge pass). That makes the arena a resumable artifact — the
/// incremental re-embedding path (`crate::incremental`) re-runs only the
/// merges of nodes whose subtree contains a delta endpoint and reuses
/// every other node's retained state verbatim.
pub(crate) struct RecNode {
    pub(crate) root: VertexId,
    pub(crate) level: usize,
    pub(crate) children: Vec<usize>,
    /// `Some` for internal nodes after their level's batched partition.
    pub(crate) partition: Option<Partition>,
    /// The solved part; set for leaves immediately, for internal nodes by
    /// the bottom-up merge pass.
    pub(crate) part: Option<PartState>,
    /// Parallel-composed cost of this subtree (partition + children in
    /// parallel + merge) — identical to what [`solve_sequential`] returns.
    pub(crate) metrics: Metrics,
    /// The node's merge statistics, collected into `stats.merges` in DFS
    /// post-order afterwards so the two schedulers' reports coincide.
    pub(crate) merge_stats: Option<MergeStats>,
}

/// [`Scheduler::LevelSync`]: the level-synchronous recursion. Top-down,
/// each level's subproblems are partitioned in *one* batched kernel
/// invocation over vertex-disjoint instances; bottom-up, the merges run
/// level by level. Same rotation, metrics, and statistics as
/// [`solve_sequential`]: per-instance metrics are bit-identical to
/// one-at-a-time runs, and all charges compose order-independently.
fn solve_level_sync(
    g: &Graph,
    tree: &GlobalTree,
    cfg: &EmbedderConfig,
    stats: &mut RecursionStats,
    ctx: &mut ExecutionContext<'_>,
) -> Result<(PartState, Metrics), EmbedError> {
    let mut nodes = solve_level_sync_retained(g, tree, cfg, stats, ctx)?;
    let root_metrics = nodes[0].metrics;
    let part = nodes[0].part.take().expect("root solved");
    Ok((part, root_metrics))
}

/// [`solve_level_sync`] with the recursion arena kept alive: identical
/// execution, but instead of surrendering just the root part it returns
/// the full arena — every node's partition, solved part, metrics, and
/// merge statistics retained — for the incremental re-embedding path to
/// resume from.
pub(crate) fn solve_level_sync_retained(
    g: &Graph,
    tree: &GlobalTree,
    cfg: &EmbedderConfig,
    stats: &mut RecursionStats,
    ctx: &mut ExecutionContext<'_>,
) -> Result<Vec<RecNode>, EmbedError> {
    let mut nodes: Vec<RecNode> = vec![RecNode {
        root: tree.root,
        level: 0,
        children: Vec::new(),
        partition: None,
        part: None,
        metrics: Metrics::new(),
        merge_stats: None,
    }];

    // Top-down: partition every level in one batched kernel invocation.
    let mut frontier: Vec<usize> = vec![0];
    let mut level = 0usize;
    while !frontier.is_empty() {
        ensure_level(stats, level);
        let mut internal: Vec<usize> = Vec::new();
        for &ni in &frontier {
            let root = nodes[ni].root;
            if tree.subtree_size[root.index()] as usize == 1 {
                let (part, m) = solve_leaf(root, level, stats);
                nodes[ni].part = Some(part);
                nodes[ni].metrics = m;
            } else {
                internal.push(ni);
            }
        }
        let mut next_frontier: Vec<usize> = Vec::new();
        if !internal.is_empty() {
            ctx.enter(Phase::Partition);
            let roots: Vec<VertexId> = internal.iter().map(|&ni| nodes[ni].root).collect();
            let partitions = partition_level(ctx, tree, &roots)?;
            for (&ni, partition) in internal.iter().zip(partitions) {
                ctx.charge(&partition.metrics);
                let size = tree.subtree_size[nodes[ni].root.index()] as usize;
                note_partition(g, tree, size, level, &partition, cfg, stats)?;
                for sub in &partition.parts {
                    let ci = nodes.len();
                    nodes.push(RecNode {
                        root: sub.root,
                        level: level + 1,
                        children: Vec::new(),
                        partition: None,
                        part: None,
                        metrics: Metrics::new(),
                        merge_stats: None,
                    });
                    nodes[ni].children.push(ci);
                    next_frontier.push(ci);
                }
                nodes[ni].partition = Some(partition);
            }
        }
        frontier = next_frontier;
        level += 1;
    }

    // Bottom-up: merge every internal node once its children are solved.
    // Merges stay per-subproblem (their cost is charged analytically and
    // their symmetry breaking runs on per-merge virtual graphs).
    for ni in (0..nodes.len()).rev() {
        // Retained arena: clone what the merge consumes instead of
        // `take()`ing it, so the node keeps its partition and the children
        // keep their parts after the pass.
        let Some((p0, partition_metrics)) = nodes[ni]
            .partition
            .as_ref()
            .map(|p| (p.p0.clone(), p.metrics))
        else {
            continue; // leaf: already solved
        };
        let mut children_metrics = Metrics::new();
        let mut hanging = Vec::with_capacity(nodes[ni].children.len());
        for ci in nodes[ni].children.clone() {
            children_metrics.join_parallel(nodes[ci].metrics);
            hanging.push(nodes[ci].part.clone().expect("child solved before parent"));
        }
        ctx.enter(Phase::Merge);
        let merged = merge_parts_ctx(ctx, p0, hanging, cfg.check_invariants)?;
        ctx.charge(&merged.metrics);
        nodes[ni].merge_stats = Some(merged.stats);

        let mut total = partition_metrics;
        total.add(children_metrics);
        total.add(merged.metrics);
        let level = nodes[ni].level;
        stats.levels[level].rounds = stats.levels[level].rounds.max(total.rounds);
        nodes[ni].part = Some(merged.part);
        nodes[ni].metrics = total;
    }

    // Collect merge statistics in DFS post-order — the order the
    // sequential scheduler pushes them in.
    collect_merge_stats(&nodes, stats);

    Ok(nodes)
}

/// Pushes the arena's merge statistics into `stats.merges` in DFS
/// post-order — the order the sequential scheduler pushes them in. The
/// arena is read, not drained, so the pass can rerun after an incremental
/// re-merge.
pub(crate) fn collect_merge_stats(nodes: &[RecNode], stats: &mut RecursionStats) {
    let mut stack: Vec<(usize, bool)> = vec![(0, false)];
    while let Some((ni, visited)) = stack.pop() {
        if visited {
            if let Some(ms) = nodes[ni].merge_stats.clone() {
                stats.merges.push(ms);
            }
        } else {
            stack.push((ni, true));
            for &ci in nodes[ni].children.iter().rev() {
                stack.push((ci, false));
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use congest_sim::protocols::ReliableConfig;
    use congest_sim::{FaultPlan, LinkFaults};
    use planar_graph::biconnected::BiconnectedDecomposition;
    use planar_lib::gen;

    fn run(g: &Graph) -> EmbeddingOutcome {
        embed_distributed(g, &EmbedderConfig::default()).unwrap()
    }

    #[test]
    fn embeds_grid() {
        let g = gen::grid(5, 5);
        let out = run(&g);
        assert!(out.rotation.is_planar_embedding());
        assert_eq!(out.rotation.to_graph(), g);
        assert!(out.stats.max_child_ratio() <= 2.0 / 3.0 + 1e-9);
        assert!(out.metrics.rounds > 0);
    }

    #[test]
    fn embeds_all_small_families() {
        for g in [
            gen::path(17),
            gen::cycle(16),
            gen::star(15),
            gen::random_tree(25, 3),
            gen::triangulated_grid(4, 4),
            gen::k4_subdivided(4),
            gen::theta(3, 5),
            gen::wheel(10),
            gen::fan(12),
            gen::random_outerplanar(18, 2),
            gen::random_maximal_planar(18, 5),
            gen::random_planar(24, 40, 9),
            gen::wheel_chain(3, 5),
        ] {
            let out = run(&g);
            assert!(out.rotation.is_planar_embedding());
            assert_eq!(out.rotation.to_graph(), g);
        }
    }

    /// Satellite: every kernel round is attributed to exactly one phase —
    /// the breakdown sums to the sequential round tally (the quantity
    /// degraded runs report as `rounds_used`).
    #[test]
    fn phase_rounds_sum_to_sequential_tally() {
        for g in [gen::grid(5, 5), gen::triangulated_grid(4, 4), gen::path(17)] {
            let out = run(&g);
            let pr = out.stats.phase_rounds;
            assert_eq!(
                pr.sum(),
                out.stats.sequential_rounds,
                "unattributed rounds: {pr:?} vs {}",
                out.stats.sequential_rounds
            );
            assert!(pr.setup > 0, "setup must cost rounds: {pr:?}");
            assert!(pr.partition > 0, "partition must cost rounds: {pr:?}");
            // The sequential tally bounds the parallel-composed count.
            assert!(out.stats.sequential_rounds >= out.metrics.rounds);
        }
    }

    /// Satellite (fidelity regression): the distributed recursion's merged
    /// part must cover every vertex, leave no edge half-embedded, and the
    /// graph it covers must carry the same block structure (biconnected
    /// components, cut vertices) as the centralized rotation the driver
    /// hands out — pinning the documented stand-in at the `planar_lib::
    /// embed` call against silent drift.
    #[test]
    fn merged_part_covers_graph_and_matches_centralized_blocks() {
        for g in [
            gen::grid(5, 5),
            gen::wheel_chain(3, 5),
            gen::random_outerplanar(18, 2),
        ] {
            let cfg = EmbedderConfig::default();
            let mut ctx = ExecutionContext::new(&g, &cfg);
            let (setup, _) = run_setup_ctx(&mut ctx).unwrap();
            let mut stats = RecursionStats::default();
            let (part, _) = solve_level_sync(&g, &setup.tree, &cfg, &mut stats, &mut ctx).unwrap();
            // Full coverage, no half-embedded edges left at the top.
            assert_eq!(part.len(), g.vertex_count());
            for v in g.vertices() {
                assert!(part.contains(v));
            }
            assert!(crate::parts::half_embedded_edges(&g, &part.members).is_empty());
            // Block-structure agreement with the centralized embedding.
            let rotation = planar_lib::embed(&g).unwrap();
            let rg = rotation.to_graph();
            assert_eq!(rg, g);
            let a = BiconnectedDecomposition::compute(&g);
            let b = BiconnectedDecomposition::compute(&rg);
            assert_eq!(a.block_count(), b.block_count());
            let cuts = |bc: &BiconnectedDecomposition| -> Vec<VertexId> {
                g.vertices().filter(|&v| bc.is_cut_vertex(v)).collect()
            };
            assert_eq!(cuts(&a), cuts(&b));
        }
    }

    /// Tentpole: with `certify` set the outcome carries accepted
    /// certificates, the verifier cost is attributed to the `cert` phase,
    /// and the phase-sum invariant still holds.
    #[test]
    fn certified_embedding_carries_accepted_report() {
        for g in [
            gen::grid(5, 5),
            gen::wheel(10),
            gen::random_planar(20, 35, 7),
        ] {
            let cfg = EmbedderConfig {
                certify: true,
                ..EmbedderConfig::default()
            };
            let out = embed_distributed(&g, &cfg).unwrap();
            let cert = out.certification.as_ref().expect("certify was requested");
            assert!(cert.accepted());
            assert_eq!(cert.certificates.len(), g.vertex_count());
            assert!(
                out.stats.phase_rounds.cert > 0,
                "cert phase must be charged"
            );
            assert!(out.stats.phase_rounds.cert <= 2, "verifier must be O(1)");
            assert_eq!(out.stats.phase_rounds.sum(), out.stats.sequential_rounds);
            // Off by default: no certification artifacts, no cert rounds.
            let plain = run(&g);
            assert!(plain.certification.is_none());
            assert_eq!(plain.stats.phase_rounds.cert, 0);
        }
    }

    /// Certification composes with faults + reliable delivery: the
    /// verifier phase rides the same lossy network and still accepts.
    #[test]
    fn certified_embedding_survives_lossy_links() {
        let g = gen::grid(4, 4);
        let cfg = EmbedderConfig {
            sim: SimConfig {
                faults: FaultPlan::uniform(23, 0.05, 0.02, 0.05, 2),
                ..SimConfig::default()
            },
            reliability: Some(ReliableConfig::default()),
            certify: true,
            ..EmbedderConfig::default()
        };
        match embed_distributed(&g, &cfg) {
            Ok(out) => {
                let cert = out.certification.expect("certify was requested");
                assert!(cert.accepted());
            }
            Err(EmbedError::Degraded { .. }) => {
                // Losing a phase to chaos is legitimate; accepting an
                // uncertified result would not be.
            }
            other => panic!("unexpected outcome: {other:?}"),
        }
    }

    #[test]
    fn recursion_depth_is_logarithmic() {
        let g = gen::grid(8, 8);
        let out = run(&g);
        // Lemma 4.3: depth <= log_{3/2} 64 + O(1) ~ 10.3.
        assert!(out.stats.depth <= 13, "depth = {}", out.stats.depth);
    }

    #[test]
    fn rejects_nonplanar() {
        assert!(matches!(
            embed_distributed(&gen::complete(5), &EmbedderConfig::default()),
            Err(EmbedError::NonPlanar)
        ));
        // K3,3 passes the density bound; rejection must come from a merge.
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
        assert!(matches!(
            embed_distributed(&k33, &EmbedderConfig::default()),
            Err(EmbedError::NonPlanar)
        ));
    }

    #[test]
    fn rejects_disconnected_and_empty() {
        let g = Graph::from_edges(4, [(0, 1), (2, 3)]).unwrap();
        assert!(matches!(
            embed_distributed(&g, &EmbedderConfig::default()),
            Err(EmbedError::Disconnected)
        ));
        assert!(matches!(
            embed_distributed(&Graph::new(0), &EmbedderConfig::default()),
            Err(EmbedError::EmptyGraph)
        ));
    }

    #[test]
    fn single_vertex_network() {
        let out = run(&Graph::new(1));
        assert_eq!(out.rotation.vertex_count(), 1);
        assert_eq!(out.metrics.rounds, 0);
    }

    #[test]
    fn two_vertex_network() {
        let g = gen::path(2);
        let out = run(&g);
        assert!(out.rotation.is_planar_embedding());
    }

    /// Property (c) of the fault test plan: drop rate 1.0 on a cut edge
    /// must end in `Degraded`, not a hang — the watchdog and the reliable
    /// wrapper's give-up bound every phase.
    #[test]
    fn dead_cut_edge_degrades_instead_of_hanging() {
        let g = gen::path(6); // every edge is a cut edge
        let mut plan = FaultPlan {
            seed: 7,
            ..FaultPlan::default()
        };
        for (a, b) in [(2u32, 3u32), (3, 2)] {
            plan.link_overrides.push((
                (VertexId(a), VertexId(b)),
                LinkFaults {
                    drop: 1.0,
                    duplicate: 0.0,
                    delay: 0.0,
                    max_delay: 0,
                },
            ));
        }
        for reliability in [None, Some(ReliableConfig::default())] {
            let cfg = EmbedderConfig {
                sim: SimConfig {
                    faults: plan.clone(),
                    ..SimConfig::default()
                },
                reliability,
                ..EmbedderConfig::default()
            };
            match embed_distributed(&g, &cfg) {
                Err(EmbedError::Degraded {
                    surviving_nodes,
                    cause,
                    ..
                }) => {
                    assert_eq!(surviving_nodes, 6, "no crashes in this plan");
                    assert!(
                        matches!(
                            cause,
                            DegradedCause::PhaseIncomplete { .. } | DegradedCause::Sim(_)
                        ),
                        "unexpected cause: {cause:?}"
                    );
                }
                other => panic!("expected Degraded, got {other:?}"),
            }
        }
    }

    /// Crash-stop nodes degrade the run and are reported in
    /// `surviving_nodes`.
    #[test]
    fn crashed_node_degrades_with_survivor_count() {
        let g = gen::grid(4, 4);
        let mut plan = FaultPlan {
            seed: 11,
            ..FaultPlan::default()
        };
        plan.crashes.push((VertexId(5), 0));
        let cfg = EmbedderConfig {
            sim: SimConfig {
                faults: plan,
                ..SimConfig::default()
            },
            ..EmbedderConfig::default()
        };
        match embed_distributed(&g, &cfg) {
            Err(EmbedError::Degraded {
                surviving_nodes, ..
            }) => assert_eq!(surviving_nodes, 15),
            other => panic!("expected Degraded, got {other:?}"),
        }
    }

    /// Satellite regression: a watchdog firing mid-phase must still charge
    /// the rounds that phase burned. Pre-fix, the aborted phase returned no
    /// `Metrics`, so a run killed in its *first* phase reported
    /// `rounds_used: 0` after consuming the full watchdog budget.
    #[test]
    fn degraded_run_charges_watchdogged_phase_rounds() {
        let g = gen::grid(4, 4);
        let cfg = EmbedderConfig {
            sim: SimConfig {
                faults: FaultPlan::uniform(1, 0.01, 0.0, 0.01, 2),
                watchdog: Some(4), // far below what setup needs on a 4x4 grid
                ..SimConfig::default()
            },
            reliability: Some(ReliableConfig::default()),
            ..EmbedderConfig::default()
        };
        match embed_distributed(&g, &cfg) {
            Err(EmbedError::Degraded {
                rounds_used, cause, ..
            }) => {
                assert!(
                    matches!(
                        cause,
                        DegradedCause::Sim(congest_sim::SimError::WatchdogTimeout { limit: 4 })
                    ),
                    "unexpected cause: {cause:?}"
                );
                assert_eq!(
                    rounds_used, 4,
                    "the watchdogged phase ran 4 rounds before aborting; \
                     they must appear in rounds_used"
                );
            }
            other => panic!("expected a watchdogged Degraded run, got {other:?}"),
        }
    }

    /// A modestly lossy network with reliable delivery still embeds — and
    /// identically across repeat runs (replayability end to end).
    #[test]
    fn reliable_delivery_survives_lossy_links() {
        let g = gen::grid(4, 4);
        let cfg = EmbedderConfig {
            sim: SimConfig {
                faults: FaultPlan::uniform(23, 0.05, 0.02, 0.05, 2),
                ..SimConfig::default()
            },
            reliability: Some(ReliableConfig::default()),
            ..EmbedderConfig::default()
        };
        let a = embed_distributed(&g, &cfg);
        let b = embed_distributed(&g, &cfg);
        match (&a, &b) {
            (Ok(x), Ok(y)) => {
                assert!(x.rotation.is_planar_embedding());
                assert_eq!(x.rotation, y.rotation);
                assert_eq!(x.metrics, y.metrics);
                assert!(x.metrics.dropped > 0 || x.metrics.retransmissions > 0);
            }
            (Err(EmbedError::Degraded { .. }), Err(EmbedError::Degraded { .. })) => {
                // Degrading is acceptable; diverging is not.
            }
            other => panic!("runs diverged or failed untyped: {other:?}"),
        }
    }

    /// `FaultPlan::default()` leaves the embedder's outcome byte-identical
    /// (acceptance criterion: the fault subsystem costs nothing unused).
    #[test]
    fn default_fault_plan_changes_nothing() {
        let g = gen::triangulated_grid(4, 4);
        let plain = run(&g);
        let explicit = embed_distributed(
            &g,
            &EmbedderConfig {
                sim: SimConfig {
                    faults: FaultPlan::default(),
                    ..SimConfig::default()
                },
                ..EmbedderConfig::default()
            },
        )
        .unwrap();
        assert_eq!(plain.rotation, explicit.rotation);
        assert_eq!(plain.metrics, explicit.metrics);
        assert_eq!(plain.metrics.dropped, 0);
        assert_eq!(plain.metrics.retransmissions, 0);
    }

    #[test]
    fn rounds_scale_near_d_log_n_on_grids() {
        // Sanity check of the Theorem 1.1 shape (full sweep in the bench
        // harness): rounds / (D log n) stays within a modest constant.
        let g = gen::grid(6, 6);
        let out = run(&g);
        let d = 10.0; // grid diameter
        let logn = (36f64).log2();
        let ratio = out.metrics.rounds as f64 / (d * logn);
        assert!(
            ratio < 40.0,
            "rounds = {}, ratio = {ratio}",
            out.metrics.rounds
        );
    }
}
