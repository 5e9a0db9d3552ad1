//! # planar-service
//!
//! Embedding-as-a-service: a long-lived, multi-tenant layer over the
//! `planar-embedding` driver stack. This is the production framing of
//! the ROADMAP north star — not one big batch run, but thousands of
//! independent client graphs *resident* at once, each mutating under
//! churn and each keeping its embedding, certificates, and metrics
//! continuously fresh.
//!
//! The moving parts:
//!
//! * [`ServiceState`] — the tenant table. Each [`Tenant`] owns a
//!   [`ResidentEmbedding`](planar_embedding::ResidentEmbedding) (graph,
//!   retained recursion arena, rotation, certificates, and a warm
//!   per-tenant [`KernelCache`](congest_sim::KernelCache) reused across
//!   deltas), a running [`TenantStats`], and the per-delta
//!   [`DeltaRecord`] log the bench harness aggregates into latency
//!   percentiles.
//! * [`Delta`] — the typed mutation API ([`delta`]): edge inserts and
//!   deletes, node arrivals and departures, validated against the
//!   resident graph before anything runs.
//! * [`preflight`] — the one-sided gate ([`gate`]): deletions are
//!   accepted as planar by minor-closedness, density-violating inserts
//!   are rejected *without re-embedding*, co-facial witnesses promise
//!   success; everything else defers to the embedder.
//! * Incremental re-embedding — an applied delta is classified into a
//!   typed [`DeltaClass`] by the delta planner
//!   (`planar_embedding::planner`), the resident BFS tree is repaired
//!   host-side, and only the dirty region of the level-synchronous
//!   recursion re-runs, with certificate labels spliced
//!   (`planar_embedding::incremental`). The bit-identity contract holds
//!   for every class: rotation, certification verdict, and planarity
//!   outcome equal a full re-embed of the same graph. With
//!   [`OracleMode::Always`] the service *checks* that contract on every
//!   delta by running the full re-embed oracle and diffing; the
//!   planned-vs-taken class pair lands in each [`DeltaRecord`] for the
//!   DST churn oracle to audit.
//! * [`ChurnGen`] — the seeded sensor-fleet workload ([`churn`]),
//!   shared with the DST scenario space.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod churn;
pub mod delta;
pub mod gate;

use std::time::Instant;

use planar_embedding::{
    embed_distributed, EmbedError, EmbedderConfig, Kernel, ReembedReport, ResidentEmbedding,
};
use planar_graph::{Graph, RotationSystem};

pub use churn::ChurnGen;
pub use delta::{apply_delta, Delta, DeltaError};
pub use gate::{preflight, GateVerdict};
pub use planar_embedding::DeltaClass;

/// When the service runs the full re-embed oracle against the
/// incremental result.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub enum OracleMode {
    /// Never (production: trust the bit-identity contract).
    #[default]
    Off,
    /// On every applied or planarity-rejected delta (soaks, CI gates,
    /// property tests): run [`embed_distributed`] on the mutated graph
    /// and diff rotation, certification verdict, and planarity outcome.
    Always,
}

/// Service-wide configuration, applied to every tenant.
#[derive(Clone, Debug)]
pub struct ServiceConfig {
    /// Kernel simulation parameters (budget, watchdog, trace sink).
    /// Fault plans are not supported here — tenants are long-lived
    /// embeddings, not chaos runs.
    pub sim: congest_sim::SimConfig,
    /// Which kernel simulates tenant phases.
    pub kernel: Kernel,
    /// Keep distributed certification artifacts resident and re-verify
    /// (with label splicing) on every delta.
    pub certify: bool,
    /// Check framework invariants at every merge (the per-part safety BFS
    /// is superlinear, see [`planar_embedding::EmbedderConfig`]; off by
    /// default in the service path).
    pub check_invariants: bool,
    /// Full re-embed oracle policy.
    pub oracle: OracleMode,
}

impl Default for ServiceConfig {
    fn default() -> Self {
        ServiceConfig {
            sim: congest_sim::SimConfig::default(),
            kernel: Kernel::default(),
            certify: true,
            check_invariants: false,
            oracle: OracleMode::Off,
        }
    }
}

impl ServiceConfig {
    /// The embedder configuration tenants run under.
    fn embedder(&self) -> EmbedderConfig {
        EmbedderConfig {
            sim: self.sim.clone(),
            check_invariants: self.check_invariants,
            reliability: None,
            certify: self.certify,
            kernel: self.kernel,
            scheduler: planar_embedding::Scheduler::LevelSync,
        }
    }
}

/// Handle of one tenant in a [`ServiceState`].
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub struct TenantId(usize);

impl std::fmt::Display for TenantId {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "tenant#{}", self.0)
    }
}

/// How one delta ended.
#[derive(Clone, Debug, PartialEq)]
pub enum DeltaOutcome {
    /// The delta was applied; the resident embedding now covers the
    /// mutated graph.
    Applied {
        /// The re-embedding path taken and its reuse accounting.
        report: ReembedReport,
        /// The pre-flight gate's verdict for the delta.
        gate: GateVerdict,
    },
    /// The delta would make the graph non-planar; the resident state is
    /// unchanged.
    RejectedNonPlanar {
        /// The gate's verdict — [`GateVerdict::DefinitelyNonPlanar`]
        /// when the gate short-circuited (no re-embedding ran at all).
        gate: GateVerdict,
    },
    /// The delta was structurally invalid for the resident graph.
    RejectedInvalid {
        /// Why.
        error: DeltaError,
    },
}

/// One entry of a tenant's delta log.
#[derive(Clone, Debug)]
pub struct DeltaRecord {
    /// The delta as submitted.
    pub delta: Delta,
    /// How it ended.
    pub outcome: DeltaOutcome,
    /// The [`DeltaClass`] the re-embedding *executed* — the planner's
    /// class on the incremental path, [`DeltaClass::Fallback`] for a full
    /// re-run. `None` for deltas that never reached the embedder
    /// (invalid, or gate-short-circuited).
    pub class: Option<DeltaClass>,
    /// The class the planner *predicted* before executing anything.
    /// Disagreement with [`class`](Self::class) means a staged repair was
    /// rejected by its oracle-grade verification — the DST churn oracle
    /// raises a violation on any mismatch.
    pub planned: Option<DeltaClass>,
    /// Distinct dirty vertices the planner scoped the rebuild to (0 on
    /// the full path and for deltas that never reached the embedder).
    pub dirty_region: usize,
    /// Wall time of the service-side handling (validation, gate,
    /// incremental re-embed) in nanoseconds.
    pub service_nanos: u128,
    /// Wall time of the full re-embed oracle, when one ran.
    pub oracle_nanos: Option<u128>,
    /// The first disagreement with the oracle, if any — a contract
    /// violation ([`ServiceState::divergences`] gates on these).
    pub diverged: Option<String>,
}

/// Running per-tenant counters.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct TenantStats {
    /// Deltas applied (incremental + full fallbacks).
    pub applied: usize,
    /// Applied via the incremental path (the sum of the three
    /// per-class counters below).
    pub incremental: usize,
    /// Applied incrementally as [`DeltaClass::TreePreserving`].
    pub tree_preserving: usize,
    /// Applied incrementally as [`DeltaClass::TreeRepairable`].
    pub tree_repairable: usize,
    /// Applied incrementally as [`DeltaClass::VertexSetChange`].
    pub vertex_set: usize,
    /// Applied via a recorded full fallback (tree or vertex-set change).
    pub full_fallbacks: usize,
    /// Deltas rejected as planarity-breaking.
    pub rejected_nonplanar: usize,
    /// Of those, rejected by the gate alone (no re-embedding ran).
    pub gate_short_circuits: usize,
    /// Deltas rejected as structurally invalid.
    pub rejected_invalid: usize,
    /// Sequential kernel rounds across all re-embeddings.
    pub rounds: usize,
    /// Full-oracle runs performed.
    pub oracle_runs: usize,
    /// Oracle disagreements observed (must stay 0).
    pub divergences: usize,
}

impl TenantStats {
    /// Applied deltas executed as `class` ([`DeltaClass::Fallback`] maps
    /// to the full-fallback counter).
    pub fn by_class(&self, class: DeltaClass) -> usize {
        match class {
            DeltaClass::TreePreserving => self.tree_preserving,
            DeltaClass::TreeRepairable => self.tree_repairable,
            DeltaClass::VertexSetChange => self.vertex_set,
            DeltaClass::Fallback => self.full_fallbacks,
        }
    }
}

/// One resident client graph with its embedding and history.
pub struct Tenant {
    label: Option<&'static str>,
    resident: ResidentEmbedding,
    stats: TenantStats,
    records: Vec<DeltaRecord>,
}

impl Tenant {
    /// The optional label given at creation (e.g. the generator family).
    pub fn label(&self) -> Option<&'static str> {
        self.label
    }

    /// The tenant's current graph.
    pub fn graph(&self) -> &Graph {
        self.resident.graph()
    }

    /// The tenant's resident rotation system.
    pub fn rotation(&self) -> &RotationSystem {
        self.resident.rotation()
    }

    /// The tenant's resident certification, when the service certifies.
    pub fn certification(&self) -> Option<&planar_embedding::Certification> {
        self.resident.certification()
    }

    /// `true` if `{u, v}` is an edge of the tenant's resident BFS tree.
    /// Deleting a non-tree edge is guaranteed to take the incremental
    /// path; benchmarks use this to construct incremental-friendly
    /// workloads.
    pub fn is_tree_edge(&self, u: planar_graph::VertexId, v: planar_graph::VertexId) -> bool {
        self.resident.is_tree_edge(u, v)
    }

    /// Running counters.
    pub fn stats(&self) -> &TenantStats {
        &self.stats
    }

    /// The per-delta log, oldest first.
    pub fn records(&self) -> &[DeltaRecord] {
        &self.records
    }
}

impl std::fmt::Debug for Tenant {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Tenant")
            .field("label", &self.label)
            .field("resident", &self.resident)
            .field("stats", &self.stats)
            .finish()
    }
}

/// A service-level failure (as opposed to a per-delta rejection, which
/// is a normal [`DeltaOutcome`]).
#[derive(Debug)]
pub enum ServiceError {
    /// The tenant id does not exist.
    UnknownTenant(TenantId),
    /// The embedder failed for a reason other than non-planarity — an
    /// internal error, never an input condition.
    Embed(EmbedError),
}

impl std::fmt::Display for ServiceError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ServiceError::UnknownTenant(id) => write!(f, "unknown {id}"),
            ServiceError::Embed(e) => write!(f, "embedder failure: {e}"),
        }
    }
}

impl std::error::Error for ServiceError {}

/// The multi-tenant embedding service: a tenant table plus the shared
/// configuration. See the crate docs for the architecture.
pub struct ServiceState {
    cfg: ServiceConfig,
    tenants: Vec<Tenant>,
}

impl ServiceState {
    /// An empty service under `cfg`.
    pub fn new(cfg: ServiceConfig) -> Self {
        ServiceState {
            cfg,
            tenants: Vec::new(),
        }
    }

    /// The service configuration.
    pub fn config(&self) -> &ServiceConfig {
        &self.cfg
    }

    /// Admits `graph` as a new tenant: builds its resident embedding
    /// (one full level-synchronous run with the arena retained) and
    /// returns its handle.
    ///
    /// # Errors
    ///
    /// [`ServiceError::Embed`] when the graph cannot be embedded (e.g.
    /// non-planar or disconnected at admission).
    pub fn create_tenant(&mut self, graph: Graph) -> Result<TenantId, ServiceError> {
        self.create_tenant_labeled(graph, None)
    }

    /// [`create_tenant`](Self::create_tenant) with a label carried into
    /// reports (benchmarks label tenants by generator family).
    pub fn create_tenant_labeled(
        &mut self,
        graph: Graph,
        label: Option<&'static str>,
    ) -> Result<TenantId, ServiceError> {
        let (resident, _report) =
            ResidentEmbedding::build(graph, &self.cfg.embedder()).map_err(ServiceError::Embed)?;
        let id = TenantId(self.tenants.len());
        self.tenants.push(Tenant {
            label,
            resident,
            stats: TenantStats::default(),
            records: Vec::new(),
        });
        Ok(id)
    }

    /// Number of resident tenants.
    pub fn tenant_count(&self) -> usize {
        self.tenants.len()
    }

    /// Looks up a tenant.
    pub fn tenant(&self, id: TenantId) -> Option<&Tenant> {
        self.tenants.get(id.0)
    }

    /// Iterates over all tenants.
    pub fn tenants(&self) -> impl Iterator<Item = (TenantId, &Tenant)> {
        self.tenants
            .iter()
            .enumerate()
            .map(|(i, t)| (TenantId(i), t))
    }

    /// Total oracle divergences across all tenants — the CI gate reads
    /// this; any nonzero value is a bit-identity contract violation.
    pub fn divergences(&self) -> usize {
        self.tenants.iter().map(|t| t.stats.divergences).sum()
    }

    /// Applies one delta to a tenant: validation, pre-flight gate,
    /// incremental re-embedding, and (per [`OracleMode`]) the full
    /// re-embed oracle check. Rejections are normal outcomes, not
    /// errors; the resident state is untouched by any rejection.
    ///
    /// # Errors
    ///
    /// [`ServiceError::UnknownTenant`] for a bad handle;
    /// [`ServiceError::Embed`] only for internal embedder failures.
    pub fn apply(&mut self, id: TenantId, delta: Delta) -> Result<DeltaOutcome, ServiceError> {
        let oracle_on = self.cfg.oracle == OracleMode::Always;
        let embedder = self.cfg.embedder();
        let tenant = self
            .tenants
            .get_mut(id.0)
            .ok_or(ServiceError::UnknownTenant(id))?;

        let started = Instant::now();
        // 1. Structural validation; an invalid delta never reaches the
        //    embedder.
        let mutated = match apply_delta(tenant.resident.graph(), &delta) {
            Ok(g) => g,
            Err(error) => {
                let outcome = DeltaOutcome::RejectedInvalid { error };
                tenant.stats.rejected_invalid += 1;
                tenant.records.push(DeltaRecord {
                    delta,
                    outcome: outcome.clone(),
                    class: None,
                    planned: None,
                    dirty_region: 0,
                    service_nanos: started.elapsed().as_nanos(),
                    oracle_nanos: None,
                    diverged: None,
                });
                return Ok(outcome);
            }
        };
        let oracle_graph = oracle_on.then(|| mutated.clone());

        // 2. One-sided pre-flight gate: a density rejection skips the
        //    re-embedding entirely.
        let gate = preflight(tenant.resident.graph(), tenant.resident.rotation(), &delta);
        let mut class = None;
        let mut planned = None;
        let mut dirty_region = 0;
        let outcome = if gate == GateVerdict::DefinitelyNonPlanar {
            tenant.stats.rejected_nonplanar += 1;
            tenant.stats.gate_short_circuits += 1;
            DeltaOutcome::RejectedNonPlanar { gate }
        } else {
            // 3. Incremental re-embedding (full fallback recorded in the
            //    report when the delta planner finds no local repair). A
            //    departure carries the removed id as an explicit planning
            //    hint — the renumbered graph alone cannot recover it.
            let result = match &delta {
                Delta::RemoveNode(v) => tenant.resident.reembed_departure(mutated, *v),
                _ => tenant.resident.reembed(mutated),
            };
            match result {
                Ok(report) => {
                    tenant.stats.applied += 1;
                    let taken = report.taken();
                    if report.is_incremental() {
                        tenant.stats.incremental += 1;
                        match taken {
                            DeltaClass::TreePreserving => tenant.stats.tree_preserving += 1,
                            DeltaClass::TreeRepairable => tenant.stats.tree_repairable += 1,
                            DeltaClass::VertexSetChange => tenant.stats.vertex_set += 1,
                            DeltaClass::Fallback => unreachable!("incremental path has a class"),
                        }
                    } else {
                        tenant.stats.full_fallbacks += 1;
                    }
                    tenant.stats.rounds += report.rounds;
                    class = Some(taken);
                    planned = Some(report.planned);
                    dirty_region = report.dirty_region();
                    DeltaOutcome::Applied { report, gate }
                }
                Err(EmbedError::NonPlanar) => {
                    tenant.stats.rejected_nonplanar += 1;
                    DeltaOutcome::RejectedNonPlanar { gate }
                }
                Err(e) => return Err(ServiceError::Embed(e)),
            }
        };
        let service_nanos = started.elapsed().as_nanos();

        // 4. The full re-embed oracle: embed the mutated graph from
        //    scratch and diff against the incremental result.
        let (oracle_nanos, diverged) = match oracle_graph {
            Some(g) => {
                let t0 = Instant::now();
                let oracle = embed_distributed(&g, &embedder);
                let nanos = t0.elapsed().as_nanos();
                tenant.stats.oracle_runs += 1;
                let divergence = compare_with_oracle(&outcome, &oracle, tenant);
                if divergence.is_some() {
                    tenant.stats.divergences += 1;
                }
                (Some(nanos), divergence)
            }
            None => (None, None),
        };
        tenant.records.push(DeltaRecord {
            delta,
            outcome: outcome.clone(),
            class,
            planned,
            dirty_region,
            service_nanos,
            oracle_nanos,
            diverged,
        });
        Ok(outcome)
    }
}

/// Diffs one delta's outcome against the full re-embed oracle on the
/// mutated graph: planarity outcome, rotation system, certification
/// verdict — the bit-identity contract, nothing more (metrics and round
/// tallies are intentionally out of scope).
fn compare_with_oracle(
    outcome: &DeltaOutcome,
    oracle: &Result<planar_embedding::EmbeddingOutcome, EmbedError>,
    tenant: &Tenant,
) -> Option<String> {
    match (outcome, oracle) {
        (DeltaOutcome::Applied { .. }, Ok(full)) => {
            if tenant.resident.rotation() != &full.rotation {
                return Some("rotation differs from full re-embed".into());
            }
            let resident_cert = tenant.resident.certification();
            match (resident_cert, &full.certification) {
                (None, None) => None,
                (Some(a), Some(b)) => {
                    if a.certificates != b.certificates {
                        Some("certificates differ from full re-embed".into())
                    } else if a.report.accepted != b.report.accepted
                        || a.report.rejections != b.report.rejections
                    {
                        Some("certification verdict differs from full re-embed".into())
                    } else {
                        None
                    }
                }
                _ => Some("certification presence differs from full re-embed".into()),
            }
        }
        (DeltaOutcome::Applied { .. }, Err(e)) => {
            Some(format!("service applied but full re-embed failed: {e}"))
        }
        (DeltaOutcome::RejectedNonPlanar { .. }, Err(EmbedError::NonPlanar)) => None,
        (DeltaOutcome::RejectedNonPlanar { .. }, Ok(_)) => {
            Some("service rejected as non-planar but full re-embed succeeded".into())
        }
        (DeltaOutcome::RejectedNonPlanar { .. }, Err(e)) => Some(format!(
            "service rejected as non-planar but full re-embed failed differently: {e}"
        )),
        // Invalid deltas never run either path.
        (DeltaOutcome::RejectedInvalid { .. }, _) => None,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use planar_graph::VertexId;
    use planar_lib::gen;

    fn service(oracle: OracleMode) -> ServiceState {
        ServiceState::new(ServiceConfig {
            oracle,
            ..ServiceConfig::default()
        })
    }

    #[test]
    fn tenants_apply_deltas_and_keep_embeddings_fresh() {
        let mut svc = service(OracleMode::Always);
        let id = svc.create_tenant(gen::grid(4, 4)).unwrap();
        let out = svc
            .apply(
                id,
                Delta::AddNode {
                    attach: vec![VertexId(0)],
                },
            )
            .unwrap();
        assert!(matches!(out, DeltaOutcome::Applied { .. }));
        let tenant = svc.tenant(id).unwrap();
        assert_eq!(tenant.graph().vertex_count(), 17);
        assert!(tenant.rotation().is_planar_embedding());
        assert!(tenant.certification().unwrap().accepted());
        assert_eq!(svc.divergences(), 0);
        assert_eq!(tenant.stats().applied, 1);
        assert_eq!(tenant.records().len(), 1);
    }

    #[test]
    fn gate_short_circuits_density_violations() {
        let mut svc = service(OracleMode::Always);
        let g = gen::random_maximal_planar(10, 7);
        let id = svc.create_tenant(g.clone()).unwrap();
        let (u, v) = {
            let mut pick = None;
            'outer: for a in g.vertices() {
                for b in g.vertices() {
                    if a < b && !g.has_edge(a, b) {
                        pick = Some((a, b));
                        break 'outer;
                    }
                }
            }
            pick.unwrap()
        };
        let out = svc.apply(id, Delta::InsertEdge(u, v)).unwrap();
        assert_eq!(
            out,
            DeltaOutcome::RejectedNonPlanar {
                gate: GateVerdict::DefinitelyNonPlanar
            }
        );
        let tenant = svc.tenant(id).unwrap();
        assert_eq!(tenant.stats().gate_short_circuits, 1);
        assert_eq!(tenant.graph(), &g, "rejection leaves the tenant untouched");
        assert_eq!(svc.divergences(), 0, "gate rejection must match the oracle");
    }

    #[test]
    fn invalid_deltas_are_rejected_without_embedding() {
        let mut svc = service(OracleMode::Off);
        let id = svc.create_tenant(gen::path(4)).unwrap();
        let out = svc
            .apply(id, Delta::DeleteEdge(VertexId(0), VertexId(1)))
            .unwrap();
        assert!(matches!(
            out,
            DeltaOutcome::RejectedInvalid {
                error: DeltaError::WouldDisconnect
            }
        ));
        assert_eq!(svc.tenant(id).unwrap().stats().rejected_invalid, 1);
    }

    #[test]
    fn unknown_tenants_error() {
        let mut svc = service(OracleMode::Off);
        assert!(matches!(
            svc.apply(TenantId(7), Delta::RemoveNode(VertexId(0))),
            Err(ServiceError::UnknownTenant(_))
        ));
    }

    #[test]
    fn churn_under_oracle_stays_bit_identical() {
        let mut svc = service(OracleMode::Always);
        let id = svc.create_tenant(gen::wheel(10)).unwrap();
        let mut churn = ChurnGen::new(3);
        for _ in 0..6 {
            let delta = churn.next_delta(svc.tenant(id).unwrap().graph());
            svc.apply(id, delta).unwrap();
        }
        assert_eq!(svc.divergences(), 0);
        let stats = svc.tenant(id).unwrap().stats();
        assert_eq!(stats.oracle_runs, stats.applied + stats.rejected_nonplanar);
    }
}
