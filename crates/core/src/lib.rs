//! # planar-embedding
//!
//! A reproduction of **"Distributed Algorithms for Planar Networks I:
//! Planar Embedding"** (Ghaffari & Haeupler, PODC 2016): a deterministic
//! distributed algorithm that computes a combinatorial planar embedding —
//! each node learns the clockwise cyclic order of its incident edges — in
//! `O(D · min{log n, D})` CONGEST rounds on any planar network with `n`
//! nodes and diameter `D`.
//!
//! ## Crate layout (mirrors the paper)
//!
//! * [`setup`] — the `O(D)` preliminaries: max-id leader election, BFS tree,
//!   subtree sizes, `n` and a 2-approximate diameter (Section 2).
//! * [`parts`] — the partition framework and the safety property
//!   (Section 3, Definition 3.1).
//! * [`interface`] — interfaces of parts, their biconnected-decomposition
//!   characterization, and an exhaustive oracle validating Observation 3.2.
//! * [`partition`] — the recursive BFS-subtree/centroid-path partition
//!   (Section 4, Lemmas 4.1–4.3).
//! * [`symmetry`] — the O(1)-round symmetry breaking of Lemma 5.3.
//! * [`merge`] — the unrestricted path-coordinated merge, step by step per
//!   Section 5.3, composing the Section 5.2 merge patterns (pairwise,
//!   star, vertex-coordinated) in place.
//! * [`neighborhood`] — O(1)-round neighborhood learning on
//!   everywhere-sparse graphs (the Section 7.1.3 substitute) and
//!   degeneracy orientations.
//! * [`ruling`] — the log* extension: a deterministic ruling edge set
//!   (independent in `L(G)`, dominating in `L(G)^2`) via Cole-Vishkin.
//! * [`resilience`] — fault-tolerance policy: reliable-delivery budget
//!   widening, watchdog policy, and the [`EmbedError::Degraded`]
//!   degradation semantics for runs under injected faults.
//! * [`outcome`] — terminal-outcome classification ([`OutcomeClass`]) and
//!   the allowed-terminal lattice the DST shadow oracles (`crates/dst`)
//!   compare runs against.
//! * [`ExecutionContext`] — the typed execution context every phase runs
//!   through: one kernel session per graph, kernel selection
//!   ([`Kernel`]), reliable delivery, the phase-attributed round tally,
//!   and batched execution of vertex-disjoint subproblem instances.
//!   [`Scheduler`] picks the level-synchronous (default) or depth-first
//!   builder of the one recursion arena — bit-identical outputs, very
//!   different host cost.
//! * [`embed_distributed`] — the end-to-end algorithm (Theorem 1.1).
//! * [`embed_baseline`] — the trivial `O(n)` gather-everything baseline
//!   (footnote 2), the comparison point for all benchmarks.
//! * [`verify_embedding`] / [`is_planar_distributed`] — output validation
//!   and the planarity-test view of the algorithm.
//!
//! ## Example
//!
//! ```
//! use planar_embedding::{embed_distributed, EmbedderConfig};
//! use planar_lib::gen;
//!
//! # fn main() -> Result<(), planar_embedding::EmbedError> {
//! let network = gen::grid(6, 8);
//! let outcome = embed_distributed(&network, &EmbedderConfig::default())?;
//!
//! // The output is a genus-0 rotation system of the input network.
//! assert!(outcome.rotation.is_planar_embedding());
//!
//! // The measured CONGEST cost: rounds, messages, congestion.
//! println!("{}", outcome.metrics);
//!
//! // Structural validation of the paper's lemmas comes for free.
//! assert!(outcome.stats.max_child_ratio() <= 2.0 / 3.0);
//! # Ok(())
//! # }
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod baseline;
pub mod certify;
mod driver;
mod error;
mod exec;
pub mod incremental;
pub mod interface;
pub mod merge;
pub mod neighborhood;
pub mod outcome;
pub mod partition;
pub mod parts;
pub mod planner;
pub mod resilience;
pub mod ruling;
pub mod setup;
pub mod stats;
pub mod symmetry;
pub mod tree;
mod verify;

pub use baseline::embed_baseline;
pub use certify::{
    certify_embedding, certify_surviving_embedding, certify_with_certificates, Certification,
};
pub use congest_sim::protocols::ReliableConfig;
pub use driver::{
    embed_distributed, embed_recursion, embed_recursion_with_memory, EmbedderConfig,
    EmbeddingOutcome,
};
pub use error::{DegradedCause, EmbedError};
pub use exec::{ExecutionContext, Kernel, Scheduler};
pub use incremental::{FullCause, ReembedPath, ReembedReport, ResidentEmbedding};
pub use outcome::{degraded_fingerprint, OutcomeClass};
pub use planner::DeltaClass;
pub use stats::{LevelStats, MergeStats, RecursionStats};
pub use verify::{is_planar_distributed, verify_embedding, verify_surviving_embedding};
