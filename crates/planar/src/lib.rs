//! # planar-lib
//!
//! Planar graph theory substrate for the planar-networks workspace — the
//! centralized counterpart the paper contrasts itself with, used here for
//! three purposes:
//!
//! 1. **Verification ground truth**: every distributed embedding produced by
//!    the `planar-embedding` crate is checked against embeddings and
//!    planarity facts computed centrally.
//! 2. **The trivial baseline** (footnote 2 of the paper): gather the whole
//!    topology and embed locally with the [`embed`] function, the analogue
//!    of Hopcroft–Tarjan in our pipeline: the linear-time left-right
//!    planarity test of de Fraysseix, Ossona de Mendez and Rosenstiehl, with
//!    embedding extraction, so it returns a rotation system, not just a
//!    yes/no answer.
//! 3. **Merge skeleton solving**: the distributed algorithm's coordinators
//!    embed small summarized "outline" graphs with pinned outer faces via
//!    [`embed_pinned`].
//!
//! # Example
//!
//! ```
//! use planar_lib::{embed, gen};
//!
//! # fn main() -> Result<(), planar_lib::PlanarityError> {
//! let g = gen::grid(5, 8);
//! let embedding = embed(&g)?;
//! assert!(embedding.is_planar_embedding());
//! // Euler: F = 2 - V + E = 2 - 40 + 67.
//! assert_eq!(embedding.face_count(), 29);
//! # Ok(())
//! # }
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod embed;
mod error;
pub mod gen;
mod lr;
mod outerplanar;

pub use embed::{embed, embed_pinned, is_planar, PinnedEmbedding};
pub use error::PlanarityError;
pub use outerplanar::{embed_outerplanar, is_outerplanar, OuterplanarEmbedding};
