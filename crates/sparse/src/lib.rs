//! # spmv-sparse
//!
//! Sparse matrix substrate for the `spmv-tune` workspace: storage
//! formats, synthetic matrix generators, MatrixMarket I/O and the
//! structural feature extraction of Elafrou et al. (IPDPS 2017),
//! Table 2.
//!
//! ## Formats
//!
//! * [`Coo`] — coordinate (triplet) format, the assembly format.
//! * [`Csr`] — Compressed Sparse Row, the baseline format of the paper.
//! * [`DeltaCsr`] — CSR with delta-compressed column indices (8- or
//!   16-bit deltas, never both), the paper's `MB`-class optimization.
//! * [`DecomposedCsr`] — CSR split into a short-row part and a long-row
//!   part, the paper's `IMB`-class decomposition optimization.
//! * [`SellCs`] — SELL-C-σ sliced ELLPACK, the tuner menu's
//!   SIMD-lockstep format.
//!
//! ## Generators
//!
//! [`gen`] provides structural archetypes (banded FEM, stencils,
//! power-law graphs, circuit matrices with a few dense rows, …) and
//! [`gen::suite`] names presets after the matrices of the paper's
//! representative suite (`consph`, `rajat30`, `web_google`, …).
//!
//! ## Features
//!
//! [`features::FeatureVector`] implements the paper's Table 2 feature
//! set with the documented extraction complexities.

pub mod coo;
pub mod csr;
pub mod decomp;
pub mod delta;
pub mod error;
pub mod features;
pub mod gen;
pub mod mm;
pub mod sellcs;
pub mod spy;
pub mod stats;
pub mod validate;

pub use coo::Coo;
pub use csr::Csr;
pub use decomp::DecomposedCsr;
pub use delta::{DeltaCsr, DeltaWidth};
pub use error::SparseError;
pub use features::FeatureVector;
pub use sellcs::SellCs;
pub use stats::RowStats;
pub use validate::{MaybeValidated, ValidateFormat, Validated};

/// Result alias for fallible sparse-matrix operations.
pub type Result<T> = std::result::Result<T, SparseError>;

/// Converts a row/column index (or count) to the `u32` the storage
/// formats use, panicking with a descriptive message instead of
/// silently truncating. Every format in this crate stores indices as
/// `u32`; a matrix dimension past that range cannot be represented,
/// and a wrapped index would be data corruption, not an error.
#[inline]
pub fn index_u32(i: usize) -> u32 {
    u32::try_from(i).unwrap_or_else(|_| panic!("index {i} exceeds the u32 index space"))
}
