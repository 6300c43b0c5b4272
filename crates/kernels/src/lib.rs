//! # spmv-kernels
//!
//! Executable parallel SpMV kernels for the `spmv-tune` workspace:
//! the baseline CSR kernel of the paper (static, nnz-balanced 1-D row
//! partitioning) plus the paper's optimization pool:
//!
//! | paper class | optimization | module |
//! |---|---|---|
//! | `MB` | column-index delta compression + vectorization | [`compressed`] |
//! | `ML` | software prefetching of `x` along the flat nonzero stream | [`baseline`] (row kernel) |
//! | `IMB` | long-row decomposition / `auto` scheduling | [`decomposed`], [`schedule`] |
//! | `CMP` | inner-loop unrolling + vectorization | [`baseline`] (row kernel) |
//!
//! [`micro`] extends the `CMP` pool with a menu of explicitly
//! vectorized row kernels (`core::arch` AVX2/AVX-512 behind runtime
//! detection, each with a bitwise-identical scalar fallback) that the
//! tuner's menu search selects from per matrix.
//!
//! All of these are points of one kernel space,
//! [`variant::KernelConfig`] (format × row kernel × schedule). A
//! [`variant::KernelVariant`] (a set of the paper's optimizations) and
//! a [`micro::MenuEntry`] (a tuner menu candidate) each name a config;
//! [`variant::build_kernel`] and [`variant::build_micro_kernel`] lower
//! it onto a concrete kernel object through one path (performing any
//! required format conversion and reporting its preprocessing time —
//! the quantity amortized in the paper's Table 4 study).
//!
//! All kernels execute on the persistent worker pool of [`engine`]:
//! threads are created once per thread count and parked between
//! calls, and each kernel holds a precomputed [`engine::Plan`] so
//! repeated invocations pay neither spawn latency nor partition
//! recomputation. Kernels honour an explicit thread count and capture
//! per-thread busy times — the measurement behind the paper's `P_IMB`
//! bound — timed around pure compute only.
//!
//! [`dense`] runs the solvers' vector passes (dots, axpys, fused
//! Krylov updates) on the same team, in fixed chunks whose
//! reductions are bitwise independent of the thread count.

pub mod baseline;
pub mod compressed;
pub mod decomposed;
pub mod dense;
pub mod engine;
pub mod micro;
pub mod schedule;
pub mod sliced;
pub mod spmm;
pub mod variant;

pub use engine::{ExecEngine, Plan};
pub use micro::{MenuEntry, MicroSpec};
pub use schedule::{Schedule, ThreadTimes};
pub use spmm::{SpmmKernel, MAX_BATCH};
pub use variant::{
    build_kernel, build_micro_kernel, BuiltKernel, Format, KernelConfig, KernelVariant,
    Optimization, SpmvKernel,
};
