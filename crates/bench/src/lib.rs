//! # spmv-bench
//!
//! Experiment harness regenerating every table and figure of the
//! paper's evaluation, plus ablations. Each experiment is a library
//! function returning its rendered output, with a thin binary wrapper
//! (`src/bin/*.rs`) per paper artifact:
//!
//! | binary | paper artifact |
//! |---|---|
//! | `fig1_optimization_effects` | Fig. 1 — per-optimization speedups on KNC |
//! | `fig3_bounds` | Fig. 3 — `P_CSR` vs per-class bounds on KNC |
//! | `fig5_landscape` | Fig. 6(a-c) — optimizer landscape on KNC/KNL/BDW |
//! | `table1_platforms` | Table 1 — platform characteristics |
//! | `table2_features` | Table 2 — feature extraction + scaling check |
//! | `table3_accuracy` | Table 3 — LOOCV accuracy of the feature-guided classifier |
//! | `table4_overhead` | Table 4 — amortization iterations per optimizer |
//! | `bench_trajectory` | `BENCH_spmv.json` — simulated cross-PR performance trajectory |
//! | `bench_compare` | regression gate over two `BENCH_spmv.json` files |
//! | `ablation_thresholds` | grid-search sensitivity of `T_ML`/`T_IMB` |
//! | `ablation_scheduling` | scheduling policies on skewed matrices |
//! | `ablation_partitioned_ml` | future-work partitioned irregularity detection |
//! | `ablation_sensitivity` | class populations under architecture sweeps |
//! | `validate_sim` | simulated vs real kernel timings on the host |
//!
//! All experiments run on the deterministic `spmv-sim` substrate, so
//! their output is reproducible bit-for-bit; criterion benches under
//! `benches/` measure the *real* kernels on the host.

pub mod cli;
pub mod compare;
pub mod context;
pub mod experiments;
pub mod table;
pub mod trajectory;

pub use cli::{flag_parsed, flag_present, flag_value, reject_unknown_flags, CliError};
pub use context::{load_suite, Analysis, NamedMatrix, Platform};
pub use table::Table;
