//! The kernel space and its one lowering path.
//!
//! Every runnable kernel is a point of one configuration space,
//! [`KernelConfig`]: a storage [`Format`], a row kernel
//! ([`InnerLoop`]) and a row [`Schedule`]. Two families of named points
//! map into it:
//!
//! * [`KernelVariant`] — the paper's optimizer output, a *set* of
//!   optimizations (one per detected bottleneck class, applied jointly)
//!   combined by the join rules of [`KernelVariant::config`];
//! * [`MenuEntry`] — the tuner menu's candidates
//!   ([`MenuEntry::config`]).
//!
//! [`build_kernel`] and [`build_micro_kernel`] map their point to a
//! config and lower it through one function, which performs the
//! format conversion and structural validation, times both as
//! preprocessing — the quantity the paper's Table 4 amortization study
//! charges each optimizer for — and applies the space's two fallback
//! rules.

use std::fmt;
use std::time::Instant;

use spmv_sparse::{Csr, DecomposedCsr, DeltaCsr, SellCs};

use crate::baseline::{CsrKernel, InnerLoop};
use crate::compressed::DeltaKernel;
use crate::decomposed::DecomposedKernel;
use crate::micro::MenuEntry;
use crate::schedule::{Schedule, ThreadTimes};
use crate::sliced::SellKernel;

/// One optimization from the paper's pool (Fig. 1 / Table "classes to
/// optimizations").
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Optimization {
    /// Inner-loop unrolling + vectorization (`CMP`, and part of `MB`).
    Vectorize,
    /// Software prefetching of `x` (`ML`).
    Prefetch,
    /// Column-index delta compression (`MB`).
    Compress,
    /// Long-row matrix decomposition (`IMB`, uneven row lengths).
    Decompose,
    /// `auto`/guided scheduling (`IMB`, computational unevenness).
    AutoSchedule,
    /// SELL-C-σ sliced-ELL storage (Kreutzer et al., cited by the
    /// paper's related work) — an extension beyond the paper's pool:
    /// SIMD-lockstep chunks with σ-window row sorting, an alternative
    /// `IMB`/`MB` treatment for moderately skewed matrices.
    SlicedEll,
}

impl Optimization {
    /// The paper's original pool, in its Fig. 1 order. Sweep helpers
    /// ([`KernelVariant::all_singles`] and
    /// [`KernelVariant::singles_and_pairs`]) iterate exactly this set
    /// so the trivial-optimizer candidate counts match the paper
    /// (5 and 15).
    pub const ALL: [Optimization; 5] = [
        Optimization::Vectorize,
        Optimization::Prefetch,
        Optimization::Compress,
        Optimization::Decompose,
        Optimization::AutoSchedule,
    ];

    /// The extended pool including post-paper additions.
    pub const EXTENDED: [Optimization; 6] = [
        Optimization::Vectorize,
        Optimization::Prefetch,
        Optimization::Compress,
        Optimization::Decompose,
        Optimization::AutoSchedule,
        Optimization::SlicedEll,
    ];

    fn bit(self) -> u8 {
        match self {
            Optimization::Vectorize => 1 << 0,
            Optimization::Prefetch => 1 << 1,
            Optimization::Compress => 1 << 2,
            Optimization::Decompose => 1 << 3,
            Optimization::AutoSchedule => 1 << 4,
            Optimization::SlicedEll => 1 << 5,
        }
    }

    /// Short label used in experiment output.
    pub fn label(self) -> &'static str {
        match self {
            Optimization::Vectorize => "vec",
            Optimization::Prefetch => "pref",
            Optimization::Compress => "comp",
            Optimization::Decompose => "decomp",
            Optimization::AutoSchedule => "auto",
            Optimization::SlicedEll => "sell",
        }
    }
}

/// Storage format: the first axis of the kernel space.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Format {
    /// Plain CSR, traversed with the config's row kernel.
    Csr,
    /// Delta-compressed column indices (1/2/4-byte deltas per row,
    /// decoded by the format's own loop). A matrix whose deltas cannot
    /// be encoded lowers as CSR with the config's row kernel and
    /// schedule.
    Delta,
    /// SELL-C-σ with slice height `chunk` and σ = 32 × chunk.
    Sell {
        /// Slice height `C` (rows per SIMD-lockstep chunk).
        chunk: usize,
    },
    /// Long rows split off and computed by all threads; the short part
    /// is traversed as CSR with the config's row kernel. A matrix
    /// without long rows lowers as `otherwise` instead.
    Decomposed {
        /// The format lowered when the matrix has no long rows.
        otherwise: &'static Format,
    },
}

/// SELL-8-256, the standard configuration for AVX-512-class machines
/// and the `sell` variant's format.
const SELL_8: Format = Format::Sell { chunk: 8 };

/// One point of the kernel space: what [`build_kernel`] and
/// [`build_micro_kernel`] lower.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct KernelConfig {
    /// Storage format.
    pub format: Format,
    /// Row kernel of the CSR traversals (the plain format, the
    /// decomposed short part, and the delta fallback).
    pub row: InnerLoop,
    /// Row (or SELL chunk) schedule.
    pub schedule: Schedule,
}

impl KernelConfig {
    /// Stable identifier, also the dispatch label of the CSR, delta and
    /// SELL kernels: the format, the row kernel where the format runs
    /// one, and the schedule when it is not the nnz-balanced default
    /// (`csr/avx2-a2`, `csr/unrolled@Guided`, `sell/c8`, `delta`).
    pub fn id(&self) -> String {
        let id = match self.format {
            Format::Csr => format!("csr/{}", self.row.id()),
            Format::Delta => "delta".to_string(),
            Format::Sell { chunk } => format!("sell/c{chunk}"),
            Format::Decomposed { .. } => format!("decomposed/{}", self.row.id()),
        };
        match self.schedule {
            Schedule::NnzBalanced => id,
            other => format!("{id}@{other:?}"),
        }
    }
}

/// A set of jointly applied optimizations.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Default)]
pub struct KernelVariant {
    bits: u8,
}

impl KernelVariant {
    /// The unoptimized baseline (plain CSR, nnz-balanced static).
    pub const BASELINE: KernelVariant = KernelVariant { bits: 0 };

    /// Variant with a single optimization.
    pub fn single(opt: Optimization) -> KernelVariant {
        KernelVariant { bits: opt.bit() }
    }

    /// Variant from any collection of optimizations.
    pub fn of(opts: &[Optimization]) -> KernelVariant {
        let mut bits = 0;
        for o in opts {
            bits |= o.bit();
        }
        KernelVariant { bits }
    }

    /// Adds an optimization (idempotent).
    #[must_use]
    pub fn with(self, opt: Optimization) -> KernelVariant {
        KernelVariant { bits: self.bits | opt.bit() }
    }

    /// Whether the set contains `opt`.
    pub fn contains(self, opt: Optimization) -> bool {
        self.bits & opt.bit() != 0
    }

    /// Whether the set is empty (baseline).
    pub fn is_baseline(self) -> bool {
        self.bits == 0
    }

    /// Iterates the contained optimizations.
    pub fn iter(self) -> impl Iterator<Item = Optimization> {
        Optimization::EXTENDED.into_iter().filter(move |o| self.contains(*o))
    }

    /// Number of contained optimizations.
    pub fn len(self) -> usize {
        self.bits.count_ones() as usize
    }

    /// Whether the set is empty. Alias of [`Self::is_baseline`].
    pub fn is_empty(self) -> bool {
        self.is_baseline()
    }

    /// All 5 single-optimization variants (the paper's
    /// "trivial-single" sweep).
    pub fn all_singles() -> Vec<KernelVariant> {
        Optimization::ALL.iter().map(|&o| KernelVariant::single(o)).collect()
    }

    /// All singles plus all unordered pairs — 15 variants, the
    /// paper's "trivial-combined" sweep.
    pub fn singles_and_pairs() -> Vec<KernelVariant> {
        let mut out = Self::all_singles();
        for i in 0..Optimization::ALL.len() {
            for j in i + 1..Optimization::ALL.len() {
                out.push(KernelVariant::of(&[Optimization::ALL[i], Optimization::ALL[j]]));
            }
        }
        out
    }

    /// The point of the kernel space this set names, by the paper's
    /// joint-application rules (documented in DESIGN.md):
    /// * `Vectorize` and `Prefetch` pick the row kernel;
    /// * `AutoSchedule` switches the row schedule to guided;
    /// * `SlicedEll` selects SELL-8-256, otherwise `Compress` selects
    ///   delta-compressed CSR, otherwise the format is plain CSR;
    /// * `Decompose` selects the decomposed format and skips
    ///   compression (the paper never co-selects MB with
    ///   IMB-by-long-rows). A matrix without long rows lowers the
    ///   format the remaining optimizations select.
    pub fn config(self) -> KernelConfig {
        let row = InnerLoop::from_flags(
            self.contains(Optimization::Vectorize),
            self.contains(Optimization::Prefetch),
        );
        let schedule = if self.contains(Optimization::AutoSchedule) {
            Schedule::Guided
        } else {
            Schedule::NnzBalanced
        };
        let rest: &'static Format = if self.contains(Optimization::SlicedEll) {
            &SELL_8
        } else if self.contains(Optimization::Compress) {
            &Format::Delta
        } else {
            &Format::Csr
        };
        let format = if self.contains(Optimization::Decompose) {
            Format::Decomposed { otherwise: rest }
        } else {
            *rest
        };
        KernelConfig { format, row, schedule }
    }
}

impl fmt::Debug for KernelVariant {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{self}")
    }
}

impl fmt::Display for KernelVariant {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.is_baseline() {
            return write!(f, "baseline");
        }
        let mut first = true;
        for o in self.iter() {
            if !first {
                write!(f, "+")?;
            }
            write!(f, "{}", o.label())?;
            first = false;
        }
        Ok(())
    }
}

/// A runnable SpMV kernel (object-safe).
///
/// All implementations execute on the persistent worker pool of
/// [`crate::engine`]: the kernel holds a precomputed
/// [`Plan`](crate::engine::Plan), so `run`/`run_timed` pay neither
/// thread-spawn latency nor partition recomputation, and the reported
/// [`ThreadTimes`] cover pure compute only.
pub trait SpmvKernel: Send + Sync {
    /// Computes `y = A * x` and reports per-thread busy times.
    fn run_timed(&self, x: &[f64], y: &mut [f64]) -> ThreadTimes;

    /// Computes `y = A * x`.
    fn run(&self, x: &[f64], y: &mut [f64]) {
        let _ = self.run_timed(x, y);
    }

    /// Runs the kernel `reps` times back-to-back on the warm pool and
    /// returns the best wall-clock seconds together with the
    /// per-thread busy times of that best run — the pooled timing
    /// entry point adopted by the host profiler and the benches
    /// (best-of-reps is the paper's warm-cache measurement
    /// convention).
    fn run_repeated(&self, x: &[f64], y: &mut [f64], reps: usize) -> (f64, ThreadTimes) {
        let mut best = f64::INFINITY;
        let mut best_times = ThreadTimes { seconds: Vec::new() };
        for _ in 0..reps.max(1) {
            let t0 = Instant::now();
            let times = self.run_timed(x, y);
            let dt = t0.elapsed().as_secs_f64();
            if dt < best {
                best = dt;
                best_times = times;
            }
        }
        (best, best_times)
    }

    /// Descriptive name for experiment output.
    fn name(&self) -> String;

    /// Number of rows of the underlying matrix.
    fn nrows(&self) -> usize;

    /// Number of columns of the underlying matrix.
    fn ncols(&self) -> usize;

    /// Bytes occupied by the kernel's matrix representation.
    fn format_bytes(&self) -> usize;

    /// Converts an execution time into GFLOP/s (`2 * nnz` flops per
    /// SpMV, the paper's convention).
    fn gflops(&self, seconds: f64, nnz: usize) -> f64 {
        if seconds <= 0.0 {
            return 0.0;
        }
        2.0 * nnz as f64 / seconds / 1e9
    }

    /// Effective bytes moved per nonzero under this kernel's storage
    /// format: the format's own footprint plus the `x`/`y` vectors,
    /// per original nonzero. This is the per-variant traffic figure
    /// the benchmark trajectory records next to GFLOP/s — compression
    /// shows up here as fewer bytes per nonzero.
    fn effective_bytes_per_nnz(&self, nnz: usize) -> f64 {
        (self.format_bytes() + (self.nrows() + self.ncols()) * 8) as f64 / nnz.max(1) as f64
    }
}

/// A built kernel plus the preprocessing cost spent building it.
pub struct BuiltKernel<'a> {
    /// The runnable kernel.
    pub kernel: Box<dyn SpmvKernel + 'a>,
    /// Seconds spent on format conversion / setup (the `t_pre`
    /// component charged by the Table 4 amortization analysis).
    pub prep_seconds: f64,
    /// The classic optimization label of the build: the variant
    /// itself for [`build_kernel`] (kept even when a fallback rule
    /// applied), the closest classic label for [`build_micro_kernel`].
    pub variant: KernelVariant,
    /// The config actually lowered, after any fallback rule.
    pub config: KernelConfig,
}

/// Lowers the optimization set `variant` onto an executable kernel for
/// `a`: its [`KernelVariant::config`], lowered.
pub fn build_kernel<'a>(a: &'a Csr, variant: KernelVariant, nthreads: usize) -> BuiltKernel<'a> {
    lower(a, variant.config(), nthreads, |_| variant)
}

/// Lowers one tuner menu candidate (see [`crate::micro::menu`]) onto
/// an executable kernel for `a`: its [`MenuEntry::config`], lowered.
/// The reported `variant` maps the config actually built back onto
/// the closest classic optimization label so downstream reporting
/// (bench trajectory, amortization) stays comparable.
pub fn build_micro_kernel<'a>(a: &'a Csr, entry: MenuEntry, nthreads: usize) -> BuiltKernel<'a> {
    lower(a, entry.config(), nthreads, |built| match built.format {
        Format::Csr if built.row == InnerLoop::Scalar => KernelVariant::BASELINE,
        Format::Csr => KernelVariant::single(Optimization::Vectorize),
        Format::Delta => KernelVariant::single(Optimization::Compress),
        Format::Sell { .. } => KernelVariant::single(Optimization::SlicedEll),
        Format::Decomposed { .. } => KernelVariant::single(Optimization::Decompose),
    })
}

/// Lowers `config` onto an executable kernel for `a` — the one place
/// kernel objects are built from the space — and labels the build with
/// `variant` of the config actually built.
///
/// Preprocessing time is measured through kernel construction: every
/// kernel performs its one-time O(nnz) structural verification there,
/// and that cost belongs to `t_pre` just like the format conversion
/// itself. It also feeds the process-wide preprocessing telemetry, so
/// amortization studies can read total conversion cost without
/// threading a recorder through every call site.
///
/// The two fallback rules:
/// * `Decomposed` on a matrix without long rows lowers its `otherwise`
///   format (decomposition is a no-op there);
/// * `Delta` on a matrix whose deltas cannot be encoded (checked
///   narrowing in the builder) lowers as CSR with the same row kernel
///   and schedule.
fn lower<'a>(
    a: &'a Csr,
    mut config: KernelConfig,
    nthreads: usize,
    variant: impl FnOnce(&KernelConfig) -> KernelVariant,
) -> BuiltKernel<'a> {
    let t0 = Instant::now();
    let kernel: Box<dyn SpmvKernel + 'a> = loop {
        let KernelConfig { format, row, schedule } = config;
        match format {
            Format::Csr => break Box::new(CsrKernel::with_options(a, nthreads, schedule, row)),
            Format::Delta => match DeltaCsr::from_csr(a) {
                Ok(d) => break Box::new(DeltaKernel::new(d, nthreads, schedule)),
                Err(_) => config.format = Format::Csr,
            },
            Format::Sell { chunk } => {
                let chunk = chunk.max(1);
                let s = SellCs::from_csr(a, chunk, 32 * chunk).expect("sigma >= chunk");
                break Box::new(SellKernel::new(s, nthreads, schedule));
            }
            Format::Decomposed { otherwise } => match DecomposedCsr::auto_threshold(a, nthreads) {
                Some(threshold) => {
                    let d = DecomposedCsr::split(a, threshold).expect("threshold >= 1");
                    break Box::new(DecomposedKernel::new(d, nthreads, schedule, row));
                }
                None => config.format = *otherwise,
            },
        }
    };
    let prep_seconds = t0.elapsed().as_secs_f64();
    spmv_telemetry::metrics::preprocessing().add(prep_seconds);
    BuiltKernel { kernel, prep_seconds, variant: variant(&config), config }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::SmallRng;
    use rand::{Rng, SeedableRng};
    use spmv_sparse::gen;

    #[test]
    fn variant_set_operations() {
        let v = KernelVariant::BASELINE.with(Optimization::Vectorize).with(Optimization::Prefetch);
        assert!(v.contains(Optimization::Vectorize));
        assert!(v.contains(Optimization::Prefetch));
        assert!(!v.contains(Optimization::Compress));
        assert_eq!(v.len(), 2);
        assert!(!v.is_baseline());
        assert_eq!(v.to_string(), "vec+pref");
        assert_eq!(KernelVariant::BASELINE.to_string(), "baseline");
    }

    #[test]
    fn with_is_idempotent() {
        let v = KernelVariant::single(Optimization::Compress);
        assert_eq!(v.with(Optimization::Compress), v);
    }

    #[test]
    fn trivial_sweeps_have_paper_counts() {
        // Paper §IV-D: "one that runs all single optimizations (total
        // of 5 in our case) and one that also includes combinations of
        // 2 (total of 15 in our case)".
        assert_eq!(KernelVariant::all_singles().len(), 5);
        assert_eq!(KernelVariant::singles_and_pairs().len(), 15);
    }

    #[test]
    fn every_variant_builds_and_matches_reference() {
        let a = gen::circuit(1200, 2, 0.4, 5, 3).unwrap();
        let mut rng = SmallRng::seed_from_u64(2);
        let x: Vec<f64> = (0..a.ncols()).map(|_| rng.gen_range(-1.0..1.0)).collect();
        let mut y_ref = vec![0.0; a.nrows()];
        a.spmv(&x, &mut y_ref);
        for variant in KernelVariant::singles_and_pairs() {
            let built = build_kernel(&a, variant, 3);
            let mut y = vec![0.0; a.nrows()];
            built.kernel.run(&x, &mut y);
            for (i, (u, v)) in y.iter().zip(&y_ref).enumerate() {
                assert!((u - v).abs() < 1e-9, "{variant}: row {i} {u} vs {v}");
            }
            assert!(built.prep_seconds >= 0.0);
        }
    }

    #[test]
    fn decompose_falls_back_without_long_rows() {
        let a = gen::banded(400, 3, 1.0, 1).unwrap();
        let built = build_kernel(&a, KernelVariant::single(Optimization::Decompose), 4);
        assert!(built.kernel.name().starts_with("csr"), "got {}", built.kernel.name());
        assert_eq!(built.config, KernelVariant::BASELINE.config());
        // With compression in the set, the remaining optimization is
        // delta compression.
        let comp_decomp = KernelVariant::of(&[Optimization::Compress, Optimization::Decompose]);
        let built = build_kernel(&a, comp_decomp, 4);
        assert!(built.kernel.name().starts_with("delta"), "got {}", built.kernel.name());
        assert_eq!(built.config, KernelVariant::single(Optimization::Compress).config());
        assert_eq!(built.variant, comp_decomp);
    }

    #[test]
    fn paper_variants_and_menu_entries_share_named_points() {
        let point = |o| KernelVariant::single(o).config();
        assert_eq!(point(Optimization::Vectorize), MenuEntry::Unrolled.config());
        assert_eq!(point(Optimization::Compress), MenuEntry::Delta.config());
        assert_eq!(point(Optimization::SlicedEll), MenuEntry::Sell { chunk: 8 }.config());
        assert_eq!(MenuEntry::Unrolled.id(), "csr/unrolled");
        assert_eq!(MenuEntry::Delta.id(), "delta");
        assert_eq!(MenuEntry::Sell { chunk: 8 }.id(), "sell/c8");
        let guided = KernelVariant::of(&[Optimization::Vectorize, Optimization::AutoSchedule]);
        assert_eq!(guided.config().id(), "csr/unrolled@Guided");
    }

    #[test]
    fn decompose_used_when_long_rows_exist() {
        let a = gen::circuit(4000, 3, 0.5, 4, 9).unwrap();
        let built = build_kernel(&a, KernelVariant::single(Optimization::Decompose), 4);
        assert!(built.kernel.name().starts_with("decomposed"), "got {}", built.kernel.name());
    }

    #[test]
    fn compress_builds_delta_kernel_with_prep_time() {
        let a = gen::banded(2000, 8, 1.0, 4).unwrap();
        let built = build_kernel(&a, KernelVariant::single(Optimization::Compress), 2);
        assert!(built.kernel.name().starts_with("delta"));
        assert!(built.kernel.format_bytes() < a.footprint_bytes());
    }

    #[test]
    fn auto_schedule_selects_guided() {
        let a = gen::banded(200, 2, 1.0, 5).unwrap();
        let built = build_kernel(&a, KernelVariant::single(Optimization::AutoSchedule), 2);
        assert!(built.kernel.name().contains("Guided"));
    }
}
