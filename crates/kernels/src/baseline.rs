//! Baseline parallel CSR SpMV kernel and the classic row loops.
//!
//! This is the paper's reference implementation: plain CSR traversal
//! (Fig. 2) with a static one-dimensional row partitioning where each
//! thread receives approximately equal nonzeros. All optimized
//! kernels are measured against it.
//!
//! The same traversal runs every row kernel of the kernel space
//! ([`InnerLoop`]): the four classic flavors — the scalar loop, the
//! `CMP`-class 4-way unrolled loop, and either one with the `ML`-class
//! software prefetch of `x` — share one generic loop, and the menu's
//! explicit microkernels come from [`crate::micro`].

use std::ops::Range;

use spmv_sparse::{Csr, MaybeValidated};

use crate::engine::Plan;
use crate::micro::MicroSpec;
use crate::schedule::{Schedule, ThreadTimes, YPtr};
use crate::variant::{Format, KernelConfig, SpmvKernel};

/// Software prefetch distance of the `ML`-class flavors: elements per
/// 64-byte cache line of f64. Per the paper: "A single prefetch
/// instruction was inserted in the inner loop of SpMV, with a fixed
/// prefetch distance equal to the number of elements that fit in a
/// single cache line of the hardware platform. Data are prefetched
/// into the L1 cache."
const PREFETCH_DIST: usize = 8;

/// Row kernel of a CSR-like kernel: the row axis of the kernel space.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum InnerLoop {
    /// Scalar accumulation, one element at a time.
    Scalar,
    /// 4-way unrolled with independent accumulators (vectorizable).
    Unrolled,
    /// Scalar with software prefetch of `x[colind[j + dist]]`.
    Prefetch,
    /// Unrolled + prefetch.
    UnrolledPrefetch,
    /// Explicit microkernel from the menu (see [`crate::micro`]):
    /// either `core::arch` SIMD (proven available at spec
    /// construction) or its bitwise-identical scalar model.
    Micro(MicroSpec),
}

impl InnerLoop {
    /// Combines vectorization/prefetch flags into a flavor.
    pub fn from_flags(unroll: bool, prefetch: bool) -> InnerLoop {
        match (unroll, prefetch) {
            (false, false) => InnerLoop::Scalar,
            (true, false) => InnerLoop::Unrolled,
            (false, true) => InnerLoop::Prefetch,
            (true, true) => InnerLoop::UnrolledPrefetch,
        }
    }

    /// Stable identifier used in kernel-config ids (`scalar`,
    /// `unrolled`, `prefetch`, `unrolled-prefetch`, or the micro
    /// spec's id).
    pub(crate) fn id(self) -> String {
        match self {
            InnerLoop::Scalar => "scalar".to_string(),
            InnerLoop::Unrolled => "unrolled".to_string(),
            InnerLoop::Prefetch => "prefetch".to_string(),
            InnerLoop::UnrolledPrefetch => "unrolled-prefetch".to_string(),
            InnerLoop::Micro(spec) => spec.id(),
        }
    }

    /// Computes the dot product of one sparse row with `x`, bounds
    /// checks elided.
    ///
    /// # Safety
    /// `cols.len() == vals.len()` and every entry of `cols` indexes in
    /// bounds of `x` — guaranteed when the row comes from a
    /// [`spmv_sparse::Validated`] CSR witness and `x.len() == ncols`.
    /// For a SIMD [`InnerLoop::Micro`] flavor, columns must
    /// additionally fit in `i32` (see [`crate::micro::gather_compatible`];
    /// enforced by [`CsrKernel::with_options`] at construction).
    #[inline(always)]
    pub unsafe fn row_sum_unchecked(self, cols: &[u32], vals: &[f64], x: &[f64]) -> f64 {
        // SAFETY: each arm forwards the caller's contract unchanged.
        unsafe {
            match self {
                InnerLoop::Scalar => row_sum_classic::<1, false>(cols, vals, x),
                InnerLoop::Unrolled => row_sum_classic::<4, false>(cols, vals, x),
                InnerLoop::Prefetch => row_sum_classic::<1, true>(cols, vals, x),
                InnerLoop::UnrolledPrefetch => row_sum_classic::<4, true>(cols, vals, x),
                InnerLoop::Micro(spec) => spec.row_sum_unchecked(cols, vals, x),
            }
        }
    }
}

/// The classic row loop behind the four non-micro flavors: `ACC`
/// independent accumulators (1 = the paper's Fig. 2 scalar loop,
/// 4 = the unrolled loop the compiler autovectorizes) and, with
/// `PREFETCH`, one prefetch hint for `x[cols[b + PREFETCH_DIST]]` per
/// `ACC`-element block.
///
/// Separate multiply and add (no fused multiply-add); accumulators
/// combine as `(a0 + a1) + (a2 + a3)` and the tail past the last full
/// block adds sequentially onto that sum.
///
/// indexing-ok: the only checked indexing left is the prefetch's
/// `cols[b + PREFETCH_DIST]` behind its explicit `< n` guard.
///
/// # Safety
/// Same contract as [`InnerLoop::row_sum_unchecked`].
#[inline(always)]
unsafe fn row_sum_classic<const ACC: usize, const PREFETCH: bool>(
    cols: &[u32],
    vals: &[f64],
    x: &[f64],
) -> f64 {
    debug_assert_eq!(cols.len(), vals.len());
    let n = cols.len();
    let mut acc = [0.0f64; ACC];
    let blocks = n / ACC;
    for k in 0..blocks {
        let b = ACC * k;
        if PREFETCH && b + PREFETCH_DIST < n {
            prefetch_x(x, cols[b + PREFETCH_DIST] as usize);
        }
        for (lane, a) in acc.iter_mut().enumerate() {
            // SAFETY: b + lane < ACC * blocks <= n == cols.len() ==
            // vals.len(); the validated column is < x.len() (contract).
            *a += unsafe {
                *vals.get_unchecked(b + lane)
                    * *x.get_unchecked(*cols.get_unchecked(b + lane) as usize)
            };
        }
    }
    let mut sum = match acc.as_slice() {
        [a0, a1, a2, a3] => (a0 + a1) + (a2 + a3),
        [a0] => *a0,
        _ => unreachable!("the classic flavors use 1 or 4 accumulators"),
    };
    for k in ACC * blocks..n {
        // SAFETY: k < n; the validated column is < x.len() (contract).
        sum +=
            unsafe { *vals.get_unchecked(k) * *x.get_unchecked(*cols.get_unchecked(k) as usize) };
    }
    sum
}

/// Issues a prefetch-to-L1 hint for `x[col]` on x86-64; a no-op on
/// other architectures.
///
/// simd-ok: a bare cache hint with no lane arithmetic — there is no
/// scalar twin for the micro/ identity tests to compare against, so
/// the intrinsic stays with the traversal it serves.
///
/// witness-ok: the `col < x.len()` guard below re-establishes the
/// pointer bound locally; no witness is needed for a hint that never
/// dereferences.
#[inline(always)]
fn prefetch_x(x: &[f64], col: usize) {
    #[cfg(target_arch = "x86_64")]
    {
        if col < x.len() {
            // SAFETY: the pointer is in (or one past) bounds of `x`;
            // prefetch has no architectural side effects either way.
            unsafe {
                core::arch::x86_64::_mm_prefetch::<{ core::arch::x86_64::_MM_HINT_T0 }>(
                    x.as_ptr().add(col).cast::<i8>(),
                );
            }
        }
    }
    #[cfg(not(target_arch = "x86_64"))]
    {
        let _ = (x, col);
    }
}

/// Scalar row dot product (the paper's Fig. 2 inner loop), fully
/// checked — the reference the unchecked flavors are tested against.
#[inline(always)]
pub fn row_sum_scalar(cols: &[u32], vals: &[f64], x: &[f64]) -> f64 {
    let mut sum = 0.0;
    for (c, v) in cols.iter().zip(vals) {
        sum += v * x[*c as usize];
    }
    sum
}

/// Parallel CSR SpMV kernel.
///
/// Holds a precomputed [`Plan`] (partition + persistent worker pool),
/// so repeated [`run`](SpmvKernel::run) calls pay neither thread
/// spawning nor partition recomputation.
///
/// The matrix is structurally verified once at construction: a
/// [`spmv_sparse::Validated`] witness admits the parallel unchecked
/// fast path, while a matrix that fails verification silently falls
/// back to the serial fully-checked [`Csr::spmv`] (correct for any
/// in-bounds structure, and panics rather than corrupting memory on
/// anything worse).
#[derive(Debug)]
pub struct CsrKernel<'a> {
    a: MaybeValidated<&'a Csr>,
    plan: Plan,
    flavor: InnerLoop,
    /// Dispatch label threaded into the engine's trace events: the id
    /// of the kernel config this kernel runs (e.g. `csr/avx2-a2`).
    label: String,
}

impl<'a> CsrKernel<'a> {
    /// Creates the paper's baseline: scalar inner loop, nnz-balanced
    /// static partitioning.
    pub fn baseline(a: &'a Csr, nthreads: usize) -> CsrKernel<'a> {
        CsrKernel::with_options(a, nthreads, Schedule::NnzBalanced, InnerLoop::Scalar)
    }

    /// Creates a kernel with explicit schedule and flavor.
    ///
    /// A SIMD [`InnerLoop::Micro`] spec whose gather cannot address
    /// the matrix's columns (`ncols > i32::MAX`) is downgraded to its
    /// bitwise-identical scalar fallback, preserving the unchecked
    /// contract of [`InnerLoop::row_sum_unchecked`].
    pub fn with_options(
        a: &'a Csr,
        nthreads: usize,
        schedule: Schedule,
        flavor: InnerLoop,
    ) -> CsrKernel<'a> {
        let flavor = match flavor {
            InnerLoop::Micro(spec) if !crate::micro::gather_compatible(a.ncols()) => {
                InnerLoop::Micro(spec.scalar_fallback())
            }
            other => other,
        };
        let a = MaybeValidated::new(a);
        let plan = witness_plan(&a, schedule, nthreads, |a| a.rowptr());
        let label = KernelConfig { format: Format::Csr, row: flavor, schedule }.id();
        CsrKernel { a, plan, flavor, label }
    }

    /// Creates a kernel running a menu microkernel (see
    /// [`crate::micro`]): [`CsrKernel::with_options`] with
    /// [`InnerLoop::Micro`].
    pub fn micro(
        a: &'a Csr,
        nthreads: usize,
        schedule: Schedule,
        spec: MicroSpec,
    ) -> CsrKernel<'a> {
        CsrKernel::with_options(a, nthreads, schedule, InnerLoop::Micro(spec))
    }

    /// Scheduling policy.
    pub fn schedule(&self) -> Schedule {
        self.plan.schedule()
    }

    /// Worker thread count.
    pub fn nthreads(&self) -> usize {
        self.plan.nthreads()
    }

    /// Inner-loop flavor.
    pub fn flavor(&self) -> InnerLoop {
        self.flavor
    }

    /// Whether the matrix passed structural verification (and the
    /// kernel therefore runs the parallel unchecked fast path).
    pub fn is_validated(&self) -> bool {
        self.a.is_validated()
    }

    fn worker(&self, a: &Csr, range: Range<usize>, x: &[f64], y: YPtr) {
        let flavor = self.flavor;
        for i in range {
            let (cols, vals) = a.row(i);
            // SAFETY: this path is only reached with a Validated witness
            // (row_sum_unchecked's contract: columns < ncols == x.len());
            // `execute` hands each worker disjoint row ranges and `y`
            // points at a live buffer of `nrows` elements.
            unsafe { y.write(i, flavor.row_sum_unchecked(cols, vals, x)) };
        }
    }
}

impl SpmvKernel for CsrKernel<'_> {
    fn run_timed(&self, x: &[f64], y: &mut [f64]) -> ThreadTimes {
        let a = *self.a.get();
        assert_eq!(x.len(), a.ncols(), "x length");
        assert_eq!(y.len(), a.nrows(), "y length");
        match &self.a {
            MaybeValidated::Validated(v) => {
                let a = *v.get();
                let yp = YPtr(y.as_mut_ptr());
                self.plan.execute_labeled(&self.label, |range| {
                    self.worker(a, range, x, yp);
                })
            }
            MaybeValidated::Unvalidated(a) => checked_fallback(self.plan.nthreads(), || {
                a.spmv(x, y);
            }),
        }
    }

    fn name(&self) -> String {
        format!("csr[{:?},{:?}]", self.flavor, self.plan.schedule())
    }

    fn nrows(&self) -> usize {
        self.a.get().nrows()
    }

    fn ncols(&self) -> usize {
        self.a.get().ncols()
    }

    fn format_bytes(&self) -> usize {
        self.a.get().footprint_bytes()
    }
}

/// Plans `schedule` over a format held as a [`MaybeValidated`]: `ptr`
/// picks the partitioning pointer (row or chunk offsets) of a
/// validated value. An unvalidated value never reaches the parallel
/// path, so its plan partitions nothing — a possibly-corrupt pointer
/// must not drive partitioning arithmetic either. Shared by every
/// kernel's constructor.
pub(crate) fn witness_plan<F>(
    m: &MaybeValidated<F>,
    schedule: Schedule,
    nthreads: usize,
    ptr: impl FnOnce(&F) -> &[usize],
) -> Plan {
    match m {
        MaybeValidated::Validated(v) => Plan::new(schedule, ptr(v.get()), nthreads),
        MaybeValidated::Unvalidated(_) => Plan::new(schedule, &[0], nthreads),
    }
}

/// Runs a serial fully-checked kernel body and reports its wall time
/// as worker 0's busy time (the other workers stay idle). Shared by
/// every kernel's unvalidated fallback path.
pub(crate) fn checked_fallback(nthreads: usize, body: impl FnOnce()) -> ThreadTimes {
    let t0 = std::time::Instant::now();
    body();
    let mut seconds = vec![0.0; nthreads.max(1)];
    seconds[0] = t0.elapsed().as_secs_f64();
    ThreadTimes { seconds }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::SmallRng;
    use rand::{Rng, SeedableRng};
    use spmv_sparse::gen;

    fn random_x(n: usize, seed: u64) -> Vec<f64> {
        let mut rng = SmallRng::seed_from_u64(seed);
        (0..n).map(|_| rng.gen_range(-2.0..2.0)).collect()
    }

    fn assert_matches_serial(a: &Csr, kernel: &dyn SpmvKernel) {
        let x = random_x(a.ncols(), 1);
        let mut y_ref = vec![0.0; a.nrows()];
        a.spmv(&x, &mut y_ref);
        let mut y = vec![0.0; a.nrows()];
        kernel.run(&x, &mut y);
        for (i, (u, v)) in y.iter().zip(&y_ref).enumerate() {
            assert!((u - v).abs() < 1e-10, "row {i}: {u} vs {v}");
        }
    }

    #[test]
    fn baseline_matches_serial_reference() {
        let a = gen::banded(500, 4, 0.8, 3).unwrap();
        for nthreads in [1, 2, 4, 7] {
            assert_matches_serial(&a, &CsrKernel::baseline(&a, nthreads));
        }
    }

    #[test]
    fn all_flavors_and_schedules_match() {
        let a = gen::powerlaw(800, 6, 2.0, 5).unwrap();
        for flavor in [
            InnerLoop::Scalar,
            InnerLoop::Unrolled,
            InnerLoop::Prefetch,
            InnerLoop::UnrolledPrefetch,
        ] {
            for schedule in [
                Schedule::StaticRows,
                Schedule::NnzBalanced,
                Schedule::Dynamic { chunk: 16 },
                Schedule::Guided,
            ] {
                let k = CsrKernel::with_options(&a, 4, schedule, flavor);
                assert_matches_serial(&a, &k);
            }
        }
    }

    /// The accumulation orders the classic flavors must keep,
    /// transcribed with checked indexing: one running sum, or four
    /// lane accumulators combined `(a0 + a1) + (a2 + a3)` followed by
    /// a sequential tail. Prefetching never changes the arithmetic.
    fn reference_flavor(unrolled: bool, cols: &[u32], vals: &[f64], x: &[f64]) -> f64 {
        if !unrolled {
            return row_sum_scalar(cols, vals, x);
        }
        let n = cols.len();
        let mut acc = [0.0f64; 4];
        for k in 0..n / 4 {
            for (lane, a) in acc.iter_mut().enumerate() {
                *a += vals[4 * k + lane] * x[cols[4 * k + lane] as usize];
            }
        }
        let mut sum = (acc[0] + acc[1]) + (acc[2] + acc[3]);
        for k in 4 * (n / 4)..n {
            sum += vals[k] * x[cols[k] as usize];
        }
        sum
    }

    #[test]
    fn classic_flavors_keep_their_accumulation_order_bitwise() {
        let mut rng = SmallRng::seed_from_u64(4);
        for len in [0usize, 1, 3, 4, 5, 7, 8, 9, 16, 31, 100, 1000] {
            let cols: Vec<u32> = (0..len).map(|_| rng.gen_range(0..512u32)).collect();
            let vals: Vec<f64> = (0..len).map(|_| rng.gen_range(-1.0..1.0)).collect();
            let x: Vec<f64> = (0..512).map(|_| rng.gen_range(-1.0..1.0)).collect();
            for flavor in [
                InnerLoop::Scalar,
                InnerLoop::Unrolled,
                InnerLoop::Prefetch,
                InnerLoop::UnrolledPrefetch,
            ] {
                let unrolled = matches!(flavor, InnerLoop::Unrolled | InnerLoop::UnrolledPrefetch);
                let want = reference_flavor(unrolled, &cols, &vals, &x);
                // SAFETY: cols and vals have equal lengths and every
                // column is below 512 == x.len().
                let got = unsafe { flavor.row_sum_unchecked(&cols, &vals, &x) };
                assert_eq!(got.to_bits(), want.to_bits(), "{flavor:?} len {len}");
            }
        }
    }

    #[test]
    fn prefetch_hint_is_side_effect_free() {
        let x = [1.0, 2.0, 3.0];
        prefetch_x(&x, 0);
        prefetch_x(&x, 2);
        prefetch_x(&x, 100); // out of range: guarded, no-op
        assert_eq!(x, [1.0, 2.0, 3.0]);
    }

    #[test]
    fn run_timed_reports_all_threads() {
        let a = gen::banded(300, 2, 1.0, 9).unwrap();
        let k = CsrKernel::baseline(&a, 3);
        let x = vec![1.0; 300];
        let mut y = vec![0.0; 300];
        let t = k.run_timed(&x, &mut y);
        assert_eq!(t.seconds.len(), 3);
        assert!(t.seconds.iter().all(|&s| s >= 0.0));
    }

    #[test]
    fn empty_rows_produce_zero() {
        let a = Csr::from_raw(3, 3, vec![0, 1, 1, 2], vec![0, 2], vec![5.0, 7.0]).unwrap();
        let k = CsrKernel::baseline(&a, 2);
        let mut y = vec![9.0; 3];
        k.run(&[1.0, 1.0, 1.0], &mut y);
        assert_eq!(y, [5.0, 0.0, 7.0]);
    }

    #[test]
    fn gflops_helper() {
        let a = Csr::identity(4);
        let k = CsrKernel::baseline(&a, 1);
        // 2*nnz flops in 1 second = 8 flops/s
        assert!((k.gflops(1.0, a.nnz()) - 8e-9).abs() < 1e-18);
    }
}
