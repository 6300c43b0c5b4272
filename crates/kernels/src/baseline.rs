//! Baseline parallel CSR SpMV kernel and the classic row loops.
//!
//! This is the paper's reference implementation: plain CSR traversal
//! (Fig. 2) with a static one-dimensional row partitioning where each
//! thread receives approximately equal nonzeros. All optimized
//! kernels are measured against it.
//!
//! One traversal (`InnerLoop::run_rows`) runs every row kernel of
//! the kernel space over a worker's rows, for [`CsrKernel`] and for
//! the short phase of [`crate::decomposed::DecomposedKernel`]. The
//! four classic flavors share one generic loop: the scalar loop or
//! the `CMP`-class 4-way unrolled loop, either one optionally behind
//! the `ML`-class software prefetch of `x`. As in the paper's
//! `x[colind[j + dist]]`, where `j` is the global nonzero index, the
//! prefetch looks ahead along the worker's flat nonzero stream and
//! crosses row ends. The menu's explicit microkernels come from
//! [`crate::micro`].

use std::ops::Range;

use spmv_sparse::{Csr, MaybeValidated};

use crate::engine::Plan;
use crate::micro::MicroSpec;
use crate::schedule::{Schedule, ThreadTimes, YPtr};
use crate::variant::{Format, KernelConfig, SpmvKernel};

/// Software prefetch distance of the `ML`-class flavors, in nonzeros
/// of the worker's flat nonzero stream.
///
/// The paper uses one cache line of elements: "A single prefetch
/// instruction was inserted in the inner loop of SpMV, with a fixed
/// prefetch distance equal to the number of elements that fit in a
/// single cache line of the hardware platform." That suits the
/// in-order KNC/KNL cores, which stall on every miss. An out-of-order
/// core already overlaps the misses inside its own window, so a hint
/// only helps when it runs about one memory latency ahead of it.
///
/// Derivation: SpMV time on the 164³ jittered 7-point heat stencil
/// (4.41M rows, 30.7M nnz, 474 MB working set; 2 threads of a 2-vCPU
/// AVX-512 VM; median of 9 interleaved rounds) against the distance:
///
/// | distance | none | 8 | 32 | 64 | 128 | 256 | 512 | 1024 |
/// |---|---|---|---|---|---|---|---|---|
/// | SpMV (ms) | 59.8 | 53.5 | 44.4 | 38.6 | **36.6** | 37.6 | 39.9 | 41.3 |
const PREFETCH_DIST: usize = 128;

/// Row kernel of a CSR-like kernel: the row axis of the kernel space.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum InnerLoop {
    /// Scalar accumulation, one element at a time.
    Scalar,
    /// 4-way unrolled with independent accumulators (vectorizable).
    Unrolled,
    /// Scalar row sums behind a software prefetch of `x` running
    /// 128 nonzeros ahead in the flat nonzero stream.
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

    /// The flavor itself, or for a SIMD [`InnerLoop::Micro`] spec whose
    /// gather cannot address `ncols` columns (`ncols > i32::MAX`) its
    /// bitwise-identical scalar fallback — establishing the `i32`
    /// part of [`InnerLoop::run_rows`]'s contract.
    pub(crate) fn gather_checked(self, ncols: usize) -> InnerLoop {
        match self {
            InnerLoop::Micro(spec) if !crate::micro::gather_compatible(ncols) => {
                InnerLoop::Micro(spec.scalar_fallback())
            }
            other => other,
        }
    }

    /// Writes `y[i]` = row `i` of `a` times `x` for every `i` in
    /// `rows`, bounds checks on `x` elided: the one CSR row traversal.
    /// The flavor is matched once per call, so every row loop below
    /// is monomorphic.
    ///
    /// # Safety
    /// `a` carries a [`spmv_sparse::Validated`] witness (every column
    /// is below `ncols`) and `x.len() == a.ncols()`; `rows` lies in
    /// `0..a.nrows()`; `y` points at a live buffer of `a.nrows()`
    /// elements whose entries in `rows` the caller owns exclusively
    /// for the call. For a SIMD [`InnerLoop::Micro`] flavor, columns
    /// must additionally fit in `i32` (see
    /// [`crate::micro::gather_compatible`]).
    #[inline]
    pub(crate) unsafe fn run_rows(self, a: &Csr, rows: Range<usize>, x: &[f64], y: YPtr) {
        // SAFETY: each arm forwards the caller's contract unchanged.
        unsafe {
            match self {
                InnerLoop::Scalar => csr_rows::<1, false>(a, rows, x, y),
                InnerLoop::Unrolled => csr_rows::<4, false>(a, rows, x, y),
                InnerLoop::Prefetch => csr_rows::<1, true>(a, rows, x, y),
                InnerLoop::UnrolledPrefetch => csr_rows::<4, true>(a, rows, x, y),
                InnerLoop::Micro(spec) => {
                    for i in rows {
                        let (cols, vals) = a.row(i);
                        y.write(i, spec.row_sum_unchecked(cols, vals, x));
                    }
                }
            }
        }
    }
}

/// The classic traversal behind the four non-micro flavors: each row
/// summed by [`row_sum_classic`] with `ACC` accumulators and, with
/// `LOOKAHEAD`, preceded by a prefetch of `x[colind[k]]` for `k` in
/// `rowptr[i] + D .. rowptr[i + 1] + D` (D = [`PREFETCH_DIST`]),
/// clipped to the last nonzero of `rows`. Over a range, every
/// nonzero past its first D is hinted exactly once whatever the row
/// lengths, and no hint reaches into another worker's rows. The hints
/// never touch the arithmetic, so a lookahead flavor is bitwise
/// identical to its twin without one.
///
/// # Safety
/// Same contract as [`InnerLoop::run_rows`].
#[inline(always)]
unsafe fn csr_rows<const ACC: usize, const LOOKAHEAD: bool>(
    a: &Csr,
    rows: Range<usize>,
    x: &[f64],
    y: YPtr,
) {
    let (rowptr, colind, values) = (a.rowptr(), a.colind(), a.values());
    let stream_end = rowptr[rows.end];
    for i in rows {
        let (s, e) = (rowptr[i], rowptr[i + 1]);
        if LOOKAHEAD {
            let ahead = (s + PREFETCH_DIST).min(stream_end)..(e + PREFETCH_DIST).min(stream_end);
            debug_assert!(
                ahead.start <= ahead.end && ahead.end <= stream_end,
                "lookahead {ahead:?} leaves the range's nonzeros ..{stream_end}"
            );
            for &c in &colind[ahead] {
                prefetch_x(x, c as usize);
            }
        }
        // SAFETY: row i of a validated matrix (caller's contract): its
        // columns are < ncols == x.len(), and the caller owns y[i].
        unsafe { y.write(i, row_sum_classic::<ACC>(&colind[s..e], &values[s..e], x)) };
    }
}

/// The classic row loop: `ACC` independent accumulators (1 = the
/// paper's Fig. 2 scalar loop, 4 = the unrolled loop the compiler
/// autovectorizes).
///
/// Separate multiply and add (no fused multiply-add); accumulators
/// combine as `(a0 + a1) + (a2 + a3)` and the tail past the last full
/// block adds sequentially onto that sum.
///
/// # Safety
/// `cols.len() == vals.len()` and every entry of `cols` indexes in
/// bounds of `x`.
#[inline(always)]
unsafe fn row_sum_classic<const ACC: usize>(cols: &[u32], vals: &[f64], x: &[f64]) -> f64 {
    debug_assert_eq!(cols.len(), vals.len());
    let n = cols.len();
    let mut acc = [0.0f64; ACC];
    let blocks = n / ACC;
    for k in 0..blocks {
        let b = ACC * k;
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
/// The address is formed with `wrapping_add`, so no bound is needed:
/// a hint never dereferences and never faults, whatever the address.
/// A per-hint `col < x.len()` guard cost the heat stencil's lookahead
/// about a tenth of its SpMV time.
///
/// simd-ok: a bare cache hint with no lane arithmetic — there is no
/// scalar twin for the micro/ identity tests to compare against, so
/// the intrinsic stays with the traversal it serves.
///
/// witness-ok: the hint never dereferences, so no bound on `col` is
/// needed and no witness either.
#[inline(always)]
fn prefetch_x(x: &[f64], col: usize) {
    #[cfg(target_arch = "x86_64")]
    {
        let p = x.as_ptr().wrapping_add(col).cast::<i8>();
        // SAFETY: prefetch has no architectural side effects and
        // never faults, on any address.
        unsafe {
            core::arch::x86_64::_mm_prefetch::<{ core::arch::x86_64::_MM_HINT_T0 }>(p);
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
    /// contract of the row traversal.
    pub fn with_options(
        a: &'a Csr,
        nthreads: usize,
        schedule: Schedule,
        flavor: InnerLoop,
    ) -> CsrKernel<'a> {
        let flavor = flavor.gather_checked(a.ncols());
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
                    // SAFETY: the matrix carries a Validated witness and
                    // x.len() == ncols (asserted above); `execute` hands
                    // each worker disjoint row ranges of a live `y` of
                    // `nrows` elements; the flavor is gather-checked.
                    unsafe { self.flavor.run_rows(a, range, x, yp) };
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
            for unrolled in [false, true] {
                let want = reference_flavor(unrolled, &cols, &vals, &x);
                // SAFETY: cols and vals have equal lengths and every
                // column is below 512 == x.len().
                let got = unsafe {
                    if unrolled {
                        row_sum_classic::<4>(&cols, &vals, &x)
                    } else {
                        row_sum_classic::<1>(&cols, &vals, &x)
                    }
                };
                assert_eq!(got.to_bits(), want.to_bits(), "unrolled {unrolled} len {len}");
            }
        }
    }

    /// The lookahead flavors equal their twins bit for bit through
    /// both kernels on the one traversal, at 1–3 threads under every
    /// schedule. The small matrix holds fewer nonzeros than
    /// [`PREFETCH_DIST`], so every row and every static, dynamic or
    /// guided range is shorter than the distance and the lookahead is
    /// clipped at each range end (the traversal's `debug_assert!`
    /// checks it never leaves the range); the large one adds rows
    /// longer than the distance.
    #[test]
    fn lookahead_flavors_match_their_twins_bitwise() {
        use crate::decomposed::DecomposedKernel;
        use spmv_sparse::DecomposedCsr;

        let small = gen::circuit(20, 1, 0.5, 5, 17).unwrap();
        let large = gen::circuit(3000, 3, 0.4, 5, 17).unwrap();
        assert!(small.nnz() < PREFETCH_DIST, "{}", small.nnz());
        assert!((0..large.nrows()).any(|i| large.row_nnz(i) > PREFETCH_DIST));
        let schedules = [
            Schedule::StaticRows,
            Schedule::NnzBalanced,
            Schedule::Dynamic { chunk: 8 },
            Schedule::Guided,
        ];
        let pairs = [
            (InnerLoop::Scalar, InnerLoop::Prefetch),
            (InnerLoop::Unrolled, InnerLoop::UnrolledPrefetch),
        ];
        for a in [&small, &large] {
            let x = random_x(a.ncols(), 3);
            let product = |k: &dyn SpmvKernel| -> Vec<u64> {
                let mut y = vec![f64::NAN; a.nrows()];
                k.run(&x, &mut y);
                y.iter().map(|v| v.to_bits()).collect()
            };
            for nthreads in 1..=3 {
                for schedule in schedules {
                    for (twin, lookahead) in pairs {
                        let csr = |f| CsrKernel::with_options(a, nthreads, schedule, f);
                        let want = product(&csr(twin));
                        assert_eq!(
                            product(&csr(lookahead)),
                            want,
                            "csr {lookahead:?} {schedule:?} at {nthreads} threads"
                        );
                        let decomp = |f| {
                            let d = DecomposedCsr::split(a, 32).unwrap();
                            DecomposedKernel::new(d, nthreads, schedule, f)
                        };
                        assert_eq!(
                            product(&decomp(lookahead)),
                            product(&decomp(twin)),
                            "decomposed {lookahead:?} {schedule:?} at {nthreads} threads"
                        );
                    }
                }
            }
        }
    }

    #[test]
    fn prefetch_hint_is_side_effect_free() {
        let x = [1.0, 2.0, 3.0];
        prefetch_x(&x, 0);
        prefetch_x(&x, 2);
        prefetch_x(&x, 100); // out of range: a hint, never dereferenced
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
