//! Baseline parallel CSR SpMV kernel and the classic row loops.
//!
//! This is the paper's reference implementation: plain CSR traversal
//! (Fig. 2) with a static one-dimensional row partitioning where each
//! thread receives approximately equal nonzeros. All optimized
//! kernels are measured against it.
//!
//! One traversal (`InnerLoop::run_rows`) runs every row kernel of
//! the kernel space over a worker's rows, for [`CsrKernel`] and for
//! the short phase of [`crate::decomposed::DecomposedKernel`], against
//! one vector or a batch of up to [`MAX_BATCH`] at once. The
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

    /// Writes `ys[j][i]` = row `i` of `a` times `xs[j]` for every `i`
    /// in `rows` and each of the `K` vectors, bounds checks on `x`
    /// elided: the one CSR row traversal. A single SpMV is `K = 1`.
    /// The flavor is matched once per call, so every row loop below
    /// is monomorphic.
    ///
    /// # Panics
    /// Unless `xs.len() == ys.len() == K`.
    ///
    /// # Safety
    /// `a` carries a [`spmv_sparse::Validated`] witness (every column
    /// is below `ncols`) and every `x.len() == a.ncols()`; `rows` lies
    /// in `0..a.nrows()`; every `y` points at a live buffer of
    /// `a.nrows()` elements whose entries in `rows` the caller owns
    /// exclusively for the call. For a SIMD [`InnerLoop::Micro`]
    /// flavor, columns must additionally fit in `i32` (see
    /// [`crate::micro::gather_compatible`]).
    #[inline]
    pub(crate) unsafe fn run_rows<const K: usize>(
        self,
        a: &Csr,
        rows: Range<usize>,
        xs: &[&[f64]],
        ys: &[YPtr],
    ) {
        // Copies, not references into the caller's slices: the
        // vectors' pointers then stay in registers across the row
        // loop instead of being reloaded around every store to `y`.
        let xs: [&[f64]; K] = xs.try_into().expect("K input vectors");
        let ys: [YPtr; K] = ys.try_into().expect("K output vectors");
        // SAFETY: each arm forwards the caller's contract unchanged.
        unsafe {
            match self {
                InnerLoop::Scalar => csr_rows::<1, false, K>(a, rows, &xs, &ys),
                InnerLoop::Unrolled => csr_rows::<4, false, K>(a, rows, &xs, &ys),
                InnerLoop::Prefetch => csr_rows::<1, true, K>(a, rows, &xs, &ys),
                InnerLoop::UnrolledPrefetch => csr_rows::<4, true, K>(a, rows, &xs, &ys),
                InnerLoop::Micro(spec) => {
                    for i in rows {
                        let (cols, vals) = a.row(i);
                        for (x, y) in xs.iter().zip(ys) {
                            y.write(i, spec.row_sum_unchecked(cols, vals, x));
                        }
                    }
                }
            }
        }
    }

    /// [`InnerLoop::run_rows`] over any number of vectors, in groups
    /// of at most [`MAX_BATCH`]: each group is one pass over `rows`.
    ///
    /// # Safety
    /// As [`InnerLoop::run_rows`], with `xs.len() == ys.len()`.
    unsafe fn run_rows_batch(self, a: &Csr, rows: Range<usize>, xs: &[&[f64]], ys: &[YPtr]) {
        for (xs, ys) in xs.chunks(MAX_BATCH).zip(ys.chunks(MAX_BATCH)) {
            let run = match xs.len() {
                1 => InnerLoop::run_rows::<1>,
                2 => InnerLoop::run_rows::<2>,
                3 => InnerLoop::run_rows::<3>,
                4 => InnerLoop::run_rows::<4>,
                5 => InnerLoop::run_rows::<5>,
                6 => InnerLoop::run_rows::<6>,
                7 => InnerLoop::run_rows::<7>,
                8 => InnerLoop::run_rows::<8>,
                _ => unreachable!("groups hold 1..={MAX_BATCH} vectors"),
            };
            // SAFETY: the caller's contract, for a group of `K` vectors.
            unsafe { run(self, a, rows.clone(), xs, ys) };
        }
    }
}

/// The classic traversal behind the four non-micro flavors: each row
/// summed against all `K` vectors by [`row_sum_classic`] with `ACC`
/// accumulators per vector and, with `LOOKAHEAD`, preceded by a
/// prefetch of every `x[colind[k]]` for `k` in
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
unsafe fn csr_rows<const ACC: usize, const LOOKAHEAD: bool, const K: usize>(
    a: &Csr,
    rows: Range<usize>,
    xs: &[&[f64]; K],
    ys: &[YPtr; K],
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
                for x in xs {
                    prefetch_x(x, c as usize);
                }
            }
        }
        // SAFETY: row i of a validated matrix (caller's contract): its
        // columns are < ncols == x.len(), and the caller owns y[i].
        let sums = unsafe { row_sum_classic::<ACC, K>(&colind[s..e], &values[s..e], xs) };
        for (y, sum) in ys.iter().zip(sums) {
            // SAFETY: the caller owns row i of every y.
            unsafe { y.write(i, sum) };
        }
    }
}

/// The classic row loop over `K` vectors: `ACC` independent
/// accumulators per vector (1 = the paper's Fig. 2 scalar loop, 4 =
/// the unrolled loop the compiler autovectorizes). Each nonzero is
/// loaded once and multiplied into all `K` sums.
///
/// Separate multiply and add (no fused multiply-add); accumulators
/// combine as `(a0 + a1) + (a2 + a3)` and the tail past the last full
/// block adds sequentially onto that sum. Each vector's sum sees the
/// same operations in the same order whatever `K`, so it is bitwise
/// the `K = 1` sum.
///
/// # Safety
/// `cols.len() == vals.len()` and every entry of `cols` indexes in
/// bounds of every `x`.
#[inline(always)]
unsafe fn row_sum_classic<const ACC: usize, const K: usize>(
    cols: &[u32],
    vals: &[f64],
    xs: &[&[f64]; K],
) -> [f64; K] {
    debug_assert_eq!(cols.len(), vals.len());
    let n = cols.len();
    let mut acc = [[0.0f64; K]; ACC];
    let blocks = n / ACC;
    for k in 0..blocks {
        let b = ACC * k;
        for (lane, acc) in acc.iter_mut().enumerate() {
            // SAFETY: b + lane < ACC * blocks <= n == cols.len() ==
            // vals.len().
            let (c, v) =
                unsafe { (*cols.get_unchecked(b + lane) as usize, *vals.get_unchecked(b + lane)) };
            // A counted `while` rather than a range `for`: unoptimized
            // builds then pay no iterator calls per nonzero.
            let mut j = 0;
            while j < K {
                // SAFETY: the validated column is < x.len() (contract).
                acc[j] += v * unsafe { *xs[j].get_unchecked(c) };
                j += 1;
            }
        }
    }
    let mut sums = match acc.as_slice() {
        [a0, a1, a2, a3] => std::array::from_fn(|j| (a0[j] + a1[j]) + (a2[j] + a3[j])),
        [a0] => *a0,
        _ => unreachable!("the classic flavors use 1 or 4 accumulators"),
    };
    for k in ACC * blocks..n {
        // SAFETY: k < n == cols.len() == vals.len().
        let (c, v) = unsafe { (*cols.get_unchecked(k) as usize, *vals.get_unchecked(k)) };
        for j in 0..K {
            // SAFETY: the validated column is < x.len() (contract).
            sums[j] += v * unsafe { *xs[j].get_unchecked(c) };
        }
    }
    sums
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

    /// Whether the matrix passed structural verification (and the
    /// kernel therefore runs the parallel unchecked fast path).
    pub fn is_validated(&self) -> bool {
        self.a.is_validated()
    }

    /// Computes `ys[j] = A · xs[j]` for `k` vectors in one dispatch of
    /// the kernel's plan: SpMV over a batch that shares one pass over
    /// the matrix. The row loop loads each nonzero once and multiplies
    /// it into all `k` row sums, so a batch of up to [`MAX_BATCH`]
    /// vectors streams the matrix once; wider batches take one pass
    /// per group of `MAX_BATCH`.
    ///
    /// Each vector's row sums take the same operations in the same
    /// order as a single-vector run, so each `ys[j]` is bitwise what
    /// [`SpmvKernel::run`] writes for `xs[j]`; for the scalar flavor
    /// that is bitwise [`Csr::spmv`]. An unvalidated matrix runs
    /// `Csr::spmv` serially per vector, as [`SpmvKernel::run_timed`]
    /// does.
    ///
    /// # Panics
    /// On shape mismatch, `k == 0`, or `xs.len() != ys.len()`.
    pub fn run_multi(&self, xs: &[&[f64]], ys: &mut [Vec<f64>]) -> ThreadTimes {
        let a = *self.a.get();
        assert!(!xs.is_empty(), "batch width must be at least 1");
        assert_eq!(ys.len(), xs.len(), "one output vector per input vector");
        for x in xs {
            assert_eq!(x.len(), a.ncols(), "x length");
        }
        for y in ys.iter() {
            assert_eq!(y.len(), a.nrows(), "y length");
        }
        match &self.a {
            MaybeValidated::Validated(v) => {
                let a = *v.get();
                let yps: Vec<YPtr> = ys.iter_mut().map(|y| YPtr(y.as_mut_ptr())).collect();
                self.plan.execute_labeled(&self.label, |range| {
                    // SAFETY: as in `run_timed`, for each of the `k`
                    // vectors: validated matrix, every `x.len() ==
                    // ncols` and every `y` a live `nrows` buffer
                    // (asserted above); `execute` hands each worker
                    // disjoint row ranges; the flavor is gather-checked.
                    unsafe { self.flavor.run_rows_batch(a, range, xs, &yps) };
                })
            }
            MaybeValidated::Unvalidated(a) => checked_fallback(self.plan.nthreads(), || {
                for (x, y) in xs.iter().zip(ys.iter_mut()) {
                    a.spmv(x, y);
                }
            }),
        }
    }
}

/// Largest batch width the serving plane coalesces (the default and
/// the ceiling of its `batch_max`), and the widest group of vectors
/// one pass of [`CsrKernel::run_multi`] serves. Each vector adds 16 B
/// per row of `x` and `y` traffic to the matrix's 12 B per nonzero,
/// so over rows of about ten nonzeros eight vectors already move more
/// bytes (128 B per row) than the matrix pass they share (120 B), and
/// wider groups save little.
pub const MAX_BATCH: usize = 8;

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
                    unsafe { self.flavor.run_rows::<1>(a, range, &[x], &[yp]) };
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
                let [got] = unsafe {
                    if unrolled {
                        row_sum_classic::<4, 1>(&cols, &vals, &[&x])
                    } else {
                        row_sum_classic::<1, 1>(&cols, &vals, &[&x])
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

    /// `run_multi` writes bit for bit what `run` writes, vector by
    /// vector, for the four classic flavors and a menu microkernel
    /// with its scalar twin, under every schedule at 1–3 threads, for
    /// one, two and a full group of vectors and for a second, ragged
    /// group. The matrix holds rows longer than [`PREFETCH_DIST`].
    #[test]
    fn run_multi_matches_run_bitwise() {
        use crate::micro::Lanes;

        let a = gen::circuit(24_000, 3, 0.8, 6, 21).unwrap();
        assert!((0..a.nrows()).any(|i| a.row_nnz(i) > PREFETCH_DIST));
        let spec = MicroSpec::simd(Lanes::X4, 2).unwrap_or(MicroSpec::scalar(Lanes::X4, 2));
        let flavors = [
            InnerLoop::Scalar,
            InnerLoop::Unrolled,
            InnerLoop::Prefetch,
            InnerLoop::UnrolledPrefetch,
            InnerLoop::Micro(spec),
            InnerLoop::Micro(spec.scalar_fallback()),
        ];
        let schedules = [
            Schedule::StaticRows,
            Schedule::NnzBalanced,
            Schedule::Dynamic { chunk: 4096 },
            Schedule::Guided,
        ];
        let xs: Vec<Vec<f64>> = (0..MAX_BATCH + 3).map(|j| random_x(a.ncols(), j as u64)).collect();
        let x_refs: Vec<&[f64]> = xs.iter().map(|x| x.as_slice()).collect();
        let bits = |y: &[f64]| y.iter().map(|v| v.to_bits()).collect::<Vec<u64>>();
        for flavor in flavors {
            for schedule in schedules {
                for nthreads in 1..=3 {
                    let kernel = CsrKernel::with_options(&a, nthreads, schedule, flavor);
                    let want: Vec<Vec<u64>> = xs
                        .iter()
                        .map(|x| {
                            let mut y = vec![f64::NAN; a.nrows()];
                            kernel.run(x, &mut y);
                            bits(&y)
                        })
                        .collect();
                    for k in [1, 2, MAX_BATCH, MAX_BATCH + 3] {
                        let mut ys = vec![vec![f64::NAN; a.nrows()]; k];
                        kernel.run_multi(&x_refs[..k], &mut ys);
                        for (j, y) in ys.iter().enumerate() {
                            assert!(
                                bits(y) == want[j],
                                "{flavor:?} {schedule:?} at {nthreads} threads, k {k}: vector {j}"
                            );
                        }
                    }
                }
            }
        }
    }

    /// Runs `run_multi` on `k` vectors through the baseline kernel and
    /// asserts every output is bitwise the serial reference product.
    fn assert_multi_bitwise_serial(a: &Csr, nthreads: usize, k: usize) {
        let xs: Vec<Vec<f64>> = (0..k).map(|j| random_x(a.ncols(), j as u64 + 1)).collect();
        let x_refs: Vec<&[f64]> = xs.iter().map(|x| x.as_slice()).collect();
        let mut ys = vec![vec![0.0; a.nrows()]; k];
        let kernel = CsrKernel::baseline(a, nthreads);
        assert!(kernel.is_validated());
        kernel.run_multi(&x_refs, &mut ys);
        for (j, (x, y)) in xs.iter().zip(&ys).enumerate() {
            let mut y_ref = vec![0.0; a.nrows()];
            a.spmv(x, &mut y_ref);
            for (i, (got, want)) in y.iter().zip(&y_ref).enumerate() {
                assert_eq!(got.to_bits(), want.to_bits(), "row {i} vector {j}");
            }
        }
    }

    #[test]
    fn run_multi_is_bitwise_serial() {
        let a = gen::banded(400, 5, 0.9, 7).unwrap();
        for nthreads in [1, 3, 4] {
            for k in 1..=MAX_BATCH + 1 {
                assert_multi_bitwise_serial(&a, nthreads, k);
            }
        }
    }

    #[test]
    fn powerlaw_batch_matches_serial() {
        let a = gen::powerlaw(600, 7, 2.0, 11).unwrap();
        assert_multi_bitwise_serial(&a, 4, 6);
    }

    #[test]
    fn run_multi_zeroes_empty_rows_in_every_output() {
        let a = Csr::from_raw(3, 3, vec![0, 1, 1, 2], vec![0, 2], vec![5.0, 7.0]).unwrap();
        let xs = [vec![1.0; 3], vec![2.0; 3], vec![0.5; 3]];
        let x_refs: Vec<&[f64]> = xs.iter().map(|x| x.as_slice()).collect();
        let mut ys = vec![vec![9.0; 3]; 3];
        CsrKernel::baseline(&a, 2).run_multi(&x_refs, &mut ys);
        assert_eq!(ys[0], [5.0, 0.0, 7.0]);
        assert_eq!(ys[1], [10.0, 0.0, 14.0]);
        assert_eq!(ys[2], [2.5, 0.0, 3.5]);
    }

    #[test]
    fn corrupt_rowptr_runs_multi_on_the_serial_checked_path() {
        // A row pointer whose partial sums overflow must not reach the
        // nnz-balanced partitioner: the unvalidated matrix plans over
        // nothing, and `run_multi` runs the serial checked `Csr::spmv`,
        // which panics on the corrupt row instead of reading past it.
        let a = Csr::from_raw_unchecked(3, 3, vec![0, 0, usize::MAX - 1, 5], vec![0], vec![1.0]);
        let kernel = CsrKernel::baseline(&a, 3);
        assert!(!kernel.is_validated());
        let x = [1.0; 3];
        let mut ys = vec![vec![0.0; 3]; 2];
        let run = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            kernel.run_multi(&[&x, &x], &mut ys)
        }));
        assert!(run.is_err());
    }

    #[test]
    #[should_panic(expected = "x length")]
    fn run_multi_shape_mismatch_panics() {
        let a = Csr::identity(4);
        let xs = [vec![1.0; 7], vec![1.0; 7]];
        let x_refs: Vec<&[f64]> = xs.iter().map(|x| x.as_slice()).collect();
        let mut ys = vec![vec![0.0; 4]; 2];
        CsrKernel::baseline(&a, 1).run_multi(&x_refs, &mut ys);
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
