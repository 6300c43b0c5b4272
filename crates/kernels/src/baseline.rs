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
//!
//! The loop reads column indices from a column stream: plain CSR's
//! `colind`, or the `MB`-class delta-compressed CSR
//! ([`spmv_sparse::DeltaCsr`]), whose cursors decode each column
//! inside the row loop. A [`CsrKernel`] holds either one, so delta
//! compression combines with every classic flavor.

use std::ops::Range;

use spmv_sparse::delta::{DeltaAhead, DeltaColumns, DeltaRow, DeltaStream};
use spmv_sparse::{Csr, DeltaCsr, MaybeValidated};

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
    /// elided: the one row traversal. A single SpMV is `K = 1`. The
    /// storage and the flavor are matched once per call, so every row
    /// loop below is monomorphic.
    ///
    /// # Panics
    /// Unless `xs.len() == ys.len() == K`.
    ///
    /// # Safety
    /// `a`'s matrix carries a [`spmv_sparse::Validated`] witness (every
    /// column decodes below `ncols`) and every `x.len() == ncols`;
    /// `rows` lies in `0..nrows`; every `y` points at a live buffer of
    /// `nrows` elements whose entries in `rows` the caller owns
    /// exclusively for the call. An [`InnerLoop::Micro`] flavor runs on
    /// plain CSR only, and for a SIMD spec columns must additionally
    /// fit in `i32` (see [`crate::micro::gather_compatible`]).
    #[inline]
    pub(crate) unsafe fn run_rows<const K: usize>(
        self,
        a: Rows<'_>,
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
            match (a, self) {
                (Rows::Csr(a), InnerLoop::Micro(spec)) => {
                    for i in rows {
                        let (cols, vals) = a.row(i);
                        for (x, y) in xs.iter().zip(ys) {
                            y.write(i, spec.row_sum_unchecked(cols, vals, x));
                        }
                    }
                }
                (Rows::Csr(a), flavor) => {
                    flavor.classic_rows((a.rowptr(), a.values(), a.colind()), rows, &xs, &ys)
                }
                (Rows::Delta(d), flavor) => {
                    let (rowptr, values) = (d.rowptr(), d.values());
                    match d.columns() {
                        DeltaColumns::U8(c) => {
                            flavor.classic_rows((rowptr, values, c), rows, &xs, &ys)
                        }
                        DeltaColumns::U16(c) => {
                            flavor.classic_rows((rowptr, values, c), rows, &xs, &ys)
                        }
                    }
                }
            }
        }
    }

    /// [`InnerLoop::run_rows`] for the four classic flavors, over a
    /// row pointer, values and any column stream. Out of line: one
    /// function per column stream and batch width, called once per row
    /// range.
    ///
    /// # Safety
    /// As [`InnerLoop::run_rows`].
    #[inline(never)]
    unsafe fn classic_rows<S: ColumnStream, const K: usize>(
        self,
        a: (&[usize], &[f64], S),
        rows: Range<usize>,
        xs: &[&[f64]; K],
        ys: &[YPtr; K],
    ) {
        // SAFETY: each arm forwards the caller's contract unchanged.
        unsafe {
            match self {
                InnerLoop::Scalar => csr_rows::<S, 1, false, K>(a, rows, xs, ys),
                InnerLoop::Unrolled => csr_rows::<S, 4, false, K>(a, rows, xs, ys),
                InnerLoop::Prefetch => csr_rows::<S, 1, true, K>(a, rows, xs, ys),
                InnerLoop::UnrolledPrefetch => csr_rows::<S, 4, true, K>(a, rows, xs, ys),
                InnerLoop::Micro(_) => {
                    unreachable!("microkernels gather from a column slice: plain CSR only")
                }
            }
        }
    }

    /// [`InnerLoop::run_rows`] over any number of vectors, in groups
    /// of at most [`MAX_BATCH`]: each group is one pass over `rows`.
    ///
    /// # Safety
    /// As [`InnerLoop::run_rows`], with `xs.len() == ys.len()`.
    unsafe fn run_rows_batch(self, a: Rows<'_>, rows: Range<usize>, xs: &[&[f64]], ys: &[YPtr]) {
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

/// A validated matrix as the row traversal reads it.
#[derive(Debug, Clone, Copy)]
pub(crate) enum Rows<'a> {
    /// Plain CSR.
    Csr(&'a Csr),
    /// Delta-compressed CSR.
    Delta(&'a DeltaCsr),
}

/// A matrix's column indices as the traversal reads them: plain
/// CSR's `colind`, or delta-compressed CSR's [`DeltaStream`], whose
/// cursors decode in place. Passed by value, so that the traversal
/// holds it in locals.
trait ColumnStream: Copy {
    /// Cursor over one row, read at positions `0, 1, …` of the row.
    type Row;
    /// Cursor along the flat nonzero stream, read in consecutive
    /// ranges of global positions.
    type Ahead;

    /// The cursor over row `i`, whose first nonzero is `start`.
    ///
    /// # Safety
    /// The matrix is validated, `i < nrows` and `start == rowptr[i]`.
    unsafe fn row_cols(&self, i: usize, start: usize) -> Self::Row;

    /// The column at position `k` of the cursor's row.
    ///
    /// # Safety
    /// Positions come one after another from 0, below the row's length.
    unsafe fn col_at(row: &mut Self::Row, k: usize) -> usize;

    /// A flat cursor whose first position is `pos`.
    ///
    /// # Safety
    /// The matrix is validated, `row < nrows` and
    /// `rowptr[row] <= pos <= nnz`.
    unsafe fn ahead_cols(&self, row: usize, pos: usize) -> Self::Ahead;

    /// Calls `visit` with the column at each position of `range`.
    ///
    /// # Safety
    /// Ranges follow on from the cursor's first position, up to `nnz`.
    unsafe fn cols_in(ahead: &mut Self::Ahead, range: Range<usize>, visit: impl FnMut(usize));
}

impl<'a> ColumnStream for &'a [u32] {
    type Row = &'a [u32];
    type Ahead = &'a [u32];

    // SAFETY: callers keep the trait method's contract.
    #[inline(always)]
    unsafe fn row_cols(&self, _i: usize, start: usize) -> &'a [u32] {
        // SAFETY: start == rowptr[i] <= nnz == self.len() (contract).
        unsafe { self.get_unchecked(start..) }
    }

    // SAFETY: callers keep the trait method's contract.
    #[inline(always)]
    unsafe fn col_at(row: &mut &'a [u32], k: usize) -> usize {
        // SAFETY: k < row.len() (contract).
        unsafe { *row.get_unchecked(k) as usize }
    }

    // SAFETY: callers keep the trait method's contract.
    #[inline(always)]
    unsafe fn ahead_cols(&self, _row: usize, _pos: usize) -> &'a [u32] {
        self
    }

    // SAFETY: callers keep the trait method's contract.
    #[inline(always)]
    unsafe fn cols_in(ahead: &mut &'a [u32], range: Range<usize>, mut visit: impl FnMut(usize)) {
        for &c in &ahead[range] {
            visit(c as usize);
        }
    }
}

impl<'a, T: Copy + Into<u32>> ColumnStream for DeltaStream<'a, T> {
    type Row = DeltaRow<'a, T>;
    type Ahead = DeltaAhead<'a, T>;

    // SAFETY: callers keep the trait method's contract.
    #[inline(always)]
    unsafe fn row_cols(&self, i: usize, start: usize) -> DeltaRow<'a, T> {
        // SAFETY: forwarded contract.
        unsafe { self.row_cursor(i, start) }
    }

    // SAFETY: callers keep the trait method's contract.
    #[inline(always)]
    unsafe fn col_at(row: &mut DeltaRow<'a, T>, k: usize) -> usize {
        // SAFETY: forwarded contract.
        unsafe { row.decode_at(k) }
    }

    // SAFETY: callers keep the trait method's contract.
    #[inline(always)]
    unsafe fn ahead_cols(&self, row: usize, pos: usize) -> DeltaAhead<'a, T> {
        // SAFETY: forwarded contract.
        unsafe { self.ahead_cursor(row, pos) }
    }

    // SAFETY: callers keep the trait method's contract.
    #[inline(always)]
    unsafe fn cols_in(
        ahead: &mut DeltaAhead<'a, T>,
        range: Range<usize>,
        visit: impl FnMut(usize),
    ) {
        // SAFETY: forwarded contract.
        unsafe { ahead.decode_range(range, visit) }
    }
}

/// The classic traversal behind the four non-micro flavors: each row
/// summed against all `K` vectors by [`row_sum_classic`] with `ACC`
/// accumulators per vector and, with `LOOKAHEAD`, preceded by a
/// prefetch of every `x[col(k)]` for `k` in
/// `rowptr[i] + D .. rowptr[i + 1] + D` (D = [`PREFETCH_DIST`]),
/// clipped to the last nonzero of `rows`, read through a second
/// cursor of the same column stream. Over a range, every nonzero past its first
/// D is hinted exactly once whatever the row lengths, and no hint
/// reaches into another worker's rows. The hints never touch the
/// arithmetic, so a lookahead flavor is bitwise identical to its twin
/// without one.
///
/// # Safety
/// Same contract as [`InnerLoop::run_rows`].
#[inline(always)]
unsafe fn csr_rows<S: ColumnStream, const ACC: usize, const LOOKAHEAD: bool, const K: usize>(
    (rowptr, values, cols): (&[usize], &[f64], S),
    rows: Range<usize>,
    xs: &[&[f64]; K],
    ys: &[YPtr; K],
) {
    if rows.is_empty() {
        return;
    }
    let stream_end = rowptr[rows.end];
    let mut next = (rowptr[rows.start] + PREFETCH_DIST).min(stream_end);
    // SAFETY: rows.start < nrows and rowptr[rows.start] <= next <=
    // stream_end <= nnz; the matrix is validated (caller's contract).
    let mut ahead = LOOKAHEAD.then(|| unsafe { cols.ahead_cols(rows.start, next) });
    for i in rows {
        // SAFETY: i < rows.end <= nrows, and a validated row pointer
        // has nrows + 1 monotone entries up to nnz.
        let (s, e, vals) = unsafe {
            let (s, e) = (*rowptr.get_unchecked(i), *rowptr.get_unchecked(i + 1));
            (s, e, values.get_unchecked(s..e))
        };
        if let Some(ahead) = &mut ahead {
            let end = (e + PREFETCH_DIST).min(stream_end);
            debug_assert!(
                next <= end && end <= stream_end,
                "lookahead {next}..{end} leaves the range's nonzeros ..{stream_end}"
            );
            // SAFETY: the ranges follow on from the cursor's start and
            // stay below stream_end <= nnz.
            unsafe {
                S::cols_in(ahead, next..end, |c| {
                    for x in xs {
                        prefetch_x(x, c);
                    }
                })
            };
            next = end;
        }
        // SAFETY: row i of a validated matrix (caller's contract): its
        // columns are < ncols == x.len(), and the caller owns y[i].
        let sums = unsafe { row_sum_classic::<S, ACC, K>(cols.row_cols(i, s), vals, xs) };
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
/// same operations in the same order whatever `K` and whatever column
/// stream, so it is bitwise the `K = 1` sum over plain CSR.
///
/// # Safety
/// `cols` reads `vals.len()` columns, each in bounds of every `x`.
#[inline(always)]
unsafe fn row_sum_classic<S: ColumnStream, const ACC: usize, const K: usize>(
    mut cols: S::Row,
    vals: &[f64],
    xs: &[&[f64]; K],
) -> [f64; K] {
    let n = vals.len();
    let mut acc = [[0.0f64; K]; ACC];
    let blocks = n / ACC;
    for k in 0..blocks {
        let b = ACC * k;
        for (lane, acc) in acc.iter_mut().enumerate() {
            // SAFETY: b + lane < ACC * blocks <= n == vals.len(), and
            // positions run 0, 1, … in order.
            let (c, v) = unsafe { (S::col_at(&mut cols, b + lane), *vals.get_unchecked(b + lane)) };
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
        // SAFETY: k < n == vals.len(), continuing the positions above.
        let (c, v) = unsafe { (S::col_at(&mut cols, k), *vals.get_unchecked(k)) };
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

/// Parallel CSR SpMV kernel, over plain or delta-compressed CSR.
///
/// Holds a precomputed [`Plan`] (partition + persistent worker pool),
/// so repeated [`run`](SpmvKernel::run) calls pay neither thread
/// spawning nor partition recomputation.
///
/// The matrix is structurally verified once at construction: a
/// [`spmv_sparse::Validated`] witness admits the parallel unchecked
/// fast path, while a matrix that fails verification silently falls
/// back to the serial fully-checked [`Csr::spmv`] or [`DeltaCsr::spmv`]
/// (correct for any in-bounds structure, and panics rather than
/// corrupting memory on anything worse).
#[derive(Debug)]
pub struct CsrKernel<'a> {
    a: Storage<'a>,
    plan: Plan,
    flavor: InnerLoop,
    /// Dispatch label threaded into the engine's trace events: the id
    /// of the kernel config this kernel runs (e.g. `csr/avx2-a2`).
    label: String,
}

/// The matrix a [`CsrKernel`] reads: borrowed plain CSR, or the owned
/// product of delta compression.
#[derive(Debug)]
enum Storage<'a> {
    Csr(MaybeValidated<&'a Csr>),
    Delta(MaybeValidated<DeltaCsr>),
}

impl Storage<'_> {
    /// `(nrows, ncols)`.
    fn shape(&self) -> (usize, usize) {
        match self {
            Storage::Csr(a) => (a.get().nrows(), a.get().ncols()),
            Storage::Delta(d) => (d.get().nrows(), d.get().ncols()),
        }
    }

    /// The serial fully-checked SpMV of the unvalidated path.
    fn spmv_checked(&self, x: &[f64], y: &mut [f64]) {
        match self {
            Storage::Csr(a) => a.get().spmv(x, y),
            Storage::Delta(d) => d.get().spmv(x, y),
        }
    }
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
        CsrKernel { a: Storage::Csr(a), plan, flavor, label }
    }

    /// Creates a kernel over delta-compressed CSR (the paper's `MB`
    /// class) with one of the four classic flavors. It owns the
    /// compressed matrix, the conversion product.
    ///
    /// # Panics
    /// On an [`InnerLoop::Micro`] flavor: microkernels gather from a
    /// plain column slice.
    pub fn delta(
        d: DeltaCsr,
        nthreads: usize,
        schedule: Schedule,
        flavor: InnerLoop,
    ) -> CsrKernel<'a> {
        assert!(!matches!(flavor, InnerLoop::Micro(_)), "a microkernel needs plain CSR");
        let d = MaybeValidated::new(d);
        let plan = witness_plan(&d, schedule, nthreads, |d| d.rowptr());
        let label = KernelConfig { format: Format::Delta, row: flavor, schedule }.id();
        CsrKernel { a: Storage::Delta(d), plan, flavor, label }
    }

    /// Whether the matrix passed structural verification (and the
    /// kernel therefore runs the parallel unchecked fast path).
    pub fn is_validated(&self) -> bool {
        match &self.a {
            Storage::Csr(a) => a.is_validated(),
            Storage::Delta(d) => d.is_validated(),
        }
    }

    /// Dispatches the kernel's plan once under its label: the
    /// traversal writes `ys[j] = A · xs[j]` for every vector. Returns
    /// `None`, running nothing, when the matrix is not validated.
    ///
    /// # Safety
    /// `xs.len() == ys.len()`, every `x.len() == ncols`, and every `y`
    /// points at a live buffer of `nrows` elements that nothing else
    /// accesses during the call.
    unsafe fn execute(&self, xs: &[&[f64]], ys: &[YPtr]) -> Option<ThreadTimes> {
        let rows = match &self.a {
            Storage::Csr(MaybeValidated::Validated(a)) => Rows::Csr(a.get()),
            Storage::Delta(MaybeValidated::Validated(d)) => Rows::Delta(d.get()),
            _ => return None,
        };
        Some(self.plan.execute_labeled(&self.label, |range| {
            // SAFETY: a validated matrix and the caller's vectors;
            // `execute_labeled` hands each worker disjoint row ranges;
            // the flavor is gather-checked, and only plain CSR takes a
            // micro flavor (`CsrKernel::delta`).
            unsafe { self.flavor.run_rows_batch(rows, range, xs, ys) };
        }))
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
    /// that is bitwise [`Csr::spmv`]. An unvalidated matrix runs the
    /// serial checked SpMV per vector, as [`SpmvKernel::run_timed`]
    /// does.
    ///
    /// # Panics
    /// On shape mismatch, `k == 0`, or `xs.len() != ys.len()`.
    pub fn run_multi(&self, xs: &[&[f64]], ys: &mut [Vec<f64>]) -> ThreadTimes {
        let (nrows, ncols) = self.a.shape();
        assert!(!xs.is_empty(), "batch width must be at least 1");
        assert_eq!(ys.len(), xs.len(), "one output vector per input vector");
        for x in xs {
            assert_eq!(x.len(), ncols, "x length");
        }
        for y in ys.iter() {
            assert_eq!(y.len(), nrows, "y length");
        }
        let yps: Vec<YPtr> = ys.iter_mut().map(|y| YPtr(y.as_mut_ptr())).collect();
        // SAFETY: the shapes are asserted above, and `ys` stays
        // mutably borrowed by this call.
        unsafe { self.execute(xs, &yps) }.unwrap_or_else(|| {
            checked_fallback(self.plan.nthreads(), || {
                for (x, y) in xs.iter().zip(ys.iter_mut()) {
                    self.a.spmv_checked(x, y);
                }
            })
        })
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
        let (nrows, ncols) = self.a.shape();
        assert_eq!(x.len(), ncols, "x length");
        assert_eq!(y.len(), nrows, "y length");
        let yp = YPtr(y.as_mut_ptr());
        // SAFETY: the shapes are asserted above, and `y` stays mutably
        // borrowed by this call.
        unsafe { self.execute(&[x], &[yp]) }
            .unwrap_or_else(|| checked_fallback(self.plan.nthreads(), || self.a.spmv_checked(x, y)))
    }

    fn name(&self) -> String {
        let schedule = self.plan.schedule();
        match &self.a {
            Storage::Csr(_) => format!("csr[{:?},{schedule:?}]", self.flavor),
            Storage::Delta(d) => {
                format!("delta[{:?},{:?},{schedule:?}]", d.get().width(), self.flavor)
            }
        }
    }

    fn nrows(&self) -> usize {
        self.a.shape().0
    }

    fn ncols(&self) -> usize {
        self.a.shape().1
    }

    fn format_bytes(&self) -> usize {
        match &self.a {
            Storage::Csr(a) => a.get().footprint_bytes(),
            Storage::Delta(d) => d.get().footprint_bytes(),
        }
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
    use spmv_sparse::{gen, DeltaWidth};

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

    /// The accumulation orders the classic flavors must keep,
    /// transcribed with checked indexing: one running sum, or four
    /// lane accumulators combined `(a0 + a1) + (a2 + a3)` followed by
    /// a sequential tail. Prefetching never changes the arithmetic.
    fn reference_flavor(unrolled: bool, cols: &[u32], vals: &[f64], x: &[f64]) -> f64 {
        let n = cols.len();
        if !unrolled {
            return (0..n).fold(0.0, |sum, k| sum + vals[k] * x[cols[k] as usize]);
        }
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
                        row_sum_classic::<&[u32], 4, 1>(&cols, &vals, &[&x])
                    } else {
                        row_sum_classic::<&[u32], 1, 1>(&cols, &vals, &[&x])
                    }
                };
                assert_eq!(got.to_bits(), want.to_bits(), "unrolled {unrolled} len {len}");
            }
        }
    }

    /// A matrix for the storage axis of the traversal tests: every
    /// seventh row empty, rows of 300 nonzeros (longer than
    /// [`PREFETCH_DIST`]) every 500 rows, rows spanning column 0 to
    /// the last column (a gap that escapes even at 16 bits) every 13
    /// rows, and 1–7 random columns otherwise, over 70 000 columns.
    fn stream_matrix(nrows: usize, seed: u64) -> Csr {
        const NCOLS: u32 = 70_000;
        let mut rng = SmallRng::seed_from_u64(seed);
        let (mut rowptr, mut colind, mut values) = (vec![0], Vec::new(), Vec::new());
        for i in 0..nrows {
            let mut cols: Vec<u32> = match i {
                _ if i % 7 == 0 => Vec::new(),
                _ if i % 500 == 3 => (0..300).map(|_| rng.gen_range(0..NCOLS)).collect(),
                _ if i % 13 == 5 => vec![0, rng.gen_range(1..NCOLS - 1), NCOLS - 1],
                _ => (0..rng.gen_range(1..8)).map(|_| rng.gen_range(0..NCOLS)).collect(),
            };
            cols.sort_unstable();
            cols.dedup();
            values.extend(cols.iter().map(|_| rng.gen_range(-1.0..1.0)));
            colind.extend(cols);
            rowptr.push(colind.len());
        }
        Csr::from_raw(nrows, NCOLS as usize, rowptr, colind, values).unwrap()
    }

    /// Kernels of one flavor over every storage of `a`: plain CSR,
    /// then, for a classic flavor, delta-compressed CSR at both widths.
    fn storages<'a>(
        a: &'a Csr,
        nthreads: usize,
        schedule: Schedule,
        flavor: InnerLoop,
    ) -> Vec<CsrKernel<'a>> {
        let mut out = vec![CsrKernel::with_options(a, nthreads, schedule, flavor)];
        if !matches!(flavor, InnerLoop::Micro(_)) {
            for width in [DeltaWidth::U8, DeltaWidth::U16] {
                let d = DeltaCsr::with_width(a, width).unwrap();
                out.push(CsrKernel::delta(d, nthreads, schedule, flavor));
            }
        }
        out
    }

    /// The lookahead flavors equal their twins bit for bit on the one
    /// traversal — through plain CSR, delta-compressed CSR at both
    /// widths and the decomposed kernel — at 1–3 threads under every
    /// schedule. The small matrix holds fewer nonzeros than
    /// [`PREFETCH_DIST`], so every row and every static, dynamic or
    /// guided range is shorter than the distance and the lookahead is
    /// clipped at each range end (the traversal's `debug_assert!`
    /// checks it never leaves the range); the large one adds empty
    /// rows, escapes at both delta widths and rows longer than the
    /// distance. On a banded matrix, compression shrinks the kernel's
    /// footprint.
    #[test]
    fn lookahead_flavors_match_their_twins_bitwise() {
        use crate::decomposed::DecomposedKernel;
        use spmv_sparse::DecomposedCsr;

        let small = gen::circuit(20, 1, 0.5, 5, 17).unwrap();
        let large = stream_matrix(3000, 17);
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
                        let twins = storages(a, nthreads, schedule, twin);
                        let lookaheads = storages(a, nthreads, schedule, lookahead);
                        for (twin, lookahead) in twins.iter().zip(&lookaheads) {
                            assert_eq!(
                                product(lookahead),
                                product(twin),
                                "{} at {nthreads} threads",
                                lookahead.name()
                            );
                        }
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
        let banded = gen::banded(512, 8, 1.0, 1).unwrap();
        let [plain, d8, d16] = &storages(&banded, 2, Schedule::NnzBalanced, InnerLoop::Scalar)[..]
        else {
            unreachable!("three storages")
        };
        assert!(
            d8.format_bytes() < plain.format_bytes() && d16.format_bytes() < plain.format_bytes()
        );
    }

    /// `run_multi` writes bit for bit what the plain CSR kernel's `run`
    /// writes, vector by vector, for the four classic flavors on plain
    /// and delta-compressed CSR (both widths, with escapes, empty rows
    /// and rows longer than [`PREFETCH_DIST`]) and for a menu
    /// microkernel with its scalar twin, under every schedule at 1–3
    /// threads, for one, two and a full group of vectors and for a
    /// second, ragged group. Every kernel's `run` matches too, every
    /// flavor's product is within rounding of [`Csr::spmv`], and the
    /// scalar flavor's is bitwise that product.
    #[test]
    fn run_multi_matches_run_bitwise() {
        use crate::micro::Lanes;

        let a = stream_matrix(6000, 21);
        assert!((0..a.nrows()).any(|i| a.row_nnz(i) > PREFETCH_DIST));
        for width in [DeltaWidth::U8, DeltaWidth::U16] {
            assert!(DeltaCsr::with_width(&a, width).unwrap().n_exceptions() > 0, "{width:?}");
        }
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
            Schedule::Dynamic { chunk: 1024 },
            Schedule::Guided,
        ];
        let xs: Vec<Vec<f64>> = (0..MAX_BATCH + 3).map(|j| random_x(a.ncols(), j as u64)).collect();
        let x_refs: Vec<&[f64]> = xs.iter().map(|x| x.as_slice()).collect();
        let bits = |y: &[f64]| y.iter().map(|v| v.to_bits()).collect::<Vec<u64>>();
        let run = |kernel: &CsrKernel<'_>, x: &[f64]| {
            let mut y = vec![f64::NAN; a.nrows()];
            kernel.run(x, &mut y);
            bits(&y)
        };
        let mut serial = vec![0.0; a.nrows()];
        a.spmv(&xs[0], &mut serial);
        for flavor in flavors {
            for schedule in schedules {
                for nthreads in 1..=3 {
                    let kernels = storages(&a, nthreads, schedule, flavor);
                    let want: Vec<Vec<u64>> = xs.iter().map(|x| run(&kernels[0], x)).collect();
                    if flavor == InnerLoop::Scalar {
                        assert!(want[0] == bits(&serial), "{schedule:?} at {nthreads} threads");
                    }
                    assert_matches_serial(&a, &kernels[0]);
                    for kernel in &kernels {
                        let name = kernel.name();
                        assert!(run(kernel, &xs[0]) == want[0], "{name} at {nthreads} threads");
                        for k in [1, 2, MAX_BATCH, MAX_BATCH + 3] {
                            let mut ys = vec![vec![f64::NAN; a.nrows()]; k];
                            kernel.run_multi(&x_refs[..k], &mut ys);
                            for (j, y) in ys.iter().enumerate() {
                                assert!(
                                    bits(y) == want[j],
                                    "{name} at {nthreads} threads, k {k}: vector {j}"
                                );
                            }
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
    fn unvalidated_delta_runs_on_the_serial_checked_path() {
        // The row pointer ends before the last stored nonzero, so the
        // compressed matrix fails validation (rowptr[nrows] != nnz):
        // `run` and `run_multi` take the serial checked
        // `DeltaCsr::spmv`, which reads the rows the pointer names,
        // bitwise as `Csr::spmv` does.
        let a = Csr::from_raw_unchecked(2, 3, vec![0, 1, 2], vec![0, 2, 1], vec![1.5, 2.0, 4.0]);
        let d = DeltaCsr::from_csr(&a).unwrap();
        let kernel = CsrKernel::delta(d, 2, Schedule::NnzBalanced, InnerLoop::UnrolledPrefetch);
        assert!(!kernel.is_validated());
        let x = [3.0, 5.0, 7.0];
        let mut want = [0.0; 2];
        a.spmv(&x, &mut want);
        let mut y = [f64::NAN; 2];
        kernel.run(&x, &mut y);
        assert_eq!(y, want);
        let mut ys = vec![vec![f64::NAN; 2]; 2];
        kernel.run_multi(&[&x, &x], &mut ys);
        assert!(ys.iter().all(|y| y[..] == want));
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
    fn gflops_helper() {
        let a = Csr::identity(4);
        let k = CsrKernel::baseline(&a, 1);
        // 2*nnz flops in 1 second = 8 flops/s
        assert!((k.gflops(1.0, a.nnz()) - 8e-9).abs() < 1e-18);
    }
}
