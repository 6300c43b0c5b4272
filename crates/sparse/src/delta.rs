//! Delta-compressed CSR — the paper's `MB`-class optimization.
//!
//! Column indices are stored as deltas from the previous nonzero in
//! the same row (the first nonzero of each row is stored absolutely).
//! Following Pooch & Nieder as adopted by the paper, deltas are either
//! **8-bit or 16-bit, never both**, "in order to limit the branching
//! overhead during SpMV computation". Deltas that do not fit the
//! chosen width escape to a 32-bit side stream through a sentinel
//! value, so every matrix remains representable.

use crate::csr::Csr;
use crate::error::SparseError;
use crate::{index_u32, Result};

/// Width of the delta stream. One width per matrix (paper: "8- or
/// 16-bit deltas wherever possible, but never both").
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum DeltaWidth {
    /// 1-byte deltas, sentinel `u8::MAX`.
    U8,
    /// 2-byte deltas, sentinel `u16::MAX`.
    U16,
}

impl DeltaWidth {
    /// Bytes per stored delta.
    #[inline]
    pub fn bytes(self) -> usize {
        match self {
            DeltaWidth::U8 => 1,
            DeltaWidth::U16 => 2,
        }
    }

    /// Largest delta representable without escaping.
    #[inline]
    pub fn max_inline(self) -> u32 {
        self.sentinel() - 1
    }

    /// The stored value that escapes to the 32-bit exception stream.
    #[inline]
    fn sentinel(self) -> u32 {
        match self {
            DeltaWidth::U8 => u32::from(u8::MAX),
            DeltaWidth::U16 => u32::from(u16::MAX),
        }
    }
}

/// Delta stream storage, one variant per [`DeltaWidth`].
#[derive(Debug, Clone, PartialEq)]
enum Deltas {
    U8(Vec<u8>),
    U16(Vec<u16>),
}

impl Deltas {
    fn len(&self) -> usize {
        match self {
            Deltas::U8(v) => v.len(),
            Deltas::U16(v) => v.len(),
        }
    }
}

/// CSR with delta-compressed column indices.
///
/// Layout:
/// * `rowptr` — as in CSR, indexes both `values` and the delta stream;
/// * `firstcol[i]` — absolute column of the first nonzero of row `i`
///   (0 for empty rows);
/// * `deltas[j]` — gap to the previous column for the 2nd.. nonzeros
///   of a row; the first slot of each row is a padding 0 so streams
///   stay aligned with `values`. Decoding adds every slot of row `i`,
///   padding included, onto `firstcol[i]`;
/// * sentinel deltas escape to `exceptions`, consumed in row-major
///   order; `exc_ptr[i]` points at row `i`'s first exception.
#[derive(Debug, Clone, PartialEq)]
pub struct DeltaCsr {
    nrows: usize,
    ncols: usize,
    width: DeltaWidth,
    rowptr: Vec<usize>,
    firstcol: Vec<u32>,
    deltas: Deltas,
    exceptions: Vec<u32>,
    exc_ptr: Vec<u32>,
    values: Vec<f64>,
}

impl DeltaCsr {
    /// Compresses `a` with an automatically chosen delta width: the
    /// width with the smaller total footprint wins (8-bit unless the
    /// escape traffic makes 16-bit cheaper).
    ///
    /// # Errors
    /// See [`DeltaCsr::with_width`].
    pub fn from_csr(a: &Csr) -> Result<DeltaCsr> {
        let (n8, n16) = count_escapes(a);
        let nnz = a.nnz();
        let cost8 = nnz + 4 * n8; // bytes: 1/delta + 4/escape
        let cost16 = 2 * nnz + 4 * n16;
        let width = if cost8 <= cost16 { DeltaWidth::U8 } else { DeltaWidth::U16 };
        Self::with_width(a, width)
    }

    /// Compresses `a` with an explicit delta width. All narrowing is
    /// checked: a delta that does not fit the chosen stream escapes,
    /// and anything that cannot be represented at all (non-monotone
    /// rows from [`Csr::from_raw_unchecked`], an exception count
    /// overflowing the 32-bit cursor) is an error rather than a
    /// silent wrap.
    ///
    /// # Errors
    /// [`SparseError::Corrupt`] if a row's columns decrease (delta
    /// compression requires sorted rows) or an index stream would
    /// overflow its storage type.
    pub fn with_width(a: &Csr, width: DeltaWidth) -> Result<DeltaCsr> {
        let mut d = DeltaCsr {
            nrows: a.nrows(),
            ncols: a.ncols(),
            width,
            rowptr: a.rowptr().to_vec(),
            firstcol: Vec::with_capacity(a.nrows()),
            deltas: Deltas::U8(Vec::new()),
            exceptions: Vec::new(),
            exc_ptr: Vec::with_capacity(a.nrows() + 1),
            values: a.values().to_vec(),
        };
        d.deltas = match width {
            DeltaWidth::U8 => Deltas::U8(d.encode(a)?),
            DeltaWidth::U16 => Deltas::U16(d.encode(a)?),
        };
        Ok(d)
    }

    /// Fills `firstcol`, `exceptions` and `exc_ptr` from `a` and
    /// returns the delta stream in words of type `T`. A row's first
    /// slot is its gap to itself, the padding 0.
    fn encode<T: TryFrom<u32>>(&mut self, a: &Csr) -> Result<Vec<T>> {
        let corrupt = |detail: String| SparseError::Corrupt { format: "delta-csr", detail };
        let (max_inline, sentinel) = (self.width.max_inline(), self.width.sentinel());
        let word = |v: u32| {
            T::try_from(v).map_err(|_| corrupt(format!("delta {v} does not fit the delta stream")))
        };
        let cursor = |n: usize| {
            u32::try_from(n)
                .map_err(|_| corrupt("exception count overflows the 32-bit cursor".into()))
        };
        let mut deltas = Vec::with_capacity(a.nnz());
        for (i, cols, _) in a.rows() {
            self.exc_ptr.push(cursor(self.exceptions.len())?);
            let mut prev = cols.first().copied().unwrap_or(0);
            self.firstcol.push(prev);
            for (k, &c) in cols.iter().enumerate() {
                let gap = c.checked_sub(prev).ok_or_else(|| {
                    corrupt(format!(
                        "columns of row {i} decrease at position {k}; \
                         delta compression requires sorted rows"
                    ))
                })?;
                prev = c;
                if gap > max_inline {
                    self.exceptions.push(gap);
                }
                deltas.push(word(if gap > max_inline { sentinel } else { gap })?);
            }
        }
        self.exc_ptr.push(cursor(self.exceptions.len())?);
        Ok(deltas)
    }

    /// Number of rows.
    #[inline]
    pub fn nrows(&self) -> usize {
        self.nrows
    }

    /// Number of columns.
    #[inline]
    pub fn ncols(&self) -> usize {
        self.ncols
    }

    /// Number of stored nonzeros.
    #[inline]
    pub fn nnz(&self) -> usize {
        self.values.len()
    }

    /// Chosen delta width.
    #[inline]
    pub fn width(&self) -> DeltaWidth {
        self.width
    }

    /// Row pointer array.
    #[inline]
    pub fn rowptr(&self) -> &[usize] {
        &self.rowptr
    }

    /// Nonzero values.
    #[inline]
    pub fn values(&self) -> &[f64] {
        &self.values
    }

    /// Number of escaped (sentinel) deltas.
    #[inline]
    pub fn n_exceptions(&self) -> usize {
        self.exceptions.len()
    }

    /// Memory footprint in bytes of the compressed representation —
    /// the `S_format` that enters the `P_MB` bound when this format is
    /// selected.
    pub fn footprint_bytes(&self) -> usize {
        (self.nrows + 1) * std::mem::size_of::<usize>()
            + self.nrows * std::mem::size_of::<u32>()          // firstcol
            + self.deltas.len() * self.width.bytes()
            + self.exceptions.len() * std::mem::size_of::<u32>()
            + (self.nrows + 1) * std::mem::size_of::<u32>()    // exc_ptr
            + self.values.len() * std::mem::size_of::<f64>()
    }

    /// Serial SpMV over the compressed format, `y = A * x`, with every
    /// index checked: the fallback for a matrix that failed validation.
    ///
    /// # Panics
    /// Panics if vector lengths do not match the matrix shape, or on a
    /// stream that does not decode in bounds.
    pub fn spmv(&self, x: &[f64], y: &mut [f64]) {
        assert_eq!(x.len(), self.ncols, "x length");
        assert_eq!(y.len(), self.nrows, "y length");
        for (i, yi) in y.iter_mut().enumerate() {
            let mut sum = 0.0;
            self.decode_row(i, self.exc_ptr[i] as usize, |j, col| sum += self.values[j] * x[col])
                .expect("delta stream decodes in bounds");
            *yi = sum;
        }
    }

    /// Decompresses back to plain CSR (exact structural roundtrip).
    ///
    /// # Errors
    /// Propagates decode and validation errors; a successful
    /// compression always roundtrips.
    pub fn to_csr(&self) -> Result<Csr> {
        let mut colind = Vec::with_capacity(self.nnz());
        for i in 0..self.nrows {
            self.decode_row(i, self.exc_ptr[i] as usize, |_, col| colind.push(index_u32(col)))?;
        }
        Csr::from_raw(self.nrows, self.ncols, self.rowptr.clone(), colind, self.values.clone())
    }

    /// Replays row `i`'s stream from exception `exc` on, exactly as the
    /// cursors of [`DeltaStream`] decode it but with every index
    /// checked, calling `visit(j, column)` for each nonzero `j` in
    /// order. Returns the exception cursor after the row.
    ///
    /// # Errors
    /// [`SparseError::Corrupt`] if the row consumes more exceptions
    /// than are stored or decodes a column `>= ncols`.
    fn decode_row(&self, i: usize, exc: usize, visit: impl FnMut(usize, usize)) -> Result<usize> {
        match &self.deltas {
            Deltas::U8(d) => self.decode_row_in(d, i, exc, visit),
            Deltas::U16(d) => self.decode_row_in(d, i, exc, visit),
        }
    }

    fn decode_row_in<T: Copy + Into<u32>>(
        &self,
        deltas: &[T],
        i: usize,
        mut exc: usize,
        mut visit: impl FnMut(usize, usize),
    ) -> Result<usize> {
        let corrupt = |detail: String| SparseError::Corrupt { format: "delta-csr", detail };
        let sentinel = self.width.sentinel();
        // Accumulate in u64 so a corrupted stream cannot wrap the
        // column accumulator past the bounds check.
        let mut col = u64::from(self.firstcol[i]);
        let (s, e) = (self.rowptr[i], self.rowptr[i + 1]);
        for (j, &d) in (s..e).zip(&deltas[s..e]) {
            let d: u32 = d.into();
            col += if d == sentinel {
                let g = self.exceptions.get(exc).copied().ok_or_else(|| {
                    corrupt(format!(
                        "row {i} consumes more exceptions than the {} stored",
                        self.exceptions.len()
                    ))
                })?;
                exc += 1;
                u64::from(g)
            } else {
                u64::from(d)
            };
            if col >= self.ncols as u64 {
                return Err(corrupt(format!(
                    "row {i} decodes column {col} >= ncols = {}",
                    self.ncols
                )));
            }
            visit(j, col as usize);
        }
        Ok(exc)
    }

    /// The column stream the kernels' row traversal reads, typed by
    /// the matrix's delta width.
    pub fn columns(&self) -> DeltaColumns<'_> {
        match &self.deltas {
            Deltas::U8(d) => DeltaColumns::U8(self.stream(d)),
            Deltas::U16(d) => DeltaColumns::U16(self.stream(d)),
        }
    }

    fn stream<'a, T>(&'a self, deltas: &'a [T]) -> DeltaStream<'a, T> {
        DeltaStream {
            rowptr: &self.rowptr,
            firstcol: &self.firstcol,
            deltas,
            exceptions: &self.exceptions,
            exc_ptr: &self.exc_ptr,
            sentinel: self.width.sentinel(),
        }
    }
}

impl crate::validate::ValidateFormat for DeltaCsr {
    fn format_name(&self) -> &'static str {
        "delta-csr"
    }

    fn validate_structure(&self) -> Result<()> {
        let corrupt = |detail: String| SparseError::Corrupt { format: "delta-csr", detail };
        crate::validate::check_rowptr("delta-csr", &self.rowptr, self.nrows, self.values.len())?;
        if self.deltas.len() != self.values.len() {
            return Err(corrupt(format!(
                "delta stream length {} != values length {}",
                self.deltas.len(),
                self.values.len()
            )));
        }
        if self.firstcol.len() != self.nrows {
            return Err(corrupt(format!(
                "firstcol length {} != nrows = {}",
                self.firstcol.len(),
                self.nrows
            )));
        }
        if self.exc_ptr.len() != self.nrows + 1 {
            return Err(corrupt(format!(
                "exc_ptr length {} != nrows + 1 = {}",
                self.exc_ptr.len(),
                self.nrows + 1
            )));
        }
        // The full decode replay: every column in bounds, and the
        // exception cursor advancing exactly as `exc_ptr` claims.
        let mut exc = 0;
        for i in 0..self.nrows {
            if self.exc_ptr[i] as usize != exc {
                return Err(corrupt(format!(
                    "exc_ptr[{i}] = {} but {exc} exceptions consumed before row {i}",
                    self.exc_ptr[i]
                )));
            }
            exc = self.decode_row(i, exc, |_, _| ())?;
        }
        if exc != self.exceptions.len() {
            return Err(corrupt(format!(
                "{} exceptions stored but only {exc} consumed by the streams",
                self.exceptions.len()
            )));
        }
        if self.exc_ptr[self.nrows] as usize != exc {
            return Err(corrupt(format!(
                "exc_ptr tail = {} but the streams consume {exc} exceptions",
                self.exc_ptr[self.nrows]
            )));
        }
        Ok(())
    }
}

/// The column stream of a [`DeltaCsr`] ([`DeltaCsr::columns`]), one
/// variant per [`DeltaWidth`], so a traversal matches the width once
/// per call rather than once per nonzero.
#[derive(Debug, Clone, Copy)]
pub enum DeltaColumns<'a> {
    /// 8-bit deltas.
    U8(DeltaStream<'a, u8>),
    /// 16-bit deltas.
    U16(DeltaStream<'a, u16>),
}

/// The columns of a [`DeltaCsr`] with delta words of type `T`, read
/// through two cursors that decode them in place:
/// [`DeltaStream::row_cursor`] along one row and
/// [`DeltaStream::ahead_cursor`] along the flat nonzero stream. Only
/// this module knows the encoding.
#[derive(Debug, Clone, Copy)]
pub struct DeltaStream<'a, T> {
    rowptr: &'a [usize],
    firstcol: &'a [u32],
    deltas: &'a [T],
    exceptions: &'a [u32],
    exc_ptr: &'a [u32],
    sentinel: u32,
}

impl<'a, T: Copy + Into<u32>> DeltaStream<'a, T> {
    /// A cursor over the columns of row `i`, whose first nonzero is
    /// `start`.
    ///
    /// # Safety
    /// The matrix passed validation (the caller holds a
    /// [`crate::Validated`] witness), `i < nrows` and
    /// `start == rowptr[i]`.
    #[inline(always)]
    pub unsafe fn row_cursor(&self, i: usize, start: usize) -> DeltaRow<'a, T> {
        // SAFETY: i < nrows, and a validated matrix has nrows + 1
        // exception pointers, nrows first columns, and
        // rowptr[i] <= nnz == deltas.len().
        unsafe {
            DeltaRow {
                deltas: self.deltas.get_unchecked(start..),
                exceptions: self.exceptions,
                exc: *self.exc_ptr.get_unchecked(i) as usize,
                col: *self.firstcol.get_unchecked(i),
                sentinel: self.sentinel,
            }
        }
    }

    /// A cursor over the flat nonzero stream, positioned so that its
    /// next read is position `pos` (the positions from `rowptr[row]`
    /// up to `pos` are decoded on the way).
    ///
    /// # Safety
    /// The matrix passed validation, `row < nrows` and
    /// `rowptr[row] <= pos <= nnz`.
    #[inline(always)]
    pub unsafe fn ahead_cursor(&self, row: usize, pos: usize) -> DeltaAhead<'a, T> {
        // SAFETY: row < nrows (caller's contract), so row + 1 indexes
        // the validated row pointer.
        let (start, end) =
            unsafe { (*self.rowptr.get_unchecked(row), *self.rowptr.get_unchecked(row + 1)) };
        // SAFETY: forwarded contract.
        let cur = unsafe { self.row_cursor(row, start) };
        let mut ahead = DeltaAhead { stream: *self, cur, row, start, end };
        // SAFETY: the cursor stands at rowptr[row] <= pos <= nnz.
        unsafe { ahead.decode_range(start..pos, |_| ()) };
        ahead
    }
}

/// Cursor over one row's columns ([`DeltaStream::row_cursor`]): the first
/// column comes from `firstcol`, every later one adds the next delta,
/// and a sentinel takes the next exception.
#[derive(Debug, Clone, Copy)]
pub struct DeltaRow<'a, T> {
    /// The delta stream from the row's first slot on.
    deltas: &'a [T],
    exceptions: &'a [u32],
    exc: usize,
    col: u32,
    sentinel: u32,
}

impl<T: Copy + Into<u32>> DeltaRow<'_, T> {
    /// The column of the row's nonzero `k`.
    ///
    /// # Safety
    /// Calls come with `k = 0, 1, 2, …` in turn, each below the row's
    /// length.
    #[inline(always)]
    pub unsafe fn decode_at(&mut self, k: usize) -> usize {
        // SAFETY: k is below the row's length, and the row's slots lie
        // in the validated stream.
        let d: u32 = unsafe { *self.deltas.get_unchecked(k) }.into();
        self.col += if d == self.sentinel {
            // SAFETY: validation replayed this exact decode and proved
            // the exception cursor stays below exceptions.len() for
            // every sentinel consumed.
            let g = unsafe { *self.exceptions.get_unchecked(self.exc) };
            self.exc += 1;
            g
        } else {
            d
        };
        self.col as usize
    }
}

/// Cursor over the flat nonzero stream ([`DeltaStream::ahead_cursor`]):
/// a [`DeltaRow`] that moves on to the next row at each row end.
#[derive(Debug, Clone, Copy)]
pub struct DeltaAhead<'a, T> {
    stream: DeltaStream<'a, T>,
    cur: DeltaRow<'a, T>,
    /// The row `cur` reads, and its nonzeros `start..end`.
    row: usize,
    start: usize,
    end: usize,
}

impl<T: Copy + Into<u32>> DeltaAhead<'_, T> {
    /// Calls `visit` with the column of each nonzero in `range` of the
    /// flat stream, in order.
    ///
    /// # Safety
    /// `range` starts where the cursor stands (its first position, or
    /// the end of the previous range) and ends at most at `nnz`.
    #[inline(always)]
    pub unsafe fn decode_range(
        &mut self,
        range: std::ops::Range<usize>,
        mut visit: impl FnMut(usize),
    ) {
        let mut p = range.start;
        while p < range.end {
            while p == self.end {
                // p < nnz == rowptr[nrows], so a later row holds p.
                self.row += 1;
                self.start = self.end;
                // SAFETY: row < nrows, as just argued.
                unsafe {
                    self.end = *self.stream.rowptr.get_unchecked(self.row + 1);
                    self.cur = self.stream.row_cursor(self.row, self.start);
                }
            }
            let stop = range.end.min(self.end);
            for k in p - self.start..stop - self.start {
                // SAFETY: start <= p <= k < stop <= end, read in order
                // within the row.
                visit(unsafe { self.cur.decode_at(k) });
            }
            p = stop;
        }
    }
}

/// Counts the deltas of `a` that would escape at 8- and 16-bit widths.
pub fn count_escapes(a: &Csr) -> (usize, usize) {
    let mut n8 = 0;
    let mut n16 = 0;
    for (_, cols, _) in a.rows() {
        for w in cols.windows(2) {
            let gap = w[1] - w[0];
            if gap > DeltaWidth::U8.max_inline() {
                n8 += 1;
            }
            if gap > DeltaWidth::U16.max_inline() {
                n16 += 1;
            }
        }
    }
    (n8, n16)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::coo::Coo;
    use crate::validate::ValidateFormat;

    fn banded(n: usize, band: usize) -> Csr {
        let mut coo = Coo::new(n, n).unwrap();
        for i in 0..n {
            for c in i.saturating_sub(band)..(i + band + 1).min(n) {
                coo.push(i, c, (i + c) as f64 + 1.0).unwrap();
            }
        }
        Csr::from_coo(&coo)
    }

    fn scattered(n: usize, stride: usize) -> Csr {
        let mut coo = Coo::new(n, n * stride).unwrap();
        for i in 0..n {
            for k in 0..8.min(n) {
                coo.push(i, k * stride, 1.0 + k as f64).unwrap();
            }
        }
        Csr::from_coo(&coo)
    }

    #[test]
    fn banded_picks_u8_and_roundtrips() {
        let a = banded(64, 2);
        let d = DeltaCsr::from_csr(&a).unwrap();
        assert_eq!(d.width(), DeltaWidth::U8);
        assert_eq!(d.n_exceptions(), 0);
        assert_eq!(d.to_csr().unwrap(), a);
        d.validate_structure().unwrap();
    }

    #[test]
    fn scattered_needs_escapes_or_u16() {
        let a = scattered(16, 1000);
        let d8 = DeltaCsr::with_width(&a, DeltaWidth::U8).unwrap();
        assert!(d8.n_exceptions() > 0);
        assert_eq!(d8.to_csr().unwrap(), a);
        let d16 = DeltaCsr::with_width(&a, DeltaWidth::U16).unwrap();
        assert_eq!(d16.n_exceptions(), 0);
        assert_eq!(d16.to_csr().unwrap(), a);
    }

    #[test]
    fn auto_width_minimizes_footprint() {
        let a = scattered(16, 70000); // gaps exceed u16 as well
        let auto = DeltaCsr::from_csr(&a).unwrap();
        let d8 = DeltaCsr::with_width(&a, DeltaWidth::U8).unwrap();
        let d16 = DeltaCsr::with_width(&a, DeltaWidth::U16).unwrap();
        assert!(auto.footprint_bytes() <= d8.footprint_bytes().min(d16.footprint_bytes()) + 1);
    }

    #[test]
    fn spmv_matches_csr() {
        for a in [banded(50, 3), scattered(20, 700)] {
            let d = DeltaCsr::from_csr(&a).unwrap();
            let x: Vec<f64> = (0..a.ncols()).map(|i| (i % 7) as f64 - 3.0).collect();
            let mut y_ref = vec![0.0; a.nrows()];
            let mut y = vec![0.0; a.nrows()];
            a.spmv(&x, &mut y_ref);
            d.spmv(&x, &mut y);
            for (u, v) in y.iter().zip(&y_ref) {
                assert!((u - v).abs() < 1e-12, "{u} vs {v}");
            }
        }
    }

    #[test]
    fn compression_shrinks_regular_matrices() {
        let a = banded(256, 4);
        let d = DeltaCsr::from_csr(&a).unwrap();
        assert!(d.footprint_bytes() < a.footprint_bytes());
    }

    #[test]
    fn empty_rows_handled() {
        let mut coo = Coo::new(4, 4).unwrap();
        coo.push(0, 3, 2.0).unwrap();
        coo.push(3, 0, 5.0).unwrap();
        let a = Csr::from_coo(&coo);
        let d = DeltaCsr::from_csr(&a).unwrap();
        assert_eq!(d.to_csr().unwrap(), a);
        let mut y = vec![0.0; 4];
        d.spmv(&[1.0, 1.0, 1.0, 1.0], &mut y);
        assert_eq!(y, [2.0, 0.0, 0.0, 5.0]);
    }

    #[test]
    fn exact_boundary_gap_stays_inline() {
        // gap of exactly max_inline must not escape
        let mut coo = Coo::new(1, 300).unwrap();
        coo.push(0, 0, 1.0).unwrap();
        coo.push(0, 254, 1.0).unwrap(); // u8 max_inline = 254
        let a = Csr::from_coo(&coo);
        let d = DeltaCsr::with_width(&a, DeltaWidth::U8).unwrap();
        assert_eq!(d.n_exceptions(), 0);
        let mut coo2 = Coo::new(1, 300).unwrap();
        coo2.push(0, 0, 1.0).unwrap();
        coo2.push(0, 255, 1.0).unwrap(); // gap 255 = sentinel -> escapes
        let a2 = Csr::from_coo(&coo2);
        let d2 = DeltaCsr::with_width(&a2, DeltaWidth::U8).unwrap();
        assert_eq!(d2.n_exceptions(), 1);
        assert_eq!(d2.to_csr().unwrap(), a2);
    }
}

#[cfg(test)]
mod corruption_proptests {
    use super::*;
    use crate::validate::{ValidateFormat, Validated};
    use proptest::prelude::*;

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(48))]

        /// Every corruption of a well-formed delta-CSR buffer is
        /// rejected by the witness constructor with an error — never a
        /// panic (and in particular never an out-of-bounds decode).
        #[test]
        fn corrupted_delta_is_rejected(n in 2usize..40, seed in 0u64..1000, kind in 0usize..4) {
            let a = crate::gen::banded(n, 2, 1.0, seed).expect("generator");
            let mut d = DeltaCsr::from_csr(&a).expect("encodable");
            match kind {
                0 => *d.rowptr.last_mut().unwrap() += 1,
                1 => d.firstcol[0] = d.ncols as u32,
                2 => { d.values.pop(); }
                _ => *d.exc_ptr.last_mut().unwrap() += 1,
            }
            let err = d.validate_structure().expect_err("corruption must be caught");
            prop_assert!(err.to_string().contains("delta"), "got: {err}");
            prop_assert!(Validated::new(&d).is_err());
        }

        /// Wide random matrices exercise the escape path; truncating
        /// the exception stream must be caught by the cursor check.
        #[test]
        fn truncated_exceptions_are_rejected(n in 64usize..200, seed in 0u64..200) {
            let a = crate::gen::random_uniform(n, 12, seed).expect("generator");
            let mut d = DeltaCsr::from_csr(&a).expect("encodable");
            if d.n_exceptions() == 0 {
                // Dense enough not to escape; nothing to truncate.
                return;
            }
            d.exceptions.pop();
            prop_assert!(d.validate_structure().is_err());
        }
    }
}
