//! Row scheduling policies and per-thread timing types.
//!
//! The paper's baseline uses *static one-dimensional row partitioning
//! with approximately equal nonzeros per thread*; the `IMB`-class
//! `auto` scheduling optimization delegates the mapping to the
//! runtime, which we model with dynamic (chunked work-stealing-style)
//! and guided policies. Every policy reports per-thread busy times,
//! the raw data behind the paper's `P_IMB = 2·NNZ / t_median` bound.
//!
//! Execution itself lives in [`crate::engine`]: a [`Plan`] binds a
//! schedule to a precomputed partition and a persistent worker pool.
//! The free function [`execute`] is the convenience front-end that
//! builds a throwaway plan per call.

use std::ops::Range;
use std::sync::atomic::{AtomicUsize, Ordering};

use crate::engine::Plan;

/// Row-to-thread scheduling policy.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Schedule {
    /// Contiguous blocks with equal numbers of rows.
    StaticRows,
    /// Contiguous blocks with approximately equal numbers of
    /// nonzeros (the paper's baseline).
    NnzBalanced,
    /// Threads claim fixed-size row chunks from a shared counter
    /// (OpenMP `schedule(dynamic, chunk)` analogue).
    Dynamic {
        /// Rows per claimed chunk.
        chunk: usize,
    },
    /// Threads claim chunks whose size decays with the remaining work
    /// (OpenMP `schedule(guided)` analogue; our stand-in for the
    /// paper's `auto`). Each claim takes
    /// `remaining / (GUIDED_DECAY × nthreads)` rows (at least one) —
    /// see [`GUIDED_DECAY`].
    Guided,
}

/// Decay denominator of the guided schedule: a claim takes
/// `remaining / (GUIDED_DECAY × nthreads)` rows, clamped to at least
/// one. `2` halves the per-claim share relative to an even split of
/// the remaining rows, the classic guided-self-scheduling choice.
pub const GUIDED_DECAY: usize = 2;

/// Atomically claims the next guided chunk from `next`, or `None`
/// once `nrows` is exhausted. Chunk sizes follow the [`GUIDED_DECAY`]
/// rule; the single `fetch_update` replaces the manual
/// load/compare-exchange spin this crate used to carry.
pub(crate) fn claim_guided(
    next: &AtomicUsize,
    nrows: usize,
    nthreads: usize,
) -> Option<Range<usize>> {
    let take = |start: usize| ((nrows - start) / (GUIDED_DECAY * nthreads)).max(1);
    // relaxed-ok: the claim counter is not part of the engine's
    // dispatch handshake (that protocol is mutex-guarded); the claim
    // only needs the atomicity of the fetch_update itself.
    next.fetch_update(Ordering::Relaxed, Ordering::Relaxed, |start| {
        (start < nrows).then(|| start + take(start))
    })
    .ok()
    .map(|start| start..(start + take(start)).min(nrows))
}

/// Per-thread busy times of one parallel SpMV execution.
#[derive(Debug, Clone, PartialEq)]
pub struct ThreadTimes {
    /// Seconds each thread spent computing (index = thread id).
    pub seconds: Vec<f64>,
}

impl ThreadTimes {
    /// Longest thread time — the parallel makespan.
    pub fn max(&self) -> f64 {
        self.seconds.iter().copied().fold(0.0, f64::max)
    }

    /// Median thread time, the denominator of the paper's `P_IMB`
    /// bound ("we use the median instead of the mean, as we require
    /// reduced importance to be attached to outliers").
    ///
    /// Delegates to [`spmv_telemetry::median`] — the one shared
    /// implementation behind measured and simulated `P_IMB`, so the
    /// two can never drift.
    pub fn median(&self) -> f64 {
        spmv_telemetry::median(&self.seconds)
    }

    /// Imbalance ratio `max / median` (1.0 = perfectly balanced).
    pub fn imbalance(&self) -> f64 {
        spmv_telemetry::imbalance(&self.seconds)
    }
}

/// Shared mutable output vector handed to worker threads.
///
/// # Safety contract
/// Workers obtained from a [`Plan`] (or [`execute`]) receive disjoint
/// row ranges, and a [`crate::dense`] pass hands each chunk to exactly
/// one worker, so every `y[i]` is written by exactly one worker. The
/// pointer is only dereferenced while the engine's dispatching caller
/// is blocked inside the run — which is exactly the window during
/// which the exclusive borrow of `y` is alive. Pool workers never
/// retain the pointer across dispatches.
#[derive(Clone, Copy)]
pub struct YPtr(pub *mut f64);

// SAFETY: see the struct-level contract — ranges are disjoint and the
// pointee outlives the dispatch.
unsafe impl Send for YPtr {}
// SAFETY: shared references to a YPtr only copy the pointer; writes go
// through the `unsafe` methods whose contracts (disjoint ranges, live
// buffer) make concurrent use sound.
unsafe impl Sync for YPtr {}

impl YPtr {
    /// Writes `value` to `y[i]`.
    ///
    /// # Safety
    /// `i` must be in bounds and owned (exclusively) by the calling
    /// worker for the duration of the dispatch.
    #[inline(always)]
    pub unsafe fn write(self, i: usize, value: f64) {
        // SAFETY: forwarded contract from the caller.
        unsafe { *self.0.add(i) = value };
    }

    /// Reconstructs the exclusive sub-slice `[start, start + len)`.
    ///
    /// witness-ok: the bounds come from the [`Plan`]'s partition of
    /// `rowptr` (disjoint per-worker ranges by construction), not
    /// from matrix validation — there is no `Validated` witness to
    /// thread through here.
    ///
    /// # Safety
    /// The range must be in bounds, disjoint from every other
    /// worker's range, and the buffer must outlive the dispatch.
    #[inline(always)]
    pub unsafe fn subslice<'s>(self, start: usize, len: usize) -> &'s mut [f64] {
        // SAFETY: forwarded contract from the caller.
        unsafe { std::slice::from_raw_parts_mut(self.0.add(start), len) }
    }
}

/// Executes `worker(range)` over `0..nrows` split according to
/// `schedule`, on the persistent worker pool for `nthreads`, and
/// returns per-thread busy times.
///
/// This builds a throwaway [`Plan`] per call (recomputing any static
/// partition). Kernels that run repeatedly hold their own `Plan`
/// instead, which is the whole point of the engine; use this
/// front-end for one-shot executions.
///
/// `worker` must tolerate being called with any sub-range of
/// `0..nrows` and must only touch state it owns for that range.
pub fn execute<F>(schedule: Schedule, rowptr: &[usize], nthreads: usize, worker: F) -> ThreadTimes
where
    F: Fn(Range<usize>) + Sync,
{
    Plan::new(schedule, rowptr, nthreads).execute(worker)
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Mutex;

    fn uniform_rowptr(nrows: usize, per_row: usize) -> Vec<usize> {
        (0..=nrows).map(|i| i * per_row).collect()
    }

    /// Runs a schedule and checks every row is visited exactly once.
    fn check_coverage(schedule: Schedule, nrows: usize, nthreads: usize) {
        let rowptr = uniform_rowptr(nrows, 3);
        let visits = Mutex::new(vec![0u32; nrows]);
        let times = execute(schedule, &rowptr, nthreads, |range: Range<usize>| {
            let mut v = visits.lock().unwrap();
            for i in range {
                v[i] += 1;
            }
        });
        let v = visits.into_inner().unwrap();
        assert!(v.iter().all(|&c| c == 1), "{schedule:?}: rows missed or repeated");
        assert_eq!(times.seconds.len(), nthreads);
    }

    #[test]
    fn all_schedules_cover_all_rows() {
        for schedule in [
            Schedule::StaticRows,
            Schedule::NnzBalanced,
            Schedule::Dynamic { chunk: 7 },
            Schedule::Guided,
        ] {
            check_coverage(schedule, 1000, 4);
            check_coverage(schedule, 13, 8); // more threads than chunks
            check_coverage(schedule, 1, 3);
        }
    }

    #[test]
    fn nnz_balanced_splits_skewed_work() {
        // One giant row then tiny rows.
        let mut rowptr = vec![0usize, 1000];
        for i in 1..100 {
            rowptr.push(1000 + i);
        }
        let boundaries = Mutex::new(Vec::new());
        execute(Schedule::NnzBalanced, &rowptr, 4, |range| {
            boundaries.lock().unwrap().push(range);
        });
        let b = boundaries.into_inner().unwrap();
        // First partition should contain just the giant row.
        let first = b.iter().find(|r| r.start == 0).unwrap().clone();
        assert_eq!(first, 0..1);
    }

    #[test]
    fn thread_times_statistics() {
        let t = ThreadTimes { seconds: vec![1.0, 2.0, 3.0, 10.0] };
        assert_eq!(t.max(), 10.0);
        assert_eq!(t.median(), 2.5);
        assert_eq!(t.imbalance(), 4.0);
        let balanced = ThreadTimes { seconds: vec![2.0, 2.0, 2.0] };
        assert_eq!(balanced.imbalance(), 1.0);
    }

    #[test]
    fn empty_thread_times() {
        let t = ThreadTimes { seconds: vec![] };
        assert_eq!(t.median(), 0.0);
        assert_eq!(t.imbalance(), 1.0);
    }

    #[test]
    fn guided_chunks_decay() {
        let rowptr = uniform_rowptr(10_000, 1);
        let sizes = Mutex::new(Vec::new());
        execute(Schedule::Guided, &rowptr, 4, |range| {
            sizes.lock().unwrap().push(range.len());
        });
        let s = sizes.into_inner().unwrap();
        let first_max = *s.iter().max().unwrap();
        let last = *s.last().unwrap();
        assert!(first_max > last, "guided should start big and end small");
        assert_eq!(s.iter().sum::<usize>(), 10_000);
    }

    #[test]
    fn guided_claim_sizes_follow_the_decay_rule() {
        // Claimed serially (one "thread" draining the counter), the
        // sizes are exactly remaining / (GUIDED_DECAY * nthreads),
        // floored at 1, until exhaustion.
        let next = AtomicUsize::new(0);
        let nrows = 1000;
        let nthreads = 4;
        let mut expected_start = 0;
        while let Some(r) = claim_guided(&next, nrows, nthreads) {
            assert_eq!(r.start, expected_start);
            let want = ((nrows - r.start) / (GUIDED_DECAY * nthreads)).max(1);
            assert_eq!(r.len(), want.min(nrows - r.start));
            expected_start = r.end;
        }
        assert_eq!(expected_start, nrows);
        // Counter stays exhausted: further claims return None.
        assert!(claim_guided(&next, nrows, nthreads).is_none());
    }
}
