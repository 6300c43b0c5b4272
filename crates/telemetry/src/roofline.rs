//! Live roofline-attainment monitor for the serving plane.
//!
//! The tuner classifies every registered matrix against a simulated
//! roofline bound (the best GFLOP/s its memory traffic permits, per
//! the paper's bottleneck taxonomy). This module folds *measured*
//! per-dispatch kernel throughput into a per-matrix EWMA and compares
//! it against that bound, live: the ratio is exported as
//! `spmv_roofline_attainment{matrix}` and a drift counter increments
//! whenever attainment stays below [`DRIFT_THRESHOLD`] for
//! [`DRIFT_WINDOWS`] consecutive [`WINDOW`]-sample windows — the
//! trigger signal a future online re-tuner will consume.
//!
//! The observation path runs on scheduler workers between kernel
//! dispatches, so it follows the same hot-path rules as
//! [`crate::metrics`]: fixed-size atomic slots, no locks, no
//! allocation, no panics. Registration (cold path, once per matrix)
//! claims a slot with a CAS state machine mirroring the trace ring's
//! seqlock claim; matrix names are packed into atomic words with the
//! trace ring's codec.

use std::sync::atomic::{AtomicU64, Ordering};

use crate::trace::{pack_name, unpack_name, NAME_BYTES};

/// Maximum concurrently monitored matrices. Registration past this
/// returns `None` and the matrix simply goes unmonitored (the serving
/// registry holds `&'static` matrices, so slots are never recycled).
pub const MAX_MATRICES: usize = 64;

/// Samples per attainment-evaluation window.
pub const WINDOW: u64 = 32;

/// Attainment below this fraction of the roofline bound counts a
/// window as "low".
pub const DRIFT_THRESHOLD: f64 = 0.5;

/// Consecutive low windows before the drift counter fires.
pub const DRIFT_WINDOWS: u64 = 3;

/// EWMA smoothing factor (weight of the newest sample).
pub const ALPHA: f64 = 0.125;

/// Slot lifecycle states.
const EMPTY: u64 = 0;
const CLAIMING: u64 = 1;
const READY: u64 = 2;

/// Handle to one registered matrix's monitor slot.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RooflineId(usize);

/// One matrix's point-in-time attainment summary.
#[derive(Debug, Clone, PartialEq)]
pub struct RooflineSample {
    /// Matrix name (truncated to [`NAME_BYTES`] at registration).
    pub name: String,
    /// The tuner's simulated roofline bound, GFLOP/s.
    pub bound_gflops: f64,
    /// EWMA of measured kernel throughput, GFLOP/s (`0.0` until the
    /// first dispatch lands).
    pub achieved_gflops: f64,
    /// `achieved / bound` (`0.0` until the first dispatch lands).
    pub attainment: f64,
    /// Dispatches folded into the EWMA so far.
    pub samples: u64,
    /// Drift episodes: times attainment stayed below
    /// [`DRIFT_THRESHOLD`] for [`DRIFT_WINDOWS`] consecutive windows.
    pub drift_total: u64,
}

/// One matrix's monitor state. All cells are independent relaxed
/// atomics except the `state` word, which release-publishes the name
/// and bound to observers.
struct MatrixSlot {
    state: AtomicU64,
    name: [AtomicU64; NAME_BYTES / 8],
    bound_bits: AtomicU64,
    /// EWMA of achieved GFLOP/s as `f64` bits; `0` means "no sample
    /// yet" (observations of non-positive throughput are discarded,
    /// so a real EWMA never encodes to the zero bit pattern).
    ewma_bits: AtomicU64,
    samples: AtomicU64,
    low_streak: AtomicU64,
    drift: AtomicU64,
}

impl MatrixSlot {
    const fn new() -> MatrixSlot {
        MatrixSlot {
            state: AtomicU64::new(EMPTY),
            name: [const { AtomicU64::new(0) }; NAME_BYTES / 8],
            bound_bits: AtomicU64::new(0),
            ewma_bits: AtomicU64::new(0),
            samples: AtomicU64::new(0),
            low_streak: AtomicU64::new(0),
            drift: AtomicU64::new(0),
        }
    }

    /// Reads the packed name; only meaningful once `state == READY`.
    fn name(&self) -> String {
        let mut words = [0u64; NAME_BYTES / 8];
        for (w, cell) in words.iter_mut().zip(self.name.iter()) {
            // relaxed-ok: name words are written once before the
            // slot's release transition to READY and never change;
            // the acquire load of `state` ordered them.
            *w = cell.load(Ordering::Relaxed);
        }
        unpack_name(&words)
    }

    fn sample(&self) -> RooflineSample {
        // relaxed-ok (all loads below): aggregate snapshot of
        // independently advancing cells; cross-cell tears are
        // tolerated exactly as in histogram snapshots.
        let bound = f64::from_bits(self.bound_bits.load(Ordering::Relaxed));
        let ewma_bits = self.ewma_bits.load(Ordering::Relaxed); // relaxed-ok: as above.
        let achieved = if ewma_bits == 0 { 0.0 } else { f64::from_bits(ewma_bits) };
        let attainment = if bound > 0.0 && achieved > 0.0 { achieved / bound } else { 0.0 };
        RooflineSample {
            name: self.name(),
            bound_gflops: bound,
            achieved_gflops: achieved,
            attainment,
            samples: self.samples.load(Ordering::Relaxed), // relaxed-ok: as above.
            drift_total: self.drift.load(Ordering::Relaxed), // relaxed-ok: as above.
        }
    }
}

/// Fixed-capacity per-matrix attainment monitor. Const-constructible
/// so one static instance backs the whole process (see [`monitor`]).
pub struct RooflineMonitor {
    slots: [MatrixSlot; MAX_MATRICES],
}

impl RooflineMonitor {
    /// Creates an empty monitor.
    pub const fn new() -> RooflineMonitor {
        RooflineMonitor { slots: [const { MatrixSlot::new() }; MAX_MATRICES] }
    }

    /// Registers `name` against its simulated roofline `bound`
    /// (GFLOP/s), returning the handle to feed
    /// [`observe`](RooflineMonitor::observe). Re-registering an existing name
    /// updates its bound in place (a re-tuned plan moves the
    /// ceiling) and keeps the accumulated EWMA. Returns `None` when
    /// the bound is not a positive finite number or all
    /// [`MAX_MATRICES`] slots are taken.
    pub fn register(&self, name: &str, bound: f64) -> Option<RooflineId> {
        if !bound.is_finite() || bound <= 0.0 {
            return None;
        }
        // Existing registration: update the bound in place.
        for (i, slot) in self.slots.iter().enumerate() {
            // acquire-ok: pairs with the release transition to READY,
            // ordering the name words before this read of them.
            if slot.state.load(Ordering::Acquire) == READY && slot.name() == name {
                // relaxed-ok: independent cell; readers tolerate the
                // bound moving between snapshots.
                slot.bound_bits.store(bound.to_bits(), Ordering::Relaxed);
                return Some(RooflineId(i));
            }
        }
        // Claim the first empty slot.
        for (i, slot) in self.slots.iter().enumerate() {
            if slot
                .state
                // acquire-ok (success): orders this claim after any
                // previous (failed/reset) writer's stores to the slot.
                // relaxed-ok (failure): a taken slot is simply skipped.
                .compare_exchange(EMPTY, CLAIMING, Ordering::Acquire, Ordering::Relaxed)
                .is_err()
            {
                continue;
            }
            let words = pack_name(name);
            for (cell, w) in slot.name.iter().zip(words.iter()) {
                // relaxed-ok: published by the release store of READY.
                cell.store(*w, Ordering::Relaxed);
            }
            slot.bound_bits.store(bound.to_bits(), Ordering::Relaxed); // relaxed-ok: as above.
                                                                       // release-ok: publishes the name and bound to acquire
                                                                       // readers of `state`.
            slot.state.store(READY, Ordering::Release);
            return Some(RooflineId(i));
        }
        None
    }

    /// Folds one dispatch's measured throughput (GFLOP/s) into the
    /// matrix's EWMA; every [`WINDOW`]-th sample evaluates attainment
    /// against the bound and advances the drift state machine. Runs
    /// on the scheduler worker between dispatches: lock-free,
    /// allocation-free, panic-free. Non-positive or non-finite
    /// throughput (e.g. a timer returning zero) is discarded.
    pub fn observe(&self, id: RooflineId, gflops: f64) {
        if !gflops.is_finite() || gflops <= 0.0 {
            return;
        }
        let Some(slot) = self.slots.get(id.0) else { return };
        // acquire-ok: pairs with the registration's release of READY,
        // ordering the bound read below after its store.
        if slot.state.load(Ordering::Acquire) != READY {
            return;
        }
        // EWMA update via CAS loop: lost races retry on the newest
        // value, so concurrent workers fold in without locking.
        // relaxed-ok: the EWMA cell is independent; observers only
        // ever take aggregate snapshots.
        let mut cur = slot.ewma_bits.load(Ordering::Relaxed);
        loop {
            let next = if cur == 0 {
                gflops
            } else {
                (1.0 - ALPHA) * f64::from_bits(cur) + ALPHA * gflops
            };
            match slot.ewma_bits.compare_exchange_weak(
                cur,
                next.to_bits(),
                // relaxed-ok (both): pure read-modify-write of one
                // independent cell, no payload published through it.
                Ordering::Relaxed,
                Ordering::Relaxed, // relaxed-ok: as above.
            ) {
                Ok(_) => break,
                Err(seen) => cur = seen,
            }
        }
        // relaxed-ok: monotonic counter, aggregate reads.
        let n = slot.samples.fetch_add(1, Ordering::Relaxed) + 1;
        if n % WINDOW != 0 {
            return;
        }
        // Window boundary: evaluate attainment. Racing workers may
        // both evaluate adjacent windows — the streak is advisory
        // (a re-tune trigger), not an exact count, so relaxed
        // read-modify-writes suffice.
        let bound = f64::from_bits(slot.bound_bits.load(Ordering::Relaxed)); // relaxed-ok: as above.
        let ewma_bits = slot.ewma_bits.load(Ordering::Relaxed); // relaxed-ok: as above.
        let ewma = if ewma_bits == 0 { 0.0 } else { f64::from_bits(ewma_bits) };
        if bound > 0.0 && ewma / bound < DRIFT_THRESHOLD {
            // relaxed-ok: advisory streak counter, see above.
            let streak = slot.low_streak.fetch_add(1, Ordering::Relaxed) + 1;
            if streak >= DRIFT_WINDOWS {
                slot.drift.fetch_add(1, Ordering::Relaxed); // relaxed-ok: as above.
                slot.low_streak.store(0, Ordering::Relaxed); // relaxed-ok: as above.
            }
        } else {
            slot.low_streak.store(0, Ordering::Relaxed); // relaxed-ok: as above.
        }
    }

    /// Snapshots every registered matrix, in registration order.
    pub fn snapshot(&self) -> Vec<RooflineSample> {
        self.slots
            .iter()
            // acquire-ok: pairs with registration's release of READY.
            .filter(|s| s.state.load(Ordering::Acquire) == READY)
            .map(MatrixSlot::sample)
            .collect()
    }

    /// Snapshots one matrix by name, if registered.
    pub fn get(&self, name: &str) -> Option<RooflineSample> {
        self.slots
            .iter()
            // acquire-ok: pairs with registration's release of READY.
            .filter(|s| s.state.load(Ordering::Acquire) == READY)
            .find(|s| s.name() == name)
            .map(MatrixSlot::sample)
    }

    /// Clears every slot (tests and bench isolation). Must not race
    /// live observers — callers quiesce the serving plane first.
    /// relaxed-ok (every store below): quiesced single-threaded
    /// reset, nothing is published through these cells.
    pub fn reset(&self) {
        for slot in &self.slots {
            // relaxed-ok (all stores): reset is a test/bench
            // affordance, never raced against production writers.
            slot.bound_bits.store(0, Ordering::Relaxed);
            slot.ewma_bits.store(0, Ordering::Relaxed);
            slot.samples.store(0, Ordering::Relaxed);
            slot.low_streak.store(0, Ordering::Relaxed);
            slot.drift.store(0, Ordering::Relaxed);
            for cell in &slot.name {
                cell.store(0, Ordering::Relaxed);
            }
            slot.state.store(EMPTY, Ordering::Relaxed);
        }
    }
}

impl Default for RooflineMonitor {
    fn default() -> RooflineMonitor {
        RooflineMonitor::new()
    }
}

impl std::fmt::Debug for RooflineMonitor {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("RooflineMonitor").field("matrices", &self.snapshot()).finish()
    }
}

static MONITOR: RooflineMonitor = RooflineMonitor::new();

/// The process-wide roofline monitor, fed by the serving registry
/// (bounds at registration) and the request scheduler (throughput per
/// dispatch), drained by `/metrics` and `/v1/observe`.
pub fn monitor() -> &'static RooflineMonitor {
    &MONITOR
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn register_then_observe_builds_an_ewma() {
        let m = RooflineMonitor::new();
        let id = m.register("banded-2k", 10.0).expect("slot");
        m.observe(id, 4.0);
        let s = m.get("banded-2k").expect("registered");
        assert_eq!(s.bound_gflops, 10.0);
        assert_eq!(s.achieved_gflops, 4.0, "first sample seeds the EWMA");
        assert!((s.attainment - 0.4).abs() < 1e-12);
        assert_eq!(s.samples, 1);
        // Subsequent samples blend with weight ALPHA.
        m.observe(id, 8.0);
        let s = m.get("banded-2k").unwrap();
        let want = (1.0 - ALPHA) * 4.0 + ALPHA * 8.0;
        assert!((s.achieved_gflops - want).abs() < 1e-12);
    }

    #[test]
    fn reregistration_moves_the_bound_and_keeps_the_ewma() {
        let m = RooflineMonitor::new();
        let id = m.register("m", 10.0).unwrap();
        m.observe(id, 5.0);
        let again = m.register("m", 20.0).unwrap();
        assert_eq!(id, again, "same slot");
        let s = m.get("m").unwrap();
        assert_eq!(s.bound_gflops, 20.0);
        assert_eq!(s.achieved_gflops, 5.0);
        assert_eq!(m.snapshot().len(), 1, "no duplicate slot");
    }

    #[test]
    fn drift_counter_fires_after_consecutive_low_windows() {
        let m = RooflineMonitor::new();
        let id = m.register("slow", 100.0).unwrap();
        // Attainment 0.01 — every window is low. The counter fires
        // once per DRIFT_WINDOWS low windows.
        for _ in 0..WINDOW * DRIFT_WINDOWS {
            m.observe(id, 1.0);
        }
        assert_eq!(m.get("slow").unwrap().drift_total, 1);
        for _ in 0..WINDOW * DRIFT_WINDOWS {
            m.observe(id, 1.0);
        }
        assert_eq!(m.get("slow").unwrap().drift_total, 2);
    }

    #[test]
    fn healthy_windows_reset_the_streak() {
        let m = RooflineMonitor::new();
        let id = m.register("ok", 10.0).unwrap();
        // Two low windows, then a healthy one, then two more low:
        // the streak never reaches DRIFT_WINDOWS.
        for _ in 0..WINDOW * 2 {
            m.observe(id, 1.0);
        }
        for _ in 0..WINDOW * 8 {
            m.observe(id, 50.0); // pulls the EWMA well above threshold
        }
        for _ in 0..WINDOW * 2 {
            m.observe(id, 1.0); // EWMA decays but two windows isn't enough
        }
        assert_eq!(m.get("ok").unwrap().drift_total, 0);
    }

    #[test]
    fn bad_inputs_are_discarded() {
        let m = RooflineMonitor::new();
        assert!(m.register("x", 0.0).is_none());
        assert!(m.register("x", f64::NAN).is_none());
        let id = m.register("x", 10.0).unwrap();
        m.observe(id, 0.0);
        m.observe(id, -3.0);
        m.observe(id, f64::INFINITY);
        assert_eq!(m.get("x").unwrap().samples, 0);
    }

    #[test]
    fn capacity_exhaustion_returns_none() {
        let m = RooflineMonitor::new();
        for i in 0..MAX_MATRICES {
            assert!(m.register(&format!("m{i}"), 1.0).is_some());
        }
        assert!(m.register("overflow", 1.0).is_none());
        m.reset();
        assert!(m.register("overflow", 1.0).is_some(), "reset frees slots");
        assert_eq!(m.snapshot().len(), 1);
    }

    #[test]
    fn snapshot_lists_all_registered_matrices() {
        let m = RooflineMonitor::new();
        m.register("a", 1.0).unwrap();
        m.register("b", 2.0).unwrap();
        let names: Vec<String> = m.snapshot().into_iter().map(|s| s.name).collect();
        assert_eq!(names, ["a", "b"]);
    }
}
