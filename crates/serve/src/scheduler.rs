//! Request scheduler: admission control, bounded-queue backpressure
//! and same-matrix batching over the shared execution engine.
//!
//! The scheduler is a classic bounded producer/consumer handshake —
//! the exact protocol model-checked as the `admission` protocol in
//! `crates/check` (see `crates/check/src/models/admission.rs`), with
//! the same structure: admission decided under the queue mutex,
//! results published *before* the completion flag, completion
//! signalled under the mutex so no wakeup is lost.
//!
//! * **Admission**: [`Scheduler::submit`] accepts a request only
//!   while the queue holds fewer than `queue_cap` pending jobs;
//!   beyond that it fails fast with [`SubmitError::QueueFull`]
//!   (surfaced as HTTP 503) instead of queueing unboundedly — the
//!   service degrades by shedding load, not by growing latency
//!   without bound. Rejections are counted in
//!   `spmv_serve_rejected_total`.
//! * **Batching**: the worker drains up to `batch_max` *same-matrix*
//!   jobs per dispatch and runs them as one batch on the matrix's
//!   exact kernel ([`CsrKernel::run_multi`]), streaming the matrix
//!   once for the whole batch. Batches form opportunistically from
//!   whatever is queued — an idle service batches nothing (no added
//!   latency), a loaded service batches aggressively (amortized
//!   bandwidth). Because the exact kernel uses scalar accumulation
//!   order, batch membership never changes results: every vector is
//!   bitwise-identical to the serial reference.
//! * **Threading**: the scheduler creates no threads. The daemon
//!   donates one `ExecEngine` lane to [`Scheduler::worker_loop`];
//!   kernel dispatches nest onto the process-global engine pools.
//!
//! # Request-scoped observability
//!
//! Every admitted request gets a process-unique **RequestId** and a
//! causal span timeline in the trace ring —
//! `admitted → queued → batched → dispatched → kernel → responded` —
//! rendered as a per-request track in the Chrome-trace export. The
//! lifecycle invariant (every admitted request's spans close exactly
//! once, in order, even when the kernel panics) is model-checked as
//! the `lifecycle` protocol in `crates/check`. The completion path
//! also attaches the RequestId and its queue/kernel breakdown as the
//! latency histogram bucket's exemplar, folds the dispatch's measured
//! GFLOP/s into the matrix's roofline-attainment EWMA, and keeps a
//! bounded ring of recent [`Observation`]s per matrix for
//! `GET /v1/observe/{name}`.
//!
//! [`CsrKernel::run_multi`]: spmv_kernels::baseline::CsrKernel::run_multi

use std::collections::{HashMap, VecDeque};
use std::fmt;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Condvar, Mutex};
use std::time::Instant;

use spmv_kernels::engine::with_dispatch_tag;
use spmv_telemetry::{serve_latency, serve_stats, tracer, EventKind};

use crate::registry::{Mode, RegisteredMatrix};

/// Default bound on queued-but-unserved requests.
pub const DEFAULT_QUEUE_CAP: usize = 256;

/// Recent observations kept per matrix for `/v1/observe`.
const OBSERVATION_CAP: usize = 32;

/// Process-unique request identifiers, starting at 1 so `0` can mean
/// "no request" in the engine's dispatch-tag context.
static NEXT_RID: AtomicU64 = AtomicU64::new(1);

/// Converts span seconds to trace nanoseconds; at least 1 so a
/// completed stage never renders as empty.
fn span_ns(seconds: f64) -> u64 {
    ((seconds * 1e9) as u64).max(1)
}

/// One admitted, not-yet-completed request.
struct Pending {
    matrix: Arc<RegisteredMatrix>,
    mode: Mode,
    x: Vec<f64>,
    enqueued: Instant,
    /// RequestId: allocated at admission, propagated through batch
    /// formation, kernel dispatch and response write.
    rid: u64,
    /// Trace-clock timestamp of admission (`0` when the tracer was
    /// disabled at admission; stage events then anchor at pop time).
    admit_ns: u64,
    done: Arc<Completion>,
}

/// The per-request completion cell the submitter blocks on. `Err`
/// means the kernel dispatch panicked (surfaced as
/// [`SubmitError::KernelFailed`]).
struct Completion {
    slot: Mutex<Option<Result<Vec<f64>, ()>>>,
    ready: Condvar,
}

struct SchedState {
    queue: VecDeque<Pending>,
    shutdown: bool,
}

/// One completed request's stage breakdown, kept in a bounded
/// per-matrix ring for `GET /v1/observe/{name}` and the load
/// generator's `--trace-sample` report.
#[derive(Debug, Clone, PartialEq)]
pub struct Observation {
    /// The request's process-unique id.
    pub rid: u64,
    /// Batch width the request was coalesced into (1 = solo).
    pub batch: usize,
    /// Admission → batch-pop wait.
    pub queue_seconds: f64,
    /// Kernel busy seconds (slowest thread of the dispatch).
    pub kernel_seconds: f64,
    /// Admission → response delivery.
    pub total_seconds: f64,
    /// Measured dispatch throughput fed to the roofline monitor.
    pub gflops: f64,
    /// Whether a result (vs. a kernel failure) was delivered.
    pub ok: bool,
}

/// Why a submission was refused.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SubmitError {
    /// The bounded queue is at capacity — shed load (HTTP 503).
    QueueFull,
    /// The scheduler is draining for shutdown.
    ShuttingDown,
    /// The kernel dispatch panicked; the request got no result
    /// (HTTP 500). The scheduler worker survives.
    KernelFailed,
}

impl fmt::Display for SubmitError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SubmitError::QueueFull => write!(f, "request queue full"),
            SubmitError::ShuttingDown => write!(f, "scheduler shutting down"),
            SubmitError::KernelFailed => write!(f, "kernel dispatch failed"),
        }
    }
}

/// The admission-controlled, batching request scheduler.
pub struct Scheduler {
    state: Mutex<SchedState>,
    work: Condvar,
    queue_cap: usize,
    batch_max: usize,
    /// Recent completed-request breakdowns per matrix name (bounded
    /// ring, newest last). Touched once per completion — off the
    /// kernel dispatch path.
    observations: Mutex<HashMap<String, VecDeque<Observation>>>,
}

impl Scheduler {
    /// Creates a scheduler admitting at most `queue_cap` queued
    /// requests and coalescing at most `batch_max` per dispatch.
    pub fn new(queue_cap: usize, batch_max: usize) -> Scheduler {
        Scheduler {
            state: Mutex::new(SchedState { queue: VecDeque::new(), shutdown: false }),
            work: Condvar::new(),
            queue_cap: queue_cap.max(1),
            batch_max: batch_max.max(1),
            observations: Mutex::new(HashMap::new()),
        }
    }

    /// A scheduler that rejects every submission (capacity 0) — the
    /// backpressure path in isolation, used by tests.
    pub fn rejecting() -> Scheduler {
        let mut s = Scheduler::new(1, 1);
        s.queue_cap = 0;
        s
    }

    /// Queued-but-unserved request count.
    pub fn queue_depth(&self) -> usize {
        self.lock().queue.len()
    }

    /// Submits one request and blocks until its result is delivered
    /// by a worker; returns the allocated RequestId alongside the
    /// result. Admission is decided immediately: a full queue or a
    /// draining scheduler fails fast instead of blocking.
    pub fn submit(
        &self,
        matrix: Arc<RegisteredMatrix>,
        mode: Mode,
        x: Vec<f64>,
    ) -> Result<(u64, Vec<f64>), SubmitError> {
        assert_eq!(x.len(), matrix.ncols(), "request vector length");
        let done = Arc::new(Completion { slot: Mutex::new(None), ready: Condvar::new() });
        let trace = tracer();
        let rid = NEXT_RID.fetch_add(1, Ordering::Relaxed); // relaxed-ok: unique-id counter.
        let admit_ns = if trace.enabled() { trace.now_ns() } else { 0 };
        {
            let mut state = self.lock();
            if state.shutdown {
                serve_stats().reject();
                return Err(SubmitError::ShuttingDown);
            }
            if state.queue.len() >= self.queue_cap {
                serve_stats().reject();
                return Err(SubmitError::QueueFull);
            }
            state.queue.push_back(Pending {
                matrix,
                mode,
                x,
                enqueued: Instant::now(),
                rid,
                admit_ns,
                done: Arc::clone(&done),
            });
            serve_stats().admit();
            // First lifecycle stage, emitted while still holding the
            // queue lock: the worker pops under this same mutex, so
            // `admitted` is ordered before the stages it emits — the
            // `admitted-after-unlock` mutant of the `lifecycle`
            // protocol shows the race this placement prevents.
            // (record() is lock-free and allocation-free, so the
            // critical section grows by a few atomic stores.)
            if admit_ns != 0 {
                trace.record(EventKind::Stage, 0, "admitted", admit_ns, 1, rid);
            }
            self.work.notify_one();
        }
        let mut slot = done.slot.lock().unwrap_or_else(|p| p.into_inner());
        loop {
            if let Some(result) = slot.take() {
                return match result {
                    Ok(y) => Ok((rid, y)),
                    Err(()) => Err(SubmitError::KernelFailed),
                };
            }
            slot = done.ready.wait(slot).unwrap_or_else(|p| p.into_inner());
        }
    }

    /// The worker loop one engine lane donates itself to: drain
    /// batches until [`shutdown`](Scheduler::shutdown) is called and
    /// the queue is empty. Multiple lanes may run this concurrently.
    pub fn worker_loop(&self) {
        loop {
            let batch = {
                let mut state = self.lock();
                loop {
                    if !state.queue.is_empty() {
                        break pop_batch(&mut state.queue, self.batch_max);
                    }
                    if state.shutdown {
                        return;
                    }
                    state = self.work.wait(state).unwrap_or_else(|p| p.into_inner());
                }
            };
            self.execute(batch);
        }
    }

    /// Marks the scheduler as draining: pending requests still
    /// complete, new submissions are rejected, workers exit once the
    /// queue is empty. Idempotent.
    pub fn shutdown(&self) {
        self.lock().shutdown = true;
        self.work.notify_all();
    }

    /// Recent completed-request breakdowns for `name`, oldest first
    /// (empty when the matrix has served nothing recently).
    pub fn observations(&self, name: &str) -> Vec<Observation> {
        self.observations
            .lock()
            .unwrap_or_else(|p| p.into_inner())
            .get(name)
            .map(|ring| ring.iter().cloned().collect())
            .unwrap_or_default()
    }

    /// Executes one batch and delivers every result: single requests
    /// on the mode's SpMV kernel, true batches on the SpMM kernel
    /// (one matrix traversal for the whole batch). A panicking kernel
    /// is caught: the batch's requests get [`SubmitError::KernelFailed`]
    /// and the worker survives — with the lifecycle stages still
    /// closed, so timelines never dangle.
    fn execute(&self, batch: Vec<Pending>) {
        let k = batch.len();
        let trace = tracer();
        let pop_ns = if trace.enabled() { trace.now_ns() } else { 0 };
        let t_pop = Instant::now();
        if pop_ns != 0 {
            for job in &batch {
                // `queued` spans admission → batch formation; when
                // the tracer was off at admission, anchor at pop.
                let from = if job.admit_ns != 0 { job.admit_ns } else { pop_ns };
                trace.record(
                    EventKind::Stage,
                    0,
                    "queued",
                    from,
                    pop_ns.saturating_sub(from).max(1),
                    job.rid,
                );
                trace.record(EventKind::Stage, 0, "batched", pop_ns, 1, job.rid);
            }
        }
        let queue_secs: Vec<f64> =
            batch.iter().map(|j| t_pop.duration_since(j.enqueued).as_secs_f64()).collect();
        let matrix = Arc::clone(&batch[0].matrix);
        let lead_rid = batch[0].rid;
        let t_dispatch = Instant::now();
        // The engine's dispatch-tag context stamps the kernel's
        // caller-side Task/Dispatch trace events with the (lead)
        // RequestId, linking the engine timeline to this request.
        let outcome = catch_unwind(AssertUnwindSafe(|| {
            with_dispatch_tag(lead_rid, || {
                if k == 1 {
                    let job = &batch[0];
                    let (y, secs) = job.matrix.spmv_timed(&job.x, job.mode);
                    (vec![y], secs)
                } else {
                    let xs: Vec<&[f64]> = batch.iter().map(|job| job.x.as_slice()).collect();
                    matrix.spmm_multi_timed(&xs)
                }
            })
        }));
        let dispatch_secs = t_dispatch.elapsed().as_secs_f64();
        let (results, kernel_secs) = match outcome {
            Ok((ys, secs)) => (Some(ys), secs),
            // The panic payload was already reported by the default
            // panic hook; the scheduler degrades this batch to
            // KernelFailed rather than dying.
            Err(_) => (None, dispatch_secs),
        };
        if pop_ns != 0 {
            for job in &batch {
                trace.record(
                    EventKind::Stage,
                    0,
                    "dispatched",
                    pop_ns,
                    span_ns(dispatch_secs),
                    job.rid,
                );
                trace.record(EventKind::Stage, 0, "kernel", pop_ns, span_ns(kernel_secs), job.rid);
            }
        }
        let gflops = if results.is_some() && kernel_secs > 0.0 {
            2.0 * matrix.nnz() as f64 * k as f64 / kernel_secs / 1e9
        } else {
            0.0
        };
        if results.is_some() {
            if k > 1 {
                serve_stats().batch(k as u64);
            }
            matrix.observe_gflops(gflops);
        }
        match results {
            Some(ys) => {
                for ((job, y), queue) in batch.into_iter().zip(ys).zip(queue_secs) {
                    self.deliver(job, Ok(y), queue, kernel_secs, k, gflops);
                }
            }
            None => {
                for (job, queue) in batch.into_iter().zip(queue_secs) {
                    self.deliver(job, Err(()), queue, kernel_secs, k, gflops);
                }
            }
        }
    }

    /// Publishes one result and wakes its submitter. The result is
    /// stored before the wakeup, under the completion mutex — the
    /// ordering obligation mutated (and caught) by the `admission`
    /// protocol's `complete-before-result` mutant. Also the request's
    /// observability sink: final `responded` stage, histogram sample
    /// with exemplar, and the per-matrix observation ring.
    fn deliver(
        &self,
        job: Pending,
        y: Result<Vec<f64>, ()>,
        queue_seconds: f64,
        kernel_seconds: f64,
        batch: usize,
        gflops: f64,
    ) {
        let total_seconds = job.enqueued.elapsed().as_secs_f64();
        let ok = y.is_ok();
        if ok {
            serve_latency().observe_with_exemplar(
                total_seconds,
                job.rid,
                span_ns(queue_seconds),
                span_ns(kernel_seconds),
            );
            serve_stats().complete();
        } else {
            serve_stats().fail();
        }
        let trace = tracer();
        if trace.enabled() {
            trace.record(EventKind::Stage, 0, "responded", trace.now_ns(), 1, job.rid);
        }
        {
            let mut obs = self.observations.lock().unwrap_or_else(|p| p.into_inner());
            let ring = obs.entry(job.matrix.name().to_string()).or_default();
            if ring.len() >= OBSERVATION_CAP {
                ring.pop_front();
            }
            ring.push_back(Observation {
                rid: job.rid,
                batch,
                queue_seconds,
                kernel_seconds,
                total_seconds,
                gflops,
                ok,
            });
        }
        let mut slot = job.done.slot.lock().unwrap_or_else(|p| p.into_inner());
        *slot = Some(y);
        job.done.ready.notify_all();
    }

    fn lock(&self) -> std::sync::MutexGuard<'_, SchedState> {
        self.state.lock().unwrap_or_else(|p| p.into_inner())
    }
}

/// Pops the front request plus up to `batch_max - 1` later requests
/// against the *same matrix*, preserving the relative order of
/// everything left behind. Mode is ignored for membership: the batch
/// kernel's scalar order satisfies both modes' reproducibility
/// contracts.
fn pop_batch(queue: &mut VecDeque<Pending>, batch_max: usize) -> Vec<Pending> {
    let first = queue.pop_front().expect("pop_batch on empty queue");
    let mut batch = vec![first];
    let mut rest = VecDeque::with_capacity(queue.len());
    while let Some(p) = queue.pop_front() {
        if batch.len() < batch_max && Arc::ptr_eq(&p.matrix, &batch[0].matrix) {
            batch.push(p);
        } else {
            rest.push_back(p);
        }
    }
    *queue = rest;
    batch
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::registry::MatrixRegistry;
    use spmv_sparse::{gen, Csr};

    fn two_matrices() -> (Arc<RegisteredMatrix>, Arc<RegisteredMatrix>) {
        let reg = MatrixRegistry::new(2, 1);
        let a = reg.register("sched-a", gen::banded(120, 3, 0.9, 1).unwrap()).unwrap();
        let b = reg.register("sched-b", Csr::identity(50)).unwrap();
        (a, b)
    }

    fn pending(m: &Arc<RegisteredMatrix>, tag: f64) -> Pending {
        Pending {
            matrix: Arc::clone(m),
            mode: Mode::Exact,
            x: vec![tag; m.ncols()],
            enqueued: Instant::now(),
            rid: NEXT_RID.fetch_add(1, Ordering::Relaxed),
            admit_ns: 0,
            done: Arc::new(Completion { slot: Mutex::new(None), ready: Condvar::new() }),
        }
    }

    #[test]
    fn pop_batch_coalesces_same_matrix_preserving_order() {
        let (a, b) = two_matrices();
        let mut q = VecDeque::from([
            pending(&a, 1.0),
            pending(&b, 2.0),
            pending(&a, 3.0),
            pending(&a, 4.0),
            pending(&b, 5.0),
        ]);
        let batch = pop_batch(&mut q, 8);
        // Front job's matrix (a) plus the two later a-jobs.
        assert_eq!(batch.len(), 3);
        assert!(batch.iter().all(|p| Arc::ptr_eq(&p.matrix, &a)));
        assert_eq!(batch.iter().map(|p| p.x[0]).collect::<Vec<_>>(), [1.0, 3.0, 4.0]);
        // The b jobs stay queued in their original order.
        assert_eq!(q.len(), 2);
        assert_eq!(q.iter().map(|p| p.x[0]).collect::<Vec<_>>(), [2.0, 5.0]);
    }

    #[test]
    fn pop_batch_respects_batch_max() {
        let (a, _) = two_matrices();
        let mut q: VecDeque<Pending> = (0..6).map(|i| pending(&a, i as f64)).collect();
        let batch = pop_batch(&mut q, 4);
        assert_eq!(batch.len(), 4);
        assert_eq!(q.len(), 2);
        assert_eq!(q.iter().map(|p| p.x[0]).collect::<Vec<_>>(), [4.0, 5.0]);
    }

    #[test]
    fn execute_batch_delivers_bitwise_serial_results() {
        let (a, _) = two_matrices();
        let s = Scheduler::new(8, 8);
        let jobs: Vec<Pending> = (0..3).map(|i| pending(&a, (i + 1) as f64 * 0.5)).collect();
        let cells: Vec<Arc<Completion>> = jobs.iter().map(|j| Arc::clone(&j.done)).collect();
        let xs: Vec<Vec<f64>> = jobs.iter().map(|j| j.x.clone()).collect();
        s.execute(jobs);
        for (cell, x) in cells.iter().zip(&xs) {
            let y = cell
                .slot
                .lock()
                .unwrap()
                .take()
                .expect("result delivered")
                .expect("kernel succeeded");
            let mut y_ref = vec![0.0; a.nrows()];
            a.csr().spmv(x, &mut y_ref);
            for (got, want) in y.iter().zip(&y_ref) {
                assert_eq!(got.to_bits(), want.to_bits());
            }
        }
    }

    #[test]
    fn execute_records_observations_with_unique_rids() {
        let (a, _) = two_matrices();
        let s = Scheduler::new(8, 8);
        let jobs: Vec<Pending> = (0..3).map(|i| pending(&a, i as f64)).collect();
        let rids: Vec<u64> = jobs.iter().map(|j| j.rid).collect();
        s.execute(jobs);
        let obs = s.observations("sched-a");
        assert_eq!(obs.len(), 3);
        assert_eq!(obs.iter().map(|o| o.rid).collect::<Vec<_>>(), rids);
        for o in &obs {
            assert!(o.ok);
            assert_eq!(o.batch, 3);
            assert!(o.kernel_seconds > 0.0);
            assert!(o.total_seconds >= o.kernel_seconds);
            assert!(o.gflops > 0.0, "measured throughput feeds the roofline monitor");
        }
        assert!(s.observations("sched-b").is_empty());
        // The ring is bounded: many more completions keep only the
        // newest OBSERVATION_CAP.
        for _ in 0..OBSERVATION_CAP + 5 {
            s.execute(vec![pending(&a, 1.0)]);
        }
        assert_eq!(s.observations("sched-a").len(), OBSERVATION_CAP);
    }

    #[test]
    fn rejecting_scheduler_sheds_load() {
        let (a, _) = two_matrices();
        let s = Scheduler::rejecting();
        let before = serve_stats().rejected();
        let err = s.submit(Arc::clone(&a), Mode::Exact, vec![0.0; a.ncols()]).unwrap_err();
        assert_eq!(err, SubmitError::QueueFull);
        assert!(serve_stats().rejected() > before);
    }

    #[test]
    fn shutdown_rejects_new_submissions() {
        let (a, _) = two_matrices();
        let s = Scheduler::new(4, 2);
        s.shutdown();
        let err = s.submit(Arc::clone(&a), Mode::Exact, vec![0.0; a.ncols()]).unwrap_err();
        assert_eq!(err, SubmitError::ShuttingDown);
        // Worker loop on a shut-down empty scheduler returns at once.
        s.worker_loop();
    }
}
