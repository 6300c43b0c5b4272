//! Matrix registry: the tune-once/serve-many half of the serving
//! plane.
//!
//! Registration is the expensive, once-per-matrix path: the uploaded
//! matrix is structurally validated (the same [`Validated`] witness
//! the kernels' unchecked fast paths demand), handed to the PR 6 menu
//! search for a tuned kernel selection, and lowered onto two
//! long-lived kernel objects — an **exact** kernel (scalar
//! accumulation order, bitwise-identical to the serial reference at
//! any thread count), which also runs every batch the scheduler
//! coalesces same-matrix requests into, and the **tuned** menu winner
//! (throughput path, tolerance-level reproducibility). Serving then
//! costs one kernel dispatch per request (or per batch), which
//! is what amortizes the tuning investment across request volume —
//! the economics of Elafrou's lightweight selection method applied at
//! the service layer.
//!
//! Registered matrices are pinned for the process lifetime (the CSR
//! storage is leaked to `'static` so kernel plans, which borrow it,
//! can live inside shared `Arc`s with no self-referential types and
//! no unsafe code). Deregistration/eviction is an explicit non-goal
//! of this PR — a registry restart is a process restart, which is the
//! operational model of the daemon anyway. ROADMAP tracks dynamic
//! matrix lifecycles.

use std::collections::HashMap;
use std::fmt;
use std::sync::{Arc, Mutex};

use spmv_kernels::baseline::{CsrKernel, InnerLoop};
use spmv_kernels::{build_micro_kernel, Schedule, SpmvKernel};
use spmv_machine::MachineModel;
use spmv_sparse::{Csr, Validated};
use spmv_telemetry::roofline::{self, RooflineId};
use spmv_tuner::menu;
use spmv_tuner::KernelPlan;

/// Longest accepted matrix name.
const MAX_NAME_LEN: usize = 64;

/// One registered, tuned, ready-to-serve matrix.
pub struct RegisteredMatrix {
    name: String,
    a: &'static Csr,
    /// Bitwise-reproducible kernel: scalar accumulation order under
    /// the baseline nnz-balanced row partition. Also runs coalesced
    /// batches, so batch results are bitwise-serial in every mode.
    exact: CsrKernel<'static>,
    /// The menu-search winner (throughput path).
    tuned: Box<dyn SpmvKernel>,
    /// The tuner's decision record for `/v1/matrices` introspection.
    plan: KernelPlan,
    nthreads: usize,
    /// Roofline-monitor slot for live attainment tracking; `None`
    /// when the monitor's slot table was full at registration.
    roofline: Option<RooflineId>,
}

impl RegisteredMatrix {
    /// Matrix name.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// Rows.
    pub fn nrows(&self) -> usize {
        self.a.nrows()
    }

    /// Columns (the request vector length).
    pub fn ncols(&self) -> usize {
        self.a.ncols()
    }

    /// Stored non-zeros.
    pub fn nnz(&self) -> usize {
        self.a.nnz()
    }

    /// The underlying matrix (serial reference computations in tests).
    pub fn csr(&self) -> &Csr {
        self.a
    }

    /// The tuner's winning plan.
    pub fn plan(&self) -> &KernelPlan {
        &self.plan
    }

    /// Thread count the kernels were planned for.
    pub fn nthreads(&self) -> usize {
        self.nthreads
    }

    /// One SpMV in the requested mode. `x.len() == ncols`.
    pub fn spmv(&self, x: &[f64], mode: Mode) -> Vec<f64> {
        self.spmv_timed(x, mode).0
    }

    /// [`spmv`](RegisteredMatrix::spmv), also reporting the kernel's
    /// busy seconds (slowest thread — the dispatch's critical path),
    /// which the scheduler feeds to the roofline monitor and the
    /// request timeline.
    pub fn spmv_timed(&self, x: &[f64], mode: Mode) -> (Vec<f64>, f64) {
        let mut y = vec![0.0; self.nrows()];
        let kernel: &dyn SpmvKernel = match mode {
            Mode::Exact => &self.exact,
            Mode::Tuned => &*self.tuned,
        };
        let times = kernel.run_timed(x, &mut y);
        (y, times.max())
    }

    /// One coalesced batch over separate request vectors: each `xs[j]`
    /// is read in place and its result returned as an independent
    /// vector. Scalar accumulation order — bitwise-serial per vector.
    pub fn spmm_multi(&self, xs: &[&[f64]]) -> Vec<Vec<f64>> {
        self.spmm_multi_timed(xs).0
    }

    /// [`spmm_multi`](RegisteredMatrix::spmm_multi), also reporting
    /// the exact kernel's busy seconds (slowest thread).
    pub fn spmm_multi_timed(&self, xs: &[&[f64]]) -> (Vec<Vec<f64>>, f64) {
        let mut ys: Vec<Vec<f64>> = xs.iter().map(|_| vec![0.0; self.nrows()]).collect();
        let times = self.exact.run_multi(xs, &mut ys);
        (ys, times.max())
    }

    /// Folds one dispatch's measured throughput into this matrix's
    /// roofline-attainment EWMA (no-op if the monitor was full at
    /// registration).
    pub fn observe_gflops(&self, gflops: f64) {
        if let Some(id) = self.roofline {
            roofline::monitor().observe(id, gflops);
        }
    }
}

impl fmt::Debug for RegisteredMatrix {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("RegisteredMatrix")
            .field("name", &self.name)
            .field("nrows", &self.nrows())
            .field("ncols", &self.ncols())
            .field("nnz", &self.nnz())
            .field("kernel", &self.plan.entry.id())
            .finish()
    }
}

/// Which kernel serves a request.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Mode {
    /// Scalar-order kernel; results are bitwise-identical to the
    /// serial reference regardless of thread count or batching.
    Exact,
    /// The menu-tuned kernel; fastest, reproducible only to the
    /// workspace verification tolerance.
    Tuned,
}

impl Mode {
    /// Parses the `mode` query parameter (`None`/empty = exact).
    pub fn parse(s: Option<&str>) -> Result<Mode, String> {
        match s {
            None | Some("") | Some("exact") => Ok(Mode::Exact),
            Some("tuned") => Ok(Mode::Tuned),
            Some(other) => Err(format!("unknown mode {other:?} (expected exact|tuned)")),
        }
    }
}

/// Why a registration was refused.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum RegisterError {
    /// Name is empty, too long, or contains characters outside
    /// `[A-Za-z0-9._-]`.
    InvalidName(String),
    /// A matrix with this name is already registered.
    Duplicate(String),
    /// The matrix failed structural validation.
    Invalid(String),
}

impl fmt::Display for RegisterError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            RegisterError::InvalidName(n) => write!(f, "invalid matrix name {n:?}"),
            RegisterError::Duplicate(n) => write!(f, "matrix {n:?} already registered"),
            RegisterError::Invalid(e) => write!(f, "matrix failed validation: {e}"),
        }
    }
}

/// The concurrent name → matrix map. Lookups clone an `Arc`;
/// registration holds the lock only around the map insert, not around
/// tuning.
#[derive(Default)]
pub struct MatrixRegistry {
    matrices: Mutex<HashMap<String, Arc<RegisteredMatrix>>>,
    /// Profiling reps per menu-search candidate (1 in tests for
    /// speed, higher for stable production selections).
    tune_reps: usize,
    nthreads: usize,
}

impl MatrixRegistry {
    /// Creates a registry whose kernels are planned for `nthreads`
    /// and tuned with `tune_reps` profiling reps per candidate.
    pub fn new(nthreads: usize, tune_reps: usize) -> MatrixRegistry {
        MatrixRegistry {
            matrices: Mutex::new(HashMap::new()),
            tune_reps: tune_reps.max(1),
            nthreads: nthreads.max(1),
        }
    }

    /// Validates, tunes and registers a matrix under `name`.
    ///
    /// The tuning search runs outside the registry lock, so a slow
    /// registration does not block serving lookups; two concurrent
    /// registrations under one name race to the insert and the loser
    /// gets [`RegisterError::Duplicate`].
    pub fn register(&self, name: &str, a: Csr) -> Result<Arc<RegisteredMatrix>, RegisterError> {
        if !valid_name(name) {
            return Err(RegisterError::InvalidName(name.to_string()));
        }
        if self.lock().contains_key(name) {
            return Err(RegisterError::Duplicate(name.to_string()));
        }
        // Validation witness up front: a matrix that fails here never
        // reaches a kernel, so every kernel below runs its parallel
        // fast path (they re-derive their own witnesses internally).
        if let Err(e) = Validated::new(&a) {
            return Err(RegisterError::Invalid(e.to_string()));
        }
        // Pin the storage for the process lifetime; see module docs.
        let a: &'static Csr = Box::leak(Box::new(a));
        let machine = MachineModel::host();
        let (plan, _trace) = menu::search_or_cached(a, &machine, self.nthreads, self.tune_reps);
        // Feed the live attainment monitor the simulated ceiling the
        // tuner selected against; measured per-dispatch throughput is
        // folded in by the scheduler via `observe_gflops`.
        let bound = menu::roofline_bound_gflops(a, &machine, plan.entry);
        let roofline = roofline::monitor().register(name, bound);
        let tuned = build_micro_kernel(a, plan.entry, self.nthreads).kernel;
        let exact =
            CsrKernel::with_options(a, self.nthreads, Schedule::NnzBalanced, InnerLoop::Scalar);
        let matrix = Arc::new(RegisteredMatrix {
            name: name.to_string(),
            a,
            exact,
            tuned,
            plan,
            nthreads: self.nthreads,
            roofline,
        });
        match self.lock().entry(name.to_string()) {
            std::collections::hash_map::Entry::Occupied(_) => {
                Err(RegisterError::Duplicate(name.to_string()))
            }
            std::collections::hash_map::Entry::Vacant(v) => {
                v.insert(Arc::clone(&matrix));
                Ok(matrix)
            }
        }
    }

    /// Looks up a registered matrix.
    pub fn get(&self, name: &str) -> Option<Arc<RegisteredMatrix>> {
        self.lock().get(name).cloned()
    }

    /// Registered matrices, sorted by name.
    pub fn list(&self) -> Vec<Arc<RegisteredMatrix>> {
        let mut all: Vec<_> = self.lock().values().cloned().collect();
        all.sort_by(|a, b| a.name.cmp(&b.name));
        all
    }

    /// Registered matrix count.
    pub fn len(&self) -> usize {
        self.lock().len()
    }

    /// Whether no matrix is registered.
    pub fn is_empty(&self) -> bool {
        self.lock().is_empty()
    }

    fn lock(&self) -> std::sync::MutexGuard<'_, HashMap<String, Arc<RegisteredMatrix>>> {
        self.matrices.lock().unwrap_or_else(|p| p.into_inner())
    }
}

/// Names are path segments in the service URLs, so keep them to a
/// conservative token alphabet.
fn valid_name(name: &str) -> bool {
    !name.is_empty()
        && name.len() <= MAX_NAME_LEN
        && name.chars().all(|c| c.is_ascii_alphanumeric() || matches!(c, '-' | '_' | '.'))
}

#[cfg(test)]
mod tests {
    use super::*;
    use spmv_sparse::gen;

    fn registry() -> MatrixRegistry {
        MatrixRegistry::new(2, 1)
    }

    #[test]
    fn register_then_serve_exact_is_bitwise_serial() {
        let reg = registry();
        let a = gen::banded(200, 4, 0.9, 3).unwrap();
        let mut y_ref = vec![0.0; a.nrows()];
        let x: Vec<f64> = (0..a.ncols()).map(|i| (i as f64).sin()).collect();
        a.spmv(&x, &mut y_ref);

        let m = reg.register("banded", a).expect("register");
        assert_eq!(m.nrows(), 200);
        let y = m.spmv(&x, Mode::Exact);
        for (got, want) in y.iter().zip(&y_ref) {
            assert_eq!(got.to_bits(), want.to_bits());
        }
        // Tuned mode serves too (tolerance check only).
        let y_tuned = m.spmv(&x, Mode::Tuned);
        for (got, want) in y_tuned.iter().zip(&y_ref) {
            assert!((got - want).abs() <= 1e-10 * want.abs().max(1.0));
        }
    }

    #[test]
    fn duplicate_and_invalid_names_are_rejected() {
        let reg = registry();
        reg.register("a", Csr::identity(8)).expect("first");
        assert_eq!(
            reg.register("a", Csr::identity(8)).unwrap_err(),
            RegisterError::Duplicate("a".to_string())
        );
        assert!(matches!(reg.register("", Csr::identity(4)), Err(RegisterError::InvalidName(_))));
        assert!(matches!(
            reg.register("has space", Csr::identity(4)),
            Err(RegisterError::InvalidName(_))
        ));
        assert!(matches!(
            reg.register(&"x".repeat(65), Csr::identity(4)),
            Err(RegisterError::InvalidName(_))
        ));
        assert_eq!(reg.len(), 1);
    }

    #[test]
    fn lookup_and_list() {
        let reg = registry();
        assert!(reg.is_empty());
        assert!(reg.get("missing").is_none());
        reg.register("b", Csr::identity(4)).unwrap();
        reg.register("a", Csr::identity(4)).unwrap();
        let names: Vec<_> = reg.list().iter().map(|m| m.name().to_string()).collect();
        assert_eq!(names, ["a", "b"]);
        assert!(reg.get("a").is_some());
    }

    /// Every vector of a batch comes back bitwise equal to the serial
    /// reference and to the same vector served alone in exact mode.
    #[test]
    fn batch_path_is_bitwise_serial() {
        let reg = registry();
        let a = gen::powerlaw(300, 5, 2.0, 9).unwrap();
        let serial = a.clone();
        let m = reg.register("pl", a).unwrap();
        let k = 3;
        let xs: Vec<Vec<f64>> =
            (0..k).map(|j| (0..m.ncols()).map(|i| ((i + j) as f64).cos()).collect()).collect();
        let x_refs: Vec<&[f64]> = xs.iter().map(|x| x.as_slice()).collect();
        let ys = m.spmm_multi(&x_refs);
        let bits = |v: &[f64]| v.iter().map(|e| e.to_bits()).collect::<Vec<_>>();
        for (x, y) in xs.iter().zip(&ys) {
            let mut y_ref = vec![0.0; m.nrows()];
            serial.spmv(x, &mut y_ref);
            assert_eq!(bits(y), bits(&y_ref));
            assert_eq!(bits(y), bits(&m.spmv(x, Mode::Exact)));
        }
    }

    #[test]
    fn registration_feeds_the_roofline_monitor() {
        let reg = registry();
        let a = gen::banded(150, 3, 0.9, 5).unwrap();
        let m = reg.register("roofline-reg-probe", a).expect("register");
        let s = roofline::monitor().get("roofline-reg-probe").expect("monitored");
        assert!(s.bound_gflops > 0.0, "tuner bound is a positive ceiling");
        assert_eq!(s.samples, 0, "no dispatches yet");
        m.observe_gflops(s.bound_gflops * 0.5);
        let s = roofline::monitor().get("roofline-reg-probe").unwrap();
        assert_eq!(s.samples, 1);
        assert!((s.attainment - 0.5).abs() < 1e-9, "attainment {}", s.attainment);
    }

    #[test]
    fn timed_paths_report_kernel_seconds() {
        let reg = registry();
        let a = gen::banded(200, 4, 0.9, 3).unwrap();
        let m = reg.register("timed", a).unwrap();
        let x = vec![1.0; m.ncols()];
        let (y, secs) = m.spmv_timed(&x, Mode::Exact);
        assert_eq!(y.len(), m.nrows());
        assert!(secs > 0.0, "busy seconds must be positive, got {secs}");
        let (ys, bsecs) = m.spmm_multi_timed(&[&x, &x]);
        assert_eq!(ys.len(), 2);
        assert!(bsecs > 0.0);
    }

    #[test]
    fn mode_parsing() {
        assert_eq!(Mode::parse(None), Ok(Mode::Exact));
        assert_eq!(Mode::parse(Some("exact")), Ok(Mode::Exact));
        assert_eq!(Mode::parse(Some("tuned")), Ok(Mode::Tuned));
        assert!(Mode::parse(Some("fast")).is_err());
    }
}
