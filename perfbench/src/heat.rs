//! `heat-dram`: implicit-Euler heat steps on a DRAM-resident 3-D
//! stencil, each step solved by CG on the kernel `spmvtune solve`
//! picks (`Optimizer::feature_guided` on the host model).
//!
//! The matrix is `I/Δt + L` for the 164³ 7-point Laplacian `L` with
//! Δt = 1, its numbering jittered within a seeded 4096-row window.
//! Its computed working set (474 MB) is over four times a 105 MiB LLC,
//! so the kernel streams from main memory on every call.

use std::cell::{Cell, RefCell};
use std::time::Instant;

use spmv_kernels::variant::SpmvKernel;
use spmv_kernels::MenuEntry;
use spmv_machine::MachineModel;
use spmv_solvers::{cg, LinOp};
use spmv_sparse::features::working_set_bytes;
use spmv_sparse::{gen, Csr, FeatureVector};
use spmv_telemetry::metrics::{engine_dispatch, preprocessing};
use spmv_tuner::Optimizer;

use crate::spans::{span, Spans};
use crate::{
    engine_since, mib, record_engine, roofline_attainment, seeded_vec, stats, Across, Layers,
    Machine, Outcome,
};

/// Grid points per dimension.
const GRID: usize = 164;
/// Numbering jitter window, in rows.
const JITTER: usize = 4096;
/// Implicit time step; `1/DT` is added to the diagonal.
const DT: f64 = 1.0;
/// Relative residual each step is solved to.
const TOL: f64 = 1e-8;
/// CG iteration budget per step (a step takes about 32).
const MAX_ITER: usize = 500;
/// Set-up repetitions whose median is reported.
const SETUPS: usize = 5;
/// Back-to-back kernel calls of the steady-state batch.
const STEADY_CALLS: usize = 10;
/// Seconds of `--seconds` per implicit step. A step takes about 4 s
/// on a two-vCPU host; four steps at `--seconds 10` give the p90 of
/// the kernel calls ten samples beyond it.
const SECONDS_PER_STEP: f64 = 2.5;

pub struct Input {
    a: Csr,
    u0: Vec<f64>,
    steps: usize,
}

pub fn prepare(seed: u64, seconds: u64, machine: &Machine) -> Input {
    let t = Instant::now();
    let lap = gen::stencil_3d(GRID, GRID, GRID).expect("grid dimensions are positive");
    let perm = gen::jittered_permutation(lap.nrows(), JITTER, seed);
    let a = gen::permute_symmetric(&lap, &perm).expect("permutation matches the matrix");
    drop(lap);
    let a = add_to_diagonal(a, 1.0 / DT);
    let ws = working_set_bytes(&a);
    println!(
        "heat-dram matrix {GRID}^3 stencil: {} rows, {} nnz, computed working set {:.1} MiB \
         = {:.2}x the {:.1} MiB llc; generated in {:.3} s",
        a.nrows(),
        a.nnz(),
        mib(ws),
        ws as f64 / machine.llc_bytes as f64,
        mib(machine.llc_bytes),
        t.elapsed().as_secs_f64()
    );
    let u0 = seeded_vec(a.nrows(), seed ^ 0x4ea7);
    let steps = (seconds as f64 / SECONDS_PER_STEP).round().max(1.0) as usize;
    Input { a, u0, steps }
}

/// `A + shift·I` for a matrix whose diagonal is stored.
fn add_to_diagonal(a: Csr, shift: f64) -> Csr {
    let (nrows, ncols, rowptr, colind, mut values) = a.into_raw();
    for i in 0..nrows {
        for k in rowptr[i]..rowptr[i + 1] {
            if colind[k] as usize == i {
                values[k] += shift;
            }
        }
    }
    Csr::from_raw(nrows, ncols, rowptr, colind, values).expect("structure is unchanged")
}

/// The tuned kernel as a solver operator that times every apply (and,
/// when tracing, records a span).
struct TimedOp<'k, 's> {
    kernel: &'k dyn SpmvKernel,
    spans: Option<&'s Spans>,
    parent: Cell<u64>,
    group: Cell<u64>,
    seconds: RefCell<Vec<f64>>,
}

impl LinOp for TimedOp<'_, '_> {
    fn nrows(&self) -> usize {
        self.kernel.nrows()
    }

    fn ncols(&self) -> usize {
        self.kernel.ncols()
    }

    fn apply(&self, x: &[f64], y: &mut [f64]) {
        let start = Instant::now();
        self.kernel.run(x, y);
        let end = Instant::now();
        self.seconds.borrow_mut().push((end - start).as_secs_f64());
        if let Some(sp) = self.spans {
            sp.push("apply", self.parent.get(), self.group.get(), start, end);
        }
    }
}

/// `‖b − A x‖ / ‖b‖` with the serial reference SpMV.
fn true_residual(a: &Csr, x: &[f64], b: &[f64]) -> f64 {
    let mut ax = vec![0.0; a.nrows()];
    a.spmv(x, &mut ax);
    let r: f64 = ax.iter().zip(b).map(|(u, v)| (v - u) * (v - u)).sum();
    let bn: f64 = b.iter().map(|v| v * v).sum();
    (r / bn).sqrt()
}

pub fn run(input: &Input, nthreads: usize, machine: &Machine, sp: Option<&Spans>) -> Outcome {
    let a = &input.a;
    let host = MachineModel::host();
    let mut layers = Layers::default();
    let mut info = Vec::new();

    // Set-up: classification, feature extraction and format
    // conversion, repeated; the last tuned kernel runs the job.
    let prep0 = preprocessing().seconds();
    let mut setup = Vec::new();
    let mut tuner_s = Vec::new();
    let mut tuned = None;
    for k in 0..SETUPS {
        drop(tuned.take());
        let t = Instant::now();
        let opt = Optimizer::feature_guided(&host).with_threads(nthreads);
        let tn = span(sp, "setup", 0, k as u64, |_| opt.optimize(a));
        setup.push(t.elapsed().as_secs_f64());
        tuner_s.push(tn.prep_seconds);
        tuned = Some(tn);
    }
    let tuned = tuned.expect("at least one set-up");
    layers.set("sparse.prep_s", (preprocessing().seconds() - prep0) / SETUPS as f64);
    layers.set("tuner.setup_s", stats::median(&tuner_s));
    let features_s = span(sp, "features", 0, 0, |_| {
        let t = Instant::now();
        std::hint::black_box(FeatureVector::extract(a, host.llc_bytes(), host.line_elems()));
        t.elapsed().as_secs_f64()
    });
    layers.set("sparse.features_s", features_s);
    let kernel = tuned.kernel();
    info.push(format!(
        "kernel {} (classes {}, optimizations {}), set-up {:.3} s median of {SETUPS}",
        kernel.name(),
        tuned.classes(),
        tuned.variant(),
        stats::median(&setup)
    ));

    // The job: implicit steps, each CG from a zero guess.
    let op = TimedOp {
        kernel,
        spans: sp,
        parent: Cell::new(0),
        group: Cell::new(0),
        seconds: RefCell::new(Vec::new()),
    };
    let n = a.nrows();
    let mut u = input.u0.clone();
    let mut x = vec![0.0; n];
    let mut step_s = Vec::new();
    let mut iters = 0;
    let mut failed = 0;
    let engine0 = engine_dispatch().snapshot();
    for step in 0..input.steps {
        let b: Vec<f64> = u.iter().map(|v| v / DT).collect();
        x.fill(0.0);
        op.group.set(step as u64);
        let t = Instant::now();
        let st = span(sp, "cg", 0, step as u64, |id| {
            op.parent.set(id);
            cg(&op, &b, &mut x, None, TOL, MAX_ITER)
        });
        step_s.push(t.elapsed().as_secs_f64());
        iters += st.iterations;
        let res = span(sp, "residual_check", 0, step as u64, |_| true_residual(a, &x, &b));
        // The recurrence and the recomputed residual differ by
        // rounding; a quarter of the target bounds that drift.
        let ok = st.converged && res <= TOL * 1.25;
        if !ok {
            failed += 1;
        }
        info.push(format!(
            "step {step}: {} cg iterations, recurrence residual {:.3e}, true residual {res:.3e}{}",
            st.iterations,
            st.residual,
            if ok { "" } else { " FAILED" }
        ));
        std::mem::swap(&mut u, &mut x);
    }
    let job_engine = engine_since(&engine0);
    record_engine(&job_engine, &mut layers);
    let apply_s = op.seconds.borrow().clone();
    let apply_total: f64 = apply_s.iter().sum();
    let solve_s: f64 = step_s.iter().sum();
    layers.set("solvers.iters", iters as f64);
    layers.set("solvers.spmv_share", apply_total / solve_s);
    layers.set("solvers.vecops_ms_per_iter", (solve_s - apply_total) / iters.max(1) as f64 * 1e3);
    info.push(format!(
        "solve_s {solve_s:.6} s ({} steps, {iters} iterations; step seconds {})",
        input.steps,
        step_s.iter().map(|s| format!("{s:.3}")).collect::<Vec<_>>().join(" ")
    ));

    // Steady-state batch of back-to-back calls, checked against the
    // serial product.
    let mut y = vec![0.0; n];
    let mut batch = Vec::new();
    let mut imbalance = Vec::new();
    span(sp, "steady_batch", 0, 0, |_| {
        for _ in 0..STEADY_CALLS {
            let t = Instant::now();
            let times = kernel.run_timed(&u, &mut y);
            batch.push(t.elapsed().as_secs_f64());
            imbalance.push(stats::max_over_mean(&times.seconds));
        }
    });
    let mut y_ref = vec![0.0; n];
    a.spmv(&u, &mut y_ref);
    let scale = y_ref.iter().fold(0.0f64, |m, v| m.max(v.abs()));
    let err = y.iter().zip(&y_ref).fold(0.0f64, |m, (p, q)| m.max((p - q).abs()));
    if err > 1e-12 * scale.max(1.0) {
        failed += 1;
        info.push(format!("tuned kernel differs from the serial product by {err:.3e} FAILED"));
    }
    let med = stats::median(&batch);
    let gflops = 2.0 * a.nnz() as f64 / med / 1e9;
    let bytes_per_nnz = kernel.effective_bytes_per_nnz(a.nnz());
    let triad = machine.fill_layers(&mut layers);
    let attainment =
        if triad > 0.0 { bytes_per_nnz * a.nnz() as f64 / med / 1e9 / triad } else { 0.0 };
    layers.set("kernels.working_set_mb", mib(working_set_bytes(a)));
    layers.set("kernels.gflops", gflops);
    layers.set("kernels.spmv_ms_p50", med * 1e3);
    layers.set("kernels.bytes_per_nnz", bytes_per_nnz);
    layers.set("kernels.attainment", attainment);
    layers.set("kernels.imbalance", stats::median(&imbalance));
    layers.set(
        "telemetry.roofline_attainment",
        roofline_attainment(
            "perfbench-heat-dram",
            spmv_tuner::menu::roofline_bound_gflops(a, &host, MenuEntry::baseline()),
            gflops,
        ),
    );
    info.push(format!(
        "spmv_gflops {gflops:.4} GFLOP/s (median of {STEADY_CALLS} calls, {:.3} ms; \
         {bytes_per_nnz:.2} computed B/nnz, attainment {attainment:.3} of the triad)",
        med * 1e3
    ));
    info.push(format!(
        "engine {} dispatches in the solve, wake {:.1} us each",
        job_engine.dispatches,
        job_engine.wake_latency_seconds() * 1e6
    ));

    Outcome {
        setup_s: stats::median(&setup),
        job_s: stats::median(&step_s),
        job_wall_s: solve_s,
        op_us: vec![apply_s.iter().map(|s| s * 1e6).collect()],
        op_across: Across::Inputs,
        attempted: input.steps as u64 + 1,
        failed,
        layers,
        info,
    }
}
