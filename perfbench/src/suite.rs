//! `suite-tune`: tune each of the 17 suite presets with the menu
//! search (the serving registry's tuner), then run a fixed number of
//! tuned SpMVs interleaved with the MKL-CSR proxy on the same input.
//!
//! At scale 0.05 every matrix is cache-resident (1.2–5.6 MB), so
//! search cost and per-call dispatch are a large share of the job.
//! Each set-up round clears the plan cache first and tunes every
//! matrix once, so no search is served from the cache.

use std::time::Instant;

use spmv_kernels::micro::menu;
use spmv_kernels::variant::{build_micro_kernel, BuiltKernel, SpmvKernel};
use spmv_machine::MachineModel;
use spmv_ref::MklLikeCsr;
use spmv_sparse::{gen, Csr};
use spmv_telemetry::metrics::{engine_dispatch, menu_selection, preprocessing};
use spmv_tuner::menu::{clear_plan_cache, roofline_bound_gflops, search_or_cached};
use spmv_tuner::{KernelPlan, MenuTrace};

use crate::spans::{span, Spans};
use crate::{
    add_dispatches, engine_since, no_dispatches, record_engine, roofline_attainment, seeded_vec,
    stats, Across, Layers, Machine, Outcome,
};

/// Suite size scale.
const SCALE: f64 = 0.05;
/// Repetitions of the tune-and-iterate pass; set-up and job time are
/// their medians.
const REPS: usize = 5;
/// Profiling reps per menu candidate (the serving daemon's default).
const TUNE_REPS: usize = 3;
/// Tuned SpMVs per matrix, over all repetitions, for each second of
/// `--seconds`.
const CALLS_PER_SECOND: u64 = 100;
/// Timed calls per menu candidate in the traced regret sweep.
const REGRET_CALLS: usize = 15;

pub struct Input {
    mats: Vec<(&'static str, Csr, Vec<f64>)>,
    calls: usize,
}

pub fn prepare(seed: u64, seconds: u64) -> Input {
    let t = Instant::now();
    let mats: Vec<_> = gen::SUITE
        .iter()
        .enumerate()
        .map(|(i, m)| {
            let a = m.generate(SCALE).expect("suite presets generate at any positive scale");
            let x = seeded_vec(a.ncols(), seed.wrapping_mul(31).wrapping_add(i as u64));
            (m.name, a, x)
        })
        .collect();
    println!(
        "suite-tune {} presets at scale {SCALE}: {} nnz in total; generated in {:.3} s",
        mats.len(),
        mats.iter().map(|m| m.1.nnz()).sum::<usize>(),
        t.elapsed().as_secs_f64()
    );
    Input { mats, calls: (CALLS_PER_SECOND * seconds) as usize }
}

struct Tuned<'a> {
    built: BuiltKernel<'a>,
    plan: KernelPlan,
    trace: MenuTrace,
    seconds: f64,
}

/// One set-up: clear the plan cache, then search and build a
/// kernel for every matrix.
fn tune_all<'a>(input: &'a Input, nthreads: usize, sp: Option<&Spans>, rep: u64) -> Vec<Tuned<'a>> {
    let host = MachineModel::host();
    clear_plan_cache();
    span(sp, "setup", 0, rep, |root| {
        input
            .mats
            .iter()
            .enumerate()
            .map(|(i, (_, a, _))| {
                let t = Instant::now();
                let (plan, trace) = span(sp, "search", root, i as u64, |_| {
                    search_or_cached(a, &host, nthreads, TUNE_REPS)
                });
                let built = span(sp, "build", root, i as u64, |_| {
                    build_micro_kernel(a, plan.entry, nthreads)
                });
                Tuned { built, plan, trace, seconds: t.elapsed().as_secs_f64() }
            })
            .collect()
    })
}

pub fn run(input: &Input, nthreads: usize, machine: &Machine, sp: Option<&Spans>) -> Outcome {
    let host = MachineModel::host();
    let mut layers = Layers::default();
    let mut info = Vec::new();
    let n = input.mats.len();
    let calls = input.calls.div_ceil(REPS);
    let y_ref: Vec<Vec<f64>> = input
        .mats
        .iter()
        .map(|(_, a, x)| {
            let mut y = vec![0.0; a.nrows()];
            a.spmv(x, &mut y);
            y
        })
        .collect();

    // Each repetition clears the plan cache, tunes every matrix
    // (its set-up), then runs `calls` tuned SpMVs per matrix, each
    // followed by one reference call on the same input.
    let prep0 = preprocessing().seconds();
    let hits0 = menu_selection().cache_hits();
    let mut tune_s = vec![Vec::with_capacity(REPS); n];
    let mut search_s = Vec::new();
    let mut job_wall_s = 0.0;
    let mut own = vec![Vec::with_capacity(calls * REPS); n];
    let mut reference = vec![Vec::with_capacity(calls * REPS); n];
    let mut imbalance = Vec::new();
    let mut dispatch = no_dispatches();
    let mut failed = 0;
    let mut tuned = Vec::new();
    for rep in 0..REPS {
        tuned.clear();
        tuned = tune_all(input, nthreads, sp, rep as u64);
        search_s.push(tuned.iter().map(|t| t.plan.search_seconds).sum::<f64>());
        let engine0 = engine_dispatch().snapshot();
        for (i, ((_, a, x), t)) in input.mats.iter().zip(&tuned).enumerate() {
            tune_s[i].push(t.seconds);
            let kernel = &t.built.kernel;
            let mkl = MklLikeCsr::new(a, nthreads);
            let mut y = vec![0.0; a.nrows()];
            let mut y_mkl = vec![0.0; a.nrows()];
            kernel.run(x, &mut y);
            mkl.run(x, &mut y_mkl);
            let before = own[i].len();
            span(sp, "matrix", 0, i as u64, |root| {
                for _ in 0..calls {
                    let s = Instant::now();
                    let times = kernel.run_timed(x, &mut y);
                    let e = Instant::now();
                    own[i].push((e - s).as_secs_f64());
                    imbalance.push(stats::max_over_mean(&times.seconds));
                    let m = Instant::now();
                    mkl.run(x, &mut y_mkl);
                    let me = Instant::now();
                    reference[i].push((me - m).as_secs_f64());
                    if let Some(sp) = sp {
                        sp.push("tuned_spmv", root, i as u64, s, e);
                        sp.push("mkl_spmv", root, i as u64, m, me);
                    }
                }
            });
            job_wall_s += t.seconds + own[i][before..].iter().sum::<f64>();
            if !(close(&y, &y_ref[i]) && close(&y_mkl, &y_ref[i])) {
                failed += 1;
                info.push(format!("{} differs from the serial product FAILED", input.mats[i].0));
            }
        }
        add_dispatches(&mut dispatch, &engine_since(&engine0));
    }
    // Set-up and job time from per-matrix medians over repetitions and
    // calls, so a stall that hits one search or call does not move them.
    let setup_s: f64 = tune_s.iter().map(|t| stats::median(t)).sum();
    let job_s = setup_s + own.iter().map(|o| calls as f64 * stats::median(o)).sum::<f64>();
    let hits = menu_selection().cache_hits() - hits0;
    layers.set("tuner.cache_hits", hits as f64);
    layers.set("sparse.prep_s", (preprocessing().seconds() - prep0) / REPS as f64);
    layers.set("tuner.setup_s", stats::median(&search_s));
    let considered: usize = tuned.iter().map(|t| t.trace.considered.len()).sum();
    let pruned: usize = tuned.iter().map(|t| t.trace.pruned.len()).sum();
    layers.set("tuner.considered", considered as f64);
    layers.set("tuner.timed", tuned.iter().map(|t| t.trace.timed.len()).sum::<usize>() as f64);
    layers.set("tuner.pruned", pruned as f64);
    layers.set("tuner.pruned_share", pruned as f64 / considered.max(1) as f64);
    record_engine(&dispatch, &mut layers);

    let mut tuned_med = Vec::new();
    let mut speedup = Vec::new();
    let mut gflops = Vec::new();
    let mut roofline = Vec::new();
    let mut below = 0;
    for (i, ((name, a, _), t)) in input.mats.iter().zip(&tuned).enumerate() {
        let (tm, mm) = (stats::median(&own[i]), stats::median(&reference[i]));
        if tm > mm + stats::iqr(&own[i]) {
            below += 1;
        }
        let gf = 2.0 * a.nnz() as f64 / tm / 1e9;
        info.push(format!(
            "{name:<17} nnz {:>7} pick {:<16} tune {:>7.2} ms  tuned {:>8.2} us  mkl {:>8.2} us  \
             speedup {:.3}",
            a.nnz(),
            t.trace.winner,
            t.seconds * 1e3,
            tm * 1e6,
            mm * 1e6,
            mm / tm,
        ));
        roofline.push(roofline_attainment(
            &format!("perfbench-{name}"),
            roofline_bound_gflops(a, &host, t.plan.entry),
            gf,
        ));
        tuned_med.push(tm);
        speedup.push(mm / tm);
        gflops.push(gf);
    }
    layers.set("kernels.gflops", stats::geomean(&gflops));
    layers.set("kernels.spmv_ms_p50", stats::geomean(&tuned_med) * 1e3);
    layers.set("kernels.imbalance", stats::median(&imbalance));
    layers.set("tuner.speedup", stats::geomean(&speedup));
    layers.set(
        "telemetry.roofline_attainment",
        roofline.iter().sum::<f64>() / roofline.len().max(1) as f64,
    );
    layers.set("tuner.below_baseline", below as f64);
    let bpn: Vec<f64> = input
        .mats
        .iter()
        .zip(&tuned)
        .map(|((_, a, _), t)| t.built.kernel.effective_bytes_per_nnz(a.nnz()))
        .collect();
    layers.set("kernels.bytes_per_nnz", stats::geomean(&bpn));
    let triad = machine.fill_layers(&mut layers);
    if triad > 0.0 {
        let attain: Vec<f64> = input
            .mats
            .iter()
            .zip(&bpn)
            .zip(&tuned_med)
            .map(|(((_, a, _), b), t)| b * a.nnz() as f64 / t / 1e9 / triad)
            .collect();
        layers.set("kernels.attainment", stats::geomean(&attain));
    }
    if sp.is_some() {
        layers.set("tuner.regret", regret(input, &tuned, nthreads, sp));
    }
    info.push(format!(
        "suite_job_s {job_s:.6} s from medians; {:.6} s wall per repetition on average \
         ({calls} tuned calls per matrix each)",
        job_wall_s / REPS as f64
    ));
    info.push(format!("suite_gflops {:.4} GFLOP/s (geomean)", stats::geomean(&gflops)));
    info.push(format!(
        "suite_speedup {:.4} (geomean of mkl / tuned medians)",
        stats::geomean(&speedup)
    ));
    info.push(format!(
        "tuner.cache_hits {hits}; {below} pick(s) slower than mkl beyond their spread"
    ));

    Outcome {
        setup_s,
        job_s,
        job_wall_s,
        op_us: own.iter().map(|s| s.iter().map(|v| v * 1e6).collect()).collect(),
        op_across: Across::Inputs,
        attempted: (n * REPS) as u64,
        failed,
        layers,
        info,
    }
}

/// Agreement with the serial product up to summation-order rounding.
fn close(y: &[f64], y_ref: &[f64]) -> bool {
    let scale = y_ref.iter().fold(1.0f64, |m, v| m.max(v.abs()));
    y.iter().zip(y_ref).all(|(p, q)| (p - q).abs() <= 1e-10 * scale)
}

/// Geomean over matrices of picked median time over the best median
/// time of any menu candidate, all measured after the job the same
/// way (1 = the search picked the best candidate).
fn regret(input: &Input, tuned: &[Tuned<'_>], nthreads: usize, sp: Option<&Spans>) -> f64 {
    let ratios: Vec<f64> = input
        .mats
        .iter()
        .zip(tuned)
        .enumerate()
        .map(|(i, ((_, a, x), t))| {
            span(sp, "regret", 0, i as u64, |_| {
                let mut y = vec![0.0; a.nrows()];
                let mut best = f64::INFINITY;
                let mut picked = f64::INFINITY;
                for entry in menu(a.ncols()) {
                    let built = build_micro_kernel(a, entry, nthreads);
                    built.kernel.run(x, &mut y);
                    let times: Vec<f64> = (0..REGRET_CALLS)
                        .map(|_| {
                            let s = Instant::now();
                            built.kernel.run(x, &mut y);
                            s.elapsed().as_secs_f64()
                        })
                        .collect();
                    let med = stats::median(&times);
                    best = best.min(med);
                    if entry == t.plan.entry {
                        picked = med;
                    }
                }
                picked / best
            })
        })
        .collect();
    stats::geomean(&ratios)
}
