//! `serve-mixed`: the serving plane mounted in-process the way
//! `spmv-metricsd --load serve` mounts it (defaults, tracer on), with
//! two uploaded matrices and a closed loop of two client connections.
//!
//! Requests alternate exact/tuned mode and, every second request,
//! the matrix. Scheduler worker, server lanes and client lanes all
//! run as lanes of one `ExecEngine` dispatch, as in `spmv-loadgen`,
//! so the benchmark creates no threads of its own.

use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Barrier, Mutex};
use std::time::Instant;

use spmv_kernels::engine::ExecEngine;
use spmv_kernels::variant::build_micro_kernel;
use spmv_kernels::MAX_BATCH;
use spmv_serve::{build_x, digest, SpmvService, DEFAULT_QUEUE_CAP};
use spmv_sparse::{gen, mm, Csr};
use spmv_telemetry::metrics::{engine_dispatch, menu_selection};
use spmv_telemetry::{http_request, tracer, DispatchSnapshot, MetricsServer};
use spmv_tuner::menu::clear_plan_cache;

use crate::spans::{span, Spans};
use crate::{
    add_dispatches, engine_since, no_dispatches, record_engine, stats, Across, Layers, Machine,
    Outcome,
};

/// Rows of both matrices (the load generator's default shape).
const ROWS: usize = 2000;
/// Half bandwidth of the banded matrix.
const BAND: usize = 7;
/// Average row length of the power-law matrix, matching the banded
/// matrix's nonzero count.
const POWERLAW_DEG: usize = 14;
/// Request input seeds cycle through this space, so exact-mode
/// digests are precomputed once.
const SEED_SPACE: u64 = 64;
/// Service lifecycles (start, upload, load, stop). Each carries an
/// equal share of the requests; set-up and job time are the medians
/// over lifecycles.
const LIFECYCLES: usize = 10;
/// `spmv-metricsd` defaults: serve lanes and tuning reps.
const SERVER_LANES: usize = 2;
const TUNE_REPS: usize = 3;
/// Closed-loop client connections.
const CLIENTS: usize = 2;
/// Requests for each second of `--seconds`.
const REQUESTS_PER_SECOND: u64 = 6000;

struct Served {
    name: String,
    body: Vec<u8>,
    /// Serial-reference digest per request seed.
    expected: Vec<u64>,
}

pub struct Input {
    mats: [Served; 2],
    requests: u64,
    spec_base: u64,
}

pub fn prepare(seed: u64, seconds: u64) -> Input {
    let spec_base = seed.wrapping_mul(SEED_SPACE);
    let served = |name: &str, a: Csr| {
        let mut body = Vec::new();
        mm::write_csr(&mut body, &a).expect("serialize matrix");
        let expected = (0..SEED_SPACE)
            .map(|s| {
                let x = build_x(&spec(spec_base, s), a.ncols()).expect("seed spec parses");
                let mut y = vec![0.0; a.nrows()];
                a.spmv(&x, &mut y);
                digest(&y)
            })
            .collect();
        println!("serve-mixed matrix {name}: {} rows, {} nnz", a.nrows(), a.nnz());
        Served { name: name.to_string(), body, expected }
    };
    let banded = gen::banded(ROWS, BAND, 0.9, seed).expect("banded parameters are valid");
    let powerlaw =
        gen::powerlaw(ROWS, POWERLAW_DEG, 2.0, seed).expect("power-law parameters are valid");
    Input {
        mats: [served("banded", banded), served("powerlaw", powerlaw)],
        requests: REQUESTS_PER_SECOND * seconds,
        spec_base,
    }
}

fn spec(base: u64, s: u64) -> String {
    format!("seed {}", base.wrapping_add(s))
}

/// What one service lifecycle measured: its set-up and its share of
/// the load.
#[derive(Default)]
struct Life {
    setup_s: f64,
    register_s: f64,
    upload_failures: u64,
    job_s: f64,
    latency_us: Vec<f64>,
    completed: u64,
    rejected: u64,
    errors: u64,
    mismatches: u64,
    /// `/metrics` counter deltas over the load, in [`SCRAPED`] order.
    server: Vec<f64>,
    trace_events: u64,
    trace_dropped: u64,
    engine: Option<DispatchSnapshot>,
    /// Measured dispatch GFLOP/s the scheduler observed.
    gflops: Vec<f64>,
    bytes_per_nnz: Vec<f64>,
    roofline: Vec<f64>,
}

/// Prometheus counters read from `/metrics` around the load.
const SCRAPED: [&str; 6] = [
    "spmv_serve_completed_total",
    "spmv_serve_batches_total",
    "spmv_serve_batched_requests_total",
    "spmv_serve_rejected_total",
    "spmv_serve_latency_seconds_sum",
    "spmv_serve_latency_seconds_count",
];

fn scrape(addr: &str) -> Vec<f64> {
    let text = http_request(addr, "GET", "/metrics", b"")
        .ok()
        .filter(|(s, _)| *s == 200)
        .map(|(_, b)| String::from_utf8_lossy(&b).into_owned())
        .unwrap_or_default();
    SCRAPED
        .iter()
        .map(|name| {
            text.lines()
                .find_map(|l| l.strip_prefix(name).and_then(|rest| rest.strip_prefix(' ')))
                .and_then(|v| v.trim().parse().ok())
                .unwrap_or(0.0)
        })
        .collect()
}

/// Starts the service, uploads both matrices, runs `requests`
/// requests through the closed loop, and stops the service.
fn lifecycle(input: &Input, nthreads: usize, requests: u64, sp: Option<&Spans>) -> Life {
    let t0 = Instant::now();
    let svc = SpmvService::new(nthreads, TUNE_REPS, DEFAULT_QUEUE_CAP, MAX_BATCH);
    let server = MetricsServer::bind("127.0.0.1:0").expect("bind a loopback port");
    let addr = server.local_addr().expect("bound address").to_string();
    let stop = AtomicBool::new(false);
    let barrier = Barrier::new(CLIENTS);
    let next = AtomicU64::new(0);
    let life =
        Mutex::new(Life { latency_us: Vec::with_capacity(requests as usize), ..Life::default() });
    let engine = ExecEngine::new(1 + SERVER_LANES + CLIENTS);
    engine.run(&|lane| {
        if lane == 0 {
            svc.scheduler().worker_loop();
            return;
        }
        if lane <= SERVER_LANES {
            if let Err(e) = server.serve_with(Some(&svc), Some(&stop), None) {
                eprintln!("perfbench: serve lane {lane}: {e}");
            }
            // First lane out drains the scheduler; idempotent.
            svc.scheduler().shutdown();
            return;
        }
        let lead = lane == 1 + SERVER_LANES;
        if lead {
            let mut l = life.lock().expect("life poisoned");
            for m in &input.mats {
                let t = Instant::now();
                let target = format!("/v1/matrices/{}", m.name);
                let reply =
                    span(sp, "upload", 0, 0, |_| http_request(&addr, "POST", &target, &m.body));
                l.register_s += t.elapsed().as_secs_f64();
                if !matches!(reply, Ok((200, _))) {
                    l.upload_failures += 1;
                }
            }
            l.setup_s = t0.elapsed().as_secs_f64();
        }
        // The lead client reads the counters before and after the load.
        let before = lead.then(|| {
            (scrape(&addr), tracer().recorded(), tracer().dropped(), engine_dispatch().snapshot())
        });
        barrier.wait();
        let t = Instant::now();
        let mine = client_loop(input, &addr, &next, requests, sp);
        barrier.wait();
        let job_s = t.elapsed().as_secs_f64();
        let mut l = life.lock().expect("life poisoned");
        l.latency_us.extend(mine.latency_us);
        l.completed += mine.completed;
        l.rejected += mine.rejected;
        l.errors += mine.errors;
        l.mismatches += mine.mismatches;
        if let Some((scraped, events, dropped, dispatch)) = before {
            l.job_s = job_s;
            l.engine = Some(engine_since(&dispatch));
            l.trace_events = tracer().recorded() - events;
            l.trace_dropped = tracer().dropped() - dropped;
            l.server = scrape(&addr).iter().zip(&scraped).map(|(a, b)| a - b).collect();
            drop(l);
            // Stops the serve lanes, which then drain the scheduler.
            let _ = http_request(&addr, "POST", "/control/stop", b"");
        }
    });
    let mut life = life.into_inner().expect("life poisoned");
    for m in &input.mats {
        let Some(reg) = svc.registry().get(&m.name) else { continue };
        let built = build_micro_kernel(reg.csr(), reg.plan().entry, reg.nthreads());
        life.bytes_per_nnz.push(built.kernel.effective_bytes_per_nnz(reg.nnz()));
        if let Some(s) = spmv_telemetry::monitor().get(&m.name) {
            life.roofline.push(s.attainment);
        }
        let observed = svc.scheduler().observations(&m.name);
        life.gflops.extend(observed.iter().filter(|o| o.ok).map(|o| o.gflops));
    }
    life
}

/// Outcome of one client's share of the closed loop.
#[derive(Default)]
struct ClientLoad {
    latency_us: Vec<f64>,
    completed: u64,
    rejected: u64,
    errors: u64,
    mismatches: u64,
}

/// One closed-loop client: sends the next request only after the
/// previous reply, until the shared request count is used up.
fn client_loop(
    input: &Input,
    addr: &str,
    next: &AtomicU64,
    requests: u64,
    sp: Option<&Spans>,
) -> ClientLoad {
    // Sized up front so the sample buffer never reallocates mid-load.
    let mut out =
        ClientLoad { latency_us: Vec::with_capacity(requests as usize), ..ClientLoad::default() };
    loop {
        // relaxed-ok: a work-claiming counter publishes no other data.
        let i = next.fetch_add(1, Ordering::Relaxed);
        if i >= requests {
            return out;
        }
        let exact = i.is_multiple_of(2);
        let m = &input.mats[((i / 2) % 2) as usize];
        let s = i % SEED_SPACE;
        let target =
            format!("/v1/spmv/{}?digest=1{}", m.name, if exact { "" } else { "&mode=tuned" });
        let body = spec(input.spec_base, s);
        span(sp, "request", 0, i, |id| {
            let t = Instant::now();
            let reply = span(sp, "http_request", id, i, |_| {
                http_request(addr, "POST", &target, body.as_bytes())
            });
            let us = t.elapsed().as_secs_f64() * 1e6;
            span(sp, "verify", id, i, |_| match reply {
                Ok((200, reply)) => {
                    out.completed += 1;
                    out.latency_us.push(us);
                    // Reply shape: `digest <hex> rid <n>`. Exact mode
                    // is bitwise reproducible; tuned mode promises
                    // only tolerance-level agreement, so its digest
                    // is checked for shape.
                    let text = String::from_utf8_lossy(&reply);
                    let t: Vec<&str> = text.split_whitespace().collect();
                    let got = match t.as_slice() {
                        ["digest", d, "rid", r] if r.parse::<u64>().is_ok() => {
                            u64::from_str_radix(d, 16).ok()
                        }
                        _ => None,
                    };
                    if got.is_none() || (exact && got != Some(m.expected[s as usize])) {
                        out.mismatches += 1;
                    }
                }
                Ok((503, _)) => out.rejected += 1,
                Ok(_) | Err(_) => out.errors += 1,
            });
        });
    }
}

pub fn run(input: &Input, nthreads: usize, machine: &Machine, sp: Option<&Spans>) -> Outcome {
    // `spmv-metricsd` runs with the program's tracer enabled.
    tracer().set_enabled(true);
    let hits0 = menu_selection().cache_hits();
    let chunk = input.requests.div_ceil(LIFECYCLES as u64);
    let lives: Vec<Life> = (0..LIFECYCLES)
        .map(|_| {
            // Each lifecycle tunes its uploads afresh.
            clear_plan_cache();
            lifecycle(input, nthreads, chunk, sp)
        })
        .collect();
    let each = |f: fn(&Life) -> f64| lives.iter().map(f).collect::<Vec<f64>>();
    let sum = |f: fn(&Life) -> u64| lives.iter().map(f).sum::<u64>();
    let server =
        |i: usize| lives.iter().map(|l| l.server.get(i).copied().unwrap_or(0.0)).sum::<f64>();
    let jobs = each(|l| l.job_s);
    let completed = sum(|l| l.completed);
    let (rejected, errors, mismatches) =
        (sum(|l| l.rejected), sum(|l| l.errors), sum(|l| l.mismatches));
    let upload_failures = sum(|l| l.upload_failures);
    let latency: Vec<f64> = lives.iter().flat_map(|l| l.latency_us.iter().copied()).collect();

    let mut layers = Layers::default();
    machine.fill_layers(&mut layers);
    let mut dispatch = no_dispatches();
    for d in lives.iter().filter_map(|l| l.engine.as_ref()) {
        add_dispatches(&mut dispatch, d);
    }
    record_engine(&dispatch, &mut layers);
    let last = lives.last().expect("at least one lifecycle");
    let gflops: Vec<f64> = lives.iter().flat_map(|l| l.gflops.iter().copied()).collect();
    layers.set("kernels.gflops", stats::median(&gflops));
    layers.set("kernels.bytes_per_nnz", stats::geomean(&last.bytes_per_nnz));
    layers.set(
        "telemetry.roofline_attainment",
        last.roofline.iter().sum::<f64>() / last.roofline.len().max(1) as f64,
    );
    let server_mean_us = server(4) / server(5).max(1.0) * 1e6;
    let client_mean_us = latency.iter().sum::<f64>() / latency.len().max(1) as f64;
    let (batches, batched) = (server(1), server(2));
    let rps = completed as f64 / jobs.iter().sum::<f64>();
    layers.set("tuner.cache_hits", (menu_selection().cache_hits() - hits0) as f64);
    layers.set("serve.rps", rps);
    layers.set("serve.register_s", stats::median(&each(|l| l.register_s)));
    layers.set("serve.server_us_mean", server_mean_us);
    layers.set("serve.client_us_mean", client_mean_us);
    layers.set("serve.outside_us", client_mean_us - server_mean_us);
    layers.set("serve.batched_share", batched / server(0).max(1.0));
    layers.set("serve.batch_mean", if batches > 0.0 { batched / batches } else { 0.0 });
    layers.set("serve.rejected", server(3));
    layers.set("serve.failed", (errors + mismatches) as f64);
    let (events, dropped) = (sum(|l| l.trace_events), sum(|l| l.trace_dropped));
    layers.set("telemetry.trace_events", events as f64);
    layers.set("telemetry.trace_dropped", dropped as f64);

    let n = latency.len();
    let pct = stats::tail_percentile(n);
    let info = vec![
        format!(
            "serve_rps {rps:.3} req/s ({completed} completed over {LIFECYCLES} lifecycles, \
             {CLIENTS} clients; chunk seconds {})",
            jobs.iter().map(|j| format!("{j:.3}")).collect::<Vec<_>>().join(" ")
        ),
        format!("serve_p50_us {:.3} us (n={n}, pooled)", stats::median(&latency)),
        format!("serve_p{pct}_us {:.3} us (n={n}, pooled)", stats::quantile(&latency, pct / 100.0)),
        format!("server mean {server_mean_us:.3} us, client mean {client_mean_us:.3} us"),
        format!(
            "{batches} batches carrying {batched} request(s); {rejected} rejected, {errors} errors, \
             {mismatches} digest mismatches, {upload_failures} failed uploads"
        ),
        format!("program tracer: {events} events recorded, {dropped} dropped"),
    ];
    Outcome {
        setup_s: stats::median(&each(|l| l.setup_s)),
        // A lifecycle's requests at the median round trip over the
        // closed loop's clients: a stalled request moves the wall time
        // of its lifecycle but not the median.
        job_s: chunk as f64 * stats::median(&each(|l| stats::median(&l.latency_us))) * 1e-6
            / CLIENTS as f64,
        job_wall_s: jobs.iter().sum(),
        op_us: lives.iter().map(|l| l.latency_us.clone()).collect(),
        op_across: Across::Repeats,
        attempted: chunk * LIFECYCLES as u64 + (LIFECYCLES * input.mats.len()) as u64,
        failed: rejected + errors + mismatches + upload_failures,
        layers,
        info,
    }
}
