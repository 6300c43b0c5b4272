//! `perfbench`: the repository benchmark.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload heat-dram|suite-tune|serve-mixed --seed N --seconds S --trace 0|1
//! ```
//!
//! Each workload generates its inputs from `--seed`, sizes its fixed
//! job from `--seconds`, checks every output, and prints report lines
//! followed by one JSON object as the last line of standard output.
//! With `--trace 0` the object carries the end-to-end metrics; with
//! `--trace 1` the job runs once untraced and once traced, and the
//! object carries the per-layer metrics plus the tracing overhead.
//! `perfbench/README.md` defines every metric and the end-to-end
//! metric each layer metric should move.
//!
//! Exit status: 0 when every output checked out, 1 on any correctness
//! failure, 2 on usage errors.

mod heat;
mod serve;
mod spans;
mod stats;
mod suite;

use std::collections::BTreeMap;

use spans::Spans;
use spmv_telemetry::DispatchSnapshot;

const USAGE: &str = "usage: perfbench --workload heat-dram|suite-tune|serve-mixed \
--seed N --seconds S --trace 0|1";

/// Per-layer metrics (`--trace 1`), in report order. Every workload
/// reports all of them; a layer the workload does not exercise reads 0.
const LAYER_METRICS: [(&str, &str); 51] = [
    ("machine.triad_gbps", "GB/s"),
    ("machine.triad_mb", "MB"),
    ("machine.llc_mb", "MB"),
    ("kernels.working_set_mb", "MB"),
    ("kernels.gflops", "GFLOP/s"),
    ("kernels.spmv_ms_p50", "ms"),
    ("kernels.bytes_per_nnz", "B/nnz"),
    ("kernels.attainment", "ratio"),
    ("kernels.imbalance", "ratio"),
    ("engine.dispatches", "count"),
    ("engine.wake_us", "us"),
    ("engine.busy_share", "ratio"),
    ("tuner.setup_s", "s"),
    ("tuner.considered", "count"),
    ("tuner.timed", "count"),
    ("tuner.pruned", "count"),
    ("tuner.pruned_share", "ratio"),
    ("tuner.cache_hits", "count"),
    ("tuner.regret", "ratio"),
    ("tuner.below_baseline", "count"),
    ("tuner.speedup", "ratio"),
    ("sparse.prep_s", "s"),
    ("sparse.features_s", "s"),
    ("solvers.iters", "count"),
    ("solvers.spmv_share", "ratio"),
    ("solvers.vecops_ms_per_iter", "ms"),
    ("serve.rps", "1/s"),
    ("serve.register_s", "s"),
    ("serve.server_us_mean", "us"),
    ("serve.client_us_mean", "us"),
    ("serve.outside_us", "us"),
    ("serve.batched_share", "ratio"),
    ("serve.batch_mean", "count"),
    ("serve.rejected", "count"),
    ("serve.failed", "count"),
    ("telemetry.trace_events", "count"),
    ("telemetry.trace_dropped", "count"),
    ("telemetry.roofline_attainment", "ratio"),
    ("op.p90_us", "us"),
    ("op.tail_us", "us"),
    ("op.samples", "count"),
    ("op.tail_pct", "%"),
    ("peak_rss_mb", "MB"),
    ("host.steal_share", "ratio"),
    ("fail_ratio", "ratio"),
    ("job.untraced_s", "s"),
    ("job.traced_s", "s"),
    ("job.wall_s", "s"),
    ("trace.overhead_s", "s"),
    ("trace.overhead_share", "ratio"),
    ("trace.spans", "count"),
];

/// Per-layer values of one run, keyed by [`LAYER_METRICS`] names.
#[derive(Default)]
pub struct Layers(BTreeMap<&'static str, f64>);

impl Layers {
    pub fn set(&mut self, name: &'static str, value: f64) {
        assert!(
            LAYER_METRICS.iter().any(|(n, _)| *n == name),
            "{name} is not a declared per-layer metric"
        );
        self.0.insert(name, value);
    }
}

/// What one pass of a workload measured.
pub struct Outcome {
    /// Median set-up seconds over the pass's set-up repetitions.
    pub setup_s: f64,
    /// Seconds of the fixed job, from medians over its repeated parts.
    pub job_s: f64,
    /// Wall seconds of all the pass's repetitions of the job.
    pub job_wall_s: f64,
    /// Raw per-operation latency samples in microseconds, one vector
    /// per input or per repetition of the job.
    pub op_us: Vec<Vec<f64>>,
    /// How the per-vector percentiles of `op_us` combine.
    pub op_across: Across,
    pub attempted: u64,
    pub failed: u64,
    pub layers: Layers,
    /// Report lines printed before the JSON result.
    pub info: Vec<String>,
}

/// How per-vector latency percentiles combine into one figure.
pub enum Across {
    /// Different inputs (suite matrices): geometric mean.
    Inputs,
    /// Repetitions of one job (service lifecycles): median, so one
    /// repetition hit by host noise does not move the figure.
    Repeats,
}

impl Outcome {
    /// `(p50, p90, tail, tail percentile, samples)` of the operation
    /// latencies. The tail percentile is the highest with at least
    /// ten samples beyond it in the smallest sample vector.
    fn op_latency(&self) -> (f64, f64, f64, f64, usize) {
        let fewest = self.op_us.iter().map(Vec::len).min().unwrap_or(0);
        let pct = stats::tail_percentile(fewest);
        let combine = |q: f64| {
            let per: Vec<f64> = self.op_us.iter().map(|s| stats::quantile(s, q)).collect();
            match self.op_across {
                Across::Inputs => stats::geomean(&per),
                Across::Repeats => stats::median(&per),
            }
        };
        let total = self.op_us.iter().map(Vec::len).sum();
        (combine(0.5), combine(0.9), combine(pct / 100.0), pct, total)
    }
}

struct Args {
    workload: String,
    seed: u64,
    seconds: u64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut it = argv.iter();
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let num = || value.parse::<u64>().map_err(|_| format!("bad {flag} value {value:?}"));
        match flag.as_str() {
            "--workload" => workload = Some(value.clone()),
            "--seed" => seed = Some(num()?),
            "--seconds" => seconds = Some(num()?),
            "--trace" => trace = Some(num()?),
            _ => return Err(format!("unknown flag {flag:?}")),
        }
    }
    let workload = workload.ok_or("--workload is required")?;
    if !matches!(workload.as_str(), "heat-dram" | "suite-tune" | "serve-mixed") {
        return Err(format!("unknown workload {workload:?}"));
    }
    let trace = match trace.unwrap_or(0) {
        0 => false,
        1 => true,
        t => return Err(format!("bad --trace value {t} (0|1)")),
    };
    Ok(Args {
        workload,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?.max(1),
        trace,
    })
}

fn main() {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}\n{USAGE}");
            std::process::exit(2);
        }
    };
    let nthreads = std::thread::available_parallelism().map(|n| n.get()).unwrap_or(1);
    println!(
        "perfbench {} seed {} seconds {} trace {} nthreads {nthreads}",
        args.workload, args.seed, args.seconds, args.trace as u8
    );
    // heat-dram always measures its bound; the other workloads need it
    // only for the per-layer attainment of the traced run.
    let machine = Machine::probe(args.trace || args.workload == "heat-dram");
    println!("{} {}", args.workload, machine.describe());
    let ok = match args.workload.as_str() {
        "heat-dram" => {
            let input = heat::prepare(args.seed, args.seconds, &machine);
            measure(&args, |sp| heat::run(&input, nthreads, &machine, sp))
        }
        "suite-tune" => {
            let input = suite::prepare(args.seed, args.seconds);
            measure(&args, |sp| suite::run(&input, nthreads, &machine, sp))
        }
        _ => {
            let input = serve::prepare(args.seed, args.seconds);
            measure(&args, |sp| serve::run(&input, nthreads, &machine, sp))
        }
    };
    if !ok {
        eprintln!("perfbench: FAILED: an output did not check out (see fail_ratio)");
        std::process::exit(1);
    }
}

/// Runs the workload untraced (and, with `--trace 1`, again traced),
/// prints the report and the JSON result, and returns whether every
/// output checked out.
fn measure(args: &Args, run: impl Fn(Option<&Spans>) -> Outcome) -> bool {
    // Input generation is excluded: peak memory counts from here on.
    let rss_reset = reset_peak_rss();
    let cpu0 = cpu_ticks();
    let plain = run(None);
    let steal = steal_share(&cpu0, &cpu_ticks());
    let peak_rss_mb = peak_rss_mb();
    let (p50, p90, tail, pct, samples) = plain.op_latency();
    let wl = &args.workload;
    for line in &plain.info {
        println!("{wl} {line}");
    }
    println!("{wl} setup_s {:.6} s", plain.setup_s);
    println!("{wl} job_s {:.6} s", plain.job_s);
    println!("{wl} op_p50_us {p50:.3} us (n={samples})");
    println!("{wl} op.p90_us {p90:.3} us (n={samples})");
    println!("{wl} op.tail_us {tail:.3} us (p{pct}, n={samples})");
    println!(
        "{wl} peak_rss_mb {peak_rss_mb:.3} MB ({})",
        if rss_reset { "after input generation" } else { "whole process" }
    );
    println!("{wl} host steal {:.1}% of cpu time during the run", steal * 100.0);
    println!(
        "{wl} fail_ratio {} ({}/{})",
        plain.failed as f64 / plain.attempted.max(1) as f64,
        plain.failed,
        plain.attempted
    );

    let (attempted, failed, metrics) = if args.trace {
        let spans = Spans::new();
        let mut traced = run(Some(&spans));
        let path = std::path::Path::new(env!("CARGO_MANIFEST_DIR"))
            .join("out")
            .join(format!("spans-{wl}-seed{}.jsonl", args.seed));
        match spans.write(&path) {
            Ok(()) => println!("{wl} spans written to {}", path.display()),
            Err(e) => eprintln!("perfbench: cannot write {}: {e}", path.display()),
        }
        for line in &traced.info {
            println!("{wl} traced {line}");
        }
        for (name, n, total, own) in spans.summary().iter().take(12) {
            println!("{wl} span {name:<16} n={n:<6} total {total:.6} s self {own:.6} s");
        }
        let (_, p90, tail, pct, samples) = traced.op_latency();
        let attempted = plain.attempted + traced.attempted;
        let failed = plain.failed + traced.failed;
        let l = &mut traced.layers;
        l.set("op.p90_us", p90);
        l.set("op.tail_us", tail);
        l.set("op.samples", samples as f64);
        l.set("op.tail_pct", pct);
        l.set("peak_rss_mb", peak_rss_mb);
        l.set("host.steal_share", steal);
        l.set("fail_ratio", failed as f64 / attempted.max(1) as f64);
        l.set("job.untraced_s", plain.job_s);
        l.set("job.traced_s", traced.job_s);
        l.set("job.wall_s", plain.job_wall_s);
        l.set("trace.overhead_s", traced.job_s - plain.job_s);
        l.set("trace.overhead_share", (traced.job_s - plain.job_s) / plain.job_s);
        l.set("trace.spans", spans.len() as f64);
        println!(
            "{wl} tracing overhead {:+.6} s on a {:.6} s job ({:+.2}%)",
            traced.job_s - plain.job_s,
            plain.job_s,
            (traced.job_s / plain.job_s - 1.0) * 100.0
        );
        let metrics: Vec<(&str, f64, &str)> = LAYER_METRICS
            .iter()
            .map(|&(name, unit)| (name, traced.layers.0.get(name).copied().unwrap_or(0.0), unit))
            .collect();
        (attempted, failed, metrics)
    } else {
        let metrics = vec![
            ("setup_s", plain.setup_s, "s"),
            ("job_s", plain.job_s, "s"),
            ("op_p50_us", p50, "us"),
        ];
        (plain.attempted, plain.failed, metrics)
    };
    let body: Vec<String> = metrics
        .iter()
        .map(|(name, value, unit)| {
            format!("\"{name}\": {{\"value\": {}, \"unit\": \"{unit}\"}}", json_number(*value))
        })
        .collect();
    println!(
        "{{\"correct\": {}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{{}}}}}",
        failed == 0,
        body.join(", ")
    );
    failed == 0
}

/// A finite JSON number with every digit the measurement has.
fn json_number(v: f64) -> String {
    if v.is_finite() {
        format!("{v:?}")
    } else {
        "0.0".to_string()
    }
}

/// Resets the kernel's peak-RSS mark for this process, so the peak
/// covers only what runs after input generation. Returns false when
/// the kernel refuses; the peak then covers the whole process.
fn reset_peak_rss() -> bool {
    std::fs::write("/proc/self/clear_refs", "5").is_ok()
}

/// The aggregate `cpu` line of `/proc/stat` (empty if unreadable).
fn cpu_ticks() -> Vec<u64> {
    let stat = std::fs::read_to_string("/proc/stat").unwrap_or_default();
    stat.lines()
        .next()
        .and_then(|l| l.strip_prefix("cpu "))
        .map(|l| l.split_whitespace().filter_map(|v| v.parse().ok()).collect())
        .unwrap_or_default()
}

/// Share of all CPU time between two `/proc/stat` readings that the
/// hypervisor gave to other guests (the 8th field, `steal`): wall-time
/// metrics of a run with a high share read slow for reasons outside
/// the program.
fn steal_share(before: &[u64], after: &[u64]) -> f64 {
    let delta: Vec<u64> = after.iter().zip(before).map(|(a, b)| a - b).collect();
    let total: u64 = delta.iter().sum();
    match delta.get(7) {
        Some(&steal) if total > 0 => steal as f64 / total as f64,
        _ => 0.0,
    }
}

/// Peak resident set (`VmHWM`) of this process in MB; 0 if unknown.
fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(0.0, |kb| kb / 1024.0)
}

/// The process-wide engine dispatch counters since `before`.
pub fn engine_since(before: &DispatchSnapshot) -> DispatchSnapshot {
    let now = spmv_telemetry::metrics::engine_dispatch().snapshot();
    DispatchSnapshot {
        dispatches: now.dispatches - before.dispatches,
        threads: now.threads - before.threads,
        wall_seconds: now.wall_seconds - before.wall_seconds,
        busy_seconds: now.busy_seconds - before.busy_seconds,
        max_busy_seconds: now.max_busy_seconds - before.max_busy_seconds,
    }
}

/// An empty dispatch-counter delta.
pub fn no_dispatches() -> DispatchSnapshot {
    DispatchSnapshot {
        dispatches: 0,
        threads: 0,
        wall_seconds: 0.0,
        busy_seconds: 0.0,
        max_busy_seconds: 0.0,
    }
}

/// Adds dispatch-counter delta `d` into `total`.
pub fn add_dispatches(total: &mut DispatchSnapshot, d: &DispatchSnapshot) {
    total.dispatches += d.dispatches;
    total.threads += d.threads;
    total.wall_seconds += d.wall_seconds;
    total.busy_seconds += d.busy_seconds;
    total.max_busy_seconds += d.max_busy_seconds;
}

/// Records the engine layer from a dispatch-counter delta.
pub fn record_engine(d: &DispatchSnapshot, layers: &mut Layers) {
    layers.set("engine.dispatches", d.dispatches as f64);
    layers.set("engine.wake_us", d.wake_latency_seconds() * 1e6);
    let team_wall = d.wall_seconds * d.threads as f64 / d.dispatches.max(1) as f64;
    layers.set("engine.busy_share", if team_wall > 0.0 { d.busy_seconds / team_wall } else { 0.0 });
}

/// LLC assumed when the host does not expose its cache sizes.
const ASSUMED_LLC_BYTES: usize = 128 << 20;

/// The host's last-level cache and its measured STREAM-triad bound.
pub struct Machine {
    pub llc_bytes: usize,
    llc_known: bool,
    triad: Option<spmv_machine::stream::TriadResult>,
}

impl Machine {
    /// Reads the LLC size and, when `triad`, measures the triad on
    /// arrays of four times the LLC each, so it reads main memory.
    fn probe(triad: bool) -> Machine {
        let (llc_bytes, llc_known) = match llc_bytes() {
            Some(b) => (b, true),
            None => (ASSUMED_LLC_BYTES, false),
        };
        let triad = triad.then(|| spmv_machine::stream::measure_triad(4 * llc_bytes / 8, 5));
        Machine { llc_bytes, llc_known, triad }
    }

    fn describe(&self) -> String {
        let llc = format!(
            "llc {:.1} MiB ({})",
            mib(self.llc_bytes),
            if self.llc_known { "sysfs" } else { "assumed" }
        );
        match &self.triad {
            Some(t) => format!(
                "{llc}; triad {:.3} GB/s on a {:.1} MiB working set (3 arrays, each {:.1}x the llc)",
                t.gbps,
                mib(t.working_set_bytes),
                t.working_set_bytes as f64 / 3.0 / self.llc_bytes as f64
            ),
            None => format!("{llc}; triad not measured in this run"),
        }
    }

    /// Records the machine layer and returns the triad bound in GB/s
    /// (0 when not measured).
    pub fn fill_layers(&self, layers: &mut Layers) -> f64 {
        layers.set("machine.llc_mb", mib(self.llc_bytes));
        let Some(t) = &self.triad else {
            return 0.0;
        };
        layers.set("machine.triad_gbps", t.gbps);
        layers.set("machine.triad_mb", mib(t.working_set_bytes));
        t.gbps
    }
}

/// Bytes in MiB.
pub fn mib(bytes: usize) -> f64 {
    bytes as f64 / (1u64 << 20) as f64
}

/// Size of the last-level cache from sysfs, if the host exposes it.
fn llc_bytes() -> Option<usize> {
    let base = "/sys/devices/system/cpu/cpu0/cache";
    (0..8)
        .filter_map(|i| {
            let level = std::fs::read_to_string(format!("{base}/index{i}/level")).ok()?;
            let size = std::fs::read_to_string(format!("{base}/index{i}/size")).ok()?;
            let size = size.trim();
            let bytes = match size.strip_suffix('K') {
                Some(k) => k.parse::<usize>().ok()? << 10,
                None => match size.strip_suffix('M') {
                    Some(m) => m.parse::<usize>().ok()? << 20,
                    None => size.parse::<usize>().ok()?,
                },
            };
            Some((level.trim().parse::<u32>().ok()?, bytes))
        })
        .max()
        .map(|(_, bytes)| bytes)
}

/// Deterministic pseudo-random values in `[0, 1)` from `seed`
/// (SplitMix64), for seeded right-hand sides and input vectors.
pub fn seeded_vec(n: usize, seed: u64) -> Vec<f64> {
    let mut s = seed;
    (0..n)
        .map(|_| {
            s = s.wrapping_add(0x9e37_79b9_7f4a_7c15);
            let mut z = s;
            z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
            z ^= z >> 31;
            (z >> 11) as f64 / (1u64 << 53) as f64
        })
        .collect()
}

/// The telemetry roofline monitor's attainment for `gflops` measured
/// against the host model's `bound_gflops`.
pub fn roofline_attainment(name: &str, bound_gflops: f64, gflops: f64) -> f64 {
    let monitor = spmv_telemetry::monitor();
    match monitor.register(name, bound_gflops) {
        Some(id) => {
            monitor.observe(id, gflops);
            monitor.get(name).map_or(0.0, |s| s.attainment)
        }
        None => 0.0,
    }
}
