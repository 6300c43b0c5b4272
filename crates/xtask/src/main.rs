//! Workspace task runner.
//!
//! * `cargo xtask audit [--root DIR]` — the item-level semantic
//!   analyzer for the workspace's `unsafe` SpMV fast paths (see
//!   DESIGN.md, "Safety & invariants" and "Model checking & semantic
//!   audit").
//! * `cargo xtask check [--model NAME] [--demo-mutant PROTO/MUTANT]`
//!   — exhaustively model-checks the lock-free protocols under every
//!   interleaving and weak-memory read the bounded-preemption cut
//!   admits (crates/check), and proves the checker's teeth by
//!   flagging every seeded mutant.
//! * `cargo xtask bench [-- --scale small|full|<f64>] [--out PATH]`
//!   — builds the `bench_trajectory` binary in release mode and
//!   writes the simulated `BENCH_spmv.json` at the repo root;
//!   `cargo xtask bench --compare OLD.json NEW.json` runs the
//!   regression gate instead (see DESIGN.md, "Telemetry & the
//!   benchmark trajectory").
//!
//! The audit enforces fifteen policies over every `.rs` file
//! in the repository (vendored deps and build output excluded) —
//! nine lexical/item-level policies here, three interprocedural
//! dataflow policies over the workspace call graph in [`flow`], and
//! three concurrency-effects policies over the lock-order graph in
//! [`locks`]:
//!
//! 1. **SAFETY comments** — every `unsafe` occurrence (block, fn,
//!    impl) is immediately preceded by a `// SAFETY:` comment or a
//!    `# Safety` doc section naming the invariant it relies on.
//! 2. **Unchecked-access containment** — `get_unchecked`,
//!    `from_raw_parts`, and raw-pointer arithmetic (`.add(` inside an
//!    `unsafe` context) appear only in the allowlisted kernel/format
//!    modules whose fast paths are gated by `spmv_sparse::Validated`
//!    witnesses. Safe methods named `add` are recognized as such by
//!    the item-level parse and never flagged.
//! 3. **Thread containment** — `thread::spawn` / `thread::scope`
//!    appear only in the execution engine (`crates/kernels/src/
//!    engine.rs`); all other parallelism goes through `ExecEngine`.
//! 4. **Ordering justification** — every non-SeqCst atomic ordering
//!    (`Relaxed`, `Acquire`, `Release`, `AcqRel`) inside the engine
//!    modules *and the telemetry crate* must carry its marker comment
//!    (`relaxed-ok`, `acquire-ok`, `release-ok`, `acqrel-ok`) — on
//!    the use site or in the enclosing function's doc block —
//!    justifying it against the dispatch handshake. Findings resolve
//!    to the enclosing item; `#[cfg(test)]` spans are exempt.
//! 5. **Telemetry lock-freedom** — `crates/telemetry` must never
//!    take a lock or block (`Mutex`, `RwLock`, `Condvar`, `Barrier`,
//!    `mpsc`): its hot-path counters ride inside kernel dispatch,
//!    where blocking would invalidate the measurements it exists to
//!    take. (Thread creation there is already banned by policy 3.)
//! 6. **Socket containment** — network types (`TcpListener`,
//!    `TcpStream`, `UdpSocket`, …) appear only in the metrics
//!    exporter module (`crates/telemetry/src/exposition.rs`); no
//!    other code opens or accepts connections, so the workspace's
//!    entire network surface is one auditable file.
//! 7. **Panic safety** — the dispatch and telemetry hot paths (the
//!    functions in [`HOT_PATHS`]) must not `unwrap`, `expect`, or
//!    index without a `panic-ok` / `indexing-ok` marker: a panic
//!    mid-dispatch poisons the engine's handshake for every lane.
//! 8. **Cast narrowing** — `as u8`/`as u16`/`as u32` on index-typed
//!    values in `crates/sparse/src` must go through checked helpers
//!    (`try_from`, `index_u32`) or carry a `cast-ok` marker naming
//!    the bound; silent truncation on a >4G-nonzero matrix corrupts
//!    the format, not the error path. Test spans are exempt.
//! 9. **SIMD containment** — explicit SIMD (`core::arch`,
//!    `target_feature`, `is_x86_feature_detected`) appears only in
//!    the microkernel menu module (`crates/kernels/src/micro/`),
//!    where every intrinsic is paired with its bitwise-identical
//!    scalar twin; elsewhere a `simd-ok` marker must name why the
//!    site cannot live behind the menu (e.g. a bare prefetch hint).
//! 10. **witness-flow** — every call path from a public safe
//!     function to an unchecked kernel fast path must pass a
//!     `Validated`/`MaybeValidated` witness or a `witness-ok` item.
//! 11. **panic-flow** — the panic-safety root set is closed under
//!     the call graph: reachable `unwrap`/`expect`/unmarked indexing
//!     is flagged with its full call chain.
//! 12. **hot-path-alloc** — no allocation (`Vec::push`, `Box::new`,
//!     `format!`, `String::from`, `to_string`, `collect`) reachable
//!     from the dispatch roots without an `alloc-ok` marker.
//! 13. **lock-order** — a cycle in the acquired-while-holding graph
//!     (held-lock sets propagated along call edges) is a potential
//!     deadlock; findings render every constituent acquisition
//!     chain. `lock-order-ok:` justifies an intentional hierarchy,
//!     and every named mutex in a multi-lock chain must be declared
//!     by a `models-lock:` comment in a `crates/check` protocol
//!     model or carry a `model-ok:` marker.
//! 14. **blocking-in-hot-path** — no `Mutex::lock`, `RwLock` guard,
//!     `Condvar::wait`, or TCP socket transitively reachable from
//!     the dispatch/microkernel roots without `blocking-ok:`.
//! 15. **condvar-discipline** — every `wait` sits in a loop
//!     re-checking its predicate, is paired with the mutex whose
//!     guard it consumes, and holds no second lock across the wait;
//!     notifies on paired condvars must mutate under the paired
//!     mutex (lost-wakeup). `condvar-ok:` justifies exceptions.
//!
//! The audit first runs a self-test over `crates/xtask/fixtures/`:
//! deliberately violating snippets it must flag, plus clean files it
//! must not. A scanner regression therefore fails the audit itself.
//!
//! Exit codes are stable and part of the CLI contract: **0** — scan
//! completed with no findings outside the committed baseline
//! (`crates/xtask/audit-baseline.txt`); **1** — at least one
//! non-baselined finding; **2** — internal error (self-test failure,
//! unreadable file, bad usage). `--json` emits the machine-readable
//! findings document (schema `spmv-audit/1`) on stdout; `--annotate`
//! emits GitHub `::error file=…` workflow commands for CI;
//! `--strict` turns stale baseline entries (key matches nothing)
//! from a warning into a hard failure; `--dot FILE` writes the
//! lock-order graph as Graphviz DOT; `--demo` scans the seeded
//! deadlock fixture crate and renders its cycle finding.
//!
//! No external dependencies beyond the in-tree `spmv-check`: the
//! scanner is a hand-rolled lexer that strips string literals and
//! separates comments from code while preserving line numbers (so
//! audit patterns never match themselves), plus a brace-matching
//! item parser ([`parse`]) that recovers fn/mod/impl spans, test
//! gating, and unsafe contexts.

mod flow;
mod locks;
mod parse;

use std::path::{Path, PathBuf};
use std::process::ExitCode;

use parse::{extract_calls, extract_locks, parse_items, CallSite, Items, LockSite};
use spmv_telemetry::JsonValue;

const USAGE: &str = "usage: cargo xtask <audit|check|bench>";

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match args.first().map(String::as_str) {
        Some("audit") => run_audit(&args[1..]),
        Some("check") => run_check(&args[1..]),
        Some("bench") => run_bench(&args[1..]),
        Some(other) => {
            eprintln!("unknown task `{other}`\n\n{USAGE}");
            ExitCode::FAILURE
        }
        None => {
            eprintln!("{USAGE}");
            ExitCode::FAILURE
        }
    }
}

/// `cargo xtask check` — runs the concurrency model checker over
/// every extracted protocol: the real implementations must pass
/// exhaustively, and every seeded mutant must be flagged with an
/// interleaving trace. `--model NAME` restricts to one protocol;
/// `--demo-mutant PROTO/MUTANT` explores a single mutant and prints
/// its counterexample trace (exiting nonzero, since a failure was
/// found — useful for demos and for exercising the trace renderer).
fn run_check(args: &[String]) -> ExitCode {
    use spmv_check::{explore, models, Config, Outcome};

    let mut only_model: Option<&str> = None;
    let mut demo_mutant: Option<&str> = None;
    let mut it = args.iter();
    while let Some(a) = it.next() {
        match a.as_str() {
            "--model" => match it.next() {
                Some(name) => only_model = Some(name),
                None => {
                    eprintln!("check: --model requires a protocol name");
                    return ExitCode::FAILURE;
                }
            },
            "--demo-mutant" => match it.next() {
                Some(spec) => demo_mutant = Some(spec),
                None => {
                    eprintln!("check: --demo-mutant requires PROTOCOL/MUTANT");
                    return ExitCode::FAILURE;
                }
            },
            other => {
                eprintln!("check: unknown flag `{other}`");
                return ExitCode::FAILURE;
            }
        }
    }

    let cfg = Config::new();

    if let Some(spec) = demo_mutant {
        let Some((proto_name, mutant_name)) = spec.split_once('/') else {
            eprintln!("check: --demo-mutant takes PROTOCOL/MUTANT, got `{spec}`");
            return ExitCode::FAILURE;
        };
        let Some(proto) = models::find(proto_name) else {
            eprintln!("check: unknown protocol `{proto_name}`");
            return ExitCode::FAILURE;
        };
        let Some(mutant) = proto.mutants.iter().find(|m| m.name == mutant_name) else {
            eprintln!("check: protocol `{proto_name}` has no mutant `{mutant_name}`");
            return ExitCode::FAILURE;
        };
        eprintln!("demo: {}/{} — {}", proto.name, mutant.name, mutant.about);
        return match explore(&mutant.build, cfg) {
            Outcome::Fail(f) => {
                eprint!("{}", f.render());
                // A counterexample was found, which is the point of
                // the demo — but the exit code still reports it.
                ExitCode::FAILURE
            }
            other => {
                eprintln!("check: mutant unexpectedly survived: {other:?}");
                ExitCode::FAILURE
            }
        };
    }

    let selected: Vec<_> =
        models::protocols().iter().filter(|p| only_model.is_none_or(|m| m == p.name)).collect();
    if selected.is_empty() {
        let names: Vec<&str> = models::protocols().iter().map(|p| p.name).collect();
        eprintln!(
            "check: unknown model `{}`; available: {}",
            only_model.unwrap_or(""),
            names.join(", ")
        );
        return ExitCode::FAILURE;
    }

    let started = std::time::Instant::now();
    let mut failed = false;
    for proto in &selected {
        match explore(&proto.build, cfg) {
            Outcome::Pass(stats) => {
                println!(
                    "check OK: {} — {} executions, {} steps, depth {}",
                    proto.name, stats.executions, stats.total_steps, stats.max_depth
                );
            }
            Outcome::Fail(f) => {
                eprintln!("check FAILED: {} (real implementation model)", proto.name);
                eprint!("{}", f.render());
                failed = true;
            }
            Outcome::BudgetExhausted(stats) => {
                eprintln!(
                    "check FAILED: {} — execution budget exhausted after {} executions",
                    proto.name, stats.executions
                );
                failed = true;
            }
        }
        for mutant in proto.mutants {
            match explore(&mutant.build, cfg) {
                Outcome::Fail(f) => {
                    println!(
                        "check OK: {}/{} flagged ({:?} after {} executions)",
                        proto.name, mutant.name, f.kind, f.stats.executions
                    );
                }
                other => {
                    eprintln!(
                        "check FAILED: seeded mutant {}/{} was NOT flagged: {other:?}",
                        proto.name, mutant.name
                    );
                    failed = true;
                }
            }
        }
    }
    let elapsed = started.elapsed();
    if failed {
        eprintln!("check FAILED ({elapsed:.2?})");
        ExitCode::FAILURE
    } else {
        println!(
            "check OK: {} protocol(s) exhausted, all mutants flagged ({elapsed:.2?})",
            selected.len()
        );
        ExitCode::SUCCESS
    }
}

/// `cargo xtask bench [-- ...]` — builds and runs the
/// `bench_trajectory` binary in release mode with the repo root as
/// working directory, so `BENCH_spmv.json` lands next to Cargo.toml.
/// Everything after an optional leading `--` is forwarded verbatim.
///
/// `cargo xtask bench --compare OLD.json NEW.json [...]` runs the
/// `bench_compare` regression gate instead, preserving its exit code
/// (non-zero on regression), so CI can call one task for both sides.
fn run_bench(args: &[String]) -> ExitCode {
    let forwarded = args.strip_prefix(&["--".to_string()][..]).unwrap_or(args);
    let (bin, forwarded): (&str, &[String]) = match forwarded.first().map(String::as_str) {
        Some("--compare") => ("bench_compare", &forwarded[1..]),
        _ => ("bench_trajectory", forwarded),
    };
    let cargo = std::env::var("CARGO").unwrap_or_else(|_| "cargo".to_string());
    let status = std::process::Command::new(cargo)
        .args(["run", "--release", "-p", "spmv-bench", "--bin", bin, "--"])
        .args(forwarded)
        .current_dir(repo_root())
        .status();
    match status {
        Ok(s) if s.success() => ExitCode::SUCCESS,
        Ok(s) => {
            eprintln!("{bin} exited with {s}");
            // Keep the binary's own code (1 = regression, 2 = usage or
            // incomparable input) so callers can tell them apart.
            s.code().and_then(|c| u8::try_from(c).ok()).map_or(ExitCode::FAILURE, ExitCode::from)
        }
        Err(e) => {
            eprintln!("cannot launch cargo: {e}");
            ExitCode::FAILURE
        }
    }
}

/// Repository root: two levels above this crate's manifest.
fn repo_root() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR"))
        .ancestors()
        .nth(2)
        .expect("crates/xtask sits two levels below the repo root")
        .to_path_buf()
}

/// Audit exit codes — stable, documented, and pinned by
/// `tests/cli.rs`: clean (or fully baselined) scan, non-baselined
/// findings, internal error.
const EXIT_FINDINGS: u8 = 1;
const EXIT_INTERNAL: u8 = 2;

/// Default baseline location, relative to the scan root.
const BASELINE_REL: &str = "crates/xtask/audit-baseline.txt";

/// `cargo xtask audit [--root DIR] [--json] [--annotate]
/// [--baseline FILE] [--strict] [--dot FILE] [--demo]` — self-tests
/// the scanner against the fixtures (always from this crate's own
/// tree), then scans every workspace `.rs` file under `DIR`
/// (default: the repo root).
///
/// Human-readable findings go to stderr. `--json` writes the
/// `spmv-audit/1` findings document to stdout; `--annotate` writes
/// GitHub `::error` workflow commands to stdout instead. Findings
/// whose key appears in the baseline file are reported but do not
/// affect the exit code — unless `--strict`, which also turns stale
/// baseline entries into hard failures so the committed baseline
/// cannot rot. `--dot FILE` writes the workspace lock-order graph as
/// Graphviz DOT. `--demo` scans only the seeded deadlock fixture
/// crate (`fixtures/lockgraph/`) and renders its lock-order cycle —
/// exit codes are 0 (clean), 1 (non-baselined findings; always the
/// case for `--demo`), 2 (internal error).
fn run_audit(args: &[String]) -> ExitCode {
    let mut scan_root = repo_root();
    let mut json = false;
    let mut annotate = false;
    let mut strict = false;
    let mut demo = false;
    let mut dot_path: Option<PathBuf> = None;
    let mut baseline_path: Option<PathBuf> = None;
    let mut it = args.iter();
    while let Some(a) = it.next() {
        match a.as_str() {
            "--root" => match it.next() {
                Some(p) => scan_root = PathBuf::from(p),
                None => {
                    eprintln!("audit: --root requires a directory");
                    return ExitCode::from(EXIT_INTERNAL);
                }
            },
            "--baseline" => match it.next() {
                Some(p) => baseline_path = Some(PathBuf::from(p)),
                None => {
                    eprintln!("audit: --baseline requires a file");
                    return ExitCode::from(EXIT_INTERNAL);
                }
            },
            "--dot" => match it.next() {
                Some(p) => dot_path = Some(PathBuf::from(p)),
                None => {
                    eprintln!("audit: --dot requires a file");
                    return ExitCode::from(EXIT_INTERNAL);
                }
            },
            "--json" => json = true,
            "--annotate" => annotate = true,
            "--strict" => strict = true,
            "--demo" => demo = true,
            other => {
                eprintln!("audit: unknown flag `{other}`");
                return ExitCode::from(EXIT_INTERNAL);
            }
        }
    }

    if !scan_root.is_dir() {
        eprintln!("audit: root {} is not a directory", scan_root.display());
        return ExitCode::from(EXIT_INTERNAL);
    }

    if let Err(e) = self_test(&repo_root()) {
        eprintln!("audit self-test FAILED: {e}");
        return ExitCode::from(EXIT_INTERNAL);
    }

    if demo {
        return run_demo();
    }

    let mut files = Vec::new();
    collect_rs_files(&scan_root, &scan_root, &mut files);
    files.sort();

    let mut sources = Vec::new();
    for file in &files {
        match std::fs::read_to_string(scan_root.join(file)) {
            Ok(t) => sources.push((file.clone(), t)),
            Err(e) => {
                eprintln!("audit: cannot read {file}: {e}");
                return ExitCode::from(EXIT_INTERNAL);
            }
        }
    }
    let (mut findings, lock_graph) = audit_files_full(&sources);
    if let Some(dot) = &dot_path {
        if let Err(e) = std::fs::write(dot, lock_graph.to_dot()) {
            eprintln!("audit: cannot write {}: {e}", dot.display());
            return ExitCode::from(EXIT_INTERNAL);
        }
        eprintln!(
            "audit: wrote lock-order graph ({} edge(s)) to {}",
            lock_graph.edge_count(),
            dot.display()
        );
    }

    // Baseline: suppressed finding keys, committed with justification
    // comments. An explicitly-passed file must exist; the default
    // location may be absent (empty baseline).
    let (baseline_file, explicit) = match baseline_path {
        Some(p) => (p, true),
        None => (scan_root.join(BASELINE_REL), false),
    };
    let baseline = match load_baseline(&baseline_file, explicit) {
        Ok(b) => b,
        Err(e) => {
            eprintln!("audit: {e}");
            return ExitCode::from(EXIT_INTERNAL);
        }
    };
    for f in &mut findings {
        f.baselined = baseline.iter().any(|k| k == &f.key());
    }
    let stale: Vec<&String> =
        baseline.iter().filter(|k| !findings.iter().any(|f| &f.key() == *k)).collect();
    for k in &stale {
        eprintln!("audit: stale baseline entry (no matching finding): {k}");
    }

    let new_count = findings.iter().filter(|f| !f.baselined).count();
    let baselined_count = findings.len() - new_count;

    for f in &findings {
        if !f.baselined {
            eprintln!("{}", f.render());
        }
    }
    if annotate {
        for f in findings.iter().filter(|f| !f.baselined) {
            // GitHub workflow command; `::` in the message would end
            // the command prematurely, so render plain.
            println!(
                "::error file={},line={},title=audit {}::{}",
                f.file,
                f.line,
                f.policy,
                f.message.replace('\n', " ")
            );
        }
    }
    if json {
        println!("{}", findings_json(&files, &findings, &stale).render_pretty(2));
    } else if new_count == 0 {
        println!(
            "audit OK: {} files scanned, {} finding(s), {} baselined",
            files.len(),
            findings.len(),
            baselined_count
        );
    }
    if strict && !stale.is_empty() {
        eprintln!(
            "audit FAILED: {} stale baseline entr{} (--strict): prune {}",
            stale.len(),
            if stale.len() == 1 { "y" } else { "ies" },
            baseline_file.display()
        );
        return ExitCode::from(EXIT_FINDINGS);
    }
    if new_count == 0 {
        ExitCode::SUCCESS
    } else {
        eprintln!(
            "audit FAILED: {} non-baselined finding(s) ({} baselined) in {} files scanned",
            new_count,
            baselined_count,
            files.len()
        );
        ExitCode::from(EXIT_FINDINGS)
    }
}

/// `cargo xtask audit --demo` — scans the seeded lock-order mutant
/// fixture crate (a scheduler that resolves the registry under its
/// queue mutex, and a registry that drains the queue under its own
/// lock: a classic two-lock deadlock) and renders the resulting
/// cycle finding with both acquisition chains. Exits 1, since a
/// finding was (deliberately) found — same contract as
/// `cargo xtask check --demo-mutant`.
fn run_demo() -> ExitCode {
    let dir = repo_root().join("crates/xtask/fixtures/lockgraph");
    let mut sources = Vec::new();
    for (name, virt) in LOCKGRAPH_FIXTURES {
        match std::fs::read_to_string(dir.join(name)) {
            Ok(t) => sources.push((virt.to_string(), t)),
            Err(e) => {
                eprintln!("audit: cannot read fixture {name}: {e}");
                return ExitCode::from(EXIT_INTERNAL);
            }
        }
    }
    let (findings, lock_graph) = audit_files_full(&sources);
    eprintln!("audit --demo: seeded deadlock in fixtures/lockgraph/ (scanned as crates/demo)");
    eprintln!("{}", lock_graph.to_dot());
    for f in &findings {
        eprintln!("{}", f.render());
    }
    if findings.iter().any(|f| f.policy == locks::POLICY_LOCK_ORDER) {
        ExitCode::from(EXIT_FINDINGS)
    } else {
        eprintln!("audit --demo: BUG — seeded cycle was not detected");
        ExitCode::from(EXIT_INTERNAL)
    }
}

/// Parses the baseline file: one `policy|file|item|detail` key per
/// line, `#` comments (the required justifications) and blank lines
/// ignored.
fn load_baseline(path: &Path, must_exist: bool) -> Result<Vec<String>, String> {
    let text = match std::fs::read_to_string(path) {
        Ok(t) => t,
        Err(e) if must_exist => {
            return Err(format!("cannot read baseline {}: {e}", path.display()));
        }
        Err(_) => return Ok(Vec::new()),
    };
    Ok(text
        .lines()
        .map(str::trim)
        .filter(|l| !l.is_empty() && !l.starts_with('#'))
        .map(String::from)
        .collect())
}

/// Builds the `spmv-audit/1` findings document.
fn findings_json(files: &[String], findings: &[Finding], stale: &[&String]) -> JsonValue {
    let arr: Vec<JsonValue> = findings
        .iter()
        .map(|f| {
            JsonValue::obj()
                .with("file", f.file.as_str())
                .with("line", f.line)
                .with("policy", f.policy)
                .with("item", f.item.as_str())
                .with("message", f.message.as_str())
                .with(
                    "chain",
                    f.chain.iter().map(|c| c.as_str().into()).collect::<Vec<JsonValue>>(),
                )
                .with("baselined", f.baselined)
                .with("key", f.key())
        })
        .collect();
    let new_count = findings.iter().filter(|f| !f.baselined).count();
    JsonValue::obj()
        .with("schema", "spmv-audit/1")
        .with("files_scanned", files.len())
        .with("findings", arr)
        .with(
            "summary",
            JsonValue::obj()
                .with("total", findings.len())
                .with("baselined", findings.len() - new_count)
                .with("new", new_count)
                .with(
                    "stale_baseline",
                    stale.iter().map(|s| s.as_str().into()).collect::<Vec<JsonValue>>(),
                ),
        )
}

/// The full audit pipeline over in-memory sources: parse every file
/// once, run the nine lexical policies per file, then the
/// interprocedural and concurrency-effects policies over the whole
/// set (the call graph is built once and shared). Findings come back
/// in deterministic (file, line, policy) order, alongside the
/// lock-order graph for `--dot`.
fn audit_files_full(sources: &[(String, String)]) -> (Vec<Finding>, locks::LockGraphExport) {
    let units: Vec<FileUnit> = sources.iter().map(|(p, t)| FileUnit::new(p, t)).collect();
    let mut findings = Vec::new();
    for unit in &units {
        findings.extend(scan_unit(unit));
    }
    let g = flow::Graph::build(&units);
    findings.extend(flow::analyze(&g));
    let (lock_findings, lock_graph) = locks::analyze(&units, &g);
    findings.extend(lock_findings);
    findings.sort_by(|a, b| {
        (a.file.as_str(), a.line, a.policy, a.detail.as_str()).cmp(&(
            b.file.as_str(),
            b.line,
            b.policy,
            b.detail.as_str(),
        ))
    });
    (findings, lock_graph)
}

/// [`audit_files_full`] without the graph export — the self-test and
/// unit-test entry point.
fn audit_files(sources: &[(String, String)]) -> Vec<Finding> {
    audit_files_full(sources).0
}

/// Recursively collects workspace `.rs` files as `/`-separated paths
/// relative to `root`, skipping build output, vendored dependencies,
/// VCS metadata, and the deliberately-violating audit fixtures.
fn collect_rs_files(root: &Path, dir: &Path, out: &mut Vec<String>) {
    let entries = match std::fs::read_dir(dir) {
        Ok(e) => e,
        Err(_) => return,
    };
    for entry in entries.flatten() {
        let path = entry.path();
        let name = entry.file_name();
        let name = name.to_string_lossy();
        if path.is_dir() {
            if matches!(name.as_ref(), "target" | "vendor" | ".git" | "results")
                || path.ends_with("crates/xtask/fixtures")
            {
                continue;
            }
            collect_rs_files(root, &path, out);
        } else if name.ends_with(".rs") {
            let rel = path
                .strip_prefix(root)
                .expect("walk stays under root")
                .to_string_lossy()
                .replace('\\', "/");
            out.push(rel);
        }
    }
}

/// One source file parsed once for every policy: scrubbed channels,
/// item spans, and outgoing call sites.
pub(crate) struct FileUnit {
    pub(crate) path: String,
    pub(crate) s: Scrubbed,
    pub(crate) items: Items,
    pub(crate) calls: Vec<CallSite>,
    pub(crate) locks: Vec<LockSite>,
}

impl FileUnit {
    pub(crate) fn new(path: &str, text: &str) -> FileUnit {
        let s = scrub(text);
        let items = parse_items(&s);
        let calls = extract_calls(&s);
        let locks = extract_locks(&s);
        FileUnit { path: path.to_string(), s, items, calls, locks }
    }
}

/// One policy violation.
#[derive(Debug, PartialEq)]
pub(crate) struct Finding {
    pub(crate) file: String,
    /// 1-based line number.
    pub(crate) line: usize,
    pub(crate) policy: &'static str,
    /// Qualified name of the enclosing item (`Owner::fn` or `fn`),
    /// or `-` at module scope. Part of the baseline key.
    pub(crate) item: String,
    /// The violating token or path class. Part of the baseline key,
    /// so keys survive unrelated line-number churn.
    pub(crate) detail: String,
    /// For interprocedural findings: the call chain from a root or
    /// entry point to the flagged item.
    pub(crate) chain: Vec<String>,
    pub(crate) message: String,
    /// Suppressed by the committed baseline file (set after scan).
    pub(crate) baselined: bool,
}

impl Finding {
    /// Baseline/suppression key: line-number independent, so the
    /// baseline survives unrelated edits above a finding. One entry
    /// covers every instance of the same token in the same item —
    /// by design, since those share one justification.
    pub(crate) fn key(&self) -> String {
        format!("{}|{}|{}|{}", self.policy, self.file, self.item, self.detail)
    }

    fn render(&self) -> String {
        format!("{}:{}: [{}] {}", self.file, self.line, self.policy, self.message)
    }

    /// A single-site (lexical) finding; the enclosing item is
    /// resolved from the parse.
    fn lexical(
        file: &str,
        line0: usize,
        policy: &'static str,
        items: &Items,
        detail: &str,
        message: String,
    ) -> Finding {
        let item = items
            .enclosing_fn(line0)
            .map(|f| match &f.owner {
                Some(o) => format!("{o}::{}", f.name),
                None => f.name.clone(),
            })
            .unwrap_or_else(|| "-".to_string());
        Finding {
            file: file.to_string(),
            line: line0 + 1,
            policy,
            item,
            detail: detail.to_string(),
            chain: Vec::new(),
            message,
            baselined: false,
        }
    }
}

const POLICY_SAFETY: &str = "safety-comment";
const POLICY_UNCHECKED: &str = "unchecked-allowlist";
const POLICY_THREADS: &str = "thread-containment";
const POLICY_ORDERING: &str = "ordering-justification";
const POLICY_TELEMETRY: &str = "telemetry-lock-free";
const POLICY_SOCKETS: &str = "socket-containment";
const POLICY_PANIC: &str = "panic-safety";
const POLICY_CAST: &str = "cast-narrowing";
const POLICY_SIMD: &str = "simd-containment";

/// Modules allowed to contain unchecked-access tokens (policy 2):
/// the validated-format fast paths in `spmv-sparse` and the kernel
/// inner loops / engine plumbing in `spmv-kernels`.
const UNCHECKED_ALLOWLIST: &[&str] = &[
    "crates/sparse/src/delta.rs",
    "crates/sparse/src/sellcs.rs",
    "crates/sparse/src/decomp.rs",
    "crates/kernels/src/baseline.rs",
    "crates/kernels/src/schedule.rs",
    "crates/kernels/src/engine.rs",
    "crates/kernels/src/micro/mod.rs",
    "crates/kernels/src/micro/x86.rs",
];

/// The only module allowed to create threads (policy 3).
const THREAD_ALLOWLIST: &[&str] = &["crates/kernels/src/engine.rs"];

/// Modules whose non-SeqCst atomic orderings require justification
/// markers (policy 4): the engine and its scheduling primitives. The
/// telemetry crate (see [`in_telemetry`]) is in scope as a whole.
const ORDERING_SCOPE: &[&str] = &["crates/kernels/src/engine.rs", "crates/kernels/src/schedule.rs"];

/// Each auditable ordering token and the marker that justifies it
/// (policy 4). `SeqCst` needs no marker: it is the conservative
/// default, never a claim that a weaker ordering suffices.
const ORDERINGS: &[(&str, &str)] = &[
    ("Ordering::Relaxed", "relaxed-ok"),
    ("Ordering::Acquire", "acquire-ok"),
    ("Ordering::Release", "release-ok"),
    ("Ordering::AcqRel", "acqrel-ok"),
];

/// Dispatch and telemetry hot paths (policy 7): functions that run
/// on every engine dispatch or every trace record, where a panic
/// poisons the worker handshake for all lanes. Each entry is a file
/// suffix plus the names of its hot functions; the item parser maps
/// findings to their enclosing `fn`.
const HOT_PATHS: &[(&str, &[&str])] = &[
    ("crates/kernels/src/engine.rs", &["run", "run_labeled", "worker_loop", "traced_claim"]),
    ("crates/telemetry/src/trace.rs", &["record", "pack_name"]),
    // Request-span emit paths (PR 9): per-completion exemplar stores
    // and per-dispatch roofline folds ride inside serve delivery.
    ("crates/telemetry/src/hist.rs", &["observe_ns", "observe_with_exemplar", "record"]),
    ("crates/telemetry/src/roofline.rs", &["observe"]),
];

/// Path prefix in scope for the cast-narrowing policy (policy 8):
/// the sparse-format builders, where a silently truncated index is
/// data corruption rather than an error.
const CAST_SCOPE: &str = "crates/sparse/src/";

/// Narrowing casts policy 8 refuses without a checked helper or a
/// `cast-ok` marker.
const NARROWING_CASTS: &[&str] = &["as u8", "as u16", "as u32"];

/// Path fragment identifying telemetry sources (policies 4 and 5):
/// the whole crate is hot-path-adjacent, so every file is in scope.
const TELEMETRY_PREFIX: &str = "crates/telemetry/src/";

/// The only module allowed explicit SIMD (policy 9): the microkernel
/// menu, whose intrinsics are paired with bitwise-identical scalar
/// twins and gated behind runtime feature detection.
const SIMD_PREFIX: &str = "crates/kernels/src/micro/";

/// Tokens policy 9 contains to the microkernel menu module. Matched
/// on the code channel only, so doc references stay legal.
const SIMD_TOKENS: &[&str] = &["core::arch", "target_feature", "is_x86_feature_detected"];

/// The only module allowed to touch sockets (policy 6): the
/// Prometheus/trace exposition endpoint. Everything else reaches the
/// network through [`MetricsServer`](../telemetry) or not at all.
const SOCKET_ALLOWLIST: &[&str] = &["crates/telemetry/src/exposition.rs"];

fn path_in(file: &str, list: &[&str]) -> bool {
    list.iter().any(|s| file.ends_with(s))
}

fn in_telemetry(file: &str) -> bool {
    file.contains(TELEMETRY_PREFIX)
}

/// A source file split into per-line code and comment channels.
///
/// `code[i]` holds line `i` with comments removed and string/char
/// literal *contents* blanked (delimiters kept), so token scans never
/// match inside literals — including the audit's own pattern strings.
/// `comments[i]` holds the text of any comment on line `i`.
pub(crate) struct Scrubbed {
    pub(crate) code: Vec<String>,
    pub(crate) comments: Vec<String>,
}

pub(crate) fn scrub(text: &str) -> Scrubbed {
    #[derive(PartialEq)]
    enum State {
        Code,
        LineComment,
        BlockComment(u32),
        Str,
        RawStr(u32),
        Char,
    }
    let mut state = State::Code;
    let mut code = vec![String::new()];
    let mut comments = vec![String::new()];
    let chars: Vec<char> = text.chars().collect();
    let mut i = 0;
    while i < chars.len() {
        let c = chars[i];
        if c == '\n' {
            if state == State::LineComment {
                state = State::Code;
            }
            code.push(String::new());
            comments.push(String::new());
            i += 1;
            continue;
        }
        let line_code = code.last_mut().expect("at least one line");
        let line_comment = comments.last_mut().expect("at least one line");
        match state {
            State::Code => {
                let next = chars.get(i + 1).copied();
                if c == '/' && next == Some('/') {
                    state = State::LineComment;
                    i += 2;
                } else if c == '/' && next == Some('*') {
                    state = State::BlockComment(1);
                    i += 2;
                } else if c == '"' {
                    line_code.push('"');
                    state = State::Str;
                    i += 1;
                } else if c == 'r'
                    && matches!(next, Some('"') | Some('#'))
                    && raw_prefix_ok(line_code)
                {
                    // Raw string r"..." / r#"..."#; count the hashes.
                    let mut hashes = 0;
                    let mut j = i + 1;
                    while chars.get(j) == Some(&'#') {
                        hashes += 1;
                        j += 1;
                    }
                    if chars.get(j) == Some(&'"') {
                        line_code.push('"');
                        state = State::RawStr(hashes);
                        i = j + 1;
                    } else {
                        line_code.push(c);
                        i += 1;
                    }
                } else if c == '\'' {
                    // Lifetime (`'a`) vs char literal (`'a'`): a
                    // lifetime is an identifier not followed by a
                    // closing quote.
                    let is_lifetime =
                        chars.get(i + 1).is_some_and(|n| n.is_alphabetic() || *n == '_')
                            && chars.get(i + 2) != Some(&'\'');
                    if is_lifetime {
                        line_code.push(c);
                        i += 1;
                    } else {
                        line_code.push('\'');
                        state = State::Char;
                        i += 1;
                    }
                } else {
                    line_code.push(c);
                    i += 1;
                }
            }
            State::LineComment => {
                line_comment.push(c);
                i += 1;
            }
            State::BlockComment(depth) => {
                let next = chars.get(i + 1).copied();
                if c == '*' && next == Some('/') {
                    state = if depth == 1 { State::Code } else { State::BlockComment(depth - 1) };
                    i += 2;
                } else if c == '/' && next == Some('*') {
                    state = State::BlockComment(depth + 1);
                    i += 2;
                } else {
                    line_comment.push(c);
                    i += 1;
                }
            }
            State::Str => {
                if c == '\\' {
                    // An escaped newline (string line-continuation)
                    // still ends a source line — keep the channels in
                    // sync or every later finding drifts by one.
                    if chars.get(i + 1) == Some(&'\n') {
                        code.push(String::new());
                        comments.push(String::new());
                    }
                    i += 2; // skip the escaped character
                } else if c == '"' {
                    line_code.push('"');
                    state = State::Code;
                    i += 1;
                } else {
                    line_code.push(' ');
                    i += 1;
                }
            }
            State::RawStr(hashes) => {
                if c == '"' {
                    let mut j = i + 1;
                    let mut seen = 0;
                    while seen < hashes && chars.get(j) == Some(&'#') {
                        seen += 1;
                        j += 1;
                    }
                    if seen == hashes {
                        line_code.push('"');
                        state = State::Code;
                        i = j;
                        continue;
                    }
                }
                line_code.push(' ');
                i += 1;
            }
            State::Char => {
                if c == '\\' {
                    i += 2;
                } else if c == '\'' {
                    line_code.push('\'');
                    state = State::Code;
                    i += 1;
                } else {
                    line_code.push(' ');
                    i += 1;
                }
            }
        }
    }
    Scrubbed { code, comments }
}

/// Whether an `r` at the current position can start a raw string:
/// the identifier run already emitted on this line must be empty
/// (plain `r"..."`) or exactly a byte/C-string prefix (`br"..."`,
/// `cr#"..."#`). Anything longer is an identifier ending in `r`
/// (`ptr`, `attr`), not a raw-string opener — and a missed *prefix*
/// here is worse than a missed identifier, because the fallback
/// `Str` state applies escape processing that raw strings do not
/// have, desyncing every later line and brace.
fn raw_prefix_ok(line_code: &str) -> bool {
    let mut run = line_code.chars().rev().take_while(|c| c.is_alphanumeric() || *c == '_');
    match run.next() {
        None => true,
        Some('b') | Some('c') => run.next().is_none(),
        Some(_) => false,
    }
}

/// Whether `line` contains `token` delimited by non-identifier
/// characters on both sides.
fn has_token(line: &str, token: &str) -> bool {
    let bytes = line.as_bytes();
    let is_ident = |b: u8| b.is_ascii_alphanumeric() || b == b'_';
    let mut from = 0;
    while let Some(pos) = line[from..].find(token) {
        let start = from + pos;
        let end = start + token.len();
        let left_ok = start == 0 || !is_ident(bytes[start - 1]);
        let right_ok = end >= bytes.len() || !is_ident(bytes[end]);
        if left_ok && right_ok {
            return true;
        }
        from = start + 1;
    }
    false
}

/// Runs the lexical policies (1–9) over one file. Used directly by
/// the unit tests; the audit runs [`scan_unit`] plus
/// [`flow::analyze`] via [`audit_files`].
#[cfg(test)]
fn scan_source(file: &str, text: &str) -> Vec<Finding> {
    scan_unit(&FileUnit::new(file, text))
}

/// Runs the nine lexical policies over one parsed file.
fn scan_unit(unit: &FileUnit) -> Vec<Finding> {
    let file = unit.path.as_str();
    let s = &unit.s;
    let items = &unit.items;
    let nlines = s.code.len();
    let mut findings = Vec::new();

    // Hot functions of this file, if it hosts any (policy 7).
    let hot_fns: &[&str] =
        HOT_PATHS.iter().find(|(suffix, _)| file.ends_with(suffix)).map_or(&[], |(_, fns)| fns);

    for i in 0..nlines {
        let code = &s.code[i];

        // Policy 1: SAFETY-comment adjacency.
        if has_token(code, "unsafe") && !preceded_by_safety(s, i) {
            findings.push(Finding::lexical(
                file,
                i,
                POLICY_SAFETY,
                items,
                "unsafe",
                "`unsafe` without an immediately preceding `// SAFETY:` comment \
                 (or `# Safety` doc section) naming the invariant"
                    .to_string(),
            ));
        }

        // Policy 2: unchecked accesses only in allowlisted modules.
        if !path_in(file, UNCHECKED_ALLOWLIST) {
            for token in
                ["get_unchecked", "get_unchecked_mut", "from_raw_parts", "from_raw_parts_mut"]
            {
                if has_token(code, token) {
                    findings.push(Finding::lexical(
                        file,
                        i,
                        POLICY_UNCHECKED,
                        items,
                        token,
                        format!(
                            "`{token}` outside the allowlisted kernel modules — route the \
                             access through a `Validated<_>` fast path or a checked method"
                        ),
                    ));
                }
            }
            // `.add(` is only pointer arithmetic when it sits in an
            // unsafe context; a safe method named `add` is fine. The
            // item-level parse makes the distinction, so safe
            // counters no longer have to dodge the name.
            if code.contains(".add(") && items.in_unsafe(i) {
                findings.push(Finding::lexical(
                    file,
                    i,
                    POLICY_UNCHECKED,
                    items,
                    ".add(",
                    "raw-pointer arithmetic (`.add(` in an unsafe context) outside \
                     the allowlisted kernel modules"
                        .to_string(),
                ));
            }
        }

        // Policy 3: thread creation only in the execution engine.
        if !path_in(file, THREAD_ALLOWLIST) {
            for token in ["thread::spawn", "thread::scope"] {
                if code.contains(token) {
                    findings.push(Finding::lexical(
                        file,
                        i,
                        POLICY_THREADS,
                        items,
                        token,
                        format!(
                            "`{token}` outside crates/kernels/src/engine.rs — all \
                             parallelism goes through ExecEngine"
                        ),
                    ));
                }
            }
        }

        // Policy 4: every non-SeqCst ordering in the engine or the
        // telemetry crate needs its justification marker, at the use
        // site or in the enclosing function's doc block.
        if (path_in(file, ORDERING_SCOPE) || in_telemetry(file)) && !items.in_test(i) {
            for (ordering, marker) in ORDERINGS {
                if code.contains(ordering) && !justified(s, items, i, marker) {
                    let site = items
                        .enclosing_fn(i)
                        .map_or_else(|| "module scope".to_string(), |f| format!("fn `{}`", f.name));
                    findings.push(Finding::lexical(
                        file,
                        i,
                        POLICY_ORDERING,
                        items,
                        ordering,
                        format!(
                            "`{ordering}` in {site} without a `{marker}` marker comment \
                             justifying it against the dispatch handshake"
                        ),
                    ));
                }
            }
        }

        // Policy 5: the telemetry crate must stay lock-free — its
        // counters ride inside kernel dispatch, where blocking would
        // perturb the very timings being collected.
        if in_telemetry(file) {
            for token in ["Mutex", "RwLock", "Condvar", "Barrier", "mpsc"] {
                if has_token(code, token) {
                    findings.push(Finding::lexical(
                        file,
                        i,
                        POLICY_TELEMETRY,
                        items,
                        token,
                        format!(
                            "`{token}` in crates/telemetry — telemetry must never block; \
                             use relaxed atomics (hot path) or owned values (cold path)"
                        ),
                    ));
                }
            }
        }

        // Policy 6: socket types only in the exposition module — one
        // file is the workspace's entire network surface.
        if !path_in(file, SOCKET_ALLOWLIST) {
            for token in ["TcpListener", "TcpStream", "UdpSocket", "UnixListener", "UnixStream"] {
                if has_token(code, token) {
                    findings.push(Finding::lexical(
                        file,
                        i,
                        POLICY_SOCKETS,
                        items,
                        token,
                        format!(
                            "`{token}` outside crates/telemetry/src/exposition.rs — all \
                             network I/O goes through the metrics exposition module"
                        ),
                    ));
                }
            }
        }

        // Policy 7: no panics in the dispatch/telemetry hot paths.
        if !hot_fns.is_empty() && !items.in_test(i) {
            if let Some(f) = items.enclosing_fn(i).filter(|f| hot_fns.contains(&f.name.as_str())) {
                for token in [".unwrap()", ".expect("] {
                    if code.contains(token) && !justified(s, items, i, "panic-ok") {
                        findings.push(Finding::lexical(
                            file,
                            i,
                            POLICY_PANIC,
                            items,
                            token,
                            format!(
                                "`{token}` in hot-path fn `{}` without a `panic-ok` marker — \
                                 a panic mid-dispatch poisons the worker handshake",
                                f.name
                            ),
                        ));
                    }
                }
                if has_index_expr(code) && !justified(s, items, i, "indexing-ok") {
                    findings.push(Finding::lexical(
                        file,
                        i,
                        POLICY_PANIC,
                        items,
                        "indexing",
                        format!(
                            "indexing in hot-path fn `{}` without an `indexing-ok` marker \
                             naming why the index is in bounds",
                            f.name
                        ),
                    ));
                }
            }
        }

        // Policy 8: narrowing casts in the sparse-format builders
        // must be checked or justified.
        if file.contains(CAST_SCOPE) && !items.in_test(i) {
            for cast in NARROWING_CASTS {
                if has_token(code, cast) && !justified(s, items, i, "cast-ok") {
                    findings.push(Finding::lexical(
                        file,
                        i,
                        POLICY_CAST,
                        items,
                        cast,
                        format!(
                            "narrowing `{cast}` in the sparse builders without a `cast-ok` \
                             marker — use `try_from`/`index_u32` so truncation is an error, \
                             not corruption"
                        ),
                    ));
                }
            }
        }

        // Policy 9: explicit SIMD only in the microkernel menu
        // module, where every intrinsic has a scalar twin and a
        // bitwise-identity test. A `simd-ok` marker names the rare
        // exception (e.g. a bare prefetch hint with no lane math).
        if !file.contains(SIMD_PREFIX) {
            for token in SIMD_TOKENS {
                if has_token(code, token) && !justified(s, items, i, "simd-ok") {
                    findings.push(Finding::lexical(
                        file,
                        i,
                        POLICY_SIMD,
                        items,
                        token,
                        format!(
                            "`{token}` outside crates/kernels/src/micro/ — explicit SIMD \
                             lives in the microkernel menu (with its scalar twin) or \
                             carries a `simd-ok` marker naming why it cannot"
                        ),
                    ));
                }
            }
        }
    }
    findings
}

/// Whether a scrubbed code line contains an index *expression*:
/// a `[` directly preceded by an identifier character, `)`, or `]`.
/// Array/slice types (`[u64; 4]`, `&[f64]`), attributes (`#[...]`),
/// and macros like `vec![` all have a non-postfix character before
/// the bracket and do not match.
fn has_index_expr(code: &str) -> bool {
    let bytes = code.as_bytes();
    bytes.iter().enumerate().any(|(p, &b)| {
        b == b'['
            && p > 0
            && (bytes[p - 1].is_ascii_alphanumeric()
                || bytes[p - 1] == b'_'
                || bytes[p - 1] == b')'
                || bytes[p - 1] == b']')
    })
}

/// Whether the contiguous run of comment, attribute, and blank lines
/// directly above line `i` (or a trailing comment on `i` itself)
/// contains a `SAFETY:` annotation or a `# Safety` doc section.
///
/// rustfmt may wrap a statement so that `unsafe` lands on a
/// continuation line (`sum +=` / `let x =` above it); a code line
/// ending in an assignment operator is therefore treated as part of
/// the same statement and the walk continues above it.
fn preceded_by_safety(s: &Scrubbed, i: usize) -> bool {
    if s.comments[i].contains("SAFETY:") {
        return true;
    }
    let mut j = i;
    while j > 0 {
        j -= 1;
        let code = s.code[j].trim();
        let comment = &s.comments[j];
        let is_comment_line = code.is_empty() && !comment.is_empty();
        let is_attribute = code.starts_with("#[");
        let is_blank = code.is_empty() && comment.is_empty();
        if is_comment_line {
            if comment.contains("SAFETY:") || comment.contains("# Safety") {
                return true;
            }
        } else if !(is_attribute || is_blank || is_assignment_continuation(code)) {
            return false;
        }
    }
    false
}

/// Whether a code line ends mid-statement with an assignment operator,
/// i.e. the next line is a formatting continuation, not a new
/// statement. Comparison operators (`==`, `<=`, …) do not count.
fn is_assignment_continuation(code: &str) -> bool {
    let Some(rest) = code.strip_suffix('=') else {
        return false;
    };
    !matches!(rest.chars().last(), Some('=' | '<' | '>' | '!'))
}

/// Whether line `i` carries `marker` in its own comment or in the
/// contiguous comment/attribute run directly above it.
fn has_marker(s: &Scrubbed, i: usize, marker: &str) -> bool {
    if s.comments[i].contains(marker) {
        return true;
    }
    let mut j = i;
    while j > 0 {
        j -= 1;
        let code = s.code[j].trim();
        let comment = &s.comments[j];
        if code.is_empty() && !comment.is_empty() {
            if comment.contains(marker) {
                return true;
            }
        } else if !code.starts_with("#[") {
            return false;
        }
    }
    false
}

/// Whether the use on line `i` is justified by `marker`: on the line
/// itself, in the comment run directly above it, or — item-level —
/// in the doc block of the enclosing function. The last form lets a
/// function justify one protocol-wide invariant once (e.g. a seqlock
/// writer's doc block covering its paired fence and store) instead of
/// repeating it at every ordering site.
fn justified(s: &Scrubbed, items: &Items, i: usize, marker: &str) -> bool {
    has_marker(s, i, marker)
        || items.enclosing_fn(i).is_some_and(|f| has_marker(s, f.start, marker))
}

/// Fixture files with the virtual workspace path they are scanned
/// under and the exact set of policies each must trigger. An empty
/// set means the fixture must scan clean.
const FIXTURES: &[(&str, &str, &[&str])] = &[
    ("missing_safety.rs", "crates/sim/src/fixture.rs", &[POLICY_SAFETY]),
    ("unchecked_outside_allowlist.rs", "crates/sim/src/fixture.rs", &[POLICY_UNCHECKED]),
    ("spawn_outside_engine.rs", "crates/sim/src/fixture.rs", &[POLICY_THREADS]),
    ("relaxed_without_marker.rs", "crates/kernels/src/engine.rs", &[POLICY_ORDERING]),
    // The same unmarked-Relaxed fixture must also trip inside the
    // telemetry crate (policy 4's extended scope).
    ("relaxed_without_marker.rs", "crates/telemetry/src/metrics.rs", &[POLICY_ORDERING]),
    // Policy 4 covers acquire/release orderings too, not just
    // Relaxed; marker-justified sites in the same file stay quiet.
    ("acquire_without_marker.rs", "crates/telemetry/src/trace.rs", &[POLICY_ORDERING]),
    ("telemetry_lock.rs", "crates/telemetry/src/metrics.rs", &[POLICY_TELEMETRY]),
    // The same socket fixture must trip everywhere except under the
    // exposition module's own path (policy 6's single allowlist entry).
    ("socket_outside_exposition.rs", "crates/sim/src/fixture.rs", &[POLICY_SOCKETS]),
    ("socket_outside_exposition.rs", "crates/telemetry/src/exposition.rs", &[]),
    // Policy 7 fires only inside the named hot functions of a hot
    // file; the same source is fine anywhere else.
    ("panic_in_hot_path.rs", "crates/kernels/src/engine.rs", &[POLICY_PANIC]),
    ("panic_in_hot_path.rs", "crates/kernels/src/schedule.rs", &[]),
    // Policy 8 fires only under crates/sparse/src/.
    ("cast_narrowing.rs", "crates/sparse/src/csr.rs", &[POLICY_CAST]),
    ("cast_narrowing.rs", "crates/sim/src/fixture.rs", &[]),
    // `.add(` is pointer arithmetic only inside an unsafe context
    // (policy 2); a safe method named `add` no longer needs a dodge.
    ("ptr_add_in_unsafe.rs", "crates/sim/src/fixture.rs", &[POLICY_UNCHECKED]),
    ("method_add_safe.rs", "crates/sim/src/fixture.rs", &[]),
    // Policy 9 fires outside crates/kernels/src/micro/; the same
    // source under the micro path is containment, not a violation,
    // and a `simd-ok` marker justifies the rare exception elsewhere.
    ("simd_outside_micro.rs", "crates/sim/src/fixture.rs", &[POLICY_SIMD]),
    ("simd_outside_micro.rs", "crates/kernels/src/micro/x86.rs", &[]),
    ("simd_with_marker.rs", "crates/sim/src/fixture.rs", &[]),
    ("clean.rs", "crates/kernels/src/engine.rs", &[]),
    // Policy 10 (witness-flow): a public entry reaching an unchecked
    // fast path through a helper chain, and through method dispatch;
    // a Validated parameter or a `witness-ok` item breaks the path.
    ("flow_unwitnessed.rs", "crates/kernels/src/baseline.rs", &[flow::POLICY_WITNESS_FLOW]),
    ("flow_method_unwitnessed.rs", "crates/kernels/src/baseline.rs", &[flow::POLICY_WITNESS_FLOW]),
    ("flow_witnessed.rs", "crates/kernels/src/baseline.rs", &[]),
    ("flow_witness_marker.rs", "crates/kernels/src/baseline.rs", &[]),
    // Policy 11 (panic-flow): panic sinks transitively reachable from
    // the dispatch roots, via bare calls and via method dispatch; the
    // same sinks marked panic-ok/indexing-ok stay quiet. Scanned as a
    // non-root file, the same source is clean.
    ("flow_panic_reachable.rs", "crates/kernels/src/engine.rs", &[flow::POLICY_PANIC_FLOW]),
    ("flow_panic_method.rs", "crates/telemetry/src/trace.rs", &[flow::POLICY_PANIC_FLOW]),
    ("flow_panic_reachable.rs", "crates/kernels/src/schedule.rs", &[]),
    ("flow_panic_marked.rs", "crates/kernels/src/engine.rs", &[]),
    // Policy 12 (hot-path-alloc): allocation reachable from dispatch
    // roots — including inside the roots themselves — without an
    // `alloc-ok` marker; marked sites stay quiet.
    ("flow_alloc_reachable.rs", "crates/kernels/src/engine.rs", &[flow::POLICY_ALLOC]),
    ("flow_alloc_in_root.rs", "crates/kernels/src/engine.rs", &[flow::POLICY_ALLOC]),
    ("flow_alloc_marked.rs", "crates/kernels/src/engine.rs", &[]),
    // Call-graph marker escape hatches: `callgraph-edge` adds an edge
    // the heuristics cannot see (flagging its panic sink);
    // `callgraph-ok` severs one, making the same sink unreachable.
    ("flow_edge_marker.rs", "crates/kernels/src/engine.rs", &[flow::POLICY_PANIC_FLOW]),
    ("flow_callgraph_ok.rs", "crates/kernels/src/engine.rs", &[]),
    // Policy 13 (lock-order): a two-mutex cycle inside one impl, the
    // same cycle closed interprocedurally through a helper, and a
    // consistent hierarchy whose mutexes lack protocol-model
    // coverage. `lock-order-ok:` severs the reversed edge and
    // `model-ok:` supplies coverage in the clean twins.
    ("lock_order_cycle.rs", "crates/sim/src/fixture.rs", &[locks::POLICY_LOCK_ORDER]),
    ("lock_order_chain.rs", "crates/sim/src/fixture.rs", &[locks::POLICY_LOCK_ORDER]),
    ("lock_order_unmodeled.rs", "crates/sim/src/fixture.rs", &[locks::POLICY_LOCK_ORDER]),
    ("lock_order_marked.rs", "crates/sim/src/fixture.rs", &[]),
    ("lock_order_hierarchy.rs", "crates/sim/src/fixture.rs", &[]),
    // Policy 14 (blocking-in-hot-path): a lock in a dispatch root and
    // one reachable through a helper; the same source under a
    // non-root path is clean, and `blocking-ok:` justifies it.
    ("blocking_in_hot_path.rs", "crates/kernels/src/engine.rs", &[locks::POLICY_BLOCKING]),
    ("blocking_reachable.rs", "crates/kernels/src/engine.rs", &[locks::POLICY_BLOCKING]),
    ("blocking_in_hot_path.rs", "crates/serve/src/scheduler.rs", &[]),
    ("blocking_marked.rs", "crates/kernels/src/engine.rs", &[]),
    // Policy 15 (condvar-discipline): a single-shot wait outside any
    // loop, a notify mutating its predicate outside the paired mutex
    // (lost wakeup), and a wait holding a second lock; the textbook
    // loop/notify-under-mutex shape is clean, and `condvar-ok:`
    // justifies the departures.
    ("condvar_wait_no_loop.rs", "crates/sim/src/fixture.rs", &[locks::POLICY_CONDVAR]),
    ("condvar_lost_wakeup.rs", "crates/sim/src/fixture.rs", &[locks::POLICY_CONDVAR]),
    ("condvar_second_lock.rs", "crates/sim/src/fixture.rs", &[locks::POLICY_CONDVAR]),
    ("condvar_disciplined.rs", "crates/sim/src/fixture.rs", &[]),
    ("condvar_marked.rs", "crates/sim/src/fixture.rs", &[]),
];

/// The multi-file seeded-deadlock crate under `fixtures/lockgraph/`,
/// with the virtual paths its files are scanned under. Swept by the
/// self-test (the two halves must close a lock-order cycle *when
/// scanned together*) and rendered by `cargo xtask audit --demo`.
const LOCKGRAPH_FIXTURES: &[(&str, &str)] = &[
    ("scheduler.rs", "crates/demo/src/scheduler.rs"),
    ("registry.rs", "crates/demo/src/registry.rs"),
];

/// Scans each fixture under its virtual path and checks the triggered
/// policy set matches expectations exactly. A scanner that stops
/// flagging a violation (or starts flagging the clean file) fails
/// here before any real file is scanned.
fn self_test(root: &Path) -> Result<(), String> {
    let dir = root.join("crates/xtask/fixtures");
    for (name, virtual_path, expected) in FIXTURES {
        let path = dir.join(name);
        let text = std::fs::read_to_string(&path)
            .map_err(|e| format!("cannot read fixture {}: {e}", path.display()))?;
        let sources = [(virtual_path.to_string(), text)];
        let mut got: Vec<&'static str> =
            audit_files(&sources).into_iter().map(|f| f.policy).collect();
        got.sort_unstable();
        got.dedup();
        let mut want = expected.to_vec();
        want.sort_unstable();
        if got != want {
            return Err(format!(
                "fixture {name} (as {virtual_path}): triggered policies {got:?}, expected {want:?}"
            ));
        }
    }
    // The seeded deadlock crate: scanned *together*, the two halves'
    // reversed acquisition orders must close a lock-order cycle, and
    // the finding must render both acquisition chains.
    let lg = dir.join("lockgraph");
    let mut sources = Vec::new();
    for (name, virt) in LOCKGRAPH_FIXTURES {
        let path = lg.join(name);
        let text = std::fs::read_to_string(&path)
            .map_err(|e| format!("cannot read fixture {}: {e}", path.display()))?;
        sources.push((virt.to_string(), text));
    }
    let findings = audit_files(&sources);
    if findings.iter().any(|f| f.policy != locks::POLICY_LOCK_ORDER) {
        return Err(format!("lockgraph fixtures: non-lock-order findings: {findings:?}"));
    }
    let cycle = findings
        .iter()
        .find(|f| f.detail.starts_with("cycle:"))
        .ok_or("lockgraph fixtures: seeded deadlock cycle not detected")?;
    for chain in ["Scheduler::submit -> resolve", "Registry::evict -> drain_queue"] {
        if !cycle.message.contains(chain) {
            return Err(format!(
                "lockgraph cycle finding does not render acquisition chain `{chain}`: {}",
                cycle.message
            ));
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scrubber_blanks_strings_and_splits_comments() {
        let s = scrub("let x = \"unsafe\"; // SAFETY: not really\nunsafe {}\n");
        assert!(!has_token(&s.code[0], "unsafe"), "string contents must be blanked");
        assert!(s.comments[0].contains("SAFETY:"));
        assert!(has_token(&s.code[1], "unsafe"));
    }

    #[test]
    fn scrubber_keeps_line_sync_across_string_continuations() {
        let s = scrub("let m = \"first \\\nsecond\";\nunsafe {}\n");
        assert_eq!(s.code.len(), 4, "{:?}", s.code);
        assert!(has_token(&s.code[2], "unsafe"), "{:?}", s.code);
    }

    #[test]
    fn scrubber_handles_lifetimes_and_chars() {
        let s = scrub("fn f<'a>(x: &'a str) -> char { 'x' }\n");
        assert!(s.code[0].contains("fn f<'a>"));
        assert!(!s.code[0].contains("'x'") || s.code[0].contains("' '"));
    }

    #[test]
    fn scrubber_blanks_raw_string_braces_across_lines() {
        // The decoy braces and `fn` inside the raw literal must not
        // open items or skew brace tracking for the fn that follows.
        let text = "fn f() -> &'static str {\n    r#\"{ fn decoy() {\n} }\"#\n}\nfn g() {}\n";
        let s = scrub(text);
        assert!(!s.code[1].contains('{'), "{:?}", s.code);
        assert!(!s.code[2].contains('}'), "{:?}", s.code);
        let items = parse_items(&s);
        let names: Vec<&str> = items.items.iter().map(|it| it.name.as_str()).collect();
        assert_eq!(names, ["f", "g"], "{:?}", items.items);
        let f = &items.items[0];
        assert_eq!((f.start, f.end), (0, 3), "raw-string brace leaked into the span");
    }

    #[test]
    fn scrubber_accepts_byte_and_c_string_raw_prefixes() {
        let s = scrub("let a = br#\"} fn no() {\"#;\nlet b = cr##\"{{\"##;\nunsafe {}\n");
        assert!(!s.code[0].contains('}'), "{:?}", s.code);
        assert!(!s.code[1].contains('{'), "{:?}", s.code);
        assert!(has_token(&s.code[2], "unsafe"), "line sync lost: {:?}", s.code);
        // An identifier merely ending in `r` (or a longer run before
        // a `b`/`c` prefix) is not a raw-string opener.
        assert!(raw_prefix_ok("let a = "));
        assert!(raw_prefix_ok("x = b"));
        assert!(raw_prefix_ok(""));
        assert!(!raw_prefix_ok("let ab"));
        assert!(!raw_prefix_ok("foo_c"));
    }

    #[test]
    fn scrubber_blanks_brace_char_literals() {
        let text =
            "fn f() -> char {\n    let open = '{';\n    let close = '}';\n    open\n}\nfn g() {}\n";
        let s = scrub(text);
        assert!(!s.code[1].contains('{'), "{:?}", s.code);
        assert!(!s.code[2].contains('}'), "{:?}", s.code);
        let items = parse_items(&s);
        let names: Vec<&str> = items.items.iter().map(|it| it.name.as_str()).collect();
        assert_eq!(names, ["f", "g"], "{:?}", items.items);
        assert_eq!(items.items[0].end, 4, "char-literal brace skewed the span");
    }

    #[test]
    fn scrubber_tracks_nested_block_comments() {
        let text = "/* outer { /* inner fn bogus() { */ still comment } */\nfn h() {}\n";
        let s = scrub(text);
        assert!(s.code[0].trim().is_empty(), "{:?}", s.code);
        assert!(s.comments[0].contains("still comment"), "{:?}", s.comments);
        let items = parse_items(&s);
        let names: Vec<&str> = items.items.iter().map(|it| it.name.as_str()).collect();
        assert_eq!(names, ["h"], "comment text parsed as items: {:?}", items.items);
    }

    #[test]
    fn token_matching_respects_word_boundaries() {
        assert!(has_token("unsafe {", "unsafe"));
        assert!(!has_token("unsafe_op_in_unsafe_fn = 1", "unsafe"));
        assert!(!has_token("let get_unchecked_mutant = 1;", "get_unchecked_mut"));
    }

    #[test]
    fn safety_adjacency_crosses_attributes_and_doc_blocks() {
        let text = "/// Does things.\n///\n/// # Safety\n/// Caller checks bounds.\n#[inline]\npub unsafe fn f() {}\n";
        let findings = scan_source("crates/sim/src/x.rs", text);
        assert!(findings.iter().all(|f| f.policy != POLICY_SAFETY), "{findings:?}");
    }

    #[test]
    fn missing_safety_comment_is_flagged() {
        let findings = scan_source("crates/sim/src/x.rs", "fn f() { unsafe { g(); } }\n");
        assert_eq!(findings.len(), 1);
        assert_eq!(findings[0].policy, POLICY_SAFETY);
        assert_eq!(findings[0].line, 1);
    }

    #[test]
    fn ordering_justification_accepts_item_level_markers() {
        // The marker lives in the fn's doc block, not at the use
        // site: one justification covers the whole protocol step.
        let text = "/// Claims the slot.\n///\n/// acquire-ok: chains to the previous owner's Release.\nfn claim(seq: &AtomicU64) -> u64 {\n    seq.load(Ordering::Acquire)\n}\n";
        let findings = scan_source("crates/telemetry/src/trace.rs", text);
        assert!(findings.is_empty(), "{findings:?}");
    }

    #[test]
    fn ordering_findings_name_the_enclosing_item() {
        let text = "fn claim(seq: &AtomicU64) -> u64 {\n    seq.load(Ordering::Acquire)\n}\n";
        let findings = scan_source("crates/telemetry/src/trace.rs", text);
        assert_eq!(findings.len(), 1, "{findings:?}");
        assert_eq!(findings[0].policy, POLICY_ORDERING);
        assert!(findings[0].message.contains("fn `claim`"), "{}", findings[0].message);
        assert!(findings[0].message.contains("acquire-ok"), "{}", findings[0].message);
    }

    #[test]
    fn ordering_exemption_is_span_based() {
        // An indented #[cfg(test)] module is still exempt — the old
        // column-0 cutoff heuristic would have flagged this.
        let text = "mod outer {\n    #[cfg(test)]\n    mod tests {\n        fn f(x: &AtomicU64) -> u64 {\n            x.load(Ordering::Relaxed)\n        }\n    }\n}\n";
        let findings = scan_source("crates/kernels/src/engine.rs", text);
        assert!(findings.is_empty(), "{findings:?}");
    }

    #[test]
    fn panic_policy_only_fires_in_hot_fns() {
        let text = "fn run(xs: &[u64]) -> u64 {\n    xs.first().copied().unwrap_or(0) + xs.iter().next().unwrap()\n}\nfn setup(xs: &[u64]) -> u64 {\n    xs[0]\n}\n";
        let findings = scan_source("crates/kernels/src/engine.rs", text);
        // `.unwrap_or(` must not match; the bare `.unwrap()` in `run`
        // must; the indexing in the cold fn `setup` must not.
        assert_eq!(findings.len(), 1, "{findings:?}");
        assert_eq!(findings[0].policy, POLICY_PANIC);
        assert!(findings[0].message.contains("fn `run`"));
    }

    #[test]
    fn index_expression_detection() {
        assert!(has_index_expr("seconds[t] += 1.0;"));
        assert!(has_index_expr("xs(0)[1]"));
        assert!(!has_index_expr("let x: [u64; 4] = y;"));
        assert!(!has_index_expr("#[inline]"));
        assert!(!has_index_expr("vec![0; n]"));
        assert!(!has_index_expr("fn f(xs: &[f64]) {"));
    }

    #[test]
    fn safe_method_add_is_not_pointer_arithmetic() {
        let findings = scan_source("crates/sim/src/x.rs", "fn f(c: &mut Counter) { c.add(1); }\n");
        assert!(findings.is_empty(), "{findings:?}");
    }

    #[test]
    fn self_test_fixtures_pass() {
        self_test(&repo_root()).expect("fixtures behave");
    }

    #[test]
    fn real_engine_sources_scan_clean() {
        let root = repo_root();
        for rel in [
            "crates/kernels/src/engine.rs",
            "crates/kernels/src/schedule.rs",
            "crates/telemetry/src/metrics.rs",
            "crates/telemetry/src/span.rs",
            "crates/telemetry/src/json.rs",
            "crates/telemetry/src/stats.rs",
            "crates/telemetry/src/lib.rs",
            "crates/telemetry/src/trace.rs",
            "crates/telemetry/src/registry.rs",
            "crates/telemetry/src/exposition.rs",
        ] {
            let text = std::fs::read_to_string(root.join(rel)).expect("source exists");
            let findings = scan_source(rel, &text);
            assert!(findings.is_empty(), "{rel}: {findings:?}");
        }
    }
}
