//! Emits the benchmark trajectory (`BENCH_spmv.json`).
//!
//! ```text
//! bench_trajectory [--scale small|full|<f64>] [--out PATH]
//! ```
//!
//! Exit codes: `0` written, `1` output not writable, `2` malformed
//! command line.
//!
//! Prefer `cargo xtask bench`, which builds in release mode and
//! defaults the output to the repo root.

use std::process::ExitCode;

use spmv_bench::cli::{flag_value, reject_unknown_flags, CliError};
use spmv_bench::trajectory;

const USAGE: &str = "usage: bench_trajectory [--scale small|full|<f64>] [--out PATH]";

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().collect();
    let (scale, out) = match parse_args(&args) {
        Ok(parsed) => parsed,
        Err(e) => {
            eprintln!("bench_trajectory: {e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };

    eprintln!("bench_trajectory: scale={scale} -> {out}");
    let rendered = trajectory::run(scale).render_pretty(2);

    if let Err(e) = std::fs::write(&out, &rendered) {
        eprintln!("bench_trajectory: cannot write {out}: {e}");
        return ExitCode::FAILURE;
    }
    eprintln!("bench_trajectory: wrote {} bytes to {out}", rendered.len());
    ExitCode::SUCCESS
}

fn parse_args(args: &[String]) -> Result<(f64, String), CliError> {
    // Values first, so `--out --scale small` reports the missing
    // `--out` value rather than a stray `small`.
    let scale = trajectory::resolve_scale(args)?;
    let out = flag_value(args, "--out")?.unwrap_or_else(|| "BENCH_spmv.json".to_string());
    reject_unknown_flags(args, &["--scale", "--out"], &[])?;
    Ok((scale, out))
}
