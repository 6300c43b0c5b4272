//! Compares two benchmark trajectories and gates on regression.
//!
//! ```text
//! bench_compare OLD.json NEW.json
//! ```
//!
//! Exit codes: `0` no regression, `1` regression (or lost coverage),
//! `2` usage / unreadable input / schema or scale mismatch.
//!
//! Prefer `cargo xtask bench --compare OLD.json NEW.json`, which
//! builds in release mode and runs from the repo root.

use std::path::Path;
use std::process::ExitCode;

use spmv_bench::compare::compare;
use spmv_bench::trajectory;

const USAGE: &str = "usage: bench_compare OLD.json NEW.json";

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    // Two paths and nothing else: the tool takes no flags.
    let (old_path, new_path) = match &args[..] {
        [old, new] if !old.starts_with("--") && !new.starts_with("--") => (old, new),
        _ => {
            eprintln!("bench_compare: expected two trajectory paths, got {args:?}\n{USAGE}");
            return ExitCode::from(2);
        }
    };

    let outcome = trajectory::load(Path::new(old_path))
        .and_then(|old| Ok((old, trajectory::load(Path::new(new_path))?)))
        .and_then(|(old, new)| compare(&old, &new));
    match outcome {
        Ok(report) => {
            print!("{}", report.render());
            if report.regressed() {
                eprintln!("bench_compare: REGRESSION — {new_path} is worse than {old_path}");
                ExitCode::from(1)
            } else {
                ExitCode::SUCCESS
            }
        }
        Err(e) => {
            eprintln!("bench_compare: {e}");
            ExitCode::from(2)
        }
    }
}
