//! Benchmark trajectory: the machine-readable performance record the
//! repo carries from change to change (`BENCH_spmv.json` at the repo
//! root).
//!
//! One run sweeps the standard suite and emits, per matrix, the
//! simulated §III-B bounds, classifier decision trace and per-variant
//! GFLOP/s on each paper platform. Every value comes from the
//! deterministic simulator, so two runs at one scale write
//! byte-identical files and trajectory diffs isolate model changes.
//! Host-measured numbers belong to the perfbench harness, which
//! measures their noise.
//!
//! Invoke via `cargo xtask bench` (writes the file) or run the
//! `bench_trajectory` binary directly.

use std::path::Path;

use spmv_kernels::variant::KernelVariant;
use spmv_telemetry::JsonValue;
use spmv_tuner::profile::ProfileClassifier;

use crate::cli::{flag_value, CliError};
use crate::context::{analyze, load_suite, NamedMatrix, Platform};

/// Schema identifier written into the report; bump on breaking shape
/// changes so downstream diff tooling can refuse mixed comparisons.
pub const SCHEMA: &str = "spmv-bench-trajectory/2";

/// Verifies a parsed trajectory document carries the schema this
/// tooling understands.
pub fn check_schema(doc: &JsonValue) -> Result<(), String> {
    match doc.get("schema").and_then(JsonValue::as_str) {
        Some(s) if s == SCHEMA => Ok(()),
        Some(s) => Err(format!(
            "unsupported trajectory schema {s:?}; this tooling reads {SCHEMA:?} — \
             regenerate the file with `cargo xtask bench`"
        )),
        None => Err(format!("missing \"schema\" field; expected a {SCHEMA:?} trajectory")),
    }
}

/// Reads and parses a trajectory file, rejecting unknown schemas with
/// a clear error.
pub fn load(path: &Path) -> Result<JsonValue, String> {
    let text = std::fs::read_to_string(path)
        .map_err(|e| format!("cannot read {}: {e}", path.display()))?;
    let doc =
        JsonValue::parse(&text).map_err(|e| format!("{}: not valid JSON: {e}", path.display()))?;
    check_schema(&doc).map_err(|e| format!("{}: {e}", path.display()))?;
    Ok(doc)
}

/// Suite scale of `--scale small` (CI smoke runs).
pub const SMALL_SCALE: f64 = 0.05;

/// Resolves the `--scale` argument: `small`, `full`, or an explicit
/// positive float; 1.0 when the flag is absent. Any other value, or a
/// missing one, is an error.
pub fn resolve_scale(args: &[String]) -> Result<f64, CliError> {
    match flag_value(args, "--scale")?.as_deref() {
        None | Some("full") => Ok(1.0),
        Some("small") => Ok(SMALL_SCALE),
        Some(v) => match v.parse::<f64>() {
            Ok(s) if s > 0.0 && s.is_finite() => Ok(s),
            _ => Err(CliError(format!(
                "--scale expects small, full or a positive number, found {v:?}"
            ))),
        },
    }
}

/// The variant set simulated on every platform: baseline plus every
/// single-optimization variant from the paper's pool.
fn paper_variants() -> Vec<KernelVariant> {
    let mut v = vec![KernelVariant::BASELINE];
    v.extend(KernelVariant::all_singles());
    v
}

/// Runs the full trajectory at `scale` and returns the report as a
/// JSON document.
pub fn run(scale: f64) -> JsonValue {
    let platforms = Platform::paper_platforms();
    let suite = load_suite(scale);
    let clf = ProfileClassifier::default();

    let mut matrices = Vec::with_capacity(suite.len());
    for nm in &suite {
        matrices.push(matrix_entry(nm, &platforms, &clf));
    }

    JsonValue::obj()
        .with("schema", SCHEMA)
        .with("scale", scale)
        .with("matrices", JsonValue::Arr(matrices))
}

/// One matrix's record: the simulated platforms.
fn matrix_entry(nm: &NamedMatrix, platforms: &[Platform], clf: &ProfileClassifier) -> JsonValue {
    let a = &nm.matrix;
    let mut plats = Vec::with_capacity(platforms.len());
    for p in platforms {
        let an = analyze(p, a);
        let (classes, trace) = clf.classify_traced(&an.bounds);
        let variant = classes.to_variant(&an.features);
        let mut variants = Vec::new();
        for v in paper_variants() {
            variants.push(
                JsonValue::obj()
                    .with("variant", v.to_string())
                    .with("gflops", p.gflops(&an.profile, v)),
            );
        }
        // The class-mapped variant (may duplicate a single; kept so
        // diffs show what the paper's optimizer would have run).
        variants.push(
            JsonValue::obj()
                .with("variant", variant.to_string())
                .with("gflops", p.gflops(&an.profile, variant)),
        );
        let b = &an.bounds;
        plats.push(
            JsonValue::obj()
                .with("platform", p.machine.name.as_str())
                .with(
                    "bounds",
                    JsonValue::obj()
                        .with("p_csr", b.p_csr)
                        .with("p_mb", b.p_mb)
                        .with("p_ml", b.p_ml)
                        .with("p_imb", b.p_imb)
                        .with("p_cmp", b.p_cmp)
                        .with("p_peak", b.p_peak),
                )
                .with("classifier", trace)
                .with("selected_variant", variant.to_string())
                .with(
                    "prep_seconds_model",
                    p.prep.profiling_seconds(&p.model, &an.profile)
                        + p.prep.variant_seconds(&an.profile, variant),
                )
                .with("variants", JsonValue::Arr(variants)),
        );
    }

    JsonValue::obj()
        .with("name", nm.name)
        .with("nrows", a.nrows())
        .with("ncols", a.ncols())
        .with("nnz", a.nnz())
        .with("platforms", JsonValue::Arr(plats))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scale_resolution() {
        let args = |v: &[&str]| -> Vec<String> { v.iter().map(|s| s.to_string()).collect() };
        assert_eq!(resolve_scale(&args(&["--scale", "small"])), Ok(SMALL_SCALE));
        assert_eq!(resolve_scale(&args(&["--scale", "full"])), Ok(1.0));
        assert_eq!(resolve_scale(&args(&["--scale", "0.25"])), Ok(0.25));
        assert_eq!(resolve_scale(&args(&[])), Ok(1.0));
        // A malformed scale is an error, never a silent full-suite run.
        for bad in
            [&["--scale", "bogus"][..], &["--scale", "-1"], &["--scale"], &["--scale", "--out"]]
        {
            assert!(resolve_scale(&args(bad)).is_err(), "{bad:?}");
        }
        let err = resolve_scale(&args(&["--scale", "bogus"])).unwrap_err();
        assert!(err.0.contains("bogus"), "{err}");
    }

    #[test]
    fn tiny_trajectory_has_full_schema() {
        // 0.01 keeps this test fast while exercising every code path.
        let json = run(0.01).render();
        for key in [
            "\"schema\":\"spmv-bench-trajectory/2\"",
            "\"matrices\":",
            "\"bounds\":",
            "\"classifier\":",
            "\"selected_variant\":",
            "\"prep_seconds_model\":",
        ] {
            assert!(json.contains(key), "missing {key} in {}", &json[..json.len().min(400)]);
        }
        for gone in ["\"host\":", "\"telemetry\":", "\"nthreads\":"] {
            assert!(!json.contains(gone), "host-measured key {gone} is back");
        }
        // 17 suite matrices × 3 paper platforms.
        assert_eq!(json.matches("\"prep_seconds_model\":").count(), 17 * 3);
    }

    #[test]
    fn schema_check_accepts_current_and_rejects_others() {
        let ok = JsonValue::obj().with("schema", SCHEMA);
        assert!(check_schema(&ok).is_ok());

        let future = JsonValue::obj().with("schema", "spmv-bench-trajectory/9");
        let err = check_schema(&future).unwrap_err();
        assert!(err.contains("spmv-bench-trajectory/9"), "{err}");
        assert!(err.contains(SCHEMA), "names the supported schema: {err}");

        let missing = JsonValue::obj().with("scale", 1.0);
        assert!(check_schema(&missing).unwrap_err().contains("missing"));
    }

    #[test]
    fn load_reports_clear_errors() {
        let missing = load(Path::new("/nonexistent/BENCH_spmv.json")).unwrap_err();
        assert!(missing.contains("cannot read"), "{missing}");

        let dir = std::env::temp_dir();
        let bad_json = dir.join("spmv-trajectory-test-bad.json");
        std::fs::write(&bad_json, "{not json").expect("write fixture");
        let err = load(&bad_json).unwrap_err();
        assert!(err.contains("not valid JSON"), "{err}");

        let bad_schema = dir.join("spmv-trajectory-test-schema.json");
        std::fs::write(&bad_schema, r#"{"schema":"other/2"}"#).expect("write fixture");
        let err = load(&bad_schema).unwrap_err();
        assert!(err.contains("unsupported trajectory schema"), "{err}");

        let good = dir.join("spmv-trajectory-test-good.json");
        std::fs::write(&good, format!(r#"{{"schema":"{SCHEMA}","matrices":[]}}"#))
            .expect("write fixture");
        let doc = load(&good).expect("valid file loads");
        assert_eq!(doc.get("schema").and_then(JsonValue::as_str), Some(SCHEMA));
        for f in [bad_json, bad_schema, good] {
            let _ = std::fs::remove_file(f);
        }
    }

    #[test]
    fn trajectory_is_deterministic_across_runs() {
        // Every value is simulated, so the whole document — not just
        // its structure — is byte-identical run to run.
        assert_eq!(run(0.01).render_pretty(2), run(0.01).render_pretty(2));
    }
}
