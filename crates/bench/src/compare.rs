//! Trajectory comparison: the perf-regression gate over two
//! `BENCH_spmv.json` documents.
//!
//! `compare` walks the old document and checks every metric against
//! its counterpart in the new one:
//!
//! * **simulated GFLOP/s** (per matrix / platform / variant) and the
//!   **modeled preparation cost** are deterministic model outputs, so
//!   their tolerance ([`SIM_TOL`]) is tight — any real drop is a model
//!   regression, not noise;
//! * a matrix present in the old trajectory but missing from the new
//!   one is lost coverage and always gates;
//! * documents of different suite `scale` are not comparable, so the
//!   comparison is refused with an error.
//!
//! Changed variant *selections* (the classifier picking a different
//! optimization) are reported as notes, not regressions — they are
//! intentional behavior changes that the gflops metrics already
//! price in.
//!
//! Exposed through `cargo xtask bench --compare old.json new.json`
//! (the `bench_compare` binary), which exits non-zero on regression.

use spmv_telemetry::JsonValue;

use crate::table::Table;
use crate::trajectory::check_schema;

/// Tolerated relative drop on the simulated metrics (0.5%). They are
/// deterministic, so a drop beyond it is a model change, not noise.
pub const SIM_TOL: f64 = 0.005;

/// One compared metric.
#[derive(Debug, Clone, PartialEq)]
pub struct Delta {
    /// Human-readable metric path, e.g. `sim gflops consph/KNC/csr`.
    pub metric: String,
    pub old: f64,
    pub new: f64,
    /// Whether the change exceeds the metric's tolerance in the
    /// bad direction.
    pub regressed: bool,
}

impl Delta {
    /// Relative change in percent (positive = increased).
    pub fn change_pct(&self) -> f64 {
        if self.old == 0.0 {
            0.0
        } else {
            (self.new - self.old) / self.old * 100.0
        }
    }
}

/// The outcome of one comparison.
#[derive(Debug, Default)]
pub struct CompareReport {
    /// Every metric compared.
    pub deltas: Vec<Delta>,
    /// Non-gating observations (shape changes, new matrices, changed
    /// variant selections).
    pub notes: Vec<String>,
    /// A matrix/platform present before is missing now.
    pub coverage_lost: bool,
}

impl CompareReport {
    /// Whether the gate should fail.
    pub fn regressed(&self) -> bool {
        self.coverage_lost || self.deltas.iter().any(|d| d.regressed)
    }

    /// The regressed subset of [`deltas`](CompareReport::deltas).
    pub fn regressions(&self) -> Vec<&Delta> {
        self.deltas.iter().filter(|d| d.regressed).collect()
    }

    /// Renders the verdict: a summary line, the regression table (if
    /// any), the worst movers, and the notes.
    pub fn render(&self) -> String {
        let mut out = String::new();
        let regressions = self.regressions();
        out.push_str(&format!(
            "trajectory compare: {} metrics, {} regression(s){}\n",
            self.deltas.len(),
            regressions.len(),
            if self.coverage_lost { ", coverage LOST" } else { "" },
        ));
        if !regressions.is_empty() {
            let mut t = Table::new("regressions", &["metric", "old", "new", "change %"]);
            for d in &regressions {
                t.row(vec![
                    d.metric.clone(),
                    format!("{:.4}", d.old),
                    format!("{:.4}", d.new),
                    format!("{:+.2}", d.change_pct()),
                ]);
            }
            out.push_str(&t.render());
        } else if !self.deltas.is_empty() {
            // Context even on success: the largest movements, so a
            // green gate still shows where the trajectory is drifting.
            let mut sorted: Vec<&Delta> = self.deltas.iter().collect();
            sorted.sort_by(|a, b| {
                b.change_pct()
                    .abs()
                    .partial_cmp(&a.change_pct().abs())
                    .unwrap_or(std::cmp::Ordering::Equal)
            });
            let mut t = Table::new("largest movers", &["metric", "old", "new", "change %"]);
            for d in sorted.iter().take(5) {
                t.row(vec![
                    d.metric.clone(),
                    format!("{:.4}", d.old),
                    format!("{:.4}", d.new),
                    format!("{:+.2}", d.change_pct()),
                ]);
            }
            out.push_str(&t.render());
        }
        for note in &self.notes {
            out.push_str(&format!("note: {note}\n"));
        }
        out
    }
}

fn arr<'a>(v: &'a JsonValue, key: &str) -> &'a [JsonValue] {
    v.get(key).and_then(JsonValue::as_array).unwrap_or(&[])
}

fn text<'a>(v: &'a JsonValue, key: &str) -> &'a str {
    v.get(key).and_then(JsonValue::as_str).unwrap_or("")
}

fn num(v: &JsonValue, key: &str) -> Option<f64> {
    v.get(key).and_then(JsonValue::as_f64)
}

/// Compares two schema-checked trajectory documents of equal suite
/// `scale`; a scale mismatch is an error.
pub fn compare(old: &JsonValue, new: &JsonValue) -> Result<CompareReport, String> {
    check_schema(old).map_err(|e| format!("old trajectory: {e}"))?;
    check_schema(new).map_err(|e| format!("new trajectory: {e}"))?;
    let (old_scale, new_scale) = (num(old, "scale"), num(new, "scale"));
    if old_scale != new_scale {
        let show = |s: Option<f64>| s.map_or("missing".to_string(), |s| s.to_string());
        return Err(format!(
            "trajectories of different suite scale are not comparable: old scale {}, \
             new scale {} — regenerate one with `cargo xtask bench -- --scale <old scale>`",
            show(old_scale),
            show(new_scale)
        ));
    }

    let mut report = CompareReport::default();
    let new_matrices = arr(new, "matrices");

    for old_m in arr(old, "matrices") {
        let name = text(old_m, "name");
        let Some(new_m) = new_matrices.iter().find(|m| text(m, "name") == name) else {
            report.coverage_lost = true;
            report.notes.push(format!("matrix {name:?} disappeared from the trajectory"));
            continue;
        };
        compare_platforms(name, old_m, new_m, &mut report);
    }
    for new_m in new_matrices {
        let name = text(new_m, "name");
        if !arr(old, "matrices").iter().any(|m| text(m, "name") == name) {
            report.notes.push(format!("matrix {name:?} is new in this trajectory"));
        }
    }
    Ok(report)
}

/// Simulated per-platform metrics: variant GFLOP/s (higher is better)
/// and the modeled preparation cost (lower is better).
fn compare_platforms(
    matrix: &str,
    old_m: &JsonValue,
    new_m: &JsonValue,
    report: &mut CompareReport,
) {
    let new_plats = arr(new_m, "platforms");
    for old_p in arr(old_m, "platforms") {
        let plat = text(old_p, "platform");
        let Some(new_p) = new_plats.iter().find(|p| text(p, "platform") == plat) else {
            report.coverage_lost = true;
            report.notes.push(format!("platform {plat:?} disappeared for matrix {matrix:?}"));
            continue;
        };
        let (old_sel, new_sel) = (text(old_p, "selected_variant"), text(new_p, "selected_variant"));
        if old_sel != new_sel {
            report
                .notes
                .push(format!("{matrix}/{plat}: selected variant changed {old_sel} -> {new_sel}"));
        }
        if let (Some(o), Some(n)) =
            (num(old_p, "prep_seconds_model"), num(new_p, "prep_seconds_model"))
        {
            report.deltas.push(Delta {
                metric: format!("sim prep_seconds {matrix}/{plat}"),
                old: o,
                new: n,
                // Lower is better: gate on increases beyond tolerance.
                regressed: n > o * (1.0 + SIM_TOL),
            });
        }
        // Variant arrays are emitted in a deterministic order; compare
        // positionally and only where the variant labels still agree
        // (the trailing class-mapped entry legitimately changes name
        // when the classifier's selection changes).
        for (old_v, new_v) in arr(old_p, "variants").iter().zip(arr(new_p, "variants")) {
            let label = text(old_v, "variant");
            if label != text(new_v, "variant") {
                continue;
            }
            if let (Some(o), Some(n)) = (num(old_v, "gflops"), num(new_v, "gflops")) {
                report.deltas.push(Delta {
                    metric: format!("sim gflops {matrix}/{plat}/{label}"),
                    old: o,
                    new: n,
                    regressed: n < o * (1.0 - SIM_TOL),
                });
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::trajectory::SCHEMA;

    /// A minimal one-matrix trajectory at scale 0.05 with the given
    /// simulated baseline GFLOP/s.
    fn traj(sim_gflops: f64, selected: &str) -> JsonValue {
        let platform = JsonValue::obj()
            .with("platform", "KNC")
            .with("selected_variant", selected)
            .with("prep_seconds_model", 0.5)
            .with(
                "variants",
                JsonValue::Arr(vec![
                    JsonValue::obj().with("variant", "baseline").with("gflops", sim_gflops),
                    JsonValue::obj().with("variant", selected).with("gflops", sim_gflops * 1.2),
                ]),
            );
        JsonValue::obj().with("schema", SCHEMA).with("scale", 0.05).with(
            "matrices",
            JsonValue::Arr(vec![JsonValue::obj()
                .with("name", "m1")
                .with("platforms", JsonValue::Arr(vec![platform]))]),
        )
    }

    #[test]
    fn identical_trajectories_pass() {
        let doc = traj(10.0, "inner-vect");
        let report = compare(&doc, &doc).expect("compare");
        assert!(!report.regressed(), "{}", report.render());
        assert!(!report.deltas.is_empty());
        assert!(report.render().contains("0 regression(s)"));
    }

    #[test]
    fn degraded_sim_gflops_gate() {
        let old = traj(10.0, "inner-vect");
        let new = traj(9.0, "inner-vect");
        let report = compare(&old, &new).expect("compare");
        assert!(report.regressed());
        let regs = report.regressions();
        assert!(regs.iter().any(|d| d.metric.contains("sim gflops m1/KNC/baseline")));
        assert!(report.render().contains("sim gflops m1/KNC/baseline"), "{}", report.render());
    }

    #[test]
    fn sim_noise_within_tolerance_passes() {
        let old = traj(10.0, "inner-vect");
        let new = traj(9.96, "inner-vect"); // -0.4% < 0.5% tol
        let report = compare(&old, &new).expect("compare");
        assert!(!report.regressed(), "{}", report.render());
    }

    #[test]
    fn missing_matrix_is_lost_coverage() {
        let old = traj(10.0, "inner-vect");
        let new = JsonValue::obj()
            .with("schema", SCHEMA)
            .with("scale", 0.05)
            .with("matrices", JsonValue::Arr(vec![]));
        let report = compare(&old, &new).expect("compare");
        assert!(report.coverage_lost && report.regressed());
        assert!(report.notes.iter().any(|n| n.contains("disappeared")));
    }

    #[test]
    fn changed_selection_is_a_note_not_a_regression() {
        let old = traj(10.0, "inner-vect");
        let new = traj(10.0, "hugepages");
        let report = compare(&old, &new).expect("compare");
        assert!(!report.regressed(), "{}", report.render());
        assert!(report.notes.iter().any(|n| n.contains("selected variant changed")));
    }

    #[test]
    fn schema_mismatch_is_an_error() {
        let good = traj(10.0, "inner-vect");
        let bad = JsonValue::obj().with("schema", "other/1");
        let err = compare(&good, &bad).unwrap_err();
        assert!(err.contains("new trajectory"), "{err}");
        assert!(err.contains("unsupported"), "{err}");
    }

    #[test]
    fn scale_mismatch_is_an_error() {
        let small = traj(10.0, "inner-vect");
        let full = JsonValue::parse(&small.render().replace("\"scale\":0.05", "\"scale\":1"))
            .expect("reparse");
        let err = compare(&small, &full).unwrap_err();
        assert!(err.contains("0.05") && err.contains("new scale 1"), "{err}");
    }

    #[test]
    fn regressed_prep_model_gates() {
        let old = traj(10.0, "inner-vect");
        // Inflate the modeled prep cost by 10%.
        let rendered =
            old.render().replace("\"prep_seconds_model\":0.5", "\"prep_seconds_model\":0.55");
        let new = JsonValue::parse(&rendered).expect("reparse");
        let report = compare(&old, &new).expect("compare");
        assert!(report.regressed());
        assert!(report.regressions().iter().any(|d| d.metric.contains("prep_seconds")));
    }
}
