//! Simulator glue for the reference baselines: how MKL-like CSR and
//! the Inspector-Executor appear inside the `spmv-sim` cost model, so
//! the multi-platform experiments (paper Fig. 6, Table 4) can include
//! them on machines we do not have.

use spmv_kernels::variant::{KernelVariant, Optimization};
use spmv_sim::cost::{CostModel, SimResult, SimSpec};
use spmv_sim::prep::{PrepModel, CODEGEN_SECONDS};
use spmv_sim::profile::MatrixProfile;

/// Simulates the MKL-CSR-like kernel: scalar inner loop, equal-row
/// static partitioning, no preprocessing.
pub fn simulate_mkl_csr(model: &CostModel, profile: &MatrixProfile) -> SimResult {
    model.simulate(profile, SimSpec { equal_rows: true, ..SimSpec::baseline() })
}

/// The inspector's decision: row lengths are regular when their
/// standard deviation is below half their mean, and a regular matrix
/// is converted to the vectorized (ELL-like) layout.
pub fn inspector_plan_is_regular(profile: &MatrixProfile) -> bool {
    let n = profile.nrows.max(1) as f64;
    let avg = profile.nnz as f64 / n;
    if avg <= 0.0 {
        return false;
    }
    let var = profile
        .row_nnz
        .iter()
        .map(|&k| {
            let d = f64::from(k) - avg;
            d * d
        })
        .sum::<f64>()
        / n;
    var.sqrt() < 0.5 * avg
}

/// Simulates the Inspector-Executor: nnz-rebalanced, vectorized
/// traversal (the ELL plan's benefit is modelled as the vectorized
/// inner loop over a regular layout). Returns the run result and the
/// preprocessing seconds charged to it.
pub fn simulate_inspector(
    model: &CostModel,
    prep: &PrepModel,
    profile: &MatrixProfile,
) -> (SimResult, f64) {
    let variant = KernelVariant::single(Optimization::Vectorize);
    let result = model.simulate(profile, SimSpec::variant(variant));
    // Inspection: one O(NNZ) statistics sweep; conversion: one
    // copy-through when the ELL plan is taken; plus plan codegen.
    let mut t_pre = prep.feature_extract_seconds(profile, true) + CODEGEN_SECONDS;
    if inspector_plan_is_regular(profile) {
        t_pre += prep.decompose_seconds(profile); // same cost shape as a full copy
    }
    (result, t_pre)
}

#[cfg(test)]
mod tests {
    use super::*;
    use spmv_machine::MachineModel;
    use spmv_sparse::gen;

    fn setup(a: &spmv_sparse::Csr) -> (CostModel, PrepModel, MatrixProfile) {
        let m = MachineModel::knl();
        let model = CostModel::new(m.clone());
        let p = MatrixProfile::analyze(a, &m);
        (model, PrepModel::new(m), p)
    }

    #[test]
    fn mkl_like_is_no_faster_than_nnz_balanced_baseline_on_skew() {
        let a = gen::circuit(100_000, 4, 0.3, 5, 3).unwrap();
        let (model, _, p) = setup(&a);
        let mkl = simulate_mkl_csr(&model, &p);
        let base = model.simulate(&p, SimSpec::baseline());
        assert!(mkl.gflops <= base.gflops * 1.05, "{} vs {}", mkl.gflops, base.gflops);
    }

    #[test]
    fn inspector_beats_mkl_on_regular_matrices() {
        let a = gen::banded(60_000, 24, 0.95, 3).unwrap();
        let (model, prep, p) = setup(&a);
        let mkl = simulate_mkl_csr(&model, &p);
        let (ie, t_pre) = simulate_inspector(&model, &prep, &p);
        assert!(ie.gflops >= mkl.gflops, "{} vs {}", ie.gflops, mkl.gflops);
        assert!(t_pre > 0.0);
    }

    #[test]
    fn plan_decision_matches_row_statistics() {
        let regular = gen::banded(5_000, 8, 1.0, 1).unwrap();
        let skewed = gen::circuit(20_000, 3, 0.4, 5, 2).unwrap();
        let m = MachineModel::knc();
        assert!(inspector_plan_is_regular(&MatrixProfile::analyze(&regular, &m)));
        assert!(!inspector_plan_is_regular(&MatrixProfile::analyze(&skewed, &m)));
    }

    #[test]
    fn inspector_prep_includes_conversion_only_for_regular() {
        let regular = gen::banded(30_000, 8, 1.0, 1).unwrap();
        let irregular = gen::powerlaw(30_000, 8, 1.8, 1).unwrap();
        let (model, prep, pr) = setup(&regular);
        let (_, t_reg) = simulate_inspector(&model, &prep, &pr);
        let (model2, prep2, pi) = setup(&irregular);
        let (_, t_irr) = simulate_inspector(&model2, &prep2, &pi);
        // Same machine; the regular matrix pays the conversion.
        assert!(t_reg > prep.feature_extract_seconds(&pr, true));
        assert!(t_irr < t_reg + prep2.feature_extract_seconds(&pi, true));
    }
}
