//! End-to-end adaptive optimizers.
//!
//! An [`Optimizer`] bundles a classification strategy with the
//! class→optimization mapping and kernel construction, producing a
//! ready-to-run [`TunedSpmv`]. The strategies mirror the paper's
//! evaluation:
//!
//! * **profile-guided** — run the §III-B micro-benchmarks on the host
//!   and apply the Fig. 4 rules;
//! * **feature-guided** — extract Table 2 features and query a
//!   decision tree (or the built-in heuristic approximation when no
//!   trained tree is supplied);
//! * **oracle** — build and time every variant, keep the best (the
//!   "perfect optimizer" upper bound);
//! * **trivial-single / trivial-combined** — the sweeps the paper
//!   uses as overhead baselines in Table 4 (same selection quality as
//!   the oracle over their candidate sets, but paying the full sweep
//!   cost).

use std::time::Instant;

use spmv_kernels::variant::{
    build_kernel, build_micro_kernel, BuiltKernel, KernelVariant, SpmvKernel,
};
use spmv_machine::MachineModel;
use spmv_sparse::{Csr, FeatureVector};

use crate::amortize::TuneCost;
use crate::bounds::{BoundsSource, HostSource};
use crate::class::ClassSet;
use crate::featclf::{heuristic_classify, FeatureGuidedClassifier};
use crate::profile::{ProfileClassifier, Thresholds};

/// Classification strategy of an [`Optimizer`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Strategy {
    /// Online micro-benchmark profiling + Fig. 4 rules.
    ProfileGuided,
    /// Structural features + decision tree (or heuristic fallback).
    FeatureGuided,
    /// Time every candidate variant, keep the best.
    Oracle,
    /// Time the 5 single-optimization variants, keep the best.
    TrivialSingle,
    /// Time all 15 singles + pairs, keep the best.
    TrivialCombined,
    /// Bound-pruned search over the explicit-SIMD microkernel menu
    /// (see [`crate::menu`]), with per-matrix cached winning plans.
    MenuSearch,
}

/// A matrix- and architecture-adaptive SpMV optimizer.
#[derive(Debug, Clone)]
pub struct Optimizer {
    machine: MachineModel,
    strategy: Strategy,
    thresholds: Thresholds,
    trained: Option<FeatureGuidedClassifier>,
    nthreads: usize,
    profiling_reps: usize,
}

impl Optimizer {
    fn base(machine: &MachineModel, strategy: Strategy) -> Optimizer {
        let host_threads = std::thread::available_parallelism().map(|c| c.get()).unwrap_or(1);
        Optimizer {
            machine: machine.clone(),
            strategy,
            thresholds: Thresholds::default(),
            trained: None,
            nthreads: host_threads,
            profiling_reps: 3,
        }
    }

    /// Profile-guided optimizer (paper `prof`).
    pub fn profile_guided(machine: &MachineModel) -> Optimizer {
        Self::base(machine, Strategy::ProfileGuided)
    }

    /// Feature-guided optimizer (paper `feat`) using the built-in
    /// heuristic rules; supply a trained tree with
    /// [`Optimizer::with_classifier`] for the full paper pipeline.
    pub fn feature_guided(machine: &MachineModel) -> Optimizer {
        Self::base(machine, Strategy::FeatureGuided)
    }

    /// Oracle optimizer (paper `oracle`).
    pub fn oracle(machine: &MachineModel) -> Optimizer {
        Self::base(machine, Strategy::Oracle)
    }

    /// Trivial sweep over single optimizations.
    pub fn trivial_single(machine: &MachineModel) -> Optimizer {
        Self::base(machine, Strategy::TrivialSingle)
    }

    /// Trivial sweep over singles and pairs.
    pub fn trivial_combined(machine: &MachineModel) -> Optimizer {
        Self::base(machine, Strategy::TrivialCombined)
    }

    /// Microkernel menu search (bound-pruned, plan-cached).
    pub fn menu_search(machine: &MachineModel) -> Optimizer {
        Self::base(machine, Strategy::MenuSearch)
    }

    /// Installs a trained feature-guided classifier.
    #[must_use]
    pub fn with_classifier(mut self, clf: FeatureGuidedClassifier) -> Optimizer {
        self.trained = Some(clf);
        self
    }

    /// Overrides the worker thread count of built kernels.
    #[must_use]
    pub fn with_threads(mut self, nthreads: usize) -> Optimizer {
        self.nthreads = nthreads.max(1);
        self
    }

    /// Overrides the profile classifier thresholds.
    #[must_use]
    pub fn with_thresholds(mut self, thresholds: Thresholds) -> Optimizer {
        self.thresholds = thresholds;
        self
    }

    /// The strategy in use.
    pub fn strategy(&self) -> Strategy {
        self.strategy
    }

    /// Classifies the matrix (empty set for sweep strategies, which
    /// do not reason in terms of bottlenecks).
    pub fn classify(&self, a: &Csr) -> ClassSet {
        match self.strategy {
            Strategy::ProfileGuided => {
                let source =
                    HostSource::new(self.machine.clone(), self.nthreads, self.profiling_reps);
                let bounds = source.collect(a);
                ProfileClassifier::new(self.thresholds).classify(&bounds)
            }
            Strategy::FeatureGuided => {
                let f = self.features(a);
                match &self.trained {
                    Some(clf) => clf.predict(&f),
                    None => heuristic_classify(&f, self.machine.total_threads() >= 64),
                }
            }
            _ => ClassSet::EMPTY,
        }
    }

    fn features(&self, a: &Csr) -> FeatureVector {
        FeatureVector::extract(a, self.machine.llc_bytes(), self.machine.line_elems())
    }

    /// Runs the full pipeline: classify, map classes to
    /// optimizations, build the kernel. All decision and conversion
    /// time is accumulated in [`TunedSpmv::prep_seconds`].
    pub fn optimize<'a>(&self, a: &'a Csr) -> TunedSpmv<'a> {
        let t0 = Instant::now();
        match self.strategy {
            Strategy::Oracle | Strategy::TrivialSingle | Strategy::TrivialCombined => {
                let candidates = match self.strategy {
                    Strategy::TrivialSingle => KernelVariant::all_singles(),
                    _ => KernelVariant::singles_and_pairs(),
                };
                self.sweep(a, candidates, t0)
            }
            Strategy::MenuSearch => {
                let (plan, _trace) = crate::menu::search_or_cached(
                    a,
                    &self.machine,
                    self.nthreads,
                    self.profiling_reps,
                );
                let built = build_micro_kernel(a, plan.entry, self.nthreads);
                TunedSpmv {
                    classes: ClassSet::EMPTY,
                    built,
                    prep_seconds: t0.elapsed().as_secs_f64(),
                    search_seconds: plan.search_seconds,
                }
            }
            _ => {
                let classes = self.classify(a);
                let variant = classes.to_variant(&self.features(a));
                let built = build_kernel(a, variant, self.nthreads);
                TunedSpmv {
                    classes,
                    built,
                    prep_seconds: t0.elapsed().as_secs_f64(),
                    search_seconds: 0.0,
                }
            }
        }
    }

    /// Builds and times each candidate (plus the baseline), keeping
    /// the fastest.
    fn sweep<'a>(
        &self,
        a: &'a Csr,
        mut candidates: Vec<KernelVariant>,
        t0: Instant,
    ) -> TunedSpmv<'a> {
        candidates.insert(0, KernelVariant::BASELINE);
        let x = vec![1.0f64; a.ncols()];
        let mut y = vec![0.0f64; a.nrows()];
        let mut best: Option<(f64, KernelVariant)> = None;
        for &variant in &candidates {
            let built = build_kernel(a, variant, self.nthreads);
            built.kernel.run(&x, &mut y); // warm-up
            let (t_best, _) = built.kernel.run_repeated(&x, &mut y, self.profiling_reps);
            if best.as_ref().is_none_or(|(b, _)| t_best < *b) {
                best = Some((t_best, variant));
            }
        }
        let (_, variant) = best.expect("candidate list is non-empty");
        let built = build_kernel(a, variant, self.nthreads);
        TunedSpmv {
            classes: ClassSet::EMPTY,
            built,
            prep_seconds: t0.elapsed().as_secs_f64(),
            search_seconds: 0.0,
        }
    }
}

/// The product of [`Optimizer::optimize`]: a runnable tuned kernel
/// plus provenance.
pub struct TunedSpmv<'a> {
    classes: ClassSet,
    built: BuiltKernel<'a>,
    /// Seconds spent deciding and building (classification,
    /// profiling/sweeping, format conversion, codegen).
    pub prep_seconds: f64,
    /// Seconds of [`prep_seconds`](TunedSpmv::prep_seconds) spent in
    /// the menu search specifically (zero for the other strategies
    /// and for plan-cache hits).
    search_seconds: f64,
}

impl<'a> TunedSpmv<'a> {
    /// The runnable kernel.
    pub fn kernel(&self) -> &(dyn SpmvKernel + 'a) {
        &*self.built.kernel
    }

    /// Detected bottleneck classes (empty for sweep strategies).
    pub fn classes(&self) -> ClassSet {
        self.classes
    }

    /// The optimization set that was applied.
    pub fn variant(&self) -> KernelVariant {
        self.built.variant
    }

    /// The full one-off tuning cost, split so amortization charges
    /// search time separately from conversion (cache hits report a
    /// pure-conversion cost).
    pub fn tune_cost(&self) -> TuneCost {
        TuneCost {
            prep_seconds: (self.prep_seconds - self.search_seconds).max(0.0),
            search_seconds: self.search_seconds,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use spmv_kernels::variant::Optimization;
    use spmv_sparse::gen;

    fn check_correct(tuned: &TunedSpmv<'_>, a: &Csr) {
        let x: Vec<f64> = (0..a.ncols()).map(|i| 1.0 + (i % 3) as f64).collect();
        let mut y_ref = vec![0.0; a.nrows()];
        a.spmv(&x, &mut y_ref);
        let mut y = vec![0.0; a.nrows()];
        tuned.kernel().run(&x, &mut y);
        for (u, v) in y.iter().zip(&y_ref) {
            assert!((u - v).abs() < 1e-9);
        }
    }

    #[test]
    fn feature_guided_optimizes_skewed_matrix_with_decomposition() {
        let a = gen::circuit(30_000, 3, 0.4, 5, 3).unwrap();
        let opt = Optimizer::feature_guided(&MachineModel::knl()).with_threads(3);
        let tuned = opt.optimize(&a);
        assert!(tuned.variant().contains(Optimization::Decompose), "{}", tuned.variant());
        assert!(!tuned.classes().is_empty());
        assert!(tuned.prep_seconds > 0.0);
        check_correct(&tuned, &a);
    }

    #[test]
    fn feature_guided_compresses_regular_matrix() {
        let a = gen::banded(40_000, 40, 0.9, 3).unwrap();
        let opt = Optimizer::feature_guided(&MachineModel::knl()).with_threads(2);
        let tuned = opt.optimize(&a);
        assert!(tuned.variant().contains(Optimization::Compress), "{}", tuned.variant());
        check_correct(&tuned, &a);
    }

    #[test]
    fn profile_guided_produces_correct_kernel() {
        let a = gen::powerlaw(5_000, 8, 2.0, 5).unwrap();
        let opt = Optimizer::profile_guided(&MachineModel::host()).with_threads(2);
        let tuned = opt.optimize(&a);
        check_correct(&tuned, &a);
    }

    #[test]
    fn oracle_never_picks_a_broken_kernel() {
        let a = gen::circuit(4_000, 2, 0.3, 5, 7).unwrap();
        let opt = Optimizer::oracle(&MachineModel::host()).with_threads(2);
        let tuned = opt.optimize(&a);
        check_correct(&tuned, &a);
    }

    #[test]
    fn trivial_single_considers_five_variants() {
        let a = gen::banded(2_000, 4, 1.0, 5).unwrap();
        let opt = Optimizer::trivial_single(&MachineModel::host()).with_threads(2);
        let tuned = opt.optimize(&a);
        check_correct(&tuned, &a);
        // Sweep strategies report no classes.
        assert!(tuned.classes().is_empty());
    }

    #[test]
    fn strategies_report_identity() {
        let m = MachineModel::host();
        assert_eq!(Optimizer::oracle(&m).strategy(), Strategy::Oracle);
        assert_eq!(Optimizer::profile_guided(&m).strategy(), Strategy::ProfileGuided);
        assert_eq!(Optimizer::trivial_combined(&m).strategy(), Strategy::TrivialCombined);
        assert_eq!(Optimizer::menu_search(&m).strategy(), Strategy::MenuSearch);
    }

    #[test]
    fn menu_search_produces_correct_kernel_and_tuning_cost() {
        crate::menu::clear_plan_cache();
        let a = gen::banded(3_000, 6, 1.0, 13).unwrap();
        let opt = Optimizer::menu_search(&MachineModel::host()).with_threads(2);
        let tuned = opt.optimize(&a);
        check_correct(&tuned, &a);
        assert!(tuned.classes().is_empty());
        let cost = tuned.tune_cost();
        assert!(cost.search_seconds > 0.0, "first tuning must pay search time");
        assert!((cost.total() - tuned.prep_seconds).abs() < 1e-9);
        // Second tuning of the same matrix hits the plan cache.
        let tuned2 = opt.optimize(&a);
        check_correct(&tuned2, &a);
        assert_eq!(tuned2.tune_cost().search_seconds, 0.0);
        crate::menu::clear_plan_cache();
    }
}
