//! Feature-guided classifier (paper §III-D).
//!
//! A CART decision tree over the Table 2 structural features,
//! trained offline on a corpus labeled by the profile-guided
//! classifier, then queried at `O(log N_samples)` cost at runtime —
//! the paper's most lightweight decision path.
//!
//! Includes the Leave-One-Out cross-validation harness with the
//! paper's two accuracy metrics:
//!
//! * **Exact Match Ratio** — predicted class set identical to the
//!   label;
//! * **Partial Match Ratio** — at least one class in common (both
//!   empty also counts), the relevant metric when at least one
//!   applied optimization suffices to improve performance.

use spmv_sparse::features::{FeatureSet, FeatureVector};

use crate::class::{Bottleneck, ClassSet, LONG_ROW_SKEW};
use crate::dtree::{DecisionTree, TreeParams};

/// A trained feature-guided classifier.
#[derive(Debug, Clone)]
pub struct FeatureGuidedClassifier {
    set: FeatureSet,
    tree: DecisionTree,
}

impl FeatureGuidedClassifier {
    /// Trains on `(features, label)` samples using the selected
    /// feature subset.
    ///
    /// # Panics
    /// Panics on an empty training set.
    pub fn train(
        samples: &[(FeatureVector, ClassSet)],
        set: FeatureSet,
        params: TreeParams,
    ) -> FeatureGuidedClassifier {
        let x: Vec<Vec<f64>> = samples.iter().map(|(f, _)| f.select(set)).collect();
        let y: Vec<u8> = samples.iter().map(|(_, c)| c.bits()).collect();
        FeatureGuidedClassifier { set, tree: DecisionTree::fit(&x, &y, params) }
    }

    /// Predicts the bottleneck class set for a feature vector.
    pub fn predict(&self, features: &FeatureVector) -> ClassSet {
        ClassSet::from_bits(self.tree.predict(&features.select(self.set)))
    }

    /// The feature subset this classifier consumes.
    pub fn feature_set(&self) -> FeatureSet {
        self.set
    }

    /// Importance of each feature (order of
    /// [`FeatureSet::names`]).
    pub fn feature_importances(&self) -> &[f64] {
        self.tree.feature_importances()
    }
}

/// Accuracy metrics of §IV-B.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Accuracy {
    /// Exact Match Ratio in `[0, 1]`.
    pub exact: f64,
    /// Partial Match Ratio in `[0, 1]`.
    pub partial: f64,
}

/// Leave-One-Out cross-validation: trains `k` classifiers on `k-1`
/// samples and tests on the held-out one, averaging both match
/// ratios (the paper's §IV-B methodology with `k = 210`).
pub fn loocv(
    samples: &[(FeatureVector, ClassSet)],
    set: FeatureSet,
    params: TreeParams,
) -> Accuracy {
    let predictions = loocv_predictions(samples, set, params);
    let mut exact = 0usize;
    let mut partial = 0usize;
    for (predicted, (_, label)) in predictions.iter().zip(samples) {
        if predicted == label {
            exact += 1;
        }
        if predicted.partially_matches(*label) {
            partial += 1;
        }
    }
    let k = samples.len() as f64;
    Accuracy { exact: exact as f64 / k, partial: partial as f64 / k }
}

/// The held-out prediction for every sample under Leave-One-Out CV.
///
/// # Panics
/// Panics with fewer than two samples.
pub fn loocv_predictions(
    samples: &[(FeatureVector, ClassSet)],
    set: FeatureSet,
    params: TreeParams,
) -> Vec<ClassSet> {
    assert!(samples.len() >= 2, "need at least two samples for LOOCV");
    let mut out = Vec::with_capacity(samples.len());
    let mut train: Vec<(FeatureVector, ClassSet)> = Vec::with_capacity(samples.len() - 1);
    for held in 0..samples.len() {
        train.clear();
        train.extend(samples.iter().enumerate().filter(|(i, _)| *i != held).map(|(_, s)| *s));
        let clf = FeatureGuidedClassifier::train(&train, set, params);
        out.push(clf.predict(&samples[held].0));
    }
    out
}

/// Per-bottleneck-class precision / recall of a prediction set.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ClassMetrics {
    /// The class being scored.
    pub class: Bottleneck,
    /// `TP / (TP + FP)`; 1.0 when the class is never predicted.
    pub precision: f64,
    /// `TP / (TP + FN)`; 1.0 when the class never occurs.
    pub recall: f64,
    /// Number of samples whose label contains the class.
    pub support: usize,
}

/// Computes per-class precision/recall from per-sample `(predicted,
/// label)` pairs — the binary-relevance view of the multi-label
/// problem, finer-grained than the paper's match ratios.
pub fn per_class_metrics(predictions: &[ClassSet], labels: &[ClassSet]) -> Vec<ClassMetrics> {
    assert_eq!(predictions.len(), labels.len(), "length mismatch");
    Bottleneck::ALL
        .iter()
        .map(|&class| {
            let mut tp = 0usize;
            let mut fp = 0usize;
            let mut fn_ = 0usize;
            for (p, l) in predictions.iter().zip(labels) {
                match (p.contains(class), l.contains(class)) {
                    (true, true) => tp += 1,
                    (true, false) => fp += 1,
                    (false, true) => fn_ += 1,
                    (false, false) => {}
                }
            }
            ClassMetrics {
                class,
                precision: if tp + fp == 0 { 1.0 } else { tp as f64 / (tp + fp) as f64 },
                recall: if tp + fn_ == 0 { 1.0 } else { tp as f64 / (tp + fn_) as f64 },
                support: tp + fn_,
            }
        })
        .collect()
}

/// f64 values per 64-byte cache line: rows averaging fewer nonzeros
/// than this count as short in [`heuristic_classify`]'s multicore
/// `ML` rule.
const LINE_VALUES: f64 = 8.0;

/// Untrained fallback: a hand-written approximation of the decision
/// rules a trained tree converges to, for library users who want a
/// working feature-guided optimizer without shipping a training
/// corpus. Matches the paper's qualitative reasoning per class.
///
/// `ML` needs strong per-row irregularity of the `x` accesses
/// (`misses_avg / nnz_avg > 0.25`). A many-core machine, whose
/// in-order cores stall on every miss, always reports it. A multicore
/// machine reports it only when the working set also leaves the LLC
/// and rows average under one cache line of values
/// (`nnz_avg < 8`): an out-of-order core already overlaps the `x`
/// misses of long rows, but short rows end before it can look ahead.
pub fn heuristic_classify(f: &FeatureVector, machine_is_many_core: bool) -> ClassSet {
    let mut set = ClassSet::EMPTY;
    let avg = f.nnz_avg.max(1.0);
    // Dense-row concentration: workload imbalance + compute-limited
    // serialised rows.
    if f.nnz_max > LONG_ROW_SKEW * avg {
        set = set.with(Bottleneck::IMB).with(Bottleneck::CMP);
    }
    // Strong per-row irregularity: latency-bound accesses to x; far
    // more damaging on many-core platforms, and on multicore ones
    // only for short rows streamed from DRAM.
    let miss_rate = f.misses_avg / avg;
    let short_rows_from_dram = f.size_fits_llc < 0.5 && f.nnz_avg < LINE_VALUES;
    if miss_rate > 0.25 && (machine_is_many_core || short_rows_from_dram) {
        set = set.with(Bottleneck::ML);
    }
    // Row-length variance without dense rows: computational
    // unevenness.
    if f.nnz_sd > 1.5 * avg && f.nnz_max <= LONG_ROW_SKEW * avg {
        set = set.with(Bottleneck::IMB);
    }
    // Cache-resident working sets push toward the ridge point.
    if f.size_fits_llc > 0.5 {
        set = set.with(Bottleneck::CMP);
    }
    // Regular structure with nothing else wrong: bandwidth bound.
    if set.is_empty() && f.nnz_sd < 0.5 * avg && miss_rate < 0.05 {
        set = set.with(Bottleneck::MB);
    }
    set
}

#[cfg(test)]
mod tests {
    use super::*;
    use spmv_sparse::gen;

    fn fv(a: &spmv_sparse::Csr) -> FeatureVector {
        FeatureVector::extract(a, 30 << 20, 8)
    }

    /// A synthetic, perfectly separable corpus: class follows
    /// archetype.
    fn corpus() -> Vec<(FeatureVector, ClassSet)> {
        let mut samples = Vec::new();
        for seed in 0..8 {
            let banded = gen::banded(4_000 + 100 * seed as usize, 12, 0.9, seed).unwrap();
            samples.push((fv(&banded), ClassSet::of(&[Bottleneck::MB])));
            let random = gen::random_uniform(3_000 + 100 * seed as usize, 12, seed).unwrap();
            samples.push((fv(&random), ClassSet::of(&[Bottleneck::ML])));
            let circuit = gen::circuit(4_000 + 100 * seed as usize, 2, 0.4, 5, seed).unwrap();
            samples.push((fv(&circuit), ClassSet::of(&[Bottleneck::IMB, Bottleneck::CMP])));
        }
        samples
    }

    #[test]
    fn learns_archetype_separation() {
        let samples = corpus();
        let clf = FeatureGuidedClassifier::train(&samples, FeatureSet::Full, TreeParams::default());
        let banded = gen::banded(5_000, 12, 0.9, 99).unwrap();
        assert_eq!(clf.predict(&fv(&banded)), ClassSet::of(&[Bottleneck::MB]));
        let circuit = gen::circuit(5_000, 2, 0.4, 5, 99).unwrap();
        assert_eq!(clf.predict(&fv(&circuit)), ClassSet::of(&[Bottleneck::IMB, Bottleneck::CMP]));
    }

    #[test]
    fn loocv_scores_high_on_separable_data() {
        let samples = corpus();
        let acc = loocv(&samples, FeatureSet::Full, TreeParams::default());
        assert!(acc.exact >= 0.85, "exact {}", acc.exact);
        assert!(acc.partial >= acc.exact);
        assert!(acc.partial >= 0.9, "partial {}", acc.partial);
    }

    #[test]
    fn row_only_features_also_usable() {
        let samples = corpus();
        let clf =
            FeatureGuidedClassifier::train(&samples, FeatureSet::RowOnly, TreeParams::default());
        assert_eq!(clf.feature_set(), FeatureSet::RowOnly);
        assert_eq!(clf.feature_importances().len(), FeatureSet::RowOnly.names().len());
    }

    #[test]
    fn heuristic_flags_dense_rows_as_imb_cmp() {
        let circuit = gen::circuit(20_000, 3, 0.4, 5, 3).unwrap();
        let set = heuristic_classify(&fv(&circuit), true);
        assert!(set.contains(Bottleneck::IMB), "{set}");
        assert!(set.contains(Bottleneck::CMP), "{set}");
    }

    #[test]
    fn heuristic_flags_regular_as_mb() {
        let banded = gen::banded(60_000, 40, 0.9, 3).unwrap();
        let set = heuristic_classify(&fv(&banded), true);
        assert_eq!(set, ClassSet::of(&[Bottleneck::MB]), "{set}");
    }

    #[test]
    fn heuristic_ml_requires_many_core() {
        let random = gen::random_uniform(50_000, 12, 3).unwrap();
        let f = fv(&random);
        assert!(heuristic_classify(&f, true).contains(Bottleneck::ML));
        assert!(!heuristic_classify(&f, false).contains(Bottleneck::ML));
    }

    /// Features on the host model's LLC and line, classified as a
    /// multicore machine.
    fn host_classes(a: &spmv_sparse::Csr) -> (FeatureVector, ClassSet) {
        let host = spmv_machine::MachineModel::host();
        let f = FeatureVector::extract(a, host.llc_bytes(), host.line_elems());
        (f, heuristic_classify(&f, false))
    }

    /// A 7-point stencil with its numbering jittered in 4096-row
    /// windows, as in the DRAM heat-step benchmark.
    fn jittered_stencil(n: usize) -> spmv_sparse::Csr {
        let a = gen::stencil_3d(n, n, n).unwrap();
        let perm = gen::jittered_permutation(a.nrows(), 4096, 1);
        gen::permute_symmetric(&a, &perm).unwrap()
    }

    #[test]
    fn heuristic_multicore_ml_for_short_rows_from_dram() {
        let (f, set) = host_classes(&jittered_stencil(48));
        assert_eq!(f.size_fits_llc, 0.0);
        assert!(f.nnz_avg < LINE_VALUES, "{}", f.nnz_avg);
        assert_eq!(set, ClassSet::of(&[Bottleneck::ML]), "{set}");
        let pref = spmv_kernels::KernelVariant::BASELINE.with(spmv_kernels::Optimization::Prefetch);
        assert_eq!(set.to_variant(&f), pref);
    }

    #[test]
    fn heuristic_multicore_no_ml_when_cache_resident() {
        let (f, set) = host_classes(&jittered_stencil(20));
        assert_eq!(f.size_fits_llc, 1.0);
        assert!(f.misses_avg / f.nnz_avg > 0.25);
        assert!(!set.contains(Bottleneck::ML), "{set}");
    }

    #[test]
    fn heuristic_multicore_no_ml_for_long_rows_from_dram() {
        let (f, set) = host_classes(&gen::random_uniform(60_000, 12, 3).unwrap());
        assert_eq!(f.size_fits_llc, 0.0);
        assert!(f.misses_avg / f.nnz_avg > 0.25);
        assert!(!set.contains(Bottleneck::ML), "{set}");
    }

    #[test]
    fn per_class_metrics_counts() {
        use crate::class::Bottleneck::*;
        let labels = vec![
            ClassSet::of(&[MB]),
            ClassSet::of(&[ML]),
            ClassSet::of(&[ML, IMB]),
            ClassSet::EMPTY,
        ];
        let predictions = vec![
            ClassSet::of(&[MB]),      // MB: TP
            ClassSet::of(&[MB]),      // MB: FP, ML: FN
            ClassSet::of(&[ML, IMB]), // ML,IMB: TP
            ClassSet::EMPTY,
        ];
        let m = per_class_metrics(&predictions, &labels);
        let mb = m.iter().find(|x| x.class == MB).unwrap();
        assert!((mb.precision - 0.5).abs() < 1e-12);
        assert!((mb.recall - 1.0).abs() < 1e-12);
        assert_eq!(mb.support, 1);
        let ml = m.iter().find(|x| x.class == ML).unwrap();
        assert!((ml.precision - 1.0).abs() < 1e-12);
        assert!((ml.recall - 0.5).abs() < 1e-12);
        let cmp = m.iter().find(|x| x.class == CMP).unwrap();
        assert_eq!(cmp.support, 0);
        assert_eq!(cmp.precision, 1.0);
        assert_eq!(cmp.recall, 1.0);
    }

    #[test]
    fn loocv_predictions_align_with_accuracy() {
        let samples = corpus();
        let preds = loocv_predictions(&samples, FeatureSet::Full, TreeParams::default());
        assert_eq!(preds.len(), samples.len());
        let acc = loocv(&samples, FeatureSet::Full, TreeParams::default());
        let exact = preds.iter().zip(&samples).filter(|(p, (_, l))| *p == l).count() as f64
            / samples.len() as f64;
        assert!((acc.exact - exact).abs() < 1e-12);
    }

    #[test]
    #[should_panic(expected = "at least two")]
    fn loocv_needs_two_samples() {
        let samples = corpus();
        loocv(&samples[..1], FeatureSet::Full, TreeParams::default());
    }
}
