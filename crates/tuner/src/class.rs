//! Bottleneck classes and their mapping to optimizations.
//!
//! The paper formulates optimization selection as multiclass,
//! multilabel classification where classes are performance
//! bottlenecks (§III-A). Decoupling bottleneck identification from
//! the optimizations themselves is the design point: optimizations
//! can be added or replaced per class without rebuilding a
//! classifier.

use std::fmt;

use spmv_kernels::variant::{KernelVariant, Optimization};
use spmv_sparse::FeatureVector;

/// Row-length skew above which the `IMB` class is treated as dense
/// rows rather than computational unevenness: a matrix whose longest
/// row holds more than `LONG_ROW_SKEW` times the average row's
/// nonzeros (`nnz_max > LONG_ROW_SKEW · nnz_avg`) takes long-row
/// decomposition instead of `auto` scheduling.
pub const LONG_ROW_SKEW: f64 = 16.0;

/// One SpMV performance bottleneck (paper §III-A).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Bottleneck {
    /// Memory-bandwidth bound: bandwidth utilisation near peak,
    /// usually a regular sparsity structure.
    MB,
    /// Memory-latency bound: poor locality in accesses to `x` that
    /// hardware prefetchers cannot cover.
    ML,
    /// Thread imbalance: uneven row lengths (workload imbalance) or
    /// regionally different sparsity (computational unevenness).
    IMB,
    /// Computation bound: cache-resident working sets near the
    /// Roofline ridge, or nonzeros concentrated in a few dense rows,
    /// or loop overhead on very short rows.
    CMP,
}

impl Bottleneck {
    /// All classes, in the paper's order.
    pub const ALL: [Bottleneck; 4] =
        [Bottleneck::MB, Bottleneck::ML, Bottleneck::IMB, Bottleneck::CMP];

    fn bit(self) -> u8 {
        match self {
            Bottleneck::MB => 1 << 0,
            Bottleneck::ML => 1 << 1,
            Bottleneck::IMB => 1 << 2,
            Bottleneck::CMP => 1 << 3,
        }
    }

    /// Short label (paper notation).
    pub fn label(self) -> &'static str {
        match self {
            Bottleneck::MB => "MB",
            Bottleneck::ML => "ML",
            Bottleneck::IMB => "IMB",
            Bottleneck::CMP => "CMP",
        }
    }
}

/// A (possibly empty) set of bottleneck classes. The empty set is the
/// paper's "dummy class": a matrix not worth optimizing with any pool
/// member.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Default, PartialOrd, Ord)]
pub struct ClassSet(u8);

impl ClassSet {
    /// The empty (dummy) class set.
    pub const EMPTY: ClassSet = ClassSet(0);

    /// Builds a set from classes.
    pub fn of(classes: &[Bottleneck]) -> ClassSet {
        let mut bits = 0;
        for c in classes {
            bits |= c.bit();
        }
        ClassSet(bits)
    }

    /// Adds a class.
    #[must_use]
    pub fn with(self, c: Bottleneck) -> ClassSet {
        ClassSet(self.0 | c.bit())
    }

    /// Membership test.
    pub fn contains(self, c: Bottleneck) -> bool {
        self.0 & c.bit() != 0
    }

    /// Whether no class was detected.
    pub fn is_empty(self) -> bool {
        self.0 == 0
    }

    /// Number of detected classes.
    pub fn len(self) -> usize {
        self.0.count_ones() as usize
    }

    /// Iterates contained classes.
    pub fn iter(self) -> impl Iterator<Item = Bottleneck> {
        Bottleneck::ALL.into_iter().filter(move |c| self.contains(*c))
    }

    /// Whether the two sets share at least one class (or are both
    /// empty) — the paper's Partial Match criterion.
    pub fn partially_matches(self, other: ClassSet) -> bool {
        if self.is_empty() && other.is_empty() {
            return true;
        }
        self.0 & other.0 != 0
    }

    /// Raw bits, used as a label-powerset class id by the decision
    /// tree.
    pub fn bits(self) -> u8 {
        self.0
    }

    /// Rebuilds from raw bits (inverse of [`ClassSet::bits`]).
    pub fn from_bits(bits: u8) -> ClassSet {
        ClassSet(bits & 0x0f)
    }

    /// Maps the class set to the jointly applied optimization set
    /// (paper Table "classes to optimizations"). The `IMB` class
    /// selects between decomposition and `auto` scheduling from
    /// structural features: highly uneven row lengths
    /// (`nnz_max > LONG_ROW_SKEW · nnz_avg`, see [`LONG_ROW_SKEW`])
    /// take decomposition, anything milder takes `auto` scheduling.
    ///
    /// This mapping is the plug-and-play seam of the paper: the
    /// classifiers only produce a [`ClassSet`], and what each class
    /// runs is decided here and lowered through the one kernel space
    /// ([`spmv_kernels::KernelConfig`]), so a treatment can change
    /// without retraining either classifier.
    pub fn to_variant(self, features: &FeatureVector) -> KernelVariant {
        let mut v = KernelVariant::BASELINE;
        if self.contains(Bottleneck::MB) {
            v = v.with(Optimization::Compress).with(Optimization::Vectorize);
        }
        if self.contains(Bottleneck::ML) {
            v = v.with(Optimization::Prefetch);
        }
        if self.contains(Bottleneck::IMB) {
            if features.nnz_max > LONG_ROW_SKEW * features.nnz_avg.max(1.0) {
                v = v.with(Optimization::Decompose);
            } else {
                v = v.with(Optimization::AutoSchedule);
            }
        }
        if self.contains(Bottleneck::CMP) {
            v = v.with(Optimization::Vectorize);
        }
        v
    }
}

impl fmt::Debug for ClassSet {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{self}")
    }
}

impl fmt::Display for ClassSet {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.is_empty() {
            return write!(f, "{{}}");
        }
        write!(f, "{{")?;
        let mut first = true;
        for c in self.iter() {
            if !first {
                write!(f, ",")?;
            }
            write!(f, "{}", c.label())?;
            first = false;
        }
        write!(f, "}}")
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use spmv_sparse::gen;

    fn features(a: &spmv_sparse::Csr) -> FeatureVector {
        FeatureVector::extract(a, 30 << 20, 8)
    }

    #[test]
    fn set_operations() {
        let s = ClassSet::of(&[Bottleneck::MB, Bottleneck::CMP]);
        assert!(s.contains(Bottleneck::MB));
        assert!(!s.contains(Bottleneck::ML));
        assert_eq!(s.len(), 2);
        assert_eq!(s.to_string(), "{MB,CMP}");
        assert_eq!(ClassSet::EMPTY.to_string(), "{}");
        assert_eq!(ClassSet::from_bits(s.bits()), s);
    }

    #[test]
    fn partial_match_semantics() {
        let a = ClassSet::of(&[Bottleneck::ML, Bottleneck::IMB]);
        let b = ClassSet::of(&[Bottleneck::IMB]);
        let c = ClassSet::of(&[Bottleneck::MB]);
        assert!(a.partially_matches(b));
        assert!(!a.partially_matches(c));
        assert!(ClassSet::EMPTY.partially_matches(ClassSet::EMPTY));
        assert!(!ClassSet::EMPTY.partially_matches(b));
    }

    #[test]
    fn mb_maps_to_compression_plus_vectorization() {
        let a = gen::banded(1_000, 8, 1.0, 1).unwrap();
        let v = ClassSet::of(&[Bottleneck::MB]).to_variant(&features(&a));
        assert!(v.contains(Optimization::Compress));
        assert!(v.contains(Optimization::Vectorize));
        assert!(!v.contains(Optimization::Prefetch));
    }

    #[test]
    fn imb_subselection_by_row_skew() {
        // Dense-row circuit: nnz_max >> nnz_avg -> decomposition.
        let skewed = gen::circuit(5_000, 3, 0.5, 4, 3).unwrap();
        let v = ClassSet::of(&[Bottleneck::IMB]).to_variant(&features(&skewed));
        assert!(v.contains(Optimization::Decompose));
        assert!(!v.contains(Optimization::AutoSchedule));

        // Mild unevenness: auto scheduling.
        let mild = gen::powerlaw(5_000, 8, 2.4, 3).unwrap();
        let f = features(&mild);
        if f.nnz_max <= LONG_ROW_SKEW * f.nnz_avg {
            let v2 = ClassSet::of(&[Bottleneck::IMB]).to_variant(&f);
            assert!(v2.contains(Optimization::AutoSchedule));
        }
    }

    #[test]
    fn joint_classes_apply_jointly() {
        let a = gen::banded(1_000, 8, 1.0, 1).unwrap();
        let v = ClassSet::of(&[Bottleneck::ML, Bottleneck::CMP]).to_variant(&features(&a));
        assert!(v.contains(Optimization::Prefetch));
        assert!(v.contains(Optimization::Vectorize));
        assert_eq!(v.len(), 2);
    }

    #[test]
    fn empty_class_set_is_baseline() {
        let a = gen::banded(100, 2, 1.0, 1).unwrap();
        assert!(ClassSet::EMPTY.to_variant(&features(&a)).is_baseline());
    }
}
