//! Audit fixture: the unwitnessed path runs through *method*
//! dispatch (`self.inner(...)`), which the call-graph resolver must
//! follow by name. Scanned as crates/kernels/src/baseline.rs this
//! must trigger only `witness-flow`.
//! Not compiled — scanned only by `cargo xtask audit`'s self-test.

pub struct Kernel;

impl Kernel {
    /// Public dispatch with no witness.
    pub fn run_rows(&self, vals: &[f64]) -> f64 {
        self.inner(vals)
    }

    fn inner(&self, vals: &[f64]) -> f64 {
        // SAFETY: fixture — pretends index 0 is in bounds.
        unsafe { *vals.get_unchecked(0) }
    }
}
