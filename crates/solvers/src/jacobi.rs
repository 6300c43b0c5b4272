//! Jacobi (diagonal) preconditioner.
//!
//! The cheapest practical preconditioner; the paper's §IV-D argument
//! is precisely that preconditioned solvers converge in fewer
//! iterations, shrinking the budget available to amortize autotuning
//! overheads.

use spmv_sparse::Csr;

/// Diagonal preconditioner `M⁻¹ = diag(A)⁻¹`.
#[derive(Debug, Clone)]
pub struct Jacobi {
    inv_diag: Vec<f64>,
}

impl Jacobi {
    /// Builds the preconditioner from a matrix. Zero diagonal entries
    /// fall back to 1 (identity on that row).
    pub fn new(a: &Csr) -> Jacobi {
        let inv_diag = a
            .diagonal()
            .into_iter()
            .map(|d| if d.abs() > f64::MIN_POSITIVE { 1.0 / d } else { 1.0 })
            .collect();
        Jacobi { inv_diag }
    }

    /// The diagonal of `M⁻¹`; the solvers apply it element-wise
    /// inside their fused vector passes.
    pub fn inv_diag(&self) -> &[f64] {
        &self.inv_diag
    }

    /// Problem dimension.
    pub fn len(&self) -> usize {
        self.inv_diag.len()
    }

    /// Whether the preconditioner is empty (0-dimensional).
    pub fn is_empty(&self) -> bool {
        self.inv_diag.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use spmv_sparse::gen;

    #[test]
    fn inverts_the_diagonal() {
        let a = gen::banded(20, 2, 1.0, 1).unwrap();
        let m = Jacobi::new(&a);
        let d = a.diagonal();
        for (inv, di) in m.inv_diag().iter().zip(&d) {
            assert!((inv - 1.0 / di).abs() < 1e-14);
        }
    }

    #[test]
    fn zero_diagonal_falls_back_to_identity() {
        let a = Csr::from_raw(2, 2, vec![0, 1, 2], vec![1, 0], vec![3.0, 4.0]).unwrap();
        let m = Jacobi::new(&a); // diagonal entries are structurally zero
        assert_eq!(m.inv_diag(), [1.0, 1.0]);
        assert_eq!(m.len(), 2);
        assert!(!m.is_empty());
    }
}
