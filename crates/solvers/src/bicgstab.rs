//! BiCGSTAB for general (non-symmetric) systems.
//!
//! Every vector pass runs on the engine team through
//! `spmv_kernels::dense`; the end-of-iteration update of `x` and `r`
//! also forms `r·r` and the next `r̂₀·r`.

use spmv_kernels::dense::{dot_chunk, Passes};

use crate::jacobi::Jacobi;
use crate::op::{LinOp, SolveStats};

/// Solves `A x = b` with BiCGSTAB from initial guess `x` (overwritten
/// with the solution).
///
/// # Panics
/// Panics if the operator is not square or dimensions disagree.
pub fn bicgstab(
    a: &impl LinOp,
    b: &[f64],
    x: &mut [f64],
    precond: Option<&Jacobi>,
    tol: f64,
    max_iter: usize,
) -> SolveStats {
    let n = a.nrows();
    assert_eq!(a.ncols(), n, "BiCGSTAB needs a square operator");
    assert_eq!(b.len(), n, "b length");
    assert_eq!(x.len(), n, "x length");

    let mut vp = Passes::new(n);
    let bnorm = vp.norm2("bicgstab.dot", b).max(f64::MIN_POSITIVE);
    let mut r = vec![0.0; n];
    let mut r0 = vec![0.0; n];
    a.apply(x, &mut r);
    // r = b − Ax, r̂₀ = r.
    let [rr] = vp.pass("bicgstab.update", [&mut r, &mut r0], [b], |[r, r0], [b]| {
        for ((ri, r0i), bi) in r.iter_mut().zip(r0.iter_mut()).zip(b) {
            *ri = bi - *ri;
            *r0i = *ri;
        }
        [dot_chunk(r, r)]
    });

    let mut history = Vec::new();
    let mut residual = rr.sqrt() / bnorm;
    if residual <= tol {
        return SolveStats { iterations: 0, residual, converged: true, history };
    }

    let mut rho = 1.0f64;
    let mut rho_new = rr; // r̂₀·r, with r̂₀ = r
    let mut alpha = 1.0f64;
    let mut omega = 1.0f64;
    let mut p = vec![0.0; n];
    let mut v = vec![0.0; n];
    let mut s = vec![0.0; n];
    let mut t = vec![0.0; n];
    let d = precond.map(Jacobi::inv_diag);
    // `M⁻¹p` and `M⁻¹s`; without a preconditioner they are `p` and `s`.
    let mut phat = d.map(|_| vec![0.0; n]);
    let mut shat = d.map(|_| vec![0.0; n]);

    for it in 1..=max_iter {
        if rho_new.abs() < f64::MIN_POSITIVE {
            return SolveStats { iterations: it - 1, residual, converged: false, history };
        }
        let beta = (rho_new / rho) * (alpha / omega);
        rho = rho_new;
        vp.pass("bicgstab.direction", [&mut p], [&r, &v], |[p], [r, v]| {
            for ((pi, ri), vi) in p.iter_mut().zip(r).zip(v) {
                *pi = ri + beta * (*pi - omega * vi);
            }
            []
        });
        let ph = precondition(&mut vp, d, &p, &mut phat);
        a.apply(ph, &mut v);
        alpha = rho / vp.dot("bicgstab.dot", &r0, &v);
        // s = r − αv
        let [ss] = vp.pass("bicgstab.update", [&mut s], [&r, &v], |[s], [r, v]| {
            for ((si, ri), vi) in s.iter_mut().zip(r).zip(v) {
                *si = ri - alpha * vi;
            }
            [dot_chunk(s, s)]
        });
        let snorm = ss.sqrt() / bnorm;
        if snorm <= tol {
            vp.axpy("bicgstab.update", alpha, ph, x);
            history.push(snorm);
            return SolveStats { iterations: it, residual: snorm, converged: true, history };
        }
        let sh = precondition(&mut vp, d, &s, &mut shat);
        a.apply(sh, &mut t);
        let [tt, ts] =
            vp.pass("bicgstab.dot", [], [&t, &s], |[], [t, s]| [dot_chunk(t, t), dot_chunk(t, s)]);
        if tt.abs() < f64::MIN_POSITIVE {
            return SolveStats { iterations: it - 1, residual, converged: false, history };
        }
        omega = ts / tt;
        // x += αp̂ + ωŝ, r = s − ωt
        let [rr, r0r] = vp.pass(
            "bicgstab.update",
            [&mut *x, &mut r],
            [ph, sh, &s, &t, &r0],
            |[x, r], [ph, sh, s, t, r0]| {
                for ((xi, phi), shi) in x.iter_mut().zip(ph).zip(sh) {
                    *xi += alpha * phi;
                    *xi += omega * shi;
                }
                for ((ri, si), ti) in r.iter_mut().zip(s).zip(t) {
                    *ri = si - omega * ti;
                }
                [dot_chunk(r, r), dot_chunk(r0, r)]
            },
        );
        rho_new = r0r;
        residual = rr.sqrt() / bnorm;
        history.push(residual);
        if residual <= tol {
            return SolveStats { iterations: it, residual, converged: true, history };
        }
        if omega.abs() < f64::MIN_POSITIVE {
            return SolveStats { iterations: it, residual, converged: false, history };
        }
    }
    SolveStats { iterations: max_iter, residual, converged: false, history }
}

/// `M⁻¹ src`: written to `dst` when there is a preconditioner
/// diagonal `d`, otherwise `src` itself.
fn precondition<'a>(
    vp: &mut Passes,
    d: Option<&[f64]>,
    src: &'a [f64],
    dst: &'a mut Option<Vec<f64>>,
) -> &'a [f64] {
    let (Some(d), Some(dst)) = (d, dst) else { return src };
    vp.pass("bicgstab.precond", [&mut dst[..]], [src, d], |[z], [r, d]| {
        for ((zi, ri), di) in z.iter_mut().zip(r).zip(d) {
            *zi = ri * di;
        }
        []
    });
    dst
}

#[cfg(test)]
mod tests {
    use super::*;
    use spmv_sparse::gen;

    #[test]
    fn solves_nonsymmetric_circuit_system() {
        let a = gen::circuit(500, 2, 0.2, 4, 3).unwrap();
        let n = a.nrows();
        let x_true: Vec<f64> = (0..n).map(|i| ((i % 5) as f64) * 0.5 - 1.0).collect();
        let mut b = vec![0.0; n];
        a.spmv(&x_true, &mut b);
        let mut x = vec![0.0; n];
        let stats = bicgstab(&a, &b, &mut x, None, 1e-10, 2_000);
        assert!(stats.converged, "residual {}", stats.residual);
        for (u, v) in x.iter().zip(&x_true) {
            assert!((u - v).abs() < 1e-5);
        }
    }

    #[test]
    fn jacobi_preconditioner_helps_or_is_neutral() {
        let a = gen::random_uniform(600, 6, 7).unwrap();
        let b = vec![1.0; 600];
        let mut x0 = vec![0.0; 600];
        let plain = bicgstab(&a, &b, &mut x0, None, 1e-9, 3_000);
        let m = Jacobi::new(&a);
        let mut x1 = vec![0.0; 600];
        let pre = bicgstab(&a, &b, &mut x1, Some(&m), 1e-9, 3_000);
        assert!(plain.converged && pre.converged);
        assert!(pre.iterations <= plain.iterations + 5);
    }

    #[test]
    fn immediate_convergence_on_exact_guess() {
        let a = gen::banded(100, 2, 1.0, 3).unwrap();
        let x_true = vec![2.0; 100];
        let mut b = vec![0.0; 100];
        a.spmv(&x_true, &mut b);
        let mut x = x_true.clone();
        let stats = bicgstab(&a, &b, &mut x, None, 1e-12, 50);
        assert!(stats.converged);
        assert_eq!(stats.iterations, 0);
    }

    #[test]
    fn budget_exhaustion_reported() {
        let a = gen::random_uniform(400, 8, 1).unwrap();
        let b = vec![1.0; 400];
        let mut x = vec![0.0; 400];
        let stats = bicgstab(&a, &b, &mut x, None, 1e-15, 2);
        assert!(!stats.converged);
        assert!(stats.iterations <= 2);
    }
}
