//! How many engine dispatches a CG solve's vector passes make.
//!
//! The engine's dispatch counters are process-wide, so this check
//! lives alone in its own test binary: no other test can dispatch
//! while it counts.

use spmv_kernels::dense::{CHUNK, INLINE_CHUNKS};
use spmv_solvers::cg;
use spmv_sparse::gen;
use spmv_telemetry::metrics::engine_dispatch;

#[test]
fn passes_dispatch_only_past_the_inline_cutoff() {
    // Below the cutoff: every pass runs inline on the caller. The
    // serial `Csr` operator dispatches nothing either.
    let a = gen::stencil_2d(100, 100).unwrap();
    assert!(a.nrows() < INLINE_CHUNKS * CHUNK);
    let b = vec![1.0; a.nrows()];
    let mut x = vec![0.0; a.nrows()];
    let before = engine_dispatch().snapshot().dispatches;
    let st = cg(&a, &b, &mut x, None, 1e-8, 1_000);
    assert!(st.converged);
    assert_eq!(engine_dispatch().snapshot().dispatches, before);

    // Past it: ‖b‖ and the initial residual pass, then passes A, B
    // and C per iteration, except the last, which stops after B.
    let a = gen::banded(INLINE_CHUNKS * CHUNK + 1, 2, 1.0, 3).unwrap();
    let (at, mut coo) = (a.transpose(), a.to_coo());
    for (r, c, v) in at.to_coo().iter() {
        coo.push(r, c, v).unwrap();
    }
    let spd = spmv_sparse::Csr::from_coo(&coo);
    let b = vec![1.0; spd.nrows()];
    let mut x = vec![0.0; spd.nrows()];
    let before = engine_dispatch().snapshot().dispatches;
    let st = cg(&spd, &b, &mut x, None, 1e-8, 1_000);
    assert!(st.converged && st.iterations > 0);
    let dispatches = engine_dispatch().snapshot().dispatches - before;
    assert_eq!(dispatches, 3 * st.iterations as u64 + 1);
}
