//! Criterion: persistent-pool dispatch overhead.
//!
//! Measures the nnz-balanced scalar CSR SpMV (`pooled`: a `CsrKernel`
//! holding a precomputed `Plan`, dispatched on the persistent
//! `ExecEngine` team) at 1, 4 and 8 threads. On the small matrix
//! (~10k nnz) compute is negligible, so the per-call time *is* the
//! dispatch cost; on the large matrix (~5M nnz) compute dominates.
//! Besides the criterion groups, `overhead_report` prints the
//! measured per-call time directly.

use std::time::Instant;

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion, Throughput};
use std::hint::black_box;

use spmv_kernels::baseline::CsrKernel;
use spmv_kernels::variant::SpmvKernel;
use spmv_sparse::{gen, Csr};

fn cases() -> Vec<(&'static str, Csr)> {
    vec![
        // ~10k nnz: dispatch overhead dominates.
        ("small", gen::banded(2_000, 2, 1.0, 1).expect("valid")),
        // ~5M nnz: compute dominates.
        ("large", gen::banded(250_000, 10, 1.0, 2).expect("valid")),
    ]
}

fn bench_dispatch(c: &mut Criterion) {
    for (name, a) in &cases() {
        let mut group = c.benchmark_group(format!("dispatch/{name}"));
        group.throughput(Throughput::Elements(a.nnz() as u64));
        let x = vec![1.0f64; a.ncols()];
        let mut y = vec![0.0f64; a.nrows()];
        for &nthreads in &[1usize, 4, 8] {
            let pooled = CsrKernel::baseline(a, nthreads);
            group.bench_with_input(BenchmarkId::new("pooled", nthreads), &nthreads, |b, _| {
                b.iter(|| pooled.run(black_box(&x), black_box(&mut y)));
            });
        }
        group.finish();
    }
}

/// Times `calls` invocations and returns mean seconds per call.
fn mean_per_call<F: FnMut()>(mut f: F, calls: usize) -> f64 {
    f(); // warm-up (creates the pool for the pooled path)
    let t0 = Instant::now();
    for _ in 0..calls {
        f();
    }
    t0.elapsed().as_secs_f64() / calls as f64
}

/// Prints the measured per-call time; on the small matrix SpMV
/// compute is negligible and dispatch is everything.
fn overhead_report(_c: &mut Criterion) {
    println!("\nper-call dispatch cost (nnz-balanced scalar CSR):");
    for (name, a) in &cases() {
        let calls = if a.nnz() < 100_000 { 300 } else { 20 };
        let x = vec![1.0f64; a.ncols()];
        let mut y = vec![0.0f64; a.nrows()];
        for &nthreads in &[1usize, 4, 8] {
            let pooled_kernel = CsrKernel::baseline(a, nthreads);
            let pooled = mean_per_call(|| pooled_kernel.run(&x, &mut y), calls);
            println!("  {name:>5} t={nthreads}: pooled {:>10.2} us", pooled * 1e6);
        }
    }
}

criterion_group! {
    name = benches;
    config = Criterion::default().sample_size(10);
    targets = bench_dispatch, overhead_report
}
criterion_main!(benches);
