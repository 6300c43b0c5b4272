//! Criterion: format conversion costs — the preprocessing charged to
//! each optimization by the Table 4 amortization study, measured on
//! the host.

use criterion::{criterion_group, criterion_main, Criterion, Throughput};
use std::hint::black_box;

use spmv_sparse::{gen, Csr, DecomposedCsr, DeltaCsr};

fn bench_conversions(c: &mut Criterion) {
    let banded = gen::banded(60_000, 24, 0.9, 1).expect("valid");
    let circuit = gen::circuit(80_000, 4, 0.3, 6, 2).expect("valid");

    let mut group = c.benchmark_group("convert");
    group.throughput(Throughput::Elements(banded.nnz() as u64));
    group.bench_function("delta_compress/banded", |b| {
        b.iter(|| black_box(DeltaCsr::from_csr(black_box(&banded)).unwrap()));
    });
    group.bench_function("decompose/circuit", |b| {
        b.iter(|| black_box(DecomposedCsr::split(black_box(&circuit), 128).expect("threshold")));
    });
    group.bench_function("coo_to_csr/banded", |b| {
        let coo = banded.to_coo();
        b.iter(|| black_box(Csr::from_coo(black_box(&coo))));
    });
    group.bench_function("transpose/banded", |b| {
        b.iter(|| black_box(black_box(&banded).transpose()));
    });
    group.finish();
}

criterion_group! {
    name = benches;
    config = Criterion::default().sample_size(10);
    targets = bench_conversions
}
criterion_main!(benches);
