//! Regenerates paper Table 1: platform characteristics.
fn main() {
    print!("{}", spmv_bench::experiments::table1::run());
}
