//! CLI-level coverage of `spmvtune explain`: the decision-trace
//! renderer must show the thresholds, the measured ratios, and which
//! rule fired, and must fail cleanly on bad input. Also covers what
//! `spmvtune bench` reports each variant lowered to.

use std::process::Command;

fn spmvtune(args: &[&str]) -> std::process::Output {
    Command::new(env!("CARGO_BIN_EXE_spmvtune")).args(args).output().expect("spawn spmvtune")
}

#[test]
fn explain_renders_the_decision_table() {
    let out = spmvtune(&["explain", "preset:rajat30:0.02", "--machine", "knc"]);
    assert!(out.status.success(), "stderr: {}", String::from_utf8_lossy(&out.stderr));
    let text = String::from_utf8(out.stdout).unwrap();
    // The thresholds the ratios were compared against.
    assert!(text.contains("T_ML = 1.25"), "{text}");
    assert!(text.contains("T_IMB = 1.24"), "{text}");
    // Every bound and every rule row is present.
    for label in ["P_CSR", "P_MB", "P_ML", "P_IMB", "P_CMP", "P_PEAK"] {
        assert!(text.contains(label), "missing bound {label}:\n{text}");
    }
    for rule in ["P_IMB / P_CSR > T_IMB", "P_ML / P_CSR > T_ML", "P_MB > P_CMP or P_CMP > P_PEAK"] {
        assert!(text.contains(rule), "missing rule {rule:?}:\n{text}");
    }
    // The verdict lines.
    assert!(text.contains("bottleneck classes:"), "{text}");
    assert!(text.contains("selected optimizations:"), "{text}");
    // At least one rule fires for this skewed circuit matrix on KNC.
    assert!(text.contains("FIRED"), "{text}");
}

#[test]
fn explain_renders_the_menu_search_trace() {
    let out = spmvtune(&["explain", "preset:rajat30:0.02", "--machine", "knc"]);
    assert!(out.status.success(), "stderr: {}", String::from_utf8_lossy(&out.stderr));
    let text = String::from_utf8(out.stdout).unwrap();
    // The menu section header and its accounting line.
    assert!(text.contains("microkernel menu for"), "{text}");
    assert!(text.contains("menu search:"), "{text}");
    assert!(text.contains("candidates"), "{text}");
    assert!(text.contains("bound-pruned"), "{text}");
    // The scalar CSR baseline is always timed (it is the pruning
    // floor), and a winner is always declared.
    assert!(text.contains("timed  csr/scalar4-a1"), "{text}");
    assert!(text.contains("<- winner"), "{text}");
    assert!(text.contains("winner:"), "{text}");
    assert!(text.contains("GF/s, search"), "{text}");
}

#[test]
fn explain_menu_trace_respects_forced_scalar() {
    // Under SPMV_FORCE_SCALAR the menu must not select (or even
    // consider) an explicit-SIMD candidate — the CI scalar job runs
    // the whole suite this way.
    let out = Command::new(env!("CARGO_BIN_EXE_spmvtune"))
        .args(["explain", "preset:rajat30:0.02", "--machine", "knc"])
        .env("SPMV_FORCE_SCALAR", "1")
        .output()
        .expect("spawn spmvtune");
    assert!(out.status.success(), "stderr: {}", String::from_utf8_lossy(&out.stderr));
    let text = String::from_utf8(out.stdout).unwrap();
    assert!(text.contains("menu search:"), "{text}");
    assert!(!text.contains("csr/avx2"), "{text}");
    assert!(!text.contains("csr/avx512"), "{text}");
}

#[test]
fn explain_rejects_unknown_input() {
    let out = spmvtune(&["explain", "preset:no-such-matrix"]);
    assert!(!out.status.success());
    let err = String::from_utf8_lossy(&out.stderr);
    assert!(err.contains("unknown preset"), "{err}");
}

#[test]
fn explain_rejects_unknown_machine() {
    let out = spmvtune(&["explain", "preset:rajat30:0.02", "--machine", "sparc"]);
    assert!(!out.status.success());
    let err = String::from_utf8_lossy(&out.stderr);
    assert!(err.contains("unknown machine"), "{err}");
}

#[test]
fn bench_prints_the_kernel_each_variant_lowered_to() {
    let out = spmvtune(&["bench", "preset:consph:0.02"]);
    assert!(out.status.success(), "stderr: {}", String::from_utf8_lossy(&out.stderr));
    let text = String::from_utf8(out.stdout).unwrap();
    // Each variant line reads `label  config-id  GFLOP/s ...`.
    let lowered: std::collections::HashMap<&str, &str> = text
        .lines()
        .filter(|l| l.contains("GFLOP/s  (prep"))
        .map(|l| {
            let mut words = l.split_whitespace();
            (words.next().unwrap(), words.next().unwrap())
        })
        .collect();
    assert_eq!(lowered.len(), 16, "{text}");
    // Compression takes the row kernel of the other optimizations,
    // and decomposition without long rows (a FEM matrix) is plain CSR.
    for (variant, id) in [
        ("baseline", "csr/scalar"),
        ("comp", "delta/scalar"),
        ("vec+comp", "delta/unrolled"),
        ("pref+comp", "delta/prefetch"),
        ("decomp", "csr/scalar"),
        ("comp+auto", "delta/scalar@Guided"),
    ] {
        assert_eq!(lowered.get(variant), Some(&id), "{variant}:\n{text}");
    }
}
