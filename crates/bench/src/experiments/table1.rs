//! Table 1 — technical characteristics of the experimental platforms,
//! printed from the machine presets. The host's measured STREAM triad
//! is reported with the simulator validation (`validate_sim`), so this
//! table regenerates byte-identical.

use spmv_machine::MachineModel;

use crate::table::{f, Table};

/// Renders the platform table.
pub fn run() -> String {
    let mut table = Table::new(
        "Table 1 — experimental platform models",
        &[
            "codename",
            "cores",
            "thr/core",
            "GHz",
            "simd(f64)",
            "LLC MiB",
            "BW main GB/s",
            "BW llc GB/s",
            "mem lat ns",
            "llc lat ns",
        ],
    );
    for m in MachineModel::paper_platforms() {
        table.row(vec![
            m.name.clone(),
            m.cores.to_string(),
            m.threads_per_core.to_string(),
            f(m.freq_ghz),
            m.simd_lanes.to_string(),
            (m.llc_bytes() >> 20).to_string(),
            f(m.bw_main_gbps),
            f(m.bw_llc_gbps),
            f(m.mem_latency_ns),
            f(m.llc_latency_ns),
        ]);
    }
    table.render()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn matches_paper_table1_values() {
        let report = run();
        // KNC: 57 cores, 128 GB/s main; KNL: 68 cores, 395/570;
        // Broadwell: 22 cores, 60/200.
        for needle in ["KNC", "57", "128", "KNL", "68", "395", "570", "Broadwell", "22", "60"] {
            assert!(report.contains(needle), "{needle} missing\n{report}");
        }
    }
}
