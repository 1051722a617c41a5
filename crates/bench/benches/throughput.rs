//! E2 — §5 "Throughput": Mpps at 200 MHz for the three use cases on the
//! 8-stage FPGA prototypes (analytical model over the actual compiled
//! designs). Measured software packet rates are `rp4-benchmark`'s job
//! (`benchmark/README.md`), not this table's.
//!
//! Paper (Mpps):  PISA 187.33 / 153.71 / 191.93 — IPSA 65.81 / 51.36 / 86.62
//! Shape to hold: PISA ~2-3.5x faster; IPSA's gap comes from extra memory
//! beats on wide entries plus the per-packet template fetch — and the
//! paper's two fixes (wider bus, pipelined TSP) must recover most of it.

use ipsa_bench::*;
use ipsa_controller::programs;
use ipsa_hwmodel::{throughput, Arch, ThroughputOptions};

fn main() {
    let paper_pisa = [187.33, 153.71, 191.93];
    let paper_ipsa = [65.81, 51.36, 86.62];

    let mut rows = Vec::new();
    for (i, (case, _, _, _)) in programs::use_cases().iter().enumerate() {
        let (ipsa_design, pisa_design) = use_case_designs(i);
        let pi = fpga_params(&ipsa_design);
        let pp = fpga_params(&pisa_design);
        let tp = throughput(Arch::Pisa, &pp, ThroughputOptions::default());
        let ti = throughput(Arch::Ipsa, &pi, ThroughputOptions::default());
        let fixed = throughput(
            Arch::Ipsa,
            &pi,
            ThroughputOptions {
                pipelined_tsp: true,
                bus_bits: Some(512),
            },
        );
        rows.push(vec![
            case.to_string(),
            format!("{:>7.2}", tp.mpps),
            format!("{:>7.2}", paper_pisa[i]),
            format!("{:>7.2}", ti.mpps),
            format!("{:>7.2}", paper_ipsa[i]),
            format!("{:>5.2}x", tp.mpps / ti.mpps),
            format!("{:>5.2}x", paper_pisa[i] / paper_ipsa[i]),
            format!("{:>7.2}", fixed.mpps),
        ]);
        // Shape assertions.
        assert!(tp.mpps > ti.mpps, "{case}: PISA must be faster");
        let ratio = tp.mpps / ti.mpps;
        assert!(
            (1.5..=4.5).contains(&ratio),
            "{case}: ratio {ratio} outside the paper's band"
        );
        assert!(
            fixed.mpps / tp.mpps > 0.9,
            "{case}: fixes must close the gap"
        );
    }
    let out = render_table(
        "Sec. 5 throughput — Mpps @ 200 MHz (analytical model over compiled designs)",
        &[
            "use case",
            "PISA",
            "paper",
            "IPSA",
            "paper",
            "ratio",
            "paper",
            "IPSA+fixes",
        ],
        &rows,
    );
    emit("throughput", &out);
}
