//! Coverage enumeration over the bundled programs: every bundled design
//! must reach 100% feasible-path coverage, and the WCET bound must be
//! finite and positive.

use rp4_cover::{corpus_json, cover_design, CoverOptions};

fn cover(src: &str) -> rp4_cover::Coverage {
    let prog = rp4_lang::parse(src).expect("bundled program parses");
    let target = rp4c::CompilerTarget::ipbm();
    let comp = rp4c::full_compile(&prog, &target).expect("bundled program compiles");
    cover_design(&comp.design, Some(&comp.program), &CoverOptions::default())
}

#[test]
fn base_design_fully_covered() {
    let cov = cover(ipsa_controller::programs::BASE_RP4);
    assert!(!cov.overflowed, "base design must enumerate within budget");
    assert!(cov.feasible() > 0, "base design has feasible paths");
    assert!(
        cov.fully_covered(),
        "base design must be fully covered; uncoverable: {:?}",
        cov.paths
            .iter()
            .filter_map(|p| p.skip.as_ref().map(|s| s.reason.clone()))
            .collect::<Vec<_>>()
    );
    assert!(cov.wcet_ns > 0.0);
    assert!(
        cov.diags.is_empty(),
        "bundled base design is diagnostic-free: {:?}",
        cov.diags
    );
}

#[test]
fn corpus_json_roundtrips() {
    let cov = cover(ipsa_controller::programs::BASE_RP4);
    let json = corpus_json(&cov);
    let v: serde_json::Value = serde_json::from_str(&json).expect("corpus JSON parses");
    assert_eq!(
        v["feasible_paths"].as_u128().unwrap() as usize,
        cov.feasible()
    );
    assert_eq!(
        v["covered_paths"].as_u128().unwrap() as usize,
        cov.covered()
    );
    let paths = v["paths"].as_seq().unwrap();
    assert_eq!(paths.len(), cov.feasible());
    for p in paths {
        assert!(p["covered"].as_bool().unwrap());
        let hex = p["packet_hex"].as_str().unwrap();
        assert!(!hex.is_empty() && hex.len() % 2 == 0);
    }
}

#[test]
fn wcet_grows_when_function_loads() {
    // Loading ECMP at runtime deepens the pipeline: the WCET bound must
    // not shrink across the in-situ update.
    let prog = rp4_lang::parse(ipsa_controller::programs::BASE_RP4).unwrap();
    let target = rp4c::CompilerTarget::ipbm();
    let comp = rp4c::full_compile(&prog, &target).unwrap();
    let device = ipbm::IpbmSwitch::new(ipbm::IpbmConfig::default());
    let (mut flow, _) = ipsa_controller::Rp4Flow::install(device, comp, target).unwrap();
    let base = cover_design(&flow.design, None, &CoverOptions::default());
    flow.run_script(
        ipsa_controller::programs::ECMP_SCRIPT,
        &ipsa_controller::programs::bundled_sources,
    )
    .unwrap();
    let ecmp = cover_design(&flow.design, None, &CoverOptions::default());
    assert!(!base.overflowed && !ecmp.overflowed);
    assert!(
        ecmp.wcet_ns >= base.wcet_ns,
        "ecmp WCET {} must be >= base WCET {}",
        ecmp.wcet_ns,
        base.wcet_ns
    );
}
