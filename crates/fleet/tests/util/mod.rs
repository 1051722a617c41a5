//! Shared fixtures for the fleet integration tests: a small forwarding
//! program, an incremental in-situ update for it, a deliberately
//! miscompiled variant (canary-divergence fuel), and fleet builders.

// Each test binary uses a different subset of these fixtures.
#![allow(dead_code)]

use ipbm::{IpbmConfig, IpbmSwitch, ShardedSwitch};
use ipsa_core::control::design_diff;
use ipsa_fleet::{FleetConfig, FleetController, FleetUpdate};
use ipsa_netpkt::packet::Packet;
use rp4_equiv::{cover_design, replay_witness, PathWitness, ReplayMode, MAX_WORLDS};
use rp4c::{
    full_compile, full_compile_with_faults, incremental_compile, CompilerTarget, FaultInjection,
    LayoutAlgo, UpdateCmd,
};
use std::time::Duration;

/// The base (v1) program: an ethernet/ipv4 parser feeding an LPM FIB whose
/// hit action forwards — so witness paths have observable traffic.
pub const PROG: &str = r#"
    headers {
        header ethernet {
            bit<48> dst_addr; bit<48> src_addr; bit<16> ethertype;
            implicit parser(ethertype) { 0x0800: ipv4; }
        }
        header ipv4 {
            bit<4> version; bit<4> ihl; bit<6> dscp; bit<2> ecn;
            bit<16> total_len; bit<16> identification; bit<3> flags;
            bit<13> frag_offset; bit<8> ttl; bit<8> protocol;
            bit<16> hdr_checksum; bit<32> src_addr; bit<32> dst_addr;
        }
    }
    structs { struct m_t { bit<16> nh; } meta; }
    action fwd(bit<16> port) { forward(port); }
    table fib { key = { ipv4.dst_addr: lpm; } actions = { fwd; } size = 16; }
    control rP4_Ingress {
        stage fib_s {
            parser { ipv4; }
            matcher { if (ipv4.isValid()) fib.apply(); else; }
            executor { 1: fwd; default: NoAction; }
        }
    }
    user_funcs { func base { fib_s } ingress_entry: fib_s; }
"#;

/// The in-situ trial snippet loaded by the v2 update: a source-address
/// probe stage linked after the FIB.
const PROBE_SNIPPET: &str = r#"
    action probe() { mark_if_count_over(5); }
    table fp { key = { ipv4.src_addr: exact; } actions = { probe; } size = 32; counters = true; }
    stage fp_s {
        parser { ipv4; }
        matcher { if (ipv4.isValid()) fp.apply(); else; }
        executor { 1: probe; default: NoAction; }
    }
"#;

/// Compiles the v1 program for the IPBM target.
pub fn compile_v1() -> rp4c::Compilation {
    let prog = rp4_lang::parse(PROG).expect("v1 program parses");
    full_compile(&prog, &CompilerTarget::ipbm()).expect("v1 compiles")
}

/// Controller tuning for tests: short deadlines so fault scenarios resolve
/// quickly, but a retry budget that absorbs one transient fault.
pub fn test_cfg() -> FleetConfig {
    FleetConfig {
        deadline: Duration::from_millis(50),
        max_retries: 3,
        backoff_base: Duration::from_millis(2),
        suspect_threshold: 2,
        seed: 0xD15EA5E,
    }
}

/// A fleet of `n` sharded devices named `d0..dn`.
pub fn build_fleet(n: usize, shards: usize) -> FleetController {
    let mut fc = FleetController::new(test_cfg());
    for i in 0..n {
        let dev = ShardedSwitch::try_new(IpbmConfig::default(), shards).expect("device builds");
        fc.add_device(&format!("d{i}"), dev);
    }
    fc
}

/// The v2 in-situ update: load the probe snippet and link it behind the
/// FIB stage — the incremental compiler emits the `Drain … Resume` batch
/// and the post-update design.
pub fn update_plan(c1: &rp4c::Compilation) -> FleetUpdate {
    let snippet = rp4_lang::parse(PROBE_SNIPPET).expect("probe snippet parses");
    let plan = incremental_compile(
        &c1.design,
        &c1.program,
        &[
            UpdateCmd::Load {
                snippet,
                func: "probe".into(),
            },
            UpdateCmd::AddLink {
                from: "fib_s".into(),
                to: "fp_s".into(),
            },
        ],
        &CompilerTarget::ipbm(),
        LayoutAlgo::Dp,
    )
    .expect("incremental update compiles");
    FleetUpdate {
        msgs: plan.msgs,
        design: plan.design,
        canary: None,
    }
}

/// A plan whose control batch was produced by a *miscompile* (the `fwd`
/// action loses its `forward` primitive) while claiming the clean design:
/// exactly the divergence canary verification exists to catch.
pub fn miscompiled_plan(c1: &rp4c::Compilation) -> FleetUpdate {
    let prog = rp4_lang::parse(PROG).expect("v1 program parses");
    let faults = FaultInjection {
        drop_last_primitive_in: Some("fwd".into()),
        ..FaultInjection::default()
    };
    let bad = full_compile_with_faults(&prog, &CompilerTarget::ipbm(), &faults)
        .expect("faulted compile still succeeds");
    let msgs = design_diff(&c1.design, &bad.design);
    assert!(
        !msgs.is_empty(),
        "the injected fault must change the design"
    );
    FleetUpdate {
        msgs,
        design: c1.design.clone(),
        canary: None,
    }
}

/// Picks a witness from `design`'s coverage corpus whose oracle replay
/// emits traffic, returning it with the expected (oracle) outputs — the
/// fixture for packet-conservation checks.
pub fn forwarding_witness(
    design: &ipsa_core::template::CompiledDesign,
) -> (PathWitness, Vec<Packet>) {
    let cov = cover_design(design, None, MAX_WORLDS);
    for path in &cov.paths {
        let Some(w) = &path.witness else { continue };
        let mut reference = IpbmSwitch::new(IpbmConfig::default());
        reference.install(design).expect("reference installs");
        let out =
            replay_witness(&mut reference, w, ReplayMode::RunBatch).expect("oracle replay runs");
        if !out.is_empty() {
            return (w.clone(), out);
        }
    }
    panic!("no witness path emits traffic");
}

/// Seeds for chaos scenarios: `FLEET_SEEDS=a,b,...` (default `0,1`),
/// mirroring the `CHAOS_SEEDS` knob of the device-level chaos suite.
pub fn fleet_seeds() -> Vec<u64> {
    std::env::var("FLEET_SEEDS")
        .map(|s| s.split(',').filter_map(|t| t.trim().parse().ok()).collect())
        .unwrap_or_else(|_| vec![0, 1])
}

/// Fleet size for the rolling-update smoke: `FLEET_DEVICES=<n>` (default 4).
pub fn fleet_devices() -> usize {
    std::env::var("FLEET_DEVICES")
        .ok()
        .and_then(|s| s.parse().ok())
        .unwrap_or(4)
}
