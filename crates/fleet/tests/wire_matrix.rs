//! The wire-fault matrix: every RPC type crossed with every single-message
//! wire fault, under fixed seeds (`FLEET_SEEDS`, default `0,1`). Each cell
//! runs a full fleet scenario — install, identity, heartbeat, rolling
//! update, entry population, traffic — with the fault scheduled against
//! the 0th occurrence of the target RPC on one device's link, and asserts
//! the fleet still converges: both devices updated, byte-identical
//! fingerprints, and traffic matching the oracle bit-for-bit (packet
//! conservation: retries and duplicates never double-execute, thanks to
//! the agent's at-most-once response cache).
//!
//! The matrix is split into one `#[test]` per fault so the harness runs
//! the four columns in parallel.

#[path = "util/mod.rs"]
mod util;

use ipsa_fleet::{Health, RpcKind, WireFault, WireFaultPlan};
use rp4_equiv::teardown_of;
use util::*;

fn run_cell(rpc: RpcKind, fault: WireFault, seed: u64) {
    let c1 = compile_v1();
    let mut fc = build_fleet(2, 2);
    fc.set_wire_faults("d0", WireFaultPlan::single(rpc, fault, 0, seed))
        .expect("install fault plan");

    // A scenario that sends at least one of every RPC kind except Revert
    // (which only fires on failing rollouts — its cell is exercised by the
    // failback tests in fleet.rs and holds vacuously here).
    fc.install(&c1.design).expect("install under fault");
    let (device, _) = fc.hello("d0").expect("hello under fault");
    assert_eq!(device, "d0");
    fc.heartbeat();

    let plan = update_plan(&c1);
    let report = fc.rolling_update(&plan).expect("rollout under fault");
    assert_eq!(
        report.updated.len(),
        2,
        "[{rpc:?}×{fault:?} seed {seed}] fleet must converge: {report:?}"
    );
    assert_eq!(fc.fleet_epoch(), 1);

    // Packet conservation: entries land exactly once, traffic matches the
    // oracle bit-for-bit on both devices.
    let (w, expect) = forwarding_witness(&plan.design);
    fc.apply_all(&w.entries).expect("entries under fault");
    for d in fc.device_names() {
        let out = fc
            .traffic(&d, vec![w.packet.clone(); w.injections])
            .expect("traffic under fault");
        assert_eq!(
            out, expect,
            "[{rpc:?}×{fault:?} seed {seed}] packet loss on {d}"
        );
    }
    fc.apply_all(&teardown_of(&w.entries)).expect("teardown");
    let stats = fc.stats("d0").expect("stats under fault");
    assert!(!stats.staged_open, "no transaction left open");
    assert_eq!(
        fc.fingerprint("d0").expect("fingerprint"),
        fc.fingerprint("d1").expect("fingerprint"),
        "[{rpc:?}×{fault:?} seed {seed}] devices diverged"
    );

    // The schedule actually fired for every kind the scenario sends, and
    // the transient never escalated into quarantine.
    let stats = fc.link_stats("d0").expect("link stats");
    if rpc != RpcKind::Revert {
        let fired = match fault {
            WireFault::Drop => stats.dropped,
            WireFault::Delay => stats.delayed,
            WireFault::Duplicate => stats.duplicated,
            WireFault::Reorder => stats.reordered,
        };
        assert!(
            fired >= 1,
            "[{rpc:?}×{fault:?} seed {seed}] fault never fired: {stats:?}"
        );
    }
    for (d, h) in fc.heartbeat() {
        assert_eq!(
            h,
            Health::Healthy,
            "[{rpc:?}×{fault:?} seed {seed}] {d} unhealthy after transient"
        );
    }
}

fn run_column(fault: WireFault) {
    for seed in fleet_seeds() {
        for rpc in RpcKind::ALL {
            run_cell(rpc, fault, seed);
        }
    }
}

#[test]
fn matrix_drop() {
    run_column(WireFault::Drop);
}

#[test]
fn matrix_delay_past_deadline() {
    run_column(WireFault::Delay);
}

#[test]
fn matrix_duplicate() {
    run_column(WireFault::Duplicate);
}

#[test]
fn matrix_reorder() {
    run_column(WireFault::Reorder);
}
