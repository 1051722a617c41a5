//! Fleet acceptance tests: the rolling in-situ update smoke (4 devices,
//! zero loss), canary-divergence failback (byte-identical), mid-rollout
//! partition → quarantine → heartbeat recovery, and election-id fencing.

#[path = "util/mod.rs"]
mod util;

use ipbm::{IpbmConfig, IpbmSwitch};
use ipsa_core::control::Device;
use ipsa_fleet::{FleetError, Health, RpcKind, WireFaultPlan};
use rp4_cover::replay::teardown_of;
use util::*;

/// A fault plan that drops every send of one RPC kind for `occurrences`
/// attempts (enough to exhaust the retry budget `occurrences / 4` times
/// under `test_cfg`'s 3 retries).
fn drop_all(rpc: RpcKind, occurrences: u64) -> WireFaultPlan {
    let mut plan = WireFaultPlan::default();
    for n in 0..occurrences {
        plan.drop.push((rpc, n));
    }
    plan
}

/// The CI smoke gate: a rolling update across `FLEET_DEVICES` devices
/// completes with every device updated, byte-identical state fleet-wide,
/// and traffic before and after the rollout matching the oracle
/// bit-for-bit on every device — zero loss.
#[test]
fn rolling_update_smoke_zero_loss() {
    let n = fleet_devices();
    let c1 = compile_v1();
    let mut fc = build_fleet(n, 2);
    fc.install(&c1.design).expect("fleet install");

    let (device, _) = fc.hello("d0").expect("hello");
    assert_eq!(device, "d0");

    // Pre-rollout traffic: every device forwards the witness flow exactly
    // as the oracle does.
    let (w1, expect_v1) = forwarding_witness(&c1.design);
    fc.apply_all(&w1.entries).expect("entry population");
    for d in fc.device_names() {
        let out = fc
            .traffic(&d, vec![w1.packet.clone(); w1.injections])
            .expect("v1 traffic");
        assert_eq!(out, expect_v1, "pre-rollout loss on {d}");
    }
    // Witness entries share keys with the coverage corpus the canary will
    // replay; tear them down so verification starts from corpus state.
    fc.apply_all(&teardown_of(&w1.entries)).expect("teardown");

    let plan = update_plan(&c1);
    let report = fc.rolling_update(&plan).expect("rolling update");
    assert_eq!(report.updated.len(), n, "every device updates: {report:?}");
    assert!(report.quarantined.is_empty(), "no quarantine: {report:?}");
    assert!(report.witnesses > 0, "canary must replay real witnesses");
    assert_eq!(fc.fleet_epoch(), 1);

    // Post-rollout: byte-identical state fleet-wide…
    let names = fc.device_names();
    let fp0 = fc.fingerprint(&names[0]).expect("fingerprint");
    for d in &names[1..] {
        assert_eq!(
            fc.fingerprint(d).expect("fingerprint"),
            fp0,
            "{d} diverged from d0 after rollout"
        );
    }
    // …and zero loss at the new design: traffic matches a local reference
    // device that took the same update.
    let (w2, expect_v2) = forwarding_witness(&plan.design);
    fc.apply_all(&w2.entries).expect("v2 entries");
    for d in &names {
        let out = fc
            .traffic(d, vec![w2.packet.clone(); w2.injections])
            .expect("v2 traffic");
        assert_eq!(out, expect_v2, "post-rollout loss on {d}");
    }
    for (d, h) in fc.heartbeat() {
        assert_eq!(h, Health::Healthy, "{d} unhealthy after clean rollout");
    }
}

/// A diverging canary blocks fan-out: the rollout fails with
/// `CanaryDiverged`, no other device sees the plan, and the canary's
/// staged transaction reverts byte-identically.
#[test]
fn canary_divergence_blocks_fanout_and_reverts_byte_identically() {
    let c1 = compile_v1();
    let mut fc = build_fleet(3, 2);
    fc.install(&c1.design).expect("fleet install");

    let names = fc.device_names();
    let before: Vec<String> = names
        .iter()
        .map(|d| fc.fingerprint(d).expect("fingerprint"))
        .collect();

    let bad = miscompiled_plan(&c1);
    let err = fc.rolling_update(&bad).expect_err("divergence must abort");
    match &err {
        FleetError::CanaryDiverged { device, .. } => {
            assert_eq!(device, "d0", "first available device is the canary");
        }
        other => panic!("expected CanaryDiverged, got {other}"),
    }
    assert_eq!(fc.fleet_epoch(), 0, "aborted rollout must not commit");

    for (d, fp_before) in names.iter().zip(&before) {
        assert_eq!(
            &fc.fingerprint(d).expect("fingerprint"),
            fp_before,
            "{d} state changed by an aborted rollout"
        );
        let stats = fc.stats(d).expect("stats");
        assert!(!stats.staged_open, "{d} left with an open staged txn");
        assert_eq!(fc.health_of(d), Some(Health::Healthy));
    }

    // The fleet is not wedged: a clean update still goes through.
    let good = update_plan(&c1);
    let report = fc.rolling_update(&good).expect("clean update after abort");
    assert_eq!(report.updated.len(), 3);
    assert_eq!(fc.fleet_epoch(), 1);
}

/// A device partitioned mid-rollout is quarantined without blocking the
/// fleet; when its wire heals, one heartbeat recovers and reconciles it to
/// the committed design.
#[test]
fn partitioned_device_quarantined_then_recovered_by_heartbeat() {
    let c1 = compile_v1();
    let mut fc = build_fleet(4, 2);
    fc.install(&c1.design).expect("fleet install");

    // Cut d2's wire entirely: every send from now on is dropped.
    let mut cut = WireFaultPlan::default();
    cut.partition.push((0, u64::MAX));
    fc.set_wire_faults("d2", cut).expect("install partition");

    let plan = update_plan(&c1);
    let report = fc.rolling_update(&plan).expect("rollout proceeds");
    assert_eq!(
        report.updated,
        vec!["d0", "d1", "d3"],
        "healthy devices update: {report:?}"
    );
    assert_eq!(report.quarantined, vec!["d2"]);
    assert_eq!(fc.health_of("d2"), Some(Health::Quarantined));
    assert_eq!(fc.fleet_epoch(), 1);

    // Healthy devices carry the new design with zero loss.
    let (w2, expect_v2) = forwarding_witness(&plan.design);
    fc.apply_all(&w2.entries).expect("v2 entries");
    for d in ["d0", "d1", "d3"] {
        let out = fc
            .traffic(d, vec![w2.packet.clone(); w2.injections])
            .expect("v2 traffic");
        assert_eq!(out, expect_v2, "loss on healthy {d}");
    }

    // Heal the wire: the next heartbeat recovers AND reconciles d2.
    fc.set_wire_faults("d2", WireFaultPlan::default())
        .expect("heal partition");
    let map = fc.heartbeat();
    let d2 = map.iter().find(|(d, _)| d == "d2").expect("d2 present");
    assert_eq!(d2.1, Health::Healthy, "heartbeat resume must reconcile");

    // Reconciliation converged d2 to the committed design (it missed the
    // post-rollout entry population, which the structural fingerprint
    // includes — replay it before comparing).
    let out = fc
        .traffic("d2", vec![w2.packet.clone(); w2.injections])
        .expect("d2 traffic");
    assert!(out.is_empty(), "d2 has no entries yet after reconcile");
    fc.apply_all(&w2.entries).expect("repopulate d2");
    assert_eq!(
        fc.fingerprint("d2").expect("fingerprint"),
        fc.fingerprint("d0").expect("fingerprint"),
        "reconciled device must be byte-identical to the fleet"
    );
    let out = fc
        .traffic("d2", vec![w2.packet.clone(); w2.injections])
        .expect("d2 traffic");
    assert_eq!(out, expect_v2, "recovered device must forward again");
}

/// A device whose *reconciliation* fails must go straight back to
/// quarantine — never drift out through Suspect and rejoin with the stale
/// design it crashed with. (Regression: a failed reconcile RPC used to
/// leave the device Suspect/Recovered, and the next clean heartbeat
/// marked it Healthy without ever reconciling.)
#[test]
fn failed_reconcile_requarantines_until_recovery_completes() {
    let c1 = compile_v1();
    let mut fc = build_fleet(3, 2);
    fc.install(&c1.design).expect("fleet install");

    // Partition d2 so the rollout quarantines it with the old design.
    let mut cut = WireFaultPlan::default();
    cut.partition.push((0, u64::MAX));
    fc.set_wire_faults("d2", cut).expect("install partition");
    let plan = update_plan(&c1);
    fc.rolling_update(&plan).expect("rollout proceeds");
    assert_eq!(fc.health_of("d2"), Some(Health::Quarantined));

    // Heal the wire for everything EXCEPT the reconcile Apply: heartbeats
    // land, recovery starts, reconciliation keeps failing.
    fc.set_wire_faults("d2", drop_all(RpcKind::Apply, 8))
        .expect("drop reconcile applies");
    fc.heartbeat();
    assert_eq!(
        fc.health_of("d2"),
        Some(Health::Quarantined),
        "failed reconcile must re-quarantine, not leave the device Suspect"
    );

    // A second heartbeat (reconcile still failing) must not launder the
    // device to Healthy: it is still running the pre-rollout design.
    fc.heartbeat();
    assert_eq!(
        fc.health_of("d2"),
        Some(Health::Quarantined),
        "a clean heartbeat must not mark an unreconciled device Healthy"
    );
    assert_ne!(
        fc.fingerprint("d2").expect("fingerprint"),
        fc.fingerprint("d0").expect("fingerprint"),
        "d2 still holds the stale design while reconciliation fails"
    );

    // Fully heal: the next heartbeat completes recovery and converges d2.
    fc.set_wire_faults("d2", WireFaultPlan::default())
        .expect("heal wire");
    fc.heartbeat();
    assert_eq!(fc.health_of("d2"), Some(Health::Healthy));
    assert_eq!(
        fc.fingerprint("d2").expect("fingerprint"),
        fc.fingerprint("d0").expect("fingerprint"),
        "reconciled device must be byte-identical to the fleet"
    );
}

/// A canary whose post-divergence revert is lost must be quarantined,
/// not left available with the diverged staged transaction open — a later
/// rollout's staged Apply would merge into it and commit the bad batch.
#[test]
fn lost_canary_revert_quarantines_until_transaction_reverts() {
    let c1 = compile_v1();
    let mut fc = build_fleet(3, 2);
    fc.install(&c1.design).expect("fleet install");
    let before = fc.fingerprint("d0").expect("fingerprint");

    // Every Revert toward the canary is dropped: divergence cleanup fails.
    fc.set_wire_faults("d0", drop_all(RpcKind::Revert, 8))
        .expect("drop reverts");
    let bad = miscompiled_plan(&c1);
    let err = fc.rolling_update(&bad).expect_err("divergence must abort");
    assert!(
        matches!(&err, FleetError::CanaryDiverged { device, .. } if device == "d0"),
        "expected CanaryDiverged on d0, got {err}"
    );
    assert_eq!(
        fc.health_of("d0"),
        Some(Health::Quarantined),
        "a canary stranded with a diverged staged txn must be quarantined"
    );
    let stats = fc.stats("d0").expect("stats");
    assert!(stats.staged_open, "the diverged transaction is still open");

    // Heal: heartbeat recovery reverts the stranded transaction and the
    // device rejoins byte-identical to its pre-rollout self.
    fc.set_wire_faults("d0", WireFaultPlan::default())
        .expect("heal wire");
    fc.heartbeat();
    assert_eq!(fc.health_of("d0"), Some(Health::Healthy));
    let stats = fc.stats("d0").expect("stats");
    assert!(!stats.staged_open, "recovery must revert the stranded txn");
    assert_eq!(fc.fingerprint("d0").expect("fingerprint"), before);

    // And a clean rollout lands on all three devices with no leftover
    // state from the aborted one.
    let good = update_plan(&c1);
    let report = fc.rolling_update(&good).expect("clean update after abort");
    assert_eq!(report.updated.len(), 3);
    let fp0 = fc.fingerprint("d0").expect("fingerprint");
    for d in ["d1", "d2"] {
        assert_eq!(fc.fingerprint(d).expect("fingerprint"), fp0);
    }
}

/// A controller fenced mid-fan-out must NOT attempt failback (its reverts
/// would be fenced too, stranding open transactions on Healthy devices
/// forever); the new master's heartbeat detects and reverts the stranded
/// staged transactions instead.
#[test]
fn fenced_fanout_leaves_cleanup_to_the_new_master() {
    let c1 = compile_v1();
    let mut fc = build_fleet(2, 2);
    fc.set_election_id(5);
    fc.install(&c1.design).expect("install at election 5");
    let before = fc.fingerprint("d0").expect("fingerprint");

    // A newer master (id 10) has spoken to d1; we proceed at id 7 — the
    // canary (d0) accepts, then d1 fences the fan-out.
    fc.set_election_id(10);
    fc.stats("d1").expect("raise d1's fence");
    fc.set_election_id(7);
    let plan = update_plan(&c1);
    let err = fc
        .rolling_update(&plan)
        .expect_err("fan-out must be fenced");
    assert!(
        matches!(
            err,
            FleetError::NotMaster {
                active_election_id: 10,
                ..
            }
        ),
        "expected NotMaster at id 10, got {err}"
    );
    assert_eq!(fc.fleet_epoch(), 0);

    // The canary still holds its staged transaction (our revert would be
    // fenced), and stays Healthy — it answered everything we sent.
    let stats = fc.stats("d0").expect("stats");
    assert!(stats.staged_open, "canary keeps its staged txn when fenced");
    assert_eq!(fc.health_of("d0"), Some(Health::Healthy));

    // The new master's heartbeat sees staged_open on an available device
    // and reverts the stranded transaction.
    fc.set_election_id(11);
    fc.heartbeat();
    let stats = fc.stats("d0").expect("stats");
    assert!(!stats.staged_open, "new master must revert stranded txns");
    assert_eq!(fc.fingerprint("d0").expect("fingerprint"), before);
    assert_eq!(
        fc.fingerprint("d1").expect("fingerprint"),
        before,
        "d1 never saw the plan"
    );

    // The new master can now roll out cleanly.
    let report = fc.rolling_update(&plan).expect("rollout as new master");
    assert_eq!(report.updated.len(), 2);
    assert_eq!(fc.fleet_epoch(), 1);
}

/// A rollout whose commit phase confirms on NO device must fail (the
/// previous design stays committed) rather than report success while zero
/// devices run the new design; heartbeat recovery converges the
/// quarantined devices back to the pre-rollout design.
#[test]
fn rollout_with_no_confirmed_commit_fails_and_design_does_not_advance() {
    let c1 = compile_v1();
    let mut fc = build_fleet(2, 2);
    fc.install(&c1.design).expect("fleet install");
    let before = fc.fingerprint("d0").expect("fingerprint");

    for d in ["d0", "d1"] {
        fc.set_wire_faults(d, drop_all(RpcKind::Commit, 8))
            .expect("drop commits");
    }
    let plan = update_plan(&c1);
    let err = fc
        .rolling_update(&plan)
        .expect_err("a rollout that lands nowhere must fail");
    assert!(
        matches!(&err, FleetError::CommitFailed { devices }
            if devices.len() == 2),
        "expected CommitFailed on both devices, got {err}"
    );
    assert_eq!(fc.fleet_epoch(), 0, "failed rollout must not advance epoch");
    for d in ["d0", "d1"] {
        assert_eq!(fc.health_of(d), Some(Health::Quarantined));
    }

    // Heal: recovery reverts the stranded staged transactions back to the
    // (still committed) pre-rollout design.
    for d in ["d0", "d1"] {
        fc.set_wire_faults(d, WireFaultPlan::default())
            .expect("heal wire");
    }
    fc.heartbeat();
    for d in ["d0", "d1"] {
        assert_eq!(fc.health_of(d), Some(Health::Healthy));
        assert_eq!(
            fc.fingerprint(d).expect("fingerprint"),
            before,
            "{d} must converge back to the pre-rollout design"
        );
    }

    // The same plan goes through once the wire behaves.
    let report = fc.rolling_update(&plan).expect("clean retry");
    assert_eq!(report.updated.len(), 2);
    assert_eq!(fc.fleet_epoch(), 1);
}

/// Election-id fencing: a controller whose id is superseded can still
/// read, but every mutation is rejected with the fencing id.
#[test]
fn stale_election_id_is_fenced_from_mutations_not_reads() {
    let c1 = compile_v1();
    let mut fc = build_fleet(2, 2);
    fc.set_election_id(5);
    fc.install(&c1.design).expect("install at election 5");

    // Step down to a stale id: mutations bounce with the active id…
    fc.set_election_id(3);
    let err = fc.apply_all(&[]).expect_err("stale write must be fenced");
    match err {
        FleetError::NotMaster {
            active_election_id, ..
        } => assert_eq!(active_election_id, 5),
        other => panic!("expected NotMaster, got {other}"),
    }
    let plan = update_plan(&c1);
    assert!(
        matches!(
            fc.rolling_update(&plan),
            Err(FleetError::NotMaster { .. }) | Err(FleetError::RolledBack { .. })
        ),
        "stale rollout must be fenced"
    );
    assert_eq!(fc.fleet_epoch(), 0);

    // …but reads pass: a demoted controller can still observe.
    fc.stats("d0").expect("stats readable while fenced");
    fc.fingerprint("d1")
        .expect("fingerprint readable while fenced");
    fc.traffic("d0", vec![])
        .expect("traffic is a data-plane op");

    // Re-winning the election (higher id) restores write access.
    fc.set_election_id(9);
    fc.apply_all(&[]).expect("write at the winning id");
    let report = fc.rolling_update(&plan).expect("rollout at winning id");
    assert_eq!(report.updated.len(), 2);

    // Devices are byte-identical to a reference that took the same path.
    let mut reference = IpbmSwitch::new(IpbmConfig::default());
    reference.install(&c1.design).expect("reference install");
    reference.apply(&plan.msgs).expect("reference update");
    assert_eq!(
        fc.fingerprint("d0").expect("fingerprint"),
        ipsa_fleet::state_fingerprint(&reference),
        "fleet devices match the reference after the fenced episode"
    );
}
