//! Integration: deterministic chaos suite for the sharded runtime's
//! supervisor. Every scenario is seeded and scheduled through
//! [`FaultPlan`] — kill shard N at barrier K, delay a reply past the drain
//! timeout, defer respawns, poison a compile — so failures reproduce
//! exactly. Environment knobs:
//!
//! * `SHARDS=<n>` — run at one shard count (default: both 2 and 4);
//! * `CHAOS_SEEDS=<a,b,...>` — victim-selection seeds (default: `0,1`).
//!
//! Invariants checked throughout: packet conservation (`emitted +
//! supervisor.lost_packets == injected`), per-flow order for surviving
//! flows, quarantine without process panic, and recovery to the full shard
//! count within two epoch publishes.

use std::collections::HashMap;
use std::time::Duration;

use rp4::core::action::{ActionDef, Primitive};
use rp4::core::pipeline_cfg::SelectorConfig;
use rp4::core::table::{KeyField, MatchKind, TableDef};
use rp4::core::template::{MatcherBranch, TspTemplate};
use rp4::core::value::ValueRef;
use rp4::ipbm::{FaultPlan, ShardFaultKind, ShardedSwitch};
use rp4::prelude::*;

fn shard_counts() -> Vec<usize> {
    match std::env::var("SHARDS").ok().and_then(|s| s.parse().ok()) {
        Some(n) => vec![n],
        None => vec![2, 4],
    }
}

fn seeds() -> Vec<u64> {
    std::env::var("CHAOS_SEEDS")
        .ok()
        .map(|s| s.split(',').filter_map(|x| x.trim().parse().ok()).collect())
        .unwrap_or_else(|| vec![0, 1])
}

/// One-stage L3 program routing 10/8 to `port`, as a raw message batch.
fn l3_msgs(port: u16) -> Vec<ControlMsg> {
    vec![
        ControlMsg::Drain,
        ControlMsg::RegisterHeader(rp4::netpkt::protocols::ethernet()),
        ControlMsg::RegisterHeader(rp4::netpkt::protocols::ipv4()),
        ControlMsg::RegisterHeader(rp4::netpkt::protocols::udp()),
        ControlMsg::SetFirstHeader("ethernet".into()),
        ControlMsg::DefineAction(ActionDef {
            name: "fwd".into(),
            params: vec![("port".into(), 16)],
            body: vec![Primitive::Forward {
                port: ValueRef::Param(0),
            }],
        }),
        ControlMsg::CreateTable {
            def: TableDef {
                name: "route".into(),
                key: vec![KeyField {
                    source: ValueRef::field("ipv4", "dst_addr"),
                    bits: 32,
                    kind: MatchKind::Lpm,
                }],
                size: 64,
                actions: vec!["fwd".into()],
                default_action: ActionCall::no_action(),
                with_counters: false,
            },
            blocks: vec![0],
        },
        ControlMsg::WriteTemplate {
            slot: 0,
            template: TspTemplate {
                stage_name: "route_s".into(),
                func: "base".into(),
                parse: vec!["ipv4".into()],
                branches: vec![MatcherBranch {
                    pred: rp4::core::predicate::Predicate::IsValid("ipv4".into()),
                    table: Some("route".into()),
                }],
                executor: vec![(1, ActionCall::new("fwd", vec![]))],
                default_action: ActionCall::no_action(),
            },
        },
        ControlMsg::ConnectCrossbar {
            slot: 0,
            blocks: vec![0],
        },
        ControlMsg::SetSelector(SelectorConfig::split(32, 1, 0).unwrap()),
        ControlMsg::Resume,
        ControlMsg::AddEntry {
            table: "route".into(),
            entry: TableEntry {
                key: vec![KeyMatch::Lpm {
                    value: 0x0a00_0000,
                    prefix_len: 8,
                }],
                priority: 0,
                action: ActionCall::new("fwd", vec![port as u128]),
                counter: 0,
            },
        },
    ]
}

/// A routable packet for `flow` carrying per-flow sequence number `seq` in
/// its payload (big-endian).
fn seq_packet(flow: u32, seq: u32) -> Packet {
    rp4::netpkt::builder::ipv4_udp_packet(&rp4::netpkt::builder::Ipv4UdpSpec {
        src_ip: 0x0a00_0a00 + flow,
        dst_ip: 0x0a01_0000 + flow,
        payload: seq.to_be_bytes().to_vec(),
        ..Default::default()
    })
}

fn flow_of(p: &Packet) -> u32 {
    u32::from_be_bytes(p.data[30..34].try_into().unwrap()) - 0x0a01_0000
}

fn seq_of(p: &Packet) -> u32 {
    let n = p.data.len();
    u32::from_be_bytes(p.data[n - 4..].try_into().unwrap())
}

/// Injects `per_flow` sequenced packets for each of `flows` flows,
/// interleaved, starting at sequence `base`. Returns the injected count.
fn inject_sequenced(sw: &mut ShardedSwitch, flows: u32, per_flow: u32, base: u32) -> u64 {
    for seq in base..base + per_flow {
        for f in 0..flows {
            sw.inject(seq_packet(f, seq));
        }
    }
    (flows * per_flow) as u64
}

/// Asserts per-flow sequence monotonicity and no duplicates across one or
/// more output batches (concatenated in emission order).
fn assert_flow_order(batches: &[&[Packet]]) {
    let mut last: HashMap<u32, u32> = HashMap::new();
    for batch in batches {
        for p in *batch {
            let f = flow_of(p);
            let s = seq_of(p);
            if let Some(prev) = last.get(&f) {
                assert!(s > *prev, "flow {f}: seq {s} after {prev}");
            }
            last.insert(f, s);
        }
    }
}

/// Builds a ready switch: program installed, first epoch published (one
/// warm-up batch), short drain timeout for fast fault detection.
fn ready_switch(shards: usize) -> ShardedSwitch {
    let mut sw = ShardedSwitch::new(IpbmConfig::default(), shards);
    sw.set_drain_timeout(Duration::from_millis(500));
    sw.apply(&l3_msgs(4)).unwrap();
    inject_sequenced(&mut sw, shards as u32 * 2, 1, 0);
    let out = sw.run_batch();
    assert_eq!(out.len(), shards * 2, "warm-up batch must fully forward");
    assert!(sw.on_compiled_path());
    sw
}

/// A worker killed mid-batch: quarantined without panic, surviving shards
/// lose nothing, per-flow order holds, and the switch is back to full
/// shard count (with full conservation) on the very next batch.
#[test]
fn killed_worker_is_quarantined_and_respawned() {
    for shards in shard_counts() {
        for seed in seeds() {
            let mut sw = ready_switch(shards);
            let flows = shards as u32 * 2;
            let victim = (seed as usize) % shards;
            sw.set_fault_plan(FaultPlan {
                kill_at_barrier: vec![(victim, sw.barriers() + 1)],
                ..Default::default()
            });

            let injected = inject_sequenced(&mut sw, flows, 8, 1);
            let out = sw.run_batch();
            let stats = sw.supervisor_stats();
            assert_eq!(stats.quarantined, 1, "shards={shards} seed={seed}");
            assert_eq!(sw.live_shards(), shards - 1);
            assert_eq!(
                out.len() as u64 + stats.lost_packets,
                injected,
                "conservation: every packet is emitted or charged lost"
            );
            let faults = sw.take_shard_faults();
            assert_eq!(faults.len(), 1);
            assert_eq!(faults[0].shard, victim);
            assert!(
                matches!(faults[0].kind, ShardFaultKind::DrainTimeout(_)),
                "a silent death is detected by the timeout: {}",
                faults[0].kind
            );

            // Next batch: replacement respawned at the epoch publish, full
            // shard count, zero loss.
            let injected2 = inject_sequenced(&mut sw, flows, 8, 9);
            let out2 = sw.run_batch();
            assert_eq!(sw.live_shards(), shards, "recovered to full strength");
            assert_eq!(sw.supervisor_stats().respawned, 1);
            // The replacement took the victim's slot: the shard count and
            // the per-shard busy accounting keep their constructed size.
            assert_eq!(sw.shards(), shards);
            assert_eq!(sw.shard_busy_ns().len(), shards);
            assert_eq!(out2.len() as u64, injected2, "no loss after recovery");
            assert_flow_order(&[&out, &out2]);
        }
    }
}

/// With respawn deferred one publish, the next batch runs degraded: the
/// dead shard's flows rehash deterministically across the survivors with
/// zero loss, and the publish after that restores the full shard count —
/// i.e. recovery completes within two epoch publishes.
#[test]
fn rehash_over_survivors_then_recovery_within_two_epochs() {
    for shards in shard_counts() {
        if shards < 2 {
            continue;
        }
        for seed in seeds() {
            let mut sw = ready_switch(shards);
            let flows = shards as u32 * 2;
            let victim = (seed as usize) % shards;
            sw.set_fault_plan(FaultPlan {
                kill_at_barrier: vec![(victim, sw.barriers() + 1)],
                defer_respawns: 1,
                ..Default::default()
            });

            let injected = inject_sequenced(&mut sw, flows, 4, 1);
            let out = sw.run_batch();
            assert_eq!(sw.live_shards(), shards - 1);
            assert_eq!(
                out.len() as u64 + sw.supervisor_stats().lost_packets,
                injected
            );

            // Epoch publish 1: respawn deferred — the batch runs on the
            // survivors, rehashed, losing nothing.
            let injected2 = inject_sequenced(&mut sw, flows, 4, 5);
            let out2 = sw.run_batch();
            assert_eq!(sw.live_shards(), shards - 1, "still degraded");
            assert_eq!(
                out2.len() as u64,
                injected2,
                "rehashed dispatch over survivors loses nothing"
            );

            // Epoch publish 2: replacement respawned, full strength.
            let injected3 = inject_sequenced(&mut sw, flows, 4, 9);
            let out3 = sw.run_batch();
            assert_eq!(
                sw.live_shards(),
                shards,
                "full shard count within two epochs"
            );
            assert_eq!(out3.len() as u64, injected3);
            assert_flow_order(&[&out, &out2, &out3]);
        }
    }
}

/// A reply delayed past the drain timeout quarantines the worker; when the
/// late reply finally lands it is discarded by the generation check (never
/// double-counted), and traffic continues with no duplicate packets.
#[test]
fn delayed_reply_times_out_and_late_answer_is_discarded() {
    for shards in shard_counts() {
        for seed in seeds() {
            let mut sw = ready_switch(shards);
            sw.set_drain_timeout(Duration::from_millis(100));
            let flows = shards as u32 * 2;
            let victim = (seed as usize) % shards;
            sw.set_fault_plan(FaultPlan {
                delay_reply: vec![(victim, sw.barriers() + 1, Duration::from_millis(400))],
                ..Default::default()
            });

            let injected = inject_sequenced(&mut sw, flows, 6, 1);
            let out = sw.run_batch();
            let stats = sw.supervisor_stats();
            assert_eq!(stats.quarantined, 1);
            assert!(sw
                .take_shard_faults()
                .iter()
                .any(|f| matches!(f.kind, ShardFaultKind::DrainTimeout(_))));
            assert_eq!(out.len() as u64 + stats.lost_packets, injected);

            // Let the delayed worker wake, send its stale reply, and exit.
            std::thread::sleep(Duration::from_millis(500));

            let injected2 = inject_sequenced(&mut sw, flows, 6, 7);
            let out2 = sw.run_batch();
            assert_eq!(sw.live_shards(), shards);
            assert_eq!(out2.len() as u64, injected2);
            assert!(
                sw.supervisor_stats().stale_replies >= 1,
                "the late reply must be discarded as stale, not folded"
            );
            // A double-folded reply would emit duplicate (flow, seq) pairs.
            assert_flow_order(&[&out, &out2]);
        }
    }
}

/// Every worker lost and respawn deferred: the master interpreter carries
/// the traffic (same degradation as a failed compile), then the switch
/// recovers to the full shard count once respawns resume.
#[test]
fn all_workers_lost_degrades_to_interpreter_then_recovers() {
    for shards in shard_counts() {
        let mut sw = ready_switch(shards);
        let flows = shards as u32 * 2;
        let next = sw.barriers() + 1;
        sw.set_fault_plan(FaultPlan {
            kill_at_barrier: (0..shards).map(|s| (s, next)).collect(),
            defer_respawns: 1,
            ..Default::default()
        });

        let injected = inject_sequenced(&mut sw, flows, 4, 1);
        let out = sw.run_batch();
        assert_eq!(sw.live_shards(), 0, "every worker quarantined");
        assert_eq!(
            out.len() as u64 + sw.supervisor_stats().lost_packets,
            injected
        );

        // Respawn deferred: the interpreter carries this batch whole.
        let injected2 = inject_sequenced(&mut sw, flows, 4, 5);
        let out2 = sw.run_batch();
        assert_eq!(out2.len() as u64, injected2, "interpreter loses nothing");
        assert!(sw.supervisor_stats().degraded_batches >= 1);

        // Respawns resume: full shard count, sharded dispatch again.
        let injected3 = inject_sequenced(&mut sw, flows, 4, 9);
        let out3 = sw.run_batch();
        assert_eq!(sw.live_shards(), shards, "recovered from total loss");
        assert_eq!(sw.supervisor_stats().respawned as usize, shards);
        assert_eq!(out3.len() as u64, injected3);
        assert_flow_order(&[&out, &out2, &out3]);
    }
}

/// A poisoned compile forces the interpreter fallback (traffic flows, just
/// slower); the next control-plane epoch compiles again and the shards take
/// back over.
#[test]
fn poisoned_compile_falls_back_then_recompiles() {
    for shards in shard_counts() {
        let mut sw = ShardedSwitch::new(IpbmConfig::default(), shards);
        sw.apply(&l3_msgs(4)).unwrap();
        let flows = shards as u32 * 2;
        sw.set_fault_plan(FaultPlan {
            poison_compile_at_epoch: Some(sw.master.pm.epoch()),
            ..Default::default()
        });

        let injected = inject_sequenced(&mut sw, flows, 4, 0);
        let out = sw.run_batch();
        assert!(!sw.on_compiled_path(), "poisoned epoch must not publish");
        assert_eq!(
            out.len() as u64,
            injected,
            "interpreter fallback is lossless"
        );

        // A structural control batch opens a new (unpoisoned) epoch; entry
        // writes alone keep the epoch, and with it the poisoned compile.
        sw.apply(&[
            ControlMsg::Drain,
            ControlMsg::AddEntry {
                table: "route".into(),
                entry: TableEntry {
                    key: vec![KeyMatch::Lpm {
                        value: 0x0b00_0000,
                        prefix_len: 8,
                    }],
                    priority: 0,
                    action: ActionCall::new("fwd", vec![5]),
                    counter: 0,
                },
            },
            ControlMsg::Resume,
        ])
        .unwrap();
        let injected2 = inject_sequenced(&mut sw, flows, 4, 4);
        let out2 = sw.run_batch();
        assert!(sw.on_compiled_path(), "next epoch compiles and publishes");
        assert_eq!(out2.len() as u64, injected2);
        assert_flow_order(&[&out, &out2]);
    }
}

/// A rejected control batch on the sharded switch: the master rolls back,
/// no new epoch opens, and traffic keeps flowing on the already-published
/// compiled path.
#[test]
fn rejected_apply_on_sharded_switch_keeps_traffic_flowing() {
    use rp4::core::error::CoreError;
    for shards in shard_counts() {
        let mut sw = ready_switch(shards);
        let epoch = sw.master.pm.epoch();
        let e = sw
            .apply(&[ControlMsg::Drain, ControlMsg::ClearSlot { slot: 9999 }])
            .unwrap_err();
        assert!(matches!(e, CoreError::RolledBack { index: 1, .. }), "{e}");
        assert_eq!(sw.master.pm.epoch(), epoch, "no epoch opened");
        assert!(!sw.master.pm.draining, "the Drain rolled back too");

        let flows = shards as u32 * 2;
        let injected = inject_sequenced(&mut sw, flows, 4, 1);
        let out = sw.run_batch();
        assert!(sw.on_compiled_path());
        assert_eq!(out.len() as u64, injected);
    }
}
