//! Seeded-schedule torture test for the sharded runtime's epoch barrier
//! (`ipbm::sharded`).
//!
//! No deterministic thread-schedule explorer is vendored, so instead of
//! loom-style exhaustive interleavings this drives many *seeded* schedules
//! of the operations that race in production — packet injection, batch
//! drains, `Drain`/`Resume` windows, and table rewrites that force an epoch
//! barrier mid-stream — and checks the invariants the barrier guarantees:
//!
//! 1. **Conservation** — every injected packet is emitted exactly once
//!    (unique sequence numbers: none lost, none duplicated), with the
//!    device fully drained at the end.
//! 2. **No stale epoch** — every emitted packet leaves through the port
//!    the routing table pointed at when its batch ran, never a port from
//!    an already-replaced epoch.
//! 3. **Drain discipline** — while draining, batches release nothing and
//!    the backlog is held; `Resume` releases it without loss.
//! 4. **Per-flow order** — sequence numbers within a flow emit in
//!    injection order.

use ipbm::{IpbmConfig, ShardedSwitch};
use ipsa_core::action::{ActionDef, Primitive};
use ipsa_core::control::{ControlMsg, Device};
use ipsa_core::pipeline_cfg::SelectorConfig;
use ipsa_core::predicate::Predicate;
use ipsa_core::table::{ActionCall, KeyField, KeyMatch, MatchKind, TableDef, TableEntry};
use ipsa_core::template::{MatcherBranch, TspTemplate};
use ipsa_core::value::ValueRef;
use ipsa_netpkt::builder::{ipv4_udp_packet, Ipv4UdpSpec};
use rand::rngs::StdRng;
use rand::{RngExt, SeedableRng};
use std::collections::HashMap;

/// One-stage L3 design: route 10.0.0.0/8 to a parameterised port.
fn l3_msgs(port: u16) -> Vec<ControlMsg> {
    vec![
        ControlMsg::Drain,
        ControlMsg::RegisterHeader(ipsa_netpkt::protocols::ethernet()),
        ControlMsg::RegisterHeader(ipsa_netpkt::protocols::ipv4()),
        ControlMsg::RegisterHeader(ipsa_netpkt::protocols::udp()),
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
                    pred: Predicate::IsValid("ipv4".into()),
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
        route_msg(port),
    ]
}

/// Re-points the 10/8 route (same key, so the entry is replaced in place —
/// this is the epoch-changing table write the schedules race against
/// batches).
fn route_msg(port: u16) -> ControlMsg {
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
    }
}

/// A packet of `flow` carrying a unique sequence number in its payload.
fn seq_packet(flow: u32, seq: u64) -> ipsa_netpkt::packet::Packet {
    ipv4_udp_packet(&Ipv4UdpSpec {
        src_ip: 0x0a00_0a00 + flow,
        dst_ip: 0x0a01_0000 + flow,
        payload: seq.to_be_bytes().to_vec(),
        ..Default::default()
    })
}

fn seq_of(p: &ipsa_netpkt::packet::Packet) -> u64 {
    let n = p.data.len();
    u64::from_be_bytes(p.data[n - 8..].try_into().unwrap())
}

fn torture_schedule(seed: u64, shards: usize) {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut sw = ShardedSwitch::new(IpbmConfig::default(), shards);
    sw.apply(&l3_msgs(1)).unwrap();

    let flows = 8u32;
    let mut next_seq = 0u64;
    let mut injected = 0u64;
    let mut current_port = 1u16;
    let mut draining = false;
    let mut emitted: Vec<(u64, u16)> = Vec::new(); // (seq, egress port)
    let mut flow_last: HashMap<u32, u64> = HashMap::new();

    let absorb = |out: Vec<ipsa_netpkt::packet::Packet>,
                  port_now: u16,
                  emitted: &mut Vec<(u64, u16)>,
                  flow_last: &mut HashMap<u32, u64>| {
        for p in out {
            let seq = seq_of(&p);
            let port = p.meta.egress_port.expect("routed packet has a port");
            assert_eq!(
                port, port_now,
                "seq {seq} exited port {port} but the epoch in force routes to {port_now} \
                 (stale-epoch processing)"
            );
            let flow = u32::from_be_bytes(p.data[30..34].try_into().unwrap()) - 0x0a01_0000;
            if let Some(prev) = flow_last.insert(flow, seq) {
                assert!(
                    prev < seq,
                    "flow {flow}: seq {seq} after {prev} (reordered)"
                );
            }
            emitted.push((seq, port));
        }
    };

    for _ in 0..400 {
        match rng.random_range(0u32..10) {
            // Inject a burst (any time, draining or not).
            0..=3 => {
                for _ in 0..rng.random_range(1usize..8) {
                    let flow = rng.random_range(0u32..flows);
                    sw.inject(seq_packet(flow, next_seq));
                    next_seq += 1;
                    injected += 1;
                }
            }
            // Drain a batch through the shards.
            4..=6 => {
                let out = sw.run_batch();
                if draining {
                    assert!(out.is_empty(), "drain must hold traffic");
                } else {
                    absorb(out, current_port, &mut emitted, &mut flow_last);
                }
            }
            // Interpreter reference path (exercises the dirty/republish
            // handoff between the two execution modes).
            7 => {
                let out = sw.run();
                if draining {
                    assert!(out.is_empty(), "drain must hold traffic");
                } else {
                    absorb(out, current_port, &mut emitted, &mut flow_last);
                }
            }
            // Epoch-changing table write racing the batches above.
            8 => {
                let port = rng.random_range(1u16..7);
                sw.apply(&[route_msg(port)]).unwrap();
                current_port = port;
            }
            // Toggle the Drain/Resume window.
            _ => {
                if draining {
                    sw.apply(&[ControlMsg::Resume]).unwrap();
                } else {
                    sw.apply(&[ControlMsg::Drain]).unwrap();
                }
                draining = !draining;
            }
        }
    }

    // Final drain: everything still pending must come out, under the
    // current epoch.
    if draining {
        sw.apply(&[ControlMsg::Resume]).unwrap();
    }
    absorb(sw.run_batch(), current_port, &mut emitted, &mut flow_last);
    assert_eq!(sw.pending(), 0, "device fully drained");

    // Conservation: exactly the injected sequence numbers, each once.
    assert_eq!(emitted.len() as u64, injected, "lost or duplicated packets");
    let mut seqs: Vec<u64> = emitted.iter().map(|(s, _)| *s).collect();
    seqs.sort_unstable();
    seqs.dedup();
    assert_eq!(seqs.len() as u64, injected, "duplicated sequence numbers");
    assert_eq!(seqs, (0..next_seq).collect::<Vec<_>>());

    // The fold-merged stats agree with conservation.
    let rep = sw.report();
    assert_eq!(rep.pipeline.received, injected);
    assert_eq!(rep.pipeline.emitted, injected);
    assert_eq!(rep.tm.tail_drops, 0);
}

#[test]
fn epoch_barrier_survives_seeded_schedules() {
    for seed in 0..12 {
        torture_schedule(seed, 4);
    }
}

#[test]
fn epoch_barrier_survives_schedules_on_one_and_many_shards() {
    for &shards in &[1usize, 2, 7] {
        torture_schedule(1000 + shards as u64, shards);
    }
}
