//! Proves the acceptance criterion "zero per-packet heap allocation on the
//! steady-state path": a counting global allocator wraps the system
//! allocator, the compiled fast path is built and warmed, and then a batch
//! of pre-built packets is drained through `run_batch_into` with the
//! allocation counter pinned at zero delta.
//!
//! The interpreter cannot pass this test — it clones parse-requirement
//! strings, action bodies, and argument vectors per packet — which is the
//! point of the compiled path.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

use ipbm::{IpbmConfig, IpbmSwitch};
use ipsa_core::action::{ActionDef, Primitive};
use ipsa_core::control::{ControlMsg, Device};
use ipsa_core::pipeline_cfg::SelectorConfig;
use ipsa_core::predicate::Predicate;
use ipsa_core::table::{ActionCall, KeyField, KeyMatch, MatchKind, TableDef, TableEntry};
use ipsa_core::template::{MatcherBranch, TspTemplate};
use ipsa_core::value::{LValueRef, ValueRef};
use ipsa_netpkt::builder::{ipv4_udp_packet, Ipv4UdpSpec};

struct CountingAlloc;

thread_local! {
    /// Allocations made by the current thread. Per thread, so neither a
    /// concurrently running test nor the harness reporting a finished one
    /// can bleed into a measured window.
    static ALLOCS: Cell<u64> = const { Cell::new(0) };
}

fn allocs() -> u64 {
    ALLOCS.with(Cell::get)
}

fn count() {
    // `try_with`: the slot may already be gone while a thread exits.
    let _ = ALLOCS.try_with(|c| c.set(c.get() + 1));
}

unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count();
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count();
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static GLOBAL: CountingAlloc = CountingAlloc;

/// A realistic L3 stage: parse ipv4, LPM-match the destination, then set a
/// nexthop metadata field, decrement the TTL (incremental checksum — the
/// interpreter's allocation-heaviest hot primitive), and forward.
fn l3_switch() -> IpbmSwitch {
    let mut sw = IpbmSwitch::new(IpbmConfig::default());
    let msgs = vec![
        ControlMsg::Drain,
        ControlMsg::RegisterHeader(ipsa_netpkt::protocols::ethernet()),
        ControlMsg::RegisterHeader(ipsa_netpkt::protocols::ipv4()),
        ControlMsg::RegisterHeader(ipsa_netpkt::protocols::udp()),
        ControlMsg::SetFirstHeader("ethernet".into()),
        ControlMsg::DefineMetadata(vec![("nexthop".into(), 16)]),
        ControlMsg::DefineAction(ActionDef {
            name: "route".into(),
            params: vec![("nh".into(), 16), ("port".into(), 16)],
            body: vec![
                Primitive::Set {
                    dst: LValueRef::Meta("nexthop".into()),
                    src: ValueRef::Param(0),
                },
                Primitive::DecTtlV4,
                Primitive::Forward {
                    port: ValueRef::Param(1),
                },
            ],
        }),
        ControlMsg::CreateTable {
            def: TableDef {
                name: "fib".into(),
                key: vec![KeyField {
                    source: ValueRef::field("ipv4", "dst_addr"),
                    bits: 32,
                    kind: MatchKind::Lpm,
                }],
                size: 64,
                actions: vec!["route".into()],
                default_action: ActionCall::no_action(),
                with_counters: false,
            },
            blocks: vec![0],
        },
        ControlMsg::WriteTemplate {
            slot: 0,
            template: TspTemplate {
                stage_name: "l3".into(),
                func: "base".into(),
                parse: vec!["ipv4".into()],
                branches: vec![MatcherBranch {
                    pred: Predicate::IsValid("ipv4".into()),
                    table: Some("fib".into()),
                }],
                executor: vec![(1, ActionCall::new("route", vec![]))],
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
            table: "fib".into(),
            entry: TableEntry {
                key: vec![KeyMatch::Lpm {
                    value: 0x0a000000,
                    prefix_len: 8,
                }],
                priority: 0,
                action: ActionCall::new("route", vec![9, 4]),
                counter: 0,
            },
        },
    ];
    sw.apply(&msgs).unwrap();
    sw
}

#[test]
fn steady_state_fast_path_does_not_allocate() {
    let mut sw = l3_switch();

    // Packets are built before measurement (construction legitimately
    // allocates; the per-packet *processing* path must not). Built through
    // the builder — i.e. `Packet::new`, like real ingress traffic — so
    // each has the parse-record capacity a wire packet gets; a `clone()`d
    // packet starts at the clone's exact length instead and would take one
    // `Vec` growth on first parse.
    let inject_batch = |sw: &mut IpbmSwitch| {
        for _ in 0..256 {
            sw.inject(ipv4_udp_packet(&Ipv4UdpSpec {
                dst_ip: 0x0a010101,
                ..Default::default()
            }));
        }
    };

    // One full-size round compiles the fast path and warms every buffer:
    // CM rings, scratch vectors, the TM's per-port queue, and `out`.
    let mut out = Vec::new();
    inject_batch(&mut sw);
    assert_eq!(sw.run_batch_into(&mut out), 256, "warm-up must forward");
    assert!(sw.pm.has_compiled());
    out.clear();

    inject_batch(&mut sw);
    let before = allocs();
    let emitted = sw.run_batch_into(&mut out);
    let delta = allocs() - before;

    assert_eq!(emitted, 256);
    assert_eq!(
        delta, 0,
        "steady-state fast path performed {delta} heap allocations over 256 packets"
    );
    // The work actually happened: TTL decremented, metadata written.
    assert_eq!(sw.pm.stats.emitted, 2 * 256);
}

fn fib_entry(prefix: u128, nh: u128) -> ControlMsg {
    ControlMsg::AddEntry {
        table: "fib".into(),
        entry: TableEntry {
            key: vec![KeyMatch::Lpm {
                value: prefix,
                prefix_len: 8,
            }],
            priority: 0,
            action: ActionCall::new("route", vec![nh, 4]),
            counter: 0,
        },
    }
}

/// Entry writes keep the compiled path: after an entry batch (add,
/// replace, delete) the next burst recompiles nothing, so it allocates
/// nothing either — and it already runs on the new entries.
#[test]
fn entry_batch_then_burst_does_not_allocate() {
    let mut sw = l3_switch();
    let inject_batch = |sw: &mut IpbmSwitch| {
        for i in 0..256u32 {
            sw.inject(ipv4_udp_packet(&Ipv4UdpSpec {
                dst_ip: if i % 2 == 0 { 0x0a01_0101 } else { 0x0b01_0101 },
                ..Default::default()
            }));
        }
    };
    let mut out = Vec::new();
    sw.apply(&[fib_entry(0x0b00_0000, 5)]).unwrap();
    inject_batch(&mut sw);
    assert_eq!(sw.run_batch_into(&mut out), 256, "warm-up must forward");
    assert!(sw.pm.has_compiled());
    out.clear();

    sw.apply(&[
        fib_entry(0x0a00_0000, 7),
        fib_entry(0x0b00_0000, 8),
        fib_entry(0x0c00_0000, 9),
        ControlMsg::DelEntry {
            table: "fib".into(),
            key: vec![KeyMatch::Lpm {
                value: 0x0c00_0000,
                prefix_len: 8,
            }],
        },
    ])
    .unwrap();
    assert!(
        sw.pm.has_compiled(),
        "an entry batch must not drop the path"
    );

    inject_batch(&mut sw);
    let before = allocs();
    let emitted = sw.run_batch_into(&mut out);
    let delta = allocs() - before;

    assert_eq!(emitted, 256);
    assert_eq!(
        delta, 0,
        "burst after an entry batch performed {delta} heap allocations over 256 packets"
    );
    let mut nexthops: Vec<u128> = out.iter().map(|p| p.meta.get("nexthop")).collect();
    nexthops.sort_unstable();
    nexthops.dedup();
    assert_eq!(nexthops, vec![7, 8], "the burst ran on the new entries");
}

/// Pricing an entry op sizes its wire frame by running the encoder into a
/// byte counter, so neither `payload_bytes` nor the cost model allocates:
/// on a runtime table write, pricing is arithmetic.
#[test]
fn pricing_entry_ops_does_not_allocate() {
    use ipsa_core::timing::CostModel;

    let msgs = [
        fib_entry(0x0a00_0000, 7),
        ControlMsg::DelEntry {
            table: "fib".into(),
            key: vec![KeyMatch::Lpm {
                value: 0x0a00_0000,
                prefix_len: 8,
            }],
        },
        ControlMsg::SetDefaultAction {
            table: "fib".into(),
            action: ActionCall::new("route", vec![1, 2]),
        },
    ];
    let cost = CostModel::software();
    for msg in &msgs {
        let before = allocs();
        let bytes = std::hint::black_box(msg).payload_bytes();
        let us = cost.msg_cost_us(std::hint::black_box(msg));
        let delta = allocs() - before;
        assert_eq!(
            delta, 0,
            "pricing {msg:?} performed {delta} heap allocations"
        );
        assert_eq!(bytes, ipsa_core::wire::encode_frame(msg).len());
        assert!(us > cost.per_msg_us);
    }
}

/// The acceptance criterion for the recycling packet arena: with output
/// packets recycled back into the arena, the ENTIRE
/// inject→process→collect loop — CM rings, burst buffers, compiled fast
/// path, TM, TX drain — performs zero heap allocations in steady state,
/// not just the eval inner loop the other tests pin.
#[test]
fn steady_state_full_loop_does_not_allocate() {
    use ipsa_netpkt::arena::PacketArena;

    let mut sw = l3_switch();
    assert!(sw.pm.ensure_compiled(&sw.linkage, &sw.sm));
    let template = ipv4_udp_packet(&Ipv4UdpSpec {
        dst_ip: 0x0a010101,
        ..Default::default()
    })
    .data;

    let mut arena = PacketArena::with_capacity(64);
    let mut out = Vec::new();
    const ROUND: usize = 32;
    // Warm every buffer: the CM rings, the switch's burst/emit scratch,
    // the TM queues, the arena freelist, and the collect buffer.
    for _ in 0..8 {
        for _ in 0..ROUND {
            let pkt = arena.build(&template, 0);
            sw.inject(pkt);
        }
        assert_eq!(sw.run_batch_into(&mut out), ROUND);
        arena.recycle_all(&mut out);
    }

    let before = allocs();
    let mut emitted = 0usize;
    for _ in 0..8 {
        for _ in 0..ROUND {
            let pkt = arena.build(&template, 0);
            sw.inject(pkt);
        }
        emitted += sw.run_batch_into(&mut out);
        arena.recycle_all(&mut out);
    }
    let delta = allocs() - before;

    assert_eq!(emitted, 8 * ROUND);
    assert_eq!(
        arena.fresh, ROUND as u64,
        "only the first warm round builds fresh packets"
    );
    assert_eq!(
        delta, 0,
        "full inject→process→collect loop performed {delta} heap allocations over {emitted} packets"
    );
}

/// The sharded runtime's per-packet worker loop — `run_packet_parts`
/// against a detached stats array, a worker-local Traffic Manager, and a
/// cloned Storage Module, exactly the state `ipbm::sharded`'s workers own —
/// must be as allocation-free as the single-core path. (Dispatch and
/// barrier replies allocate per *batch*; this pins the per-*packet* cost.)
#[test]
fn shard_worker_inner_loop_does_not_allocate() {
    use ipbm::fast::{compile, EvalScratch, SlotStatsMut};
    use ipbm::pm::{PipelineStats, TrafficManager, TM_QUEUE_CAPACITY};
    use ipbm::tsp::SlotStats;

    let sw = l3_switch();
    let compiled = compile(
        &sw.pm.slots,
        &sw.pm.selector,
        &sw.pm.crossbar,
        &sw.sm,
        &sw.linkage,
        0,
    )
    .expect("l3 design compiles");

    // Worker-owned state, as published at an epoch barrier.
    let mut sm = sw.sm.clone();
    sm.reset_observability();
    let mut stats = PipelineStats::default();
    let mut slot_stats = vec![SlotStats::default(); sw.pm.slot_count()];
    let mut tm = TrafficManager::new(8, TM_QUEUE_CAPACITY).unwrap();
    let mut scratch = EvalScratch::default();

    let spec = Ipv4UdpSpec {
        dst_ip: 0x0a010101,
        ..Default::default()
    };
    for _ in 0..32 {
        let out = compiled
            .run_packet_parts(
                &mut stats,
                SlotStatsMut::Stats(&mut slot_stats),
                &mut tm,
                &sw.linkage,
                &mut sm,
                &mut scratch,
                ipv4_udp_packet(&spec),
            )
            .unwrap();
        assert!(out.is_some(), "warm-up packet must forward");
    }

    let batch: Vec<_> = (0..256).map(|_| ipv4_udp_packet(&spec)).collect();
    let before = allocs();
    let mut emitted = 0u32;
    for pkt in batch {
        if compiled
            .run_packet_parts(
                &mut stats,
                SlotStatsMut::Stats(&mut slot_stats),
                &mut tm,
                &sw.linkage,
                &mut sm,
                &mut scratch,
                pkt,
            )
            .unwrap()
            .is_some()
        {
            emitted += 1;
        }
    }
    let delta = allocs() - before;

    assert_eq!(emitted, 256);
    assert_eq!(
        delta, 0,
        "shard worker inner loop performed {delta} heap allocations over 256 packets"
    );
    assert_eq!(stats.emitted as u32, 32 + 256);
    assert_eq!(slot_stats[0].packets as u32, 32 + 256);
}
