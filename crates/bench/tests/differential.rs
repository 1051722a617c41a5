//! Differential testing: the compiled fast path against the interpreter.
//!
//! Two identically-programmed ipbm switches receive identical traffic; one
//! drains it through [`Device::run`] (the interpreter, the reference
//! semantics), the other through [`Device::run_batch`] (the compiled fast
//! path rebuilt per control-plane epoch). Everything observable must agree:
//! the emitted packets byte-for-byte (metadata included), pipeline/TM/slot
//! statistics, pooled-memory access counts, and per-table lookup/hit
//! counters — across all four bundled rP4 programs and across a mid-stream
//! incremental update (which forces an invalidate + recompile).

use std::collections::BTreeMap;

use ipbm::fast::CompiledPath;
use ipbm::{IpbmSwitch, ShardedSwitch};
use ipsa_bench::{ipsa_sharded_flow, ipsa_sw_flow, populate_rp4_flow};
use ipsa_controller::{programs, Rp4Flow};
use ipsa_core::action::{ActionDef, Primitive};
use ipsa_core::control::{ControlMsg, Device};
use ipsa_core::hash::flow_hash;
use ipsa_core::table::{ActionCall, KeyMatch, TableEntry};
use ipsa_netpkt::packet::Packet;
use ipsa_netpkt::traffic::TrafficGen;
use proptest::prelude::*;

/// A fully-programmed switch: the base L3 design, populated, plus
/// optionally one of the three in-situ use-case updates (which installs
/// the ecmp/srv6/flowprobe rP4 stage on top).
fn programmed_switch(case: Option<usize>) -> Rp4Flow<IpbmSwitch> {
    let mut flow = ipsa_sw_flow();
    program_flow(&mut flow, case);
    flow
}

/// The same programming against the sharded multi-core runtime.
fn programmed_sharded(case: Option<usize>, shards: usize) -> Rp4Flow<ShardedSwitch> {
    let mut flow = ipsa_sharded_flow(shards);
    program_flow(&mut flow, case);
    flow
}

fn program_flow<D: Device>(flow: &mut Rp4Flow<D>, case: Option<usize>) {
    populate_rp4_flow(flow, 20);
    if let Some(i) = case {
        let (_, _, script, _) = programs::use_cases()[i];
        flow.run_script(script, &programs::bundled_sources)
            .expect("use-case script applies");
        if i == 0 {
            // The ECMP selector forwards nothing until its groups have
            // members.
            flow.run_script(
                include_str!("../../../programs/ecmp_members.script"),
                &programs::bundled_sources,
            )
            .expect("ecmp members populate");
        }
    }
}

/// Shard count for the invariance tests — CI sweeps this via `SHARDS`.
fn shard_count() -> usize {
    std::env::var("SHARDS")
        .ok()
        .and_then(|s| s.parse().ok())
        .filter(|&n| n >= 1)
        .unwrap_or(4)
}

/// Everything observable about a switch after a run.
#[derive(Debug, PartialEq)]
struct Observed {
    out: Vec<Packet>,
    pipeline: ipbm::pm::PipelineStats,
    tm: ipbm::pm::TmStats,
    slots: Vec<ipbm::tsp::SlotStats>,
    mem_accesses: u64,
    tables: Vec<(String, u64, u64)>,
}

fn observe(sw: &IpbmSwitch, out: Vec<Packet>) -> Observed {
    let mut tables: Vec<(String, u64, u64)> = sw
        .sm
        .table_names()
        .into_iter()
        .map(|n| {
            let t = &sw.sm.table(&n).expect("named table exists").table;
            (n, t.lookups, t.hits)
        })
        .collect();
    tables.sort();
    Observed {
        out,
        pipeline: sw.pm.stats,
        tm: sw.pm.tm.stats,
        slots: sw.pm.slots.iter().map(|s| s.stats).collect(),
        mem_accesses: sw.sm.mem_accesses,
        tables,
    }
}

fn traffic(seed: u64, v6: u8, flows: u16, n: usize) -> Vec<Packet> {
    TrafficGen::new(seed)
        .with_v6_percent(v6)
        .with_flows(flows as u32)
        .batch(n)
}

/// Runs both paths over the same traffic and asserts full observable
/// equality. Returns the interpreter's emit count so callers can sanity
/// check the scenario actually forwarded something.
fn assert_equivalent(
    mut interp: Rp4Flow<IpbmSwitch>,
    mut fast: Rp4Flow<IpbmSwitch>,
    batches: &[Vec<Packet>],
    mid_update: Option<&[ControlMsg]>,
) -> usize {
    let mut out_i = Vec::new();
    let mut out_f = Vec::new();
    for (k, batch) in batches.iter().enumerate() {
        if k > 0 {
            if let Some(msgs) = mid_update {
                interp.device.apply(msgs).expect("update applies");
                fast.device.apply(msgs).expect("update applies");
            }
        }
        for p in batch {
            interp.device.inject(p.clone());
            fast.device.inject(p.clone());
        }
        out_i.extend(interp.device.run());
        out_f.extend(fast.device.run_batch());
        assert!(
            fast.device.pm.has_compiled(),
            "fast path must actually be compiled (not interpreter fallback)"
        );
    }
    let emitted = out_i.len();
    let oi = observe(&interp.device, out_i);
    let of = observe(&fast.device, out_f);
    assert_eq!(oi, of);
    emitted
}

/// One route the base design doesn't have yet — the mid-stream update.
fn midstream_msgs() -> Vec<ControlMsg> {
    vec![ControlMsg::AddEntry {
        table: "ipv4_lpm".into(),
        entry: TableEntry {
            key: vec![
                KeyMatch::Exact(1),
                KeyMatch::Lpm {
                    value: 0x0b01_0000,
                    prefix_len: 16,
                },
            ],
            priority: 0,
            action: ActionCall::new("set_nexthop", vec![7]),
            counter: 0,
        },
    }]
}

#[test]
fn fast_path_matches_interpreter_on_all_programs() {
    // Base (case None) + the three use-case updates = all four bundled
    // programs/*.rp4 (base, ecmp, srv6, flowprobe).
    for case in [None, Some(0), Some(1), Some(2)] {
        let emitted = assert_equivalent(
            programmed_switch(case),
            programmed_switch(case),
            &[traffic(7, 20, 64, 400)],
            None,
        );
        assert!(emitted > 0, "case {case:?} forwarded nothing");
    }
}

#[test]
fn fast_path_matches_interpreter_across_midstream_update() {
    let emitted = assert_equivalent(
        programmed_switch(None),
        programmed_switch(None),
        &[traffic(11, 10, 32, 300), traffic(13, 10, 32, 300)],
        Some(&midstream_msgs()),
    );
    assert!(emitted > 0);
}

/// An in-situ ACL stage whose action drops: the bundled programs have no
/// dropping action, and the entry points must agree on `action_drops` too.
const ACL_RP4: &str = "
action deny() { drop(); }

table acl {
    key = { ipv4.src_addr: exact; ipv4.dst_addr: exact; }
    actions = { deny; }
    size = 64;
}

stage acl_s {
    parser { ipv4 };
    matcher {
        if (ipv4.isValid()) acl.apply();
        else;
    };
    executor { 1: deny; default: NoAction; }
}
";

const ACL_SCRIPT: &str = "
load acl.rp4 --func_name acl
add_link bd_vrf acl_s
add_link acl_s fwd_mode
del_link bd_vrf fwd_mode
table_add acl deny 0x0a000063 0x0a010109 =>
";

/// The packet entry points that survive: each drains everything injected
/// and hands back what the device emitted. `out` is reused across calls.
type Drainer = fn(&mut IpbmSwitch, &mut Vec<Packet>) -> Vec<Packet>;

/// `(name, drainer, holds traffic back between Drain and Resume)`.
const ENTRY_POINTS: [(&str, Drainer, bool); 4] = [
    ("run", |sw, _| sw.run(), true),
    ("run_batch", |sw, _| sw.run_batch(), true),
    (
        "run_batch_into",
        |sw, out| {
            out.clear();
            sw.run_batch_into(out);
            out.clone()
        },
        true,
    ),
    // The journey `rp4-benchmark --trace` drives, part by part. It pulls
    // from the rings itself, so it has no drain gate to check.
    ("rx_burst/run_burst/transmit", traced_journey, false),
];

fn traced_journey(sw: &mut IpbmSwitch, out: &mut Vec<Packet>) -> Vec<Packet> {
    let mut rx = Vec::new();
    sw.cm.rx_burst(usize::MAX, &mut rx);
    sw.pm.ensure_compiled(&sw.linkage, &sw.sm);
    out.clear();
    sw.pm
        .run_burst(&sw.linkage, &mut sw.sm, &mut rx, out)
        .expect("a burst never fails as a whole");
    for p in out.drain(..) {
        sw.cm.transmit(p);
    }
    sw.cm.tx_burst(out);
    out.clone()
}

#[test]
fn every_entry_point_agrees_and_holds_traffic_while_draining() {
    use ipsa_netpkt::builder::{ipv4_udp_packet, Ipv4UdpSpec};

    let v4 = |src_ip, dst_ip| {
        ipv4_udp_packet(&Ipv4UdpSpec {
            src_ip,
            dst_ip,
            ..Default::default()
        })
    };
    let mut runt = v4(0x0a00_0001, 0x0a01_0101);
    runt.data.truncate(24); // mid-IPv4-header
    let mut frames = traffic(23, 20, 32, 200);
    frames.push(runt);
    frames.push(v4(0x0a00_0063, 0x0a01_0109)); // the ACL entry
    frames.push(v4(0x0a00_0001, 0x0b01_0101)); // no route
    frames.extend(traffic(29, 20, 32, 50));

    // Everything observable plus the operator-facing report.
    let snapshot = |sw: &IpbmSwitch, out: Vec<Packet>| {
        let report = serde_json::to_string(&sw.report()).expect("report serializes");
        (observe(sw, out), report)
    };
    let mut reference = None;
    for (name, drain, gated) in ENTRY_POINTS {
        let mut flow = programmed_switch(None);
        flow.run_script(ACL_SCRIPT, &|file| {
            (file == "acl.rp4").then(|| ACL_RP4.to_string())
        })
        .expect("acl stage loads in situ");
        let sw = &mut flow.device;
        let mut out = Vec::new();

        for p in &frames {
            sw.inject(p.clone());
        }
        let emitted = drain(sw, &mut out);
        let first = snapshot(sw, emitted);
        let seen = &first.0;
        assert_eq!(seen.pipeline.parse_drops, 1, "{name}: the runt");
        assert_eq!(seen.pipeline.action_drops, 1, "{name}: the ACL hit");
        assert_eq!(seen.tm.no_route_drops, 1, "{name}: the unrouted frame");
        assert_eq!(seen.out.len(), frames.len() - 3, "{name}");

        // Between Drain and Resume the Device entry points hold traffic
        // back.
        sw.apply(&[ControlMsg::Drain]).expect("drain applies");
        for p in &frames {
            sw.inject(p.clone());
        }
        if gated {
            assert!(
                drain(sw, &mut out).is_empty(),
                "{name}: emitted while draining"
            );
            assert_eq!(
                sw.pending(),
                frames.len(),
                "{name}: pending() while draining"
            );
        }
        sw.apply(&[ControlMsg::Resume]).expect("resume applies");
        let emitted = drain(sw, &mut out);
        let second = snapshot(sw, emitted);
        assert_eq!(sw.pending(), 0, "{name}");
        // Run-to-completion hands the TM one packet and takes that same
        // packet back, so no entry point ever queues a second one.
        for tm in [&first.0.tm, &second.0.tm] {
            assert!(tm.max_depth <= 1, "{name}: TM held {}", tm.max_depth);
            assert_eq!(tm.tail_drops, 0, "{name}");
        }

        let got = (first, second);
        match &reference {
            None => reference = Some(got),
            Some(want) => assert_eq!(&got, want, "`{name}` differs from `run`"),
        }
    }
}

/// What fact guidance decides in a compiled path: per compiled slot its
/// physical index, parse count and branch arms.
#[derive(Debug, PartialEq)]
struct Guidance {
    slots: Vec<(usize, usize, usize)>,
}

fn guidance(cp: &CompiledPath) -> Guidance {
    Guidance {
        slots: cp
            .ingress
            .iter()
            .chain(&cp.egress)
            .map(|s| (s.slot, s.parse.len(), s.branches.len()))
            .collect(),
    }
}

/// Guidance of the path the switch compiles next.
fn next_guidance(sw: &mut IpbmSwitch) -> Guidance {
    assert!(sw.pm.ensure_compiled(&sw.linkage, &sw.sm), "path compiles");
    guidance(sw.pm.compiled().expect("compiled path"))
}

/// Parse requirements the switch's compiled path elides: each compiled
/// slot's template requirements minus the parses it kept.
fn elided_parses(sw: &IpbmSwitch) -> usize {
    let cp = sw.pm.compiled().expect("compiled path");
    cp.ingress
        .iter()
        .chain(&cp.egress)
        .map(|s| {
            let t = sw.pm.slots[s.slot].template.as_ref().expect("programmed");
            t.parse_requirements().len() - s.parse.len()
        })
        .sum()
}

/// Applies a non-entry batch and checks it opened exactly one epoch.
fn apply_one_epoch(sw: &mut IpbmSwitch, msgs: &[ControlMsg]) {
    let epoch = sw.pm.epoch();
    sw.apply(msgs).expect("batch applies");
    assert_eq!(sw.pm.epoch(), epoch + 1, "{msgs:?} opened one epoch");
}

/// Fact guidance is derived from the device's own state, so it survives
/// control batches no controller followed up on: a bare `Drain`/`Resume`,
/// a staged structural batch that is reverted, and a raw `DefineAction`.
/// After each, the next compiled path is guided exactly as a fresh
/// install's, and every non-entry batch opens exactly one epoch. The path a
/// `ShardedSwitch` publishes after raw batches is guided the same way.
#[test]
fn fact_guidance_follows_device_state() {
    let mut fresh_flow = ipsa_sw_flow();
    let fresh = next_guidance(&mut fresh_flow.device);
    let fresh_elided = elided_parses(&fresh_flow.device);
    assert!(fresh_elided > 0, "{fresh:?}");
    let decap = ControlMsg::DefineAction(ActionDef {
        name: "raw_decap".into(),
        params: vec![],
        body: vec![Primitive::RemoveHeader {
            header: "ipv4".into(),
        }],
    });
    let noop = ControlMsg::DefineAction(ActionDef {
        name: "raw_noop".into(),
        params: vec![],
        body: vec![Primitive::NoAction],
    });

    let mut flow = ipsa_sw_flow();
    let sw = &mut flow.device;
    apply_one_epoch(sw, &[ControlMsg::Drain]);
    apply_one_epoch(sw, &[ControlMsg::Resume]);
    assert_eq!(next_guidance(sw), fresh, "after a bare Drain/Resume");

    let first = sw.pm.selector.ingress_slots()[0];
    sw.begin_staged().expect("transaction opens");
    apply_one_epoch(
        sw,
        &[
            ControlMsg::Drain,
            decap.clone(),
            ControlMsg::ClearSlot { slot: first },
            ControlMsg::Resume,
        ],
    );
    let staged = next_guidance(sw);
    assert!(staged.slots.len() < fresh.slots.len(), "{staged:?}");
    assert!(elided_parses(sw) < fresh_elided, "{staged:?}");
    sw.revert_staged().expect("transaction reverts");
    assert_eq!(next_guidance(sw), fresh, "after a reverted staged batch");

    apply_one_epoch(sw, std::slice::from_ref(&noop));
    assert_eq!(next_guidance(sw), fresh, "after a raw DefineAction");

    let mut sharded = ipsa_sharded_flow(2);
    for msgs in [
        vec![ControlMsg::Drain],
        vec![ControlMsg::Resume],
        vec![noop],
    ] {
        let epoch = sharded.device.master.pm.epoch();
        sharded.device.apply(&msgs).expect("batch applies");
        assert_eq!(sharded.device.master.pm.epoch(), epoch + 1);
    }
    for p in traffic(3, 20, 8, 16) {
        sharded.device.inject(p);
    }
    sharded.device.run_batch();
    let published = sharded.device.published().expect("a path was published");
    assert_eq!(guidance(published), fresh, "the sharded publish");
}

/// `PROPTEST_CASES` when set, else `default`: tier-1 runs stay short and CI
/// can run the same property deeper.
fn cases_or(default: u32) -> u32 {
    std::env::var("PROPTEST_CASES")
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(default)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(cases_or(12)))]

    /// Property: for arbitrary traffic mixes and an arbitrary split point,
    /// interpreter and fast path agree on every observable, including
    /// across the epoch boundary the mid-stream update creates.
    #[test]
    fn differential_equivalence(
        seed in 0u64..1000,
        v6 in 0u8..=50,
        flows in 1u16..128,
        n1 in 1usize..250,
        n2 in 1usize..250,
        case in proptest::option::of(0usize..3),
        update in any::<bool>(),
    ) {
        let batches = vec![traffic(seed, v6, flows, n1), traffic(seed ^ 0xdead, v6, flows, n2)];
        let msgs = midstream_msgs();
        assert_equivalent(
            programmed_switch(case),
            programmed_switch(case),
            &batches,
            if update { Some(&msgs) } else { None },
        );
    }
}

// ---------------------------------------------------------------------------
// Shard-count invariance: the merged output and statistics of N shard
// workers must equal the interpreter (and therefore the 1-shard and the
// single-core fast path, which the tests above pin to it) modulo inter-flow
// ordering. Per-flow ordering is asserted exactly.
// ---------------------------------------------------------------------------

/// Canonical full-packet identity (bytes + every metadata field).
fn pkt_key(p: &Packet) -> String {
    serde_json::to_string(p).expect("packet serializes")
}

/// Outputs sorted into a canonical, inter-flow-order-free form.
fn canonical(mut out: Vec<Packet>) -> Vec<Packet> {
    out.sort_by_key(pkt_key);
    out
}

/// Per-flow output subsequences, keyed by the full flow hash.
fn flows_of(out: &[Packet]) -> BTreeMap<u64, Vec<String>> {
    let mut m: BTreeMap<u64, Vec<String>> = BTreeMap::new();
    for p in out {
        m.entry(flow_hash(&p.data)).or_default().push(pkt_key(p));
    }
    m
}

/// Runs the interpreter and the sharded runtime over the same traffic and
/// asserts: per-flow packet sequences identical, and every observable equal
/// once outputs are sorted into a canonical (inter-flow-order-free) form.
fn assert_shard_invariant(
    mut interp: Rp4Flow<IpbmSwitch>,
    mut sharded: Rp4Flow<ShardedSwitch>,
    batches: &[Vec<Packet>],
    mid_update: Option<&[ControlMsg]>,
) -> usize {
    let shards = sharded.device.shards();
    let mut out_i = Vec::new();
    let mut out_s = Vec::new();
    for (k, batch) in batches.iter().enumerate() {
        if k > 0 {
            if let Some(msgs) = mid_update {
                interp.device.apply(msgs).expect("update applies");
                sharded.device.apply(msgs).expect("update applies");
            }
        }
        for p in batch {
            interp.device.inject(p.clone());
            sharded.device.inject(p.clone());
        }
        out_i.extend(interp.device.run());
        out_s.extend(sharded.device.run_batch());
        assert!(
            sharded.device.on_compiled_path(),
            "shards must run the compiled path (not interpreter fallback)"
        );
    }
    let emitted = out_i.len();
    // Per-flow (strictly: per shard bucket, a partition into flow groups)
    // the sharded output must be the interpreter's exact subsequence.
    let bucketize = |out: &[Packet]| -> Vec<Vec<String>> {
        let mut v: Vec<Vec<String>> = vec![Vec::new(); shards];
        for p in out {
            v[(flow_hash(&p.data) % shards as u64) as usize].push(pkt_key(p));
        }
        v
    };
    assert_eq!(
        bucketize(&out_i),
        bucketize(&out_s),
        "per-flow packet order must be preserved under sharding"
    );
    // Modulo inter-flow order, everything observable must agree: canonical-
    // sort both outputs, then compare the full stat surface.
    let oi = observe(&interp.device, canonical(out_i));
    let os = observe(&sharded.device.master, canonical(out_s));
    assert_eq!(oi, os);
    emitted
}

#[test]
fn one_shard_is_bit_exact_with_interpreter() {
    // A single shard sees the exact arrival order, so no sorting: the full
    // observable (output order included) must match the interpreter.
    for case in [None, Some(0), Some(1), Some(2)] {
        let mut interp = programmed_switch(case);
        let mut sharded = programmed_sharded(case, 1);
        for p in traffic(19, 20, 64, 300) {
            interp.device.inject(p.clone());
            sharded.device.inject(p);
        }
        let out_i = interp.device.run();
        let out_s = sharded.device.run_batch();
        let oi = observe(&interp.device, out_i);
        let os = observe(&sharded.device.master, out_s);
        assert_eq!(oi, os, "case {case:?}");
        assert!(oi.pipeline.emitted > 0, "case {case:?} forwarded nothing");
    }
}

#[test]
fn sharded_matches_interpreter_on_all_programs() {
    let shards = shard_count();
    for case in [None, Some(0), Some(1), Some(2)] {
        let emitted = assert_shard_invariant(
            programmed_switch(case),
            programmed_sharded(case, shards),
            &[traffic(7, 20, 64, 400)],
            None,
        );
        assert!(emitted > 0, "case {case:?} forwarded nothing");
    }
}

#[test]
fn sharded_matches_interpreter_across_midstream_update() {
    let emitted = assert_shard_invariant(
        programmed_switch(None),
        programmed_sharded(None, shard_count()),
        &[traffic(11, 10, 32, 300), traffic(13, 10, 32, 300)],
        Some(&midstream_msgs()),
    );
    assert!(emitted > 0);
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    /// Property: shard-count invariance. For arbitrary traffic, shard
    /// counts, programs, and an optional mid-stream update (an epoch
    /// barrier), N shard workers produce the interpreter's result modulo
    /// inter-flow ordering.
    #[test]
    fn shard_count_invariance(
        seed in 0u64..1000,
        v6 in 0u8..=50,
        flows in 1u16..64,
        n1 in 1usize..150,
        n2 in 1usize..150,
        shards in 2usize..=5,
        case in proptest::option::of(0usize..3),
        update in any::<bool>(),
    ) {
        let batches = vec![traffic(seed, v6, flows, n1), traffic(seed ^ 0xbeef, v6, flows, n2)];
        let msgs = midstream_msgs();
        assert_shard_invariant(
            programmed_switch(case),
            programmed_sharded(case, shards),
            &batches,
            if update { Some(&msgs) } else { None },
        );
    }
}

/// One `ipv4_lpm` route in VRF 1 (the base design's FIB key).
fn route_key(prefix: u128, len: usize) -> Vec<KeyMatch> {
    vec![
        KeyMatch::Exact(1),
        KeyMatch::Lpm {
            value: prefix,
            prefix_len: len,
        },
    ]
}

fn add_route(prefix: u128, len: usize, nexthop: u128) -> ControlMsg {
    ControlMsg::AddEntry {
        table: "ipv4_lpm".into(),
        entry: TableEntry {
            key: route_key(prefix, len),
            priority: 0,
            action: ActionCall::new("set_nexthop", vec![nexthop]),
            counter: 0,
        },
    }
}

fn del_route(prefix: u128, len: usize) -> ControlMsg {
    ControlMsg::DelEntry {
        table: "ipv4_lpm".into(),
        key: route_key(prefix, len),
    }
}

/// Entry-only batches that move the generator's flows (all in
/// 10.1.0.0/24) between nexthops 7 and 9 and through misses: fresh and
/// row-growing adds, replaces, deletes, and a default-action change.
fn entry_churn() -> Vec<Vec<ControlMsg>> {
    vec![
        vec![add_route(0x0a01_0000, 28, 9), add_route(0x0a01_0500, 24, 9)],
        vec![
            add_route(0x0a01_0000, 24, 9),
            del_route(0x0a01_0500, 24),
            ControlMsg::SetDefaultAction {
                table: "ipv4_lpm".into(),
                action: ActionCall::new("set_nexthop", vec![9]),
            },
        ],
        vec![del_route(0x0a01_0000, 24), del_route(0x0a01_0000, 28)],
        vec![add_route(0x0a01_0000, 24, 7), add_route(0x0a01_0010, 28, 9)],
    ]
}

/// Entry-only batches between bursts open no epoch: the single-core
/// switch keeps its compiled path and the shards keep their published one,
/// yet every burst runs on the entries applied before it. The interpreter,
/// `run_batch` and the sharded runtime at `SHARDS` agree on every output
/// and on the serialized `SwitchReport`.
#[test]
fn entry_batches_between_bursts_keep_the_compiled_path() {
    let mut interp = programmed_switch(None);
    let mut fast = programmed_switch(None);
    let mut sharded = programmed_sharded(None, shard_count());
    let (mut out_i, mut out_f, mut out_s) = (Vec::new(), Vec::new(), Vec::new());
    let churn = entry_churn();
    for k in 0..=churn.len() {
        for p in traffic(31 + k as u64, 20, 32, 150) {
            interp.device.inject(p.clone());
            fast.device.inject(p.clone());
            sharded.device.inject(p);
        }
        out_i.extend(interp.device.run());
        out_f.extend(fast.device.run_batch());
        out_s.extend(sharded.device.run_batch());
        assert!(fast.device.pm.has_compiled() && sharded.device.on_compiled_path());
        let Some(msgs) = churn.get(k) else { break };
        let epochs = (fast.device.pm.epoch(), sharded.device.master.pm.epoch());
        for dev in [
            &mut interp.device as &mut dyn Device,
            &mut fast.device,
            &mut sharded.device,
        ] {
            dev.apply(msgs).expect("entry batch applies");
        }
        assert!(fast.device.pm.has_compiled(), "round {k}: path dropped");
        assert_eq!(
            (fast.device.pm.epoch(), sharded.device.master.pm.epoch()),
            epochs,
            "round {k}: an entry batch opened an epoch"
        );
    }
    let mut ports: Vec<_> = out_i.iter().map(|p| p.meta.egress_port).collect();
    ports.sort_unstable();
    ports.dedup();
    assert!(ports.len() > 1, "churn never moved a flow");

    let report = |r: ipbm::SwitchReport| serde_json::to_string(&r).expect("report serializes");
    let (ri, rf, rs) = (
        report(interp.device.report()),
        report(fast.device.report()),
        report(sharded.device.report()),
    );
    assert_eq!(
        flows_of(&out_i),
        flows_of(&out_s),
        "per-flow order under sharding"
    );
    let os = observe(&sharded.device.master, canonical(out_s));
    let oi = observe(&interp.device, out_i);
    assert_eq!(oi, observe(&fast.device, out_f));
    assert_eq!(ri, rf);
    assert_eq!(
        Observed {
            out: canonical(oi.out.clone()),
            ..oi
        },
        os
    );
    assert_eq!(ri, rs);
}
