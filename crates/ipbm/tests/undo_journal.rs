//! Exactness of the delta undo journal.
//!
//! `Device::apply` journals each message's exact inverse — one row for an
//! entry message, the one named table for a structural one — and replays
//! the log backwards when a batch fails. Byte-identical state right after
//! the rollback is necessary but not enough: a free-row heap, a selector's
//! member order, a twin-shadow count or a slab hole restored "equivalently"
//! but not exactly shows only in what the device does *next*. So every
//! scenario here rolls a device back and then drives it and a twin that
//! never failed through the same clean batches, comparing row numbers,
//! entry counters, slab slots, block maps, pool bytes and ownership, and
//! the outputs of a burst hashed across a selector's members.
//!
//! The scenarios: a failure injected at every index of one rich batch, and
//! a staged transaction of three batches, reverted whole or aborted by a
//! failure at every index of its last batch.

use ipbm::{FaultPlan, IpbmConfig, IpbmSwitch};
use ipsa_core::action::{ActionDef, Primitive};
use ipsa_core::control::{ControlMsg, Device};
use ipsa_core::error::CoreError;
use ipsa_core::pipeline_cfg::SelectorConfig;
use ipsa_core::predicate::Predicate;
use ipsa_core::table::{ActionCall, KeyField, KeyMatch, MatchKind, TableDef, TableEntry};
use ipsa_core::template::{MatcherBranch, TspTemplate};
use ipsa_core::value::{LValueRef, ValueRef};
use ipsa_netpkt::builder::{ipv4_udp_packet, Ipv4UdpSpec};

fn def(name: &str, key: Vec<KeyField>, actions: &[&str], with_counters: bool) -> TableDef {
    TableDef {
        name: name.into(),
        key,
        size: 64,
        actions: actions.iter().map(|a| a.to_string()).collect(),
        default_action: ActionCall::no_action(),
        with_counters,
    }
}

fn field(source: ValueRef, bits: usize, kind: MatchKind) -> KeyField {
    KeyField { source, bits, kind }
}

/// `fib`: LPM on the destination, with per-entry counters.
fn fib_def() -> TableDef {
    let dst = field(ValueRef::field("ipv4", "dst_addr"), 32, MatchKind::Lpm);
    def("fib", vec![dst], &["set_nh"], true)
}

/// `ecmp`: a selector hashing the nexthop and the UDP source port.
fn ecmp_def() -> TableDef {
    let nh = field(ValueRef::Meta("nh".into()), 16, MatchKind::Hash);
    let sport = field(ValueRef::field("udp", "src_port"), 16, MatchKind::Hash);
    def("ecmp", vec![nh, sport], &["fwd"], false)
}

/// `acl`: ternary on the source, TCAM-resident and two blocks wide.
fn acl_def() -> TableDef {
    let src = field(ValueRef::field("ipv4", "src_addr"), 32, MatchKind::Ternary);
    def("acl", vec![src], &["fwd"], false)
}

/// `hosts` (and the scratch `tmp`, `late`): exact on the nexthop.
fn exact_def(name: &str) -> TableDef {
    let nh = field(ValueRef::Meta("nh".into()), 16, MatchKind::Exact);
    def(name, vec![nh], &["set_nh"], false)
}

fn route(prefix: u128, len: usize, nh: u128) -> ControlMsg {
    ControlMsg::AddEntry {
        table: "fib".into(),
        entry: TableEntry {
            key: vec![KeyMatch::Lpm {
                value: prefix,
                prefix_len: len,
            }],
            priority: 0,
            action: ActionCall::new("set_nh", vec![nh]),
            counter: 0,
        },
    }
}

fn unroute(prefix: u128, len: usize) -> ControlMsg {
    ControlMsg::DelEntry {
        table: "fib".into(),
        key: vec![KeyMatch::Lpm {
            value: prefix,
            prefix_len: len,
        }],
    }
}

fn member(m: u128, port: u128) -> ControlMsg {
    ControlMsg::AddEntry {
        table: "ecmp".into(),
        entry: TableEntry::exact(vec![m, 0], ActionCall::new("fwd", vec![port])),
    }
}

fn unmember(m: u128) -> ControlMsg {
    ControlMsg::DelEntry {
        table: "ecmp".into(),
        key: vec![KeyMatch::Exact(m), KeyMatch::Exact(0)],
    }
}

fn acl_rule(value: u128, mask: u128, priority: i32, port: u128) -> ControlMsg {
    ControlMsg::AddEntry {
        table: "acl".into(),
        entry: TableEntry {
            key: vec![KeyMatch::Ternary { value, mask }],
            priority,
            action: ActionCall::new("fwd", vec![port]),
            counter: 0,
        },
    }
}

fn host(table: &str, nh: u128, to: u128) -> ControlMsg {
    ControlMsg::AddEntry {
        table: table.into(),
        entry: TableEntry::exact(vec![nh], ActionCall::new("set_nh", vec![to])),
    }
}

/// Two ingress stages, `fib` then the `ecmp` selector, with the two side
/// tables installed, populated (including a non-canonical LPM twin, so the
/// `fib` starts with a shadowed row, and a deleted route, so it starts with
/// a free row), and one burst already through so the `fib` counters are
/// nonzero.
fn device() -> IpbmSwitch {
    let mut sw = IpbmSwitch::new(IpbmConfig::default());
    let stage = |name: &str, parse: &str, table: &str, action: &str| TspTemplate {
        stage_name: name.into(),
        func: "base".into(),
        parse: vec![parse.into()],
        branches: vec![MatcherBranch {
            pred: Predicate::IsValid(parse.into()),
            table: Some(table.into()),
        }],
        executor: vec![(1, ActionCall::new(action, vec![]))],
        default_action: ActionCall::no_action(),
    };
    let mut msgs = vec![
        ControlMsg::Drain,
        ControlMsg::RegisterHeader(ipsa_netpkt::protocols::ethernet()),
        ControlMsg::RegisterHeader(ipsa_netpkt::protocols::ipv4()),
        ControlMsg::RegisterHeader(ipsa_netpkt::protocols::udp()),
        ControlMsg::SetFirstHeader("ethernet".into()),
        ControlMsg::DefineMetadata(vec![("nh".into(), 16)]),
        ControlMsg::DefineAction(ActionDef {
            name: "set_nh".into(),
            params: vec![("nh".into(), 16)],
            body: vec![Primitive::Set {
                dst: LValueRef::Meta("nh".into()),
                src: ValueRef::Param(0),
            }],
        }),
        ControlMsg::DefineAction(ActionDef {
            name: "fwd".into(),
            params: vec![("port".into(), 16)],
            body: vec![Primitive::Forward {
                port: ValueRef::Param(0),
            }],
        }),
        ControlMsg::CreateTable {
            def: fib_def(),
            blocks: vec![0],
        },
        ControlMsg::CreateTable {
            def: ecmp_def(),
            blocks: vec![1],
        },
        ControlMsg::CreateTable {
            def: acl_def(),
            blocks: vec![64, 65],
        },
        ControlMsg::CreateTable {
            def: exact_def("hosts"),
            blocks: vec![2],
        },
        ControlMsg::WriteTemplate {
            slot: 0,
            template: stage("l3", "ipv4", "fib", "set_nh"),
        },
        ControlMsg::WriteTemplate {
            slot: 1,
            template: stage("spread", "udp", "ecmp", "fwd"),
        },
        ControlMsg::ConnectCrossbar {
            slot: 0,
            blocks: vec![0, 11],
        },
        ControlMsg::ConnectCrossbar {
            slot: 1,
            blocks: vec![1],
        },
        ControlMsg::SetSelector(SelectorConfig::split(32, 2, 0).unwrap()),
        ControlMsg::Resume,
        route(0x0a01_0000, 16, 1),
        route(0x0a02_0000, 16, 2),
        route(0x0a01_0007, 16, 3), // twin of 10.1/16: shadows it
        route(0, 0, 4),
        route(0x0a05_0000, 16, 5),
        unroute(0x0a05_0000, 16), // row 4 starts free
        acl_rule(0x0a00_0000, 0xff00_0000, 1, 1),
        acl_rule(0x0a00_0001, 0xffff_ffff, 9, 2),
        host("hosts", 1, 11),
        host("hosts", 2, 12),
    ];
    msgs.extend((0..4).map(|m| member(m, m)));
    sw.apply(&msgs).expect("device programs");
    burst(&mut sw);
    sw
}

/// One rich batch: every entry-message shape on every table kind, then
/// every structural table message, each applying cleanly in order.
fn rich_batch() -> Vec<ControlMsg> {
    vec![
        route(0x0a03_0000, 16, 5), // fresh, takes the free row
        route(0x0a01_0000, 16, 6), // replace: resets a live counter
        unroute(0x0a02_0000, 16),  // delete a counted row into the heap
        route(0x0a04_0000, 16, 7), // fresh, reuses that row
        route(0x0a09_0000, 16, 8), // fresh, grows the rows ...
        unroute(0x0a09_0000, 16),  // ... and is deleted again
        route(0x0a01_0009, 16, 9), // a second twin takes the index slot
        unroute(0x0a01_0007, 16),  // delete a shadowed twin
        unroute(0x0a01_0000, 16),  // and the shadowed original
        member(4, 4),              // fresh member
        member(1, 5),              // replace: moves to the end
        unmember(2),               // delete from the middle
        acl_rule(0x0a00_0100, 0xffff_ff00, 5, 3),
        acl_rule(0x0a00_0000, 0xff00_0000, 7, 4), // replace, new priority
        ControlMsg::DelEntry {
            table: "acl".into(),
            key: vec![KeyMatch::Ternary {
                value: 0x0a00_0001,
                mask: 0xffff_ffff,
            }],
        },
        host("hosts", 3, 13),
        host("hosts", 1, 21),
        ControlMsg::DelEntry {
            table: "hosts".into(),
            key: vec![KeyMatch::Exact(2)],
        },
        ControlMsg::SetDefaultAction {
            table: "fib".into(),
            action: ActionCall::new("set_nh", vec![99]),
        },
        ControlMsg::SetDefaultAction {
            table: "ecmp".into(),
            action: ActionCall::new("fwd", vec![1]),
        },
        ControlMsg::CreateTable {
            def: exact_def("tmp"),
            blocks: vec![10],
        },
        host("tmp", 7, 8),
        ControlMsg::MigrateTable {
            table: "fib".into(),
            blocks: vec![11],
        },
        route(0x0a06_0000, 16, 10), // lands in the migrated block
        ControlMsg::DestroyTable("hosts".into()),
        ControlMsg::CreateTable {
            def: acl_def(),
            blocks: vec![66, 67],
        }, // replaces the populated acl
        acl_rule(0x0b00_0000, 0xff00_0000, 2, 6),
        ControlMsg::CreateTable {
            def: exact_def("hosts"),
            blocks: vec![12],
        },
        ControlMsg::DestroyTable("tmp".into()),
    ]
}

/// What the rolled-back device and its twin both go through next: an
/// entry-only batch (the compiled path survives it), then a structural one.
/// The first one ends the twin regime (the `fib` drops to index-only
/// lookups, so a wrong index slot or shadow count shows), reuses free rows,
/// and replaces and deletes keys whose index entries the rollback restored.
fn clean_batches() -> [Vec<ControlMsg>; 2] {
    [
        vec![
            unroute(0x0a01_0000, 16),   // the shadowed original: no twins left
            route(0x0a07_0000, 16, 11), // which row a fresh insert takes
            route(0x0a08_0000, 16, 12),
            route(0x0a02_0000, 16, 13), // replace through the index
            member(5, 6),               // member order drives the hash
            unmember(0),
            acl_rule(0x0a00_0200, 0xffff_ff00, 3, 2),
            host("hosts", 4, 14),
            host("hosts", 2, 22),
            ControlMsg::DelEntry {
                table: "hosts".into(),
                key: vec![KeyMatch::Exact(1)],
            },
        ],
        vec![
            ControlMsg::CreateTable {
                def: exact_def("late"),
                blocks: vec![13],
            }, // which slab hole it fills
            host("late", 1, 1),
            ControlMsg::DestroyTable("acl".into()),
        ],
    ]
}

/// Everything the journal restores, minus the epoch (a staged revert
/// legitimately opens a new one over identical bytes).
fn snapshot(sw: &IpbmSwitch) -> String {
    use std::fmt::Write;
    let mut s = String::new();
    writeln!(s, "slab:{}", sw.sm.store_count()).unwrap();
    for name in sw.sm.table_names() {
        let store = sw.sm.table(&name).unwrap();
        writeln!(
            s,
            "table {name} @{:?}: {} blocks {:?} live {}",
            sw.sm.table_idx(&name),
            serde_json::to_string(&store.table.def).unwrap(),
            sw.sm.blocks_of(&name),
            store.table.len(),
        )
        .unwrap();
        for (row, e) in store.table.iter() {
            writeln!(s, "  row{row}: {}", serde_json::to_string(e).unwrap()).unwrap();
        }
    }
    // The pool is megabytes: fold each block's owner and bytes (FNV-1a).
    for id in 0..sw.sm.pool.len() {
        let owner = sw.sm.pool.block(id).unwrap().owner.as_deref();
        let bytes = sw.sm.pool.block_data(id).unwrap();
        let h = bytes.iter().fold(0xcbf2_9ce4_8422_2325u64, |h, &b| {
            (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3)
        });
        writeln!(s, "block{id}: {owner:?} {h:016x}").unwrap();
    }
    s
}

/// A burst across both `fib` twins, the default route and many source
/// ports (so the selector hashes over every member): outputs byte for
/// byte, plus the report.
fn burst(sw: &mut IpbmSwitch) -> String {
    for i in 0..96u32 {
        let dst_ip = [
            0x0a01_0203,
            0x0a02_0001,
            0x0a03_0001,
            0x0a04_0001,
            0x0c00_0001,
        ][i as usize % 5];
        sw.inject(ipv4_udp_packet(&Ipv4UdpSpec {
            src_ip: 0x0a00_0000 | i,
            dst_ip,
            src_port: 1000 + i as u16,
            ..Default::default()
        }));
    }
    let out = sw.run_batch();
    format!(
        "{}\n{}",
        serde_json::to_string(&out).unwrap(),
        serde_json::to_string(&sw.report()).unwrap()
    )
}

/// Drives `rolled` and a never-failed `twin` through the clean batches and
/// demands they stay indistinguishable.
fn assert_twins(mut rolled: IpbmSwitch, mut twin: IpbmSwitch, what: &str) {
    assert_eq!(snapshot(&rolled), snapshot(&twin), "{what}: after rollback");
    for (k, batch) in clean_batches().iter().enumerate() {
        rolled.apply(batch).expect("clean batch applies");
        twin.apply(batch).expect("clean batch applies");
        assert_eq!(
            snapshot(&rolled),
            snapshot(&twin),
            "{what}: state after clean batch {k}"
        );
        assert_eq!(burst(&mut rolled), burst(&mut twin), "{what}: burst {k}");
    }
}

#[test]
fn rich_batch_applies_cleanly() {
    // Every index of the failure sweeps below sits after real mutations.
    let mut sw = device();
    let before = snapshot(&sw);
    sw.apply(&rich_batch()).expect("rich batch applies");
    assert_ne!(snapshot(&sw), before);
    assert!(sw.sm.table("tmp").is_none() && sw.sm.table("hosts").is_some());
}

#[test]
fn failure_at_every_index_rolls_back_exactly() {
    let batch = rich_batch();
    for m in 0..batch.len() {
        let mut sw = device();
        let checkpoint = snapshot(&sw);
        let epoch = sw.pm.epoch();
        sw.set_fault_plan(FaultPlan {
            fail_msg_at: Some(m),
            ..Default::default()
        });
        let e = sw.apply(&batch).unwrap_err();
        assert!(
            matches!(e, CoreError::RolledBack { index, .. } if index == m),
            "index {m}: {e}"
        );
        sw.clear_fault_plan();
        assert_eq!(snapshot(&sw), checkpoint, "index {m}: byte-identical");
        assert_eq!(sw.pm.epoch(), epoch, "index {m}: no epoch opened");
        assert_twins(sw, device(), &format!("index {m}"));
    }
}

/// The rich batch split into three staged batches.
fn staged_batches() -> Vec<Vec<ControlMsg>> {
    let batch = rich_batch();
    vec![
        batch[..10].to_vec(),
        batch[10..20].to_vec(),
        batch[20..].to_vec(),
    ]
}

#[test]
fn staged_revert_rolls_back_exactly() {
    let mut sw = device();
    let checkpoint = snapshot(&sw);
    sw.begin_staged().unwrap();
    for b in staged_batches() {
        sw.apply(&b).expect("staged batch applies");
    }
    assert_eq!(sw.staged_batches(), 3);
    sw.revert_staged().unwrap();
    assert_eq!(snapshot(&sw), checkpoint, "byte-identical");
    assert_twins(sw, device(), "staged revert");
}

#[test]
fn staged_failure_at_every_index_aborts_exactly() {
    let batches = staged_batches();
    let last = batches.last().unwrap().len();
    for m in 0..last {
        let mut sw = device();
        let checkpoint = snapshot(&sw);
        sw.begin_staged().unwrap();
        for b in &batches[..batches.len() - 1] {
            sw.apply(b).expect("staged batch applies");
        }
        sw.set_fault_plan(FaultPlan {
            fail_msg_at: Some(m),
            ..Default::default()
        });
        let e = sw.apply(batches.last().unwrap()).unwrap_err();
        assert!(
            matches!(e, CoreError::RolledBack { index, .. } if index == m),
            "index {m}: {e}"
        );
        sw.clear_fault_plan();
        assert!(!sw.staged_open(), "index {m}: the failure closes the txn");
        assert_eq!(snapshot(&sw), checkpoint, "index {m}: byte-identical");
        assert_twins(sw, device(), &format!("staged index {m}"));
    }
}
