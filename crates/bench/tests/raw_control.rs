//! Raw control batches against `Device::apply`.
//!
//! The controller only ever sends batches it built from a checked design.
//! The device must also survive — and stay exact under — batches nobody
//! checked: pieces of the bundled designs' install sequences in any order,
//! cleared slots, selectors that bypass a slot, actions redefined to add or
//! strip headers, templates with a duplicated guard or copied into a second
//! slot, a bare `Drain` or
//! `Resume`, and entry ops on unknown tables or with keys of the wrong
//! width. The compiled fast path derives its parse elision from whatever
//! state such batches leave behind, so this is also the safety net for
//! elision on states no controller produced.
//!
//! Twin devices apply the same batches. `apply` must return `Ok` or a typed
//! error, never panic, and the same on both; after every batch the
//! interpreter (`run`) and the compiled path (`run_batch`) must agree on
//! every emitted packet and on the serialized `SwitchReport`.
//!
//! Every message the suite sends also crosses the control channel's frame
//! codec (`ipsa_core::wire`): it decodes back to itself and is priced by
//! its frame length. Bit-flipped frames that still decode are applied to
//! twins the same way, so a corrupted but well-formed frame can at worst
//! be refused.

use std::sync::OnceLock;

use ipbm::IpbmSwitch;
use ipsa_bench::{ipsa_sw_flow, populate_rp4_flow};
use ipsa_controller::{programs, Rp4Flow};
use ipsa_core::action::{ActionDef, Primitive};
use ipsa_core::control::{full_install_msgs, ControlMsg, Device};
use ipsa_core::pipeline_cfg::SlotRole;
use ipsa_core::table::{ActionCall, KeyMatch, TableEntry};
use ipsa_core::template::CompiledDesign;
use ipsa_core::value::ValueRef;
use ipsa_core::wire::{decode_frame, encode_frame, encoded_len, WireError};
use ipsa_netpkt::traffic::TrafficGen;
use proptest::prelude::*;
use proptest::test_runner::TestCaseError;

/// The base design and the three use-case designs built on it.
fn designs() -> &'static [CompiledDesign] {
    static DESIGNS: OnceLock<Vec<CompiledDesign>> = OnceLock::new();
    DESIGNS.get_or_init(|| {
        let mut out = vec![ipsa_sw_flow().design];
        for (_, _, script, _) in programs::use_cases() {
            let mut flow = ipsa_sw_flow();
            flow.run_script(script, &programs::bundled_sources)
                .expect("use-case script applies");
            out.push(flow.design);
        }
        out
    })
}

fn populated() -> Rp4Flow<IpbmSwitch> {
    let mut flow = ipsa_sw_flow();
    populate_rp4_flow(&mut flow, 20);
    flow
}

/// Headers the bundled designs know, plus one they do not.
const HEADERS: [&str; 6] = ["ethernet", "ipv4", "ipv6", "srh", "udp", "ghost"];

/// One drawn control message (or short sequence). `kind` picks the shape;
/// `a`, `b` and `c` pick design, slot, action, header and ranges within it.
fn raw_msgs(kind: u8, a: usize, b: usize, c: usize) -> Vec<ControlMsg> {
    let design = &designs()[a % designs().len()];
    let header = || HEADERS[c % HEADERS.len()].to_string();
    match kind {
        // A run of the design's own install sequence, out of context.
        0..=4 => {
            let msgs = full_install_msgs(design);
            let start = b % msgs.len();
            msgs[start..msgs.len().min(start + 1 + c % 12)].to_vec()
        }
        5 => vec![ControlMsg::ClearSlot { slot: b % 34 }],
        6 => {
            let mut selector = design.selector.clone();
            let slot = b % selector.roles.len();
            selector.roles[slot] = SlotRole::Bypass;
            vec![ControlMsg::SetSelector(selector)]
        }
        // An action (one the design registers, or a new one) that adds or
        // strips a header, so the header set is no longer stable.
        7 | 8 => {
            let mut action = design
                .actions
                .values()
                .nth(b % (design.actions.len() + 1))
                .cloned()
                .unwrap_or_else(|| ActionDef {
                    name: "raw_action".into(),
                    params: vec![],
                    body: vec![],
                });
            let mutator = if c.is_multiple_of(2) {
                Primitive::RemoveHeader { header: header() }
            } else {
                Primitive::InsertHeaderAfter {
                    after: HEADERS[b % HEADERS.len()].to_string(),
                    header: header(),
                    fields: vec![],
                    extra_words: vec![ValueRef::Const(0x2001_0db8)],
                }
            };
            let at = c % (action.body.len() + 1);
            action.body.insert(at, mutator);
            vec![ControlMsg::DefineAction(action)]
        }
        // A programmed template whose first guard is repeated, in its own
        // slot or copied into another one (two slots, one stage name).
        9 | 14 => {
            let programmed: Vec<_> = design.programmed().collect();
            let (slot, template) = programmed[b % programmed.len()];
            let mut template = template.clone();
            if let Some(first) = template.branches.first().cloned() {
                let at = c % (template.branches.len() + 1);
                template.branches.insert(at, first);
            }
            if kind == 9 {
                return vec![ControlMsg::WriteTemplate { slot, template }];
            }
            let blocks = design.crossbar.get(&slot).cloned().unwrap_or_default();
            let slot = c % 32;
            vec![
                ControlMsg::WriteTemplate { slot, template },
                ControlMsg::ConnectCrossbar { slot, blocks },
            ]
        }
        10 => vec![ControlMsg::Drain],
        11 => vec![ControlMsg::Resume],
        // Entry ops on a table the device does not have.
        12 if c.is_multiple_of(2) => vec![ControlMsg::AddEntry {
            table: "ghost".into(),
            entry: TableEntry::exact(vec![b as u128], ActionCall::no_action()),
        }],
        12 => vec![ControlMsg::DelEntry {
            table: "ghost".into(),
            key: vec![KeyMatch::Exact(b as u128)],
        }],
        // Keys of the wrong width or arity on a real table.
        _ => {
            let Some(table) = design.tables.values().nth(b % design.tables.len().max(1)) else {
                return vec![];
            };
            let arity = table.key.len() + c % 2;
            let key = vec![KeyMatch::Exact(u128::MAX >> (c % 64)); arity];
            let action = table
                .actions
                .first()
                .map_or_else(ActionCall::no_action, |a| {
                    ActionCall::new(a, vec![c as u128])
                });
            if c.is_multiple_of(3) {
                vec![ControlMsg::DelEntry {
                    table: table.name.clone(),
                    key,
                }]
            } else {
                vec![ControlMsg::AddEntry {
                    table: table.name.clone(),
                    entry: TableEntry {
                        key,
                        priority: 0,
                        action,
                        counter: 0,
                    },
                }]
            }
        }
    }
}

/// Injects one burst into both twins and checks they agree.
fn assert_twins_agree(
    interp: &mut IpbmSwitch,
    fast: &mut IpbmSwitch,
    gen: &mut TrafficGen,
    what: &str,
) {
    for p in gen.batch(32) {
        interp.inject(p.clone());
        fast.inject(p);
    }
    assert_eq!(interp.run(), fast.run_batch(), "{what}");
    assert_eq!(
        serde_json::to_string(&interp.report()).expect("report serializes"),
        serde_json::to_string(&fast.report()).expect("report serializes"),
        "{what}"
    );
}

/// Every active template of the base design copied, with its crossbar
/// wiring, over the first ingress slot: one stage name now runs in two
/// slots, and the facts derived for the later one must not be applied to
/// the earlier one.
#[test]
fn template_copied_over_an_earlier_slot_stays_exact() {
    let base = &designs()[0];
    let first = base.selector.ingress_slots()[0];
    let mut gen = TrafficGen::new(5).with_flows(16).with_v6_percent(20);
    for (slot, template) in base.programmed().filter(|&(s, _)| s != first) {
        let (mut interp, mut fast) = (populated(), populated());
        let msgs = [
            ControlMsg::WriteTemplate {
                slot: first,
                template: template.clone(),
            },
            ControlMsg::ConnectCrossbar {
                slot: first,
                blocks: base.crossbar.get(&slot).cloned().unwrap_or_default(),
            },
        ];
        interp.device.apply(&msgs).expect("template writes");
        fast.device.apply(&msgs).expect("template writes");
        assert!(
            fast.device
                .pm
                .ensure_compiled(&fast.device.linkage, &fast.device.sm),
            "slot {slot}: the copy compiles"
        );
        assert_twins_agree(
            &mut interp.device,
            &mut fast.device,
            &mut gen,
            &format!("slot {slot} copied over slot {first}"),
        );
    }
}

/// A raw decap action (`RemoveHeader ipv4`, then forward to port 1) run on
/// every hit of the first ingress slot that parses `ipv4`, ahead of a later slot that requires
/// `ipv4` again. Both slots are narrowed to their IPv4 arms, so nothing
/// else walks the parse frontier to its end: after the decap the later
/// `ipv4` parse is no longer a no-op (it extracts past the removed header),
/// and parse elision must keep it, because `ipv4` is in the kill set.
#[test]
fn decap_ahead_of_a_later_ipv4_parse_stays_exact() {
    let base = &designs()[0];
    let needs_v4 = |slot: &usize| {
        base.templates[*slot]
            .as_ref()
            .is_some_and(|t| t.parse_requirements().iter().any(|h| h == "ipv4"))
    };
    let mut v4_slots = base.selector.ingress_slots().into_iter().filter(needs_v4);
    let decap_slot = v4_slots.next().expect("an ingress slot parses ipv4");
    let later = v4_slots.next().expect("a later ingress slot needs ipv4");
    let v4_only = |slot: usize| {
        let mut t = base.templates[slot].clone().expect("programmed");
        t.parse = vec!["ipv4".into()];
        t.branches
            .retain(|b| b.pred.read_headers().iter().all(|h| h == "ipv4"));
        t
    };
    let mut decap = v4_only(decap_slot);
    for (_, call) in &mut decap.executor {
        *call = ActionCall::new("raw_decap", vec![]);
    }
    let msgs = [
        ControlMsg::DefineAction(ActionDef {
            name: "raw_decap".into(),
            params: vec![],
            body: vec![
                Primitive::RemoveHeader {
                    header: "ipv4".into(),
                },
                Primitive::Forward {
                    port: ValueRef::Const(1),
                },
            ],
        }),
        ControlMsg::WriteTemplate {
            slot: decap_slot,
            template: decap,
        },
        ControlMsg::WriteTemplate {
            slot: later,
            template: v4_only(later),
        },
    ];
    let (mut interp, mut fast) = (populated(), populated());
    interp.device.apply(&msgs).expect("decap installs");
    fast.device.apply(&msgs).expect("decap installs");
    assert!(
        fast.device
            .pm
            .ensure_compiled(&fast.device.linkage, &fast.device.sm),
        "the decap design compiles"
    );
    let mut gen = TrafficGen::new(7).with_flows(16).with_v6_percent(0);
    for burst in 0..4 {
        assert_twins_agree(
            &mut interp.device,
            &mut fast.device,
            &mut gen,
            &format!("burst {burst}: decap at slot {decap_slot}, ipv4 again at {later}"),
        );
    }
    let stats = |sw: &IpbmSwitch, slot: usize| sw.pm.slots[slot].stats;
    assert!(stats(&fast.device, decap_slot).hits > 0, "the decap ran");
    assert!(fast.device.pm.stats.emitted > 0, "decapped frames left");
    assert!(
        stats(&interp.device, later).parse_extractions > 0,
        "the later ipv4 parse extracted past the removed header"
    );
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn raw_batches_never_panic_and_keep_run_batch_exact(
        seed in 0u64..1000,
        batches in proptest::collection::vec(
            proptest::collection::vec((0u8..15, 0usize..64, 0usize..256, 0usize..256), 1..4),
            1..6,
        ),
    ) {
        let mut interp = populated();
        let mut fast = populated();
        let mut gen = TrafficGen::new(seed).with_flows(16).with_v6_percent(20);
        for (k, drawn) in batches.iter().enumerate() {
            let msgs: Vec<ControlMsg> = drawn
                .iter()
                .flat_map(|&(kind, a, b, c)| raw_msgs(kind, a, b, c))
                .collect();
            let ri = interp.device.apply(&msgs).map_err(|e| e.to_string());
            let rf = fast.device.apply(&msgs).map_err(|e| e.to_string());
            prop_assert_eq!(ri.map(|r| r.msgs), rf.map(|r| r.msgs), "batch {}", k);

            assert_twins_agree(
                &mut interp.device,
                &mut fast.device,
                &mut gen,
                &format!("batch {k}: {msgs:?}"),
            );
        }
    }
}

fn decode(frame: &[u8]) -> Result<ControlMsg, WireError> {
    decode_frame(frame)
}

/// `msg` decodes back to itself, and its price is its frame's length.
fn round_trips(msg: &ControlMsg) -> Result<(), TestCaseError> {
    let frame = encode_frame(msg);
    prop_assert_eq!(encoded_len(msg), frame.len());
    prop_assert_eq!(msg.payload_bytes(), frame.len());
    prop_assert_eq!(decode(&frame).as_ref(), Ok(msg));
    Ok(())
}

/// Every truncation of `frame`, and every single-bit flip at a bit index
/// that is a multiple of `stride`, gives a message or a typed error; a
/// decoded mutant survives its own round trip.
fn mutants_decode_or_refuse(mut frame: Vec<u8>, stride: usize) {
    for cut in 0..frame.len() {
        assert!(decode(&frame[..cut]).is_err(), "cut at {cut}");
    }
    for bit in (0..frame.len() * 8).step_by(stride) {
        frame[bit / 8] ^= 1 << (bit % 8);
        if let Ok(msg) = decode(&frame) {
            assert_eq!(decode(&encode_frame(&msg)), Ok(msg), "bit {bit}");
        }
        frame[bit / 8] ^= 1 << (bit % 8);
    }
}

/// Each bundled design's install sequence and the design as one
/// `LoadFullDesign` round-trip. Every truncation and bit flip of each
/// install message decodes or is refused; the full-design frame carries
/// the same types, so its flips are sampled: every 13th bit, which hits
/// all eight bit positions spread over the whole frame.
#[test]
fn bundled_designs_cross_the_wire() {
    for design in designs() {
        for msg in full_install_msgs(design) {
            round_trips(&msg).unwrap();
            mutants_decode_or_refuse(encode_frame(&msg), 1);
        }
        let full = ControlMsg::LoadFullDesign(Box::new(design.clone()));
        round_trips(&full).unwrap();
        mutants_decode_or_refuse(encode_frame(&full), 13);
    }
}

proptest! {
    #[test]
    fn raw_batches_cross_the_wire_and_mutants_keep_twins_agreeing(
        seed in 0u64..1000,
        drawn in proptest::collection::vec(
            (0u8..15, 0usize..64, 0usize..256, 0usize..256),
            1..6,
        ),
        flips in proptest::collection::vec(any::<u64>(), 1..8),
    ) {
        let msgs: Vec<ControlMsg> = drawn
            .iter()
            .flat_map(|&(kind, a, b, c)| raw_msgs(kind, a, b, c))
            .collect();
        for msg in &msgs {
            round_trips(msg)?;
        }
        if msgs.is_empty() {
            return Ok(());
        }
        let mut interp = populated();
        let mut fast = populated();
        let mut gen = TrafficGen::new(seed).with_flows(16).with_v6_percent(20);
        for (k, &flip) in flips.iter().enumerate() {
            let mut frame = encode_frame(&msgs[flip as usize % msgs.len()]);
            let bit = (flip >> 32) as usize % (frame.len() * 8);
            frame[bit / 8] ^= 1 << (bit % 8);
            let Ok(mutant) = decode(&frame) else {
                continue;
            };
            let batch = [mutant];
            let ri = interp.device.apply(&batch).map_err(|e| e.to_string());
            let rf = fast.device.apply(&batch).map_err(|e| e.to_string());
            prop_assert_eq!(ri.map(|r| r.msgs), rf.map(|r| r.msgs), "mutant {}", k);
            assert_twins_agree(
                &mut interp.device,
                &mut fast.device,
                &mut gen,
                &format!("mutant {k}: {batch:?}"),
            );
        }
    }
}
