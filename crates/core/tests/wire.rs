//! Properties of the control channel's frame codec (`ipsa_core::wire`).
//!
//! - Round trip: every message a seeded generator draws — every
//!   `ControlMsg` variant, every type a message carries, extreme integers,
//!   empty and multi-byte strings — decodes back to itself, and
//!   `encoded_len` equals the length of the bytes `encode_frame` writes.
//! - Total decode: arbitrary bytes, and every truncation and single-bit
//!   flip of a valid frame, give a message or a `WireError`, never a panic.
//! - Each malformed input is refused with its own error kind at the
//!   offending byte.
//!
//! Messages built from the bundled designs are covered by the raw-control
//! suite, which also applies decoded mutants to twin devices.

use std::collections::BTreeMap;

use ipsa_core::action::{ActionDef, AluOp, Primitive};
use ipsa_core::control::ControlMsg;
use ipsa_core::pipeline_cfg::{SelectorConfig, SlotRole};
use ipsa_core::predicate::{CmpOp, Predicate};
use ipsa_core::table::{ActionCall, KeyField, KeyMatch, MatchKind, TableDef, TableEntry};
use ipsa_core::template::{CompiledDesign, FuncDef, MatcherBranch, TspTemplate};
use ipsa_core::value::{LValueRef, ValueRef};
use ipsa_core::wire::{
    decode_frame, encode_frame, encoded_len, Sink, Wire, WireError, WireErrorKind, MAX_DEPTH,
    VERSION,
};
use ipsa_netpkt::header::{FieldDef, HeaderType, ImplicitParser, ParserTransition};
use ipsa_netpkt::linkage::HeaderLinkage;
use proptest::prelude::*;
use proptest::test_runner::TestCaseError;
use rand::rngs::StdRng;
use rand::{RngCore, RngExt, SeedableRng};

/// Names the generator draws: empty, short, long, and multi-byte UTF-8.
const NAMES: [&str; 8] = [
    "",
    "ipv6",
    "ecmp_ipv4",
    "srh",
    "ünïcødé→✓",
    "a_rather_long_table_name_that_takes_a_two_byte_length_prefix_when_repeated",
    "NoAction",
    "meta.egress_port",
];

/// A seeded generator of arbitrary control messages.
struct Gen(StdRng);

impl Gen {
    fn below(&mut self, n: usize) -> usize {
        self.0.random_range(0..n)
    }

    fn flip(&mut self) -> bool {
        self.below(2) == 0
    }

    /// A `u128` of random bit width, with the edges drawn often.
    fn u128(&mut self) -> u128 {
        match self.below(6) {
            0 => 0,
            1 => u128::MAX,
            2 => self.below(128) as u128,
            _ => {
                let v = u128::from(self.0.next_u64()) << 64 | u128::from(self.0.next_u64());
                v >> self.below(128)
            }
        }
    }

    fn u64(&mut self) -> u64 {
        match self.below(4) {
            0 => 0,
            1 => u64::MAX,
            _ => self.0.next_u64() >> self.below(64),
        }
    }

    fn u32(&mut self) -> u32 {
        self.u64() as u32
    }

    fn usize(&mut self) -> usize {
        self.u64() as usize
    }

    fn i32(&mut self) -> i32 {
        match self.below(4) {
            0 => i32::MIN,
            1 => i32::MAX,
            _ => self.u32() as i32,
        }
    }

    fn name(&mut self) -> String {
        let mut s = NAMES[self.below(NAMES.len())].to_string();
        if self.below(8) == 0 {
            s = s.repeat(3);
        }
        s
    }

    fn vec<T>(&mut self, max: usize, mut f: impl FnMut(&mut Self) -> T) -> Vec<T> {
        let n = self.below(max + 1);
        (0..n).map(|_| f(self)).collect()
    }

    fn opt<T>(&mut self, f: impl FnOnce(&mut Self) -> T) -> Option<T> {
        self.flip().then(|| f(self))
    }

    fn value(&mut self) -> ValueRef {
        match self.below(5) {
            0 => ValueRef::Const(self.u128()),
            1 => ValueRef::field(self.name(), self.name()),
            2 => ValueRef::Meta(self.name()),
            3 => ValueRef::Param(self.usize()),
            _ => ValueRef::EntryCounter,
        }
    }

    fn lvalue(&mut self) -> LValueRef {
        if self.flip() {
            LValueRef::field(self.name(), self.name())
        } else {
            LValueRef::Meta(self.name())
        }
    }

    fn predicate(&mut self, depth: u32) -> Predicate {
        let leaf = depth == 0;
        match self.below(if leaf { 3 } else { 6 }) {
            0 => Predicate::True,
            1 => Predicate::IsValid(self.name()),
            2 => Predicate::Cmp {
                lhs: self.value(),
                op: [
                    CmpOp::Eq,
                    CmpOp::Ne,
                    CmpOp::Lt,
                    CmpOp::Le,
                    CmpOp::Gt,
                    CmpOp::Ge,
                ][self.below(6)],
                rhs: self.value(),
            },
            3 => Predicate::Not(Box::new(self.predicate(depth - 1))),
            4 => Predicate::and(self.predicate(depth - 1), self.predicate(depth - 1)),
            _ => Predicate::Or(
                Box::new(self.predicate(depth - 1)),
                Box::new(self.predicate(depth - 1)),
            ),
        }
    }

    fn primitive(&mut self) -> Primitive {
        match self.below(14) {
            0 => Primitive::Set {
                dst: self.lvalue(),
                src: self.value(),
            },
            1 => Primitive::Alu {
                op: [
                    AluOp::Add,
                    AluOp::Sub,
                    AluOp::And,
                    AluOp::Or,
                    AluOp::Xor,
                    AluOp::Shl,
                    AluOp::Shr,
                ][self.below(7)],
                dst: self.lvalue(),
                a: self.value(),
                b: self.value(),
            },
            2 => Primitive::Hash {
                dst: self.lvalue(),
                inputs: self.vec(3, Self::value),
                modulo: self.u64(),
            },
            3 => Primitive::Forward { port: self.value() },
            4 => Primitive::Drop,
            5 => Primitive::Mark {
                value: self.value(),
            },
            6 => Primitive::MarkIfCounterOver {
                threshold: self.value(),
            },
            7 => Primitive::InsertHeaderAfter {
                after: self.name(),
                header: self.name(),
                fields: self.vec(3, |g| (g.name(), g.value())),
                extra_words: self.vec(3, Self::value),
            },
            8 => Primitive::RemoveHeader {
                header: self.name(),
            },
            9 => Primitive::Srv6Advance,
            10 => Primitive::DecTtlV4,
            11 => Primitive::DecHopLimitV6,
            12 => Primitive::RefreshIpv4Checksum,
            _ => Primitive::NoAction,
        }
    }

    fn call(&mut self) -> ActionCall {
        ActionCall::new(self.name(), self.vec(3, Self::u128))
    }

    fn action(&mut self) -> ActionDef {
        ActionDef {
            name: self.name(),
            params: self.vec(3, |g| (g.name(), g.usize())),
            body: self.vec(4, Self::primitive),
        }
    }

    fn key_match(&mut self) -> KeyMatch {
        match self.below(3) {
            0 => KeyMatch::Exact(self.u128()),
            1 => KeyMatch::Lpm {
                value: self.u128(),
                prefix_len: self.usize(),
            },
            _ => KeyMatch::Ternary {
                value: self.u128(),
                mask: self.u128(),
            },
        }
    }

    fn entry(&mut self) -> TableEntry {
        TableEntry {
            key: self.vec(3, Self::key_match),
            priority: self.i32(),
            action: self.call(),
            counter: self.u64(),
        }
    }

    fn table_def(&mut self) -> TableDef {
        TableDef {
            name: self.name(),
            key: self.vec(3, |g| KeyField {
                source: g.value(),
                bits: g.usize(),
                kind: [
                    MatchKind::Exact,
                    MatchKind::Lpm,
                    MatchKind::Ternary,
                    MatchKind::Hash,
                ][g.below(4)],
            }),
            size: self.usize(),
            actions: self.vec(3, Self::name),
            default_action: self.call(),
            with_counters: self.flip(),
        }
    }

    fn template(&mut self) -> TspTemplate {
        TspTemplate {
            stage_name: self.name(),
            func: self.name(),
            parse: self.vec(3, Self::name),
            branches: self.vec(3, |g| MatcherBranch {
                pred: g.predicate(3),
                table: g.opt(Self::name),
            }),
            executor: self.vec(3, |g| (g.u32(), g.call())),
            default_action: self.call(),
        }
    }

    fn selector(&mut self) -> SelectorConfig {
        SelectorConfig {
            roles: self.vec(8, |g| {
                [SlotRole::Ingress, SlotRole::Egress, SlotRole::Bypass][g.below(3)]
            }),
        }
    }

    fn header(&mut self) -> HeaderType {
        HeaderType {
            name: self.name(),
            fields: self.vec(4, |g| FieldDef::new(g.name(), g.usize())),
            parser: self.opt(|g| ImplicitParser {
                selector_fields: g.vec(2, Self::name),
                transitions: g.vec(3, |g| ParserTransition {
                    tag: g.u128(),
                    next: g.name(),
                }),
            }),
            var_len_field: self.opt(Self::name),
            var_len_units: self.usize(),
        }
    }

    fn blocks(&mut self) -> Vec<usize> {
        self.vec(4, Self::usize)
    }

    fn design(&mut self) -> CompiledDesign {
        let mut linkage = HeaderLinkage::new();
        for ty in self.vec(2, Self::header) {
            linkage.register(ty);
        }
        let first = linkage.iter().next().map(|t| t.name.clone());
        if let Some(first) = first.filter(|_| self.flip()) {
            linkage.set_first(&first).unwrap();
        }
        let slots = self.below(3);
        CompiledDesign {
            name: self.name(),
            linkage,
            metadata: self.vec(3, |g| (g.name(), g.usize())),
            actions: self
                .vec(2, Self::action)
                .into_iter()
                .map(|a| (a.name.clone(), a))
                .collect(),
            tables: self
                .vec(2, Self::table_def)
                .into_iter()
                .map(|t| (t.name.clone(), t))
                .collect(),
            templates: (0..slots).map(|_| self.opt(Self::template)).collect(),
            selector: self.selector(),
            table_alloc: self
                .vec(3, |g| (g.name(), g.blocks()))
                .into_iter()
                .collect::<BTreeMap<_, _>>(),
            crossbar: self
                .vec(3, |g| (g.usize(), g.blocks()))
                .into_iter()
                .collect(),
            funcs: self.vec(2, |g| FuncDef {
                name: g.name(),
                stages: g.vec(3, Self::name),
            }),
        }
    }

    /// Every variant, uniformly.
    fn msg(&mut self) -> ControlMsg {
        match self.below(21) {
            0 => ControlMsg::Drain,
            1 => ControlMsg::Resume,
            2 => ControlMsg::WriteTemplate {
                slot: self.usize(),
                template: self.template(),
            },
            3 => ControlMsg::ClearSlot { slot: self.usize() },
            4 => ControlMsg::SetSelector(self.selector()),
            5 => ControlMsg::ConnectCrossbar {
                slot: self.usize(),
                blocks: self.blocks(),
            },
            6 => ControlMsg::RegisterHeader(self.header()),
            7 => ControlMsg::SetFirstHeader(self.name()),
            8 => ControlMsg::UnregisterHeader(self.name()),
            9 => ControlMsg::LinkHeader {
                pre: self.name(),
                next: self.name(),
                tag: self.u128(),
            },
            10 => ControlMsg::UnlinkHeader {
                pre: self.name(),
                next: self.name(),
            },
            11 => ControlMsg::DefineAction(self.action()),
            12 => ControlMsg::RemoveAction(self.name()),
            13 => ControlMsg::DefineMetadata(self.vec(3, |g| (g.name(), g.usize()))),
            14 => ControlMsg::CreateTable {
                def: self.table_def(),
                blocks: self.blocks(),
            },
            15 => ControlMsg::DestroyTable(self.name()),
            16 => ControlMsg::MigrateTable {
                table: self.name(),
                blocks: self.blocks(),
            },
            17 => ControlMsg::AddEntry {
                table: self.name(),
                entry: self.entry(),
            },
            18 => ControlMsg::DelEntry {
                table: self.name(),
                key: self.vec(3, Self::key_match),
            },
            19 => ControlMsg::SetDefaultAction {
                table: self.name(),
                action: self.call(),
            },
            _ => ControlMsg::LoadFullDesign(Box::new(self.design())),
        }
    }
}

fn decode(bytes: &[u8]) -> Result<ControlMsg, WireError> {
    decode_frame(bytes)
}

fn err(offset: usize, kind: WireErrorKind) -> Result<ControlMsg, WireError> {
    Err(WireError { offset, kind })
}

/// A decoded message survives its own round trip.
fn check_decoded(bytes: &[u8]) -> Result<(), TestCaseError> {
    if let Ok(msg) = decode(bytes) {
        prop_assert_eq!(decode(&encode_frame(&msg)), Ok(msg));
    }
    Ok(())
}

/// Round trip, length, and every truncation and single-bit flip of the
/// frame decoding to a message or a typed error. A cut frame never
/// decodes.
fn check_frame(msg: &ControlMsg) -> Result<(), TestCaseError> {
    let frame = encode_frame(msg);
    prop_assert_eq!(encoded_len(msg), frame.len());
    prop_assert_eq!(msg.payload_bytes(), frame.len());
    prop_assert_eq!(decode(&frame).as_ref(), Ok(msg));
    for cut in 0..frame.len() {
        prop_assert!(decode(&frame[..cut]).is_err(), "cut at {}", cut);
    }
    let mut mutant = frame.clone();
    for bit in 0..frame.len() * 8 {
        mutant[bit / 8] ^= 1 << (bit % 8);
        check_decoded(&mutant)?;
        mutant[bit / 8] ^= 1 << (bit % 8);
    }
    Ok(())
}

proptest! {
    #[test]
    fn every_message_round_trips_and_survives_mutation(seed in any::<u64>()) {
        let mut g = Gen(StdRng::seed_from_u64(seed));
        check_frame(&g.msg())?;
    }

    #[test]
    fn arbitrary_bytes_decode_or_error(seed in any::<u64>(), len in 0usize..96) {
        let mut rng = StdRng::seed_from_u64(seed);
        let mut bytes: Vec<u8> = (0..len).map(|_| rng.next_u64() as u8).collect();
        // Half the time, a plausible header: the version and a payload
        // length that matches, so the payload decoder itself is exercised.
        if len >= 2 && rng.random_range(0u8..2) == 0 {
            bytes[0] = VERSION;
            bytes[1] = (len - 2).min(127) as u8;
            bytes.truncate(2 + usize::from(bytes[1]));
        }
        check_decoded(&bytes)?;
    }
}

#[test]
fn every_variant_is_drawn() {
    let mut g = Gen(StdRng::seed_from_u64(7));
    let mut tags = std::collections::BTreeSet::new();
    for _ in 0..2_000 {
        let mut payload = Vec::new();
        g.msg().encode(&mut payload);
        tags.insert(payload[0]);
    }
    assert_eq!(tags.len(), 21, "every ControlMsg tag: {tags:?}");
}

#[test]
fn malformed_frames_name_the_offending_byte() {
    let link = ControlMsg::LinkHeader {
        pre: "ipv6".into(),
        next: "srh".into(),
        tag: 43,
    };
    let frame = encode_frame(&link);
    // [VERSION, 11, 9, 4, i, p, v, 6, 3, s, r, h, 43]
    assert_eq!(frame.len(), 13);

    assert_eq!(decode(&[]), err(0, WireErrorKind::Truncated));
    assert_eq!(decode(&[VERSION]), err(1, WireErrorKind::Truncated));
    assert_eq!(decode(&[2, 0]), err(0, WireErrorKind::UnknownVersion(2)));
    assert_eq!(
        decode(&frame[..10]),
        err(
            1,
            WireErrorKind::LengthPastEnd {
                len: 11,
                remaining: 8
            }
        )
    );

    let mut trailing = frame.clone();
    trailing.push(0);
    assert_eq!(
        decode(&trailing),
        err(13, WireErrorKind::TrailingBytes { extra: 1 })
    );

    // A payload shorter than its declared length.
    let drain = [VERSION, 2, 0, 0];
    assert_eq!(
        decode(&drain),
        err(3, WireErrorKind::TrailingBytes { extra: 1 })
    );

    let unknown = [VERSION, 1, 21];
    assert_eq!(
        decode(&unknown),
        err(
            2,
            WireErrorKind::UnknownTag {
                ty: "ControlMsg",
                tag: 21
            }
        )
    );

    // "ipv6" → 0xff in place of 'i'.
    let mut utf8 = frame.clone();
    utf8[4] = 0xff;
    assert_eq!(decode(&utf8), err(4, WireErrorKind::InvalidUtf8));

    // A string length past the frame's end.
    let mut long = frame.clone();
    long[3] = 40;
    assert_eq!(
        decode(&long),
        err(
            3,
            WireErrorKind::LengthPastEnd {
                len: 40,
                remaining: 9
            }
        )
    );

    // The tag as a non-minimal varint (43 then an empty group).
    let mut overlong = frame.clone();
    overlong[1] = 12;
    overlong[12] = 43 | 0x80;
    overlong.push(0);
    assert_eq!(decode(&overlong), err(12, WireErrorKind::OverlongVarint));

    // A slot beyond usize (on any target): a u128 varint.
    let mut slot = vec![VERSION, 0, 3];
    slot.extend([0xff; 18]);
    slot.push(0x03);
    slot[1] = (slot.len() - 2) as u8;
    assert_eq!(decode(&slot), err(3, WireErrorKind::IntOutOfRange));

    // An Option tag of 2 inside a header type.
    let header = ControlMsg::RegisterHeader(HeaderType::new("h", vec![]));
    let mut bad_opt = encode_frame(&header);
    // [VERSION, len, 6, 1, h, 0 (fields), 0 (parser), 0 (var_len_field), 0]
    bad_opt[6] = 2;
    assert_eq!(
        decode(&bad_opt),
        err(
            6,
            WireErrorKind::UnknownTag {
                ty: "Option",
                tag: 2
            }
        )
    );
}

#[test]
fn counts_cannot_outgrow_the_input() {
    // DefineMetadata claiming 2^60 fields in a 12-byte frame: refused at
    // the count, before any allocation.
    let mut frame = vec![VERSION, 0, 13];
    let mut count = Vec::new();
    count.put_varint(1u128 << 60);
    frame.extend(&count);
    frame[1] = (frame.len() - 2) as u8;
    assert_eq!(
        decode(&frame),
        err(
            3,
            WireErrorKind::LengthPastEnd {
                len: 1 << 60,
                remaining: 0
            }
        )
    );
}

#[test]
fn predicate_nesting_is_bounded() {
    let nested = |depth: u32| {
        let mut p = Predicate::True;
        for _ in 0..depth {
            p = Predicate::Not(Box::new(p));
        }
        ControlMsg::WriteTemplate {
            slot: 0,
            template: TspTemplate {
                branches: vec![MatcherBranch {
                    pred: p,
                    table: None,
                }],
                ..TspTemplate::passthrough("s")
            },
        }
    };
    let ok = nested(MAX_DEPTH - 1);
    assert_eq!(decode(&encode_frame(&ok)), Ok(ok));
    let deep = encode_frame(&nested(MAX_DEPTH));
    assert!(matches!(
        decode(&deep),
        Err(WireError {
            kind: WireErrorKind::TooDeep,
            ..
        })
    ));
    // A frame of nothing but `Not` tags: refused at the bound, not by
    // exhausting the stack.
    let mut hostile = vec![VERSION];
    // WriteTemplate, slot 0, empty name/func/parse, one branch, then Nots.
    let mut payload = vec![2u8, 0, 0, 0, 0, 1];
    payload.extend(std::iter::repeat_n(2u8, 100_000));
    hostile.put_varint(payload.len() as u128);
    hostile.extend(payload);
    assert!(matches!(
        decode(&hostile),
        Err(WireError {
            kind: WireErrorKind::TooDeep,
            ..
        })
    ));
}

#[test]
fn first_header_must_be_registered() {
    let mut g = HeaderLinkage::new();
    g.register(HeaderType::new("eth", vec![FieldDef::new("x", 8)]));
    g.set_first("eth").unwrap();
    let mut design = CompiledDesign::empty("d", 2);
    design.linkage = g;
    let msg = ControlMsg::LoadFullDesign(Box::new(design));
    let mut frame = encode_frame(&msg);
    assert_eq!(decode(&frame).as_ref(), Ok(&msg));
    // Rename the first header ("eth" → "ETH"): decodes up to the check.
    let at = frame
        .windows(4)
        .rposition(|w| w == [3, b'e', b't', b'h'])
        .unwrap();
    frame[at + 1..at + 4].copy_from_slice(b"ETH");
    assert_eq!(
        decode(&frame),
        err(at - 1, WireErrorKind::UnknownFirstHeader("ETH".into()))
    );
}
