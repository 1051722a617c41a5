//! # ipsa-core — the In-situ Programmable Switch Architecture, as data
//!
//! Core abstractions shared by the rP4 compilers (`rp4c`), the IPSA
//! behavioral model (`ipbm`), and the PISA baseline (`pisa-bm`):
//!
//! - [`template`]: TSP templates — the downloadable stage programs — and
//!   [`template::CompiledDesign`], the full device configuration.
//! - [`predicate`] / [`action`] / [`value`]: the template "instruction set":
//!   predicates guarding tables, and the action-primitive VM.
//! - [`table`]: exact / LPM / ternary / selector match-action tables.
//! - [`memory`]: the disaggregated memory pool of w×d blocks; tables
//!   serialize into blocks so migration and recycling are real.
//! - [`crossbar`]: full and clustered TSP↔memory interconnects.
//! - [`pipeline_cfg`]: the elastic-pipeline selector.
//! - [`control`]: the controller↔device message protocol and the
//!   [`control::Device`] trait.
//! - [`wire`]: the control channel's binary frame codec; messages are
//!   priced by their frame length.
//! - [`timing`]: the deterministic load-time cost model behind Table 1.

#![warn(missing_docs)]

pub mod action;
pub mod control;
pub mod crossbar;
pub mod error;
pub mod facts;
pub mod hash;
pub mod intern;
mod lpm;
pub mod memory;
pub mod pipeline_cfg;
pub mod predicate;
pub mod table;
pub mod template;
pub mod timing;
pub mod value;
pub mod wire;

pub use action::{ActionDef, ActionOutcome, AluOp, Primitive};
pub use control::{ApplyReport, ControlMsg, Device};
pub use crossbar::{Crossbar, CrossbarKind};
pub use error::CoreError;
pub use facts::{ProgramFacts, SlotFacts};
pub use intern::Interner;
pub use memory::{BlockKind, MemoryPool, TableBlockMap};
pub use pipeline_cfg::{SelectorConfig, SlotRole};
pub use predicate::{CmpOp, Predicate};
pub use table::{
    ActionCall, Hit, HitLite, KeyField, KeyMatch, MatchKind, Table, TableDef, TableEntry,
};
pub use template::{CompiledDesign, FuncDef, MatcherBranch, TspTemplate};
pub use timing::CostModel;
pub use value::{EvalCtx, LValueRef, ValueRef};

#[cfg(test)]
mod proptests {
    use crate::memory::{
        blocks_needed, deserialize_entry, serialize_entry, BlockKind, MemoryPool, TableBlockMap,
    };
    use crate::table::{ActionCall, KeyField, KeyMatch, MatchKind, Table, TableDef, TableEntry};
    use crate::value::ValueRef;
    use proptest::prelude::*;

    fn lpm_def(size: usize) -> TableDef {
        TableDef {
            name: "fib".into(),
            key: vec![KeyField {
                source: ValueRef::field("ipv4", "dst_addr"),
                bits: 32,
                kind: MatchKind::Lpm,
            }],
            size,
            actions: vec!["nh".into()],
            default_action: ActionCall::no_action(),
            with_counters: false,
        }
    }

    /// Brute-force LPM reference: longest matching prefix wins.
    fn brute_force_lpm(entries: &[(u32, usize, u128)], addr: u32) -> Option<u128> {
        entries
            .iter()
            .filter(|(v, l, _)| {
                let mask = if *l == 0 { 0 } else { u32::MAX << (32 - l) };
                addr & mask == *v & mask
            })
            .max_by_key(|(_, l, _)| *l)
            .map(|(_, _, nh)| *nh)
    }

    proptest! {
        /// LPM table equals the brute-force reference for arbitrary route
        /// sets and probe addresses.
        #[test]
        fn lpm_matches_brute_force(
            routes in proptest::collection::vec((any::<u32>(), 0usize..=32), 1..24),
            probes in proptest::collection::vec(any::<u32>(), 1..16),
        ) {
            // Canonicalize: one nexthop per (prefix, len); mask values.
            let mut seen = std::collections::HashSet::new();
            let mut entries = Vec::new();
            for (i, (v, l)) in routes.into_iter().enumerate() {
                let mask = if l == 0 { 0u32 } else { u32::MAX << (32 - l) };
                let v = v & mask;
                if seen.insert((v, l)) {
                    entries.push((v, l, i as u128 + 1));
                }
            }
            let mut t = Table::new(lpm_def(64)).unwrap();
            for (v, l, nh) in &entries {
                t.insert(TableEntry {
                    key: vec![KeyMatch::Lpm { value: *v as u128, prefix_len: *l }],
                    priority: 0,
                    action: ActionCall::new("nh", vec![*nh]),
                    counter: 0,
                }).unwrap();
            }
            use ipsa_netpkt::builder::{ipv4_udp_packet, Ipv4UdpSpec};
            let linkage = ipsa_netpkt::HeaderLinkage::standard();
            for addr in probes {
                let mut p = ipv4_udp_packet(&Ipv4UdpSpec { dst_ip: addr, ..Default::default() });
                p.ensure_parsed(&linkage, "ipv4").unwrap();
                let ctx = crate::value::EvalCtx::bare(&linkage);
                let got = t.lookup(&p, &ctx).unwrap().map(|h| h.action.args[0]);
                prop_assert_eq!(got, brute_force_lpm(&entries, addr), "addr {:#x}", addr);
            }
        }

        /// Entry serialization roundtrips through block storage for random
        /// keys/args.
        #[test]
        fn entry_block_roundtrip(
            value in any::<u32>(),
            plen in 0usize..=32,
            nh in any::<u64>(),
            row in 0usize..3000,
        ) {
            let def = lpm_def(3000);
            let mask = if plen == 0 { 0u32 } else { u32::MAX << (32 - plen) };
            let entry = TableEntry {
                key: vec![KeyMatch::Lpm { value: (value & mask) as u128, prefix_len: plen }],
                priority: 0,
                action: ActionCall::new("nh", vec![nh as u128]),
                counter: 0,
            };
            let width = def.entry_width_bits(64);
            let bytes = serialize_entry(&def, &[64], 1, &entry).unwrap();
            let mut pool = MemoryPool::new(16, 0);
            let need = blocks_needed(BlockKind::Sram.geometry(), width, def.size);
            let ids = pool.allocate("fib", BlockKind::Sram, need).unwrap();
            let map = TableBlockMap::new("fib", width, def.size, BlockKind::Sram, ids).unwrap();
            map.write_row(&mut pool, row, &bytes).unwrap();
            let back = map.read_row(&pool, row).unwrap();
            let (tag, key, args) = deserialize_entry(&def, &|_| vec![64], &back).unwrap();
            prop_assert_eq!(tag, 1);
            prop_assert_eq!(key, entry.key);
            prop_assert_eq!(args, vec![nh as u128]);
        }

        /// The packing formula lower-bounds any valid allocation and is
        /// monotone in both dimensions.
        #[test]
        fn blocks_needed_properties(w in 1usize..400, d in 1usize..8192) {
            let g = BlockKind::Sram.geometry();
            let n = blocks_needed(g, w, d);
            prop_assert!(n >= 1);
            prop_assert!(blocks_needed(g, w + 1, d) >= n);
            prop_assert!(blocks_needed(g, w, d + 1) >= n);
            // Capacity check: allocated cells fit the table.
            let cols = n / d.div_ceil(g.depth).max(1);
            prop_assert!(cols * g.width_bits >= w);
        }

        /// Ternary lookup respects priority regardless of insertion order.
        #[test]
        fn ternary_priority_insertion_order_independent(order in any::<bool>()) {
            let def = TableDef {
                name: "acl".into(),
                key: vec![KeyField {
                    source: ValueRef::field("ipv4", "dst_addr"),
                    bits: 32,
                    kind: MatchKind::Ternary,
                }],
                size: 8,
                actions: vec!["a".into(), "b".into()],
                default_action: ActionCall::no_action(),
                with_counters: false,
            };
            // Distinct keys (identical keys would trigger replace
            // semantics); both match the default packet's dst address.
            let hi = TableEntry {
                key: vec![KeyMatch::Ternary { value: 0, mask: 0 }],
                priority: 10,
                action: ActionCall::new("a", vec![]),
                counter: 0,
            };
            let lo = TableEntry {
                key: vec![KeyMatch::Ternary {
                    value: 0x0a00_0002,
                    mask: 0xFFFF_FFFF,
                }],
                priority: 1,
                action: ActionCall::new("b", vec![]),
                counter: 0,
            };
            let mut t = Table::new(def).unwrap();
            if order {
                t.insert(hi.clone()).unwrap();
                t.insert(lo.clone()).unwrap();
            } else {
                t.insert(lo).unwrap();
                t.insert(hi).unwrap();
            }
            use ipsa_netpkt::builder::{ipv4_udp_packet, Ipv4UdpSpec};
            let linkage = ipsa_netpkt::HeaderLinkage::standard();
            let mut p = ipv4_udp_packet(&Ipv4UdpSpec::default());
            p.ensure_parsed(&linkage, "ipv4").unwrap();
            let ctx = crate::value::EvalCtx::bare(&linkage);
            let hit = t.lookup(&p, &ctx).unwrap().unwrap();
            prop_assert_eq!(hit.action.action, "a");
        }
    }
}
