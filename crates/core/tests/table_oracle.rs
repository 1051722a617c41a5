//! Differential suite pinning the table layer's indexed lookup/delete
//! paths (exact, LPM — single-field and the FIB's `{exact, lpm}` shape —
//! and ternary) against a naive full-scan oracle, under interleaved
//! insert/delete churn.
//!
//! The acceleration indices (`exact_idx`, the LPM trie with its twin
//! chains, the live-count, the freed-row heap) are pure
//! performance structure: this suite is the proof that none of them change
//! observable semantics. Key sets are drawn from small domains so churn
//! constantly collides — replacements, re-inserted deleted keys, and
//! non-canonical LPM twins (same masked prefix, different don't-care bits)
//! all occur.

use ipsa_core::error::CoreError;
use ipsa_core::table::{ActionCall, KeyField, KeyMatch, MatchKind, Table, TableDef, TableEntry};
use ipsa_core::value::ValueRef;
use proptest::prelude::*;
use proptest::test_runner::TestCaseError;

/// One churn-stream operation.
#[derive(Debug, Clone)]
enum Op {
    Insert { v: u32, p: usize },
    Delete { v: u32, p: usize },
    Lookup { v: u32 },
}

// Small domains force collisions: 4 base prefixes × 4 low-bit variants
// (the low bits are don't-care under short prefixes → LPM twins).
fn val() -> impl Strategy<Value = u32> {
    (0u32..4, 0u32..4).prop_map(|(hi, lo)| (hi << 24) | lo)
}

fn plen() -> impl Strategy<Value = usize> {
    (0usize..5).prop_map(|i| [0usize, 8, 16, 24, 32][i])
}

fn op_strategy() -> impl Strategy<Value = Op> {
    // Inserts listed three times, deletes twice: a 3:2:2 mix keeps the
    // table populated so lookups mostly exercise non-empty state.
    let ins = || (val(), plen()).prop_map(|(v, p)| Op::Insert { v, p });
    let del = || (val(), plen()).prop_map(|(v, p)| Op::Delete { v, p });
    let get = || val().prop_map(|v| Op::Lookup { v });
    prop_oneof![ins(), ins(), ins(), del(), del(), get(), get()]
}

/// Naive reference model: a flat entry list, scanned per operation.
struct Oracle {
    entries: Vec<TableEntry>,
    size: usize,
}

impl Oracle {
    fn insert(&mut self, e: TableEntry) -> Result<(), ()> {
        if let Some(i) = self.entries.iter().position(|x| x.key == e.key) {
            self.entries[i] = e;
            Ok(())
        } else if self.entries.len() >= self.size {
            Err(())
        } else {
            self.entries.push(e);
            Ok(())
        }
    }

    fn delete(&mut self, key: &[KeyMatch]) -> Result<(), ()> {
        match self.entries.iter().position(|x| x.key == key) {
            Some(i) => {
                self.entries.remove(i);
                Ok(())
            }
            None => Err(()),
        }
    }

    /// Longest prefix length any entry matches `v` at, if any.
    fn lpm_best(&self, v: u32) -> Option<usize> {
        self.entries
            .iter()
            .filter_map(|e| match e.key[0] {
                KeyMatch::Lpm { value, prefix_len } => {
                    let matched =
                        prefix_len == 0 || (u64::from(value as u32 ^ v) >> (32 - prefix_len)) == 0;
                    matched.then_some(prefix_len)
                }
                _ => None,
            })
            .max()
    }
}

fn lpm_def(size: usize) -> TableDef {
    TableDef {
        name: "fib".into(),
        key: vec![KeyField {
            source: ValueRef::field("ipv4", "dst_addr"),
            bits: 32,
            kind: MatchKind::Lpm,
        }],
        size,
        actions: vec!["act".into()],
        default_action: ActionCall::no_action(),
        with_counters: false,
    }
}

fn lpm_entry(v: u32, p: usize, seq: u128) -> TableEntry {
    TableEntry {
        key: vec![KeyMatch::Lpm {
            value: v as u128,
            prefix_len: p,
        }],
        priority: 0,
        action: ActionCall::new("act", vec![seq]),
        counter: 0,
    }
}

/// One churn-stream operation on a two-field `{exact, lpm}` table, drawn
/// as domain indices that each [`FibShape`] maps to its own field values.
#[derive(Debug, Clone)]
enum FibOp {
    Insert {
        x: u128,
        v: (u32, u32, u32),
        p: usize,
    },
    Delete {
        x: u128,
        v: (u32, u32, u32),
        p: usize,
    },
    Lookup {
        x: u128,
        v: (u32, u32, u32),
    },
}

fn fib_op_strategy() -> impl Strategy<Value = FibOp> {
    // VRF in {1, 2}; the value is (high, middle, low) bit-group indices so
    // each shape spreads them across its own width, and the low group sits
    // under every prefix but the full-width one (twins).
    let x = || 1u128..3;
    let v = || (0u32..4, 0u32..2, 0u32..4);
    let ins = move || (x(), v(), 0usize..5).prop_map(|(x, v, p)| FibOp::Insert { x, v, p });
    let del = move || (x(), v(), 0usize..5).prop_map(|(x, v, p)| FibOp::Delete { x, v, p });
    let get = move || (x(), v()).prop_map(|(x, v)| FibOp::Lookup { x, v });
    prop_oneof![ins(), ins(), ins(), del(), del(), get(), get()]
}

/// A FIB key shape: exact-field width, LPM-field width, where the LPM
/// field sits, how a value index spreads over the LPM width, and the five
/// prefix lengths a prefix index picks from.
struct FibShape {
    exact_bits: usize,
    lpm_bits: usize,
    lpm_first: bool,
    value: fn((u32, u32, u32)) -> u128,
    plens: [usize; 5],
}

impl FibShape {
    fn def(&self, size: usize) -> TableDef {
        let exact = KeyField {
            source: ValueRef::Meta("vrf".into()),
            bits: self.exact_bits,
            kind: MatchKind::Exact,
        };
        let lpm = KeyField {
            source: ValueRef::field("ipv6", "dst_addr"),
            bits: self.lpm_bits,
            kind: MatchKind::Lpm,
        };
        TableDef {
            name: "fib".into(),
            key: if self.lpm_first {
                vec![lpm, exact]
            } else {
                vec![exact, lpm]
            },
            size,
            actions: vec!["act".into()],
            default_action: ActionCall::no_action(),
            with_counters: false,
        }
    }

    fn key(&self, x: u128, v: u128, p: usize) -> Vec<KeyMatch> {
        let lpm = KeyMatch::Lpm {
            value: v,
            prefix_len: p,
        };
        if self.lpm_first {
            vec![lpm, KeyMatch::Exact(x)]
        } else {
            vec![KeyMatch::Exact(x), lpm]
        }
    }

    fn vals(&self, x: u128, v: u128) -> [u128; 2] {
        if self.lpm_first {
            [v, x]
        } else {
            [x, v]
        }
    }

    /// Prefix length of `key` if it covers the lookup `(x, v)`.
    fn covers(&self, key: &[KeyMatch], x: u128, v: u128) -> Option<usize> {
        let (lpm, exact) = if self.lpm_first {
            (&key[0], &key[1])
        } else {
            (&key[1], &key[0])
        };
        match (lpm, exact) {
            (KeyMatch::Lpm { value, prefix_len }, KeyMatch::Exact(e)) if *e == x => {
                let p = *prefix_len;
                (p == 0 || (value ^ v) >> (self.lpm_bits - p) == 0).then_some(p)
            }
            _ => None,
        }
    }

    /// Runs one churn stream against the full-scan oracle.
    fn check(&self, ops: &[FibOp]) -> Result<(), TestCaseError> {
        let mut t = Table::new(self.def(12)).unwrap();
        let mut o = Oracle {
            entries: Vec::new(),
            size: 12,
        };
        let mut probe = Vec::new();
        for (seq, op) in ops.iter().enumerate() {
            match *op {
                FibOp::Insert { x, v, p } => {
                    let e = TableEntry {
                        key: self.key(x, (self.value)(v), self.plens[p]),
                        priority: 0,
                        action: ActionCall::new("act", vec![seq as u128]),
                        counter: 0,
                    };
                    match (t.insert(e.clone()), o.insert(e)) {
                        (Ok(_), Ok(())) | (Err(CoreError::TableFull { .. }), Err(())) => {}
                        (got, want) => {
                            prop_assert!(false, "insert: table {got:?}, oracle {want:?}");
                        }
                    }
                }
                FibOp::Delete { x, v, p } => {
                    let key = self.key(x, (self.value)(v), self.plens[p]);
                    prop_assert_eq!(t.delete(&key).is_ok(), o.delete(&key).is_ok());
                }
                FibOp::Lookup { x, v } => {
                    let v = (self.value)(v);
                    t.begin_lookup();
                    let got = t
                        .match_prepared(Some(&self.vals(x, v)), &mut probe)
                        .map(|h| h.row);
                    let best = o
                        .entries
                        .iter()
                        .filter_map(|e| self.covers(&e.key, x, v))
                        .max();
                    match (got, best) {
                        (None, None) => {}
                        (Some(row), Some(best)) => {
                            let hit = self.covers(&t.row(row).unwrap().key, x, v);
                            prop_assert_eq!(hit, Some(best), "hit at wrong prefix length");
                            // Twin tie-break: the lowest live row at the best
                            // length answers.
                            let lowest = t
                                .iter()
                                .filter(|(_, e)| self.covers(&e.key, x, v) == Some(best))
                                .map(|(r, _)| r)
                                .min();
                            prop_assert_eq!(Some(row), lowest, "twin tie-break");
                        }
                        (got, want) => prop_assert!(
                            false,
                            "hit/miss divergence: table {got:?}, oracle best {want:?}"
                        ),
                    }
                }
            }
            prop_assert_eq!(t.len(), o.entries.len(), "live count diverged");
        }
        Ok(())
    }
}

/// An exact key's values for a value index: each field of `bits` holds
/// the index's high group in its top byte and its low group at the bottom
/// (so a single 32-bit field holds the index itself).
fn exact_vals(bits: &[usize], v: u32) -> Vec<u128> {
    let (hi, lo) = ((v >> 24) as u128, (v & 0xFF) as u128);
    bits.iter().map(|&b| (hi << (b - 8)) | lo).collect()
}

/// Runs one exact-match churn stream over a key of `bits` against the
/// full-scan oracle.
fn check_exact(bits: &[usize], ops: &[Op]) -> Result<(), TestCaseError> {
    let def = TableDef {
        name: "nexthop".into(),
        key: bits
            .iter()
            .enumerate()
            .map(|(i, &bits)| KeyField {
                source: ValueRef::Meta(format!("k{i}")),
                bits,
                kind: MatchKind::Exact,
            })
            .collect(),
        size: 8,
        actions: vec!["act".into()],
        default_action: ActionCall::no_action(),
        with_counters: false,
    };
    let mut t = Table::new(def).unwrap();
    let mut o = Oracle {
        entries: Vec::new(),
        size: 8,
    };
    let mut probe = Vec::new();
    let key = |v: u32| -> Vec<KeyMatch> {
        exact_vals(bits, v)
            .into_iter()
            .map(KeyMatch::Exact)
            .collect()
    };
    let exact = |v: u32, seq: u128| TableEntry {
        key: key(v),
        priority: 0,
        action: ActionCall::new("act", vec![seq]),
        counter: 0,
    };
    for (seq, op) in ops.iter().enumerate() {
        match *op {
            Op::Insert { v, .. } => {
                let r = t.insert(exact(v, seq as u128));
                let e = o.insert(exact(v, seq as u128));
                prop_assert_eq!(r.is_ok(), e.is_ok());
            }
            Op::Delete { v, .. } => {
                let key = key(v);
                prop_assert_eq!(t.delete(&key).is_ok(), o.delete(&key).is_ok());
            }
            Op::Lookup { v } => {
                t.begin_lookup();
                let a = t
                    .match_prepared(Some(&exact_vals(bits, v)), &mut probe)
                    .map(|h| h.row);
                let got = a.map(|row| t.row(row).unwrap().action.args.clone());
                let want = o
                    .entries
                    .iter()
                    .find(|e| e.key == key(v))
                    .map(|e| e.action.args.clone());
                prop_assert_eq!(got, want, "key bits {:?}", bits);
            }
        }
        prop_assert_eq!(t.len(), o.entries.len());
    }
    Ok(())
}

proptest! {
    /// The FIB's real key shape, `{ vrf: exact; dst: lpm; }`, under churn
    /// with twins: IPv4-shaped with the LPM field last and first, and a
    /// `16 + 128`-bit IPv6 shape with prefixes at 0/16/64/127/128. Insert
    /// and delete codes, the live count and the hit's prefix length agree
    /// with the full-scan oracle, and among same-length twins the lowest
    /// live row answers.
    #[test]
    fn multi_field_lpm_matches_oracle_under_churn(
        ops in proptest::collection::vec(fib_op_strategy(), 1..150),
    ) {
        let v4 = |(hi, mid, lo): (u32, u32, u32)| u128::from((hi << 24) | (mid << 12) | lo);
        for lpm_first in [false, true] {
            FibShape {
                exact_bits: 16,
                lpm_bits: 32,
                lpm_first,
                value: v4,
                plens: [0, 8, 16, 24, 32],
            }
            .check(&ops)?;
        }
        FibShape {
            exact_bits: 16,
            lpm_bits: 128,
            lpm_first: false,
            value: |(hi, mid, lo)| {
                (u128::from(hi) << 120) | (u128::from(mid) << 80) | u128::from(lo)
            },
            plens: [0, 16, 64, 127, 128],
        }
        .check(&ops)?;
    }

    /// LPM under churn: insert/delete success codes, the live count, and
    /// every lookup agree with the full-scan oracle. A hit is compared by
    /// matched prefix length; which same-prefix twin answers is pinned by
    /// `multi_field_lpm_matches_oracle_under_churn`.
    #[test]
    fn lpm_matches_oracle_under_churn(ops in proptest::collection::vec(op_strategy(), 1..150)) {
        let mut t = Table::new(lpm_def(12)).unwrap();
        let mut o = Oracle { entries: Vec::new(), size: 12 };
        let mut probe = Vec::new();
        for (seq, op) in ops.into_iter().enumerate() {
            match op {
                Op::Insert { v, p } => {
                    let r = t.insert(lpm_entry(v, p, seq as u128));
                    let e = o.insert(lpm_entry(v, p, seq as u128));
                    match r {
                        Ok(_) => prop_assert!(e.is_ok()),
                        Err(CoreError::TableFull { .. }) => prop_assert!(e.is_err()),
                        Err(other) => prop_assert!(false, "unexpected insert error {other}"),
                    }
                }
                Op::Delete { v, p } => {
                    let key = [KeyMatch::Lpm { value: v as u128, prefix_len: p }];
                    let r = t.delete(&key);
                    let e = o.delete(&key);
                    prop_assert_eq!(r.is_ok(), e.is_ok());
                }
                Op::Lookup { v } => {
                    t.begin_lookup();
                    let a = t.match_prepared(Some(&[v as u128]), &mut probe).map(|h| h.row);
                    match (a, o.lpm_best(v)) {
                        (None, None) => {}
                        (Some(row), Some(best)) => {
                            let hit = t.row(row).unwrap();
                            let KeyMatch::Lpm { value, prefix_len } = hit.key[0] else {
                                prop_assert!(false, "non-LPM key in LPM table");
                                unreachable!()
                            };
                            prop_assert_eq!(prefix_len, best, "hit at wrong prefix length");
                            prop_assert!(
                                prefix_len == 0
                                    || (u64::from(value as u32 ^ v) >> (32 - prefix_len)) == 0,
                                "hit entry does not cover the lookup value"
                            );
                        }
                        (got, want) => prop_assert!(
                            false,
                            "hit/miss divergence: table {got:?}, oracle best {want:?}"
                        ),
                    }
                }
            }
            prop_assert_eq!(t.len(), o.entries.len(), "live count diverged");
            prop_assert_eq!(t.is_empty(), o.entries.is_empty());
        }
    }

    /// Exact-match under churn: everything is deterministic, so hits are
    /// compared by the stored action arguments, and the indexed probe must
    /// agree with the oracle exactly. Run on a single 32-bit field, on
    /// `dmac`'s `{16, 48}`-bit key and on `ipv6_host`'s `{16, 128}`-bit key,
    /// so the index hashes multi-field keys and keys wider than 128 bits.
    #[test]
    fn exact_matches_oracle_under_churn(ops in proptest::collection::vec(op_strategy(), 1..150)) {
        for bits in [&[32][..], &[16, 48], &[16, 128]] {
            check_exact(bits, &ops)?;
        }
    }

    /// Ternary under churn: priorities are made unique (the op sequence
    /// number), so the winning entry is fully determined and hits compare
    /// by action arguments.
    #[test]
    fn ternary_matches_oracle_under_churn(ops in proptest::collection::vec(op_strategy(), 1..120)) {
        let def = TableDef {
            name: "acl".into(),
            key: vec![KeyField {
                source: ValueRef::field("ipv4", "dst_addr"),
                bits: 32,
                kind: MatchKind::Ternary,
            }],
            size: 10,
            actions: vec!["act".into()],
            default_action: ActionCall::no_action(),
            with_counters: false,
        };
        let mut t = Table::new(def).unwrap();
        let mut o = Oracle { entries: Vec::new(), size: 10 };
        let mut probe = Vec::new();
        // Reuse the LPM op stream: a prefix length becomes a mask.
        let mask_of = |p: usize| -> u32 {
            if p == 0 { 0 } else { (!0u32) << (32 - p) }
        };
        let tern = |v: u32, p: usize, seq: usize| TableEntry {
            key: vec![KeyMatch::Ternary {
                value: (v & mask_of(p)) as u128,
                mask: mask_of(p) as u128,
            }],
            priority: seq as i32,
            action: ActionCall::new("act", vec![seq as u128]),
            counter: 0,
        };
        for (seq, op) in ops.into_iter().enumerate() {
            match op {
                Op::Insert { v, p } => {
                    let r = t.insert(tern(v, p, seq));
                    let e = o.insert(tern(v, p, seq));
                    prop_assert_eq!(r.is_ok(), e.is_ok());
                }
                Op::Delete { v, p } => {
                    // Delete by the key shape only (priority is not part of
                    // the key), so target whatever entry holds this key.
                    let key = [KeyMatch::Ternary {
                        value: (v & mask_of(p)) as u128,
                        mask: mask_of(p) as u128,
                    }];
                    prop_assert_eq!(t.delete(&key).is_ok(), o.delete(&key).is_ok());
                }
                Op::Lookup { v } => {
                    t.begin_lookup();
                    let a = t.match_prepared(Some(&[v as u128]), &mut probe).map(|h| h.row);
                    let got = a.map(|row| t.row(row).unwrap().action.args.clone());
                    let want = o
                        .entries
                        .iter()
                        .filter(|e| match e.key[0] {
                            KeyMatch::Ternary { value, mask } => {
                                (v as u128) & mask == value
                            }
                            _ => false,
                        })
                        .max_by_key(|e| e.priority)
                        .map(|e| e.action.args.clone());
                    prop_assert_eq!(got, want);
                }
            }
            prop_assert_eq!(t.len(), o.entries.len());
        }
    }
}
