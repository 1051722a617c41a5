//! Match-action tables: definitions, entries, and lookup semantics.
//!
//! Supports the four match kinds the use cases need: `exact` (hash lookup),
//! `lpm` (FIB longest-prefix match), `ternary` (TCAM with priorities), and
//! `hash` (ECMP-style selector — the key is hashed to pick one of the
//! installed members, "similar with P4's selector" per Fig. 5(a)).
//!
//! The [`Table`] struct is the *software index*; the authoritative entry
//! storage lives in the disaggregated memory pool (see [`crate::memory`]),
//! which the storage module keeps in sync. Exact tables index by a hash of
//! the full key; LPM tables by one bitmap multibit trie over the whole key,
//! exact fields included (see `lpm.rs`); ternary tables keep a priority
//! order and selectors a member list. The exact and LPM indices are a pure
//! function of the live rows.

use std::cmp::Reverse;
use std::collections::{BinaryHeap, HashMap};

use ipsa_netpkt::bitfield::width_mask;
use ipsa_netpkt::packet::Packet;
use serde::{Deserialize, Serialize};

use crate::error::CoreError;
use crate::hash::hash_values;
use crate::lpm::LpmTrie;
use crate::value::{EvalCtx, ValueRef};

/// How a key field matches.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum MatchKind {
    /// Exact value match.
    Exact,
    /// Longest-prefix match.
    Lpm,
    /// Value/mask with priority (TCAM).
    Ternary,
    /// Selector: field participates in the ECMP hash.
    Hash,
}

/// One field of a table key.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct KeyField {
    /// Where the field value comes from at lookup time.
    pub source: ValueRef,
    /// Field width in bits.
    pub bits: usize,
    /// Match kind.
    pub kind: MatchKind,
}

/// An action invocation: name plus immediate arguments.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct ActionCall {
    /// Action name.
    pub action: String,
    /// Argument values (bound to the action's parameters).
    pub args: Vec<u128>,
}

impl ActionCall {
    /// `NoAction` with no arguments.
    pub fn no_action() -> Self {
        ActionCall {
            action: "NoAction".into(),
            args: vec![],
        }
    }

    /// Convenience constructor.
    pub fn new(action: impl Into<String>, args: Vec<u128>) -> Self {
        ActionCall {
            action: action.into(),
            args,
        }
    }
}

/// Table definition (the schema; entries are runtime state).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct TableDef {
    /// Table name, unique within a design.
    pub name: String,
    /// Key fields in order.
    pub key: Vec<KeyField>,
    /// Capacity in entries.
    pub size: usize,
    /// Actions this table may invoke; an entry's executor switch-tag is
    /// `1 + index` of its action in this list.
    pub actions: Vec<String>,
    /// Action applied on miss (tag 0).
    pub default_action: ActionCall,
    /// Whether entries keep per-entry packet counters (C3 probe).
    pub with_counters: bool,
}

impl TableDef {
    /// True if any key field is ternary (table must live in TCAM).
    pub fn is_ternary(&self) -> bool {
        self.key.iter().any(|k| k.kind == MatchKind::Ternary)
    }

    /// True if the table is a hash selector (all key fields `hash`).
    pub fn is_selector(&self) -> bool {
        !self.key.is_empty() && self.key.iter().all(|k| k.kind == MatchKind::Hash)
    }

    /// Total key width in bits.
    pub fn key_bits(&self) -> usize {
        self.key.iter().fold(0, |sum, k| sum.saturating_add(k.bits))
    }

    /// Width of one stored entry in bits: key (doubled for ternary
    /// value+mask; +8 prefix-length bits for LPM), an 8-bit action tag, and
    /// `data_bits` of action data. Saturating: widths arrive off the
    /// control channel unchecked, and an impossible width must fail the
    /// block check, not overflow.
    pub fn entry_width_bits(&self, data_bits: usize) -> usize {
        let key = if self.is_ternary() {
            self.key_bits().saturating_mul(2)
        } else if self.key.iter().any(|k| k.kind == MatchKind::Lpm) {
            self.key_bits().saturating_add(8)
        } else {
            self.key_bits()
        };
        key.saturating_add(8).saturating_add(data_bits)
    }

    /// Position-derived executor switch tag for an action name (`1 + index`),
    /// or `None` if the action is not offered by this table.
    pub fn action_tag(&self, action: &str) -> Option<u32> {
        self.actions
            .iter()
            .position(|a| a == action)
            .map(|i| (i + 1) as u32)
    }
}

/// One key field of an installed entry.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub enum KeyMatch {
    /// Exact value.
    Exact(u128),
    /// Prefix of length `prefix_len` over the field's most-significant bits.
    Lpm {
        /// Prefix value (already aligned to the field width).
        value: u128,
        /// Prefix length in bits.
        prefix_len: usize,
    },
    /// Value under mask.
    Ternary {
        /// Match value.
        value: u128,
        /// Care mask (1 bits are compared).
        mask: u128,
    },
}

/// An installed table entry.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct TableEntry {
    /// Key, one [`KeyMatch`] per [`TableDef::key`] field. Selector tables
    /// use `Exact` member indices here (the key is only hashed).
    pub key: Vec<KeyMatch>,
    /// Priority for ternary tables (higher wins).
    pub priority: i32,
    /// Action to run on hit.
    pub action: ActionCall,
    /// Packet counter (meaningful when the table keeps counters).
    pub counter: u64,
}

impl TableEntry {
    /// Entry with an all-exact key and zero priority.
    pub fn exact(key: Vec<u128>, action: ActionCall) -> Self {
        TableEntry {
            key: key.into_iter().map(KeyMatch::Exact).collect(),
            priority: 0,
            action,
            counter: 0,
        }
    }
}

/// Result of a successful lookup.
#[derive(Debug, Clone, PartialEq)]
pub struct Hit {
    /// Row (stable entry slot) that matched.
    pub row: usize,
    /// Executor switch tag (`1 + action index`).
    pub tag: u32,
    /// The matched entry's action call.
    pub action: ActionCall,
    /// Counter value *after* increment, when the table keeps counters.
    pub counter: Option<u64>,
}

/// Compact hit for the compiled fast path: the matched row, its executor
/// tag, and the post-increment counter. No [`ActionCall`] clone — the
/// caller reads the action data from the row in place.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct HitLite {
    /// Row (stable entry slot) that matched.
    pub row: usize,
    /// Executor switch tag of the row's action (`1 + action index`, 0 for
    /// the table's default action).
    pub tag: u32,
    /// Counter value *after* increment, when the table keeps counters.
    pub counter: Option<u64>,
}

#[derive(Debug, Clone)]
enum IndexMode {
    Exact,
    Lpm(Box<LpmTrie>),
    Ternary,
    Selector,
}

/// The exact pre-image of one entry operation on a [`Table`], taken by
/// [`Table::checkpoint_row`] and replayed by [`Table::restore_row`]: the
/// row the key touches (its displaced content, counter included), the row
/// slab's length, the free-row heap, the live count, and the row's
/// position in the ternary/selector order. The exact and LPM indices need
/// nothing: they are a function of the live rows. Apart from a displaced
/// entry it holds no heap data: a journal keeps one per entry operation,
/// and per-operation allocations living until the batch ends would scatter
/// the entries a bulk load installs across the heap.
#[derive(Debug, Clone)]
pub struct RowCheckpoint {
    row: usize,
    prev: Option<TableEntry>,
    rows_len: usize,
    live: usize,
    /// Position of `row` in `tern_order` / `members`.
    order_pos: Option<usize>,
}

impl RowCheckpoint {
    /// The row the checkpointed operation writes.
    pub fn row(&self) -> usize {
        self.row
    }
}

/// A runtime table: definition, entries in stable rows, and a software
/// acceleration index.
#[derive(Debug, Clone)]
pub struct Table {
    /// The schema.
    pub def: TableDef,
    rows: Vec<Option<TableEntry>>,
    /// What a hit needs of each row, resolved when the row is written and
    /// kept dense beside `rows`: `(executor tag, args len)` here, the args
    /// at `hit_args[row * arg_stride..]`. A hit reads them instead of
    /// resolving the action name and chasing the entry's own heap `args`
    /// (scattered across the heap at FIB scale). The tag depends only on
    /// `def.actions`, which entry operations never change. Stale for freed
    /// rows.
    hit_tags: Vec<(u32, u32)>,
    hit_args: Vec<u128>,
    arg_stride: usize,
    /// Which index the table keeps; LPM tables hold their trie here.
    mode: IndexMode,
    /// Exact tables: full key -> row.
    exact_idx: HashMap<Vec<u128>, usize>,
    /// Ternary tables: rows sorted by (priority desc, row asc).
    tern_order: Vec<usize>,
    /// Selector tables: live rows in insertion order.
    members: Vec<usize>,
    /// Live-entry count, maintained incrementally so `len()` is O(1) —
    /// re-scanning `rows` per insert made bulk loads O(n²).
    live: usize,
    /// Freed row slots, min-first so the lowest free row is always reused
    /// (the same slot `position(|r| r.is_none())` used to find by scanning).
    free_rows: BinaryHeap<Reverse<usize>>,
    /// Lookup counters (observability; also feeds the throughput model).
    pub lookups: u64,
    /// Hits among `lookups`.
    pub hits: u64,
}

impl Table {
    /// Creates an empty table for a definition.
    pub fn new(def: TableDef) -> Result<Self, CoreError> {
        let mode = if def.is_selector() {
            IndexMode::Selector
        } else if def.is_ternary() {
            IndexMode::Ternary
        } else {
            let lpm_fields: Vec<usize> = def
                .key
                .iter()
                .enumerate()
                .filter(|(_, k)| k.kind == MatchKind::Lpm)
                .map(|(i, _)| i)
                .collect();
            match lpm_fields.len() {
                0 => IndexMode::Exact,
                1 => {
                    let widths: Vec<usize> = def.key.iter().map(|k| k.bits).collect();
                    IndexMode::Lpm(Box::new(LpmTrie::new(&widths, lpm_fields[0])))
                }
                n => {
                    return Err(CoreError::Config(format!(
                        "table `{}` has {n} LPM fields; at most 1 supported",
                        def.name
                    )))
                }
            }
        };
        if def.key.is_empty() {
            return Err(CoreError::Config(format!(
                "table `{}` has an empty key",
                def.name
            )));
        }
        Ok(Table {
            def,
            rows: Vec::new(),
            hit_tags: Vec::new(),
            hit_args: Vec::new(),
            arg_stride: 0,
            mode,
            exact_idx: HashMap::new(),
            tern_order: Vec::new(),
            members: Vec::new(),
            live: 0,
            free_rows: BinaryHeap::new(),
            lookups: 0,
            hits: 0,
        })
    }

    /// Number of live entries. O(1) — maintained incrementally, never by
    /// re-scanning the row slab.
    pub fn len(&self) -> usize {
        self.live
    }

    /// True when the table has no entries (O(1), via the live count).
    pub fn is_empty(&self) -> bool {
        self.live == 0
    }

    /// Read access to a row.
    pub fn row(&self, row: usize) -> Option<&TableEntry> {
        self.rows.get(row).and_then(|r| r.as_ref())
    }

    /// Number of row slots (live or freed) — the bound a per-row array
    /// such as a shard's counter baseline must cover.
    pub fn rows_len(&self) -> usize {
        self.rows.len()
    }

    /// Iterates live `(row, entry)` pairs.
    pub fn iter(&self) -> impl Iterator<Item = (usize, &TableEntry)> {
        self.rows
            .iter()
            .enumerate()
            .filter_map(|(i, r)| r.as_ref().map(|e| (i, e)))
    }

    /// Adds `delta` to a live row's packet counter. This is the fold half
    /// of shard-local counter accumulation: each shard counts hits against
    /// its own table clone and the deltas are merged back here at epoch
    /// barriers. A freed row absorbs nothing (its counter died with it).
    pub fn add_row_counter(&mut self, row: usize, delta: u64) {
        if let Some(Some(e)) = self.rows.get_mut(row) {
            e.counter += delta;
        }
    }

    fn validate_key(&self, entry: &TableEntry) -> Result<(), CoreError> {
        if entry.key.len() != self.def.key.len() {
            return Err(CoreError::KeyMismatch {
                table: self.def.name.clone(),
                detail: format!(
                    "entry has {} key fields, table wants {}",
                    entry.key.len(),
                    self.def.key.len()
                ),
            });
        }
        for (i, (km, kf)) in entry.key.iter().zip(&self.def.key).enumerate() {
            let err = |detail: String| CoreError::KeyMismatch {
                table: self.def.name.clone(),
                detail,
            };
            let mask = width_mask(kf.bits);
            match (km, kf.kind) {
                (KeyMatch::Exact(v), MatchKind::Exact | MatchKind::Hash) => {
                    if *v & !mask != 0 {
                        return Err(err(format!("field {i}: value exceeds {} bits", kf.bits)));
                    }
                }
                (KeyMatch::Lpm { value, prefix_len }, MatchKind::Lpm) => {
                    if *prefix_len > kf.bits {
                        return Err(err(format!(
                            "field {i}: prefix_len {prefix_len} > width {}",
                            kf.bits
                        )));
                    }
                    if *value & !mask != 0 {
                        return Err(err(format!("field {i}: value exceeds {} bits", kf.bits)));
                    }
                }
                (KeyMatch::Ternary { value, mask: m }, MatchKind::Ternary) => {
                    if *value & !mask != 0 || *m & !mask != 0 {
                        return Err(err(format!(
                            "field {i}: value/mask exceeds {} bits",
                            kf.bits
                        )));
                    }
                    if *value & !*m != 0 {
                        return Err(err(format!("field {i}: value has bits outside mask")));
                    }
                }
                (got, want) => {
                    return Err(err(format!(
                        "field {i}: {got:?} incompatible with {want:?}"
                    )));
                }
            }
        }
        if !self.def.actions.contains(&entry.action.action)
            && entry.action.action != self.def.default_action.action
        {
            return Err(CoreError::UnknownAction(format!(
                "{} (not offered by table `{}`)",
                entry.action.action, self.def.name
            )));
        }
        Ok(())
    }

    /// Per-field values of an entry key (LPM/ternary fields contribute
    /// their raw value; masking is applied by the index-key builders).
    fn key_values(key: &[KeyMatch]) -> Vec<u128> {
        key.iter()
            .map(|k| match k {
                KeyMatch::Exact(v) => *v,
                KeyMatch::Lpm { value, .. } => *value,
                KeyMatch::Ternary { value, .. } => *value,
            })
            .collect()
    }

    /// Row whose installed key equals `key` exactly, routed through the
    /// acceleration index (exact/LPM) instead of a full-slab scan — the
    /// scan made bulk loads and `delete` at FIB scale O(n) per operation.
    /// Ternary and selector tables keep the scan (priority TCAMs are
    /// small by construction).
    fn find_row_by_key(&self, key: &[KeyMatch]) -> Option<usize> {
        if key.len() != self.def.key.len() {
            return None;
        }
        let key_eq = |row: usize| self.rows[row].as_ref().is_some_and(|e| e.key == key);
        match &self.mode {
            IndexMode::Exact => {
                // In exact mode every installed key is a vector of `Exact`
                // values, so an index hit still needs the variant check:
                // a query holding the same values under an `Lpm`/`Ternary`
                // variant must miss, as it always has.
                let row = self.exact_idx.get(&Self::key_values(key)).copied()?;
                key_eq(row).then_some(row)
            }
            // The slot holds the key's twins too: same prefix, other
            // don't-care bits.
            IndexMode::Lpm(trie) => trie.slot_rows(key).find(|&r| key_eq(r)),
            IndexMode::Ternary | IndexMode::Selector => {
                self.iter().find(|(_, e)| e.key == key).map(|(r, _)| r)
            }
        }
    }

    /// Row an identical key currently occupies (for replace semantics).
    fn existing_row(&self, entry: &TableEntry) -> Option<usize> {
        self.find_row_by_key(&entry.key)
    }

    /// Inserts (or replaces) an entry. Returns its row.
    pub fn insert(&mut self, mut entry: TableEntry) -> Result<usize, CoreError> {
        self.validate_key(&entry)?;
        entry.counter = 0;
        if let Some(row) = self.existing_row(&entry) {
            // An identical key keeps its exact/LPM slot; only the priority
            // order and the member list depend on more than the key.
            let reorder = matches!(self.mode, IndexMode::Ternary | IndexMode::Selector);
            if reorder {
                self.remove_row_from_index(row);
            }
            self.place(row, entry);
            if reorder {
                self.add_row_to_index(row);
            }
            return Ok(row);
        }
        if self.live >= self.def.size {
            return Err(CoreError::TableFull {
                table: self.def.name.clone(),
                capacity: self.def.size,
            });
        }
        let row = self.free_rows.pop().map_or(self.rows.len(), |r| r.0);
        self.place(row, entry);
        self.live += 1;
        self.add_row_to_index(row);
        Ok(row)
    }

    /// Writes `entry` into `row` (a slot, or the next one) and its hit data
    /// beside it.
    fn place(&mut self, row: usize, entry: TableEntry) {
        let args = &entry.action.args;
        if args.len() > self.arg_stride {
            // Widen every row's args slot (rare: the first entry of a
            // wider action).
            let (old, stride) = (std::mem::take(&mut self.hit_args), self.arg_stride);
            self.hit_args = vec![0; self.hit_tags.len() * args.len()];
            for (r, &(_, n)) in self.hit_tags.iter().enumerate() {
                let n = n as usize;
                self.hit_args[r * args.len()..][..n].copy_from_slice(&old[r * stride..][..n]);
            }
            self.arg_stride = args.len();
        }
        if row == self.hit_tags.len() {
            self.hit_tags.push((0, 0));
            self.hit_args
                .resize(self.hit_tags.len() * self.arg_stride, 0);
        }
        let tag = self.def.action_tag(&entry.action.action).unwrap_or(0);
        self.hit_tags[row] = (tag, args.len() as u32);
        self.hit_args[row * self.arg_stride..][..args.len()].copy_from_slice(args);
        if row == self.rows.len() {
            self.rows.push(Some(entry));
        } else {
            self.rows[row] = Some(entry);
        }
    }

    /// A live row's action data as a hit reads it: the same values as
    /// `row(row).action.args`, from the dense copy beside the index.
    pub fn row_args(&self, row: usize) -> &[u128] {
        match self.hit_tags.get(row) {
            Some(&(_, n)) => &self.hit_args[row * self.arg_stride..][..n as usize],
            None => &[],
        }
    }

    /// Deletes the entry with exactly this key. Returns its former row.
    /// Routed through the acceleration index, so FIB-scale `table_del`
    /// stays O(1) instead of scanning every row.
    pub fn delete(&mut self, key: &[KeyMatch]) -> Result<usize, CoreError> {
        let row = self
            .find_row_by_key(key)
            .ok_or_else(|| CoreError::NoSuchEntry(self.def.name.clone()))?;
        self.remove_row_from_index(row);
        self.rows[row] = None;
        self.live -= 1;
        self.free_rows.push(Reverse(row));
        Ok(row)
    }

    /// Removes all entries.
    pub fn clear(&mut self) {
        self.rows.clear();
        self.hit_tags.clear();
        self.hit_args.clear();
        self.exact_idx.clear();
        if let IndexMode::Lpm(trie) = &mut self.mode {
            trie.clear();
        }
        self.tern_order.clear();
        self.members.clear();
        self.live = 0;
        self.free_rows.clear();
    }

    fn add_row_to_index(&mut self, row: usize) {
        let key = &self.rows[row].as_ref().expect("row just set").key;
        match &mut self.mode {
            IndexMode::Exact => {
                self.exact_idx.insert(Self::key_values(key), row);
            }
            IndexMode::Lpm(trie) => trie.insert(key, row),
            IndexMode::Ternary => {
                self.tern_order.push(row);
                let rows = &self.rows;
                self.tern_order.sort_by_key(|&r| {
                    let p = rows[r].as_ref().map_or(i32::MIN, |e| e.priority);
                    (std::cmp::Reverse(p), r)
                });
            }
            IndexMode::Selector => {
                self.members.push(row);
            }
        }
    }

    fn remove_row_from_index(&mut self, row: usize) {
        let Some(e) = self.rows.get(row).and_then(Option::as_ref) else {
            return;
        };
        match &mut self.mode {
            IndexMode::Exact => {
                self.exact_idx.remove(&Self::key_values(&e.key));
            }
            IndexMode::Lpm(trie) => trie.remove(&e.key, row),
            IndexMode::Ternary => self.tern_order.retain(|&r| r != row),
            IndexMode::Selector => self.members.retain(|&r| r != row),
        }
    }

    /// Checkpoints everything an [`Table::insert`] or [`Table::delete`] of
    /// `key` can change, in O(1) of the table size (ternary and selector
    /// order scans aside): the row the key occupies — or, for a fresh
    /// insert, the row it will take — and the bookkeeping around it.
    /// [`Table::restore_row`] replays the checkpoint exactly, whether the
    /// operation succeeded, failed, or never ran.
    pub fn checkpoint_row(&self, key: &[KeyMatch]) -> RowCheckpoint {
        let row = self
            .find_row_by_key(key)
            .or_else(|| self.free_rows.peek().map(|r| r.0))
            .unwrap_or(self.rows.len());
        let order = match self.mode {
            IndexMode::Ternary => &self.tern_order[..],
            IndexMode::Selector => &self.members[..],
            IndexMode::Exact | IndexMode::Lpm(_) => &[],
        };
        RowCheckpoint {
            row,
            prev: self.rows.get(row).cloned().flatten(),
            rows_len: self.rows.len(),
            live: self.live,
            order_pos: order.iter().position(|&r| r == row),
        }
    }

    /// Rewinds the entry operation `cp` was taken before. Checkpoints of
    /// several operations must be restored newest first: each one assumes
    /// the table is exactly as its operation left it.
    pub fn restore_row(&mut self, cp: RowCheckpoint) {
        let RowCheckpoint {
            row,
            prev,
            rows_len,
            live,
            order_pos,
        } = cp;
        // The exact and LPM indices follow the live rows: un-index what the
        // row holds now, re-index what it held.
        let keyed = matches!(self.mode, IndexMode::Exact | IndexMode::Lpm(_));
        if keyed {
            self.remove_row_from_index(row);
        }
        let reindex = keyed && prev.is_some();
        let free_now = self.rows.get(row).is_some_and(Option::is_none);
        let free_before = row < rows_len && prev.is_none();
        match prev {
            Some(e) => self.place(row, e),
            None if row < rows_len => self.rows[row] = None,
            None => {}
        }
        self.rows.truncate(rows_len);
        self.hit_tags.truncate(rows_len);
        self.hit_args.truncate(rows_len * self.arg_stride);
        match (free_before, free_now) {
            (true, false) => self.free_rows.push(Reverse(row)),
            (false, true) => self.free_rows.retain(|&Reverse(r)| r != row),
            _ => {}
        }
        self.live = live;
        if reindex {
            self.add_row_to_index(row);
        }
        let order = match self.mode {
            IndexMode::Ternary => &mut self.tern_order,
            IndexMode::Selector => &mut self.members,
            IndexMode::Exact | IndexMode::Lpm(_) => return,
        };
        if let Some(i) = order.iter().position(|&r| r == row) {
            order.remove(i);
        }
        if let Some(i) = order_pos {
            order.insert(i, row);
        }
    }

    /// Reads the lookup key field values from a packet. `None` when any
    /// field's source header is absent (the table does not apply).
    pub fn read_key(
        &self,
        pkt: &Packet,
        ctx: &EvalCtx<'_>,
    ) -> Result<Option<Vec<u128>>, CoreError> {
        let mut vals = Vec::with_capacity(self.def.key.len());
        for k in &self.def.key {
            match k.source.read(pkt, ctx)? {
                Some(v) => vals.push(v & width_mask(k.bits)),
                None => return Ok(None),
            }
        }
        Ok(Some(vals))
    }

    /// Counts the start of a lookup. Split out so callers that read the key
    /// themselves (the compiled fast path) account work in exactly the same
    /// order as [`Table::lookup`]: the attempt counts even if reading a key
    /// source later fails.
    #[inline]
    pub fn begin_lookup(&mut self) {
        self.lookups += 1;
    }

    /// Matches already-read key values (one per key field, in declaration
    /// order), incrementing the hit counters the same way [`Table::lookup`]
    /// does. `vals` is `None` when a key source header was absent
    /// (guaranteed miss). No match allocates. An LPM hit is the lowest
    /// live row at the longest matching prefix. `probe` is unused: the
    /// LPM walk needs no buffer. It stays for callers that still pass one.
    ///
    /// The caller must have called [`Table::begin_lookup`] first.
    pub fn match_prepared(
        &mut self,
        vals: Option<&[u128]>,
        _probe: &mut Vec<u128>,
    ) -> Option<HitLite> {
        let vals = vals?;
        let row = match &self.mode {
            IndexMode::Exact => self.exact_idx.get(vals).copied(),
            IndexMode::Lpm(trie) => trie.lookup(vals),
            IndexMode::Ternary => self.tern_order.iter().copied().find(|&r| {
                let e = self.rows[r].as_ref().expect("indexed row live");
                e.key.iter().zip(vals).all(|(km, &v)| match km {
                    KeyMatch::Exact(x) => *x == v,
                    KeyMatch::Ternary { value, mask } => v & *mask == *value,
                    KeyMatch::Lpm { .. } => false,
                })
            }),
            IndexMode::Selector => {
                if self.members.is_empty() {
                    None
                } else {
                    let h = hash_values(vals);
                    Some(self.members[(h % self.members.len() as u64) as usize])
                }
            }
        }?;
        Some(self.finish_hit(row))
    }

    /// Hit bookkeeping shared by every match path: the hit counter, and the
    /// per-entry packet counter when the table keeps them.
    fn finish_hit(&mut self, row: usize) -> HitLite {
        self.hits += 1;
        debug_assert!(self.rows[row].is_some(), "indexed row live");
        let counter = if self.def.with_counters {
            let entry = self.rows[row].as_mut().expect("row live");
            entry.counter += 1;
            Some(entry.counter)
        } else {
            None
        };
        HitLite {
            row,
            tag: self.hit_tags[row].0,
            counter,
        }
    }

    /// Performs a lookup, incrementing the matched entry's counter when the
    /// table keeps counters. `Ok(None)` is a miss (run the default action).
    pub fn lookup(&mut self, pkt: &Packet, ctx: &EvalCtx<'_>) -> Result<Option<Hit>, CoreError> {
        self.begin_lookup();
        // A single-field key is read onto the stack: no key vector.
        let (one, many);
        let vals = match &self.def.key[..] {
            [k] => {
                one = k.source.read(pkt, ctx)?.map(|v| v & width_mask(k.bits));
                one.as_ref().map(std::slice::from_ref)
            }
            _ => {
                many = self.read_key(pkt, ctx)?;
                many.as_deref()
            }
        };
        let Some(lite) = self.match_prepared(vals, &mut Vec::new()) else {
            return Ok(None);
        };
        let entry = self.rows[lite.row].as_ref().expect("row live");
        Ok(Some(Hit {
            row: lite.row,
            tag: lite.tag,
            action: entry.action.clone(),
            counter: lite.counter,
        }))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ipsa_netpkt::builder::{self, Ipv4UdpSpec};
    use ipsa_netpkt::linkage::HeaderLinkage;

    fn pkt(dst: u32, sport: u16) -> (HeaderLinkage, Packet) {
        let linkage = HeaderLinkage::standard();
        let mut p = builder::ipv4_udp_packet(&Ipv4UdpSpec {
            dst_ip: dst,
            src_port: sport,
            ..Ipv4UdpSpec::default()
        });
        p.ensure_parsed(&linkage, "udp").unwrap();
        (linkage, p)
    }

    fn exact_def() -> TableDef {
        TableDef {
            name: "nexthop".into(),
            key: vec![KeyField {
                source: ValueRef::Meta("nexthop".into()),
                bits: 16,
                kind: MatchKind::Exact,
            }],
            size: 4,
            actions: vec!["set_bd_dmac".into()],
            default_action: ActionCall::no_action(),
            with_counters: false,
        }
    }

    #[test]
    fn exact_hit_and_miss() {
        let (linkage, mut p) = pkt(1, 1);
        let mut t = Table::new(exact_def()).unwrap();
        t.insert(TableEntry::exact(
            vec![7],
            ActionCall::new("set_bd_dmac", vec![1, 2]),
        ))
        .unwrap();
        let ctx = EvalCtx::bare(&linkage);
        p.meta.set("nexthop", 7);
        let hit = t.lookup(&p, &ctx).unwrap().unwrap();
        assert_eq!(hit.tag, 1);
        assert_eq!(hit.action.args, vec![1, 2]);
        p.meta.set("nexthop", 8);
        assert!(t.lookup(&p, &ctx).unwrap().is_none());
        assert_eq!(t.lookups, 2);
        assert_eq!(t.hits, 1);
    }

    #[test]
    fn capacity_enforced_and_replace_allowed() {
        let mut t = Table::new(TableDef {
            size: 2,
            ..exact_def()
        })
        .unwrap();
        t.insert(TableEntry::exact(vec![1], ActionCall::no_action()))
            .unwrap();
        t.insert(TableEntry::exact(vec![2], ActionCall::no_action()))
            .unwrap();
        assert!(matches!(
            t.insert(TableEntry::exact(vec![3], ActionCall::no_action())),
            Err(CoreError::TableFull { .. })
        ));
        // Same-key insert replaces rather than filling a new slot.
        let row = t
            .insert(TableEntry::exact(
                vec![2],
                ActionCall::new("set_bd_dmac", vec![9]),
            ))
            .unwrap();
        assert_eq!(t.row(row).unwrap().action.args, vec![9]);
        assert_eq!(t.len(), 2);
    }

    #[test]
    fn delete_then_row_reused() {
        let mut t = Table::new(TableDef {
            size: 2,
            ..exact_def()
        })
        .unwrap();
        let r1 = t
            .insert(TableEntry::exact(vec![1], ActionCall::no_action()))
            .unwrap();
        t.insert(TableEntry::exact(vec![2], ActionCall::no_action()))
            .unwrap();
        t.delete(&[KeyMatch::Exact(1)]).unwrap();
        assert!(matches!(
            t.delete(&[KeyMatch::Exact(1)]),
            Err(CoreError::NoSuchEntry(_))
        ));
        let r3 = t
            .insert(TableEntry::exact(vec![3], ActionCall::no_action()))
            .unwrap();
        assert_eq!(r1, r3, "freed row must be reused");
    }

    fn lpm_def() -> TableDef {
        TableDef {
            name: "ipv4_lpm".into(),
            key: vec![KeyField {
                source: ValueRef::field("ipv4", "dst_addr"),
                bits: 32,
                kind: MatchKind::Lpm,
            }],
            size: 16,
            actions: vec!["set_nexthop".into()],
            default_action: ActionCall::no_action(),
            with_counters: false,
        }
    }

    fn lpm_entry(value: u128, plen: usize, nh: u128) -> TableEntry {
        TableEntry {
            key: vec![KeyMatch::Lpm {
                value,
                prefix_len: plen,
            }],
            priority: 0,
            action: ActionCall::new("set_nexthop", vec![nh]),
            counter: 0,
        }
    }

    #[test]
    fn lpm_longest_prefix_wins() {
        let mut t = Table::new(lpm_def()).unwrap();
        t.insert(lpm_entry(0x0a00_0000, 8, 1)).unwrap(); // 10/8
        t.insert(lpm_entry(0x0a01_0000, 16, 2)).unwrap(); // 10.1/16
        t.insert(lpm_entry(0x0a01_0200, 24, 3)).unwrap(); // 10.1.2/24
        t.insert(lpm_entry(0, 0, 9)).unwrap(); // default route

        let cases = [
            (0x0a01_0203u32, 3u128), // matches /24
            (0x0a01_0503, 2),        // matches /16
            (0x0a05_0503, 1),        // matches /8
            (0x0b00_0001, 9),        // default
        ];
        for (dst, want) in cases {
            let (linkage, p) = pkt(dst, 1);
            let ctx = EvalCtx::bare(&linkage);
            let hit = t.lookup(&p, &ctx).unwrap().unwrap();
            assert_eq!(hit.action.args, vec![want], "dst {dst:#x}");
        }
    }

    #[test]
    fn lpm_delete_restores_shorter_prefix() {
        let mut t = Table::new(lpm_def()).unwrap();
        t.insert(lpm_entry(0x0a00_0000, 8, 1)).unwrap();
        t.insert(lpm_entry(0x0a01_0000, 16, 2)).unwrap();
        let (linkage, p) = pkt(0x0a01_0001, 1);
        let ctx = EvalCtx::bare(&linkage);
        assert_eq!(t.lookup(&p, &ctx).unwrap().unwrap().action.args, vec![2]);
        t.delete(&[KeyMatch::Lpm {
            value: 0x0a01_0000,
            prefix_len: 16,
        }])
        .unwrap();
        assert_eq!(t.lookup(&p, &ctx).unwrap().unwrap().action.args, vec![1]);
    }

    fn ternary_def() -> TableDef {
        TableDef {
            name: "acl".into(),
            key: vec![
                KeyField {
                    source: ValueRef::field("ipv4", "dst_addr"),
                    bits: 32,
                    kind: MatchKind::Ternary,
                },
                KeyField {
                    source: ValueRef::field("udp", "dst_port"),
                    bits: 16,
                    kind: MatchKind::Ternary,
                },
            ],
            size: 8,
            actions: vec!["permit".into(), "deny".into()],
            default_action: ActionCall::no_action(),
            with_counters: false,
        }
    }

    #[test]
    fn ternary_priority_order() {
        let mut t = Table::new(ternary_def()).unwrap();
        // Low priority: match any dst, port 53 -> permit.
        t.insert(TableEntry {
            key: vec![
                KeyMatch::Ternary { value: 0, mask: 0 },
                KeyMatch::Ternary {
                    value: 53,
                    mask: 0xFFFF,
                },
            ],
            priority: 1,
            action: ActionCall::new("permit", vec![]),
            counter: 0,
        })
        .unwrap();
        // High priority: 10.0.0.2 any port -> deny.
        t.insert(TableEntry {
            key: vec![
                KeyMatch::Ternary {
                    value: 0x0a00_0002,
                    mask: 0xFFFF_FFFF,
                },
                KeyMatch::Ternary { value: 0, mask: 0 },
            ],
            priority: 10,
            action: ActionCall::new("deny", vec![]),
            counter: 0,
        })
        .unwrap();
        let (linkage, p) = pkt(0x0a00_0002, 1);
        let ctx = EvalCtx::bare(&linkage);
        let hit = t.lookup(&p, &ctx).unwrap().unwrap();
        assert_eq!(hit.action.action, "deny");
        assert_eq!(hit.tag, 2);
    }

    fn selector_def() -> TableDef {
        TableDef {
            name: "ecmp_ipv4".into(),
            key: vec![
                KeyField {
                    source: ValueRef::Meta("nexthop".into()),
                    bits: 16,
                    kind: MatchKind::Hash,
                },
                KeyField {
                    source: ValueRef::field("udp", "src_port"),
                    bits: 16,
                    kind: MatchKind::Hash,
                },
            ],
            size: 8,
            actions: vec!["set_bd_dmac".into()],
            default_action: ActionCall::no_action(),
            with_counters: false,
        }
    }

    #[test]
    fn selector_spreads_and_is_stable() {
        let mut t = Table::new(selector_def()).unwrap();
        for m in 0..4u128 {
            t.insert(TableEntry::exact(
                vec![m, 0],
                ActionCall::new("set_bd_dmac", vec![m, 100 + m]),
            ))
            .unwrap();
        }
        let mut seen = std::collections::HashSet::new();
        for sport in 0..64u16 {
            let (linkage, mut p) = pkt(0x0a01_0001, 1000 + sport);
            p.meta.set("nexthop", 7);
            let ctx = EvalCtx::bare(&linkage);
            let h1 = t.lookup(&p, &ctx).unwrap().unwrap();
            let h2 = t.lookup(&p, &ctx).unwrap().unwrap();
            assert_eq!(h1.row, h2.row, "per-flow stability");
            seen.insert(h1.row);
        }
        assert!(
            seen.len() >= 3,
            "hashing should spread over members: {seen:?}"
        );
    }

    #[test]
    fn selector_empty_is_miss() {
        let mut t = Table::new(selector_def()).unwrap();
        let (linkage, mut p) = pkt(1, 1);
        p.meta.set("nexthop", 7);
        let ctx = EvalCtx::bare(&linkage);
        assert!(t.lookup(&p, &ctx).unwrap().is_none());
    }

    #[test]
    fn counters_increment_on_hit() {
        let mut t = Table::new(TableDef {
            with_counters: true,
            ..exact_def()
        })
        .unwrap();
        t.insert(TableEntry::exact(vec![7], ActionCall::no_action()))
            .unwrap();
        let (linkage, mut p) = pkt(1, 1);
        p.meta.set("nexthop", 7);
        let ctx = EvalCtx::bare(&linkage);
        assert_eq!(t.lookup(&p, &ctx).unwrap().unwrap().counter, Some(1));
        assert_eq!(t.lookup(&p, &ctx).unwrap().unwrap().counter, Some(2));
    }

    #[test]
    fn absent_header_key_is_miss() {
        // Key reads ipv6 on a v4 packet -> lookup does not apply.
        let mut t = Table::new(TableDef {
            name: "v6".into(),
            key: vec![KeyField {
                source: ValueRef::field("ipv6", "dst_addr"),
                bits: 128,
                kind: MatchKind::Exact,
            }],
            size: 2,
            actions: vec![],
            default_action: ActionCall::no_action(),
            with_counters: false,
        })
        .unwrap();
        let (linkage, p) = pkt(1, 1);
        let ctx = EvalCtx::bare(&linkage);
        assert!(t.lookup(&p, &ctx).unwrap().is_none());
    }

    #[test]
    fn key_validation_errors() {
        let mut t = Table::new(exact_def()).unwrap();
        // Wrong arity.
        assert!(matches!(
            t.insert(TableEntry::exact(vec![1, 2], ActionCall::no_action())),
            Err(CoreError::KeyMismatch { .. })
        ));
        // Oversized value for 16-bit field.
        assert!(matches!(
            t.insert(TableEntry::exact(vec![0x1_0000], ActionCall::no_action())),
            Err(CoreError::KeyMismatch { .. })
        ));
        // Action not offered.
        assert!(matches!(
            t.insert(TableEntry::exact(
                vec![1],
                ActionCall::new("mystery", vec![])
            )),
            Err(CoreError::UnknownAction(_))
        ));
        // Wrong kind.
        assert!(matches!(
            t.insert(TableEntry {
                key: vec![KeyMatch::Ternary { value: 0, mask: 0 }],
                priority: 0,
                action: ActionCall::no_action(),
                counter: 0
            }),
            Err(CoreError::KeyMismatch { .. })
        ));
    }

    #[test]
    fn entry_width_accounting() {
        let d = exact_def();
        assert_eq!(d.entry_width_bits(64), 16 + 8 + 64);
        let l = lpm_def();
        assert_eq!(l.entry_width_bits(16), 32 + 8 + 8 + 16);
        let t3 = ternary_def();
        assert_eq!(t3.entry_width_bits(0), (32 + 16) * 2 + 8);
    }

    #[test]
    fn len_and_is_empty_track_churn() {
        let mut t = Table::new(lpm_def()).unwrap();
        assert!(t.is_empty());
        for i in 0..10u128 {
            t.insert(lpm_entry(i << 8, 24, i)).unwrap();
        }
        assert_eq!(t.len(), 10);
        // Replacement does not change the count.
        t.insert(lpm_entry(3 << 8, 24, 99)).unwrap();
        assert_eq!(t.len(), 10);
        for i in 0..5u128 {
            t.delete(&[KeyMatch::Lpm {
                value: i << 8,
                prefix_len: 24,
            }])
            .unwrap();
        }
        assert_eq!(t.len(), 5);
        assert!(!t.is_empty());
        t.clear();
        assert!(t.is_empty());
        assert_eq!(t.len(), 0);
    }

    #[test]
    fn delete_query_guards() {
        let mut t = Table::new(exact_def()).unwrap();
        t.insert(TableEntry::exact(vec![7], ActionCall::no_action()))
            .unwrap();
        // Same value under the wrong variant must miss, as it always has.
        assert!(t
            .delete(&[KeyMatch::Lpm {
                value: 7,
                prefix_len: 16
            }])
            .is_err());
        // Wrong arity.
        assert!(t.delete(&[KeyMatch::Exact(7), KeyMatch::Exact(8)]).is_err());
        assert!(t.delete(&[KeyMatch::Exact(7)]).is_ok());

        let mut l = Table::new(lpm_def()).unwrap();
        l.insert(lpm_entry(0x0a00_0000, 8, 1)).unwrap();
        // Delete queries are not insert-validated: an out-of-width prefix
        // length must be a clean miss, not a mask underflow.
        assert!(l
            .delete(&[KeyMatch::Lpm {
                value: 0x0a00_0000,
                prefix_len: 129
            }])
            .is_err());
        assert!(l.delete(&[KeyMatch::Exact(0x0a00_0000)]).is_err());
        assert_eq!(l.len(), 1);
    }

    #[test]
    fn lpm_noncanonical_twins_stay_deletable() {
        let mut t = Table::new(lpm_def()).unwrap();
        // Same /24 prefix with different don't-care bits: distinct keys,
        // so both rows are live even though they share an index slot.
        t.insert(lpm_entry(0x0a01_0200, 24, 1)).unwrap();
        t.insert(lpm_entry(0x0a01_02ff, 24, 2)).unwrap();
        assert_eq!(t.len(), 2);
        t.delete(&[KeyMatch::Lpm {
            value: 0x0a01_0200,
            prefix_len: 24,
        }])
        .unwrap();
        t.delete(&[KeyMatch::Lpm {
            value: 0x0a01_02ff,
            prefix_len: 24,
        }])
        .unwrap();
        assert!(t.is_empty());
    }

    #[test]
    fn match_prepared_agrees_with_lookup() {
        let mut t = Table::new(lpm_def()).unwrap();
        t.insert(lpm_entry(0x0a00_0000, 8, 1)).unwrap();
        t.insert(lpm_entry(0x0a01_0000, 16, 2)).unwrap();
        t.insert(lpm_entry(0, 0, 9)).unwrap();
        let mut probe = Vec::new();
        for dst in [0x0a01_0203u32, 0x0a05_0503, 0x0b00_0001, 0x0a01_0000] {
            t.begin_lookup();
            let a = t
                .match_prepared(Some(&[u128::from(dst)]), &mut probe)
                .map(|h| h.row);
            let (linkage, p) = pkt(dst, 1);
            let b = t.lookup(&p, &EvalCtx::bare(&linkage)).unwrap();
            assert_eq!(a, b.map(|h| h.row), "dst {dst:#x}");
        }
        t.begin_lookup();
        assert!(t.match_prepared(None, &mut probe).is_none());

        let mut e = Table::new(exact_def()).unwrap();
        e.insert(TableEntry::exact(vec![7], ActionCall::no_action()))
            .unwrap();
        for v in [7u128, 8] {
            e.begin_lookup();
            let a = e.match_prepared(Some(&[v]), &mut probe).map(|h| h.row);
            let (linkage, mut p) = pkt(1, 1);
            p.meta.set("nexthop", v);
            let b = e.lookup(&p, &EvalCtx::bare(&linkage)).unwrap();
            assert_eq!(a, b.map(|h| h.row), "val {v}");
        }
    }

    #[test]
    fn multi_lpm_rejected() {
        let bad = TableDef {
            name: "bad".into(),
            key: vec![
                KeyField {
                    source: ValueRef::field("ipv4", "src_addr"),
                    bits: 32,
                    kind: MatchKind::Lpm,
                },
                KeyField {
                    source: ValueRef::field("ipv4", "dst_addr"),
                    bits: 32,
                    kind: MatchKind::Lpm,
                },
            ],
            size: 2,
            actions: vec![],
            default_action: ActionCall::no_action(),
            with_counters: false,
        };
        assert!(Table::new(bad).is_err());
    }
}
