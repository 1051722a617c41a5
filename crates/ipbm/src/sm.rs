//! SM — the Storage Module.
//!
//! "The Storage Module realizes the disaggregated memory pool" (Sec. 4.1).
//! The SM owns the block pool, the header registry/linkage, metadata and
//! action definitions, and the installed tables. Every table is doubly
//! represented: a software index ([`ipsa_core::table::Table`]) for lookup
//! speed, and the authoritative serialized rows inside the pool blocks —
//! the SM keeps the two in sync on every entry operation. The compiled
//! fast path keeps no per-row state of its own: a hit's tag and action
//! data come from the index, which entry operations keep current, so they
//! leave a compiled path valid.
//!
//! Undo for the transactional journal ([`crate::resilience`]) is taken at
//! the same grain as the change: an `EntryUndo` holds one row's
//! checkpoint and block bytes, a `TableImage` holds the one table a
//! structural message names. Pool blocks are copy-on-write, so an image
//! holds its blocks by handle and an SM clone copies no block bytes.

use std::collections::HashMap;
use std::ops::Range;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use ipsa_core::action::ActionDef;
use ipsa_core::error::CoreError;
use ipsa_core::memory::{blocks_needed, serialize_entry, BlockKind, MemoryPool, TableBlockMap};
use ipsa_core::table::{Hit, KeyMatch, RowCheckpoint, Table, TableDef, TableEntry};
use ipsa_core::value::EvalCtx;
use ipsa_netpkt::packet::Packet;

/// One installed table: software index + its block mapping.
#[derive(Debug, Clone)]
pub struct TableStore {
    /// Software lookup index.
    pub table: Table,
    /// Row → block mapping in the pool.
    pub map: TableBlockMap,
    stamp: u64,
}

impl TableStore {
    /// Identity of the [`StorageModule::create_table`] call that built
    /// this store: unique in the process, kept by clones. A compiled path
    /// that recorded it can check a slab slot still holds the same table
    /// with one integer compare.
    pub fn stamp(&self) -> u64 {
        self.stamp
    }
}

/// Source of [`TableStore::stamp`]s.
static NEXT_STAMP: AtomicU64 = AtomicU64::new(0);

/// The exact inverse of one entry operation (`AddEntry`/`DelEntry`): the
/// table's [`RowCheckpoint`] for the key plus where the bytes that row held
/// in its blocks sit in the journal's byte log.
#[derive(Debug)]
pub(crate) struct EntryUndo {
    idx: usize,
    row: RowCheckpoint,
    bytes: Option<Range<usize>>,
}

/// Everything a structural message (create/destroy/migrate) can change for
/// the one table it names: the slab slot and store the name resolved to
/// (or none, when the name is free), the slab length (a create may push),
/// and the owner and bytes of every block the message may touch. The bytes
/// are shared handles: taking the image copies none, and only a block the
/// message then writes pays for its copy.
#[derive(Debug)]
pub(crate) struct TableImage {
    name: String,
    slot: Option<(usize, TableStore)>,
    slab_len: usize,
    blocks: Vec<(usize, Option<String>, Arc<Vec<u8>>)>,
}

/// The storage module.
///
/// Tables live in a slab (`stores`) addressed by dense index, with a
/// name→index map on the side: the control plane keeps talking names, while
/// the compiled fast path resolves a name to its slab index once per
/// control-plane epoch and does pure array indexing per packet.
#[derive(Debug, Clone)]
pub struct StorageModule {
    /// The disaggregated block pool.
    pub pool: MemoryPool,
    /// Declared metadata fields.
    pub metadata: Vec<(String, usize)>,
    /// Action registry.
    pub actions: HashMap<String, ActionDef>,
    stores: Vec<Option<TableStore>>,
    index: HashMap<String, usize>,
    /// Data-bus width between TSPs and blocks (throughput accounting).
    pub bus_bits: usize,
    /// Cumulative memory accesses performed by lookups.
    pub mem_accesses: u64,
}

impl StorageModule {
    /// New SM with a pool of `sram`+`tcam` blocks.
    pub fn new(sram: usize, tcam: usize, bus_bits: usize) -> Self {
        let mut actions = HashMap::new();
        actions.insert("NoAction".to_string(), ActionDef::no_action());
        StorageModule {
            pool: MemoryPool::new(sram, tcam),
            metadata: Vec::new(),
            actions,
            stores: Vec::new(),
            index: HashMap::new(),
            bus_bits,
            mem_accesses: 0,
        }
    }

    /// Declared width of a metadata field (128 for undeclared scratch).
    pub fn meta_width(&self, name: &str) -> usize {
        self.metadata
            .iter()
            .find(|(n, _)| n == name)
            .map(|(_, b)| *b)
            .unwrap_or(128)
    }

    /// Adds metadata declarations (idempotent per field). Declaring a field
    /// also claims its process-wide dense metadata id, so packets built
    /// after the declaration pre-size their user vectors to cover it.
    pub fn define_metadata(&mut self, fields: &[(String, usize)]) {
        for (n, b) in fields {
            ipsa_netpkt::intern::meta_id(n);
            if !self.metadata.iter().any(|(m, _)| m == n) {
                self.metadata.push((n.clone(), *b));
            }
        }
    }

    /// Defines (or replaces) an action.
    pub fn define_action(&mut self, def: ActionDef) {
        self.actions.insert(def.name.clone(), def);
    }

    /// Removes an action.
    pub fn remove_action(&mut self, name: &str) {
        self.actions.remove(name);
    }

    /// Maximum action-data width of a table (bits), from its action defs.
    fn table_data_bits(&self, def: &TableDef) -> usize {
        def.actions
            .iter()
            .filter_map(|a| self.actions.get(a))
            .map(|a| a.data_bits())
            .max()
            .unwrap_or(0)
    }

    /// Installed table names (sorted).
    pub fn table_names(&self) -> Vec<String> {
        let mut v: Vec<String> = self.index.keys().cloned().collect();
        v.sort();
        v
    }

    /// Read access to a table store.
    pub fn table(&self, name: &str) -> Option<&TableStore> {
        self.index.get(name).and_then(|&i| self.stores[i].as_ref())
    }

    /// Resolves a table name to its slab index (compile-time resolution for
    /// the fast path). The index stays valid until the table is destroyed.
    pub fn table_idx(&self, name: &str) -> Option<usize> {
        self.index.get(name).copied()
    }

    /// Read access to a table store by slab index.
    pub fn store_at(&self, idx: usize) -> Option<&TableStore> {
        self.stores.get(idx).and_then(|s| s.as_ref())
    }

    /// Mutable access to a table store by slab index.
    pub fn store_at_mut(&mut self, idx: usize) -> Option<&mut TableStore> {
        self.stores.get_mut(idx).and_then(|s| s.as_mut())
    }

    /// Slab length (live and freed slots) — the bound for per-store scans.
    pub fn store_count(&self) -> usize {
        self.stores.len()
    }

    /// Zeroes the observability counters (lookups, hits, memory accesses)
    /// without touching entry packet counters, which are data-plane state.
    /// Shard workers start each epoch from a clean-slate SM clone so the
    /// values they report at a barrier are pure deltas.
    pub fn reset_observability(&mut self) {
        self.mem_accesses = 0;
        for s in self.stores.iter_mut().flatten() {
            s.table.lookups = 0;
            s.table.hits = 0;
        }
    }

    fn get_store_mut(&mut self, name: &str) -> Result<&mut TableStore, CoreError> {
        let idx = *self
            .index
            .get(name)
            .ok_or_else(|| CoreError::UnknownTable(name.to_string()))?;
        Ok(self.stores[idx].as_mut().expect("indexed store live"))
    }

    /// Creates a table bound to specific pool blocks (chosen by rp4bc's
    /// packing solver). Verifies the allocation suffices for the table's
    /// geometry.
    pub fn create_table(&mut self, def: TableDef, blocks: Vec<usize>) -> Result<(), CoreError> {
        if self.index.contains_key(&def.name) {
            // Replace semantics: recreate (e.g. a re-loaded function).
            self.destroy_table(&def.name)?;
        }
        let data_bits = self.table_data_bits(&def);
        let entry_bits = def.entry_width_bits(data_bits);
        let kind = BlockKind::for_table(&def);
        let need = blocks_needed(kind.geometry(), entry_bits, def.size);
        if blocks.len() < need {
            return Err(CoreError::Config(format!(
                "table `{}` needs {need} blocks, allocation has {}",
                def.name,
                blocks.len()
            )));
        }
        self.pool.allocate_specific(&def.name, &blocks)?;
        let map = TableBlockMap::new(&def.name, entry_bits, def.size, kind, blocks)?;
        let name = def.name.clone();
        let table = Table::new(def)?;
        let store = TableStore {
            table,
            map,
            stamp: NEXT_STAMP.fetch_add(1, Ordering::Relaxed),
        };
        // Reuse a hole left by a destroyed table, else grow the slab.
        let idx = match self.stores.iter().position(|s| s.is_none()) {
            Some(i) => {
                self.stores[i] = Some(store);
                i
            }
            None => {
                self.stores.push(Some(store));
                self.stores.len() - 1
            }
        };
        self.index.insert(name, idx);
        Ok(())
    }

    /// Destroys a table, recycling its blocks ("if a logical stage is
    /// deleted, the associated memory blocks are also recycled").
    pub fn destroy_table(&mut self, name: &str) -> Result<Vec<usize>, CoreError> {
        let idx = self
            .index
            .remove(name)
            .ok_or_else(|| CoreError::UnknownTable(name.to_string()))?;
        self.stores[idx] = None;
        Ok(self.pool.free_owner(name))
    }

    /// Inserts an entry: updates the index and serializes the row into the
    /// backing blocks.
    ///
    /// The entry's action must be defined in the action registry and
    /// offered by the table (or be its default action, which serializes as
    /// tag 0). Unknown actions used to fall through `unwrap_or(0)` /
    /// `unwrap_or_default()` and silently serialize as the table's first
    /// action with no argument data — a corrupted row that only surfaced
    /// when the entry later matched.
    pub fn insert_entry(&mut self, table: &str, entry: TableEntry) -> Result<usize, CoreError> {
        let idx = *self
            .index
            .get(table)
            .ok_or_else(|| CoreError::UnknownTable(table.to_string()))?;
        let action_name = &entry.action.action;
        let Some(adef) = self.actions.get(action_name) else {
            return Err(CoreError::UnknownAction(format!(
                "{action_name}: not defined, required by entry for table {table}"
            )));
        };
        // Param widths of the entry's action, for serialization.
        let param_bits: Vec<usize> = adef.params.iter().map(|(_, b)| *b).collect();
        let store = self.stores[idx].as_mut().expect("indexed store live");
        let tag = match store.table.def.action_tag(action_name) {
            Some(t) => t,
            // Tag 0 is reserved for the default (miss) action; an entry may
            // name it explicitly even when it is not in the action list.
            None if *action_name == store.table.def.default_action.action => 0,
            None => {
                return Err(CoreError::UnknownAction(format!(
                    "{action_name}: not offered by table {table}"
                )))
            }
        };
        let row = store.table.insert(entry)?;
        let e = store.table.row(row).expect("just inserted");
        let bytes = serialize_entry(&store.table.def, &param_bits, tag, e)?;
        store.map.write_row(&mut self.pool, row, &bytes)?;
        Ok(row)
    }

    /// Deletes an entry by key, zeroing its backing row.
    pub fn delete_entry(&mut self, table: &str, key: &[KeyMatch]) -> Result<usize, CoreError> {
        let idx = *self
            .index
            .get(table)
            .ok_or_else(|| CoreError::UnknownTable(table.to_string()))?;
        let store = self.stores[idx].as_mut().expect("indexed store live");
        let row = store.table.delete(key)?;
        store.map.clear_row(&mut self.pool, row)?;
        Ok(row)
    }

    /// Changes a table's default (miss) action. The action must exist in
    /// the registry — the same validation as [`StorageModule::insert_entry`];
    /// a dangling default would make every miss fail at execution time.
    pub fn set_default_action(
        &mut self,
        table: &str,
        action: ipsa_core::table::ActionCall,
    ) -> Result<(), CoreError> {
        if !self.actions.contains_key(&action.action) {
            return Err(CoreError::UnknownAction(format!(
                "{}: not defined, cannot be default of table {table}",
                action.action
            )));
        }
        let store = self.get_store_mut(table)?;
        store.table.def.default_action = action;
        Ok(())
    }

    /// Migrates a table's backing storage to `new_blocks`: allocates the
    /// destination, copies every live row (entries *and* their block-level
    /// bytes survive), recycles the old blocks. This is what a clustered
    /// crossbar forces when a logical stage moves clusters (Sec. 2.4).
    pub fn migrate_table(&mut self, table: &str, new_blocks: Vec<usize>) -> Result<(), CoreError> {
        let idx = *self
            .index
            .get(table)
            .ok_or_else(|| CoreError::UnknownTable(table.to_string()))?;
        let store = self.stores[idx].as_ref().expect("indexed store live");
        let live_rows = store.table.iter().map(|(r, _)| r + 1).max().unwrap_or(0);
        // Validate the destination by bit capacity, not block count: the
        // table needs ⌈W/w⌉×⌈D/d⌉ blocks of its own kind's w×d geometry
        // (Sec. 2.4). A count-only check used to let a table slide onto
        // blocks of a different geometry — e.g. an SRAM-resident table onto
        // TCAM blocks whose rows are both narrower and fewer, silently
        // under-allocating its declared capacity.
        let kind = BlockKind::for_table(&store.table.def);
        for &b in &new_blocks {
            let blk = self.pool.block(b).ok_or_else(|| {
                CoreError::Config(format!("migration of `{table}`: no such block {b}"))
            })?;
            if blk.kind != kind {
                return Err(CoreError::Config(format!(
                    "migration of `{table}` needs {kind:?} blocks, block {b} is {:?}",
                    blk.kind
                )));
            }
        }
        let need = blocks_needed(kind.geometry(), store.map.entry_bits, store.table.def.size);
        if new_blocks.len() < need.max(store.map.block_ids.len()) {
            return Err(CoreError::Config(format!(
                "migration of `{table}` needs {} blocks ({} entry bits x {} entries), got {}",
                need.max(store.map.block_ids.len()),
                store.map.entry_bits,
                store.table.def.size,
                new_blocks.len()
            )));
        }
        // Stage the destination under a temporary owner so the copy sees
        // both allocations, then hand ownership over.
        let tmp_owner = format!("{table}:migrating");
        self.pool.allocate_specific(&tmp_owner, &new_blocks)?;
        let old_map = self.stores[idx].as_ref().expect("checked").map.clone();
        let new_map = match old_map.migrate(&mut self.pool, new_blocks, live_rows) {
            Ok(m) => m,
            Err(e) => {
                self.pool.free_owner(&tmp_owner);
                return Err(e);
            }
        };
        self.pool.free_owner(table); // recycle the old blocks
                                     // Hand the copied blocks over without touching their contents.
        self.pool.reassign(&tmp_owner, table);
        self.stores[idx].as_mut().expect("checked").map = new_map;
        Ok(())
    }

    /// Performs a lookup, accounting the memory accesses it costs on the
    /// data bus.
    pub fn lookup(
        &mut self,
        table: &str,
        pkt: &Packet,
        ctx: &EvalCtx<'_>,
    ) -> Result<Option<Hit>, CoreError> {
        let bus = self.bus_bits;
        let idx = *self
            .index
            .get(table)
            .ok_or_else(|| CoreError::UnknownTable(table.to_string()))?;
        let store = self.stores[idx].as_mut().expect("indexed store live");
        self.mem_accesses += store.map.accesses_per_lookup(bus) as u64;
        store.table.lookup(pkt, ctx)
    }

    /// Journals what an `AddEntry`/`DelEntry` of `key` on `table` is about
    /// to change, appending the row's block bytes to `log`. `None` when the
    /// table is unknown: the message then fails without mutating anything.
    pub(crate) fn entry_undo(
        &self,
        table: &str,
        key: &[KeyMatch],
        log: &mut Vec<u8>,
    ) -> Option<EntryUndo> {
        let idx = self.table_idx(table)?;
        let store = self.store_at(idx)?;
        let row = store.table.checkpoint_row(key);
        let start = log.len();
        let bytes = store
            .map
            .read_row_into(&self.pool, row.row(), log)
            .ok()
            .map(|()| start..log.len());
        Some(EntryUndo { idx, row, bytes })
    }

    /// Rewinds one entry operation; `log` is the byte log `entry_undo`
    /// appended to. Undo records restore newest first.
    pub(crate) fn undo_entry(&mut self, undo: EntryUndo, log: &[u8]) {
        let EntryUndo { idx, row, bytes } = undo;
        let Some(store) = self.stores.get_mut(idx).and_then(Option::as_mut) else {
            debug_assert!(false, "entry rollback: slab index {idx} vanished");
            return;
        };
        let r = row.row();
        store.table.restore_row(row);
        if let Some(bytes) = bytes {
            let w = store.map.write_row(&mut self.pool, r, &log[bytes]);
            debug_assert!(w.is_ok(), "entry rollback row write failed: {w:?}");
        }
    }

    /// Journals what a structural message naming `name` can change:
    /// `blocks` are the blocks the message allocates, beside those `name`
    /// already owns.
    pub(crate) fn table_image(&self, name: &str, blocks: &[usize]) -> TableImage {
        let slot = self
            .table_idx(name)
            .and_then(|i| Some((i, self.store_at(i)?.clone())));
        let mut ids = self.pool.owned_by(name);
        ids.extend_from_slice(blocks);
        ids.sort_unstable();
        ids.dedup();
        let blocks = ids
            .into_iter()
            .filter_map(|id| {
                let b = self.pool.block(id)?;
                Some((id, b.owner.clone(), self.pool.share_block(id)?))
            })
            .collect();
        TableImage {
            name: name.to_string(),
            slot,
            slab_len: self.stores.len(),
            blocks,
        }
    }

    /// Puts a [`TableImage`] back: whatever slot the name holds now is
    /// vacated, slots a create pushed are dropped, the captured store goes
    /// back into its own slot, and the blocks get their owners and captured
    /// bytes back, by handle.
    pub(crate) fn restore_table_image(&mut self, image: TableImage) {
        let TableImage {
            name,
            slot,
            slab_len,
            blocks,
        } = image;
        if let Some(j) = self.index.remove(&name) {
            self.stores[j] = None;
        }
        self.stores.truncate(slab_len);
        if let Some((i, store)) = slot {
            self.stores[i] = Some(store);
            self.index.insert(name, i);
        }
        for (id, owner, bytes) in blocks {
            let r = self.pool.restore_block(id, owner, bytes);
            debug_assert!(r.is_ok(), "rollback block restore failed: {r:?}");
        }
    }

    /// Blocks currently backing a table.
    pub fn blocks_of(&self, table: &str) -> Vec<usize> {
        self.table(table)
            .map(|s| s.map.block_ids.clone())
            .unwrap_or_default()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ipsa_core::table::{ActionCall, KeyField, MatchKind};
    use ipsa_core::value::ValueRef;
    use ipsa_netpkt::builder::{ipv4_udp_packet, Ipv4UdpSpec};

    fn sm() -> StorageModule {
        let mut sm = StorageModule::new(16, 4, 128);
        sm.define_metadata(&[("nexthop".into(), 16)]);
        sm.define_action(ActionDef {
            name: "set_nh".into(),
            params: vec![("nh".into(), 16)],
            body: vec![ipsa_core::action::Primitive::Set {
                dst: ipsa_core::value::LValueRef::Meta("nexthop".into()),
                src: ValueRef::Param(0),
            }],
        });
        sm
    }

    fn fib_def() -> TableDef {
        TableDef {
            name: "fib".into(),
            key: vec![KeyField {
                source: ValueRef::field("ipv4", "dst_addr"),
                bits: 32,
                kind: MatchKind::Lpm,
            }],
            size: 256,
            actions: vec!["set_nh".into()],
            default_action: ActionCall::no_action(),
            with_counters: false,
        }
    }

    #[test]
    fn create_insert_lookup_destroy_cycle() {
        let mut sm = sm();
        sm.create_table(fib_def(), vec![0]).unwrap();
        assert_eq!(sm.pool.owned_by("fib"), vec![0]);

        let row = sm
            .insert_entry(
                "fib",
                TableEntry {
                    key: vec![KeyMatch::Lpm {
                        value: 0x0a000000,
                        prefix_len: 8,
                    }],
                    priority: 0,
                    action: ActionCall::new("set_nh", vec![42]),
                    counter: 0,
                },
            )
            .unwrap();

        // The blocks really hold the entry.
        let bytes = sm
            .table("fib")
            .unwrap()
            .map
            .read_row(&sm.pool, row)
            .unwrap();
        assert!(bytes.iter().any(|&b| b != 0));

        let linkage = ipsa_netpkt::HeaderLinkage::standard();
        let mut p = ipv4_udp_packet(&Ipv4UdpSpec {
            dst_ip: 0x0a010203,
            ..Default::default()
        });
        p.ensure_parsed(&linkage, "ipv4").unwrap();
        let ctx = EvalCtx::bare(&linkage);
        let hit = sm.lookup("fib", &p, &ctx).unwrap().unwrap();
        assert_eq!(hit.action.args, vec![42]);
        assert!(sm.mem_accesses >= 1);

        let freed = sm.destroy_table("fib").unwrap();
        assert_eq!(freed, vec![0]);
        assert!(sm.lookup("fib", &p, &ctx).is_err());
    }

    #[test]
    fn delete_zeroes_backing_row() {
        let mut sm = sm();
        sm.create_table(fib_def(), vec![0]).unwrap();
        let key = vec![KeyMatch::Lpm {
            value: 0x0a000000,
            prefix_len: 8,
        }];
        let row = sm
            .insert_entry(
                "fib",
                TableEntry {
                    key: key.clone(),
                    priority: 0,
                    action: ActionCall::new("set_nh", vec![7]),
                    counter: 0,
                },
            )
            .unwrap();
        sm.delete_entry("fib", &key).unwrap();
        let bytes = sm
            .table("fib")
            .unwrap()
            .map
            .read_row(&sm.pool, row)
            .unwrap();
        assert!(bytes.iter().all(|&b| b == 0));
    }

    /// A table image shares its blocks with the live pool; writes after
    /// it (an insert, then a migration onto a block the image also
    /// captured) copy those blocks, and restoring puts the exact pre-image
    /// bytes and owners back.
    #[test]
    fn table_image_restores_exact_bytes_after_writes() {
        let mut sm = sm();
        sm.create_table(fib_def(), vec![0]).unwrap();
        let entry = |value: u128, nh: u128| TableEntry {
            key: vec![KeyMatch::Lpm {
                value,
                prefix_len: 24,
            }],
            priority: 0,
            action: ActionCall::new("set_nh", vec![nh]),
            counter: 0,
        };
        sm.insert_entry("fib", entry(0x0a00_0100, 1)).unwrap();
        let pre: Vec<Vec<u8>> = (0..sm.pool.len())
            .map(|id| sm.pool.block_data(id).unwrap().to_vec())
            .collect();

        let copy = sm.clone();
        assert!((0..sm.pool.len()).all(|id| Arc::ptr_eq(
            &sm.pool.share_block(id).unwrap(),
            &copy.pool.share_block(id).unwrap()
        )));

        let image = sm.table_image("fib", &[1]);
        sm.insert_entry("fib", entry(0x0a00_0200, 2)).unwrap();
        sm.migrate_table("fib", vec![1]).unwrap();
        assert_ne!(sm.pool.block_data(1).unwrap(), pre[1].as_slice());
        sm.restore_table_image(image);

        for (id, bytes) in pre.iter().enumerate() {
            assert_eq!(
                sm.pool.block_data(id).unwrap(),
                bytes.as_slice(),
                "block {id}"
            );
            assert_eq!(
                sm.pool.block(id).unwrap().owner,
                copy.pool.block(id).unwrap().owner
            );
        }
        assert_eq!(sm.blocks_of("fib"), vec![0]);
        assert_eq!(sm.table("fib").unwrap().table.len(), 1);
    }

    #[test]
    fn undersized_allocation_rejected() {
        let mut sm = sm();
        let mut def = fib_def();
        def.size = 4096; // needs 4 row groups
        let e = sm.create_table(def, vec![0]).unwrap_err();
        assert!(matches!(e, CoreError::Config(_)));
    }

    #[test]
    fn double_allocation_conflict() {
        let mut sm = sm();
        sm.create_table(fib_def(), vec![0]).unwrap();
        let mut def2 = fib_def();
        def2.name = "fib2".into();
        let e = sm.create_table(def2, vec![0]).unwrap_err();
        assert!(matches!(e, CoreError::BlockConflict { .. }));
    }

    #[test]
    fn recreate_replaces() {
        let mut sm = sm();
        sm.create_table(fib_def(), vec![0]).unwrap();
        sm.create_table(fib_def(), vec![1]).unwrap();
        assert_eq!(sm.pool.owned_by("fib"), vec![1]);
        assert_eq!(sm.pool.free_count(BlockKind::Sram), 15);
    }

    #[test]
    fn migration_preserves_entries_and_recycles_blocks() {
        let mut sm = sm();
        sm.create_table(fib_def(), vec![0]).unwrap();
        let linkage = ipsa_netpkt::HeaderLinkage::standard();
        for i in 0..5u128 {
            sm.insert_entry(
                "fib",
                TableEntry {
                    key: vec![KeyMatch::Lpm {
                        value: 0x0a00_0000 + (i << 8),
                        prefix_len: 24,
                    }],
                    priority: 0,
                    action: ActionCall::new("set_nh", vec![10 + i]),
                    counter: 0,
                },
            )
            .unwrap();
        }
        sm.migrate_table("fib", vec![5]).unwrap();
        assert_eq!(sm.pool.owned_by("fib"), vec![5], "moved to the new block");
        assert!(
            sm.pool.block(0).unwrap().owner.is_none(),
            "old block recycled"
        );
        // Lookups still hit; block-level bytes survived the copy.
        let mut p = ipv4_udp_packet(&Ipv4UdpSpec {
            dst_ip: 0x0a00_0342,
            ..Default::default()
        });
        p.ensure_parsed(&linkage, "ipv4").unwrap();
        let ctx = EvalCtx::bare(&linkage);
        let hit = sm.lookup("fib", &p, &ctx).unwrap().unwrap();
        assert_eq!(hit.action.args, vec![13]);
        let bytes = sm
            .table("fib")
            .unwrap()
            .map
            .read_row(&sm.pool, hit.row)
            .unwrap();
        assert!(bytes.iter().any(|&b| b != 0), "serialized row travelled");
    }

    #[test]
    fn migration_to_occupied_blocks_fails_cleanly() {
        let mut sm = sm();
        sm.create_table(fib_def(), vec![0]).unwrap();
        let mut def2 = fib_def();
        def2.name = "other".into();
        sm.create_table(def2, vec![1]).unwrap();
        let e = sm.migrate_table("fib", vec![1]).unwrap_err();
        assert!(matches!(e, CoreError::BlockConflict { .. }));
        // Original table untouched.
        assert_eq!(sm.pool.owned_by("fib"), vec![0]);
    }

    #[test]
    fn meta_width_defaults() {
        let sm = sm();
        assert_eq!(sm.meta_width("nexthop"), 16);
        assert_eq!(sm.meta_width("__t0"), 128);
    }

    /// Regression: an entry naming an undefined action used to serialize
    /// with empty param widths and tag 0 — i.e. silently as the table's
    /// default action with no argument data. It must be rejected.
    #[test]
    fn entry_with_undefined_action_rejected() {
        let mut sm = sm();
        sm.create_table(fib_def(), vec![0]).unwrap();
        let e = sm
            .insert_entry(
                "fib",
                TableEntry {
                    key: vec![KeyMatch::Lpm {
                        value: 0x0a000000,
                        prefix_len: 8,
                    }],
                    priority: 0,
                    action: ActionCall::new("no_such_action", vec![1]),
                    counter: 0,
                },
            )
            .unwrap_err();
        assert_eq!(
            e.to_string(),
            "unknown action `no_such_action: not defined, required by entry for table fib`"
        );
        // Nothing was inserted: the index holds no row and the block pool
        // holds no bytes.
        assert_eq!(sm.table("fib").unwrap().table.len(), 0);
    }

    /// Regression: an action that is defined but not offered by the table
    /// used to get tag 0 (the *first* action's tag at deserialization
    /// time). Only the table's declared default may serialize as tag 0.
    #[test]
    fn entry_with_unoffered_action_rejected() {
        let mut sm = sm();
        sm.define_action(ActionDef {
            name: "other".into(),
            params: vec![],
            body: vec![],
        });
        sm.create_table(fib_def(), vec![0]).unwrap();
        let e = sm
            .insert_entry(
                "fib",
                TableEntry {
                    key: vec![KeyMatch::Lpm {
                        value: 0x0a000000,
                        prefix_len: 8,
                    }],
                    priority: 0,
                    action: ActionCall::new("other", vec![]),
                    counter: 0,
                },
            )
            .unwrap_err();
        assert!(matches!(e, CoreError::UnknownAction(_)), "{e}");
        // The default action stays legal as an explicit entry action.
        sm.insert_entry(
            "fib",
            TableEntry {
                key: vec![KeyMatch::Lpm {
                    value: 0x0a000000,
                    prefix_len: 8,
                }],
                priority: 0,
                action: ActionCall::no_action(),
                counter: 0,
            },
        )
        .unwrap();
    }

    /// Regression: `set_default_action` accepted any name; a dangling
    /// default fails only later, at miss-execution time.
    #[test]
    fn default_action_must_be_defined() {
        let mut sm = sm();
        sm.create_table(fib_def(), vec![0]).unwrap();
        let e = sm
            .set_default_action("fib", ActionCall::new("ghost", vec![]))
            .unwrap_err();
        assert!(matches!(e, CoreError::UnknownAction(_)), "{e}");
        sm.set_default_action("fib", ActionCall::new("set_nh", vec![0]))
            .unwrap();
        assert_eq!(
            sm.table("fib").unwrap().table.def.default_action.action,
            "set_nh"
        );
    }

    /// Regression: migration validated the destination by block *count*
    /// only, so a table could slide onto blocks of a different w×d
    /// geometry. An SRAM-resident table moved onto one TCAM block passes
    /// the count check (1 ≥ 1) while the destination holds 44×512 bits per
    /// block against the table's 112×1024 layout — silent under-allocation.
    #[test]
    fn migration_to_heterogeneous_geometry_rejected() {
        let mut sm = sm();
        // A small-entry exact table so the bytes *would* fit a TCAM row —
        // pre-fix the migration "succeeded" and corrupted capacity.
        sm.create_table(
            TableDef {
                name: "hosts".into(),
                key: vec![KeyField {
                    source: ValueRef::Meta("nexthop".into()),
                    bits: 16,
                    kind: MatchKind::Exact,
                }],
                size: 1024,
                actions: vec![],
                default_action: ActionCall::no_action(),
                with_counters: false,
            },
            vec![2],
        )
        .unwrap();
        sm.insert_entry("hosts", TableEntry::exact(vec![5], ActionCall::no_action()))
            .unwrap();
        // Blocks 16.. are the TCAM half of the pool (16 SRAM + 4 TCAM).
        let e = sm.migrate_table("hosts", vec![16]).unwrap_err();
        assert!(
            e.to_string().contains("Sram blocks"),
            "must name the kind mismatch: {e}"
        );
        // Original mapping untouched, lookups unaffected.
        assert_eq!(sm.pool.owned_by("hosts"), vec![2]);
        assert_eq!(sm.table("hosts").unwrap().table.len(), 1);
    }

    /// The capacity rule itself: a destination with the right kind but too
    /// few blocks for ⌈W/w⌉×⌈D/d⌉ is rejected before anything is staged.
    #[test]
    fn migration_below_block_capacity_rejected() {
        let mut sm = sm();
        let mut def = fib_def();
        def.size = 2048; // 2 SRAM row groups
        sm.create_table(def, vec![0, 1]).unwrap();
        let e = sm.migrate_table("fib", vec![5]).unwrap_err();
        assert!(matches!(e, CoreError::Config(_)), "{e}");
        assert_eq!(sm.pool.owned_by("fib"), vec![0, 1]);
        sm.migrate_table("fib", vec![5, 6]).unwrap();
        assert_eq!(sm.pool.owned_by("fib"), vec![5, 6]);
    }
}
