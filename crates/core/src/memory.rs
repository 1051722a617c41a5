//! The disaggregated memory pool.
//!
//! IPSA pulls table memory out of the stage processors into a shared pool of
//! fixed-geometry SRAM and TCAM blocks (Sec. 2.4). A logical table of
//! `W × D` bits×entries occupies `⌈W/w⌉ × ⌈D/d⌉` blocks of geometry `w × d`.
//! Entries are *physically serialized* into block bytes — so allocating,
//! recycling, and migrating tables moves real data, and tests can verify
//! content survives a migration.
//!
//! Block bytes are copy-on-write: a block holds them behind an `Arc`, so
//! cloning a pool (an SM clone for a shard publish, a journal's table
//! image, a whole-SM undo) costs one refcount bump per block, and the first
//! row write on either side copies only the block it lands in. A new pool's
//! blocks of one kind all share one zeroed buffer, so a block that is never
//! written costs no memory of its own.

use std::collections::BTreeMap;
use std::sync::Arc;

use serde::{Deserialize, Serialize};

use crate::error::CoreError;
use crate::table::{KeyMatch, MatchKind, TableDef, TableEntry};

/// Block storage technology.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum BlockKind {
    /// SRAM block (exact/LPM/selector tables).
    Sram,
    /// TCAM block (ternary tables).
    Tcam,
}

impl BlockKind {
    /// Default geometry for the kind (RMT-like block shapes).
    pub fn geometry(self) -> BlockGeometry {
        match self {
            BlockKind::Sram => BlockGeometry {
                width_bits: 112,
                depth: 1024,
            },
            BlockKind::Tcam => BlockGeometry {
                width_bits: 44,
                depth: 512,
            },
        }
    }

    /// Kind required by a table definition.
    pub fn for_table(def: &TableDef) -> Self {
        if def.is_ternary() {
            BlockKind::Tcam
        } else {
            BlockKind::Sram
        }
    }
}

/// Physical shape of a memory block.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct BlockGeometry {
    /// Row width in bits.
    pub width_bits: usize,
    /// Number of rows.
    pub depth: usize,
}

/// One block in the pool. A clone shares the bytes until one side writes.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct MemoryBlock {
    /// Pool-wide block id.
    pub id: usize,
    /// Technology.
    pub kind: BlockKind,
    /// Shape.
    pub geometry: BlockGeometry,
    /// Owning table, if allocated.
    pub owner: Option<String>,
    /// Raw content, `width_bits/8 * depth` bytes (row-major, widths rounded
    /// up to whole bytes per row). Shared with every clone of this block
    /// until one of them writes.
    data: Arc<Vec<u8>>,
}

impl MemoryBlock {
    fn row_bytes(&self) -> usize {
        self.geometry.width_bits.div_ceil(8)
    }

    /// The bytes for writing: the copy-on-write step. Copies them first
    /// when a clone still shares them.
    fn data_mut(&mut self) -> &mut [u8] {
        Arc::make_mut(&mut self.data).as_mut_slice()
    }

    /// Zeroes the bytes. A shared block gets a fresh zeroed buffer rather
    /// than a copy that is overwritten at once.
    fn zero(&mut self) {
        match Arc::get_mut(&mut self.data) {
            Some(d) => d.fill(0),
            None => self.data = Arc::new(vec![0; self.data.len()]),
        }
    }
}

/// Number of blocks a `entry_bits × entries` table needs in blocks of
/// geometry `g`: the paper's `⌈W/w⌉ × ⌈D/d⌉`.
pub fn blocks_needed(g: BlockGeometry, entry_bits: usize, entries: usize) -> usize {
    entry_bits
        .div_ceil(g.width_bits)
        .saturating_mul(entries.div_ceil(g.depth).max(1))
}

/// The shared pool.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct MemoryPool {
    blocks: Vec<MemoryBlock>,
}

impl MemoryPool {
    /// Creates a pool with `sram` SRAM blocks followed by `tcam` TCAM
    /// blocks (ids are contiguous across both).
    pub fn new(sram: usize, tcam: usize) -> Self {
        // Every block of a kind starts as the same zeroed buffer: a block
        // gets bytes of its own when it is first written.
        let zeroed = |kind: BlockKind| {
            let g = kind.geometry();
            Arc::new(vec![0; g.width_bits.div_ceil(8) * g.depth])
        };
        let (sram_zero, tcam_zero) = (zeroed(BlockKind::Sram), zeroed(BlockKind::Tcam));
        let mut blocks = Vec::with_capacity(sram + tcam);
        for i in 0..sram + tcam {
            let (kind, zero) = if i < sram {
                (BlockKind::Sram, &sram_zero)
            } else {
                (BlockKind::Tcam, &tcam_zero)
            };
            blocks.push(MemoryBlock {
                id: i,
                kind,
                geometry: kind.geometry(),
                owner: None,
                data: Arc::clone(zero),
            });
        }
        MemoryPool { blocks }
    }

    /// Total block count.
    pub fn len(&self) -> usize {
        self.blocks.len()
    }

    /// True when the pool has no blocks.
    pub fn is_empty(&self) -> bool {
        self.blocks.is_empty()
    }

    /// Free blocks of a kind.
    pub fn free_count(&self, kind: BlockKind) -> usize {
        self.blocks
            .iter()
            .filter(|b| b.kind == kind && b.owner.is_none())
            .count()
    }

    /// Read access to a block.
    pub fn block(&self, id: usize) -> Option<&MemoryBlock> {
        self.blocks.get(id)
    }

    /// Raw bytes of a block.
    pub fn block_data(&self, id: usize) -> Option<&[u8]> {
        self.blocks.get(id).map(|b| b.data.as_slice())
    }

    /// A handle on a block's bytes — the pre-image a transactional apply
    /// journals before the first mutation touches the block. It costs a
    /// refcount, not a copy: the block's next write copies it instead.
    pub fn share_block(&self, id: usize) -> Option<Arc<Vec<u8>>> {
        self.blocks.get(id).map(|b| Arc::clone(&b.data))
    }

    /// Puts a block back the way a journal captured it: owner and the
    /// [`MemoryPool::share_block`] handle, reinstalled without a copy. The
    /// byte length must match the block's geometry (block shapes are fixed
    /// at construction, so a mismatch means the snapshot is not this
    /// block's).
    pub fn restore_block(
        &mut self,
        id: usize,
        owner: Option<String>,
        bytes: Arc<Vec<u8>>,
    ) -> Result<(), CoreError> {
        let b = self
            .blocks
            .get_mut(id)
            .ok_or_else(|| CoreError::Config(format!("restore of unknown block {id}")))?;
        if b.data.len() != bytes.len() {
            return Err(CoreError::Config(format!(
                "block {id} restore: snapshot is {} bytes, block holds {}",
                bytes.len(),
                b.data.len()
            )));
        }
        b.owner = owner;
        b.data = bytes;
        Ok(())
    }

    /// Ids of blocks owned by `owner`, ascending.
    pub fn owned_by(&self, owner: &str) -> Vec<usize> {
        self.blocks
            .iter()
            .filter(|b| b.owner.as_deref() == Some(owner))
            .map(|b| b.id)
            .collect()
    }

    /// Allocates `n` free blocks of `kind` to `owner`, preferring low ids.
    pub fn allocate(
        &mut self,
        owner: &str,
        kind: BlockKind,
        n: usize,
    ) -> Result<Vec<usize>, CoreError> {
        let free: Vec<usize> = self
            .blocks
            .iter()
            .filter(|b| b.kind == kind && b.owner.is_none())
            .map(|b| b.id)
            .take(n)
            .collect();
        if free.len() < n {
            return Err(CoreError::AllocFailed {
                kind: match kind {
                    BlockKind::Sram => "sram",
                    BlockKind::Tcam => "tcam",
                },
                requested: n,
                available: self.free_count(kind),
            });
        }
        for &id in &free {
            self.blocks[id].owner = Some(owner.to_string());
        }
        Ok(free)
    }

    /// Allocates a specific set of blocks (placement chosen by rp4bc's
    /// packing solver). All must be free and of a single kind.
    pub fn allocate_specific(&mut self, owner: &str, ids: &[usize]) -> Result<(), CoreError> {
        for &id in ids {
            let b = self.blocks.get(id).ok_or(CoreError::BlockConflict {
                block: id,
                detail: "no such block".into(),
            })?;
            if let Some(o) = &b.owner {
                return Err(CoreError::BlockConflict {
                    block: id,
                    detail: format!("owned by `{o}`"),
                });
            }
        }
        for &id in ids {
            self.blocks[id].owner = Some(owner.to_string());
        }
        Ok(())
    }

    /// Transfers ownership of all of `from`'s blocks to `to`, preserving
    /// their contents (the final step of a table migration). Returns the
    /// reassigned ids.
    pub fn reassign(&mut self, from: &str, to: &str) -> Vec<usize> {
        let mut moved = Vec::new();
        for b in &mut self.blocks {
            if b.owner.as_deref() == Some(from) {
                b.owner = Some(to.to_string());
                moved.push(b.id);
            }
        }
        moved
    }

    /// Recycles all blocks of an owner (logical stage deletion recycles its
    /// tables' memory). Contents are zeroed. Returns the freed ids.
    pub fn free_owner(&mut self, owner: &str) -> Vec<usize> {
        let mut freed = Vec::new();
        for b in &mut self.blocks {
            if b.owner.as_deref() == Some(owner) {
                b.owner = None;
                b.zero();
                freed.push(b.id);
            }
        }
        freed
    }

    fn write_block_row(&mut self, id: usize, row: usize, bytes: &[u8]) -> Result<(), CoreError> {
        let b = self.blocks.get_mut(id).ok_or(CoreError::BlockConflict {
            block: id,
            detail: "no such block".into(),
        })?;
        let rb = b.row_bytes();
        if row >= b.geometry.depth || bytes.len() > rb {
            return Err(CoreError::BlockConflict {
                block: id,
                detail: format!("row {row} / {} bytes out of geometry", bytes.len()),
            });
        }
        let off = row * rb;
        let data = b.data_mut();
        data[off..off + bytes.len()].copy_from_slice(bytes);
        data[off + bytes.len()..off + rb].fill(0);
        Ok(())
    }

    fn read_block_row(&self, id: usize, row: usize) -> Result<&[u8], CoreError> {
        let b = self.block(id).ok_or(CoreError::BlockConflict {
            block: id,
            detail: "no such block".into(),
        })?;
        let rb = b.row_bytes();
        if row >= b.geometry.depth {
            return Err(CoreError::BlockConflict {
                block: id,
                detail: format!("row {row} out of depth"),
            });
        }
        Ok(&b.data[row * rb..(row + 1) * rb])
    }
}

/// Maps a table's rows onto its allocated blocks: `cols` blocks side by
/// side carry one row-group; `⌈D/d⌉` row-groups stack vertically.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct TableBlockMap {
    /// Owning table.
    pub table: String,
    /// Entry width in bits.
    pub entry_bits: usize,
    /// Blocks per row-group (`⌈W/w⌉`).
    pub cols: usize,
    /// Rows each block holds (`d`).
    pub rows_per_block: usize,
    /// Allocated block ids, row-group-major: `ids[g * cols + c]`.
    pub block_ids: Vec<usize>,
}

impl TableBlockMap {
    /// Builds the map for a table over its allocated blocks.
    pub fn new(
        table: impl Into<String>,
        entry_bits: usize,
        entries: usize,
        kind: BlockKind,
        block_ids: Vec<usize>,
    ) -> Result<Self, CoreError> {
        let g = kind.geometry();
        let need = blocks_needed(g, entry_bits, entries);
        if block_ids.len() < need {
            return Err(CoreError::Config(format!(
                "table block map needs {need} blocks, got {}",
                block_ids.len()
            )));
        }
        Ok(TableBlockMap {
            table: table.into(),
            entry_bits,
            cols: entry_bits.div_ceil(g.width_bits),
            rows_per_block: g.depth,
            block_ids,
        })
    }

    /// Memory accesses one lookup of this table costs on a `bus_bits`-wide
    /// data bus — the IPSA throughput penalty the paper calls out when "the
    /// table entry size exceeds the data bus width".
    pub fn accesses_per_lookup(&self, bus_bits: usize) -> usize {
        self.entry_bits.div_ceil(bus_bits.max(1)).max(1)
    }

    fn locate(&self, row: usize, pool: &MemoryPool) -> Result<(usize, usize), CoreError> {
        let group = row / self.rows_per_block;
        let in_block = row % self.rows_per_block;
        let first = group * self.cols;
        if first + self.cols > self.block_ids.len() {
            return Err(CoreError::Config(format!(
                "row {row} beyond blocks of table `{}`",
                self.table
            )));
        }
        // All blocks of a group share geometry; verify the first exists.
        pool.block(self.block_ids[first])
            .ok_or(CoreError::BlockConflict {
                block: self.block_ids[first],
                detail: "no such block".into(),
            })?;
        Ok((first, in_block))
    }

    /// Writes an entry's serialized bytes across the row's blocks.
    pub fn write_row(
        &self,
        pool: &mut MemoryPool,
        row: usize,
        bytes: &[u8],
    ) -> Result<(), CoreError> {
        let (first, in_block) = self.locate(row, pool)?;
        let mut remaining = bytes;
        for c in 0..self.cols {
            let id = self.block_ids[first + c];
            let rb = pool.block(id).expect("located").row_bytes();
            let take = remaining.len().min(rb);
            pool.write_block_row(id, in_block, &remaining[..take])?;
            remaining = &remaining[take..];
        }
        if !remaining.is_empty() {
            return Err(CoreError::Config(format!(
                "entry bytes ({}) exceed row capacity of table `{}`",
                bytes.len(),
                self.table
            )));
        }
        Ok(())
    }

    /// Zeroes a row across its blocks: what [`TableBlockMap::write_row`] of
    /// an all-zero entry does, without building one.
    pub fn clear_row(&self, pool: &mut MemoryPool, row: usize) -> Result<(), CoreError> {
        let (first, in_block) = self.locate(row, pool)?;
        for &id in &self.block_ids[first..first + self.cols] {
            pool.write_block_row(id, in_block, &[])?;
        }
        Ok(())
    }

    /// Reads an entry's serialized bytes back.
    pub fn read_row(&self, pool: &MemoryPool, row: usize) -> Result<Vec<u8>, CoreError> {
        let mut out = Vec::new();
        self.read_row_into(pool, row, &mut out)?;
        Ok(out)
    }

    /// [`TableBlockMap::read_row`], appending to `out` (left as it was on
    /// error).
    pub fn read_row_into(
        &self,
        pool: &MemoryPool,
        row: usize,
        out: &mut Vec<u8>,
    ) -> Result<(), CoreError> {
        let (first, in_block) = self.locate(row, pool)?;
        let start = out.len();
        let end = start + self.entry_bits.div_ceil(8).max(1);
        for &id in &self.block_ids[first..first + self.cols] {
            match pool.read_block_row(id, in_block) {
                Ok(bytes) => out.extend_from_slice(&bytes[..bytes.len().min(end - out.len())]),
                Err(e) => {
                    out.truncate(start);
                    return Err(e);
                }
            }
        }
        Ok(())
    }

    /// Copies this table's content into a new set of blocks (table
    /// migration when a logical stage moves clusters) and returns the new
    /// map. Rows beyond `live_rows` are not copied.
    pub fn migrate(
        &self,
        pool: &mut MemoryPool,
        new_ids: Vec<usize>,
        live_rows: usize,
    ) -> Result<TableBlockMap, CoreError> {
        let new_map = TableBlockMap {
            block_ids: new_ids,
            ..self.clone()
        };
        if new_map.block_ids.len() < self.block_ids.len() {
            return Err(CoreError::Config(format!(
                "migration target has {} blocks, need {}",
                new_map.block_ids.len(),
                self.block_ids.len()
            )));
        }
        for row in 0..live_rows {
            let bytes = self.read_row(pool, row)?;
            new_map.write_row(pool, row, &bytes)?;
        }
        Ok(new_map)
    }
}

/// Serializes a table entry into its packed in-memory representation.
///
/// Layout (bit-packed, MSB-first): per key field — the value (`bits` wide),
/// plus an 8-bit prefix length for LPM fields or a `bits`-wide mask for
/// ternary fields; then the 8-bit action tag; then each action argument at
/// its declared parameter width.
pub fn serialize_entry(
    def: &TableDef,
    param_bits: &[usize],
    tag: u32,
    entry: &TableEntry,
) -> Result<Vec<u8>, CoreError> {
    // Widths arrive off the control channel unchecked: refuse one no
    // field can have before sizing the buffer by them.
    let widths = def
        .key
        .iter()
        .map(|k| k.bits)
        .chain(param_bits.iter().copied());
    if let Some(bad) = widths
        .into_iter()
        .find(|b| !(1..=ipsa_netpkt::bitfield::MAX_FIELD_BITS).contains(b))
    {
        return Err(CoreError::Config(format!(
            "table `{}`: a {bad}-bit key field or action parameter cannot be stored",
            def.name
        )));
    }
    let total_bits = def.entry_width_bits(param_bits.iter().sum());
    let mut buf = vec![0u8; total_bits.div_ceil(8)];
    let mut off = 0usize;
    let put = |buf: &mut [u8], off: &mut usize, bits: usize, v: u128| {
        ipsa_netpkt::bitfield::set_bits(
            buf,
            *off,
            bits,
            v & ipsa_netpkt::bitfield::width_mask(bits),
        )
        .expect("sized buffer");
        *off += bits;
    };
    for (km, kf) in entry.key.iter().zip(&def.key) {
        match km {
            KeyMatch::Exact(v) => put(&mut buf, &mut off, kf.bits, *v),
            KeyMatch::Lpm { value, prefix_len } => {
                put(&mut buf, &mut off, kf.bits, *value);
                put(&mut buf, &mut off, 8, *prefix_len as u128);
            }
            KeyMatch::Ternary { value, mask } => {
                put(&mut buf, &mut off, kf.bits, *value);
                put(&mut buf, &mut off, kf.bits, *mask);
            }
        }
    }
    put(&mut buf, &mut off, 8, tag as u128);
    for (arg, &bits) in entry.action.args.iter().zip(param_bits) {
        put(&mut buf, &mut off, bits, *arg);
    }
    Ok(buf)
}

/// Inverse of [`serialize_entry`]: reconstructs `(tag, key, args)` from
/// packed bytes. Used to verify migrations and by diagnostics.
pub fn deserialize_entry(
    def: &TableDef,
    param_bits_of_tag: &dyn Fn(u32) -> Vec<usize>,
    bytes: &[u8],
) -> Result<(u32, Vec<KeyMatch>, Vec<u128>), CoreError> {
    let mut off = 0usize;
    let mut get = |bits: usize| -> Result<u128, CoreError> {
        let v = ipsa_netpkt::bitfield::get_bits(bytes, off, bits)
            .map_err(|e| CoreError::Config(format!("entry bytes too short: {e}")))?;
        off += bits;
        Ok(v)
    };
    let mut key = Vec::with_capacity(def.key.len());
    for kf in &def.key {
        match kf.kind {
            MatchKind::Exact | MatchKind::Hash => key.push(KeyMatch::Exact(get(kf.bits)?)),
            MatchKind::Lpm => {
                let value = get(kf.bits)?;
                let prefix_len = get(8)? as usize;
                key.push(KeyMatch::Lpm { value, prefix_len });
            }
            MatchKind::Ternary => {
                let value = get(kf.bits)?;
                let mask = get(kf.bits)?;
                key.push(KeyMatch::Ternary { value, mask });
            }
        }
    }
    let tag = get(8)? as u32;
    let mut args = Vec::new();
    for bits in param_bits_of_tag(tag) {
        args.push(get(bits)?);
    }
    Ok((tag, key, args))
}

/// Per-kind utilization summary of a pool (drives the resource report).
#[derive(Debug, Clone, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct PoolUsage {
    /// Allocated blocks by kind name.
    pub allocated: BTreeMap<String, usize>,
    /// Total blocks by kind name.
    pub total: BTreeMap<String, usize>,
}

impl MemoryPool {
    /// Computes the utilization summary.
    pub fn usage(&self) -> PoolUsage {
        let mut u = PoolUsage::default();
        for b in &self.blocks {
            let k = match b.kind {
                BlockKind::Sram => "sram",
                BlockKind::Tcam => "tcam",
            };
            *u.total.entry(k.to_string()).or_default() += 1;
            if b.owner.is_some() {
                *u.allocated.entry(k.to_string()).or_default() += 1;
            }
        }
        u
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::table::{ActionCall, KeyField};
    use crate::value::ValueRef;

    fn fib_def() -> TableDef {
        TableDef {
            name: "ipv4_lpm".into(),
            key: vec![KeyField {
                source: ValueRef::field("ipv4", "dst_addr"),
                bits: 32,
                kind: MatchKind::Lpm,
            }],
            size: 3000,
            actions: vec!["set_nexthop".into()],
            default_action: ActionCall::no_action(),
            with_counters: false,
        }
    }

    #[test]
    fn block_math_matches_paper_formula() {
        let g = BlockKind::Sram.geometry();
        // W=64 fits one column; D=4096 needs 4 row groups.
        assert_eq!(blocks_needed(g, 64, 4096), 4);
        // W=224 needs 2 columns.
        assert_eq!(blocks_needed(g, 224, 1024), 2);
        // W=225 needs 3 columns; D=2048 needs 2 groups -> 6.
        assert_eq!(blocks_needed(g, 225, 2048), 6);
        // Empty table still holds a group.
        assert_eq!(blocks_needed(g, 8, 0), 1);
    }

    #[test]
    fn allocate_free_cycle() {
        let mut pool = MemoryPool::new(8, 2);
        assert_eq!(pool.free_count(BlockKind::Sram), 8);
        let ids = pool.allocate("t1", BlockKind::Sram, 3).unwrap();
        assert_eq!(ids, vec![0, 1, 2]);
        assert_eq!(pool.free_count(BlockKind::Sram), 5);
        assert_eq!(pool.owned_by("t1"), vec![0, 1, 2]);
        let freed = pool.free_owner("t1");
        assert_eq!(freed, vec![0, 1, 2]);
        assert_eq!(pool.free_count(BlockKind::Sram), 8);
    }

    #[test]
    fn allocation_failure_reports_availability() {
        let mut pool = MemoryPool::new(2, 0);
        let err = pool.allocate("t", BlockKind::Sram, 3).unwrap_err();
        assert!(matches!(
            err,
            CoreError::AllocFailed {
                requested: 3,
                available: 2,
                ..
            }
        ));
        assert_eq!(pool.free_count(BlockKind::Sram), 2, "no partial allocation");
    }

    #[test]
    fn specific_allocation_conflicts() {
        let mut pool = MemoryPool::new(4, 0);
        pool.allocate_specific("a", &[1, 2]).unwrap();
        let err = pool.allocate_specific("b", &[2, 3]).unwrap_err();
        assert!(matches!(err, CoreError::BlockConflict { block: 2, .. }));
        assert!(pool.block(3).unwrap().owner.is_none(), "no partial grab");
    }

    #[test]
    fn entry_roundtrip_through_blocks() {
        let def = fib_def();
        let entry = TableEntry {
            key: vec![KeyMatch::Lpm {
                value: 0x0a010000,
                prefix_len: 16,
            }],
            priority: 0,
            action: ActionCall::new("set_nexthop", vec![42]),
            counter: 0,
        };
        let param_bits = vec![16usize];
        let bytes = serialize_entry(&def, &param_bits, 1, &entry).unwrap();
        assert_eq!(bytes.len(), def.entry_width_bits(16).div_ceil(8));

        let mut pool = MemoryPool::new(8, 0);
        let need = blocks_needed(
            BlockKind::Sram.geometry(),
            def.entry_width_bits(16),
            def.size,
        );
        let ids = pool.allocate(&def.name, BlockKind::Sram, need).unwrap();
        let map = TableBlockMap::new(
            &def.name,
            def.entry_width_bits(16),
            def.size,
            BlockKind::Sram,
            ids,
        )
        .unwrap();
        map.write_row(&mut pool, 1500, &bytes).unwrap();
        let back = map.read_row(&pool, 1500).unwrap();
        assert_eq!(back, bytes);

        let (tag, key, args) = deserialize_entry(&def, &|_| vec![16], &back).unwrap();
        assert_eq!(tag, 1);
        assert_eq!(key, entry.key);
        assert_eq!(args, vec![42]);
    }

    #[test]
    fn migration_preserves_rows() {
        let def = fib_def();
        let width = def.entry_width_bits(16);
        let mut pool = MemoryPool::new(16, 0);
        let need = blocks_needed(BlockKind::Sram.geometry(), width, def.size);
        let old_ids = pool.allocate(&def.name, BlockKind::Sram, need).unwrap();
        let map = TableBlockMap::new(&def.name, width, def.size, BlockKind::Sram, old_ids).unwrap();

        let entry = TableEntry {
            key: vec![KeyMatch::Lpm {
                value: 0x0a000000,
                prefix_len: 8,
            }],
            priority: 0,
            action: ActionCall::new("set_nexthop", vec![7]),
            counter: 0,
        };
        let bytes = serialize_entry(&def, &[16], 1, &entry).unwrap();
        for row in 0..10 {
            map.write_row(&mut pool, row, &bytes).unwrap();
        }

        let new_ids = pool
            .allocate(&format!("{}:new", def.name), BlockKind::Sram, need)
            .unwrap();
        let new_map = map.migrate(&mut pool, new_ids, 10).unwrap();
        for row in 0..10 {
            assert_eq!(new_map.read_row(&pool, row).unwrap(), bytes);
        }
    }

    #[test]
    fn accesses_per_lookup_models_bus_width() {
        let map = TableBlockMap {
            table: "t".into(),
            entry_bits: 300,
            cols: 3,
            rows_per_block: 1024,
            block_ids: vec![0, 1, 2],
        };
        assert_eq!(map.accesses_per_lookup(128), 3);
        assert_eq!(map.accesses_per_lookup(512), 1);
    }

    #[test]
    fn oversized_write_rejected() {
        let mut pool = MemoryPool::new(2, 0);
        let ids = pool.allocate("t", BlockKind::Sram, 1).unwrap();
        let map = TableBlockMap::new("t", 112, 100, BlockKind::Sram, ids).unwrap();
        let too_big = vec![0xFF; 15]; // 112 bits = 14 bytes per row
        assert!(map.write_row(&mut pool, 0, &too_big).is_err());
    }

    /// A pool with one table of `fib_def` rows written into two blocks.
    fn written_pool() -> (MemoryPool, TableBlockMap, Vec<u8>) {
        let def = fib_def();
        let width = def.entry_width_bits(16);
        let mut pool = MemoryPool::new(8, 2);
        let ids = pool.allocate(&def.name, BlockKind::Sram, 3).unwrap();
        let map = TableBlockMap::new(&def.name, width, def.size, BlockKind::Sram, ids).unwrap();
        let entry = TableEntry {
            key: vec![KeyMatch::Lpm {
                value: 0x0a000000,
                prefix_len: 8,
            }],
            priority: 0,
            action: ActionCall::new("set_nexthop", vec![7]),
            counter: 0,
        };
        let bytes = serialize_entry(&def, &[16], 1, &entry).unwrap();
        map.write_row(&mut pool, 3, &bytes).unwrap();
        map.write_row(&mut pool, 1500, &bytes).unwrap();
        (pool, map, bytes)
    }

    fn shared(a: &MemoryPool, b: &MemoryPool, id: usize) -> bool {
        Arc::ptr_eq(&a.blocks[id].data, &b.blocks[id].data)
    }

    #[test]
    fn fresh_pool_shares_one_zeroed_buffer_per_kind() {
        let mut pool = MemoryPool::new(3, 2);
        assert!(Arc::ptr_eq(&pool.blocks[0].data, &pool.blocks[2].data));
        assert!(Arc::ptr_eq(&pool.blocks[3].data, &pool.blocks[4].data));
        assert!(!Arc::ptr_eq(&pool.blocks[2].data, &pool.blocks[3].data));
        let ids = pool.allocate("t", BlockKind::Sram, 1).unwrap();
        let map = TableBlockMap::new("t", 112, 100, BlockKind::Sram, ids).unwrap();
        map.write_row(&mut pool, 0, &[0xAB; 14]).unwrap();
        assert!(!Arc::ptr_eq(&pool.blocks[0].data, &pool.blocks[1].data));
        assert!(pool.block_data(1).unwrap().iter().all(|&b| b == 0));
        assert_eq!(pool.block_data(0).unwrap()[..14], [0xAB; 14]);
    }

    #[test]
    fn cloned_pool_shares_every_block() {
        let (pool, _, _) = written_pool();
        let copy = pool.clone();
        assert!((0..pool.len()).all(|id| shared(&pool, &copy, id)));
    }

    #[test]
    fn row_write_copies_only_its_block_on_either_side() {
        let (mut pool, map, bytes) = written_pool();
        let before: Vec<Vec<u8>> = (0..pool.len())
            .map(|id| pool.block_data(id).unwrap().to_vec())
            .collect();
        // Row 1500 lands in the table's second block (rows 1024..2048).
        let hit = map.block_ids[1];

        let mut copy = pool.clone();
        map.clear_row(&mut copy, 1500).unwrap();
        for (id, pre) in before.iter().enumerate() {
            assert_eq!(shared(&pool, &copy, id), id != hit, "block {id}");
            assert_eq!(pool.block_data(id).unwrap(), pre.as_slice());
        }
        assert_eq!(map.read_row(&copy, 1500).unwrap(), vec![0; bytes.len()]);

        // The original writing copies its own block and leaves the clone be.
        let copy = pool.clone();
        map.clear_row(&mut pool, 3).unwrap();
        let first = map.block_ids[0];
        for (id, pre) in before.iter().enumerate() {
            assert_eq!(shared(&pool, &copy, id), id != first, "block {id}");
            assert_eq!(copy.block_data(id).unwrap(), pre.as_slice());
        }

        // Freeing a shared block zeroes the freer's side only.
        let copy = pool.clone();
        pool.free_owner("ipv4_lpm");
        assert_eq!(map.read_row(&copy, 1500).unwrap(), bytes);
        assert!(pool.block_data(hit).unwrap().iter().all(|&b| b == 0));
    }

    #[test]
    fn restored_block_is_the_captured_handle() {
        let (mut pool, map, bytes) = written_pool();
        let id = map.block_ids[1];
        let image = pool.share_block(id).unwrap();
        let pre = image.to_vec();
        map.clear_row(&mut pool, 1500).unwrap();
        assert_eq!(*image, pre, "a write never reaches a captured image");
        pool.restore_block(id, Some("ipv4_lpm".into()), Arc::clone(&image))
            .unwrap();
        assert!(Arc::ptr_eq(&pool.blocks[id].data, &image));
        assert_eq!(map.read_row(&pool, 1500).unwrap(), bytes);
        let short = Arc::new(vec![0u8; 3]);
        assert!(pool.restore_block(id, None, short).is_err());
    }

    /// The pool's JSON is what it was when blocks owned plain `Vec<u8>`s:
    /// sharing is invisible to every serialized form.
    #[test]
    fn pool_json_is_unchanged_by_sharing() {
        #[derive(Serialize)]
        struct PlainBlock {
            id: usize,
            kind: BlockKind,
            geometry: BlockGeometry,
            owner: Option<String>,
            data: Vec<u8>,
        }
        #[derive(Serialize)]
        struct PlainPool {
            blocks: Vec<PlainBlock>,
        }
        let (pool, _, _) = written_pool();
        let plain = PlainPool {
            blocks: pool
                .blocks
                .iter()
                .map(|b| PlainBlock {
                    id: b.id,
                    kind: b.kind,
                    geometry: b.geometry,
                    owner: b.owner.clone(),
                    data: b.data.to_vec(),
                })
                .collect(),
        };
        let json = serde_json::to_string(&pool).unwrap();
        assert_eq!(json, serde_json::to_string(&plain).unwrap());
        let back: MemoryPool = serde_json::from_str(&json).unwrap();
        assert_eq!(serde_json::to_string(&back).unwrap(), json);
    }

    #[test]
    fn usage_summary() {
        let mut pool = MemoryPool::new(4, 2);
        pool.allocate("t", BlockKind::Sram, 2).unwrap();
        pool.allocate("u", BlockKind::Tcam, 1).unwrap();
        let u = pool.usage();
        assert_eq!(u.allocated["sram"], 2);
        assert_eq!(u.total["sram"], 4);
        assert_eq!(u.allocated["tcam"], 1);
        assert_eq!(u.total["tcam"], 2);
    }
}
