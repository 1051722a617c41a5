//! The LPM index: one bitmap multibit trie (Tree Bitmap, stride 6) over the
//! key bit string "exact fields at full width, in declaration order, then
//! the LPM field". An entry of prefix length `p` is a key prefix of length
//! Σexact + `p`, so one structure serves single- and multi-field keys with
//! the LPM field at any declared position.
//!
//! A node covers six key bits. Its `prefixes` bitmap holds the prefixes that
//! end inside it (relative lengths 0..=5); its `children` bitmap holds the
//! child nodes by full chunk value. On the last level, where the chunk
//! reaches the end of the key, `children` holds the full-length prefixes
//! instead, so a lookup visits at most ⌈bits/6⌉ nodes. A node's children
//! are one contiguous run of the node slab and its prefixes' rows one run
//! of the head slab, sized to the next power of two so it mostly grows and
//! shrinks in place; runs freed on update are reused by size.
//!
//! The walk reads each six-bit chunk straight from the lookup values,
//! through per-level segments computed once per table: no key buffer, no
//! hashing.
//!
//! Non-canonical twins (the same key prefix with different don't-care bits)
//! share a slot. The slot holds the lowest live row among them and the rest
//! hang off `next`, a row-indexed ascending chain, so a lookup answers the
//! lowest live row at the longest matching length. The index is a pure
//! function of the live rows: removing and re-adding a row restores it.

use std::sync::Arc;

use crate::table::KeyMatch;

/// Key bits per trie level.
const STRIDE: usize = 6;
/// End of a twin chain.
const NONE: u32 = u32::MAX;

/// `PREFIX_MATCH[c]`: the `prefixes` bits of every relative prefix that a
/// chunk `c` lies under, one per length; the highest set bit of
/// `prefixes & PREFIX_MATCH[c]` is the longest match in the node.
const PREFIX_MATCH: [u64; 64] = {
    let mut t = [0u64; 64];
    let mut c = 0;
    while c < 64 {
        let mut l = 0;
        while l < STRIDE {
            t[c] |= 1 << prefix_bit(l, c);
            l += 1;
        }
        c += 1;
    }
    t
};

/// Bit of the relative prefix of length `l < STRIDE` that chunk `c` lies
/// under: level `l` occupies bits `2^l - 1 .. 2^(l+1) - 1`.
const fn prefix_bit(l: usize, c: usize) -> usize {
    (1 << l) - 1 + (c >> (STRIDE - l))
}

/// Set bits of `bm` below bit `i`: the offset of bit `i`'s item in a run.
#[inline]
fn rank(bm: u64, i: usize) -> u32 {
    (bm & ((1u64 << i) - 1)).count_ones()
}

/// One trie level's worth of key bits under one prefix.
#[derive(Debug, Clone, Copy, Default)]
struct Node {
    /// Prefixes ending in this node, at [`prefix_bit`].
    prefixes: u64,
    /// Child nodes by chunk value; on the last level, full-length prefixes.
    children: u64,
    /// Run of this node's children: in the node slab, or on the last level
    /// in the head slab.
    child_base: u32,
    /// Run of this node's prefix heads in the head slab.
    head_base: u32,
}

/// Capacity of a run of `n` items: the next power of two, so a run grows
/// and shrinks in place between powers and freed runs are reused by class.
fn class(n: usize) -> usize {
    if n == 0 {
        0
    } else {
        n.next_power_of_two()
    }
}

/// Contiguous runs of `T`, each at the capacity [`class`] gives its item
/// count (at most 64: one per bit of a node bitmap), with freed runs kept
/// by capacity for reuse.
#[derive(Debug, Clone, Default)]
struct Slab<T> {
    items: Vec<T>,
    /// `free[k]`: bases of freed runs of capacity `1 << k`.
    free: [Vec<u32>; 7],
}

impl<T: Copy + Default> Slab<T> {
    fn alloc(&mut self, cap: usize) -> u32 {
        if let Some(base) = self.free[cap.trailing_zeros() as usize].pop() {
            return base;
        }
        let base = self.items.len();
        self.items.resize(base + cap, T::default());
        u32::try_from(base).expect("LPM trie slab exceeds u32 indices")
    }

    /// Inserts `item` at offset `at` of the run at `base` holding `n`
    /// items; returns the run's base, new when it outgrew its capacity.
    fn insert(&mut self, base: u32, n: usize, at: usize, item: T) -> u32 {
        let (b, cap) = (base as usize, class(n + 1));
        if cap == class(n) {
            self.items.copy_within(b + at..b + n, b + at + 1);
            self.items[b + at] = item;
            return base;
        }
        let nb = self.alloc(cap) as usize;
        self.items.copy_within(b..b + at, nb);
        self.items[nb + at] = item;
        self.items.copy_within(b + at..b + n, nb + at + 1);
        self.release(base, n);
        nb as u32
    }

    /// Removes the item at offset `at` of the run at `base` holding `n`
    /// items; returns the run's base, new when it shrank a capacity.
    fn remove(&mut self, base: u32, n: usize, at: usize) -> u32 {
        let (b, cap) = (base as usize, class(n - 1));
        if cap == class(n) {
            self.items.copy_within(b + at + 1..b + n, b + at);
            return base;
        }
        self.release(base, n);
        if cap == 0 {
            return 0;
        }
        let nb = self.alloc(cap) as usize;
        self.items.copy_within(b..b + at, nb);
        self.items.copy_within(b + at + 1..b + n, nb + at);
        nb as u32
    }

    /// Frees the run at `base` holding `n` items.
    fn release(&mut self, base: u32, n: usize) {
        if n > 0 {
            self.free[class(n).trailing_zeros() as usize].push(base);
        }
    }
}

/// Where bits of one 64-bit half of a key field land in one chunk:
/// `(half >> shift) & mask`, placed at bit `dst` of the chunk.
#[derive(Debug, Clone, Copy)]
struct Seg {
    field: u16,
    /// The field's high half (bits 64..128), else its low half.
    high: bool,
    shift: u8,
    mask: u8,
    dst: u8,
    /// Last segment of its chunk.
    last: bool,
}

/// The LPM trie of one table.
#[derive(Debug, Clone)]
pub(crate) struct LpmTrie {
    /// Full key length in bits.
    bits: usize,
    /// Key bits before the LPM field (the exact fields).
    exact_bits: usize,
    /// Declared position and width of the LPM field.
    lpm_field: usize,
    lpm_bits: usize,
    /// Levels: ⌈bits/6⌉, at least one.
    depth: usize,
    /// Segments of every chunk in level order; each chunk's last one is
    /// marked. Shared so a walk that updates the trie can hold them.
    segs: Arc<[Seg]>,
    /// Node 0 is the root.
    nodes: Slab<Node>,
    /// Slot heads: the lowest live row at each stored prefix.
    heads: Slab<u32>,
    /// Twin chain by row: the next-higher live row at the same slot.
    next: Vec<u32>,
}

impl LpmTrie {
    /// An empty trie for a key whose fields, in declaration order, have
    /// these widths; the field at `lpm_field` is the LPM one.
    pub(crate) fn new(widths: &[usize], lpm_field: usize) -> Self {
        let order: Vec<usize> = (0..widths.len())
            .filter(|&i| i != lpm_field)
            .chain([lpm_field])
            .collect();
        let bits: usize = widths.iter().sum();
        let depth = bits.div_ceil(STRIDE).max(1);
        let mut segs: Vec<Seg> = Vec::new();
        for d in 0..depth {
            let (lo, hi) = (d * STRIDE, (d + 1) * STRIDE);
            let (first, mut off) = (segs.len(), 0);
            for &f in &order {
                let (start, end) = (off, off + widths[f]);
                off = end;
                // Key bit `k` is field bit `end - 1 - k`, most significant
                // first; a segment stays inside one 64-bit half of the
                // value, and bits above its 128 are always zero.
                let b64 = end.saturating_sub(64).max(start);
                let b128 = end.saturating_sub(128).max(start);
                for (a, b, high) in [(b128, b64, true), (b64, end, false)] {
                    let (a, b) = (a.max(lo), b.min(hi));
                    if a < b {
                        segs.push(Seg {
                            field: u16::try_from(f).expect("key field count fits u16"),
                            high,
                            shift: (end - b - if high { 64 } else { 0 }) as u8,
                            mask: ((1u32 << (b - a)) - 1) as u8,
                            dst: (hi - b) as u8,
                            last: false,
                        });
                    }
                }
            }
            if segs.len() == first {
                // No value bit reaches this level: its chunk is zero.
                segs.push(Seg {
                    field: 0,
                    high: false,
                    shift: 0,
                    mask: 0,
                    dst: 0,
                    last: false,
                });
            }
            segs.last_mut().expect("a segment per level").last = true;
        }
        let mut nodes = Slab::default();
        nodes.alloc(1);
        LpmTrie {
            bits,
            exact_bits: bits - widths[lpm_field],
            lpm_field,
            lpm_bits: widths[lpm_field],
            depth,
            segs: segs.into(),
            nodes,
            heads: Slab::default(),
            next: Vec::new(),
        }
    }

    /// Removes every prefix.
    pub(crate) fn clear(&mut self) {
        self.nodes = Slab::default();
        self.nodes.alloc(1);
        self.heads = Slab::default();
        self.next.clear();
    }

    /// The chunks of the key whose field `i` has value `val(i)`, level by
    /// level, from the trie's `segs`.
    #[inline]
    fn chunks<'a>(
        segs: &'a [Seg],
        val: impl Fn(usize) -> u128 + 'a,
    ) -> impl Iterator<Item = usize> + 'a {
        let mut segs = segs.iter();
        std::iter::from_fn(move || {
            let mut c = 0;
            for s in segs.by_ref() {
                let v = val(s.field as usize);
                let half = if s.high { (v >> 64) as u64 } else { v as u64 };
                c |= ((half >> s.shift) & u64::from(s.mask)) << s.dst;
                if s.last {
                    return Some(c as usize);
                }
            }
            None
        })
    }

    /// Longest-prefix match of lookup values (one per declared field): the
    /// lowest live row at the longest matching prefix.
    #[inline]
    pub(crate) fn lookup(&self, vals: &[u128]) -> Option<usize> {
        let mut node = &self.nodes.items[0];
        let mut best = None;
        for (d, c) in Self::chunks(&self.segs, |i| vals[i]).enumerate() {
            let m = node.prefixes & PREFIX_MATCH[c];
            if m != 0 {
                let i = 63 - m.leading_zeros() as usize;
                best = Some(node.head_base + rank(node.prefixes, i));
            }
            if node.children >> c & 1 == 0 {
                break;
            }
            let at = (node.child_base + rank(node.children, c)) as usize;
            if d + 1 == self.depth {
                return Some(self.heads.items[at] as usize);
            }
            node = &self.nodes.items[at];
        }
        best.map(|h| self.heads.items[h as usize] as usize)
    }

    /// Key prefix length of an entry key; `None` when the LPM field is not
    /// a prefix within its width (no validated row has such a key).
    fn key_len(&self, key: &[KeyMatch]) -> Option<usize> {
        match key.get(self.lpm_field)? {
            KeyMatch::Lpm { prefix_len, .. } if *prefix_len <= self.lpm_bits => {
                Some(self.exact_bits + prefix_len)
            }
            _ => None,
        }
    }

    /// Where a key prefix of length `len` sits at depth `d` under chunk
    /// `c`: `Some((leaf, bit))` when it ends here, `None` to descend.
    fn slot_bit(&self, len: usize, d: usize, c: usize) -> Option<(bool, usize)> {
        if len == self.bits && d + 1 == self.depth {
            Some((true, c))
        } else if len < (d + 1) * STRIDE {
            Some((false, prefix_bit(len - d * STRIDE, c)))
        } else {
            None
        }
    }

    /// Live rows at `key`'s slot, lowest first: the rows whose keys have
    /// `key`'s prefix (twins of `key` among them).
    pub(crate) fn slot_rows(&self, key: &[KeyMatch]) -> impl Iterator<Item = usize> + '_ {
        let head = self.key_len(key).and_then(|len| {
            let mut node = &self.nodes.items[0];
            for (d, c) in Self::chunks(&self.segs, |i| key_value(&key[i])).enumerate() {
                let (bm, base, i) = match self.slot_bit(len, d, c) {
                    Some((true, i)) => (node.children, node.child_base, i),
                    Some((false, i)) => (node.prefixes, node.head_base, i),
                    None => {
                        if node.children >> c & 1 == 0 {
                            return None;
                        }
                        node =
                            &self.nodes.items[(node.child_base + rank(node.children, c)) as usize];
                        continue;
                    }
                };
                return (bm >> i & 1 == 1).then(|| self.heads.items[(base + rank(bm, i)) as usize]);
            }
            None
        });
        std::iter::successors(head, |&r| {
            Some(self.next[r as usize]).filter(|&n| n != NONE)
        })
        .map(|r| r as usize)
    }

    /// Indexes a live row under its (validated) key.
    pub(crate) fn insert(&mut self, key: &[KeyMatch], row: usize) {
        let len = self.key_len(key).expect("validated LPM entry");
        let row = u32::try_from(row).expect("table row fits u32");
        if self.next.len() <= row as usize {
            self.next.resize(row as usize + 1, NONE);
        }
        let segs = Arc::clone(&self.segs);
        let mut node = 0usize;
        for (d, c) in Self::chunks(&segs, |i| key_value(&key[i])).enumerate() {
            let n = self.nodes.items[node];
            if let Some((leaf, i)) = self.slot_bit(len, d, c) {
                let (bm, base) = if leaf {
                    (n.children, n.child_base)
                } else {
                    (n.prefixes, n.head_base)
                };
                let at = rank(bm, i);
                if bm >> i & 1 == 1 {
                    self.link((base + at) as usize, row);
                    return;
                }
                self.next[row as usize] = NONE;
                let nb = self
                    .heads
                    .insert(base, bm.count_ones() as usize, at as usize, row);
                let n = &mut self.nodes.items[node];
                if leaf {
                    n.children |= 1 << i;
                    n.child_base = nb;
                } else {
                    n.prefixes |= 1 << i;
                    n.head_base = nb;
                }
                return;
            }
            let at = rank(n.children, c);
            if n.children >> c & 1 == 0 {
                let nb = self.nodes.insert(
                    n.child_base,
                    n.children.count_ones() as usize,
                    at as usize,
                    Node::default(),
                );
                let n = &mut self.nodes.items[node];
                n.children |= 1 << c;
                n.child_base = nb;
            }
            node = (self.nodes.items[node].child_base + at) as usize;
        }
        unreachable!("every key prefix ends by the last level");
    }

    /// Links `row` into the ascending twin chain of head slot `slot`.
    fn link(&mut self, slot: usize, row: u32) {
        let head = self.heads.items[slot];
        if row < head {
            self.next[row as usize] = head;
            self.heads.items[slot] = row;
            return;
        }
        let mut p = head;
        while self.next[p as usize] != NONE && self.next[p as usize] < row {
            p = self.next[p as usize];
        }
        self.next[row as usize] = self.next[p as usize];
        self.next[p as usize] = row;
    }

    /// Unlinks `row` from head slot `slot`'s chain; true when the slot is
    /// left empty.
    fn unlink(&mut self, slot: usize, row: u32) -> bool {
        let head = self.heads.items[slot];
        if head == row {
            let next = self.next[row as usize];
            self.heads.items[slot] = next;
            return next == NONE;
        }
        let mut p = head;
        while self.next[p as usize] != row {
            p = self.next[p as usize];
            assert_ne!(p, NONE, "LPM row {row} missing from its twin chain");
        }
        self.next[p as usize] = self.next[row as usize];
        false
    }

    /// Un-indexes a live row that [`LpmTrie::insert`] indexed under `key`.
    pub(crate) fn remove(&mut self, key: &[KeyMatch], row: usize) {
        let len = self.key_len(key).expect("validated LPM entry");
        let row = u32::try_from(row).expect("table row fits u32");
        let segs = Arc::clone(&self.segs);
        self.remove_at(
            0,
            0,
            len,
            &mut Self::chunks(&segs, |i| key_value(&key[i])),
            row,
        );
    }

    /// [`LpmTrie::remove`] below `node` at depth `d`, pruning emptied
    /// nodes on the way back up; true when `node` is left empty.
    fn remove_at(
        &mut self,
        node: usize,
        d: usize,
        len: usize,
        chunks: &mut impl Iterator<Item = usize>,
        row: u32,
    ) -> bool {
        let c = chunks.next().expect("one chunk per level");
        let n = self.nodes.items[node];
        if let Some((leaf, i)) = self.slot_bit(len, d, c) {
            let (bm, base) = if leaf {
                (n.children, n.child_base)
            } else {
                (n.prefixes, n.head_base)
            };
            debug_assert!(bm >> i & 1 == 1, "removed LPM prefix not indexed");
            let at = rank(bm, i);
            if !self.unlink((base + at) as usize, row) {
                return false;
            }
            let nb = self
                .heads
                .remove(base, bm.count_ones() as usize, at as usize);
            let n = &mut self.nodes.items[node];
            if leaf {
                n.children &= !(1 << i);
                n.child_base = nb;
            } else {
                n.prefixes &= !(1 << i);
                n.head_base = nb;
            }
        } else {
            let at = rank(n.children, c);
            let child = (n.child_base + at) as usize;
            if !self.remove_at(child, d + 1, len, chunks, row) {
                return false;
            }
            let nb = self
                .nodes
                .remove(n.child_base, n.children.count_ones() as usize, at as usize);
            let n = &mut self.nodes.items[node];
            n.children &= !(1 << c);
            n.child_base = nb;
        }
        let n = &self.nodes.items[node];
        n.prefixes == 0 && n.children == 0
    }
}

/// A key field's value as the trie reads it: the exact value, or the LPM
/// value whose bits past the prefix the walk never reaches.
fn key_value(km: &KeyMatch) -> u128 {
    match km {
        KeyMatch::Exact(v)
        | KeyMatch::Lpm { value: v, .. }
        | KeyMatch::Ternary { value: v, .. } => *v,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn lpm(value: u128, prefix_len: usize) -> KeyMatch {
        KeyMatch::Lpm { value, prefix_len }
    }

    #[test]
    fn chunks_read_fields_in_key_order() {
        // Declared `{lpm: 8 bits, exact: 4 bits}`: the key is the exact
        // field, then the LPM one, so 0xA then 0x5C reads 1010_0101 1100.
        let t = LpmTrie::new(&[8, 4], 0);
        let vals = [0x5Cu128, 0xA];
        let chunks: Vec<usize> = LpmTrie::chunks(&t.segs, |i| vals[i]).collect();
        assert_eq!(chunks, [0b101001, 0b011100]);
    }

    #[test]
    fn longest_prefix_and_twins() {
        let mut t = LpmTrie::new(&[32], 0);
        t.insert(&[lpm(0x0a00_0000, 8)], 4);
        t.insert(&[lpm(0x0a01_0200, 24)], 2);
        t.insert(&[lpm(0x0a01_02ff, 24)], 1); // twin, lower row
        t.insert(&[lpm(0x0a01_0203, 32)], 3);
        assert_eq!(t.lookup(&[0x0a01_0203]), Some(3));
        assert_eq!(t.lookup(&[0x0a01_0204]), Some(1));
        assert_eq!(t.lookup(&[0x0a05_0000]), Some(4));
        assert_eq!(t.lookup(&[0x0b00_0000]), None);
        assert_eq!(
            t.slot_rows(&[lpm(0x0a01_0200, 24)]).collect::<Vec<_>>(),
            [1, 2]
        );
        t.remove(&[lpm(0x0a01_02ff, 24)], 1);
        assert_eq!(t.lookup(&[0x0a01_0204]), Some(2));
        t.remove(&[lpm(0x0a01_0200, 24)], 2);
        t.remove(&[lpm(0x0a01_0203, 32)], 3);
        assert_eq!(t.lookup(&[0x0a01_0203]), Some(4));
        t.remove(&[lpm(0x0a00_0000, 8)], 4);
        assert_eq!(t.lookup(&[0x0a01_0203]), None);
        // Everything pruned back to an empty root.
        let root = t.nodes.items[0];
        assert_eq!((root.prefixes, root.children), (0, 0));
    }
}
