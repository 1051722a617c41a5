//! Deterministic, platform-independent hashing for data-plane use.
//!
//! ECMP member selection and hash-kind table lookups must behave identically
//! across runs and machines, so we use a fixed FNV-1a implementation rather
//! than `std`'s randomized hasher. [`FoldHasher`] is the exact-match index's
//! hasher: fixed too, and built for speed on the packet path.

/// FNV-1a 64-bit offset basis.
const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
/// FNV-1a 64-bit prime.
const FNV_PRIME: u64 = 0x0000_0100_0000_01b3;

/// FNV-1a over a byte slice.
pub fn fnv1a(bytes: &[u8]) -> u64 {
    let mut h = FNV_OFFSET;
    for &b in bytes {
        h ^= b as u64;
        h = h.wrapping_mul(FNV_PRIME);
    }
    h
}

/// Final avalanche (splitmix64 finalizer). Raw FNV-1a has weak low bits:
/// two input bytes at positions of opposite parity contribute with
/// opposite sign mod 4, so correlated key fields (e.g. src address and
/// src port both derived from a flow index) can leave `h % members`
/// constant — which would defeat ECMP member selection entirely.
fn finalize(mut h: u64) -> u64 {
    h ^= h >> 30;
    h = h.wrapping_mul(0xbf58_476d_1ce4_e5b9);
    h ^= h >> 27;
    h = h.wrapping_mul(0x94d0_49bb_1331_11eb);
    h ^ (h >> 31)
}

/// Multiplier of [`FoldHasher`]'s fold (the 64-bit golden ratio, odd).
const FOLD_K: u64 = 0x9e37_79b9_7f4a_7c15;

/// The full 64x64 -> 128-bit product, folded to 64 bits by xoring its
/// halves: every input bit reaches the middle output bits in one multiply.
#[inline]
fn fold_mul(a: u64, b: u64) -> u64 {
    let m = (a as u128) * (b as u128);
    (m as u64) ^ ((m >> 64) as u64)
}

/// The exact-match index's [`std::hash::Hasher`]: folds the key's bytes in
/// 8 at a time, each through a 64x64 -> 128-bit multiply folded to 64
/// bits, then avalanches with the splitmix64 finalizer, so hashbrown's
/// 7-bit control tags (the top bits) are as well mixed as the bucket index
/// (the low bits).
///
/// It is unkeyed: every process hashes a key to the same value. A keyed
/// hash (`std`'s SipHash) defends a map whose keys an adversary chooses
/// against collision flooding. The exact index's keys are written only by
/// the control plane (entry inserts), which can already reprogram the
/// device; a packet can only probe. A probe adds nothing to the map, so
/// crafted traffic can at worst hit one existing collision chain, never
/// build one.
#[derive(Debug, Clone, Copy, Default)]
pub struct FoldHasher {
    state: u64,
}

impl std::hash::Hasher for FoldHasher {
    #[inline]
    fn write(&mut self, bytes: &[u8]) {
        let mut words = bytes.chunks_exact(8);
        for w in &mut words {
            self.write_u64(u64::from_le_bytes(w.try_into().expect("8-byte chunk")));
        }
        let rest = words.remainder();
        if !rest.is_empty() {
            let tail = rest.iter().fold(0u64, |acc, &b| (acc << 8) | b as u64);
            self.write_u64(tail ^ ((rest.len() as u64) << 56));
        }
    }

    #[inline]
    fn write_u64(&mut self, n: u64) {
        self.state = fold_mul(self.state ^ n, FOLD_K);
    }

    #[inline]
    fn write_usize(&mut self, n: usize) {
        self.write_u64(n as u64);
    }

    #[inline]
    fn finish(&self) -> u64 {
        finalize(self.state)
    }
}

/// Builds [`FoldHasher`]s for a `HashMap`.
pub type FoldBuildHasher = std::hash::BuildHasherDefault<FoldHasher>;

/// Hashes a sequence of field values (as the data plane's hash unit does
/// over the concatenated key fields), with full avalanche so any slice of
/// the output bits is usable for member selection.
pub fn hash_values(values: &[u128]) -> u64 {
    let mut h = FNV_OFFSET;
    for v in values {
        for b in v.to_be_bytes() {
            h ^= b as u64;
            h = h.wrapping_mul(FNV_PRIME);
        }
    }
    finalize(h)
}

/// RSS-style flow hash over a raw Ethernet frame: the L3 source/destination
/// addresses plus the L4 protocol number, avalanched so `flow_hash(f) % n`
/// spreads flows over any small shard count. All packets of one flow map to
/// the same value regardless of payload, TTL, or checksum, which is what a
/// per-flow-order-preserving dispatcher needs. Non-IP or truncated frames
/// fall back to hashing the whole frame — still deterministic, so dispatch
/// stays reproducible.
pub fn flow_hash(frame: &[u8]) -> u64 {
    let ethertype = if frame.len() >= 14 {
        Some(u16::from_be_bytes([frame[12], frame[13]]))
    } else {
        None
    };
    let mut h = FNV_OFFSET;
    let tuple: Option<(&[u8], u8)> = match ethertype {
        // IPv4: proto at byte 23, src/dst addresses at bytes 26..34.
        Some(0x0800) if frame.len() >= 34 => Some((&frame[26..34], frame[23])),
        // IPv6: next-header at byte 20, src/dst addresses at bytes 22..54.
        Some(0x86DD) if frame.len() >= 54 => Some((&frame[22..54], frame[20])),
        _ => None,
    };
    match tuple {
        Some((addrs, proto)) => {
            h ^= proto as u64;
            h = h.wrapping_mul(FNV_PRIME);
            for &b in addrs {
                h ^= b as u64;
                h = h.wrapping_mul(FNV_PRIME);
            }
            finalize(h)
        }
        None => finalize(fnv1a(frame)),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn known_vector() {
        // FNV-1a("") is the offset basis; FNV-1a("a") is a published vector.
        assert_eq!(fnv1a(b""), 0xcbf29ce484222325);
        assert_eq!(fnv1a(b"a"), 0xaf63dc4c8601ec8c);
    }

    fn fold_hash(vals: &[u128]) -> u64 {
        use std::hash::BuildHasher;
        FoldBuildHasher::default().hash_one(vals)
    }

    #[test]
    fn fold_hasher_is_fixed_and_order_sensitive() {
        assert_eq!(fold_hash(&[7, 9, 42]), fold_hash(&[7, 9, 42]));
        assert_ne!(fold_hash(&[1, 2]), fold_hash(&[2, 1]));
        // The length prefix separates keys whose bytes concatenate alike.
        assert_ne!(fold_hash(&[0]), fold_hash(&[0, 0]));
        // A map keyed by `Vec<u128>` finds the entry by the borrowed slice.
        let mut m: std::collections::HashMap<Vec<u128>, usize, FoldBuildHasher> =
            Default::default();
        m.insert(vec![0x0a00_0001, 80], 3);
        assert_eq!(m.get(&[0x0a00_0001u128, 80][..]), Some(&3));
    }

    /// Sequential keys (host addresses, port numbers) must spread over both
    /// the low bits hashbrown indexes with and the top 7 bits of its tags.
    #[test]
    fn fold_hasher_spreads_sequential_keys() {
        let mut low = std::collections::HashSet::new();
        let mut top = std::collections::HashSet::new();
        // 4096 draws leave a given one of 256 bins empty with odds e^-16.
        for i in 0..4096u128 {
            let h = fold_hash(&[0x0a00_0000 | i]);
            low.insert(h & 0xFF);
            top.insert(h >> 57);
        }
        assert_eq!(low.len(), 256, "every low byte appears");
        assert_eq!(top.len(), 128, "every 7-bit tag appears");
    }

    #[test]
    fn values_order_sensitive() {
        assert_ne!(hash_values(&[1, 2]), hash_values(&[2, 1]));
    }

    #[test]
    fn deterministic_across_calls() {
        assert_eq!(hash_values(&[7, 9, 42]), hash_values(&[7, 9, 42]));
    }

    /// The regression that motivated the finalizer: flow keys whose fields
    /// are linearly correlated must still spread over a small modulus.
    #[test]
    fn correlated_inputs_spread_mod_small() {
        let mut seen = std::collections::HashSet::new();
        for i in 0..64u128 {
            let vals = [7u128, 0x0a01_0042, 0x0a00_0000 | i, 1024 + i];
            seen.insert(hash_values(&vals) % 4);
        }
        assert_eq!(seen.len(), 4, "all 4 residues must appear: {seen:?}");
    }

    /// A minimal Ethernet+IPv4 frame with the addressed bytes set and
    /// everything else zero.
    fn v4_frame(src: u32, dst: u32, proto: u8, filler: u8) -> Vec<u8> {
        let mut f = vec![filler; 60];
        f[12] = 0x08;
        f[13] = 0x00;
        f[23] = proto;
        f[26..30].copy_from_slice(&src.to_be_bytes());
        f[30..34].copy_from_slice(&dst.to_be_bytes());
        f
    }

    #[test]
    fn flow_hash_ignores_payload_and_ttl() {
        // Same 3-tuple, different payload/TTL bytes: one flow, one hash.
        let a = v4_frame(0x0a000001, 0x0b000001, 17, 0x00);
        let b = v4_frame(0x0a000001, 0x0b000001, 17, 0xFF);
        assert_eq!(flow_hash(&a), flow_hash(&b));
        // Different destination: different flow (with avalanche, the hash
        // differs with overwhelming probability; these vectors do).
        let c = v4_frame(0x0a000001, 0x0b000002, 17, 0x00);
        assert_ne!(flow_hash(&a), flow_hash(&c));
    }

    #[test]
    fn flow_hash_spreads_flows_over_shards() {
        let mut seen = std::collections::HashSet::new();
        for i in 0..64u32 {
            let f = v4_frame(0x0a000000 | i, 0x0b000001, 17, 0);
            seen.insert(flow_hash(&f) % 4);
        }
        assert_eq!(seen.len(), 4, "all 4 shards must be hit: {seen:?}");
    }

    #[test]
    fn flow_hash_handles_v6_and_runts() {
        let mut v6 = vec![0u8; 60];
        v6[12] = 0x86;
        v6[13] = 0xDD;
        v6[20] = 17;
        v6[22] = 0xFE;
        v6[53] = 0x01;
        let mut v6b = v6.clone();
        v6b[55] = 0x77; // payload byte: same flow
        assert_eq!(flow_hash(&v6), flow_hash(&v6b));
        // A runt falls back to whole-frame hashing, deterministically.
        let runt = vec![1u8, 2, 3];
        assert_eq!(flow_hash(&runt), flow_hash(&runt));
    }
}
