//! Route and frame generators: pure functions of the seed.
//!
//! The program under test sees only what these produce — raw frame bytes
//! with an ingress port, and `(prefix, length)` routes — never the seed.

use std::collections::HashSet;

use ipsa_netpkt::builder::{ipv4_udp_packet, Ipv4UdpSpec};
use ipsa_netpkt::traffic::TrafficGen;
use rand::rngs::StdRng;
use rand::{RngExt, SeedableRng};

/// Frames per burst, the unit of every timed window.
pub const BURST: usize = 256;

/// An IPv4 route: prefix value (host bits zero) and prefix length.
pub type Route = (u32, u8);

/// Prefix lengths of the FIB workloads, /24 weighted 4×.
pub const FIB_LENGTHS: &[u8] = &[16, 18, 20, 22, 23, 24, 24, 24, 24, 26, 28, 32];
/// The base design's routes are all /24, like its standard population.
pub const BASE_LENGTHS: &[u8] = &[24];

/// Destination every C1 (ECMP) frame is sent to: inside the base
/// population's first route, and under the FIB design's default route.
pub const ECMP_DST: u32 = 0x0a01_0005;
/// The SID the C2 frames address (no generated flow shares it) and the
/// segment they must leave with.
pub const SRV6_SID: u128 = 0xfc01_0000_0000_0000_0000_0000_0000_0111;
/// Next segment after [`SRV6_SID`].
pub const SRV6_NEXT: u128 = 0xfc01_0000_0000_0000_0000_0000_0000_0222;

/// Pre-generated frames in one contiguous buffer, as a NIC ring would
/// hold them.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct Frames {
    bytes: Vec<u8>,
    /// `(offset, length, ingress port)` per frame.
    index: Vec<(u32, u16, u16)>,
}

impl Frames {
    /// Appends one frame.
    pub fn push(&mut self, data: &[u8], port: u16) {
        self.index
            .push((self.bytes.len() as u32, data.len() as u16, port));
        self.bytes.extend_from_slice(data);
    }

    /// Number of frames.
    pub fn len(&self) -> usize {
        self.index.len()
    }

    /// Number of whole bursts.
    pub fn bursts(&self) -> usize {
        self.len() / BURST
    }

    /// Frame `i` as `(bytes, ingress port)`.
    pub fn get(&self, i: usize) -> (&[u8], u16) {
        let (off, len, port) = self.index[i];
        (&self.bytes[off as usize..off as usize + len as usize], port)
    }

    /// The frames of burst `b` (wrapping around the set).
    pub fn burst(&self, b: usize) -> impl Iterator<Item = (&[u8], u16)> {
        let first = (b % self.bursts()) * BURST;
        (first..first + BURST).map(|i| self.get(i))
    }
}

/// A random unicast route outside 10/8 (which the base population and
/// the generated source addresses use).
pub fn random_route(rng: &mut StdRng, lengths: &[u8]) -> Route {
    loop {
        let len = lengths[rng.random_range(0..lengths.len())];
        let value = rng.random_range(0..1u64 << 32) as u32 & (u32::MAX << (32 - u32::from(len)));
        if !matches!(value >> 24, 0 | 10 | 127 | 224..) {
            return (value, len);
        }
    }
}

/// `n` distinct routes drawn with [`random_route`].
pub fn routes(seed: u64, n: usize, lengths: &[u8]) -> Vec<Route> {
    let mut rng = StdRng::seed_from_u64(seed ^ 0x726f_7574_6573);
    let mut seen = HashSet::with_capacity(n);
    let mut out = Vec::with_capacity(n);
    while out.len() < n {
        let r = random_route(&mut rng, lengths);
        if seen.insert(r) {
            out.push(r);
        }
    }
    out
}

/// `fwd_base` traffic: fixed 64-byte frames, 64 uniform flows, 20 % IPv6,
/// all addressed to the router MAC and routable by the base population.
pub fn base_frames(seed: u64, bursts: usize) -> Frames {
    let mut gen = TrafficGen::new(seed).with_v6_percent(20).with_flows(64);
    let mut frames = Frames::default();
    for _ in 0..bursts * BURST {
        let (_, id) = gen.next_mixed();
        // eth 14 + ipv4 20 / ipv6 40 + udp 8 + payload = 64 bytes.
        gen.payload_len = if id.v6 { 2 } else { 22 };
        let pkt = gen.flow_packet(id);
        frames.push(&pkt.data, pkt.meta.ingress_port);
    }
    frames
}

/// `fwd_fib` traffic: IPv4 only, IMIX frame sizes, destinations Zipf(1.1)
/// over `routes` (rank = position) with random host bits.
pub fn fib_frames(seed: u64, bursts: usize, routes: &[Route]) -> Frames {
    let mut gen = TrafficGen::new(seed)
        .with_v6_percent(0)
        .with_flows(routes.len() as u32)
        .with_zipf(1.1)
        .with_imix();
    let mut rng = StdRng::seed_from_u64(seed ^ 0x686f_7374);
    let mut frames = Frames::default();
    for _ in 0..bursts * BURST {
        // The generator picks the Zipf rank and the IMIX size; the frame
        // is rebuilt towards the ranked route.
        let (sized, id) = gen.next_scaled();
        let (prefix, len) = routes[id.index as usize];
        let host = rng.random_range(0..1u64 << (32 - u32::from(len))) as u32;
        let pkt = ipv4_udp_packet(&Ipv4UdpSpec {
            src_ip: 0x0a00_0000 | (id.index & 0xFFFF),
            dst_ip: prefix | host,
            src_port: 1000 + (id.index % 5000) as u16,
            dst_port: 53,
            payload: vec![0x44; sized.len() - 42],
            ..Ipv4UdpSpec::default()
        });
        frames.push(&pkt.data, pkt.meta.ingress_port);
    }
    frames
}

/// Post-update traffic of use case `case` (0 = C1 ECMP, 1 = C2 SRv6,
/// 2 = C3 flow probe): every burst is half the workload's own mix (taken
/// from `own`) and half the use case's traffic, interleaved.
pub fn case_frames(seed: u64, case: usize, bursts: usize, own: &Frames) -> Frames {
    let mut gen = TrafficGen::new(seed ^ (0xC0 + case as u64)).with_flows(64);
    gen.payload_len = 22;
    let n = bursts * BURST / 2;
    let special: Vec<_> = match case {
        0 => gen.ecmp_batch(n, ECMP_DST),
        1 => gen.srv6_batch(n, &[SRV6_NEXT, SRV6_SID]),
        _ => gen.probe_batch(n, 30).into_iter().map(|(p, _)| p).collect(),
    };
    let mut frames = Frames::default();
    for (i, pkt) in special.iter().enumerate() {
        let (data, port) = own.get(i % own.len());
        frames.push(data, port);
        frames.push(&pkt.data, pkt.meta.ingress_port);
    }
    frames
}

/// IPv4 destination address of an Ethernet frame, if it carries IPv4.
pub fn ipv4_dst(frame: &[u8]) -> Option<u32> {
    (frame.len() >= 34 && frame[12..14] == [0x08, 0x00])
        .then(|| u32::from_be_bytes([frame[30], frame[31], frame[32], frame[33]]))
}

/// IPv6 destination address of an Ethernet frame, if it carries IPv6.
pub fn ipv6_dst(frame: &[u8]) -> Option<u128> {
    (frame.len() >= 54 && frame[12..14] == [0x86, 0xDD]).then(|| {
        let mut b = [0u8; 16];
        b.copy_from_slice(&frame[38..54]);
        u128::from_be_bytes(b)
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn generators_are_pure_functions_of_the_seed() {
        let r17 = routes(17, 500, FIB_LENGTHS);
        assert_eq!(r17, routes(17, 500, FIB_LENGTHS));
        assert_ne!(r17, routes(18, 500, FIB_LENGTHS));
        assert_eq!(base_frames(17, 2), base_frames(17, 2));
        assert_ne!(base_frames(17, 2), base_frames(18, 2));
        assert_eq!(fib_frames(17, 2, &r17), fib_frames(17, 2, &r17));
        assert_ne!(fib_frames(17, 2, &r17), fib_frames(18, 2, &r17));
        let own = base_frames(17, 1);
        for case in 0..3 {
            assert_eq!(
                case_frames(17, case, 2, &own),
                case_frames(17, case, 2, &own)
            );
        }
    }

    #[test]
    fn routes_are_distinct_masked_and_outside_reserved_space() {
        let rs = routes(3, 2_000, FIB_LENGTHS);
        let distinct: HashSet<_> = rs.iter().collect();
        assert_eq!(distinct.len(), rs.len());
        for &(v, len) in &rs {
            assert!(FIB_LENGTHS.contains(&len));
            if len < 32 {
                assert_eq!(v & (u32::MAX >> len), 0, "host bits are zero");
            }
            assert!(!matches!(v >> 24, 0 | 10 | 127 | 224..));
        }
        assert!(routes(3, 50, BASE_LENGTHS).iter().all(|r| r.1 == 24));
    }

    #[test]
    fn base_frames_are_64_bytes_and_fib_frames_hit_their_routes() {
        let base = base_frames(5, 2);
        assert_eq!(base.len(), 2 * BURST);
        assert!((0..base.len()).all(|i| base.get(i).0.len() == 64));
        let v6 = (0..base.len())
            .filter(|&i| ipv6_dst(base.get(i).0).is_some())
            .count();
        assert!(v6 > 0 && v6 < base.len() / 2, "about a fifth is IPv6: {v6}");

        let rs = routes(5, 300, FIB_LENGTHS);
        let fib = fib_frames(5, 2, &rs);
        for i in 0..fib.len() {
            let dst = ipv4_dst(fib.get(i).0).expect("IPv4 only");
            assert!(
                rs.iter()
                    .any(|&(v, len)| dst & (u32::MAX << (32 - u32::from(len))) == v),
                "frame {i} is covered by an installed prefix"
            );
        }
        let sizes: HashSet<usize> = (0..fib.len()).map(|i| fib.get(i).0.len()).collect();
        assert_eq!(sizes, HashSet::from([64, 594, 1518]), "IMIX sizes");
    }

    #[test]
    fn case_frames_interleave_own_and_use_case_traffic() {
        let own = base_frames(9, 1);
        let ecmp = case_frames(9, 0, 1, &own);
        assert_eq!(ecmp.len(), BURST);
        assert_eq!(ecmp.get(0), own.get(0));
        assert_eq!(ipv4_dst(ecmp.get(1).0), Some(ECMP_DST));
        let srv6 = case_frames(9, 1, 1, &own);
        assert_eq!(ipv6_dst(srv6.get(1).0), Some(SRV6_SID));
    }
}
