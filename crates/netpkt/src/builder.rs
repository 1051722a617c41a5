//! Convenience constructors for well-formed test/bench packets.
//!
//! The behavioral models accept any byte soup; these builders produce the
//! realistic L2/L3/L4 packets the evaluation traffic generators emit.
//! Traffic generators call them once per frame, so each writes its
//! headers' bytes at their fixed offsets into one buffer sized for the
//! frame, and none constructs a `HeaderType`.

use crate::checksum;
use crate::packet::Packet;
use crate::protocols::{ETHERTYPE_IPV4, ETHERTYPE_IPV6, PROTO_SRH, PROTO_UDP};

/// Parameters for an Ethernet/IPv4/UDP packet.
#[derive(Debug, Clone)]
pub struct Ipv4UdpSpec {
    /// Source MAC (low 48 bits used).
    pub src_mac: u64,
    /// Destination MAC (low 48 bits used).
    pub dst_mac: u64,
    /// Source IPv4 address.
    pub src_ip: u32,
    /// Destination IPv4 address.
    pub dst_ip: u32,
    /// UDP source port.
    pub src_port: u16,
    /// UDP destination port.
    pub dst_port: u16,
    /// Initial TTL.
    pub ttl: u8,
    /// DSCP codepoint (6 bits).
    pub dscp: u8,
    /// UDP payload bytes.
    pub payload: Vec<u8>,
}

impl Default for Ipv4UdpSpec {
    fn default() -> Self {
        Self {
            src_mac: 0x02_00_00_00_00_01,
            dst_mac: 0x02_00_00_00_00_02,
            src_ip: 0x0a00_0001,
            dst_ip: 0x0a00_0002,
            src_port: 1234,
            dst_port: 4321,
            ttl: 64,
            dscp: 0,
            payload: vec![0xAB; 16],
        }
    }
}

/// Parameters for an Ethernet/IPv6/UDP packet.
#[derive(Debug, Clone)]
pub struct Ipv6UdpSpec {
    /// Source MAC (low 48 bits used).
    pub src_mac: u64,
    /// Destination MAC (low 48 bits used).
    pub dst_mac: u64,
    /// Source IPv6 address.
    pub src_ip: u128,
    /// Destination IPv6 address.
    pub dst_ip: u128,
    /// UDP source port.
    pub src_port: u16,
    /// UDP destination port.
    pub dst_port: u16,
    /// Initial hop limit.
    pub hop_limit: u8,
    /// Traffic class byte (DSCP in the top 6 bits).
    pub traffic_class: u8,
    /// UDP payload bytes.
    pub payload: Vec<u8>,
}

impl Default for Ipv6UdpSpec {
    fn default() -> Self {
        Self {
            src_mac: 0x02_00_00_00_00_01,
            dst_mac: 0x02_00_00_00_00_02,
            src_ip: 0xfc00_0000_0000_0000_0000_0000_0000_0001,
            dst_ip: 0xfc00_0000_0000_0000_0000_0000_0000_0002,
            src_port: 1234,
            dst_port: 4321,
            hop_limit: 64,
            traffic_class: 0,
            payload: vec![0xCD; 16],
        }
    }
}

/// A header length field's value, which must fit its 16 bits.
fn len16(len: usize, what: &str) -> [u8; 2] {
    u16::try_from(len)
        .unwrap_or_else(|_| panic!("{what} {len} does not fit 16 bits"))
        .to_be_bytes()
}

/// Appends an Ethernet header (the MACs' low 48 bits).
fn push_eth(b: &mut Vec<u8>, dst_mac: u64, src_mac: u64, ethertype: u128) {
    b.extend_from_slice(&dst_mac.to_be_bytes()[2..]);
    b.extend_from_slice(&src_mac.to_be_bytes()[2..]);
    b.extend_from_slice(&(ethertype as u16).to_be_bytes());
}

/// Appends a UDP header (checksum 0) and its payload.
fn push_udp(b: &mut Vec<u8>, src_port: u16, dst_port: u16, payload: &[u8]) {
    b.extend_from_slice(&src_port.to_be_bytes());
    b.extend_from_slice(&dst_port.to_be_bytes());
    b.extend_from_slice(&len16(8 + payload.len(), "UDP length"));
    b.extend_from_slice(&[0, 0]);
    b.extend_from_slice(payload);
}

/// Appends an SRH over `segments`; see [`srh_bytes`].
fn push_srh(b: &mut Vec<u8>, next_header: u8, segments: &[u128]) {
    let last = segments.len().saturating_sub(1);
    let ext_len = u8::try_from(2 * segments.len()).expect("SRH holds at most 127 segments");
    b.extend_from_slice(&[next_header, ext_len, 4, last as u8, last as u8, 0, 0, 0]);
    for seg in segments {
        b.extend_from_slice(&seg.to_be_bytes());
    }
}

/// Builds an Ethernet/IPv4/UDP packet with a correct IPv4 header checksum.
pub fn ipv4_udp_packet(spec: &Ipv4UdpSpec) -> Packet {
    let udp_len = 8 + spec.payload.len();
    let mut b = Vec::with_capacity(14 + 20 + udp_len);
    push_eth(&mut b, spec.dst_mac, spec.src_mac, ETHERTYPE_IPV4);
    // version 4, ihl 5; dscp, ecn 0; total length; identification, flags
    // and fragment offset 0; ttl; protocol; checksum (filled below).
    b.extend_from_slice(&[0x45, (spec.dscp & 0x3F) << 2]);
    b.extend_from_slice(&len16(20 + udp_len, "IPv4 total length"));
    b.extend_from_slice(&[0, 0, 0, 0, spec.ttl, PROTO_UDP as u8, 0, 0]);
    b.extend_from_slice(&spec.src_ip.to_be_bytes());
    b.extend_from_slice(&spec.dst_ip.to_be_bytes());
    let ck = checksum::ipv4_header_checksum(&b[14..34]);
    b[24..26].copy_from_slice(&ck.to_be_bytes());
    push_udp(&mut b, spec.src_port, spec.dst_port, &spec.payload);
    Packet::new(b, 0)
}

/// An Ethernet/IPv6/UDP frame, with an SRH over `segments` between the
/// IPv6 header and UDP when there is one.
fn ipv6_frame(spec: &Ipv6UdpSpec, segments: Option<&[u128]>) -> Packet {
    let srh_len = segments.map_or(0, |s| 8 + 16 * s.len());
    let udp_len = 8 + spec.payload.len();
    let mut b = Vec::with_capacity(14 + 40 + srh_len + udp_len);
    push_eth(&mut b, spec.dst_mac, spec.src_mac, ETHERTYPE_IPV6);
    // version 6, traffic class, flow label 0.
    b.extend_from_slice(&((6u32 << 28) | (spec.traffic_class as u32) << 20).to_be_bytes());
    b.extend_from_slice(&len16(srh_len + udp_len, "IPv6 payload length"));
    let next_hdr = if segments.is_some() {
        PROTO_SRH
    } else {
        PROTO_UDP
    };
    b.extend_from_slice(&[next_hdr as u8, spec.hop_limit]);
    b.extend_from_slice(&spec.src_ip.to_be_bytes());
    b.extend_from_slice(&spec.dst_ip.to_be_bytes());
    if let Some(segments) = segments {
        push_srh(&mut b, PROTO_UDP as u8, segments);
    }
    push_udp(&mut b, spec.src_port, spec.dst_port, &spec.payload);
    Packet::new(b, 0)
}

/// Builds an Ethernet/IPv6/UDP packet.
pub fn ipv6_udp_packet(spec: &Ipv6UdpSpec) -> Packet {
    ipv6_frame(spec, None)
}

/// Builds the SRH bytes for a segment list (most SRv6 test traffic carries
/// 1–3 segments). `segments[0]` is the *last* segment entered in the list,
/// per RFC 8754 ordering; `segments_left` starts at `segments.len() - 1`.
pub fn srh_bytes(next_header: u8, segments: &[u128]) -> Vec<u8> {
    let mut b = Vec::with_capacity(8 + 16 * segments.len());
    push_srh(&mut b, next_header, segments);
    b
}

/// Builds an Ethernet/IPv6+SRH/UDP packet (SRv6 traffic for use case C2).
pub fn srv6_packet(spec: &Ipv6UdpSpec, segments: &[u128]) -> Packet {
    ipv6_frame(spec, Some(segments))
}

/// Reads a segment (by index, RFC order) from a parsed SRH located at
/// `srh_off` in `data`.
pub fn srh_segment(data: &[u8], srh_off: usize, index: usize) -> u128 {
    let off = srh_off + 8 + 16 * index;
    u128::from_be_bytes(data[off..off + 16].try_into().expect("segment in range"))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::linkage::HeaderLinkage;
    use crate::protocols;
    use proptest::prelude::*;

    /// The builders' reference encoding: every field set by name through
    /// its `HeaderType`, and the SRH spliced into a built IPv6 frame.
    mod reference {
        use super::*;

        fn eth_bytes(dst_mac: u64, src_mac: u64, ethertype: u16) -> Vec<u8> {
            let eth = protocols::ethernet();
            let mut b = vec![0u8; 14];
            eth.set(&mut b, "dst_addr", dst_mac as u128 & 0xFFFF_FFFF_FFFF)
                .unwrap();
            eth.set(&mut b, "src_addr", src_mac as u128 & 0xFFFF_FFFF_FFFF)
                .unwrap();
            eth.set(&mut b, "ethertype", ethertype as u128).unwrap();
            b
        }

        fn udp_bytes(src_port: u16, dst_port: u16, udp_len: usize) -> Vec<u8> {
            let udp = protocols::udp();
            let mut u = vec![0u8; 8];
            udp.set(&mut u, "src_port", src_port as u128).unwrap();
            udp.set(&mut u, "dst_port", dst_port as u128).unwrap();
            udp.set(&mut u, "length", udp_len as u128).unwrap();
            u
        }

        pub fn ipv4_udp(spec: &Ipv4UdpSpec) -> Vec<u8> {
            let ipv4 = protocols::ipv4();
            let udp_len = 8 + spec.payload.len();
            let mut ip = vec![0u8; 20];
            ipv4.set(&mut ip, "version", 4).unwrap();
            ipv4.set(&mut ip, "ihl", 5).unwrap();
            ipv4.set(&mut ip, "total_len", (20 + udp_len) as u128)
                .unwrap();
            ipv4.set(&mut ip, "dscp", (spec.dscp & 0x3F) as u128)
                .unwrap();
            ipv4.set(&mut ip, "ttl", spec.ttl as u128).unwrap();
            ipv4.set(&mut ip, "protocol", protocols::PROTO_UDP).unwrap();
            ipv4.set(&mut ip, "src_addr", spec.src_ip as u128).unwrap();
            ipv4.set(&mut ip, "dst_addr", spec.dst_ip as u128).unwrap();
            let ck = checksum::ipv4_header_checksum(&ip);
            ipv4.set(&mut ip, "hdr_checksum", ck as u128).unwrap();
            let mut data = eth_bytes(spec.dst_mac, spec.src_mac, ETHERTYPE_IPV4 as u16);
            data.extend_from_slice(&ip);
            data.extend_from_slice(&udp_bytes(spec.src_port, spec.dst_port, udp_len));
            data.extend_from_slice(&spec.payload);
            data
        }

        pub fn ipv6_udp(spec: &Ipv6UdpSpec) -> Vec<u8> {
            let ipv6 = protocols::ipv6();
            let udp_len = 8 + spec.payload.len();
            let mut ip = vec![0u8; 40];
            ipv6.set(&mut ip, "version", 6).unwrap();
            ipv6.set(&mut ip, "traffic_class", spec.traffic_class as u128)
                .unwrap();
            ipv6.set(&mut ip, "payload_len", udp_len as u128).unwrap();
            ipv6.set(&mut ip, "next_hdr", protocols::PROTO_UDP).unwrap();
            ipv6.set(&mut ip, "hop_limit", spec.hop_limit as u128)
                .unwrap();
            ipv6.set(&mut ip, "src_addr", spec.src_ip).unwrap();
            ipv6.set(&mut ip, "dst_addr", spec.dst_ip).unwrap();
            let mut data = eth_bytes(spec.dst_mac, spec.src_mac, ETHERTYPE_IPV6 as u16);
            data.extend_from_slice(&ip);
            data.extend_from_slice(&udp_bytes(spec.src_port, spec.dst_port, udp_len));
            data.extend_from_slice(&spec.payload);
            data
        }

        pub fn srh(next_header: u8, segments: &[u128]) -> Vec<u8> {
            let srh = protocols::srh();
            let last = segments.len().saturating_sub(1) as u128;
            let mut b = vec![0u8; 8 + 16 * segments.len()];
            srh.set(&mut b, "next_header", next_header as u128).unwrap();
            srh.set(&mut b, "hdr_ext_len", (2 * segments.len()) as u128)
                .unwrap();
            srh.set(&mut b, "routing_type", 4).unwrap();
            srh.set(&mut b, "segments_left", last).unwrap();
            srh.set(&mut b, "last_entry", last).unwrap();
            for (i, seg) in segments.iter().enumerate() {
                let off = 8 + 16 * i;
                b[off..off + 16].copy_from_slice(&seg.to_be_bytes());
            }
            b
        }

        pub fn srv6(spec: &Ipv6UdpSpec, segments: &[u128]) -> Vec<u8> {
            let ipv6 = protocols::ipv6();
            let mut data = ipv6_udp(spec);
            let srh = srh(protocols::PROTO_UDP as u8, segments);
            let srh_len = srh.len();
            data.splice(54..54, srh);
            let ip = &mut data[14..54];
            ipv6.set(ip, "next_hdr", protocols::PROTO_SRH).unwrap();
            let old_len = ipv6.get(ip, "payload_len").unwrap();
            ipv6.set(ip, "payload_len", old_len + srh_len as u128)
                .unwrap();
            data
        }
    }

    proptest! {
        /// Every builder's bytes equal the field-by-field `HeaderType`
        /// encoding, over random specs and segment lists.
        #[test]
        fn builders_match_header_type_encoding(
            src_mac in any::<u64>(),
            dst_mac in any::<u64>(),
            v4 in (any::<u32>(), any::<u32>()),
            v6 in (any::<u128>(), any::<u128>()),
            ports in (any::<u16>(), any::<u16>()),
            ttl in any::<u8>(),
            tos in any::<u8>(),
            payload in proptest::collection::vec(any::<u8>(), 0..80),
            segments in proptest::collection::vec(any::<u128>(), 0..5),
        ) {
            let s4 = Ipv4UdpSpec {
                src_mac, dst_mac, src_ip: v4.0, dst_ip: v4.1, src_port: ports.0,
                dst_port: ports.1, ttl, dscp: tos, payload: payload.clone(),
            };
            prop_assert_eq!(ipv4_udp_packet(&s4).data, reference::ipv4_udp(&s4));
            let s6 = Ipv6UdpSpec {
                src_mac, dst_mac, src_ip: v6.0, dst_ip: v6.1, src_port: ports.0,
                dst_port: ports.1, hop_limit: ttl, traffic_class: tos, payload,
            };
            prop_assert_eq!(ipv6_udp_packet(&s6).data, reference::ipv6_udp(&s6));
            prop_assert_eq!(srh_bytes(ttl, &segments), reference::srh(ttl, &segments));
            prop_assert_eq!(
                srv6_packet(&s6, &segments).data,
                reference::srv6(&s6, &segments)
            );
        }
    }

    #[test]
    fn ipv4_packet_is_well_formed() {
        let p = ipv4_udp_packet(&Ipv4UdpSpec::default());
        assert_eq!(p.len(), 14 + 20 + 8 + 16);
        assert!(checksum::ipv4_checksum_ok(&p.data[14..34]));
    }

    #[test]
    fn dscp_lands_in_the_tos_byte_before_checksumming() {
        let p = ipv4_udp_packet(&Ipv4UdpSpec {
            dscp: 46,
            ..Default::default()
        });
        assert_eq!(p.data[15] >> 2, 46);
        assert!(checksum::ipv4_checksum_ok(&p.data[14..34]));
        let p6 = ipv6_udp_packet(&Ipv6UdpSpec {
            traffic_class: 46 << 2,
            ..Default::default()
        });
        let tc = ((p6.data[14] & 0x0F) << 4) | (p6.data[15] >> 4);
        assert_eq!(tc >> 2, 46);
    }

    #[test]
    fn ipv6_packet_parses_to_udp() {
        let linkage = HeaderLinkage::standard();
        let mut p = ipv6_udp_packet(&Ipv6UdpSpec::default());
        assert!(p.ensure_parsed(&linkage, "udp").unwrap());
    }

    #[test]
    fn srv6_packet_parses_with_runtime_links() {
        let mut linkage = HeaderLinkage::standard();
        linkage.link("ipv6", "srh", 43).unwrap();
        linkage.link("srh", "udp", 17).unwrap();
        let segs = [0xfc00_0000_0000_0000_0000_0000_0000_00aa_u128, 0xbb];
        let mut p = srv6_packet(&Ipv6UdpSpec::default(), &segs);
        assert!(p.ensure_parsed(&linkage, "udp").unwrap());
        assert!(p.is_valid("srh"));
        let srh_off = p
            .parsed()
            .iter()
            .find(|h| h.ty == "srh")
            .map(|h| h.offset)
            .unwrap();
        assert_eq!(srh_segment(&p.data, srh_off, 0), segs[0]);
        assert_eq!(srh_segment(&p.data, srh_off, 1), segs[1]);
    }

    #[test]
    fn srv6_packet_unparseable_without_links() {
        // Before C2 loads, the device cannot walk past the SRH: the probe
        // for `udp` ends at the unlinked SRH.
        let linkage = HeaderLinkage::standard();
        let mut p = srv6_packet(&Ipv6UdpSpec::default(), &[0xaa]);
        assert!(!p.ensure_parsed(&linkage, "udp").unwrap());
        assert!(!p.is_valid("srh"));
    }
}
