//! The linkage's JSON is pinned: the standard graph and the SRv6-linked
//! graph of Fig. 5(c) serialize to exactly the committed strings (those of
//! the name-keyed map representation), and a deserialized linkage parses
//! frames exactly like the one it was written from.

use ipsa_netpkt::builder::{self, Ipv6UdpSpec};
use ipsa_netpkt::linkage::HeaderLinkage;
use ipsa_netpkt::packet::Packet;
use ipsa_netpkt::protocols;

const STANDARD: &str = include_str!("data/linkage_standard.json");
const SRV6: &str = include_str!("data/linkage_srv6.json");

/// Fig. 5(c): IPv6 -> SRH (43), SRH -> IPv6 (41), SRH -> IPv4 (4).
fn srv6() -> HeaderLinkage {
    let mut g = HeaderLinkage::standard();
    g.link("ipv6", "srh", 43).unwrap();
    g.link("srh", "ipv6", 41).unwrap();
    g.link("srh", "ipv4", 4).unwrap();
    g
}

#[test]
fn standard_linkage_json_is_pinned() {
    let g = HeaderLinkage::standard();
    assert_eq!(serde_json::to_string(&g).unwrap(), STANDARD.trim_end());
    let back: HeaderLinkage = serde_json::from_str(STANDARD).unwrap();
    assert_eq!(back, g);
}

#[test]
fn srv6_linkage_json_is_pinned() {
    let g = srv6();
    assert_eq!(serde_json::to_string(&g).unwrap(), SRV6.trim_end());
    let back: HeaderLinkage = serde_json::from_str(SRV6).unwrap();
    assert_eq!(back, g);
    assert_eq!(back.edges(), g.edges());
}

/// IPv6 / SRH (two segments) / IPv6 / UDP: every SRv6 link is taken.
fn srv6_frame() -> Vec<u8> {
    let inner = builder::ipv6_udp_packet(&Ipv6UdpSpec {
        src_mac: 1,
        dst_mac: 2,
        src_ip: 0xfc00_0000_0000_0000_0000_0000_0000_0001,
        dst_ip: 0xfc00_0000_0000_0000_0000_0000_0000_0002,
        src_port: 7,
        dst_port: 8,
        hop_limit: 64,
        traffic_class: 0,
        payload: vec![9, 9, 9],
    })
    .data;
    let (eth, v6) = (14, 40);
    let srh_ty = protocols::srh();
    let mut srh = vec![0u8; 8 + 32];
    srh_ty.set(&mut srh, "next_header", 41).unwrap();
    srh_ty.set(&mut srh, "hdr_ext_len", 4).unwrap();
    let v6_ty = protocols::ipv6();
    let mut outer = inner[..eth + v6].to_vec();
    v6_ty.set(&mut outer[eth..], "next_hdr", 43).unwrap();
    outer.extend(srh);
    outer.extend(&inner[eth..]);
    outer
}

#[test]
fn deserialized_linkage_parses_like_the_original() {
    let g = srv6();
    let back: HeaderLinkage = serde_json::from_str(&serde_json::to_string(&g).unwrap()).unwrap();
    let frame = srv6_frame();
    for target in ["srh", "udp", "ipv4", "tcp"] {
        let mut a = Packet::new(frame.clone(), 0);
        let mut b = Packet::new(frame.clone(), 0);
        assert_eq!(a.ensure_parsed(&g, target), b.ensure_parsed(&back, target));
        assert_eq!(a.parsed(), b.parsed());
        assert_eq!(a.parse_extractions, b.parse_extractions);
    }
    let mut p = Packet::new(frame, 0);
    assert!(p.ensure_parsed(&back, "udp").unwrap());
    let chain: Vec<(&str, usize, usize)> = p
        .parsed()
        .iter()
        .map(|h| (h.ty.as_str(), h.offset, h.len))
        .collect();
    assert_eq!(
        chain,
        [
            ("ethernet", 0, 14),
            ("ipv6", 14, 40),
            ("srh", 54, 40),
            ("ipv6", 94, 40),
            ("udp", 134, 8)
        ]
    );
}
