//! On-demand parsing against a naive reference walker.
//!
//! The interpreter, the compiled fast path, the PISA baseline and the
//! equivalence checker's witnesses all parse through one loop,
//! `Packet::ensure_parsed_sym`, which walks the linkage's resolved parse
//! data. A differential suite between those executors cannot see a bug in
//! that shared loop, so this test holds it to a walker written from the
//! header descriptions alone (`HeaderType::fields`/`field_span`/`fixed_len`
//! and `bitfield::get_bits`), re-reading every type by name on every step.
//!
//! Each case runs random linkage edits (`link`, `unlink`, `unregister`,
//! re-`register` with changed fields, `set_first`) interleaved with
//! `ensure_parsed` of random targets and `parse_all` over random header
//! chains, runts and truncated frames, and compares return values, errors,
//! parse records and extraction counts after every step.

use ipsa_netpkt::bitfield::{get_bits, truncate_to_width};
use ipsa_netpkt::header::{FieldDef, HeaderError, HeaderType, ImplicitParser, ParserTransition};
use ipsa_netpkt::linkage::{HeaderLinkage, LinkageError};
use ipsa_netpkt::packet::{Packet, PacketError};
use ipsa_netpkt::protocols;
use proptest::prelude::*;
use proptest::test_runner::TestCaseError;
use rand::rngs::StdRng;
use rand::{RngCore, RngExt, SeedableRng};

/// Header types the cases draw from: the standard set, the SRH, a shim
/// header registered only at runtime, and a name never registered.
const NAMES: [&str; 9] = [
    "ethernet", "vlan", "ipv4", "ipv6", "srh", "tcp", "udp", "shim", "mystery",
];

/// Selector tags the edits link under.
const TAGS: [u128; 10] = [0x0800, 0x86dd, 0x8100, 43, 41, 4, 6, 17, 0x99, 0];

/// The reference walker's per-packet parse state.
#[derive(Debug, Clone, Default)]
struct Walker {
    parsed: Vec<(String, usize, usize)>,
    frontier: Option<(String, usize)>,
    extractions: u64,
}

fn bits_err(e: ipsa_netpkt::bitfield::BitfieldError) -> PacketError {
    PacketError::Header(HeaderError::Bits(e))
}

impl Walker {
    fn start(&mut self, g: &HeaderLinkage) -> Result<(), PacketError> {
        if self.parsed.is_empty() && self.frontier.is_none() {
            let first = g.first().ok_or(PacketError::NoFirstHeader)?;
            self.frontier = Some((first.to_string(), 0));
        }
        Ok(())
    }

    fn has(&self, name: &str) -> bool {
        self.parsed.iter().any(|(n, _, _)| n == name)
    }

    /// Extracts the frontier header and advances; returns its name.
    fn step(&mut self, g: &HeaderLinkage, data: &[u8]) -> Result<String, PacketError> {
        let (name, offset) = self.frontier.clone().expect("frontier set");
        let ty = g
            .get(&name)
            .ok_or_else(|| LinkageError::UnknownHeader(name.clone()))?;
        let fixed = ty.fixed_len()?;
        if offset + fixed > data.len() {
            return Err(PacketError::Truncated {
                header: name,
                offset,
                needed: fixed,
                available: data.len().saturating_sub(offset),
            });
        }
        let len = match &ty.var_len_field {
            None => fixed,
            Some(field) => {
                let (off, bits) = ty.field_span(field)?;
                let units = get_bits(&data[offset..], off, bits).map_err(bits_err)? as usize;
                fixed + units * ty.var_len_units
            }
        };
        if offset + len > data.len() {
            return Err(PacketError::Truncated {
                header: name,
                offset,
                needed: len,
                available: data.len() - offset,
            });
        }
        self.parsed.push((name.clone(), offset, len));
        self.extractions += 1;
        // A selector error leaves the frontier where it was: the header
        // stays recorded and the next request extracts it again.
        let mut next = None;
        if let Some(parser) = &ty.parser {
            let hdr = &data[offset..offset + len];
            let mut selector: u128 = 0;
            for field in &parser.selector_fields {
                let (off, bits) = ty.field_span(field)?;
                selector = (selector << bits) | get_bits(hdr, off, bits).map_err(bits_err)?;
            }
            next = parser
                .transitions
                .iter()
                .find(|t| t.tag == selector)
                .map(|t| (t.next.clone(), offset + len));
        }
        self.frontier = next;
        Ok(name)
    }

    fn ensure(
        &mut self,
        g: &HeaderLinkage,
        data: &[u8],
        target: &str,
    ) -> Result<bool, PacketError> {
        if self.has(target) {
            return Ok(true);
        }
        self.start(g)?;
        while self.frontier.is_some() {
            if self.step(g, data)? == target {
                return Ok(true);
            }
        }
        Ok(false)
    }

    /// Steps to the end of the chain, recording every header — a type
    /// the chain repeats (IPv6 / SRH / IPv6) once per occurrence.
    fn parse_all(&mut self, g: &HeaderLinkage, data: &[u8]) -> Result<usize, PacketError> {
        let before = self.parsed.len();
        self.start(g)?;
        while self.frontier.is_some() {
            self.step(g, data)?;
        }
        Ok(self.parsed.len() - before)
    }
}

fn byte(rng: &mut StdRng) -> u8 {
    rng.next_u64() as u8
}

fn pick<T: Copy>(rng: &mut StdRng, xs: &[T]) -> T {
    xs[rng.random_range(0..xs.len())]
}

/// A header registered only at runtime: one selector byte, one pad byte.
fn shim() -> HeaderType {
    HeaderType::new(
        "shim",
        vec![FieldDef::new("proto", 8), FieldDef::new("pad", 8)],
    )
    .with_parser(ImplicitParser {
        selector_fields: vec!["proto".into()],
        transitions: vec![ParserTransition {
            tag: protocols::PROTO_UDP,
            next: "udp".into(),
        }],
    })
}

fn base_type(name: &str) -> HeaderType {
    protocols::standard_headers()
        .into_iter()
        .chain([shim()])
        .find(|h| h.name == name)
        .unwrap_or_else(|| HeaderType::new(name, vec![FieldDef::new("x", 8)]))
}

/// `name`'s standard type, possibly with changed fields, selector or
/// var-length field — including variants the parse loop must reject.
fn variant(rng: &mut StdRng, name: &str) -> HeaderType {
    let mut ty = base_type(name);
    match rng.random_range(0u8..10) {
        // Longer by whole bytes: every later offset moves.
        1 => ty.fields.push(FieldDef::new("pad", pick(rng, &[8, 16]))),
        // Not byte aligned.
        2 => ty.fields.push(FieldDef::new("pad", 4)),
        // Selector names a missing field: errors after the push.
        3 => {
            ty.parser
                .get_or_insert_with(ImplicitParser::default)
                .selector_fields = vec!["nosuch".into()];
        }
        // Var-length field missing: errors before the push.
        4 => ty = ty.with_var_len("nosuch", 4),
        // Var-length on the first field (a real, byte-sized read).
        5 => {
            let first = ty.fields[0].name.clone();
            ty = ty.with_var_len(first, 1);
        }
        // Concatenated selector: the field twice.
        6 => {
            if let Some(p) = &mut ty.parser {
                let again = p.selector_fields.clone();
                p.selector_fields.extend(again);
            }
        }
        // Zero-width selector field: a bit-level error.
        7 => {
            ty.fields.push(FieldDef::new("z", 0));
            ty.parser
                .get_or_insert_with(ImplicitParser::default)
                .selector_fields = vec!["z".into()];
        }
        // A second transition under an existing tag: first match wins.
        8 => {
            if let Some(p) = &mut ty.parser {
                if let Some(tag) = p.transitions.first().map(|t| t.tag) {
                    let next = pick(rng, &NAMES).to_string();
                    p.transitions.push(ParserTransition { tag, next });
                    p.transitions.rotate_right(rng.random_range(0..2));
                }
            }
        }
        _ => {}
    }
    ty
}

/// Applies one random linkage edit. Edit errors are the linkage's own
/// business; only the parse results they lead to are compared.
fn edit(rng: &mut StdRng, g: &mut HeaderLinkage) {
    let a = pick(rng, &NAMES);
    let b = pick(rng, &NAMES);
    match rng.random_range(0u8..10) {
        0..=3 => {
            let _ = g.link(a, b, pick(rng, &TAGS));
        }
        4 => {
            let _ = g.unlink(a, b);
        }
        5 => {
            g.unregister(a);
        }
        6..=8 => g.register(variant(rng, a)),
        _ => {
            let first = if rng.random_range(0u8..4) == 0 {
                a
            } else {
                "ethernet"
            };
            let _ = g.set_first(first);
        }
    }
}

/// Successors a frame's header chain may take, with the tag that selects
/// each (as the standard linkage plus Fig. 5(c)'s SRv6 links define them).
fn successors(name: &str) -> &'static [(&'static str, u128)] {
    match name {
        "ethernet" => &[("ipv4", 0x0800), ("ipv6", 0x86dd), ("vlan", 0x8100)],
        "vlan" => &[("ipv4", 0x0800), ("ipv6", 0x86dd)],
        "ipv4" => &[("tcp", 6), ("udp", 17)],
        "ipv6" => &[("tcp", 6), ("udp", 17), ("srh", 43)],
        "srh" => &[("ipv4", 4), ("ipv6", 41), ("udp", 17), ("tcp", 6)],
        "shim" => &[("udp", 17)],
        _ => &[],
    }
}

/// A frame: a random header chain from Ethernet with selectors set to
/// reach each next header (sometimes a random, likely unlinked, value),
/// random field bytes and payload, sometimes cut short or pure noise.
fn frame(rng: &mut StdRng) -> Vec<u8> {
    if rng.random_range(0u8..16) == 0 {
        let n = rng.random_range(0usize..80);
        return (0..n).map(|_| byte(rng)).collect();
    }
    let mut data = Vec::new();
    let mut name = "ethernet";
    for _ in 0..8 {
        let ty = base_type(name);
        let start = data.len();
        let fixed = ty.fixed_len().expect("standard types are aligned");
        data.extend((0..fixed).map(|_| byte(rng)));
        let hdr = &mut data[start..];
        if name == "srh" {
            let units = rng.random_range(0u8..3);
            ty.set(hdr, "hdr_ext_len", units.into()).unwrap();
            data.extend(std::iter::repeat_n(0xab, usize::from(units) * 8));
        }
        let next = successors(name);
        let Some(parser) = &ty.parser else { break };
        if next.is_empty() {
            break;
        }
        let (to, tag) = pick(rng, next);
        let selector = &parser.selector_fields[0];
        let tag = if rng.random_range(0u8..8) == 0 {
            let (_, bits) = ty.field_span(selector).unwrap();
            truncate_to_width(rng.next_u64().into(), bits)
        } else {
            tag
        };
        ty.set(&mut data[start..], selector, tag).unwrap();
        name = to;
    }
    data.extend((0..rng.random_range(0usize..16)).map(|_| byte(rng)));
    if rng.random_range(0u8..3) == 0 {
        data.truncate(rng.random_range(0..data.len() + 1));
    }
    data
}

fn records(p: &Packet) -> Vec<(String, usize, usize)> {
    p.parsed()
        .iter()
        .map(|h| (h.ty.as_str().to_string(), h.offset, h.len))
        .collect()
}

/// One case: a linkage, then packets each taking a run of parse requests
/// with edits in between.
fn run_case(seed: u64) -> Result<(), TestCaseError> {
    let rng = &mut StdRng::seed_from_u64(seed);
    let mut g = HeaderLinkage::standard();
    if rng.random_range(0u8..2) == 0 {
        for (pre, next, tag) in [
            ("ipv6", "srh", 43),
            ("srh", "ipv6", 41),
            ("srh", "ipv4", 4),
            ("srh", "udp", 17),
        ] {
            g.link(pre, next, tag).unwrap();
        }
    }
    for _ in 0..rng.random_range(0u8..4) {
        edit(rng, &mut g);
    }
    for _ in 0..4 {
        let data = frame(rng);
        let mut pkt = Packet::new(data.clone(), 0);
        let mut walker = Walker::default();
        for step in 0..rng.random_range(1u8..6) {
            match rng.random_range(0u8..8) {
                0 => edit(rng, &mut g),
                1 => {
                    let want = walker.parse_all(&g, &data);
                    let got = pkt.parse_all(&g);
                    prop_assert_eq!(got, want, "seed {} step {} parse_all", seed, step);
                }
                _ => {
                    let target = pick(rng, &NAMES);
                    let want = walker.ensure(&g, &data, target);
                    let got = pkt.ensure_parsed(&g, target);
                    prop_assert_eq!(got, want, "seed {} step {} ensure {}", seed, step, target);
                }
            }
            prop_assert_eq!(records(&pkt), walker.parsed.clone(), "seed {}", seed);
            prop_assert_eq!(pkt.parse_extractions, walker.extractions, "seed {}", seed);
        }
    }
    Ok(())
}

proptest! {
    #[test]
    fn parse_loop_matches_reference_walker(seed in any::<u64>()) {
        run_case(seed)?;
    }
}

#[test]
fn unknown_next_header_errors_on_the_following_step() {
    // IPv6 re-registered with a link to a type that is not registered:
    // IPv6 itself parses, the step after it fails by name.
    let mut g = HeaderLinkage::standard();
    let mut v6 = protocols::ipv6();
    v6.parser
        .as_mut()
        .unwrap()
        .transitions
        .push(ParserTransition {
            tag: 43,
            next: "shim".into(),
        });
    g.register(v6);
    let shim_chain = [("ethernet", 0x86dd), ("ipv6", 43), ("shim", 17)];
    let mut pkt = Packet::new(frame_through(&shim_chain), 0);
    let unknown = Err(PacketError::Linkage(LinkageError::UnknownHeader(
        "shim".into(),
    )));
    assert_eq!(pkt.ensure_parsed(&g, "udp"), unknown);
    assert_eq!(pkt.parse_extractions, 2);

    // Registered, the chain runs through it.
    g.register(shim());
    let mut pkt = Packet::new(frame_through(&shim_chain), 0);
    assert!(pkt.ensure_parsed(&g, "ipv6").unwrap());
    assert!(pkt.ensure_parsed(&g, "udp").unwrap());
    assert_eq!(pkt.parse_extractions, 4);

    // A frontier resolved before its type is unregistered errors by name.
    let mut pkt = Packet::new(frame_through(&shim_chain), 0);
    assert!(pkt.ensure_parsed(&g, "ipv6").unwrap());
    g.unregister("shim");
    assert_eq!(pkt.ensure_parsed(&g, "udp"), unknown);

    // Unregistering took the link with it: a fresh packet's chain ends.
    let mut pkt = Packet::new(frame_through(&shim_chain), 0);
    assert!(!pkt.ensure_parsed(&g, "udp").unwrap());
    assert_eq!(pkt.parse_extractions, 2);
}

/// Fig. 5(c)'s SRv6 links on the standard linkage.
fn srv6_linkage() -> HeaderLinkage {
    let mut g = HeaderLinkage::standard();
    g.register(protocols::srh());
    for (pre, next, tag) in [("ipv6", "srh", 43), ("srh", "ipv6", 41), ("srh", "udp", 17)] {
        g.link(pre, next, tag).unwrap();
    }
    g
}

/// Regression: `parse_all` on a chain that repeats a header type used to
/// spin forever — it asked `ensure_parsed` for the frontier header, which
/// was already parsed and so never advanced. It now parses to the end of
/// the chain and records both IPv6 headers, in wire order; lookups by
/// type see the outer one, as on-demand parsing does.
#[test]
fn parse_all_walks_a_chain_that_repeats_a_header_type() {
    let g = srv6_linkage();
    let chain = [
        ("ethernet", 0x86dd),
        ("ipv6", 43),
        ("srh", 41),
        ("ipv6", 17),
        ("udp", 0),
    ];
    let data = frame_through(&chain);
    let mut pkt = Packet::new(data.clone(), 0);
    assert_eq!(pkt.parse_all(&g), Ok(5));
    let names: Vec<_> = pkt.parsed().iter().map(|h| h.ty.as_str()).collect();
    assert_eq!(names, ["ethernet", "ipv6", "srh", "ipv6", "udp"]);
    assert_eq!(pkt.parsed()[1].offset, 14);
    assert_eq!(pkt.get_field(&g, "ipv6", "next_hdr"), Ok(43));
    assert_eq!(pkt.parse_all(&g), Ok(0), "a parsed chain stays parsed");

    let mut walker = Walker::default();
    assert_eq!(walker.parse_all(&g, &data), Ok(5));
    assert_eq!(records(&pkt), walker.parsed);

    // On demand, the inner IPv6 is never needed: UDP is found through it.
    let mut lazy = Packet::new(data, 0);
    assert_eq!(lazy.ensure_parsed(&g, "udp"), Ok(true));
    assert_eq!(records(&lazy), records(&pkt));
}

/// Headers of the given types back to back, each selector set to the
/// paired tag (ignored for a header with no parser), all other bytes zero,
/// plus eight payload bytes.
fn frame_through(chain: &[(&str, u128)]) -> Vec<u8> {
    let mut data = Vec::new();
    for &(name, tag) in chain {
        let ty = base_type(name);
        let start = data.len();
        data.resize(start + ty.fixed_len().unwrap(), 0);
        if let Some(parser) = &ty.parser {
            ty.set(&mut data[start..], &parser.selector_fields[0], tag)
                .unwrap();
        }
    }
    data.extend([0u8; 8]);
    data
}
