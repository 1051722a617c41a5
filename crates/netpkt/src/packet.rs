//! Packets, packet metadata, and distributed on-demand parsing.
//!
//! IPSA has no front-end parser: each Templated Stage Processor parses just
//! the headers it needs, and parse results travel with the packet so later
//! stages never re-parse ([`Packet::ensure_parsed`] is memoized through
//! [`Packet::parsed`]). This module is the substrate for that behaviour.
//!
//! Per-packet state is designed for the compiled fast path: header names in
//! the parse record are interned [`Sym`]s (integer compares, `Copy`
//! frontier), and user metadata is a dense `Vec<u128>` indexed by the
//! process-wide metadata id space (see [`crate::intern`]) rather than a
//! `HashMap<String, u128>`. The name-based accessors remain as a thin
//! resolve layer for control-plane code and tests.

use std::collections::BTreeMap;

use serde::{Deserialize, Serialize};

use crate::bitfield::BitfieldError;
use crate::header::HeaderError;
use crate::intern::{meta_count, meta_id, meta_id_lookup, meta_name, Sym};
use crate::linkage::{HeaderLinkage, LinkageError};

/// Record of one parsed header instance inside a packet.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct ParsedHeader {
    /// Header type name (interned; serializes as the string).
    pub ty: Sym,
    /// Byte offset of the header within the packet data.
    pub offset: usize,
    /// Byte length of this instance (variable-length headers resolved).
    pub len: usize,
}

/// Errors from packet operations.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum PacketError {
    /// The named header has not been parsed / is not present.
    HeaderNotPresent(String),
    /// The packet data ended before the header could be fully parsed.
    Truncated {
        /// Header being parsed when data ran out.
        header: String,
        /// Offset at which it started.
        offset: usize,
        /// Bytes it needed.
        needed: usize,
        /// Bytes available.
        available: usize,
    },
    /// No linkage path from the parse frontier leads to the target header.
    Unreachable(String),
    /// Linkage-level failure.
    Linkage(LinkageError),
    /// Header-level failure.
    Header(HeaderError),
    /// Bit-level failure.
    Bits(BitfieldError),
    /// Tried to parse a packet but the linkage has no first header set.
    NoFirstHeader,
}

impl std::fmt::Display for PacketError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            PacketError::HeaderNotPresent(h) => write!(f, "header `{h}` not present in packet"),
            PacketError::Truncated {
                header,
                offset,
                needed,
                available,
            } => write!(
                f,
                "packet truncated parsing `{header}` at offset {offset}: need {needed} bytes, have {available}"
            ),
            PacketError::Unreachable(h) => {
                write!(f, "header `{h}` unreachable from parse frontier")
            }
            PacketError::Linkage(e) => write!(f, "{e}"),
            PacketError::Header(e) => write!(f, "{e}"),
            PacketError::Bits(e) => write!(f, "{e}"),
            PacketError::NoFirstHeader => write!(f, "linkage graph has no first header configured"),
        }
    }
}

impl std::error::Error for PacketError {}

impl From<LinkageError> for PacketError {
    fn from(e: LinkageError) -> Self {
        PacketError::Linkage(e)
    }
}
impl From<HeaderError> for PacketError {
    fn from(e: HeaderError) -> Self {
        PacketError::Header(e)
    }
}
impl From<BitfieldError> for PacketError {
    fn from(e: BitfieldError) -> Self {
        PacketError::Bits(e)
    }
}

/// Per-packet metadata: intrinsic forwarding state plus the user-defined
/// metadata struct of the loaded rP4 program (dynamic, since programs load
/// at runtime).
///
/// User fields live in a dense vector indexed by the process-wide metadata
/// id space ([`crate::intern::meta_id`]); zero and "unset" are the same
/// value, matching uninitialized P4 metadata. Equality and serialization
/// therefore ignore trailing/zero entries.
#[derive(Debug, Clone, Default)]
pub struct Metadata {
    /// Port the packet arrived on.
    pub ingress_port: u16,
    /// Port chosen for emission; `None` until a forwarding decision is made.
    pub egress_port: Option<u16>,
    /// Set when the packet should be discarded.
    pub drop: bool,
    /// Mark value (used by the C3 flow probe to flag packets for the
    /// controller).
    pub mark: u128,
    user: Vec<u128>,
}

impl PartialEq for Metadata {
    fn eq(&self, other: &Self) -> bool {
        if self.ingress_port != other.ingress_port
            || self.egress_port != other.egress_port
            || self.drop != other.drop
            || self.mark != other.mark
        {
            return false;
        }
        let n = self.user.len().max(other.user.len());
        (0..n).all(|i| {
            self.user.get(i).copied().unwrap_or(0) == other.user.get(i).copied().unwrap_or(0)
        })
    }
}
impl Eq for Metadata {}

/// Wire shape of [`Metadata`]: user fields as a (sorted) name → value map,
/// the same JSON the previous `HashMap` representation produced. Zero
/// fields are omitted (zero ≡ unset).
#[derive(Serialize, Deserialize)]
struct MetadataWire {
    ingress_port: u16,
    egress_port: Option<u16>,
    drop: bool,
    mark: u128,
    user: BTreeMap<String, u128>,
}

impl Serialize for Metadata {
    fn to_content(&self) -> serde::Content {
        MetadataWire {
            ingress_port: self.ingress_port,
            egress_port: self.egress_port,
            drop: self.drop,
            mark: self.mark,
            user: self
                .user_fields()
                .into_iter()
                .map(|(k, v)| (k.to_string(), v))
                .collect(),
        }
        .to_content()
    }
}

impl Deserialize for Metadata {
    fn from_content(c: &serde::Content) -> Result<Self, serde::DeError> {
        let wire = MetadataWire::from_content(c)?;
        let mut m = Metadata {
            ingress_port: wire.ingress_port,
            egress_port: wire.egress_port,
            drop: wire.drop,
            mark: wire.mark,
            user: Vec::new(),
        };
        for (k, v) in wire.user {
            m.set(&k, v);
        }
        Ok(m)
    }
}

impl Metadata {
    /// Reads a metadata field by name. Intrinsics (`ingress_port`,
    /// `egress_port`, `drop`, `mark`) are addressable alongside user fields;
    /// unset user fields read as 0, matching uninitialized P4 metadata.
    pub fn get(&self, name: &str) -> u128 {
        match name {
            "ingress_port" => self.ingress_port as u128,
            "egress_port" => self.egress_port.map(|p| p as u128).unwrap_or(0),
            "drop" => self.drop as u128,
            "mark" => self.mark,
            _ => match meta_id_lookup(name) {
                Some(id) => self.get_user(id),
                None => 0,
            },
        }
    }

    /// Writes a metadata field by name.
    pub fn set(&mut self, name: &str, value: u128) {
        match name {
            "ingress_port" => self.ingress_port = value as u16,
            "egress_port" => self.egress_port = Some(value as u16),
            "drop" => self.drop = value != 0,
            "mark" => self.mark = value,
            _ => self.set_user(meta_id(name), value),
        }
    }

    /// Reads a user field by its dense metadata id (the fast path — no
    /// name resolution, no allocation).
    #[inline]
    pub fn get_user(&self, id: u32) -> u128 {
        self.user.get(id as usize).copied().unwrap_or(0)
    }

    /// Writes a user field by its dense metadata id. Grows the vector only
    /// when a packet predates the field's definition; [`Metadata::presize`]
    /// at packet-construction time avoids that on the steady-state path.
    #[inline]
    pub fn set_user(&mut self, id: u32, value: u128) {
        let idx = id as usize;
        if idx >= self.user.len() {
            self.user.resize(idx + 1, 0);
        }
        self.user[idx] = value;
    }

    /// Grows the user vector to cover every metadata field defined so far,
    /// so subsequent [`Metadata::set_user`] calls never reallocate.
    pub fn presize(&mut self) {
        let n = meta_count();
        if self.user.len() < n {
            self.user.resize(n, 0);
        }
    }

    /// Resets every field to the freshly-constructed state while keeping
    /// the user vector's backing storage, so a recycled packet's metadata
    /// writes never reallocate (see [`crate::arena::PacketArena`]).
    pub fn reset(&mut self) {
        self.ingress_port = 0;
        self.egress_port = None;
        self.drop = false;
        self.mark = 0;
        self.user.fill(0);
        self.presize();
    }

    /// Iterates user-defined fields with nonzero values (sorted by name,
    /// for deterministic debugging). Zero ≡ unset, so zero-valued fields
    /// are not reported.
    pub fn user_fields(&self) -> Vec<(&'static str, u128)> {
        let mut v: Vec<_> = self
            .user
            .iter()
            .enumerate()
            .filter(|(_, &x)| x != 0)
            .map(|(i, &x)| (meta_name(i as u32), x))
            .collect();
        v.sort();
        v
    }
}

/// A packet: raw bytes, metadata, and the memoized parse state.
#[derive(Debug, Clone, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct Packet {
    /// Raw packet bytes.
    pub data: Vec<u8>,
    /// Forwarding metadata.
    pub meta: Metadata,
    parsed: Vec<ParsedHeader>,
    /// Next unparsed header (type, byte offset); `None` either before
    /// parsing starts (when `parsed` is empty) or after the chain ended.
    frontier: Option<(Sym, usize)>,
    /// Total header extractions performed on this packet — the measure of
    /// parsing work for the distributed-parsing evaluation.
    pub parse_extractions: u64,
}

/// Parse-record capacity reserved at packet construction; deep enough for
/// any realistic header chain, so extraction never grows the vector.
const PARSED_CAPACITY: usize = 8;

impl Packet {
    /// Wraps raw bytes arriving on `port`. Pre-sizes the parse record and
    /// the metadata vector so steady-state pipeline processing does not
    /// allocate.
    pub fn new(data: Vec<u8>, port: u16) -> Self {
        let mut p = Packet {
            data,
            parsed: Vec::with_capacity(PARSED_CAPACITY),
            ..Default::default()
        };
        p.meta.ingress_port = port;
        p.meta.presize();
        p
    }

    /// Clears every per-packet state field while keeping all backing
    /// storage (data bytes, parse record, metadata vector), returning the
    /// packet to the state [`Packet::new`] would produce — minus the
    /// allocations. The recycling path of
    /// [`crate::arena::PacketArena`].
    pub fn reset_for_reuse(&mut self) {
        self.data.clear();
        self.meta.reset();
        self.parsed.clear();
        self.frontier = None;
        self.parse_extractions = 0;
    }

    /// Packet length in bytes.
    pub fn len(&self) -> usize {
        self.data.len()
    }

    /// True when the packet holds no bytes.
    pub fn is_empty(&self) -> bool {
        self.data.is_empty()
    }

    /// Headers parsed so far, in wire order.
    pub fn parsed(&self) -> &[ParsedHeader] {
        &self.parsed
    }

    /// Whether `header` has been parsed and is present.
    pub fn is_valid(&self, header: &str) -> bool {
        match Sym::lookup(header) {
            Some(s) => self.is_valid_sym(s),
            // Never interned ⇒ never parsed anywhere in this process.
            None => false,
        }
    }

    /// [`Packet::is_valid`] with a pre-interned name (one integer compare
    /// per parsed header).
    #[inline]
    pub fn is_valid_sym(&self, header: Sym) -> bool {
        self.parsed.iter().any(|h| h.ty == header)
    }

    /// Finds the parse record of `header`, if present.
    #[inline]
    pub fn find_sym(&self, header: Sym) -> Option<&ParsedHeader> {
        self.parsed.iter().find(|h| h.ty == header)
    }

    fn find(&self, header: &str) -> Option<&ParsedHeader> {
        Sym::lookup(header).and_then(|s| self.find_sym(s))
    }

    /// Parses forward through the linkage graph until `target` has been
    /// extracted. Returns `Ok(true)` if the header is (now) present,
    /// `Ok(false)` if the packet simply does not contain it (the chain ended
    /// first — not an error: a v4-only stage probing for `ipv6` must be a
    /// no-op on v4 traffic).
    ///
    /// Already-parsed headers are never re-extracted; this is the
    /// "parsed headers are passed to later pipeline stages" invariant.
    pub fn ensure_parsed(
        &mut self,
        linkage: &HeaderLinkage,
        target: &str,
    ) -> Result<bool, PacketError> {
        self.ensure_parsed_sym(linkage, Sym::intern(target))
    }

    /// [`Packet::ensure_parsed`] with a pre-interned target — the compiled
    /// fast path's entry point. Allocates only on error.
    ///
    /// Walks the linkage's resolved nodes (frontier symbol → node → spans
    /// → next symbol): no name lookup, no lock, no hash. Names are
    /// rendered only in the error arms.
    pub fn ensure_parsed_sym(
        &mut self,
        linkage: &HeaderLinkage,
        target: Sym,
    ) -> Result<bool, PacketError> {
        if self.is_valid_sym(target) {
            return Ok(true);
        }
        self.start_frontier(linkage)?;
        while let Some((name, offset)) = self.frontier {
            self.extract(linkage, name, offset)?;
            if name == target {
                return Ok(true);
            }
        }
        Ok(false)
    }

    /// Extracts the frontier header `name` at `offset`, records it, and
    /// advances the frontier to the next header its selector picks.
    ///
    /// On a selector error the header stays recorded and the frontier
    /// stays where it was.
    #[inline]
    fn extract(
        &mut self,
        linkage: &HeaderLinkage,
        name: Sym,
        offset: usize,
    ) -> Result<(), PacketError> {
        let Some(node) = linkage.node(name) else {
            return Err(LinkageError::UnknownHeader(name.as_str().to_string()).into());
        };
        let fixed = node.fixed_len()?;
        if offset.saturating_add(fixed) > self.data.len() {
            return Err(PacketError::Truncated {
                header: name.as_str().to_string(),
                offset,
                needed: fixed,
                available: self.data.len().saturating_sub(offset),
            });
        }
        let available = self.data.len() - offset;
        let len = node.instance_len(fixed, &self.data[offset..])?;
        if len > available {
            return Err(PacketError::Truncated {
                header: name.as_str().to_string(),
                offset,
                needed: len,
                available,
            });
        }
        self.parsed.push(ParsedHeader {
            ty: name,
            offset,
            len,
        });
        self.parse_extractions += 1;
        self.frontier = node
            .next(&self.data[offset..offset + len])?
            .map(|next| (next, offset + len));
        Ok(())
    }

    /// Establishes the frontier at the linkage's first header when parsing
    /// has not started.
    fn start_frontier(&mut self, linkage: &HeaderLinkage) -> Result<(), PacketError> {
        if self.parsed.is_empty() && self.frontier.is_none() {
            let first = linkage.first_sym().ok_or(PacketError::NoFirstHeader)?;
            self.frontier = Some((first, 0));
        }
        Ok(())
    }

    /// Parses the packet to the end of its header chain — what a PISA
    /// front-end parser does before the pipeline runs. Returns the number
    /// of headers extracted. A chain that repeats a header type (IPv6 /
    /// SRH / IPv6) is parsed through: every occurrence is recorded, and
    /// lookups by type see the first.
    pub fn parse_all(&mut self, linkage: &HeaderLinkage) -> Result<usize, PacketError> {
        let before = self.parsed.len();
        self.start_frontier(linkage)?;
        while let Some((name, offset)) = self.frontier {
            self.extract(linkage, name, offset)?;
        }
        Ok(self.parsed.len() - before)
    }

    /// Reads `header.field`. The header must already be parsed (stages
    /// declare their parse needs up front, so reads of unparsed headers are
    /// a pipeline bug, not a traffic condition).
    pub fn get_field(
        &self,
        linkage: &HeaderLinkage,
        header: &str,
        field: &str,
    ) -> Result<u128, PacketError> {
        let ph = self
            .find(header)
            .ok_or_else(|| PacketError::HeaderNotPresent(header.to_string()))?;
        let ty = linkage.require(header)?;
        Ok(ty.get(&self.data[ph.offset..ph.offset + ph.len], field)?)
    }

    /// Writes `header.field = value`.
    pub fn set_field(
        &mut self,
        linkage: &HeaderLinkage,
        header: &str,
        field: &str,
        value: u128,
    ) -> Result<(), PacketError> {
        let ph = self
            .find(header)
            .copied()
            .ok_or_else(|| PacketError::HeaderNotPresent(header.to_string()))?;
        let ty = linkage.require(header)?;
        ty.set(&mut self.data[ph.offset..ph.offset + ph.len], field, value)?;
        Ok(())
    }

    /// Inserts a new header's bytes immediately after an existing parsed
    /// header, recording it as parsed. Offsets of all later parsed headers
    /// shift right. Used e.g. for SRv6 encapsulation (SRH after IPv6).
    pub fn insert_header_after(
        &mut self,
        linkage: &HeaderLinkage,
        after: &str,
        new_header: &str,
        contents: &[u8],
    ) -> Result<(), PacketError> {
        let ty = linkage.require(new_header)?;
        let fixed = ty.fixed_len()?;
        if contents.len() < fixed {
            return Err(PacketError::Truncated {
                header: new_header.to_string(),
                offset: 0,
                needed: fixed,
                available: contents.len(),
            });
        }
        let after_sym = Sym::intern(after);
        let idx = self
            .parsed
            .iter()
            .position(|h| h.ty == after_sym)
            .ok_or_else(|| PacketError::HeaderNotPresent(after.to_string()))?;
        let insert_at = self.parsed[idx].offset + self.parsed[idx].len;
        self.data
            .splice(insert_at..insert_at, contents.iter().copied());
        for h in &mut self.parsed {
            if h.offset >= insert_at {
                h.offset += contents.len();
            }
        }
        if let Some((_, off)) = &mut self.frontier {
            if *off >= insert_at {
                *off += contents.len();
            }
        }
        self.parsed.insert(
            idx + 1,
            ParsedHeader {
                ty: Sym::intern(new_header),
                offset: insert_at,
                len: contents.len(),
            },
        );
        Ok(())
    }

    /// Removes a parsed header's bytes from the packet (decapsulation).
    pub fn remove_header(&mut self, header: &str) -> Result<(), PacketError> {
        let header_sym = Sym::intern(header);
        let idx = self
            .parsed
            .iter()
            .position(|h| h.ty == header_sym)
            .ok_or_else(|| PacketError::HeaderNotPresent(header.to_string()))?;
        let ph = self.parsed.remove(idx);
        self.data.drain(ph.offset..ph.offset + ph.len);
        for h in &mut self.parsed {
            if h.offset > ph.offset {
                h.offset -= ph.len;
            }
        }
        if let Some((_, off)) = &mut self.frontier {
            if *off > ph.offset {
                *off -= ph.len;
            }
        }
        Ok(())
    }

    /// Renders the packet bytes as a hex dump (pcap-lite, used by the CM's
    /// trace facility and tests).
    pub fn hex_dump(&self) -> String {
        let mut out = String::with_capacity(self.data.len() * 3);
        for (i, b) in self.data.iter().enumerate() {
            if i > 0 {
                out.push(if i % 16 == 0 { '\n' } else { ' ' });
            }
            out.push_str(&format!("{b:02x}"));
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builder;
    use crate::protocols;

    fn sample_v4() -> Packet {
        builder::ipv4_udp_packet(&builder::Ipv4UdpSpec {
            src_mac: 0x02_00_00_00_00_01,
            dst_mac: 0x02_00_00_00_00_02,
            src_ip: 0x0a000001,
            dst_ip: 0x0a000002,
            src_port: 1000,
            dst_port: 2000,
            ttl: 64,
            dscp: 0,
            payload: vec![1, 2, 3, 4],
        })
    }

    #[test]
    fn on_demand_parse_stops_at_target() {
        let linkage = HeaderLinkage::standard();
        let mut p = sample_v4();
        assert!(p.ensure_parsed(&linkage, "ethernet").unwrap());
        assert_eq!(p.parse_extractions, 1);
        assert!(!p.is_valid("ipv4"));
        assert!(p.ensure_parsed(&linkage, "ipv4").unwrap());
        assert_eq!(p.parse_extractions, 2);
    }

    #[test]
    fn parse_is_memoized() {
        let linkage = HeaderLinkage::standard();
        let mut p = sample_v4();
        assert!(p.ensure_parsed(&linkage, "udp").unwrap());
        let n = p.parse_extractions;
        assert!(p.ensure_parsed(&linkage, "ethernet").unwrap());
        assert!(p.ensure_parsed(&linkage, "udp").unwrap());
        assert_eq!(p.parse_extractions, n, "no re-extraction allowed");
    }

    #[test]
    fn absent_header_is_ok_false() {
        let linkage = HeaderLinkage::standard();
        let mut p = sample_v4();
        assert!(!p.ensure_parsed(&linkage, "ipv6").unwrap());
        // The v4 chain is fully parsed as a side effect of the probe.
        assert!(p.is_valid("udp"));
    }

    #[test]
    fn field_roundtrip_through_packet() {
        let linkage = HeaderLinkage::standard();
        let mut p = sample_v4();
        p.ensure_parsed(&linkage, "ipv4").unwrap();
        assert_eq!(p.get_field(&linkage, "ipv4", "ttl").unwrap(), 64);
        p.set_field(&linkage, "ipv4", "ttl", 63).unwrap();
        assert_eq!(p.get_field(&linkage, "ipv4", "ttl").unwrap(), 63);
    }

    #[test]
    fn unparsed_read_is_error() {
        let linkage = HeaderLinkage::standard();
        let p = sample_v4();
        assert!(matches!(
            p.get_field(&linkage, "ipv4", "ttl"),
            Err(PacketError::HeaderNotPresent(_))
        ));
    }

    #[test]
    fn truncated_packet_detected() {
        let linkage = HeaderLinkage::standard();
        let mut p = sample_v4();
        p.data.truncate(20); // cuts into the IPv4 header
        assert!(p.ensure_parsed(&linkage, "ethernet").unwrap());
        assert!(matches!(
            p.ensure_parsed(&linkage, "ipv4"),
            Err(PacketError::Truncated { .. })
        ));
    }

    #[test]
    fn srh_insert_and_remove_preserve_payload() {
        let mut linkage = HeaderLinkage::standard();
        linkage.link("ipv6", "srh", 43).unwrap();
        linkage.link("srh", "udp", 17).unwrap();
        let mut p = builder::ipv6_udp_packet(&builder::Ipv6UdpSpec {
            src_mac: 1,
            dst_mac: 2,
            src_ip: 0xfc00_0000_0000_0000_0000_0000_0000_0001,
            dst_ip: 0xfc00_0000_0000_0000_0000_0000_0000_0002,
            src_port: 7,
            dst_port: 8,
            hop_limit: 64,
            traffic_class: 0,
            payload: vec![9, 9, 9],
        });
        p.ensure_parsed(&linkage, "ipv6").unwrap();
        let before = p.data.clone();

        // Build an SRH with one 16-byte segment: ext len = 2 (8-byte units).
        let srh_ty = protocols::srh();
        let mut srh = vec![0u8; 8 + 16];
        srh_ty.set(&mut srh, "next_header", 17).unwrap();
        srh_ty.set(&mut srh, "hdr_ext_len", 2).unwrap();
        srh_ty.set(&mut srh, "routing_type", 4).unwrap();
        p.insert_header_after(&linkage, "ipv6", "srh", &srh)
            .unwrap();
        p.set_field(&linkage, "ipv6", "next_hdr", 43).unwrap();

        assert!(p.is_valid("srh"));
        assert_eq!(p.len(), before.len() + 24);
        // Continue parsing past the inserted header.
        assert!(p.ensure_parsed(&linkage, "udp").unwrap());
        assert_eq!(p.get_field(&linkage, "udp", "dst_port").unwrap(), 8);

        p.remove_header("srh").unwrap();
        p.set_field(&linkage, "ipv6", "next_hdr", 17).unwrap();
        assert_eq!(p.data, before);
    }

    #[test]
    fn metadata_intrinsics_and_user_fields() {
        let mut m = Metadata::default();
        m.set("nexthop", 42);
        m.set("egress_port", 3);
        m.set("drop", 1);
        assert_eq!(m.get("nexthop"), 42);
        assert_eq!(m.egress_port, Some(3));
        assert!(m.drop);
        assert_eq!(m.get("unset_field"), 0);
        assert_eq!(m.user_fields(), vec![("nexthop", 42)]);
    }

    #[test]
    fn metadata_zero_is_unset() {
        // A field explicitly set to 0 is indistinguishable from one never
        // set — the P4 uninitialized-metadata semantics the dense vector
        // representation leans on.
        let mut a = Metadata::default();
        let b = Metadata::default();
        a.set("zeroed_field", 7);
        assert_ne!(a, b);
        a.set("zeroed_field", 0);
        assert_eq!(a, b);
        assert!(a.user_fields().is_empty());
        // Serde roundtrip preserves equality and drops zero entries.
        let json = serde_json::to_string(&a).unwrap();
        assert!(json.contains("\"user\":{}"), "{json}");
        let back: Metadata = serde_json::from_str(&json).unwrap();
        assert_eq!(back, a);
    }

    #[test]
    fn metadata_id_accessors_match_names() {
        let mut m = Metadata::default();
        m.set("id_accessor_field", 17);
        let id = meta_id("id_accessor_field");
        assert_eq!(m.get_user(id), 17);
        m.set_user(id, 18);
        assert_eq!(m.get("id_accessor_field"), 18);
    }

    #[test]
    fn warm_parse_and_recycle_take_no_interner_lock() {
        use crate::intern::lock_probe;

        let mut linkage = HeaderLinkage::standard();
        linkage.link("ipv6", "srh", 43).unwrap();
        let udp = Sym::intern("udp");
        let frame = sample_v4().data;
        // Warm-up: every name the parse touches is interned.
        let mut p = Packet::new(frame.clone(), 0);
        p.parse_all(&linkage).unwrap();

        let before = lock_probe::taken();
        let mut p = Packet::new(frame.clone(), 0);
        assert_eq!(p.parse_all(&linkage).unwrap(), 3);
        p.reset_for_reuse();
        p.data.extend_from_slice(&frame);
        assert!(p.ensure_parsed_sym(&linkage, udp).unwrap());
        assert!(p.ensure_parsed_sym(&linkage, udp).unwrap());
        assert_eq!(
            lock_probe::taken(),
            before,
            "interner lock on the warm path"
        );
    }

    #[test]
    fn hex_dump_formats() {
        let p = Packet::new(vec![0xde, 0xad, 0xbe, 0xef], 0);
        assert_eq!(p.hex_dump(), "de ad be ef");
    }
}
