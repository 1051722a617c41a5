//! The runtime header-linkage graph.
//!
//! IPSA keeps the set of known header types and the edges between them
//! (`pre --tag--> next`) as mutable device state. Loading a function that
//! introduces a protocol (C2's SRv6) registers the new header type and adds
//! edges at runtime:
//!
//! ```text
//! link_header --pre IPv6 --next SRH  --tag 43
//! link_header --pre SRH  --next IPv6 --tag 41
//! link_header --pre SRH  --next IPv4 --tag 4
//! ```
//!
//! The graph drives on-demand parsing: starting from the first header of a
//! packet, selector values are evaluated and edges followed until the
//! requested header is reached (or the chain ends).
//!
//! The graph is resolved when it is written, the way a hardware parser
//! latches its configuration: each edit (`register`, `unregister`,
//! `set_first`, `link`, `unlink`) re-resolves only the nodes it touches —
//! fixed byte length, var-length field span, selector spans, and
//! transitions as `(tag, Sym)` in first-match order — and nodes are found
//! through a table indexed by [`Sym`] id. Parsing
//! ([`crate::packet::Packet::ensure_parsed_sym`]) then walks symbol → node
//! → spans → symbol with no name lookup, hash or interner lock; a name is
//! rendered only when a step fails.

use std::collections::BTreeMap;

use serde::{Content, DeError, Deserialize, Serialize};

use crate::bitfield;
use crate::header::{HeaderError, HeaderType, ImplicitParser, ParserTransition};
use crate::intern::Sym;

/// Errors from linkage operations.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum LinkageError {
    /// Referenced header type is not registered.
    UnknownHeader(String),
    /// The `pre` header has no implicit parser, so it cannot link onward.
    NoParser(String),
    /// An identical link (same pre and tag) already exists to a different
    /// header.
    TagInUse {
        /// Predecessor header.
        pre: String,
        /// Selector tag already linked.
        tag: u128,
        /// Header currently linked under that tag.
        existing: String,
    },
    /// Tried to remove a link that does not exist.
    NoSuchLink {
        /// Predecessor header.
        pre: String,
        /// Successor header.
        next: String,
    },
    /// A header operation failed.
    Header(HeaderError),
}

impl std::fmt::Display for LinkageError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            LinkageError::UnknownHeader(h) => write!(f, "unknown header type `{h}`"),
            LinkageError::NoParser(h) => {
                write!(f, "header `{h}` has no implicit parser to link from")
            }
            LinkageError::TagInUse { pre, tag, existing } => write!(
                f,
                "header `{pre}` tag {tag:#x} already links to `{existing}`"
            ),
            LinkageError::NoSuchLink { pre, next } => {
                write!(f, "no link from `{pre}` to `{next}`")
            }
            LinkageError::Header(e) => write!(f, "{e}"),
        }
    }
}

impl std::error::Error for LinkageError {}

impl From<HeaderError> for LinkageError {
    fn from(e: HeaderError) -> Self {
        LinkageError::Header(e)
    }
}

/// A bit span `(bit offset, width)` within a header, or the error the
/// field lookup that produced it reported.
type Span = Result<(usize, usize), HeaderError>;

/// One registered header type plus the parse data resolved from it when
/// the control plane wrote it.
#[derive(Debug, Clone)]
pub(crate) struct Node {
    ty: HeaderType,
    sym: Sym,
    /// `ty.fixed_len()`.
    fixed: Result<usize, HeaderError>,
    /// The var-length field's span and bytes per unit, for variable-length
    /// headers.
    var: Option<(Span, usize)>,
    /// Selector field spans in concatenation order; `None` when the header
    /// carries no implicit parser.
    selector: Option<Vec<Span>>,
    /// `(tag, next)` in first-match order, mirroring
    /// `ty.parser.transitions`.
    transitions: Vec<(u128, Sym)>,
}

impl Node {
    fn new(ty: HeaderType) -> Node {
        let mut node = Node {
            sym: Sym::intern(&ty.name),
            fixed: ty.fixed_len(),
            var: ty
                .var_len_field
                .as_ref()
                .map(|f| (ty.field_span(f), ty.var_len_units)),
            selector: ty
                .parser
                .as_ref()
                .map(|p| p.selector_fields.iter().map(|f| ty.field_span(f)).collect()),
            transitions: Vec::new(),
            ty,
        };
        node.relink();
        node
    }

    /// Re-resolves the transitions after an edit to `ty.parser`.
    fn relink(&mut self) {
        self.transitions = self
            .ty
            .parser
            .iter()
            .flat_map(|p| &p.transitions)
            .map(|t| (t.tag, Sym::intern(&t.next)))
            .collect();
    }

    /// [`HeaderType::fixed_len`] of the node's type.
    #[inline]
    pub(crate) fn fixed_len(&self) -> Result<usize, HeaderError> {
        self.fixed.clone()
    }

    /// Byte length of the instance at the start of `data`, given its
    /// fixed length (variable-length headers add their var-length field's
    /// value times the unit size, saturating: an impossible length then
    /// fails as a truncated header).
    #[inline]
    pub(crate) fn instance_len(&self, fixed: usize, data: &[u8]) -> Result<usize, HeaderError> {
        match &self.var {
            None => Ok(fixed),
            Some((span, units)) => {
                let (off, bits) = span.clone()?;
                let v = bitfield::get_bits(data, off, bits)?;
                let extra = usize::try_from(v).map_or(usize::MAX, |v| v.saturating_mul(*units));
                Ok(fixed.saturating_add(extra))
            }
        }
    }

    /// The next header for the instance spanning exactly `data`: the
    /// concatenated selector value matched against the transitions, first
    /// match wins. `None` when the header has no parser or no tag matches.
    #[inline]
    pub(crate) fn next(&self, data: &[u8]) -> Result<Option<Sym>, HeaderError> {
        let Some(selector) = &self.selector else {
            return Ok(None);
        };
        let mut acc: u128 = 0;
        for span in selector {
            let (off, bits) = span.clone()?;
            let v = bitfield::get_bits(data, off, bits)?;
            // A 128-bit field shifts everything before it out.
            acc = acc.checked_shl(bits as u32).unwrap_or(0) | v;
        }
        Ok(self
            .transitions
            .iter()
            .find(|&&(tag, _)| tag == acc)
            .map(|&(_, next)| next))
    }
}

/// No node: the sentinel in [`HeaderLinkage`]'s symbol index.
const ABSENT: u32 = u32::MAX;

/// Registry of header types plus the mutable parse graph between them.
///
/// Every edit resolves the parse data of the nodes it touches (byte
/// lengths, selector spans, `(tag, next)` transitions by [`Sym`]), so the
/// parse loop walks symbol → node → spans → symbol with no name lookup.
#[derive(Debug, Clone, Default)]
pub struct HeaderLinkage {
    nodes: Vec<Node>,
    /// [`Sym`] id → index into `nodes`, or [`ABSENT`].
    index: Vec<u32>,
    /// The header type found at byte 0 of every packet.
    first: Option<Sym>,
}

impl PartialEq for HeaderLinkage {
    /// Same header types (in any order) and the same first header.
    fn eq(&self, other: &Self) -> bool {
        self.first == other.first
            && self.nodes.len() == other.nodes.len()
            && self
                .nodes
                .iter()
                .all(|n| other.node(n.sym).is_some_and(|o| o.ty == n.ty))
    }
}

impl Serialize for HeaderLinkage {
    /// `{"types": {name: type, ...}, "first": name | null}` — the entry
    /// order the vendored `HashMap` impl renders (by the key's `Debug`
    /// form), so the JSON is the one a name-keyed map produces.
    fn to_content(&self) -> Content {
        let mut types: Vec<(Content, Content)> = self
            .nodes
            .iter()
            .map(|n| (n.ty.name.to_content(), n.ty.to_content()))
            .collect();
        types.sort_by_cached_key(|(k, _)| format!("{k:?}"));
        Content::Map(vec![
            ("types".to_content(), Content::Map(types)),
            ("first".to_content(), self.first().to_content()),
        ])
    }
}

impl Deserialize for HeaderLinkage {
    fn from_content(c: &Content) -> Result<Self, DeError> {
        let m = c
            .as_map()
            .ok_or_else(|| DeError::new("expected map for HeaderLinkage"))?;
        let types: BTreeMap<String, HeaderType> = serde::field(m, "types", "HeaderLinkage")?;
        let first: Option<String> = serde::field(m, "first", "HeaderLinkage")?;
        let mut g = HeaderLinkage::new();
        for (key, ty) in types {
            if key != ty.name {
                return Err(DeError::new(format!(
                    "HeaderLinkage.types: key `{key}` holds header `{}`",
                    ty.name
                )));
            }
            g.register(ty);
        }
        // Unvalidated, as written: a first header that is not registered
        // fails at parse time with `UnknownHeader`, not here.
        g.first = first.as_deref().map(Sym::intern);
        Ok(g)
    }
}

impl HeaderLinkage {
    /// Empty graph.
    pub fn new() -> Self {
        Self::default()
    }

    /// A graph pre-loaded with the standard L2–L4 headers, rooted at
    /// Ethernet — the state of a freshly booted base design.
    pub fn standard() -> Self {
        let mut g = Self::new();
        for h in crate::protocols::standard_headers() {
            g.register(h);
        }
        g.set_first("ethernet").expect("ethernet registered");
        g
    }

    /// The node of the header type `sym` names, if registered.
    #[inline]
    pub(crate) fn node(&self, sym: Sym) -> Option<&Node> {
        match self.index.get(sym.index()) {
            Some(&i) if i != ABSENT => Some(&self.nodes[i as usize]),
            _ => None,
        }
    }

    fn position(&self, name: &str) -> Option<usize> {
        self.nodes.iter().position(|n| n.ty.name == name)
    }

    /// Registers (or replaces) a header type.
    pub fn register(&mut self, ty: HeaderType) {
        let node = Node::new(ty);
        let slot = node.sym.index();
        if slot >= self.index.len() {
            self.index.resize(slot + 1, ABSENT);
        }
        match self.index[slot] {
            ABSENT => {
                self.index[slot] = u32::try_from(self.nodes.len()).expect("header count");
                self.nodes.push(node);
            }
            i => self.nodes[i as usize] = node,
        }
    }

    /// Removes a header type and all links pointing at it. Returns true if
    /// the type existed.
    pub fn unregister(&mut self, name: &str) -> bool {
        let Some(pos) = self.position(name) else {
            return false;
        };
        let gone = self.nodes.swap_remove(pos);
        self.index[gone.sym.index()] = ABSENT;
        if let Some(moved) = self.nodes.get(pos) {
            self.index[moved.sym.index()] = pos as u32;
        }
        for node in &mut self.nodes {
            if let Some(p) = &mut node.ty.parser {
                let before = p.transitions.len();
                p.transitions.retain(|t| t.next != name);
                if p.transitions.len() != before {
                    node.relink();
                }
            }
        }
        if self.first == Some(gone.sym) {
            self.first = None;
        }
        true
    }

    /// Declares which header type starts every packet.
    pub fn set_first(&mut self, name: &str) -> Result<(), LinkageError> {
        let pos = self
            .position(name)
            .ok_or_else(|| LinkageError::UnknownHeader(name.to_string()))?;
        self.first = Some(self.nodes[pos].sym);
        Ok(())
    }

    /// The first-header type name, if configured.
    pub fn first(&self) -> Option<&str> {
        self.first.map(Sym::as_str)
    }

    /// The first-header type, interned — the parse loop's starting point.
    #[inline]
    pub(crate) fn first_sym(&self) -> Option<Sym> {
        self.first
    }

    /// Looks up a header type.
    pub fn get(&self, name: &str) -> Option<&HeaderType> {
        self.position(name).map(|i| &self.nodes[i].ty)
    }

    /// Looks up a header type, as an error-returning variant.
    pub fn require(&self, name: &str) -> Result<&HeaderType, LinkageError> {
        self.get(name)
            .ok_or_else(|| LinkageError::UnknownHeader(name.to_string()))
    }

    /// Number of registered header types.
    pub fn len(&self) -> usize {
        self.nodes.len()
    }

    /// True when no header types are registered.
    pub fn is_empty(&self) -> bool {
        self.nodes.is_empty()
    }

    /// Iterates over registered types in unspecified order.
    pub fn iter(&self) -> impl Iterator<Item = &HeaderType> {
        self.nodes.iter().map(|n| &n.ty)
    }

    /// The registered `pre` node's implicit parser, with its node index.
    fn parser_of(&mut self, pre: &str) -> Result<(usize, &mut ImplicitParser), LinkageError> {
        let pos = self
            .position(pre)
            .ok_or_else(|| LinkageError::UnknownHeader(pre.to_string()))?;
        let parser = self.nodes[pos]
            .ty
            .parser
            .as_mut()
            .ok_or_else(|| LinkageError::NoParser(pre.to_string()))?;
        Ok((pos, parser))
    }

    /// Adds a parse edge `pre --tag--> next` (the `link_header` command).
    ///
    /// Both header types must be registered and `pre` must carry an implicit
    /// parser. Linking the same `(pre, tag, next)` twice is idempotent;
    /// linking an in-use tag to a *different* next header is an error (the
    /// old link must be removed first).
    pub fn link(&mut self, pre: &str, next: &str, tag: u128) -> Result<(), LinkageError> {
        let next_sym = self
            .position(next)
            .map(|i| self.nodes[i].sym)
            .ok_or_else(|| LinkageError::UnknownHeader(next.to_string()))?;
        let (pos, parser) = self.parser_of(pre)?;
        if let Some(t) = parser.transitions.iter().find(|t| t.tag == tag) {
            if t.next == next {
                return Ok(());
            }
            return Err(LinkageError::TagInUse {
                pre: pre.to_string(),
                tag,
                existing: t.next.clone(),
            });
        }
        parser.transitions.push(ParserTransition {
            tag,
            next: next.to_string(),
        });
        self.nodes[pos].transitions.push((tag, next_sym));
        Ok(())
    }

    /// Removes every parse edge from `pre` to `next` (the `unlink_header`
    /// command).
    pub fn unlink(&mut self, pre: &str, next: &str) -> Result<(), LinkageError> {
        let (pos, parser) = self.parser_of(pre)?;
        let before = parser.transitions.len();
        parser.transitions.retain(|t| t.next != next);
        if parser.transitions.len() == before {
            return Err(LinkageError::NoSuchLink {
                pre: pre.to_string(),
                next: next.to_string(),
            });
        }
        self.nodes[pos].relink();
        Ok(())
    }

    /// All edges in the graph as `(pre, tag, next)` triples, sorted for
    /// deterministic output.
    pub fn edges(&self) -> Vec<(String, u128, String)> {
        let mut out: Vec<_> = self
            .iter()
            .flat_map(|ty| {
                ty.parser.iter().flat_map(|p| {
                    p.transitions
                        .iter()
                        .map(|t| (ty.name.clone(), t.tag, t.next.clone()))
                })
            })
            .collect();
        out.sort();
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn standard_graph_roots_at_ethernet() {
        let g = HeaderLinkage::standard();
        assert_eq!(g.first(), Some("ethernet"));
        assert!(g.get("ipv6").is_some());
        assert_eq!(g.len(), 7);
    }

    #[test]
    fn srv6_runtime_linkage_script() {
        // Replays Fig. 5(c): IPv6 -> SRH (43), SRH -> IPv6 (41), SRH -> IPv4 (4).
        let mut g = HeaderLinkage::standard();
        g.link("ipv6", "srh", 43).unwrap();
        g.link("srh", "ipv6", 41).unwrap();
        g.link("srh", "ipv4", 4).unwrap();
        let edges = g.edges();
        assert!(edges.contains(&("ipv6".into(), 43, "srh".into())));
        assert!(edges.contains(&("srh".into(), 41, "ipv6".into())));
        assert!(edges.contains(&("srh".into(), 4, "ipv4".into())));
        // The IPv6 -> TCP/UDP links remain: "linkage between routable and
        // ipvx is reserved".
        assert!(edges.contains(&("ipv6".into(), 6, "tcp".into())));
    }

    #[test]
    fn link_is_idempotent_but_conflicts_rejected() {
        let mut g = HeaderLinkage::standard();
        g.link("ipv6", "srh", 43).unwrap();
        g.link("ipv6", "srh", 43).unwrap();
        assert!(matches!(
            g.link("ipv6", "tcp", 43),
            Err(LinkageError::TagInUse { .. })
        ));
    }

    #[test]
    fn unlink_removes_edge() {
        let mut g = HeaderLinkage::standard();
        g.link("ipv6", "srh", 43).unwrap();
        g.unlink("ipv6", "srh").unwrap();
        assert!(matches!(
            g.unlink("ipv6", "srh"),
            Err(LinkageError::NoSuchLink { .. })
        ));
    }

    #[test]
    fn unknown_headers_rejected() {
        let mut g = HeaderLinkage::standard();
        assert!(matches!(
            g.link("ipv6", "mystery", 99),
            Err(LinkageError::UnknownHeader(_))
        ));
        assert!(matches!(
            g.link("mystery", "ipv4", 99),
            Err(LinkageError::UnknownHeader(_))
        ));
    }

    #[test]
    fn unregister_cleans_edges() {
        let mut g = HeaderLinkage::standard();
        g.link("ipv6", "srh", 43).unwrap();
        assert!(g.unregister("srh"));
        let edges = g.edges();
        assert!(!edges.iter().any(|(_, _, n)| n == "srh"));
    }

    #[test]
    fn linking_from_parserless_header_fails() {
        let mut g = HeaderLinkage::standard();
        assert!(matches!(
            g.link("tcp", "ipv4", 1),
            Err(LinkageError::NoParser(_))
        ));
    }
}
