//! Dynamic header type descriptions.
//!
//! IPSA devices learn their protocol headers at *runtime*: loading a new
//! function (e.g. SRv6) can introduce a brand-new header and splice it into
//! the parse graph with `link_header` commands. Header layouts are therefore
//! plain data, not Rust types.

use serde::{Deserialize, Serialize};

use crate::bitfield::{self, BitfieldError};

/// A single field within a header: `bit<N> name;`.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct FieldDef {
    /// Field name, unique within the header.
    pub name: String,
    /// Field width in bits (1..=128).
    pub bits: usize,
}

impl FieldDef {
    /// Convenience constructor.
    pub fn new(name: impl Into<String>, bits: usize) -> Self {
        Self {
            name: name.into(),
            bits,
        }
    }
}

/// One transition of an implicit parser: `tag : next_header`.
///
/// rP4 headers embed their parser: `implicit parser(selector_field) {
/// 0x0800: ipv4; ... }`. At runtime the controller may add or remove
/// transitions (`link_header --pre IPv6 --next SRH --tag 43`).
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct ParserTransition {
    /// Selector value that triggers this transition.
    pub tag: u128,
    /// Name of the next header type.
    pub next: String,
}

/// The implicit parser attached to a header type.
#[derive(Debug, Clone, PartialEq, Eq, Default, Serialize, Deserialize)]
pub struct ImplicitParser {
    /// Fields of this header whose concatenated value selects the next
    /// header. Usually a single field (e.g. `ethertype`).
    pub selector_fields: Vec<String>,
    /// Transition table; first matching tag wins.
    pub transitions: Vec<ParserTransition>,
}

/// A header type: an ordered list of fields plus an optional implicit
/// parser.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct HeaderType {
    /// Type name (doubles as the instance name in rP4 programs, which use
    /// one instance per header type).
    pub name: String,
    /// Ordered fields.
    pub fields: Vec<FieldDef>,
    /// Embedded parser, if this header can be followed by others.
    pub parser: Option<ImplicitParser>,
    /// For variable-length headers (e.g. the SRH), the name of the field
    /// that encodes extra length. The header's byte length is
    /// `fixed_len + var_len_units * value(field)`.
    pub var_len_field: Option<String>,
    /// Bytes added per unit of the `var_len_field` value.
    pub var_len_units: usize,
}

/// Errors in header-type operations.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum HeaderError {
    /// Named field does not exist in this header type.
    NoSuchField {
        /// Header type name.
        header: String,
        /// Field name that failed to resolve.
        field: String,
    },
    /// Underlying bit access failed.
    Bits(BitfieldError),
    /// The header's fixed part is not byte aligned.
    NotByteAligned {
        /// Header type name.
        header: String,
        /// Total fixed width in bits.
        bits: usize,
    },
}

impl std::fmt::Display for HeaderError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            HeaderError::NoSuchField { header, field } => {
                write!(f, "header `{header}` has no field `{field}`")
            }
            HeaderError::Bits(e) => write!(f, "{e}"),
            HeaderError::NotByteAligned { header, bits } => {
                write!(f, "header `{header}` is {bits} bits, not byte aligned")
            }
        }
    }
}

impl std::error::Error for HeaderError {}

impl From<BitfieldError> for HeaderError {
    fn from(e: BitfieldError) -> Self {
        HeaderError::Bits(e)
    }
}

impl HeaderType {
    /// Creates a fixed-length header type with no parser.
    pub fn new(name: impl Into<String>, fields: Vec<FieldDef>) -> Self {
        Self {
            name: name.into(),
            fields,
            parser: None,
            var_len_field: None,
            var_len_units: 0,
        }
    }

    /// Attaches an implicit parser (builder style).
    pub fn with_parser(mut self, parser: ImplicitParser) -> Self {
        self.parser = Some(parser);
        self
    }

    /// Marks the header variable-length (builder style).
    pub fn with_var_len(mut self, field: impl Into<String>, units: usize) -> Self {
        self.var_len_field = Some(field.into());
        self.var_len_units = units;
        self
    }

    /// Total width of the fixed fields in bits (saturating: widths come
    /// off the control channel unchecked).
    pub fn fixed_bits(&self) -> usize {
        self.fields
            .iter()
            .fold(0, |sum, f| sum.saturating_add(f.bits))
    }

    /// Fixed byte length; errors if the type is not byte aligned (real
    /// protocol headers always are).
    pub fn fixed_len(&self) -> Result<usize, HeaderError> {
        let bits = self.fixed_bits();
        if !bits.is_multiple_of(8) {
            return Err(HeaderError::NotByteAligned {
                header: self.name.clone(),
                bits,
            });
        }
        Ok(bits / 8)
    }

    /// Bit offset and width of a field within the header.
    pub fn field_span(&self, field: &str) -> Result<(usize, usize), HeaderError> {
        let mut off = 0;
        for f in &self.fields {
            if f.name == field {
                return Ok((off, f.bits));
            }
            off = off.saturating_add(f.bits);
        }
        Err(HeaderError::NoSuchField {
            header: self.name.clone(),
            field: field.to_string(),
        })
    }

    /// True if the header declares `field`.
    pub fn has_field(&self, field: &str) -> bool {
        self.fields.iter().any(|f| f.name == field)
    }

    /// Reads a field from a buffer that starts at this header's first byte.
    pub fn get(&self, data: &[u8], field: &str) -> Result<u128, HeaderError> {
        let (off, bits) = self.field_span(field)?;
        Ok(bitfield::get_bits(data, off, bits)?)
    }

    /// Writes a field into a buffer that starts at this header's first byte.
    pub fn set(&self, data: &mut [u8], field: &str, value: u128) -> Result<(), HeaderError> {
        let (off, bits) = self.field_span(field)?;
        bitfield::set_bits(data, off, bits, value)?;
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::intern::Sym;
    use crate::linkage::{HeaderLinkage, Node};
    use crate::protocols;

    #[test]
    fn field_spans_accumulate() {
        let h = protocols::ethernet();
        assert_eq!(h.field_span("dst_addr").unwrap(), (0, 48));
        assert_eq!(h.field_span("src_addr").unwrap(), (48, 48));
        assert_eq!(h.field_span("ethertype").unwrap(), (96, 16));
        assert_eq!(h.fixed_len().unwrap(), 14);
    }

    #[test]
    fn missing_field_is_error() {
        let h = protocols::ethernet();
        assert!(matches!(
            h.field_span("nope"),
            Err(HeaderError::NoSuchField { .. })
        ));
    }

    #[test]
    fn get_set_roundtrip_on_buffer() {
        let h = protocols::ipv4();
        let mut buf = vec![0u8; h.fixed_len().unwrap()];
        h.set(&mut buf, "ttl", 64).unwrap();
        h.set(&mut buf, "dst_addr", 0x0A00_0001).unwrap();
        assert_eq!(h.get(&buf, "ttl").unwrap(), 64);
        assert_eq!(h.get(&buf, "dst_addr").unwrap(), 0x0A00_0001);
    }

    /// The node a standard linkage resolves for `name`.
    fn resolved(g: &HeaderLinkage, name: &str) -> Node {
        g.node(Sym::intern(name)).expect("registered").clone()
    }

    #[test]
    fn selector_and_transition() {
        let h = protocols::ethernet();
        let node = resolved(&HeaderLinkage::standard(), "ethernet");
        let mut buf = vec![0u8; 14];
        h.set(&mut buf, "ethertype", 0x0800).unwrap();
        assert_eq!(node.next(&buf).unwrap(), Some(Sym::intern("ipv4")));
        h.set(&mut buf, "ethertype", 0x1234).unwrap();
        assert_eq!(node.next(&buf).unwrap(), None);
    }

    #[test]
    fn unaligned_header_rejected() {
        let h = HeaderType::new("odd", vec![FieldDef::new("x", 3)]);
        assert!(matches!(
            h.fixed_len(),
            Err(HeaderError::NotByteAligned { .. })
        ));
    }

    #[test]
    fn var_len_instance() {
        let h = protocols::srh();
        let fixed = h.fixed_len().unwrap();
        let mut buf = vec![0u8; fixed + 32];
        // hdr_ext_len counts 8-byte units beyond the first 8 bytes.
        h.set(&mut buf, "hdr_ext_len", 4).unwrap();
        let node = resolved(&HeaderLinkage::standard(), "srh");
        assert_eq!(node.instance_len(fixed, &buf).unwrap(), fixed + 32);
    }
}
