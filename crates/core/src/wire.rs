//! The control channel's wire format: a versioned binary codec for
//! [`ControlMsg`].
//!
//! Table 1's t_L "contains the communication time with the device", so a
//! message is priced by the bytes a config channel would carry. One
//! message is one frame:
//!
//! ```text
//! frame = version:u8  payload_len:varint  payload
//! ```
//!
//! The payload encodes the message field by field, in declaration order:
//!
//! - integers (`u32`, `u64`, `u128`, `usize`) are LEB128 varints; `i32` is
//!   zigzag-mapped first, so small negative priorities stay short;
//! - `bool` is one byte, 0 or 1;
//! - strings are a varint byte length then UTF-8; sequences and maps are
//!   a varint element count then the elements (maps as key/value pairs in
//!   key order);
//! - `Option` is a 0/1 byte followed by the value when present;
//! - each enum variant is one tag byte (its declaration index) followed by
//!   its fields;
//! - a [`HeaderLinkage`] is its header types followed by its first header.
//!
//! Every type a message carries implements [`Wire`]: one `encode` into a
//! [`Sink`] and one `decode` from a [`Reader`]. [`encoded_len`] runs the
//! same `encode` into a byte counter, so pricing a message allocates
//! nothing and cannot drift from the bytes [`encode_frame`] writes.
//!
//! Decoding is total: every malformed input — a cut frame, an overlong
//! varint, an unknown version or tag, invalid UTF-8, a length past the end
//! of the input, trailing bytes — yields a [`WireError`] carrying the byte
//! offset, never a panic. No allocation is sized past what the remaining
//! input could hold (every element encodes to at least one byte), and
//! predicate nesting is bounded by [`MAX_DEPTH`].

use std::collections::BTreeMap;
use std::fmt;

use ipsa_netpkt::header::{FieldDef, HeaderType, ImplicitParser, ParserTransition};
use ipsa_netpkt::linkage::HeaderLinkage;

use crate::action::{ActionDef, AluOp, Primitive};
use crate::control::ControlMsg;
use crate::pipeline_cfg::{SelectorConfig, SlotRole};
use crate::predicate::{CmpOp, Predicate};
use crate::table::{ActionCall, KeyField, KeyMatch, MatchKind, TableDef, TableEntry};
use crate::template::{CompiledDesign, FuncDef, MatcherBranch, TspTemplate};
use crate::value::{LValueRef, ValueRef};

/// Format version, the first byte of every frame.
pub const VERSION: u8 = 1;

/// Deepest [`Predicate`] nesting the decoder accepts; it bounds the
/// decoder's recursion on hostile input.
pub const MAX_DEPTH: u32 = 128;

/// Longest LEB128 encoding of a `u128`: ⌈128 / 7⌉ bytes.
const MAX_VARINT: usize = 19;

/// Where encoded bytes go.
pub trait Sink {
    /// Appends raw bytes.
    fn put(&mut self, bytes: &[u8]);

    /// Appends `v` as an LEB128 varint.
    fn put_varint(&mut self, mut v: u128) {
        let mut buf = [0u8; MAX_VARINT];
        let mut n = 0;
        loop {
            let low = (v & 0x7f) as u8;
            v >>= 7;
            if v == 0 {
                buf[n] = low;
                n += 1;
                break;
            }
            buf[n] = low | 0x80;
            n += 1;
        }
        self.put(&buf[..n]);
    }
}

impl Sink for Vec<u8> {
    fn put(&mut self, bytes: &[u8]) {
        self.extend_from_slice(bytes);
    }
}

/// A [`Sink`] that only counts what it is given: an encoding's length,
/// with no allocation.
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub(crate) struct ByteCount(pub(crate) usize);

impl Sink for ByteCount {
    fn put(&mut self, bytes: &[u8]) {
        self.0 += bytes.len();
    }
}

/// A value with a wire form.
pub trait Wire: Sized {
    /// Writes the value's encoding.
    fn encode<S: Sink>(&self, out: &mut S);

    /// Reads one value, leaving the reader just past it.
    fn decode(r: &mut Reader<'_>) -> Result<Self, WireError>;
}

/// What was wrong with the input.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum WireErrorKind {
    /// The input ended inside a value.
    Truncated,
    /// A varint runs past 19 bytes, sets bits above 128, or is
    /// not minimal (a trailing zero group).
    OverlongVarint,
    /// A varint holds a value its field's type cannot.
    IntOutOfRange,
    /// The frame's version byte is not [`VERSION`].
    UnknownVersion(u8),
    /// An enum, `Option` or `bool` tag byte names no variant.
    UnknownTag {
        /// The type being decoded.
        ty: &'static str,
        /// The tag byte read.
        tag: u8,
    },
    /// A string's bytes are not UTF-8.
    InvalidUtf8,
    /// A length or count prefix exceeds the bytes left.
    LengthPastEnd {
        /// The declared length.
        len: u128,
        /// Bytes left in the input.
        remaining: usize,
    },
    /// Bytes remain after the frame, or after its payload within the
    /// declared payload length.
    TrailingBytes {
        /// How many.
        extra: usize,
    },
    /// Predicates nest deeper than [`MAX_DEPTH`].
    TooDeep,
    /// A header linkage's first header is not one of its types.
    UnknownFirstHeader(String),
}

/// A decode failure at a byte offset into the input.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct WireError {
    /// Offset of the offending byte (the start of the offending value for
    /// varints, lengths and strings).
    pub offset: usize,
    /// What was wrong.
    pub kind: WireErrorKind,
}

impl fmt::Display for WireError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "bad control frame at byte {}: ", self.offset)?;
        match &self.kind {
            WireErrorKind::Truncated => write!(f, "input ends inside a value"),
            WireErrorKind::OverlongVarint => write!(f, "overlong varint"),
            WireErrorKind::IntOutOfRange => write!(f, "integer out of range for its field"),
            WireErrorKind::UnknownVersion(v) => {
                write!(f, "unknown version {v} (expected {VERSION})")
            }
            WireErrorKind::UnknownTag { ty, tag } => write!(f, "unknown {ty} tag {tag}"),
            WireErrorKind::InvalidUtf8 => write!(f, "string is not UTF-8"),
            WireErrorKind::LengthPastEnd { len, remaining } => {
                write!(f, "length {len} exceeds the {remaining} bytes left")
            }
            WireErrorKind::TrailingBytes { extra } => write!(f, "{extra} trailing bytes"),
            WireErrorKind::TooDeep => write!(f, "predicate nests deeper than {MAX_DEPTH}"),
            WireErrorKind::UnknownFirstHeader(h) => {
                write!(f, "first header `{h}` is not registered")
            }
        }
    }
}

impl std::error::Error for WireError {}

/// A cursor over input bytes; [`Wire::decode`] reads through it.
#[derive(Debug)]
pub struct Reader<'a> {
    buf: &'a [u8],
    pos: usize,
    depth: u32,
}

impl<'a> Reader<'a> {
    /// A reader over all of `buf`.
    pub(crate) fn new(buf: &'a [u8]) -> Self {
        Reader {
            buf,
            pos: 0,
            depth: 0,
        }
    }

    /// Bytes left in the input.
    pub(crate) fn remaining(&self) -> usize {
        self.buf.len() - self.pos
    }

    fn error(&self, offset: usize, kind: WireErrorKind) -> WireError {
        WireError { offset, kind }
    }

    /// Reads one byte.
    pub(crate) fn byte(&mut self) -> Result<u8, WireError> {
        if self.pos == self.buf.len() {
            return Err(self.error(self.pos, WireErrorKind::Truncated));
        }
        let b = self.buf[self.pos];
        self.pos += 1;
        Ok(b)
    }

    /// Reads `n` bytes.
    pub(crate) fn bytes(&mut self, n: usize) -> Result<&'a [u8], WireError> {
        if n > self.remaining() {
            return Err(self.error(self.buf.len(), WireErrorKind::Truncated));
        }
        let out = &self.buf[self.pos..self.pos + n];
        self.pos += n;
        Ok(out)
    }

    /// Reads an LEB128 varint of at most 128 bits, in its minimal form.
    pub(crate) fn varint(&mut self) -> Result<u128, WireError> {
        let start = self.pos;
        let mut v = 0u128;
        for i in 0..MAX_VARINT {
            let b = self.byte()?;
            // The last group holds the top 2 of 128 bits and ends the varint.
            if i == MAX_VARINT - 1 && b > 0x03 {
                break;
            }
            v |= u128::from(b & 0x7f) << (7 * i);
            if b & 0x80 == 0 {
                if b == 0 && i > 0 {
                    break;
                }
                return Ok(v);
            }
        }
        Err(self.error(start, WireErrorKind::OverlongVarint))
    }

    /// Reads a varint into a narrower integer type.
    pub(crate) fn int<T: TryFrom<u128>>(&mut self) -> Result<T, WireError> {
        let start = self.pos;
        let v = self.varint()?;
        T::try_from(v).map_err(|_| self.error(start, WireErrorKind::IntOutOfRange))
    }

    /// Reads a length or count prefix, refusing one larger than the bytes
    /// left: every element encodes to at least one byte.
    pub(crate) fn length(&mut self) -> Result<usize, WireError> {
        let start = self.pos;
        let len = self.varint()?;
        match usize::try_from(len) {
            Ok(n) if n <= self.remaining() => Ok(n),
            _ => Err(self.error(
                start,
                WireErrorKind::LengthPastEnd {
                    len,
                    remaining: self.remaining(),
                },
            )),
        }
    }

    /// Reads an enum tag byte, returning it with its offset (for
    /// [`Reader::unknown_tag`]).
    pub(crate) fn tag(&mut self) -> Result<(usize, u8), WireError> {
        let at = self.pos;
        Ok((at, self.byte()?))
    }

    /// The error for a tag byte read at `at` that names no variant of `ty`.
    pub(crate) fn unknown_tag(&self, at: usize, ty: &'static str, tag: u8) -> WireError {
        self.error(at, WireErrorKind::UnknownTag { ty, tag })
    }

    /// Runs `f` one nesting level deeper, refusing past [`MAX_DEPTH`].
    fn nested<T>(
        &mut self,
        f: impl FnOnce(&mut Self) -> Result<T, WireError>,
    ) -> Result<T, WireError> {
        if self.depth >= MAX_DEPTH {
            return Err(self.error(self.pos, WireErrorKind::TooDeep));
        }
        self.depth += 1;
        let out = f(self);
        self.depth -= 1;
        out
    }
}

fn put_len<S: Sink>(out: &mut S, n: usize) {
    out.put_varint(n as u128);
}

fn put_str<S: Sink>(out: &mut S, s: &str) {
    put_len(out, s.len());
    out.put(s.as_bytes());
}

fn put_tag<S: Sink>(out: &mut S, tag: u8) {
    out.put(&[tag]);
}

fn frame_header<S: Sink>(out: &mut S, payload_len: usize) {
    put_tag(out, VERSION);
    put_len(out, payload_len);
}

fn payload_len<T: Wire>(v: &T) -> usize {
    let mut count = ByteCount(0);
    v.encode(&mut count);
    count.0
}

/// Length of `v`'s frame in bytes, computed without allocating.
pub fn encoded_len<T: Wire>(v: &T) -> usize {
    let payload = payload_len(v);
    let mut count = ByteCount(payload);
    frame_header(&mut count, payload);
    count.0
}

/// Encodes `v` as one frame.
pub fn encode_frame<T: Wire>(v: &T) -> Vec<u8> {
    let payload = payload_len(v);
    let mut out = Vec::with_capacity(payload + 1 + MAX_VARINT);
    frame_header(&mut out, payload);
    v.encode(&mut out);
    out
}

/// Decodes exactly one frame: `bytes` must hold the whole frame and
/// nothing after it.
pub fn decode_frame<T: Wire>(bytes: &[u8]) -> Result<T, WireError> {
    let mut r = Reader::new(bytes);
    let version = r.byte()?;
    if version != VERSION {
        return Err(r.error(0, WireErrorKind::UnknownVersion(version)));
    }
    // The payload length fits the input and must end it, so the payload
    // decoder reads up to the end of `bytes` and no further.
    let len = r.length()?;
    if len < r.remaining() {
        let end = r.pos + len;
        let extra = bytes.len() - end;
        return Err(r.error(end, WireErrorKind::TrailingBytes { extra }));
    }
    let v = T::decode(&mut r)?;
    if r.remaining() > 0 {
        let extra = r.remaining();
        return Err(r.error(r.pos, WireErrorKind::TrailingBytes { extra }));
    }
    Ok(v)
}

// --- scalars and containers ---

macro_rules! wire_uint {
    ($($ty:ty),+) => {$(
        impl Wire for $ty {
            fn encode<S: Sink>(&self, out: &mut S) {
                out.put_varint(*self as u128);
            }
            fn decode(r: &mut Reader<'_>) -> Result<Self, WireError> {
                r.int()
            }
        }
    )+};
}

wire_uint!(u32, u64, u128, usize);

impl Wire for i32 {
    fn encode<S: Sink>(&self, out: &mut S) {
        let zigzag = ((*self << 1) ^ (*self >> 31)) as u32;
        zigzag.encode(out);
    }
    fn decode(r: &mut Reader<'_>) -> Result<Self, WireError> {
        let n = u32::decode(r)?;
        Ok((n >> 1) as i32 ^ -((n & 1) as i32))
    }
}

impl Wire for bool {
    fn encode<S: Sink>(&self, out: &mut S) {
        put_tag(out, u8::from(*self));
    }
    fn decode(r: &mut Reader<'_>) -> Result<Self, WireError> {
        match r.tag()? {
            (_, 0) => Ok(false),
            (_, 1) => Ok(true),
            (at, tag) => Err(r.unknown_tag(at, "bool", tag)),
        }
    }
}

impl Wire for String {
    fn encode<S: Sink>(&self, out: &mut S) {
        put_str(out, self);
    }
    fn decode(r: &mut Reader<'_>) -> Result<Self, WireError> {
        let n = r.length()?;
        let at = r.pos;
        let bytes = r.bytes(n)?;
        std::str::from_utf8(bytes)
            .map(str::to_owned)
            .map_err(|_| r.error(at, WireErrorKind::InvalidUtf8))
    }
}

impl<T: Wire> Wire for Vec<T> {
    fn encode<S: Sink>(&self, out: &mut S) {
        put_len(out, self.len());
        for v in self {
            v.encode(out);
        }
    }
    fn decode(r: &mut Reader<'_>) -> Result<Self, WireError> {
        let n = r.length()?;
        let mut out = Vec::with_capacity(n);
        for _ in 0..n {
            out.push(T::decode(r)?);
        }
        Ok(out)
    }
}

impl<K: Wire + Ord, V: Wire> Wire for BTreeMap<K, V> {
    fn encode<S: Sink>(&self, out: &mut S) {
        put_len(out, self.len());
        for (k, v) in self {
            k.encode(out);
            v.encode(out);
        }
    }
    fn decode(r: &mut Reader<'_>) -> Result<Self, WireError> {
        let n = r.length()?;
        let mut out = BTreeMap::new();
        for _ in 0..n {
            let k = K::decode(r)?;
            out.insert(k, V::decode(r)?);
        }
        Ok(out)
    }
}

impl<T: Wire> Wire for Option<T> {
    fn encode<S: Sink>(&self, out: &mut S) {
        match self {
            None => put_tag(out, 0),
            Some(v) => {
                put_tag(out, 1);
                v.encode(out);
            }
        }
    }
    fn decode(r: &mut Reader<'_>) -> Result<Self, WireError> {
        match r.tag()? {
            (_, 0) => Ok(None),
            (_, 1) => Ok(Some(T::decode(r)?)),
            (at, tag) => Err(r.unknown_tag(at, "Option", tag)),
        }
    }
}

impl<T: Wire> Wire for Box<T> {
    fn encode<S: Sink>(&self, out: &mut S) {
        (**self).encode(out);
    }
    fn decode(r: &mut Reader<'_>) -> Result<Self, WireError> {
        T::decode(r).map(Box::new)
    }
}

impl<A: Wire, B: Wire> Wire for (A, B) {
    fn encode<S: Sink>(&self, out: &mut S) {
        self.0.encode(out);
        self.1.encode(out);
    }
    fn decode(r: &mut Reader<'_>) -> Result<Self, WireError> {
        Ok((A::decode(r)?, B::decode(r)?))
    }
}

// --- records: every field, in declaration order ---

macro_rules! wire_struct {
    ($($ty:ty { $($field:ident),+ $(,)? })+) => {$(
        impl Wire for $ty {
            fn encode<S: Sink>(&self, out: &mut S) {
                $(self.$field.encode(out);)+
            }
            fn decode(r: &mut Reader<'_>) -> Result<Self, WireError> {
                Ok(Self { $($field: Wire::decode(r)?,)+ })
            }
        }
    )+};
}

wire_struct! {
    FieldDef { name, bits }
    ParserTransition { tag, next }
    ImplicitParser { selector_fields, transitions }
    HeaderType { name, fields, parser, var_len_field, var_len_units }
    ActionCall { action, args }
    KeyField { source, bits, kind }
    TableDef { name, key, size, actions, default_action, with_counters }
    TableEntry { key, priority, action, counter }
    ActionDef { name, params, body }
    MatcherBranch { pred, table }
    TspTemplate { stage_name, func, parse, branches, executor, default_action }
    SelectorConfig { roles }
    FuncDef { name, stages }
    CompiledDesign {
        name, linkage, metadata, actions, tables, templates, selector, table_alloc,
        crossbar, funcs,
    }
}

// --- fieldless enums: the tag is the variant's position in the list ---

macro_rules! wire_unit_enum {
    ($($ty:ident { $($variant:ident),+ $(,)? })+) => {$(
        impl Wire for $ty {
            fn encode<S: Sink>(&self, out: &mut S) {
                const VARIANTS: &[$ty] = &[$($ty::$variant),+];
                let tag = VARIANTS.iter().position(|v| v == self).unwrap_or(0);
                put_tag(out, tag as u8);
            }
            fn decode(r: &mut Reader<'_>) -> Result<Self, WireError> {
                const VARIANTS: &[$ty] = &[$($ty::$variant),+];
                let (at, tag) = r.tag()?;
                VARIANTS
                    .get(usize::from(tag))
                    .copied()
                    .ok_or_else(|| r.unknown_tag(at, stringify!($ty), tag))
            }
        }
    )+};
}

wire_unit_enum! {
    MatchKind { Exact, Lpm, Ternary, Hash }
    SlotRole { Ingress, Egress, Bypass }
    CmpOp { Eq, Ne, Lt, Le, Gt, Ge }
    AluOp { Add, Sub, And, Or, Xor, Shl, Shr }
}

// --- enums with data: tag byte, then the variant's fields ---

impl Wire for HeaderLinkage {
    fn encode<S: Sink>(&self, out: &mut S) {
        put_len(out, self.len());
        for ty in self.iter() {
            ty.encode(out);
        }
        match self.first() {
            None => put_tag(out, 0),
            Some(first) => {
                put_tag(out, 1);
                put_str(out, first);
            }
        }
    }
    fn decode(r: &mut Reader<'_>) -> Result<Self, WireError> {
        let mut g = HeaderLinkage::new();
        for ty in Vec::<HeaderType>::decode(r)? {
            g.register(ty);
        }
        let at = r.pos;
        if let Some(first) = Option::<String>::decode(r)? {
            g.set_first(&first)
                .map_err(|_| r.error(at, WireErrorKind::UnknownFirstHeader(first)))?;
        }
        Ok(g)
    }
}

impl Wire for KeyMatch {
    fn encode<S: Sink>(&self, out: &mut S) {
        match self {
            KeyMatch::Exact(v) => {
                put_tag(out, 0);
                v.encode(out);
            }
            KeyMatch::Lpm { value, prefix_len } => {
                put_tag(out, 1);
                value.encode(out);
                prefix_len.encode(out);
            }
            KeyMatch::Ternary { value, mask } => {
                put_tag(out, 2);
                value.encode(out);
                mask.encode(out);
            }
        }
    }
    fn decode(r: &mut Reader<'_>) -> Result<Self, WireError> {
        Ok(match r.tag()? {
            (_, 0) => KeyMatch::Exact(Wire::decode(r)?),
            (_, 1) => KeyMatch::Lpm {
                value: Wire::decode(r)?,
                prefix_len: Wire::decode(r)?,
            },
            (_, 2) => KeyMatch::Ternary {
                value: Wire::decode(r)?,
                mask: Wire::decode(r)?,
            },
            (at, tag) => return Err(r.unknown_tag(at, "KeyMatch", tag)),
        })
    }
}

impl Wire for ValueRef {
    fn encode<S: Sink>(&self, out: &mut S) {
        match self {
            ValueRef::Const(v) => {
                put_tag(out, 0);
                v.encode(out);
            }
            ValueRef::Field { header, field } => {
                put_tag(out, 1);
                header.encode(out);
                field.encode(out);
            }
            ValueRef::Meta(name) => {
                put_tag(out, 2);
                name.encode(out);
            }
            ValueRef::Param(i) => {
                put_tag(out, 3);
                i.encode(out);
            }
            ValueRef::EntryCounter => put_tag(out, 4),
        }
    }
    fn decode(r: &mut Reader<'_>) -> Result<Self, WireError> {
        Ok(match r.tag()? {
            (_, 0) => ValueRef::Const(Wire::decode(r)?),
            (_, 1) => ValueRef::Field {
                header: Wire::decode(r)?,
                field: Wire::decode(r)?,
            },
            (_, 2) => ValueRef::Meta(Wire::decode(r)?),
            (_, 3) => ValueRef::Param(Wire::decode(r)?),
            (_, 4) => ValueRef::EntryCounter,
            (at, tag) => return Err(r.unknown_tag(at, "ValueRef", tag)),
        })
    }
}

impl Wire for LValueRef {
    fn encode<S: Sink>(&self, out: &mut S) {
        match self {
            LValueRef::Field { header, field } => {
                put_tag(out, 0);
                header.encode(out);
                field.encode(out);
            }
            LValueRef::Meta(name) => {
                put_tag(out, 1);
                name.encode(out);
            }
        }
    }
    fn decode(r: &mut Reader<'_>) -> Result<Self, WireError> {
        Ok(match r.tag()? {
            (_, 0) => LValueRef::Field {
                header: Wire::decode(r)?,
                field: Wire::decode(r)?,
            },
            (_, 1) => LValueRef::Meta(Wire::decode(r)?),
            (at, tag) => return Err(r.unknown_tag(at, "LValueRef", tag)),
        })
    }
}

impl Wire for Predicate {
    fn encode<S: Sink>(&self, out: &mut S) {
        match self {
            Predicate::True => put_tag(out, 0),
            Predicate::IsValid(h) => {
                put_tag(out, 1);
                h.encode(out);
            }
            Predicate::Not(p) => {
                put_tag(out, 2);
                p.encode(out);
            }
            Predicate::And(a, b) => {
                put_tag(out, 3);
                a.encode(out);
                b.encode(out);
            }
            Predicate::Or(a, b) => {
                put_tag(out, 4);
                a.encode(out);
                b.encode(out);
            }
            Predicate::Cmp { lhs, op, rhs } => {
                put_tag(out, 5);
                lhs.encode(out);
                op.encode(out);
                rhs.encode(out);
            }
        }
    }
    fn decode(r: &mut Reader<'_>) -> Result<Self, WireError> {
        r.nested(|r| {
            Ok(match r.tag()? {
                (_, 0) => Predicate::True,
                (_, 1) => Predicate::IsValid(Wire::decode(r)?),
                (_, 2) => Predicate::Not(Wire::decode(r)?),
                (_, 3) => Predicate::And(Wire::decode(r)?, Wire::decode(r)?),
                (_, 4) => Predicate::Or(Wire::decode(r)?, Wire::decode(r)?),
                (_, 5) => Predicate::Cmp {
                    lhs: Wire::decode(r)?,
                    op: Wire::decode(r)?,
                    rhs: Wire::decode(r)?,
                },
                (at, tag) => return Err(r.unknown_tag(at, "Predicate", tag)),
            })
        })
    }
}

impl Wire for Primitive {
    fn encode<S: Sink>(&self, out: &mut S) {
        match self {
            Primitive::Set { dst, src } => {
                put_tag(out, 0);
                dst.encode(out);
                src.encode(out);
            }
            Primitive::Alu { op, dst, a, b } => {
                put_tag(out, 1);
                op.encode(out);
                dst.encode(out);
                a.encode(out);
                b.encode(out);
            }
            Primitive::Hash {
                dst,
                inputs,
                modulo,
            } => {
                put_tag(out, 2);
                dst.encode(out);
                inputs.encode(out);
                modulo.encode(out);
            }
            Primitive::Forward { port } => {
                put_tag(out, 3);
                port.encode(out);
            }
            Primitive::Drop => put_tag(out, 4),
            Primitive::Mark { value } => {
                put_tag(out, 5);
                value.encode(out);
            }
            Primitive::MarkIfCounterOver { threshold } => {
                put_tag(out, 6);
                threshold.encode(out);
            }
            Primitive::InsertHeaderAfter {
                after,
                header,
                fields,
                extra_words,
            } => {
                put_tag(out, 7);
                after.encode(out);
                header.encode(out);
                fields.encode(out);
                extra_words.encode(out);
            }
            Primitive::RemoveHeader { header } => {
                put_tag(out, 8);
                header.encode(out);
            }
            Primitive::Srv6Advance => put_tag(out, 9),
            Primitive::DecTtlV4 => put_tag(out, 10),
            Primitive::DecHopLimitV6 => put_tag(out, 11),
            Primitive::RefreshIpv4Checksum => put_tag(out, 12),
            Primitive::NoAction => put_tag(out, 13),
        }
    }
    fn decode(r: &mut Reader<'_>) -> Result<Self, WireError> {
        Ok(match r.tag()? {
            (_, 0) => Primitive::Set {
                dst: Wire::decode(r)?,
                src: Wire::decode(r)?,
            },
            (_, 1) => Primitive::Alu {
                op: Wire::decode(r)?,
                dst: Wire::decode(r)?,
                a: Wire::decode(r)?,
                b: Wire::decode(r)?,
            },
            (_, 2) => Primitive::Hash {
                dst: Wire::decode(r)?,
                inputs: Wire::decode(r)?,
                modulo: Wire::decode(r)?,
            },
            (_, 3) => Primitive::Forward {
                port: Wire::decode(r)?,
            },
            (_, 4) => Primitive::Drop,
            (_, 5) => Primitive::Mark {
                value: Wire::decode(r)?,
            },
            (_, 6) => Primitive::MarkIfCounterOver {
                threshold: Wire::decode(r)?,
            },
            (_, 7) => Primitive::InsertHeaderAfter {
                after: Wire::decode(r)?,
                header: Wire::decode(r)?,
                fields: Wire::decode(r)?,
                extra_words: Wire::decode(r)?,
            },
            (_, 8) => Primitive::RemoveHeader {
                header: Wire::decode(r)?,
            },
            (_, 9) => Primitive::Srv6Advance,
            (_, 10) => Primitive::DecTtlV4,
            (_, 11) => Primitive::DecHopLimitV6,
            (_, 12) => Primitive::RefreshIpv4Checksum,
            (_, 13) => Primitive::NoAction,
            (at, tag) => return Err(r.unknown_tag(at, "Primitive", tag)),
        })
    }
}

impl Wire for ControlMsg {
    fn encode<S: Sink>(&self, out: &mut S) {
        match self {
            ControlMsg::Drain => put_tag(out, 0),
            ControlMsg::Resume => put_tag(out, 1),
            ControlMsg::WriteTemplate { slot, template } => {
                put_tag(out, 2);
                slot.encode(out);
                template.encode(out);
            }
            ControlMsg::ClearSlot { slot } => {
                put_tag(out, 3);
                slot.encode(out);
            }
            ControlMsg::SetSelector(selector) => {
                put_tag(out, 4);
                selector.encode(out);
            }
            ControlMsg::ConnectCrossbar { slot, blocks } => {
                put_tag(out, 5);
                slot.encode(out);
                blocks.encode(out);
            }
            ControlMsg::RegisterHeader(ty) => {
                put_tag(out, 6);
                ty.encode(out);
            }
            ControlMsg::SetFirstHeader(name) => {
                put_tag(out, 7);
                name.encode(out);
            }
            ControlMsg::UnregisterHeader(name) => {
                put_tag(out, 8);
                name.encode(out);
            }
            ControlMsg::LinkHeader { pre, next, tag } => {
                put_tag(out, 9);
                pre.encode(out);
                next.encode(out);
                tag.encode(out);
            }
            ControlMsg::UnlinkHeader { pre, next } => {
                put_tag(out, 10);
                pre.encode(out);
                next.encode(out);
            }
            ControlMsg::DefineAction(action) => {
                put_tag(out, 11);
                action.encode(out);
            }
            ControlMsg::RemoveAction(name) => {
                put_tag(out, 12);
                name.encode(out);
            }
            ControlMsg::DefineMetadata(fields) => {
                put_tag(out, 13);
                fields.encode(out);
            }
            ControlMsg::CreateTable { def, blocks } => {
                put_tag(out, 14);
                def.encode(out);
                blocks.encode(out);
            }
            ControlMsg::DestroyTable(name) => {
                put_tag(out, 15);
                name.encode(out);
            }
            ControlMsg::MigrateTable { table, blocks } => {
                put_tag(out, 16);
                table.encode(out);
                blocks.encode(out);
            }
            ControlMsg::AddEntry { table, entry } => {
                put_tag(out, 17);
                table.encode(out);
                entry.encode(out);
            }
            ControlMsg::DelEntry { table, key } => {
                put_tag(out, 18);
                table.encode(out);
                key.encode(out);
            }
            ControlMsg::SetDefaultAction { table, action } => {
                put_tag(out, 19);
                table.encode(out);
                action.encode(out);
            }
            ControlMsg::LoadFullDesign(design) => {
                put_tag(out, 20);
                design.encode(out);
            }
        }
    }
    fn decode(r: &mut Reader<'_>) -> Result<Self, WireError> {
        Ok(match r.tag()? {
            (_, 0) => ControlMsg::Drain,
            (_, 1) => ControlMsg::Resume,
            (_, 2) => ControlMsg::WriteTemplate {
                slot: Wire::decode(r)?,
                template: Wire::decode(r)?,
            },
            (_, 3) => ControlMsg::ClearSlot {
                slot: Wire::decode(r)?,
            },
            (_, 4) => ControlMsg::SetSelector(Wire::decode(r)?),
            (_, 5) => ControlMsg::ConnectCrossbar {
                slot: Wire::decode(r)?,
                blocks: Wire::decode(r)?,
            },
            (_, 6) => ControlMsg::RegisterHeader(Wire::decode(r)?),
            (_, 7) => ControlMsg::SetFirstHeader(Wire::decode(r)?),
            (_, 8) => ControlMsg::UnregisterHeader(Wire::decode(r)?),
            (_, 9) => ControlMsg::LinkHeader {
                pre: Wire::decode(r)?,
                next: Wire::decode(r)?,
                tag: Wire::decode(r)?,
            },
            (_, 10) => ControlMsg::UnlinkHeader {
                pre: Wire::decode(r)?,
                next: Wire::decode(r)?,
            },
            (_, 11) => ControlMsg::DefineAction(Wire::decode(r)?),
            (_, 12) => ControlMsg::RemoveAction(Wire::decode(r)?),
            (_, 13) => ControlMsg::DefineMetadata(Wire::decode(r)?),
            (_, 14) => ControlMsg::CreateTable {
                def: Wire::decode(r)?,
                blocks: Wire::decode(r)?,
            },
            (_, 15) => ControlMsg::DestroyTable(Wire::decode(r)?),
            (_, 16) => ControlMsg::MigrateTable {
                table: Wire::decode(r)?,
                blocks: Wire::decode(r)?,
            },
            (_, 17) => ControlMsg::AddEntry {
                table: Wire::decode(r)?,
                entry: Wire::decode(r)?,
            },
            (_, 18) => ControlMsg::DelEntry {
                table: Wire::decode(r)?,
                key: Wire::decode(r)?,
            },
            (_, 19) => ControlMsg::SetDefaultAction {
                table: Wire::decode(r)?,
                action: Wire::decode(r)?,
            },
            (_, 20) => ControlMsg::LoadFullDesign(Wire::decode(r)?),
            (at, tag) => return Err(r.unknown_tag(at, "ControlMsg", tag)),
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn varint_bytes(v: u128) -> Vec<u8> {
        let mut out = Vec::new();
        out.put_varint(v);
        out
    }

    #[test]
    fn varints_round_trip_at_every_width() {
        for shift in 0..128 {
            for v in [1u128 << shift, (1u128 << shift) - 1, u128::MAX >> shift] {
                let bytes = varint_bytes(v);
                let mut r = Reader::new(&bytes);
                assert_eq!(r.varint(), Ok(v));
                assert_eq!(r.remaining(), 0);
            }
        }
        assert_eq!(varint_bytes(0), [0]);
        assert_eq!(varint_bytes(300), [0xac, 0x02]);
        assert_eq!(varint_bytes(u128::MAX).len(), MAX_VARINT);
    }

    #[test]
    fn zigzag_keeps_small_negatives_short() {
        for (v, len) in [
            (0i32, 1),
            (-1, 1),
            (63, 1),
            (-64, 1),
            (64, 2),
            (i32::MIN, 5),
        ] {
            let mut out = Vec::new();
            v.encode(&mut out);
            assert_eq!(out.len(), len, "{v}");
            assert_eq!(i32::decode(&mut Reader::new(&out)), Ok(v));
        }
        for v in [i32::MAX, i32::MIN, 12345, -12345] {
            let mut out = Vec::new();
            v.encode(&mut out);
            assert_eq!(i32::decode(&mut Reader::new(&out)), Ok(v));
        }
    }

    #[test]
    fn malformed_varints_are_refused_at_their_start() {
        let overlong = WireErrorKind::OverlongVarint;
        // Non-minimal: a trailing zero group.
        let mut r = Reader::new(&[0x80, 0x00]);
        assert_eq!(r.varint().unwrap_err().kind, overlong);
        // Twenty groups.
        let long = [0xffu8; 20];
        assert_eq!(Reader::new(&long).varint().unwrap_err().offset, 0);
        // The 19th group may only carry the top two bits.
        let mut top = vec![0xffu8; 18];
        top.push(0x04);
        assert_eq!(Reader::new(&top).varint().unwrap_err().kind, overlong);
        top[18] = 0x03;
        assert_eq!(Reader::new(&top).varint(), Ok(u128::MAX));
        // Cut inside the varint.
        let mut r = Reader::new(&[0x01, 0x80]);
        r.byte().unwrap();
        assert_eq!(
            r.varint().unwrap_err(),
            WireError {
                offset: 2,
                kind: WireErrorKind::Truncated
            }
        );
        // Out of range for the field.
        let big = varint_bytes(u128::from(u32::MAX) + 1);
        assert_eq!(
            Reader::new(&big).int::<u32>().unwrap_err().kind,
            WireErrorKind::IntOutOfRange
        );
    }

    #[test]
    fn byte_count_matches_the_bytes_written() {
        let msg = ControlMsg::LinkHeader {
            pre: "ipv6".into(),
            next: "srh".into(),
            tag: 43,
        };
        let frame = encode_frame(&msg);
        assert_eq!(encoded_len(&msg), frame.len());
        // version, payload length, tag, "ipv6", "srh", 43
        assert_eq!(frame.len(), 1 + 1 + 1 + 5 + 4 + 1);
        assert_eq!(decode_frame::<ControlMsg>(&frame), Ok(msg));
    }
}
