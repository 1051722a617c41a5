//! The symbolic value language shared by both evaluators.
//!
//! A [`Term`] stands for a 128-bit value whose origin is the wire packet,
//! installed table entries, or arithmetic over those. Both evaluators build
//! terms through the same smart constructors, so a correct compilation
//! produces *structurally identical* terms on both sides and equivalence
//! reduces to `==` on final states. The constructors normalize just enough
//! for that to hold across the compiler's value-spilling rewrites:
//! truncation to 128 bits is the identity (scratch metadata is 128 bits
//! wide), constants fold with the exact wrapping semantics of
//! [`AluOp::apply`], and a reduced hash already fits its destination.

use std::fmt;

use ipsa_core::action::AluOp;
use ipsa_netpkt::bitfield::truncate_to_width;

/// A symbolic 128-bit value.
#[derive(Debug, Clone, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub(crate) enum Term {
    /// A literal.
    Const(u128),
    /// The value a header field had on the wire (before any rewrite).
    Field(String, String),
    /// The packet's ingress port.
    IngressPort,
    /// Action-data word `index` of the entry matched in `table` whose
    /// action tag is `tag`.
    EntryData {
        /// Table name.
        table: String,
        /// Matched action tag (1-based).
        tag: u32,
        /// Parameter index.
        index: usize,
    },
    /// The post-increment packet counter of the entry matched in `table`.
    EntryCounter {
        /// Table name.
        table: String,
        /// Matched action tag (1-based).
        tag: u32,
    },
    /// `a <op> b` with 128-bit wrapping semantics.
    Alu {
        /// Operation.
        op: SymAluOp,
        /// Left operand.
        a: Box<Term>,
        /// Right operand.
        b: Box<Term>,
    },
    /// `hash(inputs) % modulo` (`modulo == 0` means no reduction).
    Hash {
        /// Hash inputs in order.
        inputs: Vec<Term>,
        /// Optional modulus.
        modulo: u64,
    },
    /// The low `bits` bits of `of`.
    Trunc {
        /// Kept width.
        bits: usize,
        /// Inner value.
        of: Box<Term>,
    },
    /// A from-scratch IPv4 header checksum over the given field values
    /// (sorted by field name, `hdr_checksum` excluded). Opaque: only
    /// structural equality matters.
    Cksum4(Vec<(String, Term)>),
    /// An RFC 1624 incremental checksum update after a TTL decrement,
    /// folding the old checksum with the old TTL (the protocol byte
    /// cancels out structurally).
    IncrCksum {
        /// Old checksum value.
        old: Box<Term>,
        /// Old TTL value.
        ttl: Box<Term>,
        /// Old protocol value (part of the rewritten 16-bit word).
        proto: Box<Term>,
    },
    /// The 128-bit SRH segment at (1-based-from-end) index `sl`.
    SrhSegment(Box<Term>),
}

/// ALU operations, mirroring [`AluOp`] but hashable/orderable so terms can
/// serve as decision keys.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
#[allow(missing_docs)]
pub(crate) enum SymAluOp {
    Add,
    Sub,
    And,
    Or,
    Xor,
    Shl,
    Shr,
}

impl From<AluOp> for SymAluOp {
    fn from(op: AluOp) -> Self {
        match op {
            AluOp::Add => SymAluOp::Add,
            AluOp::Sub => SymAluOp::Sub,
            AluOp::And => SymAluOp::And,
            AluOp::Or => SymAluOp::Or,
            AluOp::Xor => SymAluOp::Xor,
            AluOp::Shl => SymAluOp::Shl,
            AluOp::Shr => SymAluOp::Shr,
        }
    }
}

impl SymAluOp {
    /// Concrete semantics; must stay bit-identical to `AluOp::apply`.
    pub(crate) fn apply(self, a: u128, b: u128) -> u128 {
        match self {
            SymAluOp::Add => a.wrapping_add(b),
            SymAluOp::Sub => a.wrapping_sub(b),
            SymAluOp::And => a & b,
            SymAluOp::Or => a | b,
            SymAluOp::Xor => a ^ b,
            SymAluOp::Shl => a.wrapping_shl((b as u32).min(127)),
            SymAluOp::Shr => a.wrapping_shr((b as u32).min(127)),
        }
    }
}

impl Term {
    /// The constant value, if this term is a literal.
    pub(crate) fn as_const(&self) -> Option<u128> {
        match self {
            Term::Const(v) => Some(*v),
            _ => None,
        }
    }
}

/// `a <op> b`, folding constants with the VM's exact wrapping semantics.
pub(crate) fn alu(op: SymAluOp, a: Term, b: Term) -> Term {
    if let (Some(x), Some(y)) = (a.as_const(), b.as_const()) {
        return Term::Const(op.apply(x, y));
    }
    Term::Alu {
        op,
        a: Box::new(a),
        b: Box::new(b),
    }
}

/// `hash(inputs) % modulo`, folding all-constant inputs.
pub(crate) fn hash(inputs: Vec<Term>, modulo: u64) -> Term {
    let consts: Option<Vec<u128>> = inputs.iter().map(Term::as_const).collect();
    if let Some(vals) = consts {
        let mut h = ipsa_core::hash::hash_values(&vals) as u128;
        if modulo > 0 {
            h %= modulo as u128;
        }
        return Term::Const(h);
    }
    Term::Hash { inputs, modulo }
}

/// The low `bits` bits of `t`. Normalizes so that the compiler's habit of
/// spilling intermediates through 128-bit scratch metadata is invisible:
/// `trunc(128, t) == t`, nested truncations collapse to the narrowest, and
/// a modulo-reduced hash that already fits passes through.
pub(crate) fn trunc(bits: usize, t: Term) -> Term {
    if bits >= 128 {
        return t;
    }
    match t {
        Term::Const(v) => Term::Const(truncate_to_width(v, bits)),
        Term::Trunc { bits: inner, of } if inner <= bits => Term::Trunc { bits: inner, of },
        Term::Trunc { of, .. } => Term::Trunc { bits, of },
        Term::Hash { inputs, modulo } if modulo > 0 && (modulo as u128) <= (1u128 << bits) => {
            Term::Hash { inputs, modulo }
        }
        other => Term::Trunc {
            bits,
            of: Box::new(other),
        },
    }
}

impl fmt::Display for Term {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Term::Const(v) => write!(f, "{v:#x}"),
            Term::Field(h, fl) => write!(f, "{h}.{fl}"),
            Term::IngressPort => write!(f, "ingress_port"),
            Term::EntryData { table, tag, index } => {
                write!(f, "entry[{table}#{tag}].arg{index}")
            }
            Term::EntryCounter { table, tag } => write!(f, "counter[{table}#{tag}]"),
            Term::Alu { op, a, b } => write!(f, "({a} {op:?} {b})"),
            Term::Hash { inputs, modulo } => {
                write!(f, "hash(")?;
                for (i, t) in inputs.iter().enumerate() {
                    if i > 0 {
                        write!(f, ", ")?;
                    }
                    write!(f, "{t}")?;
                }
                write!(f, ")")?;
                if *modulo > 0 {
                    write!(f, " % {modulo}")?;
                }
                Ok(())
            }
            Term::Trunc { bits, of } => write!(f, "{of}[{bits}b]"),
            Term::Cksum4(_) => write!(f, "cksum4(..)"),
            Term::IncrCksum { .. } => write!(f, "incr_cksum(..)"),
            Term::SrhSegment(sl) => write!(f, "srh.segment[{sl}]"),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn trunc_128_is_identity() {
        let t = Term::Field("ipv4".into(), "ttl".into());
        assert_eq!(trunc(128, t.clone()), t);
    }

    #[test]
    fn trunc_collapses_and_folds() {
        let t = Term::Field("a".into(), "b".into());
        let inner = trunc(8, t.clone());
        assert_eq!(trunc(16, inner.clone()), inner);
        assert_eq!(
            trunc(8, trunc(16, t.clone())),
            Term::Trunc {
                bits: 8,
                of: Box::new(t)
            }
        );
        assert_eq!(trunc(4, Term::Const(0x1ff)), Term::Const(0xf));
    }

    #[test]
    fn spill_shape_matches_direct_shape() {
        // (hash(x) % 4) + 1 built directly vs through a 128-bit spill.
        let x = Term::Field("ipv4".into(), "src_addr".into());
        let direct = alu(SymAluOp::Add, hash(vec![x.clone()], 4), Term::Const(1));
        let spilled = alu(SymAluOp::Add, trunc(128, hash(vec![x], 4)), Term::Const(1));
        assert_eq!(direct, spilled);
    }

    #[test]
    fn alu_folds_with_vm_semantics() {
        assert_eq!(
            alu(SymAluOp::Sub, Term::Const(0), Term::Const(1)),
            Term::Const(u128::MAX)
        );
    }
}
