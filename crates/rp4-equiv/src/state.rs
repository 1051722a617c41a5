//! The symbolic packet state and the primitive semantics shared by both
//! evaluators.
//!
//! Header validity starts undetermined and is decided by the oracle on
//! first use ("was this header on the wire?"); `insert`/`remove_header`
//! override it. Field and metadata valuations are [`Term`]s; unwritten
//! fields read as their wire symbol, unwritten metadata as zero, exactly
//! like the concrete machine. The fixed-function primitives (TTL
//! decrement, SRv6 advance, checksum refresh, counter marking) are
//! implemented once here and invoked from both evaluators, so their term
//! shapes are structurally identical by construction — only `Set`/`Alu`/
//! `Hash`/`Forward`/`Mark`, whose operands come from side-specific
//! expression languages, are evaluated per side.

use std::collections::BTreeMap;

use crate::oracle::{CmpKind, Oracle};
use crate::term::{alu, trunc, SymAluOp, Term};

/// Side-specific width/layout information (the AST side answers from the
/// checked environment, the design side from the header linkage).
pub(crate) trait Widths {
    /// Declared width of `header.field` in bits (128 when unknown).
    fn field_width(&self, header: &str, field: &str) -> usize;
    /// Declared width of a metadata field in bits (128 when unknown,
    /// matching `CompiledDesign::meta_width`).
    fn meta_width(&self, name: &str) -> usize;
    /// Declared field names of a header, in order (empty when unknown).
    fn header_fields(&self, header: &str) -> Vec<String>;
}

/// What finally happened to the packet.
#[derive(Debug, Clone, PartialEq, Eq)]
pub(crate) enum Outcome {
    /// Emitted on the given port.
    Forwarded(Term),
    /// Dropped by an action (`drop()`, TTL/hop-limit expiry, drop mark).
    DroppedByAction,
    /// Dropped by the traffic manager: no egress port was chosen.
    DroppedNoRoute,
    /// The concrete machine would abort this packet with an error (e.g.
    /// an action operand reads a header that is not present).
    RuntimeError(String),
}

/// Symbolic per-packet state.
#[derive(Debug, Clone, PartialEq, Default)]
pub(crate) struct SymState {
    /// Explicit validity overrides from header insertion/removal. Headers
    /// not listed here keep their oracle-decided wire validity.
    pub validity: BTreeMap<String, bool>,
    /// Written header fields.
    pub fields: BTreeMap<(String, String), Term>,
    /// Written user metadata (plus an `ingress_port` override if set).
    pub meta: BTreeMap<String, Term>,
    /// `meta.mark` (None = untouched = 0).
    pub mark: Option<Term>,
    /// Chosen egress port.
    pub egress: Option<Term>,
    /// Drop flag.
    pub drop: bool,
}

impl SymState {
    /// Effective validity of a header in the current world.
    pub(crate) fn is_valid(&self, oracle: &mut Oracle, header: &str) -> bool {
        match self.validity.get(header) {
            Some(&v) => v,
            None => oracle.validity(header),
        }
    }

    /// Reads a header field; `None` when the header is absent (predicates
    /// treat that as a failed comparison, actions as a runtime error).
    pub(crate) fn read_field(
        &self,
        oracle: &mut Oracle,
        header: &str,
        field: &str,
    ) -> Option<Term> {
        if !self.is_valid(oracle, header) {
            return None;
        }
        Some(
            self.fields
                .get(&(header.to_string(), field.to_string()))
                .cloned()
                .unwrap_or_else(|| Term::Field(header.to_string(), field.to_string())),
        )
    }

    /// Writes a header field (truncated to its declared width). Errors when
    /// the header is absent, as the concrete `set_field` would.
    pub(crate) fn write_field(
        &mut self,
        oracle: &mut Oracle,
        widths: &dyn Widths,
        header: &str,
        field: &str,
        value: Term,
    ) -> Result<(), String> {
        if !self.is_valid(oracle, header) {
            return Err(format!("write to absent header `{header}`"));
        }
        let w = widths.field_width(header, field);
        self.fields
            .insert((header.to_string(), field.to_string()), trunc(w, value));
        Ok(())
    }

    /// Reads a metadata field, intrinsics included (mirrors
    /// `PacketMeta::get`).
    pub(crate) fn read_meta(&self, name: &str) -> Term {
        match name {
            "egress_port" => self.egress.clone().unwrap_or(Term::Const(0)),
            "drop" => Term::Const(self.drop as u128),
            "mark" => self.mark.clone().unwrap_or(Term::Const(0)),
            "ingress_port" => self.meta.get(name).cloned().unwrap_or(Term::IngressPort),
            _ => self.meta.get(name).cloned().unwrap_or(Term::Const(0)),
        }
    }

    /// Writes a metadata field through a `Set`-style assignment: truncate
    /// to the declared width, then route intrinsics (mirrors
    /// `PacketMeta::set`).
    pub(crate) fn write_meta(
        &mut self,
        oracle: &mut Oracle,
        widths: &dyn Widths,
        name: &str,
        value: Term,
    ) {
        let v = trunc(widths.meta_width(name), value);
        match name {
            "egress_port" => self.egress = Some(trunc(16, v)),
            "drop" => {
                self.drop = match v.as_const() {
                    Some(c) => c != 0,
                    None => !oracle.eq_const(v, 0),
                }
            }
            "mark" => self.mark = Some(v),
            _ => {
                self.meta.insert(name.to_string(), v);
            }
        }
    }
}

/// A comparison decision shared by both predicate languages: constants
/// fold, everything else goes through the oracle with `==`/`!=` routed
/// through the same equality key so exclusivity forcing applies.
pub(crate) fn decide_cmp(
    oracle: &mut Oracle,
    op: ipsa_core::predicate::CmpOp,
    lhs: Term,
    rhs: Term,
) -> bool {
    use ipsa_core::predicate::CmpOp;
    if let (Some(a), Some(b)) = (lhs.as_const(), rhs.as_const()) {
        return match op {
            CmpOp::Eq => a == b,
            CmpOp::Ne => a != b,
            CmpOp::Lt => a < b,
            CmpOp::Le => a <= b,
            CmpOp::Gt => a > b,
            CmpOp::Ge => a >= b,
        };
    }
    match op {
        CmpOp::Eq | CmpOp::Ne => {
            // Canonicalize so `x == c` and `c == x` share a key.
            let eq = match (lhs.as_const(), rhs.as_const()) {
                (None, Some(c)) => oracle.eq_const(lhs, c),
                (Some(c), None) => oracle.eq_const(rhs, c),
                _ => {
                    oracle.cmp(CmpKind::Le, lhs.clone(), rhs.clone())
                        && oracle.cmp(CmpKind::Ge, lhs, rhs)
                }
            };
            if op == CmpOp::Eq {
                eq
            } else {
                !eq
            }
        }
        CmpOp::Lt => oracle.cmp(CmpKind::Lt, lhs, rhs),
        CmpOp::Le => oracle.cmp(CmpKind::Le, lhs, rhs),
        CmpOp::Gt => oracle.cmp(CmpKind::Gt, lhs, rhs),
        CmpOp::Ge => oracle.cmp(CmpKind::Ge, lhs, rhs),
    }
}

/// `forward(port)`: `meta.egress_port = port as u16`.
pub(crate) fn prim_forward(st: &mut SymState, port: Term) {
    st.egress = Some(trunc(16, port));
}

/// `mark(value)`: unlike a `Set` to `meta.mark`, no width truncation.
pub(crate) fn prim_mark(st: &mut SymState, value: Term) {
    st.mark = Some(value);
}

/// `mark_if_count_over(threshold)`.
pub(crate) fn prim_mark_if_counter_over(
    st: &mut SymState,
    oracle: &mut Oracle,
    counter: Option<Term>,
    threshold: Term,
) {
    let c = counter.unwrap_or(Term::Const(0));
    let over = match (c.as_const(), threshold.as_const()) {
        (Some(a), Some(b)) => a > b,
        _ => oracle.cmp(CmpKind::Gt, c, threshold),
    };
    if over {
        st.mark = Some(Term::Const(1));
    }
}

/// `dec_ttl_v4()`.
pub(crate) fn prim_dec_ttl_v4(st: &mut SymState, oracle: &mut Oracle, widths: &dyn Widths) {
    if !st.is_valid(oracle, "ipv4") {
        return;
    }
    let ttl = st.read_field(oracle, "ipv4", "ttl").expect("ipv4 valid");
    let expired = match ttl.as_const() {
        Some(v) => v == 0,
        None => oracle.eq_const(ttl.clone(), 0),
    };
    if expired {
        st.drop = true;
        return;
    }
    let proto = st
        .read_field(oracle, "ipv4", "protocol")
        .expect("ipv4 valid");
    let old_ck = st
        .read_field(oracle, "ipv4", "hdr_checksum")
        .expect("ipv4 valid");
    let new_ck = Term::IncrCksum {
        old: Box::new(old_ck),
        ttl: Box::new(ttl.clone()),
        proto: Box::new(proto),
    };
    let new_ttl = alu(SymAluOp::Sub, ttl, Term::Const(1));
    st.write_field(oracle, widths, "ipv4", "ttl", new_ttl)
        .expect("ipv4 valid");
    st.write_field(oracle, widths, "ipv4", "hdr_checksum", new_ck)
        .expect("ipv4 valid");
}

/// `dec_hop_limit_v6()`.
pub(crate) fn prim_dec_hop_limit_v6(st: &mut SymState, oracle: &mut Oracle, widths: &dyn Widths) {
    if !st.is_valid(oracle, "ipv6") {
        return;
    }
    let hl = st
        .read_field(oracle, "ipv6", "hop_limit")
        .expect("ipv6 valid");
    let expired = match hl.as_const() {
        Some(v) => v == 0,
        None => oracle.eq_const(hl.clone(), 0),
    };
    if expired {
        st.drop = true;
        return;
    }
    let new_hl = alu(SymAluOp::Sub, hl, Term::Const(1));
    st.write_field(oracle, widths, "ipv6", "hop_limit", new_hl)
        .expect("ipv6 valid");
}

/// `refresh_ipv4_checksum()`: errors when ipv4 is absent, like the VM.
pub(crate) fn prim_refresh_ipv4_checksum(
    st: &mut SymState,
    oracle: &mut Oracle,
    widths: &dyn Widths,
) -> Result<(), String> {
    if !st.is_valid(oracle, "ipv4") {
        return Err("refresh_ipv4_checksum on absent ipv4 header".to_string());
    }
    let mut inputs = Vec::new();
    for f in widths.header_fields("ipv4") {
        if f == "hdr_checksum" {
            continue;
        }
        let v = st.read_field(oracle, "ipv4", &f).expect("ipv4 valid");
        inputs.push((f, v));
    }
    st.write_field(oracle, widths, "ipv4", "hdr_checksum", Term::Cksum4(inputs))
}

/// `srv6_advance()`.
pub(crate) fn prim_srv6_advance(st: &mut SymState, oracle: &mut Oracle, widths: &dyn Widths) {
    if !st.is_valid(oracle, "srh") {
        return;
    }
    let sl = st
        .read_field(oracle, "srh", "segments_left")
        .expect("srh valid");
    let advancing = match sl.as_const() {
        Some(v) => v > 0,
        None => oracle.cmp(CmpKind::Gt, sl.clone(), Term::Const(0)),
    };
    if !advancing || !st.is_valid(oracle, "ipv6") {
        return;
    }
    let new_sl = alu(SymAluOp::Sub, sl, Term::Const(1));
    st.write_field(oracle, widths, "srh", "segments_left", new_sl.clone())
        .expect("srh valid");
    st.write_field(
        oracle,
        widths,
        "ipv6",
        "dst_addr",
        Term::SrhSegment(Box::new(new_sl)),
    )
    .expect("ipv6 valid");
}

/// `remove_header(h)`.
pub(crate) fn prim_remove_header(st: &mut SymState, header: &str) {
    st.validity.insert(header.to_string(), false);
}
