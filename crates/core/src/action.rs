//! The action-primitive VM.
//!
//! rP4 action bodies compile to short sequences of [`Primitive`]s. A TSP's
//! executor runs primitives interpreted from its template, so loading a new
//! action at runtime is a pure data download — no code generation, exactly
//! the property IPSA needs for in-situ updates.

use ipsa_netpkt::bitfield::truncate_to_width;
use ipsa_netpkt::packet::Packet;
use serde::{Deserialize, Serialize};

use crate::error::CoreError;
use crate::hash::hash_values;
use crate::value::{EvalCtx, LValueRef, ValueRef};

/// ALU operations for [`Primitive::Alu`]. Results wrap to the destination
/// field's width.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum AluOp {
    /// Wrapping addition.
    Add,
    /// Wrapping subtraction.
    Sub,
    /// Bitwise AND.
    And,
    /// Bitwise OR.
    Or,
    /// Bitwise XOR.
    Xor,
    /// Left shift (by `b` bits, saturating shift amount at 127).
    Shl,
    /// Right shift.
    Shr,
}

impl AluOp {
    /// Applies the operation (wrapping arithmetic, shift amounts saturated
    /// at 127).
    pub fn apply(self, a: u128, b: u128) -> u128 {
        match self {
            AluOp::Add => a.wrapping_add(b),
            AluOp::Sub => a.wrapping_sub(b),
            AluOp::And => a & b,
            AluOp::Or => a | b,
            AluOp::Xor => a ^ b,
            AluOp::Shl => a.wrapping_shl((b as u32).min(127)),
            AluOp::Shr => a.wrapping_shr((b as u32).min(127)),
        }
    }
}

/// One action primitive. The full set covers everything the base design and
/// the C1–C3 use cases need, plus general header surgery.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum Primitive {
    /// `dst = src`.
    Set {
        /// Destination.
        dst: LValueRef,
        /// Source value.
        src: ValueRef,
    },
    /// `dst = a <op> b`, wrapped to `dst`'s width.
    Alu {
        /// Operation.
        op: AluOp,
        /// Destination.
        dst: LValueRef,
        /// First operand.
        a: ValueRef,
        /// Second operand.
        b: ValueRef,
    },
    /// `dst = hash(inputs) % modulo` (modulo 0 means no reduction).
    Hash {
        /// Destination.
        dst: LValueRef,
        /// Hash inputs, concatenated in order.
        inputs: Vec<ValueRef>,
        /// Optional modulus.
        modulo: u64,
    },
    /// Choose the egress port: `meta.egress_port = port`.
    Forward {
        /// Port number source.
        port: ValueRef,
    },
    /// Mark the packet for discard.
    Drop,
    /// Set `meta.mark` (flow-probe flagging).
    Mark {
        /// Mark value.
        value: ValueRef,
    },
    /// Set `meta.mark = 1` iff the matched entry's counter exceeds the
    /// threshold — the C3 probe's trigger in a single primitive so the
    /// check-and-mark is atomic per packet.
    MarkIfCounterOver {
        /// Packet-count threshold.
        threshold: ValueRef,
    },
    /// Insert a new header (built from `fields`) immediately after an
    /// existing header. Used by SRv6 encapsulation.
    InsertHeaderAfter {
        /// Existing header to insert after.
        after: String,
        /// New header's type name.
        header: String,
        /// Field values for the new header (missing fields zero).
        fields: Vec<(String, ValueRef)>,
        /// Extra payload bytes appended after the fixed fields (e.g. an SRH
        /// segment list), as 16-byte big-endian values.
        extra_words: Vec<ValueRef>,
    },
    /// Remove a header (decapsulation).
    RemoveHeader {
        /// Header to remove.
        header: String,
    },
    /// SRv6 "End" behavior (RFC 8754): if an SRH is present with
    /// `segments_left > 0`, decrement it and copy the now-active segment
    /// into `ipv6.dst_addr`. No-op otherwise.
    Srv6Advance,
    /// Decrement IPv4 TTL and incrementally fix the header checksum.
    DecTtlV4,
    /// Decrement IPv6 hop limit.
    DecHopLimitV6,
    /// Recompute the IPv4 header checksum from scratch.
    RefreshIpv4Checksum,
    /// Do nothing (the `NoAction` default).
    NoAction,
}

/// A named action: parameters plus a primitive body.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ActionDef {
    /// Action name, globally unique within a design.
    pub name: String,
    /// Parameter widths in bits (action data layout).
    pub params: Vec<(String, usize)>,
    /// Primitive body, executed in order.
    pub body: Vec<Primitive>,
}

impl ActionDef {
    /// A no-op action named `NoAction`, always available.
    pub fn no_action() -> Self {
        ActionDef {
            name: "NoAction".into(),
            params: vec![],
            body: vec![Primitive::NoAction],
        }
    }

    /// Total action-data width in bits (for table entry sizing).
    pub fn data_bits(&self) -> usize {
        self.params
            .iter()
            .fold(0, |sum, (_, b)| sum.saturating_add(*b))
    }
}

/// Result of executing an action on a packet.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct ActionOutcome {
    /// The packet was dropped.
    pub dropped: bool,
    /// Number of primitives executed (per-packet work metric used by the
    /// throughput model).
    pub primitives: usize,
}

/// Reads an operand value, wrapping absence and bad action data into the
/// error shapes the interpreter reports (used by both [`execute`] and the
/// compiled fast path's fallback evaluation, so error behaviour matches).
pub fn read_operand(
    v: &ValueRef,
    pkt: &Packet,
    ctx: &EvalCtx<'_>,
    action: &str,
) -> Result<u128, CoreError> {
    match v.read(pkt, ctx) {
        Ok(Some(x)) => Ok(x),
        Ok(None) => Err(CoreError::Packet(
            ipsa_netpkt::packet::PacketError::HeaderNotPresent(format!(
                "operand of action `{action}`"
            )),
        )),
        Err(CoreError::BadActionData {
            index, supplied, ..
        }) => Err(CoreError::BadActionData {
            action: action.to_string(),
            index,
            supplied,
        }),
        Err(e) => Err(e),
    }
}

/// Executes an action body against a packet.
///
/// `meta_width` resolves declared metadata field widths (ALU wrapping).
pub fn execute(
    action: &ActionDef,
    pkt: &mut Packet,
    ctx: &EvalCtx<'_>,
    meta_width: &dyn Fn(&str) -> usize,
) -> Result<ActionOutcome, CoreError> {
    let mut outcome = ActionOutcome::default();
    for prim in &action.body {
        outcome.primitives += 1;
        execute_prim(prim, &action.name, pkt, ctx, meta_width, &mut outcome)?;
        if pkt.meta.drop {
            break;
        }
    }
    Ok(outcome)
}

/// Executes a single primitive (the interpreter's match body, shared with
/// the compiled fast path's slow-primitive fallback so the two paths cannot
/// diverge). Does not count the primitive into `outcome.primitives` — the
/// caller owns that bookkeeping.
pub fn execute_prim(
    prim: &Primitive,
    action: &str,
    pkt: &mut Packet,
    ctx: &EvalCtx<'_>,
    meta_width: &dyn Fn(&str) -> usize,
    outcome: &mut ActionOutcome,
) -> Result<(), CoreError> {
    match prim {
        Primitive::NoAction => {}
        Primitive::Set { dst, src } => {
            let v = read_operand(src, pkt, ctx, action)?;
            let w = dst.width(ctx, meta_width);
            dst.write(pkt, ctx, truncate_to_width(v, w))?;
        }
        Primitive::Alu { op, dst, a, b } => {
            let va = read_operand(a, pkt, ctx, action)?;
            let vb = read_operand(b, pkt, ctx, action)?;
            let w = dst.width(ctx, meta_width);
            dst.write(pkt, ctx, truncate_to_width(op.apply(va, vb), w))?;
        }
        Primitive::Hash {
            dst,
            inputs,
            modulo,
        } => {
            let mut vals = Vec::with_capacity(inputs.len());
            for i in inputs {
                vals.push(read_operand(i, pkt, ctx, action)?);
            }
            let mut h = hash_values(&vals) as u128;
            if *modulo > 0 {
                h %= *modulo as u128;
            }
            let w = dst.width(ctx, meta_width);
            dst.write(pkt, ctx, truncate_to_width(h, w))?;
        }
        Primitive::Forward { port } => {
            let v = read_operand(port, pkt, ctx, action)?;
            pkt.meta.egress_port = Some(v as u16);
        }
        Primitive::Drop => {
            pkt.meta.drop = true;
            outcome.dropped = true;
        }
        Primitive::Mark { value } => {
            let v = read_operand(value, pkt, ctx, action)?;
            pkt.meta.mark = v;
        }
        Primitive::MarkIfCounterOver { threshold } => {
            let t = read_operand(threshold, pkt, ctx, action)?;
            if ctx.entry_counter.unwrap_or(0) as u128 > t {
                pkt.meta.mark = 1;
            }
        }
        Primitive::InsertHeaderAfter {
            after,
            header,
            fields,
            extra_words,
        } => {
            let ty = ctx
                .linkage
                .get(header)
                .ok_or_else(|| CoreError::Config(format!("unknown header `{header}`")))?
                .clone();
            let fixed = ty.fixed_len()?;
            let mut bytes = vec![0u8; fixed + 16 * extra_words.len()];
            for (f, v) in fields {
                let val = read_operand(v, pkt, ctx, action)?;
                ty.set(&mut bytes, f, val)?;
            }
            for (i, w) in extra_words.iter().enumerate() {
                let val = read_operand(w, pkt, ctx, action)?;
                let off = fixed + 16 * i;
                bytes[off..off + 16].copy_from_slice(&val.to_be_bytes());
            }
            pkt.insert_header_after(ctx.linkage, after, header, &bytes)?;
        }
        Primitive::RemoveHeader { header } => {
            pkt.remove_header(header)?;
        }
        Primitive::Srv6Advance => {
            let srh = pkt.parsed().iter().find(|h| h.ty == "srh").copied();
            if let Some(srh) = srh {
                let sl = read_operand(&ValueRef::field("srh", "segments_left"), pkt, ctx, action)?;
                if sl > 0 && pkt.is_valid("ipv6") {
                    let sl = sl - 1;
                    pkt.set_field(ctx.linkage, "srh", "segments_left", sl)?;
                    let seg_off = srh.offset + 8 + 16 * sl as usize;
                    if seg_off + 16 <= pkt.data.len() {
                        let seg = u128::from_be_bytes(
                            pkt.data[seg_off..seg_off + 16]
                                .try_into()
                                .expect("16-byte segment"),
                        );
                        pkt.set_field(ctx.linkage, "ipv6", "dst_addr", seg)?;
                    }
                }
            }
        }
        Primitive::DecTtlV4 => {
            if !pkt.is_valid("ipv4") {
                return Ok(()); // predicated no-op on non-v4 packets
            }
            let ttl = read_operand(&ValueRef::field("ipv4", "ttl"), pkt, ctx, action)?;
            if ttl == 0 {
                pkt.meta.drop = true;
                outcome.dropped = true;
            } else {
                // Incremental checksum per RFC 1624: the TTL shares a
                // 16-bit word with the protocol field.
                let proto = read_operand(&ValueRef::field("ipv4", "protocol"), pkt, ctx, action)?;
                let old_ck =
                    read_operand(&ValueRef::field("ipv4", "hdr_checksum"), pkt, ctx, action)?;
                let old_word = ((ttl as u16) << 8) | proto as u16;
                let new_word = (((ttl - 1) as u16) << 8) | proto as u16;
                let new_ck =
                    ipsa_netpkt::checksum::incremental_update(old_ck as u16, old_word, new_word);
                pkt.set_field(ctx.linkage, "ipv4", "ttl", ttl - 1)?;
                pkt.set_field(ctx.linkage, "ipv4", "hdr_checksum", new_ck as u128)?;
            }
        }
        Primitive::DecHopLimitV6 => {
            if !pkt.is_valid("ipv6") {
                return Ok(()); // predicated no-op on non-v6 packets
            }
            let hl = read_operand(&ValueRef::field("ipv6", "hop_limit"), pkt, ctx, action)?;
            if hl == 0 {
                pkt.meta.drop = true;
                outcome.dropped = true;
            } else {
                pkt.set_field(ctx.linkage, "ipv6", "hop_limit", hl - 1)?;
            }
        }
        Primitive::RefreshIpv4Checksum => {
            let ph = pkt
                .parsed()
                .iter()
                .find(|h| h.ty == "ipv4")
                .copied()
                .ok_or_else(|| {
                    CoreError::Packet(ipsa_netpkt::packet::PacketError::HeaderNotPresent(
                        "ipv4".into(),
                    ))
                })?;
            let ck = ipsa_netpkt::checksum::ipv4_header_checksum(
                &pkt.data[ph.offset..ph.offset + ph.len],
            );
            pkt.set_field(ctx.linkage, "ipv4", "hdr_checksum", ck as u128)?;
        }
    }
    Ok(())
}

/// Headers an action writes or reads (parse requirements + dependency
/// analysis).
pub fn touched_headers(action: &ActionDef) -> Vec<String> {
    fn push_v(out: &mut Vec<String>, v: &ValueRef) {
        if let ValueRef::Field { header, .. } = v {
            out.push(header.clone());
        }
    }
    let mut out = Vec::new();
    for p in &action.body {
        match p {
            Primitive::Set { dst, src } => {
                if let LValueRef::Field { header, .. } = dst {
                    out.push(header.clone());
                }
                push_v(&mut out, src);
            }
            Primitive::Alu { dst, a, b, .. } => {
                if let LValueRef::Field { header, .. } = dst {
                    out.push(header.clone());
                }
                push_v(&mut out, a);
                push_v(&mut out, b);
            }
            Primitive::Hash { dst, inputs, .. } => {
                if let LValueRef::Field { header, .. } = dst {
                    out.push(header.clone());
                }
                for i in inputs {
                    push_v(&mut out, i);
                }
            }
            Primitive::Forward { port } => push_v(&mut out, port),
            Primitive::Mark { value } => push_v(&mut out, value),
            Primitive::MarkIfCounterOver { threshold } => push_v(&mut out, threshold),
            Primitive::InsertHeaderAfter { after, header, .. } => {
                out.push(after.clone());
                out.push(header.clone());
            }
            Primitive::RemoveHeader { header } => out.push(header.clone()),
            Primitive::Srv6Advance => {
                out.push("srh".into());
                out.push("ipv6".into());
            }
            Primitive::DecTtlV4 | Primitive::RefreshIpv4Checksum => out.push("ipv4".into()),
            Primitive::DecHopLimitV6 => out.push("ipv6".into()),
            Primitive::Drop | Primitive::NoAction => {}
        }
    }
    out.sort();
    out.dedup();
    out
}

/// Metadata fields an action writes (dependency analysis).
pub fn written_meta(action: &ActionDef) -> Vec<String> {
    let mut out = Vec::new();
    for p in &action.body {
        match p {
            Primitive::Set { dst, .. }
            | Primitive::Alu { dst, .. }
            | Primitive::Hash { dst, .. } => {
                if let LValueRef::Meta(m) = dst {
                    out.push(m.clone());
                }
            }
            Primitive::Forward { .. } => out.push("egress_port".into()),
            Primitive::Mark { .. } | Primitive::MarkIfCounterOver { .. } => {
                out.push("mark".into());
            }
            _ => {}
        }
    }
    out.sort();
    out.dedup();
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use ipsa_netpkt::builder::{self, Ipv4UdpSpec};
    use ipsa_netpkt::checksum;
    use ipsa_netpkt::linkage::HeaderLinkage;

    fn setup() -> (HeaderLinkage, Packet) {
        let linkage = HeaderLinkage::standard();
        let mut p = builder::ipv4_udp_packet(&Ipv4UdpSpec::default());
        p.ensure_parsed(&linkage, "udp").unwrap();
        (linkage, p)
    }

    fn run(action: &ActionDef, pkt: &mut Packet, linkage: &HeaderLinkage, params: &[u128]) {
        let ctx = EvalCtx {
            linkage,
            params,
            entry_counter: None,
        };
        execute(action, pkt, &ctx, &|_| 16).unwrap();
    }

    #[test]
    fn set_bd_dmac_like_fig5a() {
        // Fig. 5(a): action set_bd_dmac(bit<16> bd, bit<48> dmac)
        let (linkage, mut p) = setup();
        let a = ActionDef {
            name: "set_bd_dmac".into(),
            params: vec![("bd".into(), 16), ("dmac".into(), 48)],
            body: vec![
                Primitive::Set {
                    dst: LValueRef::Meta("bd".into()),
                    src: ValueRef::Param(0),
                },
                Primitive::Set {
                    dst: LValueRef::field("ethernet", "dst_addr"),
                    src: ValueRef::Param(1),
                },
            ],
        };
        run(&a, &mut p, &linkage, &[7, 0x0202_0303_0404]);
        assert_eq!(p.meta.get("bd"), 7);
        assert_eq!(
            p.get_field(&linkage, "ethernet", "dst_addr").unwrap(),
            0x0202_0303_0404
        );
    }

    #[test]
    fn alu_wraps_to_destination_width() {
        let (linkage, mut p) = setup();
        let a = ActionDef {
            name: "wrap".into(),
            params: vec![],
            body: vec![Primitive::Alu {
                op: AluOp::Add,
                dst: LValueRef::field("ipv4", "ttl"),
                a: ValueRef::field("ipv4", "ttl"),
                b: ValueRef::Const(200),
            }],
        };
        run(&a, &mut p, &linkage, &[]);
        // 64 + 200 = 264 -> wraps in 8 bits to 8.
        assert_eq!(p.get_field(&linkage, "ipv4", "ttl").unwrap(), 8);
    }

    #[test]
    fn dec_ttl_keeps_checksum_valid() {
        let (linkage, mut p) = setup();
        let a = ActionDef {
            name: "ttl".into(),
            params: vec![],
            body: vec![Primitive::DecTtlV4],
        };
        run(&a, &mut p, &linkage, &[]);
        assert_eq!(p.get_field(&linkage, "ipv4", "ttl").unwrap(), 63);
        assert!(checksum::ipv4_checksum_ok(&p.data[14..34]));
    }

    #[test]
    fn ttl_zero_drops() {
        let (linkage, mut p) = setup();
        p.set_field(&linkage, "ipv4", "ttl", 0).unwrap();
        let a = ActionDef {
            name: "ttl".into(),
            params: vec![],
            body: vec![Primitive::DecTtlV4],
        };
        let ctx = EvalCtx {
            linkage: &linkage,
            params: &[],
            entry_counter: None,
        };
        let out = execute(&a, &mut p, &ctx, &|_| 16).unwrap();
        assert!(out.dropped);
        assert!(p.meta.drop);
    }

    #[test]
    fn hash_is_deterministic_and_bounded() {
        let (linkage, mut p) = setup();
        let a = ActionDef {
            name: "h".into(),
            params: vec![],
            body: vec![Primitive::Hash {
                dst: LValueRef::Meta("ecmp_idx".into()),
                inputs: vec![
                    ValueRef::field("ipv4", "src_addr"),
                    ValueRef::field("udp", "src_port"),
                ],
                modulo: 4,
            }],
        };
        run(&a, &mut p, &linkage, &[]);
        let first = p.meta.get("ecmp_idx");
        assert!(first < 4);
        run(&a, &mut p, &linkage, &[]);
        assert_eq!(p.meta.get("ecmp_idx"), first);
    }

    #[test]
    fn forward_and_drop() {
        let (linkage, mut p) = setup();
        let fwd = ActionDef {
            name: "fwd".into(),
            params: vec![("port".into(), 16)],
            body: vec![Primitive::Forward {
                port: ValueRef::Param(0),
            }],
        };
        run(&fwd, &mut p, &linkage, &[5]);
        assert_eq!(p.meta.egress_port, Some(5));
        let drop = ActionDef {
            name: "drop".into(),
            params: vec![],
            body: vec![Primitive::Drop],
        };
        run(&drop, &mut p, &linkage, &[]);
        assert!(p.meta.drop);
    }

    #[test]
    fn counter_threshold_marks() {
        let (linkage, mut p) = setup();
        let a = ActionDef {
            name: "probe".into(),
            params: vec![],
            body: vec![Primitive::MarkIfCounterOver {
                threshold: ValueRef::Const(10),
            }],
        };
        let ctx = EvalCtx {
            linkage: &linkage,
            params: &[],
            entry_counter: Some(10),
        };
        execute(&a, &mut p, &ctx, &|_| 16).unwrap();
        assert_eq!(p.meta.mark, 0, "counter == threshold must not mark");
        let ctx = EvalCtx {
            linkage: &linkage,
            params: &[],
            entry_counter: Some(11),
        };
        execute(&a, &mut p, &ctx, &|_| 16).unwrap();
        assert_eq!(p.meta.mark, 1);
    }

    #[test]
    fn missing_param_is_reported() {
        let (linkage, mut p) = setup();
        let a = ActionDef {
            name: "broken".into(),
            params: vec![("x".into(), 16)],
            body: vec![Primitive::Set {
                dst: LValueRef::Meta("y".into()),
                src: ValueRef::Param(3),
            }],
        };
        let ctx = EvalCtx {
            linkage: &linkage,
            params: &[1],
            entry_counter: None,
        };
        let err = execute(&a, &mut p, &ctx, &|_| 16).unwrap_err();
        assert!(matches!(err, CoreError::BadActionData { index: 3, .. }));
    }

    #[test]
    fn srv6_advance_end_behavior() {
        use ipsa_netpkt::builder::{srv6_packet, Ipv6UdpSpec};
        let mut linkage = HeaderLinkage::standard();
        linkage.link("ipv6", "srh", 43).unwrap();
        linkage.link("srh", "udp", 17).unwrap();
        let segs = [0xaa_u128, 0xbb, 0xcc]; // segs[2] is the first hop
        let mut p = srv6_packet(&Ipv6UdpSpec::default(), &segs);
        p.ensure_parsed(&linkage, "srh").unwrap();
        let a = ActionDef {
            name: "end".into(),
            params: vec![],
            body: vec![Primitive::Srv6Advance],
        };
        let ctx = EvalCtx {
            linkage: &linkage,
            params: &[],
            entry_counter: None,
        };
        // segments_left starts at 2; advancing activates segs[1] = 0xbb.
        execute(&a, &mut p, &ctx, &|_| 16).unwrap();
        assert_eq!(p.get_field(&linkage, "srh", "segments_left").unwrap(), 1);
        assert_eq!(p.get_field(&linkage, "ipv6", "dst_addr").unwrap(), 0xbb);
        execute(&a, &mut p, &ctx, &|_| 16).unwrap();
        assert_eq!(p.get_field(&linkage, "ipv6", "dst_addr").unwrap(), 0xaa);
        // At segments_left == 0 the primitive is a no-op.
        execute(&a, &mut p, &ctx, &|_| 16).unwrap();
        assert_eq!(p.get_field(&linkage, "srh", "segments_left").unwrap(), 0);
        assert_eq!(p.get_field(&linkage, "ipv6", "dst_addr").unwrap(), 0xaa);
    }

    #[test]
    fn srv6_advance_noop_without_srh() {
        let (linkage, mut p) = setup();
        let before = p.data.clone();
        let a = ActionDef {
            name: "end".into(),
            params: vec![],
            body: vec![Primitive::Srv6Advance],
        };
        run(&a, &mut p, &linkage, &[]);
        assert_eq!(p.data, before);
    }

    #[test]
    fn read_write_sets_extracted() {
        let a = ActionDef {
            name: "x".into(),
            params: vec![],
            body: vec![
                Primitive::DecTtlV4,
                Primitive::Forward {
                    port: ValueRef::Const(1),
                },
            ],
        };
        assert_eq!(touched_headers(&a), vec!["ipv4".to_string()]);
        assert_eq!(written_meta(&a), vec!["egress_port".to_string()]);
    }
}
