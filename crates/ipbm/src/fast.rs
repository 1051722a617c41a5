//! The compiled fast path: resolve-once / run-many packet processing.
//!
//! The interpreter ([`crate::tsp`]) re-resolves names on every packet:
//! parse requirements are rebuilt as `Vec<String>`, tables are found by
//! string key, crossbar reachability is re-checked, and action bodies are
//! cloned out of the template. That is the right reference semantics for a
//! runtime-programmable device, but it is not how hardware behaves — a real
//! TSP latches its configuration when the control plane writes it.
//!
//! [`CompiledPath`] is that latch in software: built once per control-plane
//! *epoch* (any applied structural [`ipsa_core::ControlMsg`] batch
//! invalidates it, see [`crate::pm::PipelineModule::invalidate_compiled`];
//! entry add/delete/default batches do not), it pre-resolves every name to
//! a dense id or direct index:
//!
//! * parse requirements become interned [`Sym`]s,
//! * branch predicates bind header field spans (byte offset + bit span),
//! * tables become slab indices into the storage module; a hit's executor
//!   tag and action data come from the table's own per-row hit data
//!   ([`ipsa_core::table::Table::row_args`]), which every entry write keeps
//!   current — so entry writes leave a compiled path valid,
//! * crossbar reachability is verified at compile time, so the per-packet
//!   `can_reach` loop disappears,
//! * action bodies become [`FastPrim`] sequences with operands pre-bound,
//! * parse elision, the one dataflow fact of the latched state
//!   ([`facts::derive`]) the fast path uses, drops parse requirements an
//!   earlier slot provably settled.
//!
//! Per packet, the fast path performs no `String` comparison (a compiled
//! table checks its slab slot by creation stamp,
//! [`crate::sm::TableStore::stamp`]), no `HashMap` probe by name, no
//! interner lock (parsing walks the linkage's resolved nodes, see
//! [`HeaderLinkage`]), and no heap allocation (scratch buffers live in
//! [`EvalScratch`] and are reused). Compilation is conservative: any
//! construct it cannot pre-resolve either falls back to the interpreter for
//! the whole pipeline (unknown table/action, crossbar violation — cases the
//! interpreter reports per packet) or to a `Slow` wrapper around the shared
//! interpreter code for just that operand/primitive, so the two paths
//! cannot diverge semantically. The differential property test in
//! `crates/bench/tests/differential.rs` holds them to that.

use ipsa_core::action::{execute_prim, ActionOutcome, AluOp, Primitive};
use ipsa_core::crossbar::Crossbar;
use ipsa_core::error::CoreError;
use ipsa_core::facts;
use ipsa_core::hash::hash_values;
use ipsa_core::pipeline_cfg::{SelectorConfig, SlotRole};
use ipsa_core::predicate::{CmpOp, Predicate};
use ipsa_core::table::ActionCall;
use ipsa_core::value::{EvalCtx, LValueRef, ValueRef};
use ipsa_core::Interner;
use ipsa_netpkt::bitfield::{get_bits, set_bits, truncate_to_width, width_mask};
use ipsa_netpkt::intern::{meta_id, Sym};
use ipsa_netpkt::linkage::HeaderLinkage;
use ipsa_netpkt::packet::{Metadata, Packet, PacketError, ParsedHeader};

use crate::sm::StorageModule;
use crate::tsp::{SlotStats, TspSlot};

/// Reusable per-pipeline scratch buffers so steady-state packet processing
/// never allocates: lookup key values and hash inputs.
#[derive(Debug, Default)]
pub struct EvalScratch {
    /// Key field values of the current lookup.
    pub key: Vec<u128>,
    /// Hash-primitive input values.
    pub hash: Vec<u128>,
}

/// A pre-resolved metadata reference: intrinsics become enum variants,
/// user fields become dense ids.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum MetaRef {
    /// `meta.ingress_port`.
    IngressPort,
    /// `meta.egress_port` (reads 0 while unset, writes `Some`).
    EgressPort,
    /// `meta.drop` (read as 0/1, written as `!= 0`).
    Drop,
    /// `meta.mark`.
    Mark,
    /// A user metadata field by dense id.
    User(u32),
}

impl MetaRef {
    fn compile(name: &str) -> MetaRef {
        match name {
            "ingress_port" => MetaRef::IngressPort,
            "egress_port" => MetaRef::EgressPort,
            "drop" => MetaRef::Drop,
            "mark" => MetaRef::Mark,
            _ => MetaRef::User(meta_id(name)),
        }
    }

    #[inline]
    fn read(self, meta: &Metadata) -> u128 {
        match self {
            MetaRef::IngressPort => meta.ingress_port as u128,
            MetaRef::EgressPort => meta.egress_port.map(|p| p as u128).unwrap_or(0),
            MetaRef::Drop => meta.drop as u128,
            MetaRef::Mark => meta.mark,
            MetaRef::User(id) => meta.get_user(id),
        }
    }

    #[inline]
    fn write(self, meta: &mut Metadata, value: u128) {
        match self {
            MetaRef::IngressPort => meta.ingress_port = value as u16,
            MetaRef::EgressPort => meta.egress_port = Some(value as u16),
            MetaRef::Drop => meta.drop = value != 0,
            MetaRef::Mark => meta.mark = value,
            MetaRef::User(id) => meta.set_user(id, value),
        }
    }
}

/// A compiled readable value: the fast mirror of [`ValueRef`], with header
/// fields resolved to `(Sym, bit offset, bit width)` and metadata names to
/// [`MetaRef`]s. `Slow` keeps the interpreter's `ValueRef` for anything
/// compilation could not pre-resolve (e.g. a field of a header type absent
/// from the linkage), preserving its exact error behavior.
#[derive(Debug, Clone)]
pub enum FastVal {
    /// Immediate constant.
    Const(u128),
    /// A packet header field with a pre-resolved span.
    Field {
        /// Interned header name.
        sym: Sym,
        /// Bit offset within the header.
        bit_off: usize,
        /// Field width in bits.
        bits: usize,
    },
    /// A metadata field.
    Meta(MetaRef),
    /// The i-th action parameter.
    Param(usize),
    /// The matched entry's packet counter.
    EntryCounter,
    /// Interpreter fallback for unresolvable references.
    Slow(ValueRef),
}

impl FastVal {
    fn compile(v: &ValueRef, linkage: &HeaderLinkage) -> FastVal {
        match v {
            ValueRef::Const(c) => FastVal::Const(*c),
            ValueRef::Field { header, field } => {
                match linkage.get(header).and_then(|t| t.field_span(field).ok()) {
                    Some((bit_off, bits)) => FastVal::Field {
                        sym: Sym::intern(header),
                        bit_off,
                        bits,
                    },
                    None => FastVal::Slow(v.clone()),
                }
            }
            ValueRef::Meta(name) => FastVal::Meta(MetaRef::compile(name)),
            ValueRef::Param(i) => FastVal::Param(*i),
            ValueRef::EntryCounter => FastVal::EntryCounter,
        }
    }

    /// Reads the value; mirrors [`ValueRef::read`] exactly (`None` for a
    /// field of an absent header, [`CoreError::BadActionData`] with an
    /// empty action name for an out-of-range parameter).
    #[inline]
    fn read(&self, pkt: &Packet, ctx: &EvalCtx<'_>) -> Result<Option<u128>, CoreError> {
        match self {
            FastVal::Const(c) => Ok(Some(*c)),
            FastVal::Field { sym, bit_off, bits } => match pkt.find_sym(*sym) {
                None => Ok(None),
                Some(h) => {
                    let end = field_end(pkt.data.len(), h, *bit_off, *bits);
                    let v = get_bits(&pkt.data[h.offset..end], *bit_off, *bits)
                        .map_err(PacketError::from)?;
                    Ok(Some(v))
                }
            },
            FastVal::Meta(m) => Ok(Some(m.read(&pkt.meta))),
            FastVal::Param(i) => {
                ctx.params
                    .get(*i)
                    .copied()
                    .map(Some)
                    .ok_or_else(|| CoreError::BadActionData {
                        action: String::new(),
                        index: *i,
                        supplied: ctx.params.len(),
                    })
            }
            FastVal::EntryCounter => Ok(Some(ctx.entry_counter.unwrap_or(0) as u128)),
            FastVal::Slow(v) => v.read(pkt, ctx),
        }
    }
}

/// End of the bytes a field access of `bits` at `bit_off` in header `h`
/// receives. A field inside the header gets the packet's bytes up to the
/// packet's end, so [`get_bits`]/[`set_bits`] can load their fixed 8- or
/// 16-byte window even for a field near the end of a short header (the
/// 14-byte Ethernet header's); the access itself still touches only the
/// field's bits. A span past the header keeps the header-bounded slice, so
/// its `OutOfRange` error reports the header's length.
#[inline]
fn field_end(pkt_len: usize, h: &ParsedHeader, bit_off: usize, bits: usize) -> usize {
    if bit_off + bits <= h.len * 8 {
        pkt_len
    } else {
        h.offset + h.len
    }
}

/// Reads an action operand, wrapping absence / bad action data the same way
/// [`ipsa_core::action::read_operand`] does. Allocates only on error.
#[inline]
fn fast_read_operand(
    v: &FastVal,
    pkt: &Packet,
    ctx: &EvalCtx<'_>,
    action: &str,
) -> Result<u128, CoreError> {
    match v.read(pkt, ctx) {
        Ok(Some(x)) => Ok(x),
        Ok(None) => Err(CoreError::Packet(PacketError::HeaderNotPresent(format!(
            "operand of action `{action}`"
        )))),
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

/// A compiled writable destination with its width pre-resolved (the width
/// the action VM wraps ALU results to).
#[derive(Debug, Clone)]
pub enum FastLVal {
    /// A header field with a pre-resolved span.
    Field {
        /// Interned header name.
        sym: Sym,
        /// Bit offset within the header.
        bit_off: usize,
        /// Field width in bits.
        bits: usize,
    },
    /// A metadata destination with its declared width.
    Meta {
        /// The destination.
        meta: MetaRef,
        /// Declared metadata width (128 for undeclared scratch).
        width: usize,
    },
    /// Interpreter fallback, with the width [`LValueRef::width`] resolves.
    Slow {
        /// The unresolved destination.
        lv: LValueRef,
        /// Pre-resolved destination width.
        width: usize,
    },
}

impl FastLVal {
    fn compile(lv: &LValueRef, linkage: &HeaderLinkage, sm: &StorageModule) -> FastLVal {
        match lv {
            LValueRef::Meta(name) => FastLVal::Meta {
                meta: MetaRef::compile(name),
                width: sm.meta_width(name),
            },
            LValueRef::Field { header, field } => {
                match linkage.get(header).and_then(|t| t.field_span(field).ok()) {
                    Some((bit_off, bits)) => FastLVal::Field {
                        sym: Sym::intern(header),
                        bit_off,
                        bits,
                    },
                    None => FastLVal::Slow {
                        lv: lv.clone(),
                        // Mirrors LValueRef::width's fallback for unresolvable
                        // fields.
                        width: 128,
                    },
                }
            }
        }
    }

    /// Destination width in bits (pre-resolved at compile time).
    #[inline]
    fn width(&self) -> usize {
        match self {
            FastLVal::Field { bits, .. } => *bits,
            FastLVal::Meta { width, .. } => *width,
            FastLVal::Slow { width, .. } => *width,
        }
    }

    /// Writes `value`; mirrors [`LValueRef::write`] (field writes to an
    /// absent header error).
    #[inline]
    fn write(&self, pkt: &mut Packet, ctx: &EvalCtx<'_>, value: u128) -> Result<(), CoreError> {
        match self {
            FastLVal::Meta { meta, .. } => {
                meta.write(&mut pkt.meta, value);
                Ok(())
            }
            FastLVal::Field { sym, bit_off, bits } => {
                let h = *pkt
                    .find_sym(*sym)
                    .ok_or_else(|| PacketError::HeaderNotPresent(sym.as_str().to_string()))?;
                let end = field_end(pkt.data.len(), &h, *bit_off, *bits);
                set_bits(&mut pkt.data[h.offset..end], *bit_off, *bits, value)
                    .map_err(PacketError::from)?;
                Ok(())
            }
            FastLVal::Slow { lv, .. } => lv.write(pkt, ctx, value),
        }
    }
}

/// A compiled predicate: the fast mirror of [`Predicate`], with header
/// validity checks on interned symbols and comparisons on [`FastVal`]s.
#[derive(Debug, Clone)]
pub enum FastPred {
    /// Always true.
    True,
    /// `header.isValid()` on an interned name.
    IsValid(Sym),
    /// Negation.
    Not(Box<FastPred>),
    /// Conjunction (short-circuit).
    And(Box<FastPred>, Box<FastPred>),
    /// Disjunction (short-circuit).
    Or(Box<FastPred>, Box<FastPred>),
    /// Comparison; any absent operand makes it false.
    Cmp {
        /// Left operand.
        lhs: FastVal,
        /// Operator.
        op: CmpOp,
        /// Right operand.
        rhs: FastVal,
    },
}

impl FastPred {
    fn compile(p: &Predicate, linkage: &HeaderLinkage) -> FastPred {
        match p {
            Predicate::True => FastPred::True,
            Predicate::IsValid(h) => FastPred::IsValid(Sym::intern(h)),
            Predicate::Not(p) => FastPred::Not(Box::new(FastPred::compile(p, linkage))),
            Predicate::And(a, b) => FastPred::And(
                Box::new(FastPred::compile(a, linkage)),
                Box::new(FastPred::compile(b, linkage)),
            ),
            Predicate::Or(a, b) => FastPred::Or(
                Box::new(FastPred::compile(a, linkage)),
                Box::new(FastPred::compile(b, linkage)),
            ),
            Predicate::Cmp { lhs, op, rhs } => FastPred::Cmp {
                lhs: FastVal::compile(lhs, linkage),
                op: *op,
                rhs: FastVal::compile(rhs, linkage),
            },
        }
    }

    /// Mirrors [`Predicate::eval`].
    fn eval(&self, pkt: &Packet, ctx: &EvalCtx<'_>) -> Result<bool, CoreError> {
        Ok(match self {
            FastPred::True => true,
            FastPred::IsValid(sym) => pkt.find_sym(*sym).is_some(),
            FastPred::Not(p) => !p.eval(pkt, ctx)?,
            FastPred::And(a, b) => a.eval(pkt, ctx)? && b.eval(pkt, ctx)?,
            FastPred::Or(a, b) => a.eval(pkt, ctx)? || b.eval(pkt, ctx)?,
            FastPred::Cmp { lhs, op, rhs } => match (lhs.read(pkt, ctx)?, rhs.read(pkt, ctx)?) {
                (Some(a), Some(b)) => op.apply(a, b),
                _ => false,
            },
        })
    }
}

/// A compiled action primitive. Hot primitives are native (pre-resolved
/// operands, no per-call allocation); structurally complex ones delegate to
/// the interpreter's [`execute_prim`] through [`FastPrim::Slow`] so their
/// semantics are shared by construction.
#[derive(Debug, Clone)]
pub enum FastPrim {
    /// `dst = src`.
    Set {
        /// Destination.
        dst: FastLVal,
        /// Source.
        src: FastVal,
    },
    /// `dst = a <op> b`, wrapped to `dst`'s width.
    Alu {
        /// Operation.
        op: AluOp,
        /// Destination.
        dst: FastLVal,
        /// First operand.
        a: FastVal,
        /// Second operand.
        b: FastVal,
    },
    /// `dst = hash(inputs) % modulo` using the pipeline's scratch buffer.
    Hash {
        /// Destination.
        dst: FastLVal,
        /// Hash inputs.
        inputs: Vec<FastVal>,
        /// Optional modulus (0 = no reduction).
        modulo: u64,
    },
    /// `meta.egress_port = port`.
    Forward {
        /// Port source.
        port: FastVal,
    },
    /// Discard the packet.
    Drop,
    /// `meta.mark = value`.
    Mark {
        /// Mark source.
        value: FastVal,
    },
    /// Mark iff the matched entry's counter exceeds the threshold.
    MarkIfCounterOver {
        /// Threshold source.
        threshold: FastVal,
    },
    /// Decrement IPv4 TTL with incremental checksum, all spans pre-bound.
    DecTtlV4 {
        /// Interned `ipv4`.
        sym: Sym,
        /// TTL span.
        ttl: (usize, usize),
        /// Protocol span (shares the checksum word with TTL).
        proto: (usize, usize),
        /// Header-checksum span.
        ck: (usize, usize),
    },
    /// Decrement IPv6 hop limit, span pre-bound.
    DecHopLimitV6 {
        /// Interned `ipv6`.
        sym: Sym,
        /// Hop-limit span.
        hl: (usize, usize),
    },
    /// No-op.
    NoAction,
    /// Interpreter fallback (header surgery, SRv6, checksum refresh —
    /// primitives whose work dwarfs interpretation overhead).
    Slow(Primitive),
}

impl FastPrim {
    fn compile(p: &Primitive, linkage: &HeaderLinkage, sm: &StorageModule) -> FastPrim {
        let span =
            |header: &str, field: &str| linkage.get(header).and_then(|t| t.field_span(field).ok());
        match p {
            Primitive::NoAction => FastPrim::NoAction,
            Primitive::Set { dst, src } => FastPrim::Set {
                dst: FastLVal::compile(dst, linkage, sm),
                src: FastVal::compile(src, linkage),
            },
            Primitive::Alu { op, dst, a, b } => FastPrim::Alu {
                op: *op,
                dst: FastLVal::compile(dst, linkage, sm),
                a: FastVal::compile(a, linkage),
                b: FastVal::compile(b, linkage),
            },
            Primitive::Hash {
                dst,
                inputs,
                modulo,
            } => FastPrim::Hash {
                dst: FastLVal::compile(dst, linkage, sm),
                inputs: inputs
                    .iter()
                    .map(|v| FastVal::compile(v, linkage))
                    .collect(),
                modulo: *modulo,
            },
            Primitive::Forward { port } => FastPrim::Forward {
                port: FastVal::compile(port, linkage),
            },
            Primitive::Drop => FastPrim::Drop,
            Primitive::Mark { value } => FastPrim::Mark {
                value: FastVal::compile(value, linkage),
            },
            Primitive::MarkIfCounterOver { threshold } => FastPrim::MarkIfCounterOver {
                threshold: FastVal::compile(threshold, linkage),
            },
            Primitive::DecTtlV4 => {
                match (
                    span("ipv4", "ttl"),
                    span("ipv4", "protocol"),
                    span("ipv4", "hdr_checksum"),
                ) {
                    (Some(ttl), Some(proto), Some(ck)) => FastPrim::DecTtlV4 {
                        sym: Sym::intern("ipv4"),
                        ttl,
                        proto,
                        ck,
                    },
                    _ => FastPrim::Slow(p.clone()),
                }
            }
            Primitive::DecHopLimitV6 => match span("ipv6", "hop_limit") {
                Some(hl) => FastPrim::DecHopLimitV6 {
                    sym: Sym::intern("ipv6"),
                    hl,
                },
                None => FastPrim::Slow(p.clone()),
            },
            Primitive::InsertHeaderAfter { .. }
            | Primitive::RemoveHeader { .. }
            | Primitive::Srv6Advance
            | Primitive::RefreshIpv4Checksum => FastPrim::Slow(p.clone()),
        }
    }
}

/// A compiled action: name (for error messages only) plus its primitive
/// body.
#[derive(Debug, Clone)]
pub struct FastAction {
    /// Action name (error reporting; never compared per packet).
    pub name: String,
    /// Compiled body.
    pub prims: Vec<FastPrim>,
}

/// A compiled executor arm or default: dense action index plus immediate
/// arguments.
#[derive(Debug, Clone)]
pub struct CompiledCall {
    /// Index into [`CompiledPath::actions`].
    pub action: usize,
    /// Immediate arguments (used when the matched entry carries none).
    pub args: Vec<u128>,
}

/// A compiled table reference local to one slot.
#[derive(Debug, Clone)]
pub struct CompiledTable {
    /// Slab index into the storage module.
    pub store: usize,
    /// [`crate::sm::TableStore::stamp`] of the table at `store` when
    /// compiled: the per-packet check that the slot still holds it.
    pub stamp: u64,
    /// Table name, for re-resolving `store` if the slab index goes stale
    /// between compilation and a packet (e.g. a table was dropped and the
    /// compiled program not yet invalidated).
    pub name: String,
    /// Key field readers with their width masks.
    pub key: Vec<(FastVal, u128)>,
    /// Pre-computed memory accesses per lookup on the configured bus.
    pub accesses: u64,
}

/// One compiled active slot, in selector order.
#[derive(Debug, Clone)]
pub struct CompiledSlot {
    /// Physical slot index (stats attribution).
    pub slot: usize,
    /// Interned parse requirements, sorted.
    pub parse: Vec<Sym>,
    /// Branch predicates with the local table index they select (`None` =
    /// explicit pass-through branch).
    pub branches: Vec<(FastPred, Option<usize>)>,
    /// Tables referenced by this slot's branches.
    pub tables: Vec<CompiledTable>,
    /// Executor arms: `(tag, call)`.
    pub executor: Vec<(u32, CompiledCall)>,
    /// Default (miss / unmatched-tag) call.
    pub default_call: CompiledCall,
}

/// The compiled pipeline: everything the per-packet path needs, with all
/// name resolution already done. Valid for one control-plane epoch.
#[derive(Debug, Clone)]
pub struct CompiledPath {
    /// Epoch this compilation belongs to (invalidation check).
    pub epoch: u64,
    /// Compiled ingress slots in selector order.
    pub ingress: Vec<CompiledSlot>,
    /// Compiled egress slots in selector order.
    pub egress: Vec<CompiledSlot>,
    /// Deduplicated compiled actions, indexed by [`CompiledCall::action`].
    pub actions: Vec<FastAction>,
}

/// Compiles the active pipeline against the current storage-module state.
///
/// Fails (the caller falls back to the interpreter, preserving its
/// per-packet error semantics) when a branch references an unknown table,
/// a table's blocks are not reachable through the crossbar from its slot,
/// or an executor arm references an undefined action.
///
/// Every compile derives the pipeline's parse elision ([`facts::derive`])
/// from the state it compiles — `slots`, `selector` and the actions
/// registered in `sm` — so it holds whichever control messages produced
/// that state. Elision is exact: an elided parse requirement was already
/// satisfied by an earlier slot and no registered action can unsettle it,
/// so the skipped `ensure_parsed_sym` would have been a no-op.
pub fn compile(
    slots: &[TspSlot],
    selector: &SelectorConfig,
    crossbar: &Crossbar,
    sm: &StorageModule,
    linkage: &HeaderLinkage,
    epoch: u64,
) -> Result<CompiledPath, CoreError> {
    let proven = facts::derive(
        selector,
        |i| slots.get(i).and_then(|s| s.template.as_ref()),
        &sm.actions,
    );
    let mut actions = Vec::new();
    let mut action_ids = Interner::new();
    let mut compile_role = |role: SlotRole| -> Result<Vec<CompiledSlot>, CoreError> {
        let mut out = Vec::new();
        for slot_idx in selector.slots_with(role) {
            let Some(template) = slots[slot_idx].template.as_ref() else {
                // Unprogrammed active slot: the interpreter no-ops it with
                // zero stats, so simply omit it.
                continue;
            };
            let mut compile_call = |call: &ActionCall| -> Result<CompiledCall, CoreError> {
                let def = sm
                    .actions
                    .get(&call.action)
                    .ok_or_else(|| CoreError::UnknownAction(call.action.clone()))?;
                let id = action_ids.intern(&call.action) as usize;
                if id == actions.len() {
                    actions.push(FastAction {
                        name: def.name.clone(),
                        prims: def
                            .body
                            .iter()
                            .map(|p| FastPrim::compile(p, linkage, sm))
                            .collect(),
                    });
                }
                Ok(CompiledCall {
                    action: id,
                    args: call.args.clone(),
                })
            };
            let mut tables = Vec::new();
            let mut branches = Vec::new();
            for b in &template.branches {
                let tidx = match &b.table {
                    None => None,
                    Some(name) => {
                        let store = sm
                            .table_idx(name)
                            .ok_or_else(|| CoreError::UnknownTable(name.clone()))?;
                        for block in sm.blocks_of(name) {
                            if !crossbar.can_reach(slot_idx, block) {
                                return Err(CoreError::CrossbarViolation(format!(
                                    "slot {slot_idx} cannot reach block {block} of table `{name}`"
                                )));
                            }
                        }
                        // `table_idx` just resolved the name, but go through
                        // the fallible accessor anyway: a compile must never
                        // panic, only fall back to the interpreter.
                        let ts = sm
                            .store_at(store)
                            .ok_or_else(|| CoreError::UnknownTable(name.clone()))?;
                        tables.push(CompiledTable {
                            store,
                            stamp: ts.stamp(),
                            name: name.clone(),
                            key: ts
                                .table
                                .def
                                .key
                                .iter()
                                .map(|k| (FastVal::compile(&k.source, linkage), width_mask(k.bits)))
                                .collect(),
                            accesses: ts.map.accesses_per_lookup(sm.bus_bits) as u64,
                        });
                        Some(tables.len() - 1)
                    }
                };
                branches.push((FastPred::compile(&b.pred, linkage), tidx));
            }
            let executor = template
                .executor
                .iter()
                .map(|(tag, call)| Ok((*tag, compile_call(call)?)))
                .collect::<Result<Vec<_>, CoreError>>()?;
            let default_call = compile_call(&template.default_action)?;
            let elide = proven
                .slot(&template.stage_name)
                .map_or(&[][..], |sf| &sf.elide_parse[..]);
            out.push(CompiledSlot {
                slot: slot_idx,
                parse: template
                    .parse_requirements()
                    .iter()
                    .filter(|h| !elide.contains(*h))
                    .map(|h| Sym::intern(h))
                    .collect(),
                branches,
                tables,
                executor,
                default_call,
            });
        }
        Ok(out)
    };
    let ingress = compile_role(SlotRole::Ingress)?;
    let egress = compile_role(SlotRole::Egress)?;
    Ok(CompiledPath {
        epoch,
        ingress,
        egress,
        actions,
    })
}

impl CompiledPath {
    /// Processes one packet through a compiled slot, with stat accounting
    /// identical to [`TspSlot::process`].
    fn process_slot(
        &self,
        cs: &CompiledSlot,
        stats: &mut SlotStats,
        linkage: &HeaderLinkage,
        sm: &mut StorageModule,
        scratch: &mut EvalScratch,
        pkt: &mut Packet,
    ) -> Result<(), CoreError> {
        stats.packets += 1;
        stats.template_fetches += 1;

        let before = pkt.parse_extractions;
        for &h in &cs.parse {
            let _ = pkt.ensure_parsed_sym(linkage, h)?;
        }
        stats.parse_extractions += pkt.parse_extractions - before;

        let ctx = EvalCtx::bare(linkage);
        let mut chosen: Option<usize> = None;
        for (pred, t) in &cs.branches {
            if pred.eval(pkt, &ctx)? {
                chosen = *t;
                break;
            }
        }
        let Some(tidx) = chosen else {
            stats.pass_through += 1;
            return Ok(());
        };

        // Crossbar reachability was verified at compile time; go straight
        // to the lookup, accounting exactly like StorageModule::lookup.
        let ct = &cs.tables[tidx];
        sm.mem_accesses += ct.accesses;
        // The slab index was resolved at compile time, but the storage
        // module may have shifted underneath a stale compiled program
        // (dropped or re-created table): a stamp mismatch re-resolves by
        // name rather than panicking, and reports the packet-level error
        // the interpreter would report if the table is truly gone.
        let store_idx = match sm.store_at(ct.store) {
            Some(ts) if ts.stamp() == ct.stamp => ct.store,
            _ => sm
                .table_idx(&ct.name)
                .ok_or_else(|| CoreError::UnknownTable(ct.name.clone()))?,
        };
        let store = sm
            .store_at_mut(store_idx)
            .ok_or_else(|| CoreError::UnknownTable(ct.name.clone()))?;
        store.table.begin_lookup();
        scratch.key.clear();
        let mut have = true;
        for (fv, mask) in &ct.key {
            match fv.read(pkt, &ctx)? {
                Some(v) => scratch.key.push(v & mask),
                None => {
                    have = false;
                    break;
                }
            }
        }
        let vals = if have {
            Some(scratch.key.as_slice())
        } else {
            None
        };
        let hit = store.table.match_prepared(vals, &mut Vec::new());

        // The lookup's writes (counters) are done; the action only reads the
        // SM, so the matched row's args can be borrowed in place.
        let sm: &StorageModule = sm;
        let (call, args, counter) = match hit {
            Some(h) => {
                stats.hits += 1;
                let call = cs
                    .executor
                    .iter()
                    .find(|(t, _)| *t == h.tag)
                    .map(|(_, c)| c)
                    .unwrap_or(&cs.default_call);
                // The matched entry's args win; immediate args from the
                // executor arm are the fallback.
                let entry_args = sm
                    .store_at(store_idx)
                    .map_or(&[][..], |s| s.table.row_args(h.row));
                let args = if entry_args.is_empty() {
                    &call.args
                } else {
                    entry_args
                };
                (call, args, h.counter)
            }
            None => {
                stats.misses += 1;
                (&cs.default_call, cs.default_call.args.as_slice(), None)
            }
        };
        let action = &self.actions[call.action];
        let ctx = EvalCtx {
            linkage,
            params: args,
            entry_counter: counter,
        };
        let mut outcome = ActionOutcome::default();
        for prim in &action.prims {
            outcome.primitives += 1;
            exec_prim(prim, &action.name, pkt, &ctx, sm, scratch, &mut outcome)?;
            if pkt.meta.drop {
                break;
            }
        }
        stats.primitives += outcome.primitives as u64;
        Ok(())
    }

    /// Runs one packet through the compiled pipeline. Mirrors
    /// [`crate::pm::PipelineModule::run_packet`] including every statistic.
    pub fn run_packet(
        &self,
        pm: &mut crate::pm::PipelineModule,
        linkage: &HeaderLinkage,
        sm: &mut StorageModule,
        scratch: &mut EvalScratch,
        pkt: Packet,
    ) -> Result<Option<Packet>, CoreError> {
        self.run_packet_parts(
            &mut pm.stats,
            SlotStatsMut::Slots(&mut pm.slots),
            &mut pm.tm,
            linkage,
            sm,
            scratch,
            pkt,
        )
    }

    /// [`CompiledPath::run_packet`] against explicit pipeline parts instead
    /// of a whole [`crate::pm::PipelineModule`]. A shard worker owns no
    /// TSP-slot chain of its own — only a stats array, a Traffic Manager,
    /// and an SM clone — and this is the entry point it drives.
    #[allow(clippy::too_many_arguments)]
    pub fn run_packet_parts(
        &self,
        stats: &mut crate::pm::PipelineStats,
        mut slots: SlotStatsMut<'_>,
        tm: &mut crate::pm::TrafficManager,
        linkage: &HeaderLinkage,
        sm: &mut StorageModule,
        scratch: &mut EvalScratch,
        mut pkt: Packet,
    ) -> Result<Option<Packet>, CoreError> {
        stats.received += 1;
        for cs in &self.ingress {
            self.process_slot(cs, slots.at(cs.slot), linkage, sm, scratch, &mut pkt)?;
            if pkt.meta.drop {
                stats.action_drops += 1;
                return Ok(None);
            }
        }
        tm.enqueue(pkt);
        let Some(mut pkt) = tm.dequeue() else {
            return Ok(None);
        };
        for cs in &self.egress {
            self.process_slot(cs, slots.at(cs.slot), linkage, sm, scratch, &mut pkt)?;
            if pkt.meta.drop {
                stats.action_drops += 1;
                return Ok(None);
            }
        }
        stats.emitted += 1;
        Ok(Some(pkt))
    }
}

/// Where per-slot statistics land while the compiled path runs: either the
/// pipeline's physical [`TspSlot`] chain (the single-core switch) or a bare
/// per-slot stats array (a shard worker, which has no slots of its own).
/// Both are indexed by physical slot position.
#[derive(Debug)]
pub enum SlotStatsMut<'a> {
    /// The pipeline module's slot chain.
    Slots(&'a mut [TspSlot]),
    /// A detached per-slot stats array (same length as the slot chain).
    Stats(&'a mut [SlotStats]),
}

impl SlotStatsMut<'_> {
    #[inline]
    fn at(&mut self, slot: usize) -> &mut SlotStats {
        match self {
            SlotStatsMut::Slots(s) => &mut s[slot].stats,
            SlotStatsMut::Stats(s) => &mut s[slot],
        }
    }
}

/// Executes one compiled primitive. Mirrors [`execute_prim`] exactly; the
/// caller owns the primitive count and the drop short-circuit.
fn exec_prim(
    prim: &FastPrim,
    action: &str,
    pkt: &mut Packet,
    ctx: &EvalCtx<'_>,
    sm: &StorageModule,
    scratch: &mut EvalScratch,
    outcome: &mut ActionOutcome,
) -> Result<(), CoreError> {
    match prim {
        FastPrim::NoAction => {}
        FastPrim::Set { dst, src } => {
            let v = fast_read_operand(src, pkt, ctx, action)?;
            dst.write(pkt, ctx, truncate_to_width(v, dst.width()))?;
        }
        FastPrim::Alu { op, dst, a, b } => {
            let va = fast_read_operand(a, pkt, ctx, action)?;
            let vb = fast_read_operand(b, pkt, ctx, action)?;
            dst.write(pkt, ctx, truncate_to_width(op.apply(va, vb), dst.width()))?;
        }
        FastPrim::Hash {
            dst,
            inputs,
            modulo,
        } => {
            scratch.hash.clear();
            for i in inputs {
                let v = fast_read_operand(i, pkt, ctx, action)?;
                scratch.hash.push(v);
            }
            let mut h = hash_values(&scratch.hash) as u128;
            if *modulo > 0 {
                h %= *modulo as u128;
            }
            dst.write(pkt, ctx, truncate_to_width(h, dst.width()))?;
        }
        FastPrim::Forward { port } => {
            let v = fast_read_operand(port, pkt, ctx, action)?;
            pkt.meta.egress_port = Some(v as u16);
        }
        FastPrim::Drop => {
            pkt.meta.drop = true;
            outcome.dropped = true;
        }
        FastPrim::Mark { value } => {
            let v = fast_read_operand(value, pkt, ctx, action)?;
            pkt.meta.mark = v;
        }
        FastPrim::MarkIfCounterOver { threshold } => {
            let t = fast_read_operand(threshold, pkt, ctx, action)?;
            if ctx.entry_counter.unwrap_or(0) as u128 > t {
                pkt.meta.mark = 1;
            }
        }
        FastPrim::DecTtlV4 {
            sym,
            ttl,
            proto,
            ck,
        } => {
            let Some(ph) = pkt.find_sym(*sym).copied() else {
                return Ok(()); // predicated no-op on non-v4 packets
            };
            let hdr = &pkt.data[ph.offset..ph.offset + ph.len];
            let ttl_v = get_bits(hdr, ttl.0, ttl.1).map_err(PacketError::from)?;
            if ttl_v == 0 {
                pkt.meta.drop = true;
                outcome.dropped = true;
            } else {
                // Incremental checksum per RFC 1624: the TTL shares a
                // 16-bit word with the protocol field.
                let proto_v = get_bits(hdr, proto.0, proto.1).map_err(PacketError::from)?;
                let old_ck = get_bits(hdr, ck.0, ck.1).map_err(PacketError::from)?;
                let old_word = ((ttl_v as u16) << 8) | proto_v as u16;
                let new_word = (((ttl_v - 1) as u16) << 8) | proto_v as u16;
                let new_ck =
                    ipsa_netpkt::checksum::incremental_update(old_ck as u16, old_word, new_word);
                let hdr = &mut pkt.data[ph.offset..ph.offset + ph.len];
                set_bits(hdr, ttl.0, ttl.1, ttl_v - 1).map_err(PacketError::from)?;
                set_bits(hdr, ck.0, ck.1, new_ck as u128).map_err(PacketError::from)?;
            }
        }
        FastPrim::DecHopLimitV6 { sym, hl } => {
            let Some(ph) = pkt.find_sym(*sym).copied() else {
                return Ok(()); // predicated no-op on non-v6 packets
            };
            let hdr = &pkt.data[ph.offset..ph.offset + ph.len];
            let hl_v = get_bits(hdr, hl.0, hl.1).map_err(PacketError::from)?;
            if hl_v == 0 {
                pkt.meta.drop = true;
                outcome.dropped = true;
            } else {
                let hdr = &mut pkt.data[ph.offset..ph.offset + ph.len];
                set_bits(hdr, hl.0, hl.1, hl_v - 1).map_err(PacketError::from)?;
            }
        }
        FastPrim::Slow(p) => {
            let metadata = &sm.metadata;
            execute_prim(
                p,
                action,
                pkt,
                ctx,
                &|name| {
                    metadata
                        .iter()
                        .find(|(n, _)| n == name)
                        .map(|(_, b)| *b)
                        .unwrap_or(128)
                },
                outcome,
            )?;
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use ipsa_core::table::{KeyField, MatchKind, TableDef, TableEntry};
    use ipsa_core::template::{MatcherBranch, TspTemplate};
    use ipsa_netpkt::builder::{ipv4_udp_packet, Ipv4UdpSpec};

    fn sm_with_fib() -> (HeaderLinkage, StorageModule) {
        let linkage = HeaderLinkage::standard();
        let mut sm = StorageModule::new(8, 2, 128);
        sm.define_metadata(&[("nexthop".into(), 16)]);
        sm.define_action(ipsa_core::action::ActionDef {
            name: "set_nh".into(),
            params: vec![("nh".into(), 16)],
            body: vec![Primitive::Set {
                dst: LValueRef::Meta("nexthop".into()),
                src: ValueRef::Param(0),
            }],
        });
        sm.create_table(
            TableDef {
                name: "fib".into(),
                key: vec![KeyField {
                    source: ValueRef::field("ipv4", "dst_addr"),
                    bits: 32,
                    kind: MatchKind::Lpm,
                }],
                size: 64,
                actions: vec!["set_nh".into()],
                default_action: ActionCall::no_action(),
                with_counters: false,
            },
            vec![0],
        )
        .unwrap();
        sm.insert_entry(
            "fib",
            TableEntry {
                key: vec![ipsa_core::table::KeyMatch::Lpm {
                    value: 0x0a000000,
                    prefix_len: 8,
                }],
                priority: 0,
                action: ActionCall::new("set_nh", vec![42]),
                counter: 0,
            },
        )
        .unwrap();
        (linkage, sm)
    }

    fn fib_template() -> TspTemplate {
        TspTemplate {
            stage_name: "fib_s".into(),
            func: "base".into(),
            parse: vec!["ipv4".into()],
            branches: vec![MatcherBranch {
                pred: Predicate::IsValid("ipv4".into()),
                table: Some("fib".into()),
            }],
            executor: vec![(1, ActionCall::new("set_nh", vec![]))],
            default_action: ActionCall::no_action(),
        }
    }

    #[test]
    fn compiled_slot_matches_interpreter_on_hit() {
        let (linkage, mut sm) = sm_with_fib();
        let slots = vec![
            TspSlot {
                template: Some(fib_template()),
                stats: SlotStats::default(),
            },
            TspSlot::default(),
        ];
        let selector = SelectorConfig::split(2, 1, 1).unwrap();
        let mut xbar = Crossbar::full();
        xbar.connect(0, &[0]).unwrap();
        let cp = compile(&slots, &selector, &xbar, &sm, &linkage, 1).unwrap();
        assert_eq!(cp.ingress.len(), 1);
        let mut scratch = EvalScratch::default();
        let mut stats = SlotStats::default();
        let mut p = ipv4_udp_packet(&Ipv4UdpSpec {
            dst_ip: 0x0a010101,
            ..Default::default()
        });
        cp.process_slot(
            &cp.ingress[0],
            &mut stats,
            &linkage,
            &mut sm,
            &mut scratch,
            &mut p,
        )
        .unwrap();
        assert_eq!(p.meta.get("nexthop"), 42);
        assert_eq!(stats.hits, 1);
        assert_eq!(stats.template_fetches, 1);
        assert!(sm.mem_accesses >= 1);
    }

    #[test]
    fn stale_compiled_store_reports_error_not_panic() {
        // A compiled program holds slab indices into the storage module;
        // destroying the table underneath it must surface as the same
        // per-packet error the interpreter reports, never a panic.
        let (linkage, mut sm) = sm_with_fib();
        let slots = vec![TspSlot {
            template: Some(fib_template()),
            stats: SlotStats::default(),
        }];
        let selector = SelectorConfig::split(1, 1, 0).unwrap();
        let mut xbar = Crossbar::full();
        xbar.connect(0, &[0]).unwrap();
        let cp = compile(&slots, &selector, &xbar, &sm, &linkage, 1).unwrap();
        sm.destroy_table("fib").unwrap();
        let mut scratch = EvalScratch::default();
        let mut stats = SlotStats::default();
        let mut p = ipv4_udp_packet(&Ipv4UdpSpec {
            dst_ip: 0x0a010101,
            ..Default::default()
        });
        let e = cp
            .process_slot(
                &cp.ingress[0],
                &mut stats,
                &linkage,
                &mut sm,
                &mut scratch,
                &mut p,
            )
            .unwrap_err();
        assert!(matches!(e, CoreError::UnknownTable(name) if name == "fib"));
    }

    #[test]
    fn recreated_store_re_resolves_by_name() {
        // Destroy and re-create the table (the slab index moves): the
        // compiled slot must re-resolve by name and keep forwarding.
        let (linkage, mut sm) = sm_with_fib();
        let slots = vec![TspSlot {
            template: Some(fib_template()),
            stats: SlotStats::default(),
        }];
        let selector = SelectorConfig::split(1, 1, 0).unwrap();
        let mut xbar = Crossbar::full();
        xbar.connect(0, &[0]).unwrap();
        let cp = compile(&slots, &selector, &xbar, &sm, &linkage, 1).unwrap();
        let def = sm.store_at(0).unwrap().table.def.clone();
        sm.destroy_table("fib").unwrap();
        // A decoy table takes the freed slab slot, then fib comes back at
        // a different index with the same shape but a fresh entry.
        sm.create_table(
            TableDef {
                name: "decoy".into(),
                ..def.clone()
            },
            vec![1],
        )
        .unwrap();
        sm.create_table(def, vec![0]).unwrap();
        sm.insert_entry(
            "fib",
            TableEntry {
                key: vec![ipsa_core::table::KeyMatch::Lpm {
                    value: 0x0a000000,
                    prefix_len: 8,
                }],
                priority: 0,
                action: ActionCall::new("set_nh", vec![7]),
                counter: 0,
            },
        )
        .unwrap();
        let mut scratch = EvalScratch::default();
        let mut stats = SlotStats::default();
        let mut p = ipv4_udp_packet(&Ipv4UdpSpec {
            dst_ip: 0x0a010101,
            ..Default::default()
        });
        cp.process_slot(
            &cp.ingress[0],
            &mut stats,
            &linkage,
            &mut sm,
            &mut scratch,
            &mut p,
        )
        .unwrap();
        assert_eq!(stats.hits, 1);
        // Tag and args are read from the matched row, so the re-created
        // table's fresh entry is what runs.
        assert_eq!(p.meta.get("nexthop"), 7);
    }

    #[test]
    fn compile_fails_on_unknown_table() {
        let (linkage, sm) = sm_with_fib();
        let mut t = fib_template();
        t.branches[0].table = Some("mystery".into());
        let slots = vec![TspSlot {
            template: Some(t),
            stats: SlotStats::default(),
        }];
        let selector = SelectorConfig::split(1, 1, 0).unwrap();
        let e = compile(&slots, &selector, &Crossbar::full(), &sm, &linkage, 1).unwrap_err();
        assert!(matches!(e, CoreError::UnknownTable(_)));
    }

    #[test]
    fn compile_fails_on_unreachable_blocks() {
        let (linkage, sm) = sm_with_fib();
        let slots = vec![TspSlot {
            template: Some(fib_template()),
            stats: SlotStats::default(),
        }];
        let selector = SelectorConfig::split(1, 1, 0).unwrap();
        let mut xbar = Crossbar::full();
        xbar.connect(0, &[5]).unwrap(); // fib lives in block 0
        let e = compile(&slots, &selector, &xbar, &sm, &linkage, 1).unwrap_err();
        assert!(matches!(e, CoreError::CrossbarViolation(_)));
    }

    #[test]
    fn actions_are_deduplicated_across_slots() {
        let (linkage, sm) = sm_with_fib();
        let slots = vec![
            TspSlot {
                template: Some(fib_template()),
                stats: SlotStats::default(),
            },
            TspSlot {
                template: Some(fib_template()),
                stats: SlotStats::default(),
            },
        ];
        let selector = SelectorConfig::split(2, 2, 0).unwrap();
        let mut xbar = Crossbar::full();
        xbar.connect(0, &[0]).unwrap();
        xbar.connect(1, &[0]).unwrap();
        let cp = compile(&slots, &selector, &xbar, &sm, &linkage, 1).unwrap();
        // set_nh + NoAction, shared by both slots.
        assert_eq!(cp.actions.len(), 2);
    }

    #[test]
    fn meta_ref_mirrors_metadata_intrinsics() {
        let mut meta = Metadata::default();
        MetaRef::compile("egress_port").write(&mut meta, 7);
        assert_eq!(meta.egress_port, Some(7));
        assert_eq!(MetaRef::compile("egress_port").read(&meta), 7);
        MetaRef::compile("drop").write(&mut meta, 2);
        assert!(meta.drop);
        assert_eq!(MetaRef::compile("drop").read(&meta), 1);
        MetaRef::compile("mark").write(&mut meta, 99);
        assert_eq!(meta.mark, 99);
        let user = MetaRef::compile("fast-test-user-field");
        user.write(&mut meta, 5);
        assert_eq!(user.read(&meta), 5);
        assert_eq!(meta.get("fast-test-user-field"), 5);
    }
}
