//! Witness concretization: turn a divergent symbolic world into a real
//! packet + table entries, run it through an `ipbm` device, and check that
//! the device behaves as the design-side model predicted.
//!
//! This is a differential cross-check of the *model*, not of the compiler:
//! a divergence diagnosis is only trustworthy if the design evaluator
//! actually mirrors the device. Concretization is best-effort — worlds
//! that need exotic traffic shapes or unresolvable constraints are
//! skipped with an explanatory note rather than guessed at.

use std::collections::{BTreeMap, BTreeSet};

use ipsa_core::control::{ControlMsg, Device};
use ipsa_core::hash::hash_values;
use ipsa_core::table::{ActionCall, KeyMatch, MatchKind, TableEntry};
use ipsa_core::template::CompiledDesign;
use ipsa_netpkt::bitfield::width_mask;
use ipsa_netpkt::builder::{
    ipv4_udp_packet, ipv6_udp_packet, srv6_packet, Ipv4UdpSpec, Ipv6UdpSpec,
};
use ipsa_netpkt::packet::Packet;

use crate::eval_design::TableHitTrace;
use crate::oracle::{CmpKind, Key};
use crate::state::{Outcome, SymState};
use crate::term::Term;

/// Maximum SRH segments we are willing to synthesize.
const MAX_SEGMENTS: usize = 8;
/// Maximum injections (for counter-threshold worlds).
const MAX_INJECTIONS: usize = 64;

/// Why a symbolic world could not be concretized into a witness.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum SkipKind {
    /// The world's constraints are mutually contradictory: no wire packet
    /// can take this path on any device. Path enumerators prune these.
    Infeasible,
    /// The path may well be feasible, but the witness generator cannot
    /// build a packet for it (builder gaps, synthesis budgets, constraints
    /// it does not solve). Path enumerators report these (RP4402).
    Uncoverable,
}

/// A skipped world: classification plus a human-readable reason.
#[derive(Debug, Clone)]
pub struct Skip {
    /// Whether the path is provably infeasible or merely uncoverable.
    pub(crate) kind: SkipKind,
    /// Human-readable reason, suitable for a diagnostic note.
    pub reason: String,
}

fn infeasible(reason: impl Into<String>) -> Skip {
    Skip {
        kind: SkipKind::Infeasible,
        reason: reason.into(),
    }
}

fn uncoverable(reason: impl Into<String>) -> Skip {
    Skip {
        kind: SkipKind::Uncoverable,
        reason: reason.into(),
    }
}

/// A concretized execution-path witness: a wire packet plus the minimal
/// table-entry setup that drives a real device down the same path the
/// symbolic world took. This is the unit of the coverage corpus
/// and the golden-compare oracle planned for the native codegen backend.
#[derive(Debug, Clone)]
pub struct PathWitness {
    /// The witness packet, unparsed, exactly as it would arrive on the
    /// wire (ingress port set in its metadata).
    pub packet: Packet,
    /// `AddEntry` messages making each traced table hit actually hit.
    pub entries: Vec<ControlMsg>,
    /// How many copies of the packet must be injected — counter-threshold
    /// worlds need threshold+1 hits before the guarded path opens.
    pub injections: usize,
}

/// Concretizes one symbolic world (its oracle decisions plus the design
/// side's table-hit trace) into a [`PathWitness`]. `Err` classifies the
/// world as provably [`SkipKind::Infeasible`] or merely
/// [`SkipKind::Uncoverable`].
pub(crate) fn concretize_world(
    design: &CompiledDesign,
    decisions: &[(Key, usize)],
    hits: &[TableHitTrace],
) -> Result<PathWitness, Skip> {
    let conc = concretize(design, decisions, hits)?;
    let entries = synth_entries(design, hits, &conc).map_err(uncoverable)?;
    Ok(PathWitness {
        packet: conc.packet,
        entries,
        injections: conc.injections,
    })
}

/// Per-term value constraints gathered from the world's decisions.
#[derive(Default)]
struct Constraint {
    must_eq: Option<u128>,
    avoid: BTreeSet<u128>,
    /// `(op, constant, decided)` with the term on the left.
    ranges: Vec<(CmpKind, u128, bool)>,
    contradictory: bool,
}

impl Constraint {
    fn admits(&self, v: u128) -> bool {
        if let Some(c) = self.must_eq {
            if v != c {
                return false;
            }
        }
        if self.avoid.contains(&v) {
            return false;
        }
        self.ranges.iter().all(|&(op, c, decided)| {
            let holds = match op {
                CmpKind::Lt => v < c,
                CmpKind::Le => v <= c,
                CmpKind::Gt => v > c,
                CmpKind::Ge => v >= c,
            };
            holds == decided
        })
    }

    fn pick(&self, bits: usize) -> Option<u128> {
        let mask = width_mask(bits);
        let mut cands: Vec<u128> = vec![0, 1];
        if let Some(c) = self.must_eq {
            cands = vec![c];
        } else {
            for &(_, c, _) in &self.ranges {
                cands.extend([c.saturating_sub(1), c, c.saturating_add(1)]);
            }
            for &a in &self.avoid {
                cands.push(a.saturating_add(1));
            }
        }
        cands
            .into_iter()
            .map(|v| v & mask)
            .find(|&v| self.admits(v) && v & !mask == 0)
    }
}

/// Everything the run needs, concretized from the decisions; `Err` carries
/// a human-readable skip reason.
struct Concrete {
    packet: Packet,
    /// Parsed view of the same packet for reading wire fields back.
    parsed: Packet,
    entry_args: BTreeMap<(String, u32, usize), u128>,
    segments: Vec<u128>,
    injections: usize,
}

/// Runs the divergent world on an `ipbm` device and reports whether the
/// device agrees with the design-side model. Returns note lines for the
/// diagnostic.
pub(crate) fn cross_check(
    design: &CompiledDesign,
    decisions: &[(Key, usize)],
    hits: &[TableHitTrace],
    predicted: &Outcome,
    predicted_state: &SymState,
) -> Vec<String> {
    match try_cross_check(design, decisions, hits, predicted, predicted_state) {
        Ok(lines) => lines,
        Err(reason) => vec![format!("witness skipped: {reason}")],
    }
}

fn try_cross_check(
    design: &CompiledDesign,
    decisions: &[(Key, usize)],
    hits: &[TableHitTrace],
    predicted: &Outcome,
    predicted_state: &SymState,
) -> Result<Vec<String>, String> {
    let conc = concretize(design, decisions, hits).map_err(|s| s.reason)?;

    let mut sw = ipbm::IpbmSwitch::new(ipbm::IpbmConfig::default());
    sw.install(design)
        .map_err(|e| format!("design rejected by device: {e}"))?;
    let entries = synth_entries(design, hits, &conc)?;
    if !entries.is_empty() {
        sw.apply(&entries)
            .map_err(|e| format!("device rejected synthesized entries: {e}"))?;
    }

    let mut last: Result<Option<Packet>, String> = Ok(None);
    for _ in 0..conc.injections {
        // The interpreter's per-packet core, called directly: the
        // cross-check needs the per-packet `Err` the device's drain loop
        // would turn into a counted drop.
        last = sw
            .pm
            .run_packet(&sw.linkage, &mut sw.sm, conc.packet.clone())
            .map_err(|e| e.to_string());
    }
    let resolve = |t: &Term| resolve_term(t, &conc, design);

    let mut lines = Vec::new();
    let agree = match (predicted, &last) {
        (Outcome::Forwarded(port), Ok(Some(out))) => {
            let Some(p) = resolve(port) else {
                return Err("egress port term not concretizable".into());
            };
            if out.meta.egress_port == Some(p as u16) {
                lines.push(format!(
                    "witness packet confirmed on device: forwarded to port {p} as the design model predicts"
                ));
                check_state(&mut lines, out, predicted_state, design, &conc);
                true
            } else {
                lines.push(format!(
                    "witness packet DISAGREES with the design model: predicted port {p}, device chose {:?}",
                    out.meta.egress_port
                ));
                false
            }
        }
        (Outcome::DroppedByAction | Outcome::DroppedNoRoute, Ok(None)) => {
            lines.push(
                "witness packet confirmed on device: dropped as the design model predicts".into(),
            );
            true
        }
        (Outcome::RuntimeError(_), Err(e)) => {
            lines.push(format!(
                "witness packet confirmed on device: aborted with `{e}` as the design model predicts"
            ));
            true
        }
        (want, got) => {
            lines.push(format!(
                "witness packet DISAGREES with the design model: predicted {want:?}, device produced {got:?}"
            ));
            false
        }
    };
    if !agree {
        lines.push(
            "the equivalence model itself mispredicted this path; treat the divergence with care"
                .into(),
        );
    }
    Ok(lines)
}

/// Compares resolvable pieces of the predicted final state against the
/// emitted packet.
fn check_state(
    lines: &mut Vec<String>,
    out: &Packet,
    state: &SymState,
    design: &CompiledDesign,
    conc: &Concrete,
) {
    let want_mark = match &state.mark {
        None => Some(0),
        Some(t) => resolve_term(t, conc, design),
    };
    if let Some(want) = want_mark {
        if out.meta.mark != want {
            lines.push(format!(
                "witness mark mismatch: model predicts {want}, device left {}",
                out.meta.mark
            ));
        }
    }
    let mut parsed = out.clone();
    for ((h, f), t) in &state.fields {
        if f.starts_with("__extra") {
            continue;
        }
        let Some(want) = resolve_term(t, conc, design) else {
            continue;
        };
        if parsed.ensure_parsed(&design.linkage, h) != Ok(true) {
            continue;
        }
        if let Ok(got) = parsed.get_field(&design.linkage, h, f) {
            if got != want {
                lines.push(format!(
                    "witness field mismatch on `{h}.{f}`: model predicts {want:#x}, device left {got:#x}"
                ));
            }
        }
    }
}

/// Per-term constraints, decided header validity, and the injection count
/// a world demands (counter thresholds need threshold+1 packets).
type WorldConstraints = (BTreeMap<Term, Constraint>, BTreeMap<String, bool>, usize);

fn constraints_of(decisions: &[(Key, usize)]) -> Result<WorldConstraints, Skip> {
    let mut by_term: BTreeMap<Term, Constraint> = BTreeMap::new();
    let mut validity: BTreeMap<String, bool> = BTreeMap::new();
    let mut injections = 1usize;
    // Counter-vs-entry-arg comparisons constrain the (freely pickable)
    // entry argument against the *final* injection count, so they resolve
    // after the loop fixes `injections`.
    let mut deferred: Vec<(CmpKind, Term, bool)> = Vec::new();
    for (key, idx) in decisions {
        let decided = *idx == 0;
        match key {
            Key::Validity(h) => {
                validity.insert(h.clone(), decided);
            }
            Key::Table(_) => {}
            Key::EqConst { lhs, val } => {
                let c = by_term.entry(lhs.clone()).or_default();
                if decided {
                    if c.must_eq.is_some_and(|m| m != *val) {
                        c.contradictory = true;
                    }
                    c.must_eq = Some(*val);
                } else {
                    c.avoid.insert(*val);
                }
            }
            Key::Cmp { op, lhs, rhs } => match (lhs, rhs.as_const()) {
                (Term::EntryCounter { .. }, Some(thr)) => {
                    // The counter equals the injection count at the last
                    // packet (one hit per injection).
                    let need = match (op, decided) {
                        (CmpKind::Gt, true) => thr as usize + 1,
                        (CmpKind::Ge, true) => (thr as usize).max(1),
                        (CmpKind::Gt | CmpKind::Ge, false) if thr == 0 => {
                            return Err(infeasible(
                                "world requires an un-hit counter on a hit entry",
                            ))
                        }
                        _ => 1,
                    };
                    if need > MAX_INJECTIONS {
                        return Err(uncoverable(format!(
                            "world needs {need} injections to trip a counter"
                        )));
                    }
                    injections = injections.max(need);
                }
                (_, Some(c)) => {
                    by_term
                        .entry(lhs.clone())
                        .or_default()
                        .ranges
                        .push((*op, c, decided));
                }
                (Term::EntryCounter { .. }, None) if matches!(rhs, Term::EntryData { .. }) => {
                    // `counter <op> arg` at the last injection, where the
                    // counter equals the injection count and the entry
                    // argument is ours to pick: flip the comparison onto
                    // the argument (`counter > arg` ⇔ `arg < counter`).
                    let flipped = match op {
                        CmpKind::Lt => CmpKind::Gt,
                        CmpKind::Le => CmpKind::Ge,
                        CmpKind::Gt => CmpKind::Lt,
                        CmpKind::Ge => CmpKind::Le,
                    };
                    deferred.push((flipped, rhs.clone(), decided));
                }
                _ => {
                    if let Term::EntryData { .. } = lhs {
                        if matches!(rhs, Term::EntryCounter { .. }) {
                            // `arg <op> counter`: same deferral, no flip.
                            deferred.push((*op, lhs.clone(), decided));
                            continue;
                        }
                    }
                    return Err(uncoverable(format!(
                        "comparison between two non-constant terms ({lhs} vs {rhs}) is not concretizable"
                    )));
                }
            },
        }
    }
    for (op, term, decided) in deferred {
        by_term
            .entry(term)
            .or_default()
            .ranges
            .push((op, injections as u128, decided));
    }
    Ok((by_term, validity, injections))
}

fn concretize(
    design: &CompiledDesign,
    decisions: &[(Key, usize)],
    hits: &[TableHitTrace],
) -> Result<Concrete, Skip> {
    let (by_term, validity, injections) = constraints_of(decisions)?;
    for (t, c) in &by_term {
        if c.contradictory {
            return Err(infeasible(format!(
                "contradictory equality constraints on {t}"
            )));
        }
    }

    // --- traffic shape from the validity decisions ---
    let valid: BTreeSet<&str> = validity
        .iter()
        .filter(|(_, &v)| v)
        .map(|(h, _)| h.as_str())
        .collect();
    let absent: BTreeSet<&str> = validity
        .iter()
        .filter(|(_, &v)| !v)
        .map(|(h, _)| h.as_str())
        .collect();
    for h in &valid {
        if !matches!(*h, "ethernet" | "ipv4" | "ipv6" | "udp" | "srh") {
            return Err(uncoverable(format!(
                "no packet builder covers header `{h}`"
            )));
        }
    }

    // SRH segment count from segments_left constraints.
    let sl_term = Term::Field("srh".into(), "segments_left".into());
    let mut segments_needed = 2usize;
    if let Some(c) = by_term.get(&sl_term) {
        let sl = c
            .pick(8)
            .ok_or_else(|| uncoverable("unsatisfiable segments_left constraints"))?;
        if sl as usize + 1 > MAX_SEGMENTS {
            return Err(uncoverable(format!("world needs {} SRH segments", sl + 1)));
        }
        segments_needed = sl as usize + 1;
    }
    let segments: Vec<u128> = (0..segments_needed)
        .map(|i| 0xfc00_0000_0000_0000_0000_0000_0000_0100 + i as u128)
        .collect();

    // Shapes are tried in order, fullest first so worlds that never query
    // a deeper header get the richest packet. The `-raw` variants rewrite
    // one parser-selector field to a value no parse rule claims, which
    // truncates the parse chain there — that is what makes "header absent"
    // worlds (e.g. an IPv4 packet that does not carry UDP) concretizable.
    type Fixup = Option<(&'static str, &'static str, u128)>;
    let shapes: [(&str, &[&str], Fixup); 7] = [
        ("ipv4", &["ethernet", "ipv4", "udp"], None),
        ("ipv6", &["ethernet", "ipv6", "udp"], None),
        ("srv6", &["ethernet", "ipv6", "srh", "udp"], None),
        (
            "ipv4",
            &["ethernet", "ipv4"],
            Some(("ipv4", "protocol", 253)),
        ),
        (
            "ipv6",
            &["ethernet", "ipv6"],
            Some(("ipv6", "next_hdr", 59)),
        ),
        (
            "srv6",
            &["ethernet", "ipv6", "srh"],
            Some(("srh", "next_header", 59)),
        ),
        (
            "ipv4",
            &["ethernet"],
            Some(("ethernet", "ethertype", 0x88b5)),
        ),
    ];
    let (shape, fixup) = shapes
        .iter()
        .find(|(_, hs, _)| {
            valid.iter().all(|h| hs.contains(h)) && absent.iter().all(|h| !hs.contains(h))
        })
        .map(|(n, _, f)| (*n, *f))
        .ok_or_else(|| {
            // The shape list enumerates every truncation of the standard
            // parse chains, so a validity assignment over the standard
            // headers that fits none of them contradicts the parser
            // structure itself (e.g. IPv4 and IPv6 both present, or SRH
            // without IPv6).
            infeasible(format!(
                "no traffic shape has {valid:?} present and {absent:?} absent"
            ))
        })?;

    // --- ingress port ---
    let port = by_term
        .get(&Term::IngressPort)
        .map(|c| {
            c.pick(16)
                .ok_or_else(|| uncoverable("unsatisfiable ingress-port constraints"))
        })
        .transpose()?
        .unwrap_or(0) as u16;

    let mut pkt = match shape {
        "ipv4" => ipv4_udp_packet(&Ipv4UdpSpec::default()),
        "ipv6" => ipv6_udp_packet(&Ipv6UdpSpec::default()),
        _ => srv6_packet(&Ipv6UdpSpec::default(), &segments),
    };
    pkt.meta.ingress_port = port;
    if let Some((h, f, v)) = fixup {
        pkt.ensure_parsed(&design.linkage, h)
            .map_err(|e| uncoverable(format!("parse failed while truncating the shape: {e}")))
            .and_then(|ok| {
                if ok {
                    Ok(())
                } else {
                    Err(uncoverable(format!(
                        "header `{h}` is not parseable in the chosen traffic shape"
                    )))
                }
            })?;
        pkt.set_field(&design.linkage, h, f, v)
            .map_err(|e| uncoverable(e.to_string()))?;
    }

    // --- field assignments ---
    // Parse the construction copy far enough to write every constrained
    // field, then re-wrap the mutated bytes as a fresh unparsed packet so
    // the device parses exactly what a wire packet would present.
    let selector_fields: BTreeSet<(String, String)> = design
        .linkage
        .iter()
        .flat_map(|ty| {
            ty.parser.iter().flat_map(|p| {
                p.selector_fields
                    .iter()
                    .map(|f| (ty.name.clone(), f.clone()))
            })
        })
        .collect();
    for (term, c) in &by_term {
        let Term::Field(h, f) = term else {
            continue;
        };
        if h == "srh" && f == "segments_left" {
            continue; // encoded via the segment count above
        }
        if !pkt
            .ensure_parsed(&design.linkage, h)
            .map_err(|e| uncoverable(format!("parse failed while assigning fields: {e}")))?
        {
            return Err(uncoverable(format!(
                "constrained header `{h}` is unreachable in the chosen traffic shape"
            )));
        }
        let bits = design
            .linkage
            .get(h)
            .and_then(|ty| ty.fields.iter().find(|fd| fd.name == *f))
            .map(|fd| fd.bits)
            .ok_or_else(|| uncoverable(format!("unknown field `{h}.{f}`")))?;
        let current = pkt
            .get_field(&design.linkage, h, f)
            .map_err(|e| uncoverable(e.to_string()))?;
        if c.admits(current) {
            continue;
        }
        let v = c
            .pick(bits)
            .ok_or_else(|| uncoverable(format!("unsatisfiable constraints on `{h}.{f}`")))?;
        if selector_fields.contains(&(h.clone(), f.clone())) {
            return Err(uncoverable(format!(
                "world constrains parser-selector field `{h}.{f}`; changing it would alter the traffic shape"
            )));
        }
        pkt.set_field(&design.linkage, h, f, v)
            .map_err(|e| uncoverable(e.to_string()))?;
    }

    let fresh = Packet::new(pkt.data.clone(), port);
    let mut parsed = fresh.clone();
    // Parse the reference copy fully so wire fields resolve.
    let _ = parsed.parse_all(&design.linkage);

    // --- entry-data argument choices ---
    let mut entry_args = BTreeMap::new();
    for hit in hits {
        let action = design
            .tables
            .get(&hit.table)
            .and_then(|d| d.actions.get(hit.tag as usize - 1))
            .ok_or_else(|| {
                uncoverable(format!(
                    "hit tag {} out of range for `{}`",
                    hit.tag, hit.table
                ))
            })?;
        let params = design
            .actions
            .get(action)
            .map(|a| a.params.clone())
            .unwrap_or_default();
        for (i, (_, bits)) in params.iter().enumerate() {
            let term = Term::EntryData {
                table: hit.table.clone(),
                tag: hit.tag,
                index: i,
            };
            let v = match by_term.get(&term) {
                Some(c) => c
                    .pick(*bits)
                    .ok_or_else(|| uncoverable(format!("unsatisfiable constraints on {term}")))?,
                None => (i as u128 + 1) & width_mask(*bits),
            };
            entry_args.insert((hit.table.clone(), hit.tag, i), v);
        }
    }

    Ok(Concrete {
        packet: fresh,
        parsed,
        entry_args,
        segments,
        injections,
    })
}

/// Builds `AddEntry` messages that make each traced hit actually hit.
fn synth_entries(
    design: &CompiledDesign,
    hits: &[TableHitTrace],
    conc: &Concrete,
) -> Result<Vec<ControlMsg>, String> {
    let mut msgs = Vec::new();
    for hit in hits {
        let def = design
            .tables
            .get(&hit.table)
            .ok_or_else(|| format!("unknown table `{}`", hit.table))?;
        let action_name = def
            .actions
            .get(hit.tag as usize - 1)
            .ok_or_else(|| format!("hit tag {} out of range for `{}`", hit.tag, hit.table))?;
        let n_params = design
            .actions
            .get(action_name)
            .map(|a| a.params.len())
            .unwrap_or(0);
        let args: Vec<u128> = (0..n_params)
            .map(|i| conc.entry_args[&(hit.table.clone(), hit.tag, i)])
            .collect();
        let action = ActionCall::new(action_name.clone(), args);
        let key: Vec<KeyMatch> = if def.is_selector() {
            // One member: any packet key hashes onto it.
            def.key.iter().map(|_| KeyMatch::Exact(0)).collect()
        } else {
            let mut kms = Vec::new();
            for (kind, bits, term) in &hit.keys {
                let v = resolve_term(term, conc, design)
                    .ok_or_else(|| format!("key of `{}` not concretizable ({term})", hit.table))?
                    & width_mask(*bits);
                kms.push(match kind {
                    MatchKind::Exact | MatchKind::Hash => KeyMatch::Exact(v),
                    MatchKind::Lpm => KeyMatch::Lpm {
                        value: v,
                        prefix_len: *bits,
                    },
                    MatchKind::Ternary => KeyMatch::Ternary {
                        value: v,
                        mask: width_mask(*bits),
                    },
                });
            }
            kms
        };
        msgs.push(ControlMsg::AddEntry {
            table: hit.table.clone(),
            entry: TableEntry {
                key,
                priority: 0,
                action,
                counter: 0,
            },
        });
    }
    Ok(msgs)
}

/// Resolves a term to a concrete value under the chosen packet/entry
/// assignment; `None` when the term involves something we do not model
/// concretely (checksums).
fn resolve_term(term: &Term, conc: &Concrete, design: &CompiledDesign) -> Option<u128> {
    match term {
        Term::Const(c) => Some(*c),
        Term::Field(h, f) => conc.parsed.get_field(&design.linkage, h, f).ok(),
        Term::IngressPort => Some(conc.packet.meta.ingress_port as u128),
        Term::EntryData { table, tag, index } => {
            conc.entry_args.get(&(table.clone(), *tag, *index)).copied()
        }
        Term::EntryCounter { .. } => Some(conc.injections as u128),
        Term::Alu { op, a, b } => Some(op.apply(
            resolve_term(a, conc, design)?,
            resolve_term(b, conc, design)?,
        )),
        Term::Hash { inputs, modulo } => {
            let vals: Option<Vec<u128>> = inputs
                .iter()
                .map(|t| resolve_term(t, conc, design))
                .collect();
            let h = hash_values(&vals?) as u128;
            Some(if *modulo > 0 { h % *modulo as u128 } else { h })
        }
        Term::Trunc { bits, of } => Some(resolve_term(of, conc, design)? & width_mask(*bits)),
        Term::Cksum4(_) | Term::IncrCksum { .. } => None,
        Term::SrhSegment(idx) => {
            let i = resolve_term(idx, conc, design)? as usize;
            conc.segments.get(i).copied()
        }
    }
}
