//! The decision oracle: one shared source of truth for everything the
//! symbolic packet leaves open.
//!
//! A *world* is an assignment to decision keys: is header `h` present on
//! the wire, does comparison `t <op> u` hold, does table `T` miss or hit
//! with which action tag. Both evaluators run against the same oracle, so
//! a decision either side makes is seen identically by the other — the
//! enumeration aligns paths by *what was asked*, not by where in the
//! pipeline the question arose. Worlds are enumerated by depth-first
//! search over a trail of choice points, and [`enumerate`] is the one loop
//! that drives it: every analysis of the crate is a visitor of it.
//!
//! ## Why this is enough to validate stage merging
//!
//! `rp4c::merge` only fuses stages whose table guards the verifier proves
//! mutually exclusive, and that proof uses exactly three base facts:
//! `h.isValid()` vs `!h.isValid()`, `x == c1` vs `x == c2` (same operand,
//! different constants), and conjunction/negation structure over those.
//! The oracle reproduces each: validity is a single shared key queried by
//! both polarities, equalities against constants share an operand-indexed
//! binding (deciding `x == c1` true *forces* `x == c2` false), and
//! conjunctions short-circuit through the same sub-keys on both sides.
//! Hence a sound merge never manufactures a spurious divergence, while a
//! merge of genuinely overlapping guards yields a world where the merged
//! template runs one table and the source program runs two.

use std::collections::HashMap;
use std::fmt;
use std::ops::ControlFlow;

use ipsa_core::template::CompiledDesign;

use crate::term::Term;

/// World budget of every enumeration: how many worlds (execution paths)
/// are visited before the enumeration reports itself incomplete.
pub const MAX_WORLDS: usize = 65_536;

/// Decision budget: how many oracle decisions one world may take.
pub(crate) const MAX_DECISIONS: usize = 96;

/// Comparison operators appearing in decision keys.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub(crate) enum CmpKind {
    Lt,
    Le,
    Gt,
    Ge,
}

/// A canonical question about the symbolic packet.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub(crate) enum Key {
    /// Is this header present on the wire? (true / false)
    Validity(String),
    /// Does `lhs == val` hold? (true / false; equalities on the same
    /// operand force each other's negation)
    EqConst {
        /// Non-constant operand.
        lhs: Term,
        /// Constant compared against.
        val: u128,
    },
    /// Does `lhs <op> rhs` hold? (true / false)
    Cmp {
        /// Operator.
        op: CmpKind,
        /// Left operand.
        lhs: Term,
        /// Right operand.
        rhs: Term,
    },
    /// Table lookup outcome: choice 0 is a miss, choice `t` is a hit on
    /// action tag `t`.
    Table(String),
}

enum Frame {
    /// A real choice point.
    Choice { key: Key, idx: usize, n: usize },
    /// A decision implied by an earlier choice (no alternatives).
    Forced { key: Key },
    /// Bookkeeping: `lhs` was bound equal to a constant.
    Bind { lhs: Term },
}

/// The shared decision oracle. See the module docs.
pub(crate) struct Oracle {
    assigned: HashMap<Key, usize>,
    trail: Vec<Frame>,
    /// Operand → constant it is currently bound equal to.
    eq_true: HashMap<Term, u128>,
    /// Table → number of hit tags to enumerate (1 + max action count).
    arity: HashMap<String, usize>,
    /// Hard cap on decisions per world (guards runaway models).
    max_decisions: usize,
    /// Set when a world exceeded `max_decisions`.
    overflowed: bool,
}

impl Oracle {
    /// Creates an oracle enumerating `1 + tags` outcomes per table.
    pub(crate) fn new(arity: HashMap<String, usize>, max_decisions: usize) -> Self {
        Oracle {
            assigned: HashMap::new(),
            trail: Vec::new(),
            eq_true: HashMap::new(),
            arity,
            max_decisions,
            overflowed: false,
        }
    }

    fn choose(&mut self, key: Key, n: usize) -> usize {
        if let Some(&c) = self.assigned.get(&key) {
            return c;
        }
        if self.trail.len() >= self.max_decisions {
            self.overflowed = true;
            // Deterministic fallback keeps both sides consistent even past
            // the budget; the checker reports RP4205 and stops.
            return 0;
        }
        self.assigned.insert(key.clone(), 0);
        self.trail.push(Frame::Choice { key, idx: 0, n });
        0
    }

    /// Is header `h` present on the wire in this world?
    pub(crate) fn validity(&mut self, header: &str) -> bool {
        self.choose(Key::Validity(header.to_string()), 2) == 0
    }

    /// Does `lhs == val` hold in this world? Constants fold before this is
    /// called. Deciding `x == c` true forces `x == c'` false for `c' != c`.
    pub(crate) fn eq_const(&mut self, lhs: Term, val: u128) -> bool {
        let key = Key::EqConst {
            lhs: lhs.clone(),
            val,
        };
        if let Some(&c) = self.assigned.get(&key) {
            return c == 0;
        }
        if let Some(&bound) = self.eq_true.get(&lhs) {
            if bound != val {
                // Implied: lhs is already equal to a different constant.
                self.assigned.insert(key.clone(), 1);
                self.trail.push(Frame::Forced { key });
                return false;
            }
        }
        let c = self.choose(key, 2);
        if c == 0 && !self.eq_true.contains_key(&lhs) {
            self.eq_true.insert(lhs.clone(), val);
            self.trail.push(Frame::Bind { lhs });
        }
        c == 0
    }

    /// Does `lhs <op> rhs` hold in this world?
    pub(crate) fn cmp(&mut self, op: CmpKind, lhs: Term, rhs: Term) -> bool {
        self.choose(Key::Cmp { op, lhs, rhs }, 2) == 0
    }

    /// Table lookup outcome: `None` is a miss, `Some(tag)` a hit.
    pub(crate) fn table(&mut self, name: &str) -> Option<u32> {
        let n = 1 + self.arity.get(name).copied().unwrap_or(0);
        match self.choose(Key::Table(name.to_string()), n) {
            0 => None,
            t => Some(t as u32),
        }
    }

    /// Advances to the next unexplored world. Returns `false` when the
    /// space is exhausted. The memoized prefix below the flipped choice is
    /// kept so re-evaluation replays deterministically.
    pub(crate) fn next_world(&mut self) -> bool {
        self.overflowed = false;
        while let Some(frame) = self.trail.pop() {
            match frame {
                Frame::Bind { lhs } => {
                    self.eq_true.remove(&lhs);
                }
                Frame::Forced { key } => {
                    self.assigned.remove(&key);
                }
                Frame::Choice { key, idx, n } => {
                    if idx + 1 < n {
                        let idx = idx + 1;
                        self.assigned.insert(key.clone(), idx);
                        // Flipping an equality from true to false: the Bind
                        // frame above it was already popped.
                        self.trail.push(Frame::Choice { key, idx, n });
                        return true;
                    }
                    self.assigned.remove(&key);
                }
            }
        }
        false
    }

    /// Human-readable summary of the current world's decisions, for
    /// diagnostics.
    pub(crate) fn describe(&self) -> String {
        let mut parts = Vec::new();
        for frame in &self.trail {
            let (key, idx) = match frame {
                Frame::Choice { key, idx, .. } => (key, *idx),
                Frame::Forced { key } => (key, *self.assigned.get(key).unwrap_or(&0)),
                Frame::Bind { .. } => continue,
            };
            parts.push(match key {
                Key::Validity(h) => {
                    format!("{h} {}", if idx == 0 { "valid" } else { "absent" })
                }
                Key::EqConst { lhs, val } => {
                    format!("{lhs} == {val:#x} {}", if idx == 0 { "✓" } else { "✗" })
                }
                Key::Cmp { op, lhs, rhs } => {
                    format!("{lhs} {op:?} {rhs} {}", if idx == 0 { "✓" } else { "✗" })
                }
                Key::Table(t) => {
                    if idx == 0 {
                        format!("{t} miss")
                    } else {
                        format!("{t} hit#{idx}")
                    }
                }
            });
        }
        parts.join(", ")
    }

    /// The current world's raw decisions (for witness concretization).
    pub(crate) fn decisions(&self) -> Vec<(Key, usize)> {
        self.trail
            .iter()
            .filter_map(|f| match f {
                Frame::Choice { key, idx, .. } => Some((key.clone(), *idx)),
                Frame::Forced { key } => Some((key.clone(), *self.assigned.get(key)?)),
                Frame::Bind { .. } => None,
            })
            .collect()
    }
}

/// Why an enumeration stopped before visiting every world.
#[derive(Debug)]
pub(crate) enum Overflow {
    /// A world needed more than this many decisions.
    Decisions(usize),
    /// The world budget ran out.
    Worlds {
        /// Worlds visited.
        visited: usize,
        /// The budget.
        budget: usize,
    },
}

impl fmt::Display for Overflow {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Overflow::Decisions(n) => write!(f, "a path needed more than {n} decisions"),
            Overflow::Worlds { visited, budget } => {
                write!(f, "stopped after {visited} worlds (budget {budget})")
            }
        }
    }
}

/// Enumerates the worlds of an oracle whose table outcomes range over the
/// largest action count any of `designs` gives each table.
///
/// For each world, `eval` runs the evaluators against the oracle; a world
/// that overflowed `max_decisions` stops the enumeration before `visit`
/// sees it. `visit` then inspects the result and may stop the enumeration
/// by breaking; after it, `max_worlds` is checked. Returns why the
/// enumeration stopped short, or `None` when every world was visited or
/// `visit` broke.
pub(crate) fn enumerate<R>(
    designs: &[&CompiledDesign],
    max_worlds: usize,
    max_decisions: usize,
    mut eval: impl FnMut(&mut Oracle) -> R,
    mut visit: impl FnMut(R, &mut Oracle) -> ControlFlow<()>,
) -> Option<Overflow> {
    let mut arity: HashMap<String, usize> = HashMap::new();
    for (name, table) in designs.iter().flat_map(|d| &d.tables) {
        let n = arity.entry(name.clone()).or_insert(0);
        *n = (*n).max(table.actions.len());
    }
    let mut oracle = Oracle::new(arity, max_decisions);
    let mut worlds = 0usize;
    loop {
        worlds += 1;
        let run = eval(&mut oracle);
        if oracle.overflowed {
            return Some(Overflow::Decisions(max_decisions));
        }
        if visit(run, &mut oracle).is_break() {
            return None;
        }
        if worlds >= max_worlds {
            return Some(Overflow::Worlds {
                visited: worlds,
                budget: max_worlds,
            });
        }
        if !oracle.next_world() {
            return None;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn term(n: &str) -> Term {
        Term::Field("h".into(), n.into())
    }

    #[test]
    fn enumerates_all_worlds() {
        let mut o = Oracle::new(HashMap::from([("t".to_string(), 2)]), 64);
        let mut seen = Vec::new();
        loop {
            let v = o.validity("eth");
            let t = if v { o.table("t") } else { None };
            seen.push((v, t));
            if !o.next_world() {
                break;
            }
        }
        // eth valid × {miss, tag1, tag2} + eth absent.
        assert_eq!(
            seen,
            vec![
                (true, None),
                (true, Some(1)),
                (true, Some(2)),
                (false, None)
            ]
        );
    }

    #[test]
    fn eq_const_forces_exclusion() {
        let mut o = Oracle::new(HashMap::new(), 64);
        let mut worlds = Vec::new();
        loop {
            let a = o.eq_const(term("x"), 1);
            let b = o.eq_const(term("x"), 2);
            worlds.push((a, b));
            if !o.next_world() {
                break;
            }
        }
        // (true, true) is never generated.
        assert_eq!(worlds, vec![(true, false), (false, true), (false, false)]);
    }

    #[test]
    fn memoized_within_world() {
        let mut o = Oracle::new(HashMap::new(), 64);
        let a = o.validity("eth");
        let b = o.validity("eth");
        assert_eq!(a, b);
    }
}
