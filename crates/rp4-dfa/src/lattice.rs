//! The abstract domains of the dataflow pass.
//!
//! Each domain is a join-semilattice: `join` is the least upper bound used
//! when a stage's possibly-run actions merge, and `⊤` means "the analysis
//! knows nothing". All transfer functions in this crate only ever move
//! values *up* these lattices.

use std::collections::{BTreeMap, BTreeSet};

/// An unsigned interval `[lo, hi]` over a field's value space.
///
/// Fields are at most 128 bits, so `u128` bounds are exact. The abstraction
/// is the classic interval domain without widening — transfer functions
/// here only join against constants and width-derived tops, so chains are
/// finite and widening is unnecessary.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Interval {
    /// Smallest possible value.
    pub lo: u128,
    /// Largest possible value.
    pub hi: u128,
}

impl Interval {
    /// The single value `v`.
    pub fn constant(v: u128) -> Self {
        Interval { lo: v, hi: v }
    }

    /// The full range of a `bits`-wide field.
    pub fn top(bits: usize) -> Self {
        Interval {
            lo: 0,
            hi: max_value(bits),
        }
    }

    /// Least upper bound: the hull of both intervals.
    pub fn join(&self, other: &Self) -> Self {
        Interval {
            lo: self.lo.min(other.lo),
            hi: self.hi.max(other.hi),
        }
    }

    /// True when the interval holds exactly one value.
    pub fn is_constant(&self) -> bool {
        self.lo == self.hi
    }

    /// Three-valued comparison against another interval: `Some(true)` when
    /// the relation holds for every value pair, `Some(false)` when it holds
    /// for none, `None` otherwise.
    pub fn compare(&self, op: CmpKind, rhs: &Interval) -> Option<bool> {
        use CmpKind::*;
        match op {
            Eq => {
                if self.is_constant() && rhs.is_constant() && self.lo == rhs.lo {
                    Some(true)
                } else if self.hi < rhs.lo || rhs.hi < self.lo {
                    Some(false)
                } else {
                    None
                }
            }
            Ne => self.compare(Eq, rhs).map(|b| !b),
            Lt => {
                if self.hi < rhs.lo {
                    Some(true)
                } else if self.lo >= rhs.hi {
                    Some(false)
                } else {
                    None
                }
            }
            Le => {
                if self.hi <= rhs.lo {
                    Some(true)
                } else if self.lo > rhs.hi {
                    Some(false)
                } else {
                    None
                }
            }
            Gt => rhs.compare(Lt, self),
            Ge => rhs.compare(Le, self),
        }
    }
}

/// Comparison kinds shared by the AST and design predicate languages.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CmpKind {
    /// `==`
    Eq,
    /// `!=`
    Ne,
    /// `<`
    Lt,
    /// `<=`
    Le,
    /// `>`
    Gt,
    /// `>=`
    Ge,
}

/// Largest value a `bits`-wide field can hold.
pub fn max_value(bits: usize) -> u128 {
    if bits >= 128 {
        u128::MAX
    } else {
        (1u128 << bits) - 1
    }
}

/// The product state threaded down the stage chain by `program.rs`.
///
/// Missing map keys carry the *initial* abstract value, not ⊥: metadata is
/// zero-initialized at packet entry, so an absent interval means `[0,0]`
/// and an absent `may_written` entry means "never written yet".
#[derive(Debug, Clone, PartialEq, Default)]
pub struct AbsState {
    /// Headers some reachable earlier action may have removed.
    pub may_removed: BTreeSet<String>,
    /// Metadata fields some earlier stage may have written.
    pub may_written: BTreeSet<String>,
    /// Per-metadata-field value intervals (absent = `[0,0]`).
    pub intervals: BTreeMap<String, Interval>,
}

impl AbsState {
    /// Interval of a metadata field under this state.
    pub fn interval_of(&self, field: &str) -> Interval {
        self.intervals
            .get(field)
            .copied()
            .unwrap_or(Interval::constant(0))
    }

    /// Least upper bound: set unions and per-field interval hulls.
    pub fn join(&self, other: &Self) -> Self {
        let fields: BTreeSet<&String> = self
            .intervals
            .keys()
            .chain(other.intervals.keys())
            .collect();
        AbsState {
            may_removed: &self.may_removed | &other.may_removed,
            may_written: &self.may_written | &other.may_written,
            intervals: fields
                .into_iter()
                .map(|f| (f.clone(), self.interval_of(f).join(&other.interval_of(f))))
                .collect(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn interval_compare_three_valued() {
        let a = Interval { lo: 0, hi: 255 };
        let full = Interval::top(8);
        assert_eq!(a.compare(CmpKind::Le, &Interval::constant(255)), Some(true));
        assert_eq!(
            a.compare(CmpKind::Gt, &Interval::constant(255)),
            Some(false)
        );
        assert_eq!(a.compare(CmpKind::Eq, &Interval::constant(7)), None);
        assert_eq!(
            full.compare(CmpKind::Lt, &Interval::constant(256)),
            Some(true)
        );
        assert_eq!(
            Interval::constant(3).compare(CmpKind::Eq, &Interval::constant(3)),
            Some(true)
        );
        assert_eq!(
            Interval::constant(3).compare(CmpKind::Ne, &Interval::constant(3)),
            Some(false)
        );
    }

    #[test]
    fn state_join_defaults_to_initial_zero() {
        let mut a = AbsState::default();
        a.intervals.insert("x".into(), Interval::constant(9));
        let b = AbsState::default(); // x absent = [0,0]
        let j = a.join(&b);
        assert_eq!(j.interval_of("x"), Interval { lo: 0, hi: 9 });
    }

    #[test]
    fn width_tops() {
        assert_eq!(max_value(1), 1);
        assert_eq!(max_value(8), 255);
        assert_eq!(max_value(128), u128::MAX);
    }
}
