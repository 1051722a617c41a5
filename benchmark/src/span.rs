//! In-memory spans around the calls the benchmark makes into each layer.
//!
//! A span is opened and closed by the benchmark's own code, from outside
//! the program under test: name, start, end, the span that caused it, and
//! the burst or update it belongs to. Nothing is written until the run
//! ends. With the tracer off every call returns at once, so the
//! end-to-end runs pay one predictable branch per call site.

use std::collections::BTreeMap;
use std::time::Instant;

/// Index of the root "no parent" marker.
pub const NO_PARENT: u32 = u32::MAX;

/// One closed (or still open) span, times in ns since the tracer started.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Span {
    /// Layer-qualified name, e.g. `pm.run_burst`.
    pub name: &'static str,
    /// Start, ns.
    pub start: u64,
    /// End, ns (0 while open).
    pub end: u64,
    /// Index of the enclosing span, or [`NO_PARENT`].
    pub parent: u32,
    /// Burst or update identifier shared by the spans of one journey.
    pub id: u32,
}

impl Span {
    fn dur(&self) -> u64 {
        self.end.saturating_sub(self.start)
    }
}

/// Handle returned by [`Tracer::enter`]; pass it back to [`Tracer::exit`].
#[derive(Debug, Clone, Copy)]
pub struct Open(u32);

/// The span recorder.
#[derive(Debug)]
pub struct Tracer {
    /// False for end-to-end runs: nothing is recorded.
    pub on: bool,
    t0: Instant,
    spans: Vec<Span>,
    stack: Vec<u32>,
}

/// Self time and call count of one span name.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct SelfTime {
    /// Σ over spans of (duration − time covered by child spans), ns.
    pub self_ns: u64,
    /// Σ duration, ns.
    pub total_ns: u64,
    /// Spans with this name.
    pub count: u64,
}

impl Tracer {
    /// A recorder that records (`on`) or ignores every call.
    pub fn new(on: bool) -> Self {
        Tracer {
            on,
            t0: Instant::now(),
            spans: Vec::new(),
            stack: Vec::new(),
        }
    }

    fn now(&self) -> u64 {
        self.t0.elapsed().as_nanos() as u64
    }

    /// Opens a span under whichever span is currently open.
    #[inline]
    pub fn enter(&mut self, name: &'static str, id: u32) -> Open {
        if !self.on {
            return Open(NO_PARENT);
        }
        let idx = self.spans.len() as u32;
        let parent = self.stack.last().copied().unwrap_or(NO_PARENT);
        self.stack.push(idx);
        let start = self.now();
        self.spans.push(Span {
            name,
            start,
            end: 0,
            parent,
            id,
        });
        Open(idx)
    }

    /// Closes a span opened by [`Tracer::enter`]. Spans close in LIFO
    /// order; anything still open above `open` is closed with it.
    #[inline]
    pub fn exit(&mut self, open: Open) {
        if !self.on {
            return;
        }
        let end = self.now();
        while let Some(top) = self.stack.pop() {
            self.spans[top as usize].end = end;
            if top == open.0 {
                break;
            }
        }
    }

    /// Runs `f` inside a span.
    #[inline]
    pub fn span<R>(&mut self, name: &'static str, id: u32, f: impl FnOnce() -> R) -> R {
        let open = self.enter(name, id);
        let r = f();
        self.exit(open);
        r
    }

    /// Adds an already-closed span under whichever span is open: for a
    /// call made inside an opaque function, whose window a probe kept.
    pub fn record(&mut self, name: &'static str, id: u32, start: Instant, end: Instant) {
        if !self.on {
            return;
        }
        let ns = |t: Instant| t.saturating_duration_since(self.t0).as_nanos() as u64;
        self.spans.push(Span {
            name,
            start: ns(start),
            end: ns(end),
            parent: self.stack.last().copied().unwrap_or(NO_PARENT),
            id,
        });
    }

    /// Spans called `parent`: how many, their summed duration, and the
    /// summed duration of their direct children by name, ns.
    pub fn breakdown(&self, parent: &str) -> (u64, u64, BTreeMap<&'static str, u64>) {
        let mut children: BTreeMap<&'static str, u64> = BTreeMap::new();
        let (mut count, mut total) = (0, 0);
        for s in &self.spans {
            if s.name == parent {
                count += 1;
                total += s.dur();
            }
            if s.parent != NO_PARENT && self.spans[s.parent as usize].name == parent {
                *children.entry(s.name).or_default() += s.dur();
            }
        }
        (count, total, children)
    }

    /// Every recorded span, in opening order.
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Durations (ns) of every span called `name`, in opening order.
    pub fn durations(&self, name: &str) -> Vec<f64> {
        self.spans
            .iter()
            .filter(|s| s.name == name)
            .map(|s| s.dur() as f64)
            .collect()
    }

    /// Per-name self time: a span's duration minus the part of it its
    /// direct children cover.
    pub fn self_times(&self) -> BTreeMap<&'static str, SelfTime> {
        let mut child_ns = vec![0u64; self.spans.len()];
        for s in &self.spans {
            if s.parent != NO_PARENT {
                child_ns[s.parent as usize] += s.dur();
            }
        }
        let mut by_name: BTreeMap<&'static str, SelfTime> = BTreeMap::new();
        for (s, covered) in self.spans.iter().zip(child_ns) {
            let e = by_name.entry(s.name).or_default();
            e.self_ns += s.dur().saturating_sub(covered);
            e.total_ns += s.dur();
            e.count += 1;
        }
        by_name
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Builds a tracer from explicit `(name, start, end, parent)` rows so
    /// the arithmetic is checked without a clock.
    fn tracer_of(rows: &[(&'static str, u64, u64, u32)]) -> Tracer {
        let mut t = Tracer::new(true);
        t.spans = rows
            .iter()
            .map(|&(name, start, end, parent)| Span {
                name,
                start,
                end,
                parent,
                id: 0,
            })
            .collect();
        t
    }

    #[test]
    fn self_time_subtracts_nested_and_adjacent_children() {
        // burst 0..100 with adjacent children rx 10..30 and run 30..90;
        // run has a nested child tm 40..50.
        let t = tracer_of(&[
            ("burst", 0, 100, NO_PARENT),
            ("rx", 10, 30, 0),
            ("run", 30, 90, 0),
            ("tm", 40, 50, 2),
        ]);
        let st = t.self_times();
        assert_eq!(st["burst"].self_ns, 100 - 20 - 60);
        assert_eq!(st["rx"].self_ns, 20);
        assert_eq!(st["run"].self_ns, 60 - 10, "grandchild counts once");
        assert_eq!(st["tm"].self_ns, 10);
        let total_self: u64 = st.values().map(|s| s.self_ns).sum();
        assert_eq!(total_self, 100, "self times partition the root span");
    }

    #[test]
    fn breakdown_sums_direct_children_by_name() {
        let t = tracer_of(&[
            ("update", 0, 100, NO_PARENT),
            ("plan", 0, 30, 0),
            ("burst", 60, 100, 0),
            ("rx", 60, 70, 2),
            ("update", 100, 150, NO_PARENT),
            ("plan", 100, 120, 4),
            ("burst", 200, 240, NO_PARENT),
        ]);
        let (count, total, children) = t.breakdown("update");
        assert_eq!((count, total), (2, 150));
        assert_eq!(children["plan"], 50);
        assert_eq!(children["burst"], 40, "only the burst inside an update");
        assert!(!children.contains_key("rx"), "grandchildren are not direct");
    }

    #[test]
    fn enter_exit_nest_and_off_records_nothing() {
        let mut t = Tracer::new(true);
        let a = t.enter("a", 7);
        t.span("b", 7, || ());
        t.exit(a);
        t.span("c", 8, || ());
        let s = t.spans();
        assert_eq!(s.len(), 3);
        assert_eq!(
            (s[0].parent, s[1].parent, s[2].parent),
            (NO_PARENT, 0, NO_PARENT)
        );
        assert!(s[0].end >= s[1].end && s[1].start >= s[0].start);
        assert_eq!(t.durations("b").len(), 1);

        let mut off = Tracer::new(false);
        let o = off.enter("a", 0);
        off.exit(o);
        assert!(off.spans().is_empty());
    }
}
