//! The measured loops: wire-to-wire bursts, in-situ update cycles and
//! table churn, in windows of fixed work until the time is up.
//!
//! One burst is the whole journey of 256 frames: raw bytes + ingress port
//! → `PacketArena::build` → `Device::inject` → `Device::run_batch` → read
//! every output → `PacketArena::recycle_all`; the timed window is exactly
//! that. With the tracer on, the same journey is driven through the
//! switch's public parts with a span around each call.

use std::hint::black_box;
use std::time::Instant;

use ipsa_controller::{programs, Checkpoint};
use ipsa_core::control::{ApplyReport, Device};
use ipsa_netpkt::arena::PacketArena;
use ipsa_netpkt::packet::Packet;

use crate::clock::Clock;
use crate::gen::BURST;
use crate::setup::{Bench, Probe, Target, UseCase, CASE_BURSTS, CHURN_OPS};
use crate::span::Tracer;

/// Windows a phase with a share of the time runs at least.
pub const MIN_WINDOWS: usize = 4;

/// Operations attempted and failed, with a line per failure.
#[derive(Debug, Default)]
pub struct Tally {
    /// Packets offered, control operations issued, checks made.
    pub attempted: u64,
    /// Of those: packets not emitted, operations that returned `Err`,
    /// checks that did not hold.
    pub failed: u64,
    /// What failed (first few only).
    pub messages: Vec<String>,
}

impl Tally {
    /// Counts one check or operation; records `what` when it failed.
    pub fn check(&mut self, ok: bool, what: impl FnOnce() -> String) {
        self.attempted += 1;
        if !ok {
            self.fail(1, what());
        }
    }

    fn fail(&mut self, n: u64, what: String) {
        self.failed += n;
        if self.messages.len() < 20 {
            self.messages.push(what);
        }
    }

    /// Counts one operation that returns a `Result`; `Err` is a failure.
    pub fn result<T, E: std::fmt::Display>(&mut self, what: &str, r: Result<T, E>) -> Option<T> {
        self.attempted += 1;
        match r {
            Ok(v) => Some(v),
            Err(e) => {
                self.fail(1, format!("{what}: {e}"));
                None
            }
        }
    }
}

/// Packet buffers reused across bursts.
pub struct Io {
    /// The recycling packet pool.
    pub arena: PacketArena,
    /// Clock-speed calibrator applied to every timed window.
    pub clock: Clock,
    built: Vec<Packet>,
    rx: Vec<Packet>,
    out: Vec<Packet>,
    next_id: u32,
}

impl Default for Io {
    fn default() -> Self {
        Io {
            arena: PacketArena::with_capacity(4 * BURST),
            clock: Clock::default(),
            built: Vec::with_capacity(BURST),
            rx: Vec::with_capacity(BURST),
            out: Vec::with_capacity(BURST),
            next_id: 0,
        }
    }
}

/// Reads what a receiver would: every output's bytes and egress port.
fn read_outputs(out: &[Packet]) -> u64 {
    out.iter().fold(0u64, |acc, p| {
        acc.wrapping_add(p.data.len() as u64)
            .wrapping_add(u64::from(p.data.first().copied().unwrap_or(0)))
            .wrapping_add(u64::from(p.meta.egress_port.unwrap_or(u16::MAX)))
    })
}

/// A timed burst window: seconds scaled to the reference clock, seconds as
/// measured, packets emitted.
pub type Window = (f64, f64, usize);

/// One burst, wire to wire. A packet that is offered and not emitted is a
/// failed operation: every workload is built so that none is dropped.
pub fn burst<'a, D: Target>(
    dev: &mut Probe<D>,
    io: &mut Io,
    frames: impl Iterator<Item = (&'a [u8], u16)>,
    tr: &mut Tracer,
    tally: &mut Tally,
) -> Window {
    let id = io.next_id;
    io.next_id = io.next_id.wrapping_add(1);
    let t = Instant::now();
    let emitted = if tr.on {
        burst_traced(dev, io, frames, tr, id, tally)
    } else {
        for (bytes, port) in frames {
            dev.inject(io.arena.build(bytes, port));
        }
        let mut out = dev.run_batch();
        black_box(read_outputs(&out));
        let n = out.len();
        io.arena.recycle_all(&mut out);
        n
    };
    let raw = t.elapsed().as_secs_f64();
    let secs = io.clock.scaled(raw);
    tally.attempted += BURST as u64;
    if emitted != BURST {
        tally.fail(
            (BURST - emitted.min(BURST)) as u64,
            format!("burst {id}: {emitted} of {BURST} packets emitted"),
        );
    }
    (secs, raw, emitted)
}

/// The burst journey with a span around each call into a layer, timed.
fn burst_traced<'a, D: Target>(
    dev: &mut Probe<D>,
    io: &mut Io,
    frames: impl Iterator<Item = (&'a [u8], u16)>,
    tr: &mut Tracer,
    id: u32,
    tally: &mut Tally,
) -> usize {
    let root = tr.enter("burst", id);
    journey(dev, io, frames, tr, id, tally);
    black_box(read_outputs(&io.out));
    let n = io.out.len();
    io.arena.recycle_all(&mut io.out);
    tr.exit(root);
    n
}

/// One burst through the traced journey, outputs handed back: for the
/// check that it emits exactly what `run_batch` emits.
pub fn traced_outputs<'a, D: Target>(
    dev: &mut Probe<D>,
    io: &mut Io,
    frames: impl Iterator<Item = (&'a [u8], u16)>,
    tally: &mut Tally,
) -> Vec<Packet> {
    journey(dev, io, frames, &mut Tracer::new(true), 0, tally);
    let out = io.out.clone();
    io.arena.recycle_all(&mut io.out);
    out
}

/// Frames in, outputs in `io.out`, a span around each call. On the
/// single-core switch the opaque `run_batch` is replaced by its public
/// parts; on the sharded runtime, whose workers own the data path, the
/// spans wrap `inject` and `run_batch`.
fn journey<'a, D: Target>(
    dev: &mut Probe<D>,
    io: &mut Io,
    frames: impl Iterator<Item = (&'a [u8], u16)>,
    tr: &mut Tracer,
    id: u32,
    tally: &mut Tally,
) {
    tr.span("netpkt.build", id, || {
        for (bytes, port) in frames {
            io.built.push(io.arena.build(bytes, port));
        }
    });
    if let Some(sw) = dev.dev.single() {
        tr.span("cm.rx", id, || {
            for p in io.built.drain(..) {
                sw.cm.inject(p);
            }
            sw.cm.rx_burst(usize::MAX, &mut io.rx);
        });
        if !sw.pm.has_compiled() {
            tr.span("fast.compile", id, || {
                sw.pm.ensure_compiled(&sw.linkage, &sw.sm);
            });
        }
        let r = tr.span("pm.run_burst", id, || {
            sw.pm
                .run_burst(&sw.linkage, &mut sw.sm, &mut io.rx, &mut io.out)
        });
        tally.result("pm.run_burst", r);
        tr.span("cm.tx", id, || {
            for p in io.out.drain(..) {
                sw.cm.transmit(p);
            }
            sw.cm.tx_burst(&mut io.out);
        });
    } else {
        tr.span("sharded.inject", id, || {
            for p in io.built.drain(..) {
                dev.inject(p);
            }
        });
        io.out = tr.span("sharded.run_batch", id, || dev.run_batch());
    }
}

/// What one window of a phase added up. Every window of a phase does the
/// same work (one pass over the frame set, one update cycle, one churn
/// round), so windows differ only by what the host did to them.
#[derive(Debug, Clone, Default)]
pub struct Acc {
    /// Packets offered.
    pub injected: u64,
    /// Packets emitted.
    pub emitted: u64,
    /// Σ burst windows, s at the reference clock.
    pub burst_s: f64,
    /// Σ burst windows as measured, s.
    pub raw_burst_s: f64,
    /// Entry operations applied.
    pub ops: u64,
    /// Σ `Device::apply` windows of the churn batches, s at the reference
    /// clock.
    pub apply_s: f64,
    /// ms (at the reference clock) from each `run_script` call to the last
    /// packet of the first post-update burst emitted, C1–C3 in turn.
    pub update_ms: Vec<f64>,
    /// ms for each `Rp4Flow::rollback` plus the first burst back on the
    /// base design.
    pub rollback_ms: Vec<f64>,
}

impl Acc {
    fn add_burst(&mut self, (secs, raw, emitted): Window) {
        self.injected += BURST as u64;
        self.emitted += emitted as u64;
        self.burst_s += secs;
        self.raw_burst_s += raw;
    }

    /// Packets emitted per second of burst windows, at the reference
    /// clock.
    pub fn pps(&self) -> f64 {
        self.emitted as f64 / self.burst_s
    }

    /// Entry operations per second of apply windows.
    pub fn ops_per_s(&self) -> f64 {
        self.ops as f64 / self.apply_s
    }
}

/// Packets the device accounts for: emitted plus every counted drop.
fn accounted<D: Target>(dev: &D) -> (u64, u64) {
    let r = dev.report();
    let lost = dev
        .sharded()
        .map_or(0, |s| s.supervisor_stats().lost_packets);
    let drops = r.pipeline.action_drops
        + r.pipeline.parse_drops
        + r.tm.no_route_drops
        + r.tm.tail_drops
        + lost;
    (r.pipeline.emitted, drops)
}

/// Where a phase is in its frames and its span identifiers; kept across
/// the windows of a phase, which are interleaved with the other phases'.
#[derive(Debug, Default, Clone, Copy)]
pub struct Cursor {
    next: usize,
    id: u32,
}

/// Runs one window of `rounds` rounds and checks packet conservation over
/// it: injected = emitted + counted drops.
fn window<D: Target>(
    b: &mut Bench<D>,
    io: &mut Io,
    phase: &str,
    rounds: usize,
    tally: &mut Tally,
    mut round: impl FnMut(&mut Bench<D>, &mut Io, &mut Acc, &mut Tally),
) -> Acc {
    let (emitted0, drops0) = accounted(&b.flow.device.dev);
    let mut acc = Acc::default();
    io.clock.mark();
    for _ in 0..rounds {
        round(b, io, &mut acc, tally);
    }
    let (emitted1, drops1) = accounted(&b.flow.device.dev);
    let seen = (emitted1 - emitted0) + (drops1 - drops0);
    tally.check(
        seen == acc.injected && emitted1 - emitted0 == acc.emitted,
        || {
            format!(
                "{phase} window: injected {} but device emitted {} and dropped {}",
                acc.injected,
                emitted1 - emitted0,
                drops1 - drops0
            )
        },
    );
    acc
}

/// One forward window: one pass over the workload's own frames.
pub fn forward_window<D: Target>(
    b: &mut Bench<D>,
    io: &mut Io,
    tr: &mut Tracer,
    cur: &mut Cursor,
    tally: &mut Tally,
) -> Acc {
    let pass = b.frames.bursts();
    window(b, io, "forward", pass, tally, |b, io, acc, tally| {
        acc.add_burst(burst(
            &mut b.flow.device,
            io,
            b.frames.burst(cur.next),
            tr,
            tally,
        ));
        cur.next += 1;
    })
}

/// Control-plane samples of the update phase.
#[derive(Debug, Default)]
pub struct UpdateSamples {
    /// Merged report of each structural load (one per update).
    pub reports: Vec<ApplyReport>,
    /// The program's own compile time of each load, µs.
    pub t_c_us: Vec<f64>,
    /// Traced runs: wall of `Rp4Flow::plan_script`, µs.
    pub plan_us: Vec<f64>,
    /// Traced runs: `apply_plan` minus the device's `apply`, µs.
    pub gates_us: Vec<f64>,
    /// Traced runs: the device's `apply` of the plan's messages, µs.
    pub apply_us: Vec<f64>,
}

/// Loads one use case in situ: the structural script, then the entries
/// that make it do something. Tracer off: `Rp4Flow::run_script`, as an
/// operator would. Tracer on: `plan_script` + `apply_plan`, so compile,
/// gates and device apply are seen apart.
fn load_case<D: Target>(
    b: &mut Bench<D>,
    case: &UseCase,
    tr: &mut Tracer,
    id: u32,
    samples: &mut UpdateSamples,
    tally: &mut Tally,
) {
    let flow = &mut b.flow;
    if tr.on {
        let t = Instant::now();
        let plan = tr.span("rp4c.plan", id, || {
            flow.plan_script(case.script, &programs::bundled_sources)
        });
        samples.plan_us.push(t.elapsed().as_secs_f64() * 1e6);
        if let Some(plan) = tally.result("plan_script", plan) {
            let open = tr.enter("controller.apply_plan", id);
            let t = Instant::now();
            let inner0 = flow.device.apply_ns;
            let report = flow.apply_plan(plan);
            let total = t.elapsed().as_secs_f64() * 1e6;
            let inner = (flow.device.apply_ns - inner0) as f64 / 1e3;
            // The device's apply happened inside the opaque call; the
            // probe kept its window, which becomes a child span here.
            if let Some((start, end)) = flow.device.last_apply.take() {
                tr.record("ccm.apply", id, start, end);
            }
            tr.exit(open);
            samples.apply_us.push(inner);
            samples.gates_us.push(total - inner);
            if let Some(r) = tally.result("apply_plan", report) {
                samples.reports.push(r);
            }
        }
    } else if let Some(o) = tally.result(
        "run_script",
        flow.run_script(case.script, &programs::bundled_sources),
    ) {
        samples.t_c_us.push(o.compile_us);
        samples.reports.push(o.report);
    }
    let r = tr.span("controller.table_ops", id, || {
        flow.run_script(&case.populate, &programs::bundled_sources)
    });
    tally.result("populate", r);
}

/// Rolls back to the base checkpoint and restores what the update
/// destroyed.
fn unload_case<D: Target>(
    b: &mut Bench<D>,
    case: &UseCase,
    cp: &Checkpoint,
    tr: &mut Tracer,
    id: u32,
    tally: &mut Tally,
) {
    let flow = &mut b.flow;
    let r = tr.span("controller.rollback", id, || flow.rollback(cp));
    tally.result("rollback", r);
    if !case.restore.is_empty() {
        let r = flow.run_script(case.restore, &programs::bundled_sources);
        tally.result("restore", r);
    }
}

/// One update window, one cycle: for each of C1–C3, load it in situ
/// under traffic, forward a mix of the workload's and the use
/// case's frames, roll back, forward the workload's own frames again.
#[allow(clippy::too_many_arguments)]
pub fn update_window<D: Target>(
    b: &mut Bench<D>,
    io: &mut Io,
    tr: &mut Tracer,
    cur: &mut Cursor,
    cases: &[UseCase; 3],
    cp: &Checkpoint,
    samples: &mut UpdateSamples,
    tally: &mut Tally,
) -> Acc {
    window(b, io, "update", 1, tally, |b, io, acc, tally| {
        for (c, case) in cases.iter().enumerate() {
            cur.id += 1;
            let id = cur.id;
            let t = Instant::now();
            let open = tr.enter("update", id);
            load_case(b, case, tr, id, samples, tally);
            let first = burst(&mut b.flow.device, io, b.case_frames[c].burst(0), tr, tally);
            tr.exit(open);
            let raw = t.elapsed().as_secs_f64();
            acc.update_ms.push(io.clock.scaled(raw) * 1e3);
            acc.add_burst(first);
            for k in 1..CASE_BURSTS {
                acc.add_burst(burst(
                    &mut b.flow.device,
                    io,
                    b.case_frames[c].burst(k),
                    tr,
                    tally,
                ));
            }

            let t = Instant::now();
            let open = tr.enter("rollback", id);
            unload_case(b, case, cp, tr, id, tally);
            let first = burst(&mut b.flow.device, io, b.frames.burst(cur.next), tr, tally);
            tr.exit(open);
            let raw = t.elapsed().as_secs_f64();
            acc.rollback_ms.push(io.clock.scaled(raw) * 1e3);
            acc.add_burst(first);
            for _ in 1..CASE_BURSTS {
                cur.next += 1;
                acc.add_burst(burst(
                    &mut b.flow.device,
                    io,
                    b.frames.burst(cur.next),
                    tr,
                    tally,
                ));
            }
            cur.next += 1;
        }
    })
}

/// One churn window, one round: one `Device::apply` of 64 entry
/// operations on `ipv4_lpm` (32 deletes of live routes, 32 adds of
/// new ones), then one burst. With the tracer on, every other batch goes
/// through a staged transaction (`begin_staged` … `commit_staged`) and its
/// time is kept apart in `staged_us`.
pub fn churn_window<D: Target>(
    b: &mut Bench<D>,
    io: &mut Io,
    tr: &mut Tracer,
    cur: &mut Cursor,
    staged_us: &mut Vec<f64>,
    tally: &mut Tally,
) -> Acc {
    window(b, io, "churn", 1, tally, |b, io, acc, tally| {
        cur.id += 1;
        let round = cur.id;
        let msgs = b.churn.next_batch();
        let staged = tr.on && round.is_multiple_of(2);
        let t = Instant::now();
        let r = if staged {
            tr.span("resilience.staged_apply", round, || {
                b.flow
                    .device
                    .dev
                    .begin_staged()
                    .and_then(|()| b.flow.device.apply(&msgs))
                    .and_then(|r| b.flow.device.dev.commit_staged().map(|()| r))
            })
        } else {
            tr.span("ccm.apply_batch", round, || b.flow.device.apply(&msgs))
        };
        let secs = io.clock.scaled(t.elapsed().as_secs_f64());
        if staged {
            staged_us.push(secs * 1e6);
        } else {
            acc.apply_s += secs;
            acc.ops += CHURN_OPS as u64;
        }
        tally.result("churn apply", r);
        acc.add_burst(burst(
            &mut b.flow.device,
            io,
            b.frames.burst(cur.next),
            tr,
            tally,
        ));
        cur.next += 1;
    })
}
