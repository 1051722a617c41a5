//! One workload, start to finish: reference outputs, set-up (three times or
//! more), warm-up, output checks, the measured phases, and the
//! metrics that come out of them.

use std::collections::BTreeMap;
use std::time::Instant;

use ipbm::{IpbmSwitch, ShardedSwitch};
use ipsa_controller::Checkpoint;
use serde_json::Value;

use crate::checks;
use crate::gen::BURST;
use crate::layers::{self, ShardSnap};
use crate::report::{self, obj, s, Metrics};
use crate::run::{
    burst, churn_window, forward_window, update_window, Acc, Cursor, Io, Tally, UpdateSamples,
    MIN_WINDOWS,
};
use crate::setup::{build, use_cases, Bench, Phase, Spec, Target, UseCase};
use crate::span::Tracer;
use crate::stats::{fastest_quarter, highest_supported_percentile, percentile, summarize, Summary};

/// Set-ups per run, at least; `setup_s` is over the fastest quarter.
const SETUP_REPS: usize = 3;
/// A design that sets up in milliseconds is set up again until this much
/// time is spent or [`SETUP_REPS_MAX`] is reached, to steady the median.
const SETUP_BUDGET_S: f64 = 1.0;
const SETUP_REPS_MAX: usize = 15;
/// Warm-up, s (discarded).
const WARMUP_S: f64 = 1.0;
/// Spans kept per phase in the trace file (the aggregates cover them all).
const TRACE_FILE_SPANS: usize = 4096;

/// What `run` was asked for.
#[derive(Debug, Clone, Copy)]
pub struct Options {
    /// Seed of routes, frames and churn.
    pub seed: u64,
    /// Seconds of measured work.
    pub seconds: f64,
    /// Traced run: per-layer metrics instead of end-to-end ones.
    pub trace: bool,
    /// A seconds-long sanity run; never a baseline.
    pub smoke: bool,
}

/// What a run produced.
pub struct Outcome {
    /// Every metric of the run.
    pub metrics: Metrics,
    /// Operations attempted and failed.
    pub tally: Tally,
    /// Mean factor from measured to reported time (see `clock.rs`).
    pub clock_scale: f64,
}

/// Runs one workload in this process.
pub fn run(spec: &Spec, opts: &Options) -> Outcome {
    if spec.shards > 0 {
        run_on::<ShardedSwitch>(spec, opts)
    } else {
        run_on::<IpbmSwitch>(spec, opts)
    }
}

/// The three phases run once, with or without spans.
struct Pass {
    windows: [Vec<Acc>; 3],
    tracers: [Tracer; 3],
    updates: UpdateSamples,
    staged_us: Vec<f64>,
    /// What the shard workers did during the forward windows.
    shard_work: ShardSnap,
}

impl Pass {
    fn phase(&self, p: Phase) -> (&[Acc], &Tracer) {
        let i = p as usize;
        (&self.windows[i], &self.tracers[i])
    }

    /// Adds the windows and samples of a second untraced pass.
    fn absorb(&mut self, other: Pass) {
        for (mine, theirs) in self.windows.iter_mut().zip(other.windows) {
            mine.extend(theirs);
        }
        self.updates.t_c_us.extend(other.updates.t_c_us);
    }

    /// Packet rate of a phase: over its fastest quarter of windows.
    fn pps(&self, p: Phase) -> Summary {
        rate(self.phase(p).0, Acc::pps, |a| (a.emitted as f64, a.burst_s))
    }
}

/// A rate over the fastest quarter of `windows`: Σ work / Σ time of what
/// they contain. The spread is over every window's own rate.
fn rate(windows: &[Acc], each: fn(&Acc) -> f64, parts: fn(&Acc) -> (f64, f64)) -> Summary {
    let kept = fastest_quarter(windows, |a| -each(a));
    let (work, time) = kept
        .iter()
        .map(|a| parts(a))
        .fold((0.0, 0.0), |(w, t), (dw, dt)| (w + dw, t + dt));
    Summary {
        value: if time > 0.0 { work / time } else { 0.0 },
        iqr: summarize(&windows.iter().map(each).collect::<Vec<_>>()).iqr,
        n: windows.len(),
    }
}

/// A latency percentile over the clean samples of a phase: each window
/// holds one sample per use case (C1, C2, C3 in turn); per use case the
/// fastest quarter of its samples is kept, and the percentile is taken
/// over the three kept sets pooled. The spread is over every sample.
fn latency(windows: &[Acc], samples: fn(&Acc) -> &Vec<f64>, q: f64) -> Summary {
    let all: Vec<f64> = windows
        .iter()
        .flat_map(|a| samples(a).iter().copied())
        .collect();
    let pool: Vec<f64> = (0..3)
        .flat_map(|case| {
            let of_case: Vec<f64> = all.iter().skip(case).step_by(3).copied().collect();
            fastest_quarter(&of_case, |v| *v)
                .into_iter()
                .copied()
                .collect::<Vec<_>>()
        })
        .collect();
    Summary {
        value: percentile(&pool, q),
        iqr: summarize(&all).iqr,
        n: all.len(),
    }
}

/// Runs the three phases for their shares of the time, one window at a
/// time, always the phase that is furthest behind its share: every
/// phase's windows are spread over the whole run, so a disturbed stretch
/// of the host costs each metric a few windows instead of one metric all
/// of them.
fn pass<D: Target>(
    b: &mut Bench<D>,
    io: &mut Io,
    trace: bool,
    secs: [f64; 3],
    cases: &[UseCase; 3],
    cp: &Checkpoint,
    tally: &mut Tally,
) -> Pass {
    let mut p = Pass {
        windows: Default::default(),
        tracers: [(); 3].map(|()| Tracer::new(trace)),
        updates: UpdateSamples::default(),
        staged_us: Vec::new(),
        shard_work: ShardSnap::default(),
    };
    let mut cursors = [Cursor::default(); 3];
    let mut used = [0.0f64; 3];
    loop {
        let behind = (0..3)
            .filter(|&i| secs[i] > 0.0 && (used[i] < secs[i] || p.windows[i].len() < MIN_WINDOWS))
            .min_by(|&x, &y| (used[x] / secs[x]).total_cmp(&(used[y] / secs[y])));
        let Some(i) = behind else { break };
        let (tr, cur) = (&mut p.tracers[i], &mut cursors[i]);
        let t = Instant::now();
        let acc = match i {
            0 => {
                let before = ShardSnap::take(&b.flow.device.dev);
                let acc = forward_window(b, io, tr, cur, tally);
                p.shard_work
                    .add_since(&before, &ShardSnap::take(&b.flow.device.dev));
                acc
            }
            1 => update_window(b, io, tr, cur, cases, cp, &mut p.updates, tally),
            _ => churn_window(b, io, tr, cur, &mut p.staged_us, tally),
        };
        used[i] += t.elapsed().as_secs_f64();
        p.windows[i].push(acc);
    }
    p
}

fn run_on<D: Target>(spec: &Spec, opts: &Options) -> Outcome {
    let mut tally = Tally::default();
    let mut m = Metrics::default();
    let cases = use_cases();
    let mut io = Io::default();
    let mut off = Tracer::new(false);

    // Burst 0 through the reference interpreter on a single-core twin.
    let reference = {
        let mut twin: Bench<IpbmSwitch> = build(&Spec { shards: 0, ..*spec }, opts.seed);
        checks::interpret(&mut twin.flow.device, &twin.frames, 0)
    };

    // Set-up: design compile, install, population, frame generation and
    // the first burst (which compiles the fast path).
    let mut setup_s = Vec::with_capacity(SETUP_REPS_MAX);
    let mut bench: Option<Bench<D>> = None;
    let setup_start = Instant::now();
    while setup_s.len() < SETUP_REPS
        || (setup_s.len() < SETUP_REPS_MAX && setup_start.elapsed().as_secs_f64() < SETUP_BUDGET_S)
    {
        drop(bench.take());
        io.clock.mark();
        let t = Instant::now();
        let mut b: Bench<D> = build(spec, opts.seed);
        burst(
            &mut b.flow.device,
            &mut io,
            b.frames.burst(0),
            &mut off,
            &mut tally,
        );
        setup_s.push(io.clock.scaled(t.elapsed().as_secs_f64()));
        bench = Some(b);
    }
    let mut b = bench.expect("at least one set-up");

    let warm = if opts.smoke { WARMUP_S / 4.0 } else { WARMUP_S };
    let (warm_start, mut cur) = (Instant::now(), Cursor::default());
    while warm_start.elapsed().as_secs_f64() < warm {
        forward_window(&mut b, &mut io, &mut off, &mut cur, &mut tally);
    }
    let cp = b.flow.checkpoint();
    checks::preflight(
        &mut b, &mut io, &reference, &cases, &cp, opts.trace, &mut tally,
    );

    let secs = spec.shares.map(|s| s * opts.seconds);
    if opts.trace {
        // Counts and replays first: they must not depend on how many
        // rounds the time-bounded phases get through.
        let lpm_per_pkt = layers::count_pass(&mut b, &mut io, &mut m, &mut tally);
        let replayed = layers::replays(&b, &mut io, &mut m);
        // The untraced reference runs half before and half after the
        // traced pass, so state that drifts with the work done (a churned
        // table compiles more slowly) is not read as tracing overhead.
        let eighth = secs.map(|s| s / 8.0);
        let mut reference_pass = pass(&mut b, &mut io, false, eighth, &cases, &cp, &mut tally);
        let traced = pass(
            &mut b,
            &mut io,
            true,
            secs.map(|s| s / 2.0),
            &cases,
            &cp,
            &mut tally,
        );
        reference_pass.absorb(pass(
            &mut b, &mut io, false, eighth, &cases, &cp, &mut tally,
        ));
        layer_metrics(
            spec,
            &b,
            &io,
            &reference_pass,
            &traced,
            lpm_per_pkt,
            replayed,
            &mut m,
        );
        layers::interpreter(&mut b, &mut io, &mut m, &mut tally);
        if spec.shards > 0 {
            layers::big_bursts(&mut b, &mut io, &mut m, opts.seconds / 16.0);
        }
        layers::parse_us(&mut m);
        layers::pisa_baseline(&mut m, &mut tally);
        layers::hwmodel(&mut m, &mut tally);
        print_breakdown(spec, &traced);
        if let Err(e) = write_trace(spec, &traced) {
            eprintln!("warning: trace file not written: {e}");
        }
    } else {
        let p = pass(&mut b, &mut io, false, secs, &cases, &cp, &mut tally);
        // Same rule as every other metric: the fastest quarter of the
        // set-ups, their mean; the spread is over all of them.
        let kept = fastest_quarter(&setup_s, |s| *s);
        m.set(
            "setup_s",
            Summary {
                value: kept.iter().copied().sum::<f64>() / kept.len() as f64,
                ..summarize(&setup_s)
            },
        );
        m.set("fwd_pps", p.pps(spec.pps_phase));
        let upd = p.phase(Phase::Update).0;
        m.set("update_ms_p50", latency(upd, |a| &a.update_ms, 0.5));
        let p90 = latency(upd, |a| &a.update_ms, 0.9);
        m.set("update_ms_p90", p90);
        if highest_supported_percentile(p90.n / 4).is_none() {
            println!(
                "  note: p90 over the kept quarter of {} update samples has fewer than ten beyond it",
                p90.n
            );
        }
        m.set("rollback_ms_p50", latency(upd, |a| &a.rollback_ms, 0.5));
        m.set(
            "table_ops_per_s",
            rate(p.phase(Phase::Churn).0, Acc::ops_per_s, |a| {
                (a.ops as f64, a.apply_s)
            }),
        );
        m.set_exact("peak_rss_mb", report::peak_rss_mb());
    }
    Outcome {
        metrics: m,
        tally,
        clock_scale: io.clock.mean_scale(),
    }
}

fn us(ns: &[f64]) -> Vec<f64> {
    ns.iter().map(|v| v / 1e3).collect()
}

/// The per-layer metrics that come from spans and from counters read at
/// the same boundaries.
#[allow(clippy::too_many_arguments)]
fn layer_metrics<D: Target>(
    spec: &Spec,
    b: &Bench<D>,
    io: &Io,
    reference: &Pass,
    traced: &Pass,
    lpm_per_pkt: f64,
    (parse_ns, tm_ns, lookup_ns): (f64, f64, f64),
    m: &mut Metrics,
) {
    // Boundary spans of the phase that defines fwd_pps, per packet.
    let (_, tr) = traced.phase(spec.pps_phase);
    let st = tr.self_times();
    let per_pkt = |name: &str| {
        st.get(name)
            .map_or(0.0, |s| s.total_ns as f64 / (s.count * BURST as u64) as f64)
    };
    m.set_exact("netpkt.build_ns_per_pkt", per_pkt("netpkt.build"));
    m.set_exact("cm.rx_ns_per_pkt", per_pkt("cm.rx"));
    m.set_exact("cm.tx_ns_per_pkt", per_pkt("cm.tx"));
    let run_burst = per_pkt("pm.run_burst");
    m.set_exact("pm.run_burst_ns_per_pkt", run_burst);
    if run_burst > 0.0 {
        m.set_exact(
            "pm.exec_residual_ns_per_pkt",
            run_burst - parse_ns - tm_ns - lookup_ns * lpm_per_pkt,
        );
    }
    let bursts_us = us(&tr.durations("pm.run_burst"));
    let spread = summarize(&bursts_us);
    for (name, q) in [("pm.burst_us_p50", 0.5), ("pm.burst_us_p99", 0.99)] {
        m.set(
            name,
            Summary {
                value: percentile(&bursts_us, q),
                ..spread
            },
        );
    }

    let compiles: Vec<f64> = traced
        .tracers
        .iter()
        .flat_map(|t| us(&t.durations("fast.compile")))
        .collect();
    m.set("fast.compile_us", summarize(&compiles));
    m.set_exact("fast.recompiles", compiles.len() as f64);

    let churn = &traced.tracers[Phase::Churn as usize];
    m.set(
        "ccm.apply_us_per_batch",
        summarize(&us(&churn.durations("ccm.apply_batch"))),
    );
    m.set("resilience.staged_apply_us", summarize(&traced.staged_us));

    let u = &traced.updates;
    m.set("rp4c.plan_us", summarize(&u.plan_us));
    m.set("controller.gates_us", summarize(&u.gates_us));
    m.set("ccm.apply_us", summarize(&u.apply_us));
    m.set("controller.t_c_us", summarize(&reference.updates.t_c_us));
    m.set(
        "controller.update_ms_p99",
        latency(reference.phase(Phase::Update).0, |a| &a.update_ms, 0.99),
    );
    // One cycle's structural loads, C1–C3: simulated cost and sizes.
    if let Some(cycle) = u.reports.get(..3) {
        let sum =
            |f: fn(&ipsa_core::control::ApplyReport) -> f64| -> f64 { cycle.iter().map(f).sum() };
        m.set_exact("t_l_sim_us", sum(|r| r.load_us));
        m.set_exact("ccm.stall_sim_us", sum(|r| r.stall_us));
        m.set_exact("ccm.msgs_per_update", sum(|r| r.msgs as f64) / 3.0);
        m.set_exact("ccm.bytes_per_update", sum(|r| r.bytes as f64) / 3.0);
        m.set_exact("ccm.entries_written", sum(|r| r.entries_written as f64));
    }

    let dev = &b.flow.device.dev;
    let r = dev.report();
    m.set_exact("netpkt.arena_fresh", io.arena.fresh as f64);
    m.set_exact(
        "cm.rx_clamped",
        r.ports.iter().map(|p| p.rx_clamped).sum::<u64>() as f64,
    );
    m.set_exact("pm.tm_tail_drops", r.tm.tail_drops as f64);
    m.set_exact("sm.load_routes_per_s", b.load_routes_per_s);

    let fwd = &traced.windows[Phase::Forward as usize];
    let pkts: u64 = fwd.iter().map(|a| a.injected).sum();
    if pkts > 0 {
        layers::sharded_metrics(
            dev,
            &traced.shard_work,
            pkts as f64,
            (pkts / BURST as u64) as f64,
            fwd.iter().map(|a| a.raw_burst_s).sum(),
            m,
        );
    }

    let traced_pps = traced.pps(spec.pps_phase).value;
    let reference_pps = reference.pps(spec.pps_phase).value;
    if traced_pps > 0.0 {
        m.set_exact(
            "trace_overhead_pct",
            (reference_pps / traced_pps - 1.0) * 100.0,
        );
    }
}

/// Prints, from the traced pass: each phase's share of time per layer,
/// and whether the boundary spans add up to the end-to-end numbers.
fn print_breakdown(spec: &Spec, traced: &Pass) {
    for (name, tr) in ["forward", "update", "churn"].iter().zip(&traced.tracers) {
        let st = tr.self_times();
        let wall: u64 = st.values().map(|s| s.self_ns).sum();
        if wall == 0 {
            continue;
        }
        println!("  share of traced time, {name} phase (self time per span name):");
        for (span, s) in &st {
            println!(
                "    {span:<28} {:>6.2} %  n={}",
                s.self_ns as f64 * 100.0 / wall as f64,
                s.count
            );
        }
    }

    let (windows, tr) = traced.phase(spec.pps_phase);
    let (count, total, children) = tr.breakdown("burst");
    if count > 0 {
        let pkts = (count * BURST as u64) as f64;
        let boundaries: u64 = children.values().sum();
        let emitted: u64 = windows.iter().map(|a| a.emitted).sum();
        let wall = windows.iter().map(|a| a.raw_burst_s).sum::<f64>() * 1e9 / emitted as f64;
        println!(
            "  check: boundary spans {:.1} ns/pkt vs 1e9/fwd_pps {:.1} ns/pkt (traced): {:+.1} %",
            boundaries as f64 / pkts,
            wall,
            (boundaries as f64 / pkts / wall - 1.0) * 100.0
        );
        println!(
            "         burst self time (read outputs, recycle) {:.1} ns/pkt",
            (total - boundaries) as f64 / pkts
        );
    }
    let (count, total, children) = traced.tracers[Phase::Update as usize].breakdown("update");
    if count > 0 {
        let parts: u64 = children.values().sum();
        println!(
            "  check: update components {:.1} us vs update span {:.1} us (traced mean): {:+.1} %",
            parts as f64 / count as f64 / 1e3,
            total as f64 / count as f64 / 1e3,
            (parts as f64 / total as f64 - 1.0) * 100.0
        );
        for (child, ns) in &children {
            println!(
                "         {child:<26} {:>9.1} us",
                *ns as f64 / count as f64 / 1e3
            );
        }
        println!(
            "         traced update p50 {:.4} ms (fastest quarter of windows)",
            latency(traced.phase(Phase::Update).0, |a| &a.update_ms, 0.5).value
        );
    }
}

/// Writes `out/trace-<workload>.json`: per phase, the self-time table
/// over every span and the first [`TRACE_FILE_SPANS`] spans themselves.
fn write_trace(spec: &Spec, traced: &Pass) -> std::io::Result<()> {
    let u = |n: u64| Value::U(u128::from(n));
    let phases = ["forward", "update", "churn"]
        .iter()
        .zip(&traced.tracers)
        .map(|(name, tr)| {
            let self_times: BTreeMap<_, _> = tr.self_times();
            let table = self_times
                .iter()
                .map(|(span, st)| {
                    (
                        s(span),
                        obj(vec![
                            ("self_ns", u(st.self_ns)),
                            ("total_ns", u(st.total_ns)),
                            ("count", u(st.count)),
                        ]),
                    )
                })
                .collect();
            let spans = tr
                .spans()
                .iter()
                .take(TRACE_FILE_SPANS)
                .map(|sp| {
                    obj(vec![
                        ("name", s(sp.name)),
                        ("start_ns", u(sp.start)),
                        ("end_ns", u(sp.end)),
                        (
                            "parent",
                            if sp.parent == crate::span::NO_PARENT {
                                Value::Null
                            } else {
                                u(u64::from(sp.parent))
                            },
                        ),
                        ("id", u(u64::from(sp.id))),
                    ])
                })
                .collect();
            (
                s(name),
                obj(vec![
                    ("spans_recorded", u(tr.spans().len() as u64)),
                    ("self_times", Value::Map(table)),
                    ("spans", Value::Seq(spans)),
                ]),
            )
        })
        .collect();
    let doc = obj(vec![
        ("workload", s(spec.name)),
        ("phases", Value::Map(phases)),
    ]);
    let dir = report::out_dir();
    std::fs::create_dir_all(&dir)?;
    let text = serde_json::to_string(&doc).expect("a value tree serializes");
    std::fs::write(dir.join(format!("trace-{}.json", spec.name)), text + "\n")
}
