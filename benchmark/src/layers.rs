//! Per-layer numbers that are not spans of the live journey: exact counts
//! over a fixed pass, isolated replays of single layers over the
//! workload's own frames, and the paper's baselines (the PISA reload flow
//! and the analytical §5 throughput model).
//!
//! An isolated replay times one layer alone, outside the pipeline: it is
//! an upper bound on what that layer costs inside the journey, and the
//! report marks it as such.

use std::collections::BTreeSet;
use std::time::Instant;

use ipbm::pm::{TrafficManager, TM_QUEUE_CAPACITY};
use ipbm::{IpbmConfig, IpbmSwitch};
use ipsa_controller::{programs, KeyToken, P4Flow, Rp4Flow};
use ipsa_core::control::Device;
use ipsa_core::table::KeyMatch;
use ipsa_core::timing::CostModel;
use ipsa_hwmodel::{throughput, Arch, DesignParams, ThroughputOptions};
use ipsa_netpkt::packet::Packet;
use pisa_bm::{PisaSwitch, PisaTarget};
use rp4c::{full_compile, CompilerTarget};

use crate::alloc::count_allocs;
use crate::gen::{ipv4_dst, BURST};
use crate::report::Metrics;
use crate::run::{burst, Io, Tally};
use crate::setup::{Bench, Target};
use crate::span::Tracer;
use crate::stats::{summarize, Summary};

/// Bursts of the exact-count pass: one walk over the base frame set.
const COUNT_BURSTS: usize = 64;
/// Bursts each isolated replay walks.
const REPLAY_BURSTS: usize = 16;
/// Physical stages and memory bus of the paper's FPGA prototypes.
const FPGA_STAGES: usize = 8;
const FPGA_BUS_BITS: usize = 128;

fn ns_per(t: Instant, n: usize) -> f64 {
    t.elapsed().as_nanos() as f64 / n as f64
}

/// Exact per-packet counts over [`COUNT_BURSTS`] untraced bursts:
/// allocations (from the counting allocator), action primitives, slots
/// visited, memory accesses. Returns the `ipv4_lpm` lookups per packet.
pub fn count_pass<D: Target>(
    b: &mut Bench<D>,
    io: &mut Io,
    m: &mut Metrics,
    tally: &mut Tally,
) -> f64 {
    let lpm_lookups = |b: &Bench<D>| {
        b.flow
            .device
            .dev
            .master()
            .sm
            .table("ipv4_lpm")
            .map_or(0, |t| t.table.lookups)
    };
    let before = b.flow.device.dev.report();
    let lookups0 = lpm_lookups(b);
    let mut off = Tracer::new(false);
    let ((), allocs) = count_allocs(|| {
        for i in 0..COUNT_BURSTS {
            burst(&mut b.flow.device, io, b.frames.burst(i), &mut off, tally);
        }
    });
    let after = b.flow.device.dev.report();
    let pkts = (after.pipeline.received - before.pipeline.received) as f64;
    let slot_sum = |r: &ipbm::SwitchReport, f: fn(&ipbm::tsp::SlotStats) -> u64| -> u64 {
        r.slots.iter().map(|(_, _, s)| f(s)).sum()
    };
    let delta = |f: fn(&ipbm::tsp::SlotStats) -> u64| {
        (slot_sum(&after, f) - slot_sum(&before, f)) as f64 / pkts
    };
    m.set_exact("netpkt.allocs_per_pkt", allocs as f64 / pkts);
    m.set_exact("pm.primitives_per_pkt", delta(|s| s.primitives));
    m.set_exact("pm.slots_per_pkt", delta(|s| s.packets));
    m.set_exact(
        "sm.mem_accesses_per_pkt",
        (after.mem_accesses - before.mem_accesses) as f64 / pkts,
    );
    (lpm_lookups(b) - lookups0) as f64 / pkts
}

/// Isolated replays over the workload's frames, against the device's
/// current (base) state. Returns `(parse, tm, lpm lookup)` ns for the
/// residual arithmetic.
pub fn replays<D: Target>(b: &Bench<D>, io: &mut Io, m: &mut Metrics) -> (f64, f64, f64) {
    let master = b.flow.device.dev.master();
    let frames = &b.frames;

    // netpkt: full-chain parse of each frame, an upper bound on the
    // on-demand parsing the stages do.
    let mut pkts: Vec<Packet> = Vec::with_capacity(BURST);
    let parse: Vec<f64> = (0..REPLAY_BURSTS)
        .map(|i| {
            pkts.extend(frames.burst(i).map(|(f, p)| io.arena.build(f, p)));
            let t = Instant::now();
            for p in &mut pkts {
                let _ = std::hint::black_box(p.parse_all(&master.linkage));
            }
            let ns = ns_per(t, BURST);
            io.arena.recycle_all(&mut pkts);
            ns
        })
        .collect();
    m.set("netpkt.parse_ns_per_pkt", summarize(&parse));

    // pm: one enqueue and one dequeue per packet on a traffic manager of
    // the device's shape, as the run-to-completion pipeline does.
    let mut tm = TrafficManager::new(master.cm.port_count(), TM_QUEUE_CAPACITY)
        .expect("the device's own TM shape");
    let tm_ns: Vec<f64> = (0..REPLAY_BURSTS)
        .map(|i| {
            pkts.extend(frames.burst(i).enumerate().map(|(k, (f, p))| {
                let mut pkt = io.arena.build(f, p);
                pkt.meta.egress_port = Some((k % master.cm.port_count()) as u16);
                pkt
            }));
            let n = pkts.len();
            let t = Instant::now();
            for p in pkts.drain(..) {
                tm.enqueue(p);
                if let Some(p) = tm.dequeue() {
                    io.arena.recycle(p);
                }
            }
            ns_per(t, n)
        })
        .collect();
    m.set("pm.tm_ns_per_pkt", summarize(&tm_ns));

    // core.table: ipv4_lpm alone, on a clone, with the workload's keys
    // (vrf 1 + destination). `match_single` does not apply: two key fields.
    let mut lookup = Summary::exact(0.0);
    if let Some(store) = master.sm.table("ipv4_lpm") {
        let mut table = store.table.clone();
        let lengths: BTreeSet<usize> = table
            .iter()
            .filter_map(|(_, e)| match e.key.get(1) {
                Some(KeyMatch::Lpm { prefix_len, .. }) => Some(*prefix_len),
                _ => None,
            })
            .collect();
        m.set_exact("core.table.lpm_lengths", lengths.len() as f64);

        let mut probe = Vec::with_capacity(2);
        let per_burst: Vec<f64> = (0..REPLAY_BURSTS)
            .filter_map(|i| {
                let keys: Vec<[u128; 2]> = frames
                    .burst(i)
                    .filter_map(|(f, _)| ipv4_dst(f))
                    .map(|dst| [1, u128::from(dst)])
                    .collect();
                let t = Instant::now();
                for k in &keys {
                    table.begin_lookup();
                    std::hint::black_box(table.match_prepared(Some(k), &mut probe));
                }
                (!keys.is_empty()).then(|| ns_per(t, keys.len()))
            })
            .collect();
        lookup = summarize(&per_burst);
        m.set("core.table.lookup_ns", lookup);

        // Delete then re-insert slices of the live entries.
        let victims: Vec<_> = table.iter().take(1024).map(|(_, e)| e.clone()).collect();
        let (mut delete_ns, mut insert_ns) = (Vec::new(), Vec::new());
        for slice in victims.chunks(64) {
            let t = Instant::now();
            for e in slice {
                let _ = std::hint::black_box(table.delete(&e.key));
            }
            delete_ns.push(ns_per(t, slice.len()));
            let t = Instant::now();
            for e in slice.iter().cloned() {
                let _ = std::hint::black_box(table.insert(e));
            }
            insert_ns.push(ns_per(t, slice.len()));
        }
        m.set("core.table.delete_ns", summarize(&delete_ns));
        m.set("core.table.insert_ns", summarize(&insert_ns));
    }
    (
        summarize(&parse).value,
        summarize(&tm_ns).value,
        lookup.value,
    )
}

/// The reference interpreter (`Device::run`) over a few bursts of the same
/// frames: the baseline the compiled path is read against.
pub fn interpreter<D: Target>(b: &mut Bench<D>, io: &mut Io, m: &mut Metrics, tally: &mut Tally) {
    let per_burst: Vec<f64> = (0..REPLAY_BURSTS / 2)
        .map(|i| {
            let t = Instant::now();
            for (f, p) in b.frames.burst(i) {
                b.flow.device.inject(io.arena.build(f, p));
            }
            let mut out = b.flow.device.run();
            let ns = ns_per(t, BURST);
            tally.check(out.len() == BURST, || {
                format!("interpreter burst {i}: {} of {BURST} emitted", out.len())
            });
            io.arena.recycle_all(&mut out);
            ns
        })
        .collect();
    m.set("tsp.ns_per_pkt", summarize(&per_burst));
}

/// The same frames at bursts of 2,048 on the sharded runtime: with eight
/// times fewer barriers per packet, the gap to the 256-frame rate is the
/// per-burst barrier cost rather than per-packet dispatch.
pub fn big_bursts<D: Target>(b: &mut Bench<D>, io: &mut Io, m: &mut Metrics, secs: f64) {
    const FACTOR: usize = 8;
    let start = Instant::now();
    let mut rates = Vec::new();
    let mut next = 0usize;
    while start.elapsed().as_secs_f64() < secs {
        let t = Instant::now();
        for k in 0..FACTOR {
            for (f, p) in b.frames.burst(next + k) {
                b.flow.device.inject(io.arena.build(f, p));
            }
        }
        let mut out = b.flow.device.run_batch();
        let n = out.len();
        io.arena.recycle_all(&mut out);
        rates.push(n as f64 / t.elapsed().as_secs_f64());
        next += FACTOR;
    }
    m.set("sharded.pps_burst2048", summarize(&rates));
}

/// The sharded runtime's own counters: a snapshot, or the work added up
/// between snapshots.
#[derive(Debug, Clone, Default)]
pub struct ShardSnap {
    busy: Vec<u64>,
    barriers: u64,
}

impl ShardSnap {
    /// Adds what happened between two snapshots.
    pub fn add_since(&mut self, before: &ShardSnap, after: &ShardSnap) {
        self.busy.resize(after.busy.len(), 0);
        for (i, total) in self.busy.iter_mut().enumerate() {
            *total += after.busy[i] - before.busy.get(i).copied().unwrap_or(0);
        }
        self.barriers += after.barriers - before.barriers;
    }

    /// Reads the counters (empty on the single-core switch).
    pub fn take<D: Target>(dev: &D) -> Self {
        dev.sharded()
            .map_or_else(ShardSnap::default, |s| ShardSnap {
                busy: s.shard_busy_ns().to_vec(),
                barriers: s.barriers(),
            })
    }
}

/// `sharded.*` over forward windows of `pkts` packets in `bursts` bursts
/// taking `wall_s` seconds of burst windows, during which the workers did
/// `work`.
pub fn sharded_metrics<D: Target>(
    dev: &D,
    work: &ShardSnap,
    pkts: f64,
    bursts: f64,
    wall_s: f64,
    m: &mut Metrics,
) {
    let Some(s) = dev.sharded() else { return };
    let busy: Vec<f64> = work.busy.iter().map(|b| *b as f64).collect();
    let max = busy.iter().copied().fold(0.0, f64::max);
    let mean = busy.iter().sum::<f64>() / busy.len().max(1) as f64;
    m.set_exact("sharded.busy_ns_per_pkt", max / pkts);
    m.set_exact(
        "sharded.overhead_ns_per_pkt",
        wall_s * 1e9 / pkts - max / pkts,
    );
    m.set_exact(
        "sharded.imbalance",
        if mean > 0.0 { max / mean } else { 0.0 },
    );
    m.set_exact("sharded.barriers", work.barriers as f64 / bursts);
    m.set_exact(
        "sharded.busy_p99_ns",
        s.busy_histogram().quantile_ns(0.99) as f64,
    );
    m.set_exact(
        "sharded.lost_packets",
        s.supervisor_stats().lost_packets as f64,
    );
}

/// Snippet parse alone (`rp4_lang::parse`), per update.
pub fn parse_us(m: &mut Metrics) {
    let samples: Vec<f64> = (0..32)
        .flat_map(|_| programs::use_cases())
        .map(|(_, snippet, _, _)| {
            let t = Instant::now();
            let _ = std::hint::black_box(rp4_lang::parse(snippet));
            t.elapsed().as_secs_f64() * 1e6
        })
        .collect();
    m.set("rp4-lang.parse_us", summarize(&samples));
}

/// The conventional flow as baseline: the integrated P4 of each use case
/// through `P4Flow::update_source` (full recompile, whole-design swap,
/// replay of every entry) with the base population installed.
pub fn pisa_baseline(m: &mut Metrics, tally: &mut Tally) {
    let built = P4Flow::new(
        PisaSwitch::new(CostModel::software()),
        programs::BASE_P4,
        PisaTarget::bmv2(),
    );
    let Some((mut flow, _, _)) = tally.result("pisa-bm load", built) else {
        return;
    };
    populate_p4(&mut flow, tally);
    let (mut reload_ms, mut t_l, mut replayed) = (Vec::new(), 0.0, 0usize);
    for round in 0..3 {
        for (_, _, _, integrated) in programs::use_cases() {
            let t = Instant::now();
            let r = flow.update_source(integrated.to_string());
            reload_ms.push(t.elapsed().as_secs_f64() * 1e3);
            if let Some((_, report)) = tally.result("pisa-bm reload", r) {
                if round == 0 {
                    t_l += report.load_us;
                    replayed += report.entries_written;
                }
            }
        }
    }
    m.set("pisa-bm.reload_ms", summarize(&reload_ms));
    m.set_exact("pisa-bm.t_l_sim_us", t_l);
    m.set_exact("pisa-bm.entries_replayed", replayed as f64);
}

/// The standard 50-route population through the P4 flow's table API.
fn populate_p4(flow: &mut P4Flow<PisaSwitch>, tally: &mut Tally) {
    use KeyToken::{Exact as E, Lpm};
    let mut add = |table: &str, action: &str, keys: &[KeyToken], args: &[u128]| {
        let r = flow.table_add(table, action, keys, args, 0);
        tally.result("pisa-bm table_add", r);
    };
    for p in 0..8u128 {
        add("port_map", "set_ifindex", &[E(p)], &[10 + p]);
        add("bd_vrf", "set_bd_vrf", &[E(10 + p)], &[1, 1]);
    }
    add("fwd_mode", "set_l3", &[E(1), E(0x02_00_00_00_00_02)], &[]);
    for i in 0..50u128 {
        let prefix = Lpm {
            value: 0x0a01_0000 + (i << 8),
            prefix_len: 24,
        };
        add("ipv4_lpm", "set_nexthop", &[E(1), prefix], &[7]);
        add(
            "dmac",
            "set_port",
            &[E(2), E(0x0202_0000_0000 + i)],
            &[i % 8],
        );
    }
    let v6 = Lpm {
        value: 0xfc01_u128 << 112,
        prefix_len: 16,
    };
    add("ipv6_lpm", "set_nexthop", &[E(1), v6], &[9]);
    add("nexthop", "set_bd_dmac", &[E(7)], &[2, 0x0202_0203_0301]);
    add("nexthop", "set_bd_dmac", &[E(9)], &[3, 0x0202_0203_0302]);
    add("dmac", "set_port", &[E(2), E(0x0202_0203_0301)], &[2]);
    add("dmac", "set_port", &[E(3), E(0x0202_0203_0302)], &[3]);
    add("l2_l3_rewrite", "rewrite_l3", &[E(2)], &[0x020a_0a0a_0a0a]);
    add("l2_l3_rewrite", "rewrite_l3", &[E(3)], &[0x020a_0a0a_0a0a]);
}

/// The analytical §5 throughput (Mpps at 200 MHz on the 8-stage
/// prototypes) of the three post-update designs, mean over C1–C3, for
/// both architectures.
pub fn hwmodel(m: &mut Metrics, tally: &mut Tally) {
    let (mut ipsa, mut pisa) = (Vec::new(), Vec::new());
    for (_, _, script, integrated) in programs::use_cases() {
        let target = CompilerTarget::fpga();
        let device = IpbmSwitch::new(IpbmConfig {
            slots: target.slots,
            sram_blocks: target.sram_blocks,
            tcam_blocks: target.tcam_blocks,
            cost: CostModel::fpga(),
            ..IpbmConfig::default()
        });
        let base = rp4_lang::parse(programs::BASE_RP4).expect("base parses");
        let compilation = full_compile(&base, &target).expect("base compiles for the FPGA target");
        let loaded = Rp4Flow::install(device, compilation, target).and_then(|(mut flow, _)| {
            flow.run_script(script, &programs::bundled_sources)?;
            Ok(flow.design)
        });
        if let Some(design) = tally.result("hwmodel ipsa design", loaded) {
            let p = DesignParams::from_design(&design, FPGA_STAGES, FPGA_BUS_BITS);
            ipsa.push(throughput(Arch::Ipsa, &p, ThroughputOptions::default()).mpps);
        }
        let compiled = p4_lang::parse_p4(integrated)
            .map_err(|e| e.to_string())
            .and_then(|ast| p4_lang::build_hlir(&ast).map_err(|e| e.to_string()))
            .and_then(|hlir| {
                pisa_bm::pisa_compile(&hlir, &PisaTarget::fpga()).map_err(|e| e.to_string())
            });
        if let Some(design) = tally.result("hwmodel pisa design", compiled) {
            let p = DesignParams::from_design(&design, FPGA_STAGES, FPGA_BUS_BITS);
            pisa.push(throughput(Arch::Pisa, &p, ThroughputOptions::default()).mpps);
        }
    }
    let mean = |v: &[f64]| v.iter().sum::<f64>() / v.len().max(1) as f64;
    m.set_exact("hwmodel.ipsa_mpps_sim", mean(&ipsa));
    m.set_exact("hwmodel.pisa_mpps_sim", mean(&pisa));
}
