//! Builds the device under test for a workload: design compile, install,
//! table population, and the frames it will be offered.

use std::collections::HashSet;
use std::time::Instant;

use ipbm::{IpbmConfig, IpbmSwitch, ShardedSwitch, SwitchReport};
use ipsa_controller::{programs, Rp4Flow};
use ipsa_core::control::{ApplyReport, ControlMsg, Device};
use ipsa_core::error::CoreError;
use ipsa_core::facts::ProgramFacts;
use ipsa_core::table::{ActionCall, KeyMatch, TableEntry};
use ipsa_netpkt::packet::Packet;
use rand::rngs::StdRng;
use rand::SeedableRng;
use rp4c::{full_compile, CompilerTarget};

use crate::gen::{self, Frames, Route, BASE_LENGTHS, BURST, FIB_LENGTHS};

/// Routes of the FIB design, besides its default route.
pub const FIB_ROUTES: usize = 65_528;
/// `ipv4_lpm` capacity of the FIB design.
const FIB_TABLE_SIZE: usize = 65_536;
/// SRAM blocks that hold a 65,536-entry `ipv4_lpm` beside the base tables.
const FIB_SRAM_BLOCKS: usize = 1024;
/// Routes per `Device::apply` batch while loading the FIB.
const LOAD_BATCH: usize = 1024;
/// Entry operations per churn batch: half deletes, half adds.
pub const CHURN_OPS: usize = 64;
/// Post-update bursts per use case (the first closes the update window).
pub const CASE_BURSTS: usize = 4;

/// Which design a workload runs.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Design {
    /// `programs/base.rp4` with the standard 50-route population.
    Base,
    /// The same design with `ipv4_lpm` resized to 65,536 and a
    /// BGP-shaped FIB loaded.
    Fib,
}

/// The three phases a run is made of.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Phase {
    /// Bursts only.
    Forward,
    /// In-situ update / rollback cycles over C1–C3, under traffic.
    Update,
    /// Table-entry churn beside traffic.
    Churn,
}

/// One named workload.
#[derive(Debug, Clone, Copy)]
pub struct Spec {
    /// Name, as in `BENCHMARK.json`.
    pub name: &'static str,
    /// Design the device runs.
    pub design: Design,
    /// Shard workers; 0 runs the single-core `IpbmSwitch`.
    pub shards: usize,
    /// Shares of the measured seconds given to the forward, update and
    /// churn phases. The workload's own phase gets the most; the others
    /// are probes that keep every end-to-end metric defined on every
    /// workload.
    pub shares: [f64; 3],
    /// The phase whose burst windows define `fwd_pps`.
    pub pps_phase: Phase,
}

/// The five workloads. Their "why" lines live in `BENCHMARK.json` and the
/// README.
pub const WORKLOADS: [Spec; 5] = [
    Spec {
        name: "fwd_base",
        design: Design::Base,
        shards: 0,
        shares: [0.6, 0.2, 0.2],
        pps_phase: Phase::Forward,
    },
    Spec {
        name: "fwd_fib",
        design: Design::Fib,
        shards: 0,
        shares: [0.5, 0.3, 0.2],
        pps_phase: Phase::Forward,
    },
    Spec {
        name: "fwd_sharded",
        design: Design::Base,
        shards: 2,
        shares: [0.6, 0.2, 0.2],
        pps_phase: Phase::Forward,
    },
    Spec {
        name: "insitu_update",
        design: Design::Base,
        shards: 0,
        shares: [0.0, 0.8, 0.2],
        pps_phase: Phase::Update,
    },
    Spec {
        name: "table_churn",
        design: Design::Fib,
        shards: 0,
        shares: [0.0, 0.3, 0.7],
        pps_phase: Phase::Churn,
    },
];

/// What the benchmark needs from a device beyond [`Device`]: both the
/// single-core switch and the sharded runtime provide it.
pub trait Target: Device + Sized {
    /// Builds a blank device with `shards` workers (ignored single-core).
    fn build(cfg: IpbmConfig, shards: usize) -> Self;
    /// Observability snapshot.
    fn report(&self) -> SwitchReport;
    /// The switch that holds the control-plane state and the folded stats.
    fn master(&self) -> &IpbmSwitch;
    /// The switch itself when the journey can be driven through its public
    /// parts (`cm`, `pm`, `sm`, `linkage`); `None` on the sharded runtime,
    /// whose workers own the data path.
    fn single(&mut self) -> Option<&mut IpbmSwitch>;
    /// The sharded runtime's own counters, when this is one.
    fn sharded(&self) -> Option<&ShardedSwitch>;
    /// Opens a staged control-plane transaction.
    fn begin_staged(&mut self) -> Result<(), CoreError>;
    /// Commits the open staged transaction.
    fn commit_staged(&mut self) -> Result<(), CoreError>;
}

impl Target for IpbmSwitch {
    fn build(cfg: IpbmConfig, _shards: usize) -> Self {
        IpbmSwitch::new(cfg)
    }
    fn report(&self) -> SwitchReport {
        IpbmSwitch::report(self)
    }
    fn master(&self) -> &IpbmSwitch {
        self
    }
    fn single(&mut self) -> Option<&mut IpbmSwitch> {
        Some(self)
    }
    fn sharded(&self) -> Option<&ShardedSwitch> {
        None
    }
    fn begin_staged(&mut self) -> Result<(), CoreError> {
        IpbmSwitch::begin_staged(self)
    }
    fn commit_staged(&mut self) -> Result<(), CoreError> {
        IpbmSwitch::commit_staged(self)
    }
}

impl Target for ShardedSwitch {
    fn build(cfg: IpbmConfig, shards: usize) -> Self {
        ShardedSwitch::new(cfg, shards)
    }
    fn report(&self) -> SwitchReport {
        ShardedSwitch::report(self)
    }
    fn master(&self) -> &IpbmSwitch {
        &self.master
    }
    fn single(&mut self) -> Option<&mut IpbmSwitch> {
        None
    }
    fn sharded(&self) -> Option<&ShardedSwitch> {
        Some(self)
    }
    fn begin_staged(&mut self) -> Result<(), CoreError> {
        ShardedSwitch::begin_staged(self)
    }
    fn commit_staged(&mut self) -> Result<(), CoreError> {
        ShardedSwitch::commit_staged(self)
    }
}

/// The device as the controller sees it, with the time spent inside
/// [`Device::apply`] added up. This is the boundary between the controller
/// and the device's control channel: `Rp4Flow::apply_plan` minus this is
/// what the controller's gates cost. The packet path is delegated
/// untouched.
#[derive(Debug)]
pub struct Probe<D> {
    /// The device.
    pub dev: D,
    /// Σ wall time inside `apply`, ns.
    pub apply_ns: u64,
    /// Window of the most recent `apply`.
    pub last_apply: Option<(Instant, Instant)>,
}

impl<D: Device> Device for Probe<D> {
    fn name(&self) -> &str {
        self.dev.name()
    }
    fn apply(&mut self, msgs: &[ControlMsg]) -> Result<ApplyReport, CoreError> {
        let start = Instant::now();
        let r = self.dev.apply(msgs);
        let end = Instant::now();
        self.apply_ns += (end - start).as_nanos() as u64;
        self.last_apply = Some((start, end));
        r
    }
    #[inline]
    fn inject(&mut self, packet: Packet) {
        self.dev.inject(packet);
    }
    fn run(&mut self) -> Vec<Packet> {
        self.dev.run()
    }
    #[inline]
    fn run_batch(&mut self) -> Vec<Packet> {
        self.dev.run_batch()
    }
    fn pending(&self) -> usize {
        self.dev.pending()
    }
    fn install_facts(&mut self, facts: Option<ProgramFacts>) {
        self.dev.install_facts(facts);
    }
}

/// The controller flow every workload drives.
pub type Flow<D> = Rp4Flow<Probe<D>>;

/// One of the paper's three runtime use cases, as the update cycle runs
/// it.
#[derive(Debug, Clone)]
pub struct UseCase {
    /// `C1`…`C3`.
    pub name: &'static str,
    /// The structural load script (in-situ update proper).
    pub script: &'static str,
    /// Entries that make the loaded function do something.
    pub populate: String,
    /// Entries a rollback has to put back because the update destroyed
    /// their table (C1 offloads the `nexthop` stage; its diff recreates
    /// the table empty).
    pub restore: &'static str,
}

/// Next-hop entries of the base population (also C1's rollback restore).
const NEXTHOP_ENTRIES: &str = "table_add nexthop set_bd_dmac 7 => 2 0x020202030301\n\
                               table_add nexthop set_bd_dmac 9 => 3 0x020202030302\n";

/// C1 ECMP, C2 SRv6, C3 flow probe.
pub fn use_cases() -> [UseCase; 3] {
    [
        UseCase {
            name: "C1",
            script: programs::ECMP_SCRIPT,
            populate: include_str!("../../programs/ecmp_members.script").to_string(),
            restore: NEXTHOP_ENTRIES,
        },
        UseCase {
            name: "C2",
            script: programs::SRV6_SCRIPT,
            populate: format!("table_add local_sid srv6_end {:#x} =>\n", gen::SRV6_SID),
            restore: "",
        },
        UseCase {
            name: "C3",
            script: programs::FLOWPROBE_SCRIPT,
            // Flow 0 of the probe traffic: 10.0.0.0 -> 10.1.0.0, marked
            // from its 11th packet on.
            populate: "table_add flow_probe probe_count 0x0a000000 0x0a010000 => 10\n".to_string(),
            restore: "",
        },
    ]
}

/// The standard population of the base design, as the repository's own
/// benches install it: ports, bridge/VRF, router MAC, `routes` /24 routes
/// with a dmac pair each, one IPv6 route, next hops and egress rewrites.
pub fn population_script(routes: usize) -> String {
    let mut s = String::new();
    for p in 0..8 {
        s.push_str(&format!(
            "table_add port_map set_ifindex {p} => {}\n",
            10 + p
        ));
        s.push_str(&format!("table_add bd_vrf set_bd_vrf {} => 1 1\n", 10 + p));
    }
    s.push_str("table_add fwd_mode set_l3 1 0x020000000002 =>\n");
    for (i, (prefix, _)) in standard_routes(routes).into_iter().enumerate() {
        s.push_str(&format!(
            "table_add ipv4_lpm set_nexthop 1 {prefix:#x}/24 => 7\n"
        ));
        s.push_str(&format!(
            "table_add dmac set_port 2 {:#x} => {}\n",
            0x0202_0000_0000u64 + i as u64,
            i % 8
        ));
    }
    s.push_str("table_add ipv6_lpm set_nexthop 1 0xfc010000000000000000000000000000/16 => 9\n");
    s.push_str(NEXTHOP_ENTRIES);
    s.push_str("table_add dmac set_port 2 0x020202030301 => 2\n");
    s.push_str("table_add dmac set_port 3 0x020202030302 => 3\n");
    s.push_str("table_add l2_l3_rewrite rewrite_l3 2 => 0x020a0a0a0a0a\n");
    s.push_str("table_add l2_l3_rewrite rewrite_l3 3 => 0x020a0a0a0a0a\n");
    s
}

/// 10.1.i.0/24 for `i < n`: the standard population's IPv4 routes.
fn standard_routes(n: usize) -> Vec<Route> {
    (0..n as u32)
        .map(|i| (0x0a01_0000 + (i << 8), 24))
        .collect()
}

/// `AddEntry` of one IPv4 route in VRF 1 towards next hop 7.
pub fn add_route((prefix, len): Route) -> ControlMsg {
    ControlMsg::AddEntry {
        table: "ipv4_lpm".into(),
        entry: TableEntry {
            key: route_key((prefix, len)),
            priority: 0,
            action: ActionCall::new("set_nexthop", vec![7]),
            counter: 0,
        },
    }
}

/// `DelEntry` of one IPv4 route.
pub fn del_route(route: Route) -> ControlMsg {
    ControlMsg::DelEntry {
        table: "ipv4_lpm".into(),
        key: route_key(route),
    }
}

fn route_key((prefix, len): Route) -> Vec<KeyMatch> {
    vec![
        KeyMatch::Exact(1),
        KeyMatch::Lpm {
            value: u128::from(prefix),
            prefix_len: usize::from(len),
        },
    ]
}

/// Generates churn batches: each deletes 32 live routes and adds 32 new
/// ones, so the live count stays constant. Routes the traffic needs and no
/// default route covers (`pinned`, at the front) are never deleted.
#[derive(Debug)]
pub struct Churn {
    live: Vec<Route>,
    known: HashSet<Route>,
    pinned: usize,
    lengths: &'static [u8],
    rng: StdRng,
}

impl Churn {
    fn new(seed: u64, live: Vec<Route>, pinned: usize, lengths: &'static [u8]) -> Self {
        Churn {
            known: live.iter().copied().collect(),
            live,
            pinned,
            lengths,
            rng: StdRng::seed_from_u64(seed ^ 0x0063_6875_726e),
        }
    }

    /// The next batch of [`CHURN_OPS`] entry operations.
    pub fn next_batch(&mut self) -> Vec<ControlMsg> {
        use rand::RngExt;
        let mut msgs = Vec::with_capacity(CHURN_OPS);
        for _ in 0..CHURN_OPS / 2 {
            let i = self.rng.random_range(self.pinned..self.live.len());
            let victim = self.live.swap_remove(i);
            self.known.remove(&victim);
            msgs.push(del_route(victim));
        }
        while msgs.len() < CHURN_OPS {
            let r = gen::random_route(&mut self.rng, self.lengths);
            if self.known.insert(r) {
                self.live.push(r);
                msgs.push(add_route(r));
            }
        }
        msgs
    }

    /// Live routes (constant across batches).
    #[cfg(test)]
    pub fn live(&self) -> usize {
        self.live.len()
    }
}

/// A device set up for a workload, and what it will be offered.
pub struct Bench<D: Target> {
    /// Controller flow owning the device.
    pub flow: Flow<D>,
    /// The workload's own traffic.
    pub frames: Frames,
    /// Post-update traffic per use case.
    pub case_frames: [Frames; 3],
    /// Churn generator over the installed routes.
    pub churn: Churn,
    /// Table entries installed per second while populating.
    pub load_routes_per_s: f64,
}

/// Compiles, installs and populates a workload's design on a fresh device
/// and generates its frames. Everything in here is `setup_s`.
pub fn build<D: Target>(spec: &Spec, seed: u64) -> Bench<D> {
    let fib = spec.design == Design::Fib;
    let source = if fib {
        let resized = programs::BASE_RP4.replacen(
            "actions = { set_nexthop; }\n    size = 2048;",
            &format!("actions = {{ set_nexthop; }}\n    size = {FIB_TABLE_SIZE};"),
            1,
        );
        assert_ne!(resized, programs::BASE_RP4, "ipv4_lpm size line not found");
        resized
    } else {
        programs::BASE_RP4.to_string()
    };
    let mut target = CompilerTarget::ipbm();
    let mut cfg = IpbmConfig::default();
    if fib {
        target.sram_blocks = FIB_SRAM_BLOCKS;
        cfg.sram_blocks = FIB_SRAM_BLOCKS;
    }
    let program = rp4_lang::parse(&source).expect("design parses");
    let compilation = full_compile(&program, &target).expect("design compiles");
    let device = Probe {
        dev: D::build(cfg, spec.shards),
        apply_ns: 0,
        last_apply: None,
    };
    let (mut flow, _) = Rp4Flow::install(device, compilation, target).expect("design installs");

    let t_load = Instant::now();
    let (routes, pinned, lengths) = if fib {
        flow.run_script(&population_script(0), &programs::bundled_sources)
            .expect("base population");
        let routes = gen::routes(seed, FIB_ROUTES, FIB_LENGTHS);
        for batch in routes.chunks(LOAD_BATCH) {
            let msgs: Vec<ControlMsg> = batch.iter().copied().map(add_route).collect();
            flow.device.apply(&msgs).expect("FIB batch loads");
        }
        // The default route keeps every frame forwardable while churn
        // deletes the routes it was generated for.
        flow.device
            .apply(&[add_route((0, 0))])
            .expect("default route");
        (routes, 0, FIB_LENGTHS)
    } else {
        flow.run_script(&population_script(50), &programs::bundled_sources)
            .expect("base population");
        // All 64 flows fall in the first standard route; it is pinned.
        (standard_routes(50), 1, BASE_LENGTHS)
    };
    let load_s = t_load.elapsed().as_secs_f64();
    let master = flow.device.dev.master();
    let entries: usize = master
        .sm
        .table_names()
        .iter()
        .filter_map(|n| master.sm.table(n))
        .map(|t| t.table.len())
        .sum();

    let frames = if fib {
        gen::fib_frames(seed, 256, &routes)
    } else {
        gen::base_frames(seed, 64)
    };
    let case_frames = [0, 1, 2].map(|c| gen::case_frames(seed, c, CASE_BURSTS, &frames));
    debug_assert!(case_frames.iter().all(|f| f.len() == CASE_BURSTS * BURST));
    Bench {
        flow,
        frames,
        case_frames,
        churn: Churn::new(seed, routes, pinned, lengths),
        load_routes_per_s: entries as f64 / load_s,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn churn_batches_keep_the_live_count_and_spare_pinned_routes() {
        let routes = standard_routes(50);
        let pinned = routes[0];
        let mut churn = Churn::new(1, routes, 1, BASE_LENGTHS);
        for _ in 0..20 {
            let msgs = churn.next_batch();
            assert_eq!(msgs.len(), CHURN_OPS);
            let dels = msgs
                .iter()
                .filter(|m| matches!(m, ControlMsg::DelEntry { .. }))
                .count();
            assert_eq!(dels, CHURN_OPS / 2);
            assert!(!msgs.contains(&del_route(pinned)));
            assert_eq!(churn.live(), 50);
        }
        let mut again = Churn::new(1, standard_routes(50), 1, BASE_LENGTHS);
        let mut other = Churn::new(2, standard_routes(50), 1, BASE_LENGTHS);
        let first = Churn::new(1, standard_routes(50), 1, BASE_LENGTHS).next_batch();
        assert_eq!(again.next_batch(), first, "pure function of the seed");
        assert_ne!(other.next_batch(), first);
    }

    #[test]
    fn base_workload_builds_and_forwards_a_burst() {
        let bench: Bench<IpbmSwitch> = build(&WORKLOADS[0], 17);
        let mut flow = bench.flow;
        for (data, port) in bench.frames.burst(0) {
            flow.device.inject(Packet::new(data.to_vec(), port));
        }
        assert_eq!(flow.device.run_batch().len(), BURST);
        assert!(flow.device.apply_ns > 0, "the probe timed the population");
        assert!(bench.load_routes_per_s > 0.0);
    }
}
