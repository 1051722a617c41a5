//! Property-based integration tests: the compiled-and-installed base design
//! must agree with a direct Rust reference implementation of its forwarding
//! semantics over randomized route tables and traffic.

use proptest::prelude::*;
use rp4::demo;
use rp4::prelude::*;

/// Reference model of the base design's IPv4 path given the demo
/// population plus extra /24 routes: returns the expected egress port.
fn reference_forward(
    routes: &[(u32, u128)], // (/24 prefix base, nexthop)
    dst: u32,
    dst_mac: u128,
) -> Option<u16> {
    if dst_mac != demo::ROUTER_MAC {
        return None; // not routed; no L2 entries installed for these MACs
    }
    // Longest prefix: /24 specials win over the demo /16 (10.1/16 -> nh 7).
    let nh = routes
        .iter()
        .find(|(p, _)| dst & 0xFFFF_FF00 == *p)
        .map(|(_, nh)| *nh)
        .or(if dst & 0xFFFF_0000 == 0x0a01_0000 {
            Some(7)
        } else {
            None
        })?;
    match nh {
        7 => Some(2), // demo: nh 7 -> bd 2 -> NH_MAC_V4 -> port 2
        9 => Some(3), // demo: nh 9 -> bd 3 -> NH_MAC_V6 -> port 3
        _ => None,    // unknown nexthop: dmac misses, TM drops
    }
}

/// Ingress and processing interleave in 32-packet rounds, the way an
/// RX-ring driver services a NIC, on a fully populated switch: counts
/// reconcile, nothing is lost.
#[test]
fn interleaved_ingress_on_populated_base() {
    let mut sw = demo::populated_base_flow().unwrap().device;
    let mut gen = rp4::netpkt::traffic::TrafficGen::new(23)
        .with_v6_percent(25)
        .with_flows(32);
    let (mut offered, mut forwarded) = (0usize, 0usize);
    while offered < 5_000 {
        for _ in 0..32.min(5_000 - offered) {
            sw.inject(gen.next_mixed().0);
            offered += 1;
        }
        forwarded += sw.run().len();
    }
    assert_eq!(offered, 5_000);
    // Every generated flow is routable in the demo topology.
    assert_eq!(forwarded, 5_000);
    let dev = sw.report();
    assert_eq!(dev.pipeline.received, 5_000);
    assert_eq!(dev.pipeline.emitted, 5_000);
}

/// `PROPTEST_CASES` when set, else `default`: tier-1 runs stay short and CI
/// can run the same property deeper.
fn cases_or(default: u32) -> u32 {
    std::env::var("PROPTEST_CASES")
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(default)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(cases_or(12)))]

    /// Random /24 routes + random destinations: the switch agrees with the
    /// reference model packet-for-packet.
    #[test]
    fn switch_matches_reference_model(
        route_thirds in proptest::collection::vec((0u8..200, prop_oneof![Just(7u128), Just(9u128), Just(55u128)]), 0..8),
        probes in proptest::collection::vec((0u8..200, any::<u8>()), 1..24),
    ) {
        let mut flow = demo::populated_base_flow().unwrap();
        // Install the random routes (all inside 10.2.X.0/24 so they don't
        // collide with the demo 10.1/16 route).
        let mut routes = Vec::new();
        for (third, nh) in &route_thirds {
            let prefix = 0x0a02_0000u32 | ((*third as u32) << 8);
            if routes.iter().any(|(p, _)| *p == prefix) {
                continue;
            }
            routes.push((prefix, *nh));
            flow.run_script(
                &format!("table_add ipv4_lpm set_nexthop 1 {prefix:#x}/24 => {nh}"),
                &rp4::controller::programs::bundled_sources,
            )
            .unwrap();
        }

        // Probe with destinations inside and outside the routed space,
        // alternating router-MAC and foreign-MAC frames.
        use rp4::netpkt::builder::{ipv4_udp_packet, Ipv4UdpSpec};
        let mut expected = Vec::new();
        for (i, (third, last)) in probes.iter().enumerate() {
            let dst = 0x0a02_0000u32 | ((*third as u32) << 8) | *last as u32;
            let dst_mac = if i % 3 == 2 { 0x0202_9999_0000u128 } else { demo::ROUTER_MAC };
            expected.push(reference_forward(&routes, dst, dst_mac));
            flow.device.inject(ipv4_udp_packet(&Ipv4UdpSpec {
                dst_ip: dst,
                dst_mac: dst_mac as u64,
                src_port: 1000 + i as u16,
                ..Ipv4UdpSpec::default()
            }));
        }
        let forwarded = flow.device.run();
        // The switch emits only the packets the reference forwards, on the
        // same ports, in order.
        let want: Vec<u16> = expected.iter().flatten().copied().collect();
        // ipbm groups TX by port; compare as multisets.
        let mut got: Vec<u16> = forwarded.iter().filter_map(|p| p.meta.egress_port).collect();
        let mut want_sorted = want.clone();
        got.sort_unstable();
        want_sorted.sort_unstable();
        prop_assert_eq!(got, want_sorted);
    }

    /// In-situ updates never lose packets: inject, update mid-stream,
    /// inject more — everything routable comes out.
    #[test]
    fn updates_are_lossless(
        pre in 1usize..40,
        post in 1usize..40,
        which in 0usize..3,
    ) {
        let mut flow = demo::populated_base_flow().unwrap();
        let mut gen = TrafficGen::new(7).with_flows(16).with_v6_percent(25);
        for p in gen.batch(pre) {
            flow.device.inject(p);
        }
        let (_, _, script, _) = rp4::controller::programs::use_cases()[which];
        flow.run_script(script, &rp4::controller::programs::bundled_sources).unwrap();
        if which == 0 {
            // ECMP replaced the nexthop stage; install members so v4 still
            // routes.
            flow.run_script(
                &demo::ecmp_population_script(),
                &rp4::controller::programs::bundled_sources,
            )
            .unwrap();
        }
        for p in gen.batch(post) {
            flow.device.inject(p);
        }
        let out = flow.device.run();
        prop_assert_eq!(out.len(), pre + post, "which={}", which);
    }

    /// Failback soundness under arbitrary update sequences: between any two
    /// designs reached by the shipped scripts, applying `design_diff(from,
    /// to)` to `from` yields a design the equivalence checker accepts as
    /// identical to `to`, and the forward/backward diff pair is a proven
    /// round-trip identity.
    #[test]
    fn design_diff_round_trips(
        picks in proptest::collection::vec(0usize..3, 0..4),
    ) {
        // Each function loads at most once: keep first occurrences only.
        let mut order = Vec::new();
        for w in picks {
            if !order.contains(&w) {
                order.push(w);
            }
        }
        use rp4::controller::{parse_script, ScriptCmd};
        use rp4::rp4c::{self, UpdateCmd};

        let structural_cmds = |script: &str| -> Vec<UpdateCmd> {
            parse_script(script)
                .unwrap()
                .into_iter()
                .filter_map(|cmd| match cmd {
                    ScriptCmd::Load { file, func } => {
                        let src = rp4::controller::programs::bundled_sources(&file).unwrap();
                        let snippet = rp4::rp4_lang::parse(&src).unwrap();
                        Some(UpdateCmd::Load { snippet, func })
                    }
                    ScriptCmd::AddLink { from, to } => Some(UpdateCmd::AddLink { from, to }),
                    ScriptCmd::DelLink { from, to } => Some(UpdateCmd::DelLink { from, to }),
                    ScriptCmd::LinkHeader { pre, next, tag } => {
                        Some(UpdateCmd::LinkHeader { pre, next, tag })
                    }
                    ScriptCmd::UnlinkHeader { pre, next } => {
                        Some(UpdateCmd::UnlinkHeader { pre, next })
                    }
                    _ => None, // table operations are runtime-only
                })
                .collect()
        };

        let target = rp4c::CompilerTarget::ipbm();
        let base = rp4c::full_compile(
            &rp4::rp4_lang::parse(rp4::controller::programs::BASE_RP4).unwrap(),
            &target,
        )
        .unwrap();
        let mut designs = vec![base.design.clone()];
        let mut design = base.design;
        let mut program = base.program;
        for which in order {
            let (name, _, script, _) = rp4::controller::programs::use_cases()[which];
            let cmds = structural_cmds(script);
            let plan =
                rp4c::incremental_compile(&design, &program, &cmds, &target, rp4c::LayoutAlgo::Dp)
                    .unwrap_or_else(|e| panic!("{name}: {e}"));
            design = plan.design;
            program = plan.program;
            designs.push(design.clone());
        }

        for from in &designs {
            for to in &designs {
                let fwd = rp4::core::control::design_diff(from, to);
                let moved = rp4::rp4_equiv::apply::apply_msgs(from, &fwd)
                    .unwrap_or_else(|e| panic!("diff is refused: {e}"));
                let diags = rp4::rp4_equiv::apply::roundtrip_diags(to, &moved);
                prop_assert!(
                    diags.is_empty(),
                    "diff does not land on the target design: {:?}",
                    diags.iter().map(|d| d.header()).collect::<Vec<_>>()
                );
                let back = rp4::core::control::design_diff(to, from);
                let diags = rp4::rp4_equiv::check_roundtrip(from, &fwd, &back);
                prop_assert!(
                    diags.is_empty(),
                    "failback pair is not an identity: {:?}",
                    diags.iter().map(|d| d.header()).collect::<Vec<_>>()
                );
            }
        }
    }

    /// Fact-guided compilation is exact: with parse elision from the
    /// derived `ProgramFacts` driving the epoch compiler, the fast path's
    /// outputs AND statistics stay bit-identical to the interpreter —
    /// across every bundled program and across a mid-stream in-situ update,
    /// after which the device derives facts for the updated state.
    #[test]
    fn fact_guided_fast_path_matches_interpreter(
        seed in 0u64..500,
        v6 in 0u8..=40,
        flows in 1u16..64,
        n1 in 1usize..120,
        n2 in 1usize..120,
        which in proptest::option::of(0usize..3),
    ) {
        let sources = rp4::controller::programs::bundled_sources;
        let mut interp = demo::populated_base_flow().unwrap();
        let mut fast = demo::populated_base_flow().unwrap();

        let mut gen_i = TrafficGen::new(seed).with_flows(flows as u32).with_v6_percent(v6);
        let mut gen_f = TrafficGen::new(seed).with_flows(flows as u32).with_v6_percent(v6);
        let mut out_i = Vec::new();
        let mut out_f = Vec::new();
        for p in gen_i.batch(n1) { interp.device.inject(p); }
        for p in gen_f.batch(n1) { fast.device.inject(p); }
        out_i.extend(interp.device.run());
        out_f.extend(fast.device.run_batch());
        prop_assert!(fast.device.pm.has_compiled(), "fast path must compile, not fall back");

        if let Some(which) = which {
            // In-situ update through the controller: the structural batch
            // opens an epoch, and its compile derives the new facts.
            let (_, _, script, _) = rp4::controller::programs::use_cases()[which];
            interp.run_script(script, &sources).unwrap();
            fast.run_script(script, &sources).unwrap();
            if which == 0 {
                interp.run_script(&demo::ecmp_population_script(), &sources).unwrap();
                fast.run_script(&demo::ecmp_population_script(), &sources).unwrap();
            }
        }

        for p in gen_i.batch(n2) { interp.device.inject(p); }
        for p in gen_f.batch(n2) { fast.device.inject(p); }
        out_i.extend(interp.device.run());
        out_f.extend(fast.device.run_batch());

        prop_assert_eq!(&out_i, &out_f, "emitted packets must be byte-identical");
        prop_assert_eq!(interp.device.pm.stats, fast.device.pm.stats);
        prop_assert_eq!(interp.device.pm.tm.stats, fast.device.pm.tm.stats);
        let slots_i: Vec<_> = interp.device.pm.slots.iter().map(|s| s.stats).collect();
        let slots_f: Vec<_> = fast.device.pm.slots.iter().map(|s| s.stats).collect();
        prop_assert_eq!(slots_i, slots_f);
        prop_assert_eq!(interp.device.sm.mem_accesses, fast.device.sm.mem_accesses);
    }

    /// TTL handling: any forwarded v4 packet leaves with TTL decremented by
    /// exactly one and a valid checksum, regardless of input TTL ≥ 2.
    #[test]
    fn ttl_and_checksum_invariant(ttl in 2u8.., sport in any::<u16>()) {
        use rp4::netpkt::builder::{ipv4_udp_packet, Ipv4UdpSpec};
        let mut flow = demo::populated_base_flow().unwrap();
        flow.device.inject(ipv4_udp_packet(&Ipv4UdpSpec {
            dst_ip: 0x0a01_0042,
            ttl,
            src_port: sport,
            ..Ipv4UdpSpec::default()
        }));
        let out = flow.device.run();
        prop_assert_eq!(out.len(), 1);
        let p = &out[0];
        let linkage = &flow.device.linkage;
        prop_assert_eq!(p.get_field(linkage, "ipv4", "ttl").unwrap(), (ttl - 1) as u128);
        prop_assert!(rp4::netpkt::checksum::ipv4_checksum_ok(&p.data[14..34]));
        prop_assert_eq!(
            p.get_field(linkage, "ethernet", "src_addr").unwrap(),
            demo::SRC_MAC
        );
    }
}
