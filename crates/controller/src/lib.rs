//! # ipsa-controller — the runtime controller
//!
//! "The controller is used for runtime configuration and in-situ
//! programming … allowing users to load or offload on-demand protocols and
//! functions at runtime." (Sec. 4.1)
//!
//! - [`script`]: the Fig. 5(b)/(c) command language plus table operations;
//! - [`table_api`]: typed entry construction validated against rp4bc's
//!   generated APIs;
//! - [`driver`]: the two design flows of Fig. 3 — [`driver::Rp4Flow`]
//!   (incremental, in-situ) and [`driver::P4Flow`] (full recompile + swap +
//!   repopulate);
//! - [`programs`]: the bundled base design, use-case snippets, and scripts.

#![warn(missing_docs)]

pub mod driver;
pub mod programs;
pub mod script;
pub mod table_api;

pub use driver::{lower_script, Checkpoint, ControllerError, P4Flow, Rp4Flow, ScriptOutcome};
pub use script::{parse_script, KeyToken, ScriptCmd};

#[cfg(test)]
mod flow_tests {
    use super::*;
    use ipbm::{IpbmConfig, IpbmSwitch};
    use ipsa_core::timing::CostModel;
    use pisa_bm::{PisaSwitch, PisaTarget};
    use rp4c::{full_compile, CompilerTarget};

    fn rp4_flow() -> Result<Rp4Flow<IpbmSwitch>, ControllerError> {
        let prog = rp4_lang::parse(programs::BASE_RP4)?;
        let target = CompilerTarget::ipbm();
        let compilation = full_compile(&prog, &target)?;
        let device = IpbmSwitch::new(IpbmConfig::default());
        let (flow, report) = Rp4Flow::install(device, compilation, target)?;
        assert!(report.msgs > 10);
        Ok(flow)
    }

    #[test]
    fn base_design_compiles_with_expected_merges() -> Result<(), ControllerError> {
        let flow = rp4_flow()?;
        // The v4/v6 FIB pairs merged; Fig. 4's ~7-TSP mapping (we land on
        // 8: 7 ingress + 1 egress).
        let names: Vec<&str> = flow
            .design
            .programmed()
            .map(|(_, t)| t.stage_name.as_str())
            .collect();
        assert!(names.contains(&"ipv4_lpm+ipv6_lpm"), "{names:?}");
        assert!(names.contains(&"ipv4_host+ipv6_host"), "{names:?}");
        assert_eq!(names.len(), 8, "{names:?}");
        Ok(())
    }

    #[test]
    fn ecmp_script_runs_in_situ() -> Result<(), ControllerError> {
        let mut flow = rp4_flow()?;
        let before: Vec<String> = flow
            .design
            .programmed()
            .map(|(_, t)| t.stage_name.clone())
            .collect();
        let outcome = flow.run_script(programs::ECMP_SCRIPT, &programs::bundled_sources)?;
        assert!(outcome.compile_us > 0.0);
        assert!(outcome.report.load_us > 0.0);
        let stats = outcome.update_stats.as_ref().ok_or_else(|| {
            ControllerError::MissingSource("expected update stats from a structural script".into())
        })?;
        // Incremental: only a couple of template writes, not a redeploy.
        assert!(stats.template_writes <= 3, "{stats:?}");
        assert!(stats.new_tables.contains(&"ecmp_ipv4".to_string()));
        assert!(stats.removed_tables.contains(&"nexthop".to_string()));
        let after: Vec<String> = flow
            .design
            .programmed()
            .map(|(_, t)| t.stage_name.clone())
            .collect();
        assert!(after.iter().any(|n| n == "ecmp"), "{after:?}");
        assert!(!after.iter().any(|n| n == "nexthop"), "{after:?}");
        assert_ne!(before, after);
        // Table ops now validate against the regenerated APIs.
        flow.run_script(
            "table_add ecmp_ipv4 set_bd_dmac 0 0 0 0 => 2 0x020202030301",
            &programs::bundled_sources,
        )?;
        Ok(())
    }

    #[test]
    fn srv6_script_links_headers() -> Result<(), ControllerError> {
        let mut flow = rp4_flow()?;
        flow.run_script(programs::SRV6_SCRIPT, &programs::bundled_sources)?;
        let edges = flow.design.linkage.edges();
        assert!(edges.contains(&("ipv6".to_string(), 43, "srh".to_string())));
        assert!(edges.contains(&("srh".to_string(), 41, "ipv6".to_string())));
        // Reserved plain-L3 linkage still present.
        assert!(edges.contains(&("ipv6".to_string(), 17, "udp".to_string())));
        // Device-side linkage matches the controller's view.
        assert!(flow
            .device
            .linkage
            .edges()
            .contains(&("ipv6".to_string(), 43, "srh".to_string())));
        Ok(())
    }

    #[test]
    fn probe_script_then_unload_roundtrip() -> Result<(), ControllerError> {
        let mut flow = rp4_flow()?;
        flow.run_script(programs::FLOWPROBE_SCRIPT, &programs::bundled_sources)?;
        assert!(flow.design.tables.contains_key("flow_probe"));
        let n_with_probe = flow.design.programmed().count();
        let out = flow.run_script("unload --func_name probe", &programs::bundled_sources)?;
        let stats = out.update_stats.as_ref().ok_or_else(|| {
            ControllerError::MissingSource("expected update stats from unload".into())
        })?;
        assert!(stats.removed_tables.contains(&"flow_probe".to_string()));
        assert_eq!(flow.design.programmed().count(), n_with_probe - 1);
        // The bridged graph keeps the base pipeline functional.
        flow.design.validate()?;
        Ok(())
    }

    #[test]
    fn rp4_flow_drives_sharded_runtime() -> Result<(), ControllerError> {
        use ipsa_core::control::Device;
        // The whole controller flow — install, in-situ update scripts,
        // table population — runs unchanged against the multi-core sharded
        // runtime, which takes each plan through its epoch barrier.
        let prog = rp4_lang::parse(programs::BASE_RP4)?;
        let target = CompilerTarget::ipbm();
        let compilation = full_compile(&prog, &target)?;
        let device = ipbm::ShardedSwitch::new(IpbmConfig::default(), 4);
        let (mut flow, report) = Rp4Flow::install(device, compilation, target)?;
        assert!(report.msgs > 10);
        let outcome = flow.run_script(programs::FLOWPROBE_SCRIPT, &programs::bundled_sources)?;
        assert!(outcome.report.load_us > 0.0);
        assert!(flow.design.tables.contains_key("flow_probe"));
        // Traffic still flows after the mid-stream in-situ update, on the
        // compiled per-shard paths.
        flow.run_script(
            "table_add port_map set_ifindex 0 => 10\n\
             table_add bd_vrf set_bd_vrf 10 => 1 1",
            &programs::bundled_sources,
        )?;
        for p in ipsa_netpkt::traffic::TrafficGen::new(3)
            .with_v6_percent(0)
            .with_flows(16)
            .batch(64)
        {
            flow.device.inject(p);
        }
        let out = flow.device.run_batch();
        assert!(flow.device.on_compiled_path());
        let rep = flow.device.report();
        assert_eq!(rep.pipeline.received, 64);
        assert_eq!(rep.pipeline.emitted as usize, out.len());
        Ok(())
    }

    #[test]
    fn tampered_plan_rejected_unless_forced() -> Result<(), ControllerError> {
        use ipsa_core::control::ControlMsg;
        // Strip the Drain…Resume window so every structural write lands on
        // a live pipeline — exactly what RP4105 exists to catch.
        let tamper = |plan: &mut rp4c::UpdatePlan| {
            plan.msgs
                .retain(|m| !matches!(m, ControlMsg::Drain | ControlMsg::Resume));
        };
        let mut flow = rp4_flow()?;
        let mut plan = flow.plan_script(programs::ECMP_SCRIPT, &programs::bundled_sources)?;
        tamper(&mut plan);
        let e = flow
            .apply_plan(plan)
            .expect_err("a drain-stripped plan must be rejected");
        let ControllerError::Verify(diags) = &e else {
            // Any other rejection is the wrong code path — surface it.
            return Err(e);
        };
        assert!(!diags.is_empty());
        assert!(
            diags.iter().all(|d| d.code == rp4_dfa::codes::PLAN_UNSAFE),
            "{diags:?}"
        );
        // The rejected apply must not have touched the flow's state.
        assert!(flow.design.tables.contains_key("nexthop"));
        // An operator override skips the check and the plan goes through.
        let mut plan = flow.plan_script(programs::ECMP_SCRIPT, &programs::bundled_sources)?;
        tamper(&mut plan);
        flow.force = true;
        flow.apply_plan(plan)?;
        assert!(flow.design.tables.contains_key("ecmp_ipv4"));
        Ok(())
    }

    #[test]
    fn bad_table_add_rejected_before_device() -> Result<(), ControllerError> {
        let mut flow = rp4_flow()?;
        let e = flow
            .run_script("table_add port_map set_ifindex 1 2 => 3", &|_| None)
            .expect_err("arity-mismatched table_add must be rejected");
        assert!(matches!(e, ControllerError::Api(_)), "{e}");
        Ok(())
    }

    #[test]
    fn p4_flow_update_repopulates_everything() -> Result<(), ControllerError> {
        let (mut flow, t_c0, r0) = P4Flow::new(
            PisaSwitch::new(CostModel::software()),
            programs::BASE_P4,
            PisaTarget::bmv2(),
        )?;
        assert!(t_c0 > 0.0);
        assert!(r0.load_us > 0.0);
        // Install some entries.
        flow.table_add("port_map", "set_ifindex", &[KeyToken::Exact(0)], &[10], 0)?;
        flow.table_add("bd_vrf", "set_bd_vrf", &[KeyToken::Exact(10)], &[1, 1], 0)?;
        assert_eq!(flow.tracked_entries(), 2);

        // "Update" to the ECMP variant: full recompile + swap + repopulate.
        let (t_c1, r1) = flow.update_source(programs::BASE_ECMP_P4.to_string())?;
        assert!(t_c1 > 0.0);
        assert_eq!(r1.entries_written, 2, "all entries replayed");
        assert!(r1.stall_us > 0.0);
        // Device really holds the replayed entries.
        let port_map = flow
            .device
            .table("port_map")
            .ok_or_else(|| ControllerError::MissingSource("port_map missing".into()))?;
        assert_eq!(port_map.len(), 1);
        assert!(flow.device.table("ecmp_ipv4").is_some());
        Ok(())
    }
}
