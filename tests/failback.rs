//! Integration: live trials with reliable failback (the paper's second
//! motivating application) and pre-compiled update plans (Sec. 4.3's
//! "in cases the incremental updates can be pre-compiled, t_L will
//! dominate").

use rp4::demo;
use rp4::prelude::*;

/// Trial a function on live traffic, decide against it, roll back —
/// entries of untouched tables survive, traffic never stops.
#[test]
fn live_trial_with_failback() {
    let mut flow = demo::populated_base_flow().unwrap();
    let mut gen = TrafficGen::new(31).with_flows(32).with_v6_percent(0);

    // Baseline traffic.
    for p in gen.batch(100) {
        flow.device.inject(p);
    }
    assert_eq!(flow.device.run().len(), 100);
    let cp = flow.checkpoint();
    let slots_before = flow.design.programmed().count();
    let fib_entries = flow.device.sm.table("ipv4_lpm").unwrap().table.len();

    // Trial: the flow probe goes live.
    flow.run_script(
        controller::programs::FLOWPROBE_SCRIPT,
        &controller::programs::bundled_sources,
    )
    .unwrap();
    flow.run_script(
        "table_add flow_probe probe_count 0x0a000000 0x0a010000 => 10",
        &controller::programs::bundled_sources,
    )
    .unwrap();
    for p in gen.batch(100) {
        flow.device.inject(p);
    }
    assert_eq!(
        flow.device.run().len(),
        100,
        "traffic flows during the trial"
    );
    assert!(flow.device.sm.table("flow_probe").is_some());

    // Failback: a structural diff back to the checkpoint — smaller than a
    // full reinstall (the probe sat early in the pipeline, so the stages
    // behind it shift back, but headers/actions/other tables are
    // untouched).
    let full_reinstall = rp4::core::control::full_install_msgs(&flow.design).len();
    let report = flow.rollback(&cp).unwrap();
    assert!(
        report.msgs < full_reinstall,
        "rollback ({} msgs) must undercut a reinstall ({full_reinstall} msgs)",
        report.msgs
    );
    assert_eq!(flow.design.programmed().count(), slots_before);
    assert!(
        flow.device.sm.table("flow_probe").is_none(),
        "trial state recycled"
    );
    assert_eq!(
        flow.device.sm.table("ipv4_lpm").unwrap().table.len(),
        fib_entries,
        "untouched tables keep their entries"
    );

    // Traffic unaffected after failback.
    for p in gen.batch(100) {
        flow.device.inject(p);
    }
    let out = flow.device.run();
    assert_eq!(out.len(), 100);
    assert!(out.iter().all(|p| p.meta.mark == 0), "probe really gone");
}

/// Pre-compile the update plan ahead of the maintenance window; applying
/// it later pays only t_L.
#[test]
fn precompiled_plan_pays_only_load_time() {
    let mut flow = demo::populated_base_flow().unwrap();

    // Plan offline (device untouched).
    let plan = flow
        .plan_script(
            controller::programs::FLOWPROBE_SCRIPT,
            &controller::programs::bundled_sources,
        )
        .unwrap();
    assert!(
        flow.device.sm.table("flow_probe").is_none(),
        "planning is pure"
    );
    assert!(plan.stats.template_writes >= 1);

    // Apply in the window.
    let report = flow.apply_plan(plan).unwrap();
    assert!(report.load_us > 0.0);
    assert!(flow.device.sm.table("flow_probe").is_some());
    flow.design.validate().unwrap();

    // Table ops are rejected at plan time (they are runtime operations),
    // and the rejection names the script line that holds one.
    let e = flow
        .plan_script(
            "# plan\nunload --func_name probe\ntable_add port_map set_ifindex 9 => 9",
            &|_| None,
        )
        .unwrap_err();
    assert!(
        matches!(&e, controller::ControllerError::Script(s) if s.line == 3),
        "{e}"
    );
    assert!(e.to_string().starts_with("script line 3: "), "{e}");
}

/// A tampered plan that silently changes an untouched function's behavior
/// is refused by the translation-validation gate — unless the operator
/// forces it through.
#[test]
fn tampered_plan_is_refused_by_equivalence_gate() {
    fn tampered(flow: &rp4::controller::Rp4Flow<rp4::ipbm::IpbmSwitch>) -> rp4::rp4c::UpdatePlan {
        let mut plan = flow
            .plan_script(
                controller::programs::FLOWPROBE_SCRIPT,
                &controller::programs::bundled_sources,
            )
            .unwrap();
        // Miscompile simulation on a function the plan does not touch:
        // the egress port choice silently becomes a drop.
        if let Some(a) = plan.design.actions.get_mut("set_port") {
            a.body = vec![rp4::core::action::Primitive::Drop];
        }
        plan
    }
    let mut flow = demo::populated_base_flow().unwrap();
    let plan = tampered(&flow);
    let err = flow.apply_plan(plan).unwrap_err();
    assert!(
        matches!(err, controller::ControllerError::Verify(_)),
        "{err}"
    );
    assert!(
        flow.device.sm.table("flow_probe").is_none(),
        "refused plan never reaches the device"
    );

    flow.force = true;
    let plan = tampered(&flow);
    flow.apply_plan(plan).unwrap();
    assert!(flow.device.sm.table("flow_probe").is_some());
}

/// Nested trials: checkpoint, stack two functions, roll back both in one
/// step.
#[test]
fn rollback_across_multiple_updates() {
    let mut flow = demo::populated_base_flow().unwrap();
    let cp = flow.checkpoint();
    flow.run_script(
        controller::programs::FLOWPROBE_SCRIPT,
        &controller::programs::bundled_sources,
    )
    .unwrap();
    flow.run_script(
        controller::programs::SRV6_SCRIPT,
        &controller::programs::bundled_sources,
    )
    .unwrap();
    assert!(flow.design.funcs.iter().any(|f| f.name == "srv6"));

    flow.rollback(&cp).unwrap();
    assert!(flow.design.funcs.iter().all(|f| f.name != "srv6"));
    assert!(flow.design.funcs.iter().all(|f| f.name != "probe"));
    assert!(flow.device.sm.table("local_sid").is_none());
    // Runtime header links from the SRv6 script are rolled back too (the
    // checkpointed ipv6 header had no SRH transition).
    assert!(!flow
        .device
        .linkage
        .edges()
        .iter()
        .any(|(p, _, n)| p == "ipv6" && n == "srh"));
}
