//! CCM — the Control Channel Module.
//!
//! "The Control Channel Module bridges the data plane with the controller
//! for runtime configuration" (Sec. 4.1). It interprets control messages
//! against the PM/SM state and accounts their cost under the device's
//! [`CostModel`] — the simulated load time (t_L) and the pipeline-stall
//! window between `Drain` and `Resume`.

use ipsa_core::control::{full_install_msgs, ApplyReport, ControlMsg};
use ipsa_core::error::CoreError;
use ipsa_core::pipeline_cfg::SelectorConfig;
use ipsa_core::timing::CostModel;
use ipsa_netpkt::linkage::HeaderLinkage;

use crate::pm::PipelineModule;
use crate::resilience::{ApplyJournal, FaultPlan};
use crate::sm::StorageModule;

/// Applies one message functionally (no cost accounting).
fn apply_one(
    pm: &mut PipelineModule,
    sm: &mut StorageModule,
    linkage: &mut HeaderLinkage,
    msg: &ControlMsg,
) -> Result<(), CoreError> {
    match msg {
        ControlMsg::Drain => {
            pm.draining = true;
        }
        ControlMsg::Resume => {
            pm.draining = false;
        }
        ControlMsg::WriteTemplate { slot, template } => {
            pm.write_template(*slot, template.clone())?;
        }
        ControlMsg::ClearSlot { slot } => {
            pm.clear_slot(*slot)?;
        }
        ControlMsg::SetSelector(cfg) => {
            pm.set_selector(cfg.clone())?;
        }
        ControlMsg::ConnectCrossbar { slot, blocks } => {
            if blocks.is_empty() {
                pm.crossbar.disconnect(*slot);
            } else {
                pm.crossbar.connect(*slot, blocks)?;
            }
        }
        ControlMsg::RegisterHeader(ty) => {
            linkage.register(ty.clone());
        }
        ControlMsg::SetFirstHeader(name) => {
            linkage
                .set_first(name)
                .map_err(|e| CoreError::Config(e.to_string()))?;
        }
        ControlMsg::UnregisterHeader(name) => {
            linkage.unregister(name);
        }
        ControlMsg::LinkHeader { pre, next, tag } => {
            linkage
                .link(pre, next, *tag)
                .map_err(|e| CoreError::Config(e.to_string()))?;
        }
        ControlMsg::UnlinkHeader { pre, next } => {
            linkage
                .unlink(pre, next)
                .map_err(|e| CoreError::Config(e.to_string()))?;
        }
        ControlMsg::DefineAction(def) => {
            sm.define_action(def.clone());
        }
        ControlMsg::RemoveAction(name) => {
            sm.remove_action(name);
        }
        ControlMsg::DefineMetadata(fields) => {
            sm.define_metadata(fields);
        }
        ControlMsg::CreateTable { def, blocks } => {
            sm.create_table(def.clone(), blocks.clone())?;
        }
        ControlMsg::DestroyTable(name) => {
            sm.destroy_table(name)?;
        }
        ControlMsg::MigrateTable { table, blocks } => {
            sm.migrate_table(table, blocks.clone())?;
        }
        ControlMsg::AddEntry { table, entry } => {
            sm.insert_entry(table, entry.clone())?;
        }
        ControlMsg::DelEntry { table, key } => {
            sm.delete_entry(table, key)?;
        }
        ControlMsg::SetDefaultAction { table, action } => {
            sm.set_default_action(table, action.clone())?;
        }
        ControlMsg::LoadFullDesign(design) => {
            // Whole-design swap: wipe pipeline and storage, then install.
            // The install diff leaves an all-bypass selector unsent, so the
            // wipe resets it.
            let slots = pm.slot_count();
            for s in 0..slots {
                pm.clear_slot(s)?;
                pm.crossbar.disconnect(s);
            }
            pm.set_selector(SelectorConfig::all_bypass(slots))?;
            for t in sm.table_names() {
                sm.destroy_table(&t)?;
            }
            *linkage = HeaderLinkage::new();
            for sub in full_install_msgs(design) {
                apply_one(pm, sm, linkage, &sub)?;
            }
        }
    }
    Ok(())
}

/// Applies a message batch transactionally, returning the cost report.
///
/// Application is sequential; before each message applies, its undo is
/// journaled (`ApplyJournal`), so the first failing message rolls the
/// PM/SM/linkage back to the batch's starting state and the batch reports
/// [`CoreError::RolledBack`] — `Device::apply` is all-or-nothing, and a
/// failed in-situ update can never strand the pipeline half-programmed.
pub fn apply_msgs(
    pm: &mut PipelineModule,
    sm: &mut StorageModule,
    linkage: &mut HeaderLinkage,
    cost: &CostModel,
    msgs: &[ControlMsg],
) -> Result<ApplyReport, CoreError> {
    apply_msgs_with_faults(pm, sm, linkage, cost, msgs, None)
}

/// [`apply_msgs`] with an optional fault plan: `fail_msg_at` fails the
/// batch deterministically at that message index, exercising the rollback
/// path at any batch position. Test-only surface — production callers pass
/// no plan and take the plain `apply_msgs` wrapper.
#[doc(hidden)]
pub fn apply_msgs_with_faults(
    pm: &mut PipelineModule,
    sm: &mut StorageModule,
    linkage: &mut HeaderLinkage,
    cost: &CostModel,
    msgs: &[ControlMsg],
    faults: Option<&FaultPlan>,
) -> Result<ApplyReport, CoreError> {
    let mut journal = ApplyJournal::default();
    match apply_msgs_journaled(pm, sm, linkage, cost, msgs, faults, &mut journal) {
        Ok(report) => Ok(report),
        Err((index, cause)) => {
            journal.rollback(pm, sm, linkage);
            Err(CoreError::RolledBack {
                index,
                cause: Box::new(cause),
            })
        }
    }
}

/// The shared apply loop: records every undo into the *caller's*
/// journal and applies messages sequentially. On a failing message it
/// returns `(index, cause)` **without rolling back** — ownership of the
/// journal (and therefore of the rollback horizon) stays with the caller.
/// [`apply_msgs_with_faults`] rolls a per-batch journal back immediately;
/// a staged transaction ([`crate::IpbmSwitch::begin_staged`]) accumulates
/// one journal across many batches and rewinds them all at once.
pub(crate) fn apply_msgs_journaled(
    pm: &mut PipelineModule,
    sm: &mut StorageModule,
    linkage: &mut HeaderLinkage,
    cost: &CostModel,
    msgs: &[ControlMsg],
    faults: Option<&FaultPlan>,
    journal: &mut ApplyJournal,
) -> Result<ApplyReport, (usize, CoreError)> {
    let mut report = ApplyReport::default();
    let mut in_drain = false;
    for (index, msg) in msgs.iter().enumerate() {
        // MigrateTable is the one message whose cost depends on device
        // state (every live row is copied); price it against the table as
        // it stands *before* this message applies.
        let bytes = msg.payload_bytes();
        let us = match msg {
            ControlMsg::MigrateTable { table, blocks } => {
                let live_rows = sm.table(table).map(|s| s.table.len()).unwrap_or_default();
                cost.per_msg_us
                    + cost.per_byte_us * bytes as f64
                    + cost.migrate_cost_us(live_rows, blocks.len())
            }
            _ => cost.sized_msg_cost_us(msg, bytes),
        };
        report.msgs += 1;
        report.bytes += bytes;
        report.load_us += us;
        if matches!(msg, ControlMsg::Drain) {
            in_drain = true;
        }
        if in_drain {
            report.stall_us += us;
        }
        if matches!(msg, ControlMsg::Resume) {
            in_drain = false;
        }
        if matches!(msg, ControlMsg::AddEntry { .. }) {
            report.entries_written += 1;
        }
        let injected = faults.is_some_and(|f| f.fail_msg_at == Some(index));
        let applied = if injected {
            Err(CoreError::Config(format!(
                "injected fault: control message {index} fails"
            )))
        } else {
            journal.record(pm, sm, linkage, msg);
            apply_one(pm, sm, linkage, msg)
        };
        if let Err(cause) = applied {
            return Err((index, cause));
        }
    }
    // Only a fully-applied *structural* batch opens a new control-plane
    // epoch, exactly once. Entry traffic changes rows, whose tag and args
    // the compiled fast path reads from the table at each hit, so it stays
    // valid; a rolled-back batch leaves the device byte-identical to its
    // checkpoint.
    if msgs.iter().any(|m| !m.is_entry_op()) {
        pm.invalidate_compiled();
    }
    Ok(report)
}

#[cfg(test)]
mod tests {
    use super::*;
    use ipsa_core::crossbar::Crossbar;
    use ipsa_core::pipeline_cfg::SelectorConfig;
    use ipsa_core::table::{ActionCall, KeyField, MatchKind, TableDef, TableEntry};
    use ipsa_core::template::TspTemplate;
    use ipsa_core::value::ValueRef;

    fn parts() -> (PipelineModule, StorageModule, HeaderLinkage) {
        (
            PipelineModule::new(8, 8, Crossbar::full()).unwrap(),
            StorageModule::new(8, 2, 128),
            HeaderLinkage::standard(),
        )
    }

    fn table_def() -> TableDef {
        TableDef {
            name: "t".into(),
            key: vec![KeyField {
                source: ValueRef::Meta("x".into()),
                bits: 16,
                kind: MatchKind::Exact,
            }],
            size: 16,
            actions: vec![],
            default_action: ActionCall::no_action(),
            with_counters: false,
        }
    }

    #[test]
    fn batch_applies_and_costs() {
        let (mut pm, mut sm, mut linkage) = parts();
        let msgs = vec![
            ControlMsg::Drain,
            ControlMsg::WriteTemplate {
                slot: 0,
                template: TspTemplate::passthrough("s"),
            },
            ControlMsg::SetSelector(SelectorConfig::split(8, 1, 0).unwrap()),
            ControlMsg::Resume,
            ControlMsg::CreateTable {
                def: table_def(),
                blocks: vec![0],
            },
            ControlMsg::AddEntry {
                table: "t".into(),
                entry: TableEntry::exact(vec![1], ActionCall::no_action()),
            },
        ];
        let cost = CostModel::software();
        let r = apply_msgs(&mut pm, &mut sm, &mut linkage, &cost, &msgs).unwrap();
        assert_eq!(r.msgs, 6);
        assert_eq!(r.entries_written, 1);
        assert!(r.load_us > 0.0);
        // Stall covers exactly the Drain..Resume window.
        assert!(r.stall_us > 0.0 && r.stall_us < r.load_us);
        assert!(pm.slots[0].template.is_some());
        assert!(!pm.draining);
        assert_eq!(sm.table_names(), vec!["t".to_string()]);
    }

    /// Regression: widths arrive off the control channel unchecked. An
    /// impossible one — a header or key wider than `usize` bits in sum, a
    /// 0- or 200-bit key field — is refused with a typed error; it used to
    /// overflow (a panic in debug builds) or trip an `expect`.
    #[test]
    fn impossible_widths_are_refused_not_panicking() {
        use ipsa_netpkt::header::{FieldDef, HeaderType};
        let cost = CostModel::software();
        let (mut pm, mut sm, mut linkage) = parts();
        let wide = HeaderType::new(
            "wide",
            vec![FieldDef::new("a", usize::MAX), FieldDef::new("b", 8)],
        )
        .with_var_len("b", usize::MAX);
        let msgs = [ControlMsg::RegisterHeader(wide)];
        apply_msgs(&mut pm, &mut sm, &mut linkage, &cost, &msgs).unwrap();
        for bits in [usize::MAX, 0, 200] {
            let mut def = table_def();
            def.key.push(KeyField {
                bits,
                ..def.key[0].clone()
            });
            let msgs = [
                ControlMsg::CreateTable {
                    def: def.clone(),
                    blocks: vec![0],
                },
                ControlMsg::AddEntry {
                    table: "t".into(),
                    entry: TableEntry::exact(vec![1, 1], ActionCall::no_action()),
                },
            ];
            let err = apply_msgs(&mut pm, &mut sm, &mut linkage, &cost, &msgs).unwrap_err();
            assert!(matches!(err, CoreError::RolledBack { .. }), "{bits}: {err}");
        }
    }

    /// Regression: a migration's reported load time must grow with the
    /// rows it copies — the flat `table_setup_us` charge made update-plan
    /// latency independent of table occupancy.
    #[test]
    fn migration_cost_scales_with_live_rows() {
        let cost = CostModel::software();
        let migrate = |populate: usize| -> f64 {
            let (mut pm, mut sm, mut linkage) = parts();
            let mut msgs = vec![ControlMsg::CreateTable {
                def: table_def(),
                blocks: vec![0],
            }];
            for i in 0..populate {
                msgs.push(ControlMsg::AddEntry {
                    table: "t".into(),
                    entry: TableEntry::exact(vec![i as u128], ActionCall::no_action()),
                });
            }
            apply_msgs(&mut pm, &mut sm, &mut linkage, &cost, &msgs).unwrap();
            let r = apply_msgs(
                &mut pm,
                &mut sm,
                &mut linkage,
                &cost,
                &[ControlMsg::MigrateTable {
                    table: "t".into(),
                    blocks: vec![1],
                }],
            )
            .unwrap();
            r.load_us
        };
        let empty = migrate(0);
        let populated = migrate(10);
        assert!(
            populated >= empty + 10.0 * cost.table_entry_us - 1e-9,
            "10 copied rows must be charged: empty {empty} µs, populated {populated} µs"
        );
    }

    #[test]
    fn bad_message_aborts() {
        let (mut pm, mut sm, mut linkage) = parts();
        let msgs = vec![ControlMsg::ClearSlot { slot: 99 }];
        let cost = CostModel::software();
        let e = apply_msgs(&mut pm, &mut sm, &mut linkage, &cost, &msgs).unwrap_err();
        assert!(
            matches!(e, CoreError::RolledBack { index: 0, .. }),
            "batch failures surface as rollbacks: {e}"
        );
    }

    /// The transactional guarantee: a batch that mutates several components
    /// and then fails leaves every one of them — and the control-plane
    /// epoch — exactly as the batch found them.
    #[test]
    fn failed_batch_rolls_back_every_mutation() {
        let (mut pm, mut sm, mut linkage) = parts();
        let cost = CostModel::software();
        apply_msgs(
            &mut pm,
            &mut sm,
            &mut linkage,
            &cost,
            &[
                ControlMsg::CreateTable {
                    def: table_def(),
                    blocks: vec![0],
                },
                ControlMsg::AddEntry {
                    table: "t".into(),
                    entry: TableEntry::exact(vec![1], ActionCall::no_action()),
                },
                ControlMsg::WriteTemplate {
                    slot: 1,
                    template: TspTemplate::passthrough("keep"),
                },
            ],
        )
        .unwrap();
        let epoch = pm.epoch();
        let template = pm.slots[1].template.clone();
        let draining = pm.draining;
        let rows = sm.table("t").unwrap().table.len();
        let pool = serde_json::to_string(&sm.pool).unwrap();
        let edges = linkage.edges();

        let e = apply_msgs(
            &mut pm,
            &mut sm,
            &mut linkage,
            &cost,
            &[
                ControlMsg::Drain,
                ControlMsg::WriteTemplate {
                    slot: 1,
                    template: TspTemplate::passthrough("clobber"),
                },
                ControlMsg::AddEntry {
                    table: "t".into(),
                    entry: TableEntry::exact(vec![2], ActionCall::no_action()),
                },
                ControlMsg::MigrateTable {
                    table: "t".into(),
                    blocks: vec![1],
                },
                ControlMsg::RegisterHeader(ipsa_netpkt::header::HeaderType::new(
                    "probe",
                    vec![ipsa_netpkt::header::FieldDef {
                        name: "tag".into(),
                        bits: 16,
                    }],
                )),
                ControlMsg::UnregisterHeader("vlan".into()),
                ControlMsg::ClearSlot { slot: 99 }, // fails here
            ],
        )
        .unwrap_err();
        assert!(matches!(e, CoreError::RolledBack { index: 6, .. }), "{e}");
        assert_eq!(
            pm.epoch(),
            epoch,
            "rolled-back batch must not open an epoch"
        );
        assert_eq!(pm.slots[1].template, template);
        assert_eq!(pm.draining, draining);
        assert_eq!(sm.table("t").unwrap().table.len(), rows);
        assert_eq!(sm.pool.owned_by("t"), vec![0], "migration undone");
        assert_eq!(
            serde_json::to_string(&sm.pool).unwrap(),
            pool,
            "pool bytes and ownership byte-identical to the checkpoint"
        );
        assert_eq!(linkage.edges(), edges);
        assert!(!linkage.iter().any(|h| h.name == "probe"));
        assert!(linkage.iter().any(|h| h.name == "vlan"));
    }

    /// `fail_msg_at` makes the rollback path reachable at *any* index, and
    /// the same batch succeeds once the plan is cleared — proving the
    /// failure was purely injected.
    #[test]
    fn injected_fault_fails_exact_index_then_clean_batch_applies() {
        let (mut pm, mut sm, mut linkage) = parts();
        let cost = CostModel::software();
        let msgs = vec![
            ControlMsg::CreateTable {
                def: table_def(),
                blocks: vec![0],
            },
            ControlMsg::AddEntry {
                table: "t".into(),
                entry: TableEntry::exact(vec![1], ActionCall::no_action()),
            },
        ];
        let plan = crate::resilience::FaultPlan {
            fail_msg_at: Some(1),
            ..Default::default()
        };
        let e = apply_msgs_with_faults(&mut pm, &mut sm, &mut linkage, &cost, &msgs, Some(&plan))
            .unwrap_err();
        assert!(matches!(e, CoreError::RolledBack { index: 1, .. }), "{e}");
        assert!(sm.table_names().is_empty(), "CreateTable rolled back");
        apply_msgs(&mut pm, &mut sm, &mut linkage, &cost, &msgs).unwrap();
        assert_eq!(sm.table("t").unwrap().table.len(), 1);
    }

    #[test]
    fn header_msgs_mutate_linkage() {
        let (mut pm, mut sm, mut linkage) = parts();
        let cost = CostModel::software();
        let msgs = vec![
            ControlMsg::RegisterHeader(ipsa_netpkt::protocols::srh()),
            ControlMsg::LinkHeader {
                pre: "ipv6".into(),
                next: "srh".into(),
                tag: 43,
            },
        ];
        apply_msgs(&mut pm, &mut sm, &mut linkage, &cost, &msgs).unwrap();
        assert!(linkage
            .edges()
            .contains(&("ipv6".to_string(), 43, "srh".to_string())));
    }

    #[test]
    fn full_design_swap_resets_state() {
        let (mut pm, mut sm, mut linkage) = parts();
        let cost = CostModel::software();
        // Pre-state: a table and a template.
        apply_msgs(
            &mut pm,
            &mut sm,
            &mut linkage,
            &cost,
            &[
                ControlMsg::CreateTable {
                    def: table_def(),
                    blocks: vec![0],
                },
                ControlMsg::WriteTemplate {
                    slot: 3,
                    template: TspTemplate::passthrough("old"),
                },
                ControlMsg::SetSelector(SelectorConfig::split(8, 4, 0).unwrap()),
            ],
        )
        .unwrap();
        assert!(pm.active_tsps() > 0);
        // Swap in an empty design.
        let design = ipsa_core::template::CompiledDesign::empty("fresh", 8);
        apply_msgs(
            &mut pm,
            &mut sm,
            &mut linkage,
            &cost,
            &[ControlMsg::LoadFullDesign(Box::new(design))],
        )
        .unwrap();
        assert!(pm.slots[3].template.is_none());
        assert!(sm.table_names().is_empty());
        // The empty design's install diff sends no selector; the wipe
        // resets it to all-bypass.
        assert_eq!(pm.active_tsps(), 0);
    }
}
