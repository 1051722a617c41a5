//! A pure model of control-message application, used to prove failback
//! round-trips: `apply(apply(A, diff(A→B)), diff(B→A))` must land back on
//! a design indistinguishable from `A`.
//!
//! The model mirrors the device-side `ccm` handler but operates on a
//! [`CompiledDesign`] value instead of live modules, so the round-trip can
//! be checked before any message reaches hardware. Entry operations
//! (`AddEntry`/`DelEntry`) are outside the design value and are ignored
//! here; `DefineMetadata` is additive, matching device semantics.

use ipsa_core::control::ControlMsg;
use ipsa_core::template::CompiledDesign;
use rp4_lang::Diagnostic;

use crate::codes;

/// Applies a batch of control messages to a design value, returning the
/// resulting design. Unknown-reference edits (e.g. removing an action that
/// does not exist) are no-ops, as on the device.
pub fn apply_msgs(base: &CompiledDesign, msgs: &[ControlMsg]) -> CompiledDesign {
    let mut d = base.clone();
    for m in msgs {
        match m {
            ControlMsg::Drain | ControlMsg::Resume => {}
            ControlMsg::WriteTemplate { slot, template } => {
                if d.templates.len() <= *slot {
                    d.templates.resize(*slot + 1, None);
                }
                d.templates[*slot] = Some(template.clone());
            }
            ControlMsg::ClearSlot { slot } => {
                if let Some(t) = d.templates.get_mut(*slot) {
                    *t = None;
                }
            }
            ControlMsg::SetSelector(s) => d.selector = s.clone(),
            ControlMsg::ConnectCrossbar { slot, blocks } => {
                if blocks.is_empty() {
                    d.crossbar.remove(slot);
                } else {
                    d.crossbar.insert(*slot, blocks.clone());
                }
            }
            ControlMsg::RegisterHeader(ty) => d.linkage.register(ty.clone()),
            ControlMsg::SetFirstHeader(n) => {
                let _ = d.linkage.set_first(n);
            }
            ControlMsg::UnregisterHeader(n) => {
                d.linkage.unregister(n);
            }
            ControlMsg::LinkHeader { pre, next, tag } => {
                let _ = d.linkage.link(pre, next, *tag);
            }
            ControlMsg::UnlinkHeader { pre, next } => {
                let _ = d.linkage.unlink(pre, next);
            }
            ControlMsg::DefineAction(a) => {
                d.actions.insert(a.name.clone(), a.clone());
            }
            ControlMsg::RemoveAction(n) => {
                d.actions.remove(n);
            }
            ControlMsg::DefineMetadata(fields) => {
                for (n, b) in fields {
                    if !d.metadata.iter().any(|(m, _)| m == n) {
                        d.metadata.push((n.clone(), *b));
                    }
                }
            }
            ControlMsg::CreateTable { def, blocks } => {
                d.tables.insert(def.name.clone(), def.clone());
                d.table_alloc.insert(def.name.clone(), blocks.clone());
            }
            ControlMsg::DestroyTable(n) => {
                d.tables.remove(n);
                d.table_alloc.remove(n);
            }
            ControlMsg::MigrateTable { table, blocks } => {
                d.table_alloc.insert(table.clone(), blocks.clone());
            }
            ControlMsg::SetDefaultAction { table, action } => {
                if let Some(t) = d.tables.get_mut(table) {
                    t.default_action = action.clone();
                }
            }
            ControlMsg::AddEntry { .. } | ControlMsg::DelEntry { .. } => {}
            ControlMsg::LoadFullDesign(nd) => d = (**nd).clone(),
        }
    }
    d
}

/// RP4206 diagnostics for a failed round-trip: compares a restored design
/// against the original, component by component. Extra *metadata* fields
/// in the restored design are tolerated — `DefineMetadata` is additive on
/// devices, the surplus names are only referenced by the rolled-back
/// function, and an undeclared name behaves identically anyway.
pub fn roundtrip_diags(original: &CompiledDesign, restored: &CompiledDesign) -> Vec<Diagnostic> {
    let mut diags = Vec::new();
    let mut err = |what: String| {
        diags.push(
            Diagnostic::error(
                codes::FAILBACK_NONIDENTITY,
                format!("failback round-trip does not restore the original design: {what}"),
            )
            .with_note("rolling back this update would leave the device in a different state"),
        );
    };

    if original.linkage != restored.linkage {
        err("header registry / parse linkage differs".into());
    }
    for (n, b) in &original.metadata {
        match restored.metadata.iter().find(|(m, _)| m == n) {
            None => err(format!("metadata field `{n}` is gone")),
            Some((_, rb)) if rb != b => {
                err(format!("metadata field `{n}` changed width: {b} -> {rb}"));
            }
            _ => {}
        }
    }
    for (n, a) in &original.actions {
        if restored.actions.get(n) != Some(a) {
            err(format!("action `{n}` differs or is gone"));
        }
    }
    for n in restored.actions.keys() {
        if !original.actions.contains_key(n) {
            err(format!("stray action `{n}` remains"));
        }
    }
    for (n, t) in &original.tables {
        if restored.tables.get(n) != Some(t) {
            err(format!("table `{n}` differs or is gone"));
        } else if restored.table_alloc.get(n) != original.table_alloc.get(n) {
            err(format!("table `{n}` moved to different memory blocks"));
        }
    }
    for n in restored.tables.keys() {
        if !original.tables.contains_key(n) {
            err(format!("stray table `{n}` remains"));
        }
    }
    let slots = original.templates.len().max(restored.templates.len());
    for slot in 0..slots {
        let a = original.templates.get(slot).and_then(|t| t.as_ref());
        let b = restored.templates.get(slot).and_then(|t| t.as_ref());
        if a != b {
            err(format!("slot {slot} template differs"));
        }
        if original.crossbar.get(&slot) != restored.crossbar.get(&slot) {
            err(format!("slot {slot} crossbar connections differ"));
        }
    }
    if original.selector != restored.selector {
        err("selector configuration differs".into());
    }
    diags
}
