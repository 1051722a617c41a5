//! `rp4c` — the rP4 compiler command-line front end.
//!
//! ```text
//! rp4c compile <file.rp4> [--target ipbm|fpga] [-o design.json] [--apis apis.json]
//! rp4c translate <file.p4> [-o out.rp4]                # rp4fc: P4 -> rP4
//! rp4c check <file.rp4> [--base <base.rp4>]            # parse + semantics
//! rp4c cover <file.rp4> [-o corpus.json]               # path coverage corpus
//! rp4c plan --base <base.rp4> --script <file.script>   # incremental compile
//!          [--snippets <dir>] [--algo dp|greedy] [-o design.json]
//! ```
//!
//! `compile` runs the full rp4bc pipeline and emits the TSP template
//! parameters in JSON (the paper's specified output format). `plan` runs
//! the in-situ path: it prints the Drain…Resume message summary (each
//! message with the length of its control-channel wire frame, the bytes
//! the load-time model prices), the updated base design (rp4bc's "first
//! output"), and placement statistics.
//! `cover` enumerates every feasible execution path of the compiled design
//! and dumps the witness corpus (`check --cover` runs the same enumeration
//! for its RP44xx diagnostics and coverage summary).

use std::collections::HashMap;
use std::process::ExitCode;

use ipsa_controller::lower_script;
use rp4c::{CompilerTarget, LayoutAlgo};

fn usage() -> ExitCode {
    eprintln!(
        "usage:\n  rp4c compile <file.rp4> [--target ipbm|fpga] [-o design.json] [--apis apis.json]\n  \
         rp4c translate <file.p4> [-o out.rp4]\n  \
         rp4c check <file.rp4> [--base <base.rp4>] [--target ipbm|fpga] [--deny-warnings] [--equiv] [--cover]\n  \
         rp4c cover <file.rp4> [--target ipbm|fpga] [--max-paths N] [-o corpus.json]\n  \
         rp4c plan --base <base.rp4> --script <file.script> [--snippets <dir>] [--algo dp|greedy] [-o design.json]"
    );
    ExitCode::from(2)
}

/// Flags that take no value.
const BOOL_FLAGS: &[&str] = &["deny-warnings", "equiv", "cover"];

/// Minimal flag parser: positional args plus `--flag value` pairs
/// (boolean flags in [`BOOL_FLAGS`] consume no value).
fn parse_args(args: &[String]) -> (Vec<String>, HashMap<String, String>) {
    let mut pos = Vec::new();
    let mut flags = HashMap::new();
    let mut i = 0;
    while i < args.len() {
        let a = &args[i];
        if let Some(name) = a.strip_prefix("--") {
            if BOOL_FLAGS.contains(&name) {
                flags.insert(name.to_string(), String::new());
                i += 1;
            } else if let Some(v) = args.get(i + 1) {
                flags.insert(name.to_string(), v.clone());
                i += 2;
            } else {
                flags.insert(name.to_string(), String::new());
                i += 1;
            }
        } else if a == "-o" {
            if let Some(v) = args.get(i + 1) {
                flags.insert("out".to_string(), v.clone());
                i += 2;
            } else {
                i += 1;
            }
        } else {
            pos.push(a.clone());
            i += 1;
        }
    }
    (pos, flags)
}

fn target_of(flags: &HashMap<String, String>) -> Result<CompilerTarget, String> {
    match flags.get("target").map(String::as_str).unwrap_or("ipbm") {
        "ipbm" => Ok(CompilerTarget::ipbm()),
        "fpga" => Ok(CompilerTarget::fpga()),
        other => Err(format!("unknown target `{other}` (ipbm|fpga)")),
    }
}

fn write_or_print(flags: &HashMap<String, String>, key: &str, content: &str) -> Result<(), String> {
    match flags.get(key) {
        Some(path) => std::fs::write(path, content)
            .map_err(|e| format!("cannot write {path}: {e}"))
            .map(|()| println!("wrote {path}")),
        None => {
            println!("{content}");
            Ok(())
        }
    }
}

fn read(path: &str) -> Result<String, String> {
    std::fs::read_to_string(path).map_err(|e| format!("cannot read {path}: {e}"))
}

fn cmd_compile(pos: &[String], flags: &HashMap<String, String>) -> Result<(), String> {
    let file = pos.first().ok_or("compile needs a file")?;
    let src = read(file)?;
    let prog = rp4_lang::parse(&src).map_err(|e| e.to_string())?;
    let target = target_of(flags)?;
    let c = rp4c::full_compile(&prog, &target).map_err(|e| e.to_string())?;
    eprintln!(
        "compiled `{file}` for target `{}`: {} logical stages -> {} TSPs, {} blocks \
         (merged: {:?})",
        target.name,
        c.report.merge.before,
        c.report.tsps_used,
        c.report.blocks_used,
        c.report.merge.merged_groups
    );
    write_or_print(flags, "out", &c.design.to_json())?;
    if flags.contains_key("apis") {
        write_or_print(flags, "apis", &rp4c::api_gen::apis_to_json(&c.apis))?;
    }
    Ok(())
}

fn cmd_translate(pos: &[String], flags: &HashMap<String, String>) -> Result<(), String> {
    let file = pos.first().ok_or("translate needs a file")?;
    let src = read(file)?;
    let ast = p4_lang::parse_p4(&src).map_err(|e| e.to_string())?;
    let hlir = p4_lang::build_hlir(&ast).map_err(|e| e.to_string())?;
    let prog = rp4c::rp4fc(&hlir, "main");
    eprintln!(
        "translated `{file}`: {} headers, {} tables, {} stages",
        prog.headers.len(),
        prog.tables.len(),
        prog.stages().count()
    );
    write_or_print(flags, "out", &rp4_lang::print(&prog))
}

fn cmd_check(pos: &[String], flags: &HashMap<String, String>) -> Result<(), String> {
    let file = pos.first().ok_or("check needs a file")?;
    let src = read(file)?;
    let prog = rp4_lang::parse(&src).map_err(|e| e.to_string())?;
    let base = match flags.get("base") {
        Some(b) => Some(rp4_lang::parse(&read(b)?).map_err(|e| e.to_string())?),
        None => None,
    };

    // Phase 1: semantic check, rendered rustc-style against the source.
    if let Err(errs) = rp4_lang::check(&prog, base.as_ref()) {
        let diags: Vec<_> = errs.iter().map(|e| e.to_diagnostic()).collect();
        eprint!("{}", rp4_lang::render_all(&diags, Some(&src), file));
        return Err(format!("{} semantic error(s)", errs.len()));
    }

    // Phase 2: static analysis. Snippets are linted in the context of the
    // absorbed base design (a snippet alone has nothing to verify against);
    // mixing two source files breaks span offsets, so the absorbed case
    // renders without source excerpts.
    let (checked, verify_src) = match base {
        Some(mut b) => {
            b.absorb(&prog);
            // The snippet's stages become a function named after its file,
            // as a runtime `load` would make them.
            let func = std::path::Path::new(file)
                .file_stem()
                .and_then(|s| s.to_str())
                .unwrap_or("snippet")
                .to_string();
            b.claim_unowned_stages(&func);
            (b, None)
        }
        None => (prog.clone(), Some(src.as_str())),
    };
    let env = rp4_lang::check(&checked, None)
        .map_err(|errs| format!("{} error(s) in the absorbed design", errs.len()))?;
    let target = target_of(flags)?;
    let registries = rp4c::lower_registries(&env, &checked).map_err(|e| e.to_string())?;
    let mut diags = rp4c::lint_program(&checked, &env, &registries, &target);

    // Phases 3/4 (--equiv, --cover) both run over the compiled design;
    // compile once, only when requested and the program is error-free.
    let equiv = flags.contains_key("equiv");
    let do_cover = flags.contains_key("cover");
    let mut coverage_line = None;
    if (equiv || do_cover)
        && !diags
            .iter()
            .any(|d| d.severity == rp4_lang::Severity::Error)
    {
        let c = rp4c::full_compile(&checked, &target)
            .map_err(|e| format!("--equiv/--cover: compilation failed: {e:?}"))?;
        // Phase 3 (--equiv): prove the design behaves identically to the
        // checked program in every symbolic world (rp4-equiv).
        if equiv {
            diags.extend(rp4_equiv::check_program_design(&checked, &env, &c.design));
        }
        // Phase 4 (--cover): enumerate every feasible execution path,
        // concretize a witness per path, and report the RP44xx findings
        // (deduplicated against the dataflow block above).
        if do_cover {
            let cov = rp4_equiv::cover_design(&c.design, Some(&checked), rp4_equiv::MAX_WORLDS);
            diags.extend(rp4_dfa::merge_findings(&diags, cov.diags.clone()));
            coverage_line = Some(format!(
                "coverage: {}/{} feasible paths witnessed ({} pruned infeasible), WCET {:.0} ns",
                cov.covered(),
                cov.feasible(),
                cov.pruned_infeasible,
                cov.wcet_ns,
            ));
        }
    }

    let errors = diags
        .iter()
        .filter(|d| d.severity == rp4_lang::Severity::Error)
        .count();
    let warnings = diags.len() - errors;
    if !diags.is_empty() {
        eprint!("{}", rp4_lang::render_all(&diags, verify_src, file));
    }
    if errors > 0 {
        return Err(format!("{errors} verifier error(s)"));
    }
    if warnings > 0 && flags.contains_key("deny-warnings") {
        return Err(format!("{warnings} warning(s) denied by --deny-warnings"));
    }
    println!(
        "{file}: OK ({} headers, {} tables, {} actions, {} stages{}{})",
        prog.headers.len(),
        prog.tables.len(),
        prog.actions.len(),
        prog.stages().count(),
        if equiv { ", equivalence proven" } else { "" },
        if warnings > 0 {
            format!(", {warnings} warning(s)")
        } else {
            String::new()
        }
    );
    if let Some(line) = coverage_line {
        println!("{line}");
    }
    Ok(())
}

fn cmd_cover(pos: &[String], flags: &HashMap<String, String>) -> Result<(), String> {
    let file = pos.first().ok_or("cover needs a file")?;
    let src = read(file)?;
    let prog = rp4_lang::parse(&src).map_err(|e| e.to_string())?;
    rp4_lang::check(&prog, None).map_err(|errs| format!("{} semantic error(s)", errs.len()))?;
    let target = target_of(flags)?;
    let c = rp4c::full_compile(&prog, &target).map_err(|e| e.to_string())?;
    let max_paths = match flags.get("max-paths") {
        Some(n) => n
            .parse()
            .map_err(|_| format!("--max-paths: `{n}` is not a number"))?,
        None => rp4_equiv::MAX_WORLDS,
    };
    let cov = rp4_equiv::cover_design(&c.design, Some(&prog), max_paths);
    if !cov.diags.is_empty() {
        eprint!("{}", rp4_lang::render_all(&cov.diags, Some(&src), file));
    }
    eprintln!(
        "{file}: {}/{} feasible paths witnessed ({} pruned infeasible), WCET {:.0} ns",
        cov.covered(),
        cov.feasible(),
        cov.pruned_infeasible,
        cov.wcet_ns,
    );
    write_or_print(flags, "out", &rp4_equiv::corpus_json(&cov))?;
    if !cov.fully_covered() {
        return Err(format!(
            "coverage incomplete: {}/{} paths witnessed{}",
            cov.covered(),
            cov.feasible(),
            if cov.overflowed {
                " (enumeration over budget)"
            } else {
                ""
            }
        ));
    }
    Ok(())
}

fn cmd_plan(flags: &HashMap<String, String>) -> Result<(), String> {
    let base_path = flags.get("base").ok_or("plan needs --base")?;
    let script_path = flags.get("script").ok_or("plan needs --script")?;
    let base_src = read(base_path)?;
    let base = rp4_lang::parse(&base_src).map_err(|e| e.to_string())?;
    let target = target_of(flags)?;
    let algo = match flags.get("algo").map(String::as_str).unwrap_or("dp") {
        "dp" => LayoutAlgo::Dp,
        "greedy" => LayoutAlgo::Greedy,
        other => return Err(format!("unknown algo `{other}` (dp|greedy)")),
    };
    let compilation = rp4c::full_compile(&base, &target).map_err(|e| e.to_string())?;

    // Snippet resolution: --snippets dir, then the script's directory.
    let script_src = read(script_path)?;
    let script_dir = std::path::Path::new(script_path)
        .parent()
        .map(|p| p.to_path_buf())
        .unwrap_or_default();
    let snippet_dir = flags.get("snippets").map(std::path::PathBuf::from);
    let resolve = |name: &str| -> Option<String> {
        if let Some(d) = &snippet_dir {
            if let Ok(s) = std::fs::read_to_string(d.join(name)) {
                return Some(s);
            }
        }
        std::fs::read_to_string(script_dir.join(name)).ok()
    };

    let update_cmds = lower_script(&script_src, &resolve).map_err(|e| e.to_string())?;
    let plan = rp4c::incremental_compile(
        &compilation.design,
        &compilation.program,
        &update_cmds,
        &target,
        algo,
    )
    .map_err(|e| e.to_string())?;

    eprintln!(
        "plan: {} control messages ({} template writes, {} clears, new tables {:?}, \
         removed {:?}, placement {:.1} µs, {:?})",
        plan.msgs.len(),
        plan.stats.template_writes,
        plan.stats.slot_clears,
        plan.stats.new_tables,
        plan.stats.removed_tables,
        plan.stats.placement_us,
        plan.stats.algo,
    );
    for m in &plan.msgs {
        let kind = format!("{m:?}");
        let kind = kind.split([' ', '(', '{']).next().unwrap_or("?");
        eprintln!("  - {kind} ({} wire bytes)", m.payload_bytes());
    }
    println!("// --- updated base design (rp4bc output 1) ---");
    println!("{}", rp4_lang::print(&plan.program));
    if flags.contains_key("out") {
        write_or_print(flags, "out", &plan.design.to_json())?;
    }
    Ok(())
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let Some(cmd) = args.first().cloned() else {
        return usage();
    };
    let (pos, flags) = parse_args(&args[1..]);
    let result = match cmd.as_str() {
        "compile" => cmd_compile(&pos, &flags),
        "translate" => cmd_translate(&pos, &flags),
        "check" => cmd_check(&pos, &flags),
        "cover" => cmd_cover(&pos, &flags),
        "plan" => cmd_plan(&flags),
        _ => return usage(),
    };
    match result {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("rp4c: {e}");
            ExitCode::FAILURE
        }
    }
}
