//! Translation validation over every shipped program: the checked AST and
//! the compiled design must agree in every symbolic world, and every
//! divergence the checker *would* report is itself cross-checked against a
//! real `ipbm` device — so a green run here certifies both the compiler
//! and the validator's own model.

use rp4_equiv::check_program_design;
use rp4_lang::Program;

const BASE: &str = include_str!("../../../programs/base.rp4");
const ECMP: &str = include_str!("../../../programs/ecmp.rp4");
const SRV6: &str = include_str!("../../../programs/srv6.rp4");
const FLOWPROBE: &str = include_str!("../../../programs/flowprobe.rp4");

/// Parses base, optionally absorbs a snippet, claims orphan stages, checks,
/// compiles, and runs the equivalence checker end to end.
fn prove(snippet: Option<(&str, &str)>) {
    let mut prog: Program = rp4_lang::parse(BASE).expect("base parses");
    if let Some((name, src)) = snippet {
        let snip = rp4_lang::parse(src).expect("snippet parses");
        prog.absorb(&snip);
        prog.claim_unowned_stages(name);
    }
    let env = rp4_lang::check(&prog, None).expect("program checks");
    let target = rp4c::CompilerTarget::ipbm();
    let compilation = rp4c::full_compile(&prog, &target).expect("compiles");
    let diags = check_program_design(&prog, &env, &compilation.design);
    let errors: Vec<_> = diags
        .iter()
        .filter(|d| d.severity == rp4_lang::Severity::Error)
        .collect();
    assert!(
        errors.is_empty(),
        "expected equivalence, got divergences:\n{}",
        rp4_lang::render_all(&diags, Some(snippet.map_or(BASE, |(_, s)| s)), "program")
    );
}

#[test]
fn base_is_equivalent() {
    prove(None);
}

#[test]
fn base_with_ecmp_is_equivalent() {
    prove(Some(("ecmp", ECMP)));
}

#[test]
fn base_with_srv6_is_equivalent() {
    prove(Some(("srv6", SRV6)));
}

#[test]
fn base_with_flowprobe_is_equivalent() {
    prove(Some(("flowprobe", FLOWPROBE)));
}
