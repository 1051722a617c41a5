//! Arbitrary edits of control scripts and P4 sources never panic the
//! controller's front ends.
//!
//! Every `programs/**/*.script` is mutated line by line (lines deleted,
//! duplicated or swapped) and each mutant goes through `parse_script`, then
//! through [`Rp4Flow::run_script`] on an installed base device. Every
//! `programs/*.p4` is mutated the same way and goes through `parse_p4` →
//! `build_hlir` → `pisa_compile`. A mutant may be rejected at any step; none
//! may panic.

use std::path::{Path, PathBuf};
use std::sync::OnceLock;

use ipbm::{IpbmConfig, IpbmSwitch};
use ipsa_controller::{parse_script, programs, Rp4Flow};
use pisa_bm::compile::{pisa_compile, PisaTarget};
use proptest::prelude::*;
use rp4c::{Compilation, CompilerTarget};

fn programs_dir() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("../../programs")
}

/// Source text of every file under `programs/` and `programs/bad/` with
/// extension `ext`, sorted by path.
fn sources_with(ext: &str) -> Vec<String> {
    let root = programs_dir();
    let mut paths: Vec<PathBuf> = [root.clone(), root.join("bad")]
        .iter()
        .flat_map(|dir| std::fs::read_dir(dir).expect("programs directory"))
        .map(|e| e.expect("directory entry").path())
        .filter(|p| p.extension().is_some_and(|x| x == ext))
        .collect();
    paths.sort();
    paths
        .iter()
        .map(|p| std::fs::read_to_string(p).expect("source reads"))
        .collect()
}

fn scripts() -> &'static [String] {
    static SCRIPTS: OnceLock<Vec<String>> = OnceLock::new();
    SCRIPTS.get_or_init(|| sources_with("script"))
}

fn p4_sources() -> &'static [String] {
    static P4: OnceLock<Vec<String>> = OnceLock::new();
    P4.get_or_init(|| sources_with("p4"))
}

/// Snippets a script loads, looked up under `programs/` and `programs/bad/`.
fn snippet(name: &str) -> Option<String> {
    let root = programs_dir();
    [root.clone(), root.join("bad")]
        .iter()
        .find_map(|dir| std::fs::read_to_string(dir.join(Path::new(name).file_name()?)).ok())
}

/// The base design's compilation, built once.
fn base() -> &'static Compilation {
    static BASE: OnceLock<Compilation> = OnceLock::new();
    BASE.get_or_init(|| {
        let prog = rp4_lang::parse(programs::BASE_RP4).expect("base parses");
        rp4c::full_compile(&prog, &CompilerTarget::ipbm()).expect("base compiles")
    })
}

/// Applies line edits in order: `(0, at)` deletes line `at`, `(1, at)`
/// duplicates it, `(2, at)` swaps it with the next line (`at` wraps).
fn mutate(src: &str, edits: &[(u8, usize)]) -> String {
    let mut lines: Vec<&str> = src.lines().collect();
    for &(kind, at) in edits {
        if lines.is_empty() {
            break;
        }
        let n = lines.len();
        let i = at % n;
        match kind {
            0 => {
                lines.remove(i);
            }
            1 => lines.insert(i, lines[i]),
            _ => lines.swap(i, (i + 1) % n),
        }
    }
    lines.join("\n")
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn mutated_scripts_never_panic_the_controller(
        file in 0usize..1024,
        edits in proptest::collection::vec((0u8..3, 0usize..4096), 1..4),
    ) {
        let script = mutate(&scripts()[file % scripts().len()], &edits);
        if parse_script(&script).is_err() {
            return Ok(());
        }
        let device = IpbmSwitch::new(IpbmConfig::default());
        let (mut flow, _) = Rp4Flow::install(device, base().clone(), CompilerTarget::ipbm())
            .expect("base installs");
        let _ = flow.run_script(&script, &snippet);
    }

    #[test]
    fn mutated_p4_never_panics_the_pisa_front_end(
        file in 0usize..1024,
        edits in proptest::collection::vec((0u8..3, 0usize..4096), 1..4),
    ) {
        let src = mutate(&p4_sources()[file % p4_sources().len()], &edits);
        let Ok(prog) = p4_lang::parse_p4(&src) else {
            return Ok(());
        };
        if let Ok(hlir) = p4_lang::build_hlir(&prog) {
            let _ = pisa_compile(&hlir, &PisaTarget::fpga());
        }
    }
}
