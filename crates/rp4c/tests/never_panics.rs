//! Arbitrary edits of rP4 source never panic the static analysis.
//!
//! Every `programs/*.rp4` and `programs/bad/*.rp4` is mutated line by line
//! (lines deleted, duplicated or swapped) and each mutant is driven through
//! `parse` → `check` → lowering → [`rp4c::lint_program`], and through
//! `rp4_dfa::check_plan` against the unmutated program. A mutant may be
//! rejected at any step; none may panic.

use std::path::PathBuf;
use std::sync::OnceLock;

use proptest::prelude::*;
use rp4c::CompilerTarget;

/// Source text of every bundled program and fixture, sorted by path.
fn sources() -> &'static [String] {
    static SOURCES: OnceLock<Vec<String>> = OnceLock::new();
    SOURCES.get_or_init(|| {
        let root = PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("../../programs");
        let mut paths: Vec<PathBuf> = [root.clone(), root.join("bad")]
            .iter()
            .flat_map(|dir| std::fs::read_dir(dir).expect("programs directory"))
            .map(|e| e.expect("directory entry").path())
            .filter(|p| p.extension().is_some_and(|x| x == "rp4"))
            .collect();
        paths.sort();
        paths
            .iter()
            .map(|p| std::fs::read_to_string(p).expect("program reads"))
            .collect()
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
    fn mutated_programs_never_panic_the_lints(
        file in 0usize..1024,
        edits in proptest::collection::vec((0u8..3, 0usize..4096), 1..4),
    ) {
        let src = &sources()[file % sources().len()];
        let original = rp4_lang::parse(src).expect("bundled program parses");
        let Ok(mutant) = rp4_lang::parse(&mutate(src, &edits)) else {
            return Ok(());
        };
        if let Ok(env) = rp4_lang::check(&mutant, None) {
            if let Ok(registries) = rp4c::lower_registries(&env, &mutant) {
                rp4c::lint_program(&mutant, &env, &registries, &CompilerTarget::ipbm());
            }
        }
        rp4_dfa::check_plan(&original, &mutant);
    }
}
