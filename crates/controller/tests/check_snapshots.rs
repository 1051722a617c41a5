//! Byte-for-byte snapshots of `rp4c-cli check`.
//!
//! Two sets of invocations, each run from the repository root:
//!
//! - every `programs/bad/*.rp4` fixture with `check --cover`, so every
//!   RP40xx–RP44xx finding a fixture fires is pinned with its order, its
//!   rendering and its span;
//! - the shipped programs exactly as the translation-validation gate
//!   (`--deny-warnings --equiv`) and the path-coverage gate (`--cover`)
//!   check them, so their `OK` and `coverage:` lines are pinned too.
//!
//! Each snapshot under `tests/snapshots/` holds the command line, the exit
//! status, stdout and stderr. A missing snapshot is written and the test
//! fails, so a new fixture's output is reviewed before it is committed.

use std::path::{Path, PathBuf};
use std::process::Command;

fn repo_root() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("../..")
}

/// `.rp4` files directly under `dir` (relative to the repo root), sorted.
fn rp4_files(root: &Path, dir: &str) -> Vec<String> {
    let mut files: Vec<String> = std::fs::read_dir(root.join(dir))
        .unwrap_or_else(|e| panic!("cannot list {dir}: {e}"))
        .map(|e| {
            e.expect("directory entry")
                .file_name()
                .into_string()
                .expect("UTF-8 name")
        })
        .filter(|n| n.ends_with(".rp4"))
        .map(|n| format!("{dir}/{n}"))
        .collect();
    files.sort();
    files
}

fn stem(path: &str) -> &str {
    let name = path.rsplit('/').next().unwrap_or(path);
    name.strip_suffix(".rp4").unwrap_or(name)
}

/// Every snapshotted invocation: `(snapshot name, rp4c-cli arguments)`.
fn invocations(root: &Path) -> Vec<(String, Vec<String>)> {
    const BASE: &str = "programs/base.rp4";
    let args = |a: &[&str]| a.iter().map(|s| s.to_string()).collect::<Vec<_>>();
    let mut out = Vec::new();
    for f in rp4_files(root, "programs/bad") {
        out.push((format!("bad_{}", stem(&f)), args(&["check", &f, "--cover"])));
    }
    // Translation validation of every shipped program; snippets are
    // checked absorbed into the base design.
    for f in rp4_files(root, "programs") {
        let a = if f == BASE {
            args(&["check", &f, "--deny-warnings", "--equiv"])
        } else {
            args(&["check", &f, "--base", BASE, "--deny-warnings", "--equiv"])
        };
        out.push((format!("equiv_{}", stem(&f)), a));
    }
    // Path-coverage gate. srv6 runs without --deny-warnings: absorbed
    // without its script its SRH-keyed paths cannot be witnessed.
    out.push((
        "cover_base".into(),
        args(&["check", BASE, "--deny-warnings", "--cover"]),
    ));
    for f in ["programs/ecmp.rp4", "programs/flowprobe.rp4"] {
        out.push((
            format!("cover_{}", stem(f)),
            args(&["check", f, "--base", BASE, "--deny-warnings", "--cover"]),
        ));
    }
    out.push((
        "cover_srv6".into(),
        args(&["check", "programs/srv6.rp4", "--base", BASE, "--cover"]),
    ));
    out
}

/// Runs `rp4c-cli` from the repo root and renders what it did.
fn run(root: &Path, args: &[String]) -> String {
    let out = Command::new(env!("CARGO_BIN_EXE_rp4c-cli"))
        .args(args)
        .current_dir(root)
        .output()
        .expect("rp4c-cli runs");
    format!(
        "$ rp4c-cli {}\nexit: {:?}\n--- stdout\n{}--- stderr\n{}",
        args.join(" "),
        out.status.code(),
        String::from_utf8_lossy(&out.stdout),
        String::from_utf8_lossy(&out.stderr),
    )
}

/// First differing line of two texts, for the failure message.
fn first_difference(expected: &str, actual: &str) -> String {
    let (mut e, mut a) = (expected.lines(), actual.lines());
    for n in 1.. {
        match (e.next(), a.next()) {
            (None, None) => break,
            (x, y) if x == y => continue,
            (x, y) => return format!("line {n}: expected {x:?}, got {y:?}"),
        }
    }
    "trailing newline differs".into()
}

#[test]
fn check_output_matches_snapshots() {
    let root = repo_root();
    let dir = PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("tests/snapshots");
    let mut failures = Vec::new();
    for (name, args) in invocations(&root) {
        let actual = run(&root, &args);
        let path = dir.join(format!("{name}.txt"));
        match std::fs::read_to_string(&path) {
            Ok(expected) if expected == actual => {}
            Ok(expected) => failures.push(format!(
                "{name}: {}\n{actual}",
                first_difference(&expected, &actual)
            )),
            Err(_) => {
                std::fs::create_dir_all(&dir).expect("create snapshot dir");
                std::fs::write(&path, &actual).expect("write snapshot");
                failures.push(format!("{name}: no snapshot; wrote {}", path.display()));
            }
        }
    }
    assert!(failures.is_empty(), "{}", failures.join("\n\n"));
}
