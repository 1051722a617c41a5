//! Integration tests for the command-line binaries (`rp4c-cli` and
//! `ipsa-ctl`), driven through real subprocesses against the bundled
//! program assets.

use std::path::PathBuf;
use std::process::Command;

fn programs_dir() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("../../programs")
}

fn rp4c(args: &[&str]) -> (bool, String, String) {
    let out = Command::new(env!("CARGO_BIN_EXE_rp4c-cli"))
        .args(args)
        .output()
        .expect("rp4c-cli runs");
    (
        out.status.success(),
        String::from_utf8_lossy(&out.stdout).into_owned(),
        String::from_utf8_lossy(&out.stderr).into_owned(),
    )
}

fn ipsa_ctl(args: &[&str]) -> (bool, String, String) {
    let out = Command::new(env!("CARGO_BIN_EXE_ipsa-ctl"))
        .args(args)
        .output()
        .expect("ipsa-ctl runs");
    (
        out.status.success(),
        String::from_utf8_lossy(&out.stdout).into_owned(),
        String::from_utf8_lossy(&out.stderr).into_owned(),
    )
}

#[test]
fn rp4c_check_and_compile() {
    let base = programs_dir().join("base.rp4");
    let base = base.to_str().unwrap();

    let (ok, stdout, _) = rp4c(&["check", base]);
    assert!(ok);
    assert!(stdout.contains("OK"), "{stdout}");

    let out_json = std::env::temp_dir().join("rp4c_cli_design.json");
    let (ok, _, stderr) = rp4c(&[
        "compile",
        base,
        "--target",
        "fpga",
        "-o",
        out_json.to_str().unwrap(),
    ]);
    assert!(ok, "{stderr}");
    assert!(stderr.contains("TSPs"), "{stderr}");
    // The emitted JSON is a valid, loadable design.
    let json = std::fs::read_to_string(&out_json).unwrap();
    let design = ipsa_core::template::CompiledDesign::from_json(&json).unwrap();
    design.validate().unwrap();
}

#[test]
fn rp4c_translate_output_is_compilable() {
    let p4 = programs_dir().join("base.p4");
    let out_rp4 = std::env::temp_dir().join("rp4c_cli_translated.rp4");
    let (ok, _, stderr) = rp4c(&[
        "translate",
        p4.to_str().unwrap(),
        "-o",
        out_rp4.to_str().unwrap(),
    ]);
    assert!(ok, "{stderr}");
    // And the translation passes `check`.
    let (ok, stdout, stderr) = rp4c(&["check", out_rp4.to_str().unwrap()]);
    assert!(ok, "{stdout}{stderr}");
}

#[test]
fn rp4c_plan_prints_msgs_and_updated_design() {
    let dir = programs_dir();
    let (ok, stdout, stderr) = rp4c(&[
        "plan",
        "--base",
        dir.join("base.rp4").to_str().unwrap(),
        "--script",
        dir.join("ecmp.script").to_str().unwrap(),
        "--target",
        "fpga",
    ]);
    assert!(ok, "{stderr}");
    assert!(stderr.contains("WriteTemplate"), "{stderr}");
    assert!(stderr.contains("template writes"), "{stderr}");
    // rp4bc's first output: the updated base design, re-parseable.
    let marker = "// --- updated base design (rp4bc output 1) ---";
    let updated = stdout.split(marker).nth(1).expect("updated design printed");
    let prog = rp4_lang::parse(updated).expect("updated design parses");
    assert!(prog.stage("ecmp").is_some());
    assert!(prog.stage("nexthop").is_none(), "replaced stage dropped");
}

/// `plan` lowers a script the way the driver does: an `update` line
/// replaces a loaded function from a second snippet, here found in the
/// script's own directory after `--snippets` missed it.
#[test]
fn rp4c_plan_updates_a_loaded_function() {
    let dir = programs_dir();
    let work = std::env::temp_dir().join(format!("rp4c_cli_plan_update_{}", std::process::id()));
    std::fs::create_dir_all(&work).unwrap();
    let ecmp = std::fs::read_to_string(dir.join("ecmp.rp4")).unwrap();
    assert!(ecmp.contains("size = 4096;"));
    std::fs::write(
        work.join("ecmp_v2.rp4"),
        ecmp.replace("size = 4096;", "size = 2048;"),
    )
    .unwrap();
    let script = work.join("update.script");
    std::fs::write(
        &script,
        "load ecmp.rp4 --func_name ecmp\n\
         add_link ipv6_host ecmp\n\
         add_link ecmp dmac\n\
         del_link ipv6_host nexthop\n\
         del_link nexthop dmac\n\
         update ecmp_v2.rp4 --func_name ecmp\n",
    )
    .unwrap();
    let (ok, stdout, stderr) = rp4c(&[
        "plan",
        "--base",
        dir.join("base.rp4").to_str().unwrap(),
        "--script",
        script.to_str().unwrap(),
        "--snippets",
        dir.to_str().unwrap(),
    ]);
    std::fs::remove_dir_all(&work).unwrap();
    assert!(ok, "{stderr}");
    assert!(stderr.contains("template writes"), "{stderr}");
    let marker = "// --- updated base design (rp4bc output 1) ---";
    let updated = stdout.split(marker).nth(1).expect("updated design printed");
    let prog = rp4_lang::parse(updated).expect("updated design parses");
    assert!(prog.stage("ecmp").is_some());
    let table = prog.table("ecmp_ipv4").expect("revised table present");
    assert_eq!(table.size, Some(2048), "the revision replaced the load");
}

#[test]
fn rp4c_rejects_bad_input() {
    let (ok, _, stderr) = rp4c(&["check", "/nonexistent/file.rp4"]);
    assert!(!ok);
    assert!(stderr.contains("cannot read"), "{stderr}");

    let bad = std::env::temp_dir().join("rp4c_cli_bad.rp4");
    std::fs::write(
        &bad,
        "stage s { parser { ghost; } matcher { } executor { default: NoAction; } }",
    )
    .unwrap();
    let (ok, _, stderr) = rp4c(&["check", bad.to_str().unwrap()]);
    assert!(!ok);
    assert!(stderr.contains("ghost"), "{stderr}");
}

#[test]
fn ipsa_ctl_runs_the_full_story() {
    let dir = programs_dir();
    let report = std::env::temp_dir().join("ipsa_ctl_report.json");
    let (ok, stdout, stderr) = ipsa_ctl(&[
        "run",
        "--base",
        dir.join("base.rp4").to_str().unwrap(),
        "--demo-tables",
        "--script",
        dir.join("ecmp.script").to_str().unwrap(),
        "--script",
        dir.join("ecmp_members.script").to_str().unwrap(),
        "--packets",
        "150",
        "--v6",
        "0",
        "--report",
        report.to_str().unwrap(),
    ]);
    assert!(ok, "{stderr}\n{stdout}");
    assert!(stdout.contains("[baseline] 150 in / 150 out"), "{stdout}");
    // After members are installed, traffic forwards again.
    assert!(
        stdout.contains("ecmp_members.script] 150 in / 150 out"),
        "{stdout}"
    );
    // The report is valid JSON with the expected totals.
    let json: serde_json::Value =
        serde_json::from_str(&std::fs::read_to_string(&report).unwrap()).unwrap();
    assert_eq!(json["pipeline"]["received"], 450);
}
