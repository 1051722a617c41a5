//! `rp4-benchmark`: the repository's one measurement spine.
//!
//! ```text
//! rp4-benchmark run    [--workload W] [--seed N] [--seconds S] [--trace [0|1]] [--smoke]
//! rp4-benchmark repeat [--seed N] [--seconds S]
//! ```
//!
//! `run --workload W` measures one workload in this process and prints,
//! as the last line of standard output, one JSON object with `correct`,
//! `attempted`, `failed` and `metrics`. Without `--workload`, every
//! workload runs in a process of its own. `repeat` runs two full sets back
//! to back and fails if they disagree by more than the benchmark's own
//! bounds. See `README.md` beside this crate.

mod alloc;
mod checks;
mod clock;
mod gen;
mod layers;
mod repeat;
mod report;
mod run;
mod setup;
mod span;
mod stats;
mod workload;

use std::process::{Command, ExitCode};

use report::Provenance;
use setup::WORKLOADS;
use workload::Options;

#[global_allocator]
static GLOBAL: alloc::CountingAlloc = alloc::CountingAlloc;

/// Seconds measured per run unless `--seconds` says otherwise; equals
/// `run_seconds` in `BENCHMARK.json`.
const DEFAULT_SECONDS: f64 = 20.0;
/// Seconds measured by `--smoke`.
const SMOKE_SECONDS: f64 = 1.0;
/// Default seed; 18 is held out for claims.
const DEFAULT_SEED: u64 = 17;

/// Parsed command line.
#[derive(Debug, Clone, PartialEq)]
pub struct Cli {
    /// `run` or `repeat`.
    pub command: String,
    /// `--workload`, if given.
    pub workload: Option<String>,
    /// `--seed`.
    pub seed: u64,
    /// `--seconds`, if given.
    pub seconds: Option<f64>,
    /// `--trace`, `--trace 1`.
    pub trace: bool,
    /// `--smoke`.
    pub smoke: bool,
}

impl Cli {
    /// Parses the arguments after the program name.
    pub fn parse(args: &[String]) -> Result<Cli, String> {
        let mut cli = Cli {
            command: args
                .first()
                .cloned()
                .ok_or("missing command: run | repeat")?,
            workload: None,
            seed: DEFAULT_SEED,
            seconds: None,
            trace: false,
            smoke: false,
        };
        if !matches!(cli.command.as_str(), "run" | "repeat") {
            return Err(format!("unknown command `{}`: run | repeat", cli.command));
        }
        let mut it = args[1..].iter().peekable();
        while let Some(arg) = it.next() {
            let mut value = |name: &str| it.next().cloned().ok_or(format!("{name} needs a value"));
            match arg.as_str() {
                "--workload" => cli.workload = Some(value("--workload")?),
                "--seed" => {
                    cli.seed = value("--seed")?
                        .parse()
                        .map_err(|e| format!("--seed: {e}"))?;
                }
                "--seconds" => {
                    let s: f64 = value("--seconds")?
                        .parse()
                        .map_err(|e| format!("--seconds: {e}"))?;
                    if !(s > 0.0 && s <= 600.0) {
                        return Err(format!("--seconds {s}: out of range (0, 600]"));
                    }
                    cli.seconds = Some(s);
                }
                "--trace" => {
                    // Bare `--trace` means on; the driver passes 0 or 1.
                    cli.trace = match it.peek().map(|s| s.as_str()) {
                        Some("0") => {
                            it.next();
                            false
                        }
                        Some("1") => {
                            it.next();
                            true
                        }
                        _ => true,
                    };
                }
                "--smoke" => cli.smoke = true,
                other => return Err(format!("unknown argument `{other}`")),
            }
        }
        Ok(cli)
    }

    /// Measured seconds: `--seconds`, else the smoke or full default.
    pub fn seconds(&self) -> f64 {
        self.seconds.unwrap_or(if self.smoke {
            SMOKE_SECONDS
        } else {
            DEFAULT_SECONDS
        })
    }
}

/// Measures one workload here and prints its report and result line.
fn run_one(name: &str, cli: &Cli) -> Result<bool, String> {
    let spec = WORKLOADS.iter().find(|w| w.name == name).ok_or_else(|| {
        let known: Vec<_> = WORKLOADS.iter().map(|w| w.name).collect();
        format!("unknown workload `{name}`: {}", known.join(" | "))
    })?;
    let opts = Options {
        seed: cli.seed,
        seconds: cli.seconds(),
        trace: cli.trace,
        smoke: cli.smoke,
    };
    let outcome = workload::run(spec, &opts);
    let p = Provenance {
        workload: spec.name,
        seed: opts.seed,
        seconds: opts.seconds,
        mode: if opts.smoke { "smoke" } else { "full" },
        trace: opts.trace,
        clock_scale: outcome.clock_scale,
    };
    report::print_metrics(&outcome.metrics, &p);
    let t = &outcome.tally;
    println!(
        "  ops_attempted {}  ops_failed {}  checks {}",
        t.attempted,
        t.failed,
        if t.failed == 0 { "passed" } else { "FAILED" }
    );
    for msg in &t.messages {
        println!("  failed: {msg}");
    }
    match report::write_result(&outcome.metrics, &p, t.attempted, t.failed, &t.messages) {
        Ok(path) => println!("  [written to {}]", path.display()),
        Err(e) => eprintln!("warning: result file not written: {e}"),
    }
    println!(
        "{}",
        report::result_line(&outcome.metrics, &p, t.attempted.max(1), t.failed)
    );
    Ok(t.failed == 0)
}

/// This program again, for one workload in a process of its own.
fn child(cli: &Cli, workload: &str, seed: u64, trace: bool) -> Result<Command, String> {
    let exe = std::env::current_exe().map_err(|e| e.to_string())?;
    let mut cmd = Command::new(exe);
    cmd.args(["run", "--workload", workload])
        .args(["--seed", &seed.to_string()])
        .args(["--seconds", &cli.seconds().to_string()])
        .args(["--trace", if trace { "1" } else { "0" }]);
    if cli.smoke {
        cmd.arg("--smoke");
    }
    Ok(cmd)
}

/// Runs one workload in a child, passing its output through.
fn spawn_one(name: &str, cli: &Cli, trace: bool) -> Result<bool, String> {
    let status = child(cli, name, cli.seed, trace)?
        .status()
        .map_err(|e| e.to_string())?;
    Ok(status.success())
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let outcome = Cli::parse(&args).and_then(|cli| match (cli.command.as_str(), &cli.workload) {
        ("repeat", _) => repeat::repeat(&cli),
        (_, Some(name)) => run_one(name, &cli),
        // Every workload, each in a process of its own; with --trace the
        // traced run follows the end-to-end one.
        (_, None) => WORKLOADS.iter().try_fold(true, |ok, w| {
            let mut ok = ok & spawn_one(w.name, &cli, false)?;
            if cli.trace {
                ok &= spawn_one(w.name, &cli, true)?;
            }
            Ok(ok)
        }),
    });
    match outcome {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::FAILURE,
        Err(e) => {
            eprintln!("rp4-benchmark: {e}");
            ExitCode::from(2)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse(line: &str) -> Result<Cli, String> {
        let args: Vec<String> = line.split_whitespace().map(str::to_string).collect();
        Cli::parse(&args)
    }

    #[test]
    fn parses_the_driver_and_the_human_forms() {
        let c = parse("run --workload fwd_fib --seed 3 --seconds 10 --trace 0").unwrap();
        assert_eq!(c.workload.as_deref(), Some("fwd_fib"));
        assert_eq!((c.seed, c.seconds(), c.trace), (3, 10.0, false));
        assert!(parse("run --trace 1").unwrap().trace);
        assert!(parse("run --trace --smoke").unwrap().trace);
        let smoke = parse("run --smoke").unwrap();
        assert_eq!((smoke.seconds(), smoke.seed), (SMOKE_SECONDS, DEFAULT_SEED));
        assert_eq!(parse("run").unwrap().seconds(), DEFAULT_SECONDS);
        assert!(parse("").is_err());
        assert!(parse("bench").is_err());
        assert!(parse("run --seconds 0").is_err());
        assert!(parse("run --frobnicate").is_err());
    }
}
