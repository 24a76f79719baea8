//! `cargo xtask` — the single entry point for workspace correctness
//! tooling. See `DESIGN.md` § static analysis and `README.md` for the
//! policy this enforces.
//!
//! Commands:
//!
//! - `cargo xtask lint [--json] [--report <p>] [--update-baseline]` —
//!   token-level static-analysis gate with a ratcheted baseline (see
//!   DESIGN.md § static analysis v2).
//! - `cargo xtask fmt` — `cargo fmt --all`.
//! - `cargo xtask ci` — fmt-check → clippy → lint → build → test →
//!   fault-matrix smoke → allocation-budget gate → determinism smoke
//!   → chaos smoke → soak smoke → perfbench self-test.
//! - `cargo xtask chaos [--smoke] [grid|stream|fleet]` — kill-point
//!   crash/resume harness (default `grid`): crash the workload at
//!   every durable write, resume it, and require byte-identical
//!   results, also across repeated runs, `THERMAL_THREADS` settings
//!   and with corrupt or torn checkpoints on disk (see DESIGN.md
//!   § crash recovery and § restore-equivalence). `--smoke` sweeps the
//!   boundary kill points only.
//! - `cargo xtask soak [--smoke] [stream|recovery|fleet]` — soak
//!   harness (default `stream`): a corrupted, flaky replay
//!   (`stream`), a mid-trace regime shift the online loop must heal
//!   (`recovery`), or a minted fleet whose fault-targeted buildings
//!   must be exactly the quarantined ones (`fleet`), each with
//!   byte-identical reports across repeated runs and thread counts.
//!   `--smoke` runs the short sweep. Both commands run rows of the
//!   one table in `xtask::harness`.
//! - `cargo xtask miri` — Miri over the `linalg`/`timeseries` unit
//!   tests (skips with a notice when Miri is not installed).

use std::path::{Path, PathBuf};
use std::process::{Command, ExitCode};

use xtask::harness::{Row, TABLE};

fn workspace_root() -> PathBuf {
    // crates/xtask/ -> crates/ -> workspace root.
    let manifest = PathBuf::from(env!("CARGO_MANIFEST_DIR"));
    manifest
        .parent()
        .and_then(Path::parent)
        .map_or(manifest.clone(), Path::to_path_buf)
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let command = args.first().map(String::as_str).unwrap_or("help");
    match command {
        "lint" => lint(&args[1..]),
        "fmt" => run_steps(&[step("fmt", &["fmt", "--all"])]),
        "ci" => ci(),
        "chaos" | "soak" => harness(command, &args[1..]),
        "miri" => miri(),
        "help" | "--help" | "-h" => {
            print_help();
            ExitCode::SUCCESS
        }
        other => {
            eprintln!("xtask: unknown command `{other}`\n");
            print_help();
            ExitCode::FAILURE
        }
    }
}

fn print_help() {
    eprintln!(
        "usage: cargo xtask <command>\n\n\
         commands:\n\
         \x20 lint [--root <dir>]  run the token-level static-analysis gate\n\
         \x20      [--json]        print the canonical JSON report to stdout\n\
         \x20      [--report <p>]  write the JSON report to <p> (atomic)\n\
         \x20      [--update-baseline]  rewrite xtask/lint-baseline.json\n\
         \x20                      (ratcheted: per-rule counts may only shrink)\n\
         \x20 fmt                  format the workspace (cargo fmt --all)\n\
         \x20 ci                   fmt-check, clippy, lint, build, test, fault-matrix,\n\
         \x20                      determinism/chaos/soak smokes, perfbench self-test\n\
         \x20 chaos [--smoke] [grid|stream|fleet]\n\
         \x20                      kill-point crash/resume harness (default grid;\n\
         \x20                      --smoke: boundary kill points only)\n\
         \x20 soak [--smoke] [stream|recovery|fleet]\n\
         \x20                      soak harness (default stream; --smoke: short sweep)\n\
         \x20 miri                 Miri over linalg/timeseries unit tests\n\
         \x20 help                 show this message"
    );
}

fn lint(args: &[String]) -> ExitCode {
    let mut root = workspace_root();
    let mut json = false;
    let mut report: Option<PathBuf> = None;
    let mut update = false;
    let mut it = args.iter();
    while let Some(arg) = it.next() {
        match arg.as_str() {
            "--root" => match it.next() {
                Some(dir) => root = PathBuf::from(dir),
                None => {
                    eprintln!("xtask lint: --root needs a directory");
                    return ExitCode::FAILURE;
                }
            },
            "--json" => json = true,
            "--report" => match it.next() {
                Some(path) => report = Some(PathBuf::from(path)),
                None => {
                    eprintln!("xtask lint: --report needs a path");
                    return ExitCode::FAILURE;
                }
            },
            "--update-baseline" => update = true,
            other => {
                eprintln!(
                    "xtask lint: unknown argument `{other}` (expected --root <dir>, --json, \
                     --report <path>, --update-baseline)"
                );
                return ExitCode::FAILURE;
            }
        }
    }

    if update {
        return match xtask::checks::update_baseline(&root) {
            Ok(xtask::checks::BaselineUpdate::Written { entries }) => {
                eprintln!("xtask lint: baseline rewritten with {entries} entrie(s)");
                ExitCode::SUCCESS
            }
            Ok(xtask::checks::BaselineUpdate::Refused { reason }) => {
                eprintln!("xtask lint: baseline update refused: {reason}");
                ExitCode::FAILURE
            }
            Err(e) => {
                eprintln!("xtask lint: i/o error: {e}");
                ExitCode::FAILURE
            }
        };
    }

    match xtask::checks::run_workspace(&root) {
        Ok(lint_report) => {
            if json {
                print!("{}", lint_report.render_json());
            }
            if let Some(path) = &report {
                let path = if path.is_absolute() {
                    path.clone()
                } else {
                    root.join(path)
                };
                if let Some(parent) = path.parent() {
                    let _ = std::fs::create_dir_all(parent);
                }
                if let Err(e) =
                    thermal_ckpt::write_atomic(&path, lint_report.render_json().as_bytes())
                {
                    eprintln!("xtask lint: could not write {}: {e}", path.display());
                    return ExitCode::FAILURE;
                }
                eprintln!("xtask lint: report written to {}", path.display());
            }
            let active: Vec<_> = lint_report.active().collect();
            if active.is_empty() {
                let (_, allowlisted, baselined) = lint_report.counts();
                eprintln!("xtask lint: clean ({allowlisted} allowlisted, {baselined} baselined)");
                ExitCode::SUCCESS
            } else {
                for v in &active {
                    eprintln!("{v}");
                }
                eprintln!(
                    "xtask lint: {} violation(s); see xtask/lint-allow.toml and \
                     xtask/lint-baseline.json for the exception policy",
                    active.len()
                );
                ExitCode::FAILURE
            }
        }
        Err(e) => {
            eprintln!("xtask lint: i/o error: {e}");
            ExitCode::FAILURE
        }
    }
}

struct Step {
    name: &'static str,
    args: Vec<String>,
}

fn step(name: &'static str, args: &[&str]) -> Step {
    Step {
        name,
        args: args.iter().map(|&s| s.to_owned()).collect(),
    }
}

/// Runs `cargo` steps sequentially from the workspace root, stopping
/// at the first failure.
fn run_steps(steps: &[Step]) -> ExitCode {
    let root = workspace_root();
    for s in steps {
        eprintln!("xtask: cargo {}", s.args.join(" "));
        let status = Command::new(env!("CARGO"))
            .args(&s.args)
            .current_dir(&root)
            .status();
        match status {
            Ok(st) if st.success() => {}
            Ok(st) => {
                eprintln!("xtask: step `{}` failed with {st}", s.name);
                return ExitCode::FAILURE;
            }
            Err(e) => {
                eprintln!("xtask: step `{}` could not start: {e}", s.name);
                return ExitCode::FAILURE;
            }
        }
    }
    ExitCode::SUCCESS
}

fn ci() -> ExitCode {
    // fmt-check and clippy walls first (cheapest feedback), then the
    // custom gate, then build + test.
    let steps = [
        step("fmt-check", &["fmt", "--all", "--check"]),
        step(
            "clippy",
            &[
                "clippy",
                "--workspace",
                "--all-targets",
                "--offline",
                "--",
                "-D",
                "warnings",
            ],
        ),
    ];
    let code = run_steps(&steps);
    if code != ExitCode::SUCCESS {
        return code;
    }
    // Lint gate, with the machine-readable report dropped where the
    // CI workflow picks it up as an artifact.
    eprintln!("xtask: lint");
    let code = lint(&["--report".to_owned(), "target/lint-report.json".to_owned()]);
    if code != ExitCode::SUCCESS {
        return code;
    }
    let code = run_steps(&[
        step("build", &["build", "--release", "--offline"]),
        step("test", &["test", "-q", "--offline"]),
        // Robustness smoke: the fault-class × intensity sweep must
        // complete end-to-end on a quick campaign (sensor death and
        // total blackout included) — see DESIGN.md § robustness.
        step(
            "fault-matrix",
            &[
                "run",
                "--release",
                "--offline",
                "-p",
                "thermal-bench",
                "--bin",
                "repro",
                "--",
                "--quick",
                "fault_matrix",
            ],
        ),
        // Allocation-budget gate: the counting-allocator binary proves a
        // warmed-up steady-state event performs zero heap allocations
        // (see DESIGN.md § allocation budget). The full test step above
        // already ran it; this dedicated step keeps the budget visible —
        // and individually bisectable — in the CI log.
        step(
            "alloc-free",
            &[
                "test",
                "-q",
                "--offline",
                "--release",
                "-p",
                "thermal-stream",
                "--test",
                "alloc_free",
            ],
        ),
    ]);
    if code != ExitCode::SUCCESS {
        return code;
    }
    // Harness smokes, one per row of the harness table: determinism
    // (repro CSVs under THERMAL_THREADS=1 vs 4), the three chaos
    // kill sweeps at their boundary kill points, and the short soak,
    // recovery and fleet sweeps (the dedicated CI jobs run them at
    // full size).
    for row in TABLE {
        eprintln!("xtask: {} {} smoke", row.command, row.name);
        let code = run_row(row, true);
        if code != ExitCode::SUCCESS {
            return code;
        }
    }
    // Benchmark self-test: perfbench is a workspace of its own, so the
    // workspace build above never compiles it. Its tests catch an API
    // change that breaks the benchmark before anyone runs it.
    run_steps(&[step(
        "perfbench-test",
        &[
            "test",
            "--release",
            "--offline",
            "--manifest-path",
            "perfbench/Cargo.toml",
        ],
    )])
}

/// `cargo xtask chaos|soak [--smoke] [<row>]`: runs one row of the
/// harness table; the default is the command's first row.
fn harness(command: &str, args: &[String]) -> ExitCode {
    let rows = || TABLE.iter().filter(|r| r.command == command);
    let names: Vec<&String> = args.iter().filter(|a| *a != "--smoke").collect();
    let row = match names.as_slice() {
        [] => rows().next(),
        [name] => rows().find(|r| r.name == name.as_str()),
        _ => None,
    };
    let Some(row) = row else {
        let known: Vec<&str> = rows().map(|r| r.name).collect();
        eprintln!("xtask {command}: expected [--smoke] [{}]", known.join("|"));
        return ExitCode::FAILURE;
    };
    run_row(row, args.iter().any(|a| a == "--smoke"))
}

fn run_row(row: &Row, smoke: bool) -> ExitCode {
    match xtask::harness::run_row(&workspace_root(), row, smoke) {
        Ok(()) => {
            eprintln!("xtask {} {}: clean", row.command, row.name);
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("xtask {} {}: FAILED: {e}", row.command, row.name);
            ExitCode::FAILURE
        }
    }
}

fn miri() -> ExitCode {
    // Miri needs the nightly component; degrade to an explicit skip
    // when it is absent so the aggregate stays usable offline. The
    // scheduled CI job installs the component and runs this for real.
    let probe = Command::new(env!("CARGO"))
        .args(["miri", "--version"])
        .output();
    let available = matches!(&probe, Ok(out) if out.status.success());
    if !available {
        eprintln!(
            "xtask miri: `cargo miri` unavailable in this toolchain; skipping.\n\
             Install with `rustup +nightly component add miri` to run locally."
        );
        return ExitCode::SUCCESS;
    }
    run_steps(&[step(
        "miri",
        &[
            "miri",
            "test",
            "-p",
            "thermal-linalg",
            "-p",
            "thermal-timeseries",
            "--lib",
        ],
    )])
}
