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
//! - `cargo xtask chaos [--stream|--fleet] [--smoke]` — kill-point
//!   crash/resume harness: crash the checkpointed workload at every
//!   durable write and require byte-identical recovery (see DESIGN.md
//!   § crash recovery). `--stream` and `--fleet` drive the
//!   snapshotting soak workloads instead and require the resumed final
//!   reports byte-identical to an uninterrupted baseline — including
//!   across `THERMAL_THREADS` settings and with torn or bit-flipped
//!   snapshots on disk (see DESIGN.md § restore-equivalence).
//! - `cargo xtask soak [--smoke] [--list] [--only <scenario>]` —
//!   chaos-soak harness with a scenario registry. `stream` (default)
//!   replays a full trace through corrupted, flaky, out-of-order
//!   ingest and requires a bitwise-deterministic soak report across
//!   repeated runs and thread counts (see DESIGN.md § streaming
//!   runtime). `recovery` (shorthand `--recovery`) runs the
//!   drift-recovery scenario: a mid-trace regime shift must be
//!   detected, refitted, and healed within a bounded number of slots
//!   (see DESIGN.md § online identification). `fleet` (shorthand
//!   `--fleet`) runs the multi-building blast-radius soak: faults
//!   injected into a chosen subset of a minted fleet must quarantine
//!   exactly that subset, byte-for-byte (see DESIGN.md § fleet
//!   serving).
//! - `cargo xtask miri` — Miri over the `linalg`/`timeseries` unit
//!   tests (skips with a notice when Miri is not installed).

use std::path::{Path, PathBuf};
use std::process::{Command, ExitCode};

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
        "chaos" => chaos(&args[1..]),
        "soak" => soak(&args[1..]),
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
         \x20 chaos [--smoke]      kill-point crash/resume harness (--smoke: boundary\n\
         \x20       [--stream]     kill points only; default: every durable write);\n\
         \x20       [--fleet]      --stream/--fleet: snapshotting soak workloads with\n\
         \x20                      report restore-equivalence + torn-snapshot recovery\n\
         \x20 soak [--smoke]       chaos-soak harness: corrupted/flaky stream replay with\n\
         \x20      [--only S]      a bitwise-deterministic report (--smoke: short sweep);\n\
         \x20      [--list]        --only picks a scenario (stream|recovery|fleet),\n\
         \x20      [--recovery]    --list prints the registry, --recovery/--fleet are\n\
         \x20      [--fleet]       shorthands (fleet: multi-building blast-radius soak)\n\
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
    envs: Vec<(String, String)>,
}

fn step(name: &'static str, args: &[&str]) -> Step {
    Step {
        name,
        args: args.iter().map(|&s| s.to_owned()).collect(),
        envs: Vec::new(),
    }
}

/// A [`step`] with extra environment variables, e.g. the
/// `THERMAL_THREADS` pins of the determinism smoke.
fn step_env(name: &'static str, args: &[&str], envs: &[(&str, &str)]) -> Step {
    Step {
        envs: envs
            .iter()
            .map(|&(k, v)| (k.to_owned(), v.to_owned()))
            .collect(),
        ..step(name, args)
    }
}

/// Runs `cargo` steps sequentially from the workspace root, stopping
/// at the first failure.
fn run_steps(steps: &[Step]) -> ExitCode {
    let root = workspace_root();
    for s in steps {
        let env_prefix: String = s.envs.iter().map(|(k, v)| format!("{k}={v} ")).collect();
        eprintln!("xtask: {env_prefix}cargo {}", s.args.join(" "));
        let status = Command::new(env!("CARGO"))
            .args(&s.args)
            .envs(s.envs.iter().map(|(k, v)| (k.as_str(), v.as_str())))
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
    ]);
    if code != ExitCode::SUCCESS {
        return code;
    }
    // Allocation-budget gate: the counting-allocator binary proves a
    // warmed-up steady-state event performs zero heap allocations
    // (see DESIGN.md § allocation budget). The full test step above
    // already ran it; this dedicated step keeps the budget visible —
    // and individually bisectable — in the CI log.
    let code = run_steps(&[step(
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
    )]);
    if code != ExitCode::SUCCESS {
        return code;
    }
    let code = determinism_smoke();
    if code != ExitCode::SUCCESS {
        return code;
    }
    // Crash-safety smoke: kill the checkpointed workload at the
    // boundary durable writes and require byte-identical resume (the
    // dedicated CI job sweeps every kill point).
    eprintln!("xtask: chaos smoke");
    let code = chaos(&["--smoke".to_owned()]);
    if code != ExitCode::SUCCESS {
        return code;
    }
    // Live-serving crash-safety smokes: kill the snapshotting stream
    // and fleet soaks at the boundary durable writes and require the
    // resumed final reports byte-identical to an uninterrupted run
    // (the dedicated CI jobs sweep every kill point).
    eprintln!("xtask: chaos stream smoke");
    let code = chaos(&["--stream".to_owned(), "--smoke".to_owned()]);
    if code != ExitCode::SUCCESS {
        return code;
    }
    eprintln!("xtask: chaos fleet smoke");
    let code = chaos(&["--fleet".to_owned(), "--smoke".to_owned()]);
    if code != ExitCode::SUCCESS {
        return code;
    }
    // Streaming-robustness smoke: a short corrupted/flaky replay must
    // finish panic-free with a bitwise-deterministic soak report (the
    // dedicated CI job runs the full sweep).
    eprintln!("xtask: soak smoke");
    let code = soak(&[
        "--smoke".to_owned(),
        "--only".to_owned(),
        "stream".to_owned(),
    ]);
    if code != ExitCode::SUCCESS {
        return code;
    }
    // Self-healing smoke: a mid-trace regime shift must be detected,
    // refitted, and healed deterministically (the dedicated CI job
    // runs the full two-day scenario).
    eprintln!("xtask: drift-recovery smoke");
    let code = soak(&[
        "--smoke".to_owned(),
        "--only".to_owned(),
        "recovery".to_owned(),
    ]);
    if code != ExitCode::SUCCESS {
        return code;
    }
    // Fleet blast-radius smoke: a small fleet with two fault-targeted
    // buildings must quarantine exactly those two and leave every
    // other building's report byte-identical to a fault-free baseline
    // (the dedicated CI job runs the full fleet sweep).
    eprintln!("xtask: fleet-soak smoke");
    let code = soak(&[
        "--smoke".to_owned(),
        "--only".to_owned(),
        "fleet".to_owned(),
    ]);
    if code != ExitCode::SUCCESS {
        return code;
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

/// Runs the repro pipeline twice — `THERMAL_THREADS=1` and `=4` — and
/// byte-compares the result CSVs, enforcing the `thermal-par`
/// determinism contract end-to-end (see DESIGN.md § performance).
fn determinism_smoke() -> ExitCode {
    let root = workspace_root();
    let out_base = root.join("target").join("determinism");
    let runs = [("1", out_base.join("t1")), ("4", out_base.join("t4"))];
    for (threads, dir) in &runs {
        let code = run_steps(&[step_env(
            "determinism-repro",
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
                "--out",
                &dir.to_string_lossy(),
                "fig3",
                "fault_matrix",
            ],
            &[("THERMAL_THREADS", threads)],
        )]);
        if code != ExitCode::SUCCESS {
            return code;
        }
    }
    for csv in ["fig3.csv", "fault_matrix.csv"] {
        let (a, b) = (runs[0].1.join(csv), runs[1].1.join(csv));
        match (std::fs::read(&a), std::fs::read(&b)) {
            (Ok(lhs), Ok(rhs)) if lhs == rhs => {
                eprintln!("xtask: determinism smoke: {csv} identical across thread counts");
            }
            (Ok(_), Ok(_)) => {
                eprintln!(
                    "xtask: determinism smoke FAILED: {csv} differs between \
                     THERMAL_THREADS=1 and THERMAL_THREADS=4"
                );
                return ExitCode::FAILURE;
            }
            (a_res, b_res) => {
                eprintln!(
                    "xtask: determinism smoke could not read {csv}: {:?} / {:?}",
                    a_res.err(),
                    b_res.err()
                );
                return ExitCode::FAILURE;
            }
        }
    }
    ExitCode::SUCCESS
}

/// Runs the kill-point chaos harness (see `xtask::chaos`). With no
/// workload flag it drives the checkpointed fit grid; `--stream` and
/// `--fleet` drive the snapshotting soak workloads and additionally
/// prove restore-equivalence of the final report bytes.
fn chaos(args: &[String]) -> ExitCode {
    let mut smoke = false;
    let mut workload: Option<xtask::chaos::SnapshotWorkload> = None;
    for arg in args {
        match arg.as_str() {
            "--smoke" => smoke = true,
            "--stream" if workload.is_none() => {
                workload = Some(xtask::chaos::SnapshotWorkload::Stream);
            }
            "--fleet" if workload.is_none() => {
                workload = Some(xtask::chaos::SnapshotWorkload::Fleet);
            }
            _ => {
                eprintln!("xtask chaos: expected [--stream|--fleet] [--smoke]");
                return ExitCode::FAILURE;
            }
        }
    }
    let root = workspace_root();
    let outcome = match workload {
        None => xtask::chaos::run(&root, smoke),
        Some(w) => xtask::chaos::run_snapshots(&root, w, smoke),
    };
    match outcome {
        Ok(()) => {
            eprintln!("xtask chaos: clean");
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("xtask chaos: FAILED: {e}");
            ExitCode::FAILURE
        }
    }
}

/// Runs one soak harness scenario, chosen from the registry in
/// `xtask::soak::SCENARIOS` via `--only <scenario>` (default
/// `stream`; `--recovery` and `--fleet` are shorthands). `--list`
/// prints the registry and exits.
fn soak(args: &[String]) -> ExitCode {
    let mut smoke = false;
    let mut only: Option<String> = None;
    let mut iter = args.iter();
    let pick = |scenario: &str, only: &mut Option<String>| -> bool {
        if let Some(prev) = only.as_deref() {
            if prev != scenario {
                eprintln!(
                    "xtask soak: scenario already set to `{prev}`, cannot also run `{scenario}`"
                );
                return false;
            }
        }
        *only = Some(scenario.to_owned());
        true
    };
    while let Some(arg) = iter.next() {
        match arg.as_str() {
            "--smoke" => smoke = true,
            "--list" => {
                for &(name, description) in xtask::soak::SCENARIOS {
                    println!("{name:<10} {description}");
                }
                return ExitCode::SUCCESS;
            }
            "--recovery" => {
                if !pick("recovery", &mut only) {
                    return ExitCode::FAILURE;
                }
            }
            "--fleet" => {
                if !pick("fleet", &mut only) {
                    return ExitCode::FAILURE;
                }
            }
            "--only" => {
                let Some(name) = iter.next() else {
                    eprintln!("xtask soak: `--only` needs a scenario name (see --list)");
                    return ExitCode::FAILURE;
                };
                if !pick(name, &mut only) {
                    return ExitCode::FAILURE;
                }
            }
            _ => {
                eprintln!(
                    "xtask soak: expected `--smoke`, `--list`, `--only <scenario>`, \
                     `--recovery`, or `--fleet`"
                );
                return ExitCode::FAILURE;
            }
        }
    }
    let scenario = only.as_deref().unwrap_or("stream");
    let result = match scenario {
        "stream" => xtask::soak::run(&workspace_root(), smoke),
        "recovery" => xtask::soak::run_recovery(&workspace_root(), smoke),
        "fleet" => xtask::soak::run_fleet(&workspace_root(), smoke),
        other => {
            let known: Vec<&str> = xtask::soak::SCENARIOS.iter().map(|&(n, _)| n).collect();
            eprintln!(
                "xtask soak: unknown scenario `{other}` (known: {})",
                known.join(", ")
            );
            return ExitCode::FAILURE;
        }
    };
    match result {
        Ok(()) => {
            eprintln!("xtask soak: clean ({scenario})");
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("xtask soak: FAILED: {e}");
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
