//! Chaos-soak harness driver — `cargo xtask soak`.
//!
//! Proves the streaming runtime's robustness contract end-to-end with
//! real processes replaying a full trace through corrupted ingest:
//!
//! 1. **Replay.** Run the `soak` workload (`thermal-bench`): a fitted
//!    reduced model served live from a CSV trace that is corrupted at
//!    several intensities, jumbled out of order, duplicated, and
//!    delivered by a flaky source — while the scripted outage kills
//!    the deployed representative mid-trace. The workload itself
//!    asserts zero panics (exit code), a bounded buffered depth, and
//!    a prediction for every cluster on every slot.
//! 2. **Determinism.** Run the workload three times — twice with
//!    `THERMAL_THREADS=1` and once with `THERMAL_THREADS=4` — and
//!    require the three soak reports to be **byte-identical**: the
//!    final health/prediction state may not depend on repetition or
//!    thread count.
//!
//! Nothing here measures wall-clock time, so the harness is
//! meaningful on a single-core CI runner. `--smoke` trims the sweep
//! (one simulated day, two intensities) for the in-`ci` pass; the
//! dedicated CI job runs the full sweep.
//!
//! `cargo xtask soak --recovery` drives the sibling `recovery`
//! workload instead: a deterministic mid-trace regime shift replayed
//! through the online identification loop, asserting the served model
//! heals itself (drift alarm → supervised refit → residual RMSE back
//! inside the tolerance band within the recovery budget) with the
//! same three-run byte-compare determinism contract.
//!
//! `cargo xtask soak --fleet` drives the `fleet_soak` workload
//! (`thermal-fleet`): a whole fleet of minted buildings served
//! concurrently with fault plans injected into a chosen subset,
//! asserting the **blast radius is exactly that subset** — every
//! untargeted building's report byte-identical to a fault-free
//! baseline, and all artifacts byte-identical across repeated runs
//! and thread counts. `--list` prints the scenario registry;
//! `--only <scenario>` picks one by name.

use std::fs;
use std::path::Path;
use std::process::Command;

use crate::harness::{build_release_bin, reset_dir};

/// The scenario registry behind `--list` / `--only <scenario>`: one
/// `(name, description)` row per soak harness this module can drive.
pub const SCENARIOS: &[(&str, &str)] = &[
    (
        "stream",
        "corrupted/flaky stream replay with a scripted outage (default)",
    ),
    (
        "recovery",
        "mid-trace regime shift healed by the online identification loop",
    ),
    (
        "fleet",
        "multi-building chaos soak asserting the bulkhead blast radius",
    ),
];

/// Fixed workload seed: the harness compares bytes, so every run must
/// agree on it.
const WORKLOAD_SEED: &str = "7";

/// Full-sweep parameters: three simulated days across four corruption
/// intensities (milli-units).
const FULL_DAYS: &str = "3";
const FULL_INTENSITIES: &str = "0,50,150,400";

/// Smoke parameters: one day, the clean and a heavy intensity.
const SMOKE_DAYS: &str = "1";
const SMOKE_INTENSITIES: &str = "0,150";

/// Recovery-scenario sweep: the full run gives the shift a full day
/// of pre-shift baseline and a full day to heal; smoke halves both.
const RECOVERY_FULL_DAYS: &str = "2";
const RECOVERY_SMOKE_DAYS: &str = "1";

/// Fleet-scenario sweep: the full run serves 16 minted buildings with
/// fault plans injected into three of them; smoke trims to 8
/// buildings / two targets and one simulated day.
const FLEET_FULL_BUILDINGS: u32 = 16;
const FLEET_FULL_TARGETS: &str = "2,5,11";
const FLEET_FULL_DAYS: &str = "2";
const FLEET_SMOKE_BUILDINGS: u32 = 8;
const FLEET_SMOKE_TARGETS: &str = "2,5";
const FLEET_SMOKE_DAYS: &str = "1";
const FLEET_INTENSITY: &str = "400";

/// Runs the full harness.
///
/// # Errors
///
/// Returns a description of the first failed invariant: a workload
/// run that exited non-zero (a panic or an in-process assertion), a
/// missing `soak: ok` marker, or a report that differs between runs
/// or thread counts.
pub fn run(root: &Path, smoke: bool) -> Result<(), String> {
    let bin = build_release_bin(root, "thermal-bench", "soak")?;
    let base = root.join("target").join("soak");
    let (days, intensities) = if smoke {
        (SMOKE_DAYS, SMOKE_INTENSITIES)
    } else {
        (FULL_DAYS, FULL_INTENSITIES)
    };

    // One workload run per determinism axis: repetition (t1 vs
    // t1-repeat) and thread count (t1 vs t4).
    let runs: &[(&str, &str)] = &[("t1", "1"), ("t1-repeat", "1"), ("t4", "4")];
    let mut reports: Vec<(String, Vec<u8>)> = Vec::new();
    for &(label, threads) in runs {
        let report = base.join(format!("report-{label}.json"));
        remove_stale(&report)?;
        eprintln!(
            "xtask soak: run `{label}` (THERMAL_THREADS={threads}, days={days}, \
             intensities={intensities})"
        );
        let stdout = run_workload(&bin, &report, threads, days, intensities)?;
        if !stdout.lines().any(|l| l.trim() == "soak: ok") {
            return Err(format!(
                "run `{label}` exited cleanly but never printed `soak: ok`:\n{stdout}"
            ));
        }
        if let Some(slots) = parse_marker(&stdout, "soak: slots = ") {
            eprintln!("xtask soak: run `{label}` replayed {slots} slot(s) per intensity");
        }
        let bytes = fs::read(&report)
            .map_err(|e| format!("run `{label}` left no report at {}: {e}", report.display()))?;
        if bytes.is_empty() {
            return Err(format!("run `{label}` wrote an empty report"));
        }
        reports.push((label.to_owned(), bytes));
    }

    let (ref_label, ref_bytes) = &reports[0];
    for (label, bytes) in &reports[1..] {
        if bytes != ref_bytes {
            return Err(format!(
                "soak report differs between run `{ref_label}` and run `{label}`: \
                 final health/prediction state is not deterministic"
            ));
        }
    }
    eprintln!(
        "xtask soak: {} byte-identical report(s) across repeated runs and thread counts",
        reports.len()
    );
    Ok(())
}

/// Runs the drift-recovery harness: three `recovery` workload runs
/// (repetition and thread-count axes), each of which must exit zero —
/// the workload itself asserts the drift alarm, the supervised refit
/// install, and the bounded-slot RMSE recovery — and all three
/// recovery reports must be byte-identical.
///
/// # Errors
///
/// Returns a description of the first failed invariant: a workload
/// run that exited non-zero (a panic or a violated self-healing
/// assertion), a missing `recovery: ok` marker, or a report that
/// differs between runs or thread counts.
pub fn run_recovery(root: &Path, smoke: bool) -> Result<(), String> {
    let bin = build_release_bin(root, "thermal-bench", "recovery")?;
    let base = root.join("target").join("recovery");
    let days = if smoke {
        RECOVERY_SMOKE_DAYS
    } else {
        RECOVERY_FULL_DAYS
    };

    let runs: &[(&str, &str)] = &[("t1", "1"), ("t1-repeat", "1"), ("t4", "4")];
    let mut reports: Vec<(String, Vec<u8>)> = Vec::new();
    for &(label, threads) in runs {
        let report = base.join(format!("report-{label}.json"));
        remove_stale(&report)?;
        eprintln!("xtask soak: recovery run `{label}` (THERMAL_THREADS={threads}, days={days})");
        let ckpt = base.join(format!("ckpt-{label}"));
        let output = Command::new(&bin)
            .arg(&report)
            .args(["--seed", WORKLOAD_SEED])
            .args(["--days", days])
            .arg("--ckpt")
            .arg(&ckpt)
            .env("THERMAL_THREADS", threads)
            .output()
            .map_err(|e| format!("could not start {}: {e}", bin.display()))?;
        if !output.status.success() {
            return Err(format!(
                "recovery run `{label}` (THERMAL_THREADS={threads}) exited with {:?}, \
                 expected success\nstderr:\n{}",
                output.status.code(),
                String::from_utf8_lossy(&output.stderr)
            ));
        }
        let stdout = String::from_utf8_lossy(&output.stdout).into_owned();
        if !stdout.lines().any(|l| l.trim() == "recovery: ok") {
            return Err(format!(
                "recovery run `{label}` exited cleanly but never printed `recovery: ok`:\n{stdout}"
            ));
        }
        if let Some(slot) = parse_marker(&stdout, "recovery: shift_slot = ") {
            eprintln!("xtask soak: recovery run `{label}` shifted regimes at slot {slot}");
        }
        let bytes = fs::read(&report).map_err(|e| {
            format!(
                "recovery run `{label}` left no report at {}: {e}",
                report.display()
            )
        })?;
        if bytes.is_empty() {
            return Err(format!("recovery run `{label}` wrote an empty report"));
        }
        reports.push((label.to_owned(), bytes));
    }

    let (ref_label, ref_bytes) = &reports[0];
    for (label, bytes) in &reports[1..] {
        if bytes != ref_bytes {
            return Err(format!(
                "recovery report differs between run `{ref_label}` and run `{label}`: \
                 the self-healing trajectory is not deterministic"
            ));
        }
    }
    eprintln!(
        "xtask soak: {} byte-identical recovery report(s) across repeated runs and thread counts",
        reports.len()
    );
    Ok(())
}

/// Runs the fleet chaos-soak harness: four `fleet_soak` workload runs
/// — a fault-free baseline plus a faulted run repeated across the
/// repetition and thread-count axes — and asserts the **blast-radius
/// guarantee** byte-for-byte:
///
/// 1. Every faulted run exits zero and reports exactly the targeted
///    buildings as having left `Healthy` (the workload also asserts
///    this in-process; the harness re-checks the marker).
/// 2. Every *untargeted* building's report in the faulted run is
///    byte-identical to the same building's report in the fault-free
///    baseline: fault injection in the targets perturbed nothing
///    else, not even a float's last bit.
/// 3. All faulted-run artifacts (per-building reports, quarantine
///    event log, fleet summary) are byte-identical across repeated
///    runs and `THERMAL_THREADS=1` vs `4`.
///
/// # Errors
///
/// Returns a description of the first failed invariant: a workload
/// run that exited non-zero, a missing `fleet: ok` marker, a
/// quarantine set differing from the target set, or any byte
/// mismatch above.
pub fn run_fleet(root: &Path, smoke: bool) -> Result<(), String> {
    let bin = build_release_bin(root, "thermal-fleet", "fleet_soak")?;
    let base = root.join("target").join("fleet-soak");
    let (buildings, targets, days) = if smoke {
        (FLEET_SMOKE_BUILDINGS, FLEET_SMOKE_TARGETS, FLEET_SMOKE_DAYS)
    } else {
        (FLEET_FULL_BUILDINGS, FLEET_FULL_TARGETS, FLEET_FULL_DAYS)
    };

    // The fault-free baseline, then the faulted run across the
    // repetition and thread-count determinism axes.
    let runs: &[(&str, &str, &str)] = &[
        ("clean", "none", "1"),
        ("t1", targets, "1"),
        ("t1-repeat", targets, "1"),
        ("t4", targets, "4"),
    ];
    for &(label, run_targets, threads) in runs {
        let outdir = base.join(label);
        reset_dir(&outdir)?;
        eprintln!(
            "xtask soak: fleet run `{label}` (THERMAL_THREADS={threads}, \
             buildings={buildings}, days={days}, targets={run_targets})"
        );
        let output = Command::new(&bin)
            .arg(&outdir)
            .args(["--seed", WORKLOAD_SEED])
            .args(["--buildings", &buildings.to_string()])
            .args(["--days", days])
            .args(["--targets", run_targets])
            .args(["--intensity", FLEET_INTENSITY])
            .env("THERMAL_THREADS", threads)
            .output()
            .map_err(|e| format!("could not start {}: {e}", bin.display()))?;
        if !output.status.success() {
            return Err(format!(
                "fleet run `{label}` (THERMAL_THREADS={threads}) exited with {:?}, \
                 expected success\nstderr:\n{}",
                output.status.code(),
                String::from_utf8_lossy(&output.stderr)
            ));
        }
        let stdout = String::from_utf8_lossy(&output.stdout).into_owned();
        if !stdout.lines().any(|l| l.trim() == "fleet: ok") {
            return Err(format!(
                "fleet run `{label}` exited cleanly but never printed `fleet: ok`:\n{stdout}"
            ));
        }
        let quarantined = parse_marker(&stdout, "fleet: quarantined = ")
            .ok_or_else(|| format!("fleet run `{label}` never printed its quarantine set"))?;
        let expected = if run_targets == "none" {
            "none".to_owned()
        } else {
            run_targets.to_owned()
        };
        if quarantined != expected {
            return Err(format!(
                "fleet run `{label}`: quarantine set `{quarantined}` differs from the \
                 fault-target set `{expected}` — the blast radius is wrong"
            ));
        }
    }

    // Invariant 2: untargeted buildings are byte-identical between
    // the fault-free baseline and the faulted run.
    let target_ids: Vec<u32> = targets
        .split(',')
        .filter_map(|p| p.trim().parse().ok())
        .collect();
    let mut untouched = 0_u32;
    for id in 0..buildings {
        if target_ids.contains(&id) {
            continue;
        }
        let name = format!("building-{id:03}.json");
        compare_files(
            &base.join("clean").join(&name),
            &base.join("t1").join(&name),
        )
        .map_err(|e| format!("blast radius violated for untargeted building {id}: {e}"))?;
        untouched += 1;
    }
    eprintln!(
        "xtask soak: {untouched} untargeted building report(s) byte-identical to the \
         fault-free baseline"
    );

    // Invariant 3: every faulted-run artifact is identical across
    // repeated runs and thread counts.
    let mut artifacts: Vec<String> = (0..buildings)
        .map(|id| format!("building-{id:03}.json"))
        .collect();
    artifacts.push("quarantine-log.json".to_owned());
    artifacts.push("fleet-report.json".to_owned());
    for name in &artifacts {
        for other in ["t1-repeat", "t4"] {
            compare_files(&base.join("t1").join(name), &base.join(other).join(name))
                .map_err(|e| format!("fleet artifact differs between `t1` and `{other}`: {e}"))?;
        }
    }
    eprintln!(
        "xtask soak: {} fleet artifact(s) byte-identical across repeated runs and \
         thread counts",
        artifacts.len()
    );
    Ok(())
}

/// Runs the workload once; requires exit code 0 (anything else is a
/// panic, abort, or violated in-process invariant). Returns stdout.
fn run_workload(
    bin: &Path,
    report: &Path,
    threads: &str,
    days: &str,
    intensities: &str,
) -> Result<String, String> {
    let output = Command::new(bin)
        .arg(report)
        .args(["--seed", WORKLOAD_SEED])
        .args(["--days", days])
        .args(["--intensities", intensities])
        .env("THERMAL_THREADS", threads)
        .output()
        .map_err(|e| format!("could not start {}: {e}", bin.display()))?;
    if !output.status.success() {
        return Err(format!(
            "workload (THERMAL_THREADS={threads}) exited with {:?}, expected success\n\
             stderr:\n{}",
            output.status.code(),
            String::from_utf8_lossy(&output.stderr)
        ));
    }
    Ok(String::from_utf8_lossy(&output.stdout).into_owned())
}

/// Extracts the value after `prefix` on the first matching stdout line.
fn parse_marker(stdout: &str, prefix: &str) -> Option<String> {
    stdout
        .lines()
        .find_map(|l| l.split(prefix).nth(1))
        .map(|v| v.trim().to_owned())
}

/// Requires two report files to exist and hold identical bytes.
fn compare_files(a: &Path, b: &Path) -> Result<(), String> {
    let bytes_a = fs::read(a).map_err(|e| format!("read {}: {e}", a.display()))?;
    let bytes_b = fs::read(b).map_err(|e| format!("read {}: {e}", b.display()))?;
    if bytes_a.is_empty() {
        return Err(format!("{} is empty", a.display()));
    }
    if bytes_a != bytes_b {
        return Err(format!(
            "{} and {} differ ({} vs {} bytes)",
            a.display(),
            b.display(),
            bytes_a.len(),
            bytes_b.len()
        ));
    }
    Ok(())
}

/// Deletes a stale report so a failed run cannot pass on old bytes.
fn remove_stale(report: &Path) -> Result<(), String> {
    if let Some(parent) = report.parent() {
        fs::create_dir_all(parent).map_err(|e| format!("create {}: {e}", parent.display()))?;
    }
    match fs::remove_file(report) {
        Ok(()) => Ok(()),
        Err(e) if e.kind() == std::io::ErrorKind::NotFound => Ok(()),
        Err(e) => Err(format!("remove stale {}: {e}", report.display())),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn marker_parsing_finds_values_and_tolerates_noise() {
        let out = "soak: slots = 288\nsoak: ok\n";
        assert_eq!(parse_marker(out, "soak: slots = ").as_deref(), Some("288"));
        assert_eq!(parse_marker(out, "soak: missing = "), None);
    }

    #[test]
    fn scenario_registry_is_unique_and_describes_every_entry() {
        let mut names: Vec<&str> = SCENARIOS.iter().map(|&(n, _)| n).collect();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), SCENARIOS.len());
        assert!(SCENARIOS
            .iter()
            .all(|&(n, d)| !n.is_empty() && !d.is_empty()));
        assert!(names.contains(&"stream"));
        assert!(names.contains(&"recovery"));
        assert!(names.contains(&"fleet"));
    }

    #[test]
    fn fleet_sweep_parameters_shrink_under_smoke() {
        const { assert!(FLEET_SMOKE_BUILDINGS < FLEET_FULL_BUILDINGS) }
        assert!(FLEET_SMOKE_TARGETS.split(',').count() < FLEET_FULL_TARGETS.split(',').count());
        // Every target id must exist in its fleet, or the workload's
        // "targeted building never left healthy" assertion is vacuous.
        for (targets, buildings) in [
            (FLEET_SMOKE_TARGETS, FLEET_SMOKE_BUILDINGS),
            (FLEET_FULL_TARGETS, FLEET_FULL_BUILDINGS),
        ] {
            for part in targets.split(',') {
                let id: u32 = part.parse().unwrap();
                assert!(id < buildings, "target {id} outside fleet of {buildings}");
            }
        }
    }

    #[test]
    fn sweep_parameters_differ_between_smoke_and_full() {
        // The smoke sweep must be a strict subset of the work (fewer
        // days, fewer intensities), or ci would not be faster.
        let smoke_days = SMOKE_DAYS.parse::<u32>().unwrap_or(u32::MAX);
        let full_days = FULL_DAYS.parse::<u32>().unwrap_or(0);
        assert!(smoke_days < full_days);
        assert!(SMOKE_INTENSITIES.split(',').count() < FULL_INTENSITIES.split(',').count());
    }
}
