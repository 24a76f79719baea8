//! Chaos (kill-point) harness driver — `cargo xtask chaos`.
//!
//! Proves the crash-safety contract of the checkpoint layer
//! end-to-end, with real processes dying at real `fsync` boundaries:
//!
//! 1. **Census.** Run the `chaos_grid` workload (a checkpointed
//!    pipeline fit + supervised fault grid from `thermal-bench`) once,
//!    cleanly, and parse its durable-write count `N`.
//! 2. **Kill sweep.** For every kill point `k` (all of `1..=N`, or a
//!    boundary sample in `--smoke` mode), run the workload with
//!    `THERMAL_KILL_AT=k` so it aborts (exit code 86) at its `k`-th
//!    durable write, then rerun it without the kill switch. The
//!    resumed store must be **byte-identical** to the uninterrupted
//!    one (quarantined debris aside) — crash-and-resume is
//!    indistinguishable from never crashing.
//! 3. **Corruption recovery.** Truncate a checkpoint payload, flip a
//!    byte in another, and truncate the manifest itself; each time the
//!    workload must detect the damage, quarantine it, recompute, and
//!    converge to the same bytes — never trust a corrupt artifact,
//!    never crash on one.
//!
//! Every assertion is deterministic (workload seeds are fixed, results
//! are compared bit-for-bit); nothing here measures wall-clock time,
//! so the harness is meaningful on a single-core CI runner.

use std::collections::BTreeMap;
use std::fs;
use std::io::Read;
use std::path::{Path, PathBuf};
use std::process::Command;

use crate::harness::{build_release_bin, reset_dir};

/// Exit code the workload dies with at a kill point (pinned in
/// `thermal-faults`; redeclared here so the driver does not link the
/// whole workspace).
const KILL_EXIT_CODE: i32 = 86;

/// Environment variable carrying the kill point to the workload.
const KILL_AT_ENV: &str = "THERMAL_KILL_AT";

/// Seeded-kill-point variable; cleared on every run the driver wants
/// to survive.
const KILL_SEED_ENV: &str = "THERMAL_KILL_SEED";

/// Store subdirectory holding quarantined artifacts; excluded from
/// equivalence comparison (debris differs by crash point by design).
const QUARANTINE_DIR: &str = "quarantine";

/// Fixed workload seed: the harness compares bytes, so every run must
/// agree on it.
const WORKLOAD_SEED: &str = "7";

/// Runs the full harness. `smoke` trims the kill sweep to the
/// boundary kill points (first, second, middle, last-but-one, last)
/// for the in-`ci` pass; the dedicated CI job runs every `k`.
///
/// # Errors
///
/// Returns a description of the first failed invariant: a workload
/// run with the wrong exit code, a resumed store that differs from
/// the clean one, or unrecovered corruption.
pub fn run(root: &Path, smoke: bool) -> Result<(), String> {
    let bin = build_release_bin(root, "thermal-bench", "chaos_grid")?;
    let base = root.join("target").join("chaos");

    // 1. Census: one clean run fixes the reference tree and the
    // durable-write count.
    let clean = base.join("clean");
    reset_dir(&clean)?;
    let stdout = run_workload(&bin, &clean, None, 0)?;
    let writes = parse_durable_writes(&stdout)?;
    if writes < 4 {
        return Err(format!(
            "workload committed only {writes} durable writes; the sweep would prove nothing"
        ));
    }
    eprintln!("xtask chaos: clean run committed {writes} durable writes");

    // 2. Kill sweep.
    let kill_points = select_kill_points(writes, smoke);
    eprintln!(
        "xtask chaos: sweeping {} kill point(s): {kill_points:?}",
        kill_points.len()
    );
    for &k in &kill_points {
        let dir = base.join(format!("k{k}"));
        reset_dir(&dir)?;
        run_workload(&bin, &dir, Some(k), KILL_EXIT_CODE)?;
        run_workload(&bin, &dir, None, 0)?;
        assert_same_store(&clean, &dir, &format!("kill point {k}"))?;
    }
    eprintln!("xtask chaos: crash→resume is byte-identical at every swept kill point");

    // 3. Corruption recovery, each case on its own fresh store.
    corruption_case(&bin, &base, &clean, "truncate-payload", |store| {
        let victim = pick_payload(store)?;
        let bytes = fs::read(&victim).map_err(|e| format!("read {}: {e}", victim.display()))?;
        fs::write(&victim, &bytes[..bytes.len() / 2])
            .map_err(|e| format!("truncate {}: {e}", victim.display()))?;
        Ok(victim)
    })?;
    corruption_case(&bin, &base, &clean, "flip-byte", |store| {
        let victim = pick_payload(store)?;
        let mut bytes = fs::read(&victim).map_err(|e| format!("read {}: {e}", victim.display()))?;
        if let Some(last) = bytes.last_mut() {
            *last ^= 0x01;
        }
        fs::write(&victim, &bytes).map_err(|e| format!("corrupt {}: {e}", victim.display()))?;
        Ok(victim)
    })?;
    corruption_case(&bin, &base, &clean, "truncate-manifest", |store| {
        let manifest = store.join("manifest.txt");
        let bytes = fs::read(&manifest).map_err(|e| format!("read {}: {e}", manifest.display()))?;
        fs::write(&manifest, &bytes[..bytes.len() / 2])
            .map_err(|e| format!("truncate {}: {e}", manifest.display()))?;
        Ok(manifest)
    })?;
    eprintln!("xtask chaos: all corruption cases detected, quarantined, and recomputed");
    Ok(())
}

/// Runs the workload against `store`, optionally with a kill point,
/// and checks the exit code. Returns captured stdout.
fn run_workload(
    bin: &Path,
    store: &Path,
    kill_at: Option<u64>,
    expect_code: i32,
) -> Result<String, String> {
    let mut cmd = Command::new(bin);
    cmd.arg(store)
        .args(["--seed", WORKLOAD_SEED])
        .env_remove(KILL_AT_ENV)
        .env_remove(KILL_SEED_ENV);
    if let Some(k) = kill_at {
        cmd.env(KILL_AT_ENV, k.to_string());
    }
    let output = cmd
        .output()
        .map_err(|e| format!("could not start {}: {e}", bin.display()))?;
    let code = output.status.code();
    if code != Some(expect_code) {
        return Err(format!(
            "workload on {} (kill_at={kill_at:?}) exited with {code:?}, expected {expect_code}\n\
             stderr:\n{}",
            store.display(),
            String::from_utf8_lossy(&output.stderr)
        ));
    }
    Ok(String::from_utf8_lossy(&output.stdout).into_owned())
}

/// Extracts `N` from the workload's `durable writes = N` report line.
fn parse_durable_writes(stdout: &str) -> Result<u64, String> {
    stdout
        .lines()
        .find_map(|l| l.split("durable writes = ").nth(1))
        .and_then(|n| n.trim().parse().ok())
        .ok_or_else(|| format!("workload stdout had no parseable durable-write count:\n{stdout}"))
}

/// Every kill point, or the boundary sample in smoke mode: the first
/// two writes (store creation), the middle, and the last two (final
/// artifact + manifest) — the places where off-by-one bugs live.
fn select_kill_points(writes: u64, smoke: bool) -> Vec<u64> {
    if !smoke {
        return (1..=writes).collect();
    }
    let mut points = vec![1, 2, writes / 2, writes - 1, writes];
    points.sort_unstable();
    points.dedup();
    points
}

/// Seeds a fresh store via a clean run, damages it with `corrupt`,
/// reruns the workload, and requires byte-equivalence with `clean`.
fn corruption_case<F>(
    bin: &Path,
    base: &Path,
    clean: &Path,
    label: &str,
    corrupt: F,
) -> Result<(), String>
where
    F: FnOnce(&Path) -> Result<PathBuf, String>,
{
    let dir = base.join(format!("corrupt-{label}"));
    reset_dir(&dir)?;
    run_workload(bin, &dir, None, 0)?;
    let victim = corrupt(&dir)?;
    eprintln!(
        "xtask chaos: corruption case `{label}` damaged {}",
        victim.display()
    );
    run_workload(bin, &dir, None, 0)?;
    assert_same_store(clean, &dir, &format!("corruption case `{label}`"))
}

/// Picks a deterministic checkpoint payload (first `.ck` file in
/// sorted order) to damage.
fn pick_payload(store: &Path) -> Result<PathBuf, String> {
    let mut payloads: Vec<PathBuf> = fs::read_dir(store)
        .map_err(|e| format!("read_dir {}: {e}", store.display()))?
        .filter_map(|entry| entry.ok().map(|e| e.path()))
        .filter(|p| p.extension().is_some_and(|ext| ext == "ck"))
        .collect();
    payloads.sort();
    payloads
        .into_iter()
        .next()
        .ok_or_else(|| format!("no checkpoint payloads in {}", store.display()))
}

/// Byte-compares two stores, ignoring quarantined debris, and
/// reports every differing path.
fn assert_same_store(clean: &Path, resumed: &Path, what: &str) -> Result<(), String> {
    let lhs = snapshot(clean)?;
    let rhs = snapshot(resumed)?;
    let mut diffs = Vec::new();
    for (name, bytes) in &lhs {
        match rhs.get(name) {
            Some(other) if other == bytes => {}
            Some(_) => diffs.push(format!("{name}: contents differ")),
            None => diffs.push(format!("{name}: missing after resume")),
        }
    }
    for name in rhs.keys() {
        if !lhs.contains_key(name) {
            diffs.push(format!("{name}: extra file after resume"));
        }
    }
    if diffs.is_empty() {
        Ok(())
    } else {
        Err(format!(
            "{what}: resumed store differs from the clean run:\n  {}",
            diffs.join("\n  ")
        ))
    }
}

/// Reads every regular file in a store (skipping `quarantine/`) into
/// a sorted name → contents map.
fn snapshot(store: &Path) -> Result<BTreeMap<String, Vec<u8>>, String> {
    let mut map = BTreeMap::new();
    let entries = fs::read_dir(store).map_err(|e| format!("read_dir {}: {e}", store.display()))?;
    for entry in entries {
        let entry = entry.map_err(|e| format!("read_dir {}: {e}", store.display()))?;
        let path = entry.path();
        let name = entry.file_name().to_string_lossy().into_owned();
        if path.is_dir() {
            if name != QUARANTINE_DIR {
                return Err(format!("unexpected directory in store: {}", path.display()));
            }
            continue;
        }
        let mut bytes = Vec::new();
        fs::File::open(&path)
            .and_then(|mut f| f.read_to_end(&mut bytes))
            .map_err(|e| format!("read {}: {e}", path.display()))?;
        map.insert(name, bytes);
    }
    Ok(map)
}

/// Threads variable cleared for deterministic baselines and pinned
/// for the cross-thread-count equivalence run.
const THREADS_ENV: &str = "THERMAL_THREADS";

/// Which snapshotting workload the restore-equivalence harness is
/// driving (`cargo xtask chaos --stream` / `--fleet`).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SnapshotWorkload {
    /// The single-building chaos soak (`soak --ckpt`).
    Stream,
    /// The multi-building fleet soak (`fleet_soak --snap-every`).
    Fleet,
}

impl SnapshotWorkload {
    fn label(self) -> &'static str {
        match self {
            SnapshotWorkload::Stream => "stream",
            SnapshotWorkload::Fleet => "fleet",
        }
    }

    fn package(self) -> &'static str {
        match self {
            SnapshotWorkload::Stream => "thermal-bench",
            SnapshotWorkload::Fleet => "thermal-fleet",
        }
    }

    fn bin(self) -> &'static str {
        match self {
            SnapshotWorkload::Stream => "soak",
            SnapshotWorkload::Fleet => "fleet_soak",
        }
    }

    /// Workload arguments for one run rooted at `dir`. Everything is
    /// pinned (seed, scale, snapshot cadence) so every run of a case
    /// agrees byte-for-byte.
    fn args(self, dir: &Path) -> Vec<String> {
        let d = |p: PathBuf| p.to_string_lossy().into_owned();
        match self {
            SnapshotWorkload::Stream => vec![
                d(dir.join("report.json")),
                "--days".into(),
                "1".into(),
                "--seed".into(),
                WORKLOAD_SEED.into(),
                "--intensities".into(),
                "0,150".into(),
                "--ckpt".into(),
                d(dir.join("store")),
                "--snap-every".into(),
                "29".into(),
            ],
            SnapshotWorkload::Fleet => vec![
                d(dir.to_path_buf()),
                "--seed".into(),
                WORKLOAD_SEED.into(),
                "--buildings".into(),
                "4".into(),
                "--days".into(),
                "1".into(),
                "--targets".into(),
                "1,2".into(),
                "--snap-every".into(),
                "64".into(),
            ],
        }
    }

    /// The report files whose bytes carry the restore-equivalence
    /// contract, relative-name → absolute path.
    fn reports(self, dir: &Path) -> Result<BTreeMap<String, PathBuf>, String> {
        let mut map = BTreeMap::new();
        match self {
            SnapshotWorkload::Stream => {
                map.insert("report.json".to_owned(), dir.join("report.json"));
            }
            SnapshotWorkload::Fleet => {
                let entries =
                    fs::read_dir(dir).map_err(|e| format!("read_dir {}: {e}", dir.display()))?;
                for entry in entries {
                    let entry = entry.map_err(|e| format!("read_dir {}: {e}", dir.display()))?;
                    let path = entry.path();
                    if path.extension().is_some_and(|ext| ext == "json") {
                        map.insert(entry.file_name().to_string_lossy().into_owned(), path);
                    }
                }
                if map.is_empty() {
                    return Err(format!("no fleet reports under {}", dir.display()));
                }
            }
        }
        Ok(map)
    }

    /// Every checkpoint-store directory a run rooted at `dir` uses.
    fn stores(self, dir: &Path) -> Result<Vec<PathBuf>, String> {
        match self {
            SnapshotWorkload::Stream => Ok(vec![dir.join("store")]),
            SnapshotWorkload::Fleet => {
                let ckpt = dir.join("ckpt");
                let entries =
                    fs::read_dir(&ckpt).map_err(|e| format!("read_dir {}: {e}", ckpt.display()))?;
                let mut stores: Vec<PathBuf> = entries
                    .filter_map(|entry| entry.ok().map(|e| e.path()))
                    .filter(|p| p.is_dir())
                    .collect();
                stores.sort();
                Ok(stores)
            }
        }
    }

    /// Snapshot payload name prefixes this workload writes.
    fn snapshot_prefixes(self) -> &'static [&'static str] {
        match self {
            SnapshotWorkload::Stream => &["progress-", "intensity-"],
            SnapshotWorkload::Fleet => &["serve-"],
        }
    }
}

/// One row of the kill-point matrix report.
struct MatrixRow {
    case: String,
    status: &'static str,
}

/// Runs the snapshot/restore-equivalence harness for one workload:
/// census → repeat-run and thread-count baselines → kill sweep (every
/// durable write, or the boundary sample under `--smoke`) → torn- and
/// corrupt-snapshot cases. Writes a kill-point matrix report and the
/// collected quarantine logs under `target/chaos-<workload>/` for the
/// CI artifact upload.
///
/// # Errors
///
/// Returns a description of the first violated invariant.
pub fn run_snapshots(root: &Path, workload: SnapshotWorkload, smoke: bool) -> Result<(), String> {
    let label = workload.label();
    let bin = build_release_bin(root, workload.package(), workload.bin())?;
    let base = root.join("target").join(format!("chaos-{label}"));
    reset_dir(&base)?;
    let mut matrix: Vec<MatrixRow> = Vec::new();

    // 1. Census: one clean run fixes the reference reports and the
    // durable-write count.
    let clean = base.join("clean");
    reset_dir(&clean)?;
    let stdout = run_snapshot_run(&bin, workload, &clean, None, 0, None)?;
    let writes = parse_durable_writes(&stdout)?;
    if writes < 4 {
        return Err(format!(
            "{label} workload committed only {writes} durable writes; the sweep would prove nothing"
        ));
    }
    eprintln!("xtask chaos --{label}: clean run committed {writes} durable writes");

    // 2. Uninterrupted baselines: a repeat run and a THERMAL_THREADS=4
    // run must already agree byte-for-byte, otherwise kill-point
    // comparisons would chase nondeterminism instead of crash bugs.
    for (case, threads) in [("repeat", None), ("threads-4", Some("4"))] {
        let dir = base.join(case);
        reset_dir(&dir)?;
        run_snapshot_run(&bin, workload, &dir, None, 0, threads)?;
        assert_same_reports(workload, &clean, &dir, case)?;
        matrix.push(MatrixRow {
            case: case.to_owned(),
            status: "ok",
        });
    }
    eprintln!("xtask chaos --{label}: repeat and threads-4 baselines are byte-identical");

    // 3. Kill sweep: crash at the k-th durable write, resume, compare
    // final reports against the uninterrupted run.
    let kill_points = select_kill_points(writes, smoke);
    eprintln!(
        "xtask chaos --{label}: sweeping {} kill point(s): {kill_points:?}",
        kill_points.len()
    );
    for &k in &kill_points {
        let dir = base.join(format!("k{k}"));
        reset_dir(&dir)?;
        run_snapshot_run(&bin, workload, &dir, Some(k), KILL_EXIT_CODE, None)?;
        run_snapshot_run(&bin, workload, &dir, None, 0, None)?;
        assert_same_reports(workload, &clean, &dir, &format!("kill point {k}"))?;
        matrix.push(MatrixRow {
            case: format!("kill-{k}"),
            status: "ok",
        });
    }
    eprintln!(
        "xtask chaos --{label}: crash→resume reports are byte-identical at every swept kill point"
    );

    // 4. Torn/corrupt snapshots: a mid-run kill leaves live snapshots
    // behind; damaging the newest one must be detected by checksum,
    // quarantined with a structured log entry, and recovered from an
    // older snapshot — never parsed.
    let mut quarantine_log = String::new();
    for (case, truncate) in [("bitflip-snapshot", false), ("truncate-snapshot", true)] {
        let dir = base.join(case);
        reset_dir(&dir)?;
        run_snapshot_run(&bin, workload, &dir, Some(writes - 2), KILL_EXIT_CODE, None)?;
        let victim = corrupt_newest_snapshot(workload, &dir, truncate)?;
        eprintln!(
            "xtask chaos --{label}: case `{case}` damaged {}",
            victim.display()
        );
        run_snapshot_run(&bin, workload, &dir, None, 0, None)?;
        assert_same_reports(workload, &clean, &dir, &format!("corruption case `{case}`"))?;
        let victim_name = victim
            .file_name()
            .map(|n| n.to_string_lossy().into_owned())
            .unwrap_or_default();
        let log = collect_quarantine_logs(workload, &dir)?;
        if !log.contains(&format!("name={victim_name}")) {
            return Err(format!(
                "corruption case `{case}`: quarantine log has no structured entry for \
                 {victim_name}:\n{log}"
            ));
        }
        quarantine_log.push_str(&format!("# case {case}\n{log}"));
        matrix.push(MatrixRow {
            case: case.to_owned(),
            status: "ok",
        });
    }
    // Torn manifest: truncate the first store's manifest mid-line; the
    // workload must recover and converge to the same report bytes.
    {
        let case = "truncate-manifest";
        let dir = base.join(case);
        reset_dir(&dir)?;
        run_snapshot_run(&bin, workload, &dir, Some(writes - 2), KILL_EXIT_CODE, None)?;
        let store = workload
            .stores(&dir)?
            .into_iter()
            .next()
            .ok_or_else(|| format!("no stores under {}", dir.display()))?;
        let manifest = store.join("manifest.txt");
        let bytes = fs::read(&manifest).map_err(|e| format!("read {}: {e}", manifest.display()))?;
        fs::write(&manifest, &bytes[..bytes.len() / 2])
            .map_err(|e| format!("truncate {}: {e}", manifest.display()))?;
        eprintln!(
            "xtask chaos --{label}: case `{case}` damaged {}",
            manifest.display()
        );
        run_snapshot_run(&bin, workload, &dir, None, 0, None)?;
        assert_same_reports(workload, &clean, &dir, &format!("corruption case `{case}`"))?;
        matrix.push(MatrixRow {
            case: case.to_owned(),
            status: "ok",
        });
    }
    eprintln!("xtask chaos --{label}: torn and corrupt snapshots quarantined and recovered");

    // 5. Artifacts for the CI upload: the kill-point matrix and the
    // structured quarantine logs the corruption cases produced.
    let mut matrix_json = String::from("{\n");
    matrix_json.push_str(&format!(
        "  \"workload\": \"{label}\",\n  \"smoke\": {smoke},\n  \"durable_writes\": {writes},\n  \"cases\": [\n"
    ));
    for (i, row) in matrix.iter().enumerate() {
        matrix_json.push_str(&format!(
            "    {{\"case\": \"{}\", \"status\": \"{}\"}}{}\n",
            row.case,
            row.status,
            if i + 1 < matrix.len() { "," } else { "" }
        ));
    }
    matrix_json.push_str("  ]\n}\n");
    let matrix_path = base.join("matrix.json");
    fs::write(&matrix_path, matrix_json)
        .map_err(|e| format!("write {}: {e}", matrix_path.display()))?;
    let qlog_path = base.join("quarantine-log.txt");
    fs::write(&qlog_path, quarantine_log)
        .map_err(|e| format!("write {}: {e}", qlog_path.display()))?;
    eprintln!(
        "xtask chaos --{label}: matrix = {}, quarantine log = {}",
        matrix_path.display(),
        qlog_path.display()
    );
    Ok(())
}

/// Runs the snapshotting workload rooted at `dir`, optionally with a
/// kill point and a pinned thread count, checking the exit code.
fn run_snapshot_run(
    bin: &Path,
    workload: SnapshotWorkload,
    dir: &Path,
    kill_at: Option<u64>,
    expect_code: i32,
    threads: Option<&str>,
) -> Result<String, String> {
    let mut cmd = Command::new(bin);
    cmd.args(workload.args(dir))
        .env_remove(KILL_AT_ENV)
        .env_remove(KILL_SEED_ENV)
        .env_remove(THREADS_ENV);
    if let Some(k) = kill_at {
        cmd.env(KILL_AT_ENV, k.to_string());
    }
    if let Some(t) = threads {
        cmd.env(THREADS_ENV, t);
    }
    let output = cmd
        .output()
        .map_err(|e| format!("could not start {}: {e}", bin.display()))?;
    let code = output.status.code();
    if code != Some(expect_code) {
        return Err(format!(
            "{} workload on {} (kill_at={kill_at:?}) exited with {code:?}, expected \
             {expect_code}\nstderr:\n{}",
            workload.label(),
            dir.display(),
            String::from_utf8_lossy(&output.stderr)
        ));
    }
    Ok(String::from_utf8_lossy(&output.stdout).into_owned())
}

/// Byte-compares the final reports of two runs of `workload`.
fn assert_same_reports(
    workload: SnapshotWorkload,
    clean: &Path,
    candidate: &Path,
    what: &str,
) -> Result<(), String> {
    let lhs = workload.reports(clean)?;
    let rhs = workload.reports(candidate)?;
    let mut diffs = Vec::new();
    for (name, path) in &lhs {
        match rhs.get(name) {
            Some(other) => {
                let a = fs::read(path).map_err(|e| format!("read {}: {e}", path.display()))?;
                let b = fs::read(other).map_err(|e| format!("read {}: {e}", other.display()))?;
                if a != b {
                    diffs.push(format!("{name}: contents differ"));
                }
            }
            None => diffs.push(format!("{name}: missing after resume")),
        }
    }
    for name in rhs.keys() {
        if !lhs.contains_key(name) {
            diffs.push(format!("{name}: extra report after resume"));
        }
    }
    if diffs.is_empty() {
        Ok(())
    } else {
        Err(format!(
            "{what}: resumed reports differ from the uninterrupted run:\n  {}",
            diffs.join("\n  ")
        ))
    }
}

/// Damages the newest live snapshot payload any of the run's stores
/// holds (bit-flip or half-truncation) and returns its path.
fn corrupt_newest_snapshot(
    workload: SnapshotWorkload,
    dir: &Path,
    truncate: bool,
) -> Result<PathBuf, String> {
    let mut newest: Option<PathBuf> = None;
    for store in workload.stores(dir)? {
        let entries =
            fs::read_dir(&store).map_err(|e| format!("read_dir {}: {e}", store.display()))?;
        for entry in entries.filter_map(|e| e.ok().map(|e| e.path())) {
            let name = entry
                .file_name()
                .map(|n| n.to_string_lossy().into_owned())
                .unwrap_or_default();
            if workload
                .snapshot_prefixes()
                .iter()
                .any(|p| name.starts_with(p))
                && newest
                    .as_ref()
                    .and_then(|p| p.file_name().map(|n| n.to_string_lossy().into_owned()))
                    .is_none_or(|best| name > best)
            {
                newest = Some(entry);
            }
        }
    }
    let victim = newest.ok_or_else(|| {
        format!(
            "no live snapshot payloads under {} to corrupt (prefixes {:?})",
            dir.display(),
            workload.snapshot_prefixes()
        )
    })?;
    let bytes = fs::read(&victim).map_err(|e| format!("read {}: {e}", victim.display()))?;
    if truncate {
        fs::write(&victim, &bytes[..bytes.len() / 2])
            .map_err(|e| format!("truncate {}: {e}", victim.display()))?;
    } else {
        let mut flipped = bytes;
        if let Some(last) = flipped.last_mut() {
            *last ^= 0x01;
        }
        fs::write(&victim, &flipped).map_err(|e| format!("corrupt {}: {e}", victim.display()))?;
    }
    Ok(victim)
}

/// Concatenates every store's structured quarantine log under `dir`.
fn collect_quarantine_logs(workload: SnapshotWorkload, dir: &Path) -> Result<String, String> {
    let mut out = String::new();
    for store in workload.stores(dir)? {
        let log = store.join(QUARANTINE_DIR).join("log.txt");
        if let Ok(text) = fs::read_to_string(&log) {
            out.push_str(&text);
        }
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn kill_point_selection_covers_boundaries() {
        assert_eq!(select_kill_points(20, false).len(), 20);
        assert_eq!(select_kill_points(20, true), vec![1, 2, 10, 19, 20]);
        // Tiny write counts dedup instead of repeating points.
        assert_eq!(select_kill_points(4, true), vec![1, 2, 3, 4]);
    }

    #[test]
    fn durable_write_count_is_parsed_from_report_line() {
        let out = "chaos-grid: fit restored=[]\nchaos-grid: durable writes = 20\nchaos-grid: ok\n";
        assert_eq!(parse_durable_writes(out), Ok(20));
        assert!(parse_durable_writes("no report").is_err());
    }
}
