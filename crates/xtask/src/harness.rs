//! The harness engine behind `cargo xtask chaos`, `cargo xtask soak`
//! and the determinism smoke of `cargo xtask ci` (DESIGN.md § 18, "One
//! harness engine").
//!
//! Every contract is one row of [`TABLE`]. [`run_row`] runs the row's
//! runs and byte-compares each against the first; for a chaos row it
//! then crashes and resumes the workload at every kill point, damages
//! stored files, and requires the first run's bytes back each time.
//! Nothing here measures wall-clock time, so the harness is meaningful
//! on a single-core runner.

use std::collections::BTreeMap;
use std::fs;
use std::path::{Path, PathBuf};
use std::process::Command;

use thermal_ckpt::{MANIFEST_NAME, QUARANTINE_DIR, QUARANTINE_LOG};
use thermal_faults::killpoint::{KILL_AT_ENV, KILL_EXIT_CODE, KILL_SEED_ENV};
use thermal_par::THREADS_ENV;

/// One run of a row.
#[derive(Debug)]
pub struct Run {
    /// Names the run's directory or report (`{run}` in the arguments).
    pub label: &'static str,
    /// `THERMAL_THREADS` for the run; `None` leaves it unset.
    pub threads: Option<&'static str>,
    /// `(flag, value)` pairs that replace the value after `flag`. A run
    /// with overrides is the baseline of another configuration: it is
    /// compared with the first run only on the `building-NNN.json`
    /// reports of the buildings the first run does not target.
    pub overrides: &'static [(&'static str, &'static str)],
}

impl Run {
    const fn new(label: &'static str, threads: Option<&'static str>) -> Self {
        Run {
            label,
            threads,
            overrides: &[],
        }
    }
}

/// Where a run's contract files live.
#[derive(Debug)]
pub enum Contract {
    /// Every file in `<out>/<run>/`. `quarantine/` and the row's
    /// checkpoint stores are skipped; any other subdirectory is an
    /// error. The named files, and for a fleet one report per
    /// building, must be among them.
    RunDir(&'static [&'static str]),
    /// The one report `<out>/report-<run>.json`.
    Report,
}

/// How a chaos row's corruption cases pick the file they damage.
#[derive(Debug)]
pub enum Victim {
    /// The first `*.ck` payload, in name order, of a completed run.
    Payload,
    /// The newest snapshot (a name with one of these prefixes) across
    /// the stores of a run killed two durable writes before its end.
    Snapshot(&'static [&'static str]),
}

/// One contract: a workload and what its runs must agree on.
#[derive(Debug)]
pub struct Row {
    /// `chaos`, `soak` or `determinism`.
    pub command: &'static str,
    /// The row's name on the command line.
    pub name: &'static str,
    /// Package of the workload binary.
    pub package: &'static str,
    /// Workload binary.
    pub bin: &'static str,
    /// Output directory under `target/`.
    pub out_dir: &'static str,
    /// Stdout prefix of the `<tag>: ok` marker; `None` for a workload
    /// that prints none.
    pub tag: Option<&'static str>,
    /// Arguments of a full run, split on whitespace; `{out}` and
    /// `{run}` are substituted.
    pub full: &'static str,
    /// Arguments of a `--smoke` run.
    pub smoke: &'static str,
    /// The runs of the axes phase; the first is the reference.
    pub runs: &'static [Run],
    /// The files whose bytes carry the contract.
    pub contract: Contract,
    /// The checkpoint stores of a run, relative to its directory: `""`
    /// is the directory itself, `d/*` every subdirectory of `d`.
    pub stores: &'static str,
    /// The file each payload corruption case damages; `Some` makes the
    /// row a chaos row with a kill sweep.
    pub victim: Option<Victim>,
}

const CHAOS_RUNS: &[Run] = &[
    Run::new("clean", None),
    Run::new("repeat", None),
    Run::new("threads-4", Some("4")),
];

const SOAK_RUNS: &[Run] = &[
    Run::new("t1", Some("1")),
    Run::new("t1-repeat", Some("1")),
    Run::new("t4", Some("4")),
];

const FLEET_REPORTS: &[&str] = &["fleet-report.json", "quarantine-log.json"];

const STREAM_CHAOS: &str = "{out}/{run}/report.json --days 1 --seed 7 --intensities 0,150 \
                            --ckpt {out}/{run}/store --snap-every 29";

const FLEET_CHAOS: &str =
    "{out}/{run} --seed 7 --buildings 4 --days 1 --targets 1,2 --snap-every 64";

/// The contract table, in the order `cargo xtask ci` runs its smokes.
/// Every run compares bytes, so every workload seed is fixed (`--seed 7`,
/// or `repro`'s built-in default).
pub const TABLE: &[Row] = &[
    // `thermal-par` determinism: the repro CSVs are the same bytes for
    // one and four threads.
    Row {
        command: "determinism",
        name: "repro",
        package: "thermal-bench",
        bin: "repro",
        out_dir: "determinism",
        tag: None,
        full: "--quick --out {out}/{run} fig3 fault_matrix",
        smoke: "--quick --out {out}/{run} fig3 fault_matrix",
        runs: &[Run::new("t1", Some("1")), Run::new("t4", Some("4"))],
        contract: Contract::RunDir(&["fig3.csv", "fault_matrix.csv"]),
        stores: "",
        victim: None,
    },
    // Checkpointed fit + supervised fault grid: the store is the
    // contract (DESIGN.md § crash recovery).
    Row {
        command: "chaos",
        name: "grid",
        package: "thermal-bench",
        bin: "chaos_grid",
        out_dir: "chaos",
        tag: Some("chaos-grid"),
        full: "{out}/{run} --seed 7",
        smoke: "{out}/{run} --seed 7",
        runs: CHAOS_RUNS,
        contract: Contract::RunDir(&["grid.csv", "manifest.txt"]),
        stores: "",
        victim: Some(Victim::Payload),
    },
    // Snapshotting stream soak: the final report is the contract
    // (DESIGN.md § restore-equivalence).
    Row {
        command: "chaos",
        name: "stream",
        package: "thermal-bench",
        bin: "soak",
        out_dir: "chaos-stream",
        tag: Some("soak"),
        full: STREAM_CHAOS,
        smoke: STREAM_CHAOS,
        runs: CHAOS_RUNS,
        contract: Contract::RunDir(&["report.json"]),
        stores: "store",
        victim: Some(Victim::Snapshot(&["progress-", "intensity-"])),
    },
    // Snapshotting fleet soak: every building report, the quarantine
    // event log and the fleet summary are the contract.
    Row {
        command: "chaos",
        name: "fleet",
        package: "thermal-fleet",
        bin: "fleet_soak",
        out_dir: "chaos-fleet",
        tag: Some("fleet"),
        full: FLEET_CHAOS,
        smoke: FLEET_CHAOS,
        runs: CHAOS_RUNS,
        contract: Contract::RunDir(FLEET_REPORTS),
        stores: "ckpt/*",
        victim: Some(Victim::Snapshot(&["serve-"])),
    },
    // Corrupted, flaky, out-of-order replay with a scripted outage
    // (DESIGN.md § streaming runtime).
    Row {
        command: "soak",
        name: "stream",
        package: "thermal-bench",
        bin: "soak",
        out_dir: "soak",
        tag: Some("soak"),
        full: "{out}/report-{run}.json --seed 7 --days 3 --intensities 0,50,150,400",
        smoke: "{out}/report-{run}.json --seed 7 --days 1 --intensities 0,150",
        runs: SOAK_RUNS,
        contract: Contract::Report,
        stores: "",
        victim: None,
    },
    // Mid-trace regime shift healed by the online identification loop
    // (DESIGN.md § online identification).
    Row {
        command: "soak",
        name: "recovery",
        package: "thermal-bench",
        bin: "recovery",
        out_dir: "recovery",
        tag: Some("recovery"),
        full: "{out}/report-{run}.json --seed 7 --days 2 --ckpt {out}/ckpt-{run}",
        smoke: "{out}/report-{run}.json --seed 7 --days 1 --ckpt {out}/ckpt-{run}",
        runs: SOAK_RUNS,
        contract: Contract::Report,
        stores: "",
        victim: None,
    },
    // Multi-building blast radius: faults in the targets perturb no
    // other building's report (DESIGN.md § fleet serving).
    Row {
        command: "soak",
        name: "fleet",
        package: "thermal-fleet",
        bin: "fleet_soak",
        out_dir: "fleet-soak",
        tag: Some("fleet"),
        full: "{out}/{run} --seed 7 --buildings 16 --days 2 --targets 2,5,11 --intensity 400",
        smoke: "{out}/{run} --seed 7 --buildings 8 --days 1 --targets 2,5 --intensity 400",
        runs: &[
            Run::new("t1", Some("1")),
            Run::new("t1-repeat", Some("1")),
            Run::new("t4", Some("4")),
            Run {
                label: "clean",
                threads: Some("1"),
                overrides: &[("--targets", "none")],
            },
        ],
        contract: Contract::RunDir(FLEET_REPORTS),
        stores: "ckpt/*",
        victim: None,
    },
];

impl Row {
    /// The workload arguments of one run in the directory `label`.
    pub(crate) fn args(&self, out: &Path, label: &str, run: &Run, smoke: bool) -> Vec<String> {
        let template = if smoke { self.smoke } else { self.full };
        let out = out.to_string_lossy();
        let mut args: Vec<String> = template
            .split_whitespace()
            .map(|a| a.replace("{out}", &out).replace("{run}", label))
            .collect();
        for &(flag, value) in run.overrides {
            if let Some(i) = args.iter().position(|a| a == flag) {
                if let Some(slot) = args.get_mut(i + 1) {
                    value.clone_into(slot);
                }
            }
        }
        args
    }
}

/// Contract files of one run: name → bytes.
type Files = BTreeMap<String, Vec<u8>>;

/// Runs one row: the axes phase, then the kill sweep of a chaos row.
/// `smoke` picks the row's smoke arguments and, for a chaos row, the
/// boundary kill points.
///
/// # Errors
///
/// Returns a description of the first violated invariant.
pub fn run_row(root: &Path, row: &Row, smoke: bool) -> Result<(), String> {
    let name = format!("{} {}", row.command, row.name);
    let Some((first, rest)) = row.runs.split_first() else {
        return Err(format!("{name}: the row has no runs"));
    };
    let out = root.join("target").join(row.out_dir);
    let engine = Engine {
        row,
        first,
        first_args: row.args(&out, first.label, first, smoke),
        bin: build_release_bin(root, row.package, row.bin)?,
        root: root.to_path_buf(),
        out,
        smoke,
        name,
    };
    reset_dir(&engine.out)?;
    let census = engine.spawn(first.label, first, None)?;
    let reference = engine.files(first.label)?;
    engine.require(&reference)?;
    for run in rest {
        engine.spawn(run.label, run, None)?;
        let what = format!("{}: run `{}` vs `{}`", engine.name, run.label, first.label);
        if run.overrides.is_empty() {
            compare(&reference, &engine.files(run.label)?, &what)?;
        } else {
            engine.blast_radius(&reference, run, &what)?;
        }
    }
    eprintln!(
        "xtask {}: {} run(s) byte-identical",
        engine.name,
        row.runs.len()
    );
    match &row.victim {
        Some(victim) => engine.kill_sweep(victim, &census, &reference),
        None => Ok(()),
    }
}

struct Engine<'a> {
    row: &'a Row,
    /// The reference run (the census of a chaos row) and its arguments.
    first: &'a Run,
    first_args: Vec<String>,
    bin: PathBuf,
    root: PathBuf,
    out: PathBuf,
    smoke: bool,
    name: String,
}

impl Engine<'_> {
    /// Requires the named contract files of the row, and for a fleet
    /// one report per building, in the first run's `reference` files:
    /// the comparisons only see files the first run wrote.
    fn require(&self, reference: &Files) -> Result<(), String> {
        let buildings = arg_value(&self.first_args, "--buildings").map_or(Ok(0), str::parse::<u32>);
        let buildings = buildings.map_err(|e| format!("{}: bad --buildings: {e}", self.name))?;
        let named = match self.row.contract {
            Contract::RunDir(named) => named,
            Contract::Report => &[],
        };
        let missing: Vec<String> = named
            .iter()
            .map(|&n| n.to_owned())
            .chain((0..buildings).map(|id| format!("building-{id:03}.json")))
            .filter(|n| !reference.contains_key(n))
            .collect();
        if missing.is_empty() {
            Ok(())
        } else {
            Err(format!(
                "{}: run `{}` wrote no {}",
                self.name,
                self.first.label,
                missing.join(", ")
            ))
        }
    }

    /// Compares the fault-free baseline `run` with the faulted first
    /// run on the report of every building the first run does not
    /// target.
    fn blast_radius(&self, reference: &Files, run: &Run, what: &str) -> Result<(), String> {
        let targeted: Vec<String> = arg_value(&self.first_args, "--targets")
            .unwrap_or_default()
            .split(',')
            .map(|id| format!("building-{id:0>3}.json"))
            .collect();
        let untargeted = |files: &Files| -> Files {
            files
                .iter()
                .filter(|(name, _)| name.starts_with("building-") && !targeted.contains(name))
                .map(|(name, bytes)| (name.clone(), bytes.clone()))
                .collect()
        };
        let what = format!("{what}, untargeted buildings (blast radius)");
        compare(
            &untargeted(reference),
            &untargeted(&self.files(run.label)?),
            &what,
        )
    }

    /// Census → kill points → corruption cases → `matrix.json` and
    /// `quarantine-log.txt` for the CI upload.
    fn kill_sweep(&self, victim: &Victim, census: &str, reference: &Files) -> Result<(), String> {
        let writes = parse_durable_writes(census)?;
        if writes < 4 {
            return Err(format!(
                "{}: workload committed only {writes} durable writes; the sweep would prove nothing",
                self.name
            ));
        }
        let (run, baselines) = (self.first, &self.row.runs[1..]);
        let mut cases: Vec<String> = baselines.iter().map(|r| r.label.to_owned()).collect();
        let kill_points = select_kill_points(writes, self.smoke);
        eprintln!(
            "xtask {}: {writes} durable writes; sweeping {} kill point(s): {kill_points:?}",
            self.name,
            kill_points.len()
        );
        for &k in &kill_points {
            let label = format!("k{k}");
            self.spawn(&label, run, Some(k))?;
            self.spawn(&label, run, None)?;
            let what = format!("{}: kill point {k}", self.name);
            compare(reference, &self.files(&label)?, &what)?;
            cases.push(format!("kill-{k}"));
        }

        // Snapshots are live only mid-run, so those cases damage a
        // store killed two writes before the end.
        let (kind, seed_kill) = match victim {
            Victim::Payload => ("payload", None),
            Victim::Snapshot(_) => ("snapshot", Some(writes - 2)),
        };
        let mut quarantine_log = String::new();
        for (case, flip) in [
            (format!("bitflip-{kind}"), true),
            (format!("truncate-{kind}"), false),
            ("truncate-manifest".to_owned(), false),
        ] {
            self.spawn(&case, run, seed_kill)?;
            let stores = stores(&self.out.join(&case), self.row.stores)?;
            let manifest = case == "truncate-manifest";
            let damaged = if manifest {
                let store = stores.first();
                store
                    .map(|s| s.join(MANIFEST_NAME))
                    .ok_or(format!("{case}: no store"))?
            } else {
                pick_victim(victim, &stores)?
            };
            corrupt(&damaged, flip)?;
            eprintln!(
                "xtask {}: case `{case}` damaged {}",
                self.name,
                damaged.display()
            );
            self.spawn(&case, run, None)?;
            let what = format!("{}: corruption case `{case}`", self.name);
            compare(reference, &self.files(&case)?, &what)?;
            if !manifest {
                let name = file_name(&damaged);
                let log = quarantine_logs(&stores);
                if !log.contains(&format!("name={name} ")) {
                    return Err(format!(
                        "{what}: quarantine log has no structured entry for {name}:\n{log}"
                    ));
                }
                quarantine_log.push_str(&format!("# case {case}\n{log}"));
            }
            cases.push(case);
        }

        let cases: Vec<String> = cases
            .iter()
            .map(|c| format!("    {{\"case\": \"{c}\", \"status\": \"ok\"}}"))
            .collect();
        let matrix = format!(
            "{{\n  \"workload\": \"{}\",\n  \"smoke\": {},\n  \"durable_writes\": {writes},\n  \
             \"cases\": [\n{}\n  ]\n}}\n",
            self.row.name,
            self.smoke,
            cases.join(",\n")
        );
        for (name, text) in [
            ("matrix.json", matrix),
            ("quarantine-log.txt", quarantine_log),
        ] {
            let path = self.out.join(name);
            fs::write(&path, text).map_err(|e| format!("write {}: {e}", path.display()))?;
        }
        Ok(())
    }

    /// Runs the workload once as `run` in the directory named `label`.
    /// A kill run must die with the kill exit code. Any other run must
    /// exit 0, print `<tag>: ok` and quarantine exactly its
    /// `--targets`. Returns stdout.
    fn spawn(&self, label: &str, run: &Run, kill_at: Option<u64>) -> Result<String, String> {
        let args = self.row.args(&self.out, label, run, self.smoke);
        let output = command(&self.bin, &args, run.threads, kill_at)
            .current_dir(&self.root)
            .output()
            .map_err(|e| format!("could not start {}: {e}", self.bin.display()))?;
        let stdout = String::from_utf8_lossy(&output.stdout).into_owned();
        let what = format!(
            "{}: run `{label}` (THERMAL_THREADS={}, kill_at={kill_at:?})",
            self.name,
            run.threads.unwrap_or("unset")
        );
        let expected = if kill_at.is_some() { KILL_EXIT_CODE } else { 0 };
        if output.status.code() != Some(expected) {
            return Err(format!(
                "{what} exited with {:?}, expected {expected}\nstderr:\n{}",
                output.status.code(),
                String::from_utf8_lossy(&output.stderr)
            ));
        }
        if let (None, Some(tag)) = (kill_at, self.row.tag) {
            if !stdout.lines().any(|l| l.trim() == format!("{tag}: ok")) {
                return Err(format!("{what} never printed `{tag}: ok`:\n{stdout}"));
            }
            let quarantined = parse_marker(&stdout, &format!("{tag}: quarantined = "));
            let targets = arg_value(&args, "--targets");
            if let Some(targets) = targets.filter(|&t| quarantined.as_deref() != Some(t)) {
                return Err(format!(
                    "{what}: quarantine set {quarantined:?} differs from the fault-target set \
                     `{targets}`; the blast radius is wrong"
                ));
            }
        }
        Ok(stdout)
    }

    /// Reads the contract files of the run in the directory `label`.
    fn files(&self, label: &str) -> Result<Files, String> {
        match self.row.contract {
            Contract::RunDir(_) => {
                let store = self.row.stores.split('/').next().unwrap_or_default();
                read_dir_files(&self.out.join(label), store)
            }
            Contract::Report => {
                let path = self.out.join(format!("report-{label}.json"));
                let bytes = fs::read(&path).map_err(|e| format!("read {}: {e}", path.display()))?;
                Ok(Files::from([("report.json".to_owned(), bytes)]))
            }
        }
    }
}

/// The command for one workload run. The caller's `THERMAL_KILL_AT`,
/// `THERMAL_KILL_SEED` and `THERMAL_THREADS` are cleared; only the
/// run's thread count and kill point are set.
fn command(bin: &Path, args: &[String], threads: Option<&str>, kill_at: Option<u64>) -> Command {
    let mut cmd = Command::new(bin);
    cmd.args(args)
        .env_remove(KILL_AT_ENV)
        .env_remove(KILL_SEED_ENV)
        .env_remove(THREADS_ENV);
    if let Some(t) = threads {
        cmd.env(THREADS_ENV, t);
    }
    if let Some(k) = kill_at {
        cmd.env(KILL_AT_ENV, k.to_string());
    }
    cmd
}

/// Byte-compares two runs' contract files and names every differing,
/// missing, extra or empty file. An empty reference set or file fails:
/// it would prove nothing.
fn compare(reference: &Files, candidate: &Files, what: &str) -> Result<(), String> {
    let mut diffs = Vec::new();
    if reference.is_empty() {
        diffs.push("no contract files in the reference run".to_owned());
    }
    for (name, bytes) in reference {
        match candidate.get(name) {
            _ if bytes.is_empty() => diffs.push(format!("{name}: empty in the reference run")),
            Some(other) if other == bytes => {}
            Some(other) => diffs.push(format!(
                "{name}: contents differ ({} vs {} bytes)",
                bytes.len(),
                other.len()
            )),
            None => diffs.push(format!("{name}: missing")),
        }
    }
    for name in candidate.keys().filter(|n| !reference.contains_key(*n)) {
        diffs.push(format!("{name}: extra file"));
    }
    if diffs.is_empty() {
        Ok(())
    } else {
        Err(format!("{what}: bytes differ:\n  {}", diffs.join("\n  ")))
    }
}

/// Reads every file directly in `dir`. `quarantine/` (its debris
/// differs by crash point by design) and the store subdirectory
/// `skip` are left out; any other subdirectory is an error.
fn read_dir_files(dir: &Path, skip: &str) -> Result<Files, String> {
    let mut files = Files::new();
    for path in list(dir)? {
        let name = file_name(&path);
        if !path.is_dir() {
            let bytes = fs::read(&path).map_err(|e| format!("read {}: {e}", path.display()))?;
            files.insert(name, bytes);
        } else if name != QUARANTINE_DIR && name != skip {
            return Err(format!("unexpected directory {}", path.display()));
        }
    }
    Ok(files)
}

/// The entries of `dir`, sorted by path.
fn list(dir: &Path) -> Result<Vec<PathBuf>, String> {
    let mut paths = fs::read_dir(dir)
        .and_then(|entries| {
            entries
                .map(|e| e.map(|e| e.path()))
                .collect::<Result<Vec<_>, _>>()
        })
        .map_err(|e| format!("read_dir {}: {e}", dir.display()))?;
    paths.sort();
    Ok(paths)
}

fn file_name(path: &Path) -> String {
    path.file_name()
        .map(|n| n.to_string_lossy().into_owned())
        .unwrap_or_default()
}

/// The checkpoint stores of the run directory `dir` (see
/// [`Row::stores`]), sorted.
fn stores(dir: &Path, spec: &str) -> Result<Vec<PathBuf>, String> {
    match spec.strip_suffix("/*") {
        Some(parent) => Ok(list(&dir.join(parent))?
            .into_iter()
            .filter(|p| p.is_dir())
            .collect()),
        None => Ok(vec![dir.join(spec)]),
    }
}

/// The file a payload corruption case damages (see [`Victim`]).
fn pick_victim(victim: &Victim, stores: &[PathBuf]) -> Result<PathBuf, String> {
    let mut candidates = Vec::new();
    for store in stores {
        for path in list(store)? {
            let name = file_name(&path);
            let wanted = match victim {
                Victim::Payload => name.ends_with(".ck"),
                Victim::Snapshot(prefixes) => prefixes.iter().any(|p| name.starts_with(p)),
            };
            if wanted && path.is_file() {
                candidates.push((name, path));
            }
        }
    }
    candidates.sort();
    let pick = match victim {
        Victim::Payload => candidates.into_iter().next(),
        Victim::Snapshot(_) => candidates.pop(),
    };
    pick.map(|(_, path)| path)
        .ok_or_else(|| format!("no {victim:?} file to damage in {stores:?}"))
}

/// Flips the last byte of `path`, or truncates it to half its length.
fn corrupt(path: &Path, flip: bool) -> Result<(), String> {
    let mut bytes = fs::read(path).map_err(|e| format!("read {}: {e}", path.display()))?;
    if flip {
        if let Some(last) = bytes.last_mut() {
            *last ^= 0x01;
        }
    } else {
        bytes.truncate(bytes.len() / 2);
    }
    fs::write(path, &bytes).map_err(|e| format!("damage {}: {e}", path.display()))
}

/// Concatenates the structured quarantine logs of `stores`.
fn quarantine_logs(stores: &[PathBuf]) -> String {
    stores
        .iter()
        .filter_map(|s| fs::read_to_string(s.join(QUARANTINE_DIR).join(QUARANTINE_LOG)).ok())
        .collect()
}

/// The value after `flag` in a workload argument list.
pub(crate) fn arg_value<'a>(args: &'a [String], flag: &str) -> Option<&'a str> {
    let i = args.iter().position(|a| a == flag)?;
    args.get(i + 1).map(String::as_str)
}

/// Extracts the value after `prefix` on the first matching stdout line.
pub(crate) fn parse_marker(stdout: &str, prefix: &str) -> Option<String> {
    stdout
        .lines()
        .find_map(|l| l.split(prefix).nth(1))
        .map(|v| v.trim().to_owned())
}

/// Extracts `N` from the workload's `<tag>: durable writes = N` line.
pub(crate) fn parse_durable_writes(stdout: &str) -> Result<u64, String> {
    parse_marker(stdout, "durable writes = ")
        .and_then(|n| n.parse().ok())
        .ok_or_else(|| format!("workload stdout had no parseable durable-write count:\n{stdout}"))
}

/// Every kill point, or the boundary sample in smoke mode: the first
/// two writes (store creation), the middle, and the last two (final
/// artifact + manifest) — the places where off-by-one bugs live.
pub(crate) fn select_kill_points(writes: u64, smoke: bool) -> Vec<u64> {
    if !smoke {
        return (1..=writes).collect();
    }
    let mut points = vec![1, 2, writes / 2, writes - 1, writes];
    points.sort_unstable();
    points.dedup();
    points
}

/// Builds binary `bin` of `package` once, in release mode (the
/// harness runs it many times), and returns its path.
fn build_release_bin(root: &Path, package: &str, bin: &str) -> Result<PathBuf, String> {
    eprintln!("xtask: building {bin} (release)");
    let status = Command::new(env!("CARGO"))
        .args(["build", "--release", "--offline"])
        .args(["-p", package, "--bin", bin])
        .current_dir(root)
        .status()
        .map_err(|e| format!("could not start cargo build: {e}"))?;
    if !status.success() {
        return Err(format!("{bin} build failed with {status}"));
    }
    Ok(root
        .join("target")
        .join("release")
        .join(format!("{bin}{}", std::env::consts::EXE_SUFFIX)))
}

/// Deletes `dir` if it exists and re-creates it empty, so a failed
/// run cannot pass on old bytes.
fn reset_dir(dir: &Path) -> Result<(), String> {
    match fs::remove_dir_all(dir) {
        Ok(()) => {}
        Err(e) if e.kind() == std::io::ErrorKind::NotFound => {}
        Err(e) => return Err(format!("remove {}: {e}", dir.display())),
    }
    fs::create_dir_all(dir).map_err(|e| format!("create {}: {e}", dir.display()))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ci_runs_every_chaos_and_soak_row_at_full_size() {
        let path = Path::new(env!("CARGO_MANIFEST_DIR")).join("../../.github/workflows/ci.yml");
        let ci = fs::read_to_string(&path).unwrap();
        for row in TABLE.iter().filter(|r| r.command != "determinism") {
            let run = format!("run: cargo run -p xtask -- {} {}", row.command, row.name);
            assert!(
                ci.lines().any(|l| l.trim() == run),
                "ci.yml has no job running `{run}`"
            );
        }
    }

    #[test]
    fn runs_clear_the_callers_kill_switch_and_thread_count() {
        let envs = |cmd: &Command| -> BTreeMap<String, Option<String>> {
            cmd.get_envs()
                .map(|(k, v)| {
                    (
                        k.to_string_lossy().into_owned(),
                        v.map(|v| v.to_string_lossy().into_owned()),
                    )
                })
                .collect()
        };
        let plain = envs(&command(Path::new("workload"), &[], None, None));
        for var in [KILL_AT_ENV, KILL_SEED_ENV, THREADS_ENV] {
            assert_eq!(plain.get(var), Some(&None), "{var} not cleared");
        }
        let pinned = envs(&command(Path::new("workload"), &[], Some("4"), Some(3)));
        assert_eq!(pinned[THREADS_ENV].as_deref(), Some("4"));
        assert_eq!(pinned[KILL_AT_ENV].as_deref(), Some("3"));
        assert_eq!(pinned[KILL_SEED_ENV], None);
    }

    fn temp_dir(tag: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("xtask-harness-{tag}-{}", std::process::id()));
        let _ = fs::remove_dir_all(&dir);
        fs::create_dir_all(&dir).unwrap();
        dir
    }

    #[test]
    fn comparer_names_every_difference_and_skips_quarantine_and_stores() {
        let (a, b) = (temp_dir("cmp-a"), temp_dir("cmp-b"));
        for dir in [&a, &b] {
            fs::write(dir.join("same.csv"), "1,2\n").unwrap();
            fs::create_dir_all(dir.join(QUARANTINE_DIR)).unwrap();
        }
        // Quarantine debris differs by crash point and is ignored.
        fs::write(a.join(QUARANTINE_DIR).join("x.0"), "debris").unwrap();
        let ok = compare(
            &read_dir_files(&a, "").unwrap(),
            &read_dir_files(&b, "").unwrap(),
            "t",
        );
        assert_eq!(ok, Ok(()));

        fs::write(a.join("report.json"), "{\"a\": 1}").unwrap();
        fs::write(b.join("report.json"), "{\"a\": 2}").unwrap();
        fs::write(a.join("gone.json"), "x").unwrap();
        fs::write(b.join("extra.json"), "x").unwrap();
        fs::write(a.join("empty.json"), "").unwrap();
        fs::write(b.join("empty.json"), "").unwrap();
        let err = compare(
            &read_dir_files(&a, "").unwrap(),
            &read_dir_files(&b, "").unwrap(),
            "case",
        )
        .unwrap_err();
        assert!(err.starts_with("case: "), "{err}");
        for needle in [
            "report.json: contents differ",
            "gone.json: missing",
            "extra.json: extra file",
            "empty.json: empty",
        ] {
            assert!(err.contains(needle), "`{needle}` not in {err}");
        }
        assert!(!err.contains("same.csv"), "{err}");
        assert!(compare(&Files::new(), &Files::new(), "none").is_err());

        // A checkpoint store named by the row is skipped; any other
        // directory is rejected.
        fs::create_dir_all(a.join("ckpt").join("b000")).unwrap();
        assert!(!read_dir_files(&a, "ckpt").unwrap().contains_key("ckpt"));
        let err = read_dir_files(&a, "").unwrap_err();
        assert!(err.contains("unexpected directory"), "{err}");
        for dir in [a, b] {
            fs::remove_dir_all(dir).unwrap();
        }
    }

    #[test]
    fn fleet_reference_must_hold_every_building_and_named_report() {
        let row = TABLE.iter().find(|r| r.out_dir == "fleet-soak").unwrap();
        let engine = Engine {
            row,
            first: &row.runs[0],
            first_args: row.args(Path::new("/o"), "t1", &row.runs[0], true),
            bin: PathBuf::new(),
            root: PathBuf::new(),
            out: PathBuf::from("/o"),
            smoke: true,
            name: "soak fleet".to_owned(),
        };
        let mut files: Files = (0..8)
            .map(|id| format!("building-{id:03}.json"))
            .chain(FLEET_REPORTS.iter().map(|&n| n.to_owned()))
            .map(|n| (n, b"{}".to_vec()))
            .collect();
        assert_eq!(engine.require(&files), Ok(()));
        files.remove("building-007.json");
        files.remove("fleet-report.json");
        let err = engine.require(&files).unwrap_err();
        assert!(
            err.ends_with("wrote no fleet-report.json, building-007.json"),
            "{err}"
        );
    }
}
