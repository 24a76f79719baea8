//! `perfbench` — one benchmark for the fit and serve paths.
//!
//! ```sh
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload fit_paper|serve_fleet|online_drift --seed N \
//!     --seconds S --trace 0|1 [--threads N]
//! ```
//!
//! Every workload generates its inputs from `--seed` (simulation, CSV
//! rendering and serve-time model fits are set-up, repeated and timed
//! as `setup_s`), checks the program's outputs, then drives public
//! functions of the library crates in a closed loop for `--seconds`.
//! With `--trace 0` it prints the end-to-end metrics, untraced; with
//! `--trace 1` a single-threaded traced run prints the per-layer
//! split. The last stdout line is one JSON object:
//! `{"correct", "attempted", "failed", "metrics": {name: {value, unit}}}`.
//! Exit code 0 on success, 1 when an output check fails, 2 on bad
//! arguments or an error that stops the run.

mod clock;
mod fit_paper;
mod heap;
mod online_drift;
mod serve_fleet;
mod stats;
mod trace;

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::path::{Path, PathBuf};

/// Set-ups per untraced run; `setup_s` is their median.
const SETUP_REPEATS: usize = 3;

/// The end-to-end metrics every untraced run reports, with units.
/// Operation times are in `ref`, the median time of the reference
/// kernel (`clock::reference_ns`) run after every pass: the host's
/// speed drifts by up to 1.8x between runs and the kernel slows with
/// it, so the ratio moves less than the wall-clock time. The
/// wall-clock values are printed beside them.
const END_TO_END: &[(&str, &str)] = &[
    ("setup_s", "s"),
    ("op_p50_ref", "ref"),
    ("op_p90_ref", "ref"),
    ("ops_per_ref", "1/ref"),
    ("peak_heap_mb", "MB"),
];

/// The per-layer metrics every traced run reports, with units. Times
/// are span self times (duration minus what child spans cover) per
/// traced pass, counts are per pass; a layer a workload does not
/// exercise reports 0.
const PER_LAYER: &[(&str, &str)] = &[
    // Set-up (every workload).
    ("sim.run_s", "s"),
    ("timeseries.csv_render_ms", "ms"),
    ("core.fleet_fit_ms", "ms"),
    // The traced run itself.
    ("trace.untraced_pass_ms", "ms"),
    ("trace.traced_pass_ms", "ms"),
    ("trace.overhead_ms", "ms"),
    ("trace.unattributed_ms", "ms"),
    ("trace.spans", "count"),
    ("trace.empty_span_ns", "ns"),
    // fit_paper.
    ("cluster.trajectory_ms", "ms"),
    ("cluster.weight_ms", "ms"),
    ("cluster.spectral_ms", "ms"),
    ("cluster.k", "count"),
    ("select.select_ms", "ms"),
    ("sysid.identify_with_cache_ms", "ms"),
    ("sysid.assemble_ms", "ms"),
    ("sysid.rows", "count"),
    ("sysid.cols", "count"),
    ("linalg.gram_ms", "ms"),
    ("linalg.gram_flops", "count"),
    ("linalg.xty_ms", "ms"),
    ("linalg.cholesky_ms", "ms"),
    ("sysid.sweep_ms", "ms"),
    ("sysid.cache_hits", "count"),
    ("sysid.cache_misses", "count"),
    ("sysid.cache_evictions", "count"),
    ("sysid.cache_hit_ratio", "ratio"),
    ("alloc.per_fit", "count"),
    // serve_fleet.
    ("stream.parse_ms", "ms"),
    ("stream.replayer_new_ms", "ms"),
    ("stream.service_new_ms", "ms"),
    ("fleet.shard_new_ms", "ms"),
    ("stream.poll_ms", "ms"),
    ("stream.step_ms", "ms"),
    ("stream.predict_ms", "ms"),
    ("fleet.step_slot_ms", "ms"),
    ("fleet.serve_ms", "ms"),
    ("fleet.shard_self_ms", "ms"),
    ("alloc.per_slot", "count"),
    ("stream.parsed", "count"),
    ("stream.non_finite", "count"),
    ("stream.malformed", "count"),
    ("stream.missing_fields", "count"),
    ("stream.skipped_rows", "count"),
    ("stream.queue_accepted", "count"),
    ("stream.queue_rejected", "count"),
    ("stream.queue_evicted", "count"),
    ("stream.reorder_released", "count"),
    ("stream.reorder_duplicates", "count"),
    ("stream.reorder_too_late", "count"),
    ("stream.reorder_overflowed", "count"),
    ("stream.applied", "count"),
    ("stream.implausible", "count"),
    ("stream.healthy_outputs", "count"),
    ("stream.backup_outputs", "count"),
    ("stream.cluster_mean_outputs", "count"),
    ("stream.unavailable_outputs", "count"),
    ("stream.source_successes", "count"),
    ("stream.source_failures", "count"),
    ("stream.breaker_refusals", "count"),
    ("stream.backoff_skips", "count"),
    ("stream.breaker_trips", "count"),
    ("fleet.degraded_slots", "count"),
    ("fleet.blackout_slots", "count"),
    ("fleet.watchdog_trips", "count"),
    ("fleet.probes", "count"),
    ("fleet.probe_failures", "count"),
    // online_drift.
    ("stream.step_plain_us", "us"),
    ("stream.step_online_us", "us"),
    ("stream.refit_step_ms", "ms"),
    ("sysid.rls_rows", "count"),
    ("sysid.rls_rows_skipped", "count"),
    ("stream.refit_attempts", "count"),
    ("stream.refits_completed", "count"),
    ("stream.refits_quarantined", "count"),
    ("stream.refits_per_kslot", "count"),
    ("stream.drift_alarms", "count"),
    ("ckpt.files", "count"),
    ("ckpt.bytes", "bytes"),
];

/// Seeds of every generated input, derived from the run's `--seed`.
#[derive(Debug, Clone, Copy)]
pub struct Seeds {
    /// Campaign simulation (weather, occupancy, sensor noise).
    pub scenario: u64,
    /// Fleet minting.
    pub fleet: u64,
    /// Fault injection (targets, corruption, flaky delivery, shift).
    pub fault: u64,
    /// Pipeline clustering restarts and selection.
    pub pipeline: u64,
}

impl Seeds {
    pub fn derive(seed: u64) -> Self {
        Seeds {
            scenario: thermal_par::derive_seed(seed, 1),
            fleet: thermal_par::derive_seed(seed, 2),
            fault: thermal_par::derive_seed(seed, 3),
            pipeline: thermal_par::derive_seed(seed, 4),
        }
    }
}

/// Everything a workload needs to know about the run.
#[derive(Debug, Clone)]
pub struct Ctx {
    pub seeds: Seeds,
    /// Measurement budget, ns.
    pub budget_ns: u64,
    /// Closed-loop clients (serve_fleet) and library worker threads.
    pub threads: usize,
    /// Scratch directory inside the checkout.
    pub work_dir: PathBuf,
    /// What an empty span records, ns (traced runs; see
    /// `trace::empty_span_ns`).
    pub span_bias_ns: u64,
}

/// A named value with its unit.
#[derive(Debug, Clone)]
pub struct Named {
    pub name: &'static str,
    pub value: f64,
    pub unit: &'static str,
}

/// What an untraced measurement produced.
#[derive(Debug, Default)]
pub struct Measured {
    /// Latencies of the closed-loop operations, ns.
    pub ops: stats::Histogram,
    /// Wall time of each measured pass, ns (harness work between
    /// passes excluded).
    pub pass_ns: Vec<u64>,
    /// Reference-kernel time after each pass, ns.
    pub ref_ns: Vec<u64>,
    /// Library calls attempted and those that returned `Err`.
    pub attempted: u64,
    pub failed: u64,
    /// Output mismatches found while measuring.
    pub mismatches: Vec<String>,
}

impl Measured {
    /// Records a pass's wall time and times the reference kernel right
    /// after it, so both see the host at about the same speed.
    pub fn record_pass(&mut self, ns: u64) {
        self.pass_ns.push(ns);
        self.ref_ns.push(clock::reference_ns());
    }
}

/// What a traced run produced: per-layer values by metric name, the
/// wall times of the compared untraced and traced passes, and the
/// spans of the last traced pass.
#[derive(Debug, Default)]
pub struct Traced {
    pub layers: BTreeMap<&'static str, f64>,
    pub untraced_ns: Vec<u64>,
    pub traced_ns: Vec<u64>,
    /// Time of probe spans that do extra work for the split (the
    /// serve mirror) and so is not part of the traced pass, ns/pass.
    pub probe_ns: f64,
    /// Time covered by root spans, ns/pass (probes excluded).
    pub covered_ns: f64,
    pub spans: Vec<trace::Span>,
    pub attempted: u64,
    pub mismatches: Vec<String>,
}

/// One benchmark workload.
pub trait Workload {
    /// Output checks outside the timed loop; returns the workload's
    /// quality metrics (printed, not part of the JSON result).
    fn check(&self, ctx: &Ctx) -> Result<Vec<Named>, String>;
    /// The untraced closed-loop measurement.
    fn measure(&self, ctx: &Ctx) -> Result<Measured, String>;
    /// The single-threaded traced measurement.
    fn traced(&self, ctx: &Ctx) -> Result<Traced, String>;
    /// Fingerprint of the generated inputs.
    fn fingerprint(&self) -> u64;
}

fn setup(workload: &str, seeds: &Seeds) -> Result<Box<dyn Workload>, String> {
    Ok(match workload {
        "fit_paper" => Box::new(fit_paper::FitPaper::setup(seeds)?),
        "serve_fleet" => Box::new(serve_fleet::ServeFleet::setup(seeds)?),
        "online_drift" => Box::new(online_drift::OnlineDrift::setup(seeds)?),
        other => return Err(format!("unknown workload {other:?}")),
    })
}

/// A seed from its text: a `u64` as written, any other text (a
/// negative or over-long number, say) by its digest, so every seed a
/// caller can pass gives inputs, and the same text the same inputs.
fn parse_seed(text: &str) -> u64 {
    text.parse()
        .unwrap_or_else(|_| stats::Digest::default().text(text).finish())
}

struct Args {
    workload: String,
    seed: u64,
    seconds: u64,
    trace: bool,
    threads: usize,
}

fn parse_args() -> Result<Args, String> {
    let nproc = std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get);
    let mut workload = None;
    let mut seed = None;
    let mut seconds = 10_u64;
    let mut trace = false;
    let mut threads = 1;
    let mut argv = std::env::args().skip(1);
    while let Some(flag) = argv.next() {
        let mut value = || argv.next().ok_or_else(|| format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => workload = Some(value()?),
            "--seed" => seed = Some(parse_seed(&value()?)),
            "--seconds" => {
                seconds = value()?.parse().map_err(|e| format!("--seconds: {e}"))?;
            }
            "--trace" => {
                trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, not {other:?}")),
                }
            }
            "--threads" => {
                threads = value()?.parse().map_err(|e| format!("--threads: {e}"))?;
                if threads == 0 || threads > nproc {
                    return Err(format!("--threads must be in 1..={nproc}"));
                }
            }
            other => return Err(format!("unknown argument {other:?}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("missing --workload")?,
        seed: seed.ok_or("missing --seed")?,
        seconds: seconds.max(1),
        trace,
        threads,
    })
}

/// Writes a result line's metric map as JSON.
fn result_json(correct: bool, attempted: u64, failed: u64, metrics: &[Named]) -> String {
    let mut out = String::new();
    let _ = write!(
        out,
        "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{"
    );
    for (i, m) in metrics.iter().enumerate() {
        let sep = if i == 0 { "" } else { ", " };
        let value = if m.value.is_finite() { m.value } else { 0.0 };
        let _ = write!(
            out,
            "{sep}\"{}\": {{\"value\": {value:?}, \"unit\": \"{}\"}}",
            m.name, m.unit
        );
    }
    out.push_str("}}");
    out
}

fn print_block(title: &str, metrics: &[Named]) {
    println!("{title}");
    for m in metrics {
        println!("  {:<32} {:>16} {}", m.name, m.value, m.unit);
    }
}

fn ms(ns: f64) -> f64 {
    ns / 1e6
}

fn untraced(args: &Args, ctx: &Ctx) -> Result<(bool, u64, u64, Vec<Named>), String> {
    let mut setup_s = Vec::with_capacity(SETUP_REPEATS);
    let mut workload = None;
    for _ in 0..SETUP_REPEATS {
        // Drop the previous inputs first so set-ups do not stack up.
        drop(workload.take());
        let t = clock::now();
        workload = Some(setup(&args.workload, &ctx.seeds)?);
        setup_s.push(t.elapsed_s());
    }
    let workload = workload.ok_or("no set-up ran")?;
    println!("input_fingerprint {:016x}", workload.fingerprint());
    let quality = workload.check(ctx)?;
    let m = workload.measure(ctx)?;
    let median_ns = |v: &[u64]| {
        let v: Vec<f64> = v.iter().map(|&ns| ns as f64).collect();
        stats::median(&v).unwrap_or(0.0).max(1.0)
    };
    let op_ns = |p: f64| m.ops.quantile(p).unwrap_or(0.0);
    let passes = m.pass_ns.len();
    let ops_per_pass = m.ops.len() as f64 / passes.max(1) as f64;
    // The median pass, so a few passes slowed by the host do not set
    // the rate.
    let pass_ns = median_ns(&m.pass_ns);
    let ref_ns = median_ns(&m.ref_ns);
    let metrics: Vec<Named> = END_TO_END
        .iter()
        .map(|&(name, unit)| {
            let value = match name {
                "setup_s" => stats::median(&setup_s).unwrap_or(0.0),
                "op_p50_ref" => op_ns(0.5) / ref_ns,
                "op_p90_ref" => op_ns(0.9) / ref_ns,
                "ops_per_ref" => ops_per_pass * ref_ns / pass_ns,
                "peak_heap_mb" => heap::peak_bytes() as f64 / 1e6,
                _ => unreachable!("END_TO_END lists {name} without a value"),
            };
            Named { name, value, unit }
        })
        .collect();
    let wall_clock = [
        ("ref_us", ref_ns / 1e3, "us"),
        ("op_p50_us", op_ns(0.5) / 1e3, "us"),
        ("op_p90_us", op_ns(0.9) / 1e3, "us"),
        ("ops_per_s", ops_per_pass * 1e9 / pass_ns, "1/s"),
    ]
    .map(|(name, value, unit)| Named { name, value, unit });
    println!(
        "passes {}  ops {}  threads {}  nproc {}",
        passes,
        m.ops.len(),
        ctx.threads,
        std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get)
    );
    print_block("quality", &quality);
    print_block("wall_clock", &wall_clock);
    print_block("end_to_end", &metrics);
    for e in &m.mismatches {
        println!("MISMATCH {e}");
    }
    Ok((m.mismatches.is_empty(), m.attempted, m.failed, metrics))
}

fn traced(args: &Args, ctx: &Ctx) -> Result<(bool, u64, u64, Vec<Named>), String> {
    // Set-up runs traced, so its three layers show in the split.
    trace::enable();
    let workload = setup(&args.workload, &ctx.seeds)?;
    let (setup_totals, _) = trace::summarize(&trace::disable(), ctx.span_bias_ns);
    let setup_ms = |name: &str| {
        setup_totals
            .get(name)
            .map_or(0.0, |t| ms(t.total_ns as f64))
    };
    println!("input_fingerprint {:016x}", workload.fingerprint());
    workload.check(ctx)?;
    let t = workload.traced(ctx)?;

    let mut layers = t.layers;
    layers.insert("sim.run_s", setup_ms("sim.run") / 1e3);
    layers.insert(
        "timeseries.csv_render_ms",
        setup_ms("timeseries.csv_render"),
    );
    layers.insert("core.fleet_fit_ms", setup_ms("core.fleet_fit"));
    let untraced_ms: Vec<f64> = t.untraced_ns.iter().map(|&n| ms(n as f64)).collect();
    let traced_ms: Vec<f64> = t.traced_ns.iter().map(|&n| ms(n as f64)).collect();
    let mean = |v: &[f64]| v.iter().sum::<f64>() / v.len().max(1) as f64;
    let untraced = stats::median(&untraced_ms).unwrap_or(0.0);
    let traced = stats::median(&traced_ms).unwrap_or(0.0) - ms(t.probe_ns);
    layers.insert("trace.untraced_pass_ms", untraced);
    layers.insert("trace.traced_pass_ms", traced);
    layers.insert("trace.overhead_ms", traced - untraced);
    // Both per-pass means, so the remainder is over the same passes.
    let unattributed = mean(&traced_ms) - ms(t.probe_ns) - ms(t.covered_ns);
    layers.insert("trace.unattributed_ms", unattributed);
    layers.insert("trace.spans", t.spans.len() as f64);
    layers.insert("trace.empty_span_ns", ctx.span_bias_ns as f64);

    let spans_path = ctx.work_dir.join(format!("spans_{}.jsonl", args.workload));
    std::fs::write(&spans_path, trace::to_jsonl(&t.spans))
        .map_err(|e| format!("write {}: {e}", spans_path.display()))?;
    println!("spans of the last traced pass: {}", spans_path.display());

    let metrics: Vec<Named> = PER_LAYER
        .iter()
        .map(|&(name, unit)| Named {
            name,
            value: layers.get(name).copied().unwrap_or(0.0),
            unit,
        })
        .collect();
    for name in layers.keys() {
        if !PER_LAYER.iter().any(|(n, _)| n == name) {
            return Err(format!(
                "workload reported unlisted per-layer metric {name}"
            ));
        }
    }
    print_block("per_layer", &metrics);
    for e in &t.mismatches {
        println!("MISMATCH {e}");
    }
    Ok((t.mismatches.is_empty(), t.attempted, 0, metrics))
}

fn work_dir() -> Result<PathBuf, String> {
    let dir = Path::new("perfbench").join("out");
    std::fs::create_dir_all(&dir).map_err(|e| format!("create {}: {e}", dir.display()))?;
    Ok(dir)
}

fn main() {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            eprintln!(
                "usage: perfbench --workload fit_paper|serve_fleet|online_drift --seed N \
                 --seconds S --trace 0|1 [--threads N]"
            );
            std::process::exit(2);
        }
    };
    // The traced run is single-threaded; otherwise the library's
    // worker pool gets the run's thread count. Set before any thread
    // starts.
    let threads = if args.trace { 1 } else { args.threads };
    std::env::set_var(thermal_par::THREADS_ENV, threads.to_string());
    let outcome = work_dir().and_then(|work_dir| {
        let ctx = Ctx {
            seeds: Seeds::derive(args.seed),
            budget_ns: args.seconds * 1_000_000_000,
            threads,
            work_dir,
            span_bias_ns: if args.trace {
                trace::empty_span_ns()
            } else {
                0
            },
        };
        if args.trace {
            heap::set_counting(true);
            traced(&args, &ctx)
        } else {
            untraced(&args, &ctx)
        }
    });
    match outcome {
        Ok((correct, attempted, failed, metrics)) => {
            println!(
                "{}",
                result_json(correct, attempted.max(1), failed, &metrics)
            );
            std::process::exit(if correct { 0 } else { 1 });
        }
        Err(e) => {
            eprintln!("perfbench: {e}");
            std::process::exit(2);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sub_seeds_are_distinct_and_follow_the_seed() {
        let a = Seeds::derive(1);
        let b = Seeds::derive(2);
        let subs = [a.scenario, a.fleet, a.fault, a.pipeline];
        for (i, x) in subs.iter().enumerate() {
            assert!(subs[i + 1..].iter().all(|y| y != x));
        }
        assert_ne!(a.scenario, b.scenario);
        assert_ne!(a.fleet, b.fleet);
        assert_ne!(a.fault, b.fault);
        assert_ne!(a.pipeline, b.pipeline);
    }

    #[test]
    fn any_seed_text_is_a_seed() {
        assert_eq!(parse_seed("42"), 42);
        assert_eq!(parse_seed("18446744073709551615"), u64::MAX);
        assert_eq!(parse_seed("-1"), parse_seed("-1"));
        assert_ne!(parse_seed("-1"), parse_seed("-2"));
        assert_ne!(parse_seed("18446744073709551616"), u64::MAX);
    }

    /// Two seeds must give every workload different inputs, and one
    /// seed the same inputs twice. Slow in a debug build: run it with
    /// `cargo test --release`.
    #[test]
    fn inputs_follow_the_seed() {
        for workload in ["fit_paper", "serve_fleet", "online_drift"] {
            let fingerprint = |seed| {
                setup(workload, &Seeds::derive(seed))
                    .map(|w| w.fingerprint())
                    .unwrap_or_else(|e| panic!("{workload}: {e}"))
            };
            let one = fingerprint(1);
            assert_ne!(
                one,
                fingerprint(2),
                "{workload}: seeds 1 and 2 gave the same inputs"
            );
            assert_eq!(
                one,
                fingerprint(1),
                "{workload}: seed 1 gave different inputs twice"
            );
        }
    }
}
