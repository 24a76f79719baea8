//! `online_drift`: the serve path with model writes beside the
//! predict reads.
//!
//! Set-up simulates the 40-day campaign, fits the reduced model on the
//! training half, applies a mid-trace `RegimeShift` to every
//! temperature channel and renders the shifted trace to CSV, parsed
//! into per-slot batches. A pass replays every slot in order through
//! one `StreamService` with online identification on (RLS, drift
//! detection, supervised refits that checkpoint into a fresh
//! directory); an operation is one slot (`step` + `predict`).

use std::collections::VecDeque;
use std::path::{Path, PathBuf};

use thermal_core::{
    dataset_fingerprint, ClusterCount, ReducedModel, SelectorKind, ThermalPipeline,
};
use thermal_faults::{FaultDirective, FaultEvent, FaultKind, FaultPlan};
use thermal_stream::{
    parse_csv_events, DriftConfig, OnlineConfig, Reading, StreamConfig, StreamService,
};
use thermal_sysid::ModelOrder;
use thermal_timeseries::{csv, split, Mask, TimeGrid, Timestamp};

use crate::stats::Digest;
use crate::trace::span;
use crate::{clock, heap, trace, Ctx, Measured, Named, Seeds, Traced, Workload};

const DAYS: usize = 40;
/// Residual window behind the recovery RMSE (four hours) and the
/// re-entry band: the recovery soak's settings.
const WINDOW: usize = 48;
const TOLERANCE: f64 = 2.5;

pub struct OnlineDrift {
    grid: TimeGrid,
    model: ReducedModel,
    /// Per-slot readings of the shifted trace, in order.
    batches: Vec<Vec<Reading>>,
    /// Per cluster, the shifted representative's readings.
    truth: Vec<Vec<Option<f64>>>,
    shift_slot: usize,
    fault_seed: u64,
    fingerprint: u64,
}

/// What one replay produced.
#[derive(Debug, Default, Clone)]
struct Replay {
    digest: u64,
    slots: u64,
    cluster_slots: u64,
    fresh: u64,
    blackout: u64,
    sq_err: f64,
    scored: u64,
    /// Slots from the shift until the windowed RMSE is back in band,
    /// or to the end of the run when it never is.
    recovery_slots: u64,
    censored: bool,
    /// Step time of slots that launched a refit / did not, ns.
    refit_step_ns: Vec<u64>,
    plain_step_ns: Vec<u64>,
    allocs: u64,
    counters: Vec<(&'static str, f64)>,
}

/// The online-loop tuning of the recovery soak, with a one-day refit
/// cooldown.
fn online_config(dir: &Path, seed: u64) -> OnlineConfig {
    let mut config = OnlineConfig::new(dir);
    config.seed = seed;
    config.rls.forgetting = 0.92;
    config.drift = DriftConfig {
        delta: 0.03,
        lambda: 1.5,
        min_samples: 24,
        confirm_dwell: 2,
        recovered_hold: 24,
        widening: 3.0,
    };
    config.cell.backoff_base_ms = 0;
    config.min_refit_observations = 48;
    // One day between refits: the drift alarms outpace it, so every
    // seed refits at the same cadence (40 per replay). Shorter
    // cooldowns churn so many checkpoint files that fsync latency
    // climbs from run to run.
    config.refit_cooldown = 288;
    config
}

/// Files and bytes under `dir`.
fn walk(dir: &Path) -> (u64, u64) {
    let Ok(entries) = std::fs::read_dir(dir) else {
        return (0, 0);
    };
    let mut out = (0, 0);
    for entry in entries.flatten() {
        let path = entry.path();
        match entry.metadata() {
            Ok(m) if m.is_dir() => {
                let (f, b) = walk(&path);
                out = (out.0 + f, out.1 + b);
            }
            Ok(m) => out = (out.0 + 1, out.1 + m.len()),
            Err(_) => {}
        }
    }
    out
}

fn fresh_dir(dir: &Path) -> Result<(), String> {
    if dir.exists() {
        std::fs::remove_dir_all(dir).map_err(|e| format!("clear {}: {e}", dir.display()))?;
    }
    Ok(())
}

impl OnlineDrift {
    pub fn setup(seeds: &Seeds) -> Result<Self, String> {
        let mut scenario = thermal_sim::Scenario::paper()
            .with_days(DAYS)
            .with_seed(seeds.scenario);
        scenario.min_usable_days = 26;
        // Complete delivery: no outage days or dropout bursts, so the
        // workload isolates model drift from sensor faults.
        scenario.sensors.outage_day_prob = 0.0;
        scenario.sensors.dropout_start_prob = 0.0;
        let sim = span("sim.run", || thermal_sim::run(&scenario)).map_err(|e| e.to_string())?;
        let ds = &sim.dataset;
        let temps = sim.temperature_channels();
        let inputs = sim.input_channels();
        let temp_refs: Vec<&str> = temps.iter().map(String::as_str).collect();
        let input_refs: Vec<&str> = inputs.iter().map(String::as_str).collect();
        let temp_idx = temps
            .iter()
            .map(|n| ds.channel_index(n).ok_or(format!("missing channel {n}")))
            .collect::<Result<Vec<_>, _>>()?;
        let usable = ds.usable_days(&temp_idx, 0.5).map_err(|e| e.to_string())?;
        let halves = split::halves(&usable).map_err(|e| e.to_string())?;
        let train = Mask::days(ds.grid(), &halves.train);
        let model = span("core.fleet_fit", || {
            ThermalPipeline::builder()
                .cluster_count(ClusterCount::Eigengap { max: 8 })
                .selector(SelectorKind::NearMean)
                .model_order(ModelOrder::Second)
                .seed(seeds.pipeline)
                .build()
                .and_then(|p| p.fit(ds, &temp_refs, &input_refs, &train))
        })
        .map_err(|e| format!("fit: {e}"))?;

        let shift = FaultDirective::channels(
            FaultKind::RegimeShift {
                onset: 0.5,
                gain_delta: 0.6,
                offset: 1.5,
            },
            temps.clone(),
            1.0,
        );
        let (shifted, log) = FaultPlan::new(seeds.fault)
            .with(shift)
            .apply(ds)
            .map_err(|e| e.to_string())?;
        let shift_slot = log
            .events()
            .iter()
            .find_map(|e| match e {
                FaultEvent::RegimeShift { start, .. } => Some(*start),
                _ => None,
            })
            .ok_or("the fault plan logged no regime shift")?;

        let text = span("timeseries.csv_render", || csv::to_csv_string(&shifted))
            .map_err(|e| e.to_string())?;
        let probe = StreamService::new(model.clone(), StreamConfig::default(), ds.grid().start())
            .map_err(|e| e.to_string())?;
        let mapping: Vec<Option<usize>> = shifted
            .channels()
            .iter()
            .map(|ch| probe.channel_index(ch.name()).ok())
            .collect();
        let (batches, _) = parse_csv_events(&text, &mapping).map_err(|e| e.to_string())?;
        if batches.len() != ds.grid().len() {
            return Err(format!(
                "{} batches for {} slots",
                batches.len(),
                ds.grid().len()
            ));
        }

        let mut truth = vec![Vec::new(); model.clustering().k()];
        for name in model.selected_channels() {
            let sensor = model.all_channels().iter().position(|n| n == name);
            let cluster = sensor.and_then(|s| model.clustering().assignments().get(s).copied());
            let values = shifted.channel(name).map(|c| c.values().to_vec());
            if let (Some(c), Some(v)) = (cluster, values) {
                truth[c] = v;
            }
        }
        let fingerprint =
            dataset_fingerprint(&shifted, &temp_refs, &input_refs, &Mask::all(ds.grid()));
        Ok(OnlineDrift {
            grid: *ds.grid(),
            model,
            batches,
            truth,
            shift_slot,
            fault_seed: seeds.fault,
            fingerprint,
        })
    }

    fn slot_time(&self, slot: usize) -> Result<Timestamp, String> {
        self.grid.timestamp(slot).map_err(|e| e.to_string())
    }

    /// One in-order replay; `online` names the refit checkpoint
    /// directory, which must not exist yet; `None` replays with online
    /// identification off.
    fn replay(&self, online: Option<&Path>, mut op: impl FnMut(u64)) -> Result<Replay, String> {
        let mut config = StreamConfig::default();
        config.reorder.allowed_lateness = 0;
        let mut service = StreamService::new(self.model.clone(), config, self.grid.start())
            .map_err(|e| e.to_string())?;
        if let Some(dir) = online {
            service
                .enable_online(online_config(dir, self.fault_seed))
                .map_err(|e| e.to_string())?;
        }
        let k = self.model.clustering().k();
        let mut out = Replay::default();
        let mut digest = Digest::default();
        let mut window: VecDeque<f64> = VecDeque::with_capacity(WINDOW);
        let mut baseline = None;
        let mut shift_seen = false;
        let mut recovered_at = None;
        let mut attempts = 0;
        for (slot, batch) in self.batches.iter().enumerate() {
            let now = self.slot_time(slot)?;
            let allocs = heap::allocations();
            let t = clock::now();
            let stepped = span("stream.step", || service.step(now, batch));
            let step_ns = t.elapsed_ns();
            let prediction = span("stream.predict", || service.predict());
            op(t.elapsed_ns());
            out.allocs += heap::allocations() - allocs;
            stepped.map_err(|e| format!("slot {slot}: step failed: {e}"))?;
            if prediction.clusters.len() != k {
                return Err(format!(
                    "slot {slot}: prediction covers {} of {k} clusters",
                    prediction.clusters.len()
                ));
            }
            let now_attempts = service.online_stats().map_or(0, |s| s.refit_attempts);
            if now_attempts > attempts {
                out.refit_step_ns.push(step_ns);
            } else {
                out.plain_step_ns.push(step_ns);
            }
            attempts = now_attempts;

            // Score the forecast issued for this slot last time round.
            let mut sum_sq = 0.0;
            let mut count = 0;
            for c in &prediction.clusters {
                out.cluster_slots += 1;
                match c.action {
                    thermal_core::FallbackAction::Healthy => out.fresh += 1,
                    thermal_core::FallbackAction::Unavailable => out.blackout += 1,
                    _ => {}
                }
                digest.opt(c.predicted);
                let truth = self
                    .truth
                    .get(c.cluster)
                    .and_then(|v| v.get(slot + 1))
                    .copied()
                    .flatten();
                if let (true, Some(p), Some(v)) = (prediction.warmed_up, c.predicted, truth) {
                    sum_sq += (p - v) * (p - v);
                    count += 1;
                }
            }
            if count > 0 {
                out.sq_err += sum_sq;
                out.scored += count;
                if window.len() == WINDOW {
                    window.pop_front();
                }
                window.push_back(sum_sq / count as f64);
            }
            let rmse = (window.len() == WINDOW)
                .then(|| (window.iter().sum::<f64>() / WINDOW as f64).sqrt());
            if slot + 1 == self.shift_slot {
                baseline = rmse;
            }
            if let (Some(r), Some(b), true) = (rmse, baseline, slot >= self.shift_slot) {
                if r > TOLERANCE * b {
                    shift_seen = true;
                    recovered_at = None;
                } else if shift_seen && recovered_at.is_none() {
                    recovered_at = Some(slot);
                }
            }
        }
        let slots = self.batches.len();
        out.slots = slots as u64;
        out.censored = recovered_at.is_none();
        out.recovery_slots = (recovered_at.unwrap_or(slots) - self.shift_slot.min(slots)) as u64;
        let stats = service.stats();
        digest.text(&format!("{stats:?}"));
        if let Some(o) = service.online_stats() {
            let drift = service.drift_stats();
            digest.text(&format!("{o:?}{drift:?}"));
            let (files, bytes) = online.map_or((0, 0), walk);
            out.counters = vec![
                ("sysid.rls_rows", o.rows_ingested as f64),
                ("sysid.rls_rows_skipped", o.rows_skipped as f64),
                ("stream.refit_attempts", o.refit_attempts as f64),
                ("stream.refits_completed", o.refits_completed as f64),
                ("stream.refits_quarantined", o.refits_quarantined as f64),
                (
                    "stream.refits_per_kslot",
                    o.refit_attempts as f64 * 1000.0 / slots as f64,
                ),
                (
                    "stream.drift_alarms",
                    drift.iter().map(|d| d.alarms).sum::<u64>() as f64,
                ),
                ("ckpt.files", files as f64),
                ("ckpt.bytes", bytes as f64),
            ];
        }
        out.digest = digest.finish();
        Ok(out)
    }

    /// The run's own checkpoint directory: two runs in one checkout
    /// never clear each other's files.
    fn ckpt_dir(ctx: &Ctx) -> PathBuf {
        ctx.work_dir
            .join(format!("online_ckpt_{}", std::process::id()))
    }
}

fn mean_us(ns: &[u64]) -> f64 {
    ns.iter().sum::<u64>() as f64 / ns.len().max(1) as f64 / 1e3
}

impl Workload for OnlineDrift {
    fn fingerprint(&self) -> u64 {
        self.fingerprint
    }

    fn check(&self, ctx: &Ctx) -> Result<Vec<Named>, String> {
        let dir = Self::ckpt_dir(ctx);
        fresh_dir(&dir)?;
        let r = self.replay(Some(&dir), |_| {})?;
        fresh_dir(&dir)?;
        let cluster_slots = r.cluster_slots.max(1) as f64;
        Ok(vec![
            Named {
                name: "serve_rmse_c",
                value: (r.sq_err / r.scored.max(1) as f64).sqrt(),
                unit: "C",
            },
            Named {
                name: "fresh_share",
                value: r.fresh as f64 / cluster_slots,
                unit: "ratio",
            },
            Named {
                name: "blackout_share",
                value: r.blackout as f64 / cluster_slots,
                unit: "ratio",
            },
            Named {
                name: "recovery_slots",
                value: r.recovery_slots as f64,
                unit: "slots",
            },
            Named {
                name: "recovery_censored",
                value: f64::from(u8::from(r.censored)),
                unit: "flag",
            },
        ])
    }

    fn measure(&self, ctx: &Ctx) -> Result<Measured, String> {
        let dir = Self::ckpt_dir(ctx);
        let mut m = Measured::default();
        let mut reference = None;
        let start = clock::now();
        while start.elapsed_ns() < ctx.budget_ns || m.pass_ns.is_empty() {
            fresh_dir(&dir)?;
            let t = clock::now();
            let r = self.replay(Some(&dir), |ns| m.ops.record(ns));
            m.record_pass(t.elapsed_ns());
            match r {
                Ok(r) => {
                    m.attempted += r.slots;
                    if *reference.get_or_insert(r.digest) != r.digest {
                        m.mismatches
                            .push("a replay served different predictions".to_owned());
                    }
                }
                Err(e) => {
                    m.attempted += 1;
                    m.failed += 1;
                    m.mismatches.push(e);
                }
            }
        }
        fresh_dir(&dir)?;
        Ok(m)
    }

    fn traced(&self, ctx: &Ctx) -> Result<Traced, String> {
        let dir = Self::ckpt_dir(ctx);
        let mut t = Traced::default();
        let mut totals: std::collections::BTreeMap<&'static str, f64> = Default::default();
        let mut counters: std::collections::BTreeMap<&'static str, f64> = Default::default();
        let (mut refit_ns, mut online_ns, mut plain_ns) = (Vec::new(), Vec::new(), Vec::new());
        let (mut allocs, mut slots, mut passes) = (0_u64, 0_u64, 0_u64);
        let mut reference = None;
        let start = clock::now();
        while start.elapsed_ns() < ctx.budget_ns || passes == 0 {
            fresh_dir(&dir)?;
            let u = clock::now();
            let r = self.replay(Some(&dir), |_| {})?;
            t.untraced_ns.push(u.elapsed_ns());
            reference.get_or_insert(r.digest);

            fresh_dir(&dir)?;
            trace::enable();
            let tt = clock::now();
            let r = self.replay(Some(&dir), |_| {})?;
            t.traced_ns.push(tt.elapsed_ns());
            let spans = trace::disable();
            if Some(r.digest) != reference {
                t.mismatches
                    .push("the traced replay served different predictions".to_owned());
            }
            let (by_name, covered) = trace::summarize(&spans, ctx.span_bias_ns);
            t.covered_ns += covered as f64;
            for (name, x) in by_name {
                *totals.entry(name).or_default() += x.self_ns as f64;
            }
            refit_ns.extend(&r.refit_step_ns);
            online_ns.extend(&r.plain_step_ns);
            allocs += r.allocs;
            slots += r.slots;
            t.attempted += r.slots;
            for (name, v) in &r.counters {
                *counters.entry(name).or_default() += v;
            }
            t.spans = spans;

            // The same replay with online identification off.
            plain_ns.extend(self.replay(None, |_| {})?.plain_step_ns);
            passes += 1;
        }
        fresh_dir(&dir)?;
        let n = passes as f64;
        t.covered_ns /= n;
        let l = &mut t.layers;
        l.insert(
            "stream.step_ms",
            totals.get("stream.step").copied().unwrap_or(0.0) / n / 1e6,
        );
        l.insert(
            "stream.predict_ms",
            totals.get("stream.predict").copied().unwrap_or(0.0) / n / 1e6,
        );
        l.insert("stream.step_plain_us", mean_us(&plain_ns));
        l.insert("stream.step_online_us", mean_us(&online_ns));
        l.insert("stream.refit_step_ms", mean_us(&refit_ns) / 1e3);
        l.insert("alloc.per_slot", allocs as f64 / slots.max(1) as f64);
        for (name, v) in counters {
            l.insert(name, v / n);
        }
        Ok(t)
    }
}
