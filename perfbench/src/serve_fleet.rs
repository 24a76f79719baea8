//! `serve_fleet`: the serve path across a fleet of minted buildings.
//!
//! Set-up mints 64 buildings × 2 days, simulates and fits each, and
//! renders its trace to CSV. One building in eight is targeted with
//! the fleet orchestrator's fault recipe: a representative outage,
//! CSV corruption at 150‰ and a flaky delivery source.
//!
//! A pass serves every building through a fresh `BuildingShard`:
//! `parse_csv_events` → `TraceReplayer` → `StreamService` →
//! `step_slot` + `serve` for every slot. `--threads` clients pull
//! buildings from a shared counter and step each building's slots in
//! a closed loop; an operation is one building-slot.

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;

use thermal_ckpt::BreakerPolicy;
use thermal_core::{
    dataset_fingerprint, ClusterCount, FallbackAction, GramCache, ModelOrder, ReducedModel,
    SelectorKind, ThermalPipeline,
};
use thermal_fleet::{BuildingShard, BuildingSpec, ShardPolicy};
use thermal_stream::{
    parse_csv_events, BackoffPolicy, FlakySource, ReplayConfig, StreamConfig, StreamService,
    TraceReplayer,
};
use thermal_timeseries::{csv, Channel, Dataset, Mask, TimeGrid};

use crate::stats::{Digest, Histogram};
use crate::trace::span;
use crate::{clock, heap, trace, Ctx, Measured, Named, Seeds, Traced, Workload};

const BUILDINGS: u32 = 64;
const DAYS: usize = 2;
/// One building in this many is targeted with faults.
const TARGET_EVERY: u32 = 8;
/// CSV corruption intensity of a targeted building, per mille.
const CORRUPTION_MILLIS: u32 = 150;
/// The orchestrator's representative outage and flaky-source base rate.
const OUTAGE_LEN: usize = 120;
const FAIL_PROB: f64 = 0.1;
/// Clients of the check pass compared against a single client.
const CHECK_CLIENTS: usize = 2;

/// One building's generated inputs.
struct Building {
    id: u32,
    targeted: bool,
    grid: TimeGrid,
    model: ReducedModel,
    config: StreamConfig,
    policy: ShardPolicy,
    /// The CSV the building streams (corrupted when targeted).
    text: String,
    /// CSV column → service registry index.
    mapping: Vec<Option<usize>>,
    replay: ReplayConfig,
    fail_prob: f64,
    source_seed: u64,
    /// Per cluster, the representative's simulated readings.
    truth: Vec<Vec<Option<f64>>>,
    fingerprint: u64,
}

pub struct ServeFleet {
    buildings: Vec<Building>,
}

/// What one pass over the fleet produced.
#[derive(Debug, Default)]
struct FleetPass {
    /// Output digest per building, by id.
    digests: Vec<u64>,
    ops: Histogram,
    attempted: u64,
    failed: u64,
    errors: Vec<String>,
}

/// What serving one building produced.
#[derive(Debug, Default, Clone)]
struct Served {
    digest: u64,
    slots: u64,
    cluster_slots: u64,
    fresh: u64,
    blackout: u64,
    sq_err: f64,
    scored: u64,
    /// Allocations of the `step_slot` + `serve` pairs (counted only
    /// while the allocator counts).
    allocs: u64,
    counters: Vec<(&'static str, u64)>,
}

fn with_outage(ds: &Dataset, name: &str, start: usize, len: usize) -> Result<Dataset, String> {
    let channels = ds
        .channels()
        .iter()
        .map(|ch| {
            if ch.name() != name {
                return Ok(ch.clone());
            }
            let values = ch
                .values()
                .iter()
                .enumerate()
                .map(|(k, v)| {
                    if (start..start + len).contains(&k) {
                        None
                    } else {
                        *v
                    }
                })
                .collect();
            Channel::new(ch.name(), values).map_err(|e| e.to_string())
        })
        .collect::<Result<Vec<_>, String>>()?;
    Dataset::new(*ds.grid(), channels).map_err(|e| e.to_string())
}

fn build(seeds: &Seeds, id: u32) -> Result<Building, String> {
    let spec = BuildingSpec::generate(seeds.fleet, id);
    let scenario = spec.scenario(DAYS).map_err(|e| e.to_string())?;
    let sim = span("sim.run", || thermal_sim::run(&scenario)).map_err(|e| e.to_string())?;
    let sensors = sim.wireless_channels();
    let inputs = sim.input_channels();
    let sensor_refs: Vec<&str> = sensors.iter().map(String::as_str).collect();
    let input_refs: Vec<&str> = inputs.iter().map(String::as_str).collect();
    let mask = Mask::all(sim.dataset.grid());
    let model = span("core.fleet_fit", || {
        let mut cache = GramCache::with_slot_bits(6).with_namespace(spec.fingerprint());
        ThermalPipeline::builder()
            .cluster_count(ClusterCount::Fixed(spec.cluster_count))
            .selector(SelectorKind::NearMean)
            .model_order(ModelOrder::First)
            .seed(spec.seed)
            .build()
            .and_then(|p| {
                p.fit_with_cache(&sim.dataset, &sensor_refs, &input_refs, &mask, &mut cache)
            })
    })
    .map_err(|e| format!("building {id}: fit: {e}"))?;

    let targeted =
        (id + (seeds.fault % u64::from(TARGET_EVERY)) as u32).is_multiple_of(TARGET_EVERY);
    let slots = sim.dataset.grid().len();
    let deployed = if targeted {
        let rep = model
            .selected_channels()
            .first()
            .ok_or("no representative")?;
        let start = slots / 4;
        with_outage(
            &sim.dataset,
            rep,
            start,
            OUTAGE_LEN.min((slots - start) / 2),
        )?
    } else {
        sim.dataset.clone()
    };
    let csv_text = span("timeseries.csv_render", || csv::to_csv_string(&deployed))
        .map_err(|e| e.to_string())?;
    let intensity = f64::from(CORRUPTION_MILLIS) / 1000.0;
    let text = if targeted {
        let corruption_seed = thermal_par::derive_seed(seeds.fault, u64::from(id));
        thermal_faults::ingest::corrupt_csv(&csv_text, corruption_seed, intensity).0
    } else {
        csv_text
    };

    let mut config = StreamConfig {
        queue_capacity: 1024,
        step_minutes: sim.scenario.sample_minutes,
        ..StreamConfig::default()
    };
    config.reorder.allowed_lateness = 30;
    config.reorder.capacity = 64;
    config.health.suspect_after = 60;
    config.health.dead_after = 90;
    let policy = ShardPolicy {
        max_depth: config.queue_capacity,
        ..ShardPolicy::default()
    };
    let probe = StreamService::new(model.clone(), config.clone(), deployed.grid().start())
        .map_err(|e| e.to_string())?;
    let mapping = deployed
        .channels()
        .iter()
        .map(|ch| probe.channel_index(ch.name()).ok())
        .collect();

    let mut truth = vec![Vec::new(); model.clustering().k()];
    for name in model.selected_channels() {
        let sensor = model.all_channels().iter().position(|n| n == name);
        let cluster = sensor.and_then(|s| model.clustering().assignments().get(s).copied());
        let values = sim.dataset.channel(name).map(|c| c.values().to_vec());
        if let (Some(c), Some(v)) = (cluster, values) {
            truth[c] = v;
        }
    }
    let fingerprint = dataset_fingerprint(&deployed, &sensor_refs, &input_refs, &mask);
    Ok(Building {
        id,
        targeted,
        grid: *deployed.grid(),
        model,
        config,
        policy,
        text,
        mapping,
        replay: ReplayConfig {
            seed: thermal_par::derive_seed(spec.seed, 1),
            ..ReplayConfig::default()
        },
        fail_prob: if targeted {
            (FAIL_PROB + intensity / 2.0).min(0.9)
        } else {
            0.0
        },
        source_seed: thermal_par::derive_seed(seeds.fault, u64::from(BUILDINGS + id)),
        truth,
        fingerprint,
    })
}

impl ServeFleet {
    pub fn setup(seeds: &Seeds) -> Result<Self, String> {
        let ids: Vec<u32> = (0..BUILDINGS).collect();
        let buildings = thermal_par::try_parallel_map(&ids, |&id| build(seeds, id))?;
        Ok(ServeFleet { buildings })
    }

    /// Serves one building through a fresh shard. `op` gets each
    /// building-slot's latency. With `mirror`, a copy of the shard's
    /// source and service is stepped in lockstep under `stream.*`
    /// spans, splitting `step_slot` into its stream calls.
    fn serve(&self, b: &Building, mirror: bool, mut op: impl FnMut(u64)) -> Result<Served, String> {
        let fail = |what: &str, e: String| format!("building {}: {what}: {e}", b.id);
        let (batches, ingest) = span("stream.parse", || parse_csv_events(&b.text, &b.mapping))
            .map_err(|e| fail("parse", e.to_string()))?;
        let replayer = span("stream.replayer_new", || {
            TraceReplayer::new(b.grid, &batches, &b.replay)
        })
        .map_err(|e| fail("replayer", e.to_string()))?;
        let source = FlakySource::new(
            replayer,
            b.fail_prob,
            b.source_seed,
            BackoffPolicy::default(),
            BreakerPolicy::default(),
        )
        .map_err(|e| fail("source", e.to_string()))?;
        let service = span("stream.service_new", || {
            StreamService::new(b.model.clone(), b.config.clone(), b.grid.start())
        })
        .map_err(|e| fail("service", e.to_string()))?;
        let mut twin = mirror.then(|| (source.clone(), service.clone()));
        let mut shard = span("fleet.shard_new", || {
            BuildingShard::new(b.id, service, source, b.policy.clone())
        })
        .map_err(|e| fail("shard", e.to_string()))?;

        let mut out = Served::default();
        let mut digest = Digest::default();
        let slots = shard.slots();
        // The mirror's stream calls, timed under `stream.*` spans.
        let mut step_twin = |slot: usize| -> Result<(), String> {
            let Some((src, svc)) = twin.as_mut() else {
                return Ok(());
            };
            span("probe.mirror", || {
                let now = src.replayer().slot_time(slot);
                let arrivals = span("stream.poll", || src.poll(slot));
                span("stream.step", || svc.step(now, &arrivals)).map_err(|e| e.to_string())?;
                if slot >= b.policy.warmup_slots {
                    span("stream.predict", || svc.predict());
                }
                Ok(())
            })
        };
        for slot in 0..slots {
            // Alternate which of shard and mirror steps first, so
            // neither always runs on the other's warm caches.
            if slot % 2 == 0 {
                step_twin(slot)?;
            }
            let allocs = heap::allocations();
            let t = clock::now();
            let stepped = span("fleet.step_slot", || shard.step_slot(slot));
            let served = span("fleet.serve", || shard.serve());
            op(t.elapsed_ns());
            out.allocs += heap::allocations() - allocs;
            stepped.map_err(|e| fail("step_slot", e.to_string()))?;
            if slot % 2 == 1 {
                step_twin(slot)?;
            }
            for c in &served.clusters {
                out.cluster_slots += 1;
                match c.action {
                    FallbackAction::Healthy => out.fresh += 1,
                    FallbackAction::Unavailable => out.blackout += 1,
                    _ => {}
                }
                digest.opt(c.predicted);
                let truth = b
                    .truth
                    .get(c.cluster)
                    .and_then(|v| v.get(slot + 1))
                    .copied()
                    .flatten();
                if let (true, Some(p), Some(v)) = (served.warmed_up, c.predicted, truth) {
                    out.sq_err += (p - v) * (p - v);
                    out.scored += 1;
                }
            }
        }
        out.slots = slots as u64;
        let service = shard.service_stats();
        let source = shard.source_stats();
        let counters = shard.counters();
        if let Some((src, svc)) = &twin {
            if svc.stats() != service || src.stats() != source {
                return Err(format!(
                    "building {}: the mirror diverged from the shard",
                    b.id
                ));
            }
        }
        digest
            .text(&format!("{ingest:?}{service:?}{source:?}{counters:?}"))
            .text(shard.phase().label())
            .word(shard.transitions().len() as u64);
        out.digest = digest.finish();
        out.counters = vec![
            ("stream.parsed", ingest.parsed),
            ("stream.non_finite", ingest.non_finite),
            ("stream.malformed", ingest.malformed),
            ("stream.missing_fields", ingest.missing_fields),
            ("stream.skipped_rows", ingest.skipped_rows),
            ("stream.queue_accepted", service.queue.accepted),
            ("stream.queue_rejected", service.queue.rejected),
            ("stream.queue_evicted", service.queue.evicted),
            ("stream.reorder_released", service.reorder.released),
            ("stream.reorder_duplicates", service.reorder.duplicates),
            ("stream.reorder_too_late", service.reorder.too_late),
            ("stream.reorder_overflowed", service.reorder.overflowed),
            ("stream.applied", service.applied),
            ("stream.implausible", service.implausible),
            ("stream.healthy_outputs", service.healthy_outputs),
            ("stream.backup_outputs", service.backup_outputs),
            ("stream.cluster_mean_outputs", service.cluster_mean_outputs),
            ("stream.unavailable_outputs", service.unavailable_outputs),
            ("stream.source_successes", source.successes),
            ("stream.source_failures", source.failures),
            ("stream.breaker_refusals", source.breaker_refusals),
            ("stream.backoff_skips", source.backoff_skips),
            ("stream.breaker_trips", source.breaker_trips),
            ("fleet.degraded_slots", counters.degraded_slots),
            ("fleet.blackout_slots", counters.blackout_slots),
            ("fleet.watchdog_trips", counters.watchdog_trips),
            ("fleet.probes", counters.probes),
            ("fleet.probe_failures", counters.probe_failures),
        ];
        Ok(out)
    }

    /// Serves the whole fleet sequentially.
    fn serve_all(&self) -> Result<Vec<Served>, String> {
        self.buildings
            .iter()
            .map(|b| self.serve(b, false, |_| {}))
            .collect()
    }

    /// Per-building output digests of a sequential pass.
    fn digests(&self) -> Result<Vec<u64>, String> {
        Ok(self.serve_all()?.iter().map(|s| s.digest).collect())
    }

    /// One pass over the fleet by `clients` closed-loop clients, each
    /// pulling its next building from a shared counter.
    fn fleet_pass(&self, clients: usize) -> FleetPass {
        let next = AtomicUsize::new(0);
        let digests = Mutex::new(vec![0_u64; self.buildings.len()]);
        let per_client: Vec<FleetPass> = std::thread::scope(|s| {
            let handles: Vec<_> = (0..clients)
                .map(|_| {
                    s.spawn(|| {
                        let mut mine = FleetPass::default();
                        while let Some(b) = self.buildings.get(next.fetch_add(1, Ordering::Relaxed))
                        {
                            match self.serve(b, false, |ns| mine.ops.record(ns)) {
                                Ok(served) => {
                                    mine.attempted += served.slots;
                                    if let Ok(mut d) = digests.lock() {
                                        d[b.id as usize] = served.digest;
                                    }
                                }
                                Err(e) => {
                                    mine.attempted += 1;
                                    mine.failed += 1;
                                    mine.errors.push(e);
                                }
                            }
                        }
                        mine
                    })
                })
                .collect();
            handles
                .into_iter()
                .map(|h| {
                    h.join().unwrap_or_else(|_| FleetPass {
                        errors: vec!["a client panicked".to_owned()],
                        ..FleetPass::default()
                    })
                })
                .collect()
        });
        let mut pass = FleetPass {
            digests: digests.into_inner().unwrap_or_default(),
            ..FleetPass::default()
        };
        for c in per_client {
            pass.ops.merge(&c.ops);
            pass.attempted += c.attempted;
            pass.failed += c.failed;
            pass.errors.extend(c.errors);
        }
        pass
    }
}

impl Workload for ServeFleet {
    fn fingerprint(&self) -> u64 {
        let mut d = Digest::default();
        for b in &self.buildings {
            d.word(b.fingerprint).word(u64::from(b.targeted));
        }
        d.finish()
    }

    /// Serves the fleet once on one client and once on two, and
    /// requires the same stats and predictions from every building.
    fn check(&self, _ctx: &Ctx) -> Result<Vec<Named>, String> {
        let served = self.serve_all()?;
        let pass = self.fleet_pass(CHECK_CLIENTS);
        if let Some(e) = pass.errors.first() {
            return Err(e.clone());
        }
        let reference: Vec<u64> = served.iter().map(|s| s.digest).collect();
        if pass.digests != reference {
            return Err(format!(
                "{CHECK_CLIENTS} clients served different stats or predictions than 1"
            ));
        }
        let sum = |f: fn(&Served) -> u64| served.iter().map(f).sum::<u64>() as f64;
        let cluster_slots = sum(|s| s.cluster_slots).max(1.0);
        let sq_err: f64 = served.iter().map(|s| s.sq_err).sum();
        Ok(vec![
            Named {
                name: "serve_rmse_c",
                value: (sq_err / sum(|s| s.scored).max(1.0)).sqrt(),
                unit: "C",
            },
            Named {
                name: "fresh_share",
                value: sum(|s| s.fresh) / cluster_slots,
                unit: "ratio",
            },
            Named {
                name: "blackout_share",
                value: sum(|s| s.blackout) / cluster_slots,
                unit: "ratio",
            },
            Named {
                name: "targeted_buildings",
                value: self.buildings.iter().filter(|b| b.targeted).count() as f64,
                unit: "count",
            },
        ])
    }

    fn measure(&self, ctx: &Ctx) -> Result<Measured, String> {
        let reference = self.digests()?;
        let mut m = Measured::default();
        let start = clock::now();
        while start.elapsed_ns() < ctx.budget_ns || m.pass_ns.is_empty() {
            let t = clock::now();
            let pass = self.fleet_pass(ctx.threads);
            m.record_pass(t.elapsed_ns());
            m.ops.merge(&pass.ops);
            m.attempted += pass.attempted;
            m.failed += pass.failed;
            m.mismatches.extend(pass.errors);
            if pass.digests != reference {
                m.mismatches
                    .push("a pass served different stats or predictions".to_owned());
            }
        }
        Ok(m)
    }

    fn traced(&self, ctx: &Ctx) -> Result<Traced, String> {
        let reference = self.digests()?;
        let mut t = Traced::default();
        let mut totals: std::collections::BTreeMap<&'static str, f64> = Default::default();
        let mut counters: std::collections::BTreeMap<&'static str, f64> = Default::default();
        let (mut allocs, mut slots, mut passes) = (0_u64, 0_u64, 0_u64);
        let start = clock::now();
        while start.elapsed_ns() < ctx.budget_ns || passes == 0 {
            let u = clock::now();
            self.serve_all()?;
            t.untraced_ns.push(u.elapsed_ns());

            trace::enable();
            let tt = clock::now();
            for (b, want) in self.buildings.iter().zip(&reference) {
                let served = span("serve.building", || self.serve(b, true, |_| {}))?;
                allocs += served.allocs;
                slots += served.slots;
                t.attempted += served.slots;
                if served.digest != *want {
                    t.mismatches
                        .push(format!("building {}: traced serve differs", b.id));
                }
                for (name, v) in &served.counters {
                    *counters.entry(name).or_default() += *v as f64;
                }
            }
            t.traced_ns.push(tt.elapsed_ns());
            let spans = trace::disable();
            let (by_name, covered) = trace::summarize(&spans, ctx.span_bias_ns);
            let probe = by_name.get("probe.mirror").map_or(0, |x| x.total_ns);
            t.probe_ns += probe as f64;
            t.covered_ns += covered.saturating_sub(probe) as f64;
            for (name, x) in by_name {
                *totals.entry(name).or_default() += x.self_ns as f64;
            }
            t.spans = spans;
            passes += 1;
        }
        let n = passes as f64;
        t.probe_ns /= n;
        t.covered_ns /= n;
        let self_ms = |name: &str| totals.get(name).map_or(0.0, |x| x / n / 1e6);
        for (metric, name) in [
            ("stream.parse_ms", "stream.parse"),
            ("stream.replayer_new_ms", "stream.replayer_new"),
            ("stream.service_new_ms", "stream.service_new"),
            ("fleet.shard_new_ms", "fleet.shard_new"),
            ("stream.poll_ms", "stream.poll"),
            ("stream.step_ms", "stream.step"),
            ("stream.predict_ms", "stream.predict"),
            ("fleet.step_slot_ms", "fleet.step_slot"),
            ("fleet.serve_ms", "fleet.serve"),
        ] {
            t.layers.insert(metric, self_ms(name));
        }
        let stream_ms = self_ms("stream.poll") + self_ms("stream.step") + self_ms("stream.predict");
        t.layers.insert(
            "fleet.shard_self_ms",
            self_ms("fleet.step_slot") - stream_ms,
        );
        t.layers
            .insert("alloc.per_slot", allocs as f64 / slots.max(1) as f64);
        for (name, v) in counters {
            t.layers.insert(name, v / n);
        }
        Ok(t)
    }
}
