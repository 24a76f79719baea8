//! Machine-readable soak reports with canonical, byte-stable JSON.
//!
//! The chaos-soak harness (`cargo xtask soak stream`) replays a full trace
//! through corrupted ingest at several intensities and asserts the
//! final state is **bitwise identical** across repeated runs and
//! thread counts. That comparison is done on the serialized report,
//! so the serialization itself must be canonical: fields in a fixed
//! order, floats rendered as the hex of their IEEE-754 bits (with a
//! rounded human-readable echo), no platform- or locale-dependent
//! formatting anywhere.

use std::fmt::Write as _;

use thermal_ckpt::codec::Record;
use thermal_ckpt::{CkptError, Snapshot};

use crate::health::HealthState;
use crate::queue::QueueStats;
use crate::reorder::ReorderStats;
use crate::replay::{IngestStats, SourceStats};
use crate::service::{SensorHealth, ServiceStats};

/// Canonical rendering of one float: exact bits plus a readable echo.
/// Shared with the recovery report, which must obey the same
/// byte-compare contract.
pub(crate) fn push_f64(out: &mut String, key: &str, value: f64) {
    let _ = write!(
        out,
        "\"{key}\": {{\"bits\": \"{:016x}\", \"approx\": \"{:.4}\"}}",
        value.to_bits(),
        value
    );
}

/// One cluster's final prediction in a soak report.
#[derive(Debug, Clone, PartialEq)]
pub struct SoakPrediction {
    /// Cluster index.
    pub cluster: usize,
    /// Ladder action label (`healthy`, `backup`, `cluster_mean`,
    /// `unavailable`).
    pub action: String,
    /// Predicted value; `None` under structured blackout.
    pub predicted: Option<f64>,
}

/// Everything measured while soaking one corruption intensity.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct SoakIntensityReport {
    /// Corruption intensity in milli-units (e.g. `50` = 0.05), kept
    /// integral so the report never round-trips a float through text.
    pub intensity_millis: u32,
    /// Lines the fault layer actually corrupted.
    pub corrupted_lines: u64,
    /// Row-tolerant CSV ingest accounting.
    pub ingest: IngestStats,
    /// Flaky-source supervision accounting.
    pub source: SourceStats,
    /// Service runtime counters at end of replay.
    pub service: ServiceStats,
    /// Largest combined queue + reorder depth ever observed.
    pub max_buffered_depth: usize,
    /// Configured bound the depth must stay under.
    pub depth_bound: usize,
    /// Final health state of every sensor, registry order.
    pub health: Vec<SensorHealth>,
    /// Final per-cluster predictions.
    pub predictions: Vec<SoakPrediction>,
}

/// A full soak run: one report per intensity, plus the replay
/// parameters that make the run reproducible.
#[derive(Debug, Clone, PartialEq)]
pub struct SoakReport {
    /// Campaign seed.
    pub seed: u64,
    /// Simulated days replayed.
    pub days: usize,
    /// Event-loop slots replayed per intensity.
    pub slots: usize,
    /// Per-intensity results, ascending intensity.
    pub intensities: Vec<SoakIntensityReport>,
}

impl SoakReport {
    /// Renders the canonical JSON document (stable field order,
    /// bit-exact floats, trailing newline).
    pub fn to_json(&self) -> String {
        let mut out = String::with_capacity(4096);
        out.push_str("{\n");
        let _ = writeln!(
            out,
            "  \"seed\": {},\n  \"days\": {},\n  \"slots\": {},",
            self.seed, self.days, self.slots
        );
        out.push_str("  \"intensities\": [\n");
        for (i, report) in self.intensities.iter().enumerate() {
            Self::push_intensity(&mut out, report);
            out.push_str(if i + 1 < self.intensities.len() {
                ",\n"
            } else {
                "\n"
            });
        }
        out.push_str("  ]\n}\n");
        out
    }

    fn push_intensity(out: &mut String, r: &SoakIntensityReport) {
        let _ = writeln!(
            out,
            "    {{\n      \"intensity_millis\": {},\n      \"corrupted_lines\": {},",
            r.intensity_millis, r.corrupted_lines
        );
        let ing = &r.ingest;
        let _ = writeln!(
            out,
            "      \"ingest\": {{\"parsed\": {}, \"non_finite\": {}, \"malformed\": {}, \
             \"missing_fields\": {}, \"skipped_rows\": {}}},",
            ing.parsed, ing.non_finite, ing.malformed, ing.missing_fields, ing.skipped_rows
        );
        let src = &r.source;
        let _ = writeln!(
            out,
            "      \"source\": {{\"successes\": {}, \"failures\": {}, \"breaker_refusals\": {}, \
             \"backoff_skips\": {}, \"breaker_trips\": {}}},",
            src.successes, src.failures, src.breaker_refusals, src.backoff_skips, src.breaker_trips
        );
        let s = &r.service;
        let _ = writeln!(
            out,
            "      \"service\": {{\"steps\": {}, \"applied\": {}, \"implausible\": {}, \
             \"unknown_channel\": {}, \"queue_accepted\": {}, \"queue_dropped\": {}, \
             \"queue_high_water\": {}, \"reorder_released\": {}, \"reorder_duplicates\": {}, \
             \"reorder_too_late\": {}, \"reorder_overflowed\": {}, \"healthy_outputs\": {}, \
             \"backup_outputs\": {}, \"cluster_mean_outputs\": {}, \"unavailable_outputs\": {}}},",
            s.steps,
            s.applied,
            s.implausible,
            s.unknown_channel,
            s.queue.accepted,
            s.queue.dropped(),
            s.queue.high_water,
            s.reorder.released,
            s.reorder.duplicates,
            s.reorder.too_late,
            s.reorder.overflowed,
            s.healthy_outputs,
            s.backup_outputs,
            s.cluster_mean_outputs,
            s.unavailable_outputs
        );
        let _ = writeln!(
            out,
            "      \"max_buffered_depth\": {},\n      \"depth_bound\": {},",
            r.max_buffered_depth, r.depth_bound
        );
        out.push_str("      \"health\": [");
        for (i, h) in r.health.iter().enumerate() {
            if i > 0 {
                out.push_str(", ");
            }
            let _ = write!(
                out,
                "{{\"name\": \"{}\", \"state\": \"{}\", \"transitions\": {}, \"implausible\": {}}}",
                h.name,
                h.state.label(),
                h.transitions,
                h.implausible
            );
        }
        out.push_str("],\n      \"predictions\": [");
        for (i, p) in r.predictions.iter().enumerate() {
            if i > 0 {
                out.push_str(", ");
            }
            let _ = write!(
                out,
                "{{\"cluster\": {}, \"action\": \"{}\", ",
                p.cluster, p.action
            );
            match p.predicted {
                Some(v) => push_f64(out, "predicted", v),
                None => out.push_str("\"predicted\": null"),
            }
            out.push('}');
        }
        out.push_str("]\n    }");
    }
}

/// A completed intensity's full report round-trips, so a resumed soak
/// never re-runs finished intensities. Restore rebuilds the health and
/// prediction vectors from scratch (the receiver is normally a
/// [`Default`] placeholder, so nothing pins their lengths).
impl Snapshot for SoakIntensityReport {
    const TAG: &'static str = "stream-soak-intensity";
    const VERSION: u32 = 1;

    fn capture(&self, rec: &mut Record) {
        rec.put_u64("intensity_millis", u64::from(self.intensity_millis))
            .put_u64("corrupted_lines", self.corrupted_lines)
            .put_u64("ingest_parsed", self.ingest.parsed)
            .put_u64("ingest_non_finite", self.ingest.non_finite)
            .put_u64("ingest_malformed", self.ingest.malformed)
            .put_u64("ingest_missing_fields", self.ingest.missing_fields)
            .put_u64("ingest_skipped_rows", self.ingest.skipped_rows)
            .put_u64("source_successes", self.source.successes)
            .put_u64("source_failures", self.source.failures)
            .put_u64("source_breaker_refusals", self.source.breaker_refusals)
            .put_u64("source_backoff_skips", self.source.backoff_skips)
            .put_u64("source_breaker_trips", self.source.breaker_trips)
            .put_u64("queue_accepted", self.service.queue.accepted)
            .put_u64("queue_rejected", self.service.queue.rejected)
            .put_u64("queue_evicted", self.service.queue.evicted)
            .put_usize("queue_high_water", self.service.queue.high_water)
            .put_u64("reorder_released", self.service.reorder.released)
            .put_u64("reorder_duplicates", self.service.reorder.duplicates)
            .put_u64("reorder_too_late", self.service.reorder.too_late)
            .put_u64("reorder_overflowed", self.service.reorder.overflowed)
            .put_usize("reorder_high_water", self.service.reorder.high_water)
            .put_u64("unknown_channel", self.service.unknown_channel)
            .put_u64("applied", self.service.applied)
            .put_u64("implausible", self.service.implausible)
            .put_u64("steps", self.service.steps)
            .put_u64("healthy_outputs", self.service.healthy_outputs)
            .put_u64("backup_outputs", self.service.backup_outputs)
            .put_u64("cluster_mean_outputs", self.service.cluster_mean_outputs)
            .put_u64("unavailable_outputs", self.service.unavailable_outputs)
            .put_u64("refit_installs", self.service.refit_installs)
            .put_usize("max_buffered_depth", self.max_buffered_depth)
            .put_usize("depth_bound", self.depth_bound);
        let names: Vec<String> = self.health.iter().map(|h| h.name.clone()).collect();
        let states: Vec<String> = self
            .health
            .iter()
            .map(|h| h.state.label().to_owned())
            .collect();
        let transitions: Vec<u64> = self.health.iter().map(|h| h.transitions).collect();
        let implausible: Vec<u64> = self.health.iter().map(|h| h.implausible).collect();
        rec.put_str_list("health_names", &names)
            .put_str_list("health_states", &states)
            .put_u64_slice("health_transitions", &transitions)
            .put_u64_slice("health_implausible", &implausible);
        let clusters: Vec<usize> = self.predictions.iter().map(|p| p.cluster).collect();
        let actions: Vec<String> = self.predictions.iter().map(|p| p.action.clone()).collect();
        let predicted: Vec<Option<f64>> = self.predictions.iter().map(|p| p.predicted).collect();
        let mask: Vec<u64> = predicted.iter().map(|o| u64::from(o.is_some())).collect();
        let values: Vec<f64> = predicted.iter().map(|o| o.unwrap_or(0.0)).collect();
        rec.put_usize_slice("prediction_clusters", &clusters)
            .put_str_list("prediction_actions", &actions)
            .put_u64_slice("prediction_mask", &mask)
            .put_f64_slice("prediction_values", &values);
    }

    fn restore(&mut self, rec: &Record) -> std::result::Result<(), CkptError> {
        let intensity_millis = u32::try_from(rec.get_u64("intensity_millis")?)
            .map_err(|e| CkptError::decode("soak snapshot", e))?;
        let corrupted_lines = rec.get_u64("corrupted_lines")?;
        let ingest = IngestStats {
            parsed: rec.get_u64("ingest_parsed")?,
            non_finite: rec.get_u64("ingest_non_finite")?,
            malformed: rec.get_u64("ingest_malformed")?,
            missing_fields: rec.get_u64("ingest_missing_fields")?,
            skipped_rows: rec.get_u64("ingest_skipped_rows")?,
        };
        let source = SourceStats {
            successes: rec.get_u64("source_successes")?,
            failures: rec.get_u64("source_failures")?,
            breaker_refusals: rec.get_u64("source_breaker_refusals")?,
            backoff_skips: rec.get_u64("source_backoff_skips")?,
            breaker_trips: rec.get_u64("source_breaker_trips")?,
        };
        let service = ServiceStats {
            queue: QueueStats {
                accepted: rec.get_u64("queue_accepted")?,
                rejected: rec.get_u64("queue_rejected")?,
                evicted: rec.get_u64("queue_evicted")?,
                high_water: rec.get_usize("queue_high_water")?,
            },
            reorder: ReorderStats {
                released: rec.get_u64("reorder_released")?,
                duplicates: rec.get_u64("reorder_duplicates")?,
                too_late: rec.get_u64("reorder_too_late")?,
                overflowed: rec.get_u64("reorder_overflowed")?,
                high_water: rec.get_usize("reorder_high_water")?,
            },
            unknown_channel: rec.get_u64("unknown_channel")?,
            applied: rec.get_u64("applied")?,
            implausible: rec.get_u64("implausible")?,
            steps: rec.get_u64("steps")?,
            healthy_outputs: rec.get_u64("healthy_outputs")?,
            backup_outputs: rec.get_u64("backup_outputs")?,
            cluster_mean_outputs: rec.get_u64("cluster_mean_outputs")?,
            unavailable_outputs: rec.get_u64("unavailable_outputs")?,
            refit_installs: rec.get_u64("refit_installs")?,
        };
        let max_buffered_depth = rec.get_usize("max_buffered_depth")?;
        let depth_bound = rec.get_usize("depth_bound")?;
        let names = rec.get_str_list("health_names")?;
        let states = rec.get_str_list("health_states")?;
        let transitions = rec.get_u64_slice("health_transitions")?;
        let implausible = rec.get_u64_slice("health_implausible")?;
        if states.len() != names.len()
            || transitions.len() != names.len()
            || implausible.len() != names.len()
        {
            return Err(CkptError::decode(
                "soak snapshot",
                "health columns have mismatched lengths",
            ));
        }
        let mut health = Vec::with_capacity(names.len());
        for i in 0..names.len() {
            let state = HealthState::from_label(&states[i]).ok_or_else(|| {
                CkptError::decode(
                    "soak snapshot",
                    format!("unknown health state {:?}", states[i]),
                )
            })?;
            health.push(SensorHealth {
                name: names[i].clone(),
                state,
                transitions: transitions[i],
                implausible: implausible[i],
            });
        }
        let clusters = rec.get_usize_slice("prediction_clusters")?;
        let actions = rec.get_str_list("prediction_actions")?;
        let mask = rec.get_u64_slice("prediction_mask")?;
        let values = rec.get_f64_slice("prediction_values")?;
        if actions.len() != clusters.len()
            || mask.len() != clusters.len()
            || values.len() != clusters.len()
        {
            return Err(CkptError::decode(
                "soak snapshot",
                "prediction columns have mismatched lengths",
            ));
        }
        let mut predictions = Vec::with_capacity(clusters.len());
        for i in 0..clusters.len() {
            predictions.push(SoakPrediction {
                cluster: clusters[i],
                action: actions[i].clone(),
                predicted: (mask[i] != 0).then_some(values[i]),
            });
        }
        self.intensity_millis = intensity_millis;
        self.corrupted_lines = corrupted_lines;
        self.ingest = ingest;
        self.source = source;
        self.service = service;
        self.max_buffered_depth = max_buffered_depth;
        self.depth_bound = depth_bound;
        self.health = health;
        self.predictions = predictions;
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::health::HealthState;

    fn report() -> SoakReport {
        SoakReport {
            seed: 42,
            days: 3,
            slots: 864,
            intensities: vec![SoakIntensityReport {
                intensity_millis: 50,
                corrupted_lines: 17,
                ingest: IngestStats {
                    parsed: 1000,
                    non_finite: 3,
                    malformed: 2,
                    missing_fields: 1,
                    skipped_rows: 0,
                },
                source: SourceStats {
                    successes: 800,
                    failures: 64,
                    breaker_refusals: 10,
                    backoff_skips: 20,
                    breaker_trips: 2,
                },
                service: ServiceStats::default(),
                max_buffered_depth: 96,
                depth_bound: 4096,
                health: vec![SensorHealth {
                    name: "t0".to_owned(),
                    state: HealthState::Live,
                    transitions: 2,
                    implausible: 5,
                }],
                predictions: vec![
                    SoakPrediction {
                        cluster: 0,
                        action: "healthy".to_owned(),
                        predicted: Some(21.125),
                    },
                    SoakPrediction {
                        cluster: 1,
                        action: "unavailable".to_owned(),
                        predicted: None,
                    },
                ],
            }],
        }
    }

    #[test]
    fn json_is_byte_stable_across_renders() {
        assert_eq!(report().to_json(), report().to_json());
    }

    #[test]
    fn json_carries_exact_float_bits() {
        let json = report().to_json();
        let expected_bits = format!("{:016x}", 21.125_f64.to_bits());
        assert!(json.contains(&expected_bits), "missing exact bits");
        assert!(json.contains("\"approx\": \"21.1250\""));
        assert!(json.contains("\"predicted\": null"));
        assert!(json.ends_with("\n"), "trailing newline for clean diffs");
    }

    #[test]
    fn json_lists_every_section() {
        let json = report().to_json();
        for key in [
            "\"seed\": 42",
            "\"intensity_millis\": 50",
            "\"ingest\"",
            "\"source\"",
            "\"service\"",
            "\"max_buffered_depth\": 96",
            "\"health\"",
            "\"predictions\"",
            "\"breaker_trips\": 2",
        ] {
            assert!(json.contains(key), "missing {key}");
        }
    }
}
