//! Machine-readable drift-recovery reports with canonical,
//! byte-stable JSON.
//!
//! The recovery-soak harness (`cargo xtask soak recovery`) replays a
//! trace with a deterministic mid-trace regime shift through a service
//! running the online identification loop, and asserts the served
//! model heals itself: the windowed residual RMSE must return to a
//! tolerance band of the pre-shift baseline within a bounded number of
//! slots. Like the chaos soak, the driver byte-compares whole reports
//! across repeated runs and `THERMAL_THREADS` settings, so the
//! serialization here is canonical: fixed field order, floats rendered
//! as the hex of their IEEE-754 bits (with a rounded human-readable
//! echo), trailing newline.

use std::fmt::Write as _;

use crate::online::OnlineStats;
use crate::soak::push_f64;

/// One cluster's drift-supervision summary in a recovery report.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RecoveryClusterReport {
    /// Cluster index.
    pub cluster: usize,
    /// Final [`thermal_core::ModelHealth`] label (`stable`,
    /// `drifting`, `refitting`, `recovered`).
    pub final_health: String,
    /// Drift alarms raised over the run.
    pub alarms: u64,
    /// Refits installed for this cluster.
    pub refits: u64,
}

/// A full recovery-soak run: the regime-shift scenario parameters,
/// the residual-RMSE trajectory landmarks, and the online-loop
/// accounting that explains them.
#[derive(Debug, Clone, PartialEq)]
pub struct RecoveryReport {
    /// Campaign seed.
    pub seed: u64,
    /// Simulated days replayed.
    pub days: usize,
    /// Event-loop slots replayed.
    pub slots: usize,
    /// First slot whose telemetry is under the regime shift.
    pub shift_slot: usize,
    /// Sliding residual window length (slots) behind every RMSE below.
    pub window: usize,
    /// Slots after `shift_slot` within which recovery must complete.
    pub recovery_budget: usize,
    /// Recovery tolerance in milli-units (e.g. `2500` = the windowed
    /// RMSE must fall back under 2.5 × baseline), kept integral so the
    /// report never round-trips a float through text.
    pub tolerance_millis: u32,
    /// Windowed RMSE over the last clean window before the shift.
    pub baseline_rmse: f64,
    /// Peak windowed RMSE inside the recovery budget — proof the
    /// shift was actually visible to the detector.
    pub peak_rmse: f64,
    /// Windowed RMSE at the end of the run.
    pub final_rmse: f64,
    /// Slots after `shift_slot` until the windowed RMSE first
    /// re-entered the tolerance band; `None` if it never did.
    pub recovered_after: Option<usize>,
    /// Online identification counters at end of run.
    pub online: OnlineStats,
    /// Replacement models installed into the served
    /// [`thermal_core::ReducedModel`].
    pub refit_installs: u64,
    /// Per-cluster drift supervision, cluster order.
    pub clusters: Vec<RecoveryClusterReport>,
}

impl RecoveryReport {
    /// Renders the canonical JSON document (stable field order,
    /// bit-exact floats, trailing newline).
    pub fn to_json(&self) -> String {
        let mut out = String::with_capacity(2048);
        out.push_str("{\n");
        let _ = writeln!(
            out,
            "  \"seed\": {},\n  \"days\": {},\n  \"slots\": {},\n  \"shift_slot\": {},",
            self.seed, self.days, self.slots, self.shift_slot
        );
        let _ = writeln!(
            out,
            "  \"window\": {},\n  \"recovery_budget\": {},\n  \"tolerance_millis\": {},",
            self.window, self.recovery_budget, self.tolerance_millis
        );
        out.push_str("  ");
        push_f64(&mut out, "baseline_rmse", self.baseline_rmse);
        out.push_str(",\n  ");
        push_f64(&mut out, "peak_rmse", self.peak_rmse);
        out.push_str(",\n  ");
        push_f64(&mut out, "final_rmse", self.final_rmse);
        out.push_str(",\n");
        match self.recovered_after {
            Some(slots) => {
                let _ = writeln!(out, "  \"recovered_after\": {slots},");
            }
            None => out.push_str("  \"recovered_after\": null,\n"),
        }
        let o = &self.online;
        let _ = writeln!(
            out,
            "  \"online\": {{\"rows_ingested\": {}, \"rows_skipped\": {}, \
             \"residual_slots\": {}, \"refit_attempts\": {}, \"refits_completed\": {}, \
             \"refits_quarantined\": {}}},",
            o.rows_ingested,
            o.rows_skipped,
            o.residual_slots,
            o.refit_attempts,
            o.refits_completed,
            o.refits_quarantined
        );
        let _ = writeln!(out, "  \"refit_installs\": {},", self.refit_installs);
        out.push_str("  \"clusters\": [");
        for (i, c) in self.clusters.iter().enumerate() {
            if i > 0 {
                out.push_str(", ");
            }
            let _ = write!(
                out,
                "{{\"cluster\": {}, \"final_health\": \"{}\", \"alarms\": {}, \"refits\": {}}}",
                c.cluster, c.final_health, c.alarms, c.refits
            );
        }
        out.push_str("]\n}\n");
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn report() -> RecoveryReport {
        RecoveryReport {
            seed: 7,
            days: 2,
            slots: 576,
            shift_slot: 288,
            window: 48,
            recovery_budget: 144,
            tolerance_millis: 2500,
            baseline_rmse: 0.0125,
            peak_rmse: 0.75,
            final_rmse: 0.02,
            recovered_after: Some(96),
            online: OnlineStats {
                rows_ingested: 570,
                rows_skipped: 6,
                residual_slots: 560,
                refit_attempts: 2,
                refits_completed: 2,
                refits_quarantined: 0,
            },
            refit_installs: 2,
            clusters: vec![
                RecoveryClusterReport {
                    cluster: 0,
                    final_health: "stable".to_owned(),
                    alarms: 1,
                    refits: 1,
                },
                RecoveryClusterReport {
                    cluster: 1,
                    final_health: "recovered".to_owned(),
                    alarms: 1,
                    refits: 1,
                },
            ],
        }
    }

    #[test]
    fn json_is_byte_stable_across_renders() {
        assert_eq!(report().to_json(), report().to_json());
    }

    #[test]
    fn json_carries_exact_float_bits() {
        let json = report().to_json();
        let expected_bits = format!("{:016x}", 0.75_f64.to_bits());
        assert!(json.contains(&expected_bits), "missing exact bits");
        assert!(json.contains("\"approx\": \"0.7500\""));
        assert!(json.ends_with('\n'), "trailing newline for clean diffs");
    }

    #[test]
    fn json_renders_unrecovered_runs_too() {
        let mut r = report();
        r.recovered_after = None;
        assert!(r.to_json().contains("\"recovered_after\": null"));
    }

    #[test]
    fn json_lists_every_section() {
        let json = report().to_json();
        for key in [
            "\"seed\": 7",
            "\"shift_slot\": 288",
            "\"window\": 48",
            "\"recovery_budget\": 144",
            "\"tolerance_millis\": 2500",
            "\"baseline_rmse\"",
            "\"peak_rmse\"",
            "\"final_rmse\"",
            "\"recovered_after\": 96",
            "\"online\"",
            "\"refit_installs\": 2",
            "\"final_health\": \"recovered\"",
        ] {
            assert!(json.contains(key), "missing {key}");
        }
    }
}
