//! Degradation-aware operation: what the reduced deployment does when
//! a kept sensor goes dark.
//!
//! The paper's endgame is removing most sensors and running the
//! auditorium on a handful of representatives — which makes each
//! representative a single point of failure. This module gives the
//! failure a *structured* outcome instead of an error: when a
//! representative's channel loses coverage, [`crate::ReducedModel`]
//! falls back to the ranked cluster-mate backups chosen at selection
//! time (see [`thermal_select::rank_backups`]), then to the per-slot
//! mean of whatever cluster members are still reporting, and records
//! every substitution in a [`DegradationReport`].

use crate::reduced::ClusterMeanModelReport;
use crate::{CoreError, Result};

/// When a representative counts as dark, and how eagerly to fall
/// back.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct DegradationPolicy {
    /// Minimum fraction of evaluation-mask slots a representative (or
    /// a backup standing in for it) must have present to count as
    /// alive.
    pub min_rep_coverage: f64,
}

impl Default for DegradationPolicy {
    /// A representative reporting on fewer than a quarter of the
    /// evaluation slots is treated as dead: below that, the piece-wise
    /// segments it anchors are too short to validate against anyway.
    fn default() -> Self {
        DegradationPolicy {
            min_rep_coverage: 0.25,
        }
    }
}

impl DegradationPolicy {
    /// Validates the policy.
    ///
    /// # Errors
    ///
    /// Returns [`CoreError::InvalidConfig`] when the coverage
    /// threshold is not a fraction in `(0, 1]`.
    pub fn validate(&self) -> Result<()> {
        if !self.min_rep_coverage.is_finite()
            || self.min_rep_coverage <= 0.0
            || self.min_rep_coverage > 1.0
        {
            return Err(CoreError::InvalidConfig {
                reason: "min_rep_coverage must be a fraction in (0, 1]".to_owned(),
            });
        }
        Ok(())
    }
}

/// Lifecycle of the *served model* under regime change — the
/// model-level counterpart of the per-sensor fallback ladder.
///
/// The streaming layer's drift detector (Page–Hinkley on one-step
/// residuals, per cluster) escalates through these states:
/// `Stable → Drifting → Refitting → Recovered → Stable`. `Drifting`
/// and `Refitting` flag served outputs as degraded and widen the
/// published uncertainty band; `Recovered` is the hysteresis hold
/// after a refit lands, before the detector is trusted again.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ModelHealth {
    /// Residuals look like the identification regime; serve normally.
    Stable,
    /// The drift detector fired: the physics no longer match the
    /// coefficients. Outputs are served but flagged degraded with a
    /// widened uncertainty band.
    Drifting,
    /// A supervised re-identification is in flight; the old model
    /// keeps serving (still degraded) until the refit lands.
    Refitting,
    /// A refit was installed; residuals must stay quiet for a
    /// hysteresis hold before the cluster is called stable again.
    Recovered,
}

impl Default for ModelHealth {
    /// A fresh supervisor starts out trusting its coefficients.
    fn default() -> Self {
        ModelHealth::Stable
    }
}

impl ModelHealth {
    /// Canonical lower-case label (report vocabulary).
    pub fn name(self) -> &'static str {
        match self {
            ModelHealth::Stable => "stable",
            ModelHealth::Drifting => "drifting",
            ModelHealth::Refitting => "refitting",
            ModelHealth::Recovered => "recovered",
        }
    }

    /// Inverse of [`ModelHealth::name`] (snapshot restore path).
    pub fn from_name(name: &str) -> Option<Self> {
        match name {
            "stable" => Some(ModelHealth::Stable),
            "drifting" => Some(ModelHealth::Drifting),
            "refitting" => Some(ModelHealth::Refitting),
            "recovered" => Some(ModelHealth::Recovered),
            _ => None,
        }
    }

    /// `true` while served outputs should be flagged degraded (the
    /// coefficients are suspect: drift confirmed, refit not yet
    /// installed).
    pub fn is_degraded(self) -> bool {
        matches!(self, ModelHealth::Drifting | ModelHealth::Refitting)
    }
}

/// How one representative's channel was handled.
#[derive(Debug, Clone, PartialEq)]
#[non_exhaustive]
pub enum FallbackAction {
    /// The representative reported normally; nothing substituted.
    Healthy,
    /// A ranked cluster-mate backup stood in for the dead
    /// representative.
    Backup {
        /// Channel name of the substitute sensor.
        substitute: String,
    },
    /// No ranked backup was alive; the per-slot mean of the cluster's
    /// still-reporting members stood in.
    ClusterMean {
        /// How many cluster members the mean draws from.
        members: usize,
    },
    /// The whole cluster was dark; the channel was frozen at a
    /// constant so the rest of the model stays evaluable, and the
    /// cluster is excluded from pooled errors.
    Unavailable,
}

/// One representative's degradation record.
#[derive(Debug, Clone, PartialEq)]
pub struct DegradationEvent {
    /// Cluster the representative serves.
    pub cluster: usize,
    /// Channel name of the representative.
    pub representative: String,
    /// Fraction of evaluation-mask slots the representative had
    /// present.
    pub coverage: f64,
    /// What was done about it.
    pub action: FallbackAction,
}

/// Structured account of every fallback taken during a degraded
/// evaluation — the pipeline's answer instead of an error when
/// sensors die.
#[derive(Debug, Clone, PartialEq)]
pub struct DegradationReport {
    events: Vec<DegradationEvent>,
}

impl DegradationReport {
    /// Builds a report from per-representative events (normally done
    /// by [`crate::ReducedModel::evaluate_degraded`]).
    pub fn new(events: Vec<DegradationEvent>) -> Self {
        DegradationReport { events }
    }

    /// All per-representative records, cluster order.
    pub fn events(&self) -> &[DegradationEvent] {
        &self.events
    }

    /// `true` when at least one representative needed a fallback.
    pub fn is_degraded(&self) -> bool {
        self.events
            .iter()
            .any(|e| e.action != FallbackAction::Healthy)
    }

    /// Number of representatives that needed any fallback.
    pub fn degraded_count(&self) -> usize {
        self.events
            .iter()
            .filter(|e| e.action != FallbackAction::Healthy)
            .count()
    }

    /// Clusters excluded from pooled errors because every fallback
    /// failed.
    pub fn unavailable_clusters(&self) -> Vec<usize> {
        let mut out: Vec<usize> = self
            .events
            .iter()
            .filter(|e| e.action == FallbackAction::Unavailable)
            .map(|e| e.cluster)
            .collect();
        out.sort_unstable();
        out.dedup();
        out
    }

    /// Records for representatives that were substituted, in cluster
    /// order.
    pub fn substitutions(&self) -> impl Iterator<Item = &DegradationEvent> {
        self.events
            .iter()
            .filter(|e| e.action != FallbackAction::Healthy)
    }
}

/// Outcome of a degradation-aware evaluation: the fallbacks taken,
/// plus the usual pooled-error report when any cluster remained
/// evaluable. `report` is `None` only under total blackout (no
/// usable prediction segment, or no ground truth anywhere) — the
/// pipeline still completes and says *why* through `degradation`.
#[derive(Debug, Clone)]
pub struct DegradedEvaluation {
    /// Every fallback taken (one event per representative).
    pub degradation: DegradationReport,
    /// Pooled cluster-mean errors over the evaluable clusters, when
    /// any exist.
    pub report: Option<ClusterMeanModelReport>,
}

#[cfg(test)]
mod tests {
    use super::*;

    fn event(cluster: usize, action: FallbackAction) -> DegradationEvent {
        DegradationEvent {
            cluster,
            representative: format!("s{cluster}"),
            coverage: 0.0,
            action,
        }
    }

    #[test]
    fn policy_validation() {
        assert!(DegradationPolicy::default().validate().is_ok());
        for bad in [0.0, -0.5, 1.5, f64::NAN] {
            let p = DegradationPolicy {
                min_rep_coverage: bad,
            };
            assert!(p.validate().is_err(), "accepted {bad}");
        }
    }

    #[test]
    fn model_health_vocabulary() {
        use ModelHealth::*;
        for (state, name, degraded) in [
            (Stable, "stable", false),
            (Drifting, "drifting", true),
            (Refitting, "refitting", true),
            (Recovered, "recovered", false),
        ] {
            assert_eq!(state.name(), name);
            assert_eq!(state.is_degraded(), degraded);
        }
    }

    #[test]
    fn report_accounting() {
        let report = DegradationReport::new(vec![
            event(0, FallbackAction::Healthy),
            event(
                1,
                FallbackAction::Backup {
                    substitute: "s9".to_owned(),
                },
            ),
            event(2, FallbackAction::Unavailable),
        ]);
        assert!(report.is_degraded());
        assert_eq!(report.degraded_count(), 2);
        assert_eq!(report.unavailable_clusters(), vec![2]);
        assert_eq!(report.substitutions().count(), 2);
        let clean = DegradationReport::new(vec![event(0, FallbackAction::Healthy)]);
        assert!(!clean.is_degraded());
        assert!(clean.unavailable_clusters().is_empty());
    }
}
