//! The selection abstraction: inputs, outputs and the [`Selector`]
//! trait implemented by every strategy.

use thermal_cluster::Clustering;
use thermal_linalg::Matrix;

use crate::{Result, SelectError};

/// Everything a selector needs: training trajectories
/// (`sensors × samples`), the sensor clustering, how many
/// representatives to pick per cluster, and a seed for the stochastic
/// strategies.
#[derive(Debug, Clone, Copy)]
pub struct SelectionInput<'a> {
    /// Training-period trajectories, one row per sensor.
    pub trajectories: &'a Matrix,
    /// Clustering of the same sensors.
    pub clustering: &'a Clustering,
    /// Representatives per cluster.
    pub per_cluster: usize,
    /// Seed for stochastic selectors.
    pub seed: u64,
}

impl<'a> SelectionInput<'a> {
    /// Validates shared invariants (non-zero request, matching
    /// dimensions).
    ///
    /// # Errors
    ///
    /// Returns [`SelectError::InvalidRequest`] describing the
    /// problem.
    pub fn validate(&self) -> Result<()> {
        if self.per_cluster == 0 {
            return Err(SelectError::InvalidRequest {
                reason: "must select at least one sensor per cluster".to_owned(),
            });
        }
        if self.trajectories.rows() != self.clustering.sensor_count() {
            return Err(SelectError::InvalidRequest {
                reason: format!(
                    "clustering covers {} sensors but {} trajectories supplied",
                    self.clustering.sensor_count(),
                    self.trajectories.rows()
                ),
            });
        }
        if self.trajectories.cols() < 2 {
            return Err(SelectError::InvalidRequest {
                reason: "need at least two training samples".to_owned(),
            });
        }
        Ok(())
    }

    /// Total number of sensors a selector should return.
    pub fn total_requested(&self) -> usize {
        self.per_cluster * self.clustering.k()
    }
}

/// A completed selection: the representative sensors assigned to each
/// cluster (indices into the clustered sensor list).
///
/// Strategies that ignore clusters (plain random, thermostats, GP
/// placement) still *assign* their chosen sensors to clusters so that
/// cluster-mean prediction can be evaluated uniformly — exactly how
/// the paper compares them in Table II.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Selection {
    per_cluster: Vec<Vec<usize>>,
    /// Ranked fallback sensors per cluster (best substitute first),
    /// used when a representative goes dark in operation. Empty for
    /// selections that never ranked backups.
    backups: Vec<Vec<usize>>,
}

impl Selection {
    /// Creates a selection from per-cluster sensor lists.
    ///
    /// # Errors
    ///
    /// Returns [`SelectError::InvalidRequest`] when any cluster has no
    /// representative.
    pub fn new(per_cluster: Vec<Vec<usize>>) -> Result<Self> {
        if per_cluster.is_empty() || per_cluster.iter().any(|c| c.is_empty()) {
            return Err(SelectError::InvalidRequest {
                reason: "every cluster needs at least one representative".to_owned(),
            });
        }
        Ok(Selection {
            per_cluster,
            backups: Vec::new(),
        })
    }

    /// Attaches ranked per-cluster backup lists (best substitute
    /// first); see [`crate::rank_backups`] for the standard ranking.
    ///
    /// # Errors
    ///
    /// Returns [`SelectError::InvalidRequest`] when the backup list
    /// count differs from the cluster count or a backup duplicates a
    /// representative of its own cluster.
    pub fn with_backups(mut self, backups: Vec<Vec<usize>>) -> Result<Self> {
        if backups.len() != self.per_cluster.len() {
            return Err(SelectError::InvalidRequest {
                reason: format!(
                    "{} backup lists supplied for {} clusters",
                    backups.len(),
                    self.per_cluster.len()
                ),
            });
        }
        for (c, (reps, bs)) in self.per_cluster.iter().zip(&backups).enumerate() {
            if bs.iter().any(|b| reps.contains(b)) {
                return Err(SelectError::InvalidRequest {
                    reason: format!("cluster {c} lists a representative among its backups"),
                });
            }
        }
        self.backups = backups;
        Ok(self)
    }

    /// Ranked backups of cluster `c` (best substitute first); empty
    /// when no backups were ranked.
    pub fn backups(&self, c: usize) -> &[usize] {
        self.backups.get(c).map_or(&[], Vec::as_slice)
    }

    /// Per-cluster ranked backup lists (empty when none were ranked).
    pub fn backup_lists(&self) -> &[Vec<usize>] {
        &self.backups
    }

    /// `true` when ranked backups are attached.
    pub fn has_backups(&self) -> bool {
        !self.backups.is_empty()
    }

    /// Representatives of cluster `c`.
    ///
    /// # Panics
    ///
    /// Panics when `c` is out of range.
    pub fn representatives(&self, c: usize) -> &[usize] {
        &self.per_cluster[c]
    }

    /// Per-cluster representative lists.
    pub fn per_cluster(&self) -> &[Vec<usize>] {
        &self.per_cluster
    }

    /// Number of clusters covered.
    pub fn cluster_count(&self) -> usize {
        self.per_cluster.len()
    }

    /// All selected sensors, flattened and deduplicated, in ascending
    /// order.
    pub fn sensors(&self) -> Vec<usize> {
        let mut all: Vec<usize> = self.per_cluster.iter().flatten().copied().collect();
        all.sort_unstable();
        all.dedup();
        all
    }
}

/// A sensor-selection strategy.
///
/// The trait is object-safe so strategy sets can be iterated for
/// comparison tables (Table II, Figs. 10–11).
pub trait Selector {
    /// Short machine-friendly name (`"sms"`, `"srs"`, …).
    fn name(&self) -> &'static str;

    /// Chooses representatives for every cluster.
    ///
    /// # Errors
    ///
    /// Implementations return [`SelectError::InvalidRequest`] for
    /// impossible requests and propagate numerical failures.
    fn select(&self, input: &SelectionInput<'_>) -> Result<Selection>;
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn selection_validation() {
        assert!(Selection::new(vec![]).is_err());
        assert!(Selection::new(vec![vec![1], vec![]]).is_err());
        let s = Selection::new(vec![vec![2, 1], vec![0]]).unwrap();
        assert_eq!(s.cluster_count(), 2);
        assert_eq!(s.representatives(0), &[2, 1]);
        assert_eq!(s.sensors(), vec![0, 1, 2]);
    }

    #[test]
    fn input_validation() {
        let traj = Matrix::from_rows(&[&[1.0, 2.0][..], &[3.0, 4.0][..]]).unwrap();
        let clustering = Clustering::from_assignments(vec![0, 1], 2).unwrap();
        let ok = SelectionInput {
            trajectories: &traj,
            clustering: &clustering,
            per_cluster: 1,
            seed: 0,
        };
        assert!(ok.validate().is_ok());
        assert_eq!(ok.total_requested(), 2);

        let zero = SelectionInput {
            per_cluster: 0,
            ..ok
        };
        assert!(zero.validate().is_err());

        let wrong_cluster = Clustering::from_assignments(vec![0], 1).unwrap();
        let mismatched = SelectionInput {
            clustering: &wrong_cluster,
            ..ok
        };
        assert!(mismatched.validate().is_err());

        let thin = Matrix::from_rows(&[&[1.0][..], &[2.0][..]]).unwrap();
        let too_thin = SelectionInput {
            trajectories: &thin,
            ..ok
        };
        assert!(too_thin.validate().is_err());
    }
}
