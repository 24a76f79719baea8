//! Evaluation of selections: how well do the chosen sensors predict
//! the *cluster thermal means* on held-out data? This is the metric
//! of Table II and Figures 9–10 (99th percentile of the absolute
//! prediction error).

use thermal_cluster::Clustering;
use thermal_linalg::stats::{self, EmpiricalCdf};
use thermal_linalg::Matrix;

use crate::selection::Selection;
use crate::{Result, SelectError};

/// Pooled absolute errors of cluster-mean prediction.
#[derive(Debug, Clone)]
pub struct ClusterMeanReport {
    errors: Vec<f64>,
    per_cluster_mean_abs: Vec<f64>,
}

impl ClusterMeanReport {
    /// All pooled absolute errors (cluster × validation samples).
    pub fn errors(&self) -> &[f64] {
        &self.errors
    }

    /// Mean absolute error per cluster.
    pub fn per_cluster_mean_abs(&self) -> &[f64] {
        &self.per_cluster_mean_abs
    }

    /// Percentile of the pooled absolute error (the paper reports the
    /// 99th).
    ///
    /// # Errors
    ///
    /// Propagates percentile-argument failures.
    pub fn percentile(&self, p: f64) -> Result<f64> {
        Ok(stats::percentile(&self.errors, p)?)
    }

    /// ECDF of the pooled absolute errors.
    ///
    /// # Errors
    ///
    /// Propagates ECDF construction failures.
    pub fn cdf(&self) -> Result<EmpiricalCdf> {
        Ok(EmpiricalCdf::new(&self.errors)?)
    }

    /// RMS of the pooled errors.
    ///
    /// # Errors
    ///
    /// Propagates RMS failures (empty report).
    pub fn rms(&self) -> Result<f64> {
        Ok(stats::rms(&self.errors)?)
    }
}

/// Evaluates a selection against validation trajectories
/// (`sensors × samples`, same sensor order as the clustering): the
/// mean of each cluster's chosen sensors predicts the mean of *all*
/// the cluster's sensors, sample by sample.
///
/// # Errors
///
/// Returns [`SelectError::InvalidRequest`] when shapes disagree or a
/// selected sensor is out of range.
pub fn cluster_mean_errors(
    validation: &Matrix,
    clustering: &Clustering,
    selection: &Selection,
) -> Result<ClusterMeanReport> {
    let n = validation.rows();
    if clustering.sensor_count() != n {
        return Err(SelectError::InvalidRequest {
            reason: format!(
                "clustering covers {} sensors but {} validation trajectories supplied",
                clustering.sensor_count(),
                n
            ),
        });
    }
    if selection.cluster_count() != clustering.k() {
        return Err(SelectError::InvalidRequest {
            reason: format!(
                "selection covers {} clusters, clustering has {}",
                selection.cluster_count(),
                clustering.k()
            ),
        });
    }
    for &s in &selection.sensors() {
        if s >= n {
            return Err(SelectError::InvalidRequest {
                reason: format!("selected sensor {s} out of range ({n} sensors)"),
            });
        }
    }

    let samples = validation.cols();
    let clusters = clustering.clusters();
    let mut errors = Vec::with_capacity(clusters.len() * samples);
    let mut per_cluster_mean_abs = Vec::with_capacity(clusters.len());
    for (c, members) in clusters.iter().enumerate() {
        let reps = selection.representatives(c);
        let mut abs_sum = 0.0;
        for t in 0..samples {
            let truth: f64 =
                members.iter().map(|&i| validation[(i, t)]).sum::<f64>() / members.len() as f64;
            let pred: f64 =
                reps.iter().map(|&i| validation[(i, t)]).sum::<f64>() / reps.len() as f64;
            let e = (pred - truth).abs();
            abs_sum += e;
            errors.push(e);
        }
        per_cluster_mean_abs.push(abs_sum / samples as f64);
    }
    Ok(ClusterMeanReport {
        errors,
        per_cluster_mean_abs,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::selection::Selection;

    fn fixture() -> (Matrix, Clustering) {
        // Cluster 0 = rows 0..3 with values v, v+0.3, v+0.6; cluster 1
        // = rows 3..5.
        let m = Matrix::from_rows(&[
            &[20.0, 21.0][..],
            &[20.3, 21.3][..],
            &[20.6, 21.6][..],
            &[25.0, 24.0][..],
            &[26.0, 25.0][..],
        ])
        .unwrap();
        let c = Clustering::from_assignments(vec![0, 0, 0, 1, 1], 2).unwrap();
        (m, c)
    }

    #[test]
    fn perfect_representative_has_small_error() {
        let (m, c) = fixture();
        // Row 1 is exactly the mean of cluster 0; row 3 is 0.5 below
        // cluster 1's mean.
        let sel = Selection::new(vec![vec![1], vec![3]]).unwrap();
        let report = cluster_mean_errors(&m, &c, &sel).unwrap();
        assert_eq!(report.errors().len(), 4);
        assert!(report.per_cluster_mean_abs()[0] < 1e-12);
        assert!((report.per_cluster_mean_abs()[1] - 0.5).abs() < 1e-12);
        assert!((report.percentile(99.0).unwrap() - 0.5).abs() < 1e-9);
        assert!(report.rms().unwrap() > 0.0);
        assert!(report.cdf().is_ok());
    }

    #[test]
    fn wrong_zone_representative_has_large_error() {
        let (m, c) = fixture();
        // Predict cluster 1 with a cluster-0 sensor: ~5 °C off.
        let sel = Selection::new(vec![vec![1], vec![0]]).unwrap();
        let report = cluster_mean_errors(&m, &c, &sel).unwrap();
        assert!(report.per_cluster_mean_abs()[1] > 4.0);
    }

    #[test]
    fn multiple_representatives_average() {
        let (m, c) = fixture();
        // Rows 0 and 2 average to the cluster-0 mean exactly.
        let sel = Selection::new(vec![vec![0, 2], vec![4]]).unwrap();
        let report = cluster_mean_errors(&m, &c, &sel).unwrap();
        assert!(report.per_cluster_mean_abs()[0] < 1e-12);
    }

    #[test]
    fn shape_mismatches_rejected() {
        let (m, c) = fixture();
        let wrong_clusters = Selection::new(vec![vec![0]]).unwrap();
        assert!(cluster_mean_errors(&m, &c, &wrong_clusters).is_err());
        let bad_sensor = Selection::new(vec![vec![0], vec![99]]).unwrap();
        assert!(cluster_mean_errors(&m, &c, &bad_sensor).is_err());
        let short = Matrix::from_rows(&[&[1.0][..], &[2.0][..]]).unwrap();
        let sel = Selection::new(vec![vec![0], vec![1]]).unwrap();
        assert!(cluster_mean_errors(&short, &c, &sel).is_err());
    }
}
