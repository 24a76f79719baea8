//! Model-based HVAC flow planning — the application the paper builds
//! toward ("a practical foundation for HVAC control and optimization
//! for large open spaces").
//!
//! Given an identified [`ThermalModel`] (dense or reduced), the
//! [`FlowPlanner`] runs a receding-horizon policy: at every step it
//! scales the VAV flow inputs to the *smallest* candidate level whose
//! predicted temperatures stay inside a comfort band over a lookahead
//! window, holding the exogenous inputs (occupancy, lighting, ambient)
//! at their forecast values. Cold-air flow is the energy carrier, so
//! minimising flow subject to comfort is the standard economic
//! objective.

use thermal_linalg::Matrix;
use thermal_sysid::{ModelOrder, ThermalModel};

use crate::{CoreError, Result};

/// The comfort band predicted temperatures must stay inside.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ComfortBand {
    /// Lower bound, °C.
    pub min: f64,
    /// Upper bound, °C.
    pub max: f64,
}

impl ComfortBand {
    /// Creates a band after validating `min < max`.
    ///
    /// # Errors
    ///
    /// Returns [`CoreError::InvalidConfig`] for an empty or reversed
    /// band.
    pub fn new(min: f64, max: f64) -> Result<Self> {
        if !(min.is_finite() && max.is_finite() && min < max) {
            return Err(CoreError::InvalidConfig {
                reason: format!("comfort band [{min}, {max}] is not a valid interval"),
            });
        }
        Ok(ComfortBand { min, max })
    }

    /// The ASHRAE-ish occupied band used by the examples
    /// (20.0–23.0 °C).
    pub fn occupied() -> Self {
        ComfortBand {
            min: 20.0,
            max: 23.0,
        }
    }

    /// `true` when `t` lies inside the band.
    pub fn contains(&self, t: f64) -> bool {
        (self.min..=self.max).contains(&t)
    }

    /// Distance of `t` outside the band (zero inside).
    pub fn violation(&self, t: f64) -> f64 {
        if t < self.min {
            self.min - t
        } else if t > self.max {
            t - self.max
        } else {
            0.0
        }
    }
}

/// Configuration of the receding-horizon planner.
#[derive(Debug, Clone, PartialEq)]
pub struct ControlConfig {
    /// Comfort band to enforce.
    pub band: ComfortBand,
    /// Lookahead length in samples when vetting a flow level.
    pub lookahead: usize,
    /// Candidate flow scalings (fractions of the baseline flow
    /// columns), ascending. The planner picks the smallest feasible
    /// one.
    pub flow_levels: Vec<f64>,
}

impl Default for ControlConfig {
    fn default() -> Self {
        ControlConfig {
            band: ComfortBand::occupied(),
            lookahead: 6,
            flow_levels: vec![0.2, 0.4, 0.6, 0.8, 1.0],
        }
    }
}

impl ControlConfig {
    fn validate(&self) -> Result<()> {
        if self.lookahead == 0 {
            return Err(CoreError::InvalidConfig {
                reason: "lookahead must be at least one step".to_owned(),
            });
        }
        if self.flow_levels.is_empty() {
            return Err(CoreError::InvalidConfig {
                reason: "at least one flow level is required".to_owned(),
            });
        }
        let mut last = f64::NEG_INFINITY;
        for &l in &self.flow_levels {
            if !(l.is_finite() && l >= 0.0 && l > last) {
                return Err(CoreError::InvalidConfig {
                    reason: "flow levels must be non-negative, finite and strictly ascending"
                        .to_owned(),
                });
            }
            last = l;
        }
        Ok(())
    }
}

/// The planner's product: per-step flow scalings and the trajectory
/// they are predicted to produce.
#[derive(Debug, Clone)]
pub struct FlowPlan {
    /// Chosen flow scaling per step.
    pub scale: Vec<f64>,
    /// Predicted sensor temperatures under the plan (steps × sensors).
    pub predicted: Matrix,
    /// Steps at which no candidate level kept the band (the largest
    /// level was used as best effort).
    pub infeasible_steps: Vec<usize>,
}

impl FlowPlan {
    /// Mean flow scaling over the plan — the relative energy proxy
    /// (supply-fan energy grows with flow).
    pub fn mean_scale(&self) -> f64 {
        if self.scale.is_empty() {
            return 0.0;
        }
        self.scale.iter().sum::<f64>() / self.scale.len() as f64
    }

    /// Worst predicted band violation, °C.
    pub fn worst_violation(&self, band: &ComfortBand) -> f64 {
        let mut worst = 0.0_f64;
        for r in 0..self.predicted.rows() {
            for v in self.predicted.row(r) {
                worst = worst.max(band.violation(*v));
            }
        }
        worst
    }
}

/// A receding-horizon flow planner over an identified thermal model.
#[derive(Debug, Clone)]
pub struct FlowPlanner<'a> {
    model: &'a ThermalModel,
    config: ControlConfig,
    /// Input-column indices that carry VAV flows (scaled by the
    /// planner); the rest are exogenous.
    flow_columns: Vec<usize>,
}

impl<'a> FlowPlanner<'a> {
    /// Creates a planner; `flow_inputs` names the model input channels
    /// the planner is allowed to scale (the VAV flows).
    ///
    /// # Errors
    ///
    /// Returns [`CoreError::InvalidConfig`] for invalid configs, an
    /// empty `flow_inputs`, or names that are not model inputs.
    pub fn new(
        model: &'a ThermalModel,
        config: ControlConfig,
        flow_inputs: &[&str],
    ) -> Result<Self> {
        config.validate()?;
        if flow_inputs.is_empty() {
            return Err(CoreError::InvalidConfig {
                reason: "the planner needs at least one controllable flow input".to_owned(),
            });
        }
        let inputs = &model.spec().inputs;
        let mut flow_columns = Vec::with_capacity(flow_inputs.len());
        for name in flow_inputs {
            let col =
                inputs
                    .iter()
                    .position(|i| i == name)
                    .ok_or_else(|| CoreError::InvalidConfig {
                        reason: format!("flow input {name:?} is not a model input"),
                    })?;
            flow_columns.push(col);
        }
        Ok(FlowPlanner {
            model,
            config,
            flow_columns,
        })
    }

    /// The configuration in use.
    pub fn config(&self) -> &ControlConfig {
        &self.config
    }

    /// Predicts `steps` ahead from `(prev, cur)` under a constant flow
    /// scale, returning the trajectory.
    fn rollout(
        &self,
        prev: &[f64],
        cur: &[f64],
        baseline: &Matrix,
        start: usize,
        steps: usize,
        scale: f64,
    ) -> Result<Matrix> {
        let p = self.model.spec().output_count();
        let mut out = Matrix::zeros(steps, p);
        let mut prev_v = prev.to_vec();
        let mut cur_v = cur.to_vec();
        for s in 0..steps {
            let row_idx = (start + s).min(baseline.rows() - 1);
            let mut u = baseline.row(row_idx).to_vec();
            for &c in &self.flow_columns {
                u[c] *= scale;
            }
            let next = self.model.predict_next(
                &cur_v,
                if self.model.spec().order == ModelOrder::Second {
                    Some(&prev_v)
                } else {
                    None
                },
                &u,
            )?;
            out.row_mut(s).copy_from_slice(next.as_slice());
            prev_v = std::mem::take(&mut cur_v);
            cur_v = next.into_inner();
        }
        Ok(out)
    }

    /// Plans flow scalings over `baseline.rows()` steps.
    ///
    /// `initial` holds the measured initial temperatures
    /// (`order.warmup()` rows × sensors); `baseline` holds one input
    /// row per step with the flow columns at their *maximum* values
    /// (the planner scales them down) and the exogenous columns at
    /// their forecast values.
    ///
    /// # Errors
    ///
    /// Returns [`CoreError::InvalidConfig`] on shape mismatches and
    /// propagates model-evaluation failures.
    pub fn plan(&self, initial: &Matrix, baseline: &Matrix) -> Result<FlowPlan> {
        let spec = self.model.spec();
        let p = spec.output_count();
        if initial.rows() != spec.order.warmup() || initial.cols() != p {
            return Err(CoreError::InvalidConfig {
                reason: format!(
                    "initial condition must be {} x {p}, got {} x {}",
                    spec.order.warmup(),
                    initial.rows(),
                    initial.cols()
                ),
            });
        }
        if baseline.cols() != spec.input_count() || baseline.rows() == 0 {
            return Err(CoreError::InvalidConfig {
                reason: format!(
                    "baseline inputs must be n x {}, got {} x {}",
                    spec.input_count(),
                    baseline.rows(),
                    baseline.cols()
                ),
            });
        }

        let steps = baseline.rows();
        let band = self.config.band;
        let mut scale = Vec::with_capacity(steps);
        let mut predicted = Matrix::zeros(steps, p);
        let mut infeasible_steps = Vec::new();

        let mut prev = initial.row(0).to_vec();
        let mut cur = initial.row(initial.rows() - 1).to_vec();
        for k in 0..steps {
            let lookahead = self.config.lookahead.min(steps - k);
            // Smallest feasible level; fall back to the one with the
            // least violation.
            let mut chosen = *self.config.flow_levels.last().ok_or(CoreError::Internal {
                context: "flow_levels emptied after validation",
            })?;
            let mut chosen_violation = f64::INFINITY;
            let mut feasible = false;
            for &level in &self.config.flow_levels {
                let traj = self.rollout(&prev, &cur, baseline, k, lookahead, level)?;
                let mut worst = 0.0_f64;
                for r in 0..traj.rows() {
                    for v in traj.row(r) {
                        worst = worst.max(band.violation(*v));
                    }
                }
                if worst == 0.0 {
                    chosen = level;
                    feasible = true;
                    break;
                }
                if worst < chosen_violation {
                    chosen_violation = worst;
                    chosen = level;
                }
            }
            if !feasible {
                infeasible_steps.push(k);
            }
            // Commit one step at the chosen level.
            let step_traj = self.rollout(&prev, &cur, baseline, k, 1, chosen)?;
            predicted.row_mut(k).copy_from_slice(step_traj.row(0));
            scale.push(chosen);
            prev = std::mem::take(&mut cur);
            cur = step_traj.row(0).to_vec();
        }

        Ok(FlowPlan {
            scale,
            predicted,
            infeasible_steps,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use thermal_sysid::ModelSpec;

    /// A scalar cooling model: T' = 0.9 T + 2.0 q + 0.5 flow·(-1)
    /// where flow input carries chilled air (negative gain) and q is
    /// an exogenous heat input.
    fn cooling_model() -> ThermalModel {
        let spec = ModelSpec::new(
            vec!["room".into()],
            vec!["flow".into(), "heat".into()],
            ModelOrder::First,
        )
        .unwrap();
        // T(k+1) = 0.9 T(k) - 1.0 flow + 2.4 heat
        // -> steady state T* = 24 heat - 10 flow: the default flow
        // levels 0.2..1.0 span T* = 22.8 down to 14 at heat = 1.
        let coef = Matrix::from_rows(&[&[0.9, -1.0, 2.4][..]]).unwrap();
        ThermalModel::new(spec, coef).unwrap()
    }

    fn baseline(steps: usize, heat: f64) -> Matrix {
        Matrix::from_fn(steps, 2, |_, c| if c == 0 { 1.0 } else { heat })
    }

    #[test]
    fn band_validation() {
        assert!(ComfortBand::new(20.0, 23.0).is_ok());
        assert!(ComfortBand::new(23.0, 20.0).is_err());
        assert!(ComfortBand::new(20.0, 20.0).is_err());
        assert!(ComfortBand::new(f64::NAN, 22.0).is_err());
        let band = ComfortBand::occupied();
        assert!(band.contains(21.0));
        assert!(!band.contains(25.0));
        assert_eq!(band.violation(21.0), 0.0);
        assert!((band.violation(24.0) - 1.0).abs() < 1e-12);
        assert!((band.violation(19.0) - 1.0).abs() < 1e-12);
    }

    #[test]
    fn config_validation() {
        let model = cooling_model();
        let cfg = ControlConfig {
            lookahead: 0,
            ..ControlConfig::default()
        };
        assert!(FlowPlanner::new(&model, cfg, &["flow"]).is_err());
        let cfg = ControlConfig {
            flow_levels: vec![],
            ..ControlConfig::default()
        };
        assert!(FlowPlanner::new(&model, cfg, &["flow"]).is_err());
        let cfg = ControlConfig {
            flow_levels: vec![0.5, 0.5],
            ..ControlConfig::default()
        };
        assert!(FlowPlanner::new(&model, cfg, &["flow"]).is_err());
        assert!(FlowPlanner::new(&model, ControlConfig::default(), &[]).is_err());
        assert!(FlowPlanner::new(&model, ControlConfig::default(), &["zz"]).is_err());
        assert!(FlowPlanner::new(&model, ControlConfig::default(), &["flow"]).is_ok());
    }

    #[test]
    fn hot_room_gets_high_flow_cool_room_gets_low() {
        let model = cooling_model();
        let planner = FlowPlanner::new(&model, ControlConfig::default(), &["flow"]).unwrap();
        // Strong heat load: at min flow T* = 24*1.2 - 2 = 26.8, far
        // above the band, so the planner must ramp to ~0.6.
        let hot_plan = planner
            .plan(
                &Matrix::from_rows(&[&[22.9][..]]).unwrap(),
                &baseline(30, 1.2),
            )
            .unwrap();
        // Light heat load: min flow holds T* = 24*0.95 - 2 = 20.8.
        let cool_plan = planner
            .plan(
                &Matrix::from_rows(&[&[20.5][..]]).unwrap(),
                &baseline(30, 0.95),
            )
            .unwrap();
        assert!(
            hot_plan.mean_scale() > cool_plan.mean_scale(),
            "hot {} vs cool {}",
            hot_plan.mean_scale(),
            cool_plan.mean_scale()
        );
    }

    #[test]
    fn feasible_plans_respect_the_band() {
        let model = cooling_model();
        let planner = FlowPlanner::new(&model, ControlConfig::default(), &["flow"]).unwrap();
        let plan = planner
            .plan(
                &Matrix::from_rows(&[&[21.5][..]]).unwrap(),
                &baseline(50, 1.0),
            )
            .unwrap();
        assert!(plan.infeasible_steps.is_empty());
        assert_eq!(plan.scale.len(), 50);
        assert_eq!(plan.predicted.rows(), 50);
        assert_eq!(
            plan.worst_violation(&planner.config().band),
            0.0,
            "feasible plan must stay inside the band"
        );
    }

    #[test]
    fn impossible_band_reports_infeasibility() {
        let model = cooling_model();
        // A band no flow level can reach given the heat load.
        let cfg = ControlConfig {
            band: ComfortBand::new(10.0, 12.0).unwrap(),
            ..ControlConfig::default()
        };
        let planner = FlowPlanner::new(&model, cfg, &["flow"]).unwrap();
        let plan = planner
            .plan(
                &Matrix::from_rows(&[&[22.0][..]]).unwrap(),
                &baseline(10, 1.0),
            )
            .unwrap();
        assert!(!plan.infeasible_steps.is_empty());
        // Best effort = the level with the least violation (max cooling).
        assert!(plan.scale.iter().all(|&s| (s - 1.0).abs() < 1e-12));
    }

    #[test]
    fn shape_mismatches_rejected() {
        let model = cooling_model();
        let planner = FlowPlanner::new(&model, ControlConfig::default(), &["flow"]).unwrap();
        assert!(planner
            .plan(&Matrix::zeros(2, 1), &baseline(5, 1.0))
            .is_err());
        assert!(planner
            .plan(
                &Matrix::from_rows(&[&[21.0][..]]).unwrap(),
                &Matrix::zeros(5, 3)
            )
            .is_err());
    }

    #[test]
    fn second_order_models_are_supported() {
        let spec =
            ModelSpec::new(vec!["room".into()], vec!["flow".into()], ModelOrder::Second).unwrap();
        // T(k+1) = 0.8 T(k) + 0.1 ΔT(k) - 2 flow + const-ish via T.
        let coef = Matrix::from_rows(&[&[0.8, 0.1, -2.0][..]]).unwrap();
        let model = ThermalModel::new(spec, coef).unwrap();
        let planner = FlowPlanner::new(&model, ControlConfig::default(), &["flow"]).unwrap();
        let init = Matrix::from_rows(&[&[21.0][..], &[21.2][..]]).unwrap();
        let base = Matrix::from_fn(20, 1, |_, _| 1.0);
        let plan = planner.plan(&init, &base).unwrap();
        assert_eq!(plan.scale.len(), 20);
        assert!(plan.predicted.is_finite());
    }
}
