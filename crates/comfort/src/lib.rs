//! Fanger thermal-comfort model: Predicted Mean Vote (PMV) and
//! Predicted Percentage Dissatisfied (PPD), per ISO 7730 / ASHRAE 55.
//!
//! The paper motivates its sensor clustering with this model: a 2 °C
//! spatial spread inside the auditorium moves PMV by roughly 0.5 —
//! enough to shift seated occupants from "neutral" to "slightly
//! cool/warm" — so a single thermostat cannot represent comfort
//! across the room (Section V).
//!
//! # Example
//!
//! ```
//! use thermal_comfort::{pmv, ppd, Environment};
//!
//! # fn main() -> Result<(), thermal_comfort::ComfortError> {
//! // A seated audience in light clothing.
//! let cool_seat = Environment::auditorium(20.0);
//! let warm_seat = Environment::auditorium(22.0);
//! let delta = pmv(&warm_seat)? - pmv(&cool_seat)?;
//! assert!(delta > 0.3 && delta < 0.8, "2 degC approximately 0.5 PMV, got {delta}");
//! assert!(ppd(pmv(&cool_seat)?) >= 5.0);
//! # Ok(())
//! # }
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use std::fmt;

/// Errors produced by the comfort model.
#[derive(Debug, Clone, PartialEq)]
#[non_exhaustive]
pub enum ComfortError {
    /// An environmental parameter was outside the model's validity
    /// range.
    OutOfRange {
        /// Name of the offending parameter.
        parameter: &'static str,
        /// Supplied value.
        value: f64,
    },
    /// The clothing surface-temperature iteration failed to converge.
    NoConvergence {
        /// Iterations performed.
        iterations: usize,
    },
}

impl fmt::Display for ComfortError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ComfortError::OutOfRange { parameter, value } => {
                write!(f, "parameter {parameter} out of range: {value}")
            }
            ComfortError::NoConvergence { iterations } => {
                write!(
                    f,
                    "clothing temperature iteration did not converge after {iterations} iterations"
                )
            }
        }
    }
}

impl std::error::Error for ComfortError {}

/// Thermal environment and personal factors for a PMV evaluation.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Environment {
    /// Air temperature, °C.
    pub air_temp: f64,
    /// Mean radiant temperature, °C.
    pub mean_radiant_temp: f64,
    /// Relative air velocity, m/s.
    pub air_velocity: f64,
    /// Relative humidity, %.
    pub relative_humidity: f64,
    /// Metabolic rate, met (1 met = 58.15 W/m²).
    pub metabolic_rate: f64,
    /// Clothing insulation, clo (1 clo = 0.155 m²K/W).
    pub clothing: f64,
    /// External work, met (usually 0).
    pub external_work: f64,
}

impl Environment {
    /// A seated audience member in typical indoor clothing at the
    /// given air temperature (radiant = air temperature, still air,
    /// 40 % RH, 1.0 met, 1.0 clo — winter/spring campus dress).
    pub fn auditorium(air_temp: f64) -> Self {
        Environment {
            air_temp,
            mean_radiant_temp: air_temp,
            air_velocity: 0.1,
            relative_humidity: 40.0,
            metabolic_rate: 1.0,
            clothing: 1.0,
            external_work: 0.0,
        }
    }

    /// Validates the ISO 7730 applicability ranges.
    ///
    /// # Errors
    ///
    /// Returns [`ComfortError::OutOfRange`] naming the first offending
    /// parameter.
    pub fn validate(&self) -> Result<(), ComfortError> {
        let checks: [(&'static str, f64, f64, f64); 6] = [
            ("air_temp", self.air_temp, 10.0, 30.0),
            ("mean_radiant_temp", self.mean_radiant_temp, 10.0, 40.0),
            ("air_velocity", self.air_velocity, 0.0, 1.0),
            ("relative_humidity", self.relative_humidity, 0.0, 100.0),
            ("metabolic_rate", self.metabolic_rate, 0.8, 4.0),
            ("clothing", self.clothing, 0.0, 2.0),
        ];
        for (name, value, lo, hi) in checks {
            if !(lo..=hi).contains(&value) || !value.is_finite() {
                return Err(ComfortError::OutOfRange {
                    parameter: name,
                    value,
                });
            }
        }
        Ok(())
    }
}

/// Water vapour partial pressure, Pa, from air temperature and
/// relative humidity (the exponential saturation fit of the ISO 7730
/// reference implementation, which yields kPa).
fn vapour_pressure(air_temp: f64, rh: f64) -> f64 {
    rh / 100.0 * (16.6536 - 4030.183 / (air_temp + 235.0)).exp() * 1000.0
}

/// Computes the Predicted Mean Vote for an environment.
///
/// Follows the ISO 7730 computation: iterate the clothing surface
/// temperature to balance radiative + convective exchange, then sum
/// the body's heat-loss terms.
///
/// # Errors
///
/// * [`ComfortError::OutOfRange`] for parameters outside the model's
///   validity range,
/// * [`ComfortError::NoConvergence`] if the clothing-temperature
///   fixed point does not settle (not observed for valid inputs).
pub fn pmv(env: &Environment) -> Result<f64, ComfortError> {
    env.validate()?;
    let ta = env.air_temp;
    let tr = env.mean_radiant_temp;
    let vel = env.air_velocity.max(0.05);
    let pa = vapour_pressure(ta, env.relative_humidity);
    let m = env.metabolic_rate * 58.15; // W/m²
    let w = env.external_work * 58.15;
    let mw = m - w;
    let icl = env.clothing * 0.155; // m²K/W

    // Clothing area factor.
    let fcl = if icl <= 0.078 {
        1.0 + 1.29 * icl
    } else {
        1.05 + 0.645 * icl
    };

    // Iterate clothing surface temperature.
    let mut tcl = ta + (35.5 - ta) / (3.5 * icl + 0.1); // initial guess
    let mut hc = 12.1 * vel.sqrt();
    const MAX_ITERS: usize = 500;
    let mut converged = false;
    for _ in 0..MAX_ITERS {
        let hc_forced = 12.1 * vel.sqrt();
        let hc_natural = 2.38 * (tcl - ta).abs().powf(0.25);
        hc = hc_forced.max(hc_natural);
        let radiative = 3.96e-8 * fcl * ((tcl + 273.15).powi(4) - (tr + 273.15).powi(4));
        let convective = fcl * hc * (tcl - ta);
        let tcl_new = 35.7 - 0.028 * mw - icl * (radiative + convective);
        if (tcl_new - tcl).abs() < 1e-8 {
            tcl = tcl_new;
            converged = true;
            break;
        }
        // Damped update for stability.
        tcl = 0.5 * (tcl + tcl_new);
    }
    if !converged {
        return Err(ComfortError::NoConvergence {
            iterations: MAX_ITERS,
        });
    }

    // Heat-loss components, W/m².
    let skin_diffusion = 3.05e-3 * (5733.0 - 6.99 * mw - pa);
    let sweating = (0.42 * (mw - 58.15)).max(0.0);
    let latent_respiration = 1.7e-5 * m * (5867.0 - pa);
    let dry_respiration = 0.0014 * m * (34.0 - ta);
    let radiative = 3.96e-8 * fcl * ((tcl + 273.15).powi(4) - (tr + 273.15).powi(4));
    let convective = fcl * hc * (tcl - ta);

    let thermal_load = mw
        - skin_diffusion
        - sweating
        - latent_respiration
        - dry_respiration
        - radiative
        - convective;
    let sensitivity = 0.303 * (-0.036 * m).exp() + 0.028;
    Ok(sensitivity * thermal_load)
}

/// Predicted Percentage Dissatisfied, %, from a PMV value
/// (`PPD = 100 − 95·exp(−0.03353·PMV⁴ − 0.2179·PMV²)`).
pub fn ppd(pmv_value: f64) -> f64 {
    100.0 - 95.0 * (-0.033_53 * pmv_value.powi(4) - 0.217_9 * pmv_value.powi(2)).exp()
}

/// Seven-point ASHRAE thermal-sensation scale bucket for a PMV value.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Sensation {
    /// PMV ≤ −2.5.
    Cold,
    /// −2.5 < PMV ≤ −1.5.
    Cool,
    /// −1.5 < PMV ≤ −0.5.
    SlightlyCool,
    /// −0.5 < PMV < 0.5.
    Neutral,
    /// 0.5 ≤ PMV < 1.5.
    SlightlyWarm,
    /// 1.5 ≤ PMV < 2.5.
    Warm,
    /// PMV ≥ 2.5.
    Hot,
}

impl Sensation {
    /// Buckets a PMV value onto the seven-point scale.
    pub fn from_pmv(pmv_value: f64) -> Self {
        match pmv_value {
            v if v <= -2.5 => Sensation::Cold,
            v if v <= -1.5 => Sensation::Cool,
            v if v <= -0.5 => Sensation::SlightlyCool,
            v if v < 0.5 => Sensation::Neutral,
            v if v < 1.5 => Sensation::SlightlyWarm,
            v if v < 2.5 => Sensation::Warm,
            _ => Sensation::Hot,
        }
    }

    /// `true` for the ASHRAE 55 comfort band (|PMV| < 0.5).
    pub fn is_comfortable(self) -> bool {
        self == Sensation::Neutral
    }
}

impl fmt::Display for Sensation {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            Sensation::Cold => "cold",
            Sensation::Cool => "cool",
            Sensation::SlightlyCool => "slightly cool",
            Sensation::Neutral => "neutral",
            Sensation::SlightlyWarm => "slightly warm",
            Sensation::Warm => "warm",
            Sensation::Hot => "hot",
        };
        write!(f, "{s}")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// ISO 7730 Table D.1 validation case: ta = tr = 22 °C, v = 0.1
    /// m/s, RH 60 %, 1.2 met, 0.5 clo → PMV ≈ −0.75 (±0.1 per the
    /// standard's tolerance).
    #[test]
    fn iso_reference_case_1() {
        let env = Environment {
            air_temp: 22.0,
            mean_radiant_temp: 22.0,
            air_velocity: 0.1,
            relative_humidity: 60.0,
            metabolic_rate: 1.2,
            clothing: 0.5,
            external_work: 0.0,
        };
        let v = pmv(&env).unwrap();
        assert!((v - (-0.75)).abs() < 0.15, "PMV {v} vs ISO -0.75");
    }

    /// ISO 7730 Table D.1: ta = tr = 27 °C, same person → PMV ≈ +0.77.
    #[test]
    fn iso_reference_case_2() {
        let env = Environment {
            air_temp: 27.0,
            mean_radiant_temp: 27.0,
            air_velocity: 0.1,
            relative_humidity: 60.0,
            metabolic_rate: 1.2,
            clothing: 0.5,
            external_work: 0.0,
        };
        let v = pmv(&env).unwrap();
        assert!((v - 0.77).abs() < 0.15, "PMV {v} vs ISO +0.77");
    }

    /// Faster air movement cools: PMV must fall as velocity rises.
    #[test]
    fn air_motion_lowers_pmv() {
        let base = Environment {
            air_temp: 23.5,
            mean_radiant_temp: 23.5,
            air_velocity: 0.1,
            relative_humidity: 60.0,
            metabolic_rate: 1.2,
            clothing: 0.5,
            external_work: 0.0,
        };
        let still = pmv(&base).unwrap();
        let breezy = pmv(&Environment {
            air_velocity: 0.4,
            ..base
        })
        .unwrap();
        assert!(
            breezy < still - 0.1,
            "breeze should cool: {still} -> {breezy}"
        );
    }

    #[test]
    fn pmv_increases_with_temperature() {
        let mut last = f64::NEG_INFINITY;
        for t in [18.0, 20.0, 22.0, 24.0, 26.0] {
            let v = pmv(&Environment::auditorium(t)).unwrap();
            assert!(v > last, "PMV must increase with temperature");
            last = v;
        }
    }

    #[test]
    fn papers_two_degree_claim() {
        // The claim of Section V: a 2 °C difference is ~0.5 PMV for
        // the auditorium's audience.
        let a = pmv(&Environment::auditorium(20.0)).unwrap();
        let b = pmv(&Environment::auditorium(22.0)).unwrap();
        let delta = b - a;
        assert!(
            (0.3..0.8).contains(&delta),
            "2 degC should be around 0.5 PMV, got {delta}"
        );
    }

    #[test]
    fn ppd_shape() {
        assert!((ppd(0.0) - 5.0).abs() < 1e-9, "PPD minimum is 5 %");
        assert!(ppd(1.0) > 20.0 && ppd(1.0) < 35.0);
        assert!((ppd(2.0) - ppd(-2.0)).abs() < 1e-9, "PPD is symmetric");
        assert!(ppd(3.0) > 90.0);
    }

    #[test]
    fn sensation_buckets() {
        assert_eq!(Sensation::from_pmv(-3.0), Sensation::Cold);
        assert_eq!(Sensation::from_pmv(-2.0), Sensation::Cool);
        assert_eq!(Sensation::from_pmv(-1.0), Sensation::SlightlyCool);
        assert_eq!(Sensation::from_pmv(0.0), Sensation::Neutral);
        assert_eq!(Sensation::from_pmv(1.0), Sensation::SlightlyWarm);
        assert_eq!(Sensation::from_pmv(2.0), Sensation::Warm);
        assert_eq!(Sensation::from_pmv(3.0), Sensation::Hot);
        assert!(Sensation::Neutral.is_comfortable());
        assert!(!Sensation::SlightlyWarm.is_comfortable());
        assert_eq!(Sensation::SlightlyCool.to_string(), "slightly cool");
    }

    #[test]
    fn validation_rejects_out_of_range() {
        let mut env = Environment::auditorium(21.0);
        env.air_temp = 50.0;
        assert!(matches!(
            pmv(&env),
            Err(ComfortError::OutOfRange {
                parameter: "air_temp",
                ..
            })
        ));
        let mut env = Environment::auditorium(21.0);
        env.metabolic_rate = 0.1;
        assert!(pmv(&env).is_err());
        let mut env = Environment::auditorium(21.0);
        env.relative_humidity = f64::NAN;
        assert!(pmv(&env).is_err());
        let mut env = Environment::auditorium(21.0);
        env.clothing = 5.0;
        assert!(pmv(&env).is_err());
    }

    #[test]
    fn still_air_is_floored() {
        // Zero velocity must not produce NaN (hc uses sqrt(v)).
        let mut env = Environment::auditorium(21.0);
        env.air_velocity = 0.0;
        assert!(pmv(&env).unwrap().is_finite());
    }

    #[test]
    fn error_display() {
        let e = ComfortError::OutOfRange {
            parameter: "air_temp",
            value: 99.0,
        };
        assert!(e.to_string().contains("air_temp"));
        fn assert_traits<T: std::error::Error + Send + Sync + 'static>() {}
        assert_traits::<ComfortError>();
    }
}
