//! Campaign configuration: everything needed to reproduce a
//! multi-week instrumented run of the auditorium.

use crate::geometry::Layout;
use crate::hvac::HvacConfig;
use crate::occupancy::OccupancyConfig;
use crate::sensors::SensorConfig;
use crate::thermal::ThermalParams;
use crate::weather::WeatherConfig;
use crate::SimError;

/// Full configuration of a simulated measurement campaign.
///
/// [`Scenario::paper`] mirrors the paper's campaign: 98 calendar days
/// (Jan 31 – May 8, 2013), 5-minute sampling, ~1/3 of days lost to
/// server outages so that ≈64 usable days remain.
///
/// # Example
///
/// ```
/// use thermal_sim::Scenario;
///
/// let scenario = Scenario::quick().with_seed(7).with_days(10);
/// assert_eq!(scenario.days, 10);
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct Scenario {
    /// Number of simulated calendar days.
    pub days: usize,
    /// Telemetry sampling step, minutes.
    pub sample_minutes: u32,
    /// ODE integration step, seconds.
    pub integration_dt: f64,
    /// Master seed; all random streams derive from it.
    pub seed: u64,
    /// Room and instrumentation geometry.
    pub layout: Layout,
    /// Thermal network parameters.
    pub thermal: ThermalParams,
    /// HVAC plant configuration.
    pub hvac: HvacConfig,
    /// Weather generator configuration.
    pub weather: WeatherConfig,
    /// Occupancy schedule configuration.
    pub occupancy: OccupancyConfig,
    /// Measurement-imperfection configuration.
    pub sensors: SensorConfig,
    /// Server outages never reduce the campaign below this many usable
    /// days.
    pub min_usable_days: usize,
    /// Initial uniform room temperature, °C.
    pub initial_temp: f64,
    /// Per-zone unmodelled disturbance magnitude, W (1σ of the OU
    /// stationary distribution).
    pub disturbance_sigma: f64,
    /// Disturbance OU reversion rate, 1/hour.
    pub disturbance_rate: f64,
    /// Regional (front-half / back-half) unmodelled disturbance
    /// magnitude, W per node (1σ). Models spatially coherent effects
    /// — sun patches on the back wall, drafts from the front doors —
    /// that decorrelate the two halves of the room.
    pub regional_disturbance_sigma: f64,
    /// Regional disturbance OU reversion rate, 1/hour.
    pub regional_disturbance_rate: f64,
}

impl Scenario {
    /// The paper's campaign: 98 days, 5-minute sampling, default
    /// physics, ≈64 usable days.
    pub fn paper() -> Self {
        Scenario {
            days: 98,
            sample_minutes: 5,
            integration_dt: 60.0,
            seed: 20130131,
            layout: Layout::auditorium(),
            thermal: ThermalParams::default(),
            hvac: HvacConfig::default(),
            weather: WeatherConfig::default(),
            occupancy: OccupancyConfig::default(),
            sensors: SensorConfig::default(),
            min_usable_days: 64,
            initial_temp: 20.0,
            disturbance_sigma: 60.0,
            disturbance_rate: 0.5,
            regional_disturbance_sigma: 45.0,
            regional_disturbance_rate: 0.15,
        }
    }

    /// A small campaign (14 days, no day-long outages) for tests and
    /// examples.
    pub fn quick() -> Self {
        let mut s = Scenario::paper();
        s.days = 14;
        s.min_usable_days = 14;
        s.sensors.outage_day_prob = 0.0;
        s
    }

    /// Replaces the master seed.
    #[must_use]
    pub fn with_seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    /// Replaces the campaign length.
    #[must_use]
    pub fn with_days(mut self, days: usize) -> Self {
        self.days = days;
        self.min_usable_days = self.min_usable_days.min(days);
        self
    }

    /// Replaces the sampling step.
    #[must_use]
    pub fn with_sample_minutes(mut self, minutes: u32) -> Self {
        self.sample_minutes = minutes;
        self
    }

    /// Replaces the measurement configuration.
    #[must_use]
    pub fn with_sensors(mut self, sensors: SensorConfig) -> Self {
        self.sensors = sensors;
        self
    }

    /// Replaces the occupancy configuration.
    #[must_use]
    pub fn with_occupancy(mut self, occupancy: OccupancyConfig) -> Self {
        self.occupancy = occupancy;
        self
    }

    /// Validates the configuration.
    ///
    /// # Errors
    ///
    /// Returns [`SimError::InvalidConfig`] describing the first
    /// problem found.
    pub fn validate(&self) -> Result<(), SimError> {
        if self.days == 0 {
            return Err(SimError::InvalidConfig {
                reason: "campaign must cover at least one day",
            });
        }
        if self.sample_minutes == 0 || self.sample_minutes > 120 {
            return Err(SimError::InvalidConfig {
                reason: "sample step must be 1..=120 minutes",
            });
        }
        if !(self.integration_dt > 0.0 && self.integration_dt <= 300.0) {
            return Err(SimError::InvalidConfig {
                reason: "integration step must be in (0, 300] seconds",
            });
        }
        if (self.sample_minutes as f64 * 60.0) % self.integration_dt != 0.0 {
            return Err(SimError::InvalidConfig {
                reason: "integration step must divide the sample step",
            });
        }
        if self.min_usable_days > self.days {
            return Err(SimError::InvalidConfig {
                reason: "min usable days cannot exceed campaign length",
            });
        }
        self.layout
            .validate()
            .map_err(|_| SimError::InvalidConfig {
                reason: "layout failed validation",
            })?;
        Ok(())
    }
}

impl Default for Scenario {
    fn default() -> Self {
        Scenario::paper()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_scenario_is_valid() {
        assert!(Scenario::paper().validate().is_ok());
        assert!(Scenario::quick().validate().is_ok());
    }

    #[test]
    fn builder_methods() {
        let s = Scenario::quick()
            .with_seed(9)
            .with_days(5)
            .with_sample_minutes(10)
            .with_sensors(SensorConfig::ideal());
        assert_eq!(s.seed, 9);
        assert_eq!(s.days, 5);
        assert_eq!(s.sample_minutes, 10);
        assert_eq!(s.sensors, SensorConfig::ideal());
        assert!(s.min_usable_days <= 5);
    }

    #[test]
    fn validation_catches_bad_configs() {
        assert!(Scenario::paper().with_days(0).validate().is_err());
        assert!(Scenario::paper().with_sample_minutes(0).validate().is_err());
        assert!(Scenario::paper()
            .with_sample_minutes(121)
            .validate()
            .is_err());
        let mut s = Scenario::paper();
        s.integration_dt = 0.0;
        assert!(s.validate().is_err());
        let mut s = Scenario::paper();
        s.integration_dt = 7.0; // does not divide 300 s
        assert!(s.validate().is_err());
        let mut s = Scenario::paper();
        s.min_usable_days = 99;
        assert!(s.validate().is_err());
        let mut s = Scenario::paper();
        s.layout.width = -1.0;
        assert!(s.validate().is_err());
    }
}
