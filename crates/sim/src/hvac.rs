//! The HVAC plant: four VAV boxes, two supply-outlet lines and a
//! supervisory schedule.
//!
//! Matches the paper's description: the system switches from *off*
//! mode to *on* mode at 06:00 and back at 21:00; each mode has its own
//! flow regime; inlet air temperature and flow rate are controlled by
//! four Variable Air Volume boxes; the room has only two outlet lines
//! spanning its width, fed by the VAVs. When on, a proportional loop
//! on the mean of the two wall thermostats modulates flow between the
//! per-box minimum and maximum (cooling: warmer room → more cold
//! air). When off, boxes idle at a low ventilation trickle.

use thermal_timeseries::Timestamp;

/// Number of VAV boxes in the auditorium.
pub const VAV_COUNT: usize = 4;

/// Static configuration of the HVAC plant.
#[derive(Debug, Clone, PartialEq)]
pub struct HvacConfig {
    /// Minute-of-day the system enters on mode (paper: 06:00).
    pub on_minute: i64,
    /// Minute-of-day the system returns to off mode (paper: 21:00).
    pub off_minute: i64,
    /// Cooling setpoint at the thermostats, °C.
    pub setpoint: f64,
    /// Coldest supply-air temperature in on mode, °C (full chill,
    /// reached when the thermostat error hits `supply_error_span`).
    pub supply_temp_min: f64,
    /// Neutral supply-air temperature, °C: delivered in on mode at
    /// zero thermostat error (reheat tempers the chilled air) and in
    /// off mode (recirculated air).
    pub supply_temp_neutral: f64,
    /// Thermostat error, K, at which the supply reaches full chill.
    pub supply_error_span: f64,
    /// Per-box minimum flow in on mode, m³/s.
    pub min_flow: f64,
    /// Per-box maximum flow in on mode, m³/s.
    pub max_flow: f64,
    /// Per-box trickle flow in off mode, m³/s.
    pub off_flow: f64,
    /// Proportional gain: extra flow per kelvin of thermostat error,
    /// m³/(s·K) per box.
    pub kp: f64,
    /// Relative authority of each box (normalised internally); boxes
    /// deliberately differ so their flow channels are not collinear in
    /// the identification regressor.
    pub box_weights: [f64; VAV_COUNT],
    /// Amplitude of the per-box damper dither, fraction of commanded
    /// flow.
    pub dither: f64,
    /// Total drift of the chill floor (`supply_temp_min`) across
    /// `drift_span_days`, °C. Plant operation is not stationary over a
    /// semester: as the cooling season ramps up the AHU discharge
    /// setpoint is lowered. Negative = colder by season's end.
    pub supply_drift_total: f64,
    /// Days over which the drift completes.
    pub drift_span_days: f64,
    /// Day on which facilities retuned the cooling setpoint
    /// mid-campaign (a discrete operating-regime change; models
    /// trained across it see inconsistent dynamics).
    pub setpoint_change_day: i64,
    /// Setpoint delta applied from `setpoint_change_day` on, K.
    pub setpoint_change_delta: f64,
}

impl Default for HvacConfig {
    fn default() -> Self {
        HvacConfig {
            on_minute: 6 * 60,
            off_minute: 21 * 60,
            setpoint: 20.2,
            supply_temp_min: 13.0,
            supply_temp_neutral: 19.0,
            supply_error_span: 0.4,
            min_flow: 0.05,
            max_flow: 0.6,
            off_flow: 0.03,
            kp: 1.0,
            box_weights: [1.15, 0.95, 1.05, 0.85],
            dither: 0.05,
            supply_drift_total: -2.0,
            drift_span_days: 98.0,
            setpoint_change_day: 30,
            setpoint_change_delta: -0.4,
        }
    }
}

/// Which outlet line a VAV box feeds: boxes 0–1 feed the front line,
/// boxes 2–3 the mid line.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Outlet {
    /// The diffuser line closest to the podium.
    Front,
    /// The diffuser line over the middle seating rows.
    Mid,
}

/// Maps a VAV index to its outlet line.
pub fn outlet_of(vav: usize) -> Outlet {
    if vav < VAV_COUNT / 2 {
        Outlet::Front
    } else {
        Outlet::Mid
    }
}

/// The HVAC plant model.
///
/// # Example
///
/// ```
/// use thermal_sim::{Hvac, HvacConfig};
/// use thermal_timeseries::Timestamp;
///
/// let hvac = Hvac::new(HvacConfig::default());
/// assert!(hvac.is_on(Timestamp::from_day_minute(0, 12 * 60)));
/// assert!(!hvac.is_on(Timestamp::from_day_minute(0, 23 * 60)));
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct Hvac {
    config: HvacConfig,
}

impl Hvac {
    /// Creates the plant from a configuration.
    pub fn new(config: HvacConfig) -> Self {
        Hvac { config }
    }

    /// The configuration in use.
    pub fn config(&self) -> &HvacConfig {
        &self.config
    }

    /// `true` while the supervisory schedule has the system in on
    /// mode.
    pub fn is_on(&self, t: Timestamp) -> bool {
        let m = t.minute_of_day();
        m >= self.config.on_minute && m < self.config.off_minute
    }

    /// The cooling setpoint in force at `t` (includes the
    /// mid-campaign retune).
    pub fn setpoint_at(&self, t: Timestamp) -> f64 {
        let c = &self.config;
        c.setpoint
            + if t.day() >= c.setpoint_change_day {
                c.setpoint_change_delta
            } else {
                0.0
            }
    }

    /// Supply-air temperature at `t`, °C, given the mean thermostat
    /// reading.
    ///
    /// In on mode the reheat coil tempers the chilled supply: at zero
    /// error the air leaves neutral, ramping linearly to full chill at
    /// `supply_error_span` kelvin of error. In off mode the air
    /// recirculates near neutral.
    pub fn supply_temp(&self, t: Timestamp, thermostat_mean: f64) -> f64 {
        let c = &self.config;
        if !self.is_on(t) {
            return c.supply_temp_neutral;
        }
        let error = (thermostat_mean - self.setpoint_at(t)).max(0.0);
        let frac = (error / c.supply_error_span).clamp(0.0, 1.0);
        let drift =
            c.supply_drift_total * (t.day() as f64 / c.drift_span_days.max(1.0)).clamp(0.0, 1.0);
        let chill_floor = c.supply_temp_min + drift;
        c.supply_temp_neutral - frac * (c.supply_temp_neutral - chill_floor)
    }

    /// Commanded flow of each VAV box at `t`, m³/s, given the mean
    /// temperature currently read by the wall thermostats.
    ///
    /// In on mode each box runs `min + kp·weight·(T − setpoint)⁺`
    /// clamped to `[min, max]`, plus a small deterministic damper
    /// dither (distinct period per box) that keeps the four flow
    /// channels linearly independent. In off mode all boxes idle at
    /// the trickle flow.
    pub fn flows(&self, t: Timestamp, thermostat_mean: f64) -> [f64; VAV_COUNT] {
        let c = &self.config;
        let mut out = [0.0; VAV_COUNT];
        if !self.is_on(t) {
            out.fill(c.off_flow);
            return out;
        }
        let error = (thermostat_mean - self.setpoint_at(t)).max(0.0);
        let minutes = t.as_minutes() as f64;
        for (i, slot) in out.iter_mut().enumerate() {
            let commanded = c.min_flow + c.kp * c.box_weights[i] * error;
            // Dither periods: 37, 53, 71, 97 minutes — mutually
            // incommensurate so box flows never stay proportional.
            let period = [37.0, 53.0, 71.0, 97.0][i];
            let dither = 1.0 + c.dither * (std::f64::consts::TAU * minutes / period).sin();
            *slot = (commanded * dither).clamp(c.min_flow, c.max_flow);
        }
        out
    }

    /// Total flow delivered to one outlet line at `t`, m³/s.
    pub fn outlet_flow(&self, t: Timestamp, thermostat_mean: f64, outlet: Outlet) -> f64 {
        let flows = self.flows(t, thermostat_mean);
        flows
            .iter()
            .enumerate()
            .filter(|&(i, _)| outlet_of(i) == outlet)
            .map(|(_, f)| f)
            .sum()
    }

    /// Total flow across all boxes at `t`, m³/s.
    pub fn total_flow(&self, t: Timestamp, thermostat_mean: f64) -> f64 {
        self.flows(t, thermostat_mean).iter().sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn hvac() -> Hvac {
        Hvac::new(HvacConfig::default())
    }

    #[test]
    fn schedule_boundaries() {
        let h = hvac();
        assert!(!h.is_on(Timestamp::from_day_minute(1, 359)));
        assert!(h.is_on(Timestamp::from_day_minute(1, 360)));
        assert!(h.is_on(Timestamp::from_day_minute(1, 1259)));
        assert!(!h.is_on(Timestamp::from_day_minute(1, 1260)));
    }

    #[test]
    fn supply_temperature_by_mode_and_error() {
        let h = hvac();
        let c = h.config().clone();
        let noon = Timestamp::from_day_minute(0, 720);
        let night = Timestamp::from_day_minute(0, 0);
        // Off mode: neutral regardless of error.
        assert_eq!(h.supply_temp(night, 30.0), c.supply_temp_neutral);
        // On mode, no error: neutral.
        assert_eq!(h.supply_temp(noon, c.setpoint), c.supply_temp_neutral);
        // On mode, full error: full chill.
        assert_eq!(
            h.supply_temp(noon, c.setpoint + c.supply_error_span + 1.0),
            c.supply_temp_min
        );
        // On mode, half the span: halfway between neutral and chill.
        let half = h.supply_temp(noon, c.setpoint + c.supply_error_span / 2.0);
        let expected = (c.supply_temp_neutral + c.supply_temp_min) / 2.0;
        assert!((half - expected).abs() < 1e-12);
        // Monotone in error.
        assert!(h.supply_temp(noon, c.setpoint + 0.1) > h.supply_temp(noon, c.setpoint + 0.3));
    }

    #[test]
    fn off_mode_trickles() {
        let h = hvac();
        let flows = h.flows(Timestamp::from_day_minute(0, 100), 25.0);
        for f in flows {
            assert_eq!(f, h.config().off_flow);
        }
    }

    #[test]
    fn flow_increases_with_error() {
        let h = hvac();
        let c = h.config().clone();
        let t = Timestamp::from_day_minute(0, 720);
        let cool = h.total_flow(t, c.setpoint - 0.5); // below setpoint
        let warm = h.total_flow(t, c.setpoint + 2.0);
        assert!(warm > cool);
        // Below setpoint the boxes idle near min flow.
        assert!(cool <= 4.0 * c.min_flow * (1.0 + c.dither) + 1e-9);
    }

    #[test]
    fn flows_respect_limits() {
        let h = hvac();
        for minute in (360..1260).step_by(13) {
            let t = Timestamp::from_day_minute(2, minute);
            for err_temp in [19.0, 21.5, 24.0, 40.0] {
                for f in h.flows(t, err_temp) {
                    assert!(f >= h.config().min_flow - 1e-12);
                    assert!(f <= h.config().max_flow + 1e-12);
                }
            }
        }
    }

    #[test]
    fn boxes_are_not_collinear() {
        // Sample flows over a day at moderate error; the ratio between
        // box 0 and box 1 must vary thanks to the dither.
        let h = hvac();
        let probe_temp = h.config().setpoint + 0.15; // modest error, inside limits
        let mut ratios = Vec::new();
        for minute in (360..1260).step_by(5) {
            let f = h.flows(Timestamp::from_day_minute(0, minute), probe_temp);
            ratios.push(f[0] / f[1]);
        }
        let min = ratios.iter().cloned().fold(f64::INFINITY, f64::min);
        let max = ratios.iter().cloned().fold(f64::NEG_INFINITY, f64::max);
        assert!(max - min > 0.02, "ratio range {min}..{max} too tight");
    }

    #[test]
    fn outlet_assignment_and_aggregation() {
        assert_eq!(outlet_of(0), Outlet::Front);
        assert_eq!(outlet_of(1), Outlet::Front);
        assert_eq!(outlet_of(2), Outlet::Mid);
        assert_eq!(outlet_of(3), Outlet::Mid);
        let h = hvac();
        let t = Timestamp::from_day_minute(0, 720);
        let probe = h.config().setpoint + 0.2;
        let front = h.outlet_flow(t, probe, Outlet::Front);
        let mid = h.outlet_flow(t, probe, Outlet::Mid);
        let total = h.total_flow(t, probe);
        assert!((front + mid - total).abs() < 1e-12);
    }
}
