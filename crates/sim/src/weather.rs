//! Outdoor (ambient) temperature model.
//!
//! The paper's trace spans Jan 31 – May 8, 2013 in St. Louis: a
//! strongly warming season with day/night swings. The model is a
//! seasonal trend plus a diurnal harmonic plus Ornstein–Uhlenbeck
//! weather noise, precomputed hourly at construction (seeded, so runs
//! are reproducible) and linearly interpolated in between.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use thermal_timeseries::{Timestamp, MINUTES_PER_DAY, MINUTES_PER_HOUR};

/// Configuration of the synthetic weather generator.
#[derive(Debug, Clone, PartialEq)]
pub struct WeatherConfig {
    /// Seasonal mean on day 0 (°C). St. Louis, end of January.
    pub mean_start: f64,
    /// Seasonal mean on day `season_days` (°C). Early May.
    pub mean_end: f64,
    /// Number of days over which the seasonal ramp runs.
    pub season_days: f64,
    /// Half peak-to-trough diurnal swing (°C).
    pub diurnal_amplitude: f64,
    /// Hour of day of the diurnal maximum.
    pub warmest_hour: f64,
    /// OU noise reversion rate, 1/hour.
    pub ou_rate: f64,
    /// OU stationary standard deviation (°C).
    pub ou_sigma: f64,
}

impl Default for WeatherConfig {
    fn default() -> Self {
        WeatherConfig {
            mean_start: 1.0,
            mean_end: 19.0,
            season_days: 98.0,
            diurnal_amplitude: 5.0,
            warmest_hour: 15.0,
            ou_rate: 0.08,
            ou_sigma: 2.5,
        }
    }
}

/// A reproducible ambient-temperature trace.
///
/// # Example
///
/// ```
/// use thermal_sim::{Weather, WeatherConfig};
/// use thermal_timeseries::Timestamp;
///
/// let w = Weather::new(WeatherConfig::default(), 98, 42);
/// let noon_day0 = w.ambient(Timestamp::from_day_minute(0, 12 * 60));
/// let noon_day97 = w.ambient(Timestamp::from_day_minute(97, 12 * 60));
/// assert!(noon_day97 > noon_day0, "spring warms up");
/// ```
#[derive(Debug, Clone)]
pub struct Weather {
    config: WeatherConfig,
    /// Hourly OU noise samples covering the horizon (+1 for the
    /// interpolation endpoint).
    noise: Vec<f64>,
}

impl Weather {
    /// Builds a weather trace covering `horizon_days`, deterministic
    /// in `seed`.
    pub fn new(config: WeatherConfig, horizon_days: usize, seed: u64) -> Self {
        let hours = horizon_days * 24 + 2;
        let mut rng = StdRng::seed_from_u64(seed ^ WEATHER_STREAM_SALT);
        let mut noise = Vec::with_capacity(hours);
        // Stationary initialisation, then exact OU discretisation.
        let mut x = config.ou_sigma * gaussian(&mut rng);
        let a = (-config.ou_rate).exp();
        let s = config.ou_sigma * (1.0 - a * a).sqrt();
        for _ in 0..hours {
            noise.push(x);
            x = a * x + s * gaussian(&mut rng);
        }
        Weather { config, noise }
    }

    /// The configuration in use.
    pub fn config(&self) -> &WeatherConfig {
        &self.config
    }

    /// Deterministic (noise-free) component at time `t`.
    pub fn ambient_mean(&self, t: Timestamp) -> f64 {
        let c = &self.config;
        let day_frac = t.as_minutes() as f64 / MINUTES_PER_DAY as f64;
        let season =
            c.mean_start + (c.mean_end - c.mean_start) * (day_frac / c.season_days).clamp(0.0, 1.0);
        let hour = t.minute_of_day() as f64 / MINUTES_PER_HOUR as f64;
        let phase = (hour - c.warmest_hour) / 24.0 * std::f64::consts::TAU;
        season + c.diurnal_amplitude * phase.cos()
    }

    /// Ambient temperature at time `t` (mean + interpolated OU noise).
    ///
    /// Times beyond the generated horizon clamp to the last noise
    /// sample (the mean component keeps evolving).
    pub fn ambient(&self, t: Timestamp) -> f64 {
        let hours = (t.as_minutes() as f64 / MINUTES_PER_HOUR as f64).max(0.0);
        let i = thermal_linalg::cast::floor_to_index(hours, usize::MAX - 1);
        let frac = hours - hours.floor();
        let n = self.noise.len();
        let (a, b) = if i + 1 < n {
            (self.noise[i], self.noise[i + 1])
        } else {
            (self.noise[n - 1], self.noise[n - 1])
        };
        self.ambient_mean(t) + a + frac * (b - a)
    }
}

/// Standard normal draw via Box–Muller (avoids depending on
/// `rand_distr`).
fn gaussian<R: Rng>(rng: &mut R) -> f64 {
    loop {
        let u1: f64 = rng.gen::<f64>();
        if u1 <= f64::MIN_POSITIVE {
            continue;
        }
        let u2: f64 = rng.gen::<f64>();
        return (-2.0 * u1.ln()).sqrt() * (std::f64::consts::TAU * u2).cos();
    }
}

/// Salt mixed into weather seeds so that the same master seed used by
/// different generators (weather, occupancy, sensors) yields
/// independent streams.
const WEATHER_STREAM_SALT: u64 = 0x5745_4154_4845_5200; // "WEATHER\0"

#[cfg(test)]
mod tests {
    use super::*;

    fn weather() -> Weather {
        Weather::new(WeatherConfig::default(), 98, 7)
    }

    #[test]
    fn seasonal_warming_trend() {
        let w = weather();
        let early = w.ambient_mean(Timestamp::from_day_minute(0, 720));
        let late = w.ambient_mean(Timestamp::from_day_minute(97, 720));
        assert!(late - early > 15.0);
    }

    #[test]
    fn diurnal_cycle_peaks_in_afternoon() {
        let w = weather();
        let afternoon = w.ambient_mean(Timestamp::from_day_minute(10, 15 * 60));
        let predawn = w.ambient_mean(Timestamp::from_day_minute(10, 3 * 60));
        assert!(afternoon > predawn + 5.0);
    }

    #[test]
    fn deterministic_under_seed() {
        let a = Weather::new(WeatherConfig::default(), 10, 1);
        let b = Weather::new(WeatherConfig::default(), 10, 1);
        let c = Weather::new(WeatherConfig::default(), 10, 2);
        let t = Timestamp::from_day_minute(5, 333);
        assert_eq!(a.ambient(t), b.ambient(t));
        assert_ne!(a.ambient(t), c.ambient(t));
    }

    #[test]
    fn noise_is_bounded_and_finite() {
        let w = weather();
        let mut max_dev: f64 = 0.0;
        for day in 0..98 {
            for minute in (0..1440).step_by(15) {
                let t = Timestamp::from_day_minute(day, minute);
                let v = w.ambient(t);
                assert!(v.is_finite());
                max_dev = max_dev.max((v - w.ambient_mean(t)).abs());
            }
        }
        // 5-sigma guard band for OU noise with sigma 2.5.
        assert!(max_dev < 12.5, "noise deviation {max_dev} out of range");
        assert!(max_dev > 0.5, "noise should actually perturb the trace");
    }

    #[test]
    fn beyond_horizon_clamps_noise() {
        let w = Weather::new(WeatherConfig::default(), 2, 3);
        let t = Timestamp::from_day_minute(50, 0);
        assert!(w.ambient(t).is_finite());
    }

    #[test]
    fn continuity_of_interpolation() {
        let w = weather();
        // Adjacent minutes should not jump by more than a fraction of a degree.
        for m in 0..(24 * 60 - 1) {
            let a = w.ambient(Timestamp::from_day_minute(1, m));
            let b = w.ambient(Timestamp::from_day_minute(1, m + 1));
            assert!((a - b).abs() < 0.5, "jump at minute {m}");
        }
    }
}
