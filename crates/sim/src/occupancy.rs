//! Occupancy and lighting schedule generation.
//!
//! The real auditorium hosts classes, seminars and meetings; the
//! paper counted occupants from webcam snapshots every 15 minutes.
//! This module generates a plausible weekly schedule: weekday classes
//! and seminars with ramp-in/ramp-out, occasional full-house seminars
//! (the Fig. 2 scenario), sparse weekend use, and lights that track
//! occupancy with a margin.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use thermal_timeseries::Timestamp;

/// Salt for the occupancy RNG stream.
const OCCUPANCY_STREAM_SALT: u64 = 0x4f43_4355_5041_4e43; // "OCCUPANC"

/// One scheduled gathering.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Event {
    /// Day index the event occurs on.
    pub day: i64,
    /// Start, minutes after midnight.
    pub start_minute: i64,
    /// End, minutes after midnight.
    pub end_minute: i64,
    /// Peak headcount.
    pub peak: u32,
    /// Fraction of the audience seated in the front half. Varies per
    /// event — the webcam sees *how many* people attend, not where
    /// they sit, so this split is latent to the paper's model,
    /// exactly as in the real testbed.
    pub front_bias: f64,
}

impl Event {
    /// Duration in minutes.
    pub fn duration(&self) -> i64 {
        self.end_minute - self.start_minute
    }
}

/// Configuration of the schedule generator.
#[derive(Debug, Clone, PartialEq)]
pub struct OccupancyConfig {
    /// Room capacity (the paper's auditorium holds ~90).
    pub capacity: u32,
    /// Probability a weekday hosts a morning class.
    pub p_morning_class: f64,
    /// Probability a weekday hosts a midday seminar.
    pub p_seminar: f64,
    /// Probability a weekday hosts an afternoon class.
    pub p_afternoon_class: f64,
    /// Probability a weekday hosts an evening meeting.
    pub p_evening: f64,
    /// Probability a seminar is a full-house event.
    pub p_full_house: f64,
    /// Probability a weekend day hosts any (small) event.
    pub p_weekend_event: f64,
    /// Minutes of ramp-in (arrival) and ramp-out (departure).
    pub ramp_minutes: i64,
    /// Range of per-event front-seating bias (fraction of the
    /// audience in the front half), sampled uniformly per event.
    pub front_bias_range: (f64, f64),
    /// Day ranges (inclusive start, exclusive end) during which the
    /// building is on break and weekday events are rare — the
    /// semester's spring break, around mid-March for the paper's
    /// Jan 31 – May 8 campaign.
    pub break_periods: Vec<(i64, i64)>,
}

impl Default for OccupancyConfig {
    fn default() -> Self {
        OccupancyConfig {
            capacity: 90,
            p_morning_class: 0.7,
            p_seminar: 0.5,
            p_afternoon_class: 0.6,
            p_evening: 0.25,
            p_full_house: 0.3,
            p_weekend_event: 0.1,
            ramp_minutes: 15,
            front_bias_range: (0.10, 0.50),
            break_periods: vec![(42, 49)],
        }
    }
}

/// A generated multi-week occupancy schedule.
///
/// # Example
///
/// ```
/// use thermal_sim::{OccupancyConfig, OccupancySchedule};
/// use thermal_timeseries::Timestamp;
///
/// let sched = OccupancySchedule::generate(OccupancyConfig::default(), 14, 1);
/// let midnight = sched.count_at(Timestamp::from_day_minute(3, 0));
/// assert_eq!(midnight, 0, "nobody at midnight");
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct OccupancySchedule {
    config: OccupancyConfig,
    events: Vec<Event>,
}

impl OccupancySchedule {
    /// Generates a schedule covering `horizon_days`, deterministic in
    /// `seed`. Day 0 is taken to be a Thursday (Jan 31, 2013 was).
    pub fn generate(config: OccupancyConfig, horizon_days: usize, seed: u64) -> Self {
        let mut rng = StdRng::seed_from_u64(seed ^ OCCUPANCY_STREAM_SALT);
        let mut events = Vec::new();
        for day in 0..horizon_days as i64 {
            // Jan 31, 2013 (day 0) was a Thursday: weekday index 3.
            let weekday = (day + 3).rem_euclid(7); // 0 = Monday … 6 = Sunday
            let is_weekend = weekday >= 5;
            let on_break = config
                .break_periods
                .iter()
                .any(|&(s, e)| day >= s && day < e);
            if on_break && rng.gen::<f64>() < 0.9 {
                continue; // the occasional stray meeting still happens
            }
            if is_weekend {
                if rng.gen::<f64>() < config.p_weekend_event {
                    events.push(Event {
                        day,
                        start_minute: 13 * 60,
                        end_minute: 15 * 60,
                        peak: 5 + rng.gen_range(0..15),
                        front_bias: rng
                            .gen_range(config.front_bias_range.0..config.front_bias_range.1),
                    });
                }
                continue;
            }
            if rng.gen::<f64>() < config.p_morning_class {
                events.push(Event {
                    day,
                    start_minute: 9 * 60,
                    end_minute: 10 * 60 + 30,
                    peak: 20 + rng.gen_range(0..20),
                    front_bias: rng.gen_range(config.front_bias_range.0..config.front_bias_range.1),
                });
            }
            if rng.gen::<f64>() < config.p_seminar {
                let full = rng.gen::<f64>() < config.p_full_house;
                let peak = if full {
                    config.capacity - rng.gen_range(0..8)
                } else {
                    30 + rng.gen_range(0..30)
                };
                events.push(Event {
                    day,
                    start_minute: 12 * 60,
                    end_minute: 13 * 60 + 30,
                    peak,
                    front_bias: rng.gen_range(config.front_bias_range.0..config.front_bias_range.1),
                });
            }
            if rng.gen::<f64>() < config.p_afternoon_class {
                events.push(Event {
                    day,
                    start_minute: 14 * 60 + 30,
                    end_minute: 16 * 60,
                    peak: 25 + rng.gen_range(0..25),
                    front_bias: rng.gen_range(config.front_bias_range.0..config.front_bias_range.1),
                });
            }
            if rng.gen::<f64>() < config.p_evening {
                events.push(Event {
                    day,
                    start_minute: 18 * 60,
                    end_minute: 19 * 60 + 30,
                    peak: 10 + rng.gen_range(0..20),
                    front_bias: rng.gen_range(config.front_bias_range.0..config.front_bias_range.1),
                });
            }
        }
        OccupancySchedule { config, events }
    }

    /// A schedule with no events (for controlled experiments).
    pub fn empty(config: OccupancyConfig) -> Self {
        OccupancySchedule {
            config,
            events: Vec::new(),
        }
    }

    /// Builds a schedule directly from events (testing hook).
    pub fn from_events(config: OccupancyConfig, mut events: Vec<Event>) -> Self {
        events.sort_by_key(|e| (e.day, e.start_minute));
        OccupancySchedule { config, events }
    }

    /// All events, sorted by time.
    pub fn events(&self) -> &[Event] {
        &self.events
    }

    /// The configuration in use.
    pub fn config(&self) -> &OccupancyConfig {
        &self.config
    }

    /// Headcount at time `t`, with trapezoidal arrival/departure ramps
    /// of `ramp_minutes` around each event.
    pub fn count_at(&self, t: Timestamp) -> u32 {
        let day = t.day();
        let minute = t.minute_of_day();
        let ramp = self.config.ramp_minutes.max(1);
        let mut total: f64 = 0.0;
        for e in &self.events {
            if e.day != day {
                continue;
            }
            let peak = e.peak as f64;
            let v = if minute < e.start_minute - ramp || minute >= e.end_minute + ramp {
                0.0
            } else if minute < e.start_minute {
                peak * (minute - (e.start_minute - ramp)) as f64 / ramp as f64
            } else if minute < e.end_minute {
                peak
            } else {
                peak * ((e.end_minute + ramp) - minute) as f64 / ramp as f64
            };
            total += v;
        }
        let capped = total.round().min(f64::from(self.config.capacity));
        u32::try_from(thermal_linalg::cast::floor_to_i64(capped).max(0)).unwrap_or(u32::MAX)
    }

    /// Lighting state at time `t`: lights are on from 20 minutes
    /// before the first event of the day until 20 minutes after the
    /// last.
    pub fn lights_at(&self, t: Timestamp) -> bool {
        const MARGIN: i64 = 20;
        let day = t.day();
        let minute = t.minute_of_day();
        self.events.iter().any(|e| {
            e.day == day && minute >= e.start_minute - MARGIN && minute < e.end_minute + MARGIN
        })
    }

    /// Fraction of occupant heat released in the *front* half of the
    /// room at `t`: the headcount-weighted average of the active
    /// events' seating biases. The webcam count `o(k)` recorded in
    /// the dataset carries no seating information, so this spatial
    /// split is latent to any identified model — one of the reasons
    /// front and back sensors decorrelate during occupied hours.
    pub fn front_fraction_at(&self, t: Timestamp) -> f64 {
        let day = t.day();
        let minute = t.minute_of_day();
        let ramp = self.config.ramp_minutes.max(1);
        let mut weighted = 0.0;
        let mut total = 0.0;
        for e in &self.events {
            if e.day != day {
                continue;
            }
            if minute >= e.start_minute - ramp && minute < e.end_minute + ramp {
                let w = e.peak as f64;
                weighted += w * e.front_bias;
                total += w;
            }
        }
        if total > 0.0 {
            weighted / total
        } else {
            0.25
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn schedule() -> OccupancySchedule {
        OccupancySchedule::generate(OccupancyConfig::default(), 28, 5)
    }

    #[test]
    fn deterministic_under_seed() {
        let a = OccupancySchedule::generate(OccupancyConfig::default(), 28, 5);
        let b = OccupancySchedule::generate(OccupancyConfig::default(), 28, 5);
        assert_eq!(a.events(), b.events());
        let c = OccupancySchedule::generate(OccupancyConfig::default(), 28, 6);
        assert_ne!(a.events(), c.events());
    }

    #[test]
    fn nights_are_empty() {
        let s = schedule();
        for day in 0..28 {
            for minute in [0, 120, 300, 23 * 60 + 30] {
                assert_eq!(s.count_at(Timestamp::from_day_minute(day, minute)), 0);
            }
        }
    }

    #[test]
    fn weekdays_host_events() {
        let s = schedule();
        assert!(
            s.events().len() > 20,
            "4 weeks of weekdays should generate many events, got {}",
            s.events().len()
        );
        // All events within the day.
        for e in s.events() {
            assert!(e.start_minute >= 0 && e.end_minute <= 24 * 60);
            assert!(e.duration() > 0);
            assert!(e.peak <= 90);
        }
    }

    #[test]
    fn ramps_are_trapezoidal() {
        let cfg = OccupancyConfig::default();
        let s = OccupancySchedule::from_events(
            cfg,
            vec![Event {
                day: 0,
                start_minute: 600,
                end_minute: 660,
                peak: 60,
                front_bias: 0.3,
            }],
        );
        // Before ramp.
        assert_eq!(s.count_at(Timestamp::from_day_minute(0, 580)), 0);
        // Mid-ramp (~halfway through 15-minute ramp).
        let mid = s.count_at(Timestamp::from_day_minute(0, 593));
        assert!(mid > 10 && mid < 60, "mid-ramp headcount {mid}");
        // Plateau.
        assert_eq!(s.count_at(Timestamp::from_day_minute(0, 630)), 60);
        // Ramp-out.
        let out = s.count_at(Timestamp::from_day_minute(0, 668));
        assert!(out > 0 && out < 60);
        assert_eq!(s.count_at(Timestamp::from_day_minute(0, 680)), 0);
    }

    #[test]
    fn capacity_clamps_overlapping_events() {
        let cfg = OccupancyConfig::default();
        let s = OccupancySchedule::from_events(
            cfg,
            vec![
                Event {
                    day: 0,
                    start_minute: 600,
                    end_minute: 700,
                    peak: 80,
                    front_bias: 0.3,
                },
                Event {
                    day: 0,
                    start_minute: 650,
                    end_minute: 750,
                    peak: 80,
                    front_bias: 0.3,
                },
            ],
        );
        assert_eq!(s.count_at(Timestamp::from_day_minute(0, 660)), 90);
    }

    #[test]
    fn lights_track_events_with_margin() {
        let cfg = OccupancyConfig::default();
        let s = OccupancySchedule::from_events(
            cfg,
            vec![Event {
                day: 2,
                start_minute: 720,
                end_minute: 780,
                peak: 40,
                front_bias: 0.3,
            }],
        );
        assert!(!s.lights_at(Timestamp::from_day_minute(2, 690)));
        assert!(s.lights_at(Timestamp::from_day_minute(2, 705)));
        assert!(s.lights_at(Timestamp::from_day_minute(2, 750)));
        assert!(s.lights_at(Timestamp::from_day_minute(2, 795)));
        assert!(!s.lights_at(Timestamp::from_day_minute(2, 801)));
        assert!(!s.lights_at(Timestamp::from_day_minute(3, 750)));
    }

    #[test]
    fn front_fraction_follows_event_bias() {
        let cfg = OccupancyConfig::default();
        let s = OccupancySchedule::from_events(
            cfg,
            vec![
                Event {
                    day: 0,
                    start_minute: 600,
                    end_minute: 660,
                    peak: 30,
                    front_bias: 0.45,
                },
                Event {
                    day: 0,
                    start_minute: 630,
                    end_minute: 700,
                    peak: 60,
                    front_bias: 0.15,
                },
            ],
        );
        // Only the first event active: its bias verbatim.
        let early = s.front_fraction_at(Timestamp::from_day_minute(0, 610));
        assert!((early - 0.45).abs() < 1e-12);
        // Both active: headcount-weighted blend (30*0.45 + 60*0.15)/90.
        let both = s.front_fraction_at(Timestamp::from_day_minute(0, 640));
        assert!((both - 0.25).abs() < 1e-12);
        // Nobody around: the default split.
        let idle = s.front_fraction_at(Timestamp::from_day_minute(0, 0));
        assert!((idle - 0.25).abs() < 1e-12);
    }

    #[test]
    fn empty_schedule_has_no_activity() {
        let s = OccupancySchedule::empty(OccupancyConfig::default());
        assert!(s.events().is_empty());
        assert_eq!(s.count_at(Timestamp::from_day_minute(0, 720)), 0);
        assert!(!s.lights_at(Timestamp::from_day_minute(0, 720)));
    }
}
