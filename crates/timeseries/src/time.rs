//! Calendar dates and the uniform slot grid of the trace.

use std::fmt;
use std::ops::{Add, Sub};

use crate::{Result, TimeSeriesError};

/// Minutes in one day.
pub const MINUTES_PER_DAY: i64 = 24 * 60;
/// Minutes in one hour.
pub const MINUTES_PER_HOUR: i64 = 60;

/// A point in time, measured in whole minutes since the dataset epoch.
///
/// The testbed's effective sampling resolution is minutes (temperature
/// sensors report on 0.1 °C changes, the HVAC portal every 10–30
/// minutes), so minute resolution loses nothing and keeps arithmetic
/// exact.
///
/// # Example
///
/// ```
/// use thermal_timeseries::{Timestamp, MINUTES_PER_DAY};
///
/// let t = Timestamp::from_day_minute(2, 6 * 60); // day 2, 06:00
/// assert_eq!(t.day(), 2);
/// assert_eq!(t.minute_of_day(), 360);
/// assert_eq!(t.as_minutes(), 2 * MINUTES_PER_DAY + 360);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct Timestamp(i64);

impl Timestamp {
    /// Creates a timestamp from raw minutes since the epoch.
    pub fn from_minutes(minutes: i64) -> Self {
        Timestamp(minutes)
    }

    /// Creates a timestamp from a day index and a minute-of-day.
    pub fn from_day_minute(day: i64, minute_of_day: i64) -> Self {
        Timestamp(day * MINUTES_PER_DAY + minute_of_day)
    }

    /// Minutes since the epoch.
    pub fn as_minutes(self) -> i64 {
        self.0
    }

    /// Day index (floor division; negative times belong to negative
    /// days).
    pub fn day(self) -> i64 {
        self.0.div_euclid(MINUTES_PER_DAY)
    }

    /// Minutes after midnight within the day, in `0..1440`.
    pub fn minute_of_day(self) -> i64 {
        self.0.rem_euclid(MINUTES_PER_DAY)
    }

    /// Hour-of-day as a fraction (e.g. `13.5` for 13:30).
    pub fn hour_of_day(self) -> f64 {
        self.minute_of_day() as f64 / MINUTES_PER_HOUR as f64
    }
}

impl Add<i64> for Timestamp {
    type Output = Timestamp;

    /// Advances the timestamp by `minutes`.
    fn add(self, minutes: i64) -> Timestamp {
        Timestamp(self.0 + minutes)
    }
}

impl Sub<Timestamp> for Timestamp {
    type Output = i64;

    /// Difference between two timestamps, in minutes.
    fn sub(self, rhs: Timestamp) -> i64 {
        self.0 - rhs.0
    }
}

impl fmt::Display for Timestamp {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "day {} {:02}:{:02}",
            self.day(),
            self.minute_of_day() / 60,
            self.minute_of_day() % 60
        )
    }
}

/// A calendar date used for human-readable labelling of day indices
/// (the paper's trace runs Jan 31 – May 8, 2013).
///
/// Implements just enough proleptic-Gregorian arithmetic to add days;
/// there is no time-zone or leap-second handling, which telemetry at
/// this resolution does not need.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct Date {
    /// Four-digit year.
    pub year: i32,
    /// Month, `1..=12`.
    pub month: u8,
    /// Day of month, `1..=31`.
    pub day: u8,
}

impl Date {
    /// Creates a date, validating month and day ranges.
    ///
    /// # Errors
    ///
    /// Returns [`TimeSeriesError::InvalidGrid`] for out-of-range
    /// month/day combinations.
    pub fn new(year: i32, month: u8, day: u8) -> Result<Self> {
        if !(1..=12).contains(&month) {
            return Err(TimeSeriesError::InvalidGrid {
                reason: "month must be 1..=12",
            });
        }
        let d = Date { year, month, day };
        if day == 0 || day > d.days_in_month() {
            return Err(TimeSeriesError::InvalidGrid {
                reason: "day out of range for month",
            });
        }
        Ok(d)
    }

    /// The trace-start date of the paper's dataset (January 31, 2013).
    pub fn paper_epoch() -> Self {
        Date {
            year: 2013,
            month: 1,
            day: 31,
        }
    }

    fn is_leap_year(&self) -> bool {
        let y = self.year;
        (y % 4 == 0 && y % 100 != 0) || y % 400 == 0
    }

    fn days_in_month(&self) -> u8 {
        match self.month {
            1 | 3 | 5 | 7 | 8 | 10 | 12 => 31,
            4 | 6 | 9 | 11 => 30,
            // Month is validated to 1..=12 at construction, so only
            // February reaches this arm.
            _ => {
                if self.is_leap_year() {
                    29
                } else {
                    28
                }
            }
        }
    }

    /// Returns the date `n` days after `self` (`n ≥ 0`).
    #[allow(clippy::cast_possible_truncation, clippy::cast_sign_loss)] // remaining ≤ days_in_month ≤ 31 at the cast
    pub fn plus_days(mut self, n: i64) -> Self {
        debug_assert!(n >= 0, "plus_days takes a non-negative offset");
        let mut remaining = n;
        while remaining > 0 {
            let left_in_month = i64::from(self.days_in_month() - self.day);
            if remaining <= left_in_month {
                self.day += remaining as u8;
                return self;
            }
            remaining -= left_in_month + 1;
            self.day = 1;
            self.month += 1;
            if self.month > 12 {
                self.month = 1;
                self.year += 1;
            }
        }
        self
    }
}

impl fmt::Display for Date {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        const MONTHS: [&str; 12] = [
            "Jan", "Feb", "Mar", "Apr", "May", "Jun", "Jul", "Aug", "Sep", "Oct", "Nov", "Dec",
        ];
        write!(
            f,
            "{} {}, {}",
            MONTHS[(self.month - 1) as usize],
            self.day,
            self.year
        )
    }
}

/// A uniform sampling grid: a start timestamp, a step in minutes and a
/// sample count.
///
/// All channels of a [`crate::Dataset`] share one grid, so sample `i`
/// of every channel refers to the same instant
/// `start + i * step_minutes`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct TimeGrid {
    start: Timestamp,
    step_minutes: u32,
    len: usize,
}

impl TimeGrid {
    /// Creates a grid.
    ///
    /// # Errors
    ///
    /// Returns [`TimeSeriesError::InvalidGrid`] when `step_minutes` is
    /// zero or `len` is zero.
    pub fn new(start: Timestamp, step_minutes: u32, len: usize) -> Result<Self> {
        if step_minutes == 0 {
            return Err(TimeSeriesError::InvalidGrid {
                reason: "step must be at least one minute",
            });
        }
        if len == 0 {
            return Err(TimeSeriesError::InvalidGrid {
                reason: "grid must contain at least one sample",
            });
        }
        Ok(TimeGrid {
            start,
            step_minutes,
            len,
        })
    }

    /// First sample instant.
    pub fn start(&self) -> Timestamp {
        self.start
    }

    /// Step between samples, in minutes.
    pub fn step_minutes(&self) -> u32 {
        self.step_minutes
    }

    /// Number of samples.
    pub fn len(&self) -> usize {
        self.len
    }

    /// `true` when the grid is empty (unreachable via `new`).
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Instant of sample `i`.
    ///
    /// # Errors
    ///
    /// Returns [`TimeSeriesError::OutOfRange`] when `i >= len()`.
    pub fn timestamp(&self, i: usize) -> Result<Timestamp> {
        if i >= self.len {
            return Err(TimeSeriesError::OutOfRange {
                op: "timestamp",
                index: i,
                len: self.len,
            });
        }
        Ok(self.start + (i as i64 * self.step_minutes as i64))
    }

    /// Sample index covering timestamp `t`, or `None` when `t` falls
    /// before the grid, after it, or between grid points.
    pub fn index_of(&self, t: Timestamp) -> Option<usize> {
        let offset = t - self.start;
        if offset < 0 || offset % self.step_minutes as i64 != 0 {
            return None;
        }
        let idx = usize::try_from(offset / i64::from(self.step_minutes)).ok()?;
        (idx < self.len).then_some(idx)
    }

    /// Total covered duration in minutes (from first to one-past-last
    /// sample).
    pub fn duration_minutes(&self) -> i64 {
        self.len as i64 * self.step_minutes as i64
    }

    /// Number of whole or partial days the grid touches.
    pub fn day_count(&self) -> usize {
        if self.len == 0 {
            return 0;
        }
        let first = self.start.day();
        let last = (self.start + ((self.len as i64 - 1) * i64::from(self.step_minutes))).day();
        usize::try_from(last - first + 1).unwrap_or(0)
    }

    /// Day index (relative to the *epoch*, not the grid start) of
    /// sample `i`.
    ///
    /// # Errors
    ///
    /// Returns [`TimeSeriesError::OutOfRange`] when `i >= len()`.
    pub fn day_of_sample(&self, i: usize) -> Result<i64> {
        Ok(self.timestamp(i)?.day())
    }

    /// Iterates over `(index, timestamp)` pairs.
    pub fn iter(&self) -> impl Iterator<Item = (usize, Timestamp)> + '_ {
        let start = self.start;
        let step = self.step_minutes as i64;
        (0..self.len).map(move |i| (i, start + i as i64 * step))
    }

    /// Samples per day for this grid (fractional if the step does not
    /// divide a day).
    pub fn samples_per_day(&self) -> f64 {
        MINUTES_PER_DAY as f64 / self.step_minutes as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn timestamp_components() {
        let t = Timestamp::from_day_minute(3, 90);
        assert_eq!(t.day(), 3);
        assert_eq!(t.minute_of_day(), 90);
        assert_eq!(t.hour_of_day(), 1.5);
        assert_eq!(t.as_minutes(), 3 * 1440 + 90);
    }

    #[test]
    fn timestamp_arithmetic_and_negative_days() {
        let t = Timestamp::from_minutes(-10);
        assert_eq!(t.day(), -1);
        assert_eq!(t.minute_of_day(), 1430);
        let u = t + 20;
        assert_eq!(u.as_minutes(), 10);
        assert_eq!(u - t, 20);
    }

    #[test]
    fn timestamp_display() {
        let t = Timestamp::from_day_minute(5, 6 * 60 + 7);
        assert_eq!(t.to_string(), "day 5 06:07");
    }

    #[test]
    fn grid_construction_validation() {
        assert!(TimeGrid::new(Timestamp::from_minutes(0), 0, 5).is_err());
        assert!(TimeGrid::new(Timestamp::from_minutes(0), 5, 0).is_err());
        assert!(TimeGrid::new(Timestamp::from_minutes(0), 5, 1).is_ok());
    }

    #[test]
    fn grid_indexing_roundtrip() {
        let grid = TimeGrid::new(Timestamp::from_minutes(100), 5, 10).unwrap();
        for i in 0..10 {
            let t = grid.timestamp(i).unwrap();
            assert_eq!(grid.index_of(t), Some(i));
        }
        assert!(grid.timestamp(10).is_err());
        assert_eq!(grid.index_of(Timestamp::from_minutes(99)), None);
        assert_eq!(grid.index_of(Timestamp::from_minutes(102)), None);
        assert_eq!(grid.index_of(Timestamp::from_minutes(150)), None);
    }

    #[test]
    fn grid_day_count() {
        // 5-minute grid spanning exactly two days starting at 23:50 of day 0.
        let grid = TimeGrid::new(Timestamp::from_day_minute(0, 1430), 5, 4).unwrap();
        assert_eq!(grid.day_count(), 2);
        let one = TimeGrid::new(Timestamp::from_minutes(0), 60, 24).unwrap();
        assert_eq!(one.day_count(), 1);
        assert_eq!(one.samples_per_day(), 24.0);
        assert_eq!(one.duration_minutes(), 1440);
    }

    #[test]
    fn grid_iter_yields_every_sample() {
        let grid = TimeGrid::new(Timestamp::from_minutes(0), 30, 4).unwrap();
        let stamps: Vec<i64> = grid.iter().map(|(_, t)| t.as_minutes()).collect();
        assert_eq!(stamps, vec![0, 30, 60, 90]);
    }

    #[test]
    fn date_validation() {
        assert!(Date::new(2013, 2, 29).is_err()); // 2013 not a leap year
        assert!(Date::new(2012, 2, 29).is_ok());
        assert!(Date::new(2013, 13, 1).is_err());
        assert!(Date::new(2013, 4, 31).is_err());
        assert!(Date::new(2013, 0, 1).is_err() || Date::new(2013, 1, 0).is_err());
    }

    #[test]
    fn date_plus_days_crosses_months_and_years() {
        let epoch = Date::paper_epoch(); // Jan 31, 2013
        assert_eq!(epoch.plus_days(0), epoch);
        assert_eq!(epoch.plus_days(1), Date::new(2013, 2, 1).unwrap());
        assert_eq!(epoch.plus_days(28), Date::new(2013, 2, 28).unwrap());
        assert_eq!(epoch.plus_days(29), Date::new(2013, 3, 1).unwrap());
        // Jan 31 + 97 days = May 8, 2013 (the paper's end of trace).
        assert_eq!(epoch.plus_days(97), Date::new(2013, 5, 8).unwrap());
        let dec = Date::new(2013, 12, 31).unwrap();
        assert_eq!(dec.plus_days(1), Date::new(2014, 1, 1).unwrap());
    }

    #[test]
    fn date_display() {
        assert_eq!(Date::paper_epoch().to_string(), "Jan 31, 2013");
        assert_eq!(Date::new(2013, 5, 8).unwrap().to_string(), "May 8, 2013");
    }
}
