//! Ground-truth record of every injected fault.
//!
//! Injection is only useful for testing detection when the injector
//! can say exactly what it did: the [`FaultLog`] records every event
//! with its channel and slot extent, so tests can assert that the
//! validation layer caught (or healed) precisely the corrupted
//! samples and nothing else.

use thermal_timeseries::Mask;

/// One injected fault, as ground truth.
#[derive(Debug, Clone, PartialEq)]
#[non_exhaustive]
pub enum FaultEvent {
    /// A channel's reading froze at `held` over `start..end`.
    StuckAt {
        /// Affected channel name.
        channel: String,
        /// First affected slot (inclusive).
        start: usize,
        /// One past the last affected slot.
        end: usize,
        /// The frozen reading.
        held: f64,
    },
    /// A channel drifted by `rate_per_slot` per slot from `start` to
    /// the end of the trace.
    Drift {
        /// Affected channel name.
        channel: String,
        /// Drift onset slot.
        start: usize,
        /// Additive drift per slot (signed).
        rate_per_slot: f64,
    },
    /// An isolated outlier reading displaced by `delta`.
    Spike {
        /// Affected channel name.
        channel: String,
        /// The corrupted slot.
        index: usize,
        /// Signed displacement applied to the true reading.
        delta: f64,
    },
    /// A reading replaced by a physically implausible value.
    Garbage {
        /// Affected channel name.
        channel: String,
        /// The corrupted slot.
        index: usize,
        /// The garbage value written.
        value: f64,
    },
    /// A channel's timeline shifted by `shift` slots (positive =
    /// reported late).
    ClockSkew {
        /// Affected channel name.
        channel: String,
        /// Signed shift in slots.
        shift: i64,
    },
    /// A channel went dark from `start` to the end of the trace.
    ChannelDeath {
        /// Affected channel name.
        channel: String,
        /// First dark slot.
        start: usize,
    },
    /// An entire day was lost for every channel (server outage).
    DayOutage {
        /// The lost (epoch-relative) day index.
        day: i64,
    },
    /// The channel's physics changed mid-trace and stayed changed
    /// (VAV damper failure, occupancy schedule shift, envelope
    /// change): from `start`, readings are rescaled around the
    /// pre-onset level by `gain` and shifted by `offset`.
    RegimeShift {
        /// Affected channel name.
        channel: String,
        /// First slot of the new regime.
        start: usize,
        /// Multiplicative gain applied around the pre-onset mean.
        gain: f64,
        /// Additive level shift, °C.
        offset: f64,
    },
}

impl FaultEvent {
    /// The channel the event affects, or `None` for whole-trace
    /// events (day outages).
    pub fn channel(&self) -> Option<&str> {
        match self {
            FaultEvent::StuckAt { channel, .. }
            | FaultEvent::Drift { channel, .. }
            | FaultEvent::Spike { channel, .. }
            | FaultEvent::Garbage { channel, .. }
            | FaultEvent::ClockSkew { channel, .. }
            | FaultEvent::ChannelDeath { channel, .. }
            | FaultEvent::RegimeShift { channel, .. } => Some(channel),
            FaultEvent::DayOutage { .. } => None,
        }
    }

    /// Short machine-friendly class name (`"stuck"`, `"drift"`, …).
    pub fn kind_name(&self) -> &'static str {
        match self {
            FaultEvent::StuckAt { .. } => "stuck",
            FaultEvent::Drift { .. } => "drift",
            FaultEvent::Spike { .. } => "spike",
            FaultEvent::Garbage { .. } => "garbage",
            FaultEvent::ClockSkew { .. } => "skew",
            FaultEvent::ChannelDeath { .. } => "death",
            FaultEvent::DayOutage { .. } => "outage",
            FaultEvent::RegimeShift { .. } => "regime_shift",
        }
    }
}

/// Ground truth of one [`crate::FaultPlan::apply`] run.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct FaultLog {
    events: Vec<FaultEvent>,
}

impl FaultLog {
    /// Creates an empty log.
    pub fn new() -> Self {
        FaultLog::default()
    }

    /// Appends an event.
    pub fn push(&mut self, event: FaultEvent) {
        self.events.push(event);
    }

    /// All recorded events, in injection order.
    pub fn events(&self) -> &[FaultEvent] {
        &self.events
    }

    /// `true` when nothing was injected.
    pub fn is_clean(&self) -> bool {
        self.events.is_empty()
    }

    /// Number of events of the given class (see
    /// [`FaultEvent::kind_name`]).
    pub fn count_kind(&self, kind: &str) -> usize {
        self.events.iter().filter(|e| e.kind_name() == kind).count()
    }

    /// Days lost to injected server outages, ascending and
    /// deduplicated.
    pub fn outage_days(&self) -> Vec<i64> {
        let mut days: Vec<i64> = self
            .events
            .iter()
            .filter_map(|e| match e {
                FaultEvent::DayOutage { day } => Some(*day),
                _ => None,
            })
            .collect();
        days.sort_unstable();
        days.dedup();
        days
    }

    /// Mask (over a grid of `len` slots whose slot `i` falls on day
    /// `day_of_slot(i)`) of the slots this log *erased* for the named
    /// channel: its stuck/drift/spike/garbage corruptions alter values
    /// but keep them present, while channel death, and day outages,
    /// remove them — the removed slots are what this mask selects.
    pub fn lost_mask(&self, channel: &str, len: usize, day_of_slot: impl Fn(usize) -> i64) -> Mask {
        let mut bits = vec![false; len];
        for event in &self.events {
            match event {
                FaultEvent::ChannelDeath { channel: c, start } if c == channel => {
                    for b in bits.iter_mut().skip(*start) {
                        *b = true;
                    }
                }
                FaultEvent::DayOutage { day } => {
                    for (i, b) in bits.iter_mut().enumerate() {
                        if day_of_slot(i) == *day {
                            *b = true;
                        }
                    }
                }
                _ => {}
            }
        }
        Mask::from_bits(bits)
    }

    /// Slots whose *value* was corrupted (but left present) for the
    /// named channel: stuck runs, drift tails, spikes and garbage.
    pub fn corrupted_slots(&self, channel: &str, len: usize) -> Vec<usize> {
        let mut bits = vec![false; len];
        for event in &self.events {
            match event {
                FaultEvent::StuckAt {
                    channel: c,
                    start,
                    end,
                    ..
                } if c == channel => {
                    for b in bits.iter_mut().take((*end).min(len)).skip(*start) {
                        *b = true;
                    }
                }
                FaultEvent::Drift {
                    channel: c, start, ..
                }
                | FaultEvent::RegimeShift {
                    channel: c, start, ..
                } if c == channel => {
                    for b in bits.iter_mut().skip(*start) {
                        *b = true;
                    }
                }
                FaultEvent::Spike {
                    channel: c, index, ..
                }
                | FaultEvent::Garbage {
                    channel: c, index, ..
                } if c == channel && *index < len => {
                    bits[*index] = true;
                }
                _ => {}
            }
        }
        bits.iter()
            .enumerate()
            .filter_map(|(i, &b)| b.then_some(i))
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn log_accounting() {
        let mut log = FaultLog::new();
        assert!(log.is_clean());
        log.push(FaultEvent::Spike {
            channel: "t01".into(),
            index: 3,
            delta: 4.0,
        });
        log.push(FaultEvent::DayOutage { day: 2 });
        log.push(FaultEvent::DayOutage { day: 1 });
        log.push(FaultEvent::DayOutage { day: 2 });
        assert!(!log.is_clean());
        assert_eq!(log.count_kind("spike"), 1);
        assert_eq!(log.count_kind("outage"), 3);
        assert_eq!(log.outage_days(), vec![1, 2]);
        assert_eq!(log.events()[0].channel(), Some("t01"));
        assert_eq!(log.events()[1].channel(), None);
    }

    #[test]
    fn lost_mask_merges_death_and_outage() {
        let mut log = FaultLog::new();
        log.push(FaultEvent::ChannelDeath {
            channel: "a".into(),
            start: 8,
        });
        log.push(FaultEvent::DayOutage { day: 0 });
        // 10 slots, 5 per day.
        let mask = log.lost_mask("a", 10, |i| (i / 5) as i64);
        assert_eq!(mask.count(), 7); // slots 0..5 (day 0) + 8, 9
        assert!(mask.get(0) && mask.get(4) && !mask.get(5) && mask.get(8));
        // Another channel only loses the outage day.
        let other = log.lost_mask("b", 10, |i| (i / 5) as i64);
        assert_eq!(other.count(), 5);
    }

    #[test]
    fn corrupted_slots_cover_value_faults() {
        let mut log = FaultLog::new();
        log.push(FaultEvent::StuckAt {
            channel: "a".into(),
            start: 1,
            end: 3,
            held: 20.0,
        });
        log.push(FaultEvent::Garbage {
            channel: "a".into(),
            index: 5,
            value: 999.0,
        });
        log.push(FaultEvent::Drift {
            channel: "b".into(),
            start: 4,
            rate_per_slot: 0.01,
        });
        assert_eq!(log.corrupted_slots("a", 6), vec![1, 2, 5]);
        assert_eq!(log.corrupted_slots("b", 6), vec![4, 5]);
        log.push(FaultEvent::RegimeShift {
            channel: "c".into(),
            start: 2,
            gain: 1.3,
            offset: 0.9,
        });
        assert_eq!(log.count_kind("regime_shift"), 1);
        assert_eq!(log.events()[3].channel(), Some("c"));
        assert_eq!(log.corrupted_slots("c", 5), vec![2, 3, 4]);
    }
}
