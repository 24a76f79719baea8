//! Property-based tests of the streaming layer's [`Snapshot`] impls
//! (see DESIGN.md § restore-equivalence): for *any* driven history,
//! `capture → restore onto a fresh instance → capture` must reproduce
//! the snapshot bytes exactly. Byte identity is the contract the
//! kill-point chaos harness (`cargo xtask chaos stream`) stands on —
//! a restored component that re-captures differently would diverge
//! from the uninterrupted run at the next snapshot boundary.

// Test fixtures: panicking on a broken fixture is the right failure mode.
#![allow(clippy::unwrap_used, clippy::expect_used)]

use proptest::prelude::*;
use thermal_ckpt::snapshot::{restore_from, snapshot_bytes};
use thermal_ckpt::BreakerPolicy;
use thermal_cluster::Clustering;
use thermal_core::ReducedModel;
use thermal_linalg::Matrix;
use thermal_select::Selection;
use thermal_stream::{
    Backoff, BackoffPolicy, BoundedQueue, DriftConfig, DriftMachine, FlakySource, HealthConfig,
    HealthMachine, HealthState, OnlineConfig, OverflowPolicy, PageHinkley, Reading, ReorderBuffer,
    ReorderConfig, ReplayConfig, SensorHealth, SimClock, SoakIntensityReport, SoakPrediction,
    StreamConfig, StreamService, TraceReplayer,
};
use thermal_sysid::{ModelOrder, ModelSpec, ThermalModel};
use thermal_timeseries::{TimeGrid, Timestamp};

/// Asserts the byte-identity round trip: `driven`'s snapshot restored
/// onto `fresh` must re-capture to the same bytes.
fn assert_roundtrip<S: thermal_ckpt::Snapshot>(driven: &S, fresh: &mut S) -> TestCaseResult {
    let bytes = snapshot_bytes(driven);
    restore_from(fresh, &bytes).map_err(|e| TestCaseError::fail(format!("restore failed: {e}")))?;
    prop_assert_eq!(&bytes, &snapshot_bytes(fresh));
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// Simulated clock: any monotone advance history round-trips.
    #[test]
    fn sim_clock_roundtrip(steps in prop::collection::vec(0i64..60, 0..24)) {
        let mut clock = SimClock::new(Timestamp::from_minutes(0));
        let mut now = 0;
        for step in steps {
            now += step;
            clock.advance_to(Timestamp::from_minutes(now)).unwrap();
        }
        let mut fresh = SimClock::new(Timestamp::from_minutes(0));
        assert_roundtrip(&clock, &mut fresh)?;
        prop_assert_eq!(fresh.now(), clock.now());
    }

    /// Backoff: any delay/reset interleaving round-trips, including
    /// the jitter-draw counter that keeps resumed delays on the same
    /// deterministic stream.
    #[test]
    fn backoff_roundtrip(ops in prop::collection::vec(any::<bool>(), 0..48)) {
        let policy = BackoffPolicy::default();
        let mut driven = Backoff::new(policy).unwrap();
        for fail in ops {
            if fail {
                let _ = driven.next_delay();
            } else {
                driven.reset();
            }
        }
        let mut fresh = Backoff::new(policy).unwrap();
        assert_roundtrip(&driven, &mut fresh)?;
        prop_assert_eq!(fresh.attempt(), driven.attempt());
        prop_assert_eq!(fresh.next_delay(), driven.next_delay());
    }

    /// Health machine: any reading/tick history round-trips — state,
    /// streak counters, watchdog deadlines, and lifetime totals.
    #[test]
    fn health_machine_roundtrip(
        events in prop::collection::vec((1i64..30, -10.0f64..50.0, any::<bool>()), 0..48),
    ) {
        let config = HealthConfig::default();
        let mut driven = HealthMachine::new();
        let mut now = 0;
        for (gap, value, tick_only) in events {
            now += gap;
            if tick_only {
                driven.on_tick(&config, now);
            } else {
                let _ = driven.on_reading(&config, now, value);
            }
        }
        let mut fresh = HealthMachine::new();
        assert_roundtrip(&driven, &mut fresh)?;
        prop_assert_eq!(fresh.state(), driven.state());
        prop_assert_eq!(fresh.transitions(), driven.transitions());
    }

    /// Bounded queue: any push/pop pattern against both overflow
    /// policies round-trips, buffered readings included.
    #[test]
    fn bounded_queue_roundtrip(
        (drop_oldest, ops) in (
            any::<bool>(),
            prop::collection::vec((any::<bool>(), 0i64..500, -5.0f64..45.0), 0..32),
        ),
    ) {
        let policy = if drop_oldest {
            OverflowPolicy::DropOldest
        } else {
            OverflowPolicy::RejectNewest
        };
        let mut driven = BoundedQueue::new(4, policy).unwrap();
        for (push, minute, value) in ops {
            if push {
                let _ = driven.push(Reading {
                    channel: 1,
                    at: Timestamp::from_minutes(minute),
                    value,
                });
            } else {
                let _ = driven.pop();
            }
        }
        let mut fresh = BoundedQueue::new(4, policy).unwrap();
        assert_roundtrip(&driven, &mut fresh)?;
        prop_assert_eq!(fresh.len(), driven.len());
    }

    /// Reorder buffer: any offer/drain pattern round-trips — buffered
    /// readings, the released frontier, and the counters.
    #[test]
    fn reorder_buffer_roundtrip(
        ops in prop::collection::vec((any::<bool>(), 0i64..40, -5.0f64..45.0), 0..48),
    ) {
        let config = ReorderConfig::default();
        let mut driven = ReorderBuffer::new(config).unwrap();
        let mut now = 0;
        for (offer, minutes, value) in ops {
            if offer {
                let _ = driven.offer(&Reading {
                    channel: 0,
                    at: Timestamp::from_minutes(minutes * 5),
                    value,
                });
            } else {
                now += minutes;
                let _ = driven.drain_ready(Timestamp::from_minutes(now * 5));
            }
        }
        let mut fresh = ReorderBuffer::new(config).unwrap();
        assert_roundtrip(&driven, &mut fresh)?;
        prop_assert_eq!(fresh.len(), driven.len());
    }

    /// Page–Hinkley detector: any residual history round-trips.
    #[test]
    fn page_hinkley_roundtrip(
        residuals in prop::collection::vec(-1.0f64..1.0, 0..64),
    ) {
        let config = DriftConfig::default();
        let mut driven = PageHinkley::new();
        for r in residuals {
            let _ = driven.observe(&config, r);
        }
        let mut fresh = PageHinkley::new();
        assert_roundtrip(&driven, &mut fresh)?;
        prop_assert_eq!(fresh.count(), driven.count());
    }

    /// Drift machine: any residual/refit interleaving round-trips —
    /// detector state, health phase, dwell, and lifetime stats.
    #[test]
    fn drift_machine_roundtrip(
        ops in prop::collection::vec((0usize..5, -1.0f64..1.0), 0..64),
    ) {
        let config = DriftConfig {
            min_samples: 4,
            confirm_dwell: 1,
            recovered_hold: 4,
            ..DriftConfig::default()
        };
        let mut driven = DriftMachine::new();
        for (op, r) in ops {
            match op {
                0 | 1 => {
                    let _ = driven.observe(&config, r);
                }
                2 => {
                    let _ = driven.begin_refit();
                }
                3 => driven.complete_refit(),
                _ => driven.abort_refit(),
            }
        }
        let mut fresh = DriftMachine::new();
        assert_roundtrip(&driven, &mut fresh)?;
        prop_assert_eq!(fresh.health(), driven.health());
        prop_assert_eq!(fresh.stats(), driven.stats());
    }

    /// Flaky source: polling any prefix of the schedule round-trips
    /// the whole supervised tower — cursor, staged readings, backoff,
    /// breaker, and counters — so a resumed source replays the
    /// remaining slots exactly as the uninterrupted one.
    #[test]
    fn flaky_source_roundtrip(
        (seed, polled) in (any::<u64>(), 0usize..14),
    ) {
        let build = || {
            let grid = TimeGrid::new(Timestamp::from_minutes(0), 5, 12).unwrap();
            let batches: Vec<Vec<Reading>> = (0..12)
                .map(|slot| {
                    vec![Reading {
                        channel: slot % 3,
                        at: Timestamp::from_minutes(slot as i64 * 5),
                        value: 20.0 + slot as f64,
                    }]
                })
                .collect();
            let replayer = TraceReplayer::new(
                grid,
                &batches,
                &ReplayConfig {
                    seed,
                    ..ReplayConfig::default()
                },
            )
            .unwrap();
            FlakySource::new(
                replayer,
                0.4,
                seed,
                BackoffPolicy::default(),
                BreakerPolicy {
                    threshold: 2,
                    cooldown_ticks: 3,
                },
            )
            .unwrap()
        };
        let mut driven = build();
        let upto = polled.min(driven.slots());
        for slot in 0..upto {
            let _ = driven.poll(slot);
        }
        let mut fresh = build();
        assert_roundtrip(&driven, &mut fresh)?;
        // The restored source must continue identically to the driven
        // one over the remaining schedule.
        for slot in upto..driven.slots() {
            prop_assert_eq!(fresh.poll(slot), driven.poll(slot));
        }
        prop_assert_eq!(fresh.stats(), driven.stats());
    }

    /// Soak intensity report: any field contents round-trip onto a
    /// default-constructed receiver.
    #[test]
    fn soak_intensity_report_roundtrip(
        (intensity, counters, health_rows, prediction_rows) in (
            any::<u32>(),
            prop::collection::vec(any::<u64>(), 4),
            prop::collection::vec((0usize..4, any::<u64>(), any::<u64>()), 0..5),
            prop::collection::vec((0usize..8, any::<bool>(), -5.0f64..45.0), 0..5),
        ),
    ) {
        let mut report = SoakIntensityReport {
            intensity_millis: intensity,
            corrupted_lines: counters[0],
            max_buffered_depth: usize::try_from(counters[1] % 4096).unwrap(),
            depth_bound: 4096,
            ..SoakIntensityReport::default()
        };
        report.ingest.parsed = counters[2];
        report.source.successes = counters[3];
        report.service.applied = counters[0] ^ counters[3];
        for (i, (state, transitions, implausible)) in health_rows.into_iter().enumerate() {
            report.health.push(SensorHealth {
                name: format!("s{i}"),
                state: [
                    HealthState::Live,
                    HealthState::Suspect,
                    HealthState::Dead,
                    HealthState::Recovered,
                ][state],
                transitions,
                implausible,
            });
        }
        for (cluster, available, value) in prediction_rows {
            report.predictions.push(SoakPrediction {
                cluster,
                action: if available { "healthy" } else { "unavailable" }.to_owned(),
                predicted: available.then_some(value),
            });
        }
        let mut fresh = SoakIntensityReport::default();
        assert_roundtrip(&report, &mut fresh)?;
        prop_assert_eq!(fresh.health.len(), report.health.len());
        prop_assert_eq!(fresh.predictions.len(), report.predictions.len());
    }
}

/// Four sensors in two clusters ({s0, s1, s2}, {s3}); reps s0 and s3;
/// identity-hold model (`T(k+1) = T(k)`). Same wiring as the
/// allocation-budget fixture, so the service exercises clusters,
/// backups, and the online loop.
fn service_fixture() -> StreamService {
    let names: Vec<String> = (0..4).map(|i| format!("s{i}")).collect();
    let clustering = Clustering::from_assignments(vec![0, 0, 0, 1], 2).unwrap();
    let selection = Selection::new(vec![vec![0], vec![3]])
        .unwrap()
        .with_backups(vec![vec![1], vec![]])
        .unwrap();
    let spec = ModelSpec::new(
        vec!["s0".to_owned(), "s3".to_owned()],
        vec!["u".to_owned()],
        ModelOrder::First,
    )
    .unwrap();
    let mut coef = Matrix::zeros(2, 3);
    coef.row_mut(0)[0] = 1.0;
    coef.row_mut(1)[1] = 1.0;
    let model = ThermalModel::new(spec, coef).unwrap();
    let reduced = ReducedModel::new(
        names,
        clustering,
        selection,
        vec!["s0".to_owned(), "s3".to_owned()],
        model,
    );
    StreamService::new(reduced, StreamConfig::default(), Timestamp::from_minutes(0)).unwrap()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// Whole serving state: driving the full service — clock, queue,
    /// reorder pipelines, health machines, drift detectors, the
    /// online identifier — through any telemetry pattern (dropouts
    /// and spikes included) and restoring its snapshot onto a fresh
    /// service reproduces the snapshot bytes exactly, and the two
    /// services serve identical predictions afterwards.
    #[test]
    fn stream_service_roundtrip(
        (slots, pattern) in (
            0usize..48,
            prop::collection::vec((any::<u32>(), 15.0f64..30.0), 8),
        ),
    ) {
        let root = std::env::temp_dir().join(format!(
            "thermal-stream-snapshot-props-{}-{slots}",
            std::process::id()
        ));
        let _ = std::fs::remove_dir_all(&root);
        let mut driven = service_fixture();
        driven.enable_online(OnlineConfig::new(root.clone())).unwrap();
        let mut arrivals: Vec<Reading> = Vec::new();
        for slot in 0..slots {
            let minute = slot as i64 * 5;
            let at = Timestamp::from_minutes(minute);
            let (mask, base) = pattern[slot % pattern.len()];
            arrivals.clear();
            for channel in 0..4_usize {
                // Drop a sensor's reading when its mask bit is unset;
                // every 11th surviving reading is an implausible spike.
                if mask & (1 << channel) != 0 {
                    let spike = (slot + channel).is_multiple_of(11);
                    arrivals.push(Reading {
                        channel,
                        at,
                        value: if spike { 90.0 } else { base + channel as f64 },
                    });
                }
            }
            arrivals.push(Reading {
                channel: 4,
                at,
                value: 0.5,
            });
            driven.step(at, &arrivals).unwrap();
        }
        let mut fresh = service_fixture();
        fresh.enable_online(OnlineConfig::new(root.clone())).unwrap();
        assert_roundtrip(&driven, &mut fresh)?;
        prop_assert_eq!(fresh.predict(), driven.predict());
        prop_assert_eq!(fresh.stats(), driven.stats());
        let _ = std::fs::remove_dir_all(&root);
    }
}
