//! Property-based test of the bulkhead's [`Snapshot`] impl (see
//! DESIGN.md § restore-equivalence): killing a shard's serve loop
//! after *any* prefix of slots, restoring its snapshot onto a freshly
//! built shard, and re-capturing must be byte-identical — and the
//! restored shard must serve the remaining slots exactly as the
//! uninterrupted one. This is the per-building unit of the
//! `cargo xtask chaos fleet` restore-equivalence contract.

// Test fixtures: panicking on a broken fixture is the right failure mode.
#![allow(clippy::unwrap_used, clippy::expect_used)]

use proptest::prelude::*;
use thermal_ckpt::snapshot::{restore_from, snapshot_bytes};
use thermal_ckpt::BreakerPolicy;
use thermal_cluster::Clustering;
use thermal_core::ReducedModel;
use thermal_fleet::{BuildingShard, ShardPolicy};
use thermal_linalg::Matrix;
use thermal_select::Selection;
use thermal_stream::{
    BackoffPolicy, FlakySource, Reading, ReplayConfig, StreamConfig, StreamService, TraceReplayer,
};
use thermal_sysid::{ModelOrder, ModelSpec, ThermalModel};
use thermal_timeseries::{TimeGrid, Timestamp};

/// Slots of telemetry the fixture trace carries.
const TRACE_SLOTS: usize = 48;

/// Builds one deterministic bulkhead: the identity-hold two-cluster
/// model over four sensors, fed by a flaky replay of a synthetic
/// trace. Building the same fixture twice yields byte-identical
/// shards, which is what lets the roundtrip compare snapshot bytes.
fn shard_fixture(seed: u64, fail_prob: f64) -> BuildingShard {
    shard_fixture_for(9, seed, fail_prob)
}

fn shard_fixture_for(building: u32, seed: u64, fail_prob: f64) -> BuildingShard {
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
    let service =
        StreamService::new(reduced, StreamConfig::default(), Timestamp::from_minutes(0)).unwrap();

    let grid = TimeGrid::new(Timestamp::from_minutes(0), 5, TRACE_SLOTS).unwrap();
    let batches: Vec<Vec<Reading>> = (0..TRACE_SLOTS)
        .map(|slot| {
            let at = Timestamp::from_minutes(slot as i64 * 5);
            let mut batch: Vec<Reading> = (0..4)
                .map(|channel| Reading {
                    channel,
                    at,
                    value: 20.0 + channel as f64 + (slot % 7) as f64 * 0.1,
                })
                .collect();
            batch.push(Reading {
                channel: 4,
                at,
                value: 0.5,
            });
            batch
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
    let source = FlakySource::new(
        replayer,
        fail_prob,
        seed ^ 0x5eed,
        BackoffPolicy::default(),
        BreakerPolicy::default(),
    )
    .unwrap();

    let policy = ShardPolicy {
        warmup_slots: 4,
        degraded_after: 2,
        recover_after: 3,
        error_budget: 6,
        probe_ok: 2,
        max_depth: 1024,
        breaker: BreakerPolicy::default(),
    };
    BuildingShard::new(building, service, source, policy).unwrap()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// Crash the serve loop after any prefix, restore, and the
    /// snapshot bytes, the served predictions, and the lifetime
    /// counters all match the uninterrupted shard.
    #[test]
    fn shard_roundtrip_is_byte_identical(
        (seed, fail_prob, prefix) in (any::<u64>(), 0.0f64..0.8, 0usize..60),
    ) {
        let mut driven = shard_fixture(seed, fail_prob);
        let slots = driven.slots();
        let cut = prefix.min(slots);
        for slot in 0..cut {
            driven.step_slot(slot).unwrap();
        }
        let bytes = snapshot_bytes(&driven);
        let mut fresh = shard_fixture(seed, fail_prob);
        restore_from(&mut fresh, &bytes)
            .map_err(|e| TestCaseError::fail(format!("restore failed: {e}")))?;
        prop_assert_eq!(&bytes, &snapshot_bytes(&fresh));

        // The restored shard must finish the trace exactly as the
        // uninterrupted one — phase, counters, and final prediction.
        driven.serve_from(cut).unwrap();
        fresh.serve_from(cut).unwrap();
        prop_assert_eq!(fresh.phase(), driven.phase());
        prop_assert_eq!(fresh.counters(), driven.counters());
        prop_assert_eq!(fresh.transitions(), driven.transitions());
        prop_assert_eq!(fresh.serve(), driven.serve());
        prop_assert_eq!(
            snapshot_bytes(&fresh),
            snapshot_bytes(&driven)
        );
    }

    /// A snapshot from one building must never restore into another
    /// building's shard — the id check is the guard against crossed
    /// snapshot namespaces in a fleet store.
    #[test]
    fn shard_restore_rejects_wrong_building(seed in any::<u64>()) {
        let driven = shard_fixture_for(4, seed, 0.1);
        let bytes = snapshot_bytes(&driven);
        let mut other = shard_fixture_for(9, seed, 0.1);
        prop_assert!(restore_from(&mut other, &bytes).is_err());
    }
}
