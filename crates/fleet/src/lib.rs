//! # thermal-fleet
//!
//! Fleet-scale multi-building serving with per-building bulkhead
//! fault isolation.
//!
//! The paper identifies and serves one auditorium; this crate serves
//! a *fleet* of seed-deterministically minted buildings from one
//! process, with the robustness property that scale actually needs:
//! a poisoned trace, stuck refit or drift storm in building #372 can
//! never degrade, delay or perturb the predictions served for the
//! other N−1.
//!
//! The layers, bottom up:
//!
//! * [`spec`] — [`BuildingSpec::generate`] mints building `i` of a
//!   fleet as a pure function of `(fleet_seed, i)`: parametric room
//!   geometry and sensor grid, VAV authority split, HVAC schedule,
//!   occupancy capacity. Deterministic and collision-free, so any
//!   component can re-derive any building from two integers.
//! * [`admission`] — plan-time, deterministic admission control over
//!   the shared resources (worker pool, memory budget, sysid cache
//!   arena): overload sheds whole buildings, counted per building,
//!   *before* anything runs — runtime health never feeds back into
//!   admission, so admission is identical between clean and faulted
//!   runs.
//! * [`shard`] — the bulkhead. One [`BuildingShard`] per building
//!   owns its bounded queues, reorder buffers, health machines,
//!   deadline watchdog and error budget, and escalates
//!   Healthy→Degraded→Quarantined→Restored; a quarantined building
//!   serves structured blackouts while a `thermal-ckpt` circuit
//!   breaker paces its recovery probes.
//! * [`orchestrator`] — [`run_fleet`] wires it together:
//!   cluster→select→identify per building (optionally through the
//!   checkpointed runner), then concurrent serving via
//!   order-preserving `thermal-par` maps. Each building's report
//!   depends only on its own inputs — the **blast-radius
//!   guarantee** asserted byte-for-byte by `cargo xtask soak
//!   fleet`.
//! * [`report`] — canonical byte-stable JSON: per-building reports
//!   (building-local only), the fleet summary, and the quarantine
//!   event log.

pub mod admission;
pub mod error;
pub mod orchestrator;
pub mod report;
pub mod shard;
pub mod spec;

pub use admission::{AdmissionPlan, AdmissionPolicy, ShedReason, ShedRecord};
pub use error::FleetError;
pub use orchestrator::{run_fleet, FleetConfig, FleetOutcome};
pub use report::{
    BuildingDigest, BuildingReport, FitStatus, FleetReport, QuarantineEvent, QuarantineLog,
    ServeOutcome, ServedPrediction, ShedDigest,
};
pub use shard::{BuildingShard, PhaseTransition, ShardCounters, ShardPhase, ShardPolicy};
pub use spec::BuildingSpec;
