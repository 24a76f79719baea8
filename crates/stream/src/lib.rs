//! Online streaming ingest and live prediction over the reduced
//! thermal model.
//!
//! The batch pipeline (`thermal-core`) answers "how good is the
//! reduced model on a recorded trace?". This crate answers the
//! deployment question: what does the auditorium's HVAC see *right
//! now* when the reduced deployment is fed live, out-of-order, flaky,
//! partially-dead telemetry? It is a deterministic event-loop runtime
//! — simulated clock only, no wall time — built from bounded,
//! counted, panic-free stages:
//!
//! * [`BoundedQueue`] — the single backpressure boundary; overflow is
//!   a counted [`OverflowPolicy`] decision, never unbounded memory,
//! * [`ReorderBuffer`] — per-channel watermarks that re-order late
//!   and duplicated wireless packets, with a bounded buffer,
//! * [`HealthMachine`] — the Live → Suspect → Dead → Recovered
//!   supervision machine with hysteresis, driven by heartbeat
//!   watchdogs and the batch layer's plausibility rules,
//! * [`Backoff`] + [`thermal_ckpt::CircuitBreaker`] — deterministic
//!   retry supervision for flaky sources ([`FlakySource`]),
//! * [`TraceReplayer`] / [`parse_csv_events`] — adversarial replay of
//!   recorded traces as live event streams, including row-tolerant
//!   parsing of fault-injected CSV,
//! * [`StreamService`] — the event loop itself, serving
//!   [`LivePrediction`]s that degrade along the substitution ladder
//!   (representative → ranked backup → cluster mean → structured
//!   blackout) instead of erroring,
//! * [`PageHinkley`] + [`DriftMachine`] — per-cluster drift detection
//!   over one-step residuals, escalating through the typed
//!   `Stable → Drifting → Refitting → Recovered` model-health
//!   lifecycle,
//! * [`OnlineIdentifier`] — the continuous-identification sidecar:
//!   forgetting-factor RLS refinement from every accepted reading,
//!   plus checkpoint-supervised refits that swap the served
//!   coefficients under confirmed drift
//!   ([`StreamService::enable_online`]),
//! * [`SoakReport`] — canonical byte-stable JSON for the
//!   `cargo xtask soak stream` determinism harness,
//! * [`RecoveryReport`] — the same canonical-JSON contract for the
//!   drift-recovery scenario (`cargo xtask soak recovery`), which
//!   asserts the online loop heals a mid-trace regime shift within a
//!   bounded number of slots.
//!
//! Everything is seeded: replay jumble, source flakiness, backoff
//! jitter. The same seed replays the same outage bit for bit, which
//! is what lets the soak harness assert bitwise-identical final
//! state across runs and thread counts.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod backoff;
mod drift;
mod error;
mod event;
mod health;
mod online;
mod queue;
mod recovery;
mod reorder;
mod replay;
mod service;
mod soak;

pub use backoff::{Backoff, BackoffPolicy};
pub use drift::{DriftConfig, DriftMachine, DriftStats, PageHinkley};
pub use error::StreamError;
pub use event::{Reading, SimClock};
pub use health::{HealthConfig, HealthMachine, HealthState};
pub use online::{OnlineConfig, OnlineIdentifier, OnlineStats};
pub use queue::{BoundedQueue, OverflowPolicy, PushOutcome, QueueStats};
pub use recovery::{RecoveryClusterReport, RecoveryReport};
pub use reorder::{ReorderBuffer, ReorderConfig, ReorderStats};
pub use replay::{
    parse_csv_events, FlakySource, IngestStats, ReplayConfig, SourceStats, TraceReplayer,
};
pub use service::{
    ClusterPrediction, LivePrediction, SensorHealth, ServiceStats, StreamConfig, StreamService,
};
pub use soak::{SoakIntensityReport, SoakPrediction, SoakReport};

/// Convenient crate-wide result alias.
pub type Result<T> = std::result::Result<T, StreamError>;
