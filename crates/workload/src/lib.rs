//! # mule-workload
//!
//! Scenario generation for the patrolling experiments.
//!
//! The paper evaluates on randomly placed targets in an 800 m × 800 m field
//! (averaging 20 random topologies per data point), with optional VIP
//! weights and a recharge station. This crate turns those prose parameters
//! into reproducible, seeded [`Scenario`] values:
//!
//! * [`ScenarioConfig`] — the knobs (field size, target/mule counts, layout,
//!   weights, seed) with [`ScenarioConfig::paper_default`] matching §5.1.
//! * [`layout`] — uniform and disconnected-cluster target placements.
//! * [`weights`] — VIP weight assignment strategies.
//! * [`Scenario`] — the generated instance: a [`mule_net::Field`] plus mule
//!   start positions.
//! * [`replication`] — seed fans for "average of 20 simulations" sweeps.
//! * [`disruption`] — seeded mid-run disruption plans (target failures and
//!   recoveries, late target arrivals, mule breakdowns, speed windows) that
//!   the simulator compiles onto its event timeline.
//! * [`sweep`] — declarative experiment grids ([`SweepSpec`]) over seeds ×
//!   mule counts × speeds × disruption configs, executed in parallel by
//!   `mule-sim` and driven by `patrolctl sweep`.
//! * [`spec`] — the planning-service request type ([`ScenarioSpec`]):
//!   scenario knobs + planner as pure data, with canonical-form hashing
//!   for the `mule-serve` plan cache.

#![deny(missing_docs)]
#![warn(clippy::all)]

pub mod config;
pub mod disruption;
pub mod layout;
pub mod replication;
pub mod scenario;
pub mod spec;
pub mod sweep;
pub mod weights;

pub use config::{LayoutKind, MetricSpec, MuleStartKind, ScenarioConfig, WeightSpec};
pub use disruption::{Disruption, DisruptionConfig, DisruptionPlan};
pub use replication::seed_fan;
pub use scenario::Scenario;
pub use spec::ScenarioSpec;
pub use sweep::{SweepCell, SweepSpec, PAPER_SPEED_M_PER_S};
