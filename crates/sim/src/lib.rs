//! # mule-sim
//!
//! A deterministic discrete-event simulator for data-mule patrolling.
//!
//! The planners in `patrol-core` output a [`patrol_core::PatrolPlan`]; this
//! crate executes it against the scenario's field: mules move at constant
//! speed along their itineraries, collect the data buffered at each target
//! they reach, deliver it when they pass the sink, spend energy per metre
//! and per collection, recharge at the recharge station, and die if their
//! battery empties. Every visit is recorded as a [`VisitRecord`] so the
//! metrics crate can compute visiting intervals, DCDT and their standard
//! deviations exactly as the paper's evaluation does.
//!
//! * [`SimulationConfig`] — speed, energy model, dwell times, horizon.
//! * [`Simulation`] / [`SimulationOutcome`] — the engine and its results.
//! * [`montecarlo`] — [`run_sweep`], the one replication runner ("average
//!   of 20 simulations", §5.1): it executes declarative
//!   [`mule_workload::SweepSpec`] experiment grids on the `mule-par` worker
//!   pool and returns results in grid order, bit-identical to a
//!   single-worker run.
//!
//! ## The event timeline
//!
//! Since the `mule-events` refactor the engine runs on a
//! [`mule_events::SimClock`]: one binary-heap timeline of typed,
//! subject-targeted events with deterministic `(time, kind, subject,
//! insertion)` ordering. A static run places only waypoint arrivals on the
//! timeline; a dynamic run adds disruptions.
//!
//! ## Disruptions and replanning
//!
//! [`DynamicSimulation`] executes a
//! [`mule_workload::DisruptionPlan`] — seeded target failures/recoveries,
//! late target arrivals, mule breakdowns and speed windows — against a
//! plan, optionally consulting a [`patrol_core::Replanner`] after every
//! world-changing disruption. Failed targets are skipped (their data is
//! lost, not buffered); recovering and late-arriving targets restart their
//! buffers at the event time; broken mules stop where their last committed
//! leg ends; surviving mules adopt each fresh plan at their next waypoint.
//! The [`DynamicOutcome`] records the applied-event timeline and the phase
//! boundaries that `mule_metrics`' per-phase delay report consumes.

#![deny(missing_docs)]
#![warn(clippy::all)]

pub mod config;
pub mod dynamics;
pub mod engine;
pub mod montecarlo;
pub mod mule;
pub mod outcome;
pub mod trace;

pub use config::SimulationConfig;
pub use dynamics::{DynamicOutcome, DynamicSimulation, TimelineEntry};
pub use engine::Simulation;
pub use montecarlo::{run_sweep, SweepCellError, SweepCellOutcome};
pub use mule::{MuleReport, MuleStatus};
pub use outcome::{SimulationOutcome, VisitRecord};
pub use trace::{mules_to_csv, visits_to_csv, write_csv_files};
