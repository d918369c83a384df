//! # mule-energy
//!
//! The data-mule energy substrate used by RW-TCTP and by the simulator's
//! energy accounting.
//!
//! * [`EnergyModel`] — the paper's consumption constants: 8.267 J per metre
//!   of movement and 0.075 J per target data collection (§5.1).
//! * [`Battery`] — a finite energy store with draw / recharge operations and
//!   depletion detection.
//! * [`PatrolRounds`] — Eq. 4 of the paper: how many complete traversals of
//!   the recharge path a mule can afford per battery charge, which drives
//!   the RW-TCTP schedule (patrol the WPP for `r − 1` rounds, then the WRP).
//! * [`ConsumptionLedger`] — per-cause energy bookkeeping (movement,
//!   collection, idle) used for the energy-efficiency reporting.

#![deny(missing_docs)]
#![warn(clippy::all)]

pub mod battery;
pub mod consumption;
pub mod model;
pub mod rounds;

pub use battery::Battery;
pub use consumption::{ConsumptionLedger, EnergyCause};
pub use model::EnergyModel;
pub use rounds::PatrolRounds;
