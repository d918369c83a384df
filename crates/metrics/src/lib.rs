//! # mule-metrics
//!
//! Evaluation metrics matching the paper's §V:
//!
//! * [`IntervalReport`] — visiting intervals per target, their maximum and
//!   their standard deviation (the SD of Figures 8 and 10).
//! * [`DcdtSeries`] — Data Collection Delay Time per visit index (the
//!   series of Figure 7) and its averages (Figure 9).
//! * [`EnergyEfficiencyReport`] — joules per delivered byte, useful-energy
//!   fraction and fleet survival, for the energy discussion of §IV/§V.
//! * [`FairnessReport`] — Jain's fairness index over target coverage and
//!   per-mule workload balance.
//! * [`SummaryStatistics`] — min / max / mean / standard deviation of any
//!   sample, shared by all the reports.
//! * [`table`] — plain-text table rendering for the figure-regeneration
//!   binaries.
//! * [`PhaseDelayReport`] — data-collection delay partitioned at the phase
//!   boundaries a dynamic run's disruptions induce (the `patrolctl
//!   dynamics` summary).
//! * [`SweepReport`] — per-cell mean / stddev / 95 % CI aggregation of a
//!   parallel [`mule_workload::SweepSpec`] run (the `patrolctl sweep`
//!   table and CSV).
//! * [`LatencyHistogram`] — log-bucketed latency histogram with
//!   bounded-error quantiles, backing the `mule-serve` `/metrics`
//!   endpoint.

#![deny(missing_docs)]
#![warn(clippy::all)]

pub mod dcdt;
pub mod energy_eff;
pub mod fairness;
pub mod intervals;
pub mod latency;
pub mod phases;
pub mod summary;
pub mod sweep_report;
pub mod table;

pub use dcdt::DcdtSeries;
pub use energy_eff::EnergyEfficiencyReport;
pub use fairness::{jain_index, FairnessReport};
pub use intervals::IntervalReport;
pub use latency::LatencyHistogram;
pub use phases::{PhaseDelay, PhaseDelayReport};
pub use summary::SummaryStatistics;
pub use sweep_report::{SweepCellSummary, SweepReport};
pub use table::TextTable;
