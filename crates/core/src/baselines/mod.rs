//! Baseline planners the paper compares against (§V).
//!
//! * [`RandomPlanner`] — "randomly selects the non-visited target as its
//!   next destination": each round is a fresh random permutation of the
//!   patrolled nodes.
//! * [`SweepPlanner`] — reference \[4\]: "divides the DMs into several groups
//!   and then each DM individually patrols the targets of one group".
//! * [`ChbPlanner`] — reference \[5\]: "constructs an efficient Hamiltonian
//!   Circuit and then all DMs visit each target along the constructed
//!   Hamiltonian Circuit", with no start-point spreading, no weights and no
//!   recharge handling.

pub mod chb;
pub mod random;
pub mod sweep;

pub use chb::ChbPlanner;
pub use random::RandomPlanner;
pub use sweep::SweepPlanner;
