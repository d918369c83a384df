//! # mule-viz
//!
//! Dependency-free visualisation of scenarios and patrol plans:
//!
//! * [`AsciiCanvas`] / [`render_scenario`] / [`render_plan`] — terminal
//!   rendering of the monitoring field, its nodes and the patrolling routes,
//!   used by the examples and the `patrolctl` CLI.
//! * [`svg`] — standalone SVG export of a scenario plus plan, for inspecting
//!   weighted patrolling paths and recharge detours in a browser.

#![deny(missing_docs)]
#![warn(clippy::all)]

pub mod ascii;
pub mod svg;

pub use ascii::{render_plan, render_scenario, AsciiCanvas};
pub use svg::{plan_to_svg, SvgStyle};
