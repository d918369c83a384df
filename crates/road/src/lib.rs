//! # mule-road
//!
//! A deterministic road-network travel metric for the data-mule patrolling
//! stack. Every planner and simulation in the workspace historically
//! measured travel as straight-line Euclidean distance; real mule patrols
//! move on constrained networks. This crate supplies the missing layer:
//!
//! * [`RoadGraph`] — a compact CSR adjacency graph over
//!   [`mule_geom::Point`] nodes with per-edge [`SpeedClass`]es (edge cost =
//!   geometric length × class cost factor, so every edge cost is at least
//!   its straight-line length — the invariant that keeps the Euclidean A*
//!   heuristic admissible).
//! * [`generate`] — seeded generators: a jittered grid with random edge
//!   deletions and a random planar network (k-nearest-neighbour candidate
//!   edges with a crossing filter). Both restrict to the largest connected
//!   component and report what was dropped ([`ComponentReport`]).
//! * [`route`] — Dijkstra and A* shortest paths with deterministic
//!   tie-breaking (`(cost, node)` heap order).
//! * [`Landmarks`] — ALT preprocessing: farthest-point landmark selection
//!   and triangle-inequality lower bounds, so thousand-target
//!   point-to-point queries explore a corridor instead of the whole graph.
//! * [`RoadIndex`] — the queryable bundle (graph + landmarks + a kd-tree
//!   for snapping arbitrary field points to their nearest road node).
//! * [`TravelMetric`] — the pluggable metric the rest of the stack
//!   consumes: `Euclidean` (the default, byte-identical to the historical
//!   behaviour) or `Road` (an [`RoadIndex`] behind an `Arc`).
//!
//! Everything here is a pure deterministic function of its seeds: equal
//! seeds produce equal graphs, routes and distances on every platform (the
//! RNG is the workspace's vendored SplitMix64 shim). See `docs/ROADS.md`
//! for the full contract.

#![deny(missing_docs)]
#![warn(clippy::all)]

pub mod generate;
pub mod graph;
pub mod index;
pub mod landmarks;
pub mod metric;
pub mod route;

pub use generate::{grid_with_deletions, random_planar, ComponentReport, RoadNet, RoadNetKind};
pub use graph::{RoadGraph, RoadGraphBuilder, SpeedClass};
pub use index::RoadIndex;
pub use landmarks::Landmarks;
pub use metric::TravelMetric;
pub use route::{astar, astar_alt, dijkstra, dijkstra_counted, dijkstra_to, frontier_key, Route};
