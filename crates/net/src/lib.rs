//! # mule-net
//!
//! The wireless-field substrate: everything that exists in the monitoring
//! region besides the mules' routes.
//!
//! * [`node`] — targets, the sink and the recharge station, with per-target
//!   weights (NTP vs VIP, paper Definition 1).
//! * [`field`] — the assembled monitoring field: node list, ranges and the
//!   paper's radio constants (sensing range 10 m, communication range 20 m),
//!   with lookup helpers the planners use.
//! * [`buffer`] — the data buffer at each target (sensing data accumulates
//!   until a mule collects it) and the mule-side payload store.
//! * [`connectivity`] — union-find over the communication graph, used to
//!   verify that generated scenarios really consist of *disconnected* target
//!   areas (the situation that motivates data mules in the first place).

#![deny(missing_docs)]
#![warn(clippy::all)]

pub mod buffer;
pub mod connectivity;
pub mod field;
pub mod node;

pub use buffer::{DataBuffer, MulePayload};
pub use connectivity::{connected_components, connected_components_by, is_disconnected, UnionFind};
pub use field::{Field, FieldBuilder, RadioParameters};
pub use node::{Node, NodeId, NodeKind, Weight};
