//! Nodes of the monitoring field: targets, the sink and the recharge
//! station.
//!
//! The paper (Definition 1) distinguishes Normal Target Points (weight 1)
//! from Very Important Points (weight ≥ 2). The sink is "also treated as a
//! target point, which should be visited by DMs" (§2.1), and RW-TCTP treats
//! the recharge station "as an NTP" spliced into the path (§IV).

use mule_geom::Point;

/// Stable identifier of a node within a [`crate::Field`]. This is the index
/// into the field's node list, so it doubles as the tour index used by
//  the planners.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct NodeId(pub usize);

impl NodeId {
    /// The raw index value.
    #[inline]
    pub fn index(&self) -> usize {
        self.0
    }
}

impl std::fmt::Display for NodeId {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "g{}", self.0)
    }
}

/// Integer visiting weight of a target (paper Definition 1): weight 1 is a
/// Normal Target Point, weight ≥ 2 is a Very Important Point that must be
/// visited that many times per complete traversal of the patrolling path.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct Weight(u32);

impl Weight {
    /// The NTP weight.
    pub const NORMAL: Weight = Weight(1);

    /// Creates a weight; values below 1 are clamped to 1 (a target that is
    /// never visited is outside the problem definition).
    pub fn new(w: u32) -> Self {
        Weight(w.max(1))
    }

    /// The numeric weight value.
    #[inline]
    pub fn value(&self) -> u32 {
        self.0
    }

    /// Returns `true` for VIP weights (≥ 2).
    #[inline]
    pub fn is_vip(&self) -> bool {
        self.0 >= 2
    }
}

impl Default for Weight {
    fn default() -> Self {
        Weight::NORMAL
    }
}

impl From<u32> for Weight {
    fn from(w: u32) -> Self {
        Weight::new(w)
    }
}

/// What role a node plays in the field.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum NodeKind {
    /// A sensing target whose buffered data must be collected periodically.
    Target,
    /// The sink the collected data is ferried back to. The paper treats the
    /// sink as a target, so it participates in every patrolling path.
    Sink,
    /// The energy recharge station used by RW-TCTP. It is *not* part of the
    /// ordinary patrolling path (WPP); only the recharge path (WRP) visits
    /// it.
    RechargeStation,
}

impl NodeKind {
    /// Whether this node must appear in the ordinary weighted patrolling
    /// path. Targets and the sink do; the recharge station does not.
    #[inline]
    pub fn is_patrolled(&self) -> bool {
        matches!(self, NodeKind::Target | NodeKind::Sink)
    }
}

/// A node of the monitoring field.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Node {
    /// Stable identifier (index into the field's node list).
    pub id: NodeId,
    /// Location in the field, metres.
    pub position: Point,
    /// Role of the node.
    pub kind: NodeKind,
    /// Visiting weight; only meaningful for patrolled nodes.
    pub weight: Weight,
    /// Whether the node currently participates in the network. Dynamic
    /// scenarios deactivate failed or not-yet-arrived targets instead of
    /// removing them, so [`NodeId`]s (which are list indices) stay stable
    /// across replans.
    pub active: bool,
}

impl Node {
    /// Creates a target node.
    pub fn target(id: usize, position: Point, weight: Weight) -> Self {
        Node {
            id: NodeId(id),
            position,
            kind: NodeKind::Target,
            weight,
            active: true,
        }
    }

    /// Creates the sink node (always weight 1, matching the paper's
    /// treatment of the sink as an ordinary target).
    pub fn sink(id: usize, position: Point) -> Self {
        Node {
            id: NodeId(id),
            position,
            kind: NodeKind::Sink,
            weight: Weight::NORMAL,
            active: true,
        }
    }

    /// Creates the recharge station node.
    pub fn recharge_station(id: usize, position: Point) -> Self {
        Node {
            id: NodeId(id),
            position,
            kind: NodeKind::RechargeStation,
            weight: Weight::NORMAL,
            active: true,
        }
    }

    /// Returns `true` when this node is a VIP target.
    #[inline]
    pub fn is_vip(&self) -> bool {
        self.kind == NodeKind::Target && self.weight.is_vip()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn weight_clamps_zero_to_one() {
        assert_eq!(Weight::new(0).value(), 1);
        assert_eq!(Weight::new(1).value(), 1);
        assert_eq!(Weight::new(5).value(), 5);
        assert_eq!(Weight::default(), Weight::NORMAL);
        let w: Weight = 3u32.into();
        assert_eq!(w.value(), 3);
    }

    #[test]
    fn vip_detection_follows_definition_one() {
        assert!(!Weight::new(1).is_vip());
        assert!(Weight::new(2).is_vip());
        assert!(Weight::new(7).is_vip());
    }

    #[test]
    fn node_constructors_set_expected_kinds() {
        let t = Node::target(0, Point::new(1.0, 2.0), Weight::new(3));
        let s = Node::sink(1, Point::ORIGIN);
        let r = Node::recharge_station(2, Point::new(5.0, 5.0));
        assert_eq!(t.kind, NodeKind::Target);
        assert_eq!(s.kind, NodeKind::Sink);
        assert_eq!(r.kind, NodeKind::RechargeStation);
        assert!(t.is_vip());
        assert!(!s.is_vip());
        assert!(!r.is_vip());
        assert_eq!(s.weight, Weight::NORMAL);
    }

    #[test]
    fn patrolled_kinds_exclude_the_recharge_station() {
        assert!(NodeKind::Target.is_patrolled());
        assert!(NodeKind::Sink.is_patrolled());
        assert!(!NodeKind::RechargeStation.is_patrolled());
    }

    #[test]
    fn node_id_displays_with_paper_notation() {
        assert_eq!(NodeId(4).to_string(), "g4");
        assert_eq!(NodeId(4).index(), 4);
        assert!(NodeId(1) < NodeId(2));
    }
}
