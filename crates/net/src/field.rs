//! The assembled monitoring field.
//!
//! A [`Field`] bundles the node list (targets, sink, optional recharge
//! station), the radio parameters and the field extents, and offers the
//! lookups the planners and the simulator need: "all patrolled positions",
//! "the weight of target k", "the recharge station, if any".

use crate::node::{Node, NodeId, NodeKind, Weight};
use mule_geom::{BoundingBox, Point};

/// Radio-range constants of the data mules.
///
/// Defaults follow the paper's simulation model (§5.1): sensing range 10 m,
/// communication range 20 m.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RadioParameters {
    /// Sensing range of a mule in metres.
    pub sensing_range_m: f64,
    /// Communication range of a mule in metres.
    pub communication_range_m: f64,
}

impl Default for RadioParameters {
    fn default() -> Self {
        RadioParameters {
            sensing_range_m: 10.0,
            communication_range_m: 20.0,
        }
    }
}

/// The monitoring field: nodes plus global parameters.
#[derive(Debug, Clone, PartialEq)]
pub struct Field {
    nodes: Vec<Node>,
    bounds: BoundingBox,
    radio: RadioParameters,
}

impl Field {
    /// Starts building a field over the given bounding box.
    pub fn builder(bounds: BoundingBox) -> FieldBuilder {
        FieldBuilder {
            nodes: Vec::new(),
            bounds,
            radio: RadioParameters::default(),
        }
    }

    /// All nodes, in id order.
    #[inline]
    pub fn nodes(&self) -> &[Node] {
        &self.nodes
    }

    /// Number of nodes of every kind.
    #[inline]
    pub fn len(&self) -> usize {
        self.nodes.len()
    }

    /// Returns `true` when the field has no nodes.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.nodes.is_empty()
    }

    /// The field extents.
    #[inline]
    pub fn bounds(&self) -> BoundingBox {
        self.bounds
    }

    /// The radio parameters.
    #[inline]
    pub fn radio(&self) -> RadioParameters {
        self.radio
    }

    /// Node lookup by id.
    pub fn node(&self, id: NodeId) -> Option<&Node> {
        self.nodes.get(id.index())
    }

    /// Toggles a node's activity (dynamic scenarios deactivate failed or
    /// not-yet-arrived targets rather than removing them, so ids stay
    /// stable). Returns `false` when the id is unknown.
    pub fn set_active(&mut self, id: NodeId, active: bool) -> bool {
        match self.nodes.get_mut(id.index()) {
            Some(node) => {
                node.active = active;
                true
            }
            None => false,
        }
    }

    /// *Active* nodes that participate in the ordinary patrolling path
    /// (targets and the sink), in id order. Deactivated targets are
    /// excluded, which is how replanning sees only the surviving world.
    pub fn patrolled_nodes(&self) -> Vec<&Node> {
        self.nodes
            .iter()
            .filter(|n| n.active && n.kind.is_patrolled())
            .collect()
    }

    /// Positions of the patrolled nodes, in id order — the point set handed
    /// to the Hamiltonian-circuit construction.
    pub fn patrolled_positions(&self) -> Vec<Point> {
        self.patrolled_nodes().iter().map(|n| n.position).collect()
    }

    /// Ids of the patrolled nodes, aligned with
    /// [`Field::patrolled_positions`].
    pub fn patrolled_ids(&self) -> Vec<NodeId> {
        self.patrolled_nodes().iter().map(|n| n.id).collect()
    }

    /// The sink node, if one was added.
    pub fn sink(&self) -> Option<&Node> {
        self.nodes.iter().find(|n| n.kind == NodeKind::Sink)
    }

    /// The recharge station, if one was added.
    pub fn recharge_station(&self) -> Option<&Node> {
        self.nodes
            .iter()
            .find(|n| n.kind == NodeKind::RechargeStation)
    }

    /// All VIP targets (weight ≥ 2).
    pub fn vips(&self) -> Vec<&Node> {
        self.nodes.iter().filter(|n| n.is_vip()).collect()
    }

    /// Number of targets (excluding sink and recharge station), active or
    /// not.
    pub fn target_count(&self) -> usize {
        self.nodes
            .iter()
            .filter(|n| n.kind == NodeKind::Target)
            .count()
    }

    /// Ids of all target nodes (active or not), in id order.
    pub fn target_ids(&self) -> Vec<NodeId> {
        self.nodes
            .iter()
            .filter(|n| n.kind == NodeKind::Target)
            .map(|n| n.id)
            .collect()
    }
}

/// Incremental builder for a [`Field`].
#[derive(Debug, Clone)]
pub struct FieldBuilder {
    nodes: Vec<Node>,
    bounds: BoundingBox,
    radio: RadioParameters,
}

impl FieldBuilder {
    /// Overrides the radio parameters (defaults follow the paper).
    pub fn radio(mut self, radio: RadioParameters) -> Self {
        self.radio = radio;
        self
    }

    /// Adds a target with the given weight; returns its id.
    pub fn add_target(&mut self, position: Point, weight: Weight) -> NodeId {
        let id = self.nodes.len();
        self.nodes.push(Node::target(id, position, weight));
        NodeId(id)
    }

    /// Adds the sink; returns its id.
    pub fn add_sink(&mut self, position: Point) -> NodeId {
        let id = self.nodes.len();
        self.nodes.push(Node::sink(id, position));
        NodeId(id)
    }

    /// Adds the recharge station; returns its id.
    pub fn add_recharge_station(&mut self, position: Point) -> NodeId {
        let id = self.nodes.len();
        self.nodes.push(Node::recharge_station(id, position));
        NodeId(id)
    }

    /// Finalises the field.
    pub fn build(self) -> Field {
        Field {
            nodes: self.nodes,
            bounds: self.bounds,
            radio: self.radio,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_field() -> Field {
        let mut b = Field::builder(BoundingBox::square(800.0));
        b.add_sink(Point::new(400.0, 400.0));
        b.add_target(Point::new(100.0, 100.0), Weight::new(1));
        b.add_target(Point::new(700.0, 100.0), Weight::new(3));
        b.add_target(Point::new(100.0, 700.0), Weight::new(1));
        b.add_recharge_station(Point::new(400.0, 10.0));
        b.build()
    }

    #[test]
    fn builder_assigns_sequential_ids() {
        let f = sample_field();
        assert_eq!(f.len(), 5);
        for (i, n) in f.nodes().iter().enumerate() {
            assert_eq!(n.id.index(), i);
        }
        assert_eq!(f.node(NodeId(2)).unwrap().weight.value(), 3);
        assert!(f.node(NodeId(99)).is_none());
    }

    #[test]
    fn patrolled_nodes_exclude_the_recharge_station() {
        let f = sample_field();
        assert_eq!(f.patrolled_nodes().len(), 4);
        assert_eq!(f.patrolled_positions().len(), 4);
        assert_eq!(f.patrolled_ids().len(), 4);
        assert!(f
            .patrolled_nodes()
            .iter()
            .all(|n| n.kind != NodeKind::RechargeStation));
    }

    #[test]
    fn sink_recharge_and_vip_lookups() {
        let f = sample_field();
        assert_eq!(f.sink().unwrap().id, NodeId(0));
        assert_eq!(f.recharge_station().unwrap().id, NodeId(4));
        let vips = f.vips();
        assert_eq!(vips.len(), 1);
        assert_eq!(vips[0].id, NodeId(2));
        assert_eq!(f.target_count(), 3);
    }

    #[test]
    fn default_radio_matches_paper_parameters() {
        let f = sample_field();
        assert_eq!(f.radio().sensing_range_m, 10.0);
        assert_eq!(f.radio().communication_range_m, 20.0);
        assert_eq!(f.bounds(), BoundingBox::square(800.0));
    }

    #[test]
    fn radio_override_is_respected() {
        let custom = RadioParameters {
            sensing_range_m: 5.0,
            communication_range_m: 50.0,
        };
        let f = Field::builder(BoundingBox::square(100.0))
            .radio(custom)
            .build();
        assert!(f.is_empty());
        assert_eq!(f.radio(), custom);
        assert!(f.sink().is_none());
        assert!(f.recharge_station().is_none());
        assert!(f.vips().is_empty());
    }

    #[test]
    fn deactivated_targets_leave_the_patrolled_set_but_keep_their_ids() {
        let mut f = sample_field();
        assert_eq!(
            f.patrolled_ids(),
            vec![NodeId(0), NodeId(1), NodeId(2), NodeId(3)]
        );
        assert!(f.set_active(NodeId(2), false));
        assert_eq!(f.patrolled_ids(), vec![NodeId(0), NodeId(1), NodeId(3)]);
        assert_eq!(f.patrolled_positions().len(), 3);
        // The node itself is still addressable under its original id.
        assert_eq!(f.node(NodeId(2)).unwrap().id, NodeId(2));
        assert!(!f.node(NodeId(2)).unwrap().active);
        // Raw target census is unaffected by activity.
        assert_eq!(f.target_count(), 3);
        assert_eq!(f.target_ids(), vec![NodeId(1), NodeId(2), NodeId(3)]);
        // Reactivation restores the patrolled set.
        assert!(f.set_active(NodeId(2), true));
        assert_eq!(f.patrolled_ids().len(), 4);
        assert!(!f.set_active(NodeId(99), false));
    }

    #[test]
    fn field_clone_and_equality_are_structural() {
        let f = sample_field();
        let g = f.clone();
        assert_eq!(f, g);
        assert_eq!(format!("{:?}", f), format!("{:?}", g));
    }
}
