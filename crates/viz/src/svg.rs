//! SVG export of scenarios and patrol plans.
//!
//! Produces a standalone SVG document (no external assets) showing the
//! field, every node (colour-coded by kind and weight) and, optionally, each
//! mule's route in a distinct colour with its entry point marked. Useful for
//! eyeballing weighted patrolling paths and recharge detours.
//!
//! Road scenarios additionally draw the road network under everything
//! else — edges in grey, heavier strokes for faster speed classes — and
//! mule routes follow the itineraries' *expanded* polylines, so a road
//! tour renders along actual road geometry instead of straight chords.
//! (`tests/golden_road.rs` pins one full road render byte-for-byte.)

use mule_geom::Point;
use mule_net::NodeKind;
use mule_workload::Scenario;
use patrol_core::PatrolPlan;

/// Styling knobs of the SVG export.
#[derive(Debug, Clone)]
pub struct SvgStyle {
    /// Width of the output image in pixels (height follows the field's
    /// aspect ratio).
    pub width_px: f64,
    /// Radius of node markers in pixels.
    pub node_radius_px: f64,
    /// Stroke width of route polylines in pixels.
    pub route_stroke_px: f64,
}

impl Default for SvgStyle {
    fn default() -> Self {
        SvgStyle {
            width_px: 800.0,
            node_radius_px: 5.0,
            route_stroke_px: 1.5,
        }
    }
}

/// Route colours cycled per mule.
const ROUTE_COLORS: [&str; 6] = [
    "#1f77b4", "#d62728", "#2ca02c", "#9467bd", "#ff7f0e", "#17becf",
];

struct Mapper {
    scale: f64,
    min_x: f64,
    max_y: f64,
}

impl Mapper {
    fn new(scenario: &Scenario, style: &SvgStyle) -> (Self, f64, f64) {
        let bounds = scenario.field().bounds();
        let scale = style.width_px / bounds.width().max(1e-9);
        let height_px = bounds.height() * scale;
        (
            Mapper {
                scale,
                min_x: bounds.min_x,
                max_y: bounds.max_y,
            },
            style.width_px,
            height_px,
        )
    }

    /// Field coordinates → SVG pixel coordinates (y axis flipped so north is
    /// up).
    fn map(&self, p: &Point) -> (f64, f64) {
        (
            (p.x - self.min_x) * self.scale,
            (self.max_y - p.y) * self.scale,
        )
    }
}

fn node_color(kind: NodeKind, weight: u32) -> &'static str {
    match kind {
        NodeKind::Sink => "#000000",
        NodeKind::RechargeStation => "#e6b800",
        NodeKind::Target => {
            if weight >= 2 {
                "#d62728"
            } else {
                "#2ca02c"
            }
        }
    }
}

fn svg_header(width: f64, height: f64) -> String {
    format!(
        "<svg xmlns=\"http://www.w3.org/2000/svg\" width=\"{width:.0}\" height=\"{height:.0}\" \
         viewBox=\"0 0 {width:.0} {height:.0}\">\n\
         <rect width=\"100%\" height=\"100%\" fill=\"#fafafa\" stroke=\"#cccccc\"/>\n"
    )
}

/// Draws the road network (when the scenario has one) as a grey underlay:
/// one line per undirected edge, stroke width by speed class (faster
/// classes are wider, like printed road maps).
fn road_markup(scenario: &Scenario, mapper: &Mapper) -> String {
    let Some(index) = scenario.metric().road_index() else {
        return String::new();
    };
    let graph = index.graph();
    let mut out = String::from("<g stroke=\"#c8c8c8\" stroke-linecap=\"round\">\n");
    for (u, v, class) in graph.edges() {
        let (x1, y1) = mapper.map(&graph.position(u));
        let (x2, y2) = mapper.map(&graph.position(v));
        let width = match class {
            mule_road::SpeedClass::Highway => 2.2,
            mule_road::SpeedClass::Avenue => 1.4,
            mule_road::SpeedClass::Street => 0.8,
        };
        out.push_str(&format!(
            "<line x1=\"{x1:.1}\" y1=\"{y1:.1}\" x2=\"{x2:.1}\" y2=\"{y2:.1}\" \
             stroke-width=\"{width:.1}\"/>\n"
        ));
    }
    out.push_str("</g>\n");
    out
}

fn node_markup(scenario: &Scenario, mapper: &Mapper, style: &SvgStyle) -> String {
    let mut out = String::new();
    for node in scenario.field().nodes() {
        let (x, y) = mapper.map(&node.position);
        let color = node_color(node.kind, node.weight.value());
        out.push_str(&format!(
            "<circle cx=\"{x:.1}\" cy=\"{y:.1}\" r=\"{:.1}\" fill=\"{color}\">\
             <title>{} ({:?}, w={})</title></circle>\n",
            style.node_radius_px,
            node.id,
            node.kind,
            node.weight.value()
        ));
        if node.weight.value() >= 2 {
            out.push_str(&format!(
                "<text x=\"{:.1}\" y=\"{:.1}\" font-size=\"10\" fill=\"#333\">w={}</text>\n",
                x + style.node_radius_px + 2.0,
                y + 3.0,
                node.weight.value()
            ));
        }
    }
    out
}

/// Renders the scenario plus every mule's route as an SVG document.
pub fn plan_to_svg(scenario: &Scenario, plan: &PatrolPlan, style: &SvgStyle) -> String {
    let (mapper, width, height) = Mapper::new(scenario, style);
    let mut svg = svg_header(width, height);
    svg.push_str(&road_markup(scenario, &mapper));

    for (m, it) in plan.itineraries.iter().enumerate() {
        if it.cycle.is_empty() {
            continue;
        }
        let color = ROUTE_COLORS[m % ROUTE_COLORS.len()];
        // Every travel vertex: waypoints for a Euclidean plan, the full
        // road geometry for a road plan.
        let mut points: Vec<(f64, f64)> =
            it.cycle.vertices().map(|(p, _)| mapper.map(&p)).collect();
        // Close the cycle explicitly.
        if let Some(first) = points.first().copied() {
            points.push(first);
        }
        let path: Vec<String> = points
            .iter()
            .map(|(x, y)| format!("{x:.1},{y:.1}"))
            .collect();
        svg.push_str(&format!(
            "<polyline points=\"{}\" fill=\"none\" stroke=\"{color}\" stroke-width=\"{:.1}\" \
             stroke-opacity=\"0.7\"><title>mule {} ({})</title></polyline>\n",
            path.join(" "),
            style.route_stroke_px,
            it.mule_index,
            plan.planner_name
        ));
        // Entry point marker.
        let (ex, ey) = mapper.map(&it.entry_point());
        svg.push_str(&format!(
            "<rect x=\"{:.1}\" y=\"{:.1}\" width=\"8\" height=\"8\" fill=\"{color}\">\
             <title>mule {} entry point</title></rect>\n",
            ex - 4.0,
            ey - 4.0,
            it.mule_index
        ));
    }

    svg.push_str(&node_markup(scenario, &mapper, style));
    svg.push_str("</svg>\n");
    svg
}

#[cfg(test)]
mod tests {
    use super::*;
    use mule_workload::{ScenarioConfig, WeightSpec};
    use patrol_core::{BTctp, Planner, RwTctp};

    fn scenario() -> Scenario {
        ScenarioConfig::paper_default()
            .with_targets(8)
            .with_weights(WeightSpec::UniformVips {
                count: 2,
                weight: 3,
            })
            .with_recharge_station(true)
            .with_seed(3)
            .generate()
    }

    #[test]
    fn scenario_svg_is_well_formed_and_shows_every_node() {
        let s = scenario();
        let plan = BTctp::new().plan(&s).unwrap();
        let svg = plan_to_svg(&s, &plan, &SvgStyle::default());
        assert!(svg.starts_with("<svg"));
        assert!(svg.trim_end().ends_with("</svg>"));
        let circles = svg.matches("<circle").count();
        assert_eq!(circles, s.field().len());
        assert!(svg.contains("w=3"), "VIP weight label present");
    }

    #[test]
    fn plan_svg_draws_one_polyline_per_mule() {
        let s = scenario();
        let plan = BTctp::new().plan(&s).unwrap();
        let svg = plan_to_svg(&s, &plan, &SvgStyle::default());
        assert_eq!(svg.matches("<polyline").count(), plan.mule_count());
        assert_eq!(svg.matches("<rect x=").count(), plan.mule_count());
    }

    #[test]
    fn recharge_route_includes_the_station_colour() {
        let s = scenario();
        let plan = RwTctp::default().plan(&s).unwrap();
        let svg = plan_to_svg(&s, &plan, &SvgStyle::default());
        assert!(svg.contains("#e6b800"), "recharge station marker colour");
        assert!(svg.contains("RW-TCTP"));
    }

    #[test]
    fn style_width_controls_the_viewport() {
        let s = scenario();
        let style = SvgStyle {
            width_px: 400.0,
            ..SvgStyle::default()
        };
        let plan = BTctp::new().plan(&s).unwrap();
        let svg = plan_to_svg(&s, &plan, &style);
        assert!(svg.contains("width=\"400\""));
        assert!(
            svg.contains("height=\"400\""),
            "square field keeps a square aspect"
        );
    }
}
