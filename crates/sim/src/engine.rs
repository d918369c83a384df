//! The discrete-event simulation engine, built on the `mule-events`
//! timeline.
//!
//! Because every mule moves at constant speed along a fixed itinerary, the
//! engine computes exact waypoint-arrival times instead of integrating a
//! time step. All arrivals — and, in dynamic runs, all disruptions and
//! replans — live on one [`mule_events::SimClock`]: a binary-heap timeline
//! with deterministic `(time, kind, subject, insertion)` ordering, so
//! cross-mule effects (two mules collecting from the same target, a target
//! failing the instant a mule arrives) always resolve in the same order.
//!
//! ## Static runs
//!
//! [`Simulation`] executes a fixed [`PatrolPlan`]: the only events on the
//! timeline are [`EventKind::WaypointArrival`]s, each handler scheduling
//! the mule's next leg. This reproduces the original fixed-plan engine
//! exactly (same arrival arithmetic, same tie-breaking by mule index).
//!
//! Not every vertex goes on the timeline. A road leg's bends collect
//! nothing, and between two real nodes no other event reads or writes a
//! mule's state; only disruptions and the replans they trigger do, and
//! their times are known before the run. So when the next vertex is a
//! bend whose arrival is within the horizon and *strictly* earlier than
//! the next disruption, the arrival handler moves the mule there itself
//! and goes on to the following leg with the same floating-point
//! operations its event would have run. A bend due at exactly a
//! disruption's time still goes through the clock, because disruptions
//! pop first at one instant. Folded arrivals count as waypoint arrivals
//! in `events_fired` and in the `sim.run` trace counters, which are
//! collected per event kind and added to the span once, when the run ends.
//!
//! ## Dynamic runs
//!
//! [`crate::DynamicSimulation`] additionally compiles a
//! [`mule_workload::DisruptionPlan`] onto the timeline before the run:
//! target failures/recoveries/arrivals, mule breakdowns and speed windows.
//! Disruption kinds order *before* waypoint arrivals at the same
//! timestamp, so an arriving mule always observes the post-disruption
//! world. When a replanner is attached, every world-changing disruption
//! also schedules an [`EventKind::Replan`] at its own timestamp (multiple
//! same-instant disruptions coalesce into one replan); the fresh plan is
//! adopted by each surviving mule when it reaches its already-committed
//! next waypoint (or immediately, if it has no leg in flight).

use crate::config::SimulationConfig;
use crate::dynamics::TimelineEntry;
use crate::mule::{MuleState, MuleStatus};
use crate::outcome::{SimulationOutcome, VisitRecord};
use mule_energy::{Battery, ConsumptionLedger, EnergyCause};
use mule_events::{Event, EventKind, EventSubject, SimClock};
use mule_geom::Point;
use mule_net::{DataBuffer, Field, MulePayload, NodeId, NodeKind};
use mule_workload::{Disruption, DisruptionPlan, Scenario};
use patrol_core::{MuleItinerary, PatrolPlan, ReplanContext, Replanner, Walk};
use std::rc::Rc;

/// One travel vertex of a [`MuleRoute`], resolved against the field when
/// the route is built so that an arrival never looks the field up.
///
/// A vertex is either a real waypoint (`node = Some(id)` — data is
/// collected there) or an intermediate bend of the leg geometry a road
/// metric produced (`node = None` — the mule merely passes through).
#[derive(Clone, Copy)]
struct Vertex {
    position: Point,
    node: Option<NodeId>,
    /// The field's kind of `node`; `None` at a bend.
    kind: Option<NodeKind>,
    /// Length of the leg from this vertex to the next one (wrapping).
    leg_m: f64,
    /// Whether the leg into this vertex heads for the recharge station:
    /// the first real node at or after it (wrapping) is the station.
    /// Energy cause attribution uses this, so every sub-leg of a road
    /// approach to the station is detour energy, not just the final hop.
    towards_station: bool,
}

/// Precomputed geometry of one walk: its travel vertices and cumulative
/// arc lengths. Mules whose itineraries share a walk share its route.
/// Euclidean walks have no bends, so their vertex list is exactly the
/// historical waypoint list and every arrival time is byte-identical.
struct MuleRoute {
    /// The walk the route was built from.
    walk: Walk,
    vertices: Vec<Vertex>,
    /// `cumulative[i]` is the arc length from vertex 0 to vertex `i`;
    /// one extra entry holds the full cycle length.
    cumulative: Vec<f64>,
    total_length: f64,
}

impl MuleRoute {
    fn from_walk(walk: &Walk, field: &Field) -> Self {
        let mut vertices: Vec<Vertex> = Vec::with_capacity(walk.vertex_count());
        vertices.extend(walk.vertices().map(|(position, node)| Vertex {
            position,
            node,
            kind: node.and_then(|id| field.node(id)).map(|n| n.kind),
            leg_m: 0.0,
            towards_station: false,
        }));
        let n = vertices.len();
        let mut cumulative = Vec::with_capacity(n + 1);
        let mut acc = 0.0;
        cumulative.push(0.0);
        for i in 0..n {
            let leg = vertices[i]
                .position
                .distance(&vertices[(i + 1) % n].position);
            vertices[i].leg_m = leg;
            acc += leg;
            cumulative.push(acc);
        }
        // A bend heads wherever the vertex after it heads; bends after the
        // last real node lead round to the first one.
        let is_station = |v: &Vertex| v.kind == Some(NodeKind::RechargeStation);
        let mut towards_station = vertices
            .iter()
            .find(|v| v.node.is_some())
            .is_some_and(is_station);
        for v in vertices.iter_mut().rev() {
            if v.node.is_some() {
                towards_station = is_station(v);
            }
            v.towards_station = towards_station;
        }
        let total_length = if n >= 2 { acc } else { 0.0 };
        MuleRoute {
            walk: walk.clone(),
            vertices,
            cumulative,
            total_length,
        }
    }

    /// The route of `walk`: the one in `routes` built from the same walk
    /// if there is one, else a new one.
    fn shared(routes: &[Rc<MuleRoute>], walk: &Walk, field: &Field) -> Rc<MuleRoute> {
        match routes.iter().find(|r| Walk::ptr_eq(&r.walk, walk)) {
            Some(route) => Rc::clone(route),
            None => Rc::new(MuleRoute::from_walk(walk, field)),
        }
    }

    fn len(&self) -> usize {
        self.vertices.len()
    }

    /// The first vertex at or after `entry_offset` metres along the
    /// cycle, together with the remaining distance to it.
    fn entry_waypoint(&self, entry_offset: f64) -> (usize, f64) {
        if self.total_length <= 1e-9 {
            return (0, 0.0);
        }
        for i in 0..self.len() {
            if self.cumulative[i] >= entry_offset - 1e-9 {
                return (i, self.cumulative[i] - entry_offset);
            }
        }
        (0, self.total_length - entry_offset)
    }
}

/// The simulator: executes a [`PatrolPlan`] against a [`Scenario`].
pub struct Simulation<'a> {
    scenario: &'a Scenario,
    plan: &'a PatrolPlan,
    config: SimulationConfig,
}

impl<'a> Simulation<'a> {
    /// Creates a simulation with the default configuration (paper energy
    /// model, 80 000 s horizon).
    pub fn new(scenario: &'a Scenario, plan: &'a PatrolPlan) -> Self {
        Simulation {
            scenario,
            plan,
            config: SimulationConfig::default(),
        }
    }

    /// Creates a simulation with an explicit configuration.
    pub fn with_config(
        scenario: &'a Scenario,
        plan: &'a PatrolPlan,
        config: SimulationConfig,
    ) -> Self {
        Simulation {
            scenario,
            plan,
            config,
        }
    }

    /// Runs until the configured horizon.
    pub fn run(&self) -> SimulationOutcome {
        self.run_for(self.config.horizon_s)
    }

    /// Runs until `horizon_s` seconds of simulated time.
    pub fn run_for(&self, horizon_s: f64) -> SimulationOutcome {
        let empty = DisruptionPlan::none();
        EngineCore::run(
            self.scenario,
            self.plan,
            self.config,
            &empty,
            None,
            horizon_s,
        )
        .outcome
    }
}

/// What a finished engine run produced (the dynamic wrapper re-exports the
/// extras; static runs only keep `outcome`).
pub(crate) struct EngineRun {
    pub(crate) outcome: SimulationOutcome,
    pub(crate) timeline: Vec<TimelineEntry>,
    pub(crate) replan_times_s: Vec<f64>,
    pub(crate) events_fired: u64,
}

/// The unified event-driven engine behind both [`Simulation`] and
/// [`crate::DynamicSimulation`].
pub(crate) struct EngineCore<'a> {
    scenario: &'a Scenario,
    plan: &'a PatrolPlan,
    config: SimulationConfig,
    disruptions: &'a DisruptionPlan,
    replanner: Option<&'a dyn Replanner>,
    horizon: f64,

    // Mutable run state.
    /// Each mule's route; mules on one walk share one route.
    routes: Vec<Rc<MuleRoute>>,
    states: Vec<MuleState>,
    // Per-node state, indexed by `NodeId::index()` and sized from the
    // field; ids outside the field are ignored.
    /// Only targets own a buffer.
    buffers: Vec<Option<DataBuffer>>,
    last_visit: Vec<f64>,
    /// Whether each node is out of service. Only dynamic runs ever set it.
    inactive: Vec<bool>,
    /// Global speed multiplier (1.0 = nominal); the product of all open
    /// speed windows, applied to legs as they are scheduled — never
    /// retroactively to committed legs.
    speed_factor: f64,
    /// Factors of the currently open speed windows (windows may overlap).
    open_speed_windows: Vec<f64>,
    /// Fresh itineraries awaiting adoption at each mule's next arrival.
    pending_switch: Vec<Option<MuleItinerary>>,
    visits: Vec<VisitRecord>,
    timeline: Vec<TimelineEntry>,
    replan_times_s: Vec<f64>,
    last_replan_s: Option<f64>,
    /// Every finite disruption time, ascending, and the index of the
    /// first one not yet passed: the limit of bend folding.
    disruption_times_s: Vec<f64>,
    next_disruption: usize,
    kinds: KindCounts,
}

/// How many events of each kind a run handled, indexed by
/// [`EventKind::priority`], and the order in which the kinds were first
/// handled. When the run ends, the `sim.run` span gets one counter per
/// kind in that order, so the trace reads as if every event had added to
/// it. Counter values are part of the deterministic trace shape: an
/// event-count drift between two runs of one seed is a determinism bug,
/// and the trace localises it to a kind.
#[derive(Default)]
struct KindCounts {
    counts: [u64; 8],
    first_seen: [u8; 8],
    seen: usize,
}

impl KindCounts {
    /// Counter names, in priority order.
    const NAMES: [&'static str; 8] = [
        "event.target_failure",
        "event.target_recovery",
        "event.target_arrival",
        "event.mule_breakdown",
        "event.speed_window_end",
        "event.speed_window_start",
        "event.replan",
        "event.waypoint_arrival",
    ];

    #[inline]
    fn count(&mut self, kind: &EventKind) {
        let priority = kind.priority();
        let count = &mut self.counts[usize::from(priority)];
        if *count == 0 {
            self.first_seen[self.seen] = priority;
            self.seen += 1;
        }
        *count += 1;
    }

    /// Adds the per-kind counters to the innermost open span and returns
    /// the number of events handled.
    fn report(&self) -> u64 {
        for &priority in &self.first_seen[..self.seen] {
            let p = usize::from(priority);
            mule_obs::add(Self::NAMES[p], self.counts[p]);
        }
        self.counts.iter().sum()
    }
}

impl<'a> EngineCore<'a> {
    /// Runs `plan` on `scenario` until `horizon_s`. The `sim.run` span
    /// covers the whole run: its `sim.setup` child builds the routes and
    /// per-node state and schedules the first events, the drain loop is
    /// `sim.run`'s own time, and `sim.outcome` sorts the visits and
    /// reports the mules.
    pub(crate) fn run(
        scenario: &'a Scenario,
        plan: &'a PatrolPlan,
        config: SimulationConfig,
        disruptions: &'a DisruptionPlan,
        replanner: Option<&'a dyn Replanner>,
        horizon_s: f64,
    ) -> EngineRun {
        let _span = mule_obs::span("sim.run");
        let (mut engine, mut clock) = {
            let _setup = mule_obs::span("sim.setup");
            let mut engine =
                EngineCore::new(scenario, plan, config, disruptions, replanner, horizon_s);
            let mut clock = SimClock::new();
            engine.schedule_initial_arrivals(&mut clock);
            engine.schedule_disruptions(&mut clock);
            (engine, clock)
        };

        clock.run_until(engine.horizon, |clock, event| engine.handle(clock, event));
        let events_fired = engine.kinds.report();
        mule_obs::add("events", events_fired);

        let _outcome = mule_obs::span("sim.outcome");
        engine.visits.sort_by(|a, b| {
            a.time_s
                .total_cmp(&b.time_s)
                .then(a.mule_index.cmp(&b.mule_index))
        });
        EngineRun {
            outcome: SimulationOutcome {
                planner_name: engine.plan.planner_name.clone(),
                horizon_s: engine.horizon,
                visits: engine.visits,
                mules: engine.states.iter().map(MuleState::report).collect(),
            },
            timeline: engine.timeline,
            replan_times_s: engine.replan_times_s,
            events_fired,
        }
    }

    fn new(
        scenario: &'a Scenario,
        plan: &'a PatrolPlan,
        config: SimulationConfig,
        disruptions: &'a DisruptionPlan,
        replanner: Option<&'a dyn Replanner>,
        horizon_s: f64,
    ) -> Self {
        let field = scenario.field();
        let buffers: Vec<Option<DataBuffer>> = field
            .nodes()
            .iter()
            .map(|n| {
                (n.kind == NodeKind::Target).then(|| DataBuffer::new(scenario.data_rate_bps()))
            })
            .collect();
        let last_visit = vec![0.0; field.len()];

        let mut routes: Vec<Rc<MuleRoute>> = Vec::with_capacity(plan.itineraries.len());
        for it in &plan.itineraries {
            let route = MuleRoute::shared(&routes, &it.cycle, field);
            routes.push(route);
        }
        let states: Vec<MuleState> = plan
            .itineraries
            .iter()
            .map(|it| MuleState {
                index: it.mule_index,
                battery: Battery::full(config.energy.initial_energy_j),
                ledger: ConsumptionLedger::new(),
                payload: MulePayload::new(),
                distance_m: 0.0,
                visits: 0,
                recharges: 0,
                status: if it.cycle.len() < 2 {
                    MuleStatus::Idle
                } else {
                    MuleStatus::Active
                },
                next_waypoint: 0,
                next_arrival_s: 0.0,
                position: it.start_position,
                scheduled: false,
            })
            .collect();

        // Late-arrival targets start out of service.
        let mut inactive = vec![false; field.len()];
        for id in disruptions.late_target_ids() {
            if let Some(down) = inactive.get_mut(id.index()) {
                *down = true;
            }
        }

        let mule_count = plan.itineraries.len();
        EngineCore {
            scenario,
            plan,
            config,
            disruptions,
            replanner,
            horizon: horizon_s.max(0.0),
            routes,
            states,
            buffers,
            last_visit,
            inactive,
            speed_factor: 1.0,
            open_speed_windows: Vec::new(),
            pending_switch: (0..mule_count).map(|_| None).collect(),
            visits: Vec::new(),
            timeline: Vec::new(),
            replan_times_s: Vec::new(),
            last_replan_s: None,
            disruption_times_s: disruptions
                .phase_boundaries_s()
                .into_iter()
                .filter(|t| t.is_finite())
                .collect(),
            next_disruption: 0,
            kinds: KindCounts::default(),
        }
    }

    /// Effective fleet speed right now, metres per second.
    fn speed(&self) -> f64 {
        self.config.energy.speed_m_per_s.max(1e-9) * self.speed_factor
    }

    /// Recomputes the effective multiplier as the product of all open
    /// windows — always from scratch, so closing a window restores the
    /// exact pre-window factor with no floating-point drift.
    fn recompute_speed_factor(&mut self) {
        self.speed_factor = self.open_speed_windows.iter().product::<f64>().max(0.01);
    }

    /// Marks node `id` in or out of service; ids outside the field are
    /// ignored.
    fn set_inactive(&mut self, id: NodeId, down: bool) {
        if let Some(flag) = self.inactive.get_mut(id.index()) {
            *flag = down;
        }
    }

    /// Schedules the first waypoint arrival of every mule: it travels from
    /// its start position to its entry point on the cycle (the
    /// location-initialisation move), optionally holds until the whole
    /// fleet is in position, then proceeds to the first waypoint at or
    /// after its entry offset.
    fn schedule_initial_arrivals(&mut self, clock: &mut SimClock) {
        let speed = self.speed();
        let deploy_dists: Vec<f64> = self
            .plan
            .itineraries
            .iter()
            .enumerate()
            .map(|(m, it)| {
                if self.routes[m].len() == 0 {
                    0.0
                } else {
                    it.start_position.distance(&it.entry_point())
                }
            })
            .collect();
        let fleet_ready_s = deploy_dists.iter().cloned().fold(0.0, f64::max) / speed;

        for (m, it) in self.plan.itineraries.iter().enumerate() {
            let route = &self.routes[m];
            if route.len() == 0 {
                continue;
            }
            let entry_offset = if route.total_length > 1e-9 {
                it.entry_offset_m.rem_euclid(route.total_length)
            } else {
                0.0
            };
            let deploy_dist = deploy_dists[m];
            let (first_wp, partial_dist) = route.entry_waypoint(entry_offset);

            let travel = deploy_dist + partial_dist.max(0.0);
            let towards_station = route.vertices[first_wp].towards_station;
            if !self.consume_movement(m, travel, towards_station) {
                self.states[m].status = MuleStatus::Depleted { at_s: 0.0 };
                continue; // died during deployment
            }
            let patrol_start_s = if self.config.synchronized_start {
                fleet_ready_s
            } else {
                deploy_dist / speed
            };
            self.states[m].next_waypoint = first_wp;
            self.states[m].next_arrival_s = patrol_start_s + partial_dist.max(0.0) / speed;
            if self.states[m].next_arrival_s <= self.horizon {
                clock.schedule_at(
                    self.states[m].next_arrival_s,
                    EventSubject::Mule(m),
                    EventKind::WaypointArrival,
                );
                self.states[m].scheduled = true;
            }
        }
    }

    /// Compiles the disruption plan onto the timeline. Nothing is
    /// scheduled for a static run (the plan is empty), so the timeline
    /// carries pure waypoint arrivals exactly like the original engine's
    /// arrival heap.
    fn schedule_disruptions(&mut self, clock: &mut SimClock) {
        for d in &self.disruptions.disruptions {
            match *d {
                Disruption::TargetFailure { target, at_s } => {
                    clock.schedule_at(at_s, EventSubject::Target(target), EventKind::TargetFailure);
                }
                Disruption::TargetRecovery { target, at_s } => {
                    clock.schedule_at(
                        at_s,
                        EventSubject::Target(target),
                        EventKind::TargetRecovery,
                    );
                }
                Disruption::TargetArrival { target, at_s } => {
                    clock.schedule_at(at_s, EventSubject::Target(target), EventKind::TargetArrival);
                }
                Disruption::MuleBreakdown { mule, at_s } => {
                    clock.schedule_at(at_s, EventSubject::Mule(mule), EventKind::MuleBreakdown);
                }
                Disruption::SpeedWindow {
                    start_s,
                    end_s,
                    factor,
                } => {
                    clock.schedule_at(
                        start_s,
                        EventSubject::Global,
                        EventKind::SpeedWindowStart { factor },
                    );
                    clock.schedule_at(
                        end_s,
                        EventSubject::Global,
                        EventKind::SpeedWindowEnd { factor },
                    );
                }
            }
        }
    }

    fn handle(&mut self, clock: &mut SimClock, event: Event) {
        self.kinds.count(&event.kind);
        let now = event.time_s;
        match (event.kind, event.subject) {
            (EventKind::WaypointArrival, EventSubject::Mule(m)) => {
                self.on_arrival(clock, m, now);
            }
            (EventKind::TargetFailure, EventSubject::Target(id)) => {
                self.set_inactive(id, true);
                self.note(now, format!("target {id} fails"));
                self.request_replan(clock, now);
            }
            (EventKind::TargetRecovery, EventSubject::Target(id))
            | (EventKind::TargetArrival, EventSubject::Target(id)) => {
                self.set_inactive(id, false);
                // Data "generated" while the target was down never
                // existed: restart its buffer and age baseline at `now`.
                if let Some(Some(buffer)) = self.buffers.get_mut(id.index()) {
                    buffer.restart_at(now);
                }
                if let Some(last) = self.last_visit.get_mut(id.index()) {
                    *last = now;
                }
                let what = if event.kind == EventKind::TargetArrival {
                    "arrives"
                } else {
                    "recovers"
                };
                self.note(now, format!("target {id} {what}"));
                self.request_replan(clock, now);
            }
            (EventKind::MuleBreakdown, EventSubject::Mule(m))
                if m < self.states.len() && self.states[m].status.survived() =>
            {
                self.states[m].status = MuleStatus::BrokenDown { at_s: now };
                self.states[m].scheduled = false;
                self.note(now, format!("mule {m} breaks down"));
                self.request_replan(clock, now);
            }
            (EventKind::SpeedWindowStart { factor }, _) => {
                self.open_speed_windows.push(factor.max(0.01));
                self.recompute_speed_factor();
                self.note(now, format!("fleet speed ×{:.2}", self.speed_factor));
            }
            (EventKind::SpeedWindowEnd { factor }, _) => {
                // Close one window with this factor; overlapping windows
                // keep the remaining factors in force.
                if let Some(pos) = self
                    .open_speed_windows
                    .iter()
                    .position(|f| f.total_cmp(&factor.max(0.01)).is_eq())
                {
                    self.open_speed_windows.remove(pos);
                }
                self.recompute_speed_factor();
                self.note(now, format!("fleet speed ×{:.2}", self.speed_factor));
            }
            (EventKind::Replan, _) => {
                self.on_replan(clock, now);
            }
            // Mis-targeted events (e.g. a failure addressed to a mule)
            // cannot be scheduled by this crate; ignore defensively.
            _ => {}
        }
    }

    fn note(&mut self, time_s: f64, description: String) {
        self.timeline.push(TimelineEntry {
            time_s,
            description,
        });
    }

    /// Schedules a coalescing replan at `now` (same-instant disruptions
    /// produce one replan, because [`EngineCore::on_replan`] drops
    /// duplicates).
    fn request_replan(&mut self, clock: &mut SimClock, now: f64) {
        if self.replanner.is_some() {
            clock.schedule_at(now, EventSubject::Global, EventKind::Replan);
        }
    }

    fn on_replan(&mut self, clock: &mut SimClock, now: f64) {
        if self.last_replan_s == Some(now) {
            return; // several disruptions at this instant — already done
        }
        let Some(replanner) = self.replanner else {
            return;
        };
        self.last_replan_s = Some(now);
        let _span = mule_obs::span("sim.replan");

        let inactive_targets: Vec<NodeId> = self
            .inactive
            .iter()
            .enumerate()
            .filter(|&(_, &down)| down)
            .map(|(i, _)| NodeId(i))
            .collect();

        let mut active_mules = Vec::new();
        let mut positions = Vec::new();
        for (m, state) in self.states.iter().enumerate() {
            if state.status.survived() {
                active_mules.push(m);
                // A mule with a leg in flight will adopt the new plan at
                // its committed destination; plan from there. Unscheduled
                // mules adopt where they stand.
                positions.push(if state.scheduled {
                    self.routes[m].vertices[state.next_waypoint].position
                } else {
                    state.position
                });
            }
        }

        let ctx = ReplanContext {
            scenario: self.scenario,
            inactive_targets: &inactive_targets,
            active_mules: &active_mules,
            mule_positions: &positions,
            previous: self.plan,
            time_s: now,
        };
        match replanner.replan(&ctx) {
            Ok(new_plan) => {
                self.replan_times_s.push(now);
                self.note(
                    now,
                    format!(
                        "replan ({}): {} mules over {} nodes",
                        replanner.name(),
                        new_plan.mule_count(),
                        new_plan.covered_nodes().len()
                    ),
                );
                for itinerary in new_plan.itineraries {
                    let m = itinerary.mule_index;
                    if m >= self.states.len() || !self.states[m].status.survived() {
                        continue;
                    }
                    if self.states[m].scheduled {
                        self.pending_switch[m] = Some(itinerary);
                    } else {
                        // Idle or parked mule: join the new plan right away.
                        self.adopt_itinerary(clock, m, itinerary, now);
                    }
                }
            }
            Err(e) => {
                // Unplannable world (e.g. every target failed): keep
                // flying the old plan.
                self.note(now, format!("replan failed: {e}"));
            }
        }
    }

    /// Switches mule `m` onto `itinerary` at time `now`: it travels from
    /// its current position to the itinerary's entry point (respecting the
    /// planner's start-point spreading), then patrols. Replan joins are
    /// per-mule immediate — there is no fleet-wide synchronized hold like
    /// the initial deployment, because pausing survivors mid-run would
    /// only add dead time.
    fn adopt_itinerary(
        &mut self,
        clock: &mut SimClock,
        m: usize,
        itinerary: MuleItinerary,
        now: f64,
    ) {
        let route = MuleRoute::shared(&self.routes, &itinerary.cycle, self.scenario.field());
        if route.len() == 0 {
            self.routes[m] = route;
            self.states[m].status = MuleStatus::Idle;
            return;
        }
        let entry_offset = if route.total_length > 1e-9 {
            itinerary.entry_offset_m.rem_euclid(route.total_length)
        } else {
            0.0
        };
        let (first_wp, partial_dist) = route.entry_waypoint(entry_offset);
        let deploy_dist = self.states[m].position.distance(&itinerary.entry_point());
        let travel = deploy_dist + partial_dist.max(0.0);
        let towards_station = route.vertices[first_wp].towards_station;
        self.routes[m] = route;
        if !self.consume_movement(m, travel, towards_station) {
            self.states[m].status = MuleStatus::Depleted { at_s: now };
            return;
        }
        if self.states[m].status == MuleStatus::Idle && self.routes[m].len() >= 2 {
            self.states[m].status = MuleStatus::Active;
        }
        let arrival = now + travel / self.speed();
        self.states[m].next_waypoint = first_wp;
        self.states[m].next_arrival_s = arrival;
        if arrival <= self.horizon {
            clock.schedule_at(arrival, EventSubject::Mule(m), EventKind::WaypointArrival);
            self.states[m].scheduled = true;
        } else {
            self.states[m].scheduled = false;
        }
    }

    /// The earliest disruption time later than `now`, or infinity. Called
    /// with event times only, so the cursor never moves backwards.
    fn next_disruption_after(&mut self, now: f64) -> f64 {
        while self
            .disruption_times_s
            .get(self.next_disruption)
            .is_some_and(|&t| t <= now)
        {
            self.next_disruption += 1;
        }
        self.disruption_times_s
            .get(self.next_disruption)
            .copied()
            .unwrap_or(f64::INFINITY)
    }

    /// Handles mule `m` reaching its next vertex at `now`, then the bends
    /// after it that arrive strictly before the next disruption (see the
    /// module doc): each is arrived at here, with the arithmetic its own
    /// event would have done, and counted as a waypoint arrival.
    fn on_arrival(&mut self, clock: &mut SimClock, m: usize, mut now: f64) {
        // A breakdown (or battery death) between scheduling and arrival
        // cancels the leg.
        if matches!(
            self.states[m].status,
            MuleStatus::Depleted { .. } | MuleStatus::BrokenDown { .. }
        ) {
            return;
        }
        let fold_before = self.next_disruption_after(now);
        loop {
            self.states[m].scheduled = false;
            let wp = self.states[m].next_waypoint;
            // A bend of a road leg has no node: nothing to visit, the mule
            // just turns a corner and the next leg is scheduled below. A
            // vertex with a kind is a field node, so its index is in range.
            let vertex = self.routes[m].vertices[wp];
            self.states[m].position = vertex.position;

            // --- Visit processing --------------------------------------------
            match (vertex.kind, vertex.node) {
                // An inactive target is passed by: nothing to collect, no
                // visit recorded (the catch-all arm below).
                (Some(NodeKind::Target), Some(node_id)) if !self.inactive[node_id.index()] => {
                    let age = now - self.last_visit[node_id.index()];
                    let bytes = self.buffers[node_id.index()]
                        .as_mut()
                        .map_or(0.0, |b| b.collect(now).0);
                    self.states[m].payload.load(node_id, bytes);
                    if self.config.energy_enabled {
                        let e = self.config.energy.collection_energy(1);
                        self.states[m].battery.draw(e);
                        self.states[m].ledger.record(EnergyCause::Collection, e);
                    }
                    self.states[m].visits += 1;
                    self.last_visit[node_id.index()] = now;
                    self.visits.push(VisitRecord {
                        time_s: now,
                        mule_index: m,
                        node: node_id,
                        data_age_s: age.max(0.0),
                        bytes,
                    });
                }
                (Some(NodeKind::Sink), Some(node_id)) => {
                    let age = now - self.last_visit[node_id.index()];
                    self.states[m].payload.deliver_all();
                    self.states[m].visits += 1;
                    self.last_visit[node_id.index()] = now;
                    self.visits.push(VisitRecord {
                        time_s: now,
                        mule_index: m,
                        node: node_id,
                        data_age_s: age.max(0.0),
                        bytes: 0.0,
                    });
                }
                (Some(NodeKind::RechargeStation), Some(node_id)) => {
                    if self.config.energy_enabled {
                        self.states[m].battery.recharge_full();
                    }
                    self.states[m].recharges += 1;
                    self.last_visit[node_id.index()] = now;
                }
                _ => {}
            }

            // --- Route switch after a replan ---------------------------------
            if let Some(itinerary) = self.pending_switch[m].take() {
                self.adopt_itinerary(clock, m, itinerary, now);
                return;
            }

            // --- Schedule the next leg ---------------------------------------
            let route = &self.routes[m];
            if route.total_length <= 1e-9 && self.config.collection_dwell_s <= 0.0 {
                // Degenerate zero-length cycle: visiting once is all the
                // progress that can ever be made.
                return;
            }
            let next_wp = (wp + 1) % route.len();
            let leg = vertex.leg_m;
            let next_is_bend = route.vertices[next_wp].node.is_none();
            let towards_station = route.vertices[next_wp].towards_station;
            if !self.consume_movement(m, leg, towards_station) {
                self.states[m].status = MuleStatus::Depleted { at_s: now };
                return;
            }
            // Collection dwell applies at real stops only — a bend in the
            // road geometry is not a place where data is collected.
            let dwell = if vertex.node.is_some() {
                self.config.collection_dwell_s
            } else {
                0.0
            };
            let arrival = now + dwell + leg / self.speed();
            self.states[m].next_waypoint = next_wp;
            self.states[m].next_arrival_s = arrival;
            if arrival <= self.horizon {
                // The time the clock would give the arrival's event.
                let at = arrival.max(now);
                if next_is_bend && at < fold_before {
                    self.kinds.count(&EventKind::WaypointArrival);
                    now = at;
                    continue;
                }
                clock.schedule_at(arrival, EventSubject::Mule(m), EventKind::WaypointArrival);
                self.states[m].scheduled = true;
            }
            return;
        }
    }

    /// Charges the movement of `distance_m` metres to mule `m`. Returns
    /// `false` when the battery cannot afford it (the mule is stranded).
    /// `towards_station` is the destination vertex's
    /// [`Vertex::towards_station`].
    fn consume_movement(&mut self, m: usize, distance_m: f64, towards_station: bool) -> bool {
        if distance_m <= 0.0 {
            return true;
        }
        let state = &mut self.states[m];
        if !self.config.energy_enabled {
            state.distance_m += distance_m;
            return true;
        }
        let energy = self.config.energy.movement_energy(distance_m);
        if !state.battery.can_afford(energy) {
            // Travel as far as the remaining charge allows, then strand.
            let affordable = self.config.energy.range_on(state.battery.remaining());
            state.distance_m += affordable.min(distance_m);
            state.battery.draw(energy);
            return false;
        }
        state.battery.draw(energy);
        state.distance_m += distance_m;
        // Movement towards (or away from) the recharge station is accounted
        // as recharge-detour energy; everything else is patrol movement.
        let cause = if towards_station {
            EnergyCause::RechargeMovement
        } else {
            EnergyCause::PatrolMovement
        };
        state.ledger.record(cause, energy);
        true
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mule_energy::EnergyModel;
    use mule_workload::{ScenarioConfig, WeightSpec};
    use patrol_core::{baselines::ChbPlanner, BTctp, Planner, RwTctp};

    fn scenario(seed: u64) -> Scenario {
        ScenarioConfig::paper_default().with_seed(seed).generate()
    }

    #[test]
    fn btctp_run_visits_every_patrolled_node_repeatedly() {
        let s = scenario(3);
        let plan = BTctp::new().plan(&s).unwrap();
        let outcome =
            Simulation::with_config(&s, &plan, SimulationConfig::timing_only()).run_for(40_000.0);
        let per_node = outcome.visit_times_per_node();
        for id in s.patrolled_ids() {
            let times = per_node.get(&id).expect("every node visited");
            assert!(times.len() >= 3, "node {id} visited {} times", times.len());
            // Times strictly increase.
            for w in times.windows(2) {
                assert!(w[1] > w[0] - 1e-9);
            }
        }
        assert!(outcome.all_mules_survived());
        assert!(outcome.total_distance_m() > 0.0);
    }

    #[test]
    fn visit_times_never_exceed_the_horizon() {
        let s = scenario(5);
        let plan = BTctp::new().plan(&s).unwrap();
        let outcome =
            Simulation::with_config(&s, &plan, SimulationConfig::timing_only()).run_for(5_000.0);
        assert!(outcome.visits.iter().all(|v| v.time_s <= 5_000.0));
        assert_eq!(outcome.horizon_s, 5_000.0);
    }

    #[test]
    fn btctp_intervals_are_constant_after_warmup() {
        // The headline B-TCTP property: once all mules are in position,
        // every target is visited every |P|/(n·v) seconds exactly.
        let s = scenario(7);
        let plan = BTctp::new().plan(&s).unwrap();
        let outcome =
            Simulation::with_config(&s, &plan, SimulationConfig::timing_only()).run_for(60_000.0);
        let expected =
            plan.itineraries[0].cycle_length() / (plan.mule_count() as f64 * 2.0/* m/s */);
        for (_, times) in outcome.visit_times_per_node() {
            // Skip the warm-up visits (mules converging onto their start
            // points), then check steady-state intervals.
            if times.len() < 5 {
                continue;
            }
            for w in times[2..].windows(2) {
                let interval = w[1] - w[0];
                assert!(
                    (interval - expected).abs() < 1.0,
                    "steady-state interval {interval} vs expected {expected}"
                );
            }
        }
    }

    #[test]
    fn chb_without_spreading_yields_unequal_intervals() {
        let s = scenario(11);
        let plan = ChbPlanner::new().plan(&s).unwrap();
        let outcome =
            Simulation::with_config(&s, &plan, SimulationConfig::timing_only()).run_for(60_000.0);
        // All mules bunched: consecutive visits to a target alternate between
        // "very soon" (the bunch passes) and "a full lap later".
        let mut spreads = Vec::new();
        for (_, times) in outcome.visit_times_per_node() {
            if times.len() >= 6 {
                let intervals: Vec<f64> = times[1..].windows(2).map(|w| w[1] - w[0]).collect();
                let max = intervals.iter().cloned().fold(f64::MIN, f64::max);
                let min = intervals.iter().cloned().fold(f64::MAX, f64::min);
                spreads.push(max - min);
            }
        }
        assert!(
            spreads.iter().any(|&x| x > 100.0),
            "CHB should show uneven intervals, spreads {spreads:?}"
        );
    }

    #[test]
    fn energy_accounting_balances_with_distance() {
        let s = scenario(13);
        let plan = BTctp::new().plan(&s).unwrap();
        let outcome = Simulation::new(&s, &plan).run_for(10_000.0);
        for m in &outcome.mules {
            let movement = m.ledger.get(EnergyCause::PatrolMovement)
                + m.ledger.get(EnergyCause::RechargeMovement);
            let expected = m.distance_m * EnergyModel::paper_default().move_cost_j_per_m;
            assert!(
                (movement - expected).abs() < 1e-6,
                "movement energy {movement} vs distance-derived {expected}"
            );
        }
    }

    #[test]
    fn mules_strand_when_energy_runs_out_without_recharge() {
        let s = scenario(17);
        let plan = BTctp::new().plan(&s).unwrap();
        let tiny = EnergyModel {
            initial_energy_j: 2_000.0, // a couple hundred metres of range
            ..EnergyModel::paper_default()
        };
        let outcome =
            Simulation::with_config(&s, &plan, SimulationConfig::default().with_energy(tiny))
                .run_for(50_000.0);
        assert!(
            outcome.mules.iter().any(|m| !m.status.survived()),
            "with a tiny battery and no recharge station some mule must die"
        );
    }

    #[test]
    fn rwtctp_keeps_mules_alive_via_recharging() {
        let s = ScenarioConfig::paper_default()
            .with_targets(10)
            .with_weights(WeightSpec::UniformVips {
                count: 2,
                weight: 2,
            })
            .with_recharge_station(true)
            .with_seed(19)
            .generate();
        let planner = RwTctp::default();
        let plan = planner.plan(&s).unwrap();
        let outcome = Simulation::new(&s, &plan).run_for(100_000.0);
        assert!(outcome.all_mules_survived(), "RW-TCTP mules must not die");
        assert!(
            outcome.mules.iter().map(|m| m.recharges).sum::<usize>() > 0,
            "mules should have recharged at least once over a long horizon"
        );
    }

    #[test]
    fn sink_deliveries_accumulate_bytes() {
        let s = scenario(23);
        let plan = BTctp::new().plan(&s).unwrap();
        let outcome =
            Simulation::with_config(&s, &plan, SimulationConfig::timing_only()).run_for(40_000.0);
        assert!(outcome.total_delivered_bytes() > 0.0);
    }

    #[test]
    fn zero_horizon_produces_no_visits() {
        let s = scenario(29);
        let plan = BTctp::new().plan(&s).unwrap();
        let outcome =
            Simulation::with_config(&s, &plan, SimulationConfig::timing_only()).run_for(0.0);
        // Only mules whose deployment distance is exactly zero could visit
        // at t = 0; with the sink at the field centre that never happens for
        // the paper layout.
        assert!(outcome.total_visits() <= s.patrolled_ids().len());
        assert_eq!(outcome.horizon_s, 0.0);
    }

    #[test]
    fn idle_itineraries_are_reported_as_idle() {
        let s = ScenarioConfig::paper_default()
            .with_targets(2)
            .with_mules(5)
            .with_seed(8)
            .generate();
        let plan = patrol_core::baselines::SweepPlanner::new()
            .plan(&s)
            .unwrap();
        let outcome =
            Simulation::with_config(&s, &plan, SimulationConfig::timing_only()).run_for(10_000.0);
        assert!(outcome
            .mules
            .iter()
            .any(|m| matches!(m.status, MuleStatus::Idle)));
    }

    #[test]
    fn road_runs_travel_real_geometry_and_visit_only_nodes() {
        let cfg = ScenarioConfig::paper_default().with_seed(3).with_metric(
            mule_workload::MetricSpec::Road(mule_road::RoadNetKind::Grid),
        );
        let s = cfg.generate();
        let plan = BTctp::new().plan(&s).unwrap();
        assert!(
            plan.itineraries.iter().any(|it| it.cycle.is_routed()),
            "road plans carry leg geometry"
        );
        let outcome =
            Simulation::with_config(&s, &plan, SimulationConfig::timing_only()).run_for(40_000.0);
        // Visits land on real patrolled nodes only, never on bends.
        let ids = s.patrolled_ids();
        assert!(outcome.visits.iter().all(|v| ids.contains(&v.node)));
        assert!(outcome.total_visits() > 0);

        // The same targets patrolled by road cover at least as much
        // distance per visit round as the Euclidean chord tour would: the
        // mule walks the expanded polyline, whose length the plan reports.
        let chord: f64 = plan.itineraries[0]
            .cycle
            .windows(2)
            .map(|w| w[0].position.distance(&w[1].position))
            .sum::<f64>()
            + plan.itineraries[0]
                .cycle
                .last()
                .unwrap()
                .position
                .distance(&plan.itineraries[0].cycle[0].position);
        assert!(plan.itineraries[0].cycle_length() >= chord - 1e-9);

        // Deterministic end to end.
        let again =
            Simulation::with_config(&s, &plan, SimulationConfig::timing_only()).run_for(40_000.0);
        assert_eq!(outcome, again);
    }

    #[test]
    fn road_recharge_detours_are_attributed_as_recharge_energy() {
        // Every sub-leg of a road approach to the recharge station must be
        // booked as RechargeMovement — the station is the *destination* of
        // the whole bend run, not just of the final hop.
        let s = ScenarioConfig::paper_default()
            .with_targets(10)
            .with_weights(WeightSpec::UniformVips {
                count: 2,
                weight: 2,
            })
            .with_recharge_station(true)
            .with_seed(19)
            .with_metric(mule_workload::MetricSpec::Road(
                mule_road::RoadNetKind::Grid,
            ))
            .generate();
        let planner = RwTctp::default();
        let plan = planner.plan(&s).unwrap();
        let outcome = Simulation::new(&s, &plan).run_for(100_000.0);
        // Energy still balances with distance under road geometry…
        for m in &outcome.mules {
            let movement = m.ledger.get(EnergyCause::PatrolMovement)
                + m.ledger.get(EnergyCause::RechargeMovement);
            let expected = m.distance_m * EnergyModel::paper_default().move_cost_j_per_m;
            assert!((movement - expected).abs() < 1e-6);
        }
        // …and mules that recharged booked real detour energy: at least
        // the full (multi-bend) approach leg into the station, which on
        // this network is far more than one grid block.
        let station = s.field().recharge_station().unwrap().id;
        let detour: f64 = outcome
            .mules
            .iter()
            .map(|m| m.ledger.get(EnergyCause::RechargeMovement))
            .sum();
        let recharges: usize = outcome.mules.iter().map(|m| m.recharges).sum();
        assert!(recharges > 0, "RW-TCTP must recharge over a long horizon");
        // The road leg into the station: from the waypoint before it
        // through that leg's bends.
        let vertices: Vec<_> = plan.itineraries[0].cycle.vertices().collect();
        let n = vertices.len();
        let approach_leg_m = (0..n)
            .filter(|&j| vertices[j].1 == Some(station))
            .map(|j| {
                let from = (1..n)
                    .map(|back| (j + n - back) % n)
                    .find(|&i| vertices[i].1.is_some())
                    .unwrap();
                let steps = (j + n - from) % n;
                (0..steps)
                    .map(|k| {
                        vertices[(from + k) % n]
                            .0
                            .distance(&vertices[(from + k + 1) % n].0)
                    })
                    .sum::<f64>()
            })
            .fold(0.0, f64::max);
        let per_metre = EnergyModel::paper_default().move_cost_j_per_m;
        assert!(
            detour >= approach_leg_m * per_metre * recharges as f64 * 0.99,
            "detour energy {detour} J must cover {recharges} full road approaches of {approach_leg_m} m"
        );
    }

    #[test]
    fn road_intervals_stay_constant_in_steady_state() {
        // B-TCTP's equal-interval property must survive the road metric:
        // mules spread by equal fractions of the *road* cycle and move at
        // constant speed along it.
        let cfg = ScenarioConfig::paper_default().with_seed(9).with_metric(
            mule_workload::MetricSpec::Road(mule_road::RoadNetKind::Grid),
        );
        let s = cfg.generate();
        let plan = BTctp::new().plan(&s).unwrap();
        let outcome =
            Simulation::with_config(&s, &plan, SimulationConfig::timing_only()).run_for(80_000.0);
        let expected = plan.itineraries[0].cycle_length() / (plan.mule_count() as f64 * 2.0);
        let mut checked = 0;
        for (_, times) in outcome.visit_times_per_node() {
            if times.len() < 6 {
                continue;
            }
            for w in times[3..].windows(2) {
                let interval = w[1] - w[0];
                assert!(
                    (interval - expected).abs() < 2.0,
                    "steady-state road interval {interval} vs expected {expected}"
                );
                checked += 1;
            }
        }
        assert!(checked > 0, "some steady-state intervals were checked");
    }

    /// The wrap-around scan the per-vertex station flag replaced: the
    /// first real node at or after vertex `from`.
    fn destination_oracle(route: &MuleRoute, from: usize) -> Option<NodeId> {
        let n = route.len();
        (0..n).find_map(|step| route.vertices[(from + step) % n].node)
    }

    #[test]
    fn resolved_vertices_match_the_field_and_the_wrap_around_scan() {
        let road = mule_workload::MetricSpec::Road(mule_road::RoadNetKind::Grid);
        let station_scenario = |metric| {
            ScenarioConfig::paper_default()
                .with_targets(10)
                .with_weights(WeightSpec::UniformVips {
                    count: 2,
                    weight: 2,
                })
                .with_recharge_station(true)
                .with_seed(19)
                .with_metric(metric)
                .generate()
        };
        let cases: Vec<(Scenario, PatrolPlan)> = vec![
            {
                let s = scenario(3);
                let plan = BTctp::new().plan(&s).unwrap();
                (s, plan)
            },
            {
                let s = ScenarioConfig::paper_default()
                    .with_seed(3)
                    .with_metric(road)
                    .generate();
                let plan = BTctp::new().plan(&s).unwrap();
                (s, plan)
            },
            {
                let s = station_scenario(mule_workload::MetricSpec::Euclidean);
                let plan = RwTctp::default().plan(&s).unwrap();
                (s, plan)
            },
            {
                let s = station_scenario(road);
                let plan = RwTctp::default().plan(&s).unwrap();
                (s, plan)
            },
        ];
        let (mut bends, mut bends_to_station) = (0, 0);
        for (s, plan) in &cases {
            let field = s.field();
            let station = field.recharge_station().map(|n| n.id);
            // Each walk as planned, and turned to start at the station (and
            // routed again) so that the bends closing the cycle lead round
            // to vertex 0.
            let mut walks: Vec<Walk> = plan.itineraries.iter().map(|it| it.cycle.clone()).collect();
            for it in &plan.itineraries {
                if let Some(k) = it.cycle.iter().position(|w| Some(w.node) == station) {
                    let mut turned = it.cycle.to_vec();
                    turned.rotate_left(k);
                    let turned = MuleItinerary::new(it.mule_index, it.start_position, turned);
                    let routed =
                        PatrolPlan::new("turned", vec![turned]).with_metric_geometry(s.metric());
                    walks.push(routed.itineraries[0].cycle.clone());
                }
            }
            for walk in &walks {
                let route = MuleRoute::from_walk(walk, field);
                for (i, v) in route.vertices.iter().enumerate() {
                    let kind = v.node.and_then(|id| field.node(id)).map(|n| n.kind);
                    assert_eq!(v.kind, kind, "vertex {i}");
                    let destination = destination_oracle(&route, i);
                    assert_eq!(
                        v.towards_station,
                        destination.is_some() && destination == station
                    );
                    let next = &route.vertices[(i + 1) % route.len()];
                    assert_eq!(
                        v.leg_m.to_bits(),
                        v.position.distance(&next.position).to_bits()
                    );
                    if v.node.is_none() {
                        bends += 1;
                        bends_to_station += usize::from(v.towards_station);
                    }
                }
            }
        }
        assert!(bends > 0, "road itineraries have bends");
        assert!(bends_to_station > 0, "some road bend leads to the station");
    }

    /// Delegates to B-TCTP and keeps the inactive targets of every call.
    struct RecordingReplanner {
        inner: patrol_core::ReplanWithPlanner<BTctp>,
        seen: std::cell::RefCell<Vec<Vec<NodeId>>>,
    }

    impl RecordingReplanner {
        fn new() -> Self {
            RecordingReplanner {
                inner: patrol_core::ReplanWithPlanner::new(BTctp::new()),
                seen: Default::default(),
            }
        }
    }

    impl Replanner for RecordingReplanner {
        fn name(&self) -> &'static str {
            "recording"
        }

        fn replan(&self, ctx: &ReplanContext<'_>) -> Result<PatrolPlan, patrol_core::PlanError> {
            self.seen.borrow_mut().push(ctx.inactive_targets.to_vec());
            self.inner.replan(ctx)
        }
    }

    fn dynamic(
        s: &Scenario,
        plan: &PatrolPlan,
        disruptions: Vec<Disruption>,
        replanner: Option<&dyn Replanner>,
    ) -> crate::DynamicOutcome {
        let disruptions = DisruptionPlan { disruptions };
        let mut sim = crate::DynamicSimulation::new(s, plan, &disruptions)
            .with_config(SimulationConfig::timing_only());
        if let Some(r) = replanner {
            sim = sim.with_replanner(r);
        }
        sim.run_for(30_000.0)
    }

    #[test]
    fn replanners_see_inactive_targets_ascending_and_once() {
        let s = scenario(43);
        let plan = BTctp::new().plan(&s).unwrap();
        let targets = s.field().target_ids();
        let (late, failed) = (targets[2], targets[7]);
        let recorder = RecordingReplanner::new();
        let disruptions = vec![
            Disruption::TargetFailure {
                target: failed,
                at_s: 4_000.0,
            },
            // A second failure of the same target must not list it twice.
            Disruption::TargetFailure {
                target: failed,
                at_s: 6_000.0,
            },
            Disruption::TargetArrival {
                target: late,
                at_s: 9_000.0,
            },
        ];
        let outcome = dynamic(&s, &plan, disruptions, Some(&recorder));
        assert_eq!(outcome.replan_count(), 3);
        let seen = recorder.seen.into_inner();
        assert_eq!(
            seen,
            vec![vec![late, failed], vec![late, failed], vec![failed]]
        );
    }

    #[test]
    fn disruptions_outside_the_field_are_ignored() {
        let s = scenario(43);
        let plan = BTctp::new().plan(&s).unwrap();
        let outside = NodeId(s.field().len() + 5);
        let stray = vec![
            Disruption::TargetArrival {
                target: outside,
                at_s: 2_000.0,
            },
            Disruption::TargetFailure {
                target: outside,
                at_s: 3_000.0,
            },
            Disruption::TargetRecovery {
                target: outside,
                at_s: 5_000.0,
            },
        ];
        let plain = dynamic(&s, &plan, Vec::new(), None);
        let with_stray = dynamic(&s, &plan, stray.clone(), None);
        assert_eq!(with_stray.outcome, plain.outcome);
        assert_eq!(with_stray.timeline.len(), 3);

        // A replanner still runs at each stray disruption, but never sees
        // the unknown id.
        let recorder = RecordingReplanner::new();
        let replanned = dynamic(&s, &plan, stray, Some(&recorder));
        assert_eq!(replanned.replan_count(), 3);
        assert!(recorder.seen.into_inner().iter().all(Vec::is_empty));
    }

    #[test]
    fn simulation_is_deterministic() {
        let s = scenario(31);
        let plan = BTctp::new().plan(&s).unwrap();
        let a = Simulation::new(&s, &plan).run_for(20_000.0);
        let b = Simulation::new(&s, &plan).run_for(20_000.0);
        assert_eq!(a, b);
    }
}
