//! The planner table: every planner a front end can name, with its
//! canonical name, accepted aliases, display label and constructor.
//!
//! `patrolctl --planner` and the `mule-serve` API both resolve names
//! here, so the two front ends accept exactly the same spellings and build
//! exactly the same planner for each.

use crate::baselines::{ChbPlanner, RandomPlanner, SweepPlanner};
use crate::{BTctp, BreakEdgePolicy, Planner, RwTctp, WTctp};

/// One row of the planner table.
pub struct PlannerKind {
    /// Canonical name: what `patrolctl` writes into a spec.
    pub name: &'static str,
    /// Other accepted spellings. Matching is ASCII case-insensitive.
    pub aliases: &'static [&'static str],
    /// Label used in comparison tables and sweep headers.
    pub label: &'static str,
    build: fn() -> Box<dyn Planner>,
}

impl PlannerKind {
    /// Resolves a planner name or alias (ASCII case-insensitive).
    pub fn lookup(name: &str) -> Option<&'static PlannerKind> {
        PLANNERS.iter().find(|kind| {
            kind.name.eq_ignore_ascii_case(name)
                || kind.aliases.iter().any(|a| a.eq_ignore_ascii_case(name))
        })
    }

    /// A fresh planner of this kind, with the default circuit construction.
    pub fn build(&self) -> Box<dyn Planner> {
        (self.build)()
    }
}

/// Every planner, in the paper's order: the TCTP family, then the
/// baselines.
pub static PLANNERS: [PlannerKind; 7] = [
    PlannerKind {
        name: "b-tctp",
        aliases: &["btctp", "tctp"],
        label: "B-TCTP",
        build: || Box::new(BTctp::new()),
    },
    PlannerKind {
        name: "w-tctp-shortest",
        aliases: &["w-tctp", "wtctp", "shortest"],
        label: "W-TCTP (shortest)",
        build: || Box::new(WTctp::new(BreakEdgePolicy::ShortestLength)),
    },
    PlannerKind {
        name: "w-tctp-balancing",
        aliases: &["balancing"],
        label: "W-TCTP (balancing)",
        build: || Box::new(WTctp::new(BreakEdgePolicy::BalancingLength)),
    },
    PlannerKind {
        name: "rw-tctp",
        aliases: &["rwtctp"],
        label: "RW-TCTP",
        build: || Box::new(RwTctp::default()),
    },
    PlannerKind {
        name: "chb",
        aliases: &[],
        label: "CHB",
        build: || Box::new(ChbPlanner::new()),
    },
    PlannerKind {
        name: "sweep",
        aliases: &[],
        label: "Sweep",
        build: || Box::new(SweepPlanner::new()),
    },
    PlannerKind {
        name: "random",
        aliases: &[],
        label: "Random",
        build: || Box::new(RandomPlanner::new()),
    },
];
