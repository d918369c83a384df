//! The `figures` runner: every figure and table of the paper's evaluation
//! by name, at the paper's size or at its `--quick` size.

use crate::ablations::{self, RechargeAblationParams, SpreadAblationParams};
use crate::fig7::{self, Fig7Params};
use crate::fig8::{self, Fig8Params};
use crate::fig9::{self, VipSweepParams};
use crate::pathlen::{self, PathLenParams};
use mule_metrics::TextTable;
use std::io::{self, Write};

/// One run of a figure: its size and where it writes.
pub struct Run<'a> {
    /// Run the reduced `--quick` sweep instead of the paper's.
    pub quick: bool,
    /// Print the tables as CSV instead of aligned text.
    pub csv: bool,
    /// Receives the tables.
    pub out: &'a mut dyn Write,
    /// Receives the captions and summaries.
    pub log: &'a mut dyn Write,
}

impl Run<'_> {
    /// The paper's parameters, reduced by `quick` on a quick run: each
    /// figure's `--quick` size is defined here, once.
    fn params<P: Default>(&self, quick: impl FnOnce(P) -> P) -> P {
        if self.quick {
            quick(P::default())
        } else {
            P::default()
        }
    }

    fn table(&mut self, table: &TextTable) -> io::Result<()> {
        let text = if self.csv {
            table.to_csv()
        } else {
            table.render()
        };
        self.out.write_all(text.as_bytes())
    }
}

/// Runs one figure.
pub type Figure = fn(&mut Run) -> io::Result<()>;

/// Every figure, under the name `figures` takes on its command line.
pub const FIGURES: [(&str, Figure); 7] = [
    ("fig7", run_fig7),
    ("fig8", run_fig8),
    ("fig9", run_fig9),
    ("fig10", run_fig10),
    ("table_pathlen", run_pathlen),
    ("ablation_recharge", run_recharge_ablation),
    ("ablation_spread", run_spread_ablation),
];

/// The figure called `name`, if there is one.
pub fn find(name: &str) -> Option<Figure> {
    FIGURES.iter().find(|(n, _)| *n == name).map(|&(_, f)| f)
}

fn run_fig7(run: &mut Run) -> io::Result<()> {
    let p = run.params(|paper| Fig7Params {
        replicas: 5,
        horizon_s: 60_000.0,
        ..paper
    });
    writeln!(
        run.log,
        "Figure 7: DCDT vs visit index ({} targets, {} mules, {} replicas)",
        p.targets, p.mules, p.replicas
    )?;
    let series = fig7::run(&p);
    run.table(&fig7::table(&series))?;
    writeln!(run.log)?;
    for s in &series {
        let (planner, oscillation) = (&s.planner, s.oscillation());
        writeln!(
            run.log,
            "{planner:<8} steady-state oscillation: {oscillation:.1} s"
        )?;
    }
    Ok(())
}

fn run_fig8(run: &mut Run) -> io::Result<()> {
    let p = run.params(|paper| Fig8Params {
        target_counts: vec![10, 20],
        mule_counts: vec![2, 4, 8],
        replicas: 5,
        horizon_s: 60_000.0,
        ..paper
    });
    let caption = "Figure 8: SD of visiting interval, CHB vs TCTP";
    writeln!(run.log, "{caption} ({} replicas per cell)", p.replicas)?;
    run.table(&fig8::table(&fig8::run(&p)))
}

fn run_fig9(run: &mut Run) -> io::Result<()> {
    let p = vip_grid_params(run);
    let caption = "Figure 9: average DCDT vs #VIP × weight";
    writeln!(
        run.log,
        "{caption} ({} targets, {} replicas per cell)",
        p.targets, p.replicas
    )?;
    run.table(&fig9::dcdt_table(&fig9::run(&p)))
}

fn run_fig10(run: &mut Run) -> io::Result<()> {
    let p = vip_grid_params(run);
    let caption = "Figure 10: average SD of VIP visiting intervals vs #VIP × weight";
    writeln!(run.log, "{caption} ({} replicas per cell)", p.replicas)?;
    run.table(&fig9::sd_table(&fig9::run(&p)))
}

/// Figures 9 and 10 share one grid.
fn vip_grid_params(run: &Run) -> VipSweepParams {
    run.params(|paper| VipSweepParams {
        vip_counts: vec![1, 4, 8],
        vip_weights: vec![2, 4],
        replicas: 5,
        horizon_s: 80_000.0,
        ..paper
    })
}

fn run_pathlen(run: &mut Run) -> io::Result<()> {
    let p = run.params(|paper| PathLenParams {
        target_counts: vec![10, 20, 30],
        replicas: 5,
        ..paper
    });
    let titles = [
        "Hamiltonian-circuit length by construction heuristic (m)",
        "WPP length by break-edge policy (m)",
        "WRP recharge-detour overhead (m)",
    ];
    let tables = [
        pathlen::tour_length_table,
        pathlen::wpp_overhead_table,
        pathlen::wrp_overhead_table,
    ];
    for (title, table) in titles.into_iter().zip(tables) {
        writeln!(run.log, "{title}")?;
        run.table(&table(&p))?;
        writeln!(run.out)?;
    }
    Ok(())
}

fn run_recharge_ablation(run: &mut Run) -> io::Result<()> {
    let p = run.params(|paper| RechargeAblationParams {
        battery_capacities_j: vec![40_000.0, 160_000.0],
        replicas: 4,
        horizon_s: 60_000.0,
        ..paper
    });
    let caption = "RW-TCTP recharge ablation";
    writeln!(run.log, "{caption} ({} replicas per row)", p.replicas)?;
    run.table(&ablations::recharge_ablation(&p))
}

fn run_spread_ablation(run: &mut Run) -> io::Result<()> {
    let p = run.params(|paper| SpreadAblationParams {
        mule_counts: vec![2, 6],
        replicas: 4,
        horizon_s: 50_000.0,
        ..paper
    });
    let caption = "B-TCTP start-point-spreading ablation";
    writeln!(run.log, "{caption} ({} replicas per row)", p.replicas)?;
    run.table(&ablations::spread_ablation(&p))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn every_figure_resolves_by_name_and_unknown_names_do_not() {
        let names = [
            "fig7",
            "fig8",
            "fig9",
            "fig10",
            "table_pathlen",
            "ablation_recharge",
            "ablation_spread",
        ];
        assert_eq!(FIGURES.map(|(name, _)| name), names);
        for name in names {
            assert!(find(name).is_some(), "{name}");
        }
        for unknown in ["", "fig11", "Fig7", "--quick", "pathlen"] {
            assert!(find(unknown).is_none(), "{unknown:?}");
        }
    }
}
