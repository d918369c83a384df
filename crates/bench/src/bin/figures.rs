//! Regenerates one figure or table of the paper's evaluation:
//! `figures <name> [--quick] [--csv]`. `--quick` runs the reduced sweep;
//! `--csv` emits CSV instead of an aligned table.

use mule_bench::figures::{find, Run, FIGURES};
use std::io;

fn main() -> io::Result<()> {
    let (mut quick, mut csv, mut names) = (false, false, Vec::new());
    for arg in std::env::args().skip(1) {
        match arg.as_str() {
            "--quick" => quick = true,
            "--csv" => csv = true,
            _ => names.push(arg),
        }
    }
    let figure = match &names[..] {
        [name] => find(name),
        _ => None,
    };
    let Some(figure) = figure else {
        let valid: Vec<&str> = FIGURES.iter().map(|(name, _)| *name).collect();
        eprintln!("usage: figures <name> [--quick] [--csv]");
        eprintln!("names: {}", valid.join(", "));
        std::process::exit(2);
    };
    let (out, log) = (&mut io::stdout().lock(), &mut io::stderr());
    figure(&mut Run {
        quick,
        csv,
        out,
        log,
    })
}
