//! One entry point for the paper's figures: `all` regenerates every
//! table and figure in one process, `all <name>` one of them,
//! `all csv [<path>]` the plotting CSV and `all diag` the calibration
//! probe. The names are `fam_bench::figs::TABLE`.

use std::process::ExitCode;

fn main() -> ExitCode {
    fam_sim::exit_quietly_on_broken_pipe();
    let args: Vec<String> = std::env::args().skip(1).collect();
    match fam_bench::figs::run(&args) {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("all: {e}");
            ExitCode::FAILURE
        }
    }
}
