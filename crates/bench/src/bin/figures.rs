//! Regenerate the paper's tables and figures as text tables.
//!
//! ```text
//! figures [target ...] [--quick]
//! ```
//!
//! A target is an entry of [`ipipe_bench::figure::FIGURES`] by name or
//! alias, one of its groups, or `all` (the default); `--help` lists them
//! with what the paper shows for each. Every target named runs, in the order
//! given, with one blank line between tables. `--quick` shrinks the Fig 16
//! sweeps for smoke runs.

use ipipe_bench::figure;

fn usage() -> String {
    format!("usage: figures [target ...] [--quick]\n{}", figure::help())
}

fn main() {
    let mut quick = false;
    let mut figures = Vec::new();
    for arg in std::env::args().skip(1) {
        match arg.as_str() {
            "--quick" => quick = true,
            "--help" | "-h" => {
                print!("{}", usage());
                return;
            }
            target => match figure::select(target) {
                Some(selected) => figures.extend(selected),
                None => {
                    eprint!("unknown target '{target}'\n{}", usage());
                    std::process::exit(2);
                }
            },
        }
    }
    if figures.is_empty() {
        figures = figure::select("all").expect("all is a target");
    }
    print!("{}", figure::render(&figure::build(&figures, quick)));
}
