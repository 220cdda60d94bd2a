//! Regenerate the paper's tables and figures as text tables.
//!
//! ```text
//! figures <target> [--quick]
//! ```
//!
//! Targets: `table1 table2 table3 fig2 fig3 fig4 fig5 fig6 fig7 fig8 fig9
//! fig10 fig13 fig14 fig15 fig16 fig17 fig18 floem nf ycsb ablate-ewma
//! ablate-quantum ablate-offpath scenarios characterization evaluation all`.
//! `--quick` shrinks the Fig 16 sweeps for smoke runs.

use ipipe_bench::scenario::render_scenarios;
use ipipe_bench::{characterization as ch, evaluation as ev};
use ipipe_nicsim::{CN2350, CN2360, STINGRAY_PS225};

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let quick = args.iter().any(|a| a == "--quick");
    let target = args
        .iter()
        .find(|a| !a.starts_with("--"))
        .cloned()
        .unwrap_or_else(|| "all".to_string());
    let fig16_requests: u64 = if quick { 20_000 } else { 60_000 };

    let characterization = || {
        print!("{}", ch::render_table1());
        println!();
        print!("{}", ch::render_table2());
        println!();
        print!("{}", ch::render_fig23(&CN2350, "Fig 2"));
        println!();
        print!("{}", ch::render_fig23(&STINGRAY_PS225, "Fig 3"));
        println!();
        print!("{}", ch::render_fig4());
        println!();
        print!("{}", ch::render_fig5());
        println!();
        print!("{}", ch::render_fig6());
        println!();
        print!("{}", ch::render_fig78());
        println!();
        print!("{}", ch::render_fig910());
        println!();
        print!("{}", ch::render_table3_workloads());
        println!();
        print!("{}", ch::render_table3_accels());
        println!();
    };
    let evaluation = || {
        print!("{}", ev::render_fig13(CN2350, "10GbE"));
        println!();
        print!("{}", ev::render_fig13(CN2360, "25GbE"));
        println!();
        print!("{}", ev::render_fig1415(CN2350, "Fig 14, 10GbE"));
        println!();
        print!("{}", ev::render_fig1415(CN2360, "Fig 15, 25GbE"));
        println!();
        print!("{}", ev::render_fig16(fig16_requests));
        println!();
        print!("{}", ev::render_fig17());
        println!();
        print!("{}", ev::render_fig18());
        println!();
        print!("{}", ev::render_floem());
        println!();
        print!("{}", ev::render_nf());
        println!();
    };

    match target.as_str() {
        "table1" => print!("{}", ch::render_table1()),
        "table2" => print!("{}", ch::render_table2()),
        "table3" => {
            print!("{}", ch::render_table3_workloads());
            print!("{}", ch::render_table3_accels());
        }
        "fig2" => print!("{}", ch::render_fig23(&CN2350, "Fig 2")),
        "fig3" => print!("{}", ch::render_fig23(&STINGRAY_PS225, "Fig 3")),
        "fig4" => print!("{}", ch::render_fig4()),
        "fig5" => print!("{}", ch::render_fig5()),
        "fig6" => print!("{}", ch::render_fig6()),
        "fig7" | "fig8" => print!("{}", ch::render_fig78()),
        "fig9" | "fig10" => print!("{}", ch::render_fig910()),
        "fig13" => {
            print!("{}", ev::render_fig13(CN2350, "10GbE"));
            print!("{}", ev::render_fig13(CN2360, "25GbE"));
        }
        "fig14" => print!("{}", ev::render_fig1415(CN2350, "Fig 14, 10GbE")),
        "fig15" => print!("{}", ev::render_fig1415(CN2360, "Fig 15, 25GbE")),
        "fig16" => print!("{}", ev::render_fig16(fig16_requests)),
        "fig17" => print!("{}", ev::render_fig17()),
        "fig18" => print!("{}", ev::render_fig18()),
        "floem" => print!("{}", ev::render_floem()),
        "nf" => print!("{}", ev::render_nf()),
        "ycsb" => print!("{}", ev::render_ycsb()),
        "ablate-ewma" => print!("{}", ev::render_ablate_ewma(fig16_requests)),
        "ablate-offpath" => print!("{}", ev::render_ablate_offpath(fig16_requests)),
        "ablate-quantum" => print!("{}", ev::render_ablate_quantum(fig16_requests)),
        "scenarios" => print!("{}", render_scenarios()),
        "characterization" => characterization(),
        "evaluation" => evaluation(),
        "all" => {
            characterization();
            evaluation();
            print!("{}", ev::render_ablate_ewma(fig16_requests));
            println!();
            print!("{}", ev::render_ablate_quantum(fig16_requests));
            println!();
            print!("{}", ev::render_ablate_offpath(fig16_requests));
            println!();
            print!("{}", ev::render_ycsb());
            println!();
            print!("{}", render_scenarios());
        }
        other => {
            eprintln!("unknown target '{other}'; see the doc comment for the list");
            std::process::exit(2);
        }
    }
}
