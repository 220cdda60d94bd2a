//! The repo's benchmark. See `benchmark/README.md`.
//!
//! ```text
//! ipipe-benchmark [--seed N] [--seconds S | --smoke] [--traced] [--check-repeat]
//!     all four workloads, tables for people
//! ipipe-benchmark --workload W --seed N --seconds S --trace 0|1
//!     one workload; the last stdout line is the driver's JSON object
//! ```

mod alloc;
mod calib;
mod catalog;
mod child;
mod probes;
mod spans;
mod stats;
mod suite;
mod workloads;

use std::process::ExitCode;

#[global_allocator]
static GLOBAL: alloc::CountingAlloc = alloc::CountingAlloc;

const USAGE: &str = "usage: ipipe-benchmark [--seed N] [--seconds S | --smoke] [--traced] \
[--check-repeat] [--out DIR]\n       ipipe-benchmark --workload NAME --seed N --seconds S --trace 0|1 [--out DIR]\n\
workloads: rkv-steady pod-par2 tcp-lossy dse-grid";

/// `--seconds` the driver passes (`run_seconds` in BENCHMARK.json).
const DEFAULT_SECONDS: f64 = 20.0;
/// `--smoke`: every size divided by 80 against ISSUE 11's full sizes, so
/// the whole suite ends within 30 s.
const SMOKE_SECONDS: f64 = 3.0;

/// Flags with a value, flags without, in the order given.
struct Args {
    valued: Vec<(String, String)>,
    bare: Vec<String>,
}

impl Args {
    fn parse(raw: impl Iterator<Item = String>) -> Result<Args, String> {
        const BARE: [&str; 6] = [
            "--smoke",
            "--traced",
            "--check-repeat",
            "--serial",
            "--threaded",
            "--trace-ring",
        ];
        const VALUED: [&str; 9] = [
            "--seed",
            "--seconds",
            "--workload",
            "--trace",
            "--out",
            "--child",
            "--scale",
            "--trace-out",
            "--ops",
        ];
        let mut args = Args {
            valued: Vec::new(),
            bare: Vec::new(),
        };
        let mut raw = raw;
        while let Some(a) = raw.next() {
            if BARE.contains(&a.as_str()) {
                args.bare.push(a);
            } else if VALUED.contains(&a.as_str()) {
                let v = raw.next().ok_or_else(|| format!("{a} needs a value"))?;
                args.valued.push((a, v));
            } else {
                return Err(format!("unknown argument {a}"));
            }
        }
        Ok(args)
    }

    fn has(&self, flag: &str) -> bool {
        self.bare.iter().any(|f| f == flag)
    }

    fn get(&self, flag: &str) -> Option<&str> {
        self.valued
            .iter()
            .rev()
            .find(|(f, _)| f == flag)
            .map(|(_, v)| v.as_str())
    }

    fn num<T: std::str::FromStr>(&self, flag: &str, default: T) -> Result<T, String> {
        match self.get(flag) {
            None => Ok(default),
            Some(v) => v
                .parse()
                .map_err(|_| format!("{flag}: cannot read {v:?} as a number")),
        }
    }
}

fn run(args: &Args) -> Result<bool, String> {
    if let Some(kind) = args.get("--child") {
        return match kind {
            "probes" => {
                child::run_probes(args.num("--ops", 1_000_000)?);
                Ok(true)
            }
            "rep" => {
                let p = workloads::Params {
                    seed: args.num("--seed", 64)?,
                    scale: args.num("--scale", 1.0)?,
                    pod: if args.has("--serial") {
                        workloads::PodMode::Serial
                    } else if args.has("--threaded") {
                        workloads::PodMode::Threaded
                    } else {
                        workloads::PodMode::Inline
                    },
                    trace_ring: args.has("--trace-ring"),
                };
                let workload = args
                    .get("--workload")
                    .ok_or("--child rep needs --workload")?;
                child::repetition(workload, &p, args.get("--trace-out"))?;
                Ok(true)
            }
            other => Err(format!("unknown child kind {other}")),
        };
    }
    let smoke = args.has("--smoke");
    let seconds: f64 = args.num(
        "--seconds",
        if smoke {
            SMOKE_SECONDS
        } else {
            DEFAULT_SECONDS
        },
    )?;
    if !(seconds > 0.0 && seconds <= 600.0) {
        return Err(format!("--seconds {seconds} is outside (0, 600]"));
    }
    let cfg = suite::Cfg {
        seed: args.num("--seed", 64)?,
        seconds,
        out_dir: args.get("--out").unwrap_or("benchmark/out").to_string(),
    };
    match args.get("--workload") {
        Some(name) => {
            let workload = workloads::NAMES
                .iter()
                .find(|n| **n == name)
                .ok_or_else(|| format!("unknown workload {name}\n{USAGE}"))?;
            let trace = match args.get("--trace").unwrap_or("0") {
                "0" => false,
                "1" => true,
                other => return Err(format!("--trace takes 0 or 1, not {other}")),
            };
            suite::driver(workload, &cfg, trace)
        }
        None => suite::suite(
            &cfg,
            suite::SuiteOpts {
                traced_only: args.has("--traced"),
                check_repeat: args.has("--check-repeat"),
                smoke,
            },
        ),
    }
}

fn main() -> ExitCode {
    let args = match Args::parse(std::env::args().skip(1)) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("{e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    match run(&args) {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::FAILURE,
        Err(e) => {
            eprintln!("error: {e}");
            ExitCode::from(2)
        }
    }
}
