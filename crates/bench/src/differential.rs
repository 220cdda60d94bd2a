//! Differential oracle (DESIGN.md §11): re-run a scenario under mechanisms
//! that must not change a single observable result, and byte-diff the
//! exported metric snapshots.
//!
//! Two pure-mechanism axes exist in the DES, each introduced as a
//! performance optimisation with an explicit "semantically invisible"
//! contract:
//!
//! * the parallel sweep runner vs a serial sweep
//!   ([`ipipe_sim::sweep::parallel_sweep`] with `workers = 1`),
//! * the sharded engine vs the serial one, for every registered
//!   [`Scenario`] under each shard count it declares.
//!
//! The unit/property suites already pin these at the data-structure level;
//! the oracle closes the remaining gap by diffing *whole scenarios* — every
//! counter, gauge and histogram the run exports — so a divergence anywhere
//! in the stack (scheduler, rings, faults, Paxos) surfaces as a one-line
//! mismatch instead of a subtly wrong figure. (The event queue is checked
//! against its ordered-map reference by `crates/sim/tests/queue_ref.rs`.)

use crate::scenario::{render_headline, run_export, Scenario, Size};
use ipipe_baseline::fig16::run_fig16_obs;
use ipipe_nicsim::CN2350;
use ipipe_sim::obs::Obs;
use ipipe_sim::sweep::{default_workers, parallel_sweep};
use ipipe_workload::service::{fig16_distribution, Dispersion, Fig16Card};

/// One scenario run per mechanism variant: a label and the full metric
/// snapshot it exported, in the registry's canonical JSONL form.
pub struct DiffOutcome {
    /// `(variant label, snapshot)` pairs; index 0 is the reference.
    pub variants: Vec<(String, String)>,
}

impl DiffOutcome {
    /// True when every variant exported a byte-identical snapshot.
    pub fn identical(&self) -> bool {
        self.divergent().is_empty()
    }

    /// Labels of the variants whose snapshot differs from the reference.
    pub fn divergent(&self) -> Vec<&str> {
        let Some((_, reference)) = self.variants.first() else {
            return Vec::new();
        };
        self.variants
            .iter()
            .skip(1)
            .filter(|(_, snap)| snap != reference)
            .map(|(label, _)| label.as_str())
            .collect()
    }

    /// One-line human summary (CI log line).
    pub fn render(&self) -> String {
        if self.identical() {
            format!(
                "differential: {} variants byte-identical ({} bytes each)",
                self.variants.len(),
                self.variants.first().map(|(_, s)| s.len()).unwrap_or(0)
            )
        } else {
            format!(
                "differential: DIVERGED — {:?} disagree with {}",
                self.divergent(),
                self.variants[0].0
            )
        }
    }

    /// First differing line between the reference and the first divergent
    /// variant — enough to name the metric that broke, without dumping
    /// whole snapshots into a CI log.
    pub fn first_divergence(&self) -> Option<String> {
        let (_, reference) = self.variants.first()?;
        let (label, snap) = self.variants.iter().skip(1).find(|(_, s)| s != reference)?;
        for (a, b) in reference.lines().zip(snap.lines()) {
            if a != b {
                return Some(format!("{label}: `{a}` vs `{b}`"));
            }
        }
        Some(format!(
            "{label}: line counts differ ({} vs {})",
            reference.lines().count(),
            snap.lines().count()
        ))
    }
}

/// Run a small Fig 16 grid through [`parallel_sweep`] serially and with the
/// machine's worker count, and diff the per-cell snapshots. Each cell builds
/// its own [`Obs`] inside the worker, so the only thing that changes between
/// the variants is which OS thread executes which cell, in which order.
pub fn diff_fig16_parallel(requests: u64, seed: u64) -> DiffOutcome {
    use ipipe::sched::{Discipline, SchedConfig};
    let dist = fig16_distribution(Fig16Card::LiquidIo, Dispersion::High);
    let cells: Vec<(Discipline, f64)> = [
        Discipline::FcfsOnly,
        Discipline::DrrOnly,
        Discipline::Hybrid,
    ]
    .into_iter()
    .flat_map(|d| [(d, 0.5), (d, 0.9)])
    .collect();
    let run_grid = |workers: usize| -> String {
        parallel_sweep(&cells, workers, |i, &(d, load)| {
            let obs = Obs::disabled();
            let cfg = SchedConfig::for_nic(&CN2350)
                .with_discipline(d)
                .no_migration();
            let p = run_fig16_obs(&CN2350, dist, cfg, load, 8, requests, seed ^ i as u64, &obs);
            format!(
                "cell {i} mean={} p99={} n={}\n{}",
                p.mean,
                p.p99,
                p.completed,
                obs.registry().snapshot().to_jsonl()
            )
        })
        .join("\n---\n")
    };
    DiffOutcome {
        variants: vec![
            ("serial".to_string(), run_grid(1)),
            (
                format!("parallel×{}", default_workers()),
                run_grid(default_workers()),
            ),
        ],
    }
}

/// The sharding axis: run `s` at smoke size under every shard count it
/// declares and diff headline + *canonical* cluster export (metric
/// snapshot, `(ts, node)`-ordered trace and meta line). The 1-shard serial
/// engine is the reference; sharding is a pure execution mechanism and must
/// not move a single byte.
pub fn diff_sharded(s: &dyn Scenario, seed: u64) -> DiffOutcome {
    DiffOutcome {
        variants: s
            .shard_counts()
            .iter()
            .map(|&shards| {
                let (headline, export) = run_export(s, Size::Smoke, seed, shards);
                let label = format!("{shards}-shard");
                (label, format!("{}\n{export}", render_headline(&headline)))
            })
            .collect(),
    }
}

/// The design-space exploration grid as a differential subject: run a tiny
/// DSE grid (4 designs x 3 workloads) serially, under the machine's worker
/// count, and with the cluster-scenario cells sharded 4 ways, and byte-diff
/// the full canonical exports — cell lines, Pareto/recommendation tables
/// and the merged per-cell-prefixed metric snapshot. Cell identity is pure
/// in the spec (`DesignPoint::id`) and per-cell seeds derive from it, so
/// neither sweep scheduling nor shard count may move a byte (DESIGN.md §15).
pub fn diff_dse_grid(seed: u64) -> DiffOutcome {
    use crate::dse::{run_dse, DseSpec};
    let run = |label: &str, workers: usize, shards: usize| {
        let mut spec = DseSpec::tiny(seed);
        spec.workers = workers;
        spec.shards = shards;
        (label.to_string(), run_dse(&spec).export)
    };
    DiffOutcome {
        variants: vec![
            run("serial-1shard", 1, 1),
            run(
                &format!("parallel×{}", default_workers().max(2)),
                default_workers().max(2),
                1,
            ),
            run("parallel-4shard", default_workers().max(2), 4),
        ],
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Scenario-level pin of the sweep runner's determinism claim:
    /// `workers = 1` and `workers = N` produce identical per-cell metric
    /// exports for a Fig 16 grid.
    #[test]
    fn fig16_grid_is_schedule_invariant() {
        let out = diff_fig16_parallel(6_000, 3);
        assert!(
            out.identical(),
            "{}\nfirst divergence: {}",
            out.render(),
            out.first_divergence().unwrap_or_default()
        );
    }

    /// The sharded engine's acceptance gate, one row per registered
    /// scenario: a forced memtable move, crash + failover +
    /// retransmissions, the 64-group keyspace, a 10x spike with admission
    /// sheds, lossy TCP with RTO timers, and the racked grid with its
    /// ALG 1 migrations and mid-run audit all export byte-identical
    /// canonical results under every declared shard count.
    #[test]
    fn every_scenario_is_shard_invariant() {
        for s in crate::scenario::REGISTRY {
            let out = diff_sharded(s, 21);
            let name = s.name();
            assert_eq!(out.variants.len(), s.shard_counts().len(), "{name}");
            assert!(
                out.identical(),
                "{name}: {}\nfirst divergence: {}",
                out.render(),
                out.first_divergence().unwrap_or_default()
            );
            let reference = &out.variants[0].1;
            assert!(reference.lines().count() > 20, "{name}: trivial export");
            // The diff is only meaningful if the scenario did what it exists
            // to do (shed, retransmit, migrate). The reference's first line
            // is its rendered headline.
            let headline = reference.lines().next().unwrap_or_default();
            for key in s.must_be_nonzero() {
                let exercised = headline
                    .split(' ')
                    .filter_map(|kv| kv.split_once('='))
                    .any(|(k, v)| k == *key && v != "0");
                assert!(exercised, "{name}: {key} missing or zero: {headline}");
            }
        }
    }

    /// The DSE acceptance gate: the tiny exploration grid — cluster cells,
    /// scheduler cells, Pareto reduction and the merged prefixed snapshot —
    /// exports byte-identical results whether the sweep runs serially, on
    /// all workers, or with the cluster cells sharded 4 ways.
    #[test]
    fn dse_grid_is_schedule_and_shard_invariant() {
        let out = diff_dse_grid(9);
        assert_eq!(out.variants.len(), 3);
        assert!(
            out.identical(),
            "{}\nfirst divergence: {}",
            out.render(),
            out.first_divergence().unwrap_or_default()
        );
        // Real content: cell lines plus a non-trivial metric snapshot.
        assert!(out.variants[0].1.lines().count() > 20);
        assert!(out.variants[0].1.contains("== dse grid =="));
    }

    #[test]
    fn divergence_reporting_names_the_broken_metric() {
        let out = DiffOutcome {
            variants: vec![
                ("ref".into(), "a 1\nb 2\n".into()),
                ("same".into(), "a 1\nb 2\n".into()),
                ("bad".into(), "a 1\nb 3\n".into()),
            ],
        };
        assert!(!out.identical());
        assert_eq!(out.divergent(), vec!["bad"]);
        let line = out.first_divergence().unwrap();
        assert!(line.contains("bad") && line.contains("b 2") && line.contains("b 3"));
        assert!(out.render().contains("DIVERGED"));
    }
}
