//! One recipe for every whole-cluster scenario (DESIGN.md §11): a
//! [`Scenario`] knows how to build, drive and audit itself at two sizes
//! for any `(seed, shards)`, and hands back its headline numbers plus the
//! cluster. Everything that used to be copied per scenario — the trace
//! viewer's arms, the shard-axis differential cases, the committed figure,
//! the CI smoke lanes — goes through [`REGISTRY`] and never names a
//! scenario. Adding one costs its own file plus one registry line.

use ipipe::rt::Cluster;
use ipipe_sim::obs::Obs;

use crate::figure::{num, text, Table};

/// The two sizes every scenario runs at.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Size {
    /// CI size: well under a second of host time.
    Smoke,
    /// The size the committed figure (`figures scenarios`) uses.
    Full,
}

/// Headline numbers of one run: ordered `(key, formatted value)` pairs.
/// Every entry is a function of simulated state only, so a headline is
/// identical for any shard count (shard-dependent numbers are read from
/// [`Cluster::epoch_stats`] instead).
pub type Headline = Vec<(&'static str, String)>;

/// A whole-cluster scenario the registry can run.
pub trait Scenario: Sync {
    /// Registry key (`traceview --scenario <name>`).
    fn name(&self) -> &'static str;

    /// Seed of this scenario's row in the committed figure.
    fn figure_seed(&self) -> u64;

    /// Shard counts the differential oracle sweeps; index 0 is the serial
    /// reference. (Any `--shards` value runs; the builder clamps it to the
    /// topology.)
    fn shard_counts(&self) -> &'static [usize];

    /// Headline keys that must read non-zero for a run to have exercised
    /// what the scenario exists to exercise (sheds, retransmissions).
    fn must_be_nonzero(&self) -> &'static [&'static str] {
        &[]
    }

    /// Build, drive and audit one run (panicking on a dirty audit).
    /// Scenarios that record traces publish into `obs`; the metrics-only
    /// ones ignore it.
    fn run(&self, size: Size, seed: u64, shards: usize, obs: &Obs) -> (Headline, Cluster);
}

/// Every scenario, in the order figures and help texts list them.
pub static REGISTRY: [&dyn Scenario; 6] = [
    &crate::rkv::Rkv,
    &crate::fault::RkvFault,
    &crate::scale::RkvScale,
    &crate::overload::RkvOverload,
    &crate::tcp::TcpOffload,
    &crate::sharded::Pod,
];

/// Look a scenario up by name.
pub fn find(name: &str) -> Option<&'static dyn Scenario> {
    REGISTRY.iter().copied().find(|s| s.name() == name)
}

/// The registered names, comma-separated (help texts and error messages).
pub fn names() -> String {
    let names: Vec<&str> = REGISTRY.iter().map(|s| s.name()).collect();
    names.join(", ")
}

/// Run metrics-only and return the headline plus the canonical export —
/// the byte string that must not depend on the shard count.
pub fn run_export(s: &dyn Scenario, size: Size, seed: u64, shards: usize) -> (Headline, String) {
    let (headline, c) = s.run(size, seed, shards, &Obs::disabled());
    (headline, c.export_canonical_jsonl())
}

/// `key=value key=value …` on one line.
pub fn render_headline(headline: &Headline) -> String {
    let cells: Vec<String> = headline.iter().map(|(k, v)| format!("{k}={v}")).collect();
    cells.join(" ")
}

/// The committed scenario figure: every registered scenario at full size
/// under its figure seed and its largest declared shard count — the epoch
/// count and critical-path speedup that sharding exposed, one headline
/// note each — then the TCP placement × loss table.
pub fn scenarios() -> Vec<Table> {
    let mut table = Table::new(
        "scenarios — full size, simulated values only",
        ["scenario", "seed", "shards", "epochs", "crit-path speedup"],
        Vec::new(),
    );
    for s in REGISTRY {
        let shards = *s.shard_counts().last().expect("at least the serial count");
        let (headline, c) = s.run(Size::Full, s.figure_seed(), shards, &Obs::disabled());
        let epochs = c.epoch_stats();
        table.rows.push(vec![
            text(s.name()),
            num(s.figure_seed() as f64, 0),
            num(shards as f64, 0),
            num(epochs.epochs as f64, 0),
            num(epochs.speedup(), 2),
        ]);
        let headline = vec![text(render_headline(&headline))];
        table.notes.push((s.name().to_string(), headline));
    }
    vec![table, crate::tcp::placement_loss()]
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::BTreeSet;

    /// Registry conformance: what every consumer relies on, checked for
    /// every scenario at smoke size. Byte-identity across the declared
    /// shard counts, and that each run exercised what it exists to
    /// exercise, is `differential::tests::every_scenario_is_shard_invariant`.
    #[test]
    fn registry_conformance() {
        let names: BTreeSet<&str> = REGISTRY.iter().map(|s| s.name()).collect();
        assert_eq!(names.len(), REGISTRY.len(), "duplicate scenario name");
        assert!(find("no-such-scenario").is_none());
        for s in REGISTRY {
            let name = s.name();
            assert_eq!(find(name).map(|f| f.name()), Some(name));
            assert_eq!(s.shard_counts().first(), Some(&1), "{name}: serial first");
            let (headline, c) = s.run(Size::Smoke, 11, 1, &Obs::disabled());
            let export = c.export_canonical_jsonl();
            assert!(export.lines().count() > 20, "{name}: trivial export");
            c.audit().assert_clean();
            assert_eq!(
                (headline, export),
                run_export(s, Size::Smoke, 11, 1),
                "{name}: same-seed runs diverged"
            );
        }
    }

    /// `check.sh` lists the scenarios by hand and `export_diff.sh` reads
    /// that list: a scenario missing from it would go unchecked silently.
    #[test]
    fn check_sh_runs_every_registered_scenario() {
        let lists: Vec<Vec<&str>> = include_str!("../../../scripts/check.sh")
            .lines()
            .filter_map(|l| {
                l.trim()
                    .strip_prefix("for scenario in ")?
                    .strip_suffix("; do")
            })
            .map(|l| l.split_whitespace().collect())
            .collect();
        let registry: Vec<&str> = REGISTRY.iter().map(|s| s.name()).collect();
        assert_eq!(lists, [registry]);
    }
}
