//! Experiment implementations for every table and figure in the paper's
//! evaluation. [`figure::FIGURES`] lists them; the `figures` binary prints
//! them as text tables; EXPERIMENTS.md records paper-vs-measured values.
//!
//! Each figure function returns plain data — [`figure::Table`]s whose
//! cells keep the number beside the text — so the binary and the tests
//! share one implementation.

pub mod apps_harness;
pub mod characterization;
pub mod differential;
pub mod dse;
pub mod evaluation;
pub mod fault;
pub mod figure;
pub mod overload;
pub mod pareto;
pub mod rkv;
pub mod scale;
pub mod scenario;
pub mod sharded;
pub mod tcp;

#[cfg(test)]
mod tests {
    use crate::figure::{text, Table};

    #[test]
    fn table_renders_aligned() {
        let rows = vec![vec![text("1"), text("2")], vec![text("333"), text("4")]];
        assert_eq!(
            Table::new("t", ["a", "long-header"], rows).render(),
            "== t ==\n  a  long-header\n  1            2\n333            4\n"
        );
    }
}
