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

/// Render a text table: header row + aligned columns.
pub fn render_table(title: &str, header: &[&str], rows: &[Vec<String>]) -> String {
    let mut widths: Vec<usize> = header.iter().map(|h| h.len()).collect();
    for r in rows {
        for (i, c) in r.iter().enumerate() {
            if i < widths.len() {
                widths[i] = widths[i].max(c.len());
            }
        }
    }
    let mut out = String::new();
    out.push_str(&format!("== {title} ==\n"));
    let fmt_row = |cells: Vec<String>, widths: &[usize]| -> String {
        cells
            .iter()
            .enumerate()
            .map(|(i, c)| format!("{:>w$}", c, w = widths.get(i).copied().unwrap_or(8)))
            .collect::<Vec<_>>()
            .join("  ")
    };
    out.push_str(&fmt_row(
        header.iter().map(|s| s.to_string()).collect(),
        &widths,
    ));
    out.push('\n');
    for r in rows {
        out.push_str(&fmt_row(r.clone(), &widths));
        out.push('\n');
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table_renders_aligned() {
        let s = render_table(
            "t",
            &["a", "long-header"],
            &[vec!["1".into(), "2".into()], vec!["333".into(), "4".into()]],
        );
        assert_eq!(
            s,
            "== t ==\n  a  long-header\n  1            2\n333            4\n"
        );
    }
}
