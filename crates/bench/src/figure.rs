//! One recipe per figure: every table the `figures` binary prints is a
//! [`Figure`] in [`FIGURES`], built as [`Table`]s whose cells keep the number
//! beside the text they print. The binary, its help text, the group targets
//! and the tests all iterate the registry and never name a figure; adding
//! one costs its function plus one entry here.

use crate::dse::{run_dse, DseSpec};
use crate::{characterization as ch, evaluation as ev, scenario};
use ipipe_nicsim::{CN2350, CN2360, STINGRAY_PS225};
use ipipe_sim::sweep::{default_workers, parallel_sweep};
use std::collections::BTreeSet;

/// One printed cell: the text, and the number it was formatted from.
#[derive(Debug, Clone, PartialEq)]
pub struct Cell {
    /// What the table prints.
    pub text: String,
    /// The value behind the text; `None` for labels and `N/A`.
    pub value: Option<f64>,
}

/// A number printed with `precision` decimals.
pub fn num(value: f64, precision: usize) -> Cell {
    Cell {
        text: format!("{value:.precision$}"),
        value: Some(value),
    }
}

/// A label.
pub fn text(text: impl Into<String>) -> Cell {
    Cell {
        text: text.into(),
        value: None,
    }
}

/// A packet or payload size, printed `{n}B`.
pub fn bytes(n: u32) -> Cell {
    num(f64::from(n), 0).unit("B")
}

impl Cell {
    /// The same cell with `unit` appended to what it prints (`512B`, `13.1%`).
    pub fn unit(mut self, unit: &str) -> Cell {
        self.text.push_str(unit);
        self
    }
}

/// One text table: a title, a header, rows, and trailing `label: cells` lines.
#[derive(Debug, Clone, PartialEq)]
pub struct Table {
    /// Printed as `== title ==`.
    pub title: String,
    /// Column names.
    pub header: Vec<String>,
    /// Rows; the first cell of a row is its label.
    pub rows: Vec<Vec<Cell>>,
    /// Lines under the table, each `label: cell  cell …`.
    pub notes: Vec<(String, Vec<Cell>)>,
}

impl Table {
    /// A table without notes.
    pub fn new(
        title: impl Into<String>,
        header: impl IntoIterator<Item = impl Into<String>>,
        rows: Vec<Vec<Cell>>,
    ) -> Table {
        Table {
            title: title.into(),
            header: header.into_iter().map(Into::into).collect(),
            rows,
            notes: Vec::new(),
        }
    }

    /// The cell of the row labelled `row` under the first column named `col`.
    pub fn cell(&self, row: &str, col: &str) -> &Cell {
        let c = self.header.iter().position(|h| h == col);
        let r = self.rows.iter().find(|r| r[0].text == row);
        let cell = r.zip(c).and_then(|(r, c)| r.get(c));
        cell.unwrap_or_else(|| panic!("{}: no cell in row {row:?}, column {col:?}", self.title))
    }

    /// The cells of the note labelled `label`.
    pub fn note(&self, label: &str) -> &[Cell] {
        let n = self.notes.iter().find(|(l, _)| l == label);
        &n.unwrap_or_else(|| panic!("{}: no note {label:?}", self.title))
            .1
    }

    /// The table as text: `== title ==`, the header and the rows with every
    /// column right-aligned to its widest text, two spaces apart, then the
    /// notes. Panics on a row that is not header-wide: [`ledger_diff`] names
    /// each cell by its column.
    pub fn render(&self) -> String {
        if let Some(r) = self.rows.iter().find(|r| r.len() != self.header.len()) {
            let label = r.first().map(|c| &c.text);
            panic!("{}: row {label:?} is not header-wide", self.title);
        }
        let texts = |cells: &[Cell]| cells.iter().map(|c| c.text.clone()).collect::<Vec<_>>();
        let rows: Vec<Vec<String>> = self.rows.iter().map(|r| texts(r)).collect();
        let mut widths: Vec<usize> = self.header.iter().map(String::len).collect();
        for r in &rows {
            for (w, c) in widths.iter_mut().zip(r) {
                *w = (*w).max(c.len());
            }
        }
        let line = |cells: &[String]| {
            let padded = cells.iter().zip(&widths).map(|(c, w)| format!("{c:>w$}"));
            padded.collect::<Vec<_>>().join("  ") + "\n"
        };
        let mut out = format!("== {} ==\n{}", self.title, line(&self.header));
        out.extend(rows.iter().map(|r| line(r)));
        for (label, cells) in &self.notes {
            out.push_str(&format!("{label}: {}\n", texts(cells).join("  ")));
        }
        out
    }
}

/// Which part of the paper a figure belongs to; each is also a target that
/// runs its members.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Group {
    /// §2.2: Tables 1–3, Figs 2–10.
    Characterization,
    /// §5: Figs 13–18, §5.6, §5.7.
    Evaluation,
    /// Beyond the paper: ablations, YCSB, the whole-cluster scenarios.
    Extension,
}

impl Group {
    /// Every group, in registry order.
    pub const ALL: [Group; 3] = [Characterization, Evaluation, Extension];

    /// The group's target name.
    pub fn name(self) -> &'static str {
        match self {
            Group::Characterization => "characterization",
            Group::Evaluation => "evaluation",
            Group::Extension => "extensions",
        }
    }
}

/// One `figures` target.
pub struct Figure {
    /// Target name.
    pub name: &'static str,
    /// Other names that select it (a table shared by two paper figures).
    pub aliases: &'static [&'static str],
    /// The group target it also runs under.
    pub group: Group,
    /// What the paper shows there.
    pub paper: &'static str,
    /// Run the experiment; `quick` shrinks the Fig 16 sweeps.
    pub build: fn(quick: bool) -> Vec<Table>,
}

use Group::{Characterization, Evaluation, Extension};

/// Every figure, in the order `figures all` prints them.
pub static FIGURES: &[Figure] = &[
    Figure {
        name: "table1",
        aliases: &[],
        group: Characterization,
        paper: "Table 1: specifications of the four SmartNICs",
        build: |_| vec![ch::table1()],
    },
    Figure {
        name: "table2",
        aliases: &[],
        group: Characterization,
        paper: "Table 2: memory access latency per level, three cards and the host",
        build: |_| vec![ch::table2()],
    },
    Figure {
        name: "fig2",
        aliases: &[],
        group: Characterization,
        paper: "Fig 2: bandwidth vs NIC cores, CN2350 10GbE, six packet sizes",
        build: |_| vec![ch::fig23(&CN2350, "Fig 2")],
    },
    Figure {
        name: "fig3",
        aliases: &[],
        group: Characterization,
        paper: "Fig 3: bandwidth vs NIC cores, Stingray 25GbE",
        build: |_| vec![ch::fig23(&STINGRAY_PS225, "Fig 3")],
    },
    Figure {
        name: "fig4",
        aliases: &[],
        group: Characterization,
        paper: "Fig 4: bandwidth vs per-packet processing latency, 256B/1024B, both cards",
        build: |_| vec![ch::fig4()],
    },
    Figure {
        name: "fig5",
        aliases: &[],
        group: Characterization,
        paper: "Fig 5: avg/p99 echo latency at max throughput, 6 vs 12 cores",
        build: |_| vec![ch::fig5()],
    },
    Figure {
        name: "fig6",
        aliases: &[],
        group: Characterization,
        paper: "Fig 6: send/recv latency, NIC hardware messaging vs host DPDK vs RDMA",
        build: |_| vec![ch::fig6()],
    },
    Figure {
        name: "fig7",
        aliases: &["fig8"],
        group: Characterization,
        paper: "Figs 7+8: blocking/non-blocking DMA latency and throughput, 4B-2KB",
        build: |_| vec![ch::fig78()],
    },
    Figure {
        name: "fig9",
        aliases: &["fig10"],
        group: Characterization,
        paper: "Figs 9+10: RDMA one-sided read/write latency and throughput, BlueField",
        build: |_| vec![ch::fig910()],
    },
    Figure {
        name: "table3",
        aliases: &[],
        group: Characterization,
        paper: "Table 3: eleven offloaded workloads (latency/IPC/MPKI) and the accelerators",
        build: |_| vec![ch::table3_workloads(), ch::table3_accels()],
    },
    Figure {
        name: "fig13",
        aliases: &[],
        group: Evaluation,
        paper: "Fig 13a/b: host cores used, DPDK vs iPipe, five roles, four sizes, 10/25GbE",
        build: |_| vec![ev::fig13(CN2350, "10GbE"), ev::fig13(CN2360, "25GbE")],
    },
    Figure {
        name: "fig14",
        aliases: &[],
        group: Evaluation,
        paper: "Fig 14: latency vs per-core throughput, three applications, 10GbE, 512B",
        build: |_| vec![ev::fig1415(CN2350, "Fig 14, 10GbE")],
    },
    Figure {
        name: "fig15",
        aliases: &[],
        group: Evaluation,
        paper: "Fig 15: the same on 25GbE",
        build: |_| vec![ev::fig1415(CN2360, "Fig 15, 25GbE")],
    },
    Figure {
        name: "fig16",
        aliases: &[],
        group: Evaluation,
        paper: "Fig 16a-d: p99 vs load, FCFS / DRR / iPipe hybrid, low and high dispersion",
        build: |quick| vec![ev::fig16(quick)],
    },
    Figure {
        name: "fig17",
        aliases: &[],
        group: Evaluation,
        paper: "Fig 17: host CPU of host-only RKV with and without the iPipe runtime",
        build: |_| vec![ev::fig17()],
    },
    Figure {
        name: "fig18",
        aliases: &[],
        group: Evaluation,
        paper: "Fig 18: migration time by phase for eight actors under load",
        build: |_| vec![ev::fig18()],
    },
    Figure {
        name: "floem",
        aliases: &[],
        group: Evaluation,
        paper: "§5.6: RTA Gbps per host core, Floem's static placement vs iPipe",
        build: |_| vec![ev::floem()],
    },
    Figure {
        name: "nf",
        aliases: &[],
        group: Evaluation,
        paper: "§5.7: firewall latency under load; IPSec gateway bandwidth, 10/25GbE",
        build: |_| vec![ev::nf()],
    },
    Figure {
        name: "ablate-ewma",
        aliases: &[],
        group: Extension,
        paper: "not in the paper: bookkeeping EWMA weight under the Fig 16 hybrid",
        build: |quick| vec![ev::ablate_ewma(quick)],
    },
    Figure {
        name: "ablate-quantum",
        aliases: &[],
        group: Extension,
        paper: "not in the paper: adaptive vs fixed DRR quantum",
        build: |quick| vec![ev::ablate_quantum(quick)],
    },
    Figure {
        name: "ablate-offpath",
        aliases: &[],
        group: Extension,
        paper: "not in the paper: §3.2.6 shuffle layer vs a dedicated dispatcher core",
        build: |quick| vec![ev::ablate_offpath(quick)],
    },
    Figure {
        name: "ycsb",
        aliases: &[],
        group: Extension,
        paper: "not in the paper (one 95/5 point): RKV under five YCSB mixes",
        build: |_| vec![ev::ycsb()],
    },
    Figure {
        name: "scenarios",
        aliases: &[],
        group: Extension,
        paper: "not in the paper: every registered scenario at full size, TCP placement x loss",
        build: |_| scenario::scenarios(),
    },
    Figure {
        name: "dse",
        aliases: &[],
        group: Extension,
        paper: "not in the paper: Table 3 generalized to 96 synthesized NICs, Pareto + placement",
        build: |_| run_dse(&DseSpec::full(17)).tables(),
    },
];

/// The figure `name` names or aliases.
pub fn find(name: &str) -> Option<&'static Figure> {
    FIGURES
        .iter()
        .find(|f| f.name == name || f.aliases.contains(&name))
}

/// The figures a target stands for, in registry order: everything for
/// `all`, a group's members for its name, else the one figure.
pub fn select(target: &str) -> Option<Vec<&'static Figure>> {
    let members: Vec<&Figure> = FIGURES
        .iter()
        .filter(|f| target == "all" || target == f.group.name())
        .collect();
    if members.is_empty() {
        return find(target).map(|f| vec![f]);
    }
    Some(members)
}

/// Build `figures` — independent seeded experiments — across the machine's
/// cores; the tables come back in the order asked for.
pub fn build(figures: &[&Figure], quick: bool) -> Vec<Table> {
    let built = parallel_sweep(figures, default_workers(), |_, f| (f.build)(quick));
    built.into_iter().flatten().collect()
}

/// What `figures` prints: the tables, one blank line between them.
pub fn render(tables: &[Table]) -> String {
    let rendered: Vec<String> = tables.iter().map(Table::render).collect();
    rendered.join("\n")
}

/// One line per target: name, aliases, what the paper shows.
pub fn help() -> String {
    let mut out = String::from("targets (any number, run in the order given; default: all):\n");
    for f in FIGURES {
        let names = [&[f.name], f.aliases].concat().join("|");
        out.push_str(&format!("  {names:<16}{}\n", f.paper));
    }
    let groups = Group::ALL.map(Group::name);
    out.push_str(&format!("  all, {}: every member\n", groups.join(", ")));
    out
}

/// What moved from `old` (the committed ledger) to `new`, two [`render`]ed
/// outputs; empty when they agree. Each moved number reads `section / row
/// / column: old → new (±x.x%)`, largest relative change first; other
/// changed texts follow, then added and removed rows, notes and sections.
/// Sections match by title; rows, notes and cells by position. A line
/// whose runs between two or more spaces are as many as the header's is a
/// row, named by its fewest leading cells no other row shares; any other
/// is a note, `label: tokens`, a `key=value` token named by its key.
pub fn ledger_diff(old: &str, new: &str) -> String {
    let (old, new) = (sections(old), sections(new));
    let mut out = Vec::new();
    for (title, o) in &old {
        let Some((_, n)) = new.iter().find(|(t, _)| t == title) else {
            out.push((-2.0, format!("removed section: {title}")));
            continue;
        };
        for (kind, ol, nl) in [("row", &o[0], &n[0]), ("note", &o[1], &n[1])] {
            for (a, b) in ol.iter().zip(nl) {
                line_diff(title, a, b, &mut out);
            }
            let gone = ol.iter().skip(nl.len()).map(|l| ("removed", l));
            for (what, l) in gone.chain(nl.iter().skip(ol.len()).map(|l| ("added", l))) {
                out.push((-2.0, format!("{what} {kind}: {title} / {}", l.name)));
            }
        }
    }
    let is_new = |(title, _): &&Section| old.iter().all(|(t, _)| t != title);
    for (title, _) in new.iter().filter(is_new) {
        out.push((-2.0, format!("added section: {title}")));
    }
    // Stable: numbers by |relative change|, then texts (-1), then shape (-2).
    out.sort_by(|a: &(f64, String), b| b.0.total_cmp(&a.0));
    out.into_iter().map(|(_, line)| line + "\n").collect()
}

/// A line's name (`header`, a row's key cells, a note's label), text and named cells.
struct Line<'a> {
    name: String,
    text: String,
    cells: Vec<(String, &'a str)>,
}

fn cells(line: &str) -> Vec<&str> {
    let cells = line.split("  ").map(str::trim);
    cells.filter(|c| !c.is_empty()).collect()
}

/// Each `== title ==` block: its title, then its header and rows, and its notes.
fn sections(text: &str) -> Vec<Section<'_>> {
    let blocks = text.split("\n\n").filter(|b| !b.trim().is_empty());
    blocks.map(section).collect()
}

type Section<'a> = (&'a str, [Vec<Line<'a>>; 2]);

fn section<'a>(block: &'a str) -> Section<'a> {
    let mut lines = block.lines();
    let title = lines.next().unwrap_or_default();
    let title = title.trim_start_matches("== ").trim_end_matches(" ==");
    let header = cells(lines.next().unwrap_or_default());
    let (rows, notes): (Vec<_>, Vec<_>) = lines.partition(|l| cells(l).len() == header.len());
    let rows: Vec<Vec<&str>> = rows.into_iter().map(cells).collect();
    let prefixes = |k: &usize| rows.iter().map(|r| &r[..*k]).collect::<BTreeSet<_>>();
    let key = (1..header.len()).find(|k| prefixes(k).len() == rows.len());
    let key = key.unwrap_or(header.len());
    let columns: Vec<String> = header.iter().map(|h| h.to_string()).collect();
    let line = |name: String, cells: &[&'a str]| Line {
        name,
        text: cells.join("  "),
        cells: columns.iter().cloned().zip(cells.to_vec()).collect(),
    };
    let mut lines = vec![line("header".into(), &header)];
    lines.extend(rows.iter().map(|r| line(r[..key].join(" "), r)));
    (title, [lines, notes.into_iter().map(note).collect()])
}

fn note<'a>(raw: &'a str) -> Line<'a> {
    let (label, tokens) = raw.split_once(": ").unwrap_or((raw, ""));
    let named = |(i, t): (usize, &'a str)| match t.split_once('=') {
        Some((key, value)) => (key.to_string(), value),
        None => (format!("#{}", i + 1), t),
    };
    let cells = tokens.split_whitespace().enumerate().map(named).collect();
    let (name, text) = (label.to_string(), raw.to_string());
    Line { name, text, cells }
}

/// Each cell that differs between two lines matched by position, or the
/// whole line when its cells do not pair up or it differs outside them.
fn line_diff(title: &str, old: &Line, new: &Line, out: &mut Vec<(f64, String)>) {
    let before = out.len();
    if old.cells.len() == new.cells.len() {
        let pairs = old.cells.iter().zip(&new.cells).filter(|(o, n)| o.1 != n.1);
        for ((column, o), (_, n)) in pairs {
            out.push(moved(format!("{title} / {} / {column}", old.name), o, n));
        }
    }
    if out.len() == before && old.text != new.text {
        let at = format!("{title} / {}", old.name);
        out.push(moved(at, &old.text, &new.text));
    }
}

/// `at: old → new`, ranked by the relative change when both texts are a
/// number with the same unit after it, else below every number.
fn moved(at: String, old: &str, new: &str) -> (f64, String) {
    match (number(old), number(new)) {
        (Some((a, unit)), Some((b, same))) if unit == same => {
            let rel = if a == b { 0.0 } else { (b - a) / a.abs() };
            let text = format!("{at}: {old} → {new} ({:+.1}%)", 100.0 * rel);
            (rel.abs(), text)
        }
        _ => (-1.0, format!("{at}: {old} → {new}")),
    }
}

/// A cell's leading number and the text after it: `2.69us` → `(2.69, "us")`.
fn number(cell: &str) -> Option<(f64, &str)> {
    let unit = cell.trim_start_matches(|c: char| c.is_ascii_digit() || "+-.".contains(c));
    Some((cell[..cell.len() - unit.len()].parse().ok()?, unit))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn registry_conformance() {
        let mut names = BTreeSet::new();
        for f in FIGURES {
            for n in std::iter::once(&f.name).chain(f.aliases) {
                assert!(names.insert(*n), "{n} names two figures");
                assert_eq!(find(n).map(|g| g.name), Some(f.name));
                assert_eq!(select(n).map(|s| s.len()), Some(1), "{n}");
            }
            assert!(f.paper.len() > 10, "{}: say what the paper shows", f.name);
        }
        for reserved in Group::ALL.map(Group::name).into_iter().chain(["all"]) {
            assert!(!names.contains(reserved), "{reserved} is a group target");
        }
        assert!(find("no-such-figure").is_none() && select("no-such-figure").is_none());
        assert_eq!(select("all").map(|s| s.len()), Some(FIGURES.len()));
        // Every group has members, in one contiguous run of the registry:
        // `all` is the group targets one after the other.
        for g in Group::ALL {
            assert!(select(g.name()).is_some(), "{g:?} is empty");
        }
        assert!(FIGURES
            .windows(2)
            .all(|w| w[0].group as u8 <= w[1].group as u8));
        assert_eq!(help().lines().count(), FIGURES.len() + 2);
    }

    /// A table renders by its cells' texts alone: typed cells print exactly as
    /// text cells holding the same strings.
    #[test]
    fn table_render_equals_render_table_on_the_same_strings() {
        let t = Table::new(
            "t",
            ["size", "long-header", "x"],
            vec![
                vec![num(64.0, 0).unit("B"), num(-0.001, 2), text("N/A")],
                vec![bytes(1500), num(12.345, 1).unit("%"), num(7.0, 0)],
            ],
        );
        let strings = [["64B", "-0.00", "N/A"], ["1500B", "12.3%", "7"]];
        let rows = strings.map(|r| r.map(text).to_vec()).to_vec();
        let plain = Table::new("t", ["size", "long-header", "x"], rows).render();
        assert_eq!(
            plain,
            "== t ==\n size  long-header    x\n  64B        -0.00  N/A\n1500B        12.3%    7\n"
        );
        assert_eq!(t.render(), plain);
        let mut noted = t;
        noted
            .notes
            .push(("needs".into(), vec![num(3.0, 0), text("never")]));
        assert_eq!(noted.render(), format!("{plain}needs: 3  never\n"));
        assert_eq!(noted.cell("1500B", "long-header").value, Some(12.345));
        assert_eq!(noted.cell("64B", "x").value, None);
        assert_eq!(noted.note("needs")[0].value, Some(3.0));
    }

    #[test]
    #[should_panic(expected = "t: row Some(\"1500B\") is not header-wide")]
    fn render_rejects_a_ragged_row() {
        Table::new("t", ["size", "x"], vec![vec![bytes(1500)]]).render();
    }

    /// Moved cells and `key=value` tokens, one ranking; then text, rows, sections.
    #[test]
    fn ledger_diff_names_every_moved_number_largest_first() {
        let old = "== Fig 1 ==\napp  size  mean  p99\nRTA   64B   1.0  100\nRTA  128B   2.0  200\n\
                   RTA  256B   3.0  300\nrkv: issued=10 done=9 p99_us=75.8\n\n== Fig 0 ==\nx\n1\n";
        assert_eq!(ledger_diff(old, old), "");
        let new = "== Fig 1 ==\napp  size  mean  p99\nRTA   64B   1.1  N/A\nRTA  128B   2.0  150\n\
                   rkv: issued=10 done=8 p99_us=80.0\n\n== Fig 2 ==\nx\n1\n";
        assert_eq!(
            ledger_diff(old, new),
            "Fig 1 / RTA 128B / p99: 200 → 150 (-25.0%)\nFig 1 / rkv / done: 9 → 8 (-11.1%)\n\
             Fig 1 / RTA 64B / mean: 1.0 → 1.1 (+10.0%)\nFig 1 / rkv / p99_us: 75.8 → 80.0 (+5.5%)\n\
             Fig 1 / RTA 64B / p99: 100 → N/A\nremoved row: Fig 1 / RTA 256B\n\
             removed section: Fig 0\nadded section: Fig 2\n"
        );
    }

    /// `figures` on `figures` against the ledger's sections they print, or all
    /// of it for the whole registry, so a section nothing prints is caught too.
    fn assert_matches_ledger(figures: &[&Figure]) {
        let ledger = include_str!("../../../figures_output.txt");
        let fresh = render(&build(figures, false));
        let whole = figures.len() == FIGURES.len();
        let title = |s: &str| s.lines().next().unwrap_or_default().to_string();
        let printed: Vec<String> = fresh.split("\n\n").map(title).collect();
        let keep = |s: &&str| whole || printed.contains(&title(s));
        let scoped: Vec<&str> = ledger.split("\n\n").filter(keep).collect();
        let report = ledger_diff(&scoped.join("\n\n"), &fresh);
        assert!(report.is_empty(), "moved against the ledger:\n{report}");
    }

    /// The groups that build in seconds, at the size `figures all` prints.
    /// Not `dse`: its 288 cells take ~18 s in debug on two CPUs (~2.4 s in
    /// release), so `every_figure_matches_the_ledger` pins it.
    #[test]
    fn characterization_and_extensions_match_the_ledger() {
        let groups = ["characterization", "extensions"].map(|g| select(g).unwrap());
        let figures = groups.into_iter().flatten().filter(|f| f.name != "dse");
        assert_matches_ledger(&figures.collect::<Vec<_>>());
    }

    #[test]
    #[ignore = "every figure, ~90 s in release: scripts/check.sh figures"]
    fn every_figure_matches_the_ledger() {
        assert_matches_ledger(&select("all").unwrap());
    }

    /// A group target prints its members' tables in registry order, one
    /// blank line between tables, whatever the worker count built them on.
    #[test]
    fn group_target_is_the_concatenation_of_its_members() {
        let members = select("characterization").unwrap();
        let tables = build(&members, true);
        let one_by_one: Vec<String> = members.iter().map(|f| render(&(f.build)(true))).collect();
        assert_eq!(render(&tables), one_by_one.join("\n"));
        assert_eq!(render(&tables).matches("\n\n").count(), tables.len() - 1);
    }
}
