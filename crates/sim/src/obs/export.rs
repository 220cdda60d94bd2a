//! Deterministic exporters: JSON lines and Chrome `trace_event` JSON.
//!
//! Both formats are produced with hand-rolled string building (no serde —
//! the workspace vendors no JSON crate) and integer-only arithmetic.
//! Chrome timestamps are microseconds; we format them as `<us>.<ns%1000>`
//! with zero-padded fraction so the output is byte-stable across platforms
//! — no floating point ever touches a timestamp.

use super::trace::{TraceEvent, TraceKind};

/// Escape `s` as a JSON string literal (quotes included).
pub fn json_str(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

/// Format nanoseconds as a microsecond decimal (`123.456`) without floats.
fn us(ns: u64) -> String {
    format!("{}.{:03}", ns / 1_000, ns % 1_000)
}

fn write_args(out: &mut String, arg: Option<(&'static str, i64)>) {
    if let Some((k, v)) = arg {
        out.push_str(",\"args\":{");
        out.push_str(&json_str(k));
        out.push(':');
        out.push_str(&v.to_string());
        out.push('}');
    }
}

/// Render trace records as Chrome `trace_event` JSON (object format), which
/// Perfetto and `chrome://tracing` open directly. Events are emitted in a
/// stable order: sorted by timestamp with push order breaking ties.
pub fn chrome_trace(events: &[TraceEvent]) -> String {
    let mut order: Vec<usize> = (0..events.len()).collect();
    order.sort_by_key(|&i| (events[i].ts, i));
    let mut out = String::with_capacity(events.len() * 96 + 64);
    out.push_str("{\"displayTimeUnit\":\"ms\",\"traceEvents\":[");
    for (n, &i) in order.iter().enumerate() {
        let ev = &events[i];
        if n > 0 {
            out.push(',');
        }
        out.push_str("\n{\"name\":");
        out.push_str(&json_str(ev.name));
        out.push_str(",\"cat\":");
        out.push_str(&json_str(ev.cat));
        out.push_str(&format!(
            ",\"pid\":{},\"tid\":{},\"ts\":{}",
            ev.node,
            ev.lane,
            us(ev.ts.as_ns())
        ));
        match ev.kind {
            TraceKind::Span { dur } => {
                out.push_str(&format!(",\"ph\":\"X\",\"dur\":{}", us(dur.as_ns())));
                write_args(&mut out, ev.arg);
            }
            TraceKind::Instant => {
                out.push_str(",\"ph\":\"i\",\"s\":\"t\"");
                write_args(&mut out, ev.arg);
            }
            TraceKind::Sample { value } => {
                // Counter tracks take their value from args; fold the
                // optional extra arg in alongside.
                out.push_str(",\"ph\":\"C\",\"args\":{\"value\":");
                out.push_str(&value.to_string());
                if let Some((k, v)) = ev.arg {
                    out.push(',');
                    out.push_str(&json_str(k));
                    out.push(':');
                    out.push_str(&v.to_string());
                }
                out.push('}');
            }
        }
        out.push('}');
    }
    out.push_str("\n]}\n");
    out
}

/// Render trace records as JSON lines, one record per line, in the order
/// given. Timestamps are integer nanoseconds.
pub fn trace_jsonl(events: &[TraceEvent]) -> String {
    let mut out = String::with_capacity(events.len() * 80);
    for ev in events {
        out.push_str("{\"type\":");
        let ph = match ev.kind {
            TraceKind::Span { .. } => "\"span\"",
            TraceKind::Instant => "\"instant\"",
            TraceKind::Sample { .. } => "\"sample\"",
        };
        out.push_str(ph);
        out.push_str(",\"ts_ns\":");
        out.push_str(&ev.ts.as_ns().to_string());
        if let TraceKind::Span { dur } = ev.kind {
            out.push_str(",\"dur_ns\":");
            out.push_str(&dur.as_ns().to_string());
        }
        if let TraceKind::Sample { value } = ev.kind {
            out.push_str(",\"value\":");
            out.push_str(&value.to_string());
        }
        out.push_str(",\"cat\":");
        out.push_str(&json_str(ev.cat));
        out.push_str(",\"name\":");
        out.push_str(&json_str(ev.name));
        out.push_str(&format!(",\"node\":{},\"lane\":{}", ev.node, ev.lane));
        if let Some((k, v)) = ev.arg {
            out.push(',');
            out.push_str(&json_str(k));
            out.push(':');
            out.push_str(&v.to_string());
        }
        out.push_str("}\n");
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::time::SimTime;

    fn span(ns: u64, dur: u64, name: &'static str) -> TraceEvent {
        TraceEvent {
            ts: SimTime::from_ns(ns),
            name,
            cat: "t",
            node: 1,
            lane: 2,
            kind: TraceKind::Span {
                dur: SimTime::from_ns(dur),
            },
            arg: Some(("actor", 7)),
        }
    }

    #[test]
    fn json_str_escapes_specials() {
        assert_eq!(json_str("a\"b\\c\n"), "\"a\\\"b\\\\c\\n\"");
        assert_eq!(json_str("\u{1}"), "\"\\u0001\"");
    }

    #[test]
    fn chrome_trace_is_sorted_and_integer_formatted() {
        let evs = vec![span(2500, 1000, "b"), span(1234, 10, "a")];
        let out = chrome_trace(&evs);
        assert!(out.starts_with("{\"displayTimeUnit\""));
        let ia = out.find("\"name\":\"a\"").unwrap();
        let ib = out.find("\"name\":\"b\"").unwrap();
        assert!(ia < ib, "events must be time-sorted");
        assert!(out.contains("\"ts\":1.234"), "{out}");
        assert!(out.contains("\"dur\":1.000"), "{out}");
        assert!(out.contains("\"args\":{\"actor\":7}"));
        assert!(out.ends_with("]}\n"));
    }

    #[test]
    fn trace_jsonl_round_trips_fields() {
        let evs = vec![span(5, 3, "x")];
        let out = trace_jsonl(&evs);
        assert_eq!(
            out,
            "{\"type\":\"span\",\"ts_ns\":5,\"dur_ns\":3,\"cat\":\"t\",\
             \"name\":\"x\",\"node\":1,\"lane\":2,\"actor\":7}\n"
        );
    }
}
