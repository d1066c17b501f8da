//! `starqo-obs spans` / `timeline`: render retained request span trees —
//! the tail sampler's slow/errored/degraded/suspect survivors — as a
//! slowest-N table and a per-request waterfall. Input is the span JSONL a
//! service or bench exports ([`starqo_trace::read_span_trees`]); output is
//! for terminals, with a lossless Chrome `trace_event` export alongside
//! for `chrome://tracing` / Perfetto.

use std::fmt::Write as _;

use starqo_trace::{LatencyPath, Phase, SpanRecord, SpanTree};

use crate::fmt::fmt_nanos;

/// Width of the waterfall bar column, in cells.
const BAR_CELLS: usize = 40;

/// A renderable view over a set of retained span trees.
#[derive(Debug, Clone)]
pub struct SpanReport {
    trees: Vec<SpanTree>,
}

impl SpanReport {
    /// Wrap a tree set, slowest request first (display order for the
    /// table; `tree(id)` still finds any request by id).
    pub fn new(mut trees: Vec<SpanTree>) -> SpanReport {
        trees.sort_by(|a, b| {
            b.total_nanos
                .cmp(&a.total_nanos)
                .then(a.request_id.cmp(&b.request_id))
        });
        SpanReport { trees }
    }

    pub fn trees(&self) -> &[SpanTree] {
        &self.trees
    }

    pub fn is_empty(&self) -> bool {
        self.trees.is_empty()
    }

    /// The tree for one request id, if retained.
    pub fn tree(&self, request_id: u64) -> Option<&SpanTree> {
        self.trees.iter().find(|t| t.request_id == request_id)
    }

    /// The slowest-N table: one row per retained request, slowest first.
    pub fn render_table(&self, limit: usize) -> String {
        let mut out = String::from("== starqo spans ==\n");
        if self.trees.is_empty() {
            out.push_str("  (no retained span trees)\n");
            return out;
        }
        let _ = writeln!(
            out,
            "  {:<8} {:<18} {:>10} {:<9} {:<9} {:>6} {:>7}",
            "request", "fingerprint", "total", "outcome", "retained", "spans", "flags"
        );
        for t in self.trees.iter().take(limit.max(1)) {
            let mut flags = String::new();
            if t.degraded {
                flags.push('D');
            }
            if t.suspect {
                flags.push('S');
            }
            if t.dropped > 0 {
                let _ = write!(flags, "!{}", t.dropped);
            }
            let _ = writeln!(
                out,
                "  {:<8} {:<18} {:>10} {:<9} {:<9} {:>6} {:>7}",
                t.request_id,
                format!("{:#018x}", t.fp),
                fmt_nanos(t.total_nanos),
                t.outcome,
                t.retained,
                t.spans.len(),
                flags
            );
        }
        if self.trees.len() > limit {
            let _ = writeln!(out, "  ({} more not shown)", self.trees.len() - limit);
        }
        out
    }

    /// The waterfall for one request: spans in start order, indented by
    /// tree depth, with bars scaled to the request's total duration.
    pub fn render_waterfall(&self, request_id: u64) -> Option<String> {
        let tree = self.tree(request_id)?;
        let mut out = String::new();
        let _ = writeln!(
            out,
            "== request {} ==  fp {:#018x}  epoch {}  {}  retained: {}{}{}",
            tree.request_id,
            tree.fp,
            tree.epoch,
            tree.outcome,
            tree.retained,
            if tree.degraded { "  DEGRADED" } else { "" },
            if tree.suspect { "  SUSPECT" } else { "" },
        );
        let _ = writeln!(out, "  total {}", fmt_nanos(tree.total_nanos));
        // Bars scale to the request total, so a span's share of the
        // request is its share of the row.
        let total = tree.total_nanos.max(1);
        for span in tree.ordered() {
            let depth = tree.depth_of(span);
            let dur = span.end_nanos.saturating_sub(span.start_nanos);
            let lead = ((span.start_nanos as u128 * BAR_CELLS as u128) / total as u128) as usize;
            let fill = (dur as u128 * BAR_CELLS as u128).div_ceil(total as u128) as usize;
            let lead = lead.min(BAR_CELLS - 1);
            let fill = fill.clamp(1, BAR_CELLS - lead);
            let bar: String = std::iter::repeat_n(' ', lead)
                .chain(std::iter::repeat_n('█', fill))
                .chain(std::iter::repeat_n(' ', BAR_CELLS - lead - fill))
                .collect();
            let label = format!("{}{}", "  ".repeat(depth), span.name);
            let meta = if span.meta != 0 {
                format!("  [{}]", span.meta)
            } else {
                String::new()
            };
            let _ = writeln!(
                out,
                "  {label:<28} |{bar}| {:>10} @ {:>10}{meta}",
                fmt_nanos(dur),
                fmt_nanos(span.start_nanos),
            );
        }
        if tree.dropped > 0 {
            let _ = writeln!(
                out,
                "  ({} span(s) dropped at the per-request cap)",
                tree.dropped
            );
        }
        Some(out)
    }
}

/// Deterministic synthetic trees for testing the spans pipeline (table +
/// waterfall + Chrome export) without a live service: a slow cold
/// request with nested optimizer spans and a fast suspect hit.
pub fn smoke_trees() -> Vec<SpanTree> {
    let span = |id: u32, parent: u32, name: &str, start: u64, end: u64, meta: u64| SpanRecord {
        id,
        parent,
        name: name.to_string().into(),
        start_nanos: start,
        end_nanos: end,
        meta,
    };
    vec![
        SpanTree {
            request_id: 7,
            fp: 0xA11CE,
            epoch: 1,
            total_nanos: 2_600_000,
            outcome: "miss".to_string(),
            degraded: false,
            suspect: false,
            retained: "slow".to_string(),
            spans: vec![
                span(2, 1, Phase::Prepare.name(), 2_000, 42_000, 0),
                span(5, 4, Phase::Enumerate.name(), 130_000, 1_890_000, 0),
                span(6, 5, "star:Join", 150_000, 900_000, 3),
                span(7, 5, "star:AccessRoot", 910_000, 1_400_000, 5),
                span(8, 5, Phase::Glue.name(), 1_410_000, 1_800_000, 0),
                span(4, 3, LatencyPath::Optimize.name(), 120_000, 1_950_000, 0),
                span(3, 1, Phase::CacheLookup.name(), 60_000, 2_000_000, 0),
                span(9, 1, Phase::Execute.name(), 2_050_000, 2_540_000, 0),
                span(10, 9, "pipeline:join", 2_060_000, 2_500_000, 160),
                span(1, 0, "request", 0, 2_600_000, 0),
            ],
            dropped: 0,
        },
        SpanTree {
            request_id: 9,
            fp: 0xB0B,
            epoch: 1,
            total_nanos: 9_000,
            outcome: "hit".to_string(),
            degraded: false,
            suspect: true,
            retained: "suspect".to_string(),
            spans: vec![
                span(2, 1, Phase::Prepare.name(), 500, 1_500, 0),
                span(3, 1, Phase::CacheLookup.name(), 2_000, 5_000, 0),
                span(4, 1, Phase::Execute.name(), 5_500, 8_600, 0),
                span(5, 4, "pipeline:scan", 5_600, 8_500, 64),
                span(1, 0, "request", 0, 9_000, 0),
            ],
            dropped: 0,
        },
    ]
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table_sorts_slowest_first_and_flags_suspects() {
        let r = SpanReport::new(smoke_trees());
        let text = r.render_table(10);
        let slow = text.find("  7 ").expect("slow request row");
        let fast = text.find("  9 ").expect("suspect request row");
        assert!(slow < fast, "slowest first:\n{text}");
        assert!(text.contains("slow"), "{text}");
        assert!(text.contains("suspect"), "{text}");
        let suspect_row = text.lines().find(|l| l.contains(" 9 ")).unwrap();
        assert!(suspect_row.trim_end().ends_with('S'), "{suspect_row}");
    }

    #[test]
    fn table_truncates_and_reports_hidden_rows() {
        let r = SpanReport::new(smoke_trees());
        let text = r.render_table(1);
        assert!(text.contains("(1 more not shown)"), "{text}");
    }

    #[test]
    fn waterfall_indents_by_depth_and_scales_bars() {
        let r = SpanReport::new(smoke_trees());
        let text = r.render_waterfall(7).expect("tree 7");
        assert!(text.contains("== request 7 =="), "{text}");
        // Depth grows request → cache_lookup → optimize → enumerate →
        // star:Join; meta carries the shared star_ref id.
        assert!(text.contains("        star:Join"), "{text}");
        assert!(text.contains("[3]"), "{text}");
        // The root bar spans the full request.
        let root = text
            .lines()
            .find(|l| l.trim_start().starts_with("request"))
            .unwrap();
        assert!(root.contains(&"█".repeat(BAR_CELLS)), "{root}");
        assert!(r.render_waterfall(999).is_none());
    }

    #[test]
    fn empty_report_renders_placeholder() {
        let r = SpanReport::new(Vec::new());
        assert!(r.is_empty());
        assert!(r.render_table(5).contains("no retained span trees"));
    }

    #[test]
    fn smoke_trees_survive_json_and_chrome_round_trips() {
        use starqo_trace::{from_chrome_trace, read_span_trees, to_chrome_trace};
        let trees = smoke_trees();
        let jsonl: String = trees.iter().map(|t| t.to_json() + "\n").collect();
        let (back, skipped) = read_span_trees(&jsonl);
        assert_eq!(skipped, 0);
        assert_eq!(back, trees);
        let chrome = to_chrome_trace(&trees);
        let back = from_chrome_trace(&chrome).expect("chrome parse");
        assert_eq!(back, trees);
    }
}
