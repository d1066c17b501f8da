//! The STAR expansion tree as a flamegraph.
//!
//! A fold over span trees. `star_ref` events carry `(id, parent)`, so each
//! tree's expansion forest reconstructs exactly, and the forests of all
//! trees merge; sibling references of the same STAR under the same
//! aggregate path merge into one frame (the standard flamegraph collapse).
//! Inclusive time is the duration of the `star:<Name>` span whose `meta`
//! is the reference id; memo hits contribute a reference count but no time
//! (the engine spent none). Self time is inclusive minus the children's
//! inclusive, floored at zero — clock jitter between nested measurements
//! must not produce negative frames.
//!
//! Two renderings:
//! - [`FlameTree::render`] — an indented ASCII tree with bars, counts, and
//!   percentages (terminal-friendly);
//! - [`FlameTree::folded`] — `semicolon;separated;stacks value` lines, the
//!   interchange format standard flamegraph tooling consumes.

use std::collections::BTreeMap;
use std::collections::HashMap;
use std::fmt::Write as _;

use starqo_trace::{SpanTree, TraceEvent};

use crate::fmt::fmt_nanos;

/// One aggregated frame of the expansion tree.
#[derive(Debug, Clone, Default)]
pub struct Frame {
    pub name: String,
    /// References that landed on this frame (memo hits included).
    pub refs: u64,
    pub memo_hits: u64,
    /// Inclusive nanos summed over the frame's expansions.
    pub inclusive: u64,
    children: BTreeMap<String, usize>,
}

/// The aggregated expansion forest of one traced run.
#[derive(Debug, Clone)]
pub struct FlameTree {
    /// Arena; index 0 is the synthetic root ("the driver").
    frames: Vec<Frame>,
}

impl FlameTree {
    /// Build from span trees. Only `star_ref` events and `star:*` spans
    /// matter; anything else is ignored.
    pub fn from_trees(trees: &[SpanTree]) -> FlameTree {
        let mut frames = vec![Frame {
            name: "driver".to_string(),
            ..Frame::default()
        }];
        for tree in trees {
            // Concrete reference id → aggregate frame index (ids are
            // unique within one request).
            let mut ref_frame: HashMap<u64, usize> = HashMap::new();
            for ev in tree.events.iter().map(|e| &e.event) {
                if let TraceEvent::StarRef {
                    star,
                    id,
                    parent,
                    memo_hit,
                    ..
                } = ev
                {
                    let parent_idx = ref_frame.get(parent).copied().unwrap_or(0);
                    let idx = match frames[parent_idx].children.get(star) {
                        Some(i) => *i,
                        None => {
                            frames.push(Frame {
                                name: star.clone(),
                                ..Frame::default()
                            });
                            let i = frames.len() - 1;
                            frames[parent_idx].children.insert(star.clone(), i);
                            i
                        }
                    };
                    frames[idx].refs += 1;
                    if *memo_hit {
                        frames[idx].memo_hits += 1;
                    }
                    ref_frame.insert(*id, idx);
                }
            }
            for span in tree.spans.iter().filter(|s| s.name.starts_with("star:")) {
                if let Some(idx) = ref_frame.get(&span.meta) {
                    frames[*idx].inclusive += span.end_nanos.saturating_sub(span.start_nanos);
                }
            }
        }
        // The driver's inclusive time is its children's total.
        frames[0].inclusive = frames[0]
            .children
            .values()
            .map(|i| frames[*i].inclusive)
            .sum();
        FlameTree { frames }
    }

    pub fn root(&self) -> &Frame {
        &self.frames[0]
    }

    fn children_sorted(&self, idx: usize) -> Vec<usize> {
        let mut kids: Vec<usize> = self.frames[idx].children.values().copied().collect();
        kids.sort_by(|a, b| {
            self.frames[*b]
                .inclusive
                .cmp(&self.frames[*a].inclusive)
                .then_with(|| self.frames[*a].name.cmp(&self.frames[*b].name))
        });
        kids
    }

    /// Self time of a frame: inclusive minus children's inclusive,
    /// saturating (nested clock reads can exceed the outer measurement).
    pub fn self_nanos(&self, idx: usize) -> u64 {
        let child_sum: u64 = self.frames[idx]
            .children
            .values()
            .map(|i| self.frames[*i].inclusive)
            .sum();
        self.frames[idx].inclusive.saturating_sub(child_sum)
    }

    /// Indented ASCII rendering, hottest subtree first.
    pub fn render(&self) -> String {
        let mut out = String::new();
        let total = self.frames[0].inclusive.max(1);
        let _ = writeln!(
            out,
            "STAR expansion flame (total {})",
            fmt_nanos(self.frames[0].inclusive)
        );
        for idx in self.children_sorted(0) {
            self.render_rec(idx, 0, total, &mut out);
        }
        out
    }

    fn render_rec(&self, idx: usize, depth: usize, total: u64, out: &mut String) {
        let f = &self.frames[idx];
        let pct = f.inclusive as f64 * 100.0 / total as f64;
        let bar_len =
            ((pct / 100.0 * 30.0).round() as usize).clamp(if pct > 0.0 { 1 } else { 0 }, 30);
        let _ = writeln!(
            out,
            "{:<30} {:>8} {:>5.1}% {:>5} refs {:>4} memo  |{}",
            format!("{}{}", "  ".repeat(depth), f.name),
            fmt_nanos(f.inclusive),
            pct,
            f.refs,
            f.memo_hits,
            "#".repeat(bar_len),
        );
        for c in self.children_sorted(idx) {
            self.render_rec(c, depth + 1, total, out);
        }
    }

    /// Folded-stacks interchange output: one `a;b;c <self-nanos>` line per
    /// frame with nonzero self time (root excluded), ready for
    /// `flamegraph.pl` or any compatible renderer.
    pub fn folded(&self) -> String {
        let mut out = String::new();
        let mut stack: Vec<String> = Vec::new();
        self.folded_rec(0, &mut stack, &mut out);
        out
    }

    fn folded_rec(&self, idx: usize, stack: &mut Vec<String>, out: &mut String) {
        if idx != 0 {
            stack.push(self.frames[idx].name.clone());
            let own = self.self_nanos(idx);
            if own > 0 {
                let _ = writeln!(out, "{} {}", stack.join(";"), own);
            }
        }
        for c in self.children_sorted(idx) {
            self.folded_rec(c, stack, out);
        }
        if idx != 0 {
            stack.pop();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::testutil::trace_one_star;

    #[test]
    fn reconstructs_the_expansion_tree() {
        let t = FlameTree::from_trees(&trace_one_star());
        assert_eq!(t.root().children.len(), 1, "one root star");
        let root_kid = *t.root().children.get("JoinRoot").unwrap();
        let jr = &t.frames[root_kid];
        assert_eq!(jr.name, "JoinRoot");
        assert_eq!(jr.refs, 1);
        assert_eq!(jr.inclusive, 2_000);
        let jm = &t.frames[*jr.children.get("JMeth").unwrap()];
        // Two references merged into one frame: one expansion + one memo hit.
        assert_eq!(jm.refs, 2);
        assert_eq!(jm.memo_hits, 1);
        assert_eq!(jm.inclusive, 1_500);
    }

    #[test]
    fn self_time_is_inclusive_minus_children() {
        let t = FlameTree::from_trees(&trace_one_star());
        let jr = *t.root().children.get("JoinRoot").unwrap();
        assert_eq!(t.self_nanos(jr), 500);
        let jm = *t.frames[jr].children.get("JMeth").unwrap();
        assert_eq!(t.self_nanos(jm), 1_500);
    }

    #[test]
    fn folded_output_matches_hand_computation() {
        let t = FlameTree::from_trees(&trace_one_star());
        let folded = t.folded();
        let lines: Vec<&str> = folded.lines().collect();
        assert_eq!(lines, vec!["JoinRoot 500", "JoinRoot;JMeth 1500"]);
    }

    #[test]
    fn self_time_saturates_at_zero() {
        // Child claims more time than the parent measured.
        let mut trees = trace_one_star();
        for span in &mut trees[0].spans {
            span.end_nanos = span.start_nanos + if span.meta == 1 { 100 } else { 150 };
        }
        let t = FlameTree::from_trees(&trees);
        let jr = *t.root().children.get("JoinRoot").unwrap();
        assert_eq!(t.self_nanos(jr), 0);
        assert!(t.folded().lines().all(|l| !l.starts_with("JoinRoot ")));
    }

    #[test]
    fn render_mentions_every_star() {
        let text = FlameTree::from_trees(&trace_one_star()).render();
        assert!(text.contains("JoinRoot"), "{text}");
        assert!(text.contains("JMeth"), "{text}");
        assert!(text.contains("2.0µs"), "{text}");
    }
}
