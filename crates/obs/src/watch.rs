//! `starqo-obs watch`: a continuously refreshing view over a serving
//! telemetry snapshot. The watcher re-reads the exported snapshot each
//! tick, folds it into a [`SnapshotRing`] of interval deltas, and renders
//! the live dashboard for the latest window plus a trend section
//! (requests/s series, cache hit trend, drift/suspect movement) computed
//! from the retained ring.

use starqo_trace::{Metric, SnapshotRing, TelemetrySnapshot};

use crate::fmt::sparkline;
use crate::live::LiveReport;

/// Stateful watch loop driver: feed it the latest absolute snapshot every
/// tick, get back the rendered frame.
#[derive(Debug)]
pub struct Watcher {
    ring: SnapshotRing,
    ticks: u64,
}

impl Watcher {
    /// A watcher keeping the last `window` interval deltas for trends.
    pub fn new(window: usize) -> Watcher {
        Watcher {
            ring: SnapshotRing::new(window),
            ticks: 0,
        }
    }

    pub fn ticks(&self) -> u64 {
        self.ticks
    }

    /// The delta ring backing the trend section.
    pub fn ring(&self) -> &SnapshotRing {
        &self.ring
    }

    /// Fold in one absolute snapshot and render the frame. The first tick
    /// has no interval yet, so it renders the lifetime view; later ticks
    /// render the latest window plus trends.
    pub fn tick(&mut self, snapshot: TelemetrySnapshot) -> String {
        self.ticks += 1;
        let delta = self.ring.push(snapshot);
        let mut out = match (&delta, self.ring.last_absolute()) {
            (Some(d), _) => LiveReport::new(d.clone()).interval_render(),
            (None, Some(abs)) => LiveReport::new(abs.clone()).render(),
            (None, None) => String::new(),
        };
        out.push_str(&self.render_trend());
        out
    }

    /// The trend section over the retained ring (empty until two deltas
    /// exist — one point is not a trend).
    fn render_trend(&self) -> String {
        if self.ring.len() < 2 {
            return "\n-- trend --\n  (collecting: need two intervals)\n".to_string();
        }
        let mut out = String::from("\n-- trend --\n");
        let rate: Vec<u64> = self
            .ring
            .deltas()
            .iter()
            .map(|d| d.requests_per_sec().round().max(0.0) as u64)
            .collect();
        out.push_str(&format!(
            "  requests/s      {}  (last {})\n",
            sparkline(&rate),
            rate.last().copied().unwrap_or(0)
        ));
        let hits: Vec<u64> = self
            .ring
            .deltas()
            .iter()
            .map(|d| (d.counters.hit_ratio() * 100.0).round() as u64)
            .collect();
        out.push_str(&format!(
            "  cache hit %     {}  (last {})\n",
            sparkline(&hits),
            hits.last().copied().unwrap_or(0)
        ));
        let flagged = self.ring.counter_series(Metric::SuspectFlagged);
        out.push_str(&format!(
            "  new suspects    {}  (last {})\n",
            sparkline(&flagged),
            flagged.last().copied().unwrap_or(0)
        ));
        let reopts = self.ring.counter_series(Metric::ReoptAttempts);
        let swaps = self.ring.counter_series(Metric::PlanSwap);
        if reopts.iter().chain(swaps.iter()).any(|v| *v > 0) {
            out.push_str(&format!(
                "  reopt attempts  {}  (last {})\n",
                sparkline(&reopts),
                reopts.last().copied().unwrap_or(0)
            ));
            out.push_str(&format!(
                "  plan swaps      {}  (last {})\n",
                sparkline(&swaps),
                swaps.last().copied().unwrap_or(0)
            ));
        }
        if let Some(abs) = self.ring.last_absolute() {
            let capped: Vec<String> = abs
                .heal
                .iter()
                .filter(|h| h.retry_capped)
                .take(4)
                .map(|h| format!("{:#x}", h.fp))
                .collect();
            if !capped.is_empty() {
                out.push_str(&format!(
                    "  heal            {} retry-capped fingerprint(s): {}\n",
                    capped.len(),
                    capped.join(", ")
                ));
            }
        }
        if let Some(abs) = self.ring.last_absolute() {
            let suspects = abs.suspects();
            if !suspects.is_empty() {
                out.push_str(&format!(
                    "  drift           {} suspect plan(s) total: {}\n",
                    suspects.len(),
                    suspects
                        .iter()
                        .take(4)
                        .map(|e| format!("{:#x}", e.fp))
                        .collect::<Vec<_>>()
                        .join(", ")
                ));
            }
        }
        out
    }
}

impl LiveReport {
    /// Render `self`'s snapshot as an interval view (the watch loop builds
    /// deltas itself via the ring, so it needs the interval header without
    /// re-diffing).
    fn interval_render(&self) -> String {
        // `LiveReport::since` against an empty baseline keeps the data but
        // flips the header to "interval".
        let empty = TelemetrySnapshot::default();
        LiveReport::since(self.snapshot(), &empty).render()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::testutil::{smoke_sequence, smoke_snapshot};

    #[test]
    fn first_tick_is_lifetime_later_ticks_are_intervals_with_trends() {
        let mut w = Watcher::new(8);
        let frames: Vec<String> = smoke_sequence().into_iter().map(|s| w.tick(s)).collect();
        assert_eq!(w.ticks(), 4);
        assert!(frames[0].contains("uptime"), "first frame is lifetime");
        assert!(frames[0].contains("collecting"));
        assert!(frames[1].contains("interval"), "{}", frames[1]);
        // By the third tick two deltas exist: trends render. The suspect
        // flag lands in the second delta, so frame 2 shows it fresh.
        assert!(frames[2].contains("requests/s"));
        assert!(frames[2].contains("new suspects"));
        let suspects_line = |f: &str| {
            f.lines()
                .find(|l| l.contains("new suspects"))
                .map(str::to_string)
                .unwrap_or_default()
        };
        assert!(
            suspects_line(&frames[2]).contains("(last 1)"),
            "{}",
            frames[2]
        );
        assert!(
            suspects_line(&frames[3]).contains("(last 0)"),
            "{}",
            frames[3]
        );
        assert_eq!(w.ring().len(), 3);
        // Heal trend: the smoke sequence's reopt/swap counters grow, so
        // both series render once two deltas exist.
        assert!(frames[2].contains("reopt attempts"), "{}", frames[2]);
        let swaps_line = frames[3]
            .lines()
            .find(|l| l.contains("plan swaps"))
            .expect("plan swaps trend");
        assert!(swaps_line.contains("(last 1)"), "{swaps_line}");
    }

    #[test]
    fn retry_capped_fingerprints_surface_in_the_trend() {
        let mut w = Watcher::new(4);
        for mut s in smoke_sequence() {
            s.heal[0].retry_capped = true;
            w.tick(s);
        }
        let frame = w.tick({
            let mut s = smoke_snapshot();
            s.uptime_nanos = 5_000_000_000;
            s.heal[0].retry_capped = true;
            s
        });
        assert!(
            frame.contains("1 retry-capped fingerprint(s): 0xa11ce"),
            "{frame}"
        );
    }

    #[test]
    fn trend_series_reflects_ring_deltas() {
        let mut w = Watcher::new(4);
        for s in smoke_sequence() {
            w.tick(s);
        }
        // serve_requests absolutes: 50, 100, 150, 200 → deltas 50 each.
        assert_eq!(w.ring().counter_series(Metric::Requests), vec![50, 50, 50]);
        assert_eq!(
            w.ring().counter_series(Metric::SuspectFlagged),
            vec![0, 1, 0]
        );
    }
}
