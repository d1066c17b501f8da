//! Self-healing re-optimization: configuration, per-fingerprint schedule
//! state (attempts, backoff, retry cap), and the plan-stability arithmetic.
//!
//! The serving loop (in [`crate::service`]) drives the pipeline —
//! suspect → re-optimize under a dedicated budget → verify (one run per
//! side) → probation A/B over those runs' work units → swap or pin. This
//! module owns everything *about* that pipeline that must be deterministic
//! and unit-testable without a database: whether an attempt is admitted
//! (backoff / retry cap / epoch reset), how a resolution updates the
//! schedule, the work-unit metric the stability guard compares, and the
//! typed pin reasons.
//!
//! Single-flight is enforced with the same leader/follower machinery as
//! the plan cache ([`crate::flight`]), in non-blocking mode: a request
//! that loses the election just keeps serving the incumbent — healing is
//! opportunistic, never a convoy.

use std::collections::HashMap;
use std::fmt;
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

use starqo_core::Budget;
use starqo_trace::HealRecord;
use starqo_vexec::VexecStats;

use crate::flight::{FlightGuard, FlightMap};

/// Resolution reasons, as frozen into counters/events/`HealRecord`s.
/// `swapped` is the success path; everything else pins the incumbent.
pub mod reason {
    /// The candidate passed verification and probation and was installed.
    pub const SWAPPED: &str = "swapped";
    /// The re-optimization pipeline panicked (contained by `catch_unwind`).
    pub const REOPT_PANIC: &str = "reopt_panic";
    /// The re-optimization pipeline returned a typed error.
    pub const REOPT_ERROR: &str = "reopt_error";
    /// The dedicated heal budget was exhausted: the candidate came from
    /// degraded greedy exploration and is not trustworthy as a *better* plan.
    pub const BUDGET_DEGRADED: &str = "budget_degraded";
    /// The catalog epoch moved mid-pipeline; the candidate is stale.
    pub const EPOCH_MOVED: &str = "epoch_moved";
    /// The candidate's verify run did not bit-match the incumbent's rows.
    pub const VERIFY_MISMATCH: &str = "verify_mismatch";
    /// Probation measured the candidate as doing more work than the
    /// incumbent allows (`regression_margin`).
    pub const REGRESSION: &str = "regression";
    /// The retry cap was reached; attempts are suppressed until the next
    /// epoch change.
    pub const RETRY_CAPPED: &str = "retry_capped";
}

/// Tuning for the self-healing loop. `None` in [`ServiceConfig::heal`]
/// (the default) disables healing entirely — detection still runs via the
/// feedback plane, but nobody acts on it.
///
/// [`ServiceConfig::heal`]: crate::service::ServiceConfig
#[derive(Clone)]
pub struct HealConfig {
    /// Dedicated budget for re-optimizations, independent of request
    /// deadlines. Exhaustion pins with [`reason::BUDGET_DEGRADED`].
    pub budget: Budget,
    /// Fractional work-unit slack the candidate is allowed over the
    /// incumbent and still swap (0.10 = 10%). A candidate doing *equal*
    /// work swaps — it carries refreshed cardinality estimates, which is
    /// the point of healing.
    pub regression_margin: f64,
    /// Base backoff after a pin; attempt `n` waits `base * 2^(n-1)` plus
    /// deterministic per-fingerprint jitter in `[0, base)`.
    pub backoff_base: Duration,
    /// Pins tolerated before the fingerprint stops retrying until the
    /// next catalog epoch change.
    pub retry_cap: u32,
    /// Test hook invoked at stage boundaries (`"overlay"`, `"optimize"`,
    /// `"verify"`, `"probation"`, `"swap"`) — lets tests race a catalog
    /// mutation against a specific pipeline stage.
    pub on_stage: Option<Arc<dyn Fn(&'static str) + Send + Sync>>,
}

impl Default for HealConfig {
    fn default() -> Self {
        HealConfig {
            budget: Budget::unlimited(),
            regression_margin: 0.10,
            backoff_base: Duration::from_millis(50),
            retry_cap: 4,
            on_stage: None,
        }
    }
}

impl fmt::Debug for HealConfig {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("HealConfig")
            .field("budget", &self.budget)
            .field("regression_margin", &self.regression_margin)
            .field("backoff_base", &self.backoff_base)
            .field("retry_cap", &self.retry_cap)
            .field("on_stage", &self.on_stage.as_ref().map(|_| "<hook>"))
            .finish()
    }
}

impl HealConfig {
    /// Invoke the stage hook, if armed.
    pub(crate) fn stage(&self, name: &'static str) {
        if let Some(hook) = &self.on_stage {
            hook(name);
        }
    }
}

/// What the schedule says about a would-be attempt.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Admission {
    /// Attempt admitted; this is attempt number `attempt` (1-based) of the
    /// current schedule.
    Proceed { attempt: u64 },
    /// Still inside the backoff window.
    Backoff,
    /// Retry cap reached; suppressed until the next epoch change.
    Capped,
}

/// The per-fingerprint heal schedule: admission (backoff/cap), resolution
/// bookkeeping, and single-flight election. Deliberately knows nothing
/// about plans or catalogs.
pub(crate) struct Healer {
    config: HealConfig,
    /// Each fingerprint's schedule is the record a snapshot reports.
    states: Mutex<HashMap<u64, HealRecord>>,
    flights: FlightMap<u64, ()>,
    started: Instant,
}

impl Healer {
    pub fn new(config: HealConfig) -> Self {
        Healer {
            config,
            states: Mutex::new(HashMap::new()),
            flights: FlightMap::new(),
            started: Instant::now(),
        }
    }

    pub fn config(&self) -> &HealConfig {
        &self.config
    }

    /// Monotonic nanos since the healer was built (the `HealRecord`
    /// backoff clock).
    pub fn now_nanos(&self) -> u64 {
        u64::try_from(self.started.elapsed().as_nanos()).unwrap_or(u64::MAX)
    }

    fn lock(&self) -> std::sync::MutexGuard<'_, HashMap<u64, HealRecord>> {
        self.states.lock().unwrap_or_else(|p| p.into_inner())
    }

    /// `fp`'s schedule in the locked map, created on first use.
    fn schedule(states: &mut HashMap<u64, HealRecord>, fp: u64) -> &mut HealRecord {
        let s = states.entry(fp).or_default();
        s.fp = fp;
        s
    }

    /// Elect a single leader for this fingerprint's heal, non-blocking.
    pub fn try_lead(&self, fp: u64) -> Option<FlightGuard<'_, u64, ()>> {
        self.flights.try_lead(fp)
    }

    /// Gate an attempt at `now` (healer nanos) under `epoch`. An epoch
    /// change resets the whole schedule — backoff, attempts, and the
    /// retry cap — because the world the pins were earned in is gone.
    pub fn admit(&self, fp: u64, epoch: u64, now: u64) -> Admission {
        let mut states = self.lock();
        let s = Self::schedule(&mut states, fp);
        if s.epoch != epoch {
            s.epoch = epoch;
            s.attempts = 0;
            s.retry_capped = false;
            s.backoff_until_nanos = 0;
        }
        if s.retry_capped {
            s.backoff_hits += 1;
            s.last_reason = reason::RETRY_CAPPED.to_string();
            return Admission::Capped;
        }
        if now < s.backoff_until_nanos {
            s.backoff_hits += 1;
            return Admission::Backoff;
        }
        s.attempts += 1;
        Admission::Proceed {
            attempt: s.attempts,
        }
    }

    /// Record a successful swap: the schedule resets (fresh incumbent,
    /// fresh estimates — no reason to keep punishing the fingerprint).
    pub fn resolve_swap(&self, fp: u64, epoch: u64) {
        let mut states = self.lock();
        let s = Self::schedule(&mut states, fp);
        s.epoch = epoch;
        s.swaps += 1;
        s.attempts = 0;
        s.retry_capped = false;
        s.backoff_until_nanos = 0;
        s.last_reason = reason::SWAPPED.to_string();
    }

    /// Record a pin and arm the backoff. Returns `(backoff_nanos,
    /// capped_now)`: the armed window length (0 when capping) and whether
    /// this pin just hit the retry cap.
    pub fn resolve_pin(&self, fp: u64, epoch: u64, why: &str, now: u64) -> (u64, bool) {
        let mut states = self.lock();
        let s = Self::schedule(&mut states, fp);
        s.epoch = epoch;
        s.pins += 1;
        s.last_reason = why.to_string();
        if s.attempts >= u64::from(self.config.retry_cap) {
            s.retry_capped = true;
            s.backoff_until_nanos = 0;
            return (0, true);
        }
        let base = u64::try_from(self.config.backoff_base.as_nanos())
            .unwrap_or(u64::MAX)
            .max(1);
        let shift = u32::try_from(s.attempts.saturating_sub(1)).unwrap_or(u32::MAX);
        let window = base
            .checked_shl(shift.min(20))
            .unwrap_or(u64::MAX)
            .saturating_add(splitmix64(fp ^ s.attempts) % base);
        s.backoff_until_nanos = now.saturating_add(window);
        (window, false)
    }

    /// Freeze every fingerprint's schedule, sorted by fingerprint for
    /// deterministic snapshots.
    pub fn records(&self) -> Vec<HealRecord> {
        let mut out: Vec<HealRecord> = self.lock().values().cloned().collect();
        out.sort_by_key(|r| r.fp);
        out
    }
}

/// The stability guard's deterministic cost proxy: a weighted fold of the
/// serving engine's simulated resource counters, mirroring the cost model's
/// page/CPU/message components. Wall time decides nothing — only events
/// report it — so probation verdicts are reproducible.
pub(crate) fn work_units(s: &VexecStats) -> u64 {
    s.pages_read
        .saturating_mul(8)
        .saturating_add(s.tuples_fetched)
        .saturating_add(s.probes.saturating_mul(2))
        .saturating_add(s.msgs.saturating_mul(16))
        .saturating_add(s.bytes_shipped / 64)
        .saturating_add(s.temps_built.saturating_mul(32))
        .saturating_add(s.indexes_built.saturating_mul(64))
        .saturating_add(s.pipeline_rows)
}

/// Swap verdict: candidate work within `(1 + margin) ×` incumbent work.
pub(crate) fn within_margin(incumbent: u64, candidate: u64, margin: f64) -> bool {
    let allowed = (incumbent as f64) * (1.0 + margin.max(0.0));
    (candidate as f64) <= allowed
}

/// splitmix64 finalizer — deterministic backoff jitter without a global
/// RNG (same construction as the workload crate's seeding).
fn splitmix64(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
    x = (x ^ (x >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    x ^ (x >> 31)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn healer(cap: u32, base_ms: u64) -> Healer {
        Healer::new(HealConfig {
            retry_cap: cap,
            backoff_base: Duration::from_millis(base_ms),
            ..HealConfig::default()
        })
    }

    #[test]
    fn backoff_grows_exponentially_and_caps_at_retry_limit() {
        let h = healer(3, 10);
        let base = 10_000_000u64; // 10ms in nanos
        let mut now = 0u64;
        let mut windows = Vec::new();
        for attempt in 1..=3u64 {
            assert_eq!(h.admit(7, 1, now), Admission::Proceed { attempt });
            let (window, capped) = h.resolve_pin(7, 1, reason::REGRESSION, now);
            if attempt < 3 {
                assert!(!capped);
                // Exponential floor with jitter < one base on top.
                let floor = base << (attempt - 1);
                assert!(window >= floor && window < floor + base, "window {window}");
                // Inside the window: suppressed.
                assert_eq!(h.admit(7, 1, now + 1), Admission::Backoff);
                windows.push(window);
                now += window; // window end is inclusive-admitted
            } else {
                assert!(capped, "third pin hits the cap of 3");
            }
        }
        assert!(windows[1] > windows[0], "second window is longer");
        // Capped: suppressed forever at this epoch...
        assert_eq!(h.admit(7, 1, now + u64::MAX / 2), Admission::Capped);
        let rec = &h.records()[0];
        assert!(rec.retry_capped);
        assert_eq!(rec.pins, 3);
        // ...but an epoch change resets the schedule.
        assert_eq!(h.admit(7, 2, now), Admission::Proceed { attempt: 1 });
    }

    #[test]
    fn swap_resets_the_schedule() {
        let h = healer(4, 10);
        let now = 0;
        assert!(matches!(h.admit(9, 1, now), Admission::Proceed { .. }));
        h.resolve_pin(9, 1, reason::VERIFY_MISMATCH, now);
        let after = h.records()[0].backoff_until_nanos;
        assert!(matches!(h.admit(9, 1, after), Admission::Proceed { .. }));
        h.resolve_swap(9, 1);
        let rec = &h.records()[0];
        assert_eq!(
            (rec.attempts, rec.swaps, rec.pins, rec.backoff_until_nanos),
            (0, 1, 1, 0)
        );
        assert_eq!(rec.last_reason, reason::SWAPPED);
        assert!(matches!(h.admit(9, 1, after), Admission::Proceed { .. }));
    }

    #[test]
    fn jitter_is_deterministic_but_fingerprint_dependent() {
        let h1 = healer(8, 10);
        let h2 = healer(8, 10);
        for fp in [1u64, 2, 3] {
            let _ = h1.admit(fp, 1, 0);
            let _ = h2.admit(fp, 1, 0);
        }
        let w: Vec<u64> = [1u64, 2, 3]
            .iter()
            .map(|fp| h1.resolve_pin(*fp, 1, reason::REGRESSION, 0).0)
            .collect();
        let w2: Vec<u64> = [1u64, 2, 3]
            .iter()
            .map(|fp| h2.resolve_pin(*fp, 1, reason::REGRESSION, 0).0)
            .collect();
        assert_eq!(w, w2, "same inputs, same windows");
        assert!(w[0] != w[1] || w[1] != w[2], "jitter varies by fingerprint");
    }

    #[test]
    fn work_margin_swaps_on_equal_work_but_not_slower() {
        assert!(within_margin(100, 100, 0.10), "equal work swaps");
        assert!(within_margin(100, 110, 0.10), "inside the margin swaps");
        assert!(!within_margin(100, 111, 0.10), "outside pins");
        assert!(within_margin(0, 0, 0.10), "degenerate zero-work plans tie");
    }

    #[test]
    fn single_flight_election_is_per_fingerprint() {
        let h = healer(4, 10);
        let g = h.try_lead(1).expect("leads");
        assert!(h.try_lead(1).is_none(), "fp 1 busy");
        assert!(h.try_lead(2).is_some(), "fp 2 independent");
        drop(g);
        assert!(h.try_lead(1).is_some(), "released on drop");
    }
}
