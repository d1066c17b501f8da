//! Self-healing re-optimization: configuration, the per-fingerprint
//! schedule arithmetic (attempts, backoff, retry cap), and the
//! plan-stability arithmetic.
//!
//! The serving loop (in [`crate::service`]) drives the pipeline —
//! suspect → re-optimize under a dedicated budget → verify (one run per
//! side, equal rows, work units compared) → swap or pin. This module owns
//! everything *about* that pipeline that must be deterministic and
//! unit-testable without a database: whether an attempt is admitted
//! (backoff / retry cap / epoch reset), how a resolution updates the
//! schedule, the work-unit metric and tie rule verify applies, and the
//! typed pin reasons.
//!
//! It keeps no state: each fingerprint's [`HealRecord`] lives in its slot
//! of the feedback plane, whose claim decides the suspect check, the
//! single-flight election and admission under one lock. A request whose
//! claim fails just keeps serving the incumbent — healing is
//! opportunistic, never a convoy.

use std::fmt;
use std::sync::Arc;
use std::time::Duration;

use starqo_core::Budget;
use starqo_trace::HealRecord;
use starqo_vexec::VexecStats;

/// Resolution reasons, as frozen into counters/events/`HealRecord`s.
/// `swapped` is the success path; everything else pins the incumbent.
pub mod reason {
    /// The candidate passed verification and was installed.
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
    /// Verify measured the candidate doing more than 10 % more work than
    /// the incumbent.
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
    /// Base backoff after a pin; attempt `n` waits `base * 2^(n-1)` plus
    /// deterministic per-fingerprint jitter in `[0, base)`.
    pub backoff_base: Duration,
    /// Pins tolerated before the fingerprint stops retrying until the
    /// next catalog epoch change.
    pub retry_cap: u32,
    /// Test hook invoked at stage boundaries (`"overlay"`, `"optimize"`,
    /// `"verify"`, `"swap"`) — lets tests race a catalog
    /// mutation against a specific pipeline stage.
    pub on_stage: Option<Arc<dyn Fn(&'static str) + Send + Sync>>,
}

impl Default for HealConfig {
    fn default() -> Self {
        HealConfig {
            budget: Budget::unlimited(),
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

/// Why the schedule refused a would-be attempt.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Refusal {
    /// Still inside the backoff window.
    Backoff,
    /// Retry cap reached; suppressed until the next epoch change.
    Capped,
}

/// Gate an attempt at `now` (telemetry uptime nanos) under `epoch`: the
/// attempt number (1-based) of the current schedule, or why not. An epoch
/// change resets the whole schedule — backoff, attempts, and the retry cap
/// — because the world the pins were earned in is gone.
pub(crate) fn admit(rec: &mut HealRecord, epoch: u64, now: u64) -> Result<u64, Refusal> {
    if rec.epoch != epoch {
        rec.epoch = epoch;
        rec.attempts = 0;
        rec.retry_capped = false;
        rec.backoff_until_nanos = 0;
    }
    if rec.retry_capped {
        rec.backoff_hits += 1;
        rec.last_reason = reason::RETRY_CAPPED.to_string();
        return Err(Refusal::Capped);
    }
    if now < rec.backoff_until_nanos {
        rec.backoff_hits += 1;
        return Err(Refusal::Backoff);
    }
    rec.attempts += 1;
    Ok(rec.attempts)
}

/// Record a successful swap: the schedule resets (fresh incumbent, fresh
/// estimates — no reason to keep punishing the fingerprint).
pub(crate) fn swapped(rec: &mut HealRecord, epoch: u64) {
    rec.epoch = epoch;
    rec.swaps += 1;
    rec.attempts = 0;
    rec.retry_capped = false;
    rec.backoff_until_nanos = 0;
    rec.last_reason = reason::SWAPPED.to_string();
}

/// Record a pin and arm the backoff. Returns `(backoff_nanos,
/// capped_now)`: the armed window length (0 when capping) and whether this
/// pin just hit the retry cap.
pub(crate) fn pinned(
    rec: &mut HealRecord,
    cfg: &HealConfig,
    epoch: u64,
    why: &str,
    now: u64,
) -> (u64, bool) {
    rec.epoch = epoch;
    rec.pins += 1;
    rec.last_reason = why.to_string();
    if rec.attempts >= u64::from(cfg.retry_cap) {
        rec.retry_capped = true;
        rec.backoff_until_nanos = 0;
        return (0, true);
    }
    let base = u64::try_from(cfg.backoff_base.as_nanos())
        .unwrap_or(u64::MAX)
        .max(1);
    let shift = u32::try_from(rec.attempts.saturating_sub(1)).unwrap_or(u32::MAX);
    let window = base
        .checked_shl(shift.min(20))
        .unwrap_or(u64::MAX)
        .saturating_add(splitmix64(rec.fp ^ rec.attempts) % base);
    rec.backoff_until_nanos = now.saturating_add(window);
    (window, false)
}

/// The stability guard's deterministic cost proxy: a weighted fold of the
/// serving engine's simulated resource counters, mirroring the cost model's
/// page/CPU/message components. Wall time decides nothing — only events
/// report it — so verify's verdicts are reproducible.
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

/// Verify's tie rule: the candidate swaps when its work is within 10 % of
/// the incumbent's. Equal work swaps — the candidate carries refreshed
/// cardinality estimates, which is the point of healing.
pub(crate) fn no_regression(incumbent: u64, candidate: u64) -> bool {
    u128::from(candidate) * 10 <= u128::from(incumbent) * 11
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

    fn config(cap: u32, base_ms: u64) -> HealConfig {
        HealConfig {
            retry_cap: cap,
            backoff_base: Duration::from_millis(base_ms),
            ..HealConfig::default()
        }
    }

    fn record(fp: u64) -> HealRecord {
        HealRecord {
            fp,
            ..HealRecord::default()
        }
    }

    #[test]
    fn backoff_grows_exponentially_and_caps_at_retry_limit() {
        let cfg = config(3, 10);
        let rec = &mut record(7);
        let base = 10_000_000u64; // 10ms in nanos
        let mut now = 0u64;
        let mut windows = Vec::new();
        for attempt in 1..=3u64 {
            assert_eq!(admit(rec, 1, now), Ok(attempt));
            let (window, capped) = pinned(rec, &cfg, 1, reason::REGRESSION, now);
            if attempt < 3 {
                assert!(!capped);
                // Exponential floor with jitter < one base on top.
                let floor = base << (attempt - 1);
                assert!(window >= floor && window < floor + base, "window {window}");
                // Inside the window: suppressed.
                assert_eq!(admit(rec, 1, now + 1), Err(Refusal::Backoff));
                windows.push(window);
                now += window; // window end is inclusive-admitted
            } else {
                assert!(capped, "third pin hits the cap of 3");
            }
        }
        assert!(windows[1] > windows[0], "second window is longer");
        // Capped: suppressed forever at this epoch...
        assert_eq!(admit(rec, 1, now + u64::MAX / 2), Err(Refusal::Capped));
        assert!(rec.retry_capped);
        assert_eq!(rec.pins, 3);
        // ...but an epoch change resets the schedule.
        assert_eq!(admit(rec, 2, now), Ok(1));
    }

    #[test]
    fn swap_resets_the_schedule() {
        let cfg = config(4, 10);
        let rec = &mut record(9);
        let now = 0;
        assert!(admit(rec, 1, now).is_ok());
        pinned(rec, &cfg, 1, reason::VERIFY_MISMATCH, now);
        let after = rec.backoff_until_nanos;
        assert!(admit(rec, 1, after).is_ok());
        swapped(rec, 1);
        assert_eq!(
            (rec.attempts, rec.swaps, rec.pins, rec.backoff_until_nanos),
            (0, 1, 1, 0)
        );
        assert_eq!(rec.last_reason, reason::SWAPPED);
        assert!(admit(rec, 1, after).is_ok());
    }

    #[test]
    fn jitter_is_deterministic_but_fingerprint_dependent() {
        let cfg = config(8, 10);
        let windows = || -> Vec<u64> {
            [1u64, 2, 3]
                .iter()
                .map(|&fp| {
                    let rec = &mut record(fp);
                    let _ = admit(rec, 1, 0);
                    pinned(rec, &cfg, 1, reason::REGRESSION, 0).0
                })
                .collect()
        };
        let (w, w2) = (windows(), windows());
        assert_eq!(w, w2, "same inputs, same windows");
        assert!(w[0] != w[1] || w[1] != w[2], "jitter varies by fingerprint");
    }

    #[test]
    fn work_margin_swaps_on_equal_work_but_not_slower() {
        assert!(no_regression(100, 100), "equal work swaps");
        assert!(no_regression(100, 110), "inside the margin swaps");
        assert!(!no_regression(100, 111), "outside pins");
        assert!(no_regression(0, 0), "degenerate zero-work plans tie");
    }
}
