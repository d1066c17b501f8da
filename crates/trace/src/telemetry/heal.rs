//! Per-fingerprint heal-state records: the serving layer's adaptive
//! re-optimization loop (suspect → reopt → verify → swap/pin/backoff)
//! keeps its schedule in these, one per slot of the feedback plane
//! ([`crate::telemetry::qerror`]), so snapshots, the doctor, and the watch
//! view can reason about healing without reaching into the serve crate.
//! The policy that updates them lives in `starqo-serve`; this is also the
//! frozen export form (snapshot JSON version 4's `heal` array, Prometheus
//! `starqo_heal_*` gauges).

record! {
    /// One fingerprint's heal history, frozen at snapshot time.
    #[derive(Debug, Clone, PartialEq, Eq, Default)]
    pub struct HealRecord {
        /// Canonical query fingerprint hash.
        pub fp: u64,
        /// Catalog epoch of the most recent re-optimization attempt.
        pub epoch: u64,
        /// Re-optimization attempts since the last swap or epoch change
        /// (the backoff schedule's exponent).
        pub attempts: u64,
        /// Candidates that passed the stability guard and replaced the
        /// incumbent, over the record's lifetime.
        pub swaps: u64,
        /// Attempts resolved by keeping the incumbent, over the lifetime.
        pub pins: u64,
        /// Heal triggers suppressed because the fingerprint was in backoff.
        pub backoff_hits: u64,
        /// The retry cap was reached: no further attempts until the next
        /// swap or epoch change resets the schedule.
        pub retry_capped: bool,
        /// How the last attempt resolved: `"swapped"`, or a typed pin reason
        /// (`"reopt_panic"`, `"reopt_error"`, `"budget_degraded"`,
        /// `"epoch_moved"`, `"verify_mismatch"`, `"regression"`,
        /// `"retry_capped"`). Empty before the first resolution.
        pub last_reason: String,
        /// Service-relative deadline (nanos since service start) before which
        /// new attempts are suppressed (0 = not in backoff).
        pub backoff_until_nanos: u64,
    }
}

impl HealRecord {
    /// The interval view against an earlier record of the same
    /// fingerprint: monotonic tallies subtract, flags and the last
    /// resolution take the later record's values.
    pub fn delta_since(&self, prev: &HealRecord) -> HealRecord {
        HealRecord {
            fp: self.fp,
            epoch: self.epoch,
            attempts: self.attempts,
            swaps: self.swaps.saturating_sub(prev.swaps),
            pins: self.pins.saturating_sub(prev.pins),
            backoff_hits: self.backoff_hits.saturating_sub(prev.backoff_hits),
            retry_capped: self.retry_capped,
            last_reason: self.last_reason.clone(),
            backoff_until_nanos: self.backoff_until_nanos,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> HealRecord {
        HealRecord {
            fp: 0xDEAD_BEEF,
            epoch: 3,
            attempts: 2,
            swaps: 1,
            pins: 4,
            backoff_hits: 7,
            retry_capped: false,
            last_reason: "regression".into(),
            backoff_until_nanos: 9_000_000,
        }
    }

    #[test]
    fn json_roundtrips_exactly() {
        let rec = sample();
        assert_eq!(HealRecord::from_json(&rec.to_json()), Some(rec));
    }

    #[test]
    fn delta_subtracts_tallies_and_keeps_flags() {
        let later = sample();
        let mut earlier = sample();
        earlier.swaps = 0;
        earlier.pins = 1;
        earlier.backoff_hits = 2;
        let d = later.delta_since(&earlier);
        assert_eq!((d.swaps, d.pins, d.backoff_hits), (1, 3, 5));
        assert_eq!(d.last_reason, "regression");
        assert_eq!(d.backoff_until_nanos, 9_000_000);
    }
}
