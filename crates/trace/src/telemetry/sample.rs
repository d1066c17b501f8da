//! Head-based trace sampling: decide *once per request, at the head*,
//! whether that request's span tree is detailed (every optimizer and
//! executor event annotated, no span cap) — so production keeps full
//! detail always-on at 1/N of the cost.
//!
//! The decision is a pure function of the canonical query fingerprint
//! hash: deterministic (the same query shape is always in or out, so
//! sampled traces stay internally coherent and two runs sample the same
//! shapes) and unbiased across shapes (the hash is finalized through a
//! 64-bit avalanche mix before the modulus, so FNV's low-bit regularities
//! don't skew which fingerprints land in the sample).

/// SplitMix64 finalizer: a full-avalanche 64-bit mix.
#[inline]
pub(crate) fn mix64(mut x: u64) -> u64 {
    x ^= x >> 30;
    x = x.wrapping_mul(0xBF58476D1CE4E5B9);
    x ^= x >> 27;
    x = x.wrapping_mul(0x94D049BB133111EB);
    x ^= x >> 31;
    x
}

/// A `1/N` head sampler over fingerprint hashes.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TraceSampler {
    one_in: u64,
}

impl TraceSampler {
    /// Admit every fingerprint.
    pub fn all() -> TraceSampler {
        TraceSampler { one_in: 1 }
    }

    /// Admit one fingerprint in `n` (0 and 1 both mean "all").
    pub fn one_in(n: u64) -> TraceSampler {
        TraceSampler { one_in: n.max(1) }
    }

    /// Parse `STARQO_TRACE_SAMPLE`: `1/N` (the documented form) or a bare
    /// `N`, both meaning "admit one fingerprint in N". `None` for
    /// malformed values (including `0/N` and `k/N` with k ≠ 1).
    pub fn parse(text: &str) -> Option<TraceSampler> {
        let text = text.trim();
        let n = match text.split_once('/') {
            Some((num, den)) => {
                if num.trim() != "1" {
                    return None;
                }
                den.trim().parse::<u64>().ok()?
            }
            None => text.parse::<u64>().ok()?,
        };
        (n > 0).then(|| TraceSampler::one_in(n))
    }

    /// The sampler configured in the environment: `STARQO_TRACE_SAMPLE`
    /// parsed per [`Self::parse`]; `None` (no request detailed) when unset
    /// or malformed.
    pub fn from_env() -> Option<TraceSampler> {
        std::env::var("STARQO_TRACE_SAMPLE")
            .ok()
            .and_then(|v| TraceSampler::parse(&v))
    }

    /// Whether requests with this fingerprint hash are detailed.
    #[inline]
    pub fn admit(&self, fp: u64) -> bool {
        self.one_in <= 1 || mix64(fp).is_multiple_of(self.one_in)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_both_forms() {
        assert_eq!(TraceSampler::parse("1/64"), Some(TraceSampler::one_in(64)));
        assert_eq!(
            TraceSampler::parse(" 1 / 8 "),
            Some(TraceSampler::one_in(8))
        );
        assert_eq!(TraceSampler::parse("16"), Some(TraceSampler::one_in(16)));
        assert_eq!(TraceSampler::parse("1"), Some(TraceSampler::all()));
        assert_eq!(TraceSampler::parse("1/1"), Some(TraceSampler::all()));
        assert_eq!(TraceSampler::parse("2/3"), None);
        assert_eq!(TraceSampler::parse("0"), None);
        assert_eq!(TraceSampler::parse("1/0"), None);
        assert_eq!(TraceSampler::parse("banana"), None);
    }

    #[test]
    fn admit_is_deterministic_and_rate_one_admits_all() {
        let s = TraceSampler::one_in(64);
        for fp in [0u64, 1, 42, u64::MAX] {
            assert_eq!(s.admit(fp), s.admit(fp));
        }
        let all = TraceSampler::all();
        for fp in 0..1000u64 {
            assert!(all.admit(fp));
        }
    }

    #[test]
    fn admission_fraction_tracks_the_rate() {
        // Over 64k sequential fingerprints (adversarially regular input),
        // a 1/64 sampler should admit roughly 1/64 of them.
        let s = TraceSampler::one_in(64);
        let admitted = (0..65_536u64).filter(|&fp| s.admit(fp)).count();
        let expect = 65_536 / 64;
        assert!(
            (admitted as i64 - expect as i64).unsigned_abs() < expect as u64 / 4,
            "admitted {admitted}, expected ≈{expect}"
        );
    }

    #[test]
    fn mix64_avalanches_low_bits() {
        // Consecutive inputs must not map to consecutive residues.
        let residues: std::collections::BTreeSet<u64> =
            (0..128u64).map(|x| mix64(x) % 64).collect();
        assert!(residues.len() > 32, "mix should spread residues");
    }
}
