//! A multiply-rotate hasher for the tables that live and die with one
//! optimization run: the STAR memo, the Glue cache, the duplicate-scan
//! scratch set and the plan table.
//!
//! Their keys are quantifier-set masks, predicate masks and plan
//! fingerprints the engine computed itself, their sizes are bounded by the
//! query's own subsets and the [`crate::Budget`], and they are dropped with
//! the run — SipHash's resistance to crafted keys buys nothing there and
//! was 12 % of a cold optimization. Anything keyed by outside input, or
//! visible outside the run (`PlanNode::fingerprint`, `Optimized::provenance`),
//! keeps the standard hasher.

use std::collections::{HashMap, HashSet};
use std::hash::{BuildHasherDefault, Hasher};

/// Odd 64-bit multiplier (2^64 / φ): one multiplication spreads every input
/// bit into the high bits the hash table reads its control bytes from.
const K: u64 = 0x9e37_79b9_7f4a_7c15;

#[derive(Default)]
pub(crate) struct RunHasher(u64);

impl RunHasher {
    #[inline]
    fn mix(&mut self, word: u64) {
        self.0 = (self.0.rotate_left(5) ^ word).wrapping_mul(K);
    }
}

impl Hasher for RunHasher {
    #[inline]
    fn write(&mut self, bytes: &[u8]) {
        let mut chunks = bytes.chunks_exact(8);
        for c in &mut chunks {
            self.mix(u64::from_le_bytes([
                c[0], c[1], c[2], c[3], c[4], c[5], c[6], c[7],
            ]));
        }
        let rest = chunks.remainder();
        if !rest.is_empty() {
            let mut word = [0u8; 8];
            word[..rest.len()].copy_from_slice(rest);
            // The length keeps "ab" + "c" apart from "a" + "bc".
            self.mix(u64::from_le_bytes(word) ^ ((rest.len() as u64) << 56));
        }
    }

    #[inline]
    fn write_u8(&mut self, n: u8) {
        self.mix(n as u64);
    }

    #[inline]
    fn write_u16(&mut self, n: u16) {
        self.mix(n as u64);
    }

    #[inline]
    fn write_u32(&mut self, n: u32) {
        self.mix(n as u64);
    }

    #[inline]
    fn write_u64(&mut self, n: u64) {
        self.mix(n);
    }

    #[inline]
    fn write_usize(&mut self, n: usize) {
        self.mix(n as u64);
    }

    #[inline]
    fn finish(&self) -> u64 {
        // The table indexes buckets by the low bits; fold the well-mixed
        // high half down so masks differing only in high bits spread too.
        self.0 ^ (self.0 >> 32)
    }
}

pub(crate) type RunMap<K, V> = HashMap<K, V, BuildHasherDefault<RunHasher>>;
pub(crate) type RunSet<T> = HashSet<T, BuildHasherDefault<RunHasher>>;

#[cfg(test)]
mod tests {
    use super::*;
    use std::hash::Hash;

    fn h<T: Hash>(v: T) -> u64 {
        let mut s = RunHasher::default();
        v.hash(&mut s);
        s.finish()
    }

    #[test]
    fn distinguishes_order_length_and_split() {
        assert_ne!(h((1u64, 2u64)), h((2u64, 1u64)));
        assert_ne!(h([0u8; 3].as_slice()), h([0u8; 4].as_slice()));
        assert_ne!(h(("ab", "c")), h(("a", "bc")));
        assert_eq!(h("JoinRoot"), h("JoinRoot"));
    }

    /// Quantifier-set masks are the plan table's keys: all 2^12 - 1 of a
    /// 12-way join must spread over the low bits a table of that size
    /// indexes by, not pile into a few buckets.
    #[test]
    fn subset_masks_spread_over_low_bits() {
        let mut buckets = [0u32; 4096];
        for mask in 1u64..4096 {
            buckets[(h(mask) & 4095) as usize] += 1;
        }
        let worst = buckets.iter().copied().max().unwrap_or(0);
        assert!(worst <= 8, "worst bucket holds {worst} of 4095 masks");
    }
}
