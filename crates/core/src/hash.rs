//! A multiply-rotate hasher for the tables one optimization run fills: the
//! STAR memo, the Glue cache, the duplicate-scan scratch set, the plan
//! table and the provenance map.
//!
//! Their keys are quantifier-set masks, predicate masks and plan
//! fingerprints the engine computed itself, their sizes are bounded by the
//! query's own subsets and the [`crate::Budget`], and nothing is inserted
//! into them once the run is over — SipHash's resistance to crafted keys
//! buys nothing there and was 12 % of a cold optimization. Anything keyed by
//! outside input (`PlanNode::fingerprint` itself) keeps the standard hasher.

use std::collections::{HashMap, HashSet};
use std::hash::{BuildHasherDefault, Hasher};

/// Odd 64-bit multiplier (2^64 / φ): one multiplication spreads every input
/// bit into the high bits the hash table reads its control bytes from.
const K: u64 = 0x9e37_79b9_7f4a_7c15;

#[derive(Default)]
pub struct RunHasher(u64);

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

pub type RunMap<K, V> = HashMap<K, V, BuildHasherDefault<RunHasher>>;
pub(crate) type RunSet<T> = HashSet<T, BuildHasherDefault<RunHasher>>;

/// A map probed with a digest of a key the caller only borrows: the memo is
/// asked about arguments that still sit on the operand stack, the Glue cache
/// about a stream that may never be stored. Keys are compared by the
/// caller's closure, so a digest collision costs a comparison, never a wrong
/// answer; an owned key is made only by the insert that follows a miss.
pub(crate) struct DigestMap<K, V> {
    /// Digest → the newest entry with that digest.
    heads: RunMap<u64, u32>,
    /// Key, value, and the next-older entry with the same digest.
    entries: Vec<(K, V, Option<u32>)>,
}

impl<K, V> Default for DigestMap<K, V> {
    fn default() -> Self {
        DigestMap {
            heads: RunMap::default(),
            entries: Vec::new(),
        }
    }
}

impl<K, V> DigestMap<K, V> {
    pub fn find(&self, digest: u64, mut is_key: impl FnMut(&K) -> bool) -> Option<&V> {
        let mut at = self.heads.get(&digest).copied();
        while let Some(i) = at {
            let (key, value, older) = &self.entries[i as usize];
            if is_key(key) {
                return Some(value);
            }
            at = *older;
        }
        None
    }

    /// Add an entry the caller has just failed to [`find`](Self::find).
    pub fn insert(&mut self, digest: u64, key: K, value: V) {
        let at = self.entries.len() as u32;
        let older = self.heads.insert(digest, at);
        self.entries.push((key, value, older));
    }

    pub fn len(&self) -> usize {
        self.entries.len()
    }
}

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
    fn digest_map_keeps_colliding_keys_apart() {
        let mut m: DigestMap<&str, u32> = DigestMap::default();
        assert!(m.find(7, |_| true).is_none());
        m.insert(7, "a", 1);
        m.insert(7, "b", 2);
        m.insert(9, "c", 3);
        assert_eq!(m.find(7, |k| *k == "a"), Some(&1));
        assert_eq!(m.find(7, |k| *k == "b"), Some(&2));
        assert_eq!(m.find(7, |k| *k == "c"), None);
        assert_eq!(m.find(9, |k| *k == "c"), Some(&3));
        assert_eq!(m.len(), 3);
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
