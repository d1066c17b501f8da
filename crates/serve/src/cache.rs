//! The sharded, single-flight plan cache.
//!
//! Entries are keyed by the canonical fingerprint text alone (each service
//! owns its cache and runs one `OptConfig`) and carry the catalog **epoch**
//! they were optimized under: a probe with a newer epoch removes the stale
//! entry on contact (lazy invalidation) and reports a miss. Each shard is
//! an independent `RwLock`-ed LRU with a capacity bound and a byte bound;
//! fingerprint hashes pick the shard, so unrelated queries never contend on
//! one lock.
//!
//! Misses are **single-flight**: the first thread to miss on a key becomes
//! the leader and pays for the cold optimization; concurrent threads asking
//! for the same key block on the leader's flight and share its result
//! instead of duplicating the work. This is what makes "exactly one cold
//! optimization per distinct fingerprint" a testable property under
//! contention.
//!
//! An entry — and a flight's shared value — holds what a hit and heal read
//! of a run: the winner and its own provenance ([`winner_only`]). Root
//! alternatives are the business of whoever calls `Optimizer::optimize`,
//! which re-derives them deterministically per (fingerprint, epoch).

use std::collections::{HashMap, HashSet};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, RwLock};

use starqo_core::Optimized;
use starqo_plan::PlanNode;

use crate::flight::{FlightMap, Role};
use crate::service::ServeError;

/// Sizing knobs for the plan cache.
#[derive(Debug, Clone)]
pub struct CacheConfig {
    /// Maximum entries across all shards.
    pub capacity: usize,
    /// Maximum (estimated) resident bytes across all shards.
    pub max_bytes: usize,
    /// Number of independent shards (clamped to at least 1).
    pub shards: usize,
}

impl Default for CacheConfig {
    fn default() -> Self {
        CacheConfig {
            capacity: 1024,
            max_bytes: 64 << 20,
            shards: 8,
        }
    }
}

/// What one cache lookup did, for observability. The caller (the service)
/// turns this into trace events and counters.
#[derive(Debug, Clone, Default)]
pub struct CacheMeta {
    /// Served from the cache without optimizing.
    pub hit: bool,
    /// Waited on another thread's in-flight optimization for the same key.
    pub coalesced: bool,
    /// Cold-optimization nanos this request avoided (hits and coalesced).
    pub saved_nanos: u64,
    /// A stale-epoch entry for this key was removed on contact.
    pub invalidated: bool,
    /// Fingerprint hashes evicted to make room, with the bound that forced
    /// each out ("capacity" or "bytes").
    pub evicted: Vec<(u64, &'static str)>,
}

/// What a cold optimization hands back: the run, its wall-clock nanos and
/// whether it may be cached.
type Cold = Result<(Optimized, u64, bool), ServeError>;
/// What a lookup hands back: the plan and the cold nanos this request paid.
type Lookup = Result<(Arc<Optimized>, u64), ServeError>;

struct Entry {
    value: Arc<Optimized>,
    epoch: u64,
    /// Leader's cold optimization time, replayed as `saved_nanos` on hits.
    opt_nanos: u64,
    /// Fingerprint hash, for eviction/invalidation events.
    fp_hash: u64,
    bytes: usize,
    last_used: AtomicU64,
}

#[derive(Default)]
struct Shard {
    /// Fingerprint text → entry; the key shares the request's text.
    map: HashMap<Arc<str>, Entry>,
    bytes: usize,
}

/// A sharded LRU of optimized plans with single-flight misses. The
/// leader/follower protocol itself lives in [`crate::flight`], shared with
/// the self-healing re-optimizer.
pub struct PlanCache {
    shards: Vec<RwLock<Shard>>,
    per_shard_cap: usize,
    per_shard_bytes: usize,
    clock: AtomicU64,
    /// Single-flight misses, keyed `(fingerprint text, epoch)`: epochs do
    /// not coalesce across a catalog change.
    flights: FlightMap<(Arc<str>, u64), (Arc<Optimized>, u64)>,
}

impl PlanCache {
    pub fn new(config: &CacheConfig) -> Self {
        let n = config.shards.max(1);
        PlanCache {
            shards: (0..n).map(|_| RwLock::new(Shard::default())).collect(),
            per_shard_cap: config.capacity.div_ceil(n).max(1),
            per_shard_bytes: config.max_bytes.div_ceil(n).max(1),
            clock: AtomicU64::new(1),
            flights: FlightMap::new(),
        }
    }

    fn shard_of(&self, fp_hash: u64) -> &RwLock<Shard> {
        &self.shards[(fp_hash as usize) % self.shards.len()]
    }

    /// Resident entries across all shards.
    pub fn len(&self) -> usize {
        self.shards
            .iter()
            .map(|s| s.read().unwrap_or_else(|p| p.into_inner()).map.len())
            .sum()
    }

    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Estimated resident bytes across all shards.
    pub fn bytes(&self) -> usize {
        self.shards
            .iter()
            .map(|s| s.read().unwrap_or_else(|p| p.into_inner()).bytes)
            .sum()
    }

    /// Mark `e` most recently used; its plan and cold nanos.
    fn touch(&self, e: &Entry) -> (Arc<Optimized>, u64) {
        let now = self.clock.fetch_add(1, Ordering::Relaxed);
        e.last_used.store(now, Ordering::Relaxed);
        (Arc::clone(&e.value), e.opt_nanos)
    }

    /// Look up; on a fresh-epoch hit, bump recency and return the entry.
    /// A stale-epoch entry is removed (`meta.invalidated`) and reported as
    /// a miss.
    fn probe(
        &self,
        key: &str,
        fp_hash: u64,
        epoch: u64,
        meta: &mut CacheMeta,
    ) -> Option<(Arc<Optimized>, u64)> {
        let shard = self.shard_of(fp_hash);
        {
            let g = shard.read().unwrap_or_else(|p| p.into_inner());
            if let Some(e) = g.map.get(key) {
                if e.epoch == epoch {
                    return Some(self.touch(e));
                }
            } else {
                return None;
            }
        }
        // Stale epoch: upgrade to a write lock and remove on contact. The
        // removed plan outlives the guard (declared first, dropped last): a
        // whole `Optimized` is not freed with the shard write-locked.
        let stale;
        let mut g = shard.write().unwrap_or_else(|p| p.into_inner());
        if let Some(e) = g.map.get(key) {
            if e.epoch == epoch {
                // Raced with a concurrent re-fill; treat as a hit.
                return Some(self.touch(e));
            }
            stale = g.map.remove_entry(key);
            if let Some((_, e)) = &stale {
                g.bytes = g.bytes.saturating_sub(e.bytes);
                meta.invalidated = true;
            }
        }
        None
    }

    /// Install a leader's result, evicting LRU entries past either bound.
    fn insert(
        &self,
        key: &Arc<str>,
        fp_hash: u64,
        epoch: u64,
        value: Arc<Optimized>,
        opt_nanos: u64,
        meta: &mut CacheMeta,
    ) {
        let bytes = estimate_bytes(key.len(), &value);
        let shard = self.shard_of(fp_hash);
        // The replaced and evicted plans, freed once the shard is unlocked
        // (declared before the guard, so dropped after it).
        let mut retired = Vec::new();
        let mut g = shard.write().unwrap_or_else(|p| p.into_inner());
        let entry = Entry {
            value,
            epoch,
            opt_nanos,
            fp_hash,
            bytes,
            last_used: AtomicU64::new(self.clock.fetch_add(1, Ordering::Relaxed)),
        };
        if let Some(old) = g.map.insert(Arc::clone(key), entry) {
            g.bytes = g.bytes.saturating_sub(old.bytes);
            retired.push(old);
        }
        g.bytes += bytes;
        while g.map.len() > self.per_shard_cap || g.bytes > self.per_shard_bytes {
            let reason = if g.map.len() > self.per_shard_cap {
                "capacity"
            } else {
                "bytes"
            };
            let victim = g
                .map
                .iter()
                .min_by_key(|(_, e)| e.last_used.load(Ordering::Relaxed))
                .map(|(k, _)| k.clone());
            match victim {
                Some(k) => {
                    if let Some(e) = g.map.remove(&k) {
                        g.bytes = g.bytes.saturating_sub(e.bytes);
                        meta.evicted.push((e.fp_hash, reason));
                        retired.push(e);
                    }
                }
                None => break,
            }
        }
    }

    /// The heart of the cache: return a cached plan for `fp` under
    /// `epoch`, or run `cold` exactly once per `(fp, epoch)` across all
    /// concurrent callers and share its result — a leader's error included.
    /// `cold` returns the optimized result plus its wall-clock nanos; a
    /// `cacheable` of false (e.g. the run degraded under a tight deadline)
    /// shares the result with followers but keeps it out of the cache.
    pub fn serve(
        &self,
        fp: &Arc<str>,
        fp_hash: u64,
        epoch: u64,
        cold: impl FnOnce() -> Cold,
    ) -> (Lookup, CacheMeta) {
        let mut meta = CacheMeta::default();
        if let Some((v, nanos)) = self.probe(fp, fp_hash, epoch, &mut meta) {
            meta.hit = true;
            meta.saved_nanos = nanos;
            return (Ok((v, 0)), meta);
        }
        self.fill(fp, fp_hash, epoch, cold, meta)
    }

    /// The miss path of [`Self::serve`]: join the key's flight; as its
    /// leader, optimize and install.
    fn fill(
        &self,
        fp: &Arc<str>,
        fp_hash: u64,
        epoch: u64,
        cold: impl FnOnce() -> Cold,
        mut meta: CacheMeta,
    ) -> (Lookup, CacheMeta) {
        let mut guard = match self.flights.lead_or_wait((Arc::clone(fp), epoch)) {
            Role::Leader(g) => g,
            Role::Follower(Ok((v, nanos))) => {
                meta.coalesced = true;
                meta.saved_nanos = nanos;
                return (Ok((v, 0)), meta);
            }
            Role::Follower(Err(e)) => return (Err(e), meta),
        };
        // An earlier flight for this key may have installed its result and
        // retired between our probe and our election; leading a second one
        // would optimize the same fingerprint twice. Look again now that no
        // other leader can exist: a resident entry is a hit.
        if let Some((v, nanos)) = self.probe(fp, fp_hash, epoch, &mut meta) {
            guard.complete(Ok((Arc::clone(&v), nanos)));
            meta.hit = true;
            meta.saved_nanos = nanos;
            return (Ok((v, 0)), meta);
        }
        match cold() {
            Ok((optimized, nanos, cacheable)) => {
                let value = winner_only(optimized);
                if cacheable {
                    self.insert(fp, fp_hash, epoch, Arc::clone(&value), nanos, &mut meta);
                }
                guard.complete(Ok((Arc::clone(&value), nanos)));
                (Ok((value, nanos)), meta)
            }
            Err(e) => {
                guard.complete(Err(e.clone()));
                (Err(e), meta)
            }
        }
    }

    /// Compare-and-swap for the self-healing loop: replace the resident
    /// plan for `fp` with the winner of `optimized` **only if** an entry is
    /// resident and was optimized under exactly `epoch` — the epoch the healed
    /// candidate was rebuilt against. A catalog-epoch bump that lands
    /// mid-re-optimization makes the CAS fail, so a stale-epoch candidate
    /// is never installed over a fresher plan (or resurrected after lazy
    /// invalidation). Returns whether the swap happened.
    pub fn swap_if_epoch(
        &self,
        fp: &str,
        fp_hash: u64,
        epoch: u64,
        optimized: Optimized,
        opt_nanos: u64,
    ) -> bool {
        let value = winner_only(optimized);
        let bytes = estimate_bytes(fp.len(), &value);
        let shard = self.shard_of(fp_hash);
        // The replaced plan, freed once the shard is unlocked (declared
        // before the guard, so dropped after it).
        let _old;
        let mut g = shard.write().unwrap_or_else(|p| p.into_inner());
        match g.map.get_mut(fp) {
            Some(e) if e.epoch == epoch => {
                let old_bytes = e.bytes;
                _old = std::mem::replace(&mut e.value, value);
                e.opt_nanos = opt_nanos;
                e.bytes = bytes;
                self.touch(e);
                g.bytes = g.bytes.saturating_sub(old_bytes) + bytes;
                true
            }
            _ => false,
        }
    }
}

/// The one trim of a run before it is shared: the root alternatives go, and
/// the provenance keeps the winner's nodes only. Stats, phase times and the
/// degraded and quarantine records stay.
fn winner_only(mut optimized: Optimized) -> Arc<Optimized> {
    optimized.root_alternatives = Vec::new();
    let mut all = std::mem::take(&mut optimized.provenance);
    optimized.best.visit(&mut |n| {
        let fp = n.fingerprint();
        if let Some(label) = all.remove(&fp) {
            optimized.provenance.insert(fp, label);
        }
    });
    Arc::new(optimized)
}

/// Rough resident size of one cache entry: the key text, each distinct node
/// of the winner once, and its provenance entries.
fn estimate_bytes(key_len: usize, opt: &Optimized) -> usize {
    let mut nodes = HashSet::new();
    opt.best.visit(&mut |n| {
        nodes.insert(n as *const PlanNode);
    });
    256 + key_len + nodes.len() * 160 + opt.provenance.len() * 56
}

#[cfg(test)]
mod tests {
    use super::*;
    use starqo_catalog::{Catalog, DataType, StorageKind};
    use starqo_core::{OptConfig, Optimizer};
    use starqo_query::parse_query;

    fn optimized() -> Optimized {
        let cat = Arc::new(
            Catalog::builder()
                .site("NY")
                .table("T", "NY", StorageKind::Heap, 10)
                .column("A", DataType::Int, Some(10))
                .build()
                .unwrap(),
        );
        let q = parse_query(&cat, "SELECT A FROM T").unwrap();
        let opt = Optimizer::new(Arc::clone(&cat)).unwrap();
        opt.optimize(&q, &OptConfig::default()).unwrap()
    }

    fn key(s: &str) -> Arc<str> {
        Arc::from(s)
    }

    /// An entry's size counts what it holds: a node the winner reaches
    /// twice is one block, so it is counted once.
    #[test]
    fn a_shared_winner_node_is_counted_once() {
        use starqo_plan::{Inputs, Lolepop};
        let mut opt = optimized();
        let once = estimate_bytes(1, &opt);
        let (shared, props) = (opt.best.clone(), opt.best.props.clone());
        let twice = Inputs::Two([shared.clone(), shared]);
        opt.best = PlanNode::with_props(Lolepop::Union, twice, props);
        assert_eq!(estimate_bytes(1, &opt), once + 160);
    }

    #[test]
    fn miss_then_hit_with_saved_nanos() {
        let cache = PlanCache::new(&CacheConfig::default());
        let fp = key("q1");
        let v = optimized();
        let (r, meta) = cache.serve(&fp, 1, 0, || Ok((v.clone(), 777, true)));
        assert!(r.is_ok());
        assert!(!meta.hit && !meta.coalesced);
        let (r, meta) = cache.serve(&fp, 1, 0, || panic!("must not optimize twice"));
        assert!(r.is_ok());
        assert!(meta.hit);
        assert_eq!(meta.saved_nanos, 777);
        assert_eq!(cache.len(), 1);
        assert!(cache.bytes() > 0);
    }

    #[test]
    fn epoch_bump_invalidates_on_contact() {
        let cache = PlanCache::new(&CacheConfig::default());
        let fp = key("q1");
        let v = optimized();
        let v2 = v.clone();
        let _ = cache.serve(&fp, 1, 0, move || Ok((v2, 10, true)));
        let v3 = v.clone();
        let (r, meta) = cache.serve(&fp, 1, 1, move || Ok((v3, 20, true)));
        assert!(r.is_ok());
        assert!(!meta.hit);
        assert!(meta.invalidated, "stale entry must be removed on contact");
        // The re-fill under the new epoch hits.
        let (_, meta) = cache.serve(&fp, 1, 1, || panic!("cached"));
        assert!(meta.hit);
        assert_eq!(meta.saved_nanos, 20);
    }

    #[test]
    fn capacity_bound_evicts_lru() {
        let cache = PlanCache::new(&CacheConfig {
            capacity: 2,
            max_bytes: usize::MAX,
            shards: 1,
        });
        let v = optimized();
        for (i, name) in ["a", "b"].iter().enumerate() {
            let vi = v.clone();
            let _ = cache.serve(&key(name), i as u64, 0, move || Ok((vi, 1, true)));
        }
        // Touch "a" so "b" is the LRU victim.
        let (_, m) = cache.serve(&key("a"), 0, 0, || panic!("cached"));
        assert!(m.hit);
        let vi = v.clone();
        let (_, meta) = cache.serve(&key("c"), 2, 0, move || Ok((vi, 1, true)));
        assert_eq!(meta.evicted.len(), 1);
        assert_eq!(meta.evicted[0], (1, "capacity"), "LRU entry b evicted");
        assert_eq!(cache.len(), 2);
    }

    #[test]
    fn byte_bound_evicts() {
        let cache = PlanCache::new(&CacheConfig {
            capacity: 100,
            max_bytes: 1, // everything is over budget
            shards: 1,
        });
        let v = optimized();
        let vi = v.clone();
        let (r, meta) = cache.serve(&key("a"), 0, 0, move || Ok((vi, 1, true)));
        assert!(
            r.is_ok(),
            "serving still works; the entry just doesn't stay"
        );
        assert_eq!(meta.evicted.len(), 1);
        assert_eq!(meta.evicted[0].1, "bytes");
        assert_eq!(cache.len(), 0);
    }

    #[test]
    fn uncacheable_results_are_shared_but_not_stored() {
        let cache = PlanCache::new(&CacheConfig::default());
        let fp = key("q");
        let v = optimized();
        let vi = v.clone();
        let (r, _) = cache.serve(&fp, 1, 0, move || Ok((vi, 5, false)));
        assert!(r.is_ok());
        assert_eq!(cache.len(), 0, "degraded results must not poison the cache");
    }

    #[test]
    fn leader_errors_propagate_and_do_not_cache() {
        let cache = PlanCache::new(&CacheConfig::default());
        let fp = key("q");
        let (r, _) = cache.serve(&fp, 1, 0, || Err(ServeError::Optimize("boom".into())));
        assert_eq!(r.unwrap_err(), ServeError::Optimize("boom".into()));
        assert_eq!(cache.len(), 0);
        // The flight is cleaned up: a retry runs cold again.
        let v = optimized();
        let (r, _) = cache.serve(&fp, 1, 0, move || Ok((v, 1, true)));
        assert!(r.is_ok());
    }

    /// The double-leader race, interleaved by hand: the second caller's
    /// probe misses while the first is still optimizing, and its election
    /// comes only after the first has installed its plan and retired the
    /// flight. It must find the resident entry, not optimize again.
    #[test]
    fn a_flight_retired_between_probe_and_election_is_a_hit() {
        use std::sync::Barrier;
        let cache = PlanCache::new(&CacheConfig::default());
        let fp = key("q");
        let v = optimized();
        let (probed, colds) = (Barrier::new(2), AtomicU64::new(0));
        std::thread::scope(|s| {
            let first = s.spawn(|| {
                cache.serve(&fp, 1, 0, || {
                    colds.fetch_add(1, Ordering::SeqCst);
                    probed.wait(); // the second caller has probed and missed
                    Ok((v.clone(), 42, true))
                })
            });
            let mut meta = CacheMeta::default();
            assert!(cache.probe(&fp, 1, 0, &mut meta).is_none());
            probed.wait();
            let (r, _) = first.join().expect("first caller");
            assert!(r.is_ok());
            // Installed and retired: the second caller now wins the election.
            let (r, meta) = cache.fill(
                &fp,
                1,
                0,
                || {
                    colds.fetch_add(1, Ordering::SeqCst);
                    Ok((v.clone(), 99, true))
                },
                meta,
            );
            assert!(r.is_ok());
            assert!(meta.hit && !meta.coalesced, "{meta:?}");
            assert_eq!(meta.saved_nanos, 42);
        });
        assert_eq!(colds.load(Ordering::SeqCst), 1, "one cold optimization");
        // The hit retired its own flight: the key is served from the cache.
        let (_, meta) = cache.serve(&fp, 1, 0, || panic!("cached"));
        assert!(meta.hit);
    }

    #[test]
    fn swap_if_epoch_is_a_real_cas() {
        let cache = PlanCache::new(&CacheConfig::default());
        let fp = key("q");
        let v = optimized();
        let vi = v.clone();
        let _ = cache.serve(&fp, 3, 5, move || Ok((vi, 10, true)));

        // Wrong epoch: the entry was cached under epoch 5.
        assert!(!cache.swap_if_epoch(&fp, 3, 6, v.clone(), 20));
        let (_, m) = cache.serve(&fp, 3, 5, || panic!("cached"));
        assert_eq!(m.saved_nanos, 10, "failed CAS left the entry alone");

        // Matching epoch: the swap lands and refreshes opt_nanos.
        assert!(cache.swap_if_epoch(&fp, 3, 5, v.clone(), 20));
        let (_, m) = cache.serve(&fp, 3, 5, || panic!("cached"));
        assert_eq!(m.saved_nanos, 20, "swapped entry is what hits now");

        // Absent key: nothing to swap into.
        assert!(!cache.swap_if_epoch(&key("other"), 4, 5, v, 1));
        assert_eq!(cache.len(), 1);
    }

    #[test]
    fn single_flight_under_contention() {
        use std::sync::atomic::AtomicUsize;
        let cache = Arc::new(PlanCache::new(&CacheConfig::default()));
        let cold_runs = Arc::new(AtomicUsize::new(0));
        let v = optimized();
        let mut handles = Vec::new();
        for _ in 0..8 {
            let cache = Arc::clone(&cache);
            let cold_runs = Arc::clone(&cold_runs);
            let v = v.clone();
            handles.push(std::thread::spawn(move || {
                let (r, meta) = cache.serve(&key("hot"), 7, 0, move || {
                    cold_runs.fetch_add(1, Ordering::SeqCst);
                    std::thread::sleep(std::time::Duration::from_millis(20));
                    Ok((v, 123, true))
                });
                assert!(r.is_ok());
                meta
            }));
        }
        let metas: Vec<CacheMeta> = handles.into_iter().map(|h| h.join().unwrap()).collect();
        assert_eq!(
            cold_runs.load(Ordering::SeqCst),
            1,
            "exactly one cold optimization for the shared key"
        );
        let leaders = metas.iter().filter(|m| !m.hit && !m.coalesced).count();
        assert_eq!(leaders, 1, "everyone else hit the cache or coalesced");
    }
}
