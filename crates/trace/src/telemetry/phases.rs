//! Cold-path phase attribution: where request time goes, by stage, as
//! always-on striped counters (nanos + occurrence count per phase).
//!
//! The span layer answers "where did *this* request's time go"; this
//! plane answers the aggregate form — what fraction of all serve time is
//! cache lookup vs. STAR enumeration vs. execution — cheaply enough to
//! stay on in production. Writers pay one relaxed `fetch_add` pair per
//! phase per request; readers fold on demand into snapshots (JSON,
//! Prometheus `starqo_phase_nanos`/`starqo_phase_count` counters).

use std::sync::atomic::{AtomicU64, Ordering};

use crate::telemetry::counters::{stripe_count, thread_stripe};

catalog! {
    /// The request stages the plane attributes time to. Each name is the
    /// phase's snapshot JSON key, its Prometheus `phase` label and the name
    /// of the span that marks it. `Glue` nanos are a subset of `Enumerate`
    /// (glue rules fire inside STAR expansion); the other phases are
    /// disjoint slices of a request.
    pub enum Phase {
        /// Parse + fingerprint canonicalization (`Service::prepare`).
        Prepare = "prepare",
        /// Plan-cache probe on the serve path (resident hit or miss check).
        CacheLookup = "cache_lookup",
        /// Waiting on another thread's in-flight optimization (coalesced).
        FlightWait = "flight_wait",
        /// STAR expansion / memo DP inside a cold optimization.
        Enumerate = "enumerate",
        /// Glue-rule invocations (nested inside enumerate).
        Glue = "glue",
        /// Rule compilation folded into a cold optimization.
        Compile = "compile",
        /// Plan execution.
        Execute = "execute",
        /// Suspect-triggered re-optimization (overlay build, re-plan,
        /// verify and swap — the whole heal pipeline).
        Reopt = "reopt",
    }
}

#[repr(align(128))]
struct PhaseStripe {
    nanos: [AtomicU64; Phase::COUNT],
    counts: [AtomicU64; Phase::COUNT],
}

impl PhaseStripe {
    fn new() -> PhaseStripe {
        PhaseStripe {
            nanos: std::array::from_fn(|_| AtomicU64::new(0)),
            counts: std::array::from_fn(|_| AtomicU64::new(0)),
        }
    }
}

/// The striped phase-attribution plane.
pub struct PhasePlane {
    stripes: Box<[PhaseStripe]>,
    mask: usize,
}

impl std::fmt::Debug for PhasePlane {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("PhasePlane")
            .field("stripes", &self.stripes.len())
            .finish()
    }
}

impl PhasePlane {
    /// A plane with `stripes` stripes (0 = one per available core).
    pub fn new(stripes: usize) -> PhasePlane {
        let n = stripe_count(stripes);
        PhasePlane {
            stripes: (0..n).map(|_| PhaseStripe::new()).collect(),
            mask: n - 1,
        }
    }

    /// Attribute `nanos` to one phase occurrence.
    #[inline]
    pub fn add(&self, phase: Phase, nanos: u64) {
        let stripe = &self.stripes[thread_stripe() & self.mask];
        stripe.nanos[phase as usize].fetch_add(nanos, Ordering::Relaxed);
        stripe.counts[phase as usize].fetch_add(1, Ordering::Relaxed);
    }

    /// Fold one phase across stripes: `(nanos, count)`.
    pub fn get(&self, phase: Phase) -> (u64, u64) {
        let mut nanos = 0u64;
        let mut count = 0u64;
        for s in self.stripes.iter() {
            nanos += s.nanos[phase as usize].load(Ordering::Relaxed);
            count += s.counts[phase as usize].load(Ordering::Relaxed);
        }
        (nanos, count)
    }

    /// Fold every phase: `(nanos, count)`, indexed by [`Phase`].
    pub fn fold(&self) -> [(u64, u64); Phase::COUNT] {
        Phase::ALL.map(|p| self.get(p))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn phase_names_are_unique_and_ordered_like_all() {
        let names: Vec<&str> = Phase::ALL.iter().map(|p| p.name()).collect();
        let mut dedup = names.clone();
        dedup.sort_unstable();
        dedup.dedup();
        assert_eq!(dedup.len(), Phase::COUNT, "duplicate phase name");
        for (i, p) in Phase::ALL.iter().enumerate() {
            assert_eq!(*p as usize, i, "ALL order must match discriminants");
        }
        assert_eq!(Phase::from_name("glue"), Some(Phase::Glue));
        assert_eq!(Phase::from_name("parse"), None);
    }

    #[test]
    fn adds_fold_across_threads() {
        let plane = std::sync::Arc::new(PhasePlane::new(4));
        std::thread::scope(|scope| {
            for _ in 0..8 {
                let plane = plane.clone();
                scope.spawn(move || {
                    for _ in 0..500 {
                        plane.add(Phase::Enumerate, 10);
                        plane.add(Phase::Execute, 3);
                    }
                });
            }
        });
        assert_eq!(plane.get(Phase::Enumerate), (40_000, 4_000));
        assert_eq!(plane.get(Phase::Execute), (12_000, 4_000));
        let fold = plane.fold();
        assert_eq!(fold[Phase::Enumerate].0, 40_000);
        assert_eq!(fold[Phase::Prepare], (0, 0));
    }
}
