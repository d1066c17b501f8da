//! The phase catalog: the request stages whose time the striped plane
//! attributes, always on, as nanos plus an occurrence count per phase.
//!
//! The span layer answers "where did *this* request's time go"; the phase
//! tier answers the aggregate form — what fraction of all serve time is
//! cache lookup vs. STAR enumeration vs. execution — cheaply enough to
//! stay on in production (snapshot JSON, Prometheus
//! `starqo_phase_nanos`/`starqo_phase_count` counters).

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

    /// The plane's phase tier: eight threads' `(nanos, count)` pairs fold
    /// exactly, and an untouched phase folds to zero.
    #[test]
    fn adds_fold_across_threads() {
        let plane = crate::telemetry::counters::StripedPlane::new();
        std::thread::scope(|scope| {
            for _ in 0..8 {
                let plane = &plane;
                scope.spawn(move || {
                    for _ in 0..500 {
                        plane.add_phase(Phase::Enumerate, 10);
                        plane.add_phase(Phase::Execute, 3);
                    }
                });
            }
        });
        let fold = plane.fold();
        assert_eq!(fold.phases[Phase::Enumerate], (40_000, 4_000));
        assert_eq!(fold.phases[Phase::Execute], (12_000, 4_000));
        assert_eq!(fold.phases[Phase::Prepare], (0, 0));
    }
}
