//! Deterministic fault injection for robustness testing.
//!
//! A [`FaultPlan`] makes a chosen native property function, cost/property
//! evaluation, or executor LOLEPOP misbehave on its k-th invocation —
//! panic, return an error, or stall for N busy-loop iterations. Plans are
//! parsed from a compact spec (also accepted via the `STARQO_FAULTS`
//! environment variable):
//!
//! ```text
//! site:target:mode[@k] [; site:target:mode[@k] ...]
//!
//! site    native | prop | exec | vexec | reopt
//! target  a native function name ("join_preds"), a LOLEPOP name
//!         ("JOIN" matches "JOIN(NL)" etc.), a vectorized-executor stage
//!         ("morsel" matches "morsel(SCAN T0)", "exchange" likewise), a
//!         re-optimization stage ("overlay", "optimize", "verify",
//!         "swap"), or "*" (any)
//! mode    panic | error | stallN   (N busy-loop iterations)
//! k       fire on the k-th matching invocation (default 1)
//! ```
//!
//! Example: `STARQO_FAULTS="native:join_preds:panic;exec:SORT:stall200000@2"`.
//!
//! Hit counters are atomic so one plan can be shared (`Arc`) between the
//! optimizer config and an executor fault hook. Everything is
//! deterministic: the k-th invocation of a fixed workload is the same
//! every run, and the chaos sweep in `starqo-bench` draws k from the
//! seeded `Rng64`.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

/// What the fault does when it fires.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FaultMode {
    /// Panic at the injection site (must be contained by the host).
    Panic,
    /// Fail with a typed error at the injection site.
    Error,
    /// Busy-spin for this many iterations, then continue normally (models
    /// a slow rule; interacts with the deadline budget).
    Stall(u64),
}

/// One armed fault: where, what, and when.
#[derive(Debug)]
pub struct FaultSpec {
    /// Injection site kind: `"native"`, `"prop"`, `"exec"`, `"vexec"`, or
    /// `"reopt"`.
    pub site: String,
    /// Name to match (exact, prefix-up-to-`'('`, or `"*"`).
    pub target: String,
    pub mode: FaultMode,
    /// Fire on the k-th matching invocation (1-based).
    pub k: u64,
    hits: AtomicU64,
}

impl FaultSpec {
    fn matches(&self, name: &str) -> bool {
        self.target == "*"
            || self.target == name
            || name
                .strip_prefix(self.target.as_str())
                .is_some_and(|rest| rest.starts_with('('))
    }
}

/// A set of armed faults, consulted by the engine (`native`/`prop` sites)
/// and by executor fault hooks (`exec` sites).
#[derive(Debug, Default)]
pub struct FaultPlan {
    pub specs: Vec<FaultSpec>,
}

impl FaultPlan {
    /// A plan with a single armed fault.
    pub fn single(site: &str, target: &str, mode: FaultMode, k: u64) -> Self {
        FaultPlan {
            specs: vec![FaultSpec {
                site: site.to_string(),
                target: target.to_string(),
                mode,
                k: k.max(1),
                hits: AtomicU64::new(0),
            }],
        }
    }

    /// Parse a `site:target:mode[@k]` spec list (see module docs).
    pub fn parse(spec: &str) -> std::result::Result<Self, String> {
        let mut specs = Vec::new();
        for part in spec.split(';') {
            let part = part.trim();
            if part.is_empty() {
                continue;
            }
            let fields: Vec<&str> = part.split(':').collect();
            if fields.len() != 3 {
                return Err(format!(
                    "fault spec '{part}': expected site:target:mode[@k]"
                ));
            }
            let site = fields[0].trim();
            if !matches!(site, "native" | "prop" | "exec" | "vexec" | "reopt") {
                return Err(format!(
                    "fault spec '{part}': site must be native, prop, exec, vexec, or reopt"
                ));
            }
            let target = fields[1].trim();
            if target.is_empty() {
                return Err(format!("fault spec '{part}': empty target"));
            }
            let (mode_s, k) = match fields[2].trim().split_once('@') {
                Some((m, k)) => (
                    m,
                    k.parse::<u64>()
                        .map_err(|_| format!("fault spec '{part}': bad @k"))?,
                ),
                None => (fields[2].trim(), 1),
            };
            let mode = if mode_s == "panic" {
                FaultMode::Panic
            } else if mode_s == "error" {
                FaultMode::Error
            } else if let Some(n) = mode_s.strip_prefix("stall") {
                let iters = if n.is_empty() {
                    1_000_000
                } else {
                    n.parse::<u64>()
                        .map_err(|_| format!("fault spec '{part}': bad stall count"))?
                };
                FaultMode::Stall(iters)
            } else {
                return Err(format!(
                    "fault spec '{part}': mode must be panic, error, or stallN"
                ));
            };
            specs.push(FaultSpec {
                site: site.to_string(),
                target: target.to_string(),
                mode,
                k: k.max(1),
                hits: AtomicU64::new(0),
            });
        }
        Ok(FaultPlan { specs })
    }

    /// Read `STARQO_FAULTS`. `Ok(None)` when unset or empty.
    pub fn from_env() -> std::result::Result<Option<Arc<FaultPlan>>, String> {
        match std::env::var("STARQO_FAULTS") {
            Ok(s) if !s.trim().is_empty() => Ok(Some(Arc::new(FaultPlan::parse(&s)?))),
            _ => Ok(None),
        }
    }

    /// Record one invocation of `name` at `site`; returns the fault to
    /// apply if any armed spec just reached its k-th matching hit.
    pub fn trigger(&self, site: &str, name: &str) -> Option<FaultMode> {
        let mut fired = None;
        for spec in &self.specs {
            if spec.site != site || !spec.matches(name) {
                continue;
            }
            let n = spec.hits.fetch_add(1, Ordering::Relaxed) + 1;
            if n == spec.k && fired.is_none() {
                fired = Some(spec.mode);
            }
        }
        fired
    }

    /// Reset all hit counters (so one parsed plan can drive many runs).
    pub fn reset(&self) {
        for spec in &self.specs {
            spec.hits.store(0, Ordering::Relaxed);
        }
    }
}

/// Busy-spin for `iters` iterations of a data-dependency chain. The work
/// is real (not optimized away), deterministic, and visible to the
/// wall-clock deadline budget.
pub fn stall(iters: u64) {
    let mut x = 0u64;
    for i in 0..iters {
        x = std::hint::black_box(x.wrapping_mul(6364136223846793005).wrapping_add(i));
    }
    std::hint::black_box(x);
}

/// Apply a triggered fault at an optimizer injection site: `Panic` panics
/// (to be contained by the caller's `catch_unwind`), `Stall` spins and
/// returns `None`, `Error` returns the message for the caller to wrap in
/// its typed error.
pub fn fire(mode: FaultMode, site: &str) -> Option<String> {
    match mode {
        FaultMode::Panic => panic!("injected fault: panic at {site}"),
        FaultMode::Stall(n) => {
            stall(n);
            None
        }
        FaultMode::Error => Some(format!("injected fault: error at {site}")),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_full_spec_list() {
        let plan = FaultPlan::parse(
            "native:join_preds:panic; prop:JOIN:error@3 ; exec:SORT:stall500; reopt:verify:error",
        )
        .unwrap();
        assert_eq!(plan.specs.len(), 4);
        assert_eq!(plan.specs[3].site, "reopt");
        assert_eq!(plan.specs[3].mode, FaultMode::Error);
        assert_eq!(plan.specs[0].mode, FaultMode::Panic);
        assert_eq!(plan.specs[0].k, 1);
        assert_eq!(plan.specs[1].mode, FaultMode::Error);
        assert_eq!(plan.specs[1].k, 3);
        assert_eq!(plan.specs[2].mode, FaultMode::Stall(500));
    }

    #[test]
    fn vexec_site_targets_morsels_and_exchanges() {
        let plan = FaultPlan::parse("vexec:morsel:panic; vexec:exchange:error@2").unwrap();
        assert_eq!(plan.specs.len(), 2);
        assert_eq!(plan.specs[0].site, "vexec");
        // Prefix matching covers the parameterized stage names the
        // vectorized executor reports.
        assert_eq!(
            plan.trigger("vexec", "morsel(SCAN T0)"),
            Some(FaultMode::Panic)
        );
        assert_eq!(plan.trigger("vexec", "exchange(SCAN T0)"), None);
        assert_eq!(
            plan.trigger("vexec", "exchange(SCAN T0)"),
            Some(FaultMode::Error)
        );
        // The vexec site never bleeds into serial-executor hooks.
        assert_eq!(plan.trigger("exec", "morsel(SCAN T0)"), None);
    }

    #[test]
    fn rejects_malformed_specs() {
        for bad in [
            "native:join_preds",      // missing mode
            "disk:foo:panic",         // unknown site
            "native::panic",          // empty target
            "native:foo:explode",     // unknown mode
            "native:foo:panic@x",     // bad k
            "native:foo:stallabc",    // bad stall count
            "native:foo:panic:extra", // too many fields
        ] {
            assert!(FaultPlan::parse(bad).is_err(), "accepted {bad:?}");
        }
    }

    #[test]
    fn empty_spec_is_empty_plan() {
        assert!(FaultPlan::parse("").unwrap().specs.is_empty());
        assert!(FaultPlan::parse(" ; ").unwrap().specs.is_empty());
    }

    #[test]
    fn triggers_on_kth_matching_invocation_only() {
        let plan = FaultPlan::single("native", "join_preds", FaultMode::Error, 3);
        assert_eq!(plan.trigger("native", "join_preds"), None);
        assert_eq!(plan.trigger("native", "other_fn"), None); // no match, no hit
        assert_eq!(plan.trigger("exec", "join_preds"), None); // wrong site
        assert_eq!(plan.trigger("native", "join_preds"), None);
        assert_eq!(plan.trigger("native", "join_preds"), Some(FaultMode::Error));
        assert_eq!(plan.trigger("native", "join_preds"), None); // fired once
        plan.reset();
        assert_eq!(plan.trigger("native", "join_preds"), None); // counting anew
    }

    #[test]
    fn prefix_matches_parameterized_lolepop_names() {
        let plan = FaultPlan::single("exec", "JOIN", FaultMode::Panic, 1);
        assert_eq!(plan.trigger("exec", "JOIN(NL)"), Some(FaultMode::Panic));
        let plan = FaultPlan::single("exec", "JOIN", FaultMode::Panic, 1);
        assert_eq!(plan.trigger("exec", "JOINT"), None); // not a param form
        let plan = FaultPlan::single("exec", "*", FaultMode::Panic, 1);
        assert_eq!(plan.trigger("exec", "anything"), Some(FaultMode::Panic));
    }

    #[test]
    fn fire_semantics() {
        assert_eq!(fire(FaultMode::Stall(10), "x"), None);
        assert!(fire(FaultMode::Error, "x").unwrap().contains("injected"));
        let p = std::panic::catch_unwind(|| fire(FaultMode::Panic, "x"));
        assert!(p.is_err());
    }
}
