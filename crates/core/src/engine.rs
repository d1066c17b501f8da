//! The STAR interpreter.
//!
//! §2.3: "Each reference of a STAR is evaluated by replacing the reference
//! with its alternative definitions that satisfy the condition of
//! applicability, and replacing the parameters of those definitions with
//! the arguments of the reference. [...] this substitution process is
//! remarkably simple and fast; the fanout of any reference of a STAR is
//! limited to just those STARs referenced in its definition."
//!
//! The engine also memoizes STAR references by (star, arguments), realizing
//! "alternative plans may incorporate the same plan fragment, whose
//! alternatives need be evaluated only once" (§1) — the E12 counters come
//! from here.

use std::hash::{Hash, Hasher};
use std::ops::Range;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::Arc;
use std::time::Instant;

use starqo_catalog::{Catalog, ColId};
use starqo_plan::{
    panic_msg, AccessSpec, ColSet, CostModel, ExtArg, JoinFlavor, Lolepop, PropCtx, PropEngine,
    Props,
};
use starqo_query::{PredSet, QCol, QSet, Query, Shared};
use starqo_trace::{CostBreakdownEv, SpanContext, SpanGuard, TraceEvent};

use crate::error::{CoreError, Res, Result};
use crate::faults::{self, FaultPlan};
use crate::glue;
use crate::hash::{DigestMap, RunHasher, RunSet};
use crate::natives::{NativeCtx, Natives};
use crate::optimizer::OptConfig;
use crate::rules::{Alt, BinOp, Expr, Guard, ReqExpr, RuleSet, StarDef, StarId};
use crate::store::{PlanId, RunStore};
use crate::table::PlanTable;
use crate::value::{RuleValue, Sap, StreamRef};

/// Work counters for the optimization run — the currency of experiment E8
/// (STAR expansion vs. transformational search).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct OptStats {
    /// STAR references evaluated.
    pub star_refs: u64,
    /// STAR references answered from the memo.
    pub memo_hits: u64,
    /// Alternative definitions considered.
    pub alts_considered: u64,
    /// Conditions of applicability evaluated.
    pub conds_evaluated: u64,
    /// Plan nodes successfully built (property functions run).
    pub plans_built: u64,
    /// Operator applications rejected by a property function (illegal combo).
    pub plans_rejected: u64,
    /// Glue references.
    pub glue_refs: u64,
    /// Glue references answered from the glue cache.
    pub glue_cache_hits: u64,
    /// Glue operators injected.
    pub glue_veneers: u64,
    /// Native ("C function") calls.
    pub native_calls: u64,
}

/// Memo key: the referenced STAR and where its argument values were moved
/// to in [`Engine::memo_args`] when the reference was first expanded. The
/// memo is probed with a digest of the arguments while they still sit on
/// the operand stack.
struct MemoKey {
    star: StarId,
    args: Range<usize>,
}

/// One quarantined rule alternative: the diagnostic surfaced on
/// [`crate::Optimized::quarantined`] and in `rule_quarantined` trace
/// events.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct QuarantineRecord {
    pub star: String,
    /// 1-based alternative index within the STAR.
    pub alt: usize,
    /// Rendered condition of applicability (or the alternative's
    /// expression when unguarded).
    pub cond: String,
    /// The panic or error message that triggered quarantine.
    pub reason: String,
}

/// An evaluated expression. A variable or a constant is not copied to be
/// read: it is named by where it already lives, and only an argument that
/// must sit on the operand stack is cloned.
enum Operand<'r> {
    /// An environment slot, by its index on the operand stack.
    Slot(usize),
    /// A constant of the rule.
    Const(&'r RuleValue),
    /// A computed value.
    Val(RuleValue),
}

impl Operand<'_> {
    fn get<'s>(&'s self, stack: &'s [RuleValue]) -> &'s RuleValue {
        match self {
            Operand::Slot(i) => &stack[*i],
            Operand::Const(v) => v,
            Operand::Val(v) => v,
        }
    }

    fn into_value(self, stack: &[RuleValue]) -> RuleValue {
        match self {
            Operand::Slot(i) => stack[i].clone(),
            Operand::Const(v) => v.clone(),
            Operand::Val(v) => v,
        }
    }
}

/// The environment of the reference being expanded: a window of the operand
/// stack holding the parameters, then one slot per `with` binding of the
/// group under evaluation, then the ∀ variable.
struct Frame<'r> {
    star: &'r StarDef,
    /// Operand-stack index of parameter 0.
    base: usize,
    params: usize,
    /// The group's bindings; the first `forced` of them hold their value,
    /// the rest are evaluated when a slot at or beyond them is first read.
    bindings: &'r [Expr],
    forced: usize,
    /// Slots in scope right now.
    live: usize,
}

/// One optimization run's interpreter state.
pub struct Engine<'a> {
    pub rules: &'a RuleSet,
    pub natives: &'a Natives,
    pub prop: &'a PropEngine,
    pub catalog: &'a Catalog,
    pub query: &'a Query,
    pub model: &'a CostModel,
    pub config: &'a OptConfig,
    /// Every plan node and SAP of the run, and the requirement vectors of
    /// its streams; everything else names them by index.
    pub store: RunStore,
    pub table: PlanTable,
    pub stats: OptStats,
    /// Request-scoped span recorder; `SpanContext::off()` by default.
    /// When live, every non-memoized STAR expansion and top-level Glue
    /// invocation appends a span to the owning request's tree; on a
    /// detailed request the engine, plan table and Glue annotate their
    /// events there too.
    pub(crate) spans: SpanContext,
    /// Wall-clock nanos spent inside top-level Glue invocations.
    pub(crate) glue_nanos: u64,
    /// Current Glue recursion depth (Glue can re-enter via AccessRoot);
    /// only depth-0 invocations accumulate `glue_nanos`.
    pub(crate) glue_depth: u32,
    /// The one property-function context of the run (it caches what it
    /// derives per quantifier).
    ctx: PropCtx<'a>,
    memo: DigestMap<MemoKey, Sap>,
    /// The argument values of every memoized reference, end to end.
    memo_args: Vec<RuleValue>,
    /// Keyed by the stream (tables + requirements) and the pushdown.
    pub(crate) glue_cache: DigestMap<(StreamRef, PredSet), Sap>,
    /// The operand stack: the arguments of the reference, native or LOLEPOP
    /// being called are pushed here, and a referenced STAR's environment is
    /// the window that starts at its arguments ([`Frame`]). Stack
    /// discipline throughout: whoever pushes truncates back.
    stack: Vec<RuleValue>,
    /// Plans of the SAP under construction, by the same discipline: a
    /// producer notes the length, pushes, and [`Engine::finish_sap`] takes
    /// its plans off again.
    pub(crate) plans: Vec<PlanId>,
    /// The SAPs the alternatives of the references being expanded have
    /// produced so far, innermost reference on top.
    parts: Vec<Sap>,
    /// Scratch set of [`Engine::finish_sap`], reused across calls.
    seen: RunSet<u64>,
    /// The STARs the driver and Glue reference, resolved once per run.
    access_root: Option<StarId>,
    join_root: Option<StarId>,
    /// Armed fault-injection plan (`native`/`prop` sites), from the config.
    faults: Option<Arc<FaultPlan>>,
    /// Absolute deadline computed from the budget at construction.
    deadline: Option<Instant>,
    /// First exhausted budget resource ("resource: detail"); once set, the
    /// engine explores greedily (first productive alternative wins).
    exhausted: Option<String>,
    /// Alternatives disabled after panicking or erroring, keyed by
    /// (star, group, alternative). Empty in every healthy run.
    quarantined: RunSet<(StarId, usize, usize)>,
    /// Quarantine diagnostics in order of occurrence.
    pub quarantine_log: Vec<QuarantineRecord>,
    depth: u32,
    /// Unique-per-run STAR reference ids (0 is reserved for "the driver");
    /// only advanced when the request records spans.
    next_ref_id: u64,
    /// Stack of in-flight reference ids — the top is the `parent` of any
    /// reference (and the `ref_id` of any event) emitted right now.
    ref_stack: Vec<u64>,
}

/// Default STAR-reference nesting limit (`max_star_depth` overrides). A
/// safety valve against cyclic definitions: real rule sets nest a handful
/// of levels, and the valve must trip with comfortable stack headroom on
/// a 2 MiB thread — at 128 a debug build ran within a few percent of the
/// guard page before the typed error fired.
const MAX_DEPTH: u32 = 64;

impl<'a> Engine<'a> {
    #[allow(clippy::too_many_arguments)]
    pub fn new(
        rules: &'a RuleSet,
        natives: &'a Natives,
        prop: &'a PropEngine,
        catalog: &'a Catalog,
        query: &'a Query,
        model: &'a CostModel,
        config: &'a OptConfig,
    ) -> Self {
        let mut table = PlanTable::new();
        table.ablate_pruning = config.ablate_pruning;
        Engine {
            rules,
            natives,
            prop,
            catalog,
            query,
            model,
            config,
            store: RunStore::default(),
            table,
            stats: OptStats::default(),
            spans: SpanContext::off(),
            glue_nanos: 0,
            glue_depth: 0,
            ctx: PropCtx::new(catalog, query, model),
            memo: DigestMap::default(),
            memo_args: Vec::new(),
            glue_cache: DigestMap::default(),
            stack: Vec::new(),
            plans: Vec::new(),
            parts: Vec::new(),
            seen: RunSet::default(),
            access_root: rules.lookup("AccessRoot"),
            join_root: rules.lookup("JoinRoot"),
            faults: config.faults.clone(),
            deadline: config.budget.deadline.map(|d| Instant::now() + d),
            exhausted: None,
            quarantined: RunSet::default(),
            quarantine_log: Vec::new(),
            depth: 0,
            next_ref_id: 0,
            ref_stack: Vec::new(),
        }
    }

    /// Attach a request's span recorder (per-STAR and Glue spans, and the
    /// events of a detailed request).
    pub fn set_spans(&mut self, spans: SpanContext) {
        self.spans = spans;
    }

    /// Nanoseconds spent in top-level Glue invocations so far.
    pub fn glue_nanos(&self) -> u64 {
        self.glue_nanos
    }

    pub fn prop_ctx(&self) -> &PropCtx<'a> {
        &self.ctx
    }

    fn eval_err(&self, star: &str, msg: impl Into<String>) -> Box<CoreError> {
        Box::new(CoreError::Eval {
            star: star.to_string(),
            msg: msg.into(),
        })
    }

    // ---- resource governor ----------------------------------------------

    /// True once any budget resource ran out: the engine is in greedy,
    /// best-so-far mode and the result will be flagged degraded.
    pub fn degraded(&self) -> bool {
        self.exhausted.is_some()
    }

    /// Which resource ran out first ("resource: detail"), when degraded.
    pub fn degraded_reason(&self) -> Option<&str> {
        self.exhausted.as_deref()
    }

    /// Record budget exhaustion (first one wins) and switch to greedy
    /// exploration. Never an error: any complete plan the greedy pass
    /// keeps can be veneered by Glue to meet the root requirements.
    fn exhaust(&mut self, resource: &str, detail: String) {
        if self.exhausted.is_some() {
            return;
        }
        self.spans.detail(|| TraceEvent::BudgetExhausted {
            resource: resource.to_string(),
            detail: detail.clone(),
        });
        self.exhausted = Some(format!("{resource}: {detail}"));
    }

    /// Deadline check, paid once per STAR reference (one clock read).
    fn check_deadline(&mut self) {
        if self.exhausted.is_some() {
            return;
        }
        if let Some(dl) = self.deadline {
            if Instant::now() >= dl {
                let ms = self
                    .config
                    .budget
                    .deadline
                    .map(|d| d.as_millis())
                    .unwrap_or(0);
                self.exhaust("deadline", format!("deadline of {ms} ms elapsed"));
            }
        }
    }

    /// Reference a STAR by name, for callers that have only a name.
    pub fn eval_star_by_name(&mut self, name: &str, args: Vec<RuleValue>) -> Result<Sap> {
        let id = self
            .rules
            .lookup(name)
            .ok_or_else(|| self.eval_err(name, "no such STAR"))?;
        self.eval_star(id, args)
    }

    /// Reference a STAR: expand its alternative definitions (see
    /// [`Engine::reference`]).
    pub fn eval_star(&mut self, id: StarId, args: Vec<RuleValue>) -> Result<Sap> {
        let base = self.stack.len();
        self.stack.extend(args);
        Ok(self.reference(id, base)?)
    }

    /// Reference `AccessRoot` for a single-table stream with `preds`
    /// applied, registering its plans in the plan table.
    pub(crate) fn access_root(&mut self, tables: QSet, preds: PredSet) -> Res<Sap> {
        let q = tables
            .as_single()
            .ok_or_else(|| CoreError::Glue(format!("AccessRoot on multi-table stream {tables}")))?;
        let id = self.access_root;
        let id = id.ok_or_else(|| self.eval_err("AccessRoot", "no such STAR"))?;
        let base = self.stack.len();
        let cols = RuleValue::ColSet(self.query.required_cols(q).clone());
        self.stack
            .extend([stream(tables), cols, RuleValue::Preds(preds)]);
        self.reference(id, base)
    }

    /// Reference `JoinRoot` for two streams that `preds` newly relate,
    /// registering its plans in the plan table.
    pub(crate) fn join_root(&mut self, s1: QSet, s2: QSet, preds: PredSet) -> Res<Sap> {
        let id = self.join_root;
        let id = id.ok_or_else(|| self.eval_err("JoinRoot", "no such STAR"))?;
        let base = self.stack.len();
        self.stack
            .extend([stream(s1), stream(s2), RuleValue::Preds(preds)]);
        self.reference(id, base)
    }

    /// The reference id events emitted right now should attribute to.
    pub(crate) fn cur_ref(&self) -> u64 {
        self.ref_stack.last().copied().unwrap_or(0)
    }

    /// Reference STAR `id` with the arguments on the operand stack from
    /// `base` up, which are consumed: a memo lookup, else the expansion of
    /// its alternative definitions. What a fresh expansion of
    /// `AccessRoot`/`JoinRoot` produces goes into the plan table, whoever
    /// referenced it (driver, Glue or a rule); a memo hit registers nothing
    /// — the expansion it answers from already did.
    fn reference(&mut self, id: StarId, base: usize) -> Res<Sap> {
        let result = self.lookup_or_expand(id, base);
        self.stack.truncate(base);
        result
    }

    fn lookup_or_expand(&mut self, id: StarId, base: usize) -> Res<Sap> {
        self.stats.star_refs += 1;
        self.check_deadline();
        let spanned = self.spans.enabled();
        // Reference ids advance whenever the request records: events and
        // spans share the same id space, so a span's `meta` cross-references
        // the `star_ref` events of the same request.
        let ref_id = if spanned {
            self.next_ref_id += 1;
            self.next_ref_id
        } else {
            0
        };
        let parent = self.cur_ref();
        // The arguments are digested once, where they are; probing and
        // growing the memo then hash eight bytes, and they are compared
        // with a stored key only where the digests already agree.
        let mut h = RunHasher::default();
        id.hash(&mut h);
        for a in &self.stack[base..] {
            a.digest(&mut h, &self.store);
        }
        let digest = h.finish();
        let (args, store) = (&self.stack[base..], &self.store);
        let same_reference = |k: &MemoKey| {
            let stored = &self.memo_args[k.args.clone()];
            k.star == id
                && stored.len() == args.len()
                && stored.iter().zip(args).all(|(a, b)| a.same(b, store))
        };
        let memo = (!self.config.ablate_memo).then_some(&self.memo);
        let hit = memo.and_then(|m| m.find(digest, same_reference)).copied();
        self.spans.detail(|| TraceEvent::StarRef {
            star: self.rules.star(id).name.clone(),
            sid: id.0,
            id: ref_id,
            parent,
            memo_hit: hit.is_some(),
        });
        if let Some(hit) = hit {
            self.stats.memo_hits += 1;
            return Ok(hit);
        }
        let max_depth = self.config.budget.max_star_depth.unwrap_or(MAX_DEPTH);
        if self.depth >= max_depth {
            return Err(self.eval_err(
                &self.rules.star(id).name,
                "recursion limit exceeded (cyclic STAR definitions?)",
            ));
        }
        self.depth += 1;
        // The expansion's span: nested references nest naturally (one
        // request is expanded by one thread), `meta` carries the ref id,
        // and its duration is the expansion's inclusive time.
        let star_span = if spanned {
            self.ref_stack.push(ref_id);
            self.spans
                .enter_meta(self.rules.star(id).span_name.clone(), ref_id)
        } else {
            SpanGuard::noop()
        };
        // The arguments are the base of the reference's environment:
        // bindings and the ∀ variable are pushed above them and popped
        // again, so nothing is copied per reference.
        let params = self.stack.len() - base;
        let result = self.expand(id, base);
        self.stack.truncate(base + params);
        if spanned {
            self.ref_stack.pop();
        }
        self.depth -= 1;
        let plans = result?;
        drop(star_span);
        match self.config.budget.max_memo_entries {
            // A full memo stops growing (references re-expand from here
            // on) and flips the engine into greedy mode.
            Some(cap) if self.memo.len() >= cap => {
                self.exhaust("memo_entries", format!("memo cap of {cap} entries reached"));
            }
            _ if self.config.ablate_memo => {}
            _ => {
                let at = self.memo_args.len();
                self.memo_args.extend(self.stack.drain(base..));
                let args = at..self.memo_args.len();
                self.memo.insert(digest, MemoKey { star: id, args }, plans);
            }
        }
        if Some(id) == self.access_root || Some(id) == self.join_root {
            for &p in self.store.sap(plans) {
                self.table.insert(&self.store, p, &self.spans);
            }
        }
        Ok(plans)
    }

    /// Expand a STAR over the environment at `base`: every alternative
    /// whose condition of applicability holds contributes the SAPs it
    /// evaluates to. A reference that got exactly one SAP returns that SAP
    /// itself — `PermutedJoin → SitedJoin → JMeth` forward one range — and
    /// only several are merged into a new one.
    fn expand(&mut self, id: StarId, base: usize) -> Res<Sap> {
        // Borrowed from the rule set for the run's lifetime, never copied:
        // expansion is a dictionary lookup plus substitution (§2.3).
        let rules: &'a RuleSet = self.rules;
        let star = rules.star(id);
        let params = self.stack.len() - base;
        let parts0 = self.parts.len();
        let mut f = Frame {
            star,
            base,
            params,
            bindings: &[],
            forced: 0,
            live: params,
        };
        let mut first_err: Option<Box<CoreError>> = None;
        for (group_idx, group) in star.groups.iter().enumerate() {
            // Environment: parameters, then one slot per binding of this
            // group (a filler until the binding is first read), then one
            // slot for the forall variable.
            let bound = base + params + group.bindings.len();
            self.stack.truncate(base + params);
            self.stack.resize(bound, RuleValue::AllCols);
            f.bindings = &group.bindings;
            f.forced = 0;
            let mut any_fired = false;
            for (alt_idx, alt) in group.alts.iter().enumerate() {
                if !self.quarantined.is_empty()
                    && self.quarantined.contains(&(id, group_idx, alt_idx))
                {
                    continue;
                }
                self.stats.alts_considered += 1;
                // A failed alternative may leave operands or its ∀ item.
                self.stack.truncate(bound);
                f.live = bound - base;
                let before = self.parts.len();
                let plans0 = self.plans.len();
                // Quarantine boundary: rules are data, so a panicking or
                // erroring alternative (guard and the bindings it reads
                // included) disables itself while its siblings keep
                // optimizing. A panic unwinding through nested references
                // leaves depth/ref/glue counters advanced; snapshot them
                // for repair.
                let depth0 = self.depth;
                let stack0 = self.ref_stack.len();
                let glue_depth0 = self.glue_depth;
                let step = catch_unwind(AssertUnwindSafe(|| -> Res<bool> {
                    let fire = match &alt.guard {
                        Guard::Always => true,
                        Guard::Otherwise => !any_fired,
                        Guard::If(cond) => {
                            self.stats.conds_evaluated += 1;
                            // The forall variable is not in scope in the
                            // guard; guards are per-alternative, not
                            // per-item.
                            let v = self.eval_expr(cond, &mut f)?;
                            v.get(&self.stack).as_bool().ok_or_else(|| {
                                self.eval_err(&star.name, "condition did not evaluate to a boolean")
                            })?
                        }
                    };
                    if !fire {
                        if let Guard::If(cond) = &alt.guard {
                            self.spans.detail(|| TraceEvent::CondFailed {
                                star: star.name.clone(),
                                alt: alt_idx + 1,
                                ref_id: self.cur_ref(),
                                cond: self.rules.render_expr(cond, &star.params, self.natives),
                            });
                        }
                        return Ok(false);
                    }
                    self.eval_alt(alt, &mut f, alt_idx)?;
                    Ok(true)
                }));
                // Only an alternative that ran to completion contributes.
                if !matches!(step, Ok(Ok(true))) {
                    self.parts.truncate(before);
                    self.plans.truncate(plans0);
                }
                match step {
                    Ok(Ok(false)) => {} // condition of applicability failed
                    Ok(Ok(true)) => {
                        any_fired = true;
                        let produced = &self.parts[before..];
                        self.spans.detail(|| TraceEvent::AltFired {
                            star: star.name.clone(),
                            alt: alt_idx + 1,
                            ref_id: self.cur_ref(),
                            plans: produced.iter().map(|sap| sap.len()).sum(),
                        });
                        // First producer wins, and what a STAR reference
                        // returns was recorded by that STAR's alternatives
                        // — which is why handing its SAP on unchanged
                        // leaves every origin as it was.
                        if !matches!(alt.expr, Expr::CallStar(..)) {
                            for &sap in produced {
                                for at in 0..sap.len() {
                                    let p = self.store.sap(sap)[at];
                                    self.store.label(p, alt.label);
                                }
                            }
                        }
                        let productive = produced.iter().any(|sap| !sap.is_empty());
                        if group.exclusive {
                            break;
                        }
                        // Greedy (degraded) mode: an inclusive group stops
                        // at its first productive alternative.
                        if self.exhausted.is_some() && productive {
                            break;
                        }
                    }
                    Ok(Err(e)) => {
                        let e = self.quarantine_alt(id, group_idx, alt_idx, star, alt, e);
                        first_err.get_or_insert(e);
                    }
                    Err(payload) => {
                        self.depth = depth0;
                        self.ref_stack.truncate(stack0);
                        self.glue_depth = glue_depth0;
                        let e = Box::new(CoreError::Panicked {
                            context: format!("STAR {}", self.rules.labels[alt.label as usize]),
                            msg: panic_msg(payload),
                        });
                        let e = self.quarantine_alt(id, group_idx, alt_idx, star, alt, e);
                        first_err.get_or_insert(e);
                    }
                }
            }
        }
        let out = if self.parts.len() == parts0 + 1 {
            self.parts.pop().unwrap_or_default()
        } else {
            let start = self.plans.len();
            for sap in self.parts.drain(parts0..) {
                self.plans.extend_from_slice(self.store.sap(sap));
            }
            self.finish_sap(start)
        };
        // Partial failure with surviving plans is quarantine-and-continue;
        // a reference that produced nothing *because* its alternatives
        // failed keeps the first typed error (a fully-broken rule — e.g. a
        // cyclic definition — still fails loudly).
        match first_err {
            Some(e) if out.is_empty() => Err(e),
            _ => Ok(out),
        }
    }

    /// Drop structural duplicates among the plans pushed since `start`,
    /// keeping first occurrences.
    pub(crate) fn dedup(&mut self, start: usize) {
        if self.plans.len() - start > 1 {
            self.seen.clear();
            let mut kept = start;
            for i in start..self.plans.len() {
                if self.seen.insert(self.store[self.plans[i]].fingerprint) {
                    self.plans.swap(kept, i);
                    kept += 1;
                }
            }
            self.plans.truncate(kept);
        }
    }

    /// Take the (duplicate-free) plans pushed since `start` off the scratch
    /// vector as one SAP in the store.
    pub(crate) fn take_sap(&mut self, start: usize) -> Sap {
        let sap = self.store.add_sap(&self.plans[start..]);
        self.plans.truncate(start);
        sap
    }

    /// [`Self::dedup`] then [`Self::take_sap`]: how every producer but Glue
    /// (which ranks its plans in between) closes the SAP it pushed.
    pub(crate) fn finish_sap(&mut self, start: usize) -> Sap {
        self.dedup(start);
        self.take_sap(start)
    }

    /// Disable one alternative for the rest of the run, recording a
    /// diagnostic that names the STAR and its condition of applicability.
    fn quarantine_alt(
        &mut self,
        id: StarId,
        group_idx: usize,
        alt_idx: usize,
        star: &StarDef,
        alt: &Alt,
        err: Box<CoreError>,
    ) -> Box<CoreError> {
        if !self.quarantined.insert((id, group_idx, alt_idx)) {
            return err; // already quarantined (recursive re-entry)
        }
        let cond = match &alt.guard {
            Guard::If(c) => self.rules.render_expr(c, &star.params, self.natives),
            Guard::Otherwise => "otherwise".to_string(),
            Guard::Always => self
                .rules
                .render_expr(&alt.expr, &star.params, self.natives),
        };
        let reason = err.to_string();
        self.spans.detail(|| TraceEvent::RuleQuarantined {
            star: star.name.clone(),
            alt: alt_idx + 1,
            ref_id: self.cur_ref(),
            cond: cond.clone(),
            reason: reason.clone(),
        });
        self.quarantine_log.push(QuarantineRecord {
            star: star.name.clone(),
            alt: alt_idx + 1,
            cond,
            reason,
        });
        err
    }

    /// Evaluate one alternative, pushing the SAPs it produces on `parts`.
    fn eval_alt(&mut self, alt: &'a Alt, f: &mut Frame<'a>, alt_idx: usize) -> Res<()> {
        let star = f.star;
        match &alt.forall {
            None => {
                let v = self.eval_expr(&alt.expr, f)?;
                let sap = self.want_plans(v, &star.name)?;
                self.parts.push(sap);
            }
            Some(set_expr) => {
                let items = match self.eval_expr(set_expr, f)?.get(&self.stack) {
                    RuleValue::List(items) => items.clone(),
                    other => {
                        return Err(self.eval_err(
                            &star.name,
                            format!("forall set must be a list, got {}", other.kind()),
                        ))
                    }
                };
                // Per-rule expansion cap: excess ∀ items are dropped
                // (degraded), not an error.
                let mut items = items.as_slice();
                if let Some(cap) = self.config.budget.max_forall_items {
                    if items.len() > cap {
                        self.exhaust(
                            "forall_items",
                            format!("forall expansion of {} items capped at {cap}", items.len()),
                        );
                        items = &items[..cap];
                    }
                }
                self.spans.detail(|| TraceEvent::ForallExpand {
                    star: star.name.clone(),
                    alt: alt_idx + 1,
                    ref_id: self.cur_ref(),
                    items: items.len(),
                });
                let var = self.stack.len();
                let mut productive = false;
                for item in items {
                    self.stack.push(item.clone());
                    f.live += 1;
                    let v = self.eval_expr(&alt.expr, f);
                    f.live -= 1;
                    let sap = v.and_then(|v| self.want_plans(v, &star.name));
                    self.stack.truncate(var);
                    let sap = sap?;
                    productive |= !sap.is_empty();
                    self.parts.push(sap);
                    // Greedy (degraded) mode: first productive item wins.
                    if self.exhausted.is_some() && productive {
                        break;
                    }
                }
            }
        }
        Ok(())
    }

    fn want_plans(&self, v: Operand<'_>, star: &str) -> Res<Sap> {
        match v.get(&self.stack) {
            RuleValue::Plans(p) => Ok(*p),
            other => Err(self.eval_err(
                star,
                format!("alternative did not produce plans (got {})", other.kind()),
            )),
        }
    }

    /// Evaluate one rule expression in the environment `f`. A variable or a
    /// constant is answered here, inlined into the caller; only a compound
    /// expression pays for a call.
    #[inline]
    fn eval_expr(&mut self, e: &'a Expr, f: &mut Frame<'a>) -> Res<Operand<'a>> {
        match e {
            Expr::Const(v) => Ok(Operand::Const(v)),
            Expr::Var(slot) => {
                let slot = *slot as usize;
                // A slot at or beyond the first binding without a value
                // yet: evaluate up to it (or report it unbound).
                if slot >= f.params + f.forced {
                    self.force_bindings(f, slot)?;
                }
                Ok(Operand::Slot(f.base + slot))
            }
            _ => self.eval_compound(e, f),
        }
    }

    fn eval_compound(&mut self, e: &'a Expr, f: &mut Frame<'a>) -> Res<Operand<'a>> {
        let star: &'a str = &f.star.name;
        match e {
            Expr::Const(_) | Expr::Var(_) => self.eval_expr(e, f),
            Expr::CallStar(id, args) => {
                let base = self.push_args(args, f)?;
                Ok(Operand::Val(RuleValue::Plans(self.reference(*id, base)?)))
            }
            Expr::CallFn(id, args) => {
                let top = self.push_args(args, f)?;
                self.stats.native_calls += 1;
                let v = self.call_native(*id, &self.stack[top..], star);
                self.stack.truncate(top);
                Ok(Operand::Val(v?))
            }
            Expr::CallOp(op, args) => {
                let top = self.push_args(args, f)?;
                let plans = self.apply_op(op, top, star);
                self.stack.truncate(top);
                Ok(Operand::Val(RuleValue::Plans(plans?)))
            }
            Expr::Glue(stream_e, preds_e) => {
                let sv = self.eval_expr(stream_e, f)?;
                let pv = self.eval_expr(preds_e, f)?;
                let pushdown = self.as_preds(pv.get(&self.stack), star)?;
                let plans = match sv.into_value(&self.stack) {
                    RuleValue::Stream(s) => glue::glue(self, s, pushdown)?,
                    // Glue over an existing SAP: discharge nothing (no
                    // requirements travel with a SAP); retrofit a FILTER for
                    // any pushdown predicates not yet applied.
                    RuleValue::Plans(ps) => glue::glue_plans(self, ps, pushdown)?,
                    other => {
                        return Err(self.eval_err(
                            star,
                            format!("Glue expects a stream, got {}", other.kind()),
                        ))
                    }
                };
                Ok(Operand::Val(RuleValue::Plans(plans)))
            }
            Expr::WithReqs(base, reqs) => {
                let s = match self.eval_expr(base, f)?.get(&self.stack) {
                    RuleValue::Stream(s) => *s,
                    other => {
                        return Err(self.eval_err(
                            star,
                            format!("requirements apply to streams, got {}", other.kind()),
                        ))
                    }
                };
                let mut acc = self.store.reqs(&s).clone();
                for r in reqs {
                    match r {
                        ReqExpr::Temp => acc.temp = true,
                        ReqExpr::Order(e) => {
                            let v = self.eval_expr(e, f)?;
                            acc.order = Some(self.as_cols(v.get(&self.stack), star)?);
                        }
                        ReqExpr::Site(e) => match self.eval_expr(e, f)?.get(&self.stack) {
                            RuleValue::Site(site) => acc.site = Some(*site),
                            other => {
                                return Err(self.eval_err(
                                    star,
                                    format!(
                                        "site requirement must be a site, got {}",
                                        other.kind()
                                    ),
                                ))
                            }
                        },
                        ReqExpr::Paths(e) => {
                            let v = self.eval_expr(e, f)?;
                            let cols = self.as_cols(v.get(&self.stack), star)?;
                            if !cols.is_empty() {
                                acc.paths = Some(cols);
                            }
                        }
                    }
                }
                let s = self.store.stream(s.tables, acc);
                Ok(Operand::Val(RuleValue::Stream(s)))
            }
            Expr::Binary(op, l, r) => self.eval_binary(*op, l, r, f).map(Operand::Val),
            Expr::Not(inner) => {
                let v = self.eval_expr(inner, f)?;
                let b = v.get(&self.stack).as_bool();
                b.map(|b| Operand::Val(RuleValue::Bool(!b)))
                    .ok_or_else(|| self.eval_err(star, "'not' applied to non-boolean"))
            }
        }
    }

    /// Make environment slot `slot` readable: evaluate the group's `with`
    /// bindings that have no value yet, left to right up to that slot, into
    /// the slots reserved for them. Runs where the first read happens —
    /// inside the reading alternative's quarantine boundary — and at most
    /// once per reference: a binding no firing alternative reads is never
    /// evaluated.
    fn force_bindings(&mut self, f: &mut Frame<'a>, slot: usize) -> Res<()> {
        if slot >= f.live {
            return Err(self.eval_err(&f.star.name, format!("unbound slot {slot}")));
        }
        let bindings = f.bindings;
        while f.forced < bindings.len() && f.params + f.forced <= slot {
            let v = self.eval_expr(&bindings[f.forced], f)?;
            self.stack[f.base + f.params + f.forced] = v.into_value(&self.stack);
            f.forced += 1;
        }
        Ok(())
    }

    /// Evaluate the arguments of a STAR, native or LOLEPOP call onto the
    /// operand stack; returns where they start. The callee reads them as a
    /// slice (a STAR as the base of its environment) and the caller
    /// truncates back.
    fn push_args(&mut self, args: &'a [Expr], f: &mut Frame<'a>) -> Res<usize> {
        let top = self.stack.len();
        for a in args {
            let v = self.eval_expr(a, f)?.into_value(&self.stack);
            self.stack.push(v);
        }
        Ok(top)
    }

    /// Call a native function behind the fault-injection and panic-
    /// containment boundary: armed faults fire first, then the call runs
    /// under `catch_unwind` so a panicking native becomes a typed error
    /// (and quarantines the invoking alternative).
    fn call_native(&self, id: u32, vals: &[RuleValue], star: &str) -> Res<RuleValue> {
        let natives = self.natives;
        if let Some(plan) = &self.faults {
            if let Some(mode) = plan.trigger("native", natives.name(id)) {
                if let Some(msg) = faults::fire(mode, natives.name(id)) {
                    return Err(self.eval_err(star, msg));
                }
            }
        }
        let ctx = NativeCtx {
            catalog: self.catalog,
            query: self.query,
            model: self.model,
            config: self.config,
            table: &self.table,
            store: &self.store,
        };
        match catch_unwind(AssertUnwindSafe(|| natives.call(id, &ctx, vals))) {
            Ok(r) => Ok(r?),
            Err(payload) => Err(Box::new(CoreError::Panicked {
                context: format!("native function '{}'", natives.name(id)),
                msg: panic_msg(payload),
            })),
        }
    }

    fn eval_binary(
        &mut self,
        op: BinOp,
        l: &'a Expr,
        r: &'a Expr,
        f: &mut Frame<'a>,
    ) -> Res<RuleValue> {
        let star: &'a str = &f.star.name;
        // Short-circuit booleans.
        if matches!(op, BinOp::And | BinOp::Or) {
            let lv = self.eval_expr(l, f)?;
            let lb = lv
                .get(&self.stack)
                .as_bool()
                .ok_or_else(|| self.eval_err(star, "boolean operator on non-boolean"))?;
            if (op == BinOp::And && !lb) || (op == BinOp::Or && lb) {
                return Ok(RuleValue::Bool(lb));
            }
            let rv = self.eval_expr(r, f)?;
            let rb = rv.get(&self.stack).as_bool();
            return rb
                .map(RuleValue::Bool)
                .ok_or_else(|| self.eval_err(star, "boolean operator on non-boolean"));
        }
        let lv = self.eval_expr(l, f)?;
        let rv = self.eval_expr(r, f)?;
        let (lv, rv) = (lv.get(&self.stack), rv.get(&self.stack));
        Ok(match op {
            BinOp::Eq => RuleValue::Bool(self.loose_eq(lv, rv)),
            BinOp::Ne => RuleValue::Bool(!self.loose_eq(lv, rv)),
            BinOp::Lt | BinOp::Le | BinOp::Gt | BinOp::Ge => {
                let (a, b) = match (lv, rv) {
                    (RuleValue::Int(a), RuleValue::Int(b)) => (*a, *b),
                    _ => {
                        return Err(self.eval_err(
                            star,
                            format!("ordering comparison on {} and {}", lv.kind(), rv.kind()),
                        ))
                    }
                };
                RuleValue::Bool(match op {
                    BinOp::Lt => a < b,
                    BinOp::Le => a <= b,
                    BinOp::Gt => a > b,
                    BinOp::Ge => a >= b,
                    _ => unreachable!(),
                })
            }
            BinOp::In => match rv {
                RuleValue::List(items) => {
                    RuleValue::Bool(items.iter().any(|i| i.same(lv, &self.store)))
                }
                RuleValue::ColSet(cs) => match lv {
                    RuleValue::Cols(c) if c.len() == 1 => RuleValue::Bool(cs.contains(&c[0])),
                    _ => return Err(self.eval_err(star, "'in' expects a column and a colset")),
                },
                _ => return Err(self.eval_err(star, "'in' expects a list on the right")),
            },
            BinOp::Subset => {
                let a = self.as_preds(lv, star);
                let b = self.as_preds(rv, star);
                match (a, b) {
                    (Ok(a), Ok(b)) => RuleValue::Bool(a.is_subset_of(b)),
                    _ => {
                        let a = self.as_colset(lv, star)?;
                        let b = self.as_colset(rv, star)?;
                        RuleValue::Bool(a.iter().all(|c| b.contains(c)))
                    }
                }
            }
            BinOp::Union | BinOp::Minus | BinOp::Intersect => self.set_op(op, lv, rv, star)?,
            BinOp::And | BinOp::Or => unreachable!(),
        })
    }

    /// `==` with symbol/string interchangeability (so rules can write
    /// `storage_kind(T) == 'heap'` or `== heap`).
    fn loose_eq(&self, a: &RuleValue, b: &RuleValue) -> bool {
        match (a, b) {
            (RuleValue::Str(x), RuleValue::Sym(y)) | (RuleValue::Sym(x), RuleValue::Str(y)) => {
                x == y
            }
            _ => a.same(b, &self.store),
        }
    }

    fn set_op(&self, op: BinOp, l: &RuleValue, r: &RuleValue, star: &str) -> Res<RuleValue> {
        // Predicate sets are the common case; `{}` is canonical empty preds
        // and coerces to either side.
        if let (RuleValue::Preds(a), RuleValue::Preds(b)) = (l, r) {
            return Ok(RuleValue::Preds(match op {
                BinOp::Union => a.union(*b),
                BinOp::Minus => a.minus(*b),
                BinOp::Intersect => a.intersect(*b),
                _ => unreachable!(),
            }));
        }
        // Column lists: ordered union/minus/intersect.
        let a = self.as_cols(l, star)?;
        let b = self.as_cols(r, star)?;
        let out: Vec<QCol> = match op {
            BinOp::Union => {
                let mut v = a.to_vec();
                for c in b.iter() {
                    if !v.contains(c) {
                        v.push(*c);
                    }
                }
                v
            }
            BinOp::Minus => a.iter().filter(|c| !b.contains(c)).copied().collect(),
            BinOp::Intersect => a.iter().filter(|c| b.contains(c)).copied().collect(),
            _ => unreachable!(),
        };
        Ok(RuleValue::Cols(out.into()))
    }

    // ---- coercions ------------------------------------------------------

    fn as_preds(&self, v: &RuleValue, star: &str) -> Res<PredSet> {
        match v {
            RuleValue::Preds(p) => Ok(*p),
            other => Err(self.eval_err(star, format!("expected preds, got {}", other.kind()))),
        }
    }

    /// Ordered column list (a shared view of the value's own columns);
    /// `{}` (empty preds) coerces to the empty list.
    fn as_cols(&self, v: &RuleValue, star: &str) -> Res<Shared<QCol>> {
        match v {
            RuleValue::Cols(c) => Ok(c.clone()),
            RuleValue::ColSet(c) => Ok(c.iter().copied().collect()),
            RuleValue::Preds(p) if p.is_empty() => Ok(Shared::EMPTY),
            other => Err(self.eval_err(star, format!("expected columns, got {}", other.kind()))),
        }
    }

    fn as_colset(&self, v: &RuleValue, star: &str) -> Res<ColSet> {
        match v {
            RuleValue::ColSet(c) => Ok(c.clone()),
            RuleValue::Cols(c) => Ok(c.iter().copied().collect()),
            RuleValue::Preds(p) if p.is_empty() => Ok(ColSet::new()),
            other => Err(self.eval_err(star, format!("expected column set, got {}", other.kind()))),
        }
    }

    // ---- LOLEPOP application ---------------------------------------------

    /// Apply a LOLEPOP reference to the arguments on the operand stack from
    /// `top` up: map over the cartesian product of its SAP arguments,
    /// building one plan node per combination. Combinations a property
    /// function rejects are skipped (counted), not fatal — rules offer
    /// alternatives, and illegal ones simply produce no plan.
    fn apply_op(&mut self, name: &Arc<str>, top: usize, star: &str) -> Res<Sap> {
        let start = self.plans.len();
        match name.as_ref() {
            "ACCESS" => self.op_access(top, star)?,
            "GET" => self.op_get(top, star)?,
            "SORT" => {
                let plans = self.arg_plans(top, 0, "SORT", star)?;
                let key = self.as_cols(&self.stack[top + 1], star)?;
                self.map_unary(plans, || Lolepop::Sort { key: key.clone() })?
            }
            "SHIP" => {
                let plans = self.arg_plans(top, 0, "SHIP", star)?;
                let to = match &self.stack[top + 1] {
                    RuleValue::Site(s) => *s,
                    other => {
                        return Err(self.eval_err(star, format!("SHIP site: got {}", other.kind())))
                    }
                };
                self.map_unary(plans, || Lolepop::Ship { to })?
            }
            "STORE" => {
                let plans = self.arg_plans(top, 0, "STORE", star)?;
                self.map_unary(plans, || Lolepop::Store)?
            }
            "BUILD_INDEX" => {
                let plans = self.arg_plans(top, 0, "BUILD_INDEX", star)?;
                let key = self.as_cols(&self.stack[top + 1], star)?;
                self.map_unary(plans, || Lolepop::BuildIndex { key: key.to_vec() })?
            }
            "FILTER" => {
                let plans = self.arg_plans(top, 0, "FILTER", star)?;
                let preds = self.as_preds(&self.stack[top + 1], star)?;
                self.map_unary(plans, || Lolepop::Filter { preds })?
            }
            "JOIN" => self.op_join(top, star)?,
            "UNION" => {
                let l = self.arg_plans(top, 0, "UNION", star)?;
                let r = self.arg_plans(top, 1, "UNION", star)?;
                for i in 0..l.len() {
                    for j in 0..r.len() {
                        let (a, b) = (self.store.sap(l)[i], self.store.sap(r)[j]);
                        self.try_build(Lolepop::Union, &[a, b])?;
                    }
                }
            }
            _ => self.op_ext(name, top, star)?,
        }
        // Every SAP is duplicate-free, so one node per combination of its
        // plans is too: nothing to drop.
        Ok(self.take_sap(start))
    }

    /// The SAP that is argument `i` of the call whose arguments start at
    /// `top`.
    fn arg_plans(&self, top: usize, i: usize, op: &str, star: &str) -> Res<Sap> {
        self.stack[top..]
            .get(i)
            .and_then(RuleValue::plans)
            .ok_or_else(|| self.eval_err(star, format!("{op}: argument {i} must be plans")))
    }

    /// Annotate the `plan_built` event for a freshly built plan node —
    /// shared by rule-built plans and Glue veneers so estimate→actual
    /// analytics see a per-component cost breakdown for every node that
    /// can appear in a winning plan.
    fn emit_plan_built(&self, p: PlanId) {
        self.spans.detail(|| {
            let p = &self.store[p];
            let by = p.props.cost.breakdown();
            TraceEvent::PlanBuilt {
                op: p.op.name(),
                fp: p.fingerprint,
                ref_id: self.cur_ref(),
                card: p.props.card,
                cost_once: p.props.cost.once,
                cost_rescan: p.props.cost.rescan,
                breakdown: CostBreakdownEv {
                    io: by.io,
                    cpu: by.cpu,
                    comm: by.comm,
                    other: by.other,
                },
            }
        });
    }

    /// Build a Glue veneer node (SORT / SHIP / STORE / FILTER / BUILD_INDEX
    /// / temp-index probe) over `input`, emitting `plan_built` like
    /// rule-built plans do. Veneers are the only nodes carrying pure sort
    /// and communication cost, so calibration would be blind to those
    /// components without their breakdowns. Counts toward `glue_veneers`,
    /// not `plans_built` — a veneer is impedance matching, not a strategy
    /// alternative.
    pub(crate) fn build_veneer(&mut self, op: Lolepop, input: PlanId) -> Res<PlanId> {
        let op_name = self.faults.is_some().then(|| op.name());
        let p = match self.build_node(op, &[input], &op_name, CoreError::Glue) {
            Ok(r) => r?,
            Err(payload) => {
                return Err(Box::new(CoreError::Panicked {
                    context: "property function (glue veneer)".to_string(),
                    msg: panic_msg(payload),
                }))
            }
        };
        self.stats.glue_veneers += 1;
        self.emit_plan_built(p);
        Ok(p)
    }

    /// Derive a node's properties from its inputs' and store it, behind
    /// the fault-injection (`prop` site, matched on `op_name`) and
    /// panic-containment boundary.
    fn build_node(
        &mut self,
        op: Lolepop,
        inputs: &[PlanId],
        op_name: &Option<String>,
        injected: impl FnOnce(String) -> CoreError,
    ) -> std::thread::Result<Result<PlanId>> {
        catch_unwind(AssertUnwindSafe(|| {
            if let (Some(plan), Some(name)) = (&self.faults, op_name) {
                if let Some(mode) = plan.trigger("prop", name) {
                    if let Some(msg) = faults::fire(mode, name) {
                        return Err(injected(msg));
                    }
                }
            }
            let props = |p: PlanId| &self.store[p].props;
            let derived = match *inputs {
                [] => self.prop.derive(&op, &[], &self.ctx),
                [a] => self.prop.derive(&op, &[props(a)], &self.ctx),
                [a, b] => self.prop.derive(&op, &[props(a), props(b)], &self.ctx),
                _ => {
                    let all: Vec<&Props> = inputs.iter().map(|&p| props(p)).collect();
                    self.prop.derive(&op, &all, &self.ctx)
                }
            };
            Ok(self.store.add(op, inputs, derived?))
        }))
    }

    /// Run a property function under the fault-injection and panic-
    /// containment boundary and push the node on the SAP under
    /// construction. A typed rejection stays a counted rejection; a panic
    /// becomes `CoreError::Panicked` for the caller to propagate
    /// (quarantining the invoking alternative).
    fn try_build(&mut self, op: Lolepop, inputs: &[PlanId]) -> Res<()> {
        // `op` moves into the store; keep its name around only when detail
        // or fault matching needs it.
        let op_name = if self.spans.is_detailed() || self.faults.is_some() {
            Some(op.name())
        } else {
            None
        };
        let injected = |msg| CoreError::Eval {
            star: "<injected>".to_string(),
            msg,
        };
        match self.build_node(op, inputs, &op_name, injected) {
            Ok(Ok(p)) => {
                self.stats.plans_built += 1;
                if let Some(cap) = self.config.budget.max_plans_built {
                    if self.stats.plans_built >= cap {
                        self.exhaust("plans_built", format!("plan cap of {cap} nodes reached"));
                    }
                }
                self.emit_plan_built(p);
                self.plans.push(p);
                Ok(())
            }
            Ok(Err(e)) => {
                self.stats.plans_rejected += 1;
                self.spans.detail(|| TraceEvent::PlanRejected {
                    op: op_name.clone().unwrap_or_default(),
                    ref_id: self.cur_ref(),
                    reason: e.to_string(),
                });
                Ok(())
            }
            Err(payload) => Err(Box::new(CoreError::Panicked {
                context: format!(
                    "property function for {}",
                    op_name.unwrap_or_else(|| "operator".to_string())
                ),
                msg: panic_msg(payload),
            })),
        }
    }

    fn map_unary(&mut self, plans: Sap, mut op: impl FnMut() -> Lolepop) -> Res<()> {
        for i in 0..plans.len() {
            let p = self.store.sap(plans)[i];
            self.try_build(op(), &[p])?;
        }
        Ok(())
    }

    fn op_access(&mut self, top: usize, star: &str) -> Res<()> {
        let args = &self.stack[top..];
        if args.len() != 4 {
            return Err(self.eval_err(star, "ACCESS takes (flavor, target, cols, preds)"));
        }
        let flavor = match &args[0] {
            RuleValue::Sym(s) | RuleValue::Str(s) => s.as_ref(),
            other => {
                return Err(self.eval_err(star, format!("ACCESS flavor: got {}", other.kind())))
            }
        };
        let preds = self.as_preds(&args[3], star)?;
        match (&args[1], flavor) {
            (RuleValue::Stream(s), "heap" | "btree") => {
                let q = s.tables.as_single().ok_or_else(|| {
                    self.eval_err(star, "base-table ACCESS requires a single-table stream")
                })?;
                let cols = match &args[2] {
                    RuleValue::AllCols => self.all_cols(q),
                    other => self.as_colset(other, star)?,
                };
                let spec = if flavor == "heap" {
                    AccessSpec::HeapTable(q)
                } else {
                    AccessSpec::BTreeTable(q)
                };
                let op = Lolepop::Access { spec, cols, preds };
                self.try_build(op, &[])
            }
            (RuleValue::Index(ix, q), "index") => {
                let spec = AccessSpec::Index { index: *ix, q: *q };
                let cols = self.as_colset(&args[2], star)?;
                let op = Lolepop::Access { spec, cols, preds };
                self.try_build(op, &[])
            }
            (RuleValue::Plans(plans), "heap" | "temp") => {
                let plans = *plans;
                // `*` on a temp: each plan's own columns.
                let cols = match &args[2] {
                    RuleValue::AllCols => None,
                    _ if plans.is_empty() => None,
                    other => Some(self.as_colset(other, star)?),
                };
                for i in 0..plans.len() {
                    let p = self.store.sap(plans)[i];
                    let cols = cols.clone();
                    let cols = cols.unwrap_or_else(|| self.store[p].props.cols.clone());
                    let spec = AccessSpec::TempHeap;
                    let op = Lolepop::Access { spec, cols, preds };
                    self.try_build(op, &[p])?;
                }
                Ok(())
            }
            (target, fl) => Err(self.eval_err(
                star,
                format!("ACCESS: unsupported flavor {fl} on {}", target.kind()),
            )),
        }
    }

    /// `*` on a base table: every catalog column of quantifier `q`.
    fn all_cols(&self, q: starqo_query::QId) -> ColSet {
        let t = self.catalog.table(self.query.quantifier(q).table);
        let cols = 0..t.columns.len() as u32;
        cols.map(|c| QCol::new(q, ColId(c))).collect()
    }

    fn op_get(&mut self, top: usize, star: &str) -> Res<()> {
        let args = &self.stack[top..];
        if args.len() != 4 {
            return Err(self.eval_err(star, "GET takes (input, table, cols, preds)"));
        }
        let input = self.arg_plans(top, 0, "GET", star)?;
        let q = match &args[1] {
            RuleValue::Stream(s) => s.tables.as_single().ok_or_else(|| {
                self.eval_err(star, "GET requires a single-table stream parameter")
            })?,
            other => return Err(self.eval_err(star, format!("GET table: got {}", other.kind()))),
        };
        let cols = match &args[2] {
            RuleValue::AllCols => self.all_cols(q),
            other => self.as_colset(other, star)?,
        };
        let preds = self.as_preds(&args[3], star)?;
        self.map_unary(input, || Lolepop::Get {
            q,
            cols: cols.clone(),
            preds,
        })
    }

    fn op_join(&mut self, top: usize, star: &str) -> Res<()> {
        let args = &self.stack[top..];
        if args.len() != 5 {
            return Err(self.eval_err(
                star,
                "JOIN takes (flavor, outer, inner, join_preds, residual)",
            ));
        }
        let flavor = match &args[0] {
            RuleValue::Sym(s) | RuleValue::Str(s) => match s.as_ref() {
                "NL" => JoinFlavor::NL,
                "MG" => JoinFlavor::MG,
                "HA" => JoinFlavor::HA,
                other => return Err(self.eval_err(star, format!("unknown JOIN flavor {other}"))),
            },
            other => return Err(self.eval_err(star, format!("JOIN flavor: got {}", other.kind()))),
        };
        let outer = self.arg_plans(top, 1, "JOIN", star)?;
        let inner = self.arg_plans(top, 2, "JOIN", star)?;
        let join_preds = self.as_preds(&args[3], star)?;
        let residual = self.as_preds(&args[4], star)?;
        for i in 0..outer.len() {
            for j in 0..inner.len() {
                let (o, n) = (self.store.sap(outer)[i], self.store.sap(inner)[j]);
                let op = Lolepop::Join {
                    flavor,
                    join_preds,
                    residual,
                };
                self.try_build(op, &[o, n])?;
            }
        }
        Ok(())
    }

    /// Extension operators: SAP arguments become plan inputs (in order);
    /// scalar arguments are packaged as `ExtArg`s.
    fn op_ext(&mut self, name: &Arc<str>, top: usize, star: &str) -> Res<()> {
        if !self.prop.has_ext(name) {
            return Err(self.eval_err(star, format!("unknown operator {name}")));
        }
        let mut plan_args: Vec<Sap> = Vec::new();
        let mut ext_args: Vec<ExtArg> = Vec::new();
        for a in &self.stack[top..] {
            match a {
                RuleValue::Plans(p) => plan_args.push(*p),
                RuleValue::Preds(p) => ext_args.push(ExtArg::Preds(*p)),
                RuleValue::Int(i) => ext_args.push(ExtArg::Int(*i)),
                RuleValue::Str(s) | RuleValue::Sym(s) => ext_args.push(ExtArg::Str(s.clone())),
                RuleValue::Site(s) => ext_args.push(ExtArg::Site(*s)),
                RuleValue::Cols(c) => ext_args.push(ExtArg::Cols(c.to_vec())),
                other => {
                    return Err(self.eval_err(
                        star,
                        format!("{name}: unsupported argument {}", other.kind()),
                    ))
                }
            }
        }
        let arity = plan_args.len();
        let op = Lolepop::Ext {
            name: name.clone(),
            args: ext_args,
            arity,
        };
        // Cartesian product over SAP arguments.
        let mut combos: Vec<Vec<PlanId>> = vec![Vec::new()];
        for &sap in &plan_args {
            let mut next = Vec::new();
            for c in &combos {
                for &p in self.store.sap(sap) {
                    let mut c2 = c.clone();
                    c2.push(p);
                    next.push(c2);
                }
            }
            combos = next;
        }
        for inputs in combos {
            self.try_build(op.clone(), &inputs)?;
        }
        Ok(())
    }
}

impl Engine<'_> {
    /// The rule that first produced a node with this fingerprint, if any.
    pub fn origin(&self, fingerprint: u64) -> Option<&str> {
        let (_, label) = self.store.origins(std::iter::once(fingerprint))[&fingerprint]?;
        Some(&self.rules.labels[label as usize])
    }
}

/// Convenience: make a stream value.
pub fn stream(tables: QSet) -> RuleValue {
    RuleValue::Stream(StreamRef::new(tables))
}
