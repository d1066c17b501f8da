//! The zero-overhead guarantee: with span recording off (the default), or
//! on but not detailed by the head sampler, no optimizer or executor event
//! is ever constructed — the event-building closures are never run, so
//! detail costs nothing on the hot path.
//!
//! This lives in its own test binary on purpose: `events_constructed()` is a
//! process-global counter, and any *detailed* context in a sibling test
//! would pollute it.

use starqo_core::{OptConfig, Optimizer};
use starqo_exec::Executor;
use starqo_trace::telemetry::SPAN_CAP;
use starqo_trace::{events_constructed, SpanContext};
use starqo_workload::{query_shape, synth_catalog, synth_database, QueryShape, SynthSpec};

#[test]
fn untraced_optimize_and_execute_construct_zero_events() {
    let spec = SynthSpec {
        tables: 3,
        card_range: (50, 300),
        ..Default::default()
    };
    let cat = synth_catalog(17, &spec);
    let db = synth_database(17, cat.clone());
    let opt = Optimizer::new(cat.clone()).expect("rules");
    let query = query_shape(&cat, QueryShape::Chain, 3, false);

    let before = events_constructed();
    // Plain optimize (an off context) and a recorded but undetailed run:
    // both must short-circuit before any event is built.
    let out = opt.optimize(&query, &OptConfig::full()).expect("optimize");
    let recorded = SpanContext::start(1, SPAN_CAP);
    let out2 = opt
        .optimize_spanned(&query, &OptConfig::full(), &recorded)
        .expect("optimize");
    assert_eq!(out.best.fingerprint(), out2.best.fingerprint());

    let mut ex = Executor::new(&db, &query);
    ex.set_spans(recorded.clone());
    ex.run(&out.best).expect("execute");

    assert_eq!(
        events_constructed(),
        before,
        "an off or undetailed context must never construct events"
    );
    let tree = recorded
        .finish(0, 0, 0, "miss", false, false, "slow")
        .expect("spans were recorded");
    assert!(tree.spans.iter().any(|s| s.name.starts_with("star:")));
    assert!(tree.events.is_empty());
}
