//! `docs/TELEMETRY.md` documents every catalog entry: a counter, phase or
//! latency path added to a catalog without a line in the doc fails here.

use starqo_trace::{LatencyPath, Metric, Phase};

const DOC: &str = include_str!("../../../docs/TELEMETRY.md");

#[test]
fn telemetry_doc_names_every_catalog_entry() {
    let names = Metric::ALL
        .iter()
        .map(|m| m.name())
        .chain(Phase::ALL.iter().map(|p| p.name()))
        .chain(LatencyPath::ALL.iter().map(|p| p.name()));
    let missing: Vec<&str> = names
        .filter(|name| !DOC.contains(&format!("`{name}`")))
        .collect();
    assert!(missing.is_empty(), "docs/TELEMETRY.md lacks {missing:?}");
}
