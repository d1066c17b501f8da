//! The cost model configuration.
//!
//! R\*-shaped [LOHM 85, MACK 86]: COST is a linear combination of I/O (per
//! page), CPU (per tuple operation), and communication (per message and per
//! byte). The weights below are calibrated for *relative* plan ranking —
//! crossover shapes, not absolute milliseconds.

use crate::props::CostComponents;

/// Cost-model parameters. All weights are in abstract "resource units".
#[derive(Debug, Clone)]
pub struct CostModel {
    /// Page size in bytes.
    pub page_bytes: f64,
    /// Cost per page of I/O.
    pub w_io: f64,
    /// Cost per tuple of CPU work (one "RSI call").
    pub w_cpu: f64,
    /// Extra CPU per predicate evaluation.
    pub w_pred: f64,
    /// Cost per message.
    pub w_msg: f64,
    /// Cost per byte shipped.
    pub w_byte: f64,
    /// Bytes per message.
    pub msg_bytes: f64,
    /// Page fetches per tuple for an unclustered GET.
    pub fetch_io: f64,
    /// Fraction of `fetch_io` paid when the access path is clustered.
    pub clustered_factor: f64,
    /// CPU factor per comparison in sorting (× n·log₂n).
    pub sort_cpu: f64,
    /// CPU factor per tuple for hashing (build or probe).
    pub hash_cpu: f64,
    /// B-tree probe overhead in pages (root/internal nodes).
    pub probe_pages: f64,
    /// Cardinality threshold under which Cartesian products are considered
    /// "small" (§2.3's compile-time parameter).
    pub small_card: f64,
}

impl Default for CostModel {
    fn default() -> Self {
        CostModel {
            page_bytes: 4096.0,
            w_io: 1.0,
            w_cpu: 0.01,
            w_pred: 0.002,
            w_msg: 2.0,
            w_byte: 0.0005,
            msg_bytes: 4096.0,
            fetch_io: 1.0,
            clustered_factor: 0.1,
            sort_cpu: 0.012,
            hash_cpu: 0.012,
            probe_pages: 2.0,
            small_card: 100.0,
        }
    }
}

impl CostModel {
    /// Pages occupied by `card` tuples of `width` bytes.
    pub fn pages(&self, card: f64, width: f64) -> f64 {
        ((card.max(0.0) * width.max(1.0)) / self.page_bytes)
            .ceil()
            .max(1.0)
    }

    /// I/O cost of scanning those pages.
    pub fn scan_io(&self, card: f64, width: f64) -> CostComponents {
        CostComponents::io(self.pages(card, width) * self.w_io)
    }

    /// CPU cost of streaming `card` tuples through an operator while
    /// evaluating `npreds` predicates per tuple.
    pub fn stream_cpu(&self, card: f64, npreds: u32) -> CostComponents {
        CostComponents::cpu(card.max(0.0) * (self.w_cpu + npreds as f64 * self.w_pred))
    }

    /// Communication cost of shipping `card` tuples of `width` bytes.
    pub fn ship_cost(&self, card: f64, width: f64) -> CostComponents {
        let bytes = card.max(0.0) * width.max(1.0);
        let msgs = (bytes / self.msg_bytes).ceil().max(1.0);
        CostComponents::comm(msgs * self.w_msg + bytes * self.w_byte)
    }

    /// Cost of sorting `card` tuples of `width` bytes: n·log₂n comparisons
    /// (CPU) plus a write+read pass (I/O).
    pub fn sort_cost(&self, card: f64, width: f64) -> CostComponents {
        let n = card.max(2.0);
        CostComponents::cpu(n * n.log2() * self.sort_cpu)
            + CostComponents::io(2.0 * self.pages(card, width) * self.w_io)
    }

    /// One-time cost of building a B-tree index over `card` entries of key
    /// width `kwidth`: sort the entries, write the leaves.
    pub fn index_build_cost(&self, card: f64, kwidth: f64) -> CostComponents {
        self.sort_cost(card, kwidth + 8.0)
            + CostComponents::io(self.pages(card, kwidth + 8.0) * self.w_io)
    }

    /// Per-probe I/O cost of a B-tree lookup touching `leaf_pages` leaf
    /// pages.
    pub fn probe_cost(&self, leaf_pages: f64) -> CostComponents {
        CostComponents::io((self.probe_pages + leaf_pages) * self.w_io)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pages_round_up_and_floor_at_one() {
        let m = CostModel::default();
        assert_eq!(m.pages(0.0, 100.0), 1.0);
        assert_eq!(m.pages(1.0, 100.0), 1.0);
        assert_eq!(m.pages(41.0, 100.0), 2.0); // 4100 bytes > 1 page
        assert_eq!(m.pages(1000.0, 4096.0), 1000.0);
    }

    #[test]
    fn ship_cost_charges_messages_and_bytes() {
        let m = CostModel::default();
        let one_page = m.ship_cost(1.0, 100.0).total();
        let many = m.ship_cost(1000.0, 100.0).total();
        assert!(many > one_page);
        // 100_000 bytes = 25 messages.
        assert!((many - (25.0 * m.w_msg + 100_000.0 * m.w_byte)).abs() < 1e-9);
    }

    #[test]
    fn sort_cost_superlinear() {
        let m = CostModel::default();
        let c1 = m.sort_cost(1_000.0, 50.0).total();
        let c2 = m.sort_cost(2_000.0, 50.0).total();
        assert!(
            c2 > 2.0 * c1 * 0.99,
            "sort should be at least ~2x for 2x input"
        );
    }

    #[test]
    fn component_helpers_match_scalars() {
        let m = CostModel::default();
        let pages = m.pages(500.0, 80.0);
        assert_eq!(m.scan_io(500.0, 80.0).total(), pages * m.w_io);
        let cpu = 500.0 * (m.w_cpu + 2.0 * m.w_pred);
        assert_eq!(m.stream_cpu(500.0, 2).total(), cpu);
        let comm = (40_000.0f64 / m.msg_bytes).ceil() * m.w_msg + 40_000.0 * m.w_byte;
        assert_eq!(m.ship_cost(500.0, 80.0).total(), comm);
        let sort = 500.0 * 500f64.log2() * m.sort_cpu + 2.0 * pages * m.w_io;
        assert!((m.sort_cost(500.0, 80.0).total() - sort).abs() < 1e-9);
        let build = m.sort_cost(500.0, 16.0).total() + m.pages(500.0, 16.0) * m.w_io;
        assert!((m.index_build_cost(500.0, 8.0).total() - build).abs() < 1e-9);
        assert_eq!(m.probe_cost(3.0).total(), (m.probe_pages + 3.0) * m.w_io);
        // Attribution lands in the right buckets.
        assert_eq!(m.scan_io(500.0, 80.0).cpu, 0.0);
        assert_eq!(m.ship_cost(500.0, 80.0).io, 0.0);
        let sort = m.sort_cost(500.0, 80.0);
        assert!(sort.cpu > 0.0 && sort.io > 0.0 && sort.comm == 0.0);
    }

    #[test]
    fn probe_much_cheaper_than_scan_for_big_tables() {
        let m = CostModel::default();
        let scan = m.scan_io(100_000.0, 100.0).total();
        let probe = m.probe_cost(1.0).total();
        assert!(probe * 100.0 < scan);
    }
}
