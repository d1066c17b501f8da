//! Seeded schema, data and SQL-text generator.
//!
//! Deliberately not `starqo-workload`: the load this benchmark applies must
//! not change when that crate does. Everything here is plain integers and
//! strings; the program under test sees only the catalog calls, the inserted
//! rows and the rendered SQL text.
//!
//! Every table is `Ti(ID, FK, P0, P1, ...)` with `ID` dense and unique
//! (`ID == row number` in [`TableData`]), and every join is
//! `Ta.FK = Tb.ID`, so the oracle can follow a join by array indexing.

use std::fmt::Write as _;

/// splitmix64: tiny, seedable, and good enough to draw workloads from.
#[derive(Debug, Clone)]
pub struct Rng(u64);

impl Rng {
    pub fn new(seed: u64) -> Self {
        Rng(seed)
    }

    /// An independent stream for a named purpose, so adding a draw in one
    /// place never shifts the values drawn in another.
    pub fn fork(seed: u64, tag: &str, lane: u64) -> Self {
        let mut h = seed ^ 0x9E37_79B9_7F4A_7C15;
        for b in tag.bytes() {
            h = (h ^ b as u64).wrapping_mul(0x100_0000_01B3);
        }
        let mut r = Rng(h ^ lane.wrapping_mul(0xD6E8_FEB8_6659_FD93));
        r.next_u64();
        r
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `0..n` (`n > 0`).
    pub fn below(&mut self, n: u64) -> u64 {
        ((self.next_u64() as u128 * n as u128) >> 64) as u64
    }

    pub fn index(&mut self, n: usize) -> usize {
        self.below(n as u64) as usize
    }

    /// Uniform in `[0, 1)`.
    pub fn unit(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }

    pub fn shuffle<T>(&mut self, xs: &mut [T]) {
        for i in (1..xs.len()).rev() {
            xs.swap(i, self.index(i + 1));
        }
    }
}

/// Cumulative Zipf(s) distribution over `k` ranks.
pub fn zipf_cdf(k: usize, s: f64) -> Vec<f64> {
    let weights: Vec<f64> = (1..=k).map(|i| (i as f64).powf(-s)).collect();
    let total: f64 = weights.iter().sum();
    let mut acc = 0.0;
    weights
        .iter()
        .map(|w| {
            acc += w / total;
            acc
        })
        .collect()
}

pub fn cdf_pick(cdf: &[f64], u: f64) -> usize {
    cdf.iter().position(|&c| u < c).unwrap_or(cdf.len() - 1)
}

/// Column numbers shared by every table.
pub const ID: usize = 0;
pub const FK: usize = 1;
/// First payload column (`P0`).
pub const P0: usize = 2;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Storage {
    Heap,
    /// B-tree stored on `ID`.
    BTreeOnId,
}

#[derive(Debug, Clone)]
pub struct TableSpec {
    pub name: String,
    pub rows: usize,
    pub storage: Storage,
    /// Secondary index on `FK`.
    pub fk_index: bool,
    /// `FK` takes every value of `0..fk_domain` equally often; values at or
    /// beyond the joined table's row count match nothing.
    pub fk_domain: u64,
    /// Distinct values of each payload column (`Pk` takes every value of
    /// `0..ndv` equally often).
    pub payload_ndv: Vec<u64>,
}

impl TableSpec {
    pub fn ncols(&self) -> usize {
        P0 + self.payload_ndv.len()
    }

    pub fn col_name(&self, col: usize) -> &'static str {
        const NAMES: [&str; 6] = ["ID", "FK", "P0", "P1", "P2", "P3"];
        assert!(col < self.ncols(), "{} has no column {col}", self.name);
        NAMES[col]
    }
}

/// Column-major raw values; `ID` is the row number.
#[derive(Debug, Clone)]
pub struct TableData {
    pub fk: Vec<i64>,
    pub payload: Vec<Vec<i64>>,
}

impl TableData {
    pub fn rows(&self) -> usize {
        self.fk.len()
    }

    pub fn value(&self, row: usize, col: usize) -> i64 {
        match col {
            ID => row as i64,
            FK => self.fk[row],
            c => self.payload[c - P0][row],
        }
    }
}

/// `rows` values from `0..domain` in random order, every value as often as
/// every other (give or take one). The seed decides *which* rows match a
/// predicate or a join, not *how many*: a request costs the same under
/// every seed, which is what lets ten seeds agree within a few percent.
fn balanced(rng: &mut Rng, rows: usize, domain: u64) -> Vec<i64> {
    let mut out = Vec::with_capacity(rows);
    while out.len() < rows {
        let mut block: Vec<i64> = (0..domain as i64).collect();
        rng.shuffle(&mut block);
        block.truncate(rows - out.len());
        out.extend(block);
    }
    rng.shuffle(&mut out);
    out
}

#[derive(Debug, Clone)]
pub struct Dataset {
    pub tables: Vec<TableSpec>,
    pub data: Vec<TableData>,
}

impl Dataset {
    pub fn generate(seed: u64, tables: Vec<TableSpec>) -> Self {
        let data = tables
            .iter()
            .enumerate()
            .map(|(i, t)| {
                let mut rng = Rng::fork(seed, "data", i as u64);
                let fk = balanced(&mut rng, t.rows, t.fk_domain);
                let payload = t
                    .payload_ndv
                    .iter()
                    .map(|&ndv| balanced(&mut rng, t.rows, ndv))
                    .collect();
                TableData { fk, payload }
            })
            .collect();
        Dataset { tables, data }
    }

    /// Row numbers of table `t` in the order they are inserted: shuffled,
    /// so a heap is not accidentally clustered on `ID`.
    pub fn insert_order(&self, seed: u64, t: usize) -> Vec<usize> {
        let mut order: Vec<usize> = (0..self.tables[t].rows).collect();
        Rng::fork(seed, "insert-order", t as u64).shuffle(&mut order);
        order
    }

    pub fn total_rows(&self) -> usize {
        self.tables.iter().map(|t| t.rows).sum()
    }
}

#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum Op {
    Eq,
    Ne,
    Lt,
    Le,
    Gt,
    Ge,
}

impl Op {
    pub const ALL: [Op; 6] = [Op::Eq, Op::Ne, Op::Lt, Op::Le, Op::Gt, Op::Ge];

    pub fn sql(self) -> &'static str {
        match self {
            Op::Eq => "=",
            Op::Ne => "<>",
            Op::Lt => "<",
            Op::Le => "<=",
            Op::Gt => ">",
            Op::Ge => ">=",
        }
    }
}

/// At most this many `col op const` predicates per query.
pub const MAX_LOCALS: usize = 3;
/// The constants of one request, one per local predicate.
pub type Lits = [i64; MAX_LOCALS];

/// `position.col op ?`, the constant drawn per request from `lo..hi`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Local {
    pub pos: usize,
    pub col: usize,
    pub op: Op,
    pub lo: i64,
    pub hi: i64,
}

/// A select-project-join query over a [`Dataset`]. Positions index
/// `tables`; position 0 is the root, and every other position is reachable
/// from it by following `a.FK = b.ID` edges from `a` to `b` (the generator
/// only builds such queries), so the answer has at most one row per root
/// row.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct QuerySpec {
    pub name: String,
    /// Dataset table number at each position; no table appears twice.
    pub tables: Vec<usize>,
    /// `(a, b)`: `a.FK = b.ID`.
    pub joins: Vec<(usize, usize)>,
    pub locals: Vec<Local>,
    /// `(position, column)` in output order.
    pub select: Vec<(usize, usize)>,
}

impl QuerySpec {
    /// Draw this request's constants.
    pub fn draw_lits(&self, rng: &mut Rng) -> Lits {
        let mut lits = [0; MAX_LOCALS];
        for (l, slot) in self.locals.iter().zip(&mut lits) {
            *slot = l.lo + rng.below((l.hi - l.lo) as u64) as i64;
        }
        lits
    }

    /// Render the SQL text of one request into `out` (cleared first).
    pub fn render(&self, tables: &[TableSpec], lits: &Lits, out: &mut String) {
        out.clear();
        out.push_str("SELECT ");
        for (i, &(pos, col)) in self.select.iter().enumerate() {
            let sep = if i == 0 { "" } else { ", " };
            let _ = write!(
                out,
                "{sep}q{pos}.{}",
                tables[self.tables[pos]].col_name(col)
            );
        }
        out.push_str(" FROM ");
        for (pos, &t) in self.tables.iter().enumerate() {
            let sep = if pos == 0 { "" } else { ", " };
            let _ = write!(out, "{sep}{} q{pos}", tables[t].name);
        }
        let mut kw = " WHERE ";
        for &(a, b) in &self.joins {
            let _ = write!(out, "{kw}q{a}.FK = q{b}.ID");
            kw = " AND ";
        }
        for (l, lit) in self.locals.iter().zip(lits) {
            let col = tables[self.tables[l.pos]].col_name(l.col);
            let _ = write!(out, "{kw}q{}.{col} {} {lit}", l.pos, l.op.sql());
            kw = " AND ";
        }
    }

    /// Base-table rows the query reads, the `exec` layer's input size.
    pub fn input_rows(&self, tables: &[TableSpec]) -> u64 {
        self.tables.iter().map(|&t| tables[t].rows as u64).sum()
    }

    /// What decides the fingerprint: tables, join edges, predicate columns
    /// and operators, select list — everything but the constants. Two specs
    /// with different keys are different plans to the cache.
    pub fn shape_key(&self) -> String {
        let t = |pos: usize| self.tables[pos];
        let mut joins: Vec<_> = self.joins.iter().map(|&(a, b)| (t(a), t(b))).collect();
        joins.sort_unstable();
        let mut locals: Vec<_> = self
            .locals
            .iter()
            .map(|l| (t(l.pos), l.col, l.op))
            .collect();
        locals.sort_unstable();
        let mut tables = self.tables.clone();
        tables.sort_unstable();
        let select: Vec<_> = self.select.iter().map(|&(p, c)| (t(p), c)).collect();
        format!("{tables:?}{joins:?}{locals:?}{select:?}")
    }
}

/// The join-graph families the fleets and the ad-hoc generator draw from.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Shape {
    /// `q0.FK = q1.ID AND q1.FK = q2.ID ...`
    Chain,
    /// `q0.FK = q1.ID AND q0.FK = q2.ID ...`
    Star,
    /// Chain plus the closing edge `q(n-1).FK = q0.ID`.
    Cycle,
    /// `qa.FK = qb.ID` for every `a < b`.
    Clique,
    /// Each position hangs off a random earlier one.
    Tree,
}

/// Join edges of `shape` over positions `0..n`.
pub fn shape_joins(shape: Shape, n: usize, rng: &mut Rng) -> Vec<(usize, usize)> {
    match shape {
        Shape::Chain => (1..n).map(|k| (k - 1, k)).collect(),
        Shape::Star => (1..n).map(|k| (0, k)).collect(),
        Shape::Cycle => (1..n).map(|k| (k - 1, k)).chain([(n - 1, 0)]).collect(),
        Shape::Clique => (0..n)
            .flat_map(|a| (a + 1..n).map(move |b| (a, b)))
            .collect(),
        Shape::Tree => (1..n).map(|k| (rng.index(k), k)).collect(),
    }
}

/// A fleet template over the given tables: `shape`, optionally with the
/// parameterised predicate `q0.P0 = ?`, selecting the first and last `ID`.
pub fn template(
    name: &str,
    tables: &[TableSpec],
    picks: &[usize],
    shape: Shape,
    param: bool,
) -> QuerySpec {
    let n = picks.len();
    let locals = if param {
        vec![Local {
            pos: 0,
            col: P0,
            op: Op::Eq,
            lo: 0,
            hi: tables[picks[0]].payload_ndv[0] as i64,
        }]
    } else {
        Vec::new()
    };
    QuerySpec {
        name: name.to_string(),
        tables: picks.to_vec(),
        joins: shape_joins(shape, n, &mut Rng::new(0)),
        locals,
        select: vec![(0, ID), (n - 1, ID)],
    }
}

/// One never-repeated query: `n` random tables joined as `shape` plus
/// `extra` more random edges, with 0–2 random `col op const` predicates on
/// random payload columns. The constants are fixed here (`lo + 1 == hi`).
pub fn adhoc_spec(
    rng: &mut Rng,
    tables: &[TableSpec],
    n: usize,
    shape: Shape,
    extra: usize,
) -> QuerySpec {
    let mut picks: Vec<usize> = (0..tables.len()).collect();
    rng.shuffle(&mut picks);
    picks.truncate(n);
    let mut joins = shape_joins(shape, n, rng);
    for _ in 0..extra {
        let (a, b) = (rng.index(n), rng.index(n));
        if a != b && !joins.contains(&(a, b)) {
            joins.push((a, b));
        }
    }
    let locals = (0..rng.index(MAX_LOCALS))
        .map(|_| {
            let pos = rng.index(n);
            let t = &tables[picks[pos]];
            let k = rng.index(t.payload_ndv.len());
            let value = rng.below(t.payload_ndv[k]) as i64;
            Local {
                pos,
                col: P0 + k,
                op: Op::ALL[rng.index(Op::ALL.len())],
                lo: value,
                hi: value + 1,
            }
        })
        .collect();
    QuerySpec {
        name: format!("adhoc{n}"),
        tables: picks,
        joins,
        locals,
        select: vec![(0, ID), (n - 1, ID), (n - 1, P0)],
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tables() -> Vec<TableSpec> {
        (0..4)
            .map(|i| TableSpec {
                name: format!("T{i}"),
                rows: 20 + 10 * i,
                storage: Storage::Heap,
                fk_index: false,
                fk_domain: 30,
                payload_ndv: vec![5, 7],
            })
            .collect()
    }

    #[test]
    fn same_seed_same_data_other_seed_other_data() {
        let a = Dataset::generate(7, tables());
        let b = Dataset::generate(7, tables());
        let c = Dataset::generate(8, tables());
        assert_eq!(a.data[2].fk, b.data[2].fk);
        assert_ne!(a.data[2].fk, c.data[2].fk);
        assert_eq!(a.insert_order(7, 1), b.insert_order(7, 1));
    }

    #[test]
    fn columns_are_balanced() {
        let ds = Dataset::generate(9, tables());
        for v in 0..5 {
            let n = ds.data[3].payload[0].iter().filter(|&&x| x == v).count();
            assert_eq!(n, 10, "50 rows over 5 values");
        }
        let mut fk = ds.data[0].fk.clone();
        fk.sort_unstable();
        fk.dedup();
        assert_eq!(fk.len(), 20, "20 rows draw 20 different values of 30");
    }

    #[test]
    fn renders_joins_and_literals() {
        let ts = tables();
        let spec = template("chain3?", &ts, &[2, 0, 1], Shape::Chain, true);
        let mut sql = String::new();
        spec.render(&ts, &[4, 0, 0], &mut sql);
        assert_eq!(
            sql,
            "SELECT q0.ID, q2.ID FROM T2 q0, T0 q1, T1 q2 \
             WHERE q0.FK = q1.ID AND q1.FK = q2.ID AND q0.P0 = 4"
        );
    }

    #[test]
    fn shape_key_ignores_constants_only() {
        let ts = tables();
        let mut rng = Rng::new(3);
        let a = adhoc_spec(&mut rng, &ts, 3, Shape::Tree, 1);
        let mut b = a.clone();
        for l in &mut b.locals {
            l.lo += 1;
            l.hi += 1;
        }
        assert_eq!(a.shape_key(), b.shape_key());
        b.select.pop();
        assert_ne!(a.shape_key(), b.shape_key());
    }

    #[test]
    fn zipf_is_skewed_and_complete() {
        let cdf = zipf_cdf(10, 1.1);
        assert!(cdf[0] > 0.3 && (cdf[9] - 1.0).abs() < 1e-9);
        assert_eq!(cdf_pick(&cdf, 0.0), 0);
        assert_eq!(cdf_pick(&cdf, 0.999_999), 9);
    }
}
