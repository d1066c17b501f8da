//! The independent checker: what a request must return, computed from the
//! generator's raw arrays by following `FK -> ID` with array indexing.
//!
//! Shares no code with `starqo-exec` or `starqo-vexec` (the tests below
//! cross-check it against `starqo_exec::reference_eval` on small cases, and
//! that is the only place the two meet).

use starqo_catalog::Value;
use starqo_storage::Tuple;

use crate::gen::{Dataset, Lits, Local, Op, QuerySpec};

/// Row count and an order-independent checksum of the rows.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct Expect {
    pub rows: u64,
    pub checksum: u64,
}

impl Expect {
    fn add_row(&mut self, values: impl Iterator<Item = i64>) {
        let mut h: u64 = 0xCBF2_9CE4_8422_2325;
        for v in values {
            h = (h ^ v as u64).wrapping_mul(0x100_0000_01B3);
            h ^= h >> 29;
        }
        self.rows += 1;
        // Summing makes the checksum independent of row order while still
        // counting duplicates.
        self.checksum = self.checksum.wrapping_add(h);
    }

    /// The same summary of rows the program returned. A non-integer value
    /// cannot come from this benchmark's tables, so it poisons the checksum.
    pub fn of_rows(rows: &[Tuple]) -> Expect {
        let mut e = Expect::default();
        for r in rows {
            e.add_row(r.0.iter().map(|v| match v {
                Value::Int(i) => *i,
                _ => i64::MIN,
            }));
        }
        e
    }
}

fn holds(op: Op, l: i64, r: i64) -> bool {
    match op {
        Op::Eq => l == r,
        Op::Ne => l != r,
        Op::Lt => l < r,
        Op::Le => l <= r,
        Op::Gt => l > r,
        Op::Ge => l >= r,
    }
}

/// Evaluate `spec` with the given constants.
///
/// For each root row, every other position's row is found by following an
/// edge `a.FK = b.ID` from an already-bound `a`: `b`'s row number *is*
/// `a.FK` (or there is no match when it is out of range). Edges between two
/// bound positions are then plain filters.
pub fn evaluate(ds: &Dataset, spec: &QuerySpec, lits: &Lits) -> Expect {
    let n = spec.tables.len();
    let data = |pos: usize| &ds.data[spec.tables[pos]];

    // Order the edges once: first the ones that bind a new position, in an
    // order where the source is already bound; the rest are filters.
    let mut bound = vec![false; n];
    bound[0] = true;
    let mut binds = Vec::new();
    let mut filters: Vec<(usize, usize)> = spec.joins.clone();
    while let Some(i) = filters.iter().position(|&(a, b)| bound[a] && !bound[b]) {
        let edge = filters.remove(i);
        bound[edge.1] = true;
        binds.push(edge);
    }
    assert!(
        bound.iter().all(|&b| b),
        "{}: a position is not reachable from the root",
        spec.name
    );

    // Root predicates first: they reject most rows before any join is
    // followed.
    let check =
        |l: &Local, lit: i64, row: &[usize]| holds(l.op, data(l.pos).value(row[l.pos], l.col), lit);
    let mut out = Expect::default();
    let mut row = vec![0usize; n];
    'root: for r0 in 0..data(0).rows() {
        row[0] = r0;
        for (l, &lit) in spec.locals.iter().zip(lits) {
            if l.pos == 0 && !check(l, lit, &row) {
                continue 'root;
            }
        }
        for &(a, b) in &binds {
            let fk = data(a).fk[row[a]];
            if fk < 0 || fk as usize >= data(b).rows() {
                continue 'root;
            }
            row[b] = fk as usize;
        }
        for &(a, b) in &filters {
            if data(a).fk[row[a]] != row[b] as i64 {
                continue 'root;
            }
        }
        for (l, &lit) in spec.locals.iter().zip(lits) {
            if l.pos != 0 && !check(l, lit, &row) {
                continue 'root;
            }
        }
        out.add_row(spec.select.iter().map(|&(p, c)| data(p).value(row[p], c)));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::gen::{adhoc_spec, template, Rng, Shape, Storage, TableSpec};
    use crate::load;
    use starqo_exec::reference_eval;
    use starqo_query::parse_query;

    fn small_tables() -> Vec<TableSpec> {
        [40usize, 25, 60, 100, 12]
            .iter()
            .enumerate()
            .map(|(i, &rows)| TableSpec {
                name: format!("T{i}"),
                rows,
                storage: if i % 2 == 0 {
                    Storage::Heap
                } else {
                    Storage::BTreeOnId
                },
                fk_index: i % 3 == 0,
                fk_domain: 50,
                payload_ndv: vec![4, 9],
            })
            .collect()
    }

    /// The oracle against the engine's brute-force evaluator, which shares
    /// nothing with it: at most 3 tables of at most 100 rows, so the
    /// Cartesian product stays small.
    #[test]
    fn agrees_with_reference_eval() {
        for seed in 1..=3u64 {
            let ds = Dataset::generate(seed, small_tables());
            let (cat, db) = load::build(&ds, seed).expect("load");
            let mut rng = Rng::fork(seed, "oracle-test", 0);
            let mut specs = vec![
                template("chain3?", &ds.tables, &[0, 1, 2], Shape::Chain, true),
                template("star3", &ds.tables, &[3, 4, 0], Shape::Star, false),
                template("cycle3?", &ds.tables, &[2, 0, 1], Shape::Cycle, true),
                template("clique3", &ds.tables, &[1, 2, 4], Shape::Clique, false),
            ];
            for i in 0..40 {
                let shape = [Shape::Chain, Shape::Star, Shape::Tree][i % 3];
                specs.push(adhoc_spec(&mut rng, &ds.tables, 2 + i % 2, shape, i % 2));
            }
            let mut sql = String::new();
            let mut nonempty = 0;
            for spec in &specs {
                let lits = spec.draw_lits(&mut rng);
                spec.render(&ds.tables, &lits, &mut sql);
                let q = parse_query(&cat, &sql).expect("parse");
                let want = Expect::of_rows(&reference_eval(&db, &q).expect("reference"));
                let got = evaluate(&ds, spec, &lits);
                assert_eq!(got, want, "seed {seed}: {sql}");
                nonempty += (got.rows > 0) as usize;
            }
            assert!(nonempty > 10, "seed {seed}: cases are nearly all empty");
        }
    }

    #[test]
    fn checksum_ignores_order_but_counts_duplicates() {
        let t = |a: i64, b: i64| Tuple(vec![Value::Int(a), Value::Int(b)]);
        let ab = Expect::of_rows(&[t(1, 2), t(3, 4)]);
        assert_eq!(ab, Expect::of_rows(&[t(3, 4), t(1, 2)]));
        assert_ne!(ab, Expect::of_rows(&[t(1, 2), t(3, 4), t(3, 4)]));
        assert_ne!(ab, Expect::of_rows(&[t(2, 1), t(3, 4)]));
        assert_ne!(
            Expect::of_rows(&[t(1, 2)]),
            Expect::of_rows(&[Tuple(vec![Value::Int(1), Value::Null])])
        );
    }
}
