//! Same text, same `Query`, same error: `parse_query` is pinned by its own
//! output over a fixed corpus, so the parser can be rewritten without a
//! second parser to compare against.
//!
//! Each line of `parse_golden.txt` is one input and the `Debug` text of what
//! `parse_query` returned for it, `Ok` and `Err` alike. The corpus is the SQL
//! of `diff::generate(seed)` for `diff::SEEDS` (each over its own catalog),
//! every input of the parser's unit tests and a hand list over the
//! DEPT/EMP catalog below, and every one of those cut short at each token
//! boundary, which walks the error paths. No integer in it lies outside
//! ±2^53, where the literal's `f64` and `i64` readings agree.
//!
//! `fingerprint_golden.txt` pins `canonicalize` the same way: for each input
//! of the same corpus that parses, the fingerprint's hash and text and the
//! `Debug` text of the canonical quantifiers, predicates, select and
//! ORDER BY lists.
//!
//! `STARQO_UPDATE_GOLDEN=1 cargo test -p starqo-integration --test
//! parse_golden` rewrites both files; a diff in either is a behaviour change.

use std::fmt::Write as _;

use starqo_catalog::{Catalog, DataType, StorageKind};
use starqo_integration::diff;
use starqo_query::{canonicalize, parse_query};

const GOLDEN: &str = include_str!("parse_golden.txt");
const FINGERPRINT_GOLDEN: &str = include_str!("fingerprint_golden.txt");

/// The parser unit tests' schema.
fn dept_emp() -> Catalog {
    Catalog::builder()
        .site("NY")
        .table("DEPT", "NY", StorageKind::Heap, 50)
        .column("DNO", DataType::Int, Some(50))
        .column("MGR", DataType::Str, Some(40))
        .table("EMP", "NY", StorageKind::Heap, 10_000)
        .column("NAME", DataType::Str, None)
        .column("DNO", DataType::Int, Some(50))
        .column("SAL", DataType::Double, None)
        .build()
        .unwrap()
}

/// Inputs over [`dept_emp`]: the parser's unit tests, then the hand list.
fn hand_list() -> Vec<String> {
    let fixed = [
        // The parser's unit tests.
        "SELECT E.NAME FROM DEPT D, EMP E WHERE D.MGR = 'Haas' AND D.DNO = E.DNO",
        "SELECT EMP.NAME FROM EMP WHERE EMP.SAL > 100.5",
        "SELECT * FROM EMP E WHERE SAL > 5 AND NAME = 'x'",
        "SELECT E.NAME FROM EMP E WHERE (E.DNO = 1 OR E.DNO = 2) AND E.SAL > 0",
        "SELECT E.NAME FROM EMP E, DEPT D WHERE E.SAL + 10 * 2 = D.DNO ORDER BY E.NAME",
        "SELECT E.NAME FROM EMP E WHERE (E.SAL + 1) > 2",
        "SELECT FROM EMP",
        "SELECT E.NAME FROM EMP E WHERE",
        "SELECT E.NOPE FROM EMP E",
        "SELECT E.NAME FROM NOPE E",
        "SELECT E.NAME FROM EMP E extra garbage",
        "SELECT E.NAME FROM EMP E WHERE E.SAL = 'oops",
        "SELECT E.NAME FROM EMP E WHERE E.SAL ! 3",
        "SELECT E.NAME FROM EMP E WHERE E.SAL > -5",
        // Case: keywords, tables, aliases and columns.
        "select e.name from emp e where e.dno = 3 order by e.name",
        "SeLeCt E.Name FrOm Emp e WhErE E.dNo = 3 AnD e.SaL < 2.5 OrDeR bY e.NAME",
        "SELECT d.mgr, E.name FROM dept D, EMP e WHERE d.DNO = E.dno",
        // Missing alias, `*`, bare columns.
        "SELECT EMP.NAME FROM EMP",
        "SELECT emp.name FROM Emp WHERE Emp.SAL > 1",
        "SELECT * FROM DEPT D, EMP E WHERE D.DNO = E.DNO",
        "SELECT * FROM EMP",
        "SELECT NAME, SAL FROM EMP E WHERE SAL > 5",
        "SELECT MGR, NAME FROM DEPT D, EMP E WHERE SAL > MGR",
        "SELECT DNO FROM DEPT D, EMP E",
        "SELECT E.NAME FROM EMP E WHERE XYZ = 1",
        "SELECT X.NAME FROM EMP E",
        // OR groups and parentheses.
        "SELECT E.NAME FROM EMP E WHERE (E.DNO = 1 OR E.DNO = 2 OR E.SAL >= 3.5)",
        "SELECT E.NAME FROM EMP E WHERE (E.DNO = 1 or E.NAME = 'a b') AND (E.SAL < 2 OR E.SAL > 9)",
        "SELECT E.NAME FROM EMP E WHERE (E.DNO = 1)",
        "SELECT E.NAME FROM EMP E WHERE (E.DNO = 1) = 2",
        "SELECT E.NAME FROM EMP E WHERE ((E.SAL)) > 1",
        "SELECT E.NAME FROM EMP E WHERE (E.SAL + 1) * 2 > (E.DNO - 3) / 4",
        "SELECT E.NAME FROM EMP E WHERE (E.DNO = 1 OR E.DNO = 2",
        "SELECT E.NAME FROM EMP E WHERE (E.DNO = 1 OR 2)",
        "SELECT E.NAME FROM EMP E WHERE (E.DNO = 1 AND E.DNO = 2)",
        "SELECT E.NAME FROM EMP E WHERE E.DNO = 1 OR E.DNO = 2",
        "SELECT E.NAME FROM EMP E WHERE (E.SAL > 1",
        "SELECT E.NAME FROM EMP E WHERE ()",
        // Arithmetic and literals.
        "SELECT E.NAME FROM EMP E WHERE E.SAL - 1 * 2 / 3 + 4 > E.DNO",
        "SELECT E.NAME FROM EMP E WHERE E.SAL*2-1<E.DNO/3+4",
        "SELECT E.NAME FROM EMP E WHERE E.SAL > -2.5 AND E.DNO < - 3 AND E.DNO <> --4",
        "SELECT E.NAME FROM EMP E WHERE E.SAL > -E.DNO AND E.SAL < -(E.DNO + 1)",
        "SELECT E.NAME FROM EMP E WHERE E.SAL = 0.125 AND E.SAL <= 7. AND E.DNO >= 007",
        "SELECT E.NAME FROM EMP E WHERE E.DNO = 9007199254740992 AND E.DNO > -9007199254740992",
        "SELECT E.NAME FROM EMP E WHERE E.SAL = 1.2.3",
        "SELECT E.NAME FROM EMP E WHERE E.SAL = 9007199254740992.5",
        "SELECT E.NAME FROM EMP E WHERE E.NAME = 'a b  c' AND E.NAME <> ''",
        "SELECT E.NAME FROM EMP E WHERE E.NAME = 'caf\u{e9} \u{263a}' AND E.NAME != 'x'",
        "SELECT E.NAME FROM EMP E WHERE E.NAME = 'it''s'",
        "SELECT E.NAME FROM EMP E WHERE 1 = 1 AND 'a' < 'b'",
        // Every comparison operator.
        "SELECT E.NAME FROM EMP E WHERE E.DNO = 1 AND E.DNO <> 1 AND E.DNO != 1 AND E.DNO < 1 \
         AND E.DNO <= 1 AND E.DNO > 1 AND E.DNO >= 1",
        "SELECT E.NAME FROM EMP E WHERE E.DNO => 1",
        "SELECT E.NAME FROM EMP E WHERE E.DNO == 1",
        "SELECT E.NAME FROM EMP E WHERE E.DNO 1",
        // ORDER BY.
        "SELECT E.NAME, E.DNO FROM EMP E ORDER BY E.DNO, NAME",
        "SELECT E.NAME FROM EMP E WHERE E.DNO = 1 ORDER BY E.NAME",
        "SELECT E.NAME FROM EMP E ORDER E.NAME",
        "SELECT E.NAME FROM EMP E ORDER BY",
        "SELECT E.NAME FROM EMP ORDER BY NAME",
        // Select-list and FROM-list shapes.
        "SELECT E.NAME, FROM EMP E",
        "SELECT E.NAME E.DNO FROM EMP E",
        "SELECT (E.NAME) FROM EMP E",
        "SELECT ( FROM EMP E ) FROM EMP E",
        "SELECT (E.NAME FROM EMP E",
        "SELECT E.NAME FROM EMP E,",
        "SELECT E.NAME FROM EMP AS E",
        "SELECT E.NAME FROM EMP E, EMP F WHERE E.DNO = F.DNO",
        "SELECT E.NAME FROM EMP E, EMP E",
        "SELECT E.NAME FROM EMP E, DEPT",
        "SELECT E.NAME FROM 5",
        "SELECT E.NAME",
        "SELECT",
        "",
        "   ",
        "FROM EMP E",
        "UPDATE EMP",
        "SELECT E.NAME FROM EMP E;",
        "SELECT E.NAME FROM EMP E WHERE E.DNO = 1 #",
        "SELECT E.NAME FROM EMP E WHERE E.DNO = 1 AND",
        "SELECT E.NAME FROM EMP E WHERE E.DNO = 1 1",
        "SELECT E.NAME FROM EMP E WHERE E.DNO = 1 'trailing",
        "SELECT E.NAME FROM EMP E trailing 'unterminated",
        "SELECT E._X FROM EMP E",
        // Whitespace of every kind.
        "SELECT\tE.NAME\nFROM  EMP\r\nE   WHERE\tE.DNO=1",
    ];
    fixed.iter().map(|s| s.to_string()).collect()
}

/// The structural limits, 65 quantifiers and 129 predicates, over
/// [`dept_emp`]. Not cut: every prefix would be a query of up to 128
/// predicates, a megabyte of golden for no new path.
fn limits() -> [String; 2] {
    let from: Vec<String> = (0..65).map(|i| format!("EMP E{i}")).collect();
    let preds: Vec<String> = (0..129).map(|i| format!("E.DNO <> {i}")).collect();
    [
        format!("SELECT E0.NAME FROM {}", from.join(", ")),
        format!("SELECT E.NAME FROM EMP E WHERE {}", preds.join(" AND ")),
    ]
}

/// Byte offsets at which `sql` can be cut before a token: wherever a
/// character other than a space follows one that is not part of the same
/// word.
fn cuts(sql: &str) -> Vec<usize> {
    let word = |c: char| c.is_alphanumeric() || c == '_';
    let chars: Vec<(usize, char)> = sql.char_indices().collect();
    chars
        .windows(2)
        .filter(|w| !(w[1].1.is_whitespace() || word(w[0].1) && word(w[1].1)))
        .map(|w| w[1].0)
        .collect()
}

/// Every input of the corpus, with its catalog, in file order: each seed's
/// SQL and the hand list, each followed by its cuts, then the limits.
fn corpus(mut visit: impl FnMut(&Catalog, &str)) {
    let mut with_cuts = |cat: &Catalog, sql: &str| {
        visit(cat, sql);
        for at in cuts(sql) {
            visit(cat, &sql[..at]);
        }
    };
    for seed in diff::SEEDS {
        let case = diff::generate(seed);
        with_cuts(&case.catalog(), &case.sql);
    }
    let cat = dept_emp();
    for sql in hand_list() {
        with_cuts(&cat, &sql);
    }
    for sql in limits() {
        visit(&cat, &sql);
    }
}

/// Compare `actual` with the golden `file` holds (`golden`), or rewrite the
/// file under `STARQO_UPDATE_GOLDEN`.
fn check_golden(file: &str, golden: &str, actual: &str) {
    if std::env::var_os("STARQO_UPDATE_GOLDEN").is_some() {
        let path = format!("{}/tests/{file}", env!("CARGO_MANIFEST_DIR"));
        std::fs::write(path, actual).expect("write golden");
        return;
    }
    // Report the first line that moved, not a diff of the whole file.
    for (n, (a, g)) in actual.lines().zip(golden.lines()).enumerate() {
        assert_eq!(a, g, "{file} line {} moved", n + 1);
    }
    assert_eq!(actual.lines().count(), golden.lines().count(), "{file}");
    assert_eq!(actual, golden, "{file}: same lines, different bytes");
}

#[test]
fn same_text_same_query() {
    let mut actual = String::new();
    corpus(|cat, sql| {
        let _ = writeln!(actual, "{sql:?} => {:?}", parse_query(cat, sql));
    });
    check_golden("parse_golden.txt", GOLDEN, &actual);
}

#[test]
fn same_query_same_fingerprint() {
    let mut actual = String::new();
    corpus(|cat, sql| {
        let Ok(q) = parse_query(cat, sql) else {
            return;
        };
        let c = canonicalize(&q);
        let (fp, q) = (&c.fingerprint, &c.query);
        let _ = writeln!(
            actual,
            "{sql:?} => {:016x} {:?} {:?} {:?} {:?} {:?}",
            fp.hash, fp.text, q.quantifiers, q.predicates, q.select, q.order_by
        );
    });
    check_golden("fingerprint_golden.txt", FINGERPRINT_GOLDEN, &actual);
}
