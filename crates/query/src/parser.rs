//! The mini-SQL parser every request's text goes through: `parse_query`
//! turns SQL into the [`Query`] the optimizer starts from (§4's
//! "non-procedural set of parameters from the query").
//!
//! Grammar (conjunctive select-project-join queries, which is exactly the
//! query class the paper's STARs cover — subqueries and recursion are
//! explicitly out of scope in §4):
//!
//! ```text
//! query   := SELECT selects FROM tables [WHERE conj] [ORDER BY cols]
//! selects := '*' | colref (',' colref)*
//! tables  := IDENT [IDENT] (',' IDENT [IDENT])*
//! conj    := factor (AND factor)*
//! factor  := '(' cmp (OR cmp)+ ')' | cmp
//! cmp     := scalar op scalar          op := = | <> | != | < | <= | > | >=
//! scalar  := term (('+'|'-') term)*
//! term    := atom (('*'|'/') atom)*
//! atom    := colref | NUMBER | 'string' | '(' scalar ')'
//! colref  := IDENT '.' IDENT | IDENT
//! ```
//!
//! Tokens are lexed one at a time from the text they point into; the parser
//! saves and restores its cursor to backtrack (`factor`'s `(`, and the
//! select list, read after FROM). So a parse allocates only what the
//! returned `Query` owns. Integer literals are exact: `-` folds onto one, so
//! `i64::MIN` reads, and one outside `i64` is an error.

use starqo_catalog::{Catalog, Value};

use crate::error::{QueryError, Result};
use crate::pred::{CmpOp, PredExpr};
use crate::query::{Query, QueryBuilder};
use crate::scalar::{ArithOp, QCol, Scalar};

/// What a token is; its text lies between its lexeme's offsets. `Int`
/// reads as a `u64` (2^63 may yet be negated), `Double` as an `f64`; `Str`
/// includes its quotes; `Punct` is `,` `.` `(` or `)`. `Bad` is text that
/// does not lex: it ends where it starts, so no rule gets past it, and
/// `parse_query` reports it as [`lex_error`].
#[derive(Clone, Copy, PartialEq, Eq)]
enum Tok {
    Ident,
    Int,
    Double,
    Str,
    Punct(u8),
    Arith(ArithOp),
    Cmp(CmpOp),
    Eof,
    Bad,
}

/// A token and its byte offsets, cheap to copy and to save.
#[derive(Clone, Copy)]
struct Lexeme {
    tok: Tok,
    at: u32,
    end: u32,
}

/// The token of `src` at or after byte `from`. A non-ASCII byte takes the
/// `char` path, so white space and letters mean what `char` says they mean.
/// Inlined into [`Parser::bump`], and that into every rule: called, the two
/// cost the parse about a fifth more.
#[inline(always)]
fn lex(src: &str, from: u32) -> Lexeme {
    let b = src.as_bytes();
    let mut at = from as usize;
    loop {
        match b.get(at) {
            Some(b' ' | b'\t'..=b'\r') => at += 1,
            Some(0x80..) if src[at..].starts_with(char::is_whitespace) => {
                at = src.len() - src[at..].trim_start().len();
            }
            _ => break,
        }
    }
    let (tok, len) = match b.get(at) {
        None => (Tok::Eof, 0),
        Some(b'a'..=b'z' | b'A'..=b'Z' | b'_') => (Tok::Ident, ident_len(&src[at..])),
        Some(b'0'..=b'9') => {
            let w = &src[at..at + number_len(&src[at..])];
            match w.contains('.') {
                true if w.parse::<f64>().is_ok() => (Tok::Double, w.len()),
                false if w.parse::<u64>().is_ok() => (Tok::Int, w.len()),
                _ => (Tok::Bad, 0),
            }
        }
        Some(b'\'') => match b[at + 1..].iter().position(|c| *c == b'\'') {
            Some(n) => (Tok::Str, n + 2),
            None => (Tok::Bad, 0),
        },
        Some(&c) => match (c, b.get(at + 1)) {
            (b'<', Some(b'=')) => (Tok::Cmp(CmpOp::Le), 2),
            (b'<', Some(b'>')) | (b'!', Some(b'=')) => (Tok::Cmp(CmpOp::Ne), 2),
            (b'>', Some(b'=')) => (Tok::Cmp(CmpOp::Ge), 2),
            (b'<', _) => (Tok::Cmp(CmpOp::Lt), 1),
            (b'>', _) => (Tok::Cmp(CmpOp::Gt), 1),
            (b'=', _) => (Tok::Cmp(CmpOp::Eq), 1),
            (b'+', _) => (Tok::Arith(ArithOp::Add), 1),
            (b'-', _) => (Tok::Arith(ArithOp::Sub), 1),
            (b'*', _) => (Tok::Arith(ArithOp::Mul), 1),
            (b'/', _) => (Tok::Arith(ArithOp::Div), 1),
            (b',' | b'.' | b'(' | b')', _) => (Tok::Punct(c), 1),
            _ => (Tok::Bad, 0),
        },
    };
    // `parse_query` turns away a text whose offsets do not fit in `u32`.
    let (at, end) = (at as u32, (at + len) as u32);
    Lexeme { tok, at, end }
}

/// Bytes of the identifier `s` starts with.
fn ident_len(s: &str) -> usize {
    let b = s.as_bytes();
    let mut n = 1;
    while n < b.len() && (b[n].is_ascii_alphanumeric() || b[n] == b'_') {
        n += 1;
    }
    match b.get(n) {
        Some(0x80..) => {
            let word = |c: char| c.is_alphanumeric() || c == '_';
            n + s[n..].find(|c| !word(c)).unwrap_or(s.len() - n)
        }
        _ => n,
    }
}

/// Bytes of the digits and dots `s` starts with.
fn number_len(s: &str) -> usize {
    let n = s.bytes().position(|c| !(c.is_ascii_digit() || c == b'.'));
    n.unwrap_or(s.len())
}

/// The error of the `Bad` token at byte `at` of `src`.
fn lex_error(src: &str, at: usize) -> QueryError {
    let (msg, pos) = match src.as_bytes()[at] {
        b'0'..=b'9' => {
            let n = number_len(&src[at..]);
            (format!("bad number {}", &src[at..at + n]), at + n)
        }
        b'\'' => ("unterminated string literal".to_string(), src.len()),
        b'!' => ("unexpected '!'".to_string(), at + 1),
        _ => {
            let c = src[at..].chars().next().unwrap_or_default();
            (format!("unexpected character {c:?}"), at)
        }
    };
    QueryError::Parse { msg, pos }
}

/// A rule's result. The error is boxed: a `Result` carrying the
/// `QueryError` itself is copied through memory at every `?`.
type Parsed<T> = std::result::Result<T, Box<QueryError>>;

struct Parser<'a> {
    src: &'a str,
    /// The token under the cursor.
    cur: Lexeme,
    cat: &'a Catalog,
    builder: QueryBuilder,
}

impl<'a> Parser<'a> {
    #[inline(always)]
    fn bump(&mut self) -> Lexeme {
        let l = self.cur;
        self.cur = lex(self.src, l.end);
        l
    }

    fn text(&self, l: Lexeme) -> &'a str {
        &self.src[l.at as usize..l.end as usize]
    }

    /// A token as errors name it: as the derived `Debug` of the owned
    /// tokens this parser once had printed it, numbers as `f64`.
    fn show(&self, l: Lexeme) -> String {
        let text = self.text(l);
        match l.tok {
            Tok::Ident => format!("Ident({text:?})"),
            Tok::Int | Tok::Double => {
                let v = text.parse::<f64>().unwrap_or(f64::NAN);
                format!("Number({v:?}, {})", l.tok == Tok::Int)
            }
            Tok::Str => format!("Str({:?})", &text[1..text.len() - 1]),
            Tok::Punct(_) | Tok::Arith(_) => format!("Sym({text:?})"),
            Tok::Cmp(op) => format!("Sym({:?})", op.symbol()),
            Tok::Eof | Tok::Bad => "Eof".to_string(),
        }
    }

    /// A syntax error at byte `pos`.
    fn error_at(pos: u32, msg: impl Into<String>) -> Box<QueryError> {
        let (msg, pos) = (msg.into(), pos as usize);
        Box::new(QueryError::Parse { msg, pos })
    }

    /// A syntax error at the token under the cursor.
    fn error(&self, msg: impl Into<String>) -> Box<QueryError> {
        Self::error_at(self.cur.at, msg)
    }

    fn is_kw(&self, l: Lexeme, kw: &str) -> bool {
        l.tok == Tok::Ident && self.text(l).eq_ignore_ascii_case(kw)
    }

    fn at_kw(&self, kw: &str) -> bool {
        self.is_kw(self.cur, kw)
    }

    fn eat(&mut self, tok: Tok) -> bool {
        (self.cur.tok == tok).then(|| self.bump()).is_some()
    }

    /// Consume the token under the cursor and read it with `read`; "expected
    /// `what`" if that gives nothing.
    fn expect<T>(&mut self, what: &str, read: impl Fn(&Self, Lexeme) -> Option<T>) -> Parsed<T> {
        let l = self.bump();
        let found = || format!("expected {what}, found {}", self.show(l));
        read(self, l).ok_or_else(|| self.error(found()))
    }

    fn expect_kw(&mut self, kw: &str) -> Parsed<()> {
        self.expect(kw, |p, l| p.is_kw(l, kw).then_some(()))
    }

    fn expect_close(&mut self) -> Parsed<()> {
        self.expect("')'", |_, l| (l.tok == Tok::Punct(b')')).then_some(()))
    }

    fn ident(&mut self) -> Parsed<&'a str> {
        self.expect("identifier", |p, l| {
            (l.tok == Tok::Ident).then(|| p.text(l))
        })
    }

    /// Parse a column reference (after FROM resolution).
    fn colref(&mut self) -> Parsed<QCol> {
        let first = self.ident()?;
        if self.eat(Tok::Punct(b'.')) {
            let col = self.ident()?;
            Ok(self.builder.resolve(self.cat, first, col)?)
        } else {
            Ok(self.builder.resolve_bare(self.cat, first)?)
        }
    }

    fn atom(&mut self) -> Parsed<Scalar> {
        let l = self.cur;
        let text = self.text(l);
        // Out of range is a bad number, reported past it like the lexer's.
        let int = |v: Option<i64>, end, text: std::fmt::Arguments| match v {
            Some(i) => Ok(Scalar::Const(Value::Int(i))),
            None => Err(Self::error_at(end, format!("bad number {text}"))),
        };
        let e = match l.tok {
            Tok::Ident => return Ok(Scalar::Col(self.colref()?)),
            Tok::Int => int(text.parse().ok(), l.end, format_args!("{text}")),
            Tok::Double => Ok(Scalar::Const(Value::Double(
                text.parse().unwrap_or(f64::NAN),
            ))),
            Tok::Str => Ok(Scalar::Const(Value::str(&text[1..text.len() - 1]))),
            Tok::Punct(b'(') => {
                self.bump();
                let e = self.scalar()?;
                return self.expect_close().map(|()| e);
            }
            Tok::Arith(ArithOp::Sub) => {
                self.bump();
                if self.cur.tok != Tok::Int {
                    return match self.atom()? {
                        Scalar::Const(Value::Int(i)) => {
                            int(i.checked_neg(), self.cur.at, format_args!("-({i})"))
                        }
                        Scalar::Const(Value::Double(d)) => Ok(Scalar::Const(Value::Double(-d))),
                        other => {
                            let zero = Box::new(Scalar::Const(Value::Int(0)));
                            Ok(Scalar::Arith(ArithOp::Sub, zero, Box::new(other)))
                        }
                    };
                }
                let (l, text) = (self.cur, self.text(self.cur));
                let v = text.parse().ok().and_then(|v| 0i64.checked_sub_unsigned(v));
                int(v, l.end, format_args!("-{text}"))
            }
            _ => return Err(self.error(format!("expected scalar, found {}", self.show(l)))),
        };
        self.bump();
        e
    }

    fn term(&mut self) -> Parsed<Scalar> {
        let mut e = self.atom()?;
        while let Tok::Arith(op @ (ArithOp::Mul | ArithOp::Div)) = self.cur.tok {
            self.bump();
            let r = self.atom()?;
            e = Scalar::Arith(op, Box::new(e), Box::new(r));
        }
        Ok(e)
    }

    fn scalar(&mut self) -> Parsed<Scalar> {
        let mut e = self.term()?;
        while let Tok::Arith(op @ (ArithOp::Add | ArithOp::Sub)) = self.cur.tok {
            self.bump();
            let r = self.term()?;
            e = Scalar::Arith(op, Box::new(e), Box::new(r));
        }
        Ok(e)
    }

    fn cmp(&mut self) -> Parsed<PredExpr> {
        let l = self.scalar()?;
        let op = self.expect("comparison", |_, l| match l.tok {
            Tok::Cmp(op) => Some(op),
            _ => None,
        })?;
        Ok(PredExpr::Cmp(op, l, self.scalar()?))
    }

    /// A WHERE factor: either a parenthesized OR-group or a comparison.
    fn factor(&mut self) -> Parsed<PredExpr> {
        if self.cur.tok == Tok::Punct(b'(') {
            // Could be "(scalar) op scalar" or "(cmp OR cmp)". Try the OR
            // group by lookahead: parse inside as cmp; if followed by OR it
            // is a group, otherwise re-parse as comparison.
            let save = self.cur;
            self.bump();
            if let Ok(first) = self.cmp() {
                if self.at_kw("OR") {
                    let mut arms = vec![first];
                    while self.at_kw("OR") {
                        self.bump();
                        arms.push(self.cmp()?);
                    }
                    self.expect_close()?;
                    return Ok(PredExpr::Or(arms));
                }
                if self.eat(Tok::Punct(b')')) && !matches!(self.cur.tok, Tok::Cmp(_)) {
                    return Ok(first);
                }
            }
            self.cur = save;
        }
        self.cmp()
    }

    fn parse(&mut self) -> Parsed<()> {
        self.expect_kw("SELECT")?;
        // FROM must be parsed before select columns can resolve; skip the
        // select list first and come back to it.
        let select = self.cur;
        let mut depth = 0usize;
        while !(depth == 0 && self.at_kw("FROM")) {
            match self.bump().tok {
                Tok::Eof | Tok::Bad => return Err(self.error("expected FROM")),
                Tok::Punct(b'(') => depth += 1,
                Tok::Punct(b')') => depth = depth.saturating_sub(1),
                _ => {}
            }
        }
        let select_end = self.cur.at;
        self.expect_kw("FROM")?;
        loop {
            let table = self.ident()?;
            let alias = match self.cur {
                l if l.tok == Tok::Ident && !self.is_kw(l, "WHERE") && !self.is_kw(l, "ORDER") => {
                    self.ident()?
                }
                _ => table,
            };
            self.builder.quantifier(self.cat, table, alias)?;
            if !self.eat(Tok::Punct(b',')) {
                break;
            }
        }
        let after_from = self.cur;

        // Now resolve the select list.
        self.cur = select;
        if self.eat(Tok::Arith(ArithOp::Mul)) {
            self.builder.select_all(self.cat);
        } else {
            loop {
                let c = self.colref()?;
                self.builder.select(c);
                if !self.eat(Tok::Punct(b',')) {
                    break;
                }
            }
        }
        if self.cur.at != select_end {
            return Err(self.error("trailing tokens in select list"));
        }
        self.cur = after_from;

        let mut kw = "WHERE";
        while self.at_kw(kw) {
            self.bump();
            let p = self.factor()?;
            self.builder.predicate(p)?;
            kw = "AND";
        }
        if self.at_kw("ORDER") {
            self.bump();
            self.expect_kw("BY")?;
            loop {
                let c = self.colref()?;
                self.builder.order_by(c);
                if !self.eat(Tok::Punct(b',')) {
                    break;
                }
            }
        }
        match self.cur {
            l if l.tok == Tok::Eof => Ok(()),
            l => Err(self.error(format!("unexpected trailing token {}", self.show(l)))),
        }
    }
}

/// Parse a mini-SQL query against a catalog. Where the text does not lex,
/// the first place it fails to is the error, wherever the parse stopped.
pub fn parse_query(cat: &Catalog, sql: &str) -> Result<Query> {
    if u32::try_from(sql.len()).is_err() {
        return Err(QueryError::Limit("SQL text of 4 GiB or more".into()));
    }
    let mut p = Parser {
        src: sql,
        cur: lex(sql, 0),
        cat,
        builder: QueryBuilder::new(),
    };
    match p.parse() {
        Ok(()) => p.builder.build(),
        Err(e) => Err(first_lex_error(sql).unwrap_or(*e)),
    }
}

/// The first place `sql` does not lex, if there is one.
fn first_lex_error(sql: &str) -> Option<QueryError> {
    let mut l = lex(sql, 0);
    loop {
        match l.tok {
            Tok::Bad => return Some(lex_error(sql, l.at as usize)),
            Tok::Eof => return None,
            _ => l = lex(sql, l.end),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::pred::PredId;
    use crate::qset::{QId, QSet};
    use starqo_catalog::{ColId, DataType, StorageKind};

    fn cat() -> Catalog {
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

    #[test]
    fn parses_paper_query() {
        let cat = cat();
        let q = parse_query(
            &cat,
            "SELECT E.NAME FROM DEPT D, EMP E WHERE D.MGR = 'Haas' AND D.DNO = E.DNO",
        )
        .unwrap();
        assert_eq!(q.quantifiers.len(), 2);
        assert_eq!(q.predicates.len(), 2);
        assert_eq!(q.select.len(), 1);
        assert_eq!(q.pred_string(&cat, PredId(0)), "D.MGR = 'Haas'");
        assert_eq!(q.pred_string(&cat, PredId(1)), "D.DNO = E.DNO");
    }

    #[test]
    fn default_alias_is_table_name() {
        let cat = cat();
        let q = parse_query(&cat, "SELECT EMP.NAME FROM EMP WHERE EMP.SAL > 100.5").unwrap();
        assert_eq!(q.quantifiers[0].alias, "EMP");
        assert_eq!(q.predicates.len(), 1);
    }

    #[test]
    fn star_select_and_bare_columns() {
        let cat = cat();
        let q = parse_query(&cat, "SELECT * FROM EMP E WHERE SAL > 5 AND NAME = 'x'").unwrap();
        // `*` expands to every column of every quantifier.
        assert_eq!(q.select.len(), 3);
        assert_eq!(q.predicates.len(), 2);
    }

    #[test]
    fn or_groups() {
        let cat = cat();
        let q = parse_query(
            &cat,
            "SELECT E.NAME FROM EMP E WHERE (E.DNO = 1 OR E.DNO = 2) AND E.SAL > 0",
        )
        .unwrap();
        assert_eq!(q.predicates.len(), 2);
        assert!(q.pred(PredId(0)).expr.contains_or());
        assert!(!q.pred(PredId(1)).expr.contains_or());
    }

    #[test]
    fn arithmetic_and_order_by() {
        let cat = cat();
        let q = parse_query(
            &cat,
            "SELECT E.NAME FROM EMP E, DEPT D WHERE E.SAL + 10 * 2 = D.DNO ORDER BY E.NAME",
        )
        .unwrap();
        assert_eq!(q.order_by, vec![crate::scalar::QCol::new(QId(0), ColId(0))]);
        assert_eq!(
            q.pred(PredId(0)).quantifiers(),
            QSet::from_iter([QId(0), QId(1)])
        );
    }

    #[test]
    fn parenthesized_scalar_not_confused_with_or_group() {
        let cat = cat();
        let q = parse_query(&cat, "SELECT E.NAME FROM EMP E WHERE (E.SAL + 1) > 2").unwrap();
        assert_eq!(q.predicates.len(), 1);
    }

    #[test]
    fn errors_reported() {
        let cat = cat();
        assert!(parse_query(&cat, "SELECT FROM EMP").is_err());
        assert!(parse_query(&cat, "SELECT E.NAME FROM EMP E WHERE").is_err());
        assert!(parse_query(&cat, "SELECT E.NOPE FROM EMP E").is_err());
        assert!(parse_query(&cat, "SELECT E.NAME FROM NOPE E").is_err());
        assert!(parse_query(&cat, "SELECT E.NAME FROM EMP E extra garbage").is_err());
        assert!(parse_query(&cat, "SELECT E.NAME FROM EMP E WHERE E.SAL = 'oops").is_err());
        assert!(parse_query(&cat, "SELECT E.NAME FROM EMP E WHERE E.SAL ! 3").is_err());
    }

    /// The literal `lit` as the right side of a one-predicate query.
    fn literal(lit: &str) -> Result<Value> {
        let sql = format!("SELECT E.NAME FROM EMP E WHERE E.DNO = {lit}");
        let q = parse_query(&cat(), &sql)?;
        match &q.pred(PredId(0)).expr {
            PredExpr::Cmp(_, _, Scalar::Const(v)) => Ok(v.clone()),
            other => panic!("{lit} parsed as {other:?}"),
        }
    }

    #[test]
    fn integer_literals_are_exact() {
        // Read as `f64` and cast, these were 2^53, `i64::MAX` and
        // `i64::MIN + 1`.
        assert_eq!(
            literal("9007199254740993"),
            Ok(Value::Int(9_007_199_254_740_993))
        );
        assert_eq!(literal("-9223372036854775808"), Ok(Value::Int(i64::MIN)));
        assert_eq!(literal("9223372036854775807"), Ok(Value::Int(i64::MAX)));
        assert_eq!(literal("- 9223372036854775808"), Ok(Value::Int(i64::MIN)));
        assert_eq!(literal("--5"), Ok(Value::Int(5)));
        // Out of range is an error just past the literal, which starts at
        // byte 39.
        let bad = |msg: &str, pos| {
            Err(QueryError::Parse {
                msg: msg.to_string(),
                pos,
            })
        };
        let max = "99999999999999999999";
        assert_eq!(literal(max), bad(&format!("bad number {max}"), 59));
        let big = "9223372036854775808";
        assert_eq!(literal(big), bad(&format!("bad number {big}"), 58));
        assert_eq!(
            literal("-9223372036854775809"),
            bad("bad number -9223372036854775809", 59)
        );
        assert_eq!(
            literal("--9223372036854775808"),
            bad("bad number -(-9223372036854775808)", 60)
        );
        // Doubles read as before.
        assert_eq!(literal("2.5"), Ok(Value::Double(2.5)));
        assert_eq!(literal("-0.125"), Ok(Value::Double(-0.125)));
        assert_eq!(literal("7."), Ok(Value::Double(7.0)));
        assert_eq!(
            literal("99999999999999999999.5"),
            Ok(Value::Double(99_999_999_999_999_999_999.5))
        );
    }

    #[test]
    fn negative_numbers() {
        let cat = cat();
        let q = parse_query(&cat, "SELECT E.NAME FROM EMP E WHERE E.SAL > -5").unwrap();
        assert_eq!(q.predicates.len(), 1);
    }
}
