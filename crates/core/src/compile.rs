//! Rule compiler: lowers the DSL AST into executable [`RuleSet`] structures.
//!
//! Name resolution order for a call `name(args...)`:
//! 1. `Glue` — the special form of §3.2;
//! 2. a LOLEPOP name (`JOIN`, `ACCESS`, ...) or a registered extension
//!    operator (§5);
//! 3. a STAR (defined anywhere in the accumulated rule set — forward
//!    references within a file are legal);
//! 4. a native function.
//!
//! A bare identifier resolves to a parameter / binding / `forall` variable
//! in scope, else becomes a symbol constant (LOLEPOP flavors `NL`, `MG`,
//! `heap`, ...).
//!
//! Re-defining a STAR with the same name *appends* an alternative group —
//! this is exactly how §4.5 says the hash-join / forced-projection /
//! dynamic-index alternatives "would be added to the right-hand side" of
//! `JMeth`.

use std::collections::{BTreeSet, HashMap};

use starqo_dsl::{AltAst, BinOpAst, ExprAst, GuardAst, ReqAst, RuleFileAst, StarDefAst};

use crate::error::{CoreError, Result};
use crate::natives::Natives;
use crate::rules::{Alt, AltGroup, BinOp, Expr, Guard, ReqExpr, RuleSet, StarDef, StarId};
use crate::value::RuleValue;

/// Built-in LOLEPOP names recognized by the engine.
pub const LOLEPOP_NAMES: &[&str] = &[
    "ACCESS",
    "GET",
    "SORT",
    "SHIP",
    "STORE",
    "BUILD_INDEX",
    "FILTER",
    "JOIN",
    "UNION",
];

/// Compilation environment.
pub struct CompileEnv<'a> {
    pub natives: &'a Natives,
    /// Names of registered extension LOLEPOPs (e.g. `OUTERJOIN`).
    pub ext_ops: &'a BTreeSet<String>,
}

/// Compile a parsed rule file into (or onto) a rule set.
pub fn compile_into(rules: &mut RuleSet, ast: &RuleFileAst, env: &CompileEnv<'_>) -> Result<()> {
    // Pass 1: register star names so forward references resolve.
    for def in &ast.stars {
        match rules.by_name.get(&def.name) {
            Some(id) => {
                let existing = rules.star(*id);
                if existing.params.len() != def.params.len() {
                    return Err(CoreError::Compile {
                        star: def.name.clone(),
                        msg: format!(
                            "redefinition with {} parameters, but existing definition has {}",
                            def.params.len(),
                            existing.params.len()
                        ),
                    });
                }
            }
            None => {
                let id = StarId(rules.stars.len() as u32);
                rules.by_name.insert(def.name.clone(), id);
                rules.stars.push(StarDef {
                    name: def.name.clone(),
                    span_name: format!("star:{}", def.name).into(),
                    params: def.params.clone(),
                    groups: Vec::new(),
                });
            }
        }
    }
    // Pass 2: compile bodies.
    for def in &ast.stars {
        let id = rules.by_name[&def.name];
        let group = compile_star_group(rules, def, env)?;
        for k in 1..=group.alts.len() {
            rules.labels.push(format!("{}[alt {k}]", def.name).into());
        }
        rules.stars[id.0 as usize].groups.push(group);
    }
    Ok(())
}

struct Scope {
    slots: HashMap<String, u32>,
    next: u32,
}

impl Scope {
    fn new(params: &[String]) -> Result<Self> {
        let mut slots = HashMap::new();
        for (i, p) in params.iter().enumerate() {
            if slots.insert(p.clone(), i as u32).is_some() {
                return Err(CoreError::Compile {
                    star: String::new(),
                    msg: format!("duplicate parameter {p}"),
                });
            }
        }
        Ok(Scope {
            slots,
            next: params.len() as u32,
        })
    }

    fn bind(&mut self, name: &str) -> u32 {
        let slot = self.next;
        self.slots.insert(name.to_string(), slot);
        self.next += 1;
        slot
    }
}

fn compile_star_group(rules: &RuleSet, def: &StarDefAst, env: &CompileEnv<'_>) -> Result<AltGroup> {
    let mut scope = Scope::new(&def.params).map_err(|e| match e {
        CoreError::Compile { msg, .. } => CoreError::Compile {
            star: def.name.clone(),
            msg,
        },
        other => other,
    })?;
    let mut bindings = Vec::new();
    for (name, e) in &def.bindings {
        let compiled = compile_expr(rules, e, &scope, env, &def.name)?;
        scope.bind(name);
        bindings.push(compiled);
    }
    // One forall slot shared by all alternatives of the group (alternatives
    // evaluate sequentially).
    let forall_slot = scope.next;
    let mut alts = Vec::new();
    for alt in def.body.alternatives() {
        // `compile_into` renders the label once the whole group compiled.
        let label = (rules.labels.len() + alts.len()) as u32;
        alts.push(compile_alt(
            rules,
            alt,
            &scope,
            forall_slot,
            env,
            &def.name,
            label,
        )?);
    }
    Ok(AltGroup {
        bindings,
        exclusive: def.body.exclusive(),
        alts,
    })
}

fn compile_alt(
    rules: &RuleSet,
    alt: &AltAst,
    scope: &Scope,
    forall_slot: u32,
    env: &CompileEnv<'_>,
    star: &str,
    label: u32,
) -> Result<Alt> {
    let (forall, inner_scope);
    match &alt.forall {
        Some((var, set)) => {
            let set_expr = compile_expr(rules, set, scope, env, star)?;
            let mut s2 = Scope {
                slots: scope.slots.clone(),
                next: forall_slot,
            };
            let slot = s2.bind(var);
            debug_assert_eq!(slot, forall_slot);
            forall = Some(set_expr);
            inner_scope = s2;
        }
        None => {
            forall = None;
            inner_scope = Scope {
                slots: scope.slots.clone(),
                next: scope.next,
            };
        }
    }
    let expr = compile_expr(rules, &alt.expr, &inner_scope, env, star)?;
    let guard = match &alt.guard {
        GuardAst::None => Guard::Always,
        GuardAst::Otherwise => Guard::Otherwise,
        GuardAst::If(e) => Guard::If(compile_expr(rules, e, &inner_scope, env, star)?),
    };
    Ok(Alt {
        forall,
        expr,
        guard,
        label,
    })
}

fn compile_expr(
    rules: &RuleSet,
    e: &ExprAst,
    scope: &Scope,
    env: &CompileEnv<'_>,
    star: &str,
) -> Result<Expr> {
    let compile_args = |args: &[ExprAst]| -> Result<Vec<Expr>> {
        args.iter()
            .map(|a| compile_expr(rules, a, scope, env, star))
            .collect()
    };
    Ok(match e {
        ExprAst::Num(n) => Expr::Const(RuleValue::Int(*n)),
        ExprAst::Str(s) => Expr::Const(RuleValue::Str(s.as_str().into())),
        ExprAst::AllCols => Expr::Const(RuleValue::AllCols),
        // `{}` is the polymorphic empty set; the engine coerces it to the
        // set type the consumer expects. Canonical form: empty preds.
        ExprAst::EmptySet => Expr::Const(RuleValue::Preds(starqo_query::PredSet::EMPTY)),
        ExprAst::Ident(name) => match scope.slots.get(name) {
            Some(slot) => Expr::Var(*slot),
            None => Expr::Const(RuleValue::Sym(name.as_str().into())),
        },
        ExprAst::Call(name, args) => {
            if name == "Glue" {
                if args.len() != 2 {
                    return Err(CoreError::Compile {
                        star: star.to_string(),
                        msg: format!("Glue takes (stream, preds); got {} args", args.len()),
                    });
                }
                let s = compile_expr(rules, &args[0], scope, env, star)?;
                let p = compile_expr(rules, &args[1], scope, env, star)?;
                Expr::Glue(Box::new(s), Box::new(p))
            } else if LOLEPOP_NAMES.contains(&name.as_str()) || env.ext_ops.contains(name) {
                Expr::CallOp(name.as_str().into(), compile_args(args)?)
            } else if let Some(id) = rules.lookup(name) {
                let want = rules.star(id).params.len();
                if want != args.len() {
                    return Err(CoreError::Compile {
                        star: star.to_string(),
                        msg: format!("STAR {name} takes {want} arguments, got {}", args.len()),
                    });
                }
                Expr::CallStar(id, compile_args(args)?)
            } else if let Some(id) = env.natives.lookup(name) {
                Expr::CallFn(id, compile_args(args)?)
            } else {
                return Err(CoreError::Compile {
                    star: star.to_string(),
                    msg: format!(
                        "unresolved reference {name}(...): not a LOLEPOP, STAR, or native function"
                    ),
                });
            }
        }
        ExprAst::Binary(op, l, r) => {
            let lo = compile_expr(rules, l, scope, env, star)?;
            let ro = compile_expr(rules, r, scope, env, star)?;
            Expr::Binary(map_binop(*op), Box::new(lo), Box::new(ro))
        }
        ExprAst::Not(inner) => Expr::Not(Box::new(compile_expr(rules, inner, scope, env, star)?)),
        ExprAst::WithReqs(inner, reqs) => {
            let base = compile_expr(rules, inner, scope, env, star)?;
            let mut out = Vec::with_capacity(reqs.len());
            for r in reqs {
                out.push(match r {
                    ReqAst::Order(e) => ReqExpr::Order(compile_expr(rules, e, scope, env, star)?),
                    ReqAst::Site(e) => ReqExpr::Site(compile_expr(rules, e, scope, env, star)?),
                    ReqAst::Temp => ReqExpr::Temp,
                    ReqAst::Paths(e) => ReqExpr::Paths(compile_expr(rules, e, scope, env, star)?),
                });
            }
            Expr::WithReqs(Box::new(base), out)
        }
    })
}

fn map_binop(op: BinOpAst) -> BinOp {
    match op {
        BinOpAst::Or => BinOp::Or,
        BinOpAst::And => BinOp::And,
        BinOpAst::Eq => BinOp::Eq,
        BinOpAst::Ne => BinOp::Ne,
        BinOpAst::Lt => BinOp::Lt,
        BinOpAst::Le => BinOp::Le,
        BinOpAst::Gt => BinOp::Gt,
        BinOpAst::Ge => BinOp::Ge,
        BinOpAst::In => BinOp::In,
        BinOpAst::Subset => BinOp::Subset,
        BinOpAst::Union => BinOp::Union,
        BinOpAst::Minus => BinOp::Minus,
        BinOpAst::Intersect => BinOp::Intersect,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use starqo_dsl::parse_rules;

    fn compile(src: &str) -> Result<RuleSet> {
        let natives = Natives::builtin();
        let ext = BTreeSet::new();
        let env = CompileEnv {
            natives: &natives,
            ext_ops: &ext,
        };
        let mut rs = RuleSet::default();
        compile_into(&mut rs, &parse_rules(src).unwrap(), &env)?;
        Ok(rs)
    }

    #[test]
    fn compiles_paper_join_root() {
        let rs = compile(
            "star JoinRoot(T1, T2, P) = [\n\
               PermutedJoin(T1, T2, P);\n\
               PermutedJoin(T2, T1, P);\n\
             ]\n\
             star PermutedJoin(T1, T2, P) = JOIN(NL, Glue(T1, {}), Glue(T2, {}), {}, P);",
        )
        .unwrap();
        assert_eq!(rs.len(), 2);
        let jr = rs.star(rs.lookup("JoinRoot").unwrap());
        assert_eq!(jr.groups.len(), 1);
        assert_eq!(jr.groups[0].alts.len(), 2);
        // Forward reference resolved as CallStar.
        assert!(matches!(jr.groups[0].alts[0].expr, Expr::CallStar(_, _)));
    }

    #[test]
    fn redefinition_appends_group() {
        let rs = compile(
            "star JMeth(T1, T2, P) = [ JOIN(NL, Glue(T1, {}), Glue(T2, {}), {}, P); ]\n\
             star JMeth(A, B, Q) = [ JOIN(HA, Glue(A, {}), Glue(B, {}), {}, Q); ]",
        )
        .unwrap();
        assert_eq!(rs.len(), 1);
        assert_eq!(rs.star(rs.lookup("JMeth").unwrap()).groups.len(), 2);
    }

    #[test]
    fn redefinition_arity_mismatch_rejected() {
        let err = compile(
            "star A(x) = SORT(Glue(x, {}), {});\n\
             star A(x, y) = SORT(Glue(x, {}), {});",
        )
        .unwrap_err();
        assert!(matches!(err, CoreError::Compile { .. }));
    }

    #[test]
    fn flavors_become_symbols_and_vars_resolve() {
        let rs =
            compile("star M(T1, T2, P) = JOIN(MG, Glue(T1, {}), Glue(T2, {}), P, {});").unwrap();
        let m = rs.star(rs.lookup("M").unwrap());
        if let Expr::CallOp(name, args) = &m.groups[0].alts[0].expr {
            assert_eq!(&**name, "JOIN");
            assert!(matches!(&args[0], Expr::Const(RuleValue::Sym(s)) if s.as_ref() == "MG"));
            assert!(matches!(&args[3], Expr::Var(2)));
        } else {
            panic!();
        }
    }

    #[test]
    fn natives_resolve_and_unknown_calls_fail() {
        let rs = compile("star C(T, P) = Glue(T, join_preds(P));").unwrap();
        let c = rs.star(rs.lookup("C").unwrap());
        if let Expr::Glue(_, preds) = &c.groups[0].alts[0].expr {
            assert!(matches!(**preds, Expr::CallFn(_, _)));
        } else {
            panic!();
        }
        let err = compile("star C(T) = mystery_fn(T);").unwrap_err();
        assert!(matches!(err, CoreError::Compile { .. }));
    }

    #[test]
    fn star_arity_checked() {
        let err = compile(
            "star A(x, y) = SORT(Glue(x, {}), {});\n\
             star B(z) = A(z);",
        )
        .unwrap_err();
        assert!(matches!(err, CoreError::Compile { .. }));
    }

    #[test]
    fn with_bindings_get_slots() {
        let rs = compile("star J(T1, T2, P) = with JP = join_preds(P) [ Glue(T2, JP); ]").unwrap();
        let j = rs.star(rs.lookup("J").unwrap());
        assert_eq!(j.groups[0].bindings.len(), 1);
        if let Expr::Glue(_, p) = &j.groups[0].alts[0].expr {
            assert!(matches!(**p, Expr::Var(3))); // after 3 params
        } else {
            panic!();
        }
    }

    #[test]
    fn forall_variable_scoped() {
        let rs = compile("star A(T, C, P) = [ forall i in indexes(T): ACCESS(index, i, C, P); ]")
            .unwrap();
        let a = rs.star(rs.lookup("A").unwrap());
        let alt = &a.groups[0].alts[0];
        assert!(alt.forall.is_some());
        if let Expr::CallOp(_, args) = &alt.expr {
            assert!(matches!(args[1], Expr::Var(3)));
        } else {
            panic!();
        }
    }

    #[test]
    fn duplicate_parameter_rejected() {
        let err = compile("star A(x, x) = Glue(x, {});").unwrap_err();
        assert!(matches!(err, CoreError::Compile { .. }));
    }

    #[test]
    fn ext_ops_resolve_when_registered() {
        let natives = Natives::builtin();
        let mut ext = BTreeSet::new();
        ext.insert("OUTERJOIN".to_string());
        let env = CompileEnv {
            natives: &natives,
            ext_ops: &ext,
        };
        let mut rs = RuleSet::default();
        compile_into(
            &mut rs,
            &parse_rules("star OJ(T1, T2, P) = OUTERJOIN(Glue(T1, {}), Glue(T2, {}), P);").unwrap(),
            &env,
        )
        .unwrap();
        let oj = rs.star(rs.lookup("OJ").unwrap());
        assert!(matches!(&oj.groups[0].alts[0].expr, Expr::CallOp(n, _) if &**n == "OUTERJOIN"));
    }
}
