//! Plan compilation: a LOLEPOP tree becomes a tree of [`Node`]s, once per
//! run, before any row moves.
//!
//! Streaming operators (ACCESS, GET, FILTER, SHIP) fuse into [`Chain`]s;
//! everything else is a pipeline breaker that consumes and produces
//! materialized relations. Expressions are resolved here — against the
//! operator's stream schema and the [`Scope`] of enclosing correlated
//! nested-loop outers — so running a node, including *re*-running a
//! correlated inner for every outer row, resolves no names.
//!
//! Compilation itself never fails: a malformed operator compiles to
//! [`Kind::Fail`] and raises the serial engine's error when (and only if)
//! it is evaluated — an inner under an empty outer never is.

use starqo_catalog::TID_COL;
use starqo_plan::result::{ExecError, Result};
use starqo_plan::{is_correlated, position, AccessSpec, JoinFlavor, Lolepop, PlanNode, PlanRef};
use starqo_query::{CmpOp, PredExpr, PredSet, QCol, Query};
use starqo_storage::Database;

use crate::chain::{Chain, Combine, Emit, GetOp, KeyRange, Op, Prefix, Source, TID_SLOT};
use crate::expr::{CExpr, PredProg, Scope};

/// One compiled operator (or fused run of streaming operators).
pub(crate) struct Node<'a> {
    /// The plan node this was compiled from; for a chain, its topmost.
    pub plan: &'a PlanNode,
    pub kind: Kind<'a>,
    /// Correlation-free (known for the nodes the temp cache may hold: temp
    /// inputs and SORTs). A correlation-free STORE is a counted temp.
    pub uncorrelated: bool,
    /// Correlation-free *and* under a correlated nested-loop inner, where it
    /// will be asked for again: its output is kept in the temp cache.
    /// Everywhere else a node runs exactly once and its consumer owns (and
    /// recycles) what it produced.
    pub cacheable: bool,
}

impl Node<'_> {
    /// Node identity — the serial engine's temp-cache key.
    pub fn key(&self) -> usize {
        self.plan as *const PlanNode as usize
    }

    pub fn is_store(&self) -> bool {
        matches!(self.plan.op, Lolepop::Store)
    }

    pub fn width(&self) -> usize {
        self.plan.props.cols.len()
    }
}

pub(crate) enum Kind<'a> {
    Chain(Chain<'a>),
    /// `key`: the sort key's slots in the child.
    Sort {
        child: Box<Node<'a>>,
        key: Vec<usize>,
    },
    /// STORE / BUILD_INDEX: the cached child, passed through.
    Temp(Box<Node<'a>>),
    /// `keys`: per join predicate, its (outer, inner) column slots;
    /// `applied`: the outer slots of the keys whose equality the merge itself
    /// applies — `combine` no longer holds it.
    Merge {
        outer: Box<Node<'a>>,
        inner: Box<Node<'a>>,
        keys: Vec<(usize, usize)>,
        applied: Vec<usize>,
        combine: Combine,
    },
    /// Nested loops. `binds`: for a correlated inner, the outer slots it
    /// reads, re-bound (in this order, after the enclosing bindings) before
    /// each re-run; `None` evaluates the inner once.
    Loop {
        outer: Box<Node<'a>>,
        inner: Box<Node<'a>>,
        binds: Option<Vec<usize>>,
        combine: Combine,
    },
    /// `keys`: per hashable predicate, its (outer, inner) key expression.
    Hash {
        outer: Box<Node<'a>>,
        inner: Box<Node<'a>>,
        keys: Vec<(CExpr, CExpr)>,
        combine: Combine,
    },
    Union(Box<Node<'a>>, Box<Node<'a>>),
    Fail(ExecError),
}

pub(crate) struct Compiler<'a> {
    pub db: &'a Database,
    pub query: &'a Query,
    pub scope: Scope,
}

fn schema(node: &PlanNode) -> &[QCol] {
    &node.props.cols
}

/// Checked input access with the serial engine's exact error text.
fn input(node: &PlanNode, i: usize) -> Result<&PlanRef> {
    node.inputs.get(i).ok_or_else(|| {
        ExecError::BadPlan(format!(
            "{} requires input #{} but the node has {}",
            node.op.name(),
            i + 1,
            node.inputs.len()
        ))
    })
}

fn slots_of(schema: &[QCol], cols: &[QCol]) -> Result<Vec<usize>> {
    cols.iter()
        .map(|c| position(schema, *c).ok_or_else(|| ExecError::UnboundColumn(c.to_string())))
        .collect()
}

impl<'a> Compiler<'a> {
    pub fn compile(&mut self, plan: &'a PlanNode) -> Node<'a> {
        let kind = self.kind(plan).unwrap_or_else(Kind::Fail);
        let mut node = Node {
            plan,
            kind,
            uncorrelated: false,
            cacheable: false,
        };
        if matches!(node.kind, Kind::Sort { .. }) {
            self.mark(&mut node);
        }
        node
    }

    /// Decide whether the temp cache may hold `node`: a non-empty scope
    /// means it sits under a correlated inner and will run again.
    fn mark(&self, node: &mut Node<'a>) {
        node.uncorrelated = !is_correlated(node.plan, self.query);
        node.cacheable = node.uncorrelated && self.scope.len() > 0;
    }

    /// Compile a node that is evaluated through the temp cache.
    fn cached(&mut self, plan: &'a PlanNode) -> Box<Node<'a>> {
        let mut node = self.compile(plan);
        self.mark(&mut node);
        Box::new(node)
    }

    fn boxed(&mut self, plan: &'a PlanNode) -> Box<Node<'a>> {
        Box::new(self.compile(plan))
    }

    fn kind(&mut self, node: &'a PlanNode) -> Result<Kind<'a>> {
        Ok(match &node.op {
            Lolepop::Access { .. }
            | Lolepop::Get { .. }
            | Lolepop::Filter { .. }
            | Lolepop::Ship { .. } => Kind::Chain(self.chain(node)?),
            Lolepop::Sort { key } => {
                let child = input(node, 0)?;
                let key = slots_of(schema(child), key)?;
                // A STORE'd child is a temp (counted, cached); any other
                // child is consumed by the sort, whose output is what a
                // re-evaluation wants back.
                let child = if matches!(child.op, Lolepop::Store) {
                    self.cached(child)
                } else {
                    self.boxed(child)
                };
                Kind::Sort { child, key }
            }
            Lolepop::Store | Lolepop::BuildIndex { .. } => Kind::Temp(self.cached(input(node, 0)?)),
            Lolepop::Join {
                flavor,
                join_preds,
                residual,
            } => self.join(node, *flavor, *join_preds, *residual)?,
            Lolepop::Union => Kind::Union(self.boxed(input(node, 0)?), self.boxed(input(node, 1)?)),
            // The service registers no extension routines; the serial
            // engine's error for that is the contract.
            Lolepop::Ext { name, .. } => return Err(ExecError::UnknownExtOp(name.to_string())),
        })
    }

    /// Compile a streaming subtree into one fused chain. A non-streaming
    /// child becomes the chain's relation source.
    fn chain(&mut self, node: &'a PlanNode) -> Result<Chain<'a>> {
        let (db, query) = (self.db, self.query);
        let mut chain = match &node.op {
            Lolepop::Access { spec, cols, preds } => {
                let (source, slots) = match spec {
                    AccessSpec::HeapTable(q) | AccessSpec::BTreeTable(q) => {
                        let id = query.quantifier(*q).table;
                        let slot = |c: &QCol| {
                            if c.col.is_tid() {
                                TID_SLOT
                            } else {
                                c.col.0 as usize
                            }
                        };
                        // A heap's native order is empty: its key range
                        // binds nothing and reads the whole table.
                        let key = db.catalog().table(id).native_order();
                        let source = Source::Table {
                            table: db.table(id)?,
                            key: KeyRange::compile(query, *q, key, *preds, &self.scope),
                        };
                        (source, cols.iter().map(slot).collect())
                    }
                    AccessSpec::Index { index, q } => {
                        let def = db.catalog().index(*index);
                        let key: Vec<QCol> = def.cols.iter().map(|c| QCol::new(*q, *c)).collect();
                        // A stream column reads the base column its key
                        // position was built from (same `unwrap_or(0)`
                        // fallback as serial).
                        let slots = cols
                            .iter()
                            .map(|c| {
                                if c.col.is_tid() {
                                    return TID_SLOT;
                                }
                                let pos = def.cols.iter().position(|k| *k == c.col);
                                def.cols[pos.unwrap_or(0)].0 as usize
                            })
                            .collect();
                        let source = Source::Index {
                            table: db.table(def.table)?,
                            data: db.index(*index)?,
                            prefix: Prefix::compile(query, &key, *preds, &self.scope),
                        };
                        (source, slots)
                    }
                    AccessSpec::TempHeap => {
                        let inp = input(node, 0)?;
                        let slots = slots_of(schema(inp), cols)?;
                        let child = self.cached(inp);
                        (Source::Rel { child, temp: true }, slots)
                    }
                    AccessSpec::TempIndex { key } => {
                        let inp = input(node, 0)?;
                        let slots = slots_of(schema(inp), cols)?;
                        let source = Source::TempIndex {
                            key: slots_of(schema(inp), key)?,
                            prefix: Prefix::compile(query, key, *preds, &self.scope),
                            child: self.cached(inp),
                        };
                        (source, slots)
                    }
                };
                Chain {
                    source,
                    emit: Emit::new(query, *preds, cols, &self.scope, slots),
                    ops: Vec::new(),
                    top: node,
                    ships: 0,
                }
            }
            Lolepop::Filter { preds } => {
                let child = input(node, 0)?;
                let mut chain = self.chain(child)?;
                let prog = PredProg::compile(query, *preds, schema(child), &self.scope);
                chain.ops.push(Op::Filter(prog));
                chain
            }
            Lolepop::Ship { .. } => {
                let mut chain = self.chain(input(node, 0)?)?;
                chain.ops.push(Op::Ship(chain.ships));
                chain.ships += 1;
                chain
            }
            Lolepop::Get { q, cols: _, preds } => {
                let child = input(node, 0)?;
                let mut chain = self.chain(child)?;
                let tid_slot = position(schema(child), QCol::new(*q, TID_COL))
                    .ok_or_else(|| ExecError::BadPlan("GET input lacks TID column".into()))?;
                let combine = Combine::new(
                    query,
                    *preds,
                    schema(node),
                    &self.scope,
                    schema(child),
                    |c| Some(c.col.0 as usize),
                );
                chain.ops.push(Op::Get(GetOp {
                    table: db.table(query.quantifier(*q).table)?,
                    tid_slot,
                    combine,
                }));
                chain
            }
            // Anything else is a pipeline breaker: it materializes, and the
            // chain streams over its rows unchanged.
            _ => Chain {
                source: Source::Rel {
                    child: self.boxed(node),
                    temp: false,
                },
                emit: Emit::new(
                    query,
                    PredSet::EMPTY,
                    schema(node),
                    &self.scope,
                    (0..node.props.cols.len()).collect(),
                ),
                ops: Vec::new(),
                top: node,
                ships: 0,
            },
        };
        chain.top = node;
        Ok(chain)
    }

    fn join(
        &mut self,
        node: &'a PlanNode,
        flavor: JoinFlavor,
        join_preds: PredSet,
        residual: PredSet,
    ) -> Result<Kind<'a>> {
        let query = self.query;
        let (outer_node, inner_node) = (input(node, 0)?, input(node, 1)?);
        let (o_schema, i_schema) = (schema(outer_node), schema(inner_node));
        // join ∪ residual run on the combined candidate under the *enclosing*
        // bindings, exactly like the serial engine.
        let mut combine = Combine::new(
            query,
            join_preds.union(residual),
            schema(node),
            &self.scope,
            o_schema,
            |c| position(i_schema, c),
        );
        let outer = self.boxed(outer_node);
        Ok(match flavor {
            JoinFlavor::NL => {
                let correlated = is_correlated(inner_node, query);
                let base = self.scope.len();
                if correlated {
                    // Sideways information passing: the inner is compiled
                    // with the outer's columns in scope.
                    self.scope.push(o_schema);
                }
                let inner = self.boxed(inner_node);
                let binds = correlated.then(|| {
                    (0..o_schema.len())
                        .filter(|i| self.scope.is_used(base + i))
                        .collect()
                });
                self.scope.truncate(base);
                Kind::Loop {
                    outer,
                    inner,
                    binds,
                    combine,
                }
            }
            JoinFlavor::HA => {
                // Split each hashable predicate into (outer expr, inner
                // expr) exactly like the serial engine.
                let mut keys = Vec::new();
                for p in join_preds.iter() {
                    if let PredExpr::Cmp(CmpOp::Eq, l, r) = &query.pred(p).expr {
                        let (oe, ie) = if l.quantifiers().is_subset_of(outer_node.props.tables) {
                            (l, r)
                        } else {
                            (r, l)
                        };
                        keys.push((
                            CExpr::compile(oe, o_schema, &self.scope),
                            CExpr::compile(ie, i_schema, &self.scope),
                        ));
                    }
                }
                Kind::Hash {
                    outer,
                    inner: self.boxed(inner_node),
                    keys,
                    combine,
                }
            }
            JoinFlavor::MG => {
                // Merge keys are paired per predicate, identically to the
                // serial engine (including its validation errors).
                let mut keys = Vec::new();
                for p in join_preds.iter() {
                    let PredExpr::Cmp(CmpOp::Eq, l, r) = &query.pred(p).expr else {
                        return Err(ExecError::BadPlan(
                            "merge join predicate is not a column equality".into(),
                        ));
                    };
                    let (Some(lc), Some(rc)) = (l.as_col(), r.as_col()) else {
                        return Err(ExecError::BadPlan(
                            "merge join predicate side is not a bare column".into(),
                        ));
                    };
                    let (oc, ic) = if outer_node.props.tables.contains(lc.q) {
                        (lc, rc)
                    } else {
                        (rc, lc)
                    };
                    let unbound = |c: QCol| ExecError::UnboundColumn(c.to_string());
                    keys.push((
                        position(o_schema, oc).ok_or_else(|| unbound(oc))?,
                        position(i_schema, ic).ok_or_else(|| unbound(ic))?,
                    ));
                }
                // JP is the merge's to apply (§4): equal key runs *are* the
                // equalities, so only what is left is evaluated per pair.
                let applied = combine.applied_by_merge(&keys);
                Kind::Merge {
                    outer,
                    inner: self.boxed(inner_node),
                    keys,
                    applied,
                    combine,
                }
            }
        })
    }
}
