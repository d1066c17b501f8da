//! # starqo-plan
//!
//! Query evaluation plans (QEPs) and everything attached to them:
//!
//! * **LOLEPOPs** (§2.1) — the LOw-LEvel Plan OPerators: `ACCESS` (heap,
//!   B-tree, index, and temp flavors), `GET`, `SORT`, `SHIP`, `STORE`,
//!   `BUILD_INDEX`, `FILTER`, `JOIN` (nested-loop / merge / hash flavors),
//!   `UNION`, plus registered extension operators (§5).
//! * **Plans** — immutable, shared operator DAGs ([`PlanNode`]/[`PlanRef`]),
//!   with structural fingerprints for duplicate elimination.
//! * **Properties** (§3.1, Figure 2) — the property vector: relational
//!   (TABLES, COLS, PREDS), physical (ORDER, SITE, TEMP, PATHS), and
//!   estimated (CARD, COST).
//! * **Property functions** — one per LOLEPOP, deriving the output property
//!   vector from the operator's arguments and input properties, including
//!   cost. Extensible through a registry, as §5 prescribes.
//! * **Cost model** — R\*-shaped: a linear combination of I/O, CPU, and
//!   communication costs [LOHM 85], with the one-time/per-rescan split that
//!   nested-loop inners need.
//! * **Explain** — the paper's two plan renderings: the operator graph of
//!   Figure 1 and the nested functional notation of §2.1.
//! * **What a run yields** ([`result`], [`support`]) — the result and error
//!   types and the key-binding helpers every executor shares, so the
//!   serving engine (`starqo-vexec`) needs nothing from the serial oracle
//!   (`starqo-exec`).

pub mod calib;
pub mod cost;
pub mod error;
pub mod explain;
pub mod lolepop;
pub mod node;
pub mod propfn;
pub mod props;
pub mod result;
pub mod sel;
pub mod support;

pub use calib::{CostCalibration, COST_PROFILE_ENV};
pub use cost::CostModel;
pub use error::{PlanError, Result};
pub use explain::Explain;
pub use lolepop::{AccessSpec, ExtArg, JoinFlavor, Lolepop};
pub use node::{Inputs, PlanNode, PlanRef};
pub use propfn::{ExtPropFn, PropCtx, PropEngine};
pub use props::{AvailPath, ColSet, Cost, CostComponents, PathSource, Props};
pub use result::{position, rows_equal_multiset, ExecError, QueryResult, StreamSchema};
pub use sel::Selectivity;
pub use support::{
    is_correlated, panic_msg, prefix_candidates, range_candidates, value_bytes, FaultHook,
    KeyBounds,
};
