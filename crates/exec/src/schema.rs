//! Stream schemas: the column layout of tuples flowing between operators.
//!
//! A stream's schema is its COLS property in sorted (BTreeSet) order, so the
//! layout is fully determined by the plan's properties — the evaluator and
//! the optimizer never need to negotiate.

use starqo_plan::{ColSet, PlanNode, StreamSchema};

/// The schema of a plan node's output stream.
pub fn schema_of(node: &PlanNode) -> StreamSchema {
    cols_schema(&node.props.cols)
}

/// The schema corresponding to a column set.
pub fn cols_schema(cols: &ColSet) -> StreamSchema {
    cols.iter().copied().collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use starqo_catalog::ColId;
    use starqo_plan::position;
    use starqo_query::{QCol, QId};

    #[test]
    fn schema_is_sorted_and_searchable() {
        let mut cols = ColSet::new();
        for (q, c) in [(1, 0), (0, 2), (0, 1)] {
            cols.insert(QCol::new(QId(q), ColId(c)));
        }
        let s = cols_schema(&cols);
        assert_eq!(s.len(), 3);
        assert!(s.windows(2).all(|w| w[0] < w[1]));
        assert_eq!(position(&s, QCol::new(QId(0), ColId(2))), Some(1));
        assert_eq!(position(&s, QCol::new(QId(9), ColId(9))), None);
    }
}
