//! Projection of materialized rows onto a column list.

use starqo_plan::position;
use starqo_query::QCol;
use starqo_storage::Tuple;

use crate::{ExecError, Result};

/// Project rows from one schema onto a target column list.
pub fn project_rows(schema: &[QCol], rows: &[Tuple], cols: &[QCol]) -> Result<Vec<Tuple>> {
    let idx: Vec<usize> = cols
        .iter()
        .map(|c| position(schema, *c).ok_or_else(|| ExecError::UnboundColumn(c.to_string())))
        .collect::<Result<_>>()?;
    Ok(rows
        .iter()
        .map(|r| Tuple(idx.iter().map(|i| r.get(*i).clone()).collect()))
        .collect())
}

#[cfg(test)]
mod tests {
    use super::*;
    use starqo_catalog::{ColId, Value};
    use starqo_query::QId;

    fn qc(q: u32, c: u32) -> QCol {
        QCol::new(QId(q), ColId(c))
    }

    #[test]
    fn projection_reorders() {
        let schema = vec![qc(0, 0), qc(0, 1)];
        let rows = vec![Tuple(vec![Value::Int(1), Value::Int(2)])];
        let out = project_rows(&schema, &rows, &[qc(0, 1), qc(0, 0)]).unwrap();
        assert_eq!(out[0], Tuple(vec![Value::Int(2), Value::Int(1)]));
        assert!(project_rows(&schema, &rows, &[qc(1, 0)]).is_err());
    }
}
