//! Immutable shared slices for values that plans copy around unchanged.
//!
//! Figure 2's property vectors are near-identical across a SAP: a FILTER, a
//! SHIP or a join passes its input's columns, order and paths through. These
//! types make that pass-through a reference-count bump instead of a deep
//! copy, and make the empty value (the common ORDER and PATHS) free.

use std::fmt;
use std::ops::Deref;
use std::sync::Arc;

use crate::scalar::QCol;

/// An immutable slice shared by reference count; empty allocates nothing.
#[derive(Clone, PartialEq, Eq, Hash)]
pub struct Shared<T>(Option<Arc<[T]>>);

impl<T> Shared<T> {
    pub const EMPTY: Shared<T> = Shared(None);
}

impl<T> Default for Shared<T> {
    fn default() -> Self {
        Shared::EMPTY
    }
}

impl<T> Deref for Shared<T> {
    type Target = [T];
    fn deref(&self) -> &[T] {
        self.0.as_deref().unwrap_or(&[])
    }
}

impl<T> From<Vec<T>> for Shared<T> {
    fn from(v: Vec<T>) -> Self {
        Shared((!v.is_empty()).then(|| v.into()))
    }
}

impl<T: Clone> From<&[T]> for Shared<T> {
    fn from(v: &[T]) -> Self {
        Shared((!v.is_empty()).then(|| v.into()))
    }
}

impl<T> FromIterator<T> for Shared<T> {
    fn from_iter<I: IntoIterator<Item = T>>(iter: I) -> Self {
        iter.into_iter().collect::<Vec<T>>().into()
    }
}

impl<T: fmt::Debug> fmt::Debug for Shared<T> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        self.deref().fmt(f)
    }
}

/// A set of quantified columns (the COLS property, the C parameter of the
/// access STARs): sorted, duplicate-free, shared.
#[derive(Debug, Clone, Default, PartialEq, Eq, Hash)]
pub struct ColSet(Shared<QCol>);

impl ColSet {
    pub fn new() -> Self {
        Self::default()
    }

    pub fn contains(&self, c: &QCol) -> bool {
        self.binary_search(c).is_ok()
    }

    /// Add a column (copy-on-write); true if it was not present.
    pub fn insert(&mut self, c: QCol) -> bool {
        let new = !self.contains(&c);
        if new {
            self.extend([c]);
        }
        new
    }

    /// Set union; shares `self` when `other` adds nothing, and otherwise
    /// merges the two sorted lists straight into the new shared block (its
    /// length is known first, so no vector is built and copied).
    #[must_use]
    pub fn union(&self, other: &ColSet) -> ColSet {
        let new = other.iter().filter(|c| !self.contains(c)).count();
        if new == 0 {
            return self.clone();
        }
        let (a, b) = (&self[..], &other[..]);
        let (mut i, mut j) = (0, 0);
        let merged = (0..a.len() + new).map(|_| {
            if j == b.len() || (i < a.len() && a[i] <= b[j]) {
                j += (j < b.len() && a[i] == b[j]) as usize;
                i += 1;
                a[i - 1]
            } else {
                j += 1;
                b[j - 1]
            }
        });
        ColSet(Shared(Some(merged.collect())))
    }
}

impl Deref for ColSet {
    type Target = [QCol];
    fn deref(&self) -> &[QCol] {
        &self.0
    }
}

impl FromIterator<QCol> for ColSet {
    fn from_iter<I: IntoIterator<Item = QCol>>(iter: I) -> Self {
        let mut v: Vec<QCol> = iter.into_iter().collect();
        v.sort_unstable();
        v.dedup();
        ColSet(v.into())
    }
}

impl Extend<QCol> for ColSet {
    fn extend<I: IntoIterator<Item = QCol>>(&mut self, iter: I) {
        *self = self.iter().copied().chain(iter).collect();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::qset::QId;
    use starqo_catalog::ColId;

    fn qc(q: u32, c: u32) -> QCol {
        QCol::new(QId(q), ColId(c))
    }

    #[test]
    fn shared_empty_is_free_and_equal() {
        let e: Shared<u32> = Vec::new().into();
        assert_eq!(e, Shared::EMPTY);
        assert!(e.is_empty());
        let s: Shared<u32> = vec![1, 2].into();
        assert_eq!(*s, [1, 2]);
        assert_eq!(s.clone().len(), 2);
    }

    #[test]
    fn colset_is_a_sorted_set() {
        let mut s: ColSet = [qc(1, 0), qc(0, 2), qc(1, 0)].into_iter().collect();
        assert_eq!(s.to_vec(), vec![qc(0, 2), qc(1, 0)]);
        assert!(s.contains(&qc(1, 0)) && !s.contains(&qc(0, 0)));
        assert!(s.insert(qc(0, 0)) && !s.insert(qc(0, 0)));
        assert_eq!(s.first(), Some(&qc(0, 0)));
        let t: ColSet = [qc(0, 2)].into_iter().collect();
        assert_eq!(s.union(&t), s);
        assert_eq!(t.union(&s), s);
        assert_eq!(ColSet::new().union(&t), t);
    }

    #[test]
    fn union_merges_like_collecting_both() {
        let sets: Vec<ColSet> = [
            vec![],
            vec![qc(0, 1)],
            vec![qc(0, 0), qc(0, 2), qc(1, 1)],
            vec![qc(0, 1), qc(0, 2), qc(2, 0)],
            vec![qc(1, 0), qc(1, 1), qc(1, 2), qc(3, 0)],
        ]
        .into_iter()
        .map(|cols| cols.into_iter().collect())
        .collect();
        for a in &sets {
            for b in &sets {
                let both: ColSet = a.iter().chain(b.iter()).copied().collect();
                assert_eq!(a.union(b), both, "{a:?} ∪ {b:?}");
            }
        }
    }
}
