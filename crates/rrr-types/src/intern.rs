//! A generic intern arena: canonical id-based handles for values that are
//! expensive to clone or compare but repeat heavily in a stream.
//!
//! This extends the `Arc`-interning pattern used for signal keys to the
//! ingestion hot path: instead of handing out `Arc` clones, the arena
//! assigns a dense `u32` id per distinct value, so equality of interned
//! values is an integer comparison and stored state (RIB mirrors, window
//! sample logs) holds `Copy` ids instead of owned vectors.

use crate::FastMap;
use std::hash::Hash;
use std::marker::PhantomData;
use std::sync::Arc;

/// A dense handle into an [`Arena<T>`]. Ids are only meaningful within the
/// arena that issued them; within one arena, `a == b` iff the interned
/// values are equal.
pub struct ArenaId<T>(u32, PhantomData<fn() -> T>);

impl<T> ArenaId<T> {
    /// The raw index (diagnostics / dense side tables).
    #[inline]
    pub fn index(self) -> usize {
        self.0 as usize
    }

    /// Rebuilds a handle from a raw index, for checkpoint restore: ids are
    /// dense insertion indices, so re-interning the same values in the same
    /// order reproduces them and stored raw indices stay valid. The caller
    /// is responsible for only resolving the handle against an arena that
    /// actually has `index` entries.
    #[inline]
    pub fn from_index(index: u32) -> Self {
        ArenaId(index, PhantomData)
    }
}

// Manual impls: derives would needlessly bound `T`.
impl<T> Clone for ArenaId<T> {
    fn clone(&self) -> Self {
        *self
    }
}
impl<T> Copy for ArenaId<T> {}
impl<T> PartialEq for ArenaId<T> {
    fn eq(&self, other: &Self) -> bool {
        self.0 == other.0
    }
}
impl<T> Eq for ArenaId<T> {}
impl<T> PartialOrd for ArenaId<T> {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}
impl<T> Ord for ArenaId<T> {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        self.0.cmp(&other.0)
    }
}
impl<T> Hash for ArenaId<T> {
    fn hash<H: std::hash::Hasher>(&self, state: &mut H) {
        self.0.hash(state);
    }
}
impl<T> std::fmt::Debug for ArenaId<T> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "ArenaId({})", self.0)
    }
}

/// An append-only intern arena. Each distinct value is stored once (behind
/// an `Arc` shared between the id table and the lookup index) and resolved
/// by [`ArenaId`] in O(1).
#[derive(Debug, Clone, Default)]
pub struct Arena<T: Eq + Hash> {
    items: Vec<Arc<T>>,
    index: FastMap<Arc<T>, u32>,
}

impl<T: Eq + Hash> Arena<T> {
    pub fn new() -> Self {
        Arena { items: Vec::new(), index: FastMap::default() }
    }

    /// The canonical id for `value`, cloning it only on first sight.
    /// Lookup allocates nothing: `Arc<T>: Borrow<T>`.
    pub fn intern(&mut self, value: &T) -> ArenaId<T>
    where
        T: Clone,
    {
        if let Some(&id) = self.index.get(value) {
            return ArenaId(id, PhantomData);
        }
        self.insert_new(value.clone())
    }

    /// Like [`Arena::intern`] but takes ownership, avoiding the clone when
    /// the caller already holds a value it no longer needs.
    pub fn intern_owned(&mut self, value: T) -> ArenaId<T> {
        if let Some(&id) = self.index.get(&value) {
            return ArenaId(id, PhantomData);
        }
        self.insert_new(value)
    }

    fn insert_new(&mut self, value: T) -> ArenaId<T> {
        let id = u32::try_from(self.items.len()).expect("arena overflow");
        let arc = Arc::new(value);
        self.items.push(Arc::clone(&arc));
        self.index.insert(arc, id);
        ArenaId(id, PhantomData)
    }

    /// Resolves an id issued by this arena.
    ///
    /// # Panics
    /// Panics if `id` came from a different arena with more entries.
    #[inline]
    pub fn get(&self, id: ArenaId<T>) -> &T {
        &self.items[id.0 as usize]
    }

    /// Number of distinct interned values.
    pub fn len(&self) -> usize {
        self.items.len()
    }

    pub fn is_empty(&self) -> bool {
        self.items.is_empty()
    }

    /// Iterates `(id, value)` pairs in insertion order.
    pub fn iter(&self) -> impl Iterator<Item = (ArenaId<T>, &T)> {
        self.items.iter().enumerate().map(|(i, v)| (ArenaId(i as u32, PhantomData), &**v))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn interning_dedups_and_resolves() {
        let mut a: Arena<Vec<u32>> = Arena::new();
        let x = a.intern(&vec![1, 2, 3]);
        let y = a.intern(&vec![1, 2, 3]);
        let z = a.intern(&vec![4]);
        assert_eq!(x, y);
        assert_ne!(x, z);
        assert_eq!(a.len(), 2);
        assert_eq!(a.get(x), &vec![1, 2, 3]);
        assert_eq!(a.get(z), &vec![4]);
    }

    #[test]
    fn intern_owned_matches_intern() {
        let mut a: Arena<String> = Arena::new();
        let x = a.intern(&"hello".to_string());
        let y = a.intern_owned("hello".to_string());
        assert_eq!(x, y);
        assert_eq!(a.len(), 1);
    }

    #[test]
    fn ids_are_dense_and_ordered() {
        let mut a: Arena<u64> = Arena::new();
        let ids: Vec<_> = (0..5).map(|i| a.intern(&(i * 10))).collect();
        for (k, id) in ids.iter().enumerate() {
            assert_eq!(id.index(), k);
        }
        assert!(ids[0] < ids[1]);
        let all: Vec<u64> = a.iter().map(|(_, v)| *v).collect();
        assert_eq!(all, vec![0, 10, 20, 30, 40]);
    }

    #[test]
    fn ids_usable_as_map_keys() {
        use std::collections::HashMap;
        let mut a: Arena<&'static str> = Arena::new();
        let x = a.intern(&"k");
        let mut m = HashMap::new();
        m.insert(x, 7);
        assert_eq!(m[&a.intern(&"k")], 7);
    }
}
