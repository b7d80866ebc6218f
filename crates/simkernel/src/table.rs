//! [`DenseTable`]: the kernel's thread and process tables.
//!
//! Thread and process ids come from the kernel's own counters (1, 2, 3, …)
//! and no entry is ever removed: a dead thread or process stays in its
//! table for post-mortem queries. So a table is a `Vec` indexed by the id,
//! and a lookup is one bounds check where a hash map hashed the id and
//! probed a bucket — on every slice, switch and syscall of the kernel loop.
//! The table keeps exactly the `HashMap` API subset the workspace uses;
//! iteration is in id order.

use core::fmt::Debug;
use core::ops::Index;

/// An id usable as a [`DenseTable`] key: a small integer handed out in
/// sequence.
pub trait DenseId: Copy {
    /// The id's slot in the table. An id too large for the host's `usize`
    /// maps to `usize::MAX`, which no table reaches.
    fn slot(self) -> usize;
}

/// A map from dense ids to values, stored by id.
pub struct DenseTable<K, V> {
    /// `slots[id]` holds the entry of `id`; holes are ids never inserted
    /// (slot 0 included: the kernel's ids start at 1).
    slots: Vec<Option<(K, V)>>,
    len: usize,
}

impl<K, V> Default for DenseTable<K, V> {
    fn default() -> Self {
        DenseTable { slots: Vec::new(), len: 0 }
    }
}

impl<K: DenseId, V> DenseTable<K, V> {
    /// The value of `k`, if present.
    #[inline]
    pub fn get(&self, k: &K) -> Option<&V> {
        self.slots.get(k.slot())?.as_ref().map(|(_, v)| v)
    }

    /// The value of `k` for update, if present.
    #[inline]
    pub fn get_mut(&mut self, k: &K) -> Option<&mut V> {
        self.slots.get_mut(k.slot())?.as_mut().map(|(_, v)| v)
    }

    /// Inserts `v` under `k`, returning the value it replaces.
    pub fn insert(&mut self, k: K, v: V) -> Option<V> {
        let i = k.slot();
        if i >= self.slots.len() {
            self.slots.resize_with(i + 1, || None);
        }
        let old = self.slots[i].replace((k, v)).map(|(_, v)| v);
        if old.is_none() {
            self.len += 1;
        }
        old
    }

    /// True if `k` has an entry.
    #[inline]
    pub fn contains_key(&self, k: &K) -> bool {
        self.get(k).is_some()
    }

    /// Number of entries.
    pub fn len(&self) -> usize {
        self.len
    }

    /// True if the table has no entries.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Every `(id, value)` pair, in id order.
    pub fn iter(&self) -> impl Iterator<Item = (&K, &V)> + '_ {
        self.slots.iter().flatten().map(|(k, v)| (k, v))
    }

    /// Every id, in order.
    pub fn keys(&self) -> impl Iterator<Item = &K> + '_ {
        self.iter().map(|(k, _)| k)
    }

    /// Every value, in id order.
    pub fn values(&self) -> impl Iterator<Item = &V> + '_ {
        self.iter().map(|(_, v)| v)
    }
}

impl<K: DenseId + Debug, V> Index<&K> for DenseTable<K, V> {
    type Output = V;

    /// The value of `k`; panics if `k` has no entry.
    fn index(&self, k: &K) -> &V {
        self.get(k).unwrap_or_else(|| panic!("no entry for {k:?}"))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[derive(Clone, Copy, Debug, PartialEq, Eq)]
    struct Id(u64);

    impl DenseId for Id {
        fn slot(self) -> usize {
            self.0 as usize
        }
    }

    #[test]
    fn insert_returns_the_replaced_value() {
        let mut t = DenseTable::default();
        assert_eq!(t.insert(Id(3), "a"), None);
        assert_eq!(t.insert(Id(3), "b"), Some("a"));
        assert_eq!(t[&Id(3)], "b");
        assert_eq!(t.len(), 1, "a replacement is not a new entry");
    }

    #[test]
    fn len_counts_entries_not_slots() {
        let mut t = DenseTable::default();
        assert!(t.is_empty());
        t.insert(Id(1), 10);
        t.insert(Id(7), 70);
        assert_eq!(t.len(), 2);
        assert!(t.contains_key(&Id(7)) && !t.contains_key(&Id(4)) && !t.contains_key(&Id(99)));
        *t.get_mut(&Id(1)).expect("present") += 1;
        assert_eq!(t.get(&Id(1)), Some(&11));
        assert_eq!(t.get_mut(&Id(5)), None);
    }

    #[test]
    fn iteration_is_in_id_order() {
        let mut t = DenseTable::default();
        for id in [5, 2, 9, 1] {
            t.insert(Id(id), id * 10);
        }
        assert_eq!(t.keys().map(|k| k.0).collect::<Vec<_>>(), [1, 2, 5, 9]);
        assert_eq!(t.values().copied().collect::<Vec<_>>(), [10, 20, 50, 90]);
        assert!(t.iter().all(|(k, v)| k.0 * 10 == *v));
    }

    #[test]
    #[should_panic(expected = "no entry for Id(4)")]
    fn index_panics_on_an_absent_id() {
        let mut t = DenseTable::default();
        t.insert(Id(3), ());
        let _ = &t[&Id(4)];
    }

    #[test]
    fn ids_past_the_end_are_absent() {
        let t: DenseTable<Id, ()> = DenseTable::default();
        assert_eq!(t.get(&Id(u64::MAX)), None);
    }
}
