//! The one bounded map behind every cache in the workspace: the three
//! segments of the [`DecisionCache`](crate::cache::DecisionCache) and the
//! server's two text memos all evict through [`Lru`].
//!
//! It is an exact least-recently-used map.  A recency index (tick → key)
//! finds the eviction victim in O(log n), so a store costs the same whether
//! or not the map is full, and a full map sheds exactly one entry per new
//! key.  Each key is allocated once, as an `Arc<K>` shared by the entry map
//! and the recency index.

use std::collections::{BTreeMap, HashMap};
use std::hash::Hash;
use std::sync::Arc;

/// A map bounded to `cap` entries with least-recently-used eviction.
/// `None` means unbounded; `Some(0)` stores nothing, and every store then
/// counts as one eviction.
pub struct Lru<K: ?Sized, V> {
    entries: HashMap<Arc<K>, (V, i64)>,
    recency: BTreeMap<i64, Arc<K>>,
    /// The newest recency tick handed out.  Ticks are signed so that
    /// [`Lru::insert_below`] can rank an entry under the oldest live one.
    tick: i64,
    cap: Option<usize>,
    evicted: u64,
}

impl<K: ?Sized + Hash + Eq, V> Lru<K, V> {
    /// An empty map with the given cap.
    pub fn new(cap: Option<usize>) -> Lru<K, V> {
        Lru {
            entries: HashMap::new(),
            recency: BTreeMap::new(),
            tick: 0,
            cap,
            evicted: 0,
        }
    }

    /// The configured cap.
    pub fn cap(&self) -> Option<usize> {
        self.cap
    }

    /// Install a new cap, evicting least-recently-used entries at once
    /// until the map fits it.
    pub fn set_cap(&mut self, cap: Option<usize>) {
        self.cap = cap;
        if let Some(cap) = cap {
            while self.entries.len() > cap {
                self.evict_oldest();
            }
        }
    }

    /// Entries evicted to stay within the cap since creation or the last
    /// [`Lru::clear`].
    pub fn evictions(&self) -> u64 {
        self.evicted
    }

    /// Number of stored entries.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// Whether nothing is stored.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// The value stored under `key`, now the most recently used.
    pub fn get(&mut self, key: &K) -> Option<&V> {
        let (value, last_used) = self.entries.get_mut(key)?;
        self.tick += 1;
        let key = self
            .recency
            .remove(last_used)
            .expect("every entry has a recency slot");
        *last_used = self.tick;
        self.recency.insert(self.tick, key);
        Some(value)
    }

    /// Store `value` under `key` as the most recently used entry.  A new
    /// key in a full map evicts the least recently used entry first.
    pub fn insert(&mut self, key: impl Into<Arc<K>>, value: V) {
        let key = key.into();
        self.tick += 1;
        if let Some((slot, last_used)) = self.entries.get_mut(&key) {
            let key = self
                .recency
                .remove(last_used)
                .expect("every entry has a recency slot");
            *slot = value;
            *last_used = self.tick;
            self.recency.insert(self.tick, key);
            return;
        }
        match self.cap {
            Some(0) => {
                self.evicted += 1;
                return;
            }
            Some(cap) if self.entries.len() >= cap => self.evict_oldest(),
            _ => {}
        }
        self.recency.insert(self.tick, Arc::clone(&key));
        self.entries.insert(key, (value, self.tick));
    }

    /// Store `value` under a **vacant** `key`, ranked below every live
    /// entry, so it is the next victim.  An existing key keeps its value
    /// and its rank.  In a full map the newcomer is itself the least
    /// recently used entry, so it is evicted straight away.  Returns whether
    /// the newcomer is resident afterwards: `false` for a live key and for
    /// one the cap shed at once.
    ///
    /// A snapshot import stores through here: the hot set a live server is
    /// answering from outranks whatever a snapshot remembers.
    pub fn insert_below(&mut self, key: impl Into<Arc<K>>, value: V) -> bool {
        let key = key.into();
        if self.entries.contains_key(&key) {
            return false;
        }
        if self.cap.is_some_and(|cap| self.entries.len() >= cap) {
            self.evicted += 1;
            return false;
        }
        let tick = self
            .recency
            .first_key_value()
            .map_or(self.tick, |(&oldest, _)| oldest - 1);
        self.recency.insert(tick, Arc::clone(&key));
        self.entries.insert(key, (value, tick));
        true
    }

    /// Every stored entry, in unspecified order, without touching recency.
    pub fn iter(&self) -> impl Iterator<Item = (&K, &V)> {
        self.entries.iter().map(|(key, (value, _))| (&**key, value))
    }

    /// Drop every entry and zero the eviction count.  The cap stays.
    pub fn clear(&mut self) {
        self.entries.clear();
        self.recency.clear();
        self.evicted = 0;
    }

    fn evict_oldest(&mut self) {
        if let Some((_, key)) = self.recency.pop_first() {
            self.entries.remove(&key);
            self.evicted += 1;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn filled(cap: Option<usize>, n: usize) -> Lru<str, usize> {
        let mut lru = Lru::new(cap);
        for i in 0..n {
            lru.insert(format!("k{i}"), i);
        }
        lru
    }

    #[test]
    fn the_cap_is_exact() {
        let mut lru = filled(Some(4), 4);
        assert_eq!((lru.len(), lru.evictions()), (4, 0));
        lru.insert("k4".to_string(), 4);
        assert_eq!((lru.len(), lru.evictions()), (4, 1));
        assert_eq!(lru.get("k0"), None, "the oldest entry is the one evicted");
        for i in 1..=4 {
            assert_eq!(lru.get(format!("k{i}").as_str()), Some(&i));
        }
        // Re-storing a live key replaces its value without evicting.
        lru.insert("k1".to_string(), 10);
        assert_eq!((lru.len(), lru.evictions()), (4, 1));
        assert_eq!(lru.get("k1"), Some(&10));
    }

    #[test]
    fn a_get_refreshes_recency() {
        let mut lru = filled(Some(3), 3);
        assert_eq!(lru.get("k0"), Some(&0));
        lru.insert("k3".to_string(), 3);
        assert_eq!(lru.get("k0"), Some(&0), "recently used must survive");
        assert_eq!(lru.get("k1"), None, "the least recently used goes");
        // A re-store refreshes too.
        lru.insert("k2".to_string(), 2);
        lru.insert("k4".to_string(), 4);
        assert_eq!(lru.get("k2"), Some(&2));
        assert_eq!(lru.get("k3"), None);
    }

    #[test]
    fn a_zero_cap_stores_nothing_and_counts_every_store() {
        let mut lru = filled(Some(0), 3);
        lru.insert("k0".to_string(), 0);
        assert!(lru.is_empty());
        assert_eq!(lru.evictions(), 4);
        assert_eq!(lru.get("k0"), None);
        assert!(!lru.insert_below("k9".to_string(), 9), "shed at once");
        assert!(lru.is_empty());
        assert_eq!(lru.evictions(), 5);
    }

    #[test]
    fn shrinking_the_cap_evicts_at_once_and_counts() {
        let mut lru = filled(None, 10);
        assert_eq!(lru.get("k0"), Some(&0));
        lru.set_cap(Some(4));
        assert_eq!(lru.cap(), Some(4));
        assert_eq!((lru.len(), lru.evictions()), (4, 6));
        // The survivors are the four most recently used: k0 (touched),
        // then the three newest stores.
        for key in ["k0", "k7", "k8", "k9"] {
            assert!(lru.get(key).is_some(), "{key} must survive");
        }
        lru.set_cap(None);
        assert_eq!(lru.evictions(), 6, "growing the cap evicts nothing");
    }

    #[test]
    fn insert_below_keeps_live_values_and_ranks_under_every_live_entry() {
        let mut lru = filled(Some(4), 2);
        assert!(!lru.insert_below("k0".to_string(), 100), "k0 is live");
        assert_eq!(lru.get("k0"), Some(&0), "a live value wins");
        assert!(lru.insert_below("old0".to_string(), 0));
        assert!(lru.insert_below("old1".to_string(), 1));
        assert_eq!(lru.len(), 4);
        // Full: a further below-live insert is its own victim.
        assert!(!lru.insert_below("old2".to_string(), 2), "shed at once");
        assert_eq!((lru.len(), lru.evictions()), (4, 1));
        assert_eq!(lru.iter().filter(|(key, _)| *key == "old2").count(), 0);
        // New stores shed the imports first, the latest-inserted one
        // (lowest rank) before the earlier one.
        lru.insert("k2".to_string(), 2);
        assert!(lru.iter().all(|(key, _)| key != "old1"));
        lru.insert("k3".to_string(), 3);
        assert!(lru.iter().all(|(key, _)| key != "old0"));
        for key in ["k0", "k1", "k2", "k3"] {
            assert!(lru.get(key).is_some(), "live {key} must survive");
        }
    }

    #[test]
    fn clear_keeps_the_cap() {
        let mut lru = filled(Some(2), 5);
        assert_eq!(lru.evictions(), 3);
        lru.clear();
        assert!(lru.is_empty());
        assert_eq!((lru.cap(), lru.evictions()), (Some(2), 0));
        for i in 0..3 {
            lru.insert(format!("k{i}"), i);
        }
        assert_eq!((lru.len(), lru.evictions()), (2, 1));
    }
}
