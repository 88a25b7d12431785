//! Sharded LRU result cache with prefix-aware serving.
//!
//! Queries are keyed by `(graph, generation, γ, k, answer-family)` —
//! within one [`AnswerFamily`] the community set is a pure function of
//! the triple, whatever algorithm computed it (the interchangeable core
//! algorithms all agree), while the γ-truss family answers differently
//! and gets its own lane — so a repeat query is answered in O(1) with a
//! shared `Arc` to the first answer.
//!
//! The paper's enumeration-order guarantee buys more than exact repeats:
//! communities arrive in decreasing influence order, so the top-k answer
//! is a *prefix* of the top-k′ answer for every k ≤ k′ (§4,
//! LocalSearch-P). [`ResultCache::get_serving`] exploits that within the
//! core family: a lookup for `(γ, k)` may be answered by slicing any
//! cached entry of the same *lane* `(graph, generation, γ, family)`
//! whose k′ ≥ k — or whose answer list is shorter than its k′, which
//! proves the enumeration was exhausted and the entry holds *every*
//! community, serving any k. Shards are chosen by lane hash (k excluded)
//! so all of a lane's entries colocate and the prefix scan never crosses
//! a shard boundary.
//!
//! Eviction is exact LRU per shard, implemented with a monotone use-tick
//! per entry and a linear min-scan on overflow. Shards are small (total
//! capacity / shard count), so the scan is a handful of comparisons —
//! simpler and, at this size, faster than maintaining an intrusive list.

use std::collections::hash_map::DefaultHasher;
use std::collections::HashMap;
use std::hash::{Hash, Hasher};
use std::sync::{Arc, Mutex};

use ic_core::{AnswerFamily, Community};

use crate::sync::lock_or_poison;

/// Cache key: the query triple that determines the answer, the *answer
/// family* the executed algorithm belongs to, plus the registration
/// generation of the graph instance it was computed against.
///
/// The family matters because the interchangeable core algorithms all
/// return the same communities for a `(γ, k)` pair, but a forced `truss`
/// query answers a different community family entirely
/// ([`AnswerFamily::Truss`]) — without the discriminator a truss answer
/// could be served to a core query or vice versa. The generation makes
/// replacement races benign: a result computed against a superseded
/// instance is inserted under the old generation and is unreachable from
/// queries planned against the new one (see
/// [`crate::registry::RegisteredGraph::generation`]).
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct CacheKey {
    pub graph: String,
    pub generation: u64,
    pub gamma: u32,
    pub k: usize,
    pub family: AnswerFamily,
}

impl CacheKey {
    /// Whether `other` belongs to the same lane — everything but k.
    /// Entries of one lane hold prefixes of one enumeration order.
    fn same_lane(&self, other: &CacheKey) -> bool {
        self.generation == other.generation
            && self.gamma == other.gamma
            && self.family == other.family
            && self.graph == other.graph
    }

    fn lane_hash(&self) -> u64 {
        let mut h = DefaultHasher::new();
        self.graph.hash(&mut h);
        self.generation.hash(&mut h);
        self.gamma.hash(&mut h);
        self.family.hash(&mut h);
        h.finish()
    }
}

/// A served answer: the communities plus whether the stored entry's key
/// matched exactly (`false` = sliced from a larger-k entry of the lane).
#[derive(Debug, Clone)]
pub struct CacheHit {
    pub communities: Arc<Vec<Community>>,
    pub exact: bool,
}

/// The first `k` communities of a cached answer. Shares the `Arc` when
/// the whole list is the answer (the hot exact-repeat path stays
/// copy-free); only a genuinely shorter prefix clones communities.
pub fn slice_prefix(value: &Arc<Vec<Community>>, k: usize) -> Arc<Vec<Community>> {
    if k >= value.len() {
        Arc::clone(value)
    } else {
        Arc::new(value.iter().take(k).cloned().collect())
    }
}

#[derive(Debug)]
struct Entry {
    value: Arc<Vec<Community>>,
    last_used: u64,
}

impl Entry {
    /// Whether an entry stored under `stored` can answer a same-lane
    /// request for `k` communities: it asked for at least as many
    /// (k′ ≥ k), or its answer ran out before k′ — the enumeration is
    /// exhausted and the entry holds every community there is.
    fn covers(&self, stored_k: usize, k: usize) -> bool {
        stored_k >= k || self.value.len() < stored_k
    }
}

#[derive(Debug, Default)]
struct Shard {
    map: HashMap<CacheKey, Entry>,
    tick: u64,
}

/// The sharded cache. Cheap to share (`&self` everywhere); values are
/// `Arc`s, so an exact hit never copies the community lists.
#[derive(Debug)]
pub struct ResultCache {
    shards: Box<[Mutex<Shard>]>,
    per_shard_capacity: usize,
}

impl ResultCache {
    /// A cache holding at most `capacity` entries spread over `shards`
    /// shards (both floored at 1; per-shard capacity is rounded up so the
    /// total is never below `capacity`).
    pub fn new(capacity: usize, shards: usize) -> Self {
        let shards = shards.max(1);
        let capacity = capacity.max(1);
        ResultCache {
            shards: (0..shards).map(|_| Mutex::new(Shard::default())).collect(),
            per_shard_capacity: capacity.div_ceil(shards),
        }
    }

    #[expect(
        clippy::indexing_slicing,
        reason = "the remainder is below shards.len(), which new() floors at 1"
    )]
    fn shard(&self, key: &CacheKey) -> &Mutex<Shard> {
        &self.shards[(key.lane_hash() as usize) % self.shards.len()]
    }

    /// Looks up a key exactly, refreshing its recency on a hit.
    pub fn get(&self, key: &CacheKey) -> Option<Arc<Vec<Community>>> {
        let mut shard = lock_or_poison(self.shard(key));
        shard.tick += 1;
        let tick = shard.tick;
        shard.map.get_mut(key).map(|e| {
            e.last_used = tick;
            e.value.clone()
        })
    }

    /// Looks up a key for *serving*: an exact hit if one exists, else —
    /// for the core family only — a prefix slice of any same-lane entry
    /// that covers `key.k` (see the module docs). The donor entry's
    /// recency is refreshed either way, so a lane kept warm by small-k
    /// traffic retains its large-k donor.
    pub fn get_serving(&self, key: &CacheKey) -> Option<CacheHit> {
        let mut shard = lock_or_poison(self.shard(key));
        shard.tick += 1;
        let tick = shard.tick;
        if let Some(e) = shard.map.get_mut(key) {
            e.last_used = tick;
            return Some(CacheHit {
                communities: e.value.clone(),
                exact: true,
            });
        }
        if key.family != AnswerFamily::Core {
            // truss answers are not known to share a prefix order
            return None;
        }
        let donor = shard
            .map
            .iter_mut()
            .filter(|(stored, e)| stored.same_lane(key) && e.covers(stored.k, key.k))
            // prefer the tightest covering entry: least communities cloned
            .min_by_key(|(_, e)| e.value.len())?;
        donor.1.last_used = tick;
        Some(CacheHit {
            communities: slice_prefix(&donor.1.value, key.k),
            exact: false,
        })
    }

    /// Inserts (or refreshes) an entry, evicting the least-recently-used
    /// entry of the shard if it is full.
    pub fn insert(&self, key: CacheKey, value: Arc<Vec<Community>>) {
        let mut shard = lock_or_poison(self.shard(&key));
        shard.tick += 1;
        let tick = shard.tick;
        if shard.map.len() >= self.per_shard_capacity && !shard.map.contains_key(&key) {
            if let Some(oldest) = shard
                .map
                .iter()
                .min_by_key(|(_, e)| e.last_used)
                .map(|(k, _)| k.clone())
            {
                shard.map.remove(&oldest);
            }
        }
        shard.map.insert(
            key,
            Entry {
                value,
                last_used: tick,
            },
        );
    }

    /// Drops every entry for `graph` — called when a graph is re-registered
    /// under an existing name, so stale answers can never be served.
    pub fn invalidate_graph(&self, graph: &str) {
        for shard in self.shards.iter() {
            let mut shard = lock_or_poison(shard);
            shard.map.retain(|k, _| k.graph != graph);
        }
    }

    /// Removes every entry.
    pub fn clear(&self) {
        for shard in self.shards.iter() {
            lock_or_poison(shard).map.clear();
        }
    }

    /// Total number of cached entries (sums shard sizes; approximate under
    /// concurrent mutation).
    pub fn len(&self) -> usize {
        self.shards
            .iter()
            .map(|s| lock_or_poison(s).map.len())
            .sum()
    }

    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn key(graph: &str, gamma: u32, k: usize) -> CacheKey {
        CacheKey {
            graph: graph.into(),
            generation: 0,
            gamma,
            k,
            family: AnswerFamily::Core,
        }
    }

    /// `n` distinguishable communities (influence encodes the position).
    fn value(n: usize) -> Arc<Vec<Community>> {
        Arc::new(
            (0..n)
                .map(|i| Community {
                    keynode: i as u32,
                    influence: (1000 - i) as f64,
                    members: vec![i as u32],
                })
                .collect(),
        )
    }

    #[test]
    fn hit_returns_same_arc() {
        let c = ResultCache::new(8, 2);
        let v = value(3);
        c.insert(key("g", 3, 5), v.clone());
        let got = c.get(&key("g", 3, 5)).unwrap();
        assert!(Arc::ptr_eq(&v, &got));
        assert!(c.get(&key("g", 3, 6)).is_none());
    }

    #[test]
    fn serving_slices_larger_k_entries_in_the_lane() {
        let c = ResultCache::new(8, 4);
        let v = value(8); // a full k=8 answer (8 of ≥8 communities exist)
        c.insert(key("g", 3, 8), v.clone());
        // exact repeat: shared Arc, flagged exact
        let exact = c.get_serving(&key("g", 3, 8)).unwrap();
        assert!(exact.exact);
        assert!(Arc::ptr_eq(&exact.communities, &v));
        // smaller k: sliced prefix, flagged inexact
        let sliced = c.get_serving(&key("g", 3, 5)).unwrap();
        assert!(!sliced.exact);
        assert_eq!(sliced.communities.len(), 5);
        assert_eq!(&sliced.communities[..], &v[..5]);
        // larger k cannot be served by a (possibly truncated) k=8 answer
        assert!(c.get_serving(&key("g", 3, 9)).is_none());
        // other lanes (different γ) never cross-serve
        assert!(c.get_serving(&key("g", 4, 5)).is_none());
    }

    #[test]
    fn exhausted_entries_serve_any_k() {
        let c = ResultCache::new(8, 4);
        // a k=8 query that found only 3 communities: enumeration exhausted
        let v = value(3);
        c.insert(key("g", 3, 8), v.clone());
        for k in [1usize, 3, 9, 1000] {
            let hit = c.get_serving(&key("g", 3, k)).unwrap();
            assert_eq!(hit.communities.len(), k.min(3), "k={k}");
            if k >= 3 {
                assert!(Arc::ptr_eq(&hit.communities, &v), "k={k}: whole answer");
            }
        }
    }

    #[test]
    fn tightest_donor_is_preferred() {
        let c = ResultCache::new(8, 1);
        c.insert(key("g", 3, 100), value(100));
        c.insert(key("g", 3, 6), value(6));
        // either donor answers correctly (they hold the same prefix);
        // min-by-len picks the k=6 one so fewer communities are cloned
        let hit = c.get_serving(&key("g", 3, 4)).unwrap();
        assert!(!hit.exact);
        assert_eq!(hit.communities.len(), 4);
        assert_eq!(&hit.communities[..], &value(6)[..4]);
    }

    #[test]
    fn prefix_serving_refreshes_donor_recency() {
        let c = ResultCache::new(2, 1);
        c.insert(key("g", 3, 8), value(8)); // the donor
        c.insert(key("g", 4, 1), value(1));
        // small-k traffic keeps the donor warm...
        assert!(c.get_serving(&key("g", 3, 2)).is_some());
        // ...so the next insert evicts the γ=4 entry instead
        c.insert(key("g", 5, 1), value(1));
        assert!(c.get(&key("g", 3, 8)).is_some(), "donor survived");
        assert!(c.get(&key("g", 4, 1)).is_none(), "cold entry evicted");
    }

    #[test]
    fn truss_lane_never_prefix_serves() {
        let c = ResultCache::new(8, 2);
        let truss8 = CacheKey {
            family: AnswerFamily::Truss,
            ..key("g", 4, 8)
        };
        c.insert(truss8.clone(), value(8));
        let exact = c
            .get_serving(&CacheKey {
                family: AnswerFamily::Truss,
                ..key("g", 4, 8)
            })
            .unwrap();
        assert!(exact.exact);
        assert!(c
            .get_serving(&CacheKey {
                family: AnswerFamily::Truss,
                ..key("g", 4, 5)
            })
            .is_none());
    }

    #[test]
    fn generations_partition_lanes() {
        let c = ResultCache::new(8, 4);
        c.insert(key("g", 3, 8), value(8));
        let mut newer = key("g", 3, 4);
        newer.generation = 1;
        assert!(
            c.get_serving(&newer).is_none(),
            "a superseded generation's entries must not prefix-serve"
        );
    }

    #[test]
    fn slice_prefix_shares_or_clones() {
        let v = value(4);
        assert!(Arc::ptr_eq(&slice_prefix(&v, 4), &v));
        assert!(Arc::ptr_eq(&slice_prefix(&v, 9), &v));
        let sliced = slice_prefix(&v, 2);
        assert_eq!(sliced.len(), 2);
        assert_eq!(&sliced[..], &v[..2]);
    }

    #[test]
    fn lru_evicts_oldest_within_shard() {
        // single shard so recency is globally ordered
        let c = ResultCache::new(2, 1);
        c.insert(key("g", 1, 1), value(1));
        c.insert(key("g", 1, 2), value(1));
        // touch the first so the second becomes LRU
        assert!(c.get(&key("g", 1, 1)).is_some());
        c.insert(key("g", 1, 3), value(1));
        assert!(c.get(&key("g", 1, 1)).is_some());
        assert!(c.get(&key("g", 1, 2)).is_none());
        assert!(c.get(&key("g", 1, 3)).is_some());
        assert_eq!(c.len(), 2);
    }

    #[test]
    fn reinserting_existing_key_does_not_evict() {
        let c = ResultCache::new(2, 1);
        c.insert(key("g", 1, 1), value(1));
        c.insert(key("g", 1, 2), value(1));
        c.insert(key("g", 1, 2), value(2));
        assert_eq!(c.len(), 2);
        assert_eq!(c.get(&key("g", 1, 2)).unwrap().len(), 2);
    }

    #[test]
    fn families_never_collide() {
        let c = ResultCache::new(8, 2);
        let core = key("g", 4, 1);
        let truss = CacheKey {
            family: AnswerFamily::Truss,
            ..core.clone()
        };
        c.insert(core.clone(), value(1));
        assert!(
            c.get(&truss).is_none(),
            "truss query must miss a core entry"
        );
        assert!(c.get_serving(&truss).is_none());
        c.insert(truss.clone(), value(2));
        assert_eq!(c.get(&core).unwrap().len(), 1);
        assert_eq!(c.get(&truss).unwrap().len(), 2);
    }

    #[test]
    fn invalidation_is_per_graph() {
        let c = ResultCache::new(16, 4);
        c.insert(key("a", 1, 1), value(1));
        c.insert(key("a", 2, 1), value(1));
        c.insert(key("b", 1, 1), value(1));
        c.invalidate_graph("a");
        assert!(c.get(&key("a", 1, 1)).is_none());
        assert!(c.get(&key("a", 2, 1)).is_none());
        assert!(c.get(&key("b", 1, 1)).is_some());
    }

    #[test]
    fn concurrent_access_is_safe() {
        let c = Arc::new(ResultCache::new(64, 8));
        let mut handles = Vec::new();
        for t in 0..8u32 {
            let c = c.clone();
            handles.push(std::thread::spawn(move || {
                for i in 0..200usize {
                    let k = key("g", t, i % 32);
                    c.insert(k.clone(), value(1));
                    let _ = c.get(&k);
                    let _ = c.get_serving(&key("g", t, (i % 32).max(1) - 1));
                }
            }));
        }
        for h in handles {
            h.join().unwrap();
        }
        assert!(c.len() <= 64 + 8); // per-shard rounding slack
    }
}
