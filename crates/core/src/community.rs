//! Community representations: the materialized [`Community`] handed to
//! users and the compact [`CommunityForest`] built by EnumIC.
//!
//! EnumIC (Algorithm 3) deliberately *links* communities instead of
//! copying their members: the total size of the top-k communities can
//! exceed the size of the subgraph they live in, because communities nest
//! (Lemma 3.6: `IC(u) = gp(u) ∪ ⋃ IC(child)`). The forest stores each
//! keynode's group once plus child links, so it occupies `O(size(g))`;
//! [`CommunityForest::members`] materializes a single community on demand,
//! and [`CommunityForest::communities`] materializes all of them, each
//! from its children's already-built member lists.

use ic_graph::{Rank, WeightedGraph};

/// A single influential γ-community, fully materialized.
#[derive(Debug, Clone, PartialEq)]
pub struct Community {
    /// The keynode: the community's minimum-weight vertex (rank space).
    pub keynode: Rank,
    /// The community's influence value `f(g)` = weight of the keynode.
    pub influence: f64,
    /// All member vertices, as sorted ranks (ascending = decreasing
    /// weight ties broken deterministically).
    pub members: Vec<Rank>,
}

impl Community {
    /// Number of members.
    pub fn len(&self) -> usize {
        self.members.len()
    }

    pub fn is_empty(&self) -> bool {
        self.members.is_empty()
    }

    /// Members translated to the caller's external vertex ids.
    pub fn external_members(&self, g: &WeightedGraph) -> Vec<u64> {
        self.members.iter().map(|&r| g.external_id(r)).collect()
    }

    /// Members translated to external ids through any storage backend
    /// (file-backed stores keep the id table resident, so this never
    /// performs I/O).
    pub fn external_members_in(&self, store: &ic_graph::GraphStore) -> Vec<u64> {
        self.members.iter().map(|&r| store.external_id(r)).collect()
    }

    /// External id of the keynode.
    pub fn external_keynode(&self, g: &WeightedGraph) -> u64 {
        g.external_id(self.keynode)
    }
}

/// Compact, nested representation of a set of communities produced by
/// EnumIC / EnumIC-P. Entry `0` is the highest-influence community
/// reported; children are always communities reported earlier (higher
/// influence), so they always have *smaller* indices than their parents
/// and any prefix of the entries is self-contained.
#[derive(Debug, Default, Clone)]
pub struct CommunityForest {
    /// Keynode of each entry.
    keys: Vec<Rank>,
    /// Influence value of each entry.
    influences: Vec<f64>,
    /// Flattened groups (`gp(u)`).
    groups: Vec<Rank>,
    group_bounds: Vec<usize>,
    /// Flattened child entry indices.
    children: Vec<u32>,
    child_bounds: Vec<usize>,
}

impl CommunityForest {
    pub fn new() -> Self {
        CommunityForest {
            group_bounds: vec![0],
            child_bounds: vec![0],
            ..Default::default()
        }
    }

    /// Number of communities in the forest.
    pub fn len(&self) -> usize {
        self.keys.len()
    }

    pub fn is_empty(&self) -> bool {
        self.keys.is_empty()
    }

    /// Appends an entry; returns its index. Children must already exist,
    /// which is what lets [`Self::communities`] build every entry from
    /// lists it has already built.
    pub(crate) fn push(
        &mut self,
        keynode: Rank,
        influence: f64,
        group: &[Rank],
        children: &[u32],
    ) -> u32 {
        debug_assert!(children.iter().all(|&c| (c as usize) < self.len()));
        self.keys.push(keynode);
        self.influences.push(influence);
        self.groups.extend_from_slice(group);
        self.group_bounds.push(self.groups.len());
        self.children.extend_from_slice(children);
        self.child_bounds.push(self.children.len());
        self.keys.len() as u32 - 1
    }

    /// Keynode of entry `i`.
    pub fn keynode(&self, i: usize) -> Rank {
        self.keys[i]
    }

    /// Influence value of entry `i`.
    pub fn influence(&self, i: usize) -> f64 {
        self.influences[i]
    }

    /// The group `gp(u)` of entry `i` (members not inherited from
    /// children); its first element is the keynode.
    pub fn group(&self, i: usize) -> &[Rank] {
        &self.groups[self.group_bounds[i]..self.group_bounds[i + 1]]
    }

    /// Child entries of `i` (communities nested inside it).
    pub fn children(&self, i: usize) -> &[u32] {
        &self.children[self.child_bounds[i]..self.child_bounds[i + 1]]
    }

    /// Materializes the member set of entry `i` (sorted ranks) by walking
    /// the child links — Lemma 3.6. The walk is linear in the output, and
    /// sorting it costs `O(|C| log |C|)` on top; to materialize many
    /// entries, [`Self::communities`] is cheaper.
    pub fn members(&self, i: usize) -> Vec<Rank> {
        let mut out = Vec::new();
        let mut stack = vec![i as u32];
        while let Some(j) = stack.pop() {
            out.extend_from_slice(self.group(j as usize));
            stack.extend_from_slice(self.children(j as usize));
        }
        out.sort_unstable();
        debug_assert!(
            out.windows(2).all(|w| w[0] < w[1]),
            "groups must be disjoint"
        );
        out
    }

    /// Materializes entry `i` as a [`Community`].
    pub fn community(&self, i: usize) -> Community {
        Community {
            keynode: self.keynode(i),
            influence: self.influence(i),
            members: self.members(i),
        }
    }

    /// Materializes every entry, in forest order. Entries are built in
    /// index order, each from its group and the member lists its
    /// children already have: the largest child's list is copied in
    /// sorted runs, and the rest of the entry (its group and any other
    /// children) is sorted and spliced in between them by binary search.
    /// With `Lᵢ` the largest child of entry `i` and `sᵢ = |Cᵢ| − |Lᵢ|`,
    /// entry `i` costs `O(sᵢ log |Cᵢ|)` comparisons plus the sequential
    /// copy of its `|Cᵢ|` members. On a nested chain, where each entry
    /// adds a small group to one child, that is linear in the output; a
    /// subtree walk and sort per entry ([`Self::members`]) would cost
    /// `O(|Cᵢ| log |Cᵢ|)` with scattered reads.
    pub fn communities(&self) -> Vec<Community> {
        self.communities_prefix(self.len())
    }

    /// Materializes the first `len` entries (all of them if `len` exceeds
    /// the forest), in forest order. A prefix needs nothing outside
    /// itself, because children precede their parents.
    pub(crate) fn communities_prefix(&self, len: usize) -> Vec<Community> {
        let len = len.min(self.len());
        let mut out: Vec<Community> = Vec::with_capacity(len);
        let mut rest: Vec<Rank> = Vec::new();
        for i in 0..len {
            let children = self.children(i);
            let largest = children
                .iter()
                .copied()
                .max_by_key(|&c| out[c as usize].members.len());
            rest.clear();
            rest.extend_from_slice(self.group(i));
            for &c in children {
                if Some(c) != largest {
                    rest.extend_from_slice(&out[c as usize].members);
                }
            }
            rest.sort_unstable();
            let runs = largest.map_or(&[][..], |c| &out[c as usize].members[..]);
            let members = splice_sorted(&rest, runs);
            debug_assert!(
                members.windows(2).all(|w| w[0] < w[1]),
                "groups must be disjoint"
            );
            out.push(Community {
                keynode: self.keynode(i),
                influence: self.influence(i),
                members,
            });
        }
        out
    }

    /// Total stored size (group entries + links). For forests built by
    /// EnumIC / EnumIC-P this is `O(size(g))` by construction,
    /// independent of the total materialized output size; a flat forest
    /// from [`CommunityForest::from_communities`] instead stores every
    /// member of every entry (no sharing).
    pub fn stored_size(&self) -> usize {
        self.groups.len() + self.children.len()
    }

    /// A *flat* forest over already-materialized communities (no nesting
    /// links; each entry's group is its full member set, keynode first).
    /// This is how algorithms that materialize their answers directly —
    /// the global baselines, non-containment and truss search — fit the
    /// uniform [`crate::local_search::SearchResult`] shape. Storage is
    /// the sum of the community sizes (one copy of the input), not the
    /// `O(size(g))` shared representation EnumIC builds — acceptable for
    /// answers that were materialized anyway.
    pub fn from_communities(communities: &[Community]) -> Self {
        let mut forest = CommunityForest::new();
        let mut group: Vec<Rank> = Vec::new();
        for c in communities {
            group.clear();
            group.push(c.keynode);
            group.extend(c.members.iter().copied().filter(|&m| m != c.keynode));
            forest.push(c.keynode, c.influence, &group, &[]);
        }
        forest
    }
}

/// Merges two sorted rank lists: each element of `few` is placed by a
/// binary search in what is left of `runs`, and the runs between those
/// places are copied whole.
fn splice_sorted(few: &[Rank], runs: &[Rank]) -> Vec<Rank> {
    let mut out = Vec::with_capacity(few.len() + runs.len());
    let mut left = runs;
    for &x in few {
        let (before, after) = left.split_at(left.partition_point(|&y| y < x));
        out.extend_from_slice(before);
        out.push(x);
        left = after;
    }
    out.extend_from_slice(left);
    out
}

/// Definition-level checks used by tests, examples, and debug assertions:
/// verifies the three constraints of Definition 2.2 for a vertex set.
pub mod verify {
    use super::*;
    use std::collections::HashSet;

    /// True iff `members` induces a connected subgraph of `g`.
    pub fn is_connected(g: &WeightedGraph, members: &[Rank]) -> bool {
        if members.is_empty() {
            return false;
        }
        let set: HashSet<Rank> = members.iter().copied().collect();
        let mut seen: HashSet<Rank> = HashSet::with_capacity(members.len());
        let mut stack = vec![members[0]];
        seen.insert(members[0]);
        while let Some(v) = stack.pop() {
            for &w in g.neighbors(v) {
                if set.contains(&w) && seen.insert(w) {
                    stack.push(w);
                }
            }
        }
        seen.len() == members.len()
    }

    /// Minimum degree of the subgraph induced by `members`.
    pub fn min_degree(g: &WeightedGraph, members: &[Rank]) -> u32 {
        let set: HashSet<Rank> = members.iter().copied().collect();
        members
            .iter()
            .map(|&v| g.neighbors(v).iter().filter(|w| set.contains(w)).count() as u32)
            .min()
            .unwrap_or(0)
    }

    /// Checks all three constraints of Definition 2.2: connected, cohesive
    /// (min degree ≥ γ), and maximal. Maximality is verified directly: the
    /// community must equal the connected component of its keynode in the
    /// γ-core of `G≥f(g)`.
    pub fn is_influential_community(g: &WeightedGraph, members: &[Rank], gamma: u32) -> bool {
        if members.is_empty() || !is_connected(g, members) || min_degree(g, members) < gamma {
            return false;
        }
        let keynode = *members.iter().max().expect("non-empty");
        // G≥ω(keynode) is the rank prefix
        let t = keynode as usize + 1;
        // γ-core of the prefix by repeated stripping (reference-quality,
        // not performance-critical)
        let mut alive: Vec<bool> = vec![true; t];
        let mut deg: Vec<u32> = (0..t as u32).map(|r| g.degree_in_prefix(r, t)).collect();
        let mut changed = true;
        while changed {
            changed = false;
            for r in 0..t {
                if alive[r] && deg[r] < gamma {
                    alive[r] = false;
                    changed = true;
                    for &w in g.neighbors_in_prefix(r as Rank, t) {
                        deg[w as usize] = deg[w as usize].saturating_sub(1);
                    }
                }
            }
        }
        if !alive[keynode as usize] {
            return false;
        }
        // component of the keynode
        let mut comp: HashSet<Rank> = HashSet::new();
        let mut stack = vec![keynode];
        comp.insert(keynode);
        while let Some(v) = stack.pop() {
            for &w in g.neighbors_in_prefix(v, t) {
                if alive[w as usize] && comp.insert(w) {
                    stack.push(w);
                }
            }
        }
        let member_set: HashSet<Rank> = members.iter().copied().collect();
        comp == member_set
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ic_graph::paper::figure1;

    #[test]
    fn forest_push_and_materialize() {
        let mut f = CommunityForest::new();
        let a = f.push(10, 5.0, &[10, 3, 4], &[]);
        let b = f.push(12, 4.0, &[12], &[a]);
        assert_eq!(f.len(), 2);
        assert_eq!(f.members(a as usize), vec![3, 4, 10]);
        assert_eq!(f.members(b as usize), vec![3, 4, 10, 12]);
        assert_eq!(f.group(b as usize), &[12]);
        assert_eq!(f.children(b as usize), &[a]);
        assert_eq!(f.stored_size(), 5);
    }

    #[test]
    fn nested_chains_share_storage() {
        // a chain of 100 nested communities, each adding its keynode
        // 100 + i above the inner ones and the vertex 99 - i below them:
        // the forest stays linear even though materialized output is
        // quadratic, and every materialization interleaves a group with
        // its child's members
        let mut f = CommunityForest::new();
        let mut prev: Option<u32> = None;
        for i in 0..100u32 {
            let children: Vec<u32> = prev.into_iter().collect();
            let group = [100 + i, 99 - i];
            prev = Some(f.push(group[0], (100 - i) as f64, &group, &children));
        }
        assert_eq!(f.stored_size(), 200 + 99);
        assert_eq!(f.members(99).len(), 200);
        assert_eq!(f.members(0).len(), 2);
        for (i, c) in f.communities().iter().enumerate() {
            let i = i as Rank;
            assert_eq!(c.members, (99 - i..=100 + i).collect::<Vec<_>>());
        }
        assert_batch_matches_per_entry(&f);
    }

    /// Batch materialization must equal per-entry materialization, and
    /// every prefix must equal the first entries of the full list.
    fn assert_batch_matches_per_entry(f: &CommunityForest) {
        let all = f.communities();
        let per_entry: Vec<Community> = (0..f.len()).map(|i| f.community(i)).collect();
        assert_eq!(all, per_entry);
        for len in 0..=f.len() + 1 {
            assert_eq!(f.communities_prefix(len), all[..len.min(f.len())]);
        }
    }

    #[test]
    fn parent_with_several_children_merges_their_members() {
        // three leaves whose ranks interleave, a parent over all three
        // with an unsorted group, and a root over the parent and a fourth
        // leaf
        let mut f = CommunityForest::new();
        let a = f.push(9, 9.0, &[9, 1, 5], &[]);
        let b = f.push(10, 8.0, &[10, 2, 6], &[]);
        let c = f.push(11, 7.0, &[11, 0, 7, 3], &[]);
        let p = f.push(14, 6.0, &[14, 12, 4], &[a, b, c]);
        let d = f.push(15, 5.0, &[15, 8], &[]);
        let root = f.push(16, 4.0, &[16, 13], &[p, d]);
        assert_eq!(
            f.members(p as usize),
            vec![0, 1, 2, 3, 4, 5, 6, 7, 9, 10, 11, 12, 14]
        );
        assert_eq!(
            f.communities()[root as usize].members,
            (0..=16).collect::<Vec<Rank>>()
        );
        assert_batch_matches_per_entry(&f);
    }

    #[test]
    fn community_external_translation() {
        let g = figure1();
        let r9 = g.rank_of_external(9).unwrap();
        let r8 = g.rank_of_external(8).unwrap();
        let c = Community {
            keynode: r9.max(r8),
            influence: 18.0,
            members: vec![r9.min(r8), r9.max(r8)],
        };
        let ids = c.external_members(&g);
        assert!(ids.contains(&8) && ids.contains(&9));
    }

    #[test]
    fn verify_accepts_paper_communities() {
        let g = figure1();
        let to_ranks = |ids: &[u64]| -> Vec<Rank> {
            let mut v: Vec<Rank> = ids
                .iter()
                .map(|&i| g.rank_of_external(i).unwrap())
                .collect();
            v.sort_unstable();
            v
        };
        let c1 = to_ranks(&[0, 1, 5, 6]);
        let c2 = to_ranks(&[3, 4, 7, 8, 9]);
        assert!(verify::is_influential_community(&g, &c1, 3));
        assert!(verify::is_influential_community(&g, &c2, 3));
        // {v3, v4, v7, v8} is connected and cohesive but NOT maximal
        let not_max = to_ranks(&[3, 4, 7, 8]);
        assert!(verify::is_connected(&g, &not_max));
        assert!(verify::min_degree(&g, &not_max) >= 3);
        assert!(!verify::is_influential_community(&g, &not_max, 3));
    }

    #[test]
    fn verify_rejects_disconnected_and_sparse() {
        let g = figure1();
        let to_ranks = |ids: &[u64]| -> Vec<Rank> {
            ids.iter()
                .map(|&i| g.rank_of_external(i).unwrap())
                .collect()
        };
        // two vertices from different blocks: disconnected
        assert!(!verify::is_connected(&g, &to_ranks(&[0, 9])));
        // a path has min degree 1 < 3
        assert!(verify::min_degree(&g, &to_ranks(&[1, 2, 3])) < 3);
        assert!(!verify::is_influential_community(&g, &[], 1));
    }
}
