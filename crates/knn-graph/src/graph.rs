//! The KNN graph data structure.
//!
//! Each sample keeps an ordered, bounded list of [`Neighbor`] entries.  The
//! memory layout intentionally mirrors the `G_{n×κ}` matrix of the paper: a
//! fixed capacity `κ` per sample, ascending by distance, so `G[i][j]` is the
//! `j`-th closest known neighbour of sample `i` (Alg. 2 line 8).

/// One (neighbour id, squared distance) entry of a KNN list.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Neighbor {
    /// Row index of the neighbouring sample.
    pub id: u32,
    /// Squared Euclidean distance to that neighbour.
    pub dist: f32,
}

impl Neighbor {
    /// Creates a neighbour entry.
    pub fn new(id: u32, dist: f32) -> Self {
        Self { id, dist }
    }
}

/// A bounded list of at most `capacity` neighbours kept sorted by ascending
/// distance (ties broken by id for determinism).
#[derive(Clone, Debug, Default)]
pub struct NeighborList {
    entries: Vec<Neighbor>,
    capacity: usize,
}

impl NeighborList {
    /// Creates an empty list with the given capacity.
    pub fn with_capacity(capacity: usize) -> Self {
        Self {
            entries: Vec::with_capacity(capacity),
            capacity,
        }
    }

    /// Maximum number of neighbours the list retains.
    #[inline]
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// Current number of stored neighbours.
    #[inline]
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// `true` when no neighbours are stored yet.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// `true` when the list already holds `capacity` entries.
    #[inline]
    pub fn is_full(&self) -> bool {
        self.entries.len() >= self.capacity
    }

    /// Distance of the current worst (furthest) retained neighbour, or
    /// `f32::INFINITY` when the list is not yet full.  A candidate can only
    /// improve the list when its distance is below this bound.
    #[inline]
    pub fn upper_bound(&self) -> f32 {
        if self.is_full() {
            self.entries.last().map_or(f32::INFINITY, |n| n.dist)
        } else {
            f32::INFINITY
        }
    }

    /// The stored neighbours in ascending-distance order.
    #[inline]
    pub fn as_slice(&self) -> &[Neighbor] {
        &self.entries
    }

    /// Ids of the stored neighbours in ascending-distance order.
    pub fn ids(&self) -> impl Iterator<Item = u32> + '_ {
        self.entries.iter().map(|n| n.id)
    }

    /// Attempts to insert a candidate neighbour.  Returns `true` when the list
    /// changed (the candidate was closer than the current worst entry, or the
    /// list was not yet full) and `false` otherwise.  Duplicate ids are
    /// rejected.
    pub fn insert(&mut self, candidate: Neighbor) -> bool {
        if self.capacity == 0 {
            return false;
        }
        if candidate.dist >= self.upper_bound() {
            return false;
        }
        if self.entries.iter().any(|n| n.id == candidate.id) {
            return false;
        }
        // Find the insertion point (ascending dist, then id).
        let pos = self
            .entries
            .partition_point(|n| (n.dist, n.id) < (candidate.dist, candidate.id));
        self.entries.insert(pos, candidate);
        if self.entries.len() > self.capacity {
            self.entries.pop();
        }
        true
    }

    /// Removes every stored neighbour (keeps the capacity).
    pub fn clear(&mut self) {
        self.entries.clear();
    }
}

/// The `G_{n×κ}` approximate KNN graph of the paper.
#[derive(Clone, Debug)]
pub struct KnnGraph {
    lists: Vec<NeighborList>,
    k: usize,
}

impl KnnGraph {
    /// Creates an empty graph for `n` samples with `k` neighbours per sample.
    pub fn empty(n: usize, k: usize) -> Self {
        Self {
            lists: (0..n).map(|_| NeighborList::with_capacity(k)).collect(),
            k,
        }
    }

    /// Builds a graph from pre-constructed neighbour lists (used by the
    /// reader, which must not allocate `n × k` up front for data it has not
    /// validated yet).
    pub(crate) fn from_lists(lists: Vec<NeighborList>, k: usize) -> Self {
        Self { lists, k }
    }

    /// Number of samples (rows) in the graph.
    #[inline]
    pub fn len(&self) -> usize {
        self.lists.len()
    }

    /// `true` when the graph covers no samples.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.lists.is_empty()
    }

    /// Neighbour-list capacity κ.
    #[inline]
    pub fn k(&self) -> usize {
        self.k
    }

    /// Borrow the neighbour list of sample `i`.
    ///
    /// # Panics
    ///
    /// Panics when `i` is out of range.
    #[inline]
    pub fn neighbors(&self, i: usize) -> &NeighborList {
        &self.lists[i]
    }

    /// Mutable access to the neighbour list of sample `i`.
    #[inline]
    pub fn neighbors_mut(&mut self, i: usize) -> &mut NeighborList {
        &mut self.lists[i]
    }

    /// Convenience: attempts `G[i].insert((j, dist))`.  Self-loops are
    /// rejected.  Returns `true` when the list changed.
    pub fn update(&mut self, i: usize, j: usize, dist: f32) -> bool {
        if i == j {
            return false;
        }
        self.lists[i].insert(Neighbor::new(j as u32, dist))
    }

    /// Symmetric update: tries to add `j` to `i`'s list *and* `i` to `j`'s
    /// list (Alg. 3 line 11 updates both `G[i]` and `G[j]`).  Returns the
    /// number of lists that changed (0, 1 or 2).
    pub fn update_pair(&mut self, i: usize, j: usize, dist: f32) -> usize {
        usize::from(self.update(i, j, dist)) + usize::from(self.update(j, i, dist))
    }

    /// Iterator over `(sample, &NeighborList)`.
    pub fn iter(&self) -> impl Iterator<Item = (usize, &NeighborList)> {
        self.lists.iter().enumerate()
    }

    /// Replaces the neighbour list of sample `i` wholesale (used by
    /// construction algorithms that build candidate lists off to the side).
    pub fn set_list(&mut self, i: usize, list: NeighborList) {
        self.lists[i] = list;
    }

    /// Average number of stored neighbours per sample; equals `k` once every
    /// list is full.
    pub fn mean_degree(&self) -> f64 {
        if self.lists.is_empty() {
            return 0.0;
        }
        let total: usize = self.lists.iter().map(NeighborList::len).sum();
        total as f64 / self.lists.len() as f64
    }

    /// Total number of distance entries stored — the graph's memory footprint
    /// driver (the paper argues Alg. 3 needs only this extra memory).
    pub fn stored_edges(&self) -> usize {
        self.lists.iter().map(NeighborList::len).sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn insert_keeps_sorted_and_bounded() {
        let mut list = NeighborList::with_capacity(3);
        assert!(list.insert(Neighbor::new(1, 5.0)));
        assert!(list.insert(Neighbor::new(2, 1.0)));
        assert!(list.insert(Neighbor::new(3, 3.0)));
        assert!(list.is_full());
        // worse than the worst: rejected
        assert!(!list.insert(Neighbor::new(4, 9.0)));
        // better: accepted, evicts the worst
        assert!(list.insert(Neighbor::new(5, 2.0)));
        let ids: Vec<u32> = list.ids().collect();
        assert_eq!(ids, vec![2, 5, 3]);
        let dists: Vec<f32> = list.as_slice().iter().map(|n| n.dist).collect();
        assert_eq!(dists, vec![1.0, 2.0, 3.0]);
    }

    #[test]
    fn insert_rejects_duplicates() {
        let mut list = NeighborList::with_capacity(4);
        assert!(list.insert(Neighbor::new(7, 2.0)));
        assert!(!list.insert(Neighbor::new(7, 1.0)));
        assert_eq!(list.len(), 1);
    }

    #[test]
    fn zero_capacity_list_rejects_everything() {
        let mut list = NeighborList::with_capacity(0);
        assert!(!list.insert(Neighbor::new(1, 0.5)));
        assert!(list.is_empty());
    }

    #[test]
    fn upper_bound_transitions() {
        let mut list = NeighborList::with_capacity(2);
        assert_eq!(list.upper_bound(), f32::INFINITY);
        list.insert(Neighbor::new(0, 4.0));
        assert_eq!(list.upper_bound(), f32::INFINITY);
        list.insert(Neighbor::new(1, 2.0));
        assert_eq!(list.upper_bound(), 4.0);
    }

    #[test]
    fn clear_retains_capacity() {
        let mut list = NeighborList::with_capacity(2);
        list.insert(Neighbor::new(0, 1.0));
        list.clear();
        assert!(list.is_empty());
        assert_eq!(list.capacity(), 2);
    }

    #[test]
    fn tie_break_is_by_id() {
        let mut list = NeighborList::with_capacity(3);
        list.insert(Neighbor::new(9, 1.0));
        list.insert(Neighbor::new(3, 1.0));
        let ids: Vec<u32> = list.ids().collect();
        assert_eq!(ids, vec![3, 9]);
    }

    #[test]
    fn graph_update_rejects_self_loop() {
        let mut g = KnnGraph::empty(4, 2);
        assert!(!g.update(1, 1, 0.0));
        assert!(g.update(1, 2, 1.0));
        assert_eq!(g.neighbors(1).len(), 1);
    }

    #[test]
    fn graph_update_pair_is_symmetric() {
        let mut g = KnnGraph::empty(4, 2);
        assert_eq!(g.update_pair(0, 3, 2.0), 2);
        assert_eq!(g.neighbors(0).ids().collect::<Vec<_>>(), vec![3]);
        assert_eq!(g.neighbors(3).ids().collect::<Vec<_>>(), vec![0]);
        // second identical update changes nothing
        assert_eq!(g.update_pair(0, 3, 2.0), 0);
    }

    #[test]
    fn graph_metrics() {
        let mut g = KnnGraph::empty(3, 2);
        assert!(!g.is_empty());
        assert_eq!(g.len(), 3);
        assert_eq!(g.k(), 2);
        assert_eq!(g.mean_degree(), 0.0);
        g.update_pair(0, 1, 1.0);
        g.update(2, 0, 3.0);
        assert_eq!(g.stored_edges(), 3);
        assert!((g.mean_degree() - 1.0).abs() < 1e-9);
        let empty = KnnGraph::empty(0, 2);
        assert!(empty.is_empty());
        assert_eq!(empty.mean_degree(), 0.0);
    }

    #[test]
    fn set_list_replaces() {
        let mut g = KnnGraph::empty(2, 2);
        let mut list = NeighborList::with_capacity(2);
        list.insert(Neighbor::new(1, 0.25));
        g.set_list(0, list);
        assert_eq!(g.neighbors(0).ids().collect::<Vec<_>>(), vec![1]);
    }

    #[test]
    fn iter_enumerates_all_samples() {
        let g = KnnGraph::empty(5, 3);
        let indices: Vec<usize> = g.iter().map(|(i, _)| i).collect();
        assert_eq!(indices, vec![0, 1, 2, 3, 4]);
    }
}
