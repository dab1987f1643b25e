//! Exact KNN graph construction by exhaustive comparison.
//!
//! Complexity `O(n²·d)` — the paper reports "more than 20 hours" to produce
//! the SIFT1M ground truth this way (Sec. 5.1).  It is used exclusively for
//! evaluation: computing graph recall and the ANN-search ground truth.  Since
//! it is not one of the measured algorithms it runs on every core, one
//! *query row block* per work item of the workspace's worker pool
//! ([`vecstore::parallel::run_blocks`]), and each block scans the base matrix
//! through the register-blocked many-to-many tile kernel — the base rows
//! loaded for one tile are reused across the whole query block instead of
//! being re-streamed once per query.

use std::num::NonZeroUsize;

use vecstore::kernels;
use vecstore::parallel::run_blocks;
use vecstore::VectorSet;

use crate::graph::{KnnGraph, Neighbor, NeighborList};

/// Base rows per distance tile: large enough to amortise the dispatch, small
/// enough that the tile panel stays in L1 next to the neighbour lists.
const SCAN_BLOCK: usize = 256;

/// Query rows per tile / per parallel work item.
const QUERY_BLOCK: usize = 16;

/// Streams the distance tiles between the contiguous query rows
/// `queries[q0..q1)` and every row of `base`, invoking `sink` with
/// `(query_offset, base_row, distance)` — base rows in ascending order per
/// query, queries interleaved tile by tile.
#[inline]
fn scan_tiles(
    base: &VectorSet,
    queries_flat: &[f32],
    panel: &mut [f32],
    mut sink: impl FnMut(usize, usize, f32),
) {
    let n = base.len();
    let d = base.dim();
    let mb = queries_flat.len() / d.max(1);
    let flat = base.as_flat();
    let mut start = 0usize;
    while start < n {
        let end = (start + SCAN_BLOCK).min(n);
        let kb = end - start;
        let panel = &mut panel[..mb * kb];
        kernels::l2_sq_many_to_many(queries_flat, &flat[start * d..end * d], d, panel);
        for (qi, tile_row) in panel.chunks_exact(kb).enumerate() {
            for (offset, &dist) in tile_row.iter().enumerate() {
                sink(qi, start + offset, dist);
            }
        }
        start = end;
    }
}

/// Runs the blocked exhaustive scan of `queries` against `base`, returning
/// one `k`-nearest list per query row.  `exclude(query_index)` names a base
/// row to skip (self-matches); parallelism is over query blocks.
fn scan_blocked(
    base: &VectorSet,
    queries: &VectorSet,
    k: usize,
    exclude: impl Fn(usize) -> Option<usize> + Sync,
) -> Vec<NeighborList> {
    let m = queries.len();
    let d = queries.dim();
    let threads = std::thread::available_parallelism().map_or(1, NonZeroUsize::get);
    let per_block = run_blocks(threads, m.div_ceil(QUERY_BLOCK), |b| {
        let q0 = b * QUERY_BLOCK;
        let q1 = (q0 + QUERY_BLOCK).min(m);
        let mut lists: Vec<NeighborList> =
            (q0..q1).map(|_| NeighborList::with_capacity(k)).collect();
        let skip: Vec<Option<usize>> = (q0..q1).map(&exclude).collect();
        let mut panel = vec![0.0f32; (q1 - q0) * SCAN_BLOCK];
        let queries_flat = &queries.as_flat()[q0 * d..q1 * d];
        scan_tiles(base, queries_flat, &mut panel, |qi, j, dist| {
            if skip[qi] == Some(j) {
                return;
            }
            let list = &mut lists[qi];
            if dist < list.upper_bound() {
                list.insert(Neighbor::new(j as u32, dist));
            }
        });
        lists
    });
    per_block.into_iter().flatten().collect()
}

/// Builds the exact KNN graph with `k` neighbours per sample.
///
/// # Panics
///
/// Panics when `k == 0`.
pub fn exact_graph(data: &VectorSet, k: usize) -> KnnGraph {
    assert!(k > 0, "k must be positive");
    let n = data.len();
    let lists = scan_blocked(data, data, k, Some);
    let mut graph = KnnGraph::empty(n, k);
    for (i, list) in lists.into_iter().enumerate() {
        graph.set_list(i, list);
    }
    graph
}

/// Exact ground truth for *subset* queries: the `k` nearest rows of `base`
/// for every row of `queries` (used by the ANN-search evaluation and by the
/// estimated-recall protocol of Sec. 5.1 on the largest workloads).
pub fn exact_ground_truth(base: &VectorSet, queries: &VectorSet, k: usize) -> Vec<Vec<Neighbor>> {
    assert!(k > 0, "k must be positive");
    assert_eq!(base.dim(), queries.dim(), "dimensionality mismatch");
    scan_blocked(base, queries, k, |_| None)
        .into_iter()
        .map(|list| list.as_slice().to_vec())
        .collect()
}

/// Exact nearest neighbours of a subset of samples *within the same set*
/// (excluding self-matches).  Returns one neighbour vector per entry of
/// `sample_ids`.  This implements the estimation protocol of Sec. 5.1:
/// "the recall is estimated by only considering nearest neighbors of 100
/// randomly selected samples".
///
/// # Panics
///
/// Panics when `k == 0` or a sample id is out of range.
pub fn exact_neighbors_of_subset(
    data: &VectorSet,
    sample_ids: &[usize],
    k: usize,
) -> Vec<Vec<Neighbor>> {
    assert!(k > 0, "k must be positive");
    // Gather the subset rows into a contiguous query block so the scan can
    // tile them; self-exclusion goes by the *original* row id.
    let queries = data.gather(sample_ids).expect("sample id out of range");
    scan_blocked(data, &queries, k, |qi| Some(sample_ids[qi]))
        .into_iter()
        .map(|list| list.as_slice().to_vec())
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Tiny hand-checkable dataset on a line: 0, 1, 3, 7, 15.
    fn line_data() -> VectorSet {
        VectorSet::from_rows(vec![vec![0.0], vec![1.0], vec![3.0], vec![7.0], vec![15.0]]).unwrap()
    }

    #[test]
    fn exact_graph_finds_true_neighbours() {
        let data = line_data();
        let g = exact_graph(&data, 2);
        assert_eq!(g.len(), 5);
        // neighbours of 0.0 are 1.0 (d=1) and 3.0 (d=9)
        assert_eq!(g.neighbors(0).ids().collect::<Vec<_>>(), vec![1, 2]);
        // neighbours of 3.0 are 1.0 (d=4) and 0.0 (d=9)
        assert_eq!(g.neighbors(2).ids().collect::<Vec<_>>(), vec![1, 0]);
        // neighbours of 15.0 are 7.0 and 3.0
        assert_eq!(g.neighbors(4).ids().collect::<Vec<_>>(), vec![3, 2]);
    }

    #[test]
    fn exact_graph_excludes_self() {
        let data = line_data();
        let g = exact_graph(&data, 4);
        for (i, list) in g.iter() {
            assert!(list.ids().all(|id| id as usize != i));
            assert_eq!(list.len(), 4);
        }
    }

    #[test]
    #[should_panic(expected = "k must be positive")]
    fn zero_k_panics() {
        let data = line_data();
        let _ = exact_graph(&data, 0);
    }

    #[test]
    fn ground_truth_for_external_queries() {
        let base = line_data();
        let queries = VectorSet::from_rows(vec![vec![2.0], vec![14.0]]).unwrap();
        let gt = exact_ground_truth(&base, &queries, 2);
        assert_eq!(gt.len(), 2);
        // 2.0 is closest to 3.0 (d=1) then 1.0 (d=1) — tie broken by id: 1 before 2
        let ids: Vec<u32> = gt[0].iter().map(|n| n.id).collect();
        assert_eq!(ids.len(), 2);
        assert!(ids.contains(&1) && ids.contains(&2));
        // 14.0 is closest to 15.0 then 7.0
        let ids: Vec<u32> = gt[1].iter().map(|n| n.id).collect();
        assert_eq!(ids, vec![4, 3]);
    }

    #[test]
    fn subset_neighbors_match_full_graph() {
        let data = line_data();
        let g = exact_graph(&data, 2);
        let subset = exact_neighbors_of_subset(&data, &[0, 3], 2);
        assert_eq!(
            subset[0].iter().map(|n| n.id).collect::<Vec<_>>(),
            g.neighbors(0).ids().collect::<Vec<_>>()
        );
        assert_eq!(
            subset[1].iter().map(|n| n.id).collect::<Vec<_>>(),
            g.neighbors(3).ids().collect::<Vec<_>>()
        );
    }

    #[test]
    fn distances_are_squared_euclidean() {
        let data = line_data();
        let g = exact_graph(&data, 1);
        assert_eq!(g.neighbors(4).as_slice()[0].dist, 64.0); // (15-7)^2
    }

    #[test]
    fn scans_longer_than_one_block_stay_exact() {
        // 600 rows forces multiple SCAN_BLOCK batches per query.
        let data = VectorSet::from_rows((0..600).map(|i| vec![i as f32, (i % 7) as f32]).collect())
            .unwrap();
        let g = exact_graph(&data, 3);
        // row 300's nearest neighbours on this lattice are 293 and 307 (the
        // rows sharing its second coordinate at distance 49) — but 299/301
        // differ by 1.0 in x and at most 36 in y². Verify against a direct scan.
        for &i in &[0usize, 299, 300, 599] {
            let mut best: Vec<(f32, usize)> = (0..600)
                .filter(|&j| j != i)
                .map(|j| {
                    (
                        vecstore::distance::l2_sq_reference(data.row(i), data.row(j)),
                        j,
                    )
                })
                .collect();
            best.sort_by(|a, b| a.partial_cmp(b).unwrap());
            let expect: Vec<u32> = best.iter().take(3).map(|&(_, j)| j as u32).collect();
            let got: Vec<u32> = g.neighbors(i).ids().collect();
            assert_eq!(got, expect, "row {i}");
        }
    }
}
