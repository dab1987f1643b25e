//! Property-based tests (proptest) of the core data structures and the
//! algorithmic invariants the paper's algorithms rely on.

use proptest::prelude::*;

use gkm::prelude::*;
use gkmeans::two_means::TwoMeansTree;
use knn_graph::{KnnGraph, NeighborList};
use vecstore::distance::{dot, l2_sq, l2_sq_reference, norm_sq};

/// Strategy: a small dense dataset as (rows, dim).
fn dataset(max_n: usize, max_dim: usize) -> impl Strategy<Value = Vec<Vec<f32>>> {
    (2usize..max_dim).prop_flat_map(move |dim| {
        proptest::collection::vec(
            proptest::collection::vec(-100.0f32..100.0, dim..=dim),
            4..max_n,
        )
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    // ---------------------------------------------------------------- vecstore
    #[test]
    fn l2_sq_matches_reference(a in proptest::collection::vec(-1e3f32..1e3, 0..64),
                               b in proptest::collection::vec(-1e3f32..1e3, 0..64)) {
        let n = a.len().min(b.len());
        let fast = l2_sq(&a[..n], &b[..n]);
        let slow = l2_sq_reference(&a[..n], &b[..n]);
        prop_assert!((fast - slow).abs() <= 1e-2 * slow.abs().max(1.0));
    }

    #[test]
    fn l2_sq_is_symmetric_and_non_negative(v in proptest::collection::vec(-50.0f32..50.0, 1..32),
                                           w in proptest::collection::vec(-50.0f32..50.0, 1..32)) {
        let n = v.len().min(w.len());
        let d1 = l2_sq(&v[..n], &w[..n]);
        let d2 = l2_sq(&w[..n], &v[..n]);
        prop_assert!(d1 >= 0.0);
        prop_assert!((d1 - d2).abs() <= 1e-3 * d1.max(1.0));
    }

    #[test]
    fn norm_is_dot_with_self(v in proptest::collection::vec(-10.0f32..10.0, 0..48)) {
        prop_assert!((norm_sq(&v) - dot(&v, &v)).abs() < 1e-3);
    }

    #[test]
    fn fvecs_round_trip_preserves_data(rows in dataset(12, 8)) {
        let vs = VectorSet::from_rows(rows).unwrap();
        let mut buf = Vec::new();
        vecstore::io::write_fvecs_to(&mut buf, &vs).unwrap();
        let back = vecstore::io::read_fvecs_from(std::io::Cursor::new(buf)).unwrap();
        prop_assert_eq!(back, vs);
    }

    #[test]
    fn native_round_trip_preserves_data(rows in dataset(12, 8)) {
        let vs = VectorSet::from_rows(rows).unwrap();
        let buf = vecstore::io::vector_set_to_bytes(&vs);
        let back = vecstore::io::vector_set_from_bytes(&buf).unwrap();
        prop_assert_eq!(back, vs);
    }

    // --------------------------------------------------------------- knn-graph
    #[test]
    fn neighbor_list_is_always_sorted_bounded_and_deduped(
        cap in 1usize..8,
        inserts in proptest::collection::vec((0u32..32, 0.0f32..100.0), 0..64),
    ) {
        let mut list = NeighborList::with_capacity(cap);
        for (id, d) in inserts {
            list.insert(Neighbor::new(id, d));
        }
        prop_assert!(list.len() <= cap);
        let entries = list.as_slice();
        for w in entries.windows(2) {
            prop_assert!(w[0].dist <= w[1].dist);
        }
        let mut ids: Vec<u32> = list.ids().collect();
        ids.sort_unstable();
        ids.dedup();
        prop_assert_eq!(ids.len(), list.len(), "duplicate ids retained");
    }

    #[test]
    fn exact_graph_lists_hold_the_true_nearest(rows in dataset(20, 6)) {
        let vs = VectorSet::from_rows(rows).unwrap();
        let k = 3.min(vs.len() - 1).max(1);
        let graph = exact_graph(&vs, k);
        // For every sample, the first entry of its list must be a global
        // minimiser of the distance over all other samples.
        for i in 0..vs.len() {
            let Some(first) = graph.neighbors(i).as_slice().first() else { continue };
            let best = (0..vs.len())
                .filter(|&j| j != i)
                .map(|j| l2_sq(vs.row(i), vs.row(j)))
                .fold(f32::INFINITY, f32::min);
            prop_assert!((first.dist - best).abs() <= 1e-3 * best.max(1.0));
        }
    }

    #[test]
    fn graph_update_pair_never_breaks_invariants(
        n in 3usize..20,
        k in 1usize..5,
        edges in proptest::collection::vec((0usize..20, 0usize..20, 0.0f32..10.0), 0..64),
    ) {
        let mut g = KnnGraph::empty(n, k);
        for (i, j, d) in edges {
            if i < n && j < n {
                g.update_pair(i, j, d);
            }
        }
        for (i, list) in g.iter() {
            prop_assert!(list.len() <= k);
            prop_assert!(list.ids().all(|id| (id as usize) < n && id as usize != i));
        }
    }

    // ----------------------------------------------------------------- gkmeans
    #[test]
    fn delta_i_matches_objective_difference(rows in dataset(16, 5), seed in 0u64..1000) {
        let vs = VectorSet::from_rows(rows).unwrap();
        let k = 3.min(vs.len());
        let labels: Vec<usize> = (0..vs.len()).map(|i| i % k).collect();
        let mut state = ClusterState::from_labels(&vs, labels, k);
        let i = (seed as usize) % vs.len();
        let v = (seed as usize / 7) % k;
        let delta = state.delta_move(i, vs.row(i), v);
        let before = state.objective();
        state.apply_move(i, vs.row(i), v);
        let after = state.objective();
        prop_assert!((delta - (after - before)).abs() <= 1e-4 * before.abs().max(1.0));
    }

    #[test]
    fn cluster_state_sizes_and_cache_stay_consistent(
        rows in dataset(16, 4),
        moves in proptest::collection::vec((0usize..16, 0usize..3), 0..32),
    ) {
        let vs = VectorSet::from_rows(rows).unwrap();
        let k = 3.min(vs.len());
        let labels: Vec<usize> = (0..vs.len()).map(|i| i % k).collect();
        let mut state = ClusterState::from_labels(&vs, labels, k);
        for (i, v) in moves {
            let i = i % vs.len();
            let v = v % k;
            state.apply_move(i, vs.row(i), v);
        }
        let total: usize = (0..k).map(|r| state.size(r)).sum();
        prop_assert_eq!(total, vs.len());
        prop_assert!(state.norm_cache_drift() < 1e-6);
        prop_assert!(state.objective().is_finite());
    }

    #[test]
    fn two_means_tree_partitions_are_complete_and_balanced(rows in dataset(40, 5), k in 2usize..6) {
        let vs = VectorSet::from_rows(rows).unwrap();
        let k = k.min(vs.len());
        let labels = TwoMeansTree::new(1).partition(&vs, k);
        prop_assert_eq!(labels.len(), vs.len());
        let mut sizes = vec![0usize; k];
        for &l in &labels {
            prop_assert!(l < k);
            sizes[l] += 1;
        }
        prop_assert!(sizes.iter().all(|&s| s >= 1));
        // equal-size adjustment: max/min ratio stays small
        let max = *sizes.iter().max().unwrap();
        let min = *sizes.iter().min().unwrap();
        prop_assert!(max <= min.max(1) * 4, "sizes {:?}", sizes);
    }

    #[test]
    fn two_means_bisection_is_balanced_complete_and_thread_invariant(
        m in 2usize..=3000,
        kind in 0usize..3,
        seed in 0u64..1000,
    ) {
        // kind 0: all points identical; 1: coordinates in {0, 1}, so margins
        // tie heavily; 2: spread-out integers.
        let span = [1u64, 2, 50][kind];
        let mut state = seed.wrapping_mul(0x9E37_79B9_7F4A_7C15) | 1;
        let rows: Vec<Vec<f32>> = (0..m)
            .map(|_| {
                (0..3)
                    .map(|_| {
                        state ^= state << 13;
                        state ^= state >> 7;
                        state ^= state << 17;
                        (state % span) as f32
                    })
                    .collect()
            })
            .collect();
        let vs = VectorSet::from_rows(rows).unwrap();
        // Member order differs from id order, so slots and ids cannot be confused.
        let members: Vec<u32> = (0..m as u32).rev().collect();
        let bisect = |threads: usize| {
            TwoMeansTree::new(seed).threads(threads).bisect_equal(
                &vs,
                &members,
                &mut vecstore::sample::rng_from_seed(seed),
            )
        };
        let (left, right) = bisect(1);
        prop_assert!(left.len().abs_diff(right.len()) <= 1, "{} vs {}", left.len(), right.len());
        // Both halves are subsequences of `members` (descending ids) and
        // together hold every member exactly once.
        prop_assert!(left.windows(2).all(|w| w[0] > w[1]));
        prop_assert!(right.windows(2).all(|w| w[0] > w[1]));
        let mut all: Vec<u32> = left.iter().chain(&right).copied().collect();
        all.sort_unstable();
        prop_assert!(all.iter().copied().eq(0..m as u32));
        for threads in [2usize, 4, 7] {
            prop_assert_eq!(bisect(threads), (left.clone(), right.clone()));
        }
    }

    // --------------------------------------------------------------- baselines
    #[test]
    fn lloyd_distortion_never_increases_along_the_trace(rows in dataset(30, 4), k in 2usize..5) {
        let vs = VectorSet::from_rows(rows).unwrap();
        let k = k.min(vs.len());
        let c = LloydKMeans::new(KMeansConfig::with_k(k).max_iters(6).seed(7)).fit(&vs);
        let trace: Vec<f64> = c.trace.iter().map(|t| t.distortion).collect();
        for w in trace.windows(2) {
            prop_assert!(w[1] <= w[0] + 1e-5);
        }
    }

    #[test]
    fn every_label_vector_is_a_partition(rows in dataset(24, 4), k in 2usize..5) {
        let vs = VectorSet::from_rows(rows).unwrap();
        let k = k.min(vs.len());
        let cfg = KMeansConfig::with_k(k).max_iters(4).seed(11).record_trace(false);
        for clustering in [
            LloydKMeans::new(cfg).fit(&vs),
            BoostKMeans::new(cfg).fit(&vs),
            ClosureKMeans::new(cfg).fit(&vs),
            BisectingKMeans::new(cfg).fit(&vs),
        ] {
            prop_assert_eq!(clustering.labels.len(), vs.len());
            prop_assert!(clustering.labels.iter().all(|&l| l < clustering.k()));
            prop_assert_eq!(clustering.cluster_sizes().iter().sum::<usize>(), vs.len());
        }
    }
}
