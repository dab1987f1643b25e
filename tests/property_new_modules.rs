//! Property-based tests for the extension modules: NSW construction, the
//! KD-tree forest, AKM, HKM and the Alg. 3 builder's thread-count invariance.
//!
//! These complement `property_invariants.rs` (which covers the core data
//! structures of the paper's own pipeline) with invariants of the comparator
//! implementations added on top.

use proptest::prelude::*;

use gkm::prelude::*;
use knn_graph::nsw::truncate_to_k;
use vecstore::distance::l2_sq;

/// Strategy: a clustered dataset of `groups` latent blobs in `dim` dimensions.
fn clustered_rows() -> impl Strategy<Value = Vec<Vec<f32>>> {
    (2usize..6, 2usize..5, 30usize..90).prop_flat_map(|(groups, dim, n)| {
        proptest::collection::vec(
            (
                0..groups,
                proptest::collection::vec(-1.0f32..1.0, dim..=dim),
            ),
            n..=n,
        )
        .prop_map(move |samples| {
            samples
                .into_iter()
                .map(|(g, noise)| {
                    noise
                        .into_iter()
                        .enumerate()
                        .map(|(d, x)| (g * 7 + d) as f32 * 8.0 + x)
                        .collect()
                })
                .collect()
        })
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    // ------------------------------------------------------------------- NSW
    #[test]
    fn nsw_graph_edges_store_true_distances_and_respect_degree(rows in clustered_rows(), seed in 0u64..1000) {
        let data = VectorSet::from_rows(rows).unwrap();
        let graph = nsw_build(&data, &NswParams::with_m(4).seed(seed));
        prop_assert_eq!(graph.len(), data.len());
        for (i, list) in graph.iter() {
            prop_assert!(list.len() <= 8, "degree bound violated");
            let mut prev = 0.0f32;
            for nb in list.as_slice() {
                prop_assert!(nb.id as usize != i, "self loop");
                let expect = l2_sq(data.row(i), data.row(nb.id as usize));
                prop_assert!((nb.dist - expect).abs() <= 1e-4 * expect.max(1.0));
                prop_assert!(nb.dist >= prev, "list not sorted");
                prev = nb.dist;
            }
        }
        // truncation keeps prefixes
        let truncated = truncate_to_k(&graph, 2);
        for (i, list) in truncated.iter() {
            let full: Vec<u32> = graph.neighbors(i).ids().collect();
            let cut: Vec<u32> = list.ids().collect();
            prop_assert!(cut.len() <= 2);
            prop_assert_eq!(&full[..cut.len()], &cut[..]);
        }
    }

    // ------------------------------------------------------------- KD forest
    #[test]
    fn kd_forest_with_full_budget_finds_the_exact_nearest(rows in clustered_rows(), seed in 0u64..1000) {
        let data = VectorSet::from_rows(rows).unwrap();
        let forest = KdTreeForest::build(&data, &KdForestParams::with_trees(3).seed(seed));
        // query a handful of the base points: the top hit must be the point itself
        for i in (0..data.len()).step_by(data.len() / 5 + 1) {
            let hit = forest.nearest(&data, data.row(i), data.len());
            prop_assert_eq!(hit.dist, 0.0);
        }
        // and an off-base query must return the true nearest neighbour
        let mut q = data.row(0).to_vec();
        q[0] += 0.25;
        let hit = forest.nearest(&data, &q, data.len());
        let exact = (0..data.len())
            .min_by(|&a, &b| l2_sq(&q, data.row(a)).partial_cmp(&l2_sq(&q, data.row(b))).unwrap())
            .unwrap();
        prop_assert!((hit.dist - l2_sq(&q, data.row(exact))).abs() <= 1e-5);
    }

    #[test]
    fn kd_forest_results_are_sorted_and_within_budget(rows in clustered_rows(), checks in 4usize..40) {
        let data = VectorSet::from_rows(rows).unwrap();
        let forest = KdTreeForest::build(&data, &KdForestParams::default().seed(7));
        let (hits, stats) = forest.knn(&data, data.row(1), 3, checks);
        prop_assert!(!hits.is_empty());
        for w in hits.windows(2) {
            prop_assert!(w[0].dist <= w[1].dist);
        }
        // the distance-eval budget is an upper bound (±1 for the fallback path)
        prop_assert!(stats.distance_evals <= checks as u64 + 1);
    }

    // ------------------------------------------------------------------- HKM
    #[test]
    fn hkm_produces_a_valid_partition_of_exactly_k(rows in clustered_rows(), k in 2usize..10, seed in 0u64..1000) {
        let data = VectorSet::from_rows(rows).unwrap();
        let k = k.min(data.len());
        let result = HierarchicalKMeans::new(KMeansConfig::with_k(k).seed(seed)).branching(3).fit(&data);
        prop_assert_eq!(result.labels.len(), data.len());
        prop_assert!(result.k() <= k);
        prop_assert!(result.labels.iter().all(|&l| l < result.k()));
        prop_assert_eq!(result.cluster_sizes().iter().sum::<usize>(), data.len());
        // on non-degenerate data the requested k is reached exactly
        prop_assert_eq!(result.k(), k);
    }

    // ------------------------------------------------------------------- AKM
    #[test]
    fn akm_labels_are_valid_and_distortion_finite(rows in clustered_rows(), seed in 0u64..1000) {
        let data = VectorSet::from_rows(rows).unwrap();
        let k = 4usize.min(data.len());
        let result = ApproximateKMeans::new(
            KMeansConfig::with_k(k).max_iters(6).seed(seed).record_trace(false),
        )
        .max_checks(8)
        .fit(&data);
        prop_assert!(result.labels.iter().all(|&l| l < k));
        let e = result.distortion(&data);
        prop_assert!(e.is_finite() && e >= 0.0);
    }

    // ------------------------------------------------ Alg. 3 thread counts
    /// The one Alg. 3 builder run sequentially and on four workers.
    #[test]
    fn parallel_and_sequential_builders_agree(rows in clustered_rows(), seed in 0u64..1000) {
        let data = VectorSet::from_rows(rows).unwrap();
        let params = GkParams::default().xi(10).tau(2).kappa(4).seed(seed).record_trace(false);
        let (seq, seq_stats) = KnnGraphBuilder::new(params.threads(1)).graph_k(4).build(&data);
        let (par, par_stats) = KnnGraphBuilder::new(params.threads(4)).graph_k(4).build(&data);
        prop_assert_eq!(seq_stats.graph_updates, par_stats.graph_updates);
        for i in 0..data.len() {
            prop_assert_eq!(
                seq.neighbors(i).as_slice().iter().map(|nb| (nb.id, nb.dist.to_bits())).collect::<Vec<_>>(),
                par.neighbors(i).as_slice().iter().map(|nb| (nb.id, nb.dist.to_bits())).collect::<Vec<_>>()
            );
        }
    }

    // ----------------------------------------------------- internal metrics
    #[test]
    fn ari_of_identical_partitions_is_one(rows in clustered_rows(), k in 2usize..8) {
        let data = VectorSet::from_rows(rows).unwrap();
        let labels: Vec<usize> = (0..data.len()).map(|i| i % k).collect();
        let ari = eval::adjusted_rand_index(&labels, &labels);
        prop_assert!((ari - 1.0).abs() < 1e-9);
    }

    #[test]
    fn davies_bouldin_is_non_negative(rows in clustered_rows(), k in 2usize..6) {
        let data = VectorSet::from_rows(rows).unwrap();
        let k = k.min(data.len());
        let labels: Vec<usize> = (0..data.len()).map(|i| i % k).collect();
        let mut centroids = VectorSet::zeros(k, data.dim()).unwrap();
        baselines::common::recompute_centroids(&data, &labels, &mut centroids);
        prop_assert!(eval::davies_bouldin(&data, &labels, &centroids) >= 0.0);
        let s = eval::sampled_silhouette(&data, &labels, 16, 3);
        prop_assert!((-1.0..=1.0).contains(&s));
    }
}

#[test]
fn nsw_graph_feeds_gkmeans_like_any_other_supplier() {
    // The integration the paper implies for third-party graphs: any
    // construction method can supply the graph for Alg. 2.
    let w = Workload::generate_with_n(PaperDataset::Sift100K, 2_000, 31);
    let nsw = nsw_build(&w.data, &NswParams::with_m(10).seed(5));
    let graph = truncate_to_k(&nsw, 10);
    let outcome = GkMeansPipeline::new(
        GkParams::default()
            .kappa(10)
            .iterations(8)
            .seed(5)
            .record_trace(false),
    )
    .cluster_with_graph(&w.data, 20, graph, std::time::Duration::ZERO);
    assert_eq!(outcome.clustering.k(), 20);
    let e = average_distortion(
        &w.data,
        &outcome.clustering.labels,
        &outcome.clustering.centroids,
    );
    assert!(e.is_finite() && e > 0.0);
}
