//! End-to-end integration tests of the GK-means pipeline across crates:
//! datagen → gkmeans (graph construction + clustering) → eval.

use gkm::prelude::*;

fn workload(n: usize, dataset: PaperDataset, seed: u64) -> Workload {
    Workload::generate_with_n(dataset, n, seed)
}

#[test]
fn full_pipeline_on_sift_like_data_beats_random_partition() {
    let w = workload(3_000, PaperDataset::Sift100K, 1);
    let k = 30;
    let params = GkParams::default()
        .kappa(10)
        .xi(30)
        .tau(4)
        .iterations(10)
        .seed(2);
    let outcome = GkMeansPipeline::new(params).cluster(&w.data, k);

    assert_eq!(outcome.clustering.labels.len(), w.data.len());
    assert_eq!(outcome.clustering.k(), k);
    assert!(outcome.clustering.labels.iter().all(|&l| l < k));

    // Compare against a fixed random partition of the same data.
    let random_labels: Vec<usize> = (0..w.data.len()).map(|i| i % k).collect();
    let mut random_centroids = VectorSet::zeros(k, w.data.dim()).unwrap();
    baselines::common::recompute_centroids(&w.data, &random_labels, &mut random_centroids);
    let random_e = average_distortion(&w.data, &random_labels, &random_centroids);
    let gk_e = average_distortion(
        &w.data,
        &outcome.clustering.labels,
        &outcome.clustering.centroids,
    );
    assert!(
        gk_e < random_e * 0.7,
        "GK-means ({gk_e}) should clearly beat a random partition ({random_e})"
    );
}

/// Distortion of GK-means relative to BKM and to Mini-Batch, one pair of
/// ratios per seed in 1..=7, each method at the same seed and iteration budget.
fn quality_ratios(n: usize, k: usize) -> (Vec<f64>, Vec<f64>) {
    let w = workload(n, PaperDataset::Glove1M, 3);
    let iterations = 12;
    let mut gk_vs_bkm = Vec::new();
    let mut gk_vs_mb = Vec::new();
    for seed in 1..=7u64 {
        // κ and τ stay in the same proportion to k as the paper's setup (κ = 50
        // at k = 10 000 with a τ = 10 graph); at this reduced scale a too-small
        // κ starves the candidate sets and the comparison stops being meaningful.
        let gk = GkMeansPipeline::new(
            GkParams::default()
                .kappa(25)
                .xi(40)
                .tau(8)
                .iterations(iterations)
                .seed(seed)
                .record_trace(false),
        )
        .cluster(&w.data, k);
        let gk_e = average_distortion(&w.data, &gk.clustering.labels, &gk.clustering.centroids);

        let cfg = KMeansConfig::with_k(k)
            .max_iters(iterations)
            .seed(seed)
            .record_trace(false);
        let bkm = BoostKMeans::new(cfg).fit(&w.data);
        let bkm_e = average_distortion(&w.data, &bkm.labels, &bkm.centroids);
        let mb = MiniBatchKMeans::new(cfg).batch_size(256).fit(&w.data);
        let mb_e = average_distortion(&w.data, &mb.labels, &mb.centroids);

        gk_vs_bkm.push(gk_e / bkm_e);
        gk_vs_mb.push(gk_e / mb_e);
    }
    (gk_vs_bkm, gk_vs_mb)
}

fn median(v: &[f64]) -> f64 {
    let mut v = v.to_vec();
    v.sort_by(f64::total_cmp);
    v[v.len() / 2]
}

#[test]
fn pipeline_quality_tracks_boost_kmeans_and_beats_minibatch() {
    // The paper's central quality claim (Fig. 5): GK-means is close to BKM and
    // clearly better than Mini-Batch at the same iteration budget.  The claim
    // is about the typical run, not one seed's luck: medians over seven seeds.
    //
    // k = 25 over the data's 16 latent components: every method's distortion
    // is quantised by how many components a run happens to merge, so single
    // seeds range from 0.8 to 1.25 and only the median carries the bound.
    let (gk_vs_bkm, gk_vs_mb) = quality_ratios(2_500, 25);
    assert!(
        median(&gk_vs_bkm) <= 1.20,
        "k = 25: GK-means should stay within ~20% of BKM on the median seed: {gk_vs_bkm:?}"
    );
    assert!(
        median(&gk_vs_mb) < 1.0,
        "k = 25: GK-means should beat Mini-Batch on the median seed: {gk_vs_mb:?}"
    );

    // k well above the number of components, as in the paper's runs: no merged
    // components, and the gap to BKM closes to a few percent on every seed.
    let (gk_vs_bkm, gk_vs_mb) = quality_ratios(1_600, 64);
    assert!(
        median(&gk_vs_bkm) <= 1.05,
        "k = 64: GK-means should stay within ~5% of BKM on the median seed: {gk_vs_bkm:?}"
    );
    assert!(
        median(&gk_vs_mb) < 1.0,
        "k = 64: GK-means should beat Mini-Batch on the median seed: {gk_vs_mb:?}"
    );
}

#[test]
fn pipeline_candidate_checks_are_independent_of_k() {
    // Fig. 6(b): the per-iteration cost of GK-means is bounded by n·κ whatever
    // the cluster count, unlike Lloyd / BKM whose cost is n·k.
    let w = workload(2_000, PaperDataset::Vlad10M, 7);
    let kappa = 10usize;
    let params = GkParams::default()
        .kappa(kappa)
        .xi(30)
        .tau(3)
        .iterations(5)
        .seed(9)
        .record_trace(false);

    let small = GkMeansPipeline::new(params).cluster(&w.data, 16);
    let large = GkMeansPipeline::new(params).cluster(&w.data, 256);

    let per_iter_small =
        small.clustering.distance_evals as f64 / small.clustering.iterations.max(1) as f64;
    let per_iter_large =
        large.clustering.distance_evals as f64 / large.clustering.iterations.max(1) as f64;
    let kappa_bound = (w.data.len() * kappa) as f64;
    assert!(
        per_iter_small <= kappa_bound,
        "small-k run exceeded n·kappa: {per_iter_small}"
    );
    assert!(
        per_iter_large <= kappa_bound,
        "large-k run exceeded n·kappa: {per_iter_large}"
    );
    // and the large-k run is far below Lloyd's n·k cost per iteration
    assert!(
        per_iter_large < (w.data.len() * 256) as f64 / 4.0,
        "per-iteration checks too close to exhaustive: {per_iter_large}"
    );
}

#[test]
fn kgraph_plus_gkmeans_configuration_works() {
    // Fig. 4's "KGraph+GK-means" run: the graph is supplied by NN-Descent.
    let w = workload(2_000, PaperDataset::Sift100K, 11);
    let k = 20;
    let graph = nn_descent(
        &w.data,
        &NnDescentParams {
            k: 10,
            seed: 3,
            ..Default::default()
        },
    );
    let outcome = GkMeansPipeline::new(
        GkParams::default()
            .kappa(10)
            .iterations(10)
            .seed(3)
            .record_trace(false),
    )
    .cluster_with_graph(&w.data, k, graph, std::time::Duration::from_secs(0));
    assert_eq!(outcome.clustering.k(), k);
    let e = average_distortion(
        &w.data,
        &outcome.clustering.labels,
        &outcome.clustering.centroids,
    );
    assert!(e.is_finite() && e > 0.0);
}

#[test]
fn graph_built_by_pipeline_supports_ann_search() {
    // Sec. 4.3: the same graph doubles as an ANN index.
    let w = workload(2_500, PaperDataset::Sift100K, 13);
    let (base, queries) = w.data.split_at(2_400).unwrap();
    let (graph, _) = KnnGraphBuilder::new(
        GkParams::default()
            .kappa(10)
            .xi(25)
            .tau(5)
            .seed(17)
            .record_trace(false),
    )
    .graph_k(10)
    .build(&base);
    let gt = exact_ground_truth(&base, &queries, 5);
    let report = evaluate_anns(
        &base,
        &graph,
        &queries,
        &gt,
        5,
        SearchParams::default().ef(64).entry_points(16).seed(19),
    );
    assert!(
        report.stats.recall > 0.5,
        "ANN recall through the Alg.3 graph too low: {}",
        report.stats.recall
    );
    assert!(report.stats.avg_distance_evals < base.len() as f64 * 0.5);
}

#[test]
fn trace_supports_distortion_vs_iteration_and_vs_time_plots() {
    // Fig. 5 plots need both axes from the same run.
    let w = workload(2_000, PaperDataset::Gist1M, 21);
    let outcome = GkMeansPipeline::new(
        GkParams::default()
            .kappa(10)
            .xi(25)
            .tau(3)
            .iterations(8)
            .seed(23),
    )
    .cluster(&w.data, 20);
    let trace = &outcome.clustering.trace;
    assert!(!trace.is_empty());
    for w2 in trace.windows(2) {
        assert!(w2[1].iteration > w2[0].iteration);
        assert!(w2[1].elapsed_secs >= w2[0].elapsed_secs);
        assert!(w2[1].distortion <= w2[0].distortion + 1e-6);
    }
}
