//! Failure-injection tests: corrupted files, mismatched shapes and degenerate
//! inputs must surface as errors (or documented panics), never as silent
//! wrong answers or memory blow-ups.

use std::io::Cursor;

use gkm::prelude::*;
use knn_graph::io::{read_graph_from, write_graph_to};
use vecstore::io::{read_fvecs_from, read_ivecs_from, write_fvecs_to};

// ---------------------------------------------------------------- file I/O

#[test]
fn truncated_fvecs_payload_is_an_error() {
    let data = VectorSet::from_rows(vec![vec![1.0, 2.0, 3.0], vec![4.0, 5.0, 6.0]]).unwrap();
    let mut buf = Vec::new();
    write_fvecs_to(&mut buf, &data).unwrap();
    for cut in [1, 5, buf.len() - 3] {
        let err = read_fvecs_from(Cursor::new(&buf[..cut]));
        assert!(err.is_err(), "truncation at {cut} bytes must fail");
    }
}

#[test]
fn absurd_fvecs_dimension_header_is_rejected_without_allocation() {
    // dimension header claims ~1 billion floats per row
    let mut buf = Vec::new();
    buf.extend_from_slice(&(1_000_000_000i32).to_le_bytes());
    buf.extend_from_slice(&[0u8; 64]);
    assert!(read_fvecs_from(Cursor::new(buf)).is_err());
}

#[test]
fn negative_or_zero_dimension_headers_are_rejected() {
    for dim in [-1i32, 0i32] {
        let mut buf = Vec::new();
        buf.extend_from_slice(&dim.to_le_bytes());
        buf.extend_from_slice(&[0u8; 16]);
        assert!(
            read_fvecs_from(Cursor::new(buf.clone())).is_err(),
            "dim {dim} accepted"
        );
        assert!(
            read_ivecs_from(Cursor::new(buf)).is_err(),
            "ivecs dim {dim} accepted"
        );
    }
}

#[test]
fn corrupted_graph_file_is_an_error() {
    let data = VectorSet::from_rows(vec![vec![0.0, 0.0], vec![1.0, 1.0], vec![2.0, 2.0]]).unwrap();
    let graph = exact_graph(&data, 2);
    let mut buf = Vec::new();
    write_graph_to(&mut buf, &graph).unwrap();
    // a valid round trip first, so the corruption below is the only variable
    let back = read_graph_from(Cursor::new(buf.clone())).unwrap();
    assert_eq!(back.len(), 3);
    // truncated payload
    let err = read_graph_from(Cursor::new(&buf[..buf.len() / 2])).unwrap_err();
    assert!(err.is_corruption(), "truncation: {err}");
    // garbage header
    let err = read_graph_from(Cursor::new(vec![0xFFu8; 16])).unwrap_err();
    assert!(err.is_corruption(), "garbage: {err}");
    // a flipped payload bit
    let mut flipped = buf.clone();
    let last = flipped.len() - 7;
    flipped[last] ^= 0x04;
    let err = read_graph_from(Cursor::new(flipped)).unwrap_err();
    assert!(err.is_corruption(), "bit flip: {err}");
}

// ------------------------------------------------------- shape mismatches

#[test]
#[should_panic(expected = "KNN graph covers")]
fn clustering_with_a_graph_of_the_wrong_size_panics() {
    let w = Workload::generate_with_n(PaperDataset::Sift100K, 1_200, 1);
    let (small, _) = w.data.split_at(600).unwrap();
    let graph = exact_graph(&small, 5);
    let _ = GkMeans::new(GkParams::default().kappa(5).iterations(2)).fit(&w.data, 10, &graph);
}

#[test]
fn mismatched_query_dimensionality_is_rejected_by_ground_truth() {
    let base = VectorSet::from_rows(vec![vec![0.0, 0.0], vec![1.0, 1.0]]).unwrap();
    let queries = VectorSet::from_rows(vec![vec![0.0, 0.0, 0.0]]).unwrap();
    let result = std::panic::catch_unwind(|| exact_ground_truth(&base, &queries, 1));
    assert!(
        result.is_err(),
        "dimensionality mismatch must not pass silently"
    );
}

// --------------------------------------------------------- degenerate data

#[test]
fn all_identical_points_cluster_without_crashing() {
    let data = VectorSet::from_rows(vec![vec![3.0, 3.0, 3.0]; 200]).unwrap();
    let params = GkParams::default()
        .kappa(5)
        .xi(20)
        .tau(2)
        .iterations(3)
        .seed(3)
        .record_trace(false);
    let outcome = GkMeansPipeline::new(params).cluster(&data, 4);
    assert_eq!(outcome.clustering.labels.len(), 200);
    let e = average_distortion(
        &data,
        &outcome.clustering.labels,
        &outcome.clustering.centroids,
    );
    assert!(
        e.abs() < 1e-6,
        "identical points must have zero distortion, got {e}"
    );

    for result in [
        LloydKMeans::new(KMeansConfig::with_k(4).max_iters(3).seed(1)).fit(&data),
        BoostKMeans::new(KMeansConfig::with_k(4).max_iters(3).seed(1)).fit(&data),
        HierarchicalKMeans::new(KMeansConfig::with_k(4).seed(1)).fit(&data),
        ApproximateKMeans::new(KMeansConfig::with_k(4).max_iters(3).seed(1)).fit(&data),
    ] {
        assert_eq!(result.labels.len(), 200);
        assert!(result.labels.iter().all(|&l| l < result.k()));
    }
}

#[test]
fn k_equal_to_n_gives_singleton_clusters_with_zero_distortion() {
    let w = Workload::generate_with_n(PaperDataset::Glove1M, 1_000, 9);
    let (data, _) = w.data.split_at(64).unwrap();
    let result = BoostKMeans::new(KMeansConfig::with_k(64).max_iters(5).seed(2)).fit(&data);
    assert_eq!(result.non_empty_clusters(), 64);
    assert!(result.distortion(&data) < 1e-6);
}

#[test]
fn graph_construction_on_fewer_samples_than_xi_still_works() {
    // n < ξ means a single construction cluster: Alg. 3 degrades to brute
    // force over the whole (tiny) set, which must still produce a full graph.
    let w = Workload::generate_with_n(PaperDataset::Sift100K, 1_000, 11);
    let (tiny, _) = w.data.split_at(30).unwrap();
    let (graph, stats) = KnnGraphBuilder::new(
        GkParams::default()
            .xi(50)
            .tau(2)
            .kappa(5)
            .seed(4)
            .record_trace(false),
    )
    .graph_k(5)
    .build(&tiny);
    assert_eq!(graph.len(), 30);
    assert!(stats.refine_distance_evals > 0);
    let exact = exact_graph(&tiny, 5);
    let recall = graph_recall_at_1(&graph, &exact);
    assert!(
        recall > 0.95,
        "single-cluster construction must be near exact, got {recall}"
    );
}

#[test]
fn zero_queries_and_zero_k_are_handled_by_the_searcher() {
    let w = Workload::generate_with_n(PaperDataset::Sift100K, 1_000, 13);
    let (base, _) = w.data.split_at(300).unwrap();
    let graph = exact_graph(&base, 5);
    let searcher = GraphSearcher::new(&base, &graph, SearchParams::default());
    assert!(searcher.search(base.row(0), 0).is_empty());
    let no_queries = VectorSet::zeros(0, base.dim()).unwrap();
    let truth = exact_ground_truth(&base, &no_queries, 1);
    assert!(truth.is_empty());
}

#[test]
fn invalid_parameters_are_rejected_before_any_work() {
    let w = Workload::generate_with_n(PaperDataset::Sift100K, 1_000, 17);
    assert!(GkParams::default()
        .kappa(0)
        .validate(w.data.len(), 10)
        .is_err());
    assert!(GkParams::default()
        .xi(1)
        .validate(w.data.len(), 10)
        .is_err());
    assert!(GkParams::default()
        .tau(0)
        .validate(w.data.len(), 10)
        .is_err());
    assert!(GkParams::default().validate(0, 10).is_err());
    assert!(GkParams::default().validate(100, 0).is_err());
    assert!(GkParams::default().validate(100, 101).is_err());
    assert!(KMeansConfig::with_k(5).tol(f64::NAN).validate(100).is_err());
}
