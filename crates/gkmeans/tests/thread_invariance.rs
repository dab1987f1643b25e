//! Thread-count invariance of the epoch engines and of the Alg. 3 builder.
//!
//! The `threads` knob guarantees **bit-identical output at any thread
//! count**: the delta-batched rounds replay the paper's sequential visit
//! order and re-score any proposal an earlier move of the same round could
//! have influenced, and the fused Lloyd sweep merges fixed-block partial
//! accumulators in block order.  These property tests pin that guarantee on
//! the integer-lattice corpus (the same regime `kernel_properties.rs` uses:
//! small-integer coordinates, so distances are exactly representable and
//! exact ties — the hardest case for order-sensitivity — actually occur).

use baselines::common::KMeansConfig;
use baselines::lloyd::LloydKMeans;
use gkmeans::{GkMeans, GkMode, GkParams};
use knn_graph::brute::exact_graph;
use vecstore::VectorSet;

use baselines::common::Clustering;

/// Integer-lattice corpus: every coordinate a small integer, with duplicated
/// points so tie-breaking paths are exercised.
fn lattice(n: usize, d: usize) -> VectorSet {
    let rows: Vec<Vec<f32>> = (0..n)
        .map(|i| {
            (0..d)
                .map(|j| ((i * 7 + j * 5 + i / 13) % 11) as f32)
                .collect()
        })
        .collect();
    VectorSet::from_rows(rows).unwrap()
}

/// Asserts two clusterings are bit-identical in every output the determinism
/// guarantee covers: labels, centroids, trace and `distance_evals`.
fn assert_bit_identical(a: &Clustering, b: &Clustering, what: &str) {
    assert_eq!(a.labels, b.labels, "{what}: labels");
    assert_eq!(a.iterations, b.iterations, "{what}: iterations");
    assert_eq!(a.distance_evals, b.distance_evals, "{what}: distance_evals");
    let fa: Vec<u32> = a.centroids.as_flat().iter().map(|v| v.to_bits()).collect();
    let fb: Vec<u32> = b.centroids.as_flat().iter().map(|v| v.to_bits()).collect();
    assert_eq!(fa, fb, "{what}: centroid bits");
    assert_eq!(a.trace.len(), b.trace.len(), "{what}: trace length");
    for (ta, tb) in a.trace.iter().zip(&b.trace) {
        assert_eq!(ta.iteration, tb.iteration, "{what}: trace iteration");
        assert_eq!(
            ta.distortion.to_bits(),
            tb.distortion.to_bits(),
            "{what}: trace distortion bits at iteration {}",
            ta.iteration
        );
    }
}

#[test]
fn boost_epochs_are_bit_identical_at_any_thread_count() {
    let data = lattice(700, 12);
    let graph = exact_graph(&data, 8);
    let base = GkParams::default().kappa(8).iterations(12).seed(42);
    let reference = GkMeans::new(base.threads(1)).fit(&data, 13, &graph);
    assert!(reference.distance_evals > 0);
    for threads in [2usize, 4, 7] {
        let threaded = GkMeans::new(base.threads(threads)).fit(&data, 13, &graph);
        assert_bit_identical(&reference, &threaded, &format!("boost threads={threads}"));
    }
}

#[test]
fn boost_fit_with_multi_block_init_is_bit_identical_at_any_thread_count() {
    // Wide enough that the two-means-tree bisections span several fixed
    // 1024-row blocks, so the pool-backed init (blocked assignment merges,
    // delta-batched boost refinement, blocked margin passes) genuinely
    // splits — the 700-sample tests above keep the init single-block.
    let data = lattice(2600, 8);
    let graph = exact_graph(&data, 6);
    let base = GkParams::default().kappa(6).iterations(6).seed(17);
    let reference = GkMeans::new(base.threads(1)).fit(&data, 11, &graph);
    for threads in [2usize, 4, 7] {
        let threaded = GkMeans::new(base.threads(threads)).fit(&data, 11, &graph);
        assert_bit_identical(
            &reference,
            &threaded,
            &format!("boost multi-block threads={threads}"),
        );
    }
}

#[test]
fn two_means_partition_is_bit_identical_at_any_thread_count() {
    use gkmeans::two_means::TwoMeansTree;

    let data = lattice(2600, 8);
    let reference = TwoMeansTree::new(5).threads(1).partition(&data, 12);
    for threads in [2usize, 4, 7] {
        let threaded = TwoMeansTree::new(5).threads(threads).partition(&data, 12);
        assert_eq!(reference, threaded, "two-means threads={threads}");
    }
}

#[test]
fn two_means_adjustment_with_tied_margins_is_bit_identical_at_any_thread_count() {
    use gkmeans::two_means::TwoMeansTree;
    use vecstore::sample::rng_from_seed;

    // 3000 copies of one point with 200 copies of another sprinkled through
    // them: 2-means cuts the 200 off, so the equal-size adjustment has to move
    // 1400 samples — more than one fixed 1024-row block — whose margins are
    // all exactly equal.  The tie order (member position) decides everything.
    let rows: Vec<Vec<f32>> = (0..3200)
        .map(|i| {
            if i % 16 == 5 {
                vec![10.0, 10.0]
            } else {
                vec![0.0, 0.0]
            }
        })
        .collect();
    let data = VectorSet::from_rows(rows).unwrap();
    let members: Vec<u32> = (0..3200u32).rev().collect();
    let bisect = |threads: usize| {
        TwoMeansTree::new(3)
            .threads(threads)
            .bisect_equal(&data, &members, &mut rng_from_seed(3))
    };
    let (left, right) = bisect(1);
    assert_eq!((left.len(), right.len()), (1600, 1600));
    // The half holding the 200 outliers gained the 1400 tied samples that
    // come first in member order, and both halves kept that order.
    let with_outliers = if left.contains(&5) { &left } else { &right };
    let mut tied_taken = 0;
    let expected: Vec<u32> = members
        .iter()
        .copied()
        .filter(|&s| {
            let tied = s % 16 != 5;
            tied_taken += usize::from(tied);
            !tied || tied_taken <= 1400
        })
        .collect();
    assert_eq!(with_outliers, &expected);
    for threads in [2usize, 4, 7] {
        assert_eq!(
            bisect(threads),
            (left.clone(), right.clone()),
            "threads={threads}"
        );
    }
}

#[test]
fn traditional_epochs_are_bit_identical_at_any_thread_count() {
    let data = lattice(700, 12);
    let graph = exact_graph(&data, 8);
    let base = GkParams::default()
        .kappa(8)
        .iterations(12)
        .seed(9)
        .mode(GkMode::Traditional);
    let reference = GkMeans::new(base.threads(1)).fit(&data, 13, &graph);
    for threads in [2usize, 4, 7] {
        let threaded = GkMeans::new(base.threads(threads)).fit(&data, 13, &graph);
        assert_bit_identical(
            &reference,
            &threaded,
            &format!("traditional threads={threads}"),
        );
    }
}

#[test]
fn lloyd_fused_epochs_are_bit_identical_at_any_thread_count() {
    // Large enough that the fixed 4096-row blocking actually splits the data
    // would need >4096 samples; the invariance must hold either way because
    // block boundaries — not thread counts — decide the merge grouping.
    let data = lattice(900, 10);
    let base = KMeansConfig::with_k(11).max_iters(12).seed(3);
    let reference = LloydKMeans::new(base.threads(1)).fit(&data);
    for threads in [2usize, 4, 7] {
        let threaded = LloydKMeans::new(base.threads(threads)).fit(&data);
        assert_bit_identical(&reference, &threaded, &format!("lloyd threads={threads}"));
    }
}

#[test]
fn boost_engine_batched_rounds_match_sequential_under_heavy_churn() {
    // Adversarial churn: pseudo-random data with a scrambled initial
    // labelling makes most samples move in the first epochs, maximising
    // same-round conflicts — every repair tier (untouched commit, component
    // repair, full slow-path re-score) gets exercised.  The engine states
    // must stay bit-identical epoch by epoch.
    use gkmeans::{BoostEpochEngine, ClusterState};
    use vecstore::sample::{rng_from_seed, shuffled_order};

    let n = 600;
    let d = 8;
    let k = 7;
    let rows: Vec<Vec<f32>> = (0..n)
        .map(|i| {
            (0..d)
                .map(|j| ((i * 31 + j * 17) as f32 * 0.61).sin() * 5.0)
                .collect()
        })
        .collect();
    let data = VectorSet::from_rows(rows).unwrap();
    let graph = exact_graph(&data, 10);
    let labels: Vec<usize> = (0..n).map(|i| (i * 13 + 5) % k).collect();

    let mut state_seq = ClusterState::from_labels(&data, labels.clone(), k);
    let mut state_thr = state_seq.clone();
    let mut engine_seq = BoostEpochEngine::new(&data, &graph, 10, 1, k);
    let mut engine_thr = BoostEpochEngine::new(&data, &graph, 10, 8, k);
    let mut rng_seq = rng_from_seed(77);
    let mut rng_thr = rng_from_seed(77);
    let mut evals_seq = 0u64;
    let mut evals_thr = 0u64;

    let mut total_moves = 0usize;
    for epoch in 0..4 {
        let order_seq = shuffled_order(&mut rng_seq, n);
        let order_thr = shuffled_order(&mut rng_thr, n);
        assert_eq!(order_seq, order_thr);
        let moves_seq = engine_seq.run_epoch(&mut state_seq, &order_seq, &mut evals_seq);
        let moves_thr = engine_thr.run_epoch(&mut state_thr, &order_thr, &mut evals_thr);
        assert_eq!(moves_seq, moves_thr, "epoch {epoch}: moves");
        assert_eq!(evals_seq, evals_thr, "epoch {epoch}: distance_evals");
        assert_eq!(
            state_seq.labels(),
            state_thr.labels(),
            "epoch {epoch}: labels"
        );
        for r in 0..k {
            let a: Vec<u64> = state_seq.composite(r).iter().map(|v| v.to_bits()).collect();
            let b: Vec<u64> = state_thr.composite(r).iter().map(|v| v.to_bits()).collect();
            assert_eq!(a, b, "epoch {epoch}: composite bits of cluster {r}");
        }
        assert_eq!(
            state_seq.objective().to_bits(),
            state_thr.objective().to_bits(),
            "epoch {epoch}: objective bits"
        );
        total_moves += moves_seq;
    }
    assert!(
        total_moves > n / 4,
        "the scenario must actually churn (got {total_moves} moves)"
    );
}

#[test]
fn singleton_guard_conflicts_are_replayed_exactly() {
    // Regression: with tiny clusters (average size 3), a same-round move can
    // shrink a sample's cluster to a singleton *after* the snapshot scored
    // it.  The sequential loop skips such samples at `size(u) <= 1`; the
    // batched repair path must re-evaluate that guard — an earlier version
    // did not and diverged in distance_evals (and, via emptied clusters,
    // labels) on most seeds.
    use gkmeans::{BoostEpochEngine, ClusterState};
    use vecstore::sample::{rng_from_seed, shuffled_order};

    // Size-2 clusters with spatially-dispersed members: a co-member of `i`
    // is rarely inside i's κ-NN list, so its departure does not trip the
    // neighbour-moved slow path — exactly the masked conflict the guard
    // exists for.
    let n = 160;
    let d = 6;
    let k = 80;
    for seed in 0..12u64 {
        let rows: Vec<Vec<f32>> = (0..n)
            .map(|i| {
                (0..d)
                    .map(|j| {
                        ((i as u64 * 37 + j as u64 * 11 + seed * 101) as f32 * 0.53).sin() * 4.0
                    })
                    .collect()
            })
            .collect();
        let data = VectorSet::from_rows(rows).unwrap();
        let graph = exact_graph(&data, 6);
        let labels: Vec<usize> = (0..n).map(|i| i % k).collect();

        let mut state_seq = ClusterState::from_labels(&data, labels.clone(), k);
        let mut state_thr = state_seq.clone();
        let mut engine_seq = BoostEpochEngine::new(&data, &graph, 6, 1, k);
        let mut engine_thr = BoostEpochEngine::new(&data, &graph, 6, 2, k);
        let mut rng = rng_from_seed(seed);
        let mut evals_seq = 0u64;
        let mut evals_thr = 0u64;
        for epoch in 0..3 {
            let order = shuffled_order(&mut rng, n);
            let moves_seq = engine_seq.run_epoch(&mut state_seq, &order, &mut evals_seq);
            let moves_thr = engine_thr.run_epoch(&mut state_thr, &order, &mut evals_thr);
            assert_eq!(moves_seq, moves_thr, "seed {seed} epoch {epoch}: moves");
            assert_eq!(
                evals_seq, evals_thr,
                "seed {seed} epoch {epoch}: distance_evals"
            );
            assert_eq!(
                state_seq.labels(),
                state_thr.labels(),
                "seed {seed} epoch {epoch}: labels"
            );
        }
    }
}

#[test]
fn threaded_boost_still_converges_and_distortion_is_non_increasing() {
    // Sanity beyond bit-equality: the threaded path inherits the sequential
    // loop's invariants (it *is* the sequential loop, delta-batched).
    let data = lattice(400, 8);
    let graph = exact_graph(&data, 6);
    let result = GkMeans::new(
        GkParams::default()
            .kappa(6)
            .iterations(15)
            .seed(5)
            .threads(4),
    )
    .fit(&data, 9, &graph);
    let d: Vec<f64> = result.trace.iter().map(|t| t.distortion).collect();
    assert!(!d.is_empty());
    for w in d.windows(2) {
        assert!(w[1] <= w[0] + 1e-6, "{w:?}");
    }
}

#[test]
fn knn_graph_builder_is_bit_identical_at_any_thread_count() {
    use gkmeans::KnnGraphBuilder;
    use knn_graph::KnnGraph;

    // (n, d, ξ, τ, κ, seed): ξ = 200 leaves clusters of ~200 members, cut
    // into several 64-anchor blocks; ξ = 2 and 3 leave clusters of two or
    // three that the one GK-means pass per round turns into 1-member
    // clusters, whose lone member anchors no block.
    let shapes = [
        (600, 8, 200, 3, 6, 11),
        (500, 12, 50, 4, 8, 3),
        (150, 5, 2, 4, 3, 21),
        (120, 3, 3, 5, 4, 9),
    ];
    let lists = |g: &KnnGraph| -> Vec<Vec<(u32, u32)>> {
        g.iter()
            .map(|(_, list)| {
                list.as_slice()
                    .iter()
                    .map(|nb| (nb.id, nb.dist.to_bits()))
                    .collect()
            })
            .collect()
    };
    for (n, d, xi, tau, kappa, seed) in shapes {
        let data = lattice(n, d);
        let params = GkParams::default().xi(xi).tau(tau).kappa(kappa).seed(seed);
        let build = |threads: usize| {
            let mut rounds = Vec::new();
            let (graph, stats) =
                KnnGraphBuilder::new(params.threads(threads)).build_with_observer(&data, |info| {
                    rounds.push((info.round, info.distortion.to_bits()));
                });
            (lists(&graph), stats, rounds)
        };
        let (graph, stats, rounds) = build(1);
        assert_eq!(rounds.len(), tau, "n={n} ξ={xi}: one observation per round");
        assert!(stats.refine_distance_evals > 0 && stats.graph_updates > 0);
        for threads in [2usize, 4, 7] {
            let what = format!("n={n} ξ={xi} threads={threads}");
            let (t_graph, t_stats, t_rounds) = build(threads);
            assert_eq!(graph, t_graph, "{what}: lists");
            assert_eq!(
                stats.refine_distance_evals, t_stats.refine_distance_evals,
                "{what}: refine_distance_evals"
            );
            assert_eq!(
                stats.graph_updates, t_stats.graph_updates,
                "{what}: graph_updates"
            );
            assert_eq!(rounds, t_rounds, "{what}: observer sequence");
        }
    }
}
