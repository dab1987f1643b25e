//! GK-means: graph-based fast k-means — the contribution of
//! *Fast k-means based on KNN Graph* (Deng & Zhao, ICDE 2018).
//!
//! The crate implements the complete pipeline of the paper:
//!
//! 1. [`state`] / [`objective`] — the composite-vector cluster state and the
//!    explicit objective `I = Σ_r D_r'·D_r / n_r` (Eqn. 2) with the
//!    incremental move gain `ΔI` (Eqn. 3);
//! 2. [`boost`] — **boost k-means** (BKM, Sec. 3.1): stochastic incremental
//!    optimisation of `I`, the quality backbone GK-means is built on;
//! 3. [`two_means`] — the **two-means tree** (Alg. 1, Sec. 3.2): hierarchical
//!    bisection with equal-size adjustment, used to produce the initial `k`
//!    partition in `O(d·n·log k)`; its loops ride the same worker pool as
//!    the epochs, bit-identical at any thread count;
//! 4. [`gk`] — **GK-means** (Alg. 2): the BKM iteration restricted, for every
//!    sample, to the clusters where its κ graph neighbours live, plus the
//!    traditional-k-means variant "GK-means⁻" evaluated in Fig. 4, both
//!    driven by [`epoch`] — the threaded epoch engine whose delta-batched
//!    rounds parallelise the iteration behind the opt-in `threads` knob with
//!    bit-identical output at any thread count;
//! 5. [`construct`] — **KNN-graph construction by fast k-means** (Alg. 3):
//!    the intertwined process that alternately clusters the data into
//!    fixed-size groups and refines the graph by exhaustive in-cluster
//!    comparison.  Its one builder scores the in-cluster pairs in fixed
//!    blocks of anchors on the same worker pool and merges them in block
//!    order, so the graph is bit-identical at any thread count;
//! 6. [`pipeline`] — the two-phase driver used in the experiments: build the
//!    graph with Alg. 3, then cluster with Alg. 2, reporting the same
//!    initialisation / iteration time split as Tab. 2.
//!
//! # Quickstart
//!
//! ```
//! use gkmeans::{GkMeansPipeline, GkParams};
//! use vecstore::VectorSet;
//!
//! // a tiny clustered dataset: two groups on a line
//! let rows: Vec<Vec<f32>> = (0..60)
//!     .map(|i| vec![if i < 30 { i as f32 * 0.01 } else { 10.0 + (i - 30) as f32 * 0.01 }])
//!     .collect();
//! let data = VectorSet::from_rows(rows).unwrap();
//!
//! let params = GkParams::default().kappa(5).xi(10).tau(3).iterations(5);
//! let outcome = GkMeansPipeline::new(params).cluster(&data, 2);
//! assert_eq!(outcome.clustering.labels.len(), 60);
//! assert_eq!(outcome.clustering.k(), 2);
//! ```

#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

pub mod boost;
pub mod construct;
pub mod epoch;
pub mod gk;
pub mod objective;
pub mod params;
pub mod pipeline;
pub mod state;
pub mod two_means;

pub use boost::BoostKMeans;
pub use construct::{GraphBuildStats, KnnGraphBuilder};
pub use epoch::{BoostEpochEngine, TraditionalEpochEngine, NORM_REFRESH_INTERVAL};
pub use gk::{GkMeans, GkMode};
pub use params::GkParams;
pub use pipeline::{GkMeansPipeline, PipelineOutcome};
pub use state::ClusterState;

/// Thread-count checks of the one Alg. 3 builder: [`KnnGraphBuilder`] run
/// on the worker pool must build the graph it builds on one thread.
#[cfg(test)]
mod parallel {
    mod tests {
        use crate::{GkParams, KnnGraphBuilder};
        use baselines::common::average_distortion;
        use rand::Rng;
        use vecstore::sample::rng_from_seed;
        use vecstore::VectorSet;

        fn clustered(n: usize, dim: usize, groups: usize, seed: u64) -> VectorSet {
            let mut rng = rng_from_seed(seed);
            let mut rows = Vec::with_capacity(n);
            for i in 0..n {
                let g = i % groups;
                let mut row = Vec::with_capacity(dim);
                for d in 0..dim {
                    let centre = ((g * 5 + d) % 11) as f32 * 6.0;
                    row.push(centre + rng.gen_range(-0.6..0.6));
                }
                rows.push(row);
            }
            VectorSet::from_rows(rows).unwrap()
        }

        #[test]
        fn parallel_builder_matches_sequential_graph_exactly() {
            let data = clustered(500, 8, 10, 1);
            let params = GkParams::default().xi(20).tau(4).kappa(6).seed(3);
            let (seq, seq_stats) = KnnGraphBuilder::new(params.threads(1))
                .graph_k(6)
                .build(&data);
            let (par, par_stats) = KnnGraphBuilder::new(params.threads(4))
                .graph_k(6)
                .build(&data);
            assert_eq!(seq_stats.rounds, par_stats.rounds);
            assert_eq!(
                seq_stats.refine_distance_evals,
                par_stats.refine_distance_evals
            );
            assert_eq!(seq_stats.graph_updates, par_stats.graph_updates);
            for i in 0..data.len() {
                let a: Vec<(u32, f32)> = seq
                    .neighbors(i)
                    .as_slice()
                    .iter()
                    .map(|n| (n.id, n.dist))
                    .collect();
                let b: Vec<(u32, f32)> = par
                    .neighbors(i)
                    .as_slice()
                    .iter()
                    .map(|n| (n.id, n.dist))
                    .collect();
                assert_eq!(a, b, "neighbour list of sample {i} differs");
            }
        }

        #[test]
        fn observer_fires_every_round() {
            let data = clustered(200, 5, 5, 9);
            let params = GkParams::default()
                .xi(20)
                .tau(5)
                .kappa(4)
                .seed(11)
                .threads(4);
            let mut rounds = Vec::new();
            let (_, stats) = KnnGraphBuilder::new(params)
                .graph_k(4)
                .build_with_observer(&data, |info| rounds.push(info.round));
            assert_eq!(rounds, vec![1, 2, 3, 4, 5]);
            assert_eq!(stats.rounds, 5);
        }

        #[test]
        fn empty_input_is_handled() {
            let empty = VectorSet::zeros(0, 4).unwrap();
            let (g, stats) =
                KnnGraphBuilder::new(GkParams::default().tau(2).threads(4)).build(&empty);
            assert_eq!(g.len(), 0);
            assert_eq!(stats.rounds, 0);
            let centroids = VectorSet::zeros(1, 4).unwrap();
            assert_eq!(average_distortion(&empty, &[], &centroids), 0.0);
        }
    }
}
