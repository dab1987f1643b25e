//! The complete two-phase GK-means pipeline (Sec. 4.3, last paragraph):
//!
//! 1. **Phase 1 — graph construction**: Alg. 3 builds an approximate KNN
//!    graph by repeatedly calling the fast k-means on fixed-size clusters.
//! 2. **Phase 2 — clustering**: Alg. 2 produces the requested `k` clusters
//!    guided by that graph.
//!
//! The phase split matches the "Init." / "Iter." time columns of Tab. 2: the
//! initialisation time of GK-means covers graph construction plus the 2M-tree
//! partition, the iteration time covers the graph-guided optimisation.

use std::time::Duration;

use knn_graph::KnnGraph;
use vecstore::VectorSet;

use baselines::common::Clustering;

use crate::construct::{GraphBuildStats, KnnGraphBuilder};
use crate::gk::GkMeans;
use crate::params::GkParams;

/// Everything the pipeline produces: the clustering, the graph it used, and
/// the per-phase costs the paper reports.
#[derive(Clone, Debug)]
pub struct PipelineOutcome {
    /// The final clustering (labels, centroids, per-iteration trace, times).
    pub clustering: Clustering,
    /// The KNN graph built in phase 1 (kept because the paper reuses it for
    /// ANN search, Sec. 4.3).
    pub graph: KnnGraph,
    /// Cost statistics of phase 1.
    pub graph_stats: GraphBuildStats,
    /// Wall-clock time of phase 1 (graph construction).
    pub graph_time: Duration,
}

impl PipelineOutcome {
    /// Total initialisation time in the sense of Tab. 2: graph construction
    /// plus the clustering initialisation (2M tree).
    pub fn init_time(&self) -> Duration {
        self.graph_time + self.clustering.init_time
    }

    /// Iteration time in the sense of Tab. 2.
    pub fn iter_time(&self) -> Duration {
        self.clustering.iter_time
    }

    /// Total wall-clock time of both phases.
    pub fn total_time(&self) -> Duration {
        self.graph_time + self.clustering.total_time()
    }
}

/// Two-phase GK-means driver.
#[derive(Clone, Debug)]
pub struct GkMeansPipeline {
    /// Shared parameters for both phases.
    pub params: GkParams,
}

impl GkMeansPipeline {
    /// Creates the pipeline.
    pub fn new(params: GkParams) -> Self {
        Self { params }
    }

    /// Clusters `data` into `k` clusters: builds the graph (Alg. 3), then runs
    /// GK-means (Alg. 2) on top of it.
    ///
    /// # Panics
    ///
    /// Panics when the parameters are invalid for `(data.len(), k)`.
    pub fn cluster(&self, data: &VectorSet, k: usize) -> PipelineOutcome {
        if let Err(msg) = self.params.validate(data.len(), k) {
            panic!("invalid GK-means parameters: {msg}");
        }
        let (graph, graph_stats) = KnnGraphBuilder::new(self.params).build(data);
        let graph_time = graph_stats.elapsed;
        let clustering = GkMeans::new(self.params).fit(data, k, &graph);
        PipelineOutcome {
            clustering,
            graph,
            graph_stats,
            graph_time,
        }
    }

    /// Clusters `data` with a caller-supplied graph (the "KGraph+GK-means"
    /// configuration of Fig. 4 / Tab. 2, where the graph comes from
    /// NN-Descent).  `graph_time` should be the time spent building that graph
    /// so the outcome's init/iter split stays comparable.
    pub fn cluster_with_graph(
        &self,
        data: &VectorSet,
        k: usize,
        graph: KnnGraph,
        graph_time: Duration,
    ) -> PipelineOutcome {
        if let Err(msg) = self.params.validate(data.len(), k) {
            panic!("invalid GK-means parameters: {msg}");
        }
        let clustering = GkMeans::new(self.params).fit(data, k, &graph);
        PipelineOutcome {
            clustering,
            graph,
            graph_stats: GraphBuildStats::default(),
            graph_time,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use knn_graph::nn_descent::{nn_descent, NnDescentParams};
    use rand::Rng;
    use vecstore::sample::rng_from_seed;

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
    fn end_to_end_pipeline_produces_sensible_clusters() {
        let data = clustered(400, 8, 8, 1);
        let params = GkParams::default()
            .kappa(8)
            .xi(20)
            .tau(4)
            .iterations(10)
            .seed(2);
        let outcome = GkMeansPipeline::new(params).cluster(&data, 8);
        assert_eq!(outcome.clustering.labels.len(), 400);
        assert_eq!(outcome.clustering.k(), 8);
        assert!(outcome.clustering.non_empty_clusters() >= 7);
        // clusters are tight: every latent group has diameter ~1.2, groups are ≥6 apart
        assert!(outcome.clustering.distortion(&data) < 5.0);
        assert!(outcome.graph.len() == 400);
        assert!(outcome.graph_stats.rounds == 4);
        assert!(outcome.total_time() >= outcome.iter_time());
        assert!(outcome.init_time() >= outcome.graph_time);
    }

    #[test]
    fn pipeline_with_external_graph_matches_interface() {
        let data = clustered(250, 6, 5, 3);
        let graph = nn_descent(&data, &NnDescentParams::with_k(6));
        // k = 5 over five latent groups has a second optimum (two groups
        // merged, one cut, distortion ≈ 22 against ≈ 0.7) that about one seed
        // in four ends in, so the recovery bound is on the median seed.
        let mut distortions = Vec::new();
        for seed in 1..=7u64 {
            let params = GkParams::default().kappa(6).iterations(8).seed(seed);
            let outcome = GkMeansPipeline::new(params).cluster_with_graph(
                &data,
                5,
                graph.clone(),
                Duration::from_millis(1),
            );
            assert_eq!(outcome.clustering.k(), 5);
            assert_eq!(outcome.graph_time, Duration::from_millis(1));
            distortions.push(outcome.clustering.distortion(&data));
        }
        distortions.sort_by(f64::total_cmp);
        assert!(distortions[3] < 10.0, "{distortions:?}");
    }

    #[test]
    fn trace_is_available_for_figure5_style_plots() {
        let data = clustered(200, 6, 4, 5);
        let params = GkParams::default()
            .kappa(6)
            .xi(20)
            .tau(3)
            .iterations(6)
            .seed(6);
        let outcome = GkMeansPipeline::new(params).cluster(&data, 4);
        assert!(!outcome.clustering.trace.is_empty());
        assert!(outcome.clustering.trace.len() <= 6);
        // elapsed times recorded in the trace are monotone
        let times: Vec<f64> = outcome
            .clustering
            .trace
            .iter()
            .map(|t| t.elapsed_secs)
            .collect();
        for w in times.windows(2) {
            assert!(w[1] >= w[0]);
        }
    }

    #[test]
    #[should_panic(expected = "invalid GK-means parameters")]
    fn invalid_k_panics() {
        let data = clustered(50, 4, 2, 7);
        let _ = GkMeansPipeline::new(GkParams::default()).cluster(&data, 0);
    }
}
