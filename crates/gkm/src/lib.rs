//! `gkm` — facade crate of the GK-means reproduction.
//!
//! Re-exports the full public API of the workspace so downstream users can
//! depend on a single crate:
//!
//! * [`vecstore`] — vector storage, distance kernels, dataset I/O;
//! * [`datagen`] — synthetic SIFT/GIST/GloVe/VLAD-like workload generators;
//! * [`knn_graph`] — KNN graph structure, exact construction, NN-Descent;
//! * [`baselines`] — Lloyd, k-means++, Mini-Batch, closure k-means, bisecting,
//!   Elkan and Hamerly baselines;
//! * [`gkmeans`] — the paper's contribution: boost k-means, the two-means
//!   tree, GK-means (Alg. 2) and graph construction by fast k-means (Alg. 3);
//! * [`anns`] — graph-based approximate nearest-neighbour search;
//! * [`ivf`] — the cluster-backed inverted-file serving index (batched
//!   multi-probe search with on-disk persistence);
//! * [`eval`] — distortion, recall, co-occurrence and reporting utilities.
//!
//! The [`prelude`] pulls in the handful of types most programs need.
//!
//! ```
//! use gkm::prelude::*;
//!
//! let workload = Workload::generate_with_n(PaperDataset::Sift100K, 2_000, 7);
//! let params = GkParams::default().kappa(10).xi(25).tau(3).iterations(10);
//! let outcome = GkMeansPipeline::new(params).cluster(&workload.data, 20);
//! let distortion = average_distortion(
//!     &workload.data,
//!     &outcome.clustering.labels,
//!     &outcome.clustering.centroids,
//! );
//! assert!(distortion.is_finite());
//! ```

#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

pub use anns;
pub use baselines;
pub use datagen;
pub use eval;
pub use gkmeans;
pub use ivf;
pub use knn_graph;
pub use vecstore;

/// The most commonly used types, re-exported flat.
pub mod prelude {
    pub use anns::eval::SearchReport;
    pub use anns::{evaluate as evaluate_anns, AnnsReport, GraphSearcher, SearchParams};
    pub use baselines::akm::ApproximateKMeans;
    pub use baselines::bisecting::BisectingKMeans;
    pub use baselines::closure::ClosureKMeans;
    pub use baselines::common::{Clustering, IterationStat, KMeansConfig};
    pub use baselines::elkan::ElkanKMeans;
    pub use baselines::hamerly::HamerlyKMeans;
    pub use baselines::hkm::{HierarchicalKMeans, HkmTree};
    pub use baselines::kdtree::{KdForestParams, KdTreeForest};
    pub use baselines::lloyd::LloydKMeans;
    pub use baselines::minibatch::MiniBatchKMeans;
    pub use baselines::seeding::Seeding;
    pub use datagen::{DatasetSpec, DescriptorFamily, GmmDataset, PaperDataset, Workload};
    pub use eval::{average_distortion, cooccurrence_by_rank, PhaseTimer, Series, Table};
    pub use gkmeans::{
        BoostKMeans, ClusterState, GkMeans, GkMeansPipeline, GkMode, GkParams, KnnGraphBuilder,
        PipelineOutcome,
    };
    pub use ivf::{evaluate as evaluate_ivf, IvfIndex, IvfReport, IvfSearchParams};
    pub use knn_graph::brute::{exact_graph, exact_ground_truth};
    pub use knn_graph::nn_descent::{nn_descent, NnDescentParams};
    pub use knn_graph::nsw::{nsw_build, NswParams};
    pub use knn_graph::recall::{graph_recall_at_1, graph_recall_at_r};
    pub use knn_graph::{KnnGraph, Neighbor};
    pub use vecstore::VectorSet;
}

#[cfg(test)]
mod tests {
    use super::prelude::*;

    #[test]
    fn prelude_types_compose() {
        let workload = Workload::generate_with_n(PaperDataset::Glove1M, 1_000, 3);
        assert_eq!(workload.data.dim(), 100);
        let cfg = KMeansConfig::with_k(8).max_iters(3).record_trace(false);
        let lloyd = LloydKMeans::new(cfg).fit(&workload.data);
        assert_eq!(lloyd.labels.len(), 1_000);
    }
}
