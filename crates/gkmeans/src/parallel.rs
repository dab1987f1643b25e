//! Data-parallel variant of the KNN-graph construction (Alg. 3).
//!
//! The paper's measurements are single-threaded (Sec. 5: "simulations are
//! conducted by single thread"), and every *measured* code path in this
//! workspace honours that.  The refinement step of Alg. 3, however, is
//! embarrassingly parallel — the exhaustive pair comparisons inside different
//! clusters touch disjoint sample pairs — so a practical deployment would run
//! it on all cores.  This module provides that variant:
//!
//! * the per-round clustering call stays sequential (it is the paper's own
//!   GK-means, and its incremental moves are order-dependent);
//! * the intra-cluster pair comparisons of each round run on a rayon pool,
//!   producing per-cluster candidate edges that are merged into the graph
//!   sequentially afterwards.
//!
//! The merge order is fixed (cluster index, then pair order), so the produced
//! graph is **bit-for-bit identical** to the sequential builder's for the same
//! parameters — the equivalence test below enforces it.  This makes the
//! parallel builder a drop-in replacement whose only observable difference is
//! wall-clock time.

use std::time::Instant;

use rayon::prelude::*;

use vecstore::distance::l2_sq;
use vecstore::kernels;
use vecstore::VectorSet;

use knn_graph::random::random_graph;
use knn_graph::KnnGraph;

use crate::construct::{GraphBuildStats, KnnGraphBuilder, RoundInfo};
use crate::gk::GkMeans;
use crate::params::GkParams;

/// Anchor rows per parallel work item: small enough that a skewed cluster
/// splits into many items (load balance), large enough to amortise the
/// per-item bookkeeping.
const REFINE_ANCHOR_BLOCK: usize = 64;

/// Parallel counterpart of [`KnnGraphBuilder`]: same algorithm, same output,
/// refinement distances computed on a rayon thread pool, parallelised over
/// blocks of anchor rows rather than whole clusters.
#[derive(Clone, Debug)]
pub struct ParallelKnnGraphBuilder {
    /// Pipeline parameters (the same fields as the sequential builder).
    pub params: GkParams,
    /// Neighbour-list size of the produced graph; defaults to `params.kappa`.
    pub graph_k: usize,
}

impl ParallelKnnGraphBuilder {
    /// Creates a parallel builder producing a graph with κ = `params.kappa`
    /// neighbours.
    pub fn new(params: GkParams) -> Self {
        Self {
            graph_k: params.kappa,
            params,
        }
    }

    /// Overrides the neighbour-list size of the produced graph.
    #[must_use]
    pub fn graph_k(mut self, graph_k: usize) -> Self {
        self.graph_k = graph_k.max(1);
        self
    }

    /// Runs Alg. 3 with parallel refinement and returns the graph plus cost
    /// statistics (identical in meaning to the sequential builder's).
    pub fn build(&self, data: &VectorSet) -> (KnnGraph, GraphBuildStats) {
        self.build_with_observer(data, |_| {})
    }

    /// [`ParallelKnnGraphBuilder::build`] with a per-round observer (Fig. 2).
    pub fn build_with_observer(
        &self,
        data: &VectorSet,
        mut observer: impl FnMut(RoundInfo),
    ) -> (KnnGraph, GraphBuildStats) {
        let n = data.len();
        let mut stats = GraphBuildStats::default();
        let start = Instant::now();
        if n == 0 {
            return (KnnGraph::empty(0, self.graph_k), stats);
        }

        let mut graph = random_graph(
            data,
            self.graph_k.min(n.saturating_sub(1)),
            self.params.seed,
        );
        let k0 = sequential_equivalent(self).construction_clusters(n);

        let inner_params = self
            .params
            .iterations(1)
            .record_trace(false)
            .kappa(self.params.kappa.min(self.graph_k));

        for round in 0..self.params.tau {
            stats.rounds = round + 1;
            let clustering = GkMeans::new(inner_params.seed(self.params.seed ^ (round as u64 + 1)))
                .fit(data, k0, &graph);
            stats.clustering_distance_evals += clustering.distance_evals;

            // Gather cluster membership, then split every cluster's anchor
            // rows into fixed-size row blocks and compute the blocks'
            // candidate edges in parallel.  Row blocks (rather than whole
            // clusters) keep the workers load-balanced when the clustering is
            // skewed: one oversized cluster becomes many independent work
            // items instead of one straggler.
            let mut members: Vec<Vec<u32>> = vec![Vec::new(); k0];
            for (i, &label) in clustering.labels.iter().enumerate() {
                members[label].push(i as u32);
            }
            // Work items in (cluster, anchor block) order — the same order the
            // sequential builder walks, so the merge below reproduces its
            // graph bit for bit.
            let mut work: Vec<(usize, usize, usize)> = Vec::new();
            for (ci, cluster) in members.iter().enumerate() {
                let mut start = 0usize;
                while start < cluster.len() {
                    let end = (start + REFINE_ANCHOR_BLOCK).min(cluster.len());
                    work.push((ci, start, end));
                    start = end;
                }
            }

            let members_ref = &members;
            let dim = data.dim();
            let per_block: Vec<Vec<(u32, u32, f32)>> = work
                .par_iter()
                .map(|&(ci, start, end)| {
                    let cluster = &members_ref[ci];
                    let mut edges = Vec::new();
                    let mut dists: Vec<f32> = Vec::new();
                    for (a_idx, &i) in cluster.iter().enumerate().take(end).skip(start) {
                        let partners = &cluster[a_idx + 1..];
                        if partners.is_empty() {
                            continue;
                        }
                        dists.resize(partners.len(), 0.0);
                        kernels::l2_sq_one_to_many_indexed(
                            data.row(i as usize),
                            data.as_flat(),
                            dim,
                            partners,
                            &mut dists,
                        );
                        for (&j, &d) in partners.iter().zip(&dists) {
                            edges.push((i, j, d));
                        }
                    }
                    edges
                })
                .collect();

            for edges in &per_block {
                for &(i, j, d) in edges {
                    stats.refine_distance_evals += 1;
                    stats.graph_updates += graph.update_pair(i as usize, j as usize, d) as u64;
                }
            }

            observer(RoundInfo {
                round: round + 1,
                distortion: clustering.distortion(data),
                elapsed_secs: start.elapsed().as_secs_f64(),
            });
        }

        stats.elapsed = start.elapsed();
        (graph, stats)
    }
}

/// The sequential builder with the same configuration (used for the cluster
/// count helper and by the equivalence tests).
fn sequential_equivalent(parallel: &ParallelKnnGraphBuilder) -> KnnGraphBuilder {
    KnnGraphBuilder::new(parallel.params).graph_k(parallel.graph_k)
}

/// Computes the average distortion of a labelling in parallel — a helper for
/// harness binaries that need to evaluate large clusterings quickly without
/// touching the measured code paths.
pub fn par_average_distortion(data: &VectorSet, labels: &[usize], centroids: &VectorSet) -> f64 {
    assert_eq!(data.len(), labels.len(), "label count mismatch");
    if data.is_empty() {
        return 0.0;
    }
    let sum: f64 = (0..data.len())
        .into_par_iter()
        .map(|i| f64::from(l2_sq(data.row(i), centroids.row(labels[i]))))
        .sum();
    sum / data.len() as f64
}

#[cfg(test)]
mod tests {
    use super::*;
    use baselines::common::average_distortion;
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
    fn parallel_builder_matches_sequential_graph_exactly() {
        let data = clustered(500, 8, 10, 1);
        let params = GkParams::default().xi(20).tau(4).kappa(6).seed(3);
        let (seq, seq_stats) = KnnGraphBuilder::new(params).graph_k(6).build(&data);
        let (par, par_stats) = ParallelKnnGraphBuilder::new(params).graph_k(6).build(&data);
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
        let params = GkParams::default().xi(20).tau(5).kappa(4).seed(11);
        let mut rounds = Vec::new();
        let (_, stats) = ParallelKnnGraphBuilder::new(params)
            .graph_k(4)
            .build_with_observer(&data, |info| rounds.push(info.round));
        assert_eq!(rounds, vec![1, 2, 3, 4, 5]);
        assert_eq!(stats.rounds, 5);
    }

    #[test]
    fn par_distortion_matches_sequential() {
        let data = clustered(400, 7, 8, 13);
        let labels: Vec<usize> = (0..data.len()).map(|i| i % 8).collect();
        let mut centroids = VectorSet::zeros(8, data.dim()).unwrap();
        baselines::common::recompute_centroids(&data, &labels, &mut centroids);
        let seq = average_distortion(&data, &labels, &centroids);
        let par = par_average_distortion(&data, &labels, &centroids);
        assert!((seq - par).abs() < 1e-9 * seq.max(1.0), "{seq} vs {par}");
    }

    #[test]
    fn empty_input_is_handled() {
        let empty = VectorSet::zeros(0, 4).unwrap();
        let (g, stats) = ParallelKnnGraphBuilder::new(GkParams::default().tau(2)).build(&empty);
        assert_eq!(g.len(), 0);
        assert_eq!(stats.rounds, 0);
        let centroids = VectorSet::zeros(1, 4).unwrap();
        assert_eq!(par_average_distortion(&empty, &[], &centroids), 0.0);
    }
}
