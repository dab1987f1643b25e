//! KNN-graph construction by fast k-means (Alg. 3).
//!
//! The intertwined evolving process of Sec. 4.3 / Fig. 3:
//!
//! ```text
//!   G⁰ ← random lists
//!   repeat τ times:
//!       S ← GK-means(X, n/ξ, Gᵗ)          (one clustering pass guided by Gᵗ)
//!       for every cluster S_m ∈ S:
//!           exhaustively compare the pairs inside S_m
//!           and update Gᵗ with any closer pair found
//! ```
//!
//! Each round improves the graph, which improves the next round's clusters,
//! which improves the graph again (Fig. 2).  The per-round complexity is
//! `O(d·n·log(n/ξ) + d·n·κ + d·n·ξ)` (Sec. 4.5) and the graph it produces —
//! unlike NN-Descent's — carries the intermediate clustering structure, which
//! is why GK-means converges to slightly lower distortion with it (Fig. 4,
//! Tab. 2).

use std::time::{Duration, Instant};

use fxhash::FxHashSet;
use vecstore::kernels;
use vecstore::VectorSet;

use knn_graph::random::random_graph;
use knn_graph::KnnGraph;

use crate::gk::GkMeans;
use crate::params::GkParams;

/// Statistics of one construction run.
#[derive(Clone, Debug, Default)]
pub struct GraphBuildStats {
    /// Number of executed rounds (== τ unless the caller stopped early).
    pub rounds: usize,
    /// Total number of pairwise distance evaluations in the refinement steps.
    pub refine_distance_evals: u64,
    /// Total number of candidate-cluster evaluations inside the GK-means calls.
    pub clustering_distance_evals: u64,
    /// Number of graph-list updates that actually improved a list.
    pub graph_updates: u64,
    /// Wall-clock time of the whole construction.
    pub elapsed: Duration,
}

/// Per-round observation handed to [`KnnGraphBuilder::build_with_observer`];
/// Fig. 2 plots exactly these quantities against τ.
#[derive(Clone, Copy, Debug)]
pub struct RoundInfo {
    /// Round index (1-based, matching the τ axis of Fig. 2).
    pub round: usize,
    /// Average distortion of the clustering produced in this round.
    pub distortion: f64,
    /// Cumulative wall-clock seconds since construction started.
    pub elapsed_secs: f64,
}

/// Builder implementing Alg. 3.
#[derive(Clone, Debug)]
pub struct KnnGraphBuilder {
    /// Pipeline parameters; the fields used here are `xi`, `tau`, `kappa`,
    /// `seed`, `mode` and `dedup_pairs`.
    pub params: GkParams,
    /// Neighbour-list size of the produced graph; defaults to `params.kappa`.
    pub graph_k: usize,
}

impl KnnGraphBuilder {
    /// Creates a builder producing a graph with κ = `params.kappa` neighbours.
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

    /// Number of construction clusters `k₀ = ⌊n/ξ⌋` (Alg. 3 line 5), clamped
    /// to at least 1 and at most `n`.
    pub fn construction_clusters(&self, n: usize) -> usize {
        (n / self.params.xi.max(2)).clamp(1, n.max(1))
    }

    /// Runs Alg. 3 and returns the graph plus cost statistics.
    pub fn build(&self, data: &VectorSet) -> (KnnGraph, GraphBuildStats) {
        self.run(data, None)
    }

    /// Runs Alg. 3, invoking `observer` after every round with the round's
    /// clustering distortion — the hook used to regenerate Fig. 2.  The
    /// distortion costs a pass over the data per round that
    /// [`build`](Self::build) does not pay.
    pub fn build_with_observer(
        &self,
        data: &VectorSet,
        mut observer: impl FnMut(RoundInfo),
    ) -> (KnnGraph, GraphBuildStats) {
        self.run(data, Some(&mut observer))
    }

    fn run(
        &self,
        data: &VectorSet,
        mut observer: Option<&mut dyn FnMut(RoundInfo)>,
    ) -> (KnnGraph, GraphBuildStats) {
        let n = data.len();
        let mut stats = GraphBuildStats::default();
        let start = Instant::now();
        if n == 0 {
            return (KnnGraph::empty(0, self.graph_k), stats);
        }

        // Alg. 3 line 4: random initial graph.
        let mut graph = random_graph(
            data,
            self.graph_k.min(n.saturating_sub(1)),
            self.params.seed,
        );
        let k0 = self.construction_clusters(n);

        // The GK-means call inside the construction runs a single optimisation
        // pass (Sec. 4.5: "t is fixed to 1 in the KNN graph construction").
        let inner_params = self
            .params
            .iterations(1)
            .record_trace(false)
            .kappa(self.params.kappa.min(self.graph_k));

        // The visited-pair set sits inside the innermost refinement loop;
        // Fx hashing keeps the membership test far cheaper than SipHash.
        let mut visited: FxHashSet<u64> = FxHashSet::default();
        let mut partners: Vec<u32> = Vec::new();
        let mut dists: Vec<f32> = Vec::new();
        let dim = data.dim();
        for round in 0..self.params.tau {
            stats.rounds = round + 1;
            // Alg. 3 line 7: cluster the data guided by the current graph.
            let clustering = GkMeans::new(inner_params.seed(self.params.seed ^ (round as u64 + 1)))
                .fit(data, k0, &graph);
            stats.clustering_distance_evals += clustering.distance_evals;

            // Alg. 3 lines 8–14: exhaustive comparison inside every cluster.
            // For each anchor sample the non-deduplicated partners are scored
            // in one batched gather, then merged into the graph in the same
            // order the scalar loop used.
            let mut members: Vec<Vec<u32>> = vec![Vec::new(); k0];
            for (i, &label) in clustering.labels.iter().enumerate() {
                members[label].push(i as u32);
            }
            for cluster in &members {
                for (a_idx, &i) in cluster.iter().enumerate() {
                    partners.clear();
                    for &j in cluster.iter().skip(a_idx + 1) {
                        if self.params.dedup_pairs && !visited.insert(pair_key(i, j)) {
                            continue;
                        }
                        partners.push(j);
                    }
                    if partners.is_empty() {
                        continue;
                    }
                    dists.resize(partners.len(), 0.0);
                    kernels::l2_sq_one_to_many_indexed(
                        data.row(i as usize),
                        data.as_flat(),
                        dim,
                        &partners,
                        &mut dists,
                    );
                    stats.refine_distance_evals += partners.len() as u64;
                    for (&j, &d) in partners.iter().zip(&dists) {
                        stats.graph_updates += graph.update_pair(i as usize, j as usize, d) as u64;
                    }
                }
            }

            if let Some(observer) = observer.as_mut() {
                observer(RoundInfo {
                    round: round + 1,
                    distortion: clustering.distortion(data),
                    elapsed_secs: start.elapsed().as_secs_f64(),
                });
            }
        }

        stats.elapsed = start.elapsed();
        (graph, stats)
    }
}

/// Canonical key of an unordered pair for the visited-set (Alg. 3 line 10).
#[inline]
fn pair_key(i: u32, j: u32) -> u64 {
    let (lo, hi) = if i < j { (i, j) } else { (j, i) };
    (u64::from(hi) << 32) | u64::from(lo)
}

#[cfg(test)]
mod tests {
    use super::*;
    use knn_graph::brute::exact_graph;
    use knn_graph::recall::graph_recall_at_1;
    use rand::Rng;
    use vecstore::distance::l2_sq;
    use vecstore::sample::rng_from_seed;

    fn clustered(n: usize, dim: usize, groups: usize, seed: u64) -> VectorSet {
        let mut rng = rng_from_seed(seed);
        let mut rows = Vec::with_capacity(n);
        for i in 0..n {
            let g = i % groups;
            let mut row = Vec::with_capacity(dim);
            for d in 0..dim {
                let centre = ((g * 7 + d) % 13) as f32 * 4.0;
                row.push(centre + rng.gen_range(-0.5..0.5));
            }
            rows.push(row);
        }
        VectorSet::from_rows(rows).unwrap()
    }

    #[test]
    fn pair_key_is_symmetric_and_unique() {
        assert_eq!(pair_key(3, 9), pair_key(9, 3));
        assert_ne!(pair_key(3, 9), pair_key(3, 10));
        assert_ne!(pair_key(0, 1), pair_key(1, 2));
    }

    #[test]
    fn construction_cluster_count_follows_xi() {
        let builder = KnnGraphBuilder::new(GkParams::default().xi(50));
        assert_eq!(builder.construction_clusters(5_000), 100);
        assert_eq!(builder.construction_clusters(49), 1);
        let builder = KnnGraphBuilder::new(GkParams::default().xi(10));
        assert_eq!(builder.construction_clusters(500), 50);
    }

    #[test]
    fn recall_improves_over_random_and_over_rounds() {
        let data = clustered(600, 8, 12, 1);
        let exact = exact_graph(&data, 5);
        let random = random_graph(&data, 5, 99);
        let random_recall = graph_recall_at_1(&random, &exact);

        let params = GkParams::default().xi(20).tau(6).kappa(5).seed(2);
        let mut per_round = Vec::new();
        let (graph, stats) = KnnGraphBuilder::new(params)
            .graph_k(5)
            .build_with_observer(&data, |info| per_round.push(info.distortion));
        let recall = graph_recall_at_1(&graph, &exact);
        assert!(stats.rounds == 6);
        assert!(stats.refine_distance_evals > 0);
        assert!(stats.graph_updates > 0);
        assert!(
            recall > random_recall + 0.3,
            "built {recall} vs random {random_recall}"
        );
        assert!(recall > 0.6, "expected decent recall, got {recall}");
        // Fig. 2's qualitative claim: clustering distortion drops as τ grows.
        assert_eq!(per_round.len(), 6);
        assert!(
            per_round.last().unwrap() <= per_round.first().unwrap(),
            "{per_round:?}"
        );
    }

    #[test]
    fn dedup_avoids_recomputing_pairs() {
        let data = clustered(300, 6, 6, 3);
        let params = GkParams::default().xi(15).tau(4).kappa(4).seed(5);
        let (_, with_dedup) = KnnGraphBuilder::new(params).graph_k(4).build(&data);
        let (_, without_dedup) = KnnGraphBuilder::new(params.dedup_pairs(false))
            .graph_k(4)
            .build(&data);
        assert!(
            with_dedup.refine_distance_evals < without_dedup.refine_distance_evals,
            "dedup {} vs no-dedup {}",
            with_dedup.refine_distance_evals,
            without_dedup.refine_distance_evals
        );
    }

    #[test]
    fn graphs_store_exact_distances_for_their_edges() {
        let data = clustered(200, 4, 5, 7);
        let (graph, _) = KnnGraphBuilder::new(GkParams::default().xi(10).tau(3).kappa(4).seed(7))
            .graph_k(4)
            .build(&data);
        for (i, list) in graph.iter() {
            for nb in list.as_slice() {
                let expect = l2_sq(data.row(i), data.row(nb.id as usize));
                assert!((nb.dist - expect).abs() < 1e-5);
            }
        }
    }

    #[test]
    fn handles_tiny_and_empty_datasets() {
        let empty = VectorSet::zeros(0, 4).unwrap();
        let (g, stats) = KnnGraphBuilder::new(GkParams::default().tau(2)).build(&empty);
        assert_eq!(g.len(), 0);
        assert_eq!(stats.rounds, 0);

        let tiny = clustered(8, 3, 2, 9);
        let (g, _) = KnnGraphBuilder::new(GkParams::default().xi(4).tau(2).kappa(3).seed(1))
            .graph_k(3)
            .build(&tiny);
        assert_eq!(g.len(), 8);
        assert!(g.mean_degree() > 0.0);
    }

    #[test]
    fn deterministic_per_seed() {
        let data = clustered(150, 6, 5, 11);
        let params = GkParams::default().xi(15).tau(3).kappa(4).seed(21);
        let (a, _) = KnnGraphBuilder::new(params).graph_k(4).build(&data);
        let (b, _) = KnnGraphBuilder::new(params).graph_k(4).build(&data);
        for i in 0..data.len() {
            assert_eq!(
                a.neighbors(i).ids().collect::<Vec<_>>(),
                b.neighbors(i).ids().collect::<Vec<_>>()
            );
        }
    }
}
