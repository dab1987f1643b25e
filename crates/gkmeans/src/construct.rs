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
//!
//! # No visited-pair set
//!
//! Alg. 3 line 10 compares a pair only "if <i,j> is NOT visited", that is, not
//! already compared in an earlier round.  Here every in-cluster pair is
//! scored every round instead, because offering a pair again can never change
//! the graph:
//!
//! * the anchor of a pair is always its lower sample index (member lists are
//!   built in index order), so a pair's distance has the same bits every
//!   round — and the same bits as the random initial graph's `l2_sq`, the
//!   pair kernel being symmetric to the bit;
//! * [`NeighborList::insert`](knn_graph::NeighborList::insert) rejects a
//!   candidate whose distance is not below the list's upper bound, and that
//!   bound never rises once the list is full;
//! * it rejects an id the list already holds.
//!
//! So an offer rejected once is rejected again, and an accepted one is either
//! still in its list (a duplicate) or was pushed out by entries that keep the
//! bound at or below its distance.  The graph is bit for bit the one a
//! visited set would produce; scoring a pair again costs one kernel call,
//! less than hashing it into a set did.
//!
//! # One refinement path at any thread count
//!
//! [`KnnGraphBuilder`] is the only Alg. 3 builder, and `params.threads` only
//! decides how many workers score pairs.  Every round cuts each cluster's
//! anchors (members with a later co-member) into fixed blocks of
//! `REFINE_ANCHOR_BLOCK` anchors, in (cluster, anchor) order.  The blocks
//! fill their own distance buffers on the worker pool, and the buffers are
//! then merged into the graph sequentially, in block order.  A pair's
//! distance comes from the same kernel call whichever worker makes it, and
//! block boundaries never depend on the thread count, so the graph and the
//! statistics are bit for bit the same at any `threads`.

use std::time::{Duration, Instant};

use vecstore::kernels;
use vecstore::parallel::effective_threads;
use vecstore::VectorSet;

use knn_graph::random::random_graph;
use knn_graph::KnnGraph;

use crate::gk::GkMeans;
use crate::params::GkParams;
use crate::two_means::on_blocks;

/// Anchors per refinement work item: small enough that one oversized
/// cluster splits into many items, large enough to amortise a block's
/// bookkeeping.
const REFINE_ANCHOR_BLOCK: usize = 64;

/// Statistics of one construction run.
#[derive(Clone, Debug, Default)]
pub struct GraphBuildStats {
    /// Number of executed rounds (== τ unless the caller stopped early).
    pub rounds: usize,
    /// Pairwise distance evaluations in the refinement steps: every scored
    /// pair, `Σ m(m − 1)/2` over the clusters of `m` members of every round.
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
    /// `seed`, `mode` and `threads`.
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

        let threads = effective_threads(self.params.threads);
        let dim = data.dim();
        // `(cluster, first anchor, end anchor)` per block, and each block's
        // distances; both reused by every round.
        let mut blocks: Vec<(usize, usize, usize)> = Vec::new();
        let mut dists: Vec<Vec<f32>> = Vec::new();
        for round in 0..self.params.tau {
            stats.rounds = round + 1;
            // Alg. 3 line 7: cluster the data guided by the current graph.
            let clustering = GkMeans::new(inner_params.seed(self.params.seed ^ (round as u64 + 1)))
                .fit(data, k0, &graph);
            stats.clustering_distance_evals += clustering.distance_evals;

            // Alg. 3 lines 8–14: exhaustive comparison inside every cluster.
            // Each anchor's later co-members are scored in one batched
            // gather into its block's buffer ...
            let mut members: Vec<Vec<u32>> = vec![Vec::new(); k0];
            for (i, &label) in clustering.labels.iter().enumerate() {
                members[label].push(i as u32);
            }
            blocks.clear();
            for (c, cluster) in members.iter().enumerate() {
                let anchors = cluster.len().saturating_sub(1);
                for lo in (0..anchors).step_by(REFINE_ANCHOR_BLOCK) {
                    blocks.push((c, lo, (lo + REFINE_ANCHOR_BLOCK).min(anchors)));
                }
            }
            if dists.len() < blocks.len() {
                dists.resize_with(blocks.len(), Vec::new);
            }
            on_blocks(threads, &mut dists[..blocks.len()], |b, buf| {
                let (c, lo, hi) = blocks[b];
                let cluster = &members[c];
                buf.clear();
                for a in lo..hi {
                    let partners = &cluster[a + 1..];
                    let start = buf.len();
                    buf.resize(start + partners.len(), 0.0);
                    kernels::l2_sq_one_to_many_indexed(
                        data.row(cluster[a] as usize),
                        data.as_flat(),
                        dim,
                        partners,
                        &mut buf[start..],
                    );
                }
            });
            // ... and the buffers are merged into the graph in block order.
            for (&(c, lo, hi), buf) in blocks.iter().zip(&dists) {
                let cluster = &members[c];
                let mut rest = buf.as_slice();
                for a in lo..hi {
                    let (i, partners) = (cluster[a] as usize, &cluster[a + 1..]);
                    let (head, tail) = rest.split_at(partners.len());
                    for (&j, &d) in partners.iter().zip(head) {
                        stats.graph_updates += graph.update_pair(i, j as usize, d) as u64;
                    }
                    rest = tail;
                }
                stats.refine_distance_evals += buf.len() as u64;
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

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::HashSet;

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

    /// What the reference below saw: every round's in-cluster pair count
    /// `Σ m(m − 1)/2`, and how many clusters had a single member.
    struct ReferenceCounts {
        all_pairs: u64,
        singletons: usize,
    }

    /// Alg. 3 as the paper writes it: a pair is compared only if no earlier
    /// round compared it, remembered in a visited set.
    fn build_with_visited_set(
        params: GkParams,
        graph_k: usize,
        data: &VectorSet,
    ) -> (KnnGraph, ReferenceCounts) {
        let builder = KnnGraphBuilder::new(params).graph_k(graph_k);
        let n = data.len();
        let mut graph = random_graph(data, builder.graph_k.min(n - 1), params.seed);
        let k0 = builder.construction_clusters(n);
        let inner = params
            .iterations(1)
            .record_trace(false)
            .kappa(params.kappa.min(builder.graph_k));
        let mut visited: HashSet<(u32, u32)> = HashSet::new();
        let mut counts = ReferenceCounts {
            all_pairs: 0,
            singletons: 0,
        };
        for round in 0..params.tau {
            let clustering =
                GkMeans::new(inner.seed(params.seed ^ (round as u64 + 1))).fit(data, k0, &graph);
            let mut members: Vec<Vec<u32>> = vec![Vec::new(); k0];
            for (i, &label) in clustering.labels.iter().enumerate() {
                members[label].push(i as u32);
            }
            for cluster in &members {
                let m = cluster.len() as u64;
                counts.all_pairs += m * m.saturating_sub(1) / 2;
                counts.singletons += usize::from(m == 1);
                for (a_idx, &i) in cluster.iter().enumerate() {
                    for &j in &cluster[a_idx + 1..] {
                        if visited.insert((i, j)) {
                            let d = l2_sq(data.row(i as usize), data.row(j as usize));
                            graph.update_pair(i as usize, j as usize, d);
                        }
                    }
                }
            }
        }
        (graph, counts)
    }

    #[test]
    fn scoring_every_pair_builds_the_visited_set_graph_bit_for_bit() {
        // (n, dim, groups, data seed, ξ, τ, κ, params seed); ξ = 2 and 3 cut
        // the data into clusters of two or three, which the one GK-means pass
        // per round leaves with 1-member clusters.
        let shapes = [
            (300, 6, 6, 3, 15, 4, 4, 5),
            (200, 4, 5, 7, 10, 3, 4, 7),
            (240, 8, 12, 1, 20, 5, 6, 2),
            (150, 5, 3, 11, 2, 4, 3, 21),
            (120, 3, 4, 13, 3, 5, 4, 9),
        ];
        let mut singletons = 0;
        for (n, dim, groups, data_seed, xi, tau, kappa, seed) in shapes {
            let data = clustered(n, dim, groups, data_seed);
            let params = GkParams::default().xi(xi).tau(tau).kappa(kappa).seed(seed);
            let (graph, stats) = KnnGraphBuilder::new(params).graph_k(kappa).build(&data);
            let (reference, counts) = build_with_visited_set(params, kappa, &data);
            for i in 0..n {
                let bits = |g: &KnnGraph| -> Vec<(u32, u32)> {
                    g.neighbors(i)
                        .as_slice()
                        .iter()
                        .map(|nb| (nb.id, nb.dist.to_bits()))
                        .collect()
                };
                assert_eq!(bits(&graph), bits(&reference), "n={n} ξ={xi}: list {i}");
            }
            assert_eq!(
                stats.refine_distance_evals, counts.all_pairs,
                "n={n} ξ={xi}"
            );
            singletons += counts.singletons;
        }
        assert!(singletons > 0, "no shape produced a 1-member cluster");
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
