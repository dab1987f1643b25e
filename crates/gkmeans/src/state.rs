//! Incremental cluster state: labels, composite vectors, sizes and cached
//! composite norms.
//!
//! Boost k-means and GK-means move one sample at a time, so the state keeps
//! `D_r` (composite vector), `n_r` (size) and `D_r'·D_r` (cached norm²) per
//! cluster and updates them in `O(d)` per move.  Centroids are derived as
//! `C_r = D_r / n_r` only when requested.

use vecstore::distance::{dot, dot_f64_f32};
use vecstore::kernels;
use vecstore::VectorSet;

use crate::objective::{addition_gain, cluster_term, removal_gain};

/// Mutable cluster state shared by boost k-means and GK-means.
#[derive(Clone, Debug)]
pub struct ClusterState {
    labels: Vec<usize>,
    /// Composite vectors, `k × d`, stored in `f64` for numerical stability
    /// across millions of incremental updates.
    composite: Vec<f64>,
    /// Cached `D_r'·D_r`.
    composite_norm_sq: Vec<f64>,
    sizes: Vec<usize>,
    k: usize,
    dim: usize,
}

impl ClusterState {
    /// Builds the state from an initial labelling.
    ///
    /// # Panics
    ///
    /// Panics when a label is `>= k` or when `labels.len() != data.len()`.
    pub fn from_labels(data: &VectorSet, labels: Vec<usize>, k: usize) -> Self {
        assert_eq!(data.len(), labels.len(), "label count mismatch");
        assert!(k > 0, "k must be positive");
        let dim = data.dim();
        let mut composite = vec![0.0f64; k * dim];
        let mut sizes = vec![0usize; k];
        for (i, &l) in labels.iter().enumerate() {
            assert!(l < k, "label {l} out of range for k={k}");
            sizes[l] += 1;
            let row = data.row(i);
            let acc = &mut composite[l * dim..(l + 1) * dim];
            for (a, &x) in acc.iter_mut().zip(row) {
                *a += f64::from(x);
            }
        }
        let composite_norm_sq = (0..k)
            .map(|r| {
                composite[r * dim..(r + 1) * dim]
                    .iter()
                    .map(|v| v * v)
                    .sum()
            })
            .collect();
        Self {
            labels,
            composite,
            composite_norm_sq,
            sizes,
            k,
            dim,
        }
    }

    /// Number of clusters.
    #[inline]
    pub fn k(&self) -> usize {
        self.k
    }

    /// Number of samples.
    #[inline]
    pub fn len(&self) -> usize {
        self.labels.len()
    }

    /// `true` when the state tracks no samples.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.labels.is_empty()
    }

    /// Current label of sample `i`.
    #[inline]
    pub fn label(&self, i: usize) -> usize {
        self.labels[i]
    }

    /// All labels.
    #[inline]
    pub fn labels(&self) -> &[usize] {
        &self.labels
    }

    /// Size of cluster `r`.
    #[inline]
    pub fn size(&self, r: usize) -> usize {
        self.sizes[r]
    }

    /// Composite vector of cluster `r`.
    #[inline]
    pub fn composite(&self, r: usize) -> &[f64] {
        &self.composite[r * self.dim..(r + 1) * self.dim]
    }

    /// The boost-k-means objective `I = Σ_r D_r'·D_r / n_r` (Eqn. 2).
    pub fn objective(&self) -> f64 {
        (0..self.k)
            .map(|r| cluster_term(self.composite_norm_sq[r], self.sizes[r]))
            .sum()
    }

    /// Move gain `ΔI` (Eqn. 3) for moving sample `i` (with row `x`) from its
    /// current cluster to cluster `v`.  Returns `0.0` when `v` is already the
    /// sample's cluster.
    ///
    /// The evaluation costs two `d`-dimensional dot products (`D_u·x` and
    /// `D_v·x`) — the same order as one sample↔centroid distance, which is how
    /// the paper argues BKM has the same complexity as Lloyd's k-means.
    pub fn delta_move(&self, i: usize, x: &[f32], v: usize) -> f64 {
        let u = self.labels[i];
        if u == v {
            return 0.0;
        }
        let x_norm_sq = f64::from(dot(x, x));
        let du_dot_x = dot_f64_f32(self.composite(u), x);
        let dv_dot_x = dot_f64_f32(self.composite(v), x);
        removal_gain(
            self.composite_norm_sq[u],
            du_dot_x,
            x_norm_sq,
            self.sizes[u],
        ) + addition_gain(
            self.composite_norm_sq[v],
            dv_dot_x,
            x_norm_sq,
            self.sizes[v],
        )
    }

    /// Split of [`ClusterState::delta_move`] used when one sample is checked
    /// against many candidate clusters: the removal part depends only on the
    /// source cluster and is computed once.
    pub fn removal_part(&self, i: usize, x: &[f32]) -> f64 {
        let u = self.labels[i];
        let x_norm_sq = f64::from(dot(x, x));
        let du_dot_x = dot_f64_f32(self.composite(u), x);
        removal_gain(
            self.composite_norm_sq[u],
            du_dot_x,
            x_norm_sq,
            self.sizes[u],
        )
    }

    /// Addition part of `ΔI` for candidate cluster `v` (see
    /// [`ClusterState::removal_part`]).
    pub fn addition_part(&self, x: &[f32], v: usize) -> f64 {
        let x_norm_sq = f64::from(dot(x, x));
        let dv_dot_x = dot_f64_f32(self.composite(v), x);
        addition_gain(
            self.composite_norm_sq[v],
            dv_dot_x,
            x_norm_sq,
            self.sizes[v],
        )
    }

    /// Batched addition parts for a whole candidate set: `out[j]` receives the
    /// addition gain of moving `x` into `candidates[j]`.
    ///
    /// This is the GK-means inner loop (Alg. 2 line 12).  Compared to calling
    /// [`ClusterState::addition_part`] per candidate it computes `‖x‖²` once
    /// and streams the composite·sample dot products through the prefetching
    /// mixed-precision gather kernel — the candidate clusters are
    /// data-dependent, so the next composite row is software-prefetched while
    /// the current one is scored.
    ///
    /// # Panics
    ///
    /// Panics when `out.len() != candidates.len()`.
    pub fn addition_parts(&self, x: &[f32], candidates: &[usize], out: &mut [f64]) {
        assert_eq!(candidates.len(), out.len(), "candidate/output length");
        let x_norm_sq = f64::from(dot(x, x));
        kernels::dot_f64_f32_one_to_many_indexed(x, &self.composite, self.dim, candidates, out);
        for (slot, &v) in out.iter_mut().zip(candidates) {
            *slot = addition_gain(self.composite_norm_sq[v], *slot, x_norm_sq, self.sizes[v]);
        }
    }

    /// Applies the move of sample `i` (row `x`) to cluster `v`, updating
    /// composites, sizes and cached norms in `O(d)`.
    ///
    /// # Panics
    ///
    /// Panics when moving would empty a singleton *and* `v == u` (no-op moves
    /// are ignored instead).
    pub fn apply_move(&mut self, i: usize, x: &[f32], v: usize) {
        let u = self.labels[i];
        if u == v {
            return;
        }
        debug_assert!(self.sizes[u] >= 1);
        // update cached norms using ‖D ± x‖² = ‖D‖² ± 2 D·x + ‖x‖²
        // ‖x‖² is accumulated in f64 so the cached norm stays consistent with
        // the f64 composite vectors even when a cluster's composite cancels to
        // (near) zero — an f32-computed ‖x‖² leaves a residue that the drift
        // diagnostic (and, over millions of moves, the objective) would see.
        let x_norm_sq = norm_sq_f64(x);
        let du_dot_x = dot_f64_f32(self.composite(u), x);
        let dv_dot_x = dot_f64_f32(self.composite(v), x);
        self.composite_norm_sq[u] += -2.0 * du_dot_x + x_norm_sq;
        self.composite_norm_sq[v] += 2.0 * dv_dot_x + x_norm_sq;
        let dim = self.dim;
        {
            let cu = &mut self.composite[u * dim..(u + 1) * dim];
            for (c, &xv) in cu.iter_mut().zip(x) {
                *c -= f64::from(xv);
            }
        }
        {
            let cv = &mut self.composite[v * dim..(v + 1) * dim];
            for (c, &xv) in cv.iter_mut().zip(x) {
                *c += f64::from(xv);
            }
        }
        self.sizes[u] -= 1;
        self.sizes[v] += 1;
        self.labels[i] = v;
        if self.sizes[u] == 0 {
            // avoid drift: an empty cluster has an exactly-zero composite
            self.composite_norm_sq[u] = 0.0;
            for c in &mut self.composite[u * dim..(u + 1) * dim] {
                *c = 0.0;
            }
        }
    }

    /// Derives the centroid matrix `C_r = D_r / n_r`.  Empty clusters get a
    /// zero centroid.
    pub fn centroids(&self) -> VectorSet {
        let mut out = VectorSet::zeros(self.k, self.dim).expect("non-zero dim");
        for r in 0..self.k {
            if self.sizes[r] == 0 {
                continue;
            }
            let inv = 1.0 / self.sizes[r] as f64;
            let src = self.composite(r).to_vec();
            for (t, v) in out.row_mut(r).iter_mut().zip(src) {
                *t = (v * inv) as f32;
            }
        }
        out
    }

    /// Average distortion `E` (Eqn. 4) derived from the objective without a
    /// pass over the data: `E = (Σ_i ‖x_i‖² − I) / n`.
    ///
    /// `sum_sq_norms` is `Σ_i ‖x_i‖²`, which is constant for a dataset and can
    /// be computed once by the caller.
    pub fn distortion_from_objective(&self, sum_sq_norms: f64) -> f64 {
        if self.labels.is_empty() {
            return 0.0;
        }
        ((sum_sq_norms - self.objective()) / self.labels.len() as f64).max(0.0)
    }

    /// Recomputes the cached norms from the composite vectors (used by tests
    /// and occasionally by long-running loops to squash floating-point drift).
    pub fn refresh_norm_cache(&mut self) {
        for r in 0..self.k {
            self.composite_norm_sq[r] = self.composite(r).iter().map(|v| v * v).sum();
        }
    }

    /// Maximum relative deviation between the cached norms and the norms
    /// recomputed from the composite vectors — a drift diagnostic used by
    /// property tests.
    pub fn norm_cache_drift(&self) -> f64 {
        (0..self.k)
            .map(|r| {
                let fresh: f64 = self.composite(r).iter().map(|v| v * v).sum();
                let cached = self.composite_norm_sq[r];
                if fresh.abs() < 1e-12 {
                    (cached - fresh).abs()
                } else {
                    ((cached - fresh) / fresh).abs()
                }
            })
            .fold(0.0, f64::max)
    }
}

/// ‖x‖² accumulated in `f64`, matching the precision of the composite
/// vectors (see [`ClusterState::apply_move`]).
#[inline]
fn norm_sq_f64(x: &[f32]) -> f64 {
    x.iter()
        .map(|&v| {
            let v = f64::from(v);
            v * v
        })
        .sum()
}

#[cfg(test)]
mod tests {
    use super::*;
    use vecstore::distance::l2_sq;

    fn data() -> VectorSet {
        VectorSet::from_rows(vec![
            vec![0.0, 0.0],
            vec![1.0, 0.0],
            vec![0.0, 1.0],
            vec![10.0, 10.0],
            vec![11.0, 10.0],
            vec![10.0, 11.0],
        ])
        .unwrap()
    }

    #[test]
    fn from_labels_builds_consistent_state() {
        let d = data();
        let st = ClusterState::from_labels(&d, vec![0, 0, 0, 1, 1, 1], 2);
        assert_eq!(st.k(), 2);
        assert_eq!(st.len(), 6);
        assert!(!st.is_empty());
        assert_eq!(st.size(0), 3);
        assert_eq!(st.size(1), 3);
        assert_eq!(st.composite(0), &[1.0, 1.0]);
        assert_eq!(st.composite(1), &[31.0, 31.0]);
        assert_eq!(st.labels(), &[0, 0, 0, 1, 1, 1]);
    }

    #[test]
    fn objective_equals_sum_norm_minus_distortion() {
        let d = data();
        let labels = vec![0usize, 0, 0, 1, 1, 1];
        let st = ClusterState::from_labels(&d, labels.clone(), 2);
        let centroids = st.centroids();
        let sum_sq: f64 = d.rows().map(|r| f64::from(dot(r, r))).sum();
        let distortion: f64 = labels
            .iter()
            .enumerate()
            .map(|(i, &l)| f64::from(l2_sq(d.row(i), centroids.row(l))))
            .sum::<f64>()
            / d.len() as f64;
        let derived = st.distortion_from_objective(sum_sq);
        assert!(
            (derived - distortion).abs() < 1e-6,
            "{derived} vs {distortion}"
        );
    }

    #[test]
    fn delta_move_matches_objective_difference() {
        let d = data();
        let mut st = ClusterState::from_labels(&d, vec![0, 0, 1, 1, 1, 0], 2);
        for i in 0..d.len() {
            for v in 0..2 {
                let delta = st.delta_move(i, d.row(i), v);
                if v == st.label(i) {
                    assert_eq!(delta, 0.0);
                    continue;
                }
                let before = st.objective();
                let mut trial = st.clone();
                trial.apply_move(i, d.row(i), v);
                let after = trial.objective();
                assert!(
                    (delta - (after - before)).abs() < 1e-6,
                    "sample {i} to {v}: {delta} vs {}",
                    after - before
                );
            }
        }
        // also check the split form
        let i = 2;
        let v = 0;
        let split = st.removal_part(i, d.row(i)) + st.addition_part(d.row(i), v);
        assert!((split - st.delta_move(i, d.row(i), v)).abs() < 1e-9);
        st.apply_move(i, d.row(i), v);
        assert_eq!(st.label(i), v);
    }

    #[test]
    fn apply_move_keeps_cache_in_sync() {
        let d = data();
        let mut st = ClusterState::from_labels(&d, vec![0, 1, 0, 1, 0, 1], 2);
        for (i, v) in [(0usize, 1usize), (3, 0), (5, 0), (1, 0), (2, 1)] {
            st.apply_move(i, d.row(i), v);
            assert!(st.norm_cache_drift() < 1e-9, "drift after move {i}->{v}");
        }
        let sizes: usize = (0..2).map(|r| st.size(r)).sum();
        assert_eq!(sizes, 6);
    }

    #[test]
    fn emptied_cluster_is_zeroed() {
        let d = data();
        let mut st = ClusterState::from_labels(&d, vec![0, 1, 1, 1, 1, 1], 2);
        st.apply_move(0, d.row(0), 1);
        assert_eq!(st.size(0), 0);
        assert_eq!(st.composite(0), &[0.0, 0.0]);
        assert_eq!(st.objective(), st.objective()); // finite, no NaN
        assert!(st.objective().is_finite());
        let c = st.centroids();
        assert_eq!(c.row(0), &[0.0, 0.0]);
    }

    #[test]
    fn centroids_are_means() {
        let d = data();
        let st = ClusterState::from_labels(&d, vec![0, 0, 0, 1, 1, 1], 2);
        let c = st.centroids();
        assert!((c.row(0)[0] - 1.0 / 3.0).abs() < 1e-6);
        assert!((c.row(1)[0] - 31.0 / 3.0).abs() < 1e-6);
    }

    #[test]
    fn moving_improves_objective_for_obvious_outlier() {
        // sample 3 (10,10) wrongly placed in cluster 0 with the origin points
        let d = data();
        let st = ClusterState::from_labels(&d, vec![0, 0, 0, 0, 1, 1], 2);
        let delta = st.delta_move(3, d.row(3), 1);
        assert!(
            delta > 0.0,
            "moving the outlier home must increase I, got {delta}"
        );
    }

    #[test]
    fn refresh_norm_cache_is_idempotent() {
        let d = data();
        let mut st = ClusterState::from_labels(&d, vec![0, 1, 0, 1, 0, 1], 2);
        let before = st.objective();
        st.refresh_norm_cache();
        assert!((st.objective() - before).abs() < 1e-9);
    }

    #[test]
    #[should_panic(expected = "label count mismatch")]
    fn mismatched_labels_panic() {
        let d = data();
        let _ = ClusterState::from_labels(&d, vec![0, 1], 2);
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn out_of_range_label_panics() {
        let d = data();
        let _ = ClusterState::from_labels(&d, vec![0, 0, 0, 0, 0, 7], 2);
    }
}
