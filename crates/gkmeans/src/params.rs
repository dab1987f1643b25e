//! Parameters of the GK-means pipeline (Sec. 4.4).
//!
//! Three parameters drive the proposed method besides `k`:
//!
//! * `τ` (tau) — number of graph-construction rounds in Alg. 3; 10 suffices
//!   for clustering, up to 32 when the graph is built for ANN search;
//! * `ξ` (xi) — target cluster size during graph construction (the
//!   recommended range is 40–100, the paper fixes 50);
//! * `κ` (kappa) — neighbours consulted per sample during GK-means
//!   iteration; quality stabilises for κ ≥ 40, the paper fixes 50.

use serde::{Deserialize, Serialize};

use crate::gk::GkMode;

/// Full parameter set of the GK-means pipeline.
///
/// Built fluently; unset fields keep the paper's defaults (κ = ξ = 50,
/// τ = 10, 30 iterations, boost mode, single thread):
///
/// ```
/// use gkmeans::{GkMode, GkParams};
///
/// let p = GkParams::default().kappa(20).tau(5).threads(4).mode(GkMode::Traditional);
/// assert_eq!(p.kappa, 20);
/// assert_eq!(p.xi, 50); // untouched fields keep the paper's values
/// assert_eq!(p.threads, Some(4)); // bit-identical output at any thread count
/// ```
#[derive(Clone, Copy, Debug, Serialize, Deserialize)]
pub struct GkParams {
    /// Number of neighbours κ consulted per sample during clustering.
    pub kappa: usize,
    /// Target cluster size ξ used during KNN-graph construction.
    pub xi: usize,
    /// Number of graph-construction rounds τ.
    pub tau: usize,
    /// Number of clustering iterations (epochs over the data) in the final
    /// GK-means run; the paper fixes 30 for the scalability tests.
    pub iterations: usize,
    /// Optimisation mode: boost-k-means moves (the standard "GK-means") or
    /// the traditional closest-centroid variant ("GK-means⁻", Fig. 4).
    pub mode: GkMode,
    /// RNG seed.
    pub seed: u64,
    /// Record the per-iteration distortion/time trace (costs an extra `O(n)`
    /// objective evaluation per iteration — cheap, but off for pure
    /// scalability timings).
    pub record_trace: bool,
    /// Worker threads for the GK-means pipeline, `None` (or `Some(0|1)`)
    /// meaning the paper-faithful single-threaded iteration ("simulations are
    /// conducted by single thread", Sec. 5).
    ///
    /// **Determinism guarantee:** labels, centroids, the distortion trace and
    /// `distance_evals` are bit-identical at every thread count.  Boost
    /// epochs are delta-batched — row blocks score their κ-candidate gains in
    /// parallel against a state snapshot, and a sequential conflict-resolving
    /// apply phase commits the moves in the exact shuffled order the
    /// single-threaded loop would, re-scoring any sample whose candidate
    /// clusters were touched by an earlier move of the same batch.
    /// Traditional (GK-means⁻) epochs batch the same way against the epoch's
    /// fixed centroids.  The two-means-tree initialisation rides the same
    /// worker pool (fixed-block merges plus delta-batched refinement rounds
    /// that re-snapshot after every committed move), and so does Alg. 3's
    /// refinement (fixed anchor blocks merged into the graph in block
    /// order).  Threads change wall-clock time and nothing else.
    ///
    /// Defaults to the `GKM_THREADS` environment override when set (see
    /// [`vecstore::parallel::threads_from_env`]), which is how CI re-runs the
    /// whole suite threaded.
    pub threads: Option<usize>,
}

impl Default for GkParams {
    fn default() -> Self {
        Self {
            kappa: 50,
            xi: 50,
            tau: 10,
            iterations: 30,
            mode: GkMode::Boost,
            seed: 0,
            record_trace: true,
            threads: vecstore::parallel::threads_from_env(),
        }
    }
}

impl GkParams {
    /// Sets κ (neighbours consulted per sample).
    #[must_use]
    pub fn kappa(mut self, kappa: usize) -> Self {
        self.kappa = kappa;
        self
    }

    /// Sets ξ (graph-construction cluster size).
    #[must_use]
    pub fn xi(mut self, xi: usize) -> Self {
        self.xi = xi;
        self
    }

    /// Sets τ (graph-construction rounds).
    #[must_use]
    pub fn tau(mut self, tau: usize) -> Self {
        self.tau = tau;
        self
    }

    /// Sets the number of clustering iterations.
    #[must_use]
    pub fn iterations(mut self, iterations: usize) -> Self {
        self.iterations = iterations;
        self
    }

    /// Selects the optimisation mode.
    #[must_use]
    pub fn mode(mut self, mode: GkMode) -> Self {
        self.mode = mode;
        self
    }

    /// Sets the RNG seed.
    #[must_use]
    pub fn seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    /// Enables or disables trace recording.
    #[must_use]
    pub fn record_trace(mut self, record: bool) -> Self {
        self.record_trace = record;
        self
    }

    /// Sets the worker thread count of the epoch engine (see
    /// [`GkParams::threads`] for the determinism guarantee; `0` and `1` both
    /// mean sequential).
    #[must_use]
    pub fn threads(mut self, threads: usize) -> Self {
        self.threads = Some(threads);
        self
    }

    /// Validates the parameters against a dataset size and cluster count.
    pub fn validate(&self, n: usize, k: usize) -> Result<(), String> {
        if n == 0 {
            return Err("dataset is empty".into());
        }
        if k == 0 {
            return Err("k must be positive".into());
        }
        if k > n {
            return Err(format!("k ({k}) exceeds the number of samples ({n})"));
        }
        if self.kappa == 0 {
            return Err("kappa must be positive".into());
        }
        if self.xi < 2 {
            return Err("xi must be at least 2".into());
        }
        if self.tau == 0 {
            return Err("tau must be positive".into());
        }
        if self.iterations == 0 {
            return Err("iterations must be positive".into());
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn defaults_match_the_paper() {
        let p = GkParams::default();
        assert_eq!(p.kappa, 50);
        assert_eq!(p.xi, 50);
        assert_eq!(p.tau, 10);
        assert_eq!(p.iterations, 30);
        assert_eq!(p.mode, GkMode::Boost);
        assert!(p.record_trace);
        // the default honours the CI matrix override and is otherwise the
        // paper-faithful single thread
        assert_eq!(p.threads, vecstore::parallel::threads_from_env());
    }

    #[test]
    fn builder_round_trip() {
        let p = GkParams::default()
            .kappa(10)
            .xi(20)
            .tau(5)
            .iterations(7)
            .mode(GkMode::Traditional)
            .seed(99)
            .record_trace(false)
            .threads(4);
        assert_eq!(p.kappa, 10);
        assert_eq!(p.xi, 20);
        assert_eq!(p.tau, 5);
        assert_eq!(p.iterations, 7);
        assert_eq!(p.mode, GkMode::Traditional);
        assert_eq!(p.seed, 99);
        assert!(!p.record_trace);
        assert_eq!(p.threads, Some(4));
    }

    #[test]
    fn validation_catches_bad_params() {
        let ok = GkParams::default();
        assert!(ok.validate(1000, 10).is_ok());
        assert!(ok.validate(0, 10).is_err());
        assert!(ok.validate(1000, 0).is_err());
        assert!(ok.validate(5, 10).is_err());
        assert!(GkParams::default().kappa(0).validate(100, 5).is_err());
        assert!(GkParams::default().xi(1).validate(100, 5).is_err());
        assert!(GkParams::default().tau(0).validate(100, 5).is_err());
        assert!(GkParams::default().iterations(0).validate(100, 5).is_err());
    }
}
