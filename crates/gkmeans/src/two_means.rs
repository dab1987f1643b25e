//! Two-means (2M) tree — Alg. 1 of the paper (after Verma, Kpotufe &
//! Dasgupta, UAI 2009).
//!
//! A hierarchical bisecting partitioner: repeatedly pop the largest cluster,
//! bisect it with 2-means, and **adjust the two halves to equal size** — the
//! adjustment is what distinguishes the 2M tree from plain bisecting k-means
//! and is essential for the graph-construction step of Alg. 3, where every
//! cluster must contain roughly ξ samples so the exhaustive in-cluster
//! comparison stays `O(n·ξ·d)`.
//!
//! Complexity `O(d·n·log k)` (Sec. 3.2): a bisection of `m` members costs
//! `O(m·d)` — at most `refine_iters` assignment sweeps, one boost-refinement
//! sweep that scores each member about once, and one margin pass over the
//! larger half — and the balanced halves make the implicit tree `⌈log₂ k⌉`
//! levels deep.  The crate-internal `TwoMeansStats` counts that work so the
//! unit tests can hold the bound without a clock.  Following the paper, the
//! bisection is refined with boost-k-means-style incremental moves before the
//! equal-size adjustment (Sec. 3.2: "the aforementioned boost k-means is
//! integrated in the bisecting operation").
//!
//! # Equal-size adjustment
//!
//! Alg. 1 line 9 in one pass: the centroids of both halves are computed once,
//! every member `x` of the larger half gets the margin
//! `d(x, c_small) − d(x, c_big)` once, and the `⌊(|big| − |small|)/2⌋` members
//! with the smallest `(margin, slot)` — margins compared with
//! `f32::total_cmp`, ties broken by the member's position in the input — move
//! to the smaller half.  Both output halves keep the input's member order.
//! The key is a strict total order, so the moved set is unique: it depends on
//! neither the selection algorithm nor the thread count.
//!
//! # Threading
//!
//! The partitioner rides the same deterministic substrate as the epoch
//! engines ([`vecstore::parallel`]): every loop over a cluster's members is
//! cut into fixed `BISECT_BLOCK`-sized blocks whose partial results (side
//! decisions, `f64` centroid sums, margins) are merged in block order, and
//! the boost-refinement pass runs delta-batched rounds — parallel snapshot
//! scoring, ordered apply that ends the round at the first committed move (a
//! move invalidates every later snapshot score, and with two clusters *every*
//! move touches both).  Whatever a round scored past its move is discarded,
//! so the round length adapts to the moves it meets: it starts at a few
//! samples per thread, doubles after a move-free round, and after a move
//! falls back to twice the gap since the previous move (capped at
//! `threads × REFINE_BATCH_PER_THREAD`).  Committed decisions do not depend
//! on where rounds end, so labels are **bit-identical at any thread count**,
//! which the thread-invariance suite pins; the single block structure is
//! shared by the sequential and threaded paths.

use std::collections::BinaryHeap;

use rand::Rng;

use vecstore::distance::{dot, l2_sq};
use vecstore::parallel::run_blocks;
use vecstore::sample::rng_from_seed;
use vecstore::VectorSet;

use crate::objective::{addition_gain, removal_gain};

/// Rows per fixed block of the bisection loops (assignment, centroid
/// accumulation, margins).  Block boundaries — and therefore the
/// floating-point merge grouping — depend only on the member count, never on
/// the thread count.
const BISECT_BLOCK: usize = 1024;

/// Longest boost-refinement round, in samples per worker thread.  A round's
/// snapshot scores past its first committed move are discarded, so the round
/// length only trades discarded scoring against synchronisation — committed
/// decisions are bit-identical for any value.
const REFINE_BATCH_PER_THREAD: usize = 256;

/// Shortest boost-refinement round, in samples per worker thread: where the
/// adaptive round length starts, and its floor after closely spaced moves.
const REFINE_MIN_PER_THREAD: usize = 4;

/// Samples per parallel scoring work item inside a refinement round.
const REFINE_SCORE_BLOCK: usize = 64;

/// Two-means tree partitioner.
#[derive(Clone, Debug)]
pub struct TwoMeansTree {
    seed: u64,
    /// Number of 2-means refinement iterations per bisection.
    refine_iters: usize,
    /// Whether to run the boost-k-means incremental refinement pass on each
    /// bisection before the equal-size adjustment.
    boost_refine: bool,
    /// Worker threads (1 = everything on the calling thread).
    threads: usize,
}

/// Work done by one [`TwoMeansTree::partition_with_stats`] call, summed over
/// its `k − 1` bisections.  Counts, not times: they repeat exactly for a
/// seed, and every field except `refine_scored` / `distance_evals` (which
/// include the snapshot scores a round discards) is the same at any thread
/// count.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub(crate) struct TwoMeansStats {
    /// Σ members over all bisections — the `n·log k` of the complexity bound.
    pub member_visits: u64,
    /// `O(d)` sample-to-centre evaluations: two per member and 2-means
    /// sweep, two per refinement score, two per margin.
    pub distance_evals: u64,
    /// ΔI scores taken by the boost refinement, discarded ones included.
    pub refine_scored: u64,
    /// Moves the boost refinement committed.
    pub refine_moves: u64,
    /// Margin passes of the equal-size adjustment: one per bisection whose
    /// halves differed by more than one, none otherwise.
    pub margin_passes: u64,
    /// Samples the equal-size adjustment moved to the smaller half.
    pub adjust_moved: u64,
}

/// One fixed block's contribution to a 2-means assignment sweep: the block's
/// new side decisions plus its partial centroid accumulators.
struct AssignBlock {
    side: Vec<bool>,
    changed: bool,
    acc0: Vec<f64>,
    acc1: Vec<f64>,
    n0: usize,
    n1: usize,
}

impl TwoMeansTree {
    /// Creates a partitioner with the workspace defaults (5 refinement
    /// iterations, boost refinement on, single-threaded).
    pub fn new(seed: u64) -> Self {
        Self {
            seed,
            refine_iters: 5,
            boost_refine: true,
            threads: 1,
        }
    }

    /// Overrides the number of plain 2-means refinement iterations.
    #[must_use]
    pub fn refine_iters(mut self, iters: usize) -> Self {
        self.refine_iters = iters.max(1);
        self
    }

    /// Enables/disables the boost-k-means refinement inside each bisection.
    #[must_use]
    pub fn boost_refine(mut self, on: bool) -> Self {
        self.boost_refine = on;
        self
    }

    /// Sets the worker thread count (`0` and `1` both mean sequential).
    /// Labels are bit-identical at any thread count — threads change
    /// wall-clock time and nothing else.
    #[must_use]
    pub fn threads(mut self, threads: usize) -> Self {
        self.threads = threads.max(1);
        self
    }

    /// Partitions `data` into exactly `k` clusters and returns the label of
    /// every sample (Alg. 1's `cLabel`).
    ///
    /// # Panics
    ///
    /// Panics when `k == 0` or `k > data.len()`.
    pub fn partition(&self, data: &VectorSet, k: usize) -> Vec<usize> {
        self.partition_with_stats(data, k).0
    }

    /// [`partition`](Self::partition) plus the work it took.
    ///
    /// # Panics
    ///
    /// Panics when `k == 0` or `k > data.len()`.
    pub(crate) fn partition_with_stats(
        &self,
        data: &VectorSet,
        k: usize,
    ) -> (Vec<usize>, TwoMeansStats) {
        assert!(k > 0, "k must be positive");
        assert!(
            k <= data.len(),
            "k ({k}) exceeds the number of samples ({})",
            data.len()
        );
        let n = data.len();
        let mut rng = rng_from_seed(self.seed);
        let mut stats = TwoMeansStats::default();
        // Clusters as index lists (Alg. 1 maps labels → partition S up
        // front) in a max-heap keyed (size, creation index): the largest pops
        // first and, among equals, the one created last.
        let mut clusters = BinaryHeap::with_capacity(k);
        clusters.push((n, 0usize, (0..n as u32).collect::<Vec<u32>>()));
        let mut created = 1usize;
        while clusters.len() < k {
            // Pop S_i with the largest size (Alg. 1 line 7); k ≤ n keeps it
            // at two members or more.
            let (_, _, target) = clusters.pop().expect("at least one cluster");
            let (su, sv) = self.bisect(data, &target, &mut rng, &mut stats);
            for half in [su, sv] {
                clusters.push((half.len(), created, half));
                created += 1;
            }
        }
        // Map S back to labels (Alg. 1 line 13), numbered in creation order.
        let mut clusters = clusters.into_vec();
        clusters.sort_unstable_by_key(|&(_, created, _)| created);
        let mut labels = vec![0usize; n];
        for (c, (_, _, members)) in clusters.iter().enumerate() {
            for &s in members {
                labels[s as usize] = c;
            }
        }
        (labels, stats)
    }

    /// Bisects `members` into two halves of (near-)equal size: 2-means,
    /// optional boost refinement, then the equal-size adjustment (Alg. 1
    /// line 8–9).  Both halves keep the member order of the input.  Exposed
    /// for the graph-construction unit tests.
    pub fn bisect_equal(
        &self,
        data: &VectorSet,
        members: &[u32],
        rng: &mut impl Rng,
    ) -> (Vec<u32>, Vec<u32>) {
        self.bisect(data, members, rng, &mut TwoMeansStats::default())
    }

    fn bisect(
        &self,
        data: &VectorSet,
        members: &[u32],
        rng: &mut impl Rng,
        stats: &mut TwoMeansStats,
    ) -> (Vec<u32>, Vec<u32>) {
        assert!(members.len() >= 2, "cannot bisect fewer than two samples");
        stats.member_visits += members.len() as u64;
        let mut side = self.two_means(data, members, rng, stats);
        if self.boost_refine {
            self.refine(data, members, &mut side, stats);
        }
        self.equalize(data, members, &mut side, stats);
        let mut left = Vec::with_capacity(members.len().div_ceil(2));
        let mut right = Vec::with_capacity(members.len().div_ceil(2));
        for (&s, &to_right) in members.iter().zip(&side) {
            if to_right {
                right.push(s);
            } else {
                left.push(s);
            }
        }
        (left, right)
    }

    /// Plain 2-means from two random member seeds; returns every member's
    /// side (`false` → cluster 0).
    fn two_means(
        &self,
        data: &VectorSet,
        members: &[u32],
        rng: &mut impl Rng,
        stats: &mut TwoMeansStats,
    ) -> Vec<bool> {
        let dim = data.dim();
        let threads = self.threads;
        let n_blocks = members.len().div_ceil(BISECT_BLOCK);

        let a = members[rng.gen_range(0..members.len())] as usize;
        let mut b = members[rng.gen_range(0..members.len())] as usize;
        let mut tries = 0;
        while b == a && tries < 16 {
            b = members[rng.gen_range(0..members.len())] as usize;
            tries += 1;
        }
        let mut c0 = data.row(a).to_vec();
        let mut c1 = data.row(b).to_vec();
        let mut side = vec![false; members.len()];
        for _ in 0..self.refine_iters {
            // Fused assignment + centroid accumulation in fixed blocks: every
            // block decides its members against the iteration's frozen
            // centroids and accumulates its own f64 partials, merged below in
            // block order.
            let blocks: Vec<AssignBlock> = {
                let (c0, c1, side) = (&c0, &c1, &side);
                run_blocks(threads, n_blocks, |blk| {
                    let lo = blk * BISECT_BLOCK;
                    let hi = ((blk + 1) * BISECT_BLOCK).min(members.len());
                    let mut out = AssignBlock {
                        side: Vec::with_capacity(hi - lo),
                        changed: false,
                        acc0: vec![0.0f64; dim],
                        acc1: vec![0.0f64; dim],
                        n0: 0,
                        n1: 0,
                    };
                    for (slot, &s) in members[lo..hi].iter().enumerate() {
                        let x = data.row(s as usize);
                        let to_one = l2_sq(x, c1) < l2_sq(x, c0);
                        out.changed |= to_one != side[lo + slot];
                        out.side.push(to_one);
                        let acc = if to_one {
                            out.n1 += 1;
                            &mut out.acc1
                        } else {
                            out.n0 += 1;
                            &mut out.acc0
                        };
                        for (a, &v) in acc.iter_mut().zip(x) {
                            *a += f64::from(v);
                        }
                    }
                    out
                })
            };
            stats.distance_evals += 2 * members.len() as u64;
            let mut changed = false;
            let mut acc0 = vec![0.0f64; dim];
            let mut acc1 = vec![0.0f64; dim];
            let mut n0 = 0usize;
            let mut n1 = 0usize;
            for (blk, block) in blocks.iter().enumerate() {
                let lo = blk * BISECT_BLOCK;
                side[lo..lo + block.side.len()].copy_from_slice(&block.side);
                changed |= block.changed;
                for (a, &v) in acc0.iter_mut().zip(&block.acc0) {
                    *a += v;
                }
                for (a, &v) in acc1.iter_mut().zip(&block.acc1) {
                    *a += v;
                }
                n0 += block.n0;
                n1 += block.n1;
            }
            if n0 > 0 {
                for (c, acc) in c0.iter_mut().zip(&acc0) {
                    *c = (*acc / n0 as f64) as f32;
                }
            }
            if n1 > 0 {
                for (c, acc) in c1.iter_mut().zip(&acc1) {
                    *c = (*acc / n1 as f64) as f32;
                }
            }
            if !changed {
                break;
            }
        }
        side
    }

    /// Boost-k-means refinement: one sweep of incremental ΔI moves (Eqn. 3)
    /// on the 2-cluster subproblem, flipping `side` in place.
    fn refine(
        &self,
        data: &VectorSet,
        members: &[u32],
        side: &mut [bool],
        stats: &mut TwoMeansStats,
    ) {
        let dim = data.dim();
        let threads = self.threads;
        let n_blocks = members.len().div_ceil(BISECT_BLOCK);

        // Composite vectors and sizes, accumulated per fixed block and
        // merged in block order (the same grouping at every thread count).
        let mut comp = [vec![0.0f32; dim], vec![0.0f32; dim]];
        let mut sizes = [0usize, 0usize];
        {
            let side = &*side;
            let partials: Vec<([Vec<f32>; 2], [usize; 2])> = run_blocks(threads, n_blocks, |blk| {
                let lo = blk * BISECT_BLOCK;
                let hi = ((blk + 1) * BISECT_BLOCK).min(members.len());
                let mut comp = [vec![0.0f32; dim], vec![0.0f32; dim]];
                let mut sizes = [0usize, 0usize];
                for (slot, &s) in members[lo..hi].iter().enumerate() {
                    let which = usize::from(side[lo + slot]);
                    sizes[which] += 1;
                    for (c, &v) in comp[which].iter_mut().zip(data.row(s as usize)) {
                        *c += v;
                    }
                }
                (comp, sizes)
            });
            for (pcomp, psizes) in &partials {
                for which in 0..2 {
                    sizes[which] += psizes[which];
                    for (c, &v) in comp[which].iter_mut().zip(&pcomp[which]) {
                        *c += v;
                    }
                }
            }
        }
        // Delta-batched incremental moves: rounds score their ΔI against a
        // snapshot in parallel; the ordered apply phase commits decisions
        // while the state still equals the snapshot and ends the round at the
        // first move (with two clusters, every move invalidates every later
        // snapshot score).  Each committed decision is therefore evaluated
        // against exactly the state the sequential loop would see —
        // bit-identical by construction, wherever the rounds end.
        let composite_norms = |comp: &[Vec<f32>; 2]| {
            [
                f64::from(dot(&comp[0], &comp[0])),
                f64::from(dot(&comp[1], &comp[1])),
            ]
        };
        // D_u'·D_u and D_v'·D_v are frozen between moves: once per snapshot,
        // not once per score.
        let mut norms = composite_norms(&comp);
        let min_len = threads * REFINE_MIN_PER_THREAD;
        let max_len = threads * REFINE_BATCH_PER_THREAD;
        let mut round_len = min_len;
        let mut last_move_end = 0usize;
        let mut pos = 0usize;
        while pos < members.len() {
            let end = (pos + round_len).min(members.len());
            let proposals: Vec<Option<f64>> = {
                let (comp, sizes, norms, side) = (&comp, &sizes, &norms, &*side);
                let score_blocks = (end - pos).div_ceil(REFINE_SCORE_BLOCK);
                run_blocks(threads, score_blocks, |blk| {
                    let lo = pos + blk * REFINE_SCORE_BLOCK;
                    let hi = (lo + REFINE_SCORE_BLOCK).min(end);
                    (lo..hi)
                        .map(|slot| {
                            let from = usize::from(side[slot]);
                            if sizes[from] <= 1 {
                                return None;
                            }
                            let to = 1 - from;
                            let x = data.row(members[slot] as usize);
                            let x_norm_sq = f64::from(dot(x, x));
                            Some(
                                removal_gain(
                                    norms[from],
                                    f64::from(dot(&comp[from], x)),
                                    x_norm_sq,
                                    sizes[from],
                                ) + addition_gain(
                                    norms[to],
                                    f64::from(dot(&comp[to], x)),
                                    x_norm_sq,
                                    sizes[to],
                                ),
                            )
                        })
                        .collect::<Vec<Option<f64>>>()
                })
                .into_iter()
                .flatten()
                .collect()
            };
            stats.refine_scored += (end - pos) as u64;
            stats.distance_evals += 2 * (end - pos) as u64;
            let first_move = proposals
                .iter()
                .position(|p| p.is_some_and(|delta| delta > 0.0));
            let Some(off) = first_move else {
                pos = end;
                round_len = (2 * round_len).min(max_len);
                continue;
            };
            let slot = pos + off;
            let from = usize::from(side[slot]);
            let to = 1 - from;
            let x = data.row(members[slot] as usize);
            for (c, &v) in comp[from].iter_mut().zip(x) {
                *c -= v;
            }
            for (c, &v) in comp[to].iter_mut().zip(x) {
                *c += v;
            }
            sizes[from] -= 1;
            sizes[to] += 1;
            side[slot] = !side[slot];
            norms = composite_norms(&comp);
            stats.refine_moves += 1;
            // State diverged from the snapshot: restart scoring right after
            // this sample, expecting the next move about as far away as this
            // one was from the last.
            pos = slot + 1;
            round_len = (2 * (pos - last_move_end)).clamp(min_len, max_len);
            last_move_end = pos;
        }
    }

    /// Equal-size adjustment (Alg. 1 line 9) in one pass: flips in `side` the
    /// `⌊(|big| − |small|)/2⌋` members of the larger half with the smallest
    /// `(margin, slot)`, after which the halves differ by at most one.
    fn equalize(
        &self,
        data: &VectorSet,
        members: &[u32],
        side: &mut [bool],
        stats: &mut TwoMeansStats,
    ) {
        let threads = self.threads;
        let n_right = side.iter().filter(|&&to_right| to_right).count();
        let n_left = members.len() - n_right;
        let moves = n_left.abs_diff(n_right) / 2;
        if moves == 0 {
            return;
        }
        let big_side = n_right > n_left;
        let mut big: Vec<u32> = Vec::with_capacity(n_left.max(n_right));
        let mut small: Vec<u32> = Vec::with_capacity(n_left.min(n_right));
        for (slot, &to_right) in side.iter().enumerate() {
            if to_right == big_side {
                big.push(slot as u32);
            } else {
                small.push(slot as u32);
            }
        }
        let big_c = self.centroid(data, members, &big);
        let small_c = self.centroid(data, members, &small);
        // margin = d(x, small centroid) − d(x, own centroid); the smallest
        // margins sit on the boundary and are the cheapest to move.
        let mut keyed: Vec<(f32, u32)> = {
            let (big, big_c, small_c) = (&big, &big_c, &small_c);
            run_blocks(threads, big.len().div_ceil(BISECT_BLOCK), |blk| {
                let lo = blk * BISECT_BLOCK;
                let hi = ((blk + 1) * BISECT_BLOCK).min(big.len());
                big[lo..hi]
                    .iter()
                    .map(|&slot| {
                        let x = data.row(members[slot as usize] as usize);
                        (l2_sq(x, small_c) - l2_sq(x, big_c), slot)
                    })
                    .collect::<Vec<(f32, u32)>>()
            })
            .into_iter()
            .flatten()
            .collect()
        };
        stats.margin_passes += 1;
        stats.distance_evals += 2 * big.len() as u64;
        keyed.select_nth_unstable_by(moves, |a, b| a.0.total_cmp(&b.0).then(a.1.cmp(&b.1)));
        for &(_, slot) in &keyed[..moves] {
            side[slot as usize] = !big_side;
        }
        stats.adjust_moved += moves as u64;
    }

    /// Mean of the members at `slots`: fixed-block f64 partials merged in
    /// block order (the zero vector for no slots).
    fn centroid(&self, data: &VectorSet, members: &[u32], slots: &[u32]) -> Vec<f32> {
        let dim = data.dim();
        let n_blocks = slots.len().div_ceil(BISECT_BLOCK);
        let partials: Vec<Vec<f64>> = run_blocks(self.threads, n_blocks, |blk| {
            let lo = blk * BISECT_BLOCK;
            let hi = ((blk + 1) * BISECT_BLOCK).min(slots.len());
            let mut acc = vec![0.0f64; dim];
            for &slot in &slots[lo..hi] {
                let x = data.row(members[slot as usize] as usize);
                for (a, &v) in acc.iter_mut().zip(x) {
                    *a += f64::from(v);
                }
            }
            acc
        });
        let mut acc = vec![0.0f64; dim];
        for partial in &partials {
            for (a, &v) in acc.iter_mut().zip(partial) {
                *a += v;
            }
        }
        let inv = 1.0 / slots.len().max(1) as f64;
        acc.into_iter().map(|a| (a * inv) as f32).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::objective::delta_i_reference;

    fn blobs(per: usize, k: usize) -> VectorSet {
        let mut rows = Vec::new();
        for c in 0..k {
            for i in 0..per {
                let base = c as f32 * 30.0;
                rows.push(vec![
                    base + (i % 6) as f32 * 0.4,
                    base - (i % 4) as f32 * 0.3,
                ]);
            }
        }
        VectorSet::from_rows(rows).unwrap()
    }

    #[test]
    fn partition_produces_k_nonempty_balanced_clusters() {
        let data = blobs(32, 4); // 128 samples
        let labels = TwoMeansTree::new(1).partition(&data, 8);
        assert_eq!(labels.len(), 128);
        let mut sizes = vec![0usize; 8];
        for &l in &labels {
            sizes[l] += 1;
        }
        assert!(sizes.iter().all(|&s| s > 0));
        // Equal-size adjustment ⇒ cluster sizes stay within a factor ~2 of n/k.
        let target = 128 / 8;
        assert!(
            sizes.iter().all(|&s| s >= target / 2 && s <= target * 2),
            "{sizes:?}"
        );
    }

    #[test]
    fn bisect_equal_halves_differ_by_at_most_one() {
        let data = blobs(25, 2); // 50 samples, odd splits exercised below
        let members: Vec<u32> = (0..31u32).collect();
        let mut rng = rng_from_seed(3);
        let (l, r) = TwoMeansTree::new(3).bisect_equal(&data, &members, &mut rng);
        assert_eq!(l.len() + r.len(), 31);
        assert!(l.len().abs_diff(r.len()) <= 1, "{} vs {}", l.len(), r.len());
    }

    #[test]
    fn bisect_separable_groups_respects_structure_before_balancing() {
        // Two blobs of equal size: the equal-size bisection should recover them.
        let data = blobs(20, 2);
        let members: Vec<u32> = (0..40u32).collect();
        let mut rng = rng_from_seed(5);
        let (l, r) = TwoMeansTree::new(5).bisect_equal(&data, &members, &mut rng);
        assert_eq!(l.len(), 20);
        assert_eq!(r.len(), 20);
        let blob_of = |s: u32| usize::from(s >= 20);
        let l_blob = blob_of(l[0]);
        assert!(l.iter().all(|&s| blob_of(s) == l_blob));
        assert!(r.iter().all(|&s| blob_of(s) != l_blob));
    }

    #[test]
    fn partition_handles_identical_points() {
        let data = VectorSet::from_rows(vec![vec![2.0, 2.0]; 12]).unwrap();
        let labels = TwoMeansTree::new(7).partition(&data, 4);
        let mut sizes = vec![0usize; 4];
        for &l in &labels {
            sizes[l] += 1;
        }
        assert_eq!(sizes.iter().sum::<usize>(), 12);
        assert!(sizes.iter().all(|&s| s == 3), "{sizes:?}");
    }

    #[test]
    fn partition_k_equals_n_gives_singletons() {
        let data = blobs(3, 2); // 6 samples
        let labels = TwoMeansTree::new(2).partition(&data, 6);
        let mut sizes = [0usize; 6];
        for &l in &labels {
            sizes[l] += 1;
        }
        assert!(sizes.iter().all(|&s| s == 1));
    }

    #[test]
    fn partition_is_deterministic_per_seed() {
        let data = blobs(20, 3);
        let a = TwoMeansTree::new(11).partition(&data, 6);
        let b = TwoMeansTree::new(11).partition(&data, 6);
        assert_eq!(a, b);
    }

    #[test]
    fn partition_is_bit_identical_at_any_thread_count() {
        // Wide enough that a top-level bisection spans several fixed blocks,
        // so the blocked merges and the delta-batched refinement rounds all
        // actually split.
        let rows: Vec<Vec<f32>> = (0..2600)
            .map(|i| {
                (0..6)
                    .map(|j| ((i * 13 + j * 7 + i / 31) % 17) as f32)
                    .collect()
            })
            .collect();
        let data = VectorSet::from_rows(rows).unwrap();
        let reference = TwoMeansTree::new(21).threads(1).partition(&data, 9);
        for threads in [2usize, 4, 7] {
            let threaded = TwoMeansTree::new(21).threads(threads).partition(&data, 9);
            assert_eq!(reference, threaded, "threads={threads}");
        }
    }

    /// Integer-valued Gaussian-ish mixture: `weights[c]` of every
    /// `Σ weights` samples come from component `c`.  Whole-number coordinates
    /// keep every f32 sum exact, whatever its grouping.
    fn mixture(n: usize, dim: usize, weights: &[usize], seed: u64) -> VectorSet {
        let mut rng = rng_from_seed(seed);
        let period: usize = weights.iter().sum();
        let rows: Vec<Vec<f32>> = (0..n)
            .map(|i| {
                let mut at = i % period;
                let mut c = 0;
                while at >= weights[c] {
                    at -= weights[c];
                    c += 1;
                }
                (0..dim)
                    .map(|j| ((c * 7 + j * 3) % 11 * 6) as f32 + rng.gen_range(-3i32..=3) as f32)
                    .collect()
            })
            .collect();
        VectorSet::from_rows(rows).unwrap()
    }

    fn ceil_log2(k: usize) -> u64 {
        u64::from(k.next_power_of_two().trailing_zeros())
    }

    /// The refinement as the paper states it: one sample at a time, every ΔI
    /// against the current state.  Returns the number of moves.
    fn sequential_refine(data: &VectorSet, members: &[u32], side: &mut [bool]) -> u64 {
        let mut comp = [vec![0.0f32; data.dim()], vec![0.0f32; data.dim()]];
        let mut sizes = [0usize; 2];
        for (&s, &to_right) in members.iter().zip(side.iter()) {
            let which = usize::from(to_right);
            sizes[which] += 1;
            for (c, &v) in comp[which].iter_mut().zip(data.row(s as usize)) {
                *c += v;
            }
        }
        let mut moves = 0;
        for (slot, &s) in members.iter().enumerate() {
            let from = usize::from(side[slot]);
            let to = 1 - from;
            if sizes[from] <= 1 {
                continue;
            }
            let x = data.row(s as usize);
            if delta_i_reference(&comp[from], sizes[from], &comp[to], sizes[to], x) > 0.0 {
                for (c, &v) in comp[from].iter_mut().zip(x) {
                    *c -= v;
                }
                for (c, &v) in comp[to].iter_mut().zip(x) {
                    *c += v;
                }
                sizes[from] -= 1;
                sizes[to] += 1;
                side[slot] = !side[slot];
                moves += 1;
            }
        }
        moves
    }

    #[test]
    fn adaptive_refinement_rounds_equal_the_sequential_delta_i_loop() {
        // Random starting sides churn heavily (a move every few samples);
        // sides that are wrong for one sample in 97 leave long move-free runs
        // — the two ends of the adaptive round length.  Both sizes span
        // several fixed blocks.
        for (m, seed) in [(700usize, 1u64), (2600, 2), (3000, 3)] {
            let data = mixture(m, 6, &[3, 2], seed);
            let members: Vec<u32> = (0..m as u32).rev().collect();
            let mut rng = rng_from_seed(seed);
            let random: Vec<bool> = (0..m).map(|_| rng.gen_range(0..2) == 1).collect();
            let sparse: Vec<bool> = members
                .iter()
                .enumerate()
                .map(|(slot, &s)| (s as usize % 5 >= 3) != (slot % 97 == 0))
                .collect();
            for start in [random, sparse] {
                let mut expected = start.clone();
                let expected_moves = sequential_refine(&data, &members, &mut expected);
                assert!(expected_moves > 0, "the case must move something");
                for threads in [1usize, 2, 4, 7] {
                    let mut side = start.clone();
                    let mut stats = TwoMeansStats::default();
                    TwoMeansTree::new(0)
                        .threads(threads)
                        .refine(&data, &members, &mut side, &mut stats);
                    assert_eq!(side, expected, "m={m} threads={threads}");
                    assert_eq!(
                        stats.refine_moves, expected_moves,
                        "m={m} threads={threads}"
                    );
                    assert!(stats.refine_scored >= m as u64);
                }
            }
        }
    }

    #[test]
    fn unbalanced_bisection_takes_exactly_one_margin_pass() {
        // 9 of every 10 samples in one tight component: 2-means cuts the
        // small one off and the adjustment has to move ~40 % of the members.
        let data = mixture(2500, 4, &[9, 1], 5);
        let members: Vec<u32> = (0..2500u32).collect();
        let mut stats = TwoMeansStats::default();
        let (l, r) =
            TwoMeansTree::new(5).bisect(&data, &members, &mut rng_from_seed(5), &mut stats);
        assert_eq!(l.len().abs_diff(r.len()), 0);
        assert!(stats.adjust_moved >= 900, "{stats:?}");
        assert_eq!(stats.margin_passes, 1);
        assert_eq!(stats.member_visits, 2500);

        // Two equal components: nothing to adjust, no margin pass.
        let data = mixture(2000, 4, &[1, 1], 6);
        let members: Vec<u32> = (0..2000u32).collect();
        let mut stats = TwoMeansStats::default();
        let (l, r) =
            TwoMeansTree::new(6).bisect(&data, &members, &mut rng_from_seed(6), &mut stats);
        assert_eq!((l.len(), r.len()), (1000, 1000));
        assert_eq!((stats.margin_passes, stats.adjust_moved), (0, 0));
    }

    #[test]
    fn adjustment_moves_the_smallest_margins_and_breaks_ties_by_slot() {
        // Every 8th member sits at 10 and starts alone on the right, the rest
        // at 0, 1 or 2 in equal shares: 150 of the 350 others must move — all
        // 117 at 2 (the smallest margin), then, among the tied margins at 1,
        // the 33 earliest members.
        let rows: Vec<Vec<f32>> = (0..400)
            .map(|i| vec![if i % 8 == 7 { 10.0 } else { (i % 3) as f32 }])
            .collect();
        let data = VectorSet::from_rows(rows).unwrap();
        let members: Vec<u32> = (0..400u32).collect();
        let mut side: Vec<bool> = (0..400).map(|i| i % 8 == 7).collect();
        let mut stats = TwoMeansStats::default();
        TwoMeansTree::new(0).equalize(&data, &members, &mut side, &mut stats);
        assert_eq!(stats.adjust_moved, 150);
        let ones: Vec<usize> = (0..400).filter(|i| i % 8 != 7 && i % 3 == 1).collect();
        let expected: Vec<bool> = (0..400)
            .map(|i| i % 8 == 7 || i % 3 == 2 || ones[..33].contains(&i))
            .collect();
        assert_eq!(side, expected);
    }

    #[test]
    fn work_is_linear_in_members_times_tree_depth() {
        // The benchmark's shape (n/k = 16, k far above a power of two's
        // comfort) on a skewed mixture, single-threaded as the paper runs.
        let (n, k) = (3072usize, 192usize);
        let data = mixture(n, 8, &[5, 3, 2, 2, 1, 1, 1, 1], 42);
        let tree = TwoMeansTree::new(42);
        let (labels, stats) = tree.partition_with_stats(&data, k);
        assert_eq!(labels, tree.partition(&data, k));
        let levels = ceil_log2(k);
        assert!(stats.member_visits <= n as u64 * levels, "{stats:?}");
        // Refinement scores each member about once; what a round scored past
        // its move is the only repeat.
        assert!(stats.refine_scored >= stats.member_visits);
        assert!(stats.refine_scored <= 2 * stats.member_visits, "{stats:?}");
        assert!(stats.margin_passes < k as u64);
        // 5 sweeps × 2 + 2 scores × 2 + 1 margin × 2 per member and level.
        assert!(stats.distance_evals <= 16 * n as u64 * levels, "{stats:?}");
        // Paper fidelity (Sec. 3.2): the whole tree costs less than the n·k
        // of a single Lloyd iteration.
        assert!(stats.distance_evals < (n * k) as u64, "{stats:?}");
    }

    #[test]
    fn doubling_n_at_most_doubles_the_work_on_an_unbalanced_mixture() {
        // One component holds 85 % of the samples, so bisections start far
        // from balanced and the adjustment moves a large share of every
        // level — the case the one-sample-at-a-time loop made quadratic.
        let weights = [17usize, 1, 1, 1];
        let k = 16;
        let work = |n: usize| {
            let data = mixture(n, 6, &weights, 7);
            let (_, stats) = TwoMeansTree::new(7).partition_with_stats(&data, k);
            assert!(stats.adjust_moved as usize >= n / 4, "n={n} {stats:?}");
            stats
        };
        let (small, large) = (work(2000), work(4000));
        assert_eq!(large.member_visits, 2 * small.member_visits);
        assert!(
            large.distance_evals <= small.distance_evals * 5 / 2,
            "{small:?} → {large:?}"
        );
    }

    #[test]
    fn stats_other_than_discarded_scores_do_not_depend_on_threads() {
        let data = mixture(2600, 6, &[4, 2, 1], 13);
        let (labels, reference) = TwoMeansTree::new(13).partition_with_stats(&data, 9);
        for threads in [2usize, 4, 7] {
            let (threaded, stats) = TwoMeansTree::new(13)
                .threads(threads)
                .partition_with_stats(&data, 9);
            assert_eq!(labels, threaded, "threads={threads}");
            assert_eq!(
                TwoMeansStats {
                    refine_scored: reference.refine_scored,
                    distance_evals: reference.distance_evals,
                    ..stats
                },
                reference,
                "threads={threads}"
            );
        }
    }

    #[test]
    fn boost_refinement_can_be_disabled() {
        let data = blobs(16, 2);
        let labels = TwoMeansTree::new(4)
            .boost_refine(false)
            .refine_iters(3)
            .partition(&data, 4);
        assert_eq!(labels.len(), 32);
        assert!(labels.iter().all(|&l| l < 4));
    }

    #[test]
    #[should_panic(expected = "k must be positive")]
    fn zero_k_panics() {
        let data = blobs(4, 1);
        let _ = TwoMeansTree::new(0).partition(&data, 0);
    }

    #[test]
    #[should_panic(expected = "exceeds the number of samples")]
    fn oversized_k_panics() {
        let data = blobs(2, 1);
        let _ = TwoMeansTree::new(0).partition(&data, 10);
    }
}
