//! The benchmark's own reference answers: brute-force neighbours, recall and
//! distortion, in plain loops that share no code with the product.
//!
//! Generated values are whole numbers in `0..=255`, so every squared distance
//! here is exact in `f32` (see [`crate::gen`]) and can be compared with the
//! product's SIMD results bit for bit.

use crate::loadgen::Hit;

/// Squared Euclidean distance, eight independent partial sums so the
/// compiler can vectorise it.
pub fn l2_sq(a: &[f32], b: &[f32]) -> f32 {
    let mut acc = [0.0f32; 8];
    let (ca, cb) = (a.chunks_exact(8), b.chunks_exact(8));
    let tail: f32 = ca
        .remainder()
        .iter()
        .zip(cb.remainder())
        .map(|(x, y)| (x - y) * (x - y))
        .sum();
    for (x, y) in ca.zip(cb) {
        for i in 0..8 {
            let d = x[i] - y[i];
            acc[i] += d * d;
        }
    }
    acc.iter().sum::<f32>() + tail
}

/// Inserts `hit` into `best` (ascending `(distance, id)`, at most `r` long).
fn offer(best: &mut Vec<Hit>, r: usize, hit: Hit) {
    if best.len() == r {
        let worst = best[r - 1];
        if (hit.1, hit.0) >= (worst.1, worst.0) {
            return;
        }
        best.pop();
    }
    let at = best.partition_point(|b| (b.1, b.0) < (hit.1, hit.0));
    best.insert(at, hit);
}

/// Exact top-`r` of every query over `base` (a row's id is its index),
/// ordered by `(distance, id)` — the order the product documents.
/// `skip_self[q]` names the base row that *is* query `q` and is left out
/// (for neighbours of base rows).
pub fn top_r(
    base: &[f32],
    queries: &[f32],
    dim: usize,
    r: usize,
    threads: usize,
    skip_self: Option<&[u32]>,
) -> Vec<Vec<Hit>> {
    let n_queries = queries.len() / dim;
    let per = n_queries.div_ceil(threads.max(1)).max(1);
    let mut out: Vec<Vec<Hit>> = vec![Vec::new(); n_queries];
    std::thread::scope(|scope| {
        for (t, chunk) in out.chunks_mut(per).enumerate() {
            scope.spawn(move || {
                for (j, best) in chunk.iter_mut().enumerate() {
                    let q = t * per + j;
                    let query = &queries[q * dim..(q + 1) * dim];
                    let own = skip_self.map(|s| s[q]);
                    best.reserve(r + 1);
                    for (id, row) in base.chunks_exact(dim).enumerate() {
                        let id = id as u32;
                        if Some(id) == own {
                            continue;
                        }
                        let d = l2_sq(query, row);
                        if best.len() < r || d <= best[r - 1].1 {
                            offer(best, r, (id, d));
                        }
                    }
                }
            });
        }
    });
    out
}

/// Merges extra candidate rows into existing truth lists: the truth over a
/// set that grew, without a second full scan.
pub fn amend(
    truth: &mut [Vec<Hit>],
    queries: &[f32],
    dim: usize,
    r: usize,
    extra_rows: &[f32],
    extra_ids: &[u32],
) {
    for (q, best) in truth.iter_mut().enumerate() {
        let query = &queries[q * dim..(q + 1) * dim];
        for (row, &id) in extra_rows.chunks_exact(dim).zip(extra_ids) {
            offer(best, r, (id, l2_sq(query, row)));
        }
    }
}

/// Mean share of the true top-`r` ids that were served.
pub fn recall(served: &[Vec<Hit>], truth: &[Vec<Hit>], r: usize) -> f64 {
    let mut found = 0usize;
    for (s, t) in served.iter().zip(truth) {
        found += t
            .iter()
            .take(r)
            .filter(|(id, _)| s.iter().any(|(sid, _)| sid == id))
            .count();
    }
    found as f64 / (truth.len() * r) as f64
}

/// Average distortion of a labelling (Eqn. 4 of the paper) and the total
/// variance of the data about its mean, both in `f64` from the labels alone:
/// centroids are recomputed here as member means, so the figure does not
/// depend on what the clustering code reports.  Also returns the number of
/// empty clusters.
pub fn distortion(data: &[f32], dim: usize, labels: &[usize], k: usize) -> (f64, f64, usize) {
    let n = labels.len();
    let mut sums = vec![0.0f64; k * dim];
    let mut counts = vec![0usize; k];
    let mut mean = vec![0.0f64; dim];
    for (row, &l) in data.chunks_exact(dim).zip(labels) {
        counts[l] += 1;
        for (i, &v) in row.iter().enumerate() {
            sums[l * dim + i] += f64::from(v);
            mean[i] += f64::from(v);
        }
    }
    for (c, &count) in counts.iter().enumerate() {
        if count > 0 {
            for s in &mut sums[c * dim..(c + 1) * dim] {
                *s /= count as f64;
            }
        }
    }
    for m in &mut mean {
        *m /= n as f64;
    }
    let (mut within, mut total) = (0.0f64, 0.0f64);
    for (row, &l) in data.chunks_exact(dim).zip(labels) {
        let centre = &sums[l * dim..(l + 1) * dim];
        for (i, &v) in row.iter().enumerate() {
            let v = f64::from(v);
            within += (v - centre[i]) * (v - centre[i]);
            total += (v - mean[i]) * (v - mean[i]);
        }
    }
    let empty = counts.iter().filter(|&&c| c == 0).count();
    (within / n as f64, total / n as f64, empty)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn top_r_orders_by_distance_then_id_and_can_skip_self() {
        // four points on a line; 1-d padded to dim 2
        let base = [0.0, 0.0, 1.0, 0.0, 1.0, 0.0, 5.0, 0.0];
        let got = top_r(&base, &[1.0, 0.0], 2, 3, 2, None);
        assert_eq!(got, vec![vec![(1, 0.0), (2, 0.0), (0, 1.0)]]);
        let own = [1u32];
        let got = top_r(&base, &[1.0, 0.0], 2, 2, 1, Some(&own));
        assert_eq!(got, vec![vec![(2, 0.0), (0, 1.0)]]);
    }

    #[test]
    fn amend_merges_new_rows() {
        let mut truth = vec![vec![(0u32, 1.0f32), (3, 16.0)]];
        amend(&mut truth, &[1.0, 0.0], 2, 2, &[2.0, 0.0], &[9]);
        assert_eq!(truth, vec![vec![(0, 1.0), (9, 1.0)]]);
    }

    #[test]
    fn recall_counts_shared_ids() {
        let truth = vec![vec![(1u32, 0.0f32), (2, 1.0)]];
        assert_eq!(recall(&[vec![(2, 1.0), (7, 3.0)]], &truth, 2), 0.5);
        assert_eq!(recall(&truth.clone(), &truth, 2), 1.0);
    }

    #[test]
    fn distortion_of_two_tight_groups() {
        let data = [0.0, 0.0, 2.0, 0.0, 10.0, 0.0, 12.0, 0.0];
        let (within, total, empty) = distortion(&data, 2, &[0, 0, 1, 1], 3);
        assert_eq!(within, 1.0);
        assert_eq!(total, 26.0);
        assert_eq!(empty, 1);
    }
}
