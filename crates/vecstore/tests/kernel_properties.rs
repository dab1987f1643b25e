//! Property suite for the SIMD kernel subsystem.
//!
//! Every kernel table available on the build machine (scalar always; AVX2+FMA
//! or NEON when the CPU supports it) must agree with the naive reference
//! within 1e-3 relative tolerance:
//!
//! * across **every length 0..=257**, covering all remainder lane counts of
//!   the 32-, 16-, 8- and 4-wide main loops;
//! * on **unaligned slices** (the kernels use unaligned loads; sub-slicing at
//!   odd offsets must not change results beyond reassociation error);
//! * between the **batched one-to-many paths and the pairwise kernels**;
//! * and the **dispatch must be deterministic** within a process.

use vecstore::distance::l2_sq_reference;
use vecstore::kernels::{self, Kernels};

/// Deterministic pseudo-random test vector; `phase` decorrelates the streams.
fn test_vector(len: usize, phase: f32) -> Vec<f32> {
    (0..len)
        .map(|i| ((i as f32 + phase) * 0.718).sin() * 7.3 + (i as f32 * 0.131 + phase).cos())
        .collect()
}

fn dot_reference(a: &[f32], b: &[f32]) -> f32 {
    a.iter().zip(b).map(|(x, y)| x * y).sum()
}

fn close(fast: f32, slow: f32) -> bool {
    (fast - slow).abs() <= 1e-3 * slow.abs().max(1.0)
}

fn for_each_kernel_set(mut f: impl FnMut(&'static Kernels)) {
    let sets = kernels::available();
    assert!(!sets.is_empty(), "the scalar set is always available");
    for set in sets {
        f(set);
    }
}

#[test]
fn l2_sq_matches_reference_for_all_remainder_lanes() {
    for_each_kernel_set(|set| {
        for len in 0..=257usize {
            let a = test_vector(len, 0.0);
            let b = test_vector(len, 3.7);
            let fast = (set.l2_sq)(&a, &b);
            let slow = l2_sq_reference(&a, &b);
            assert!(
                close(fast, slow),
                "{} len={len}: {fast} vs {slow}",
                set.name
            );
        }
    });
}

#[test]
fn dot_matches_reference_for_all_remainder_lanes() {
    for_each_kernel_set(|set| {
        for len in 0..=257usize {
            let a = test_vector(len, 1.0);
            let b = test_vector(len, 5.1);
            let fast = (set.dot)(&a, &b);
            let slow = dot_reference(&a, &b);
            assert!(
                close(fast, slow),
                "{} len={len}: {fast} vs {slow}",
                set.name
            );
        }
    });
}

#[test]
fn dot_f64_f32_matches_reference_for_all_remainder_lanes() {
    for_each_kernel_set(|set| {
        for len in 0..=257usize {
            let a: Vec<f64> = test_vector(len, 2.0)
                .iter()
                .map(|&v| f64::from(v))
                .collect();
            let b = test_vector(len, 6.9);
            let fast = (set.dot_f64_f32)(&a, &b);
            let slow: f64 = a.iter().zip(&b).map(|(x, &y)| x * f64::from(y)).sum();
            assert!(
                (fast - slow).abs() <= 1e-9 * slow.abs().max(1.0),
                "{} len={len}: {fast} vs {slow}",
                set.name
            );
        }
    });
}

#[test]
fn unaligned_subslices_agree_with_reference() {
    // Slicing at odd offsets guarantees the loads are not 32-byte aligned.
    let backing_a = test_vector(300, 0.5);
    let backing_b = test_vector(300, 9.2);
    for_each_kernel_set(|set| {
        for offset in 1..=7usize {
            for len in [0usize, 1, 5, 8, 15, 31, 33, 64, 127, 250] {
                let a = &backing_a[offset..offset + len];
                let b = &backing_b[offset + 1..offset + 1 + len];
                let fast = (set.l2_sq)(a, b);
                let slow = l2_sq_reference(a, b);
                assert!(
                    close(fast, slow),
                    "{} offset={offset} len={len}: {fast} vs {slow}",
                    set.name
                );
            }
        }
    });
}

#[test]
fn batched_paths_match_pairwise_paths() {
    for dim in [0usize, 1, 3, 8, 17, 32, 100, 128, 257] {
        for n in [1usize, 2, 7, 19] {
            let x = test_vector(dim, 0.0);
            let rows: Vec<f32> = (0..n)
                .flat_map(|r| test_vector(dim, r as f32 + 1.5))
                .collect();
            let mut batched = vec![0.0f32; n];
            kernels::l2_sq_one_to_many(&x, &rows, &mut batched);
            for (r, &got) in batched.iter().enumerate() {
                let row = &rows[r * dim..(r + 1) * dim];
                assert!(
                    close(got, l2_sq_reference(&x, row)),
                    "l2 dim={dim} n={n} row={r}"
                );
            }
            let mut dots = vec![0.0f32; n];
            kernels::dot_one_to_many(&x, &rows, &mut dots);
            for (r, &got) in dots.iter().enumerate() {
                let row = &rows[r * dim..(r + 1) * dim];
                assert!(
                    close(got, dot_reference(&x, row)),
                    "dot dim={dim} n={n} row={r}"
                );
            }
        }
    }
}

#[test]
fn indexed_and_cached_batches_match_direct_evaluation() {
    let dim = 129; // odd remainder on every lane width
    let n_rows = 23;
    let flat: Vec<f32> = (0..n_rows)
        .flat_map(|r| test_vector(dim, r as f32 * 2.2))
        .collect();
    let x = test_vector(dim, 11.0);
    let indices: Vec<u32> = vec![22, 0, 7, 7, 13, 1];

    let mut indexed = vec![0.0f32; indices.len()];
    kernels::l2_sq_one_to_many_indexed(&x, &flat, dim, &indices, &mut indexed);
    for (slot, &i) in indexed.iter().zip(&indices) {
        let row = &flat[i as usize * dim..(i as usize + 1) * dim];
        assert!(close(*slot, l2_sq_reference(&x, row)), "index {i}");
    }

    let x_norm: f32 = dot_reference(&x, &x);
    let row_norms: Vec<f32> = (0..n_rows)
        .map(|r| {
            let row = &flat[r * dim..(r + 1) * dim];
            dot_reference(row, row)
        })
        .collect();
    let mut cached = vec![0.0f32; n_rows];
    kernels::l2_sq_one_to_many_cached(&x, x_norm, &flat, &row_norms, &mut cached);
    for (r, &got) in cached.iter().enumerate() {
        let row = &flat[r * dim..(r + 1) * dim];
        let expect = l2_sq_reference(&x, row);
        // the expansion amplifies cancellation, hence the looser bound
        assert!(
            (got - expect).abs() <= 1e-2 * expect.max(1.0),
            "cached row {r}: {got} vs {expect}"
        );
        assert!(got >= 0.0, "cached distances must clamp to zero");
    }
}

#[test]
fn dispatch_is_deterministic_within_a_process() {
    let first = kernels::active();
    let first_name = first.name;
    for _ in 0..100 {
        let again = kernels::active();
        assert!(std::ptr::eq(first, again), "dispatch table must be cached");
        assert_eq!(first_name, again.name);
    }
    // the distance wrappers observe the same table
    let a = test_vector(64, 0.1);
    let b = test_vector(64, 7.7);
    let via_wrapper = vecstore::distance::l2_sq(&a, &b);
    let via_table = (kernels::active().l2_sq)(&a, &b);
    assert_eq!(via_wrapper.to_bits(), via_table.to_bits());
}

/// Flat block of `rows` deterministic pseudo-random rows of length `d`.
fn test_block(rows: usize, d: usize, phase: f32) -> Vec<f32> {
    (0..rows)
        .flat_map(|r| test_vector(d, phase + r as f32 * 1.37))
        .collect()
}

#[test]
fn many_to_many_tiles_match_reference_across_tile_edges() {
    // Shapes straddling every micro-kernel edge: the 4-query block, the
    // 2-candidate block, and (at 63..=65) the interior/edge transitions of
    // larger tiles.  Small m/k sweep the full 0..=257 dimension range; the
    // larger shapes sample the interesting remainder dimensions.
    let small: &[usize] = &[1, 7, 8, 9];
    let large: &[usize] = &[63, 64, 65];
    let dims_full: Vec<usize> = (0..=257).collect();
    let dims_sampled: Vec<usize> = vec![0, 1, 7, 8, 9, 31, 32, 64, 65, 128, 129, 257];
    for_each_kernel_set(|set| {
        let check = |m: usize, k: usize, d: usize| {
            let xs = test_block(m, d, 0.3);
            let rows = test_block(k, d, 5.9);
            let mut tile = vec![f32::NAN; m * k];
            (set.l2_sq_many_to_many)(&xs, &rows, d, &mut tile);
            let mut dots = vec![f32::NAN; m * k];
            (set.dot_many_to_many)(&xs, &rows, d, &mut dots);
            for q in 0..m {
                for c in 0..k {
                    let a = &xs[q * d..(q + 1) * d];
                    let b = &rows[c * d..(c + 1) * d];
                    assert!(
                        close(tile[q * k + c], l2_sq_reference(a, b)),
                        "{} l2 m={m} k={k} d={d} ({q},{c})",
                        set.name
                    );
                    assert!(
                        close(dots[q * k + c], dot_reference(a, b)),
                        "{} dot m={m} k={k} d={d} ({q},{c})",
                        set.name
                    );
                }
            }
        };
        for &m in small {
            for &k in small {
                for &d in &dims_full {
                    check(m, k, d);
                }
            }
        }
        for &m in large {
            for &k in large {
                for &d in &dims_sampled {
                    check(m, k, d);
                }
            }
        }
        // mixed small × large edges
        for &(m, k) in &[(1usize, 65usize), (65, 1), (7, 64), (64, 9)] {
            for &d in &dims_sampled {
                check(m, k, d);
            }
        }
    });
}

#[test]
fn many_to_many_tiles_are_bit_stable_under_unaligned_slices() {
    // The tiling invariant promises per-pair results independent of blocking;
    // unaligned loads must not change them either, so an odd-offset view of
    // the same values must reproduce the tile bit for bit.
    let (m, k, d) = (9, 11, 67);
    for_each_kernel_set(|set| {
        for offset in 1..=3usize {
            let mut backing_x = vec![0.0f32; offset + m * d];
            backing_x[offset..].copy_from_slice(&test_block(m, d, 1.1));
            let mut backing_r = vec![0.0f32; offset + k * d];
            backing_r[offset..].copy_from_slice(&test_block(k, d, 8.4));
            let mut aligned = vec![0.0f32; m * k];
            (set.l2_sq_many_to_many)(&backing_x[offset..], &backing_r[offset..], d, &mut aligned);
            let xs = test_block(m, d, 1.1);
            let rows = test_block(k, d, 8.4);
            let mut direct = vec![0.0f32; m * k];
            (set.l2_sq_many_to_many)(&xs, &rows, d, &mut direct);
            for (a, b) in aligned.iter().zip(&direct) {
                assert_eq!(a.to_bits(), b.to_bits(), "{} offset={offset}", set.name);
            }
        }
    });
}

/// The pre-tiling assignment scan: one one-to-many sweep per sample plus the
/// sticky argmin `baselines::common` used before the fused kernel existed.
fn pre_tiling_assign(xs: &[f32], rows: &[f32], d: usize, labels: &mut [usize]) {
    let k = rows.len() / d;
    let mut dists = vec![0.0f32; k];
    for (q, label) in xs.chunks_exact(d).zip(labels.iter_mut()) {
        kernels::l2_sq_one_to_many(q, rows, &mut dists);
        let mut best = (*label).min(k - 1);
        let mut best_v = dists[best];
        for (i, &v) in dists.iter().enumerate() {
            if v < best_v {
                best_v = v;
                best = i;
            }
        }
        *label = best;
    }
}

#[test]
fn assign_block_agrees_with_materialise_then_scan_exactly() {
    // Shapes crossing the 16-query and 256-candidate panel edges of the
    // fused fold; candidates include exact duplicates so sticky ties are
    // exercised on every shape.
    for &(m, k, d) in &[
        (1usize, 1usize, 3usize),
        (7, 2, 5),
        (16, 7, 9),
        (17, 256, 5),
        (33, 259, 8),
        (5, 300, 33),
    ] {
        let xs = test_block(m, d, 0.9);
        let mut rows = test_block(k, d, 4.2);
        if k >= 2 {
            // duplicate the first candidate into the last slot
            let first = rows[..d].to_vec();
            rows[(k - 1) * d..].copy_from_slice(&first);
        }
        let current: Vec<u32> = (0..m).map(|q| ((q * 7) % (k + 2)) as u32).collect();
        let mut idx = vec![0u32; m];
        let mut dist = vec![0.0f32; m];
        let mut second = vec![0.0f32; m];
        kernels::assign_block(&xs, &rows, d, &current, &mut idx, &mut dist, &mut second);

        let mut tile = vec![0.0f32; m * k];
        kernels::l2_sq_many_to_many(&xs, &rows, d, &mut tile);
        for q in 0..m {
            let row = &tile[q * k..(q + 1) * k];
            let cur = (current[q] as usize).min(k - 1);
            let mut best = cur;
            let mut best_v = row[cur];
            for (c, &v) in row.iter().enumerate() {
                if v < best_v {
                    best_v = v;
                    best = c;
                }
            }
            let second_ref = row
                .iter()
                .enumerate()
                .filter(|&(c, _)| c != best)
                .map(|(_, &v)| v)
                .fold(f32::INFINITY, f32::min);
            assert_eq!(idx[q] as usize, best, "m={m} k={k} d={d} q={q}");
            assert_eq!(
                dist[q].to_bits(),
                best_v.to_bits(),
                "best distance m={m} k={k} d={d} q={q}"
            );
            assert_eq!(
                second[q].to_bits(),
                second_ref.to_bits(),
                "second distance m={m} k={k} d={d} q={q}"
            );
        }
    }
}

#[test]
fn fused_assignment_labels_bit_identical_to_pre_tiling_path() {
    // Integer-lattice corpus: every coordinate is a small integer, so every
    // squared distance is exactly representable and *every* summation order
    // produces the same f32 — the one regime where the pre-tiling sweep and
    // the tiled kernel must agree bit for bit, including sticky ties against
    // exactly duplicated centroids.
    let d = 24;
    let m = 150;
    let k = 37;
    let xs: Vec<f32> = (0..m * d).map(|i| ((i * 7 + i / d) % 13) as f32).collect();
    let mut rows: Vec<f32> = (0..k * d).map(|i| ((i * 5 + i / d) % 13) as f32).collect();
    // duplicate centroid pairs at (0, k-1) and (3, 4)
    let first = rows[..d].to_vec();
    rows[(k - 1) * d..].copy_from_slice(&first);
    let third = rows[3 * d..4 * d].to_vec();
    rows[4 * d..5 * d].copy_from_slice(&third);

    for start in [0usize, 3, 4, 36] {
        let mut old_labels = vec![start; m];
        pre_tiling_assign(&xs, &rows, d, &mut old_labels);

        let current = vec![start as u32; m];
        let mut idx = vec![0u32; m];
        let mut dist = vec![0.0f32; m];
        let mut second = vec![0.0f32; m];
        kernels::assign_block(&xs, &rows, d, &current, &mut idx, &mut dist, &mut second);
        let new_labels: Vec<usize> = idx.iter().map(|&i| i as usize).collect();
        assert_eq!(old_labels, new_labels, "start={start}");
    }
}

#[test]
fn cached_assignment_falls_back_and_matches_direct_on_large_norms() {
    // Large-norm descriptors: ‖x‖² ≈ 1e7 makes the f32 expansion error
    // (~eps·‖x‖² ≈ 1) dwarf the true distances (≤ 1e-2), so only the
    // compensation fallback can keep the cached argmin honest.
    let d = 12;
    let m = 64;
    let k = 9;
    let offset = 3.0e3f32;
    let xs: Vec<f32> = (0..m * d)
        .map(|i| offset + ((i % 11) as f32) * 1.0e-3)
        .collect();
    let rows: Vec<f32> = (0..k * d)
        .map(|i| offset + ((i % 7) as f32) * 1.0e-3)
        .collect();
    let x_norms: Vec<f32> = (0..m)
        .map(|q| dot_reference(&xs[q * d..(q + 1) * d], &xs[q * d..(q + 1) * d]))
        .collect();
    let row_norms: Vec<f32> = (0..k)
        .map(|c| dot_reference(&rows[c * d..(c + 1) * d], &rows[c * d..(c + 1) * d]))
        .collect();
    let current = vec![0u32; m];

    let mut idx_direct = vec![0u32; m];
    let mut dist_direct = vec![0.0f32; m];
    let mut second_direct = vec![0.0f32; m];
    kernels::assign_block(
        &xs,
        &rows,
        d,
        &current,
        &mut idx_direct,
        &mut dist_direct,
        &mut second_direct,
    );

    let mut idx_cached = vec![0u32; m];
    let mut dist_cached = vec![0.0f32; m];
    let mut second_cached = vec![0.0f32; m];
    kernels::assign_block_cached(
        &xs,
        &x_norms,
        &rows,
        &row_norms,
        d,
        &current,
        &mut idx_cached,
        &mut dist_cached,
        &mut second_cached,
    );
    assert_eq!(idx_direct, idx_cached);
    // fallen-back samples re-score through the direct tile, so even the
    // distances must agree bit for bit
    for (a, b) in dist_direct.iter().zip(&dist_cached) {
        assert_eq!(a.to_bits(), b.to_bits());
    }
}

#[test]
fn add_assign_is_bit_identical_across_dispatch_levels() {
    // Element-wise widening adds carry no summation order: every level must
    // reproduce the scalar result exactly, at every remainder lane count.
    for len in 0..=67usize {
        let row = test_vector(len, 5.1);
        let init: Vec<f64> = (0..len).map(|i| (i as f64 * 0.77).sin() * 1e3).collect();
        let mut reference = init.clone();
        kernels::scalar::add_assign_f64_f32(&mut reference, &row);
        for_each_kernel_set(|set| {
            let mut acc = init.clone();
            (set.add_assign_f64_f32)(&mut acc, &row);
            for (j, (a, b)) in acc.iter().zip(&reference).enumerate() {
                assert_eq!(a.to_bits(), b.to_bits(), "{} len={len} lane={j}", set.name);
            }
        });
    }
}

#[test]
fn fused_accumulate_sweep_matches_assign_then_accumulate_exactly() {
    // The fused sweep must change nothing about the assignment (labels,
    // distances, second-best — all bit-identical to `assign_block`) and its
    // sums/counts must equal a reference accumulation of the winners in
    // ascending query order, across the tile-edge shapes of the blocked
    // kernels.
    let d = 24;
    for &m in &[1usize, 7, 8, 9, 16, 17, 63, 64, 65] {
        for &k in &[1usize, 7, 9, 64, 65] {
            let xs = test_vector(m * d, 0.3);
            let rows = test_vector(k * d, 8.9);
            let current: Vec<u32> = (0..m).map(|q| (q % k) as u32).collect();

            let mut idx_a = vec![0u32; m];
            let mut dist_a = vec![0.0f32; m];
            let mut sec_a = vec![0.0f32; m];
            kernels::assign_block(&xs, &rows, d, &current, &mut idx_a, &mut dist_a, &mut sec_a);

            let mut idx_b = vec![0u32; m];
            let mut dist_b = vec![0.0f32; m];
            let mut sec_b = vec![0.0f32; m];
            let mut sums = vec![0.0f64; k * d];
            let mut counts = vec![0u64; k];
            kernels::assign_accumulate_block(
                &xs,
                &rows,
                d,
                &current,
                &mut idx_b,
                &mut dist_b,
                &mut sec_b,
                &mut sums,
                &mut counts,
            );
            assert_eq!(idx_a, idx_b, "m={m} k={k}: labels");
            for q in 0..m {
                assert_eq!(
                    dist_a[q].to_bits(),
                    dist_b[q].to_bits(),
                    "m={m} k={k} q={q}"
                );
                assert_eq!(sec_a[q].to_bits(), sec_b[q].to_bits(), "m={m} k={k} q={q}");
            }

            let mut ref_sums = vec![0.0f64; k * d];
            let mut ref_counts = vec![0u64; k];
            for q in 0..m {
                let c = idx_a[q] as usize;
                ref_counts[c] += 1;
                for (slot, &x) in ref_sums[c * d..(c + 1) * d]
                    .iter_mut()
                    .zip(&xs[q * d..(q + 1) * d])
                {
                    *slot += f64::from(x);
                }
            }
            assert_eq!(counts, ref_counts, "m={m} k={k}: counts");
            for (j, (a, b)) in sums.iter().zip(&ref_sums).enumerate() {
                assert_eq!(a.to_bits(), b.to_bits(), "m={m} k={k}: sum lane {j}");
            }
            assert_eq!(counts.iter().sum::<u64>(), m as u64);
        }
    }
}
