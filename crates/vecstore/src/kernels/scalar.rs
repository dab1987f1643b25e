//! Portable scalar kernels: the 4-way unrolled loops the workspace originally
//! shipped, kept both as the fallback level of the dispatch table and as the
//! ground truth the SIMD levels are tested against.
//!
//! The 4-way unroll gives the compiler independent accumulator chains to
//! auto-vectorise; on targets without a dedicated SIMD level this is already
//! within a small factor of optimal.

use super::Kernels;

/// Squared Euclidean distance, 4-way unrolled.
pub fn l2_sq(a: &[f32], b: &[f32]) -> f32 {
    let n = a.len().min(b.len());
    let (a, b) = (&a[..n], &b[..n]);
    let chunks = n / 4;
    let mut acc0 = 0.0f32;
    let mut acc1 = 0.0f32;
    let mut acc2 = 0.0f32;
    let mut acc3 = 0.0f32;
    for i in 0..chunks {
        let j = i * 4;
        let d0 = a[j] - b[j];
        let d1 = a[j + 1] - b[j + 1];
        let d2 = a[j + 2] - b[j + 2];
        let d3 = a[j + 3] - b[j + 3];
        acc0 += d0 * d0;
        acc1 += d1 * d1;
        acc2 += d2 * d2;
        acc3 += d3 * d3;
    }
    let mut acc = (acc0 + acc1) + (acc2 + acc3);
    for j in chunks * 4..n {
        let d = a[j] - b[j];
        acc += d * d;
    }
    acc
}

/// Dot product, 4-way unrolled.
pub fn dot(a: &[f32], b: &[f32]) -> f32 {
    let n = a.len().min(b.len());
    let (a, b) = (&a[..n], &b[..n]);
    let chunks = n / 4;
    let mut acc0 = 0.0f32;
    let mut acc1 = 0.0f32;
    let mut acc2 = 0.0f32;
    let mut acc3 = 0.0f32;
    for i in 0..chunks {
        let j = i * 4;
        acc0 += a[j] * b[j];
        acc1 += a[j + 1] * b[j + 1];
        acc2 += a[j + 2] * b[j + 2];
        acc3 += a[j + 3] * b[j + 3];
    }
    let mut acc = (acc0 + acc1) + (acc2 + acc3);
    for j in chunks * 4..n {
        acc += a[j] * b[j];
    }
    acc
}

/// Mixed-precision dot product (`f64` accumulator vector × `f32` row), 4-way
/// unrolled in `f64`.
pub fn dot_f64_f32(a: &[f64], b: &[f32]) -> f64 {
    let n = a.len().min(b.len());
    let (a, b) = (&a[..n], &b[..n]);
    let chunks = n / 4;
    let mut acc0 = 0.0f64;
    let mut acc1 = 0.0f64;
    let mut acc2 = 0.0f64;
    let mut acc3 = 0.0f64;
    for i in 0..chunks {
        let j = i * 4;
        acc0 += a[j] * f64::from(b[j]);
        acc1 += a[j + 1] * f64::from(b[j + 1]);
        acc2 += a[j + 2] * f64::from(b[j + 2]);
        acc3 += a[j + 3] * f64::from(b[j + 3]);
    }
    let mut acc = (acc0 + acc1) + (acc2 + acc3);
    for j in chunks * 4..n {
        acc += a[j] * f64::from(b[j]);
    }
    acc
}

/// Batched squared distances from `x` to every row of `rows`.
pub fn l2_sq_one_to_many(x: &[f32], rows: &[f32], out: &mut [f32]) {
    let d = x.len();
    if d == 0 {
        out.fill(0.0);
        return;
    }
    for (slot, row) in out.iter_mut().zip(rows.chunks_exact(d)) {
        *slot = l2_sq(x, row);
    }
}

/// Asymmetric SQ8 squared distances: `out[r] = Σ_i (aq[i] − scales[i] ·
/// codes[r·d + i])²` with `d = aq.len()`, 4-way unrolled.  This is the ground
/// truth the SIMD SQ8 levels are tested against.
pub fn l2_sq_sq8_one_to_many(aq: &[f32], scales: &[f32], codes: &[u8], out: &mut [f32]) {
    let d = aq.len();
    if d == 0 {
        out.fill(0.0);
        return;
    }
    for (slot, row) in out.iter_mut().zip(codes.chunks_exact(d)) {
        let chunks = d / 4;
        let mut acc0 = 0.0f32;
        let mut acc1 = 0.0f32;
        let mut acc2 = 0.0f32;
        let mut acc3 = 0.0f32;
        for i in 0..chunks {
            let j = i * 4;
            let d0 = aq[j] - scales[j] * f32::from(row[j]);
            let d1 = aq[j + 1] - scales[j + 1] * f32::from(row[j + 1]);
            let d2 = aq[j + 2] - scales[j + 2] * f32::from(row[j + 2]);
            let d3 = aq[j + 3] - scales[j + 3] * f32::from(row[j + 3]);
            acc0 += d0 * d0;
            acc1 += d1 * d1;
            acc2 += d2 * d2;
            acc3 += d3 * d3;
        }
        let mut acc = (acc0 + acc1) + (acc2 + acc3);
        for j in chunks * 4..d {
            let df = aq[j] - scales[j] * f32::from(row[j]);
            acc += df * df;
        }
        *slot = acc;
    }
}

/// Batched dot products from `x` to every row of `rows`.
pub fn dot_one_to_many(x: &[f32], rows: &[f32], out: &mut [f32]) {
    let d = x.len();
    if d == 0 {
        out.fill(0.0);
        return;
    }
    for (slot, row) in out.iter_mut().zip(rows.chunks_exact(d)) {
        *slot = dot(x, row);
    }
}

/// `m × k` tile of squared distances: one one-to-many sweep per query row.
/// The scalar level has no register file worth tiling for, so this doubles
/// as the naive reference the SIMD tiles are pinned against.
pub fn l2_sq_many_to_many(xs: &[f32], rows: &[f32], d: usize, out: &mut [f32]) {
    if d == 0 {
        out.fill(0.0);
        return;
    }
    let k = rows.len() / d;
    for (q, tile_row) in xs.chunks_exact(d).zip(out.chunks_exact_mut(k)) {
        l2_sq_one_to_many(q, rows, tile_row);
    }
}

/// Element-wise `acc[i] += row[i]` with the row widened to `f64`, 4-way
/// unrolled.  No reduction is involved, so this is the exact arithmetic every
/// SIMD level must reproduce bit for bit.
pub fn add_assign_f64_f32(acc: &mut [f64], row: &[f32]) {
    let n = acc.len().min(row.len());
    let (acc, row) = (&mut acc[..n], &row[..n]);
    let chunks = n / 4;
    for i in 0..chunks {
        let j = i * 4;
        acc[j] += f64::from(row[j]);
        acc[j + 1] += f64::from(row[j + 1]);
        acc[j + 2] += f64::from(row[j + 2]);
        acc[j + 3] += f64::from(row[j + 3]);
    }
    for j in chunks * 4..n {
        acc[j] += f64::from(row[j]);
    }
}

/// `m × k` tile of dot products: one one-to-many sweep per query row.
pub fn dot_many_to_many(xs: &[f32], rows: &[f32], d: usize, out: &mut [f32]) {
    if d == 0 {
        out.fill(0.0);
        return;
    }
    let k = rows.len() / d;
    for (q, tile_row) in xs.chunks_exact(d).zip(out.chunks_exact_mut(k)) {
        dot_one_to_many(q, rows, tile_row);
    }
}

/// The portable fallback level.
pub static KERNELS: Kernels = Kernels {
    name: "scalar",
    l2_sq,
    dot,
    dot_f64_f32,
    l2_sq_one_to_many,
    l2_sq_sq8_one_to_many,
    dot_one_to_many,
    l2_sq_many_to_many,
    dot_many_to_many,
    add_assign_f64_f32,
};
