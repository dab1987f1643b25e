//! AVX2 + FMA kernels for x86-64.
//!
//! Eight `f32` lanes per vector with fused multiply-add, four independent
//! accumulator chains (32 floats per main-loop step) to cover the FMA
//! latency, then an 8-lane loop and a scalar tail for the remainder — so
//! every length, alignment and remainder lane count is handled.  All loads
//! are unaligned (`loadu`); callers never need to align their slices.
//!
//! Safety model: the inner `#[target_feature]` functions are only reachable
//! through the safe `*_entry` wrappers stored in [`KERNELS`], and that table
//! is only ever selected by [`super::active`] after
//! `is_x86_feature_detected!("avx2")`/`("fma")` both succeed, which makes the
//! `unsafe` calls sound.

#![allow(unsafe_code)]

use core::arch::x86_64::{
    __m256, _mm256_add_pd, _mm256_add_ps, _mm256_castps256_ps128, _mm256_cvtepi32_ps,
    _mm256_cvtepu8_epi32, _mm256_cvtps_pd, _mm256_extractf128_ps, _mm256_fmadd_pd, _mm256_fmadd_ps,
    _mm256_fnmadd_ps, _mm256_loadu_pd, _mm256_loadu_ps, _mm256_setzero_pd, _mm256_setzero_ps,
    _mm256_storeu_pd, _mm256_sub_ps, _mm_add_ps, _mm_add_ss, _mm_cvtss_f32, _mm_loadu_ps,
    _mm_loadu_si64, _mm_movehdup_ps, _mm_movehl_ps,
};

use super::Kernels;

/// Horizontal sum of the eight lanes of an AVX register.
#[target_feature(enable = "avx2,fma")]
unsafe fn hsum256(v: __m256) -> f32 {
    let lo = _mm256_castps256_ps128(v);
    let hi = _mm256_extractf128_ps(v, 1);
    let sum4 = _mm_add_ps(lo, hi);
    let shuf = _mm_movehdup_ps(sum4);
    let sum2 = _mm_add_ps(sum4, shuf);
    let hi2 = _mm_movehl_ps(shuf, sum2);
    _mm_cvtss_f32(_mm_add_ss(sum2, hi2))
}

#[target_feature(enable = "avx2,fma")]
unsafe fn l2_sq_body(a: &[f32], b: &[f32]) -> f32 {
    let n = a.len().min(b.len());
    let (pa, pb) = (a.as_ptr(), b.as_ptr());
    let mut acc0 = _mm256_setzero_ps();
    let mut acc1 = _mm256_setzero_ps();
    let mut acc2 = _mm256_setzero_ps();
    let mut acc3 = _mm256_setzero_ps();
    let mut i = 0usize;
    while i + 32 <= n {
        let d0 = _mm256_sub_ps(_mm256_loadu_ps(pa.add(i)), _mm256_loadu_ps(pb.add(i)));
        let d1 = _mm256_sub_ps(
            _mm256_loadu_ps(pa.add(i + 8)),
            _mm256_loadu_ps(pb.add(i + 8)),
        );
        let d2 = _mm256_sub_ps(
            _mm256_loadu_ps(pa.add(i + 16)),
            _mm256_loadu_ps(pb.add(i + 16)),
        );
        let d3 = _mm256_sub_ps(
            _mm256_loadu_ps(pa.add(i + 24)),
            _mm256_loadu_ps(pb.add(i + 24)),
        );
        acc0 = _mm256_fmadd_ps(d0, d0, acc0);
        acc1 = _mm256_fmadd_ps(d1, d1, acc1);
        acc2 = _mm256_fmadd_ps(d2, d2, acc2);
        acc3 = _mm256_fmadd_ps(d3, d3, acc3);
        i += 32;
    }
    while i + 8 <= n {
        let d = _mm256_sub_ps(_mm256_loadu_ps(pa.add(i)), _mm256_loadu_ps(pb.add(i)));
        acc0 = _mm256_fmadd_ps(d, d, acc0);
        i += 8;
    }
    let mut total = hsum256(_mm256_add_ps(
        _mm256_add_ps(acc0, acc1),
        _mm256_add_ps(acc2, acc3),
    ));
    while i < n {
        let d = *pa.add(i) - *pb.add(i);
        total += d * d;
        i += 1;
    }
    total
}

#[target_feature(enable = "avx2,fma")]
unsafe fn dot_body(a: &[f32], b: &[f32]) -> f32 {
    let n = a.len().min(b.len());
    let (pa, pb) = (a.as_ptr(), b.as_ptr());
    let mut acc0 = _mm256_setzero_ps();
    let mut acc1 = _mm256_setzero_ps();
    let mut acc2 = _mm256_setzero_ps();
    let mut acc3 = _mm256_setzero_ps();
    let mut i = 0usize;
    while i + 32 <= n {
        acc0 = _mm256_fmadd_ps(_mm256_loadu_ps(pa.add(i)), _mm256_loadu_ps(pb.add(i)), acc0);
        acc1 = _mm256_fmadd_ps(
            _mm256_loadu_ps(pa.add(i + 8)),
            _mm256_loadu_ps(pb.add(i + 8)),
            acc1,
        );
        acc2 = _mm256_fmadd_ps(
            _mm256_loadu_ps(pa.add(i + 16)),
            _mm256_loadu_ps(pb.add(i + 16)),
            acc2,
        );
        acc3 = _mm256_fmadd_ps(
            _mm256_loadu_ps(pa.add(i + 24)),
            _mm256_loadu_ps(pb.add(i + 24)),
            acc3,
        );
        i += 32;
    }
    while i + 8 <= n {
        acc0 = _mm256_fmadd_ps(_mm256_loadu_ps(pa.add(i)), _mm256_loadu_ps(pb.add(i)), acc0);
        i += 8;
    }
    let mut total = hsum256(_mm256_add_ps(
        _mm256_add_ps(acc0, acc1),
        _mm256_add_ps(acc2, acc3),
    ));
    while i < n {
        total += *pa.add(i) * *pb.add(i);
        i += 1;
    }
    total
}

#[target_feature(enable = "avx2,fma")]
unsafe fn dot_f64_f32_body(a: &[f64], b: &[f32]) -> f64 {
    let n = a.len().min(b.len());
    let (pa, pb) = (a.as_ptr(), b.as_ptr());
    let mut acc0 = _mm256_setzero_pd();
    let mut acc1 = _mm256_setzero_pd();
    let mut i = 0usize;
    while i + 8 <= n {
        // widen two groups of four f32 lanes to f64 and fold them in
        let x0 = _mm256_cvtps_pd(_mm_loadu_ps(pb.add(i)));
        let x1 = _mm256_cvtps_pd(_mm_loadu_ps(pb.add(i + 4)));
        acc0 = _mm256_fmadd_pd(_mm256_loadu_pd(pa.add(i)), x0, acc0);
        acc1 = _mm256_fmadd_pd(_mm256_loadu_pd(pa.add(i + 4)), x1, acc1);
        i += 8;
    }
    while i + 4 <= n {
        let x = _mm256_cvtps_pd(_mm_loadu_ps(pb.add(i)));
        acc0 = _mm256_fmadd_pd(_mm256_loadu_pd(pa.add(i)), x, acc0);
        i += 4;
    }
    let mut lanes = [0.0f64; 4];
    let folded = {
        let mut sum = [0.0f64; 4];
        _mm256_storeu_pd(sum.as_mut_ptr(), acc0);
        _mm256_storeu_pd(lanes.as_mut_ptr(), acc1);
        (sum[0] + sum[1]) + (sum[2] + sum[3]) + (lanes[0] + lanes[1]) + (lanes[2] + lanes[3])
    };
    let mut total = folded;
    while i < n {
        total += *pa.add(i) * f64::from(*pb.add(i));
        i += 1;
    }
    total
}

#[target_feature(enable = "avx2,fma")]
unsafe fn l2_sq_one_to_many_body(x: &[f32], rows: &[f32], out: &mut [f32]) {
    let d = x.len();
    if d == 0 {
        out.fill(0.0);
        return;
    }
    // One feature-enabled frame for the whole block: the per-row kernel call
    // below is a direct (inlinable) call, and the query stays hot in L1.
    for (slot, row) in out.iter_mut().zip(rows.chunks_exact(d)) {
        *slot = l2_sq_body(x, row);
    }
}

#[target_feature(enable = "avx2,fma")]
unsafe fn dot_one_to_many_body(x: &[f32], rows: &[f32], out: &mut [f32]) {
    let d = x.len();
    if d == 0 {
        out.fill(0.0);
        return;
    }
    for (slot, row) in out.iter_mut().zip(rows.chunks_exact(d)) {
        *slot = dot_body(x, row);
    }
}

/// Asymmetric SQ8 distances: eight `u8` codes per step widen through
/// `cvtepu8_epi32` → `cvtepi32_ps` into an 8-lane register, the difference
/// `aq − scale·code` comes out of one fused negated multiply-add, and the
/// square accumulates through FMA — so the per-value memory traffic is one
/// byte while the arithmetic stays full-width `f32`.
#[target_feature(enable = "avx2,fma")]
unsafe fn l2_sq_sq8_one_to_many_body(aq: &[f32], scales: &[f32], codes: &[u8], out: &mut [f32]) {
    let d = aq.len();
    if d == 0 {
        out.fill(0.0);
        return;
    }
    let pq = aq.as_ptr();
    let ps = scales.as_ptr();
    for (slot, row) in out.iter_mut().zip(codes.chunks_exact(d)) {
        let pc = row.as_ptr();
        let mut acc0 = _mm256_setzero_ps();
        let mut acc1 = _mm256_setzero_ps();
        let mut i = 0usize;
        while i + 16 <= d {
            let c0 = _mm256_cvtepi32_ps(_mm256_cvtepu8_epi32(_mm_loadu_si64(pc.add(i))));
            let c1 = _mm256_cvtepi32_ps(_mm256_cvtepu8_epi32(_mm_loadu_si64(pc.add(i + 8))));
            let d0 = _mm256_fnmadd_ps(_mm256_loadu_ps(ps.add(i)), c0, _mm256_loadu_ps(pq.add(i)));
            let d1 = _mm256_fnmadd_ps(
                _mm256_loadu_ps(ps.add(i + 8)),
                c1,
                _mm256_loadu_ps(pq.add(i + 8)),
            );
            acc0 = _mm256_fmadd_ps(d0, d0, acc0);
            acc1 = _mm256_fmadd_ps(d1, d1, acc1);
            i += 16;
        }
        while i + 8 <= d {
            let cv = _mm256_cvtepi32_ps(_mm256_cvtepu8_epi32(_mm_loadu_si64(pc.add(i))));
            let dv = _mm256_fnmadd_ps(_mm256_loadu_ps(ps.add(i)), cv, _mm256_loadu_ps(pq.add(i)));
            acc0 = _mm256_fmadd_ps(dv, dv, acc0);
            i += 8;
        }
        let mut total = hsum256(_mm256_add_ps(acc0, acc1));
        while i < d {
            let df = *pq.add(i) - *ps.add(i) * f32::from(*pc.add(i));
            total += df * df;
            i += 1;
        }
        *slot = total;
    }
}

/// Candidate rows per cache tile of the many-to-many kernels: sized so one
/// tile of candidate data (~128 KiB of `f32`) stays L2-resident across the
/// query sweep instead of being re-streamed from memory per query block.
#[inline]
fn k_tile_rows(d: usize) -> usize {
    (32 * 1024 / d.max(1)).clamp(2, 512)
}

/// Single-accumulator squared-distance pair kernel matching the tile
/// micro-kernel's per-pair reduction order exactly (8-lane steps in ascending
/// order, one horizontal sum, scalar tail).  Tile edges go through this so
/// every `(query, candidate)` pair is bit-identical whichever path computes
/// it — the tiling invariant the module docs of `kernels` promise.
#[target_feature(enable = "avx2,fma")]
unsafe fn l2_sq_pair_1acc(a: *const f32, b: *const f32, d: usize) -> f32 {
    let mut acc = _mm256_setzero_ps();
    let mut i = 0usize;
    while i + 8 <= d {
        let dv = _mm256_sub_ps(_mm256_loadu_ps(a.add(i)), _mm256_loadu_ps(b.add(i)));
        acc = _mm256_fmadd_ps(dv, dv, acc);
        i += 8;
    }
    let mut total = hsum256(acc);
    while i < d {
        let df = *a.add(i) - *b.add(i);
        total += df * df;
        i += 1;
    }
    total
}

/// Single-accumulator dot-product pair kernel; see [`l2_sq_pair_1acc`].
#[target_feature(enable = "avx2,fma")]
unsafe fn dot_pair_1acc(a: *const f32, b: *const f32, d: usize) -> f32 {
    let mut acc = _mm256_setzero_ps();
    let mut i = 0usize;
    while i + 8 <= d {
        acc = _mm256_fmadd_ps(_mm256_loadu_ps(a.add(i)), _mm256_loadu_ps(b.add(i)), acc);
        i += 8;
    }
    let mut total = hsum256(acc);
    while i < d {
        total += *a.add(i) * *b.add(i);
        i += 1;
    }
    total
}

/// Register-blocked, cache-tiled `m × k` squared-distance tile.
///
/// The 4 × 2 micro-kernel holds eight independent accumulators (one per
/// `(query, candidate)` pair), so each 8-lane step performs 8 FMAs for 6
/// loads — versus 1 FMA per 2 loads in the one-to-many sweep — and every
/// loaded candidate vector is reused across four queries.  Candidates are
/// additionally walked in L2-sized tiles (see [`k_tile_rows`]) so at large
/// `k` the candidate matrix is fetched from memory once per ~4-query group
/// of the whole sweep rather than once per query.
#[target_feature(enable = "avx2,fma")]
unsafe fn l2_sq_many_to_many_body(xs: &[f32], rows: &[f32], d: usize, out: &mut [f32]) {
    if d == 0 {
        out.fill(0.0);
        return;
    }
    let m = xs.len() / d;
    let k = rows.len() / d;
    let px = xs.as_ptr();
    let pr = rows.as_ptr();
    let po = out.as_mut_ptr();
    let k_tile = k_tile_rows(d);
    let mut c_base = 0usize;
    while c_base < k {
        let c_end = (c_base + k_tile).min(k);
        let mut q = 0usize;
        while q + 4 <= m {
            let q0 = px.add(q * d);
            let q1 = px.add((q + 1) * d);
            let q2 = px.add((q + 2) * d);
            let q3 = px.add((q + 3) * d);
            let mut c = c_base;
            while c + 2 <= c_end {
                let r0 = pr.add(c * d);
                let r1 = pr.add((c + 1) * d);
                let mut a00 = _mm256_setzero_ps();
                let mut a01 = _mm256_setzero_ps();
                let mut a10 = _mm256_setzero_ps();
                let mut a11 = _mm256_setzero_ps();
                let mut a20 = _mm256_setzero_ps();
                let mut a21 = _mm256_setzero_ps();
                let mut a30 = _mm256_setzero_ps();
                let mut a31 = _mm256_setzero_ps();
                let mut i = 0usize;
                while i + 8 <= d {
                    let c0 = _mm256_loadu_ps(r0.add(i));
                    let c1 = _mm256_loadu_ps(r1.add(i));
                    let x0 = _mm256_loadu_ps(q0.add(i));
                    let d00 = _mm256_sub_ps(x0, c0);
                    let d01 = _mm256_sub_ps(x0, c1);
                    a00 = _mm256_fmadd_ps(d00, d00, a00);
                    a01 = _mm256_fmadd_ps(d01, d01, a01);
                    let x1 = _mm256_loadu_ps(q1.add(i));
                    let d10 = _mm256_sub_ps(x1, c0);
                    let d11 = _mm256_sub_ps(x1, c1);
                    a10 = _mm256_fmadd_ps(d10, d10, a10);
                    a11 = _mm256_fmadd_ps(d11, d11, a11);
                    let x2 = _mm256_loadu_ps(q2.add(i));
                    let d20 = _mm256_sub_ps(x2, c0);
                    let d21 = _mm256_sub_ps(x2, c1);
                    a20 = _mm256_fmadd_ps(d20, d20, a20);
                    a21 = _mm256_fmadd_ps(d21, d21, a21);
                    let x3 = _mm256_loadu_ps(q3.add(i));
                    let d30 = _mm256_sub_ps(x3, c0);
                    let d31 = _mm256_sub_ps(x3, c1);
                    a30 = _mm256_fmadd_ps(d30, d30, a30);
                    a31 = _mm256_fmadd_ps(d31, d31, a31);
                    i += 8;
                }
                let mut s00 = hsum256(a00);
                let mut s01 = hsum256(a01);
                let mut s10 = hsum256(a10);
                let mut s11 = hsum256(a11);
                let mut s20 = hsum256(a20);
                let mut s21 = hsum256(a21);
                let mut s30 = hsum256(a30);
                let mut s31 = hsum256(a31);
                while i < d {
                    let c0i = *r0.add(i);
                    let c1i = *r1.add(i);
                    let x0i = *q0.add(i);
                    let x1i = *q1.add(i);
                    let x2i = *q2.add(i);
                    let x3i = *q3.add(i);
                    let t00 = x0i - c0i;
                    s00 += t00 * t00;
                    let t01 = x0i - c1i;
                    s01 += t01 * t01;
                    let t10 = x1i - c0i;
                    s10 += t10 * t10;
                    let t11 = x1i - c1i;
                    s11 += t11 * t11;
                    let t20 = x2i - c0i;
                    s20 += t20 * t20;
                    let t21 = x2i - c1i;
                    s21 += t21 * t21;
                    let t30 = x3i - c0i;
                    s30 += t30 * t30;
                    let t31 = x3i - c1i;
                    s31 += t31 * t31;
                    i += 1;
                }
                *po.add(q * k + c) = s00;
                *po.add(q * k + c + 1) = s01;
                *po.add((q + 1) * k + c) = s10;
                *po.add((q + 1) * k + c + 1) = s11;
                *po.add((q + 2) * k + c) = s20;
                *po.add((q + 2) * k + c + 1) = s21;
                *po.add((q + 3) * k + c) = s30;
                *po.add((q + 3) * k + c + 1) = s31;
                c += 2;
            }
            while c < c_end {
                let r = pr.add(c * d);
                *po.add(q * k + c) = l2_sq_pair_1acc(q0, r, d);
                *po.add((q + 1) * k + c) = l2_sq_pair_1acc(q1, r, d);
                *po.add((q + 2) * k + c) = l2_sq_pair_1acc(q2, r, d);
                *po.add((q + 3) * k + c) = l2_sq_pair_1acc(q3, r, d);
                c += 1;
            }
            q += 4;
        }
        while q < m {
            let qp = px.add(q * d);
            let mut c = c_base;
            while c < c_end {
                *po.add(q * k + c) = l2_sq_pair_1acc(qp, pr.add(c * d), d);
                c += 1;
            }
            q += 1;
        }
        c_base = c_end;
    }
}

/// Register-blocked, cache-tiled `m × k` dot-product tile (the `X·Cᵀ` of the
/// fused norm expansion); same blocking as [`l2_sq_many_to_many_body`].
#[target_feature(enable = "avx2,fma")]
unsafe fn dot_many_to_many_body(xs: &[f32], rows: &[f32], d: usize, out: &mut [f32]) {
    if d == 0 {
        out.fill(0.0);
        return;
    }
    let m = xs.len() / d;
    let k = rows.len() / d;
    let px = xs.as_ptr();
    let pr = rows.as_ptr();
    let po = out.as_mut_ptr();
    let k_tile = k_tile_rows(d);
    let mut c_base = 0usize;
    while c_base < k {
        let c_end = (c_base + k_tile).min(k);
        let mut q = 0usize;
        while q + 4 <= m {
            let q0 = px.add(q * d);
            let q1 = px.add((q + 1) * d);
            let q2 = px.add((q + 2) * d);
            let q3 = px.add((q + 3) * d);
            let mut c = c_base;
            while c + 2 <= c_end {
                let r0 = pr.add(c * d);
                let r1 = pr.add((c + 1) * d);
                let mut a00 = _mm256_setzero_ps();
                let mut a01 = _mm256_setzero_ps();
                let mut a10 = _mm256_setzero_ps();
                let mut a11 = _mm256_setzero_ps();
                let mut a20 = _mm256_setzero_ps();
                let mut a21 = _mm256_setzero_ps();
                let mut a30 = _mm256_setzero_ps();
                let mut a31 = _mm256_setzero_ps();
                let mut i = 0usize;
                while i + 8 <= d {
                    let c0 = _mm256_loadu_ps(r0.add(i));
                    let c1 = _mm256_loadu_ps(r1.add(i));
                    let x0 = _mm256_loadu_ps(q0.add(i));
                    a00 = _mm256_fmadd_ps(x0, c0, a00);
                    a01 = _mm256_fmadd_ps(x0, c1, a01);
                    let x1 = _mm256_loadu_ps(q1.add(i));
                    a10 = _mm256_fmadd_ps(x1, c0, a10);
                    a11 = _mm256_fmadd_ps(x1, c1, a11);
                    let x2 = _mm256_loadu_ps(q2.add(i));
                    a20 = _mm256_fmadd_ps(x2, c0, a20);
                    a21 = _mm256_fmadd_ps(x2, c1, a21);
                    let x3 = _mm256_loadu_ps(q3.add(i));
                    a30 = _mm256_fmadd_ps(x3, c0, a30);
                    a31 = _mm256_fmadd_ps(x3, c1, a31);
                    i += 8;
                }
                let mut s00 = hsum256(a00);
                let mut s01 = hsum256(a01);
                let mut s10 = hsum256(a10);
                let mut s11 = hsum256(a11);
                let mut s20 = hsum256(a20);
                let mut s21 = hsum256(a21);
                let mut s30 = hsum256(a30);
                let mut s31 = hsum256(a31);
                while i < d {
                    let c0i = *r0.add(i);
                    let c1i = *r1.add(i);
                    let x0i = *q0.add(i);
                    let x1i = *q1.add(i);
                    let x2i = *q2.add(i);
                    let x3i = *q3.add(i);
                    s00 += x0i * c0i;
                    s01 += x0i * c1i;
                    s10 += x1i * c0i;
                    s11 += x1i * c1i;
                    s20 += x2i * c0i;
                    s21 += x2i * c1i;
                    s30 += x3i * c0i;
                    s31 += x3i * c1i;
                    i += 1;
                }
                *po.add(q * k + c) = s00;
                *po.add(q * k + c + 1) = s01;
                *po.add((q + 1) * k + c) = s10;
                *po.add((q + 1) * k + c + 1) = s11;
                *po.add((q + 2) * k + c) = s20;
                *po.add((q + 2) * k + c + 1) = s21;
                *po.add((q + 3) * k + c) = s30;
                *po.add((q + 3) * k + c + 1) = s31;
                c += 2;
            }
            while c < c_end {
                let r = pr.add(c * d);
                *po.add(q * k + c) = dot_pair_1acc(q0, r, d);
                *po.add((q + 1) * k + c) = dot_pair_1acc(q1, r, d);
                *po.add((q + 2) * k + c) = dot_pair_1acc(q2, r, d);
                *po.add((q + 3) * k + c) = dot_pair_1acc(q3, r, d);
                c += 1;
            }
            q += 4;
        }
        while q < m {
            let qp = px.add(q * d);
            let mut c = c_base;
            while c < c_end {
                *po.add(q * k + c) = dot_pair_1acc(qp, pr.add(c * d), d);
                c += 1;
            }
            q += 1;
        }
        c_base = c_end;
    }
}

// Safe entry points: sound because `KERNELS` is only selected after feature
// detection (see module docs).

fn l2_sq_entry(a: &[f32], b: &[f32]) -> f32 {
    unsafe { l2_sq_body(a, b) }
}

fn dot_entry(a: &[f32], b: &[f32]) -> f32 {
    unsafe { dot_body(a, b) }
}

fn dot_f64_f32_entry(a: &[f64], b: &[f32]) -> f64 {
    unsafe { dot_f64_f32_body(a, b) }
}

fn l2_sq_one_to_many_entry(x: &[f32], rows: &[f32], out: &mut [f32]) {
    unsafe { l2_sq_one_to_many_body(x, rows, out) }
}

fn l2_sq_sq8_one_to_many_entry(aq: &[f32], scales: &[f32], codes: &[u8], out: &mut [f32]) {
    unsafe { l2_sq_sq8_one_to_many_body(aq, scales, codes, out) }
}

fn dot_one_to_many_entry(x: &[f32], rows: &[f32], out: &mut [f32]) {
    unsafe { dot_one_to_many_body(x, rows, out) }
}

/// Element-wise `acc[i] += row[i]` with the `f32` row widened to `f64`:
/// 8 floats per step (one 256-bit `f32` load split into two `f64` quads).
/// Element-wise adds carry no summation order, so the result is bit-identical
/// to the scalar level.
#[target_feature(enable = "avx2,fma")]
unsafe fn add_assign_f64_f32_body(acc: &mut [f64], row: &[f32]) {
    let n = acc.len().min(row.len());
    let pa = acc.as_mut_ptr();
    let pr = row.as_ptr();
    let mut i = 0usize;
    while i + 8 <= n {
        let r = _mm256_loadu_ps(pr.add(i));
        let lo = _mm256_cvtps_pd(_mm256_castps256_ps128(r));
        let hi = _mm256_cvtps_pd(_mm256_extractf128_ps(r, 1));
        let a0 = _mm256_loadu_pd(pa.add(i));
        let a1 = _mm256_loadu_pd(pa.add(i + 4));
        _mm256_storeu_pd(pa.add(i), _mm256_add_pd(a0, lo));
        _mm256_storeu_pd(pa.add(i + 4), _mm256_add_pd(a1, hi));
        i += 8;
    }
    while i < n {
        *pa.add(i) += f64::from(*pr.add(i));
        i += 1;
    }
}

fn l2_sq_many_to_many_entry(xs: &[f32], rows: &[f32], d: usize, out: &mut [f32]) {
    unsafe { l2_sq_many_to_many_body(xs, rows, d, out) }
}

fn add_assign_f64_f32_entry(acc: &mut [f64], row: &[f32]) {
    unsafe { add_assign_f64_f32_body(acc, row) }
}

fn dot_many_to_many_entry(xs: &[f32], rows: &[f32], d: usize, out: &mut [f32]) {
    unsafe { dot_many_to_many_body(xs, rows, d, out) }
}

/// The AVX2 + FMA level.
pub static KERNELS: Kernels = Kernels {
    name: "avx2+fma",
    l2_sq: l2_sq_entry,
    dot: dot_entry,
    dot_f64_f32: dot_f64_f32_entry,
    l2_sq_one_to_many: l2_sq_one_to_many_entry,
    l2_sq_sq8_one_to_many: l2_sq_sq8_one_to_many_entry,
    dot_one_to_many: dot_one_to_many_entry,
    l2_sq_many_to_many: l2_sq_many_to_many_entry,
    dot_many_to_many: dot_many_to_many_entry,
    add_assign_f64_f32: add_assign_f64_f32_entry,
};
