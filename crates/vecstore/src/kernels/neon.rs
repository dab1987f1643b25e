//! NEON kernels for aarch64.
//!
//! Four `f32` lanes per vector with fused multiply-add (`vfmaq_f32`), four
//! independent accumulator chains (16 floats per main-loop step), a 4-lane
//! loop and a scalar tail.  NEON is architecturally guaranteed on every
//! aarch64 target Rust supports, but selection still goes through
//! `is_aarch64_feature_detected!` for symmetry with the x86 level.
//!
//! Safety model mirrors `x86.rs`: the inner `#[target_feature]` functions are
//! only reachable through the safe `*_entry` wrappers in [`KERNELS`], which
//! [`super::active`] installs only after feature detection succeeds.

#![allow(unsafe_code)]

use core::arch::aarch64::{
    vaddq_f32, vaddq_f64, vaddvq_f32, vaddvq_f64, vcvt_f64_f32, vcvtq_f32_u32, vdupq_n_f32,
    vdupq_n_f64, vfmaq_f32, vfmaq_f64, vfmsq_f32, vget_high_f32, vget_high_u16, vget_low_f32,
    vget_low_u16, vld1_u8, vld1q_f32, vld1q_f64, vmovl_u16, vmovl_u8, vst1q_f64, vsubq_f32,
};

use super::Kernels;

#[target_feature(enable = "neon")]
unsafe fn l2_sq_body(a: &[f32], b: &[f32]) -> f32 {
    let n = a.len().min(b.len());
    let (pa, pb) = (a.as_ptr(), b.as_ptr());
    let mut acc0 = vdupq_n_f32(0.0);
    let mut acc1 = vdupq_n_f32(0.0);
    let mut acc2 = vdupq_n_f32(0.0);
    let mut acc3 = vdupq_n_f32(0.0);
    let mut i = 0usize;
    while i + 16 <= n {
        let d0 = vsubq_f32(vld1q_f32(pa.add(i)), vld1q_f32(pb.add(i)));
        let d1 = vsubq_f32(vld1q_f32(pa.add(i + 4)), vld1q_f32(pb.add(i + 4)));
        let d2 = vsubq_f32(vld1q_f32(pa.add(i + 8)), vld1q_f32(pb.add(i + 8)));
        let d3 = vsubq_f32(vld1q_f32(pa.add(i + 12)), vld1q_f32(pb.add(i + 12)));
        acc0 = vfmaq_f32(acc0, d0, d0);
        acc1 = vfmaq_f32(acc1, d1, d1);
        acc2 = vfmaq_f32(acc2, d2, d2);
        acc3 = vfmaq_f32(acc3, d3, d3);
        i += 16;
    }
    while i + 4 <= n {
        let d = vsubq_f32(vld1q_f32(pa.add(i)), vld1q_f32(pb.add(i)));
        acc0 = vfmaq_f32(acc0, d, d);
        i += 4;
    }
    let mut total = vaddvq_f32(vaddq_f32(vaddq_f32(acc0, acc1), vaddq_f32(acc2, acc3)));
    while i < n {
        let d = *pa.add(i) - *pb.add(i);
        total += d * d;
        i += 1;
    }
    total
}

#[target_feature(enable = "neon")]
unsafe fn dot_body(a: &[f32], b: &[f32]) -> f32 {
    let n = a.len().min(b.len());
    let (pa, pb) = (a.as_ptr(), b.as_ptr());
    let mut acc0 = vdupq_n_f32(0.0);
    let mut acc1 = vdupq_n_f32(0.0);
    let mut acc2 = vdupq_n_f32(0.0);
    let mut acc3 = vdupq_n_f32(0.0);
    let mut i = 0usize;
    while i + 16 <= n {
        acc0 = vfmaq_f32(acc0, vld1q_f32(pa.add(i)), vld1q_f32(pb.add(i)));
        acc1 = vfmaq_f32(acc1, vld1q_f32(pa.add(i + 4)), vld1q_f32(pb.add(i + 4)));
        acc2 = vfmaq_f32(acc2, vld1q_f32(pa.add(i + 8)), vld1q_f32(pb.add(i + 8)));
        acc3 = vfmaq_f32(acc3, vld1q_f32(pa.add(i + 12)), vld1q_f32(pb.add(i + 12)));
        i += 16;
    }
    while i + 4 <= n {
        acc0 = vfmaq_f32(acc0, vld1q_f32(pa.add(i)), vld1q_f32(pb.add(i)));
        i += 4;
    }
    let mut total = vaddvq_f32(vaddq_f32(vaddq_f32(acc0, acc1), vaddq_f32(acc2, acc3)));
    while i < n {
        total += *pa.add(i) * *pb.add(i);
        i += 1;
    }
    total
}

#[target_feature(enable = "neon")]
unsafe fn dot_f64_f32_body(a: &[f64], b: &[f32]) -> f64 {
    let n = a.len().min(b.len());
    let (pa, pb) = (a.as_ptr(), b.as_ptr());
    let mut acc0 = vdupq_n_f64(0.0);
    let mut acc1 = vdupq_n_f64(0.0);
    let mut i = 0usize;
    while i + 4 <= n {
        // widen four f32 lanes to two f64 pairs and fold them in
        let x = vld1q_f32(pb.add(i));
        let x_lo = vcvt_f64_f32(vget_low_f32(x));
        let x_hi = vcvt_f64_f32(vget_high_f32(x));
        acc0 = vfmaq_f64(acc0, vld1q_f64(pa.add(i)), x_lo);
        acc1 = vfmaq_f64(acc1, vld1q_f64(pa.add(i + 2)), x_hi);
        i += 4;
    }
    let mut total = vaddvq_f64(vaddq_f64(acc0, acc1));
    while i < n {
        total += *pa.add(i) * f64::from(*pb.add(i));
        i += 1;
    }
    total
}

#[target_feature(enable = "neon")]
unsafe fn l2_sq_one_to_many_body(x: &[f32], rows: &[f32], out: &mut [f32]) {
    let d = x.len();
    if d == 0 {
        out.fill(0.0);
        return;
    }
    for (slot, row) in out.iter_mut().zip(rows.chunks_exact(d)) {
        *slot = l2_sq_body(x, row);
    }
}

#[target_feature(enable = "neon")]
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
/// `vmovl_u8` → `vmovl_u16` → `vcvtq_f32_u32` into two 4-lane registers, the
/// difference `aq − scale·code` comes out of fused multiply-subtract, and the
/// square accumulates through FMA — one byte of memory traffic per value with
/// full-width `f32` arithmetic.
#[target_feature(enable = "neon")]
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
        let mut acc0 = vdupq_n_f32(0.0);
        let mut acc1 = vdupq_n_f32(0.0);
        let mut i = 0usize;
        while i + 8 <= d {
            let w = vmovl_u8(vld1_u8(pc.add(i)));
            let c_lo = vcvtq_f32_u32(vmovl_u16(vget_low_u16(w)));
            let c_hi = vcvtq_f32_u32(vmovl_u16(vget_high_u16(w)));
            let d_lo = vfmsq_f32(vld1q_f32(pq.add(i)), vld1q_f32(ps.add(i)), c_lo);
            let d_hi = vfmsq_f32(vld1q_f32(pq.add(i + 4)), vld1q_f32(ps.add(i + 4)), c_hi);
            acc0 = vfmaq_f32(acc0, d_lo, d_lo);
            acc1 = vfmaq_f32(acc1, d_hi, d_hi);
            i += 8;
        }
        let mut total = vaddvq_f32(vaddq_f32(acc0, acc1));
        while i < d {
            let df = *pq.add(i) - *ps.add(i) * f32::from(*pc.add(i));
            total += df * df;
            i += 1;
        }
        *slot = total;
    }
}

/// Candidate rows per cache tile of the many-to-many kernels (~128 KiB of
/// `f32` per tile); mirrors `x86::k_tile_rows`.
#[inline]
fn k_tile_rows(d: usize) -> usize {
    (32 * 1024 / d.max(1)).clamp(2, 512)
}

/// Single-accumulator squared-distance pair kernel matching the tile
/// micro-kernel's per-pair reduction order (4-lane steps in ascending order,
/// one horizontal sum, scalar tail), so tile edges are bit-identical to the
/// 4 × 2 interior — the tiling invariant of the `kernels` module docs.
#[target_feature(enable = "neon")]
unsafe fn l2_sq_pair_1acc(a: *const f32, b: *const f32, d: usize) -> f32 {
    let mut acc = vdupq_n_f32(0.0);
    let mut i = 0usize;
    while i + 4 <= d {
        let dv = vsubq_f32(vld1q_f32(a.add(i)), vld1q_f32(b.add(i)));
        acc = vfmaq_f32(acc, dv, dv);
        i += 4;
    }
    let mut total = vaddvq_f32(acc);
    while i < d {
        let df = *a.add(i) - *b.add(i);
        total += df * df;
        i += 1;
    }
    total
}

/// Single-accumulator dot-product pair kernel; see [`l2_sq_pair_1acc`].
#[target_feature(enable = "neon")]
unsafe fn dot_pair_1acc(a: *const f32, b: *const f32, d: usize) -> f32 {
    let mut acc = vdupq_n_f32(0.0);
    let mut i = 0usize;
    while i + 4 <= d {
        acc = vfmaq_f32(acc, vld1q_f32(a.add(i)), vld1q_f32(b.add(i)));
        i += 4;
    }
    let mut total = vaddvq_f32(acc);
    while i < d {
        total += *a.add(i) * *b.add(i);
        i += 1;
    }
    total
}

/// Register-blocked, cache-tiled `m × k` squared-distance tile: the NEON
/// counterpart of the x86 4 × 2 micro-kernel (eight independent 4-lane
/// accumulators, so each step performs 8 FMAs for 6 loads and every loaded
/// candidate vector is reused across four queries).
#[target_feature(enable = "neon")]
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
                let mut a00 = vdupq_n_f32(0.0);
                let mut a01 = vdupq_n_f32(0.0);
                let mut a10 = vdupq_n_f32(0.0);
                let mut a11 = vdupq_n_f32(0.0);
                let mut a20 = vdupq_n_f32(0.0);
                let mut a21 = vdupq_n_f32(0.0);
                let mut a30 = vdupq_n_f32(0.0);
                let mut a31 = vdupq_n_f32(0.0);
                let mut i = 0usize;
                while i + 4 <= d {
                    let c0 = vld1q_f32(r0.add(i));
                    let c1 = vld1q_f32(r1.add(i));
                    let x0 = vld1q_f32(q0.add(i));
                    let d00 = vsubq_f32(x0, c0);
                    let d01 = vsubq_f32(x0, c1);
                    a00 = vfmaq_f32(a00, d00, d00);
                    a01 = vfmaq_f32(a01, d01, d01);
                    let x1 = vld1q_f32(q1.add(i));
                    let d10 = vsubq_f32(x1, c0);
                    let d11 = vsubq_f32(x1, c1);
                    a10 = vfmaq_f32(a10, d10, d10);
                    a11 = vfmaq_f32(a11, d11, d11);
                    let x2 = vld1q_f32(q2.add(i));
                    let d20 = vsubq_f32(x2, c0);
                    let d21 = vsubq_f32(x2, c1);
                    a20 = vfmaq_f32(a20, d20, d20);
                    a21 = vfmaq_f32(a21, d21, d21);
                    let x3 = vld1q_f32(q3.add(i));
                    let d30 = vsubq_f32(x3, c0);
                    let d31 = vsubq_f32(x3, c1);
                    a30 = vfmaq_f32(a30, d30, d30);
                    a31 = vfmaq_f32(a31, d31, d31);
                    i += 4;
                }
                let mut s00 = vaddvq_f32(a00);
                let mut s01 = vaddvq_f32(a01);
                let mut s10 = vaddvq_f32(a10);
                let mut s11 = vaddvq_f32(a11);
                let mut s20 = vaddvq_f32(a20);
                let mut s21 = vaddvq_f32(a21);
                let mut s30 = vaddvq_f32(a30);
                let mut s31 = vaddvq_f32(a31);
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

/// Register-blocked, cache-tiled `m × k` dot-product tile; same blocking as
/// [`l2_sq_many_to_many_body`].
#[target_feature(enable = "neon")]
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
                let mut a00 = vdupq_n_f32(0.0);
                let mut a01 = vdupq_n_f32(0.0);
                let mut a10 = vdupq_n_f32(0.0);
                let mut a11 = vdupq_n_f32(0.0);
                let mut a20 = vdupq_n_f32(0.0);
                let mut a21 = vdupq_n_f32(0.0);
                let mut a30 = vdupq_n_f32(0.0);
                let mut a31 = vdupq_n_f32(0.0);
                let mut i = 0usize;
                while i + 4 <= d {
                    let c0 = vld1q_f32(r0.add(i));
                    let c1 = vld1q_f32(r1.add(i));
                    let x0 = vld1q_f32(q0.add(i));
                    a00 = vfmaq_f32(a00, x0, c0);
                    a01 = vfmaq_f32(a01, x0, c1);
                    let x1 = vld1q_f32(q1.add(i));
                    a10 = vfmaq_f32(a10, x1, c0);
                    a11 = vfmaq_f32(a11, x1, c1);
                    let x2 = vld1q_f32(q2.add(i));
                    a20 = vfmaq_f32(a20, x2, c0);
                    a21 = vfmaq_f32(a21, x2, c1);
                    let x3 = vld1q_f32(q3.add(i));
                    a30 = vfmaq_f32(a30, x3, c0);
                    a31 = vfmaq_f32(a31, x3, c1);
                    i += 4;
                }
                let mut s00 = vaddvq_f32(a00);
                let mut s01 = vaddvq_f32(a01);
                let mut s10 = vaddvq_f32(a10);
                let mut s11 = vaddvq_f32(a11);
                let mut s20 = vaddvq_f32(a20);
                let mut s21 = vaddvq_f32(a21);
                let mut s30 = vaddvq_f32(a30);
                let mut s31 = vaddvq_f32(a31);
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

/// Element-wise `acc[i] += row[i]` with the `f32` row widened to `f64`:
/// 4 floats per step (one 128-bit `f32` load split into two `f64` pairs).
/// Element-wise adds carry no summation order, so the result is bit-identical
/// to the scalar level.
#[target_feature(enable = "neon")]
unsafe fn add_assign_f64_f32_body(acc: &mut [f64], row: &[f32]) {
    let n = acc.len().min(row.len());
    let pa = acc.as_mut_ptr();
    let pr = row.as_ptr();
    let mut i = 0usize;
    while i + 4 <= n {
        let r = vld1q_f32(pr.add(i));
        let lo = vcvt_f64_f32(vget_low_f32(r));
        let hi = vcvt_f64_f32(vget_high_f32(r));
        let a0 = vld1q_f64(pa.add(i));
        let a1 = vld1q_f64(pa.add(i + 2));
        vst1q_f64(pa.add(i), vaddq_f64(a0, lo));
        vst1q_f64(pa.add(i + 2), vaddq_f64(a1, hi));
        i += 4;
    }
    while i < n {
        *pa.add(i) += f64::from(*pr.add(i));
        i += 1;
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

fn l2_sq_many_to_many_entry(xs: &[f32], rows: &[f32], d: usize, out: &mut [f32]) {
    unsafe { l2_sq_many_to_many_body(xs, rows, d, out) }
}

fn dot_many_to_many_entry(xs: &[f32], rows: &[f32], d: usize, out: &mut [f32]) {
    unsafe { dot_many_to_many_body(xs, rows, d, out) }
}

fn add_assign_f64_f32_entry(acc: &mut [f64], row: &[f32]) {
    unsafe { add_assign_f64_f32_body(acc, row) }
}

/// The NEON level.
pub static KERNELS: Kernels = Kernels {
    name: "neon",
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
