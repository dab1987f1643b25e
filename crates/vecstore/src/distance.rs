//! Distance kernels.
//!
//! All algorithms in the paper operate on squared Euclidean distance; the
//! average-distortion measure (Eqn. 4) is likewise defined on squared
//! distances, so [`l2_sq`] is the workhorse of the whole workspace.
//!
//! # Kernel dispatch design
//!
//! The functions in this module are thin wrappers over the
//! [`crate::kernels`] subsystem, which holds one [`crate::kernels::Kernels`]
//! table of function pointers per instruction-set level:
//!
//! * `avx2+fma` on x86-64 (8-lane `f32` FMA), selected at runtime with
//!   `is_x86_feature_detected!`;
//! * `neon` on aarch64 (4-lane `f32` FMA), selected with
//!   `is_aarch64_feature_detected!`;
//! * `scalar`, the portable 4-way unrolled fallback (also the testing
//!   reference baseline, see [`l2_sq_reference`] for the naive ground truth).
//!
//! Detection runs **once per process**: the chosen table is cached in a
//! `OnceLock`, so a call here costs one atomic load plus one indirect call.
//! For tight loops that score one query against many candidates, prefer the
//! **batched one-to-many API** ([`crate::kernels::l2_sq_one_to_many`],
//! [`crate::kernels::l2_sq_one_to_many_indexed`],
//! [`crate::kernels::l2_sq_one_to_many_cached`]): it resolves the dispatch
//! once per block, keeps the query hot across candidates, and the
//! norm-cached variant turns each evaluation into a single dot product via
//! `‖x−c‖² = ‖x‖² − 2·x·c + ‖c‖²`.
//!
//! SIMD results differ from the scalar path only by floating-point
//! reassociation; the property suite pins all levels to the naive reference
//! within 1e-3 relative tolerance across all remainder lane counts.

use crate::kernels;

/// Squared Euclidean distance between two equally sized slices.
///
/// # Panics
///
/// Debug-asserts that `a.len() == b.len()`; in release builds the shorter
/// length wins (both callers in this workspace always pass equal lengths).
#[inline]
pub fn l2_sq(a: &[f32], b: &[f32]) -> f32 {
    debug_assert_eq!(a.len(), b.len());
    (kernels::active().l2_sq)(a, b)
}

/// Naive reference implementation of [`l2_sq`], used by tests.
#[inline]
pub fn l2_sq_reference(a: &[f32], b: &[f32]) -> f32 {
    a.iter().zip(b).map(|(x, y)| (x - y) * (x - y)).sum()
}

/// Euclidean distance (square root of [`l2_sq`]).
#[inline]
pub fn l2(a: &[f32], b: &[f32]) -> f32 {
    l2_sq(a, b).sqrt()
}

/// Dot product of two equally sized slices.
#[inline]
pub fn dot(a: &[f32], b: &[f32]) -> f32 {
    debug_assert_eq!(a.len(), b.len());
    (kernels::active().dot)(a, b)
}

/// Mixed-precision dot product between an `f64` accumulator vector and an
/// `f32` row — the `D_r · x` product at the heart of every boost-k-means
/// `ΔI` evaluation (see `gkmeans::ClusterState`).
#[inline]
pub fn dot_f64_f32(a: &[f64], b: &[f32]) -> f64 {
    debug_assert_eq!(a.len(), b.len());
    (kernels::active().dot_f64_f32)(a, b)
}

/// Squared ℓ² norm of a slice.
#[inline]
pub fn norm_sq(a: &[f32]) -> f32 {
    (kernels::active().dot)(a, a)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn l2_sq_matches_reference_on_odd_lengths() {
        for len in [0usize, 1, 2, 3, 4, 5, 7, 8, 13, 128, 129] {
            let a: Vec<f32> = (0..len).map(|i| i as f32 * 0.5).collect();
            let b: Vec<f32> = (0..len).map(|i| (len - i) as f32 * 0.25).collect();
            let fast = l2_sq(&a, &b);
            let slow = l2_sq_reference(&a, &b);
            assert!(
                (fast - slow).abs() <= 1e-3 * slow.max(1.0),
                "len={len}: {fast} vs {slow}"
            );
        }
    }

    #[test]
    fn l2_sq_zero_on_identical() {
        let a = vec![1.5f32; 77];
        assert_eq!(l2_sq(&a, &a), 0.0);
    }

    #[test]
    fn l2_is_sqrt_of_l2_sq() {
        let a = [0.0, 0.0];
        let b = [3.0, 4.0];
        assert_eq!(l2_sq(&a, &b), 25.0);
        assert_eq!(l2(&a, &b), 5.0);
    }

    #[test]
    fn dot_and_norm() {
        let a = [1.0, 2.0, 3.0, 4.0, 5.0];
        let b = [5.0, 4.0, 3.0, 2.0, 1.0];
        assert_eq!(dot(&a, &b), 35.0);
        assert_eq!(norm_sq(&a), 55.0);
    }

    #[test]
    fn dot_f64_f32_matches_widened_dot() {
        for len in [0usize, 1, 3, 4, 7, 8, 9, 64, 129] {
            let a: Vec<f64> = (0..len).map(|i| i as f64 * 0.25 - 3.0).collect();
            let b: Vec<f32> = (0..len).map(|i| (i as f32 * 0.37).sin()).collect();
            let fast = dot_f64_f32(&a, &b);
            let slow: f64 = a.iter().zip(&b).map(|(x, &y)| x * f64::from(y)).sum();
            assert!(
                (fast - slow).abs() <= 1e-9 * slow.abs().max(1.0),
                "len={len}: {fast} vs {slow}"
            );
        }
    }
}
