//! Runtime-dispatched SIMD distance kernels.
//!
//! Every hot loop in the workspace — GK-means candidate evaluation (Alg. 2),
//! the intra-cluster refinement of graph construction (Alg. 3), NN-Descent
//! local joins, NSW/greedy ANN search and the Lloyd/Elkan/Hamerly baselines —
//! bottoms out in a handful of dense `f32` primitives.  This module provides
//! explicit SIMD implementations of those primitives behind one-time runtime
//! CPU-feature detection:
//!
//! * **x86-64**: AVX2 + FMA (8-lane `f32`, fused multiply-add), selected via
//!   `is_x86_feature_detected!` on first use;
//! * **aarch64**: NEON (4-lane `f32`), selected via
//!   `is_aarch64_feature_detected!`;
//! * **everything else** (or when detection fails): the portable 4-way
//!   unrolled scalar kernels the workspace originally shipped.
//!
//! The selected [`Kernels`] table is cached in a [`OnceLock`], so detection
//! happens exactly once per process and every later call is a single indirect
//! call.  On top of the pairwise kernels the table carries **batched
//! one-to-many** kernels (`l2_sq_one_to_many`, `dot_one_to_many`) that score
//! one query against a whole block of candidate rows inside a single
//! feature-enabled function — amortising both the dispatch and the query
//! loads across the block.  The free functions in this module add shape
//! checking, an indexed (gather) variant for non-contiguous candidate sets,
//! and a norm-cached variant exploiting `‖x−c‖² = ‖x‖² − 2·x·c + ‖c‖²`.
//!
//! The widest tier is **many-to-many**: `l2_sq_many_to_many` /
//! `dot_many_to_many` compute an `m × k` tile of distances (or dot products)
//! between a block of query rows and a block of candidate rows.  The SIMD
//! levels register-block the tile (4 queries × 2 candidates per micro-kernel
//! step, so every loaded candidate vector is reused across four queries and
//! vice versa) and cache-tile the candidate matrix so it is streamed from L2
//! instead of re-fetched from memory once per query — the GEMM-style
//! structure of `‖x‖² − 2·X·Cᵀ + ‖c‖²` without giving up the
//! cancellation-free direct-subtraction form.  On top of the tile kernels sit
//! [`assign_block`] (argmin-fused assignment that never materialises the full
//! `n × k` distance matrix, with sticky tie-breaking and second-best output),
//! [`assign_block_cached`] (the fused dot expansion with a per-sample
//! fallback to the direct tile when cancellation could flip the argmin) and
//! [`assign_accumulate_block`] (the single-pass epoch sweep: while the argmin
//! tile folds, each query row is added — widened to `f64` through the
//! element-wise [`add_assign_f64_f32`] kernel — into its winning centroid's
//! sum, so k-means epochs never re-stream the data for the update step).
//!
//! **Tiling invariant:** inside a tile every `(query, candidate)` pair is
//! accumulated in its own register chain with a fixed summation order (wide
//! lanes over the dimension in ascending order, one horizontal sum, then the
//! scalar tail) that does not depend on where the pair falls in a tile or on
//! the tile shape.  Distances produced by `l2_sq_many_to_many` are therefore
//! bit-identical across any blocking of the same inputs, which is what makes
//! the fused [`assign_block`] provably agree with materialise-then-scan.
//!
//! # Numerical contract
//!
//! All kernels compute the same mathematical quantity as the scalar
//! reference; only the summation order differs (lane-parallel instead of
//! 4-way unrolled), so results may differ by normal floating-point
//! reassociation error.  The property suite (`tests/kernel_properties.rs`)
//! pins the agreement to a 1e-3 relative tolerance across every remainder
//! lane count and unaligned slices.

use std::sync::OnceLock;

pub mod scalar;

// The SIMD levels are crate-private: their safe entry points are only sound
// after feature detection, so the only way to reach them is through
// [`active`] / [`available`], which perform that detection.
#[cfg(target_arch = "aarch64")]
pub(crate) mod neon;
#[cfg(target_arch = "x86_64")]
pub(crate) mod x86;

/// Signature of the asymmetric SQ8 one-to-many kernel:
/// `(adjusted_query, scales, codes, out)` — see
/// [`Kernels::l2_sq_sq8_one_to_many`] for the full contract.
pub type Sq8OneToManyFn = fn(&[f32], &[f32], &[u8], &mut [f32]);

/// A dispatch table of distance kernels for one instruction-set level.
///
/// Pairwise entries take two equal-length slices (callers guarantee the
/// shorter length wins, mirroring [`crate::distance::l2_sq`]).  One-to-many
/// entries take a query `x` of length `d`, a row-major block `rows` of
/// `out.len()` rows of length `d`, and write one result per row.
#[derive(Clone, Copy, Debug)]
pub struct Kernels {
    /// Human-readable name of the instruction-set level (`"scalar"`,
    /// `"avx2+fma"`, `"neon"`).
    pub name: &'static str,
    /// Squared Euclidean distance between two slices.
    pub l2_sq: fn(&[f32], &[f32]) -> f32,
    /// Dot product of two slices.
    pub dot: fn(&[f32], &[f32]) -> f32,
    /// Mixed-precision dot product between an `f64` accumulator vector and an
    /// `f32` sample row (the boost-k-means composite·sample product).
    pub dot_f64_f32: fn(&[f64], &[f32]) -> f64,
    /// Squared Euclidean distances from one query to a contiguous block of
    /// rows.
    pub l2_sq_one_to_many: fn(&[f32], &[f32], &mut [f32]),
    /// Asymmetric SQ8 squared distances from one adjusted query to a
    /// contiguous block of `u8` code rows: `(aq, scales, codes, out)` with
    /// `out[r] = Σ_i (aq[i] − scales[i] · codes[r·d + i])²`.  The `u8` codes
    /// widen to `f32` lane-by-lane inside the kernel, so the de-quantised row
    /// is never materialised and the memory stream is one byte per value.
    pub l2_sq_sq8_one_to_many: Sq8OneToManyFn,
    /// Dot products from one query to a contiguous block of rows.
    pub dot_one_to_many: fn(&[f32], &[f32], &mut [f32]),
    /// Register-blocked, cache-tiled `m × k` tile of squared Euclidean
    /// distances: `(xs, rows, d, out)` with `xs` holding `m` query rows,
    /// `rows` holding `k` candidate rows and `out[q * k + c]` receiving
    /// `‖xs[q] − rows[c]‖²` (direct subtraction, cancellation-free).
    pub l2_sq_many_to_many: fn(&[f32], &[f32], usize, &mut [f32]),
    /// Register-blocked, cache-tiled `m × k` tile of dot products (the
    /// `X·Cᵀ` of the fused norm expansion): same shape contract as
    /// [`Kernels::l2_sq_many_to_many`].
    pub dot_many_to_many: fn(&[f32], &[f32], usize, &mut [f32]),
    /// Element-wise accumulate `acc[i] += row[i]` with the `f32` row widened
    /// to `f64` — the centroid-sum update of the fused assignment sweep.
    /// Purely element-wise (no reduction), so every dispatch level produces
    /// bit-identical accumulators; only throughput differs.
    pub add_assign_f64_f32: fn(&mut [f64], &[f32]),
}

static ACTIVE: OnceLock<&'static Kernels> = OnceLock::new();

/// The kernel table selected for this process.
///
/// The first call performs CPU-feature detection; every later call is a
/// cached load.  The selection is deterministic per process (and per
/// machine): the widest supported level wins.
#[inline]
pub fn active() -> &'static Kernels {
    ACTIVE.get_or_init(select)
}

/// Detection logic behind [`active`]; kept separate so tests can assert that
/// repeated evaluation is stable.
fn select() -> &'static Kernels {
    #[cfg(target_arch = "x86_64")]
    {
        if is_x86_feature_detected!("avx2") && is_x86_feature_detected!("fma") {
            return &x86::KERNELS;
        }
    }
    #[cfg(target_arch = "aarch64")]
    {
        if std::arch::is_aarch64_feature_detected!("neon") {
            return &neon::KERNELS;
        }
    }
    &scalar::KERNELS
}

/// Every kernel table usable on this machine: the scalar fallback plus the
/// SIMD level when the CPU supports it.  Used by the property suite to check
/// all implementations against the reference, whatever machine runs the
/// tests.
pub fn available() -> Vec<&'static Kernels> {
    let mut sets: Vec<&'static Kernels> = vec![&scalar::KERNELS];
    let selected = active();
    if !std::ptr::eq(selected, &scalar::KERNELS) {
        sets.push(selected);
    }
    sets
}

/// Index types accepted by the indexed one-to-many kernels.
pub trait RowIndex: Copy {
    /// The index as `usize`.
    fn as_index(self) -> usize;
}

impl RowIndex for usize {
    #[inline]
    fn as_index(self) -> usize {
        self
    }
}

impl RowIndex for u32 {
    #[inline]
    fn as_index(self) -> usize {
        self as usize
    }
}

/// Squared Euclidean distances from `x` to every row of the contiguous
/// row-major block `rows`, written into `out` (one value per row).
///
/// # Panics
///
/// Panics when `rows.len() != x.len() * out.len()`.
#[inline]
pub fn l2_sq_one_to_many(x: &[f32], rows: &[f32], out: &mut [f32]) {
    assert_eq!(
        rows.len(),
        x.len() * out.len(),
        "block shape mismatch: {} values is not {} rows of dim {}",
        rows.len(),
        out.len(),
        x.len()
    );
    (active().l2_sq_one_to_many)(x, rows, out);
}

/// Dot products from `x` to every row of the contiguous row-major block
/// `rows`, written into `out`.
///
/// # Panics
///
/// Panics when `rows.len() != x.len() * out.len()`.
#[inline]
pub fn dot_one_to_many(x: &[f32], rows: &[f32], out: &mut [f32]) {
    assert_eq!(
        rows.len(),
        x.len() * out.len(),
        "block shape mismatch: {} values is not {} rows of dim {}",
        rows.len(),
        out.len(),
        x.len()
    );
    (active().dot_one_to_many)(x, rows, out);
}

/// Asymmetric SQ8 squared distances from the adjusted query `aq` (the query
/// with the quantizer's per-dimension minimums already subtracted) to every
/// `u8` code row of `codes`, written into `out` (one value per row):
/// `out[r] = Σ_i (aq[i] − scales[i] · codes[r·d + i])²` where `d = aq.len()`.
///
/// This is the approximate-scan primitive of the quantized serving tier: the
/// de-quantised value `min[i] + scales[i]·code` appears only through the
/// algebraic rewrite `(q[i] − min[i]) − scales[i]·code`, so the panel stream
/// is one byte per value — 4× less memory traffic than the `f32` scan.
///
/// # Panics
///
/// Panics when `codes.len() != aq.len() * out.len()` or
/// `scales.len() != aq.len()`.
#[inline]
pub fn l2_sq_sq8_one_to_many(aq: &[f32], scales: &[f32], codes: &[u8], out: &mut [f32]) {
    assert_eq!(
        codes.len(),
        aq.len() * out.len(),
        "block shape mismatch: {} codes is not {} rows of dim {}",
        codes.len(),
        out.len(),
        aq.len()
    );
    assert_eq!(
        scales.len(),
        aq.len(),
        "scale vector length {} does not match the query dimensionality {}",
        scales.len(),
        aq.len()
    );
    (active().l2_sq_sq8_one_to_many)(aq, scales, codes, out);
}

/// Cache lines of the *next* gathered row to request ahead of time.  Four
/// lines (256 B) cover a d=64 `f32` row entirely and give the hardware
/// prefetcher a head start on longer rows; beyond that the sequential
/// streamer takes over.
const GATHER_PREFETCH_LINES: usize = 4;

/// Best-effort software prefetch of the cache line holding `p` plus the next
/// `lines − 1` lines.  A hint only: never faults, compiles to nothing on
/// architectures without a stable prefetch primitive.
#[inline(always)]
fn prefetch_lines<T>(p: *const T, bytes: usize) {
    let lines = bytes.div_ceil(64).min(GATHER_PREFETCH_LINES);
    #[cfg(target_arch = "x86_64")]
    {
        // `_mm_prefetch` is part of SSE, which x86-64 guarantees; it is a
        // pure hint, so issuing it outside any feature-detected region is
        // sound.
        #[allow(unsafe_code)]
        for l in 0..lines {
            unsafe {
                core::arch::x86_64::_mm_prefetch(
                    p.cast::<i8>().add(l * 64),
                    core::arch::x86_64::_MM_HINT_T0,
                );
            }
        }
    }
    #[cfg(target_arch = "aarch64")]
    {
        // aarch64 has no stable prefetch intrinsic; `prfm pldl1keep` via
        // inline asm is the canonical spelling and likewise a pure hint.
        #[allow(unsafe_code)]
        for l in 0..lines {
            unsafe {
                core::arch::asm!(
                    "prfm pldl1keep, [{addr}]",
                    addr = in(reg) p.cast::<u8>().wrapping_add(l * 64),
                    options(nostack, preserves_flags, readonly)
                );
            }
        }
    }
    #[cfg(not(any(target_arch = "x86_64", target_arch = "aarch64")))]
    {
        let _ = (p, lines);
    }
}

/// Squared Euclidean distances from `x` to the rows of `flat` (row-major,
/// dimensionality `dim`) selected by `indices`, written into `out`.
///
/// This is the gather form used when the candidate set is not contiguous
/// (GK-means candidate clusters, graph neighbour expansions): the dispatch is
/// resolved once for the whole batch, each row goes through the SIMD pairwise
/// kernel, and the head of the *next* gathered row is software-prefetched
/// while the current row is being scored — the gather order is data-dependent,
/// so the hardware stride prefetcher cannot anticipate it.
///
/// # Panics
///
/// Panics when `out.len() != indices.len()` or an index is out of range.
#[inline]
pub fn l2_sq_one_to_many_indexed<I: RowIndex>(
    x: &[f32],
    flat: &[f32],
    dim: usize,
    indices: &[I],
    out: &mut [f32],
) {
    assert_eq!(indices.len(), out.len(), "index/output length mismatch");
    let kernel = active().l2_sq;
    let row_bytes = dim * core::mem::size_of::<f32>();
    if let Some(&first) = indices.first() {
        let i = first.as_index();
        prefetch_lines(flat[i * dim..(i + 1) * dim].as_ptr(), row_bytes);
    }
    for (pos, (slot, &index)) in out.iter_mut().zip(indices).enumerate() {
        if let Some(next) = indices.get(pos + 1) {
            let n = next.as_index();
            prefetch_lines(flat[n * dim..(n + 1) * dim].as_ptr(), row_bytes);
        }
        let i = index.as_index();
        *slot = kernel(x, &flat[i * dim..(i + 1) * dim]);
    }
}

/// Mixed-precision gather form: `out[j] = flat[indices[j]] · x` where `flat`
/// holds `f64` rows (the boost-k-means composite vectors) and `x` is an `f32`
/// sample.  Same dispatch-once + prefetch-ahead structure as
/// [`l2_sq_one_to_many_indexed`].
///
/// # Panics
///
/// Panics when `out.len() != indices.len()` or an index is out of range.
#[inline]
pub fn dot_f64_f32_one_to_many_indexed<I: RowIndex>(
    x: &[f32],
    flat: &[f64],
    dim: usize,
    indices: &[I],
    out: &mut [f64],
) {
    assert_eq!(indices.len(), out.len(), "index/output length mismatch");
    let kernel = active().dot_f64_f32;
    let row_bytes = dim * core::mem::size_of::<f64>();
    if let Some(&first) = indices.first() {
        let i = first.as_index();
        prefetch_lines(flat[i * dim..(i + 1) * dim].as_ptr(), row_bytes);
    }
    for (pos, (slot, &index)) in out.iter_mut().zip(indices).enumerate() {
        if let Some(next) = indices.get(pos + 1) {
            let n = next.as_index();
            prefetch_lines(flat[n * dim..(n + 1) * dim].as_ptr(), row_bytes);
        }
        let i = index.as_index();
        *slot = kernel(&flat[i * dim..(i + 1) * dim], x);
    }
}

/// Norm-cached batched distances: `out[i] = max(0, ‖x‖² − 2·x·rows[i] +
/// row_norms[i])` with `‖x‖²` and the row norms supplied by the caller.
///
/// The assignment steps cache `‖x‖²` per sample across all iterations and the
/// centroid norms once per iteration, so each sample↔centroid evaluation
/// costs a single dot product.  Cancellation can drive the expansion slightly
/// negative; results are clamped to zero.
///
/// # Panics
///
/// Panics when the block shape or the norm count disagrees with `out`.
#[inline]
pub fn l2_sq_one_to_many_cached(
    x: &[f32],
    x_norm_sq: f32,
    rows: &[f32],
    row_norms: &[f32],
    out: &mut [f32],
) {
    assert_eq!(
        rows.len(),
        x.len() * out.len(),
        "block shape mismatch: {} values is not {} rows of dim {}",
        rows.len(),
        out.len(),
        x.len()
    );
    assert_eq!(row_norms.len(), out.len(), "norm cache length mismatch");
    (active().dot_one_to_many)(x, rows, out);
    for (o, &c_norm) in out.iter_mut().zip(row_norms) {
        *o = (x_norm_sq - 2.0 * *o + c_norm).max(0.0);
    }
}

/// Validates the `m × k` tile shape shared by the many-to-many entry points
/// and returns `(m, k)`.  A zero dimensionality is degenerate (every distance
/// and dot product is 0) and reported as `None`.
#[inline]
fn tile_shape(xs: &[f32], rows: &[f32], d: usize, out_len: usize) -> Option<(usize, usize)> {
    if d == 0 {
        return None;
    }
    assert_eq!(
        xs.len() % d,
        0,
        "query block of {} values is not whole rows of dim {d}",
        xs.len()
    );
    assert_eq!(
        rows.len() % d,
        0,
        "candidate block of {} values is not whole rows of dim {d}",
        rows.len()
    );
    let m = xs.len() / d;
    let k = rows.len() / d;
    assert_eq!(
        out_len,
        m * k,
        "tile shape mismatch: output of {out_len} values is not {m} × {k}"
    );
    Some((m, k))
}

/// Squared Euclidean distances between every query row of `xs` and every
/// candidate row of `rows` (both row-major with dimensionality `d`), written
/// as the row-major `m × k` tile `out[q * k + c] = ‖xs[q] − rows[c]‖²`.
///
/// This is the direct-subtraction tile: no norm expansion, so there is no
/// cancellation and results are safe for exhaustive exact assignment.  Within
/// one dispatch level results are bit-identical across any blocking of the
/// same inputs (see the module docs).
///
/// # Panics
///
/// Panics when `xs` or `rows` is not whole rows of `d` values, or when
/// `out.len()` is not `m * k`.  When `d == 0` the tile is all zeros and `out`
/// is filled accordingly.
#[inline]
pub fn l2_sq_many_to_many(xs: &[f32], rows: &[f32], d: usize, out: &mut [f32]) {
    if tile_shape(xs, rows, d, out.len()).is_none() {
        out.fill(0.0);
        return;
    }
    (active().l2_sq_many_to_many)(xs, rows, d, out);
}

/// Dot products between every query row of `xs` and every candidate row of
/// `rows`, written as the row-major `m × k` tile `out[q * k + c] =
/// xs[q] · rows[c]` — the `X·Cᵀ` building block of the fused norm expansion.
///
/// # Panics
///
/// Same shape contract as [`l2_sq_many_to_many`].
#[inline]
pub fn dot_many_to_many(xs: &[f32], rows: &[f32], d: usize, out: &mut [f32]) {
    if tile_shape(xs, rows, d, out.len()).is_none() {
        out.fill(0.0);
        return;
    }
    (active().dot_many_to_many)(xs, rows, d, out);
}

/// Queries per assignment panel: small enough that the panel of distances
/// stays far inside L1 next to the candidate tile, large enough to amortise
/// the per-panel fold.
const ASSIGN_M_PANEL: usize = 16;
/// Candidates per assignment panel (panel buffer = 16 × 256 × 4 B = 16 KiB).
const ASSIGN_K_PANEL: usize = 256;

/// Fold one panel row into the running `(best, best_dist, second_dist)`
/// argmin state, also capturing the distance to `current` when it appears in
/// this panel.  Scanning is in ascending candidate order with strict `<`, so
/// the fold selects the *first* index attaining the minimum — combined with
/// the sticky correction in [`assign_block_core`] this reproduces the
/// semantics of a scan that starts from the current assignment.
#[inline]
fn fold_panel_row(
    panel_row: &[f32],
    c0: usize,
    current: usize,
    best: &mut usize,
    best_d: &mut f32,
    second_d: &mut f32,
    current_d: &mut f32,
) {
    for (off, &dist) in panel_row.iter().enumerate() {
        let c = c0 + off;
        if dist < *best_d {
            *second_d = *best_d;
            *best_d = dist;
            *best = c;
        } else if dist < *second_d {
            *second_d = dist;
        }
        if c == current {
            *current_d = dist;
        }
    }
}

/// Shared panel loop of [`assign_block`] / [`assign_block_cached`] /
/// [`assign_accumulate_block`]: `fill_panel(query_range, candidate_range,
/// panel)` materialises one distance panel; the fold never keeps more than
/// one panel alive.  `after_panel(q0, winners)` fires once per query panel
/// after its outputs are final (sticky-tie correction applied), with
/// `winners[qi]` the committed candidate index of query `q0 + qi` — the hook
/// the fused accumulation rides on while the query rows are still cache-hot.
#[allow(clippy::too_many_arguments)]
fn assign_block_core(
    m: usize,
    k: usize,
    current: &[u32],
    out_idx: &mut [u32],
    out_dist: &mut [f32],
    out_second: &mut [f32],
    mut fill_panel: impl FnMut(core::ops::Range<usize>, core::ops::Range<usize>, &mut [f32]),
    mut after_panel: impl FnMut(usize, &[usize]),
) {
    let mut panel = [0.0f32; ASSIGN_M_PANEL * ASSIGN_K_PANEL];
    // Per-panel fold state lives on the stack (the panel height is the
    // compile-time constant ASSIGN_M_PANEL) — this loop runs once per 16
    // queries of every assignment pass, so no allocations here.
    let mut best = [usize::MAX; ASSIGN_M_PANEL];
    let mut best_d = [f32::INFINITY; ASSIGN_M_PANEL];
    let mut second_d = [f32::INFINITY; ASSIGN_M_PANEL];
    let mut current_d = [f32::INFINITY; ASSIGN_M_PANEL];
    let mut q0 = 0usize;
    while q0 < m {
        let q1 = (q0 + ASSIGN_M_PANEL).min(m);
        let mb = q1 - q0;
        best[..mb].fill(usize::MAX);
        best_d[..mb].fill(f32::INFINITY);
        second_d[..mb].fill(f32::INFINITY);
        current_d[..mb].fill(f32::INFINITY);
        let mut c0 = 0usize;
        while c0 < k {
            let c1 = (c0 + ASSIGN_K_PANEL).min(k);
            let kb = c1 - c0;
            let panel = &mut panel[..mb * kb];
            fill_panel(q0..q1, c0..c1, panel);
            for (qi, panel_row) in panel.chunks_exact(kb).enumerate() {
                fold_panel_row(
                    panel_row,
                    c0,
                    (current[q0 + qi] as usize).min(k - 1),
                    &mut best[qi],
                    &mut best_d[qi],
                    &mut second_d[qi],
                    &mut current_d[qi],
                );
            }
            c0 = c1;
        }
        for qi in 0..mb {
            let cur = (current[q0 + qi] as usize).min(k - 1);
            // Sticky ties: when the current assignment attains the minimum it
            // wins, and the displaced first-minimum index shows that at least
            // two candidates share the best distance.
            if best[qi] != cur && current_d[qi] == best_d[qi] {
                best[qi] = cur;
                second_d[qi] = best_d[qi];
            }
            out_idx[q0 + qi] = best[qi] as u32;
            out_dist[q0 + qi] = best_d[qi];
            out_second[q0 + qi] = second_d[qi];
        }
        after_panel(q0, &best[..mb]);
        q0 = q1;
    }
}

/// Argmin-fused blocked assignment: for every query row of `xs` find the
/// closest candidate row of `rows` by squared Euclidean distance, without
/// materialising the full `m × k` distance matrix (distances are computed in
/// 16 × 256 panels through the tiled kernel and folded immediately).
///
/// Tie-breaking is *sticky*: a tie between `current[q]` and any other
/// candidate keeps the query where it is; among other tied candidates the
/// smallest index wins — exactly the semantics of scanning a materialised
/// row starting from the current assignment.  `current` entries are clamped
/// to `k − 1` (callers with no meaningful previous assignment pass zeros).
///
/// Outputs per query: the winning index, its squared distance, and the
/// second-best squared distance (`∞` when `k == 1`) — the latter is what
/// Hamerly-style bound seeding needs for free.
///
/// The labels this produces are bit-identical to materialising the tile with
/// [`l2_sq_many_to_many`] and scanning, for every dispatch level (see the
/// module docs for why).
///
/// ```
/// use vecstore::kernels::assign_block;
///
/// // two 2-d queries against two candidate rows
/// let xs = [0.0f32, 0.1, 5.0, 5.0];
/// let rows = [0.0f32, 0.0, 5.0, 4.0];
/// let current = [1u32, 1];
/// let (mut idx, mut dist, mut second) = ([0u32; 2], [0.0f32; 2], [0.0f32; 2]);
/// assign_block(&xs, &rows, 2, &current, &mut idx, &mut dist, &mut second);
/// assert_eq!(idx, [0, 1]); // each query lands on its nearest row
/// assert_eq!(dist, [0.1f32 * 0.1, 1.0]);
/// ```
///
/// # Panics
///
/// Panics when `d == 0`, when a block is not whole rows of `d` values, when
/// `rows` is empty, or when the output/`current` lengths disagree with the
/// number of query rows.
pub fn assign_block(
    xs: &[f32],
    rows: &[f32],
    d: usize,
    current: &[u32],
    out_idx: &mut [u32],
    out_dist: &mut [f32],
    out_second: &mut [f32],
) {
    assert!(d > 0, "assign_block requires a positive dimensionality");
    assert_eq!(xs.len() % d, 0, "query block is not whole rows of dim {d}");
    assert_eq!(
        rows.len() % d,
        0,
        "candidate block is not whole rows of dim {d}"
    );
    let m = xs.len() / d;
    let k = rows.len() / d;
    assert!(k > 0, "assign_block requires at least one candidate row");
    assert_eq!(current.len(), m, "current assignment length mismatch");
    assert_eq!(out_idx.len(), m, "index output length mismatch");
    assert_eq!(out_dist.len(), m, "distance output length mismatch");
    assert_eq!(out_second.len(), m, "second-best output length mismatch");
    let kernel = active().l2_sq_many_to_many;
    assign_block_core(
        m,
        k,
        current,
        out_idx,
        out_dist,
        out_second,
        |qs, cs, panel| {
            kernel(
                &xs[qs.start * d..qs.end * d],
                &rows[cs.start * d..cs.end * d],
                d,
                panel,
            );
        },
        |_, _| {},
    );
}

/// Element-wise `acc[i] += row[i]` with the `f32` row widened to `f64`,
/// through the dispatched kernel — the accumulation primitive shared by the
/// fused assignment sweep and the centroid recomputation.  Element-wise adds
/// have no summation order, so all dispatch levels agree bit for bit.
///
/// Accumulates over the shorter of the two lengths, mirroring the pairwise
/// distance kernels.
#[inline]
pub fn add_assign_f64_f32(acc: &mut [f64], row: &[f32]) {
    (active().add_assign_f64_f32)(acc, row);
}

/// Argmin-fused blocked assignment that **also accumulates the centroid
/// update**: behaves exactly like [`assign_block`] (same outputs, same sticky
/// tie-breaking, bit-identical labels) and additionally, for every query row
/// `q` with winning candidate `c`, performs `sums[c*d..] += xs[q*d..]`
/// (widened to `f64`) and `counts[c] += 1`.
///
/// The accumulation happens panel-by-panel right after each 16-query panel
/// commits its winners, while those query rows are still in L1/L2 from the
/// distance tile — so a Lloyd/GK-means⁻ epoch makes **one pass over the data
/// instead of two** (no re-streaming for the centroid update step).
///
/// Within one call the accumulation order is ascending query index; callers
/// that split a dataset into row blocks and merge per-block partial
/// accumulators in fixed block order therefore obtain `f64` sums that are
/// independent of how blocks were scheduled across threads.
///
/// `sums` and `counts` are accumulated into, not overwritten: zero them for a
/// fresh epoch.
///
/// ```
/// use vecstore::kernels::assign_accumulate_block;
///
/// let xs = [0.0f32, 0.2, 4.0, 4.0]; // two 2-d queries
/// let rows = [0.0f32, 0.0, 4.0, 4.0]; // two candidate rows
/// let current = [0u32, 0];
/// let (mut idx, mut dist, mut second) = ([0u32; 2], [0.0f32; 2], [0.0f32; 2]);
/// let (mut sums, mut counts) = ([0.0f64; 4], [0u64; 2]);
/// assign_accumulate_block(
///     &xs, &rows, 2, &current, &mut idx, &mut dist, &mut second, &mut sums, &mut counts,
/// );
/// assert_eq!(idx, [0, 1]);
/// assert_eq!(counts, [1, 1]); // each winner received its query row
/// assert_eq!(&sums[2..], &[4.0, 4.0]); // cluster 1's sum is query 1
/// ```
///
/// # Panics
///
/// Panics on the [`assign_block`] contract violations, or when
/// `sums.len() != k * d` or `counts.len() != k`.
#[allow(clippy::too_many_arguments)]
pub fn assign_accumulate_block(
    xs: &[f32],
    rows: &[f32],
    d: usize,
    current: &[u32],
    out_idx: &mut [u32],
    out_dist: &mut [f32],
    out_second: &mut [f32],
    sums: &mut [f64],
    counts: &mut [u64],
) {
    assert!(
        d > 0,
        "assign_accumulate_block requires a positive dimensionality"
    );
    assert_eq!(xs.len() % d, 0, "query block is not whole rows of dim {d}");
    assert_eq!(
        rows.len() % d,
        0,
        "candidate block is not whole rows of dim {d}"
    );
    let m = xs.len() / d;
    let k = rows.len() / d;
    assert!(
        k > 0,
        "assign_accumulate_block requires at least one candidate row"
    );
    assert_eq!(current.len(), m, "current assignment length mismatch");
    assert_eq!(out_idx.len(), m, "index output length mismatch");
    assert_eq!(out_dist.len(), m, "distance output length mismatch");
    assert_eq!(out_second.len(), m, "second-best output length mismatch");
    assert_eq!(
        sums.len(),
        k * d,
        "centroid sum accumulator length mismatch"
    );
    assert_eq!(
        counts.len(),
        k,
        "centroid count accumulator length mismatch"
    );
    let kernel = active().l2_sq_many_to_many;
    let add = active().add_assign_f64_f32;
    assign_block_core(
        m,
        k,
        current,
        out_idx,
        out_dist,
        out_second,
        |qs, cs, panel| {
            kernel(
                &xs[qs.start * d..qs.end * d],
                &rows[cs.start * d..cs.end * d],
                d,
                panel,
            );
        },
        |q0, winners| {
            for (qi, &c) in winners.iter().enumerate() {
                let q = q0 + qi;
                counts[c] += 1;
                add(&mut sums[c * d..(c + 1) * d], &xs[q * d..(q + 1) * d]);
            }
        },
    );
}

/// Cancellation guard of [`assign_block_cached`]: the fused expansion
/// `‖x‖² − 2·x·c + ‖c‖²` carries an absolute error that scales with the
/// magnitudes of the cancelled terms (and mildly with the dimension through
/// the dot-product accumulation), not with the distance itself.  When the
/// best/second-best gap is within this bound the expansion cannot be trusted
/// to rank the two candidates and the direct tile decides instead.
#[inline]
fn cancellation_guard(x_norm_sq: f32, c_norm_sq: f32, d: usize) -> f32 {
    f32::EPSILON * (x_norm_sq + c_norm_sq) * (8.0 + d as f32 / 8.0)
}

/// Norm-cached argmin-fused blocked assignment with cancellation
/// compensation.
///
/// Distances are evaluated through the GEMM-style dot tile plus the cached
/// norm expansion (clamped at zero), which makes each evaluation a single
/// fused multiply-add stream.  Because the expansion cancels two large terms
/// in `f32`, a query whose best/second-best gap falls inside the
/// `cancellation_guard` error bound is **re-scored through the direct
/// subtraction tile**, so the returned assignment always matches
/// [`assign_block`] — the property suite enforces this on large-norm
/// descriptors where the naive expansion demonstrably flips labels.
///
/// Same outputs, tie-breaking and shape contract as [`assign_block`], plus
/// `x_norms[q] = ‖xs[q]‖²` and `row_norms[c] = ‖rows[c]‖²` supplied by the
/// caller.
///
/// # Panics
///
/// Panics on the [`assign_block`] contract violations or mismatched norm
/// cache lengths.
#[allow(clippy::too_many_arguments)]
pub fn assign_block_cached(
    xs: &[f32],
    x_norms: &[f32],
    rows: &[f32],
    row_norms: &[f32],
    d: usize,
    current: &[u32],
    out_idx: &mut [u32],
    out_dist: &mut [f32],
    out_second: &mut [f32],
) {
    assert!(
        d > 0,
        "assign_block_cached requires a positive dimensionality"
    );
    assert_eq!(xs.len() % d, 0, "query block is not whole rows of dim {d}");
    assert_eq!(
        rows.len() % d,
        0,
        "candidate block is not whole rows of dim {d}"
    );
    let m = xs.len() / d;
    let k = rows.len() / d;
    assert!(
        k > 0,
        "assign_block_cached requires at least one candidate row"
    );
    assert_eq!(x_norms.len(), m, "query norm cache length mismatch");
    assert_eq!(row_norms.len(), k, "candidate norm cache length mismatch");
    assert_eq!(current.len(), m, "current assignment length mismatch");
    assert_eq!(out_idx.len(), m, "index output length mismatch");
    assert_eq!(out_dist.len(), m, "distance output length mismatch");
    assert_eq!(out_second.len(), m, "second-best output length mismatch");
    let dot_kernel = active().dot_many_to_many;
    assign_block_core(
        m,
        k,
        current,
        out_idx,
        out_dist,
        out_second,
        |qs, cs, panel| {
            dot_kernel(
                &xs[qs.start * d..qs.end * d],
                &rows[cs.start * d..cs.end * d],
                d,
                panel,
            );
            let kb = cs.len();
            for (qi, tile_row) in panel.chunks_exact_mut(kb).enumerate() {
                let xn = x_norms[qs.start + qi];
                for (o, &cn) in tile_row.iter_mut().zip(&row_norms[cs.clone()]) {
                    *o = (xn - 2.0 * *o + cn).max(0.0);
                }
            }
        },
        |_, _| {},
    );
    // Compensation pass: re-run any query whose winning margin the expansion
    // cannot certify through the exact (direct-subtraction) tile.  Each
    // fallback is a 1 × k call into the same tile kernel `assign_block`
    // uses, so fallen-back queries agree with the direct path bit-for-bit.
    // The guard is evaluated against the *largest* candidate norm, not the
    // winner's: the ranking error of a near-tie is dominated by whichever of
    // the two contenders cancels hardest, and the runner-up's index is not
    // tracked — bounding by the panel maximum is conservative (it can only
    // trigger extra exact re-scores, never miss one the winner-norm form
    // would have caught).
    let max_row_norm = row_norms.iter().fold(0.0f32, |acc, &v| acc.max(v));
    let direct_kernel = active().l2_sq_many_to_many;
    for q in 0..m {
        let guard = cancellation_guard(x_norms[q], max_row_norm, d);
        if out_second[q] - out_dist[q] > guard {
            continue;
        }
        assign_block_core(
            1,
            k,
            &current[q..=q],
            &mut out_idx[q..=q],
            &mut out_dist[q..=q],
            &mut out_second[q..=q],
            |_, cs, panel| {
                direct_kernel(
                    &xs[q * d..(q + 1) * d],
                    &rows[cs.start * d..cs.end * d],
                    d,
                    panel,
                );
            },
            |_, _| {},
        );
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::distance::l2_sq_reference;

    fn vectors(len: usize) -> (Vec<f32>, Vec<f32>) {
        let a: Vec<f32> = (0..len).map(|i| (i as f32 * 0.37).sin() * 3.0).collect();
        let b: Vec<f32> = (0..len).map(|i| (i as f32 * 0.71).cos() * 2.0).collect();
        (a, b)
    }

    #[test]
    fn dispatch_is_deterministic_per_process() {
        let first = active() as *const Kernels;
        for _ in 0..10 {
            assert!(std::ptr::eq(first, active()));
            assert_eq!(unsafe { &*first }.name, active().name);
        }
        assert!(std::ptr::eq(select(), active()), "re-selection must agree");
    }

    #[test]
    fn every_available_set_matches_the_reference() {
        for kernels in available() {
            for len in [0usize, 1, 3, 7, 8, 9, 31, 32, 33, 100, 128, 257] {
                let (a, b) = vectors(len);
                let fast = (kernels.l2_sq)(&a, &b);
                let slow = l2_sq_reference(&a, &b);
                assert!(
                    (fast - slow).abs() <= 1e-3 * slow.max(1.0),
                    "{} len={len}: {fast} vs {slow}",
                    kernels.name
                );
            }
        }
    }

    #[test]
    fn one_to_many_matches_pairwise() {
        let dim = 33;
        let n = 7;
        let (x, _) = vectors(dim);
        let rows: Vec<f32> = (0..n * dim).map(|i| (i as f32 * 0.13).sin()).collect();
        let mut batched = vec![0.0f32; n];
        l2_sq_one_to_many(&x, &rows, &mut batched);
        for (i, &got) in batched.iter().enumerate() {
            let expect = l2_sq_reference(&x, &rows[i * dim..(i + 1) * dim]);
            assert!((got - expect).abs() <= 1e-3 * expect.max(1.0), "row {i}");
        }
    }

    #[test]
    fn indexed_variant_gathers_rows() {
        let dim = 12;
        let flat: Vec<f32> = (0..8 * dim).map(|i| i as f32 * 0.05).collect();
        let (x, _) = vectors(dim);
        let idx: Vec<u32> = vec![5, 0, 7, 5];
        let mut out = vec![0.0f32; idx.len()];
        l2_sq_one_to_many_indexed(&x, &flat, dim, &idx, &mut out);
        for (slot, &i) in out.iter().zip(&idx) {
            let expect = l2_sq_reference(&x, &flat[i as usize * dim..(i as usize + 1) * dim]);
            assert!((slot - expect).abs() <= 1e-3 * expect.max(1.0));
        }
    }

    #[test]
    fn cached_variant_matches_direct() {
        let dim = 48;
        let n = 5;
        let (x, _) = vectors(dim);
        let rows: Vec<f32> = (0..n * dim).map(|i| (i as f32 * 0.29).cos()).collect();
        let x_norm: f32 = x.iter().map(|v| v * v).sum();
        let row_norms: Vec<f32> = (0..n)
            .map(|i| rows[i * dim..(i + 1) * dim].iter().map(|v| v * v).sum())
            .collect();
        let mut cached = vec![0.0f32; n];
        l2_sq_one_to_many_cached(&x, x_norm, &rows, &row_norms, &mut cached);
        let mut direct = vec![0.0f32; n];
        l2_sq_one_to_many(&x, &rows, &mut direct);
        for (c, d) in cached.iter().zip(&direct) {
            assert!((c - d).abs() <= 1e-2 * d.max(1.0), "{c} vs {d}");
        }
    }

    #[test]
    #[should_panic(expected = "block shape mismatch")]
    fn shape_mismatch_panics() {
        let mut out = vec![0.0f32; 2];
        l2_sq_one_to_many(&[1.0, 2.0], &[0.0; 5], &mut out);
    }

    #[test]
    fn many_to_many_matches_pairwise() {
        let d = 19;
        let (m, k) = (5, 6);
        let xs: Vec<f32> = (0..m * d).map(|i| (i as f32 * 0.23).sin() * 2.0).collect();
        let rows: Vec<f32> = (0..k * d).map(|i| (i as f32 * 0.41).cos() * 1.5).collect();
        let mut tile = vec![0.0f32; m * k];
        l2_sq_many_to_many(&xs, &rows, d, &mut tile);
        let mut dots = vec![0.0f32; m * k];
        dot_many_to_many(&xs, &rows, d, &mut dots);
        for q in 0..m {
            for c in 0..k {
                let a = &xs[q * d..(q + 1) * d];
                let b = &rows[c * d..(c + 1) * d];
                let expect = l2_sq_reference(a, b);
                let got = tile[q * k + c];
                assert!((got - expect).abs() <= 1e-3 * expect.max(1.0), "({q},{c})");
                let dot_expect: f32 = a.iter().zip(b).map(|(x, y)| x * y).sum();
                let dot_got = dots[q * k + c];
                assert!(
                    (dot_got - dot_expect).abs() <= 1e-3 * dot_expect.abs().max(1.0),
                    "dot ({q},{c})"
                );
            }
        }
    }

    #[test]
    fn assign_block_finds_closest_and_second() {
        let d = 2;
        // queries at (0,0) and (9,9); candidates at (0,1), (10,10), (5,5)
        let xs = [0.0, 0.0, 9.0, 9.0];
        let rows = [0.0, 1.0, 10.0, 10.0, 5.0, 5.0];
        let current = [0u32, 0];
        let mut idx = [9u32; 2];
        let mut dist = [0.0f32; 2];
        let mut second = [0.0f32; 2];
        assign_block(&xs, &rows, d, &current, &mut idx, &mut dist, &mut second);
        assert_eq!(idx, [0, 1]);
        assert_eq!(dist, [1.0, 2.0]);
        assert_eq!(second, [50.0, 32.0]);
    }

    #[test]
    fn assign_block_sticky_on_duplicate_candidates() {
        let d = 1;
        let xs = [3.0f32, 3.0];
        let rows = [5.0f32, 5.0]; // two identical candidates
        let current = [1u32, 0];
        let mut idx = [9u32; 2];
        let mut dist = [0.0f32; 2];
        let mut second = [0.0f32; 2];
        assign_block(&xs, &rows, d, &current, &mut idx, &mut dist, &mut second);
        assert_eq!(idx, [1, 0], "exact ties must keep the current assignment");
        assert_eq!(dist, second, "a tied pair shares best and second-best");
    }

    #[test]
    fn assign_block_single_candidate_has_infinite_second() {
        let xs = [1.0f32, 2.0];
        let rows = [0.0f32, 0.0];
        let current = [0u32];
        let mut idx = [9u32; 1];
        let mut dist = [0.0f32; 1];
        let mut second = [0.0f32; 1];
        assign_block(&xs, &rows, 2, &current, &mut idx, &mut dist, &mut second);
        assert_eq!(idx, [0]);
        assert_eq!(dist, [5.0]);
        assert_eq!(second, [f32::INFINITY]);
    }

    #[test]
    fn assign_block_cached_agrees_with_direct_assign() {
        let d = 8;
        let (m, k) = (40, 7);
        let xs: Vec<f32> = (0..m * d).map(|i| (i as f32 * 0.7).sin() * 4.0).collect();
        let rows: Vec<f32> = (0..k * d).map(|i| (i as f32 * 0.3).cos() * 4.0).collect();
        let x_norms: Vec<f32> = (0..m)
            .map(|q| xs[q * d..(q + 1) * d].iter().map(|v| v * v).sum())
            .collect();
        let row_norms: Vec<f32> = (0..k)
            .map(|c| rows[c * d..(c + 1) * d].iter().map(|v| v * v).sum())
            .collect();
        let current = vec![0u32; m];
        let mut idx_a = vec![0u32; m];
        let mut dist_a = vec![0.0f32; m];
        let mut sec_a = vec![0.0f32; m];
        assign_block(&xs, &rows, d, &current, &mut idx_a, &mut dist_a, &mut sec_a);
        let mut idx_b = vec![0u32; m];
        let mut dist_b = vec![0.0f32; m];
        let mut sec_b = vec![0.0f32; m];
        assign_block_cached(
            &xs,
            &x_norms,
            &rows,
            &row_norms,
            d,
            &current,
            &mut idx_b,
            &mut dist_b,
            &mut sec_b,
        );
        assert_eq!(idx_a, idx_b);
    }

    #[test]
    fn assign_accumulate_matches_assign_plus_manual_accumulate() {
        let d = 5;
        let (m, k) = (37, 6);
        let xs: Vec<f32> = (0..m * d).map(|i| (i as f32 * 0.19).sin() * 3.0).collect();
        let rows: Vec<f32> = (0..k * d).map(|i| (i as f32 * 0.43).cos() * 2.0).collect();
        let current = vec![2u32; m];

        let mut idx_a = vec![0u32; m];
        let mut dist_a = vec![0.0f32; m];
        let mut sec_a = vec![0.0f32; m];
        assign_block(&xs, &rows, d, &current, &mut idx_a, &mut dist_a, &mut sec_a);

        let mut idx_b = vec![0u32; m];
        let mut dist_b = vec![0.0f32; m];
        let mut sec_b = vec![0.0f32; m];
        let mut sums = vec![0.0f64; k * d];
        let mut counts = vec![0u64; k];
        assign_accumulate_block(
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
        assert_eq!(idx_a, idx_b, "fused accumulation must not change labels");
        assert_eq!(dist_a, dist_b);
        assert_eq!(sec_a, sec_b);

        // Reference accumulation in ascending query order.
        let mut ref_sums = vec![0.0f64; k * d];
        let mut ref_counts = vec![0u64; k];
        for q in 0..m {
            let c = idx_a[q] as usize;
            ref_counts[c] += 1;
            for (slot, &x) in ref_sums[c * d..(c + 1) * d].iter_mut().zip(&xs[q * d..]) {
                *slot += f64::from(x);
            }
        }
        assert_eq!(counts, ref_counts);
        for (got, expect) in sums.iter().zip(&ref_sums) {
            assert_eq!(got.to_bits(), expect.to_bits(), "sums must be bit-exact");
        }
    }

    #[test]
    fn add_assign_widens_and_accumulates() {
        let mut acc = vec![1.0f64; 11];
        let row: Vec<f32> = (0..11).map(|i| i as f32 * 0.5).collect();
        add_assign_f64_f32(&mut acc, &row);
        for (i, &a) in acc.iter().enumerate() {
            assert_eq!(a, 1.0 + f64::from(row[i]));
        }
    }

    #[test]
    #[should_panic(expected = "tile shape mismatch")]
    fn many_to_many_shape_mismatch_panics() {
        let mut out = vec![0.0f32; 3];
        l2_sq_many_to_many(&[0.0; 4], &[0.0; 4], 2, &mut out);
    }

    #[test]
    fn zero_dimension_tiles_are_all_zero() {
        let mut out = vec![7.0f32; 6];
        l2_sq_many_to_many(&[], &[], 0, &mut out);
        assert_eq!(out, vec![0.0; 6]);
        let mut out = vec![7.0f32; 6];
        dot_many_to_many(&[], &[], 0, &mut out);
        assert_eq!(out, vec![0.0; 6]);
    }

    #[test]
    fn indexed_f64_variant_gathers_rows() {
        let dim = 9;
        let flat: Vec<f64> = (0..6 * dim).map(|i| i as f64 * 0.11).collect();
        let (x, _) = vectors(dim);
        let idx: Vec<usize> = vec![4, 0, 4, 2];
        let mut out = vec![0.0f64; idx.len()];
        dot_f64_f32_one_to_many_indexed(&x, &flat, dim, &idx, &mut out);
        for (slot, &i) in out.iter().zip(&idx) {
            let expect: f64 = flat[i * dim..(i + 1) * dim]
                .iter()
                .zip(&x)
                .map(|(a, &b)| a * f64::from(b))
                .sum();
            assert!((slot - expect).abs() <= 1e-9 * expect.abs().max(1.0));
        }
    }

    #[test]
    fn zero_dimension_blocks_are_all_zero() {
        let mut out = vec![9.0f32; 4];
        l2_sq_one_to_many(&[], &[], &mut out);
        assert_eq!(out, vec![0.0; 4]);
        let mut out = vec![9.0f32; 4];
        l2_sq_sq8_one_to_many(&[], &[], &[], &mut out);
        assert_eq!(out, vec![0.0; 4]);
    }

    #[test]
    fn sq8_one_to_many_matches_dequantised_reference() {
        let dim = 19;
        let n = 6;
        let (x, _) = vectors(dim);
        let scales: Vec<f32> = (0..dim)
            .map(|i| 0.01 + (i as f32 * 0.29).sin().abs())
            .collect();
        let codes: Vec<u8> = (0..n * dim).map(|i| (i * 37 % 256) as u8).collect();
        let mut out = vec![0.0f32; n];
        l2_sq_sq8_one_to_many(&x, &scales, &codes, &mut out);
        for (r, &got) in out.iter().enumerate() {
            let deq: Vec<f32> = codes[r * dim..(r + 1) * dim]
                .iter()
                .zip(&scales)
                .map(|(&c, &s)| s * f32::from(c))
                .collect();
            let expect = l2_sq_reference(&x, &deq);
            assert!((got - expect).abs() <= 1e-3 * expect.max(1.0), "row {r}");
        }
    }

    #[test]
    #[should_panic(expected = "block shape mismatch")]
    fn sq8_shape_mismatch_panics() {
        let mut out = vec![0.0f32; 2];
        l2_sq_sq8_one_to_many(&[1.0, 2.0], &[1.0, 1.0], &[0u8; 5], &mut out);
    }
}
