//! Seeded input generator: SIFT-like vectors from a Gaussian mixture.
//!
//! The program under test receives only what this module produces.  The
//! generator uses integer arithmetic and `+ − ×` on floats only (no `ln`,
//! `cos`, …), so the same seed gives the same bytes on every platform and the
//! pinned fingerprints hold.  Every value is a whole number in `0..=255`, so a
//! squared distance over 128 dimensions is below 2²⁴ and exact in `f32`
//! whatever the summation order: brute force and the product's SIMD kernels
//! must agree to the bit.

/// Dimensionality of every generated vector (SIFT's).
pub const DIM: usize = 128;
/// Components of the mixture.
pub const COMPONENTS: usize = 256;

/// SplitMix64: seeds the streams and is the only random source.
#[derive(Clone, Debug)]
pub struct Rng(u64);

impl Rng {
    pub fn new(seed: u64) -> Self {
        Rng(seed)
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `[0, 1)` with 24 bits (exact in `f32`).
    pub fn unit(&mut self) -> f32 {
        (self.next_u64() >> 40) as f32 / (1u32 << 24) as f32
    }

    /// Approximately standard normal: the sum of four 16-bit uniforms from one
    /// draw, centred and scaled to unit variance (Irwin–Hall, n = 4).
    pub fn gauss(&mut self) -> f32 {
        let x = self.next_u64();
        let sum = (x & 0xFFFF) + ((x >> 16) & 0xFFFF) + ((x >> 32) & 0xFFFF) + (x >> 48);
        // mean 2·65535, variance 4·65536²/12  →  std = 65536/√3
        (sum as f32 - 131_070.0) * (1.732_050_8 / 65_536.0)
    }
}

/// The mixture every stream of one seed is drawn from.
pub struct Mixture {
    centres: Vec<f32>,
    sigmas: Vec<f32>,
    /// Cumulative component weights scaled to `u32::MAX`.
    cumulative: Vec<u32>,
}

impl Mixture {
    /// Component centres uniform in `[52, 108)` per dimension: components
    /// overlap enough that a query's true neighbours spread over several
    /// inverted lists (recall@10 at `nprobe = 8` of 512 lists is about 0.95,
    /// not 1).  Spreads cover `[12, 24)` and weights `[0.25, 1.25)` in even
    /// steps — stratified, not drawn, so two seeds differ in where the
    /// components lie and not in how hard the mixture is; the weights make
    /// the inverted lists uneven the way real descriptor sets are.
    pub fn new(seed: u64) -> Self {
        let mut rng = Rng::new(seed ^ 0x6D69_7874_7572_6531);
        let centres = (0..COMPONENTS * DIM)
            .map(|_| 52.0 + 56.0 * rng.unit())
            .collect();
        let step = |j: usize| (j as f32 + 0.5) / COMPONENTS as f32;
        let sigmas = (0..COMPONENTS).map(|j| 12.0 + 12.0 * step(j)).collect();
        // 97 is coprime to 256: weight rank and spread rank are unrelated
        let weights: Vec<f64> = (0..COMPONENTS)
            .map(|j| 0.25 + f64::from(step(j * 97 % COMPONENTS)))
            .collect();
        let total: f64 = weights.iter().sum();
        let mut acc = 0.0;
        let cumulative = weights
            .iter()
            .map(|w| {
                acc += w;
                ((acc / total) * f64::from(u32::MAX)) as u32
            })
            .collect();
        Mixture {
            centres,
            sigmas,
            cumulative,
        }
    }

    /// Draws `n` row-major vectors from stream `stream` of this mixture.
    /// Distinct streams (base, queries, inserts) never share draws.
    pub fn sample(&self, seed: u64, stream: u64, n: usize) -> Vec<f32> {
        let mut rng = Rng::new(seed.wrapping_mul(0xA24B_AED4_963E_E407) ^ stream);
        let mut out = Vec::with_capacity(n * DIM);
        for _ in 0..n {
            let pick = (rng.next_u64() >> 32) as u32;
            let c = self
                .cumulative
                .partition_point(|&edge| edge < pick)
                .min(COMPONENTS - 1);
            let centre = &self.centres[c * DIM..(c + 1) * DIM];
            let sigma = self.sigmas[c];
            for &mu in centre {
                let v = (mu + sigma * rng.gauss()).round();
                out.push(v.clamp(0.0, 255.0));
            }
        }
        out
    }
}

/// Stream ids of the three vector sets a workload may draw.
pub const STREAM_BASE: u64 = 1;
pub const STREAM_QUERIES: u64 = 2;
pub const STREAM_INSERTS: u64 = 3;
/// `STREAM_PARTS + i` is the `i`-th extra training set of a workload that
/// clusters several.
pub const STREAM_PARTS: u64 = 16;

fn fnv1a(state: u64, bytes: impl IntoIterator<Item = u8>) -> u64 {
    bytes.into_iter().fold(state, |h, b| {
        (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01B3)
    })
}

/// FNV-1a 64 over the little-endian bytes of `values`, continuing from `state`.
pub fn fnv1a_f32(state: u64, values: &[f32]) -> u64 {
    fnv1a(state, values.iter().flat_map(|v| v.to_le_bytes()))
}

/// FNV-1a 64 over label values (as little-endian `u32`).
pub fn fnv1a_labels(labels: &[usize]) -> u64 {
    fnv1a(
        FNV_OFFSET,
        labels.iter().flat_map(|&l| (l as u32).to_le_bytes()),
    )
}

/// FNV-1a 64 offset basis.
pub const FNV_OFFSET: u64 = 0xCBF2_9CE4_8422_2325;

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_seed_same_bytes_other_seed_other_bytes() {
        let a = Mixture::new(7).sample(7, STREAM_BASE, 300);
        let b = Mixture::new(7).sample(7, STREAM_BASE, 300);
        let c = Mixture::new(8).sample(8, STREAM_BASE, 300);
        assert_eq!(fnv1a_f32(FNV_OFFSET, &a), fnv1a_f32(FNV_OFFSET, &b));
        assert_ne!(fnv1a_f32(FNV_OFFSET, &a), fnv1a_f32(FNV_OFFSET, &c));
        let q = Mixture::new(7).sample(7, STREAM_QUERIES, 300);
        assert_ne!(a, q, "streams must not share draws");
    }

    #[test]
    fn values_are_whole_numbers_in_byte_range() {
        let v = Mixture::new(3).sample(3, STREAM_BASE, 200);
        assert_eq!(v.len(), 200 * DIM);
        assert!(v
            .iter()
            .all(|&x| x == x.round() && (0.0..=255.0).contains(&x)));
    }

    #[test]
    fn gauss_has_unit_scale() {
        let mut rng = Rng::new(1);
        let n = 100_000;
        let (mut s, mut s2) = (0.0f64, 0.0f64);
        for _ in 0..n {
            let g = f64::from(rng.gauss());
            s += g;
            s2 += g * g;
        }
        let mean = s / n as f64;
        let var = s2 / n as f64 - mean * mean;
        assert!(mean.abs() < 0.02, "mean {mean}");
        assert!((var - 1.0).abs() < 0.03, "variance {var}");
    }
}
