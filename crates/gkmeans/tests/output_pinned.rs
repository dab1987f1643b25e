//! Output pins for the two-means tree and the whole GK-means pipeline.
//!
//! The hashes below are the FNV-1a fingerprints of the labels (and, for the
//! pipeline, of every graph list: ids and distance bits) this code produces
//! on a fixed integer-valued data set.  An optimisation of the tree or of
//! Alg. 3 that changes any of them changed the output, not just the speed.
//!
//! The data have the benchmark's shape and value range: n = 3072 rows of
//! d = 128 whole numbers in `0..=255`, drawn as Gaussian blobs from integer
//! arithmetic only, so the bytes are the same on every platform.  On such
//! data every `f64` centroid sum is exact, whatever order it is taken in.

use gkmeans::two_means::TwoMeansTree;
use gkmeans::{GkMeansPipeline, GkParams};
use knn_graph::KnnGraph;
use vecstore::VectorSet;

const N: usize = 3072;
const DIM: usize = 128;
const BLOBS: usize = 64;
const DATA_SEED: u64 = 0x005E_ED0F_DA7A;
const THREADS: [usize; 4] = [1, 2, 4, 7];

/// `(tree seed, k, labels hash)`.
const TREE_PINS: [(u64, usize, u64); 9] = [
    (1, 7, 0x36c0_679a_d966_9335),
    (1, 61, 0xc121_24bf_ac78_f125),
    (1, 192, 0x656f_ba6f_aca0_a545),
    (2, 7, 0x063f_91ac_de03_c955),
    (2, 61, 0x364b_69ea_2b99_ee05),
    (2, 192, 0x3bfe_23a3_7bdf_3f55),
    (3, 7, 0x680c_5205_244d_48d5),
    (3, 61, 0x0943_65ef_a87a_ccd5),
    (3, 192, 0x5c96_ee07_f544_0345),
];

/// Pipeline at the benchmark's `cluster-highk` parameters.
const PIPELINE_K: usize = 192;
const PIPELINE_LABELS: u64 = 0xdee7_c269_4890_0a1f;
const PIPELINE_GRAPH: u64 = 0x49fe_1f83_6a56_586a;

/// SplitMix64.
struct Rng(u64);

impl Rng {
    fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    fn below(&mut self, bound: u64) -> u64 {
        self.next_u64() % bound
    }

    /// Approximately normal with standard deviation `sigma`, rounded to an
    /// integer: the centred sum of four 16-bit uniforms (Irwin–Hall), scaled
    /// in integer arithmetic (65536/√3 ≈ 37837).
    fn gauss_round(&mut self, sigma: i64) -> i64 {
        let x = self.next_u64();
        let sum = (x & 0xFFFF) + ((x >> 16) & 0xFFFF) + ((x >> 32) & 0xFFFF) + (x >> 48);
        (sum as i64 - 131_070) * sigma / 37_837
    }
}

fn blobs() -> VectorSet {
    let mut rng = Rng(DATA_SEED);
    let centres: Vec<i64> = (0..BLOBS * DIM)
        .map(|_| 48 + rng.below(160) as i64)
        .collect();
    let sigmas: Vec<i64> = (0..BLOBS).map(|_| 8 + rng.below(17) as i64).collect();
    let rows: Vec<Vec<f32>> = (0..N)
        .map(|_| {
            let c = rng.below(BLOBS as u64) as usize;
            (0..DIM)
                .map(|j| (centres[c * DIM + j] + rng.gauss_round(sigmas[c])).clamp(0, 255) as f32)
                .collect()
        })
        .collect();
    VectorSet::from_rows(rows).unwrap()
}

fn fnv1a(state: u64, bytes: impl IntoIterator<Item = u8>) -> u64 {
    bytes.into_iter().fold(state, |h, b| {
        (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01B3)
    })
}

const FNV_OFFSET: u64 = 0xCBF2_9CE4_8422_2325;

fn labels_hash(labels: &[usize]) -> u64 {
    fnv1a(
        FNV_OFFSET,
        labels.iter().flat_map(|&l| (l as u32).to_le_bytes()),
    )
}

fn graph_hash(graph: &KnnGraph) -> u64 {
    graph.iter().fold(FNV_OFFSET, |h, (_, list)| {
        let h = fnv1a(h, (list.len() as u32).to_le_bytes());
        fnv1a(
            h,
            list.as_slice()
                .iter()
                .flat_map(|nb| nb.id.to_le_bytes().into_iter().chain(nb.dist.to_le_bytes())),
        )
    })
}

#[test]
fn data_are_whole_numbers_in_byte_range() {
    let data = blobs();
    assert_eq!((data.len(), data.dim()), (N, DIM));
    assert!(data
        .as_flat()
        .iter()
        .all(|&v| v == v.round() && (0.0..=255.0).contains(&v)));
}

#[test]
fn two_means_tree_labels_are_pinned_at_any_thread_count() {
    let data = blobs();
    let mut mismatches = Vec::new();
    for (seed, k, pinned) in TREE_PINS {
        for threads in THREADS {
            let labels = TwoMeansTree::new(seed).threads(threads).partition(&data, k);
            let got = labels_hash(&labels);
            if got != pinned {
                mismatches.push(format!(
                    "seed {seed} k {k} threads {threads}: {got:#018x} (pinned {pinned:#018x})"
                ));
            }
        }
    }
    assert!(mismatches.is_empty(), "{}", mismatches.join("\n"));
}

#[test]
fn pipeline_labels_and_graph_are_pinned_at_any_thread_count() {
    let data = blobs();
    let mut mismatches = Vec::new();
    for threads in THREADS {
        let params = GkParams::default()
            .kappa(20)
            .xi(50)
            .tau(4)
            .iterations(10)
            .seed(42)
            .threads(threads);
        let outcome = GkMeansPipeline::new(params).cluster(&data, PIPELINE_K);
        let labels = labels_hash(&outcome.clustering.labels);
        let graph = graph_hash(&outcome.graph);
        if (labels, graph) != (PIPELINE_LABELS, PIPELINE_GRAPH) {
            mismatches.push(format!(
                "threads {threads}: labels {labels:#018x} graph {graph:#018x} \
                 (pinned {PIPELINE_LABELS:#018x} / {PIPELINE_GRAPH:#018x})"
            ));
        }
    }
    assert!(mismatches.is_empty(), "{}", mismatches.join("\n"));
}
