//! Distance-kernel micro-benchmark emitting `BENCH_kernels.json`.
//!
//! Times the workhorse squared-Euclidean evaluations at the dimensionalities
//! the paper's datasets use (plus a small d=32 point):
//!
//! * `scalar_pair`  — the portable 4-way unrolled pair kernel (the pre-SIMD
//!   baseline every other number is compared against);
//! * `simd_pair`    — the runtime-dispatched pair kernel ([`vecstore::distance::l2_sq`]);
//! * `simd_batched` — the one-to-many kernel over a contiguous block;
//! * `simd_batched_cached` — the norm-cached one-to-many expansion;
//! * `simd_indexed_gather` — the prefetching indexed-gather form over a
//!   shuffled candidate list;
//!
//! plus, per `(d, k)` assignment shape, the multi-query tier:
//!
//! * `batched_loop` — the pre-tiling assignment inner loop: one one-to-many
//!   sweep per query plus an argmin scan (the baseline the tile must beat);
//! * `many_to_many` — the register-blocked, cache-tiled distance tile,
//!   materialised;
//! * `assign_block` — the argmin-fused tile (never materialises the `m × k`
//!   matrix);
//!
//! plus the epoch tier (the `(d, k)` shapes at a full epoch block's worth of
//! queries):
//!
//! * `assign_two_pass` — one epoch's pre-fusion structure: the argmin-fused
//!   assignment sweep followed by a second pass over the data accumulating
//!   the centroid update (the old `recompute_centroids` inner loop);
//! * `assign_accumulate` — the fused single-pass sweep
//!   ([`kernels::assign_accumulate_block`]): the update accumulates while the
//!   query rows are still cache-hot, so the second data pass disappears;
//!
//! plus the executor tier:
//!
//! * `executor_round` in the JSON — one near-empty `run_blocks` round on the
//!   **persistent worker pool** vs the same round on the pre-pool scoped
//!   fork/join executor (`run_blocks_scoped`), at `--epoch-threads` workers.
//!   This isolates the per-round overhead the pool amortises: the scoped
//!   executor pays `threads − 1` thread spawns and joins every round, the
//!   pool a wake and a park;
//!
//! plus the serving tier:
//!
//! * `ivf_search` in the JSON — batched multi-probe IVF search
//!   ([`ivf::IvfIndex::batch_search`], block-tiled coarse routing) vs the
//!   per-query loop over [`ivf::IvfIndex::search`] on the same index at
//!   d = 128, k = 1024, nprobe = 8.  The two return bit-identical results;
//!   the batched form amortises the routing tile across the query block;
//! * `ivf_search_sq8` in the JSON — the SQ8 quantized serving tier at
//!   d ∈ {128, 960}: u8 panel scan + overfetch + exact re-rank vs the f32
//!   scan at the same nprobe, reporting per-query panel bytes streamed
//!   (re-rank fetches included) and recall@10 against the f32 scan's own
//!   answers.  CI gates ≥ 2× fewer bytes at d = 960 and recall ≥ 0.95;
//!
//! plus the full serving stack:
//!
//! * `serve_latency` in the JSON — the dynamic-batching TCP server end to
//!   end, over loopback.  The **closed loop** runs a few synchronous clients
//!   back to back and reports p50/p99 request latency and the sustained
//!   throughput; the **open loop** paces a pipelined sender at a multiple of
//!   that throughput against a deliberately small admission queue, so the
//!   shed/deadline paths are exercised, and reports the answered-request
//!   accounting (every sent request must come back with exactly one typed
//!   response — the CI gate) plus the p99 over everything answered;
//! * `obs_overhead` in the JSON — the same closed-loop workload against a
//!   metrics-disabled server and a fully metered one (registry counters,
//!   per-stage histograms, slow-query ring), in back-to-back A/B rounds that
//!   alternate which variant goes first; the CI gate holds the median
//!   per-round enabled/disabled p50 ratio at ≤ 1.05×;
//!
//! plus the durability tier:
//!
//! * `gksc_load` in the JSON — [`ivf::IvfIndex::load`] throughput on the
//!   checksummed GKSC v2 container vs a legacy unchecksummed v1 image of the
//!   same index; the CI gate holds the v2 ratio at ≥ 0.8× (hardware CRC-32C
//!   keeps verification in the noise of the parse);
//! * `mutate_throughput` / `wal_replay` in the JSON — the crash-consistent
//!   mutation tier: journalled insert throughput under group-commit fsync
//!   batching (one fsync per batch), and the journal's decode bandwidth plus
//!   a full checkpoint-and-replay recovery; the CI gate pins the
//!   *accounting*, not the speed — a 16384-record log must recover exactly,
//!   with sequence cursor, applied cursor and live count all balancing;
//!
//! and two end-to-end measurements:
//!
//! * `threaded_epoch` in the JSON: the GK-means boost epoch (delta-batched
//!   engine) at `--epoch-threads` workers vs the sequential epoch on the same
//!   data/graph/seed — output is bit-identical, only wall-clock differs;
//! * `threaded_init` in the JSON: the two-means-tree initialisation
//!   (blocked bisections + delta-batched boost refinement) at
//!   `--epoch-threads` workers vs sequential, same bit-identical contract.
//!
//! Usage: `bench_kernels [--out BENCH_kernels.json] [--rows 1024]
//! [--ms-per-case 200] [--epoch-threads 4] [--skip-epoch]`.  ns/op figures
//! are per distance evaluation.  `docs/BENCHMARKS.md` documents the emitted
//! JSON schema and the CI gate thresholds.

use std::time::Instant;

use gkmeans::two_means::TwoMeansTree;
use gkmeans::{GkMeans, GkParams};
use ivf::{IvfIndex, IvfSearchParams};
use knn_graph::random::random_graph;
use vecstore::kernels;
use vecstore::parallel::{run_blocks, run_blocks_scoped};
use vecstore::VectorSet;

const DIMS: [usize; 3] = [32, 128, 960];

/// Centroid counts of the assignment-shape cases (`k` of the clustering).
const ASSIGN_KS: [usize; 2] = [64, 1024];

/// Query rows per assignment-shape call (one Lloyd block's worth).
const ASSIGN_QUERIES: usize = 256;

/// Values per epoch-shape call (8 MiB of query rows at every dim): big
/// enough that the two-pass baseline's second sweep re-streams the data from
/// beyond L2, the regime a real epoch over a large dataset lives in.
const EPOCH_VALUES: usize = 2 * 1024 * 1024;

/// Query rows per epoch-shape call at dimensionality `dim`.
fn epoch_queries(dim: usize) -> usize {
    EPOCH_VALUES / dim
}

/// Blocks per executor-overhead round: enough that the dynamic claim queue
/// actually cycles, few enough that the round is dominated by executor cost,
/// not work.
const EXECUTOR_BLOCKS: usize = 64;

/// Shape of the IVF serving-tier measurement: SIFT dimensionality at the
/// large-k assignment shape, probing the CI-gated `nprobe`.
const IVF_N: usize = 16384;
const IVF_D: usize = 128;
const IVF_K: usize = 1024;
const IVF_NPROBE: usize = 8;
const IVF_R: usize = 10;
const IVF_QUERIES: usize = 256;

/// Shape of the end-to-end threaded boost-epoch measurement.
const EPOCH_N: usize = 16384;
const EPOCH_D: usize = 128;
const EPOCH_K: usize = 256;
const EPOCH_KAPPA: usize = 16;
const EPOCH_ITERS: usize = 5;

struct Case {
    name: &'static str,
    dim: usize,
    /// Candidate rows of the assignment-shape cases (`None` for the
    /// pair/one-to-many cases, which have no `k`).
    k: Option<usize>,
    ns_per_op: f64,
}

fn test_block(rows: usize, dim: usize, phase: f32) -> Vec<f32> {
    (0..rows * dim)
        .map(|i| ((i as f32 + phase) * 0.37).sin() * 2.0)
        .collect()
}

/// Deterministic clustered dataset for the end-to-end epoch measurement:
/// `EPOCH_K` groups with sub-unit jitter, so boost moves behave like a real
/// mid-flight clustering run.
fn epoch_dataset() -> VectorSet {
    let mut rows = Vec::with_capacity(EPOCH_N);
    for i in 0..EPOCH_N {
        let g = i % EPOCH_K;
        let mut row = Vec::with_capacity(EPOCH_D);
        for d in 0..EPOCH_D {
            let centre = ((g * 13 + d * 7) % 31) as f32 * 3.0;
            row.push(centre + ((i * 31 + d) as f32 * 0.37).sin() * 0.8);
        }
        rows.push(row);
    }
    VectorSet::from_rows(rows).expect("non-empty epoch dataset")
}

/// Measurement chunks per case: the reported figure is the **minimum** mean
/// over the chunks, which discards scheduler/noisy-neighbour interference
/// spikes that a single long mean would average in.
const TIME_CHUNKS: usize = 4;

/// Runs `body` (which performs `evals_per_call` distance evaluations)
/// repeatedly for roughly `budget_ms`, returning the noise-robust (min over
/// [`TIME_CHUNKS`] chunks) mean ns per evaluation.
fn time_case(budget_ms: u64, evals_per_call: u64, mut body: impl FnMut() -> f32) -> f64 {
    // warm-up and calibration
    let mut sink = 0.0f32;
    for _ in 0..3 {
        sink += body();
    }
    let probe = Instant::now();
    sink += body();
    let per_call = probe.elapsed().max(std::time::Duration::from_nanos(100));
    let calls = ((budget_ms as f64 / 1000.0) / per_call.as_secs_f64()).ceil() as u64;
    let calls_per_chunk = (calls / TIME_CHUNKS as u64).clamp(2, 250_000);

    let mut best = f64::INFINITY;
    for _ in 0..TIME_CHUNKS {
        let start = Instant::now();
        for _ in 0..calls_per_chunk {
            sink += body();
        }
        let elapsed = start.elapsed();
        best = best.min(elapsed.as_nanos() as f64 / (calls_per_chunk * evals_per_call) as f64);
    }
    std::hint::black_box(sink);
    best
}

fn main() {
    let args: Vec<String> = std::env::args().collect();
    let mut out_path = "BENCH_kernels.json".to_string();
    let mut rows = 1024usize;
    let mut budget_ms = 200u64;
    let mut epoch_threads = 4usize;
    let mut skip_epoch = false;
    let mut i = 1;
    while i < args.len() {
        match args[i].as_str() {
            "--out" => {
                if let Some(v) = args.get(i + 1) {
                    out_path = v.clone();
                    i += 1;
                }
            }
            "--rows" => {
                if let Some(v) = args.get(i + 1).and_then(|s| s.parse().ok()) {
                    rows = v;
                    i += 1;
                }
            }
            "--ms-per-case" => {
                if let Some(v) = args.get(i + 1).and_then(|s| s.parse().ok()) {
                    budget_ms = v;
                    i += 1;
                }
            }
            "--epoch-threads" => {
                if let Some(v) = args.get(i + 1).and_then(|s| s.parse().ok()) {
                    epoch_threads = v;
                    i += 1;
                }
            }
            "--skip-epoch" => skip_epoch = true,
            other => {
                eprintln!("unknown option `{other}`");
                std::process::exit(1);
            }
        }
        i += 1;
    }

    let dispatch = kernels::active().name;
    println!("kernel dispatch: {dispatch}");

    let mut cases: Vec<Case> = Vec::new();
    for dim in DIMS {
        let query: Vec<f32> = (0..dim).map(|i| (i as f32 * 0.71).cos()).collect();
        let block = test_block(rows, dim, 1.5);
        let mut out = vec![0.0f32; rows];

        let scalar = time_case(budget_ms, rows as u64, || {
            let mut acc = 0.0f32;
            for r in 0..rows {
                acc += kernels::scalar::l2_sq(
                    std::hint::black_box(&query),
                    &block[r * dim..(r + 1) * dim],
                );
            }
            acc
        });
        cases.push(Case {
            name: "scalar_pair",
            dim,
            k: None,
            ns_per_op: scalar,
        });

        let simd_pair = time_case(budget_ms, rows as u64, || {
            let mut acc = 0.0f32;
            for r in 0..rows {
                acc += vecstore::distance::l2_sq(
                    std::hint::black_box(&query),
                    &block[r * dim..(r + 1) * dim],
                );
            }
            acc
        });
        cases.push(Case {
            name: "simd_pair",
            dim,
            k: None,
            ns_per_op: simd_pair,
        });

        let batched = time_case(budget_ms, rows as u64, || {
            kernels::l2_sq_one_to_many(std::hint::black_box(&query), &block, &mut out);
            out[rows - 1]
        });
        cases.push(Case {
            name: "simd_batched",
            dim,
            k: None,
            ns_per_op: batched,
        });

        let x_norm: f32 = query.iter().map(|v| v * v).sum();
        let row_norms: Vec<f32> = (0..rows)
            .map(|r| block[r * dim..(r + 1) * dim].iter().map(|v| v * v).sum())
            .collect();
        let cached = time_case(budget_ms, rows as u64, || {
            kernels::l2_sq_one_to_many_cached(
                std::hint::black_box(&query),
                x_norm,
                &block,
                &row_norms,
                &mut out,
            );
            out[rows - 1]
        });
        cases.push(Case {
            name: "simd_batched_cached",
            dim,
            k: None,
            ns_per_op: cached,
        });

        // Prefetching indexed gather over a shuffled candidate list — the
        // non-contiguous access pattern of GK-means candidate scoring and the
        // Alg. 3 refinement.
        let indices: Vec<u32> = {
            // deterministic shuffle: walk candidate strides from rows/2 + 1
            // until one is coprime to `rows`, so the map is a permutation for
            // every --rows value
            fn gcd(mut a: usize, mut b: usize) -> usize {
                while b != 0 {
                    (a, b) = (b, a % b);
                }
                a
            }
            let mut stride = rows / 2 + 1;
            while gcd(stride, rows) != 1 {
                stride += 1;
            }
            (0..rows).map(|r| ((r * stride) % rows) as u32).collect()
        };
        let indexed = time_case(budget_ms, rows as u64, || {
            kernels::l2_sq_one_to_many_indexed(
                std::hint::black_box(&query),
                &block,
                dim,
                &indices,
                &mut out,
            );
            out[rows - 1]
        });
        cases.push(Case {
            name: "simd_indexed_gather",
            dim,
            k: None,
            ns_per_op: indexed,
        });
    }

    // Multi-query assignment shapes: ASSIGN_QUERIES query rows against k
    // centroid rows, the Lloyd/Elkan/Hamerly hot loop.
    for dim in DIMS {
        for k in ASSIGN_KS {
            let m = ASSIGN_QUERIES;
            let xs = test_block(m, dim, 0.7);
            let centroids = test_block(k, dim, 9.1);
            let evals = (m * k) as u64;

            let mut dists = vec![0.0f32; k];
            let batched_loop = time_case(budget_ms, evals, || {
                let mut acc = 0.0f32;
                for q in 0..m {
                    kernels::l2_sq_one_to_many(
                        std::hint::black_box(&xs[q * dim..(q + 1) * dim]),
                        &centroids,
                        &mut dists,
                    );
                    let mut best = 0usize;
                    let mut best_v = f32::INFINITY;
                    for (c, &v) in dists.iter().enumerate() {
                        if v < best_v {
                            best_v = v;
                            best = c;
                        }
                    }
                    acc += best as f32;
                }
                acc
            });
            cases.push(Case {
                name: "batched_loop",
                dim,
                k: Some(k),
                ns_per_op: batched_loop,
            });

            let mut tile = vec![0.0f32; m * k];
            let many = time_case(budget_ms, evals, || {
                kernels::l2_sq_many_to_many(std::hint::black_box(&xs), &centroids, dim, &mut tile);
                tile[m * k - 1]
            });
            cases.push(Case {
                name: "many_to_many",
                dim,
                k: Some(k),
                ns_per_op: many,
            });

            let current = vec![0u32; m];
            let mut idx = vec![0u32; m];
            let mut best_d = vec![0.0f32; m];
            let mut second_d = vec![0.0f32; m];
            let fused = time_case(budget_ms, evals, || {
                kernels::assign_block(
                    std::hint::black_box(&xs),
                    &centroids,
                    dim,
                    &current,
                    &mut idx,
                    &mut best_d,
                    &mut second_d,
                );
                idx[m - 1] as f32
            });
            cases.push(Case {
                name: "assign_block",
                dim,
                k: Some(k),
                ns_per_op: fused,
            });
        }
    }

    // Epoch shapes: the fused single-pass assign+accumulate sweep vs its
    // pre-fusion structure (assignment sweep, then a second pass over the
    // data accumulating the centroid update the way `recompute_centroids`
    // used to).
    for dim in DIMS {
        for k in ASSIGN_KS {
            let m = epoch_queries(dim);
            let xs = test_block(m, dim, 0.7);
            let centroids = test_block(k, dim, 9.1);
            let evals = (m * k) as u64;
            let current = vec![0u32; m];
            let mut idx = vec![0u32; m];
            let mut best_d = vec![0.0f32; m];
            let mut second_d = vec![0.0f32; m];
            let mut sums = vec![0.0f64; k * dim];
            let mut counts = vec![0u64; k];

            let two_pass = time_case(budget_ms, evals, || {
                kernels::assign_block(
                    std::hint::black_box(&xs),
                    &centroids,
                    dim,
                    &current,
                    &mut idx,
                    &mut best_d,
                    &mut second_d,
                );
                // Second pass: re-stream the data to accumulate the update
                // (the pre-fusion `recompute_centroids` inner loop).
                sums.fill(0.0);
                counts.fill(0);
                for q in 0..m {
                    let c = idx[q] as usize;
                    counts[c] += 1;
                    for (slot, &x) in sums[c * dim..(c + 1) * dim]
                        .iter_mut()
                        .zip(&xs[q * dim..(q + 1) * dim])
                    {
                        *slot += f64::from(x);
                    }
                }
                sums[0] as f32
            });
            cases.push(Case {
                name: "assign_two_pass",
                dim,
                k: Some(k),
                ns_per_op: two_pass,
            });

            let fused_sweep = time_case(budget_ms, evals, || {
                sums.fill(0.0);
                counts.fill(0);
                kernels::assign_accumulate_block(
                    std::hint::black_box(&xs),
                    &centroids,
                    dim,
                    &current,
                    &mut idx,
                    &mut best_d,
                    &mut second_d,
                    &mut sums,
                    &mut counts,
                );
                sums[0] as f32
            });
            cases.push(Case {
                name: "assign_accumulate",
                dim,
                k: Some(k),
                ns_per_op: fused_sweep,
            });
        }
    }

    // Executor round overhead: a near-empty round on the persistent pool vs
    // the scoped fork/join executor it replaced.  The block body is a few ns
    // of arithmetic, so the measured time is almost entirely the executor's
    // per-round cost (pool: wake + park; scoped: spawn + join per worker).
    let executor_round_json = {
        let time_round = |body: &dyn Fn() -> usize| -> f64 {
            // warm-up (also spawns the pool workers once, like a real fit)
            let mut sink = 0usize;
            for _ in 0..8 {
                sink += body();
            }
            let mut best = f64::INFINITY;
            for _ in 0..TIME_CHUNKS {
                let rounds = 50u32;
                let start = Instant::now();
                for _ in 0..rounds {
                    sink += body();
                }
                best = best.min(start.elapsed().as_secs_f64() * 1e6 / f64::from(rounds));
            }
            std::hint::black_box(sink);
            best
        };
        let pool_us = time_round(&|| {
            run_blocks(epoch_threads, EXECUTOR_BLOCKS, |b| b * b)
                .iter()
                .sum()
        });
        let scoped_us = time_round(&|| {
            run_blocks_scoped(epoch_threads, EXECUTOR_BLOCKS, |b| b * b)
                .iter()
                .sum()
        });
        let speedup = scoped_us / pool_us;
        println!(
            "executor_round         {EXECUTOR_BLOCKS} blocks @ {epoch_threads} threads: \
             scoped {scoped_us:.1} us/round, pool {pool_us:.1} us/round ({speedup:.2}x)"
        );
        format!(
            "  \"executor_round\": {{\"threads\": {epoch_threads}, \"blocks\": {EXECUTOR_BLOCKS}, \
             \"scoped_us\": {scoped_us:.3}, \"pool_us\": {pool_us:.3}, \"speedup\": {speedup:.3}}},\n"
        )
    };

    // Serving tier: batched multi-probe IVF search vs the per-query loop on
    // the same index.  Results are bit-identical (kernel tiling invariant);
    // the batched form amortises the m × k routing tile across the block.
    let ivf_search_json = {
        let data = VectorSet::from_flat(test_block(IVF_N, IVF_D, 0.7), IVF_D).expect("whole rows");
        let centroids =
            VectorSet::from_flat(test_block(IVF_K, IVF_D, 9.1), IVF_D).expect("whole rows");
        // real nearest-centroid labels so probed lists have genuine locality
        let mut idx = vec![0u32; IVF_N];
        let mut best_d = vec![0.0f32; IVF_N];
        let mut second_d = vec![0.0f32; IVF_N];
        kernels::assign_block(
            data.as_flat(),
            centroids.as_flat(),
            IVF_D,
            &vec![0u32; IVF_N],
            &mut idx,
            &mut best_d,
            &mut second_d,
        );
        let labels: Vec<usize> = idx.iter().map(|&c| c as usize).collect();
        let index = IvfIndex::build(&data, &centroids, &labels).expect("well-formed inputs");
        let queries =
            VectorSet::from_flat(test_block(IVF_QUERIES, IVF_D, 4.3), IVF_D).expect("whole rows");
        let params = IvfSearchParams::default().nprobe(IVF_NPROBE).threads(1);

        let per_query_us = time_case(budget_ms, IVF_QUERIES as u64, || {
            let mut acc = 0.0f32;
            for q in queries.rows() {
                let res = index.search(std::hint::black_box(q), IVF_R, params);
                acc += res.first().map(|n| n.dist).unwrap_or(0.0);
            }
            acc
        }) / 1000.0;
        let batched_us = time_case(budget_ms, IVF_QUERIES as u64, || {
            let res = index.batch_search(std::hint::black_box(&queries), IVF_R, params);
            res.last()
                .and_then(|r| r.first())
                .map(|n| n.dist)
                .unwrap_or(0.0)
        }) / 1000.0;
        let speedup = per_query_us / batched_us;
        println!(
            "ivf_search             n={IVF_N} d={IVF_D} k={IVF_K} nprobe={IVF_NPROBE} r={IVF_R}: \
             per-query {per_query_us:.1} us/query, batched {batched_us:.1} us/query ({speedup:.2}x)"
        );
        format!(
            "  \"ivf_search\": {{\"n\": {IVF_N}, \"dim\": {IVF_D}, \"k\": {IVF_K}, \
             \"nprobe\": {IVF_NPROBE}, \"r\": {IVF_R}, \"queries\": {IVF_QUERIES}, \
             \"per_query_us\": {per_query_us:.3}, \"batched_us\": {batched_us:.3}, \
             \"speedup\": {speedup:.3}}},\n"
        )
    };

    // Quantized serving tier: SQ8 overfetch + exact re-rank vs the f32 scan
    // on the same index, at a cache-resident d and a memory-bound d.  The
    // figures CI gates on: panel bytes streamed per query (the quantized
    // scan must cut them ≥ 2× at d = 960, re-rank fetches included) and
    // recall@R against the f32 scan's own answers (≥ 0.95 — the exact
    // re-rank keeps the approximation at the bottom of the pool only).
    let ivf_search_sq8_json = {
        const SQ8_N: usize = 8192;
        const SQ8_K: usize = 256;
        const SQ8_NPROBE: usize = 8;
        const SQ8_R: usize = 10;
        const SQ8_OVERFETCH: usize = 4;
        const SQ8_QUERIES: usize = 128;
        let mut case_json = String::new();
        for (i, dim) in [128usize, 960].into_iter().enumerate() {
            let data = VectorSet::from_flat(test_block(SQ8_N, dim, 0.7), dim).expect("whole rows");
            let centroids =
                VectorSet::from_flat(test_block(SQ8_K, dim, 9.1), dim).expect("whole rows");
            let mut idx = vec![0u32; SQ8_N];
            let mut best_d = vec![0.0f32; SQ8_N];
            let mut second_d = vec![0.0f32; SQ8_N];
            kernels::assign_block(
                data.as_flat(),
                centroids.as_flat(),
                dim,
                &vec![0u32; SQ8_N],
                &mut idx,
                &mut best_d,
                &mut second_d,
            );
            let labels: Vec<usize> = idx.iter().map(|&c| c as usize).collect();
            let mut index = IvfIndex::build(&data, &centroids, &labels).expect("well-formed");
            index.quantize();
            let queries =
                VectorSet::from_flat(test_block(SQ8_QUERIES, dim, 4.3), dim).expect("whole rows");
            let f32_params = IvfSearchParams::default().nprobe(SQ8_NPROBE).threads(1);
            let sq8_params = f32_params.sq8(true).overfetch(SQ8_OVERFETCH);

            let (f32_results, f32_stats) =
                index.batch_search_with_stats(&queries, SQ8_R, f32_params);
            let (sq8_results, sq8_stats) =
                index.batch_search_with_stats(&queries, SQ8_R, sq8_params);
            let f32_bytes = f32_stats.panel_bytes as f64 / SQ8_QUERIES as f64;
            let sq8_bytes = sq8_stats.panel_bytes as f64 / SQ8_QUERIES as f64;
            let bytes_ratio = f32_bytes / sq8_bytes;
            let mut hits = 0usize;
            let mut truth = 0usize;
            for (got, want) in sq8_results.iter().zip(&f32_results) {
                truth += want.len();
                hits += got
                    .iter()
                    .filter(|n| want.iter().any(|m| m.id == n.id))
                    .count();
            }
            let recall = hits as f64 / truth.max(1) as f64;

            let f32_us = time_case(budget_ms, SQ8_QUERIES as u64, || {
                let res = index.batch_search(std::hint::black_box(&queries), SQ8_R, f32_params);
                res.last()
                    .and_then(|r| r.first())
                    .map(|n| n.dist)
                    .unwrap_or(0.0)
            }) / 1000.0;
            let sq8_us = time_case(budget_ms, SQ8_QUERIES as u64, || {
                let res = index.batch_search(std::hint::black_box(&queries), SQ8_R, sq8_params);
                res.last()
                    .and_then(|r| r.first())
                    .map(|n| n.dist)
                    .unwrap_or(0.0)
            }) / 1000.0;
            println!(
                "ivf_search_sq8         n={SQ8_N} d={dim} k={SQ8_K} nprobe={SQ8_NPROBE} \
                 r={SQ8_R} overfetch={SQ8_OVERFETCH}: f32 {f32_us:.1} us/query \
                 ({f32_bytes:.0} B), sq8 {sq8_us:.1} us/query ({sq8_bytes:.0} B, \
                 {bytes_ratio:.2}x fewer bytes), recall@{SQ8_R} vs f32 = {recall:.3}"
            );
            if i > 0 {
                case_json.push_str(", ");
            }
            case_json.push_str(&format!(
                "{{\"dim\": {dim}, \"f32_us\": {f32_us:.3}, \"sq8_us\": {sq8_us:.3}, \
                 \"f32_bytes_per_query\": {f32_bytes:.1}, \
                 \"sq8_bytes_per_query\": {sq8_bytes:.1}, \"bytes_ratio\": {bytes_ratio:.3}, \
                 \"recall_vs_f32\": {recall:.4}}}"
            ));
        }
        format!(
            "  \"ivf_search_sq8\": {{\"n\": {SQ8_N}, \"k\": {SQ8_K}, \"nprobe\": {SQ8_NPROBE}, \
             \"r\": {SQ8_R}, \"overfetch\": {SQ8_OVERFETCH}, \"queries\": {SQ8_QUERIES}, \
             \"cases\": [{case_json}]}},\n"
        )
    };

    // Serving-stack latency: the dynamic-batching TCP server end to end.
    // Closed loop first (a few synchronous clients establish the sustained
    // throughput and the uncontended latency profile), then an open loop
    // paced at a multiple of that throughput against a small admission
    // queue, so shedding and deadline expiry are part of the measurement.
    // The open loop's accounting — every request answered exactly once,
    // every answer typed — is what the CI bench-smoke gate checks.
    let serve_latency_json = {
        use serve::batcher::{BatcherConfig, IvfBackend};
        use serve::client::Client;
        use serve::protocol::{
            read_frame, write_search, FrameKind, SearchRequest, SearchResponse, Status,
            DEFAULT_MAX_PAYLOAD,
        };
        use serve::server::{Server, ServerConfig};
        use std::sync::{Arc, Mutex};
        use std::time::Duration;

        const CLOSED_CLIENTS: usize = 4;
        const CLOSED_REQUESTS: usize = 150; // per client
        const CLOSED_QPR: usize = 8; // queries per request
        const OPEN_REQUESTS: usize = 2000; // 1 query each
        const OPEN_OVERLOAD: f64 = 3.0; // offered rate vs closed-loop qps
        const OPEN_DEADLINE_MS: u32 = 20;

        let data = VectorSet::from_flat(test_block(IVF_N, IVF_D, 0.7), IVF_D).expect("whole rows");
        let centroids =
            VectorSet::from_flat(test_block(IVF_K, IVF_D, 9.1), IVF_D).expect("whole rows");
        let labels: Vec<usize> = (0..IVF_N).map(|i| i % IVF_K).collect();
        let index = IvfIndex::build(&data, &centroids, &labels).expect("well-formed inputs");
        let query_flat: Arc<Vec<f32>> = Arc::new(test_block(IVF_QUERIES, IVF_D, 4.3));

        // Closed loop: every client waits for its response before sending
        // the next request, so the server runs at its natural batch rhythm.
        let mut server = Server::start(
            Arc::new(IvfBackend::new(index.clone(), Some(epoch_threads))),
            ServerConfig::default(),
        )
        .expect("bind the closed-loop server");
        let addr = server.local_addr();
        let started = Instant::now();
        let clients: Vec<_> = (0..CLOSED_CLIENTS)
            .map(|c| {
                let flat = Arc::clone(&query_flat);
                std::thread::spawn(move || {
                    let mut client =
                        Client::connect(addr, Duration::from_secs(10)).expect("connect");
                    let mut latencies_ms = Vec::with_capacity(CLOSED_REQUESTS);
                    for i in 0..CLOSED_REQUESTS {
                        let off =
                            ((c * CLOSED_REQUESTS + i) * CLOSED_QPR) % (IVF_QUERIES - CLOSED_QPR);
                        let req = SearchRequest {
                            id: (c * CLOSED_REQUESTS + i + 1) as u64,
                            deadline_ms: 0,
                            r: IVF_R as u16,
                            nprobe: IVF_NPROBE as u16,
                            dim: IVF_D as u32,
                            queries: flat[off * IVF_D..(off + CLOSED_QPR) * IVF_D].to_vec(),
                        };
                        let sent = Instant::now();
                        client.search(&req).expect("closed-loop search");
                        latencies_ms.push(sent.elapsed().as_secs_f64() * 1e3);
                    }
                    latencies_ms
                })
            })
            .collect();
        let mut latencies: Vec<f64> = clients
            .into_iter()
            .flat_map(|h| h.join().expect("closed-loop client"))
            .collect();
        let closed_elapsed = started.elapsed().as_secs_f64();
        server.shutdown();
        latencies.sort_by(f64::total_cmp);
        let pct = |sorted: &[f64], p: f64| sorted[((sorted.len() - 1) as f64 * p) as usize];
        let closed_p50 = pct(&latencies, 0.50);
        let closed_p99 = pct(&latencies, 0.99);
        let closed_qps =
            (CLOSED_CLIENTS * CLOSED_REQUESTS * CLOSED_QPR) as f64 / closed_elapsed.max(1e-9);

        // Open loop: a timer-paced pipelined sender fires regardless of
        // completions — the arrival process real overload has — against a
        // small admission queue, so OVERLOADED sheds and deadline expiry
        // join the latency distribution instead of hiding behind sender
        // back-off (coordinated omission).
        let mut server = Server::start(
            Arc::new(IvfBackend::new(index, Some(epoch_threads))),
            ServerConfig {
                batcher: BatcherConfig {
                    queue_cap: 64,
                    resume_depth: 16,
                    ..BatcherConfig::default()
                },
                ..ServerConfig::default()
            },
        )
        .expect("bind the open-loop server");
        let addr = server.local_addr();
        let offered_qps = closed_qps * OPEN_OVERLOAD;
        let stream = std::net::TcpStream::connect(addr).expect("connect the open-loop sender");
        stream.set_nodelay(true).ok();
        let reader_stream = stream.try_clone().expect("clone the open-loop stream");
        let send_times: Arc<Mutex<Vec<Option<Instant>>>> =
            Arc::new(Mutex::new(vec![None; OPEN_REQUESTS + 1]));
        let reader_times = Arc::clone(&send_times);
        let reader = std::thread::spawn(move || {
            let mut reader_stream = reader_stream;
            reader_stream
                .set_read_timeout(Some(Duration::from_secs(5)))
                .expect("read timeout");
            let (mut ok, mut shed, mut deadline, mut other) = (0u64, 0u64, 0u64, 0u64);
            let mut answered_ms: Vec<f64> = Vec::with_capacity(OPEN_REQUESTS);
            while (ok + shed + deadline + other) < OPEN_REQUESTS as u64 {
                let frame = match read_frame(&mut reader_stream, DEFAULT_MAX_PAYLOAD) {
                    Ok(Some(f)) => f,
                    // EOF or a stall: stop counting; the gate catches the
                    // deficit as answered < sent.
                    Ok(None) | Err(_) => break,
                };
                if frame.kind != FrameKind::Response {
                    continue;
                }
                let resp = SearchResponse::decode(&frame.payload).expect("decodable response");
                match resp.status {
                    Status::Ok => ok += 1,
                    Status::Overloaded => shed += 1,
                    Status::DeadlineExceeded => deadline += 1,
                    _ => other += 1,
                }
                if let Some(Some(sent)) = reader_times
                    .lock()
                    .expect("send times")
                    .get(resp.id as usize)
                {
                    answered_ms.push(sent.elapsed().as_secs_f64() * 1e3);
                }
            }
            (ok, shed, deadline, other, answered_ms)
        });
        // Pace in 1 ms ticks; each tick sends the offered-rate quantum.
        let per_tick = ((offered_qps / 1000.0).ceil() as usize).max(1);
        let mut sender_stream = stream;
        let mut sent = 0usize;
        let open_started = Instant::now();
        let mut tick = 0u32;
        while sent < OPEN_REQUESTS {
            let burst = per_tick.min(OPEN_REQUESTS - sent);
            for _ in 0..burst {
                sent += 1;
                let off = sent % IVF_QUERIES;
                let req = SearchRequest {
                    id: sent as u64,
                    deadline_ms: OPEN_DEADLINE_MS,
                    r: IVF_R as u16,
                    nprobe: IVF_NPROBE as u16,
                    dim: IVF_D as u32,
                    queries: query_flat[off * IVF_D..(off + 1) * IVF_D].to_vec(),
                };
                send_times.lock().expect("send times")[sent] = Some(Instant::now());
                write_search(&mut sender_stream, &req).expect("open-loop send");
            }
            tick += 1;
            let next = open_started + Duration::from_millis(u64::from(tick));
            if let Some(wait) = next.checked_duration_since(Instant::now()) {
                std::thread::sleep(wait);
            }
        }
        let (ok, shed, deadline, other, mut answered_ms) = reader.join().expect("open-loop reader");
        server.shutdown();
        let answered = ok + shed + deadline + other;
        answered_ms.sort_by(f64::total_cmp);
        let open_p99 = if answered_ms.is_empty() {
            f64::NAN
        } else {
            pct(&answered_ms, 0.99)
        };

        println!(
            "serve_latency          closed {CLOSED_CLIENTS} clients: p50 {closed_p50:.3} ms, \
             p99 {closed_p99:.3} ms, {closed_qps:.0} qps; open @{offered_qps:.0} qps offered: \
             {answered}/{OPEN_REQUESTS} answered ({ok} ok, {shed} shed, {deadline} deadline, \
             {other} other), p99 {open_p99:.3} ms"
        );
        format!(
            "  \"serve_latency\": {{\"n\": {IVF_N}, \"dim\": {IVF_D}, \"k\": {IVF_K}, \
             \"nprobe\": {IVF_NPROBE}, \"r\": {IVF_R}, \
             \"closed_loop\": {{\"clients\": {CLOSED_CLIENTS}, \"requests\": {}, \
             \"queries_per_request\": {CLOSED_QPR}, \"p50_ms\": {closed_p50:.3}, \
             \"p99_ms\": {closed_p99:.3}, \"qps\": {closed_qps:.1}}}, \
             \"open_loop\": {{\"offered_qps\": {offered_qps:.1}, \"deadline_ms\": {OPEN_DEADLINE_MS}, \
             \"sent\": {OPEN_REQUESTS}, \"answered\": {answered}, \"ok\": {ok}, \"shed\": {shed}, \
             \"deadline_expired\": {deadline}, \"other\": {other}, \"p99_ms\": {open_p99:.3}}}}},\n",
            CLOSED_CLIENTS * CLOSED_REQUESTS,
        )
    };

    // Observability overhead: the identical closed-loop workload against a
    // metrics-disabled server and a metrics-enabled one (registry + per-stage
    // histograms + slow-query ring all live), in back-to-back A/B rounds so
    // thermal drift and scheduler noise hit both variants equally.  The CI
    // gate holds the median per-round enabled/disabled p50 ratio at ≤ 1.05×:
    // an event is one relaxed atomic, so instrumentation must stay in the
    // noise.
    let obs_overhead_json = {
        use obs::ObsHandle;
        use serve::batcher::IvfBackend;
        use serve::client::Client;
        use serve::protocol::SearchRequest;
        use serve::server::{Server, ServerConfig};
        use std::sync::Arc;
        use std::time::Duration;

        // Without a per-request coalesce timer a request takes ≈ 0.48 ms,
        // not ≈ 1.4 ms, so the gate's 5 % is ≈ 24 µs: the rounds the old
        // time budget now buys are spent on resolving that.
        const ROUNDS: usize = 16; // interleaved rounds per variant
        const CLIENTS: usize = 2;
        const REQUESTS: usize = 60; // per client per round
        const QPR: usize = 8; // queries per request

        let data = VectorSet::from_flat(test_block(IVF_N, IVF_D, 0.7), IVF_D).expect("whole rows");
        let centroids =
            VectorSet::from_flat(test_block(IVF_K, IVF_D, 9.1), IVF_D).expect("whole rows");
        let labels: Vec<usize> = (0..IVF_N).map(|i| i % IVF_K).collect();
        let index = IvfIndex::build(&data, &centroids, &labels).expect("well-formed inputs");
        let query_flat: Arc<Vec<f32>> = Arc::new(test_block(IVF_QUERIES, IVF_D, 4.3));

        let run_round = |obs: &ObsHandle| -> Vec<f64> {
            let mut server = Server::start_obs(
                Arc::new(IvfBackend::new(index.clone(), Some(epoch_threads))),
                ServerConfig::default(),
                obs,
            )
            .expect("bind the overhead server");
            let addr = server.local_addr();
            let clients: Vec<_> = (0..CLIENTS)
                .map(|c| {
                    let flat = Arc::clone(&query_flat);
                    std::thread::spawn(move || {
                        let mut client =
                            Client::connect(addr, Duration::from_secs(10)).expect("connect");
                        let mut latencies_ms = Vec::with_capacity(REQUESTS);
                        for i in 0..REQUESTS {
                            let off = ((c * REQUESTS + i) * QPR) % (IVF_QUERIES - QPR);
                            let req = SearchRequest {
                                id: (c * REQUESTS + i + 1) as u64,
                                deadline_ms: 0,
                                r: IVF_R as u16,
                                nprobe: IVF_NPROBE as u16,
                                dim: IVF_D as u32,
                                queries: flat[off * IVF_D..(off + QPR) * IVF_D].to_vec(),
                            };
                            let sent = Instant::now();
                            client.search(&req).expect("overhead search");
                            latencies_ms.push(sent.elapsed().as_secs_f64() * 1e3);
                        }
                        latencies_ms
                    })
                })
                .collect();
            let latencies: Vec<f64> = clients
                .into_iter()
                .flat_map(|h| h.join().expect("overhead client"))
                .collect();
            server.shutdown();
            latencies
        };

        let pct = |sorted: &[f64], p: f64| sorted[((sorted.len() - 1) as f64 * p) as usize];
        let sorted = |mut v: Vec<f64>| {
            v.sort_by(f64::total_cmp);
            v
        };
        let mut plain: Vec<f64> = Vec::new();
        let mut metered: Vec<f64> = Vec::new();
        let mut round_ratios: Vec<f64> = Vec::new();
        for round in 0..ROUNDS {
            // Alternate which variant goes first, so whatever a round
            // inherits from the one before it lands on both equally.
            let (off, on) = if round % 2 == 0 {
                let off = run_round(&ObsHandle::disabled());
                (off, run_round(&ObsHandle::enabled()))
            } else {
                let on = run_round(&ObsHandle::enabled());
                (run_round(&ObsHandle::disabled()), on)
            };
            let (off, on) = (sorted(off), sorted(on));
            round_ratios.push(pct(&on, 0.50) / pct(&off, 0.50).max(1e-12));
            plain.extend(off);
            metered.extend(on);
        }
        let (plain, metered) = (sorted(plain), sorted(metered));
        let plain_p50 = pct(&plain, 0.50);
        let metered_p50 = pct(&metered, 0.50);
        let plain_p99 = pct(&plain, 0.99);
        let metered_p99 = pct(&metered, 0.99);
        // The gated figure is the median of the per-round ratios: each round
        // pairs the two variants back to back, so slow drift (placement,
        // frequency) cancels inside a pair instead of landing on one side.
        let p50_ratio = pct(&sorted(round_ratios), 0.50);

        println!(
            "obs_overhead           closed {CLIENTS} clients x {REQUESTS} reqs x {ROUNDS} rounds: \
             disabled p50 {plain_p50:.3} ms / p99 {plain_p99:.3} ms, enabled p50 \
             {metered_p50:.3} ms / p99 {metered_p99:.3} ms ({p50_ratio:.3}x)"
        );
        format!(
            "  \"obs_overhead\": {{\"rounds\": {ROUNDS}, \"clients\": {CLIENTS}, \
             \"requests_per_round\": {REQUESTS}, \"queries_per_request\": {QPR}, \
             \"disabled_p50_ms\": {plain_p50:.4}, \"enabled_p50_ms\": {metered_p50:.4}, \
             \"disabled_p99_ms\": {plain_p99:.4}, \"enabled_p99_ms\": {metered_p99:.4}, \
             \"p50_ratio\": {p50_ratio:.4}}},\n"
        )
    };

    // Durable-container load throughput: the checksummed GKSC v2 read path
    // vs a legacy unchecksummed v1 image of the same index.  The CI gate
    // holds v2 at ≥ 0.8× the v1 throughput: the CRC pass must stay in the
    // noise of the parse + copy work, which is what the hardware CRC-32C
    // dispatch buys.
    let gksc_load_json = {
        use std::io::Write as _;

        let data = VectorSet::from_flat(test_block(IVF_N, IVF_D, 0.7), IVF_D).expect("whole rows");
        let centroids =
            VectorSet::from_flat(test_block(IVF_K, IVF_D, 9.1), IVF_D).expect("whole rows");
        let labels: Vec<usize> = (0..IVF_N).map(|i| i % IVF_K).collect();
        let index = IvfIndex::build(&data, &centroids, &labels).expect("well-formed inputs");

        let dir = std::env::temp_dir().join(format!("gkm-bench-gksc-{}", std::process::id()));
        std::fs::create_dir_all(&dir).expect("create bench temp dir");
        let v2_path = dir.join("index_v2.ivf");
        let v1_path = dir.join("index_v1.ivf");
        index
            .save(v2_path.to_str().expect("utf-8 path"))
            .expect("save v2");
        let sections =
            vecstore::io::read_sections_from(std::fs::File::open(&v2_path).expect("reopen v2"))
                .expect("parse v2");
        let mut v1_file =
            std::io::BufWriter::new(std::fs::File::create(&v1_path).expect("create v1"));
        vecstore::io::write_sections_v1_to(&mut v1_file, &sections).expect("write v1");
        v1_file.flush().expect("flush v1");
        drop(v1_file);
        let bytes = std::fs::metadata(&v2_path).expect("stat v2").len();

        let time_load = |path: &std::path::Path| -> f64 {
            let p = path.to_str().expect("utf-8 path");
            std::hint::black_box(IvfIndex::load(p).expect("load")); // warm the page cache
            let mut best = f64::INFINITY;
            for _ in 0..TIME_CHUNKS {
                let start = Instant::now();
                let loaded = IvfIndex::load(p).expect("load");
                best = best.min(start.elapsed().as_secs_f64());
                std::hint::black_box(loaded);
            }
            best
        };
        let v2_ms = time_load(&v2_path) * 1e3;
        let v1_ms = time_load(&v1_path) * 1e3;
        let ratio = v1_ms / v2_ms;
        std::fs::remove_dir_all(&dir).ok();
        let crc_impl = vecstore::checksum::active_impl();
        println!(
            "gksc_load              {bytes} bytes via {crc_impl}: \
             v1 {v1_ms:.2} ms, v2 {v2_ms:.2} ms ({ratio:.2}x of v1 throughput)"
        );
        format!(
            "  \"gksc_load\": {{\"bytes\": {bytes}, \"checksum_impl\": \"{crc_impl}\", \
             \"v1_ms\": {v1_ms:.3}, \"v2_ms\": {v2_ms:.3}, \"ratio_vs_v1\": {ratio:.3}}},\n"
        )
    };

    // Mutation tier: journalled insert throughput (group commit — one fsync
    // per batch) and WAL replay bandwidth over the log those inserts wrote.
    // The CI gate checks the accounting, not the speed: a 16384-record
    // journal must recover exactly, with the sequence cursor, the applied
    // cursor and the live count all balancing the record count.
    let (mutate_throughput_json, wal_replay_json) = {
        use ivf::MutableStore;

        const MUT_N: usize = 2048;
        const MUT_K: usize = 64;
        const MUT_BATCH: usize = 64;
        const MUT_BATCHES: usize = 256; // 16384 records total
        let records = MUT_BATCH * MUT_BATCHES;

        let data = VectorSet::from_flat(test_block(MUT_N, IVF_D, 0.7), IVF_D).expect("whole rows");
        let centroids =
            VectorSet::from_flat(test_block(MUT_K, IVF_D, 9.1), IVF_D).expect("whole rows");
        let labels: Vec<usize> = (0..MUT_N).map(|i| i % MUT_K).collect();
        let index = IvfIndex::build(&data, &centroids, &labels).expect("well-formed inputs");

        let dir = std::env::temp_dir().join(format!("gkm-bench-wal-{}", std::process::id()));
        std::fs::create_dir_all(&dir).expect("create bench temp dir");
        let index_path = dir.join("mutable.ivf");
        let mut store = MutableStore::create(&index_path, index).expect("attach journal");

        let batch_rows =
            VectorSet::from_flat(test_block(MUT_BATCH, IVF_D, 3.3), IVF_D).expect("whole rows");
        let started = Instant::now();
        for _ in 0..MUT_BATCHES {
            store.insert_batch(&batch_rows).expect("journalled insert");
        }
        let insert_secs = started.elapsed().as_secs_f64();
        let inserts_per_sec = records as f64 / insert_secs.max(1e-9);
        drop(store); // release the journal handle before replaying it

        let wal = ivf::store::wal_path(&index_path);
        let wal_bytes = std::fs::read(&wal).expect("read journal");
        let replay_secs = {
            let mut best = f64::INFINITY;
            for _ in 0..TIME_CHUNKS {
                let start = Instant::now();
                let replay = vecstore::wal::replay_wal(&wal_bytes).expect("replay journal");
                best = best.min(start.elapsed().as_secs_f64());
                std::hint::black_box(replay);
            }
            best
        };
        let replay_mb_per_s = wal_bytes.len() as f64 / replay_secs.max(1e-9) / 1e6;

        // Full recovery (checkpoint load + replay + apply), with the
        // accounting the CI gate pins.
        let rec_started = Instant::now();
        let (recovered, report) = MutableStore::open(&index_path).expect("recover the store");
        let recovery_ms = rec_started.elapsed().as_secs_f64() * 1e3;
        let balanced = report.replayed == records
            && report.skipped == 0
            && !report.torn_tail_dropped
            && recovered.next_seq() == records as u64
            && recovered.index().applied_seq() == recovered.next_seq()
            && recovered.index().live_len() == MUT_N + records;
        drop(recovered);
        std::fs::remove_dir_all(&dir).ok();

        println!(
            "mutate_throughput      d={IVF_D} batch={MUT_BATCH}: {records} journalled inserts \
             in {:.1} ms ({inserts_per_sec:.0} inserts/s, {MUT_BATCHES} fsyncs)",
            insert_secs * 1e3
        );
        println!(
            "wal_replay             {} bytes / {records} records: decode {replay_mb_per_s:.0} MB/s, \
             full recovery {recovery_ms:.1} ms, accounting balanced: {balanced}",
            wal_bytes.len()
        );
        (
            format!(
                "  \"mutate_throughput\": {{\"dim\": {IVF_D}, \"batch\": {MUT_BATCH}, \
                 \"batches\": {MUT_BATCHES}, \"records\": {records}, \"fsyncs\": {MUT_BATCHES}, \
                 \"inserts_per_sec\": {inserts_per_sec:.1}}},\n"
            ),
            format!(
                "  \"wal_replay\": {{\"records\": {records}, \"bytes\": {}, \
                 \"replay_mb_per_s\": {replay_mb_per_s:.1}, \"recovery_ms\": {recovery_ms:.3}, \
                 \"recovered_records\": {}, \"recovery_balanced\": {balanced}}},\n",
                wal_bytes.len(),
                report.replayed,
            ),
        )
    };

    // End-to-end threaded boost epoch: same data, graph and seed, so the
    // sequential and threaded runs do bit-identical work — only wall-clock
    // may differ.  `iter_time` isolates the epochs from init.
    // Threaded two-means-tree initialisation on the same dataset shape: the
    // init is the sequential fraction the epochs cannot touch, so its own
    // speedup decides how far the whole fit can scale (Amdahl).
    let threaded_init_json = if skip_epoch {
        String::new()
    } else {
        let data = epoch_dataset();
        let time_partition = |threads: usize| -> f64 {
            let mut best = f64::INFINITY;
            for _ in 0..2 {
                let start = Instant::now();
                let labels = TwoMeansTree::new(11)
                    .threads(threads)
                    .partition(&data, EPOCH_K);
                best = best.min(start.elapsed().as_secs_f64());
                std::hint::black_box(labels);
            }
            best
        };
        let seq_secs = time_partition(1);
        let thr_secs = time_partition(epoch_threads);
        let speedup = seq_secs / thr_secs;
        println!(
            "threaded_init          two-means n={EPOCH_N} d={EPOCH_D} k={EPOCH_K}: \
             seq {:.1} ms, {} threads {:.1} ms ({speedup:.2}x)",
            seq_secs * 1e3,
            epoch_threads,
            thr_secs * 1e3
        );
        format!(
            "  \"threaded_init\": {{\"algo\": \"two_means_tree\", \"n\": {EPOCH_N}, \"dim\": {EPOCH_D}, \
             \"k\": {EPOCH_K}, \"threads\": {epoch_threads}, \"seq_ms\": {:.3}, \
             \"threaded_ms\": {:.3}, \"speedup\": {speedup:.3}}},\n",
            seq_secs * 1e3,
            thr_secs * 1e3
        )
    };

    let threaded_epoch_json = if skip_epoch {
        String::new()
    } else {
        let data = epoch_dataset();
        let graph = random_graph(&data, EPOCH_KAPPA, 7);
        let base = GkParams::default()
            .kappa(EPOCH_KAPPA)
            .iterations(EPOCH_ITERS)
            .seed(11)
            .record_trace(false);
        let time_fit = |threads: usize| -> f64 {
            let mut best = f64::INFINITY;
            for _ in 0..2 {
                let result = GkMeans::new(base.threads(threads)).fit(&data, EPOCH_K, &graph);
                best = best.min(result.iter_time.as_secs_f64());
            }
            best
        };
        let seq_secs = time_fit(1);
        let thr_secs = time_fit(epoch_threads);
        let speedup = seq_secs / thr_secs;
        println!(
            "threaded_epoch         gk-boost n={EPOCH_N} d={EPOCH_D} k={EPOCH_K} kappa={EPOCH_KAPPA}: \
             seq {:.1} ms, {} threads {:.1} ms ({speedup:.2}x)",
            seq_secs * 1e3,
            epoch_threads,
            thr_secs * 1e3
        );
        format!(
            "  \"threaded_epoch\": {{\"algo\": \"gk_boost\", \"n\": {EPOCH_N}, \"dim\": {EPOCH_D}, \
             \"k\": {EPOCH_K}, \"kappa\": {EPOCH_KAPPA}, \"iterations\": {EPOCH_ITERS}, \
             \"threads\": {epoch_threads}, \"seq_epochs_ms\": {:.3}, \"threaded_epochs_ms\": {:.3}, \
             \"speedup\": {speedup:.3}}},\n",
            seq_secs * 1e3,
            thr_secs * 1e3
        )
    };

    let mut json = String::from("{\n");
    json.push_str(&format!("  \"dispatch\": \"{dispatch}\",\n"));
    json.push_str(&format!("  \"rows_per_batch\": {rows},\n"));
    json.push_str(&format!("  \"assign_queries\": {ASSIGN_QUERIES},\n"));
    json.push_str(&format!("  \"epoch_values_per_call\": {EPOCH_VALUES},\n"));
    json.push_str("  \"unit\": \"ns_per_distance_eval\",\n");
    json.push_str(&executor_round_json);
    json.push_str(&ivf_search_json);
    json.push_str(&ivf_search_sq8_json);
    json.push_str(&serve_latency_json);
    json.push_str(&obs_overhead_json);
    json.push_str(&gksc_load_json);
    json.push_str(&mutate_throughput_json);
    json.push_str(&wal_replay_json);
    json.push_str(&threaded_init_json);
    json.push_str(&threaded_epoch_json);
    json.push_str("  \"cases\": [\n");
    for (i, case) in cases.iter().enumerate() {
        let vs_scalar = cases
            .iter()
            .find(|c| c.name == "scalar_pair" && c.dim == case.dim)
            .map(|base| base.ns_per_op / case.ns_per_op)
            .unwrap_or(1.0);
        let vs_batched_loop = case.k.and_then(|k| {
            if case.name == "assign_two_pass" || case.name == "assign_accumulate" {
                return None;
            }
            cases
                .iter()
                .find(|c| c.name == "batched_loop" && c.dim == case.dim && c.k == Some(k))
                .map(|base| base.ns_per_op / case.ns_per_op)
        });
        let vs_two_pass = case.k.and_then(|k| {
            if case.name != "assign_accumulate" {
                return None;
            }
            cases
                .iter()
                .find(|c| c.name == "assign_two_pass" && c.dim == case.dim && c.k == Some(k))
                .map(|base| base.ns_per_op / case.ns_per_op)
        });
        let k_field = case.k.map(|k| format!("\"k\": {k}, ")).unwrap_or_default();
        let loop_field = vs_batched_loop
            .map(|s| format!(", \"speedup_vs_batched_loop\": {s:.3}"))
            .unwrap_or_default();
        let two_pass_field = vs_two_pass
            .map(|s| format!(", \"speedup_vs_two_pass\": {s:.3}"))
            .unwrap_or_default();
        json.push_str(&format!(
            "    {{\"kernel\": \"{}\", \"dim\": {}, {}\"ns_per_op\": {:.3}, \"speedup_vs_scalar_pair\": {:.3}{}{}}}{}\n",
            case.name,
            case.dim,
            k_field,
            case.ns_per_op,
            vs_scalar,
            loop_field,
            two_pass_field,
            if i + 1 == cases.len() { "" } else { "," }
        ));
        let shape = case
            .k
            .map(|k| format!("k={k:<5}"))
            .unwrap_or_else(|| "       ".to_string());
        let vs_loop = vs_batched_loop
            .map(|s| format!("   {s:>6.2}x vs batched loop"))
            .unwrap_or_default();
        let vs_2p = vs_two_pass
            .map(|s| format!("   {s:>6.2}x vs two-pass"))
            .unwrap_or_default();
        println!(
            "{:<22} d={:<4} {shape} {:>10.2} ns/op   {:>6.2}x vs scalar pair{vs_loop}{vs_2p}",
            case.name, case.dim, case.ns_per_op, vs_scalar
        );
    }
    json.push_str("  ]\n}\n");

    std::fs::write(&out_path, json).expect("write benchmark json");
    println!("wrote {out_path}");
}
