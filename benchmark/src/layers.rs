//! The traced run: the workload's journey again, with a span around every
//! call into a layer, traced requests, load rungs, and a fixed suite of layer
//! probes called from outside.  Every workload reports every per-layer
//! metric: what its own traffic does not exercise (the GK-means pipeline on
//! a Lloyd-trained workload, the journal on a read-only one) is measured by
//! a probe on the workload's own data, so a layer's number never goes missing
//! when a later change moves work into it.

use std::path::Path;
use std::time::{Duration, Instant};

use crate::adapter::{
    self, Clustered, Conn, GkLayers, Index, SearchCost, Served, Stages, Store, Vectors,
};
use crate::gen::DIM;
use crate::loadgen::{closed_loop, open_loop, Hit, Phase, QueryPool, Sample, Searcher};
use crate::stats::{median, percentile};
use crate::trace::Tracer;
use crate::truth;
use crate::workloads::{
    crash_image, gk_spec, paced_writer, plain, serve_all, traced, Inputs, Opts, Outcome, Spec,
    Stage, TempDir, CONNECTIONS, NPROBE, R, WRITE_BATCH,
};

/// Open-loop rates tried in turn, requests per second.
const RUNGS: [f64; 5] = [250.0, 500.0, 1000.0, 2000.0, 4000.0];
/// A rung passes when its p99 from due is within this many milliseconds …
const LATENCY_LIMIT_MS: f64 = 10.0;
/// … and the generator's lateness grew by no more than this over the rung.
const BACKLOG_LIMIT_MS: f64 = 5.0;
/// Samples whose true nearest neighbour is looked up in the built graph.
const GRAPH_RECALL_SAMPLES: usize = 256;
/// Batches the direct store probe inserts before and after its compaction.
const STORE_PROBE_BATCHES: usize = 64;
const STORE_PROBE_TAIL_BATCHES: usize = 16;
/// Crash images recovered; `ivf.store.open_ms` is the median.
const RECOVERIES: usize = 5;
/// Rows of a closed-loop insert request in the served write probe.
const INSERT_BLOCK: usize = 64;
/// Insert-pool rows the write probes may consume beyond the paced writer's.
pub const WRITE_PROBE_ROWS: usize =
    (STORE_PROBE_BATCHES + STORE_PROBE_TAIL_BATCHES) * WRITE_BATCH + PACED_PROBE_ROWS + 8192;
/// Of those, the rows set aside for the served write probe's paced writer.
const PACED_PROBE_ROWS: usize = 2048;

/// Layer numbers of one GK-means run and of Lloyd and closure k-means on the
/// same rows, same k, same iterations, same seed.
pub struct GkProbe {
    pub n: usize,
    pub layers: GkLayers,
    pub graph_s: f64,
    pub init_s: f64,
    pub iter_s: f64,
    pub epochs: usize,
    pub distance_evals: u64,
    /// Wall-clock of the span around both phases, and the part of it that
    /// neither phase's span covers.
    pub wall_s: f64,
    pub uncovered_s: f64,
    pub gk_distortion: f64,
    pub lloyd_distortion: f64,
    pub closure_distortion: f64,
    pub lloyd_iter_s: f64,
    pub lloyd_evals: u64,
    pub closure_total_s: f64,
    pub closure_evals: u64,
    pub partition_k_s: f64,
    pub partition_k0_s: f64,
    pub kernel_ns: f64,
}

/// Builds the graph and fits GK-means as two separately timed calls, then
/// runs the baselines and the two-means partitions Alg. 3 is made of.
pub fn gk_probe(
    data: &Vectors,
    k: usize,
    iterations: usize,
    seed: u64,
    tracer: &Tracer,
) -> (Clustered, GkProbe) {
    let spec = gk_spec(iterations, seed);
    let n = data.len();
    // true nearest other row of evenly spaced samples
    let step = (n / GRAPH_RECALL_SAMPLES).max(1);
    let sample_ids: Vec<u32> = (0..n as u32)
        .step_by(step)
        .take(GRAPH_RECALL_SAMPLES)
        .collect();
    let sample_rows: Vec<f32> = sample_ids
        .iter()
        .flat_map(|&i| data.row(i as usize).iter().copied())
        .collect();
    let nearest = truth::top_r(
        data.flat(),
        &sample_rows,
        DIM,
        1,
        CONNECTIONS,
        Some(&sample_ids),
    );
    let nn_truth: Vec<(usize, u32, f32)> = sample_ids
        .iter()
        .zip(&nearest)
        .map(|(&i, hits)| (i as usize, hits[0].0, hits[0].1))
        .collect();

    let (((gk, layers), pipeline), wall_s) = tracer.timed("gkmeans.pipeline", None, |id| {
        (
            adapter::cluster_gk_layered(data, k, spec, &nn_truth, tracer, id),
            id,
        )
    });
    let uncovered_s = pipeline.map_or(0.0, |id| tracer.self_secs(id));
    let (lloyd, _) = tracer.timed("baselines.lloyd.fit", None, |_| {
        adapter::cluster_lloyd(data, k, iterations, seed)
    });
    let (closure, _) = tracer.timed("baselines.closure.fit", None, |_| {
        adapter::cluster_closure(data, k, iterations, seed)
    });
    let k0 = adapter::construction_clusters(n, spec);
    let (partition_k_s, _) = tracer.timed("gkmeans.two_means.partition_k", None, |_| {
        adapter::two_means_partition_s(data, k, seed)
    });
    let (partition_k0_s, _) = tracer.timed("gkmeans.two_means.partition_k0", None, |_| {
        adapter::two_means_partition_s(data, k0, seed)
    });
    let d = |c: &Clustered| truth::distortion(data.flat(), DIM, &c.labels, k).0;
    let probe = GkProbe {
        n,
        graph_s: gk.graph_s,
        init_s: gk.init_s,
        iter_s: gk.iter_s,
        epochs: gk.iterations,
        distance_evals: gk.distance_evals,
        wall_s,
        uncovered_s,
        gk_distortion: d(&gk),
        lloyd_distortion: d(&lloyd),
        closure_distortion: d(&closure),
        lloyd_iter_s: lloyd.iter_s,
        lloyd_evals: lloyd.distance_evals,
        closure_total_s: closure.total_s(),
        closure_evals: closure.distance_evals,
        partition_k_s,
        partition_k0_s,
        kernel_ns: adapter::l2_one_to_many_ns(data),
        layers,
    };
    (gk, probe)
}

fn gk_metrics(p: &GkProbe, out: &mut Outcome) {
    let l = &p.layers;
    let rounds = l.round_s.len() as u64;
    let total_s = p.graph_s + p.init_s + p.iter_s;
    let all_evals = l.refine_evals + l.clustering_evals + p.distance_evals;
    let n = p.n as u64;
    out.metric("gkmeans.two_means.partition_k_s", p.partition_k_s, 1);
    out.metric("gkmeans.two_means.partition_k0_s", p.partition_k0_s, 1);
    out.metric("gkmeans.construct.build_s", l.build_s, 1);
    out.metric("gkmeans.construct.round_s", median(&l.round_s), rounds);
    out.metric(
        "gkmeans.construct.refine_evals",
        l.refine_evals as f64,
        rounds,
    );
    out.metric(
        "gkmeans.construct.clustering_evals",
        l.clustering_evals as f64,
        rounds,
    );
    out.metric(
        "gkmeans.construct.graph_updates",
        l.graph_updates as f64,
        rounds,
    );
    out.metric(
        "gkmeans.construct.update_yield",
        l.graph_updates as f64 / l.refine_evals.max(1) as f64,
        l.refine_evals,
    );
    out.metric("gkmeans.gk.init_s", p.init_s, 1);
    out.metric("gkmeans.gk.iter_s", p.iter_s, 1);
    out.metric("gkmeans.gk.epochs", p.epochs as f64, 1);
    out.metric("gkmeans.gk.distance_evals", p.distance_evals as f64, 1);
    out.metric(
        "gkmeans.gk.distortion_vs_lloyd",
        p.gk_distortion / p.lloyd_distortion,
        n,
    );
    out.metric(
        "gkmeans.epoch.s_per_epoch",
        p.iter_s / p.epochs.max(1) as f64,
        p.epochs as u64,
    );
    out.metric(
        "gkmeans.epoch.evals_per_sample_epoch",
        p.distance_evals as f64 / (p.n * p.epochs.max(1)) as f64,
        n,
    );
    out.metric(
        "gkmeans.kernel_share",
        all_evals as f64 * p.kernel_ns / 1e9 / total_s,
        all_evals,
    );
    out.metric("gkmeans.span_coverage", 1.0 - p.uncovered_s / p.wall_s, 2);
    out.metric(
        "knn-graph.recall_at_1",
        l.graph_recall_at_1,
        GRAPH_RECALL_SAMPLES as u64,
    );
    out.metric("baselines.lloyd.iter_s", p.lloyd_iter_s, 1);
    out.metric("baselines.lloyd.distance_evals", p.lloyd_evals as f64, 1);
    out.metric("baselines.closure.total_s", p.closure_total_s, 1);
    out.metric(
        "baselines.closure.distance_evals",
        p.closure_evals as f64,
        1,
    );
    out.metric(
        "baselines.closure.distortion_ratio",
        p.closure_distortion / p.lloyd_distortion,
        n,
    );
    out.metric("vecstore.kernels.l2_ns_per_eval", p.kernel_ns, n);
}

/// Direct batch searches over every query in blocks of `block`: wall-clock
/// microseconds per query and the summed stage costs.
fn direct_search(index: &Index, queries: &[f32], block: usize, sq8: bool) -> (f64, SearchCost) {
    let mut cost = SearchCost::default();
    let start = Instant::now();
    for chunk in queries.chunks(block * DIM) {
        let (hits, c) = index.search(chunk, DIM, R, NPROBE, sq8);
        std::hint::black_box(hits);
        cost.evals += c.evals;
        cost.panel_bytes += c.panel_bytes;
        cost.route_ns += c.route_ns;
        cost.scan_ns += c.scan_ns;
        cost.rerank_ns += c.rerank_ns;
    }
    let n = (queries.len() / DIM) as f64;
    (start.elapsed().as_secs_f64() * 1e6 / n, cost)
}

/// Returns µs per query of the tier and request size the workload serves.
fn ivf_search_metrics(index: &Index, queries: &[f32], spec: &Spec, out: &mut Outcome) -> f64 {
    let n = (queries.len() / DIM) as u64;
    let per = n as f64;
    let mut served_us = 0.0;
    for (tier, sq8) in [("f32", false), ("sq8", true)] {
        let (b4, _) = direct_search(index, queries, 4, sq8);
        let (b64, cost) = direct_search(index, queries, 64, sq8);
        if sq8 == spec.sq8 {
            served_us = if spec.per_request >= 64 { b64 } else { b4 };
        }
        out.metric(&format!("ivf.search.b4_us_per_query.{tier}"), b4, n);
        out.metric(&format!("ivf.search.b64_us_per_query.{tier}"), b64, n);
        out.metric(
            &format!("ivf.search.route_us_per_query.{tier}"),
            cost.route_ns as f64 / 1e3 / per,
            n,
        );
        out.metric(
            &format!("ivf.search.scan_us_per_query.{tier}"),
            cost.scan_ns as f64 / 1e3 / per,
            n,
        );
        if sq8 {
            out.metric(
                "ivf.search.rerank_us_per_query.sq8",
                cost.rerank_ns as f64 / 1e3 / per,
                n,
            );
        }
        out.metric(
            &format!("ivf.search.panel_bytes_per_query.{tier}"),
            cost.panel_bytes as f64 / per,
            n,
        );
        out.metric(
            &format!("ivf.search.evals_per_query.{tier}"),
            cost.evals as f64 / per,
            n,
        );
    }
    served_us
}

/// A connection that only pings: the load generator against the socket and
/// the server's reader/writer hand-off, with no batcher and no search.
struct Pinger<'a>(&'a mut Conn);

impl Searcher for Pinger<'_> {
    fn search(&mut self, queries: &[f32]) -> Result<Vec<Vec<Hit>>, String> {
        self.0.ping()?;
        Ok(vec![vec![(0, 0.0); R]; queries.len() / DIM])
    }
}

/// Mean lateness of the last third of a rung minus that of the first third.
fn backlog_growth_ms(phase: &Phase) -> f64 {
    let mut by_due: Vec<&Sample> = phase.samples.iter().collect();
    by_due.sort_by(|a, b| a.due_s.total_cmp(&b.due_s));
    let third = (by_due.len() / 3).max(1);
    let mean = |s: &[&Sample]| s.iter().map(|x| x.late_ms()).sum::<f64>() / s.len().max(1) as f64;
    mean(&by_due[by_due.len() - third..]) - mean(&by_due[..third])
}

struct Rungs {
    max_rate: f64,
    /// Generator lateness p99 at the highest rung passed (at the first rung
    /// when none passed): beyond it, lateness is the system's backlog.
    late_p99_ms: f64,
    requests: u64,
}

fn climb_rungs(
    conns: &mut [Conn],
    pool: &QueryPool<'_>,
    per_rung: Duration,
    out: &mut Outcome,
) -> Rungs {
    let mut rungs = Rungs {
        max_rate: 0.0,
        late_p99_ms: 0.0,
        requests: 0,
    };
    for rate in RUNGS {
        let phase = open_loop(&mut plain(conns, NPROBE), pool, R, rate, per_rung);
        let from_due: Vec<f64> = phase
            .samples
            .iter()
            .map(|s| s.latency_from_due_ms())
            .collect();
        let late: Vec<f64> = phase.samples.iter().map(|s| s.late_ms()).collect();
        let p99 = percentile(&from_due, 0.99);
        let growth = backlog_growth_ms(&phase);
        let pass = p99 <= LATENCY_LIMIT_MS && phase.failed() == 0 && growth <= BACKLOG_LIMIT_MS;
        if pass || rungs.requests == 0 {
            rungs.late_p99_ms = percentile(&late, 0.99);
        }
        rungs.requests += phase.attempted();
        // a rung that misses its limit is a finding, not a failed operation
        out.ops(&format!("rung-{rate}"), phase.attempted(), phase.failed());
        out.notes.push(format!(
            "rung {rate} req/s: p99 from due {p99:.3} ms, lateness growth {growth:.3} ms, {}",
            if pass { "pass" } else { "fail" }
        ));
        if !pass {
            break;
        }
        rungs.max_rate = rate;
    }
    rungs
}

/// The journal, compaction and recovery, driven directly on a scratch store
/// over the workload's own index.
fn store_probe(dir: &Path, index: Index, rows: &[f32], out: &mut Outcome) -> Result<(), String> {
    std::fs::create_dir_all(dir).map_err(|e| e.to_string())?;
    let checkpoint = dir.join("store.ivf");
    let mut store = Store::create(&checkpoint, index);
    let batch = WRITE_BATCH * DIM;
    let mut insert_us = Vec::new();
    let mut ids = Vec::new();
    for b in 0..STORE_PROBE_BATCHES {
        let t = Instant::now();
        ids.extend(store.insert_batch(&rows[b * batch..(b + 1) * batch], DIM));
        insert_us.push(t.elapsed().as_nanos() as f64 / 1e3);
    }
    let (fsync_us, fsyncs) = store.hist_p50_us("wal_fsync_nanos");
    let (append_us, appends) = store.hist_p50_us("wal_append_nanos");
    let wal_bytes = std::fs::metadata(adapter::wal_path(&checkpoint))
        .map_err(|e| e.to_string())?
        .len();
    let user_bytes = (STORE_PROBE_BATCHES * batch * 4) as f64;
    store.delete_batch(&ids[..ids.len() / 4]);
    let shape = store.shape();
    let t = Instant::now();
    store.compact();
    let compact_s = t.elapsed().as_secs_f64();
    for b in STORE_PROBE_BATCHES..STORE_PROBE_BATCHES + STORE_PROBE_TAIL_BATCHES {
        store.insert_batch(&rows[b * batch..(b + 1) * batch], DIM);
    }
    let live = store.shape().live;
    let mut open_ms = Vec::new();
    let mut replayed = 0;
    for i in 0..RECOVERIES {
        let copy = crash_image(&checkpoint, dir, i).map_err(|e| e.to_string())?;
        let (recovered, report, secs) = Store::open(&copy);
        open_ms.push(secs * 1e3);
        replayed = report.replayed;
        out.check(recovered.shape().live == live, || {
            format!(
                "recovered {} live rows, the store had {live}",
                recovered.shape().live
            )
        });
    }
    out.metric(
        "ivf.store.insert_batch16_us",
        median(&insert_us),
        insert_us.len() as u64,
    );
    out.metric("vecstore.wal.fsync_p50_us", fsync_us, fsyncs);
    out.metric("vecstore.wal.append_p50_us", append_us, appends);
    out.metric(
        "vecstore.wal.bytes_per_user_byte",
        wal_bytes as f64 / user_bytes,
        appends,
    );
    out.metric("ivf.store.compact_s", compact_s, 1);
    out.metric(
        "ivf.store.append_rows_at_compaction",
        shape.append_rows as f64,
        1,
    );
    out.metric(
        "ivf.store.tombstones_at_compaction",
        shape.tombstones as f64,
        1,
    );
    out.metric("ivf.store.open_ms", median(&open_ms), RECOVERIES as u64);
    out.metric(
        "ivf.store.replayed_records",
        replayed as f64,
        RECOVERIES as u64,
    );
    Ok(())
}

/// Writes through a server: a paced writer beside a closed-loop searcher
/// with one compaction in the middle, then a closed loop of 64-row inserts.
fn served_write_probe(
    dir: &Path,
    index: Index,
    spec: &Spec,
    inputs: &Inputs,
    rows: &[f32],
    seconds: f64,
    out: &mut Outcome,
) -> Result<(), String> {
    std::fs::create_dir_all(dir).map_err(|e| e.to_string())?;
    let served = Served::over_store(&dir.join("store.ivf"), index, spec.sq8);
    let mut searcher = Conn::connect(served.addr(), DIM)?;
    let mut writer = Conn::connect(served.addr(), DIM)?;
    // the paced writer may use the first PACED_PROBE_ROWS rows: at most 2.5 s
    let paced_for = Duration::from_secs_f64((seconds * 0.2).clamp(0.4, 2.5));
    let pool = QueryPool {
        flat: &inputs.queries,
        dim: DIM,
        per_request: 4,
    };
    let (searches, log) = std::thread::scope(|scope| {
        let w = scope.spawn(|| paced_writer(&mut writer, rows, 0, paced_for, Some(paced_for / 2)));
        let searches = closed_loop(
            &mut plain(std::slice::from_mut(&mut searcher), NPROBE),
            &pool,
            R,
            paced_for,
        );
        (searches, w.join().expect("writer thread panicked"))
    });
    out.ops(
        "write-probe searches",
        searches.attempted(),
        searches.failed(),
    );
    out.ops("write-probe writer", log.attempted, log.failed);
    // searches answered from half a second before the compaction to half a
    // second after it: the stall a median hides
    let around: Vec<f64> = match log.compaction {
        Some((began, ended)) => searches
            .samples
            .iter()
            .filter(|s| s.done_s >= began - 0.5 && s.sent_s <= ended + 0.5)
            .map(Sample::latency_ms)
            .collect(),
        None => Vec::new(),
    };
    out.check(log.compaction.is_some(), || {
        "the probe's compaction did not complete".into()
    });

    let first = PACED_PROBE_ROWS;
    let closed_for = Duration::from_secs_f64((seconds * 0.1).max(0.2));
    let block = INSERT_BLOCK * DIM;
    let (mut acked, mut attempted, mut failed) = (0usize, 0u64, 0u64);
    let start = Instant::now();
    for chunk in rows[first * DIM..].chunks_exact(block) {
        if start.elapsed() >= closed_for {
            break;
        }
        attempted += 1;
        match writer.insert(chunk) {
            Ok(ids) => acked += ids.len(),
            Err(_) => failed += 1,
        }
    }
    let wall = start.elapsed().as_secs_f64();
    out.ops("write-probe inserts", attempted, failed);
    let live = served.store_shape().map_or(0, |s| s.live);
    let expected = spec.n + log.live.iter().map(|c| c.1.len()).sum::<usize>() + acked;
    out.check(live == expected, || {
        format!("live count {live}, expected {expected}")
    });
    drop((searcher, writer));
    served.shutdown();

    out.metric(
        "serve.write.ack_p50_ms",
        percentile(&log.insert_ack_ms, 0.5),
        log.insert_ack_ms.len() as u64,
    );
    out.metric("serve.write.rows_per_s", acked as f64 / wall, attempted);
    out.metric(
        "serve.search_p99_compaction_ms",
        percentile(&around, 0.99),
        around.len() as u64,
    );
    Ok(())
}

fn p50_us(stages: &[Stages], pick: impl Fn(&Stages) -> u64) -> f64 {
    let v: Vec<f64> = stages.iter().map(|s| pick(s) as f64 / 1e3).collect();
    percentile(&v, 0.5)
}

/// The traced run of one workload, from a warm server on.
#[allow(clippy::too_many_arguments)]
pub fn run(
    spec: &Spec,
    opts: &Opts,
    tracer: &Tracer,
    tmp: &TempDir,
    inputs: &Inputs,
    truth: &[Vec<Hit>],
    gk: Option<GkProbe>,
    mut stage: Stage,
    out: &mut Outcome,
) -> Result<(), String> {
    // ---- GK-means layers: the workload's own training, or a probe on a prefix
    let gk = gk.unwrap_or_else(|| {
        let rows = spec.gk_probe_rows.min(spec.n);
        gk_probe(&inputs.base.prefix(rows), rows / 16, 10, opts.seed, tracer).1
    });
    gk_metrics(&gk, out);

    // ---- index build and I/O, from the spans around set-up
    let t = stage.times;
    out.metric("ivf.index.build_s", t.build_s, 1);
    out.metric("ivf.io.save_s", t.save_s, 1);
    out.metric("ivf.io.load_s", t.load_s, 1);
    out.metric("ivf.io.file_bytes", t.file_bytes as f64, 1);
    out.metric(
        "ivf.io.bytes_per_user_byte",
        t.file_bytes as f64 / (spec.n * DIM * 4) as f64,
        1,
    );
    let mut probe_index = Index::load(&stage.pristine);
    let quantize_s = if spec.sq8 {
        t.quantize_s
    } else {
        tracer
            .timed("ivf.index.quantize", None, |_| probe_index.quantize())
            .1
    };
    out.metric("ivf.index.quantize_s", quantize_s, 1);

    // ---- served traffic: untraced, then traced; the writer beside both
    let pool = QueryPool {
        flat: &inputs.queries,
        dim: DIM,
        per_request: spec.per_request,
    };
    let each = Duration::from_secs_f64(opts.seconds * 0.25);
    let searchers = if spec.mutable { 1 } else { CONNECTIONS };
    let (search_conns, write_conns) = stage.conns.split_at_mut(searchers);
    let (untraced, traced_phase, stages, writer) = std::thread::scope(|scope| {
        let writer = write_conns.first_mut().map(|conn| {
            let rows = &inputs.inserts;
            scope.spawn(move || paced_writer(conn, rows, 0, each * 2, Some(each)))
        });
        let untraced = closed_loop(&mut plain(search_conns, NPROBE), &pool, R, each);
        let mut tracing = traced(search_conns);
        let traced_phase = closed_loop(&mut tracing, &pool, R, each);
        let stages: Vec<Stages> = tracing.into_iter().flat_map(|t| t.stages).collect();
        let writer = writer.map(|w| w.join().expect("writer thread panicked"));
        (untraced, traced_phase, stages, writer)
    });
    out.ops("closed-loop", untraced.attempted(), untraced.failed());
    out.ops(
        "closed-loop traced",
        traced_phase.attempted(),
        traced_phase.failed(),
    );
    if let Some(log) = &writer {
        out.ops("writer", log.attempted, log.failed);
    }
    for s in &traced_phase.samples {
        let at = |secs: f64| traced_phase.started + Duration::from_secs_f64(secs);
        tracer.record("serve.request", None, at(s.sent_s), at(s.done_s));
    }
    let p50 = |phase: &Phase| {
        let v: Vec<f64> = phase.samples.iter().map(Sample::latency_ms).collect();
        percentile(&v, 0.5)
    };
    let search_p50_ms = p50(&untraced);
    let n_traced = stages.len() as u64;
    out.metric(
        "serve.trace.queue_p50_us",
        p50_us(&stages, |s| s.queue_ns),
        n_traced,
    );
    out.metric(
        "serve.trace.route_p50_us",
        p50_us(&stages, |s| s.route_ns),
        n_traced,
    );
    out.metric(
        "serve.trace.scan_p50_us",
        p50_us(&stages, |s| s.scan_ns),
        n_traced,
    );
    out.metric(
        "serve.trace.total_p50_us",
        p50_us(&stages, |s| s.total_ns),
        n_traced,
    );
    out.metric(
        "bench.trace_overhead",
        p50(&traced_phase) / search_p50_ms,
        n_traced,
    );

    // ---- what the batcher saw under this traffic
    let counts = stage.served.counts();
    let (batch_queries, batches) = stage.served.hist_sum("batcher_batch_size");
    let (queue_wait_us, waits) = stage.served.hist_p50_us("batcher_queue_wait_nanos");
    out.metric(
        "serve.batcher.mean_batch_queries",
        batch_queries as f64 / batches.max(1) as f64,
        batches,
    );
    out.metric("serve.batcher.batches", counts.batches as f64, 1);
    out.metric("serve.batcher.shed", counts.shed as f64, 1);
    out.metric(
        "serve.batcher.deadline_expired",
        counts.deadline_expired as f64,
        1,
    );
    out.metric("serve.batcher.queue_wait_p50_us", queue_wait_us, waits);

    // ---- the generator alone, then the rungs
    let ceiling_for = Duration::from_secs_f64((opts.seconds * 0.05).max(0.1));
    let pings = {
        let mut pingers: Vec<Pinger<'_>> = stage.conns.iter_mut().map(Pinger).collect();
        closed_loop(&mut pingers, &pool, R, ceiling_for)
    };
    out.ops("ping", pings.attempted(), pings.failed());
    let ceiling_rps = pings.attempted() as f64 / pings.wall_s;
    let ping_rtt_us = p50(&pings) * 1e3;
    let per_rung = Duration::from_secs_f64(opts.seconds * 0.12);
    let rungs = climb_rungs(&mut stage.conns[..searchers], &pool, per_rung, out);
    out.metric("loadgen.ceiling_rps", ceiling_rps, pings.attempted());
    out.metric("loadgen.late_p99_ms", rungs.late_p99_ms, rungs.requests);
    out.metric("loadgen.max_rate_rps", rungs.max_rate, rungs.requests);
    out.check(opts.smoke || ceiling_rps >= 4.0 * rungs.max_rate, || {
        format!(
            "the load generator alone reaches {ceiling_rps:.0} req/s, under 4 x the top rung \
             passed ({}): the rungs measure the generator, not the server",
            rungs.max_rate
        )
    });
    out.metric("serve.server.ping_rtt_us", ping_rtt_us, pings.attempted());

    // ---- answers are right (also gives the codec probe a real response)
    let (served, requests, failed) = serve_all(&mut stage.conns[0], &inputs.queries, NPROBE);
    out.ops("recall", requests, failed);
    let counts = stage.served.counts();
    out.check(
        counts.shed + counts.deadline_expired + counts.internal_errors + counts.protocol_errors
            == 0,
        || format!("server reported failures: {counts:?}"),
    );
    if writer.is_none() {
        let recall = truth::recall(&served, truth, R);
        out.check(recall > 0.5, || format!("recall@{R} is {recall:.3}"));
    }
    let pristine = stage.pristine.clone();
    stage.teardown();

    // ---- layer probes, called from outside
    let served_us_per_query = ivf_search_metrics(&probe_index, &inputs.queries, spec, out);
    let request = &inputs.queries[..spec.per_request * DIM];
    let (encode_us, decode_us) =
        adapter::protocol_codec_us(request, DIM, R, NPROBE, &served[..spec.per_request], 200);
    out.metric("serve.protocol.encode_request_us", encode_us, 200);
    out.metric("serve.protocol.decode_response_us", decode_us, 200);
    let reps = if opts.smoke { 10 } else { 100 };
    let small_us = adapter::batcher_noop_roundtrip_us(4, DIM, R, reps);
    let full_us = adapter::batcher_noop_roundtrip_us(64, DIM, R, reps);
    out.metric("serve.batcher.noop_roundtrip_us", small_us, reps as u64);
    out.metric(
        "serve.batcher.full_batch_roundtrip_us",
        full_us,
        reps as u64,
    );
    let batcher_us = if spec.per_request >= 64 {
        full_us
    } else {
        small_us
    };
    let explained_us = ping_rtt_us
        + batcher_us
        + served_us_per_query * spec.per_request as f64
        + encode_us
        + decode_us;
    out.metric(
        "serve.unexplained_share",
        1.0 - explained_us / (search_p50_ms * 1e3),
        untraced.attempted(),
    );

    let paced_rows = inputs.inserts.len() / DIM - WRITE_PROBE_ROWS;
    let probe_rows = &inputs.inserts[paced_rows * DIM..];
    let store_rows = (STORE_PROBE_BATCHES + STORE_PROBE_TAIL_BATCHES) * WRITE_BATCH;
    store_probe(
        &tmp.path().join("store-probe"),
        probe_index,
        probe_rows,
        out,
    )?;
    served_write_probe(
        &tmp.path().join("write-probe"),
        Index::load(&pristine),
        spec,
        inputs,
        &probe_rows[store_rows * DIM..],
        opts.seconds,
        out,
    )
}
