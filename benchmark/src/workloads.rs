//! The four workloads: what each runs, in which order, and what it checks.
//!
//! Every workload is the same journey at different weights — vectors →
//! clustering → IVF index → served queries — so every workload can report
//! every end-to-end metric.  The untraced run measures those; the traced run
//! ([`crate::layers`]) repeats the journey with spans and layer probes.

use std::collections::VecDeque;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::{Duration, Instant};

use crate::adapter::{self, Clustered, Conn, GkSpec, Index, Served, Stages, Store, Vectors};
use crate::gen::{self, Mixture, DIM};
use crate::layers;
use crate::loadgen::{closed_loop, open_loop, Hit, QueryPool, Sample, Searcher};
use crate::stats::{median, midmean, percentile};
use crate::trace::{SpanId, Tracer};
use crate::truth;

/// Neighbours asked for per query.
pub const R: usize = 10;
/// Lists probed per query.
pub const NPROBE: usize = 8;
/// Load-generator threads and connections (`nproc` is 2).
pub const CONNECTIONS: usize = 2;
/// Queries of one recall request (the protocol's cap).
pub const RECALL_BLOCK: usize = 64;
/// Times the whole set-up runs in one untraced run; `setup_s` is the median.
const SETUP_REPS: usize = 3;
/// Share of `--seconds` spent in the closed loop; the open loop gets the rest.
const CLOSED_SHARE: f64 = 0.6;
/// Most equal intervals a phase is cut into for its median and throughput,
/// and for its tail percentile.
const INTERVALS: usize = 10;
const TAIL_INTERVALS: usize = 5;
/// Samples an interval needs: a few hundred for a median, and for a p99
/// (p95) enough that about ten lie beyond it.
const P50_INTERVAL: usize = 200;
const P99_INTERVAL: usize = 1000;
const P95_INTERVAL: usize = 200;
/// Rows per insert and ids per delete of the paced writer.
pub const WRITE_BATCH: usize = 16;
/// The paced writer sends one operation every 10 ms (100 ops/s).
pub const WRITE_PERIOD: Duration = Duration::from_millis(10);
/// Queries compared id-for-id with brute force at `nprobe = nlist`.
const EXACT_QUERIES: usize = 64;
/// Acked inserts searched for as distance-0 self-hits after recovery.
const SELF_HIT_SAMPLES: usize = 64;

pub const WORKLOADS: [&str; 4] = ["cluster-highk", "serve-small", "serve-batch", "serve-mixed"];

/// How the index's coarse quantizer is trained.
#[derive(Clone, Copy, Debug)]
pub enum Trainer {
    /// The paper's two-phase pipeline (`gkm-cli … --method gk`).
    Gk,
    /// Lloyd's k-means (`gkm-cli index build`'s default method).
    Lloyd,
}

#[derive(Clone, Debug)]
pub struct Spec {
    pub name: &'static str,
    /// Base vectors.
    pub n: usize,
    /// Clusters = inverted lists.
    pub k: usize,
    pub trainer: Trainer,
    pub iterations: usize,
    /// Row sets the clustering is timed on in an untraced run: the base and
    /// `samples - 1` more of the same size from the same mixture.  Lloyd's
    /// time does not depend on the rows, so one; one GK-means run is not a
    /// steady number (the two-means tree redoes work after every move, and
    /// how many moves there are differs from one sample to the next), so
    /// `cluster_s` is the midmean over many samples.
    pub samples: usize,
    /// Timed runs per sample, spread over the whole benchmark run; a
    /// sample's time is its fastest, because the work of a run is fixed by
    /// its rows and seed and the host only ever adds to it.
    pub runs_per_sample: usize,
    /// Serve from the SQ8 tier.
    pub sq8: bool,
    /// Serve a mutable store and run the paced writer beside the searches.
    pub mutable: bool,
    pub per_request: usize,
    /// Open-loop rate, requests per second.
    pub open_rate: f64,
    /// Fixed query vectors (load and recall share them).
    pub queries: usize,
    /// Rows of the GK-means layer probe in the traced run (the whole base
    /// when the workload trains with GK-means itself).
    pub gk_probe_rows: usize,
}

/// GK-means parameters of every GK run: κ = 20, ξ = 50, τ = 4.
pub fn gk_spec(iterations: usize, seed: u64) -> GkSpec {
    GkSpec {
        kappa: 20,
        xi: 50,
        tau: 4,
        iterations,
        seed,
    }
}

pub fn spec(name: &str, smoke: bool) -> Option<Spec> {
    let serve = |name, per_request, open_rate, sq8, mutable| Spec {
        name,
        n: if smoke { 2048 } else { 32_768 },
        k: if smoke { 32 } else { 512 },
        trainer: Trainer::Lloyd,
        iterations: 5,
        samples: 1,
        runs_per_sample: if smoke { 5 } else { 10 },
        sq8,
        mutable,
        per_request,
        open_rate,
        queries: if smoke { 256 } else { 2048 },
        gk_probe_rows: if smoke { 1024 } else { 4096 },
    };
    Some(match name {
        "cluster-highk" => Spec {
            name: "cluster-highk",
            n: if smoke { 2048 } else { 3072 },
            k: if smoke { 128 } else { 192 },
            trainer: Trainer::Gk,
            iterations: 10,
            samples: if smoke { 2 } else { 20 },
            runs_per_sample: 2,
            sq8: false,
            mutable: false,
            per_request: 4,
            open_rate: 250.0,
            queries: if smoke { 256 } else { 2048 },
            gk_probe_rows: if smoke { 2048 } else { 3072 },
        },
        "serve-small" => serve("serve-small", 4, 500.0, false, false),
        "serve-batch" => serve("serve-batch", 64, 250.0, false, false),
        "serve-mixed" => serve("serve-mixed", 4, 200.0, true, true),
        _ => return None,
    })
}

pub struct Opts {
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
    pub smoke: bool,
    pub trace_out: Option<PathBuf>,
}

/// One reported number: name, value, and how many samples stand behind it.
pub type Metric = (String, f64, u64);

#[derive(Default)]
pub struct Outcome {
    pub metrics: Vec<Metric>,
    pub attempted: u64,
    pub failed: u64,
    /// Failed correctness checks; any entry fails the run.
    pub problems: Vec<String>,
    /// Facts about the run that are not metrics (fingerprints, phase counts).
    pub notes: Vec<String>,
}

impl Outcome {
    pub fn correct(&self) -> bool {
        self.problems.is_empty() && self.failed == 0
    }

    pub fn metric(&mut self, name: &str, value: f64, samples: u64) {
        self.metrics.push((name.to_string(), value, samples));
    }

    pub fn check(&mut self, ok: bool, what: impl FnOnce() -> String) {
        if !ok {
            self.problems.push(what());
        }
    }

    /// Counts the operations of one phase and records the counts.
    pub fn ops(&mut self, phase: &str, attempted: u64, failed: u64) {
        self.attempted += attempted;
        self.failed += failed;
        self.notes.push(format!(
            "phase {phase}: {attempted} attempted, {failed} failed"
        ));
    }
}

/// A fresh directory under the working directory, removed on drop: indexes,
/// journals and crash images of one run live here and nowhere else.
pub struct TempDir(PathBuf);

impl TempDir {
    pub fn new() -> std::io::Result<TempDir> {
        static NEXT: AtomicU64 = AtomicU64::new(0);
        let dir = std::env::current_dir()?.join(".bench_tmp").join(format!(
            "{}-{}",
            std::process::id(),
            NEXT.fetch_add(1, Ordering::Relaxed)
        ));
        std::fs::create_dir_all(&dir)?;
        Ok(TempDir(dir))
    }

    pub fn path(&self) -> &Path {
        &self.0
    }
}

impl Drop for TempDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
        if let Some(parent) = self.0.parent() {
            // succeeds only when no other run is using it
            let _ = std::fs::remove_dir(parent);
        }
    }
}

/// Everything generated from the seed.
pub struct Inputs {
    pub base: Vectors,
    pub queries: Vec<f32>,
    /// Rows the writer inserts (empty for read-only workloads).
    pub inserts: Vec<f32>,
    /// FNV-1a 64 over base and queries (the same in both modes; the insert
    /// pool's length depends on the mode and on `--seconds`).
    pub fingerprint: u64,
}

pub fn generate(spec: &Spec, seed: u64, insert_rows: usize) -> Inputs {
    let mix = Mixture::new(seed);
    let base = mix.sample(seed, gen::STREAM_BASE, spec.n);
    let queries = mix.sample(seed, gen::STREAM_QUERIES, spec.queries);
    let inserts = mix.sample(seed, gen::STREAM_INSERTS, insert_rows);
    let fp = gen::fnv1a_f32(gen::fnv1a_f32(gen::FNV_OFFSET, &base), &queries);
    Inputs {
        base: Vectors::new(base, DIM),
        queries,
        inserts,
        fingerprint: fp,
    }
}

/// Fingerprints of the default seed's inputs at full scale, pinned so a
/// change to the generator cannot pass as a change to the program.
const PINNED_SEED: u64 = 42;
const PINNED: [(&str, u64); 4] = [
    ("cluster-highk", 0x5fe9_f01f_4a00_ea3a),
    ("serve-small", 0xf1bf_39e4_e7eb_edc7),
    ("serve-batch", 0xf1bf_39e4_e7eb_edc7),
    ("serve-mixed", 0xf1bf_39e4_e7eb_edc7),
];

/// Rows the paced writer can consume in `seconds` (plus slack), and the rows
/// the traced run's write probes need.
fn insert_rows(spec: &Spec, opts: &Opts) -> usize {
    let paced = (opts.seconds / WRITE_PERIOD.as_secs_f64() / 2.0).ceil() as usize * WRITE_BATCH;
    match (spec.mutable, opts.trace) {
        (_, true) => paced + layers::WRITE_PROBE_ROWS,
        (true, false) => paced,
        (false, false) => 0,
    }
}

/// Times of the steps between a clustering and a warm server.
#[derive(Clone, Copy, Debug, Default)]
pub struct BringUp {
    pub build_s: f64,
    pub quantize_s: f64,
    pub save_s: f64,
    pub load_s: f64,
    pub file_bytes: u64,
}

/// A warm server with its connections.
pub struct Stage {
    pub served: Served,
    pub conns: Vec<Conn>,
    /// The index as built, saved once and never written again.
    pub pristine: PathBuf,
    /// What the server reads and (when mutable) writes.
    pub checkpoint: PathBuf,
    pub times: BringUp,
}

impl Stage {
    pub fn teardown(self) {
        drop(self.conns);
        self.served.shutdown();
    }
}

/// Clustering → index → (quantize) → save → load → server → connections →
/// warm-up: what `gkm-cli index build` followed by `gkm-cli serve` does.
pub fn bring_up(
    spec: &Spec,
    inputs: &Inputs,
    clustered: &Clustered,
    dir: &Path,
    warm: Duration,
    tracer: &Tracer,
    parent: Option<SpanId>,
) -> Result<Stage, String> {
    let mut times = BringUp::default();
    let (mut index, build_s) = tracer.timed("ivf.index.build", parent, |_| {
        Index::build(&inputs.base, clustered)
    });
    times.build_s = build_s;
    if spec.sq8 {
        times.quantize_s = tracer
            .timed("ivf.index.quantize", parent, |_| index.quantize())
            .1;
    }
    let checkpoint = dir.join("index.ivf");
    times.save_s = tracer
        .timed("ivf.io.save", parent, |_| index.save(&checkpoint))
        .1;
    drop(index);
    times.file_bytes = std::fs::metadata(&checkpoint)
        .map_err(|e| e.to_string())?
        .len();
    let (index, load_s) = tracer.timed("ivf.io.load", parent, |_| Index::load(&checkpoint));
    times.load_s = load_s;
    let ((served, conns), _) = tracer.timed("serve.server.start", parent, |_| {
        let served = if spec.mutable {
            // publishes its own checkpoint + journal pair, as `serve --mutable` does
            Served::over_store(&dir.join("store.ivf"), index, spec.sq8)
        } else {
            Served::over_index(index, spec.sq8)
        };
        let conns: Result<Vec<Conn>, String> = (0..CONNECTIONS)
            .map(|_| Conn::connect(served.addr(), DIM))
            .collect();
        (served, conns)
    });
    let mut conns = conns?;
    let pool = QueryPool {
        flat: &inputs.queries,
        dim: DIM,
        per_request: spec.per_request,
    };
    let (phase, _) = tracer.timed("bench.warm_up", parent, |_| {
        closed_loop(&mut plain(&mut conns, NPROBE), &pool, R, warm)
    });
    if phase.failed() > 0 {
        return Err(format!("{} warm-up requests failed", phase.failed()));
    }
    Ok(Stage {
        served,
        conns,
        checkpoint: if spec.mutable {
            dir.join("store.ivf")
        } else {
            checkpoint.clone()
        },
        pristine: checkpoint,
        times,
    })
}

/// A connection as an untraced [`Searcher`].
pub struct Plain<'a> {
    conn: &'a mut Conn,
    nprobe: usize,
}

impl Searcher for Plain<'_> {
    fn search(&mut self, queries: &[f32]) -> Result<Vec<Vec<Hit>>, String> {
        self.conn.search(queries, R, self.nprobe)
    }
}

pub fn plain(conns: &mut [Conn], nprobe: usize) -> Vec<Plain<'_>> {
    conns
        .iter_mut()
        .map(|conn| Plain { conn, nprobe })
        .collect()
}

/// A connection that asks for stage timings with every request.
pub struct Traced<'a> {
    conn: &'a mut Conn,
    pub stages: Vec<Stages>,
}

impl Searcher for Traced<'_> {
    fn search(&mut self, queries: &[f32]) -> Result<Vec<Vec<Hit>>, String> {
        let (hits, stages) = self.conn.search_traced(queries, R, NPROBE)?;
        self.stages.push(stages);
        Ok(hits)
    }
}

pub fn traced(conns: &mut [Conn]) -> Vec<Traced<'_>> {
    conns
        .iter_mut()
        .map(|conn| Traced {
            conn,
            stages: Vec::new(),
        })
        .collect()
}

/// What the paced writer did.
#[derive(Default)]
pub struct WriterLog {
    /// Insert operations: due → durable ack, ms.
    pub insert_ack_ms: Vec<f64>,
    /// `(first row of the batch in the insert pool, acked ids)`, still live.
    pub live: Vec<(usize, Vec<u32>)>,
    /// Ids whose delete was acked.
    pub deleted: Vec<u32>,
    pub rows_inserted: usize,
    /// Compaction request → ack, seconds since the writer started.
    pub compaction: Option<(f64, f64)>,
    pub attempted: u64,
    pub failed: u64,
}

/// Paced writer: every [`WRITE_PERIOD`] one operation, alternating an insert
/// of [`WRITE_BATCH`] rows and a delete of the rows inserted two cycles
/// earlier, so the live count is stationary; one compaction at `compact_at`.
/// Rows come from `pool` starting at row `first_row`.
pub fn paced_writer(
    conn: &mut Conn,
    pool: &[f32],
    first_row: usize,
    duration: Duration,
    compact_at: Option<Duration>,
) -> WriterLog {
    let mut log = WriterLog::default();
    let mut cycles: Vec<(usize, Vec<u32>)> = Vec::new();
    let mut compact_at = compact_at;
    let start = Instant::now();
    for op in 0.. {
        let due = WRITE_PERIOD * op as u32;
        if due >= duration {
            break;
        }
        if let Some(remaining) = (start + due).checked_duration_since(Instant::now()) {
            std::thread::sleep(remaining);
        }
        if compact_at.is_some_and(|at| due >= at) {
            compact_at = None;
            log.attempted += 1;
            let began = start.elapsed().as_secs_f64();
            match conn.compact() {
                Ok(()) => log.compaction = Some((began, start.elapsed().as_secs_f64())),
                Err(_) => log.failed += 1,
            }
        }
        let cycle = op / 2;
        if op % 2 == 0 {
            let row = first_row + cycle * WRITE_BATCH;
            let rows = &pool[row * DIM..(row + WRITE_BATCH) * DIM];
            log.attempted += 1;
            match conn.insert(rows) {
                Ok(ids) if ids.len() == WRITE_BATCH => {
                    log.insert_ack_ms
                        .push((start.elapsed() - due).as_secs_f64() * 1e3);
                    log.rows_inserted += ids.len();
                    cycles.push((row, ids));
                }
                _ => {
                    log.failed += 1;
                    cycles.push((row, Vec::new()));
                }
            }
        } else if cycle >= 2 {
            let (_, ids) = &mut cycles[cycle - 2];
            if !ids.is_empty() {
                log.attempted += 1;
                match conn.delete(ids) {
                    Ok(gone) if gone.len() == ids.len() => log.deleted.append(ids),
                    _ => log.failed += 1,
                }
            }
        }
    }
    log.live = cycles.into_iter().filter(|c| !c.1.is_empty()).collect();
    log
}

/// Sends every pool query in blocks of [`RECALL_BLOCK`]; returns the served
/// lists and `(requests, failed)`.
pub fn serve_all(conn: &mut Conn, queries: &[f32], nprobe: usize) -> (Vec<Vec<Hit>>, u64, u64) {
    let mut served = Vec::new();
    let (mut requests, mut failed) = (0, 0);
    for block in queries.chunks(RECALL_BLOCK * DIM) {
        requests += 1;
        match conn.search(block, R, nprobe) {
            Ok(results) if crate::loadgen::well_formed(&results, block.len() / DIM, R) => {
                served.extend(results)
            }
            _ => {
                failed += 1;
                served.extend(vec![Vec::new(); block.len() / DIM]);
            }
        }
    }
    (served, requests, failed)
}

/// Copies checkpoint + journal as they are on disk right now: what a
/// SIGKILL would leave behind (power loss is the fault-injection tests' job).
pub fn crash_image(checkpoint: &Path, dir: &Path, tag: usize) -> std::io::Result<PathBuf> {
    let image_dir = dir.join(format!("crash-{tag}"));
    std::fs::create_dir_all(&image_dir)?;
    let copy = image_dir.join("store.ivf");
    std::fs::copy(checkpoint, &copy)?;
    std::fs::copy(adapter::wal_path(checkpoint), adapter::wal_path(&copy))?;
    Ok(copy)
}

/// After recovery: every acked insert that was not deleted is live and is
/// its own nearest neighbour at distance 0, every acked delete is gone, and
/// the live count balances.
pub fn check_recovered(out: &mut Outcome, store: &Store, n: usize, log: &WriterLog, pool: &[f32]) {
    let live_ids: usize = log.live.iter().map(|c| c.1.len()).sum();
    let lost = log
        .live
        .iter()
        .flat_map(|c| &c.1)
        .filter(|&&id| !store.is_live(id))
        .count();
    out.check(lost == 0, || {
        format!("{lost} acknowledged inserts lost in recovery")
    });
    let undead = log.deleted.iter().filter(|&&id| store.is_live(id)).count();
    out.check(undead == 0, || {
        format!("{undead} acknowledged deletes live after recovery")
    });
    let live = store.shape().live;
    out.check(live == n + live_ids, || {
        format!("live count {live} after recovery, expected {n} + {live_ids}")
    });
    let mut rows = Vec::new();
    let mut ids = Vec::new();
    for (first_row, cycle_ids) in log.live.iter().rev() {
        for (j, &id) in cycle_ids.iter().enumerate() {
            if ids.len() < SELF_HIT_SAMPLES {
                rows.extend_from_slice(&pool[(first_row + j) * DIM..(first_row + j + 1) * DIM]);
                ids.push(id);
            }
        }
    }
    if !ids.is_empty() {
        let hits = store.exact_search(&rows, DIM, 1);
        let missed = hits
            .iter()
            .zip(&ids)
            .filter(|(h, &id)| h.first().map_or(true, |&(hid, d)| d != 0.0 || hid != id))
            .count();
        out.check(missed == 0, || {
            format!(
                "{missed} of {} acked inserts are not distance-0 self-hits",
                ids.len()
            )
        });
    }
}

/// What set-up produced for the measured phases.
struct Prepared {
    pub inputs: Inputs,
    pub truth: Vec<Vec<Hit>>,
    pub clustered: Clustered,
    pub stage: Stage,
}

/// Runs one workload once.
pub fn run(spec: &Spec, opts: &Opts) -> Result<Outcome, String> {
    let mut out = Outcome::default();
    let tracer = Tracer::new(opts.trace, opts.seed);
    let tmp = TempDir::new().map_err(|e| format!("cannot create a temp dir: {e}"))?;
    let warm = Duration::from_secs_f64(if opts.smoke { 0.1 } else { 0.5 });
    let reps = if opts.trace { 1 } else { SETUP_REPS };
    let insert_rows = insert_rows(spec, opts);

    let mut setup_s = Vec::new();
    // Timed clustering runs still to make, as sample numbers (0 is the base):
    // every sample once before the first set-up, the rest in equal shares
    // after each set-up and after the measured phases, so that no stretch of
    // the run decides `cluster_s` alone.
    // A traced run makes one run, in `train`.
    let mut to_time: VecDeque<u64> = (0..if opts.trace { 0 } else { spec.runs_per_sample })
        .flat_map(|_| 0..spec.samples as u64)
        .collect();
    let mut cluster_s = vec![Vec::new(); spec.samples];
    let mut prepared: Option<Prepared> = None;
    let mut gk_layers = None;
    for rep in 0..reps {
        let (inputs, gen_s) = tracer.timed("bench.generate", None, |_| {
            generate(spec, opts.seed, insert_rows)
        });
        let (truth, truth_s) = tracer.timed("bench.ground_truth", None, |_| {
            truth::top_r(
                inputs.base.flat(),
                &inputs.queries,
                DIM,
                R,
                CONNECTIONS,
                None,
            )
        });
        let clustered = match prepared.take() {
            Some(prev) => {
                out.check(prev.inputs.fingerprint == inputs.fingerprint, || {
                    "the generator gave different inputs for the same seed".into()
                });
                prev.stage.teardown();
                prev.clustered
            }
            None => {
                let (clustered, layers) = train(
                    spec,
                    opts,
                    &inputs,
                    &tracer,
                    &mut to_time,
                    &mut cluster_s,
                    &mut out,
                );
                gk_layers = layers;
                clustered
            }
        };
        let dir = tmp.path().join(format!("rep-{rep}"));
        std::fs::create_dir_all(&dir).map_err(|e| e.to_string())?;
        let (stage, up_s) = tracer.timed("bench.bring_up", None, |id| {
            bring_up(spec, &inputs, &clustered, &dir, warm, &tracer, id)
        });
        setup_s.push(gen_s + truth_s + up_s);
        let share = to_time.len().div_ceil(reps - rep + 1);
        timed_runs(
            spec,
            opts.seed,
            &inputs,
            &mut to_time,
            share,
            &mut cluster_s,
        );
        prepared = Some(Prepared {
            inputs,
            truth,
            clustered,
            stage: stage?,
        });
    }
    let Prepared {
        inputs,
        mut truth,
        clustered,
        mut stage,
    } = prepared.expect("at least one set-up repetition");

    out.notes.push(format!(
        "inputs: n = {}, d = {DIM}, {} queries, {} insert rows, fingerprint {:016x}",
        spec.n,
        spec.queries,
        inputs.inserts.len() / DIM,
        inputs.fingerprint
    ));
    out.notes.push(format!(
        "labels fingerprint {:016x}",
        gen::fnv1a_labels(&clustered.labels)
    ));
    if opts.seed == PINNED_SEED && !opts.smoke {
        let pinned = PINNED.iter().find(|p| p.0 == spec.name).map(|p| p.1);
        out.check(pinned == Some(inputs.fingerprint), || {
            format!(
                "input fingerprint {:016x} differs from the one pinned for seed {PINNED_SEED}",
                inputs.fingerprint
            )
        });
    }

    // clustering quality, from the labels alone
    let (within, total, empty) =
        truth::distortion(inputs.base.flat(), DIM, &clustered.labels, spec.k);
    out.check(
        clustered.labels.len() == spec.n && clustered.k() == spec.k,
        || {
            format!(
                "{} labels over {} clusters",
                clustered.labels.len(),
                clustered.k()
            )
        },
    );
    if matches!(spec.trainer, Trainer::Gk) {
        out.check(empty == 0, || format!("{empty} empty clusters"));
    }

    if opts.trace {
        layers::run(
            spec, opts, &tracer, &tmp, &inputs, &truth, gk_layers, stage, &mut out,
        )?;
        if let Some(path) = &opts.trace_out {
            tracer
                .write(path)
                .map_err(|e| format!("cannot write {}: {e}", path.display()))?;
        }
        return Ok(out);
    }

    // ---- measured phases: closed loop, then open loop; writer beside both
    let closed_for = Duration::from_secs_f64(opts.seconds * CLOSED_SHARE);
    let open_for = Duration::from_secs_f64(opts.seconds * (1.0 - CLOSED_SHARE));
    let pool = QueryPool {
        flat: &inputs.queries,
        dim: DIM,
        per_request: spec.per_request,
    };
    let searchers = if spec.mutable { 1 } else { CONNECTIONS };
    let (search_conns, write_conns) = stage.conns.split_at_mut(searchers);
    let (closed, open, writer) = std::thread::scope(|scope| {
        let writer = write_conns.first_mut().map(|conn| {
            let rows = &inputs.inserts;
            let all = closed_for + open_for;
            scope.spawn(move || paced_writer(conn, rows, 0, all, Some(all / 2)))
        });
        let closed = closed_loop(&mut plain(search_conns, NPROBE), &pool, R, closed_for);
        let open = open_loop(
            &mut plain(search_conns, NPROBE),
            &pool,
            R,
            spec.open_rate,
            open_for,
        );
        let writer = writer.map(|w| w.join().expect("writer thread panicked"));
        (closed, open, writer)
    });
    out.ops("closed-loop", closed.attempted(), closed.failed());
    out.ops("open-loop", open.attempted(), open.failed());
    if let Some(log) = &writer {
        out.ops("writer", log.attempted, log.failed);
        out.check(log.compaction.is_some(), || {
            "the compaction did not complete".into()
        });
        out.notes.push(format!(
            "writer: {} rows inserted, {} deleted, insert ack p50 {:.3} ms over {} inserts \
             (one fsync per batch, the store's default), compaction {:.0} ms",
            log.rows_inserted,
            log.deleted.len(),
            percentile(&log.insert_ack_ms, 0.5),
            log.insert_ack_ms.len(),
            log.compaction.map_or(0.0, |(a, b)| (b - a) * 1e3),
        ));
    }

    // ---- recall over the (live) set at a quiesced point
    if let Some(log) = &writer {
        for (first_row, ids) in &log.live {
            let rows = &inputs.inserts[first_row * DIM..(first_row + ids.len()) * DIM];
            truth::amend(&mut truth, &inputs.queries, DIM, R, rows, ids);
        }
    }
    let (served, requests, failed) = serve_all(&mut stage.conns[0], &inputs.queries, NPROBE);
    out.ops("recall", requests, failed);
    let recall = truth::recall(&served, &truth, R);

    // ---- nprobe = nlist is an exhaustive scan: equal to brute force id for id
    if !spec.sq8 {
        let sample = &inputs.queries[..EXACT_QUERIES.min(spec.queries) * DIM];
        let (exact, requests, failed) = serve_all(&mut stage.conns[0], sample, spec.k);
        out.ops("exact", requests, failed);
        let differing = exact.iter().zip(&truth).filter(|(s, t)| s != t).count();
        out.check(differing == 0, || {
            format!(
                "{differing} of {} queries differ from brute force at nprobe = nlist",
                exact.len()
            )
        });
    }

    // ---- nothing acknowledged is lost across a crash
    if let Some(log) = &writer {
        let copy = crash_image(&stage.checkpoint, tmp.path(), 0).map_err(|e| e.to_string())?;
        let (store, recovery, open_s) = Store::open(&copy);
        check_recovered(&mut out, &store, spec.n, log, &inputs.inserts);
        out.notes.push(format!(
            "recovery: {:.1} ms, {} records replayed, {} skipped, torn tail {}",
            open_s * 1e3,
            recovery.replayed,
            recovery.skipped,
            recovery.torn_tail_dropped
        ));
    }

    let counts = stage.served.counts();
    out.check(
        counts.shed + counts.deadline_expired + counts.internal_errors + counts.protocol_errors
            == 0,
        || format!("server reported failures: {counts:?}"),
    );
    stage.teardown();
    let rest = to_time.len();
    timed_runs(spec, opts.seed, &inputs, &mut to_time, rest, &mut cluster_s);

    // ---- end-to-end metrics
    // Each served figure is that of the interval least disturbed: on a shared
    // 2-vCPU host whole seconds run 10-30 % slow now and then, the same for
    // every commit, and a disturbance only ever makes an interval slower.
    let p = |q: f64, of: fn(&Sample) -> f64| {
        move |w: &[Sample], _secs: f64| percentile(&w.iter().map(of).collect::<Vec<f64>>(), q)
    };
    let least = |v: Vec<f64>| v.into_iter().fold(f64::INFINITY, f64::min);
    let n50 = closed.intervals_of(P50_INTERVAL, INTERVALS);
    let n99 = closed.intervals_of(P99_INTERVAL, TAIL_INTERVALS);
    let n95 = open.intervals_of(P95_INTERVAL, TAIL_INTERVALS);
    let late_ms: Vec<f64> = open.samples.iter().map(Sample::late_ms).collect();
    out.notes.push(format!(
        "closed loop: {} connections x {} queries/request, {} requests, p50 and queries/s best of \
         {n50} intervals, p99 of {n99}; open loop: {} req/s, {} requests, p95 from due best of \
         {n95} intervals, generator late p99 {:.3} ms",
        if spec.mutable { 1 } else { CONNECTIONS },
        spec.per_request,
        closed.attempted(),
        spec.open_rate,
        open.attempted(),
        percentile(&late_ms, 0.99),
    ));
    out.notes.push(format!(
        "clustering: distortion {within:.3}, total variance {total:.3}, {} distance evals, \
         graph {:.3} s + init {:.3} s + iterations {:.3} s",
        clustered.distance_evals, clustered.graph_s, clustered.init_s, clustered.iter_s
    ));
    out.notes.push(format!(
        "clustering runs, s, one group per sample: {}",
        cluster_s
            .iter()
            .map(|runs| {
                let runs: Vec<String> = runs.iter().map(|s| format!("{s:.3}")).collect();
                runs.join(" ")
            })
            .collect::<Vec<_>>()
            .join(" | ")
    ));
    out.metric("setup_s", median(&setup_s), setup_s.len() as u64);
    // a sample's time is its least disturbed run; samples differ in their
    // work, so the mean of the middle half of them
    let per_sample: Vec<f64> = cluster_s.iter().map(|runs| least(runs.clone())).collect();
    out.metric(
        "cluster_s",
        midmean(&per_sample),
        cluster_s.iter().map(Vec::len).sum::<usize>() as u64,
    );
    out.metric("distortion_ratio", within / total, spec.n as u64);
    out.metric(
        "search_p50_ms",
        least(closed.per_interval(n50, p(0.5, Sample::latency_ms))),
        closed.attempted(),
    );
    out.metric(
        "search_p99_ms",
        least(closed.per_interval(n99, p(0.99, Sample::latency_ms))),
        closed.attempted(),
    );
    out.metric(
        "search_qps",
        closed
            .per_interval(n50, |w, secs| closed.answered(w) / secs)
            .into_iter()
            .fold(0.0, f64::max),
        closed.attempted(),
    );
    out.metric(
        "open_p95_ms",
        least(open.per_interval(n95, p(0.95, Sample::latency_from_due_ms))),
        open.attempted(),
    );
    out.metric("recall_at_10", recall, spec.queries as u64);
    Ok(out)
}

/// Makes the next `count` timed clustering runs of `to_time` and files each
/// run's time to solution under its sample.  Returns the clustering of the
/// base, if one of the runs made it.
fn timed_runs(
    spec: &Spec,
    seed: u64,
    inputs: &Inputs,
    to_time: &mut VecDeque<u64>,
    count: usize,
    cluster_s: &mut [Vec<f64>],
) -> Option<Clustered> {
    let mut of_base = None;
    for _ in 0..count {
        let Some(sample) = to_time.pop_front() else {
            break;
        };
        let run = match (spec.trainer, sample) {
            (Trainer::Lloyd, _) => {
                adapter::cluster_lloyd(&inputs.base, spec.k, spec.iterations, seed)
            }
            (Trainer::Gk, 0) => {
                adapter::cluster_gk(&inputs.base, spec.k, gk_spec(spec.iterations, seed))
            }
            (Trainer::Gk, sample) => {
                let rows = Mixture::new(seed).sample(seed, gen::STREAM_PARTS + sample, spec.n);
                adapter::cluster_gk(
                    &Vectors::new(rows, DIM),
                    spec.k,
                    gk_spec(spec.iterations, seed + sample),
                )
            }
        };
        cluster_s[sample as usize].push(run.total_s());
        if sample == 0 {
            of_base.get_or_insert(run);
        }
    }
    of_base
}

/// Trains the workload's clustering: the first timed run of every sample
/// (at least two runs).  In a traced run there is one run; a GK-means one
/// calls the two phases one by one and returns their layer numbers.
fn train(
    spec: &Spec,
    opts: &Opts,
    inputs: &Inputs,
    tracer: &Tracer,
    to_time: &mut VecDeque<u64>,
    cluster_s: &mut [Vec<f64>],
    out: &mut Outcome,
) -> (Clustered, Option<layers::GkProbe>) {
    if opts.trace {
        return match spec.trainer {
            Trainer::Lloyd => {
                let (c, _) = tracer.timed("baselines.lloyd.fit", None, |_| {
                    adapter::cluster_lloyd(&inputs.base, spec.k, spec.iterations, opts.seed)
                });
                cluster_s[0].push(c.total_s());
                (c, None)
            }
            Trainer::Gk => {
                let (gk, probe) =
                    layers::gk_probe(&inputs.base, spec.k, spec.iterations, opts.seed, tracer);
                cluster_s[0].push(gk.total_s());
                (gk, Some(probe))
            }
        };
    }
    let first = spec.samples.max(2).min(to_time.len());
    let clustered = timed_runs(spec, opts.seed, inputs, to_time, first, cluster_s)
        .expect("the first timed run is of the base");
    if matches!(spec.trainer, Trainer::Gk) {
        // Lloyd at the same k, iterations and seed: the paper's claim is
        // lower distortion from far fewer distance evaluations.
        let gk = &clustered;
        let lloyd = adapter::cluster_lloyd(&inputs.base, spec.k, spec.iterations, opts.seed);
        let d = |c: &Clustered| truth::distortion(inputs.base.flat(), DIM, &c.labels, spec.k).0;
        let ratio = d(gk) / d(&lloyd);
        out.check(ratio <= 1.02, || {
            format!("GK-means distortion is {ratio:.4} x Lloyd's (limit 1.02)")
        });
        out.check(gk.distance_evals * 10 < lloyd.distance_evals, || {
            format!(
                "GK-means made {} distance evaluations, Lloyd {} (must be under a tenth)",
                gk.distance_evals, lloyd.distance_evals
            )
        });
        out.notes.push(format!(
            "GK-means vs Lloyd: distortion ratio {ratio:.5}, {} vs {} distance evals, {:.3} s vs {:.3} s",
            gk.distance_evals,
            lloyd.distance_evals,
            gk.total_s(),
            lloyd.total_s()
        ));
    }
    (clustered, None)
}
