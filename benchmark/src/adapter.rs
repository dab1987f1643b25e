//! The only file of the benchmark that names product symbols.
//!
//! A change to a product API needs a paired change here and nowhere else;
//! the generator, load generator, statistics, span recorder and JSON code
//! depend on `std` alone.  Every entry point is the public one `gkm-cli`
//! drives, called with explicit `threads = 1` so `GKM_THREADS` cannot change
//! a run.

use std::net::SocketAddr;
use std::path::{Path, PathBuf};
use std::sync::{mpsc, Arc};
use std::time::{Duration, Instant};

use baselines::closure::ClosureKMeans;
use baselines::common::{Clustering, KMeansConfig};
use baselines::lloyd::LloydKMeans;
use gkmeans::construct::RoundInfo;
use gkmeans::two_means::TwoMeansTree;
use gkmeans::{GkMeans, GkMeansPipeline, GkParams, KnnGraphBuilder};
use ivf::{IvfIndex, IvfSearchParams, MutableStore};
use knn_graph::recall::estimated_recall_at_1;
use knn_graph::Neighbor;
use obs::ObsHandle;
use serve::batcher::{Batcher, BatcherConfig, IvfBackend, MutableIvfBackend, Reply, SearchBackend};
use serve::client::Client;
use serve::protocol::{
    read_frame, write_frame, FrameKind, SearchRequest, SearchResponse, DEFAULT_MAX_PAYLOAD,
};
use serve::server::{Server, ServerConfig};
use vecstore::VectorSet;

use crate::loadgen::Hit;
use crate::trace::{SpanId, Tracer};

/// Worker threads handed to every product call that takes a count.
const THREADS: usize = 1;

/// Slow-query threshold `gkm-cli serve` uses by default (25 ms).
const SLOW_QUERY_NANOS: u64 = 25_000_000;

/// Kernel dispatch level the product selected on this host.
pub fn kernel_dispatch() -> &'static str {
    vecstore::kernels::active().name
}

/// True when the `GKM_THREADS` override is visible to the product crates.
pub fn threads_env_override() -> bool {
    vecstore::parallel::threads_from_env().is_some()
}

/// A row-major vector set in the product's own container.
#[derive(Clone)]
pub struct Vectors(VectorSet);

impl Vectors {
    pub fn new(flat: Vec<f32>, dim: usize) -> Self {
        Vectors(VectorSet::from_flat(flat, dim).expect("generated rows are whole vectors"))
    }

    pub fn flat(&self) -> &[f32] {
        self.0.as_flat()
    }

    pub fn len(&self) -> usize {
        self.0.len()
    }

    pub fn dim(&self) -> usize {
        self.0.dim()
    }

    pub fn row(&self, i: usize) -> &[f32] {
        self.0.row(i)
    }

    /// The first `n` rows as a set of their own.
    pub fn prefix(&self, n: usize) -> Vectors {
        Vectors::new(self.flat()[..n * self.dim()].to_vec(), self.dim())
    }
}

// ---------------------------------------------------------------- clustering

/// What a clustering run reports, in plain numbers.
pub struct Clustered {
    pub labels: Vec<usize>,
    centroids: VectorSet,
    /// Alg. 3 graph construction (0 for graph-free methods).
    pub graph_s: f64,
    pub init_s: f64,
    pub iter_s: f64,
    pub iterations: usize,
    pub distance_evals: u64,
}

impl Clustered {
    fn new(c: Clustering, graph_s: f64) -> Self {
        Clustered {
            graph_s,
            init_s: c.init_time.as_secs_f64(),
            iter_s: c.iter_time.as_secs_f64(),
            iterations: c.iterations,
            distance_evals: c.distance_evals,
            labels: c.labels,
            centroids: c.centroids,
        }
    }

    pub fn k(&self) -> usize {
        self.centroids.len()
    }

    /// Graph + init + iterations: time to solution as the method reports it.
    pub fn total_s(&self) -> f64 {
        self.graph_s + self.init_s + self.iter_s
    }
}

/// GK-means parameters a workload fixes.
#[derive(Clone, Copy, Debug)]
pub struct GkSpec {
    pub kappa: usize,
    pub xi: usize,
    pub tau: usize,
    pub iterations: usize,
    pub seed: u64,
}

fn gk_params(spec: GkSpec) -> GkParams {
    GkParams::default()
        .kappa(spec.kappa)
        .xi(spec.xi)
        .tau(spec.tau)
        .iterations(spec.iterations)
        .seed(spec.seed)
        .threads(THREADS)
}

fn kmeans_config(k: usize, iterations: usize, seed: u64) -> KMeansConfig {
    KMeansConfig::with_k(k)
        .max_iters(iterations)
        .seed(seed)
        .threads(THREADS)
}

/// The one-call pipeline (`gkm-cli cluster --method gk`).
pub fn cluster_gk(data: &Vectors, k: usize, spec: GkSpec) -> Clustered {
    let outcome = GkMeansPipeline::new(gk_params(spec)).cluster(&data.0, k);
    let graph_s = outcome.graph_time.as_secs_f64();
    Clustered::new(outcome.clustering, graph_s)
}

/// Counts and times of the two GK-means phases, taken at their boundaries.
pub struct GkLayers {
    pub build_s: f64,
    pub round_s: Vec<f64>,
    pub refine_evals: u64,
    pub clustering_evals: u64,
    pub graph_updates: u64,
    pub graph_recall_at_1: f64,
}

/// The same two phases the pipeline runs, called one by one with a span
/// around each, so the labels must equal [`cluster_gk`]'s bit for bit.
/// `nn_truth` lists `(sample, true nearest other sample, distance)`.
pub fn cluster_gk_layered(
    data: &Vectors,
    k: usize,
    spec: GkSpec,
    nn_truth: &[(usize, u32, f32)],
    tracer: &Tracer,
    parent: Option<SpanId>,
) -> (Clustered, GkLayers) {
    let params = gk_params(spec);
    let mut round_ends = Vec::new();
    let build_start = Instant::now();
    let (((graph, stats), build_span), build_s) =
        tracer.timed("gkmeans.construct.build", parent, |id| {
            let built = KnnGraphBuilder::new(params)
                .build_with_observer(&data.0, |info: RoundInfo| {
                    round_ends.push(info.elapsed_secs)
                });
            (built, id)
        });
    let mut round_s = Vec::with_capacity(round_ends.len());
    let mut prev = 0.0;
    for (i, &end) in round_ends.iter().enumerate() {
        round_s.push(end - prev);
        tracer.record(
            &format!("gkmeans.construct.round.{}", i + 1),
            build_span,
            build_start + Duration::from_secs_f64(prev),
            build_start + Duration::from_secs_f64(end),
        );
        prev = end;
    }
    let (clustering, _) = tracer.timed("gkmeans.gk.fit", parent, |_| {
        GkMeans::new(params).fit(&data.0, k, &graph)
    });
    let ids: Vec<usize> = nn_truth.iter().map(|t| t.0).collect();
    let truth: Vec<Vec<Neighbor>> = nn_truth
        .iter()
        .map(|t| vec![Neighbor::new(t.1, t.2)])
        .collect();
    let layers = GkLayers {
        build_s,
        round_s,
        refine_evals: stats.refine_distance_evals,
        clustering_evals: stats.clustering_distance_evals,
        graph_updates: stats.graph_updates,
        graph_recall_at_1: estimated_recall_at_1(&graph, &ids, &truth),
    };
    (
        Clustered::new(clustering, stats.elapsed.as_secs_f64()),
        layers,
    )
}

/// Lloyd's k-means as `gkm-cli index build` (the default method) runs it.
pub fn cluster_lloyd(data: &Vectors, k: usize, iterations: usize, seed: u64) -> Clustered {
    Clustered::new(
        LloydKMeans::new(kmeans_config(k, iterations, seed)).fit(&data.0),
        0.0,
    )
}

/// Closure k-means, the paper's main competitor.
pub fn cluster_closure(data: &Vectors, k: usize, iterations: usize, seed: u64) -> Clustered {
    Clustered::new(
        ClosureKMeans::new(kmeans_config(k, iterations, seed)).fit(&data.0),
        0.0,
    )
}

/// Seconds of one two-means-tree partition into `k` clusters (Alg. 1).
pub fn two_means_partition_s(data: &Vectors, k: usize, seed: u64) -> f64 {
    let start = Instant::now();
    let labels = TwoMeansTree::new(seed)
        .threads(THREADS)
        .partition(&data.0, k);
    std::hint::black_box(labels);
    start.elapsed().as_secs_f64()
}

/// `k₀ = ⌊n/ξ⌋`, the cluster count Alg. 3 partitions into every round.
pub fn construction_clusters(n: usize, spec: GkSpec) -> usize {
    KnnGraphBuilder::new(gk_params(spec)).construction_clusters(n)
}

/// Nanoseconds per distance of the one-to-many kernel over `data`'s rows
/// (one query against blocks of 256 contiguous rows, at least 20 ms of work).
pub fn l2_one_to_many_ns(data: &Vectors) -> f64 {
    let dim = data.dim();
    let block = 256.min(data.len());
    let mut out = vec![0.0f32; block];
    let blocks = data.len() / block;
    let mut evals = 0u64;
    let start = Instant::now();
    while start.elapsed() < Duration::from_millis(20) {
        for b in 0..blocks {
            let rows = &data.flat()[b * block * dim..(b + 1) * block * dim];
            vecstore::kernels::l2_sq_one_to_many(data.row(b), rows, &mut out);
            std::hint::black_box(&mut out);
            evals += block as u64;
        }
    }
    start.elapsed().as_nanos() as f64 / evals as f64
}

// --------------------------------------------------------------------- index

/// Work one direct batch search reports.
#[derive(Clone, Copy, Debug, Default)]
pub struct SearchCost {
    pub evals: u64,
    pub panel_bytes: u64,
    pub route_ns: u64,
    pub scan_ns: u64,
    pub rerank_ns: u64,
}

pub struct Index(IvfIndex);

fn hits(results: Vec<Vec<Neighbor>>) -> Vec<Vec<Hit>> {
    results
        .into_iter()
        .map(|list| list.into_iter().map(|n| (n.id, n.dist)).collect())
        .collect()
}

impl Index {
    pub fn build(data: &Vectors, clustered: &Clustered) -> Index {
        Index(
            IvfIndex::build(&data.0, &clustered.centroids, &clustered.labels)
                .expect("a clustering of the data builds an index"),
        )
    }

    /// Adds the SQ8 tier beside the `f32` panels.
    pub fn quantize(&mut self) {
        self.0.quantize();
    }

    pub fn save(&self, path: &Path) {
        self.0.save(path).expect("index checkpoint is writable");
    }

    pub fn load(path: &Path) -> Index {
        Index(IvfIndex::load(path).expect("a checkpoint this run wrote loads"))
    }

    /// Direct batch search with stage timings on (`threads = 1`).
    pub fn search(
        &self,
        queries: &[f32],
        dim: usize,
        r: usize,
        nprobe: usize,
        sq8: bool,
    ) -> (Vec<Vec<Hit>>, SearchCost) {
        let set = VectorSet::from_flat(queries.to_vec(), dim).expect("whole query rows");
        let params = IvfSearchParams::default()
            .nprobe(nprobe)
            .threads(THREADS)
            .sq8(sq8)
            .timings(true);
        let (results, stats) = self.0.batch_search_with_stats(&set, r, params);
        (
            hits(results),
            SearchCost {
                evals: stats.distance_evals,
                panel_bytes: stats.panel_bytes,
                route_ns: stats.route_nanos,
                scan_ns: stats.scan_nanos,
                rerank_ns: stats.rerank_nanos,
            },
        )
    }
}

// --------------------------------------------------------------------- store

/// What recovery found.
#[derive(Clone, Copy, Debug)]
pub struct Recovery {
    pub replayed: usize,
    pub skipped: usize,
    pub torn_tail_dropped: bool,
}

/// Shape of the mutable tier at one instant.
#[derive(Clone, Copy, Debug)]
pub struct StoreShape {
    pub live: usize,
    pub append_rows: usize,
    pub tombstones: usize,
}

/// Path of the journal that rides beside a checkpoint.
pub fn wal_path(checkpoint: &Path) -> PathBuf {
    ivf::store::wal_path(checkpoint)
}

/// A mutable store driven directly (no server), with its instruments on.
pub struct Store {
    store: MutableStore,
    obs: ObsHandle,
}

impl Store {
    pub fn create(checkpoint: &Path, index: Index) -> Store {
        let mut store =
            MutableStore::create(checkpoint, index.0).expect("fresh checkpoint + journal");
        let obs = ObsHandle::enabled();
        store.set_obs(&obs);
        Store { store, obs }
    }

    /// Opens checkpoint + journal as a restart would; returns the recovery
    /// report and the seconds `MutableStore::open` took.
    pub fn open(checkpoint: &Path) -> (Store, Recovery, f64) {
        let start = Instant::now();
        let (store, report) = MutableStore::open(checkpoint).expect("crash image recovers");
        let secs = start.elapsed().as_secs_f64();
        (
            Store {
                store,
                obs: ObsHandle::disabled(),
            },
            Recovery {
                replayed: report.replayed,
                skipped: report.skipped,
                torn_tail_dropped: report.torn_tail_dropped,
            },
            secs,
        )
    }

    pub fn insert_batch(&mut self, rows: &[f32], dim: usize) -> Vec<u32> {
        let set = VectorSet::from_flat(rows.to_vec(), dim).expect("whole rows");
        self.store.insert_batch(&set).expect("journalled insert")
    }

    pub fn delete_batch(&mut self, ids: &[u32]) {
        self.store.delete_batch(ids).expect("journalled delete");
    }

    pub fn compact(&mut self) {
        self.store.compact().expect("checkpointed compaction");
    }

    pub fn shape(&self) -> StoreShape {
        shape_of(&self.store)
    }

    pub fn is_live(&self, id: u32) -> bool {
        self.store.index().is_live(id)
    }

    /// Exact (`nprobe = nlist`, `f32` panels) search over the store's index.
    pub fn exact_search(&self, queries: &[f32], dim: usize, r: usize) -> Vec<Vec<Hit>> {
        let set = VectorSet::from_flat(queries.to_vec(), dim).expect("whole query rows");
        let params = IvfSearchParams::default()
            .nprobe(self.store.index().nlist())
            .threads(THREADS);
        hits(self.store.index().batch_search(&set, r, params))
    }

    /// `(p50 in µs, samples)` of one of the store's latency histograms
    /// (`wal_append_nanos`, `wal_fsync_nanos`, `compaction_nanos`).
    pub fn hist_p50_us(&self, name: &str) -> (f64, u64) {
        hist_p50_us(&self.obs, name)
    }
}

fn shape_of(store: &MutableStore) -> StoreShape {
    StoreShape {
        live: store.index().live_len(),
        append_rows: store.index().pending_appends(),
        tombstones: store.index().tombstoned(),
    }
}

fn hist_p50_us(obs: &ObsHandle, name: &str) -> (f64, u64) {
    obs.snapshot()
        .and_then(|snap| {
            snap.histogram(name)
                .map(|h| (h.quantile(0.5) as f64 / 1e3, h.count()))
        })
        .unwrap_or((0.0, 0))
}

// -------------------------------------------------------------------- server

/// Outcome counters of the server's batcher.
#[derive(Clone, Copy, Debug, Default)]
pub struct BatcherCounts {
    pub shed: u64,
    pub deadline_expired: u64,
    pub internal_errors: u64,
    pub batches: u64,
    pub protocol_errors: u64,
}

/// A running server, started the way `gkm-cli serve` starts it:
/// `ServerConfig::default()`, observability on, loopback, ephemeral port.
pub struct Served {
    server: Server,
    store: Option<Arc<MutableIvfBackend>>,
}

fn server_obs() -> ObsHandle {
    ObsHandle::with_slow_threshold(SLOW_QUERY_NANOS)
}

impl Served {
    /// Read-only server over `index` (`Server::start_obs`).
    pub fn over_index(index: Index, sq8: bool) -> Served {
        let backend = Arc::new(IvfBackend::new(index.0, Some(THREADS)).quantized(sq8));
        let server = Server::start_obs(backend, ServerConfig::default(), &server_obs())
            .expect("loopback bind");
        Served {
            server,
            store: None,
        }
    }

    /// Mutable server: publishes `index` as a checkpoint with a fresh journal
    /// beside it (`MutableStore::create`) and serves it
    /// (`Server::start_mutable_obs`).
    pub fn over_store(checkpoint: &Path, index: Index, sq8: bool) -> Served {
        let store = MutableStore::create(checkpoint, index.0).expect("fresh checkpoint + journal");
        let backend = Arc::new(MutableIvfBackend::new(store, Some(THREADS)).quantized(sq8));
        let server = Server::start_mutable_obs(
            Arc::clone(&backend) as Arc<dyn serve::MutableBackend>,
            ServerConfig::default(),
            &server_obs(),
        )
        .expect("loopback bind");
        Served {
            server,
            store: Some(backend),
        }
    }

    pub fn addr(&self) -> SocketAddr {
        self.server.local_addr()
    }

    pub fn counts(&self) -> BatcherCounts {
        let s = self.server.stats();
        BatcherCounts {
            shed: s.batcher.shed,
            deadline_expired: s.batcher.deadline_expired,
            internal_errors: s.batcher.internal_errors,
            batches: s.batcher.batches,
            protocol_errors: s.protocol_errors,
        }
    }

    /// `(p50 in µs, samples)` of a server-side latency histogram
    /// (`batcher_queue_wait_nanos`, `compaction_nanos`, …).
    pub fn hist_p50_us(&self, name: &str) -> (f64, u64) {
        hist_p50_us(self.server.obs(), name)
    }

    /// `(sum, samples)` of a server-side histogram (`batcher_batch_size`).
    pub fn hist_sum(&self, name: &str) -> (u64, u64) {
        self.server
            .obs()
            .snapshot()
            .and_then(|snap| snap.histogram(name).map(|h| (h.sum, h.count())))
            .unwrap_or((0, 0))
    }

    /// Shape of the mutable tier (None for a read-only server).
    pub fn store_shape(&self) -> Option<StoreShape> {
        self.store.as_ref().map(|b| b.with_store(shape_of))
    }

    /// Graceful drain: every admitted request is answered, every thread joined.
    pub fn shutdown(mut self) {
        self.server.shutdown();
    }
}

// -------------------------------------------------------------------- client

/// Server-measured stages of one traced request, in nanoseconds.
#[derive(Clone, Copy, Debug, Default)]
pub struct Stages {
    pub queue_ns: u64,
    pub route_ns: u64,
    pub scan_ns: u64,
    pub total_ns: u64,
}

/// One GKSQ connection over loopback TCP.
pub struct Conn {
    client: Client,
    next_id: u64,
    dim: u32,
}

impl Conn {
    pub fn connect(addr: SocketAddr, dim: usize) -> Result<Conn, String> {
        Client::connect(addr, Duration::from_secs(30))
            .map(|client| Conn {
                client,
                next_id: 1,
                dim: dim as u32,
            })
            .map_err(|e| e.to_string())
    }

    fn request(&mut self, queries: &[f32], r: usize, nprobe: usize) -> SearchRequest {
        self.next_id += 1;
        SearchRequest {
            id: self.next_id,
            deadline_ms: 0,
            r: r as u16,
            nprobe: nprobe as u16,
            dim: self.dim,
            queries: queries.to_vec(),
        }
    }

    pub fn search(
        &mut self,
        queries: &[f32],
        r: usize,
        nprobe: usize,
    ) -> Result<Vec<Vec<Hit>>, String> {
        let req = self.request(queries, r, nprobe);
        self.client
            .search(&req)
            .map(hits)
            .map_err(|e| e.to_string())
    }

    pub fn search_traced(
        &mut self,
        queries: &[f32],
        r: usize,
        nprobe: usize,
    ) -> Result<(Vec<Vec<Hit>>, Stages), String> {
        let req = self.request(queries, r, nprobe);
        self.client
            .search_traced(obs::trace::next_trace_id(), &req)
            .map(|(results, t)| {
                (
                    hits(results),
                    Stages {
                        queue_ns: t.queue_wait_nanos,
                        route_ns: t.route_nanos,
                        scan_ns: t.scan_nanos,
                        total_ns: t.total_nanos,
                    },
                )
            })
            .map_err(|e| e.to_string())
    }

    /// Inserts whole rows; the ids come back once the batch is durable.
    pub fn insert(&mut self, rows: &[f32]) -> Result<Vec<u32>, String> {
        self.next_id += 1;
        self.client
            .insert(self.next_id, self.dim, rows.to_vec())
            .map(|ack| ack.ids)
            .map_err(|e| e.to_string())
    }

    /// Tombstones `ids`; returns the ids that were live.
    pub fn delete(&mut self, ids: &[u32]) -> Result<Vec<u32>, String> {
        self.next_id += 1;
        self.client
            .delete(self.next_id, ids.to_vec())
            .map(|ack| ack.ids)
            .map_err(|e| e.to_string())
    }

    pub fn compact(&mut self) -> Result<(), String> {
        self.next_id += 1;
        self.client
            .compact(self.next_id)
            .map(|_| ())
            .map_err(|e| e.to_string())
    }

    pub fn ping(&mut self) -> Result<(), String> {
        self.client.ping().map_err(|e| e.to_string())
    }
}

// -------------------------------------------------------------- layer probes

/// Microseconds to frame one search request and to parse one response of
/// `results`, on in-memory buffers (median of `reps`).
pub fn protocol_codec_us(
    queries: &[f32],
    dim: usize,
    r: usize,
    nprobe: usize,
    results: &[Vec<Hit>],
    reps: usize,
) -> (f64, f64) {
    let req = SearchRequest {
        id: 1,
        deadline_ms: 0,
        r: r as u16,
        nprobe: nprobe as u16,
        dim: dim as u32,
        queries: queries.to_vec(),
    };
    let resp = SearchResponse::ok(
        1,
        results
            .iter()
            .map(|list| list.iter().map(|&(id, d)| Neighbor::new(id, d)).collect())
            .collect(),
    );
    let mut wire = Vec::new();
    write_frame(&mut wire, FrameKind::Response, &resp.encode()).expect("in-memory write");
    let mut encode = Vec::with_capacity(reps);
    let mut decode = Vec::with_capacity(reps);
    let mut buf = Vec::new();
    for _ in 0..reps {
        buf.clear();
        let t = Instant::now();
        write_frame(&mut buf, FrameKind::Search, &req.encode()).expect("in-memory write");
        encode.push(t.elapsed().as_nanos() as f64 / 1e3);
        std::hint::black_box(&buf);
        let t = Instant::now();
        let frame = read_frame(&mut &wire[..], DEFAULT_MAX_PAYLOAD)
            .expect("well-formed frame")
            .expect("one frame");
        let parsed = SearchResponse::decode(&frame.payload).expect("well-formed response");
        decode.push(t.elapsed().as_nanos() as f64 / 1e3);
        std::hint::black_box(parsed);
    }
    (crate::stats::median(&encode), crate::stats::median(&decode))
}

/// A backend that answers at once, so a round trip through the batcher costs
/// the batcher alone.
struct NoopBackend {
    dim: usize,
}

impl SearchBackend for NoopBackend {
    fn dim(&self) -> usize {
        self.dim
    }

    fn search_batch(
        &self,
        queries: &VectorSet,
        r: usize,
        _nprobe: usize,
    ) -> vecstore::Result<Vec<Vec<Neighbor>>> {
        Ok(queries
            .rows()
            .map(|_| vec![Neighbor::new(0, 0.0); r])
            .collect())
    }
}

/// Median microseconds from `Batcher::submit` of one `nq`-query request to
/// its reply, default `BatcherConfig`, no-op backend, nothing else queued.
/// A request smaller than `max_batch` waits out the coalesce timer; a full
/// one flushes at once.
pub fn batcher_noop_roundtrip_us(nq: usize, dim: usize, r: usize, reps: usize) -> f64 {
    let mut batcher = Batcher::start(Arc::new(NoopBackend { dim }), BatcherConfig::default());
    let queries = vec![0.0f32; nq * dim];
    let mut samples = Vec::with_capacity(reps);
    for id in 0..reps as u64 {
        let (tx, rx) = mpsc::channel::<Reply>();
        let q = queries.clone();
        let t = Instant::now();
        let _ = batcher.submit(id, q, dim, r, 1, None, tx);
        let reply = rx
            .recv()
            .expect("the batcher answers every admitted request");
        samples.push(t.elapsed().as_nanos() as f64 / 1e3);
        std::hint::black_box(reply);
    }
    batcher.shutdown();
    crate::stats::median(&samples)
}
