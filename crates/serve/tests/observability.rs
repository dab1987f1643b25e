//! End-to-end observability: traced queries whose stage timings add up,
//! the slow-query ring, the `Stats` frame exposition agreeing with the
//! drain-summary counters, and the metrics HTTP listener staying alive
//! under hostile traffic while queries flow.

use std::io::Write;
use std::net::TcpStream;
use std::sync::Arc;
use std::thread;
use std::time::Duration;

use ivf::{IvfIndex, IvfSearchParams};
use obs::{trace::next_trace_id, ObsHandle, StageTimings};
use rand::Rng;
use serve::client::{Client, ClientError};
use serve::metrics::MetricsServer;
use serve::protocol::{SearchRequest, StatsFormat, Status};
use serve::server::{Server, ServerConfig};
use serve::IvfBackend;
use vecstore::sample::rng_from_seed;
use vecstore::VectorSet;

const DIM: usize = 8;

fn fixture_index(n: usize, k: usize, seed: u64) -> (VectorSet, IvfIndex) {
    let mut rng = rng_from_seed(seed);
    let mut rows = Vec::with_capacity(n);
    for _ in 0..n {
        rows.push((0..DIM).map(|_| rng.gen_range(0..9) as f32).collect());
    }
    let data = VectorSet::from_rows(rows).unwrap();
    let centroids = data.gather(&(0..k).collect::<Vec<_>>()).unwrap();
    let labels: Vec<usize> = data
        .rows()
        .map(|row| {
            centroids
                .rows()
                .enumerate()
                .map(|(c, cent)| {
                    let d: f32 = row.iter().zip(cent).map(|(a, b)| (a - b) * (a - b)).sum();
                    (d, c)
                })
                .min_by(|a, b| a.partial_cmp(b).unwrap())
                .unwrap()
                .1
        })
        .collect();
    let index = IvfIndex::build(&data, &centroids, &labels).unwrap();
    (data, index)
}

fn start_obs_server(threads: usize, obs: &ObsHandle) -> (Server, IvfIndex) {
    let (_, index) = fixture_index(256, 8, 42);
    let backend = IvfBackend::new(index.clone(), Some(threads));
    let server = Server::start_obs(Arc::new(backend), ServerConfig::default(), obs).unwrap();
    (server, index)
}

fn request(id: u64, queries: &VectorSet, lo: usize, n: usize) -> SearchRequest {
    let flat: Vec<f32> = (lo..lo + n).flat_map(|i| queries.row(i).to_vec()).collect();
    SearchRequest {
        id,
        deadline_ms: 0,
        r: 5,
        nprobe: 4,
        dim: DIM as u32,
        queries: flat,
    }
}

/// The acceptance demo: a traced query comes back with per-stage timings
/// whose pieces are disjoint sub-intervals of the total — queue wait plus
/// route plus scan plus re-rank never exceeds the total, the gap is only
/// dispatch overhead, and the results are bit-identical to an untraced
/// search of the same index.
#[test]
fn traced_query_stage_timings_add_up_and_results_match() {
    let obs = ObsHandle::enabled();
    let (mut server, index) = start_obs_server(2, &obs);
    let queries = fixture_index(32, 4, 7).0;
    let mut client = Client::connect(server.local_addr(), Duration::from_secs(5)).unwrap();

    let req = request(21, &queries, 0, 16);
    let trace_id = next_trace_id();
    let (results, timings) = client.search_traced(trace_id, &req).unwrap();

    let params = IvfSearchParams::default().nprobe(4).threads(1);
    let want = index.batch_search(
        &queries.gather(&(0..16).collect::<Vec<_>>()).unwrap(),
        5,
        params,
    );
    assert_eq!(results, want, "traced results must match the direct search");

    assert!(
        timings.total_nanos > 0,
        "total must be measured: {timings:?}"
    );
    assert!(
        timings.queue_wait_nanos > 0,
        "queue wait must be measured: {timings:?}"
    );
    assert!(timings.scan_nanos > 0, "scan must be measured: {timings:?}");
    assert!(
        timings.stage_sum() <= timings.total_nanos,
        "stages are sub-intervals of the total: {timings:?}"
    );
    // The unattributed remainder (batch dispatch, channel hops) must be
    // bounded — the stages genuinely account for the residence time.
    let overhead = timings.total_nanos - timings.stage_sum();
    assert!(
        overhead < Duration::from_millis(250).as_nanos() as u64,
        "unattributed overhead {overhead}ns is implausibly large: {timings:?}"
    );
    server.shutdown();
}

/// A deliberately slow query (threshold 0 admits everything) lands in the
/// slow-query ring with its trace id, search knobs and deadline slack.
#[test]
fn slow_query_ring_captures_shape_knobs_and_deadline_slack() {
    let obs = ObsHandle::with_slow_threshold(0);
    let (mut server, _) = start_obs_server(2, &obs);
    let queries = fixture_index(32, 4, 7).0;
    let mut client = Client::connect(server.local_addr(), Duration::from_secs(5)).unwrap();

    let mut req = request(31, &queries, 0, 8);
    req.deadline_ms = 2_000; // generous: the slack must come back positive
    let trace_id = next_trace_id();
    let (_, _) = client.search_traced(trace_id, &req).unwrap();

    let slow = obs.obs().unwrap().slow_log().recent();
    let entry = slow
        .iter()
        .find(|q| q.trace_id == trace_id)
        .expect("the traced query must be in the ring");
    assert_eq!(entry.queries, 8);
    assert_eq!(entry.dim, DIM as u32);
    assert_eq!(entry.r, 5);
    assert_eq!(entry.nprobe, 4);
    assert!(
        entry.deadline_slack_nanos > 0,
        "a query finished well before its deadline has positive slack: {entry:?}"
    );
    assert!(entry.timings.total_nanos > 0);
    server.shutdown();
}

/// The `Stats` frame and the local drain-summary snapshot report the same
/// numbers — they read the same atomics.
#[test]
fn stats_frame_agrees_with_drain_summary_counters() {
    let obs = ObsHandle::enabled();
    let (mut server, _) = start_obs_server(2, &obs);
    let queries = fixture_index(32, 4, 7).0;
    let mut client = Client::connect(server.local_addr(), Duration::from_secs(5)).unwrap();

    for i in 0..10 {
        let req = request(100 + i, &queries, (i as usize) % 16, 2);
        client.search(&req).unwrap();
    }

    let stats = server.stats();
    assert_eq!(stats.batcher.served, 10);
    let snap = obs.snapshot().unwrap();
    assert_eq!(snap.counter("batcher_served_total"), Some(10));
    assert_eq!(
        snap.counter("batcher_served_total"),
        Some(stats.batcher.served),
        "exposition and drain summary must read the same atomics"
    );

    let prom = client.stats(StatsFormat::Prometheus).unwrap();
    assert!(
        prom.contains("batcher_served_total 10"),
        "prometheus text must carry the served count:\n{prom}"
    );
    assert!(prom.contains("server_frames_total"), "{prom}");

    let json = client.stats(StatsFormat::Json).unwrap();
    assert!(json.contains("\"batcher_served_total\""), "{json}");
    let human = client.stats(StatsFormat::Human).unwrap();
    assert!(human.contains("batcher_served_total"), "{human}");
    server.shutdown();
}

/// A server started without observability answers `Stats` with a typed
/// rejection, not a hang or an empty page.
#[test]
fn stats_frame_is_rejected_without_observability() {
    let (_, index) = fixture_index(256, 8, 42);
    let backend = IvfBackend::new(index, Some(2));
    let mut server = Server::start(Arc::new(backend), ServerConfig::default()).unwrap();
    let mut client = Client::connect(server.local_addr(), Duration::from_secs(5)).unwrap();
    match client.stats(StatsFormat::Human) {
        Err(ClientError::Rejected { status, .. }) => assert_eq!(status, Status::BadRequest),
        other => panic!("expected a typed rejection, got {other:?}"),
    }
    server.shutdown();
}

/// Metrics on, thread counts {1, 2, 4, 7}: every traced serve returns
/// bit-identical neighbours — instrumentation must not perturb results.
#[test]
fn traced_results_are_bit_identical_across_thread_counts() {
    let queries = fixture_index(32, 4, 7).0;
    let mut baseline: Option<(Vec<Vec<knn_graph::Neighbor>>, IvfIndex)> = None;
    for threads in [1usize, 2, 4, 7] {
        let obs = ObsHandle::enabled();
        let (mut server, index) = start_obs_server(threads, &obs);
        let mut client = Client::connect(server.local_addr(), Duration::from_secs(5)).unwrap();
        let req = request(41, &queries, 0, 32);
        let (results, _) = client.search_traced(next_trace_id(), &req).unwrap();
        match &baseline {
            None => baseline = Some((results, index)),
            Some((want, _)) => assert_eq!(
                &results, want,
                "results diverged at {threads} threads with metrics on"
            ),
        }
        server.shutdown();
    }
    let (results, index) = baseline.unwrap();
    let params = IvfSearchParams::default().nprobe(4).threads(1);
    let want = index.batch_search(&queries, 5, params);
    assert_eq!(
        results, want,
        "served baseline must equal the direct search"
    );
}

/// Chaos: garbage HTTP and a slow-loris on the exposition port while real
/// queries flow — every query succeeds and the listener still answers a
/// clean scrape afterwards.
#[test]
fn metrics_listener_survives_hostile_http_while_queries_flow() {
    let obs = ObsHandle::enabled();
    let (mut server, _) = start_obs_server(2, &obs);
    let mut metrics = MetricsServer::start("127.0.0.1:0", obs.clone()).unwrap();
    let metrics_addr = metrics.local_addr();
    let queries = fixture_index(32, 4, 7).0;

    let vandal = thread::spawn(move || {
        for i in 0..20 {
            if let Ok(mut s) = TcpStream::connect(metrics_addr) {
                let _ = s.write_all(&[0x00, 0xFF, b'\r', b'\n', i as u8, b'\n', b'\n']);
            }
        }
        // Slow-loris: partial request lines, held open briefly, dropped.
        let mut held = Vec::new();
        for _ in 0..4 {
            if let Ok(mut s) = TcpStream::connect(metrics_addr) {
                let _ = s.write_all(b"GET /metr");
                held.push(s);
            }
        }
        thread::sleep(Duration::from_millis(100));
        drop(held);
    });

    let mut client = Client::connect(server.local_addr(), Duration::from_secs(5)).unwrap();
    for i in 0..50u64 {
        let req = request(1_000 + i, &queries, (i as usize) % 16, 1);
        let results = client.search(&req).unwrap();
        assert_eq!(results.len(), 1);
    }
    vandal.join().unwrap();

    // The listener must still answer a clean scrape with live counters.
    let mut s = TcpStream::connect(metrics_addr).unwrap();
    s.set_read_timeout(Some(Duration::from_secs(5))).unwrap();
    s.write_all(b"GET /metrics HTTP/1.1\r\nHost: x\r\n\r\n")
        .unwrap();
    let mut body = String::new();
    let _ = std::io::Read::read_to_string(&mut s, &mut body);
    assert!(body.starts_with("HTTP/1.1 200 OK\r\n"), "{body}");
    assert!(body.contains("batcher_served_total"), "{body}");

    metrics.shutdown();
    server.shutdown();
}

/// The default-threshold slow log stays empty under fast queries, and the
/// timings handed back for an expired request report its whole queue life.
#[test]
fn fast_queries_stay_out_of_the_default_slow_log() {
    let obs = ObsHandle::enabled(); // 25 ms threshold
    let (mut server, _) = start_obs_server(2, &obs);
    let queries = fixture_index(32, 4, 7).0;
    let mut client = Client::connect(server.local_addr(), Duration::from_secs(5)).unwrap();
    let req = request(51, &queries, 0, 1);
    client.search(&req).unwrap();
    // A 1-query scan of a 256-vector index is microseconds; it must not
    // pollute the ring reserved for genuinely slow queries.
    let slow = obs.obs().unwrap().slow_log().recent();
    assert!(
        slow.iter().all(|q| q.timings.total_nanos >= 25_000_000),
        "only genuinely slow queries may be retained: {slow:?}"
    );
    server.shutdown();
}

/// StageTimings default is all-zero (what untraced rejections carry).
#[test]
fn default_stage_timings_are_zero() {
    let t = StageTimings::default();
    assert_eq!(t.stage_sum(), 0);
    assert_eq!(t.total_nanos, 0);
}
