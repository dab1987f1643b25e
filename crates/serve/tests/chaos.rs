//! Chaos suite for the serving stack: hostile clients, overload floods,
//! deadline storms, injected worker panics, and graceful drains.
//!
//! The invariants under test (the PR's acceptance bar):
//!
//! * the server **never panics** — every scenario ends with the server still
//!   answering a well-formed request (or drained deliberately);
//! * every *accepted* request receives **exactly one typed response** (`OK`,
//!   `DEADLINE_EXCEEDED`, `OVERLOADED`, or `INTERNAL`) — nothing is silently
//!   dropped;
//! * connections are **never leaked** — open-connection gauges return to
//!   zero after the clients leave;
//! * a graceful shutdown **drains** all in-flight work.
//!
//! Loads are kept deliberately small (hundreds of requests, tiny indexes):
//! the CI container is single-digit cores and the point is the failure
//! semantics, not throughput.

use std::io::{Read, Write};
use std::net::TcpStream;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Barrier};
use std::thread;
use std::time::{Duration, Instant};

use ivf::{IvfIndex, IvfSearchParams};
use knn_graph::Neighbor;
use rand::Rng;
use serve::batcher::BatcherConfig;
use serve::client::{Client, ClientError};
use serve::protocol::{frame_crc, FrameKind, SearchRequest, Status, HEADER_LEN, MAGIC, VERSION};
use serve::server::{Server, ServerConfig, StopReason};
use serve::{IvfBackend, SearchBackend};
use vecstore::sample::rng_from_seed;
use vecstore::VectorSet;

const DIM: usize = 8;

/// Small integer-lattice corpus (exact f32 distances) and a fitted index.
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

fn quick_config() -> ServerConfig {
    ServerConfig {
        idle_timeout: Duration::from_secs(10),
        frame_timeout: Duration::from_millis(300),
        ..ServerConfig::default()
    }
}

fn start_ivf_server(config: ServerConfig) -> (Server, IvfIndex) {
    let (_, index) = fixture_index(256, 8, 42);
    let backend = IvfBackend::new(index.clone(), Some(2));
    let served_index = backend.index().clone();
    let server = Server::start(Arc::new(backend), config).unwrap();
    (server, served_index)
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

/// Served results must be bit-identical to a direct index search.
#[test]
fn served_results_match_direct_search_bit_for_bit() {
    let (server, index) = start_ivf_server(quick_config());
    let queries = fixture_index(32, 4, 7).0;
    let mut client = Client::connect(server.local_addr(), Duration::from_secs(5)).unwrap();

    let req = request(11, &queries, 0, 32);
    let got = client.search(&req).unwrap();
    let params = IvfSearchParams::default().nprobe(4).threads(1);
    let want = index.batch_search(&queries, 5, params);
    assert_eq!(got, want, "served neighbours must equal the direct search");

    let mut server = server;
    server.shutdown();
}

/// A quantized backend serves the SQ8 overfetch + re-rank path end to end;
/// the served neighbours are bit-identical to the direct quantized search.
#[test]
fn quantized_serving_matches_direct_sq8_search() {
    let (_, mut index) = fixture_index(256, 8, 42);
    index.quantize();
    let backend = IvfBackend::new(index.clone(), Some(2)).quantized(true);
    let server = Server::start(Arc::new(backend), quick_config()).unwrap();
    let queries = fixture_index(32, 4, 7).0;
    let mut client = Client::connect(server.local_addr(), Duration::from_secs(5)).unwrap();

    let req = request(21, &queries, 0, 32);
    let got = client.search(&req).unwrap();
    let params = IvfSearchParams::default().nprobe(4).threads(1).sq8(true);
    let want = index.batch_search(&queries, 5, params);
    assert_eq!(
        got, want,
        "served quantized neighbours must equal the direct sq8 search"
    );

    let mut server = server;
    server.shutdown();
}

/// Quantized mode over an index with no SQ8 tier fails the batch with a
/// typed error — the backend stays serviceable, nothing unwinds.
#[test]
fn quantized_mode_on_unquantized_index_is_a_typed_error() {
    let (_, index) = fixture_index(64, 4, 9);
    let backend = IvfBackend::new(index, Some(1)).quantized(true);
    let queries = fixture_index(4, 2, 5).0;
    assert!(matches!(
        backend.search_batch(&queries, 3, 2).unwrap_err(),
        vecstore::Error::InvalidParameter(_)
    ));
}

/// Mid-frame disconnects must not wedge or crash the server, and must not
/// affect other connections.
#[test]
fn mid_frame_disconnects_are_contained() {
    let (server, _) = start_ivf_server(quick_config());
    let addr = server.local_addr();
    let queries = fixture_index(16, 4, 9).0;

    // A full valid frame, cut at every prefix length, sent by a client that
    // then vanishes.
    let mut full = Vec::new();
    serve::protocol::write_search(&mut full, &request(1, &queries, 0, 4)).unwrap();
    for cut in [
        1usize,
        4,
        HEADER_LEN - 1,
        HEADER_LEN,
        HEADER_LEN + 5,
        full.len() - 1,
    ] {
        let mut s = TcpStream::connect(addr).unwrap();
        s.write_all(&full[..cut]).unwrap();
        drop(s); // disconnect mid-frame
    }

    // The server still serves a well-behaved client afterwards.
    let mut client = Client::connect(addr, Duration::from_secs(5)).unwrap();
    let results = client.search(&request(2, &queries, 0, 2)).unwrap();
    assert_eq!(results.len(), 2);

    let mut server = server;
    server.shutdown();
    let stats = server.stats();
    assert_eq!(stats.connections_open, 0, "no leaked connections");
}

/// Corrupt frames (every class: flipped bits, bad magic, hostile length)
/// are answered with a typed error or a close — never a panic, never a
/// garbage search result.
#[test]
fn corrupt_frames_get_typed_rejections() {
    let (server, _) = start_ivf_server(quick_config());
    let addr = server.local_addr();
    let queries = fixture_index(16, 4, 13).0;

    let mut clean = Vec::new();
    serve::protocol::write_search(&mut clean, &request(3, &queries, 0, 2)).unwrap();

    // Bit flips across the frame (header, length field, payload).
    let mut rng = rng_from_seed(1234);
    for _ in 0..24 {
        let byte = rng.gen_range(0..clean.len());
        let bit = rng.gen_range(0..8u32);
        let mut evil = clean.clone();
        evil[byte] ^= 1 << bit;
        let mut s = TcpStream::connect(addr).unwrap();
        s.set_read_timeout(Some(Duration::from_secs(5))).unwrap();
        s.write_all(&evil).unwrap();
        // The server either answers BAD_REQUEST or closes on the malformed
        // frame; both are acceptable, panicking or hanging is not.
        let mut buf = [0u8; 1024];
        let _ = s.read(&mut buf);
    }

    // A frame declaring a 4 GiB payload must be rejected without allocation.
    let mut header = [0u8; HEADER_LEN];
    header[..4].copy_from_slice(&MAGIC);
    header[4..6].copy_from_slice(&VERSION.to_le_bytes());
    header[6] = FrameKind::Search as u8;
    header[8..12].copy_from_slice(&u32::MAX.to_le_bytes());
    let mut h12 = [0u8; 12];
    h12.copy_from_slice(&header[..12]);
    header[12..16].copy_from_slice(&frame_crc(&h12, &[]).to_le_bytes());
    let mut s = TcpStream::connect(addr).unwrap();
    s.set_read_timeout(Some(Duration::from_secs(5))).unwrap();
    s.write_all(&header).unwrap();
    let mut buf = Vec::new();
    let _ = s.read_to_end(&mut buf); // server answers BAD_REQUEST and closes

    // Still alive and correct afterwards.
    let mut client = Client::connect(addr, Duration::from_secs(5)).unwrap();
    assert!(client.ping().is_ok());
    assert_eq!(client.search(&request(4, &queries, 0, 1)).unwrap().len(), 1);

    let mut server = server;
    server.shutdown();
    assert!(server.stats().protocol_errors > 0);
    assert_eq!(server.stats().connections_open, 0);
}

/// A slow-loris client dribbling a frame one byte at a time is cut off by
/// the frame timeout instead of occupying a connection forever.
#[test]
fn slow_loris_is_disconnected_by_the_frame_timeout() {
    let mut config = quick_config();
    config.frame_timeout = Duration::from_millis(200);
    let (server, _) = start_ivf_server(config);
    let addr = server.local_addr();
    let queries = fixture_index(8, 2, 5).0;

    let mut full = Vec::new();
    serve::protocol::write_search(&mut full, &request(5, &queries, 0, 1)).unwrap();
    let mut s = TcpStream::connect(addr).unwrap();
    s.set_read_timeout(Some(Duration::from_secs(10))).unwrap();
    // Dribble a few bytes, then stall past the budget.
    s.write_all(&full[..6]).unwrap();
    let start = Instant::now();
    let mut buf = Vec::new();
    let n = s.read_to_end(&mut buf); // returns once the server gives up on us
    assert!(n.is_ok(), "server must close, not reset mid-read: {n:?}");
    assert!(
        start.elapsed() < Duration::from_secs(8),
        "slow-loris connection was not cut off in time"
    );

    let mut server = server;
    server.shutdown();
    assert_eq!(server.stats().connections_open, 0);
}

/// Deadline storm: a burst of requests with tiny deadlines against a slow
/// backend.  Every request must be answered (OK or DEADLINE_EXCEEDED);
/// expired requests must not burn backend work after the fact.
#[test]
fn deadline_storm_answers_every_request() {
    /// Backend that takes ~5ms per batch, so tiny deadlines expire while
    /// batches queue behind each other.
    struct SlowBackend(Arc<dyn SearchBackend>);
    impl SearchBackend for SlowBackend {
        fn dim(&self) -> usize {
            self.0.dim()
        }
        fn search_batch(
            &self,
            queries: &VectorSet,
            r: usize,
            nprobe: usize,
        ) -> vecstore::Result<Vec<Vec<Neighbor>>> {
            thread::sleep(Duration::from_millis(5));
            self.0.search_batch(queries, r, nprobe)
        }
    }
    let (_, index) = fixture_index(128, 4, 21);
    let backend = SlowBackend(Arc::new(IvfBackend::new(index, Some(1))));
    let server = Server::start(
        Arc::new(backend),
        ServerConfig {
            batcher: BatcherConfig {
                // Batch capacity (2 queries / 5 ms) far below the offered
                // load of 8 synchronous clients, so requests genuinely queue
                // behind a busy backend and their 1–3 ms budgets expire.
                max_batch: 2,
                ..BatcherConfig::default()
            },
            ..ServerConfig::default()
        },
    )
    .unwrap();
    let addr = server.local_addr();
    let queries = fixture_index(64, 4, 23).0;

    let handles: Vec<_> = (0..8u64)
        .map(|t| {
            let queries = queries.clone();
            thread::spawn(move || {
                let mut ok = 0u64;
                let mut deadline = 0u64;
                let mut other = 0u64;
                let mut client = Client::connect(addr, Duration::from_secs(10)).unwrap();
                for i in 0..25u64 {
                    let mut req = request(t * 1000 + i, &queries, (i as usize) % 32, 1);
                    req.deadline_ms = 1 + (i % 3) as u32; // 1–3 ms budgets
                    match client.search(&req) {
                        Ok(results) => {
                            assert_eq!(results.len(), 1);
                            ok += 1;
                        }
                        Err(ClientError::Rejected {
                            status: Status::DeadlineExceeded,
                            ..
                        }) => deadline += 1,
                        Err(ClientError::Rejected { .. }) => other += 1,
                        Err(e) => panic!("unexpected transport/protocol error: {e}"),
                    }
                }
                (ok, deadline, other)
            })
        })
        .collect();
    let mut total_ok = 0;
    let mut total_deadline = 0;
    let mut total_other = 0;
    for h in handles {
        let (ok, deadline, other) = h.join().unwrap();
        total_ok += ok;
        total_deadline += deadline;
        total_other += other;
    }
    assert_eq!(
        total_ok + total_deadline + total_other,
        200,
        "every request must be answered exactly once"
    );
    assert!(
        total_deadline > 0,
        "1–3 ms budgets against a 5 ms/batch backend must expire some requests \
         (ok={total_ok}, deadline={total_deadline})"
    );

    let mut server = server;
    server.shutdown();
    let stats = server.stats();
    assert_eq!(stats.connections_open, 0);
    assert_eq!(
        stats.batcher.served
            + stats.batcher.deadline_expired
            + stats.batcher.shed
            + stats.batcher.internal_errors,
        stats.batcher.accepted,
        "batcher accounting must balance: {stats:?}"
    );
}

/// Overload flood: far more concurrent work than the queue admits.  The
/// server must shed typed OVERLOADED responses, keep serving, and recover
/// full service once the flood passes.
#[test]
fn overload_flood_sheds_and_recovers() {
    /// ~2ms per batch so a flood outruns the backend.
    struct SlowBackend(Arc<dyn SearchBackend>);
    impl SearchBackend for SlowBackend {
        fn dim(&self) -> usize {
            self.0.dim()
        }
        fn search_batch(
            &self,
            queries: &VectorSet,
            r: usize,
            nprobe: usize,
        ) -> vecstore::Result<Vec<Vec<Neighbor>>> {
            thread::sleep(Duration::from_millis(2));
            self.0.search_batch(queries, r, nprobe)
        }
    }
    let (_, index) = fixture_index(128, 4, 31);
    let backend = SlowBackend(Arc::new(IvfBackend::new(index, Some(1))));
    let server = Server::start(
        Arc::new(backend),
        ServerConfig {
            batcher: BatcherConfig {
                max_batch: 4,
                queue_cap: 8,
                resume_depth: 2,
            },
            ..ServerConfig::default()
        },
    )
    .unwrap();
    let addr = server.local_addr();
    let queries = fixture_index(64, 4, 33).0;

    let handles: Vec<_> = (0..8u64)
        .map(|t| {
            let queries = queries.clone();
            thread::spawn(move || {
                let mut ok = 0u64;
                let mut shed = 0u64;
                let mut client = Client::connect(addr, Duration::from_secs(10)).unwrap();
                for i in 0..20u64 {
                    let req = request(t * 1000 + i, &queries, (i as usize) % 32, 2);
                    match client.search(&req) {
                        Ok(results) => {
                            assert_eq!(results.len(), 2);
                            ok += 1;
                        }
                        Err(ClientError::Rejected {
                            status: Status::Overloaded,
                            ..
                        }) => shed += 1,
                        Err(e) => panic!("flood must only produce OK/OVERLOADED, got {e}"),
                    }
                }
                (ok, shed)
            })
        })
        .collect();
    let mut total_ok = 0u64;
    let mut total_shed = 0u64;
    for h in handles {
        let (ok, shed) = h.join().unwrap();
        total_ok += ok;
        total_shed += shed;
    }
    assert_eq!(total_ok + total_shed, 160, "answered-or-shed, exactly once");
    assert!(
        total_shed > 0,
        "an 8-deep queue under 8×20 requests must shed"
    );
    assert!(total_ok > 0, "shedding must not starve all service");

    // Flood over: hysteresis must recover and serve cleanly again.
    let mut client = Client::connect(addr, Duration::from_secs(5)).unwrap();
    let mut recovered = false;
    for attempt in 0..50 {
        match client.search(&request(99_999, &queries, 0, 1)) {
            Ok(_) => {
                recovered = true;
                break;
            }
            Err(ClientError::Rejected {
                status: Status::Overloaded,
                ..
            }) => thread::sleep(Duration::from_millis(10 * (attempt + 1))),
            Err(e) => panic!("unexpected post-flood error: {e}"),
        }
    }
    assert!(recovered, "server did not recover service after the flood");

    let mut server = server;
    server.shutdown();
    assert_eq!(server.stats().connections_open, 0);
}

/// An injected worker panic fails only the affected batch with INTERNAL;
/// the pool respawns and the server keeps serving every later request.
#[test]
fn injected_worker_panic_fails_one_batch_and_serving_continues() {
    /// Panics (on the pool's worker threads, via the checked batch API)
    /// whenever the poison flag is set.
    struct PoisonableBackend {
        inner: IvfBackend,
        poison: AtomicBool,
    }
    impl SearchBackend for PoisonableBackend {
        fn dim(&self) -> usize {
            self.inner.dim()
        }
        fn search_batch(
            &self,
            queries: &VectorSet,
            r: usize,
            nprobe: usize,
        ) -> vecstore::Result<Vec<Vec<Neighbor>>> {
            if self.poison.swap(false, Ordering::SeqCst) {
                // Route the panic through the worker pool exactly like a
                // kernel bug would surface: inside a pool round, contained
                // by run_blocks_checked.
                vecstore::parallel::run_blocks_checked(2, 4, |b| {
                    if b == 2 {
                        panic!("injected kernel panic in block {b}");
                    }
                    b
                })?;
            }
            self.inner.search_batch(queries, r, nprobe)
        }
    }
    let (_, index) = fixture_index(128, 4, 51);
    let backend = Arc::new(PoisonableBackend {
        inner: IvfBackend::new(index, Some(2)),
        poison: AtomicBool::new(false),
    });
    let server = Server::start(
        Arc::clone(&backend) as Arc<dyn SearchBackend>,
        quick_config(),
    )
    .unwrap();
    let addr = server.local_addr();
    let queries = fixture_index(32, 4, 53).0;

    let mut client = Client::connect(addr, Duration::from_secs(5)).unwrap();
    // Healthy request first.
    assert_eq!(client.search(&request(1, &queries, 0, 2)).unwrap().len(), 2);

    // Poisoned round: the batch fails with INTERNAL, nothing crashes.
    backend.poison.store(true, Ordering::SeqCst);
    match client.search(&request(2, &queries, 0, 2)) {
        Err(ClientError::Rejected {
            status: Status::Internal,
            message,
        }) => assert!(
            message.contains("injected kernel panic"),
            "INTERNAL response must carry the contained panic context: {message}"
        ),
        other => panic!("poisoned batch must answer INTERNAL, got {other:?}"),
    }

    // The very next request on the same connection is served again.
    for i in 3..10u64 {
        let results = client.search(&request(i, &queries, 0, 1)).unwrap();
        assert_eq!(results.len(), 1, "request {i} after the panic");
    }

    let mut server = server;
    server.shutdown();
    let stats = server.stats();
    assert_eq!(stats.batcher.internal_errors, 1);
    assert_eq!(stats.connections_open, 0);
}

/// Graceful shutdown via the control frame: in-flight work drains, the ack
/// arrives after earlier responses, and the exit is classified.
#[test]
fn ctl_frame_shutdown_drains_in_flight_work() {
    /// Slow enough that requests are still in flight when shutdown lands.
    struct SlowBackend(Arc<dyn SearchBackend>);
    impl SearchBackend for SlowBackend {
        fn dim(&self) -> usize {
            self.0.dim()
        }
        fn search_batch(
            &self,
            queries: &VectorSet,
            r: usize,
            nprobe: usize,
        ) -> vecstore::Result<Vec<Vec<Neighbor>>> {
            thread::sleep(Duration::from_millis(10));
            self.0.search_batch(queries, r, nprobe)
        }
    }
    let (_, index) = fixture_index(128, 4, 61);
    let backend = SlowBackend(Arc::new(IvfBackend::new(index, Some(1))));
    let mut server = Server::start(
        Arc::new(backend),
        ServerConfig {
            batcher: BatcherConfig {
                max_batch: 1,
                ..BatcherConfig::default()
            },
            ..ServerConfig::default()
        },
    )
    .unwrap();
    let addr = server.local_addr();
    let queries = fixture_index(16, 4, 63).0;

    // Fire requests from worker threads, then shut down mid-stream.
    let in_flight: Vec<_> = (0..3u64)
        .map(|t| {
            let queries = queries.clone();
            thread::spawn(move || {
                let mut client = Client::connect(addr, Duration::from_secs(10)).unwrap();
                client.search(&request(t, &queries, 0, 1))
            })
        })
        .collect();
    thread::sleep(Duration::from_millis(5)); // let them reach the queue

    let mut ctl = Client::connect(addr, Duration::from_secs(5)).unwrap();
    ctl.shutdown_server().unwrap();
    let reason = server.join();
    assert_eq!(reason, StopReason::CtlFrame);

    // Every in-flight request got a real answer (drained, not dropped) or a
    // typed SHUTTING_DOWN if it raced the drain point.
    for h in in_flight {
        match h.join().unwrap() {
            Ok(results) => assert_eq!(results.len(), 1),
            Err(ClientError::Rejected {
                status: Status::ShuttingDown,
                ..
            }) => {}
            Err(e) => panic!("drain must answer or classify, got {e}"),
        }
    }
    assert_eq!(server.stats().connections_open, 0, "drain must close all");
}

/// Signal-path shutdown (`request_shutdown`, what the CLI's SIGINT handler
/// calls) also drains.
#[test]
fn requested_shutdown_drains() {
    let (server, _) = start_ivf_server(quick_config());
    let addr = server.local_addr();
    let queries = fixture_index(8, 2, 71).0;
    let mut client = Client::connect(addr, Duration::from_secs(5)).unwrap();
    assert_eq!(client.search(&request(1, &queries, 0, 1)).unwrap().len(), 1);

    server.request_shutdown();
    let mut server = server;
    assert_eq!(server.join(), StopReason::Requested);
    assert_eq!(server.stats().connections_open, 0);
}

/// Pipelined requests on one connection all get answered with matching ids.
#[test]
fn pipelined_requests_are_all_answered() {
    let (server, _) = start_ivf_server(quick_config());
    let addr = server.local_addr();
    let queries = fixture_index(32, 4, 81).0;

    // Write N frames back-to-back before reading anything.
    let mut s = TcpStream::connect(addr).unwrap();
    s.set_read_timeout(Some(Duration::from_secs(10))).unwrap();
    let n = 16u64;
    let mut blob = Vec::new();
    for i in 0..n {
        serve::protocol::write_search(&mut blob, &request(i, &queries, i as usize, 1)).unwrap();
    }
    s.write_all(&blob).unwrap();

    let mut seen = std::collections::BTreeSet::new();
    let mut buf = Vec::new();
    s.set_read_timeout(Some(Duration::from_secs(10))).unwrap();
    while seen.len() < n as usize {
        let mut chunk = [0u8; 4096];
        let got = s.read(&mut chunk).unwrap();
        assert!(got > 0, "server closed before answering everything");
        buf.extend_from_slice(&chunk[..got]);
        let mut carry: &[u8] = &buf[..];
        loop {
            let mut cursor = carry;
            match serve::protocol::read_frame(&mut cursor, 1 << 20) {
                Ok(Some(frame)) => {
                    carry = cursor;
                    assert_eq!(frame.kind, FrameKind::Response);
                    let resp = serve::protocol::SearchResponse::decode(&frame.payload).unwrap();
                    assert_eq!(resp.status, Status::Ok);
                    assert!(seen.insert(resp.id), "duplicate response id {}", resp.id);
                }
                Ok(None) | Err(serve::protocol::WireError::Truncated) => break,
                Err(e) => panic!("bad response stream: {e}"),
            }
        }
        buf = carry.to_vec();
    }
    assert_eq!(seen.len(), n as usize);
    assert_eq!(
        seen.iter().copied().collect::<Vec<_>>(),
        (0..n).collect::<Vec<_>>()
    );

    let mut server = server;
    server.shutdown();
}

/// The connection cap refuses the overflow connection with a typed
/// response instead of hanging it.
#[test]
fn connection_cap_refuses_with_typed_response() {
    let mut config = quick_config();
    config.max_connections = 2;
    let (server, _) = start_ivf_server(config);
    let addr = server.local_addr();

    let _a = TcpStream::connect(addr).unwrap();
    let _b = TcpStream::connect(addr).unwrap();
    thread::sleep(Duration::from_millis(100)); // let both register

    let mut c = TcpStream::connect(addr).unwrap();
    c.set_read_timeout(Some(Duration::from_secs(5))).unwrap();
    let mut cursor_buf = Vec::new();
    c.read_to_end(&mut cursor_buf).unwrap();
    let mut slice: &[u8] = &cursor_buf;
    let frame = serve::protocol::read_frame(&mut slice, 1 << 20)
        .unwrap()
        .expect("refusal must be a frame, not a silent close");
    let resp = serve::protocol::SearchResponse::decode(&frame.payload).unwrap();
    assert_eq!(resp.status, Status::Overloaded);

    let mut server = server;
    server.shutdown();
    assert!(server.stats().connections_refused >= 1);
}

/// Saturation: batching must come from load now that no per-request timer
/// makes it.
/// Sixteen closed-loop one-query clients share one executor whose every call
/// costs the same ≈ 200 µs whatever it carries, so the backend is the
/// bottleneck from the first request on: while one call runs, the other
/// clients' requests can only queue, and the next call takes them together.
/// The bar (mean batch > 2 of a possible 16) needs no timing luck — it only
/// fails if requests queued behind a busy backend leave one by one.
#[test]
fn saturated_backend_batches_without_a_timer() {
    const CLIENTS: u64 = 16;
    const PER_CLIENT: u64 = 50;

    struct FixedCostBackend(Arc<dyn SearchBackend>);
    impl SearchBackend for FixedCostBackend {
        fn dim(&self) -> usize {
            self.0.dim()
        }
        fn search_batch(
            &self,
            queries: &VectorSet,
            r: usize,
            nprobe: usize,
        ) -> vecstore::Result<Vec<Vec<Neighbor>>> {
            let until = Instant::now() + Duration::from_micros(200);
            while Instant::now() < until {
                std::hint::spin_loop();
            }
            self.0.search_batch(queries, r, nprobe)
        }
    }
    let (_, index) = fixture_index(128, 4, 91);
    let backend = FixedCostBackend(Arc::new(IvfBackend::new(index, Some(1))));
    let server = Server::start(Arc::new(backend), ServerConfig::default()).unwrap();
    let addr = server.local_addr();
    let queries = fixture_index(64, 4, 93).0;

    let start = Arc::new(Barrier::new(CLIENTS as usize));
    let handles: Vec<_> = (0..CLIENTS)
        .map(|t| {
            let queries = queries.clone();
            let start = Arc::clone(&start);
            thread::spawn(move || {
                let mut client = Client::connect(addr, Duration::from_secs(10)).unwrap();
                start.wait();
                for i in 0..PER_CLIENT {
                    let req = request(t * 1000 + i, &queries, (i as usize) % 64, 1);
                    assert_eq!(client.search(&req).unwrap().len(), 1);
                }
            })
        })
        .collect();
    for h in handles {
        h.join().unwrap();
    }

    let mut server = server;
    server.shutdown();
    let stats = server.stats().batcher;
    let requests = CLIENTS * PER_CLIENT;
    assert_eq!(
        (stats.accepted, stats.served),
        (requests, requests),
        "{stats:?}"
    );
    assert_eq!(
        stats.shed + stats.deadline_expired + stats.internal_errors,
        0,
        "{stats:?}"
    );
    assert!(
        stats.batches < requests / 2,
        "{} batches for {requests} requests: queued requests are not leaving together",
        stats.batches
    );
}
