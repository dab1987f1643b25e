//! End-to-end mutation serving: a real [`ivf::MutableStore`] behind
//! [`serve::MutableIvfBackend`], driven over TCP with GKSQ mutation frames.
//!
//! The invariants under test:
//!
//! * an insert ack is **durable**: after the server drains, reopening the
//!   store from disk replays exactly the acknowledged mutations;
//! * searches interleaved with mutations observe the fence — a vector is
//!   findable immediately after its insert ack and gone immediately after
//!   its delete ack;
//! * `COMPACT` hot-swaps the serving generation under concurrent search
//!   load without a single failed or torn response;
//! * an immutable server answers mutation frames `BAD_REQUEST`.

use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::thread;
use std::time::Duration;

use ivf::{IvfIndex, MutableStore};
use rand::Rng;
use serve::client::{Client, ClientError};
use serve::protocol::{SearchRequest, Status};
use serve::server::{Server, ServerConfig};
use serve::{IvfBackend, MutableIvfBackend};
use vecstore::sample::rng_from_seed;
use vecstore::VectorSet;

const DIM: usize = 4;

fn scratch_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!(
        "gkm-serve-mut-{tag}-{}-{:?}",
        std::process::id(),
        thread::current().id()
    ));
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

fn fixture_index(n: usize, k: usize, seed: u64) -> IvfIndex {
    let mut rng = rng_from_seed(seed);
    let rows: Vec<Vec<f32>> = (0..n)
        .map(|_| (0..DIM).map(|_| rng.gen_range(0..9) as f32).collect())
        .collect();
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
    IvfIndex::build(&data, &centroids, &labels).unwrap()
}

fn search_one(client: &mut Client, id: u64, query: &[f32], r: u16) -> Vec<u32> {
    let results = client
        .search(&SearchRequest {
            id,
            deadline_ms: 0,
            r,
            nprobe: 8,
            dim: DIM as u32,
            queries: query.to_vec(),
        })
        .unwrap();
    results[0].iter().map(|n| n.id).collect()
}

#[test]
fn acked_mutations_are_findable_and_survive_a_drain() {
    let dir = scratch_dir("durable");
    let index_path = dir.join("live.ivf");
    let store = MutableStore::create(&index_path, fixture_index(64, 4, 11)).unwrap();
    let backend = Arc::new(MutableIvfBackend::new(store, Some(1)));
    let mut server = Server::start_mutable(
        Arc::clone(&backend) as Arc<dyn serve::MutableBackend>,
        ServerConfig::default(),
    )
    .unwrap();
    let mut client = Client::connect(server.local_addr(), Duration::from_secs(5)).unwrap();

    // Insert a far-away outlier; its ack carries the assigned id and it is
    // immediately the nearest neighbour of itself.
    let outlier = vec![100.0; DIM];
    let ack = client.insert(1, DIM as u32, outlier.clone()).unwrap();
    assert_eq!(ack.ids, vec![64]);
    assert_eq!(ack.live, 65);
    assert_eq!(search_one(&mut client, 2, &outlier, 1), vec![64]);

    // Delete it; it must vanish from results at once.
    let ack = client.delete(3, vec![64, 9999]).unwrap();
    assert_eq!(ack.ids, vec![64], "only the live id counts as deleted");
    assert_eq!(ack.live, 64);
    assert_ne!(search_one(&mut client, 4, &outlier, 1), vec![64]);

    // A second insert after the delete gets a fresh (monotone) id.
    let ack = client.insert(5, DIM as u32, vec![200.0; DIM]).unwrap();
    assert_eq!(ack.ids, vec![65]);

    server.shutdown();
    // Persist nothing manually: reopening must replay the journal and land
    // on exactly the acknowledged state.
    drop(client);
    drop(server); // releases the batcher's backend Arc
    let store = Arc::into_inner(backend).unwrap().into_store();
    drop(store); // release the WAL handle before reopening
    let (reopened, report) = MutableStore::open(&index_path).unwrap();
    assert_eq!(report.replayed, 4, "insert + 2 delete records + insert");
    assert!(!report.torn_tail_dropped);
    assert!(reopened.index().is_live(65));
    assert!(!reopened.index().is_live(64));
    assert_eq!(reopened.index().live_len(), 65);
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn compact_hot_swaps_under_concurrent_search_load() {
    let dir = scratch_dir("hotswap");
    let index_path = dir.join("live.ivf");
    let store = MutableStore::create(&index_path, fixture_index(128, 8, 23)).unwrap();
    let backend = Arc::new(MutableIvfBackend::new(store, Some(1)));
    let mut server = Server::start_mutable(
        Arc::clone(&backend) as Arc<dyn serve::MutableBackend>,
        ServerConfig::default(),
    )
    .unwrap();
    let addr = server.local_addr();

    // Background searchers hammer the server across the swap.
    let stop = Arc::new(AtomicBool::new(false));
    let searchers: Vec<_> = (0..3)
        .map(|t| {
            let stop = Arc::clone(&stop);
            thread::spawn(move || {
                let mut client = Client::connect(addr, Duration::from_secs(5)).unwrap();
                let mut served = 0u64;
                let mut id = 1_000 * (t + 1);
                while !stop.load(Ordering::Relaxed) {
                    let q = vec![(id % 9) as f32; DIM];
                    let r = search_one(&mut client, id, &q, 3);
                    assert_eq!(r.len(), 3, "every response carries r results");
                    served += 1;
                    id += 1;
                }
                served
            })
        })
        .collect();

    let mut client = Client::connect(addr, Duration::from_secs(5)).unwrap();
    // Mutation storm with periodic compactions: every ack must be Ok.
    let mut inserted = Vec::new();
    for round in 0..8u64 {
        let ack = client
            .insert(round * 10 + 1, DIM as u32, vec![50.0 + round as f32; DIM])
            .unwrap();
        inserted.extend(ack.ids.iter().copied());
        if round % 2 == 1 {
            let victim = inserted.remove(0);
            client.delete(round * 10 + 2, vec![victim]).unwrap();
        }
        if round % 3 == 2 {
            let ack = client.compact(round * 10 + 3).unwrap();
            assert_eq!(ack.status, Status::Ok);
        }
    }
    stop.store(true, Ordering::Relaxed);
    let mut total = 0;
    for s in searchers {
        total += s.join().unwrap();
    }
    assert!(total > 0, "searchers must have run during the storm");

    server.shutdown();
    drop(client);
    drop(server); // releases the batcher's backend Arc
                  // After the final compaction cycle the surviving inserts are exactly the
                  // live appends; reopen and compare against the journal's promise.
    let store = Arc::into_inner(backend).unwrap().into_store();
    let live: Vec<u32> = inserted
        .iter()
        .copied()
        .filter(|&id| store.index().is_live(id))
        .collect();
    assert_eq!(live, inserted, "acked inserts minus acked deletes survive");
    drop(store);
    let (reopened, _) = MutableStore::open(&index_path).unwrap();
    for &id in &inserted {
        assert!(reopened.index().is_live(id), "id {id} lost across reopen");
    }
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn immutable_server_answers_mutations_bad_request() {
    let index = fixture_index(64, 4, 5);
    let backend = IvfBackend::new(index, Some(1));
    let mut server = Server::start(Arc::new(backend), ServerConfig::default()).unwrap();
    let mut client = Client::connect(server.local_addr(), Duration::from_secs(5)).unwrap();

    let err = client.insert(1, DIM as u32, vec![1.0; DIM]).unwrap_err();
    match err {
        ClientError::Rejected { status, message } => {
            assert_eq!(status, Status::BadRequest);
            assert!(message.contains("immutable"), "got: {message}");
        }
        other => panic!("expected a typed rejection, got {other}"),
    }
    // The connection survives and searches still work.
    assert_eq!(search_one(&mut client, 2, &[1.0; DIM], 3).len(), 3);
    server.shutdown();
}
