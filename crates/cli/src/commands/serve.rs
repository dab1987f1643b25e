//! `serve` — run the fault-tolerant dynamic-batching TCP query server over a
//! saved IVF index.
//!
//! The command loads the index, binds the GKSQ server and then parks in a
//! poll loop watching two stop conditions: the SIGINT/SIGTERM latch
//! ([`serve::signal`]) and a `Shutdown` control frame from a client (sent by
//! `gkm-cli query --shutdown`).  Either one triggers the same graceful drain
//! — stop accepting, answer everything admitted, join every thread — after
//! which the command prints a counter summary and exits 0.

use std::sync::Arc;
use std::time::Duration;

use ivf::store::wal_path;
use ivf::{IvfIndex, MutableStore};
use obs::ObsHandle;
use serve::batcher::{BatcherConfig, IvfBackend, MutableIvfBackend};
use serve::metrics::MetricsServer;
use serve::server::{Server, ServerConfig, StopReason};
use serve::signal;
use serve::MutableBackend;

use crate::args::Args;
use crate::error::CliError;

/// Usage text for `serve`.
pub const USAGE: &str = "\
serve --index <index.ivf> [--addr <host:port>]   (default 127.0.0.1:0 —
                                  an ephemeral port, printed once bound)
      [--mutable]                 (serve INSERT/DELETE/COMPACT frames too:
                                  attaches a crash-consistent journal beside
                                  the checkpoint; implied when <index>.wal
                                  already exists — recovery replays it)
      [--max-batch <n>]           (queries per backend call, default 64)
      [--queue-cap <n>]           (admission bound in queued queries;
                                  beyond it requests are shed OVERLOADED)
      [--resume-depth <n>]        (shedding stops once the queue drains
                                  to this depth; default queue-cap / 4)
      [--max-conns <n>]           (connection cap, default 256)
      [--threads <n>]             (worker threads per batch search)
      [--sq8]                     (serve from the quantized tier: scan u8
                                  panels, re-rank survivors exactly; the
                                  index must carry an SQ8 tier — build with
                                  `index build --sq8`)
      [--metrics-addr <host:port>] (additionally serve the metrics registry
                                  as Prometheus text over plain HTTP at
                                  /metrics, and as JSON at /json)
      [--slow-ms <ms>]            (slow-query ring threshold, default 25;
                                  queries at or above it are retained with
                                  their stage timings for `gkm-cli stats`)
      [--port-file <path>]        (write the bound port for scripts/tests)
Serves batched ANN queries over TCP (GKSQ protocol) until SIGINT/SIGTERM or a
client Shutdown frame, then drains gracefully: every admitted request is
answered before the process exits.  In mutable mode every acknowledged
mutation is journalled and fsynced before it is applied, so a crash loses
nothing that was acked.  Observability is always on: a running server
answers `gkm-cli stats` and traced `gkm-cli query --trace` requests.";

/// How often the serve loop polls the signal latch and the server state.
const POLL_TICK: Duration = Duration::from_millis(50);

/// Runs `serve`.
pub fn run(args: &Args) -> Result<(), CliError> {
    let index_path = args.required("index")?;
    let addr = args.string_or("addr", "127.0.0.1:0");
    let max_batch = args.usize_or("max-batch", 64)?;
    let defaults = BatcherConfig::default();
    let queue_cap = args.usize_or("queue-cap", defaults.queue_cap)?;
    let resume_depth = args.usize_or("resume-depth", (queue_cap / 4).max(1))?;
    let max_connections = args.usize_or("max-conns", 256)?;
    let threads = args.threads_opt()?;
    let port_file = args.optional("port-file");
    let metrics_addr = args.optional("metrics-addr");
    let slow_ms = args.u64_or("slow-ms", 25)?;
    let mutable = args.flag("mutable");
    let sq8 = args.flag("sq8");
    args.finish()?;

    // Observability is always on for the CLI server: the overhead is one
    // relaxed atomic per event (gated in CI at ≤ 5% on serve latency), and
    // in exchange `stats`, `query --trace` and `--metrics-addr` all just
    // work against any `gkm-cli serve`.
    let obs = ObsHandle::with_slow_threshold(slow_ms.saturating_mul(1_000_000));

    let config = ServerConfig {
        addr: addr.clone(),
        batcher: BatcherConfig {
            max_batch,
            queue_cap,
            resume_depth,
        },
        max_connections,
        ..ServerConfig::default()
    };

    // An existing journal beside the checkpoint implies mutable serving:
    // ignoring it would silently discard acknowledged mutations.
    let wal = wal_path(&index_path);
    let mut server = if mutable || wal.exists() {
        let (store, report) = if wal.exists() {
            MutableStore::open(&index_path)
                .map_err(|e| CliError::store(format!("cannot recover {index_path}"), e))?
        } else {
            let index = IvfIndex::load(&index_path)
                .map_err(|e| CliError::store(format!("cannot read {index_path}"), e))?;
            let store = MutableStore::create(&index_path, index).map_err(|e| {
                CliError::store(format!("cannot attach a journal to {index_path}"), e)
            })?;
            (store, ivf::RecoveryReport::default())
        };
        if sq8 && !store.index().is_quantized() {
            return Err(CliError::Usage(format!(
                "--sq8 requires a quantized index, but {index_path} carries no SQ8 tier \
                 (rebuild with `index build --sq8`)"
            )));
        }
        println!(
            "loaded {index_path}: n = {}, d = {}, {} lists (mutable{}; journal replayed \
             {} records{}{})",
            store.index().live_len(),
            store.index().dim(),
            store.index().nlist(),
            if sq8 { ", sq8 serving tier" } else { "" },
            report.replayed,
            if report.skipped > 0 {
                format!(", {} already checkpointed", report.skipped)
            } else {
                String::new()
            },
            if report.torn_tail_dropped {
                ", torn tail dropped"
            } else {
                ""
            },
        );
        let backend: Arc<dyn MutableBackend> =
            Arc::new(MutableIvfBackend::new(store, threads).quantized(sq8));
        Server::start_mutable_obs(backend, config, &obs)
    } else {
        let index = IvfIndex::load(&index_path)
            .map_err(|e| CliError::store(format!("cannot read {index_path}"), e))?;
        if sq8 && !index.is_quantized() {
            return Err(CliError::Usage(format!(
                "--sq8 requires a quantized index, but {index_path} carries no SQ8 tier \
                 (rebuild with `index build --sq8`)"
            )));
        }
        println!(
            "loaded {index_path}: n = {}, d = {}, {} lists{}",
            index.len(),
            index.dim(),
            index.nlist(),
            if sq8 { " (sq8 serving tier)" } else { "" }
        );
        Server::start_obs(
            Arc::new(IvfBackend::new(index, threads).quantized(sq8)),
            config,
            &obs,
        )
    }
    .map_err(|e| CliError::io(format!("cannot bind {addr}"), e))?;

    let mut metrics = match &metrics_addr {
        Some(maddr) => {
            let m = MetricsServer::start(maddr, obs.clone())
                .map_err(|e| CliError::io(format!("cannot bind metrics listener {maddr}"), e))?;
            println!("metrics on http://{}/metrics", m.local_addr());
            Some(m)
        }
        None => None,
    };

    signal::install();
    let bound = server.local_addr();
    println!("serving on {bound} (Ctrl-C or `gkm-cli query --addr {bound} --shutdown` to drain)");
    if let Some(path) = &port_file {
        // Written after the bind so a watching script sees a usable port.
        std::fs::write(path, format!("{}\n", bound.port()))
            .map_err(|e| CliError::io(format!("cannot write {path}"), e))?;
    }

    let reason = loop {
        if signal::shutdown_requested() {
            break server.shutdown();
        }
        if server.is_finished() {
            break server.join();
        }
        std::thread::sleep(POLL_TICK);
    };

    let stats = server.stats();
    println!(
        "drained ({}) — {} accepted / {} served / {} shed / {} deadline-expired / {} internal; \
         {} mutations journalled / {} applied / {} compactions; \
         {} connections ({} refused), {} protocol errors",
        match reason {
            StopReason::CtlFrame => "shutdown frame",
            StopReason::Requested => "signal",
        },
        stats.batcher.accepted,
        stats.batcher.served,
        stats.batcher.shed,
        stats.batcher.deadline_expired,
        stats.batcher.internal_errors,
        stats.batcher.mutations_journaled,
        stats.batcher.mutations_applied,
        stats.batcher.compactions,
        stats.connections_accepted,
        stats.connections_refused,
        stats.protocol_errors,
    );
    if let Some(m) = metrics.as_mut() {
        m.shutdown();
    }
    Ok(())
}
