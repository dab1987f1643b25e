//! End-to-end observability coverage driving the real `gkm-cli` binary:
//! `serve --metrics-addr` → `query --trace` → `stats` in all three formats →
//! an HTTP scrape of the metrics listener → graceful shutdown, plus the
//! exit-code taxonomy for the `stats` subcommand.

use std::io::{BufRead, BufReader, Read, Write};
use std::net::TcpStream;
use std::process::{Command, Stdio};
use std::sync::mpsc;
use std::time::{Duration, Instant};

fn gkm(args: &[&str]) -> std::process::Output {
    Command::new(env!("CARGO_BIN_EXE_gkm-cli"))
        .args(args)
        .output()
        .expect("failed to spawn gkm-cli")
}

fn ok_stdout(out: &std::process::Output) -> String {
    assert!(
        out.status.success(),
        "command failed: {}\n{}",
        String::from_utf8_lossy(&out.stderr),
        String::from_utf8_lossy(&out.stdout)
    );
    String::from_utf8_lossy(&out.stdout).into_owned()
}

/// Pulls the integer value of `"key": <digits>` out of (pretty) JSON text —
/// the workspace's offline `serde_json` stand-in has no parser, and these
/// tests only need a few scalar fields.
fn json_u64(text: &str, key: &str) -> u64 {
    let needle = format!("\"{key}\": ");
    let at = text
        .find(&needle)
        .unwrap_or_else(|| panic!("no `{key}` field in:\n{text}"))
        + needle.len();
    let digits: String = text[at..]
        .chars()
        .take_while(char::is_ascii_digit)
        .collect();
    digits
        .parse()
        .unwrap_or_else(|_| panic!("`{key}` is not an integer in:\n{text}"))
}

/// One plain-HTTP GET against the metrics listener; returns the raw response.
fn http_get(addr: &str, path: &str) -> String {
    let mut stream = TcpStream::connect(addr).expect("connect to metrics listener");
    stream
        .set_read_timeout(Some(Duration::from_secs(5)))
        .unwrap();
    write!(stream, "GET {path} HTTP/1.1\r\nHost: {addr}\r\n\r\n").unwrap();
    let mut response = String::new();
    stream.read_to_string(&mut response).expect("read response");
    response
}

#[test]
fn serve_trace_stats_scrape_shutdown_round_trip() {
    let dir = std::env::temp_dir().join(format!("gkm-obs-cli-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let base = dir.join("base.fvecs");
    let queries = dir.join("q.fvecs");
    let index = dir.join("x.ivf");
    let port_file = dir.join("port");
    let (base_s, queries_s) = (base.to_str().unwrap(), queries.to_str().unwrap());
    let (index_s, port_s) = (index.to_str().unwrap(), port_file.to_str().unwrap());

    ok_stdout(&gkm(&[
        "gen-data",
        "--out",
        base_s,
        "--dataset",
        "SIFT100K",
        "--n",
        "600",
        "--queries",
        "20",
        "--queries-out",
        queries_s,
        "--seed",
        "29",
    ]));
    ok_stdout(&gkm(&[
        "index",
        "build",
        "--base",
        base_s,
        "--k",
        "10",
        "--out",
        index_s,
        "--method",
        "lloyd",
        "--iterations",
        "5",
        "--seed",
        "9",
    ]));

    // Spawn the real server with both listeners on ephemeral ports.  The
    // GKSQ port is published through --port-file; the metrics port is
    // announced on stdout, so a reader thread forwards every line.
    let mut server = Command::new(env!("CARGO_BIN_EXE_gkm-cli"))
        .args([
            "serve",
            "--index",
            index_s,
            "--addr",
            "127.0.0.1:0",
            "--metrics-addr",
            "127.0.0.1:0",
            "--slow-ms",
            "0",
            "--port-file",
            port_s,
            "--threads",
            "2",
        ])
        .stdout(Stdio::piped())
        .spawn()
        .expect("failed to spawn serve");
    let (line_tx, line_rx) = mpsc::channel::<String>();
    let stdout = server.stdout.take().expect("serve stdout is piped");
    let reader = std::thread::spawn(move || {
        for line in BufReader::new(stdout).lines().map_while(Result::ok) {
            let _ = line_tx.send(line);
        }
    });

    let deadline = Instant::now() + Duration::from_secs(20);
    let metrics_addr = loop {
        let line = line_rx
            .recv_timeout(deadline.saturating_duration_since(Instant::now()))
            .expect("serve never announced its metrics listener");
        if let Some(rest) = line.strip_prefix("metrics on http://") {
            break rest
                .strip_suffix("/metrics")
                .expect("metrics line ends in /metrics")
                .to_string();
        }
    };
    let port = loop {
        if let Ok(text) = std::fs::read_to_string(&port_file) {
            if let Ok(p) = text.trim().parse::<u16>() {
                break p;
            }
        }
        assert!(Instant::now() < deadline, "serve never published its port");
        std::thread::sleep(Duration::from_millis(20));
    };
    let addr = format!("127.0.0.1:{port}");

    // Traced queries report per-stage timings that are consistent with the
    // total, and the stage breakdown reaches both output formats.
    let out = ok_stdout(&gkm(&[
        "query",
        "--addr",
        &addr,
        "--queries",
        queries_s,
        "--r",
        "5",
        "--nprobe",
        "4",
        "--trace",
    ]));
    assert!(out.contains("trace "), "no trace line in:\n{out}");
    assert!(out.contains("queue "), "{out}");
    assert!(out.contains("scan "), "{out}");
    let out = ok_stdout(&gkm(&[
        "query",
        "--addr",
        &addr,
        "--queries",
        queries_s,
        "--r",
        "5",
        "--nprobe",
        "4",
        "--trace",
        "--json",
    ]));
    assert!(out.contains("\"trace_id\""), "{out}");
    let total = json_u64(&out, "total_nanos");
    let stages = json_u64(&out, "queue_wait_nanos")
        + json_u64(&out, "route_nanos")
        + json_u64(&out, "scan_nanos")
        + json_u64(&out, "rerank_nanos");
    assert!(total > 0, "{out}");
    assert!(
        stages <= total,
        "stage sum {stages} > total {total}:\n{out}"
    );

    // `stats` agrees across its three formats: 40 queries served as 2
    // requests so far, visible everywhere as the served-request counter and
    // the batch-size histogram sum.
    let human = ok_stdout(&gkm(&["stats", "--addr", &addr]));
    assert!(human.contains("batcher_served_total"), "{human}");
    let prom = ok_stdout(&gkm(&["stats", "--addr", &addr, "--prometheus"]));
    assert!(prom.contains("batcher_served_total 2"), "{prom}");
    assert!(prom.contains("batcher_batch_size_sum 40"), "{prom}");
    assert!(prom.contains("server_frames_total"), "{prom}");
    let json = ok_stdout(&gkm(&["stats", "--addr", &addr, "--json"]));
    assert_eq!(json_u64(&json, "batcher_served_total"), 2, "{json}");
    // --slow-ms 0 retains every query, so the ring carries the trace shape.
    assert!(json.contains("slow_queries"), "{json}");
    assert!(json.contains("\"nprobe\": 4"), "{json}");

    // The HTTP listener serves the same registry as the Stats frame.
    let scrape = http_get(&metrics_addr, "/metrics");
    assert!(scrape.starts_with("HTTP/1.1 200"), "{scrape}");
    assert!(scrape.contains("batcher_served_total 2"), "{scrape}");
    let missing = http_get(&metrics_addr, "/nope");
    assert!(missing.starts_with("HTTP/1.1 404"), "{missing}");

    // Exit-code taxonomy for `stats`: missing --addr and contradictory
    // format flags are usage errors (2).
    let out = gkm(&["stats"]);
    assert_eq!(out.status.code(), Some(2));
    let out = gkm(&["stats", "--addr", &addr, "--json", "--prometheus"]);
    assert_eq!(out.status.code(), Some(2));
    assert!(
        String::from_utf8_lossy(&out.stderr).contains("mutually exclusive"),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    // The threaded Alg. 3 method is gone (`alg3` honours GKM_THREADS); its
    // old name is now an unknown method, a usage error.
    let graph_s = dir.join("g.bin");
    let method = concat!("alg3", "-par");
    let out = gkm(&[
        "build-graph",
        "--base",
        base_s,
        "--out",
        graph_s.to_str().unwrap(),
        "--method",
        method,
    ]);
    assert_eq!(out.status.code(), Some(2), "{out:?}");
    assert!(
        String::from_utf8_lossy(&out.stderr).contains("expected alg3, nn-descent, nsw or exact"),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );

    // Graceful shutdown: the drain summary counters match what `stats` saw.
    ok_stdout(&gkm(&["query", "--addr", &addr, "--shutdown"]));
    let status = server.wait().expect("serve did not exit");
    assert!(status.success(), "serve exited with {status:?}");
    reader.join().expect("stdout reader panicked");

    // Against the stopped server `stats` fails as i/o (exit 3).
    let out = gkm(&["stats", "--addr", &addr, "--timeout-ms", "500"]);
    assert_eq!(out.status.code(), Some(3), "{out:?}");

    std::fs::remove_dir_all(&dir).ok();
}
