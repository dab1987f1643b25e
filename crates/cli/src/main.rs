//! `gkm-cli` — command-line front-end for the GK-means reproduction.
//!
//! ```text
//! gkm-cli gen-data     --out base.fvecs --dataset SIFT100K --n 20000
//! gkm-cli build-graph  --base base.fvecs --out graph.bin --method alg3
//! gkm-cli cluster      --base base.fvecs --k 200 --graph graph.bin --labels-out labels.txt
//! gkm-cli search       --base base.fvecs --graph graph.bin --queries q.fvecs --r 10
//! gkm-cli index build  --base base.fvecs --k 200 --out index.ivf
//! gkm-cli index search --index index.ivf --queries q.fvecs --r 10 --nprobe 8
//! gkm-cli index verify --index index.ivf --strict --spot-check 32
//! gkm-cli index compact --index index.ivf
//! gkm-cli serve        --index index.ivf --addr 127.0.0.1:7171
//! gkm-cli query        --addr 127.0.0.1:7171 --queries q.fvecs --r 10
//! gkm-cli stats        --addr 127.0.0.1:7171 --json
//! gkm-cli info         --base base.fvecs --graph graph.bin
//! ```
//!
//! Every subcommand prints its usage with `gkm-cli help <subcommand>`.
//!
//! Failures exit with a classified code — usage 2, I/O 3, corruption 4,
//! internal 5 (see [`error::CliError`]) — so scripts can distinguish "you
//! typo'd a flag" from "your index file is damaged".

mod args;
mod commands;
mod error;

use args::Args;
use error::CliError;

const GLOBAL_USAGE: &str = "\
gkm-cli <subcommand> [options]

Subcommands:
  gen-data      synthesize a clustered dataset and write it as .fvecs
  build-graph   build an approximate KNN graph (Alg. 3, NN-Descent, NSW, exact)
  cluster       run GK-means or a baseline k-means variant
  search        ANN search over a saved graph, with recall evaluation
  index build   cluster a base set and persist an IVF serving index
  index search  batched multi-probe ANN search over a saved IVF index
  index verify  validate a saved IVF index and its journal (checksums, invariants)
  index compact fold the mutation journal into the next clean checkpoint
  serve         run the dynamic-batching TCP query server over a saved index
  query         send query batches (or ping/shutdown) to a running server
  stats         fetch a running server's metrics snapshot and slow-query ring
  info          inspect a dataset / graph file
  help          show this message or a subcommand's options

Exit codes: 0 ok, 2 usage, 3 i/o, 4 corrupt artefact, 5 internal error";

const INDEX_USAGE_HINT: &str = "usage: `index build …`, `index search …`, `index verify …` or \
     `index compact …`; see `gkm-cli help index`";

fn main() {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    std::process::exit(match run(&argv) {
        Ok(()) => 0,
        Err(e) => {
            eprintln!("error ({}): {e}", e.class());
            e.exit_code()
        }
    });
}

fn run(argv: &[String]) -> Result<(), CliError> {
    let Some(command) = argv.first() else {
        println!("{GLOBAL_USAGE}");
        return Ok(());
    };
    let rest = &argv[1..];
    match command.as_str() {
        "gen-data" => commands::gen_data::run(&Args::parse(rest)?),
        "build-graph" => commands::build_graph::run(&Args::parse(rest)?),
        "cluster" => commands::cluster::run(&Args::parse(rest)?),
        "search" => commands::search::run(&Args::parse(rest)?),
        "index" => match rest.first().map(String::as_str) {
            Some("build") => commands::index::run_build(&Args::parse(&rest[1..])?),
            Some("search") => commands::index::run_search(&Args::parse(&rest[1..])?),
            Some("verify") => commands::index::run_verify(&Args::parse(&rest[1..])?),
            Some("compact") => commands::index::run_compact(&Args::parse(&rest[1..])?),
            Some(other) => Err(CliError::Usage(format!(
                "unknown index action `{other}`; {INDEX_USAGE_HINT}"
            ))),
            None => Err(CliError::Usage(format!(
                "missing index action; {INDEX_USAGE_HINT}"
            ))),
        },
        "serve" => commands::serve::run(&Args::parse(rest)?),
        "query" => commands::query::run(&Args::parse(rest)?),
        "stats" => commands::stats::run(&Args::parse(rest)?),
        "info" => commands::info::run(&Args::parse(rest)?),
        "help" | "--help" | "-h" => {
            match rest.first().map(String::as_str) {
                Some("gen-data") => println!("{}", commands::gen_data::USAGE),
                Some("build-graph") => println!("{}", commands::build_graph::USAGE),
                Some("cluster") => println!("{}", commands::cluster::USAGE),
                Some("search") => println!("{}", commands::search::USAGE),
                Some("index") => println!(
                    "{}\n\n{}\n\n{}\n\n{}",
                    commands::index::BUILD_USAGE,
                    commands::index::SEARCH_USAGE,
                    commands::index::VERIFY_USAGE,
                    commands::index::COMPACT_USAGE
                ),
                Some("serve") => println!("{}", commands::serve::USAGE),
                Some("query") => println!("{}", commands::query::USAGE),
                Some("stats") => println!("{}", commands::stats::USAGE),
                Some("info") => println!("{}", commands::info::USAGE),
                _ => println!("{GLOBAL_USAGE}"),
            }
            Ok(())
        }
        other => Err(CliError::Usage(format!(
            "unknown subcommand `{other}`\n\n{GLOBAL_USAGE}"
        ))),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn unknown_subcommand_is_a_usage_error() {
        let err = run(&["frobnicate".to_string()]).unwrap_err();
        assert_eq!(err.exit_code(), 2);
    }

    #[test]
    fn help_paths_succeed() {
        assert!(run(&[]).is_ok());
        assert!(run(&["help".to_string()]).is_ok());
        for sub in [
            "gen-data",
            "build-graph",
            "cluster",
            "search",
            "index",
            "serve",
            "query",
            "stats",
            "info",
        ] {
            assert!(run(&["help".to_string(), sub.to_string()]).is_ok());
        }
    }

    #[test]
    fn spot_check_classifies_semantic_corruption_as_exit_4() {
        let dir = std::env::temp_dir().join(format!("gkm-cli-spot-e2e-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let base = dir.join("base.fvecs").to_str().unwrap().to_string();
        let index = dir.join("x.ivf").to_str().unwrap().to_string();
        let cmd = |line: &[&str]| run(&line.iter().map(|s| s.to_string()).collect::<Vec<_>>());
        cmd(&[
            "gen-data",
            "--out",
            &base,
            "--dataset",
            "SIFT100K",
            "--n",
            "400",
            "--seed",
            "11",
        ])
        .unwrap();
        cmd(&[
            "index",
            "build",
            "--base",
            &base,
            "--k",
            "8",
            "--out",
            &index,
            "--method",
            "lloyd",
            "--iterations",
            "5",
            "--seed",
            "3",
        ])
        .unwrap();

        // NaN-poison the first panel row, re-framing the container so every
        // checksum is valid again: the damage a buggy producer would write,
        // invisible to structural verification.
        let bytes = std::fs::read(&index).unwrap();
        let mut sections = vecstore::io::read_sections_from(&bytes[..]).unwrap();
        let panel = sections
            .iter_mut()
            .find(|s| s.has_tag("IVFPANEL"))
            .expect("the index container carries a panel section");
        // Payload layout: n (u64) | dim (u64) | row-major f32 data.  Row 0 is
        // spot-check global index 0, replayed by any --spot-check n >= 1.
        panel.payload[16..20].copy_from_slice(&f32::NAN.to_le_bytes());
        let mut reframed = Vec::new();
        vecstore::io::write_sections_to(&mut reframed, &sections).unwrap();
        std::fs::write(&index, &reframed).unwrap();

        // Structural verification (checksums, framing, invariants) passes…
        cmd(&["index", "verify", "--index", &index]).unwrap();
        cmd(&["index", "verify", "--index", &index, "--strict"]).unwrap();
        // …but the semantic spot-check classifies it as corruption (exit 4):
        // the poisoned vector cannot return itself at distance zero.
        let err = cmd(&["index", "verify", "--index", &index, "--spot-check", "1"]).unwrap_err();
        assert_eq!(err.exit_code(), 4, "{err}");
        assert!(err.to_string().contains("spot-check failed"), "{err}");

        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn serve_and_query_end_to_end() {
        let dir = std::env::temp_dir().join(format!("gkm-cli-serve-e2e-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let base = dir.join("base.fvecs").to_str().unwrap().to_string();
        let queries = dir.join("q.fvecs").to_str().unwrap().to_string();
        let index = dir.join("x.ivf").to_str().unwrap().to_string();
        let port_file = dir.join("port").to_str().unwrap().to_string();
        let cmd = |line: &[&str]| run(&line.iter().map(|s| s.to_string()).collect::<Vec<_>>());
        cmd(&[
            "gen-data",
            "--out",
            &base,
            "--dataset",
            "SIFT100K",
            "--n",
            "600",
            "--queries",
            "20",
            "--queries-out",
            &queries,
            "--seed",
            "17",
        ])
        .unwrap();
        cmd(&[
            "index",
            "build",
            "--base",
            &base,
            "--k",
            "10",
            "--out",
            &index,
            "--method",
            "lloyd",
            "--iterations",
            "5",
            "--seed",
            "9",
        ])
        .unwrap();

        // `serve` binds an ephemeral port and publishes it via --port-file.
        let serve_line: Vec<String> = [
            "serve",
            "--index",
            &index,
            "--addr",
            "127.0.0.1:0",
            "--port-file",
            &port_file,
            "--threads",
            "2",
        ]
        .iter()
        .map(|s| s.to_string())
        .collect();
        let server = std::thread::spawn(move || run(&serve_line));
        let deadline = std::time::Instant::now() + std::time::Duration::from_secs(20);
        let port = loop {
            if let Ok(text) = std::fs::read_to_string(&port_file) {
                if let Ok(p) = text.trim().parse::<u16>() {
                    break p;
                }
            }
            assert!(
                std::time::Instant::now() < deadline,
                "serve never published its port"
            );
            std::thread::sleep(std::time::Duration::from_millis(20));
        };
        let addr = format!("127.0.0.1:{port}");

        cmd(&["query", "--addr", &addr, "--ping"]).unwrap();
        cmd(&[
            "query",
            "--addr",
            &addr,
            "--queries",
            &queries,
            "--r",
            "5",
            "--nprobe",
            "4",
            "--json",
        ])
        .unwrap();
        // A generous deadline still succeeds; the budget rides the request.
        cmd(&[
            "query",
            "--addr",
            &addr,
            "--queries",
            &queries,
            "--r",
            "3",
            "--deadline-ms",
            "5000",
        ])
        .unwrap();
        // Missing --queries without a control flag is a usage error (exit 2).
        let err = cmd(&["query", "--addr", &addr]).unwrap_err();
        assert_eq!(err.exit_code(), 2, "{err}");

        // The shutdown control frame drains the server; `serve` exits 0.
        cmd(&["query", "--addr", &addr, "--shutdown"]).unwrap();
        server
            .join()
            .expect("the serve thread panicked")
            .expect("serve must exit cleanly after a drain");
        // Against the stopped server the client fails as i/o (exit 3).
        let err = cmd(&[
            "query",
            "--addr",
            &addr,
            "--queries",
            &queries,
            "--retries",
            "2",
        ])
        .unwrap_err();
        assert_eq!(err.exit_code(), 3, "{err}");

        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn journal_lifecycle_verify_and_compact_end_to_end() {
        let dir = std::env::temp_dir().join(format!("gkm-cli-wal-e2e-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let base = dir.join("base.fvecs").to_str().unwrap().to_string();
        let index = dir.join("x.ivf").to_str().unwrap().to_string();
        let cmd = |line: &[&str]| run(&line.iter().map(|s| s.to_string()).collect::<Vec<_>>());
        cmd(&[
            "gen-data",
            "--out",
            &base,
            "--dataset",
            "SIFT100K",
            "--n",
            "400",
            "--seed",
            "19",
        ])
        .unwrap();
        cmd(&[
            "index",
            "build",
            "--base",
            &base,
            "--k",
            "8",
            "--out",
            &index,
            "--method",
            "lloyd",
            "--iterations",
            "5",
            "--seed",
            "3",
        ])
        .unwrap();

        // `index compact` on a journal-less index: the journal is missing,
        // which recovery treats as empty — compaction is a no-op publish.
        cmd(&["index", "compact", "--index", &index]).unwrap();

        // Attach a journal and run a small mutation storm through the store
        // API (the TCP path is covered by the serve crate's tests).
        let wal = ivf::store::wal_path(&index);
        {
            let (mut store, _) = ivf::MutableStore::open(&index).unwrap();
            let dim = store.index().dim();
            for i in 0..5u32 {
                store.insert(&vec![i as f32; dim]).unwrap();
            }
            store.delete(0).unwrap();
        }
        assert!(wal.exists());

        // Verification audits the journal: clean journal passes (6 records),
        // a bit flip in it is classified corruption (exit 4) …
        cmd(&["index", "verify", "--index", &index, "--strict", "--json"]).unwrap();
        let clean = std::fs::read(&wal).unwrap();
        let mut flipped = clean.clone();
        let mid = flipped.len() / 2;
        flipped[mid] ^= 0x04;
        std::fs::write(&wal, &flipped).unwrap();
        let err = cmd(&["index", "verify", "--index", &index]).unwrap_err();
        assert_eq!(err.exit_code(), 4, "{err}");

        // … and a torn tail passes leniently but is rejected under --strict.
        std::fs::write(&wal, &clean[..clean.len() - 3]).unwrap();
        cmd(&["index", "verify", "--index", &index]).unwrap();
        let err = cmd(&["index", "verify", "--index", &index, "--strict"]).unwrap_err();
        assert_eq!(err.exit_code(), 4, "{err}");
        assert!(err.to_string().contains("torn tail"), "{err}");

        // Compaction folds the journal into a clean generation; afterwards
        // the strict pair (checkpoint + truncated journal) verifies, and the
        // compacted index still answers searches.
        std::fs::write(&wal, &clean).unwrap();
        cmd(&["index", "compact", "--index", &index, "--json"]).unwrap();
        cmd(&[
            "index",
            "verify",
            "--index",
            &index,
            "--strict",
            "--spot-check",
            "4",
        ])
        .unwrap();

        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn index_requires_a_valid_action() {
        assert!(run(&["index".to_string()]).is_err());
        assert!(run(&["index".to_string(), "frobnicate".to_string()]).is_err());
    }

    #[test]
    fn index_build_then_search_end_to_end() {
        let dir = std::env::temp_dir().join(format!("gkm-cli-ivf-e2e-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let base = dir.join("base.fvecs").to_str().unwrap().to_string();
        let queries = dir.join("q.fvecs").to_str().unwrap().to_string();
        let index = dir.join("x.ivf").to_str().unwrap().to_string();

        let cmd = |line: &[&str]| run(&line.iter().map(|s| s.to_string()).collect::<Vec<_>>());
        cmd(&[
            "gen-data",
            "--out",
            &base,
            "--dataset",
            "SIFT100K",
            "--n",
            "1200",
            "--queries",
            "25",
            "--queries-out",
            &queries,
            "--seed",
            "13",
        ])
        .unwrap();
        cmd(&[
            "index",
            "build",
            "--base",
            &base,
            "--k",
            "20",
            "--out",
            &index,
            "--method",
            "lloyd",
            "--iterations",
            "8",
            "--seed",
            "5",
            "--json",
        ])
        .unwrap();
        assert!(std::fs::metadata(&index).unwrap().len() > 0);
        // self-ground-truth recall path, ground truth from the base set, the
        // timing-only path, and the threaded batched path must all succeed
        cmd(&[
            "index",
            "search",
            "--index",
            &index,
            "--queries",
            &queries,
            "--r",
            "5",
            "--nprobe",
            "4",
        ])
        .unwrap();
        cmd(&[
            "index",
            "search",
            "--index",
            &index,
            "--queries",
            &queries,
            "--r",
            "5",
            "--nprobe",
            "4",
            "--base",
            &base,
            "--json",
        ])
        .unwrap();
        cmd(&[
            "index",
            "search",
            "--index",
            &index,
            "--queries",
            &queries,
            "--no-recall",
            "--threads",
            "4",
        ])
        .unwrap();

        // `index verify` accepts the freshly-built index on every path:
        // lenient, strict, with an exact-scan spot-check, and as JSON.
        cmd(&["index", "verify", "--index", &index]).unwrap();
        cmd(&[
            "index",
            "verify",
            "--index",
            &index,
            "--strict",
            "--spot-check",
            "8",
            "--json",
        ])
        .unwrap();

        // Failures are classified: missing file → i/o (3), damaged file →
        // corruption (4), unknown flag → usage (2).
        let missing = dir.join("nope.ivf").to_str().unwrap().to_string();
        let err = cmd(&["index", "verify", "--index", &missing]).unwrap_err();
        assert_eq!(err.exit_code(), 3, "{err}");
        let bad = dir.join("bad.ivf").to_str().unwrap().to_string();
        let mut bytes = std::fs::read(&index).unwrap();
        let mid = bytes.len() / 2;
        bytes[mid] ^= 0x10;
        std::fs::write(&bad, &bytes).unwrap();
        let err = cmd(&["index", "verify", "--index", &bad]).unwrap_err();
        assert_eq!(err.exit_code(), 4, "{err}");
        let err = cmd(&["index", "verify", "--index", &index, "--frobnicate"]).unwrap_err();
        assert_eq!(err.exit_code(), 2, "{err}");
        let err = cmd(&["index", "search", "--index", &bad, "--queries", &queries]).unwrap_err();
        assert_eq!(err.exit_code(), 4, "{err}");

        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn end_to_end_pipeline_through_temp_files() {
        let dir = std::env::temp_dir().join(format!("gkm-cli-e2e-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let base = dir.join("base.fvecs").to_str().unwrap().to_string();
        let queries = dir.join("q.fvecs").to_str().unwrap().to_string();
        let graph = dir.join("g.bin").to_str().unwrap().to_string();
        let labels = dir.join("labels.txt").to_str().unwrap().to_string();

        let cmd = |line: &[&str]| run(&line.iter().map(|s| s.to_string()).collect::<Vec<_>>());
        cmd(&[
            "gen-data",
            "--out",
            &base,
            "--dataset",
            "SIFT100K",
            "--n",
            "1500",
            "--queries",
            "30",
            "--queries-out",
            &queries,
            "--seed",
            "7",
        ])
        .unwrap();
        cmd(&[
            "build-graph",
            "--base",
            &base,
            "--out",
            &graph,
            "--method",
            "alg3",
            "--graph-k",
            "8",
            "--kappa",
            "8",
            "--xi",
            "25",
            "--tau",
            "3",
            "--estimate-recall",
            "50",
        ])
        .unwrap();
        cmd(&[
            "cluster",
            "--base",
            &base,
            "--k",
            "15",
            "--graph",
            &graph,
            "--iterations",
            "8",
            "--kappa",
            "8",
            "--labels-out",
            &labels,
            "--json",
        ])
        .unwrap();
        cmd(&[
            "search",
            "--base",
            &base,
            "--graph",
            &graph,
            "--queries",
            &queries,
            "--r",
            "5",
        ])
        .unwrap();
        cmd(&["info", "--base", &base, "--graph", &graph]).unwrap();

        let written = std::fs::read_to_string(&labels).unwrap();
        assert_eq!(written.lines().count(), 1470); // 1500 minus the 30 queries
        std::fs::remove_dir_all(&dir).ok();
    }
}
