//! `build-graph` — construct an approximate KNN graph over an `.fvecs` base
//! set with any of the construction methods the paper discusses, and save it.

use std::time::Instant;

use gkmeans::{GkParams, KnnGraphBuilder};
use knn_graph::brute::{exact_graph, exact_neighbors_of_subset};
use knn_graph::io::write_graph;
use knn_graph::nn_descent::{nn_descent_with_stats, NnDescentParams};
use knn_graph::nsw::{nsw_build_with_stats, truncate_to_k, NswParams};
use knn_graph::recall::estimated_recall_at_1;
use vecstore::io::read_fvecs;
use vecstore::sample::{rng_from_seed, sample_distinct};

use crate::args::Args;
use crate::error::CliError;

/// Usage text for `build-graph`.
pub const USAGE: &str = "\
build-graph --base <base.fvecs> --out <graph.bin>
            [--method alg3|nn-descent|nsw|exact]   (default alg3)
            [--graph-k <neighbours>]  [--kappa <k>] [--xi <size>] [--tau <rounds>]
            [--seed <u64>] [--estimate-recall <samples>]
Builds the KNN graph with Alg. 3 (GK-means-driven construction), NN-Descent,
NSW or exhaustive search, and reports the construction cost.  `alg3` runs on
GKM_THREADS workers when that variable is set (the graph is the same at any
thread count).  --out is written atomically as a checksummed GKSC v2
container (n and k, list lengths, neighbour ids, distances), the file that
`cluster`, `search` and `info` read with --graph.";

/// Runs the subcommand.
pub fn run(args: &Args) -> Result<(), CliError> {
    let base_path = args.required("base")?;
    let out = args.required("out")?;
    let method = args.string_or("method", "alg3");
    let graph_k = args.usize_or("graph-k", 10)?;
    let kappa = args.usize_or("kappa", 50)?;
    let xi = args.usize_or("xi", 50)?;
    let tau = args.usize_or("tau", 10)?;
    let seed = args.u64_or("seed", 0)?;
    let recall_samples = args.usize_or("estimate-recall", 0)?;
    args.finish()?;

    let data = read_fvecs(&base_path)
        .map_err(|e| CliError::store(format!("cannot read {base_path}"), e))?;
    println!("loaded {} × {} from {base_path}", data.len(), data.dim());

    let params = GkParams::default()
        .kappa(kappa)
        .xi(xi)
        .tau(tau)
        .seed(seed)
        .record_trace(false);
    let start = Instant::now();
    let (graph, cost_note) = match method.as_str() {
        "alg3" => {
            let (g, stats) = KnnGraphBuilder::new(params).graph_k(graph_k).build(&data);
            (
                g,
                format!(
                    "{} refinement distance evals over {} rounds",
                    stats.refine_distance_evals, stats.rounds
                ),
            )
        }
        "nn-descent" => {
            let (g, stats) = nn_descent_with_stats(
                &data,
                &NnDescentParams {
                    k: graph_k,
                    seed,
                    ..Default::default()
                },
            );
            (
                g,
                format!(
                    "{} distance evals over {} rounds",
                    stats.distance_evals, stats.rounds
                ),
            )
        }
        "nsw" => {
            let (g, stats) = nsw_build_with_stats(&data, &NswParams::with_m(graph_k).seed(seed));
            (
                truncate_to_k(&g, graph_k),
                format!(
                    "{} distance evals, {} edges added",
                    stats.distance_evals, stats.edges_added
                ),
            )
        }
        "exact" => (
            exact_graph(&data, graph_k),
            "exhaustive O(n²·d) construction".to_string(),
        ),
        other => {
            return Err(CliError::Usage(format!(
                "unknown method `{other}`; expected alg3, nn-descent, nsw or exact"
            )))
        }
    };
    let elapsed = start.elapsed();

    write_graph(&out, &graph).map_err(|e| CliError::store(format!("cannot write {out}"), e))?;
    println!(
        "built `{method}` graph (k = {}, mean degree {:.1}) in {:.2}s — {cost_note}",
        graph.k(),
        graph.mean_degree(),
        elapsed.as_secs_f64()
    );
    if recall_samples > 0 {
        // The paper's estimation protocol (Sec. 5.1): exact neighbours of a
        // random subset of samples stand in for the full ground truth.
        let mut rng = rng_from_seed(seed ^ 0x7ec);
        let count = recall_samples.min(data.len());
        let sample_ids = sample_distinct(&mut rng, data.len(), count)
            .map_err(|e| CliError::Internal(format!("cannot sample recall subset: {e}")))?;
        let truth = exact_neighbors_of_subset(&data, &sample_ids, 1);
        let recall = estimated_recall_at_1(&graph, &sample_ids, &truth);
        println!("estimated recall@1 over {count} samples: {recall:.3}");
    }
    println!("graph written to {out}");
    Ok(())
}
