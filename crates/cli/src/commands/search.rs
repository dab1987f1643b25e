//! `search` — approximate nearest-neighbour search over a pre-built KNN graph
//! (Sec. 4.3's ANNS use of the construction), reporting recall and throughput.

use anns::{evaluate, GraphSearcher, SearchParams};
use knn_graph::brute::exact_ground_truth;
use knn_graph::io::read_graph;
use vecstore::io::read_fvecs;

use crate::args::Args;
use crate::error::CliError;

/// Usage text for `search`.
pub const USAGE: &str = "\
search --base <base.fvecs> --graph <graph.bin> --queries <queries.fvecs>
       [--r <neighbours per query>] [--ef <pool size>] [--seed <u64>]
       [--no-recall]           (skip the exact ground-truth computation)
Searches every query through the graph and reports recall@R, latency and the
average number of distance evaluations per query.";

/// Runs the subcommand.
pub fn run(args: &Args) -> Result<(), CliError> {
    let base_path = args.required("base")?;
    let graph_path = args.required("graph")?;
    let query_path = args.required("queries")?;
    let r = args.usize_or("r", 10)?;
    let ef = args.usize_or("ef", 64)?;
    let seed = args.u64_or("seed", 0)?;
    let skip_recall = args.flag("no-recall");
    args.finish()?;

    let base = read_fvecs(&base_path)
        .map_err(|e| CliError::store(format!("cannot read {base_path}"), e))?;
    let graph = read_graph(&graph_path)
        .map_err(|e| CliError::store(format!("cannot read {graph_path}"), e))?;
    let queries = read_fvecs(&query_path)
        .map_err(|e| CliError::store(format!("cannot read {query_path}"), e))?;
    if graph.len() != base.len() {
        return Err(CliError::Usage(format!(
            "graph covers {} nodes but the base set holds {}",
            graph.len(),
            base.len()
        )));
    }
    if queries.dim() != base.dim() {
        return Err(CliError::Usage(format!(
            "query dimensionality {} does not match the base set's {}",
            queries.dim(),
            base.dim()
        )));
    }
    let params = SearchParams::default().ef(ef).seed(seed);

    if skip_recall {
        // Timing-only mode: run the queries without the O(n·q·d) ground truth.
        let searcher = GraphSearcher::new(&base, &graph, params);
        let start = std::time::Instant::now();
        let mut evals = 0u64;
        for q in queries.rows() {
            let (_, stats) = searcher.search_with_stats(q, r);
            evals += stats.distance_evals;
        }
        let elapsed = start.elapsed().as_secs_f64();
        println!(
            "{} queries, r = {r}, ef = {ef}: {:.3} ms/query, {:.0} qps, {:.1} distance evals/query",
            queries.len(),
            elapsed * 1000.0 / queries.len() as f64,
            queries.len() as f64 / elapsed.max(1e-12),
            evals as f64 / queries.len() as f64
        );
    } else {
        let truth = exact_ground_truth(&base, &queries, r);
        let report = evaluate(&base, &graph, &queries, &truth, r, params);
        println!(
            "{} queries, r = {r}, ef = {ef}: recall@{r} = {:.3}, {:.3} ms/query, {:.0} qps, {:.1} distance evals/query",
            queries.len(),
            report.stats.recall,
            report.stats.avg_query_ms,
            report.stats.qps,
            report.stats.avg_distance_evals
        );
    }
    Ok(())
}
