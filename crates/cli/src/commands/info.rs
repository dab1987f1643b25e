//! `info` — inspect an `.fvecs` dataset or a saved KNN graph.

use knn_graph::io::read_graph;
use vecstore::distance::norm_sq;
use vecstore::io::read_fvecs;

use crate::args::Args;
use crate::error::CliError;

/// Usage text for `info`.
pub const USAGE: &str = "\
info [--base <base.fvecs>] [--graph <graph.bin>]
Prints shape and basic statistics of an .fvecs dataset and/or a graph saved
by `build-graph` (a checksummed GKSC v2 container: a corrupt or truncated
graph file exits 4).";

/// Runs the subcommand.
pub fn run(args: &Args) -> Result<(), CliError> {
    let base = args.optional("base");
    let graph = args.optional("graph");
    args.finish()?;
    if base.is_none() && graph.is_none() {
        return Err(CliError::Usage("info needs --base and/or --graph".into()));
    }

    if let Some(path) = base {
        let data =
            read_fvecs(&path).map_err(|e| CliError::store(format!("cannot read {path}"), e))?;
        let n = data.len();
        let mut min_norm = f64::INFINITY;
        let mut max_norm: f64 = 0.0;
        let mut sum_norm = 0.0f64;
        for row in data.rows() {
            let norm = f64::from(norm_sq(row)).sqrt();
            min_norm = min_norm.min(norm);
            max_norm = max_norm.max(norm);
            sum_norm += norm;
        }
        println!("{path}: {} vectors × {} dims", n, data.dim());
        if n > 0 {
            println!(
                "  L2 norms: min {min_norm:.3}, mean {:.3}, max {max_norm:.3}",
                sum_norm / n as f64
            );
        }
    }

    if let Some(path) = graph {
        let g = read_graph(&path).map_err(|e| CliError::store(format!("cannot read {path}"), e))?;
        println!(
            "{path}: KNN graph over {} samples, k = {}, mean degree {:.1}, {} stored edges",
            g.len(),
            g.k(),
            g.mean_degree(),
            g.stored_edges()
        );
    }
    Ok(())
}
