//! `cluster` — cluster an `.fvecs` base set with GK-means or any of the
//! baseline k-means variants, write the labels and report cost/quality.

use std::time::Duration;

use baselines::akm::ApproximateKMeans;
use baselines::bisecting::BisectingKMeans;
use baselines::closure::ClosureKMeans;
use baselines::common::{Clustering, KMeansConfig};
use baselines::elkan::ElkanKMeans;
use baselines::hamerly::HamerlyKMeans;
use baselines::hkm::HierarchicalKMeans;
use baselines::lloyd::LloydKMeans;
use baselines::minibatch::MiniBatchKMeans;
use baselines::seeding::Seeding;
use gkmeans::{BoostKMeans, GkMeansPipeline, GkMode, GkParams};
use knn_graph::io::read_graph;
use vecstore::io::read_fvecs;
use vecstore::VectorSet;

use crate::args::Args;
use crate::commands::write_labels;
use crate::error::CliError;

/// Usage text for `cluster`.
pub const USAGE: &str = "\
cluster --base <base.fvecs> --k <clusters> [--labels-out <labels.txt>]
        [--method gk|gk-trad|bkm|lloyd|kmeans++|minibatch|closure|bisecting|elkan|hamerly|akm|hkm]
        [--iterations <t>] [--kappa <k>] [--xi <size>] [--tau <rounds>] [--seed <u64>]
        [--threads <n>]                (opt-in worker pool for gk/gk-trad
                                        epochs + two-means init, lloyd,
                                        elkan and hamerly; output is
                                        bit-identical at any thread count,
                                        default 1 = paper-faithful)
        [--graph <graph.bin>]          (pre-built graph for gk/gk-trad)
        [--json]                       (machine-readable report on stdout)
Clusters the base set and prints the distortion, per-phase timing and distance
evaluation counts (the cost model the paper reports).";

/// Runs the subcommand.
pub fn run(args: &Args) -> Result<(), CliError> {
    let base_path = args.required("base")?;
    let k = args.usize_required("k")?;
    let method = args.string_or("method", "gk");
    let iterations = args.usize_or("iterations", 30)?;
    let kappa = args.usize_or("kappa", 50)?;
    let xi = args.usize_or("xi", 50)?;
    let tau = args.usize_or("tau", 10)?;
    let seed = args.u64_or("seed", 0)?;
    let threads = args.threads_opt()?;
    let labels_out = args.optional("labels-out");
    let graph_path = args.optional("graph");
    let json = args.flag("json");
    args.finish()?;

    let data = read_fvecs(&base_path)
        .map_err(|e| CliError::store(format!("cannot read {base_path}"), e))?;
    if k == 0 || k > data.len() {
        return Err(CliError::Usage(format!(
            "--k must be between 1 and the number of samples ({})",
            data.len()
        )));
    }

    let (clustering, graph_time) = run_method(
        &method,
        &data,
        k,
        iterations,
        kappa,
        xi,
        tau,
        seed,
        threads,
        graph_path.as_deref(),
    )?;

    let distortion = clustering.distortion(&data);
    if json {
        let report = serde_json::json!({
            "method": method,
            "n": data.len(),
            "dim": data.dim(),
            "k": k,
            "iterations": clustering.iterations,
            "distortion": distortion,
            "non_empty_clusters": clustering.non_empty_clusters(),
            "distance_evals": clustering.distance_evals,
            "graph_secs": graph_time.as_secs_f64(),
            "init_secs": clustering.init_time.as_secs_f64(),
            "iter_secs": clustering.iter_time.as_secs_f64(),
        });
        println!("{}", serde_json::to_string_pretty(&report).expect("json"));
    } else {
        println!("{method}: n = {}, d = {}, k = {k}", data.len(), data.dim());
        println!(
            "  distortion E = {distortion:.4}   non-empty clusters = {}",
            clustering.non_empty_clusters()
        );
        println!(
            "  time: graph {:.2}s + init {:.2}s + iterations {:.2}s ({} iterations, {} distance evals)",
            graph_time.as_secs_f64(),
            clustering.init_time.as_secs_f64(),
            clustering.iter_time.as_secs_f64(),
            clustering.iterations,
            clustering.distance_evals
        );
    }
    if let Some(path) = labels_out {
        write_labels(&path, &clustering.labels)?;
        println!("labels written to {path}");
    }
    Ok(())
}

/// Dispatches on the method name; returns the clustering plus the graph-
/// construction time (zero for graph-free methods).  Shared with
/// `index build`, which turns the fit into an IVF serving index.
#[allow(clippy::too_many_arguments)]
pub(crate) fn run_method(
    method: &str,
    data: &VectorSet,
    k: usize,
    iterations: usize,
    kappa: usize,
    xi: usize,
    tau: usize,
    seed: u64,
    threads: Option<usize>,
    graph_path: Option<&str>,
) -> Result<(Clustering, Duration), CliError> {
    let mut cfg = KMeansConfig::with_k(k).max_iters(iterations).seed(seed);
    let mut gk_params = GkParams::default()
        .kappa(kappa)
        .xi(xi)
        .tau(tau)
        .iterations(iterations)
        .seed(seed);
    if let Some(t) = threads {
        cfg = cfg.threads(t);
        gk_params = gk_params.threads(t);
    }

    let run_pipeline = |params: GkParams| -> Result<(Clustering, Duration), CliError> {
        let pipeline = GkMeansPipeline::new(params);
        let outcome = if let Some(path) = graph_path {
            let graph =
                read_graph(path).map_err(|e| CliError::store(format!("cannot read {path}"), e))?;
            pipeline.cluster_with_graph(data, k, graph, Duration::ZERO)
        } else {
            pipeline.cluster(data, k)
        };
        Ok((outcome.clustering, outcome.graph_time))
    };

    match method {
        "gk" => run_pipeline(gk_params),
        "gk-trad" => run_pipeline(gk_params.mode(GkMode::Traditional)),
        "bkm" => Ok((BoostKMeans::new(cfg).fit(data), Duration::ZERO)),
        "lloyd" => Ok((LloydKMeans::new(cfg).fit(data), Duration::ZERO)),
        "kmeans++" => Ok((
            LloydKMeans::new(cfg)
                .with_seeding(Seeding::KMeansPlusPlus)
                .fit(data),
            Duration::ZERO,
        )),
        "minibatch" => Ok((MiniBatchKMeans::new(cfg).fit(data), Duration::ZERO)),
        "closure" => Ok((ClosureKMeans::new(cfg).fit(data), Duration::ZERO)),
        "bisecting" => Ok((BisectingKMeans::new(cfg).fit(data), Duration::ZERO)),
        "elkan" => Ok((ElkanKMeans::new(cfg).fit(data), Duration::ZERO)),
        "hamerly" => Ok((HamerlyKMeans::new(cfg).fit(data), Duration::ZERO)),
        "akm" => Ok((ApproximateKMeans::new(cfg).fit(data), Duration::ZERO)),
        "hkm" => Ok((HierarchicalKMeans::new(cfg).fit(data), Duration::ZERO)),
        other => Err(CliError::Usage(format!(
            "unknown method `{other}`; see `gkm-cli help cluster` for the list"
        ))),
    }
}
