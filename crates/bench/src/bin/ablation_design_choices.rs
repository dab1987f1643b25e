//! Ablation of the design choices DESIGN.md §5 calls out:
//!
//! 1. boost-k-means vs traditional moves inside GK-means (GK-means vs
//!    GK-means⁻, Fig. 4's configuration study) at an identical graph;
//! 2. the two-means tree's boost refinement of each bisection on vs off
//!    (initial-partition quality feeding Alg. 2).
//!
//! Alg. 3's refinement has no sequential/parallel ablation: the one builder
//! produces the same graph at any thread count.
//!
//! ```bash
//! cargo run --release -p bench --bin ablation_design_choices -- --scale 0.02
//! ```

use baselines::common::recompute_centroids;
use bench::Options;
use datagen::{PaperDataset, Workload};
use eval::{average_distortion, Table};
use gkmeans::two_means::TwoMeansTree;
use gkmeans::{GkMeans, GkMode, GkParams, KnnGraphBuilder};
use vecstore::VectorSet;

fn main() {
    let opts = Options::parse(0.01);
    let w = Workload::generate(PaperDataset::Sift1M, opts.scale, opts.seed);
    let n = w.data.len();
    let k = (n / 100).max(10);
    let iterations = opts.iterations.min(15);
    println!("Design-choice ablations on {n} SIFT-like samples, k = {k}");

    let params = GkParams::default()
        .kappa(10)
        .xi(50)
        .tau(5)
        .iterations(iterations)
        .seed(opts.seed)
        .record_trace(false);

    // ------------------------------------------------------------------ (1)
    let (graph, _) = KnnGraphBuilder::new(params).graph_k(10).build(&w.data);
    let mut mode_table = Table::new(
        "ablation 1: optimisation mode at an identical Alg. 3 graph",
        &["mode", "E", "candidate checks"],
    );
    for (label, mode) in [
        ("boost (GK-means)", GkMode::Boost),
        ("traditional (GK-means-)", GkMode::Traditional),
    ] {
        let clustering = GkMeans::new(params.mode(mode)).fit(&w.data, k, &graph);
        mode_table.row(&[
            label.to_string(),
            format!(
                "{:.3}",
                average_distortion(&w.data, &clustering.labels, &clustering.centroids)
            ),
            clustering.distance_evals.to_string(),
        ]);
    }
    print!("{}", mode_table.render());

    // ------------------------------------------------------------------ (2)
    let mut init_table = Table::new(
        "ablation 2: boost refinement inside the two-means tree bisections",
        &["boost refinement", "initial-partition E"],
    );
    for boost in [true, false] {
        let labels = TwoMeansTree::new(opts.seed)
            .boost_refine(boost)
            .partition(&w.data, k);
        let mut centroids = VectorSet::zeros(k, w.data.dim()).expect("dim > 0");
        recompute_centroids(&w.data, &labels, &mut centroids);
        init_table.row(&[
            boost.to_string(),
            format!("{:.3}", average_distortion(&w.data, &labels, &centroids)),
        ]);
    }
    print!("{}", init_table.render());
}
