//! Figure 8 — conciseness analyses:
//!
//! * (a) sparsity per explainer/dataset (GVEX most concise; paper reports
//!   60–80% size reduction and gaps up to 0.2 vs GNNExplainer),
//! * (b) compression of the pattern tier over the subgraph tier (paper:
//!   > 95% of nodes compressed away),
//! * (c, d) edge loss of `Psum`'s patterns vs `u_l` on MUT and ENZ
//!   (paper's MUT series: {1.43%, 1.71%, 1.75%, 1.95%}, growing with `u_l`),
//!   including the ablation vs. a singleton-only cover.

use gvex_bench::harness::{fidelity_grid, gvex_config, prepare, write_json};
use gvex_core::{Configuration, ExplainSession, GreedyStrategy, StreamStrategy};
use gvex_datasets::{DatasetKind, Scale};
use gvex_metrics::{mean_compression, mean_edge_loss};
use gvex_mining::MiningConfig;
use serde::Serialize;
use std::time::Duration;

#[derive(Serialize, Default)]
struct Fig8 {
    sparsity: Vec<(String, String, f64)>, // (dataset, method, sparsity @ u=10)
    compression: Vec<(String, String, f64)>, // (dataset, algorithm, compression)
    edge_loss: Vec<(String, usize, f64, f64)>, // (dataset, u_l, greedy, singleton-only)
}

fn main() {
    let datasets = [
        DatasetKind::Mutagenicity,
        DatasetKind::Enzymes,
        DatasetKind::RedditBinary,
        DatasetKind::MalnetTiny,
    ];
    let uls = [5usize, 10, 15, 20];
    let mut out = Fig8::default();

    // (a) sparsity from the shared fidelity grid at u_l = 10
    let cells = fidelity_grid(&datasets, &uls, Scale::Bench, Duration::from_secs(120));
    println!("\nFigure 8(a) — Sparsity (u_l = 10, higher = more concise)\n");
    println!("{:<14} {:>7} {:>7} {:>7} {:>7}", "method", "MUT", "ENZ", "RED", "MAL");
    for method in
        ["ApproxGVEX", "StreamGVEX", "GNNExplainer", "SubgraphX", "GStarX", "GCFExplainer"]
    {
        let mut line = format!("{method:<14}");
        for ds in ["MUT", "ENZ", "RED", "MAL"] {
            match cells.iter().find(|c| c.dataset == ds && c.method == method && c.u_l == 10) {
                Some(c) if !c.timed_out => {
                    line.push_str(&format!(" {:>7.3}", c.quality.sparsity));
                    out.sparsity.push((ds.into(), method.into(), c.quality.sparsity));
                }
                _ => line.push_str("   T/O "),
            }
        }
        println!("{line}");
    }

    // (b) compression: generate full views per label with AG and SG
    println!("\nFigure 8(b) — Compression of patterns vs subgraphs\n");
    for kind in datasets {
        let prep = prepare(kind, Scale::Bench, 42);
        let labels: Vec<usize> = (0..prep.db.num_classes()).collect();
        let session = |cfg: Configuration| {
            ExplainSession::new(&prep.model, cfg).expect("valid configuration")
        };
        // one session serves both algorithms: the forward traces are shared
        let sess = session(gvex_config(10));
        let ag_views = sess.explain(&GreedyStrategy, &prep.db, &labels);
        let sg_views = sess.explain(&StreamStrategy, &prep.db, &labels);
        let cag = mean_compression(&ag_views.views);
        let csg = mean_compression(&sg_views.views);
        println!("{:<6} AG {cag:.3}  SG {csg:.3}", kind.short_name());
        out.compression.push((kind.short_name().into(), "ApproxGVEX".into(), cag));
        out.compression.push((kind.short_name().into(), "StreamGVEX".into(), csg));

        // (c, d) edge loss vs u_l — only for MUT and ENZ as in the paper
        if matches!(kind, DatasetKind::Mutagenicity | DatasetKind::Enzymes) {
            println!("\nFigure 8(c/d) — Edge loss vs u_l on {}:", kind.short_name());
            println!("{:>6} {:>10} {:>16}", "u_l", "greedy", "singleton-only");
            for &u in &uls {
                let views = session(gvex_config(u)).explain(&GreedyStrategy, &prep.db, &labels);
                let greedy = mean_edge_loss(&views.views);
                // ablation: cap patterns to single nodes — every edge is lost
                let mut single_cfg = gvex_config(u);
                single_cfg.mining = MiningConfig { max_pattern_nodes: 1, ..Default::default() };
                let single_views = session(single_cfg).explain(&GreedyStrategy, &prep.db, &labels);
                let single = mean_edge_loss(&single_views.views);
                println!("{u:>6} {greedy:>10.4} {single:>16.4}");
                out.edge_loss.push((kind.short_name().into(), u, greedy, single));
            }
            println!();
        }
    }

    write_json("fig8_conciseness.json", &out);
}
