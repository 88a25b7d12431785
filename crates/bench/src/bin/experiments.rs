//! Reproduces every table and figure of the paper's evaluation (§6) on
//! the synthetic Table 1 stand-ins. Each experiment prints a
//! paper-formatted series table. The comparison against the published
//! results is not written up yet: there is no `EXPERIMENTS.md` (ROADMAP.md,
//! item 4).
//!
//! ```sh
//! cargo run --release -p ic-bench --bin experiments            # everything
//! cargo run --release -p ic-bench --bin experiments -- fig8    # one figure
//! cargo run --release -p ic-bench --bin experiments -- --small fig8 fig9
//! cargo run --release -p ic-bench --bin experiments -- --runs 1 all
//! ```

use ic_bench::{avg_ms, cell, dataset, header, suite_names, time_once_ms, Scale};
use ic_core::local_search::{CountStrategy, LocalSearch, LocalSearchOptions};
use ic_core::query::{exec, Algorithm as _};
use ic_core::semi_external::{local_search_se_top_k, online_all_se_top_k};
use ic_core::{noncontainment, progressive, truss, TopKQuery};
use ic_graph::generators::{assemble, collaboration, WeightKind};
use ic_graph::stats::graph_stats;
use ic_graph::{save_icsr, FileCsr};
use std::time::Instant;

/// Graphs the paper also runs OnlineAll on (it goes out of memory on the
/// web-scale ones: "we omit OnlineAll for Arabic, UK, and Twitter").
const ONLINE_ALL_GRAPHS: [&str; 5] = ["email", "youtube", "wiki", "livejournal", "orkut"];

const K_SWEEP: [usize; 5] = [5, 10, 20, 50, 100];
const GAMMA_SWEEP: [u32; 4] = [5, 10, 20, 50];
const FIG9_GRAPHS: [&str; 4] = ["wiki", "livejournal", "arabic", "uk"];

/// Runs one experiment at a scale, with a number of runs per measurement.
type Experiment = fn(Scale, usize);

/// Every experiment by name, in the order `all` runs them.
const EXPERIMENTS: [(&str, Experiment); 14] = [
    ("table1", |scale, _| table1(scale)),
    ("fig8", fig8),
    ("fig9", fig9),
    ("fig10", fig10),
    ("fig11", fig11),
    ("fig12", fig12),
    ("fig13", fig13),
    ("fig14", |scale, _| fig14(scale)),
    ("fig15", fig15),
    ("fig16", |scale, runs| fig16_17(scale, runs, false)),
    ("fig17", |scale, runs| fig16_17(scale, runs, true)),
    ("fig18", fig18),
    ("fig19", fig19),
    ("fig20", |_, _| fig20()),
];

fn main() {
    let mut scale = Scale::Bench;
    let mut runs = 3usize;
    let mut all = false;
    let mut wanted: Vec<Experiment> = Vec::new();
    let mut args = std::env::args().skip(1);
    // The whole command line is checked before any experiment runs.
    while let Some(a) = args.next() {
        match a.as_str() {
            "--small" => scale = Scale::Small,
            "--runs" => match args.next().and_then(|v| v.parse().ok()) {
                Some(n) if n >= 1 => runs = n,
                _ => usage_error("--runs needs a whole number of at least 1"),
            },
            "--help" | "-h" => {
                println!("{}", usage());
                return;
            }
            "all" => all = true,
            name => match EXPERIMENTS.iter().find(|(n, _)| *n == name) {
                Some(&(_, run)) => wanted.push(run),
                None => usage_error(&format!("unknown experiment {name:?}")),
            },
        }
    }
    if all || wanted.is_empty() {
        wanted = EXPERIMENTS.iter().map(|&(_, run)| run).collect();
    }
    let t0 = Instant::now();
    for run in wanted {
        run(scale, runs);
    }
    println!("\ntotal harness time: {:.1?}", t0.elapsed());
}

fn usage() -> String {
    let names: Vec<&str> = EXPERIMENTS.iter().map(|(name, _)| *name).collect();
    let names = names.join(" ");
    format!("usage: experiments [--small] [--runs N] [{names} | all]")
}

/// Rejects the command line: the reason and the usage line go to stderr,
/// and the exit code is 2.
fn usage_error(reason: &str) -> ! {
    eprintln!("experiments: {reason}\n{}", usage());
    std::process::exit(2)
}

/// Table 1: statistics of the (synthetic stand-in) graphs.
fn table1(scale: Scale) {
    header("Table 1: statistics of the synthetic Table-1 stand-ins");
    println!(
        "{:<14}{:>10}{:>12}{:>8}{:>8}{:>7}",
        "Graph", "#vertices", "#edges", "dmax", "davg", "γmax"
    );
    for name in suite_names() {
        let g = dataset(name, scale);
        let s = graph_stats(g);
        println!(
            "{:<14}{:>10}{:>12}{:>8}{:>8.2}{:>7}",
            name, s.n, s.m, s.d_max, s.d_avg, s.gamma_max
        );
    }
}

fn series_header(label: &str, points: &[String]) {
    print!("{label:<16}");
    for p in points {
        print!("{p:>10}");
    }
    println!();
}

/// Figure 8: against the global algorithms, γ=10, vary k, all 8 graphs.
///
/// OnlineAll's runtime is k-independent (it always processes the whole
/// graph; the paper's lines are flat), so the harness measures it once
/// per graph and reports that value across the row — it is orders of
/// magnitude above everything else and re-running it 15× would dominate
/// the harness.
fn fig8(scale: Scale, runs: usize) {
    let gamma = 10;
    for name in suite_names() {
        header(&format!(
            "Figure 8 ({name}): processing time (ms), γ={gamma}, vary k"
        ));
        let g = dataset(name, scale);
        series_header(
            "k =",
            &K_SWEEP.iter().map(|k| k.to_string()).collect::<Vec<_>>(),
        );
        let oa_once = ONLINE_ALL_GRAPHS
            .contains(&name)
            .then(|| time_once_ms(|| exec::OnlineAll.run(g, &TopKQuery::new(gamma).k(10))));
        let oa: Vec<Option<f64>> = K_SWEEP.iter().map(|_| oa_once).collect();
        print_series("OnlineAll", &oa);
        let fw: Vec<Option<f64>> = K_SWEEP
            .iter()
            .map(|&k| {
                Some(avg_ms(runs, || {
                    exec::Forward.run(g, &TopKQuery::new(gamma).k(k))
                }))
            })
            .collect();
        print_series("Forward", &fw);
        let lsp: Vec<Option<f64>> = K_SWEEP
            .iter()
            .map(|&k| {
                Some(avg_ms(runs, || {
                    progressive::ProgressiveSearch::new(g, gamma)
                        .take(k)
                        .count()
                }))
            })
            .collect();
        print_series("LocalSearch-P", &lsp);
    }
}

fn print_series(label: &str, values: &[Option<f64>]) {
    print!("{label:<16}");
    for v in values {
        print!("{}", cell(*v));
    }
    println!();
}

/// Figure 9: against the global algorithms, k=10, vary γ.
fn fig9(scale: Scale, runs: usize) {
    let k = 10;
    for name in FIG9_GRAPHS {
        header(&format!(
            "Figure 9 ({name}): processing time (ms), k={k}, vary γ"
        ));
        let g = dataset(name, scale);
        series_header(
            "γ =",
            &GAMMA_SWEEP
                .iter()
                .map(|x| x.to_string())
                .collect::<Vec<_>>(),
        );
        // OnlineAll: one measurement per γ (see fig8 note)
        let oa: Vec<Option<f64>> = GAMMA_SWEEP
            .iter()
            .map(|&gamma| {
                ONLINE_ALL_GRAPHS
                    .contains(&name)
                    .then(|| time_once_ms(|| exec::OnlineAll.run(g, &TopKQuery::new(gamma).k(k))))
            })
            .collect();
        print_series("OnlineAll", &oa);
        let fw: Vec<Option<f64>> = GAMMA_SWEEP
            .iter()
            .map(|&gamma| {
                Some(avg_ms(runs, || {
                    exec::Forward.run(g, &TopKQuery::new(gamma).k(k))
                }))
            })
            .collect();
        print_series("Forward", &fw);
        let lsp: Vec<Option<f64>> = GAMMA_SWEEP
            .iter()
            .map(|&gamma| {
                Some(avg_ms(runs, || {
                    progressive::ProgressiveSearch::new(g, gamma)
                        .take(k)
                        .count()
                }))
            })
            .collect();
        print_series("LocalSearch-P", &lsp);
    }
}

/// Figure 10: large k and γ on the two highest-degeneracy graphs. The
/// paper sweeps 250–2000 on graphs with γmax up to 3247; the stand-ins
/// have γmax ≈ 330–400, so the sweep is scaled accordingly.
fn fig10(scale: Scale, runs: usize) {
    let ks = [50usize, 100, 200, 400];
    let gammas = [50u32, 100, 150, 200];
    for name in ["arabic", "twitter"] {
        let g = dataset(name, scale);
        header(&format!("Figure 10 ({name}): γ=100, vary k (scaled sweep)"));
        series_header("k =", &ks.iter().map(|x| x.to_string()).collect::<Vec<_>>());
        print_series(
            "Forward",
            &ks.iter()
                .map(|&k| {
                    Some(avg_ms(runs, || {
                        exec::Forward.run(g, &TopKQuery::new(100).k(k))
                    }))
                })
                .collect::<Vec<_>>(),
        );
        print_series(
            "LocalSearch-P",
            &ks.iter()
                .map(|&k| {
                    Some(avg_ms(runs, || {
                        progressive::ProgressiveSearch::new(g, 100).take(k).count()
                    }))
                })
                .collect::<Vec<_>>(),
        );
        header(&format!("Figure 10 ({name}): k=100, vary γ (scaled sweep)"));
        series_header(
            "γ =",
            &gammas.iter().map(|x| x.to_string()).collect::<Vec<_>>(),
        );
        print_series(
            "Forward",
            &gammas
                .iter()
                .map(|&gamma| {
                    Some(avg_ms(runs, || {
                        exec::Forward.run(g, &TopKQuery::new(gamma).k(100))
                    }))
                })
                .collect::<Vec<_>>(),
        );
        print_series(
            "LocalSearch-P",
            &gammas
                .iter()
                .map(|&gamma| {
                    Some(avg_ms(runs, || {
                        progressive::ProgressiveSearch::new(g, gamma)
                            .take(100)
                            .count()
                    }))
                })
                .collect::<Vec<_>>(),
        );
    }
}

/// Figure 11: against the local search baseline Backward, vary k.
fn fig11(scale: Scale, runs: usize) {
    for (name, gamma) in [("arabic", 10u32), ("arabic", 50), ("uk", 10), ("uk", 50)] {
        header(&format!(
            "Figure 11 ({name}, γ={gamma}): Backward vs LocalSearch-P, vary k"
        ));
        let g = dataset(name, scale);
        series_header(
            "k =",
            &K_SWEEP.iter().map(|x| x.to_string()).collect::<Vec<_>>(),
        );
        print_series(
            "Backward",
            &K_SWEEP
                .iter()
                .map(|&k| {
                    Some(avg_ms(runs, || {
                        exec::Backward.run(g, &TopKQuery::new(gamma).k(k))
                    }))
                })
                .collect::<Vec<_>>(),
        );
        print_series(
            "LocalSearch-P",
            &K_SWEEP
                .iter()
                .map(|&k| {
                    Some(avg_ms(runs, || {
                        progressive::ProgressiveSearch::new(g, gamma)
                            .take(k)
                            .count()
                    }))
                })
                .collect::<Vec<_>>(),
        );
    }
}

/// Figure 12: LocalSearch-OA (counting via OnlineAll) vs LocalSearch-P.
fn fig12(scale: Scale, runs: usize) {
    let gamma = 10;
    for name in FIG9_GRAPHS {
        header(&format!(
            "Figure 12 ({name}): LocalSearch-OA vs LocalSearch-P, γ={gamma}"
        ));
        let g = dataset(name, scale);
        series_header(
            "k =",
            &K_SWEEP.iter().map(|x| x.to_string()).collect::<Vec<_>>(),
        );
        print_series(
            "LocalSearch-OA",
            &K_SWEEP
                .iter()
                .map(|&k| {
                    Some(avg_ms(runs, || {
                        LocalSearch::with_options(LocalSearchOptions {
                            counting: CountStrategy::OnlineAll,
                            ..Default::default()
                        })
                        .run(g, gamma, k)
                    }))
                })
                .collect::<Vec<_>>(),
        );
        print_series(
            "LocalSearch-P",
            &K_SWEEP
                .iter()
                .map(|&k| {
                    Some(avg_ms(runs, || {
                        progressive::ProgressiveSearch::new(g, gamma)
                            .take(k)
                            .count()
                    }))
                })
                .collect::<Vec<_>>(),
        );
    }
}

/// Figure 13: the exponential growth ratio δ.
fn fig13(scale: Scale, runs: usize) {
    let deltas = [1.5f64, 2.0, 3.0, 4.0, 8.0, 16.0, 32.0, 64.0, 128.0];
    let (gamma, k) = (10u32, 10usize);
    for name in FIG9_GRAPHS {
        header(&format!(
            "Figure 13 ({name}): growth ratio δ, k={k}, γ={gamma}"
        ));
        let g = dataset(name, scale);
        series_header(
            "δ =",
            &deltas.iter().map(|x| format!("{x}")).collect::<Vec<_>>(),
        );
        print_series(
            "LocalSearch-P",
            &deltas
                .iter()
                .map(|&delta| {
                    Some(avg_ms(runs, || {
                        progressive::ProgressiveSearch::with_delta(g, gamma, delta)
                            .take(k)
                            .count()
                    }))
                })
                .collect::<Vec<_>>(),
        );
    }
}

/// Figure 14: progressive enumeration latency — elapsed time until the
/// top-i community is reported, k = 128.
fn fig14(scale: Scale) {
    let k = 128usize;
    let tops = [1usize, 2, 4, 8, 16, 32, 64, 128];
    for (name, gamma) in [("arabic", 10u32), ("arabic", 50), ("uk", 10), ("uk", 50)] {
        header(&format!(
            "Figure 14 ({name}, γ={gamma}): enumeration time (ms) until top-i, k={k}"
        ));
        let g = dataset(name, scale);
        series_header(
            "top-i =",
            &tops.iter().map(|x| x.to_string()).collect::<Vec<_>>(),
        );
        // batch LocalSearch reports everything at the end: its per-i
        // latency is the (constant) total runtime
        let total = time_once_ms(|| exec::LocalSearch.run(g, &TopKQuery::new(gamma).k(k)));
        print_series(
            "LocalSearch",
            &tops.iter().map(|_| Some(total)).collect::<Vec<_>>(),
        );
        // progressive: record the wall-clock when each community arrives
        let t0 = Instant::now();
        let mut arrivals = Vec::with_capacity(k);
        for _ in progressive::ProgressiveSearch::new(g, gamma).take(k) {
            arrivals.push(t0.elapsed().as_secs_f64() * 1e3);
        }
        print_series(
            "LocalSearch-P",
            &tops
                .iter()
                .map(|&i| arrivals.get(i - 1).copied())
                .collect::<Vec<_>>(),
        );
    }
}

/// Figure 15: total processing time, LocalSearch vs LocalSearch-P.
fn fig15(scale: Scale, runs: usize) {
    for (name, gamma) in [("arabic", 10u32), ("arabic", 50), ("uk", 10), ("uk", 50)] {
        header(&format!(
            "Figure 15 ({name}, γ={gamma}): LocalSearch vs LocalSearch-P total time, vary k"
        ));
        let g = dataset(name, scale);
        series_header(
            "k =",
            &K_SWEEP.iter().map(|x| x.to_string()).collect::<Vec<_>>(),
        );
        print_series(
            "LocalSearch",
            &K_SWEEP
                .iter()
                .map(|&k| {
                    Some(avg_ms(runs, || {
                        exec::LocalSearch.run(g, &TopKQuery::new(gamma).k(k))
                    }))
                })
                .collect::<Vec<_>>(),
        );
        print_series(
            "LocalSearch-P",
            &K_SWEEP
                .iter()
                .map(|&k| {
                    Some(avg_ms(runs, || {
                        progressive::ProgressiveSearch::new(g, gamma)
                            .take(k)
                            .count()
                    }))
                })
                .collect::<Vec<_>>(),
        );
    }
}

/// Figures 16 and 17: the semi-external algorithms — total time including
/// I/O (16) and peak resident size (17).
///
/// The paper runs these on Arabic and Twitter; our OnlineAll-SE lacks the
/// eviction machinery of Li et al.'s semi-external implementation (it is
/// the plain baseline), so at web-crawl scale a single OnlineAll-SE run
/// takes many minutes. The harness therefore uses the two mid-size social
/// stand-ins, where the contrast is identical in shape.
/// OnlineAll-SE is k-independent and measured once per (graph, γ).
fn fig16_17(scale: Scale, runs: usize, memory: bool) {
    let dir = std::env::temp_dir().join("ic_experiments_se");
    std::fs::create_dir_all(&dir).expect("temp dir");
    for (name, gamma) in [
        ("wiki", 10u32),
        ("wiki", 50),
        ("livejournal", 10),
        ("livejournal", 50),
    ] {
        let fig = if memory { "Figure 17" } else { "Figure 16" };
        let metric = if memory {
            "peak resident edges"
        } else {
            "total time (ms)"
        };
        header(&format!("{fig} ({name}, γ={gamma}): {metric}, vary k"));
        let g = dataset(name, scale);
        let path = dir.join(format!("{name}.icsr"));
        save_icsr(g, &path).expect("spill");
        let store = FileCsr::open(&path).expect("open spilled graph");
        series_header(
            "k =",
            &K_SWEEP.iter().map(|x| x.to_string()).collect::<Vec<_>>(),
        );
        let mut oa_row = Vec::new();
        let mut ls_row = Vec::new();
        if memory {
            let (_, oa) = online_all_se_top_k(&store, gamma, 10).expect("OA-SE");
            for &k in &K_SWEEP {
                let (_, ls) = local_search_se_top_k(&store, gamma, k).expect("LS-SE");
                oa_row.push(Some(oa.peak_resident_edges as f64));
                ls_row.push(Some(ls.peak_resident_edges as f64));
            }
        } else {
            let oa_once = time_once_ms(|| online_all_se_top_k(&store, gamma, 10).expect("OA-SE"));
            for &k in &K_SWEEP {
                oa_row.push(Some(oa_once));
                ls_row.push(Some(avg_ms(runs, || {
                    local_search_se_top_k(&store, gamma, k).expect("LS-SE")
                })));
            }
        }
        print_series("OnlineAll-SE", &oa_row);
        print_series("LocalSearch-SE", &ls_row);
    }
}

/// Figure 18: non-containment queries.
fn fig18(scale: Scale, runs: usize) {
    let gamma = 10;
    for name in ["arabic", "uk"] {
        header(&format!(
            "Figure 18 ({name}): non-containment queries, γ={gamma}, vary k"
        ));
        let g = dataset(name, scale);
        series_header(
            "k =",
            &K_SWEEP.iter().map(|x| x.to_string()).collect::<Vec<_>>(),
        );
        print_series(
            "Forward",
            &K_SWEEP
                .iter()
                .map(|&k| Some(avg_ms(runs, || noncontainment::forward_top_k(g, gamma, k))))
                .collect::<Vec<_>>(),
        );
        print_series(
            "LocalSearch-P",
            &K_SWEEP
                .iter()
                .map(|&k| Some(avg_ms(runs, || noncontainment::local_top_k(g, gamma, k))))
                .collect::<Vec<_>>(),
        );
    }
}

/// Figure 19: influential γ-truss community search.
fn fig19(scale: Scale, runs: usize) {
    let gamma = 10;
    for name in ["wiki", "livejournal"] {
        header(&format!(
            "Figure 19 ({name}): γ-truss community search, γ={gamma}, vary k"
        ));
        let g = dataset(name, scale);
        series_header(
            "k =",
            &K_SWEEP.iter().map(|x| x.to_string()).collect::<Vec<_>>(),
        );
        print_series(
            "GlobalSearch-Truss",
            &K_SWEEP
                .iter()
                .map(|&k| Some(avg_ms(runs, || truss::global_top_k(g, gamma, k))))
                .collect::<Vec<_>>(),
        );
        print_series(
            "LocalSearch-Truss",
            &K_SWEEP
                .iter()
                .map(|&k| Some(avg_ms(runs, || truss::local_top_k(g, gamma, k))))
                .collect::<Vec<_>>(),
        );
    }
}

/// Figures 20–21: the collaboration-network case study.
fn fig20() {
    header("Figures 20-21: case study on a synthetic collaboration network");
    let (n, edges) = collaboration(600, 77);
    let g = assemble(n, &edges, WeightKind::PageRank);
    println!("{} researchers, {} co-authorship edges", g.n(), g.m());
    let core = exec::LocalSearch.run(&g, &TopKQuery::new(5).k(1));
    let trs = truss::local_top_k(&g, 6, 1);
    if let (Some(c), Some(t)) = (core.communities.first(), trs.communities.first()) {
        println!(
            "top-1 influential 5-community:      {:3} members, influence {:.3e}",
            c.len(),
            c.influence
        );
        println!(
            "top-1 influential 6-truss community: {:3} members, influence {:.3e}",
            t.len(),
            t.influence
        );
        println!(
            "truss community smaller/denser with lower influence (paper, Fig. 20): {}",
            t.len() <= c.len() && t.influence <= c.influence
        );
        // Figure 21: the 5-core community of the top core keynode is much
        // larger than the influential community itself
        let full_core = exec::LocalSearch.run(&g, &TopKQuery::new(5).k(usize::MAX / 2));
        if let Some(last) = full_core.communities.last() {
            println!(
                "largest (lowest-influence) 5-community has {} members — the \
                 'refinement' effect of influence (Fig. 21 analogue)",
                last.len()
            );
        }
    } else {
        println!("case study graph too sparse; regenerate with more groups");
    }
}
