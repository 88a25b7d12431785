//! The `serve` binary: a TCP front-end for the influential-communities
//! query service.
//!
//! ```sh
//! cargo run --release -p ic-service --bin serve -- 127.0.0.1:7878 --workers 4 --preload
//! # then, from another terminal:
//! #   printf 'QUERY email 10 4\nSTATS\nQUIT\n' | nc 127.0.0.1 7878
//! ```
//!
//! `--preload` registers two small Table 1 stand-in datasets (`email`,
//! `wiki`) so the server is immediately queryable; otherwise clients
//! register graphs themselves via `LOAD`/`GEN`.
//!
//! `--metrics-addr ADDR` additionally serves the Prometheus text
//! exposition over plain HTTP on `ADDR` (the same body the `METRICS`
//! protocol verb returns), and `--slowlog-ms MS` sets the slow-query
//! retention threshold (`SLOWLOG` lists retained traces).
//! `--idle-timeout SECS` closes connections that send no request for
//! that long, so half-open clients cannot pin connection threads.
//!
//! `--data-dir DIR` makes the instance durable: registrations are
//! snapshotted under `DIR`, every accepted `UPDATE` is write-ahead
//! logged before it is acknowledged, `COMMIT` fsyncs a generation
//! record, and a restart with the same `--data-dir` replays the
//! manifest and WALs so committed graphs and generations come back
//! (uncommitted update tails are discarded, as the protocol promises).

// The serving-path denies of the library root, for this crate root too.
#![cfg_attr(
    not(test),
    deny(
        clippy::unwrap_used,
        clippy::expect_used,
        clippy::panic,
        clippy::unreachable,
        clippy::todo,
        clippy::unimplemented,
        clippy::indexing_slicing,
        clippy::let_underscore_must_use,
        clippy::allow_attributes,
        clippy::allow_attributes_without_reason
    )
)]

use std::net::TcpListener;
use std::process::ExitCode;

use ic_service::protocol::HELP;
use ic_service::{serve_metrics, serve_with, ServerOptions, Service, ServiceConfig};

fn main() -> ExitCode {
    let mut addr = "127.0.0.1:7878".to_string();
    let mut config = ServiceConfig::default();
    let mut options = ServerOptions::default();
    let mut preload = false;
    let mut data_dir: Option<String> = None;
    let mut metrics_addr: Option<String> = None;

    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--workers" => match args.next().and_then(|v| v.parse().ok()) {
                Some(v) => config.workers = v,
                None => return usage("--workers needs a number"),
            },
            "--cache" => match args.next().and_then(|v| v.parse().ok()) {
                Some(v) => config.cache_capacity = v,
                None => return usage("--cache needs a number"),
            },
            "--data-dir" => match args.next() {
                Some(dir) => data_dir = Some(dir),
                None => return usage("--data-dir needs a directory"),
            },
            "--metrics-addr" => match args.next() {
                Some(a) => metrics_addr = Some(a),
                None => return usage("--metrics-addr needs an address"),
            },
            "--slowlog-ms" => match args.next().and_then(|v| v.parse().ok()) {
                Some(ms) => config.slowlog_threshold = std::time::Duration::from_millis(ms),
                None => return usage("--slowlog-ms needs a number"),
            },
            "--idle-timeout" => match args.next().and_then(|v| v.parse::<f64>().ok()) {
                Some(secs) if secs > 0.0 => {
                    options.idle_timeout = Some(std::time::Duration::from_secs_f64(secs))
                }
                _ => return usage("--idle-timeout needs a positive number of seconds"),
            },
            "--preload" => preload = true,
            "--help" | "-h" => {
                println!(
                    "usage: serve [addr] [--workers N] [--cache N] [--data-dir DIR] \
                     [--metrics-addr ADDR] [--slowlog-ms MS] [--idle-timeout SECS] \
                     [--preload]\n\
                     protocol: {HELP}"
                );
                return ExitCode::SUCCESS;
            }
            other if !other.starts_with('-') => addr = other.to_string(),
            other => return usage(&format!("unknown flag {other:?}")),
        }
    }

    let svc = match &data_dir {
        Some(dir) => match Service::with_persistence(config, dir) {
            Ok(svc) => {
                for entry in svc.graphs() {
                    println!(
                        "recovered {}: n={} m={} gamma_max={} generation={}",
                        entry.name,
                        entry.stats.n,
                        entry.stats.m,
                        entry.stats.gamma_max,
                        entry.generation
                    );
                }
                svc
            }
            Err(e) => {
                eprintln!("cannot recover data dir {dir}: {e}");
                return ExitCode::FAILURE;
            }
        },
        None => Service::new(config),
    };
    if preload {
        for name in ["email", "wiki"] {
            let entry = svc.register(name, ic_graph::suite::small_dataset(name));
            println!(
                "preloaded {name}: n={} m={} gamma_max={}",
                entry.stats.n, entry.stats.m, entry.stats.gamma_max
            );
        }
    }

    if let Some(maddr) = metrics_addr {
        let scrape_listener = match TcpListener::bind(&maddr) {
            Ok(l) => l,
            Err(e) => {
                eprintln!("cannot bind metrics address {maddr}: {e}");
                return ExitCode::FAILURE;
            }
        };
        let svc_for_metrics = std::sync::Arc::clone(&svc);
        let spawned = std::thread::Builder::new()
            .name("ic-metrics-acceptor".to_string())
            .spawn(move || {
                if let Err(e) = serve_metrics(scrape_listener, svc_for_metrics) {
                    eprintln!("metrics endpoint failed: {e}");
                }
            });
        if let Err(e) = spawned {
            eprintln!("cannot start metrics acceptor: {e}");
            return ExitCode::FAILURE;
        }
        println!("metrics exposition on http://{maddr}/metrics");
    }

    let listener = match TcpListener::bind(&addr) {
        Ok(l) => l,
        Err(e) => {
            eprintln!("cannot bind {addr}: {e}");
            return ExitCode::FAILURE;
        }
    };
    println!(
        "ic-service listening on {addr} ({} workers); {HELP}",
        svc.worker_count()
    );
    if let Err(e) = serve_with(&listener, svc, options) {
        eprintln!("server failed: {e}");
        return ExitCode::FAILURE;
    }
    ExitCode::SUCCESS
}

fn usage(msg: &str) -> ExitCode {
    eprintln!("serve: {msg} (try --help)");
    ExitCode::FAILURE
}
