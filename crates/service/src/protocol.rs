//! The line-oriented text protocol spoken by the `serve` binary.
//!
//! One request per line; one reply per request. Replies are a single
//! `OK …` / `ERR …` line, except community-bearing replies (`QUERY`,
//! `NEXT`), which follow the `OK` line with one `C` line per community
//! and a final `END` line. Vertices are printed as the caller's external
//! ids. The full verb set:
//!
//! ```text
//! LOAD <name> <path>                     register a graph file (ICG1 or text)
//! LOADX <name> <path.icsr> [budget]      register a file-backed `.icsr` store
//!                                        (vertex data resident under the
//!                                        optional byte budget, edges on disk;
//!                                        queries dispatch to the
//!                                        semi-external executors)
//! SAVE <name> <path>                     write a memory-resident graph as a
//!                                        `.icsr` file for LOADX
//! GEN <name> gnm <n> <m> <seed>          register synthetic G(n,m)
//! GEN <name> ba <n> <d> <seed>           register synthetic Barabási–Albert
//! GEN <name> rmat <scale> <ef> <seed>    register synthetic R-MAT
//! GRAPHS                                 list registered graphs
//! QUERY <graph> <gamma> <k> [mode]       top-k (mode: auto, local_search,
//!                                        progressive, forward, online_all,
//!                                        backward, naive, truss)
//! EXPLAIN ANALYZE <graph> <gamma> <k> [mode]
//!                                        run the query through the pool and
//!                                        report the plan next to *measured*
//!                                        per-stage nanoseconds (queue, plan,
//!                                        cache, execute, serialize) and the
//!                                        execution's I/O delta
//! BATCH <g> <gamma> <k> [mode] ; ...     many queries in one request;
//!                                        ';'-separated, grouped by
//!                                        (graph, γ, family) and answered
//!                                        with one search per group
//! EXPLAIN <graph> <gamma> <k> [mode]     plan only, with the reason
//! UPDATE <graph> ADD <u> <v> [w]         buffer an edge insert (w creates
//!                                        missing endpoints with that weight)
//! UPDATE <graph> DEL <u> <v>             buffer an edge delete
//! UPDATE <graph> ADDV <v> <w>            buffer a vertex add
//! UPDATE <graph> DELV <v>                buffer a vertex remove
//! UPDATE <graph> REWEIGHT <v> <w>        buffer an influence change
//! COMMIT <graph>                         fold pending updates into a fresh
//!                                        snapshot (bumps the generation)
//! OPEN <graph> <gamma>                   open a progressive session
//! NEXT <session> [n]                     pull up to n communities (default 1);
//!                                        the reply's done=0|1 reports stream
//!                                        exhaustion from the iterator itself
//!                                        (an empty batch with done=0 just
//!                                        means n was 0)
//! CLOSE <session>                        close a session
//! STATS                                  hit/miss/latency counters, then one
//!                                        `S` row per registered store with
//!                                        its cumulative I/O, then `END`
//! METRICS                                full Prometheus text exposition
//!                                        (same body the --metrics-addr
//!                                        scrape endpoint serves), then `END`
//! SLOWLOG [n]                            the n most recent slow queries
//!                                        (default 10), newest first, one `L`
//!                                        row each with the per-stage trace
//! HELP                                   this listing
//! QUIT                                   close the connection
//! ```
//!
//! Updates apply to a per-graph overlay and become visible to queries
//! atomically at `COMMIT`, which re-registers the compacted snapshot
//! under a new generation (invalidating cached results by construction).
//!
//! [`handle_line`] is a pure request → reply function over an
//! [`Arc<Service>`]; the TCP front-end ([`crate::server`]) and the
//! in-process `service_demo` example share it, so the protocol is tested
//! without sockets.

use std::sync::Arc;

use ic_core::Community;
use ic_dynamic::UpdateOp;
use ic_graph::GraphStore;

use crate::error::ServiceError;
use crate::planner::{parse_mode, Mode, Query};
use crate::service::{QueryResponse, Service, SyntheticSpec};

/// Help text returned by `HELP` (and useful as a banner).
pub const HELP: &str = "commands: LOAD <name> <path> | LOADX <name> <path.icsr> [budget] | \
SAVE <name> <path> | GEN <name> gnm|ba|rmat <args> <seed> | \
GRAPHS | QUERY <graph> <gamma> <k> [mode] | \
BATCH <graph> <gamma> <k> [mode] ; <graph> <gamma> <k> [mode] ; ... | \
EXPLAIN <graph> <gamma> <k> [mode] | EXPLAIN ANALYZE <graph> <gamma> <k> [mode] | \
UPDATE <graph> ADD|DEL <u> <v> [w] | UPDATE <graph> ADDV|DELV|REWEIGHT <v> [w] | \
COMMIT <graph> | OPEN <graph> <gamma> | NEXT <session> [n] | CLOSE <session> | \
STATS | METRICS | SLOWLOG [n] | HELP | QUIT";

/// Hard cap on sub-queries in one `BATCH` line. A request line is
/// already size-capped by the server; this bounds the *work* one line
/// can demand (each sub-query is a potential search).
pub const MAX_BATCH: usize = 256;

/// Handles one request line, returning the full (possibly multi-line)
/// reply without a trailing newline. Empty and `#`-comment lines get an
/// empty reply. `QUIT` is connection-level and handled by the caller.
pub fn handle_line(svc: &Arc<Service>, line: &str) -> String {
    let line = line.trim();
    if line.is_empty() || line.starts_with('#') {
        return String::new();
    }
    match dispatch(svc, line) {
        Ok(reply) => reply,
        Err(e) => format!("ERR {e}"),
    }
}

fn dispatch(svc: &Arc<Service>, line: &str) -> Result<String, ServiceError> {
    let mut parts = line.split_ascii_whitespace();
    // handle_line trims before dispatching, but parsing must not lean on
    // its caller: an empty line is simply an empty reply.
    let Some(verb_token) = parts.next() else {
        return Ok(String::new());
    };
    let verb = verb_token.to_ascii_uppercase();
    let args: Vec<&str> = parts.collect();
    match verb.as_str() {
        "HELP" => Ok(format!("OK {HELP}")),
        "LOAD" => {
            let [name, path] = expect_args::<2>(&verb, &args)?;
            let entry = svc.load_path(name, path)?;
            Ok(graph_line(
                &entry.name,
                entry.stats.n,
                entry.stats.m,
                entry.stats.gamma_max,
            ))
        }
        "LOADX" => {
            let (name, path, budget) = match *args.as_slice() {
                [name, path] => (name, path, None),
                [name, path, b] => (name, path, Some(parse_num::<u64>("budget_bytes", b)?)),
                _ => return Err(usage(&verb, "LOADX <name> <path.icsr> [budget_bytes]")),
            };
            let entry = svc.register_file(name, path, budget)?;
            Ok(format!(
                "OK graph={} n={} m={} gamma_max={} storage={}",
                entry.name,
                entry.stats.n,
                entry.stats.m,
                entry.stats.gamma_max,
                entry.storage(),
            ))
        }
        "SAVE" => {
            let [name, path] = expect_args::<2>(&verb, &args)?;
            svc.save_store(name, path)?;
            Ok(format!("OK saved={name} path={path}"))
        }
        "GEN" => {
            let [name, kind, a, b, seed] = expect_args::<5>(&verb, &args)?;
            let seed = parse_num::<u64>("seed", seed)?;
            let spec = match kind.to_ascii_lowercase().as_str() {
                "gnm" => SyntheticSpec::Gnm {
                    n: parse_num("n", a)?,
                    m: parse_num("m", b)?,
                    seed,
                },
                "ba" => SyntheticSpec::BarabasiAlbert {
                    n: parse_num("n", a)?,
                    d: parse_num("d", b)?,
                    seed,
                },
                "rmat" => SyntheticSpec::Rmat {
                    scale: parse_num("scale", a)?,
                    edge_factor: parse_num("edge_factor", b)?,
                    seed,
                },
                other => {
                    return Err(ServiceError::InvalidQuery(format!(
                        "unknown generator {other:?} (expected gnm, ba, rmat)"
                    )))
                }
            };
            let entry = svc.register_synthetic(name, spec);
            Ok(graph_line(
                &entry.name,
                entry.stats.n,
                entry.stats.m,
                entry.stats.gamma_max,
            ))
        }
        "GRAPHS" => {
            let graphs = svc.graphs();
            let mut out = format!("OK count={}", graphs.len());
            for g in graphs {
                out.push_str(&format!(
                    "\nG name={} n={} m={} gamma_max={}",
                    g.name, g.stats.n, g.stats.m, g.stats.gamma_max
                ));
            }
            out.push_str("\nEND");
            Ok(out)
        }
        "QUERY" => {
            let query = parse_query(&verb, &args)?;
            let resp = svc.query(query)?;
            Ok(format_query_response(&resp))
        }
        // the raw tail (not the token list): sub-queries separate on ';'
        // however the client spaces them
        "BATCH" => handle_batch(svc, &line[verb_token.len()..]),
        "EXPLAIN" => {
            // `EXPLAIN ANALYZE …` runs the query and reports measured
            // stage timings next to the plan; plain `EXPLAIN` stays
            // plan-only.
            if args
                .first()
                .is_some_and(|a| a.eq_ignore_ascii_case("ANALYZE"))
            {
                return handle_explain_analyze(svc, args.get(1..).unwrap_or_default());
            }
            let query = parse_query(&verb, &args)?;
            let e = svc.explain(&query)?;
            Ok(format!(
                "OK algo={} forced={} n={} m={} gamma_max={} storage={} \
                 est_bytes={} reason={}",
                e.algorithm, e.forced, e.n, e.m, e.gamma_max, e.storage, e.est_bytes, e.reason
            ))
        }
        "UPDATE" => {
            let (graph, op) = parse_update(&verb, &args)?;
            let st = svc.update(graph, op)?;
            Ok(format!(
                "OK graph={} pending={} n={} m={}",
                graph, st.pending, st.n, st.m
            ))
        }
        "COMMIT" => {
            let [name] = expect_args::<1>(&verb, &args)?;
            let (entry, receipt) = svc.commit_updates(name)?;
            Ok(format!(
                "OK graph={} generation={} ops={} cores_visited={} n={} m={} gamma_max={}",
                entry.name,
                entry.generation,
                receipt.ops_applied,
                receipt.cores_visited,
                entry.stats.n,
                entry.stats.m,
                entry.stats.gamma_max
            ))
        }
        "OPEN" => {
            let [graph, gamma] = expect_args::<2>(&verb, &args)?;
            let gamma = parse_num::<u32>("gamma", gamma)?;
            let id = svc.open_session(graph, gamma)?;
            Ok(format!("OK session={id}"))
        }
        "NEXT" => {
            let (id_token, n_token) = match *args.as_slice() {
                [id] => (id, None),
                [id, n] => (id, Some(n)),
                _ => return Err(usage(&verb, "NEXT <session> [n]")),
            };
            let id = parse_num::<u64>("session", id_token)?;
            let n = match n_token {
                Some(s) => parse_num::<usize>("n", s)?,
                None => 1,
            };
            // Print through the instance the session actually streams
            // from — the name may have been re-registered to a different
            // graph mid-session, whose rank space would not match.
            let g = GraphStore::Memory(
                svc.session_graph_instance(id)
                    .ok_or(ServiceError::UnknownSession(id))?,
            );
            let (batch, done) = svc.session_next_full(id, n)?;
            // done comes from the session iterator, never from batch
            // emptiness: NEXT <s> 0 on a live stream is count=0 done=0
            let mut out = format!("OK count={} done={}", batch.len(), u8::from(done));
            push_communities(&mut out, &batch, &g);
            out.push_str("\nEND");
            Ok(out)
        }
        "CLOSE" => {
            let [id] = expect_args::<1>(&verb, &args)?;
            let id = parse_num::<u64>("session", id)?;
            svc.close_session(id)?;
            Ok(format!("OK closed={id}"))
        }
        "STATS" => {
            let s = svc.stats();
            let mut out = format!(
                "OK queries={} hits={} misses={} coalesced={} prefix_served={} \
                 batches={} worker_panics={} hit_rate={:.4}",
                s.queries,
                s.cache_hits,
                s.cache_misses,
                s.coalesced,
                s.prefix_served,
                s.batches,
                s.worker_panics,
                s.hit_rate(),
            );
            // one execution counter per algorithm, in Algorithm::ALL order
            for algo in crate::planner::Algorithm::ALL {
                out.push_str(&format!(" {}={}", algo.name(), s.executions(algo)));
            }
            out.push_str(&format!(
                " mean_latency_micros={} sessions_opened={} sessions_closed={} \
                 streamed={} graphs={} cached_entries={} accept_errors={} \
                 write_errors={} live_connections={}",
                s.mean_latency().as_micros(),
                s.sessions_opened,
                s.sessions_closed,
                s.communities_streamed,
                svc.graphs().len(),
                svc.cache_len(),
                s.accept_errors,
                s.write_errors,
                svc.metrics().live_connections(),
            ));
            // one `S` row per registered store with its cumulative I/O
            for (name, kind, io) in svc.store_io() {
                out.push_str(&format!(
                    "\nS graph={name} storage={kind} io_bytes={} io_ops={}",
                    io.bytes_read, io.read_ops
                ));
            }
            out.push_str("\nEND");
            Ok(out)
        }
        "METRICS" => {
            if !args.is_empty() {
                return Err(usage(&verb, "METRICS"));
            }
            // the exposition body is already newline-terminated
            Ok(format!("OK metrics\n{}END", svc.metrics_text()))
        }
        "SLOWLOG" => {
            if args.len() > 1 {
                return Err(usage(&verb, "SLOWLOG [n]"));
            }
            let n = match args.first() {
                Some(s) => parse_num::<usize>("n", s)?,
                None => 10,
            };
            let entries = svc.slowlog(n);
            let mut out = format!(
                "OK count={} slow_total={} threshold_ns={}",
                entries.len(),
                svc.metrics().slow_total(),
                svc.metrics().slowlog_threshold_ns(),
            );
            for e in entries {
                out.push_str(&format!(
                    "\nL seq={} graph={} gamma={} k={} algo={} class={}{} \
                     io_bytes={} io_ops={}",
                    e.seq,
                    e.graph,
                    e.gamma,
                    e.k,
                    e.algorithm,
                    e.class.name(),
                    stage_fields(&e.trace),
                    e.trace.io_bytes,
                    e.trace.io_ops,
                ));
            }
            out.push_str("\nEND");
            Ok(out)
        }
        "QUIT" => Ok("OK bye".to_string()),
        other => Err(ServiceError::InvalidQuery(format!(
            "unknown command {other:?} (try HELP)"
        ))),
    }
}

/// Handles the tail of a `BATCH` line: `;`-separated sub-queries, each
/// `<graph> <gamma> <k> [mode]`. Syntax errors (bad shape, non-numeric
/// arguments, too many sub-queries) reject the whole line; *semantic*
/// failures (unknown graph, parameters the central validation rejects)
/// fail only their own `R <i> ERR …` slot, exactly as the same query
/// issued individually would have.
fn handle_batch(svc: &Arc<Service>, tail: &str) -> Result<String, ServiceError> {
    const USAGE: &str = "<graph> <gamma> <k> [mode] [; <graph> <gamma> <k> [mode]]...";
    if tail.trim().is_empty() {
        return Err(usage("BATCH", USAGE));
    }
    let segments: Vec<&str> = tail.split(';').map(str::trim).collect();
    if segments.len() > MAX_BATCH {
        return Err(ServiceError::InvalidQuery(format!(
            "BATCH: {} sub-queries exceed the limit of {MAX_BATCH}",
            segments.len()
        )));
    }
    let mut queries = Vec::with_capacity(segments.len());
    for segment in segments {
        if segment.is_empty() {
            return Err(ServiceError::InvalidQuery(format!(
                "BATCH: empty sub-query (usage: BATCH {USAGE})"
            )));
        }
        let tokens: Vec<&str> = segment.split_ascii_whitespace().collect();
        queries.push(parse_query("BATCH", &tokens)?);
    }
    let results = svc.query_batch(&queries);
    let mut out = format!("OK batch={}", results.len());
    for (i, result) in results.iter().enumerate() {
        match result {
            Ok(resp) => {
                out.push_str(&format!(
                    "\nR {i} OK algo={} cached={} coalesced={} count={}",
                    resp.explain.algorithm,
                    resp.cached,
                    resp.coalesced,
                    resp.communities.len()
                ));
                push_communities(&mut out, &resp.communities, &resp.graph_instance);
            }
            Err(e) => out.push_str(&format!("\nR {i} ERR {e}")),
        }
    }
    out.push_str("\nEND");
    Ok(out)
}

/// `EXPLAIN ANALYZE <graph> <gamma> <k> [mode]`: run the query through
/// the pool exactly as `QUERY` would, and report the planner's choice
/// next to the *measured* per-stage nanoseconds from the trace. The
/// stage fields tile the total exactly (`total_ns` is their sum), so a
/// client can see where the latency went; `reason` stays last because
/// its value contains spaces.
fn handle_explain_analyze(svc: &Arc<Service>, args: &[&str]) -> Result<String, ServiceError> {
    let query = parse_query("EXPLAIN ANALYZE", args)?;
    let (resp, trace) = svc.query_traced(query)?;
    let e = &resp.explain;
    Ok(format!(
        "OK algo={} forced={} cached={} coalesced={} count={} n={} m={} \
         gamma_max={} storage={} est_bytes={}{} io_bytes={} io_ops={} reason={}",
        e.algorithm,
        e.forced,
        resp.cached,
        resp.coalesced,
        resp.communities.len(),
        e.n,
        e.m,
        e.gamma_max,
        e.storage,
        e.est_bytes,
        stage_fields(&trace),
        trace.io_bytes,
        trace.io_ops,
        e.reason,
    ))
}

/// ` total_ns=… queue_ns=… plan_ns=… cache_ns=… execute_ns=… serialize_ns=…`
/// — the measured timings shared by `EXPLAIN ANALYZE` and `SLOWLOG` rows.
/// Leading space; stage order follows [`Stage::ALL`].
fn stage_fields(trace: &ic_obs::QueryTrace) -> String {
    let mut out = format!(" total_ns={}", trace.total_ns());
    for stage in ic_obs::Stage::ALL {
        out.push_str(&format!(" {}_ns={}", stage.name(), trace.stage_ns(stage)));
    }
    out
}

fn parse_query(verb: &str, args: &[&str]) -> Result<Query, ServiceError> {
    let (graph, gamma, k, mode_token) = match *args {
        [graph, gamma, k] => (graph, gamma, k, None),
        [graph, gamma, k, mode] => (graph, gamma, k, Some(mode)),
        _ => return Err(usage(verb, "<graph> <gamma> <k> [mode]")),
    };
    let mode = match mode_token {
        Some(s) => parse_mode(s)?,
        None => Mode::Auto,
    };
    Ok(Query {
        graph: graph.to_string(),
        gamma: parse_num("gamma", gamma)?,
        k: parse_num("k", k)?,
        mode,
    })
}

/// Parses the argument tail of an `UPDATE` line:
/// `<graph> ADD|DEL <u> <v> [w]` or `<graph> ADDV|DELV|REWEIGHT <v> [w]`.
/// Returns the graph name alongside the op so the caller never indexes
/// back into the raw argument list.
fn parse_update<'a>(verb: &str, args: &[&'a str]) -> Result<(&'a str, UpdateOp), ServiceError> {
    const USAGE: &str = "<graph> ADD|DEL <u> <v> [w], or <graph> ADDV|DELV|REWEIGHT <v> [w]";
    let [graph, action_token, rest @ ..] = args else {
        return Err(usage(verb, USAGE));
    };
    let action = action_token.to_ascii_uppercase();
    let op = match action.as_str() {
        "ADD" => {
            let (u, v, w) = match *rest {
                [u, v] => (u, v, None),
                [u, v, w] => (u, v, Some(w)),
                _ => return Err(usage(verb, "<graph> ADD <u> <v> [w]")),
            };
            UpdateOp::InsertEdge {
                u: parse_num("u", u)?,
                v: parse_num("v", v)?,
                default_weight: match w {
                    Some(s) => Some(parse_num::<f64>("w", s)?),
                    None => None,
                },
            }
        }
        "DEL" => {
            let [u, v] = expect_args::<2>(verb, rest)?;
            UpdateOp::DeleteEdge {
                u: parse_num("u", u)?,
                v: parse_num("v", v)?,
            }
        }
        "ADDV" => {
            let [v, w] = expect_args::<2>(verb, rest)?;
            UpdateOp::AddVertex {
                v: parse_num("v", v)?,
                weight: parse_num("w", w)?,
            }
        }
        "DELV" => {
            let [v] = expect_args::<1>(verb, rest)?;
            UpdateOp::RemoveVertex {
                v: parse_num("v", v)?,
            }
        }
        "REWEIGHT" => {
            let [v, w] = expect_args::<2>(verb, rest)?;
            UpdateOp::Reweight {
                v: parse_num("v", v)?,
                weight: parse_num("w", w)?,
            }
        }
        other => {
            return Err(ServiceError::InvalidQuery(format!(
                "unknown update action {other:?} (expected ADD, DEL, ADDV, DELV, REWEIGHT)"
            )))
        }
    };
    Ok((graph, op))
}

fn format_query_response(resp: &QueryResponse) -> String {
    let mut out = format!(
        "OK algo={} cached={} coalesced={} micros={} count={}",
        resp.explain.algorithm,
        resp.cached,
        resp.coalesced,
        resp.latency.as_micros(),
        resp.communities.len()
    );
    // translate through the instance the query actually ran against,
    // never a fresh registry lookup (the name may have been re-registered
    // to a graph with a different rank space since)
    push_communities(&mut out, &resp.communities, &resp.graph_instance);
    out.push_str("\nEND");
    out
}

fn push_communities(out: &mut String, communities: &[Community], g: &GraphStore) {
    for c in communities {
        out.push_str(&format!("\nC influence={} members=", c.influence));
        // canonical wire form: external ids ascending (rank order is an
        // internal detail clients should not have to know about); the id
        // table is memory-resident for every backend, so no I/O here
        let mut ids = c.external_members_in(g);
        ids.sort_unstable();
        for (i, id) in ids.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            out.push_str(&id.to_string());
        }
    }
}

fn graph_line(name: &str, n: usize, m: usize, gamma_max: u32) -> String {
    format!("OK graph={name} n={n} m={m} gamma_max={gamma_max}")
}

fn expect_args<'a, const N: usize>(
    verb: &str,
    args: &[&'a str],
) -> Result<[&'a str; N], ServiceError> {
    <[&str; N]>::try_from(args.to_vec())
        .map_err(|_| usage(verb, &format!("expected {N} argument(s)")))
}

fn usage(verb: &str, usage: &str) -> ServiceError {
    ServiceError::InvalidQuery(format!("{verb}: usage {verb} {usage}"))
}

fn parse_num<T: std::str::FromStr>(field: &str, s: &str) -> Result<T, ServiceError> {
    s.parse()
        .map_err(|_| ServiceError::InvalidQuery(format!("{field}: not a valid number: {s:?}")))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::planner::Algorithm;
    use crate::service::ServiceConfig;
    use ic_graph::paper::figure3;

    fn svc() -> Arc<Service> {
        let svc = Service::new(ServiceConfig {
            workers: 2,
            cache_capacity: 16,
            cache_shards: 2,
            ..ServiceConfig::default()
        });
        svc.register("fig3", figure3());
        svc
    }

    #[test]
    fn query_reply_lists_paper_communities() {
        let svc = svc();
        let reply = handle_line(&svc, "QUERY fig3 3 4");
        assert!(reply.starts_with("OK "), "{reply}");
        assert!(reply.contains("count=4"), "{reply}");
        assert!(reply.contains("influence=18 members=3,11,12,20"), "{reply}");
        assert!(reply.ends_with("END"), "{reply}");
    }

    #[test]
    fn repeat_query_reports_cached() {
        let svc = svc();
        let _ = handle_line(&svc, "QUERY fig3 3 4");
        let reply = handle_line(&svc, "query fig3 3 4"); // verbs case-insensitive
        assert!(reply.contains("cached=true"), "{reply}");
    }

    #[test]
    fn explain_analyze_measures_stages() {
        let svc = svc();
        let reply = handle_line(&svc, "EXPLAIN ANALYZE fig3 3 4");
        assert!(reply.starts_with("OK algo="), "{reply}");
        assert!(reply.contains("cached=false"), "{reply}");
        assert!(reply.contains("count=4"), "{reply}");
        assert!(reply.contains("reason="), "{reply}");
        // every stage field is present, and the stages tile the total
        let field = |name: &str| -> u64 {
            reply
                .split_ascii_whitespace()
                .find_map(|t| t.strip_prefix(&format!("{name}=")))
                .unwrap_or_else(|| panic!("missing {name} in {reply}"))
                .parse()
                .unwrap()
        };
        let total = field("total_ns");
        let staged: u64 = [
            "queue_ns",
            "plan_ns",
            "cache_ns",
            "execute_ns",
            "serialize_ns",
        ]
        .iter()
        .map(|s| field(s))
        .sum();
        assert_eq!(staged, total, "stage timings tile the total: {reply}");
        assert!(total > 0, "{reply}");
        assert!(field("execute_ns") > 0, "cold query executed: {reply}");
        // the analyzed query warmed the cache; a re-run reports the hit
        let again = handle_line(&svc, "explain analyze fig3 3 4");
        assert!(again.contains("cached=true"), "{again}");
        assert!(again.contains("execute_ns=0"), "{again}");
        // verb remains strict about shape
        for bad in [
            "EXPLAIN ANALYZE",
            "EXPLAIN ANALYZE fig3 3",
            "EXPLAIN ANALYZE nope 3 4",
        ] {
            assert!(handle_line(&svc, bad).starts_with("ERR "), "{bad}");
        }
    }

    #[test]
    fn metrics_verb_returns_prometheus_body() {
        let svc = svc();
        let _ = handle_line(&svc, "QUERY fig3 3 4");
        let reply = handle_line(&svc, "METRICS");
        assert!(reply.starts_with("OK metrics\n"), "{reply}");
        assert!(reply.ends_with("\nEND"), "{reply}");
        assert!(reply.contains("ic_queries_total 1"), "{reply}");
        assert!(
            reply.contains("ic_query_latency_ns_bucket{class=\"cold\""),
            "{reply}"
        );
        assert!(handle_line(&svc, "METRICS extra").starts_with("ERR "));
    }

    /// Every algorithm has a counter on both surfaces, and one forced
    /// execution bumps exactly its own. Each runs on its own graph name,
    /// so no answer is served from another algorithm's cache entry.
    #[test]
    fn every_algorithm_is_counted_once_in_stats_and_metrics() {
        let svc = svc();
        for algo in Algorithm::ALL {
            let name = format!("fig3_{algo}");
            svc.register(&name, figure3());
            let reply = handle_line(&svc, &format!("QUERY {name} 3 2 {algo}"));
            assert!(reply.starts_with("OK "), "{algo}: {reply}");
            assert!(reply.contains("cached=false"), "{algo}: {reply}");
        }
        let stats = handle_line(&svc, "STATS");
        let metrics = handle_line(&svc, "METRICS");
        for algo in Algorithm::ALL {
            assert!(stats.contains(&format!(" {algo}=1")), "{algo}: {stats}");
            let sample = format!("ic_executions_total{{algorithm=\"{algo}\"}} 1\n");
            assert!(metrics.contains(&sample), "{algo}: {metrics}");
        }
    }

    #[test]
    fn slowlog_verb_lists_slow_queries_newest_first() {
        let svc = Service::new(ServiceConfig {
            workers: 2,
            cache_capacity: 16,
            cache_shards: 2,
            slowlog_threshold: std::time::Duration::ZERO, // everything is slow
            ..ServiceConfig::default()
        });
        svc.register("fig3", figure3());
        // an idle slowlog is an empty listing, not an error
        assert!(handle_line(&svc, "SLOWLOG").starts_with("OK count=0 slow_total=0"));
        let _ = handle_line(&svc, "QUERY fig3 3 4");
        let _ = handle_line(&svc, "QUERY fig3 3 2"); // prefix-served hit
        let reply = handle_line(&svc, "SLOWLOG");
        assert!(reply.starts_with("OK count=2 slow_total=2"), "{reply}");
        assert!(reply.ends_with("END"), "{reply}");
        let rows: Vec<&str> = reply.lines().filter(|l| l.starts_with("L ")).collect();
        assert_eq!(rows.len(), 2, "{reply}");
        assert!(rows[0].contains("k=2"), "newest first: {reply}");
        assert!(rows[0].contains("class=prefix_served"), "{reply}");
        assert!(rows[1].contains("class=cold"), "{reply}");
        assert!(rows[1].contains("total_ns="), "{reply}");
        assert!(rows[1].contains("execute_ns="), "{reply}");
        // SLOWLOG n truncates; hostile forms are ERR lines
        assert!(handle_line(&svc, "SLOWLOG 1").contains("count=1"));
        assert!(handle_line(&svc, "SLOWLOG x").starts_with("ERR "));
        assert!(handle_line(&svc, "SLOWLOG 1 2").starts_with("ERR "));
    }

    #[test]
    fn explain_names_algorithm_and_reason() {
        let svc = svc();
        let reply = handle_line(&svc, "EXPLAIN fig3 3 10 forward");
        assert!(reply.contains("algo=forward"), "{reply}");
        assert!(reply.contains("forced=true"), "{reply}");
        let auto = handle_line(&svc, "EXPLAIN fig3 3 10");
        assert!(auto.contains("reason="), "{auto}");
    }

    #[test]
    fn session_verbs_round_trip() {
        let svc = svc();
        let open = handle_line(&svc, "OPEN fig3 3");
        assert!(open.starts_with("OK session="), "{open}");
        let id: u64 = open.trim_start_matches("OK session=").parse().unwrap();
        let first = handle_line(&svc, &format!("NEXT {id}"));
        assert!(first.contains("count=1 done=0"), "{first}");
        assert!(first.contains("members=3,11,12,20"), "{first}");
        let rest = handle_line(&svc, &format!("NEXT {id} 100"));
        assert!(rest.contains("count="), "{rest}");
        assert!(rest.contains("done=1"), "{rest}");
        let close = handle_line(&svc, &format!("CLOSE {id}"));
        assert!(close.starts_with("OK closed="), "{close}");
        let gone = handle_line(&svc, &format!("NEXT {id}"));
        assert!(gone.starts_with("ERR"), "{gone}");
    }

    /// The `done` field is derived from the session iterator, never from
    /// batch emptiness: a client probing with n=0 must not conclude a
    /// live stream is exhausted (the bug this PR fixes).
    #[test]
    fn next_zero_reports_done_from_the_iterator() {
        let svc = svc();
        let open = handle_line(&svc, "OPEN fig3 3");
        let id: u64 = open.trim_start_matches("OK session=").parse().unwrap();
        // live stream, empty batch: count=0 but done=0
        let probe = handle_line(&svc, &format!("NEXT {id} 0"));
        assert!(probe.starts_with("OK count=0 done=0"), "{probe}");
        // the probe consumed nothing: the first community is still first
        let first = handle_line(&svc, &format!("NEXT {id} 1"));
        assert!(first.contains("members=3,11,12,20"), "{first}");
        // drain, then the same probe reports done=1
        let drained = handle_line(&svc, &format!("NEXT {id} 10000"));
        assert!(drained.contains("done=1"), "{drained}");
        let probe = handle_line(&svc, &format!("NEXT {id} 0"));
        assert!(probe.starts_with("OK count=0 done=1"), "{probe}");
    }

    #[test]
    fn batch_groups_and_answers_per_slot() {
        let svc = svc();
        let reply = handle_line(&svc, "BATCH fig3 3 4 ; fig3 3 1 ; fig3 2 2 ; nope 3 1");
        assert!(reply.starts_with("OK batch=4"), "{reply}");
        assert!(reply.ends_with("END"), "{reply}");
        assert!(reply.contains("R 0 OK"), "{reply}");
        assert!(reply.contains("count=4"), "{reply}");
        assert!(reply.contains("R 1 OK"), "{reply}");
        assert!(reply.contains("R 2 OK"), "{reply}");
        assert!(reply.contains("R 3 ERR unknown graph"), "{reply}");
        // the paper's top community leads slot 0 and slot 1 alike
        assert!(reply.contains("influence=18 members=3,11,12,20"), "{reply}");
        // slots 0 and 1 shared one search; slot 2 (other γ) ran its own
        let stats = handle_line(&svc, "STATS");
        assert!(stats.contains("misses=2"), "{stats}");
        assert!(stats.contains("batches=1"), "{stats}");
    }

    /// A `BATCH` of one behaves exactly like `QUERY`, and separators
    /// tolerate arbitrary spacing.
    #[test]
    fn batch_answers_match_individual_queries() {
        let individual_svc = svc();
        let individual = handle_line(&individual_svc, "QUERY fig3 3 4");
        let batched_svc = svc();
        let batched = handle_line(&batched_svc, "BATCH fig3 3 2;fig3 3 4");
        // the k=4 slot lists exactly the communities QUERY printed
        let individual_cs: Vec<&str> = individual.lines().filter(|l| l.starts_with("C ")).collect();
        let batched_slot1: Vec<&str> = batched
            .lines()
            .skip_while(|l| !l.starts_with("R 1 "))
            .skip(1)
            .take_while(|l| l.starts_with("C "))
            .collect();
        assert_eq!(batched_slot1, individual_cs, "{batched}");
        // and the k=2 slot is the 2-prefix
        let batched_slot0: Vec<&str> = batched
            .lines()
            .skip_while(|l| !l.starts_with("R 0 "))
            .skip(1)
            .take_while(|l| l.starts_with("C "))
            .collect();
        assert_eq!(batched_slot0, individual_cs[..2].to_vec(), "{batched}");
    }

    #[test]
    fn hostile_batch_forms_error_cleanly() {
        let svc = svc();
        for bad in [
            "BATCH",
            "BATCH ;",
            "BATCH ; ;",
            "BATCH fig3 3",
            "BATCH fig3 3 4 ;",
            "BATCH ; fig3 3 4",
            "BATCH fig3 3 4 ; fig3 3",
            "BATCH fig3 3 4 extra tokens here ; fig3 3 4",
            "BATCH fig3 x 4",
            "BATCH fig3 3 4 warp",
        ] {
            let reply = handle_line(&svc, bad);
            assert!(reply.starts_with("ERR "), "{bad:?} -> {reply}");
        }
        // over the sub-query cap: rejected without executing anything
        let huge = format!("BATCH {}", vec!["fig3 3 4"; MAX_BATCH + 1].join(" ; "));
        let reply = handle_line(&svc, &huge);
        assert!(reply.starts_with("ERR "), "{reply}");
        assert!(reply.contains("limit"), "{reply}");
        assert!(
            handle_line(&svc, "STATS").contains("queries=0"),
            "nothing ran"
        );
        // exactly at the cap is fine
        let full = format!("BATCH {}", vec!["fig3 3 4"; MAX_BATCH].join(" ; "));
        assert!(handle_line(&svc, &full).starts_with("OK batch=256"));
    }

    #[test]
    fn every_algorithm_mode_is_reachable_and_validated() {
        let svc = svc();
        // truss answers its own community family through the same verb
        let reply = handle_line(&svc, "QUERY fig3 4 1 truss");
        assert!(reply.contains("algo=truss"), "{reply}");
        assert!(reply.contains("influence=18 members=3,11,12,20"), "{reply}");
        // the centralized validation rejects truss below γ = 2
        assert!(handle_line(&svc, "QUERY fig3 1 1 truss").starts_with("ERR "));
        // the override-only baselines answer identically to local_search
        // (distinct k per mode keeps every query a genuine cache miss)
        let tail = |s: &str| s.lines().skip(1).map(String::from).collect::<Vec<_>>();
        for (mode, k) in [("backward", 5), ("naive", 6)] {
            // the forced baseline goes first so it is a genuine miss; the
            // reference afterwards may hit the shared core-family entry
            // (identical answers are exactly the point)
            let got = handle_line(&svc, &format!("QUERY fig3 3 {k} {mode}"));
            let reference = handle_line(&svc, &format!("QUERY fig3 3 {k} local_search"));
            assert!(got.contains(&format!("algo={mode} cached=false")), "{got}");
            assert_eq!(tail(&got), tail(&reference), "{mode}");
        }
        let stats = handle_line(&svc, "STATS");
        assert!(stats.contains("truss=1"), "{stats}");
        assert!(stats.contains("backward=1"), "{stats}");
        assert!(stats.contains("naive=1"), "{stats}");
    }

    #[test]
    fn gen_graphs_stats_flow() {
        let svc = svc();
        let gen = handle_line(&svc, "GEN toy gnm 50 150 7");
        assert!(gen.contains("graph=toy"), "{gen}");
        assert!(gen.contains("n=50"), "{gen}");
        let graphs = handle_line(&svc, "GRAPHS");
        assert!(graphs.contains("count=2"), "{graphs}");
        assert!(graphs.contains("name=fig3"), "{graphs}");
        assert!(graphs.contains("name=toy"), "{graphs}");
        let _ = handle_line(&svc, "QUERY toy 2 3");
        let stats = handle_line(&svc, "STATS");
        assert!(stats.contains("queries=1"), "{stats}");
        assert!(stats.contains("graphs=2"), "{stats}");
    }

    #[test]
    fn save_loadx_round_trip_over_the_wire() {
        let dir = ic_graph::scratch::ScratchDir::new("ic-protocol-icsr");
        let svc = svc();
        let path = dir.file("fig3.icsr");
        let path = path.to_str().unwrap();

        let saved = handle_line(&svc, &format!("SAVE fig3 {path}"));
        assert!(saved.starts_with("OK saved=fig3"), "{saved}");
        let loaded = handle_line(&svc, &format!("LOADX disk {path}"));
        assert!(loaded.contains("graph=disk"), "{loaded}");
        assert!(loaded.contains("storage=file"), "{loaded}");

        // identical answers through the wire, semi-external dispatch
        let mem = handle_line(&svc, "QUERY fig3 3 4");
        let file = handle_line(&svc, "QUERY disk 3 4");
        let tail = |s: &str| s.lines().skip(1).map(String::from).collect::<Vec<_>>();
        assert_eq!(tail(&mem), tail(&file), "\nmem: {mem}\nfile: {file}");
        let explain = handle_line(&svc, "EXPLAIN disk 3 4");
        assert!(explain.contains("storage=file"), "{explain}");
        assert!(explain.contains("algo=local_search_se"), "{explain}");
        assert!(!explain.contains("est_bytes=0 "), "{explain}");

        // STATS carries a per-store I/O row for the file store
        let stats = handle_line(&svc, "STATS");
        assert!(stats.contains("S graph=disk storage=file"), "{stats}");
        assert!(stats.contains("S graph=fig3 storage=memory"), "{stats}");
        assert!(stats.ends_with("END"), "{stats}");
        let disk_row = stats
            .lines()
            .find(|l| l.starts_with("S graph=disk"))
            .unwrap();
        assert!(!disk_row.contains("io_bytes=0"), "{disk_row}");
    }

    #[test]
    fn explain_reports_memory_storage_for_resident_graphs() {
        let svc = svc();
        let reply = handle_line(&svc, "EXPLAIN fig3 3 4");
        assert!(reply.contains("storage=memory"), "{reply}");
        assert!(reply.contains("est_bytes=0"), "{reply}");
    }

    #[test]
    fn hostile_loadx_and_save_are_err_lines() {
        let dir = ic_graph::scratch::ScratchDir::new("ic-protocol-icsr-err");
        let svc = svc();
        let bad = dir.file("bad.icsr");
        std::fs::write(&bad, b"ICSR nonsense").unwrap();
        let bad = bad.to_str().unwrap().to_string();
        for line in [
            "LOADX".to_string(),
            "LOADX onlyname".to_string(),
            "LOADX x y z extra".to_string(),
            "LOADX x /nonexistent/path.icsr".to_string(),
            format!("LOADX x {bad}"),
            format!("LOADX x {bad} notanumber"),
            "SAVE".to_string(),
            "SAVE fig3".to_string(),
            "SAVE nope /tmp/out.icsr".to_string(),
            "SAVE fig3 /nonexistent-dir-zzz/out.icsr".to_string(),
        ] {
            let reply = handle_line(&svc, &line);
            assert!(reply.starts_with("ERR "), "{line:?} -> {reply}");
        }
        // the hostile attempts left the service fully functional
        assert!(handle_line(&svc, "QUERY fig3 3 4").contains("count=4"));
    }

    #[test]
    fn file_backed_rejections_are_err_lines() {
        let dir = ic_graph::scratch::ScratchDir::new("ic-protocol-icsr-rej");
        let svc = svc();
        let path = dir.file("g.icsr");
        let path = path.to_str().unwrap();
        handle_line(&svc, &format!("SAVE fig3 {path}"));
        assert!(handle_line(&svc, &format!("LOADX gx {path}")).starts_with("OK"));
        for line in [
            "UPDATE gx ADD 1 2 1.0",
            "COMMIT gx",
            "OPEN gx 3",
            "QUERY gx 3 4 local_search",
        ] {
            let reply = handle_line(&svc, line);
            assert!(reply.starts_with("ERR storage error"), "{line} -> {reply}");
        }
        // but semi-external queries answer fine
        assert!(handle_line(&svc, "QUERY gx 3 4").contains("count=4"));
        assert!(handle_line(&svc, "QUERY gx 3 4 online_all_se").contains("count=4"));
    }

    #[test]
    fn next_survives_graph_replacement_mid_session() {
        // regression: NEXT used to translate the old instance's ranks
        // through a fresh registry lookup — an out-of-bounds panic once
        // the name was re-registered to a smaller graph
        let svc = svc();
        let open = handle_line(&svc, "OPEN fig3 3");
        let id: u64 = open.trim_start_matches("OK session=").parse().unwrap();
        let gen = handle_line(&svc, "GEN fig3 gnm 5 4 1"); // tiny replacement
        assert!(gen.starts_with("OK"), "{gen}");
        let next = handle_line(&svc, &format!("NEXT {id} 2"));
        assert!(next.starts_with("OK count=2"), "{next}");
        assert!(next.contains("members=3,11,12,20"), "{next}");
    }

    #[test]
    fn update_commit_round_trip_changes_answers() {
        let svc = svc();
        let before = handle_line(&svc, "QUERY fig3 3 1");
        assert!(before.contains("members=3,11,12,20"), "{before}");

        // delete the top clique's cheapest edge; not visible before COMMIT
        let upd = handle_line(&svc, "UPDATE fig3 DEL 3 11");
        assert_eq!(upd, "OK graph=fig3 pending=1 n=22 m=45");
        let mid = handle_line(&svc, "QUERY fig3 3 1");
        assert!(mid.contains("members=3,11,12,20"), "{mid}");

        let commit = handle_line(&svc, "COMMIT fig3");
        assert!(commit.starts_with("OK graph=fig3 generation="), "{commit}");
        assert!(commit.contains("ops=1"), "{commit}");
        let after = handle_line(&svc, "QUERY fig3 3 1");
        assert!(after.starts_with("OK"), "{after}");
        assert!(!after.contains("members=3,11,12,20"), "{after}");

        // growing a new clique through ADD with on-the-fly vertices
        for line in [
            "UPDATE fig3 ADD 50 51 30",
            "UPDATE fig3 ADD 52 50 30",
            "UPDATE fig3 ADD 52 51 30",
            "UPDATE fig3 ADD 53 50 30",
            "UPDATE fig3 ADD 53 51 30",
            "UPDATE fig3 ADD 53 52 30",
        ] {
            let reply = handle_line(&svc, line);
            assert!(reply.starts_with("OK"), "{line} -> {reply}");
        }
        // 6 edge inserts plus 4 on-the-fly vertex creations
        let commit2 = handle_line(&svc, "COMMIT fig3");
        assert!(commit2.contains("ops=10"), "{commit2}");
        let top = handle_line(&svc, "QUERY fig3 3 1");
        assert!(top.contains("influence=30 members=50,51,52,53"), "{top}");
    }

    #[test]
    fn malformed_updates_are_err_lines() {
        let svc = svc();
        for bad in [
            "UPDATE",
            "UPDATE fig3",
            "UPDATE fig3 ADD",
            "UPDATE fig3 ADD 1",
            "UPDATE fig3 ADD 1 2 3 4",
            "UPDATE fig3 ADD x 2",
            "UPDATE fig3 DEL 1",
            "UPDATE fig3 DEL 0 9",     // edge does not exist
            "UPDATE fig3 ADD 3 11",    // edge already exists
            "UPDATE fig3 ADD 90 91",   // endpoints missing, no weight
            "UPDATE fig3 ADDV 3 1.0",  // vertex exists
            "UPDATE fig3 ADDV 90 NaN", // non-finite weight
            "UPDATE fig3 DELV 404",
            "UPDATE fig3 REWEIGHT 404 2.0",
            "UPDATE fig3 WARP 1 2",
            "UPDATE nope ADD 1 2 1.0",
            "COMMIT",
            "COMMIT nope",
            "COMMIT fig3 extra",
        ] {
            let reply = handle_line(&svc, bad);
            assert!(reply.starts_with("ERR "), "{bad} -> {reply}");
        }
        // the graph still answers correctly after all those rejections
        let ok = handle_line(&svc, "QUERY fig3 3 4");
        assert!(ok.contains("count=4"), "{ok}");
    }

    #[test]
    fn errors_are_err_lines() {
        let svc = svc();
        for bad in [
            "QUERY nope 3 4",
            "QUERY fig3 0 4",
            "QUERY fig3 3",
            "QUERY fig3 3 4 warp",
            "NEXT 999",
            "CLOSE abc",
            "GEN x unknown 1 2 3",
            "FROBNICATE",
        ] {
            let reply = handle_line(&svc, bad);
            assert!(reply.starts_with("ERR "), "{bad} -> {reply}");
        }
        assert_eq!(handle_line(&svc, ""), "");
        assert_eq!(handle_line(&svc, "# comment"), "");
        assert!(handle_line(&svc, "HELP").contains("QUERY"));
    }
}
