//! Protocol robustness: `handle_line` must survive anything a client can
//! type — malformed verbs, truncated argument lists, numeric garbage,
//! oversized payloads, and hostile `UPDATE`/`COMMIT` sequences — by
//! replying `ERR …` (or `OK` for accidentally valid input), never by
//! panicking. A panic inside a connection thread would poison the shared
//! registry/session locks and take the whole service down, so after the
//! barrage the service must still answer real queries correctly.

use std::sync::Arc;

use influential_communities::graph::paper::figure3;
use influential_communities::graph::Pcg32;
use influential_communities::prelude::{AlgorithmId, Selection, TopKQuery};
use influential_communities::search::local_search::CountStrategy;
use influential_communities::service::protocol::{handle_line, Verb};
use influential_communities::service::{Query, Service, ServiceConfig};

fn svc() -> Arc<Service> {
    let svc = Service::new(ServiceConfig {
        workers: 2,
        cache_capacity: 32,
        cache_shards: 2,
        ..ServiceConfig::default()
    });
    svc.register("fig3", figure3());
    svc
}

/// Every reply is a full string starting `OK`/`ERR` (or empty for
/// comments); nothing may panic.
fn feed(svc: &Arc<Service>, line: &str) -> String {
    let reply = handle_line(svc, line);
    assert!(
        reply.is_empty() || reply.starts_with("OK") || reply.starts_with("ERR "),
        "unexpected reply shape for {line:?}: {reply:?}"
    );
    reply
}

#[test]
fn malformed_and_truncated_lines_error_cleanly() {
    let svc = svc();
    let cases: &[&str] = &[
        // truncated forms of every verb
        "LOAD",
        "LOAD x",
        "GEN",
        "GEN a",
        "GEN a gnm",
        "GEN a gnm 10",
        "GEN a gnm 10 20",
        "QUERY",
        "QUERY fig3",
        "QUERY fig3 3",
        "BATCH",
        "BATCH ;",
        "BATCH ; ; ;",
        "BATCH fig3",
        "BATCH fig3 3",
        "BATCH fig3 3 4 ;",
        "BATCH ; fig3 3 4",
        "BATCH fig3 3 4 ; fig3",
        "BATCH fig3 3 4 ; ; fig3 3 4",
        "BATCH fig3 3 4 warp ; fig3 3 4",
        "BATCH fig3 3 4 ; fig3 3 4 auto extra",
        "BATCH fig3 ; 3 4",
        "BATCH ;;;;;;;;",
        "EXPLAIN",
        "EXPLAIN fig3 3",
        "EXPLAIN ANALYZE",
        "EXPLAIN ANALYZE fig3",
        "EXPLAIN ANALYZE fig3 3",
        "EXPLAIN ANALYZE nope 3 4",
        "EXPLAIN ANALYZE fig3 3 4 warp",
        "EXPLAIN ANALYZE fig3 3 4 auto extra",
        "EXPLAIN ANALYZE fig3 -1 4",
        "OPEN",
        "OPEN fig3",
        "NEXT",
        "CLOSE",
        "UPDATE",
        "UPDATE fig3",
        "UPDATE fig3 ADD",
        "UPDATE fig3 ADD 1",
        "UPDATE fig3 DEL 1",
        "UPDATE fig3 ADDV",
        "UPDATE fig3 ADDV 1",
        "UPDATE fig3 DELV",
        "UPDATE fig3 REWEIGHT 1",
        "COMMIT",
        // surplus arguments
        "QUERY fig3 3 4 auto extra",
        "OPEN fig3 3 4",
        "CLOSE 1 2",
        "COMMIT fig3 now",
        "UPDATE fig3 ADD 1 2 3.0 4",
        // numeric garbage and overflow
        "QUERY fig3 -1 4",
        "QUERY fig3 3 -4",
        "QUERY fig3 99999999999999999999 4",
        "QUERY fig3 3 99999999999999999999999999",
        "NEXT not-a-number",
        "NEXT 18446744073709551616",
        "UPDATE fig3 ADD 1e3 2",
        "UPDATE fig3 ADD 1 2 not-a-float",
        "UPDATE fig3 ADDV 7 inf-inity",
        "UPDATE fig3 REWEIGHT 3 1.0.0",
        // unknown verbs / modes / actions / generators
        "FROBNICATE the graph",
        "QUERY fig3 3 4 warp",
        "GEN x unknown 1 2 3",
        "UPDATE fig3 MERGE 1 2",
        // semantic rejections that must not disturb state
        "UPDATE fig3 DEL 0 9",
        "UPDATE fig3 ADD 3 11",
        "UPDATE fig3 ADD 777 778",
        "UPDATE fig3 DELV 777",
        "UPDATE nope ADD 1 2 1.0",
        "COMMIT nope",
        "LOAD ghost /nonexistent/path/graph.icg",
        // storage verbs: truncated, hostile paths, bad budgets
        "LOADX",
        "LOADX x",
        "LOADX ghost /nonexistent/path/graph.icsr",
        "LOADX ghost /dev/null",
        "LOADX ghost /etc/hostname",
        "LOADX ghost ../../../../etc/passwd",
        "LOADX ghost /nonexistent/path/graph.icsr not-a-budget",
        "LOADX ghost /nonexistent/path/graph.icsr 64 extra",
        "SAVE",
        "SAVE fig3",
        "SAVE nope /tmp/never-written.icsr",
        "SAVE fig3 /nonexistent/dir/never-written.icsr",
        "SAVE fig3 /tmp/a.icsr extra",
        // observability verbs: surplus arguments, numeric garbage
        "METRICS extra",
        "METRICS 1 2 3",
        "SLOWLOG ten",
        "SLOWLOG -1",
        "SLOWLOG 1 2",
        "SLOWLOG 99999999999999999999999999",
    ];
    for &line in cases {
        let reply = feed(&svc, line);
        assert!(reply.starts_with("ERR "), "{line:?} -> {reply:?}");
    }
    // comments and blanks produce no reply at all
    assert_eq!(feed(&svc, ""), "");
    assert_eq!(feed(&svc, "   "), "");
    assert_eq!(feed(&svc, "# QUERY fig3 3 4"), "");
}

#[test]
fn oversized_inputs_do_not_panic_or_allocate_absurdly() {
    let svc = svc();
    // a graph name of a megabyte, a megabyte of digits, huge whitespace
    let long_name = "g".repeat(1 << 20);
    let digits = "9".repeat(1 << 20);
    let many_tokens = "x ".repeat(200_000);
    let many_batch = "fig3 3 4 ; ".repeat(100_000);
    for line in [
        format!("QUERY {long_name} 3 4"),
        format!("QUERY fig3 {digits} 4"),
        format!("UPDATE fig3 ADD {digits} {digits}"),
        format!("UPDATE {long_name} ADD 1 2 1.0"),
        format!("COMMIT {long_name}"),
        many_tokens.clone(),
        format!("QUERY fig3 3 4 {many_tokens}"),
        format!("BATCH {many_batch}"),
        format!("BATCH fig3 {digits} 4"),
        format!("BATCH {many_tokens}"),
    ] {
        let reply = feed(&svc, &line);
        assert!(reply.starts_with("ERR "), "oversized line -> {reply:?}");
    }
}

#[test]
fn seeded_token_fuzzing_never_panics() {
    let svc = svc();
    // every verb of the list, plus odd casings and the empty token
    let verbs: Vec<&str> = Verb::ALL
        .iter()
        .map(|v| v.name())
        .chain(["update", "Commit", "batch", ""])
        .collect();
    let tokens = [
        "fig3",
        "nope",
        "ADD",
        "DEL",
        "ADDV",
        "DELV",
        "REWEIGHT",
        "gnm",
        "ba",
        "rmat",
        "auto",
        "forward",
        "naive",
        "backward",
        "truss",
        "0",
        "1",
        "3",
        "4",
        "-1",
        "1.5",
        "NaN",
        "inf",
        "9999999999999999999999",
        "\u{1F4A5}",
        "..",
        "--",
        "x",
        ";",
        ";;",
        "fig3 3 4 ;",
        "; fig3 3 4",
    ];
    let mut rng = Pcg32::new(0xF422);
    for _ in 0..3000 {
        let mut line = String::from(verbs[rng.gen_index(verbs.len())]);
        for _ in 0..rng.gen_index(6) {
            line.push(' ');
            line.push_str(tokens[rng.gen_index(tokens.len())]);
        }
        feed(&svc, &line); // shape-checked inside; must not panic
    }
}

/// A malformed request is answered with the verb's syntax from the verb
/// list, naming the verb once; a malformed `UPDATE` action names its own
/// form.
#[test]
fn usage_errors_quote_the_verb_list() {
    let svc = svc();
    let usage = |name: &str, form: &str| format!("ERR invalid query: {name}: usage {name} {form}");
    let mut bare = 0;
    for verb in Verb::ALL {
        let syntax = verb.syntax();
        if syntax.is_empty() || syntax.starts_with('[') {
            continue; // nothing required: a bare verb is a valid request
        }
        assert_eq!(feed(&svc, verb.name()), usage(verb.name(), syntax));
        bare += 1;
    }
    assert!(bare >= 12, "verbs with required arguments: {bare}");
    assert_eq!(
        feed(&svc, "METRICS extra"),
        "ERR invalid query: METRICS: usage METRICS"
    );
    assert_eq!(
        feed(&svc, "SLOWLOG 1 2"),
        usage("SLOWLOG", Verb::Slowlog.syntax())
    );
    for (line, form) in [
        ("UPDATE fig3 ADD 1", "<graph> ADD <u> <v> [w]"),
        ("UPDATE fig3 DEL 1", "<graph> DEL <u> <v>"),
        ("UPDATE fig3 ADDV 1", "<graph> ADDV <v> <w>"),
        ("UPDATE fig3 DELV", "<graph> DELV <v>"),
        ("UPDATE fig3 REWEIGHT 1", "<graph> REWEIGHT <v> <w>"),
    ] {
        assert!(Verb::Update.syntax().contains(form), "{form}");
        assert_eq!(feed(&svc, line), usage("UPDATE", form), "{line}");
    }
}

/// Every verb of the list has a row in the README's protocol table.
#[test]
fn every_verb_has_a_readme_protocol_row() {
    let readme = std::fs::read_to_string(concat!(env!("CARGO_MANIFEST_DIR"), "/README.md"))
        .expect("README.md is readable");
    for verb in Verb::ALL {
        let cell = format!("| `{}", verb.name());
        let documented = readme.lines().any(|l| {
            l.strip_prefix(&cell)
                .is_some_and(|rest| rest.starts_with([' ', '`']))
        });
        assert!(
            documented,
            "no README protocol-table row starts with {cell}"
        );
    }
}

/// Fuzz the centralized `TopKQuery` validation: random (often hostile)
/// parameter combinations must produce a typed accept/reject — never a
/// panic — and every accepted query must actually run.
#[test]
fn seeded_builder_fuzzing_never_panics() {
    let g = figure3();
    let gammas: [u32; 7] = [0, 1, 2, 3, 9, u32::MAX, 4];
    let ks: [usize; 8] = [
        0,
        1,
        2,
        4,
        1000,
        TopKQuery::MAX_K,
        TopKQuery::MAX_K + 1,
        usize::MAX,
    ];
    let deltas: [f64; 8] = [
        f64::NAN,
        f64::INFINITY,
        f64::NEG_INFINITY,
        -1.0,
        0.0,
        1.0,
        1.0001,
        2.0,
    ];
    let selections: [Selection; 8] = [
        Selection::Auto,
        Selection::Forced(AlgorithmId::LocalSearch),
        Selection::Forced(AlgorithmId::Progressive),
        Selection::Forced(AlgorithmId::Forward),
        Selection::Forced(AlgorithmId::OnlineAll),
        Selection::Forced(AlgorithmId::Backward),
        Selection::Forced(AlgorithmId::Naive),
        Selection::Forced(AlgorithmId::Truss),
    ];
    let countings = [CountStrategy::CountIc, CountStrategy::OnlineAll];
    let mut rng = Pcg32::new(0xB01D);
    let mut accepted = 0usize;
    let mut rejected = 0usize;
    for _ in 0..4000 {
        let q = TopKQuery::new(gammas[rng.gen_index(gammas.len())])
            .k(ks[rng.gen_index(ks.len())])
            .delta(deltas[rng.gen_index(deltas.len())])
            .algorithm(selections[rng.gen_index(selections.len())])
            .count_strategy(countings[rng.gen_index(countings.len())])
            .non_containment(rng.gen_index(2) == 0);
        match q.validate() {
            Ok(()) => {
                accepted += 1;
                // an accepted query must execute without panicking, both
                // batch and streamed (bound the stream pull — accepted k
                // can be astronomically large)
                let res = q.run(&g).expect("validated queries run");
                assert!(res.communities.len() <= q.k_value());
                let _ = q
                    .stream(&g)
                    .expect("validated queries stream")
                    .take(8)
                    .count();
            }
            Err(e) => {
                rejected += 1;
                // typed errors render; run() surfaces the same rejection
                // (compare rendered form: NaN payloads are non-Eq)
                assert!(!e.to_string().is_empty());
                assert_eq!(q.run(&g).unwrap_err().to_string(), e.to_string());
            }
        }
    }
    assert!(accepted > 100, "fuzz grid must exercise the accept path");
    assert!(rejected > 100, "fuzz grid must exercise the reject path");
}

/// `NEXT <session> 0` used to reply `OK count=0` — indistinguishable
/// from the documented "stream exhausted" signal, so a probing client
/// wrongly concluded the stream was done. The reply now carries an
/// explicit `done=` derived from the session iterator.
#[test]
fn next_zero_probe_is_not_mistaken_for_exhaustion() {
    let svc = svc();
    let open = feed(&svc, "OPEN fig3 3");
    let id: u64 = open.trim_start_matches("OK session=").parse().unwrap();
    let probe = feed(&svc, &format!("NEXT {id} 0"));
    assert!(probe.starts_with("OK count=0 done=0"), "{probe}");
    // the stream yields everything afterwards, each reply flagged live
    // until the final one
    let total = TopKQuery::new(3)
        .k(usize::MAX / 4)
        .run(&figure3())
        .unwrap()
        .communities
        .len();
    for i in 0..total {
        let reply = feed(&svc, &format!("NEXT {id} 1"));
        let expect_done = i + 1 == total;
        assert!(
            reply.starts_with(&format!("OK count=1 done={}", u8::from(expect_done))),
            "community {i}: {reply}"
        );
    }
    let after = feed(&svc, &format!("NEXT {id} 0"));
    assert!(after.starts_with("OK count=0 done=1"), "{after}");
    assert!(feed(&svc, &format!("CLOSE {id}")).starts_with("OK"));
}

#[test]
fn service_still_answers_correctly_after_the_barrage() {
    let svc = svc();
    // throw the full hostile corpus at it first
    for line in [
        "UPDATE fig3 ADD 3 11",
        "UPDATE fig3 DEL 0 9",
        "COMMIT nope",
        "QUERY fig3 0 0",
        "FROBNICATE",
        "NEXT 42",
    ] {
        let _ = feed(&svc, line);
    }
    // interleave a *valid* update cycle to prove state is not wedged
    assert!(feed(&svc, "UPDATE fig3 DEL 3 11").starts_with("OK"));
    assert!(feed(&svc, "COMMIT fig3").starts_with("OK"));

    // the service must answer exactly like a single-threaded reference
    let mut dg = influential_communities::dynamic::DynamicGraph::new(figure3());
    dg.delete_edge(3, 11).unwrap();
    let reference = dg.commit().graph;
    let expected = TopKQuery::new(3).k(4).run(&reference).unwrap().communities;
    let resp = svc.query(Query::new("fig3", 3, 4)).unwrap();
    assert_eq!(resp.communities.len(), expected.len());
    for (a, b) in resp.communities.iter().zip(&expected) {
        assert_eq!(
            a.external_members_in(&resp.graph_instance),
            b.external_members(&reference)
        );
    }
    // sessions also still work end to end
    let open = feed(&svc, "OPEN fig3 3");
    assert!(open.starts_with("OK session="), "{open}");
    let id: u64 = open.trim_start_matches("OK session=").parse().unwrap();
    assert!(feed(&svc, &format!("NEXT {id} 2")).contains("count=2"));
    assert!(feed(&svc, &format!("CLOSE {id}")).starts_with("OK"));
}
