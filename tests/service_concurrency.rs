//! The serving subsystem under concurrent load (the PR's acceptance
//! test): many client threads issue a mixed workload — planner-dispatched
//! batch queries, forced-mode queries, and progressive sessions — against
//! multiple registered graphs, and every answer must match what a
//! single-threaded forced-LocalSearch `TopKQuery` says, with the cache visibly
//! absorbing repeats.

use std::collections::HashMap;
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::Arc;

use influential_communities::dynamic::UpdateOp;
use influential_communities::graph::generators::{assemble, barabasi_albert, gnm, WeightKind};
use influential_communities::graph::scratch::ScratchDir;
use influential_communities::search::query::Selection;
use influential_communities::search::{Community, TopKQuery};
use influential_communities::service::{
    Algorithm, Mode, Query, Service, ServiceConfig, ServiceError,
};

/// The six interchangeable core-family algorithms (truss answers a
/// different family and is exercised separately by the service tests).
const CORE_ALGORITHMS: [Algorithm; 6] = [
    Algorithm::LocalSearch,
    Algorithm::Progressive,
    Algorithm::Forward,
    Algorithm::OnlineAll,
    Algorithm::Backward,
    Algorithm::Naive,
];

/// Single-threaded ground truth through the unified core API.
fn reference_top_k(
    g: &influential_communities::graph::WeightedGraph,
    gamma: u32,
    k: usize,
) -> Vec<Community> {
    TopKQuery::new(gamma)
        .k(k)
        .algorithm(Selection::Forced(Algorithm::LocalSearch))
        .run(g)
        .expect("valid query")
        .communities
}

/// Reference answers computed single-threaded, keyed by (graph, γ, k).
type Reference = HashMap<(String, u32, usize), Vec<Community>>;

fn assert_matches(
    got: &[Community],
    reference: &Reference,
    graph: &str,
    gamma: u32,
    k: usize,
    context: &str,
) {
    let expected = &reference[&(graph.to_string(), gamma, k)];
    assert_eq!(got.len(), expected.len(), "{context}: count");
    for (a, b) in got.iter().zip(expected) {
        assert_eq!(a.keynode, b.keynode, "{context}: keynode");
        assert_eq!(a.members, b.members, "{context}: members");
        assert_eq!(a.influence, b.influence, "{context}: influence");
    }
}

#[test]
fn concurrent_mixed_workload_matches_single_threaded_search() {
    let svc = Service::new(ServiceConfig {
        workers: 4,
        cache_capacity: 128,
        cache_shards: 8,
        ..ServiceConfig::default()
    });
    let graphs = [
        (
            "gnm",
            assemble(180, &gnm(180, 700, 11), WeightKind::Uniform(42)),
        ),
        (
            "ba",
            assemble(200, &barabasi_albert(200, 4, 3), WeightKind::PageRank),
        ),
    ];
    let gammas = [2u32, 3, 4];
    let ks = [1usize, 3, 8, 250];

    // single-threaded ground truth for every combination in the workload
    let mut reference: Reference = HashMap::new();
    for (name, g) in &graphs {
        for &gamma in &gammas {
            for &k in &ks {
                reference.insert((name.to_string(), gamma, k), reference_top_k(g, gamma, k));
            }
        }
        svc.register(name, g.clone());
    }
    let reference = Arc::new(reference);

    // 8 threads × 13 batch queries = 104 concurrent queries, plus 8
    // progressive sessions pulled in parallel — every combination hit by
    // several threads so the cache must absorb repeats.
    const THREADS: usize = 8;
    const QUERIES_PER_THREAD: usize = 13;
    let handles: Vec<_> = (0..THREADS)
        .map(|t| {
            let svc = Arc::clone(&svc);
            let reference = Arc::clone(&reference);
            std::thread::spawn(move || {
                for q in 0..QUERIES_PER_THREAD {
                    let idx = t + q; // overlapping sequences force cache reuse
                    let (graph, _) = [("gnm", ()), ("ba", ())][idx % 2];
                    let gamma = [2u32, 3, 4][idx % 3];
                    let k = [1usize, 3, 8, 250][idx % 4];
                    // every fourth query pins an algorithm instead of
                    // letting the planner choose
                    let mode = match q % 5 {
                        1 => Mode::Forced(Algorithm::Forward),
                        2 => Mode::Forced(Algorithm::OnlineAll),
                        3 => Mode::Forced(Algorithm::Progressive),
                        4 => Mode::Forced(Algorithm::Backward),
                        _ => Mode::Auto,
                    };
                    let resp = svc
                        .query(Query::new(graph, gamma, k).with_mode(mode))
                        .expect("query succeeds");
                    assert_matches(
                        &resp.communities,
                        &reference,
                        graph,
                        gamma,
                        k,
                        &format!("thread {t} query {q} ({graph}, γ={gamma}, k={k})"),
                    );
                }

                // one progressive session per thread, interleaved with the
                // other threads' batch queries
                let graph = ["gnm", "ba"][t % 2];
                let gamma = [2u32, 3][t % 2];
                let id = svc.open_session(graph, gamma).expect("session opens");
                let mut streamed = Vec::new();
                loop {
                    let (batch, _) = svc.session_next_full(id, 3).expect("session next");
                    if batch.is_empty() {
                        break;
                    }
                    streamed.extend(batch);
                    if streamed.len() >= 8 {
                        break; // a client that stops early — LS-P's point
                    }
                }
                svc.close_session(id).expect("session closes");
                let k = streamed.len().max(1);
                let truncated: Vec<Community> = streamed.into_iter().take(k).collect();
                if !truncated.is_empty() {
                    let full = &reference.get(&(graph.to_string(), gamma, 250));
                    let expected = &full.expect("combo covered")[..truncated.len()];
                    for (a, b) in truncated.iter().zip(expected) {
                        assert_eq!(a.members, b.members, "session thread {t}");
                    }
                }
            })
        })
        .collect();
    for h in handles {
        h.join().expect("no worker panicked");
    }

    let stats = svc.stats();
    assert_eq!(stats.queries, (THREADS * QUERIES_PER_THREAD) as u64);
    assert!(stats.queries >= 100, "acceptance floor: ≥100 queries");
    assert!(
        stats.cache_hits > 0,
        "repeated combinations must hit the cache: {stats:?}"
    );
    assert!(stats.hit_rate() > 0.0);
    assert_eq!(stats.sessions_opened, THREADS as u64);
    assert_eq!(stats.sessions_closed, THREADS as u64);
    assert!(stats.communities_streamed > 0);

    // Every algorithm must execute at least once. The concurrent phase
    // cannot guarantee that by itself — mode is deliberately not part of
    // the cache key, so under some interleavings every forced-mode query
    // lands on a hit another algorithm populated. Drive one guaranteed
    // miss per algorithm (a fresh graph *name* per algorithm: with the
    // prefix-aware cache, no k against an already-queried lane is safe
    // from being served by slicing) and check the answers against the
    // single-threaded search while we're at it.
    for (i, algo) in CORE_ALGORITHMS.into_iter().enumerate() {
        let k = 11 + i;
        let name = format!("post-{algo}");
        svc.register(&name, graphs[0].1.clone());
        let resp = svc
            .query(Query::new(&name, 2, k).with_mode(Mode::Forced(algo)))
            .expect("post-pass query succeeds");
        assert!(!resp.cached, "{algo}: key must be fresh");
        assert!(!resp.coalesced, "{algo}: nothing to coalesce with");
        assert_eq!(resp.explain.algorithm, algo);
        assert!(resp.search_stats.is_some(), "{algo}: uniform stats");
        assert_matches_direct(&resp.communities, &graphs[0].1, 2, k);
    }
    let stats = svc.stats();
    for algo in CORE_ALGORITHMS {
        assert!(
            stats.executions(algo) > 0,
            "{algo} never executed: {stats:?}"
        );
    }
}

#[test]
fn cache_is_coherent_across_graph_replacement() {
    let svc = Service::with_defaults();
    let a = assemble(60, &gnm(60, 200, 1), WeightKind::Uniform(1));
    let b = assemble(80, &gnm(80, 320, 2), WeightKind::Uniform(2));
    svc.register("g", a.clone());
    let before = svc.query(Query::new("g", 2, 3)).unwrap();
    assert_matches_direct(&before.communities, &a, 2, 3);
    // replacing the graph must invalidate its cached answers
    svc.register("g", b.clone());
    let after = svc.query(Query::new("g", 2, 3)).unwrap();
    assert!(!after.cached, "stale answer served after re-registration");
    assert_matches_direct(&after.communities, &b, 2, 3);
}

fn assert_matches_direct(
    got: &[Community],
    g: &influential_communities::graph::WeightedGraph,
    gamma: u32,
    k: usize,
) {
    let expected = reference_top_k(g, gamma, k);
    assert_eq!(got.len(), expected.len());
    for (x, y) in got.iter().zip(&expected) {
        assert_eq!(x.members, y.members);
    }
}

/// The single-flight guarantee: 32 threads fire the *same* cold query
/// through `query` simultaneously, and the search must run exactly
/// once — one cache miss, every other
/// thread either coalesced onto the in-flight execution or (if it
/// arrived after the answer landed) served from the cache. The search is
/// made slow enough (forced OnlineAll on a 40k-edge graph) that under
/// any realistic scheduling all 31 non-leaders arrive while the leader
/// is still computing.
#[test]
fn thundering_herd_executes_the_search_exactly_once() {
    const THREADS: usize = 32;
    let g = herd_graph();
    let svc = Service::new(ServiceConfig {
        workers: 4,
        cache_capacity: 64,
        cache_shards: 4,
        ..ServiceConfig::default()
    });
    svc.register("herd", g.clone());
    let reference = reference_top_k(&g, 2, 32);

    let start = Arc::new(std::sync::Barrier::new(THREADS));
    let handles: Vec<_> = (0..THREADS)
        .map(|_| {
            let svc = Arc::clone(&svc);
            let start = Arc::clone(&start);
            std::thread::spawn(move || {
                start.wait();
                svc.query(slow_herd_query()).expect("query succeeds")
            })
        })
        .collect();
    let responses: Vec<_> = handles.into_iter().map(|h| h.join().unwrap()).collect();

    // every thread got the full, correct answer
    let executed: Vec<_> = responses
        .iter()
        .filter(|r| !r.cached && !r.coalesced)
        .collect();
    for r in &responses {
        assert_eq!(r.communities.len(), reference.len());
        for (a, b) in r.communities.iter().zip(reference.iter()) {
            assert_eq!(a.members, b.members);
        }
    }
    // ...but only one of them computed it
    let stats = svc.stats();
    assert_eq!(stats.cache_misses, 1, "the herd executed more than once");
    assert_eq!(executed.len(), 1, "exactly one leader");
    assert_eq!(stats.queries, THREADS as u64);
    assert_eq!(
        stats.coalesced + stats.cache_hits,
        (THREADS - 1) as u64,
        "everyone else was coalesced or cache-served: {stats:?}"
    );
    assert!(
        stats.coalesced >= 1,
        "a slow search must coalesce at least some of a 32-thread herd"
    );
    assert_eq!(stats.executions(Algorithm::OnlineAll), 1);
}

/// The herd graph: big enough that forced OnlineAll on it is slow.
fn herd_graph() -> influential_communities::graph::WeightedGraph {
    assemble(
        10_000,
        &barabasi_albert(10_000, 4, 77),
        WeightKind::PageRank,
    )
}

/// A slow cold query on the herd graph: OnlineAll extracts a component
/// per keynode.
fn slow_herd_query() -> Query {
    Query::new("herd", 2, 32).with_mode(Mode::Forced(Algorithm::OnlineAll))
}

/// A hit never waits behind a search. With one search slot, the slow
/// herd query holds the slot; meanwhile, on other threads, a warm query
/// is answered from the cache before the search ends, an identical cold
/// query coalesces onto the running search, and a batch holding the
/// slow key and a warm key completes — and only the one search runs.
#[test]
fn a_hit_never_waits_behind_a_search() {
    let g = herd_graph();
    let svc = Service::new(ServiceConfig {
        workers: 1,
        cache_capacity: 64,
        cache_shards: 4,
        ..ServiceConfig::default()
    });
    svc.register("herd", g.clone());
    // The probe that shows the slot is taken: a forced in-memory
    // algorithm on a file-backed copy fails inside its slot, so it runs
    // no search and counts as no query.
    let dir = ScratchDir::new("hit-never-waits");
    let path = dir.file("herd.icsr");
    let path = path.to_str().unwrap();
    svc.save_store("herd", path).unwrap();
    svc.register_file("herd-file", path, None).unwrap();
    let probe = Query::new("herd-file", 2, 1).with_mode(Mode::Forced(Algorithm::LocalSearch));
    let warm = Query::new("herd", 3, 4);
    assert!(!svc.query(warm.clone()).unwrap().cached);
    let misses_before = svc.stats().cache_misses;

    let slow_done = AtomicBool::new(false);
    std::thread::scope(|s| {
        let leader = s.spawn(|| {
            let resp = svc.query(slow_herd_query()).expect("slow query succeeds");
            slow_done.store(true, Ordering::SeqCst);
            resp
        });
        // Send probes until one queues for the slot: then the leader has
        // joined its flight and holds the slot, or is next in line.
        let queued_probe = loop {
            let attempt = s.spawn(|| svc.query(probe.clone()));
            while queued_searches(&svc) == 0 && !attempt.is_finished() {
                std::thread::yield_now();
            }
            if queued_searches(&svc) > 0 {
                break attempt;
            }
            assert!(matches!(
                attempt.join().unwrap(),
                Err(ServiceError::Storage(_))
            ));
        };

        let copy = s.spawn(|| svc.query(slow_herd_query()).expect("copy succeeds"));
        let batch = s.spawn(|| svc.query_batch(&[slow_herd_query(), warm.clone()]));
        let hit = s
            .spawn(|| {
                let resp = svc.query(warm.clone()).expect("warm query succeeds");
                (resp, slow_done.load(Ordering::SeqCst))
            })
            .join()
            .unwrap();
        assert!(hit.0.cached, "the warm query missed the cache");
        assert!(!hit.1, "the warm query waited for the search");

        let copy = copy.join().unwrap();
        assert!(copy.coalesced, "the copy did not join the running search");
        let batch = batch.join().unwrap();
        let slow_slot = batch[0].as_ref().expect("slow batch slot succeeds");
        let warm_slot = batch[1].as_ref().expect("warm batch slot succeeds");
        assert!(
            slow_slot.coalesced,
            "the batch did not join the running search"
        );
        assert!(warm_slot.cached);

        let leader = leader.join().unwrap();
        assert!(!leader.cached && !leader.coalesced);
        let reference = reference_top_k(&g, 2, 32);
        for resp in [&leader, &copy, slow_slot] {
            assert_eq!(resp.communities.len(), reference.len());
            for (a, b) in resp.communities.iter().zip(&reference) {
                assert_eq!(a.members, b.members);
            }
        }
        assert!(matches!(
            queued_probe.join().unwrap(),
            Err(ServiceError::Storage(_))
        ));
    });
    let stats = svc.stats();
    assert_eq!(stats.cache_misses, misses_before + 1, "{stats:?}");
    assert_eq!(stats.executions(Algorithm::OnlineAll), 1);
}

/// `ic_pool_queue_depth`: searches waiting for a slot.
fn queued_searches(svc: &Service) -> u64 {
    let text = svc.metrics_text();
    let depth = text
        .lines()
        .find_map(|l| l.strip_prefix("ic_pool_queue_depth "))
        .expect("the gauge is exported");
    depth.trim().parse().unwrap()
}

/// `query_batch` answers must be indistinguishable from the same queries
/// issued one by one against a fresh service — while executing once per
/// `(graph, γ, family)` group instead of once per request.
#[test]
fn batched_answers_equal_individual_answers() {
    let g = assemble(180, &gnm(180, 700, 11), WeightKind::Uniform(42));
    let queries: Vec<Query> = [
        ("g", 2u32, 1usize),
        ("g", 2, 8),
        ("g", 2, 250),
        ("g", 3, 3),
        ("g", 3, 8),
        ("g", 4, 1),
        ("g", 2, 8), // exact duplicate rides along
    ]
    .into_iter()
    .map(|(name, gamma, k)| Query::new(name, gamma, k))
    .collect();

    let batched_svc = Service::with_defaults();
    batched_svc.register("g", g.clone());
    let batched = batched_svc.query_batch(&queries);

    let individual_svc = Service::with_defaults();
    individual_svc.register("g", g.clone());

    for (q, b) in queries.iter().zip(&batched) {
        let b = b.as_ref().expect("all queries valid");
        let individual = individual_svc.query(q.clone()).expect("query succeeds");
        assert_eq!(
            b.communities.len(),
            individual.communities.len(),
            "{q:?}: count"
        );
        for (x, y) in b.communities.iter().zip(individual.communities.iter()) {
            assert_eq!(x.keynode, y.keynode, "{q:?}");
            assert_eq!(x.members, y.members, "{q:?}");
            assert_eq!(x.influence, y.influence, "{q:?}");
        }
    }
    // 3 lanes (γ=2, γ=3, γ=4) → exactly 3 searches for 7 requests
    let stats = batched_svc.stats();
    assert_eq!(stats.batches, 1);
    assert_eq!(stats.cache_misses, 3, "one search per group: {stats:?}");
    assert_eq!(stats.queries, queries.len() as u64);
}

/// The invalidation guarantee under *concurrent* load: while reader
/// threads hammer one graph name, the main thread replaces the graph
/// twice — once wholesale (`register`) and once through the dynamic
/// update path (`update` + `commit_updates`). Every answer must match one
/// of the three reference states, per-thread answers must only move
/// forward through those states, and any query issued after a swap
/// completed must see that swap: across a generation bump, a stale
/// answer is never served. (The pre-existing concurrency test asserted a
/// positive hit-rate but never exercised invalidation at all.)
#[test]
fn replace_graph_mid_flight_never_serves_stale_answers() {
    const GAMMA: u32 = 2;
    const K: usize = 3;
    let graph_a = assemble(60, &gnm(60, 200, 21), WeightKind::Uniform(5));
    let graph_b = assemble(90, &gnm(90, 360, 22), WeightKind::Uniform(6));

    let svc = Service::new(ServiceConfig {
        workers: 4,
        cache_capacity: 64,
        cache_shards: 4,
        ..ServiceConfig::default()
    });
    svc.register("g", graph_a.clone());

    // stage 0 = A, stage 1 = B, stage 2 = B with its top community's
    // keynode removed via the dynamic-update path (filled in below)
    let references: Arc<std::sync::Mutex<Vec<Vec<Community>>>> =
        Arc::new(std::sync::Mutex::new(vec![
            reference_top_k(&graph_a, GAMMA, K),
            reference_top_k(&graph_b, GAMMA, K),
        ]));
    let stage = Arc::new(AtomicUsize::new(0));

    const THREADS: usize = 6;
    let handles: Vec<_> = (0..THREADS)
        .map(|t| {
            let svc = Arc::clone(&svc);
            let references = Arc::clone(&references);
            let stage = Arc::clone(&stage);
            std::thread::spawn(move || {
                let mut floor = 0usize; // lowest stage this thread may still see
                let mut after_final_swap = 0usize;
                for q in 0..1_000_000 {
                    // keep querying until well past the last swap, so the
                    // reads genuinely interleave with both replacements
                    let issued_at = stage.load(Ordering::SeqCst);
                    if issued_at == 2 {
                        after_final_swap += 1;
                        if after_final_swap > 16 {
                            break;
                        }
                    }
                    assert!(q < 999_999, "swaps never observed");
                    let resp = svc.query(Query::new("g", GAMMA, K)).expect("query");
                    let refs = references.lock().unwrap();
                    let matched = refs.iter().enumerate().position(|(_, expected)| {
                        resp.communities.len() == expected.len()
                            && resp
                                .communities
                                .iter()
                                .zip(expected)
                                .all(|(a, b)| a.members == b.members)
                    });
                    drop(refs);
                    let matched = matched.unwrap_or_else(|| {
                        panic!("thread {t} query {q}: answer matches no reference state")
                    });
                    assert!(
                        matched >= issued_at,
                        "thread {t} query {q}: stale answer (stage {matched}) served \
                         after stage {issued_at} swap completed"
                    );
                    assert!(
                        matched >= floor,
                        "thread {t} query {q}: answer regressed from stage {floor} \
                         to stage {matched}"
                    );
                    floor = matched;
                }
            })
        })
        .collect();

    // swap 1: wholesale replacement A → B
    std::thread::sleep(std::time::Duration::from_millis(5));
    svc.register("g", graph_b.clone());
    stage.store(1, Ordering::SeqCst);

    // swap 2: dynamic-update replacement B → C (remove the top keynode).
    // C's expected answer is computed on a private DynamicGraph replica
    // and published to the reference table *before* the live swap, so a
    // reader can never observe an answer ahead of its reference.
    std::thread::sleep(std::time::Duration::from_millis(5));
    let keynode_ext = {
        let top = &references.lock().unwrap()[1][0];
        graph_b.external_id(top.keynode)
    };
    let ref_c = {
        let mut replica = influential_communities::dynamic::DynamicGraph::new(graph_b.clone());
        replica.remove_vertex(keynode_ext).expect("replica removal");
        reference_top_k(&replica.commit().graph, GAMMA, K)
    };
    {
        let mut refs = references.lock().unwrap();
        // each stage must be observably different from its predecessor,
        // or the stale checks would be vacuous
        for (i, j) in [(0usize, 1usize), (1, 2usize)] {
            let next = if j == 2 { &ref_c } else { &refs[j] };
            assert!(
                refs[i].len() != next.len()
                    || refs[i]
                        .iter()
                        .zip(next)
                        .any(|(a, b)| a.influence != b.influence),
                "stage {j} must be observably different from stage {i}"
            );
        }
        refs.push(ref_c);
    }
    svc.update("g", UpdateOp::RemoveVertex { v: keynode_ext })
        .expect("update accepted");
    let (_, receipt) = svc.commit_updates("g").expect("commit succeeds");
    assert_eq!(receipt.ops_applied, 1);
    stage.store(2, Ordering::SeqCst);

    for h in handles {
        h.join().expect("no reader panicked");
    }

    // after everything settled: the final answer is stage 2's, uncached
    // answers were actually recomputed (three generations existed)
    let final_resp = svc.query(Query::new("g", GAMMA, K)).unwrap();
    let refs = references.lock().unwrap();
    assert_eq!(final_resp.communities.len(), refs[2].len());
    for (a, b) in final_resp.communities.iter().zip(&refs[2]) {
        assert_eq!(a.members, b.members);
    }
    let stats = svc.stats();
    assert!(
        stats.cache_misses >= 3,
        "each generation must have computed at least once: {stats:?}"
    );
}

/// Four threads pull one session at once. Its lock serializes the pulls,
/// so the threads split the stream: each thread's share comes in
/// decreasing influence, and the shares together hold every community
/// exactly once.
#[test]
fn concurrent_pulls_on_one_session_split_the_stream() {
    let g = assemble(2000, &gnm(2000, 8000, 17), WeightKind::Uniform(17));
    let expected = reference_top_k(&g, 3, usize::MAX / 4);
    assert!(expected.len() > 8, "too few communities to split");
    let svc = Service::with_defaults();
    svc.register("gnm", g);
    let id = svc.open_session("gnm", 3).expect("session opens");
    let start = std::sync::Barrier::new(4);
    let pull_share = || {
        start.wait();
        let mut share: Vec<Community> = Vec::new();
        loop {
            let (batch, done) = svc.session_next_full(id, 2).expect("session next");
            share.extend(batch);
            if done {
                return share;
            }
        }
    };
    let shares: Vec<Vec<Community>> = std::thread::scope(|s| {
        let pullers: Vec<_> = (0..4).map(|_| s.spawn(pull_share)).collect();
        pullers.into_iter().map(|p| p.join().unwrap()).collect()
    });
    for share in &shares {
        assert!(share.windows(2).all(|w| w[0].influence > w[1].influence));
    }
    let mut union: Vec<Community> = shares.into_iter().flatten().collect();
    union.sort_by(|a, b| b.influence.total_cmp(&a.influence));
    assert_eq!(union, expected);
}
