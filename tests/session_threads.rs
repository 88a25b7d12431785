//! `OPEN` spawns no thread: a session is a mutex around its stream, pulled
//! on the caller's thread. Neither does building the service: queries run
//! on their callers' threads too. This file holds one test, so it runs in
//! a binary of its own and no other test's threads move the count.

#[cfg(target_os = "linux")]
#[test]
fn open_spawns_no_thread() {
    use influential_communities::graph::generators::{assemble, gnm, WeightKind};
    let threads = || {
        let status = std::fs::read_to_string("/proc/self/status").unwrap();
        let count = status.lines().find_map(|l| l.strip_prefix("Threads:"));
        count.unwrap().trim().parse::<usize>().unwrap()
    };
    let built_on = threads();
    let svc = influential_communities::service::Service::with_defaults();
    assert_eq!(threads(), built_on, "building the service started a thread");
    svc.register(
        "gnm",
        assemble(500, &gnm(500, 2000, 3), WeightKind::Uniform(3)),
    );
    let before = threads();
    for _ in 0..64 {
        svc.open_session("gnm", 3).unwrap();
    }
    assert_eq!(threads(), before, "OPEN changed the thread count");
}
