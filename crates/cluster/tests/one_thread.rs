//! The scatter runs on the calling thread: a hedged query whose losing
//! attempt is still waiting on its replica when the query returns leaves
//! no thread behind. Its own test binary, so no other test's threads are
//! counted.
#![cfg(target_os = "linux")]

mod support;

use rambo_cluster::Coordinator;
use std::time::Duration;
use support::{plan, proxied_pair, topo, Fault};

fn threads() -> usize {
    std::fs::read_dir("/proc/self/task")
        .expect("the task list")
        .count()
}

#[test]
fn a_hedged_query_leaves_no_thread_behind() {
    let plan = plan();
    let (_nodes, p0, p1) = proxied_pair(&plan);
    let coordinator = Coordinator::connect(&topo(&p0, &p1)).expect("connect");
    // Warm-up: two queries per replica, so each has a pooled connection
    // and its proxy relay thread already exists (a hedge that loses here
    // closes its connection; the replica's next query dials a new one).
    for _ in 0..4 {
        coordinator
            .query(&[1], 0.0, Duration::from_secs(5))
            .expect("warm query");
    }
    // Replica 0 is the next primary; the hedge to replica 1 wins while
    // replica 0 still sits on its reply.
    p0.set_fault(Fault::DelayReplyMs(900));
    let before = threads();
    coordinator
        .query(&[2], 0.0, Duration::from_secs(5))
        .expect("hedged query");
    let after = threads();
    assert_eq!(coordinator.stats().shards[0].hedge_wins, 1);
    assert!(
        after <= before,
        "the query left threads behind: {before} before, {after} after"
    );
}
