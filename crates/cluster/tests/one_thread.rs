//! The scatter runs on the calling thread: a hedged query whose losing
//! attempt is still waiting on its replica when the query returns leaves
//! no thread behind. Its own test binary, so no other test's threads are
//! counted.
#![cfg(target_os = "linux")]

mod support;

use rambo_cluster::Coordinator;
use std::time::Duration;
use support::{answer, node, plan, Reply, Scripted};

fn threads() -> usize {
    std::fs::read_dir("/proc/self/task")
        .expect("the task list")
        .count()
}

#[test]
fn a_hedged_query_leaves_no_thread_behind() {
    let plan = plan();
    let real = node(&plan);
    // Replica 0 answers the two warm-up queries it is primary for, then
    // falls silent.
    let warm = Reply::Bytes(answer(&plan, &[1]));
    let slow = Scripted::spawn(Some(real.manifest()), vec![warm.clone(), warm]);
    let coordinator = Coordinator::connect(&[vec![slow.addr(), real.addr()]]).expect("connect");
    // Warm-up: two queries per replica, so each has a pooled connection.
    for _ in 0..4 {
        coordinator
            .query(&[1], 0.0, Duration::from_secs(5))
            .expect("warm query");
    }
    // Replica 0 is the next primary; the hedge to replica 1 wins while
    // replica 0 still holds the request.
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
