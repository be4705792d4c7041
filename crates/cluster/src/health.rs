//! Replica health tracking: consecutive-error demotion with timed
//! half-open re-probes.
//!
//! Lock-free (plain atomics) because it sits on the coordinator's query
//! hot path: every attempt outcome is one `fetch_add`/`store`, and the
//! re-probe decision is a single CAS so exactly one query thread wins the
//! right to test a demoted replica per probe interval — the rest keep
//! routing around it.

use std::sync::atomic::{AtomicBool, AtomicU32, AtomicU64, Ordering};

/// Health state of one shard replica.
#[derive(Debug, Default)]
pub(crate) struct ReplicaHealth {
    /// Transport errors since the last success.
    consecutive_errors: AtomicU32,
    /// Demoted: excluded from primary/hedge selection until re-probed.
    down: AtomicBool,
    /// Monotonic-nanos timestamp after which a demoted replica may be
    /// probed again (0 = immediately).
    next_probe_ns: AtomicU64,
    /// Lifetime transport-error count (stats).
    total_errors: AtomicU64,
}

impl ReplicaHealth {
    /// The replica answered: clear the error streak and restore it to the
    /// routing rotation.
    pub(crate) fn record_success(&self) {
        self.consecutive_errors.store(0, Ordering::Relaxed);
        self.down.store(false, Ordering::Relaxed);
    }

    /// The replica failed at the transport level. Demotes it once the
    /// streak reaches `threshold`, scheduling the first re-probe at
    /// `now_ns + probe_ns`. Returns `true` when this call is the
    /// one that demoted it.
    pub(crate) fn record_failure(&self, threshold: u32, now_ns: u64, probe_ns: u64) -> bool {
        self.total_errors.fetch_add(1, Ordering::Relaxed);
        let streak = self.consecutive_errors.fetch_add(1, Ordering::Relaxed) + 1;
        if streak < threshold {
            return false;
        }
        // Demoted now or already down: push the next probe window out.
        self.next_probe_ns
            .store(now_ns.saturating_add(probe_ns), Ordering::Relaxed);
        !self.down.swap(true, Ordering::Relaxed)
    }

    /// Whether the replica is in the routing rotation.
    pub(crate) fn is_up(&self) -> bool {
        !self.down.load(Ordering::Relaxed)
    }

    /// Try to claim the half-open probe slot for a demoted replica: returns
    /// `true` for exactly one caller per probe interval once `now_ns` has
    /// passed the scheduled probe time (that caller should send the replica
    /// one real query and report the outcome); `false` for everyone else
    /// and for healthy replicas.
    pub(crate) fn claim_probe(&self, now_ns: u64, probe_interval_ns: u64) -> bool {
        if self.is_up() {
            return false;
        }
        let due = self.next_probe_ns.load(Ordering::Relaxed);
        if now_ns < due {
            return false;
        }
        // Winning the CAS reschedules the *next* probe, so concurrent
        // callers (and later ones inside this interval) lose.
        self.next_probe_ns
            .compare_exchange(
                due,
                now_ns.saturating_add(probe_interval_ns),
                Ordering::Relaxed,
                Ordering::Relaxed,
            )
            .is_ok()
    }

    /// Lifetime transport-error count.
    pub(crate) fn total_errors(&self) -> u64 {
        self.total_errors.load(Ordering::Relaxed)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn demotes_only_after_threshold() {
        let h = ReplicaHealth::default();
        assert!(!h.record_failure(3, 100, 50));
        assert!(h.is_up());
        assert!(!h.record_failure(3, 100, 50));
        assert!(h.is_up());
        assert!(h.record_failure(3, 100, 50));
        assert!(!h.is_up());
        // Further failures keep it down but do not "re-demote".
        assert!(!h.record_failure(3, 100, 50));
        assert_eq!(h.total_errors(), 4);
    }

    #[test]
    fn success_resets_streak_and_restores() {
        let h = ReplicaHealth::default();
        h.record_failure(2, 0, 10);
        h.record_success();
        assert!(!h.record_failure(2, 0, 10), "streak restarted");
        assert!(h.is_up());
        h.record_failure(2, 0, 10);
        assert!(!h.is_up());
        h.record_success();
        assert!(h.is_up());
    }

    #[test]
    fn probe_claim_is_exclusive_per_interval() {
        let h = ReplicaHealth::default();
        h.record_failure(1, 1_000, 100);
        assert!(!h.is_up());
        assert!(!h.claim_probe(1_050, 100), "probe not due yet");
        assert!(h.claim_probe(1_100, 100), "first claimer wins");
        assert!(!h.claim_probe(1_100, 100), "second claimer loses");
        assert!(h.claim_probe(1_250, 100), "next interval opens again");
    }

    #[test]
    fn healthy_replicas_never_claim() {
        let h = ReplicaHealth::default();
        assert!(!h.claim_probe(u64::MAX, 0));
    }
}
