//! Property tests for the result cache: under fuzzed query streams with
//! interleaved catalog-version bumps, a cached reply must always be
//! bit-identical to uncached evaluation — the cache may evict or miss, but
//! it must never serve a stale or wrong result.

use proptest::prelude::*;
use rambo_core::{canonical_query_key, QueryContext, QueryMode, Rambo, RamboParams};
use rambo_server::{Catalog, ResultCache, Server, ServerConfig};
use std::time::Duration;

/// Deterministic pseudo-result for a (tier, key, version) triple — the
/// "ground truth" an evaluator would produce at that catalog version.
fn truth(tier: u32, key: u128, version: u64) -> Vec<u32> {
    let mut h = (key as u64)
        ^ ((key >> 64) as u64).rotate_left(23)
        ^ version.wrapping_mul(0x9E37_79B9_7F4A_7C15)
        ^ u64::from(tier).rotate_left(41);
    let len = (h % 6) as usize;
    (0..len)
        .map(|_| {
            h = h.wrapping_mul(0x2545_F491_4F6C_DD1D).rotate_left(17);
            h as u32
        })
        .collect()
}

/// A fuzzed term list drawn from a small universe so canonical keys repeat
/// (hits), permuted and duplicated by `salt` so canonicalization is
/// exercised too.
fn fuzz_terms(universe: u64, r: u64, salt: u8) -> Vec<u64> {
    let n = 1 + (r % 5) as usize;
    let mut terms: Vec<u64> = (0..n as u64)
        .map(|i| (r >> 8).wrapping_add(i) % universe)
        .collect();
    if salt & 1 != 0 {
        terms.reverse();
    }
    if salt & 2 != 0 {
        let dup = terms[0];
        terms.push(dup);
    }
    terms
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// Model check on the cache itself: drive it with a fuzzed stream of
    /// gets/inserts over a tiny byte budget (heavy eviction) and random
    /// version bumps. Every hit must equal the ground truth *at the version
    /// read before the probe* — never a value inserted under an older
    /// version.
    #[test]
    fn cache_never_serves_stale_or_wrong_results(
        ops in proptest::collection::vec((0u8..16, any::<u64>()), 1..300),
        budget_kb in 1usize..8,
    ) {
        let cache = ResultCache::new(budget_kb << 10);
        let mut hits = 0u64;
        for (op, r) in ops {
            if op == 0 {
                cache.bump_version();
                continue;
            }
            let terms = fuzz_terms(24, r, op);
            let tier = u32::from(op % 3);
            let key = canonical_query_key(&terms);
            let version = cache.version();
            match cache.get(tier, key, version) {
                Some(docs) => {
                    hits += 1;
                    prop_assert_eq!(docs, truth(tier, key, version), "stale or corrupt hit");
                }
                None => {
                    cache.record_miss();
                    cache.insert(tier, key, version, &truth(tier, key, version));
                }
            }
        }
        let stats = cache.stats();
        prop_assert_eq!(stats.counters.hits, hits);
        prop_assert!(stats.counters.bytes <= (budget_kb << 10) as u64);
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    /// End-to-end: a server with an aggressively small result cache answers
    /// a fuzzed repeat-heavy query stream with interleaved invalidations;
    /// every reply (evaluated, cached, or freshly re-evaluated after a
    /// bump) must equal direct evaluation of the immutable tier.
    #[test]
    fn cached_replies_equal_uncached_evaluation(
        stream in proptest::collection::vec((0u8..8, any::<u64>()), 1..60),
        seed in any::<u64>(),
    ) {
        let mut index = Rambo::new(RamboParams::flat(16, 3, 1 << 12, 2, seed)).unwrap();
        for d in 0..12u64 {
            index
                .insert_document(&format!("doc-{d}"), (0..30).map(|t| (d << 16) | t))
                .unwrap();
        }
        let catalog = Catalog::builder().base(&index).halving(0).build().unwrap();
        let config = ServerConfig {
            result_cache_bytes: 2 << 10, // tiny: evictions under the stream
        };
        let stream = &stream;
        let (checked, stats) = Server::scope(&catalog, config, |handle| {
            let mut ctx = QueryContext::new();
            let mut checked = 0usize;
            for &(op, r) in stream {
                if op == 0 {
                    handle.invalidate_result_cache();
                    continue;
                }
                // Terms over a 12-doc universe: (doc << 16) | term with
                // repeats and permutations, so the same canonical key
                // recurs across the stream.
                let terms: Vec<u64> = fuzz_terms(4, r, op)
                    .into_iter()
                    .map(|t| ((r % 12) << 16) | t)
                    .collect();
                let reply = handle
                    .query(&terms, 0.0, Duration::from_secs(5))
                    .expect("query failed");
                let direct = catalog
                    .tier(reply.tier)
                    .query_terms_with(&terms, QueryMode::Full, &mut ctx);
                prop_assert_eq!(&reply.docs, &direct, "cached path diverged from direct eval");
                checked += 1;
            }
            checked
        });
        prop_assert_eq!(stats.total_completed(), checked as u64);
    }
}
