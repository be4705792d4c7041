//! Cross-tenant isolation property tests: under fuzzed interleavings of
//! `create` / `insert` / `query` / `drop` / maintenance across several
//! tenants, every tenant's answers must be **bit-identical** to an
//! isolated single-index oracle fed exactly that tenant's operations —
//! multi-tenancy must be unobservable from inside a tenant. The fuzzed
//! streams also cover the sharpest cache hazard: recreate-after-drop under
//! the same name must never serve an answer cached from the previous
//! incarnation.

use proptest::prelude::*;
use rambo_core::{QueryContext, QueryMode, Rambo, RamboParams};
use rambo_server::{TenantError, TenantOptions, TenantQuotas, TenantRegistry};
use std::collections::HashMap;

const TENANTS: [&str; 4] = ["alpha", "beta", "gamma", "delta"];

fn params() -> RamboParams {
    // Small BFUs on purpose: false positives are common, so bit-identity
    // with the oracle is a real check, not a triviality over empty answers.
    RamboParams::flat(8, 3, 1 << 9, 2, 7)
}

/// The oracle for one live tenant: an isolated index plus the number of
/// documents inserted in this incarnation (names must be unique per
/// incarnation on both sides).
struct Oracle {
    index: Rambo,
    inserted: u64,
}

/// Fuzzed term list over a small shared universe — the same terms recur
/// across tenants and across ops, so cache hits, repeated queries, and
/// cross-tenant term collisions all happen. Half the lists repeat their
/// first term: θ queries count it twice, AND queries must not care.
fn fuzz_terms(r: u64) -> Vec<u64> {
    let n = 1 + (r % 4) as usize;
    let mut terms: Vec<u64> = (0..n as u64)
        .map(|i| (r >> 8).wrapping_add(i * 7) % 24)
        .collect();
    if r & 4 != 0 {
        terms.push(terms[0]);
    }
    terms
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn fuzzed_interleavings_match_isolated_oracles(
        ops in proptest::collection::vec((0u8..12, 0usize..TENANTS.len(), any::<u64>()), 1..80),
    ) {
        let registry = TenantRegistry::new(params(), TenantQuotas::default()).unwrap();
        let mut oracles: HashMap<&str, Oracle> = HashMap::new();
        let mut ctx = QueryContext::new();
        for (op, t, r) in ops {
            let name = TENANTS[t];
            match op {
                // Create: succeeds iff the name is free, on both sides.
                0 | 1 => {
                    let created = registry.create(name, TenantOptions::default());
                    if oracles.contains_key(name) {
                        prop_assert!(
                            matches!(created, Err(TenantError::DuplicateTenant(_))),
                            "{name}: duplicate create must be rejected"
                        );
                    } else {
                        prop_assert!(created.is_ok());
                        oracles.insert(name, Oracle {
                            index: Rambo::new(params()).unwrap(),
                            inserted: 0,
                        });
                    }
                }
                // Drop: presence must agree.
                2 => {
                    let dropped = registry.drop_tenant(name);
                    prop_assert_eq!(dropped, oracles.remove(name).is_some());
                }
                // Insert: same name, same terms, same resulting id.
                3..=5 => {
                    let terms = fuzz_terms(r);
                    match oracles.get_mut(name) {
                        Some(oracle) => {
                            let doc = format!("{name}-doc-{}", oracle.inserted);
                            let id = registry.insert_document(name, &doc, &terms).unwrap();
                            let want = oracle
                                .index
                                .insert_document(&doc, terms.iter().copied())
                                .unwrap();
                            oracle.inserted += 1;
                            prop_assert_eq!(id, want, "{}: id drift", name);
                        }
                        None => prop_assert!(
                            matches!(
                                registry.insert_document(name, "ghost", &terms),
                                Err(TenantError::UnknownTenant(_))
                            ),
                            "{name}: insert into missing tenant must fail"
                        ),
                    }
                }
                // Plain query: bit-identical to the isolated oracle,
                // including deterministic false positives.
                6..=8 => {
                    let terms = fuzz_terms(r);
                    match oracles.get(name) {
                        Some(oracle) => {
                            let got = registry.query(name, &terms, None).unwrap();
                            let want = oracle
                                .index
                                .query_terms_with(&terms, QueryMode::Full, &mut ctx);
                            prop_assert_eq!(got, want, "{}: query drift on {:?}", name, terms);
                        }
                        None => prop_assert!(registry.query(name, &terms, None).is_err()),
                    }
                }
                // Theta query through the theta cache lanes.
                9 | 10 => {
                    let terms = fuzz_terms(r);
                    let theta = match r % 3 {
                        0 => 0.34,
                        1 => 0.67,
                        _ => 1.0,
                    };
                    match oracles.get(name) {
                        Some(oracle) => {
                            let got = registry
                                .query_theta(name, &terms, theta, None)
                                .unwrap();
                            let want = oracle.index.query_sequence_theta(
                                &terms,
                                theta,
                                QueryMode::Full,
                                &mut ctx,
                            );
                            prop_assert_eq!(
                                got, want,
                                "{}: theta {} drift on {:?}", name, theta, terms
                            );
                        }
                        None => prop_assert!(
                            registry.query_theta(name, &terms, theta, None).is_err()
                        ),
                    }
                }
                // Maintenance: merges must be unobservable in answers.
                _ => {
                    registry.maintain_once();
                }
            }
        }
        // Final sweep: every surviving tenant still answers identically on
        // a fixed probe battery.
        for (name, oracle) in &oracles {
            for probe in 0..24u64 {
                let got = registry.query(name, &[probe], None).unwrap();
                let want = oracle.index.query_terms_with(&[probe], QueryMode::Full, &mut ctx);
                prop_assert_eq!(got, want, "{}: final probe {} drift", name, probe);
            }
        }
        prop_assert_eq!(registry.len(), oracles.len());
    }
}

#[test]
fn recreate_after_drop_never_serves_the_old_incarnation() {
    let registry = TenantRegistry::new(params(), TenantQuotas::default()).unwrap();
    registry
        .create("phoenix", TenantOptions::default())
        .unwrap();
    registry
        .insert_document("phoenix", "old-doc", &[7, 8, 9])
        .unwrap();
    // Prime the cache, then hit it — the second answer comes from cache.
    assert_eq!(registry.query("phoenix", &[7], None).unwrap(), vec![0]);
    assert_eq!(registry.query("phoenix", &[7], None).unwrap(), vec![0]);
    let cache = registry.stats("phoenix").unwrap().cache.expect("cache on");
    assert!(
        cache.counters.hits >= 1,
        "second lookup must hit the cache: {cache:?}"
    );

    // Drop and recreate under the same name: the new incarnation is empty
    // and must not inherit the old incarnation's cached answer.
    assert!(registry.drop_tenant("phoenix"));
    registry
        .create("phoenix", TenantOptions::default())
        .unwrap();
    assert!(
        registry.query("phoenix", &[7], None).unwrap().is_empty(),
        "stale cache entry served across drop/recreate"
    );

    // And the new incarnation's own content resolves under fresh names.
    registry
        .insert_document("phoenix", "new-doc", &[7])
        .unwrap();
    let ids = registry.query("phoenix", &[7], None).unwrap();
    assert_eq!(ids, vec![0]);
    assert_eq!(
        registry.resolve_names("phoenix", &ids).unwrap(),
        vec!["new-doc".to_string()]
    );
}

/// θ counts a repeated term once per occurrence, so `[a, a, b]` is a
/// different query from `[a, b]`: a cached answer for one must never be
/// served for the other (the θ lanes are keyed on the term multiset, not the
/// term set). Reachable from the wire: `R.QUERYSEQ` passes a read's k-mers
/// through undeduplicated, and k-mers repeat.
#[test]
fn theta_cache_key_keeps_term_multiplicity() {
    let registry = TenantRegistry::new(params(), TenantQuotas::default()).unwrap();
    registry.create("reads", TenantOptions::default()).unwrap();
    let (a, b) = (7u64, 1000u64);
    registry.insert_document("reads", "only-a", &[a]).unwrap();

    // One of two terms present: below θ = 0.6 (needs both). Cached.
    let set = registry.query_theta("reads", &[a, b], 0.6, None).unwrap();
    assert!(set.is_empty(), "fixture: `b` must be absent, got {set:?}");
    // Two of three occurrences present: reaches ⌈0.6 · 3⌉ = 2.
    let multiset = registry
        .query_theta("reads", &[a, a, b], 0.6, None)
        .unwrap();
    assert_eq!(
        multiset,
        vec![0],
        "cached [a, b] answer served for [a, a, b]"
    );
    // Order still does not matter, and repeats of the exact query hit.
    assert_eq!(
        registry
            .query_theta("reads", &[b, a, a], 0.6, None)
            .unwrap(),
        vec![0]
    );
    let cache = registry.stats("reads").unwrap().cache.expect("cache on");
    assert_eq!(cache.counters.hits, 1, "only the reordered repeat may hit");
}
