//! Property tests for the mutable generational index.
//!
//! The load-bearing claim of the LSM-style design is *bit-identity*: at
//! every point of any insert / seal / merge interleaving, a
//! [`GenerationalIndex`] answers every query exactly like a monolithic
//! [`Rambo`] rebuilt from scratch over the same documents — sealing and
//! merging are representation changes, never answer changes. These tests
//! fuzz the interleaving (including degenerate generation configs that
//! seal on every insert or merge everything into one tier) and compare
//! against the from-scratch oracle after every operation.

use proptest::prelude::*;
use rambo_core::{
    GenerationConfig, GenerationalIndex, QueryContext, QueryMode, Rambo, RamboParams,
};

/// A random archive: documents with disjoint private terms plus a shared
/// pool so multiplicity V > 1 occurs.
#[derive(Debug, Clone)]
struct Archive {
    docs: Vec<(String, Vec<u64>)>,
}

fn archive_strategy(max_docs: usize) -> impl Strategy<Value = Archive> {
    (2..max_docs, 1usize..24, 0usize..8).prop_map(|(k, private, shared)| {
        let docs = (0..k)
            .map(|d| {
                let base = (d as u64) << 32;
                let mut terms: Vec<u64> = (0..private as u64).map(|t| base | t).collect();
                terms.extend((0..shared as u64).map(|s| 0xABCD_0000 + (s % 5)));
                terms.dedup();
                (format!("doc-{d}"), terms)
            })
            .collect();
        Archive { docs }
    })
}

/// The oracle: a monolithic index built from scratch over a doc prefix.
fn oracle(params: RamboParams, docs: &[(String, Vec<u64>)]) -> Rambo {
    let mut r = Rambo::new(params).unwrap();
    for (name, terms) in docs {
        r.insert_document(name, terms.iter().copied()).unwrap();
    }
    r
}

/// Every probe term the archive mentions plus a few misses.
fn probe_set(archive: &Archive) -> Vec<u64> {
    let mut probes: Vec<u64> = archive
        .docs
        .iter()
        .flat_map(|(_, terms)| terms.iter().copied())
        .collect();
    probes.extend([0u64, u64::MAX, 0xFEED_F00D]);
    probes.sort_unstable();
    probes.dedup();
    probes
}

/// Bucket counts whose rows span one, two, three and four words, with and
/// without a partial last word.
const BUCKETS: [u64; 5] = [8, 64, 100, 128, 200];

/// A query window: the terms of document `doc` (modulo the archive size),
/// cycled to `len` terms so repeats occur, with `splices` overwriting
/// positions (modulo `len`): an even choice writes an absent term, an odd
/// one a probe term that may belong to another document.
#[derive(Debug, Clone)]
struct Window {
    doc: usize,
    len: usize,
    splices: Vec<(usize, u64)>,
}

fn window_strategy(max_len: usize) -> impl Strategy<Value = Window> {
    (
        0usize..64,
        1..=max_len,
        proptest::collection::vec((0..max_len, any::<u64>()), 0..4),
    )
        .prop_map(|(doc, len, splices)| Window { doc, len, splices })
}

/// AND windows of 1–80 terms and θ windows of up to 60.
fn windows_strategy() -> impl Strategy<Value = (Vec<Window>, Vec<Window>)> {
    (
        proptest::collection::vec(window_strategy(80), 1..4),
        proptest::collection::vec(window_strategy(60), 1..4),
    )
}

impl Window {
    fn terms(&self, archive: &Archive, probes: &[u64]) -> Vec<u64> {
        let own = &archive.docs[self.doc % archive.docs.len()].1;
        let mut terms: Vec<u64> = own.iter().copied().cycle().take(self.len).collect();
        for &(at, choice) in &self.splices {
            terms[at % self.len] = if choice % 2 == 0 {
                0xDEAD_0000_0000_0000 | choice >> 16
            } else {
                probes[(choice >> 1) as usize % probes.len()]
            };
        }
        terms
    }
}

/// Long AND windows the fuzzed ones may miss: at η = 2 a gather group is
/// 32 terms, so these end in the second and third group, one of them on an
/// absent term that only the last group sees.
fn fixed_windows() -> Vec<Window> {
    [(33, None), (80, None), (80, Some(79))]
        .into_iter()
        .map(|(len, absent)| Window {
            doc: 0,
            len,
            splices: absent.map(|at| (at, 0)).into_iter().collect(),
        })
        .collect()
}

/// [`assert_parity`] plus the fuzzed and fixed windows: every AND window in
/// both modes, every θ window at θ ∈ {0.4, 0.8, 1.0} in both modes.
fn assert_window_parity(
    live: &GenerationalIndex,
    mono: &Rambo,
    archive: &Archive,
    (and, theta): &(Vec<Window>, Vec<Window>),
) {
    let probes = probe_set(archive);
    assert_parity(live, mono, &probes);
    let mut ctx_live = QueryContext::new();
    let mut ctx_mono = QueryContext::new();
    for window in and.iter().chain(&fixed_windows()) {
        let terms = window.terms(archive, &probes);
        for mode in [QueryMode::Full, QueryMode::Sparse] {
            let a = live.query_terms_with(&terms, mode, &mut ctx_live);
            let b = mono.query_terms_with(&terms, mode, &mut ctx_mono);
            prop_assert_eq!(&a, &b, "AND divergence on {:?} ({:?})", window, mode);
        }
    }
    for window in theta {
        let seq = window.terms(archive, &probes);
        for theta in [0.4, 0.8, 1.0] {
            let want = mono.query_sequence_theta(&seq, theta, QueryMode::Sparse, &mut ctx_mono);
            let mono_full = mono.query_sequence_theta(&seq, theta, QueryMode::Full, &mut ctx_mono);
            prop_assert_eq!(&mono_full, &want, "monolith θ={} on {:?}", theta, window);
            for mode in [QueryMode::Full, QueryMode::Sparse] {
                let got = live.query_sequence_theta_with(&seq, theta, mode, &mut ctx_live);
                prop_assert_eq!(
                    &got,
                    &want,
                    "θ={} divergence on {:?} ({:?})",
                    theta,
                    window,
                    mode
                );
            }
        }
    }
}

fn assert_parity(live: &GenerationalIndex, mono: &Rambo, probes: &[u64]) {
    let mut ctx_live = QueryContext::new();
    let mut ctx_mono = QueryContext::new();
    for &t in probes {
        for mode in [QueryMode::Full, QueryMode::Sparse] {
            let a = live.query_terms_with(&[t], mode, &mut ctx_live);
            let b = mono.query_terms_with(&[t], mode, &mut ctx_mono);
            prop_assert_eq!(
                &a,
                &b,
                "single-term divergence on {:#x} ({:?}, {} gens)",
                t,
                mode,
                live.num_generations()
            );
        }
    }
    // Multi-term AND queries stress the OR-first evaluation order: the
    // per-row OR across components must happen before the η-AND.
    for pair in probes.chunks(2) {
        let a = live.query_terms_with(pair, QueryMode::Full, &mut ctx_live);
        let b = mono.query_terms_with(pair, QueryMode::Full, &mut ctx_mono);
        prop_assert_eq!(&a, &b, "multi-term divergence on {:x?}", pair);
    }
    // θ queries count with multiplicity, by two independent strategies
    // (Full: bucket-count filter-then-verify; Sparse: term at a time): both,
    // over the component list, must equal the monolith.
    for window in probes.chunks(5) {
        let mut seq = window.to_vec();
        seq.push(window[0]); // a repeated term counts twice
        for theta in [0.4, 0.8, 1.0] {
            let want = mono.query_sequence_theta(&seq, theta, QueryMode::Sparse, &mut ctx_mono);
            let mono_full = mono.query_sequence_theta(&seq, theta, QueryMode::Full, &mut ctx_mono);
            prop_assert_eq!(&mono_full, &want, "monolith θ={} on {:x?}", theta, seq);
            for mode in [QueryMode::Full, QueryMode::Sparse] {
                let got = live.query_sequence_theta_with(&seq, theta, mode, &mut ctx_live);
                prop_assert_eq!(
                    &got,
                    &want,
                    "θ={} divergence on {:x?} ({:?}, {} gens)",
                    theta,
                    seq,
                    mode,
                    live.num_generations()
                );
            }
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// The tentpole invariant: for any archive, any geometry seed, any
    /// generation config, and any fuzzed schedule of seals and merges
    /// interleaved with the inserts, queries through the generational
    /// index equal the from-scratch monolith — checked after *every*
    /// insert and after every maintenance step.
    #[test]
    fn interleaved_inserts_seals_and_merges_match_monolith(
        archive in archive_strategy(16),
        cap in 1usize..5,
        tier_growth in 1u64..4,
        max_generations in 1usize..4,
        seed in any::<u64>(),
        // One schedule byte per insert: bit 0 = force a seal after it,
        // bit 1 = run one merge step, bit 2 = run maintenance to quiescence.
        schedule in proptest::collection::vec(0u8..8, 16),
        buckets in proptest::sample::select(BUCKETS.to_vec()),
        windows in windows_strategy(),
    ) {
        let params = RamboParams::flat(buckets, 3, 1 << 10, 2, seed);
        let config = GenerationConfig {
            memtable_fpr_budget: 1.0, // doc cap drives auto-seals
            memtable_max_docs: cap,
            tier_growth,
            max_generations,
        };
        let mut live = GenerationalIndex::new(params, config).unwrap();
        for (i, (name, terms)) in archive.docs.iter().enumerate() {
            let id = live.insert_document(name, terms).unwrap();
            prop_assert_eq!(id, i as u32, "global ids must be dense and stable");
            let step = schedule[i % schedule.len()];
            if step & 1 != 0 {
                live.seal_memtable().unwrap();
            }
            if step & 2 != 0 {
                live.merge_once().unwrap();
            }
            if step & 4 != 0 {
                live.maintain().unwrap();
            }
            let mono = oracle(params, &archive.docs[..=i]);
            assert_window_parity(&live, &mono, &archive, &windows);
            prop_assert_eq!(
                live.to_monolithic().unwrap(),
                mono,
                "collapsed index must equal the from-scratch build"
            );
        }
        prop_assert_eq!(live.num_documents(), archive.docs.len());
        for (i, (name, _)) in archive.docs.iter().enumerate() {
            prop_assert_eq!(live.document_id(name), Some(i as u32));
            prop_assert_eq!(live.document_name(i as u32), name.as_str());
        }
    }

    /// Every query verb equals the monolith for every component count: 0–3
    /// sealed, never-merged generations plus a non-empty memtable, at every
    /// row width, for AND windows that cross gather groups and long θ
    /// windows with repeats.
    #[test]
    fn every_component_count_matches_monolith(
        archive in archive_strategy(12),
        sealed in 0usize..4,
        seed in any::<u64>(),
        buckets in proptest::sample::select(BUCKETS.to_vec()),
        windows in windows_strategy(),
    ) {
        let params = RamboParams::flat(buckets, 3, 1 << 10, 2, seed);
        let config = GenerationConfig {
            memtable_fpr_budget: 1.0, // never auto-seal: the test places the seals
            memtable_max_docs: 0,
            ..GenerationConfig::default()
        };
        let mut live = GenerationalIndex::new(params, config).unwrap();
        let last = archive.docs.len() - 1;
        for (i, (name, terms)) in archive.docs.iter().enumerate() {
            live.insert_document(name, terms).unwrap();
            if i < sealed.min(last) {
                live.seal_memtable().unwrap();
            }
        }
        prop_assert_eq!(live.num_generations(), sealed.min(last));
        prop_assert!(live.memtable_documents() > 0);
        assert_window_parity(&live, &oracle(params, &archive.docs), &archive, &windows);
    }

    /// The merge policy must respect its bound for any config: after
    /// maintenance reaches quiescence, at most `max_generations` immutable
    /// generations remain.
    #[test]
    fn maintenance_bounds_generation_count(
        archive in archive_strategy(24),
        cap in 1usize..4,
        tier_growth in 1u64..4,
        max_generations in 1usize..4,
        seed in any::<u64>(),
    ) {
        let params = RamboParams::flat(8, 2, 1 << 10, 2, seed);
        let config = GenerationConfig {
            memtable_fpr_budget: 1.0,
            memtable_max_docs: cap,
            tier_growth,
            max_generations,
        };
        let mut live = GenerationalIndex::new(params, config).unwrap();
        for (name, terms) in &archive.docs {
            live.insert_document(name, terms).unwrap();
            live.maintain().unwrap();
            prop_assert!(
                live.num_generations() <= max_generations,
                "{} generations exceeds the cap {}",
                live.num_generations(),
                max_generations
            );
        }
        // Ids survive the full churn.
        for (i, (name, _)) in archive.docs.iter().enumerate() {
            prop_assert_eq!(live.document_id(name), Some(i as u32));
        }
    }

    /// Zero false negatives carries over verbatim: a document is returned
    /// for every term it contains, no matter how the generations are laid
    /// out when the query lands.
    #[test]
    fn zero_false_negatives_across_generations(
        archive in archive_strategy(16),
        cap in 1usize..4,
        seed in any::<u64>(),
    ) {
        let params = RamboParams::flat(8, 3, 1 << 10, 2, seed);
        let config = GenerationConfig {
            memtable_max_docs: cap,
            ..GenerationConfig::default()
        };
        let mut live = GenerationalIndex::new(params, config).unwrap();
        for (name, terms) in &archive.docs {
            live.insert_document(name, terms).unwrap();
        }
        live.maintain().unwrap();
        let mut ctx = QueryContext::new();
        for (d, (_, terms)) in archive.docs.iter().enumerate() {
            for &t in terms {
                for mode in [QueryMode::Full, QueryMode::Sparse] {
                    prop_assert!(
                        live.query_terms_with(&[t], mode, &mut ctx).contains(&(d as u32)),
                        "false negative: doc {d} missing for {t:#x} ({mode:?})"
                    );
                }
            }
        }
    }
}
