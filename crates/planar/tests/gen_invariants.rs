//! Seeded smoke test of the generator registry's declared invariants.
//!
//! The DST scenario engine (`crates/dst`) draws its workloads from
//! [`gen::FAMILIES`] and *classifies run outcomes under the assumption*
//! that every generated graph is connected and planar (and outerplanar
//! where claimed): a generator that quietly emitted a disconnected or
//! non-planar instance would turn every downstream shadow-check violation
//! into noise. This suite pins the contract at the source, against the
//! centralized checks (`is_planar` via the left-right embedder,
//! `is_outerplanar`), across every family, several sizes, and several seeds.

use planar_lib::gen;
use planar_lib::{embed, is_outerplanar, is_planar};

/// Every registry family, at several small sizes and seeds: connected,
/// planar by the centralized check (with a planar rotation actually
/// constructible), outerplanar where declared, and within the requested
/// size's ballpark.
#[test]
fn every_family_satisfies_its_declared_invariants() {
    for fam in gen::FAMILIES {
        for req_n in [fam.min_n, 8, 17, 30] {
            let seeds: &[u64] = if fam.randomized {
                &[0, 1, 0xC0FFEE]
            } else {
                &[0]
            };
            for &seed in seeds {
                let g = (fam.build)(req_n, seed);
                let label = format!("{}/n={req_n}/seed={seed}", fam.name);

                assert!(
                    g.vertex_count() >= fam.min_n.min(2),
                    "{label}: built only {} vertices",
                    g.vertex_count()
                );
                assert!(g.is_connected(), "{label}: disconnected instance");
                assert!(is_planar(&g), "{label}: non-planar instance");
                let rotation = embed(&g).unwrap_or_else(|e| {
                    panic!("{label}: centralized embedder rejected the instance: {e}")
                });
                assert!(
                    rotation.is_planar_embedding(),
                    "{label}: embedding is not genus 0"
                );
                if fam.outerplanar {
                    assert!(is_outerplanar(&g), "{label}: outerplanarity claim violated");
                }
            }
        }
    }
}

/// Rigid families round the requested size to their nearest valid shape;
/// the rounding must stay within a factor of the request so the scenario
/// engine's size dimension keeps meaning something.
#[test]
fn built_sizes_track_requested_sizes() {
    for fam in gen::FAMILIES {
        for req_n in [12usize, 24, 48] {
            let g = (fam.build)(req_n, 3);
            let n = g.vertex_count();
            assert!(
                n >= req_n / 3 && n <= req_n * 2 + 4,
                "{}: requested {req_n}, built {n}",
                fam.name
            );
        }
    }
}

/// Randomized families must be deterministic in `(n, seed)` and actually
/// vary with the seed (at sizes with more than one possible instance);
/// deterministic families must ignore the seed entirely.
#[test]
fn seed_discipline_matches_the_randomized_flag() {
    for fam in gen::FAMILIES {
        let a = (fam.build)(20, 7);
        let b = (fam.build)(20, 7);
        assert_eq!(a, b, "{}: not deterministic in (n, seed)", fam.name);
        let c = (fam.build)(20, 8);
        if fam.randomized {
            assert_ne!(a, c, "{}: seed has no effect", fam.name);
        } else {
            assert_eq!(a, c, "{}: deterministic family consumed the seed", fam.name);
        }
    }
}

/// The registry is well-formed: unique stable names, resolvable by
/// `gen::family`.
#[test]
fn registry_names_are_unique_and_resolvable() {
    let mut seen = std::collections::HashSet::new();
    for fam in gen::FAMILIES {
        assert!(seen.insert(fam.name), "duplicate family {}", fam.name);
        let found = gen::family(fam.name).expect("registered family resolves");
        assert_eq!(found.name, fam.name);
    }
    assert!(gen::family("no-such-family").is_none());
    assert!(gen::FAMILIES.len() >= 15, "registry lost families");
}
