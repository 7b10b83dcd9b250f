//! The analyzer against a known-good/known-bad corpus: every rule has at
//! least one fixture that must fire and one that must stay silent, plus
//! waiver-handling and `#[cfg(test)]`-scoping cases.

use ppgr_tidy::analyze_source;

/// Rules fired by a fixture, in file order.
fn rules_for(rel_path: &str, source: &str) -> Vec<&'static str> {
    analyze_source(rel_path, source)
        .into_iter()
        .map(|d| d.rule)
        .collect()
}

macro_rules! fixture {
    ($name:literal) => {
        include_str!(concat!("fixtures/", $name))
    };
}

/// A path inside a panic-free protocol crate (also exercises determinism
/// and secret-hygiene, which apply everywhere).
const PROTO: &str = "crates/core/src/fixture.rs";

#[test]
fn panic_bad_fires_once_per_site() {
    // One site per panic flavour: unwrap, expect, unreachable!, todo!,
    // unimplemented!, panic!.
    let rules = rules_for(PROTO, fixture!("panic_bad.rs"));
    assert_eq!(rules, vec!["panic"; 6]);
}

#[test]
fn panic_good_is_silent() {
    assert!(rules_for(PROTO, fixture!("panic_good.rs")).is_empty());
}

#[test]
fn panic_outside_protocol_crates_is_not_checked() {
    // The same bad source in a non-protocol crate (e.g. the bench harness)
    // does not fire the panic rule.
    let rules = rules_for("crates/bench/src/fixture.rs", fixture!("panic_bad.rs"));
    assert!(rules.is_empty());
}

#[test]
fn panic_in_the_transport_crate_is_checked() {
    // The mesh/deadline/fault-injection layer is protocol surface: a panic
    // there takes a party down mid-session, which the fault-tolerance
    // layer must instead surface as a typed, blamed error.
    let rules = rules_for("crates/net/src/fixture.rs", fixture!("panic_bad.rs"));
    assert_eq!(rules, vec!["panic"; 6]);
}

#[test]
fn waivers_cover_same_line_and_next_line() {
    assert!(rules_for(PROTO, fixture!("panic_waived.rs")).is_empty());
}

#[test]
fn stale_waiver_is_flagged() {
    let rules = rules_for(PROTO, fixture!("panic_stale_waiver.rs"));
    assert_eq!(rules, vec!["waiver"]);
}

#[test]
fn reasonless_waiver_is_flagged() {
    // The unwrap is NOT excused (reasonless waivers don't apply), and the
    // waiver itself is flagged.
    let mut rules = rules_for(PROTO, fixture!("panic_reasonless_waiver.rs"));
    rules.sort_unstable();
    assert_eq!(rules, vec!["panic", "waiver"]);
}

#[test]
fn cfg_test_scope_is_exempt() {
    assert!(rules_for(PROTO, fixture!("panic_test_scoped.rs")).is_empty());
}

#[test]
fn determinism_bad_fires() {
    let rules = rules_for(PROTO, fixture!("determinism_bad.rs"));
    assert!(!rules.is_empty());
    assert!(rules.iter().all(|r| *r == "determinism"));
}

#[test]
fn determinism_good_is_silent() {
    assert!(rules_for(PROTO, fixture!("determinism_good.rs")).is_empty());
}

#[test]
fn sanctioned_modules_are_exempt_from_the_clock_rule_only() {
    // Wall-clock reads are the timing modules' job — silent there, flagged
    // on the protocol surface.
    let clock = fixture!("determinism_clock_only.rs");
    assert!(rules_for("crates/bench/src/fixture.rs", clock).is_empty());
    assert_eq!(rules_for(PROTO, clock), vec!["determinism"]);
    // Ambient entropy has no sanctioned modules: the same bad source in a
    // timing module still fires for its `thread_rng` (but not its clock).
    let rules = rules_for(
        "crates/bench/src/fixture.rs",
        fixture!("determinism_bad.rs"),
    );
    assert_eq!(rules, vec!["determinism"]);
}

#[test]
fn headers_bad_crate_root_fires_for_each_missing_header() {
    let rules = rules_for("crates/fake/src/lib.rs", fixture!("headers_bad.rs"));
    assert_eq!(rules, vec!["headers", "headers"]);
}

#[test]
fn headers_good_crate_root_is_silent() {
    assert!(rules_for("crates/fake/src/lib.rs", fixture!("headers_good.rs")).is_empty());
}

#[test]
fn headers_only_checked_on_crate_roots() {
    // The same header-less source as a non-root module is fine.
    assert!(rules_for("crates/fake/src/other.rs", fixture!("headers_bad.rs")).is_empty());
}

#[test]
fn derived_debug_on_secret_type_fires() {
    let rules = rules_for(PROTO, fixture!("secret_derive_bad.rs"));
    assert_eq!(rules, vec!["secret-hygiene"]);
}

#[test]
fn derived_debug_on_pooled_secret_types_fires() {
    // Precomputed nonces/mask pairs/key stocks are as sensitive as live ones.
    let rules = rules_for(PROTO, fixture!("secret_pool_derive_bad.rs"));
    assert_eq!(
        rules,
        vec!["secret-hygiene", "secret-hygiene", "secret-hygiene"]
    );
}

#[test]
fn secret_in_format_macro_fires() {
    let rules = rules_for(PROTO, fixture!("secret_format_bad.rs"));
    assert_eq!(rules, vec!["secret-hygiene", "secret-hygiene"]);
}

#[test]
fn variable_time_eq_on_secret_fires() {
    // The lexical rule flags the `==` itself; the dataflow engine
    // additionally flags the tainted verdict escaping as a plain `bool`
    // (fixed by `ct_eq`, which declassifies).
    let rules = rules_for(PROTO, fixture!("secret_eq_bad.rs"));
    assert_eq!(rules, vec!["secret-escape", "secret-hygiene"]);
}

#[test]
fn secret_good_is_silent() {
    assert!(rules_for(PROTO, fixture!("secret_good.rs")).is_empty());
}

#[test]
fn randomized_batch_combiner_fires_determinism_and_panic() {
    // The textbook batch-verification combiner is drawn from OsRng; on the
    // zkp protocol surface that breaks both the bit-identical-transcript
    // rule and the panic-free rule (the unwrap on the aggregate verdict).
    let rules = rules_for(
        "crates/zkp/src/fixture.rs",
        fixture!("batch_combiner_bad.rs"),
    );
    assert_eq!(rules, vec!["determinism", "panic"]);
}

#[test]
fn deterministic_msm_batch_shape_is_silent() {
    // The shape the real msm/batch modules use — hash-derived combiners,
    // Option/Result fallbacks — is clean on both protocol crates involved.
    for path in ["crates/zkp/src/fixture.rs", "crates/group/src/fixture.rs"] {
        assert!(rules_for(path, fixture!("msm_batch_good.rs")).is_empty());
    }
}

#[test]
fn pooled_verify_collector_shape_is_silent() {
    // The cross-session verify collector parks only published values —
    // key statements and their transcripts — so it needs no secret
    // registry entries; the shape is clean on the service and core paths.
    for path in [
        "crates/service/src/fixture.rs",
        "crates/core/src/fixture.rs",
    ] {
        assert!(rules_for(path, fixture!("verify_pool_good.rs")).is_empty());
    }
}

#[test]
fn fault_surface_bad_fires_per_hook() {
    // tamper + Tamper::Truncate + forge + corrupt_key_proof + equivocate.
    let rules = rules_for(PROTO, fixture!("fault_surface_bad.rs"));
    assert_eq!(rules, vec!["fault-surface"; 5], "{rules:?}");
}

#[test]
fn fault_surface_hooks_in_test_code_are_silent() {
    let rules = rules_for(PROTO, fixture!("fault_surface_good.rs"));
    assert!(rules.is_empty(), "{rules:?}");
}

#[test]
fn fault_surface_sanctioned_files_are_exempt() {
    // The injector, the proof-tamper helpers, and the offline stock's test
    // hook define the surface — the rule is silent where it lives.
    for path in [
        "crates/net/src/fault.rs",
        "crates/zkp/src/tamper.rs",
        "crates/core/src/offline.rs",
    ] {
        let rules = rules_for(path, fixture!("fault_surface_bad.rs"));
        assert!(rules.is_empty(), "{path}: {rules:?}");
    }
}

#[test]
fn service_crate_is_not_clock_sanctioned() {
    // The front door's admission projection must stay clock-free: the
    // service crate is deliberately absent from DETERMINISM_SANCTIONED,
    // so a wall-clock read in a projection fires the determinism rule.
    let rules = rules_for(
        "crates/service/src/fixture.rs",
        fixture!("service_clock_bad.rs"),
    );
    assert_eq!(rules, vec!["determinism"; 2], "{rules:?}");
}

// ---------------------------------------------------------------------------
// Dataflow rule families (secret-branch / secret-index / secret-escape)
// ---------------------------------------------------------------------------

#[test]
fn secret_branch_bad_fires_per_construct() {
    // if (two-step flow), for (secret trip count), match + guard, while.
    let rules = rules_for(PROTO, fixture!("secret_branch_bad.rs"));
    assert_eq!(rules, vec!["secret-branch"; 5], "{rules:?}");
}

#[test]
fn secret_branch_good_is_silent() {
    let rules = rules_for(PROTO, fixture!("secret_branch_good.rs"));
    assert!(rules.is_empty(), "{rules:?}");
}

#[test]
fn secret_index_bad_fires_per_lookup() {
    let diags = analyze_source(PROTO, fixture!("secret_index_bad.rs"));
    let index_hits = diags.iter().filter(|d| d.rule == "secret-index").count();
    assert_eq!(index_hits, 2, "{diags:?}");
}

#[test]
fn secret_index_good_is_silent() {
    let rules = rules_for(PROTO, fixture!("secret_index_good.rs"));
    assert!(rules.is_empty(), "{rules:?}");
}

#[test]
fn secret_escape_bad_fires_per_exit() {
    // clone of an exposed nonce, plain-typed return, formatted derived
    // binding (via an inline `{derived}` capture).
    let rules = rules_for(PROTO, fixture!("secret_escape_bad.rs"));
    assert_eq!(rules, vec!["secret-escape"; 3], "{rules:?}");
}

#[test]
fn secret_escape_good_is_silent() {
    let rules = rules_for(PROTO, fixture!("secret_escape_good.rs"));
    assert!(rules.is_empty(), "{rules:?}");
}

#[test]
fn dataflow_rules_skip_test_code() {
    // The same hot branch inside #[cfg(test)] is exempt, like every rule.
    let src = "#[cfg(test)]\nmod tests {\n fn f(sk: u64) { if sk > 0 { g(); } }\n}\n";
    assert!(rules_for(PROTO, src).is_empty());
}

#[test]
fn inline_waiver_silences_dataflow_finding() {
    let src = "fn f(sk: u64) {\n // tidy:allow(secret-branch) — fixture: value is public here\n if sk > 0 { g(); }\n}\n";
    assert!(rules_for(PROTO, src).is_empty());
}

#[test]
fn fingerprints_are_stable_across_line_shifts() {
    let before = analyze_source(PROTO, "fn f(sk: u64) { if sk > 0 { g(); } }\n");
    let after = analyze_source(
        PROTO,
        "//! A new doc comment shifting everything down.\n\nfn f(sk: u64) { if sk > 0 { g(); } }\n",
    );
    assert_eq!(before.len(), 1);
    assert_eq!(after.len(), 1);
    assert_ne!(before[0].line, after[0].line);
    assert_eq!(before[0].fingerprint, after[0].fingerprint);
    assert_eq!(before[0].fingerprint.len(), 16);
}

#[test]
fn identical_findings_get_distinct_fingerprints() {
    let src = "fn f(sk: u64) { if sk > 0 { g(); } }\nfn h(sk: u64) { if sk > 0 { g(); } }\n";
    let diags = analyze_source(PROTO, src);
    assert_eq!(diags.len(), 2, "{diags:?}");
    assert_ne!(diags[0].fingerprint, diags[1].fingerprint);
}
