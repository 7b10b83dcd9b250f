//! Offline/online split properties: a session served from a precomputed
//! offline stock must be bit-identical — ranks *and* wire transcript — to
//! the same session generating its stock inline, for any worker count.

use ppgr::core::{
    FrameworkParams, GroupRanking, OfflineStock, Outcome, Questionnaire, SortOptions,
};
use ppgr::group::GroupKind;
use proptest::prelude::*;

fn params_for(n: usize, seed: u64) -> FrameworkParams {
    FrameworkParams::builder(Questionnaire::synthetic(1, 2))
        .participants(n)
        .top_k(1)
        .attr_bits(5)
        .weight_bits(2)
        .mask_bits(5)
        .group(GroupKind::Ecc160)
        .seed(seed)
        .build()
        .expect("valid params")
}

/// Cold reference: the Offline phase generates the stock inline.
fn cold_run(n: usize, seed: u64, workers: usize) -> Outcome {
    let options = SortOptions {
        threads: workers,
        ..SortOptions::default()
    };
    let mut machine = GroupRanking::new(params_for(n, seed))
        .with_random_population()
        .into_machine_with(options)
        .expect("machine");
    while !machine.is_done() {
        machine.step().expect("cold step");
    }
    machine.into_outcome().expect("cold outcome")
}

/// Warm run: the stock is generated up front and attached before the
/// first step.
fn warm_run(n: usize, seed: u64, workers: usize) -> Outcome {
    let options = SortOptions {
        threads: workers,
        ..SortOptions::default()
    };
    let mut machine = GroupRanking::new(params_for(n, seed))
        .with_random_population()
        .into_machine_with(options)
        .expect("machine");
    let stock = OfflineStock::generate(machine.offline_fingerprint());
    assert!(
        machine.attach_offline_stock(stock),
        "stock minted from the machine's own fingerprint must attach"
    );
    while !machine.is_done() {
        machine.step().expect("warm step");
    }
    machine.into_outcome().expect("warm outcome")
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    /// Warm == cold for arbitrary group size, seed, and per-party worker
    /// count: same ranks, same wire transcript (the traffic summary counts
    /// every message and byte, so any divergence in what crosses the wire
    /// shows up here).
    #[test]
    fn warm_stock_matches_cold_inline_generation(
        n in 2usize..=4,
        seed in 0u64..1_000_000,
        workers in 1usize..=3,
    ) {
        let cold = cold_run(n, seed, 1);
        let warm = warm_run(n, seed, workers);
        prop_assert_eq!(cold.ranks(), warm.ranks());
        prop_assert_eq!(cold.traffic(), warm.traffic());
    }
}
