//! Warm-vs-cold equivalence properties for the offline stock tiers.
//!
//! A session served from the precompute pool — whether the stock carries
//! only mask halves or the full keygen tier — must be indistinguishable
//! on the wire from a cold session: identical ranks AND identical
//! traffic transcripts, for arbitrary `(n, seed)`.

use ppgr_core::{
    FrameworkParams, GroupRanking, OfflineStock, Outcome, Questionnaire, SessionMachine,
    StockFingerprint,
};
use ppgr_group::GroupKind;
use proptest::prelude::*;

fn machine_for(n: usize, seed: u64) -> SessionMachine {
    let params = FrameworkParams::builder(Questionnaire::synthetic(1, 2))
        .participants(n)
        .top_k(1)
        .attr_bits(6)
        .weight_bits(3)
        .mask_bits(6)
        .group(GroupKind::Ecc160)
        .seed(seed)
        .build()
        .expect("valid params");
    GroupRanking::new(params)
        .with_random_population()
        .into_machine()
        .expect("machine")
}

fn run(mut machine: SessionMachine) -> Outcome {
    while !machine.is_done() {
        machine.step().expect("session step");
    }
    machine.into_outcome().expect("finished outcome")
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(6))]

    #[test]
    fn warm_tiers_match_cold_ranks_and_transcripts(n in 2usize..5, seed in 0u64..10_000) {
        let cold = run(machine_for(n, seed));

        let mut masks = machine_for(n, seed);
        let stock = OfflineStock::generate_masks_only(masks.offline_fingerprint());
        prop_assert!(masks.attach_offline_stock(stock), "masks stock must attach");
        let masks = run(masks);

        let mut keygen = machine_for(n, seed);
        let stock = OfflineStock::generate(keygen.offline_fingerprint());
        prop_assert!(keygen.attach_offline_stock(stock), "keygen stock must attach");
        let keygen = run(keygen);

        // Ranks agree and the wire transcripts are bit-identical: the
        // tiers change where the exponentiations happen, never what is
        // sent.
        prop_assert_eq!(cold.ranks(), masks.ranks());
        prop_assert_eq!(cold.ranks(), keygen.ranks());
        prop_assert_eq!(cold.traffic(), masks.traffic());
        prop_assert_eq!(cold.traffic(), keygen.traffic());
    }
}

#[test]
fn a_foreign_stock_is_refused_and_the_session_runs_cold() {
    // A stock minted for another group, party count, bit length or seed
    // (a mis-keyed pool lane) must never be consumed: the session refuses
    // it and runs exactly as it would have cold.
    let (n, seed) = (3, 77);
    let cold = run(machine_for(n, seed));
    let own = machine_for(n, seed).offline_fingerprint();
    let foreign = [
        StockFingerprint {
            group: GroupKind::Ecc224,
            ..own
        },
        StockFingerprint {
            participants: n + 1,
            ..own
        },
        StockFingerprint {
            bits: own.bits + 1,
            ..own
        },
        StockFingerprint {
            seed: seed + 1,
            ..own
        },
    ];
    for fp in foreign {
        let mut machine = machine_for(n, seed);
        let stock = OfflineStock::generate_masks_only(fp);
        assert!(
            !machine.attach_offline_stock(stock),
            "{fp:?} must be refused"
        );
        let outcome = run(machine);
        assert_eq!(outcome.ranks(), cold.ranks());
        assert_eq!(outcome.traffic(), cold.traffic());
    }
}
