//! One protocol, two drivers: a session stepped in process
//! (`SessionMachine`) and the same session run with a thread per party
//! over the mesh (`run_distributed`) execute the same per-party round
//! code from the same per-party streams. Every message each party emits
//! must be byte-identical between the two, so ranks — tie order included
//! — and accepted submissions agree.

use ppgr_core::circuit::compare_encrypted;
use ppgr_core::party::{Codec, Frames, Msg, Round};
use ppgr_core::wire::{parse_frame, Frame};
use ppgr_core::{
    run_distributed_recorded, FrameworkParams, GroupRanking, InfoVector, Outcome, Questionnaire,
    Transcript,
};
use ppgr_elgamal::{Ciphertext, ExpElGamal};
use ppgr_group::GroupKind;
use ppgr_hash::HashDrbg;
use proptest::prelude::*;
use rand::SeedableRng;

fn params(n: usize, seed: u64) -> FrameworkParams {
    FrameworkParams::builder(Questionnaire::synthetic(1, 2))
        .participants(n)
        .top_k(2.min(n))
        .attr_bits(4)
        .weight_bits(2)
        .mask_bits(4)
        .group(GroupKind::Ecc160)
        .seed(seed)
        .build()
        .expect("valid params")
}

/// A seeded population where every party listed in `copies` takes party
/// 1's information vector, so their gains tie.
fn population(
    p: &FrameworkParams,
    copies: &[usize],
) -> (ppgr_core::InitiatorProfile, Vec<InfoVector>) {
    let mut rng = HashDrbg::seed_from_u64(p.seed());
    let (profile, mut infos) = p.random_population(&mut rng);
    for &c in copies {
        let c = c % infos.len();
        infos[c] = infos[0].clone();
    }
    (profile, infos)
}

fn in_process(
    p: &FrameworkParams,
    profile: ppgr_core::InitiatorProfile,
    infos: Vec<InfoVector>,
) -> (Outcome, Frames) {
    let mut machine = GroupRanking::new(p.clone())
        .with_population(profile, infos)
        .expect("population")
        .into_machine()
        .expect("machine");
    let transcript = Transcript::default();
    machine.record_transcript(&transcript);
    while !machine.is_done() {
        machine.step().expect("session step");
    }
    (
        machine.into_outcome().expect("outcome"),
        transcript.frames(),
    )
}

/// The ciphertext-vector frames `from` sent to `to`, in order: the bit
/// broadcast first, then (to P₁) the collected τ set.
fn vectors(t: &Frames, codec: &Codec, from: usize, to: usize) -> Vec<Vec<Ciphertext>> {
    t[from]
        .iter()
        .filter(|(receiver, _)| *receiver == to)
        .filter_map(|(_, frame)| match parse_frame(frame) {
            Ok(Frame::Data(payload)) => {
                match Msg::decode(Round::Bits, t.len() - 1, codec, payload) {
                    Ok(Msg::Set(set)) => Some(set),
                    _ => None,
                }
            }
            _ => None,
        })
        .collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    #[test]
    fn both_drivers_emit_identical_messages_and_ranks(
        n in 2usize..=5,
        seed in any::<u64>(),
        copies in prop::collection::vec(1usize..5, 0..3),
    ) {
        let p = params(n, seed);
        let (profile, infos) = population(&p, &copies);
        let (outcome, local) = in_process(&p, profile.clone(), infos.clone());
        let remote = Transcript::default();
        let mesh = run_distributed_recorded(&p, profile, infos, &remote).expect("mesh run");
        let remote = remote.frames();

        prop_assert_eq!(local.len(), n + 1);
        prop_assert_eq!(remote.len(), n + 1);
        for (party, (a, b)) in local.iter().zip(&remote).enumerate() {
            prop_assert!(!a.is_empty(), "party {} emitted nothing", party);
            prop_assert_eq!(a.len(), b.len(), "party {} message count", party);
            for (i, (x, y)) in a.iter().zip(b).enumerate() {
                prop_assert!(x == y, "party {} message {} differs between drivers", party, i);
            }
        }
        prop_assert_eq!(outcome.ranks(), &mesh.ranks[..]);
        prop_assert_eq!(outcome.top_k(), &mesh.report.accepted[..]);

        // The τ set each party hands P₁ is re-randomized: no ciphertext
        // equals the deterministic combination of the published bits that
        // P₁ could recompute to test a guess of the sender's value.
        let group = GroupKind::Ecc160.group();
        let (scheme, codec) = (ExpElGamal::new(group.clone()), Codec::new(group));
        let l = p.beta_bits();
        let published: Vec<Vec<Ciphertext>> = (1..=n)
            .map(|j| vectors(&local, &codec, j, if j == 1 { 2 } else { 1 }).swap_remove(0))
            .collect();
        for j in 2..=n {
            let beta = &outcome.masked_gains().betas[j - 1];
            let raw: Vec<Ciphertext> = (1..=n)
                .filter(|&o| o != j)
                .flat_map(|o| compare_encrypted(&scheme, beta, &published[o - 1], l))
                .collect();
            let sent = &vectors(&local, &codec, j, 1)[1];
            prop_assert_eq!(sent.len(), raw.len());
            prop_assert!(sent.iter().zip(&raw).all(|(s, r)| s != r));
        }
    }
}
