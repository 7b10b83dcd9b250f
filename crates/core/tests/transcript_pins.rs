//! Pins the bytes of two seeded runs to SHA-256 digests, so a refactor
//! that changes any frame, rank or returned ciphertext fails here even
//! when every run still ranks correctly.
//!
//! Both digests were computed on commit 5c84dbf (the in-process driver
//! before its stand-alone and session machines were merged); a change to
//! either is a change on the wire, never a refactor.

use ppgr_bigint::BigUint;
use ppgr_core::sorting::run_sort;
use ppgr_core::{
    FrameworkParams, GroupRanking, PartyTimer, Questionnaire, SessionStatus, SortOptions,
    Transcript,
};
use ppgr_group::GroupKind;
use ppgr_hash::{to_hex, HashDrbg, Sha256};
use ppgr_net::TrafficLog;
use rand::SeedableRng;

const SESSION_DIGEST: &str = "4a5a4c5a7de6558f2e805814044d53fc07ce512644076d4207fb36f61fe33053";
const SORT_DIGEST: &str = "806feaf6413689242b00e4e4587661642fba9712d0a5449b48d84ea2c6d2b299";

fn put(h: &mut Sha256, bytes: &[u8]) {
    h.update(&(bytes.len() as u64).to_le_bytes());
    h.update(bytes);
}

#[test]
fn seeded_session_frames_are_pinned() {
    let params = FrameworkParams::builder(Questionnaire::synthetic(1, 2))
        .participants(4)
        .top_k(2)
        .attr_bits(6)
        .weight_bits(3)
        .mask_bits(6)
        .group(GroupKind::Ecc160)
        .seed(2012)
        .build()
        .expect("valid params");
    let mut machine = GroupRanking::new(params)
        .with_random_population()
        .into_machine()
        .expect("machine");
    let transcript = Transcript::default();
    machine.record_transcript(&transcript);
    while machine.step().expect("session step") == SessionStatus::Pending {}
    let mut h = Sha256::new();
    for (from, frames) in transcript.frames().iter().enumerate() {
        for (to, frame) in frames {
            h.update(&(from as u64).to_le_bytes());
            h.update(&(*to as u64).to_le_bytes());
            put(&mut h, frame);
        }
    }
    assert_eq!(to_hex(&h.finalize()), SESSION_DIGEST);
}

#[test]
fn seeded_sort_ranks_and_returned_sets_are_pinned() {
    let group = GroupKind::Ecc160.group();
    let values: Vec<BigUint> = [13u64, 200, 78, 200, 0]
        .iter()
        .map(|&v| BigUint::from(v))
        .collect();
    let mut rng = HashDrbg::seed_from_u64(12);
    let mut timer = PartyTimer::new(values.len() + 1);
    let (outcome, trace) = run_sort(
        &group,
        &values,
        8,
        SortOptions::default(),
        &mut rng,
        &TrafficLog::new(),
        &mut timer,
        0,
    )
    .expect("sort");
    assert_eq!(outcome.ranks, vec![4, 1, 3, 1, 5]);
    let mut h = Sha256::new();
    for (rank, set) in outcome.ranks.iter().zip(&trace.returned_sets) {
        h.update(&(*rank as u64).to_le_bytes());
        h.update(&(set.len() as u64).to_le_bytes());
        for ct in set {
            put(&mut h, &ct.encode(&group));
        }
    }
    assert_eq!(to_hex(&h.finalize()), SORT_DIGEST);
}
