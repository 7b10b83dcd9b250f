//! The distributed (thread-per-party, serialized-messages) runner,
//! exercised through the public facade.

use ppgr::core::{
    run_distributed, AttributeKind, CriterionVector, FrameworkParams, GroupRanking, InfoVector,
    InitiatorProfile, Questionnaire, WeightVector,
};
use ppgr::group::GroupKind;

fn scored_population(scores: &[u64]) -> (Questionnaire, InitiatorProfile, Vec<InfoVector>) {
    let q = Questionnaire::builder()
        .attribute("score", AttributeKind::GreaterThan)
        .build()
        .unwrap();
    let profile = InitiatorProfile {
        criterion: CriterionVector::new(&q, vec![0], 6).unwrap(),
        weights: WeightVector::new(&q, vec![1], 3).unwrap(),
    };
    let infos = scores
        .iter()
        .map(|&v| InfoVector::new(&q, vec![v], 6).unwrap())
        .collect();
    (q, profile, infos)
}

fn params(q: Questionnaire, n: usize, k: usize, seed: u64) -> FrameworkParams {
    FrameworkParams::builder(q)
        .participants(n)
        .top_k(k)
        .attr_bits(6)
        .weight_bits(3)
        .mask_bits(6)
        .group(GroupKind::Ecc160)
        .seed(seed)
        .build()
        .unwrap()
}

#[test]
fn distributed_known_scores() {
    let scores = [10u64, 40, 25, 5];
    let (q, profile, infos) = scored_population(&scores);
    let p = params(q, scores.len(), 2, 3);
    let out = run_distributed(&p, profile, infos).unwrap();
    assert_eq!(out.ranks, vec![3, 1, 2, 4]);
    assert!(out.report.is_clean());
    let accepted: Vec<usize> = out
        .report
        .accepted
        .iter()
        .map(|a| a.submission.party)
        .collect();
    assert_eq!(accepted, vec![2, 3], "rank-1 then rank-2 submitters");
}

#[test]
fn distributed_agrees_with_orchestrated_on_distinct_scores() {
    let scores = [7u64, 19, 30];
    let (q, profile, infos) = scored_population(&scores);
    let p = params(q, scores.len(), 1, 9);

    let orchestrated = GroupRanking::new(p.clone())
        .with_population(profile.clone(), infos.clone())
        .unwrap()
        .run()
        .unwrap();
    let distributed = run_distributed(&p, profile, infos).unwrap();
    assert_eq!(orchestrated.ranks(), &distributed.ranks[..]);
    assert_eq!(distributed.ranks, vec![3, 2, 1]);
}

#[test]
fn gain_ties_break_arbitrarily_but_consistently_with_order() {
    // Equal gains receive different masks ρ_j, so the framework breaks
    // gain ties into an arbitrary strict order (explicitly allowed by the
    // paper, Sec. V: "If p_i = p_j, it does not matter if P_i ranks
    // higher or lower"). Both drivers run the same per-party round code
    // from the same per-party streams, so they must break the tie the
    // same way: the strict winner first, the tied pair at {2, 3} in one
    // order shared by both.
    let scores = [7u64, 7, 30];
    let (q, profile, infos) = scored_population(&scores);
    let p = params(q, scores.len(), 1, 9);

    let orchestrated = GroupRanking::new(p.clone())
        .with_population(profile.clone(), infos.clone())
        .unwrap()
        .run()
        .unwrap();
    let distributed = run_distributed(&p, profile, infos).unwrap();
    assert_eq!(orchestrated.ranks(), &distributed.ranks[..]);
    for ranks in [orchestrated.ranks(), &distributed.ranks[..]] {
        assert_eq!(ranks[2], 1, "strict winner must be rank 1: {ranks:?}");
        let mut tied: Vec<usize> = vec![ranks[0], ranks[1]];
        tied.sort_unstable();
        assert_eq!(tied, vec![2, 3], "tied pair gets ranks 2 and 3: {ranks:?}");
    }
}
