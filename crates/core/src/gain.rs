//! Phase 1 — secure gain computation (paper Fig. 1, steps 1–4).
//!
//! Each participant runs the secure dot product with the initiator (the
//! [`Round::GainRequest`](crate::party::Round::GainRequest) and
//! [`Round::GainReply`](crate::party::Round::GainReply) rounds):
//! the participant supplies `w′_j = [vg_j, ve_j∗ve_j, ve_j]` (her data),
//! the initiator supplies `v′_j = [ρ·wg, −ρ·we, 2ρ(w∗ve₀)]` and the mask
//! `α = ρ_j`, and the participant ends up with the masked partial gain
//! `β_j = ρ·p_j + ρ_j`, converted to an unsigned `l`-bit integer.
//!
//! `ρ` (an `h`-bit secret of the initiator) is shared across participants;
//! `ρ_j ∈ [0, ρ)` varies per participant. Because `ρ_j < ρ`, the masking
//! preserves the *strict* order of distinct partial gains. *Equal* partial
//! gains end up with distinct `β` values almost surely, i.e. the masking
//! breaks gain ties into an arbitrary strict order — exactly what the
//! paper allows ("If `p_i = p_j`, it does not matter if `P_i` ranks higher
//! or lower than `P_j`", Sec. V).

use ppgr_bigint::BigUint;

/// Output of the gain phase, held by the in-process driver: each
/// participant's private masked gain (in real deployments each `β_j`
/// exists only at `P_j`; the in-process model keeps them together).
#[derive(Clone, Debug)]
pub struct GainPhaseOutput {
    /// `β_j` as unsigned `l`-bit integers, index `j-1` for participant `j`.
    pub betas: Vec<BigUint>,
    /// The masked signed values `ρ·p_j + ρ_j` (diagnostics/tests only).
    pub masked_signed: Vec<i128>,
}

/// Converts a signed masked gain to the unsigned `l`-bit representation by
/// adding `2^{l−1}` (paper Sec. III-A) — order-preserving.
///
/// # Panics
///
/// Panics if `l` is outside `1..=120` (the exact-`i128` regime enforced by
/// [`FrameworkParams`](crate::params::FrameworkParams)) or the value falls
/// outside `[−2^{l−1}, 2^{l−1})`, which would mean the bit-length calculus
/// was violated.
pub fn to_unsigned(value: i128, l: usize) -> BigUint {
    assert!(
        (1..=120).contains(&l),
        "bit length l={l} outside supported 1..=120"
    );
    let offset = 1i128 << (l - 1);
    let shifted = value
        .checked_add(offset)
        // tidy:allow(panic) — documented panicking contract: unreachable while the params calculus holds
        .unwrap_or_else(|| panic!("masked gain {value} exceeds {l}-bit budget"));
    assert!(
        (0..(1i128 << l)).contains(&shifted),
        "masked gain {value} exceeds {l}-bit budget"
    );
    BigUint::from(shifted as u128)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::attrs::{partial_gain, InfoVector, InitiatorProfile, Questionnaire};
    use crate::framework::{GroupRanking, Outcome};
    use crate::params::FrameworkParams;
    use crate::wire::FIELD_BYTES;
    use ppgr_hash::HashDrbg;
    use rand::SeedableRng;

    type Run = (FrameworkParams, InitiatorProfile, Vec<InfoVector>, Outcome);

    /// Runs a whole session, returning its population, outcome and the
    /// gain phase's messages as `(from, to, bytes)`.
    fn run(n: usize, seed: u64) -> (Run, Vec<(usize, usize, usize)>) {
        let q = Questionnaire::synthetic(2, 3);
        let params = FrameworkParams::builder(q)
            .participants(n)
            .top_k(1)
            .attr_bits(8)
            .weight_bits(4)
            .mask_bits(8)
            .seed(seed)
            .build()
            .unwrap();
        let mut rng = HashDrbg::seed_from_u64(seed);
        let (profile, infos) = params.random_population(&mut rng);
        let ranking = GroupRanking::new(params.clone())
            .with_population(profile.clone(), infos.clone())
            .unwrap();
        let log = ranking.traffic_log();
        let outcome = ranking.run().unwrap();
        let gain = log.records().into_iter().filter(|r| r.phase == "gain");
        let gain = gain.map(|r| (r.from, r.to, r.bytes)).collect();
        ((params, profile, infos, outcome), gain)
    }

    #[test]
    fn masked_gains_preserve_partial_gain_order() {
        let ((params, profile, infos, outcome), _) = run(8, 1);
        let out = outcome.masked_gains();
        let q = params.questionnaire();
        let gains: Vec<i128> = infos.iter().map(|i| partial_gain(q, &profile, i)).collect();
        for a in 0..infos.len() {
            for b in 0..infos.len() {
                if gains[a] > gains[b] {
                    assert!(
                        out.betas[a] > out.betas[b],
                        "order broken between {a} ({}) and {b} ({})",
                        gains[a],
                        gains[b]
                    );
                }
            }
        }
    }

    #[test]
    fn betas_fit_bit_length() {
        let ((params, _, _, outcome), _) = run(5, 2);
        let l = params.beta_bits();
        for (b, &signed) in outcome
            .masked_gains()
            .betas
            .iter()
            .zip(&outcome.masked_gains().masked_signed)
        {
            assert!(b.bits() <= l);
            assert_eq!(b, &to_unsigned(signed, l));
        }
    }

    #[test]
    fn traffic_is_logged_per_participant() {
        let ((_, _, _, outcome), gain) = run(4, 3);
        // One exchange per participant: a request to P₀, a 2-element reply.
        assert_eq!(gain.len(), 8, "one exchange per participant");
        for j in 1..=4 {
            let sent = |from, to| gain.iter().filter(|r| (r.0, r.1) == (from, to)).count();
            assert_eq!((sent(j, 0), sent(0, j)), (1, 1), "participant {j}");
        }
        let replies: Vec<usize> = gain.iter().filter(|r| r.0 == 0).map(|r| r.2).collect();
        assert_eq!(replies, vec![2 * FIELD_BYTES; 4]);
        let s = outcome.traffic();
        let total: usize = gain.iter().map(|r| r.2).sum();
        assert_eq!(s.bytes_by_phase["gain"], total as u64);
        // The initiator speaks only in the gain phase.
        assert_eq!(s.bytes_sent_by_party[&0], 4 * 2 * FIELD_BYTES as u64);
        // Participant requests dominate the replies.
        let request = gain.iter().find(|r| r.0 == 1).map_or(0, |r| r.2);
        assert!(request > 2 * FIELD_BYTES);
    }

    #[test]
    fn to_unsigned_is_monotone() {
        assert!(to_unsigned(-5, 8) < to_unsigned(-4, 8));
        assert!(to_unsigned(-1, 8) < to_unsigned(0, 8));
        assert!(to_unsigned(0, 8) < to_unsigned(127, 8));
        assert_eq!(to_unsigned(0, 8), BigUint::from(128u64));
    }

    #[test]
    #[should_panic(expected = "bit budget")]
    fn to_unsigned_overflow_panics() {
        let _ = to_unsigned(1 << 20, 8);
    }

    #[test]
    #[should_panic(expected = "outside supported 1..=120")]
    fn to_unsigned_rejects_zero_width() {
        let _ = to_unsigned(0, 0);
    }

    #[test]
    #[should_panic(expected = "outside supported 1..=120")]
    fn to_unsigned_rejects_oversized_width() {
        // l = 127 would make `1i128 << l` overflow; the guard fires first.
        let _ = to_unsigned(0, 127);
    }

    #[test]
    #[should_panic(expected = "bit budget")]
    fn to_unsigned_underflow_panics() {
        // More negative than −2^{l−1}: below the representable window.
        let _ = to_unsigned(-(1 << 20), 8);
    }

    #[test]
    fn to_unsigned_accepts_window_extremes() {
        assert_eq!(to_unsigned(-(1 << 7), 8), BigUint::zero());
        assert_eq!(to_unsigned((1 << 7) - 1, 8), BigUint::from(255u64));
        // The widest supported budget round-trips without i128 overflow.
        let top = (1i128 << 119) - 1;
        assert_eq!(to_unsigned(top, 120).bits(), 120);
    }
}
