//! Framework parameters and the bit-length calculus of Sec. V.

use crate::attrs::{CriterionVector, InfoVector, InitiatorProfile, Questionnaire, WeightVector};
use ppgr_group::GroupKind;
use rand::Rng;
use std::error::Error;
use std::fmt;

/// Errors from parameter validation.
#[derive(Clone, Debug, Eq, PartialEq)]
pub enum ParamError {
    /// `n` must be at least 2 (the sorting protocol needs a chain).
    TooFewParticipants(usize),
    /// `k` must satisfy `1 ≤ k ≤ n`.
    BadTopK {
        /// requested k
        k: usize,
        /// participants
        n: usize,
    },
    /// Bit widths must be positive.
    ZeroWidth(&'static str),
    /// The mask width `h` must stay below 64: the initiator's secret `ρ`
    /// is sampled as an exactly-`h`-bit `u64`
    /// (see `party::Initiator::new`).
    MaskTooWide {
        /// requested h
        h: u32,
    },
    /// The masked-gain bit length `l` exceeds what exact `i128` gain
    /// arithmetic supports.
    BitLengthTooLarge {
        /// computed `l`
        l: usize,
    },
}

impl fmt::Display for ParamError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ParamError::TooFewParticipants(n) => {
                write!(f, "need at least 2 participants, got {n}")
            }
            ParamError::BadTopK { k, n } => {
                write!(f, "top-k must satisfy 1 <= k <= n, got k={k}, n={n}")
            }
            ParamError::ZeroWidth(which) => write!(f, "{which} bit width must be positive"),
            ParamError::MaskTooWide { h } => {
                write!(
                    f,
                    "mask width h={h} too wide: the secret rho is an h-bit u64, so h < 64"
                )
            }
            ParamError::BitLengthTooLarge { l } => {
                write!(f, "masked gain needs {l} bits; maximum supported is 120")
            }
        }
    }
}

impl Error for ParamError {}

/// All public parameters of a framework instance.
#[derive(Clone, Debug)]
pub struct FrameworkParams {
    questionnaire: Questionnaire,
    n: usize,
    k: usize,
    attr_bits: u32,
    weight_bits: u32,
    mask_bits: u32,
    group: GroupKind,
    seed: u64,
}

/// Builder for [`FrameworkParams`].
#[derive(Clone, Debug)]
pub struct FrameworkParamsBuilder {
    questionnaire: Questionnaire,
    n: usize,
    k: usize,
    attr_bits: u32,
    weight_bits: u32,
    mask_bits: u32,
    group: GroupKind,
    seed: u64,
}

impl FrameworkParams {
    /// Starts a builder with the paper's default parameters
    /// (`n=25, k=3, d₁=15, d₂=8, h=15`, ECC-160).
    pub fn builder(questionnaire: Questionnaire) -> FrameworkParamsBuilder {
        FrameworkParamsBuilder {
            questionnaire,
            n: 25,
            k: 3,
            attr_bits: 15,
            weight_bits: 8,
            mask_bits: 15,
            group: GroupKind::Ecc160,
            seed: 0,
        }
    }

    /// The questionnaire.
    pub fn questionnaire(&self) -> &Questionnaire {
        &self.questionnaire
    }

    /// Number of participants `n`.
    pub fn participants(&self) -> usize {
        self.n
    }

    /// Published `k` of the top-k selection.
    pub fn top_k(&self) -> usize {
        self.k
    }

    /// Attribute value width `d₁`.
    pub fn attr_bits(&self) -> u32 {
        self.attr_bits
    }

    /// Weight width `d₂`.
    pub fn weight_bits(&self) -> u32 {
        self.weight_bits
    }

    /// Mask width `h` (bits of the initiator's secret `ρ`).
    pub fn mask_bits(&self) -> u32 {
        self.mask_bits
    }

    /// The group instantiation.
    pub fn group(&self) -> GroupKind {
        self.group
    }

    /// Deterministic master seed for reproducible runs.
    pub fn seed(&self) -> u64 {
        self.seed
    }

    /// The same parameters with a different master seed — how a precompute
    /// pool derives per-session parameters from a registered template
    /// without rebuilding (and revalidating) them each time.
    pub fn with_seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    /// The masked-gain bit length `l` (see [`bit_length`] for the formula
    /// and for how it relates to the paper's Sec. V expression).
    pub fn beta_bits(&self) -> usize {
        bit_length(
            self.questionnaire.dimension(),
            self.attr_bits,
            self.weight_bits,
            self.mask_bits,
        )
    }

    /// Generates a uniformly random population: an initiator profile and
    /// `n` info vectors with in-range values.
    pub fn random_population<R: Rng + ?Sized>(
        &self,
        rng: &mut R,
    ) -> (InitiatorProfile, Vec<InfoVector>) {
        let m = self.questionnaire.dimension();
        let attr_bound = 1u64 << self.attr_bits;
        let weight_bound = 1u64 << self.weight_bits;
        let criterion = CriterionVector::new(
            &self.questionnaire,
            (0..m).map(|_| rng.gen_range(0..attr_bound)).collect(),
            self.attr_bits,
        )
        // tidy:allow(panic) — values sampled from the declared bit range by construction
        .expect("generated in range");
        let weights = WeightVector::new(
            &self.questionnaire,
            (0..m).map(|_| rng.gen_range(0..weight_bound)).collect(),
            self.weight_bits,
        )
        // tidy:allow(panic) — values sampled from the declared bit range by construction
        .expect("generated in range");
        let infos = (0..self.n)
            .map(|_| {
                InfoVector::new(
                    &self.questionnaire,
                    (0..m).map(|_| rng.gen_range(0..attr_bound)).collect(),
                    self.attr_bits,
                )
                // tidy:allow(panic) — values sampled from the declared bit range by construction
                .expect("generated in range")
            })
            .collect();
        (InitiatorProfile { criterion, weights }, infos)
    }
}

/// The masked-gain bit length:
/// `l = h + ⌈log₂ m⌉ + d₁ + d₂ + max(d₁, d₂) + 2`.
///
/// The paper states `l = h + ⌈log m⌉ + d₁ + 2d₂ + 2` (Sec. III-A/V), but
/// the dominant partial-gain term `w·v²` has `2d₁ + d₂` bits, so the
/// printed formula under-budgets whenever `d₁ > d₂` (it implicitly
/// assumes `d₂ ≥ d₁`). We use the symmetric bound, which equals the
/// paper's expression in its implied regime and is safe outside it — an
/// overflowing masked gain would abort the run
/// (see [`crate::gain::to_unsigned`]).
pub fn bit_length(m: usize, attr_bits: u32, weight_bits: u32, mask_bits: u32) -> usize {
    let log_m = usize::BITS - m.next_power_of_two().leading_zeros() - 1; // ⌈log₂ m⌉
    mask_bits as usize
        + log_m as usize
        + attr_bits as usize
        + weight_bits as usize
        + attr_bits.max(weight_bits) as usize
        + 2
}

impl FrameworkParamsBuilder {
    /// Sets the number of participants.
    pub fn participants(mut self, n: usize) -> Self {
        self.n = n;
        self
    }

    /// Sets `k` for the top-k selection.
    pub fn top_k(mut self, k: usize) -> Self {
        self.k = k;
        self
    }

    /// Sets the attribute width `d₁`.
    pub fn attr_bits(mut self, bits: u32) -> Self {
        self.attr_bits = bits;
        self
    }

    /// Sets the weight width `d₂`.
    pub fn weight_bits(mut self, bits: u32) -> Self {
        self.weight_bits = bits;
        self
    }

    /// Sets the mask width `h`.
    pub fn mask_bits(mut self, bits: u32) -> Self {
        self.mask_bits = bits;
        self
    }

    /// Selects the group instantiation.
    pub fn group(mut self, group: GroupKind) -> Self {
        self.group = group;
        self
    }

    /// Sets the master seed (runs are deterministic per seed).
    pub fn seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    /// Validates and builds.
    ///
    /// # Errors
    ///
    /// See [`ParamError`].
    pub fn build(self) -> Result<FrameworkParams, ParamError> {
        if self.n < 2 {
            return Err(ParamError::TooFewParticipants(self.n));
        }
        if self.k == 0 || self.k > self.n {
            return Err(ParamError::BadTopK {
                k: self.k,
                n: self.n,
            });
        }
        if self.attr_bits == 0 {
            return Err(ParamError::ZeroWidth("attribute"));
        }
        if self.weight_bits == 0 {
            return Err(ParamError::ZeroWidth("weight"));
        }
        if self.mask_bits == 0 {
            return Err(ParamError::ZeroWidth("mask"));
        }
        if self.mask_bits >= 64 {
            return Err(ParamError::MaskTooWide { h: self.mask_bits });
        }
        let l = bit_length(
            self.questionnaire.dimension(),
            self.attr_bits,
            self.weight_bits,
            self.mask_bits,
        );
        if l > 120 {
            return Err(ParamError::BitLengthTooLarge { l });
        }
        Ok(FrameworkParams {
            questionnaire: self.questionnaire,
            n: self.n,
            k: self.k,
            attr_bits: self.attr_bits,
            weight_bits: self.weight_bits,
            mask_bits: self.mask_bits,
            group: self.group,
            seed: self.seed,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn q() -> Questionnaire {
        Questionnaire::synthetic(2, 8)
    }

    #[test]
    fn paper_default_bit_length() {
        // m=10, d1=15, d2=8, h=15 → l = 15 + 4 + 15 + 8 + 15 + 2 = 59.
        assert_eq!(bit_length(10, 15, 8, 15), 59);
        // In the paper's implied regime (d2 ≥ d1) the formula matches the
        // printed one: d1 + 2·d2.
        assert_eq!(bit_length(10, 8, 15, 15), 15 + 4 + 8 + 2 * 15 + 2);
        let p = FrameworkParams::builder(q()).build().unwrap();
        assert_eq!(p.beta_bits(), 59);
    }

    #[test]
    fn bit_length_log_term() {
        // log2(1) contributes 0 bits; the other terms are 1 + 1 + 2 + 2.
        assert_eq!(bit_length(1, 1, 1, 1), 1 + 1 + 2 + 2);
        assert_eq!(bit_length(2, 1, 1, 1), 1 + 1 + 1 + 2 + 2);
        assert_eq!(bit_length(16, 1, 1, 1), 1 + 4 + 1 + 2 + 2);
        assert_eq!(bit_length(17, 1, 1, 1), 1 + 5 + 1 + 2 + 2);
    }

    #[test]
    fn bit_length_covers_worst_case_gain() {
        // Adversarial extremes: v = 2^d1 − 1, v0 = 2^d1 − 1, w = 2^d2 − 1;
        // the masked gain must fit the budget for every m.
        for (m, d1, d2, h) in [(2usize, 8u32, 4u32, 8u32), (10, 15, 8, 15), (4, 4, 12, 6)] {
            let l = bit_length(m, d1, d2, h);
            let vmax = (1i128 << d1) - 1;
            let wmax = (1i128 << d2) - 1;
            // |p| is maximized by all-equal-to attributes at extreme values.
            let p_max = m as i128 * wmax * vmax * vmax.max(2 * vmax);
            let rho_max = (1i128 << h) - 1;
            let beta_max = rho_max * p_max + rho_max;
            assert!(
                beta_max < 1i128 << (l - 1),
                "budget too small: m={m} d1={d1} d2={d2} h={h} l={l}"
            );
        }
    }

    #[test]
    fn validation_errors() {
        assert!(matches!(
            FrameworkParams::builder(q()).participants(1).build(),
            Err(ParamError::TooFewParticipants(1))
        ));
        assert!(matches!(
            FrameworkParams::builder(q())
                .participants(5)
                .top_k(6)
                .build(),
            Err(ParamError::BadTopK { .. })
        ));
        assert!(matches!(
            FrameworkParams::builder(q()).attr_bits(0).build(),
            Err(ParamError::ZeroWidth("attribute"))
        ));
        assert!(matches!(
            FrameworkParams::builder(q())
                .attr_bits(60)
                .weight_bits(30)
                .build(),
            Err(ParamError::BitLengthTooLarge { .. })
        ));
        // h = 64 would overflow the u64 sampling of ρ before the bit-length
        // check could catch it; the dedicated variant rejects it first.
        assert!(matches!(
            FrameworkParams::builder(q()).mask_bits(64).build(),
            Err(ParamError::MaskTooWide { h: 64 })
        ));
        assert!(FrameworkParams::builder(q())
            .mask_bits(63)
            .attr_bits(1)
            .weight_bits(1)
            .build()
            .is_ok());
    }

    #[test]
    fn random_population_in_range() {
        let p = FrameworkParams::builder(q())
            .participants(6)
            .attr_bits(5)
            .weight_bits(3)
            .build()
            .unwrap();
        let mut rng = StdRng::seed_from_u64(1);
        let (profile, infos) = p.random_population(&mut rng);
        assert_eq!(infos.len(), 6);
        assert!(profile.weights.values().iter().all(|&w| w < 8));
        assert!(infos.iter().all(|i| i.values().iter().all(|&v| v < 32)));
    }

    #[test]
    fn builder_is_fluent_and_deterministic() {
        let p = FrameworkParams::builder(q())
            .participants(10)
            .top_k(4)
            .group(GroupKind::Dl1024)
            .seed(99)
            .build()
            .unwrap();
        assert_eq!(p.participants(), 10);
        assert_eq!(p.top_k(), 4);
        assert_eq!(p.group(), GroupKind::Dl1024);
        assert_eq!(p.seed(), 99);
    }
}
