//! Offline/online phase split — the deterministic precompute stock.
//!
//! The sorting protocol's online latency is dominated by exponentiations,
//! and almost none of them depend on anything another party *sends*: the
//! distributed key shares are party randomness (paper Sec. IV — the joint
//! ElGamal key is minted before any preference is encrypted), the proof of
//! key knowledge is honest-verifier (so its challenge shares are just more
//! party randomness), and every encryption/rerandomization mask `(g^r, y^r)`
//! follows from the key. What is irreducibly online is the variable-base
//! work on other parties' ciphertexts: partial decryptions `β^{-x}` and the
//! per-hop plaintext randomizers applied to foreign τ sets.
//!
//! [`OfflineStock`] is one session's worth of precomputed material, made of
//! one [`PartyStock`] per participant. Party `j`'s slice is drawn from
//! party `j`'s own offline stream — `HashDrbg::seed_from_u64(seed)` forked
//! `b"offline"`, then `b"party-j"` — so a party running alone on the mesh
//! draws exactly the scalars its slice of an in-process stock holds. Its
//! shape is a pure function of `(n, l)` — hop randomizers are drawn even
//! when a run disables randomization — so a stock can be generated ahead
//! of a session knowing only its parameters, not its options or inputs.
//! A stock comes in two tiers built from the **same scalar streams**:
//!
//! * **masks tier** ([`generate_masks_only`](OfflineStock::generate_masks_only)):
//!   key-independent work only — key-share seeds, Schnorr nonces and
//!   challenge shares, the fixed-base `g^r` half of every mask, hop
//!   scalars. Keygen, the joint-key table and the `y^r` halves stay online.
//! * **keygen tier** ([`generate`](OfflineStock::generate)): the masks tier
//!   plus minted [`KeyPair`]s, assembled key-knowledge proofs, the joint
//!   key's prepared comb table, the `y^r` half of every mask and the
//!   prepared hop scalars. Only an in-process driver, which holds every
//!   party's slice, can mint this tier.
//!
//! The tiers draw *identical* scalars at *identical* stream positions —
//! they differ only in how much exponentiation is done ahead of time — so
//! cold, masks-warm and keygen-warm sessions are bit-identical, transcript
//! and ranks alike.

use ppgr_bigint::Secret;
use ppgr_elgamal::{ExpElGamal, JointKey, KeyPair, MaskPair};
use ppgr_group::{Element, FixedBaseTable, Group, GroupKind, HopScalars, Scalar};
use ppgr_hash::HashDrbg;
use ppgr_zkp::{verify_multi_batch, MultiVerifierProof, MultiVerifierTranscript, SchnorrNonce};
use rand::{Rng, SeedableRng};
use std::fmt;

/// The draw-order layout this module currently mints (see
/// [`StockFingerprint::layout`]).
pub const STOCK_LAYOUT: u32 = 3;

/// The session shape a DRBG-generated stock was built for.
///
/// A session accepts an offered stock only if the fingerprint matches its
/// own parameters exactly.
#[derive(Clone, Copy, Debug, Eq, Hash, PartialEq)]
pub struct StockFingerprint {
    /// The session's master seed.
    pub seed: u64,
    /// Number of sorting parties `n`.
    pub participants: usize,
    /// The masked-gain bit length `l`.
    pub bits: usize,
    /// The group instantiation.
    pub group: GroupKind,
    /// The canonical draw-order version the stock follows. Sessions and
    /// pools built from the same crate always agree ([`STOCK_LAYOUT`]); the
    /// field exists so a persisted or cross-version stock whose scalar
    /// stream was laid out differently can never be mistaken for a match —
    /// attaching it would silently break the warm == cold bit-identity.
    pub layout: u32,
}

impl StockFingerprint {
    /// A fingerprint for the current draw-order layout.
    pub fn new(seed: u64, participants: usize, bits: usize, group: GroupKind) -> Self {
        StockFingerprint {
            seed,
            participants,
            bits,
            group,
            layout: STOCK_LAYOUT,
        }
    }
}

/// How much of a stock's exponentiation was done ahead of time.
#[derive(Clone, Copy, Debug, Eq, PartialEq)]
pub enum StockTier {
    /// Key-independent material only; keygen and `y^r` halves stay online.
    Masks,
    /// Keys, proofs, the joint-key table and every `y^r` half are minted.
    Keygen,
}

/// Party `j`'s offline stream for a session whose randomness derives
/// from `base`.
fn party_offline_stream(base: &HashDrbg, party: usize) -> HashDrbg {
    base.fork(b"offline")
        .fork(format!("party-{party}").as_bytes())
}

/// A party's key share: the drawn secret, or the exponentiated key pair.
pub(crate) enum KeyForm {
    Seed(Secret<Scalar>),
    Pair(KeyPair),
}

/// A party's proof of key knowledge: the nonce it answers online, or the
/// whole proof assembled offline from every verifier's stocked share.
pub(crate) enum ProofForm {
    Nonce(SchnorrNonce),
    Minted(MultiVerifierTranscript),
}

/// One hop's randomizers for a single foreign τ set.
///
/// Drawn as raw nonzero scalars; once the hop's key pair is known the set
/// is upgraded in place with the `−x·r` partial-decryption products and
/// the signed-digit recodings the hop ladder consumes, moving that scalar
/// arithmetic off the session clock. Both forms drive the exponentiation
/// to bit-identical outputs.
pub(crate) enum HopSet {
    /// Raw randomizers as drawn from the stream.
    Raw(Vec<Scalar>),
    /// Prepared form with precomputed `−x·r` and recodings.
    Prepared(Vec<HopScalars>),
}

impl HopSet {
    pub(crate) fn len(&self) -> usize {
        match self {
            HopSet::Raw(rs) => rs.len(),
            HopSet::Prepared(ps) => ps.len(),
        }
    }
}

/// One party's slice of a session's offline stock, consumed front to back
/// by that party's round code ([`crate::party`]). Every field holds
/// secret exponents; `{:?}` prints only the shape.
pub struct PartyStock {
    pub(crate) key: KeyForm,
    pub(crate) proof: Option<ProofForm>,
    /// Honest-verifier challenge shares, one per foreign prover (ascending).
    pub(crate) challenges: Vec<Scalar>,
    /// The `l` bit-encryption masks, least-significant bit first.
    pub(crate) enc: Vec<MaskPair>,
    /// One rerandomization mask per ciphertext of the party's τ set.
    pub(crate) compare: Vec<MaskPair>,
    /// Hop randomizers, one set per foreign owner (ascending).
    pub(crate) hops: Vec<HopSet>,
}

impl fmt::Debug for PartyStock {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("PartyStock")
            .field("minted", &matches!(self.key, KeyForm::Pair(_)))
            .field("enc", &self.enc.len())
            .field("compare", &self.compare.len())
            .field("hop_sets", &self.hops.len())
            .finish()
    }
}

impl PartyStock {
    /// Draws one party's slice: secret, nonce, `n − 1` challenge shares,
    /// `l` encryption masks, `(n−1)·l` compare masks, then `n − 1` hop sets
    /// of `(n−1)·l` nonzero randomizers. Any change here is a new
    /// [`STOCK_LAYOUT`].
    pub(crate) fn draw<R: Rng + ?Sized>(group: &Group, n: usize, l: usize, rng: &mut R) -> Self {
        let secret = Secret::new(group.random_nonzero_scalar(rng));
        let nonce = SchnorrNonce::draw(group, rng);
        let challenges = (0..n - 1).map(|_| group.random_scalar(rng)).collect();
        let enc = (0..l).map(|_| MaskPair::draw(group, rng)).collect();
        // A party's τ set is a deterministic homomorphic combination of
        // published bit encryptions, so it is re-randomized before it
        // joins the chain.
        let set_len = (n - 1) * l;
        let compare = (0..set_len).map(|_| MaskPair::draw(group, rng)).collect();
        let mut hops = Vec::with_capacity(n - 1);
        for _ in 0..n - 1 {
            // Nonzero: a zero multiplier would erase a plaintext, forging
            // a rank.
            hops.push(HopSet::Raw(
                (0..set_len)
                    .map(|_| group.random_nonzero_scalar(rng))
                    .collect(),
            ));
        }
        PartyStock {
            key: KeyForm::Seed(secret),
            proof: Some(ProofForm::Nonce(nonce)),
            challenges,
            enc,
            compare,
            hops,
        }
    }

    /// Draws party `party`'s slice of the stock for `fp` from its own
    /// offline stream — what a party running alone on the mesh holds. It
    /// stays at the masks tier: hop scalars prepared this early would sit
    /// in memory through the whole session, while the hop recodes them in
    /// bounded chunks at no extra exponentiation.
    pub(crate) fn generate_own(fp: &StockFingerprint, party: usize) -> Self {
        let group = fp.group.group();
        let mut rng = party_offline_stream(&HashDrbg::seed_from_u64(fp.seed), party);
        Self::draw(&group, fp.participants, fp.bits, &mut rng)
    }

    /// Exponentiates the key share and folds it into the hop sets (the
    /// `−x·r` products and recodings).
    fn mint_own(&mut self, group: &Group) {
        if let KeyForm::Seed(secret) = &self.key {
            self.key = KeyForm::Pair(KeyPair::from_secret(group, secret.expose().clone()));
        }
        if let KeyForm::Pair(pair) = &self.key {
            for set in &mut self.hops {
                if let HopSet::Raw(rs) = set {
                    *set = HopSet::Prepared(group.prepare_hop_scalars(pair.secret_key(), rs));
                }
            }
        }
    }

    fn public_key(&self) -> Option<&Element> {
        match &self.key {
            KeyForm::Pair(pair) => Some(pair.public_key()),
            KeyForm::Seed(_) => None,
        }
    }
}

/// One session's worth of precomputed randomness (see the module docs):
/// every participant's [`PartyStock`], plus — at the keygen tier — the
/// joint key's prepared comb table and the minting-time proof verdict.
pub struct OfflineStock {
    parties: Vec<PartyStock>,
    table: Option<FixedBaseTable>,
    /// Whether every verifier's batch check of the minted proofs ran at
    /// minting time and passed. The proofs are a pure function of offline
    /// material, so checking them is offline work too; a session consuming
    /// a verified stock skips the online verification round entirely. The
    /// field is private, so external material can never claim it without
    /// going through the minting path.
    verified: bool,
    fingerprint: Option<StockFingerprint>,
}

impl fmt::Debug for OfflineStock {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("OfflineStock")
            .field("parties", &self.parties)
            .field("tier", &self.tier())
            .field("verified", &self.verified)
            .field("fingerprint", &self.fingerprint)
            .finish()
    }
}

impl OfflineStock {
    /// Generates the keygen-tier stock a session with fingerprint `fp`
    /// expects: keys, proofs, joint-key table and every `(g^r, y^r)` pair
    /// fully minted, the proofs batch-verified.
    ///
    /// Draws every party's slice from that party's offline stream, so the
    /// result is identical to what the session itself would build cold.
    pub fn generate(fp: StockFingerprint) -> Self {
        Self::seeded(fp, StockTier::Keygen)
    }

    /// [`OfflineStock::generate`] stopped at the masks tier: the same
    /// scalar streams, but only the key-independent exponentiations (`g^r`
    /// halves, Schnorr commitments) are done. Keygen, the joint-key table
    /// and the `y^r` halves remain online work for the session.
    ///
    /// Exists so the bench harness can measure the two tiers against the
    /// same cold baseline; a session consuming this stock is bit-identical
    /// to one consuming the keygen tier.
    pub fn generate_masks_only(fp: StockFingerprint) -> Self {
        Self::seeded(fp, StockTier::Masks)
    }

    /// The stock for `fp`, drawn from the party streams of `fp`'s seed.
    fn seeded(fp: StockFingerprint, tier: StockTier) -> Self {
        let base = HashDrbg::seed_from_u64(fp.seed);
        let (kind, n, l) = (fp.group, fp.participants, fp.bits);
        OfflineStock {
            fingerprint: Some(fp),
            ..Self::build(&base, kind, n, l, tier, true)
        }
    }

    /// Draws an `n`-party, `l`-bit stock from the party streams of `base`
    /// and mints it up to `tier`, checking the minted proofs if
    /// `verify_at_mint`. It carries no fingerprint: `base` need not come
    /// from a `u64` seed.
    pub(crate) fn build(
        base: &HashDrbg,
        kind: GroupKind,
        n: usize,
        l: usize,
        tier: StockTier,
        verify_at_mint: bool,
    ) -> Self {
        let group = kind.group();
        let parties = (1..=n)
            .map(|party| PartyStock::draw(&group, n, l, &mut party_offline_stream(base, party)))
            .collect();
        let mut stock = OfflineStock {
            parties,
            table: None,
            verified: false,
            fingerprint: None,
        };
        if tier == StockTier::Keygen {
            stock.mint(&group, verify_at_mint);
        }
        stock
    }

    /// The keygen tier: every party's own minting, then what needs every
    /// slice at once — the joint key's table, the `y^r` mask halves and
    /// each prover's proof assembled from the other parties' stocked
    /// challenge shares. No further stream draws.
    fn mint(&mut self, group: &Group, verify_at_mint: bool) {
        let n = self.parties.len();
        for party in &mut self.parties {
            party.mint_own(group);
        }
        let keys: Vec<Element> = self
            .parties
            .iter()
            .filter_map(|p| p.public_key().cloned())
            .collect();
        let joint = JointKey::combine(group, &keys);
        let table = ExpElGamal::new(group.clone()).prepare_key(joint.public_key());
        // Prover p's challenge shares, in verifier order: verifier v keeps
        // one share per foreign prover, ascending, so p sits at p or p − 1.
        let challenges: Vec<Vec<Scalar>> = (0..n)
            .map(|p| {
                (0..n)
                    .filter(|&v| v != p)
                    .map(|v| self.parties[v].challenges[if p < v { p } else { p - 1 }].clone())
                    .collect()
            })
            .collect();
        for (party, chals) in self.parties.iter_mut().zip(challenges) {
            MaskPair::fill_key_halves(group, &table, &mut party.enc);
            MaskPair::fill_key_halves(group, &table, &mut party.compare);
            if let (KeyForm::Pair(pair), Some(ProofForm::Nonce(nonce))) =
                (&party.key, party.proof.take())
            {
                party.proof = Some(ProofForm::Minted(MultiVerifierProof::assemble(
                    group,
                    pair.secret_key(),
                    nonce,
                    chals,
                )));
            }
        }
        // The keygen round's proof check (paper Sec. IV) reads only
        // material minted above, so it is offline work: run it now and
        // record the verdict.
        // Honest minting always passes; the `false` arm keeps the online
        // verification (and its blame) alive as a defence in depth.
        self.verified = verify_at_mint && self.proofs_hold(group);
        self.table = Some(table);
    }

    /// Checks every minted proof against its key in one batch — the check
    /// the `n` verifiers make between them, since each checks the same
    /// `n − 1` foreign proofs against the same keys. Draws nothing.
    fn proofs_hold(&self, group: &Group) -> bool {
        let items: Option<Vec<(&Element, &MultiVerifierTranscript)>> = self
            .parties
            .iter()
            .map(|p| match (p.public_key(), &p.proof) {
                (Some(key), Some(ProofForm::Minted(t))) => Some((key, t)),
                _ => None,
            })
            .collect();
        items.is_some_and(|items| verify_multi_batch(group, &items).is_ok())
    }

    /// Invalidates `party`'s key-knowledge proof (0-based) in a minted
    /// (keygen-tier) stock by bumping its response scalar, and clears the
    /// stock's `verified` verdict so consumers re-check it.
    ///
    /// Test-harness hook: lets attribution tests feed a session a stock
    /// whose proof `party` must be rejected — by the online verification
    /// or by a deferred cross-session batch — without forging wire bytes.
    /// No-op on a masks-tier stock.
    #[doc(hidden)]
    pub fn corrupt_key_proof(&mut self, group: &Group, party: usize) {
        if let Some(Some(ProofForm::Minted(proof))) =
            self.parties.get_mut(party).map(|p| p.proof.as_mut())
        {
            ppgr_zkp::tamper::bump_multi_response(group, proof);
            self.verified = false;
        }
    }

    /// The fingerprint this stock was generated for.
    pub fn fingerprint(&self) -> Option<&StockFingerprint> {
        self.fingerprint.as_ref()
    }

    /// The tier the stock was minted at.
    pub fn tier(&self) -> StockTier {
        if self.table.is_some() {
            StockTier::Keygen
        } else {
            StockTier::Masks
        }
    }

    /// Splits the stock into the parties' slices, the joint-key table (keygen
    /// tier) and the minting-time verdict.
    pub(crate) fn into_parts(self) -> (Vec<PartyStock>, Option<FixedBaseTable>, bool) {
        (self.parties, self.table, self.verified)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn fp(seed: u64) -> StockFingerprint {
        StockFingerprint::new(seed, 3, 4, GroupKind::Ecc160)
    }

    /// Tier-independent view of a stock's hop randomizers.
    fn hop_rs(s: &OfflineStock) -> Vec<Vec<Scalar>> {
        s.parties
            .iter()
            .flat_map(|p| &p.hops)
            .map(|set| match set {
                HopSet::Raw(rs) => rs.clone(),
                HopSet::Prepared(ps) => ps.iter().map(|p| p.randomizer().clone()).collect(),
            })
            .collect()
    }

    fn g_rs(s: &OfflineStock) -> Vec<Element> {
        s.parties
            .iter()
            .flat_map(|p| p.enc.iter().chain(&p.compare))
            .map(|m| m.g_r().clone())
            .collect()
    }

    /// A slice's challenge, encryption-mask and compare-mask counts and
    /// its hop set sizes.
    fn shape(p: &PartyStock) -> (usize, usize, usize, Vec<usize>) {
        let hops = p.hops.iter().map(HopSet::len).collect();
        (p.challenges.len(), p.enc.len(), p.compare.len(), hops)
    }

    fn key_pair(p: &PartyStock) -> &KeyPair {
        match &p.key {
            KeyForm::Pair(pair) => pair,
            KeyForm::Seed(_) => panic!("keygen tier expected"),
        }
    }

    #[test]
    fn fingerprint_constructor_pins_the_current_layout() {
        assert_eq!(fp(1).layout, STOCK_LAYOUT);
        let mut stale = fp(1);
        stale.layout = STOCK_LAYOUT - 1;
        assert_ne!(stale, fp(1));
    }

    #[test]
    fn generated_stock_has_the_declared_shape() {
        // n = 3, l = 4: per party, n − 1 challenge shares, l encryption
        // masks, (n − 1)·l compare masks and n − 1 hop sets of (n − 1)·l.
        let stock = OfflineStock::generate(fp(7));
        assert_eq!(stock.parties.len(), 3);
        assert!(stock
            .parties
            .iter()
            .all(|p| shape(p) == (2, 4, 8, vec![8, 8])));
        assert_eq!(stock.fingerprint(), Some(&fp(7)));
        assert_eq!(stock.tier(), StockTier::Keygen);
        assert!(stock.verified);

        let masks = OfflineStock::generate_masks_only(fp(7));
        assert!(masks
            .parties
            .iter()
            .all(|p| shape(p) == (2, 4, 8, vec![8, 8])));
        assert_eq!(masks.tier(), StockTier::Masks);
    }

    #[test]
    fn generation_is_deterministic_per_fingerprint() {
        let a = OfflineStock::generate(fp(9));
        let b = OfflineStock::generate(fp(9));
        let c = OfflineStock::generate(fp(10));
        let table = |s: &OfflineStock| s.table.as_ref().map(|t| t.base().clone());
        assert_eq!(table(&a), table(&b));
        assert_ne!(table(&a), table(&c));
        assert_eq!(hop_rs(&a), hop_rs(&b));
        assert_ne!(hop_rs(&a), hop_rs(&c));
    }

    #[test]
    fn tiers_share_one_scalar_stream() {
        // The masks tier and the keygen tier must draw identical scalars at
        // identical stream positions — that is what makes cold, masks-warm
        // and keygen-warm sessions bit-identical.
        let full = OfflineStock::generate(fp(13));
        let masks = OfflineStock::generate_masks_only(fp(13));
        assert_eq!(hop_rs(&full), hop_rs(&masks));
        assert_eq!(g_rs(&full), g_rs(&masks));
        let hops = |s: &OfflineStock, prepared: bool| {
            s.parties
                .iter()
                .flat_map(|p| &p.hops)
                .all(|set| matches!(set, HopSet::Prepared(_)) == prepared)
        };
        assert!(hops(&full, true));
        assert!(hops(&masks, false));
        // Full tier carries every key half; masks tier carries none.
        let halves = |s: &OfflineStock| -> Vec<bool> {
            s.parties
                .iter()
                .flat_map(|p| p.enc.iter().chain(&p.compare))
                .map(MaskPair::has_key_half)
                .collect()
        };
        assert!(halves(&full).iter().all(|&h| h));
        assert!(!halves(&masks).iter().any(|&h| h));
        // The minted keys are exactly the masks tier's seeds, exponentiated,
        // and each minted proof answers the other parties' stocked shares.
        let group = GroupKind::Ecc160.group();
        for (p, (minted, seeds)) in full.parties.iter().zip(&masks.parties).enumerate() {
            let KeyForm::Seed(secret) = &seeds.key else {
                panic!("masks tier expected");
            };
            assert_eq!(
                key_pair(minted).public_key(),
                &group.exp_gen(secret.expose())
            );
            let (Some(ProofForm::Minted(proof)), Some(ProofForm::Nonce(nonce))) =
                (&minted.proof, &seeds.proof)
            else {
                panic!("tiers carry minted proofs and raw nonces");
            };
            assert_eq!(&proof.commitment, nonce.commitment());
            let expected: Vec<Scalar> = (0..3)
                .filter(|&v| v != p)
                .map(|v| seeds_share(&masks.parties[v], v, p))
                .collect();
            assert_eq!(proof.challenges, expected);
            assert!(proof.verify(&group, key_pair(minted).public_key()));
        }
    }

    /// Verifier `v`'s stocked share for prover `p` (0-based).
    fn seeds_share(stock: &PartyStock, v: usize, p: usize) -> Scalar {
        stock.challenges[if p < v { p } else { p - 1 }].clone()
    }

    #[test]
    fn a_party_draws_its_own_slice_alone() {
        // A party on the mesh generates only its slice, from its own
        // stream: it must hold the same scalars as that slice of the
        // session-wide stock.
        let group = GroupKind::Ecc160.group();
        let full = OfflineStock::generate(fp(17));
        for party in 1..=3 {
            let own = PartyStock::generate_own(&fp(17), party);
            let slice = &full.parties[party - 1];
            let KeyForm::Seed(secret) = &own.key else {
                panic!("a lone party's slice stays at the masks tier");
            };
            assert_eq!(
                &group.exp_gen(secret.expose()),
                key_pair(slice).public_key()
            );
            assert_eq!(own.challenges, slice.challenges);
            let g = |p: &PartyStock| -> Vec<Element> {
                p.enc
                    .iter()
                    .chain(&p.compare)
                    .map(|m| m.g_r().clone())
                    .collect()
            };
            assert_eq!(g(&own), g(slice));
            assert_eq!(shape(&own), shape(slice));
            assert!(!own.enc.iter().any(MaskPair::has_key_half));
        }
    }

    #[test]
    fn corrupting_a_minted_proof_clears_the_verdict() {
        let group = GroupKind::Ecc160.group();
        let mut stock = OfflineStock::generate(fp(19));
        assert!(stock.verified);
        stock.corrupt_key_proof(&group, 1);
        assert!(!stock.verified);
        let Some(ProofForm::Minted(proof)) = &stock.parties[1].proof else {
            panic!("keygen tier expected");
        };
        assert!(!proof.verify(&group, key_pair(&stock.parties[1]).public_key()));
    }

    #[test]
    fn the_mint_check_rejects_a_corrupted_proof() {
        let group = GroupKind::Ecc160.group();
        for party in 0..3 {
            let mut stock = OfflineStock::generate(fp(23));
            assert!(stock.proofs_hold(&group));
            stock.corrupt_key_proof(&group, party);
            assert!(
                !stock.proofs_hold(&group),
                "party {party}'s corrupted proof must fail the check"
            );
        }
    }
}
