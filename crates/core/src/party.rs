//! The per-party round code: each party's side of the protocol, written
//! once and run by two drivers.
//!
//! The protocol is a fixed schedule of [`Round`]s. In each round a party
//! ([`Node`]) sends — [`Node::send`] computes and returns its outbound
//! messages — and receives ([`Node::receive`] takes each inbound message).
//! A [`Party`] is one participant `P_j`: it holds its id, its key share,
//! its own slice of the offline stock ([`PartyStock`]) and its own DRBG
//! fork. The [`Initiator`] is `P₀`'s side: it serves the gain rounds and
//! checks the submissions.
//!
//! Two drivers walk the schedule:
//!
//! * in process, one machine behind [`SessionMachine`](crate::SessionMachine)
//!   and [`run_sort`](crate::sorting::run_sort) steps every party and hands
//!   each [`Msg`] across directly (with batch shortcuts that consume the
//!   same stream values: keygen-tier minting, verified-at-mint or deferred
//!   proof checks, parallel hop fan-out, pooled hop scratch);
//! * on the mesh, [`run_distributed`](crate::run_distributed) runs one
//!   party per thread and frames each [`Msg`] with [`crate::wire`], adding
//!   deadlines, structural checks, the share echo and abort frames.
//!
//! Party `j` draws only from its own streams: online from
//! `HashDrbg::seed_from_u64(seed).fork(b"party-j")` (`b"party-0"` for the
//! initiator; a stand-alone sort forks a DRBG seeded with 32 bytes of its
//! caller's RNG instead), offline from its stock slice. Both drivers therefore emit
//! byte-identical messages and break gain ties the same way.

use crate::attrs::{InfoVector, InitiatorProfile};
use crate::circuit::compare_encrypted;
use crate::distributed::DistributedError;
use crate::gain::to_unsigned;
use crate::offline::{HopSet, KeyForm, PartyStock, ProofForm};
use crate::params::FrameworkParams;
use crate::sorting::SortOptions;
use crate::submit::{verify_submissions, Submission, VerificationReport};
use crate::timing::PartyTimer;
use crate::wire::{Reader, WireError, Writer};
use bytes::Bytes;
use ppgr_bigint::{BigUint, Fp, FpCtx};
use ppgr_dotprod::{default_field, DotProduct, Round1Message, Round2Message, SenderState};
use ppgr_elgamal::{encrypt_bits_with_precomputed, Ciphertext, ExpElGamal, JointKey, KeyPair};
use ppgr_group::{Element, FixedBaseTable, Group, Scalar};
use ppgr_hash::HashDrbg;
use ppgr_net::{Phase, TrafficLog};
use ppgr_zkp::{verify_multi_batch, MultiVerifierProof, MultiVerifierTranscript};
use rand::seq::SliceRandom;
use rand::{Rng, SeedableRng};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Mutex, PoisonError};
// tidy:allow(determinism) — wall-clock used for timing accounting only, never protocol state
use std::time::{Duration, Instant};

/// One step of the protocol's schedule ([`Round::schedule`]).
#[derive(Clone, Copy, Debug, Eq, PartialEq)]
pub enum Round {
    /// Phase 1: `P_j` sends its dot-product request to `P₀`.
    GainRequest(usize),
    /// Phase 1: `P₀` answers `P_j`.
    GainReply(usize),
    /// Step 5: every participant broadcasts its key share `y_j`.
    KeyShares,
    /// Step 5: prover `p` broadcasts its Schnorr commitment.
    Commit(usize),
    /// Step 5: every other participant broadcasts its challenge share for
    /// prover `p`.
    Challenge(usize),
    /// Step 5: prover `p` broadcasts its response to the summed challenge.
    Respond(usize),
    /// Step 5, local: every participant checks the others' proofs.
    Verify,
    /// Step 6: every participant broadcasts its encrypted bits.
    Bits,
    /// Step 7, local: every participant builds its τ set.
    Compare,
    /// Step 8: every participant but `P₁` sends its τ set to `P₁`.
    Collect,
    /// Step 8: `P_i` hops and forwards `V` to `P_{i+1}`; `P_n` returns
    /// every set to its owner instead.
    Hop(usize),
    /// Step 9, local: every participant counts the zeros in its set.
    Finish,
    /// Phase 3: every participant submits or declines to `P₀`.
    Submit,
}

impl Round {
    /// Every round of an `n`-participant session, in order.
    pub fn schedule(n: usize) -> Vec<Round> {
        let mut s: Vec<Round> = (1..=n)
            .flat_map(|j| [Round::GainRequest(j), Round::GainReply(j)])
            .collect();
        s.push(Round::KeyShares);
        s.extend((1..=n).flat_map(|p| [Round::Commit(p), Round::Challenge(p), Round::Respond(p)]));
        s.extend([Round::Verify, Round::Bits, Round::Compare, Round::Collect]);
        s.extend((1..=n).map(Round::Hop));
        s.extend([Round::Finish, Round::Submit]);
        s
    }

    /// The phase the round runs in (deadlines, blame, fault scripts).
    pub fn phase(self) -> Phase {
        match self {
            Round::GainRequest(_) | Round::GainReply(_) => Phase::Gain,
            Round::KeyShares
            | Round::Commit(_)
            | Round::Challenge(_)
            | Round::Respond(_)
            | Round::Verify => Phase::KeyGen,
            Round::Bits => Phase::Encrypt,
            Round::Compare => Phase::Compare,
            Round::Collect | Round::Hop(_) | Round::Finish => Phase::Hop,
            Round::Submit => Phase::Submit,
        }
    }

    /// Whether party `me` (0 = the initiator) sends or computes in this
    /// round.
    pub fn acts(self, me: usize, n: usize) -> bool {
        match self {
            Round::GainRequest(j) | Round::Commit(j) | Round::Respond(j) | Round::Hop(j) => me == j,
            Round::GainReply(_) => me == 0,
            Round::Challenge(p) => me != 0 && me != p,
            _ => me != 0 && me <= n,
        }
    }

    /// The parties that send to `me` in this round, in receive order.
    pub fn senders_to(self, me: usize, n: usize) -> Vec<usize> {
        let all = |skip: usize| (1..=n).filter(move |&j| j != me && j != skip).collect();
        match self {
            Round::GainRequest(j) if me == 0 => vec![j],
            Round::GainReply(j) if me == j => vec![0],
            Round::KeyShares | Round::Bits if me != 0 => all(0),
            Round::Commit(p) | Round::Respond(p) if me != 0 && me != p => vec![p],
            Round::Challenge(p) if me != 0 => all(p),
            Round::Collect if me == 1 => (2..=n).collect(),
            Round::Hop(i) if i < n && me == i + 1 => vec![i],
            Round::Hop(i) if i == n && me != 0 && me < n => vec![n],
            Round::Submit if me == 0 => (1..=n).collect(),
            _ => Vec::new(),
        }
    }
}

/// What messages need to encode and decode themselves: the session's group
/// and the dot-product field.
#[derive(Clone, Debug)]
pub struct Codec {
    pub(crate) group: Group,
    pub(crate) field: Arc<FpCtx>,
}

impl Codec {
    /// A codec for sessions over `group`.
    pub fn new(group: Group) -> Self {
        Codec {
            group,
            field: default_field(),
        }
    }
}

/// A protocol message. Which one a frame carries follows from its round,
/// so frames carry no message tag.
#[derive(Clone, Debug)]
pub enum Msg {
    /// [`Round::GainRequest`]: the dot-product sender's first message.
    GainRequest(Round1Message),
    /// [`Round::GainReply`]: the receiver's answer.
    GainReply(Round2Message),
    /// A key share `y_j` or a Schnorr commitment.
    Element(Element),
    /// A challenge share or a Schnorr response.
    Scalar(Scalar),
    /// Encrypted bits, or one owner's τ set.
    Set(Vec<Ciphertext>),
    /// The chain vector `V`, one τ set per owner.
    Chain(Vec<Vec<Ciphertext>>),
    /// A claimed rank with the information vector, or a decline.
    Submit(Option<(usize, Vec<u64>)>),
}

impl Msg {
    /// The message as a data frame ([`crate::wire`]).
    ///
    /// # Errors
    ///
    /// A length that does not fit its `u32` prefix.
    pub fn encode(&self, c: &Codec) -> Result<Bytes, WireError> {
        let mut w = Writer::framed();
        match self {
            Msg::GainRequest(m) => {
                w.put_len(m.qx.len())?;
                for row in &m.qx {
                    w.put_fp_vec(row)?;
                }
                w.put_fp_vec(&m.c_prime)?;
                w.put_fp_vec(&m.g)?;
            }
            Msg::GainReply(m) => {
                w.put_fp(&m.a);
                w.put_fp(&m.h);
            }
            Msg::Element(e) => w.put_element(&c.group, e),
            Msg::Scalar(s) => w.put_scalar(&c.group, s),
            Msg::Set(set) => w.put_ciphertexts(&c.group, set)?,
            Msg::Chain(sets) => {
                w.put_len(sets.len())?;
                for set in sets {
                    w.put_ciphertexts(&c.group, set)?;
                }
            }
            Msg::Submit(Some((rank, values))) => {
                w.put_u64(*rank as u64);
                w.put_len(values.len())?;
                for &v in values {
                    w.put_u64(v);
                }
            }
            Msg::Submit(None) => w.put_u64(0),
        }
        Ok(w.finish())
    }

    /// Decodes the payload of a data frame received in `round` of an
    /// `n`-participant session, rejecting trailing bytes.
    ///
    /// # Errors
    ///
    /// Bytes that do not parse as that round's message.
    pub fn decode(round: Round, n: usize, c: &Codec, payload: Bytes) -> Result<Msg, WireError> {
        let mut r = Reader::new(payload);
        let msg = match round {
            Round::GainRequest(_) => {
                let rows = r.len()?;
                let qx = (0..rows)
                    .map(|_| r.fp_vec(&c.field))
                    .collect::<Result<_, _>>()?;
                let (c_prime, g) = (r.fp_vec(&c.field)?, r.fp_vec(&c.field)?);
                Msg::GainRequest(Round1Message { qx, c_prime, g })
            }
            Round::GainReply(_) => Msg::GainReply(Round2Message {
                a: r.fp(&c.field)?,
                h: r.fp(&c.field)?,
            }),
            Round::KeyShares | Round::Commit(_) => Msg::Element(r.element(&c.group)?),
            Round::Challenge(_) | Round::Respond(_) => Msg::Scalar(r.scalar(&c.group)?),
            Round::Hop(i) if i < n => {
                let count = r.len()?;
                Msg::Chain(
                    (0..count)
                        .map(|_| r.ciphertexts(&c.group))
                        .collect::<Result<_, _>>()?,
                )
            }
            Round::Submit => match r.u64()? as usize {
                0 => Msg::Submit(None),
                rank => {
                    let count = r.len()?;
                    let values = (0..count).map(|_| r.u64()).collect::<Result<_, _>>()?;
                    Msg::Submit(Some((rank, values)))
                }
            },
            _ => Msg::Set(r.ciphertexts(&c.group)?),
        };
        r.done()?;
        Ok(msg)
    }
}

/// A party's outbound messages for one round: each with its receivers
/// (several for a broadcast).
pub type Outbox = Vec<(Vec<usize>, Msg)>;

/// One party's side of the schedule, as both drivers see it.
pub trait Node {
    /// Runs this party's part of `round`: computes, and returns what it
    /// sends. Computation is charged to `timer`; `scratch` is a reusable
    /// hop output buffer.
    ///
    /// # Errors
    ///
    /// A failed check ([`DistributedError::ProofRejected`]) or a broken
    /// invariant of this party's own state, blamed on itself.
    fn send(
        &mut self,
        round: Round,
        timer: &mut PartyTimer,
        scratch: &mut Vec<Ciphertext>,
    ) -> Result<Outbox, DistributedError>;

    /// Takes one inbound message of `round` from `from`.
    ///
    /// # Errors
    ///
    /// A message that does not belong in `round`, or fails the round's
    /// checks, blamed on `from`.
    fn receive(
        &mut self,
        round: Round,
        from: usize,
        msg: Msg,
        timer: &mut PartyTimer,
    ) -> Result<(), DistributedError>;
}

/// A shared record of every protocol message of a session as an encoded
/// frame, per sender (index = sender id, 0 = the initiator) in send order,
/// each with its receiver; broadcasts appear once per receiver. Both
/// drivers record at the one place they take a party's outbox ([`emit`]),
/// so two runs of a session compare byte for byte. The mesh's share echoes
/// and abort frames are not [`Msg`]s and are not recorded.
#[derive(Clone, Debug, Default)]
pub struct Transcript(Arc<Mutex<Frames>>);

/// Encoded frames per sender, each with its receiver (see [`Transcript`]).
pub type Frames = Vec<Vec<(usize, Bytes)>>;

impl Transcript {
    /// The frames recorded so far, per sender.
    pub fn frames(&self) -> Frames {
        self.0
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
            .clone()
    }
}

/// Runs party `from`'s part of `round` on `node` and returns its outbox —
/// the step both drivers share — recording each message in `tap`, if any.
///
/// # Errors
///
/// As [`Node::send`]; an unencodable message blames `from`.
pub(crate) fn emit(
    node: &mut dyn Node,
    from: usize,
    round: Round,
    timer: &mut PartyTimer,
    scratch: &mut Vec<Ciphertext>,
    tap: Option<(&Codec, &Transcript)>,
) -> Result<Outbox, DistributedError> {
    let outbox = node.send(round, timer, scratch)?;
    if let Some((codec, Transcript(frames))) = tap {
        let mut frames = frames.lock().unwrap_or_else(PoisonError::into_inner);
        let len = frames.len().max(from + 1);
        frames.resize_with(len, Vec::new);
        for (to, msg) in &outbox {
            let frame = msg
                .encode(codec)
                .map_err(|e| violation(from, e.to_string()))?;
            frames[from].extend(to.iter().map(|&j| (j, frame.clone())));
        }
    }
    Ok(outbox)
}

/// Outputs per batched hop call over raw randomizers (see [`Party::hop`]).
const HOP_CHUNK: usize = 16;

/// The online stream of party `party` in a session whose randomness
/// derives from `base`.
pub(crate) fn party_stream(base: &HashDrbg, party: usize) -> HashDrbg {
    base.fork(format!("party-{party}").as_bytes())
}

/// Resolves [`SortOptions::threads`] to a concrete worker count.
fn resolve_threads(threads: usize) -> usize {
    if threads == 0 {
        std::thread::available_parallelism()
            .map(|n| n.get())
            .unwrap_or(1)
    } else {
        threads
    }
}

/// A protocol violation blamed on `party`.
fn violation(party: usize, what: impl Into<String>) -> DistributedError {
    DistributedError::Protocol {
        party,
        what: what.into(),
    }
}

/// One participant `P_j`'s protocol state (see the module docs).
pub struct Party {
    id: usize,
    n: usize,
    l: usize,
    scheme: ExpElGamal,
    options: SortOptions,
    workers: usize,
    rng: HashDrbg,
    info: Option<(Arc<FpCtx>, InfoVector, FrameworkParams)>,
    stock: Option<PartyStock>,
    key: Option<KeyPair>,
    table: Option<FixedBaseTable>,
    gain: Option<SenderState>,
    /// `β_j`, the masked gain this party sorts by.
    pub(crate) value: BigUint,
    /// `ρ·p_j + ρ_j`, once the gain rounds ran.
    pub(crate) masked: i128,
    /// Published key shares, `keys[j − 1]` for party `j`.
    pub(crate) keys: Vec<Element>,
    /// The current prover's commitment and the challenge shares heard so
    /// far, `(verifier, share)`.
    commitment: Option<Element>,
    shares: Vec<(usize, Scalar)>,
    /// Every prover's proof of key knowledge (own included), prover order.
    pub(crate) proofs: Vec<Option<MultiVerifierTranscript>>,
    bits: Vec<Vec<Ciphertext>>,
    /// `V` while this party holds it.
    sets: Vec<Vec<Ciphertext>>,
    /// This party's τ set: its comparison output, later the set returned
    /// to it at the end of the chain.
    pub(crate) own: Vec<Ciphertext>,
    /// The rank counted at [`Round::Finish`].
    pub(crate) rank: usize,
}

impl std::fmt::Debug for Party {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Party")
            .field("id", &self.id)
            .field("n", &self.n)
            .field("l", &self.l)
            .field("stock", &self.stock)
            .finish()
    }
}

impl Party {
    /// Party `id` of `n` sorting `l`-bit values in `group`, drawing online
    /// randomness from `rng`. Its stock slice arrives through
    /// [`Party::attach_stock`].
    pub fn new(
        group: &Group,
        id: usize,
        n: usize,
        l: usize,
        options: SortOptions,
        rng: HashDrbg,
    ) -> Self {
        Party {
            id,
            n,
            l,
            scheme: ExpElGamal::new(group.clone()),
            options,
            workers: resolve_threads(options.threads),
            rng,
            info: None,
            stock: None,
            key: None,
            table: None,
            gain: None,
            value: BigUint::zero(),
            masked: 0,
            keys: vec![group.identity(); n],
            commitment: None,
            shares: Vec::new(),
            proofs: vec![None; n],
            bits: vec![Vec::new(); n],
            sets: vec![Vec::new(); n],
            own: Vec::new(),
            rank: 0,
        }
    }

    /// A participant of the framework session `params`, holding
    /// information vector `info`: it draws from the session seed's
    /// `party-id` stream and takes part in the gain and submit rounds.
    pub fn for_session(
        params: &FrameworkParams,
        field: &Arc<FpCtx>,
        id: usize,
        info: InfoVector,
        options: SortOptions,
    ) -> Self {
        let (group, n) = (params.group().group(), params.participants());
        let rng = party_stream(&HashDrbg::seed_from_u64(params.seed()), id);
        let mut party = Party::new(&group, id, n, params.beta_bits(), options, rng);
        party.info = Some((field.clone(), info, params.clone()));
        party
    }

    /// Hands the party its offline stock slice and, for a keygen-tier
    /// stock, the joint key's prepared table.
    pub fn attach_stock(&mut self, stock: PartyStock, table: Option<FixedBaseTable>) {
        self.stock = Some(stock);
        self.table = table;
    }

    /// The information vector of a session participant.
    pub(crate) fn info(&self) -> Option<&InfoVector> {
        self.info.as_ref().map(|(_, info, _)| info)
    }

    /// This party's id (`1..=n`).
    pub fn id(&self) -> usize {
        self.id
    }

    /// The party's key pair, once it has published its key share.
    pub fn key_pair(&self) -> Option<&KeyPair> {
        self.key.as_ref()
    }

    fn group(&self) -> &Group {
        self.scheme.group()
    }

    fn stock(&mut self) -> Result<&mut PartyStock, DistributedError> {
        let id = self.id;
        self.stock
            .as_mut()
            .ok_or_else(|| violation(id, "no offline stock attached"))
    }

    /// Every other participant: a broadcast's receivers.
    fn others(&self) -> Vec<usize> {
        (1..=self.n).filter(|&j| j != self.id).collect()
    }

    /// Phase 1: the dot-product sender's first move over
    /// `w′_j = [vg_j, ve_j∗ve_j, ve_j]`.
    fn gain_request(&mut self) -> Result<Round1Message, DistributedError> {
        let (field, info, params) = self
            .info
            .as_ref()
            .ok_or_else(|| violation(self.id, "no information vector"))?;
        let q = params.questionnaire();
        let (m, t, vj) = (q.dimension(), q.equal_to_count(), info.values());
        let mut w = Vec::with_capacity(m + t);
        w.extend(vj[t..m].iter().map(|&v| field.from_i128(v as i128)));
        w.extend(
            vj[..t]
                .iter()
                .map(|&v| field.from_i128(v as i128 * v as i128)),
        );
        w.extend(vj[..t].iter().map(|&v| field.from_i128(v as i128)));
        let (state, msg) = DotProduct::new(field.clone()).sender_round1(&w, &mut self.rng);
        self.gain = Some(state);
        Ok(msg)
    }

    /// Phase 1: finishes the dot product, setting `β_j` to the unsigned
    /// `l`-bit form of `ρ·p_j + ρ_j`.
    fn gain_finish(&mut self, reply: &Round2Message) -> Result<(), DistributedError> {
        let bound = 1i128 << (self.l - 1);
        self.masked = self
            .gain
            .take()
            .and_then(|state| state.finish(reply).to_i128_centered())
            .filter(|v| (-bound..bound).contains(v))
            .ok_or_else(|| violation(self.id, "masked gain out of range"))?;
        self.value = to_unsigned(self.masked, self.l);
        Ok(())
    }

    /// Step 5: `y_j`, minting the key pair from the stocked secret if the
    /// stock did not.
    fn key_share(&mut self) -> Result<Element, DistributedError> {
        let group = self.group().clone();
        let stock = self.stock()?;
        if let KeyForm::Seed(secret) = &stock.key {
            stock.key = KeyForm::Pair(KeyPair::from_secret(&group, secret.expose().clone()));
        }
        let KeyForm::Pair(pair) = &stock.key else {
            return Err(violation(self.id, "key share not minted"));
        };
        let pair = pair.clone();
        self.keys[self.id - 1] = pair.public_key().clone();
        self.key = Some(pair);
        Ok(self.keys[self.id - 1].clone())
    }

    /// Step 5, as prover: the commitment of this party's proof.
    fn commit(&mut self) -> Result<Element, DistributedError> {
        let id = self.id;
        match &self.stock()?.proof {
            Some(ProofForm::Nonce(nonce)) => Ok(nonce.commitment().clone()),
            Some(ProofForm::Minted(proof)) => Ok(proof.commitment.clone()),
            None => Err(violation(id, "proof already answered")),
        }
    }

    /// Step 5, as verifier: this party's stocked challenge share for
    /// `prover` (one per foreign prover, ascending).
    fn challenge(&mut self, prover: usize) -> Result<Scalar, DistributedError> {
        let (id, slot) = (self.id, prover - 1 - usize::from(prover > self.id));
        let share = self.stock()?.challenges.get(slot).cloned();
        let share = share.ok_or_else(|| violation(id, "no challenge share for this prover"))?;
        self.shares.push((id, share.clone()));
        Ok(share)
    }

    /// The challenge shares heard for the current prover, verifier order.
    fn take_shares(&mut self) -> Vec<Scalar> {
        let mut shares = std::mem::take(&mut self.shares);
        shares.sort_by_key(|&(v, _)| v);
        shares.into_iter().map(|(_, s)| s).collect()
    }

    /// Step 5, as prover: `z = r + x·Σc` over the verifiers' shares. A
    /// minted proof answers only the shares it was minted for.
    fn respond(&mut self) -> Result<Scalar, DistributedError> {
        let (id, group, shares) = (self.id, self.group().clone(), self.take_shares());
        let commitment = self.commit()?;
        let key = self.key.clone();
        let response = match (self.stock()?.proof.take(), key) {
            (Some(ProofForm::Nonce(nonce)), Some(pair)) => {
                MultiVerifierProof::assemble(&group, pair.secret_key(), nonce, shares.clone())
                    .response
            }
            (Some(ProofForm::Minted(proof)), _) if proof.challenges == shares => proof.response,
            _ => return Err(violation(id, "no proof material for these challenges")),
        };
        self.proofs[id - 1] = Some(MultiVerifierTranscript {
            commitment,
            challenges: shares,
            response: response.clone(),
        });
        Ok(response)
    }

    /// Step 5: checks every other prover's proof against its published key
    /// share in one aggregate multi-exponentiation; on rejection the
    /// fallback scan names the first failing prover in prover order.
    fn verify(&self) -> Result<(), DistributedError> {
        let foreign: Vec<(usize, &MultiVerifierTranscript)> = self
            .proofs
            .iter()
            .enumerate()
            .filter(|&(p, _)| p + 1 != self.id)
            .map(|(p, t)| t.as_ref().map(|t| (p + 1, t)))
            .collect::<Option<_>>()
            .ok_or_else(|| violation(self.id, "a proof is missing"))?;
        let items: Vec<(&Element, &MultiVerifierTranscript)> = foreign
            .iter()
            .map(|&(p, t)| (&self.keys[p - 1], t))
            .collect();
        verify_multi_batch(self.group(), &items).map_err(|i| DistributedError::ProofRejected {
            party: foreign[i].0,
        })
    }

    /// The joint key's prepared table, deriving it from the published key
    /// shares unless the stock carried it. Uncached: the joint key is one
    /// session's, so a shared table would only churn the group's LRU.
    pub(crate) fn key_table(&mut self) -> &FixedBaseTable {
        let (group, keys) = (self.scheme.group(), &self.keys);
        self.table.get_or_insert_with(|| {
            group.prepare_base_uncached(JointKey::combine(group, keys).public_key())
        })
    }

    /// Installs the table another party of the same session derived
    /// (in-process drivers derive it once).
    pub(crate) fn share_key_table(&mut self, table: &FixedBaseTable) {
        self.table.get_or_insert_with(|| table.clone());
    }

    /// Step 6: `β_j` encrypted bit by bit under the joint key with the
    /// stocked masks.
    fn encrypt(&mut self) -> Result<Vec<Ciphertext>, DistributedError> {
        let row = std::mem::take(&mut self.stock()?.enc);
        if row.len() != self.l {
            return Err(violation(self.id, "offline encryption stock exhausted"));
        }
        self.key_table();
        let table = self
            .table
            .as_ref()
            .ok_or_else(|| violation(self.id, "no joint key"))?;
        let bits = encrypt_bits_with_precomputed(&self.scheme, table, &self.value, self.l, row);
        self.bits[self.id - 1] = bits.clone();
        Ok(bits)
    }

    /// Step 7: compares `β_j` against every opponent's published bits,
    /// concatenated in ascending opponent order. The comparisons consume
    /// no randomness, so they may fan out across worker threads.
    ///
    /// Before the set leaves this party it re-randomizes every ciphertext
    /// with a stocked `(g^s, y^s)` pair. The raw τ set is a
    /// *deterministic* homomorphic combination of the published bit
    /// encryptions, keyed only by the `l`-bit plaintext — anyone who sees
    /// it before its first chain randomization (`P₁` on collection, the
    /// next hop for `P₁`'s own set) could confirm a guess of the value by
    /// recomputing the combination. Re-randomization makes the set's bytes
    /// independent of everything published; the plaintexts (and so the
    /// ranks) are untouched.
    fn compare(&mut self, timer: &mut PartyTimer) -> Result<(), DistributedError> {
        let id = self.id;
        let opponents: Vec<&Vec<Ciphertext>> = (1..=self.n)
            .filter(|&j| j != id)
            .map(|j| &self.bits[j - 1])
            .collect();
        // tidy:allow(determinism) — wall-clock used for timing accounting only, never protocol state
        let start = Instant::now();
        let (chunks, cpu) = parallel_map(&opponents, self.workers, |opp| {
            compare_encrypted(&self.scheme, &self.value, opp, self.l)
        });
        timer.record(id, start.elapsed(), cpu);
        let raw: Vec<Ciphertext> = chunks.into_iter().flatten().collect();
        let row = std::mem::take(&mut self.stock()?.compare);
        if row.len() != raw.len() {
            return Err(violation(id, "offline compare stock exhausted"));
        }
        // The joint key's table serves its last use here.
        let table = self
            .table
            .take()
            .ok_or_else(|| violation(id, "no joint key"))?;
        self.own = timer.time(id, || {
            self.scheme
                .rerandomize_batch_with_precomputed(&table, &raw, row)
        });
        self.bits = Vec::new();
        Ok(())
    }

    /// Step 8: this party's hop of the shuffle-decrypt chain over `V`.
    /// Every foreign set is partially decrypted with this party's share,
    /// each plaintext multiplied by a stocked nonzero randomizer (zero is a
    /// fixed point), and the set shuffled by a permutation drawn from this
    /// party's stream — fused into batched passes that write straight into
    /// shuffled order (~1.7 exponentiations per ciphertext instead of 3).
    /// Permutations are drawn serially in owner order, so the output is
    /// identical for any worker count; `scratch` is the serial path's
    /// reusable output buffer.
    fn hop(
        &mut self,
        scratch: &mut Vec<Ciphertext>,
        timer: &mut PartyTimer,
    ) -> Result<(), DistributedError> {
        let (id, options) = (self.id, self.options);
        // tidy:allow(determinism) — wall-clock used for timing accounting only, never protocol state
        let start = Instant::now();
        let mut stocked = std::mem::take(&mut self.stock()?.hops).into_iter();
        // (owner, randomizers, shuffle permutation) per foreign set. The
        // stock always holds a randomizer set per foreign owner — its shape
        // is options-independent — so a non-randomizing run leaves them
        // unconsumed.
        let mut jobs: Vec<(usize, HopSet, Option<Vec<usize>>)> = Vec::with_capacity(self.n - 1);
        for (owner, set) in self.sets.iter().enumerate().filter(|&(o, _)| o + 1 != id) {
            let rs = stocked
                .next()
                .filter(|rs| rs.len() == set.len())
                .ok_or_else(|| violation(id, "offline hop stock exhausted"))?;
            // A permutation shuffled with the same draws an in-place
            // `shuffle` would consume, fused into result placement.
            let perm = options.shuffle.then(|| {
                let mut p: Vec<usize> = (0..set.len()).collect();
                p.shuffle(&mut self.rng);
                p
            });
            jobs.push((owner, rs, perm));
        }
        let draw_cpu = start.elapsed();
        let pair = self.key.as_ref().ok_or_else(|| violation(id, "no key"))?;
        let (secret, scheme, sets) = (pair.secret_key(), &self.scheme, &mut self.sets);
        let run = |set: &[Ciphertext],
                   hop: &HopSet,
                   perm: Option<&[usize]>,
                   out: &mut Vec<Ciphertext>| match hop {
            _ if !options.randomize => scheme.partial_decrypt_gather_into(set, secret, perm, out),
            HopSet::Prepared(prep) => {
                scheme.partial_decrypt_randomize_prepared_gather_into(set, prep, perm, out)
            }
            // Raw randomizers are recoded inside the batch call, so they
            // run in chunks of `HOP_CHUNK` outputs: every ciphertext is
            // independent, so chunking changes no output, and it bounds
            // the call's transient recodings and per-base tables — what a
            // mesh party thread's memory peaks on.
            HopSet::Raw(rs) => {
                let order: Vec<usize> =
                    perm.map_or_else(|| (0..set.len()).collect(), <[_]>::to_vec);
                let mut part = Vec::new();
                out.clear();
                for chunk in order.chunks(HOP_CHUNK) {
                    scheme.partial_decrypt_randomize_gather_into(
                        set,
                        secret,
                        rs,
                        Some(chunk),
                        &mut part,
                    );
                    out.append(&mut part);
                }
            }
        };
        if self.workers == 1 {
            for (owner, hop, perm) in &jobs {
                run(&sets[*owner], hop, perm.as_deref(), scratch);
                std::mem::swap(&mut sets[*owner], scratch);
            }
            let elapsed = start.elapsed();
            timer.record(id, elapsed, elapsed);
        } else {
            let (processed, cpu) = parallel_map(&jobs, self.workers, |(owner, hop, perm)| {
                let mut out = Vec::with_capacity(sets[*owner].len());
                run(&sets[*owner], hop, perm.as_deref(), &mut out);
                out
            });
            for ((owner, _, _), hopped) in jobs.iter().zip(processed) {
                sets[*owner] = hopped;
            }
            timer.record(id, start.elapsed(), draw_cpu + cpu);
        }
        Ok(())
    }

    /// Step 9: strips this party's layer from its returned set with one
    /// gathered partial decryption and counts the zeros: `rank = zeros + 1`.
    fn finish(&mut self, scratch: &mut Vec<Ciphertext>) -> Result<usize, DistributedError> {
        let pair = self
            .key
            .as_ref()
            .ok_or_else(|| violation(self.id, "no key"))?;
        self.scheme
            .partial_decrypt_gather_into(&self.own, pair.secret_key(), None, scratch);
        let group = self.group();
        Ok(scratch
            .iter()
            .filter(|ct| group.is_identity(&ct.alpha))
            .count()
            + 1)
    }
}

impl Node for Party {
    fn send(
        &mut self,
        round: Round,
        timer: &mut PartyTimer,
        scratch: &mut Vec<Ciphertext>,
    ) -> Result<Outbox, DistributedError> {
        let id = self.id;
        let others = self.others();
        let to_all =
            move |msg: Msg| -> Result<Outbox, DistributedError> { Ok(vec![(others, msg)]) };
        match round {
            Round::GainRequest(j) if j == id => {
                let msg = timer.time(id, || self.gain_request())?;
                Ok(vec![(vec![0], Msg::GainRequest(msg))])
            }
            Round::KeyShares => to_all(Msg::Element(timer.time(id, || self.key_share())?)),
            Round::Commit(p) if p == id => to_all(Msg::Element(self.commit()?)),
            Round::Challenge(p) if p != id => to_all(Msg::Scalar(self.challenge(p)?)),
            Round::Respond(p) if p == id => to_all(Msg::Scalar(self.respond()?)),
            Round::Verify => timer.time(id, || self.verify()).map(|()| Vec::new()),
            Round::Bits => to_all(Msg::Set(timer.time(id, || self.encrypt())?)),
            Round::Compare => self.compare(timer).map(|()| Vec::new()),
            // P₁ starts V with its own set; everyone else hands theirs over.
            Round::Collect if id == 1 => {
                self.sets[0] = std::mem::take(&mut self.own);
                Ok(Vec::new())
            }
            Round::Collect => Ok(vec![(vec![1], Msg::Set(std::mem::take(&mut self.own)))]),
            Round::Hop(i) if i == id => {
                self.hop(scratch, timer)?;
                let mut sets = std::mem::take(&mut self.sets);
                if id < self.n {
                    return Ok(vec![(vec![id + 1], Msg::Chain(sets))]);
                }
                // P_n keeps its own set and returns every other to its owner.
                self.own = sets.pop().unwrap_or_default();
                Ok(sets
                    .into_iter()
                    .enumerate()
                    .map(|(o, set)| (vec![o + 1], Msg::Set(set)))
                    .collect())
            }
            Round::Finish => {
                self.rank = timer.time(id, || self.finish(scratch))?;
                Ok(Vec::new())
            }
            Round::Submit => {
                let (_, info, params) = self
                    .info
                    .as_ref()
                    .ok_or_else(|| violation(id, "no information vector"))?;
                let claim =
                    (self.rank <= params.top_k()).then(|| (self.rank, info.values().to_vec()));
                Ok(vec![(vec![0], Msg::Submit(claim))])
            }
            _ => Ok(Vec::new()),
        }
    }

    fn receive(
        &mut self,
        round: Round,
        from: usize,
        msg: Msg,
        timer: &mut PartyTimer,
    ) -> Result<(), DistributedError> {
        match (round, msg) {
            (Round::GainReply(_), Msg::GainReply(reply)) => {
                timer.time(self.id, || self.gain_finish(&reply))?
            }
            (Round::KeyShares, Msg::Element(key)) => self.keys[from - 1] = key,
            (Round::Commit(_), Msg::Element(h)) => self.commitment = Some(h),
            (Round::Challenge(_), Msg::Scalar(share)) => self.shares.push((from, share)),
            (Round::Respond(p), Msg::Scalar(response)) => {
                let commitment = self
                    .commitment
                    .take()
                    .ok_or_else(|| violation(p, "response without a commitment"))?;
                let challenges = self.take_shares();
                self.proofs[p - 1] = Some(MultiVerifierTranscript {
                    commitment,
                    challenges,
                    response,
                });
            }
            (Round::Bits, Msg::Set(bits)) => self.bits[from - 1] = bits,
            (Round::Collect, Msg::Set(set)) => self.sets[from - 1] = set,
            (Round::Hop(_), Msg::Chain(sets)) => self.sets = sets,
            (Round::Hop(_), Msg::Set(set)) => self.own = set,
            _ => return Err(violation(from, format!("unexpected message in {round:?}"))),
        }
        Ok(())
    }
}

/// The initiator `P₀`: answers the dot-product rounds with the ρ-scaled
/// criterion vector, then collects and checks the submissions.
pub struct Initiator {
    params: FrameworkParams,
    profile: InitiatorProfile,
    rng: HashDrbg,
    proto: DotProduct,
    /// `ρ`, the gain mask shared by every participant's reply.
    pub(crate) rho: u64,
    v_recv: Vec<Fp>,
    request: Option<Round1Message>,
    submissions: Vec<Submission>,
}

impl std::fmt::Debug for Initiator {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Initiator").finish_non_exhaustive()
    }
}

impl Initiator {
    /// `P₀` for a session: draws `ρ` (exactly `h` bits, top bit set) from
    /// the `b"party-0"` stream and builds `[ρ·wg, −ρ·we, 2ρ(we∗ve₀)]`.
    pub fn new(params: &FrameworkParams, profile: &InitiatorProfile, field: &Arc<FpCtx>) -> Self {
        let mut rng = party_stream(&HashDrbg::seed_from_u64(params.seed()), 0);
        // `FrameworkParams::build` rejects h = 0 and h ≥ 64, so the shift
        // cannot wrap.
        let top = 1u64 << (params.mask_bits().clamp(1, 63) - 1);
        let rho = top | rng.gen_range(0..top);
        let q = params.questionnaire();
        let (m, t) = (q.dimension(), q.equal_to_count());
        let (w, v0) = (profile.weights.values(), profile.criterion.values());
        // The params' bit-length calculus bounds every term far below
        // i128::MAX.
        let r = rho as i128;
        let mut v_recv: Vec<Fp> = Vec::with_capacity(m + t);
        v_recv.extend(w[t..m].iter().map(|&wk| field.from_i128(r * wk as i128)));
        v_recv.extend(w[..t].iter().map(|&wk| field.from_i128(-r * wk as i128)));
        v_recv.extend((0..t).map(|k| field.from_i128(2 * r * w[k] as i128 * v0[k] as i128)));
        Initiator {
            params: params.clone(),
            profile: profile.clone(),
            rng,
            proto: DotProduct::new(field.clone()),
            rho,
            v_recv,
            request: None,
            submissions: Vec::new(),
        }
    }

    /// Phase 3: recomputes the submitters' gains and checks them against
    /// the claimed ranks (see [`verify_submissions`]).
    pub fn verify(
        &self,
        log: &TrafficLog,
        timer: &mut PartyTimer,
        round: u32,
    ) -> VerificationReport {
        verify_submissions(
            self.params.questionnaire(),
            &self.profile,
            &self.submissions,
            self.params.top_k(),
            log,
            timer,
            round,
        )
    }
}

impl Node for Initiator {
    /// Serves `P_j` (in id order) with a fresh mask `ρ_j ∈ [0, ρ)`, which
    /// keeps distinct gains strictly ordered.
    fn send(
        &mut self,
        round: Round,
        timer: &mut PartyTimer,
        _: &mut Vec<Ciphertext>,
    ) -> Result<Outbox, DistributedError> {
        let Round::GainReply(j) = round else {
            return Ok(Vec::new());
        };
        let request = self
            .request
            .take()
            .ok_or_else(|| violation(j, "no request"))?;
        let reply = timer.time(0, || {
            let rho_j = self.rng.gen_range(0..self.rho);
            let alpha = self.proto.field().from_i128(rho_j as i128);
            self.proto
                .receiver_round2(&self.v_recv, &alpha, &request, &mut self.rng)
        });
        Ok(vec![(vec![j], Msg::GainReply(reply))])
    }

    /// Takes `P_j`'s request — rejecting one whose dimensions do not match
    /// `P₀`'s vector — or its submission — rejecting a claimed rank beyond
    /// `n` or a malformed information vector.
    fn receive(
        &mut self,
        round: Round,
        from: usize,
        msg: Msg,
        _: &mut PartyTimer,
    ) -> Result<(), DistributedError> {
        match (round, msg) {
            (Round::GainRequest(_), Msg::GainRequest(request)) => {
                let d = self.v_recv.len() + 1;
                let rows = [&request.c_prime, &request.g];
                if !request.qx.iter().chain(rows).all(|row| row.len() == d) {
                    return Err(violation(from, format!("gain request is not {d}-wide")));
                }
                self.request = Some(request);
            }
            (Round::Submit, Msg::Submit(None)) => {}
            (Round::Submit, Msg::Submit(Some((claimed, values)))) => {
                let n = self.params.participants();
                if claimed > n {
                    return Err(violation(
                        from,
                        format!("claimed rank {claimed} exceeds n = {n}"),
                    ));
                }
                let info =
                    InfoVector::new(self.params.questionnaire(), values, self.params.attr_bits())
                        .map_err(|e| violation(from, format!("bad submission: {e}")))?;
                self.submissions.push(Submission {
                    party: from,
                    claimed_rank: claimed,
                    info,
                });
            }
            _ => return Err(violation(from, format!("unexpected message in {round:?}"))),
        }
        Ok(())
    }
}

/// Runs `f` over `items` on up to `workers` scoped threads, preserving
/// item order in the output. Returns the results plus the total CPU time
/// summed across workers (for [`PartyTimer::record`]). `f` must not touch
/// the protocol RNG — callers pre-draw any randomness serially.
fn parallel_map<T: Sync, U: Send>(
    items: &[T],
    workers: usize,
    f: impl Fn(&T) -> U + Sync,
) -> (Vec<U>, Duration) {
    let workers = workers.clamp(1, items.len().max(1));
    if workers == 1 {
        // tidy:allow(determinism) — wall-clock used for timing accounting only, never protocol state
        let start = Instant::now();
        let out: Vec<U> = items.iter().map(&f).collect();
        return (out, start.elapsed());
    }
    let next = AtomicUsize::new(0);
    let mut indexed: Vec<(usize, U)> = Vec::with_capacity(items.len());
    let mut cpu = Duration::ZERO;
    std::thread::scope(|s| {
        let handles: Vec<_> = (0..workers)
            .map(|_| {
                s.spawn(|| {
                    // tidy:allow(determinism) — wall-clock used for timing accounting only, never protocol state
                    let start = Instant::now();
                    let mut out = Vec::new();
                    loop {
                        let i = next.fetch_add(1, Ordering::Relaxed);
                        if i >= items.len() {
                            break;
                        }
                        out.push((i, f(&items[i])));
                    }
                    (out, start.elapsed())
                })
            })
            .collect();
        for handle in handles {
            // A worker that panicked (e.g. an assert in `f`) must not be
            // swallowed into a bogus result; re-raise its payload on the
            // caller's thread instead.
            let (part, spent) = match handle.join() {
                Ok(v) => v,
                Err(payload) => std::panic::resume_unwind(payload),
            };
            indexed.extend(part);
            cpu += spent;
        }
    });
    indexed.sort_by_key(|&(i, _)| i);
    (indexed.into_iter().map(|(_, u)| u).collect(), cpu)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::offline::{OfflineStock, StockFingerprint};
    use ppgr_group::GroupKind;

    #[test]
    fn compare_rerandomizes_the_tau_set() {
        // Regression: the τ set a party hands P₁ must carry the raw
        // comparison's zero pattern (ranks are unchanged) while sharing
        // no ciphertext with it (P₁ could recompute the raw set for a
        // guessed value and compare bytes).
        let (n, l) = (3, 6);
        let group = GroupKind::Ecc160.group();
        let scheme = ExpElGamal::new(group.clone());
        let stock = OfflineStock::generate_masks_only(StockFingerprint::new(5, n, l, group.kind()));
        let (slices, table, _) = stock.into_parts();
        let mut parties: Vec<Party> = slices
            .into_iter()
            .enumerate()
            .map(|(idx, slice)| {
                let rng = party_stream(&HashDrbg::seed_from_u64(5), idx + 1);
                let mut p = Party::new(&group, idx + 1, n, l, SortOptions::default(), rng);
                p.attach_stock(slice, table.clone());
                p.value = BigUint::from([9u64, 40, 9][idx]);
                p
            })
            .collect();
        let keys: Vec<Element> = parties.iter_mut().map(|p| p.key_share().unwrap()).collect();
        let bits: Vec<Vec<Ciphertext>> = parties
            .iter_mut()
            .map(|p| {
                p.keys = keys.clone();
                p.encrypt().unwrap()
            })
            .collect();
        let full = parties.iter().fold(group.scalar_from_u64(0), |acc, p| {
            group.scalar_add(&acc, p.key_pair().unwrap().secret_key())
        });
        let mut timer = PartyTimer::new(n + 1);
        for (idx, party) in parties.iter_mut().enumerate() {
            let raw: Vec<Ciphertext> = (0..n)
                .filter(|&o| o != idx)
                .flat_map(|o| compare_encrypted(&scheme, &party.value, &bits[o], l))
                .collect();
            party.bits = bits.clone();
            party.compare(&mut timer).unwrap();
            let set = &party.own;
            assert_eq!(set.len(), raw.len());
            for (s, r) in set.iter().zip(&raw) {
                assert_ne!(s, r, "party {} sent a raw τ ciphertext", idx + 1);
                assert_eq!(
                    scheme.decrypts_to_zero(&full, s),
                    scheme.decrypts_to_zero(&full, r)
                );
            }
            // One zero per strictly larger opponent: 9 < 40 once.
            let zeros = set
                .iter()
                .filter(|c| scheme.decrypts_to_zero(&full, c))
                .count();
            assert_eq!(zeros, usize::from(party.value == BigUint::from(9u64)));
        }
    }
}
