//! Phase 2 — the identity-unlinkable multiparty sorting protocol
//! (paper Fig. 1, steps 5–9; the paper's stand-alone contribution).
//!
//! `n` parties each hold an `l`-bit value; at the end each party knows the
//! rank of her own value (rank 1 = largest) and — crucially — nobody can
//! link another party's value or rank to that party's identity, assuming
//! at least two honest parties.
//!
//! Protocol outline:
//!
//! 1. every party generates an ElGamal key share and proves knowledge of
//!    it to everyone (multi-verifier Schnorr);
//! 2. every party publishes her value encrypted bit-by-bit under the
//!    *joint* key;
//! 3. every party homomorphically compares her plaintext value against
//!    every other party's encrypted bits ([`circuit`](crate::circuit)),
//!    producing an encrypted `τ` set, and sends it to `P₁`;
//! 4. the sets travel a chain through all parties; each hop partially
//!    decrypts with its key share, multiplies every plaintext by a fresh
//!    random scalar (zero is a fixed point), and shuffles each set;
//! 5. `P_n` returns each set to its owner, who strips her own key layer
//!    and counts zeros: `rank = zeros + 1`.

use crate::distributed::DistributedError;
use crate::framework::SessionStatus;
use crate::offline::{OfflineStock, StockTier};
use crate::party::{emit, party_stream, Codec, Initiator, Msg, Node, Party, Round, Transcript};
use crate::timing::PartyTimer;
use crate::wire::FIELD_BYTES;
use ppgr_bigint::BigUint;
use ppgr_elgamal::{Ciphertext, KeyPair};
use ppgr_group::{Element, Group, GroupKind};
use ppgr_hash::HashDrbg;
use ppgr_net::{Phase, TrafficLog};
use ppgr_zkp::{verify_multi_batch_all, verify_sessions_multi_batch, MultiVerifierTranscript};
use rand::{Rng, SeedableRng};
use std::error::Error;
use std::fmt;

/// Errors from the sorting protocol.
#[derive(Clone, Debug, Eq, PartialEq)]
pub enum SortError {
    /// The chain needs at least two parties.
    TooFewParties(usize),
    /// A value exceeds the declared bit length.
    ValueTooWide {
        /// Offending party (1-based).
        party: usize,
    },
    /// A party's proof of key knowledge failed verification (would abort
    /// the protocol in deployment; only reachable here via the game
    /// harness's dishonest provers).
    ProofRejected {
        /// The accused prover (1-based).
        party: usize,
    },
    /// A sort-machine invariant was violated (state out of sync).
    /// Reaching this indicates a bug in the driver, not bad input.
    Internal(&'static str),
}

impl fmt::Display for SortError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SortError::TooFewParties(n) => write!(f, "sorting needs at least 2 parties, got {n}"),
            SortError::ValueTooWide { party } => {
                write!(f, "party {party}'s value exceeds the declared bit length")
            }
            SortError::ProofRejected { party } => {
                write!(f, "party {party} failed the proof of key knowledge")
            }
            SortError::Internal(what) => write!(f, "internal invariant violated: {what}"),
        }
    }
}

impl Error for SortError {}

/// Result of a sorting run.
#[derive(Clone, Debug, Eq, PartialEq)]
pub struct SortOutcome {
    /// `ranks[j]` is party `j+1`'s rank; rank 1 = largest value; ties get
    /// the same rank (paper: equal `β` values are all eligible).
    pub ranks: Vec<usize>,
}

/// Protocol knobs used by the security-game harness; honest executions use
/// [`SortOptions::default`] (everything on).
#[derive(Clone, Copy, Debug)]
pub struct SortOptions {
    /// Shuffle each set at every hop (the identity-unlinkability
    /// mechanism). Disabling models a protocol *without* Brickell–
    /// Shmatikov mixing.
    pub shuffle: bool,
    /// Multiply plaintexts by a fresh random at every hop (the gain-hiding
    /// mechanism for non-zero `τ`).
    pub randomize: bool,
    /// Worker threads for each party's local crypto (`0` = one per
    /// available core, `1` = serial). Randomness is pre-drawn serially, so
    /// every thread count produces bit-identical transcripts and ranks.
    /// Only *local* work parallelizes: the hop-to-hop chain itself stays
    /// sequential because each hop must shuffle and re-randomize the
    /// previous hop's output before anyone else may see it — pipelining
    /// hops would let a party observe pre-shuffle sets and break
    /// unlinkability.
    pub threads: usize,
    /// Detach the keygen proof verification from the step stream: instead
    /// of checking the proofs of key knowledge inside the keygen step, the
    /// machine stashes them as a [`KeygenVerifyJob`] for the driver to
    /// collect (see [`crate::SessionMachine::take_pending_verify`]) and
    /// batch across concurrent sessions through one aggregate
    /// multi-exponentiation. Verification is RNG-free and sends no bytes,
    /// so deferring it leaves transcripts and ranks bit-identical to the
    /// inline check; a driver that takes a job **must** run it (or fail
    /// the session) before trusting the outcome.
    pub defer_verify: bool,
}

impl Default for SortOptions {
    fn default() -> Self {
        SortOptions {
            shuffle: true,
            randomize: true,
            threads: 0,
            defer_verify: false,
        }
    }
}

/// One session's keygen proof check, detached from its step stream by
/// [`SortOptions::defer_verify`].
///
/// Carries the published key shares (the statements) and the parties'
/// proofs of key knowledge in protocol order. Checking each proof once is
/// equivalent to the online round's `n` per-verifier batches — every
/// verifier checks the same `n − 1` foreign transcripts against the same
/// public keys — so a driver may fold many sessions' jobs into one
/// aggregate equation ([`verify_deferred_jobs`]) without changing any
/// session's verdict or blame.
#[derive(Debug)]
pub struct KeygenVerifyJob {
    group: Group,
    statements: Vec<Element>,
    proofs: Vec<MultiVerifierTranscript>,
}

impl KeygenVerifyJob {
    /// The group instantiation the proofs live in. Jobs may only be batched
    /// with jobs of the same kind; [`verify_deferred_jobs`] partitions by
    /// this internally.
    pub fn group_kind(&self) -> GroupKind {
        self.group.kind()
    }

    /// Number of proofs (= parties) in the job.
    pub fn proofs(&self) -> usize {
        self.proofs.len()
    }

    fn items(&self) -> Vec<(&Element, &MultiVerifierTranscript)> {
        self.statements.iter().zip(self.proofs.iter()).collect()
    }

    /// Verifies this job alone, without cross-session batching.
    ///
    /// The fallback for drivers whose batch window is degenerate (size one)
    /// or that must settle a job immediately (e.g. at shutdown).
    ///
    /// # Errors
    ///
    /// [`SortError::ProofRejected`] naming the first dishonest party in
    /// protocol order — the same blame the inline keygen check assigns.
    pub fn verify_inline(&self) -> Result<(), SortError> {
        verify_multi_batch_all(&self.group, &self.items()).map_err(|rejected| {
            SortError::ProofRejected {
                // `verify_multi_batch_all` only errs with a non-empty,
                // ascending rejection list; the fallback party 1 is
                // unreachable but keeps the mapping total.
                party: rejected.first().map_or(1, |&p| p + 1),
            }
        })
    }
}

/// Settles a batch of deferred keygen proof checks in one aggregate
/// multi-exponentiation per group instantiation, returning one verdict per
/// job in input order.
///
/// This is the cross-session amortization lever: `k` sessions of `n`
/// parties collapse into a single `k·n`-term aggregate equation instead of
/// `k·n` per-verifier batches. On aggregate failure the authoritative
/// per-proof rescan attributes every rejection to its session and party
/// ([`ppgr_zkp::verify_sessions_multi_batch`]), so each failed session's
/// error names exactly the party its solo run would have blamed; sessions
/// whose proofs all hold still verify `Ok` in the same call.
pub fn verify_deferred_jobs(jobs: &[KeygenVerifyJob]) -> Vec<Result<(), SortError>> {
    let mut verdicts: Vec<Result<(), SortError>> = (0..jobs.len()).map(|_| Ok(())).collect();
    // Partition by group kind, preserving submission order within each
    // partition (the combiner derivation is order-sensitive, but every
    // ordering is sound — this one just keeps reruns deterministic).
    let mut kinds: Vec<GroupKind> = Vec::new();
    for job in jobs {
        if !kinds.contains(&job.group.kind()) {
            kinds.push(job.group.kind());
        }
    }
    for kind in kinds {
        let indices: Vec<usize> = jobs
            .iter()
            .enumerate()
            .filter(|(_, j)| j.group.kind() == kind)
            .map(|(i, _)| i)
            .collect();
        let group = &jobs[indices[0]].group;
        let per_job: Vec<Vec<(&Element, &MultiVerifierTranscript)>> =
            indices.iter().map(|&i| jobs[i].items()).collect();
        let sessions: Vec<&[(&Element, &MultiVerifierTranscript)]> =
            per_job.iter().map(Vec::as_slice).collect();
        if let Err(rejections) = verify_sessions_multi_batch(group, &sessions) {
            for r in rejections {
                if let Some(&first) = r.proofs.first() {
                    verdicts[indices[r.session]] =
                        Err(SortError::ProofRejected { party: first + 1 });
                }
            }
        }
    }
    verdicts
}

/// Everything a run exposes beyond the ranks — consumed by the
/// security-game harness (an adversary's view is a subset of this).
#[derive(Clone, Debug)]
pub struct SortTrace {
    /// Per-party key pairs (index `j-1` → party `j`).
    pub keys: Vec<KeyPair>,
    /// The final set returned to each owner (after the full chain),
    /// *before* the owner's own final decryption. Owner `j` built her set
    /// against every other party in ascending id order, before any
    /// shuffling.
    pub returned_sets: Vec<Vec<Ciphertext>>,
}

/// Runs the protocol with default options and no trace capture.
///
/// `values[j]` is party `j+1`'s private `l`-bit value.
///
/// # Errors
///
/// See [`SortError`].
pub fn unlinkable_sort<R: Rng + ?Sized>(
    group: &Group,
    values: &[BigUint],
    l: usize,
    rng: &mut R,
    log: &TrafficLog,
    timer: &mut PartyTimer,
    round_base: u32,
) -> Result<SortOutcome, SortError> {
    run_sort(
        group,
        values,
        l,
        SortOptions::default(),
        rng,
        log,
        timer,
        round_base,
    )
    .map(|(outcome, _trace)| outcome)
}

/// Full-control entry point: options + trace (used by games and tests).
///
/// Seats the parties from a DRBG seeded with 32 bytes drawn from `rng` —
/// party `j` draws online from its `party-j` fork, and the cold stock
/// comes from the `offline` fork — and drives the in-process machine a
/// framework session runs on, without the initiator's rounds. Wire traffic
/// is logged to `log` and per-party computation charged to `timer`.
///
/// # Errors
///
/// See [`SortError`].
#[allow(clippy::too_many_arguments)]
pub fn run_sort<R: Rng + ?Sized>(
    group: &Group,
    values: &[BigUint],
    l: usize,
    options: SortOptions,
    rng: &mut R,
    log: &TrafficLog,
    timer: &mut PartyTimer,
    round_base: u32,
) -> Result<(SortOutcome, SortTrace), SortError> {
    let n = values.len();
    if n < 2 {
        return Err(SortError::TooFewParties(n));
    }
    if let Some(idx) = values.iter().position(|v| v.bits() > l) {
        return Err(SortError::ValueTooWide { party: idx + 1 });
    }
    let mut seed = [0u8; 32];
    rng.fill_bytes(&mut seed);
    let base = HashDrbg::from_seed(seed);
    let parties = (1..=n)
        .zip(values)
        .map(|(j, value)| {
            let mut party = Party::new(group, j, n, l, options, party_stream(&base, j));
            party.value = value.clone();
            party
        })
        .collect();
    let mut machine = Machine::new(group, base, parties, None, l, options, round_base);
    while machine.step(log, timer)? == SessionStatus::Pending {}
    let parties = &mut machine.parties;
    let trace = SortTrace {
        keys: parties
            .iter()
            .filter_map(|p| p.key_pair().cloned())
            .collect(),
        returned_sets: parties
            .iter_mut()
            .map(|p| std::mem::take(&mut p.own))
            .collect(),
    };
    let ranks = parties.iter().map(|p| p.rank).collect();
    Ok((SortOutcome { ranks }, trace))
}

/// One step of the in-process plan ([`plan`]).
#[derive(Clone, Debug)]
enum Step {
    /// Mints the cold stock, unless one was attached.
    Offline,
    /// Hands every party its slice of the stock.
    HandOut,
    /// Rounds of the schedule, each with the party that acts in it.
    Rounds(Vec<(Round, usize)>),
}

/// The in-process step plan over [`Round::schedule`]: the offline step,
/// then one step per phase, except that each party's comparison (with the
/// hand-over of its τ set to `P₁`) and each chain hop is a step of its
/// own, and the stock hand-out precedes keygen. A stand-alone sort skips
/// the initiator's rounds.
fn plan(n: usize, session: bool) -> Vec<Step> {
    let mut steps: Vec<(Option<(Phase, usize)>, Step)> = vec![(None, Step::Offline)];
    for round in Round::schedule(n) {
        let initiator = matches!(
            round,
            Round::GainRequest(_) | Round::GainReply(_) | Round::Submit
        );
        if initiator && !session {
            continue;
        }
        if round == Round::KeyShares {
            steps.push((None, Step::HandOut));
        }
        for j in (0..=n).filter(|&j| round.acts(j, n)) {
            let key = Some(match round {
                Round::Compare | Round::Collect => (Phase::Compare, j),
                Round::Hop(i) => (Phase::Hop, i),
                Round::Finish => (Phase::Hop, n + 1),
                r => (r.phase(), 0),
            });
            match steps.iter_mut().find(|(k, _)| *k == key) {
                Some((_, Step::Rounds(step))) => step.push((round, j)),
                _ => steps.push((key, Step::Rounds(vec![(round, j)]))),
            }
        }
    }
    steps.into_iter().map(|(_, step)| step).collect()
}

/// Maps a party round's error to the sort's: a rejected proof keeps its
/// blame; anything else means the in-process driver broke an invariant.
fn party_error(e: DistributedError) -> SortError {
    match e {
        DistributedError::ProofRejected { party } => SortError::ProofRejected { party },
        _ => SortError::Internal("a party round failed"),
    }
}

/// The in-process driver of the round code ([`crate::party`]), behind
/// both [`crate::SessionMachine`] and [`run_sort`]: it steps every
/// [`Party`] (and, in a framework session, the [`Initiator`]) through
/// [`plan`] and hands each message across directly.
///
/// Granularity: one `step` performs one protocol unit — the offline mint,
/// the stock hand-out, all of key generation, all of bit encryption, or a
/// single party's comparison batch / chain hop (the chain hops are ~89 %
/// of the cost, so per-hop yields are what make cross-session pipelining
/// effective). Every party draws only from its own streams, so a session's
/// transcript and ranks are bit-identical no matter how its steps are
/// interleaved with other sessions' — and identical to the same parties
/// run over the mesh.
///
/// Shortcuts over the plain rounds, all consuming the same stream values:
/// a keygen-tier stock arrives minted (keys, proofs, joint-key table,
/// prepared hop scalars), its proofs possibly verified at minting time; a
/// [`SortOptions::defer_verify`] run hands the proof check to the driver;
/// the joint-key table is derived once for all parties; hops fan out
/// across worker threads and reuse one pooled buffer.
#[derive(Debug)]
pub(crate) struct Machine {
    group: Group,
    /// The randomness root the parties' streams fork from.
    base: HashDrbg,
    l: usize,
    options: SortOptions,
    plan: Vec<Step>,
    /// The next step of `plan`; the offline step has run once it is
    /// nonzero.
    next: usize,
    round_base: u32,
    pub(crate) initiator: Option<Initiator>,
    pub(crate) parties: Vec<Party>,
    /// Precomputed randomness, attached warm by a pool or minted cold at
    /// the offline step, then split among the parties.
    stock: Option<OfflineStock>,
    /// The stock's proofs passed every verifier's check at minting time.
    verified: bool,
    /// Reusable hop output buffer (serial path): each hop writes the next
    /// version of a set here, then swaps it with the live set, so the
    /// chain's dominant loop reuses two buffers per set instead of
    /// allocating and cloning fresh vectors every hop.
    pub(crate) hop_scratch: Vec<Ciphertext>,
    /// The keygen proof check stashed by a `defer_verify` run, awaiting
    /// collection by the driver.
    pub(crate) pending_verify: Option<KeygenVerifyJob>,
    /// Where every message the parties emit is recorded, if anywhere.
    pub(crate) tap: Option<(Codec, Transcript)>,
}

impl Machine {
    /// A machine at its offline step over `parties`, seated from `base`
    /// (party `j` draws online from `base`'s `party-j` fork), and over the
    /// initiator of a framework session, if any. `round_base` is the paper
    /// round the sort's traffic is logged from.
    pub(crate) fn new(
        group: &Group,
        base: HashDrbg,
        parties: Vec<Party>,
        initiator: Option<Initiator>,
        l: usize,
        options: SortOptions,
        round_base: u32,
    ) -> Self {
        Machine {
            group: group.clone(),
            base,
            l,
            options,
            plan: plan(parties.len(), initiator.is_some()),
            next: 0,
            round_base,
            initiator,
            parties,
            stock: None,
            verified: false,
            hop_scratch: Vec::new(),
            pending_verify: None,
            tap: None,
        }
    }

    /// Takes a warm `stock` for the offline step, unless that step has
    /// run or a stock is already attached.
    pub(crate) fn attach(&mut self, stock: OfflineStock) -> bool {
        let open = self.next == 0 && self.stock.is_none();
        if open {
            self.stock = Some(stock);
        }
        open
    }

    /// The phase of the next step's first round (`None` once done, or at
    /// the offline step and the stock hand-out).
    pub(crate) fn next_phase(&self) -> Option<Phase> {
        match self.plan.get(self.next)? {
            Step::Rounds(rounds) => rounds.first().map(|(round, _)| round.phase()),
            _ => None,
        }
    }

    /// Runs the next step of the plan. Offline work — the cold mint and
    /// the hand-out — is charged to nobody's per-party ledger: that is the
    /// point of the split.
    ///
    /// # Errors
    ///
    /// [`SortError::ProofRejected`] if a proof of key knowledge fails
    /// (reachable only via a corrupted stock in test harnesses).
    pub(crate) fn step(
        &mut self,
        log: &TrafficLog,
        timer: &mut PartyTimer,
    ) -> Result<SessionStatus, SortError> {
        let Some(step) = self.plan.get(self.next).cloned() else {
            return Ok(SessionStatus::Done);
        };
        self.next += 1;
        match step {
            Step::Offline if self.stock.is_none() => {
                let (kind, n, l) = (self.group.kind(), self.parties.len(), self.l);
                let verify = !self.options.defer_verify;
                let stock = OfflineStock::build(
                    &self.base,
                    kind,
                    n,
                    l,
                    StockTier::Keygen,
                    verify,
                    &mut || false,
                );
                self.stock = Some(stock.ok_or(SortError::Internal("an uncancelled mint stopped"))?);
            }
            Step::Offline => {}
            Step::HandOut => {
                let (slices, table, verified) = self
                    .stock
                    .take()
                    .ok_or(SortError::Internal("no offline stock at the hand-out"))?
                    .into_parts();
                if slices.len() != self.parties.len() {
                    return Err(SortError::Internal("offline stock shape mismatch"));
                }
                for (party, slice) in self.parties.iter_mut().zip(slices) {
                    party.attach_stock(slice, table.clone());
                }
                self.verified = verified;
            }
            Step::Rounds(rounds) => {
                for (round, from) in rounds {
                    self.run(round, from, log, timer)?;
                }
            }
        }
        Ok(match self.next < self.plan.len() {
            true => SessionStatus::Pending,
            false => SessionStatus::Done,
        })
    }

    /// Runs `from`'s part of `round`: the sender computes, and each
    /// message it emits is logged and handed to its receivers.
    ///
    /// Two rounds take the in-process shortcuts first. [`Round::Verify`]
    /// is skipped when the stock's proofs were verified at minting time,
    /// and handed to the driver as one [`KeygenVerifyJob`] under
    /// [`SortOptions::defer_verify`] — checking each proof once is
    /// equivalent to every verifier's check, and it moves no bytes. Before
    /// [`Round::Bits`], the joint key's table — public precomputation
    /// every party derives from the published shares — is derived once,
    /// uncharged, and shared (a keygen-tier stock carried it).
    fn run(
        &mut self,
        round: Round,
        from: usize,
        log: &TrafficLog,
        timer: &mut PartyTimer,
    ) -> Result<(), SortError> {
        match round {
            Round::Verify if self.verified => return Ok(()),
            Round::Verify if self.options.defer_verify => {
                let first = &self.parties[0];
                if from == 1 {
                    self.pending_verify = Some(KeygenVerifyJob {
                        group: self.group.clone(),
                        statements: first.keys.clone(),
                        proofs: first.proofs.iter().flatten().cloned().collect(),
                    });
                }
                return Ok(());
            }
            Round::Bits if from == 1 => {
                let table = self.parties[0].key_table().clone();
                for party in &mut self.parties[1..] {
                    party.share_key_table(&table);
                }
            }
            _ => {}
        }
        let node: &mut dyn Node = match from {
            0 => self
                .initiator
                .as_mut()
                .ok_or(SortError::Internal("no initiator"))?,
            j => &mut self.parties[j - 1],
        };
        let tap = self.tap.as_ref().map(|(c, t)| (c, t));
        let outbox =
            emit(node, from, round, timer, &mut self.hop_scratch, tap).map_err(party_error)?;
        for (to, msg) in outbox {
            self.log_message(log, round, from, &to, &msg);
            // Broadcasts hand each receiver a copy; the last takes the
            // message itself (a chain vector is never copied).
            let Some((&last, rest)) = to.split_last() else {
                continue;
            };
            for &j in rest {
                self.deliver(j, round, from, msg.clone(), timer)?;
            }
            self.deliver(last, round, from, msg, timer)?;
        }
        Ok(())
    }

    fn deliver(
        &mut self,
        to: usize,
        round: Round,
        from: usize,
        msg: Msg,
        timer: &mut PartyTimer,
    ) -> Result<(), SortError> {
        let node: Option<&mut dyn Node> = match to {
            0 => self.initiator.as_mut().map(|i| i as &mut dyn Node),
            j => self.parties.get_mut(j - 1).map(|p| p as &mut dyn Node),
        };
        node.ok_or(SortError::Internal("no such party"))?
            .receive(round, from, msg, timer)
            .map_err(party_error)
    }

    /// Logs `msg` from `from` to each of `to` with the paper's round
    /// numbering (`round_base` = the first sort round; every prover's
    /// proof runs in the same three rounds) and phase labels, counting
    /// element bytes only. Submissions are logged by the initiator's check.
    fn log_message(&self, log: &TrafficLog, round: Round, from: usize, to: &[usize], msg: &Msg) {
        let (b, group) = (self.round_base, &self.group);
        let (elem, scalar) = (group.element_len(), group.order().bits().div_ceil(8));
        let set = |s: &[Ciphertext]| s.len() * Ciphertext::encoded_len(group);
        let (r, label, bytes) = match (round, msg) {
            (Round::GainRequest(_), Msg::GainRequest(m)) => {
                (0, "gain", m.element_count() * FIELD_BYTES)
            }
            (Round::GainReply(_), _) => (1, "gain", 2 * FIELD_BYTES),
            (Round::KeyShares, _) => (b, "sort/keys", elem),
            (Round::Commit(_), _) => (b + 1, "sort/zkp", elem),
            (Round::Challenge(_), _) => (b + 2, "sort/zkp", scalar),
            (Round::Respond(_), _) => (b + 3, "sort/zkp", scalar),
            (Round::Bits, Msg::Set(s)) => (b + 4, "sort/bits", set(s)),
            (Round::Collect, Msg::Set(s)) => (b + 5, "sort/collect", set(s)),
            (Round::Hop(i), Msg::Chain(v)) => (
                b + 5 + i as u32,
                "sort/chain",
                v.iter().map(|s| set(s)).sum(),
            ),
            (Round::Hop(i), Msg::Set(s)) => (b + 5 + i as u32, "sort/return", set(s)),
            _ => return,
        };
        for &to in to {
            log.record(r, from, to, bytes, label);
        }
    }
}

/// Reference ranking (plaintext): rank 1 for the largest, ties equal.
pub fn plain_ranks(values: &[BigUint]) -> Vec<usize> {
    values
        .iter()
        .map(|v| values.iter().filter(|w| *w > v).count() + 1)
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{FrameworkParams, GroupRanking, Outcome, Questionnaire, RunError, SessionMachine};
    use ppgr_group::GroupKind;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn sort_values(vals: &[u64], l: usize, seed: u64) -> SortOutcome {
        let group = GroupKind::Ecc160.group();
        let mut rng = StdRng::seed_from_u64(seed);
        let values: Vec<BigUint> = vals.iter().map(|&v| BigUint::from(v)).collect();
        let log = TrafficLog::new();
        let mut timer = PartyTimer::new(vals.len() + 1);
        unlinkable_sort(&group, &values, l, &mut rng, &log, &mut timer, 0).unwrap()
    }

    #[test]
    fn ranks_match_plaintext_reference() {
        let vals = [13u64, 200, 78, 200, 0];
        let out = sort_values(&vals, 8, 1);
        let values: Vec<BigUint> = vals.iter().map(|&v| BigUint::from(v)).collect();
        assert_eq!(out.ranks, plain_ranks(&values));
        assert_eq!(out.ranks, vec![4, 1, 3, 1, 5]);
    }

    #[test]
    fn two_party_minimum() {
        let out = sort_values(&[5, 9], 4, 2);
        assert_eq!(out.ranks, vec![2, 1]);
    }

    #[test]
    fn all_equal_values_all_rank_one() {
        let out = sort_values(&[7, 7, 7], 4, 3);
        assert_eq!(out.ranks, vec![1, 1, 1]);
    }

    #[test]
    fn errors() {
        let group = GroupKind::Ecc160.group();
        let mut rng = StdRng::seed_from_u64(4);
        let log = TrafficLog::new();
        let mut timer = PartyTimer::new(2);
        assert_eq!(
            unlinkable_sort(
                &group,
                &[BigUint::from(1u64)],
                4,
                &mut rng,
                &log,
                &mut timer,
                0
            ),
            Err(SortError::TooFewParties(1))
        );
        let mut timer = PartyTimer::new(3);
        assert_eq!(
            unlinkable_sort(
                &group,
                &[BigUint::from(16u64), BigUint::from(1u64)],
                4,
                &mut rng,
                &log,
                &mut timer,
                0
            ),
            Err(SortError::ValueTooWide { party: 1 })
        );
    }

    #[test]
    fn traffic_shape_matches_protocol() {
        let group = GroupKind::Ecc160.group();
        let mut rng = StdRng::seed_from_u64(5);
        let n = 4;
        let values: Vec<BigUint> = (0..n as u64).map(BigUint::from).collect();
        let log = TrafficLog::new();
        let mut timer = PartyTimer::new(n + 1);
        let _ = unlinkable_sort(&group, &values, 6, &mut rng, &log, &mut timer, 0).unwrap();
        let s = log.summary();
        // Chain traffic dominates: n−1 hops of the full vector V.
        let chain = s.bytes_by_phase["sort/chain"];
        let bits = s.bytes_by_phase["sort/bits"];
        assert!(chain > bits, "chain {chain} should dominate bits {bits}");
        // Every party spent compute time.
        for p in 1..=n {
            assert!(timer.spent(p) > std::time::Duration::ZERO);
        }
    }

    #[test]
    fn deterministic_given_seed() {
        let a = sort_values(&[3, 1, 4, 1, 5], 4, 42);
        let b = sort_values(&[3, 1, 4, 1, 5], 4, 42);
        assert_eq!(a, b);
    }

    #[test]
    fn thread_count_does_not_change_the_transcript() {
        // All randomness is pre-drawn serially, so serial and fanned-out
        // executions must agree ciphertext-for-ciphertext, not just on
        // the ranks.
        let group = GroupKind::Ecc160.group();
        let values: Vec<BigUint> = [13u64, 200, 78, 200, 0]
            .iter()
            .map(|&v| BigUint::from(v))
            .collect();
        let run = |threads: usize| {
            let mut rng = StdRng::seed_from_u64(21);
            let log = TrafficLog::new();
            let mut timer = PartyTimer::new(values.len() + 1);
            run_sort(
                &group,
                &values,
                8,
                SortOptions {
                    threads,
                    ..SortOptions::default()
                },
                &mut rng,
                &log,
                &mut timer,
                0,
            )
            .unwrap()
        };
        let (serial_out, serial_trace) = run(1);
        let (parallel_out, parallel_trace) = run(4);
        assert_eq!(serial_out, parallel_out);
        assert_eq!(serial_out.ranks, vec![4, 1, 3, 1, 5]);
        assert_eq!(serial_trace.returned_sets, parallel_trace.returned_sets);
    }

    #[test]
    fn options_off_still_rank_correctly() {
        // Shuffle/randomize protect privacy, not correctness.
        let group = GroupKind::Ecc160.group();
        let mut rng = StdRng::seed_from_u64(6);
        let values: Vec<BigUint> = [9u64, 2, 5].iter().map(|&v| BigUint::from(v)).collect();
        let log = TrafficLog::new();
        let mut timer = PartyTimer::new(4);
        let (out, _) = run_sort(
            &group,
            &values,
            4,
            SortOptions {
                shuffle: false,
                randomize: false,
                ..SortOptions::default()
            },
            &mut rng,
            &log,
            &mut timer,
            0,
        )
        .unwrap();
        assert_eq!(out.ranks, vec![1, 3, 2]);
    }

    /// A seeded `n`-party ECC-160 session under `options`.
    fn session(n: usize, seed: u64, options: SortOptions) -> SessionMachine {
        let params = FrameworkParams::builder(Questionnaire::synthetic(1, 2))
            .participants(n)
            .top_k(1)
            .attr_bits(4)
            .weight_bits(2)
            .mask_bits(4)
            .group(GroupKind::Ecc160)
            .seed(seed)
            .build()
            .unwrap();
        GroupRanking::new(params)
            .with_random_population()
            .into_machine_with(options)
            .unwrap()
    }

    /// Steps `machine` until it finishes or fails, harvesting any deferred
    /// verify job along the way.
    fn drive(mut machine: SessionMachine) -> (Result<Outcome, RunError>, Option<KeygenVerifyJob>) {
        let mut job = None;
        loop {
            let status = machine.step();
            job = job.or_else(|| machine.take_pending_verify());
            match status {
                Ok(SessionStatus::Pending) => {}
                Ok(SessionStatus::Done) => {
                    break (
                        machine
                            .into_outcome()
                            .ok_or(RunError::Internal("done without outcome")),
                        job,
                    )
                }
                Err(e) => break (Err(e), job),
            }
        }
    }

    fn options(defer_verify: bool) -> SortOptions {
        SortOptions {
            threads: 1,
            defer_verify,
            ..SortOptions::default()
        }
    }

    /// A seeded 3-party session served a keygen-tier stock whose proof of
    /// `party` (0-based) is corrupted.
    fn corrupted_session(seed: u64, party: usize, defer_verify: bool) -> SessionMachine {
        let mut machine = session(3, seed, options(defer_verify));
        let mut stock = OfflineStock::generate(machine.offline_fingerprint());
        stock.corrupt_key_proof(&GroupKind::Ecc160.group(), party);
        assert!(machine.attach_offline_stock(stock));
        machine
    }

    #[test]
    fn deferred_verification_is_bit_identical_and_yields_a_passing_job() {
        let (inline, inline_job) = drive(session(4, 31, options(false)));
        let (deferred, deferred_job) = drive(session(4, 31, options(true)));
        assert!(inline_job.is_none(), "inline run must not stash a job");
        let job = deferred_job.expect("deferred cold run must stash a job");
        assert_eq!(job.group_kind(), GroupKind::Ecc160);
        assert_eq!(job.proofs(), 4);
        assert_eq!(job.verify_inline(), Ok(()));
        // Deferring reorders work, never bytes: same ranks, same traffic.
        let (inline, deferred) = (inline.unwrap(), deferred.unwrap());
        assert_eq!(inline.ranks(), deferred.ranks());
        assert_eq!(inline.traffic(), deferred.traffic());
    }

    #[test]
    fn deferred_job_blames_the_party_the_inline_check_blames() {
        let (inline_verdict, inline_job) = drive(corrupted_session(8, 1, false));
        assert!(inline_job.is_none());
        assert_eq!(
            inline_verdict.unwrap_err(),
            RunError::Sort(SortError::ProofRejected { party: 2 }),
            "inline check must blame the corrupted party"
        );
        // The deferred run sails past keygen (no bytes differ) but its job
        // carries the rejection, attributed to the same party.
        let (deferred_verdict, deferred_job) = drive(corrupted_session(8, 1, true));
        assert!(deferred_verdict.is_ok());
        let job = deferred_job.expect("deferred run must stash a job");
        assert_eq!(
            job.verify_inline(),
            Err(SortError::ProofRejected { party: 2 })
        );
    }

    #[test]
    fn batched_jobs_settle_with_per_session_verdicts() {
        // A clean session mints cold, deferred; a corrupted stock has its
        // minting-time verdict cleared. Either way the session parks a job.
        let job_for = |seed: u64, corrupt: Option<usize>| {
            let machine = match corrupt {
                Some(party) => corrupted_session(seed, party, true),
                None => session(3, seed, options(true)),
            };
            drive(machine)
                .1
                .expect("deferred session finished without parking a verify job")
        };
        let jobs = vec![
            job_for(1, None),
            job_for(2, Some(2)),
            job_for(3, None),
            job_for(4, Some(0)),
        ];
        let verdicts = verify_deferred_jobs(&jobs);
        assert_eq!(
            verdicts,
            vec![
                Ok(()),
                Err(SortError::ProofRejected { party: 3 }),
                Ok(()),
                Err(SortError::ProofRejected { party: 1 }),
            ],
            "one aggregate settle must attribute each rejection to its session and party"
        );
    }
}
