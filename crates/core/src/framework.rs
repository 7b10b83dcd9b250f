//! The end-to-end framework orchestrator.

use crate::attrs::{partial_gain, InfoVector, InitiatorProfile, VectorError};
use crate::gain::GainPhaseOutput;
use crate::offline::{OfflineStock, StockFingerprint};
use crate::params::FrameworkParams;
use crate::party::{Codec, Initiator, Party, Transcript};
use crate::sorting::{KeygenVerifyJob, Machine, SortError, SortOptions};
use crate::submit::AcceptedSubmission;
use crate::timing::PartyTimer;
use ppgr_dotprod::default_field;
use ppgr_elgamal::Ciphertext;
use ppgr_hash::HashDrbg;
use ppgr_net::{Phase, TrafficLog, TrafficSummary};
use rand::SeedableRng;
use std::error::Error;
use std::fmt;
use std::time::Duration;

/// Errors from a framework run.
#[derive(Clone, Debug, Eq, PartialEq)]
pub enum RunError {
    /// No population was supplied (call `with_random_population` or
    /// `with_population`).
    MissingPopulation,
    /// A supplied vector was malformed.
    Vector(VectorError),
    /// The sorting phase failed.
    Sort(SortError),
    /// A session-machine invariant was violated (phase state out of sync).
    /// Reaching this indicates a bug in the driver, not bad input.
    Internal(&'static str),
    /// The session was cancelled by its driver before completing.
    Cancelled,
    /// The session exceeded its wall-clock budget and was abandoned by its
    /// driver (the session itself never observes this — a runtime enforces
    /// it between steps).
    DeadlineExceeded,
}

impl fmt::Display for RunError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            RunError::MissingPopulation => write!(f, "no population supplied"),
            RunError::Vector(e) => write!(f, "invalid population vector: {e}"),
            RunError::Sort(e) => write!(f, "sorting phase failed: {e}"),
            RunError::Internal(what) => write!(f, "internal invariant violated: {what}"),
            RunError::Cancelled => write!(f, "session cancelled"),
            RunError::DeadlineExceeded => write!(f, "session exceeded its deadline"),
        }
    }
}

impl RunError {
    /// The party this failure blames, when the underlying error carries
    /// an attribution: a rejected proof of key knowledge or an over-wide
    /// submitted value names its 1-based prover. Driver-side failures
    /// (cancellation, deadlines, invariant bugs, malformed input vectors)
    /// have no culprit and return `None`, so a runtime surfacing blame
    /// never pins an infrastructure fault on a session participant.
    pub fn blamed(&self) -> Option<usize> {
        match self {
            RunError::Sort(SortError::ProofRejected { party })
            | RunError::Sort(SortError::ValueTooWide { party }) => Some(*party),
            _ => None,
        }
    }
}

impl Error for RunError {}

impl From<VectorError> for RunError {
    fn from(e: VectorError) -> Self {
        RunError::Vector(e)
    }
}

impl From<SortError> for RunError {
    fn from(e: SortError) -> Self {
        RunError::Sort(e)
    }
}

/// Per-phase mean participant computation time (what Fig. 2 plots) plus
/// the initiator's total.
#[derive(Clone, Debug)]
pub struct PhaseTimings {
    /// Phase 1 mean participant time.
    pub gain: Duration,
    /// Phase 2 mean participant time.
    pub sort: Duration,
    /// Phase 3 initiator verification time.
    pub submit: Duration,
    /// Total initiator time across phases.
    pub initiator: Duration,
    /// Per-party totals (index 0 = initiator).
    pub per_party: Vec<Duration>,
}

impl PhaseTimings {
    /// Mean participant computation across all phases.
    pub fn mean_participant_total(&self) -> Duration {
        self.gain + self.sort
    }
}

/// Result of a framework run.
#[derive(Clone, Debug)]
pub struct Outcome {
    ranks: Vec<usize>,
    top_k: Vec<AcceptedSubmission>,
    traffic: TrafficSummary,
    timings: PhaseTimings,
    gain_output: GainPhaseOutput,
}

impl Outcome {
    /// Each participant's rank (index `j-1` for party `j`; rank 1 =
    /// highest gain; ties share a rank).
    pub fn ranks(&self) -> &[usize] {
        &self.ranks
    }

    /// The verified top-k submissions the initiator accepted.
    pub fn top_k(&self) -> &[AcceptedSubmission] {
        &self.top_k
    }

    /// Traffic accounting for the whole run.
    pub fn traffic(&self) -> &TrafficSummary {
        &self.traffic
    }

    /// Computation-time accounting.
    pub fn timings(&self) -> &PhaseTimings {
        &self.timings
    }

    /// The masked gains (diagnostics; a real deployment never aggregates
    /// these — they are each participant's private state).
    pub fn masked_gains(&self) -> &GainPhaseOutput {
        &self.gain_output
    }
}

/// The orchestrator: configure, then [`run`](GroupRanking::run).
///
/// Runs every party's computation in-process, charging wall-clock per
/// party and logging every wire message, which is exactly what the
/// paper's evaluation measures.
#[derive(Clone, Debug)]
pub struct GroupRanking {
    params: FrameworkParams,
    population: Option<(InitiatorProfile, Vec<InfoVector>)>,
    log: TrafficLog,
}

impl GroupRanking {
    /// Creates an orchestrator for the given parameters.
    pub fn new(params: FrameworkParams) -> Self {
        GroupRanking {
            params,
            population: None,
            log: TrafficLog::new(),
        }
    }

    /// Generates a seeded random population (deterministic per
    /// `params.seed()`).
    pub fn with_random_population(mut self) -> Self {
        let mut rng = HashDrbg::seed_from_u64(self.params.seed());
        self.population = Some(self.params.random_population(&mut rng));
        self
    }

    /// Supplies an explicit population.
    ///
    /// # Errors
    ///
    /// [`VectorError::DimensionMismatch`] if the number of info vectors
    /// does not match `params.participants()`.
    pub fn with_population(
        mut self,
        profile: InitiatorProfile,
        infos: Vec<InfoVector>,
    ) -> Result<Self, VectorError> {
        if infos.len() != self.params.participants() {
            return Err(VectorError::DimensionMismatch {
                expected: self.params.participants(),
                got: infos.len(),
            });
        }
        self.population = Some((profile, infos));
        Ok(self)
    }

    /// Shares this run's traffic log (e.g. to feed the network simulator
    /// afterwards).
    pub fn traffic_log(&self) -> TrafficLog {
        self.log.clone()
    }

    /// The parameters.
    pub fn params(&self) -> &FrameworkParams {
        &self.params
    }

    /// Executes all three phases.
    ///
    /// Drives a [`SessionMachine`] to completion; a machine stepped the
    /// same way elsewhere (e.g. by a service worker pool) produces
    /// identical results.
    ///
    /// # Errors
    ///
    /// See [`RunError`].
    pub fn run(self) -> Result<Outcome, RunError> {
        let mut machine = self.into_machine()?;
        while machine.step()? == SessionStatus::Pending {}
        machine
            .into_outcome()
            .ok_or(RunError::Internal("machine driven to Done but no outcome"))
    }

    /// Converts the configured orchestrator into a resumable
    /// [`SessionMachine`] with default sort options.
    ///
    /// # Errors
    ///
    /// [`RunError::MissingPopulation`] if no population was supplied.
    pub fn into_machine(self) -> Result<SessionMachine, RunError> {
        self.into_machine_with(SortOptions::default())
    }

    /// Converts the orchestrator into a [`SessionMachine`], overriding the
    /// sorting options (the service pins `threads: 1` so each
    /// session is single-threaded and the pool supplies the parallelism).
    ///
    /// # Errors
    ///
    /// [`RunError::MissingPopulation`] if no population was supplied.
    pub fn into_machine_with(self, sort_options: SortOptions) -> Result<SessionMachine, RunError> {
        let (profile, infos) = self.population.ok_or(RunError::MissingPopulation)?;
        let params = self.params;
        let (n, l) = (params.participants(), params.beta_bits());
        let field = default_field();
        let mut gain_timer = PartyTimer::new(n + 1);
        let initiator = gain_timer.time(0, || Initiator::new(&params, &profile, &field));
        let parties = infos
            .into_iter()
            .enumerate()
            .map(|(idx, info)| Party::for_session(&params, &field, idx + 1, info, sort_options))
            .collect();
        let group = params.group().group();
        let base = HashDrbg::seed_from_u64(params.seed());
        let machine = Machine::new(&group, base, parties, Some(initiator), l, sort_options, 2);
        Ok(SessionMachine {
            params,
            profile,
            log: self.log,
            gain_timer,
            sort_timer: PartyTimer::new(n + 1),
            submit_timer: PartyTimer::new(n + 1),
            machine,
            result: None,
        })
    }
}

/// What a [`SessionMachine::step`] call left behind.
#[derive(Clone, Copy, Debug, Eq, PartialEq)]
pub enum SessionStatus {
    /// More work remains; call [`SessionMachine::step`] again.
    Pending,
    /// The session finished; collect the result with
    /// [`SessionMachine::into_outcome`].
    Done,
}

/// A resumable framework session: the in-process driver of the per-party
/// round code ([`crate::party`]).
///
/// One `step` call performs one unit of protocol work, `2n + 7` in all:
/// the offline stock, the whole gain phase, the stock hand-out, key
/// generation, bit encryption, each party's comparison batch, each chain
/// hop, the rank count, and the submission phase. Every party draws only
/// from its own streams (seeded by the session seed), so however the steps
/// are interleaved with *other* sessions' steps, the transcript and ranks
/// are bit-identical to a solo [`GroupRanking::run`] with the same seed —
/// and to the same session over the mesh ([`crate::run_distributed`]).
/// Within a session the steps are strictly sequential, which is exactly
/// the unlinkability requirement on the shuffle-decrypt chain.
#[derive(Debug)]
pub struct SessionMachine {
    params: FrameworkParams,
    profile: InitiatorProfile,
    log: TrafficLog,
    gain_timer: PartyTimer,
    sort_timer: PartyTimer,
    submit_timer: PartyTimer,
    machine: Machine,
    result: Option<Outcome>,
}

impl SessionMachine {
    /// Whether the session has completed.
    pub fn is_done(&self) -> bool {
        self.result.is_some()
    }

    /// The session parameters.
    pub fn params(&self) -> &FrameworkParams {
        &self.params
    }

    /// The fingerprint of the offline stock this session expects — what a
    /// caller must generate ([`OfflineStock::generate`]) for
    /// [`SessionMachine::attach_offline_stock`] to accept it.
    pub fn offline_fingerprint(&self) -> StockFingerprint {
        StockFingerprint::new(
            self.params.seed(),
            self.params.participants(),
            self.params.beta_bits(),
            self.params.group(),
        )
    }

    /// Hands the session a pool-generated offline stock, so its offline
    /// step finds the randomness ready instead of generating it inline.
    ///
    /// Returns `false` — leaving the session to generate cold, which
    /// produces bit-identical transcripts — if the offline step has
    /// already run, a stock is already attached, or the stock's
    /// fingerprint does not match [`SessionMachine::offline_fingerprint`]
    /// exactly.
    pub fn attach_offline_stock(&mut self, stock: OfflineStock) -> bool {
        stock.fingerprint() == Some(&self.offline_fingerprint()) && self.machine.attach(stock)
    }

    /// Takes the keygen proof check a
    /// [`defer_verify`](SortOptions::defer_verify) session stashed, if any.
    ///
    /// Returns `Some` exactly once, after the keygen step of a deferred
    /// session whose stock was not already verified at minting time. The
    /// caller owns the session's soundness from that point: it must settle
    /// the job — [`KeygenVerifyJob::verify_inline`] or a
    /// [`verify_deferred_jobs`](crate::verify_deferred_jobs) batch — and
    /// discard the session's outcome if the verdict is `Err`.
    pub fn take_pending_verify(&mut self) -> Option<KeygenVerifyJob> {
        self.machine.pending_verify.take()
    }

    /// Donates a recycled hop output buffer so the chain's dominant loop
    /// starts with warm capacity instead of growing a fresh allocation.
    ///
    /// The buffer is cleared and fully overwritten before any use, so its
    /// prior contents never influence the protocol — transcripts stay
    /// bit-identical whether the scratch arrived empty, donated, or
    /// pre-sized. Call before stepping; a later call simply replaces the
    /// current buffer.
    pub fn adopt_hop_scratch(&mut self, mut scratch: Vec<Ciphertext>) {
        scratch.clear();
        self.machine.hop_scratch = scratch;
    }

    /// Takes the hop scratch buffer back once the session is done, so a
    /// pool can recycle its capacity into the next session.
    pub fn take_hop_scratch(&mut self) -> Vec<Ciphertext> {
        std::mem::take(&mut self.machine.hop_scratch)
    }

    /// Records every protocol message the parties emit from now on into
    /// `transcript`, as its wire frame. Call before the first step.
    pub fn record_transcript(&mut self, transcript: &Transcript) {
        let codec = Codec::new(self.params.group().group());
        self.machine.tap = Some((codec, transcript.clone()));
    }

    /// The outcome, once [`SessionMachine::step`] has returned
    /// [`SessionStatus::Done`]. Consumes the machine; returns `None` if
    /// the session has not finished.
    pub fn into_outcome(self) -> Option<Outcome> {
        self.result
    }

    /// Executes the next unit of protocol work.
    ///
    /// # Errors
    ///
    /// See [`RunError`].
    pub fn step(&mut self) -> Result<SessionStatus, RunError> {
        if self.result.is_some() {
            return Ok(SessionStatus::Done);
        }
        let timer = match self.machine.next_phase() {
            Some(Phase::Gain) => &mut self.gain_timer,
            Some(Phase::Submit) => &mut self.submit_timer,
            _ => &mut self.sort_timer,
        };
        if self.machine.step(&self.log, timer)? == SessionStatus::Pending {
            return Ok(SessionStatus::Pending);
        }
        self.finish()?;
        Ok(SessionStatus::Done)
    }

    /// After the submit round: the initiator verifies the submissions and
    /// the outcome is assembled.
    fn finish(&mut self) -> Result<(), RunError> {
        let initiator = self
            .machine
            .initiator
            .as_ref()
            .ok_or(RunError::Internal("no initiator"))?;
        let report = initiator.verify(&self.log, &mut self.submit_timer, 100);
        debug_assert!(report.is_clean(), "honest run must verify cleanly");
        let parties = &self.machine.parties;
        let (q, rho) = (self.params.questionnaire(), initiator.rho as i128);
        for p in parties.iter().filter(|_| cfg!(debug_assertions)) {
            // Sanity versus the plaintext model: `ρ·p_j + ρ_j`, `0 ≤ ρ_j < ρ`.
            let gain = p.info().map(|info| partial_gain(q, &self.profile, info));
            let offset = gain.map(|g| p.masked - rho * g);
            let on_model = offset.is_some_and(|o| (0..rho).contains(&o));
            // tidy:allow(secret-escape) — debug-only self-check against the plaintext model; only a pass/fail bit, compiled out of release builds
            debug_assert!(on_model, "masked gain off the model");
        }
        let gain_output = GainPhaseOutput {
            betas: parties.iter().map(|p| p.value.clone()).collect(),
            masked_signed: parties.iter().map(|p| p.masked).collect(),
        };
        let n = self.params.participants();
        let per_party: Vec<Duration> = (0..=n)
            .map(|p| {
                self.gain_timer.spent(p) + self.sort_timer.spent(p) + self.submit_timer.spent(p)
            })
            .collect();
        let timings = PhaseTimings {
            gain: self.gain_timer.mean_participant(),
            sort: self.sort_timer.mean_participant(),
            submit: self.submit_timer.spent(0),
            initiator: per_party[0],
            per_party,
        };
        self.result = Some(Outcome {
            ranks: parties.iter().map(|p| p.rank).collect(),
            top_k: report.accepted,
            traffic: self.log.summary(),
            timings,
            gain_output,
        });
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::attrs::{gain, Questionnaire};
    use ppgr_group::GroupKind;

    fn small_params(n: usize, k: usize, seed: u64) -> FrameworkParams {
        FrameworkParams::builder(Questionnaire::synthetic(1, 2))
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
    fn end_to_end_ranks_match_plaintext_gains() {
        let params = small_params(4, 2, 11);
        let runner = GroupRanking::new(params.clone()).with_random_population();
        let q = params.questionnaire().clone();
        let outcome = runner.run().unwrap();

        // Recompute plaintext gains to validate ranking.
        let mut rng = HashDrbg::seed_from_u64(params.seed());
        let (profile, infos) = params.random_population(&mut rng);
        let gains: Vec<i128> = infos.iter().map(|i| gain(&q, &profile, i)).collect();
        for a in 0..gains.len() {
            for b in 0..gains.len() {
                if gains[a] > gains[b] {
                    assert!(
                        outcome.ranks()[a] < outcome.ranks()[b],
                        "gain order violated: {:?} vs ranks {:?}",
                        gains,
                        outcome.ranks()
                    );
                }
            }
        }
        // Top-k are the k best gains.
        assert_eq!(outcome.top_k().len(), 2);
        for acc in outcome.top_k() {
            assert!(acc.submission.claimed_rank <= 2);
        }
    }

    #[test]
    fn missing_population_errors() {
        let params = small_params(3, 1, 1);
        assert_eq!(
            GroupRanking::new(params).run().unwrap_err(),
            RunError::MissingPopulation
        );
    }

    #[test]
    fn population_size_checked() {
        let params = small_params(3, 1, 1);
        let mut rng = HashDrbg::seed_from_u64(5);
        let (profile, mut infos) = params.random_population(&mut rng);
        infos.pop();
        assert!(matches!(
            GroupRanking::new(params).with_population(profile, infos),
            Err(VectorError::DimensionMismatch {
                expected: 3,
                got: 2
            })
        ));
    }

    #[test]
    fn deterministic_per_seed() {
        let a = GroupRanking::new(small_params(3, 1, 77))
            .with_random_population()
            .run()
            .unwrap();
        let b = GroupRanking::new(small_params(3, 1, 77))
            .with_random_population()
            .run()
            .unwrap();
        assert_eq!(a.ranks(), b.ranks());
        assert_eq!(a.traffic(), b.traffic());
    }

    #[test]
    fn a_session_takes_its_steps_in_plan_order() {
        // perfbench labels its per-step timings by this order: offline,
        // gain, stock hand-out, keygen, encrypt, n compares, n hops,
        // finish, submit — 2n + 7 steps.
        let n = 3;
        let mut machine = GroupRanking::new(small_params(n, 1, 5))
            .with_random_population()
            .into_machine()
            .unwrap();
        let mut phases = vec![machine.machine.next_phase()];
        while machine.step().unwrap() == SessionStatus::Pending {
            phases.push(machine.machine.next_phase());
        }
        let mut expected = vec![None, Some(Phase::Gain), None];
        expected.extend([Some(Phase::KeyGen), Some(Phase::Encrypt)]);
        expected.extend([Some(Phase::Compare); 3]);
        expected.extend([Some(Phase::Hop); 4]);
        expected.push(Some(Phase::Submit));
        assert_eq!(phases, expected);
        assert_eq!(phases.len(), 2 * n + 7);
    }

    #[test]
    fn traffic_and_timing_populated() {
        let outcome = GroupRanking::new(small_params(3, 1, 9))
            .with_random_population()
            .run()
            .unwrap();
        assert!(outcome.traffic().total_bytes > 0);
        assert!(outcome.timings().sort > Duration::ZERO);
        assert!(outcome.timings().mean_participant_total() >= outcome.timings().sort);
        assert_eq!(outcome.timings().per_party.len(), 4);
    }
}
