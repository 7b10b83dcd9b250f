//! The mesh driver: every party is an OS thread running the per-party
//! round code ([`crate::party`]), and every protocol message crosses a
//! channel as *encoded bytes* ([`crate::wire`]) — no shared state beyond
//! the public parameters.
//!
//! This module holds no protocol arithmetic. It is a loop that frames the
//! [`Party`]/[`Initiator`] messages, plus the checks a network needs and
//! an in-process run does not: deadlines, structural checks on received
//! ciphertext sets, the keygen share echo, abort frames
//! and consensus blame. The same parties run in process
//! ([`crate::GroupRanking`]) emit byte-identical messages, so both drivers
//! rank identically, tie order included.
//!
//! # Fault tolerance
//!
//! The protocol is strictly lockstep, so a single crashed or silent party
//! would block every other party forever if receives were unbounded.
//! Every blocking wait here is bounded by a per-phase allowance
//! ([`PhaseBudget`]), failures are typed with *blame*
//! ([`DistributedError`]), and the first party to observe a failure
//! broadcasts an abort frame ([`crate::wire::AbortFrame`]) so survivors
//! exit within one deadline — adopting the original blame — instead of
//! cascading timeouts that would blame innocent intermediaries.
//! Deterministic fault injection ([`FaultPlan`]) exercises all of this in
//! tests; see `docs/FAULTS.md` for the fault model.

use crate::attrs::{InfoVector, InitiatorProfile};
use crate::offline::{PartyStock, StockFingerprint};
use crate::params::FrameworkParams;
use crate::party::{emit, Codec, Initiator, Msg, Node, Party, Round, Transcript};
use crate::sorting::SortOptions;
use crate::submit::VerificationReport;
use crate::timing::PartyTimer;
use crate::wire::{parse_frame, AbortFrame, AbortKind, Frame, Writer};
use bytes::Bytes;
use ppgr_elgamal::Ciphertext;
use ppgr_group::{Group, Scalar};
use ppgr_hash::Sha256;
use ppgr_net::{
    CrashStash, FaultPlan, FaultyMesh, LocalMesh, MeshError, Phase, PhaseBudget, TrafficLog,
};
use std::cell::RefCell;
use std::collections::HashSet;
use std::error::Error;
use std::fmt;
use std::sync::Arc;
use std::thread;
use std::time::Duration;

/// Error from the distributed execution, carrying blame: the party id
/// each variant names is the party held responsible, not (necessarily)
/// the party that reported it.
#[derive(Clone, Debug, Eq, PartialEq)]
pub enum DistributedError {
    /// The blamed party sent nothing before the phase deadline (a wedged
    /// or silently-stopped process — its channels stayed open).
    Timeout {
        /// The party that stayed silent.
        party: usize,
        /// The phase in which the silence was observed.
        phase: Phase,
    },
    /// The blamed party's channels tore down (a crashed process).
    Disconnected {
        /// The party that hung up.
        party: usize,
        /// The phase in which the disconnect was observed.
        phase: Phase,
    },
    /// The blamed party presented a proof of key knowledge that failed
    /// verification.
    ProofRejected {
        /// The prover whose proof was rejected.
        party: usize,
    },
    /// The blamed party violated the protocol (malformed or unexpected
    /// bytes).
    Protocol {
        /// The party whose bytes did not decode.
        party: usize,
        /// What was wrong.
        what: String,
    },
    /// Secondhand blame adopted from a peer's abort frame. Unlike the
    /// first-hand variants above, nothing here was observed directly —
    /// the frame is unauthenticated hearsay, which is why consensus blame
    /// ranks it below every first-hand observation
    /// (see [`consensus_primary`]).
    Reported {
        /// The party the frame blames.
        party: usize,
        /// The phase the frame says the failure was observed in.
        phase: Phase,
        /// The kind of failure the frame reports.
        kind: AbortKind,
        /// The party that originated the accusation.
        reporter: usize,
        /// The lane that delivered the (possibly relayed) frame.
        via: usize,
    },
    /// This party — alive and processing messages — received an abort
    /// frame blaming *itself*. Being alive to read the frame is evidence
    /// against the accusation, so blame turns back on the accuser:
    /// `party` is the frame's claimed reporter.
    FalselyAccused {
        /// The accuser (the frame's reporter field), now blamed.
        party: usize,
        /// The phase this party was in when the frame arrived.
        phase: Phase,
        /// The lane that delivered the frame.
        via: usize,
    },
    /// This party was stopped by injected fault (test harnesses only; a
    /// crashed party blames itself and stays silent).
    Crashed {
        /// The party that was crashed.
        party: usize,
    },
}

impl DistributedError {
    /// The party this error holds responsible.
    pub fn blamed(&self) -> usize {
        match self {
            DistributedError::Timeout { party, .. }
            | DistributedError::Disconnected { party, .. }
            | DistributedError::ProofRejected { party }
            | DistributedError::Protocol { party, .. }
            | DistributedError::Reported { party, .. }
            | DistributedError::FalselyAccused { party, .. }
            | DistributedError::Crashed { party } => *party,
        }
    }
}

impl fmt::Display for DistributedError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            DistributedError::Timeout { party, phase } => {
                write!(f, "party {party} sent nothing before the {phase} deadline")
            }
            DistributedError::Disconnected { party, phase } => {
                write!(f, "party {party} disconnected during {phase}")
            }
            DistributedError::ProofRejected { party } => {
                write!(f, "proof of key knowledge by party {party} rejected")
            }
            DistributedError::Protocol { party, what } => {
                write!(f, "party {party} violated the protocol: {what}")
            }
            DistributedError::Reported {
                party,
                phase,
                kind,
                reporter,
                via,
            } => {
                write!(
                    f,
                    "party {party} blamed for {kind} in {phase} \
                     (reported by party {reporter}, frame via party {via})"
                )
            }
            DistributedError::FalselyAccused { party, phase, via } => {
                write!(
                    f,
                    "party {party} falsely accused a live party in {phase} \
                     (frame via party {via})"
                )
            }
            DistributedError::Crashed { party } => {
                write!(f, "party {party} was crashed by fault injection")
            }
        }
    }
}

impl Error for DistributedError {}

/// Everything the driver learned from a failed session: one primary error
/// (the consensus blame) plus what every individual thread observed.
#[derive(Clone, Debug)]
pub struct DistributedFailure {
    /// The consensus failure: the best-ranked observation across all
    /// threads — first-hand misbehavior evidence before refuted
    /// accusations before liveness failures before hearsay (see
    /// [`consensus_primary`] for the full ranking).
    pub primary: DistributedError,
    /// `(observer, error)` for every thread that failed, in party order.
    /// Surviving threads that completed cleanly do not appear.
    pub observations: Vec<(usize, DistributedError)>,
}

impl fmt::Display for DistributedFailure {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{} ({} parties reported failures)",
            self.primary,
            self.observations.len()
        )
    }
}

impl Error for DistributedFailure {}

/// Liveness configuration for a distributed run.
#[derive(Clone, Debug, Default)]
pub struct DistributedConfig {
    /// Per-phase wall-clock allowances for blocking waits.
    pub budget: PhaseBudget,
    /// Scripted fault injection (tests only); `None` runs fault-free.
    pub faults: Option<Arc<FaultPlan>>,
}

/// Outcome of a distributed run.
#[derive(Clone, Debug)]
pub struct DistributedOutcome {
    /// Each participant's self-computed rank (index `j−1` for party `j`).
    pub ranks: Vec<usize>,
    /// The initiator's verification report over the received submissions.
    pub report: VerificationReport,
}

type Net = FaultyMesh<Bytes>;

/// Per-thread protocol context: the party's mesh endpoint plus the
/// deadline budget, with failure paths that broadcast abort frames.
struct Ctx {
    net: Net,
    me: usize,
    /// Number of participants (the mesh holds `n + 1` parties).
    n: usize,
    budget: PhaseBudget,
    codec: Codec,
    /// Where every [`Msg`] this party sends is recorded, if anywhere.
    tap: Option<Transcript>,
    /// Seen-abort latch: the first abort frame this party accepted, with
    /// the lane that delivered it. Only the first frame is re-broadcast
    /// and only the first frame determines this party's exit error —
    /// later frames (replays, forgeries, echoes of our own re-broadcast)
    /// can neither ping-pong between survivors nor overwrite earlier,
    /// correct blame.
    seen: RefCell<Option<(AbortFrame, usize)>>,
}

impl Ctx {
    fn new(
        net: Net,
        me: usize,
        params: &FrameworkParams,
        budget: PhaseBudget,
        tap: Option<Transcript>,
    ) -> Self {
        Ctx {
            net,
            me,
            n: params.participants(),
            budget,
            codec: Codec::new(params.group().group()),
            tap,
            seen: RefCell::new(None),
        }
    }

    /// Frames `msg` (an encoding failure blames this party) and sends it to
    /// `to`: one receiver, or a broadcast to every other participant.
    fn send_msg(&self, to: &[usize], msg: &Msg) -> Result<(), DistributedError> {
        let bytes = msg
            .encode(&self.codec)
            .map_err(|e| self.protocol(self.me, e))?;
        match to {
            [j] => self.send(*j, bytes),
            _ => self.bcast_participants(&bytes),
        }
    }

    /// Receives `round`'s message from `from`, decoding it (undecodable
    /// bytes blame `from`). Waits that legitimately span upstream work get
    /// scaled allowances: the initiator serves the gain in id order, the
    /// chain reaches `P_j` after `j − 1` hops and returns after `n − 1`,
    /// and the submission gather spans the whole session.
    fn recv_msg(&self, round: Round, from: usize) -> Result<Msg, DistributedError> {
        let (me, n) = (self.me, self.n);
        let payload = match round {
            Round::Submit => self.recv_within(from, self.budget.session_total(n))?,
            Round::GainReply(_) => self.recv_scaled(from, me as u32)?,
            Round::Hop(i) => self.recv_scaled(from, (if i < n { me } else { n }) as u32)?,
            _ => self.recv_scaled(from, 1)?,
        };
        Msg::decode(round, n, &self.codec, payload).map_err(|e| self.protocol(from, e))
    }

    /// Declares entry into `phase` (scripted crashes fire here).
    fn enter(&self, phase: Phase) -> Result<(), DistributedError> {
        self.net
            .enter_phase(phase)
            .map_err(|_| DistributedError::Crashed { party: self.me })
    }

    /// Broadcasts an abort frame describing `e` (best-effort, to every
    /// party) and returns `e`. The frame carries only blame — never
    /// protocol state — so survivors learn *who* failed and nothing else.
    fn fail(&self, e: DistributedError) -> DistributedError {
        let (blamed, phase, kind) = match &e {
            DistributedError::Timeout { party, phase } => (*party, *phase, AbortKind::Timeout),
            DistributedError::Disconnected { party, phase } => {
                (*party, *phase, AbortKind::Disconnected)
            }
            DistributedError::ProofRejected { party } => {
                (*party, self.net.phase(), AbortKind::ProofRejected)
            }
            DistributedError::Protocol { party, .. } => {
                (*party, self.net.phase(), AbortKind::Protocol)
            }
            // Secondhand errors re-broadcast the *original* frame at
            // adoption time (inside `adopt`), never a rewritten one; a
            // crashed party is dead and must not speak.
            DistributedError::Reported { .. }
            | DistributedError::FalselyAccused { .. }
            | DistributedError::Crashed { .. } => return e,
        };
        let reporter = self.me;
        let frame = AbortFrame {
            blamed,
            phase,
            kind,
            reporter,
        };
        let _ = self.net.broadcast(&frame.encode());
        e
    }

    /// Adopts an abort frame received on lane `via`.
    ///
    /// The first frame a party accepts is latched and re-broadcast
    /// *verbatim, exactly once* (so parties waiting on this party's lanes
    /// learn the original blame rather than blaming this party's exit —
    /// and so a replayed frame cannot ping-pong between survivors). Any
    /// later frame is discarded: the exit error always derives from the
    /// latched first frame.
    ///
    /// A frame blaming *this* party is refuted by the fact that this
    /// party is alive to read it, so it converts to
    /// [`DistributedError::FalselyAccused`] naming the frame's reporter;
    /// any other frame becomes hearsay
    /// ([`DistributedError::Reported`]).
    fn adopt(&self, frame: AbortFrame, via: usize) -> DistributedError {
        // Unauthenticated ids are still range-checked: a frame naming an
        // impossible party, or one whose reporter accuses itself, cannot
        // have been built by honest code — blame whoever delivered it.
        if frame.blamed > self.n || frame.reporter > self.n || frame.blamed == frame.reporter {
            return self.protocol(via, "abort frame with impossible ids");
        }
        let first = {
            let mut seen = self.seen.borrow_mut();
            if seen.is_none() {
                *seen = Some((frame, via));
                true
            } else {
                false
            }
        };
        if first {
            let _ = self.net.broadcast(&frame.encode());
        }
        // The latched first frame wins; the fallback arm is unreachable
        // (the latch was set above if it was empty).
        let (frame, via) = (*self.seen.borrow()).unwrap_or((frame, via));
        if frame.blamed == self.me {
            return DistributedError::FalselyAccused {
                party: frame.reporter,
                phase: self.net.phase(),
                via,
            };
        }
        DistributedError::Reported {
            party: frame.blamed,
            phase: frame.phase,
            kind: frame.kind,
            reporter: frame.reporter,
            via,
        }
    }

    /// A protocol-violation failure blaming `party` (abort broadcast).
    fn protocol(&self, party: usize, what: impl fmt::Display) -> DistributedError {
        self.fail(DistributedError::Protocol {
            party,
            what: what.to_string(),
        })
    }

    /// Receives a data frame from `from`, waiting at most `timeout`; abort
    /// frames are adopted, mesh failures blamed on the awaited party.
    fn recv_within(&self, from: usize, timeout: Duration) -> Result<Bytes, DistributedError> {
        let phase = self.net.phase();
        let raw = self
            .net
            .recv_from_timeout(from, timeout)
            .map_err(|e| match e {
                MeshError::Timeout { peer } => {
                    self.fail(DistributedError::Timeout { party: peer, phase })
                }
                MeshError::Disconnected { peer } => {
                    self.fail(DistributedError::Disconnected { party: peer, phase })
                }
                MeshError::Crashed => DistributedError::Crashed { party: self.me },
                other => self.fail(DistributedError::Protocol {
                    party: self.me,
                    what: other.to_string(),
                }),
            })?;
        match parse_frame(&raw) {
            Ok(Frame::Data(payload)) => Ok(payload),
            Ok(Frame::Abort(frame)) => Err(self.adopt(frame, from)),
            Err(e) => Err(self.protocol(from, e)),
        }
    }

    /// Receives from `from` within `steps` allowances of the current
    /// phase. `steps > 1` covers waits that legitimately span several
    /// upstream parties' work (the shuffle chain, serial service loops).
    fn recv_scaled(&self, from: usize, steps: u32) -> Result<Bytes, DistributedError> {
        self.recv_within(from, self.budget.of(self.net.phase()) * steps.max(1))
    }

    /// Drains a torn-down peer's inbound lane looking for its final abort
    /// frame — a failing party broadcasts one *before* dropping its mesh,
    /// so by the time a send to it errors, any explanation it had is
    /// already queued. Skips over stale data frames (the session is dead
    /// either way). `None` means the peer died silently (a crash).
    ///
    /// This is what keeps an honest party that aborted early — because it
    /// caught a third party misbehaving — from being blamed for
    /// "disconnecting" by peers that were mid-broadcast to it: its last
    /// words name the real culprit.
    fn last_words(&self, peer: usize) -> Option<AbortFrame> {
        loop {
            let raw = self
                .net
                .recv_from_timeout(peer, Duration::from_millis(25))
                .ok()?;
            if let Ok(Frame::Abort(frame)) = parse_frame(&raw) {
                return Some(frame);
            }
        }
    }

    /// Converts a failed send to `peer` into blame: the peer's queued
    /// abort frame if it left one (adopting the original accusation),
    /// otherwise a first-hand disconnect observation.
    fn send_failure(&self, peer: usize, phase: Phase) -> DistributedError {
        match self.last_words(peer) {
            Some(frame) => self.adopt(frame, peer),
            None => self.fail(DistributedError::Disconnected { party: peer, phase }),
        }
    }

    /// Sends `bytes` to `to`; a torn-down peer is blamed immediately
    /// (after adopting any abort frame it left behind).
    fn send(&self, to: usize, bytes: Bytes) -> Result<(), DistributedError> {
        let phase = self.net.phase();
        self.net.send(to, bytes).map_err(|e| match e {
            MeshError::Crashed => DistributedError::Crashed { party: self.me },
            MeshError::Disconnected { peer } => self.send_failure(peer, phase),
            other => self.fail(DistributedError::Protocol {
                party: self.me,
                what: other.to_string(),
            }),
        })
    }

    /// Broadcasts to every *participant* (not the initiator), attempting
    /// all peers; the first torn-down peer is blamed (after adopting any
    /// abort frame it left behind).
    fn bcast_participants(&self, bytes: &Bytes) -> Result<(), DistributedError> {
        let phase = self.net.phase();
        let mut failed = Vec::new();
        for j in 1..=self.n {
            if j == self.me {
                continue;
            }
            match self.net.send(j, bytes.clone()) {
                Ok(()) => {}
                Err(MeshError::Crashed) => {
                    return Err(DistributedError::Crashed { party: self.me })
                }
                Err(_) => failed.push(j),
            }
        }
        match failed.first() {
            None => Ok(()),
            Some(&party) => Err(self.send_failure(party, phase)),
        }
    }
}

/// Runs the full framework with one thread per party over a channel mesh,
/// with default deadlines and no fault injection.
///
/// # Errors
///
/// Returns the primary [`DistributedError`] if any party hits a malformed
/// message, a failed proof, a timeout, or a disconnected peer.
pub fn run_distributed(
    params: &FrameworkParams,
    profile: InitiatorProfile,
    infos: Vec<InfoVector>,
) -> Result<DistributedOutcome, DistributedError> {
    run_distributed_with(params, profile, infos, DistributedConfig::default())
        .map_err(|f| f.primary)
}

/// Runs the distributed framework under an explicit [`DistributedConfig`]
/// (deadline budget and optional fault injection).
///
/// Every thread is joined even when the session fails, so a returned
/// [`DistributedFailure`] lists what *each* party observed — the liveness
/// guarantee is that all of them return within their deadlines.
///
/// # Errors
///
/// [`DistributedFailure`] carrying the consensus blame and all per-party
/// observations.
pub fn run_distributed_with(
    params: &FrameworkParams,
    profile: InitiatorProfile,
    infos: Vec<InfoVector>,
    config: DistributedConfig,
) -> Result<DistributedOutcome, DistributedFailure> {
    run_mesh(params, profile, infos, config, None)
}

/// [`run_distributed`] that also records every protocol message each party
/// sends into `transcript`, as encoded frames — what an in-process run of
/// the same session records ([`crate::SessionMachine::record_transcript`]).
///
/// # Errors
///
/// As [`run_distributed`].
pub fn run_distributed_recorded(
    params: &FrameworkParams,
    profile: InitiatorProfile,
    infos: Vec<InfoVector>,
    transcript: &Transcript,
) -> Result<DistributedOutcome, DistributedError> {
    let config = DistributedConfig::default();
    run_mesh(params, profile, infos, config, Some(transcript)).map_err(|f| f.primary)
}

fn run_mesh(
    params: &FrameworkParams,
    profile: InitiatorProfile,
    infos: Vec<InfoVector>,
    config: DistributedConfig,
    tap: Option<&Transcript>,
) -> Result<DistributedOutcome, DistributedFailure> {
    let n = params.participants();
    assert_eq!(infos.len(), n, "population size mismatch");
    let budget = config.budget;
    let stash = CrashStash::new();
    let plan = config.faults;
    let wrap = |h| match &plan {
        Some(p) => FaultyMesh::with_plan(h, Arc::clone(p), stash.clone()),
        None => FaultyMesh::passthrough(h),
    };
    let nets: Vec<Net> = LocalMesh::new::<Bytes>(n + 1)
        .into_iter()
        .map(wrap)
        .collect();

    let mut threads = Vec::with_capacity(n + 1);
    let mut infos = infos.into_iter();
    for net in nets {
        let me = net.id();
        let info = if me == 0 { None } else { infos.next() };
        let ctx = Ctx::new(net, me, params, budget, tap.cloned());
        let (params, profile) = (params.clone(), profile.clone());
        threads.push(thread::spawn(move || match info {
            None => initiator(&ctx, &params, &profile).map(Exit::Report),
            Some(info) => participant(&ctx, &params, info).map(Exit::Rank),
        }));
    }

    // Join *everything* before judging the outcome: the liveness guarantee
    // is that every thread returns, not merely the first.
    let mut observations: Vec<(usize, DistributedError)> = Vec::new();
    let mut report = None;
    let mut ranks = vec![0usize; n];
    for (party, t) in threads.into_iter().enumerate() {
        let result = t.join().unwrap_or_else(|_| {
            let what = "thread panicked".into();
            Err(DistributedError::Protocol { party, what })
        });
        match result {
            Ok(Exit::Report(r)) => report = Some(r),
            Ok(Exit::Rank(rank)) => ranks[party - 1] = rank,
            Err(e) => observations.push((party, e)),
        }
    }
    drop(stash); // silently-stalled handles may close only after all joins

    if let (Some(report), true) = (report, observations.is_empty()) {
        return Ok(DistributedOutcome { ranks, report });
    }
    let primary = consensus_primary(&observations).unwrap_or(DistributedError::Protocol {
        party: 0,
        what: "session failed with no observations".into(),
    });
    Err(DistributedFailure {
        primary,
        observations,
    })
}

/// What a party thread returns on success.
enum Exit {
    Report(VerificationReport),
    Rank(usize),
}

/// Picks the consensus primary — the observation closest to the root
/// cause — from every thread's exit error.
///
/// Ranking, best first:
///
/// 1. **First-hand misbehavior evidence** ([`DistributedError::ProofRejected`],
///    [`DistributedError::Protocol`]): the observer held the bad bytes.
/// 2. **A refuted accusation** ([`DistributedError::FalselyAccused`]): a
///    party alive to read a frame blaming itself. A *genuine* accusation
///    always coexists with its accuser's first-hand evidence (which
///    outranks this), so a `FalselyAccused` winning the pick means the
///    frame was forged — and its claimed reporter is the culprit.
/// 3. **First-hand liveness evidence** ([`DistributedError::Timeout`],
///    [`DistributedError::Disconnected`]), earliest phase first — a party
///    wedged in `encrypt` also strands the initiator's `submit` gather,
///    but `encrypt` is where it died.
/// 4. **Hearsay** ([`DistributedError::Reported`]): blame adopted from an
///    unauthenticated abort frame. Ranking hearsay below *every*
///    first-hand observation is what stops a misbehaving party's forged
///    self-serving frames — adopted by low-id survivors — from outranking
///    a high-id victim's direct evidence.
/// 5. [`DistributedError::Crashed`]: a thread's own injected-fault exit
///    marker, never blame evidence.
///
/// Ties break by observation order (party order). Returns `None` only for
/// an empty observation list.
pub fn consensus_primary(observations: &[(usize, DistributedError)]) -> Option<DistributedError> {
    let rank = |e: &DistributedError| match e {
        DistributedError::ProofRejected { .. } | DistributedError::Protocol { .. } => 0i64,
        DistributedError::FalselyAccused { .. } => 1,
        DistributedError::Timeout { phase, .. } | DistributedError::Disconnected { phase, .. } => {
            2 + Phase::ALL.iter().position(|p| p == phase).unwrap_or(0) as i64
        }
        DistributedError::Reported { .. } => 100,
        DistributedError::Crashed { .. } => i64::MAX,
    };
    observations
        .iter()
        .enumerate()
        .min_by_key(|(order, (_, e))| (rank(e), *order))
        .map(|(_, (_, e))| e.clone())
}

/// The initiator (`P₀`): serves the gain rounds, then checks the
/// submissions.
fn initiator(
    ctx: &Ctx,
    params: &FrameworkParams,
    profile: &InitiatorProfile,
) -> Result<VerificationReport, DistributedError> {
    let mut initiator = Initiator::new(params, profile, &ctx.codec.field);
    drive(ctx, &mut initiator, params.beta_bits())?;
    Ok(initiator.verify(&TrafficLog::new(), &mut PartyTimer::new(1), 0))
}

/// One participant (`P_j`), from its own stock slice. Every party already
/// has a thread, so its local work runs serially.
fn participant(
    ctx: &Ctx,
    params: &FrameworkParams,
    info: InfoVector,
) -> Result<usize, DistributedError> {
    let (me, l) = (ctx.me, params.beta_bits());
    let options = SortOptions {
        threads: 1,
        ..SortOptions::default()
    };
    let mut party = Party::for_session(params, &ctx.codec.field, me, info, options);
    let fp = StockFingerprint::new(params.seed(), params.participants(), l, params.group());
    party.attach_stock(PartyStock::generate_own(&fp, me), None);
    drive(ctx, &mut party, l)?;
    Ok(party.rank)
}

/// Walks party `ctx.me`'s side of the schedule over the mesh: in every
/// round it takes part in, the node computes and its messages are framed
/// and sent, then each expected message is received, checked
/// structurally and handed to the node. Phases are entered as the
/// schedule reaches them (scripted crashes fire there).
fn drive(ctx: &Ctx, node: &mut dyn Node, l: usize) -> Result<(), DistributedError> {
    let (me, n) = (ctx.me, ctx.n);
    // The mesh reports no per-party timings.
    let (mut timer, mut scratch, mut phase) = (PartyTimer::new(n + 1), Vec::new(), None);
    for round in Round::schedule(n) {
        let senders = round.senders_to(me, n);
        if !round.acts(me, n) && senders.is_empty() {
            continue;
        }
        if phase != Some(round.phase()) {
            ctx.enter(round.phase())?;
            phase = Some(round.phase());
        }
        let tap = ctx.tap.as_ref().map(|t| (&ctx.codec, t));
        let outbox =
            emit(node, me, round, &mut timer, &mut scratch, tap).map_err(|e| ctx.fail(e))?;
        for (to, msg) in outbox {
            ctx.send_msg(&to, &msg)?;
            // Every challenge share is echoed at once: a broadcast digest
            // binding it to its sender and prover (see `share_digest`).
            if let (Round::Challenge(prover), Msg::Scalar(share)) = (round, &msg) {
                let mut echo = Writer::framed();
                echo.put_raw(&share_digest(&ctx.codec.group, prover, me, share));
                ctx.bcast_participants(&echo.finish())?;
            }
        }
        for from in senders {
            let msg = ctx.recv_msg(round, from)?;
            check(ctx, round, from, &msg, l)?;
            node.receive(round, from, msg, &mut timer)
                .map_err(|e| ctx.fail(e))?;
        }
    }
    Ok(())
}

/// The mesh's integrity checks on a received message, all blaming the
/// sender `from`: every ciphertext set must carry exactly its advertised
/// count with no duplicate ([`check_set`]), the chain vector one set per
/// owner, and every challenge share must match the sender's own echo of it
/// — a verifier that equivocates (different share bytes down different
/// lanes) is caught by whoever got the minority bytes, before the
/// mismatched challenge sums could get an honest prover blamed.
fn check(
    ctx: &Ctx,
    round: Round,
    from: usize,
    msg: &Msg,
    l: usize,
) -> Result<(), DistributedError> {
    let set_len = (ctx.n - 1) * l;
    match (round, msg) {
        (Round::Bits, Msg::Set(bits)) => check_set(ctx, bits, from, l),
        (_, Msg::Set(set)) => check_set(ctx, set, from, set_len),
        (_, Msg::Chain(sets)) if sets.len() != ctx.n => {
            Err(ctx.protocol(from, "chain vector has wrong arity"))
        }
        (_, Msg::Chain(sets)) => sets
            .iter()
            .try_for_each(|set| check_set(ctx, set, from, set_len)),
        (Round::Challenge(prover), Msg::Scalar(share)) => {
            let echo = ctx.recv_scaled(from, 1)?;
            if echo[..] != share_digest(&ctx.codec.group, prover, from, share)[..] {
                return Err(ctx.protocol(
                    from,
                    "challenge share inconsistent with its echo (equivocating broadcast)",
                ));
            }
            Ok(())
        }
        _ => Ok(()),
    }
}

/// Domain-separated digest binding a keygen challenge share to its prover
/// round and sender. Broadcast as an echo right after the share itself, so
/// every receiver can check that the share bytes it was handed match the
/// sender's public claim — an equivocating verifier (different shares down
/// different lanes) is caught by whoever got the minority bytes, with
/// first-hand evidence against the sender.
///
/// Hashing consumes no randomness, so fault-free transcripts are
/// unaffected. Caveat (see `docs/FAULTS.md`): a *wire-level* adversary
/// that tampers both the share and its echo on the same lane defeats this
/// attribution; frames are unsigned, so the mesh lane itself is trusted.
fn share_digest(group: &Group, prover: usize, sender: usize, share: &Scalar) -> [u8; 32] {
    let mut w = Writer::new();
    w.put_u64(prover as u64);
    w.put_u64(sender as u64);
    w.put_scalar(group, share);
    let mut h = Sha256::new();
    h.update(b"ppgr keygen echo v1");
    h.update(&w.finish());
    h.finalize()
}

/// True when two ciphertexts in `set` serialise identically. Honest
/// parties re-randomize every element they produce or forward, so a
/// repeat happens with negligible probability — an observed duplicate is
/// a scripted inconsistent shuffle (an element copied over another to
/// bias the zero count).
fn has_duplicate(group: &Group, set: &[Ciphertext]) -> bool {
    let mut seen = HashSet::with_capacity(set.len());
    for ct in set {
        let mut key = group.encode(&ct.alpha);
        key.extend_from_slice(&group.encode(&ct.beta));
        if !seen.insert(key) {
            return true;
        }
    }
    false
}

/// Structural integrity of a received ciphertext set (a bit vector or a
/// comparison set): advertised cardinality and no duplicated ciphertext.
/// Every party re-encrypts and re-shuffles each set it forwards, so honest
/// relays always pass — a violation always implicates the immediate sender
/// `from`, never an upstream party whose bytes were merely relayed.
fn check_set(
    ctx: &Ctx,
    set: &[Ciphertext],
    from: usize,
    expected: usize,
) -> Result<(), DistributedError> {
    if set.len() != expected {
        return Err(ctx.protocol(
            from,
            format!(
                "ciphertext set carries {} ciphertexts, expected {expected}",
                set.len()
            ),
        ));
    }
    if has_duplicate(&ctx.codec.group, set) {
        return Err(ctx.protocol(
            from,
            "duplicate ciphertext in a set (inconsistent shuffle or copied bit)",
        ));
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::attrs::Questionnaire;
    use crate::framework::GroupRanking;
    use ppgr_group::GroupKind;
    use ppgr_hash::HashDrbg;
    use rand::SeedableRng;

    fn params(n: usize, seed: u64) -> FrameworkParams {
        FrameworkParams::builder(Questionnaire::synthetic(1, 2))
            .participants(n)
            .top_k(2)
            .attr_bits(6)
            .weight_bits(3)
            .mask_bits(6)
            .group(GroupKind::Ecc160)
            .seed(seed)
            .build()
            .unwrap()
    }

    #[test]
    fn distributed_run_produces_valid_ranking() {
        let p = params(4, 51);
        let mut rng = HashDrbg::seed_from_u64(p.seed());
        let (profile, infos) = p.random_population(&mut rng);
        let out = run_distributed(&p, profile.clone(), infos.clone()).unwrap();

        // Validate against plaintext gains.
        let q = p.questionnaire();
        let gains: Vec<i128> = infos
            .iter()
            .map(|i| crate::attrs::gain(q, &profile, i))
            .collect();
        for a in 0..gains.len() {
            for b in 0..gains.len() {
                if gains[a] > gains[b] {
                    assert!(
                        out.ranks[a] < out.ranks[b],
                        "gains {gains:?} ranks {:?}",
                        out.ranks
                    );
                }
            }
        }
        assert!(out.report.is_clean());
        assert!(!out.report.accepted.is_empty());
    }

    #[test]
    fn distributed_matches_orchestrated() {
        let p = params(3, 77);
        let mut rng = HashDrbg::seed_from_u64(p.seed());
        let (profile, infos) = p.random_population(&mut rng);

        let orchestrated = GroupRanking::new(p.clone())
            .with_random_population()
            .run()
            .unwrap();
        let distributed = run_distributed(&p, profile, infos).unwrap();
        assert_eq!(orchestrated.ranks(), &distributed.ranks[..]);
    }

    #[test]
    fn two_party_chain_works() {
        let p = params(2, 5);
        let mut rng = HashDrbg::seed_from_u64(p.seed());
        let (profile, infos) = p.random_population(&mut rng);
        let out = run_distributed(&p, profile, infos).unwrap();
        let mut sorted = out.ranks.clone();
        sorted.sort_unstable();
        assert!(sorted == vec![1, 2] || sorted == vec![1, 1]);
    }

    #[test]
    fn blamed_names_the_party_for_every_variant() {
        let e = DistributedError::Timeout {
            party: 3,
            phase: Phase::Hop,
        };
        assert_eq!(e.blamed(), 3);
        assert_eq!(DistributedError::ProofRejected { party: 2 }.blamed(), 2);
        assert_eq!(
            DistributedError::Protocol {
                party: 1,
                what: "x".into()
            }
            .blamed(),
            1
        );
        assert_eq!(DistributedError::Crashed { party: 4 }.blamed(), 4);
        assert_eq!(
            DistributedError::Reported {
                party: 2,
                phase: Phase::Encrypt,
                kind: AbortKind::Protocol,
                reporter: 1,
                via: 3,
            }
            .blamed(),
            2
        );
        assert_eq!(
            DistributedError::FalselyAccused {
                party: 3,
                phase: Phase::KeyGen,
                via: 3,
            }
            .blamed(),
            3
        );
    }

    #[test]
    fn seen_abort_latch_keeps_the_first_frame_and_rebroadcasts_once() {
        use ppgr_net::LocalMesh;
        let mut handles = LocalMesh::new::<Bytes>(2);
        let peer = FaultyMesh::passthrough(handles.pop().unwrap());
        let net = FaultyMesh::passthrough(handles.pop().unwrap());
        let ctx = Ctx::new(
            net,
            0,
            &params(2, 1),
            PhaseBudget::uniform(Duration::from_secs(1)),
            None,
        );
        let first = AbortFrame {
            blamed: 1,
            phase: Phase::KeyGen,
            kind: AbortKind::Protocol,
            reporter: 0,
        };
        let replay = AbortFrame {
            blamed: 0,
            phase: Phase::Encrypt,
            kind: AbortKind::Timeout,
            reporter: 1,
        };
        let e1 = ctx.adopt(first, 1);
        // The replay blames us and would convert to FalselyAccused if it
        // were honored — the latch must keep deriving from `first`.
        let e2 = ctx.adopt(replay, 1);
        for e in [&e1, &e2] {
            assert!(
                matches!(e, DistributedError::Reported { party: 1, .. }),
                "latched frame must win: {e}"
            );
        }
        // Exactly one re-broadcast reached the peer (the first adoption).
        let echoed = peer
            .recv_from_timeout(0, Duration::from_millis(200))
            .unwrap();
        assert_eq!(parse_frame(&echoed), Ok(Frame::Abort(first)));
        assert!(peer
            .recv_from_timeout(0, Duration::from_millis(100))
            .is_err());
    }

    #[test]
    fn adopt_rejects_frames_with_impossible_ids() {
        use ppgr_net::LocalMesh;
        let mut handles = LocalMesh::new::<Bytes>(2);
        let _peer = FaultyMesh::<Bytes>::passthrough(handles.pop().unwrap());
        let net = FaultyMesh::passthrough(handles.pop().unwrap());
        let ctx = Ctx::new(
            net,
            0,
            &params(2, 1),
            PhaseBudget::uniform(Duration::from_secs(1)),
            None,
        );
        // blamed == reporter cannot come from honest code (a party never
        // accuses itself): blame lands on the delivering lane.
        let bogus = AbortFrame {
            blamed: 1,
            phase: Phase::Gain,
            kind: AbortKind::Timeout,
            reporter: 1,
        };
        let e = ctx.adopt(bogus, 1);
        assert!(
            matches!(e, DistributedError::Protocol { party: 1, .. }),
            "{e}"
        );
        let out_of_range = AbortFrame {
            blamed: 9,
            phase: Phase::Gain,
            kind: AbortKind::Timeout,
            reporter: 0,
        };
        let e = ctx.adopt(out_of_range, 1);
        assert!(
            matches!(e, DistributedError::Protocol { party: 1, .. }),
            "{e}"
        );
    }

    #[test]
    fn consensus_prefers_direct_evidence_over_hearsay_regardless_of_order() {
        // A low-id survivor adopting a forged frame (hearsay blaming an
        // honest party) must lose the pick to a high-id victim's
        // first-hand evidence, even though the hearsay observation comes
        // first in party order.
        let obs = vec![
            (
                1,
                DistributedError::Reported {
                    party: 3,
                    phase: Phase::KeyGen,
                    kind: AbortKind::Protocol,
                    reporter: 2,
                    via: 2,
                },
            ),
            (3, DistributedError::ProofRejected { party: 2 }),
        ];
        assert_eq!(
            consensus_primary(&obs),
            Some(DistributedError::ProofRejected { party: 2 })
        );
    }

    #[test]
    fn consensus_prefers_direct_evidence_over_liveness() {
        // The initiator times out waiting on a wedged phase long after the
        // culprit's neighbour caught the bad bytes; the protocol violation
        // is the root cause.
        let obs = vec![
            (
                0,
                DistributedError::Timeout {
                    party: 1,
                    phase: Phase::Submit,
                },
            ),
            (
                2,
                DistributedError::Protocol {
                    party: 1,
                    what: "bad bytes".into(),
                },
            ),
        ];
        assert_eq!(consensus_primary(&obs).unwrap().blamed(), 1);
        assert!(matches!(
            consensus_primary(&obs),
            Some(DistributedError::Protocol { .. })
        ));
    }

    #[test]
    fn consensus_falsely_accused_beats_liveness_and_hearsay() {
        // A forged frame blames party 2; party 2 is alive to refute it and
        // names the frame's claimed reporter. Everyone else saw only
        // hearsay and timeouts — the refutation wins.
        let obs = vec![
            (
                1,
                DistributedError::Reported {
                    party: 2,
                    phase: Phase::Encrypt,
                    kind: AbortKind::Timeout,
                    reporter: 3,
                    via: 3,
                },
            ),
            (
                2,
                DistributedError::FalselyAccused {
                    party: 3,
                    phase: Phase::Encrypt,
                    via: 3,
                },
            ),
            (
                0,
                DistributedError::Timeout {
                    party: 1,
                    phase: Phase::Submit,
                },
            ),
        ];
        assert_eq!(consensus_primary(&obs).unwrap().blamed(), 3);
    }

    #[test]
    fn consensus_liveness_picks_earliest_phase_then_order() {
        let obs = vec![
            (
                0,
                DistributedError::Timeout {
                    party: 2,
                    phase: Phase::Submit,
                },
            ),
            (
                1,
                DistributedError::Disconnected {
                    party: 3,
                    phase: Phase::Encrypt,
                },
            ),
            (
                2,
                DistributedError::Timeout {
                    party: 3,
                    phase: Phase::Encrypt,
                },
            ),
        ];
        assert_eq!(
            consensus_primary(&obs),
            Some(DistributedError::Disconnected {
                party: 3,
                phase: Phase::Encrypt,
            })
        );
    }

    #[test]
    fn consensus_hearsay_beats_only_crash_markers() {
        let obs = vec![
            (2, DistributedError::Crashed { party: 2 }),
            (
                1,
                DistributedError::Reported {
                    party: 2,
                    phase: Phase::Hop,
                    kind: AbortKind::Disconnected,
                    reporter: 1,
                    via: 1,
                },
            ),
        ];
        assert_eq!(consensus_primary(&obs).unwrap().blamed(), 2);
        assert!(matches!(
            consensus_primary(&obs),
            Some(DistributedError::Reported { .. })
        ));
        assert_eq!(consensus_primary(&[]), None);
    }
}
