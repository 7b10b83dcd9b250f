//! Deterministic fault injection over a [`PartyHandle`].
//!
//! [`FaultyMesh`] implements the same send/receive surface as
//! [`PartyHandle`] but consults a [`FaultPlan`] before every operation, so
//! tests can reproduce — bit-for-bit, on every run — a party crashing at a
//! chosen phase, a message being delayed, or a message being lost.
//!
//! Two crash models, mirroring real deployments:
//!
//! * **crash-stop** — the party dies and its connections tear down: peers
//!   observe [`MeshError::Disconnected`] immediately.
//! * **silent-stall** — the party stops participating but its connections
//!   stay open (a wedged process, a malicious mute): peers observe only
//!   [`MeshError::Timeout`] once their deadline lapses. The stalled
//!   party's channels are parked in a [`CrashStash`] that the test driver
//!   keeps alive until every surviving thread has exited.
//!
//! Beyond liveness faults, the plan scripts **misbehavior** — an *active*
//! adversary, in the style of tofn's gg20 malicious-behaviour harness.
//! The misbehaving party's own thread keeps running honest protocol code;
//! the mesh rewrites its *outgoing bytes* ([`Tamper`], applied per lane
//! inside [`FaultyMesh::send`]) or injects forged frames at phase entry
//! ([`FaultPlan::forge`]). Scoping a tamper to a single destination lane
//! ([`FaultPlan::equivocate`]) makes a broadcast equivocate: one receiver
//! sees rewritten bytes while the rest see the original.

use crate::deadline::{Deadline, Phase};
use crate::mesh::{MeshError, PartyHandle};
use std::cell::{Cell, RefCell};
use std::sync::Arc;
use std::sync::{Mutex, PoisonError};
use std::time::Duration;

/// How an injected crash manifests to the other parties.
#[derive(Clone, Copy, Debug, Eq, PartialEq)]
pub enum FaultKind {
    /// Connections tear down: peers see `Disconnected` at once.
    CrashStop,
    /// Connections stay open but fall silent: peers see `Timeout`.
    SilentStall,
}

/// One injected message delay.
#[derive(Clone, Copy, Debug, Eq, PartialEq)]
struct DelayFault {
    from: usize,
    to: usize,
    /// 0-based index on the `(from, to)` lane.
    nth: u64,
    delay: Duration,
}

/// One injected message loss.
#[derive(Clone, Copy, Debug, Eq, PartialEq)]
struct DropFault {
    from: usize,
    to: usize,
    nth: u64,
}

/// A scripted byte-level rewrite of one outgoing message.
///
/// Tampers are pure data (no closures), so a [`FaultPlan`] stays `Clone`,
/// `Eq` and printable — a failing scenario reproduces from its `Debug`
/// output alone. Out-of-range offsets are clamped to no-ops rather than
/// panicking: a tamper that misses its target simply leaves the message
/// honest, and the scenario's assertions catch the mis-aim.
#[derive(Clone, Debug, Eq, PartialEq)]
pub enum Tamper {
    /// XOR `mask` into the byte at `offset` (a flipped ciphertext bit, a
    /// nudged scalar).
    FlipByte {
        /// 0-based byte offset into the encoded message.
        offset: usize,
        /// XOR mask; `0` is a no-op.
        mask: u8,
    },
    /// Replace the entire message with the given bytes (a swapped proof, a
    /// replayed frame).
    Replace(Vec<u8>),
    /// Copy `len` bytes from `src` over `dst` within the message (e.g.
    /// duplicate one ciphertext over another — a shuffle that repeats an
    /// element instead of permuting honestly).
    CopyWithin {
        /// Source offset of the copied region.
        src: usize,
        /// Destination offset overwritten by the copy.
        dst: usize,
        /// Region length in bytes.
        len: usize,
    },
    /// Truncate the message to `len` bytes.
    Truncate(usize),
    /// Append raw bytes after the honest encoding (trailing garbage).
    Append(Vec<u8>),
}

/// One scripted misbehavior: rewrite the `nth` message of `phase` on the
/// `from → to` lane (`to: None` rewrites every lane identically).
#[derive(Clone, Debug, Eq, PartialEq)]
struct TamperFault {
    from: usize,
    /// `None`: all lanes (consistent misbehavior). `Some(w)`: only the
    /// lane to `w` — a broadcast then *equivocates*.
    to: Option<usize>,
    phase: Phase,
    /// 0-based index on the lane, counted per phase (reset at
    /// [`FaultyMesh::enter_phase`]), unlike drop/delay indices which span
    /// the whole session.
    nth: u64,
    tamper: Tamper,
}

/// One scripted frame injection: `from` broadcasts `payload` verbatim to
/// every peer upon entering `phase`, before any honest message of that
/// phase.
#[derive(Clone, Debug, Eq, PartialEq)]
struct ForgeFault {
    from: usize,
    phase: Phase,
    payload: Vec<u8>,
}

/// Messages a [`FaultyMesh`] can tamper with at the byte level.
///
/// The mesh is generic over its message type; scripted misbehavior needs
/// to reach the encoded bytes. Production meshes carry [`bytes::Bytes`]
/// or `Vec<u8>`; the `u8` impl keeps unit tests terse.
pub trait TamperBytes: Sized {
    /// Returns the message with `tamper` applied to its encoding.
    #[must_use]
    fn tampered(self, tamper: &Tamper) -> Self;

    /// Builds a message carrying exactly `bytes` (forged injections).
    fn from_wire(bytes: &[u8]) -> Self;
}

/// Applies a tamper to a byte vector; every offset is bounds-checked so a
/// mis-aimed script degrades to a no-op instead of panicking.
fn tamper_vec(mut v: Vec<u8>, tamper: &Tamper) -> Vec<u8> {
    match tamper {
        Tamper::FlipByte { offset, mask } => {
            if let Some(b) = v.get_mut(*offset) {
                *b ^= mask;
            }
            v
        }
        Tamper::Replace(bytes) => bytes.clone(),
        Tamper::CopyWithin { src, dst, len } => {
            let end_src = src.checked_add(*len);
            let end_dst = dst.checked_add(*len);
            if let (Some(es), Some(ed)) = (end_src, end_dst) {
                if es <= v.len() && ed <= v.len() {
                    v.copy_within(*src..es, *dst);
                }
            }
            v
        }
        Tamper::Truncate(len) => {
            v.truncate(*len);
            v
        }
        Tamper::Append(bytes) => {
            v.extend_from_slice(bytes);
            v
        }
    }
}

impl TamperBytes for Vec<u8> {
    fn tampered(self, tamper: &Tamper) -> Self {
        tamper_vec(self, tamper)
    }

    fn from_wire(bytes: &[u8]) -> Self {
        bytes.to_vec()
    }
}

impl TamperBytes for bytes::Bytes {
    fn tampered(self, tamper: &Tamper) -> Self {
        bytes::Bytes::from(tamper_vec(self.to_vec(), tamper))
    }

    fn from_wire(bytes: &[u8]) -> Self {
        bytes::Bytes::from(bytes.to_vec())
    }
}

/// Single-byte messages (unit tests): `FlipByte`/`Replace` act on the one
/// byte, structural tampers are no-ops.
impl TamperBytes for u8 {
    fn tampered(self, tamper: &Tamper) -> Self {
        match tamper {
            Tamper::FlipByte { offset: 0, mask } => self ^ mask,
            Tamper::Replace(bytes) => bytes.first().copied().unwrap_or(self),
            _ => self,
        }
    }

    fn from_wire(bytes: &[u8]) -> Self {
        bytes.first().copied().unwrap_or(0)
    }
}

/// A deterministic script of failures for one session.
///
/// Build explicitly via the combinators, or derive a single-crash plan
/// from a seed with [`FaultPlan::seeded`]. Plans contain no ambient
/// randomness, so a failing seed reproduces exactly.
#[derive(Clone, Debug, Default, Eq, PartialEq)]
pub struct FaultPlan {
    crashes: Vec<(usize, Phase, FaultKind)>,
    delays: Vec<DelayFault>,
    drops: Vec<DropFault>,
    tampers: Vec<TamperFault>,
    forgeries: Vec<ForgeFault>,
}

impl FaultPlan {
    /// An empty plan (no injected faults).
    pub fn new() -> Self {
        FaultPlan::default()
    }

    /// Crash `party` (connections torn down) when it enters `phase`.
    #[must_use]
    pub fn crash_stop(mut self, party: usize, phase: Phase) -> Self {
        self.crashes.push((party, phase, FaultKind::CrashStop));
        self
    }

    /// Stall `party` (connections kept open, silence) at `phase` entry.
    #[must_use]
    pub fn silent_stall(mut self, party: usize, phase: Phase) -> Self {
        self.crashes.push((party, phase, FaultKind::SilentStall));
        self
    }

    /// Delay the `nth` (0-based) message on the `from → to` lane by
    /// `delay` before it is handed to the channel.
    #[must_use]
    pub fn delay(mut self, from: usize, to: usize, nth: u64, delay: Duration) -> Self {
        self.delays.push(DelayFault {
            from,
            to,
            nth,
            delay,
        });
        self
    }

    /// Silently lose the `nth` (0-based) message on the `from → to` lane.
    #[must_use]
    pub fn drop_nth(mut self, from: usize, to: usize, nth: u64) -> Self {
        self.drops.push(DropFault { from, to, nth });
        self
    }

    /// Rewrite the bytes of `from`'s `nth` message of `phase` on *every*
    /// lane (consistent misbehavior: all receivers see the same rewritten
    /// bytes). `nth` counts per lane within the phase.
    #[must_use]
    pub fn tamper(mut self, from: usize, phase: Phase, nth: u64, tamper: Tamper) -> Self {
        self.tampers.push(TamperFault {
            from,
            to: None,
            phase,
            nth,
            tamper,
        });
        self
    }

    /// Rewrite the bytes of `from`'s `nth` message of `phase` on the lane
    /// to `to` *only*: a broadcast through this fault equivocates —
    /// `to` receives the rewritten bytes while every other receiver gets
    /// the honest original.
    #[must_use]
    pub fn equivocate(
        mut self,
        from: usize,
        to: usize,
        phase: Phase,
        nth: u64,
        tamper: Tamper,
    ) -> Self {
        self.tampers.push(TamperFault {
            from,
            to: Some(to),
            phase,
            nth,
            tamper,
        });
        self
    }

    /// Inject `payload` verbatim from `from` to every peer when `from`
    /// enters `phase`, ahead of any honest message of that phase (forged
    /// or replayed frames — e.g. a fabricated abort). Multiple forgeries
    /// for the same `(from, phase)` are sent in insertion order.
    #[must_use]
    pub fn forge(mut self, from: usize, phase: Phase, payload: Vec<u8>) -> Self {
        self.forgeries.push(ForgeFault {
            from,
            phase,
            payload,
        });
        self
    }

    /// Whether the plan scripts any active misbehavior (tamper, forge) as
    /// opposed to pure liveness faults.
    pub fn has_misbehavior(&self) -> bool {
        !self.tampers.is_empty() || !self.forgeries.is_empty()
    }

    /// Derives a single-crash plan from `seed`: one participant (id in
    /// `1..=participants`) crashing at a seed-chosen phase, alternating
    /// crash-stop / silent-stall. The derivation is a fixed xorshift — no
    /// ambient entropy — so a seed names one reproducible failure.
    ///
    /// With zero participants there is nobody to crash, so the plan is
    /// empty (rather than naming the out-of-range victim id `1`).
    pub fn seeded(seed: u64, participants: usize) -> Self {
        if participants == 0 {
            return FaultPlan::new();
        }
        let mut x = seed.wrapping_mul(0x9E37_79B9_7F4A_7C15) | 1;
        let mut next = || {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            x
        };
        let victim = 1 + (next() as usize) % participants;
        let phase = Phase::ALL[(next() as usize) % Phase::ALL.len()];
        let plan = FaultPlan::new();
        if next() & 1 == 0 {
            plan.crash_stop(victim, phase)
        } else {
            plan.silent_stall(victim, phase)
        }
    }

    /// The injected crash for `party` at `phase`, if any.
    pub fn crash_at(&self, party: usize, phase: Phase) -> Option<FaultKind> {
        self.crashes
            .iter()
            .find(|(p, ph, _)| *p == party && *ph == phase)
            .map(|(_, _, k)| *k)
    }

    /// The scripted crash (party, phase, kind) entries, in insertion order.
    pub fn crashes(&self) -> impl Iterator<Item = (usize, Phase, FaultKind)> + '_ {
        self.crashes.iter().copied()
    }

    fn delay_for(&self, from: usize, to: usize, nth: u64) -> Option<Duration> {
        self.delays
            .iter()
            .find(|d| d.from == from && d.to == to && d.nth == nth)
            .map(|d| d.delay)
    }

    fn drops_message(&self, from: usize, to: usize, nth: u64) -> bool {
        self.drops
            .iter()
            .any(|d| d.from == from && d.to == to && d.nth == nth)
    }

    fn tamper_for(&self, from: usize, to: usize, phase: Phase, nth: u64) -> Option<&Tamper> {
        self.tampers
            .iter()
            .find(|t| {
                t.from == from && t.phase == phase && t.nth == nth && t.to.is_none_or(|w| w == to)
            })
            .map(|t| &t.tamper)
    }

    fn forgeries_at(&self, from: usize, phase: Phase) -> impl Iterator<Item = &[u8]> {
        self.forgeries
            .iter()
            .filter(move |f| f.from == from && f.phase == phase)
            .map(|f| f.payload.as_slice())
    }
}

/// Keeps the channels of silently-stalled parties alive.
///
/// A stalled party's thread exits, but its [`PartyHandle`] must not drop —
/// that would close its channels and convert the stall into a visible
/// disconnect. The driver holds the stash until all survivors have
/// finished.
pub struct CrashStash<T> {
    parked: Arc<Mutex<Vec<PartyHandle<T>>>>,
}

impl<T> CrashStash<T> {
    /// An empty stash.
    pub fn new() -> Self {
        CrashStash {
            parked: Arc::new(Mutex::new(Vec::new())),
        }
    }

    /// Number of parked handles.
    pub fn parked(&self) -> usize {
        self.parked
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
            .len()
    }

    fn park(&self, handle: PartyHandle<T>) {
        self.parked
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
            .push(handle);
    }
}

impl<T> Default for CrashStash<T> {
    fn default() -> Self {
        CrashStash::new()
    }
}

impl<T> Clone for CrashStash<T> {
    fn clone(&self) -> Self {
        CrashStash {
            parked: Arc::clone(&self.parked),
        }
    }
}

impl<T> std::fmt::Debug for CrashStash<T> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("CrashStash")
            .field("parked", &self.parked())
            .finish()
    }
}

/// A [`PartyHandle`] with a [`FaultPlan`] wired into every operation.
///
/// With an empty plan this is a transparent pass-through, so protocol
/// code can be written against `FaultyMesh` unconditionally. The wrapper
/// is single-owner like the handle it wraps (interior mutability, `Send`
/// but not `Sync`).
#[derive(Debug)]
pub struct FaultyMesh<T> {
    id: usize,
    n: usize,
    /// `None` once this party crashed.
    inner: RefCell<Option<PartyHandle<T>>>,
    plan: Arc<FaultPlan>,
    stash: CrashStash<T>,
    phase: Cell<Phase>,
    /// Per-destination sent-message counters (dense, self slot unused).
    sent: RefCell<Vec<u64>>,
    /// Like `sent`, but reset at every [`enter_phase`](Self::enter_phase)
    /// — tampers address the nth message *of a phase* so scripts don't
    /// have to count the whole session's traffic.
    phase_sent: RefCell<Vec<u64>>,
}

impl<T> FaultyMesh<T> {
    /// Wraps `handle` with no faults (transparent pass-through).
    pub fn passthrough(handle: PartyHandle<T>) -> Self {
        FaultyMesh::with_plan(handle, Arc::new(FaultPlan::new()), CrashStash::new())
    }

    /// Wraps `handle` under `plan`; stalled handles park in `stash`.
    pub fn with_plan(handle: PartyHandle<T>, plan: Arc<FaultPlan>, stash: CrashStash<T>) -> Self {
        let (id, n) = (handle.id(), handle.parties());
        FaultyMesh {
            id,
            n,
            inner: RefCell::new(Some(handle)),
            plan,
            stash,
            phase: Cell::new(Phase::Gain),
            sent: RefCell::new(vec![0; n]),
            phase_sent: RefCell::new(vec![0; n]),
        }
    }

    /// This party's id.
    pub fn id(&self) -> usize {
        self.id
    }

    /// Number of parties in the mesh.
    pub fn parties(&self) -> usize {
        self.n
    }

    /// The phase most recently entered.
    pub fn phase(&self) -> Phase {
        self.phase.get()
    }

    /// Declares entry into `phase`; the scripted crash for
    /// `(self.id, phase)` fires here, *before* any message of the phase,
    /// and scripted forgeries for `(self.id, phase)` are injected to every
    /// peer, ahead of the phase's honest messages (and ahead of the crash,
    /// so a plan can forge a frame and then vanish).
    ///
    /// # Errors
    ///
    /// [`MeshError::Crashed`] if this party's crash fired (now or
    /// earlier); the caller must unwind its protocol thread.
    pub fn enter_phase(&self, phase: Phase) -> Result<(), MeshError>
    where
        T: TamperBytes,
    {
        if self.inner.borrow().is_none() {
            return Err(MeshError::Crashed);
        }
        self.phase.set(phase);
        self.phase_sent.borrow_mut().fill(0);
        for payload in self.plan.forgeries_at(self.id, phase) {
            let inner = self.inner.borrow();
            if let Some(handle) = inner.as_ref() {
                for to in 0..self.n {
                    if to != self.id {
                        // Best-effort: a dead lane cannot receive a forgery.
                        let _ = handle.send(to, T::from_wire(payload));
                    }
                }
            }
        }
        match self.plan.crash_at(self.id, phase) {
            None => Ok(()),
            Some(kind) => {
                let handle = self.inner.borrow_mut().take();
                if kind == FaultKind::SilentStall {
                    if let Some(h) = handle {
                        self.stash.park(h);
                    }
                } // CrashStop: dropping the handle closes every lane.
                Err(MeshError::Crashed)
            }
        }
    }

    /// Sends `message` to party `to`, applying scripted drops, delays and
    /// byte tampers (tampers address the per-phase lane index; see
    /// [`FaultPlan::tamper`]).
    ///
    /// # Errors
    ///
    /// [`MeshError::Crashed`] if this party crashed, otherwise as
    /// [`PartyHandle::send`].
    pub fn send(&self, to: usize, message: T) -> Result<(), MeshError>
    where
        T: TamperBytes,
    {
        let inner = self.inner.borrow();
        let Some(handle) = inner.as_ref() else {
            return Err(MeshError::Crashed);
        };
        let nth = {
            let mut sent = self.sent.borrow_mut();
            let Some(counter) = sent.get_mut(to) else {
                return Err(MeshError::UnknownParty(to));
            };
            let nth = *counter;
            *counter += 1;
            nth
        };
        let phase_nth = {
            let mut sent = self.phase_sent.borrow_mut();
            let Some(counter) = sent.get_mut(to) else {
                return Err(MeshError::UnknownParty(to));
            };
            let nth = *counter;
            *counter += 1;
            nth
        };
        if self.plan.drops_message(self.id, to, nth) {
            return Ok(()); // lost on the wire; the receiver's deadline decides
        }
        if let Some(delay) = self.plan.delay_for(self.id, to, nth) {
            std::thread::sleep(delay);
        }
        let message = match self
            .plan
            .tamper_for(self.id, to, self.phase.get(), phase_nth)
        {
            None => message,
            Some(t) => message.tampered(t),
        };
        handle.send(to, message)
    }

    /// Blocks until a message from party `from` arrives.
    ///
    /// # Errors
    ///
    /// [`MeshError::Crashed`] if this party crashed, otherwise as
    /// [`PartyHandle::recv_from`].
    pub fn recv_from(&self, from: usize) -> Result<T, MeshError> {
        match self.inner.borrow().as_ref() {
            None => Err(MeshError::Crashed),
            Some(handle) => handle.recv_from(from),
        }
    }

    /// Waits at most `timeout` for a message from party `from`.
    ///
    /// # Errors
    ///
    /// [`MeshError::Crashed`] if this party crashed, otherwise as
    /// [`PartyHandle::recv_from_timeout`].
    pub fn recv_from_timeout(&self, from: usize, timeout: Duration) -> Result<T, MeshError> {
        match self.inner.borrow().as_ref() {
            None => Err(MeshError::Crashed),
            Some(handle) => handle.recv_from_timeout(from, timeout),
        }
    }

    /// Waits until `deadline` for a message from party `from`.
    ///
    /// # Errors
    ///
    /// As [`recv_from_timeout`](Self::recv_from_timeout).
    pub fn recv_from_deadline(&self, from: usize, deadline: &Deadline) -> Result<T, MeshError> {
        self.recv_from_timeout(from, deadline.remaining())
    }

    /// Broadcasts to every other party, attempting all peers; scripted
    /// drops and delays apply per lane.
    ///
    /// # Errors
    ///
    /// [`MeshError::Crashed`] if this party crashed, or
    /// [`MeshError::Broadcast`] listing every unreachable peer.
    pub fn broadcast(&self, message: &T) -> Result<(), MeshError>
    where
        T: Clone + TamperBytes,
    {
        if self.inner.borrow().is_none() {
            return Err(MeshError::Crashed);
        }
        let mut disconnected = Vec::new();
        for to in 0..self.n {
            if to == self.id {
                continue;
            }
            match self.send(to, message.clone()) {
                Ok(()) => {}
                Err(MeshError::Crashed) => return Err(MeshError::Crashed),
                Err(_) => disconnected.push(to),
            }
        }
        if disconnected.is_empty() {
            Ok(())
        } else {
            Err(MeshError::Broadcast { disconnected })
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::mesh::LocalMesh;

    fn pair(plan: FaultPlan) -> (FaultyMesh<u8>, FaultyMesh<u8>, CrashStash<u8>) {
        let plan = Arc::new(plan);
        let stash = CrashStash::new();
        let mut handles = LocalMesh::new::<u8>(2);
        let h1 = handles.pop().unwrap();
        let h0 = handles.pop().unwrap();
        (
            FaultyMesh::with_plan(h0, Arc::clone(&plan), stash.clone()),
            FaultyMesh::with_plan(h1, plan, stash.clone()),
            stash,
        )
    }

    #[test]
    fn passthrough_is_transparent() {
        let mut handles = LocalMesh::new::<u8>(2);
        let h1 = FaultyMesh::passthrough(handles.pop().unwrap());
        let h0 = FaultyMesh::passthrough(handles.pop().unwrap());
        h0.enter_phase(Phase::KeyGen).unwrap();
        h0.send(1, 3).unwrap();
        assert_eq!(h1.recv_from(0).unwrap(), 3);
        assert_eq!(h0.phase(), Phase::KeyGen);
    }

    #[test]
    fn crash_stop_disconnects_peers_immediately() {
        let (h0, h1, stash) = pair(FaultPlan::new().crash_stop(0, Phase::Encrypt));
        h0.enter_phase(Phase::KeyGen).unwrap();
        h0.send(1, 1).unwrap();
        assert_eq!(h0.enter_phase(Phase::Encrypt), Err(MeshError::Crashed));
        assert_eq!(h0.send(1, 2), Err(MeshError::Crashed));
        // The queued message survives; after that the lane is dead.
        assert_eq!(h1.recv_from(0).unwrap(), 1);
        assert_eq!(
            h1.recv_from_timeout(0, Duration::from_secs(1)),
            Err(MeshError::Disconnected { peer: 0 })
        );
        assert_eq!(stash.parked(), 0);
    }

    #[test]
    fn silent_stall_times_out_peers_and_parks_the_handle() {
        let (h0, h1, stash) = pair(FaultPlan::new().silent_stall(0, Phase::Hop));
        assert_eq!(h0.enter_phase(Phase::Hop), Err(MeshError::Crashed));
        assert_eq!(stash.parked(), 1);
        // Channels stay open: the peer sees silence, not a disconnect.
        assert_eq!(
            h1.recv_from_timeout(0, Duration::from_millis(20)),
            Err(MeshError::Timeout { peer: 0 })
        );
    }

    #[test]
    fn dropped_message_is_silently_lost() {
        let (h0, h1, _stash) = pair(FaultPlan::new().drop_nth(0, 1, 1));
        h0.send(1, 10).unwrap();
        h0.send(1, 11).unwrap(); // dropped
        h0.send(1, 12).unwrap();
        assert_eq!(h1.recv_from(0).unwrap(), 10);
        assert_eq!(h1.recv_from(0).unwrap(), 12);
    }

    #[test]
    fn delayed_message_still_arrives() {
        let (h0, h1, _stash) = pair(FaultPlan::new().delay(0, 1, 0, Duration::from_millis(30)));
        h0.send(1, 7).unwrap();
        assert_eq!(h1.recv_from_timeout(0, Duration::from_secs(2)), Ok(7));
    }

    fn byte_pair(plan: FaultPlan) -> (FaultyMesh<Vec<u8>>, FaultyMesh<Vec<u8>>) {
        let plan = Arc::new(plan);
        let stash = CrashStash::new();
        let mut handles = LocalMesh::new::<Vec<u8>>(2);
        let h1 = handles.pop().unwrap();
        let h0 = handles.pop().unwrap();
        (
            FaultyMesh::with_plan(h0, Arc::clone(&plan), stash.clone()),
            FaultyMesh::with_plan(h1, plan, stash),
        )
    }

    #[test]
    fn tamper_rewrites_the_scripted_message_only() {
        let (h0, h1) = byte_pair(FaultPlan::new().tamper(
            0,
            Phase::Encrypt,
            1,
            Tamper::FlipByte {
                offset: 1,
                mask: 0xff,
            },
        ));
        h0.enter_phase(Phase::Encrypt).unwrap();
        h0.send(1, vec![1, 2, 3]).unwrap();
        h0.send(1, vec![1, 2, 3]).unwrap(); // the scripted nth = 1
        h0.send(1, vec![1, 2, 3]).unwrap();
        assert_eq!(h1.recv_from(0).unwrap(), vec![1, 2, 3]);
        assert_eq!(h1.recv_from(0).unwrap(), vec![1, 0xfd, 3]);
        assert_eq!(h1.recv_from(0).unwrap(), vec![1, 2, 3]);
    }

    #[test]
    fn tamper_counts_per_phase_not_per_session() {
        // nth 0 of Hop: the Gain-phase message must pass untouched even
        // though it is the lane's absolute first message.
        let (h0, h1) = byte_pair(FaultPlan::new().tamper(0, Phase::Hop, 0, Tamper::Truncate(1)));
        h0.enter_phase(Phase::Gain).unwrap();
        h0.send(1, vec![9, 9]).unwrap();
        h0.enter_phase(Phase::Hop).unwrap();
        h0.send(1, vec![7, 7]).unwrap();
        assert_eq!(h1.recv_from(0).unwrap(), vec![9, 9]);
        assert_eq!(h1.recv_from(0).unwrap(), vec![7]);
    }

    #[test]
    fn equivocate_rewrites_one_lane_and_spares_the_rest() {
        let plan = Arc::new(FaultPlan::new().equivocate(
            0,
            2,
            Phase::KeyGen,
            0,
            Tamper::Replace(vec![0xbb]),
        ));
        let stash = CrashStash::new();
        let handles = LocalMesh::new::<Vec<u8>>(3);
        let meshes: Vec<FaultyMesh<Vec<u8>>> = handles
            .into_iter()
            .map(|h| FaultyMesh::with_plan(h, Arc::clone(&plan), stash.clone()))
            .collect();
        meshes[0].enter_phase(Phase::KeyGen).unwrap();
        meshes[0].broadcast(&vec![0xaa]).unwrap();
        assert_eq!(meshes[1].recv_from(0).unwrap(), vec![0xaa]);
        assert_eq!(meshes[2].recv_from(0).unwrap(), vec![0xbb]);
    }

    #[test]
    fn forged_frames_arrive_before_the_phases_honest_traffic() {
        let (h0, h1) = byte_pair(
            FaultPlan::new()
                .forge(0, Phase::Submit, vec![0xde, 0xad])
                .forge(0, Phase::Submit, vec![0xbe, 0xef]),
        );
        h0.enter_phase(Phase::Submit).unwrap();
        h0.send(1, vec![1]).unwrap();
        assert_eq!(h1.recv_from(0).unwrap(), vec![0xde, 0xad]);
        assert_eq!(h1.recv_from(0).unwrap(), vec![0xbe, 0xef]);
        assert_eq!(h1.recv_from(0).unwrap(), vec![1]);
    }

    #[test]
    fn forge_then_crash_injects_and_dies() {
        let (h0, h1) = byte_pair(
            FaultPlan::new()
                .forge(1, Phase::Hop, vec![0x66])
                .crash_stop(1, Phase::Hop),
        );
        assert_eq!(h1.enter_phase(Phase::Hop), Err(MeshError::Crashed));
        assert_eq!(h0.recv_from(1).unwrap(), vec![0x66]);
        assert_eq!(
            h0.recv_from_timeout(1, Duration::from_secs(1)),
            Err(MeshError::Disconnected { peer: 1 })
        );
    }

    #[test]
    fn out_of_range_tampers_degrade_to_no_ops() {
        let v = vec![1u8, 2, 3];
        assert_eq!(
            v.clone().tampered(&Tamper::FlipByte {
                offset: 99,
                mask: 1
            }),
            v
        );
        assert_eq!(
            v.clone().tampered(&Tamper::CopyWithin {
                src: 2,
                dst: 0,
                len: 9
            }),
            v
        );
        assert_eq!(v.clone().tampered(&Tamper::Truncate(10)), v);
        assert_eq!(
            v.clone().tampered(&Tamper::CopyWithin {
                src: 0,
                dst: 1,
                len: 2
            }),
            vec![1, 1, 2]
        );
        assert_eq!(v.tampered(&Tamper::Append(vec![9])), vec![1, 2, 3, 9]);
    }

    #[test]
    fn misbehavior_plans_are_cloneable_and_comparable() {
        let mk = || {
            FaultPlan::new()
                .tamper(
                    1,
                    Phase::Encrypt,
                    0,
                    Tamper::FlipByte { offset: 4, mask: 2 },
                )
                .equivocate(2, 1, Phase::KeyGen, 3, Tamper::Truncate(0))
                .forge(1, Phase::Hop, vec![2, 2])
        };
        assert_eq!(mk(), mk());
        assert!(mk().has_misbehavior());
        assert!(!FaultPlan::new()
            .crash_stop(1, Phase::Gain)
            .has_misbehavior());
        let printed = format!("{:?}", mk());
        assert!(printed.contains("FlipByte"), "{printed}");
    }

    #[test]
    fn seeded_with_zero_participants_is_empty() {
        // Regression: this used to fabricate victim id 1 out of thin air
        // (`1 + x % max(0, 1)`), a party that cannot exist.
        for seed in 0..16u64 {
            let plan = FaultPlan::seeded(seed, 0);
            assert_eq!(plan.crashes().count(), 0, "seed {seed} invented a victim");
            assert_eq!(plan, FaultPlan::new());
        }
    }

    #[test]
    fn seeded_plans_are_deterministic_and_target_participants() {
        for seed in 0..32u64 {
            let a = FaultPlan::seeded(seed, 4);
            let b = FaultPlan::seeded(seed, 4);
            let ca: Vec<_> = a.crashes().collect();
            let cb: Vec<_> = b.crashes().collect();
            assert_eq!(ca, cb);
            assert_eq!(ca.len(), 1);
            let (victim, _, _) = ca[0];
            assert!((1..=4).contains(&victim), "victim {victim} out of range");
        }
        // Different seeds explore different faults.
        let plans: std::collections::HashSet<String> = (0..32)
            .map(|s| {
                format!(
                    "{:?}",
                    FaultPlan::seeded(s, 4).crashes().collect::<Vec<_>>()
                )
            })
            .collect();
        assert!(plans.len() > 4, "seeds barely vary: {plans:?}");
    }
}
