//! One shard's persistent work-stealing worker pool.
//!
//! Scheduling unit = one [`SessionMachine::step`] — key generation, bit
//! encryption, one party's comparison batch, or one chain hop. A worker
//! that steps a still-pending session pushes it back onto the *back* of
//! its own deque and pops from the back too (LIFO), so the owner keeps
//! driving the same session — warm caches, no gratuitous interleaving —
//! while idle workers steal from the *front* of other workers' deques
//! (FIFO), picking up whole sessions. The chain's sequential-hop invariant
//! is preserved structurally: a session is owned by exactly one worker at
//! a time, so its steps can never run concurrently with each other.

use crate::front::Counters;
use ppgr_core::{
    verify_deferred_jobs, Ciphertext, KeygenVerifyJob, Outcome, RunError, SessionMachine,
    SessionStatus,
};
use ppgr_net::Deadline;
use std::collections::VecDeque;
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::{Arc, Condvar, Mutex};
use std::thread::JoinHandle;
use std::time::Duration;

/// How long an idle worker sleeps between steal attempts. Short against a
/// hop (milliseconds of exponentiations) but long enough not to spin.
const IDLE_PARK: Duration = Duration::from_millis(1);

/// One-shot result mailbox shared between a pool task and its handle.
pub(crate) struct Slot {
    result: Mutex<Option<Result<Outcome, RunError>>>,
    ready: Condvar,
    /// Cooperative cancellation: checked by the worker between steps.
    cancelled: AtomicBool,
}

impl Slot {
    fn new() -> Arc<Self> {
        Arc::new(Slot {
            result: Mutex::new(None),
            ready: Condvar::new(),
            cancelled: AtomicBool::new(false),
        })
    }

    fn fill(&self, result: Result<Outcome, RunError>) {
        let mut guard = self.result.lock().expect("slot mutex");
        debug_assert!(guard.is_none(), "slot filled twice");
        *guard = Some(result);
        self.ready.notify_all();
    }

    pub(crate) fn cancel(&self) {
        self.cancelled.store(true, Ordering::SeqCst);
    }

    fn is_cancelled(&self) -> bool {
        self.cancelled.load(Ordering::SeqCst)
    }

    pub(crate) fn wait(&self) -> Result<Outcome, RunError> {
        let mut guard = self.result.lock().expect("slot mutex");
        loop {
            if let Some(result) = guard.take() {
                return result;
            }
            guard = self.ready.wait(guard).expect("slot condvar");
        }
    }

    pub(crate) fn is_filled(&self) -> bool {
        self.result.lock().expect("slot mutex").is_some()
    }
}

/// A session plus the mailbox its outcome is delivered to.
struct Task {
    machine: SessionMachine,
    slot: Arc<Slot>,
    /// Wall-clock expiry; checked between steps (never mid-step).
    deadline: Option<Deadline>,
}

/// A session parked in the verify collector: its deferred keygen check
/// plus the task itself, which resumes only after the check passes.
struct Parked {
    job: KeygenVerifyJob,
    task: Task,
}

/// State shared by the submitters and every worker of one shard.
struct Shared {
    /// Global FIFO that submissions feed; workers drain it when their own
    /// deque is empty.
    injector: Mutex<VecDeque<Task>>,
    /// Per-worker deques: owner pops LIFO (back), thieves pop FIFO (front).
    locals: Vec<Mutex<VecDeque<Task>>>,
    /// Parking lot for idle workers.
    gate: Mutex<()>,
    wake: Condvar,
    shutdown: AtomicBool,
    /// Cross-session verify window (`0`/`1` = settle each check inline).
    verify_batch: usize,
    /// Sessions parked awaiting a batched keygen verify.
    pending_verify: Mutex<Vec<Parked>>,
    /// Recycled hop scratch buffers, donated to incoming sessions so one
    /// allocation's capacity serves many sessions in turn.
    scratch_pool: Mutex<Vec<Vec<Ciphertext>>>,
    /// Admitted sessions not yet resolved (the admission window).
    in_flight: AtomicUsize,
    /// The service-wide counters this shard adds to.
    counters: Arc<Counters>,
}

impl Shared {
    fn inject(&self, task: Task) {
        self.injector
            .lock()
            .expect("injector mutex")
            .push_back(task);
        self.wake.notify_all();
    }

    /// Resolves a session: counts it, releases its in-flight slot, then
    /// delivers the result — so the counters and the admission window see
    /// every completion, failure, cancellation and expiry exactly once,
    /// and no later than any joiner does.
    fn settle(&self, slot: &Slot, result: Result<Outcome, RunError>) {
        let counters = &self.counters;
        match &result {
            Ok(outcome) => {
                counters.completed.fetch_add(1, Ordering::Relaxed);
                let traffic = outcome.traffic();
                counters
                    .wire_messages
                    .fetch_add(traffic.messages, Ordering::Relaxed);
                counters
                    .wire_bytes
                    .fetch_add(traffic.total_bytes, Ordering::Relaxed);
            }
            Err(_) => {
                counters.failed.fetch_add(1, Ordering::Relaxed);
            }
        }
        self.in_flight.fetch_sub(1, Ordering::AcqRel);
        slot.fill(result);
    }

    /// Hands out a recycled scratch buffer, if any.
    fn donate_scratch(&self) -> Option<Vec<Ciphertext>> {
        let buf = self.scratch_pool.lock().expect("scratch pool mutex").pop();
        if buf.is_some() {
            self.counters.scratch_reused.fetch_add(1, Ordering::Relaxed);
        }
        buf
    }

    /// Returns a finished session's scratch buffer to the pool. Bounded by
    /// the worker count — more buffers than workers can never be in use at
    /// once, so the excess would only pin memory.
    fn recycle_scratch(&self, buf: Vec<Ciphertext>) {
        if buf.capacity() == 0 {
            return;
        }
        let mut pool = self.scratch_pool.lock().expect("scratch pool mutex");
        if pool.len() < self.locals.len() {
            pool.push(buf);
        }
    }
}

/// One worker-group shard: a persistent pool executing many ranking
/// sessions concurrently, plus its admission window.
///
/// Dropping the shard drains it: workers finish every submitted session
/// before exiting, so handles joined after the drop still resolve.
/// Cancelled or deadline-expired sessions also resolve — with
/// [`RunError::Cancelled`] / [`RunError::DeadlineExceeded`] — so a drain
/// can never hang on a wedged session.
pub(crate) struct Shard {
    shared: Arc<Shared>,
    workers: Vec<JoinHandle<()>>,
}

impl Shard {
    /// Starts `workers` threads. When `verify_batch > 1`, deferred keygen
    /// checks are parked in a shard-wide collector and settled — up to
    /// `verify_batch` sessions at a time — through one aggregate
    /// multi-exponentiation ([`verify_deferred_jobs`]), with per-session
    /// blame preserved. The collector flushes when the window fills and
    /// whenever a worker goes idle, so a lone session is never held
    /// hostage waiting for peers.
    pub(crate) fn new(workers: usize, verify_batch: usize, counters: Arc<Counters>) -> Self {
        let shared = Arc::new(Shared {
            injector: Mutex::new(VecDeque::new()),
            locals: (0..workers).map(|_| Mutex::new(VecDeque::new())).collect(),
            gate: Mutex::new(()),
            wake: Condvar::new(),
            shutdown: AtomicBool::new(false),
            verify_batch,
            pending_verify: Mutex::new(Vec::new()),
            scratch_pool: Mutex::new(Vec::new()),
            in_flight: AtomicUsize::new(0),
            counters,
        });
        let handles = (0..workers)
            .map(|me| {
                let shared = Arc::clone(&shared);
                std::thread::Builder::new()
                    .name(format!("ppgr-service-{me}"))
                    .spawn(move || worker_loop(&shared, me))
                    .expect("spawn service worker")
            })
            .collect();
        Shard {
            shared,
            workers: handles,
        }
    }

    /// The number of worker threads in the shard.
    pub(crate) fn workers(&self) -> usize {
        self.workers.len()
    }

    /// Unresolved sessions the shard holds.
    pub(crate) fn in_flight(&self) -> usize {
        self.shared.in_flight.load(Ordering::Acquire)
    }

    /// Reserves an in-flight slot and returns the count held before it.
    /// The reservation (not a read-then-add) keeps concurrent submitters
    /// from both slipping under the window.
    pub(crate) fn reserve(&self) -> usize {
        self.shared.in_flight.fetch_add(1, Ordering::AcqRel)
    }

    /// Gives back a reservation the session never used (it was shed).
    pub(crate) fn release(&self) {
        self.shared.in_flight.fetch_sub(1, Ordering::AcqRel);
    }

    /// Queues a session holding a reservation; the returned slot resolves
    /// once a worker finishes, fails, cancels or expires it.
    pub(crate) fn run(&self, mut machine: SessionMachine, deadline: Option<Deadline>) -> Arc<Slot> {
        let slot = Slot::new();
        if let Some(buf) = self.shared.donate_scratch() {
            machine.adopt_hop_scratch(buf);
        }
        self.shared.inject(Task {
            machine,
            slot: Arc::clone(&slot),
            deadline,
        });
        slot
    }
}

impl Drop for Shard {
    fn drop(&mut self) {
        self.shared.shutdown.store(true, Ordering::SeqCst);
        self.shared.wake.notify_all();
        for handle in self.workers.drain(..) {
            let _ = handle.join();
        }
    }
}

fn worker_loop(shared: &Shared, me: usize) {
    loop {
        if let Some(mut task) = find_task(shared, me) {
            // Cancellation and deadlines are enforced at step boundaries:
            // the machine is abandoned (not interrupted), the slot resolves
            // with a typed error, and this worker moves on — a wedged or
            // unwanted session never pins a pool thread.
            if task.slot.is_cancelled() {
                shared.settle(&task.slot, Err(RunError::Cancelled));
                continue;
            }
            if task.deadline.is_some_and(|d| d.expired()) {
                shared.settle(&task.slot, Err(RunError::DeadlineExceeded));
                continue;
            }
            match task.machine.step() {
                Ok(SessionStatus::Pending) => {
                    // Collect a deferred keygen check *unconditionally* —
                    // even a machine the caller built with `defer_verify`
                    // and submitted to a shard with no batch window must
                    // have its proofs settled, or the deferral would
                    // silently skip verification.
                    if let Some(job) = task.machine.take_pending_verify() {
                        if shared.verify_batch > 1 {
                            park_for_verify(shared, Parked { job, task });
                        } else {
                            // Degenerate window: settle immediately inline.
                            match job.verify_inline() {
                                Ok(()) => shared.locals[me]
                                    .lock()
                                    .expect("local deque mutex")
                                    .push_back(task),
                                Err(e) => shared.settle(&task.slot, Err(RunError::Sort(e))),
                            }
                        }
                    } else {
                        // Back of our own deque: we pop LIFO, so we keep
                        // driving this session unless a thief takes it
                        // first.
                        shared.locals[me]
                            .lock()
                            .expect("local deque mutex")
                            .push_back(task);
                    }
                }
                Ok(SessionStatus::Done) => {
                    let Task {
                        mut machine, slot, ..
                    } = task;
                    shared.recycle_scratch(machine.take_hop_scratch());
                    let outcome = machine.into_outcome().expect("machine reported Done");
                    shared.settle(&slot, Ok(outcome));
                }
                Err(e) => shared.settle(&task.slot, Err(e)),
            }
            continue;
        }
        // No runnable task: settle any parked verifies before idling, so a
        // partial window never strands its sessions (and, on shutdown, the
        // drain below sees their resumed tasks).
        if flush_verify(shared) {
            continue;
        }
        // Nothing anywhere. Exit only on shutdown — and because a pending
        // task is always either in some deque, held by the worker that
        // will immediately re-enqueue it to its own deque, or parked in the
        // verify collector (flushed above), every submitted session still
        // completes before the last busy worker exits (drain-on-shutdown).
        if shared.shutdown.load(Ordering::SeqCst) {
            return;
        }
        let guard = shared.gate.lock().expect("gate mutex");
        // wait_timeout (not wait): a submit could slip in between our scan
        // and the park, so cap the worst-case wakeup latency instead of
        // relying on the notification alone.
        let _ = shared
            .wake
            .wait_timeout(guard, IDLE_PARK)
            .expect("gate condvar");
    }
}

/// Parks a session awaiting its batched keygen verify; flushes the
/// collector if this filled the window.
fn park_for_verify(shared: &Shared, parked: Parked) {
    let full = {
        let mut pending = shared
            .pending_verify
            .lock()
            .expect("verify collector mutex");
        pending.push(parked);
        pending.len() >= shared.verify_batch
    };
    if full {
        let _ = flush_verify(shared);
    }
}

/// Settles every parked keygen check in one aggregate settle
/// ([`verify_deferred_jobs`] — one multi-exponentiation per group kind),
/// failing rejected sessions with the same per-party blame their solo runs
/// would assign and re-enqueueing the survivors. Returns whether anything
/// was flushed.
fn flush_verify(shared: &Shared) -> bool {
    let batch: Vec<Parked> = {
        let mut pending = shared
            .pending_verify
            .lock()
            .expect("verify collector mutex");
        std::mem::take(&mut *pending)
        // Lock released before the expensive aggregate below; a concurrent
        // flush simply takes whatever parked in the meantime.
    };
    if batch.is_empty() {
        return false;
    }
    // Settle cancellations and expiries first — their verdicts are moot.
    let mut live: Vec<Parked> = Vec::with_capacity(batch.len());
    for parked in batch {
        if parked.task.slot.is_cancelled() {
            shared.settle(&parked.task.slot, Err(RunError::Cancelled));
        } else if parked.task.deadline.is_some_and(|d| d.expired()) {
            shared.settle(&parked.task.slot, Err(RunError::DeadlineExceeded));
        } else {
            live.push(parked);
        }
    }
    if live.is_empty() {
        return true;
    }
    let (jobs, tasks): (Vec<KeygenVerifyJob>, Vec<Task>) =
        live.into_iter().map(|p| (p.job, p.task)).unzip();
    let proofs: u64 = jobs.iter().map(|j| j.proofs() as u64).sum();
    let verdicts = verify_deferred_jobs(&jobs);
    let counters = &shared.counters;
    counters.verify_flushes.fetch_add(1, Ordering::Relaxed);
    counters
        .verify_batched_sessions
        .fetch_add(jobs.len() as u64, Ordering::Relaxed);
    counters
        .verify_batched_proofs
        .fetch_add(proofs, Ordering::Relaxed);
    for (task, verdict) in tasks.into_iter().zip(verdicts) {
        match verdict {
            Ok(()) => shared.inject(task),
            Err(e) => shared.settle(&task.slot, Err(RunError::Sort(e))),
        }
    }
    true
}

/// Own deque first (LIFO), then the global injector, then steal round-robin
/// from the other workers' deque fronts.
fn find_task(shared: &Shared, me: usize) -> Option<Task> {
    if let Some(task) = shared.locals[me]
        .lock()
        .expect("local deque mutex")
        .pop_back()
    {
        return Some(task);
    }
    if let Some(task) = shared.injector.lock().expect("injector mutex").pop_front() {
        return Some(task);
    }
    let n = shared.locals.len();
    for offset in 1..n {
        let victim = (me + offset) % n;
        if let Some(task) = shared.locals[victim]
            .lock()
            .expect("local deque mutex")
            .pop_front()
        {
            return Some(task);
        }
    }
    None
}
