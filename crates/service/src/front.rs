//! The front door: admission control, sharded submission, and the
//! scrape-ready metrics surface.

use crate::pool::{Shard, Slot};
use crate::ring::HashRing;
use ppgr_core::{FrameworkParams, GroupRanking, Outcome, RunError, SessionMachine, SortOptions};
use ppgr_group::GroupKind;
use ppgr_net::{CacheCounters, Deadline, MetricsSnapshot, PhaseBudget};
use std::error::Error;
use std::fmt;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::Duration;

/// Configuration for a [`Service`].
#[derive(Clone, Copy, Debug, Default, Eq, PartialEq)]
pub struct ServiceConfig {
    /// Worker-group shards (`0` = 1). Each shard is an independent
    /// work-stealing pool with its own run queues, verify collector and
    /// scratch pool; sessions are routed to shards by consistent hash of
    /// their session id, so a given id always lands on the same shard's
    /// queues.
    pub shards: usize,
    /// Worker threads per shard (`0` = 1). The sharded default is
    /// deliberately narrow: on one host, `shards × workers_per_shard`
    /// should not exceed the core count.
    pub workers_per_shard: usize,
    /// Bounded in-flight window per shard (`0` = unbounded). Admission
    /// sheds with [`AdmitError::Saturated`] once a shard holds this many
    /// unresolved sessions.
    pub max_in_flight: usize,
    /// Cross-session verify batch window per shard (`0`/`1` = no
    /// batching). When `> 1`, sessions built by [`Service::submit`] run
    /// with [`SortOptions::defer_verify`]: their keygen proof checks are
    /// settled — up to `verify_batch` sessions at a time — through one
    /// aggregate multi-exponentiation, with per-session blame preserved.
    /// Verification is RNG-free and sends no bytes, so batching reorders
    /// work, never bytes.
    pub verify_batch: usize,
    /// Per-phase allowances driving the admission projection. The default
    /// ([`PhaseBudget::default`]) allows 30 s per phase.
    pub budget: PhaseBudget,
    /// Admission horizon: a session whose *projected* completion — its
    /// [`PhaseBudget::session_total`] multiplied by its queue depth share —
    /// exceeds this is shed with [`AdmitError::ProjectedOverBudget`]
    /// instead of being queued to miss its deadline. `None` disables the
    /// projection check. The projection is clock-free: it reasons over
    /// budgets and queue depths only, never wall-clock timestamps.
    pub horizon: Option<Duration>,
    /// Wall-clock budget per admitted session (`None` = unbounded). A
    /// session past its budget is abandoned at the next step boundary with
    /// [`RunError::DeadlineExceeded`], reclaiming its worker — a wedged
    /// session cannot hold a pool thread forever.
    pub session_budget: Option<Duration>,
}

impl ServiceConfig {
    fn resolve_shards(&self) -> usize {
        self.shards.max(1)
    }

    fn resolve_workers(&self) -> usize {
        self.workers_per_shard.max(1)
    }
}

/// Why admission control refused a session. Typed so callers can
/// distinguish back-off (`Saturated`) from re-parameterize-or-retry-later
/// (`ProjectedOverBudget`) without string matching.
#[derive(Clone, Copy, Debug, Eq, PartialEq)]
pub enum AdmitError {
    /// The target shard's bounded in-flight window is full.
    Saturated {
        /// The shard the session hashed to.
        shard: usize,
        /// Unresolved sessions the shard holds.
        in_flight: usize,
        /// The configured window ([`ServiceConfig::max_in_flight`]).
        limit: usize,
    },
    /// The session's projected completion exceeds the admission horizon.
    ProjectedOverBudget {
        /// The shard the session hashed to.
        shard: usize,
        /// Budget-based completion projection at admission time.
        projected: Duration,
        /// The configured ceiling ([`ServiceConfig::horizon`]).
        horizon: Duration,
    },
}

impl fmt::Display for AdmitError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            AdmitError::Saturated {
                shard,
                in_flight,
                limit,
            } => write!(
                f,
                "shard {shard} saturated: {in_flight} sessions in flight (limit {limit})"
            ),
            AdmitError::ProjectedOverBudget {
                shard,
                projected,
                horizon,
            } => write!(
                f,
                "shard {shard} projects completion in {projected:?}, over the {horizon:?} horizon"
            ),
        }
    }
}

impl Error for AdmitError {}

/// Monotonic service counters, shared by the front door and every shard
/// (relaxed atomics: telemetry, never synchronization).
#[derive(Default)]
pub(crate) struct Counters {
    pub(crate) admitted: AtomicU64,
    pub(crate) rejected_saturated: AtomicU64,
    pub(crate) rejected_deadline: AtomicU64,
    pub(crate) completed: AtomicU64,
    pub(crate) failed: AtomicU64,
    pub(crate) wire_messages: AtomicU64,
    pub(crate) wire_bytes: AtomicU64,
    /// Aggregate verify flushes run (batched settles of a collector).
    pub(crate) verify_flushes: AtomicU64,
    /// Sessions whose keygen checks were settled in those flushes.
    pub(crate) verify_batched_sessions: AtomicU64,
    /// Individual proofs folded into the aggregate equations.
    pub(crate) verify_batched_proofs: AtomicU64,
    /// Sessions that started with a recycled hop scratch buffer.
    pub(crate) scratch_reused: AtomicU64,
}

/// A claim on a session admitted through a [`Service`].
///
/// The session keeps running whether or not the handle is held; dropping
/// the handle merely discards the result.
pub struct ServiceHandle {
    slot: Arc<Slot>,
    session_id: u64,
    shard: usize,
}

impl ServiceHandle {
    /// Blocks until the session completes and returns its outcome.
    ///
    /// # Errors
    ///
    /// Whatever [`RunError`] the session itself produced,
    /// [`RunError::Cancelled`] after a successful [`cancel`](Self::cancel),
    /// or [`RunError::DeadlineExceeded`] for a session that outlived
    /// [`ServiceConfig::session_budget`].
    pub fn join(self) -> Result<Outcome, RunError> {
        self.slot.wait()
    }

    /// Requests cooperative cancellation: the worker abandons the session
    /// at the next step boundary (a step in flight is never interrupted)
    /// and the join resolves to [`RunError::Cancelled`], reclaiming the
    /// worker for other sessions. A session that already completed is
    /// unaffected — its result stands.
    pub fn cancel(&self) {
        self.slot.cancel();
    }

    /// Whether the session has already resolved (non-blocking).
    pub fn is_finished(&self) -> bool {
        self.slot.is_filled()
    }

    /// The session id the request was admitted under.
    pub fn session_id(&self) -> u64 {
        self.session_id
    }

    /// The shard the session was routed to.
    pub fn shard(&self) -> usize {
        self.shard
    }
}

impl fmt::Debug for ServiceHandle {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("ServiceHandle")
            .field("session_id", &self.session_id)
            .field("shard", &self.shard)
            .field("finished", &self.is_finished())
            .finish()
    }
}

/// The ranking-as-a-service front door.
///
/// Accepts a stream of ranking-session requests, routes each by consistent
/// hash of its session id onto one of several worker-group shards, and
/// sheds load it cannot serve within budget ([`AdmitError`]). Each shard
/// is a persistent work-stealing pool stepping many sessions at once; it
/// amortizes crypto across them — batched keygen proof verification,
/// shared warm comb caches, pooled hop scratch — while keeping every
/// session's transcript bit-identical to a solo serial run: amortization
/// reorders work, never bytes.
///
/// Dropping the service drains it: every admitted session resolves —
/// completed, failed, cancelled or expired — before the drop returns.
pub struct Service {
    config: ServiceConfig,
    ring: HashRing,
    shards: Vec<Shard>,
    counters: Arc<Counters>,
    /// Group instantiations seen at admission, for the cache section of
    /// [`Service::metrics`] (comb caches are process-wide singletons keyed
    /// by kind).
    kinds: Mutex<Vec<GroupKind>>,
}

impl Service {
    /// Starts a service per `config`: one worker pool per shard, verify
    /// windows armed.
    pub fn new(config: ServiceConfig) -> Self {
        let counters = Arc::new(Counters::default());
        let shards = (0..config.resolve_shards())
            .map(|_| {
                Shard::new(
                    config.resolve_workers(),
                    config.verify_batch,
                    Arc::clone(&counters),
                )
            })
            .collect();
        Service {
            ring: HashRing::new(config.resolve_shards()),
            shards,
            counters,
            kinds: Mutex::new(Vec::new()),
            config,
        }
    }

    /// The number of worker-group shards.
    pub fn shards(&self) -> usize {
        self.shards.len()
    }

    /// Projects how long a freshly admitted session would take to clear
    /// its shard, from budgets and queue depth alone (clock-free): the
    /// session's own phase-budget total, scaled by how many queue "waves"
    /// of already-admitted sessions (`queued_ahead` of it) must drain
    /// through the shard's workers first. An empty shard projects exactly
    /// one `session_total`.
    fn projected_completion(&self, queued_ahead: usize, participants: usize) -> Duration {
        let workers = self.config.resolve_workers();
        let waves = (queued_ahead / workers).saturating_add(1);
        self.config
            .budget
            .session_total(participants)
            .saturating_mul(u32::try_from(waves).unwrap_or(u32::MAX))
    }

    /// Admits (or sheds) one ranking-session request.
    ///
    /// `session_id` is the caller's stable identifier for the request —
    /// it picks the shard (consistent hash), so retries of the same id
    /// land on the same run queues. The session itself is seeded by
    /// `params` exactly as a solo [`GroupRanking`] run would be, and runs
    /// single-threaded: the shard's pool supplies the parallelism.
    ///
    /// # Errors
    ///
    /// [`AdmitError::Saturated`] when the target shard's in-flight window
    /// is full; [`AdmitError::ProjectedOverBudget`] when the budget
    /// projection exceeds the configured horizon. Shed sessions consume no
    /// worker time and leave no state behind.
    pub fn submit(
        &self,
        session_id: u64,
        params: FrameworkParams,
    ) -> Result<ServiceHandle, AdmitError> {
        let options = SortOptions {
            threads: 1,
            defer_verify: self.config.verify_batch > 1,
            ..SortOptions::default()
        };
        let (participants, kind) = (params.participants(), params.group());
        self.admit(session_id, participants, kind, move || {
            GroupRanking::new(params)
                .with_random_population()
                .into_machine_with(options)
                .expect("a populated ranking always builds a machine")
        })
    }

    /// Admits (or sheds) a prebuilt [`SessionMachine`], under the same
    /// admission control as [`Service::submit`].
    ///
    /// This is how a caller serves a warm session: build the machine,
    /// attach the stock [`OfflineStock::generate`] mints for its
    /// [`offline_fingerprint`](SessionMachine::offline_fingerprint), then
    /// submit it. The machine keeps its own sort options, a partially
    /// stepped machine resumes where it stood, and the keygen check of a
    /// [`defer_verify`](SortOptions::defer_verify) machine is settled by
    /// the shard even when the service batches nothing.
    ///
    /// [`OfflineStock::generate`]: ppgr_core::OfflineStock::generate
    ///
    /// # Errors
    ///
    /// As for [`Service::submit`].
    pub fn submit_session(
        &self,
        session_id: u64,
        machine: SessionMachine,
    ) -> Result<ServiceHandle, AdmitError> {
        let (participants, kind) = (machine.params().participants(), machine.params().group());
        self.admit(session_id, participants, kind, || machine)
    }

    /// The one submission path: admission control on the routed shard,
    /// then `machine` is built and queued there.
    fn admit(
        &self,
        session_id: u64,
        participants: usize,
        kind: GroupKind,
        machine: impl FnOnce() -> SessionMachine,
    ) -> Result<ServiceHandle, AdmitError> {
        let shard = self.ring.route(session_id);
        let target = &self.shards[shard];
        // Reserve the in-flight slot optimistically; shed paths release it.
        let prior = target.reserve();
        if self.config.max_in_flight > 0 && prior >= self.config.max_in_flight {
            target.release();
            self.counters
                .rejected_saturated
                .fetch_add(1, Ordering::Relaxed);
            return Err(AdmitError::Saturated {
                shard,
                in_flight: prior,
                limit: self.config.max_in_flight,
            });
        }
        if let Some(horizon) = self.config.horizon {
            let projected = self.projected_completion(prior, participants);
            if projected > horizon {
                target.release();
                self.counters
                    .rejected_deadline
                    .fetch_add(1, Ordering::Relaxed);
                return Err(AdmitError::ProjectedOverBudget {
                    shard,
                    projected,
                    horizon,
                });
            }
        }
        self.counters.admitted.fetch_add(1, Ordering::Relaxed);
        {
            let mut kinds = self.kinds.lock().expect("kinds mutex");
            if !kinds.contains(&kind) {
                kinds.push(kind);
            }
        }
        let deadline = self.config.session_budget.map(Deadline::after);
        Ok(ServiceHandle {
            slot: target.run(machine(), deadline),
            session_id,
            shard,
        })
    }

    /// A scrape-ready snapshot of the service's counters: admission and
    /// completion totals, the shards' amortization counters, wire totals
    /// of completed sessions, and the process-wide comb-cache counters for
    /// every group kind served.
    pub fn metrics(&self) -> MetricsSnapshot {
        let c = &*self.counters;
        let load = |counter: &AtomicU64| counter.load(Ordering::Relaxed);
        let kinds = self.kinds.lock().expect("kinds mutex").clone();
        MetricsSnapshot {
            sessions_admitted: load(&c.admitted),
            sessions_rejected_saturated: load(&c.rejected_saturated),
            sessions_rejected_deadline: load(&c.rejected_deadline),
            sessions_completed: load(&c.completed),
            sessions_failed: load(&c.failed),
            sessions_in_flight: self.shards.iter().map(|s| s.in_flight() as u64).sum(),
            shards: self.shards.len() as u64,
            workers: self.shards.iter().map(|s| s.workers() as u64).sum(),
            verify_flushes: load(&c.verify_flushes),
            verify_batched_sessions: load(&c.verify_batched_sessions),
            verify_batched_proofs: load(&c.verify_batched_proofs),
            scratch_reused: load(&c.scratch_reused),
            wire_messages: load(&c.wire_messages),
            wire_bytes: load(&c.wire_bytes),
            caches: kinds
                .into_iter()
                .map(|kind| {
                    let stats = kind.group().comb_cache_stats();
                    CacheCounters {
                        label: format!("{kind:?}/comb").to_lowercase(),
                        hits: stats.hits,
                        misses: stats.misses,
                        evictions: stats.evictions,
                        entries: stats.entries,
                    }
                })
                .collect(),
        }
    }
}

impl fmt::Debug for Service {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Service")
            .field("shards", &self.shards.len())
            .field("workers_per_shard", &self.config.resolve_workers())
            .field("max_in_flight", &self.config.max_in_flight)
            .field("verify_batch", &self.config.verify_batch)
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ppgr_core::{OfflineStock, Questionnaire, SortError};
    use proptest::prelude::*;

    fn small_params(n: usize, seed: u64) -> FrameworkParams {
        FrameworkParams::builder(Questionnaire::synthetic(1, 2))
            .participants(n)
            .top_k(1)
            .attr_bits(6)
            .weight_bits(3)
            .mask_bits(6)
            .group(GroupKind::Ecc160)
            .seed(seed)
            .build()
            .expect("valid params")
    }

    fn solo_run(n: usize, seed: u64) -> Outcome {
        GroupRanking::new(small_params(n, seed))
            .with_random_population()
            .run()
            .expect("solo run")
    }

    fn machine(n: usize, seed: u64, defer_verify: bool) -> SessionMachine {
        let options = SortOptions {
            threads: 1,
            defer_verify,
            ..SortOptions::default()
        };
        GroupRanking::new(small_params(n, seed))
            .with_random_population()
            .into_machine_with(options)
            .expect("machine")
    }

    /// A deferred-verify machine whose stock carries a corrupted key proof
    /// for `party` (0-based).
    fn corrupted_machine(n: usize, seed: u64, party: usize) -> SessionMachine {
        let mut bad = machine(n, seed, true);
        let mut stock = OfflineStock::generate(bad.offline_fingerprint());
        stock.corrupt_key_proof(&GroupKind::Ecc160.group(), party);
        assert!(bad.attach_offline_stock(stock));
        bad
    }

    #[test]
    fn admitted_sessions_match_solo_runs() {
        let service = Service::new(ServiceConfig {
            shards: 2,
            workers_per_shard: 1,
            verify_batch: 3,
            ..ServiceConfig::default()
        });
        // A session whose party-2 proof is corrupted rides the same
        // batches: it alone is blamed, the good sessions are unaffected.
        let bad = service
            .submit_session(100, corrupted_machine(3, 880, 1))
            .expect("admitted");
        let handles: Vec<ServiceHandle> = (0..4)
            .map(|i| {
                service
                    .submit(i, small_params(3, 7000 + i))
                    .expect("admitted")
            })
            .collect();
        let err = bad.join().unwrap_err();
        assert_eq!(
            err,
            RunError::Sort(SortError::ProofRejected { party: 2 }),
            "the batch must attribute the rejection to the corrupted session and party"
        );
        assert_eq!(err.blamed(), Some(2));
        for (i, handle) in handles.into_iter().enumerate() {
            let served = handle.join().expect("session completes");
            let solo = solo_run(3, 7000 + i as u64);
            assert_eq!(served.ranks(), solo.ranks());
            assert_eq!(served.traffic(), solo.traffic());
        }
        let m = service.metrics();
        assert_eq!(m.sessions_admitted, 5);
        assert_eq!(m.sessions_completed, 4);
        assert_eq!(m.sessions_failed, 1);
        assert_eq!(m.sessions_in_flight, 0);
        assert_eq!(m.shards, 2);
        assert_eq!(m.workers, 2);
        assert!(m.wire_messages > 0 && m.wire_bytes > 0);
    }

    #[test]
    fn same_session_id_routes_to_the_same_shard() {
        let service = Service::new(ServiceConfig {
            shards: 4,
            ..ServiceConfig::default()
        });
        let a = service.submit(99, small_params(2, 1)).expect("admitted");
        let b = service.submit(99, small_params(2, 2)).expect("admitted");
        assert_eq!(a.shard(), b.shard());
        assert_eq!(a.session_id(), 99);
        a.join().expect("a");
        b.join().expect("b");
    }

    #[test]
    fn prebuilt_machines_resume_and_are_verified() {
        // One worker, no verify window.
        let service = Service::new(ServiceConfig {
            shards: 1,
            workers_per_shard: 1,
            ..ServiceConfig::default()
        });
        // A partially stepped machine resumes where it stood.
        let mut stepped = machine(3, 7, false);
        stepped.step().unwrap();
        stepped.step().unwrap();
        let served = service
            .submit_session(1, stepped)
            .expect("admitted")
            .join()
            .unwrap();
        let solo = solo_run(3, 7);
        assert_eq!(served.ranks(), solo.ranks());
        assert_eq!(served.traffic(), solo.traffic());
        // A deferral must never silently skip verification: the shard
        // settles the stashed job inline and blames the prover.
        let err = service
            .submit_session(2, corrupted_machine(3, 890, 0))
            .expect("admitted")
            .join()
            .unwrap_err();
        assert_eq!(err, RunError::Sort(SortError::ProofRejected { party: 1 }));
        assert_eq!(err.blamed(), Some(1));
        assert_eq!(RunError::Cancelled.blamed(), None);
        assert_eq!(RunError::DeadlineExceeded.blamed(), None);
        // Serial on one worker: later sessions reuse the first session's
        // hop buffer.
        service
            .submit(3, small_params(2, 900))
            .expect("admitted")
            .join()
            .unwrap();
        let m = service.metrics();
        assert!(m.scratch_reused >= 1, "no hop buffer was recycled");
        assert_eq!((m.sessions_completed, m.sessions_failed), (2, 1));
        assert_eq!(m.verify_flushes, 0, "no window, no batched flush");
    }

    #[test]
    fn cancelled_and_expired_sessions_release_their_in_flight_slots() {
        let service = Service::new(ServiceConfig {
            shards: 1,
            workers_per_shard: 1,
            ..ServiceConfig::default()
        });
        // The single worker drives `busy` LIFO until done, so `doomed`
        // sits queued long enough for the cancel to land.
        let busy = service.submit(1, small_params(3, 61)).expect("admitted");
        let doomed = service.submit(2, small_params(3, 62)).expect("admitted");
        doomed.cancel();
        assert_eq!(doomed.join().unwrap_err(), RunError::Cancelled);
        assert!(busy.join().is_ok());
        let m = service.metrics();
        assert_eq!((m.sessions_completed, m.sessions_failed), (1, 1));
        assert_eq!(m.sessions_in_flight, 0);

        // Already expired at the first step boundary: each session is
        // abandoned with a typed error and the worker moves on. The
        // two-deep window admits the second pair only because the first
        // pair released its slots.
        let service = Service::new(ServiceConfig {
            shards: 1,
            workers_per_shard: 1,
            max_in_flight: 2,
            session_budget: Some(Duration::ZERO),
            ..ServiceConfig::default()
        });
        for pair in 0..2 {
            let handles: Vec<ServiceHandle> = (0..2)
                .map(|i| {
                    service
                        .submit(10 * pair + i, small_params(3, 71 + i))
                        .expect("admitted")
                })
                .collect();
            for handle in handles {
                assert_eq!(handle.join().unwrap_err(), RunError::DeadlineExceeded);
            }
        }
        let m = service.metrics();
        assert_eq!((m.sessions_completed, m.sessions_failed), (0, 4));
        assert_eq!(m.sessions_rejected_saturated, 0);
        assert_eq!(m.sessions_in_flight, 0);
    }

    #[test]
    fn drop_drains_every_admitted_session() {
        let service = Service::new(ServiceConfig {
            shards: 1,
            workers_per_shard: 2,
            ..ServiceConfig::default()
        });
        let healthy: Vec<ServiceHandle> = (0..2)
            .map(|i| {
                service
                    .submit(i, small_params(2, 400 + i))
                    .expect("admitted")
            })
            .collect();
        let cancelled = service.submit(9, small_params(2, 411)).expect("admitted");
        cancelled.cancel();
        drop(service); // the drain must resolve every slot, failures included
                       // The cancel races the workers: either it landed in time or the
                       // session completed first — both resolve, neither hangs the drain.
        match cancelled.join() {
            Err(RunError::Cancelled) | Ok(_) => {}
            Err(e) => panic!("unexpected error: {e}"),
        }
        for handle in healthy {
            assert!(handle.is_finished());
            assert_eq!(handle.join().unwrap().ranks().len(), 2);
        }

        // Expired sessions, one of them also cancelled, drain as well.
        let service = Service::new(ServiceConfig {
            workers_per_shard: 2,
            session_budget: Some(Duration::ZERO),
            ..ServiceConfig::default()
        });
        let expired: Vec<ServiceHandle> = (0..3)
            .map(|i| {
                service
                    .submit(i, small_params(2, 410 + i))
                    .expect("admitted")
            })
            .collect();
        expired[0].cancel();
        drop(service);
        for handle in expired {
            assert!(handle.is_finished());
            match handle.join() {
                Err(RunError::Cancelled | RunError::DeadlineExceeded) => {}
                other => panic!("an expired session must not run: {other:?}"),
            }
        }
    }

    #[test]
    fn projection_sheds_sessions_over_the_horizon() {
        // A generous per-phase budget against a tiny horizon: every
        // admission projects over it, deterministically (no clock reads).
        let service = Service::new(ServiceConfig {
            budget: PhaseBudget::uniform(Duration::from_secs(1)),
            horizon: Some(Duration::from_millis(1)),
            ..ServiceConfig::default()
        });
        let err = service.submit(5, small_params(3, 50)).expect_err("shed");
        match err {
            AdmitError::ProjectedOverBudget {
                projected, horizon, ..
            } => {
                assert!(projected > horizon);
                // n = 3 ⇒ gain+keygen+encrypt+compare+submit + (n+1) hops
                // = 9 phases of 1 s on an empty shard.
                assert_eq!(projected, Duration::from_secs(9));
            }
            other => panic!("wrong rejection: {other:?}"),
        }
        let m = service.metrics();
        assert_eq!(m.sessions_admitted, 0);
        assert_eq!(m.sessions_rejected_deadline, 1);
        assert_eq!(m.sessions_in_flight, 0, "shed must release its slot");
    }

    #[test]
    fn saturation_sheds_when_the_window_is_full() {
        let service = Service::new(ServiceConfig {
            shards: 1,
            workers_per_shard: 1,
            max_in_flight: 2,
            ..ServiceConfig::default()
        });
        // Two admitted sessions fill the window long before the single
        // worker can resolve them; the third is shed at the door.
        let a = service.submit(1, small_params(4, 60)).expect("admitted");
        let b = service.submit(2, small_params(4, 61)).expect("admitted");
        let err = service.submit(3, small_params(4, 62)).expect_err("shed");
        assert!(
            matches!(
                err,
                AdmitError::Saturated {
                    shard: 0,
                    in_flight: 2,
                    limit: 2,
                }
            ),
            "wrong rejection: {err:?}"
        );
        a.join().expect("a");
        b.join().expect("b");
        let m = service.metrics();
        assert_eq!(m.sessions_admitted, 2);
        assert_eq!(m.sessions_rejected_saturated, 1);
        assert_eq!(m.sessions_completed, 2);
        assert_eq!(m.sessions_in_flight, 0);
    }

    #[test]
    fn metrics_surface_amortization_and_caches() {
        let service = Service::new(ServiceConfig {
            shards: 1,
            workers_per_shard: 2,
            verify_batch: 3,
            ..ServiceConfig::default()
        });
        let handles: Vec<ServiceHandle> = (0..5)
            .map(|i| {
                service
                    .submit(i, small_params(3, 9000 + i))
                    .expect("admitted")
            })
            .collect();
        for (i, handle) in handles.into_iter().enumerate() {
            let served = handle.join().expect("session completes");
            let solo = solo_run(3, 9000 + i as u64);
            assert_eq!(served.ranks(), solo.ranks());
            assert_eq!(served.traffic(), solo.traffic());
        }
        let m = service.metrics();
        assert_eq!(
            m.verify_batched_sessions, 5,
            "every cold deferred session must settle through the collector"
        );
        assert_eq!(m.verify_batched_proofs, 15);
        assert!(
            (1..=5).contains(&m.verify_flushes),
            "flushes happen per window or on idle, got {}",
            m.verify_flushes
        );
        assert_eq!(m.caches.len(), 1, "one group kind served ⇒ one cache row");
        assert_eq!(m.caches[0].label, "ecc160/comb");
        assert!(
            m.caches[0].hits + m.caches[0].misses > 0,
            "comb lookups must have been counted"
        );
        // The snapshot serializes under the pinned contract.
        let json = m.to_json();
        for field in MetricsSnapshot::FIELDS {
            assert!(json.contains(&format!("\"{field}\"")));
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(4))]

        /// Warm keygen-tier machines, stepped by any number of workers,
        /// produce the ranks and wire traffic of the cold solo run.
        #[test]
        fn warm_keygen_sessions_match_cold_solo_runs(
            n in 2usize..5,
            seed in 0u64..10_000,
            workers in 1usize..=3,
        ) {
            let service = Service::new(ServiceConfig {
                workers_per_shard: workers,
                ..ServiceConfig::default()
            });
            let handles: Vec<ServiceHandle> = (0..2)
                .map(|i| {
                    let mut warm = machine(n, seed + i, false);
                    let stock = OfflineStock::generate(warm.offline_fingerprint());
                    assert!(warm.attach_offline_stock(stock));
                    service.submit_session(i, warm).expect("admitted")
                })
                .collect();
            for (i, handle) in handles.into_iter().enumerate() {
                let served = handle.join().expect("warm session completes");
                let solo = solo_run(n, seed + i as u64);
                prop_assert_eq!(served.ranks(), solo.ranks());
                prop_assert_eq!(served.traffic(), solo.traffic());
            }
        }
    }
}
