//! Ranking-as-a-service: many ranking sessions served concurrently.
//!
//! [`GroupRanking::run`](ppgr_core::GroupRanking::run) measures *latency*:
//! one session, every party's crypto fanned out over short-lived scoped
//! threads. This crate serves the deployment where ranking requests arrive
//! as an open-ended stream, and measures *throughput*:
//!
//! * **Sharded sessions** — requests are routed by consistent hash of
//!   their session id onto independent worker-group shards, each a
//!   persistent work-stealing pool with its own run queues, so a given id
//!   always lands on the same queues and one pathological group cannot
//!   convoy every core behind it. Each session is a resumable
//!   [`SessionMachine`](ppgr_core::SessionMachine) stepped at hop
//!   granularity by one worker at a time: within a session the
//!   shuffle-decrypt chain stays strictly sequential (the paper's
//!   unlinkability argument), while the other workers step other sessions.
//! * **Admission control** — each shard carries a bounded in-flight window
//!   and a clock-free completion projection driven by
//!   [`PhaseBudget`](ppgr_net::PhaseBudget): a request the service cannot
//!   plausibly finish within the configured horizon is shed *at the door*
//!   with a typed [`AdmitError`], consuming no worker time, instead of
//!   being queued to miss its deadline quietly.
//! * **Cross-session crypto amortization** — admitted sessions share the
//!   shard's batched keygen proof verification (many sessions' Schnorr
//!   checks collapse into one aggregate multi-exponentiation, with
//!   per-session blame preserved), the process-wide warm comb caches and
//!   recycled hop scratch buffers.
//!
//! Sessions run cold: each mints its own offline stock as its first step.
//! A caller that has generated a session's stock ahead of time
//! ([`OfflineStock::generate`](ppgr_core::OfflineStock::generate)) attaches
//! it to the machine and hands the machine to
//! [`Service::submit_session`].
//!
//! The amortization invariant, pinned by the workspace proptests:
//! **batching reorders work, never bytes**. Each session's seeded DRBG
//! travels with it, so every admitted session's ranks and wire transcript
//! are bit-identical to a solo serial run with the same parameters — shed
//! sessions simply do not run.
//!
//! [`Service::metrics`] exports a scrape-ready [`MetricsSnapshot`]
//! (stable field names, pinned by test in `ppgr-net`) aggregating
//! admission counters, the shards' amortization counters and comb-cache
//! counters.
//!
//! # Example
//!
//! ```
//! use ppgr_core::{FrameworkParams, Questionnaire};
//! use ppgr_group::GroupKind;
//! use ppgr_service::{Service, ServiceConfig};
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! let service = Service::new(ServiceConfig {
//!     shards: 2,
//!     workers_per_shard: 1,
//!     verify_batch: 4,
//!     ..ServiceConfig::default()
//! });
//! let params = FrameworkParams::builder(Questionnaire::synthetic(1, 1))
//!     .participants(3)
//!     .top_k(1)
//!     .attr_bits(4)
//!     .weight_bits(2)
//!     .mask_bits(4)
//!     .group(GroupKind::Ecc160)
//!     .seed(7)
//!     .build()?;
//! let handle = service.submit(42, params).expect("admitted");
//! let outcome = handle.join()?;
//! assert_eq!(outcome.ranks().len(), 3);
//! assert_eq!(service.metrics().sessions_completed, 1);
//! # Ok(())
//! # }
//! ```

#![forbid(unsafe_code)]
#![deny(unused_must_use)]
#![warn(missing_docs)]

mod front;
mod pool;
mod ring;

pub use front::{AdmitError, Service, ServiceConfig, ServiceHandle};
pub use ppgr_net::MetricsSnapshot;
