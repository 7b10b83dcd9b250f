//! # ppgr — Privacy Preserving Group Ranking
//!
//! A full Rust reproduction of *“Privacy Preserving Group Ranking”*
//! (Li, Zhao, Xue, Silva — IEEE ICDCS 2012): an initiator and `n`
//! participants jointly rank the participants by a private gain function so
//! that each participant learns only her own rank, the initiator learns only
//! the top-k, and gains cannot be linked to identities by up to `n−2`
//! colluders.
//!
//! This facade crate re-exports the workspace:
//!
//! * [`core`] — the framework itself (three phases, the identity-unlinkable
//!   multiparty sorting protocol, security-game harness).
//! * [`bigint`], [`group`], [`elgamal`], [`zkp`], [`dotprod`] — the
//!   cryptographic substrates, all implemented from scratch.
//! * [`service`] — ranking as a service: many sessions stepped
//!   concurrently on sharded work-stealing pools, behind budget-driven
//!   admission control, with cross-session crypto amortization.
//! * [`smc`] — the Shamir/BGW secret-sharing baseline (“SS framework”).
//! * [`net`] — in-memory transports, traffic metrics, and the NS2-substitute
//!   discrete-event network simulator.
//! * [`hash`] — SHA-256 / HMAC / HKDF / DRBG.
//!
//! # Quickstart
//!
//! ```
//! use ppgr::core::{AttributeKind, FrameworkParams, GroupRanking, Questionnaire};
//! use ppgr::group::GroupKind;
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! let questionnaire = Questionnaire::builder()
//!     .attribute("age", AttributeKind::EqualTo)
//!     .attribute("friends", AttributeKind::GreaterThan)
//!     .build()?;
//! let params = FrameworkParams::builder(questionnaire)
//!     .participants(4)
//!     .top_k(2)
//!     .group(GroupKind::Ecc160)
//!     .attr_bits(6)      // d₁ — small demo widths keep this example fast
//!     .weight_bits(3)    // d₂
//!     .mask_bits(6)      // h
//!     .seed(7)
//!     .build()?;
//! let outcome = GroupRanking::new(params)
//!     .with_random_population()
//!     .run()?;
//! assert_eq!(outcome.top_k().len(), 2);
//! # Ok(())
//! # }
//! ```

#![forbid(unsafe_code)]
#![deny(unused_must_use)]

pub use ppgr_bigint as bigint;
pub use ppgr_core as core;
pub use ppgr_dotprod as dotprod;
pub use ppgr_elgamal as elgamal;
pub use ppgr_group as group;
pub use ppgr_hash as hash;
pub use ppgr_net as net;
pub use ppgr_service as service;
pub use ppgr_smc as smc;
pub use ppgr_zkp as zkp;
