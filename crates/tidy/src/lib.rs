//! `ppgr-tidy` — crypto-invariant static analysis for the ppgr workspace.
//!
//! The paper's central privacy claims (private input hiding, gain secrecy,
//! identity unlinkability — Sec. IV/V) hold only while the implementation
//! keeps a set of invariants no type system checks for us:
//!
//! * **secret-hygiene** — secrets (ElGamal key shares, Schnorr witnesses,
//!   the ρ/ρ_j masks, shuffle permutations) never reach `Debug`/`Display`
//!   output or a variable-time `==`;
//! * **determinism** — all protocol randomness flows from an injected
//!   `Rng`; no ambient `thread_rng()`/`OsRng`/wall-clock reads outside
//!   sanctioned timing modules (the service's bit-identical
//!   transcript guarantee rests on this);
//! * **panic** — the protocol surface returns typed errors instead of
//!   panicking on attacker-reachable input;
//! * **headers** — every crate and binary root keeps its
//!   `#![forbid(unsafe_code)]` / `#![deny(unused_must_use)]` lint
//!   headers;
//! * **secret-branch / secret-index / secret-escape** — an
//!   intraprocedural taint pass ([`flow`]) over function skeletons
//!   recovered by a structural parser ([`parser`]): control flow and
//!   memory addressing must not depend on secret-derived values, and
//!   tainted values must not escape via unwiped clones, plain-typed
//!   returns, or formatting — unless laundered through a registered
//!   declassifier (exponentiation, hashing, encryption, verification
//!   verdicts) or re-wrapped in `Secret`.
//!
//! The analyzer is dependency-free: a hand-rolled tokenizer ([`lexer`])
//! feeds token-level rules ([`rules`]) and the dataflow pass, driven
//! per-file by [`engine`], which also implements `#[cfg(test)]`
//! scoping, stable line-independent fingerprints, and the inline
//! waiver syntax:
//!
//! ```text
//! do_thing().unwrap(); // tidy:allow(panic) — <why this cannot fire>
//! ```
//!
//! A standalone `// tidy:allow(rule) — reason` comment line covers the
//! next line. Findings justified by a *protocol argument* rather than
//! a line-local claim live in `tidy.waivers` at the workspace root
//! ([`waivers`]), keyed by fingerprint with a mandatory reason and
//! expiry date. Reasonless, stale, expired, and unmatched waivers are
//! themselves diagnostics. [`report`] serializes findings as JSON and
//! SARIF 2.1.0 for CI. See `docs/ANALYSIS.md` for the full rule
//! catalogue and each rule's protocol rationale.
//!
//! Run as `cargo run --release -p ppgr-tidy`; the same pass also runs as a
//! `#[test]` so `cargo test` gates it.

#![forbid(unsafe_code)]
#![deny(unused_must_use)]
#![warn(missing_docs)]

pub mod engine;
pub mod flow;
pub mod lexer;
pub mod parser;
pub mod report;
pub mod rules;
pub mod waivers;

pub use engine::{analyze_source, analyze_workspace, Diagnostic};
