//! Multi-session throughput: many independent ranking sessions served by
//! one service shard (a persistent work-stealing pool), versus the same
//! sessions back-to-back.
//!
//! Each session's shuffle-decrypt chain stays strictly sequential (the
//! unlinkability invariant), but sessions share nothing — so while one
//! session's hop occupies a worker, the pool runs other sessions' hops.
//! Every pooled outcome is asserted bit-identical to its solo serial run.
//!
//! ```text
//! cargo run --release --example throughput
//! ```

use ppgr::core::{FrameworkParams, GroupRanking, Questionnaire};
use ppgr::group::GroupKind;
use ppgr::service::{Service, ServiceConfig};
use std::time::Instant;

fn params_for(seed: u64) -> FrameworkParams {
    FrameworkParams::builder(Questionnaire::synthetic(1, 2))
        .participants(4)
        .top_k(2)
        .attr_bits(6)
        .weight_bits(3)
        .mask_bits(6)
        .group(GroupKind::Ecc160)
        .seed(seed)
        .build()
        .expect("valid params")
}

fn main() {
    let sessions = 6;
    let workers = std::thread::available_parallelism().map_or(1, |n| n.get());
    let service = Service::new(ServiceConfig {
        workers_per_shard: workers,
        ..ServiceConfig::default()
    });
    println!("submitting {sessions} ECC-160 n=4 sessions to a {workers}-worker pool…");

    // Baseline: the same sessions back-to-back, one at a time.
    let serial_start = Instant::now();
    let solo: Vec<_> = (0..sessions)
        .map(|i| {
            GroupRanking::new(params_for(i))
                .with_random_population()
                .run()
                .expect("solo run")
        })
        .collect();
    let serial = serial_start.elapsed();

    // Pooled: submit everything, then join.
    let pooled_start = Instant::now();
    let handles: Vec<_> = (0..sessions)
        .map(|i| service.submit(i, params_for(i)).expect("admitted"))
        .collect();
    let pooled: Vec<_> = handles
        .into_iter()
        .map(|h| h.join().expect("pooled run"))
        .collect();
    let elapsed = pooled_start.elapsed();

    for (i, (p, s)) in pooled.iter().zip(&solo).enumerate() {
        assert_eq!(p.ranks(), s.ranks(), "session {i} ranks diverged");
        assert_eq!(p.traffic(), s.traffic(), "session {i} transcript diverged");
        println!("session {i}: ranks {:?} (identical to solo run)", p.ranks());
    }
    let rate = |d: std::time::Duration| sessions as f64 / d.as_secs_f64();
    println!(
        "back-to-back: {serial:.2?} ({:.2} sessions/s) | pooled: {elapsed:.2?} ({:.2} sessions/s)",
        rate(serial),
        rate(elapsed),
    );
    println!("speedup scales with cores; per-session transcripts are scheduling-independent.");
}
