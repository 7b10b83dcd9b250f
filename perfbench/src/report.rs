//! Turns a measured window into the named metrics: the end-to-end set of
//! an untraced run, and the per-layer set of a traced run.

use ppgr_core::Outcome;
use ppgr_group::GroupKind;
use std::time::Duration;

use crate::layers;
use crate::stats::{mean, median, quantile, ratio};
use crate::workload::{self, Record, Window, Workload, PARTICIPANTS};

/// One named metric with its unit.
pub type Metric = (String, f64, &'static str);

/// The end-to-end metrics, in output order.
pub const END_TO_END: [(&str, &str); 6] = [
    ("sessions_per_s", "1/s"),
    ("latency_p50_ms", "ms"),
    ("latency_p90_ms", "ms"),
    ("cpu_ms_per_session", "ms"),
    ("peak_rss_mb", "MB"),
    ("setup_s", "s"),
];

/// The traffic phases a session logs, as `TrafficLog` names them.
const PHASES: [&str; 8] = [
    "gain",
    "sort/keys",
    "sort/zkp",
    "sort/bits",
    "sort/collect",
    "sort/chain",
    "sort/return",
    "submit",
];

/// The per-step buckets of a traced session, in step order.
const STEP_BUCKETS: [&str; 8] = [
    "offline", "gain", "keygen", "encrypt", "compare", "hop", "finish", "submit",
];

fn ms(d: Duration) -> f64 {
    d.as_secs_f64() * 1e3
}

fn completed(window: &Window) -> impl Iterator<Item = &Record> {
    window.records.iter().filter(|r| r.result.is_ok())
}

fn outcomes(window: &Window) -> impl Iterator<Item = (&Record, &Outcome)> {
    completed(window).filter_map(|r| r.result.as_ref().ok()?.outcome().map(|o| (r, o)))
}

pub fn end_to_end(window: &Window, setup_s: f64) -> Vec<Metric> {
    let latencies = window.latencies_ms();
    let sessions = latencies.len() as f64;
    let values = [
        ratio(sessions, window.wall.as_secs_f64()),
        quantile(&latencies, 0.5),
        quantile(&latencies, 0.9),
        ratio(window.cpu_ms, sessions),
        window.peak_rss_mb,
        setup_s,
    ];
    END_TO_END
        .iter()
        .zip(values)
        .map(|(&(name, unit), v)| (name.to_string(), v, unit))
        .collect()
}

/// Maps step `i` of a session with `n` participants to its bucket in
/// [`STEP_BUCKETS`]. The order is offline, gain, sort-offline, keygen,
/// encrypt, n compare steps, n hop steps, finish, submit: 2n + 7 steps.
fn step_bucket(i: usize, n: usize) -> usize {
    match i {
        0 | 2 => 0,
        1 => 1,
        3 => 2,
        4 => 3,
        i if i < 5 + n => 4,
        i if i < 5 + 2 * n => 5,
        i if i == 5 + 2 * n => 6,
        _ => 7,
    }
}

/// The per-layer metrics of a traced run, followed by report lines that
/// reconcile the layers with the whole.
pub fn per_layer(workload: Workload, window: &Window) -> (Vec<Metric>, Vec<String>) {
    let mut out: Vec<Metric> = Vec::new();
    let mut notes = Vec::new();
    let n = PARTICIPANTS;
    let l = workload::session_params(0).beta_bits();

    // core: one span per SessionMachine::step, bucketed by step position.
    let traced: Vec<&Record> = completed(window).filter(|r| !r.steps.is_empty()).collect();
    let labelled = traced.iter().all(|r| r.steps.len() == 2 * n + 7);
    let mut buckets = [0.0f64; STEP_BUCKETS.len()];
    let mut residual = 0.0;
    if !traced.is_empty() {
        let count = traced.len() as f64;
        for r in &traced {
            if labelled {
                for (i, d) in r.steps.iter().enumerate() {
                    buckets[step_bucket(i, n)] += ms(*d) / count;
                }
            }
            residual += (ms(r.latency) - r.steps.iter().copied().map(ms).sum::<f64>()) / count;
        }
        if !labelled {
            let longest = traced.iter().map(|r| r.steps.len()).max().unwrap_or(0);
            let rows: Vec<String> = (0..longest)
                .map(|i| {
                    let spans: Vec<f64> = traced
                        .iter()
                        .filter_map(|r| r.steps.get(i))
                        .map(|d| ms(*d))
                        .collect();
                    format!("{:.3}", mean(&spans))
                })
                .collect();
            notes.push(format!(
                "core: step count differs from 2n+7 = {}; unlabelled mean step ms: [{}]",
                2 * n + 7,
                rows.join(", ")
            ));
        }
    }
    for (name, v) in STEP_BUCKETS.iter().zip(buckets) {
        out.push((format!("core.{name}_ms"), v, "ms"));
    }
    out.push(("core.residual_ms".into(), residual, "ms"));

    // core traffic, exact per-session counts from the outcome's log.
    let traffic: Vec<_> = outcomes(window).map(|(_, o)| o.traffic()).collect();
    for phase in PHASES {
        let bytes: Vec<f64> = traffic
            .iter()
            .map(|t| t.bytes_by_phase.get(phase).copied().unwrap_or(0) as f64)
            .collect();
        out.push((
            format!("core.bytes.{}", phase.replace('/', "-")),
            mean(&bytes),
            "B",
        ));
    }
    if let Some(t) = traffic.first() {
        let unknown: Vec<_> = t
            .bytes_by_phase
            .keys()
            .filter(|p| !PHASES.contains(p))
            .collect();
        if !unknown.is_empty() {
            notes.push(format!("core: phases not in the metric list: {unknown:?}"));
        }
    }
    let messages: Vec<f64> = traffic.iter().map(|t| t.messages as f64).collect();
    let bytes: Vec<f64> = traffic.iter().map(|t| t.total_bytes as f64).collect();
    out.push(("core.messages_per_session".into(), mean(&messages), "count"));
    out.push(("core.wire_bytes_per_session".into(), mean(&bytes), "B"));

    // Library layers, timed from outside on fixed inputs.
    let mut lib: Vec<Metric> = Vec::new();
    // DL-1024 is timed with three parties, the size at which one
    // DL-1024 session stays near a second.
    let l_dl = workload::params(GroupKind::Dl1024, 3, 0).beta_bits();
    layers::bigint(&mut lib);
    layers::group(GroupKind::Ecc160, &mut lib);
    layers::group(GroupKind::Dl1024, &mut lib);
    layers::elgamal(GroupKind::Ecc160, n, l, &mut lib);
    layers::elgamal(GroupKind::Dl1024, 3, l_dl, &mut lib);
    layers::zkp(n, &mut lib);
    layers::wire(n, l, &mut lib);
    let (hits, misses) = (
        window.comb.1.hits.saturating_sub(window.comb.0.hits) as f64,
        window.comb.1.misses.saturating_sub(window.comb.0.misses) as f64,
    );
    lib.push((
        "group.comb_cache_hit_ratio".into(),
        ratio(hits, hits + misses),
        "ratio",
    ));

    // Reconciliation: the hop steps against the per-ciphertext hop cost.
    // n hops, each over the n−1 foreign sets of (n−1)·l ciphertexts.
    let hop_ct_us = lib
        .iter()
        .find(|m| m.0 == "elgamal.hop_ct_us.ecc160")
        .map_or(0.0, |m| m.1);
    let hop_cts = (n * (n - 1) * (n - 1) * l) as f64;
    let hop_ms = buckets[5];
    let hop_model_ms = if traced.is_empty() {
        0.0
    } else {
        hop_ct_us * hop_cts / 1e3
    };
    out.extend(lib);
    out.push(("core.hop_model_ms".into(), hop_model_ms, "ms"));
    out.push(("core.hop_residual_ms".into(), hop_ms - hop_model_ms, "ms"));
    if !traced.is_empty() {
        notes.push(format!(
            "reconcile: core.hop_ms {hop_ms:.3} = elgamal.hop_ct_us {hop_ct_us:.3} x {hop_cts} \
             hop ciphertexts ({hop_model_ms:.3} ms) + residual {:.3} ms",
            hop_ms - hop_model_ms
        ));
        let spans: f64 = buckets.iter().sum();
        notes.push(format!(
            "reconcile: session {:.3} ms = step spans {spans:.3} ms + core.residual_ms {residual:.3}",
            spans + residual
        ));
    }

    // runtime / service: the service's own counters over the window.
    let service: Vec<(&Record, &Outcome)> = if workload == Workload::ServiceEcc160 {
        outcomes(window).collect()
    } else {
        Vec::new()
    };
    let submits: Vec<f64> = service
        .iter()
        .filter_map(|(r, _)| r.submit)
        .map(|d| d.as_secs_f64() * 1e6)
        .collect();
    let busy: Vec<f64> = service
        .iter()
        .map(|(_, o)| o.timings().per_party.iter().copied().map(ms).sum())
        .collect();
    let waits: Vec<f64> = service
        .iter()
        .zip(&busy)
        .map(|((r, _), b)| ms(r.latency) - b)
        .collect();
    out.push(("service.submit_us".into(), median(&submits), "us"));
    out.push(("runtime.busy_ms_per_session".into(), mean(&busy), "ms"));
    out.push(("runtime.queue_wait_ms".into(), mean(&waits), "ms"));
    let (mut proofs_per_flush, mut reuse, mut shed) = (0.0, 0.0, 0.0);
    if let Some((before, after)) = &window.service {
        let d = |f: fn(&ppgr_service::MetricsSnapshot) -> u64| {
            f(after).saturating_sub(f(before)) as f64
        };
        proofs_per_flush = ratio(d(|m| m.verify_batched_proofs), d(|m| m.verify_flushes));
        reuse = ratio(d(|m| m.scratch_reused), d(|m| m.sessions_admitted));
        let rejected = d(|m| m.sessions_rejected_saturated + m.sessions_rejected_deadline);
        shed = ratio(rejected, rejected + d(|m| m.sessions_admitted));
    }
    out.push((
        "runtime.verify_proofs_per_flush".into(),
        proofs_per_flush,
        "count",
    ));
    out.push(("runtime.scratch_reuse_frac".into(), reuse, "ratio"));
    out.push(("service.shed_frac".into(), shed, "ratio"));

    // Tracing overhead: traced against untraced sessions of this run. The
    // mesh workload runs no traced sessions, so it has no overhead to show.
    let latency_of = |traced: bool| -> Vec<f64> {
        completed(window)
            .filter(|r| r.traced == traced)
            .map(|r| ms(r.latency))
            .collect()
    };
    let (with, without) = (latency_of(true), latency_of(false));
    let overhead = if with.is_empty() {
        0.0
    } else {
        median(&with) - median(&without)
    };
    out.push(("trace.overhead_ms".into(), overhead, "ms"));
    if !with.is_empty() {
        notes.push(format!(
            "reconcile: trace.overhead_ms {overhead:.3} = traced p50 {:.3} ms - untraced p50 {:.3} ms",
            median(&with),
            median(&without)
        ));
    }
    (out, notes)
}

#[cfg(test)]
mod tests {
    use super::{step_bucket, STEP_BUCKETS};

    #[test]
    fn every_step_of_a_session_lands_in_its_bucket() {
        for n in 2..6 {
            let mut counts = [0; STEP_BUCKETS.len()];
            for i in 0..2 * n + 7 {
                counts[step_bucket(i, n)] += 1;
            }
            // offline (twice), gain, keygen, encrypt, n compare, n hop, finish, submit
            assert_eq!(counts, [2, 1, 1, 1, n, n, 1, 1]);
        }
        assert_eq!(step_bucket(5, 4), 4);
        assert_eq!(step_bucket(9, 4), 5);
        assert_eq!(step_bucket(13, 4), 6);
        assert_eq!(step_bucket(14, 4), 7);
    }
}
