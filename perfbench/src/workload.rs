//! The three workloads, their set-up, the measured window and the
//! correctness gate.
//!
//! Every workload runs four-party ECC-160 ranking sessions with the
//! parameters of the workspace's `latency` and `throughput` binaries (one
//! equal-to and two greater-than attributes, 6-bit attributes, 3-bit
//! weights, 6-bit masks, top 2). Session `i` of a run is seeded
//! `base_seed + i`; the program under test receives only the generated
//! [`FrameworkParams`].

use ppgr_core::submit::AcceptedSubmission;
use ppgr_core::{
    compute_gain, run_distributed, DistributedOutcome, FrameworkParams, GroupRanking, Outcome,
    Questionnaire, SessionStatus, SortOptions,
};
use ppgr_group::{CacheStats, EcGroup, GroupKind};
use ppgr_hash::HashDrbg;
use ppgr_service::{MetricsSnapshot, Service, ServiceConfig};
use rand::SeedableRng;
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::{Duration, Instant};

use crate::host;

/// The group every workload ranks in.
pub const GROUP: GroupKind = GroupKind::Ecc160;
/// Participants per session.
pub const PARTICIPANTS: usize = 4;
/// Parties with a rank up to this submit in phase 3.
const TOP_K: usize = 2;

#[derive(Clone, Copy, Debug, Eq, PartialEq)]
pub enum Workload {
    /// `GroupRanking::run`, one session at a time, default (multi-core)
    /// sort options: the latency one initiator sees.
    SoloEcc160,
    /// The ranking service under a closed loop of 2×nproc callers.
    ServiceEcc160,
    /// `run_distributed`: one thread per party over the channel mesh.
    MeshEcc160,
}

impl Workload {
    pub const ALL: [Workload; 3] = [
        Workload::SoloEcc160,
        Workload::ServiceEcc160,
        Workload::MeshEcc160,
    ];

    pub fn name(self) -> &'static str {
        match self {
            Workload::SoloEcc160 => "solo-ecc160-n4",
            Workload::ServiceEcc160 => "service-ecc160-n4",
            Workload::MeshEcc160 => "mesh-ecc160-n4",
        }
    }

    pub fn parse(name: &str) -> Option<Self> {
        Self::ALL.into_iter().find(|w| w.name() == name)
    }

    /// Sessions a measured window holds at least. A hundred leave ten or
    /// more samples beyond `latency_p90_ms`. The service keeps both cores
    /// busy, so its throughput follows the host's speed most closely; its
    /// window holds more sessions to average over more of the host's
    /// slow and fast spells.
    pub fn min_sessions(self) -> u64 {
        match self {
            Workload::ServiceEcc160 => 400,
            _ => 100,
        }
    }

    /// Whether a traced run can put spans inside this workload's sessions.
    /// The mesh engine offers no boundary inside a session.
    fn traceable(self) -> bool {
        self != Workload::MeshEcc160
    }
}

/// The parameters of the session seeded `seed`.
pub fn session_params(seed: u64) -> FrameworkParams {
    params(GROUP, PARTICIPANTS, seed)
}

pub fn params(group: GroupKind, participants: usize, seed: u64) -> FrameworkParams {
    FrameworkParams::builder(Questionnaire::synthetic(1, 2))
        .participants(participants)
        .top_k(TOP_K)
        .attr_bits(6)
        .weight_bits(3)
        .mask_bits(6)
        .group(group)
        .seed(seed)
        .build()
        .expect("benchmark parameters are valid")
}

/// The seed of the untimed warm-up session: distinct from every measured
/// session's seed, so the warm-up cannot pre-build a measured session's
/// key tables.
fn warmup_seed(base_seed: u64) -> u64 {
    base_seed.wrapping_sub(1)
}

/// Long-lived state built before the first timed request.
pub struct Ready {
    workload: Workload,
    service: Option<Service>,
}

/// Builds the group instance and its generator comb table, the service
/// (on the service workload) and runs one untimed warm-up session.
pub fn set_up(workload: Workload, base_seed: u64) -> Ready {
    let group = GROUP.group();
    std::hint::black_box(group.exp_gen(&group.scalar_from_u64(3)));
    let service = (workload == Workload::ServiceEcc160).then(|| {
        Service::new(ServiceConfig {
            shards: 1,
            workers_per_shard: host::available_parallelism(),
            verify_batch: 4,
            ..ServiceConfig::default()
        })
    });
    let ready = Ready { workload, service };
    let warm = ready.session(warmup_seed(base_seed), u64::MAX, false);
    if let Err(e) = warm.result {
        panic!("warm-up session failed: {e}");
    }
    ready
}

/// Fills the process-wide comb-table cache to its capacity with tables of
/// one-shot bases, the state a long-running process reaches after a few
/// dozen sessions (every session's joint key is new). Measuring from there
/// keeps the peak resident set independent of how many sessions a window
/// holds. Not part of `setup_s`: the program never does this itself.
pub fn fill_comb_cache() {
    let group = GROUP.group();
    let capacity = (EcGroup::COMB_CACHE_SHARDS * EcGroup::COMB_CACHE_CAP) as u64;
    for i in 0..16 * capacity {
        if group.comb_cache_stats().entries >= capacity {
            return;
        }
        let base = group.exp_gen(&group.scalar_from_u64(0x5eed_0000 + i));
        std::hint::black_box(group.prepare_base(&base));
    }
    panic!("the comb cache did not fill to {capacity} entries");
}

/// What one session produced.
pub enum Ranked {
    /// An in-process outcome (solo and service workloads).
    Outcome(Box<Outcome>),
    /// The outcome of a mesh run: ranks and the initiator's report.
    Mesh(DistributedOutcome),
}

impl Ranked {
    pub fn ranks(&self) -> &[usize] {
        match self {
            Ranked::Outcome(o) => o.ranks(),
            Ranked::Mesh(m) => &m.ranks,
        }
    }

    pub fn outcome(&self) -> Option<&Outcome> {
        match self {
            Ranked::Outcome(o) => Some(o),
            Ranked::Mesh(_) => None,
        }
    }

    /// The submissions the initiator accepted.
    fn accepted(&self) -> &[AcceptedSubmission] {
        match self {
            Ranked::Outcome(o) => o.top_k(),
            Ranked::Mesh(m) => &m.report.accepted,
        }
    }
}

/// One measured session.
pub struct Record {
    pub seed: u64,
    /// From handing the parameters to the program until the outcome.
    pub latency: Duration,
    /// Whether this session ran with the outside spans of a traced run.
    pub traced: bool,
    pub result: Result<Ranked, String>,
    /// One span per `SessionMachine::step` call (traced solo sessions).
    pub steps: Vec<Duration>,
    /// The `Service::submit` call (traced service sessions).
    pub submit: Option<Duration>,
}

impl Ready {
    /// Runs one session. `traced` adds the outside spans: one per
    /// `SessionMachine::step` call on the solo workload, one around
    /// `Service::submit` on the service workload.
    pub fn session(&self, seed: u64, session_id: u64, traced: bool) -> Record {
        let params = session_params(seed);
        let mut record = Record {
            seed,
            latency: Duration::ZERO,
            traced,
            result: Err(String::new()),
            steps: Vec::new(),
            submit: None,
        };
        let start = Instant::now();
        record.result = match self.workload {
            Workload::SoloEcc160 if traced => {
                drive(params, SortOptions::default(), Some(&mut record.steps))
                    .map(|o| Ranked::Outcome(Box::new(o)))
            }
            Workload::SoloEcc160 => GroupRanking::new(params)
                .with_random_population()
                .run()
                .map(|o| Ranked::Outcome(Box::new(o)))
                .map_err(|e| e.to_string()),
            Workload::ServiceEcc160 => {
                let service = self
                    .service
                    .as_ref()
                    .expect("service workload has a service");
                match service.submit(session_id, params) {
                    Ok(handle) => {
                        if traced {
                            record.submit = Some(start.elapsed());
                        }
                        handle
                            .join()
                            .map(|o| Ranked::Outcome(Box::new(o)))
                            .map_err(|e| e.to_string())
                    }
                    Err(e) => Err(format!("shed: {e}")),
                }
            }
            Workload::MeshEcc160 => {
                let mut rng = HashDrbg::seed_from_u64(params.seed());
                let (profile, infos) = params.random_population(&mut rng);
                run_distributed(&params, profile, infos)
                    .map(Ranked::Mesh)
                    .map_err(|e| e.to_string())
            }
        };
        record.latency = start.elapsed();
        record
    }

    fn service_metrics(&self) -> Option<MetricsSnapshot> {
        self.service.as_ref().map(Service::metrics)
    }
}

/// Drives a session machine with the given sort options to completion, as
/// `GroupRanking::run` does; with `spans`, records one span around every
/// `step` call.
fn drive(
    params: FrameworkParams,
    options: SortOptions,
    mut spans: Option<&mut Vec<Duration>>,
) -> Result<Outcome, String> {
    let mut machine = GroupRanking::new(params)
        .with_random_population()
        .into_machine_with(options)
        .map_err(|e| e.to_string())?;
    loop {
        let t = Instant::now();
        let status = machine.step().map_err(|e| e.to_string())?;
        if let Some(spans) = spans.as_deref_mut() {
            spans.push(t.elapsed());
        }
        if status == SessionStatus::Done {
            break;
        }
    }
    machine
        .into_outcome()
        .ok_or_else(|| "machine done without an outcome".to_string())
}

/// Everything the measured window observed.
pub struct Window {
    pub records: Vec<Record>,
    pub wall: Duration,
    pub cpu_ms: f64,
    pub peak_rss_mb: f64,
    pub steal_frac: f64,
    pub comb: (CacheStats, CacheStats),
    pub service: Option<(MetricsSnapshot, MetricsSnapshot)>,
}

impl Window {
    /// Request-to-outcome times of the sessions that returned a ranking.
    pub fn latencies_ms(&self) -> Vec<f64> {
        self.records
            .iter()
            .filter(|r| r.result.is_ok())
            .map(|r| r.latency.as_secs_f64() * 1e3)
            .collect()
    }
}

/// Runs sessions in a closed loop until `seconds` have passed and at least
/// the workload's minimum of sessions have started, or until twice
/// `seconds` have passed, which bounds a run on a slow host; a session
/// started before then runs to completion. In a traced run every other session of a traceable workload
/// is traced, so the untraced ones give the overhead.
pub fn run_window(ready: &Ready, base_seed: u64, seconds: f64, trace: bool) -> Window {
    let group = GROUP.group();
    let comb_before = group.comb_cache_stats();
    let service_before = ready.service_metrics();
    let cpu_before = host::process_cpu_ms();
    let host_before = host::CpuTimes::now();
    let next = AtomicU64::new(0);
    let start = Instant::now();
    let deadline = start + Duration::from_secs_f64(seconds);
    let cutoff = start + Duration::from_secs_f64(2.0 * seconds);
    let caller = || {
        let mut records = Vec::new();
        loop {
            let i = next.fetch_add(1, Ordering::Relaxed);
            let traced = trace && ready.workload.traceable() && i.is_multiple_of(2);
            records.push(ready.session(base_seed.wrapping_add(i), i, traced));
            let now = Instant::now();
            let enough = next.load(Ordering::Relaxed) >= ready.workload.min_sessions();
            if now >= cutoff || (now >= deadline && enough) {
                return records;
            }
        }
    };
    let callers = match ready.workload {
        Workload::ServiceEcc160 => 2 * host::available_parallelism(),
        _ => 1,
    };
    let mut records: Vec<Record> = std::thread::scope(|s| {
        let handles: Vec<_> = (0..callers).map(|_| s.spawn(caller)).collect();
        handles
            .into_iter()
            .flat_map(|h| h.join().expect("caller thread"))
            .collect()
    });
    let wall = start.elapsed();
    records.sort_by_key(|r| r.seed.wrapping_sub(base_seed));
    Window {
        records,
        wall,
        cpu_ms: host::process_cpu_ms() - cpu_before,
        peak_rss_mb: host::peak_rss_mb(),
        steal_frac: host_before.steal_frac_until(&host::CpuTimes::now()),
        comb: (comb_before, group.comb_cache_stats()),
        service: service_before.zip(ready.service_metrics()),
    }
}

/// Checks that `ranks` agree with the strict order of the plaintext
/// `gains`: a strictly larger gain must hold a strictly better (smaller)
/// rank. Ties may be broken either way.
pub fn ranks_agree(gains: &[i128], ranks: &[usize]) -> Result<(), String> {
    let n = gains.len();
    if ranks.len() != n {
        return Err(format!("{} ranks for {n} parties", ranks.len()));
    }
    if let Some(r) = ranks.iter().find(|&&r| r == 0 || r > n) {
        return Err(format!("rank {r} outside 1..={n}"));
    }
    for a in 0..n {
        for b in 0..n {
            if gains[a] > gains[b] && ranks[a] >= ranks[b] {
                return Err(format!(
                    "party {} (gain {}) ranked {} but party {} (gain {}) ranked {}",
                    a + 1,
                    gains[a],
                    ranks[a],
                    b + 1,
                    gains[b],
                    ranks[b]
                ));
            }
        }
    }
    Ok(())
}

/// The plaintext gains of the population a session with `params` ranks.
pub fn plaintext_gains(params: &FrameworkParams) -> Vec<i128> {
    let mut rng = HashDrbg::seed_from_u64(params.seed());
    let (profile, infos) = params.random_population(&mut rng);
    infos
        .iter()
        .map(|info| compute_gain(params.questionnaire(), &profile, info))
        .collect()
}

/// The parties that submit in phase 3: those ranked within the top k.
fn expected_submitters(ranks: &[usize]) -> Vec<usize> {
    (1..=ranks.len())
        .filter(|&party| ranks[party - 1] <= TOP_K)
        .collect()
}

fn submitters(accepted: &[AcceptedSubmission]) -> Vec<usize> {
    let mut parties: Vec<usize> = accepted.iter().map(|a| a.submission.party).collect();
    parties.sort_unstable();
    parties
}

/// Checks one session: its ranks against the plaintext gain order; the
/// initiator's acceptance of every honest top-k submission (and, on the
/// mesh, a report without flags); and, for in-process outcomes, ranks,
/// accepted submissions and traffic against a serial (`threads: 1`) solo
/// run of the same seed.
pub fn check(record: &Record) -> Result<(), String> {
    let ranked = record.result.as_ref().map_err(Clone::clone)?;
    let params = session_params(record.seed);
    ranks_agree(&plaintext_gains(&params), ranked.ranks())?;
    if let Ranked::Mesh(out) = ranked {
        if !out.report.is_clean() {
            return Err(format!(
                "the initiator flagged honest submissions: {:?}",
                out.report.flags
            ));
        }
    }
    let expected = expected_submitters(ranked.ranks());
    let accepted = submitters(ranked.accepted());
    if accepted != expected {
        return Err(format!(
            "the initiator accepted submissions of parties {accepted:?}, expected {expected:?}"
        ));
    }
    if let Some(outcome) = ranked.outcome() {
        let reference = drive(
            params,
            SortOptions {
                threads: 1,
                ..SortOptions::default()
            },
            None,
        )?;
        if outcome.ranks() != reference.ranks() {
            return Err(format!(
                "ranks {:?} differ from the serial reference {:?}",
                outcome.ranks(),
                reference.ranks()
            ));
        }
        if outcome.top_k() != reference.top_k() {
            return Err("accepted submissions differ from the serial reference".to_string());
        }
        if outcome.traffic() != reference.traffic() {
            return Err("traffic differs from the serial reference".to_string());
        }
    }
    Ok(())
}

/// Checks every record on all available cores; returns one verdict per
/// record, in order.
pub fn check_all(records: &[Record]) -> Vec<Result<(), String>> {
    let chunk = records.len().div_ceil(host::available_parallelism()).max(1);
    std::thread::scope(|s| {
        let handles: Vec<_> = records
            .chunks(chunk)
            .map(|part| s.spawn(move || part.iter().map(check).collect::<Vec<_>>()))
            .collect();
        handles
            .into_iter()
            .flat_map(|h| h.join().expect("check thread"))
            .collect()
    })
}

#[cfg(test)]
mod tests {
    use super::{expected_submitters, ranks_agree};

    #[test]
    fn the_top_k_and_everyone_tied_with_them_submit() {
        assert_eq!(expected_submitters(&[1, 3, 2, 4]), vec![1, 3]);
        assert_eq!(expected_submitters(&[2, 2, 1, 4]), vec![1, 2, 3]);
        assert_eq!(expected_submitters(&[3, 3, 3, 3]), Vec::<usize>::new());
    }

    #[test]
    fn gate_accepts_the_gain_order_and_either_tie_break() {
        assert!(ranks_agree(&[30, 10, 20], &[1, 3, 2]).is_ok());
        assert!(ranks_agree(&[5, 5, 1], &[1, 2, 3]).is_ok());
        assert!(ranks_agree(&[5, 5, 1], &[2, 1, 3]).is_ok());
        assert!(ranks_agree(&[5, 5, 1], &[1, 1, 3]).is_ok());
    }

    #[test]
    fn gate_rejects_swapped_missing_and_out_of_range_ranks() {
        assert!(ranks_agree(&[30, 10, 20], &[3, 1, 2]).is_err());
        assert!(ranks_agree(&[30, 10, 20], &[1, 2, 2]).is_err());
        assert!(ranks_agree(&[30, 10, 20], &[1, 3]).is_err());
        assert!(ranks_agree(&[30, 10, 20], &[1, 4, 2]).is_err());
        assert!(ranks_agree(&[30, 10, 20], &[0, 3, 2]).is_err());
    }
}
