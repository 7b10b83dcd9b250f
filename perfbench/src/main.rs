//! The ppgr benchmark.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload solo-ecc160-n4 --seed 1 --seconds 10 --trace 0
//! cargo run --release --manifest-path perfbench/Cargo.toml -- --self-test
//! ```
//!
//! One run sets up the workload, drives it in a closed loop for
//! `--seconds`, checks every session's outcome, and prints as its last
//! line one JSON object: `correct`, `attempted`, `failed` and the metrics
//! (the end-to-end set with `--trace 0`, the per-layer set with
//! `--trace 1`), each with its unit. Report lines before it state the
//! host, the sample counts and, in a traced run, the reconciliation of the
//! layers with the whole.

#![forbid(unsafe_code)]

mod host;
mod layers;
mod report;
mod stats;
mod workload;

use report::Metric;
use std::process::{Command, Stdio};
use std::time::Instant;
use workload::{Record, Workload};

/// Fresh-process set-ups per untraced run, on top of the run's own; the
/// reported `setup_s` is the median of all of them.
const SETUP_CHILDREN: usize = 6;

struct Run {
    workload: Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
}

enum Mode {
    Run(Run),
    /// Times one set-up in a fresh process and prints its seconds.
    SetupOnly(Workload, u64),
    SelfTest,
}

fn usage() -> ! {
    let names: Vec<&str> = Workload::ALL.iter().map(|w| w.name()).collect();
    eprintln!(
        "usage: ppgr-perfbench --workload <{}> --seed <n> --seconds <s> --trace <0|1>\n       \
         ppgr-perfbench --self-test",
        names.join("|")
    );
    std::process::exit(2);
}

fn parse_args() -> Mode {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut setup_only = false;
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        let mut value = || args.next().unwrap_or_else(|| usage());
        match arg.as_str() {
            "--workload" => workload = Some(Workload::parse(&value()).unwrap_or_else(|| usage())),
            "--seed" => seed = Some(value().parse::<u64>().unwrap_or_else(|_| usage())),
            "--seconds" => seconds = Some(value().parse::<f64>().unwrap_or_else(|_| usage())),
            "--trace" => {
                trace = Some(match value().as_str() {
                    "0" => false,
                    "1" => true,
                    _ => usage(),
                })
            }
            "--setup-only" => setup_only = true,
            "--self-test" => return Mode::SelfTest,
            _ => usage(),
        }
    }
    let (Some(workload), Some(seed)) = (workload, seed) else {
        usage()
    };
    if setup_only {
        return Mode::SetupOnly(workload, seed);
    }
    match (seconds, trace) {
        (Some(seconds), Some(trace)) if seconds.is_finite() && seconds >= 0.0 => Mode::Run(Run {
            workload,
            seed,
            seconds,
            trace,
        }),
        _ => usage(),
    }
}

/// Times one set-up in a fresh copy of this program, so the process-wide
/// group singletons and comb tables are built from scratch each time.
fn setup_in_child(workload: Workload, seed: u64) -> f64 {
    let out = Command::new(std::env::current_exe().expect("path of this program"))
        .args([
            "--setup-only",
            "--workload",
            workload.name(),
            "--seed",
            &seed.to_string(),
        ])
        .stderr(Stdio::inherit())
        .output()
        .expect("start set-up child");
    assert!(out.status.success(), "set-up child failed: {}", out.status);
    String::from_utf8_lossy(&out.stdout)
        .lines()
        .last()
        .and_then(|l| l.trim().parse().ok())
        .expect("set-up child prints its seconds")
}

/// The outcome of one run: everything the last line reports.
struct Report {
    attempted: usize,
    failed: usize,
    metrics: Vec<Metric>,
    lines: Vec<String>,
}

fn run(cfg: &Run) -> Report {
    let w = cfg.workload;
    let mut setups: Vec<f64> = Vec::new();
    if !cfg.trace {
        for _ in 0..SETUP_CHILDREN {
            setups.push(setup_in_child(w, cfg.seed));
        }
    }
    let t = Instant::now();
    let ready = workload::set_up(w, cfg.seed);
    setups.push(t.elapsed().as_secs_f64());
    workload::fill_comb_cache();
    let probe_before = layers::p160_mul_ns();
    let window = workload::run_window(&ready, cfg.seed, cfg.seconds, cfg.trace);
    let probe_after = layers::p160_mul_ns();
    drop(ready);

    // The correctness gate runs before any timing is printed.
    let verdicts = workload::check_all(&window.records);
    let mut lines = vec![format!(
        "host nproc {} available_parallelism {} steal_frac {:.5} \
         p160_mul_ns before {probe_before:.2} after {probe_after:.2}",
        host::nproc(),
        host::available_parallelism(),
        window.steal_frac
    )];
    let latencies = window.latencies_ms();
    let failures: Vec<(&Record, &String)> = window
        .records
        .iter()
        .zip(&verdicts)
        .filter_map(|(r, v)| v.as_ref().err().map(|e| (r, e)))
        .collect();
    for (r, e) in failures.iter().take(5) {
        lines.push(format!("FAILED session seed {}: {e}", r.seed));
    }
    lines.push(format!(
        "{} seed {} trace {}: {} sessions ({} failed) in {:.3} s; latency samples {}; \
         set-up samples {:?} s",
        w.name(),
        cfg.seed,
        u8::from(cfg.trace),
        window.records.len(),
        failures.len(),
        window.wall.as_secs_f64(),
        latencies.len(),
        setups
    ));
    let spread: Vec<String> = [0.1, 0.25, 0.5, 0.75, 0.9]
        .iter()
        .map(|&q| format!("{:.1}", stats::quantile(&latencies, q)))
        .collect();
    lines.push(format!(
        "latency ms p10/p25/p50/p75/p90: {}",
        spread.join(" / ")
    ));
    let metrics = if cfg.trace {
        let (metrics, notes) = report::per_layer(w, &window);
        lines.extend(notes);
        metrics
    } else {
        report::end_to_end(&window, stats::median(&setups))
    };
    Report {
        attempted: window.records.len(),
        failed: failures.len(),
        metrics,
        lines,
    }
}

fn json(result: &Report) -> String {
    let metrics: Vec<String> = result
        .metrics
        .iter()
        .map(|(name, value, unit)| {
            assert!(value.is_finite(), "metric {name} is not a finite number");
            format!("\"{name}\": {{\"value\": {value}, \"unit\": \"{unit}\"}}")
        })
        .collect();
    format!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        result.failed == 0,
        result.attempted,
        result.failed,
        metrics.join(", ")
    )
}

/// The window of a self-test run; it ends by twice this, a few sessions in.
const SMOKE_SECONDS: f64 = 0.25;

/// Smoke-sized checks of the benchmark itself: every workload prints every
/// metric `BENCHMARK.json` names, with its unit; the gate rejects a wrong
/// ranking; a second seed passes the gate.
fn self_test() {
    let spec = std::fs::read_to_string("BENCHMARK.json").expect("run from the repository root");
    let declared =
        |m: &Metric| spec.contains(&format!("\"name\": \"{}\", \"unit\": \"{}\"", m.0, m.2));
    for w in Workload::ALL {
        for trace in [false, true] {
            let result = run(&Run {
                workload: w,
                seed: 7,
                seconds: SMOKE_SECONDS,
                trace,
            });
            assert_eq!(result.failed, 0, "{} smoke run failed its gate", w.name());
            for m in &result.metrics {
                assert!(
                    declared(m),
                    "{}: metric {} [{}] not in BENCHMARK.json",
                    w.name(),
                    m.0,
                    m.2
                );
            }
            let section = if trace {
                "\"per_layer\""
            } else {
                "\"end_to_end\""
            };
            let listed = spec[spec.find(section).expect("metric section")..]
                .split(']')
                .next()
                .expect("section body")
                .matches("\"name\"")
                .count();
            assert_eq!(result.metrics.len(), listed, "{}: metric count", w.name());
            assert!(
                spec.contains(&format!("\"name\": \"{}\"", w.name())),
                "workload listed"
            );
            println!(
                "self-test: {} trace {} prints {} metrics",
                w.name(),
                u8::from(trace),
                listed
            );
        }
    }

    // Swapping the ranks of two parties with different gains must fail.
    let params = workload::session_params(7);
    let gains = workload::plaintext_gains(&params);
    let outcome = ppgr_core::GroupRanking::new(params)
        .with_random_population()
        .run()
        .expect("smoke session");
    let mut ranks = outcome.ranks().to_vec();
    workload::ranks_agree(&gains, &ranks).expect("honest ranks pass");
    let (a, b) = (0..ranks.len())
        .flat_map(|a| (0..ranks.len()).map(move |b| (a, b)))
        .find(|&(a, b)| gains[a] > gains[b])
        .expect("two parties with different gains");
    ranks.swap(a, b);
    assert!(
        workload::ranks_agree(&gains, &ranks).is_err(),
        "swapped ranks must be rejected"
    );
    println!(
        "self-test: swapped ranks of parties {} and {} rejected",
        a + 1,
        b + 1
    );

    // An initiator that drops an honest top-k submission must fail.
    let ready = workload::set_up(Workload::MeshEcc160, 9);
    let mut record = ready.session(9, 0, false);
    workload::check(&record).expect("honest mesh session passes");
    if let Ok(workload::Ranked::Mesh(out)) = &mut record.result {
        out.report.accepted.pop();
    }
    assert!(
        workload::check(&record).is_err(),
        "a dropped submission must be rejected"
    );
    println!("self-test: a dropped top-k submission rejected");

    let second = run(&Run {
        workload: Workload::SoloEcc160,
        seed: 8,
        seconds: SMOKE_SECONDS,
        trace: false,
    });
    assert_eq!(second.failed, 0, "second seed fails the gate");
    println!("self-test: seed 8 passes the gate");
    println!("self-test: ok");
}

fn main() {
    match parse_args() {
        Mode::SetupOnly(w, seed) => {
            let t = Instant::now();
            let ready = workload::set_up(w, seed);
            println!("{}", t.elapsed().as_secs_f64());
            drop(ready);
        }
        Mode::SelfTest => self_test(),
        Mode::Run(cfg) => {
            let result = run(&cfg);
            for line in &result.lines {
                println!("{line}");
            }
            println!("{}", json(&result));
        }
    }
}
