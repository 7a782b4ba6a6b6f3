//! The replimid benchmark: four open-loop workloads on the simulator,
//! measured on both clocks.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload <name> --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! `--trace 0` prints the end-to-end metrics: virtual latency quantiles,
//! capacity and outage, plus wall-clock simulation speed, set-up time and
//! peak memory. `--trace 1` reruns the same seed with trace ids on every
//! request and a timer around every `Sim::step`, replays the run's inputs
//! through the `sql`, `gcs` and certifier layers, and prints the per-layer
//! metrics. Every run checks its outputs; any failed check exits non-zero
//! and prints no numbers. The last line of standard output is one JSON
//! object with the result.

mod gen;
mod layers;
mod run;
mod stats;
mod workloads;

use std::process::ExitCode;
use std::time::Instant;

use gen::Outcome;
use run::{RunOpts, RunResult};
use stats::{quantile, FAILED};
use workloads::Spec;

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
    /// Only time `Cluster::build`s for this many seconds and print one
    /// duration per line (the child process behind `setup_s`).
    setup_round_s: Option<f64>,
}

fn parse_args() -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut setup_round_s = None;
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or(format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => workload = Some(value),
            "--seed" => seed = Some(value.parse().map_err(|_| format!("bad seed {value}"))?),
            "--seconds" => {
                seconds = Some(value.parse().map_err(|_| format!("bad seconds {value}"))?)
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace takes 0 or 1, not {value}")),
                })
            }
            "--setup-round" => {
                setup_round_s = Some(value.parse().map_err(|_| format!("bad seconds {value}"))?)
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.unwrap_or(1),
        seconds: seconds.unwrap_or(10.0),
        trace: trace.unwrap_or(false),
        setup_round_s,
    })
}

/// One metric as printed and as reported in the JSON line.
pub struct Metric {
    pub name: String,
    pub value: f64,
    pub unit: &'static str,
    /// Sample count or other context printed beside the value.
    pub note: String,
}

pub fn metric(name: &str, value: f64, unit: &'static str, note: impl Into<String>) -> Metric {
    Metric {
        name: name.to_string(),
        value,
        unit,
        note: note.into(),
    }
}

fn sorted(mut v: Vec<u64>) -> Vec<u64> {
    v.sort_unstable();
    v
}

fn sojourn(r: &gen::TxRecord) -> u64 {
    if r.outcome == Outcome::Ok {
        r.sojourn_us()
    } else {
        FAILED
    }
}

/// Exact quantile in ms; a quantile that lands on a failed transaction is
/// a correctness failure, not a number.
fn quantile_ms(
    samples: &[u64],
    q: f64,
    what: &str,
    min_n: usize,
    violations: &mut Vec<String>,
) -> f64 {
    if samples.len() < min_n {
        violations.push(format!(
            "{what}: {} samples, need at least {min_n}",
            samples.len()
        ));
        return 0.0;
    }
    match quantile(samples, q) {
        Some(FAILED) | None => {
            violations.push(format!("{what} falls on a failed or shed transaction"));
            0.0
        }
        Some(us) => us as f64 / 1_000.0,
    }
}

/// Capacity probe: at `rate`, the p99 over every transaction arriving
/// after warm-up stays within the limit, nothing is shed, and the wait
/// queue empties at least once in the last quarter of the arrivals.
fn probe_passes(spec: &Spec, seed: u64, rate: f64) -> bool {
    let r = run::run(
        spec,
        seed,
        RunOpts {
            rate,
            arrivals: spec.probe_arrivals,
            traced: false,
            nominal: false,
        },
    );
    let n = r.records.len();
    let window = &r.records[n / 5..];
    let p99 = quantile(&sorted(window.iter().map(sojourn).collect()), 0.99);
    let shed = r.count(Outcome::Shed);
    let drains = r.records[n * 3 / 4..]
        .iter()
        .any(|t| t.queue_at_arrival == 0);
    r.violations.is_empty()
        && shed == 0
        && drains
        && p99.is_some_and(|p| p <= spec.latency_limit_us)
}

/// Highest offered rate that passes the probe, to within 2%. The nominal
/// rate is about 60% of capacity, so the search brackets capacity between
/// 1.3x and 2.2x nominal (widening if that guess is wrong), then bisects
/// geometrically.
fn capacity_tps(spec: &Spec, seed: u64) -> (f64, usize) {
    let mut probes = 0;
    let mut check = |rate: f64| {
        probes += 1;
        probe_passes(spec, seed, rate)
    };
    let mut lo = spec.nominal_rate * 1.3;
    let mut hi = spec.nominal_rate * 2.2;
    while !check(lo) {
        hi = lo;
        lo /= 1.5;
        if lo < 1.0 {
            return (0.0, probes);
        }
    }
    while check(hi) {
        lo = hi;
        hi *= 1.5;
    }
    while hi / lo > 1.02 {
        let mid = (lo * hi).sqrt();
        if check(mid) {
            lo = mid;
        } else {
            hi = mid;
        }
    }
    (lo, probes)
}

/// Gates every nominal run must pass, traced or not.
fn common_gates(spec: &Spec, r: &RunResult) -> Vec<String> {
    let mut v = Vec::new();
    if spec.kind == workloads::Kind::WsWriteHeavy {
        for (i, m) in r.mw.iter().enumerate() {
            if m.certifier.checks <= 65_536 {
                v.push(format!(
                    "middleware {i} certified {} transactions; the run must cross 65,536",
                    m.certifier.checks
                ));
            }
        }
    }
    v
}

fn nominal_opts(spec: &Spec, traced: bool) -> RunOpts {
    RunOpts {
        rate: spec.nominal_rate,
        arrivals: spec.arrivals,
        traced,
        nominal: true,
    }
}

/// The end-to-end metrics of one nominal run.
fn end_to_end(spec: &Spec, r: &RunResult, violations: &mut Vec<String>) -> Vec<Metric> {
    // The first tenth of the arrivals warms the cluster up.
    let window: Vec<&gen::TxRecord> = r.records[r.records.len() / 10..].iter().collect();
    let reads = sorted(
        window
            .iter()
            .filter(|t| !t.write)
            .map(|t| sojourn(t))
            .collect(),
    );
    let writes = sorted(
        window
            .iter()
            .filter(|t| t.write)
            .map(|t| sojourn(t))
            .collect(),
    );
    let (nr, nw) = (reads.len(), writes.len());
    let mut out = vec![
        metric(
            "read_p50_ms",
            quantile_ms(&reads, 0.5, "read p50", 1, violations),
            "ms",
            format!("n={nr}"),
        ),
        metric(
            "read_p99_ms",
            quantile_ms(&reads, 0.99, "read p99", 1_000, violations),
            "ms",
            format!("n={nr}"),
        ),
        metric(
            "write_p50_ms",
            quantile_ms(&writes, 0.5, "write p50", 1, violations),
            "ms",
            format!("n={nw}"),
        ),
        metric(
            "write_p99_ms",
            quantile_ms(&writes, 0.99, "write p99", 1_000, violations),
            "ms",
            format!("n={nw}"),
        ),
    ];
    let arrivals = r.records.len() as u64;
    let failed = r.count(Outcome::Err) + r.count(Outcome::Shed);
    out.push(metric(
        "fail_ratio",
        failed as f64 / arrivals.max(1) as f64,
        "ratio",
        format!("{failed} of {arrivals} arrivals"),
    ));
    let due: Vec<(u64, u64, bool)> = window
        .iter()
        .map(|t| (t.arrived_us, t.done_us, t.outcome == Outcome::Ok))
        .collect();
    out.push(metric(
        "outage_ms",
        stats::longest_outage_us(&due) as f64 / 1_000.0,
        "ms",
        format!("n={}", due.len()),
    ));
    let ops = spec.ops_windows();
    if !ops.is_empty() {
        let in_ops = sorted(
            r.records
                .iter()
                .filter(|t| {
                    ops.iter()
                        .any(|&(a, b)| t.arrived_us >= a && t.arrived_us < b)
                })
                .map(sojourn)
                .collect(),
        );
        let n = in_ops.len();
        out.push(metric(
            "ops_p99_ms",
            quantile_ms(&in_ops, 0.99, "ops p99", 1_000, violations),
            "ms",
            format!("n={n}"),
        ));
    }
    out
}

fn print_metrics(title: &str, metrics: &[Metric]) {
    println!("{title}");
    for m in metrics {
        println!(
            "  {:<36} {:>14.4} {:<6} {}",
            m.name, m.value, m.unit, m.note
        );
    }
}

fn json_line(attempted: u64, failed: u64, metrics: &[Metric], keep: &[&str]) -> String {
    let body: Vec<String> = metrics
        .iter()
        .filter(|m| keep.contains(&m.name.as_str()))
        .map(|m| {
            // JSON has no NaN or infinity; either is a bug in this program.
            assert!(m.value.is_finite(), "{} is not finite: {}", m.name, m.value);
            format!(
                "\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
                m.name, m.value, m.unit
            )
        })
        .collect();
    assert_eq!(body.len(), keep.len(), "a reported metric was not measured");
    format!(
        "{{\"correct\": true, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{{}}}}}",
        body.join(", ")
    )
}

/// `setup_s` is the median over four rounds of timed `Cluster::build`s
/// (schema and data load included), each round `SETUP_ROUND_S` long and
/// at least `SETUP_MIN_BUILDS` builds. Each round runs in a fresh child
/// process, after one untimed build: in this process, once the nominal
/// runs have grown the heap, a build takes 1.5 to 2.5 times as long. The
/// rounds are spread over the run because the host's speed drifts over
/// seconds.
const SETUP_ROUND_S: f64 = 1.5;
const SETUP_MIN_BUILDS: usize = 25;

/// The child's side: time builds for `seconds` and print one duration per
/// line.
fn time_builds(spec: &Spec, seed: u64, seconds: f64) {
    drop(run::build(spec, seed));
    let round = Instant::now();
    let mut n = 0;
    while n < SETUP_MIN_BUILDS || round.elapsed().as_secs_f64() < seconds {
        let t = Instant::now();
        drop(run::build(spec, seed));
        println!("{}", t.elapsed().as_secs_f64());
        n += 1;
    }
}

/// One round of timed builds in a child process, which has ended when
/// this returns.
fn setup_round(spec: &Spec, seed: u64, setups: &mut Vec<f64>) -> Result<(), String> {
    let exe = std::env::current_exe().map_err(|e| format!("setup round: {e}"))?;
    let out = std::process::Command::new(exe)
        .args(["--workload", spec.name, "--seed", &seed.to_string()])
        .args(["--setup-round", &SETUP_ROUND_S.to_string()])
        .output()
        .map_err(|e| format!("setup round: {e}"))?;
    let times: Vec<f64> = String::from_utf8_lossy(&out.stdout)
        .lines()
        .filter_map(|l| l.parse().ok())
        .collect();
    if !out.status.success() || times.len() < SETUP_MIN_BUILDS {
        return Err(format!(
            "setup round: child exited with {} after {} builds",
            out.status,
            times.len()
        ));
    }
    setups.extend(times);
    Ok(())
}

/// The end-to-end metrics reported in the JSON line (`BENCHMARK.json`).
const E2E: [&str; 8] = [
    "read_p50_ms",
    "read_p99_ms",
    "write_p50_ms",
    "write_p99_ms",
    "capacity_tps",
    "sim_tx_per_wall_s",
    "setup_s",
    "peak_rss_mb",
];

fn untraced(spec: &Spec, args: &Args) -> Result<String, Vec<String>> {
    let mut setups = Vec::new();
    let mut violations = Vec::new();
    let mut round = |violations: &mut Vec<String>| {
        if let Err(e) = setup_round(spec, args.seed, &mut setups) {
            violations.push(e);
        }
    };
    round(&mut violations);
    // The capacity search comes first and warms the process up, so every
    // nominal run is timed: the wall speed is their median, over at least
    // three runs and as many more as start within `--seconds` of the
    // first. Every run must reproduce the first one exactly, which gives
    // the virtual metrics.
    let t = Instant::now();
    let (capacity, probes) = capacity_tps(spec, args.seed);
    let search_s = t.elapsed().as_secs_f64();
    round(&mut violations);
    let budget = Instant::now();
    let first = run::run(spec, args.seed, nominal_opts(spec, false));
    violations.extend(first.violations.iter().cloned());
    violations.extend(common_gates(spec, &first));
    let digest = first.outcome_digest();
    let mut speeds = vec![first.count(Outcome::Ok) as f64 / first.wall_s];
    round(&mut violations);
    while speeds.len() < 3 || budget.elapsed().as_secs_f64() < args.seconds {
        let again = run::run(spec, args.seed, nominal_opts(spec, false));
        if again.outcome_digest() != digest {
            violations.push("two runs of one seed differ in virtual outcome".into());
            break;
        }
        speeds.push(again.count(Outcome::Ok) as f64 / again.wall_s);
    }
    round(&mut violations);
    let mut metrics = end_to_end(spec, &first, &mut violations);
    metrics.push(metric(
        "capacity_tps",
        capacity,
        "1/s",
        format!(
            "{probes} probes of {} arrivals, {search_s:.1} s wall",
            spec.probe_arrivals
        ),
    ));
    metrics.push(metric(
        "sim_tx_per_wall_s",
        stats::median(&speeds),
        "1/s",
        format!(
            "median of {} runs of {} tx",
            speeds.len(),
            first.count(Outcome::Ok)
        ),
    ));
    metrics.push(metric(
        "setup_s",
        stats::median(&setups),
        "s",
        format!("median of {} builds in 4 child processes", setups.len()),
    ));
    metrics.push(metric(
        "peak_rss_mb",
        first.peak_rss_kb as f64 / 1024.0,
        "MB",
        "resident high-water during the first nominal run",
    ));
    if !violations.is_empty() {
        return Err(violations);
    }
    print_metrics(
        &format!("{} seed {} (end to end, untraced)", spec.name, args.seed),
        &metrics,
    );
    let failed = first.count(Outcome::Err) + first.count(Outcome::Shed);
    Ok(json_line(
        first.records.len() as u64,
        failed,
        &metrics,
        &E2E,
    ))
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("error: {e}");
            return ExitCode::from(2);
        }
    };
    let Some(spec) = workloads::by_name(&args.workload) else {
        eprintln!("error: unknown workload {}", args.workload);
        return ExitCode::from(2);
    };
    if let Some(seconds) = args.setup_round_s {
        time_builds(&spec, args.seed, seconds);
        return ExitCode::SUCCESS;
    }

    let result = if args.trace {
        layers::traced(&spec, &args)
    } else {
        untraced(&spec, &args)
    };
    match result {
        Ok(line) => {
            println!("{line}");
            ExitCode::SUCCESS
        }
        Err(violations) => {
            for v in violations {
                eprintln!("check failed: {v}");
            }
            ExitCode::from(1)
        }
    }
}
