//! The traced run and the per-layer metrics.
//!
//! The same seed runs twice: untraced, then with a trace id on every
//! request and a timer around every `Sim::step`. Their virtual outcomes
//! must match exactly. Virtual per-layer numbers come from the sinks and
//! counters the program already exposes; wall-clock per-layer numbers come
//! from timing calls into each crate's public functions on inputs captured
//! from the traced run.

use std::collections::VecDeque;
use std::time::Instant;

use replimid_core::{Certifier, Stage, TraceSink};
use replimid_gcs::{Action, GcsConfig, GcsMsg, MemberId, OrderProtocol, ShardedMember};
use replimid_sql::{parse_statement, Engine, EngineConfig, Writeset, ADMIN_PASSWORD, ADMIN_USER};

use crate::gen::{is_write_statement, Outcome};
use crate::run::{self, RunResult};
use crate::workloads::{Kind, Spec};
use crate::{metric, nominal_opts, print_metrics, Args, Metric};

/// Writesets the certifier replay runs once its window is full.
const FULL_WINDOW_CALLS: usize = 256;
/// The certifier's conflict window (`Certifier::new`).
const WINDOW: usize = 65_536;
/// Publishes replayed through the group-communication members, at most.
const MAX_PUBLISHES: u64 = 100_000;

/// The per-layer metrics in the JSON line, as `BENCHMARK.json` lists
/// them: each metric whose layer does work on at least one tracked
/// workload. Where a layer is idle on a workload (no WAL, total order or
/// maintenance in master-slave `broker-95-5`, no freshness routing in
/// `partial-xgroup`), the line reports 0 and the printed note says why.
/// The other metrics are printed only: they read 0 on every tracked
/// workload (the health layer works only in `ops-under-load`, nothing
/// queues at the nominal rates, and the tracked mixes never abort on
/// certification), or they are a gate (`middleware.other_us`).
pub const LAYER: [&str; 34] = [
    "sql.read_ns",
    "sql.write_ns",
    "sql.parse_ns",
    "sql.apply_ws_ns",
    "sql.rows_read_per_row",
    "sql.read_cpu_us",
    "wal.bytes_per_commit",
    "wal.records_per_commit",
    "db_node.service_us",
    "db_node.busy_max",
    "db_node.replay_us",
    "simnet.events_per_tx",
    "simnet.msgs_per_tx",
    "simnet.step_ns_p50",
    "simnet.step_ns_p99",
    "simnet.step_ns_max",
    "gcs.batch_size",
    "gcs.deliver_ns",
    "certifier.check_ns",
    "certifier.check_ns_full",
    "certifier.keys_per_check",
    "certifier.window_max",
    "middleware.batch_wait_us",
    "middleware.freshness_wait_us",
    "middleware.execute_us",
    "middleware.certify_us",
    "middleware.xgroup_wait_us",
    "middleware.fanout_us",
    "middleware.plan_cache_hit_ratio",
    "middleware.fresh_fallback_ratio",
    "middleware.drain_ms",
    "recovery.resync_ms",
    "traced.sim_tx_per_wall_s",
    "traced.overhead_pct",
];

fn mean(sum: f64, n: u64) -> f64 {
    if n == 0 {
        0.0
    } else {
        sum / n as f64
    }
}

/// Mean of one stage over a set of sinks, with its span count.
fn stage_mean_us(sinks: &[&TraceSink], stage: Stage) -> (f64, u64) {
    let (sum, n) = sinks.iter().fold((0u64, 0u64), |(s, n), t| {
        let h = t.stage_histogram(stage);
        (s + h.sum_us(), n + h.count())
    });
    (mean(sum as f64, n), n)
}

/// A metric whose layer did no work on this workload: reported as 0 with
/// the reason beside it.
fn absent(name: &str, unit: &'static str, why: &str) -> Metric {
    metric(name, 0.0, unit, format!("absent: {why}"))
}

fn per_count(name: &str, value: f64, unit: &'static str, n: u64, why: &str) -> Metric {
    if n == 0 {
        absent(name, unit, why)
    } else {
        metric(name, value, unit, format!("n={n}"))
    }
}

/// Wall-clock costs of the `sql` layer, from replaying the run's own
/// statements on an engine loaded with the workload's schema and data.
struct SqlReplay {
    parse_ns: (f64, u64),
    read_ns: (f64, u64),
    write_ns: (f64, u64),
    apply_ns: (f64, u64),
    rows_read: u64,
    rows_returned: u64,
    read_cpu_us: (f64, u64),
    writesets: Vec<Writeset>,
}

fn engine(spec: &Spec, seed: u64) -> (Engine, replimid_sql::ConnId) {
    let mut e = replimid_core::cluster::build_engine(EngineConfig::default(), &spec.schema(seed));
    let conn = e.connect(ADMIN_USER, ADMIN_PASSWORD).expect("admin login");
    e.execute(conn, "USE bench")
        .expect("select the benchmark database");
    (e, conn)
}

/// Returns the costs and the statement-replay engine (whose catalog the
/// certifier replay resolves primary keys from).
fn sql_replay(spec: &Spec, seed: u64, txs: &[Vec<String>]) -> Result<(SqlReplay, Engine), String> {
    let (mut e, conn) = engine(spec, seed);
    let (mut applier, _) = engine(spec, seed);
    let mut r = SqlReplay {
        parse_ns: (0.0, 0),
        read_ns: (0.0, 0),
        write_ns: (0.0, 0),
        apply_ns: (0.0, 0),
        rows_read: 0,
        rows_returned: 0,
        read_cpu_us: (0.0, 0),
        writesets: Vec::new(),
    };
    let add = |acc: &mut (f64, u64), ns: f64| {
        acc.0 += ns;
        acc.1 += 1;
    };
    for tx in txs {
        let writes = tx.iter().any(|s| is_write_statement(s));
        let explicit = tx.len() > 1;
        if writes && !explicit {
            e.execute(conn, "BEGIN")
                .map_err(|err| format!("replay BEGIN: {err}"))?;
        }
        for sql in tx {
            let t = Instant::now();
            let parsed = parse_statement(sql);
            add(&mut r.parse_ns, t.elapsed().as_nanos() as f64);
            parsed.map_err(|err| format!("replay parse {sql}: {err}"))?;
            if writes && sql == "COMMIT" {
                r.writesets
                    .push(e.pending_writeset(conn).map_err(|err| err.to_string())?);
            }
            let t = Instant::now();
            let out = e
                .execute(conn, sql)
                .map_err(|err| format!("replay {sql}: {err}"))?;
            let ns = t.elapsed().as_nanos() as f64;
            if is_write_statement(sql) {
                add(&mut r.write_ns, ns);
            } else if let Some(rows) = out.outcome.rows() {
                add(&mut r.read_ns, ns);
                add(&mut r.read_cpu_us, out.cost.cpu_us as f64);
                r.rows_read += out.cost.rows_read;
                r.rows_returned += rows.rows.len() as u64;
            }
        }
        if writes && !explicit {
            r.writesets
                .push(e.pending_writeset(conn).map_err(|err| err.to_string())?);
            e.execute(conn, "COMMIT")
                .map_err(|err| format!("replay COMMIT: {err}"))?;
        }
        if writes {
            let ws = r.writesets.last().expect("writeset captured above");
            let t = Instant::now();
            applier
                .apply_writeset(ws)
                .map_err(|err| format!("replay apply_writeset: {err}"))?;
            add(&mut r.apply_ns, t.elapsed().as_nanos() as f64);
        }
    }
    if e.checksum_data() != applier.checksum_data() {
        return Err("writeset replay diverged from statement replay".into());
    }
    Ok((r, e))
}

/// Wall ns per `Certifier::certify` while the window fills and once it
/// is full, replaying the run's writesets in order (cycled until the
/// window has been full for `FULL_WINDOW_CALLS` calls).
fn certifier_replay(writesets: &[Writeset], e: &Engine) -> ((f64, u64), (f64, u64)) {
    let mut c = Certifier::new();
    let pk_of = |db: &str, t: &str| e.pk_of(db, t);
    let (mut fill, mut full) = ((0.0, 0u64), (0.0, 0u64));
    if writesets.is_empty() {
        return (fill, full);
    }
    for ws in writesets.iter().cycle() {
        if full.1 as usize >= FULL_WINDOW_CALLS {
            break;
        }
        let was_full = c.window_len() >= WINDOW;
        let start = c.position();
        let t = Instant::now();
        std::hint::black_box(c.certify(start, ws, pk_of));
        let ns = t.elapsed().as_nanos() as f64;
        let acc = if was_full { &mut full } else { &mut fill };
        acc.0 += ns;
        acc.1 += 1;
    }
    (fill, full)
}

/// Wall ns from publish to delivery at every member, for `publishes`
/// payloads through `members` in-process sans-I/O members that route
/// their `Action`s to each other. Publishes rotate over origins and
/// groups.
fn gcs_replay(members: usize, groups: usize, publishes: u64) -> Result<f64, String> {
    let ids: Vec<MemberId> = (0..members).map(MemberId).collect();
    let cfg = GcsConfig::lan(OrderProtocol::FixedSequencer);
    let mut ms: Vec<ShardedMember<u64>> = ids
        .iter()
        .map(|&me| ShardedMember::new(me, ids.clone(), cfg, 0, groups))
        .collect();
    for m in &mut ms {
        let _ = m.start(0);
    }
    let mut wire: VecDeque<(usize, usize, MemberId, GcsMsg<u64>)> = VecDeque::new();
    let t = Instant::now();
    for i in 0..publishes {
        let origin = i as usize % members;
        let group = (i as usize / members) % groups;
        let now = i + 1;
        let mut delivered = 0;
        let mut route = |from: usize, acts: Vec<(usize, Action<u64>)>, wire: &mut VecDeque<_>| {
            for (g, a) in acts {
                match a {
                    Action::Send { to, msg } => wire.push_back((to.0, g, MemberId(from), msg)),
                    Action::Deliver { .. } => delivered += 1,
                    _ => {}
                }
            }
        };
        let acts = ms[origin].publish(group, i, now);
        route(origin, acts, &mut wire);
        while let Some((to, g, from, msg)) = wire.pop_front() {
            let acts = ms[to].on_message(g, from, msg, now);
            route(to, acts, &mut wire);
        }
        if delivered != members {
            return Err(format!(
                "gcs replay: publish {i} delivered at {delivered} of {members}"
            ));
        }
    }
    Ok(t.elapsed().as_nanos() as f64 / publishes.max(1) as f64)
}

fn step_quantiles(step_ns: &[u32]) -> (f64, f64, f64) {
    let mut v: Vec<u64> = step_ns.iter().map(|&x| u64::from(x)).collect();
    v.sort_unstable();
    let q = |p| crate::stats::quantile(&v, p).unwrap_or(0) as f64;
    (q(0.5), q(0.99), v.last().copied().unwrap_or(0) as f64)
}

fn per_layer(spec: &Spec, seed: u64, r: &RunResult) -> Result<Vec<Metric>, String> {
    let mut out = Vec::new();
    let ok = r.count(Outcome::Ok).max(1);

    // sql: replay of the run's own statements and writesets.
    let (sql, sql_engine) = sql_replay(spec, seed, &r.txs)?;
    out.push(per_count(
        "sql.read_ns",
        mean(sql.read_ns.0, sql.read_ns.1),
        "ns",
        sql.read_ns.1,
        "no reads",
    ));
    out.push(per_count(
        "sql.write_ns",
        mean(sql.write_ns.0, sql.write_ns.1),
        "ns",
        sql.write_ns.1,
        "no writes",
    ));
    out.push(per_count(
        "sql.parse_ns",
        mean(sql.parse_ns.0, sql.parse_ns.1),
        "ns",
        sql.parse_ns.1,
        "no statements",
    ));
    out.push(per_count(
        "sql.apply_ws_ns",
        mean(sql.apply_ns.0, sql.apply_ns.1),
        "ns",
        sql.apply_ns.1,
        "no writesets",
    ));
    out.push(per_count(
        "sql.rows_read_per_row",
        mean(sql.rows_read as f64, sql.rows_returned),
        "ratio",
        sql.rows_returned,
        "no rows returned",
    ));
    out.push(per_count(
        "sql.read_cpu_us",
        mean(sql.read_cpu_us.0, sql.read_cpu_us.1),
        "us",
        sql.read_cpu_us.1,
        "no reads",
    ));

    // sql::wal: device statistics per backend, per committed write.
    let commits = r
        .records
        .iter()
        .filter(|t| t.write && t.outcome == Outcome::Ok)
        .count() as u64;
    let nwal = r.wal.len() as u64;
    let wal_bytes: u64 = r.wal.iter().map(|w| w.wal_bytes).sum();
    let wal_records: u64 = r.wal.iter().map(|w| w.wal_records).sum();
    for (name, total, unit) in [
        ("wal.bytes_per_commit", wal_bytes, "B"),
        ("wal.records_per_commit", wal_records, "count"),
    ] {
        out.push(if nwal == 0 || commits == 0 {
            absent(name, unit, "durability off")
        } else {
            metric(
                name,
                total as f64 / nwal as f64 / commits as f64,
                unit,
                format!("{nwal} backends, {commits} commits"),
            )
        });
    }

    // core::db_node: detached service and replay spans.
    let dbs: Vec<&TraceSink> = r.db_traces.iter().collect();
    let (service, n) = stage_mean_us(&dbs, Stage::DbService);
    out.push(per_count(
        "db_node.service_us",
        service,
        "us",
        n,
        "no backend work",
    ));
    let busiest = r
        .db_traces
        .iter()
        .map(|t| t.stage_histogram(Stage::DbService).sum_us())
        .max()
        .unwrap_or(0);
    out.push(metric(
        "db_node.busy_max",
        busiest as f64 / r.end_us.max(1) as f64,
        "ratio",
        format!("over {:.1} virtual s", r.end_us as f64 / 1e6),
    ));
    let (replay, n) = stage_mean_us(&dbs, Stage::Replay);
    out.push(per_count(
        "db_node.replay_us",
        replay,
        "us",
        n,
        "no backend restarted",
    ));

    // simnet: kernel counters and the timed steps.
    out.push(metric(
        "simnet.events_per_tx",
        r.sim.events_processed as f64 / ok as f64,
        "count",
        format!("{} events", r.sim.events_processed),
    ));
    out.push(metric(
        "simnet.msgs_per_tx",
        r.sim.messages_sent as f64 / ok as f64,
        "count",
        format!("{} messages", r.sim.messages_sent),
    ));
    let (p50, p99, max) = step_quantiles(&r.step_ns);
    let steps = format!("n={}", r.step_ns.len());
    out.push(metric("simnet.step_ns_p50", p50, "ns", steps.clone()));
    out.push(metric("simnet.step_ns_p99", p99, "ns", steps.clone()));
    out.push(metric("simnet.step_ns_max", max, "ns", steps));

    // gcs: ordering spans, batch sizes, and the in-process replay.
    let mws: Vec<&TraceSink> = r.mw.iter().map(|m| &m.trace).collect();
    let (order, n) = stage_mean_us(&mws, Stage::Order);
    out.push(per_count(
        "gcs.order_us",
        order,
        "us",
        n,
        "no total-order publishes",
    ));
    let (bsum, bn) = r.mw.iter().fold((0, 0), |(s, n), m| {
        (s + m.batch_sizes.sum_us(), n + m.batch_sizes.count())
    });
    out.push(per_count(
        "gcs.batch_size",
        mean(bsum as f64, bn),
        "count",
        bn,
        "group commit off",
    ));
    let publishes = if bn > 0 {
        bn
    } else {
        r.mw[0].certifier.checks.max(n)
    };
    let groups = spec.placement().map_or(1, |p| p.groups());
    if publishes == 0 {
        out.push(absent("gcs.deliver_ns", "ns", "no total-order publishes"));
    } else {
        let p = publishes.min(MAX_PUBLISHES);
        let ns = gcs_replay(r.mw.len(), groups, p)?;
        out.push(metric(
            "gcs.deliver_ns",
            ns,
            "ns",
            format!("{p} publishes, {} members, {groups} groups", r.mw.len()),
        ));
    }

    // core::certifier: standalone replay of the run's writesets, on every
    // workload that writes, and the run's own statistics.
    let (fill, full) = certifier_replay(&sql.writesets, &sql_engine);
    out.push(per_count(
        "certifier.check_ns",
        mean(fill.0, fill.1),
        "ns",
        fill.1,
        "no writesets",
    ));
    out.push(per_count(
        "certifier.check_ns_full",
        mean(full.0, full.1),
        "ns",
        full.1,
        "window never full",
    ));
    let cert = r.mw[0].certifier;
    out.push(per_count(
        "certifier.abort_ratio",
        mean(cert.aborts as f64, cert.checks),
        "ratio",
        cert.checks,
        "no certification on this mode",
    ));
    out.push(per_count(
        "certifier.keys_per_check",
        mean(cert.keys_checked as f64, cert.checks),
        "count",
        cert.checks,
        "no certification on this mode",
    ));
    out.push(per_count(
        "certifier.window_max",
        cert.max_window as f64,
        "count",
        cert.checks,
        "no certification on this mode",
    ));

    // core::middleware: per-stage means over the traced statements.
    for (name, stage) in [
        ("middleware.admission_us", Stage::Admission),
        ("middleware.batch_wait_us", Stage::BatchWait),
        ("middleware.freshness_wait_us", Stage::FreshnessWait),
        ("middleware.execute_us", Stage::Execute),
        ("middleware.certify_us", Stage::Certify),
        ("middleware.xgroup_wait_us", Stage::CrossGroupWait),
        ("middleware.fanout_us", Stage::Fanout),
    ] {
        let (v, n) = stage_mean_us(&mws, stage);
        out.push(per_count(name, v, "us", n, "stage not on this path"));
    }
    let (other_mean, other_n) = stage_mean_us(&mws, Stage::Other);
    out.push(metric(
        "middleware.other_us",
        other_mean * other_n as f64,
        "us",
        format!("total over {other_n} traces; must be 0"),
    ));
    let sum = |f: &dyn Fn(&replimid_core::Counters) -> u64| -> u64 {
        r.mw.iter().map(|m| f(&m.counters)).sum()
    };
    let (hits, misses) = (sum(&|c| c.plan_cache_hits), sum(&|c| c.plan_cache_misses));
    out.push(per_count(
        "middleware.plan_cache_hit_ratio",
        mean(hits as f64, hits + misses),
        "ratio",
        hits + misses,
        "plan cache unused",
    ));
    let reads = sum(&|c| c.reads);
    let fallback = sum(&|c| c.fresh_fallback_primary);
    out.push(if spec.kind == Kind::Broker {
        metric(
            "middleware.fresh_fallback_ratio",
            mean(fallback as f64, reads),
            "ratio",
            format!("{fallback} of {reads} reads"),
        )
    } else {
        absent(
            "middleware.fresh_fallback_ratio",
            "ratio",
            "freshness routing off",
        )
    });
    let (xc, xa) = (sum(&|c| c.xgroup_commits), sum(&|c| c.xgroup_aborts));
    out.push(per_count(
        "middleware.xgroup_abort_ratio",
        mean(xa as f64, xc + xa),
        "ratio",
        xc + xa,
        "no cross-group transactions",
    ));
    let drains: Vec<u64> =
        r.mw.iter()
            .flat_map(|m| m.drains.iter().map(|d| d.2 - d.1))
            .collect();
    out.push(per_count(
        "middleware.drain_ms",
        mean(drains.iter().sum::<u64>() as f64, drains.len() as u64) / 1e3,
        "ms",
        drains.len() as u64,
        "no drains",
    ));
    let resyncs: Vec<u64> =
        r.mw.iter()
            .flat_map(|m| m.recoveries.iter().map(|x| x.2 - x.1))
            .collect();
    out.push(per_count(
        "recovery.resync_ms",
        mean(resyncs.iter().sum::<u64>() as f64, resyncs.len() as u64) / 1e3,
        "ms",
        resyncs.len() as u64,
        "no rejoins",
    ));
    let downtime: u64 = r.mw.iter().map(|m| m.availability.downtime_us()).sum();
    out.push(metric(
        "health.downtime_ms",
        downtime as f64 / 1e3,
        "ms",
        "client-visible outage per middleware, summed",
    ));
    out.push(metric(
        "health.quarantine_trips",
        sum(&|c| c.quarantine_trips) as f64,
        "count",
        "breaker trips",
    ));

    // The generator's own records.
    let dispatched: Vec<u64> = r
        .records
        .iter()
        .filter(|t| t.dispatched_us != u64::MAX)
        .map(|t| t.dispatched_us - t.arrived_us)
        .collect();
    out.push(metric(
        "openloop.queue_wait_us",
        mean(
            dispatched.iter().sum::<u64>() as f64,
            dispatched.len() as u64,
        ),
        "us",
        format!("n={}", dispatched.len()),
    ));
    out.push(metric(
        "openloop.retries_per_tx",
        r.retries as f64 / r.records.len().max(1) as f64,
        "ratio",
        format!("{} retries", r.retries),
    ));
    out.push(metric(
        "openloop.timeouts",
        r.timeouts as f64,
        "count",
        "request timeouts",
    ));
    Ok(out)
}

pub fn traced(spec: &Spec, args: &Args) -> Result<String, Vec<String>> {
    // Untraced, traced, untraced again: the first run warms the process
    // up, so the overhead compares the traced run with the warm one.
    let plain = run::run(spec, args.seed, nominal_opts(spec, false));
    let traced = run::run(spec, args.seed, nominal_opts(spec, true));
    let warm = run::run(spec, args.seed, nominal_opts(spec, false));
    let mut violations = plain.violations.clone();
    violations.extend(traced.violations.iter().cloned());
    violations.extend(crate::common_gates(spec, &traced));
    if warm.outcome_digest() != plain.outcome_digest() {
        violations.push("two untraced runs of one seed differ in virtual outcome".into());
    }
    if plain.outcome_digest() != traced.outcome_digest() {
        violations.push(format!(
            "traced and untraced runs differ: ok {} vs {}, commits {} vs {}",
            plain.count(Outcome::Ok),
            traced.count(Outcome::Ok),
            plain.mw.iter().map(|m| m.counters.commits).sum::<u64>(),
            traced.mw.iter().map(|m| m.counters.commits).sum::<u64>(),
        ));
    }
    let mut metrics = match per_layer(spec, args.seed, &traced) {
        Ok(m) => m,
        Err(e) => {
            violations.push(e);
            Vec::new()
        }
    };
    // Tiling gate: every traced interval is claimed by a named stage.
    if let Some(m) = metrics.iter().find(|m| m.name == "middleware.other_us") {
        if m.value != 0.0 {
            violations.push(format!("middleware.other_us = {} µs, must be 0", m.value));
        }
    }
    if !violations.is_empty() {
        return Err(violations);
    }
    let speed = |r: &RunResult| r.count(Outcome::Ok) as f64 / r.wall_s;
    let (untraced_speed, traced_speed) = (speed(&warm), speed(&traced));
    metrics.push(metric(
        "traced.sim_tx_per_wall_s",
        traced_speed,
        "1/s",
        "this traced run",
    ));
    metrics.push(metric(
        "traced.overhead_pct",
        (untraced_speed / traced_speed - 1.0) * 100.0,
        "%",
        format!("untraced run of the same seed: {untraced_speed:.0} tx/s"),
    ));
    print_metrics(
        &format!("{} seed {} (per layer, traced)", spec.name, args.seed),
        &metrics,
    );
    let failed = traced.count(Outcome::Err) + traced.count(Outcome::Shed);
    Ok(crate::json_line(
        traced.records.len() as u64,
        failed,
        &metrics,
        &LAYER,
    ))
}

#[cfg(test)]
mod tests {
    #[test]
    fn reported_metrics_are_the_ones_benchmark_json_lists() {
        let json = include_str!("../../BENCHMARK.json");
        let listed = json.matches("\"name\": ").count();
        let tracked_workloads = json.matches("\"why\": ").count();
        for name in super::LAYER.iter().chain(crate::E2E.iter()) {
            assert!(json.contains(&format!("\"name\": \"{name}\"")), "{name}");
        }
        assert_eq!(
            listed,
            super::LAYER.len() + crate::E2E.len() + tracked_workloads
        );
    }
}
