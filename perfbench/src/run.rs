//! One simulated run of a workload: build the cluster, attach the
//! generator, drive `Sim::step` until every transaction has settled, let
//! replication settle, then collect what the gates and metrics need.

use std::collections::BTreeMap;
use std::hash::{DefaultHasher, Hash, Hasher};
use std::rc::Rc;
use std::time::Instant;

use replimid_core::msg::BackendId;
use replimid_core::{Cluster, MwMetrics, TraceSink};
use replimid_simnet::SimStats;
use replimid_sql::{WalStats, ADMIN_PASSWORD, ADMIN_USER};

use crate::gen::{GenConfig, Generator, Outcome, Progress, TxRecord};
use crate::workloads::{sub_seed, Spec, SLOTS};

/// Virtual time after the last settle for replicas to apply what was
/// acknowledged (slave shipping, fan-out, rejoin catch-up).
const SETTLE_US: u64 = 2_000_000;
/// A run that has not settled this long after its last arrival is stuck.
const STUCK_US: u64 = 120_000_000;

#[derive(Debug, Clone, Copy)]
pub struct RunOpts {
    pub rate: f64,
    pub arrivals: u64,
    /// Trace ids on every request and a timer around every `Sim::step`.
    pub traced: bool,
    /// The nominal run: schedule the workload's management operations
    /// and faults, and capture replica state for the end-of-run gates.
    pub nominal: bool,
}

pub struct RunResult {
    pub records: Vec<TxRecord>,
    pub txs: Vec<Vec<String>>,
    pub timeouts: u64,
    pub retries: u64,
    /// Wall seconds from the first step until the last transaction settled.
    pub wall_s: f64,
    /// Virtual time at which the last transaction settled.
    pub end_us: u64,
    pub step_ns: Vec<u32>,
    pub peak_rss_kb: u64,
    pub sim: SimStats,
    pub mw: Vec<MwMetrics>,
    pub db_traces: Vec<TraceSink>,
    pub wal: Vec<WalStats>,
    /// Per backend (flattened), whether the middleware has it Online.
    pub online: Vec<bool>,
    /// Table -> per-backend content digest (None where not hosted or not
    /// Online).
    pub digests: BTreeMap<String, Vec<Option<u64>>>,
    /// Violations found by the end-of-run gates.
    pub violations: Vec<String>,
}

impl RunResult {
    pub fn count(&self, outcome: Outcome) -> u64 {
        self.records.iter().filter(|r| r.outcome == outcome).count() as u64
    }

    /// Everything virtual about the run, for comparing runs of one seed
    /// within this process.
    pub fn outcome_digest(&self) -> u64 {
        let mut h = DefaultHasher::new();
        for r in &self.records {
            (r.arrived_us, r.done_us, r.outcome, r.retries).hash(&mut h);
        }
        for m in &self.mw {
            (m.counters.commits, m.counters.aborts, m.certifier.aborts).hash(&mut h);
        }
        self.digests.hash(&mut h);
        h.finish()
    }
}

/// Resident set size of this process in KiB (0 where unavailable).
pub fn rss_kb() -> u64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("VmRSS:"))
                .and_then(|l| l.split_whitespace().nth(1))
                .and_then(|v| v.parse().ok())
        })
        .unwrap_or(0)
}

pub fn build(spec: &Spec, seed: u64) -> Cluster {
    Cluster::build(spec.cluster_config(seed))
}

pub fn run(spec: &Spec, seed: u64, opts: RunOpts) -> RunResult {
    let mut cluster = build(spec, seed);
    let progress = Rc::new(Progress::default());
    let first_session = cluster.alloc_sessions(SLOTS);
    let cfg = GenConfig {
        middlewares: cluster.mw_nodes.clone(),
        first_session,
        slots: SLOTS,
        rate_per_sec: opts.rate,
        arrival_seed: sub_seed(seed, 2),
        tx_seed: sub_seed(seed, 3),
        max_arrivals: opts.arrivals,
        traced: opts.traced,
    };
    let node = cluster
        .sim
        .add_node(Generator::new(cfg, spec.source(), progress.clone()));
    if opts.nominal {
        spec.schedule_ops(&mut cluster);
    }

    let mut step_ns = Vec::new();
    let mut peak_rss_kb = 0;
    let stop_us = (opts.arrivals as f64 / opts.rate * 1e6) as u64;
    let mut violations = Vec::new();
    let start = Instant::now();
    let mut steps: u64 = 0;
    while !progress.finished() {
        let more = if opts.traced {
            let t = Instant::now();
            let more = cluster.sim.step();
            step_ns.push(t.elapsed().as_nanos().min(u128::from(u32::MAX)) as u32);
            more
        } else {
            cluster.sim.step()
        };
        steps += 1;
        if steps & 0xFFF == 0 {
            peak_rss_kb = peak_rss_kb.max(rss_kb());
            if cluster.now().micros() > stop_us + STUCK_US {
                violations.push(format!(
                    "{} transactions still unsettled {} s after the expected last arrival",
                    progress.unsettled.get(),
                    STUCK_US / 1_000_000
                ));
                break;
            }
        }
        if !more {
            violations.push("event queue drained before every transaction settled".into());
            break;
        }
    }
    let wall_s = start.elapsed().as_secs_f64();
    peak_rss_kb = peak_rss_kb.max(rss_kb());
    let end_us = cluster.now().micros();
    cluster.run_for(SETTLE_US);

    let (records, txs, timeouts, retries) = cluster.sim.with_actor::<Generator, _>(node, |g| {
        (
            std::mem::take(&mut g.records),
            std::mem::take(&mut g.txs),
            g.timeouts,
            g.retries,
        )
    });
    let mws = cluster.mw_nodes.len();
    let per_mw = cluster.db_nodes[0].len();
    let mw: Vec<MwMetrics> = (0..mws).map(|i| cluster.mw_metrics(i)).collect();
    let mut db_traces = Vec::new();
    let mut wal = Vec::new();
    let mut online = Vec::new();
    for m in 0..mws {
        for b in 0..per_mw {
            db_traces.push(cluster.db_trace(m, b));
            wal.extend(cluster.backend_wal_stats(m, b));
            let state = cluster.with_middleware(m, |mw| mw.recovery_state(BackendId(b)));
            online.push(state == "Online");
        }
    }
    let mut result = RunResult {
        records,
        txs,
        timeouts,
        retries,
        wall_s,
        end_us,
        step_ns,
        peak_rss_kb,
        sim: cluster.sim.stats(),
        mw,
        db_traces,
        wal,
        online,
        digests: BTreeMap::new(),
        violations,
    };
    if opts.nominal {
        check_replicas(spec, &mut cluster, &mut result);
    }
    result
}

/// Rows of `table` on one backend, first column (the primary key) parsed
/// as an integer where it is one, plus a digest of the sorted rows.
fn table_contents(cluster: &mut Cluster, mw: usize, b: usize, table: &str) -> (Vec<i64>, u64) {
    cluster.with_backend_engine(mw, b, |e| {
        let conn = e.connect(ADMIN_USER, ADMIN_PASSWORD).expect("admin login");
        let out = e
            .execute(conn, &format!("SELECT * FROM bench.{table}"))
            .expect("table scan for the end-of-run gates");
        e.disconnect(conn);
        let rows = out
            .outcome
            .rows()
            .map(|r| r.rows.clone())
            .unwrap_or_default();
        let mut lines: Vec<String> = rows.iter().map(|r| format!("{r:?}")).collect();
        lines.sort_unstable();
        let mut h = DefaultHasher::new();
        lines.hash(&mut h);
        let keys = rows
            .iter()
            .filter_map(|r| r.first().and_then(|v| v.as_int()))
            .collect();
        (keys, h.finish())
    })
}

/// `INSERT INTO t ... VALUES (k, ...)` → `(t, k)`.
fn insert_key(sql: &str) -> Option<(String, i64)> {
    let rest = sql.strip_prefix("INSERT INTO ")?;
    let table = rest.split_whitespace().next()?.to_string();
    let values = &rest[rest.find("VALUES (")? + 8..];
    let key = values[..values.find([',', ')'])?].trim().parse().ok()?;
    Some((table, key))
}

/// The replica gates: every acknowledged insert is present on every
/// backend that ends Online and hosts its table, and every such backend
/// holds the same content for each table.
fn check_replicas(spec: &Spec, cluster: &mut Cluster, result: &mut RunResult) {
    let placement = spec.placement();
    let mut acked: BTreeMap<String, Vec<i64>> = BTreeMap::new();
    for (r, stmts) in result.records.iter().zip(&result.txs) {
        if r.outcome == Outcome::Ok {
            for (t, k) in stmts.iter().filter_map(|s| insert_key(s)) {
                acked.entry(t).or_default().push(k);
            }
        }
    }
    let mws = cluster.mw_nodes.len();
    let per_mw = cluster.db_nodes[0].len();
    for table in spec.tables() {
        let mut digests = Vec::new();
        for m in 0..mws {
            for b in 0..per_mw {
                let hosted = placement.as_ref().is_none_or(|p| p.hosts_table(b, &table));
                if !hosted || !result.online[m * per_mw + b] {
                    digests.push(None);
                    continue;
                }
                let (keys, digest) = table_contents(cluster, m, b, &table);
                digests.push(Some(digest));
                if let Some(want) = acked.get(&table) {
                    let have: std::collections::HashSet<i64> = keys.into_iter().collect();
                    let missing = want.iter().filter(|k| !have.contains(k)).count();
                    if missing > 0 {
                        result.violations.push(format!(
                            "{missing} acknowledged inserts into {table} missing on mw{m}-db{b}"
                        ));
                    }
                }
            }
        }
        let present: Vec<u64> = digests.iter().flatten().copied().collect();
        if present.windows(2).any(|w| w[0] != w[1]) {
            result
                .violations
                .push(format!("replicas of {table} differ at the end of the run"));
        }
        if present.is_empty() {
            result
                .violations
                .push(format!("no Online replica hosts {table}"));
        }
        result.digests.insert(table, digests);
    }
    let arrivals = result.records.len() as u64;
    let settled =
        result.count(Outcome::Ok) + result.count(Outcome::Err) + result.count(Outcome::Shed);
    if settled != arrivals {
        result.violations.push(format!(
            "ok + err + shed = {settled} but arrivals = {arrivals}"
        ));
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::workloads;

    fn small(traced: bool) -> RunOpts {
        RunOpts {
            rate: 2_000.0,
            arrivals: 600,
            traced,
            nominal: true,
        }
    }

    #[test]
    fn every_arrival_settles_and_tracing_changes_no_outcome() {
        for spec in workloads::ALL {
            let plain = run(&spec, 7, small(false));
            assert!(
                plain.violations.is_empty(),
                "{}: {:?}",
                spec.name,
                plain.violations
            );
            assert_eq!(plain.records.len(), 600);
            assert!(plain.records.iter().all(|r| r.outcome != Outcome::Pending));
            let traced = run(&spec, 7, small(true));
            assert_eq!(
                plain.outcome_digest(),
                traced.outcome_digest(),
                "{}",
                spec.name
            );
            assert!(!traced.step_ns.is_empty());
            let other_seed = run(&spec, 8, small(false));
            assert_ne!(
                plain.outcome_digest(),
                other_seed.outcome_digest(),
                "{}",
                spec.name
            );
        }
    }

    #[test]
    fn insert_keys_parse_from_generated_statements() {
        assert_eq!(
            insert_key("INSERT INTO olw VALUES (1000001, 1)"),
            Some(("olw".into(), 1000001))
        );
        assert_eq!(
            insert_key(
                "INSERT INTO bookings (id, flight_id, agent, at) VALUES (10000000, 3, 1, now())"
            ),
            Some(("bookings".into(), 10000000))
        );
        assert_eq!(insert_key("SELECT 1"), None);
    }
}
