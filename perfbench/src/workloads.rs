//! The four workloads: cluster shape, generated schema and data,
//! transaction mix, nominal rate, latency limit, and the management
//! operations of `ops-under-load`. Every input is drawn from the seed.

use replimid_core::msg::{AdminCmd, BackendId};
use replimid_core::{
    Cluster, ClusterConfig, Mode, NondetPolicy, Placement, Policy, QuarantineConfig, ReadPolicy,
    TxSource,
};
use replimid_det::DetRng;
use replimid_simnet::SimTime;
use replimid_sql::{CrashKind, DurabilityConfig};
use replimid_workload::micro::{DisjointInsert, KeyedUpdates, PointReads};
use replimid_workload::Broker;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    Broker,
    WsWriteHeavy,
    PartialXgroup,
    OpsUnderLoad,
}

/// A workload's fixed parameters. Rates and limits were measured once on
/// the commit that introduced the benchmark and are recorded beside each
/// workload's `why` in `BENCHMARK.json`.
#[derive(Debug, Clone, Copy)]
pub struct Spec {
    pub name: &'static str,
    pub kind: Kind,
    /// Offered Poisson rate of the end-to-end run, transactions/s.
    pub nominal_rate: f64,
    /// p99 over all transactions that a capacity probe must stay within.
    pub latency_limit_us: u64,
    /// Arrivals in the nominal run (the run lasts about this many
    /// divided by the nominal rate).
    pub arrivals: u64,
    /// Arrivals in one capacity probe.
    pub probe_arrivals: u64,
}

/// Session slots: the most transactions in flight at once. Enough that
/// the slots are never what limits a workload: `capacity_tps` reads the
/// same with 4,096 slots, while with 64 `broker-95-5` stalls every slot
/// below the cluster's capacity, and so does `ops-under-load` during its
/// drain-under-brownout.
pub const SLOTS: usize = 1_024;

/// Every workload the benchmark runs. `BENCHMARK.json` tracks only
/// `broker-95-5` and `partial-xgroup`: the program fails the replica gate
/// on `ws-write-heavy` for some seeds, and fails the tiling gate on the
/// traced run of `ops-under-load` (see `README.md`).
pub const ALL: [Spec; 4] = [
    Spec {
        name: "broker-95-5",
        kind: Kind::Broker,
        nominal_rate: 4_400.0,
        latency_limit_us: 132_000,
        arrivals: 52_000,
        probe_arrivals: 3_000,
    },
    Spec {
        name: "ws-write-heavy",
        kind: Kind::WsWriteHeavy,
        nominal_rate: 1_300.0,
        latency_limit_us: 27_000,
        arrivals: 73_400,
        probe_arrivals: 4_000,
    },
    Spec {
        name: "partial-xgroup",
        kind: Kind::PartialXgroup,
        nominal_rate: 2_400.0,
        latency_limit_us: 38_700,
        arrivals: 40_000,
        probe_arrivals: 12_000,
    },
    Spec {
        name: "ops-under-load",
        kind: Kind::OpsUnderLoad,
        nominal_rate: 850.0,
        latency_limit_us: 44_000,
        arrivals: 17_000,
        probe_arrivals: 16_000,
    },
];

pub fn by_name(name: &str) -> Option<Spec> {
    ALL.iter().copied().find(|s| s.name == name)
}

/// Independent sub-seeds, so each input stream depends on the seed alone.
pub fn sub_seed(seed: u64, stream: u64) -> u64 {
    let mut z = seed ^ stream.wrapping_mul(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

const FLIGHTS: usize = 600;
const HOT_ROWS: i64 = 100;
const READ_ROWS: i64 = 100;
const GROUPS: usize = 8;
const DB: &str = "bench";

/// `INSERT` batches of `rows` seeded rows.
fn load(out: &mut Vec<String>, table: &str, rows: usize, row: impl Fn(usize) -> String) {
    for chunk in (0..rows).collect::<Vec<_>>().chunks(100) {
        let values: Vec<String> = chunk.iter().map(|&i| row(i)).collect();
        out.push(format!("INSERT INTO {table} VALUES {}", values.join(", ")));
    }
}

fn kv_table(out: &mut Vec<String>, table: &str, rows: usize, rng: &mut DetRng) {
    out.push(format!(
        "CREATE TABLE {table} (k INT PRIMARY KEY, v INT NOT NULL)"
    ));
    let vals: Vec<u32> = (0..rows).map(|_| rng.gen_range(0..1_000_000u32)).collect();
    load(out, table, rows, |i| format!("({i}, {})", vals[i]));
}

impl Spec {
    /// Tables whose contents the end-of-run gates compare across replicas.
    pub fn tables(&self) -> Vec<String> {
        match self.kind {
            Kind::Broker => vec!["flights".into(), "bookings".into()],
            Kind::WsWriteHeavy => vec!["bench".into(), "ins".into()],
            Kind::PartialXgroup => (0..GROUPS)
                .flat_map(|g| [format!("t{g}"), format!("r{g}")])
                .collect(),
            Kind::OpsUnderLoad => vec!["bench".into(), "olw".into()],
        }
    }

    pub fn schema(&self, seed: u64) -> Vec<String> {
        let mut rng = DetRng::seed_from_u64(sub_seed(seed, 4));
        let mut out = vec![format!("CREATE DATABASE {DB}"), format!("USE {DB}")];
        match self.kind {
            Kind::Broker => {
                out.push(
                    "CREATE TABLE flights (id INT PRIMARY KEY, route TEXT, seats INT NOT NULL, price INT NOT NULL)"
                        .into(),
                );
                out.push(
                    "CREATE TABLE bookings (id INT PRIMARY KEY, flight_id INT NOT NULL, agent INT NOT NULL, at TIMESTAMP)"
                        .into(),
                );
                out.push("CREATE SEQUENCE booking_ids START 1".into());
                let rows: Vec<(u32, u32)> = (0..FLIGHTS)
                    .map(|_| (rng.gen_range(5_000..6_000u32), rng.gen_range(50..450u32)))
                    .collect();
                // Routes match `Broker`'s searches: flight f flies route f % 37.
                load(&mut out, "flights", FLIGHTS, |f| {
                    format!("({f}, 'r{}', {}, {})", f % 37, rows[f].0, rows[f].1)
                });
            }
            Kind::WsWriteHeavy => {
                kv_table(&mut out, "bench", HOT_ROWS as usize, &mut rng);
                kv_table(&mut out, "ins", 0, &mut rng);
            }
            Kind::PartialXgroup => {
                for g in 0..GROUPS {
                    kv_table(&mut out, &format!("t{g}"), 0, &mut rng);
                    kv_table(&mut out, &format!("r{g}"), READ_ROWS as usize, &mut rng);
                }
            }
            Kind::OpsUnderLoad => {
                kv_table(&mut out, "bench", READ_ROWS as usize, &mut rng);
                // Writes land in their own table so read cost (a scan)
                // does not climb with every insert.
                kv_table(&mut out, "olw", 0, &mut rng);
            }
        }
        out
    }

    pub fn placement(&self) -> Option<Placement> {
        match self.kind {
            Kind::PartialXgroup => {
                // Partner groups 2k and 2k+1 share a host pair, and the
                // pairs stripe over the backends: a paired transaction's
                // delegate hosts both of its groups.
                let hosts = (0..GROUPS)
                    .map(|g| vec![g / 2 % 2 * 2, g / 2 % 2 * 2 + 1])
                    .collect();
                let mut p = Placement::new(hosts);
                for g in 0..GROUPS {
                    p = p.assign(&format!("t{g}"), g).assign(&format!("r{g}"), g);
                }
                Some(p)
            }
            _ => None,
        }
    }

    pub fn cluster_config(&self, seed: u64) -> ClusterConfig {
        let schema = self.schema(seed);
        // Durable WAL with fsync per record. Periodic checkpoints are off:
        // each is a full snapshot whose cost grows with the tables, and a
        // run long enough to fill the certifier window would measure that
        // growth instead of a steady state.
        let durable = || {
            Some(DurabilityConfig {
                checkpoint_every: 0,
                ..DurabilityConfig::default()
            })
        };
        let mut cfg = match self.kind {
            Kind::Broker => {
                let mut cfg = ClusterConfig::new(
                    Mode::MasterSlave {
                        two_safe: false,
                        ship_interval_us: 20_000,
                        use_writesets: true,
                        parallel_apply: false,
                        read_master: false,
                    },
                    schema,
                    DB,
                );
                cfg.backends_per_mw = 4;
                cfg.mw.read_policy = ReadPolicy::Fresh;
                cfg
            }
            Kind::WsWriteHeavy => {
                let mut cfg = ClusterConfig::new(Mode::MultiMasterWriteset, schema, DB);
                cfg.middlewares = 2;
                cfg.backends_per_mw = 2;
                cfg.engine.durability = durable();
                cfg.mw.batch_max = 8;
                cfg
            }
            Kind::PartialXgroup => {
                // Two middlewares, each over its own four backends with the
                // same placement, so every group's total order crosses the
                // network; durable WAL and group commit on.
                let mut cfg = ClusterConfig::new(Mode::MultiMasterWriteset, schema, DB);
                cfg.middlewares = 2;
                cfg.backends_per_mw = 4;
                cfg.engine.durability = durable();
                cfg.mw.batch_max = 8;
                cfg.mw.policy = Policy::RoundRobin;
                cfg.mw.placement = self.placement();
                cfg
            }
            Kind::OpsUnderLoad => {
                let mut cfg = ClusterConfig::new(
                    Mode::MultiMasterStatement {
                        nondet: NondetPolicy::RewriteAndReject,
                    },
                    schema,
                    DB,
                );
                cfg.backends_per_mw = 3;
                cfg.mw.policy = Policy::RoundRobin;
                cfg.mw.quarantine = Some(QuarantineConfig::default());
                cfg.engine.durability = durable();
                // Backends costed at 8x CPU (the E23 shape): losing or
                // regaining a replica moves capacity.
                cfg.backend_speed = vec![8.0];
                cfg
            }
        };
        cfg.seed = sub_seed(seed, 1);
        cfg.mw.plan_cache = 256;
        cfg
    }

    pub fn source(&self) -> Box<dyn TxSource> {
        match self.kind {
            Kind::Broker => Box::new(Broker::new(FLIGHTS as i64, 0.05, 1)),
            Kind::WsWriteHeavy => Box::new(WriteHeavy {
                n: 0,
                reads: PointReads {
                    total_keys: HOT_ROWS,
                },
                updates: KeyedUpdates {
                    isolation: Some("SNAPSHOT"),
                    ..KeyedUpdates::uniform(HOT_ROWS)
                },
                next: 1_000_000,
            }),
            Kind::PartialXgroup => Box::new(PartialMix {
                groups: (0..GROUPS)
                    .map(|g| DisjointInsert::new(1_000_000 * (g as i64 + 1), g).with_multi(0.1))
                    .collect(),
            }),
            Kind::OpsUnderLoad => Box::new(ReadInsertMix {
                reads: PointReads {
                    total_keys: READ_ROWS,
                },
                next: 1_000_000,
            }),
        }
    }

    /// Management operations and faults, scheduled before the run starts.
    ///
    /// `partial-xgroup`: planned maintenance of one backend of the first
    /// middleware. It is drained, crashed with a torn WAL tail while out of
    /// rotation (so no request is in flight on it), restarted (WAL replay)
    /// and re-added (rejoin through the recovery log). Its groups keep their
    /// other host throughout.
    ///
    /// `ops-under-load`: never more than one backend is out of rotation at
    /// a time: backend 1 is re-added at 8 s and back online well before
    /// backend 2 crashes.
    pub fn schedule_ops(&self, cluster: &mut Cluster) {
        let s = |x: f64| SimTime((x * 1e6) as u64);
        let drain = |backend| AdminCmd::DrainBackend {
            backend: BackendId(backend),
        };
        let add = |backend| AdminCmd::AddBackend {
            backend: BackendId(backend),
        };
        match self.kind {
            Kind::PartialXgroup => {
                cluster.admin_at(s(4.0), 0, drain(3));
                cluster.crash_backend_with(s(5.0), 0, 3, CrashKind::TornTail);
                cluster.restart_backend_at(s(6.0), 0, 3);
                cluster.admin_at(s(7.0), 0, add(3));
            }
            Kind::OpsUnderLoad => {
                cluster.brownout_backend_at(s(3.0), 0, 2, 10.0);
                cluster.admin_at(s(4.0), 0, drain(1));
                cluster.clear_brownout_at(s(7.0), 0, 2);
                cluster.admin_at(s(8.0), 0, add(1));
                cluster.crash_backend_with(s(12.0), 0, 2, CrashKind::TornTail);
                cluster.restart_backend_at(s(13.0), 0, 2);
            }
            Kind::Broker | Kind::WsWriteHeavy => {}
        }
    }

    /// Virtual-time windows (µs) of the operations and faults above, each
    /// extended by a second for the rejoin; empty for steady workloads.
    pub fn ops_windows(&self) -> Vec<(u64, u64)> {
        match self.kind {
            Kind::PartialXgroup => vec![(4_000_000, 8_000_000)],
            Kind::OpsUnderLoad => vec![(3_000_000, 10_000_000), (12_000_000, 15_000_000)],
            Kind::Broker | Kind::WsWriteHeavy => Vec::new(),
        }
    }
}

/// `ws-write-heavy`: 10% point reads of the 100-row hot table, 20%
/// single-row snapshot-isolation updates of it (the certification
/// conflicts), 70% fresh-key inserts into a separate table. Reads and
/// updates come from the `workload` crate's `PointReads` and
/// `KeyedUpdates`. The arrival counter picks the kind, so a fixed arrival
/// count certifies a fixed number of writesets and the run crosses the
/// certifier's 65,536-entry window by the same margin on every seed.
struct WriteHeavy {
    n: u64,
    reads: PointReads,
    updates: KeyedUpdates,
    next: i64,
}

impl TxSource for WriteHeavy {
    fn next_tx(&mut self, rng: &mut DetRng) -> Vec<String> {
        let kind = self.n % 10;
        self.n += 1;
        if kind == 0 {
            self.reads.next_tx(rng)
        } else if kind <= 2 {
            self.updates.next_tx(rng)
        } else {
            let key = self.next;
            self.next += 1;
            vec![format!(
                "INSERT INTO ins VALUES ({key}, {})",
                rng.gen_range(0..1_000_000u32)
            )]
        }
    }
}

/// `partial-xgroup`: a uniformly chosen table group; 10% point reads of
/// the group's read table, otherwise that group's `DisjointInsert` stream
/// (10% of which also write the partner group).
struct PartialMix {
    groups: Vec<DisjointInsert>,
}

impl TxSource for PartialMix {
    fn next_tx(&mut self, rng: &mut DetRng) -> Vec<String> {
        let g = rng.gen_range(0..self.groups.len());
        if rng.gen::<f64>() < 0.10 {
            vec![format!(
                "SELECT v FROM r{g} WHERE k = {}",
                rng.gen_range(0..READ_ROWS)
            )]
        } else {
            self.groups[g].next_tx(rng)
        }
    }
}

/// `ops-under-load`: 90% `PointReads`, 10% fresh-key inserts.
struct ReadInsertMix {
    reads: PointReads,
    next: i64,
}

impl TxSource for ReadInsertMix {
    fn next_tx(&mut self, rng: &mut DetRng) -> Vec<String> {
        if rng.gen::<f64>() < 0.10 {
            let key = self.next;
            self.next += 1;
            vec![format!("INSERT INTO olw VALUES ({key}, 1)")]
        } else {
            self.reads.next_tx(rng)
        }
    }
}
