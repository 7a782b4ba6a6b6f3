//! Open-loop transaction generator.
//!
//! Arrivals follow a Poisson process in virtual time; each arrival is one
//! whole transaction drawn from a [`TxSource`], whose statements are sent
//! in order on one session slot. A transaction is timed from its scheduled
//! arrival to its final outcome, queueing and retries included. A failed
//! attempt whose error is retryable is re-offered at the tail of the queue
//! as a new arrival that keeps its original arrival time. Every
//! transaction's record is kept, so every quantile is exact.
//!
//! Shared progress counters live in an `Rc` so the driving loop can stop
//! the simulation the moment the last transaction settles, without
//! downcasting the actor on every step.

use std::cell::Cell;
use std::collections::VecDeque;
use std::rc::Rc;

use replimid_core::msg::{ClientRequest, Msg, SessionId};
use replimid_core::TxSource;
use replimid_det::DetRng;
use replimid_simnet::{Actor, Ctx, NodeId, SimTime};
use replimid_workload::ArrivalProcess;

#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Outcome {
    Pending,
    Ok,
    /// Terminal error: not retryable, or the retry budget ran out.
    Err,
    /// Dropped on arrival: every slot busy and the queue full.
    Shed,
}

/// One generated transaction and what became of it.
#[derive(Debug, Clone, Copy)]
pub struct TxRecord {
    pub arrived_us: u64,
    /// First dispatch to a session slot (`u64::MAX` if never dispatched).
    pub dispatched_us: u64,
    pub done_us: u64,
    pub outcome: Outcome,
    /// Contains a statement that writes.
    pub write: bool,
    pub retries: u32,
    /// Transactions waiting for a slot when this one arrived.
    pub queue_at_arrival: u32,
}

impl TxRecord {
    pub fn sojourn_us(&self) -> u64 {
        self.done_us - self.arrived_us
    }
}

#[derive(Debug, Clone)]
pub struct GenConfig {
    /// Middlewares the slots spread over (slot `i` talks to `i % len`).
    pub middlewares: Vec<NodeId>,
    pub first_session: u64,
    pub slots: usize,
    pub rate_per_sec: f64,
    /// Seeds the arrival clock; kept apart from `tx_seed` so the same
    /// seed gives the same arrival pattern, scaled, at every rate.
    pub arrival_seed: u64,
    pub tx_seed: u64,
    /// Arrivals stop after this many transactions.
    pub max_arrivals: u64,
    /// Give every statement a nonzero trace id (the traced run).
    pub traced: bool,
}

/// Progress visible to the driving loop.
#[derive(Debug, Default)]
pub struct Progress {
    pub arrivals_done: Cell<bool>,
    pub unsettled: Cell<u64>,
}

impl Progress {
    pub fn finished(&self) -> bool {
        self.arrivals_done.get() && self.unsettled.get() == 0
    }
}

#[derive(Debug, Clone, Copy)]
struct Active {
    tx: usize,
    stmt: usize,
    /// A ROLLBACK is in flight after a failed attempt; `retryable` is the
    /// verdict on that attempt.
    rolling_back: bool,
    retryable: bool,
}

#[derive(Debug, Clone)]
struct Slot {
    session: u64,
    mw: NodeId,
    stmt_seq: u64,
    busy: Option<Active>,
    /// Guard-timer generation: a stale timeout identifies itself.
    epoch: u64,
}

const TAG_ARRIVAL: u64 = 0;
/// Transactions waiting for a slot beyond this are shed.
const QUEUE_MAX: usize = 16_384;
/// An attempt unanswered this long fails as retryable.
const REQUEST_TIMEOUT_US: u64 = 10_000_000;
/// Retries per transaction before it settles as an error.
const MAX_RETRIES: u32 = 5;

pub struct Generator {
    cfg: GenConfig,
    source: Box<dyn TxSource>,
    arrival_rng: DetRng,
    tx_rng: DetRng,
    slots: Vec<Slot>,
    queue: VecDeque<usize>,
    next_trace: u64,
    progress: Rc<Progress>,
    /// Statements of every generated transaction, in arrival order.
    pub txs: Vec<Vec<String>>,
    pub records: Vec<TxRecord>,
    pub timeouts: u64,
    pub retries: u64,
}

/// A statement writes unless it is a read or transaction control.
pub fn is_write_statement(sql: &str) -> bool {
    let head = sql.split_whitespace().next().unwrap_or("");
    !["SELECT", "BEGIN", "COMMIT", "ROLLBACK"]
        .iter()
        .any(|k| head.eq_ignore_ascii_case(k))
}

impl Generator {
    pub fn new(cfg: GenConfig, source: Box<dyn TxSource>, progress: Rc<Progress>) -> Self {
        let slots = (0..cfg.slots.max(1))
            .map(|i| Slot {
                session: cfg.first_session + i as u64,
                mw: cfg.middlewares[i % cfg.middlewares.len()],
                stmt_seq: 0,
                busy: None,
                epoch: 0,
            })
            .collect();
        Generator {
            arrival_rng: DetRng::seed_from_u64(cfg.arrival_seed),
            tx_rng: DetRng::seed_from_u64(cfg.tx_seed),
            cfg,
            source,
            slots,
            queue: VecDeque::new(),
            next_trace: 0,
            progress,
            txs: Vec::new(),
            records: Vec::new(),
            timeouts: 0,
            retries: 0,
        }
    }

    fn arrivals(&self) -> ArrivalProcess {
        ArrivalProcess::Poisson {
            rate_per_sec: self.cfg.rate_per_sec,
        }
    }

    fn arm_next_arrival(&mut self, ctx: &mut Ctx<'_, Msg>) {
        if self.records.len() as u64 >= self.cfg.max_arrivals {
            self.progress.arrivals_done.set(true);
            return;
        }
        let at = self
            .arrivals()
            .next_arrival_us(ctx.now().micros(), &mut self.arrival_rng);
        ctx.set_timer_at(SimTime(at), TAG_ARRIVAL);
    }

    fn settle(&mut self, tx: usize, outcome: Outcome, now: u64) {
        let r = &mut self.records[tx];
        r.outcome = outcome;
        r.done_us = now;
        self.progress
            .unsettled
            .set(self.progress.unsettled.get() - 1);
    }

    fn offer(&mut self, ctx: &mut Ctx<'_, Msg>, tx: usize) {
        if let Some(slot) = self.slots.iter().position(|s| s.busy.is_none()) {
            self.dispatch(ctx, slot, tx);
        } else if self.queue.len() < QUEUE_MAX {
            self.queue.push_back(tx);
        } else {
            self.settle(tx, Outcome::Shed, ctx.now().micros());
        }
    }

    fn dispatch(&mut self, ctx: &mut Ctx<'_, Msg>, slot: usize, tx: usize) {
        let now = ctx.now().micros();
        let r = &mut self.records[tx];
        if r.dispatched_us == u64::MAX {
            r.dispatched_us = now;
        }
        self.slots[slot].busy = Some(Active {
            tx,
            stmt: 0,
            rolling_back: false,
            retryable: false,
        });
        let sql = self.txs[tx][0].clone();
        self.send(ctx, slot, sql);
    }

    fn send(&mut self, ctx: &mut Ctx<'_, Msg>, slot: usize, sql: String) {
        let trace = if self.cfg.traced {
            self.next_trace += 1;
            self.next_trace
        } else {
            0
        };
        let n = self.slots.len() as u64;
        let s = &mut self.slots[slot];
        s.stmt_seq += 1;
        s.epoch += 1;
        let request = ClientRequest {
            session: SessionId(s.session),
            stmt_seq: s.stmt_seq,
            trace,
            sql,
        };
        ctx.send(s.mw, Msg::Request(request));
        ctx.set_timer(REQUEST_TIMEOUT_US, 1 + s.epoch * n + slot as u64);
    }

    /// The slot's failed attempt is rolled back: retry it as a new arrival
    /// or settle it as an error, then let the freed slot serve the queue.
    fn retry_or_settle(&mut self, ctx: &mut Ctx<'_, Msg>, slot: usize, retryable: bool) {
        let active = self.slots[slot].busy.take().expect("fail on idle slot");
        let r = &mut self.records[active.tx];
        if retryable && r.retries < MAX_RETRIES {
            r.retries += 1;
            self.retries += 1;
            self.offer(ctx, active.tx);
        } else {
            self.settle(active.tx, Outcome::Err, ctx.now().micros());
        }
        self.refill(ctx, slot);
    }

    fn refill(&mut self, ctx: &mut Ctx<'_, Msg>, slot: usize) {
        if self.slots[slot].busy.is_none() {
            if let Some(next) = self.queue.pop_front() {
                self.dispatch(ctx, slot, next);
            }
        }
    }

    /// An attempt failed: roll back on its session first, as the
    /// closed-loop client does, so the next transaction on the slot starts
    /// clean.
    fn on_failure(&mut self, ctx: &mut Ctx<'_, Msg>, slot: usize, retryable: bool) {
        let active = self.slots[slot].busy.expect("failure on idle slot");
        if !active.rolling_back {
            self.slots[slot].busy = Some(Active {
                rolling_back: true,
                retryable,
                ..active
            });
            self.send(ctx, slot, "ROLLBACK".to_string());
        } else {
            self.retry_or_settle(ctx, slot, retryable);
        }
    }

    fn on_arrival(&mut self, ctx: &mut Ctx<'_, Msg>) {
        let now = ctx.now().micros();
        let stmts = self.source.next_tx(&mut self.tx_rng);
        let write = stmts.iter().any(|s| is_write_statement(s));
        self.txs.push(stmts);
        self.records.push(TxRecord {
            arrived_us: now,
            dispatched_us: u64::MAX,
            done_us: 0,
            outcome: Outcome::Pending,
            write,
            retries: 0,
            queue_at_arrival: self.queue.len() as u32,
        });
        self.progress
            .unsettled
            .set(self.progress.unsettled.get() + 1);
        self.offer(ctx, self.records.len() - 1);
        self.arm_next_arrival(ctx);
    }
}

impl Actor<Msg> for Generator {
    fn on_start(&mut self, ctx: &mut Ctx<'_, Msg>) {
        self.arm_next_arrival(ctx);
    }

    fn on_message(&mut self, ctx: &mut Ctx<'_, Msg>, _from: NodeId, msg: Msg) {
        let Msg::Reply(reply) = msg else { return };
        let slot = reply.session.0.wrapping_sub(self.cfg.first_session) as usize;
        if slot >= self.slots.len() || self.slots[slot].stmt_seq != reply.stmt_seq {
            return; // stale: an attempt that timed out answered late
        }
        let Some(active) = self.slots[slot].busy else {
            return;
        };
        if active.rolling_back {
            self.retry_or_settle(ctx, slot, active.retryable);
            return;
        }
        match reply.result {
            Ok(_) => {
                let next = active.stmt + 1;
                if next < self.txs[active.tx].len() {
                    self.slots[slot].busy = Some(Active {
                        stmt: next,
                        ..active
                    });
                    let sql = self.txs[active.tx][next].clone();
                    self.send(ctx, slot, sql);
                } else {
                    self.slots[slot].busy = None;
                    self.settle(active.tx, Outcome::Ok, ctx.now().micros());
                    self.refill(ctx, slot);
                }
            }
            Err(e) => self.on_failure(ctx, slot, e.is_retryable()),
        }
    }

    fn on_timer(&mut self, ctx: &mut Ctx<'_, Msg>, tag: u64) {
        if tag == TAG_ARRIVAL {
            self.on_arrival(ctx);
            return;
        }
        let n = self.slots.len() as u64;
        let slot = ((tag - 1) % n) as usize;
        if (tag - 1) / n != self.slots[slot].epoch || self.slots[slot].busy.is_none() {
            return; // superseded guard
        }
        self.timeouts += 1;
        self.on_failure(ctx, slot, true);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn writes_are_everything_but_reads_and_transaction_control() {
        assert!(!is_write_statement("SELECT v FROM bench WHERE k = 1"));
        assert!(!is_write_statement("BEGIN ISOLATION LEVEL SNAPSHOT"));
        assert!(!is_write_statement("commit"));
        assert!(is_write_statement("INSERT INTO olw VALUES (1, 1)"));
        assert!(is_write_statement("UPDATE bench SET v = v + 1 WHERE k = 3"));
    }
}
