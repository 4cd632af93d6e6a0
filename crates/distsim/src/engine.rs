//! The deterministic discrete-event engine.
//!
//! [`EventSim`] runs [`Node`] protocols round by round under a seeded
//! [`FaultPlan`], but sparsely: it executes only rounds in which
//! something is due — a crash or recovery, a message delivery, or a
//! node wakeup — and in those rounds steps only the robots that have
//! something to do.
//!
//! Per executed round `r`:
//!
//! 1. churn events scheduled for round `r` take effect (a robot crashed
//!    at round `r` neither receives nor steps in round `r`);
//! 2. deliveries due at `r` arrive; those addressed to crashed robots
//!    are dropped;
//! 3. every woken live robot's `on_round` runs, in index order, and its
//!    sends pass the fault model (loss, duplication, delay) and are
//!    filed for round `r + 1 + delay`.
//!
//! [`EventSim::start`] applies round-0 churn first, so a robot crashed
//! at round 0 never runs `on_start`; `on_start` sends are due at round
//! `0 + delay`. Crashed robots keep their protocol state and resume at
//! a scheduled recovery.
//!
//! ## Why dormancy is behavior-preserving
//!
//! Stepping every live robot every round would let a protocol timer
//! tick anywhere. The engine instead relies on the [`Node::idle`]
//! contract: an idle node's `on_round` with an empty inbox changes no
//! state and sends nothing (so it draws no fault randomness either) —
//! skipping it is unobservable. Non-idle nodes keep a wakeup scheduled
//! every round; idle nodes are woken only by a delivery. This is what
//! turns `Θ(n)` work per round into `Θ(active)`.
//!
//! ## Event order
//!
//! Every queued event has a `(due, class, ord)` key, unique by
//! construction:
//!
//! | class | meaning    | `ord`                               |
//! |-------|------------|-------------------------------------|
//! | 0     | churn      | position in the round-sorted plan   |
//! | 1     | delivery   | global send sequence number         |
//! | 2     | wakeup     | node index                          |
//!
//! The class order is the round's phase order; delivery `ord` fixes
//! each inbox's order, and wakeup `ord` fixes the index-order stepping
//! that keeps the shared random stream in a fixed order.
//!
//! No event needs a priority queue. Churn events are a cursor into the
//! round-sorted plan. Wakeups are a list: between rounds every queued
//! wakeup is for the next round to execute, because a robot schedules
//! its wakeup for the round after the one it just ran. Deliveries — the
//! bulk of the events — are filed under their due round: a round's
//! slot holds one inbox per recipient and an `n`-entry index from robot
//! to inbox, so filing a message costs O(1). Sends are filed in
//! sequence order, so every inbox is already in `ord` order, and
//! executing a round hands each woken robot its inbox without any
//! regrouping. The checkpoint sorts all entries by key, so its bytes do
//! not depend on this layout.

use crate::fault::{ChurnEvent, ChurnKind, DelayModel, FaultPlan, FaultRng};
use crate::topology::ExplicitTopology;
use crate::{Envelope, Node, Outbox, SimError};
use anr_trace::{TraceValue, Tracer};
use std::collections::VecDeque;

/// Accounting for a run.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct FaultStats {
    /// Rounds of simulated time elapsed (not counting `on_start`).
    pub rounds: usize,
    /// Messages accepted into the network (after loss; duplicates count).
    pub sent: usize,
    /// Messages handed to a live robot's inbox.
    pub delivered: usize,
    /// Messages dropped by the loss model.
    pub dropped_loss: usize,
    /// Messages dropped because the recipient was crashed at arrival.
    pub dropped_crash: usize,
    /// Extra copies created by the duplication model.
    pub duplicated: usize,
    /// Deliveries that suffered a non-zero delay.
    pub delayed: usize,
    /// Crash events applied.
    pub crashes: usize,
    /// Recovery events applied.
    pub recoveries: usize,
}

/// CONGEST-model accounting observed during a run, as reported by
/// [`EventSim::model_observation`].
///
/// These are the runtime counterparts of the static declarations in
/// `lint.models.toml`: the accounted runners assert
/// `peak_payload_bits` ≤ the protocol's declared `bits` budget, and
/// the distsim bench records the whole observation next to the static
/// bound so CI can cross-check them.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ModelObservation {
    /// Largest payload (in bits, per the protocol's size function)
    /// offered over any single link in the run.
    pub peak_payload_bits: u32,
    /// Most messages offered to the fault model in any single round.
    pub peak_round_msgs: u64,
    /// Total messages offered across the run (including loss-dropped
    /// and duplicated copies).
    pub total_msgs: u64,
    /// Rounds of simulated time elapsed when the observation was read.
    pub rounds: u64,
}

/// Live accounting state; one payload-size probe per offer, counters
/// rolled at every round boundary. Observation only — attaching it
/// never changes the run.
struct Accounting<M> {
    /// Protocol-supplied conservative payload size, in bits.
    bits_of: fn(&M) -> u32,
    peak_payload_bits: u32,
    peak_round_msgs: u64,
    cur_round_msgs: u64,
    total_msgs: u64,
}

impl<M> Accounting<M> {
    fn record(&mut self, msg: &M, copies: u64) {
        let bits = (self.bits_of)(msg);
        self.peak_payload_bits = self.peak_payload_bits.max(bits);
        self.cur_round_msgs += copies;
        self.total_msgs += copies;
    }

    fn roll_round(&mut self) {
        self.peak_round_msgs = self.peak_round_msgs.max(self.cur_round_msgs);
        self.cur_round_msgs = 0;
    }
}

pub(crate) const CLASS_CHURN: u8 = 0;
pub(crate) const CLASS_DELIVER: u8 = 1;
pub(crate) const CLASS_WAKE: u8 = 2;

/// Sentinel for "no wakeup scheduled".
pub(crate) const NO_WAKE: u64 = u64::MAX;

/// Sentinel for "no inbox in this round" in [`DueRound::slot`].
const NO_INBOX: u32 = u32::MAX;

/// One recipient's deliveries in one round, in send order.
#[derive(Debug)]
pub(crate) struct Inbox<M> {
    pub(crate) to: usize,
    /// Send sequence numbers (delivery `ord`), parallel to `envelopes`.
    pub(crate) ords: Vec<u64>,
    pub(crate) envelopes: Vec<Envelope<M>>,
}

/// The deliveries due in one round, grouped by recipient.
#[derive(Debug)]
pub(crate) struct DueRound<M> {
    /// `slot[to]` indexes `inboxes`, or is [`NO_INBOX`]; allocated on
    /// the first delivery filed here (`n` entries).
    slot: Vec<u32>,
    /// Inboxes in the order their recipients were first filed.
    pub(crate) inboxes: Vec<Inbox<M>>,
}

impl<M> DueRound<M> {
    fn empty() -> Self {
        DueRound {
            slot: Vec::new(),
            inboxes: Vec::new(),
        }
    }

    /// The inbox of `to`, if anything is filed for it.
    fn inbox(&self, to: usize) -> Option<&Inbox<M>> {
        match self.slot.get(to) {
            Some(&i) if i != NO_INBOX => self.inboxes.get(i as usize),
            _ => None,
        }
    }
}

/// Messages in flight, filed under their due round.
#[derive(Debug)]
pub(crate) struct Deliveries<M> {
    /// Robots (length of every slot index).
    n: usize,
    /// Due round of `rounds[0]`.
    base: u64,
    rounds: VecDeque<DueRound<M>>,
    /// Executed rounds kept for reuse, so a slot index is allocated
    /// once per live round, not once per executed round.
    spare: Vec<DueRound<M>>,
    /// Emptied inboxes kept for reuse, with their capacity.
    spare_inboxes: Vec<Inbox<M>>,
    /// Messages queued.
    len: usize,
}

impl<M> Deliveries<M> {
    pub(crate) fn new(n: usize, base: u64) -> Self {
        Deliveries {
            n,
            base,
            rounds: VecDeque::new(),
            spare: Vec::new(),
            spare_inboxes: Vec::new(),
            len: 0,
        }
    }

    pub(crate) fn len(&self) -> usize {
        self.len
    }

    /// Files a delivery due at `due` (which must not precede the
    /// earliest round still open).
    pub(crate) fn push(&mut self, due: u64, ord: u64, from: usize, to: usize, msg: M) {
        debug_assert!(due >= self.base, "delivery filed in the past");
        let k = (due - self.base) as usize;
        while self.rounds.len() <= k {
            let round = self.spare.pop().unwrap_or_else(DueRound::empty);
            self.rounds.push_back(round);
        }
        let round = &mut self.rounds[k];
        if round.slot.is_empty() {
            round.slot = vec![NO_INBOX; self.n];
        }
        let i = match round.slot[to] {
            NO_INBOX => {
                round.slot[to] = round.inboxes.len() as u32;
                let mut inbox = self.spare_inboxes.pop().unwrap_or(Inbox {
                    to,
                    ords: Vec::new(),
                    envelopes: Vec::new(),
                });
                inbox.to = to;
                round.inboxes.push(inbox);
                round.inboxes.len() - 1
            }
            i => i as usize,
        };
        round.inboxes[i].ords.push(ord);
        round.inboxes[i].envelopes.push(Envelope { from, msg });
        self.len += 1;
    }

    /// Due round of the earliest queued delivery.
    fn next_due(&self) -> Option<u64> {
        self.rounds
            .iter()
            .position(|r| !r.inboxes.is_empty())
            .map(|k| self.base + k as u64)
    }

    /// Removes and returns the deliveries due at `t` (none may be due
    /// earlier); later sends may then be filed from round `t + 1` on.
    fn take(&mut self, t: u64) -> DueRound<M> {
        debug_assert!(t >= self.base);
        let skip = (t - self.base).min(self.rounds.len() as u64) as usize;
        for _ in 0..skip {
            if let Some(round) = self.rounds.pop_front() {
                debug_assert!(round.inboxes.is_empty(), "deliveries skipped");
                self.spare.push(round);
            }
        }
        self.base = t + 1;
        let round = self.rounds.pop_front().unwrap_or_else(DueRound::empty);
        self.len -= round.inboxes.iter().map(|ib| ib.ords.len()).sum::<usize>();
        round
    }

    /// Returns an executed round's storage for reuse.
    fn recycle(&mut self, mut round: DueRound<M>) {
        for mut inbox in round.inboxes.drain(..) {
            round.slot[inbox.to] = NO_INBOX;
            inbox.ords.clear();
            inbox.envelopes.clear();
            self.spare_inboxes.push(inbox);
        }
        self.spare.push(round);
    }

    /// Every queued inbox with its due round.
    pub(crate) fn iter(&self) -> impl Iterator<Item = (u64, &Inbox<M>)> {
        self.rounds
            .iter()
            .enumerate()
            .flat_map(move |(k, r)| r.inboxes.iter().map(move |ib| (self.base + k as u64, ib)))
    }
}

/// Deterministic discrete-event simulator.
///
/// State is struct-of-arrays: nodes, crash flags, and wakeup slots are
/// parallel vectors indexed by robot; nothing is materialized per
/// round.
pub struct EventSim<N: Node> {
    pub(crate) topology: ExplicitTopology,
    pub(crate) nodes: Vec<N>,
    pub(crate) crashed: Vec<bool>,
    pub(crate) next_wake: Vec<u64>,
    pub(crate) plan: FaultPlan,
    pub(crate) rng: FaultRng,
    /// Churn events sorted by round (stable, so plan order breaks
    /// ties) — `ord` of class-0 events indexes this list.
    pub(crate) churn: Vec<ChurnEvent>,
    /// `churn[churn_next..]` are still queued.
    pub(crate) churn_next: usize,
    /// Robots with a wakeup queued (all due at the same round, the
    /// next one to execute).
    pub(crate) wakes: Vec<usize>,
    pub(crate) deliveries: Deliveries<N::Msg>,
    /// Next round to execute == rounds completed so far.
    pub(crate) now: u64,
    /// Global send sequence (delivery `ord`).
    pub(crate) seq: u64,
    pub(crate) started: bool,
    /// Accounting; the `rounds` field is maintained lazily by
    /// [`stats`](EventSim::stats).
    pub(crate) stats: FaultStats,
    pub(crate) tracer: Tracer,
    /// CONGEST accounting, attached via
    /// [`with_accounting`](EventSim::with_accounting). Not part of the
    /// checkpointed state: restore always starts without it.
    accounting: Option<Accounting<N::Msg>>,
    /// Send buffer reused by every `on_start` / `on_round` call.
    outbox: Outbox<N::Msg>,
}

impl<N: Node> std::fmt::Debug for EventSim<N> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("EventSim")
            .field("robots", &self.nodes.len())
            .field("now", &self.now)
            .field("queued_events", &self.queued_events())
            .field("pending_msgs", &self.deliveries.len())
            .field("started", &self.started)
            .finish_non_exhaustive()
    }
}

impl<N: Node> EventSim<N> {
    /// Creates an event simulator over `nodes` connected by `topology`,
    /// misbehaving per `plan`.
    ///
    /// # Errors
    ///
    /// [`SimError::TopologyMismatch`] when `nodes` and `topology`
    /// disagree on the robot count, or
    /// [`SimError::InvalidFaultPlan`] when the plan references robots
    /// outside the topology.
    pub fn new(
        nodes: Vec<N>,
        topology: ExplicitTopology,
        plan: FaultPlan,
    ) -> Result<Self, SimError> {
        if nodes.len() != topology.adjacency().len() {
            return Err(SimError::TopologyMismatch {
                nodes: nodes.len(),
                adjacency: topology.adjacency().len(),
            });
        }
        plan.validate(nodes.len())?;
        let n = nodes.len();
        let mut churn = plan.churn.clone();
        churn.sort_by_key(|ev| ev.round);
        let rng = FaultRng::new(plan.seed);
        Ok(EventSim {
            topology,
            nodes,
            crashed: vec![false; n],
            next_wake: vec![NO_WAKE; n],
            plan,
            rng,
            churn,
            churn_next: 0,
            wakes: Vec::new(),
            deliveries: Deliveries::new(n, 0),
            now: 0,
            seq: 0,
            started: false,
            stats: FaultStats::default(),
            tracer: Tracer::disabled(),
            accounting: None,
            outbox: Outbox::new(),
        })
    }

    /// Attaches a tracer: the engine then emits `msg_send` / `msg_drop`
    /// / `msg_deliver` and `robot_crash` / `robot_recover` events, plus
    /// an `event_pop` counter and a `heap_depth` histogram sample (all
    /// queued events) per executed round. Tracing is observation only —
    /// the run is bit-identical with or without it.
    #[must_use]
    pub fn with_tracer(mut self, tracer: &Tracer) -> Self {
        self.tracer = tracer.clone();
        self
    }

    /// Attaches CONGEST accounting: `bits_of` is the protocol's
    /// conservative per-payload size function (matching the static
    /// bound anr-lint rule M1 computes). Every offered message — drops
    /// and duplicate copies included — is measured, and per-round send
    /// counters are rolled at each round boundary. Like tracing, this
    /// is observation only: the run is bit-identical with or without
    /// it.
    #[must_use]
    pub fn with_accounting(mut self, bits_of: fn(&N::Msg) -> u32) -> Self {
        self.accounting = Some(Accounting {
            bits_of,
            peak_payload_bits: 0,
            peak_round_msgs: 0,
            cur_round_msgs: 0,
            total_msgs: 0,
        });
        self
    }

    /// The accounting observed so far, when
    /// [`with_accounting`](EventSim::with_accounting) was attached.
    /// `rounds` reflects the current simulated time.
    pub fn model_observation(&self) -> Option<ModelObservation> {
        self.accounting.as_ref().map(|acc| ModelObservation {
            peak_payload_bits: acc.peak_payload_bits,
            peak_round_msgs: acc.peak_round_msgs.max(acc.cur_round_msgs),
            total_msgs: acc.total_msgs,
            rounds: self.now,
        })
    }

    /// Read access to the nodes.
    #[inline]
    pub fn nodes(&self) -> &[N] {
        &self.nodes
    }

    /// Mutable access to the nodes.
    #[inline]
    pub fn nodes_mut(&mut self) -> &mut [N] {
        &mut self.nodes
    }

    /// Consumes the simulator, returning the nodes.
    pub fn into_nodes(self) -> Vec<N> {
        self.nodes
    }

    /// Is robot `i` currently crashed?
    pub fn is_crashed(&self, i: usize) -> bool {
        self.crashed[i]
    }

    /// Rounds completed so far.
    pub fn rounds(&self) -> usize {
        self.now as usize
    }

    /// Accounting so far.
    pub fn stats(&self) -> FaultStats {
        let mut stats = self.stats;
        stats.rounds = self.now as usize;
        stats
    }

    /// Are any deliveries queued for this or a future round?
    pub fn has_messages_in_flight(&self) -> bool {
        self.deliveries.len() > 0
    }

    /// Robots with deliveries queued towards them, sorted ascending —
    /// the payload of [`SimError::NotQuiescent`].
    pub fn pending_recipients(&self) -> Vec<usize> {
        let mut pending: Vec<usize> = self.deliveries.iter().map(|(_, ib)| ib.to).collect();
        pending.sort_unstable();
        pending.dedup();
        pending
    }

    /// Events queued: churn, wakeups and messages in flight.
    fn queued_events(&self) -> usize {
        self.churn.len() - self.churn_next + self.wakes.len() + self.deliveries.len()
    }

    /// Schedules a wakeup for `u` at round `due` unless one is already
    /// queued (wakeups are deduplicated per node; the invariant is one
    /// outstanding wakeup at most, due this round or the next).
    fn schedule_wake(&mut self, u: usize, due: u64) {
        if self.next_wake[u] == NO_WAKE {
            self.next_wake[u] = due;
            self.wakes.push(u);
        }
    }

    /// Offers one `from → to` send to the fault model with the given
    /// arrival base (`base + delay` is the delivery round). Random
    /// draws, in order: loss (when the link's loss is non-zero), then
    /// duplication (when enabled), then one delay per copy (when the
    /// delay is a non-trivial uniform range).
    fn offer(&mut self, from: usize, to: usize, msg: N::Msg, base: u64) {
        let p = self.plan.loss_on(from, to);
        if p > 0.0 && self.rng.unit() < p {
            // A lost message still crossed the link: it counts against
            // the CONGEST budget just like a delivered one.
            if let Some(acc) = &mut self.accounting {
                acc.record(&msg, 1);
            }
            self.stats.dropped_loss += 1;
            if self.tracer.is_enabled() {
                self.tracer.event(
                    "msg_drop",
                    &[
                        ("from", TraceValue::U64(from as u64)),
                        ("to", TraceValue::U64(to as u64)),
                        ("reason", TraceValue::Str("loss".to_string())),
                    ],
                );
            }
            return;
        }
        let copies = if self.plan.duplication > 0.0 && self.rng.unit() < self.plan.duplication {
            self.stats.duplicated += 1;
            2
        } else {
            1
        };
        if let Some(acc) = &mut self.accounting {
            acc.record(&msg, copies as u64);
        }
        for _ in 0..copies {
            let delay = match self.plan.delay {
                DelayModel::None => 0,
                DelayModel::Fixed(k) => k,
                DelayModel::Uniform { min, max } => {
                    if min == max {
                        min
                    } else {
                        self.rng.uniform_usize(min, max)
                    }
                }
            };
            if delay > 0 {
                self.stats.delayed += 1;
            }
            self.deliveries
                .push(base + delay as u64, self.seq, from, to, msg.clone());
            self.seq += 1;
            self.stats.sent += 1;
            if self.tracer.is_enabled() {
                self.tracer.event(
                    "msg_send",
                    &[
                        ("from", TraceValue::U64(from as u64)),
                        ("to", TraceValue::U64(to as u64)),
                        ("delay", TraceValue::U64(delay as u64)),
                    ],
                );
            }
        }
    }

    /// Runs `step` on robot `u` with the shared outbox buffer, then
    /// commits what it queued with arrival base `base`.
    fn step_node(
        &mut self,
        u: usize,
        base: u64,
        step: impl FnOnce(&mut N, &mut Outbox<N::Msg>),
    ) -> Result<(), SimError> {
        let mut out = std::mem::take(&mut self.outbox);
        step(&mut self.nodes[u], &mut out);
        let committed = self.commit_outbox(u, &mut out, base);
        self.outbox = out;
        committed
    }

    /// Commits a node's outbox: broadcasts expand over the neighbor row
    /// in order, unicast destinations are validated against the
    /// topology.
    fn commit_outbox(
        &mut self,
        from: usize,
        out: &mut Outbox<N::Msg>,
        base: u64,
    ) -> Result<(), SimError> {
        for (to, msg) in out.drain() {
            match to {
                None => {
                    let count = self.topology.neighbors(from).len();
                    for k in 0..count {
                        let nbr = self.topology.neighbors(from)[k];
                        self.offer(from, nbr, msg.clone(), base);
                    }
                }
                Some(to) => {
                    if !self.topology.has_link(from, to) {
                        return Err(SimError::NotANeighbor { from, to });
                    }
                    self.offer(from, to, msg, base);
                }
            }
        }
        Ok(())
    }

    /// Applies one churn event (idempotent): a recovery on a non-idle
    /// node re-arms its wakeup.
    fn apply_churn(&mut self, ord: usize, round: u64) {
        let ev = self.churn[ord];
        match ev.kind {
            ChurnKind::Crash => {
                if !self.crashed[ev.robot] {
                    self.crashed[ev.robot] = true;
                    self.stats.crashes += 1;
                    if self.tracer.is_enabled() {
                        self.tracer.event(
                            "robot_crash",
                            &[
                                ("round", TraceValue::U64(round)),
                                ("robot", TraceValue::U64(ev.robot as u64)),
                            ],
                        );
                    }
                }
            }
            ChurnKind::Recover => {
                if self.crashed[ev.robot] {
                    self.crashed[ev.robot] = false;
                    self.stats.recoveries += 1;
                    if self.tracer.is_enabled() {
                        self.tracer.event(
                            "robot_recover",
                            &[
                                ("round", TraceValue::U64(round)),
                                ("robot", TraceValue::U64(ev.robot as u64)),
                            ],
                        );
                    }
                    if !self.nodes[ev.robot].idle() {
                        self.schedule_wake(ev.robot, round);
                    }
                }
            }
        }
    }

    /// Applies the churn events due at round `t`; returns how many
    /// there were.
    fn apply_churn_due(&mut self, t: u64) -> u64 {
        let first = self.churn_next;
        while self.churn_next < self.churn.len() && self.churn[self.churn_next].round as u64 <= t {
            self.apply_churn(self.churn_next, t);
            self.churn_next += 1;
        }
        (self.churn_next - first) as u64
    }

    /// Runs `on_start` on every robot live at round 0 (idempotent).
    /// Robots crashed by a round-0 churn event never start.
    ///
    /// # Errors
    ///
    /// Send-validation errors ([`SimError::NotANeighbor`]).
    pub fn start(&mut self) -> Result<(), SimError> {
        if self.started {
            return Ok(());
        }
        self.started = true;
        // Round-0 churn precedes `on_start`.
        self.apply_churn_due(0);
        for i in 0..self.nodes.len() {
            if self.crashed[i] {
                continue;
            }
            self.step_node(i, 0, |node, out| node.on_start(out))?;
        }
        for i in 0..self.nodes.len() {
            if !self.crashed[i] && !self.nodes[i].idle() {
                self.schedule_wake(i, 0);
            }
        }
        // `on_start` sends form their own accounting "round".
        if let Some(acc) = &mut self.accounting {
            acc.roll_round();
        }
        Ok(())
    }

    /// Executes every event due at round `t` (which must be the
    /// earliest due round), then the `on_round` phase for woken robots
    /// in index order.
    fn execute_round(&mut self, t: u64) -> Result<(), SimError> {
        if self.tracer.is_enabled() {
            self.tracer
                .hist_record("heap_depth", self.queued_events() as f64);
        }
        let mut popped = self.apply_churn_due(t);
        let round = self.deliveries.take(t);
        let mut woken: Vec<usize> = Vec::new();
        for inbox in &round.inboxes {
            let count = inbox.envelopes.len();
            popped += count as u64;
            if self.crashed[inbox.to] {
                self.stats.dropped_crash += count;
            } else {
                self.stats.delivered += count;
                // A robot with a wakeup queued for `t` is woken by it;
                // otherwise the delivery wakes it (one event either
                // way). Outstanding wakeups are never due later than
                // the next round to execute.
                if self.next_wake[inbox.to] == NO_WAKE {
                    woken.push(inbox.to);
                    popped += 1;
                }
            }
        }
        for u in std::mem::take(&mut self.wakes) {
            debug_assert_eq!(self.next_wake[u], t, "wakeups are for the next round");
            self.next_wake[u] = NO_WAKE;
            popped += 1;
            if !self.crashed[u] {
                woken.push(u);
            }
        }
        if self.tracer.is_enabled() {
            self.trace_arrivals(&round, popped);
        }
        woken.sort_unstable();
        debug_assert!(woken.windows(2).all(|w| w[0] < w[1]));
        for u in woken {
            let inbox = round.inbox(u).map_or(&[][..], |ib| &ib.envelopes[..]);
            self.step_node(u, t + 1, |node, out| node.on_round(t as usize, inbox, out))?;
            if !self.nodes[u].idle() {
                self.schedule_wake(u, t + 1);
            }
        }
        self.deliveries.recycle(round);
        if let Some(acc) = &mut self.accounting {
            acc.roll_round();
        }
        self.now = t + 1;
        Ok(())
    }

    /// Emits a round's `event_pop` count, then one crash `msg_drop` and
    /// one `msg_deliver` event per recipient, in recipient order.
    fn trace_arrivals(&self, round: &DueRound<N::Msg>, popped: u64) {
        self.tracer.counter_add("event_pop", popped);
        let mut arrivals: Vec<(usize, u64)> = round
            .inboxes
            .iter()
            .map(|ib| (ib.to, ib.envelopes.len() as u64))
            .collect();
        arrivals.sort_unstable();
        for &(to, count) in arrivals.iter().filter(|(to, _)| self.crashed[*to]) {
            self.tracer.event(
                "msg_drop",
                &[
                    ("to", TraceValue::U64(to as u64)),
                    ("count", TraceValue::U64(count)),
                    ("reason", TraceValue::Str("crash".to_string())),
                ],
            );
        }
        for &(to, count) in arrivals.iter().filter(|(to, _)| !self.crashed[*to]) {
            self.tracer.event(
                "msg_deliver",
                &[
                    ("to", TraceValue::U64(to as u64)),
                    ("count", TraceValue::U64(count)),
                ],
            );
        }
    }

    /// Due round of the earliest queued event, if any.
    fn next_due(&self) -> Option<u64> {
        let churn = self.churn.get(self.churn_next).map(|ev| ev.round as u64);
        let wake = self.wakes.first().map(|&u| self.next_wake[u]);
        [churn, wake, self.deliveries.next_due()]
            .into_iter()
            .flatten()
            .min()
    }

    /// Advances exactly `k` rounds of simulated time. Rounds with no
    /// events complete in O(1); rounds with events execute them.
    ///
    /// # Errors
    ///
    /// Send-validation errors ([`SimError::NotANeighbor`]).
    pub fn run_rounds(&mut self, k: usize) -> Result<FaultStats, SimError> {
        self.start()?;
        let target = self.now + k as u64;
        while let Some(due) = self.next_due() {
            if due >= target {
                break;
            }
            self.execute_round(due)?;
        }
        self.now = target;
        Ok(self.stats())
    }

    /// Runs until no deliveries are queued.
    ///
    /// Suitable for protocols that are quiescent-by-messages (flooding,
    /// tokens). Protocols with retransmission timers should use
    /// [`run_until`](Self::run_until) instead: a timer waiting to fire
    /// holds no message in flight, so this method would stop early.
    ///
    /// # Errors
    ///
    /// [`SimError::NotQuiescent`] (with the pending recipients) when
    /// `max_rounds` is exceeded, plus any send-validation error.
    pub fn run_until_quiet(&mut self, max_rounds: usize) -> Result<FaultStats, SimError> {
        self.start()?;
        let horizon = self.now + max_rounds as u64;
        while self.has_messages_in_flight() {
            match self.next_due() {
                Some(due) if due < horizon => self.execute_round(due)?,
                _ => {
                    self.now = horizon;
                    return Err(SimError::NotQuiescent {
                        max_rounds,
                        pending: self.pending_recipients(),
                    });
                }
            }
        }
        Ok(self.stats())
    }

    /// Runs until `done(nodes)` is true, for at most `max_rounds`
    /// *total* rounds (an absolute round count, not a budget from now).
    ///
    /// # Errors
    ///
    /// [`SimError::NotQuiescent`] (with the pending recipients) when
    /// the round cap is reached before convergence, plus any
    /// send-validation error.
    pub fn run_until<F>(&mut self, max_rounds: usize, done: F) -> Result<FaultStats, SimError>
    where
        F: Fn(&[N]) -> bool,
    {
        self.start()?;
        let horizon = max_rounds as u64;
        loop {
            if done(&self.nodes) {
                return Ok(self.stats());
            }
            if self.now >= horizon {
                return Err(SimError::NotQuiescent {
                    max_rounds,
                    pending: self.pending_recipients(),
                });
            }
            match self.next_due() {
                Some(due) if due < horizon => self.execute_round(due)?,
                _ => {
                    // Nothing is due before the cap, so the remaining
                    // rounds would step no robot: jump to the cap.
                    self.now = horizon;
                    return Err(SimError::NotQuiescent {
                        max_rounds,
                        pending: self.pending_recipients(),
                    });
                }
            }
        }
    }
}
