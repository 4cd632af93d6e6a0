//! Loss-tolerant variants of the paper's distributed protocols.
//!
//! The protocols in [`crate::protocols`] assume the idealized
//! synchronous network of Sec. III: every message sent is delivered one
//! round later. This module wraps each of them in the standard
//! end-to-end machinery real swarms use — **per-link acknowledgements
//! with timeout retransmission**, plus an initiator-level **timeout
//! restart** for the boundary token — so they survive the lossy,
//! delaying, duplicating, churning networks modeled by
//! [`anr_distsim::FaultPlan`]:
//!
//! * [`RobustFloodNode`] — ack/retransmit value flooding; converges to
//!   the same per-robot sums as [`crate::protocols::run_flood_sum`] on the
//!   reliable network.
//! * [`RobustHopFieldNode`] — ack/retransmit multi-source BFS; converges
//!   to the same hop field as [`crate::protocols::run_hop_field`].
//! * [`RobustBoundaryLoopNode`] — the boundary-sizing token with per-hop
//!   acks and an initiator restart timer; converges to the same
//!   (index, loop size) labels as [`crate::protocols::run_boundary_loop`].
//!
//! All three are *idempotent at the receiver* (duplicates are re-acked
//! but change no state), which is what makes retransmission and
//! duplication safe.
//!
//! Because a pending retransmission holds no message in flight, these
//! protocols are **not** quiescent-by-messages: run them with
//! [`EventSim::run_until`](anr_distsim::EventSim::run_until) and their
//! `is_settled` predicates, not `run_until_quiet` — as the accounted
//! runners in `anr-eventsim` do. Each node's [`Node::idle`] certifies
//! dormancy (nothing to retransmit, no live restart timer), so the
//! engine steps only the robots with work to do.

use anr_distsim::snapshot::{Persist, PersistError, SnapshotReader, SnapshotWriter};
use anr_distsim::{Envelope, FaultStats, Node, Outbox};

/// Retransmission policy shared by the robust protocols.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RetransmitConfig {
    /// Rounds to wait for an ack before resending.
    pub interval: usize,
    /// Resends per message before giving up on that neighbor.
    pub max_retries: usize,
}

impl Default for RetransmitConfig {
    fn default() -> Self {
        RetransmitConfig {
            interval: 4,
            max_retries: 12,
        }
    }
}

/// One un-acknowledged send awaiting retransmission.
#[derive(Debug, Clone, PartialEq)]
struct PendingSend<M> {
    to: usize,
    msg: M,
    resend_at: usize,
    retries: usize,
}

/// Drives the shared retransmit loop: resends due entries, drops
/// entries that exhausted their retries.
fn tick_retransmits<M: Clone>(
    pending: &mut Vec<PendingSend<M>>,
    round: usize,
    cfg: &RetransmitConfig,
    out: &mut Outbox<M>,
) {
    pending.retain_mut(|entry| tick_entry(entry, round, cfg, out));
}

// ---------------------------------------------------------------------
// Ack/retransmit value flooding
// ---------------------------------------------------------------------

/// Message of the robust flooding protocol.
///
/// Wire fields are `u32`, not `usize`: robot IDs are bounded by the
/// robot count (n < 2^32 everywhere in this repo), and fixed-width
/// payloads are what keeps the protocol inside its CONGEST bit budget
/// (`lint.models.toml`, rule M1).
#[derive(Debug, Clone, PartialEq)]
pub enum RFloodMsg {
    /// A `(robot id, value)` record being disseminated.
    Data {
        /// Robot the record originates from.
        origin: u32,
        /// That robot's value.
        value: f64,
    },
    /// Acknowledges receipt of the record originating at `origin`.
    Ack {
        /// Origin of the acknowledged record.
        origin: u32,
    },
}

/// Loss-tolerant flooding ([`run_flood_sum`](crate::protocols::run_flood_sum)): every
/// record is sent per-neighbor and retransmitted until acknowledged (or
/// retries are exhausted).
///
/// Learning any new record postpones every pending resend to at least
/// `interval` rounds after the current one. That is protocol behaviour,
/// pinned by the golden digests. Each round walks the inbox once, then
/// the retransmit queue once: dropping acked entries, postponing and
/// retransmitting in one pass.
#[derive(Debug, Clone, PartialEq)]
pub struct RobustFloodNode {
    /// This node's ID.
    pub id: usize,
    /// All values learned so far, indexed by robot ID.
    pub known: Vec<Option<f64>>,
    cfg: RetransmitConfig,
    pending: Vec<PendingSend<RFloodMsg>>,
    neighbors: Vec<usize>,
    /// The round's acks as `(origin, from)`: empty between calls, so
    /// never persisted and never making two nodes unequal.
    acks: Vec<(u32, usize)>,
}

impl RobustFloodNode {
    /// Creates a participant for a network of `n` robots; `neighbors`
    /// are this node's topology neighbors (acks are per-link).
    pub fn new(
        id: usize,
        value: f64,
        n: usize,
        neighbors: Vec<usize>,
        cfg: RetransmitConfig,
    ) -> Self {
        let mut known = vec![None; n];
        known[id] = Some(value);
        RobustFloodNode {
            id,
            known,
            cfg,
            pending: Vec::new(),
            neighbors,
            acks: Vec::new(),
        }
    }

    /// Sum of all known values.
    pub fn sum(&self) -> f64 {
        self.known.iter().flatten().sum()
    }

    /// Does this node know every robot's value?
    pub fn is_complete(&self) -> bool {
        self.known.iter().all(Option::is_some)
    }

    /// No more retransmissions outstanding?
    pub fn is_settled(&self) -> bool {
        self.pending.is_empty()
    }

    fn queue_record(
        &mut self,
        origin: usize,
        value: f64,
        except: Option<usize>,
        out: &mut Outbox<RFloodMsg>,
    ) {
        for k in 0..self.neighbors.len() {
            let nbr = self.neighbors[k];
            if Some(nbr) == except {
                continue;
            }
            let msg = RFloodMsg::Data {
                origin: origin as u32,
                value,
            };
            out.send(nbr, msg.clone());
            self.pending.push(PendingSend {
                to: nbr,
                msg,
                resend_at: self.cfg.interval,
                retries: 0,
            });
        }
    }
}

impl Node for RobustFloodNode {
    type Msg = RFloodMsg;

    fn on_start(&mut self, out: &mut Outbox<RFloodMsg>) {
        // The constructor seeds `known[id]`; a node somehow without an
        // own value has nothing to flood.
        let Some(value) = self.known[self.id] else {
            return;
        };
        let origin = self.id;
        self.queue_record(origin, value, None, out);
    }

    fn on_round(
        &mut self,
        round: usize,
        inbox: &[Envelope<RFloodMsg>],
        out: &mut Outbox<RFloodMsg>,
    ) {
        // Set when this round learns a record. Learning any record
        // postpones every pending resend; `pass_queue` applies that once
        // for the whole round.
        let mut learned = false;
        for env in inbox {
            match env.msg {
                RFloodMsg::Data { origin, value } => {
                    // Always ack — duplicates mean a lost ack.
                    out.send(env.from, RFloodMsg::Ack { origin });
                    let origin = origin as usize;
                    if self.known[origin].is_none() {
                        self.known[origin] = Some(value);
                        self.queue_record(origin, value, Some(env.from), out);
                        learned = true;
                    }
                }
                RFloodMsg::Ack { origin } => {
                    // Noted here; `pass_queue` drops the entries it acks.
                    self.acks.push((origin, env.from));
                }
            }
        }
        // One walk of the queue drops the acked entries, applies the
        // postponement and retransmits what is due. Its retransmits must
        // follow every ack and record sent above: the engine numbers the
        // sends and draws their fault randomness in outbox order.
        self.pass_queue(round, learned, out);
    }

    /// With no pending retransmissions, a round with an empty inbox
    /// changes no state and sends nothing.
    fn idle(&self) -> bool {
        self.pending.is_empty()
    }
}

/// Outcome of a robust protocol run.
#[derive(Debug, Clone, PartialEq)]
pub struct RobustRunOutcome<T> {
    /// The per-robot protocol results.
    pub results: T,
    /// Fault-harness accounting (rounds, messages, drops, churn).
    pub stats: FaultStats,
}

// ---------------------------------------------------------------------
// Ack/retransmit multi-source hop field
// ---------------------------------------------------------------------

/// Message of the robust hop-field protocol.
///
/// Hop distances ride the wire as `u32` (bounded by the robot count,
/// n < 2^32) so the payload has a provable fixed width — see
/// `lint.models.toml`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RHopMsg {
    /// "Your distance to a source is at most this."
    Dist(u32),
    /// Acknowledges a [`RHopMsg::Dist`] carrying this value.
    DistAck(u32),
}

/// Loss-tolerant hop field ([`run_hop_field`](crate::protocols::run_hop_field)):
/// distance improvements are sent per-neighbor with ack/retransmit.
#[derive(Debug, Clone, PartialEq)]
pub struct RobustHopFieldNode {
    /// Whether this node is a source (hop 0).
    pub is_source: bool,
    /// Learned hop distance to the nearest source.
    pub hops: Option<usize>,
    cfg: RetransmitConfig,
    pending: Vec<PendingSend<RHopMsg>>,
    neighbors: Vec<usize>,
}

impl RobustHopFieldNode {
    /// Creates a participant with the given topology neighbors.
    pub fn new(is_source: bool, neighbors: Vec<usize>, cfg: RetransmitConfig) -> Self {
        RobustHopFieldNode {
            is_source,
            hops: None,
            cfg,
            pending: Vec::new(),
            neighbors,
        }
    }

    /// No more retransmissions outstanding?
    pub fn is_settled(&self) -> bool {
        self.pending.is_empty()
    }

    fn propagate(&mut self, base_round: usize, except: Option<usize>, out: &mut Outbox<RHopMsg>) {
        // Callers set `hops` before propagating; with no distance yet
        // there is nothing to announce.
        let Some(hops) = self.hops else {
            return;
        };
        let d = (hops + 1) as u32;
        for k in 0..self.neighbors.len() {
            let nbr = self.neighbors[k];
            if Some(nbr) == except {
                continue;
            }
            // Replace any stale pending towards this neighbor: only the
            // newest (smallest) distance matters.
            self.pending.retain(|e| e.to != nbr);
            out.send(nbr, RHopMsg::Dist(d));
            self.pending.push(PendingSend {
                to: nbr,
                msg: RHopMsg::Dist(d),
                resend_at: base_round + self.cfg.interval,
                retries: 0,
            });
        }
    }
}

impl Node for RobustHopFieldNode {
    type Msg = RHopMsg;

    fn on_start(&mut self, out: &mut Outbox<RHopMsg>) {
        if self.is_source {
            self.hops = Some(0);
            self.propagate(0, None, out);
        }
    }

    fn on_round(&mut self, round: usize, inbox: &[Envelope<RHopMsg>], out: &mut Outbox<RHopMsg>) {
        for env in inbox {
            match env.msg {
                RHopMsg::Dist(d) => {
                    out.send(env.from, RHopMsg::DistAck(d));
                    if self.hops.is_none_or(|h| (d as usize) < h) {
                        self.hops = Some(d as usize);
                        self.propagate(round, Some(env.from), out);
                    }
                }
                RHopMsg::DistAck(d) => {
                    self.pending
                        .retain(|e| !(e.to == env.from && e.msg == RHopMsg::Dist(d)));
                }
            }
        }
        tick_retransmits(&mut self.pending, round, &self.cfg, out);
    }

    /// With no pending retransmissions, a round with an empty inbox
    /// changes no state and sends nothing.
    fn idle(&self) -> bool {
        self.pending.is_empty()
    }
}

// ---------------------------------------------------------------------
// Boundary token with per-hop acks and initiator restart
// ---------------------------------------------------------------------

/// Message of the robust boundary-loop protocol.
///
/// Wire fields are `u32`: vertex IDs, hop counts, and restart attempts
/// are all bounded by the robot count (n < 2^32) or the restart cap, so
/// fixed-width payloads keep the protocol inside its CONGEST bit budget
/// (`lint.models.toml`, rule M1).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RLoopMsg {
    /// Hop-counting token: (initiator, hops so far, launch attempt).
    Token {
        /// Initiating boundary vertex.
        initiator: u32,
        /// Hops travelled when this message was sent.
        hops: u32,
        /// Restart attempt this token belongs to.
        attempt: u32,
    },
    /// Per-hop ack of a token with this (hops, attempt).
    TokenAck {
        /// Acknowledged hop count.
        hops: u32,
        /// Acknowledged attempt.
        attempt: u32,
    },
    /// Loop-size announcement travelling the loop once more.
    Size {
        /// The loop length.
        size: u32,
        /// Attempt the size flood belongs to.
        attempt: u32,
    },
    /// Per-hop ack of a size announcement.
    SizeAck {
        /// Acknowledged attempt.
        attempt: u32,
    },
}

/// Loss-tolerant boundary token ([`run_boundary_loop`](crate::protocols::run_boundary_loop)):
/// the hop-counting token is acknowledged hop-by-hop and retransmitted;
/// the initiator additionally restarts the whole token (with a fresh
/// attempt number) if it does not return within `restart_after` rounds
/// — the backstop for a token that died when a hop exhausted its
/// retries or a robot crashed mid-loop.
#[derive(Debug, Clone, PartialEq)]
pub struct RobustBoundaryLoopNode {
    /// This node's ID (simulator index).
    pub id: usize,
    /// Whether this node launches the token.
    pub is_initiator: bool,
    /// Successor on the boundary loop.
    pub next: usize,
    /// Learned position along the loop (initiator = 0).
    pub index: Option<usize>,
    /// Learned loop size.
    pub loop_size: Option<usize>,
    cfg: RetransmitConfig,
    /// Rounds the initiator waits for its token before restarting.
    restart_after: usize,
    /// Restart attempts the initiator may make.
    max_attempts: usize,
    attempt: usize,
    /// Attempt for which this node already forwarded the token.
    token_done_attempt: Option<usize>,
    /// Attempt for which this node already forwarded the size.
    size_done_attempt: Option<usize>,
    /// True on the initiator once its own token returned.
    token_returned: bool,
    /// True on the initiator once the size announcement returned.
    size_returned: bool,
    launched_at: usize,
    pending: Vec<PendingSend<RLoopMsg>>,
}

impl RobustBoundaryLoopNode {
    /// Creates a participant.
    ///
    /// `restart_after` is the initiator's token timeout in rounds (a
    /// generous bound is `(loop length + 2) × (interval + 1)`);
    /// `max_attempts` bounds restarts.
    pub fn new(
        id: usize,
        is_initiator: bool,
        next: usize,
        cfg: RetransmitConfig,
        restart_after: usize,
        max_attempts: usize,
    ) -> Self {
        RobustBoundaryLoopNode {
            id,
            is_initiator,
            next,
            index: None,
            loop_size: None,
            cfg,
            restart_after,
            max_attempts,
            attempt: 0,
            token_done_attempt: None,
            size_done_attempt: None,
            token_returned: false,
            size_returned: false,
            launched_at: 0,
            pending: Vec::new(),
        }
    }

    /// Has this node learned everything and stopped transmitting?
    pub fn is_settled(&self) -> bool {
        self.index.is_some() && self.loop_size.is_some() && self.pending.is_empty()
    }

    fn send_tracked(
        &mut self,
        to: usize,
        msg: RLoopMsg,
        base_round: usize,
        out: &mut Outbox<RLoopMsg>,
    ) {
        out.send(to, msg);
        self.pending.push(PendingSend {
            to,
            msg,
            resend_at: base_round + self.cfg.interval,
            retries: 0,
        });
    }

    fn launch_token(&mut self, round: usize, out: &mut Outbox<RLoopMsg>) {
        self.launched_at = round;
        // Drop any stale token pending from the previous attempt.
        let next = self.next;
        self.pending
            .retain(|e| !matches!(e.msg, RLoopMsg::Token { .. }) || e.to != next);
        self.send_tracked(
            self.next,
            RLoopMsg::Token {
                initiator: self.id as u32,
                hops: 1,
                attempt: self.attempt as u32,
            },
            round,
            out,
        );
    }
}

impl Node for RobustBoundaryLoopNode {
    type Msg = RLoopMsg;

    fn on_start(&mut self, out: &mut Outbox<RLoopMsg>) {
        if self.is_initiator {
            self.index = Some(0);
            self.launch_token(0, out);
        }
    }

    fn on_round(&mut self, round: usize, inbox: &[Envelope<RLoopMsg>], out: &mut Outbox<RLoopMsg>) {
        for env in inbox {
            match env.msg {
                RLoopMsg::Token {
                    initiator,
                    hops,
                    attempt,
                } => {
                    // Ack every token copy — a duplicate means the ack
                    // was lost or the predecessor retransmitted.
                    out.send(env.from, RLoopMsg::TokenAck { hops, attempt });
                    if initiator as usize == self.id {
                        // Our token came home: the loop has `hops` nodes.
                        if attempt as usize == self.attempt && !self.token_returned {
                            self.token_returned = true;
                            self.loop_size = Some(hops as usize);
                            self.size_done_attempt = Some(attempt as usize);
                            self.send_tracked(
                                self.next,
                                RLoopMsg::Size {
                                    size: hops,
                                    attempt,
                                },
                                round,
                                out,
                            );
                        }
                    } else if self
                        .token_done_attempt
                        .is_none_or(|done| attempt as usize > done)
                    {
                        self.attempt = attempt as usize;
                        self.token_done_attempt = Some(attempt as usize);
                        self.index = Some(hops as usize);
                        self.send_tracked(
                            self.next,
                            RLoopMsg::Token {
                                initiator,
                                hops: hops + 1,
                                attempt,
                            },
                            round,
                            out,
                        );
                    }
                }
                RLoopMsg::TokenAck { hops, attempt } => {
                    self.pending.retain(|e| {
                        !(e.to == env.from
                            && matches!(
                                e.msg,
                                RLoopMsg::Token { hops: h, attempt: a, .. }
                                    if h == hops && a == attempt
                            ))
                    });
                }
                RLoopMsg::Size { size, attempt } => {
                    out.send(env.from, RLoopMsg::SizeAck { attempt });
                    if self.is_initiator {
                        // The announcement survived the whole loop.
                        self.size_returned = true;
                        self.pending
                            .retain(|e| !matches!(e.msg, RLoopMsg::Size { .. }));
                    } else {
                        self.loop_size = Some(size as usize);
                        // Forward (again, if need be): a re-flooded size
                        // must pass through nodes that already know it.
                        if self
                            .size_done_attempt
                            .is_none_or(|done| attempt as usize > done)
                            || !self
                                .pending
                                .iter()
                                .any(|e| matches!(e.msg, RLoopMsg::Size { .. }))
                        {
                            self.size_done_attempt = Some(attempt as usize);
                            self.pending
                                .retain(|e| !matches!(e.msg, RLoopMsg::Size { .. }));
                            self.send_tracked(
                                self.next,
                                RLoopMsg::Size { size, attempt },
                                round,
                                out,
                            );
                        }
                    }
                }
                RLoopMsg::SizeAck { attempt } => {
                    self.pending.retain(|e| {
                        !(e.to == env.from
                            && matches!(e.msg, RLoopMsg::Size { attempt: a, .. } if a == attempt))
                    });
                }
            }
        }
        // Initiator restart timer: the token vanished somewhere.
        if self.is_initiator
            && !self.token_returned
            && round >= self.launched_at + self.restart_after
            && self.attempt + 1 < self.max_attempts
        {
            self.attempt += 1;
            self.launch_token(round, out);
        }
        tick_retransmits(&mut self.pending, round, &self.cfg, out);
    }

    /// Beyond an empty retransmit queue, the initiator is only idle
    /// once its restart timer can never fire again: the token came
    /// home, or every restart attempt has been spent.
    fn idle(&self) -> bool {
        self.pending.is_empty()
            && (!self.is_initiator || self.token_returned || self.attempt + 1 >= self.max_attempts)
    }
}

// ---------------------------------------------------------------------
// Retransmit-queue walks
// ---------------------------------------------------------------------

/// Resends `entry` if it is due; returns `false` once it has exhausted
/// its retries and must be dropped.
fn tick_entry<M: Clone>(
    entry: &mut PendingSend<M>,
    round: usize,
    cfg: &RetransmitConfig,
    out: &mut Outbox<M>,
) -> bool {
    if round >= entry.resend_at {
        if entry.retries >= cfg.max_retries {
            return false; // give up on this neighbor
        }
        entry.retries += 1;
        entry.resend_at = round + cfg.interval;
        out.send(entry.to, entry.msg.clone());
    }
    true
}

impl RobustFloodNode {
    /// The queue half of `on_round`, after the inbox loop has sent its
    /// acks and records: one walk of the queue drops the entries acked
    /// in `self.acks`, postpones every entry when a record was `learned`
    /// and runs the retransmit tick. It leaves the same queue and makes
    /// the same sends as a removal per ack and a postponement per learned
    /// record inside the inbox loop, then [`tick_retransmits`], for the
    /// three reasons numbered below.
    fn pass_queue(&mut self, round: usize, learned: bool, out: &mut Outbox<RFloodMsg>) {
        self.acks.sort_unstable();
        let acks = &self.acks[..];
        let cfg = self.cfg;
        // The last origin looked up and its acks. One `queue_record` call
        // queues all of an origin's entries, so they sit together in the
        // queue and each origin is searched for about once.
        let mut origin_acks: Option<(u32, &[(u32, usize)])> = None;
        self.pending.retain_mut(|entry| {
            // 1. An ack from `j` for origin `o` can only match an entry
            //    queued in an earlier call: the entry is queued in the
            //    call that first sends Data `o` to `j`, and `j`'s ack
            //    needs at least one more round to come back. So dropping
            //    the round's acked entries here drops the entries the
            //    per-ack removals dropped, and the survivors keep their
            //    order.
            if let RFloodMsg::Data { origin, .. } = entry.msg {
                let group = match origin_acks {
                    Some((o, group)) if o == origin => group,
                    _ => {
                        let lo = acks.partition_point(|a| a.0 < origin);
                        let hi = lo + acks[lo..].partition_point(|a| a.0 == origin);
                        origin_acks = Some((origin, &acks[lo..hi]));
                        &acks[lo..hi]
                    }
                };
                if group.iter().any(|&(_, from)| from == entry.to) {
                    return false;
                }
            }
            // 2. One postponement per call leaves the same queue as one
            //    per learned record: each raises every queued entry to at
            //    least `round + interval`, and every entry queued in this
            //    call (stamped `interval`, as if sent at round 0) is
            //    followed by one.
            if learned {
                entry.resend_at = entry.resend_at.max(round + cfg.interval);
            }
            // 3. The tick ran last, in queue order. Fused into this pass
            //    its retransmits still follow the inbox's sends, so the
            //    engine assigns the same sequence numbers and draws the
            //    same fault randomness.
            tick_entry(entry, round, &cfg, out)
        });
        self.acks.clear();
    }
}

// ---------------------------------------------------------------------
// Checkpoint support: byte-stable Persist impls
// ---------------------------------------------------------------------
//
// The discrete-event engine snapshots node state mid-run. The robust
// nodes keep their retransmit queues private, so the codecs live here.
// Encodings follow the snapshot module's rules: fields in declaration
// order, enum tags in declaration order.

impl Persist for RetransmitConfig {
    fn persist(&self, w: &mut SnapshotWriter) {
        self.interval.persist(w);
        self.max_retries.persist(w);
    }
    fn restore(r: &mut SnapshotReader<'_>) -> Result<Self, PersistError> {
        Ok(RetransmitConfig {
            interval: usize::restore(r)?,
            max_retries: usize::restore(r)?,
        })
    }
}

impl<M: Persist> Persist for PendingSend<M> {
    fn persist(&self, w: &mut SnapshotWriter) {
        self.to.persist(w);
        self.msg.persist(w);
        self.resend_at.persist(w);
        self.retries.persist(w);
    }
    fn restore(r: &mut SnapshotReader<'_>) -> Result<Self, PersistError> {
        Ok(PendingSend {
            to: usize::restore(r)?,
            msg: M::restore(r)?,
            resend_at: usize::restore(r)?,
            retries: usize::restore(r)?,
        })
    }
}

impl Persist for RFloodMsg {
    fn persist(&self, w: &mut SnapshotWriter) {
        match *self {
            RFloodMsg::Data { origin, value } => {
                w.put_u8(0);
                origin.persist(w);
                value.persist(w);
            }
            RFloodMsg::Ack { origin } => {
                w.put_u8(1);
                origin.persist(w);
            }
        }
    }
    fn restore(r: &mut SnapshotReader<'_>) -> Result<Self, PersistError> {
        match r.get_u8()? {
            0 => Ok(RFloodMsg::Data {
                origin: u32::restore(r)?,
                value: f64::restore(r)?,
            }),
            1 => Ok(RFloodMsg::Ack {
                origin: u32::restore(r)?,
            }),
            tag => Err(PersistError::BadTag {
                tag,
                context: "RFloodMsg",
            }),
        }
    }
}

impl Persist for RHopMsg {
    fn persist(&self, w: &mut SnapshotWriter) {
        match *self {
            RHopMsg::Dist(d) => {
                w.put_u8(0);
                d.persist(w);
            }
            RHopMsg::DistAck(d) => {
                w.put_u8(1);
                d.persist(w);
            }
        }
    }
    fn restore(r: &mut SnapshotReader<'_>) -> Result<Self, PersistError> {
        match r.get_u8()? {
            0 => Ok(RHopMsg::Dist(u32::restore(r)?)),
            1 => Ok(RHopMsg::DistAck(u32::restore(r)?)),
            tag => Err(PersistError::BadTag {
                tag,
                context: "RHopMsg",
            }),
        }
    }
}

impl Persist for RLoopMsg {
    fn persist(&self, w: &mut SnapshotWriter) {
        match *self {
            RLoopMsg::Token {
                initiator,
                hops,
                attempt,
            } => {
                w.put_u8(0);
                initiator.persist(w);
                hops.persist(w);
                attempt.persist(w);
            }
            RLoopMsg::TokenAck { hops, attempt } => {
                w.put_u8(1);
                hops.persist(w);
                attempt.persist(w);
            }
            RLoopMsg::Size { size, attempt } => {
                w.put_u8(2);
                size.persist(w);
                attempt.persist(w);
            }
            RLoopMsg::SizeAck { attempt } => {
                w.put_u8(3);
                attempt.persist(w);
            }
        }
    }
    fn restore(r: &mut SnapshotReader<'_>) -> Result<Self, PersistError> {
        match r.get_u8()? {
            0 => Ok(RLoopMsg::Token {
                initiator: u32::restore(r)?,
                hops: u32::restore(r)?,
                attempt: u32::restore(r)?,
            }),
            1 => Ok(RLoopMsg::TokenAck {
                hops: u32::restore(r)?,
                attempt: u32::restore(r)?,
            }),
            2 => Ok(RLoopMsg::Size {
                size: u32::restore(r)?,
                attempt: u32::restore(r)?,
            }),
            3 => Ok(RLoopMsg::SizeAck {
                attempt: u32::restore(r)?,
            }),
            tag => Err(PersistError::BadTag {
                tag,
                context: "RLoopMsg",
            }),
        }
    }
}

impl Persist for RobustFloodNode {
    fn persist(&self, w: &mut SnapshotWriter) {
        self.id.persist(w);
        self.known.persist(w);
        self.cfg.persist(w);
        self.pending.persist(w);
        self.neighbors.persist(w);
    }
    fn restore(r: &mut SnapshotReader<'_>) -> Result<Self, PersistError> {
        Ok(RobustFloodNode {
            id: usize::restore(r)?,
            known: Vec::restore(r)?,
            cfg: RetransmitConfig::restore(r)?,
            pending: Vec::restore(r)?,
            neighbors: Vec::restore(r)?,
            acks: Vec::new(),
        })
    }
}

impl Persist for RobustHopFieldNode {
    fn persist(&self, w: &mut SnapshotWriter) {
        self.is_source.persist(w);
        self.hops.persist(w);
        self.cfg.persist(w);
        self.pending.persist(w);
        self.neighbors.persist(w);
    }
    fn restore(r: &mut SnapshotReader<'_>) -> Result<Self, PersistError> {
        Ok(RobustHopFieldNode {
            is_source: bool::restore(r)?,
            hops: Option::restore(r)?,
            cfg: RetransmitConfig::restore(r)?,
            pending: Vec::restore(r)?,
            neighbors: Vec::restore(r)?,
        })
    }
}

impl Persist for RobustBoundaryLoopNode {
    fn persist(&self, w: &mut SnapshotWriter) {
        self.id.persist(w);
        self.is_initiator.persist(w);
        self.next.persist(w);
        self.index.persist(w);
        self.loop_size.persist(w);
        self.cfg.persist(w);
        self.restart_after.persist(w);
        self.max_attempts.persist(w);
        self.attempt.persist(w);
        self.token_done_attempt.persist(w);
        self.size_done_attempt.persist(w);
        self.token_returned.persist(w);
        self.size_returned.persist(w);
        self.launched_at.persist(w);
        self.pending.persist(w);
    }
    fn restore(r: &mut SnapshotReader<'_>) -> Result<Self, PersistError> {
        Ok(RobustBoundaryLoopNode {
            id: usize::restore(r)?,
            is_initiator: bool::restore(r)?,
            next: usize::restore(r)?,
            index: Option::restore(r)?,
            loop_size: Option::restore(r)?,
            cfg: RetransmitConfig::restore(r)?,
            restart_after: usize::restore(r)?,
            max_attempts: usize::restore(r)?,
            attempt: usize::restore(r)?,
            token_done_attempt: Option::restore(r)?,
            size_done_attempt: Option::restore(r)?,
            token_returned: bool::restore(r)?,
            size_returned: bool::restore(r)?,
            launched_at: usize::restore(r)?,
            pending: Vec::restore(r)?,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::UnitDiskGraph;
    use anr_distsim::{DelayModel, EventSim, ExplicitTopology, FaultPlan};
    use anr_geom::Point;
    use rand::rngs::StdRng;
    use rand::{Rng, RngCore, SeedableRng};

    fn grid_graph(cols: usize, rows: usize) -> UnitDiskGraph {
        let pts: Vec<Point> = (0..cols * rows)
            .map(|i| Point::new((i % cols) as f64 * 60.0, (i / cols) as f64 * 60.0))
            .collect();
        UnitDiskGraph::new(&pts, 80.0)
    }

    #[test]
    fn node_persist_round_trips_mid_run() {
        // Freeze a flooding run mid-protocol and check the codec
        // reproduces the exact in-flight node state (retransmit queues
        // included).
        let g = grid_graph(3, 3);
        let values: Vec<f64> = (0..9).map(|i| i as f64).collect();
        let nodes: Vec<RobustFloodNode> = values
            .iter()
            .enumerate()
            .map(|(i, &v)| {
                RobustFloodNode::new(
                    i,
                    v,
                    9,
                    g.adjacency()[i].clone(),
                    RetransmitConfig::default(),
                )
            })
            .collect();
        let topology = ExplicitTopology::new(g.adjacency().to_vec()).unwrap();
        let mut sim = EventSim::new(nodes, topology, FaultPlan::reliable(0)).unwrap();
        sim.run_rounds(1).unwrap();
        for node in sim.nodes() {
            let mut w = SnapshotWriter::new();
            node.persist(&mut w);
            let bytes = w.into_bytes();
            let mut r = SnapshotReader::new(&bytes);
            let back = RobustFloodNode::restore(&mut r).unwrap();
            assert_eq!(&back, node);
            assert_eq!(r.remaining(), 0);
        }
        // Boundary-loop node with a live retransmit queue.
        let mut bl = RobustBoundaryLoopNode::new(0, true, 1, RetransmitConfig::default(), 30, 4);
        let mut out = Outbox::default();
        bl.on_start(&mut out);
        let mut w = SnapshotWriter::new();
        bl.persist(&mut w);
        let bytes = w.into_bytes();
        let mut r = SnapshotReader::new(&bytes);
        assert_eq!(RobustBoundaryLoopNode::restore(&mut r).unwrap(), bl);
    }

    #[test]
    fn idle_predicates_match_settledness() {
        // A fresh non-initiator loop node is idle (nothing pending, no
        // timer); a fresh initiator is not (its restart timer is armed
        // after launch).
        let cfg = RetransmitConfig::default();
        let follower = RobustBoundaryLoopNode::new(1, false, 2, cfg, 30, 4);
        assert!(follower.idle());
        let mut initiator = RobustBoundaryLoopNode::new(0, true, 1, cfg, 30, 4);
        let mut out = Outbox::default();
        initiator.on_start(&mut out);
        assert!(!initiator.idle());
        // Flood/hop nodes: idle exactly when the retransmit queue is
        // empty.
        let flood = RobustFloodNode::new(0, 1.0, 3, vec![1], cfg);
        assert!(!flood.is_settled() || flood.idle());
        let hop = RobustHopFieldNode::new(false, vec![1], cfg);
        assert!(hop.idle());
    }

    /// `RobustFloodNode::on_round` as it was before the one-pass queue:
    /// inside the inbox loop, a removal per ack and a postponement per
    /// learned record, then `tick_retransmits`. It also counts the calls
    /// the one pass has to get right.
    #[derive(Debug, Clone)]
    struct ReferenceFloodNode {
        inner: RobustFloodNode,
        /// Calls whose inbox both learned a record and held an ack that
        /// dropped an entry.
        ack_and_learned: usize,
        /// Entries dropped because they ran out of retries.
        give_ups: usize,
    }

    impl Node for ReferenceFloodNode {
        type Msg = RFloodMsg;

        fn on_start(&mut self, out: &mut Outbox<RFloodMsg>) {
            self.inner.on_start(out);
        }

        fn on_round(
            &mut self,
            round: usize,
            inbox: &[Envelope<RFloodMsg>],
            out: &mut Outbox<RFloodMsg>,
        ) {
            let node = &mut self.inner;
            let (mut learned, mut acked) = (false, false);
            for env in inbox {
                match env.msg {
                    RFloodMsg::Data { origin, value } => {
                        out.send(env.from, RFloodMsg::Ack { origin });
                        let origin = origin as usize;
                        if node.known[origin].is_none() {
                            node.known[origin] = Some(value);
                            node.queue_record(origin, value, Some(env.from), out);
                            for entry in &mut node.pending {
                                if entry.resend_at < round + node.cfg.interval {
                                    entry.resend_at = round + node.cfg.interval;
                                }
                            }
                            learned = true;
                        }
                    }
                    RFloodMsg::Ack { origin } => {
                        let before = node.pending.len();
                        node.pending.retain(|e| {
                            !(e.to == env.from
                                && matches!(e.msg, RFloodMsg::Data { origin: o, .. } if o == origin))
                        });
                        acked |= node.pending.len() < before;
                    }
                }
            }
            self.ack_and_learned += usize::from(learned && acked);
            let before = node.pending.len();
            tick_retransmits(&mut node.pending, round, &node.cfg, out);
            self.give_ups += before - node.pending.len();
        }

        fn idle(&self) -> bool {
            self.inner.idle()
        }
    }

    impl Persist for ReferenceFloodNode {
        fn persist(&self, w: &mut SnapshotWriter) {
            self.inner.persist(w);
        }
        fn restore(r: &mut SnapshotReader<'_>) -> Result<Self, PersistError> {
            Ok(ReferenceFloodNode {
                inner: RobustFloodNode::restore(r)?,
                ack_and_learned: 0,
                give_ups: 0,
            })
        }
    }

    /// `n` robots scattered uniformly until their unit-disk graph (range
    /// 80) is connected.
    fn random_connected_graph(rng: &mut StdRng, n: usize) -> UnitDiskGraph {
        let side = 40.0 * (n as f64).sqrt();
        loop {
            let pts: Vec<Point> = (0..n)
                .map(|_| Point::new(rng.gen_range(0.0..side), rng.gen_range(0.0..side)))
                .collect();
            let g = UnitDiskGraph::new(&pts, 80.0);
            if g.is_connected() {
                return g;
            }
        }
    }

    #[test]
    fn one_pass_queue_matches_the_per_ack_reference() {
        let mut rng = StdRng::seed_from_u64(24);
        let (mut ack_and_learned, mut give_ups) = (0, 0);
        for case in 0..40 {
            let n = rng.gen_range(8..=40);
            let g = random_connected_graph(&mut rng, n);
            let cfg = RetransmitConfig {
                interval: rng.gen_range(0..=4),
                max_retries: rng.gen_range(0..=6),
            };
            let mut plan = FaultPlan::reliable(rng.next_u64())
                .with_loss(rng.gen_range(0.0..0.3))
                .with_delay(DelayModel::Uniform {
                    min: 0,
                    max: rng.gen_range(0..=3),
                })
                .with_duplication(rng.gen_range(0.0..0.2));
            for _ in 0..rng.gen_range(0..=3) {
                let (robot, down) = (rng.gen_range(0..n), rng.gen_range(0..20));
                plan = plan
                    .with_crash(down, robot)
                    .with_recovery(down + rng.gen_range(1..30), robot);
            }
            let nodes: Vec<RobustFloodNode> = (0..n)
                .map(|i| RobustFloodNode::new(i, i as f64, n, g.adjacency()[i].clone(), cfg))
                .collect();
            let reference: Vec<ReferenceFloodNode> = nodes
                .iter()
                .map(|node| ReferenceFloodNode {
                    inner: node.clone(),
                    ack_and_learned: 0,
                    give_ups: 0,
                })
                .collect();
            let topology = ExplicitTopology::new(g.adjacency().to_vec()).unwrap();
            let mut one_pass = EventSim::new(nodes, topology.clone(), plan.clone()).unwrap();
            let mut per_ack = EventSim::new(reference, topology, plan).unwrap();
            for round in 0..400 {
                one_pass.run_rounds(1).unwrap();
                per_ack.run_rounds(1).unwrap();
                assert!(
                    one_pass.save() == per_ack.save(),
                    "case {case}: states differ after round {round}"
                );
                if !per_ack.has_messages_in_flight() && per_ack.nodes().iter().all(Node::idle) {
                    break;
                }
            }
            for node in per_ack.nodes() {
                ack_and_learned += node.ack_and_learned;
                give_ups += node.give_ups;
            }
        }
        // The runs reach both cases where the one pass acts in another
        // order than the reference: an ack that drops an entry in the same
        // inbox as a newly learned record, and an entry that runs out of
        // retries.
        assert!(
            ack_and_learned > 0 && give_ups > 0,
            "ack and learned record in one inbox: {ack_and_learned}, give-ups: {give_ups}"
        );
    }
}
