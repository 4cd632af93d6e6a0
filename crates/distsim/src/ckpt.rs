//! Versioned, byte-stable checkpoint/restore for [`EventSim`].
//!
//! A snapshot captures the complete dynamic state of a run at a round
//! boundary — queued events, node state, crash flags, wakeup slots, the
//! fault RNG stream, and accounting — under the format tag
//! [`CKPT_MAGIC`] (`anr-eventsim-ckpt/2`). The topology is **not**
//! embedded: it is a pure function of the deployment, so the caller
//! supplies it again on restore (and a robot-count mismatch is a typed
//! error).
//!
//! Guarantees, pinned by `crates/eventsim/tests/checkpoint.rs`:
//!
//! * **Resumability** — `run(t1); save; restore; run(t2)` reaches a
//!   state byte-identical to `run(t1 + t2)` uninterrupted, under any
//!   fault plan.
//! * **Canonical bytes** — queued events are serialized in key order
//!   (keys are unique, so the order is total); equal states produce
//!   identical snapshots, so snapshots can themselves be compared.
//! * **No panics** — corrupted, truncated, alien or internally
//!   inconsistent input surfaces as a [`CkptError`].
//!
//! ## Layout
//!
//! ```text
//! "anr-eventsim-ckpt/2\n"            ASCII magic line
//! body                                little-endian, via crate::snapshot
//!   now, seq, started
//!   rng state, fault plan
//!   crashed flags
//!   wakeup slots (sparse, ascending node index)
//!   stats (sent, delivered, drops, duplicates, delays, churn counts)
//!   queued events, sorted by (due, class, ord)
//!   nodes
//! checksum                            FNV-1a 64 over everything above
//! ```

use crate::engine::{
    Deliveries, EventSim, FaultStats, CLASS_CHURN, CLASS_DELIVER, CLASS_WAKE, NO_WAKE,
};
use crate::fault::{FaultPlan, FaultRng};
use crate::snapshot::{Persist, PersistError, SnapshotReader, SnapshotWriter};
use crate::topology::ExplicitTopology;
use crate::Node;
use anr_trace::Tracer;
use std::error::Error;
use std::fmt;

/// Format tag of the snapshot layout this module reads and writes. It
/// names the crate the engine first lived in; the layout is unchanged
/// since, so existing snapshots stay readable. Bumped from `/1` when
/// the robust protocols' wire messages moved to fixed-width `u32`
/// fields (CONGEST conformance, lint rule M1): in-flight message bytes
/// in the event section changed width.
pub const CKPT_MAGIC: &str = "anr-eventsim-ckpt/2";

/// Why a snapshot could not be restored.
#[derive(Debug, Clone, PartialEq, Eq)]
#[non_exhaustive]
pub enum CkptError {
    /// The input does not start with [`CKPT_MAGIC`].
    BadMagic,
    /// The input is shorter than the fixed framing (magic + checksum).
    Truncated,
    /// The checksum over magic + body did not match.
    ChecksumMismatch {
        /// Checksum recorded in the snapshot.
        expected: u64,
        /// Checksum recomputed over the input.
        actual: u64,
    },
    /// The snapshot was taken over a different robot count than the
    /// supplied topology provides.
    TopologyMismatch {
        /// Robots in the snapshot.
        snapshot: usize,
        /// Robots in the supplied topology.
        topology: usize,
    },
    /// The body failed structural decoding.
    Codec(PersistError),
    /// The body decoded but left unread bytes.
    TrailingBytes {
        /// Bytes left over.
        extra: usize,
    },
    /// A decoded field is inconsistent with the rest of the snapshot
    /// (e.g. an out-of-range node index, or an event due before the
    /// snapshot's round).
    Inconsistent {
        /// What was inconsistent.
        context: &'static str,
    },
}

impl fmt::Display for CkptError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CkptError::BadMagic => write!(f, "snapshot does not start with {CKPT_MAGIC:?}"),
            CkptError::Truncated => write!(f, "snapshot shorter than its fixed framing"),
            CkptError::ChecksumMismatch { expected, actual } => write!(
                f,
                "snapshot checksum mismatch: recorded {expected:#018x}, computed {actual:#018x}"
            ),
            CkptError::TopologyMismatch { snapshot, topology } => write!(
                f,
                "snapshot has {snapshot} robots but the topology has {topology}"
            ),
            CkptError::Codec(err) => write!(f, "snapshot body malformed: {err}"),
            CkptError::TrailingBytes { extra } => {
                write!(f, "snapshot body has {extra} trailing bytes")
            }
            CkptError::Inconsistent { context } => {
                write!(f, "snapshot is internally inconsistent: {context}")
            }
        }
    }
}

impl Error for CkptError {}

impl From<PersistError> for CkptError {
    fn from(err: PersistError) -> Self {
        CkptError::Codec(err)
    }
}

/// One queued event as a snapshot lists it: the `(due, class, ord)`
/// key and, for a delivery, `(from, to, msg)`.
type Entry<'a, M> = ((u64, u8, u64), Option<(usize, usize, &'a M)>);

/// FNV-1a 64-bit over `bytes`.
fn fnv1a(bytes: &[u8]) -> u64 {
    let mut hash = 0xcbf2_9ce4_8422_2325u64;
    for &b in bytes {
        hash ^= b as u64;
        hash = hash.wrapping_mul(0x0000_0100_0000_01b3);
    }
    hash
}

fn persist_stats(stats: &FaultStats, w: &mut SnapshotWriter) {
    stats.sent.persist(w);
    stats.delivered.persist(w);
    stats.dropped_loss.persist(w);
    stats.dropped_crash.persist(w);
    stats.duplicated.persist(w);
    stats.delayed.persist(w);
    stats.crashes.persist(w);
    stats.recoveries.persist(w);
}

fn restore_stats(r: &mut SnapshotReader<'_>) -> Result<FaultStats, PersistError> {
    Ok(FaultStats {
        rounds: 0,
        sent: usize::restore(r)?,
        delivered: usize::restore(r)?,
        dropped_loss: usize::restore(r)?,
        dropped_crash: usize::restore(r)?,
        duplicated: usize::restore(r)?,
        delayed: usize::restore(r)?,
        crashes: usize::restore(r)?,
        recoveries: usize::restore(r)?,
    })
}

impl<N> EventSim<N>
where
    N: Node + Persist,
    N::Msg: Persist,
{
    /// Serializes the full run state as an `anr-eventsim-ckpt/2`
    /// snapshot. Byte-stable: equal states yield identical bytes.
    ///
    /// Take snapshots at round boundaries (between `run_*` calls);
    /// inboxes are always drained within a round, so none exist to
    /// capture.
    pub fn save(&self) -> Vec<u8> {
        let _span = self.tracer.span("ckpt_write");
        let mut w = SnapshotWriter::new();
        w.put_bytes(CKPT_MAGIC.as_bytes());
        w.put_u8(b'\n');
        self.now.persist(&mut w);
        self.seq.persist(&mut w);
        self.started.persist(&mut w);
        self.rng.persist(&mut w);
        self.plan.persist(&mut w);
        self.crashed.persist(&mut w);
        let wakes: Vec<(usize, u64)> = self
            .next_wake
            .iter()
            .enumerate()
            .filter(|&(_, &due)| due != NO_WAKE)
            .map(|(i, &due)| (i, due))
            .collect();
        wakes.persist(&mut w);
        persist_stats(&self.stats, &mut w);
        // Canonical order: every queued event sorted by its unique
        // (due, class, ord) key; only deliveries carry a payload.
        let churn = (self.churn_next..self.churn.len())
            .map(|i| ((self.churn[i].round as u64, CLASS_CHURN, i as u64), None));
        let wake_events = self
            .wakes
            .iter()
            .map(|&u| ((self.next_wake[u], CLASS_WAKE, u as u64), None));
        let mut entries: Vec<Entry<'_, N::Msg>> = churn.chain(wake_events).collect();
        for (due, inbox) in self.deliveries.iter() {
            for (&ord, env) in inbox.ords.iter().zip(&inbox.envelopes) {
                entries.push((
                    (due, CLASS_DELIVER, ord),
                    Some((env.from, inbox.to, &env.msg)),
                ));
            }
        }
        entries.sort_unstable_by_key(|&(key, _)| key);
        w.put_u64(entries.len() as u64);
        for ((due, class, ord), delivery) in entries {
            due.persist(&mut w);
            class.persist(&mut w);
            ord.persist(&mut w);
            if let Some((from, to, msg)) = delivery {
                from.persist(&mut w);
                to.persist(&mut w);
                msg.persist(&mut w);
            }
        }
        self.nodes.persist(&mut w);
        let checksum = fnv1a(w.as_bytes());
        w.put_u64(checksum);
        if self.tracer.is_enabled() {
            self.tracer.counter_add("ckpt_bytes", w.len() as u64);
        }
        w.into_bytes()
    }

    /// Rebuilds a run from a [`save`](EventSim::save) snapshot and the
    /// deployment's topology. The restored simulator continues
    /// bit-identically to the uninterrupted original. `tracer` is
    /// attached from the start, so it captures the `ckpt_restore` span
    /// too.
    ///
    /// # Errors
    ///
    /// [`CkptError`] on any malformed input — wrong magic, failed
    /// checksum, truncation, codec errors, trailing bytes, a robot
    /// count that disagrees with `topology`, or a state no run could
    /// reach (see [`CkptError::Inconsistent`]).
    pub fn restore(
        bytes: &[u8],
        topology: ExplicitTopology,
        tracer: &Tracer,
    ) -> Result<Self, CkptError> {
        let _span = tracer.span("ckpt_restore");
        let magic_len = CKPT_MAGIC.len() + 1;
        if bytes.len() < magic_len + 8 {
            return Err(CkptError::Truncated);
        }
        if &bytes[..CKPT_MAGIC.len()] != CKPT_MAGIC.as_bytes() || bytes[CKPT_MAGIC.len()] != b'\n' {
            return Err(CkptError::BadMagic);
        }
        let body_end = bytes.len() - 8;
        let mut tail = [0u8; 8];
        tail.copy_from_slice(&bytes[body_end..]);
        let expected = u64::from_le_bytes(tail);
        let actual = fnv1a(&bytes[..body_end]);
        if expected != actual {
            return Err(CkptError::ChecksumMismatch { expected, actual });
        }
        let inconsistent = |context| Err(CkptError::Inconsistent { context });
        let mut r = SnapshotReader::new(&bytes[magic_len..body_end]);
        let now = u64::restore(&mut r)?;
        let seq = u64::restore(&mut r)?;
        let started = bool::restore(&mut r)?;
        let rng = FaultRng::restore(&mut r)?;
        let plan = FaultPlan::restore(&mut r)?;
        let crashed = Vec::<bool>::restore(&mut r)?;
        let n = crashed.len();
        if topology.adjacency().len() != n {
            return Err(CkptError::TopologyMismatch {
                snapshot: n,
                topology: topology.adjacency().len(),
            });
        }
        let wakes = Vec::<(usize, u64)>::restore(&mut r)?;
        let mut next_wake = vec![NO_WAKE; n];
        for &(i, due) in &wakes {
            if i >= n {
                return inconsistent("wakeup slot node index out of range");
            }
            next_wake[i] = due;
        }
        let stats = restore_stats(&mut r)?;
        let entry_count = u64::restore(&mut r)?;
        let mut queued_churn: Vec<(u64, u64)> = Vec::new();
        let mut wake_events: Vec<usize> = Vec::new();
        let mut deliveries = Deliveries::new(n, now);
        let mut last_key = None;
        for _ in 0..entry_count {
            let key = (
                u64::restore(&mut r)?,
                u8::restore(&mut r)?,
                u64::restore(&mut r)?,
            );
            let (due, class, ord) = key;
            if last_key.is_some_and(|last| key <= last) {
                return inconsistent("queued events out of (due, class, ord) order");
            }
            last_key = Some(key);
            if due < now {
                return inconsistent("event due before the snapshot's round");
            }
            match class {
                CLASS_CHURN => queued_churn.push((due, ord)),
                CLASS_WAKE => {
                    if ord >= n as u64 {
                        return inconsistent("wakeup event node index out of range");
                    }
                    if next_wake[ord as usize] != due {
                        return inconsistent("wakeup event without a matching wakeup slot");
                    }
                    // Between rounds every queued wakeup is for the next
                    // round to execute.
                    if due != now {
                        return inconsistent("wakeup not due at the snapshot's round");
                    }
                    wake_events.push(ord as usize);
                }
                CLASS_DELIVER => {
                    let from = usize::restore(&mut r)?;
                    let to = usize::restore(&mut r)?;
                    if from >= n {
                        return inconsistent("delivery sender out of range");
                    }
                    if to >= n {
                        return inconsistent("delivery recipient out of range");
                    }
                    if ord >= seq {
                        return inconsistent("delivery sequence number not yet issued");
                    }
                    deliveries.push(due, ord, from, to, N::Msg::restore(&mut r)?);
                }
                tag => {
                    return Err(CkptError::Codec(PersistError::BadTag {
                        tag,
                        context: "event class",
                    }))
                }
            }
        }
        if wake_events.len() != wakes.len() {
            return inconsistent("wakeup slot without a queued wakeup event");
        }
        let nodes = Vec::<N>::restore(&mut r)?;
        if nodes.len() != n {
            return inconsistent("node count disagrees with crash flags");
        }
        if r.remaining() != 0 {
            return Err(CkptError::TrailingBytes {
                extra: r.remaining(),
            });
        }
        let mut sim =
            EventSim::new(nodes, topology, plan).map_err(|_| CkptError::Inconsistent {
                context: "fault plan references robots outside the snapshot",
            })?;
        // Churn is applied in the order of the round-sorted plan (`ord`
        // indexes it), so the queued events must be its unapplied tail.
        let first = queued_churn
            .first()
            .map_or(sim.churn.len(), |&(_, ord)| ord as usize);
        let tail = queued_churn.iter().enumerate().all(|(k, &(due, ord))| {
            ord as usize == first + k
                && sim
                    .churn
                    .get(first + k)
                    .is_some_and(|ev| ev.round as u64 == due)
        });
        if !tail || first + queued_churn.len() != sim.churn.len() {
            return inconsistent("queued churn events are not the plan's unapplied tail");
        }
        sim.churn_next = first;
        sim.crashed = crashed;
        sim.next_wake = next_wake;
        sim.wakes = wake_events;
        sim.rng = rng;
        sim.deliveries = deliveries;
        sim.now = now;
        sim.seq = seq;
        sim.started = started;
        sim.stats = stats;
        sim.tracer = tracer.clone();
        Ok(sim)
    }
}
