#![forbid(unsafe_code)]
#![deny(unreachable_pub)]
//! Sink fixture, middle crate: one hop between the entry points and
//! the leaf sites, a handler that reaches two effects (M2), a tainted
//! length read in another crate (U1), and a guard held across a call
//! that can panic (L1).

use leaf::{dial, draw, home, lap, load, pick, read_len, stamp, tally};
use std::sync::Mutex;
use std::time::Instant;

/// Reaches `.unwrap()` in the leaf crate.
pub fn plan(xs: &[u32]) -> u32 {
    pick(xs) + 1
}

/// Reaches `HashMap` in the leaf crate.
pub fn count(xs: &[u32]) -> usize {
    tally(xs)
}

/// Reaches `SystemTime` in the leaf crate.
pub fn clock() -> u64 {
    stamp()
}

/// Reaches `.elapsed()` in the leaf crate.
pub fn measure(start: Instant) -> u128 {
    lap(start)
}

/// Reaches `rand::random` in the leaf crate.
pub fn lottery() -> u64 {
    draw()
}

/// Reaches `TcpStream` in the leaf crate.
///
/// # Errors
///
/// Propagates connection errors.
pub fn fetch() -> std::io::Result<()> {
    let _ = dial()?;
    Ok(())
}

/// Reaches `env::` and `fs::` in the leaf crate.
pub fn settings() -> usize {
    let path = home().unwrap_or_default();
    load(&path).map_or(0, |s| s.len())
}

/// Sizes an allocation from a length word read in another crate.
///
/// # Errors
///
/// Propagates read errors.
pub fn frame(r: &mut impl std::io::Read) -> std::io::Result<Vec<u8>> {
    let n = read_len(r)?;
    let mut body = Vec::with_capacity(n);
    body.resize(n, 0);
    Ok(body)
}

/// A ledger whose settle step holds its guard across a call that can
/// reach a panic site.
pub struct Ledger {
    /// Settled rows.
    pub rows: Mutex<Vec<u32>>,
}

impl Ledger {
    /// Plans while the rows are locked.
    pub fn settle(&self, xs: &[u32]) -> u32 {
        let g = match self.rows.lock() {
            Ok(g) => g,
            Err(p) => p.into_inner(),
        };
        let v = plan(xs);
        drop(g);
        v
    }
}

/// Round-driven protocol surface (fixture twin of the real trait).
pub trait Node {
    /// Per-message payload type.
    type Msg;
    /// Per-round hook.
    fn on_round(&mut self, round: usize);
}

/// A protocol whose round handler reads the environment and the disk.
#[derive(Debug, Default)]
pub struct ConfigNode {
    /// Settings length seen last round.
    pub seen: usize,
}

impl Node for ConfigNode {
    type Msg = u32;

    fn on_round(&mut self, round: usize) {
        self.seen = settings().min(round);
    }
}

/// Accounting hook for [`ConfigNode`].
pub fn run_config(node: &mut ConfigNode) {
    node.on_round(0);
}
