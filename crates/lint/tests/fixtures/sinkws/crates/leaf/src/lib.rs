#![forbid(unsafe_code)]
#![deny(unreachable_pub)]
//! Sink fixture, leaf crate: one function per site pattern, each body
//! holding exactly one pattern, so every chain the call-graph rules
//! report ends at a known site.

use std::collections::HashMap;
use std::fs::File;
use std::io::Read;
use std::time::{Instant, SystemTime};

/// Panic site: `.unwrap()`.
pub fn pick(xs: &[u32]) -> u32 {
    *xs.first().unwrap()
}

/// Panic site: `.expect()`.
pub fn head(xs: &[u32]) -> u32 {
    *xs.first().expect("non-empty")
}

/// Panic site: `unreachable!`.
pub fn sign(x: i32) -> i32 {
    match x.cmp(&0) {
        std::cmp::Ordering::Less => -1,
        std::cmp::Ordering::Greater => 1,
        std::cmp::Ordering::Equal if x == 0 => 0,
        std::cmp::Ordering::Equal => unreachable!(),
    }
}

/// Hash-order site: `HashMap`.
pub fn tally(xs: &[u32]) -> usize {
    let mut m: HashMap<u32, usize> = HashMap::new();
    for x in xs {
        *m.entry(*x).or_insert(0) += 1;
    }
    m.len()
}

/// Clock site: `SystemTime`.
pub fn stamp() -> u64 {
    SystemTime::now()
        .duration_since(SystemTime::UNIX_EPOCH)
        .map_or(0, |d| d.as_secs())
}

/// Clock site: `Instant::now()`.
pub fn tick() -> Instant {
    Instant::now()
}

/// Clock site: `.elapsed()`.
pub fn lap(start: Instant) -> u128 {
    start.elapsed().as_nanos()
}

/// RNG site: `thread_rng`.
pub fn roll() -> u32 {
    rand::thread_rng().next_u32()
}

/// RNG site: `rand::random`.
pub fn draw() -> u64 {
    rand::random()
}

/// RNG site: `from_entropy`.
pub fn reseed() -> rand::rngs::SmallRng {
    rand::rngs::SmallRng::from_entropy()
}

/// Net site: `TcpStream`.
///
/// # Errors
///
/// Propagates connection errors.
pub fn dial() -> std::io::Result<std::net::TcpStream> {
    std::net::TcpStream::connect(("127.0.0.1", 9))
}

/// Net site: `TcpListener`.
///
/// # Errors
///
/// Propagates bind errors.
pub fn listen() -> std::io::Result<std::net::TcpListener> {
    std::net::TcpListener::bind(("127.0.0.1", 0))
}

/// Fs site: `fs::`.
///
/// # Errors
///
/// Propagates read errors.
pub fn load(path: &str) -> std::io::Result<String> {
    std::fs::read_to_string(path)
}

/// Fs site: `File::`.
///
/// # Errors
///
/// Propagates open errors.
pub fn open(path: &str) -> std::io::Result<File> {
    File::open(path)
}

/// Env site: `env::`.
pub fn home() -> Option<String> {
    std::env::var("HOME").ok()
}

/// Thread site inside D3's subset: `thread::spawn`.
pub fn spawn_worker() {
    let _ = std::thread::spawn(|| {}).join();
}

/// Thread site outside D3's subset: `thread::available_parallelism`.
pub fn cores() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

/// Primitive read site: the length word comes straight off the reader.
///
/// # Errors
///
/// Propagates read errors.
pub fn read_len(r: &mut impl Read) -> std::io::Result<usize> {
    let mut lenb = [0u8; 4];
    r.read_exact(&mut lenb)?;
    Ok(u32::from_le_bytes(lenb) as usize)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn test_code_may_use_anything() {
        let m: HashMap<u32, u32> = HashMap::new();
        assert!(m.get(&1).is_none());
        let _ = Instant::now();
        let _ = std::env::var("X").unwrap_or_default();
        assert_eq!(pick(&[3]), 3);
    }
}
