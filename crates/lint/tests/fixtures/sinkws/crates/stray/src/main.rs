//! Sink fixture, stray binary: binaries may panic (no P1) but still
//! read the clock (D2) and iterate hash maps (D1).

use std::collections::HashSet;

fn main() {
    let t = std::time::Instant::now();
    let seen: HashSet<usize> = [stray::boot("x")].into_iter().collect();
    println!("{} {:?}", seen.len(), t.elapsed());
    let _ = std::env::args().next().unwrap();
}
