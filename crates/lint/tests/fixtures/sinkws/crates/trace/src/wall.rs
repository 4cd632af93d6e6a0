//! The sanctioned wall clock.

use std::time::{Instant, SystemTime};

/// Milliseconds since the epoch.
pub fn now_ms() -> u64 {
    SystemTime::now()
        .duration_since(SystemTime::UNIX_EPOCH)
        .map_or(0, |d| d.as_millis() as u64)
}

/// Milliseconds since `start`.
pub fn since_ms(start: Instant) -> u128 {
    start.elapsed().as_millis()
}
