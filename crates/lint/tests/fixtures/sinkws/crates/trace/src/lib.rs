#![forbid(unsafe_code)]
#![deny(unreachable_pub)]
//! Sink fixture, trace crate: its wall module is the one place a
//! clock read is not a determinism sink (D2, S2), though it is still
//! the `time` effect (C1).

pub mod wall;
