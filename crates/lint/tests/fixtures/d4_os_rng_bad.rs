//! D4 fixture: a generator drawn from the operating system's entropy.
use rand::rngs::StdRng;
use rand::SeedableRng;

pub fn scramble() -> StdRng {
    StdRng::from_rng(rand::rngs::OsRng).unwrap_or_else(|_| StdRng::seed_from_u64(0))
}
