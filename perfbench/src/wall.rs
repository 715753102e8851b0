//! Wall-clock reads, and the host-speed reference that normalises them.

use std::time::Instant;

/// The current wall-clock instant.
pub fn now() -> Instant {
    // marea-lint: allow(D2): wall time is what the benchmark measures; the fleet runs on virtual time
    Instant::now()
}

/// Seconds [`reference_s`] takes on the 2-core x86-64 box the workloads
/// were sized on: the host speed that host-normalised figures refer to.
pub const REFERENCE_NOMINAL_S: f64 = 0.031;

/// Wall seconds of timed work between two host-speed samples.
const SAMPLE_EVERY_S: f64 = 1.0;

/// Pairs pieces of timed work with the host's speed. It times the
/// reference kernel when it starts and again after every
/// [`SAMPLE_EVERY_S`] of work (and on [`flush`](Self::flush)); each piece
/// gets the mean of the samples on either side of it: reference seconds
/// over [`REFERENCE_NOMINAL_S`], above 1 when the host runs slower than
/// nominal. Bracketing a piece tracks a host whose speed changes while it
/// runs, and halves the weight of any one noisy sample.
#[derive(Debug)]
pub struct HostClock {
    last: f64,
    pending: usize,
    since_s: f64,
    factors: Vec<f64>,
}

impl HostClock {
    /// Samples the host; call it right before the first piece.
    pub fn start() -> Self {
        HostClock { last: sample(), pending: 0, since_s: 0.0, factors: Vec::new() }
    }

    /// Records one piece of work that took `wall_s`.
    pub fn add(&mut self, wall_s: f64) {
        self.pending += 1;
        self.since_s += wall_s;
        if self.since_s >= SAMPLE_EVERY_S {
            self.flush();
        }
    }

    /// Samples the host for the pieces not yet paired.
    pub fn flush(&mut self) {
        if self.pending > 0 {
            let next = sample();
            let factor = (self.last + next) / 2.0;
            self.factors.extend(std::iter::repeat_n(factor, self.pending));
            self.last = next;
            self.pending = 0;
            self.since_s = 0.0;
        }
    }

    /// The factor of every piece, in order.
    pub fn factors(mut self) -> Vec<f64> {
        self.flush();
        self.factors
    }
}

/// The host's speed now, relative to nominal.
fn sample() -> f64 {
    reference_s() / REFERENCE_NOMINAL_S
}

/// Wall seconds of a fixed, benchmark-owned computation shaped like the
/// simulation's own work (small allocations, ordered and hashed maps).
///
/// The program under test never runs it, so a change to the program
/// cannot move it; timing it next to the program's work measures how
/// fast the host is running right now. Its allocations do not count
/// towards the peak heap.
pub fn reference_s() -> f64 {
    crate::alloc::outside_peak(reference_kernel_s)
}

fn reference_kernel_s() -> f64 {
    use std::collections::{BTreeMap, HashMap};
    let t0 = now();
    let mut tree: BTreeMap<u64, Vec<u8>> = BTreeMap::new();
    let mut hash: HashMap<u64, u64> = HashMap::new();
    let mut x = 0x9E37_79B9_7F4A_7C15u64;
    let mut acc = 0u64;
    for i in 0..60_000u64 {
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        tree.insert(x % 8192, vec![i as u8; 32 + (x % 96) as usize]);
        if let Some(v) = tree.remove(&((x >> 20) % 8192)) {
            acc = acc.wrapping_add(v.iter().map(|&b| u64::from(b)).sum::<u64>());
        }
        *hash.entry(x % 16_384).or_default() += i;
        acc ^= hash.get(&((x >> 32) % 16_384)).copied().unwrap_or(0);
    }
    std::hint::black_box(acc);
    t0.elapsed().as_secs_f64()
}
