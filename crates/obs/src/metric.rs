//! Lock-free counters and gauges.
//!
//! Both are a single cache line of state updated with relaxed atomic
//! read-modify-write operations. Relaxed ordering is sufficient: metrics
//! are statistical observations, not synchronization points — a snapshot
//! taken concurrently with updates may miss in-flight increments but
//! never tears or double-counts, so sums over disjoint writers (e.g. the
//! MMSI-sharded tracker threads) are exact once the writers are joined.

use std::sync::atomic::{AtomicI64, AtomicU64, Ordering};

/// A monotonically increasing event count.
#[derive(Debug, Default)]
pub struct Counter {
    value: AtomicU64,
}

impl Counter {
    /// Creates a counter at zero.
    #[must_use]
    pub const fn new() -> Self {
        Self {
            value: AtomicU64::new(0),
        }
    }

    /// Adds one.
    #[inline]
    pub fn inc(&self) {
        self.add(1);
    }

    /// Adds `n`. No-op while recording is disabled.
    #[inline]
    pub fn add(&self, n: u64) {
        if !crate::enabled() {
            return;
        }
        self.value.fetch_add(n, Ordering::Relaxed);
    }

    /// The current count.
    #[inline]
    #[must_use]
    pub fn get(&self) -> u64 {
        self.value.load(Ordering::Relaxed)
    }
}

/// An instantaneous level: window fill, active vessels, queue depth.
#[derive(Debug, Default)]
pub struct Gauge {
    value: AtomicI64,
}

impl Gauge {
    /// Creates a gauge at zero.
    #[must_use]
    pub const fn new() -> Self {
        Self {
            value: AtomicI64::new(0),
        }
    }

    /// Sets the level. No-op while recording is disabled.
    #[inline]
    pub fn set(&self, v: i64) {
        if !crate::enabled() {
            return;
        }
        self.value.store(v, Ordering::Relaxed);
    }

    /// Adds `delta` (may be negative). No-op while recording is disabled.
    #[inline]
    pub fn add(&self, delta: i64) {
        if !crate::enabled() {
            return;
        }
        self.value.fetch_add(delta, Ordering::Relaxed);
    }

    /// Raises the level to `v` if it is currently lower (a high-water
    /// mark). No-op while recording is disabled.
    #[inline]
    pub fn set_max(&self, v: i64) {
        if !crate::enabled() {
            return;
        }
        self.value.fetch_max(v, Ordering::Relaxed);
    }

    /// The current level.
    #[inline]
    #[must_use]
    pub fn get(&self) -> i64 {
        self.value.load(Ordering::Relaxed)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counter_accumulates() {
        let c = Counter::new();
        c.inc();
        c.add(41);
        assert_eq!(c.get(), 42);
    }

    #[test]
    fn gauge_set_add_max() {
        let g = Gauge::new();
        g.set(10);
        g.add(-3);
        assert_eq!(g.get(), 7);
        g.set_max(5);
        assert_eq!(g.get(), 7, "set_max must not lower the level");
        g.set_max(20);
        assert_eq!(g.get(), 20);
    }

    #[test]
    fn concurrent_increments_are_exact() {
        let c = std::sync::Arc::new(Counter::new());
        let threads: Vec<_> = (0..8)
            .map(|_| {
                let c = c.clone();
                std::thread::spawn(move || {
                    for _ in 0..10_000 {
                        c.inc();
                    }
                })
            })
            .collect();
        for t in threads {
            t.join().unwrap();
        }
        assert_eq!(c.get(), 80_000);
    }
}
