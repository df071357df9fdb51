//! The obs clock: the one legal wall-clock source in the workspace.
//!
//! `hypdb-lint`'s `raw-instant-outside-obs` rule flags any
//! `std::time::Instant` / `SystemTime` construction outside this crate
//! (tests and benches excepted), so every duration the system measures
//! flows through [`Tick`] or [`Deadline`]. That funnel is what makes
//! the companion `wall-clock-in-output` rule auditable: timings exist,
//! but they all originate here, and the deterministic surfaces (report
//! bodies, span paths and counts) consume only the structural side of
//! the tracing context, never a `Tick` reading.

use std::time::{Duration, Instant};

/// A started stopwatch. Readings are monotonic durations, suitable for
/// histograms, spans, and trace dumps — never for report bytes.
#[derive(Debug, Clone, Copy)]
pub struct Tick(Instant);

impl Tick {
    /// Starts the stopwatch.
    pub fn now() -> Tick {
        // lint:allow(wall-clock-in-output) — this module IS the clock: readings feed histograms, spans, and stderr trace dumps; report bodies stay zeroed/structural by construction
        Tick(Instant::now())
    }

    /// Elapsed time since the tick.
    pub fn elapsed(&self) -> Duration {
        self.0.elapsed()
    }

    /// Elapsed seconds as `f64` (histogram observation unit).
    pub fn elapsed_secs(&self) -> f64 {
        self.0.elapsed().as_secs_f64()
    }

    /// Elapsed whole nanoseconds, saturating at `u64::MAX`.
    pub fn elapsed_nanos(&self) -> u64 {
        let d = self.0.elapsed();
        d.as_secs()
            .saturating_mul(1_000_000_000)
            .saturating_add(u64::from(d.subsec_nanos()))
    }
}

/// A point in the future; the serve layer's I/O budget type. Replaces
/// raw `Instant + timeout` arithmetic at call sites.
#[derive(Debug, Clone, Copy)]
pub struct Deadline(Instant);

impl Deadline {
    /// A deadline `timeout` from now.
    pub fn after(timeout: Duration) -> Deadline {
        // lint:allow(wall-clock-in-output) — deadlines are control plane: they bound I/O waits and never reach response bytes
        Deadline(Instant::now() + timeout)
    }

    /// Time left until the deadline (zero once passed).
    pub fn remaining(&self) -> Duration {
        // lint:allow(wall-clock-in-output) — control plane: compares against the I/O deadline, never serialized
        self.0.saturating_duration_since(Instant::now())
    }

    /// True once the deadline has passed.
    pub fn expired(&self) -> bool {
        self.remaining() == Duration::ZERO
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tick_elapses_monotonically() {
        let t = Tick::now();
        let a = t.elapsed_nanos();
        let b = t.elapsed_nanos();
        assert!(b >= a);
        assert!(t.elapsed_secs() >= 0.0);
    }

    #[test]
    fn deadline_counts_down() {
        let d = Deadline::after(Duration::from_secs(60));
        assert!(!d.expired());
        assert!(d.remaining() <= Duration::from_secs(60));
        let past = Deadline::after(Duration::ZERO);
        assert_eq!(past.remaining(), Duration::ZERO);
        assert!(past.expired());
    }
}
