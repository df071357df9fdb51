// Accept fixture: timing flows through the obs crate's wrappers, so no
// raw `Instant` appears outside `crates/obs/`.
use hypdb_obs::{Deadline, Tick};
use std::time::Duration;

fn timed_work(timeout_ms: u64) -> (f64, Duration) {
    let deadline = Deadline::after(Duration::from_millis(timeout_ms));
    let tick = Tick::now();
    let left = deadline.remaining();
    (tick.elapsed_secs(), left)
}
