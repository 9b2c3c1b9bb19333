//! The host wall clock.
//!
//! Simulated time answers "what would the 2012 cluster do"; host time
//! answers "how fast does *this machine* run the real kernels". Every
//! host-clock number in the repository is a `perfbench` row (see
//! `BENCHMARK.json`), and every one of them is read through the
//! [`HostTimer`] below — the only code in the workspace allowed to touch
//! `std::time` (`clippy.toml` disallows `Instant::now` everywhere else).

use std::time::Instant;

use nbfs_core::engine::HostClock;

/// The real host clock — the one [`HostClock`] implementation in the
/// workspace that actually reads `std::time` (see DESIGN.md, "Invariant
/// gates").
pub struct HostTimer(Instant);

impl HostTimer {
    /// Starts a timer at the current instant.
    #[allow(clippy::new_without_default)]
    #[expect(
        clippy::disallowed_methods,
        reason = "the one sanctioned host-clock read behind every perfbench row"
    )]
    pub fn new() -> Self {
        Self(Instant::now())
    }

    /// Seconds elapsed since [`HostTimer::new`].
    pub fn elapsed_secs(&self) -> f64 {
        self.0.elapsed().as_secs_f64()
    }
}

impl HostClock for HostTimer {
    fn now_secs(&self) -> f64 {
        self.elapsed_secs()
    }
}
