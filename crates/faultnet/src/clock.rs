//! Injectable time source.
//!
//! Retry/backoff code sleeps through a [`Clock`] instead of
//! `std::thread::sleep`, so tests drive the schedule on virtual time:
//! a [`TestClock`] makes every backoff instantaneous while recording the
//! exact durations requested, which lets the fault-matrix tests assert
//! the full schedule without a single real sleep.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

/// A monotonic time source with a sleep primitive.
///
/// `now()` reports time elapsed since the clock's epoch (its creation);
/// only differences of `now()` values are meaningful.
pub trait Clock: Send + Sync {
    /// Monotonic elapsed time since the clock's epoch.
    fn now(&self) -> Duration;

    /// Block the caller for `d` (really, or virtually).
    fn sleep(&self, d: Duration);
}

/// The real wall clock: `Instant` + `thread::sleep`.
#[derive(Debug)]
pub struct SystemClock {
    epoch: Instant,
}

impl SystemClock {
    /// A clock whose epoch is "now".
    #[expect(
        clippy::disallowed_methods,
        reason = "the one real wall-clock read behind the injectable Clock trait"
    )]
    pub fn new() -> SystemClock {
        SystemClock {
            epoch: Instant::now(),
        }
    }

    /// Convenience: a shareable system clock.
    pub fn shared() -> Arc<dyn Clock> {
        Arc::new(SystemClock::new())
    }
}

impl Default for SystemClock {
    fn default() -> Self {
        SystemClock::new()
    }
}

impl Clock for SystemClock {
    fn now(&self) -> Duration {
        self.epoch.elapsed()
    }

    fn sleep(&self, d: Duration) {
        std::thread::sleep(d);
    }
}

/// A virtual clock: `sleep` advances time instantly and records the
/// requested duration. Cloning shares the same underlying time line.
#[derive(Debug, Clone, Default)]
pub struct TestClock {
    inner: Arc<TestClockInner>,
}

#[derive(Debug, Default)]
struct TestClockInner {
    now_nanos: AtomicU64,
    sleeps: Mutex<Vec<Duration>>,
}

impl TestClock {
    /// A virtual clock starting at zero.
    pub fn new() -> TestClock {
        TestClock::default()
    }

    /// Convenience: the clock plus a trait-object handle to it.
    pub fn shared() -> (TestClock, Arc<dyn Clock>) {
        let clock = TestClock::new();
        let handle: Arc<dyn Clock> = Arc::new(clock.clone());
        (clock, handle)
    }

    /// Every duration passed to `sleep`, in call order.
    pub fn sleeps(&self) -> Vec<Duration> {
        self.inner
            .sleeps
            .lock()
            .map(|g| g.clone())
            .unwrap_or_default()
    }

    /// Total virtual time slept.
    pub fn total_slept(&self) -> Duration {
        self.sleeps().iter().sum()
    }

    /// Advance virtual time without recording a sleep (e.g. to model
    /// elapsed work between retries).
    pub fn advance(&self, d: Duration) {
        let nanos = u64::try_from(d.as_nanos()).unwrap_or(u64::MAX);
        self.inner.now_nanos.fetch_add(nanos, Ordering::SeqCst);
    }
}

impl Clock for TestClock {
    fn now(&self) -> Duration {
        Duration::from_nanos(self.inner.now_nanos.load(Ordering::SeqCst))
    }

    fn sleep(&self, d: Duration) {
        self.advance(d);
        if let Ok(mut g) = self.inner.sleeps.lock() {
            g.push(d);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn test_clock_records_sleeps_without_waiting() {
        let (clock, handle) = TestClock::shared();
        #[expect(
            clippy::disallowed_methods,
            reason = "the test proves a test-clock sleep never waits for real"
        )]
        let start = Instant::now();
        handle.sleep(Duration::from_secs(3600));
        handle.sleep(Duration::from_millis(250));
        assert!(start.elapsed() < Duration::from_secs(1), "slept for real");
        assert_eq!(
            clock.sleeps(),
            vec![Duration::from_secs(3600), Duration::from_millis(250)]
        );
        assert_eq!(
            clock.now(),
            Duration::from_secs(3600) + Duration::from_millis(250)
        );
    }

    #[test]
    fn clones_share_the_time_line() {
        let a = TestClock::new();
        let b = a.clone();
        a.sleep(Duration::from_secs(5));
        assert_eq!(b.now(), Duration::from_secs(5));
        assert_eq!(b.sleeps().len(), 1);
    }

    #[test]
    fn system_clock_is_monotonic() {
        let c = SystemClock::new();
        let a = c.now();
        let b = c.now();
        assert!(b >= a);
    }
}
