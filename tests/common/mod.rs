//! Test support shared by the serving integration suites: a scorer that
//! holds its first batch until the test lets it go. Requests that arrive
//! meanwhile queue behind that batch, so they coalesce by the test's
//! schedule rather than by a batch window.

use holistix::{BaselineKind, Scorer};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Poll `check` until it holds. A progress deadline, not a timing
/// assumption: the condition is driven by a flag or a counter, so only a
/// genuine bug misses the (generous) deadline.
pub fn wait_until(what: &str, check: impl Fn() -> bool) {
    let deadline = Instant::now() + Duration::from_secs(20);
    while !check() {
        assert!(Instant::now() < deadline, "timed out waiting for {what}");
        std::thread::sleep(Duration::from_millis(2));
    }
}

/// Serves `inner`'s kind and answers, but holds the first batch it is asked
/// to score inside `probabilities` until [`open`](Self::open) (or for at most
/// 20 s, so a failing test cannot wedge the queue thread).
pub struct HoldFirstBatch {
    inner: Arc<dyn Scorer>,
    entered: AtomicBool,
    open: AtomicBool,
}

impl HoldFirstBatch {
    pub fn new(inner: Arc<dyn Scorer>) -> Arc<Self> {
        Arc::new(Self {
            inner,
            entered: AtomicBool::new(false),
            open: AtomicBool::new(false),
        })
    }

    /// Block until the first batch is being held.
    pub fn wait_entered(&self) {
        wait_until("the first batch to reach the scorer", || {
            self.entered.load(Ordering::SeqCst)
        });
    }

    /// Let the held batch, and every later one, score.
    pub fn open(&self) {
        self.open.store(true, Ordering::SeqCst);
    }
}

impl Scorer for HoldFirstBatch {
    fn probabilities(&self, texts: &[&str]) -> Vec<Vec<f64>> {
        if !self.entered.swap(true, Ordering::SeqCst) {
            let deadline = Instant::now() + Duration::from_secs(20);
            while !self.open.load(Ordering::SeqCst) && Instant::now() < deadline {
                std::thread::sleep(Duration::from_millis(2));
            }
        }
        self.inner.probabilities(texts)
    }

    fn kind(&self) -> BaselineKind {
        self.inner.kind()
    }

    fn labels(&self) -> Vec<String> {
        self.inner.labels()
    }
}
