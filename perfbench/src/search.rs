//! The search for `predict_lr`'s highest sustainable rate.

/// The latency limit the search holds each step to, and the failure share a
/// step may have.
pub const P99_LIMIT_MS: f64 = 50.0;
pub const MAX_FAIL_FRAC: f64 = 0.01;
/// The factor between rates while the search is still widening.
const SEARCH_FACTOR: f64 = 1.25;

/// Did a search step meet the limit? p99 within the limit, few enough
/// failures, and a backlog that did not grow from the middle of the step to
/// its end by more than 2 % of the step's second half (at least 16
/// requests, about two batches).
#[derive(Debug, Clone, Copy)]
pub struct Step {
    pub rate: f64,
    pub p99_ms: f64,
    pub fail_frac: f64,
    pub backlog_mid: usize,
    pub backlog_end: usize,
    pub seconds: f64,
}

impl Step {
    pub fn backlog_grew(&self) -> bool {
        let allowance = (0.02 * self.rate * self.seconds / 2.0).max(16.0);
        self.backlog_end as f64 > self.backlog_mid as f64 + allowance
    }

    pub fn passes(&self) -> bool {
        self.p99_ms <= P99_LIMIT_MS && self.fail_frac <= MAX_FAIL_FRAC && !self.backlog_grew()
    }

    /// Failed on p99 only: interpolating the rate where p99 crosses the
    /// limit means something only then.
    pub fn failed_on_latency_alone(&self) -> bool {
        self.p99_ms > P99_LIMIT_MS && self.fail_frac <= MAX_FAIL_FRAC && !self.backlog_grew()
    }
}

/// What the search found: `rate` is the reported highest sustainable rate,
/// `verified` the highest rate a step actually ran and passed at.
#[derive(Debug, Clone)]
pub struct Found {
    pub rate: f64,
    pub verified: Option<f64>,
    pub tried: Vec<Step>,
}

/// The highest passing rate: widen by `SEARCH_FACTOR` from `first` until a
/// step fails (or narrow below it if it failed), then bisect geometrically
/// between the best pass and the lowest failure for the remaining steps.
/// When that lowest failure failed on latency alone (few failures, no
/// growing backlog), the answer is the rate where p99 crosses the limit,
/// interpolated (log rate against log p99) between the two; otherwise it is
/// the best pass. Below every rate tried if nothing passed.
pub fn search_max_rate(first: Step, steps: usize, mut eval: impl FnMut(f64) -> Step) -> Found {
    let mut tried = vec![first];
    let (mut pass, mut fail): (Option<Step>, Option<Step>) = if first.passes() {
        (Some(first), None)
    } else {
        (None, Some(first))
    };
    for _ in 0..steps {
        let rate = match (pass, fail) {
            (Some(p), None) => p.rate * SEARCH_FACTOR,
            (None, Some(f)) => f.rate / SEARCH_FACTOR,
            (Some(p), Some(f)) => (p.rate * f.rate).sqrt(),
            (None, None) => unreachable!(),
        };
        let step = eval(rate);
        tried.push(step);
        if step.passes() {
            pass = Some(step);
        } else if fail.is_none_or(|f| step.rate < f.rate) {
            fail = Some(step);
        }
    }
    let rate = match (pass, fail) {
        (Some(p), Some(f)) if f.failed_on_latency_alone() && p.p99_ms > 0.0 => {
            let share = (P99_LIMIT_MS.ln() - p.p99_ms.ln()) / (f.p99_ms.ln() - p.p99_ms.ln());
            p.rate * (f.rate / p.rate).powf(share.clamp(0.0, 1.0))
        }
        (Some(p), _) => p.rate,
        (None, f) => f.map_or(first.rate, |f| f.rate) / SEARCH_FACTOR,
    };
    Found {
        rate,
        verified: pass.map(|p| p.rate),
        tried,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn step(rate: f64, capacity: f64) -> Step {
        // A server whose latency stays low but whose backlog grows linearly
        // once offered load passes its capacity.
        let growth = ((rate - capacity).max(0.0) * 0.75) as usize;
        Step {
            rate,
            p99_ms: 5.0,
            fail_frac: 0.0,
            backlog_mid: 10,
            backlog_end: 10 + growth,
            seconds: 1.5,
        }
    }

    #[test]
    fn search_stops_on_a_growing_backlog() {
        let capacity = 1000.0;
        let found = search_max_rate(step(800.0, capacity), 8, |r| step(r, capacity));
        let best = found.rate;
        assert!(best <= capacity * 1.03, "{best}");
        assert!(best >= capacity * 0.9, "{best}");
        assert_eq!(
            found.verified,
            Some(best),
            "a backlog failure is not interpolated"
        );
        for s in &found.tried {
            if s.rate > capacity * 1.05 {
                assert!(!s.passes(), "{} rps passed with a growing backlog", s.rate);
            }
        }
    }

    #[test]
    fn search_narrows_down_when_the_first_step_fails() {
        let best = search_max_rate(step(800.0, 500.0), 8, |r| step(r, 500.0)).rate;
        assert!(best < 530.0 && best > 450.0, "{best}");
    }

    /// A server whose p99 grows with load and whose backlog grows past
    /// `capacity`, with p99 crossing the limit at `knee`.
    fn step_with_latency(rate: f64, knee: f64, capacity: f64) -> Step {
        Step {
            p99_ms: P99_LIMIT_MS * (rate / knee).powi(4),
            ..step(rate, capacity)
        }
    }

    #[test]
    fn a_latency_failure_is_interpolated_between_pass_and_fail() {
        let (knee, capacity) = (1100.0, 5000.0);
        let found = search_max_rate(step_with_latency(800.0, knee, capacity), 3, |r| {
            step_with_latency(r, knee, capacity)
        });
        let verified = found.verified.expect("800 rps passes");
        assert!(verified < knee && found.rate > verified, "{found:?}");
        assert!((found.rate - knee).abs() < 1.0, "{}", found.rate);
    }

    #[test]
    fn a_failure_with_a_growing_backlog_is_not_interpolated() {
        // p99 crosses the limit only past the capacity, where the backlog
        // grows too: the answer is the best rate that ran and passed.
        let (knee, capacity) = (1100.0, 1000.0);
        let found = search_max_rate(step_with_latency(800.0, knee, capacity), 3, |r| {
            step_with_latency(r, knee, capacity)
        });
        assert_eq!(found.verified, Some(found.rate), "{found:?}");
        assert!(found.rate <= capacity, "{}", found.rate);
    }

    #[test]
    fn a_step_fails_on_latency_or_failures() {
        let ok = step(100.0, 1000.0);
        assert!(ok.passes());
        assert!(!Step { p99_ms: 51.0, ..ok }.passes());
        assert!(!Step {
            fail_frac: 0.02,
            ..ok
        }
        .passes());
    }
}
