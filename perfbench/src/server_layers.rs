//! Per-layer figures from the server's own `/metrics` (Prometheus text),
//! scraped before and after a phase and subtracted, so each phase reports
//! only its own requests.

use crate::prom::{Hist, Scrape};
use crate::stats::median;
use crate::Report;

/// Per-layer numbers from the difference of two scrapes around a phase.
pub struct PhaseLayers {
    pub scrape: (Scrape, Scrape),
}

impl PhaseLayers {
    pub fn stage(&self, stage: &str) -> Hist {
        let (before, after) = &self.scrape;
        after.hist_delta(
            before,
            &format!("holistix_stage_duration_us{{endpoint=\"predict\",stage=\"{stage}\"}}"),
        )
    }

    pub fn queue(&self, family: &str, kind: &str) -> Hist {
        let (before, after) = &self.scrape;
        after
            .family_hist_deltas(before, family)
            .into_iter()
            .find(|(series, _)| series.contains(&format!("kind=\"{kind}\"")))
            .map(|(_, h)| h)
            .unwrap_or_default()
    }

    pub fn requests(&self) -> f64 {
        let (before, after) = &self.scrape;
        after.delta(before, "holistix_requests_total{endpoint=\"predict\"}")
            + after.delta(before, "holistix_requests_total{endpoint=\"explain\"}")
    }

    /// The mean of the per-request stage sums against the server's own
    /// end-to-end mean, over every request of the phase. Returns
    /// `(stage-sum mean, end-to-end mean, relative gap)` in µs. The server
    /// times each stage from the previous stamp and the whole request to the
    /// last one, so the two agree by construction up to per-stage µs
    /// truncation: a gap means a stage went missing from the per-stage
    /// histograms, not time spent outside the server's stamps (`Residues`
    /// checks that).
    pub fn reconcile(&self) -> (f64, f64, f64) {
        let (before, after) = &self.scrape;
        let e2e = after.hist_delta(before, "holistix_request_latency_us");
        let stage_sum: f64 = after
            .family_hist_deltas(before, "holistix_stage_duration_us")
            .iter()
            .map(|(_, h)| h.sum)
            .sum();
        let stage_mean = if e2e.count > 0.0 {
            stage_sum / e2e.count
        } else {
            0.0
        };
        let gap = if e2e.mean() > 0.0 {
            (stage_mean - e2e.mean()).abs() / e2e.mean()
        } else {
            0.0
        };
        (stage_mean, e2e.mean(), gap)
    }

    pub fn server_latency(&self) -> Hist {
        let (before, after) = &self.scrape;
        after.hist_delta(before, "holistix_request_latency_us")
    }
}

/// The stated error of the server's histograms: a recorded value is within
/// one sub-bucket, 1/16 of its octave.
const RECONCILE_TOLERANCE: f64 = 0.0625;

/// The most time at the median a traced request may spend outside the
/// server's stamps — reading the request before parse completion, the socket
/// write, loopback and the client. Measured at 0.3–0.4 ms on 2 vCPUs at every
/// `predict_lr` phase; past 2 ms the stages no longer explain the latency
/// the client sees.
pub const RESIDUE_LIMIT_US: f64 = 2000.0;

/// Each traced request's client latency set against the server's own total
/// from its `?trace=1` body.
#[derive(Debug, Default)]
pub struct Residues {
    /// Client span self time per request: latency minus the stage children.
    self_us: Vec<f64>,
    /// Client latency minus the server's total, per request.
    outside_us: Vec<f64>,
    /// Traced answers without a stage breakdown.
    pub missing: usize,
}

impl Residues {
    /// Add one request's `(span self time, server total)` in µs, or `None`
    /// when its answer carried no stages.
    pub fn add(&mut self, spans: Option<(f64, f64)>, client_us: f64) {
        match spans {
            Some((self_us, server_us)) => {
                self.self_us.push(self_us);
                self.outside_us.push(client_us - server_us);
            }
            None => self.missing += 1,
        }
    }

    pub fn self_p50(&self) -> f64 {
        median(&self.self_us)
    }

    pub fn outside_p50(&self) -> f64 {
        median(&self.outside_us)
    }

    /// Requests the server says took longer than the client saw: the
    /// server's interval lies inside the client's, so each is a timing bug.
    pub fn impossible(&self) -> usize {
        self.outside_us.iter().filter(|&&d| d < 0.0).count()
    }

    /// Why the phase's latency is not explained by the server's stages, if
    /// it is not.
    pub fn problem(&self) -> Option<String> {
        if self.outside_us.is_empty() {
            Some("no traced request carried a stage breakdown".into())
        } else if self.missing > 0 {
            Some(format!(
                "{} traced answers had no stage breakdown",
                self.missing
            ))
        } else if self.impossible() > 0 {
            Some(format!(
                "{} requests took longer on the server than at the client",
                self.impossible()
            ))
        } else if self.outside_p50() > RESIDUE_LIMIT_US {
            Some(format!(
                "p50 time outside the server's stages {:.1} us exceeds {RESIDUE_LIMIT_US} us",
                self.outside_p50()
            ))
        } else {
            None
        }
    }
}

/// Two checks per traced phase, each failing the run: the per-stage
/// histograms against the server's end-to-end histogram (within their
/// stated error), and every request's client latency against the server's
/// total from its own trace (see `Residues::problem`).
pub fn reconcile_check(
    report: &mut Report,
    phase: &str,
    layers: &PhaseLayers,
    residues: &Residues,
    client_p50_ms: f64,
) {
    let (stage_mean, e2e_mean, gap) = layers.reconcile();
    let server_p50 = layers.server_latency().percentile(0.5);
    report.note(format!(
        "reconcile {phase}: stage-sum mean {stage_mean:.1} us vs server end-to-end mean {e2e_mean:.1} us (gap {:.3}%, limit {:.2}%); client p50 {:.1} us - server p50 {server_p50:.1} us = {:.1} us; per request, client minus server total p50 {:.1} us (limit {RESIDUE_LIMIT_US} us), client span self time p50 (serve.client_residue_p50_us) {:.1} us",
        gap * 100.0,
        RECONCILE_TOLERANCE * 100.0,
        client_p50_ms * 1e3,
        client_p50_ms * 1e3 - server_p50,
        residues.outside_p50(),
        residues.self_p50(),
    ));
    let worst = report
        .metrics
        .get("reconcile.gap_frac")
        .unwrap_or(0.0)
        .max(gap);
    report.metrics.set("reconcile.gap_frac", worst, "frac");
    if gap > RECONCILE_TOLERANCE {
        report.fail(format!(
            "reconciliation failed in {phase}: the stages explain {stage_mean:.1} us of a {e2e_mean:.1} us mean request"
        ));
    }
    if let Some(problem) = residues.problem() {
        report.fail(format!("reconciliation failed in {phase}: {problem}"));
    }
}

pub fn handler_and_conn_layers(report: &mut Report, layers: &PhaseLayers) {
    let m = &mut report.metrics;
    let (before, after) = &layers.scrape;
    let requests = layers.requests().max(1.0);
    m.set(
        "serve.dispatch_p50_us",
        layers.stage("dispatch").percentile(0.5),
        "us",
    );
    m.set(
        "serve.dispatch_p99_us",
        layers.stage("dispatch").percentile(0.99),
        "us",
    );
    m.set(
        "serve.prepare_p50_us",
        layers.stage("prepare").percentile(0.5),
        "us",
    );
    m.set(
        "serve.respond_p50_us",
        layers.stage("respond").percentile(0.5),
        "us",
    );
    m.set(
        "serve.write_p50_us",
        layers.stage("write").percentile(0.5),
        "us",
    );
    m.set(
        "serve.write_p99_us",
        layers.stage("write").percentile(0.99),
        "us",
    );
    m.set(
        "conn.wakeups_per_req",
        after.delta(before, "holistix_poll_wakeups_total") / requests,
        "count",
    );
    m.set(
        "conn.pipelined_frac",
        after.delta(before, "holistix_pipelined_requests_total") / requests,
        "frac",
    );
    m.set(
        "threads.os_threads",
        after.value("holistix_os_threads"),
        "count",
    );
}

/// The LR batch queue's mean batch size and/or score-time p50.
pub fn batcher_layers(report: &mut Report, layers: &PhaseLayers, mean_batch: bool, score: bool) {
    if mean_batch {
        report.metrics.set(
            "batcher.mean_batch.LR",
            layers.queue("holistix_queue_batch_size", "LR").mean(),
            "count",
        );
    }
    if score {
        report.metrics.set(
            "batcher.score_p50_us.LR",
            layers
                .queue("holistix_queue_score_us", "LR")
                .percentile(0.5),
            "us",
        );
    }
}

pub fn shed_frac(layer_sets: &[&PhaseLayers]) -> f64 {
    let (mut shed, mut requests) = (0.0, 0.0);
    for layers in layer_sets {
        let (before, after) = &layers.scrape;
        shed += after.family_delta(before, "holistix_shed_total");
        requests += layers.requests();
    }
    if requests > 0.0 {
        shed / requests
    } else {
        0.0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn residues(requests: &[(f64, f64)]) -> Residues {
        let mut r = Residues::default();
        for &(client, server) in requests {
            r.add(Some((client - server, server)), client);
        }
        r
    }

    #[test]
    fn residues_within_the_limit_pass() {
        let r = residues(&[(5300.0, 5000.0), (4400.0, 4000.0), (6000.0, 5800.0)]);
        assert_eq!(r.outside_p50(), 300.0);
        assert_eq!(r.problem(), None);
    }

    #[test]
    fn time_outside_the_stages_fails() {
        let r = residues(&[(9000.0, 5000.0), (8000.0, 4000.0), (6000.0, 5800.0)]);
        assert!(
            r.problem().unwrap().contains("outside"),
            "{:?}",
            r.problem()
        );
    }

    #[test]
    fn a_server_longer_than_its_client_fails() {
        let r = residues(&[(5300.0, 5000.0), (3900.0, 4000.0)]);
        assert_eq!(r.impossible(), 1);
        assert!(r.problem().is_some());
    }

    #[test]
    fn answers_without_stages_fail() {
        let mut r = residues(&[(5300.0, 5000.0)]);
        r.add(None, 5000.0);
        assert!(r.problem().unwrap().contains("no stage breakdown"));
        assert!(Residues::default().problem().is_some());
    }
}
