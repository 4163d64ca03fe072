//! Per-kind batch queues: cross-request micro-batching without head-of-line
//! blocking between models.
//!
//! Nothing waits on a batch queue: a poller submits each `/predict` as one
//! `Job` (its texts plus a `Reply` that knows where the answer goes) and
//! goes back to its sockets. The original design ran **one** batcher thread
//! over one queue for every model, which meant a 50 ms transformer batch
//! stalled the 200 µs logistic-regression batch queued behind it. Since the
//! `Scorer` redesign each registered kind owns a [`BatchQueue`]: its own
//! `mpsc` channel and its own drain loop on its own thread. Queues share
//! nothing but the registry handle and the metrics sink, so saturating one
//! cannot delay another.
//!
//! Each drain loop takes every job already queued until the batch holds
//! [`BatchConfig::max_batch`] texts, scores them with one
//! [`Scorer::probabilities`](holistix::Scorer::probabilities) call, and
//! hands each job its slice of the rows. A request is never split across
//! batches. When the channel runs empty before the batch is full, the loop
//! closes the batch at once unless jobs are arriving fast enough to fill it
//! within [`BatchConfig::max_wait`]: it keeps an exponentially weighted
//! average of the gaps between the jobs' enqueue instants, and waits (up to
//! `max_wait` after the first job) only while that average is at most
//! `max_wait / max_batch`. An idle queue therefore answers a lone request
//! after one scoring call instead of after the whole window, while a loaded
//! queue still coalesces full, well-amortised batches. Every batch's close
//! reason (`full`, `empty` or `window`) is counted in `/metrics`.
//!
//! A scorer that panics costs its batch, not its queue: the unwind is caught
//! around the scoring call, the batch's texts leave the depth gauge, each
//! job's reply answers for itself when dropped, and the loop keeps draining.
//!
//! Batching is invisible in the results: `probabilities` rows depend only on
//! their own text (a property the core pipeline tests pin), so coalescing
//! concurrent requests changes latency, never answers.

use crate::metrics::{BatchClose, QueueMetrics, ServeMetrics};
use crate::registry::SharedRegistry;
use holistix::BaselineKind;
use std::panic::AssertUnwindSafe;
use std::sync::mpsc::{Receiver, RecvTimeoutError, Sender, TryRecvError};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Micro-batching knobs for one queue.
#[derive(Debug, Clone)]
pub struct BatchConfig {
    /// Texts at which the drain loop stops collecting and scores. A request
    /// is never split across batches: the one that crosses this count joins
    /// whole, so a batch may exceed it by up to one request's texts less one.
    pub max_batch: usize,
    /// The longest the drain loop holds a batch open for more texts after
    /// its first job arrives. An upper bound, used only while jobs arrive
    /// fast enough to fill `max_batch` within it (an average gap of at most
    /// `max_wait / max_batch`); slower queues score as soon as the channel
    /// is empty.
    pub max_wait: Duration,
}

impl Default for BatchConfig {
    fn default() -> Self {
        Self {
            max_batch: 32,
            max_wait: Duration::from_millis(5),
        }
    }
}

/// The newest gap's weight in the arrival-gap average is `1 / GAP_WEIGHT`,
/// so the average follows roughly the last `2 * GAP_WEIGHT` arrivals.
const GAP_WEIGHT: u32 = 8;

/// A drain loop's estimate of how fast jobs arrive: an exponentially
/// weighted average of the gaps between consecutive jobs' enqueue instants.
/// It reads only the stamps the jobs already carry, so producers share no
/// state with it.
struct ArrivalGap {
    /// The latest enqueue instant seen.
    last: Option<Instant>,
    /// The average gap. Starts at `cap`: a queue with no history is idle.
    mean: Duration,
    /// Longest gap counted. Any gap this long means an idle queue, and the
    /// cap bounds how many arrivals it takes to forget a long pause.
    cap: Duration,
}

impl ArrivalGap {
    fn new(cap: Duration) -> Self {
        Self {
            last: None,
            mean: cap,
            cap,
        }
    }

    /// Fold one job's enqueue instant into the average. Jobs from different
    /// pollers can reach the channel slightly out of stamp order; an
    /// instant earlier than the latest counts as a zero gap.
    fn observe(&mut self, enqueued: Instant) {
        if let Some(last) = self.last {
            let gap = enqueued.saturating_duration_since(last).min(self.cap);
            self.mean = self.mean - self.mean / GAP_WEIGHT + gap / GAP_WEIGHT;
        }
        self.last = Some(self.last.map_or(enqueued, |last| last.max(enqueued)));
    }
}

/// Where one job's outcome goes (the server's turns it into a response for
/// the owning poller). The drain loop calls [`send`](Self::send) once per job.
pub(crate) trait Reply: Send {
    /// Deliver the job's rows, or why they could not be scored.
    fn send(self, outcome: Result<Scored<'_>, PredictError>);
}

/// One job's share of a scored batch.
pub(crate) struct Scored<'a> {
    /// One probability row per text of the job, in request order.
    pub rows: &'a [Vec<f64>],
    /// When the drain loop pulled the batch out of the queue.
    pub drained: Instant,
    /// When the batch's `probabilities` call returned.
    pub scored: Instant,
}

/// One request's texts awaiting scoring, with the reply that answers it.
pub(crate) struct Job<R> {
    texts: Vec<String>,
    /// When the job entered its queue, for per-queue latency percentiles.
    enqueued: Instant,
    reply: R,
}

/// Why `BatcherHandle::submit` refused a job, or why the drain loop could
/// not score it. Typed so the server can map each cause to the right status
/// code: [`QueueFull`](Self::QueueFull) is `429 + Retry-After` (the server is
/// healthy but full — retry), while [`NotLoaded`](Self::NotLoaded) and
/// [`Shutdown`](Self::Shutdown) are `503` (the model or server is
/// unavailable).
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum PredictError {
    /// The kind's batch queue was at its configured depth cap; nothing was
    /// enqueued (admission is all-or-nothing per request).
    QueueFull {
        /// The saturated kind's name.
        kind: String,
        /// The queue depth observed at rejection.
        depth: u64,
    },
    /// No scorer is loaded for the kind: never registered at startup, or a
    /// swapped-in registry dropped it (the reload path).
    NotLoaded(String),
    /// The server is shutting down (the queue's receiver is gone).
    Shutdown,
}

impl std::fmt::Display for PredictError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            PredictError::QueueFull { kind, depth } => {
                write!(f, "queue for model {kind:?} is full ({depth} texts queued)")
            }
            PredictError::NotLoaded(kind) => write!(f, "model {kind:?} is not loaded"),
            PredictError::Shutdown => write!(f, "server is shutting down"),
        }
    }
}

/// The sending half of one kind's queue.
struct QueueSender<R> {
    kind: BaselineKind,
    sender: Sender<Job<R>>,
    metrics: Arc<QueueMetrics>,
    /// Admission cap: most texts this queue may hold, queued or scoring.
    max_depth: u64,
}

/// The producer side of every kind's queue, shared by the pollers.
pub(crate) struct BatcherHandle<R> {
    queues: Vec<QueueSender<R>>,
}

impl<R: Reply> BatcherHandle<R> {
    /// Put one request's `texts` on `kind`'s queue without waiting; the drain
    /// loop answers through `reply`. A refused job's reply comes back unsent.
    ///
    /// Admission is all-or-nothing: the whole request's texts are reserved
    /// against the queue's depth cap up front ([`QueueMetrics::try_admit`]),
    /// so a rejection ([`PredictError::QueueFull`]) leaves the queue
    /// untouched.
    pub(crate) fn submit(
        &self,
        kind: BaselineKind,
        texts: Vec<String>,
        reply: R,
    ) -> Result<(), (PredictError, R)> {
        let Some(queue) = self.queues.iter().find(|q| q.kind == kind) else {
            return Err((PredictError::NotLoaded(kind.name()), reply));
        };
        // Depth counts up strictly before the drain loop can see the job:
        // incrementing after send() would let a fast drain score the job and
        // decrement first, wrapping the unsigned depth gauge.
        if !queue.metrics.try_admit(texts.len() as u64, queue.max_depth) {
            let error = PredictError::QueueFull {
                kind: kind.name(),
                depth: queue.metrics.depth(),
            };
            return Err((error, reply));
        }
        let job = Job {
            texts,
            enqueued: Instant::now(),
            reply,
        };
        queue.sender.send(job).map_err(|refused| {
            let job = refused.0;
            queue.metrics.record_dropped(job.texts.len());
            (PredictError::Shutdown, job.reply)
        })
    }
}

/// One kind's queue: the receiving half plus everything its drain loop needs.
/// Built by [`build_queues`]; the server spawns [`BatchQueue::run`] on its own
/// scoped thread.
pub(crate) struct BatchQueue<R> {
    kind: BaselineKind,
    receiver: Receiver<Job<R>>,
    config: BatchConfig,
    metrics: Arc<QueueMetrics>,
}

impl<R: Reply> BatchQueue<R> {
    /// The drain loop: recv → coalesce → score → reply, until every producer
    /// handle is dropped. The scorer is resolved once per batch from the
    /// shared registry, so a `/reload` swap lands between batches: an
    /// assembled batch always finishes on the scorer it started with.
    pub(crate) fn run(self, registry: &SharedRegistry) {
        let max_batch = self.config.max_batch.max(1);
        let max_wait = self.config.max_wait;
        // The average gap at which the window would fill a batch anyway.
        let fill_gap = max_wait / u32::try_from(max_batch).unwrap_or(u32::MAX);
        let mut arrivals = ArrivalGap::new(max_wait);
        while let Ok(first) = self.receiver.recv() {
            let deadline = Instant::now() + max_wait;
            arrivals.observe(first.enqueued);
            let mut texts = first.texts.len();
            let mut jobs = vec![first];
            let close = loop {
                if texts >= max_batch {
                    break BatchClose::Full;
                }
                let job = match self.receiver.try_recv() {
                    Ok(job) => job,
                    Err(TryRecvError::Empty) if arrivals.mean <= fill_gap => {
                        let remaining = deadline.saturating_duration_since(Instant::now());
                        match self.receiver.recv_timeout(remaining) {
                            Ok(job) => job,
                            Err(RecvTimeoutError::Timeout) => break BatchClose::Window,
                            Err(RecvTimeoutError::Disconnected) => break BatchClose::Empty,
                        }
                    }
                    Err(_) => break BatchClose::Empty,
                };
                arrivals.observe(job.enqueued);
                texts += job.texts.len();
                jobs.push(job);
            };
            self.metrics.record_close(close);
            self.score_batch(jobs, registry);
        }
    }

    /// Score one assembled batch with this queue's scorer (one batched
    /// `probabilities` call) and send every job its rows with the batch's
    /// drain and score instants. If scoring panics, the batch's texts leave
    /// the depth gauge and the jobs drop unanswered: each reply's own drop
    /// answers for it, and the drain loop goes on to the next batch.
    fn score_batch(&self, jobs: Vec<Job<R>>, registry: &SharedRegistry) {
        let drained = Instant::now();
        let n_texts: usize = jobs.iter().map(|job| job.texts.len()).sum();
        // The queue exists because the startup registry had this kind, and
        // refits keep kinds — so a miss only happens if a swapped-in registry
        // dropped the model. No model scored these texts: record no batch.
        let Some(scorer) = registry.current().get(self.kind) else {
            self.metrics.record_dropped(n_texts);
            for job in jobs {
                job.reply
                    .send(Err(PredictError::NotLoaded(self.kind.name())));
            }
            return;
        };
        let texts: Vec<&str> = jobs
            .iter()
            .flat_map(|job| job.texts.iter().map(String::as_str))
            .collect();
        let Ok(rows) = std::panic::catch_unwind(AssertUnwindSafe(|| scorer.probabilities(&texts)))
        else {
            self.metrics.record_dropped(n_texts);
            return;
        };
        let scored = Instant::now();
        let waits: Vec<u64> = jobs
            .iter()
            .map(|job| drained.duration_since(job.enqueued).as_micros() as u64)
            .collect();
        let score_us = scored.duration_since(drained).as_micros() as u64;
        self.metrics.record_batch(n_texts, &waits, score_us);
        let mut start = 0;
        for job in jobs {
            let end = start + job.texts.len();
            job.reply.send(Ok(Scored {
                rows: &rows[start..end],
                drained,
                scored,
            }));
            start = end;
        }
    }
}

/// Build one queue per registered scorer: the shared [`BatcherHandle`] for the
/// pollers and the [`BatchQueue`]s for the server to spawn, each with the
/// same `config`. `max_depth` is the per-kind admission cap in texts
/// ([`AdmissionConfig::max_queue_depth`](crate::AdmissionConfig)); each kind
/// gets its own budget, so one saturated queue sheds alone.
pub(crate) fn build_queues<R>(
    registry: &SharedRegistry,
    config: &BatchConfig,
    metrics: &ServeMetrics,
    max_depth: usize,
) -> (BatcherHandle<R>, Vec<BatchQueue<R>>) {
    let mut senders = Vec::new();
    let mut queues = Vec::new();
    for kind in registry.current().kinds() {
        let (sender, receiver) = std::sync::mpsc::channel();
        let queue_metrics = metrics.queue(&kind.name(), kind.scorer_family());
        senders.push(QueueSender {
            kind,
            sender,
            metrics: Arc::clone(&queue_metrics),
            max_depth: max_depth as u64,
        });
        queues.push(BatchQueue {
            kind,
            receiver,
            config: config.clone(),
            metrics: queue_metrics,
        });
    }
    (BatcherHandle { queues: senders }, queues)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::registry::{ModelRegistry, RegistryConfig};
    use holistix::SpeedProfile;
    use std::sync::mpsc;

    fn tiny_registry() -> ModelRegistry {
        ModelRegistry::fit_synthetic(&RegistryConfig {
            kinds: vec![BaselineKind::LogisticRegression],
            profile: SpeedProfile::Tiny,
            training_posts: 90,
            seed: 5,
        })
    }

    /// A job's outcome as the tests see it: owned rows plus the batch's
    /// drain and score instants.
    type Outcome = Result<(Vec<Vec<f64>>, Instant, Instant), PredictError>;

    /// A reply that forwards the outcome over a channel.
    struct ChannelReply(mpsc::Sender<Outcome>);

    impl Reply for ChannelReply {
        fn send(self, outcome: Result<Scored<'_>, PredictError>) {
            let _ = self
                .0
                .send(outcome.map(|s| (s.rows.to_vec(), s.drained, s.scored)));
        }
    }

    fn reply() -> (ChannelReply, mpsc::Receiver<Outcome>) {
        let (sender, receiver) = mpsc::channel();
        (ChannelReply(sender), receiver)
    }

    fn texts(n: usize) -> Vec<String> {
        vec!["hello".to_string(); n]
    }

    const LR: BaselineKind = BaselineKind::LogisticRegression;

    #[test]
    fn batched_replies_match_direct_scoring() {
        let registry = SharedRegistry::new(tiny_registry());
        let model = registry.current().get(LR).unwrap();
        let metrics = ServeMetrics::new();
        let config = BatchConfig {
            max_batch: 8,
            max_wait: Duration::from_millis(20),
        };

        let texts = vec![
            "i feel alone and tired".to_string(),
            "my job is destroying me".to_string(),
            "i cannot sleep at night".to_string(),
        ];
        let expected: Vec<Vec<f64>> = texts.iter().map(|t| model.probabilities_one(t)).collect();

        let (handle, queues) = build_queues(&registry, &config, &metrics, usize::MAX);
        let (reply, outcome) = reply();
        std::thread::scope(|scope| {
            for queue in queues {
                scope.spawn(|| queue.run(&registry));
            }
            handle.submit(LR, texts, reply).map_err(|e| e.0).unwrap();
            let (got, drained, scored) = outcome.recv().unwrap().unwrap();
            assert_eq!(got, expected);
            assert!(drained <= scored);
            drop(handle); // lets every drain loop exit
        });

        // The request's three texts were scored as one batch — visible in
        // the LR queue.
        let lr_queue = metrics.queue("LR", "classical");
        assert_eq!(lr_queue.max_batch_size(), 3);
        assert_eq!(lr_queue.depth(), 0);
    }

    #[test]
    fn batches_fill_to_max_batch_texts_without_splitting_a_request() {
        let registry = SharedRegistry::new(tiny_registry());
        let model = registry.current().get(LR).unwrap();
        let metrics = ServeMetrics::new();
        let config = BatchConfig {
            max_batch: 2,
            max_wait: Duration::from_secs(5),
        };
        let (handle, queues) = build_queues(&registry, &config, &metrics, usize::MAX);
        // Queue three requests (1, 3 and 1 texts) before the drain loop
        // starts, then close the channel so the loop never waits out its
        // window: the batches it forms depend only on the texts queued.
        let requests = [
            vec!["i feel alone".to_string()],
            vec![
                "my job exhausts me".to_string(),
                "i pray every night".to_string(),
                "my friends left".to_string(),
            ],
            vec!["i run every morning".to_string()],
        ];
        let mut outcomes = Vec::new();
        for request in &requests {
            let (reply, outcome) = reply();
            handle
                .submit(LR, request.clone(), reply)
                .map_err(|e| e.0)
                .unwrap();
            outcomes.push(outcome);
        }
        drop(handle);
        for queue in queues {
            queue.run(&registry);
        }

        let mut drained = Vec::new();
        for (request, outcome) in requests.iter().zip(&outcomes) {
            let (rows, at, _) = outcome.recv().unwrap().unwrap();
            let want: Vec<Vec<f64>> = request.iter().map(|t| model.probabilities_one(t)).collect();
            assert_eq!(rows, want);
            drained.push(at);
        }
        // 1 text < 2, so the 3-text request joined whole (4 texts); the
        // last request formed a batch of its own.
        assert_eq!(drained[0], drained[1]);
        assert_ne!(drained[1], drained[2]);
        let lr_queue = metrics.queue("LR", "classical");
        assert_eq!(lr_queue.max_batch_size(), 4);
        assert_eq!(lr_queue.depth(), 0);
        let snapshot = metrics.snapshot(None);
        assert_eq!(snapshot.get("texts_scored").unwrap().as_f64(), Some(5.0));
        let batches = snapshot.get("batches").unwrap();
        assert_eq!(batches.get("count").unwrap().as_f64(), Some(2.0));
    }

    #[test]
    fn unregistered_kind_is_an_error_and_records_no_metrics() {
        let registry = SharedRegistry::new(tiny_registry());
        let metrics = ServeMetrics::new();
        let (handle, _queues) =
            build_queues(&registry, &BatchConfig::default(), &metrics, usize::MAX);
        // No Linear SVM scorer was registered, so no queue exists for it:
        // the error comes straight from the handle, nothing is enqueued, and
        // the reply comes back unsent.
        let (reply, outcome) = reply();
        let (err, reply) = handle
            .submit(BaselineKind::LinearSvm, texts(1), reply)
            .err()
            .unwrap();
        assert!(matches!(err, PredictError::NotLoaded(_)));
        assert!(err.to_string().contains("not loaded"));
        drop(reply);
        assert!(outcome.recv().is_err(), "a refused reply was sent");
        // Nothing was scored, so nothing shows up as a batch.
        let snapshot = metrics.snapshot(None);
        assert_eq!(snapshot.get("texts_scored").unwrap().as_f64(), Some(0.0));
        let batches = snapshot.get("batches").unwrap();
        assert_eq!(batches.get("count").unwrap().as_f64(), Some(0.0));
    }

    #[test]
    fn submit_fails_cleanly_after_shutdown() {
        let registry = SharedRegistry::new(tiny_registry());
        let metrics = ServeMetrics::new();
        let (handle, queues) = build_queues(&registry, &BatchConfig::default(), &metrics, 1024);
        drop(queues); // receivers gone: every send errors
        let (reply, _outcome) = reply();
        let refused = handle.submit(LR, texts(2), reply).err().map(|e| e.0);
        assert_eq!(refused, Some(PredictError::Shutdown));
        // The failed send released its reservation: depth is back to zero.
        assert_eq!(metrics.queue("LR", "classical").depth(), 0);
    }

    #[test]
    fn over_cap_requests_draw_queue_full_without_enqueueing() {
        let registry = SharedRegistry::new(tiny_registry());
        let metrics = ServeMetrics::new();
        // No drain loop running: jobs sit in the channel, depth only grows.
        let (handle, _queues) = build_queues(&registry, &BatchConfig::default(), &metrics, 3);
        let submit = |n: usize| handle.submit(LR, texts(n), reply().0).err().map(|e| e.0);

        // A request bigger than the whole cap is rejected outright.
        let err = submit(4).unwrap();
        assert!(matches!(err, PredictError::QueueFull { .. }));
        assert!(err.to_string().contains("full"));
        assert_eq!(metrics.queue("LR", "classical").depth(), 0);

        // Fill the cap exactly: nothing drains, so each admitted text holds
        // its reservation.
        for _ in 0..3 {
            assert_eq!(submit(1), None);
        }
        assert_eq!(metrics.queue("LR", "classical").depth(), 3);
        // The cap is reached: one more text is shed, all-or-nothing.
        let err = submit(1).unwrap();
        assert!(matches!(err, PredictError::QueueFull { depth: 3, .. }));
        assert_eq!(metrics.queue("LR", "classical").depth(), 3);
    }

    /// The close counters of `LR`'s queue, as `/metrics` JSON reports them.
    fn closes(metrics: &ServeMetrics) -> [Option<f64>; 3] {
        let snapshot = metrics.snapshot(None);
        let closes = snapshot
            .get("queues")
            .and_then(|queues| queues.get("LR"))
            .and_then(|queue| queue.get("batch_close"))
            .expect("LR close counters");
        ["full", "empty", "window"].map(|reason| closes.get(reason).and_then(|n| n.as_f64()))
    }

    #[test]
    fn a_lone_job_at_an_idle_rate_is_scored_without_waiting_out_the_window() {
        let registry = SharedRegistry::new(tiny_registry());
        let metrics = ServeMetrics::new();
        let config = BatchConfig {
            max_batch: 32,
            max_wait: Duration::from_secs(5),
        };
        let (handle, queues) = build_queues(&registry, &config, &metrics, usize::MAX);
        let (reply, outcome) = reply();
        let (submitted, scored) = std::thread::scope(|scope| {
            for queue in queues {
                scope.spawn(|| queue.run(&registry));
            }
            let submitted = Instant::now();
            handle.submit(LR, texts(1), reply).map_err(|e| e.0).unwrap();
            let (_, _, scored) = outcome.recv().unwrap().unwrap();
            drop(handle); // lets every drain loop exit
            (submitted, scored)
        });
        // A queue with no arrival history is idle: the empty channel closes
        // the batch at once instead of after the 5 s window.
        let latency = scored.duration_since(submitted);
        assert!(
            latency < Duration::from_secs(1),
            "lone job took {latency:?}"
        );
        assert_eq!(closes(&metrics), [Some(0.0), Some(1.0), Some(0.0)]);
    }

    #[test]
    fn dense_arrivals_keep_the_window_open_for_a_late_job() {
        let registry = SharedRegistry::new(tiny_registry());
        let model = registry.current().get(LR).unwrap();
        let metrics = ServeMetrics::new();
        let config = BatchConfig {
            max_batch: 64,
            max_wait: Duration::from_secs(5),
        };
        let (handle, queues) = build_queues(&registry, &config, &metrics, usize::MAX);
        // 40 one-text jobs queued back to back before the drain loop starts:
        // their gaps are microseconds, far below the 78 ms (5 s / 64) at
        // which the window would fill a batch.
        let mut outcomes = Vec::new();
        for _ in 0..40 {
            let (reply, outcome) = reply();
            handle.submit(LR, texts(1), reply).map_err(|e| e.0).unwrap();
            outcomes.push(outcome);
        }
        let answers: Vec<_> = std::thread::scope(|scope| {
            for queue in queues {
                scope.spawn(|| queue.run(&registry));
            }
            // The loop drains all 40, finds the channel empty and, at this
            // rate, keeps the batch open: the late job joins and fills it.
            std::thread::sleep(Duration::from_millis(50));
            let (reply, outcome) = reply();
            handle
                .submit(LR, texts(24), reply)
                .map_err(|e| e.0)
                .unwrap();
            outcomes.push(outcome);
            let answers = outcomes.iter().map(|o| o.recv().unwrap().unwrap());
            let answers = answers.collect();
            drop(handle); // lets every drain loop exit
            answers
        });
        let want = model.probabilities_one("hello");
        let mut drained = Vec::new();
        for (rows, at, _) in answers {
            assert!(rows.iter().all(|row| *row == want));
            drained.push(at);
        }
        assert!(drained.iter().all(|&at| at == drained[0]), "split batch");
        assert_eq!(metrics.queue("LR", "classical").max_batch_size(), 64);
        assert_eq!(closes(&metrics), [Some(1.0), Some(0.0), Some(0.0)]);
    }
}
