//! Per-model micro-batching executor.
//!
//! Each loaded model owns one executor thread. Request handlers validate
//! rows against the artifact schema, then submit a [`PredictJob`] carrying
//! the pre-built [`Dataset`]; the executor coalesces whatever jobs arrive
//! within a short window (flushing at `max_batch` rows or after
//! `batch_wait`) and runs **one** pipeline pass over the concatenated
//! rows, slicing the outputs back per job.
//!
//! Two invariants shape the flush logic:
//!
//! * **Bit-exactness.** Hard labels come from `FittedPipeline::predict`
//!   on the coalesced dataset — never re-derived from scores — so batched
//!   predictions are byte-identical to an offline `predict` over the same
//!   rows (thresholding scores would disagree with the model's raw-margin
//!   decision for |z| within rounding of the sigmoid's 0.5 crossing).
//! * **Stochastic pipelines never coalesce.** Hardt and Pleiss consume
//!   seeded randomness keyed on the batch's row count, so merging
//!   requests would change every participant's predictions. Pipelines
//!   reporting [`FittedPipeline::is_stochastic`] flush one job at a time;
//!   deterministic pipelines are invariant under concatenation.
//!
//! Deadlines ride on [`fairlens_budget::Budget`]: the handler cancels the
//! job's budget when its deadline expires, the executor drops cancelled
//! jobs at dequeue, and single-job flushes install the budget so any
//! `checkpoint()` inside the pipeline unwinds early (merged flushes skip
//! the install — one request's deadline must not abort its batchmates).
//!
//! Overload protection: the job channel is **bounded** at
//! [`BatchConfig::max_queue`] jobs. [`ModelWorker::submit`] never blocks
//! and never panics — a full queue is an immediate structured
//! `overloaded` (429) shed, and a dead executor (one whose thread was
//! killed by a panic) is an `unavailable` (503) that the registry's
//! supervision layer turns into a breaker trip and a lazy respawn from
//! the artifact. The live queue depth is mirrored into the
//! `fairlens_queue_depth` gauge on every enqueue/dequeue.

use std::panic::{self, AssertUnwindSafe};
use std::sync::mpsc::{self, Receiver, RecvTimeoutError, SyncSender, TrySendError};
use std::sync::{Arc, Mutex};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use fairlens_budget::{Budget, Interrupted};
use fairlens_core::{DataSchema, FittedPipeline};
use fairlens_frame::Dataset;

use crate::error::{ErrorKind, ServeError};
use crate::faults::{ServeFaultKind, ServeFaults};
use crate::metrics::Metrics;

/// Executor tuning knobs.
#[derive(Debug, Clone, Copy)]
pub struct BatchConfig {
    /// Flush as soon as at least this many rows are queued.
    pub max_batch: usize,
    /// Flush after this long even if the batch is smaller.
    pub batch_wait: Duration,
    /// Bound on queued (not-yet-flushed) jobs; submissions past it are
    /// shed with a 429 instead of growing the queue (min 1).
    pub max_queue: usize,
}

impl Default for BatchConfig {
    fn default() -> Self {
        Self { max_batch: 64, batch_wait: Duration::from_millis(2), max_queue: 256 }
    }
}

/// The per-request output: hard labels plus pipeline scores, annotated
/// with where the request's time went inside the executor (the handler
/// turns these into trace spans and phase histograms).
#[derive(Debug, Clone, PartialEq)]
pub struct PredictOutput {
    /// Hard 0/1 predictions, one per submitted row.
    pub labels: Vec<u8>,
    /// Score per row (model probability, or the post rule's expected label).
    pub scores: Vec<f64>,
    /// Time from submit to the start of the flush that served this job.
    pub queue_us: u64,
    /// The flush's pipeline pass (predict + predict_proba), shared by
    /// every job in the batch.
    pub predict_us: u64,
    /// Flush overhead around the pipeline pass (concat, slicing, replies).
    pub batch_us: u64,
}

/// One request's unit of work for the executor.
pub struct PredictJob {
    /// Rows already validated against the model's schema.
    pub data: Dataset,
    /// Where the executor sends the outcome.
    pub reply: SyncSender<Result<PredictOutput, ServeError>>,
    /// Cancelled by the handler on deadline expiry.
    pub budget: Budget,
    /// When the handler queued the job; anchors `queue_us`.
    pub submitted: Instant,
}

/// A loaded model wired to its executor thread. Dropping the worker drops
/// the job channel and joins the executor, so LRU eviction (dropping the
/// last `Arc<ModelWorker>`) drains in-flight jobs before unloading.
pub struct ModelWorker {
    /// Schema requests are validated against.
    pub schema: DataSchema,
    /// Whether the pipeline forbids cross-request coalescing.
    pub stochastic: bool,
    model_id: String,
    tx: Option<SyncSender<PredictJob>>,
    handle: Option<JoinHandle<()>>,
    /// Jobs enqueued but not yet dequeued by the executor; mirrored into
    /// the `fairlens_queue_depth{model=...}` gauge. The gauge is written
    /// while this lock is held, so gauge writes follow the order of the
    /// depth changes and the last one is the live depth.
    depth: Arc<Mutex<u64>>,
    metrics: Arc<Metrics>,
}

impl ModelWorker {
    /// Restore-and-spawn: the executor thread takes ownership of the
    /// pipeline; the returned worker is the submission handle.
    pub fn spawn(
        model_id: &str,
        schema: DataSchema,
        pipeline: FittedPipeline,
        cfg: BatchConfig,
        metrics: Arc<Metrics>,
        faults: Arc<ServeFaults>,
    ) -> Self {
        let stochastic = pipeline.is_stochastic();
        let (tx, rx) = mpsc::sync_channel::<PredictJob>(cfg.max_queue.max(1));
        let cfg = if stochastic { BatchConfig { max_batch: 1, ..cfg } } else { cfg };
        let depth = Arc::new(Mutex::new(0));
        let handle = {
            let depth = depth.clone();
            let metrics = metrics.clone();
            let model_id = model_id.to_string();
            std::thread::Builder::new()
                .name(format!("flm-{model_id}"))
                .spawn(move || {
                    executor_loop(&model_id, &pipeline, &rx, cfg, &metrics, &depth, &faults)
                })
                .expect("spawn model executor")
        };
        Self {
            schema,
            stochastic,
            model_id: model_id.to_string(),
            tx: Some(tx),
            handle: Some(handle),
            depth,
            metrics,
        }
    }

    /// Queue a job without blocking. A full queue is an `overloaded`
    /// (429) shed; a dead executor — its thread killed by a panic that
    /// escaped the flush guard — is a structured `unavailable` (503),
    /// never a handler panic. The caller (the predict handler) reports
    /// the dead case to the registry so the breaker trips and the
    /// executor is respawned from the artifact.
    pub fn submit(&self, job: PredictJob) -> Result<(), ServeError> {
        let Some(tx) = self.tx.as_ref() else {
            // Retry-After 1: the registry respawns the executor on the
            // next admitted request, so an immediate retry usually lands.
            return Err(ServeError::new(
                ErrorKind::Unavailable,
                format!("model {:?} executor is shut down", self.model_id),
            )
            .with_retry_after(1));
        };
        // Hold the depth lock across `try_send`: the executor may dequeue
        // the instant the job lands, and its decrement (and gauge write)
        // must wait for this increment, or the gauge ends on a stale
        // value.
        let mut depth = self.depth.lock().expect("queue depth lock poisoned");
        match tx.try_send(job) {
            Ok(()) => {
                *depth += 1;
                self.metrics.set_queue_depth(&self.model_id, *depth);
                Ok(())
            }
            Err(TrySendError::Full(_)) => Err(ServeError::new(
                ErrorKind::Overloaded,
                format!("model {:?} queue is full; retry shortly", self.model_id),
            )
            .with_retry_after(1)),
            Err(TrySendError::Disconnected(_)) => Err(ServeError::new(
                ErrorKind::Unavailable,
                format!("model {:?} executor died; it will be restarted", self.model_id),
            )
            .with_retry_after(1)),
        }
    }

    /// Whether the executor thread has exited (its receiver is gone).
    /// `true` after a panic killed it; the registry uses this to decide
    /// on a respawn.
    pub fn is_dead(&self) -> bool {
        self.handle.as_ref().is_some_and(JoinHandle::is_finished)
    }
}

impl std::fmt::Debug for ModelWorker {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ModelWorker")
            .field("model_id", &self.model_id)
            .field("stochastic", &self.stochastic)
            .field("dead", &self.is_dead())
            .finish_non_exhaustive()
    }
}

impl Drop for ModelWorker {
    fn drop(&mut self) {
        // Closing the channel lets the executor drain queued jobs and
        // exit; joining makes eviction and shutdown deterministic.
        drop(self.tx.take());
        if let Some(h) = self.handle.take() {
            let _ = h.join();
        }
    }
}

/// Concatenate schema-identical datasets into one. The parts all come
/// from `DataSchema::dataset_from_rows` on the same schema, so columns
/// align by construction.
pub fn concat_datasets(parts: &[&Dataset]) -> Dataset {
    let mut merged = parts[0].clone();
    for part in &parts[1..] {
        for row in 0..part.n_rows() {
            merged.push_row_from(part, row);
        }
    }
    merged
}

fn executor_loop(
    model_id: &str,
    pipeline: &FittedPipeline,
    rx: &Receiver<PredictJob>,
    cfg: BatchConfig,
    metrics: &Metrics,
    depth: &Mutex<u64>,
    faults: &ServeFaults,
) {
    let dequeued = |n: u64| {
        let mut d = depth.lock().expect("queue depth lock poisoned");
        *d = d.saturating_sub(n);
        metrics.set_queue_depth(model_id, *d);
    };
    loop {
        // Block for the first job; channel closure is the stop signal.
        let first = match rx.recv() {
            Ok(job) => job,
            Err(_) => return,
        };
        dequeued(1);
        // Chaos hook: die at dequeue, before the flush guard. The held
        // job unwinds with the thread (its handler observes a closed
        // reply channel → structured 503), queued jobs likewise; the
        // registry respawns the executor from the artifact on the next
        // admitted request.
        if !faults.is_empty() && faults.take(model_id, ServeFaultKind::Panic) {
            panic!("injected executor panic for model {model_id}");
        }
        // Chaos hook for the fleet supervisor: take the whole process
        // down, not just this executor. stderr is unbuffered, so the
        // marker reaches the supervisor's log before the abort lands.
        if !faults.is_empty() && faults.take(model_id, ServeFaultKind::Abort) {
            eprintln!("[serve] injected abort fault for model {model_id}: aborting process");
            std::process::abort();
        }
        let mut jobs = vec![first];
        let mut rows = jobs[0].data.n_rows();
        let deadline = Instant::now() + cfg.batch_wait;
        // Coalesce until the row target or the wait window is hit.
        while rows < cfg.max_batch {
            let now = Instant::now();
            if now >= deadline {
                break;
            }
            match rx.recv_timeout(deadline - now) {
                Ok(job) => {
                    dequeued(1);
                    rows += job.data.n_rows();
                    jobs.push(job);
                }
                Err(RecvTimeoutError::Timeout) | Err(RecvTimeoutError::Disconnected) => break,
            }
        }
        // A job whose deadline already fired has no listener; skip it
        // rather than spend a matrix pass on it.
        jobs.retain(|j| !j.budget.is_cancelled());
        if jobs.is_empty() {
            continue;
        }
        flush(model_id, pipeline, &jobs, metrics, faults);
    }
}

/// One coalesced pipeline pass; slices outputs back per job.
fn flush(
    model_id: &str,
    pipeline: &FittedPipeline,
    jobs: &[PredictJob],
    metrics: &Metrics,
    faults: &ServeFaults,
) {
    if !faults.is_empty() {
        if faults.take(model_id, ServeFaultKind::Hang) {
            // Stall until the first job's handler cancels its budget at
            // the request deadline (bounded so a deadline-less test can
            // never wedge the executor), then time the whole flush out.
            jobs[0].budget.wait_cancelled(Duration::from_millis(2), Duration::from_secs(30));
            let err = ServeError::new(
                ErrorKind::TimedOut,
                "injected hang fault: flush stalled past the request deadline",
            );
            for job in jobs {
                let _ = job.reply.send(Err(err.clone()));
            }
            return;
        }
        if faults.take(model_id, ServeFaultKind::Flaky) {
            let err =
                ServeError::new(ErrorKind::Internal, "injected flaky fault: flush failed");
            for job in jobs {
                let _ = job.reply.send(Err(err.clone()));
            }
            return;
        }
    }
    let flush_start = Instant::now();
    let total: usize = jobs.iter().map(|j| j.data.n_rows()).sum();
    metrics.record_flush(total);
    let merged;
    let batch = if jobs.len() == 1 {
        &jobs[0].data
    } else {
        let parts: Vec<&Dataset> = jobs.iter().map(|j| &j.data).collect();
        merged = concat_datasets(&parts);
        &merged
    };
    let outcome = panic::catch_unwind(AssertUnwindSafe(|| {
        // Only a lone job may arm its budget: in a merged batch one
        // request's expiry must not unwind its batchmates' pass.
        let _guard = (jobs.len() == 1).then(|| jobs[0].budget.install());
        let t0 = Instant::now();
        // One encode + one batched GEMV serves both outputs; bit-identical
        // to the separate predict / predict_proba calls (see
        // `FittedPipeline::predict_with_proba`).
        let (labels, scores) = pipeline.predict_with_proba(batch);
        (labels, scores, t0.elapsed().as_micros() as u64)
    }));
    match outcome {
        Ok((labels, scores, predict_us)) => {
            let batch_us =
                (flush_start.elapsed().as_micros() as u64).saturating_sub(predict_us);
            let mut offset = 0;
            for job in jobs {
                let n = job.data.n_rows();
                let out = PredictOutput {
                    labels: labels[offset..offset + n].to_vec(),
                    scores: scores[offset..offset + n].to_vec(),
                    queue_us: flush_start.saturating_duration_since(job.submitted).as_micros()
                        as u64,
                    predict_us,
                    batch_us,
                };
                offset += n;
                let _ = job.reply.send(Ok(out));
            }
        }
        Err(payload) => {
            let err = if payload.downcast_ref::<Interrupted>().is_some() {
                ServeError::new(ErrorKind::TimedOut, "prediction exceeded the request deadline")
            } else {
                let msg = payload
                    .downcast_ref::<&str>()
                    .map(|s| (*s).to_string())
                    .or_else(|| payload.downcast_ref::<String>().cloned())
                    .unwrap_or_else(|| "non-string panic payload".into());
                ServeError::new(ErrorKind::Internal, format!("prediction panicked: {msg}"))
            };
            for job in jobs {
                let _ = job.reply.send(Err(err.clone()));
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use fairlens_core::baseline_approach;
    use fairlens_synth::DatasetKind;

    fn fitted_german() -> (FittedPipeline, Dataset) {
        let data = DatasetKind::German.generate(300, 7);
        let fitted = baseline_approach().fit(&data, 7).unwrap();
        (fitted, data)
    }

    fn no_faults() -> Arc<ServeFaults> {
        Arc::new(ServeFaults::none())
    }

    fn submit(worker: &ModelWorker, data: Dataset) -> mpsc::Receiver<Result<PredictOutput, ServeError>> {
        let (reply, rx) = mpsc::sync_channel(1);
        worker
            .submit(PredictJob { data, reply, budget: Budget::new(), submitted: Instant::now() })
            .unwrap();
        rx
    }

    #[test]
    fn concat_preserves_rows() {
        let data = DatasetKind::German.generate(50, 3);
        let a = data.select_rows(&(0..20).collect::<Vec<_>>());
        let b = data.select_rows(&(20..50).collect::<Vec<_>>());
        let merged = concat_datasets(&[&a, &b]);
        assert_eq!(merged.n_rows(), 50);
        assert_eq!(merged.labels(), data.labels());
        assert_eq!(merged.sensitive(), data.sensitive());
    }

    #[test]
    fn coalesced_predictions_match_offline_predict() {
        let (fitted, data) = fitted_german();
        let expected = fitted.predict(&data);
        let expected_scores = fitted.predict_proba(&data);
        let metrics = Arc::new(Metrics::new());
        // A generous wait so both jobs land in one flush.
        let cfg = BatchConfig {
            max_batch: 1024,
            batch_wait: Duration::from_millis(200),
            ..BatchConfig::default()
        };
        let schema = DataSchema::of(&data);
        let worker =
            ModelWorker::spawn("t", schema, fitted, cfg, metrics.clone(), no_faults());
        let a = data.select_rows(&(0..120).collect::<Vec<_>>());
        let b = data.select_rows(&(120..300).collect::<Vec<_>>());
        let rx_a = submit(&worker, a);
        let rx_b = submit(&worker, b);
        let out_a = rx_a.recv_timeout(Duration::from_secs(5)).unwrap().unwrap();
        let out_b = rx_b.recv_timeout(Duration::from_secs(5)).unwrap().unwrap();
        assert_eq!(out_a.labels, expected[..120]);
        assert_eq!(out_b.labels, expected[120..]);
        let scores: Vec<f64> = out_a.scores.iter().chain(&out_b.scores).copied().collect();
        assert_eq!(
            scores.iter().map(|s| s.to_bits()).collect::<Vec<_>>(),
            expected_scores.iter().map(|s| s.to_bits()).collect::<Vec<_>>(),
        );
        drop(worker);
        assert!(metrics.render().contains("fairlens_batch_rows_count 1"));
    }

    #[test]
    fn cancelled_jobs_are_dropped_at_dequeue() {
        let (fitted, data) = fitted_german();
        let metrics = Arc::new(Metrics::new());
        let schema = DataSchema::of(&data);
        let worker = ModelWorker::spawn(
            "t",
            schema,
            fitted,
            BatchConfig::default(),
            metrics.clone(),
            no_faults(),
        );
        let budget = Budget::new();
        budget.cancel();
        let (reply, rx) = mpsc::sync_channel(1);
        worker
            .submit(PredictJob {
                data: data.select_rows(&[0, 1]),
                reply,
                budget,
                submitted: Instant::now(),
            })
            .unwrap();
        drop(worker); // join: executor saw and skipped the job
        assert!(rx.try_recv().is_err());
        assert!(metrics.render().contains("fairlens_batch_rows_count 0"));
    }

    #[test]
    fn full_queue_sheds_with_a_structured_429() {
        let (fitted, data) = fitted_german();
        let metrics = Arc::new(Metrics::new());
        // A hang fault parks the executor on the first job so later
        // submissions genuinely queue; capacity 1 makes the third
        // submission overflow deterministically.
        let faults = Arc::new(ServeFaults::parse("hang:t:1").unwrap());
        let cfg = BatchConfig { max_queue: 1, max_batch: 1, ..BatchConfig::default() };
        let worker =
            ModelWorker::spawn("t", DataSchema::of(&data), fitted, cfg, metrics.clone(), faults);
        let stall = Budget::new();
        let (stall_reply, stall_rx) = mpsc::sync_channel(1);
        worker
            .submit(PredictJob {
                data: data.select_rows(&[0]),
                reply: stall_reply,
                budget: stall.clone(),
                submitted: Instant::now(),
            })
            .unwrap();
        // Give the executor time to dequeue the stalled job, then fill
        // the queue and overflow it.
        std::thread::sleep(Duration::from_millis(50));
        let _queued_rx = submit(&worker, data.select_rows(&[1]));
        let (reply, _rx) = mpsc::sync_channel(1);
        let err = worker
            .submit(PredictJob {
                data: data.select_rows(&[2]),
                reply,
                budget: Budget::new(),
                submitted: Instant::now(),
            })
            .unwrap_err();
        assert_eq!(err.kind, ErrorKind::Overloaded);
        assert_eq!(err.retry_after, Some(1));
        assert!(metrics.render().contains("fairlens_queue_depth{model=\"t\"} 1"));
        // Release the stalled flush (as the handler's deadline would).
        stall.cancel();
        let stalled = stall_rx.recv_timeout(Duration::from_secs(5)).unwrap().unwrap_err();
        assert_eq!(stalled.kind, ErrorKind::TimedOut);
    }

    #[test]
    fn dead_executor_yields_structured_unavailable_not_a_panic() {
        let (fitted, data) = fitted_german();
        let faults = Arc::new(ServeFaults::parse("panic:t:1").unwrap());
        let worker = ModelWorker::spawn(
            "t",
            DataSchema::of(&data),
            fitted,
            BatchConfig::default(),
            Arc::new(Metrics::new()),
            faults,
        );
        // First job: the executor panics at dequeue; the reply channel
        // closes without an answer.
        let rx = submit(&worker, data.select_rows(&[0]));
        assert!(rx.recv_timeout(Duration::from_secs(5)).is_err());
        // The reply channel drops mid-unwind, slightly before the job
        // channel's receiver; wait for the thread to finish so the
        // disconnect is observable.
        let deadline = Instant::now() + Duration::from_secs(5);
        while !worker.is_dead() && Instant::now() < deadline {
            std::thread::sleep(Duration::from_millis(2));
        }
        // The executor is now dead: submit must return a structured 503,
        // never expect-panic the calling HTTP worker.
        let (reply, _rx2) = mpsc::sync_channel(1);
        let err = worker
            .submit(PredictJob {
                data: data.select_rows(&[1]),
                reply,
                budget: Budget::new(),
                submitted: Instant::now(),
            })
            .unwrap_err();
        assert_eq!(err.kind, ErrorKind::Unavailable);
        assert!(worker.is_dead());
    }

    #[test]
    fn flaky_fault_fails_exactly_k_flushes_then_recovers() {
        let (fitted, data) = fitted_german();
        let expected = fitted.predict(&data.select_rows(&[0]));
        let faults = Arc::new(ServeFaults::parse("flaky:2:t").unwrap());
        let cfg = BatchConfig { max_batch: 1, ..BatchConfig::default() };
        let worker = ModelWorker::spawn(
            "t",
            DataSchema::of(&data),
            fitted,
            cfg,
            Arc::new(Metrics::new()),
            faults,
        );
        for _ in 0..2 {
            let rx = submit(&worker, data.select_rows(&[0]));
            let err = rx.recv_timeout(Duration::from_secs(5)).unwrap().unwrap_err();
            assert_eq!(err.kind, ErrorKind::Internal);
            assert!(err.message.contains("injected"), "{err}");
        }
        // Budget spent: the third flush succeeds with correct output.
        let rx = submit(&worker, data.select_rows(&[0]));
        let out = rx.recv_timeout(Duration::from_secs(5)).unwrap().unwrap();
        assert_eq!(out.labels, expected);
    }

    #[test]
    fn drop_drains_queued_jobs() {
        let (fitted, data) = fitted_german();
        let worker = ModelWorker::spawn(
            "t",
            DataSchema::of(&data),
            fitted,
            BatchConfig::default(),
            Arc::new(Metrics::new()),
            no_faults(),
        );
        let receivers: Vec<_> =
            (0..8).map(|i| submit(&worker, data.select_rows(&[i, i + 8]))).collect();
        drop(worker);
        for rx in receivers {
            assert!(rx.try_recv().expect("drained before join").is_ok());
        }
    }
}
