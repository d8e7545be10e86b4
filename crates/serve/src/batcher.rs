//! The request-coalescing queue feeding explain micro-batches.
//!
//! Concurrent `POST /explain` requests land in one queue; a single
//! batcher thread drains it in micro-batches bounded by `max_batch` and
//! a linger window, and runs each batch through the shared
//! [`BatchEngine`] — so requests arriving together share one
//! duplicate-row memo pass and fan out across the engine's scoped
//! workers, exactly like the offline batch path. Each connection thread
//! blocks on a oneshot-style channel for its own result; batching is
//! invisible in the response bytes (the coalescing differential test
//! proves them identical to per-request [`Srk::explain`]).
//!
//! Each job carries the work budget admission gave it; a batch runs as
//! one engine pass per run of equal budgets. The queue depth is the
//! engine backend's admission load ([`crate::backend`]).
//!
//! [`Srk::explain`]: cce_core::Srk::explain

use std::collections::VecDeque;
use std::sync::mpsc;
use std::sync::{Arc, Condvar, Mutex, MutexGuard, RwLock};
use std::time::{Duration, Instant};

use cce_core::{BatchEngine, BudgetedKey, ExplainError, WorkBudget};

/// Coalescing parameters.
#[derive(Debug, Clone, Copy)]
pub struct BatcherConfig {
    /// Largest micro-batch drained at once.
    pub max_batch: usize,
    /// How long the batcher waits for co-travelers after the first
    /// request of a batch arrives.
    pub linger: Duration,
    /// Worker threads the engine may fan one batch over.
    pub threads: usize,
}

impl Default for BatcherConfig {
    fn default() -> Self {
        Self {
            max_batch: 64,
            linger: Duration::from_millis(2),
            threads: std::thread::available_parallelism()
                .map(std::num::NonZeroUsize::get)
                .unwrap_or(4),
        }
    }
}

struct Job {
    target: usize,
    budget: WorkBudget,
    tx: mpsc::Sender<Result<BudgetedKey, ExplainError>>,
}

struct QueueState {
    queue: VecDeque<Job>,
    open: bool,
}

/// The coalescing queue plus its drain loop.
///
/// The engine sits behind an `RwLock` so the ingest path can apply
/// context **deltas** concurrently with serving: explain batches take
/// the read lock, arrivals/evictions take the write lock briefly (the
/// patch is microseconds — no index rebuild happens on either side).
pub struct Batcher {
    engine: Arc<RwLock<BatchEngine>>,
    cfg: BatcherConfig,
    state: Mutex<QueueState>,
    cv: Condvar,
}

impl Batcher {
    /// A new open queue over `engine`.
    pub fn new(engine: Arc<RwLock<BatchEngine>>, cfg: BatcherConfig) -> Self {
        Self {
            engine,
            cfg,
            state: Mutex::new(QueueState {
                queue: VecDeque::new(),
                open: true,
            }),
            cv: Condvar::new(),
        }
    }

    /// The shared engine (health reporting and the live ingest deltas).
    pub fn engine(&self) -> &Arc<RwLock<BatchEngine>> {
        &self.engine
    }

    fn lock(&self) -> MutexGuard<'_, QueueState> {
        self.state.lock().unwrap_or_else(|e| e.into_inner())
    }

    /// Queues one target for explanation under `budget`; await the
    /// result on the receiver. `None` once the queue is closed.
    pub fn submit(
        &self,
        target: usize,
        budget: WorkBudget,
    ) -> Option<mpsc::Receiver<Result<BudgetedKey, ExplainError>>> {
        let mut st = self.lock();
        if !st.open {
            return None;
        }
        let (tx, rx) = mpsc::channel();
        st.queue.push_back(Job { target, budget, tx });
        cce_obs::gauge!("cce_serve_queue_depth").set(st.queue.len() as i64);
        drop(st);
        self.cv.notify_all();
        Some(rx)
    }

    /// Current queue depth (tests and `/healthz`).
    pub fn depth(&self) -> usize {
        self.lock().queue.len()
    }

    /// Closes the queue: new submits get `None`; the run loop drains
    /// what is already queued, then returns.
    pub fn close(&self) {
        self.lock().open = false;
        self.cv.notify_all();
    }

    /// The batcher thread body: drains micro-batches until the queue is
    /// closed *and* empty. Every dequeued job is answered — even during
    /// drain — so no accepted request is ever dropped.
    pub fn run(&self) {
        loop {
            let batch = self.next_batch();
            let Some(batch) = batch else { return };
            cce_obs::histogram!("cce_serve_batch_size").record(batch.len() as u64);
            let t0 = Instant::now();
            let mut results = Vec::with_capacity(batch.len());
            let mut rest = &batch[..];
            while let Some(first) = rest.first() {
                let n = rest.iter().take_while(|j| j.budget == first.budget).count();
                let targets: Vec<usize> = rest[..n].iter().map(|j| j.target).collect();
                rest = &rest[n..];
                if first.budget != WorkBudget::unlimited() {
                    cce_obs::counter!("cce_serve_degraded_batches_total").inc();
                }
                results.extend(
                    self.engine
                        .read()
                        .unwrap_or_else(|e| e.into_inner())
                        .explain_batch(&targets, first.budget, self.cfg.threads),
                );
            }
            cce_obs::histogram!("cce_serve_batch_explain_ns")
                .record(t0.elapsed().as_nanos() as u64);
            for (job, result) in batch.into_iter().zip(results) {
                // A receiver may have given up (client gone); that is fine.
                let _ = job.tx.send(result);
            }
        }
    }

    /// Blocks for the next micro-batch; `None` means closed and drained.
    fn next_batch(&self) -> Option<Vec<Job>> {
        let mut st = self.lock();
        while st.queue.is_empty() {
            if !st.open {
                return None;
            }
            st = self.cv.wait(st).unwrap_or_else(|e| e.into_inner());
        }
        // First job seen: linger briefly so concurrent requests coalesce
        // into one engine pass (bounded by max_batch).
        let deadline = Instant::now() + self.cfg.linger;
        while st.queue.len() < self.cfg.max_batch && st.open {
            let now = Instant::now();
            let Some(left) = deadline
                .checked_duration_since(now)
                .filter(|d| !d.is_zero())
            else {
                break;
            };
            let (guard, timeout) = self
                .cv
                .wait_timeout(st, left)
                .unwrap_or_else(|e| e.into_inner());
            st = guard;
            if timeout.timed_out() {
                break;
            }
        }
        let take = st.queue.len().min(self.cfg.max_batch);
        let batch: Vec<Job> = st.queue.drain(..take).collect();
        cce_obs::gauge!("cce_serve_queue_depth").set(st.queue.len() as i64);
        Some(batch)
    }
}
