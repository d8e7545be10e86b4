//! The scatter/gather router: the shared SRK driver
//! ([`cce_core::greedy`]) over counts gathered from the shards.
//!
//! Each [`Req::Counts`] round — target instance, its prediction,
//! key-so-far — asks every live shard for its live row and violator
//! counts and, per feature, its surviving violators and covered
//! supporters. Each count is additive over disjoint row partitions, so
//! the summed counts are exactly the single-process ones: gather #0
//! seeds the driver and each pick costs one more gather, whose sums
//! answer the next round. With no faults the result (key, status,
//! achieved conformity, the error cases) is byte-identical to the
//! single-process engine.
//!
//! Faults: when a shard call ultimately fails (after retries, hedge, and
//! breaker), the shard is excluded for the rest of this request and the
//! greedy **restarts from round zero** over the reduced live set — rounds
//! are cheap, and a restart guarantees every count in the final answer
//! was computed over one consistent partition set. The answer is then a
//! clean explanation over the surviving sub-context, labeled with the
//! missing shards so the caller can tell. Only when the *target row's
//! owner* is unreachable is there nothing left to explain against —
//! that surfaces as [`ShardedAnswer::Unavailable`] (a `503`, never a
//! `500`).

use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Mutex};

use cce_core::greedy::{self, Algo, CountSource};
use cce_core::{Alpha, BudgetedKey, ExplainError, WorkBudget};
use cce_dataset::Cat;

use super::client::ShardClient;
use super::shard_of;
use super::supervisor::SupervisorHandle;
use super::wire::{Req, Resp};

/// The in-memory ingest record the supervisor replays into a respawned
/// worker: every accepted live row, as `(global_index, values,
/// prediction)`. The PR-4 durable WAL remains the *persistence*
/// authority; this log exists so a worker respawned mid-flight can be
/// rebuilt without touching disk.
#[derive(Default)]
pub struct IngestLog {
    entries: Mutex<Vec<(u64, Vec<u32>, u32)>>,
}

impl IngestLog {
    /// An empty log.
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    /// Records one accepted row.
    pub fn append(&self, global: u64, x: Vec<u32>, pred: u32) {
        self.entries
            .lock()
            .unwrap_or_else(|e| e.into_inner())
            .push((global, x, pred));
    }

    /// The slice of the log owned by `shard` — what a respawned worker
    /// must replay on top of its base partition.
    #[must_use]
    pub fn for_shard(&self, shard: usize, n_shards: usize) -> Vec<(u64, Vec<u32>, u32)> {
        self.entries
            .lock()
            .unwrap_or_else(|e| e.into_inner())
            .iter()
            .filter(|(g, _, _)| shard_of(*g, n_shards) == shard)
            .cloned()
            .collect()
    }

    /// Total recorded rows.
    #[must_use]
    pub fn len(&self) -> usize {
        self.entries.lock().unwrap_or_else(|e| e.into_inner()).len()
    }

    /// True when nothing has been ingested yet.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

/// What a sharded explain produced.
#[derive(Debug)]
pub enum ShardedAnswer {
    /// An answer was computed — over all shards (`missing_shards` empty,
    /// byte-identical to the single-process engine) or over the
    /// surviving subset (explicitly partial).
    Done {
        /// The engine-shaped result, renderable by the existing
        /// `explain_response`.
        result: Result<BudgetedKey, ExplainError>,
        /// Shards that contributed nothing, ascending. Empty ⇒ complete.
        missing_shards: Vec<usize>,
    },
    /// The target row's owner shard (or every shard) was unreachable:
    /// there is no sub-context to answer from. Retryable — the
    /// supervisor is respawning.
    Unavailable {
        /// The unreachable shards, ascending.
        missing_shards: Vec<usize>,
    },
}

/// One round's gathered sums.
#[derive(Clone)]
struct Gathered {
    rows: u64,
    violators: u64,
    surv: Vec<u64>,
    cover: Vec<u64>,
}

/// One explain attempt over a fixed set of live shards. Its error is
/// the index of the shard whose call failed.
struct ShardSource<'a> {
    backend: &'a ShardedBackend,
    live: &'a [usize],
    x0: &'a [u32],
    p0: u32,
    picked: Vec<u32>,
    /// Gather #0: the seeds and the live row count.
    seeds: Gathered,
    /// The sums after the latest pick.
    now: Gathered,
}

impl CountSource for ShardSource<'_> {
    type Error = usize;
    const ALGO: Algo = Algo::Sharded;

    fn target(&self) -> &[Cat] {
        self.x0
    }

    /// The router holds no schema: workers load schema-checked rows and
    /// every ingest is checked against the schema before it is routed,
    /// so a fetched target's codes are in range.
    fn cardinalities(&self) -> impl ExactSizeIterator<Item = usize> + '_ {
        (0..self.backend.n_features).map(|_| usize::MAX)
    }

    fn live_rows(&self) -> usize {
        self.seeds.rows as usize
    }

    fn initial_violators(&self) -> Option<usize> {
        Some(self.seeds.violators as usize)
    }

    fn seeds(&self) -> impl Iterator<Item = (usize, usize)> + '_ {
        let Gathered { surv, cover, .. } = &self.seeds;
        surv.iter()
            .zip(cover)
            .map(|(&s, &c)| (s as usize, c as usize))
    }

    fn surv(&mut self, feature: usize) -> Result<usize, usize> {
        Ok(self.now.surv[feature] as usize)
    }

    fn cover(&mut self, feature: usize) -> Result<usize, usize> {
        Ok(self.now.cover[feature] as usize)
    }

    fn apply_pick(&mut self, feature: usize, _first: bool) -> Result<usize, usize> {
        self.picked.push(feature as u32);
        self.now = self
            .backend
            .gather(self.live, self.x0, self.p0, &self.picked)?;
        Ok(self.now.violators as usize)
    }
}

/// The sharded serving backend: shard clients, the ingest log, the row
/// counter that assigns global indices, and the supervisor handle.
pub struct ShardedBackend {
    alpha: Alpha,
    n_features: usize,
    clients: Vec<Arc<ShardClient>>,
    /// Total rows ever accepted (base CSV + live ingest); the next
    /// ingested row takes this as its global index.
    total_rows: AtomicU64,
    log: Arc<IngestLog>,
    supervisor: Mutex<Option<SupervisorHandle>>,
    inflight: AtomicUsize,
    chaos: bool,
}

impl ShardedBackend {
    /// A backend over `clients`, with `base_rows` rows already in the
    /// workers' base partitions. `chaos` enables the kill-shard admin
    /// endpoint.
    #[must_use]
    pub fn new(
        alpha: Alpha,
        n_features: usize,
        clients: Vec<Arc<ShardClient>>,
        base_rows: u64,
        log: Arc<IngestLog>,
        chaos: bool,
    ) -> Self {
        Self {
            alpha,
            n_features,
            clients,
            total_rows: AtomicU64::new(base_rows),
            log,
            supervisor: Mutex::new(None),
            inflight: AtomicUsize::new(0),
            chaos,
        }
    }

    /// Attaches the supervisor once the workers are up.
    pub fn set_supervisor(&self, handle: SupervisorHandle) {
        *self.supervisor.lock().unwrap_or_else(|e| e.into_inner()) = Some(handle);
    }

    /// Shard count.
    #[must_use]
    pub fn n_shards(&self) -> usize {
        self.clients.len()
    }

    /// Shards currently reachable.
    #[must_use]
    pub fn shards_up(&self) -> usize {
        self.clients.iter().filter(|c| c.is_up()).count()
    }

    /// Total rows (base + live ingest).
    #[must_use]
    pub fn total_rows(&self) -> u64 {
        self.total_rows.load(Ordering::SeqCst)
    }

    /// The configured conformity bound.
    #[must_use]
    pub fn alpha(&self) -> Alpha {
        self.alpha
    }

    /// Whether the kill-shard chaos endpoint is enabled.
    #[must_use]
    pub fn chaos_enabled(&self) -> bool {
        self.chaos
    }

    /// Current scatter concurrency (requests inside [`Self::explain`]).
    #[must_use]
    pub fn inflight(&self) -> usize {
        self.inflight.load(Ordering::SeqCst)
    }

    /// Asks the supervisor to kill one random live worker (chaos
    /// testing). Returns false when no supervisor is attached.
    pub fn kill_random_shard(&self) -> bool {
        match &*self.supervisor.lock().unwrap_or_else(|e| e.into_inner()) {
            Some(h) => h.kill_random(),
            None => false,
        }
    }

    /// Stops the supervisor and all workers (drain path). Idempotent.
    pub fn stop(&self) {
        if let Some(h) = self
            .supervisor
            .lock()
            .unwrap_or_else(|e| e.into_inner())
            .take()
        {
            h.stop();
        }
    }

    /// Accepts one live row: assigns it the next global index, records
    /// it in the replay log, and forwards it to its owner shard. A
    /// forward that fails after retries triggers a supervisor-driven
    /// restart of the owner, whose replay delivers the row — so an
    /// accepted row is never silently absent once the shard is healthy.
    ///
    /// Returns `(global_index, total_rows_after)`.
    pub fn push(self: &Arc<Self>, x: Vec<u32>, pred: u32) -> (u64, u64) {
        let global = self.total_rows.fetch_add(1, Ordering::SeqCst);
        self.log.append(global, x.clone(), pred);
        let owner = shard_of(global, self.n_shards());
        match self.clients[owner].call(&Req::Push { global, x, pred }) {
            Ok(Resp::Pushed { .. }) => {}
            _ => {
                cce_obs::counter!("cce_shard_push_forward_failures_total").inc();
                if let Some(h) = &*self.supervisor.lock().unwrap_or_else(|e| e.into_inner()) {
                    h.restart(owner);
                }
            }
        }
        (global, global + 1)
    }

    /// Scatters one counts round to `live` shards and sums. On a shard
    /// failure returns that shard's index so the caller can exclude it
    /// and restart.
    fn gather(
        &self,
        live: &[usize],
        x0: &[u32],
        pred: u32,
        picked: &[u32],
    ) -> Result<Gathered, usize> {
        cce_obs::counter!("cce_shard_scatter_rounds_total").inc();
        let req = Req::Counts {
            x: x0.to_vec(),
            pred,
            picked: picked.to_vec(),
        };
        let results: Vec<(usize, Result<Resp, super::client::CallError>)> =
            std::thread::scope(|s| {
                let handles: Vec<_> = live
                    .iter()
                    .map(|&i| {
                        let client = &self.clients[i];
                        let req = &req;
                        s.spawn(move || (i, client.call(req)))
                    })
                    .collect();
                handles.into_iter().map(|h| h.join().unwrap()).collect()
            });
        let mut g = Gathered {
            rows: 0,
            violators: 0,
            surv: vec![0; self.n_features],
            cover: vec![0; self.n_features],
        };
        for (i, r) in results {
            match r {
                Ok(Resp::Counts {
                    rows,
                    violators,
                    surv,
                    cover,
                }) if surv.len() == self.n_features && cover.len() == self.n_features => {
                    g.rows += rows;
                    g.violators += violators;
                    for (a, b) in g.surv.iter_mut().zip(&surv) {
                        *a += b;
                    }
                    for (a, b) in g.cover.iter_mut().zip(&cover) {
                        *a += b;
                    }
                }
                _ => return Err(i),
            }
        }
        Ok(g)
    }

    /// Distributed `Srk::explain_budgeted` for global row `target`.
    ///
    /// With all shards reachable the returned result is byte-identical
    /// to the single-process engine over the same rows. With shards down
    /// or failing mid-request, the greedy restarts over the surviving
    /// partitions and the answer is labeled with the missing shards.
    pub fn explain(self: &Arc<Self>, target: u64, budget: WorkBudget) -> ShardedAnswer {
        self.inflight.fetch_add(1, Ordering::SeqCst);
        let answer = self.explain_inner(target, budget);
        self.inflight.fetch_sub(1, Ordering::SeqCst);
        if let ShardedAnswer::Done { missing_shards, .. } = &answer {
            if !missing_shards.is_empty() {
                cce_obs::counter!("cce_shard_partial_answers_total").inc();
            }
        }
        answer
    }

    fn explain_inner(self: &Arc<Self>, target: u64, budget: WorkBudget) -> ShardedAnswer {
        let n_shards = self.n_shards();
        // Shards already known-down are excluded from the start; shards
        // that fail mid-request join them and trigger a restart.
        let mut excluded: Vec<usize> = (0..n_shards)
            .filter(|&i| !self.clients[i].is_up())
            .collect();

        // Input validation mirrors `Context::check_target` over the full
        // (global) row space.
        let total = self.total_rows();
        if total == 0 {
            return ShardedAnswer::Done {
                result: Err(ExplainError::EmptyContext),
                missing_shards: excluded,
            };
        }
        if target >= total {
            return ShardedAnswer::Done {
                result: Err(ExplainError::TargetOutOfRange {
                    target: target as usize,
                    len: total as usize,
                }),
                missing_shards: excluded,
            };
        }

        // The target row lives on exactly one shard; without it there is
        // nothing to explain relative to.
        let owner = shard_of(target, n_shards);
        if excluded.contains(&owner) {
            excluded.sort_unstable();
            return ShardedAnswer::Unavailable {
                missing_shards: excluded,
            };
        }
        let (x0, p0) = match self.clients[owner].call(&Req::Fetch { global: target }) {
            Ok(Resp::Row { x, pred }) if x.len() == self.n_features => (x, pred),
            _ => {
                excluded.push(owner);
                excluded.sort_unstable();
                return ShardedAnswer::Unavailable {
                    missing_shards: excluded,
                };
            }
        };

        // Restart loop: each iteration runs the whole greedy over one
        // fixed live set; a shard failure shrinks the set and retries.
        loop {
            let live: Vec<usize> = (0..n_shards).filter(|i| !excluded.contains(i)).collect();
            if !live.contains(&owner) {
                excluded.sort_unstable();
                return ShardedAnswer::Unavailable {
                    missing_shards: excluded,
                };
            }
            let answer = self.gather(&live, &x0, p0, &[]).and_then(|seeds| {
                let mut src = ShardSource {
                    backend: self,
                    live: &live,
                    x0: &x0,
                    p0,
                    picked: Vec::new(),
                    now: seeds.clone(),
                    seeds,
                };
                greedy::explain(&mut src, self.alpha, budget)
            });
            match answer {
                Ok(result) => {
                    excluded.sort_unstable();
                    return ShardedAnswer::Done {
                        result,
                        missing_shards: excluded,
                    };
                }
                Err(failed) => excluded.push(failed),
            }
        }
    }
}
