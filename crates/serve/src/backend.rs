//! The serving backends: what `/explain` runs on and what
//! `/monitor/ingest` lands in.
//!
//! A daemon runs exactly one [`Backend`], chosen at startup:
//!
//! | backend   | explains                                  | ingest                     | admission load      |
//! |-----------|-------------------------------------------|----------------------------|---------------------|
//! | `Engine`  | in-RAM `BatchEngine` behind the [`Batcher`] | ΔI insert delta (+ slide) | batcher queue depth |
//! | `Paged`   | converted store through its page cache    | refused: the store is read-only | explains in flight |
//! | `Sharded` | scatter/gather over the shard workers     | forwarded to the owner shard | explains in flight |
//!
//! Every backend keeps the same contract: an explain runs under the
//! budget admission gave it and over one consistent context state, and
//! the rows `/healthz` reports are the rows `/explain` addresses. So the
//! app ([`crate::app`]) runs admission, the drain rule and rendering
//! once, for all three.

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Mutex, RwLock};
use std::thread::JoinHandle;

use cce_core::persist::Vfs;
use cce_core::{Alpha, BatchEngine, Context, PagedContextIndex, WorkBudget};
use cce_dataset::{Instance, Label, Schema};

use crate::batcher::{Batcher, BatcherConfig};
use crate::shard::{ShardedAnswer, ShardedBackend};

/// Sliding bound on the live ingest context: once the engine holds more
/// than `capacity` rows, every `delta` further arrivals evict the
/// `delta` oldest — each a tombstone delta, never a rebuild.
#[derive(Debug, Clone, Copy)]
pub struct LiveWindow {
    /// Live rows beyond which the context starts sliding.
    pub capacity: usize,
    /// ΔI: evictions happen in granules of this many rows.
    pub delta: usize,
}

/// The one backend a daemon serves from.
pub enum Backend<V: Vfs> {
    /// The in-RAM context behind the coalescing batcher and its thread.
    Engine {
        /// The coalescing queue over the shared engine.
        batcher: Arc<Batcher>,
        /// The batcher thread, joined by [`Backend::close`].
        worker: Mutex<Option<JoinHandle<()>>>,
        /// Optional ΔI bound on the live context (`None` → it only grows).
        window: Option<LiveWindow>,
        /// Arrivals past capacity awaiting the next ΔI slide; mutated
        /// only under the app's ingest lock.
        staged: AtomicUsize,
    },
    /// A converted store; explains fault its pages through the LRU cache
    /// one at a time under the lock, which also serializes cache mutation.
    Paged {
        /// The opened store.
        index: Box<Mutex<PagedContextIndex<V>>>,
        /// The conformity bound explains run at.
        alpha: Alpha,
        /// Explains waiting for or holding the lock.
        inflight: AtomicUsize,
    },
    /// Row partitions on supervised worker processes.
    Sharded {
        /// The scatter/gather router.
        router: Arc<ShardedBackend>,
        /// The serving schema (the router holds none).
        schema: Arc<Schema>,
        /// Explains inside the router.
        inflight: AtomicUsize,
    },
}

impl<V: Vfs> Backend<V> {
    /// An engine over `ctx`, its batcher thread started. `window`, when
    /// set, bounds the live context by ΔI slides.
    pub fn engine(
        ctx: Context,
        alpha: Alpha,
        batcher_cfg: BatcherConfig,
        window: Option<LiveWindow>,
    ) -> Self {
        let engine = BatchEngine::new(ctx, alpha);
        let batcher = Arc::new(Batcher::new(Arc::new(RwLock::new(engine)), batcher_cfg));
        let worker = {
            let batcher = Arc::clone(&batcher);
            std::thread::spawn(move || batcher.run())
        };
        Backend::Engine {
            batcher,
            worker: Mutex::new(Some(worker)),
            window,
            staged: AtomicUsize::new(0),
        }
    }

    /// A read-only backend over an opened store, explaining at `alpha`.
    pub fn paged(index: PagedContextIndex<V>, alpha: Alpha) -> Self {
        Backend::Paged {
            index: Box::new(Mutex::new(index)),
            alpha,
            inflight: AtomicUsize::new(0),
        }
    }

    /// A backend over a running shard router; `schema` is the schema the
    /// workers loaded.
    pub fn sharded(router: Arc<ShardedBackend>, schema: Arc<Schema>) -> Self {
        Backend::Sharded {
            router,
            schema,
            inflight: AtomicUsize::new(0),
        }
    }

    /// The serving schema.
    pub fn schema(&self) -> Arc<Schema> {
        match self {
            Backend::Engine { batcher, .. } => Arc::clone(read(batcher.engine()).schema()),
            Backend::Paged { index, .. } => Arc::clone(lock(index).store().schema()),
            Backend::Sharded { schema, .. } => Arc::clone(schema),
        }
    }

    /// The conformity bound explains run at.
    pub fn alpha(&self) -> Alpha {
        match self {
            Backend::Engine { batcher, .. } => read(batcher.engine()).alpha(),
            Backend::Paged { alpha, .. } => *alpha,
            Backend::Sharded { router, .. } => router.alpha(),
        }
    }

    /// The admission load, not counting the caller: explains queued
    /// (engine) or in flight (paged, sharded).
    pub fn load(&self) -> usize {
        match self {
            Backend::Engine { batcher, .. } => batcher.depth(),
            Backend::Paged { inflight, .. } | Backend::Sharded { inflight, .. } => {
                inflight.load(Ordering::SeqCst)
            }
        }
    }

    /// Explains row `target` under `budget`. A non-sharded answer is
    /// never partial. `None` when the engine's batcher no longer answers
    /// (its queue closed, or its thread died).
    pub fn explain(&self, target: usize, budget: WorkBudget) -> Option<ShardedAnswer> {
        let whole = |result| ShardedAnswer::Done {
            result,
            missing_shards: Vec::new(),
        };
        match self {
            Backend::Engine { batcher, .. } => {
                batcher.submit(target, budget)?.recv().ok().map(whole)
            }
            Backend::Paged {
                index,
                alpha,
                inflight,
            } => Some(whole(counted(inflight, || {
                lock(index).explain_row_budgeted(target, *alpha, budget)
            }))),
            Backend::Sharded {
                router, inflight, ..
            } => Some(counted(inflight, || router.explain(target as u64, budget))),
        }
    }

    /// True when `/monitor/ingest` must be refused: a store cannot take
    /// rows, and an ack for a row no explain sees would mislead.
    pub fn read_only(&self) -> bool {
        matches!(self, Backend::Paged { .. })
    }

    /// Lands one acknowledged arrival where explains see it and returns
    /// the rows they now address. The app calls it under its ingest
    /// lock, after the WAL, and never on a [read-only](Self::read_only)
    /// backend.
    pub fn ingest(&self, x: Instance, pred: Label) -> usize {
        match self {
            Backend::Engine {
                batcher,
                window,
                staged,
                ..
            } => {
                let mut engine = batcher.engine().write().unwrap_or_else(|e| e.into_inner());
                if engine.push(x, pred).is_err() {
                    // Unreachable when monitor and context share a schema, but a
                    // mismatched arrival must not poison the serving context.
                    cce_obs::counter!("cce_serve_live_push_rejected_total").inc();
                    return engine.len();
                }
                if let Some(w) = window {
                    if engine.len() > w.capacity {
                        let due = staged.fetch_add(1, Ordering::SeqCst) + 1;
                        if due >= w.delta {
                            engine.evict_oldest(due);
                            staged.store(0, Ordering::SeqCst);
                            cce_obs::counter!("cce_serve_window_slides_total").inc();
                        }
                    }
                }
                engine.len()
            }
            Backend::Paged { index, .. } => lock(index).len(),
            Backend::Sharded { router, .. } => router.push(x.values().to_vec(), pred.0).1 as usize,
        }
    }

    /// `/healthz`: the rows explains address, and the backend's own
    /// fields, each led by a comma.
    pub fn health(&self) -> (usize, String) {
        match self {
            Backend::Engine { batcher, .. } => {
                let engine = read(batcher.engine());
                let fields = format!(
                    ",\"version\":{},\"tombstones\":{},\"queue_depth\":{}",
                    engine.version(),
                    engine.tombstones(),
                    batcher.depth(),
                );
                (engine.len(), fields)
            }
            Backend::Paged {
                index, inflight, ..
            } => {
                let index = lock(index);
                let s = index.cache_stats();
                let fields = format!(
                    ",\"inflight\":{},\"pagestore\":{{\"store_rows\":{},\"resident_bytes\":{},\"budget_bytes\":{},\"hits\":{},\"misses\":{},\"evictions\":{},\"hit_rate\":{}}}",
                    inflight.load(Ordering::SeqCst),
                    index.len(),
                    s.resident_bytes,
                    s.budget_bytes,
                    s.hits,
                    s.misses,
                    s.evictions,
                    s.hit_rate(),
                );
                (index.len(), fields)
            }
            Backend::Sharded {
                router, inflight, ..
            } => {
                let fields = format!(
                    ",\"inflight\":{},\"shards\":{{\"total\":{},\"up\":{}}}",
                    inflight.load(Ordering::SeqCst),
                    router.n_shards(),
                    router.shards_up(),
                );
                (router.total_rows() as usize, fields)
            }
        }
    }

    /// The shard router, when sharded (the chaos endpoint).
    pub fn router(&self) -> Option<&Arc<ShardedBackend>> {
        match self {
            Backend::Sharded { router, .. } => Some(router),
            _ => None,
        }
    }

    /// Stops the backend once no request can reach it: the engine
    /// answers what is queued and joins its batcher thread; the router
    /// stops its workers. Idempotent.
    pub fn close(&self) {
        match self {
            Backend::Engine {
                batcher, worker, ..
            } => {
                batcher.close();
                if let Some(w) = lock(worker).take() {
                    let _ = w.join();
                }
            }
            Backend::Paged { .. } => {}
            Backend::Sharded { router, .. } => router.stop(),
        }
    }
}

impl<V: Vfs> Drop for Backend<V> {
    fn drop(&mut self) {
        self.close();
    }
}

/// Runs `f` counted in `inflight`.
fn counted<R>(inflight: &AtomicUsize, f: impl FnOnce() -> R) -> R {
    inflight.fetch_add(1, Ordering::SeqCst);
    let r = f();
    inflight.fetch_sub(1, Ordering::SeqCst);
    r
}

fn lock<T>(m: &Mutex<T>) -> std::sync::MutexGuard<'_, T> {
    m.lock().unwrap_or_else(|e| e.into_inner())
}

fn read(engine: &RwLock<BatchEngine>) -> std::sync::RwLockReadGuard<'_, BatchEngine> {
    engine.read().unwrap_or_else(|e| e.into_inner())
}
