//! Layers measured in process: `perfbench` calls `ContextIndex`,
//! `PagedContextIndex` over a store of its own and, over shard workers of
//! its own, `ShardedBackend` and `ShardClient` directly, one span per
//! call, and checks every answer against `Srk` over the same rows.

use std::path::Path;
use std::sync::Arc;
use std::time::{Duration, Instant};

use cce_core::persist::StdVfs;
use cce_core::{Alpha, Context, ContextIndex, ExplainScratch, PagedContextIndex, Srk, WorkBudget};
use cce_serve::shard::{
    spawn_shards, IngestLog, Req, Resp, ShardClient, ShardPolicy, ShardedAnswer, ShardedBackend,
    WorkerSpec,
};

use crate::util::{Counts, Trace};

/// What one layer's calls measured.
pub struct Measured {
    /// Mean time in µs of the layer's call (`explain_with`,
    /// `ShardClient::call`).
    pub us: f64,
    /// Explains made through the layer, each one checked.
    pub explains: u64,
    pub failed: u64,
}

/// Builds a `ContextIndex` over `ctx` and times `explain_with` for each
/// `(request id, target)` until `seconds` have gone by, one span per
/// target under one span for the build and loop.
pub fn index_spans(
    ctx: &Context,
    alpha: Alpha,
    targets: impl IntoIterator<Item = (u64, usize)>,
    trace: &mut Trace,
    seconds: f64,
) -> Measured {
    let t0 = Instant::now();
    let idx = ContextIndex::new(ctx);
    let root = trace.record("index.pass", t0, t0, None, u64::MAX);
    let mut scratch = ExplainScratch::new();
    let srk = Srk::new(alpha);
    let (mut explains, mut failed) = (0, 0);
    let deadline = t0 + Duration::from_secs_f64(seconds);
    for (id, t) in targets {
        if Instant::now() >= deadline {
            break;
        }
        let s = Instant::now();
        let key = idx.explain_with(ctx, t, alpha, &mut scratch);
        trace.record("index.explain_with", s, Instant::now(), Some(root), id);
        explains += 1;
        let expected = srk.explain_budgeted(ctx, t, WorkBudget::unlimited());
        if key != expected.map(|k| k.key) {
            failed += 1;
        }
    }
    trace.spans[root].end_ns = trace.ns(Instant::now());
    Measured {
        us: trace.mean_us("index.explain_with"),
        explains,
        failed,
    }
}

/// Opens the paged store at `store`, whose rows are `ctx`, on a cache of
/// `cache_bytes` and times `PagedContextIndex::explain_row_budgeted` for
/// each `(request id, target)` until `seconds` have gone by. Also returns
/// the process's `cce-obs` registry deltas: the page cache runs in this
/// process.
pub fn pagestore_spans(
    store: &str,
    cache_bytes: usize,
    ctx: &Context,
    alpha: Alpha,
    targets: impl IntoIterator<Item = (u64, usize)>,
    trace: &mut Trace,
    seconds: f64,
) -> Result<(Measured, Counts), String> {
    let c0 = Counts::in_process();
    let mut paged = PagedContextIndex::open(StdVfs, store, cache_bytes)
        .map_err(|e| format!("opening {store}: {e}"))?;
    let srk = Srk::new(alpha);
    let (mut explains, mut failed) = (0, 0);
    let deadline = Instant::now() + Duration::from_secs_f64(seconds);
    for (id, t) in targets {
        if Instant::now() >= deadline {
            break;
        }
        let s = Instant::now();
        let r = paged.explain_row_budgeted(t, alpha, WorkBudget::unlimited());
        trace.record("pagestore.explain_row", s, Instant::now(), None, id);
        explains += 1;
        if r != srk.explain_budgeted(ctx, t, WorkBudget::unlimited()) {
            failed += 1;
        }
    }
    let measured = Measured {
        us: trace.mean_us("pagestore.explain_row"),
        explains,
        failed,
    };
    Ok((measured, Counts::in_process().since(&c0)))
}

/// Stops the shard workers however the caller leaves.
struct StopOnDrop(Arc<ShardedBackend>);

impl Drop for StopOnDrop {
    fn drop(&mut self) {
        self.0.stop();
    }
}

/// Starts `shards` workers (`cce shard-worker`) over `csv`, whose rows are
/// `ctx`, and for each `(request id, target)` until `seconds` have gone
/// by, times the whole `ShardedBackend::explain` and one direct
/// `ShardClient::call` of the first scatter round to each shard, under
/// one request span. Also returns the process's `cce-obs` registry
/// deltas over the explains: the router runs in this process.
#[allow(clippy::too_many_arguments)]
pub fn shard_spans(
    cce: &Path,
    csv: &Path,
    ctx: &Context,
    alpha: Alpha,
    shards: usize,
    targets: impl IntoIterator<Item = (u64, usize)>,
    trace: &mut Trace,
    seconds: f64,
) -> Result<(Measured, Counts), String> {
    let clients: Vec<Arc<ShardClient>> = (0..shards)
        .map(|i| Arc::new(ShardClient::down(i, ShardPolicy::default())))
        .collect();
    let log = Arc::new(IngestLog::new());
    let spec = WorkerSpec {
        program: cce.to_path_buf(),
        args_prefix: vec!["shard-worker".into()],
        data: csv.display().to_string(),
        shards,
    };
    let handle = spawn_shards(spec, clients.clone(), Arc::clone(&log))
        .map_err(|e| format!("spawning shard workers: {e}"))?;
    let backend = Arc::new(ShardedBackend::new(
        alpha,
        ctx.schema().n_features(),
        clients.clone(),
        ctx.len() as u64,
        log,
        false,
    ));
    backend.set_supervisor(handle);
    let _stop = StopOnDrop(Arc::clone(&backend));
    let srk = Srk::new(alpha);
    let c0 = Counts::in_process();
    let (mut explains, mut failed) = (0, 0);
    let deadline = Instant::now() + Duration::from_secs_f64(seconds);
    for (id, t) in targets {
        if Instant::now() >= deadline {
            break;
        }
        let t0 = Instant::now();
        let root = trace.record("shard.request", t0, t0, None, id);
        let answer = backend.explain(t as u64, WorkBudget::unlimited());
        let t1 = Instant::now();
        trace.record("shard.explain", t0, t1, Some(root), id);
        let req = Req::Counts {
            x: ctx.instance(t).values().to_vec(),
            pred: ctx.prediction(t).0,
            picked: Vec::new(),
        };
        let mut calls_ok = true;
        for c in &clients {
            let s = Instant::now();
            let r = c.call(&req);
            trace.record("shard.call", s, Instant::now(), Some(root), id);
            calls_ok &= matches!(r, Ok(Resp::Counts { .. }));
        }
        trace.spans[root].end_ns = trace.ns(Instant::now());
        explains += 1;
        let expected = srk.explain_budgeted(ctx, t, WorkBudget::unlimited());
        let ok = matches!(&answer, ShardedAnswer::Done { result, missing_shards } if missing_shards.is_empty() && *result == expected);
        if !(ok && calls_ok) {
            failed += 1;
        }
    }
    let measured = Measured {
        us: trace.mean_us("shard.call"),
        explains,
        failed,
    };
    Ok((measured, Counts::in_process().since(&c0)))
}
