//! `batch-explain`: the paper's batch mode in process. Each pass builds a
//! fresh `BatchEngine` over the generated context (set-up), then explains
//! every row with one `explain_batch` call (one explain). No HTTP is
//! involved. The traced run also measures the index and the shard layer
//! in process.

use std::time::{Duration, Instant};

use cce_core::engine::EngineConfig;
use cce_core::{Alpha, BatchEngine, BudgetedKey, Context, ExplainError, Srk, WorkBudget};

use crate::data;
use crate::inproc;
use crate::layers::Layers;
use crate::util::{self, Counts, Tick, Trace};
use crate::{Opts, Outcome};

const ROWS: usize = 10_000;
/// Shard workers the traced run's shard layer spreads the rows over.
const SHARDS: usize = 2;
/// Request ids of the in-process layer calls start here, apart from the
/// passes' ids.
const IN_PROCESS: u64 = 1 << 32;

type Answer = Result<BudgetedKey, ExplainError>;

/// The in-process state one run drives.
struct Bench<'a> {
    ctx: &'a Context,
    alpha: Alpha,
    targets: Vec<usize>,
    threads: usize,
    /// Every row's answer from `Srk`, the reference path.
    oracle: Vec<Answer>,
    attempted: u64,
    failed: u64,
}

/// What one measuring window saw.
#[derive(Default)]
struct Window {
    build_s: Vec<f64>,
    pass_us: Vec<f64>,
    /// When each pass ended.
    ends: Vec<Instant>,
    /// Steal counters, read between passes.
    ticks: Vec<Tick>,
}

impl Window {
    /// Median over passes of each pass's explains per second.
    fn explains_per_s(&self, rows: usize) -> f64 {
        let rates: Vec<f64> = self
            .pass_us
            .iter()
            .map(|us| rows as f64 / us * 1e6)
            .collect();
        util::median(&rates)
    }

    /// The passes that ended in the window's quiet slices.
    fn quiet(&self) -> Window {
        let slices = util::quiet_slices(&self.ticks);
        let mut w = Window::default();
        for (i, &end) in self.ends.iter().enumerate() {
            if util::within(&slices, end) {
                w.build_s.push(self.build_s[i]);
                w.pass_us.push(self.pass_us[i]);
                w.ends.push(end);
            }
        }
        w
    }
}

impl Bench<'_> {
    /// Runs passes until `seconds` have gone by, checking each pass's
    /// answers. With a trace, each pass is a span whose children are the
    /// calls into the engine.
    fn window(&mut self, seconds: f64, mut trace: Option<&mut Trace>) -> Window {
        let mut w = Window {
            ticks: vec![Tick::now()],
            ..Window::default()
        };
        let deadline = Instant::now() + Duration::from_secs_f64(seconds);
        let mut pass = 0u64;
        while Instant::now() < deadline {
            let ctx = self.ctx.clone();
            let t0 = Instant::now();
            let engine = BatchEngine::with_config(ctx, self.alpha, EngineConfig::default());
            let t1 = Instant::now();
            let answers =
                engine.explain_batch(&self.targets, WorkBudget::unlimited(), self.threads);
            let t2 = Instant::now();
            self.attempted += answers.len() as u64;
            self.failed += answers
                .iter()
                .zip(&self.oracle)
                .filter(|(a, b)| a != b)
                .count() as u64
                + self.oracle.len().abs_diff(answers.len()) as u64;
            w.build_s.push((t1 - t0).as_secs_f64());
            w.pass_us.push((t2 - t1).as_secs_f64() * 1e6);
            w.ends.push(t2);
            if w.ticks
                .last()
                .is_some_and(|t| t.at.elapsed() >= util::TICK_EVERY)
            {
                w.ticks.push(Tick::now());
            }
            if let Some(tr) = trace.as_deref_mut() {
                let root = tr.record("pass", t0, t2, None, pass);
                tr.record("engine.build", t0, t1, Some(root), pass);
                tr.record("engine.explain_batch", t1, t2, Some(root), pass);
            }
            pass += 1;
        }
        w
    }
}

/// `Srk` over every row, split across `threads`.
fn srk_all(ctx: &Context, alpha: Alpha, threads: usize) -> Vec<Answer> {
    let srk = Srk::new(alpha);
    let chunk = ctx.len().div_ceil(threads.max(1));
    std::thread::scope(|s| {
        let parts: Vec<_> = (0..ctx.len())
            .step_by(chunk.max(1))
            .map(|lo| {
                s.spawn(move || {
                    (lo..(lo + chunk).min(ctx.len()))
                        .map(|t| srk.explain_budgeted(ctx, t, WorkBudget::unlimited()))
                        .collect::<Vec<_>>()
                })
            })
            .collect();
        parts
            .into_iter()
            .flat_map(|h| h.join().expect("oracle worker panicked"))
            .collect()
    })
}

pub fn run(o: &Opts) -> Result<Outcome, String> {
    let inputs = data::generate(&o.cce, &o.work, ROWS, 0, o.seed)?;
    let ctx = &inputs.ctx;
    let alpha = Alpha::ONE;
    let threads = std::thread::available_parallelism().map_or(1, |n| n.get());
    let mut b = Bench {
        ctx,
        alpha,
        targets: (0..ctx.len()).collect(),
        threads,
        oracle: srk_all(ctx, alpha, threads),
        attempted: 0,
        failed: 0,
    };

    let mut detail = vec![("rows", ROWS as f64), ("threads", threads as f64)];
    let metrics = if o.trace {
        let untraced = b.window(o.seconds / 2.0, None);
        let mut trace = Trace::new(Instant::now());
        let c0 = Counts::in_process();
        let traced = b.window(o.seconds / 2.0, Some(&mut trace));
        let d = Counts::in_process().since(&c0);
        let mut l = Layers::new();
        l.take_counts(&d);
        l.set("engine.batch_us", trace.mean_us("engine.explain_batch"));
        l.overhead(traced.explains_per_s(ROWS), untraced.explains_per_s(ROWS));
        let targets: Vec<(u64, usize)> =
            (0..ctx.len()).map(|t| (IN_PROCESS + t as u64, t)).collect();
        let index = inproc::index_spans(
            ctx,
            alpha,
            targets.iter().copied(),
            &mut trace,
            o.seconds / 8.0,
        );
        let (shard, counts) = inproc::shard_spans(
            &o.cce,
            &inputs.csv,
            ctx,
            alpha,
            SHARDS,
            targets,
            &mut trace,
            o.seconds / 8.0,
        )?;
        for m in [&index, &shard] {
            b.attempted += m.explains;
            b.failed += m.failed;
        }
        l.set("index.explain_us", index.us);
        l.take_shard_counts(&counts, shard.explains as f64);
        l.set("shard.rpc_us", shard.us);
        trace
            .write_jsonl(
                &o.trace_dir
                    .join(format!("batch-explain-seed{}.jsonl", o.seed)),
            )
            .map_err(|e| format!("writing spans: {e}"))?;
        detail.push(("spans", trace.spans.len() as f64));
        l.into_metrics()
    } else {
        let w = b.window(o.seconds, None).quiet();
        detail.extend([
            ("quiet_passes", w.pass_us.len() as f64),
            ("explain_p90_us", util::percentile(&w.pass_us, 0.9)),
            ("explain_p99_us", util::percentile(&w.pass_us, 0.99)),
        ]);
        vec![
            ("setup_s", util::median(&w.build_s)),
            ("explains_per_s", w.explains_per_s(ROWS)),
            ("explain_p50_us", util::percentile(&w.pass_us, 0.5)),
            ("peak_rss_mb", util::peak_rss_mb(std::process::id())),
        ]
    };
    Ok(Outcome {
        attempted: b.attempted,
        failed: b.failed,
        metrics,
        detail,
    })
}
