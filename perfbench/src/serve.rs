//! The three daemon workloads: `cce serve` over a live context, a paged
//! store, or shard workers, driven over HTTP by one or two closed-loop
//! connections that explain uniform targets. On `serve-live` connection 1
//! is also the single writer: about one request in ten is a durable
//! `/monitor/ingest` of the next held-out row.
//!
//! Every answer is checked after the window against a different path:
//! `Srk` over each context state a read could have seen (live, sharded),
//! the in-RAM `ContextIndex` (paged), and a plain `OsrkMonitor` fed the
//! same rows (ingest acks).

use std::collections::{BTreeMap, BTreeSet, HashMap};
use std::ops::Range;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::time::{Duration, Instant};

use cce_core::persist::StdVfs;
use cce_core::{
    Alpha, Context, ContextIndex, ExplainScratch, OsrkMonitor, PagedContextIndex, Srk, WorkBudget,
};
use cce_dataset::{Instance, Label};
use cce_serve::explain_response;
use cce_serve::json::int_array;

use crate::daemon::Daemon;
use crate::data::{self, Inputs};
use crate::http::Conn;
use crate::inproc;
use crate::layers::Layers;
use crate::util::{self, Rng, Tick, Trace};
use crate::{Opts, Outcome};

pub enum Mode {
    /// `--data`, with the live context bounded by a ΔI window.
    Live { window: usize, delta: usize },
    /// `--store` with a page-cache budget below the working set.
    Paged { cache_mb: usize },
    /// `--data --shards N`.
    Sharded { shards: usize },
}

pub struct Spec {
    pub name: &'static str,
    pub rows: usize,
    pub alpha: f64,
    pub mode: Mode,
    /// Whether connection 1 ingests beside its reads.
    pub writes: bool,
    /// Closed-loop connections, at most one per core of the 2-core box
    /// the workloads were sized on.
    pub conns: usize,
}

pub const LIVE: Spec = Spec {
    name: "serve-live",
    rows: 10_000,
    alpha: 1.0,
    mode: Mode::Live {
        window: 10_000,
        delta: 100,
    },
    writes: true,
    conns: 2,
};

/// `serve-live` without the writer: repeated targets hit the engine's
/// cross-request memo, which the writes keep clearing there.
pub const READONLY: Spec = Spec {
    name: "serve-readonly",
    writes: false,
    ..LIVE
};

/// 1M rows (about 59 MB of store) behind a 4 MiB cache. α = 1 is avoided
/// there: most 1M-row targets then have no key, which the stored twin
/// certificate answers without reading a bitset page.
pub const PAGED: Spec = Spec {
    name: "serve-paged",
    rows: 1_000_000,
    alpha: 0.95,
    mode: Mode::Paged { cache_mb: 4 },
    writes: false,
    conns: 2,
};

/// One connection: the router and both workers already share the two
/// cores, and a second caller only queued behind the first, for the
/// same throughput at twice the latency. Not in `BENCHMARK.json`: see
/// the README.
pub const SHARDED: Spec = Spec {
    name: "serve-sharded",
    rows: 10_000,
    alpha: 1.0,
    mode: Mode::Sharded { shards: 2 },
    writes: false,
    conns: 1,
};

const INGEST_ONE_IN: usize = 10;
const HELD: usize = 4_000;
/// Daemon launches per timed run; `setup_s` is the median of the quiet
/// ones (see `util::quiet`).
const LAUNCHES: usize = 9;
/// Explain-only traffic before timing, so caches and the memo settle.
const WARMUP_S: f64 = 0.5;
/// Request ids of the in-process layer calls start here, apart from the
/// HTTP requests' ids.
const IN_PROCESS: u64 = 1 << 32;
/// Shard workers of the live workloads' in-process shard layer.
const LIVE_SHARDS: usize = 2;
/// The page cache of the live workloads' in-process paged store: a
/// quarter of the 10k-row store (61 pages of 64 KiB), so pages are
/// evicted and read again.
const LIVE_CACHE_BYTES: usize = 1 << 20;

/// Ingest counters of the single writer. A read sent after `acked`
/// acknowledgements and answered before `sent` ingests went out saw one
/// of the states `acked..=sent`.
#[derive(Default)]
struct Writer {
    sent: AtomicUsize,
    acked: AtomicUsize,
}

struct Op {
    /// `Some(j)` for the j-th ingest, `None` for an explain.
    ingest: Option<usize>,
    target: usize,
    start: Instant,
    end: Instant,
    /// 0 when the request failed in transport (or timed out).
    status: u16,
    body: Vec<u8>,
    /// The ingest states the answer may reflect.
    states: (usize, usize),
}

impl Op {
    fn us(&self) -> f64 {
        (self.end - self.start).as_secs_f64() * 1e6
    }
}

fn ingest_body(x: &Instance, p: Label) -> String {
    format!(
        "{{\"values\":{},\"prediction\":{}}}",
        int_array(x.values().iter().map(|&v| v as usize)),
        p.0
    )
}

/// Runs `conns` connections for `seconds`; `writer` enables ingests.
/// Returns their operations and the steal counters read meanwhile.
fn window(
    addr: &str,
    conns: usize,
    seconds: f64,
    rows: usize,
    held: &[(Instance, Label)],
    writer: Option<&Writer>,
    seed: u64,
) -> (Vec<Op>, Vec<Tick>) {
    let deadline = Instant::now() + Duration::from_secs_f64(seconds);
    std::thread::scope(|s| {
        let ticks = s.spawn(move || util::ticks_until(deadline));
        let handles: Vec<_> = (0..conns)
            .map(|c| {
                s.spawn(move || {
                    connection(
                        addr,
                        deadline,
                        rows,
                        held,
                        writer,
                        c == 1,
                        seed ^ ((c as u64 + 1) << 40),
                    )
                })
            })
            .collect();
        let ops = handles
            .into_iter()
            .flat_map(|h| h.join().expect("connection thread panicked"))
            .collect();
        (ops, ticks.join().expect("tick thread panicked"))
    })
}

/// One closed-loop caller. Every caller reads the writer's counters to
/// bound the states its reads may see; only the `writes` one ingests.
fn connection(
    addr: &str,
    deadline: Instant,
    rows: usize,
    held: &[(Instance, Label)],
    writer: Option<&Writer>,
    writes: bool,
    seed: u64,
) -> Vec<Op> {
    let mut rng = Rng::new(seed);
    let mut ops = Vec::new();
    let mut conn = Conn::open(addr).map_err(|e| e.to_string());
    while Instant::now() < deadline {
        let c = match conn.as_mut() {
            Ok(c) => c,
            // A connection that cannot be made is one failed request.
            Err(e) => {
                let now = Instant::now();
                ops.push(Op {
                    ingest: None,
                    target: 0,
                    start: now,
                    end: now,
                    status: 0,
                    body: std::mem::take(e).into_bytes(),
                    states: (0, 0),
                });
                break;
            }
        };
        let target = rng.below(rows);
        let ingest = writer.filter(|_| writes && rng.below(INGEST_ONE_IN) == 0);
        let (j, path, body, lo) = match ingest {
            Some(w) => {
                let j = w.sent.fetch_add(1, Ordering::SeqCst);
                let (x, p) = &held[j % held.len()];
                (Some(j), "/monitor/ingest", ingest_body(x, *p), 0)
            }
            None => {
                let lo = writer.map_or(0, |w| w.acked.load(Ordering::SeqCst));
                (None, "/explain", format!("{{\"target\":{target}}}"), lo)
            }
        };
        let start = Instant::now();
        let reply = c.call("POST", path, &body);
        let end = Instant::now();
        let (status, body) = reply.unwrap_or_else(|e| (0, e.to_string().into_bytes()));
        if let (Some(w), 200) = (ingest, status) {
            w.acked.fetch_add(1, Ordering::SeqCst);
        }
        let hi = writer.map_or(0, |w| w.sent.load(Ordering::SeqCst));
        ops.push(Op {
            ingest: j,
            target,
            start,
            end,
            status,
            body,
            states: (lo, hi),
        });
        if status == 0 {
            break;
        }
    }
    ops
}

/// The number after `"key":` in a flat JSON body.
fn json_u64(body: &str, key: &str) -> Option<u64> {
    let rest = &body[body.find(&format!("\"{key}\":"))? + key.len() + 3..];
    let digits: String = rest.chars().take_while(char::is_ascii_digit).collect();
    digits.parse().ok()
}

struct Run<'a> {
    spec: &'a Spec,
    opts: &'a Opts,
    inputs: Inputs,
    store: String,
    alpha: Alpha,
    /// The monitor's target row and seed (`--target`, `--seed`).
    monitor: (usize, u64),
    ops: Vec<Op>,
    writer: Writer,
    attempted: u64,
    failed: u64,
}

impl Run<'_> {
    fn launch(&self, i: usize) -> Result<(Daemon, Duration), String> {
        let ckpt = self
            .opts
            .work
            .join(format!("ckpt-{i}"))
            .display()
            .to_string();
        let csv = self.inputs.csv.display().to_string();
        let mut args: Vec<String> = match self.spec.mode {
            Mode::Live { window, delta } => vec![
                "--data".into(),
                csv,
                "--window".into(),
                window.to_string(),
                "--window-delta".into(),
                delta.to_string(),
            ],
            Mode::Paged { cache_mb } => vec![
                "--store".into(),
                self.store.clone(),
                "--cache-mb".into(),
                cache_mb.to_string(),
            ],
            Mode::Sharded { shards } => {
                vec!["--data".into(), csv, "--shards".into(), shards.to_string()]
            }
        };
        args.extend([
            "--alpha".into(),
            self.spec.alpha.to_string(),
            "--checkpoint-dir".into(),
            ckpt,
            "--target".into(),
            self.monitor.0.to_string(),
            "--seed".into(),
            self.monitor.1.to_string(),
        ]);
        let rows = self.spec.rows as u64;
        let ready = |body: &str| match self.spec.mode {
            Mode::Live { .. } => json_u64(body, "rows") == Some(rows),
            // Store mode keeps its row count apart from the (empty) live
            // context's.
            Mode::Paged { .. } => json_u64(body, "store_rows") == Some(rows),
            // Ready once every shard worker is up, not when the router
            // starts listening.
            Mode::Sharded { shards } => {
                json_u64(body, "total") == Some(shards as u64)
                    && json_u64(body, "up") == Some(shards as u64)
            }
        };
        Daemon::launch(&self.opts.cce, &args, ready)
    }

    /// Runs a window and keeps its operations; returns their index range
    /// and the window's quiet slices.
    fn window(
        &mut self,
        d: &Daemon,
        seconds: f64,
        ingests: bool,
        phase: u64,
    ) -> (Range<usize>, Vec<(Instant, Instant)>) {
        let writer = ingests.then_some(&self.writer);
        let (ops, ticks) = window(
            &d.addr,
            self.spec.conns,
            seconds,
            self.spec.rows,
            &self.inputs.held,
            writer,
            self.opts.seed ^ (phase << 20),
        );
        let from = self.ops.len();
        self.ops.extend(ops);
        (from..self.ops.len(), util::quiet_slices(&ticks))
    }

    /// Explains per second over `range` (start of the first request to
    /// the end of the last).
    fn explains_per_s(&self, range: Range<usize>) -> f64 {
        let ops = &self.ops[range];
        let (Some(t0), Some(t1)) = (
            ops.iter().map(|o| o.start).min(),
            ops.iter().map(|o| o.end).max(),
        ) else {
            return 0.0;
        };
        ops.iter().filter(|o| o.ingest.is_none()).count() as f64 / (t1 - t0).as_secs_f64()
    }

    /// The ack body the daemon must send for the j-th ingest, from a
    /// plain monitor fed the same rows.
    fn expected_acks(&self, n: usize) -> Vec<String> {
        let ctx = &self.inputs.ctx;
        let (t, seed) = self.monitor;
        let mut m = OsrkMonitor::new(ctx.instance(t).clone(), ctx.prediction(t), self.alpha, seed);
        (0..n)
            .map(|j| {
                let (x, p) = self.inputs.held[j % self.inputs.held.len()].clone();
                let _ = m.observe(x, p);
                let (start, end) = self.live_bounds(j + 1);
                let context_rows = end - start;
                format!(
                    "{{\"status\":\"ok\",\"n_seen\":{},\"key\":{},\"violators\":{},\"durable\":true,\"context_rows\":{context_rows}}}",
                    m.n_seen(),
                    int_array(m.key().iter().copied()),
                    m.n_violators(),
                )
            })
            .collect()
    }

    /// The live context after `k` ingests, as a range of the arrival
    /// sequence (context rows, then held-out rows cycling): the daemon
    /// evicts the `delta` oldest rows each time `delta` arrivals have
    /// accumulated past the window.
    fn live_bounds(&self, k: usize) -> (usize, usize) {
        let base = self.spec.rows;
        let Mode::Live { window, delta } = self.spec.mode else {
            return (0, base + k);
        };
        let (mut start, mut len, mut staged) = (0, base, 0);
        for _ in 0..k {
            len += 1;
            if len > window {
                staged += 1;
                if staged >= delta {
                    start += staged;
                    len -= staged;
                    staged = 0;
                }
            }
        }
        (start, start + len)
    }

    fn state(&self, k: usize) -> Context {
        let (start, end) = self.live_bounds(k);
        let (ctx, held) = (&self.inputs.ctx, &self.inputs.held);
        let (xs, ps) = (start..end)
            .map(|i| match i.checked_sub(ctx.len()) {
                None => (ctx.instance(i).clone(), ctx.prediction(i)),
                Some(h) => held[h % held.len()].clone(),
            })
            .unzip();
        Context::new(ctx.schema_arc(), xs, ps)
    }

    /// Checks every operation; returns how many failed.
    fn verify(&self) -> u64 {
        let n_ingests = self
            .ops
            .iter()
            .filter_map(|o| o.ingest)
            .max()
            .map_or(0, |j| j + 1);
        let acks = self.expected_acks(n_ingests);
        let expected = self.expected_explains();
        let bad: Vec<&Op> = self
            .ops
            .iter()
            .filter(|o| match o.ingest {
                Some(j) => o.status != 200 || o.body != acks[j].as_bytes(),
                None => !(o.states.0..=o.states.1).any(|k| {
                    expected
                        .get(&(k, o.target))
                        .is_some_and(|(status, body)| *status == o.status && *body == o.body)
                }),
            })
            .collect();
        for o in bad.iter().take(3) {
            let want = match o.ingest {
                Some(j) => acks[j].clone(),
                None => expected
                    .get(&(o.states.0, o.target))
                    .map(|(status, body)| format!("{status} {}", String::from_utf8_lossy(body)))
                    .unwrap_or_default(),
            };
            eprintln!(
                "perfbench: wrong answer: got {} {}, expected {want}",
                o.status,
                String::from_utf8_lossy(&o.body)
            );
        }
        bad.len() as u64
    }

    /// Reference answers for every (state, target) an explain may have
    /// seen, computed on all cores: `Srk` over each state, or the in-RAM
    /// index over the paged store's rows.
    fn expected_explains(&self) -> HashMap<(usize, usize), (u16, Vec<u8>)> {
        let mut by_state: BTreeMap<usize, BTreeSet<usize>> = BTreeMap::new();
        for o in self
            .ops
            .iter()
            .filter(|o| o.ingest.is_none() && o.status != 0)
        {
            for k in o.states.0..=o.states.1 {
                by_state.entry(k).or_default().insert(o.target);
            }
        }
        let jobs: Vec<(usize, usize)> = by_state
            .into_iter()
            .flat_map(|(k, ts)| ts.into_iter().map(move |t| (k, t)))
            .collect();
        let threads = std::thread::available_parallelism().map_or(1, |n| n.get());
        let alpha = self.alpha;
        let paged = matches!(self.spec.mode, Mode::Paged { .. })
            .then(|| ContextIndex::new(&self.inputs.ctx));
        let chunk = jobs.len().div_ceil(threads).max(1);
        std::thread::scope(|s| {
            let handles: Vec<_> = jobs
                .chunks(chunk)
                .map(|part| {
                    let paged = paged.as_ref();
                    s.spawn(move || {
                        let mut out = HashMap::new();
                        let mut scratch = ExplainScratch::new();
                        // Jobs are sorted by state: build each state once.
                        let mut state: Option<(usize, Context)> = None;
                        for &(k, t) in part {
                            let r = match paged {
                                Some(idx) => idx.explain_budgeted_with(
                                    &self.inputs.ctx,
                                    t,
                                    alpha,
                                    WorkBudget::unlimited(),
                                    &mut scratch,
                                ),
                                None => {
                                    if state.as_ref().is_none_or(|(sk, _)| *sk != k) {
                                        state = Some((k, self.state(k)));
                                    }
                                    let ctx = &state.as_ref().expect("state was just built").1;
                                    Srk::new(alpha).explain_budgeted(
                                        ctx,
                                        t,
                                        WorkBudget::unlimited(),
                                    )
                                }
                            };
                            let resp = explain_response(t, alpha, &r);
                            out.insert((k, t), (resp.status, resp.body));
                        }
                        out
                    })
                })
                .collect();
            handles
                .into_iter()
                .flat_map(|h| h.join().expect("oracle worker panicked"))
                .collect()
        })
    }
}

pub fn run(o: &Opts, spec: &Spec) -> Result<Outcome, String> {
    let held = if spec.writes { HELD } else { 0 };
    let inputs = data::generate(&o.cce, &o.work, spec.rows, held, o.seed)?;
    let store = o.work.join("context.pg").display().to_string();
    if let Mode::Paged { .. } = spec.mode {
        data::cce(
            &o.cce,
            &[
                "convert",
                "--data",
                &inputs.csv.display().to_string(),
                "--out",
                &store,
            ],
        )?;
    }
    let mut rng = Rng::new(o.seed ^ 0x5e7e_5eed);
    let monitor = (rng.below(spec.rows), rng.next_u64() >> 16);
    let mut run = Run {
        spec,
        opts: o,
        inputs,
        store,
        alpha: Alpha::new(spec.alpha).map_err(|e| e.to_string())?,
        monitor,
        ops: Vec::new(),
        writer: Writer::default(),
        attempted: 0,
        failed: 0,
    };

    let mut detail = vec![("rows", spec.rows as f64), ("conns", spec.conns as f64)];
    let launches = if o.trace { 1 } else { LAUNCHES };
    // `(steal share, seconds)` of each launch.
    let mut setup = Vec::new();
    for i in 1..launches {
        let before = Tick::now();
        let (d, t) = run.launch(i)?;
        setup.push((before.steal_share(&Tick::now()), t.as_secs_f64()));
        d.shutdown()?;
    }
    let before = Tick::now();
    let (d, t) = run.launch(0)?;
    setup.push((before.steal_share(&Tick::now()), t.as_secs_f64()));
    run.window(&d, WARMUP_S, false, 0);

    let metrics = if o.trace {
        let (untraced, _) = run.window(&d, o.seconds / 2.0, spec.writes, 1);
        let m0 = d.metrics()?;
        let (traced, _) = run.window(&d, o.seconds / 2.0, spec.writes, 2);
        let delta = d.metrics()?.since(&m0);
        let mut trace = Trace::new(run.ops[traced.start].start);
        for (i, op) in run.ops[traced.clone()].iter().enumerate() {
            let name = if op.ingest.is_some() {
                "http.ingest"
            } else {
                "http.explain"
            };
            trace.record(name, op.start, op.end, None, i as u64);
        }
        let mut l = Layers::new();
        l.take_counts(&delta);
        // Client latency = transport + server handle; handle = batcher
        // wait + engine pass where the batcher is on the path.
        l.set(
            "server.transport_us",
            trace.mean_us("http.explain") - l.get("server.handle_us"),
        );
        if l.get("batcher.batches") > 0.0 {
            l.set(
                "batcher.wait_us",
                l.get("server.handle_us") - l.get("engine.batch_us"),
            );
        }
        l.overhead(
            run.explains_per_s(traced.clone()),
            run.explains_per_s(untraced),
        );
        let budget = o.seconds / 4.0;
        // The traced window's explain targets, for the in-process calls.
        let targets: Vec<(u64, usize)> = run.ops[traced.clone()]
            .iter()
            .enumerate()
            .filter(|(_, op)| op.ingest.is_none())
            .map(|(i, op)| (IN_PROCESS + i as u64, op.target))
            .collect();
        match spec.mode {
            Mode::Paged { cache_mb } => {
                let us = paged_spans(&mut run, &mut trace, traced, cache_mb, budget)?;
                l.set("pagestore.explain_us", us);
            }
            Mode::Sharded { shards } => {
                let (m, _) = inproc::shard_spans(
                    &o.cce,
                    &run.inputs.csv,
                    &run.inputs.ctx,
                    run.alpha,
                    shards,
                    targets,
                    &mut trace,
                    budget,
                )?;
                run.attempted += m.explains;
                run.failed += m.failed;
                l.set("shard.rpc_us", m.us);
            }
            // The index, page cache and shard layers over the base
            // context: the daemon's index sits behind its batcher, and no
            // listed workload runs the paged store or the shard router.
            Mode::Live { .. } => {
                let ctx = &run.inputs.ctx;
                let csv = run.inputs.csv.display().to_string();
                data::cce(&o.cce, &["convert", "--data", &csv, "--out", &run.store])?;
                let index = inproc::index_spans(
                    ctx,
                    run.alpha,
                    targets.iter().copied(),
                    &mut trace,
                    budget / 3.0,
                );
                let (paged, paged_counts) = inproc::pagestore_spans(
                    &run.store,
                    LIVE_CACHE_BYTES,
                    ctx,
                    run.alpha,
                    targets.iter().copied(),
                    &mut trace,
                    budget / 3.0,
                )?;
                let (shard, counts) = inproc::shard_spans(
                    &o.cce,
                    &run.inputs.csv,
                    ctx,
                    run.alpha,
                    LIVE_SHARDS,
                    targets,
                    &mut trace,
                    budget / 3.0,
                )?;
                for m in [&index, &paged, &shard] {
                    run.attempted += m.explains;
                    run.failed += m.failed;
                }
                l.take_pagestore_counts(&paged_counts, paged.explains as f64);
                l.set("pagestore.explain_us", paged.us);
                l.set("index.explain_us", index.us);
                l.take_shard_counts(&counts, shard.explains as f64);
                l.set("shard.rpc_us", shard.us);
            }
        }
        d.shutdown()?;
        trace
            .write_jsonl(
                &o.trace_dir
                    .join(format!("{}-seed{}.jsonl", spec.name, o.seed)),
            )
            .map_err(|e| format!("writing spans: {e}"))?;
        detail.push(("spans", trace.spans.len() as f64));
        l.into_metrics()
    } else {
        let (timed, slices) = run.window(&d, o.seconds, spec.writes, 1);
        let rss = d.peak_rss_mb();
        d.shutdown()?;
        // Latencies and rates come from the operations that ended in the
        // window's quiet slices.
        let ops: Vec<&Op> = run.ops[timed]
            .iter()
            .filter(|op| util::within(&slices, op.end))
            .collect();
        let latencies = |ingest: bool| -> Vec<f64> {
            ops.iter()
                .filter(|o| o.ingest.is_some() == ingest)
                .map(|o| o.us())
                .collect()
        };
        let (explains, ingests) = (latencies(false), latencies(true));
        let rates: Vec<f64> = slices
            .iter()
            .map(|&(a, b)| {
                let n = ops
                    .iter()
                    .filter(|o| o.ingest.is_none() && a <= o.end && o.end < b)
                    .count();
                n as f64 / (b - a).as_secs_f64()
            })
            .collect();
        let setup = util::quiet(setup);
        detail.extend([
            ("setup_samples", setup.len() as f64),
            ("quiet_slices", slices.len() as f64),
            ("explain_samples", explains.len() as f64),
            ("explain_p90_us", util::percentile(&explains, 0.9)),
            ("explain_p99_us", util::percentile(&explains, 0.99)),
            ("ingest_samples", ingests.len() as f64),
            ("ingest_p50_us", util::percentile(&ingests, 0.5)),
            ("ingest_p99_us", util::percentile(&ingests, 0.99)),
        ]);
        vec![
            ("setup_s", util::median(&setup)),
            ("explains_per_s", util::median(&rates)),
            ("explain_p50_us", util::percentile(&explains, 0.5)),
            ("peak_rss_mb", rss),
        ]
    };
    run.attempted += run.ops.len() as u64;
    run.failed += run.verify();
    Ok(Outcome {
        attempted: run.attempted,
        failed: run.failed,
        metrics,
        detail,
    })
}

/// Times `PagedContextIndex::explain_row` in process over the traced
/// window's explain targets, on a cache of the daemon's budget, for up to
/// `seconds`. Returns the mean explain time in µs. Each answer must equal
/// the bytes the daemon served for the same target.
fn paged_spans(
    run: &mut Run,
    trace: &mut Trace,
    traced: Range<usize>,
    cache_mb: usize,
    seconds: f64,
) -> Result<f64, String> {
    let mut paged = PagedContextIndex::open(StdVfs, &run.store, cache_mb << 20)
        .map_err(|e| format!("opening {}: {e}", run.store))?;
    let deadline = Instant::now() + Duration::from_secs_f64(seconds);
    for i in traced.filter(|&i| run.ops[i].ingest.is_none()) {
        if Instant::now() >= deadline {
            break;
        }
        let op = &run.ops[i];
        let s = Instant::now();
        let r = paged.explain_row_budgeted(op.target, run.alpha, WorkBudget::unlimited());
        trace.record(
            "pagestore.explain_row",
            s,
            Instant::now(),
            None,
            IN_PROCESS + i as u64,
        );
        let resp = explain_response(op.target, run.alpha, &r);
        run.attempted += 1;
        if (resp.status, &resp.body) != (op.status, &op.body) {
            run.failed += 1;
        }
    }
    Ok(trace.mean_us("pagestore.explain_row"))
}
