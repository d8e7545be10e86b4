//! One request script against every serving backend: the in-RAM engine,
//! a paged store (over `MemVfs`) and two real shard workers. Every step
//! gives the same status and bytes on every backend, or a documented
//! refusal: a store is read-only, so its ingest is a `409` that leaves
//! the monitor untouched, and the row that ingest would have added is
//! not addressable.

use std::path::PathBuf;
use std::sync::Arc;

use cce_core::engine::EngineConfig;
use cce_core::persist::MemVfs;
use cce_core::{Alpha, Context, OsrkMonitor, PagedContextIndex, Srk, WorkBudget};
use cce_dataset::{csv, schema_io, synth, BinSpec, Dataset};
use cce_serve::http::Request;
use cce_serve::json::Json;
use cce_serve::shard::WorkerSpec;
use cce_serve::shard::{spawn_shards, IngestLog, ShardClient, ShardPolicy, ShardedBackend};
use cce_serve::{
    build_app, explain_response, AdmissionConfig, App, Backend, BatcherConfig, MonitorBackend,
};

const ALPHA: f64 = 1.0;
const ROWS: usize = 90;
const STORE: &str = "matrix.pg";
/// The violator-scan budget of the degraded app.
const DEGRADE_BUDGET: u64 = 1;

#[derive(Clone, Copy, Debug, PartialEq)]
enum Kind {
    Engine,
    Paged,
    Sharded,
}

/// What the script runs against: the base rows, one more row to ingest,
/// the store holding the base rows, and the shard router over them.
struct Fixture {
    ds: Dataset,
    ctx: Context,
    extra: (Vec<u32>, u32),
    vfs: MemVfs,
    router: Arc<ShardedBackend>,
}

impl Fixture {
    fn new() -> Self {
        let pool = synth::loan::generate(ROWS + 1, 42).encode(&BinSpec::uniform(6));
        let ds = synth::loan::generate(ROWS, 42).encode(&BinSpec::uniform(6));
        let ctx = Context::from_recorded(&ds);
        let extra = (pool.instance(ROWS).values().to_vec(), pool.label(ROWS).0);
        let mut vfs = MemVfs::new();
        cce_core::pagestore::write_store(&mut vfs, STORE, &ctx, 4096, &[]).expect("convert");
        let router = start_shards(&ds, 2);
        Self {
            ds,
            ctx,
            extra,
            vfs,
            router,
        }
    }

    fn alpha() -> Alpha {
        Alpha::new(ALPHA).unwrap()
    }

    /// An app of `kind` over the base rows. Sharded apps share the one
    /// router.
    fn app(&self, kind: Kind, admission: AdmissionConfig) -> Arc<App<MemVfs>> {
        let alpha = Self::alpha();
        let backend = match kind {
            Kind::Engine => Backend::engine(
                self.ctx.clone(),
                alpha,
                EngineConfig::default(),
                BatcherConfig::default(),
                None,
            ),
            Kind::Paged => Backend::paged(
                PagedContextIndex::open(self.vfs.clone(), STORE, 1 << 20).expect("open store"),
                alpha,
            ),
            Kind::Sharded => Backend::sharded(Arc::clone(&self.router), self.ds.schema_arc()),
        };
        let monitor = OsrkMonitor::new(
            self.ctx.instance(0).clone(),
            self.ctx.prediction(0),
            alpha,
            7,
        );
        build_app(backend, admission, MonitorBackend::Plain(monitor))
    }

    /// The base rows plus the ingested one.
    fn extended(&self) -> Context {
        let mut xs: Vec<_> = (0..ROWS).map(|r| self.ctx.instance(r).clone()).collect();
        let mut ps: Vec<_> = (0..ROWS).map(|r| self.ctx.prediction(r)).collect();
        xs.push(cce_dataset::Instance::new(self.extra.0.clone()));
        ps.push(cce_dataset::Label(self.extra.1));
        Context::new(self.ds.schema_arc(), xs, ps)
    }
}

fn start_shards(ds: &Dataset, shards: usize) -> Arc<ShardedBackend> {
    let dir = std::env::temp_dir().join(format!("cce_backend_matrix_{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("create temp dir");
    let data = dir.join("matrix.csv");
    std::fs::write(&data, csv::to_csv(ds)).expect("write csv");
    std::fs::write(
        data.with_extension("csv.schema"),
        schema_io::sidecar_to_text(ds.schema(), ds.label_names()),
    )
    .expect("write sidecar");
    let clients: Vec<Arc<ShardClient>> = (0..shards)
        .map(|i| Arc::new(ShardClient::down(i, ShardPolicy::default())))
        .collect();
    let log = Arc::new(IngestLog::new());
    let spec = WorkerSpec {
        program: PathBuf::from(env!("CARGO_BIN_EXE_cce-shard-worker")),
        args_prefix: Vec::new(),
        data: data.to_string_lossy().into_owned(),
        shards,
    };
    let handle = spawn_shards(spec, clients.clone(), Arc::clone(&log)).expect("spawn workers");
    let router = Arc::new(ShardedBackend::new(
        Fixture::alpha(),
        ds.schema().n_features(),
        clients,
        ds.len() as u64,
        log,
        false,
    ));
    router.set_supervisor(handle);
    router
}

fn call(app: &App<MemVfs>, method: &str, path: &str, body: &str) -> (u16, String) {
    let resp = app.handle(&Request {
        method: method.into(),
        path: path.into(),
        http11: true,
        headers: Vec::new(),
        body: body.as_bytes().to_vec(),
    });
    (
        resp.status,
        String::from_utf8(resp.body).expect("utf-8 body"),
    )
}

fn explain(app: &App<MemVfs>, target: usize) -> (u16, String) {
    call(app, "POST", "/explain", &format!("{{\"target\":{target}}}"))
}

fn rendered(
    result: &Result<cce_core::BudgetedKey, cce_core::ExplainError>,
    t: usize,
) -> (u16, String) {
    let resp = explain_response(t, Fixture::alpha(), result);
    (resp.status, String::from_utf8(resp.body).unwrap())
}

/// A target whose key the degraded budget truncates.
fn degrading_target(ctx: &Context) -> usize {
    let srk = Srk::new(Fixture::alpha());
    (0..ctx.len())
        .find(|&t| {
            matches!(
                srk.explain_budgeted(ctx, t, WorkBudget::new(DEGRADE_BUDGET)),
                Ok(b) if !b.status.is_complete()
            )
        })
        .expect("some target degrades under the degraded budget")
}

/// Runs the script against `kind`: `(step, status, body)` per step.
fn script(fx: &Fixture, kind: Kind) -> Vec<(String, u16, String)> {
    let app = fx.app(kind, AdmissionConfig::default());
    let shed = fx.app(
        kind,
        AdmissionConfig {
            shed_depth: 0,
            degrade_depth: 0,
            degrade_budget: DEGRADE_BUDGET,
        },
    );
    let degrade = fx.app(
        kind,
        AdmissionConfig {
            shed_depth: usize::MAX,
            degrade_depth: 0,
            degrade_budget: DEGRADE_BUDGET,
        },
    );
    let mut steps = Vec::new();
    let mut step = |name: String, (status, body): (u16, String)| steps.push((name, status, body));

    for t in 0..ROWS {
        step(format!("explain {t}"), explain(&app, t));
    }
    step("explain out of range".into(), explain(&app, ROWS + 5));
    step("explain while shedding".into(), explain(&shed, 1));
    let t = degrading_target(&fx.ctx);
    step("explain while degraded".into(), explain(&degrade, t));

    let values: Vec<String> = fx.extra.0.iter().map(u32::to_string).collect();
    let row = format!(
        "{{\"values\":[{}],\"prediction\":{}}}",
        values.join(","),
        fx.extra.1
    );
    step("ingest".into(), call(&app, "POST", "/monitor/ingest", &row));
    let n_seen = app.with_ingest(|i| i.monitor().n_seen());
    step("monitor n_seen".into(), (0, n_seen.to_string()));
    step("explain the ingested row".into(), explain(&app, ROWS));

    let (status, health) = call(&app, "GET", "/healthz", "");
    let rows = Json::parse(&health)
        .expect("healthz is JSON")
        .get("rows")
        .and_then(Json::as_u64)
        .expect("healthz carries rows") as usize;
    step("healthz rows".into(), (status, rows.to_string()));
    step("explain the last row".into(), explain(&app, rows - 1));
    step("explain one past the rows".into(), explain(&app, rows));

    step("shutdown".into(), call(&app, "POST", "/admin/shutdown", ""));
    step("explain after drain".into(), explain(&app, 0));
    step(
        "ingest after drain".into(),
        call(&app, "POST", "/monitor/ingest", &row),
    );
    steps
}

#[test]
fn every_backend_answers_the_script_alike() {
    let fx = Fixture::new();
    let engine = script(&fx, Kind::Engine);

    // The engine against the references.
    let srk = Srk::new(Fixture::alpha());
    let unlimited = WorkBudget::unlimited();
    let extended = fx.extended();
    let degrading = degrading_target(&fx.ctx);
    let want = |step: &str| -> (u16, String) {
        match step {
            "explain out of range" => rendered(
                &srk.explain_budgeted(&fx.ctx, ROWS + 5, unlimited),
                ROWS + 5,
            ),
            "explain while shedding" => (
                429,
                "{\"status\":\"shed\",\"error\":\"server overloaded, retry later\"}".into(),
            ),
            "explain while degraded" => rendered(
                &srk.explain_budgeted(&fx.ctx, degrading, WorkBudget::new(DEGRADE_BUDGET)),
                degrading,
            ),
            "monitor n_seen" => (0, "1".into()),
            "explain the ingested row" | "explain the last row" => {
                rendered(&srk.explain_budgeted(&extended, ROWS, unlimited), ROWS)
            }
            "healthz rows" => (200, (ROWS + 1).to_string()),
            "explain one past the rows" => rendered(
                &srk.explain_budgeted(&extended, ROWS + 1, unlimited),
                ROWS + 1,
            ),
            "shutdown" => (200, "{\"status\":\"draining\"}".into()),
            "explain after drain" | "ingest after drain" => (
                503,
                "{\"status\":\"error\",\"error\":\"server is draining\"}".into(),
            ),
            other => {
                let t: usize = other
                    .strip_prefix("explain ")
                    .and_then(|t| t.parse().ok())
                    .unwrap_or_else(|| panic!("no reference for step {other:?}"));
                rendered(&srk.explain_budgeted(&fx.ctx, t, unlimited), t)
            }
        }
    };
    for (name, status, body) in &engine {
        if name == "ingest" {
            assert_eq!(*status, 200, "engine ingest: {body}");
            assert!(
                body.contains("\"context_rows\":91"),
                "engine ingest: {body}"
            );
            continue;
        }
        assert_eq!((*status, body.clone()), want(name), "engine: {name}");
    }
    assert!(
        engine
            .iter()
            .any(|(_, _, body)| body.contains("\"status\":\"degraded\"")),
        "the degraded app must degrade"
    );

    // Sharded: every step byte-identical to the engine, ingest included.
    let sharded = script(&fx, Kind::Sharded);
    assert_eq!(sharded.len(), engine.len());
    for (s, e) in sharded.iter().zip(&engine) {
        assert_eq!(s, e, "sharded vs engine");
    }

    // Paged: identical, except where the read-only store refuses.
    let paged = script(&fx, Kind::Paged);
    assert_eq!(paged.len(), engine.len());
    for (p, e) in paged.iter().zip(&engine) {
        let name = p.0.as_str();
        let refusal: Option<(u16, String)> = match name {
            "ingest" => Some((
                409,
                "{\"status\":\"error\",\"error\":\"store mode is read-only\"}".into(),
            )),
            "monitor n_seen" => Some((0, "0".into())),
            "explain the ingested row" | "explain one past the rows" => Some(rendered(
                &srk.explain_budgeted(&fx.ctx, ROWS, unlimited),
                ROWS,
            )),
            "healthz rows" => Some((200, ROWS.to_string())),
            "explain the last row" => Some(rendered(
                &srk.explain_budgeted(&fx.ctx, ROWS - 1, unlimited),
                ROWS - 1,
            )),
            _ => None,
        };
        match refusal {
            Some(want) => assert_eq!((p.1, p.2.clone()), want, "paged: {name}"),
            None => assert_eq!(p, e, "paged vs engine"),
        }
    }
}
