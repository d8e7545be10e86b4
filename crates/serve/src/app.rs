//! Route handling: the transport-independent half of the daemon.
//!
//! [`App::handle`] maps one [`Request`] to one [`Response`]; the TCP
//! layer ([`crate::server`]) and the tests drive the same code. The app
//! holds one [`Backend`] and runs, for every backend alike, the drain
//! rule (`503` once draining), admission (`429` when shedding, a
//! degraded budget when behind) and rendering (`206` for a partial
//! sharded answer, `503` for an unreachable target shard). It is
//! generic over the [`Vfs`] so the kill-during-ingest test can run the
//! production handler on the fault-injecting `MemVfs`.
//!
//! | route                  | behavior                                            |
//! |------------------------|-----------------------------------------------------|
//! | `POST /explain`        | admitted, budgeted relative-key explanation         |
//! | `POST /monitor/ingest` | WAL-durable online monitor arrival (ack = fsynced)  |
//! | `GET /metrics`         | Prometheus text exposition of the whole registry    |
//! | `GET /healthz`         | liveness + context/backend/drain summary            |
//! | `POST /admin/shutdown` | begins graceful drain, idempotent                   |

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Mutex};
use std::time::Instant;

use cce_core::persist::Vfs;
use cce_core::{Alpha, BudgetedKey, ExplainError, ExplainStatus};
use cce_dataset::{Instance, Label, Schema};

use crate::admission::{Admission, AdmissionConfig, Level};
use crate::backend::Backend;
use crate::http::{Request, Response};
use crate::ingest::{IngestError, IngestState, MonitorBackend};
use crate::json::{escape, int_array, Json};
use crate::shard::ShardedAnswer;

/// The daemon's shared state.
pub struct App<V: Vfs> {
    backend: Backend<V>,
    schema: Arc<Schema>,
    alpha: Alpha,
    admission: Admission,
    ingest: Mutex<IngestState<V>>,
    draining: AtomicBool,
}

/// Assembles the daemon over `backend`, with admission thresholds and
/// the ingest monitor. The CLI, the tests and the fault-injection
/// harness all build it here.
pub fn build_app<V: Vfs>(
    backend: Backend<V>,
    admission: AdmissionConfig,
    monitor: MonitorBackend<V>,
) -> Arc<App<V>> {
    let schema = backend.schema();
    Arc::new(App {
        alpha: backend.alpha(),
        ingest: Mutex::new(IngestState::new(monitor, schema.n_features())),
        schema,
        backend,
        admission: Admission::new(admission),
        draining: AtomicBool::new(false),
    })
}

impl<V: Vfs> App<V> {
    /// The backend explains run on.
    pub fn backend(&self) -> &Backend<V> {
        &self.backend
    }

    /// True once a drain has begun.
    pub fn draining(&self) -> bool {
        self.draining.load(Ordering::SeqCst)
    }

    /// Starts the drain: new explains and ingests get `503`, connections
    /// stop being kept alive. Idempotent.
    pub fn begin_drain(&self) {
        self.draining.store(true, Ordering::SeqCst);
    }

    /// Drain protocol final step: checkpoint the durable monitor so a
    /// clean shutdown never needs WAL replay on the next boot.
    ///
    /// # Errors
    /// Propagates snapshot-write failures from the durability layer.
    pub fn final_checkpoint(&self) -> Result<(), cce_core::persist::PersistError> {
        self.ingest
            .lock()
            .unwrap_or_else(|e| e.into_inner())
            .final_checkpoint()
    }

    /// Read access to the ingest monitor (tests, health).
    pub fn with_ingest<R>(&self, f: impl FnOnce(&IngestState<V>) -> R) -> R {
        f(&self.ingest.lock().unwrap_or_else(|e| e.into_inner()))
    }

    /// Routes one request. Every path records a per-endpoint latency
    /// histogram and a status-code counter.
    pub fn handle(&self, req: &Request) -> Response {
        let t0 = Instant::now();
        let (endpoint, resp) = match (req.method.as_str(), route_of(&req.path)) {
            ("POST", "/explain") => ("explain", self.explain(req)),
            ("POST", "/monitor/ingest") => ("ingest", self.monitor_ingest(req)),
            ("GET", "/metrics") => ("metrics", metrics_response()),
            ("GET", "/healthz") => ("healthz", self.healthz()),
            ("POST", "/admin/shutdown") => ("shutdown", self.shutdown()),
            ("POST", "/admin/chaos/kill-shard") => ("chaos", self.chaos_kill()),
            (
                _,
                "/explain"
                | "/monitor/ingest"
                | "/metrics"
                | "/healthz"
                | "/admin/shutdown"
                | "/admin/chaos/kill-shard",
            ) => ("method", Response::error_json(405, "method not allowed")),
            _ => ("unknown", Response::error_json(404, "no such route")),
        };
        observe_request(endpoint, resp.status, t0);
        resp
    }

    fn explain(&self, req: &Request) -> Response {
        let body = match parse_body(req) {
            Ok(v) => v,
            Err(resp) => return *resp,
        };
        let Some(target) = body.get("target").and_then(Json::as_u64) else {
            return Response::error_json(400, "body must carry a non-negative integer \"target\"");
        };
        let target = target as usize;
        if self.draining() {
            return Response::error_json(503, "server is draining");
        }
        if self.admission.observe(self.backend.load() + 1) == Level::Shedding {
            cce_obs::counter!("cce_serve_shed_total").inc();
            return Response::json(
                429,
                "{\"status\":\"shed\",\"error\":\"server overloaded, retry later\"}".to_string(),
            )
            .with_header("Retry-After", "1".to_string());
        }
        match self.backend.explain(target, self.admission.budget()) {
            Some(ShardedAnswer::Done {
                result,
                missing_shards,
            }) => {
                let resp = explain_response(target, self.alpha, &result);
                if missing_shards.is_empty() {
                    resp
                } else {
                    mark_partial(resp, &missing_shards)
                }
            }
            Some(ShardedAnswer::Unavailable { missing_shards }) => Response::json(
                503,
                format!(
                    "{{\"status\":\"unavailable\",\"error\":\"target row's shard is down, retry shortly\",\"missing_shards\":{}}}",
                    int_array(missing_shards),
                ),
            )
            .with_header("Retry-After", "1".to_string()),
            // The batcher thread died without answering: a server bug,
            // reported as such.
            None => Response::error_json(500, "explanation worker unavailable"),
        }
    }

    fn monitor_ingest(&self, req: &Request) -> Response {
        if self.draining() {
            return Response::error_json(503, "server is draining");
        }
        // Refused before the WAL: the monitor must not count a row the
        // context never takes.
        if self.backend.read_only() {
            return Response::error_json(409, "store mode is read-only");
        }
        let body = match parse_body(req) {
            Ok(v) => v,
            Err(resp) => return *resp,
        };
        let Some(values) = body.get("values").and_then(Json::as_array) else {
            return Response::error_json(400, "body must carry a \"values\" array");
        };
        let Some(pred) = body.get("prediction").and_then(Json::as_u64) else {
            return Response::error_json(
                400,
                "body must carry a non-negative integer \"prediction\"",
            );
        };
        let mut cats = Vec::with_capacity(values.len());
        for v in values {
            match v.as_u64() {
                Some(c) if c <= u32::MAX as u64 => cats.push(c as u32),
                _ => return Response::error_json(400, "\"values\" must be non-negative integers"),
            }
        }
        if pred > u32::MAX as u64 {
            return Response::error_json(400, "\"prediction\" out of range");
        }
        let x = Instance::new(cats);
        let pred = Label(pred as u32);
        // Validate value codes against the serving schema BEFORE the WAL
        // observe: a row the live context would reject must not become
        // durable monitor state, and an out-of-cardinality code would
        // otherwise poison the value-addressed index.
        let schema = &self.schema;
        if x.len() != schema.n_features() {
            return Response::error_json(
                400,
                &format!(
                    "instance width {} does not match context width {}",
                    x.len(),
                    schema.n_features()
                ),
            );
        }
        for f in 0..x.len() {
            let card = schema.feature(f).cardinality();
            if x[f] as usize >= card {
                cce_obs::counter!("cce_serve_ingest_rejected_total", "kind" => "value").inc();
                return Response::error_json(
                    400,
                    &format!(
                        "value code {} at feature {f} exceeds cardinality {card}",
                        x[f]
                    ),
                );
            }
        }
        let mut ingest = self.ingest.lock().unwrap_or_else(|e| e.into_inner());
        match ingest.observe(x.clone(), pred) {
            Ok(ack) => {
                // The arrival is durable (or the monitor is plain): join
                // it to the context explains address. Held under the
                // ingest lock, so arrivals land in WAL order.
                let context_rows = self.backend.ingest(x, pred);
                Response::json(
                    200,
                    format!(
                        "{{\"status\":\"ok\",\"n_seen\":{},\"key\":{},\"violators\":{},\"durable\":{},\"context_rows\":{}}}",
                        ack.n_seen,
                        int_array(ack.key),
                        ack.n_violators,
                        ack.durable,
                        context_rows,
                    ),
                )
            }
            Err(IngestError::Width { expected, got }) => Response::error_json(
                400,
                &format!("instance width {got} does not match monitor width {expected}"),
            ),
            Err(IngestError::Persist(e)) => {
                cce_obs::counter!("cce_serve_ingest_rejected_total", "kind" => "persist").inc();
                Response::error_json(
                    500,
                    &format!("durability failure, arrival NOT recorded: {e}"),
                )
            }
        }
    }

    fn healthz(&self) -> Response {
        let (rows, fields) = self.backend.health();
        let (ingested, durable) = self.with_ingest(|i| (i.monitor().n_seen(), i.is_durable()));
        Response::json(
            200,
            format!(
                "{{\"status\":\"ok\",\"rows\":{rows},\"features\":{},\"alpha\":{}{fields},\"ingested\":{ingested},\"durable\":{durable},\"draining\":{}}}",
                self.schema.n_features(),
                self.alpha.get(),
                self.draining(),
            ),
        )
    }

    fn shutdown(&self) -> Response {
        self.begin_drain();
        Response::json(200, "{\"status\":\"draining\"}".to_string())
    }

    /// Chaos hook: kills one random live shard worker. Only honored when
    /// the daemon was started with chaos testing enabled (`--chaos`).
    fn chaos_kill(&self) -> Response {
        match self.backend.router() {
            Some(s) if s.chaos_enabled() => {
                if s.kill_random_shard() {
                    Response::json(200, "{\"status\":\"killed\"}".to_string())
                } else {
                    Response::error_json(503, "shard supervisor unavailable")
                }
            }
            Some(_) => Response::error_json(403, "chaos endpoints disabled"),
            None => Response::error_json(404, "not serving sharded"),
        }
    }
}

/// Stamps a sharded response as explicitly partial: injects the
/// `"degraded":{"missing_shards":[...]}` field right after the leading
/// `{` and converts `200` into `206 Partial Content`. Error statuses
/// keep their code but still carry the field, so a caller can always
/// tell a full-context answer from a degraded one.
fn mark_partial(mut resp: Response, missing: &[usize]) -> Response {
    cce_obs::counter!("cce_serve_partial_responses_total").inc();
    let field = format!(
        "\"degraded\":{{\"missing_shards\":{}}},",
        int_array(missing.iter().copied()),
    );
    if resp.body.first() == Some(&b'{') {
        let mut body = Vec::with_capacity(resp.body.len() + field.len());
        body.push(b'{');
        body.extend_from_slice(field.as_bytes());
        body.extend_from_slice(&resp.body[1..]);
        resp.body = body;
    }
    if resp.status == 200 {
        resp.status = 206;
    }
    resp
}

/// Strips the query string: routing ignores it.
fn route_of(path: &str) -> &str {
    path.split('?').next().unwrap_or(path)
}

fn parse_body(req: &Request) -> Result<Json, Box<Response>> {
    let text = std::str::from_utf8(&req.body)
        .map_err(|_| Box::new(Response::error_json(400, "body is not UTF-8")))?;
    Json::parse(text).map_err(|e| {
        Box::new(Response::error_json(
            400,
            &format!("invalid JSON body: {e}"),
        ))
    })
}

fn metrics_response() -> Response {
    Response {
        status: 200,
        content_type: "text/plain; version=0.0.4; charset=utf-8",
        extra_headers: Vec::new(),
        body: cce_obs::registry()
            .snapshot()
            .to_prometheus_string()
            .into_bytes(),
    }
}

fn observe_request(endpoint: &str, status: u16, t0: Instant) {
    let ns = t0.elapsed().as_nanos() as u64;
    cce_obs::registry()
        .histogram("cce_serve_request_ns", &[("endpoint", endpoint)])
        .record(ns);
    let class = match status {
        200..=299 => "2xx",
        400..=428 | 430..=499 => "4xx",
        429 => "429",
        _ => "5xx",
    };
    cce_obs::registry()
        .counter(
            "cce_serve_requests_total",
            &[("endpoint", endpoint), ("status", class)],
        )
        .inc();
}

/// Renders the deterministic `/explain` response for `result`.
///
/// This function is `pub` because the coalescing differential test feeds
/// it per-request [`Srk::explain_budgeted`] outputs and asserts the
/// served bytes are identical — batching must be invisible.
///
/// [`Srk::explain_budgeted`]: cce_core::Srk::explain_budgeted
pub fn explain_response(
    target: usize,
    alpha: Alpha,
    result: &Result<BudgetedKey, ExplainError>,
) -> Response {
    match result {
        Ok(b) => {
            let status_field = match b.status {
                ExplainStatus::Complete => "\"status\":\"complete\"".to_string(),
                ExplainStatus::Degraded {
                    spent,
                    remaining_violators,
                } => format!(
                    "\"status\":\"degraded\",\"spent\":{spent},\"remaining_violators\":{remaining_violators}"
                ),
            };
            Response::json(
                200,
                format!(
                    "{{{status_field},\"target\":{target},\"alpha\":{},\"features\":{},\"succinctness\":{},\"achieved_conformity\":{}}}",
                    alpha.get(),
                    int_array(b.key.features().iter().copied()),
                    b.key.succinctness(),
                    b.key.achieved_conformity(),
                ),
            )
        }
        Err(e) => {
            let status = match e {
                ExplainError::TargetOutOfRange { .. } | ExplainError::EmptyContext => 400,
                ExplainError::NoConformantKey { .. } => 409,
                // A page that failed to fault is a server-side fault, not
                // a bad request.
                ExplainError::Storage { .. } => 500,
                _ => 422,
            };
            Response::json(
                status,
                format!(
                    "{{\"status\":\"error\",\"target\":{target},\"error\":\"{}\"}}",
                    escape(&e.to_string())
                ),
            )
        }
    }
}
