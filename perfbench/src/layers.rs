//! The per-layer metrics of a traced run, named `<module>.<metric>`.
//!
//! Every workload reports the whole list. A layer that is not on a
//! workload's path reads 0, and so does the count beside it that serves
//! as its base (`server.explains`, `pagestore.lookups`, ...), which tells
//! such a 0 apart from a measured one. Times are means in µs.

use crate::util::{ratio, Counts};

pub const PER_LAYER: &[(&str, &str)] = &[
    ("server.handle_us", "us"),
    ("server.transport_us", "us"),
    ("server.explains", "count"),
    ("batcher.wait_us", "us"),
    ("batcher.batch_size", "count"),
    ("batcher.batches", "count"),
    ("admission.shed", "count"),
    ("admission.degraded_batches", "count"),
    ("engine.batch_us", "us"),
    ("engine.memo_hit_share", "ratio"),
    ("engine.explains", "count"),
    ("index.violator_scans_per_explain", "count"),
    ("index.explains", "count"),
    ("index.lazy_skip_share", "ratio"),
    ("index.eager_scans", "count"),
    ("index.explain_us", "us"),
    ("pagestore.hit_rate", "ratio"),
    ("pagestore.lookups", "count"),
    ("pagestore.misses_per_explain", "count"),
    ("pagestore.evictions_per_explain", "count"),
    ("pagestore.explains", "count"),
    ("pagestore.explain_us", "us"),
    ("shard.rounds_per_explain", "count"),
    ("shard.explains", "count"),
    ("shard.rpc_us", "us"),
    ("shard.retries", "count"),
    ("shard.hedges", "count"),
    ("shard.call_failures", "count"),
    ("ingest.handle_us", "us"),
    ("ingest.acks", "count"),
    ("persist.wal_appends", "count"),
    ("persist.snapshots", "count"),
    ("index.deltas", "count"),
    ("window.slides", "count"),
    ("engine.compactions", "count"),
    ("obs.trace_overhead", "ratio"),
    ("obs.traced_explains_per_s", "1/s"),
    ("obs.untraced_explains_per_s", "1/s"),
];

/// Per-layer values being assembled; every metric starts at 0.
pub struct Layers(Vec<(&'static str, f64)>);

impl Layers {
    pub fn new() -> Self {
        Self(PER_LAYER.iter().map(|(n, _)| (*n, 0.0)).collect())
    }

    pub fn set(&mut self, name: &str, value: f64) {
        let slot = self
            .0
            .iter_mut()
            .find(|(n, _)| *n == name)
            .unwrap_or_else(|| panic!("{name} is not a per-layer metric"));
        slot.1 = value;
    }

    pub fn get(&self, name: &str) -> f64 {
        self.0
            .iter()
            .find(|(n, _)| *n == name)
            .map_or(0.0, |(_, v)| *v)
    }

    /// Fills in the tracing overhead: traced over untraced throughput.
    pub fn overhead(&mut self, traced: f64, untraced: f64) {
        self.set("obs.traced_explains_per_s", traced);
        self.set("obs.untraced_explains_per_s", untraced);
        self.set("obs.trace_overhead", ratio(traced, untraced));
    }

    /// Everything the program's own `cce-obs` counters give over one
    /// traced window: `d` holds the registry deltas, from a daemon's
    /// `/metrics` or from the benchmark's own process.
    pub fn take_counts(&mut self, d: &Counts) {
        let request = |endpoint: &str, part: &str| {
            d.sum(
                &format!("cce_serve_request_ns_{part}"),
                &[("endpoint", endpoint)],
            )
        };
        let explains = request("explain", "count");
        self.set("server.explains", explains);
        self.set(
            "server.handle_us",
            ratio(request("explain", "sum"), explains) / 1e3,
        );

        let batches = d.sum("cce_serve_batch_size_count", &[]);
        self.set("batcher.batches", batches);
        self.set(
            "batcher.batch_size",
            ratio(d.sum("cce_serve_batch_size_sum", &[]), batches),
        );
        self.set(
            "engine.batch_us",
            ratio(
                d.sum("cce_serve_batch_explain_ns_sum", &[]),
                d.sum("cce_serve_batch_explain_ns_count", &[]),
            ) / 1e3,
        );
        self.set(
            "admission.shed",
            d.sum("cce_serve_requests_total", &[("status", "429")]),
        );
        self.set(
            "admission.degraded_batches",
            d.sum("cce_serve_degraded_batches_total", &[]),
        );

        // Targets handed to `BatchEngine::explain_batch`, and those
        // answered from a duplicate in the batch or from the memo.
        let engine = d.sum("cce_microbatch_size_sum", &[]);
        let memo =
            d.sum("cce_batch_memo_hits_total", &[]) + d.sum("cce_engine_memo_hits_total", &[]);
        self.set("engine.explains", engine);
        self.set("engine.memo_hit_share", ratio(memo, engine));

        // The greedy loop over an index, in RAM or paged. Targets the
        // unsatisfiability certificate answers count as explains with
        // no scans.
        let index = ["indexed", "paged"]
            .iter()
            .map(|a| d.sum("cce_explain_keys_total", &[("algo", a)]))
            .sum::<f64>()
            + d.sum("cce_explain_errors_total", &[("kind", "no_conformant_key")]);
        let scans = ["indexed", "paged"]
            .iter()
            .map(|a| d.sum("cce_explain_violator_scans_total", &[("algo", a)]))
            .sum::<f64>();
        let skips = d.sum("cce_lazy_greedy_skips_total", &[]);
        self.set("index.explains", index);
        self.set("index.violator_scans_per_explain", ratio(scans, index));
        self.set("index.eager_scans", scans + skips);
        self.set("index.lazy_skip_share", ratio(skips, scans + skips));

        let paged =
            d.sum("cce_pagestore_hits_total", &[]) + d.sum("cce_pagestore_misses_total", &[]) > 0.0;
        self.take_pagestore_counts(d, if paged { explains } else { 0.0 });

        let sharded = d.sum("cce_shard_scatter_rounds_total", &[]) > 0.0;
        self.take_shard_counts(d, if sharded { explains } else { 0.0 });

        let acks = d.sum("cce_serve_ingest_acks_total", &[]);
        self.set("ingest.acks", acks);
        self.set(
            "ingest.handle_us",
            ratio(request("ingest", "sum"), request("ingest", "count")) / 1e3,
        );
        self.set(
            "persist.wal_appends",
            ratio(d.sum("cce_persist_wal_appends_total", &[]), acks),
        );
        self.set(
            "persist.snapshots",
            ratio(d.sum("cce_persist_snapshots_total", &[]), acks),
        );
        self.set("index.deltas", d.sum("cce_index_deltas_total", &[]));
        self.set("window.slides", d.sum("cce_serve_window_slides_total", &[]));
        self.set(
            "engine.compactions",
            d.sum("cce_engine_compactions_total", &[]),
        );
    }

    /// The page cache's counters over `explains` paged explains.
    pub fn take_pagestore_counts(&mut self, d: &Counts, explains: f64) {
        let hits = d.sum("cce_pagestore_hits_total", &[]);
        let misses = d.sum("cce_pagestore_misses_total", &[]);
        self.set("pagestore.lookups", hits + misses);
        self.set("pagestore.hit_rate", ratio(hits, hits + misses));
        self.set("pagestore.explains", explains);
        self.set("pagestore.misses_per_explain", ratio(misses, explains));
        self.set(
            "pagestore.evictions_per_explain",
            ratio(d.sum("cce_pagestore_evictions_total", &[]), explains),
        );
    }

    /// The shard router's counters over `explains` sharded explains.
    pub fn take_shard_counts(&mut self, d: &Counts, explains: f64) {
        let rounds = d.sum("cce_shard_scatter_rounds_total", &[]);
        self.set("shard.explains", explains);
        self.set("shard.rounds_per_explain", ratio(rounds, explains));
        self.set("shard.retries", d.sum("cce_shard_retries_total", &[]));
        self.set("shard.hedges", d.sum("cce_shard_hedges_total", &[]));
        self.set(
            "shard.call_failures",
            d.sum("cce_shard_call_failures_total", &[]),
        );
    }

    pub fn into_metrics(self) -> Vec<(&'static str, f64)> {
        self.0
    }
}
