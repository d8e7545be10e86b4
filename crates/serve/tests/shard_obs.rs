//! The sharded router runs the shared greedy driver at one scatter round
//! per pick plus the seeding round, and files its explains under
//! `algo="sharded"` without feeding the indexed paths' series.
//!
//! This is its own test binary: the counters are process-global, and no
//! other test may move them between the reads below.

use std::path::PathBuf;
use std::sync::Arc;

use cce_core::{Alpha, Context, ExplainError, Srk, WorkBudget};
use cce_dataset::{csv, schema_io, synth, BinSpec};
use cce_serve::shard::{
    spawn_shards, IngestLog, ShardClient, ShardPolicy, ShardedAnswer, ShardedBackend, WorkerSpec,
};

/// Counters read around each explain.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct Snapshot {
    rounds: u64,
    sharded_keys: u64,
    indexed_keys: u64,
    skips: u64,
}

fn snapshot() -> Snapshot {
    Snapshot {
        rounds: cce_obs::counter!("cce_shard_scatter_rounds_total").get(),
        sharded_keys: cce_obs::counter!("cce_explain_keys_total", "algo" => "sharded").get(),
        indexed_keys: cce_obs::counter!("cce_explain_keys_total", "algo" => "indexed").get(),
        skips: cce_obs::counter!("cce_lazy_greedy_skips_total").get(),
    }
}

#[test]
fn one_scatter_round_per_pick_and_sharded_labels() {
    let mut ds = synth::loan::generate(120, 7).encode(&BinSpec::uniform(6));
    // Exact twins under the other label make some targets unsatisfiable,
    // so the exhaustion path is counted too.
    let twin = ds.instances()[0].clone();
    let flipped = cce_dataset::Label(1 - ds.labels()[0].0);
    ds.push(twin, flipped);
    let ctx = Context::from_recorded(&ds);
    let n = ctx.schema().n_features();

    let dir = std::env::temp_dir().join(format!("cce_shard_obs_{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("create temp dir");
    let data = dir.join("loan.csv");
    std::fs::write(&data, csv::to_csv(&ds)).expect("write csv");
    std::fs::write(
        data.with_extension("csv.schema"),
        schema_io::sidecar_to_text(ds.schema(), ds.label_names()),
    )
    .expect("write sidecar");

    let shards = 2;
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
    let backend = Arc::new(ShardedBackend::new(
        Alpha::ONE,
        n,
        clients,
        ds.len() as u64,
        log,
        false,
    ));
    backend.set_supervisor(handle);

    let srk = Srk::new(Alpha::ONE);
    let mut exhausted = 0;
    for budget in [WorkBudget::unlimited(), WorkBudget::new(300)] {
        for target in 0..ctx.len() {
            let before = snapshot();
            let ShardedAnswer::Done {
                result,
                missing_shards,
            } = backend.explain(target as u64, budget)
            else {
                panic!("target {target}: unavailable with every shard healthy");
            };
            let after = snapshot();
            assert!(missing_shards.is_empty(), "target {target}");
            assert_eq!(result, srk.explain_budgeted(&ctx, target, budget));
            let (picks, completed) = match &result {
                Ok(b) => (b.key.succinctness(), b.status.is_complete()),
                Err(ExplainError::NoConformantKey { .. }) => {
                    exhausted += 1;
                    (n, false)
                }
                Err(e) => panic!("target {target}: {e}"),
            };
            assert_eq!(
                after.rounds - before.rounds,
                1 + picks as u64,
                "target {target}: scatter rounds"
            );
            assert_eq!(
                after.sharded_keys - before.sharded_keys,
                u64::from(completed),
                "target {target}: sharded keys"
            );
            assert_eq!(after.indexed_keys, before.indexed_keys, "target {target}");
            assert_eq!(after.skips, before.skips, "target {target}");
        }
    }
    assert!(exhausted > 0, "the twins make some target unsatisfiable");
    backend.stop();
    let _ = std::fs::remove_dir_all(&dir);
}
