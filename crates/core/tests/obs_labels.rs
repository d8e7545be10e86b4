//! The greedy driver files each backend's explains under its own `algo`
//! label. The obs macros cache one handle per call site, and a site in a
//! generic function is shared by every instantiation, so a single
//! labelled site would file all backends under the first label it saw.
//!
//! This is its own test binary: the counters are process-global, and no
//! other test may move them between the reads below.

use std::sync::Arc;

use cce_core::pagestore::write_store;
use cce_core::persist::MemVfs;
use cce_core::{Alpha, Context, ContextIndex, PagedContextIndex, Srk};
use cce_dataset::{FeatureDef, Instance, Label, Schema};

/// `(keys, violator scans)` under `algo="paged"` and `algo="indexed"`.
/// Each label gets its own call sites, for the reason above.
fn snapshot() -> [(u64, u64); 2] {
    [
        (
            cce_obs::counter!("cce_explain_keys_total", "algo" => "paged").get(),
            cce_obs::counter!("cce_explain_violator_scans_total", "algo" => "paged").get(),
        ),
        (
            cce_obs::counter!("cce_explain_keys_total", "algo" => "indexed").get(),
            cce_obs::counter!("cce_explain_violator_scans_total", "algo" => "indexed").get(),
        ),
    ]
}

/// A context in which some target needs a key of two or more features,
/// so its explain refreshes at least one score after round 0.
fn context() -> Context {
    let schema = Arc::new(Schema::new(
        (0..3)
            .map(|f| FeatureDef::categorical(&format!("f{f}"), &["a", "b", "c"]))
            .collect(),
    ));
    // The label is the parity of f0 + f1: no single feature decides it.
    let rows: Vec<(Vec<u32>, u32)> = (0..27u32)
        .map(|r| (vec![r % 3, (r / 3) % 3, r / 9], (r % 3 + (r / 3) % 3) % 2))
        .collect();
    Context::new(
        schema,
        rows.iter().map(|(x, _)| Instance::new(x.clone())).collect(),
        rows.iter().map(|&(_, p)| Label(p)).collect(),
    )
}

#[test]
fn each_backend_files_explains_under_its_own_label() {
    let ctx = context();
    let target = (0..ctx.len())
        .find(|&t| {
            Srk::new(Alpha::ONE)
                .explain(&ctx, t)
                .is_ok_and(|k| k.succinctness() >= 2)
        })
        .expect("some target needs two features");

    let mut vfs = MemVfs::new();
    write_store(&mut vfs, "ctx.pg", &ctx, 64, &[]).expect("convert");
    let mut paged = PagedContextIndex::open(vfs, "ctx.pg", 1 << 16).expect("open");
    let index = ContextIndex::new(&ctx);

    // Paged first, so a shared call site would latch onto "paged".
    let [paged0, indexed0] = snapshot();
    paged
        .explain_row(target, Alpha::ONE)
        .expect("paged explain");
    let [paged1, indexed1] = snapshot();
    assert_eq!(paged1.0, paged0.0 + 1, "paged keys");
    assert!(paged1.1 > paged0.1, "paged scans");
    assert_eq!(
        indexed1, indexed0,
        "a paged explain moved the indexed series"
    );

    index
        .explain(&ctx, target, Alpha::ONE)
        .expect("in-RAM explain");
    let [paged2, indexed2] = snapshot();
    assert_eq!(indexed2.0, indexed1.0 + 1, "indexed keys");
    assert!(indexed2.1 > indexed1.1, "indexed scans");
    assert_eq!(paged2, paged1, "an in-RAM explain moved the paged series");
}
