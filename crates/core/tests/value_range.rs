//! Explaining a context row whose value code lies outside its feature's
//! domain is refused with `ValueOutOfRange` on every backend, never a
//! panic: `ContextIndex::new` leaves such a row out of the postings, so
//! the greedy driver must not index the seed table with its code.

use std::sync::Arc;

use cce_core::pagestore::write_store;
use cce_core::persist::MemVfs;
use cce_core::{
    Alpha, BatchEngine, Context, ContextIndex, ExplainError, PagedContextIndex, WorkBudget,
};
use cce_dataset::{FeatureDef, Instance, Label, Schema};

#[test]
fn out_of_domain_target_is_refused_on_every_backend() {
    let schema = Arc::new(Schema::new(vec![
        FeatureDef::categorical("a", &["x", "y"]),
        FeatureDef::categorical("b", &["p", "q"]),
    ]));
    let mut ctx = Context::new(
        schema,
        vec![
            Instance::new(vec![0, 0]),
            Instance::new(vec![1, 0]),
            Instance::new(vec![0, 1]),
        ],
        vec![Label(0), Label(1), Label(1)],
    );
    ctx.push(Instance::new(vec![5, 1]), Label(0)).unwrap();
    let refused = Err(ExplainError::ValueOutOfRange {
        feature: 0,
        value: 5,
        cardinality: 2,
    });

    let idx = ContextIndex::new(&ctx);
    assert_eq!(idx.explain(&ctx, 3, Alpha::ONE), refused);

    let engine = BatchEngine::new(ctx.clone(), Alpha::ONE);
    assert_eq!(
        engine
            .explain_one(3, WorkBudget::unlimited())
            .map(|b| b.key),
        refused
    );

    let mut vfs = MemVfs::new();
    write_store(&mut vfs, "ctx.pg", &ctx, 64, &[]).unwrap();
    let mut paged = PagedContextIndex::open(vfs, "ctx.pg", 1 << 16).unwrap();
    assert_eq!(paged.explain_row(3, Alpha::ONE), refused);
}
