//! The greedy driver's differential contract, on small random contexts:
//! every execution path it runs over — the in-RAM index, the serving
//! engine after churn, and the paged store — answers every target
//! exactly as the reference scans do: `Srk::explain_budgeted` under
//! every budget, and the literal Alg. 1 (`Srk::explain_naive`) when the
//! budget is unlimited.

use std::sync::Arc;

use proptest::prelude::*;
use relative_keys::core::pagestore::write_store;
use relative_keys::core::persist::MemVfs;
use relative_keys::core::{
    Alpha, BatchEngine, Context, ContextIndex, ExplainScratch, PagedContextIndex, Srk, WorkBudget,
};
use relative_keys::dataset::{FeatureDef, Instance, Label, Schema};

/// Row counts: `0` draws a small count, the rest sit on and around the
/// 64- and 128-row word boundaries.
const SIZES: [usize; 8] = [0, 63, 64, 65, 127, 128, 129, 200];

/// Budgets in eager-scan units: none left, mid-round-0 cuts, and later.
const BUDGETS: [u64; 5] = [0, 1, 7, 40, 300];

/// A random context: `n` features of cardinality `card`, two or three
/// classes, and — in contradiction-heavy draws — trailing rows that copy
/// leading rows with a different label, making those targets
/// unsatisfiable at α = 1.
fn arb_context() -> impl Strategy<Value = Context> {
    (
        1usize..5,
        0usize..SIZES.len(),
        1usize..=20,
        2u32..4,
        2u32..4,
        0usize..3,
    )
        .prop_flat_map(|(n, size, small, card, classes, twins)| {
            let rows = match SIZES[size] {
                0 => small,
                r => r,
            };
            (
                proptest::collection::vec(proptest::collection::vec(0..card, n), rows),
                proptest::collection::vec(0..classes, rows),
            )
                .prop_map(move |(mut xs, mut ps)| {
                    for r in 0..rows * twins / 4 {
                        let (src, dst) = (r, rows - 1 - r);
                        if src < dst {
                            xs[dst] = xs[src].clone();
                            ps[dst] = (ps[src] + 1) % classes;
                        }
                    }
                    let names: Vec<String> = (0..card).map(|v| format!("v{v}")).collect();
                    let names: Vec<&str> = names.iter().map(String::as_str).collect();
                    let schema = Schema::new(
                        (0..n)
                            .map(|f| FeatureDef::categorical(&format!("f{f}"), &names))
                            .collect(),
                    );
                    Context::new(
                        Arc::new(schema),
                        xs.into_iter().map(Instance::new).collect(),
                        ps.into_iter().map(Label).collect(),
                    )
                })
        })
}

/// The store over `ctx` on the smallest page a row record fits in
/// (`4·(n+2)` bytes, rounded up to whole words), behind a 0-byte cache:
/// every unpinned page is evicted at once.
fn paged_of(ctx: &Context) -> PagedContextIndex<MemVfs> {
    let page_size = (4 * (ctx.schema().n_features() + 2)).next_multiple_of(8);
    let mut vfs = MemVfs::new();
    write_store(&mut vfs, "ctx.pg", ctx, page_size, &[]).expect("convert");
    PagedContextIndex::open(vfs, "ctx.pg", 0).expect("open")
}

/// Rows `range` of `ctx` as a context of their own.
fn rows_of(ctx: &Context, range: std::ops::Range<usize>) -> Context {
    Context::new(
        ctx.schema_arc(),
        range.clone().map(|r| ctx.instance(r).clone()).collect(),
        range.map(|r| ctx.prediction(r)).collect(),
    )
}

/// A serving engine that has seen churn: built over the first half of
/// `ctx`, drained, then fed the second half and the first half again —
/// so the first half's rows return after their slots were reclaimed.
fn churned_engine(ctx: &Context, alpha: Alpha) -> BatchEngine {
    let half = ctx.len() / 2;
    let mut engine = BatchEngine::new(rows_of(ctx, 0..half), alpha);
    engine.evict_oldest(engine.len());
    for r in (half..ctx.len()).chain(0..half) {
        engine
            .push(ctx.instance(r).clone(), ctx.prediction(r))
            .expect("push");
    }
    engine
}

fn check_every_target(ctx: &Context, alpha: Alpha) {
    let srk = Srk::new(alpha);
    let direct = ContextIndex::new(ctx);
    let mut paged = paged_of(ctx);
    let mut scratch = ExplainScratch::new();
    for t in 0..ctx.len() {
        let want = srk.explain_budgeted(ctx, t, WorkBudget::unlimited());
        let want_key = want.clone().map(|b| b.key);
        assert_eq!(srk.explain_naive(ctx, t), want_key, "naive, target {t}");
        assert_eq!(
            direct.explain_with(ctx, t, alpha, &mut scratch),
            want_key,
            "direct, target {t}"
        );
        assert_eq!(
            paged.explain_row_budgeted(t, alpha, WorkBudget::unlimited()),
            want,
            "paged, target {t}"
        );
        for max_scans in BUDGETS {
            let budget = WorkBudget::new(max_scans);
            let want = srk.explain_budgeted(ctx, t, budget);
            assert_eq!(
                direct.explain_budgeted_with(ctx, t, alpha, budget, &mut scratch),
                want,
                "direct, target {t}, budget {max_scans}"
            );
            assert_eq!(
                paged.explain_row_budgeted(t, alpha, budget),
                want,
                "paged, target {t}, budget {max_scans}"
            );
        }
    }
    let engine = churned_engine(ctx, alpha);
    let live = engine.materialize();
    let targets: Vec<usize> = (0..live.len()).collect();
    let budgets = BUDGETS.map(WorkBudget::new);
    for budget in std::iter::once(WorkBudget::unlimited()).chain(budgets) {
        let got = engine.explain_batch(&targets, budget, 2);
        for (t, got) in got.iter().enumerate() {
            assert_eq!(
                got,
                &srk.explain_budgeted(&live, t, budget),
                "engine, target {t}, budget {}",
                budget.max_scans
            );
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    #[test]
    fn every_path_matches_the_reference_scans(ctx in arb_context(), a in 0.7f64..1.0) {
        check_every_target(&ctx, Alpha::ONE);
        check_every_target(&ctx, Alpha::new(a).unwrap());
    }
}
