//! Out-of-core explains: [`PagedContextIndex`] answers the one greedy
//! loop of [`crate::greedy`] from paged columns faulted in on demand.
//!
//! # Byte-identity argument
//!
//! The seeds and the per-row twin certificates are the in-RAM index's
//! own values, copied verbatim by the writer. Every other count streams
//! a posting column page by page and sums per-page kernel counts;
//! addition over disjoint word ranges is exact, so each count equals its
//! in-RAM counterpart and the driver makes the same picks.
//! Value-addressed explains carry no stored certificate and reach an
//! unsatisfiable target's error by exhaustion instead, with the same
//! counts. `tests/pagestore_diff.rs` pins the equivalence across row
//! counts straddling word boundaries, page sizes, and cache budgets down
//! to a single page.
//!
//! # Failure semantics
//!
//! A page fault that fails — I/O error, truncated frame, checksum
//! mismatch — aborts the explain with [`ExplainError::Storage`]. The
//! loop never consumes unverified bits, so a corrupt store yields an
//! error, never a silently wrong key.

use std::collections::BinaryHeap;
use std::ops::Range;

use cce_dataset::{Cat, Instance, Label};

use crate::alpha::Alpha;
use crate::error::ExplainError;
use crate::greedy::{self, Algo, Candidate, CountSource};
use crate::kernels;
use crate::key::RelativeKey;
use crate::persist::{PersistError, Vfs};
use crate::srk::{BudgetedKey, WorkBudget};

use super::cache::{CacheStats, PageData};
use super::format::PageStore;

/// Renders a persistence failure as an explain abort.
fn storage_err(e: PersistError) -> ExplainError {
    ExplainError::Storage {
        reason: e.to_string(),
    }
}

/// Borrows the word payload of a bitset page.
fn words_of(page: &PageData) -> Result<&[u64], PersistError> {
    match page {
        PageData::Words(w) => Ok(w),
        PageData::Bytes(_) => Err(PersistError::corrupt("bitset page decoded as row data")),
    }
}

/// Streams column `col` page by page through `op(words, col_page,
/// with_page)`, summing what `op` returns. `words` is the page's range
/// of a full-width scratch bitset; `with_page` is column `with`'s page,
/// pinned beside `col`'s so the cache cannot evict one to admit the
/// other, even on a single-page budget (empty when `with` is `None`).
fn walk<V: Vfs>(
    store: &mut PageStore<V>,
    col: usize,
    with: Option<usize>,
    mut op: impl FnMut(Range<usize>, &[u64], &[u64]) -> u64,
) -> Result<usize, PersistError> {
    let wpp = store.geometry().words_per_page;
    let mut total = 0u64;
    for pk in 0..store.geometry().pages_per_col {
        let live = store.geometry().page_words(pk);
        let page = store.page(store.geometry().col_page(col, pk))?;
        let with_page = match with {
            Some(c) => Some(store.page(store.geometry().col_page(c, pk))?),
            None => None,
        };
        let with_words = match &with_page {
            Some(p) => &words_of(p)?[..live],
            None => &[],
        };
        total += op(
            pk * wpp..pk * wpp + live,
            &words_of(&page)?[..live],
            with_words,
        );
    }
    Ok(total as usize)
}

/// An out-of-core [`ContextIndex`](crate::ContextIndex): answers the
/// same explain queries from a [`PageStore`], faulting bitset pages
/// through the LRU cache instead of holding every posting in RAM.
#[derive(Debug)]
pub struct PagedContextIndex<V: Vfs> {
    store: PageStore<V>,
    /// Live violator and supporter sets — the only full-width bitsets
    /// the paged path keeps resident (2 × ⌈rows/64⌉ words).
    violators: Vec<u64>,
    supporters: Vec<u64>,
    heap: BinaryHeap<Candidate>,
}

/// One explain's view of a [`PageStore`]: counts stream posting columns
/// against the resident live sets.
struct PagedSource<'a, V: Vfs> {
    store: &'a mut PageStore<V>,
    violators: &'a mut [u64],
    supporters: &'a mut [u64],
    x0: &'a [Cat],
    /// The target's class in the directory.
    class: Option<usize>,
    twin_certificate: Option<usize>,
}

impl<V: Vfs> PagedSource<'_, V> {
    fn posting_col(&self, f: usize) -> usize {
        self.store.geometry().value_col(f, self.x0[f] as usize)
    }
}

impl<V: Vfs> CountSource for PagedSource<'_, V> {
    type Error = PersistError;
    const ALGO: Algo = Algo::Paged;

    fn target(&self) -> &[Cat] {
        self.x0
    }

    fn cardinalities(&self) -> impl ExactSizeIterator<Item = usize> + '_ {
        self.store.geometry().cards.iter().copied()
    }

    fn live_rows(&self) -> usize {
        self.store.rows()
    }

    fn initial_violators(&self) -> Option<usize> {
        let dir = self.store.directory();
        self.class
            .map(|ci| self.store.rows() - dir.classes[ci].size)
    }

    fn seeds(&self) -> impl Iterator<Item = (usize, usize)> + '_ {
        let ci = self.class.expect("the driver checks the class first");
        let seed = &self.store.directory().classes[ci].seed;
        seed.iter()
            .zip(self.x0)
            .map(|(cells, &v)| cells[v as usize])
    }

    fn surv(&mut self, feature: usize) -> Result<usize, PersistError> {
        let k = kernels::active();
        let violators = &*self.violators;
        walk(self.store, self.posting_col(feature), None, |r, col, _| {
            (k.count_and)(&violators[r], col)
        })
    }

    fn cover(&mut self, feature: usize) -> Result<usize, PersistError> {
        let k = kernels::active();
        let supporters = &*self.supporters;
        walk(self.store, self.posting_col(feature), None, |r, col, _| {
            (k.count_and)(&supporters[r], col)
        })
    }

    fn apply_pick(&mut self, feature: usize, first: bool) -> Result<usize, PersistError> {
        let k = kernels::active();
        let col = self.posting_col(feature);
        let (violators, supporters) = (&mut *self.violators, &mut *self.supporters);
        if first {
            // Materialize the live sets fused with the pick's
            // intersection: `posting ∩ ¬class` and `posting ∩ class`.
            let ci = self.class.expect("the driver checks the class first");
            let class_col = self.store.geometry().class_col(ci);
            walk(self.store, col, Some(class_col), |r, col, class| {
                for ((s, p), c) in supporters[r.clone()].iter_mut().zip(col).zip(class) {
                    *s = p & c;
                }
                (k.and_not_count)(&mut violators[r], col, class)
            })
        } else {
            walk(self.store, col, None, |r, col, _| {
                for (s, p) in supporters[r.clone()].iter_mut().zip(col) {
                    *s &= p;
                }
                (k.and_assign_count)(&mut violators[r], col)
            })
        }
    }

    fn twin_certificate(&self) -> Option<usize> {
        self.twin_certificate
    }
}

impl<V: Vfs> PagedContextIndex<V> {
    /// Wraps an opened store.
    pub fn new(store: PageStore<V>) -> Self {
        let words = store.geometry().words;
        Self {
            store,
            violators: vec![0; words],
            supporters: vec![0; words],
            heap: BinaryHeap::new(),
        }
    }

    /// Opens the store at `path` and wraps it; see [`PageStore::open`].
    ///
    /// # Errors
    /// Propagates [`PageStore::open`] validation failures.
    pub fn open(vfs: V, path: &str, cache_budget: usize) -> Result<Self, PersistError> {
        Ok(Self::new(PageStore::open(vfs, path, cache_budget)?))
    }

    /// Context rows in the backing store.
    pub fn len(&self) -> usize {
        self.store.rows()
    }

    /// True when the backing store holds no rows.
    pub fn is_empty(&self) -> bool {
        self.store.rows() == 0
    }

    /// The backing store (schema, directory, geometry access).
    pub fn store(&self) -> &PageStore<V> {
        &self.store
    }

    /// Mutable store access — row reads fault pages through the cache.
    pub fn store_mut(&mut self) -> &mut PageStore<V> {
        &mut self.store
    }

    /// Page-cache counters (`/healthz`, the bench harness).
    pub fn cache_stats(&self) -> CacheStats {
        self.store.cache_stats()
    }

    /// Explains the prediction of context row `target` — the paged
    /// equivalent of [`ContextIndex::explain`](crate::ContextIndex::explain).
    ///
    /// # Errors
    /// Same failure modes as the in-RAM path, plus
    /// [`ExplainError::Storage`] when a page cannot be faulted in.
    pub fn explain_row(
        &mut self,
        target: usize,
        alpha: Alpha,
    ) -> Result<RelativeKey, ExplainError> {
        self.explain_row_budgeted(target, alpha, WorkBudget::unlimited())
            .map(|b| b.key)
    }

    /// Budgeted row explain; see
    /// [`ContextIndex::explain_budgeted_with`](crate::ContextIndex::explain_budgeted_with).
    ///
    /// # Errors
    /// Same failure modes as [`PagedContextIndex::explain_row`].
    pub fn explain_row_budgeted(
        &mut self,
        target: usize,
        alpha: Alpha,
        budget: WorkBudget,
    ) -> Result<BudgetedKey, ExplainError> {
        // Mirrors `Context::check_target`: empty before out-of-range.
        let rows = self.store.rows();
        if rows == 0 {
            return Err(ExplainError::EmptyContext);
        }
        if target >= rows {
            return Err(ExplainError::TargetOutOfRange { target, len: rows });
        }
        let (x0, p0, twins) = self.store.row(target).map_err(storage_err)?;
        self.explain_value_core(&x0, p0, alpha, budget, Some(twins as usize))
    }

    /// Value-addressed explain. Addressing is by `(x₀, p₀)` exactly as
    /// in the in-RAM index, so row-addressed and value-addressed paged
    /// explains agree with their in-RAM counterparts byte for byte.
    ///
    /// # Errors
    /// Same failure modes as the in-RAM value-addressed explain, plus
    /// [`ExplainError::Storage`] for fault failures.
    pub fn explain_value(
        &mut self,
        x0: &Instance,
        p0: Label,
        alpha: Alpha,
        budget: WorkBudget,
    ) -> Result<BudgetedKey, ExplainError> {
        self.explain_value_core(x0, p0, alpha, budget, None)
    }

    /// The greedy driver over the store; `twin_certificate` is row
    /// `target`'s stored contradiction count when the caller is
    /// row-addressed.
    fn explain_value_core(
        &mut self,
        x0: &Instance,
        p0: Label,
        alpha: Alpha,
        budget: WorkBudget,
        twin_certificate: Option<usize>,
    ) -> Result<BudgetedKey, ExplainError> {
        let class = self
            .store
            .directory()
            .classes
            .iter()
            .position(|c| c.label == p0);
        let mut src = PagedSource {
            store: &mut self.store,
            violators: &mut self.violators,
            supporters: &mut self.supporters,
            x0: x0.values(),
            class,
            twin_certificate,
        };
        greedy::explain_in(&mut src, alpha, budget, &mut self.heap)
            .unwrap_or_else(|e| Err(storage_err(e)))
    }
}
