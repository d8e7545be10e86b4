//! The one SRK greedy loop (Alg. 1), shared by every indexed backend.
//!
//! Every execution path answers the same question each round: of the
//! live violators and supporters, how many agree with `x₀` on feature
//! `f`? A [`CountSource`] answers it — over in-RAM bitsets, over paged
//! columns faulted in on demand, or over counts gathered from shard
//! workers — and [`explain`] runs the loop on top: target validation,
//! the α tolerance, the unsatisfiability certificate, budget accounting,
//! the lazy-greedy candidate heap with its tie-break, the error shapes
//! and the obs series all live here, once.
//!
//! # Lazy greedy
//!
//! A feature's marginal gain — the violators it would eliminate — is
//! monotone non-increasing as picks shrink the live violator set, and so
//! is its supporter coverage. A score computed in an earlier round is
//! therefore a valid *upper bound* on the current one. Candidates wait in
//! a max-heap keyed by their last-known `(gain, coverage)`; each round
//! refreshes only until the heap's top carries a fresh score, skipping
//! the features whose stale bounds already lose (counted in
//! `cce_lazy_greedy_skips_total`). Because the key includes the coverage
//! tie-break and then the lowest feature index, the pick is *exactly* the
//! one the eager full rescan of [`Srk::explain_budgeted`] makes.
//!
//! Round 0 reads the source's seeds — the scores against the initial
//! live sets, which indexed sources tabulate at build time — so short
//! keys cost a table argmax plus one [`CountSource::apply_pick`] per
//! picked feature, and empty keys cost nothing.
//!
//! # Budget accounting
//!
//! Budgets are accounted in **eager-scan units**: each round charges
//! `unpicked features × live violators`, exactly what the reference scan
//! spends, so whether a call completes or degrades (and the reported
//! `spent`) does not depend on the source. The twin certificate is
//! consulted only under an unlimited budget: a finite budget may run out
//! before the reference scan reaches the error, and the budgeted contract
//! is to degrade exactly where the reference would.
//!
//! [`Srk::explain_budgeted`]: crate::Srk::explain_budgeted

use std::cmp::Ordering;
use std::collections::BinaryHeap;

use cce_dataset::Cat;

use crate::alpha::Alpha;
use crate::error::ExplainError;
use crate::key::RelativeKey;
use crate::srk::{BudgetedKey, ExplainStatus, WorkBudget};

/// The backend a source runs on: the `algo` label of its obs series.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Algo {
    /// In-RAM [`ContextIndex`](crate::ContextIndex).
    Indexed,
    /// Out-of-core [`PagedContextIndex`](crate::PagedContextIndex).
    Paged,
    /// Counts gathered from shard workers.
    Sharded,
}

/// σ-counts for one explain target `(x₀, p₀)`, bound at construction.
///
/// Every count is an exact integer over the source's live rows, so any
/// two sources over the same rows make the same picks.
pub trait CountSource {
    /// Why a count or a pick failed (a page fault, a shard call).
    type Error;
    /// The `algo` label this source's explains are filed under.
    const ALGO: Algo;

    /// The target's value codes `x₀`.
    fn target(&self) -> &[Cat];
    /// Every feature's cardinality in order (valid codes of a feature
    /// are `0..cardinality`); its length is the feature count `|A|`.
    fn cardinalities(&self) -> impl ExactSizeIterator<Item = usize> + '_;
    /// Live rows `|I|`: the tolerance base.
    fn live_rows(&self) -> usize;
    /// Violators of the empty key — live rows predicted differently from
    /// `p₀` — or `None` when `p₀` names no class of the source.
    fn initial_violators(&self) -> Option<usize>;
    /// Round-0 `(surviving violators, covered supporters)` of every
    /// feature in order: its counts against the initial live sets.
    fn seeds(&self) -> impl Iterator<Item = (usize, usize)> + '_;
    /// Live violators agreeing with `x₀` on `feature`.
    fn surv(&mut self, feature: usize) -> Result<usize, Self::Error>;
    /// Live supporters agreeing with `x₀` on `feature`.
    fn cover(&mut self, feature: usize) -> Result<usize, Self::Error>;
    /// Narrows the live sets to rows agreeing with `x₀` on `feature`
    /// (`first` on the first pick of the explain) and returns the new
    /// live-violator count.
    fn apply_pick(&mut self, feature: usize, first: bool) -> Result<usize, Self::Error>;
    /// Live rows equal to `x₀` on every feature but predicted differently
    /// — the violators no key can eliminate — when the source knows them
    /// without scanning.
    fn twin_certificate(&self) -> Option<usize> {
        None
    }
}

/// A lazy-greedy candidate: a feature with its last-evaluated score.
///
/// Each score component carries its own stamp — the round it was last
/// computed in. A component is *fresh* when its stamp matches the
/// current round and *stale* (a valid upper bound) otherwise. Splitting
/// the stamps lets a refresh recompute `killed` and leave `cover` stale:
/// the cover tie-break only matters when the heap's runner-up ties on
/// `killed`, so most rounds never count supporters at all.
///
/// Ordering is the greedy objective: maximize eliminated violators, then
/// kept supporters, then prefer the lowest feature index — the eager
/// scan's `min (survivors, MAX - coverage)` with its first-wins
/// tie-break.
#[derive(Debug, Clone, Copy)]
pub(crate) struct Candidate {
    /// Violators this feature eliminated when `killed` was last fresh.
    killed: usize,
    /// Supporters this feature kept when `cover` was last fresh.
    cover: usize,
    /// The feature.
    feat: usize,
    /// Round `killed` was computed in.
    kstamp: usize,
    /// Round `cover` was computed in.
    cstamp: usize,
}

impl Ord for Candidate {
    fn cmp(&self, other: &Self) -> Ordering {
        self.killed
            .cmp(&other.killed)
            .then(self.cover.cmp(&other.cover))
            .then(other.feat.cmp(&self.feat))
    }
}

impl PartialOrd for Candidate {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl PartialEq for Candidate {
    fn eq(&self, other: &Self) -> bool {
        self.cmp(other) == Ordering::Equal
    }
}

impl Eq for Candidate {}

/// Every feature's round-0 candidate, from the source's seeds.
fn seeded<S: CountSource>(src: &S, violators0: usize) -> impl Iterator<Item = Candidate> + '_ {
    src.seeds()
        .enumerate()
        .map(move |(feat, (surv0, cover0))| Candidate {
            killed: violators0 - surv0,
            cover: cover0,
            feat,
            kstamp: 0,
            cstamp: 0,
        })
}

impl Algo {
    /// `(keys, key length, violator scans)` under this label. Each arm
    /// expands its own macro call sites on purpose: the macros cache a
    /// handle per site, and one site shared by every `S: CountSource`
    /// would file all sources under whichever label it saw first.
    fn series(
        self,
    ) -> (
        &'static cce_obs::Counter,
        &'static cce_obs::Histogram,
        &'static cce_obs::Counter,
    ) {
        macro_rules! series {
            ($algo:literal) => {
                (
                    cce_obs::counter!("cce_explain_keys_total", "algo" => $algo),
                    cce_obs::histogram!("cce_explain_key_length", "algo" => $algo),
                    cce_obs::counter!("cce_explain_violator_scans_total", "algo" => $algo),
                )
            };
        }
        match self {
            Algo::Indexed => series!("indexed"),
            Algo::Paged => series!("paged"),
            Algo::Sharded => series!("sharded"),
        }
    }
}

fn no_conformant_key(contradictions: usize, tolerance: usize) -> ExplainError {
    cce_obs::counter!("cce_explain_errors_total", "kind" => "no_conformant_key").inc();
    ExplainError::NoConformantKey {
        contradictions,
        tolerance,
    }
}

/// Runs SRK over `src`: byte-identical to [`Srk::explain_budgeted`] over
/// the source's live rows, keys, degradation points and errors included.
///
/// The outer `Result` carries the source's own failure; the inner one
/// is the explain's answer.
///
/// # Errors
/// `Err(S::Error)` when the source fails mid-loop.
///
/// [`Srk::explain_budgeted`]: crate::Srk::explain_budgeted
pub fn explain<S: CountSource>(
    src: &mut S,
    alpha: Alpha,
    budget: WorkBudget,
) -> Result<Result<BudgetedKey, ExplainError>, S::Error> {
    explain_in(src, alpha, budget, &mut BinaryHeap::new())
}

/// [`explain`] with a caller-owned candidate heap, reused across calls.
pub(crate) fn explain_in<S: CountSource>(
    src: &mut S,
    alpha: Alpha,
    budget: WorkBudget,
    heap: &mut BinaryHeap<Candidate>,
) -> Result<Result<BudgetedKey, ExplainError>, S::Error> {
    let live = src.live_rows();
    if live == 0 {
        return Ok(Err(ExplainError::EmptyContext));
    }
    let n = src.cardinalities().len();
    let x0 = src.target();
    if x0.len() != n {
        return Ok(Err(ExplainError::WidthMismatch {
            expected: n,
            got: x0.len(),
        }));
    }
    // Sources address counts by value code, so a code outside its
    // feature's domain is refused here, on every backend alike.
    for (feature, (&value, cardinality)) in x0.iter().zip(src.cardinalities()).enumerate() {
        if value as usize >= cardinality {
            return Ok(Err(ExplainError::ValueOutOfRange {
                feature,
                value,
                cardinality,
            }));
        }
    }
    let Some(violators0) = src.initial_violators() else {
        return Ok(Err(ExplainError::UnknownInstance));
    };
    let tolerance = alpha.tolerance(live);
    let budgeted = budget != WorkBudget::unlimited();
    let (keys, key_length, scans) = S::ALGO.series();

    // Unsatisfiable targets fail identically after `n` futile rounds: the
    // violators surviving a full intersection are the target's
    // differently-predicted exact twins, regardless of pick order. A
    // source that knows them certifies the failure up front.
    if !budgeted && violators0 > tolerance {
        if let Some(contradictions) = src.twin_certificate() {
            if contradictions > tolerance {
                return Ok(Err(no_conformant_key(contradictions, tolerance)));
            }
        }
    }

    let mut live_violators = violators0;
    let mut picked = Vec::new();
    // Locally accumulated, flushed in one atomic add at the end.
    let mut evaluated: u64 = 0;
    let mut eager_scans: u64 = 0;
    let mut accounted: u64 = 0;
    while live_violators > tolerance {
        if picked.len() == n {
            return Ok(Err(no_conformant_key(live_violators, tolerance)));
        }
        if budgeted && accounted >= budget.max_scans {
            cce_obs::counter!("cce_explain_degraded_total").inc();
            scans.add(evaluated);
            let achieved = 1.0 - live_violators as f64 / live as f64;
            return Ok(Ok(BudgetedKey {
                key: RelativeKey::new(picked, alpha, achieved),
                status: ExplainStatus::Degraded {
                    spent: accounted,
                    remaining_violators: live_violators,
                },
            }));
        }
        eager_scans += (n - picked.len()) as u64;
        accounted += ((n - picked.len()) * live_violators) as u64;
        let round = picked.len();
        let best = if round == 0 {
            // A linear argmax over the seeds and no heap: one-feature
            // keys never touch it. Candidates never compare equal (the
            // feature index breaks every tie), so the max is unique.
            seeded(src, violators0)
                .max()
                .expect("n > 0 once a round runs")
                .feat
        } else {
            if round == 1 {
                // A second round is needed: build the heap from the
                // stamp-0 seeds, stale now but valid upper bounds.
                heap.clear();
                heap.extend(seeded(src, violators0).filter(|c| c.feat != picked[0]));
            }
            loop {
                let mut top = heap.pop().expect("unpicked candidates remain");
                if top.kstamp < round {
                    // Refresh the primary component only; the stale
                    // cover stays a valid upper bound for ordering.
                    top.killed = live_violators - src.surv(top.feat)?;
                    top.kstamp = round;
                    evaluated += 1;
                    heap.push(top);
                    continue;
                }
                // A fresh `killed` dominates every true killed count
                // below it. The cover tie-break can only change the pick
                // if the runner-up's killed upper bound ties.
                let tie = heap.peek().is_some_and(|next| next.killed == top.killed);
                if top.cstamp == round || !tie {
                    // A fresh top beats every stale bound below it,
                    // hence every true score — the feature tie-break
                    // included (an equal rival with a lower index would
                    // have popped first).
                    break top.feat;
                }
                top.cover = src.cover(top.feat)?;
                top.cstamp = round;
                heap.push(top);
            }
        };
        picked.push(best);
        live_violators = src.apply_pick(best, round == 0)?;
    }
    keys.inc();
    key_length.record(picked.len() as u64);
    scans.add(evaluated);
    if S::ALGO != Algo::Sharded {
        // Skips = evaluations the eager rescan would have done but the
        // seeds (all of round 0) or the heap proved unnecessary. Later
        // rounds refresh each candidate at most once, so the subtraction
        // cannot underflow. (A sharded refresh reads gathered sums and
        // saves no scan.)
        cce_obs::counter!("cce_lazy_greedy_skips_total").add(eager_scans - evaluated);
    }
    let achieved = 1.0 - live_violators as f64 / live as f64;
    Ok(Ok(BudgetedKey {
        key: RelativeKey::new(picked, alpha, achieved),
        status: ExplainStatus::Complete,
    }))
}
