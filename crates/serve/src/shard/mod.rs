//! Fault-tolerant sharded serving: supervised worker processes, a
//! scatter/gather router, and the failure policy between them.
//!
//! The context's rows are hash-partitioned across `N` worker processes
//! (`cce shard-worker`), each holding one disjoint row partition. The
//! router in the daemon runs the shared SRK driver
//! ([`cce_core::greedy`]) over counts it gathers: every round it
//! scatters one stateless *counts* request (target instance, prediction,
//! key-so-far) to all shards and sums the per-candidate surviving-violator
//! and supporter-coverage counts — both are additive over disjoint row
//! partitions, so with no faults the gathered pick sequence is **byte
//! identical** to the single-process engine (the differential e2e test
//! pins this). Statelessness is what makes the failure policy safe:
//! retries and hedges can never double-apply work.
//!
//! Failure handling, per shard: a per-attempt deadline, budgeted retries
//! with exponential backoff and full jitter, one hedged request when the
//! primary is slow, and a half-open circuit breaker ([`client`]). A
//! supervisor health-checks the worker processes and respawns crashed
//! ones, replaying the shard's slice of the ingest log ([`supervisor`]).
//! While a shard is down the router answers from the surviving partitions
//! and marks the response explicitly partial — a `206` with a
//! `"degraded":{"missing_shards":[...]}` field — never a silent subset
//! and never a `500` ([`router`]).

pub mod client;
pub mod router;
pub mod supervisor;
pub mod wire;
pub mod worker;

pub use client::{CallError, ShardClient, ShardPolicy};
pub use router::{IngestLog, ShardedAnswer, ShardedBackend};
pub use supervisor::{spawn_shards, SupervisorHandle, WorkerSpec};
pub use wire::{decode_frame, encode_frame, Req, Resp, WireError, MAX_FRAME_BYTES};

/// Deterministic row → shard assignment: a splitmix64 finalizer over the
/// **global** row index, reduced mod `n`. Both the workers (selecting
/// their partition from the source data) and the router (locating a
/// target's owner) must agree on this function, so it lives here and
/// nowhere else.
#[must_use]
pub fn shard_of(global_row: u64, n_shards: usize) -> usize {
    debug_assert!(n_shards > 0);
    let mut z = global_row.wrapping_add(0x9e37_79b9_7f4a_7c15);
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^= z >> 31;
    (z % n_shards as u64) as usize
}

#[cfg(test)]
mod tests {
    use super::shard_of;

    #[test]
    fn shard_of_is_total_and_reasonably_balanced() {
        let n = 4;
        let mut counts = [0usize; 4];
        for g in 0..10_000u64 {
            let s = shard_of(g, n);
            assert!(s < n);
            counts[s] += 1;
        }
        // Splitmix over consecutive integers should spread within ~20%.
        for &c in &counts {
            assert!((2_000..=3_000).contains(&c), "imbalanced: {counts:?}");
        }
    }

    #[test]
    fn shard_of_single_shard_is_always_zero() {
        for g in [0u64, 1, 17, u64::MAX] {
            assert_eq!(shard_of(g, 1), 0);
        }
    }
}
