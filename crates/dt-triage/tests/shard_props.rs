//! The sharded-identity property (DESIGN.md §15): sealing through a
//! worker group of any size yields **bit-identical** windows to the
//! single-worker plane — same rows in the same order, same sequence
//! tags, same synopsis state, same counters — for every mergeable
//! synopsis kind, every group-key distribution (uniform, zipf-skewed,
//! adversarial single-key), and every steal schedule.
//!
//! The argument the test pins: admission decides the kept/dropped
//! multisets *before* routing, rows re-sort on their unique ingest
//! sequence at merge, and each mergeable synopsis's merged state is a
//! function of the tagged point set alone. Hence partitioning — and
//! re-partitioning mid-run via batch stealing — cannot change sealed
//! output.

use dt_synopsis::SynopsisConfig;
use dt_triage::{SealedWindow, ShardedStream, ShedMode};
use dt_types::{Row, Timestamp, Tuple, VDuration, WindowSpec};
use proptest::prelude::*;

fn spec() -> WindowSpec {
    WindowSpec::new(VDuration::from_secs(1)).unwrap()
}

fn tup(v: i64, us: u64) -> Tuple {
    Tuple::new(Row::from_ints(&[v]), Timestamp::from_micros(us))
}

/// The four synopsis kinds, all of which merge across shards.
fn synopsis(idx: usize) -> SynopsisConfig {
    [
        SynopsisConfig::Sparse { cell_width: 5 },
        SynopsisConfig::MHist {
            max_buckets: 8,
            alignment: None,
        },
        SynopsisConfig::Reservoir {
            capacity: 12,
            seed: 7,
        },
        SynopsisConfig::AdaptiveSparse {
            base_width: 1,
            max_cells: 4,
        },
    ][idx % 4]
}

/// Map a raw draw to a group key under one of three distributions:
/// uniform over 40 keys, zipf-like (90% of mass on 3 hot keys), or
/// the adversarial constant key that routes everything to one shard.
fn key(dist: usize, raw: u64) -> i64 {
    match dist % 3 {
        0 => (raw % 40) as i64,
        1 => {
            if raw % 10 < 9 {
                (raw % 3) as i64
            } else {
                (raw % 40) as i64
            }
        }
        _ => 42,
    }
}

fn assert_identical(a: &[SealedWindow], b: &[SealedWindow]) -> Result<(), TestCaseError> {
    prop_assert_eq!(a.len(), b.len(), "same window range");
    for (x, y) in a.iter().zip(b) {
        prop_assert_eq!(x.window, y.window);
        prop_assert_eq!(&x.rows, &y.rows, "window {} rows", x.window);
        prop_assert_eq!(&x.seqs, &y.seqs, "window {} seqs", x.window);
        prop_assert_eq!(&x.syn, &y.syn, "window {} synopses", x.window);
        prop_assert_eq!(
            (x.arrived, x.kept, x.dropped, x.degraded),
            (y.arrived, y.kept, y.dropped, y.degraded)
        );
    }
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Sealed output through `k` shards equals the single-worker seal,
    /// for any keep/shed interleaving, key distribution, synopsis
    /// kind, and shard count.
    #[test]
    fn sharded_identity(
        shards in 2usize..=4,
        dist in 0usize..3,
        syn in 0usize..4,
        // (keep?, key draw, micros) — lands across ~3 windows.
        ops in prop::collection::vec(
            (any::<bool>(), any::<u64>(), 0u64..3_000_000),
            1..120,
        ),
    ) {
        let cfg = synopsis(syn);
        let mut single = ShardedStream::new(0, 1, ShedMode::DataTriage, cfg, spec(), 1, Some(0));
        let mut group =
            ShardedStream::new(0, 1, ShedMode::DataTriage, cfg, spec(), shards, Some(0));
        for (keep, raw, us) in &ops {
            let t = tup(key(dist, *raw), *us);
            if *keep {
                single.keep(&t).unwrap();
                group.keep(&t).unwrap();
            } else {
                single.shed(&t).unwrap();
                group.shed(&t).unwrap();
            }
        }
        let a = single.seal_all().unwrap();
        let b = group.seal_all().unwrap();
        assert_identical(&a, &b)?;
    }

    /// Stealing cannot change sealed output: folding every kept tuple
    /// into an arbitrary shard (the single-threaded analog of batches
    /// moving between workers mid-run) seals bit-identically to keyed
    /// routing — and to the single worker.
    #[test]
    fn steal_schedule_independence(
        shards in 2usize..=4,
        dist in 0usize..3,
        syn in 0usize..4,
        // (key draw, micros, shard draw) — the shard draw is the
        // "steal schedule": where each tuple actually lands.
        ops in prop::collection::vec(
            (any::<u64>(), 0u64..3_000_000, any::<usize>()),
            1..120,
        ),
    ) {
        let cfg = synopsis(syn);
        let mut routed =
            ShardedStream::new(0, 1, ShedMode::DataTriage, cfg, spec(), shards, Some(0));
        let mut stolen =
            ShardedStream::new(0, 1, ShedMode::DataTriage, cfg, spec(), shards, Some(0));
        for (raw, us, sh) in &ops {
            let t = tup(key(dist, *raw), *us);
            routed.keep(&t).unwrap();
            stolen.keep_on(&t, sh % shards).unwrap();
        }
        let a = routed.seal_all().unwrap();
        let b = stolen.seal_all().unwrap();
        assert_identical(&a, &b)?;
        let total: usize = b.iter().map(|w| w.seqs.len()).sum();
        prop_assert_eq!(total, ops.len(), "every tuple lands exactly once");
    }
}
