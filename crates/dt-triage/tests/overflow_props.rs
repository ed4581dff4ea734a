//! Property tests for the triage overflow invariants.
//!
//! The paper's accounting identity — every tuple offered to a triage
//! queue is either *kept* (reaches exact processing) or *dropped*
//! (reaches the dropped synopsis), never both, never neither — must
//! hold for **any** interleaving of `push`/`pop` runs,
//! any capacity, and any drop policy. Likewise at the [`StreamTriage`]
//! layer: the per-window counters and the kept/dropped synopsis masses
//! must exactly partition the arrivals.

use dt_synopsis::SynopsisConfig;
use dt_triage::{DropPolicy, ShedMode, StreamTriage, TriageQueue};
use dt_types::{Row, Timestamp, Tuple, VDuration, WindowSpec};
use proptest::prelude::*;

fn tup(v: i64, us: u64) -> Tuple {
    Tuple::new(Row::from_ints(&[v]), Timestamp::from_micros(us))
}

fn policy(idx: usize) -> DropPolicy {
    [
        DropPolicy::Newest,
        DropPolicy::Front,
        DropPolicy::Random,
        DropPolicy::Synergistic,
    ][idx % 4]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Any interleaving of offer runs and partial drains conserves
    /// tuples: `kept + dropped == offered`, and the kept/dropped
    /// synopses hold exactly those masses.
    #[test]
    fn queue_interleavings_conserve_tuples(
        capacity in 1usize..24,
        pol in 0usize..4,
        seed in any::<u64>(),
        // (is_push, size, value-base) per step. A push step offers
        // `size` tuples one `push` at a time; a drain step pops up to
        // `size`.
        ops in prop::collection::vec((any::<bool>(), 0usize..12, 0i64..40), 1..32),
    ) {
        let mut q = TriageQueue::new(capacity, policy(pol), seed).unwrap();
        let syn_cfg = SynopsisConfig::default_sparse();
        let mut kept_syn = syn_cfg.build(1).unwrap();
        let mut dropped_syn = syn_cfg.build(1).unwrap();
        let value = |t: &Tuple| t.row.values()[0].as_i64().unwrap();
        let mut offered: u64 = 0;
        let mut ts: u64 = 0;
        let mut kept_count: u64 = 0;
        let mut dropped_count: u64 = 0;
        for (is_push, size, base) in ops {
            for k in 0..size {
                if is_push {
                    ts += 1;
                    offered += 1;
                    if let Some(v) = q.push(tup(base + k as i64, ts), Some(&dropped_syn)) {
                        dropped_count += 1;
                        dropped_syn.insert(&[value(&v)]).unwrap();
                    }
                } else if let Some(t) = q.pop() {
                    kept_count += 1;
                    kept_syn.insert(&[value(&t)]).unwrap();
                }
                // The live queue never exceeds its bound.
                prop_assert!(q.len() <= capacity);
            }
        }
        // Final full drain: whatever is still buffered is kept.
        while let Some(t) = q.pop() {
            kept_count += 1;
            kept_syn.insert(&[value(&t)]).unwrap();
        }
        prop_assert!(q.is_empty());
        prop_assert_eq!(q.total_pushed(), offered);
        prop_assert_eq!(q.total_dropped(), dropped_count);
        prop_assert_eq!(kept_count + dropped_count, offered);
        // Synopsis tuple mass equals the partition exactly (sparse
        // grids count unit masses, so the comparison is exact).
        prop_assert_eq!(kept_syn.total_mass(), kept_count as f64);
        prop_assert_eq!(dropped_syn.total_mass(), dropped_count as f64);
    }

    /// Folding any keep/shed interleaving into a [`StreamTriage`] and
    /// sealing everything partitions arrivals per window: `arrived ==
    /// kept + dropped`, the buffered rows are exactly the kept tuples,
    /// and each window's synopsis pair carries exactly the kept and
    /// dropped masses.
    #[test]
    fn stream_triage_windows_partition_arrivals(
        // (keep?, value, micros-offset) — timestamps land across ~4
        // one-second windows in arbitrary order.
        tuples in prop::collection::vec(
            (any::<bool>(), 0i64..30, 0u64..4_000_000),
            1..80,
        ),
    ) {
        let spec = WindowSpec::new(VDuration::from_secs(1)).unwrap();
        let mut triage = StreamTriage::new(
            0,
            1,
            ShedMode::DataTriage,
            SynopsisConfig::default_sparse(),
            spec,
        );
        let mut want_kept: u64 = 0;
        let mut want_dropped: u64 = 0;
        for (seq, (keep, v, us)) in (0u64..).zip(&tuples) {
            let t = tup(*v, *us);
            if *keep {
                prop_assert!(triage.keep_seq(&t, seq).unwrap(), "nothing sealed yet, never late");
                want_kept += 1;
            } else {
                prop_assert!(triage.shed_seq(&t, seq).unwrap());
                want_dropped += 1;
            }
        }
        let windows = triage.seal_all().unwrap();
        let (mut kept, mut dropped, mut arrived, mut rows) = (0u64, 0u64, 0u64, 0u64);
        let (mut kept_mass, mut dropped_mass) = (0.0f64, 0.0f64);
        for w in &windows {
            prop_assert_eq!(w.arrived, w.kept + w.dropped);
            prop_assert_eq!(w.rows.len() as u64, w.kept);
            prop_assert!(!w.degraded, "no faults here");
            let syn = w.syn.as_ref().expect("DataTriage seals synopses");
            prop_assert_eq!(syn.kept.total_mass(), w.kept as f64);
            prop_assert_eq!(syn.dropped.total_mass(), w.dropped as f64);
            kept += w.kept;
            dropped += w.dropped;
            arrived += w.arrived;
            rows += w.rows.len() as u64;
            kept_mass += syn.kept.total_mass();
            dropped_mass += syn.dropped.total_mass();
        }
        prop_assert_eq!(kept, want_kept);
        prop_assert_eq!(dropped, want_dropped);
        prop_assert_eq!(arrived, want_kept + want_dropped);
        prop_assert_eq!(rows, want_kept);
        prop_assert_eq!(kept_mass, want_kept as f64);
        prop_assert_eq!(dropped_mass, want_dropped as f64);
    }
}
