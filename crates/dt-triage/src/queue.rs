//! The triage queue (paper Fig. 1).
//!
//! A bounded FIFO between a data source and the engine. During normal
//! operation it is a plain queue; when it is full and another tuple
//! arrives, the [`DropPolicy`] selects a victim, which the caller may
//! synopsize (Data Triage) or discard (drop-only).

use std::collections::VecDeque;

use dt_synopsis::Synopsis;
use dt_types::{DtError, DtResult, Timestamp, Tuple, Value};
use rand::Rng;
use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;

use crate::policy::DropPolicy;

/// Number of random candidates the synergistic policy inspects.
const SYNERGY_CANDIDATES: usize = 16;

/// A bounded triage queue with pluggable victim selection.
///
/// ```
/// use dt_triage::{DropPolicy, TriageQueue};
/// use dt_types::{Row, Timestamp, Tuple};
///
/// let mut q = TriageQueue::new(2, DropPolicy::Front, 0)?;
/// let t = |v: i64, us: u64| Tuple::new(Row::from_ints(&[v]), Timestamp::from_micros(us));
/// assert!(q.push(t(1, 10), None).is_none());
/// assert!(q.push(t(2, 20), None).is_none());
/// // Full: the front policy sheds the oldest tuple.
/// let victim = q.push(t(3, 30), None).expect("overflow sheds");
/// assert_eq!(victim.row, Row::from_ints(&[1]));
/// assert_eq!(q.len(), 2);
/// # Ok::<(), dt_types::DtError>(())
/// ```
#[derive(Debug, Clone)]
pub struct TriageQueue {
    capacity: usize,
    items: VecDeque<Tuple>,
    policy: DropPolicy,
    rng: ChaCha8Rng,
    /// Cumulative statistics.
    pushed: u64,
    dropped: u64,
}

impl TriageQueue {
    /// A queue holding at most `capacity` tuples.
    pub fn new(capacity: usize, policy: DropPolicy, seed: u64) -> DtResult<Self> {
        if capacity == 0 {
            return Err(DtError::config("triage queue capacity must be >= 1"));
        }
        Ok(TriageQueue {
            capacity,
            items: VecDeque::with_capacity(capacity + 1),
            policy,
            rng: ChaCha8Rng::seed_from_u64(seed),
            pushed: 0,
            dropped: 0,
        })
    }

    /// Buffered tuple count.
    pub fn len(&self) -> usize {
        self.items.len()
    }

    /// True if nothing is buffered.
    pub fn is_empty(&self) -> bool {
        self.items.is_empty()
    }

    /// The configured capacity.
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// Timestamp of the oldest buffered tuple.
    pub fn head_ts(&self) -> Option<Timestamp> {
        self.items.front().map(|t| t.ts)
    }

    /// Total tuples ever offered to the queue.
    pub fn total_pushed(&self) -> u64 {
        self.pushed
    }

    /// Total victims shed.
    pub fn total_dropped(&self) -> u64 {
        self.dropped
    }

    /// Offer a tuple. If the queue is full, the drop policy selects
    /// and returns a victim (possibly the offered tuple itself); the
    /// caller decides the victim's fate. `dropped_synopsis` is the
    /// current window's dropped-tuple synopsis, consulted only by the
    /// synergistic policy.
    pub fn push(&mut self, tuple: Tuple, dropped_synopsis: Option<&Synopsis>) -> Option<Tuple> {
        self.pushed += 1;
        if self.items.len() < self.capacity {
            self.items.push_back(tuple);
            return None;
        }
        self.dropped += 1;
        let victim_idx = match self.policy {
            DropPolicy::Newest => return Some(tuple),
            DropPolicy::Front => 0,
            DropPolicy::Random => self.rng.gen_range(0..self.items.len()),
            DropPolicy::Synergistic => self.pick_synergistic(dropped_synopsis),
        };
        let victim = self
            .items
            .remove(victim_idx)
            .expect("victim index in range");
        self.items.push_back(tuple);
        Some(victim)
    }

    /// Pull the oldest buffered tuple.
    pub fn pop(&mut self) -> Option<Tuple> {
        self.items.pop_front()
    }

    /// Shed by policy *now*, regardless of occupancy — the adaptive
    /// controller's path ([`crate::SharedController`]): the drop policy
    /// picks a victim among the buffered tuples plus the incoming one
    /// (the `Newest` policy, or an empty queue, sheds the incoming
    /// tuple itself), the incoming tuple takes the victim's place, and
    /// the victim is returned for the caller to synopsize or discard.
    /// Counts as one offered and one dropped tuple, exactly like an
    /// overflow shed in [`TriageQueue::push`].
    pub fn shed(&mut self, tuple: Tuple, dropped_synopsis: Option<&Synopsis>) -> Tuple {
        self.pushed += 1;
        self.dropped += 1;
        if self.items.is_empty() {
            return tuple;
        }
        let victim_idx = match self.policy {
            DropPolicy::Newest => return tuple,
            DropPolicy::Front => 0,
            DropPolicy::Random => self.rng.gen_range(0..self.items.len()),
            DropPolicy::Synergistic => self.pick_synergistic(dropped_synopsis),
        };
        let victim = self
            .items
            .remove(victim_idx)
            .expect("victim index in range");
        self.items.push_back(tuple);
        victim
    }

    /// The synergistic policy: sample a few candidates and prefer one
    /// whose row the synopsis already covers (costs no new cell /
    /// bucket / sample slot); otherwise fall back to a random victim.
    fn pick_synergistic(&mut self, dropped_synopsis: Option<&Synopsis>) -> usize {
        let n = self.items.len();
        let fallback = self.rng.gen_range(0..n);
        let Some(syn) = dropped_synopsis else {
            return fallback;
        };
        for _ in 0..SYNERGY_CANDIDATES.min(n) {
            let idx = self.rng.gen_range(0..n);
            let tuple = &self.items[idx];
            let point: Option<Vec<i64>> = tuple.row.values().iter().map(Value::as_i64).collect();
            if let Some(p) = point {
                if syn.covers(&p) {
                    return idx;
                }
            }
        }
        fallback
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dt_synopsis::SynopsisConfig;
    use dt_types::Row;

    fn tup(v: i64, us: u64) -> Tuple {
        Tuple::new(Row::from_ints(&[v]), Timestamp::from_micros(us))
    }

    #[test]
    fn zero_capacity_rejected() {
        assert!(TriageQueue::new(0, DropPolicy::Random, 0).is_err());
    }

    #[test]
    fn fifo_below_capacity() {
        let mut q = TriageQueue::new(3, DropPolicy::Random, 0).unwrap();
        assert!(q.push(tup(1, 10), None).is_none());
        assert!(q.push(tup(2, 20), None).is_none());
        assert_eq!(q.len(), 2);
        assert_eq!(q.head_ts(), Some(Timestamp::from_micros(10)));
        assert_eq!(q.pop().unwrap().row, Row::from_ints(&[1]));
        assert_eq!(q.pop().unwrap().row, Row::from_ints(&[2]));
        assert!(q.pop().is_none());
        assert_eq!(q.total_pushed(), 2);
        assert_eq!(q.total_dropped(), 0);
    }

    #[test]
    fn overflow_sheds_exactly_one() {
        let mut q = TriageQueue::new(2, DropPolicy::Random, 7).unwrap();
        q.push(tup(1, 10), None);
        q.push(tup(2, 20), None);
        let victim = q.push(tup(3, 30), None);
        assert!(victim.is_some());
        assert_eq!(q.len(), 2);
        assert_eq!(q.total_dropped(), 1);
    }

    #[test]
    fn front_policy_drops_oldest() {
        let mut q = TriageQueue::new(2, DropPolicy::Front, 0).unwrap();
        q.push(tup(1, 10), None);
        q.push(tup(2, 20), None);
        let victim = q.push(tup(3, 30), None).unwrap();
        assert_eq!(victim.row, Row::from_ints(&[1]));
        // The incoming tuple is buffered.
        assert_eq!(q.pop().unwrap().row, Row::from_ints(&[2]));
        assert_eq!(q.pop().unwrap().row, Row::from_ints(&[3]));
    }

    #[test]
    fn newest_policy_drops_incoming() {
        let mut q = TriageQueue::new(1, DropPolicy::Newest, 0).unwrap();
        q.push(tup(1, 10), None);
        let victim = q.push(tup(2, 20), None).unwrap();
        assert_eq!(victim.row, Row::from_ints(&[2]));
        assert_eq!(q.pop().unwrap().row, Row::from_ints(&[1]));
    }

    #[test]
    fn random_policy_preserves_arrival_order_of_survivors() {
        let mut q = TriageQueue::new(4, DropPolicy::Random, 42).unwrap();
        for i in 0..20 {
            q.push(tup(i, 10 * (i as u64 + 1)), None);
        }
        let mut last = Timestamp::ZERO;
        while let Some(t) = q.pop() {
            assert!(t.ts >= last, "queue must stay time-ordered");
            last = t.ts;
        }
    }

    #[test]
    fn random_policy_is_deterministic_per_seed() {
        let run = |seed| {
            let mut q = TriageQueue::new(3, DropPolicy::Random, seed).unwrap();
            let mut victims = Vec::new();
            for i in 0..10 {
                if let Some(v) = q.push(tup(i, i as u64), None) {
                    victims.push(v.row[0].as_i64().unwrap());
                }
            }
            victims
        };
        assert_eq!(run(1), run(1));
        // Overwhelmingly likely to differ for different seeds.
        assert_ne!(run(1), run(2));
    }

    #[test]
    fn synergistic_prefers_covered_victims() {
        // Synopsis already has mass at value 5 (cell width 1).
        let mut syn = SynopsisConfig::Sparse { cell_width: 1 }.build(1).unwrap();
        syn.insert(&[5]).unwrap();
        let mut q = TriageQueue::new(8, DropPolicy::Synergistic, 3).unwrap();
        // Fill: one tuple with value 5 among seven others.
        q.push(tup(5, 1), Some(&syn));
        for i in 0..7 {
            q.push(tup(100 + i, 2 + i as u64), Some(&syn));
        }
        // Overflow several times: the value-5 tuple should be an early
        // victim (it is the only covered candidate).
        let mut victims = Vec::new();
        for i in 0..3 {
            if let Some(v) = q.push(tup(200 + i, 50 + i as u64), Some(&syn)) {
                victims.push(v.row[0].as_i64().unwrap());
            }
        }
        assert!(
            victims.contains(&5),
            "expected the covered tuple to be shed, victims: {victims:?}"
        );
    }

    #[test]
    fn shed_below_capacity_applies_policy() {
        // Front policy: the oldest buffered tuple is the victim even
        // though the queue is nowhere near full.
        let mut q = TriageQueue::new(10, DropPolicy::Front, 0).unwrap();
        q.push(tup(1, 10), None);
        q.push(tup(2, 20), None);
        let victim = q.shed(tup(3, 30), None);
        assert_eq!(victim.row, Row::from_ints(&[1]));
        assert_eq!(q.len(), 2, "incoming replaced the victim");
        assert_eq!(q.total_dropped(), 1);
        assert_eq!(q.total_pushed(), 3);
        // Newest policy sheds the incoming tuple itself.
        let mut q = TriageQueue::new(10, DropPolicy::Newest, 0).unwrap();
        q.push(tup(1, 10), None);
        let victim = q.shed(tup(2, 20), None);
        assert_eq!(victim.row, Row::from_ints(&[2]));
        assert_eq!(q.len(), 1);
        // An empty queue sheds the incoming tuple under any policy.
        let mut q = TriageQueue::new(10, DropPolicy::Front, 0).unwrap();
        let victim = q.shed(tup(9, 5), None);
        assert_eq!(victim.row, Row::from_ints(&[9]));
        assert!(q.is_empty());
    }

    #[test]
    fn shed_keeps_queue_time_ordered() {
        let mut q = TriageQueue::new(8, DropPolicy::Random, 11).unwrap();
        for i in 0..5 {
            q.push(tup(i, 10 * (i as u64 + 1)), None);
        }
        for i in 5..15 {
            q.shed(tup(i, 10 * (i as u64 + 1)), None);
        }
        let mut last = Timestamp::ZERO;
        while let Some(t) = q.pop() {
            assert!(t.ts >= last, "queue must stay time-ordered");
            last = t.ts;
        }
    }

    #[test]
    fn synergistic_without_synopsis_falls_back() {
        let mut q = TriageQueue::new(1, DropPolicy::Synergistic, 3).unwrap();
        q.push(tup(1, 1), None);
        assert!(q.push(tup(2, 2), None).is_some());
    }
}
