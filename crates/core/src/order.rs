//! Incremental maintenance of the ascending-headroom round order.
//!
//! Eq. 2 headroom, `headroom_ms(now) = qos − (now − arrival)`, shifts every
//! query by the same `now`, so the ascending-headroom order the controller
//! sorts by each round (abacus.rs) is fixed by the now-independent deadline
//! `arrival + qos` with ties broken by id. [`OrderIndex`] keys a persistent
//! sorted index on exactly that `(deadline, id)` pair and maintains it on
//! admit/retire instead of re-sorting the whole queue every round.
//!
//! The per-round entry point is [`OrderIndex::resolve_ranks`]: it maps the
//! node's (arbitrarily-ordered, swap_remove-shuffled) queue through the
//! index and yields the sorted permutation. The resolution doubles as an
//! exact consistency check — every queue element must hit a distinct index
//! entry and the lengths must match, which proves the index holds precisely
//! the queue's `(key, id)` set. Any miss (a caller that skipped the
//! [`crate::Scheduler::on_admit`]/[`crate::Scheduler::on_retire`] hooks, or
//! a desync) reports `false` and the controller falls back to
//! [`OrderIndex::rebuild`], whose output is by construction the same
//! permutation a full per-round sort would have produced.
//!
//! Tie-break contract (DESIGN.md §12): the canonical round order is
//! ascending `(deadline_ms(), id)` under `f64::total_cmp`. This matches the
//! former per-round `headroom_ms(now)` sort whenever the subtraction of
//! `now` preserves distinctness — the golden decision-stream tests and the
//! grid-quantised property tests pin that equivalence on every workload the
//! repo runs.

use crate::query::Query;

/// One indexed query: its now-independent order key and id, plus the last
/// queue position it resolved at — a pure accelerator, validated against
/// the live queue on every use before it is trusted.
#[derive(Debug, Clone, Copy, PartialEq)]
struct OrderEntry {
    key: f64,
    id: u64,
    pos_hint: usize,
}

/// The canonical order key of `q`: its absolute deadline. Now-independent,
/// unchanged by operator progress (`advance_to`) and by `mark_started`, so
/// the index only needs admit/retire maintenance.
#[inline]
pub fn order_key(q: &Query) -> f64 {
    q.deadline_ms()
}

/// A persistent sorted-by-`(key, id)` index over the node queue.
#[derive(Debug, Default)]
pub struct OrderIndex {
    entries: Vec<OrderEntry>,
    peak_len: usize,
    /// Reused position bitmask backing [`Self::resolve_ranks`]'s
    /// injectivity check (one bit per queue slot).
    seen: Vec<u64>,
}

impl OrderIndex {
    /// An empty index.
    pub fn new() -> Self {
        Self::default()
    }

    /// Binary-search the rank of `(key, id)` in the sorted entries.
    fn rank_of(&self, key: f64, id: u64) -> Result<usize, usize> {
        self.entries
            .binary_search_by(|e| e.key.total_cmp(&key).then(e.id.cmp(&id)))
    }

    /// Admit `q` into the order (O(log n) search + one memmove).
    pub fn insert(&mut self, q: &Query) {
        let key = order_key(q);
        match self.rank_of(key, q.id) {
            Ok(_) => debug_assert!(false, "duplicate admit of query {}", q.id),
            // The queue position is unknown at admit time; the first
            // resolution's rescue scan fills the hint in.
            Err(at) => self.entries.insert(
                at,
                OrderEntry {
                    key,
                    id: q.id,
                    pos_hint: usize::MAX,
                },
            ),
        }
        self.peak_len = self.peak_len.max(self.entries.len());
    }

    /// Remove `q` on drop/retire/timeout. An id the index does not hold is
    /// ignored; the next [`Self::resolve_ranks`] then fails and rebuilds.
    pub fn remove(&mut self, q: &Query) {
        if let Ok(at) = self.rank_of(order_key(q), q.id) {
            self.entries.remove(at);
        }
    }

    /// Indexed query count.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// True when nothing is indexed.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Deepest the index has ever been (telemetry).
    pub fn peak_len(&self) -> usize {
        self.peak_len
    }

    /// Drop every entry (the queue was torn down externally).
    pub fn clear(&mut self) {
        self.entries.clear();
    }

    /// Rebuild the index from `queue` and emit the sorted queue positions
    /// into `ranks` — exactly the permutation a full `(key, id)` sort of
    /// the queue produces, well-defined even for degenerate duplicate ids.
    pub fn rebuild(&mut self, queue: &[Query], ranks: &mut Vec<usize>) {
        ranks.clear();
        ranks.extend(0..queue.len());
        ranks.sort_unstable_by(|&a, &b| {
            order_key(&queue[a])
                .total_cmp(&order_key(&queue[b]))
                .then(queue[a].id.cmp(&queue[b].id))
        });
        self.entries.clear();
        self.entries.extend(ranks.iter().map(|&p| OrderEntry {
            key: order_key(&queue[p]),
            id: queue[p].id,
            pos_hint: p,
        }));
        self.peak_len = self.peak_len.max(self.entries.len());
    }

    /// Resolve `queue` through the index. On success `ranks[r]` is the
    /// queue position of the `r`-th query in ascending `(key, id)` order.
    ///
    /// Doubles as the exact consistency check: success requires equal
    /// lengths and every index entry landing on a distinct queue position
    /// with matching key bits — an injective map between equal-size sets,
    /// i.e. the index holds precisely the queue's `(key, id)` set. Returns
    /// `false` (with `ranks` unusable) on any mismatch; the caller
    /// rebuilds. `&mut self` only refreshes the position hints — the
    /// logical index is untouched.
    pub fn resolve_ranks(&mut self, queue: &[Query], ranks: &mut Vec<usize>) -> bool {
        ranks.clear();
        if self.entries.len() != queue.len() {
            return false;
        }
        self.seen.clear();
        self.seen.resize(queue.len().div_ceil(64), 0);
        ranks.reserve(queue.len());
        for e in &mut self.entries {
            // Queue positions only move around a swap_remove, so the
            // position this entry resolved at last round is almost always
            // still right — validate id and key bits before trusting it.
            let pos = 'find: {
                if let Some(q) = queue.get(e.pos_hint) {
                    if q.id == e.id && order_key(q).to_bits() == e.key.to_bits() {
                        break 'find e.pos_hint;
                    }
                }
                // Stale hint (fresh admit, or the query a swap_remove
                // relocated): rescue scan by id, then remember the spot.
                let Some(pos) = queue.iter().position(|q| q.id == e.id) else {
                    return false;
                };
                if order_key(&queue[pos]).to_bits() != e.key.to_bits() {
                    return false;
                }
                e.pos_hint = pos;
                break 'find pos;
            };
            let (word, bit) = (pos / 64, 1u64 << (pos % 64));
            if self.seen[word] & bit != 0 {
                return false;
            }
            self.seen[word] |= bit;
            ranks.push(pos);
        }
        true
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dnn_models::{ModelId, QueryInput};

    fn q(id: u64, arrival: f64, qos: f64) -> Query {
        Query::new(
            id,
            ModelId::ResNet50,
            QueryInput::new(8, 1),
            arrival,
            qos,
            10,
        )
    }

    /// The reference permutation: a full sort by `(deadline, id)`.
    fn full_sort(queue: &[Query]) -> Vec<usize> {
        let mut ranks: Vec<usize> = (0..queue.len()).collect();
        ranks.sort_by(|&a, &b| {
            queue[a]
                .deadline_ms()
                .total_cmp(&queue[b].deadline_ms())
                .then(queue[a].id.cmp(&queue[b].id))
        });
        ranks
    }

    #[test]
    fn incremental_matches_full_sort_through_churn() {
        let mut idx = OrderIndex::new();
        let mut queue: Vec<Query> = Vec::new();
        let mut ranks = Vec::new();
        // Deterministic admit/retire churn with ties and swap_remove holes.
        let mut state = 0x9E37u64;
        let mut next = move || {
            state = state.wrapping_mul(6364136223846793005).wrapping_add(1);
            state >> 33
        };
        for step in 0..400u64 {
            if queue.len() < 3 || next() % 3 != 0 {
                let arrival = (next() % 50) as f64; // dense: plenty of ties
                let quer = q(step, arrival, (next() % 4) as f64 * 10.0 + 5.0);
                idx.insert(&quer);
                queue.push(quer);
            } else {
                let pos = (next() as usize) % queue.len();
                idx.remove(&queue[pos]);
                queue.swap_remove(pos);
            }
            assert!(
                idx.resolve_ranks(&queue, &mut ranks),
                "desync at step {step}"
            );
            assert_eq!(ranks, full_sort(&queue), "order diverged at step {step}");
        }
        assert!(idx.peak_len() >= queue.len());
    }

    #[test]
    fn resolve_fails_on_desync_and_rebuild_recovers() {
        let mut idx = OrderIndex::new();
        let queue = vec![q(1, 0.0, 50.0), q(2, 10.0, 20.0), q(3, 5.0, 25.0)];
        let mut ranks = Vec::new();
        // Hooks never driven: resolution must refuse, rebuild must match.
        assert!(!idx.resolve_ranks(&queue, &mut ranks));
        idx.rebuild(&queue, &mut ranks);
        assert_eq!(ranks, full_sort(&queue));
        assert!(idx.resolve_ranks(&queue, &mut ranks));
        // Stale entry (missed retire): length mismatch refuses.
        let shorter = &queue[..2];
        assert!(!idx.resolve_ranks(shorter, &mut ranks));
        // Swapped-in query the index never saw: lookup miss refuses.
        let mut swapped = queue.clone();
        swapped[2] = q(9, 1.0, 1.0);
        assert!(!idx.resolve_ranks(&swapped, &mut ranks));
    }

    #[test]
    fn empty_queue_resolves_trivially() {
        let mut idx = OrderIndex::new();
        let mut ranks = vec![7usize];
        assert!(idx.resolve_ranks(&[], &mut ranks));
        assert!(ranks.is_empty());
    }

    #[test]
    fn equal_deadlines_order_by_id() {
        let mut idx = OrderIndex::new();
        // Same deadline via different (arrival, qos) splits.
        let queue = vec![q(5, 10.0, 20.0), q(2, 0.0, 30.0), q(9, 30.0, 0.0)];
        for quer in &queue {
            idx.insert(quer);
        }
        let mut ranks = Vec::new();
        assert!(idx.resolve_ranks(&queue, &mut ranks));
        let ids: Vec<u64> = ranks.iter().map(|&p| queue[p].id).collect();
        assert_eq!(ids, vec![2, 5, 9]);
    }
}
