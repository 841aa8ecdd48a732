//! Pending-arrival queue for the event core.
//!
//! Arrivals wait here until simulated time reaches their start. The engine
//! needs three things from the structure: O(~1) insert, O(~1) pop of the
//! earliest start, and a *total order* on equal starts (newest arrival
//! first — tie order decides the order noise factors are drawn in, so it
//! is part of the determinism contract, see [`crate::engine`]).
//!
//! Two representations, switched by backlog size:
//!
//! * **Sorted `Vec`** below [`SORTED_PENDING_MAX`]: entries sorted by
//!   start descending (soonest at the back, O(1) pop), binary-inserted —
//!   exactly the pre-overhaul engine's layout, so small runs (operator
//!   groups, short overlap experiments) are untouched.
//! * **Calendar queue** above it: entries hash into fixed-width time
//!   buckets; pops scan the current bucket only, inserts append to their
//!   bucket. With buckets sized to O(1) expected occupancy both
//!   operations are amortised O(1) regardless of backlog, where the
//!   sorted `Vec` pays an O(n) memmove per insert (the dominant cost of
//!   pre-enqueued open-loop traces).
//!
//! The comparator, not the representation, defines pop order — both modes
//! yield the exact same sequence, so which mode served an arrival is
//! unobservable in simulation results.

/// Backlog size at which the queue converts from the sorted-`Vec` to the
/// calendar representation. Conversion also requires a non-degenerate
/// start-time span: an all-equal-start backlog (e.g. an operator group of
/// any width) stays on the sorted path, where equal-start insert is O(1),
/// rather than piling every entry into one calendar bucket.
pub(crate) const SORTED_PENDING_MAX: usize = 64;

/// Average entries per calendar bucket that triggers a regrow (buckets
/// double and entries redistribute), keeping expected bucket scans O(1).
const REGROW_OCCUPANCY: usize = 4;

/// One waiting arrival. `seq` is the insertion sequence number since the
/// last clear; `idx` is the engine's stream slot.
#[derive(Debug, Clone, Copy)]
struct Entry {
    start_ms: f64,
    seq: u64,
    idx: usize,
}

impl Entry {
    /// Activation order: earlier start first; among equal starts the
    /// newest arrival (larger `seq`) first — the legacy push + stable-sort
    /// order the determinism contract pins.
    #[inline]
    fn before(&self, other: &Entry) -> bool {
        self.start_ms < other.start_ms || (self.start_ms == other.start_ms && self.seq > other.seq)
    }
}

#[derive(Debug, Clone, Default)]
pub(crate) struct PendingQueue {
    /// Sorted-mode storage: start descending / seq ascending, next at the
    /// back. Empty while `calendar` is active.
    sorted: Vec<Entry>,
    calendar: Option<Calendar>,
    /// Next insertion sequence number.
    seq: u64,
    len: usize,
    /// Don't re-attempt (and re-scan for) calendar conversion until the
    /// backlog reaches this size; doubled after each degenerate-span skip.
    next_convert_len: usize,
    /// Peak backlog since the last clear (telemetry).
    peak_len: usize,
}

#[derive(Debug, Clone)]
struct Calendar {
    buckets: Vec<Vec<Entry>>,
    /// Bucket time width, ms (> 0).
    width_ms: f64,
    /// Start time of bucket 0.
    base_ms: f64,
    /// Lowest bucket index that may still hold the minimum.
    cur: usize,
    /// Entries at or beyond the bucket horizon, parked until a rebuild.
    overflow: Vec<Entry>,
    /// Cached minimum: (bucket, position within bucket, entry). Inserts
    /// keep it coherent; pops invalidate it.
    min_cache: Option<(usize, usize, Entry)>,
    /// Peak single-bucket occupancy since conversion (telemetry).
    peak_bucket: usize,
}

impl Calendar {
    /// Build a calendar over `entries` (must be non-empty with a strictly
    /// positive start-time span).
    fn build(entries: &[Entry]) -> Self {
        let n_buckets = entries.len().next_power_of_two().max(2);
        let (mut lo, mut hi) = (f64::INFINITY, f64::NEG_INFINITY);
        for e in entries {
            lo = lo.min(e.start_ms);
            hi = hi.max(e.start_ms);
        }
        let mut cal = Calendar {
            buckets: vec![Vec::new(); n_buckets],
            width_ms: ((hi - lo) / n_buckets as f64).max(1e-9),
            base_ms: lo,
            cur: 0,
            overflow: Vec::new(),
            min_cache: None,
            peak_bucket: 0,
        };
        for &e in entries {
            cal.insert(e);
        }
        cal
    }

    #[inline]
    fn bucket_of(&self, start_ms: f64) -> Option<usize> {
        if start_ms >= self.base_ms + self.width_ms * self.buckets.len() as f64 {
            return None;
        }
        let b = if start_ms <= self.base_ms {
            0
        } else {
            ((start_ms - self.base_ms) / self.width_ms) as usize
        };
        // Float rounding at the horizon edge can land one past the end.
        Some(b.min(self.buckets.len() - 1))
    }

    fn insert(&mut self, e: Entry) {
        let Some(b) = self.bucket_of(e.start_ms) else {
            self.overflow.push(e);
            return;
        };
        self.buckets[b].push(e);
        if self.buckets[b].len() > self.peak_bucket {
            self.peak_bucket = self.buckets[b].len();
        }
        // A late insert may land before the scan pointer.
        if b < self.cur {
            self.cur = b;
        }
        // Overflow entries lie beyond every bucket, so a bucket-borne
        // cached minimum stays the minimum unless this entry beats it.
        if let Some((_, _, best)) = &self.min_cache {
            if e.before(best) {
                self.min_cache = Some((b, self.buckets[b].len() - 1, e));
            }
        }
    }

    /// Locate the minimum entry, refilling the horizon from `overflow`
    /// when every bucket has drained. Returns `None` only when the whole
    /// calendar is empty.
    fn peek(&mut self) -> Option<Entry> {
        if let Some((_, _, e)) = self.min_cache {
            return Some(e);
        }
        loop {
            while self.cur < self.buckets.len() {
                let b = &self.buckets[self.cur];
                if !b.is_empty() {
                    let mut best = 0;
                    for i in 1..b.len() {
                        if b[i].before(&b[best]) {
                            best = i;
                        }
                    }
                    let e = b[best];
                    self.min_cache = Some((self.cur, best, e));
                    return Some(e);
                }
                self.cur += 1;
            }
            if self.overflow.is_empty() {
                return None;
            }
            // Rebase the horizon on the parked entries. `base_ms` becomes
            // their minimum start, so bucket 0 is non-empty afterwards and
            // the rescan terminates on the next pass.
            let parked = std::mem::take(&mut self.overflow);
            let (mut lo, mut hi) = (f64::INFINITY, f64::NEG_INFINITY);
            for e in &parked {
                lo = lo.min(e.start_ms);
                hi = hi.max(e.start_ms);
            }
            self.base_ms = lo;
            self.width_ms = ((hi - lo) / self.buckets.len() as f64).max(1e-9);
            self.cur = 0;
            for e in parked {
                self.insert(e);
            }
        }
    }

    fn pop(&mut self) -> Option<Entry> {
        let e = self.peek()?;
        let (b, pos, _) = self.min_cache.take().expect("peek cached the minimum");
        self.buckets[b].swap_remove(pos);
        Some(e)
    }

    #[cfg(test)]
    fn len_live(&self) -> usize {
        self.overflow.len() + self.buckets.iter().map(Vec::len).sum::<usize>()
    }

    /// Double the bucket count and redistribute, keeping expected bucket
    /// occupancy O(1) as the backlog grows.
    fn regrow(&mut self) {
        let mut entries: Vec<Entry> = std::mem::take(&mut self.overflow);
        for b in &mut self.buckets {
            entries.append(b);
        }
        let n_buckets = (self.buckets.len() * 2).max(entries.len().next_power_of_two());
        let (mut lo, mut hi) = (f64::INFINITY, f64::NEG_INFINITY);
        for e in &entries {
            lo = lo.min(e.start_ms);
            hi = hi.max(e.start_ms);
        }
        self.buckets.resize(n_buckets, Vec::new());
        self.base_ms = lo;
        self.width_ms = ((hi - lo) / n_buckets as f64).max(1e-9);
        self.cur = 0;
        self.min_cache = None;
        for e in entries {
            self.insert(e);
        }
    }
}

impl PendingQueue {
    /// Enqueue an arrival; assigns its tie-breaking sequence number.
    pub(crate) fn push(&mut self, start_ms: f64, idx: usize) {
        let e = Entry {
            start_ms,
            seq: self.seq,
            idx,
        };
        self.seq += 1;
        self.len += 1;
        if self.len > self.peak_len {
            self.peak_len = self.len;
        }
        if let Some(cal) = &mut self.calendar {
            cal.insert(e);
            if self.len > cal.buckets.len() * REGROW_OCCUPANCY {
                cal.regrow();
            }
            return;
        }
        if self.sorted.len() >= SORTED_PENDING_MAX.max(self.next_convert_len) {
            let span = self
                .sorted
                .iter()
                .map(|e| e.start_ms)
                .fold(f64::NEG_INFINITY, f64::max)
                - self
                    .sorted
                    .iter()
                    .map(|e| e.start_ms)
                    .fold(f64::INFINITY, f64::min);
            if span > 0.0 {
                let mut entries = std::mem::take(&mut self.sorted);
                entries.push(e);
                self.calendar = Some(Calendar::build(&entries));
                return;
            }
            // Degenerate all-equal-start backlog: stay sorted, check again
            // once the backlog doubles.
            self.next_convert_len = self.sorted.len() * 2;
        }
        // Binary-insert *after* any equal start times (descending starts),
        // leaving the newest tie nearest the back — i.e. popping first.
        let at = self.sorted.partition_point(|p| p.start_ms >= start_ms);
        self.sorted.insert(at, e);
    }

    /// The next arrival to activate, without removing it.
    pub(crate) fn peek(&mut self) -> Option<(f64, usize)> {
        if let Some(cal) = &mut self.calendar {
            cal.peek().map(|e| (e.start_ms, e.idx))
        } else {
            self.sorted.last().map(|e| (e.start_ms, e.idx))
        }
    }

    /// Remove and return the next arrival's stream slot.
    pub(crate) fn pop(&mut self) -> Option<usize> {
        let e = if let Some(cal) = &mut self.calendar {
            cal.pop()
        } else {
            self.sorted.pop()
        }?;
        self.len -= 1;
        Some(e.idx)
    }

    pub(crate) fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Drop every entry and return to the sorted representation (resets
    /// drop the calendar's allocation; group-sized runs never rebuild it).
    pub(crate) fn clear(&mut self) {
        self.sorted.clear();
        self.calendar = None;
        self.seq = 0;
        self.len = 0;
        self.next_convert_len = 0;
        self.peak_len = 0;
    }

    /// Peak backlog since the last clear.
    pub(crate) fn peak_len(&self) -> usize {
        self.peak_len
    }

    /// `(bucket count, peak single-bucket occupancy)` of the calendar;
    /// zeros while on the sorted path.
    pub(crate) fn calendar_stats(&self) -> (usize, usize) {
        self.calendar
            .as_ref()
            .map_or((0, 0), |c| (c.buckets.len(), c.peak_bucket))
    }

    #[cfg(test)]
    fn live_len(&self) -> usize {
        self.calendar
            .as_ref()
            .map_or(self.sorted.len(), Calendar::len_live)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Reference: the exact pop order both representations must produce.
    fn reference_order(arrivals: &[f64]) -> Vec<usize> {
        let mut tagged: Vec<(f64, usize)> = arrivals
            .iter()
            .copied()
            .enumerate()
            .map(|(i, s)| (s, i))
            .collect();
        // Earlier start first; equal starts newest-insert first.
        tagged.sort_by(|a, b| a.0.partial_cmp(&b.0).unwrap().then(b.1.cmp(&a.1)));
        tagged.into_iter().map(|(_, i)| i).collect()
    }

    fn drain(q: &mut PendingQueue) -> Vec<usize> {
        let mut out = Vec::new();
        while let Some(idx) = q.pop() {
            out.push(idx);
        }
        out
    }

    fn lcg_stream(seed: u64) -> impl FnMut() -> u64 {
        let mut state = seed;
        move || {
            state = state
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            state >> 33
        }
    }

    #[test]
    fn small_backlog_stays_sorted_and_ordered() {
        let arrivals: Vec<f64> = vec![3.0, 1.0, 2.0, 1.0, 0.5, 2.0];
        let mut q = PendingQueue::default();
        for (i, &s) in arrivals.iter().enumerate() {
            q.push(s, i);
        }
        assert_eq!(
            q.calendar_stats(),
            (0, 0),
            "must not convert below threshold"
        );
        assert_eq!(drain(&mut q), reference_order(&arrivals));
        assert!(q.is_empty());
    }

    #[test]
    fn large_backlog_converts_and_matches_reference_order() {
        let mut next = lcg_stream(42);
        let arrivals: Vec<f64> = (0..5000)
            .map(|i| {
                // Mix of spread-out starts and deliberate ties.
                if i % 7 == 0 {
                    (next() % 100) as f64
                } else {
                    (next() % 1_000_000) as f64 * 1e-3
                }
            })
            .collect();
        let mut q = PendingQueue::default();
        for (i, &s) in arrivals.iter().enumerate() {
            q.push(s, i);
        }
        let (buckets, peak) = q.calendar_stats();
        assert!(buckets > 0, "must have converted to calendar mode");
        assert!(peak > 0);
        assert_eq!(drain(&mut q), reference_order(&arrivals));
    }

    #[test]
    fn interleaved_push_pop_matches_sorted_reference() {
        // Pops interleave with pushes, including pushes of starts earlier
        // than already-popped entries' (the engine clamps starts to `now`,
        // but the queue itself must stay correct for any input).
        let mut next = lcg_stream(7);
        let mut q = PendingQueue::default();
        let mut model: Vec<Entry> = Vec::new();
        let mut seq = 0u64;
        let mut popped = Vec::new();
        let mut expect = Vec::new();
        for round in 0..20_000 {
            if round % 3 != 2 {
                let start = (next() % 500_000) as f64 * 1e-2;
                q.push(start, round);
                model.push(Entry {
                    start_ms: start,
                    seq,
                    idx: round,
                });
                seq += 1;
            } else {
                popped.push(q.pop());
                let best = model
                    .iter()
                    .enumerate()
                    .min_by(|(_, a), (_, b)| {
                        if a.before(b) {
                            std::cmp::Ordering::Less
                        } else {
                            std::cmp::Ordering::Greater
                        }
                    })
                    .map(|(i, _)| i);
                expect.push(best.map(|i| model.remove(i).idx));
            }
        }
        assert_eq!(popped, expect);
        assert_eq!(q.live_len(), model.len());
    }

    #[test]
    fn all_equal_starts_never_convert() {
        let mut q = PendingQueue::default();
        for i in 0..10 * SORTED_PENDING_MAX {
            q.push(1.5, i);
        }
        assert_eq!(
            q.calendar_stats(),
            (0, 0),
            "degenerate span must stay sorted"
        );
        // Newest first among the all-tied backlog.
        let order = drain(&mut q);
        assert_eq!(order[0], 10 * SORTED_PENDING_MAX - 1);
        assert_eq!(*order.last().unwrap(), 0);
    }

    #[test]
    fn clear_returns_to_sorted_mode_and_resets_peaks() {
        let mut q = PendingQueue::default();
        for i in 0..1000 {
            q.push(i as f64 * 0.1, i);
        }
        assert!(q.calendar_stats().0 > 0);
        assert_eq!(q.peak_len(), 1000);
        q.clear();
        assert!(q.is_empty());
        assert_eq!(q.calendar_stats(), (0, 0));
        assert_eq!(q.peak_len(), 0);
        q.push(2.0, 0);
        q.push(1.0, 1);
        assert_eq!(q.pop(), Some(1));
        assert_eq!(q.pop(), Some(0));
    }

    #[test]
    fn peek_agrees_with_pop() {
        let mut next = lcg_stream(3);
        let mut q = PendingQueue::default();
        for i in 0..300 {
            q.push((next() % 1000) as f64, i);
        }
        while let Some((start, idx)) = q.peek() {
            let popped = q.pop().unwrap();
            assert_eq!(popped, idx);
            let _ = start;
        }
        assert!(q.is_empty());
    }
}
