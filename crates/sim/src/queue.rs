//! Pluggable event queues for the discrete-event loops.
//!
//! Every ordered-event structure in this crate (the pending-work index
//! of [`crate::engine::run_open`], the retry timer wheel of
//! [`crate::resilience`]) pops events in the total order
//! `(time_bits, seq)`:
//!
//! * `time_bits` is `f64::to_bits` of a **non-negative** event time —
//!   for non-negative IEEE-754 doubles the unsigned bit order equals
//!   the numeric order, so comparing bits compares times exactly, with
//!   no tolerance and no NaN edge;
//! * `seq` is a caller-assigned monotone sequence number that both
//!   breaks timestamp ties FIFO (first pushed pops first) and carries
//!   the event payload (a request or backend index), so the queue
//!   itself stores nothing but two `u64`s per event.
//!
//! Two implementations provide that contract:
//!
//! * [`BinaryHeapQueue`] — `std::collections::BinaryHeap` of reversed
//!   pairs. O(log n) everywhere, no tuning, kept as the **reference
//!   implementation** the property suite oracles against.
//! * [`CalendarQueue`] — a classic Brown calendar queue (radix buckets
//!   over time). O(1) amortized push/pop when the bucket width tracks
//!   the mean event spacing; the width and bucket count re-adapt on
//!   occupancy thresholds, and the cursor walks bucket windows in time
//!   order (with a direct jump to the global minimum when a whole lap
//!   comes up empty, so sparse far-future events cannot stall a pop).
//!
//! Every runtime entry point runs on the calendar queue. [`SimQueue`]
//! is the enum [`crate::engine::run_open_with`] embeds (static dispatch
//! — no `dyn` in the hot loop) so the differential suite can run the
//! same loop on the reference heap by passing [`QueueKind::Heap`].

/// One event: `(time_bits, seq)`. See the module docs for the order.
pub type Event = (u64, u64);

/// The operations the simulation loops need from an event queue.
///
/// `peek` takes `&mut self` so implementations may cache the search
/// for the minimum between a peek and the pop that usually follows.
pub trait EventQueue {
    /// Inserts an event. `time_bits` must come from a non-negative
    /// `f64`; `seq` must be unique per live event.
    fn push(&mut self, time_bits: u64, seq: u64);
    /// The smallest event, without removing it.
    fn peek(&mut self) -> Option<Event>;
    /// Removes and returns the smallest event.
    fn pop(&mut self) -> Option<Event>;
    /// Number of live events.
    fn len(&self) -> usize;
    /// True when no events are queued.
    fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

// ---- reference implementation ---------------------------------------

/// The [`std::collections::BinaryHeap`] reference implementation.
#[derive(Debug, Default)]
pub struct BinaryHeapQueue {
    heap: std::collections::BinaryHeap<std::cmp::Reverse<Event>>,
}

impl BinaryHeapQueue {
    /// An empty queue with room for `cap` events.
    #[must_use]
    pub fn with_capacity(cap: usize) -> Self {
        BinaryHeapQueue {
            heap: std::collections::BinaryHeap::with_capacity(cap),
        }
    }
}

impl EventQueue for BinaryHeapQueue {
    #[inline]
    fn push(&mut self, time_bits: u64, seq: u64) {
        self.heap.push(std::cmp::Reverse((time_bits, seq)));
    }

    #[inline]
    fn peek(&mut self) -> Option<Event> {
        self.heap.peek().map(|&std::cmp::Reverse(e)| e)
    }

    #[inline]
    fn pop(&mut self) -> Option<Event> {
        self.heap.pop().map(|std::cmp::Reverse(e)| e)
    }

    #[inline]
    fn len(&self) -> usize {
        self.heap.len()
    }
}

// ---- calendar queue --------------------------------------------------

/// Smallest bucket count (power of two).
const MIN_BUCKETS: usize = 16;
/// Narrowest admissible bucket width in seconds: well below any event
/// spacing the simulators produce, guards the `t / width` day index
/// against division blow-up when all sampled events share one instant.
const MIN_WIDTH: f64 = 1e-9;

/// A Brown calendar queue over `(time_bits, seq)` events.
///
/// Buckets partition time into windows (*days*) of `width` seconds; an
/// event at time `t` has day `floor(t / width)` and lives in bucket
/// `day mod nbuckets`. The cursor tracks the current day; a pop scans
/// only the cursor's bucket for events of that day (everything earlier
/// has already been popped — pushes behind the cursor move it back),
/// advancing day by day and jumping straight to the global minimum
/// after a fruitless full lap. The bucket count doubles/halves on
/// occupancy thresholds and the width re-estimates from the live event
/// span, so both clustered and widely spread timestamp distributions
/// keep the per-bucket scans short.
///
/// Day membership is decided by the *same* saturating
/// `(t / width) as u64` expression everywhere (bucketing, cursor
/// seeks, window scans). Float division by a positive constant is
/// monotone, so day assignment is monotone in event time even when
/// `t / width` exhausts `f64` integer precision — cross-day order is
/// exact by construction, with no accumulated window-top arithmetic
/// that could drift out of sync with the bucket map.
#[derive(Debug)]
pub struct CalendarQueue {
    buckets: Vec<Vec<Event>>,
    /// Bucket width in seconds (> 0).
    width: f64,
    /// Index of the cursor's bucket (`cur_day % nbuckets`).
    cur: usize,
    /// The cursor's day: no live event has an earlier day.
    cur_day: u64,
    len: usize,
    /// Cached position of the minimum found by the last [`Self::peek`]:
    /// `(bucket, slot, event)`. Invalidated by any push or pop.
    cached_min: Option<(usize, usize, Event)>,
}

impl Default for CalendarQueue {
    fn default() -> Self {
        Self::new()
    }
}

impl CalendarQueue {
    /// An empty queue with the initial geometry.
    #[must_use]
    pub fn new() -> Self {
        CalendarQueue {
            buckets: (0..MIN_BUCKETS).map(|_| Vec::new()).collect(),
            width: 1.0,
            cur: 0,
            cur_day: 0,
            len: 0,
            cached_min: None,
        }
    }

    /// The day index of time `t` under the current geometry. Times are
    /// finite and non-negative by the push contract; the cast saturates
    /// (monotonically) for far-future events.
    #[inline]
    fn day_of(&self, t: f64) -> u64 {
        (t / self.width) as u64
    }

    /// The bucket index of time `t` under the current geometry.
    #[inline]
    fn bucket_of(&self, t: f64) -> usize {
        (self.day_of(t) % self.buckets.len() as u64) as usize
    }

    /// Points the cursor at the day containing time `t`.
    #[inline]
    fn seek(&mut self, t: f64) {
        self.cur_day = self.day_of(t);
        self.cur = (self.cur_day % self.buckets.len() as u64) as usize;
    }

    /// The minimum event's position: `(bucket, slot, event)`. Walks the
    /// cursor forward day by day; after one fruitless full lap, jumps
    /// the cursor to the day of the global minimum. `None` when empty.
    fn find_min(&mut self) -> Option<(usize, usize, Event)> {
        if self.len == 0 {
            return None;
        }
        if let Some(found) = self.cached_min {
            return Some(found);
        }
        let nb = self.buckets.len();
        let mut lap = 0usize;
        loop {
            let mut best: Option<(usize, Event)> = None;
            for (slot, &ev) in self.buckets[self.cur].iter().enumerate() {
                if self.day_of(f64::from_bits(ev.0)) == self.cur_day
                    && best.is_none_or(|(_, b)| ev < b)
                {
                    best = Some((slot, ev));
                }
            }
            if let Some((slot, ev)) = best {
                let found = (self.cur, slot, ev);
                self.cached_min = Some(found);
                return Some(found);
            }
            self.cur_day = self.cur_day.saturating_add(1);
            self.cur = (self.cur_day % nb as u64) as usize;
            lap += 1;
            if lap >= nb {
                // A whole lap of empty windows: every event lies beyond
                // the scanned year. Jump to the earliest one directly.
                let mut global: Option<Event> = None;
                for bucket in &self.buckets {
                    for &ev in bucket {
                        if global.is_none_or(|g| ev < g) {
                            global = Some(ev);
                        }
                    }
                }
                // `len > 0` guarantees an event exists.
                if let Some(ev) = global {
                    self.seek(f64::from_bits(ev.0));
                }
                lap = 0;
            }
        }
    }

    /// Re-buckets every event into `new_nb` buckets with a width
    /// re-estimated from the live span, and re-seeks the cursor.
    fn resize(&mut self, new_nb: usize) {
        let events: Vec<Event> = self.buckets.iter_mut().flat_map(std::mem::take).collect();
        let (mut lo, mut hi) = (f64::INFINITY, 0.0f64);
        for &(bits, _) in &events {
            let t = f64::from_bits(bits);
            lo = lo.min(t);
            hi = hi.max(t);
        }
        if !events.is_empty() && hi > lo {
            // Aim for a few events per window at the current occupancy:
            // the mean spacing over the live span, times a small slack.
            self.width = ((hi - lo) / events.len() as f64 * 2.0).max(MIN_WIDTH);
        }
        self.buckets = (0..new_nb).map(|_| Vec::new()).collect();
        for &(bits, seq) in &events {
            let b = self.bucket_of(f64::from_bits(bits));
            self.buckets[b].push((bits, seq));
        }
        self.cached_min = None;
        self.seek(if lo.is_finite() { lo } else { 0.0 });
    }
}

impl EventQueue for CalendarQueue {
    fn push(&mut self, time_bits: u64, seq: u64) {
        let t = f64::from_bits(time_bits);
        debug_assert!(t >= 0.0, "event times are non-negative");
        if self.len + 1 > self.buckets.len() * 2 {
            self.resize(self.buckets.len() * 2);
        }
        // A push behind the cursor re-opens its day: the pop-order
        // invariant is that no live event has a day before the cursor.
        if self.day_of(t) < self.cur_day {
            self.seek(t);
        }
        let b = self.bucket_of(t);
        self.buckets[b].push((time_bits, seq));
        self.len += 1;
        self.cached_min = None;
    }

    fn peek(&mut self) -> Option<Event> {
        self.find_min().map(|(_, _, ev)| ev)
    }

    fn pop(&mut self) -> Option<Event> {
        let (bucket, slot, ev) = self.find_min()?;
        self.buckets[bucket].swap_remove(slot);
        self.len -= 1;
        self.cached_min = None;
        if self.len < self.buckets.len() / 2 && self.buckets.len() > MIN_BUCKETS {
            self.resize(self.buckets.len() / 2);
        }
        Some(ev)
    }

    #[inline]
    fn len(&self) -> usize {
        self.len
    }
}

// ---- selection -------------------------------------------------------

/// Which event-queue implementation to run.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum QueueKind {
    /// The binary-heap reference implementation.
    Heap,
    /// The calendar queue (the default).
    #[default]
    Calendar,
}

/// The statically dispatched queue the engines embed.
#[derive(Debug)]
pub enum SimQueue {
    /// Reference binary heap.
    Heap(BinaryHeapQueue),
    /// Calendar queue.
    Calendar(CalendarQueue),
}

impl SimQueue {
    /// An empty queue of the given kind, sized for roughly `cap`
    /// events.
    #[must_use]
    pub fn with_capacity(kind: QueueKind, cap: usize) -> Self {
        match kind {
            QueueKind::Heap => SimQueue::Heap(BinaryHeapQueue::with_capacity(cap)),
            QueueKind::Calendar => SimQueue::Calendar(CalendarQueue::new()),
        }
    }
}

impl EventQueue for SimQueue {
    #[inline]
    fn push(&mut self, time_bits: u64, seq: u64) {
        match self {
            SimQueue::Heap(q) => q.push(time_bits, seq),
            SimQueue::Calendar(q) => q.push(time_bits, seq),
        }
    }

    #[inline]
    fn peek(&mut self) -> Option<Event> {
        match self {
            SimQueue::Heap(q) => q.peek(),
            SimQueue::Calendar(q) => q.peek(),
        }
    }

    #[inline]
    fn pop(&mut self) -> Option<Event> {
        match self {
            SimQueue::Heap(q) => q.pop(),
            SimQueue::Calendar(q) => q.pop(),
        }
    }

    #[inline]
    fn len(&self) -> usize {
        match self {
            SimQueue::Heap(q) => q.len(),
            SimQueue::Calendar(q) => q.len(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn drain(q: &mut impl EventQueue) -> Vec<Event> {
        let mut out = Vec::new();
        while let Some(e) = q.pop() {
            out.push(e);
        }
        out
    }

    #[test]
    fn calendar_pops_in_time_then_fifo_order() {
        let mut q = CalendarQueue::new();
        q.push(2.0f64.to_bits(), 0);
        q.push(1.0f64.to_bits(), 1);
        q.push(1.0f64.to_bits(), 2);
        q.push(0.5f64.to_bits(), 3);
        assert_eq!(q.peek(), Some((0.5f64.to_bits(), 3)));
        let order: Vec<u64> = drain(&mut q).into_iter().map(|(_, s)| s).collect();
        assert_eq!(order, vec![3, 1, 2, 0]);
    }

    #[test]
    fn calendar_handles_push_behind_cursor() {
        let mut q = CalendarQueue::new();
        for i in 0..100u64 {
            q.push((i as f64 * 10.0).to_bits(), i);
        }
        // Drain half, then push an event earlier than the cursor.
        for _ in 0..50 {
            q.pop();
        }
        q.push(1.0f64.to_bits(), 1000);
        assert_eq!(q.pop(), Some((1.0f64.to_bits(), 1000)));
        assert_eq!(q.pop(), Some((500.0f64.to_bits(), 50)));
    }

    #[test]
    fn calendar_matches_heap_on_interleaved_ops() {
        let mut cal = CalendarQueue::new();
        let mut heap = BinaryHeapQueue::default();
        // Deterministic mixed pushes/pops over a wide dynamic range.
        let mut x = 0x9e3779b97f4a7c15u64;
        let mut seq = 0u64;
        for step in 0..5_000u64 {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            if step % 3 == 2 {
                assert_eq!(cal.pop(), heap.pop(), "step {step}");
            } else {
                let t = (x % 1_000_000) as f64 * 1e-3;
                cal.push(t.to_bits(), seq);
                heap.push(t.to_bits(), seq);
                seq += 1;
            }
            assert_eq!(cal.len(), heap.len());
        }
        assert_eq!(drain(&mut cal), drain(&mut heap));
    }

    #[test]
    fn default_kind_is_calendar() {
        assert_eq!(QueueKind::default(), QueueKind::Calendar);
    }
}
