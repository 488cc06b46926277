//! A lock-free bounded run queue, the replacement for `crossbeam`'s.
//!
//! [`StealQueue`] is an atomic sequence-numbered bounded ring
//! (Vyukov-style) with non-blocking `try_push`/`pop`. It is safe under any
//! producer/consumer mix; the serving runtime uses one as an SPSC ingest
//! ring per shard (router → worker) and one as an SPMC run queue per shard
//! that idle workers *steal* closed inference batches from. No mutex, no
//! condvar: a push or pop is a couple of atomic operations, so neither side
//! ever syscall-parks the other. A hard capacity bound gives explicit
//! backpressure: a full ring hands the value back ([`PushError::Full`]) so
//! the caller can shed load *visibly* instead of buffering without limit.

use std::cell::UnsafeCell;
use std::mem::MaybeUninit;
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};

/// Why a [`StealQueue::try_push`] did not enqueue the value.
///
/// The rejected value is handed back so nothing is silently dropped.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum PushError<T> {
    /// The ring is at capacity; the value was not enqueued.
    Full(T),
}

/// One ring slot: an atomic sequence number gating an inline value cell.
///
/// The sequence protocol (Vyukov's bounded queue): slot `i` starts at
/// `seq = i`. A producer claiming ticket `t` waits for `seq == t`, writes
/// the value, then publishes `seq = t + 1`. A consumer claiming ticket `h`
/// waits for `seq == h + 1`, reads the value, then recycles the slot with
/// `seq = h + capacity` — the ticket the producer of the *next* lap waits
/// for. The `Release` stores pair with the `Acquire` loads, so a value read
/// always happens-after the write that produced it.
struct StealSlot<T> {
    seq: AtomicUsize,
    value: UnsafeCell<MaybeUninit<T>>,
}

/// A lock-free bounded FIFO ring with non-blocking push/pop and a close
/// flag — the run-queue primitive of the work-stealing serving core.
///
/// Any number of producers and consumers may operate concurrently (the
/// implementation is a Vyukov sequence-numbered ring, sound under any
/// mix); the intended uses are the two degenerate cases:
///
/// - **SPSC ingest ring**: one router pushes, one worker pops. Backpressure
///   is explicit — [`StealQueue::try_push`] hands a [`PushError::Full`]
///   back instead of blocking, and the producer decides whether to spin,
///   shed, or fail.
/// - **SPMC steal queue**: the owning worker pushes closed work batches,
///   and *any* worker (owner or thief) pops them. FIFO order makes the
///   oldest batch the first stolen, which is what tail latency wants.
///
/// [`StealQueue::close`] is the producer's end-of-stream signal:
/// consumers poll [`StealQueue::is_drained`] (closed *and* empty) for
/// termination. Dropping the ring drops any undelivered values.
pub struct StealQueue<T> {
    slots: Box<[StealSlot<T>]>,
    capacity: usize,
    /// Next ticket a consumer will claim.
    head: AtomicUsize,
    /// Next ticket a producer will claim.
    tail: AtomicUsize,
    closed: AtomicBool,
}

// SAFETY: the sequence protocol hands each value from exactly one producer
// to exactly one consumer with Release/Acquire ordering, so sharing the
// ring only requires the values themselves to be sendable.
unsafe impl<T: Send> Send for StealQueue<T> {}
// SAFETY: same argument as Send above — the seq handoff protocol is the
// synchronization, so `&StealQueue` is shareable whenever T itself is Send.
unsafe impl<T: Send> Sync for StealQueue<T> {}

impl<T> StealQueue<T> {
    /// Create a ring with room for exactly `capacity` values.
    ///
    /// # Panics
    ///
    /// Panics when `capacity` is below 2. The sequence protocol needs at
    /// least two slots: with a single slot, "free for ticket `t`" and
    /// "published for ticket `t-1`" are the same sequence number (`t`), so
    /// a producer would overwrite an unconsumed value.
    #[must_use]
    pub fn new(capacity: usize) -> Self {
        assert!(capacity >= 2, "steal queue capacity must be at least 2");
        let slots = (0..capacity)
            .map(|i| StealSlot {
                seq: AtomicUsize::new(i),
                value: UnsafeCell::new(MaybeUninit::uninit()),
            })
            .collect();
        StealQueue {
            slots,
            capacity,
            head: AtomicUsize::new(0),
            tail: AtomicUsize::new(0),
            closed: AtomicBool::new(false),
        }
    }

    /// Enqueue `value` without blocking.
    ///
    /// # Errors
    ///
    /// Returns [`PushError::Full`] handing the value back when the ring is
    /// at capacity — the caller chooses whether to retry, shed, or run the
    /// work inline.
    pub fn try_push(&self, value: T) -> Result<(), PushError<T>> {
        // ordering: Relaxed — the ticket value is only a CAS hint; the
        // happens-before edge producers rely on is seq's Release/Acquire.
        let mut tail = self.tail.load(Ordering::Relaxed);
        loop {
            let slot = &self.slots[tail % self.capacity];
            let seq = slot.seq.load(Ordering::Acquire);
            if seq == tail {
                // Slot free for this lap: claim the ticket, then publish.
                // ordering: Relaxed/Relaxed — the CAS only claims the
                // ticket atomically; publication happens-before is carried
                // by the seq Release store below, never by the ticket.
                match self.tail.compare_exchange_weak(
                    tail,
                    tail + 1,
                    Ordering::Relaxed,
                    Ordering::Relaxed,
                ) {
                    Ok(_) => {
                        // SAFETY: the CAS made this thread the unique owner
                        // of ticket `tail`; no other producer can claim it
                        // and no consumer reads before seq becomes tail+1.
                        unsafe { (*slot.value.get()).write(value) };
                        slot.seq.store(tail + 1, Ordering::Release);
                        return Ok(());
                    }
                    Err(now) => tail = now,
                }
            } else if seq < tail {
                // The consumer of one lap ago has not recycled the slot:
                // the ring is full right now.
                return Err(PushError::Full(value));
            } else {
                // Another producer advanced past us; reload the ticket.
                // ordering: Relaxed — CAS hint only (see the load above).
                tail = self.tail.load(Ordering::Relaxed);
            }
            std::hint::spin_loop();
        }
    }

    /// Dequeue the oldest value without blocking; `None` when the ring is
    /// currently empty.
    pub fn pop(&self) -> Option<T> {
        // ordering: Relaxed — ticket hint only; the value read is ordered
        // by seq's Acquire load seeing the producer's Release store.
        let mut head = self.head.load(Ordering::Relaxed);
        loop {
            let slot = &self.slots[head % self.capacity];
            let seq = slot.seq.load(Ordering::Acquire);
            if seq == head + 1 {
                // Value published for this ticket: claim it, read, recycle.
                // ordering: Relaxed/Relaxed — claims the consumer ticket
                // only; the data edge is seq Acquire (above) and the slot
                // recycle edge is seq's Release store below.
                match self.head.compare_exchange_weak(
                    head,
                    head + 1,
                    Ordering::Relaxed,
                    Ordering::Relaxed,
                ) {
                    Ok(_) => {
                        // SAFETY: the CAS made this thread the unique
                        // consumer of ticket `head`, and the Acquire load
                        // of seq saw the producer's Release, so the value
                        // is fully written and owned by us alone.
                        let value = unsafe { (*slot.value.get()).assume_init_read() };
                        slot.seq.store(head + self.capacity, Ordering::Release);
                        return Some(value);
                    }
                    Err(now) => head = now,
                }
            } else if seq <= head {
                // No value published for this ticket yet: empty (a push may
                // be mid-flight; non-blocking semantics report empty now).
                return None;
            } else {
                // Another consumer advanced past us; reload the ticket.
                // ordering: Relaxed — CAS hint only (see the load above).
                head = self.head.load(Ordering::Relaxed);
            }
            std::hint::spin_loop();
        }
    }

    /// Producer-side end-of-stream signal. Pushing after `close` is not
    /// forbidden (the flag is advisory), but well-behaved producers close
    /// exactly once, after their final push.
    pub fn close(&self) {
        self.closed.store(true, Ordering::Release);
    }

    /// Has [`StealQueue::close`] been called?
    #[must_use]
    pub fn is_closed(&self) -> bool {
        self.closed.load(Ordering::Acquire)
    }

    /// Number of values currently queued (a racy snapshot under concurrent
    /// use; exact when quiescent).
    #[must_use]
    pub fn len(&self) -> usize {
        let tail = self.tail.load(Ordering::Acquire);
        let head = self.head.load(Ordering::Acquire);
        tail.saturating_sub(head)
    }

    /// Is the ring currently empty? (Racy under concurrent use.)
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Closed *and* empty: no value is claimable now, and — because closing
    /// happens after the producer's final push — none will ever appear.
    /// This is the consumer-side termination test.
    #[must_use]
    pub fn is_drained(&self) -> bool {
        // Order matters: observe the close flag first, then emptiness. The
        // Release store in `close` happens after the final push, so seeing
        // closed==true and then empty==true proves the stream is over.
        self.is_closed() && self.is_empty()
    }

    /// The fixed capacity the ring was created with.
    #[must_use]
    pub fn capacity(&self) -> usize {
        self.capacity
    }
}

impl<T> Drop for StealQueue<T> {
    fn drop(&mut self) {
        // Drain through the normal protocol so every undelivered value is
        // dropped exactly once (the ring owns values between push and pop).
        while self.pop().is_some() {}
    }
}

impl<T> std::fmt::Debug for StealQueue<T> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("StealQueue")
            .field("capacity", &self.capacity)
            .field("len", &self.len())
            .field("closed", &self.is_closed())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;
    use std::thread;

    // -----------------------------------------------------------------------
    // StealQueue: single-thread semantics
    // -----------------------------------------------------------------------

    #[test]
    fn steal_queue_is_fifo_across_laps() {
        let q = StealQueue::new(3);
        // Three full laps around a capacity-3 ring.
        for lap in 0..3u32 {
            for i in 0..3 {
                q.try_push(lap * 10 + i).unwrap();
            }
            for i in 0..3 {
                assert_eq!(q.pop(), Some(lap * 10 + i));
            }
        }
        assert_eq!(q.pop(), None);
    }

    #[test]
    fn steal_queue_full_and_empty_boundaries() {
        let q = StealQueue::new(2);
        assert!(q.is_empty());
        assert_eq!(q.pop(), None, "empty ring pops nothing");
        q.try_push(1).unwrap();
        q.try_push(2).unwrap();
        assert_eq!(q.len(), 2);
        assert_eq!(q.try_push(3), Err(PushError::Full(3)), "full ring hands the value back");
        assert_eq!(q.pop(), Some(1));
        q.try_push(3).unwrap(); // freed slot is reusable immediately
        assert_eq!(q.pop(), Some(2));
        assert_eq!(q.pop(), Some(3));
        assert_eq!(q.pop(), None);
        assert_eq!(q.capacity(), 2);
    }

    #[test]
    fn steal_queue_close_then_drain() {
        let q = StealQueue::new(4);
        q.try_push("a").unwrap();
        q.close();
        assert!(q.is_closed());
        assert!(!q.is_drained(), "closed but not yet empty");
        assert_eq!(q.pop(), Some("a"));
        assert!(q.is_drained(), "closed and empty");
    }

    #[test]
    #[should_panic(expected = "capacity must be at least 2")]
    fn steal_queue_zero_capacity_is_rejected() {
        let _ = StealQueue::<u8>::new(0);
    }

    #[test]
    #[should_panic(expected = "capacity must be at least 2")]
    fn steal_queue_single_slot_capacity_is_rejected() {
        // One slot cannot disambiguate free-for-`t` from published-for-`t-1`
        // in the sequence protocol; constructing such a ring must fail fast
        // rather than silently overwrite values.
        let _ = StealQueue::<u8>::new(1);
    }

    /// A value whose drop is observable: the leak check for undelivered
    /// items when a ring is dropped with work still queued.
    #[derive(Debug)]
    struct DropToken(Arc<std::sync::atomic::AtomicUsize>);
    impl Drop for DropToken {
        fn drop(&mut self) {
            self.0.fetch_add(1, Ordering::SeqCst);
        }
    }

    #[test]
    fn steal_queue_drop_with_pending_items_leaks_nothing() {
        let drops = Arc::new(AtomicUsize::new(0));
        let q = StealQueue::new(8);
        for _ in 0..6 {
            q.try_push(DropToken(Arc::clone(&drops))).unwrap();
        }
        // Deliver two (dropped by the consumer), leave four in the ring.
        drop(q.pop());
        drop(q.pop());
        assert_eq!(drops.load(Ordering::SeqCst), 2);
        drop(q);
        assert_eq!(drops.load(Ordering::SeqCst), 6, "ring drop must release every pending value");
    }

    #[test]
    fn steal_queue_rejected_push_does_not_double_drop() {
        let drops = Arc::new(AtomicUsize::new(0));
        let q = StealQueue::new(2);
        q.try_push(DropToken(Arc::clone(&drops))).unwrap();
        q.try_push(DropToken(Arc::clone(&drops))).unwrap();
        let Err(PushError::Full(rejected)) = q.try_push(DropToken(Arc::clone(&drops))) else {
            panic!("push into a full ring must report Full");
        };
        drop(rejected);
        assert_eq!(drops.load(Ordering::SeqCst), 1, "only the handed-back value dropped");
        drop(q);
        assert_eq!(drops.load(Ordering::SeqCst), 3);
    }

    // -----------------------------------------------------------------------
    // StealQueue: multi-thread stress (the TSan/Miri targets wired into
    // scripts/sanitizers.sh)
    // -----------------------------------------------------------------------

    /// Seeded yield pattern: each thread derives its own SplitMix64 stream
    /// and yields pseudo-randomly, so every run exercises a different — but
    /// reproducible per seed — interleaving.
    fn jitter(rng: &mut crate::rng::SplitMix64) {
        use crate::rng::Rng;
        if rng.gen_bool(0.25) {
            thread::yield_now();
        }
    }

    #[test]
    fn steal_queue_spsc_router_worker_loses_nothing() {
        use crate::rng::SplitMix64;
        // Sized for the 3 execution tiers: native (fast), TSan (slower),
        // Miri (interpreter, ~100x) — the interleavings that matter show up
        // within a few hundred handoffs.
        const N: u64 = if cfg!(miri) { 64 } else { 500 };
        let q = Arc::new(StealQueue::new(16));
        let producer = {
            let q = Arc::clone(&q);
            thread::spawn(move || {
                let mut rng = SplitMix64::new(0xA11CE);
                for mut i in 0..N {
                    loop {
                        match q.try_push(i) {
                            Ok(()) => break,
                            Err(PushError::Full(back)) => {
                                i = back;
                                thread::yield_now();
                            }
                        }
                    }
                    jitter(&mut rng);
                }
                q.close();
            })
        };
        let mut got = Vec::new();
        let mut rng = SplitMix64::new(0xB0B);
        loop {
            match q.pop() {
                Some(v) => got.push(v),
                None if q.is_drained() => break,
                None => thread::yield_now(),
            }
            jitter(&mut rng);
        }
        producer.join().unwrap();
        let want: Vec<u64> = (0..N).collect();
        assert_eq!(got, want, "SPSC delivery must be lossless and FIFO");
    }

    #[test]
    fn steal_queue_one_owner_many_thieves_partition_the_work() {
        use crate::rng::SplitMix64;
        const N: u64 = if cfg!(miri) { 96 } else { 600 };
        const THIEVES: usize = 3;
        let q = Arc::new(StealQueue::new(8));
        let owner = {
            let q = Arc::clone(&q);
            thread::spawn(move || {
                let mut rng = SplitMix64::new(7);
                for mut i in 0..N {
                    loop {
                        match q.try_push(i) {
                            Ok(()) => break,
                            Err(PushError::Full(back)) => {
                                i = back;
                                thread::yield_now();
                            }
                        }
                    }
                    jitter(&mut rng);
                }
                q.close();
            })
        };
        let thieves: Vec<_> = (0..THIEVES)
            .map(|t| {
                let q = Arc::clone(&q);
                thread::spawn(move || {
                    let mut rng = SplitMix64::new(100 + t as u64);
                    let mut mine = Vec::new();
                    loop {
                        match q.pop() {
                            Some(v) => mine.push(v),
                            None if q.is_drained() => break,
                            None => thread::yield_now(),
                        }
                        jitter(&mut rng);
                    }
                    mine
                })
            })
            .collect();
        owner.join().unwrap();
        let mut all: Vec<u64> = Vec::new();
        for t in thieves {
            all.extend(t.join().unwrap());
        }
        all.sort_unstable();
        let want: Vec<u64> = (0..N).collect();
        assert_eq!(all, want, "thieves must exactly partition the stream: no loss, no dupes");
    }

    #[test]
    fn steal_queue_mpmc_full_mix_is_lossless() {
        use crate::rng::SplitMix64;
        const PER_PRODUCER: u64 = if cfg!(miri) { 48 } else { 250 };
        const PRODUCERS: u64 = 2;
        const CONSUMERS: usize = 2;
        let q = Arc::new(StealQueue::new(4));
        let live = Arc::new(AtomicUsize::new(PRODUCERS as usize));
        let producers: Vec<_> = (0..PRODUCERS)
            .map(|p| {
                let q = Arc::clone(&q);
                let live = Arc::clone(&live);
                thread::spawn(move || {
                    let mut rng = SplitMix64::new(p);
                    for i in 0..PER_PRODUCER {
                        let mut v = p * PER_PRODUCER + i;
                        loop {
                            match q.try_push(v) {
                                Ok(()) => break,
                                Err(PushError::Full(back)) => {
                                    v = back;
                                    thread::yield_now();
                                }
                            }
                        }
                        jitter(&mut rng);
                    }
                    // Last producer out closes the stream.
                    if live.fetch_sub(1, Ordering::AcqRel) == 1 {
                        q.close();
                    }
                })
            })
            .collect();
        let consumers: Vec<_> = (0..CONSUMERS)
            .map(|c| {
                let q = Arc::clone(&q);
                thread::spawn(move || {
                    let mut rng = SplitMix64::new(50 + c as u64);
                    let mut mine = Vec::new();
                    loop {
                        match q.pop() {
                            Some(v) => mine.push(v),
                            None if q.is_drained() => break,
                            None => thread::yield_now(),
                        }
                        jitter(&mut rng);
                    }
                    mine
                })
            })
            .collect();
        for p in producers {
            p.join().unwrap();
        }
        let mut all: Vec<u64> = Vec::new();
        for c in consumers {
            all.extend(c.join().unwrap());
        }
        all.sort_unstable();
        let want: Vec<u64> = (0..PRODUCERS * PER_PRODUCER).collect();
        assert_eq!(all, want);
    }

    #[test]
    fn steal_queue_concurrent_drop_tokens_survive_stress() {
        // Push/steal churn with drop-observable payloads: after the dust
        // settles every token must have dropped exactly once, wherever it
        // ended up (consumed, or still queued when the ring dropped). The
        // producer pushes CAPACITY more tokens than the thief consumes, so
        // the ring is guaranteed to drop while full.
        const CAPACITY: usize = 4;
        const CONSUMED: usize = if cfg!(miri) { 32 } else { 200 };
        const PUSHED: usize = CONSUMED + CAPACITY;
        let drops = Arc::new(AtomicUsize::new(0));
        {
            let q = Arc::new(StealQueue::new(CAPACITY));
            let producer = {
                let q = Arc::clone(&q);
                let drops = Arc::clone(&drops);
                thread::spawn(move || {
                    for _ in 0..PUSHED {
                        let mut v = DropToken(Arc::clone(&drops));
                        loop {
                            match q.try_push(v) {
                                Ok(()) => break,
                                Err(PushError::Full(back)) => {
                                    v = back;
                                    thread::yield_now();
                                }
                            }
                        }
                    }
                    q.close();
                })
            };
            let thief = {
                let q = Arc::clone(&q);
                thread::spawn(move || {
                    // Consume an exact count, then stop — the rest must be
                    // released by the ring's own drop.
                    let mut taken = 0usize;
                    while taken < CONSUMED {
                        match q.pop() {
                            Some(v) => {
                                drop(v);
                                taken += 1;
                            }
                            None => thread::yield_now(),
                        }
                    }
                })
            };
            producer.join().unwrap();
            thief.join().unwrap();
            assert_eq!(q.len(), CAPACITY, "ring must still hold the tail of the stream");
        } // last Arc owners gone: ring drops with pending tokens
        assert_eq!(drops.load(Ordering::SeqCst), PUSHED, "every token drops exactly once");
    }
}
