//! Bounded lock-free mailboxes with Blocking-After-Service semantics.
//!
//! The paper's cost models assume streams implemented as fixed-capacity FIFO
//! buffers where "when an output item attempts to enter into a full queue,
//! that item is blocked until a free slot becomes available" (§3, BAS). The
//! Akka evaluation uses `BoundedMailbox` with a send timeout after which the
//! item is discarded (§5.1); [`Sender::send`] reproduces both behaviors.
//!
//! # Implementation
//!
//! The queue is a bounded ring buffer in the style of Dmitry Vyukov's MPMC
//! queue (the same algorithm as crossbeam's `ArrayQueue`), restricted to a
//! single consumer. Each slot carries a `stamp` that encodes both the ring
//! index and a *lap* counter, so producers and the consumer can tell — from
//! one atomic load — whether a slot is free, holds data, or is mid-transfer.
//! No mutex or condvar sits on the data path; envelopes move between threads
//! purely through atomic stamps.
//!
//! Fan-in edges (several upstream actors sharing one mailbox) claim slots
//! with a CAS on `tail`; single-producer edges ([`channel_spsc`]) skip the
//! CAS and advance `tail` with a plain store, upgrading themselves to the
//! CAS path if the sender is ever cloned.
//!
//! Blocking (BAS backpressure and empty-mailbox receives) is adaptive:
//! callers spin briefly, then yield, then park the OS thread. Parking uses a
//! Dekker-style handshake — the parker publishes a "parked" flag, issues a
//! `SeqCst` fence, re-checks the queue, and only then parks; the waking side
//! issues the matching fence before testing the flag — so a wakeup can never
//! be lost between the re-check and the park. As belt-and-braces every park
//! is bounded by [`MAX_PARK`].

use spinstreams_core::Tuple;
use std::cell::UnsafeCell;
use std::mem::MaybeUninit;
use std::sync::atomic::{fence, AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Mutex, MutexGuard, OnceLock, PoisonError};
use std::thread::{self, Thread, ThreadId};
use std::time::{Duration, Instant};

/// Upper bound on any single `park_timeout` call. The Dekker handshake makes
/// lost wakeups impossible in theory; the cap makes them harmless in
/// practice (a missed wakeup costs at most one millisecond, not a hang).
const MAX_PARK: Duration = Duration::from_millis(1);

/// Locks the waiter registry, recovering from poisoning.
///
/// The lock is only held to push/take parked thread handles, so a poisoned
/// lock means a foreign panic (e.g. OOM abort path) interrupted a
/// registration; the registry is still structurally sound and the
/// supervised engine must keep running.
fn lock_waiters(m: &Mutex<Waiters>) -> MutexGuard<'_, Waiters> {
    m.lock().unwrap_or_else(PoisonError::into_inner)
}

/// A message in an actor's mailbox.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Envelope {
    /// A stream item.
    Data(Tuple),
    /// An epoch (checkpoint barrier) marker carrying the epoch number.
    /// Sources inject one per out-edge every `checkpoint_interval` items;
    /// each actor aligns on markers from all in-edges before snapshotting
    /// and re-broadcasting. The ring moves markers like any other
    /// envelope — the lock-free fast path is marker-agnostic.
    Epoch(u64),
    /// End-of-stream marker; one is sent by each upstream sender when it
    /// finishes.
    Eos,
    /// Key-state handoff token (live repartitioning): the migrated state
    /// itself travels out-of-band in the shared reconfiguration map — the
    /// envelope only carries the handoff id, so `Envelope` stays `Copy` —
    /// but its *position* in the mailbox is the correctness guarantee:
    /// FIFO order puts it ahead of every released post-migration tuple,
    /// so the new owner merges state before touching moved-key data.
    Handoff(u64),
}

/// Outcome of a send attempt.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SendOutcome {
    /// The envelope was enqueued without waiting.
    Sent,
    /// The envelope was enqueued after blocking for the given duration
    /// (backpressure).
    SentAfterBlocking(Duration),
    /// The send timeout elapsed with the mailbox still full; the envelope
    /// was dropped (Akka's bounded-mailbox `pushTimeOut` behavior).
    TimedOut,
    /// The receiver is gone; the envelope was discarded.
    Disconnected,
}

impl SendOutcome {
    /// True if the envelope was delivered.
    pub fn delivered(self) -> bool {
        matches!(self, SendOutcome::Sent | SendOutcome::SentAfterBlocking(_))
    }
}

/// Outcome of a non-blocking [`Sender::try_send`] attempt.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TrySend {
    /// The envelope was enqueued.
    Sent,
    /// The mailbox is full; the envelope was not enqueued.
    Full,
    /// The mailbox is full and the receiver is gone; the envelope can never
    /// be delivered.
    Disconnected,
}

/// Why a batched send stopped before delivering every envelope.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum BatchFailure {
    /// The per-slot send timeout elapsed with the mailbox still full; the
    /// envelope at `delivered` (and everything after it) was not enqueued.
    TimedOut,
    /// The receiver is gone; the remaining envelopes cannot be delivered.
    Disconnected,
}

/// Outcome of a [`Sender::send_batch`] call.
///
/// Delivery is always a *prefix* of the batch, in order: BAS semantics hold
/// per slot, so a full queue blocks the remainder of the batch rather than
/// dropping envelopes mid-batch. Only a timeout (or a vanished receiver)
/// terminates delivery early, and then every undelivered envelope stays in
/// the caller's buffer for per-envelope accounting.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct BatchOutcome {
    /// Number of envelopes enqueued (the delivered prefix).
    pub delivered: usize,
    /// Total time spent blocked on backpressure while delivering the
    /// prefix. Zero when every slot was free immediately.
    pub blocked: Duration,
    /// Why delivery stopped before the end of the batch (`None` = the whole
    /// batch was delivered).
    pub failure: Option<BatchFailure>,
}

impl BatchOutcome {
    /// True if every envelope of the batch was enqueued.
    pub fn complete(&self) -> bool {
        self.failure.is_none()
    }
}

/// Outcome of a non-blocking [`Sender::try_send_batch`] call.
///
/// Like [`BatchOutcome`], delivery is a prefix of the batch (drained from
/// the caller's buffer); unlike it, a full mailbox returns immediately
/// instead of blocking, so the caller can do other work — the pool executor
/// runs *other ready actors* — before retrying the remainder.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TryBatch {
    /// Number of envelopes enqueued (the delivered prefix).
    pub delivered: usize,
    /// True if the receiver is gone; the remaining envelopes can never be
    /// delivered.
    pub disconnected: bool,
}

/// Outcome of a [`Receiver::recv_drain`] call.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RecvBatch {
    /// This many envelopes were appended to the caller's buffer (≥ 1).
    Received(usize),
    /// All senders are gone and the mailbox is drained.
    Disconnected,
}

/// Outcome of a non-blocking [`Receiver::try_drain`] call.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TryRecvBatch {
    /// This many envelopes were appended to the caller's buffer (≥ 1).
    Received(usize),
    /// The mailbox is momentarily empty but senders remain.
    Empty,
    /// All senders are gone and the mailbox is drained.
    Disconnected,
}

/// One ring slot. `stamp` encodes the slot's state relative to `head`/`tail`
/// (see [`Inner`]); `value` is only read/written by the thread that owns the
/// slot per the stamp protocol.
struct Slot {
    stamp: AtomicUsize,
    value: UnsafeCell<MaybeUninit<Envelope>>,
}

/// Threads parked on this mailbox, registered *before* their parked flag is
/// set so a waker that observes the flag always finds the handle.
struct Waiters {
    /// The single consumer, when parked waiting for data.
    consumer: Option<Thread>,
    /// Producers parked on backpressure, deduplicated by thread id (a
    /// producer re-registers on every park loop iteration).
    producers: Vec<(ThreadId, Thread)>,
}

/// Pads a hot atomic to its own cache line so `head` and `tail` (written by
/// different sides) don't false-share.
#[repr(align(64))]
struct CacheLine<T>(T);

struct Inner {
    buffer: Box<[Slot]>,
    capacity: usize,
    /// Lap stride: the smallest power of two > `capacity`. `head`/`tail`
    /// encode `lap * one_lap + index`; a slot's stamp equal to `tail` means
    /// "free this lap", equal to `head + 1` means "holds data this lap".
    one_lap: usize,
    /// Next slot to pop. Written only by the single consumer (plain store,
    /// no CAS); producers read it only to confirm fullness, where staleness
    /// is benign (resolved by the park handshake).
    head: CacheLine<AtomicUsize>,
    /// Next slot to claim. Producers claim with a CAS, or a plain store on
    /// single-producer edges (`mp == false`).
    tail: CacheLine<AtomicUsize>,
    /// True once more than one producer may push concurrently. Starts true
    /// for [`channel`], false for [`channel_spsc`]; flipped (one-way) by
    /// `Sender::clone`. Safe because the cloning thread sees its own store
    /// in program order and any other thread can only obtain the clone
    /// through a synchronizing handoff (spawn/mutex), which publishes it.
    mp: AtomicBool,
    /// Live `Sender` count; 0 means end-of-input once the ring drains.
    senders: AtomicUsize,
    /// False once the `Receiver` is dropped.
    receiver_alive: AtomicBool,
    /// Dekker flag: consumer is (about to be) parked.
    consumer_parked: AtomicBool,
    /// Dekker counter: number of producers (about to be) parked.
    producers_parked: AtomicUsize,
    /// Park registry; locked only on the slow (parking/waking) path.
    waiters: Mutex<Waiters>,
    /// Optional consumer-side wake callback, invoked wherever a parked
    /// consumer would be unparked (data pushed, last sender dropped). The
    /// pool executor installs one per mailbox to mark the owning actor task
    /// ready, so producers blocked *inside* a batched send still get their
    /// consumer scheduled.
    wake_hook: OnceLock<Arc<dyn Fn() + Send + Sync>>,
    /// Cumulative nanoseconds producers spent blocked on backpressure while
    /// pushing into *this* mailbox. This is the receiver-edge view of the
    /// same stalls the senders record in their own `blocked_ns`: charging
    /// the time to the congested inbox lets the telemetry layer attribute
    /// backpressure to the operator causing it, not just the operators
    /// suffering it. Accumulated off the fast path (only when a send
    /// actually blocked), read by [`DepthProbe::stalled_ns`].
    stall_ns: AtomicU64,
}

// SAFETY: the `UnsafeCell` slot values are only accessed by the thread that
// owns the slot under the stamp protocol: a producer writes `value` only
// between claiming the slot (CAS/store on `tail`) and publishing the stamp
// (Release store), and the consumer reads it only after observing that
// stamp (Acquire load) and before releasing the slot back. Those Release →
// Acquire pairs order every access to each cell.
unsafe impl Sync for Inner {}

impl Inner {
    /// Advances a `head`/`tail` counter past `cur`: next index, or wrap to
    /// index 0 of the next lap.
    #[inline]
    fn advance(&self, cur: usize) -> usize {
        let index = cur & (self.one_lap - 1);
        let lap = cur & !(self.one_lap - 1);
        if index + 1 < self.capacity {
            cur + 1
        } else {
            lap.wrapping_add(self.one_lap)
        }
    }

    /// Attempts to enqueue one envelope; `false` means the ring is full.
    fn try_push(&self, env: Envelope) -> bool {
        // Relaxed: the claim CAS/store below is what hands out slots; this
        // load is just the starting guess.
        let mut tail = self.tail.0.load(Ordering::Relaxed);
        loop {
            let index = tail & (self.one_lap - 1);
            let slot = &self.buffer[index];
            // Acquire pairs with the consumer's Release store that frees
            // the slot, so the producer's write below cannot be ordered
            // before the consumer's read of the previous lap's value.
            let stamp = slot.stamp.load(Ordering::Acquire);
            if stamp == tail {
                // Slot free this lap: claim it by advancing `tail`.
                let new_tail = self.advance(tail);
                // Single-producer fast path: no other thread can race the
                // claim, so a plain store replaces the CAS. Relaxed is
                // enough — the Release stamp store below publishes the
                // value, and other threads only read `tail` for full/empty
                // detection where staleness is benign.
                if !self.mp.load(Ordering::Relaxed) {
                    self.tail.0.store(new_tail, Ordering::Relaxed);
                } else if let Err(t) = self.tail.0.compare_exchange_weak(
                    tail,
                    new_tail,
                    // SeqCst on success so the claim participates in the
                    // same total order as the fences in the full/empty
                    // detection paths (mirrors crossbeam's ArrayQueue).
                    Ordering::SeqCst,
                    Ordering::Relaxed,
                ) {
                    tail = t;
                    continue;
                }
                // SAFETY: the claim above gives this thread exclusive
                // ownership of the slot until the stamp store publishes it.
                unsafe {
                    (*slot.value.get()).write(env);
                }
                // Release publishes the value write to the consumer's
                // Acquire stamp load.
                slot.stamp.store(tail.wrapping_add(1), Ordering::Release);
                return true;
            } else if stamp.wrapping_add(self.one_lap) == tail.wrapping_add(1) {
                // The slot still holds last lap's value: the ring may be
                // full. The fence orders this check against the consumer's
                // head update so a concurrent pop is not misread as "full
                // forever" (same reasoning as crossbeam's ArrayQueue).
                fence(Ordering::SeqCst);
                let head = self.head.0.load(Ordering::Relaxed);
                if head.wrapping_add(self.one_lap) == tail {
                    return false;
                }
                // A pop is in flight; retry.
                std::hint::spin_loop();
                tail = self.tail.0.load(Ordering::Relaxed);
            } else {
                // Another producer claimed this slot but hasn't stamped it
                // yet; wait for it to finish.
                std::hint::spin_loop();
                tail = self.tail.0.load(Ordering::Relaxed);
            }
        }
    }

    /// Attempts to dequeue one envelope; `None` means the ring is empty.
    ///
    /// Must only be called by the single consumer.
    fn try_pop(&self) -> Option<Envelope> {
        // Relaxed: only the consumer writes `head`, so it always reads its
        // own latest value (pops from different pool workers are serialized
        // through the task lock, which carries the edit across threads).
        let mut head = self.head.0.load(Ordering::Relaxed);
        loop {
            let index = head & (self.one_lap - 1);
            let slot = &self.buffer[index];
            // Acquire pairs with the producer's Release stamp store,
            // publishing the value write.
            let stamp = slot.stamp.load(Ordering::Acquire);
            if stamp == head.wrapping_add(1) {
                // Slot holds data for this lap. Single consumer: a plain
                // store claims it (no CAS race possible). SeqCst keeps the
                // head update in the total order that producers' full-
                // detection fences rely on.
                self.head.0.store(self.advance(head), Ordering::SeqCst);
                // SAFETY: the stamp says the producer finished writing and
                // no other thread pops; the value is initialized and ours.
                let env = unsafe { (*slot.value.get()).assume_init_read() };
                // Release frees the slot for the producers' next lap,
                // ordering our value read before their overwrite.
                slot.stamp
                    .store(head.wrapping_add(self.one_lap), Ordering::Release);
                return Some(env);
            } else if stamp == head {
                // Slot empty this lap: the ring may be drained. The fence
                // orders the check against producer claims (crossbeam's
                // ArrayQueue reasoning).
                fence(Ordering::SeqCst);
                let tail = self.tail.0.load(Ordering::Relaxed);
                if tail == head {
                    return None;
                }
                // A push is mid-flight; retry.
                std::hint::spin_loop();
                head = self.head.0.load(Ordering::Relaxed);
            } else {
                std::hint::spin_loop();
                head = self.head.0.load(Ordering::Relaxed);
            }
        }
    }

    /// Enqueues the longest prefix of `batch` that fits; returns how many.
    fn push_burst(&self, batch: &[Envelope]) -> usize {
        let mut n = 0;
        while n < batch.len() && self.try_push(batch[n]) {
            n += 1;
        }
        n
    }

    /// Dequeues up to `max` envelopes into `buf`; returns how many.
    fn pop_burst(&self, buf: &mut Vec<Envelope>, max: usize) -> usize {
        let mut n = 0;
        while n < max {
            match self.try_pop() {
                Some(env) => {
                    buf.push(env);
                    n += 1;
                }
                None => break,
            }
        }
        n
    }

    /// True if the slot at `head` holds ready data (a pop would succeed
    /// right now). Used by the consumer's pre-park re-check: data that is
    /// merely *in flight* is fine to park on, because the producer's wake
    /// happens after its stamp store.
    fn pop_ready(&self) -> bool {
        let head = self.head.0.load(Ordering::Relaxed);
        let stamp = self.buffer[head & (self.one_lap - 1)]
            .stamp
            .load(Ordering::Acquire);
        stamp == head.wrapping_add(1)
    }

    /// True if the slot at `tail` is free (a push would succeed right now).
    /// Used by producers' pre-park re-check; a slot mid-pop is fine to park
    /// on because the consumer wakes producers after its stamp store.
    fn push_ready(&self) -> bool {
        let tail = self.tail.0.load(Ordering::Relaxed);
        let stamp = self.buffer[tail & (self.one_lap - 1)]
            .stamp
            .load(Ordering::Acquire);
        stamp == tail
    }

    /// Current queue length (approximate; the ring is concurrently
    /// mutated). Crossbeam's wrap-aware formula over a stable `tail` read.
    fn len(&self) -> usize {
        loop {
            // SeqCst so the head/tail pair is read out of one point in the
            // total order; the re-read of `tail` detects interleaved pops
            // and pushes that would make the pair inconsistent.
            let tail = self.tail.0.load(Ordering::SeqCst);
            let head = self.head.0.load(Ordering::SeqCst);
            if self.tail.0.load(Ordering::SeqCst) == tail {
                let hix = head & (self.one_lap - 1);
                let tix = tail & (self.one_lap - 1);
                return if hix < tix {
                    tix - hix
                } else if hix > tix {
                    self.capacity - hix + tix
                } else if tail == head {
                    0
                } else {
                    self.capacity
                };
            }
        }
    }

    /// Wakes the consumer if it is parked, and fires the pool wake hook.
    ///
    /// Called after every successful push (or burst) and by the last
    /// `Sender` drop.
    fn wake_consumer(&self) {
        // The Dekker pairing: this fence orders our push (or sender-count
        // store) before the flag read; the parker's fence orders its flag
        // store before its queue re-check. Whichever side runs second sees
        // the other's write, so either we see the flag (and unpark) or the
        // parker sees the data (and never parks).
        fence(Ordering::SeqCst);
        // Relaxed probe is fine after the fence; the SeqCst swap below is
        // the authoritative claim on the wakeup.
        if self.consumer_parked.load(Ordering::Relaxed)
            && self.consumer_parked.swap(false, Ordering::SeqCst)
        {
            if let Some(t) = lock_waiters(&self.waiters).consumer.take() {
                t.unpark();
            }
        }
        if let Some(hook) = self.wake_hook.get() {
            hook();
        }
    }

    /// Wakes every parked producer. Called after pops free slots and by the
    /// `Receiver` drop.
    fn wake_producers(&self) {
        // See `wake_consumer` for the fence pairing.
        fence(Ordering::SeqCst);
        if self.producers_parked.load(Ordering::Relaxed) > 0 {
            // Unpark all: several producers may be blocked mid-batch, and a
            // drained entry's spurious unpark is benign (every park sits in
            // a condition re-check loop).
            for (_, t) in lock_waiters(&self.waiters).producers.drain(..) {
                t.unpark();
            }
        }
    }

    /// Parks the consumer for at most `limit`, unless data became ready (or
    /// input ended) between the caller's last check and the flag store.
    fn park_consumer(&self, limit: Duration) {
        lock_waiters(&self.waiters).consumer = Some(thread::current());
        // SeqCst store + fence: the Dekker publish (see `wake_consumer`).
        self.consumer_parked.store(true, Ordering::SeqCst);
        fence(Ordering::SeqCst);
        // Acquire pairs with the Release decrement in `Drop for Sender`.
        if self.pop_ready() || self.senders.load(Ordering::Acquire) == 0 {
            self.consumer_parked.store(false, Ordering::SeqCst);
            return;
        }
        thread::park_timeout(limit.min(MAX_PARK));
        self.consumer_parked.store(false, Ordering::SeqCst);
    }

    /// Parks a producer for at most `limit`, unless a slot freed up (or the
    /// receiver vanished) between the caller's last check and the flag
    /// store.
    fn park_producer(&self, limit: Duration) {
        {
            let mut w = lock_waiters(&self.waiters);
            let me = thread::current();
            if !w.producers.iter().any(|(id, _)| *id == me.id()) {
                w.producers.push((me.id(), me));
            }
        }
        // SeqCst add + fence: the Dekker publish (see `wake_consumer`).
        self.producers_parked.fetch_add(1, Ordering::SeqCst);
        fence(Ordering::SeqCst);
        // Acquire pairs with the Release store in `Drop for Receiver`.
        let skip = self.push_ready() || !self.receiver_alive.load(Ordering::Acquire);
        if !skip {
            thread::park_timeout(limit.min(MAX_PARK));
        }
        self.producers_parked.fetch_sub(1, Ordering::SeqCst);
    }
}

/// Adaptive wait ladder: spin (cheap, keeps the cache line hot when the
/// other side is running on another core), then yield (lets the other side
/// run when cores are oversubscribed), then tell the caller to park.
struct Backoff {
    step: u32,
}

impl Backoff {
    /// Spin steps double from 1 to 32 hint instructions.
    const SPIN_LIMIT: u32 = 6;
    /// After spinning, yield this many times before parking.
    const YIELD_LIMIT: u32 = 10;

    fn new() -> Self {
        Backoff { step: 0 }
    }

    /// Burns one rung of the ladder; returns `false` once exhausted (the
    /// caller should park).
    fn try_wait(&mut self) -> bool {
        if self.step < Self::SPIN_LIMIT {
            for _ in 0..(1u32 << self.step) {
                std::hint::spin_loop();
            }
            self.step += 1;
            true
        } else if self.step < Self::YIELD_LIMIT {
            thread::yield_now();
            self.step += 1;
            true
        } else {
            false
        }
    }
}

/// The sending half of a mailbox. Cloning adds another producer.
pub struct Sender {
    inner: Arc<Inner>,
}

/// The receiving half of a mailbox (single consumer).
pub struct Receiver {
    inner: Arc<Inner>,
}

fn new_inner(capacity: usize, mp: bool) -> Arc<Inner> {
    assert!(capacity > 0, "mailbox capacity must be positive");
    let one_lap = (capacity + 1).next_power_of_two();
    let buffer = (0..capacity)
        .map(|i| Slot {
            // Slot `i` is free for lap 0, i.e. for the claim `tail == i`.
            stamp: AtomicUsize::new(i),
            value: UnsafeCell::new(MaybeUninit::uninit()),
        })
        .collect();
    Arc::new(Inner {
        buffer,
        capacity,
        one_lap,
        head: CacheLine(AtomicUsize::new(0)),
        tail: CacheLine(AtomicUsize::new(0)),
        mp: AtomicBool::new(mp),
        senders: AtomicUsize::new(1),
        receiver_alive: AtomicBool::new(true),
        consumer_parked: AtomicBool::new(false),
        producers_parked: AtomicUsize::new(0),
        waiters: Mutex::new(Waiters {
            consumer: None,
            producers: Vec::new(),
        }),
        wake_hook: OnceLock::new(),
        stall_ns: AtomicU64::new(0),
    })
}

/// Creates a bounded BAS mailbox with the given capacity.
///
/// Producers claim ring slots with a CAS, so the sender may be cloned and
/// shared across threads freely (fan-in edges).
///
/// # Panics
///
/// Panics if `capacity` is zero.
pub fn channel(capacity: usize) -> (Sender, Receiver) {
    let inner = new_inner(capacity, true);
    (
        Sender {
            inner: Arc::clone(&inner),
        },
        Receiver { inner },
    )
}

/// Creates a bounded BAS mailbox optimized for a single producer
/// (in-degree-1 edges, per the compiled `ActorGraph`): the sender advances
/// `tail` with a plain store instead of a CAS.
///
/// Cloning the sender permanently upgrades the mailbox to the multi-
/// producer (CAS) path, so the fast path is an optimization, never a
/// correctness constraint.
///
/// # Panics
///
/// Panics if `capacity` is zero.
pub fn channel_spsc(capacity: usize) -> (Sender, Receiver) {
    let inner = new_inner(capacity, false);
    (
        Sender {
            inner: Arc::clone(&inner),
        },
        Receiver { inner },
    )
}

impl Clone for Sender {
    fn clone(&self) -> Self {
        // Upgrade to multi-producer before a second producer can exist: the
        // cloning thread sees this store in program order, and any other
        // thread can only receive the clone through a synchronizing handoff
        // (spawn/mutex/channel), which publishes it. Relaxed is therefore
        // sufficient.
        self.inner.mp.store(true, Ordering::Relaxed);
        // Relaxed: incrementing a producer count needs no ordering of its
        // own (the Arc-clone pattern); the handoff that shares the clone
        // publishes the increment.
        self.inner.senders.fetch_add(1, Ordering::Relaxed);
        Sender {
            inner: Arc::clone(&self.inner),
        }
    }
}

impl Drop for Sender {
    fn drop(&mut self) {
        // Release: orders this producer's final stamp stores before the
        // decrement, pairing with the consumer's Acquire load of the count
        // — once the consumer reads zero, every final push is visible.
        if self.inner.senders.fetch_sub(1, Ordering::Release) == 1 {
            // Last sender: wake a consumer waiting on an empty queue so it
            // can observe the disconnect.
            self.inner.wake_consumer();
        }
    }
}

impl Drop for Receiver {
    fn drop(&mut self) {
        // Release pairs with the Acquire loads in the producers' blocking
        // loops and pre-park re-checks.
        self.inner.receiver_alive.store(false, Ordering::Release);
        self.inner.wake_producers();
    }
}

impl Sender {
    /// Sends with BAS semantics: if the mailbox is full, block until a slot
    /// frees up or `timeout` elapses (then the envelope is dropped and
    /// [`SendOutcome::TimedOut`] is returned).
    pub fn send(&self, env: Envelope, timeout: Duration) -> SendOutcome {
        if self.inner.try_push(env) {
            self.inner.wake_consumer();
            return SendOutcome::Sent;
        }
        // Backpressure path.
        let start = Instant::now();
        let deadline = start + timeout;
        let mut backoff = Backoff::new();
        loop {
            // Acquire pairs with the Release store in `Drop for Receiver`.
            if !self.inner.receiver_alive.load(Ordering::Acquire) {
                return SendOutcome::Disconnected;
            }
            if self.inner.try_push(env) {
                self.inner.wake_consumer();
                return SendOutcome::SentAfterBlocking(start.elapsed());
            }
            let now = Instant::now();
            if now >= deadline {
                return SendOutcome::TimedOut;
            }
            if !backoff.try_wait() {
                self.inner
                    .park_producer(deadline.saturating_duration_since(now));
            }
        }
    }

    /// Non-blocking send: enqueues if a slot is free, otherwise reports
    /// [`TrySend::Full`] (or [`TrySend::Disconnected`] once the receiver is
    /// gone) without waiting. The pool executor's flush loop uses this to
    /// trade blocking for running other ready actors.
    pub fn try_send(&self, env: Envelope) -> TrySend {
        if self.inner.try_push(env) {
            self.inner.wake_consumer();
            TrySend::Sent
        } else if !self.inner.receiver_alive.load(Ordering::Acquire) {
            TrySend::Disconnected
        } else {
            TrySend::Full
        }
    }

    /// Sends a whole batch in order with BAS semantics applied per slot.
    ///
    /// As many envelopes as fit are enqueued back-to-back; when the queue
    /// fills, the sender blocks until a slot frees — exactly as
    /// [`Sender::send`] would — and resumes pushing the remainder. Each
    /// envelope gets its own `timeout` window, so a batch is never dropped
    /// mid-way except by timeout (or a vanished receiver).
    ///
    /// The delivered prefix is drained out of `batch`; whatever remains in
    /// the buffer afterwards was **not** enqueued, and
    /// [`BatchOutcome::failure`] says why, so the caller can account for
    /// every undelivered envelope individually.
    ///
    /// With a single-envelope batch this performs the same ring operations
    /// in the same order as [`Sender::send`].
    pub fn send_batch(&self, batch: &mut Vec<Envelope>, timeout: Duration) -> BatchOutcome {
        let total = batch.len();
        let mut delivered = 0usize;
        let mut blocked = Duration::ZERO;
        let mut failure = None;
        'batch: while delivered < total {
            // Burst: enqueue everything that fits, then wake the consumer
            // once for the whole burst (it may be parked on an empty ring —
            // without this the batch would stall until the park timeout).
            let n = self.inner.push_burst(&batch[delivered..]);
            delivered += n;
            if n > 0 {
                self.inner.wake_consumer();
            }
            if delivered == total {
                break;
            }
            // Backpressure: block until a slot frees, per-slot timeout (the
            // window restarts whenever the burst above made progress).
            let start = Instant::now();
            let deadline = start + timeout;
            let mut backoff = Backoff::new();
            loop {
                // Acquire pairs with the Release store in `Drop for
                // Receiver`.
                if !self.inner.receiver_alive.load(Ordering::Acquire) {
                    failure = Some(BatchFailure::Disconnected);
                    break 'batch;
                }
                if self.inner.push_ready() {
                    blocked += start.elapsed();
                    continue 'batch;
                }
                let now = Instant::now();
                if now >= deadline {
                    // One final attempt before giving up, mirroring `send`.
                    if self.inner.push_ready() {
                        blocked += start.elapsed();
                        continue 'batch;
                    }
                    failure = Some(BatchFailure::TimedOut);
                    break 'batch;
                }
                if !backoff.try_wait() {
                    self.inner
                        .park_producer(deadline.saturating_duration_since(now));
                }
            }
        }
        if delivered > 0 {
            batch.drain(..delivered);
        }
        BatchOutcome {
            delivered,
            blocked,
            failure,
        }
    }

    /// Non-blocking batch send: enqueues the longest prefix that fits and
    /// returns immediately, draining the delivered prefix from `batch`.
    /// Never blocks and never drops — the caller decides whether to retry,
    /// run other work (pool executor), or time the remainder out.
    pub fn try_send_batch(&self, batch: &mut Vec<Envelope>) -> TryBatch {
        let n = self.inner.push_burst(&batch[..]);
        if n > 0 {
            self.inner.wake_consumer();
            batch.drain(..n);
        }
        TryBatch {
            delivered: n,
            // Acquire pairs with the Release store in `Drop for Receiver`.
            disconnected: !self.inner.receiver_alive.load(Ordering::Acquire),
        }
    }

    /// Charges `ns` nanoseconds of producer backpressure stall to this
    /// mailbox (the receiver-edge side of the sender's `blocked_ns`). The
    /// engine's flush path calls this once per blocked batch with the same
    /// figure it adds to the sender's `blocked_ns`.
    pub(crate) fn add_stall_ns(&self, ns: u64) {
        // Relaxed: a monotonic statistics counter, read only by the
        // sampler; no ordering with the data path is needed.
        self.inner.stall_ns.fetch_add(ns, Ordering::Relaxed);
    }

    /// Current queue length (approximate; for tests and diagnostics).
    pub fn len(&self) -> usize {
        self.inner.len()
    }

    /// True if the queue is currently empty (approximate).
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// The mailbox capacity.
    pub fn capacity(&self) -> usize {
        self.inner.capacity
    }
}

/// A passive observer of a mailbox's queue depth.
///
/// Unlike a cloned [`Sender`], a probe does not count as a producer, so
/// holding one does not delay disconnect detection on the receiver side —
/// the telemetry sampler can keep probes alive for the whole run without
/// perturbing termination. Creating a probe also does not upgrade an SPSC
/// mailbox to the CAS path.
pub struct DepthProbe {
    inner: Arc<Inner>,
}

impl DepthProbe {
    /// Current queue length (approximate; the queue is concurrently
    /// mutated).
    pub fn len(&self) -> usize {
        self.inner.len()
    }

    /// True if the queue is currently empty (approximate).
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// The mailbox capacity.
    pub fn capacity(&self) -> usize {
        self.inner.capacity
    }

    /// Cumulative nanoseconds producers spent blocked on backpressure
    /// pushing into this mailbox — congestion charged to the *receiving*
    /// actor's inbox, the quantity the bottleneck attribution engine joins
    /// with utilization.
    pub fn stalled_ns(&self) -> u64 {
        self.inner.stall_ns.load(Ordering::Relaxed)
    }
}

impl Sender {
    /// Creates a passive depth probe on this mailbox.
    pub fn depth_probe(&self) -> DepthProbe {
        DepthProbe {
            inner: Arc::clone(&self.inner),
        }
    }
}

impl Receiver {
    /// Installs a wake callback invoked whenever a parked consumer would be
    /// woken: after data is pushed and when the last sender drops.
    ///
    /// The worker pool uses this to mark the owning actor task ready
    /// instead of keeping a thread parked in [`Receiver::recv_drain`]; the
    /// hook must be cheap and must not touch the mailbox. Only the first call
    /// installs a hook; later calls are ignored.
    pub fn set_wake_hook(&self, hook: Arc<dyn Fn() + Send + Sync>) {
        let _ = self.inner.wake_hook.set(hook);
    }

    /// Blocks until an envelope is available or every sender is gone, then
    /// drains up to `max` envelopes into `buf`.
    ///
    /// Returns [`RecvBatch::Received`] with the number of envelopes
    /// appended (always ≥ 1), or [`RecvBatch::Disconnected`] once every
    /// sender is gone and the queue is drained.
    ///
    /// # Panics
    ///
    /// Panics if `max` is zero.
    pub fn recv_drain(&self, buf: &mut Vec<Envelope>, max: usize) -> RecvBatch {
        assert!(max > 0, "recv_drain max must be positive");
        let mut backoff = Backoff::new();
        loop {
            let n = self.inner.pop_burst(buf, max);
            if n > 0 {
                self.inner.wake_producers();
                return RecvBatch::Received(n);
            }
            // Acquire pairs with the Release decrement in `Drop for
            // Sender`: reading zero makes every final push visible, so the
            // drain below cannot miss data.
            if self.inner.senders.load(Ordering::Acquire) == 0 {
                let n = self.inner.pop_burst(buf, max);
                if n > 0 {
                    self.inner.wake_producers();
                    return RecvBatch::Received(n);
                }
                return RecvBatch::Disconnected;
            }
            if !backoff.try_wait() {
                self.inner.park_consumer(MAX_PARK);
            }
        }
    }

    /// Non-blocking drain of up to `max` envelopes into `buf`. The pool
    /// executor's run-until-blocked loop is built on this.
    ///
    /// # Panics
    ///
    /// Panics if `max` is zero.
    pub fn try_drain(&self, buf: &mut Vec<Envelope>, max: usize) -> TryRecvBatch {
        assert!(max > 0, "try_drain max must be positive");
        let n = self.inner.pop_burst(buf, max);
        if n > 0 {
            self.inner.wake_producers();
            return TryRecvBatch::Received(n);
        }
        // Acquire pairs with the Release decrement in `Drop for Sender`
        // (see `recv_drain`).
        if self.inner.senders.load(Ordering::Acquire) == 0 {
            let n = self.inner.pop_burst(buf, max);
            if n > 0 {
                self.inner.wake_producers();
                return TryRecvBatch::Received(n);
            }
            return TryRecvBatch::Disconnected;
        }
        TryRecvBatch::Empty
    }

    /// Non-blocking receive; `None` if the mailbox is momentarily empty.
    pub fn try_recv(&self) -> Option<Envelope> {
        let env = self.inner.try_pop();
        if env.is_some() {
            self.inner.wake_producers();
        }
        env
    }

    /// Current queue length (approximate).
    pub fn len(&self) -> usize {
        self.inner.len()
    }

    /// True if the queue is currently empty (approximate).
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

/// A slab of recycled coalescing buffers shared by every actor in a run.
///
/// Each actor's delivery context keeps one `Vec<Envelope>` per *reachable*
/// destination; buffers are checked out of this pool at startup (already
/// sized to the batch limit) and returned when the actor finishes, so the
/// steady-state send path never grows a buffer: a flush hands the full
/// vector to the mailbox and gets the same allocation back, and capacity a
/// finished actor released is reused instead of allocated fresh.
///
/// The mutex is far off the hot path — it is taken once per buffer at actor
/// startup and shutdown, never per tuple or per flush.
pub struct BatchPool {
    free: Mutex<Vec<Vec<Envelope>>>,
    capacity: usize,
}

impl BatchPool {
    /// Creates a pool handing out buffers pre-sized to `capacity` envelopes
    /// (the engine's effective batch size; zero is bumped to one).
    pub fn new(capacity: usize) -> Self {
        BatchPool {
            free: Mutex::new(Vec::new()),
            capacity: capacity.max(1),
        }
    }

    /// The per-buffer capacity every checked-out buffer is pre-sized to.
    pub fn buffer_capacity(&self) -> usize {
        self.capacity
    }

    /// Number of buffers currently resident in the freelist.
    pub fn available(&self) -> usize {
        self.free
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
            .len()
    }

    /// Checks a buffer out: a recycled one if the freelist has any, else a
    /// fresh allocation at full capacity.
    pub fn take(&self) -> Vec<Envelope> {
        self.free
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
            .pop()
            .unwrap_or_else(|| Vec::with_capacity(self.capacity))
    }

    /// Returns `buf` to the freelist for the next [`take`](Self::take).
    /// Undersized buffers (never grown to the batch limit, or checked out
    /// of a differently-sized pool) are dropped rather than recycled so the
    /// pool's pre-sizing guarantee holds.
    pub fn give(&self, mut buf: Vec<Envelope>) {
        if buf.capacity() < self.capacity {
            return;
        }
        buf.clear();
        self.free
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
            .push(buf);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::thread;

    fn item(seq: u64) -> Envelope {
        Envelope::Data(Tuple::splat(0, seq, 1.0))
    }

    const LONG: Duration = Duration::from_secs(5);

    /// Blocking single-envelope receive: `None` once disconnected.
    fn recv(rx: &Receiver) -> Option<Envelope> {
        let mut buf = Vec::with_capacity(1);
        match rx.recv_drain(&mut buf, 1) {
            RecvBatch::Received(_) => buf.pop(),
            RecvBatch::Disconnected => None,
        }
    }

    #[test]
    fn batch_pool_recycles_buffers() {
        let pool = BatchPool::new(8);
        let mut a = pool.take();
        assert_eq!(a.capacity(), 8);
        a.push(item(1));
        let ptr = a.as_ptr();
        pool.give(a);
        assert_eq!(pool.available(), 1);
        let b = pool.take();
        assert!(b.is_empty());
        assert_eq!(b.as_ptr(), ptr, "give/take round-trips the same allocation");
        assert_eq!(pool.available(), 0);
        // Undersized buffers are dropped, not recycled: the pre-sizing
        // guarantee of `take` must hold for every resident buffer.
        pool.give(Vec::new());
        assert_eq!(pool.available(), 0);
    }

    #[test]
    fn send_recv_fifo_order() {
        let (tx, rx) = channel(8);
        for i in 0..5 {
            assert_eq!(tx.send(item(i), LONG), SendOutcome::Sent);
        }
        for i in 0..5 {
            match recv(&rx) {
                Some(Envelope::Data(t)) => assert_eq!(t.seq, i),
                other => panic!("unexpected {other:?}"),
            }
        }
    }

    #[test]
    fn full_mailbox_blocks_sender_until_slot_frees() {
        let (tx, rx) = channel(2);
        assert_eq!(tx.send(item(0), LONG), SendOutcome::Sent);
        assert_eq!(tx.send(item(1), LONG), SendOutcome::Sent);
        let handle = thread::spawn(move || tx.send(item(2), LONG));
        thread::sleep(Duration::from_millis(50));
        // The third send is still blocked; unblock it.
        assert!(recv(&rx).is_some());
        let outcome = handle.join().unwrap();
        match outcome {
            SendOutcome::SentAfterBlocking(d) => {
                assert!(d >= Duration::from_millis(30), "blocked {d:?}")
            }
            other => panic!("expected blocking send, got {other:?}"),
        }
    }

    #[test]
    fn send_times_out_and_drops_item() {
        let (tx, _rx) = channel(1);
        assert_eq!(tx.send(item(0), LONG), SendOutcome::Sent);
        let outcome = tx.send(item(1), Duration::from_millis(50));
        assert_eq!(outcome, SendOutcome::TimedOut);
        assert!(!outcome.delivered());
        // The queue still holds only the first item.
        assert_eq!(tx.len(), 1);
    }

    #[test]
    fn dropping_all_senders_disconnects_receiver() {
        let (tx, rx) = channel(4);
        let tx2 = tx.clone();
        tx.send(item(0), LONG);
        drop(tx);
        drop(tx2);
        // Buffered item still delivered, then disconnect.
        assert!(recv(&rx).is_some());
        assert_eq!(recv(&rx), None);
    }

    #[test]
    fn dropping_receiver_unblocks_sender() {
        let (tx, rx) = channel(1);
        tx.send(item(0), LONG);
        let handle = thread::spawn(move || tx.send(item(1), LONG));
        thread::sleep(Duration::from_millis(30));
        drop(rx);
        assert_eq!(handle.join().unwrap(), SendOutcome::Disconnected);
    }

    #[test]
    fn multiple_producers_all_items_arrive() {
        let (tx, rx) = channel(4);
        let mut handles = Vec::new();
        for p in 0..4u64 {
            let txp = tx.clone();
            handles.push(thread::spawn(move || {
                for i in 0..100u64 {
                    assert!(txp.send(item(p * 1000 + i), LONG).delivered());
                }
            }));
        }
        drop(tx);
        let mut got = 0;
        while recv(&rx).is_some() {
            got += 1;
        }
        for h in handles {
            h.join().unwrap();
        }
        assert_eq!(got, 400);
    }

    #[test]
    fn eos_envelopes_pass_through() {
        let (tx, rx) = channel(2);
        tx.send(Envelope::Eos, LONG);
        assert_eq!(recv(&rx), Some(Envelope::Eos));
    }

    #[test]
    fn epoch_markers_keep_fifo_position() {
        // A marker between two data envelopes must arrive between them —
        // barrier alignment depends on this FIFO guarantee.
        let (tx, rx) = channel(8);
        tx.send(item(0), LONG);
        tx.send(Envelope::Epoch(1), LONG);
        tx.send(item(1), LONG);
        let mut buf = Vec::new();
        assert_eq!(rx.recv_drain(&mut buf, 8), RecvBatch::Received(3));
        assert_eq!(buf[0], item(0));
        assert_eq!(buf[1], Envelope::Epoch(1));
        assert_eq!(buf[2], item(1));
    }

    #[test]
    fn try_recv_is_nonblocking() {
        let (tx, rx) = channel(2);
        assert_eq!(rx.try_recv(), None);
        tx.send(item(3), LONG);
        assert!(matches!(rx.try_recv(), Some(Envelope::Data(_))));
        assert_eq!(rx.try_recv(), None);
    }

    #[test]
    #[should_panic(expected = "capacity must be positive")]
    fn zero_capacity_rejected() {
        let _ = channel(0);
    }

    #[test]
    fn depth_probe_observes_without_producing() {
        let (tx, rx) = channel(4);
        let probe = tx.depth_probe();
        assert!(probe.is_empty());
        assert_eq!(probe.capacity(), 4);
        tx.send(item(0), LONG);
        tx.send(item(1), LONG);
        assert_eq!(probe.len(), 2);
        // Dropping the only sender must still disconnect the receiver even
        // though the probe outlives it.
        drop(tx);
        assert!(recv(&rx).is_some());
        assert!(recv(&rx).is_some());
        assert_eq!(recv(&rx), None);
        assert_eq!(probe.len(), 0);
    }

    #[test]
    fn stall_accounting_is_probe_visible() {
        let (tx, _rx) = channel(2);
        let probe = tx.depth_probe();
        assert_eq!(probe.stalled_ns(), 0);
        tx.add_stall_ns(1_500);
        tx.add_stall_ns(500);
        assert_eq!(probe.stalled_ns(), 2_000);
        // A cloned sender charges the same mailbox.
        tx.clone().add_stall_ns(1);
        assert_eq!(probe.stalled_ns(), 2_001);
    }

    #[test]
    fn capacity_and_len_reporting() {
        let (tx, rx) = channel(3);
        assert_eq!(tx.capacity(), 3);
        assert!(tx.is_empty() && rx.is_empty());
        tx.send(item(0), LONG);
        assert_eq!(tx.len(), 1);
        assert_eq!(rx.len(), 1);
        assert!(!rx.is_empty());
    }

    #[test]
    fn send_batch_delivers_whole_batch_in_order() {
        let (tx, rx) = channel(16);
        let mut batch: Vec<Envelope> = (0..10).map(item).collect();
        let outcome = tx.send_batch(&mut batch, LONG);
        assert!(outcome.complete());
        assert_eq!(outcome.delivered, 10);
        assert_eq!(outcome.blocked, Duration::ZERO);
        assert!(batch.is_empty(), "delivered prefix must be drained");
        for i in 0..10 {
            match recv(&rx) {
                Some(Envelope::Data(t)) => assert_eq!(t.seq, i),
                other => panic!("unexpected {other:?}"),
            }
        }
    }

    #[test]
    fn send_batch_larger_than_capacity_blocks_and_completes() {
        // The batch (20) far exceeds capacity (4): delivery must make
        // progress by waking the consumer mid-batch, not deadlock.
        let (tx, rx) = channel(4);
        let consumer = thread::spawn(move || {
            let mut got = Vec::new();
            let mut buf = Vec::new();
            loop {
                match rx.recv_drain(&mut buf, 8) {
                    RecvBatch::Received(_) => {
                        for env in buf.drain(..) {
                            if let Envelope::Data(t) = env {
                                got.push(t.seq);
                            }
                        }
                        // Slow consumer: force the sender onto the
                        // backpressure path repeatedly.
                        thread::sleep(Duration::from_millis(5));
                    }
                    RecvBatch::Disconnected => return got,
                }
            }
        });
        let mut batch: Vec<Envelope> = (0..20).map(item).collect();
        let outcome = tx.send_batch(&mut batch, LONG);
        assert!(outcome.complete());
        assert_eq!(outcome.delivered, 20);
        assert!(outcome.blocked > Duration::ZERO);
        assert!(batch.is_empty());
        drop(tx);
        let got = consumer.join().unwrap();
        assert_eq!(got, (0..20).collect::<Vec<_>>());
    }

    #[test]
    fn send_batch_partial_delivery_on_timeout_keeps_suffix() {
        let (tx, _rx) = channel(3);
        let mut batch: Vec<Envelope> = (0..8).map(item).collect();
        let outcome = tx.send_batch(&mut batch, Duration::from_millis(50));
        assert_eq!(outcome.delivered, 3);
        assert_eq!(outcome.failure, Some(BatchFailure::TimedOut));
        assert!(!outcome.complete());
        // The undelivered suffix stays in the caller's buffer, in order.
        assert_eq!(batch.len(), 5);
        match batch[0] {
            Envelope::Data(t) => assert_eq!(t.seq, 3),
            Envelope::Epoch(_) | Envelope::Eos | Envelope::Handoff(_) => panic!("expected data"),
        }
    }

    #[test]
    fn send_batch_to_dropped_receiver_reports_disconnected() {
        let (tx, rx) = channel(2);
        assert_eq!(tx.send(item(0), LONG), SendOutcome::Sent);
        assert_eq!(tx.send(item(1), LONG), SendOutcome::Sent);
        drop(rx);
        let mut batch: Vec<Envelope> = (2..6).map(item).collect();
        let outcome = tx.send_batch(&mut batch, LONG);
        assert_eq!(outcome.delivered, 0);
        assert_eq!(outcome.failure, Some(BatchFailure::Disconnected));
        assert_eq!(batch.len(), 4);
    }

    #[test]
    fn send_batch_empty_is_a_noop() {
        let (tx, rx) = channel(2);
        let mut batch = Vec::new();
        let outcome = tx.send_batch(&mut batch, LONG);
        assert!(outcome.complete());
        assert_eq!(outcome.delivered, 0);
        assert!(rx.is_empty());
    }

    #[test]
    fn recv_drain_caps_at_max_and_drains_in_order() {
        let (tx, rx) = channel(16);
        for i in 0..10 {
            assert_eq!(tx.send(item(i), LONG), SendOutcome::Sent);
        }
        let mut buf = Vec::new();
        assert_eq!(rx.recv_drain(&mut buf, 4), RecvBatch::Received(4));
        assert_eq!(rx.recv_drain(&mut buf, 64), RecvBatch::Received(6));
        let seqs: Vec<u64> = buf
            .iter()
            .map(|e| match e {
                Envelope::Data(t) => t.seq,
                Envelope::Epoch(_) | Envelope::Eos | Envelope::Handoff(_) => {
                    panic!("expected data")
                }
            })
            .collect();
        assert_eq!(seqs, (0..10).collect::<Vec<_>>());
    }

    #[test]
    fn recv_drain_blocks_until_item_arrives() {
        let (tx, rx) = channel(4);
        let handle = thread::spawn(move || {
            let mut buf = Vec::new();
            let res = rx.recv_drain(&mut buf, 8);
            (res, buf)
        });
        thread::sleep(Duration::from_millis(50));
        assert_eq!(tx.send(item(7), LONG), SendOutcome::Sent);
        let (res, buf) = handle.join().unwrap();
        assert_eq!(res, RecvBatch::Received(1));
        assert_eq!(buf, vec![item(7)]);
    }

    #[test]
    fn recv_drain_disconnects_after_draining() {
        let (tx, rx) = channel(8);
        tx.send(item(0), LONG);
        tx.send(Envelope::Eos, LONG);
        drop(tx);
        let mut buf = Vec::new();
        assert_eq!(rx.recv_drain(&mut buf, 64), RecvBatch::Received(2));
        assert_eq!(rx.recv_drain(&mut buf, 64), RecvBatch::Disconnected);
    }

    #[test]
    fn eos_after_partial_batch_stays_ordered() {
        // A producer whose data batch only partially fits must still get
        // its EOS delivered *after* the remainder of the batch: the
        // undelivered suffix stays in the caller's buffer and is re-sent
        // before EOS, and FIFO order guarantees no reordering.
        let (tx, rx) = channel(2);
        let mut batch: Vec<Envelope> = (0..5).map(item).collect();
        let outcome = tx.send_batch(&mut batch, Duration::from_millis(40));
        assert_eq!(outcome.delivered, 2);
        assert_eq!(batch.len(), 3);
        // Consumer frees space; producer finishes the suffix then EOS.
        let producer = thread::spawn(move || {
            let out = tx.send_batch(&mut batch, LONG);
            assert!(out.complete());
            assert_eq!(tx.send(Envelope::Eos, LONG), SendOutcome::Sent);
        });
        let mut seen = Vec::new();
        let mut buf = Vec::new();
        while let RecvBatch::Received(_) = rx.recv_drain(&mut buf, 4) {
            seen.append(&mut buf);
            if seen.last() == Some(&Envelope::Eos) {
                break;
            }
            thread::sleep(Duration::from_millis(2));
        }
        producer.join().unwrap();
        let mut expect: Vec<Envelope> = (0..5).map(item).collect();
        expect.push(Envelope::Eos);
        assert_eq!(seen, expect);
    }

    #[test]
    fn multi_producer_batch_backpressure_stress() {
        // Several producers push large batches through a tiny mailbox
        // concurrently; every envelope must arrive exactly once and each
        // producer's own sequence must stay in order (FIFO per producer).
        const PRODUCERS: u64 = 4;
        const PER_PRODUCER: u64 = 500;
        let (tx, rx) = channel(8);
        let mut handles = Vec::new();
        for p in 0..PRODUCERS {
            let tx = tx.clone();
            handles.push(thread::spawn(move || {
                let mut sent = 0;
                while sent < PER_PRODUCER {
                    let end = (sent + 32).min(PER_PRODUCER);
                    let mut batch: Vec<Envelope> = (sent..end)
                        .map(|i| Envelope::Data(Tuple::splat(p, i, 1.0)))
                        .collect();
                    let outcome = tx.send_batch(&mut batch, LONG);
                    assert!(outcome.complete(), "stress send failed: {outcome:?}");
                    sent = end;
                }
            }));
        }
        drop(tx);
        let mut per_key: Vec<Vec<u64>> = vec![Vec::new(); PRODUCERS as usize];
        let mut buf = Vec::new();
        while let RecvBatch::Received(_) = rx.recv_drain(&mut buf, 16) {
            for env in buf.drain(..) {
                if let Envelope::Data(t) = env {
                    per_key[t.key as usize].push(t.seq);
                }
            }
        }
        for handle in handles {
            handle.join().unwrap();
        }
        for seqs in &per_key {
            assert_eq!(seqs, &(0..PER_PRODUCER).collect::<Vec<_>>());
        }
    }

    #[test]
    fn send_batch_of_one_matches_send_semantics() {
        let (tx, rx) = channel(1);
        let mut batch = vec![item(0)];
        let outcome = tx.send_batch(&mut batch, LONG);
        assert!(outcome.complete());
        assert_eq!(outcome.delivered, 1);
        // Queue full: a 1-batch times out exactly like a single send.
        let mut batch = vec![item(1)];
        let outcome = tx.send_batch(&mut batch, Duration::from_millis(40));
        assert_eq!(outcome.failure, Some(BatchFailure::TimedOut));
        assert_eq!(outcome.delivered, 0);
        assert_eq!(batch.len(), 1);
        assert!(recv(&rx).is_some());
    }

    #[test]
    fn spsc_channel_preserves_fifo_under_backpressure() {
        // Single producer over the plain-store tail path, tiny capacity so
        // the ring wraps laps constantly.
        let (tx, rx) = channel_spsc(3);
        let producer = thread::spawn(move || {
            for i in 0..2_000u64 {
                assert!(tx.send(item(i), LONG).delivered());
            }
        });
        let mut next = 0u64;
        let mut buf = Vec::new();
        while let RecvBatch::Received(_) = rx.recv_drain(&mut buf, 8) {
            for env in buf.drain(..) {
                match env {
                    Envelope::Data(t) => {
                        assert_eq!(t.seq, next);
                        next += 1;
                    }
                    Envelope::Epoch(_) | Envelope::Eos | Envelope::Handoff(_) => {
                        panic!("expected data")
                    }
                }
            }
        }
        producer.join().unwrap();
        assert_eq!(next, 2_000);
    }

    #[test]
    fn spsc_clone_upgrades_to_multi_producer() {
        // Cloning an SPSC sender must make concurrent producers safe: all
        // items arrive exactly once, FIFO per producer.
        let (tx, rx) = channel_spsc(4);
        let tx2 = tx.clone();
        let mk = |p: u64, tx: Sender| {
            thread::spawn(move || {
                for i in 0..500u64 {
                    assert!(tx
                        .send(Envelope::Data(Tuple::splat(p, i, 1.0)), LONG)
                        .delivered());
                }
            })
        };
        let h1 = mk(0, tx);
        let h2 = mk(1, tx2);
        let mut per_key: Vec<Vec<u64>> = vec![Vec::new(); 2];
        loop {
            match recv(&rx) {
                Some(Envelope::Data(t)) => per_key[t.key as usize].push(t.seq),
                Some(_) => panic!("expected data"),
                None => break,
            }
        }
        h1.join().unwrap();
        h2.join().unwrap();
        for seqs in &per_key {
            assert_eq!(seqs, &(0..500).collect::<Vec<_>>());
        }
    }

    #[test]
    #[should_panic(expected = "capacity must be positive")]
    fn spsc_zero_capacity_rejected() {
        let _ = channel_spsc(0);
    }

    #[test]
    fn try_send_reports_full_then_disconnected() {
        let (tx, rx) = channel(1);
        assert_eq!(tx.try_send(item(0)), TrySend::Sent);
        assert_eq!(tx.try_send(item(1)), TrySend::Full);
        assert_eq!(tx.len(), 1);
        drop(rx);
        assert_eq!(tx.try_send(item(2)), TrySend::Disconnected);
    }

    #[test]
    fn try_send_batch_delivers_prefix_without_blocking() {
        let (tx, rx) = channel(3);
        let mut batch: Vec<Envelope> = (0..5).map(item).collect();
        let out = tx.try_send_batch(&mut batch);
        assert_eq!(out.delivered, 3);
        assert!(!out.disconnected);
        // The suffix stays in the caller's buffer, in order.
        assert_eq!(batch.len(), 2);
        match batch[0] {
            Envelope::Data(t) => assert_eq!(t.seq, 3),
            Envelope::Epoch(_) | Envelope::Eos | Envelope::Handoff(_) => panic!("expected data"),
        }
        drop(rx);
        let out = tx.try_send_batch(&mut batch);
        assert_eq!(out.delivered, 0);
        assert!(out.disconnected);
    }

    #[test]
    fn try_drain_reports_empty_then_data_then_disconnected() {
        let (tx, rx) = channel(8);
        let mut buf = Vec::new();
        assert_eq!(rx.try_drain(&mut buf, 4), TryRecvBatch::Empty);
        for i in 0..6 {
            tx.send(item(i), LONG);
        }
        assert_eq!(rx.try_drain(&mut buf, 4), TryRecvBatch::Received(4));
        assert_eq!(rx.try_drain(&mut buf, 4), TryRecvBatch::Received(2));
        assert_eq!(buf.len(), 6);
        drop(tx);
        assert_eq!(rx.try_drain(&mut buf, 4), TryRecvBatch::Disconnected);
    }

    #[test]
    fn wake_hook_fires_on_push_and_final_sender_drop() {
        let (tx, rx) = channel(4);
        let fired = Arc::new(AtomicUsize::new(0));
        let hook_count = Arc::clone(&fired);
        rx.set_wake_hook(Arc::new(move || {
            hook_count.fetch_add(1, Ordering::SeqCst);
        }));
        tx.send(item(0), LONG);
        assert!(fired.load(Ordering::SeqCst) >= 1);
        let before_drop = fired.load(Ordering::SeqCst);
        drop(tx);
        // Last-sender drop must also fire the hook so a pooled consumer
        // gets scheduled to observe the disconnect.
        assert!(fired.load(Ordering::SeqCst) > before_drop);
        assert!(recv(&rx).is_some());
        assert_eq!(recv(&rx), None);
    }

    #[test]
    fn try_send_unblocks_blocked_batch_consumer() {
        // A producer parked mid-send_batch must be woken by a consumer
        // using only non-blocking drains (the pool executor's drain path).
        let (tx, rx) = channel(2);
        let producer = thread::spawn(move || {
            let mut batch: Vec<Envelope> = (0..10).map(item).collect();
            tx.send_batch(&mut batch, LONG)
        });
        thread::sleep(Duration::from_millis(20));
        let mut got = 0;
        let mut buf = Vec::new();
        while got < 10 {
            match rx.try_drain(&mut buf, 4) {
                TryRecvBatch::Received(n) => {
                    got += n;
                    buf.clear();
                }
                TryRecvBatch::Empty => thread::yield_now(),
                TryRecvBatch::Disconnected => break,
            }
        }
        let outcome = producer.join().unwrap();
        assert!(outcome.complete());
        assert_eq!(outcome.delivered, 10);
        assert_eq!(got, 10);
    }

    #[test]
    fn capacity_one_wraps_many_laps() {
        // Exercises lap arithmetic at the smallest ring size.
        let (tx, rx) = channel(1);
        for i in 0..100 {
            assert_eq!(tx.send(item(i), LONG), SendOutcome::Sent);
            match recv(&rx) {
                Some(Envelope::Data(t)) => assert_eq!(t.seq, i),
                other => panic!("unexpected {other:?}"),
            }
        }
    }
}
