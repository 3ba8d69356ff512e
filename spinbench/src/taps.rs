//! Benchmark-owned operator wrappers. They are wrapped around a generated
//! graph's ingress and sink operators with `ActorGraph::map_workers`, call
//! the program's own operator unchanged, and record what the benchmark
//! needs from outside the engine: arrival times, order and outputs.

use spinstreams_core::Tuple;
use spinstreams_runtime::{Outputs, StreamOperator};
use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::Instant;

/// One tuple in `SAMPLE_EVERY` (by source sequence number) is timed in
/// closed-loop runs: one per aligned block of that many sequence numbers,
/// at a pseudo-random offset so the sample does not always fall at the
/// same position of a 64-tuple envelope batch.
pub const SAMPLE_EVERY: u64 = 64;

/// The clock shared by every tap of one run, plus the ingress time of each
/// sampled sequence number.
pub struct RunClock {
    base: Instant,
    ingress_ns: Vec<AtomicU64>,
}

impl RunClock {
    /// A clock for a run of at most `items` source tuples.
    pub fn new(items: u64) -> Arc<Self> {
        Arc::new(RunClock {
            base: Instant::now(),
            ingress_ns: (0..=items / SAMPLE_EVERY)
                .map(|_| AtomicU64::new(0))
                .collect(),
        })
    }

    /// Nanoseconds since the clock was created (at least 1).
    pub fn now_ns(&self) -> u64 {
        (self.base.elapsed().as_nanos() as u64).max(1)
    }

    fn sampled(seq: u64) -> Option<usize> {
        let block = seq / SAMPLE_EVERY;
        let offset = (block.wrapping_mul(0x9E37_79B9_7F4A_7C15) >> 32) % SAMPLE_EVERY;
        (seq % SAMPLE_EVERY == offset).then_some(block as usize)
    }
}

/// Records when each sampled tuple reached the first actor behind the
/// source. In a closed loop the source's own mailbox is where the client
/// waits, so latency is timed from here.
pub struct IngressTap {
    inner: Box<dyn StreamOperator>,
    clock: Arc<RunClock>,
}

impl IngressTap {
    /// Wraps `inner`.
    pub fn new(inner: Box<dyn StreamOperator>, clock: Arc<RunClock>) -> Self {
        IngressTap { inner, clock }
    }
}

impl StreamOperator for IngressTap {
    fn process(&mut self, item: Tuple, out: &mut Outputs) {
        if let Some(slot) = RunClock::sampled(item.seq) {
            if let Some(cell) = self.clock.ingress_ns.get(slot) {
                // First sighting wins: a tuple routed to several ingress
                // actors is timed from the earliest.
                let _ = cell.compare_exchange(
                    0,
                    self.clock.now_ns(),
                    Ordering::Relaxed,
                    Ordering::Relaxed,
                );
            }
        }
        self.inner.process(item, out);
    }

    fn flush(&mut self, out: &mut Outputs) {
        self.inner.flush(out);
    }

    fn name(&self) -> &str {
        self.inner.name()
    }
}

/// Order-sensitive digest of one key's outputs: how many, and an FNV-1a
/// hash over each output's sequence number and attribute bits in order.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct KeyDigest {
    /// Outputs seen.
    pub count: u64,
    /// Running hash.
    pub hash: u64,
}

impl Default for KeyDigest {
    fn default() -> Self {
        KeyDigest {
            count: 0,
            hash: 0xcbf2_9ce4_8422_2325,
        }
    }
}

impl KeyDigest {
    /// Folds one output in.
    pub fn push(&mut self, t: &Tuple) {
        self.count += 1;
        let words = std::iter::once(t.seq).chain(t.values.iter().map(|v| v.to_bits()));
        for w in words {
            for b in w.to_le_bytes() {
                self.hash = (self.hash ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3);
            }
        }
    }
}

/// Per-key digests of a stream of outputs.
pub type Digests = HashMap<u64, KeyDigest>;

/// What one sink saw during a run.
#[derive(Debug, Default)]
pub struct SinkRecord {
    /// Tuples that reached the sink.
    pub count: u64,
    /// Largest sequence number seen.
    pub max_seq: u64,
    /// Sampled closed-loop latencies, ingress to sink, in nanoseconds.
    pub latencies_ns: Vec<u64>,
    /// Tuples that arrived after a later tuple of their order class.
    pub order_violations: u64,
    /// Every arrival as `(seq, ns on the run clock)`, when the sink logs.
    pub arrivals: Vec<(u64, u64)>,
    /// Per-key digests of the outputs, when the sink logs.
    pub digests: Digests,
}

/// What a sink tap records.
#[derive(Debug, Clone, Copy)]
pub enum SinkMode {
    /// Sampled ingress-to-sink latency. With `order_classes = Some(n)`,
    /// also checks that sequence numbers rise within each class
    /// `seq % n` (one class per round-robin replica path).
    Closed {
        /// Number of round-robin paths whose order is checked.
        order_classes: Option<u64>,
    },
    /// Logs every arrival's time and folds its tuple into a per-key digest
    /// (open-loop runs), with room for `capacity` arrivals reserved up
    /// front so the log never reallocates on the sink's path.
    Log {
        /// Arrivals to reserve room for.
        capacity: usize,
    },
}

/// Wraps a sink operator and records its arrivals into a shared list,
/// handed over when the engine drops the operator at the end of the run.
pub struct SinkTap {
    inner: Box<dyn StreamOperator>,
    clock: Arc<RunClock>,
    mode: SinkMode,
    last_in_class: Vec<u64>,
    rec: SinkRecord,
    done: Arc<Mutex<Vec<SinkRecord>>>,
}

impl SinkTap {
    /// Wraps `inner`; the record lands in `done` when the tap is dropped.
    pub fn new(
        inner: Box<dyn StreamOperator>,
        clock: Arc<RunClock>,
        mode: SinkMode,
        done: Arc<Mutex<Vec<SinkRecord>>>,
    ) -> Self {
        let classes = match mode {
            SinkMode::Closed {
                order_classes: Some(n),
            } => n as usize,
            _ => 0,
        };
        let mut rec = SinkRecord::default();
        // Room reserved and its pages touched up front, so the sink's path
        // neither reallocates nor page-faults on the logs.
        match mode {
            SinkMode::Log { capacity } => {
                rec.arrivals.resize(capacity, (0, 0));
                rec.arrivals.clear();
            }
            SinkMode::Closed { .. } => {
                rec.latencies_ns.resize(clock.ingress_ns.len(), 0);
                rec.latencies_ns.clear();
            }
        }
        SinkTap {
            inner,
            clock,
            mode,
            last_in_class: vec![u64::MAX; classes],
            rec,
            done,
        }
    }
}

impl StreamOperator for SinkTap {
    fn process(&mut self, item: Tuple, out: &mut Outputs) {
        self.rec.count += 1;
        self.rec.max_seq = self.rec.max_seq.max(item.seq);
        match self.mode {
            SinkMode::Closed { order_classes } => {
                if let Some(n) = order_classes {
                    let last = &mut self.last_in_class[(item.seq % n) as usize];
                    if *last != u64::MAX && item.seq <= *last {
                        self.rec.order_violations += 1;
                    }
                    *last = item.seq;
                }
                if let Some(slot) = RunClock::sampled(item.seq) {
                    let t0 = self
                        .clock
                        .ingress_ns
                        .get(slot)
                        .map_or(0, |c| c.load(Ordering::Relaxed));
                    if t0 != 0 {
                        let now = self.clock.now_ns();
                        self.rec.latencies_ns.push(now.saturating_sub(t0));
                    }
                }
            }
            SinkMode::Log { .. } => {
                self.rec.arrivals.push((item.seq, self.clock.now_ns()));
                self.rec.digests.entry(item.key).or_default().push(&item);
            }
        }
        self.inner.process(item, out);
    }

    fn flush(&mut self, out: &mut Outputs) {
        self.inner.flush(out);
    }

    fn name(&self) -> &str {
        self.inner.name()
    }
}

impl Drop for SinkTap {
    fn drop(&mut self) {
        let rec = std::mem::take(&mut self.rec);
        self.done
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner)
            .push(rec);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn one_sampled_sequence_number_per_block() {
        for block in 0..1000u64 {
            let hits: Vec<u64> = (block * SAMPLE_EVERY..(block + 1) * SAMPLE_EVERY)
                .filter(|&seq| RunClock::sampled(seq).is_some())
                .collect();
            assert_eq!(hits.len(), 1, "block {block}");
            assert_eq!(RunClock::sampled(hits[0]), Some(block as usize));
        }
    }

    #[test]
    fn key_digest_sees_values_and_order() {
        let a = Tuple::new(1, 10, [1.0, 2.0, 3.0, 4.0]);
        let b = Tuple::new(1, 11, [5.0, 6.0, 7.0, 8.0]);
        let digest = |ts: &[Tuple]| {
            let mut d = KeyDigest::default();
            ts.iter().for_each(|t| d.push(t));
            d
        };
        assert_eq!(digest(&[a, b]), digest(&[a, b]));
        assert_ne!(digest(&[a, b]), digest(&[b, a]));
        assert_ne!(digest(&[a, b]), digest(&[a, b.with_value(3, 8.5)]));
        assert_eq!(digest(&[a, b]).count, 2);
    }
}
