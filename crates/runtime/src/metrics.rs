//! Per-actor runtime metrics and the run report.
//!
//! Every actor counts arrivals, departures, drops, busy time,
//! backpressure-blocked time and helping time, and timestamps its first
//! and last departure. The three times never overlap: time a blocked
//! producer spends running other actors is its `helping` time and the
//! helped actors' `busy` time, never its own `blocked` time.
//! From those the engine derives the *measured* steady-state departure
//! rates compared against the cost model in §5.2.

use crate::supervision::DeadLetterLog;
use crate::ActorId;
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::{Duration, Instant};

/// Shared mutable metric cells for one actor (written by the actor thread).
#[derive(Debug, Default)]
pub(crate) struct ActorMetrics {
    pub items_in: AtomicU64,
    pub items_out: AtomicU64,
    pub dropped: AtomicU64,
    pub busy_ns: AtomicU64,
    pub blocked_ns: AtomicU64,
    pub helping_ns: AtomicU64,
    /// Nanoseconds since engine start of the first/last departure
    /// (`u64::MAX` = never departed).
    pub first_out_ns: AtomicU64,
    pub last_out_ns: AtomicU64,
    /// Operator invocations that panicked (caught by the supervisor).
    pub panics: AtomicU64,
    /// Times the operator was re-instantiated after a panic.
    pub restarts: AtomicU64,
    /// Time spent sleeping in restart backoff.
    pub backoff_ns: AtomicU64,
    /// Dead letters attributed to this actor (as source).
    pub dead_letters: AtomicU64,
    /// Epoch snapshots successfully captured at barrier alignment.
    pub snapshots: AtomicU64,
    /// Total serialized bytes across all captured snapshots.
    pub snapshot_bytes: AtomicU64,
    /// Time spent buffering input behind in-progress barrier alignments.
    pub align_stall_ns: AtomicU64,
    /// Restarts recovered via snapshot-restore + replay (vs reset-empty).
    pub recoveries: AtomicU64,
    /// Tuples replayed through the operator during recoveries.
    pub replayed: AtomicU64,
    /// Times the bounded replay buffer overflowed (recovery degraded).
    pub replay_overflows: AtomicU64,
    /// Epoch of the snapshot last restored during recovery (0 = none).
    pub restored_epoch: AtomicU64,
}

impl ActorMetrics {
    pub(crate) fn new() -> Self {
        let m = ActorMetrics::default();
        m.first_out_ns.store(u64::MAX, Ordering::Relaxed);
        m
    }

    /// Records `n` departures sharing one timestamp — equivalent to `n`
    /// single-departure records with the same `now_ns`, but one counter
    /// RMW. Used by batched flushes and per-batch sink stamping, where
    /// every tuple in the batch carries the same clock reading anyway.
    pub(crate) fn record_out_n(&self, now_ns: u64, n: u64) {
        if n == 0 {
            return;
        }
        self.items_out.fetch_add(n, Ordering::Relaxed);
        // Only the owning actor thread writes, so a simple compare works.
        if self.first_out_ns.load(Ordering::Relaxed) == u64::MAX {
            self.first_out_ns.store(now_ns, Ordering::Relaxed);
        }
        self.last_out_ns.store(now_ns, Ordering::Relaxed);
    }

    pub(crate) fn snapshot(&self, name: &str, id: ActorId) -> ActorReport {
        ActorReport {
            id,
            name: name.to_string(),
            items_in: self.items_in.load(Ordering::Relaxed),
            items_out: self.items_out.load(Ordering::Relaxed),
            dropped: self.dropped.load(Ordering::Relaxed),
            busy: Duration::from_nanos(self.busy_ns.load(Ordering::Relaxed)),
            blocked: Duration::from_nanos(self.blocked_ns.load(Ordering::Relaxed)),
            helping: Duration::from_nanos(self.helping_ns.load(Ordering::Relaxed)),
            first_out_ns: self.first_out_ns.load(Ordering::Relaxed),
            last_out_ns: self.last_out_ns.load(Ordering::Relaxed),
            panics: self.panics.load(Ordering::Relaxed),
            restarts: self.restarts.load(Ordering::Relaxed),
            backoff: Duration::from_nanos(self.backoff_ns.load(Ordering::Relaxed)),
            dead_letters: self.dead_letters.load(Ordering::Relaxed),
            snapshots: self.snapshots.load(Ordering::Relaxed),
            snapshot_bytes: self.snapshot_bytes.load(Ordering::Relaxed),
            align_stall: Duration::from_nanos(self.align_stall_ns.load(Ordering::Relaxed)),
            recoveries: self.recoveries.load(Ordering::Relaxed),
            replayed: self.replayed.load(Ordering::Relaxed),
            replay_overflows: self.replay_overflows.load(Ordering::Relaxed),
            last_restored_epoch: {
                let e = self.restored_epoch.load(Ordering::Relaxed);
                (e != 0).then_some(e)
            },
        }
    }
}

/// Metrics snapshot of one actor after a run.
#[derive(Debug, Clone, PartialEq)]
pub struct ActorReport {
    /// The actor.
    pub id: ActorId,
    /// Diagnostic name from the actor graph.
    pub name: String,
    /// Items received.
    pub items_in: u64,
    /// Items emitted (delivered downstream, or consumed at a sink port).
    pub items_out: u64,
    /// Items dropped on send timeout.
    pub dropped: u64,
    /// Time spent processing input: operator invocations plus the
    /// engine's per-tuple routing/buffering overhead, measured once per
    /// drained batch and excluding backpressure blocking and restart
    /// backoff. (Per-invocation timing would put two `clock_gettime`
    /// calls on the per-tuple path — more than a cheap operator costs.)
    pub busy: Duration,
    /// Time spent blocked on full downstream mailboxes (backpressure),
    /// excluding time spent helping.
    pub blocked: Duration,
    /// Time spent running other (downstream) actors while a send to a
    /// full mailbox was pending, instead of parking. That time is the
    /// helped actors' `busy` time; it is counted here, not as `blocked`.
    pub helping: Duration,
    /// Nanoseconds (since run start) of the first departure
    /// (`u64::MAX` if none).
    ///
    /// A worker stamps its departures with the clock read at the start of
    /// the input batch that produced them (a send that blocked or helped
    /// reads the clock afresh), so a stamp is early by at most one input
    /// batch's processing time — the same bound sink latency accepts.
    /// Sources stamp each flush with a fresh reading.
    pub first_out_ns: u64,
    /// Nanoseconds (since run start) of the last departure, with the same
    /// one-input-batch skew bound as [`first_out_ns`](Self::first_out_ns).
    pub last_out_ns: u64,
    /// Operator invocations that panicked (caught by the supervisor).
    pub panics: u64,
    /// Times the operator was re-instantiated after a panic.
    pub restarts: u64,
    /// Time spent sleeping in restart backoff.
    pub backoff: Duration,
    /// Dead letters attributed to this actor (items it failed to deliver
    /// or consumed by panics / degraded-mode drops).
    pub dead_letters: u64,
    /// Epoch snapshots captured at barrier alignment (checkpointing on).
    pub snapshots: u64,
    /// Total serialized bytes across all captured snapshots.
    pub snapshot_bytes: u64,
    /// Time spent holding input behind in-progress barrier alignments.
    pub align_stall: Duration,
    /// Restarts recovered via snapshot-restore + replay instead of a
    /// reset to empty state.
    pub recoveries: u64,
    /// Tuples replayed through the operator during recoveries.
    pub replayed: u64,
    /// Times the bounded replay buffer overflowed, degrading a future
    /// recovery to plain reset.
    pub replay_overflows: u64,
    /// Epoch of the snapshot last restored during a recovery (`None` if
    /// the actor never recovered from a snapshot).
    pub last_restored_epoch: Option<u64>,
}

impl ActorReport {
    /// Measured steady-state departure rate in items/s: emissions divided
    /// by the first-to-last departure span. `None` with fewer than two
    /// departures.
    pub fn departure_rate(&self) -> Option<f64> {
        if self.items_out < 2 || self.first_out_ns == u64::MAX {
            return None;
        }
        let span_ns = self.last_out_ns.saturating_sub(self.first_out_ns);
        if span_ns == 0 {
            return None;
        }
        Some((self.items_out - 1) as f64 * 1e9 / span_ns as f64)
    }

    /// Fraction of wall time this actor spent blocked on backpressure.
    pub fn blocked_fraction(&self, wall: Duration) -> f64 {
        if wall.is_zero() {
            0.0
        } else {
            self.blocked.as_secs_f64() / wall.as_secs_f64()
        }
    }
}

/// The result of executing an actor graph to completion.
#[derive(Debug, Clone)]
pub struct RunReport {
    /// Per-actor snapshots, indexed by actor id.
    pub actors: Vec<ActorReport>,
    /// Wall-clock duration of the whole run.
    pub wall: Duration,
    /// Engine start instant (all `*_ns` fields are relative to it).
    pub started_at: Instant,
    /// Structural record of every undelivered item (capacity-bounded
    /// entries, exact totals).
    pub dead_letters: DeadLetterLog,
    /// The last globally complete checkpoint epoch — every actor (sources
    /// and sinks included) acked it. `None` with checkpointing off or if
    /// no epoch fully propagated before end of stream.
    pub last_complete_epoch: Option<u64>,
}

impl RunReport {
    /// The report of one actor.
    ///
    /// # Panics
    ///
    /// Panics if `id` is out of range.
    pub fn actor(&self, id: ActorId) -> &ActorReport {
        &self.actors[id.0]
    }

    /// Measured topology throughput, per the paper's definition (§5.2):
    /// the combined departure rate of the source actors. Multi-source
    /// topologies sum the per-source rates; `None` if no source produced a
    /// measurable rate (fewer than two departures everywhere).
    pub fn source_throughput(&self) -> Option<f64> {
        let rates: Vec<f64> = self
            .actors
            .iter()
            .filter(|a| a.items_in == 0 && a.items_out > 0)
            .filter_map(|a| a.departure_rate())
            .collect();
        if rates.is_empty() {
            None
        } else {
            Some(rates.iter().sum())
        }
    }

    /// Total items dropped anywhere (should be zero with an adequate send
    /// timeout; §5.1 sets it well above the largest service time).
    pub fn total_dropped(&self) -> u64 {
        self.actors.iter().map(|a| a.dropped).sum()
    }

    /// Total caught operator panics across all actors.
    pub fn total_panics(&self) -> u64 {
        self.actors.iter().map(|a| a.panics).sum()
    }

    /// Total operator restarts across all actors.
    pub fn total_restarts(&self) -> u64 {
        self.actors.iter().map(|a| a.restarts).sum()
    }

    /// Total dead letters across all actors (equals
    /// `self.dead_letters.total()`).
    pub fn total_dead_letters(&self) -> u64 {
        self.actors.iter().map(|a| a.dead_letters).sum()
    }

    /// Total snapshot-restore recoveries across all actors.
    pub fn total_recoveries(&self) -> u64 {
        self.actors.iter().map(|a| a.recoveries).sum()
    }

    /// Total tuples replayed during recoveries across all actors.
    pub fn total_replayed(&self) -> u64 {
        self.actors.iter().map(|a| a.replayed).sum()
    }

    /// Total replay-buffer overflows across all actors.
    pub fn total_replay_overflows(&self) -> u64 {
        self.actors.iter().map(|a| a.replay_overflows).sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn report(items_out: u64, first_ns: u64, last_ns: u64) -> ActorReport {
        ActorReport {
            id: ActorId(0),
            name: "a".into(),
            items_in: 0,
            items_out,
            dropped: 0,
            busy: Duration::ZERO,
            blocked: Duration::ZERO,
            helping: Duration::ZERO,
            first_out_ns: first_ns,
            last_out_ns: last_ns,
            panics: 0,
            restarts: 0,
            backoff: Duration::ZERO,
            dead_letters: 0,
            snapshots: 0,
            snapshot_bytes: 0,
            align_stall: Duration::ZERO,
            recoveries: 0,
            replayed: 0,
            replay_overflows: 0,
            last_restored_epoch: None,
        }
    }

    #[test]
    fn departure_rate_from_span() {
        // 11 items across 1 second -> 10 intervals/s.
        let r = report(11, 0, 1_000_000_000);
        assert!((r.departure_rate().unwrap() - 10.0).abs() < 1e-9);
    }

    #[test]
    fn departure_rate_needs_two_items() {
        assert_eq!(report(1, 0, 5).departure_rate(), None);
        assert_eq!(report(0, u64::MAX, 0).departure_rate(), None);
        assert_eq!(report(5, 100, 100).departure_rate(), None);
    }

    #[test]
    fn blocked_fraction() {
        let mut r = report(2, 0, 10);
        r.blocked = Duration::from_millis(250);
        assert!((r.blocked_fraction(Duration::from_secs(1)) - 0.25).abs() < 1e-9);
        assert_eq!(r.blocked_fraction(Duration::ZERO), 0.0);
    }

    #[test]
    fn record_out_tracks_first_and_last() {
        let m = ActorMetrics::new();
        m.record_out_n(100, 1);
        m.record_out_n(500, 0); // no departures: must not stamp
        m.record_out_n(900, 2);
        let snap = m.snapshot("x", ActorId(3));
        assert_eq!(snap.items_out, 3);
        assert_eq!(snap.first_out_ns, 100);
        assert_eq!(snap.last_out_ns, 900);
        assert_eq!(snap.id, ActorId(3));
    }

    #[test]
    fn run_report_source_throughput_picks_sourcelike_actor() {
        let source = ActorReport {
            items_in: 0,
            ..report(101, 0, 1_000_000_000)
        };
        let worker = ActorReport {
            id: ActorId(1),
            items_in: 101,
            ..report(101, 0, 1_000_000_000)
        };
        let rep = RunReport {
            actors: vec![source, worker],
            wall: Duration::from_secs(1),
            started_at: Instant::now(),
            dead_letters: DeadLetterLog::default(),
            last_complete_epoch: None,
        };
        assert!((rep.source_throughput().unwrap() - 100.0).abs() < 1e-9);
        assert_eq!(rep.total_dropped(), 0);
        assert_eq!(rep.total_panics(), 0);
        assert_eq!(rep.total_restarts(), 0);
        assert_eq!(rep.total_dead_letters(), 0);
        assert!(rep.dead_letters.is_empty());
    }

    #[test]
    fn run_report_source_throughput_sums_all_sources() {
        // Two independent sources (no arrivals, >0 departures) at 100/s and
        // 50/s feeding one worker: topology throughput is their sum.
        let source_a = ActorReport {
            items_in: 0,
            ..report(101, 0, 1_000_000_000)
        };
        let source_b = ActorReport {
            id: ActorId(1),
            items_in: 0,
            ..report(51, 0, 1_000_000_000)
        };
        let worker = ActorReport {
            id: ActorId(2),
            items_in: 152,
            ..report(152, 0, 1_000_000_000)
        };
        let rep = RunReport {
            actors: vec![source_a, source_b, worker],
            wall: Duration::from_secs(1),
            started_at: Instant::now(),
            dead_letters: DeadLetterLog::default(),
            last_complete_epoch: None,
        };
        assert!((rep.source_throughput().unwrap() - 150.0).abs() < 1e-9);
    }

    #[test]
    fn run_report_source_throughput_skips_unmeasurable_sources() {
        // A one-shot source (single departure, no measurable rate) must not
        // hide the measurable one, and an all-unmeasurable report is None.
        let one_shot = ActorReport {
            items_in: 0,
            ..report(1, 0, 0)
        };
        let steady = ActorReport {
            id: ActorId(1),
            items_in: 0,
            ..report(101, 0, 1_000_000_000)
        };
        let rep = RunReport {
            actors: vec![one_shot.clone(), steady],
            wall: Duration::from_secs(1),
            started_at: Instant::now(),
            dead_letters: DeadLetterLog::default(),
            last_complete_epoch: None,
        };
        assert!((rep.source_throughput().unwrap() - 100.0).abs() < 1e-9);
        let rep = RunReport {
            actors: vec![one_shot],
            wall: Duration::from_secs(1),
            started_at: Instant::now(),
            dead_letters: DeadLetterLog::default(),
            last_complete_epoch: None,
        };
        assert_eq!(rep.source_throughput(), None);
    }
}
