//! The benchmark's own metric arithmetic: percentiles that refuse thin
//! tails, latency from intended send times, and delivered-rate accounting.

/// A percentile is reported only when at least this many samples lie
/// strictly beyond it; below that its value is one or two outliers.
pub const MIN_BEYOND: usize = 10;

/// Nearest-rank `p`-quantile (`0 < p < 1`) of `sorted` (ascending), or
/// `None` when fewer than [`MIN_BEYOND`] samples lie beyond its rank.
pub fn percentile(sorted: &[f64], p: f64) -> Option<f64> {
    let n = sorted.len();
    if n == 0 || !(0.0..1.0).contains(&p) {
        return None;
    }
    let rank = ((p * n as f64).ceil() as usize).clamp(1, n);
    if n - rank < MIN_BEYOND {
        return None;
    }
    Some(sorted[rank - 1])
}

/// The percentiles a latency distribution is reported by.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Tail {
    /// Median.
    pub p50: f64,
    /// 90th percentile.
    pub p90: f64,
    /// 99th percentile.
    pub p99: f64,
}

impl Tail {
    /// Percentiles of `samples` (sorted in place), or `None` when the p99
    /// is refused by [`percentile`].
    pub fn of(samples: &mut [f64]) -> Option<Tail> {
        samples.sort_by(f64::total_cmp);
        Some(Tail {
            p50: percentile(samples, 0.5)?,
            p90: percentile(samples, 0.9)?,
            p99: percentile(samples, 0.99)?,
        })
    }

    /// Field-wise median of `tails`.
    pub fn median_of(tails: &[Tail]) -> Option<Tail> {
        let m = |f: fn(&Tail) -> f64| median(&tails.iter().map(f).collect::<Vec<_>>());
        Some(Tail {
            p50: m(|t| t.p50)?,
            p90: m(|t| t.p90)?,
            p99: m(|t| t.p99)?,
        })
    }
}

/// Median of `values` (mean of the middle pair for even counts); `None`
/// for an empty slice.
pub fn median(values: &[f64]) -> Option<f64> {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    match n {
        0 => None,
        _ if n % 2 == 1 => Some(v[n / 2]),
        _ => Some((v[n / 2 - 1] + v[n / 2]) / 2.0),
    }
}

/// One output observed at a benchmark-owned sink: the source sequence
/// number that triggered it and its arrival time in seconds.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Arrival {
    /// Source sequence number of the triggering input tuple.
    pub seq: u64,
    /// Arrival time at the sink, seconds on the benchmark's clock.
    pub at_s: f64,
}

/// Latency of each arrival from its *intended* send time
/// `anchor + seq / rate`.
///
/// The anchor is the first emission. It is not observable from outside
/// the engine with tracing off, so it is taken as the latest anchor
/// consistent with every arrival, `min(at - seq / rate)`: no tuple can
/// arrive before it was due. Latencies are therefore exact up to the one
/// constant of the fastest tuple's own delay. Because every tuple is timed
/// from its schedule rather than from when the source actually sent it, a
/// stall (and the source's catch-up reset after it) is charged to every
/// later tuple instead of disappearing.
pub fn intended_latencies(arrivals: &[Arrival], rate: f64) -> Vec<f64> {
    let due = |a: &Arrival| a.seq as f64 / rate;
    let anchor = arrivals
        .iter()
        .map(|a| a.at_s - due(a))
        .fold(f64::INFINITY, f64::min);
    arrivals.iter().map(|a| a.at_s - anchor - due(a)).collect()
}

/// Delivered-rate accounting of an open-loop run.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Delivery {
    /// Delivered rate over offered rate across the whole run: the time the
    /// offered schedule spans divided by the time the deliveries took.
    pub ratio: f64,
    /// Delivered rate over offered rate in steady state: the median, over
    /// the second half of the run cut into [`DELIVERY_WINDOWS`] windows of
    /// arrival time, of each window's progress through the offered
    /// schedule over the window's length.
    pub steady_ratio: f64,
}

/// Windows of arrival time [`delivery`] cuts a run into.
pub const DELIVERY_WINDOWS: usize = 20;

impl Delivery {
    /// True when the sink fell behind the offered rate in steady state: a
    /// backlog that keeps growing, so that most windows deliver less than
    /// is offered. A one-off stall (a preempted thread, and the source's
    /// catch-up reset after it) empties a window or two and lowers `ratio`,
    /// but not the median window, so it is not a growing backlog.
    pub fn backlog_growing(&self) -> bool {
        self.steady_ratio < 0.97
    }
}

/// Measures how well deliveries kept up with an offered rate. `arrivals`
/// must be in arrival order; `None` with fewer than four arrivals or no
/// elapsed time.
pub fn delivery(arrivals: &[Arrival], rate: f64) -> Option<Delivery> {
    if arrivals.len() < 4 {
        return None;
    }
    let first = &arrivals[0];
    let last = &arrivals[arrivals.len() - 1];
    let took_s = last.at_s - first.at_s;
    if took_s <= 0.0 {
        return None;
    }
    let ratio = last.seq.saturating_sub(first.seq) as f64 / rate / took_s;

    // Progress through the schedule: the highest sequence number arrived
    // by the end of each window (outputs of parallel replicas interleave,
    // so single arrivals are not in sequence order).
    let width = took_s / DELIVERY_WINDOWS as f64;
    let mut reached = vec![first.seq; DELIVERY_WINDOWS];
    for a in arrivals {
        let w = (((a.at_s - first.at_s) / width) as usize).min(DELIVERY_WINDOWS - 1);
        reached[w] = reached[w].max(a.seq);
    }
    for w in 1..DELIVERY_WINDOWS {
        reached[w] = reached[w].max(reached[w - 1]);
    }
    let steady: Vec<f64> = (DELIVERY_WINDOWS / 2..DELIVERY_WINDOWS)
        .map(|w| (reached[w] - reached[w - 1]) as f64 / rate / width)
        .collect();
    Some(Delivery {
        ratio,
        steady_ratio: median(&steady)?,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sorted(n: usize) -> Vec<f64> {
        (1..=n).map(|i| i as f64).collect()
    }

    #[test]
    fn percentile_refuses_fewer_than_ten_samples_beyond() {
        // p99 of 1000 samples leaves exactly ten beyond it.
        assert_eq!(percentile(&sorted(1000), 0.99), Some(990.0));
        // One sample fewer leaves nine: refused.
        assert_eq!(percentile(&sorted(999), 0.99), None);
        // The median needs only 20 samples.
        assert_eq!(percentile(&sorted(20), 0.5), Some(10.0));
        assert_eq!(percentile(&sorted(19), 0.5), None);
        assert_eq!(percentile(&[], 0.5), None);
    }

    #[test]
    fn median_of_odd_and_even_counts() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), Some(2.0));
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), Some(2.5));
        assert_eq!(median(&[]), None);
    }

    /// 1000 tuples offered at 1000/s, each arriving 0.5 ms after its due
    /// time, except that the source stalls 100 ms before tuple 500 and
    /// then resets its schedule (it sends 500.. at stall end + i/rate).
    fn stalled_schedule() -> Vec<Arrival> {
        (0..1000u64)
            .map(|seq| {
                let sent = seq as f64 / 1000.0 + if seq >= 500 { 0.1 } else { 0.0 };
                Arrival {
                    seq,
                    at_s: 5.0 + sent + 0.0005,
                }
            })
            .collect()
    }

    #[test]
    fn intended_time_latency_charges_a_stall_to_every_later_tuple() {
        let lat = intended_latencies(&stalled_schedule(), 1000.0);
        for (seq, l) in lat.iter().enumerate() {
            if seq < 500 {
                assert!(l.abs() < 1e-9, "seq {seq}: {l}");
            } else {
                // Timed from when it was sent, each tuple would show only
                // 0.5 ms; from its due time it carries the 100 ms stall.
                assert!((l - 0.1).abs() < 1e-9, "seq {seq}: {l}");
            }
        }
        // The stall shows in the tail percentile of the whole run.
        let mut s = lat.clone();
        s.sort_by(f64::total_cmp);
        assert!(percentile(&s, 0.99).unwrap() >= 0.1 - 1e-9);
    }

    #[test]
    fn delivery_flags_a_growing_backlog() {
        // The sink keeps up: ratio 1, no backlog.
        let steady: Vec<Arrival> = (0..1000u64)
            .map(|seq| Arrival {
                seq,
                at_s: seq as f64 / 1000.0 + 0.001,
            })
            .collect();
        let d = delivery(&steady, 1000.0).unwrap();
        assert!((d.ratio - 1.0).abs() < 1e-9);
        assert!(!d.backlog_growing());

        // Capacity is 800/s against 1000/s offered: the queue grows for
        // the whole run and the delivered rate stays at 0.8.
        let saturated: Vec<Arrival> = (0..1000u64)
            .map(|seq| Arrival {
                seq,
                at_s: seq as f64 / 800.0,
            })
            .collect();
        let d = delivery(&saturated, 1000.0).unwrap();
        assert!((d.ratio - 0.8).abs() < 1e-9);
        assert!(d.backlog_growing());

        // A one-off stall lowers the whole-run ratio but recovers.
        let d = delivery(&stalled_schedule(), 1000.0).unwrap();
        assert!(d.ratio < 0.95);
        assert!(!d.backlog_growing());

        // The same stall late in the run, after which the source keeps its
        // reset schedule to the end: still not a growing backlog.
        let late: Vec<Arrival> = (0..1000u64)
            .map(|seq| Arrival {
                seq,
                at_s: seq as f64 / 1000.0 + if seq >= 900 { 0.06 } else { 0.0 },
            })
            .collect();
        let d = delivery(&late, 1000.0).unwrap();
        assert!(d.ratio < 0.95);
        assert!((d.steady_ratio - 1.0).abs() < 0.02, "{d:?}");
        assert!(!d.backlog_growing());
    }
}
