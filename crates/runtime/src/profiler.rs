//! Operator profiling: measuring service times and selectivities.
//!
//! SpinStreams is driven by profile-based measurements — "the processing
//! time spent on average by the operators to consume input items" and the
//! selectivity parameters (§4.1, where the paper points to DiSL/Mammut).
//! [`profile_operator`] plays that role here: it feeds an operator a sample
//! stream, timing the invocations and counting emissions. The timing is
//! the calling thread's CPU time where the platform offers it, so a
//! profile taken on a busy host measures the operator, not the time the
//! thread spent preempted.

use crate::{Outputs, StreamOperator};
use spinstreams_core::{ServiceTime, Tuple};
#[cfg(not(all(target_os = "linux", target_pointer_width = "64")))]
use std::time::Instant;

/// Result of profiling one operator over a sample stream.
#[derive(Debug, Clone, PartialEq)]
pub struct ProfileResult {
    /// Mean measured service time per input item.
    pub mean_service_time: ServiceTime,
    /// Measured output selectivity: outputs emitted per input consumed.
    pub output_selectivity: f64,
    /// Number of samples measured (after warmup).
    pub samples: usize,
}

/// Profiles `op` over `inputs`, discarding the first `warmup` invocations
/// from the timing statistics (cold caches, lazy state allocation).
///
/// The operator is driven exactly like the runtime drives it, one item per
/// `process` call, with emissions discarded.
///
/// # Panics
///
/// Panics if `inputs.len() <= warmup` (no measurable samples).
pub fn profile_operator(
    op: &mut dyn StreamOperator,
    inputs: &[Tuple],
    warmup: usize,
) -> ProfileResult {
    assert!(
        inputs.len() > warmup,
        "need more inputs ({}) than warmup ({warmup})",
        inputs.len()
    );
    // Profile in virtual-work mode: an operator's service time is its
    // intrinsic compute (thread CPU time) plus its declared synthetic work,
    // matching how the discrete-event executor accounts it. Threaded
    // execution spins the same number of nanoseconds, so the profile is
    // valid for both executors. The RAII guard restores the previous mode
    // even if the operator panics mid-profile.
    let _mode = crate::operators::VirtualWorkGuard::enter();
    let mut out = Outputs::new();
    for item in &inputs[..warmup] {
        op.process(*item, &mut out);
        out.clear();
    }
    crate::operators::take_virtual_work_ns();
    let measured = &inputs[warmup..];
    let mut emitted = 0usize;
    let start = ThreadClock::now();
    for item in measured {
        op.process(*item, &mut out);
        emitted += out.len();
        out.clear();
    }
    let elapsed_ns = start.elapsed_ns() + crate::operators::take_virtual_work_ns();
    ProfileResult {
        mean_service_time: ServiceTime::from_secs(elapsed_ns as f64 / 1e9 / measured.len() as f64),
        output_selectivity: emitted as f64 / measured.len() as f64,
        samples: measured.len(),
    }
}

/// A reading of the calling thread's CPU-time clock
/// (`CLOCK_THREAD_CPUTIME_ID`, from the C runtime the binary already
/// links) on 64-bit Linux; a wall-clock reading elsewhere.
#[cfg(all(target_os = "linux", target_pointer_width = "64"))]
struct ThreadClock(u64);

#[cfg(all(target_os = "linux", target_pointer_width = "64"))]
impl ThreadClock {
    fn now() -> Self {
        #[repr(C)]
        struct Timespec {
            tv_sec: i64,
            tv_nsec: i64,
        }
        extern "C" {
            fn clock_gettime(clock: i32, tp: *mut Timespec) -> i32;
        }
        const CLOCK_THREAD_CPUTIME_ID: i32 = 3;
        let mut ts = Timespec {
            tv_sec: 0,
            tv_nsec: 0,
        };
        // SAFETY: `ts` is a live, writable `struct timespec` (two 64-bit
        // fields on 64-bit Linux), the only memory the call writes.
        let rc = unsafe { clock_gettime(CLOCK_THREAD_CPUTIME_ID, &mut ts) };
        assert_eq!(rc, 0, "the thread CPU-time clock exists on Linux");
        ThreadClock(ts.tv_sec as u64 * 1_000_000_000 + ts.tv_nsec as u64)
    }

    fn elapsed_ns(&self) -> u64 {
        Self::now().0.saturating_sub(self.0)
    }
}

#[cfg(not(all(target_os = "linux", target_pointer_width = "64")))]
struct ThreadClock(Instant);

#[cfg(not(all(target_os = "linux", target_pointer_width = "64")))]
impl ThreadClock {
    fn now() -> Self {
        ThreadClock(Instant::now())
    }

    fn elapsed_ns(&self) -> u64 {
        self.0.elapsed().as_nanos() as u64
    }
}

/// Generates a deterministic sample stream of `n` tuples with uniform
/// attributes in `[0, 1)` and keys in `[0, num_keys)`.
pub fn sample_stream(n: usize, num_keys: u64, seed: u64) -> Vec<Tuple> {
    let mut rng = crate::rng::XorShift64::new(seed);
    (0..n)
        .map(|i| {
            let mut values = [0.0f64; spinstreams_core::TUPLE_ARITY];
            for v in values.iter_mut() {
                *v = rng.next_f64();
            }
            Tuple::new(rng.next_u64() % num_keys.max(1), i as u64, values)
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::operators::{FnOperator, Spin};

    #[test]
    fn profiles_spin_operator_close_to_configured_time() {
        let mut op = Spin::new("spin", 100_000); // 100 µs
        let inputs = sample_stream(200, 8, 1);
        let p = profile_operator(&mut op, &inputs, 20);
        let us = p.mean_service_time.as_micros();
        assert!(
            (us - 100.0).abs() / 100.0 < 0.25,
            "measured {us} µs for a 100 µs operator"
        );
        assert_eq!(p.samples, 180);
        assert!((p.output_selectivity - 1.0).abs() < 1e-12);
    }

    #[test]
    fn measures_output_selectivity() {
        // Emits two items for every input with values[0] < 0.5, none
        // otherwise -> selectivity ≈ 1.0 on uniform input.
        let mut op = FnOperator::new("flat", |t: Tuple, out: &mut Outputs| {
            if t.values[0] < 0.5 {
                out.emit_default(t);
                out.emit_default(t);
            }
        });
        let inputs = sample_stream(5000, 8, 2);
        let p = profile_operator(&mut op, &inputs, 100);
        assert!(
            (p.output_selectivity - 1.0).abs() < 0.1,
            "selectivity {}",
            p.output_selectivity
        );
    }

    #[test]
    fn sample_stream_is_deterministic_and_in_range() {
        let a = sample_stream(100, 4, 9);
        let b = sample_stream(100, 4, 9);
        assert_eq!(a, b);
        for t in &a {
            assert!(t.key < 4);
            for v in &t.values {
                assert!((0.0..1.0).contains(v));
            }
        }
        assert_ne!(a, sample_stream(100, 4, 10));
    }

    #[test]
    #[should_panic(expected = "need more inputs")]
    fn warmup_must_leave_samples() {
        let mut op = Spin::new("s", 0);
        let inputs = sample_stream(10, 1, 1);
        profile_operator(&mut op, &inputs, 10);
    }

    #[test]
    fn panicking_operator_does_not_leak_virtual_mode() {
        struct Bomb;
        impl crate::StreamOperator for Bomb {
            fn process(&mut self, _item: Tuple, _out: &mut Outputs) {
                panic!("boom");
            }
        }
        let inputs = sample_stream(10, 1, 1);
        let result = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            profile_operator(&mut Bomb, &inputs, 2);
        }));
        assert!(result.is_err());
        assert!(
            !crate::operators::virtual_work_mode(),
            "profiler leaked virtual-work mode after an operator panic"
        );
        crate::operators::take_virtual_work_ns();
    }
}
