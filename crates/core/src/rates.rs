//! Newtypes for service times and service rates.
//!
//! The paper characterizes each operator by its *service rate* `µ` — the
//! average number of input items the operator can serve per time unit when
//! never starved — or equivalently by its *service time* `T = µ⁻¹`. The two
//! newtypes here keep the unit algebra honest: a [`ServiceTime`] is seconds
//! per item, a [`ServiceRate`] is items per second, and conversions between
//! them are explicit.

use std::fmt;
use std::ops::{Add, Div, Mul};
use std::time::Duration;

/// Average time an operator spends processing one input item, in seconds.
///
/// This is the reciprocal of the operator's [`ServiceRate`] and is the
/// quantity profiled from a running application (computation time plus the
/// communication latency to deliver the result, per §3.1).
///
/// # Example
///
/// ```
/// use spinstreams_core::ServiceTime;
/// let t = ServiceTime::from_millis(2.0);
/// assert_eq!(t.as_secs(), 0.002);
/// assert_eq!(t.rate().items_per_sec(), 500.0);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, PartialOrd)]
pub struct ServiceTime(f64);

impl ServiceTime {
    /// A zero service time (used for idealized, infinitely fast operators).
    pub const ZERO: ServiceTime = ServiceTime(0.0);

    /// Creates a service time from seconds per item.
    ///
    /// # Panics
    ///
    /// Panics if `secs` is negative, NaN or infinite.
    pub fn from_secs(secs: f64) -> Self {
        assert!(
            secs.is_finite() && secs >= 0.0,
            "service time must be finite and non-negative, got {secs}"
        );
        ServiceTime(secs)
    }

    /// Creates a service time from seconds per item, or `None` if `secs`
    /// is negative, NaN or infinite — the fallible form of
    /// [`from_secs`](Self::from_secs) for values read from input.
    pub fn try_from_secs(secs: f64) -> Option<Self> {
        (secs.is_finite() && secs >= 0.0).then_some(ServiceTime(secs))
    }

    /// Creates a service time from milliseconds per item.
    pub fn from_millis(ms: f64) -> Self {
        Self::from_secs(ms / 1e3)
    }

    /// Creates a service time from microseconds per item.
    pub fn from_micros(us: f64) -> Self {
        Self::from_secs(us / 1e6)
    }

    /// Creates a service time from a [`Duration`].
    pub fn from_duration(d: Duration) -> Self {
        ServiceTime(d.as_secs_f64())
    }

    /// Returns the service time in seconds per item.
    pub fn as_secs(self) -> f64 {
        self.0
    }

    /// Returns the service time in milliseconds per item.
    pub fn as_millis(self) -> f64 {
        self.0 * 1e3
    }

    /// Returns the service time in microseconds per item.
    pub fn as_micros(self) -> f64 {
        self.0 * 1e6
    }

    /// Returns the service time as a [`Duration`] (saturating at zero).
    pub fn to_duration(self) -> Duration {
        Duration::from_secs_f64(self.0.max(0.0))
    }

    /// Returns the corresponding service rate `µ = 1/T`.
    ///
    /// A zero service time maps to an infinite rate.
    pub fn rate(self) -> ServiceRate {
        if self.0 == 0.0 {
            ServiceRate(f64::INFINITY)
        } else {
            ServiceRate(1.0 / self.0)
        }
    }

    /// Returns true if this service time is zero.
    pub fn is_zero(self) -> bool {
        self.0 == 0.0
    }
}

impl Add for ServiceTime {
    type Output = ServiceTime;
    fn add(self, rhs: ServiceTime) -> ServiceTime {
        ServiceTime(self.0 + rhs.0)
    }
}

impl Mul<f64> for ServiceTime {
    type Output = ServiceTime;
    fn mul(self, rhs: f64) -> ServiceTime {
        ServiceTime::from_secs(self.0 * rhs)
    }
}

impl fmt::Display for ServiceTime {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.0 >= 1.0 {
            write!(f, "{:.3} s", self.0)
        } else if self.0 >= 1e-3 {
            write!(f, "{:.3} ms", self.0 * 1e3)
        } else {
            write!(f, "{:.3} µs", self.0 * 1e6)
        }
    }
}

/// Average number of items an operator can serve per second (`µ` in §3.1).
///
/// Also used for arrival rates (`λ`) and departure rates (`δ`), which share
/// the same unit.
///
/// # Example
///
/// ```
/// use spinstreams_core::ServiceRate;
/// let mu = ServiceRate::per_sec(1000.0);
/// assert_eq!(mu.service_time().as_millis(), 1.0);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, PartialOrd)]
pub struct ServiceRate(f64);

impl ServiceRate {
    /// A zero rate.
    pub const ZERO: ServiceRate = ServiceRate(0.0);

    /// Creates a rate from items per second.
    ///
    /// # Panics
    ///
    /// Panics if `rate` is negative or NaN (infinite is allowed and denotes
    /// an idealized infinitely fast operator).
    pub fn per_sec(rate: f64) -> Self {
        assert!(
            !rate.is_nan() && rate >= 0.0,
            "service rate must be non-negative, got {rate}"
        );
        ServiceRate(rate)
    }

    /// Returns the rate in items per second.
    pub fn items_per_sec(self) -> f64 {
        self.0
    }

    /// Returns the corresponding service time `T = 1/µ`.
    ///
    /// An infinite rate maps to a zero service time.
    pub fn service_time(self) -> ServiceTime {
        if self.0.is_infinite() {
            ServiceTime::ZERO
        } else {
            ServiceTime::from_secs(1.0 / self.0)
        }
    }

    /// Returns true if this rate is finite.
    pub fn is_finite(self) -> bool {
        self.0.is_finite()
    }
}

impl Mul<f64> for ServiceRate {
    type Output = ServiceRate;
    fn mul(self, rhs: f64) -> ServiceRate {
        ServiceRate::per_sec(self.0 * rhs)
    }
}

impl Div<f64> for ServiceRate {
    type Output = ServiceRate;
    fn div(self, rhs: f64) -> ServiceRate {
        ServiceRate::per_sec(self.0 / rhs)
    }
}

impl Add for ServiceRate {
    type Output = ServiceRate;
    fn add(self, rhs: ServiceRate) -> ServiceRate {
        ServiceRate(self.0 + rhs.0)
    }
}

impl fmt::Display for ServiceRate {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{:.2} items/s", self.0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn time_rate_roundtrip() {
        let t = ServiceTime::from_millis(2.5);
        let r = t.rate();
        assert!((r.items_per_sec() - 400.0).abs() < 1e-9);
        assert!((r.service_time().as_secs() - t.as_secs()).abs() < 1e-15);
    }

    #[test]
    fn zero_time_is_infinite_rate() {
        assert!(ServiceTime::ZERO.rate().items_per_sec().is_infinite());
        assert!(ServiceRate::per_sec(f64::INFINITY).service_time().is_zero());
    }

    #[test]
    fn unit_constructors_agree() {
        assert_eq!(
            ServiceTime::from_micros(1500.0).as_secs(),
            ServiceTime::from_millis(1.5).as_secs()
        );
        assert_eq!(
            ServiceTime::from_duration(Duration::from_millis(3)).as_millis(),
            3.0
        );
    }

    #[test]
    fn arithmetic() {
        let a = ServiceTime::from_millis(1.0) + ServiceTime::from_millis(2.0);
        assert!((a.as_millis() - 3.0).abs() < 1e-12);
        let r = ServiceRate::per_sec(100.0) * 2.0 + ServiceRate::per_sec(50.0);
        assert!((r.items_per_sec() - 250.0).abs() < 1e-12);
        let half = ServiceRate::per_sec(100.0) / 2.0;
        assert!((half.items_per_sec() - 50.0).abs() < 1e-12);
    }

    #[test]
    fn try_from_secs_rejects_what_from_secs_panics_on() {
        for bad in [-1.0, f64::NAN, f64::INFINITY, f64::NEG_INFINITY] {
            assert_eq!(ServiceTime::try_from_secs(bad), None);
        }
        assert_eq!(ServiceTime::try_from_secs(0.0), Some(ServiceTime::ZERO));
        assert_eq!(
            ServiceTime::try_from_secs(0.002),
            Some(ServiceTime::from_millis(2.0))
        );
    }

    #[test]
    #[should_panic(expected = "non-negative")]
    fn negative_time_panics() {
        ServiceTime::from_secs(-1.0);
    }

    #[test]
    #[should_panic(expected = "non-negative")]
    fn negative_rate_panics() {
        ServiceRate::per_sec(-1.0);
    }

    #[test]
    fn display_scales_units() {
        assert_eq!(format!("{}", ServiceTime::from_secs(1.5)), "1.500 s");
        assert_eq!(format!("{}", ServiceTime::from_millis(2.0)), "2.000 ms");
        assert_eq!(format!("{}", ServiceTime::from_micros(70.0)), "70.000 µs");
    }

    #[test]
    fn duration_roundtrip() {
        let t = ServiceTime::from_millis(5.0);
        assert_eq!(t.to_duration(), Duration::from_millis(5));
    }
}
