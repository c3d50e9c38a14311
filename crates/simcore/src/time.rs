//! Virtual time: instants and durations with microsecond resolution.
//!
//! The simulator never consults the wall clock. All latencies reported by the
//! platform are sums of [`SimDuration`] values accumulated on a virtual
//! [`SimTime`] axis, which keeps every experiment deterministic.

use std::fmt;
use std::iter::Sum;
use std::ops::{Add, AddAssign, Div, Mul, Sub, SubAssign};

/// An instant on the virtual time axis, in microseconds since simulation
/// start.
///
/// # Example
///
/// ```
/// use slimstart_simcore::time::{SimDuration, SimTime};
///
/// let t = SimTime::ZERO + SimDuration::from_millis(5);
/// assert_eq!(t.as_micros(), 5_000);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct SimTime(u64);

/// A span of virtual time, in microseconds.
///
/// # Example
///
/// ```
/// use slimstart_simcore::time::SimDuration;
///
/// let d = SimDuration::from_millis(2) + SimDuration::from_micros(500);
/// assert_eq!(d.as_millis_f64(), 2.5);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct SimDuration(u64);

impl SimTime {
    /// The origin of the simulation clock.
    pub const ZERO: SimTime = SimTime(0);

    /// The largest representable instant.
    pub const MAX: SimTime = SimTime(u64::MAX);

    /// Creates an instant `micros` microseconds after simulation start.
    pub const fn from_micros(micros: u64) -> Self {
        SimTime(micros)
    }

    /// Creates an instant `millis` milliseconds after simulation start.
    pub const fn from_millis(millis: u64) -> Self {
        SimTime(millis * 1_000)
    }

    /// Creates an instant `secs` seconds after simulation start.
    pub const fn from_secs(secs: u64) -> Self {
        SimTime(secs * 1_000_000)
    }

    /// Microseconds since simulation start.
    pub const fn as_micros(self) -> u64 {
        self.0
    }

    /// Milliseconds since simulation start, as a float.
    fn as_millis_f64(self) -> f64 {
        self.0 as f64 / 1_000.0
    }

    /// Seconds since simulation start, as a float.
    pub fn as_secs_f64(self) -> f64 {
        self.0 as f64 / 1_000_000.0
    }

    /// The span from `earlier` to `self`.
    ///
    /// Returns [`SimDuration::ZERO`] if `earlier` is after `self` (saturating),
    /// mirroring `std::time::Instant::saturating_duration_since`.
    pub fn saturating_since(self, earlier: SimTime) -> SimDuration {
        SimDuration(self.0.saturating_sub(earlier.0))
    }

    /// The span from `earlier` to `self`.
    ///
    /// # Panics
    ///
    /// Panics if `earlier` is after `self`.
    pub fn since(self, earlier: SimTime) -> SimDuration {
        assert!(
            earlier.0 <= self.0,
            "SimTime::since: earlier ({earlier}) is after self ({self})"
        );
        SimDuration(self.0 - earlier.0)
    }

    /// The later of two instants.
    pub fn max(self, other: SimTime) -> SimTime {
        SimTime(self.0.max(other.0))
    }

    /// The earlier of two instants.
    pub fn min(self, other: SimTime) -> SimTime {
        SimTime(self.0.min(other.0))
    }
}

impl SimDuration {
    /// The empty span.
    pub const ZERO: SimDuration = SimDuration(0);

    /// The largest representable span.
    pub const MAX: SimDuration = SimDuration(u64::MAX);

    /// Creates a span of `micros` microseconds.
    pub const fn from_micros(micros: u64) -> Self {
        SimDuration(micros)
    }

    /// Creates a span of `millis` milliseconds.
    pub const fn from_millis(millis: u64) -> Self {
        SimDuration(millis * 1_000)
    }

    /// Creates a span of `secs` seconds.
    pub const fn from_secs(secs: u64) -> Self {
        SimDuration(secs * 1_000_000)
    }

    /// Creates a span of `mins` minutes.
    pub const fn from_mins(mins: u64) -> Self {
        SimDuration(mins * 60 * 1_000_000)
    }

    /// Creates a span of `hours` hours.
    pub const fn from_hours(hours: u64) -> Self {
        SimDuration(hours * 3_600 * 1_000_000)
    }

    /// Creates a span from fractional milliseconds, rounding to the nearest
    /// microsecond. Negative or non-finite input clamps to zero.
    pub fn from_millis_f64(millis: f64) -> Self {
        if !millis.is_finite() || millis <= 0.0 {
            return SimDuration::ZERO;
        }
        SimDuration((millis * 1_000.0).round() as u64)
    }

    /// Creates a span from fractional seconds, rounding to the nearest
    /// microsecond. Negative or non-finite input clamps to zero.
    pub fn from_secs_f64(secs: f64) -> Self {
        if !secs.is_finite() || secs <= 0.0 {
            return SimDuration::ZERO;
        }
        SimDuration((secs * 1_000_000.0).round() as u64)
    }

    /// The span in whole microseconds.
    pub const fn as_micros(self) -> u64 {
        self.0
    }

    /// The span in fractional milliseconds.
    pub fn as_millis_f64(self) -> f64 {
        self.0 as f64 / 1_000.0
    }

    /// The span in fractional seconds.
    pub fn as_secs_f64(self) -> f64 {
        self.0 as f64 / 1_000_000.0
    }

    /// Whether this span is zero.
    pub const fn is_zero(self) -> bool {
        self.0 == 0
    }

    /// Multiplies the span by a non-negative factor, rounding to the nearest
    /// microsecond, ties away from zero: exactly
    /// `(micros as f64 * factor).round() as u64`.
    ///
    /// Every jittered charge of the simulator goes through here, so it is
    /// inlined and rounds without calling libm. Below 2^52 the product's
    /// truncation and its fraction are both exact, so adding one when the
    /// fraction is at least one half is `round`; the comparison becomes an
    /// integer added, not a branch. From 2^52 up every double is an
    /// integer and `round` is left to do the saturating conversion.
    ///
    /// # Panics
    ///
    /// Panics if `factor` is negative or not finite.
    #[inline]
    pub fn mul_f64(self, factor: f64) -> SimDuration {
        assert!(
            factor.is_finite() && factor >= 0.0,
            "SimDuration::mul_f64: factor must be finite and non-negative, got {factor}"
        );
        let v = self.0 as f64 * factor;
        if v < (1u64 << 52) as f64 {
            let t = v as i64;
            SimDuration((t + i64::from(v - t as f64 >= 0.5)) as u64)
        } else {
            SimDuration(v.round() as u64)
        }
    }

    /// The ratio `self / other` as a float.
    ///
    /// Returns 0.0 when `other` is zero.
    pub fn ratio(self, other: SimDuration) -> f64 {
        if other.0 == 0 {
            0.0
        } else {
            self.0 as f64 / other.0 as f64
        }
    }

    /// Saturating subtraction.
    pub fn saturating_sub(self, other: SimDuration) -> SimDuration {
        SimDuration(self.0.saturating_sub(other.0))
    }

    /// The larger of two spans.
    pub fn max(self, other: SimDuration) -> SimDuration {
        SimDuration(self.0.max(other.0))
    }

    /// The smaller of two spans.
    pub fn min(self, other: SimDuration) -> SimDuration {
        SimDuration(self.0.min(other.0))
    }
}

impl fmt::Display for SimTime {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "t+{:.3}ms", self.as_millis_f64())
    }
}

impl fmt::Display for SimDuration {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.0 >= 1_000_000 {
            write!(f, "{:.3}s", self.as_secs_f64())
        } else if self.0 >= 1_000 {
            write!(f, "{:.3}ms", self.as_millis_f64())
        } else {
            write!(f, "{}us", self.0)
        }
    }
}

impl Add<SimDuration> for SimTime {
    type Output = SimTime;
    fn add(self, rhs: SimDuration) -> SimTime {
        SimTime(self.0 + rhs.0)
    }
}

impl AddAssign<SimDuration> for SimTime {
    fn add_assign(&mut self, rhs: SimDuration) {
        self.0 += rhs.0;
    }
}

impl Sub<SimDuration> for SimTime {
    type Output = SimTime;
    fn sub(self, rhs: SimDuration) -> SimTime {
        SimTime(self.0 - rhs.0)
    }
}

impl Add for SimDuration {
    type Output = SimDuration;
    fn add(self, rhs: SimDuration) -> SimDuration {
        SimDuration(self.0 + rhs.0)
    }
}

impl AddAssign for SimDuration {
    fn add_assign(&mut self, rhs: SimDuration) {
        self.0 += rhs.0;
    }
}

impl Sub for SimDuration {
    type Output = SimDuration;
    fn sub(self, rhs: SimDuration) -> SimDuration {
        SimDuration(self.0 - rhs.0)
    }
}

impl SubAssign for SimDuration {
    fn sub_assign(&mut self, rhs: SimDuration) {
        self.0 -= rhs.0;
    }
}

impl Mul<u64> for SimDuration {
    type Output = SimDuration;
    fn mul(self, rhs: u64) -> SimDuration {
        SimDuration(self.0 * rhs)
    }
}

impl Div<u64> for SimDuration {
    type Output = SimDuration;
    fn div(self, rhs: u64) -> SimDuration {
        SimDuration(self.0 / rhs)
    }
}

impl Sum for SimDuration {
    fn sum<I: Iterator<Item = SimDuration>>(iter: I) -> SimDuration {
        iter.fold(SimDuration::ZERO, |acc, d| acc + d)
    }
}

impl<'a> Sum<&'a SimDuration> for SimDuration {
    fn sum<I: Iterator<Item = &'a SimDuration>>(iter: I) -> SimDuration {
        iter.copied().sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn time_arithmetic_round_trips() {
        let t = SimTime::from_millis(10);
        let d = SimDuration::from_micros(250);
        assert_eq!((t + d).as_micros(), 10_250);
        assert_eq!((t + d).since(t), d);
        assert_eq!((t + d) - d, t);
    }

    #[test]
    fn saturating_since_clamps_to_zero() {
        let early = SimTime::from_millis(1);
        let late = SimTime::from_millis(2);
        assert_eq!(early.saturating_since(late), SimDuration::ZERO);
        assert_eq!(late.saturating_since(early), SimDuration::from_millis(1));
    }

    #[test]
    #[should_panic(expected = "earlier")]
    fn since_panics_when_reversed() {
        SimTime::from_millis(1).since(SimTime::from_millis(2));
    }

    #[test]
    fn duration_constructors_agree() {
        assert_eq!(SimDuration::from_millis(1), SimDuration::from_micros(1_000));
        assert_eq!(SimDuration::from_secs(1), SimDuration::from_millis(1_000));
        assert_eq!(SimDuration::from_mins(1), SimDuration::from_secs(60));
        assert_eq!(SimDuration::from_hours(1), SimDuration::from_mins(60));
    }

    #[test]
    fn float_constructors_round_and_clamp() {
        assert_eq!(SimDuration::from_millis_f64(1.5).as_micros(), 1_500);
        assert_eq!(SimDuration::from_millis_f64(-3.0), SimDuration::ZERO);
        assert_eq!(SimDuration::from_millis_f64(f64::NAN), SimDuration::ZERO);
        assert_eq!(SimDuration::from_secs_f64(0.001).as_micros(), 1_000);
    }

    #[test]
    fn mul_f64_scales() {
        let d = SimDuration::from_millis(10);
        assert_eq!(d.mul_f64(0.5), SimDuration::from_millis(5));
        assert_eq!(d.mul_f64(0.0), SimDuration::ZERO);
        assert_eq!(d.mul_f64(2.0), SimDuration::from_millis(20));
    }

    /// `mul_f64` rounds without libm; this pins it to libm's `round` on
    /// seeded jitter and uniform factors, exact ties, the 2^52 boundary
    /// and the extremes.
    #[test]
    fn mul_f64_rounds_exactly_as_libm_round() {
        use crate::rng::SimRng;
        fn check(micros: u64, factor: f64) {
            assert_eq!(
                SimDuration::from_micros(micros).mul_f64(factor).as_micros(),
                (micros as f64 * factor).round() as u64,
                "{micros} µs × {factor:e}"
            );
        }
        let mut rng = SimRng::seed_from(0x6A17);
        for _ in 0..500_000 {
            // Counts up to 2^40 µs, spread over every magnitude.
            let micros = rng.next_u64() >> (24 + rng.next_below(40));
            // The platform's log-normal container speed at sigma 0.1
            // (its default is 0.04), drawn the way it draws one.
            let u1 = (1.0 - rng.next_f64()).max(f64::MIN_POSITIVE);
            let z = (-2.0 * u1.ln()).sqrt() * (2.0 * std::f64::consts::PI * rng.next_f64()).cos();
            check(micros, (0.1 * z).exp());
            check(micros, rng.uniform(0.0, 4.0));
        }
        // Exact ties k + 0.5 round up, and their neighbours either way.
        for k in [0u64, 1, 2, 3, 1_000, 123_456_789, (1 << 50) + 1] {
            check(2 * k + 1, 0.5);
            check(4 * k + 2, 0.25);
            check(2 * k + 1, 0.5 + f64::EPSILON);
            check(2 * k + 1, 0.5 - f64::EPSILON / 2.0);
        }
        for micros in [(1u64 << 52) - 1, 1 << 52, (1 << 52) + 1, 1 << 53, u64::MAX] {
            for factor in [0.0, -0.0, 1.0, 0.5, 1.5, 0.999_999_9, f64::MAX / 2.0] {
                check(micros, factor);
            }
        }
        // Products on either side of 2^52 from a count below it.
        check((1 << 52) - 1, 1.0 + f64::EPSILON);
        check(3 << 50, 4.0 / 3.0);
        check(0, f64::MAX);
        check(1, f64::MAX);
    }

    #[test]
    #[should_panic(expected = "finite")]
    fn mul_f64_rejects_negative() {
        SimDuration::from_millis(1).mul_f64(-1.0);
    }

    #[test]
    fn ratio_handles_zero_denominator() {
        let d = SimDuration::from_millis(3);
        assert_eq!(d.ratio(SimDuration::ZERO), 0.0);
        assert!((d.ratio(SimDuration::from_millis(6)) - 0.5).abs() < 1e-12);
    }

    #[test]
    fn sum_of_durations() {
        let parts = [
            SimDuration::from_micros(1),
            SimDuration::from_micros(2),
            SimDuration::from_micros(3),
        ];
        let total: SimDuration = parts.iter().sum();
        assert_eq!(total, SimDuration::from_micros(6));
    }

    #[test]
    fn display_picks_sensible_unit() {
        assert_eq!(SimDuration::from_micros(12).to_string(), "12us");
        assert_eq!(SimDuration::from_millis(12).to_string(), "12.000ms");
        assert_eq!(SimDuration::from_secs(2).to_string(), "2.000s");
    }

    #[test]
    fn min_max_order_correctly() {
        let a = SimDuration::from_millis(1);
        let b = SimDuration::from_millis(2);
        assert_eq!(a.max(b), b);
        assert_eq!(a.min(b), a);
        let ta = SimTime::from_millis(1);
        let tb = SimTime::from_millis(2);
        assert_eq!(ta.max(tb), tb);
        assert_eq!(ta.min(tb), ta);
    }
}
