//! Circuit breakers with a sustained-overload trip model.

use serde::{Deserialize, Serialize};

use recharge_units::{Seconds, SimTime, Watts};

/// The trip characteristic of a breaker: how much sustained overdraw, for how
/// long, opens the breaker.
///
/// §I of the paper quotes the motivating example: *"a 30% power overdraw at a
/// circuit breaker for more than 30 seconds could trip it."*
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct TripCurve {
    /// Multiple of the limit at which the trip timer starts (1.3 = 30% over).
    pub trip_factor: f64,
    /// How long the overdraw must be sustained before the breaker opens.
    pub sustain: Seconds,
}

impl TripCurve {
    /// The paper's example characteristic: 30% overdraw for 30 seconds.
    #[must_use]
    pub fn standard() -> Self {
        TripCurve {
            trip_factor: 1.3,
            sustain: Seconds::new(30.0),
        }
    }
}

impl Default for TripCurve {
    fn default() -> Self {
        TripCurve::standard()
    }
}

/// Outcome of one breaker observation.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum BreakerStatus {
    /// Power draw within the limit.
    Nominal,
    /// Power draw above the limit but below (or not yet sustained at) the
    /// trip threshold — the regime Dynamo must react in.
    Overloaded,
    /// The breaker has opened; everything downstream is dark.
    Tripped,
}

/// A circuit breaker: a power limit plus a sustained-overload trip integrator.
///
/// The breaker is fed periodic power observations via [`Breaker::observe`];
/// once draw at or above `limit × trip_factor` has been sustained for the trip
/// curve's duration, the breaker latches [`BreakerStatus::Tripped`] until
/// [`Breaker::reset`] (a manual re-close after an outage).
///
/// # Examples
///
/// ```
/// use recharge_power::{Breaker, BreakerStatus};
/// use recharge_units::{SimTime, Seconds, Watts};
///
/// let mut breaker = Breaker::new(Watts::from_megawatts(2.5));
/// let t0 = SimTime::ZERO;
/// assert_eq!(breaker.observe(Watts::from_megawatts(2.4), t0), BreakerStatus::Nominal);
/// assert_eq!(breaker.observe(Watts::from_megawatts(2.6), t0), BreakerStatus::Overloaded);
///
/// // 30% over for more than 30 seconds → trip.
/// breaker.observe(Watts::from_megawatts(3.3), t0);
/// let later = t0 + Seconds::new(31.0);
/// assert_eq!(breaker.observe(Watts::from_megawatts(3.3), later), BreakerStatus::Tripped);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct Breaker {
    limit: Watts,
    curve: TripCurve,
    over_trip_since: Option<SimTime>,
    tripped: bool,
    /// Whether the previous observation was above the limit — tracked only
    /// to journal margin-crossing edges, never read by the trip logic.
    was_over: bool,
}

impl Breaker {
    /// Creates a breaker with the given limit and the standard trip curve.
    #[must_use]
    pub fn new(limit: Watts) -> Self {
        Breaker::with_curve(limit, TripCurve::standard())
    }

    /// Creates a breaker with a custom trip curve.
    #[must_use]
    pub fn with_curve(limit: Watts, curve: TripCurve) -> Self {
        Breaker {
            limit,
            curve,
            over_trip_since: None,
            tripped: false,
            was_over: false,
        }
    }

    /// The breaker's power limit.
    #[must_use]
    pub fn limit(&self) -> Watts {
        self.limit
    }

    /// The trip characteristic.
    #[must_use]
    pub fn trip_curve(&self) -> TripCurve {
        self.curve
    }

    /// Whether the breaker has tripped.
    #[must_use]
    pub fn is_tripped(&self) -> bool {
        self.tripped
    }

    /// Headroom left under the limit at the given draw (zero when overloaded).
    #[must_use]
    pub fn available_power(&self, draw: Watts) -> Watts {
        (self.limit - draw).max(Watts::ZERO)
    }

    /// A lower bound on the earliest time this breaker could possibly trip,
    /// assuming the draw never exceeds `worst_case_draw` from `now` on.
    ///
    /// `None` means "never": the worst-case draw stays below the trip
    /// threshold (`limit × trip_factor`), so the trip integrator cannot even
    /// start. Otherwise the bound is when a *continuously* sustained
    /// worst-case overdraw would satisfy the trip curve — measured from the
    /// running integrator if one is already open, else from `now`. Any dip
    /// below the threshold resets the integrator and pushes the real trip
    /// later, so the bound is conservative: no observation sequence bounded
    /// by `worst_case_draw` trips strictly before it. An already-tripped
    /// breaker reports `now`.
    ///
    /// Like the kernel's charge-event horizons, this is scheduling
    /// information only — the event-driven loop still feeds
    /// [`observe`](Self::observe) at every control tick, it just knows no
    /// trip can land inside the bound.
    #[must_use]
    pub fn next_possible_trip_time(&self, now: SimTime, worst_case_draw: Watts) -> Option<SimTime> {
        if self.tripped {
            return Some(now);
        }
        if worst_case_draw < self.limit * self.curve.trip_factor {
            return None;
        }
        let since = self.over_trip_since.unwrap_or(now);
        Some((since + self.curve.sustain).max(now))
    }

    /// Feeds one power observation at `now`, returning the resulting status.
    ///
    /// Observations must be fed in non-decreasing time order; the integrator
    /// measures how long draw has stayed at or above the trip threshold.
    pub fn observe(&mut self, draw: Watts, now: SimTime) -> BreakerStatus {
        if self.tripped {
            return BreakerStatus::Tripped;
        }
        self.journal_margin_edge(draw, now);
        let trip_threshold = self.limit * self.curve.trip_factor;
        if draw >= trip_threshold {
            let since = *self.over_trip_since.get_or_insert(now);
            if now.since(since) >= self.curve.sustain {
                self.tripped = true;
                // First trip only: the latch above makes re-entry impossible
                // until reset(), so the counter counts distinct trips.
                recharge_telemetry::tcounter!("power.breaker_trips").inc();
                recharge_telemetry::flight_at(
                    now.as_secs(),
                    recharge_telemetry::FlightKind::BreakerTrip,
                    recharge_telemetry::ReasonCode::Observed,
                    recharge_telemetry::NO_RACK,
                    0,
                    recharge_telemetry::NO_BUCKET,
                    draw.as_watts().to_bits(),
                    self.limit.as_watts().to_bits(),
                );
                return BreakerStatus::Tripped;
            }
            BreakerStatus::Overloaded
        } else {
            self.over_trip_since = None;
            if draw > self.limit {
                BreakerStatus::Overloaded
            } else {
                BreakerStatus::Nominal
            }
        }
    }

    /// Journals limit crossings (in either direction) to the flight
    /// recorder: `v0` is the observed draw, `v1` the limit, and the margin
    /// (`v1 − v0`) is negative exactly while overloaded.
    fn journal_margin_edge(&mut self, draw: Watts, now: SimTime) {
        let over = draw > self.limit;
        if over != self.was_over {
            self.was_over = over;
            recharge_telemetry::flight_at(
                now.as_secs(),
                recharge_telemetry::FlightKind::BreakerMargin,
                recharge_telemetry::ReasonCode::Observed,
                recharge_telemetry::NO_RACK,
                0,
                recharge_telemetry::NO_BUCKET,
                draw.as_watts().to_bits(),
                self.limit.as_watts().to_bits(),
            );
        }
    }

    /// Re-closes a tripped breaker and clears the trip integrator.
    pub fn reset(&mut self) {
        self.tripped = false;
        self.over_trip_since = None;
        self.was_over = false;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn breaker() -> Breaker {
        Breaker::new(Watts::from_kilowatts(100.0))
    }

    #[test]
    fn nominal_below_limit() {
        let mut b = breaker();
        assert_eq!(
            b.observe(Watts::from_kilowatts(99.0), SimTime::ZERO),
            BreakerStatus::Nominal
        );
        assert_eq!(
            b.observe(Watts::from_kilowatts(100.0), SimTime::ZERO),
            BreakerStatus::Nominal
        );
        assert!(!b.is_tripped());
    }

    #[test]
    fn overload_without_trip_threshold_never_trips() {
        let mut b = breaker();
        for s in 0..1_000 {
            let status = b.observe(
                Watts::from_kilowatts(120.0),
                SimTime::from_secs(f64::from(s)),
            );
            assert_eq!(status, BreakerStatus::Overloaded);
        }
        assert!(!b.is_tripped());
    }

    #[test]
    fn sustained_trip_threshold_trips_after_30s() {
        let mut b = breaker();
        assert_eq!(
            b.observe(Watts::from_kilowatts(130.0), SimTime::ZERO),
            BreakerStatus::Overloaded
        );
        assert_eq!(
            b.observe(Watts::from_kilowatts(130.0), SimTime::from_secs(29.0)),
            BreakerStatus::Overloaded
        );
        assert_eq!(
            b.observe(Watts::from_kilowatts(130.0), SimTime::from_secs(30.0)),
            BreakerStatus::Tripped
        );
        assert!(b.is_tripped());
        // Latched: stays tripped even at zero draw.
        assert_eq!(
            b.observe(Watts::ZERO, SimTime::from_secs(31.0)),
            BreakerStatus::Tripped
        );
    }

    #[test]
    fn dip_below_threshold_resets_integrator() {
        let mut b = breaker();
        b.observe(Watts::from_kilowatts(135.0), SimTime::ZERO);
        b.observe(Watts::from_kilowatts(120.0), SimTime::from_secs(20.0)); // dip
        b.observe(Watts::from_kilowatts(135.0), SimTime::from_secs(25.0));
        // 25 s + 29 s later: only 29 s of continuous overdraw — no trip.
        assert_eq!(
            b.observe(Watts::from_kilowatts(135.0), SimTime::from_secs(54.0)),
            BreakerStatus::Overloaded
        );
        assert_eq!(
            b.observe(Watts::from_kilowatts(135.0), SimTime::from_secs(55.0)),
            BreakerStatus::Tripped
        );
    }

    #[test]
    fn reset_restores_service() {
        let mut b = breaker();
        b.observe(Watts::from_kilowatts(200.0), SimTime::ZERO);
        b.observe(Watts::from_kilowatts(200.0), SimTime::from_secs(60.0));
        assert!(b.is_tripped());
        b.reset();
        assert!(!b.is_tripped());
        assert_eq!(
            b.observe(Watts::from_kilowatts(50.0), SimTime::from_secs(61.0)),
            BreakerStatus::Nominal
        );
    }

    #[test]
    fn available_power_saturates_at_zero() {
        let b = breaker();
        assert_eq!(
            b.available_power(Watts::from_kilowatts(40.0)),
            Watts::from_kilowatts(60.0)
        );
        assert_eq!(b.available_power(Watts::from_kilowatts(140.0)), Watts::ZERO);
    }

    #[test]
    fn trip_horizon_is_none_below_the_threshold() {
        let b = breaker();
        // 100 kW limit × 1.3 = 130 kW threshold: anything below can never trip.
        assert_eq!(
            b.next_possible_trip_time(SimTime::ZERO, Watts::from_kilowatts(129.0)),
            None
        );
        assert_eq!(b.next_possible_trip_time(SimTime::ZERO, Watts::ZERO), None);
    }

    #[test]
    fn trip_horizon_is_sustain_from_now_with_a_fresh_integrator() {
        let b = breaker();
        assert_eq!(
            b.next_possible_trip_time(SimTime::from_secs(10.0), Watts::from_kilowatts(200.0)),
            Some(SimTime::from_secs(40.0))
        );
    }

    #[test]
    fn trip_horizon_tracks_an_open_integrator() {
        let mut b = breaker();
        b.observe(Watts::from_kilowatts(135.0), SimTime::from_secs(5.0));
        // Overdraw since t=5: the earliest possible trip is 5 + 30 = 35 s.
        assert_eq!(
            b.next_possible_trip_time(SimTime::from_secs(20.0), Watts::from_kilowatts(135.0)),
            Some(SimTime::from_secs(35.0))
        );
        // The bound never lands in the past even if the integrator is stale.
        assert_eq!(
            b.next_possible_trip_time(SimTime::from_secs(50.0), Watts::from_kilowatts(135.0)),
            Some(SimTime::from_secs(50.0))
        );
        // A dip resets the integrator: the horizon pushes out again.
        b.observe(Watts::from_kilowatts(90.0), SimTime::from_secs(21.0));
        assert_eq!(
            b.next_possible_trip_time(SimTime::from_secs(22.0), Watts::from_kilowatts(135.0)),
            Some(SimTime::from_secs(52.0))
        );
    }

    #[test]
    fn trip_horizon_is_conservative_against_dense_observation() {
        // Feed a worst-case-bounded draw densely; the breaker must not trip
        // strictly before the horizon predicted at t=0.
        let mut b = breaker();
        let draw = Watts::from_kilowatts(140.0);
        let horizon = b.next_possible_trip_time(SimTime::ZERO, draw).unwrap();
        let mut t = 0.0;
        while !b.is_tripped() {
            b.observe(draw, SimTime::from_secs(t));
            if !b.is_tripped() {
                t += 1.0;
            }
            assert!(t < 1e4, "never tripped");
        }
        assert!(
            t >= horizon.as_secs() - 1e-9,
            "tripped at {t} before {horizon}"
        );
    }

    #[test]
    fn tripped_breaker_reports_now() {
        let mut b = breaker();
        b.observe(Watts::from_kilowatts(200.0), SimTime::ZERO);
        b.observe(Watts::from_kilowatts(200.0), SimTime::from_secs(60.0));
        assert!(b.is_tripped());
        assert_eq!(
            b.next_possible_trip_time(SimTime::from_secs(61.0), Watts::ZERO),
            Some(SimTime::from_secs(61.0))
        );
    }

    #[test]
    fn custom_trip_curve() {
        let curve = TripCurve {
            trip_factor: 1.1,
            sustain: Seconds::new(5.0),
        };
        let mut b = Breaker::with_curve(Watts::new(100.0), curve);
        b.observe(Watts::new(111.0), SimTime::ZERO);
        assert_eq!(
            b.observe(Watts::new(111.0), SimTime::from_secs(5.0)),
            BreakerStatus::Tripped
        );
        assert_eq!(b.trip_curve(), curve);
    }
}
