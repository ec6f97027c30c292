//! Request arrival processes (paper Fig. 13's two knobs).

use rand::Rng;
use serde::{Deserialize, Serialize};

/// Arrival dynamics: Poisson session arrivals plus exponential think time
/// between a session's turns.
///
/// `sessions_per_second` controls cross-session contention (Fig. 13a);
/// `mean_response_time` is the average gap between receiving a response
/// and sending the next turn — human typing or an agent's environment
/// interaction (Fig. 13b).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ArrivalConfig {
    /// Mean new sessions per second (Poisson process rate).
    pub sessions_per_second: f64,
    /// Mean seconds between a session's consecutive requests.
    pub mean_response_time: f64,
}

impl Default for ArrivalConfig {
    /// One session per second, five-second think time (the midpoints of
    /// the paper's sweeps).
    fn default() -> Self {
        ArrivalConfig {
            sessions_per_second: 1.0,
            mean_response_time: 5.0,
        }
    }
}

impl ArrivalConfig {
    /// Creates a config, validating both rates.
    ///
    /// # Panics
    ///
    /// Panics if either parameter is non-positive or non-finite.
    #[must_use]
    pub fn new(sessions_per_second: f64, mean_response_time: f64) -> Self {
        assert!(
            sessions_per_second > 0.0 && sessions_per_second.is_finite(),
            "sessions_per_second must be positive"
        );
        assert!(
            mean_response_time > 0.0 && mean_response_time.is_finite(),
            "mean_response_time must be positive"
        );
        ArrivalConfig {
            sessions_per_second,
            mean_response_time,
        }
    }

    /// Draws the gap until the next session start.
    pub fn next_session_gap<R: Rng + ?Sized>(&self, rng: &mut R) -> f64 {
        exponential(rng, self.sessions_per_second)
    }

    /// Draws the think time before a session's next turn.
    pub fn next_turn_gap<R: Rng + ?Sized>(&self, rng: &mut R) -> f64 {
        exponential(rng, 1.0 / self.mean_response_time)
    }
}

/// Exponential variate with the given rate (one `f64` draw, rejecting
/// denormal zero).
fn exponential<R: Rng + ?Sized>(rng: &mut R, rate: f64) -> f64 {
    loop {
        let u: f64 = rng.gen::<f64>();
        if u > f64::MIN_POSITIVE {
            return -u.ln() / rate;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn default_matches_paper_midpoints() {
        let c = ArrivalConfig::default();
        assert_eq!(c.sessions_per_second, 1.0);
        assert_eq!(c.mean_response_time, 5.0);
    }

    #[test]
    fn gaps_have_the_configured_means() {
        let c = ArrivalConfig::new(2.0, 7.5);
        let mut rng = StdRng::seed_from_u64(4);
        let n = 20_000;
        let session_mean: f64 =
            (0..n).map(|_| c.next_session_gap(&mut rng)).sum::<f64>() / f64::from(n);
        let turn_mean: f64 = (0..n).map(|_| c.next_turn_gap(&mut rng)).sum::<f64>() / f64::from(n);
        assert!((session_mean - 0.5).abs() < 0.02, "session {session_mean}");
        assert!((turn_mean - 7.5).abs() < 0.25, "turn {turn_mean}");
    }

    #[test]
    fn gaps_are_positive() {
        let c = ArrivalConfig::default();
        let mut rng = StdRng::seed_from_u64(5);
        for _ in 0..1000 {
            assert!(c.next_session_gap(&mut rng) > 0.0);
            assert!(c.next_turn_gap(&mut rng) > 0.0);
        }
    }

    #[test]
    #[should_panic(expected = "positive")]
    fn zero_rate_panics() {
        let _ = ArrivalConfig::new(0.0, 5.0);
    }
}
