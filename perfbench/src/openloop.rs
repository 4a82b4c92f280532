//! Open-loop traffic helpers: when each request is due, whether it is
//! cache-hot, and latency timed from the due time so that a stall
//! charges its wait to every request queued behind it.

use std::time::{Duration, Instant};

/// Bresenham spread of a hot/cold mix: request `i` is hot iff the
/// running `hot_pct` accumulator crosses an integer at `i`, which
/// interleaves the two kinds evenly at any ratio without a random
/// number source.
pub fn is_hot(i: usize, hot_pct: u32) -> bool {
    let p = u64::from(hot_pct.min(100));
    (i as u64 + 1) * p / 100 > (i as u64) * p / 100
}

/// One connection's arrival schedule: request `i` is due at
/// `i * interval` after the phase starts, however long the earlier
/// requests took.
#[derive(Copy, Clone, Debug)]
pub struct Schedule {
    /// Gap between consecutive requests on the connection.
    pub interval: Duration,
}

impl Schedule {
    /// When request `i` is due, relative to the phase start.
    pub fn due(&self, i: usize) -> Duration {
        self.interval * u32::try_from(i).expect("request index fits u32")
    }

    /// Sleeps until request `i` is due (returns at once if it is
    /// already late).
    pub fn wait_for(&self, start: Instant, i: usize) {
        let due = self.due(i);
        let now = start.elapsed();
        if now < due {
            std::thread::sleep(due - now);
        }
    }
}

/// What happened to one request, as offsets from the phase start.
#[derive(Copy, Clone, Debug)]
pub struct Timed {
    /// Whether the request resubmitted a cached campaign.
    pub hot: bool,
    /// When it was due.
    pub due: Duration,
    /// When the generator actually sent it.
    pub sent: Duration,
    /// When its result arrived.
    pub done: Duration,
}

impl Timed {
    /// Latency from the due time, in milliseconds.
    pub fn latency_ms(&self) -> f64 {
        self.done.saturating_sub(self.due).as_secs_f64() * 1e3
    }

    /// How late the generator sent the request, in milliseconds.
    pub fn late_ms(&self) -> f64 {
        self.sent.saturating_sub(self.due).as_secs_f64() * 1e3
    }
}

/// Latencies kept apart by population, so a median never falls in the
/// gap between cache hits and simulations.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct Split {
    /// Cache-hot latencies, milliseconds.
    pub hot: Vec<f64>,
    /// Cache-cold latencies, milliseconds.
    pub cold: Vec<f64>,
}

/// Splits timed requests into hot and cold latency samples.
pub fn split(timed: &[Timed]) -> Split {
    let mut out = Split::default();
    for t in timed {
        if t.hot {
            out.hot.push(t.latency_ms());
        } else {
            out.cold.push(t.latency_ms());
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn hot_mix_is_interleaved_at_the_requested_share() {
        let hot: Vec<bool> = (0..10).map(|i| is_hot(i, 50)).collect();
        assert_eq!(hot.iter().filter(|&&h| h).count(), 5);
        assert!(hot.windows(2).all(|w| w[0] != w[1]), "50% alternates");
        assert_eq!((0..100).filter(|&i| is_hot(i, 25)).count(), 25);
        assert!(!(0..10).any(|i| is_hot(i, 0)));
        assert!((0..10).all(|i| is_hot(i, 100)));
    }

    #[test]
    fn due_times_do_not_move_with_latency() {
        let s = Schedule {
            interval: Duration::from_millis(40),
        };
        assert_eq!(s.due(0), Duration::ZERO);
        assert_eq!(s.due(3), Duration::from_millis(120));
    }

    #[test]
    fn latency_counts_from_due_not_from_send() {
        let t = Timed {
            hot: false,
            due: Duration::from_millis(100),
            sent: Duration::from_millis(130),
            done: Duration::from_millis(180),
        };
        assert!((t.latency_ms() - 80.0).abs() < 1e-9);
        assert!((t.late_ms() - 30.0).abs() < 1e-9);
        let early = Timed {
            sent: Duration::from_millis(100),
            ..t
        };
        assert_eq!(early.late_ms(), 0.0);
    }

    #[test]
    fn split_keeps_populations_apart() {
        let at = |ms| Duration::from_millis(ms);
        let timed = [
            Timed {
                hot: true,
                due: at(0),
                sent: at(0),
                done: at(2),
            },
            Timed {
                hot: false,
                due: at(10),
                sent: at(10),
                done: at(60),
            },
        ];
        let s = split(&timed);
        assert_eq!(s.hot.len(), 1);
        assert_eq!(s.cold.len(), 1);
        assert!((s.hot[0] - 2.0).abs() < 1e-9);
        assert!((s.cold[0] - 50.0).abs() < 1e-9);
    }
}
