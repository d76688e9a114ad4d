//! Paced closed-loop clients: request `i` is due at `i · period` after
//! the client starts, and is planned for the later of its due tick and
//! the previous reply. How far the plan trails the tick shows whether
//! the server let the client keep its schedule; the lag, how far the
//! actual send trails the plan, is the client's own delay (sleep
//! overshoot, a starved thread) and does not accumulate with the
//! server's slowness.

use std::time::{Duration, Instant};

/// A send counts as late when its plan trails its tick by more than
/// this; below it is sleep granularity, not a stall.
pub const LATE_AFTER: Duration = Duration::from_millis(1);

#[derive(Debug, Clone)]
pub struct Pacer {
    period: Duration,
    next: u32,
    /// Per send: how far the planned send trailed its tick.
    behind: Vec<Duration>,
    /// Per send: how far the actual send trailed its plan.
    lags: Vec<Duration>,
}

impl Pacer {
    pub fn new(period: Duration) -> Self {
        Self {
            period,
            next: 0,
            behind: Vec::new(),
            lags: Vec::new(),
        }
    }

    /// Plans the next send once the client is ready (the previous reply
    /// arrived) `ready` after the start: returns when to send, as an
    /// offset from the start, and records how far that trails the tick.
    pub fn plan(&mut self, ready: Duration) -> Duration {
        let due = self.period * self.next;
        self.next += 1;
        let send = ready.max(due);
        self.behind.push(send - due);
        send
    }

    /// Records that the send planned for `planned` went out at `actual`
    /// (both offsets from the start).
    pub fn sent(&mut self, planned: Duration, actual: Duration) {
        self.lags.push(actual.saturating_sub(planned));
    }

    /// Sleeps until the next send may go out; `start` is the client's
    /// start instant.
    pub fn wait(&mut self, start: Instant) {
        let planned = self.plan(start.elapsed());
        let target = start + planned;
        let now = Instant::now();
        if target > now {
            std::thread::sleep(target - now);
        }
        self.sent(planned, start.elapsed());
    }

    #[cfg(test)]
    pub fn behind(&self) -> &[Duration] {
        &self.behind
    }

    pub fn lags(&self) -> &[Duration] {
        &self.lags
    }

    /// Sends whose plan trailed their tick by more than [`LATE_AFTER`].
    pub fn late(&self) -> u64 {
        self.behind.iter().filter(|&&b| b > LATE_AFTER).count() as u64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ms(v: u64) -> Duration {
        Duration::from_millis(v)
    }

    fn us(v: u64) -> Duration {
        Duration::from_micros(v)
    }

    #[test]
    fn early_replies_wait_for_the_tick() {
        let mut p = Pacer::new(ms(50));
        assert_eq!(p.plan(ms(0)), ms(0));
        // Reply after 10 ms: the next request waits for its 50 ms tick.
        assert_eq!(p.plan(ms(10)), ms(50));
        assert_eq!(p.plan(ms(60)), ms(100));
        assert_eq!(p.behind(), &[ms(0), ms(0), ms(0)]);
        assert_eq!(p.late(), 0);
    }

    #[test]
    fn slow_replies_fall_behind_but_lag_does_not_accumulate() {
        let mut p = Pacer::new(ms(2));
        for (ready, woke) in [(0, 80), (44_000, 44_050), (88_000, 88_120)] {
            let planned = p.plan(us(ready));
            assert_eq!(planned, us(ready), "a slow reply sends at once");
            p.sent(planned, us(woke));
        }
        // Ticks keep their 2 ms schedule, so the plan trails it by 42 ms
        // more per request; the client's own delay stays small.
        assert_eq!(p.behind(), &[ms(0), ms(42), ms(84)]);
        assert_eq!(p.lags(), &[us(80), us(50), us(120)]);
        assert_eq!(p.late(), 2);
    }

    #[test]
    fn a_stall_is_caught_up_without_skipping_ticks() {
        let mut p = Pacer::new(ms(10));
        p.plan(ms(0));
        assert_eq!(p.plan(ms(35)), ms(35), "tick 1 due at 10");
        assert_eq!(p.plan(ms(36)), ms(36), "tick 2 due at 20");
        assert_eq!(p.plan(ms(37)), ms(37), "tick 3 due at 30");
        assert_eq!(p.plan(ms(38)), ms(40), "tick 4 back on schedule");
        assert_eq!(p.behind()[4], ms(0));
        assert!(p.behind()[1] > LATE_AFTER);
    }

    #[test]
    fn a_send_before_its_plan_has_no_lag() {
        let mut p = Pacer::new(ms(10));
        let planned = p.plan(ms(0));
        p.sent(planned + ms(10), planned);
        assert_eq!(p.lags(), &[Duration::ZERO]);
    }

    #[test]
    fn wait_records_one_lag_per_send() {
        let mut p = Pacer::new(ms(1));
        let start = Instant::now();
        for _ in 0..3 {
            p.wait(start);
        }
        assert_eq!(p.lags().len(), 3);
        assert!(
            start.elapsed() >= ms(2),
            "the third send waits for its tick"
        );
    }
}
