//! The refit cadence: how many arrivals a block loop may score before
//! the next refit, and when that refit is due.
//!
//! [`StreamingEngine`](crate::StreamingEngine),
//! [`ShardedEngine`](crate::ShardedEngine) and the TCP tracker in
//! `netanom-net` all cut their input at refit boundaries, number their
//! reports by arrival and refit every `k` arrivals. They must do so
//! identically — the parity suites compare them bitwise — so the
//! arithmetic lives here once and each of them owns a [`Cadence`].

use crate::diagnose::DiagnosisReport;

/// Arrival and refit counters of one engine. A block loop asks
/// [`take`](Cadence::take) how many rows it may score against the frozen
/// model, scores them, hands the reports to [`stamp`](Cadence::stamp),
/// and — when `stamp` says so — refits and calls
/// [`refitted`](Cadence::refitted).
#[derive(Debug, Clone)]
pub struct Cadence {
    refit_every: Option<usize>,
    since_fit: usize,
    total: usize,
    refits: usize,
}

impl Cadence {
    /// A fresh cadence: refit after every `refit_every` arrivals
    /// (`None` = never), all counters at zero.
    pub fn new(refit_every: Option<usize>) -> Self {
        Cadence::resume(refit_every, 0, 0, 0)
    }

    /// A cadence continuing from checkpointed counters: `total` arrivals
    /// seen, `since_fit` of them since the last (re)fit, `refits` refits
    /// performed.
    pub fn resume(
        refit_every: Option<usize>,
        total: usize,
        since_fit: usize,
        refits: usize,
    ) -> Self {
        Cadence {
            refit_every,
            since_fit,
            total,
            refits,
        }
    }

    /// The refit cadence in arrivals, if any.
    pub fn refit_every(&self) -> Option<usize> {
        self.refit_every
    }

    /// Arrivals since the most recent (re)fit.
    pub fn since_fit(&self) -> usize {
        self.since_fit
    }

    /// Total arrivals stamped so far.
    pub fn total(&self) -> usize {
        self.total
    }

    /// Refits performed so far.
    pub fn refits(&self) -> usize {
        self.refits
    }

    /// How many of the next `remaining` rows may be scored against the
    /// current model: up to the next refit boundary, and at least one
    /// (a cadence already overdue refits after a single row).
    pub fn take(&self, remaining: usize) -> usize {
        let until_refit = match self.refit_every {
            Some(k) => k.saturating_sub(self.since_fit).max(1),
            None => remaining,
        };
        until_refit.min(remaining)
    }

    /// Number `reports` by arrival index and count them; `true` when a
    /// refit is now due.
    pub fn stamp(&mut self, reports: &mut [DiagnosisReport]) -> bool {
        for rep in reports {
            rep.time = self.total;
            self.total += 1;
            self.since_fit += 1;
        }
        self.refit_every.is_some_and(|k| self.since_fit >= k)
    }

    /// Record a completed refit.
    pub fn refitted(&mut self) {
        self.since_fit = 0;
        self.refits += 1;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn reports(n: usize) -> Vec<DiagnosisReport> {
        vec![
            DiagnosisReport {
                time: 0,
                spe: 0.0,
                threshold: 1.0,
                detected: false,
                identification: None,
                estimated_bytes: None,
            };
            n
        ]
    }

    #[test]
    fn take_without_a_cadence_is_everything_remaining() {
        let c = Cadence::new(None);
        assert_eq!(c.take(0), 0);
        assert_eq!(c.take(1), 1);
        assert_eq!(c.take(500), 500);
        assert_eq!(Cadence::resume(None, 900, 900, 0).take(7), 7);
    }

    #[test]
    fn take_stops_at_the_refit_boundary() {
        // (refit_every, since_fit, remaining) -> take
        for (k, since, remaining, want) in [
            (144, 0, 36, 36),    // gap larger than the block
            (144, 0, 144, 144),  // gap equals the block
            (144, 0, 500, 144),  // gap smaller than the block
            (144, 100, 500, 44), // since_fit below k
            (144, 143, 500, 1),
            (144, 144, 500, 1), // at k: overdue, one row then refit
            (144, 200, 500, 1), // above k
            (144, 200, 0, 0),   // nothing left to take
            (1, 0, 10, 1),      // refit after every row
            (1, 1, 10, 1),
        ] {
            let c = Cadence::resume(Some(k), since, since, 0);
            assert_eq!(
                c.take(remaining),
                want,
                "k={k} since_fit={since} remaining={remaining}"
            );
        }
    }

    #[test]
    fn stamp_numbers_from_total_and_is_due_exactly_at_k() {
        let mut c = Cadence::resume(Some(5), 40, 2, 7);
        let mut first = reports(2);
        assert!(!c.stamp(&mut first), "4 of 5 since the fit");
        assert_eq!(first[0].time, 40);
        assert_eq!(first[1].time, 41);
        assert_eq!((c.total(), c.since_fit()), (42, 4));

        let mut second = reports(1);
        assert!(c.stamp(&mut second), "the fifth arrival is due");
        assert_eq!(second[0].time, 42);
        // Due stays due until the refit is recorded.
        assert!(c.stamp(&mut []));
        c.refitted();
        assert_eq!((c.total(), c.since_fit(), c.refits()), (43, 0, 8));
        assert!(!c.stamp(&mut []));
        assert_eq!(c.refit_every(), Some(5));
    }

    #[test]
    fn stamp_without_a_cadence_is_never_due() {
        let mut c = Cadence::new(None);
        let mut block = reports(1000);
        assert!(!c.stamp(&mut block));
        assert_eq!(block[999].time, 999);
        assert_eq!((c.total(), c.since_fit(), c.refits()), (1000, 1000, 0));
    }
}
