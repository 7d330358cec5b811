//! Yield accounting and per-job outcomes.

use mbts_sim::{OnlineStats, Time};
use mbts_workload::TaskId;
use serde::{Deserialize, Serialize};

/// What finally happened to one submitted task.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum Disposition {
    /// Rejected by admission control; never entered the queue.
    Rejected,
    /// Ran to completion.
    Completed,
    /// Accepted but discarded after expiring (only with `drop_expired`).
    Dropped,
    /// Accepted but withdrawn from the queue before running (the
    /// daemon's `/cancel`).
    Cancelled,
    /// A workflow member whose predecessor failed: the task was never
    /// released into any queue, so it neither counts as submitted nor
    /// accepted — the workflow overlay settles its workflow at zero.
    Stranded,
}

/// Per-task record produced by a site run.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct JobOutcome {
    /// The task.
    pub id: TaskId,
    /// Final disposition.
    pub disposition: Disposition,
    /// Completion (or drop) time, if the task was accepted.
    pub finished_at: Option<Time>,
    /// Yield earned (Eq. 1); 0 for rejected tasks.
    pub earned: f64,
    /// Total delay beyond the minimum possible completion, in time units
    /// (0 for rejected tasks).
    pub delay: f64,
    /// How many times the task was preempted.
    pub preemptions: u32,
}

/// Aggregate counters and statistics for one site run.
#[derive(Debug, Clone, Default, PartialEq, Serialize, Deserialize)]
pub struct SiteMetrics {
    /// Tasks offered to the site.
    pub submitted: usize,
    /// Tasks admitted into the queue.
    pub accepted: usize,
    /// Tasks refused by admission control.
    pub rejected: usize,
    /// Tasks run to completion.
    pub completed: usize,
    /// Accepted tasks discarded after expiry.
    pub dropped: usize,
    /// Accepted tasks withdrawn from the queue before running (the
    /// daemon's `/cancel`).
    pub cancelled: usize,
    /// Workflow members stranded by a predecessor's failure before ever
    /// being released (never submitted, so outside the
    /// submitted/accepted conservation identity).
    #[serde(default)]
    pub stranded: usize,
    /// Total preemption events (including crash evictions).
    pub preemptions: u64,
    /// Running gangs evicted by crashes (a subset of `preemptions`).
    pub evictions: u64,
    /// Processors lost to crashes so far.
    pub crashed_procs: u64,
    /// Processors restored by repairs so far.
    pub repaired_procs: u64,
    /// Tasks started out of score order by EASY backfilling.
    pub backfills: u64,
    /// Σ earned yield over completed + dropped tasks (penalties included).
    pub total_yield: f64,
    /// Σ of only the negative earnings (≤ 0): the penalties paid.
    pub total_penalty: f64,
    /// First submission instant.
    pub first_arrival: Option<Time>,
    /// Last completion/drop instant.
    pub last_finish: Option<Time>,
    /// Distribution of delays over completed tasks.
    pub delay: OnlineStats,
    /// Distribution of per-task earnings over completed + dropped tasks.
    pub earnings: OnlineStats,
}

impl SiteMetrics {
    /// Length of the active interval: first arrival to last completion.
    pub fn active_span(&self) -> f64 {
        match (self.first_arrival, self.last_finish) {
            (Some(a), Some(f)) if f > a => (f - a).as_f64(),
            _ => 0.0,
        }
    }

    /// Average yield earned per unit of time over the active interval —
    /// the y-axis of the paper's Figure 6.
    pub fn yield_rate(&self) -> f64 {
        let span = self.active_span();
        if span > 0.0 {
            self.total_yield / span
        } else {
            0.0
        }
    }

    /// Fraction of submitted tasks that were accepted.
    pub fn acceptance_ratio(&self) -> f64 {
        if self.submitted == 0 {
            0.0
        } else {
            self.accepted as f64 / self.submitted as f64
        }
    }

    pub(crate) fn note_submission(&mut self, at: Time) {
        self.submitted += 1;
        if self.first_arrival.is_none() {
            self.first_arrival = Some(at);
        }
    }

    pub(crate) fn note_finish(&mut self, at: Time, earned: f64) {
        self.total_yield += earned;
        if earned < 0.0 {
            self.total_penalty += earned;
        }
        self.earnings.push(earned);
        self.last_finish = Some(match self.last_finish {
            Some(prev) => prev.max(at),
            None => at,
        });
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn active_span_and_yield_rate() {
        let mut m = SiteMetrics::default();
        m.note_submission(Time::from(10.0));
        m.note_finish(Time::from(110.0), 50.0);
        m.note_finish(Time::from(60.0), 30.0);
        assert_eq!(m.active_span(), 100.0);
        assert!((m.yield_rate() - 0.8).abs() < 1e-12);
        // last_finish keeps the max even with out-of-order notes.
        assert_eq!(m.last_finish, Some(Time::from(110.0)));
    }

    #[test]
    fn penalties_accumulate_separately() {
        let mut m = SiteMetrics::default();
        m.note_finish(Time::from(1.0), 10.0);
        m.note_finish(Time::from(2.0), -4.0);
        assert_eq!(m.total_yield, 6.0);
        assert_eq!(m.total_penalty, -4.0);
        assert_eq!(m.earnings.count(), 2);
    }

    #[test]
    fn empty_metrics_are_benign() {
        let m = SiteMetrics::default();
        assert_eq!(m.active_span(), 0.0);
        assert_eq!(m.yield_rate(), 0.0);
        assert_eq!(m.acceptance_ratio(), 0.0);
    }

    #[test]
    fn acceptance_ratio() {
        let mut m = SiteMetrics::default();
        for i in 0..10 {
            m.note_submission(Time::from(i as f64));
        }
        m.accepted = 7;
        m.rejected = 3;
        assert!((m.acceptance_ratio() - 0.7).abs() < 1e-12);
    }
}
