//! Cost accounting: per-rank clocks and the aggregated run report.

use crate::trace::{phase_breakdown, PhaseBreakdown, Profile};

/// Critical-path clocks carried by each rank (§3.1 cost model).
///
/// `latency` counts messages, `bandwidth` counts words, `compute` counts
/// scalar semiring operations. The clocks advance monotonically: locally on
/// sends/compute, and by element-wise max on receives (which is what makes
/// the end-state maximum the *critical-path* cost rather than a total).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct Clocks {
    /// Messages on this rank's critical path.
    pub latency: u64,
    /// Words on this rank's critical path.
    pub bandwidth: u64,
    /// Scalar operations on this rank's critical path.
    pub compute: u64,
}

impl Clocks {
    /// Element-wise maximum — the receive-side clock merge.
    pub fn merge_max(&mut self, other: &Clocks) {
        self.latency = self.latency.max(other.latency);
        self.bandwidth = self.bandwidth.max(other.bandwidth);
        self.compute = self.compute.max(other.compute);
    }
}

/// Per-rank statistics collected by a run.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct RankStats {
    /// Critical-path clocks at rank exit.
    pub clocks: Clocks,
    /// Messages this rank sent (a *total*, not critical-path).
    pub sent_messages: u64,
    /// Words this rank sent (a *total*).
    pub sent_words: u64,
    /// Peak tracked memory in words (see [`crate::Comm::alloc`]).
    pub peak_words: u64,
    /// Currently tracked memory at exit (should normally return to the
    /// resident working set).
    pub resident_words: u64,
}

/// Aggregated result of a [`crate::Machine::run`].
#[derive(Clone, Debug, Default)]
pub struct RunReport {
    /// Statistics per rank.
    pub per_rank: Vec<RankStats>,
    /// Observability payload (span ledgers, comm matrix, event streams),
    /// present when the run was launched with [`crate::MachineSpec::profile`].
    pub profile: Option<Profile>,
}

impl RunReport {
    /// Critical-path latency `L`: the maximum rank latency clock.
    pub fn critical_latency(&self) -> u64 {
        self.per_rank.iter().map(|r| r.clocks.latency).max().unwrap_or(0)
    }

    /// Critical-path bandwidth `B`: the maximum rank bandwidth clock.
    pub fn critical_bandwidth(&self) -> u64 {
        self.per_rank.iter().map(|r| r.clocks.bandwidth).max().unwrap_or(0)
    }

    /// Critical-path compute: the maximum rank compute clock.
    pub fn critical_compute(&self) -> u64 {
        self.per_rank.iter().map(|r| r.clocks.compute).max().unwrap_or(0)
    }

    /// Total words sent across all ranks (communication volume).
    pub fn total_words(&self) -> u64 {
        self.per_rank.iter().map(|r| r.sent_words).sum()
    }

    /// Total messages sent across all ranks.
    pub fn total_messages(&self) -> u64 {
        self.per_rank.iter().map(|r| r.sent_messages).sum()
    }

    /// Largest per-rank peak memory, in words — the paper's `M`.
    pub fn max_peak_words(&self) -> u64 {
        self.per_rank.iter().map(|r| r.peak_words).max().unwrap_or(0)
    }

    /// Projects the critical-path costs onto an α-β machine model:
    /// `T = α·L + β·B + γ·F` (per-message latency, per-word transfer time,
    /// per-scalar-op compute time). The §3.1 cost *counts* are
    /// machine-independent; this helper turns them into an estimated wall
    /// time for a concrete interconnect, e.g. `α = 1e-6 s`, `β = 1e-9 s`,
    /// `γ = 1e-10 s` for an InfiniBand-class cluster.
    pub fn projected_time(&self, alpha: f64, beta: f64, gamma: f64) -> f64 {
        alpha * self.critical_latency() as f64
            + beta * self.critical_bandwidth() as f64
            + gamma * self.critical_compute() as f64
    }

    /// Per-phase attribution of the critical-path cost, built from the
    /// span ledgers at nesting `depth` (0 = top-level phases). `None`
    /// unless the run was profiled. See
    /// [`PhaseBreakdown::exact`] for the exact-sum guarantee.
    pub fn phase_breakdown(&self, depth: u32) -> Option<PhaseBreakdown> {
        self.profile.as_ref().map(|p| phase_breakdown(p, depth))
    }

    /// Merges another report (used to accumulate multi-phase pipelines).
    /// Profiles merge too when both sides carry one: the other run's span
    /// ledger is appended with its snapshots shifted past this run's end
    /// state (the same sequential-composition rule as the clocks).
    pub fn absorb(&mut self, other: &RunReport) {
        if self.per_rank.is_empty() {
            self.per_rank = other.per_rank.clone();
            self.profile = other.profile.clone();
            return;
        }
        assert_eq!(self.per_rank.len(), other.per_rank.len(), "rank count mismatch");
        match (&mut self.profile, &other.profile) {
            (Some(mine), Some(theirs)) => mine.absorb(theirs),
            (profile @ Some(_), None) => *profile = None,
            _ => {}
        }
        for (a, b) in self.per_rank.iter_mut().zip(&other.per_rank) {
            a.clocks.latency += b.clocks.latency;
            a.clocks.bandwidth += b.clocks.bandwidth;
            a.clocks.compute += b.clocks.compute;
            a.sent_messages += b.sent_messages;
            a.sent_words += b.sent_words;
            a.peak_words = a.peak_words.max(b.peak_words);
            a.resident_words = a.resident_words.max(b.resident_words);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn merge_max_is_elementwise() {
        let mut a = Clocks { latency: 3, bandwidth: 10, compute: 0 };
        a.merge_max(&Clocks { latency: 1, bandwidth: 20, compute: 5 });
        assert_eq!(a, Clocks { latency: 3, bandwidth: 20, compute: 5 });
    }

    #[test]
    fn report_aggregations() {
        let report = RunReport {
            per_rank: vec![
                RankStats {
                    clocks: Clocks { latency: 4, bandwidth: 100, compute: 7 },
                    sent_messages: 2,
                    sent_words: 50,
                    peak_words: 30,
                    resident_words: 10,
                },
                RankStats {
                    clocks: Clocks { latency: 6, bandwidth: 80, compute: 3 },
                    sent_messages: 1,
                    sent_words: 20,
                    peak_words: 60,
                    resident_words: 5,
                },
            ],
            profile: None,
        };
        assert_eq!(report.critical_latency(), 6);
        assert_eq!(report.critical_bandwidth(), 100);
        assert_eq!(report.critical_compute(), 7);
        assert_eq!(report.total_words(), 70);
        assert_eq!(report.total_messages(), 3);
        assert_eq!(report.max_peak_words(), 60);
    }

    #[test]
    fn projected_time_is_linear_in_the_knobs() {
        let report = RunReport {
            per_rank: vec![RankStats {
                clocks: Clocks { latency: 10, bandwidth: 1000, compute: 100_000 },
                ..Default::default()
            }],
            profile: None,
        };
        let t = report.projected_time(1e-6, 1e-9, 1e-10);
        assert!((t - (10e-6 + 1e-6 + 1e-5)).abs() < 1e-12);
        assert_eq!(report.projected_time(0.0, 0.0, 0.0), 0.0);
    }

    #[test]
    fn absorb_accumulates() {
        let r1 = RunReport {
            per_rank: vec![RankStats {
                clocks: Clocks { latency: 2, bandwidth: 5, compute: 1 },
                sent_messages: 1,
                sent_words: 5,
                peak_words: 8,
                resident_words: 8,
            }],
            profile: None,
        };
        let mut acc = RunReport::default();
        acc.absorb(&r1);
        acc.absorb(&r1);
        assert_eq!(acc.critical_latency(), 4);
        assert_eq!(acc.total_words(), 10);
        assert_eq!(acc.max_peak_words(), 8);
    }
}
