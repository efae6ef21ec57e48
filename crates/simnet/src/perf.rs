//! Host-side observability counters for the machines — both of them: the
//! one epoch runner ([`crate::endpoint::run_epoch`]) and the one
//! supervisor ([`crate::recovery::supervise`]) record here, whichever
//! meter the endpoint carries (a native run reports zero messages and
//! words: its send path counts nothing).
//!
//! These are recorded **after** a run finishes, from the already-built
//! [`RunReport`] / [`FaultSummary`] / [`RecoveryReport`] aggregates — never
//! inside the send/recv hot path — so enabling them cannot perturb the
//! §3.1 cost clocks (the ledgers are written first; the counters only read
//! them). Totals accumulate across every machine launch in the process.

use crate::faults::FaultSummary;
use crate::recovery::RecoveryReport;
use crate::report::RunReport;
use apsp_metrics::{global, Counter};
use std::sync::{Arc, OnceLock};

/// The registered machine counters (see module docs for semantics).
pub struct MachineCounters {
    /// Completed machine launches (any mode).
    pub runs: Arc<Counter>,
    /// Ranks summed over completed launches.
    pub ranks: Arc<Counter>,
    /// Messages sent, summed over ranks and launches.
    pub messages: Arc<Counter>,
    /// Words sent, summed over ranks and launches.
    pub words: Arc<Counter>,
    /// Faults injected by the deterministic fault layer.
    pub faults_injected: Arc<Counter>,
    /// Retransmissions performed by the reliability protocol.
    pub retransmissions: Arc<Counter>,
    /// Messages the reliability protocol recovered.
    pub recovered_messages: Arc<Counter>,
    /// Checkpoint/restart supervisor restarts.
    pub restarts: Arc<Counter>,
    /// Words in the checkpoints finished runs rest on (net of rollbacks).
    pub snapshot_words: Arc<Counter>,
    /// Words discarded when rolling back past a cut.
    pub rollback_words: Arc<Counter>,
    /// Dead ranks remapped onto spare physical ids.
    pub spare_takeovers: Arc<Counter>,
}

/// The process-wide machine counters (registered on first use).
pub fn counters() -> &'static MachineCounters {
    static COUNTERS: OnceLock<MachineCounters> = OnceLock::new();
    COUNTERS.get_or_init(|| {
        let r = global();
        MachineCounters {
            runs: r.counter("apsp_simnet_runs_total", "Completed simulated-machine launches."),
            ranks: r.counter("apsp_simnet_ranks_total", "Ranks summed over completed launches."),
            messages: r
                .counter("apsp_simnet_messages_total", "Messages sent, summed over all ranks."),
            words: r.counter("apsp_simnet_words_total", "Words sent, summed over all ranks."),
            faults_injected: r.counter(
                "apsp_simnet_faults_injected_total",
                "Faults injected by the deterministic fault layer.",
            ),
            retransmissions: r.counter(
                "apsp_simnet_retransmissions_total",
                "Retransmissions performed by the reliability protocol.",
            ),
            recovered_messages: r.counter(
                "apsp_simnet_recovered_messages_total",
                "Messages recovered by the reliability protocol.",
            ),
            restarts: r
                .counter("apsp_simnet_restarts_total", "Checkpoint/restart supervisor restarts."),
            snapshot_words: r.counter(
                "apsp_simnet_snapshot_words_total",
                "Words in checkpoints, net of rollbacks.",
            ),
            rollback_words: r
                .counter("apsp_simnet_rollback_words_total", "Words discarded by rollbacks."),
            spare_takeovers: r.counter(
                "apsp_simnet_spare_takeovers_total",
                "Dead ranks remapped onto spare physical ids.",
            ),
        }
    })
}

/// Records one finished machine launch from its aggregates.
pub(crate) fn record_run(report: &RunReport, faults: Option<&FaultSummary>) {
    let c = counters();
    c.runs.inc();
    c.ranks.add(report.per_rank.len() as u64);
    c.messages.add(report.total_messages());
    c.words.add(report.total_words());
    if let Some(summary) = faults {
        let totals = summary.totals();
        c.faults_injected.add(summary.injected());
        c.retransmissions.add(totals.retransmissions);
        c.recovered_messages.add(totals.recovered_messages);
    }
}

/// Records one finished checkpoint/restart trajectory into the machine
/// counters. `discarded_words` is what its rollbacks pruned — kept out of
/// the report because it depends on thread scheduling.
pub(crate) fn record_recovery(recovery: &RecoveryReport, discarded_words: u64) {
    let c = counters();
    c.restarts.add(u64::from(recovery.restarts));
    c.snapshot_words.add(recovery.snapshot_words);
    c.rollback_words.add(discarded_words);
    c.spare_takeovers.add(recovery.spare_takeovers.len() as u64);
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::comm::Machine;

    // counters are process-global and tests run in parallel, so assert on
    // deltas being at least this test's own contribution.

    #[test]
    fn a_run_feeds_the_counters() {
        let c = counters();
        let (runs0, ranks0, msgs0) = (c.runs.get(), c.ranks.get(), c.messages.get());
        let (_, report) = Machine::run(2, |comm| {
            if comm.rank() == 0 {
                comm.send(1, 0x17, vec![1.0, 2.0]);
            } else {
                let _ = comm.recv(0, 0x17);
            }
        });
        assert_eq!(report.total_messages(), 1);
        assert!(c.runs.get() > runs0);
        assert!(c.ranks.get() >= ranks0 + 2);
        assert!(c.messages.get() > msgs0);
    }
}
