//! Deterministic, seed-reproducible fault injection for the simulated
//! machine.
//!
//! The reproduction's claims rest on the machine's exact
//! bandwidth/latency/memory accounting, so the fault layer is built to be
//! **replayable**: every injection decision is a pure hash of
//! `(seed, src, dst, tag, seq, attempt)`. Two runs of the same program
//! under the same [`FaultPlan`] inject the same faults at the same points
//! and produce bit-identical [`crate::RunReport`]s — a failing chaos run
//! is a test case, not a flake.
//!
//! ## Fault model
//!
//! A plan can inject, per physical message attempt:
//!
//! * **drop** — the message leaves the sender's NIC (its `(1, w)` send
//!   cost is charged, it appears in the comm matrix and trace) and
//!   vanishes. The sender's retransmit timer fires after an
//!   exponential-backoff timeout charged to its latency clock, and the
//!   message is retransmitted.
//! * **corrupt** — the message is delivered with a payload bit flipped;
//!   the receiver's checksum rejects it, the copy is discarded (its port
//!   cost is still charged), and the sender retransmits after a timeout.
//! * **duplicate** — the network delivers two identical copies; the
//!   receiver discards the second by sequence number.
//! * **delay** — the message spends extra latency units "on the wire":
//!   its carried clock snapshot is inflated, so the receiver's
//!   critical-path merge sees a late arrival while the sender is
//!   unaffected.
//! * **straggler** — a per-rank compute-clock multiplier
//!   ([`crate::Comm::compute`] charges `factor × ops`), modeling a slow
//!   node.
//! * **kill** — a link `(src, dst)` drops *every* attempt, or a whole
//!   rank's links drop from a given phase boundary on. Retries exhaust
//!   and the run fails loudly with a [`FaultError`] naming the message —
//!   never a silently wrong answer. Under
//!   [`crate::MachineSpec::recovery`] the supervisor instead rolls
//!   back to the last checkpoint and (for permanent kills) remaps the
//!   victim onto a spare rank.
//!
//! Probabilistic faults only fire on the first [`INJECT_ATTEMPTS`]
//! attempts of a message, so any plan without `kill` rules is
//! *recoverable by construction* (the default retry budget exceeds the
//! injection window). Recovery overhead — retransmitted messages and
//! words, backoff latency, duplicate port costs — is charged to the same
//! cost ledgers as ordinary traffic, so it shows up in
//! [`crate::RunReport`], span ledgers, and the comm matrix.
//!
//! An **empty plan is free**: the protocol adds sequence numbers and
//! checksums as constant-size envelope metadata (part of the α
//! per-message cost in the §3.1 model, not payload words), so a run under
//! `FaultPlan::new(seed)` is byte-identical to one without the fault
//! layer.
//!
//! ## Spec grammar (CLI `--faults`)
//!
//! Comma-separated `key=value` clauses:
//!
//! ```text
//! drop=P            drop each message with probability P (0 ≤ P ≤ 1)
//! dup=P             duplicate deliveries with probability P
//! corrupt=P         corrupt payloads with probability P
//! delay=P[:D]       delay with probability P by D latency units (default 4)
//! straggle=R:F      slow rank R's compute clock by factor F (repeatable)
//! kill=S>D          drop everything S→D — permanent (repeatable)
//! kill=R[@B]        kill rank R from phase boundary B on (default 0; repeatable)
//! retries=N         per-message retransmission budget (default 6)
//! ```
//!
//! Example: `drop=0.05,dup=0.02,delay=0.1:8,straggle=3:4`.

use crate::comm::Rank;

/// Probabilistic faults are only injected on this many leading attempts
/// of each message, so plans without [`FaultPlan::with_kill`] rules
/// always recover within the default retry budget.
pub const INJECT_ATTEMPTS: u32 = 2;

const DEFAULT_RETRIES: u32 = 6;
const DEFAULT_DELAY: u64 = 4;
const PPM: u64 = 1_000_000;

// Distinct salts per fault kind, so the decisions are independent.
const SALT_DROP: u64 = 0xD909;
const SALT_DUP: u64 = 0xD112;
const SALT_CORRUPT: u64 = 0xC088;
const SALT_DELAY: u64 = 0xDE1A;

/// A deterministic fault-injection plan for one machine run.
///
/// Decisions are keyed by `(src, dst, tag, seq, attempt)` and the plan's
/// seed, so replaying a run replays its faults exactly.
///
/// ```
/// use apsp_simnet::{FaultPlan, Machine, MachineSpec};
///
/// let plan = FaultPlan::new(7).with_drop(0.2).with_dup(0.1);
/// let spec = MachineSpec { faults: Some(&plan), ..Default::default() };
/// let run = || {
///     Machine::launch(2, &spec, |comm| match comm.rank() {
///         0 => comm.send(1, 1, vec![1.0, 2.0]),
///         _ => assert_eq!(comm.recv(0, 1), vec![1.0, 2.0]),
///     })
///     .expect("plan has no kill rules, so every message recovers")
/// };
/// let (a, b) = (run(), run());
/// // seed-reproducible: identical costs and identical fault history
/// assert_eq!(a.report.per_rank[1].clocks, b.report.per_rank[1].clocks);
/// assert_eq!(a.faults, b.faults);
/// ```
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct FaultPlan {
    seed: u64,
    drop_ppm: u32,
    dup_ppm: u32,
    corrupt_ppm: u32,
    delay_ppm: u32,
    delay_units: u64,
    retries: u32,
    /// `(rank, factor)` compute-clock multipliers.
    stragglers: Vec<(Rank, u64)>,
    /// Links whose every message attempt is dropped.
    kills: Vec<(Rank, Rank)>,
    /// `(rank, from_boundary)`: every link touching `rank` drops once the
    /// sender's phase-boundary counter reaches `from_boundary`.
    kill_ranks: Vec<(Rank, u64)>,
}

impl FaultPlan {
    /// An empty (fault-free) plan with the given seed. Running under an
    /// empty plan is byte-identical to running without the fault layer.
    pub fn new(seed: u64) -> Self {
        FaultPlan { seed, delay_units: DEFAULT_DELAY, retries: DEFAULT_RETRIES, ..Self::default() }
    }

    /// Drops each message attempt with probability `p`.
    pub fn with_drop(mut self, p: f64) -> Self {
        self.drop_ppm = ppm(p);
        self
    }

    /// Duplicates deliveries with probability `p`.
    pub fn with_dup(mut self, p: f64) -> Self {
        self.dup_ppm = ppm(p);
        self
    }

    /// Corrupts payloads with probability `p`.
    pub fn with_corrupt(mut self, p: f64) -> Self {
        self.corrupt_ppm = ppm(p);
        self
    }

    /// Delays deliveries with probability `p` by `units` latency units.
    pub fn with_delay(mut self, p: f64, units: u64) -> Self {
        self.delay_ppm = ppm(p);
        self.delay_units = units;
        self
    }

    /// Multiplies `rank`'s compute clock by `factor` (a straggler node).
    pub fn with_straggler(mut self, rank: Rank, factor: u64) -> Self {
        assert!(factor >= 1, "straggler factor must be ≥ 1");
        self.stragglers.push((rank, factor));
        self
    }

    /// Drops **every** attempt on the `src → dst` link — models a lost
    /// executor; any message on the link becomes unrecoverable.
    pub fn with_kill(mut self, src: Rank, dst: Rank) -> Self {
        self.kills.push((src, dst));
        self
    }

    /// Kills `rank` outright: every link touching it drops from the start
    /// of the run. Equivalent to [`FaultPlan::with_kill_rank_from`] with
    /// boundary 0.
    pub fn with_kill_rank(self, rank: Rank) -> Self {
        self.with_kill_rank_from(rank, 0)
    }

    /// Kills `rank` once the **sender's** phase-boundary counter (see
    /// [`crate::Comm::commit_phase`]) reaches `from_boundary`: from then
    /// on every attempt to or from `rank` drops. Phases are SPMD, so
    /// keying on the sender's counter is deterministic, and the boundary
    /// counter only grows — a rank kill is permanent and survivable only
    /// by spare-rank takeover.
    pub fn with_kill_rank_from(mut self, rank: Rank, from_boundary: u64) -> Self {
        self.kill_ranks.push((rank, from_boundary));
        self
    }

    /// Sets the per-message retransmission budget.
    pub fn with_retries(mut self, retries: u32) -> Self {
        assert!(retries >= 1, "at least one retry");
        self.retries = retries;
        self
    }

    /// Parses the `--faults` spec grammar (see the module docs).
    pub fn parse(spec: &str, seed: u64) -> Result<Self, String> {
        let mut plan = FaultPlan::new(seed);
        for clause in spec.split(',').map(str::trim).filter(|c| !c.is_empty()) {
            let (key, value) = clause
                .split_once('=')
                .ok_or_else(|| format!("fault clause `{clause}` is not key=value"))?;
            let prob = |v: &str| -> Result<f64, String> {
                let p: f64 =
                    v.parse().map_err(|_| format!("bad probability `{v}` in `{clause}`"))?;
                if !(0.0..=1.0).contains(&p) {
                    return Err(format!("probability `{v}` outside [0, 1] in `{clause}`"));
                }
                Ok(p)
            };
            match key {
                "drop" => plan = plan.with_drop(prob(value)?),
                "dup" => plan = plan.with_dup(prob(value)?),
                "corrupt" => plan = plan.with_corrupt(prob(value)?),
                "delay" => {
                    let (p, units) = match value.split_once(':') {
                        Some((p, d)) => (
                            prob(p)?,
                            d.parse().map_err(|_| format!("bad delay units in `{clause}`"))?,
                        ),
                        None => (prob(value)?, DEFAULT_DELAY),
                    };
                    plan = plan.with_delay(p, units);
                }
                "straggle" => {
                    let (r, f) = value
                        .split_once(':')
                        .ok_or_else(|| format!("straggle wants RANK:FACTOR in `{clause}`"))?;
                    let rank =
                        r.parse().map_err(|_| format!("bad straggler rank in `{clause}`"))?;
                    let factor: u64 =
                        f.parse().map_err(|_| format!("bad straggler factor in `{clause}`"))?;
                    if factor < 1 {
                        return Err(format!("straggler factor must be ≥ 1 in `{clause}`"));
                    }
                    plan = plan.with_straggler(rank, factor);
                }
                "kill" => {
                    if let Some((s, d)) = value.split_once('>') {
                        let src = s.parse().map_err(|_| format!("bad kill src in `{clause}`"))?;
                        let dst = d.parse().map_err(|_| format!("bad kill dst in `{clause}`"))?;
                        plan = plan.with_kill(src, dst);
                    } else {
                        let (r, b) = match value.split_once('@') {
                            Some((r, b)) => (
                                r,
                                b.parse()
                                    .map_err(|_| format!("bad kill boundary in `{clause}`"))?,
                            ),
                            None => (value, 0),
                        };
                        let rank = r.parse().map_err(|_| {
                            format!("kill wants SRC>DST or RANK[@BOUNDARY] in `{clause}`")
                        })?;
                        plan = plan.with_kill_rank_from(rank, b);
                    }
                }
                "retries" => {
                    let n: u32 =
                        value.parse().map_err(|_| format!("bad retry count in `{clause}`"))?;
                    if n < 1 {
                        return Err(format!("retries must be ≥ 1 in `{clause}`"));
                    }
                    plan = plan.with_retries(n);
                }
                other => return Err(format!("unknown fault kind `{other}`")),
            }
        }
        Ok(plan)
    }

    /// The plan's seed.
    pub fn seed(&self) -> u64 {
        self.seed
    }

    /// `true` when the plan injects nothing (seed aside).
    pub fn is_empty(&self) -> bool {
        *self == FaultPlan::new(self.seed).with_retries(self.retries)
    }

    /// The per-message retransmission budget.
    pub fn retries(&self) -> u32 {
        self.retries
    }

    /// Retransmit-timeout latency charged before retry `attempt` (1-based):
    /// exponential backoff `2 · 2^(attempt−1)`, capped at 2¹⁶.
    pub fn backoff(&self, attempt: u32) -> u64 {
        2u64 << (attempt - 1).min(15)
    }

    /// Compute-clock multiplier for `rank` (1 = full speed).
    pub fn slowdown(&self, rank: Rank) -> u64 {
        self.stragglers.iter().rev().find(|&&(r, _)| r == rank).map_or(1, |&(_, f)| f)
    }

    /// The injection decision for one physical attempt of message
    /// `(src, dst, tag, seq)` — a pure function of the plan. Equivalent
    /// to [`FaultPlan::injection_at`] in epoch 0 at boundary 0.
    pub fn injection(&self, src: Rank, dst: Rank, tag: u64, seq: u64, attempt: u32) -> Injection {
        self.injection_at(0, 0, src, dst, tag, seq, attempt)
    }

    /// The injection decision for one physical attempt, positioned in the
    /// recovery timeline: `epoch` re-keys the probabilistic stream on each
    /// supervisor restart (so a transient fault does not recur at the same
    /// message forever), and `boundary` is the sender's phase-boundary
    /// counter, against which rank-kill rules are matched. Epoch 0 is
    /// bit-identical to [`FaultPlan::injection`] — the recovery layer adds
    /// nothing to a first execution.
    #[allow(clippy::too_many_arguments)]
    pub fn injection_at(
        &self,
        epoch: u32,
        boundary: u64,
        src: Rank,
        dst: Rank,
        tag: u64,
        seq: u64,
        attempt: u32,
    ) -> Injection {
        if self.kills.iter().any(|&(s, d)| (s, d) == (src, dst)) {
            return Injection::Drop;
        }
        if self.kill_ranks.iter().any(|&(r, from)| (r == src || r == dst) && boundary >= from) {
            return Injection::Drop;
        }
        if attempt >= INJECT_ATTEMPTS {
            return Injection::Deliver { corrupt: false, duplicate: false, delay: 0 };
        }
        let seed = epoch_seed(self.seed, epoch);
        let fires = |salt: u64, p: u32| {
            p > 0 && decide(seed, salt, src, dst, tag, seq, attempt) % PPM < p as u64
        };
        if fires(SALT_DROP, self.drop_ppm) {
            return Injection::Drop;
        }
        let corrupt = fires(SALT_CORRUPT, self.corrupt_ppm);
        Injection::Deliver {
            corrupt,
            // a corrupted attempt is retransmitted; dup/delay ride on it
            duplicate: !corrupt && fires(SALT_DUP, self.dup_ppm),
            delay: if !corrupt && fires(SALT_DELAY, self.delay_ppm) { self.delay_units } else { 0 },
        }
    }

    /// `true` when the plan eventually kills the `src → dst` link
    /// permanently — by a link rule or a rank rule on either endpoint.
    /// The recovery supervisor uses this to tell a transient fault
    /// (retry the same ranks) from a permanent one (remap onto a spare).
    pub fn kills_link(&self, src: Rank, dst: Rank) -> bool {
        self.kills.iter().any(|&(s, d)| (s, d) == (src, dst))
            || self.kill_ranks.iter().any(|&(r, _)| r == src || r == dst)
    }

    /// `true` when a rank-kill rule targets `rank` (at any boundary).
    pub fn kills_rank(&self, rank: Rank) -> bool {
        self.kill_ranks.iter().any(|&(r, _)| r == rank)
    }

    /// The earliest phase boundary at which a rank-kill rule takes `rank`
    /// down, if any. On the simulator the kill manifests as dropped
    /// messages; the native backend uses this to unwind the rank's
    /// program once its boundary counter reaches the trigger.
    pub fn kill_boundary(&self, rank: Rank) -> Option<u64> {
        self.kill_ranks.iter().filter(|&&(r, _)| r == rank).map(|&(_, from)| from).min()
    }
}

/// The probabilistic stream's seed for a recovery epoch: epoch 0 keeps the
/// plan seed untouched (first executions are unaffected by the recovery
/// layer); later epochs mix the epoch in so re-executions see fresh,
/// still-deterministic injection decisions.
fn epoch_seed(seed: u64, epoch: u32) -> u64 {
    if epoch == 0 {
        seed
    } else {
        mix(seed ^ (0xE90C_u64 << 32) ^ epoch as u64)
    }
}

fn decide(seed: u64, salt: u64, src: Rank, dst: Rank, tag: u64, seq: u64, attempt: u32) -> u64 {
    let mut h = seed ^ salt.wrapping_mul(0x9E37_79B9_7F4A_7C15);
    for v in [src as u64, dst as u64, tag, seq, attempt as u64] {
        h = mix(h.wrapping_add(v).wrapping_add(0x9E37_79B9_7F4A_7C15));
    }
    h
}

/// SplitMix64 finalizer — the workspace's standard deterministic mixer.
fn mix(mut z: u64) -> u64 {
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

fn ppm(p: f64) -> u32 {
    assert!((0.0..=1.0).contains(&p), "probability outside [0, 1]");
    (p * PPM as f64).round() as u32
}

/// What the network does with one physical message attempt.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Injection {
    /// The attempt vanishes on the wire; the sender's retransmit timer
    /// will fire.
    Drop,
    /// The attempt reaches the receiver's channel.
    Deliver {
        /// A payload bit is flipped; the receiver's checksum rejects the
        /// copy and the sender retransmits.
        corrupt: bool,
        /// The network delivers a second identical copy.
        duplicate: bool,
        /// Extra latency units spent on the wire (inflates the carried
        /// clock snapshot, delaying the receiver's merge).
        delay: u64,
    },
}

/// Checksum over payload bits (SplitMix64-folded). Constant-size envelope
/// metadata — charged to the per-message α cost, not the word count.
pub fn checksum(payload: &[f64]) -> u64 {
    let mut h = 0x5EED_C0DE_u64;
    for w in payload {
        h = mix(h ^ w.to_bits());
    }
    h
}

/// Per-rank fault counters, collected during a faulty run.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct FaultStats {
    /// Message attempts dropped by injection (including kill rules).
    pub drops_injected: u64,
    /// Message attempts delivered corrupted.
    pub corruptions_injected: u64,
    /// Deliveries duplicated by the network.
    pub duplicates_injected: u64,
    /// Deliveries delayed on the wire.
    pub delays_injected: u64,
    /// Sender-side retransmissions (attempts beyond the first).
    pub retransmissions: u64,
    /// Messages delivered only after ≥ 1 failed attempt.
    pub recovered_messages: u64,
    /// Retransmit-timeout latency units charged to this rank's clock.
    pub backoff_latency: u64,
    /// Corrupted copies the receiver's checksum rejected.
    pub corruptions_detected: u64,
    /// Duplicate copies the receiver discarded by sequence number.
    pub duplicates_discarded: u64,
    /// Extra compute-clock ops charged by a straggler slowdown.
    pub straggler_ops: u64,
}

impl FaultStats {
    /// Adds another rank-or-run's counters into this one.
    pub fn absorb(&mut self, other: &FaultStats) {
        self.drops_injected += other.drops_injected;
        self.corruptions_injected += other.corruptions_injected;
        self.duplicates_injected += other.duplicates_injected;
        self.delays_injected += other.delays_injected;
        self.retransmissions += other.retransmissions;
        self.recovered_messages += other.recovered_messages;
        self.backoff_latency += other.backoff_latency;
        self.corruptions_detected += other.corruptions_detected;
        self.duplicates_discarded += other.duplicates_discarded;
        self.straggler_ops += other.straggler_ops;
    }
}

/// Aggregated fault history of a run under [`crate::MachineSpec::faults`].
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct FaultSummary {
    /// Counters per rank.
    pub per_rank: Vec<FaultStats>,
    /// Messages that exhausted their retries. Zero on every `Ok` run —
    /// an unrecoverable message fails the run with a [`FaultError`]
    /// instead of returning.
    pub unrecoverable: u64,
}

impl FaultSummary {
    /// Counters summed over ranks.
    pub fn totals(&self) -> FaultStats {
        let mut t = FaultStats::default();
        for r in &self.per_rank {
            t.absorb(r);
        }
        t
    }

    /// Total injected faults: drops + corruptions + duplicates + delays.
    pub fn injected(&self) -> u64 {
        let t = self.totals();
        t.drops_injected + t.corruptions_injected + t.duplicates_injected + t.delays_injected
    }

    /// Total recoveries: messages retransmitted to success, duplicates
    /// discarded, and delayed messages (which recover by arriving).
    pub fn recovered(&self) -> u64 {
        let t = self.totals();
        t.recovered_messages + t.duplicates_discarded + t.delays_injected
    }

    /// Merges a later run's summary (pipeline composition).
    pub fn absorb(&mut self, other: &FaultSummary) {
        if self.per_rank.is_empty() {
            *self = other.clone();
            return;
        }
        assert_eq!(self.per_rank.len(), other.per_rank.len(), "rank count mismatch");
        for (a, b) in self.per_rank.iter_mut().zip(&other.per_rank) {
            a.absorb(b);
        }
        self.unrecoverable += other.unrecoverable;
    }

    /// One-line human-readable digest.
    pub fn digest(&self) -> String {
        let t = self.totals();
        format!(
            "injected {} (drops {}, corrupt {}, dup {}, delays {}), recovered {}, \
             unrecoverable {}; {} retransmissions, {} backoff latency, {} straggler ops",
            self.injected(),
            t.drops_injected,
            t.corruptions_injected,
            t.duplicates_injected,
            t.delays_injected,
            self.recovered(),
            self.unrecoverable,
            t.retransmissions,
            t.backoff_latency,
            t.straggler_ops,
        )
    }
}

/// An unrecoverable message: its retry budget ran out (a `kill` rule, or
/// a retry budget below [`INJECT_ATTEMPTS`]). Carried as the panic
/// payload out of the failing rank and surfaced as the `Err` of
/// [`crate::Machine::launch`].
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct FaultError {
    /// Sending rank.
    pub src: Rank,
    /// Receiving rank.
    pub dst: Rank,
    /// Message tag.
    pub tag: u64,
    /// Per-channel sequence number of the undeliverable message.
    pub seq: u64,
    /// Attempts made before giving up.
    pub attempts: u32,
}

impl std::fmt::Display for FaultError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "unrecoverable fault: message {} → {} (tag {:#x}, seq {}) undeliverable \
             after {} attempts — link dead or retry budget exhausted",
            self.src, self.dst, self.tag, self.seq, self.attempts
        )
    }
}

impl std::error::Error for FaultError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn decisions_are_deterministic_and_keyed() {
        let plan = FaultPlan::new(42).with_drop(0.5);
        let a = plan.injection(0, 1, 7, 3, 0);
        let b = plan.injection(0, 1, 7, 3, 0);
        assert_eq!(a, b);
        // a different key can decide differently; over many keys roughly
        // half the messages drop
        let drops =
            (0..1000).filter(|&seq| plan.injection(0, 1, 7, seq, 0) == Injection::Drop).count();
        assert!((350..650).contains(&drops), "{drops} drops out of 1000 at p = 0.5");
    }

    #[test]
    fn different_seeds_give_different_streams() {
        let a = FaultPlan::new(1).with_drop(0.5);
        let b = FaultPlan::new(2).with_drop(0.5);
        let differ =
            (0..100).any(|seq| a.injection(0, 1, 0, seq, 0) != b.injection(0, 1, 0, seq, 0));
        assert!(differ);
    }

    #[test]
    fn injection_window_guarantees_recovery() {
        // even at p = 1, attempts past the window deliver clean
        let plan = FaultPlan::new(9).with_drop(1.0).with_corrupt(1.0);
        for attempt in INJECT_ATTEMPTS..plan.retries() {
            assert_eq!(
                plan.injection(0, 1, 0, 0, attempt),
                Injection::Deliver { corrupt: false, duplicate: false, delay: 0 }
            );
        }
        const { assert!(INJECT_ATTEMPTS < DEFAULT_RETRIES, "default budget outlasts injections") };
    }

    #[test]
    fn kill_drops_every_attempt() {
        let plan = FaultPlan::new(0).with_kill(2, 5);
        for attempt in 0..20 {
            assert_eq!(plan.injection(2, 5, 9, 1, attempt), Injection::Drop);
        }
        assert_ne!(plan.injection(5, 2, 9, 1, 5), Injection::Drop, "reverse link is alive");
    }

    #[test]
    fn rank_kill_waits_for_its_boundary() {
        let plan = FaultPlan::new(0).with_kill_rank_from(2, 3);
        // before boundary 3 the rank is healthy, in either direction
        assert_ne!(plan.injection_at(0, 2, 2, 1, 9, 0, 5), Injection::Drop);
        assert_ne!(plan.injection_at(0, 2, 1, 2, 9, 0, 5), Injection::Drop);
        // from boundary 3 on, every attempt touching rank 2 drops
        for boundary in 3..6 {
            for attempt in 0..20 {
                assert_eq!(plan.injection_at(0, boundary, 2, 1, 9, 0, attempt), Injection::Drop);
                assert_eq!(plan.injection_at(0, boundary, 1, 2, 9, 0, attempt), Injection::Drop);
            }
        }
        // uninvolved links stay alive
        assert_ne!(plan.injection_at(0, 5, 0, 1, 9, 0, 5), Injection::Drop);
        assert!(plan.kills_rank(2) && !plan.kills_rank(1));
        assert!(plan.kills_link(2, 1) && plan.kills_link(1, 2) && !plan.kills_link(0, 1));
    }

    #[test]
    fn epoch_rekeys_the_probabilistic_stream() {
        let plan = FaultPlan::new(42).with_drop(0.5);
        // epoch 0 is bit-identical to the legacy single-epoch hash
        for seq in 0..50 {
            assert_eq!(plan.injection(0, 1, 7, seq, 0), plan.injection_at(0, 0, 0, 1, 7, seq, 0));
        }
        // a later epoch decides differently somewhere, but deterministically
        let differ = (0..100)
            .any(|seq| plan.injection_at(1, 0, 0, 1, 7, seq, 0) != plan.injection(0, 1, 7, seq, 0));
        assert!(differ, "epoch 1 replays the same faults as epoch 0");
        assert_eq!(plan.injection_at(1, 0, 0, 1, 7, 3, 0), plan.injection_at(1, 0, 0, 1, 7, 3, 0));
        // kill rules ignore the epoch — they are permanent
        let killed = FaultPlan::new(0).with_kill(0, 1);
        assert_eq!(killed.injection_at(5, 0, 0, 1, 7, 3, 0), Injection::Drop);
    }

    #[test]
    fn backoff_is_exponential() {
        let plan = FaultPlan::new(0);
        assert_eq!(plan.backoff(1), 2);
        assert_eq!(plan.backoff(2), 4);
        assert_eq!(plan.backoff(3), 8);
        assert_eq!(plan.backoff(40), plan.backoff(30), "capped");
    }

    #[test]
    fn parse_roundtrips_the_grammar() {
        let plan = FaultPlan::parse("drop=0.05, dup=0.02,corrupt=0.01,delay=0.1:8", 7).unwrap();
        assert_eq!(
            plan,
            FaultPlan::new(7).with_drop(0.05).with_dup(0.02).with_corrupt(0.01).with_delay(0.1, 8)
        );
        let plan = FaultPlan::parse("straggle=3:4,kill=0>5,retries=9", 1).unwrap();
        assert_eq!(plan.slowdown(3), 4);
        assert_eq!(plan.slowdown(2), 1);
        assert_eq!(plan.retries(), 9);
        assert_eq!(plan.injection(0, 5, 0, 0, 8), Injection::Drop);
        assert!(FaultPlan::parse("", 0).unwrap().is_empty());
        let plan = FaultPlan::parse("kill=3", 0).unwrap();
        assert_eq!(plan, FaultPlan::new(0).with_kill_rank(3));
        let plan = FaultPlan::parse("kill=1@4, kill=0>2", 0).unwrap();
        assert_eq!(plan, FaultPlan::new(0).with_kill(0, 2).with_kill_rank_from(1, 4));
    }

    #[test]
    fn parse_rejects_bad_specs() {
        for bad in [
            "drop",
            "drop=2.0",
            "drop=x",
            "warp=0.1",
            "straggle=3",
            "kill=0-5",
            "retries=0",
            "straggle=1:0",
        ] {
            assert!(FaultPlan::parse(bad, 0).is_err(), "`{bad}` should not parse");
        }
    }

    #[test]
    fn checksum_detects_any_single_bit_flip() {
        let payload = vec![1.5, -2.25, 0.0, 3.0];
        let clean = checksum(&payload);
        for word in 0..payload.len() {
            for bit in [0, 17, 63] {
                let mut bad = payload.clone();
                bad[word] = f64::from_bits(bad[word].to_bits() ^ (1 << bit));
                assert_ne!(checksum(&bad), clean, "flip word {word} bit {bit}");
            }
        }
    }

    #[test]
    fn summary_digest_counts() {
        let mut s = FaultSummary { per_rank: vec![FaultStats::default(); 2], unrecoverable: 0 };
        s.per_rank[0].drops_injected = 3;
        s.per_rank[0].recovered_messages = 3;
        s.per_rank[1].duplicates_injected = 2;
        s.per_rank[1].duplicates_discarded = 2;
        assert_eq!(s.injected(), 5);
        assert_eq!(s.recovered(), 5);
        assert!(s.digest().contains("injected 5"));
        let mut t = FaultSummary::default();
        t.absorb(&s);
        t.absorb(&s);
        assert_eq!(t.injected(), 10);
    }
}
