//! Phase-scoped observability: the span ledger, the communication matrix,
//! per-phase breakdowns, and trace exporters.
//!
//! The paper's entire evaluation is cost accounting — every Table 2 row
//! attributes latency/bandwidth/compute to an elimination-tree level and a
//! computing unit (`R¹`–`R⁴`). This module makes that attribution a
//! first-class artifact of a run instead of something reverse-engineered
//! from end-of-run totals:
//!
//! * [`crate::Comm::span`] opens a RAII **span**: it snapshots the rank's
//!   clocks, memory, and send counters on entry and exit, and the deltas
//!   land in a per-rank [`SpanLedger`]. Spans nest (`sparse2d` →
//!   `level` → `r4`), and because the §3.1 clocks are monotone
//!   nondecreasing, every span delta is non-negative and nested children
//!   never exceed their parent.
//! * [`Profile`] aggregates the ledgers of a [`crate::MachineSpec::profile`]
//!   run, including the per-`(src, dst, tag)` send counters folded into a
//!   `p×p` [`CommMatrix`].
//! * [`Profile::phase_breakdown`] turns uniform SPMD span sequences into a
//!   per-phase `(latency, bandwidth, compute)` table that **sums exactly**
//!   to the run's critical-path totals — the same telescoping-of-cumulative-
//!   maxima argument the paper uses to split Lemma 5.6 into per-level costs.
//! * [`Profile::chrome_trace_json`] and [`Profile::events_jsonl`] export the
//!   whole thing for `chrome://tracing` / Perfetto (hand-serialized; the
//!   workspace has no serde).

use crate::comm::{Rank, TraceEvent};
use crate::report::Clocks;
use std::collections::BTreeMap;

// ---------------------------------------------------------------------------
// Span ledger
// ---------------------------------------------------------------------------

/// Everything a span samples at its boundaries.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct SpanSnapshot {
    /// Critical-path clocks at the boundary.
    pub clocks: Clocks,
    /// Tracked resident memory in words.
    pub resident_words: u64,
    /// Cumulative messages this rank has sent.
    pub sent_messages: u64,
    /// Cumulative words this rank has sent.
    pub sent_words: u64,
}

/// One completed span on one rank.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct SpanRecord {
    /// Static phase name (e.g. `"level"`, `"r4"`, `"bcast"`).
    pub name: &'static str,
    /// Caller-chosen discriminator (e.g. the elimination-tree level).
    pub tag: u64,
    /// Nesting depth: 0 for top-level spans.
    pub depth: u32,
    /// Index of the enclosing span in the same ledger, if any.
    pub parent: Option<usize>,
    /// State at span entry.
    pub enter: SpanSnapshot,
    /// State at span exit.
    pub exit: SpanSnapshot,
}

impl SpanRecord {
    /// Clock delta across the span. Never underflows: §3.1 clocks are
    /// monotone (sends/compute add, receives take a max with a value not
    /// below the current one).
    pub fn clocks_delta(&self) -> Clocks {
        Clocks {
            latency: self.exit.clocks.latency - self.enter.clocks.latency,
            bandwidth: self.exit.clocks.bandwidth - self.enter.clocks.bandwidth,
            compute: self.exit.clocks.compute - self.enter.clocks.compute,
        }
    }

    /// Messages sent during the span.
    pub fn messages_delta(&self) -> u64 {
        self.exit.sent_messages - self.enter.sent_messages
    }

    /// Words sent during the span.
    pub fn words_delta(&self) -> u64 {
        self.exit.sent_words - self.enter.sent_words
    }
}

/// A rank's ordered collection of spans (entry order, i.e. preorder).
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct SpanLedger {
    /// All spans, in entry order.
    pub spans: Vec<SpanRecord>,
    /// Stack of currently open span indices.
    open: Vec<usize>,
}

impl SpanLedger {
    /// Opens a span and returns its index for the matching [`Self::exit`].
    pub fn enter(&mut self, name: &'static str, tag: u64, at: SpanSnapshot) -> usize {
        let idx = self.spans.len();
        self.spans.push(SpanRecord {
            name,
            tag,
            depth: self.open.len() as u32,
            parent: self.open.last().copied(),
            enter: at,
            exit: at,
        });
        self.open.push(idx);
        idx
    }

    /// Closes the span opened as `idx`. Spans close LIFO by construction
    /// (the guard is a borrow of the communicator).
    pub fn exit(&mut self, idx: usize, at: SpanSnapshot) {
        let popped = self.open.pop();
        debug_assert_eq!(popped, Some(idx), "span guards must close LIFO");
        self.spans[idx].exit = at;
    }

    /// All top-level (depth 0) spans, in order.
    pub fn top_level(&self) -> impl Iterator<Item = &SpanRecord> {
        self.spans.iter().filter(|s| s.depth == 0)
    }

    /// Direct children of span `idx`, in order.
    pub fn children(&self, idx: usize) -> impl Iterator<Item = &SpanRecord> {
        self.spans.iter().filter(move |s| s.parent == Some(idx))
    }
}

// ---------------------------------------------------------------------------
// Communication matrix
// ---------------------------------------------------------------------------

/// Dense `p×p` message/word counters, row = sender, column = receiver.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct CommMatrix {
    p: usize,
    messages: Vec<u64>,
    words: Vec<u64>,
}

impl CommMatrix {
    /// An all-zero `p×p` matrix.
    pub fn new(p: usize) -> Self {
        CommMatrix { p, messages: vec![0; p * p], words: vec![0; p * p] }
    }

    /// Rank count `p`.
    pub fn p(&self) -> usize {
        self.p
    }

    /// Adds `messages`/`words` to the `(src, dst)` cell.
    pub fn record(&mut self, src: Rank, dst: Rank, messages: u64, words: u64) {
        let cell = src * self.p + dst;
        self.messages[cell] += messages;
        self.words[cell] += words;
    }

    /// Messages sent `src → dst`.
    pub fn messages(&self, src: Rank, dst: Rank) -> u64 {
        self.messages[src * self.p + dst]
    }

    /// Words sent `src → dst`.
    pub fn words(&self, src: Rank, dst: Rank) -> u64 {
        self.words[src * self.p + dst]
    }

    /// Total messages sent by `src` (row sum).
    pub fn row_messages(&self, src: Rank) -> u64 {
        self.messages[src * self.p..(src + 1) * self.p].iter().sum()
    }

    /// Total words sent by `src` (row sum).
    pub fn row_words(&self, src: Rank) -> u64 {
        self.words[src * self.p..(src + 1) * self.p].iter().sum()
    }

    /// Total messages received by `dst` (column sum).
    pub fn col_messages(&self, dst: Rank) -> u64 {
        (0..self.p).map(|src| self.messages[src * self.p + dst]).sum()
    }

    /// Total words received by `dst` (column sum).
    pub fn col_words(&self, dst: Rank) -> u64 {
        (0..self.p).map(|src| self.words[src * self.p + dst]).sum()
    }

    /// Adds another matrix cell-wise (same `p`).
    pub fn absorb(&mut self, other: &CommMatrix) {
        assert_eq!(self.p, other.p, "comm matrix size mismatch");
        for (a, b) in self.messages.iter_mut().zip(&other.messages) {
            *a += b;
        }
        for (a, b) in self.words.iter_mut().zip(&other.words) {
            *a += b;
        }
    }
}

// ---------------------------------------------------------------------------
// Per-rank and aggregated profiles
// ---------------------------------------------------------------------------

/// Send totals for one `(dst, tag)` pair on one rank.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct SendTotal {
    /// Receiver rank.
    pub dst: Rank,
    /// Message tag.
    pub tag: u64,
    /// Messages sent to `(dst, tag)`.
    pub messages: u64,
    /// Words sent to `(dst, tag)`.
    pub words: u64,
}

/// One rank's complete observability payload.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct RankProfile {
    /// The rank's span ledger.
    pub ledger: SpanLedger,
    /// Per-`(dst, tag)` send totals, sorted by `(dst, tag)`.
    pub sends: Vec<SendTotal>,
    /// Every message sent, in send order, with post-send clock snapshots.
    pub events: Vec<TraceEvent>,
    /// The rank's final clocks (the value its spans must account for).
    pub final_clocks: Clocks,
}

/// Aggregated observability payload of a profiled run, attached to
/// [`crate::RunReport`] by a [`crate::MachineSpec::profile`] launch.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct Profile {
    /// Per-rank payloads, indexed by rank.
    pub per_rank: Vec<RankProfile>,
    /// The `p×p` communication matrix, aggregated over all tags.
    pub comm_matrix: CommMatrix,
}

impl Profile {
    /// Builds the aggregate (and its comm matrix) from per-rank payloads.
    pub fn from_ranks(per_rank: Vec<RankProfile>) -> Self {
        let p = per_rank.len();
        let mut comm_matrix = CommMatrix::new(p);
        for (src, rank) in per_rank.iter().enumerate() {
            for s in &rank.sends {
                comm_matrix.record(src, s.dst, s.messages, s.words);
            }
        }
        Profile { per_rank, comm_matrix }
    }

    /// Merges a later profile of the same machine into this one, as
    /// [`crate::RunReport::absorb`] does for stats: the other run's clocks
    /// restart at zero, so its snapshots are shifted by this rank's current
    /// final state before its spans/events are appended.
    pub fn absorb(&mut self, other: &Profile) {
        if self.per_rank.is_empty() {
            *self = other.clone();
            return;
        }
        assert_eq!(self.per_rank.len(), other.per_rank.len(), "rank count mismatch");
        for (mine, theirs) in self.per_rank.iter_mut().zip(&other.per_rank) {
            let base = SpanSnapshot {
                clocks: mine.final_clocks,
                resident_words: 0,
                sent_messages: mine.sends.iter().map(|s| s.messages).sum(),
                sent_words: mine.sends.iter().map(|s| s.words).sum(),
            };
            let span_base = mine.ledger.spans.len();
            for span in &theirs.ledger.spans {
                let mut shifted = *span;
                shifted.enter = shift(span.enter, &base);
                shifted.exit = shift(span.exit, &base);
                shifted.parent = span.parent.map(|p| p + span_base);
                mine.ledger.spans.push(shifted);
            }
            for ev in &theirs.events {
                let mut shifted = *ev;
                shifted.clocks.latency += base.clocks.latency;
                shifted.clocks.bandwidth += base.clocks.bandwidth;
                shifted.clocks.compute += base.clocks.compute;
                mine.events.push(shifted);
            }
            let mut merged: BTreeMap<(Rank, u64), (u64, u64)> =
                mine.sends.iter().map(|s| ((s.dst, s.tag), (s.messages, s.words))).collect();
            for s in &theirs.sends {
                let e = merged.entry((s.dst, s.tag)).or_insert((0, 0));
                e.0 += s.messages;
                e.1 += s.words;
            }
            mine.sends = merged
                .into_iter()
                .map(|((dst, tag), (messages, words))| SendTotal { dst, tag, messages, words })
                .collect();
            mine.final_clocks.latency += theirs.final_clocks.latency;
            mine.final_clocks.bandwidth += theirs.final_clocks.bandwidth;
            mine.final_clocks.compute += theirs.final_clocks.compute;
        }
        self.comm_matrix.absorb(&other.comm_matrix);
    }
}

fn shift(s: SpanSnapshot, base: &SpanSnapshot) -> SpanSnapshot {
    SpanSnapshot {
        clocks: Clocks {
            latency: s.clocks.latency + base.clocks.latency,
            bandwidth: s.clocks.bandwidth + base.clocks.bandwidth,
            compute: s.clocks.compute + base.clocks.compute,
        },
        resident_words: s.resident_words,
        sent_messages: s.sent_messages + base.sent_messages,
        sent_words: s.sent_words + base.sent_words,
    }
}

// ---------------------------------------------------------------------------
// Per-phase breakdown
// ---------------------------------------------------------------------------

/// One row of a [`PhaseBreakdown`].
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct PhaseRow {
    /// Span name, or a synthetic `"(gaps)"` / `"(tail)"` row.
    pub name: &'static str,
    /// Span tag (0 for synthetic rows).
    pub tag: u64,
    /// Critical-path clock share of this phase.
    pub clocks: Clocks,
    /// Total messages sent during this phase, across ranks.
    pub messages: u64,
    /// Total words sent during this phase, across ranks.
    pub words: u64,
}

impl PhaseRow {
    /// `name` or `name#tag` when the tag discriminates instances.
    pub fn label(&self) -> String {
        if self.tag == 0 {
            self.name.to_string()
        } else {
            format!("{}#{}", self.name, self.tag)
        }
    }
}

/// Per-phase attribution of a run's critical-path cost.
#[derive(Clone, Debug, Default)]
pub struct PhaseBreakdown {
    /// Whether rows telescope exactly to the critical-path totals.
    ///
    /// `true` when every rank executed the same span sequence at the
    /// requested depth (the SPMD common case): rows are then deltas of
    /// cross-rank cumulative clock maxima, and their sum — including the
    /// synthetic `"(gaps)"`/`"(tail)"` rows — equals the run's
    /// `critical_*` totals component-wise, by telescoping (the same
    /// argument that splits Lemma 5.6 into per-level costs).
    ///
    /// `false` when rank span sequences diverge (e.g. the rank-dependent
    /// `dnd` recursion): rows then hold the *maximum over ranks* of each
    /// phase's per-rank delta sum — still an upper-bound profile of where
    /// ranks spend their clocks, but not a partition of the total.
    pub exact: bool,
    /// Phase rows, in schedule order (exact) or name order (inexact).
    pub rows: Vec<PhaseRow>,
}

impl PhaseBreakdown {
    /// Component-wise sum over all rows.
    pub fn total(&self) -> Clocks {
        let mut t = Clocks::default();
        for r in &self.rows {
            t.latency += r.clocks.latency;
            t.bandwidth += r.clocks.bandwidth;
            t.compute += r.clocks.compute;
        }
        t
    }
}

/// Builds the per-phase breakdown from span records at `depth`.
///
/// `final_clocks` is the per-rank end state (from `RankStats`), which the
/// synthetic `"(tail)"` row reconciles against so exact breakdowns always
/// sum to the critical-path totals.
pub fn phase_breakdown(profile: &Profile, depth: u32) -> PhaseBreakdown {
    let seqs: Vec<Vec<&SpanRecord>> = profile
        .per_rank
        .iter()
        .map(|r| r.ledger.spans.iter().filter(|s| s.depth == depth).collect())
        .collect();
    if seqs.is_empty() {
        return PhaseBreakdown::default();
    }
    let uniform = seqs.windows(2).all(|w| {
        w[0].len() == w[1].len()
            && w[0].iter().zip(w[1].iter()).all(|(a, b)| a.name == b.name && a.tag == b.tag)
    });
    if uniform {
        exact_breakdown(profile, &seqs)
    } else {
        grouped_breakdown(&seqs)
    }
}

fn max_clocks(acc: &mut Clocks, c: &Clocks) {
    acc.merge_max(c);
}

fn exact_breakdown(profile: &Profile, seqs: &[Vec<&SpanRecord>]) -> PhaseBreakdown {
    let phases = seqs[0].len();
    let mut rows = Vec::with_capacity(phases + 2);
    let mut gaps = Clocks::default();
    // previous phase boundary: cross-rank max of cumulative clocks
    let mut prev = Clocks::default();
    for i in 0..phases {
        let mut enter_max = Clocks::default();
        let mut exit_max = Clocks::default();
        let mut messages = 0u64;
        let mut words = 0u64;
        for seq in seqs {
            max_clocks(&mut enter_max, &seq[i].enter.clocks);
            max_clocks(&mut exit_max, &seq[i].exit.clocks);
            messages += seq[i].messages_delta();
            words += seq[i].words_delta();
        }
        // per rank enter_i ≥ exit_{i-1}, so the maxima keep that order and
        // every telescoped delta below is non-negative
        gaps.latency += enter_max.latency - prev.latency;
        gaps.bandwidth += enter_max.bandwidth - prev.bandwidth;
        gaps.compute += enter_max.compute - prev.compute;
        rows.push(PhaseRow {
            name: seqs[0][i].name,
            tag: seqs[0][i].tag,
            clocks: Clocks {
                latency: exit_max.latency - enter_max.latency,
                bandwidth: exit_max.bandwidth - enter_max.bandwidth,
                compute: exit_max.compute - enter_max.compute,
            },
            messages,
            words,
        });
        prev = exit_max;
    }
    let mut end = Clocks::default();
    for r in &profile.per_rank {
        max_clocks(&mut end, &r.final_clocks);
    }
    let tail = Clocks {
        latency: end.latency - prev.latency,
        bandwidth: end.bandwidth - prev.bandwidth,
        compute: end.compute - prev.compute,
    };
    if gaps != Clocks::default() {
        rows.push(PhaseRow { name: "(gaps)", tag: 0, clocks: gaps, messages: 0, words: 0 });
    }
    if tail != Clocks::default() {
        rows.push(PhaseRow { name: "(tail)", tag: 0, clocks: tail, messages: 0, words: 0 });
    }
    PhaseBreakdown { exact: true, rows }
}

fn grouped_breakdown(seqs: &[Vec<&SpanRecord>]) -> PhaseBreakdown {
    // (name, tag) → (max-over-ranks clock sum, total msgs, total words)
    let mut groups: BTreeMap<(&'static str, u64), (Clocks, u64, u64)> = BTreeMap::new();
    for seq in seqs {
        let mut local: BTreeMap<(&'static str, u64), (Clocks, u64, u64)> = BTreeMap::new();
        for s in seq {
            let e = local.entry((s.name, s.tag)).or_default();
            let d = s.clocks_delta();
            e.0.latency += d.latency;
            e.0.bandwidth += d.bandwidth;
            e.0.compute += d.compute;
            e.1 += s.messages_delta();
            e.2 += s.words_delta();
        }
        for (key, (clocks, messages, words)) in local {
            let e = groups.entry(key).or_default();
            e.0.merge_max(&clocks);
            e.1 += messages;
            e.2 += words;
        }
    }
    let rows = groups
        .into_iter()
        .map(|((name, tag), (clocks, messages, words))| PhaseRow {
            name,
            tag,
            clocks,
            messages,
            words,
        })
        .collect();
    PhaseBreakdown { exact: false, rows }
}

// ---------------------------------------------------------------------------
// Exporters
// ---------------------------------------------------------------------------

/// α-β-γ machine projection used to place simulated clocks on a time axis
/// (see [`crate::RunReport::projected_time`]).
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct TimeModel {
    /// Seconds per message.
    pub alpha: f64,
    /// Seconds per word.
    pub beta: f64,
    /// Seconds per scalar operation.
    pub gamma: f64,
}

impl Default for TimeModel {
    /// InfiniBand-class defaults: `α = 1 µs`, `β = 1 ns`, `γ = 0.1 ns`.
    fn default() -> Self {
        TimeModel { alpha: 1e-6, beta: 1e-9, gamma: 1e-10 }
    }
}

impl TimeModel {
    /// Projects clocks onto the model's time axis, in microseconds.
    pub fn micros(&self, c: &Clocks) -> f64 {
        (self.alpha * c.latency as f64
            + self.beta * c.bandwidth as f64
            + self.gamma * c.compute as f64)
            * 1e6
    }
}

fn escape_json(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    for ch in s.chars() {
        match ch {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out
}

impl Profile {
    /// Chrome-trace JSON (the `chrome://tracing` / Perfetto format): one
    /// complete (`"X"`) event per span with simulated-clock timestamps,
    /// one instant (`"i"`) event per message on the sending rank's track,
    /// plus thread-name metadata so tracks read as `rank 0 … rank p−1`.
    pub fn chrome_trace_json(&self, model: &TimeModel) -> String {
        let mut events = Vec::new();
        for (rank, rp) in self.per_rank.iter().enumerate() {
            events.push(format!(
                r#"{{"name":"thread_name","ph":"M","pid":0,"tid":{rank},"args":{{"name":"rank {rank}"}}}}"#
            ));
            for s in &rp.ledger.spans {
                let ts = model.micros(&s.enter.clocks);
                let dur = model.micros(&s.exit.clocks) - ts;
                let d = s.clocks_delta();
                events.push(format!(
                    concat!(
                        r#"{{"name":"{}","cat":"span","ph":"X","ts":{:.3},"dur":{:.3},"pid":0,"tid":{},"#,
                        r#""args":{{"tag":{},"depth":{},"latency":{},"bandwidth":{},"compute":{},"messages":{},"words":{}}}}}"#
                    ),
                    escape_json(s.name),
                    ts,
                    dur,
                    rank,
                    s.tag,
                    s.depth,
                    d.latency,
                    d.bandwidth,
                    d.compute,
                    s.messages_delta(),
                    s.words_delta(),
                ));
            }
            for ev in &rp.events {
                events.push(format!(
                    concat!(
                        r#"{{"name":"send→{}","cat":"msg","ph":"i","ts":{:.3},"pid":0,"tid":{},"s":"t","#,
                        r#""args":{{"src":{},"dst":{},"words":{},"tag":{}}}}}"#
                    ),
                    ev.dst,
                    model.micros(&ev.clocks),
                    rank,
                    ev.src,
                    ev.dst,
                    ev.words,
                    ev.tag,
                ));
            }
        }
        format!(
            concat!(
                "{{\"traceEvents\":[\n{}\n],\n",
                "\"displayTimeUnit\":\"ms\",\n",
                "\"otherData\":{{\"alpha\":{:e},\"beta\":{:e},\"gamma\":{:e}}}}}\n"
            ),
            events.join(",\n"),
            model.alpha,
            model.beta,
            model.gamma
        )
    }

    /// JSONL event stream: one `span` object per span and one `send`
    /// object per message, grouped by rank, suitable for ad-hoc analysis
    /// with line-oriented tools.
    pub fn events_jsonl(&self) -> String {
        let mut out = String::new();
        for (rank, rp) in self.per_rank.iter().enumerate() {
            for s in &rp.ledger.spans {
                let d = s.clocks_delta();
                out.push_str(&format!(
                    concat!(
                        r#"{{"type":"span","rank":{},"name":"{}","tag":{},"depth":{},"#,
                        r#""latency":{},"bandwidth":{},"compute":{},"messages":{},"words":{},"#,
                        r#""enter_latency":{},"enter_bandwidth":{},"enter_compute":{},"resident_words":{}}}"#
                    ),
                    rank,
                    escape_json(s.name),
                    s.tag,
                    s.depth,
                    d.latency,
                    d.bandwidth,
                    d.compute,
                    s.messages_delta(),
                    s.words_delta(),
                    s.enter.clocks.latency,
                    s.enter.clocks.bandwidth,
                    s.enter.clocks.compute,
                    s.exit.resident_words,
                ));
                out.push('\n');
            }
            for ev in &rp.events {
                out.push_str(&format!(
                    concat!(
                        r#"{{"type":"send","rank":{},"src":{},"dst":{},"words":{},"tag":{},"#,
                        r#""latency":{},"bandwidth":{},"compute":{}}}"#
                    ),
                    rank,
                    ev.src,
                    ev.dst,
                    ev.words,
                    ev.tag,
                    ev.clocks.latency,
                    ev.clocks.bandwidth,
                    ev.clocks.compute,
                ));
                out.push('\n');
            }
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn snap(l: u64, b: u64, f: u64, msgs: u64, words: u64) -> SpanSnapshot {
        SpanSnapshot {
            clocks: Clocks { latency: l, bandwidth: b, compute: f },
            resident_words: 0,
            sent_messages: msgs,
            sent_words: words,
        }
    }

    #[test]
    fn ledger_nests_and_deltas() {
        let mut ledger = SpanLedger::default();
        let outer = ledger.enter("outer", 1, snap(0, 0, 0, 0, 0));
        let inner = ledger.enter("inner", 1, snap(1, 10, 0, 1, 10));
        ledger.exit(inner, snap(3, 30, 5, 2, 20));
        ledger.exit(outer, snap(4, 40, 5, 3, 30));
        assert_eq!(ledger.spans.len(), 2);
        assert_eq!(ledger.spans[outer].depth, 0);
        assert_eq!(ledger.spans[inner].depth, 1);
        assert_eq!(ledger.spans[inner].parent, Some(outer));
        assert_eq!(
            ledger.spans[inner].clocks_delta(),
            Clocks { latency: 2, bandwidth: 20, compute: 5 }
        );
        assert_eq!(ledger.spans[outer].messages_delta(), 3);
        assert_eq!(ledger.children(outer).count(), 1);
        assert_eq!(ledger.top_level().count(), 1);
    }

    #[test]
    fn comm_matrix_sums() {
        let mut m = CommMatrix::new(3);
        m.record(0, 1, 2, 20);
        m.record(0, 2, 1, 5);
        m.record(2, 1, 4, 8);
        assert_eq!(m.messages(0, 1), 2);
        assert_eq!(m.row_messages(0), 3);
        assert_eq!(m.row_words(0), 25);
        assert_eq!(m.col_messages(1), 6);
        assert_eq!(m.col_words(1), 28);
    }

    fn one_rank_profile(
        spans: Vec<(&'static str, u64, SpanSnapshot, SpanSnapshot)>,
        fin: Clocks,
    ) -> RankProfile {
        let mut ledger = SpanLedger::default();
        for (name, tag, enter, exit) in spans {
            let idx = ledger.enter(name, tag, enter);
            ledger.exit(idx, exit);
        }
        RankProfile { ledger, sends: Vec::new(), events: Vec::new(), final_clocks: fin }
    }

    #[test]
    fn exact_breakdown_telescopes_to_totals() {
        // two ranks, same two-phase schedule, different per-rank clocks
        let r0 = one_rank_profile(
            vec![
                ("a", 1, snap(0, 0, 0, 0, 0), snap(2, 20, 1, 1, 10)),
                ("b", 2, snap(2, 20, 1, 1, 10), snap(5, 21, 1, 2, 11)),
            ],
            Clocks { latency: 5, bandwidth: 21, compute: 1 },
        );
        let r1 = one_rank_profile(
            vec![
                ("a", 1, snap(0, 0, 0, 0, 0), snap(3, 15, 2, 2, 12)),
                ("b", 2, snap(3, 15, 2, 2, 12), snap(4, 40, 2, 2, 12)),
            ],
            Clocks { latency: 4, bandwidth: 40, compute: 2 },
        );
        let profile = Profile::from_ranks(vec![r0, r1]);
        let bd = phase_breakdown(&profile, 0);
        assert!(bd.exact);
        // total must equal the cross-rank maxima (the critical-path totals)
        assert_eq!(bd.total(), Clocks { latency: 5, bandwidth: 40, compute: 2 });
        assert_eq!(bd.rows[0].name, "a");
        assert_eq!(bd.rows[0].messages, 3);
        assert_eq!(bd.rows[0].words, 22);
    }

    #[test]
    fn divergent_schedules_fall_back_to_grouped() {
        let r0 = one_rank_profile(
            vec![("a", 0, snap(0, 0, 0, 0, 0), snap(1, 0, 0, 0, 0))],
            Clocks { latency: 1, bandwidth: 0, compute: 0 },
        );
        let r1 = one_rank_profile(
            vec![("b", 0, snap(0, 0, 0, 0, 0), snap(2, 0, 0, 0, 0))],
            Clocks { latency: 2, bandwidth: 0, compute: 0 },
        );
        let profile = Profile::from_ranks(vec![r0, r1]);
        let bd = phase_breakdown(&profile, 0);
        assert!(!bd.exact);
        assert_eq!(bd.rows.len(), 2);
    }

    #[test]
    fn time_model_projects_micros() {
        let m = TimeModel::default();
        let c = Clocks { latency: 2, bandwidth: 1000, compute: 10_000 };
        let us = m.micros(&c);
        assert!((us - (2.0 + 1.0 + 1.0)).abs() < 1e-9);
    }

    #[test]
    fn escape_handles_quotes_and_controls() {
        assert_eq!(escape_json("a\"b\\c\nd"), "a\\\"b\\\\c\\u000ad");
    }
}
