//! Known-bad fixture programs: seeded bugs the verifier and the cost
//! auditor must catch. They double as CLI demos (`apsp verify --algorithm
//! bad-fixture`, `apsp audit --fixture cost`) and as regression anchors.

use apsp_simnet::Comm;

/// A deliberately broken 4-rank protocol with two bugs:
///
/// * **Tag reuse across phases** (the lint): ranks 0 → 1 exchange one
///   message per phase under the *same* tag in phases 0 and 1 — after a
///   rollback to the phase-0 checkpoint, a replayed message would be
///   indistinguishable from phase 1's.
/// * **Cross-receive hang** (the watchdog): ranks 2 and 3 both receive
///   before sending, each waiting on the other. Once ranks 0 and 1 have
///   returned nothing moves, and after `APSP_WATCHDOG_MS` the run dies
///   with a typed hang naming `2⇐3` and `3⇐2`.
///
/// Requires `p >= 4`. Returns each rank's final state.
pub fn bad_fixture(comm: &mut Comm) -> Vec<f64> {
    assert!(comm.p() >= 4, "bad_fixture needs at least 4 ranks");
    const REUSED_TAG: u64 = 0x7;
    const CROSS_TAG: u64 = 0x9;
    match comm.rank() {
        0 => {
            // same tag on the same channel in two phases: reuse bug
            comm.send(1, REUSED_TAG, vec![1.0]);
            let state = comm.commit_phase(vec![0.0]);
            comm.send(1, REUSED_TAG, vec![2.0]);
            comm.commit_phase(state)
        }
        1 => {
            let a = comm.recv(0, REUSED_TAG);
            let state = comm.commit_phase(a);
            let b = comm.recv(0, REUSED_TAG);
            let mut state = comm.commit_phase(state);
            state[0] += b[0];
            state
        }
        2 => {
            // cross receive: 2 waits on 3, which waits on 2 — a hang
            let got = comm.recv(3, CROSS_TAG);
            comm.send(3, CROSS_TAG, vec![2.0]);
            got
        }
        3 => {
            let got = comm.recv(2, CROSS_TAG);
            comm.send(2, CROSS_TAG, vec![3.0]);
            got
        }
        _ => Vec::new(),
    }
}

/// A deliberately **over-communicating** exchange: the seeded regression
/// fixture for the cost-model auditor (`costcheck`). Each rank owns an
/// `n²/p`-word block and, for `√p` rounds, sends the whole block to every
/// peer point-to-point — no tree, no separator awareness — and holds all
/// `p − 1` received copies live before folding them.
///
/// Per rank that costs `~√p·(p−1)` messages (vs the sparse latency bound
/// `log²p`), `~√p·n²` words (vs bandwidth `n²log²p/p`, which *falls*
/// with `p`), and `~n²` resident words (vs memory `n²/p`) — so every
/// fitted `p`-sweep exponent exceeds its Table 2 bound and the auditor
/// must reject it. It is protocol-clean (every send matched, no tag
/// reuse, spans balanced): only the *cost* audit can catch it.
///
/// Returns each rank's folded block.
pub fn flood_exchange(comm: &mut Comm, n: usize) -> Vec<f64> {
    let p = comm.p();
    let words = (n * n / p).max(1);
    let mut block = vec![comm.rank() as f64; words];
    comm.alloc(words);
    let rounds = (p as f64).sqrt().ceil() as u64;
    let mut flood = comm.span("flood", 0x40);
    for round in 0..rounds {
        let tag = 0x40 + round;
        for peer in 0..p {
            if peer != flood.rank() {
                flood.send(peer, tag, block.clone());
            }
        }
        let mut inbox = Vec::with_capacity(p - 1);
        for peer in 0..p {
            if peer != flood.rank() {
                let got = flood.recv(peer, tag);
                flood.alloc(got.len());
                inbox.push(got);
            }
        }
        for got in &inbox {
            for (mine, theirs) in block.iter_mut().zip(got) {
                *mine = mine.min(*theirs);
            }
            flood.compute(words as u64);
        }
        for got in inbox {
            flood.release(got.len());
        }
    }
    drop(flood);
    block
}
