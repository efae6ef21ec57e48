//! Large-machine stress tests (expensive, so `#[ignore]`d by default):
//!
//! ```text
//! cargo test --release --test stress -- --ignored
//! ```
//!
//! plus native-backend shutdown/drop-ordering stress (fast, runs by
//! default): rapid machine churn without thread leaks, undelivered
//! traffic at exit, staggered rank completion, and panic propagation
//! that surfaces the root cause instead of hanging or drowning it in
//! cascade victims.

use sparse_apsp::prelude::*;

#[test]
#[ignore = "961 simulated ranks; run with --release -- --ignored"]
fn sparse2d_on_961_ranks() {
    let side = 24;
    let g = grid2d(side, side, WeightKind::Integer { max: 9 }, 0);
    let solver = SparseApsp::new(SparseApspConfig {
        height: 5,
        ordering: Ordering::Grid { rows: side, cols: side },
        ..Default::default()
    });
    let run = solver.run(&g);
    let reference = oracle::apsp_dijkstra(&g);
    assert!(run.dist.first_mismatch(&reference, 1e-9).is_none());
    // Theorem 5.7 envelope at p = 961
    let log2p = (961f64).log2();
    assert!(
        (run.report.critical_latency() as f64) <= 3.0 * log2p * log2p,
        "L = {}",
        run.report.critical_latency()
    );
}

#[test]
#[ignore = "full Table 2 sweep incl. √p = 31; run with --release -- --ignored"]
fn full_table2_sweep_with_dense_baselines() {
    let side = 32;
    let g = grid2d(side, side, WeightKind::Unit, 0);
    let reference = oracle::apsp_dijkstra(&g);
    let mut prev_sparse_l = u64::MAX;
    for h in [2u32, 3, 4, 5] {
        let n_grid = (1usize << h) - 1;
        let sparse = SparseApsp::new(SparseApspConfig {
            height: h,
            ordering: Ordering::Grid { rows: side, cols: side },
            ..Default::default()
        })
        .run(&g);
        assert!(sparse.dist.first_mismatch(&reference, 1e-9).is_none(), "h={h}");
        let dense = fw2d(&g, n_grid);
        assert!(dense.dist.first_mismatch(&reference, 1e-9).is_none(), "h={h}");
        assert!(sparse.report.critical_latency() < dense.report.critical_latency(), "h={h}");
        // sparse latency grows slowly (log²p-ish), never explosively
        assert!(sparse.report.critical_latency() < prev_sparse_l.saturating_mul(3));
        prev_sparse_l = sparse.report.critical_latency();
    }
}

#[test]
#[ignore = "distributed ND at 49 ranks on a 2.5k-vertex mesh"]
fn distributed_nd_scales() {
    let side = 50;
    let g = grid2d(side, side, WeightKind::Unit, 0);
    let result = dist_nested_dissection(&g, 3, 49, 1, false);
    result.ordering.validate(&g).unwrap();
    // mesh separators stay O(side)
    assert!(
        result.ordering.top_separator() <= 3 * side,
        "top separator {}",
        result.ordering.top_separator()
    );
}

#[test]
#[ignore = "dc-apsp on 225 ranks"]
fn dcapsp_on_225_ranks() {
    let g = grid2d(20, 20, WeightKind::Integer { max: 5 }, 2);
    let result = dc_apsp(&g, 15, 2);
    let reference = oracle::apsp_dijkstra(&g);
    assert!(result.dist.first_mismatch(&reference, 1e-9).is_none());
}

#[test]
#[ignore = "larger shared-memory SuperFW vs oracle"]
fn superfw_on_4k_vertices() {
    let g = grid2d(64, 64, WeightKind::Unit, 0);
    let nd = grid_nd(64, 64, 5);
    let (dist, stats) = superfw_apsp(&g, &nd);
    // spot-check against single-source Dijkstra (full APSP oracle is slow)
    for s in [0usize, 2047, 4095] {
        let row = oracle::dijkstra(&g, s);
        for (t, &d) in row.iter().enumerate() {
            assert!((dist.get(s, t) - d).abs() < 1e-9, "({s},{t})");
        }
    }
    // the supernodal elimination must beat n³ comfortably at this scale
    assert!(stats.ops * 10 < oracle::classical_fw_opcount(g.n()));
}

// ---- native backend shutdown / drop ordering (fast, not ignored) ----

/// This process's threads other than the rank-thread pool's parked
/// `apsp-rank` workers, or `None` where procfs does not exist (non-Linux).
/// The pool keeps at most the peak number of ranks in flight at once;
/// any other thread a machine leaves behind is a leak.
fn thread_count() -> Option<usize> {
    let tasks = std::fs::read_dir("/proc/self/task").ok()?;
    let names =
        tasks.filter_map(|task| std::fs::read_to_string(task.ok()?.path().join("comm")).ok());
    Some(names.filter(|name| name.trim_end() != "apsp-rank").count())
}

#[test]
fn native_rapid_fire_runs_do_not_leak_threads() {
    // churn through ~120 machines of varying size; every rank runs on a
    // parked pool worker, so the count of all other threads stays flat
    // (generous slack absorbs unrelated harness threads — a genuine leak
    // here would show up as hundreds)
    let before = thread_count();
    if before.is_none() {
        eprintln!(
            "SKIPPED thread-leak gauge: /proc/self/task is unavailable on this \
             platform; the machine churn below still runs, unleaked-ness unchecked"
        );
    }
    for round in 0..120usize {
        let p = 2 + (round % 7);
        let (outs, _) = NativeMachine::run(p, |comm| {
            // ring shift: every rank both sends and receives, so every
            // run puts live traffic in every inbox before tearing down
            let right = (comm.rank() + 1) % comm.p();
            let left = (comm.rank() + comm.p() - 1) % comm.p();
            comm.send(right, 0xF1F0, vec![comm.rank() as f64]);
            comm.recv(left, 0xF1F0)[0]
        });
        for (rank, &v) in outs.iter().enumerate() {
            assert_eq!(v, ((rank + p - 1) % p) as f64, "round {round} rank {rank}");
        }
    }
    if let (Some(before), Some(after)) = (before, thread_count()) {
        assert!(after <= before + 32, "native machines leak threads: {before} -> {after}");
    }
}

#[test]
fn native_undelivered_messages_do_not_block_shutdown() {
    // senders flood a rank that never receives, then exit. Inboxes ride in
    // the outcomes, so the pending traffic stays deliverable until every
    // rank has handed back — the run must complete cleanly, not hang and
    // not kill the senders with a disconnect.
    let (outs, _) = NativeMachine::run(6, |comm| {
        if comm.rank() != 0 {
            for i in 0..64 {
                comm.send(0, 0xD1AF, vec![i as f64; 32]);
            }
        }
        comm.rank()
    });
    assert_eq!(outs, vec![0, 1, 2, 3, 4, 5]);
}

#[test]
fn native_staggered_exit_keeps_late_traffic_alive() {
    // rank 0 finishes (and drops its endpoint) long before the relay
    // reaches rank 4 — early completion must not disconnect anyone
    let (outs, _) = NativeMachine::run(5, |comm| match comm.rank() {
        0 => {
            comm.send(1, 1, vec![1.0]);
            0.0
        }
        r => {
            let v = comm.recv(r - 1, r as u64)[0] + 1.0;
            if r + 1 < comm.p() {
                comm.send(r + 1, (r + 1) as u64, vec![v]);
            }
            v
        }
    });
    assert_eq!(outs, vec![0.0, 2.0, 3.0, 4.0, 5.0]);
}

#[test]
fn native_panic_surfaces_root_cause_over_cascade_victims() {
    // rank 5 dies first; every other rank is blocked on traffic only rank 5
    // could send and dies as a disconnect cascade victim. The machine must
    // re-raise the ROOT CAUSE, promptly (the dead rank's hang-up notices
    // reach the waiting ranks as it unwinds — no watchdog wait).
    let result = std::panic::catch_unwind(|| {
        NativeMachine::run(8, |comm| {
            if comm.rank() == 5 {
                panic!("deliberate failure at rank 5");
            }
            let _ = comm.recv(5, 0x0BAD);
        })
    });
    let payload = result.expect_err("machine with a dead rank must fail");
    let msg = payload
        .downcast_ref::<&str>()
        .map(|s| (*s).to_string())
        .or_else(|| payload.downcast_ref::<String>().cloned())
        .unwrap_or_default();
    assert!(
        msg.contains("deliberate failure at rank 5"),
        "surfaced panic should be the root cause, got: {msg:?}"
    );
}

#[test]
fn native_panic_mid_collective_does_not_hang() {
    // a rank dying before joining a barrier strands the binomial tree; the
    // survivors must fail fast on disconnect instead of waiting forever
    let result = std::panic::catch_unwind(|| {
        NativeMachine::run(6, |comm| {
            let group: Vec<usize> = (0..comm.p()).collect();
            if comm.rank() == 3 {
                panic!("rank 3 died before the barrier");
            }
            comm.barrier(&group, 0xBA11);
        })
    });
    let payload = result.expect_err("stranded barrier must fail the run");
    let msg = payload
        .downcast_ref::<&str>()
        .map(|s| (*s).to_string())
        .or_else(|| payload.downcast_ref::<String>().cloned())
        .unwrap_or_default();
    assert!(msg.contains("rank 3 died"), "surfaced: {msg:?}");
}
