//! The sync shim: every synchronization primitive the rank endpoint, the
//! epoch runner and both machines use, routed through one module so that
//! code can be compiled against either real `std` or the `loom` model
//! checker. `apsp-transport` re-exports it as `apsp_transport::sync`.
//!
//! * Default builds re-export `std::sync`/`std::thread` — the shim is
//!   pure `pub use`, zero-cost (the golden transport digest pins that the
//!   simulator's output does not move).
//! * `RUSTFLAGS="--cfg loom"` builds re-export the loom equivalents, so
//!   the endpoint's teardown ordering, watchdog deadline path, the rank
//!   pool's hand-back, and the supervisor's rollback handshake run under
//!   exhaustive schedule exploration (`crates/transport/tests/loom.rs`
//!   drives them through the native machine — the same
//!   [`crate::Endpoint`] code the simulator runs).
//!
//! Source policy (enforced by `apsp-verify`'s srclint `raw-sync` rule):
//! `endpoint.rs`, `pool.rs`, `comm.rs` and `recovery.rs` here and every
//! file under `crates/transport/src/` may not name `std::sync` or
//! `std::thread` directly — this module is the single allowed gateway.
//!
//! What the shim covers: channels, mutexes, atomics, spawning/joining,
//! yields/sleeps. What it does not: the `SnapshotStore`, `ScriptBoard`
//! and `Governor` internals, which stay on std mutexes — the first two's
//! critical sections contain no scheduling points, so they are atomic
//! under the model and cannot introduce unexplored interleavings, and
//! governed runs are not model-checked.

#[cfg(loom)]
pub use loom::sync::atomic;
#[cfg(loom)]
pub use loom::sync::mpsc;
#[cfg(loom)]
pub use loom::sync::{Arc, Mutex, MutexGuard};
#[cfg(loom)]
pub use loom::thread;

#[cfg(not(loom))]
pub use std::sync::atomic;
#[cfg(not(loom))]
pub use std::sync::mpsc;
#[cfg(not(loom))]
pub use std::sync::{Arc, Mutex, MutexGuard};
#[cfg(not(loom))]
pub use std::thread;
