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
//! Source policy: no code in `apsp-simnet` or `apsp-transport` names a
//! `std::sync`/`std::thread` primitive directly — this module is the
//! single gateway. The two crates' `clippy.toml` files list those items
//! as disallowed, and CI's loom job checks it with `RUSTFLAGS="--cfg
//! loom" cargo clippy -p apsp-simnet -p apsp-transport --lib -- -D
//! warnings`, the one build where a shim type and its std twin differ.
//! Code under `#[cfg(not(loom))]` is outside that build, as it is outside
//! the model.
//!
//! What the shim covers: channels, mutexes, atomics, spawning/joining,
//! yields/sleeps. What it does not, each under a module-level
//! `#[expect(clippy::disallowed_types)]`: the `SnapshotStore` internals
//! (`snapshot.rs`), which stay on std mutexes — their critical sections
//! contain no scheduling points, so they are atomic under the model and
//! cannot introduce unexplored interleavings; the process-wide counters of `perf.rs`, written after a
//! run ends; and the once-installed panic hook of `cascade.rs`. None of
//! them is a scheduling point of the rank protocol the model explores.

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
