//! Phase-scoped wall-clock timers.
//!
//! A [`PhaseGuard`] measures the wall time between its creation and drop
//! and records it (in nanoseconds) into the `apsp_phase_wall_ns`
//! histogram family, labeled by phase. Timing only happens while the
//! registry is [enabled](crate::Registry::enable) — the disabled path is
//! one relaxed load and never calls `Instant::now()`, so solvers can be
//! instrumented unconditionally.

use crate::registry::{global, Registry};
use std::time::Instant;

/// Histogram family phase timers record into.
pub const PHASE_WALL_NS: &str = "apsp_phase_wall_ns";

/// RAII wall-clock timer for one named phase; records on drop.
pub struct PhaseGuard {
    state: Option<(&'static Registry, String, Instant)>,
}

impl PhaseGuard {
    /// Stops the timer early and records; idempotent with drop.
    pub fn finish(mut self) {
        self.record();
    }

    fn record(&mut self) {
        if let Some((registry, phase, start)) = self.state.take() {
            let ns = u64::try_from(start.elapsed().as_nanos()).unwrap_or(u64::MAX);
            registry
                .histogram_with(
                    PHASE_WALL_NS,
                    "Wall-clock time per phase execution, in nanoseconds.",
                    &[("phase", &phase)],
                )
                .record(ns);
        }
    }
}

impl Drop for PhaseGuard {
    fn drop(&mut self) {
        self.record();
    }
}

/// Starts timing `phase` against `registry`; inert when the registry's
/// wall-clock timing is disabled.
#[expect(
    clippy::disallowed_methods,
    reason = "the one sanctioned wall timer: it reads the clock only while the registry is enabled"
)]
pub fn time_phase_in(registry: &'static Registry, phase: &str) -> PhaseGuard {
    PhaseGuard {
        state: registry.is_enabled().then(|| (registry, phase.to_string(), Instant::now())),
    }
}

/// Starts timing `phase` against the [global](crate::global) registry.
pub fn time_phase(phase: &str) -> PhaseGuard {
    time_phase_in(global(), phase)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::registry::SampleValue;

    // the global registry is shared (and raced) across the test binary,
    // so these tests run against private leaked registries.

    fn phase_count(registry: &Registry, phase: &str) -> u64 {
        let snap = registry.snapshot();
        let Some(fam) = snap.families.iter().find(|f| f.name == PHASE_WALL_NS) else {
            return 0;
        };
        fam.samples
            .iter()
            .filter(|s| s.labels == vec![("phase".to_string(), phase.to_string())])
            .map(|s| match &s.value {
                SampleValue::Histogram(h) => h.count,
                _ => 0,
            })
            .sum()
    }

    #[test]
    fn disabled_registry_records_nothing() {
        let r: &'static Registry = Box::leak(Box::new(Registry::new()));
        {
            let _t = time_phase_in(r, "solve");
        }
        assert_eq!(phase_count(r, "solve"), 0);
        assert!(r.snapshot().families.is_empty(), "disabled timer must not even register");
    }

    #[test]
    fn enabled_registry_records_one_observation_per_guard() {
        let r: &'static Registry = Box::leak(Box::new(Registry::new()));
        r.enable();
        {
            let _t = time_phase_in(r, "solve");
        }
        let t = time_phase_in(r, "solve");
        t.finish();
        assert_eq!(phase_count(r, "solve"), 2);
    }
}
