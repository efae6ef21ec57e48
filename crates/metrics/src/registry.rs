//! The metric registry: named counters and histograms with
//! optional label sets, plus deterministic snapshots for the exporters.

use crate::histogram::{Histogram, HistogramSnapshot};
use std::collections::BTreeMap;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, OnceLock, RwLock};

/// A monotonically increasing counter.
#[derive(Debug, Default)]
pub struct Counter(AtomicU64);

impl Counter {
    /// Adds `n`.
    #[inline]
    pub fn add(&self, n: u64) {
        self.0.fetch_add(n, Ordering::Relaxed);
    }

    /// Adds 1.
    #[inline]
    pub fn inc(&self) {
        self.add(1);
    }

    /// Current value.
    pub fn get(&self) -> u64 {
        self.0.load(Ordering::Relaxed)
    }
}

/// What kind of metric a family is.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum MetricKind {
    /// Monotone counter.
    Counter,
    /// Log2-bucketed histogram.
    Histogram,
}

impl MetricKind {
    /// The Prometheus `# TYPE` word.
    pub fn as_str(self) -> &'static str {
        match self {
            MetricKind::Counter => "counter",
            MetricKind::Histogram => "histogram",
        }
    }
}

enum Metric {
    Counter(Arc<Counter>),
    Histogram(Arc<Histogram>),
}

struct FamilyEntry {
    help: String,
    kind: MetricKind,
    // label-set (sorted, rendered) → metric; the unlabeled series uses ""
    series: BTreeMap<String, (Vec<(String, String)>, Metric)>,
}

/// A named collection of metrics.
///
/// `enabled` gates only the *wall-clock timers* (they need `Instant::now`
/// syscalls); counters and histograms record unconditionally — they are
/// single relaxed atomic adds and keeping them always-on means `apsp
/// bench` never needs a warm-up pass to populate them.
pub struct Registry {
    enabled: AtomicBool,
    families: RwLock<BTreeMap<String, FamilyEntry>>,
}

impl Default for Registry {
    fn default() -> Self {
        Registry::new()
    }
}

impl Registry {
    /// An empty registry with wall-clock timing disabled.
    pub fn new() -> Self {
        Registry { enabled: AtomicBool::new(false), families: RwLock::new(BTreeMap::new()) }
    }

    /// Turns wall-clock timing on.
    pub fn enable(&self) {
        self.enabled.store(true, Ordering::Relaxed);
    }

    /// Turns wall-clock timing off.
    pub fn disable(&self) {
        self.enabled.store(false, Ordering::Relaxed);
    }

    /// Is wall-clock timing on?
    #[inline]
    pub fn is_enabled(&self) -> bool {
        self.enabled.load(Ordering::Relaxed)
    }

    /// Registers (or retrieves) an unlabeled counter.
    pub fn counter(&self, name: &str, help: &str) -> Arc<Counter> {
        self.counter_with(name, help, &[])
    }

    /// Registers (or retrieves) a counter with labels.
    ///
    /// # Panics
    /// Panics when `name` is already registered as a different kind.
    pub fn counter_with(&self, name: &str, help: &str, labels: &[(&str, &str)]) -> Arc<Counter> {
        match self.get_or_insert(name, help, labels, MetricKind::Counter, || {
            Metric::Counter(Arc::new(Counter::default()))
        }) {
            Metric::Counter(c) => c,
            _ => unreachable!("kind checked in get_or_insert"),
        }
    }

    /// Registers (or retrieves) an unlabeled histogram.
    pub fn histogram(&self, name: &str, help: &str) -> Arc<Histogram> {
        self.histogram_with(name, help, &[])
    }

    /// Registers (or retrieves) a histogram with labels.
    pub fn histogram_with(
        &self,
        name: &str,
        help: &str,
        labels: &[(&str, &str)],
    ) -> Arc<Histogram> {
        match self.get_or_insert(name, help, labels, MetricKind::Histogram, || {
            Metric::Histogram(Arc::new(Histogram::new()))
        }) {
            Metric::Histogram(h) => h,
            _ => unreachable!("kind checked in get_or_insert"),
        }
    }

    fn get_or_insert(
        &self,
        name: &str,
        help: &str,
        labels: &[(&str, &str)],
        kind: MetricKind,
        make: impl FnOnce() -> Metric,
    ) -> Metric {
        let key = render_labels(labels);
        // fast path: read lock
        {
            let fams = self.families.read().expect("metrics registry poisoned");
            if let Some(fam) = fams.get(name) {
                assert_eq!(
                    fam.kind,
                    kind,
                    "metric {name} already registered as {}",
                    fam.kind.as_str()
                );
                if let Some((_, metric)) = fam.series.get(&key) {
                    return clone_metric(metric);
                }
            }
        }
        let mut fams = self.families.write().expect("metrics registry poisoned");
        let metric = make();
        let fam = fams.entry(name.to_string()).or_insert_with(|| FamilyEntry {
            help: help.to_string(),
            kind,
            series: BTreeMap::new(),
        });
        assert_eq!(fam.kind, kind, "metric {name} already registered as {}", fam.kind.as_str());
        let owned: Vec<(String, String)> =
            labels.iter().map(|(k, v)| (k.to_string(), v.to_string())).collect();
        let (_, stored) = fam.series.entry(key).or_insert_with(|| (owned, metric));
        clone_metric(stored)
    }

    /// Deterministic point-in-time view of every registered series.
    pub fn snapshot(&self) -> Snapshot {
        let fams = self.families.read().expect("metrics registry poisoned");
        let families = fams
            .iter()
            .map(|(name, fam)| Family {
                name: name.clone(),
                help: fam.help.clone(),
                kind: fam.kind,
                samples: fam
                    .series
                    .values()
                    .map(|(labels, metric)| Sample {
                        labels: labels.clone(),
                        value: match metric {
                            Metric::Counter(c) => SampleValue::Counter(c.get()),
                            Metric::Histogram(h) => SampleValue::Histogram(h.snapshot()),
                        },
                    })
                    .collect(),
            })
            .collect();
        Snapshot { families }
    }
}

fn clone_metric(m: &Metric) -> Metric {
    match m {
        Metric::Counter(c) => Metric::Counter(Arc::clone(c)),
        Metric::Histogram(h) => Metric::Histogram(Arc::clone(h)),
    }
}

fn render_labels(labels: &[(&str, &str)]) -> String {
    let mut sorted: Vec<_> = labels.to_vec();
    sorted.sort();
    sorted.iter().map(|(k, v)| format!("{k}={v},")).collect()
}

/// One series' point-in-time value.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum SampleValue {
    /// Counter value.
    Counter(u64),
    /// Histogram state.
    Histogram(HistogramSnapshot),
}

/// One labeled series inside a family.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Sample {
    /// Label pairs in registration order.
    pub labels: Vec<(String, String)>,
    /// The value.
    pub value: SampleValue,
}

/// A metric family: one name, one kind, many label sets.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Family {
    /// Family name (Prometheus conventions: `snake_case`, counters end in
    /// `_total`).
    pub name: String,
    /// One-line help text.
    pub help: String,
    /// Counter or histogram.
    pub kind: MetricKind,
    /// Series, in deterministic label order.
    pub samples: Vec<Sample>,
}

/// A deterministic point-in-time view of a whole registry.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct Snapshot {
    /// Families in name order.
    pub families: Vec<Family>,
}

impl Snapshot {
    /// Looks up an unlabeled (or single-series) counter value by name;
    /// `0` when absent. Convenience for tests.
    pub fn counter_value(&self, name: &str) -> u64 {
        self.families
            .iter()
            .find(|f| f.name == name)
            .and_then(|f| {
                f.samples.iter().find_map(|s| match &s.value {
                    SampleValue::Counter(v) => Some(*v),
                    _ => None,
                })
            })
            .unwrap_or(0)
    }
}

/// The process-wide registry every instrumented crate records into.
pub fn global() -> &'static Registry {
    static GLOBAL: OnceLock<Registry> = OnceLock::new();
    GLOBAL.get_or_init(Registry::new)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counter_registration_is_idempotent() {
        let r = Registry::new();
        let a = r.counter("x_total", "X.");
        let b = r.counter("x_total", "X.");
        a.add(2);
        b.inc();
        assert_eq!(a.get(), 3);
        assert_eq!(r.snapshot().counter_value("x_total"), 3);
    }

    #[test]
    fn labeled_series_are_distinct() {
        let r = Registry::new();
        let a = r.counter_with("y_total", "Y.", &[("phase", "a")]);
        let b = r.counter_with("y_total", "Y.", &[("phase", "b")]);
        a.inc();
        b.add(5);
        let snap = r.snapshot();
        let fam = &snap.families[0];
        assert_eq!(fam.samples.len(), 2);
        assert_eq!(fam.samples[0].labels, vec![("phase".to_string(), "a".to_string())]);
        assert_eq!(fam.samples[0].value, SampleValue::Counter(1));
        assert_eq!(fam.samples[1].value, SampleValue::Counter(5));
    }

    #[test]
    #[should_panic(expected = "already registered")]
    fn kind_conflict_panics() {
        let r = Registry::new();
        r.counter("z", "Z.");
        r.histogram("z", "Z.");
    }

    #[test]
    fn enable_toggles() {
        let r = Registry::new();
        assert!(!r.is_enabled());
        r.enable();
        assert!(r.is_enabled());
        r.disable();
        assert!(!r.is_enabled());
    }

    #[test]
    fn snapshot_is_name_ordered() {
        let r = Registry::new();
        r.counter("b_total", "B.");
        r.counter("a_total", "A.");
        let names: Vec<_> = r.snapshot().families.iter().map(|f| f.name.clone()).collect();
        assert_eq!(names, ["a_total", "b_total"]);
    }

    #[test]
    fn concurrent_adds_do_not_lose_updates() {
        let r = Registry::new();
        let c = r.counter("race_total", "R.");
        std::thread::scope(|s| {
            for _ in 0..8 {
                let c = Arc::clone(&c);
                s.spawn(move || {
                    for _ in 0..1000 {
                        c.inc();
                    }
                });
            }
        });
        assert_eq!(c.get(), 8000);
    }
}
