//! The metrics registry: named counters/gauges/histograms, get-or-create
//! by name, snapshot into an immutable [`MetricsSnapshot`].
//!
//! Metric names are dot-separated with the owning layer as the first
//! segment (`ssd.drain_ns`, `fabric.submit_ns`, ...). The layer prefix is
//! what `nvmecr-trace` groups on when it emits per-layer percentiles.

use crate::metrics::{Counter, Gauge, Histogram, HistogramSnapshot};
use crate::recorder::FlightRecorder;
use parking_lot::RwLock;
use std::collections::BTreeMap;
use std::sync::Arc;

/// A named collection of metrics. Lookup is a read-locked BTreeMap hit;
/// instrument-once-then-record callers should resolve their `Arc` handles
/// up front and bypass the map on the hot path. Every registry also owns
/// one [`FlightRecorder`], so private test registries get private rings.
#[derive(Default)]
pub struct Registry {
    counters: RwLock<BTreeMap<String, Arc<Counter>>>,
    gauges: RwLock<BTreeMap<String, Arc<Gauge>>>,
    histograms: RwLock<BTreeMap<String, Arc<Histogram>>>,
    recorder: Arc<FlightRecorder>,
}

macro_rules! get_or_create {
    ($map:expr, $name:expr, $make:expr) => {{
        if let Some(m) = $map.read().get($name) {
            return Arc::clone(m);
        }
        let mut w = $map.write();
        Arc::clone(
            w.entry($name.to_string())
                .or_insert_with(|| Arc::new($make())),
        )
    }};
}

impl Registry {
    /// Create an empty registry.
    pub fn new() -> Self {
        Self::default()
    }

    /// Get or create the counter named `name`.
    pub fn counter(&self, name: &str) -> Arc<Counter> {
        get_or_create!(self.counters, name, Counter::new)
    }

    /// Get or create the gauge named `name`.
    pub fn gauge(&self, name: &str) -> Arc<Gauge> {
        get_or_create!(self.gauges, name, Gauge::new)
    }

    /// Get or create the histogram named `name`.
    pub fn histogram(&self, name: &str) -> Arc<Histogram> {
        get_or_create!(self.histograms, name, Histogram::new)
    }

    /// Get or create the [sampled](Histogram::sampled) histogram named
    /// `name`. A name keeps the kind it was first created with.
    pub fn sampled_histogram(&self, name: &str) -> Arc<Histogram> {
        get_or_create!(self.histograms, name, Histogram::sampled)
    }

    /// This registry's flight recorder.
    pub fn recorder(&self) -> &Arc<FlightRecorder> {
        &self.recorder
    }

    /// Capture every metric's current value.
    pub fn snapshot(&self) -> MetricsSnapshot {
        MetricsSnapshot {
            counters: self
                .counters
                .read()
                .iter()
                .map(|(k, v)| (k.clone(), v.get()))
                .collect(),
            gauges: self
                .gauges
                .read()
                .iter()
                .map(|(k, v)| {
                    (
                        k.clone(),
                        GaugeSnapshot {
                            value: v.get(),
                            peak: v.peak(),
                        },
                    )
                })
                .collect(),
            histograms: self
                .histograms
                .read()
                .iter()
                .map(|(k, v)| (k.clone(), v.snapshot()))
                .collect(),
        }
    }
}

impl std::fmt::Debug for Registry {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Registry")
            .field("counters", &self.counters.read().len())
            .field("gauges", &self.gauges.read().len())
            .field("histograms", &self.histograms.read().len())
            .finish()
    }
}

/// Point-in-time value of a gauge.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct GaugeSnapshot {
    /// Level at snapshot time.
    pub value: i64,
    /// High-water mark since creation.
    pub peak: i64,
}

/// An immutable capture of every metric in a registry.
#[derive(Clone, Debug, Default)]
pub struct MetricsSnapshot {
    /// Counter totals by name.
    pub counters: BTreeMap<String, u64>,
    /// Gauge levels/peaks by name.
    pub gauges: BTreeMap<String, GaugeSnapshot>,
    /// Histogram snapshots by name.
    pub histograms: BTreeMap<String, HistogramSnapshot>,
}

impl MetricsSnapshot {
    /// Counter total, 0 when absent.
    pub fn counter(&self, name: &str) -> u64 {
        self.counters.get(name).copied().unwrap_or(0)
    }

    /// Gauge snapshot, zeroed when absent.
    pub fn gauge(&self, name: &str) -> GaugeSnapshot {
        self.gauges
            .get(name)
            .copied()
            .unwrap_or(GaugeSnapshot { value: 0, peak: 0 })
    }

    /// Histogram snapshot, `None` when absent.
    pub fn histogram(&self, name: &str) -> Option<&HistogramSnapshot> {
        self.histograms.get(name)
    }

    /// Distinct layer prefixes (first dot-separated segment) present in
    /// any metric kind.
    pub fn layers(&self) -> Vec<String> {
        let mut out: Vec<String> = Vec::new();
        let mut push = |name: &str| {
            let layer = name.split('.').next().unwrap_or(name).to_string();
            if !out.contains(&layer) {
                out.push(layer);
            }
        };
        self.counters.keys().for_each(|k| push(k));
        self.gauges.keys().for_each(|k| push(k));
        self.histograms.keys().for_each(|k| push(k));
        out.sort();
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn get_or_create_returns_same_instance() {
        let r = Registry::new();
        let a = r.counter("x.hits");
        let b = r.counter("x.hits");
        a.add(3);
        b.add(4);
        assert_eq!(r.snapshot().counter("x.hits"), 7);
    }

    #[test]
    fn snapshot_captures_all_kinds() {
        let r = Registry::new();
        r.counter("ssd.bytes").add(100);
        r.gauge("ssd.depth").add(5);
        r.histogram("fabric.lat_ns").record(42);
        let s = r.snapshot();
        assert_eq!(s.counter("ssd.bytes"), 100);
        assert_eq!(s.gauge("ssd.depth").value, 5);
        assert_eq!(s.histogram("fabric.lat_ns").unwrap().count, 1);
        assert_eq!(s.layers(), vec!["fabric".to_string(), "ssd".to_string()]);
    }
}
