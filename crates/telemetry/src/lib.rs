//! Cross-layer observability for the NVMe-CR runtime.
//!
//! The paper's argument is a *breakdown* argument: checkpoint time is
//! attributed to specific layers (kernel trap vs. polled userspace, WAL
//! append vs. coalescing, queueing vs. media). This crate is the single
//! observability surface that makes those breakdowns measurable:
//!
//! - [`metrics`] — sharded [`Counter`]s/[`Gauge`]s and log2-bucketed
//!   latency [`Histogram`]s (record in ns; query p50/p90/p99/p999; merge
//!   across rank threads without contention).
//! - [`registry`] — named metrics, snapshotted into an immutable
//!   [`MetricsSnapshot`] that rides in `FunctionalReport`.
//! - [`trace`] — scoped spans with parent/child nesting, exportable as
//!   Chrome `trace_event` JSON and JSONL. Off by default; enabled only
//!   inside [`trace::capture`].
//! - [`recorder`] — the always-on black-box flight recorder: lock-free
//!   per-shard event rings capturing the last few thousand causal events
//!   (trace-identified by rank/epoch/CID/retry-generation), auto-dumped
//!   to JSONL when a fault, CRC error, retry exhaustion, or rollback
//!   trips it.
//! - [`clock`] — the one wall clock: [`now`] is the only clock read in
//!   library code, counted per thread in debug builds.
//! - [`context`] — thread-local (rank, epoch) trace context propagated
//!   from the driver's rank fan-out into every event recorded below it.
//! - [`json`] — a minimal parser so emitted reports can self-validate in
//!   an offline build.
//!
//! Each subsystem takes a [`Telemetry`] handle at construction
//! (`Ssd::with_telemetry`, `Initiator::with_telemetry`, the `telemetry`
//! field on `FsConfig`/`RuntimeConfig`). Production paths share
//! [`Telemetry::global`]; tests that assert exact counter values create a
//! private [`Telemetry::new`] so parallel tests never share counters.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod clock;
pub mod context;
pub mod json;
pub mod metrics;
pub mod recorder;
pub mod registry;
pub mod trace;

#[cfg(debug_assertions)]
pub use clock::clock_reads;
pub use clock::{now, ns_between, ns_since};
pub use metrics::{Counter, Gauge, Histogram, HistogramSnapshot};
pub use recorder::{FlightEvent, FlightKind, FlightRecorder};
pub use registry::{GaugeSnapshot, MetricsSnapshot, Registry};
pub use trace::{capture, instant, span, Span, Trace, TraceEvent};

use std::sync::{Arc, OnceLock};

/// A cheap, cloneable handle to a metrics registry. Clones share the same
/// underlying registry.
#[derive(Clone)]
pub struct Telemetry {
    registry: Arc<Registry>,
}

impl Telemetry {
    /// A fresh, private registry — use in tests that assert exact counts.
    pub fn new() -> Self {
        Self {
            registry: Self::linked_registry(),
        }
    }

    /// The process-wide default registry.
    pub fn global() -> Self {
        static GLOBAL: OnceLock<Arc<Registry>> = OnceLock::new();
        Self {
            registry: Arc::clone(GLOBAL.get_or_init(Self::linked_registry)),
        }
    }

    /// A registry whose flight recorder holds a backref to it, so trip
    /// dumps can embed the registry's metrics snapshot.
    fn linked_registry() -> Arc<Registry> {
        let registry = Arc::new(Registry::new());
        registry.recorder().set_registry(Arc::downgrade(&registry));
        registry
    }

    /// The underlying registry.
    pub fn registry(&self) -> &Registry {
        &self.registry
    }

    /// Get or create the counter named `name`.
    pub fn counter(&self, name: &str) -> Arc<Counter> {
        self.registry.counter(name)
    }

    /// Get or create the gauge named `name`.
    pub fn gauge(&self, name: &str) -> Arc<Gauge> {
        self.registry.gauge(name)
    }

    /// Get or create the histogram named `name`.
    pub fn histogram(&self, name: &str) -> Arc<Histogram> {
        self.registry.histogram(name)
    }

    /// Get or create the [sampled](Histogram::sampled) histogram named
    /// `name`.
    pub fn sampled_histogram(&self, name: &str) -> Arc<Histogram> {
        self.registry.sampled_histogram(name)
    }

    /// Snapshot every metric.
    pub fn snapshot(&self) -> MetricsSnapshot {
        self.registry.snapshot()
    }

    /// This registry's flight recorder. Hot-path callers resolve the
    /// `Arc` once at construction, like metric handles.
    pub fn recorder(&self) -> Arc<FlightRecorder> {
        Arc::clone(self.registry.recorder())
    }

    /// Do two handles share a registry?
    pub fn same_registry(&self, other: &Telemetry) -> bool {
        Arc::ptr_eq(&self.registry, &other.registry)
    }
}

impl Default for Telemetry {
    /// The default handle is the process-global registry, so plain
    /// `Config::default()` construction wires every layer to one surface.
    fn default() -> Self {
        Self::global()
    }
}

impl std::fmt::Debug for Telemetry {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let global = self.same_registry(&Telemetry::global());
        f.debug_struct("Telemetry")
            .field("global", &global)
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn clones_share_a_registry() {
        let t = Telemetry::new();
        let u = t.clone();
        t.counter("a.x").add(2);
        u.counter("a.x").add(3);
        assert_eq!(t.snapshot().counter("a.x"), 5);
        assert!(t.same_registry(&u));
    }

    #[test]
    fn new_registries_are_isolated() {
        let t = Telemetry::new();
        let u = Telemetry::new();
        t.counter("a.x").add(2);
        assert_eq!(u.snapshot().counter("a.x"), 0);
        assert!(!t.same_registry(&u));
    }

    #[test]
    fn global_is_shared_and_default() {
        assert!(Telemetry::global().same_registry(&Telemetry::default()));
    }
}
