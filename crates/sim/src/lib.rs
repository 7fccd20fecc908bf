//! Deterministic discrete-event simulation substrate for the `lastcpu`
//! CPU-less system emulator.
//!
//! "The Last CPU" (HotOS'21) proposes removing the CPU from the system and
//! splitting OS responsibilities between self-managing devices and a
//! privileged system-management bus. The paper's stated next step (§2.4) is a
//! software emulation of such a system; this crate provides the emulation
//! substrate every other crate builds on:
//!
//! - [`SimTime`] / [`SimDuration`]: virtual time in nanoseconds. All latencies
//!   reported by experiments are virtual, so results are independent of the
//!   host machine.
//! - [`EventQueue`]: a priority queue of timestamped events with a
//!   deterministic FIFO tie-break for events scheduled at the same instant.
//! - [`DetRng`]: a seeded, splittable random number generator. Two runs with
//!   the same seed produce identical traces.
//! - [`stats`]: counters and log-bucketed latency histograms used by the
//!   benchmark harness to report percentiles.
//! - [`trace`] / [`record`]: a structured trace sink of typed records
//!   carrying causal correlation ids (e.g. the seven steps of the paper's
//!   Figure 2 initialization sequence reconstruct as one span).
//! - [`metrics`]: the system-wide [`MetricsHub`] every subsystem registers
//!   counters, gauges, and histograms into.
//! - [`export`]: JSON-lines, Chrome `trace_event`, and Prometheus exporters
//!   so every experiment can emit machine-readable artifacts.
//! - [`fault`]: deterministic fault plans ([`FaultPlan`]) and the shared
//!   bounded-exponential [`BackoffPolicy`], so failure experiments replay
//!   bit-identically from a seed.
//! - [`dethash`]: [`DetHashMap`] / [`DetHashSet`] — seedless FNV-backed
//!   maps for simulator state, so even *allocation counts* (which the
//!   [`profile`] layer attributes per scope) are identical across
//!   processes, not just simulation semantics.
//!
//! The substrate is intentionally single-threaded: determinism is worth more
//! to an OS-design experiment than parallel speedup, and the simulated
//! machine itself is highly concurrent regardless.

#![forbid(unsafe_code)]

pub mod critpath;
pub mod dethash;
pub mod export;
pub mod fault;
pub mod metrics;
pub mod pool;
pub mod profile;
pub mod queue;
pub mod record;
pub mod rng;
pub mod stats;
pub mod time;
pub mod trace;

pub use critpath::CritPathReport;
pub use dethash::{DetHashMap, DetHashSet};
pub use fault::{BackoffPolicy, FaultEvent, FaultKind, FaultPlan};
pub use metrics::{CounterHandle, GaugeHandle, HistogramHandle, MetricsHub};
pub use pool::{BufPool, Bytes, PoolStats};
pub use profile::{AllocScope, ProfileSnapshot};
pub use queue::{EventQueue, HeapQueue, ScheduledEvent};
pub use record::{CorrId, TraceData, TraceRecord};
pub use rng::DetRng;
pub use stats::{Counter, Histogram, StatsRegistry};
pub use time::{SimDuration, SimTime};
pub use trace::TraceSink;
