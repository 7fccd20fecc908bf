//! Structured protocol tracing.
//!
//! The paper's Figure 2 is a message-sequence chart; to "reproduce the
//! figure" the emulator records every protocol-level step into a
//! [`TraceSink`] which the F2 experiment replays as a table. Traces are
//! typed [`TraceRecord`]s (see [`crate::record`]) carrying a timestamp, a
//! subsystem tag, a causal [`CorrId`], and a [`TraceData`] payload, and are
//! kept in a bounded ring so long runs cannot exhaust memory.

use std::collections::VecDeque;

use crate::record::{CorrId, TraceData, TraceRecord};
use crate::time::SimTime;

/// A bounded in-memory trace collector.
///
/// When `enabled` is false, `emit` is a no-op so hot paths pay only a branch.
///
/// # Examples
///
/// ```
/// use lastcpu_sim::{SimTime, TraceSink};
///
/// let mut t = TraceSink::bounded(2);
/// t.emit(SimTime::from_nanos(1), "bus", "device nic0 registered");
/// t.emit(SimTime::from_nanos(2), "bus", "device ssd0 registered");
/// t.emit(SimTime::from_nanos(3), "bus", "discovery query");
/// assert_eq!(t.len(), 2); // oldest evicted
/// ```
pub struct TraceSink {
    ring: VecDeque<TraceRecord>,
    capacity: usize,
    enabled: bool,
    emitted: u64,
}

impl Default for TraceSink {
    fn default() -> Self {
        Self::bounded(65_536)
    }
}

impl TraceSink {
    /// A sink keeping at most `capacity` most-recent records.
    ///
    /// The ring is reserved up front so steady-state emission never
    /// reallocates (growing incrementally under a hot loop used to cost a
    /// series of doubling copies before the ring reached capacity).
    pub fn bounded(capacity: usize) -> Self {
        let capacity = capacity.max(1);
        TraceSink {
            ring: VecDeque::with_capacity(capacity),
            capacity,
            enabled: true,
            emitted: 0,
        }
    }

    /// A sink that drops everything (for performance runs).
    pub fn disabled() -> Self {
        let mut s = Self::bounded(1);
        s.enabled = false;
        s
    }

    /// Turns collection on or off.
    pub fn set_enabled(&mut self, enabled: bool) {
        self.enabled = enabled;
    }

    /// Grows (or shrinks) the retention bound. Existing records beyond the
    /// new bound are evicted oldest-first; growth re-reserves the ring so
    /// steady-state emission stays allocation-free. Offline analyses that
    /// need every record of a long run (e.g. critical-path extraction over
    /// a whole E12 rack phase) raise this before the run.
    pub fn set_capacity(&mut self, capacity: usize) {
        let capacity = capacity.max(1);
        while self.ring.len() > capacity {
            self.ring.pop_front();
        }
        self.ring.reserve(capacity.saturating_sub(self.ring.len()));
        self.capacity = capacity;
    }

    /// Whether the sink is collecting.
    pub fn is_enabled(&self) -> bool {
        self.enabled
    }

    /// Records a free-form annotation with no correlation id (no-op when
    /// disabled). Prefer [`TraceSink::emit_data`] for typed records.
    pub fn emit(&mut self, at: SimTime, source: impl Into<String>, what: impl Into<String>) {
        self.emit_data(at, source, CorrId::NONE, TraceData::Text(what.into()));
    }

    /// Records a free-form annotation tagged with a correlation id.
    pub fn emit_corr(
        &mut self,
        at: SimTime,
        source: impl Into<String>,
        corr: CorrId,
        what: impl Into<String>,
    ) {
        self.emit_data(at, source, corr, TraceData::Text(what.into()));
    }

    /// Records a typed event (no-op when disabled).
    pub fn emit_data(
        &mut self,
        at: SimTime,
        source: impl Into<String>,
        corr: CorrId,
        data: TraceData,
    ) {
        if !self.enabled {
            return;
        }
        if self.ring.len() == self.capacity {
            self.ring.pop_front();
        }
        self.ring.push_back(TraceRecord {
            at,
            source: source.into(),
            corr,
            data,
        });
        self.emitted += 1;
    }

    /// The retained records, oldest first.
    pub fn events(&self) -> impl Iterator<Item = &TraceRecord> {
        self.ring.iter()
    }

    /// Number of records currently retained.
    pub fn len(&self) -> usize {
        self.ring.len()
    }

    /// Whether no records are retained.
    pub fn is_empty(&self) -> bool {
        self.ring.is_empty()
    }

    /// Total records emitted over the sink's lifetime (including evicted).
    pub fn total_emitted(&self) -> u64 {
        self.emitted
    }

    /// Records whose source starts with `prefix`, oldest first.
    pub fn by_source<'a>(&'a self, prefix: &'a str) -> impl Iterator<Item = &'a TraceRecord> {
        self.ring
            .iter()
            .filter(move |e| e.source.starts_with(prefix))
    }

    /// Records whose description contains `needle`, oldest first.
    pub fn containing<'a>(&'a self, needle: &'a str) -> impl Iterator<Item = &'a TraceRecord> {
        self.ring.iter().filter(move |e| e.what().contains(needle))
    }

    /// Records belonging to correlation id `corr`, oldest first.
    pub fn by_corr(&self, corr: CorrId) -> impl Iterator<Item = &TraceRecord> {
        self.ring.iter().filter(move |e| e.corr == corr)
    }

    /// Discards all retained records (the lifetime counter is kept).
    pub fn clear(&mut self) {
        self.ring.clear();
    }
}

impl lastcpu_snap::Snapshot for TraceSink {
    /// Serializes the full sink: configuration, lifetime counter, and every
    /// retained record (typed payloads included, so verification covers
    /// the rendered trace output).
    fn snapshot(&self, w: &mut lastcpu_snap::SnapWriter) {
        w.put_len(self.capacity);
        w.put_bool(self.enabled);
        w.put_u64(self.emitted);
        w.put_len(self.ring.len());
        for rec in &self.ring {
            rec.encode(w);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn records_in_order() {
        let mut t = TraceSink::bounded(16);
        t.emit(SimTime::from_nanos(1), "a", "x");
        t.emit(SimTime::from_nanos(2), "b", "y");
        let v: Vec<_> = t.events().collect();
        assert_eq!(v.len(), 2);
        assert_eq!(v[0].source, "a");
        assert_eq!(v[1].what(), "y");
    }

    #[test]
    fn ring_evicts_oldest() {
        let mut t = TraceSink::bounded(3);
        for i in 0..10u64 {
            t.emit(SimTime::from_nanos(i), "s", i.to_string());
        }
        let v: Vec<_> = t.events().map(|e| e.what()).collect();
        assert_eq!(v, vec!["7", "8", "9"]);
        assert_eq!(t.total_emitted(), 10);
    }

    #[test]
    fn ring_is_fully_reserved_up_front() {
        let t = TraceSink::bounded(4096);
        assert!(t.ring.capacity() >= 4096, "capacity {}", t.ring.capacity());
        assert!(t.is_empty());
        assert_eq!(t.len(), 0);
    }

    #[test]
    fn set_capacity_evicts_oldest_and_rebounds() {
        let mut t = TraceSink::bounded(8);
        for i in 0..8u64 {
            t.emit(SimTime::from_nanos(i), "s", i.to_string());
        }
        t.set_capacity(3);
        let v: Vec<_> = t.events().map(|e| e.what()).collect();
        assert_eq!(v, vec!["5", "6", "7"]);
        t.set_capacity(16);
        for i in 8..20u64 {
            t.emit(SimTime::from_nanos(i), "s", i.to_string());
        }
        assert_eq!(t.len(), 15); // 3 survivors + 12 new, under the new bound
        assert_eq!(t.total_emitted(), 20);
    }

    #[test]
    fn len_tracks_retained_records() {
        let mut t = TraceSink::bounded(2);
        assert!(t.is_empty());
        t.emit(SimTime::ZERO, "s", "a");
        assert_eq!(t.len(), 1);
        assert!(!t.is_empty());
        t.emit(SimTime::ZERO, "s", "b");
        t.emit(SimTime::ZERO, "s", "c");
        assert_eq!(t.len(), 2); // bounded
        t.clear();
        assert!(t.is_empty());
    }

    #[test]
    fn disabled_sink_drops() {
        let mut t = TraceSink::disabled();
        t.emit(SimTime::ZERO, "s", "x");
        assert_eq!(t.events().count(), 0);
        assert_eq!(t.total_emitted(), 0);
        t.set_enabled(true);
        t.emit(SimTime::ZERO, "s", "x");
        assert_eq!(t.events().count(), 1);
    }

    #[test]
    fn filters_work() {
        let mut t = TraceSink::bounded(16);
        t.emit(SimTime::ZERO, "bus", "register nic0");
        t.emit(SimTime::ZERO, "nic0", "self-test ok");
        t.emit(SimTime::ZERO, "bus", "register ssd0");
        assert_eq!(t.by_source("bus").count(), 2);
        assert_eq!(t.containing("nic0").count(), 1);
        t.clear();
        assert_eq!(t.events().count(), 0);
    }

    #[test]
    fn corr_filter_selects_one_activity() {
        let mut t = TraceSink::bounded(16);
        t.emit_corr(SimTime::ZERO, "nic0", CorrId(1), "step one");
        t.emit_corr(SimTime::ZERO, "bus", CorrId(2), "unrelated");
        t.emit_data(
            SimTime::from_nanos(5),
            "bus",
            CorrId(1),
            TraceData::Deliver {
                to: "ssd0".into(),
                kind: "OpenRequest",
            },
        );
        let span: Vec<_> = t.by_corr(CorrId(1)).collect();
        assert_eq!(span.len(), 2);
        assert_eq!(span[1].what(), "-> ssd0: OpenRequest");
    }

    #[test]
    fn display_is_stable() {
        let e = TraceRecord {
            at: SimTime::from_nanos(1500),
            source: "bus".into(),
            corr: CorrId(3),
            data: TraceData::Text("hello".into()),
        };
        let s = e.to_string();
        assert!(s.contains("bus"));
        assert!(s.contains("hello"));
        assert!(s.contains("1.500us"));
        assert!(s.contains("c3"));
    }
}
