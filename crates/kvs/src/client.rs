//! Closed-loop KVS workload generator.
//!
//! A [`KvsClientHost`] is a client machine on the network: it keeps a fixed
//! number of requests outstanding (closed loop), draws keys from a Zipfian
//! distribution and operations from a read/write mix — the YCSB knobs — and
//! records end-to-end latencies into the system stats registry.

use lastcpu_net::{Frame, PortId};
use lastcpu_sim::critpath::{op_key, STAGE_CLIENT_DONE, STAGE_CLIENT_ISSUE};
use lastcpu_sim::{CounterHandle, DetHashMap, HistogramHandle, MetricsHub, SimDuration, SimTime};

use lastcpu_core::{HostCtx, NetHost};

use crate::proto::{encode_get_into, encode_put_into, KvsRequest, KvsResponseRef, KvsStatus};

/// Retry/progress timer token.
const TOKEN_TICK: u64 = 1;

/// Workload parameters.
#[derive(Debug, Clone)]
pub struct WorkloadConfig {
    /// Number of distinct keys.
    pub keys: u64,
    /// Zipfian skew (0 = uniform; YCSB default 0.99).
    pub theta: f64,
    /// Fraction of GETs (rest are PUTs).
    pub read_fraction: f64,
    /// Value size in bytes.
    pub value_size: usize,
    /// Requests kept outstanding (closed loop).
    pub outstanding: usize,
    /// Total operations to run (after load phase).
    pub total_ops: u64,
    /// Pre-load every key once before measuring.
    pub preload: bool,
    /// Request timeout: outstanding requests older than this are counted as
    /// lost and reissued (closed-loop recovery after server failures).
    pub timeout: SimDuration,
    /// Stats key prefix, e.g. `"client0"`.
    pub stats_prefix: String,
}

impl Default for WorkloadConfig {
    fn default() -> Self {
        WorkloadConfig {
            keys: 1000,
            theta: 0.99,
            read_fraction: 0.95,
            value_size: 128,
            outstanding: 8,
            total_ops: 2000,
            preload: true,
            timeout: SimDuration::from_millis(100),
            stats_prefix: "client".into(),
        }
    }
}

/// Workload phase.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Phase {
    /// Waiting for the server to come up (probing).
    Probing,
    /// Inserting every key once.
    Loading,
    /// Measuring.
    Running,
    /// Finished.
    Done,
}

/// Pre-registered metric handles, interned once at power-on. The measured
/// loop used to build five `format!("{prefix}.…")` keys per completed op —
/// the single largest client-side contributor to the E9 allocs/event count.
struct ClientMetrics {
    latency: HistogramHandle,
    kvs_latency: HistogramHandle,
    get_latency: HistogramHandle,
    put_latency: HistogramHandle,
    gets: CounterHandle,
    puts: CounterHandle,
    unavailable: CounterHandle,
}

impl ClientMetrics {
    fn register(hub: &MetricsHub, prefix: &str) -> Self {
        ClientMetrics {
            latency: hub.histogram_handle(&format!("{prefix}.latency")),
            kvs_latency: hub.histogram_handle(&format!("kvs.{prefix}.latency")),
            get_latency: hub.histogram_handle(&format!("{prefix}.get_latency")),
            put_latency: hub.histogram_handle(&format!("{prefix}.put_latency")),
            gets: hub.counter_handle(&format!("kvs.{prefix}.gets")),
            puts: hub.counter_handle(&format!("kvs.{prefix}.puts")),
            unavailable: hub.counter_handle(&format!("kvs.{prefix}.unavailable")),
        }
    }
}

/// The client machine.
pub struct KvsClientHost {
    server: PortId,
    config: WorkloadConfig,
    met: Option<ClientMetrics>,
    phase: Phase,
    next_id: u64,
    /// id → (sent_at, is_read).
    outstanding: DetHashMap<u64, (SimTime, bool)>,
    load_next: u64,
    ops_done: u64,
    ops_issued: u64,
    errors: u64,
    busy_rejections: u64,
    unavailable_rejections: u64,
    timeouts: u64,
    started_at: Option<SimTime>,
    finished_at: Option<SimTime>,
    /// Reusable PUT-value buffer: refilled per issue, so the steady-state
    /// loop never allocates for values.
    value_scratch: Vec<u8>,
}

impl KvsClientHost {
    /// Creates a client aimed at the KVS frontend on `server`.
    pub fn new(server: PortId, config: WorkloadConfig) -> Self {
        KvsClientHost {
            server,
            config,
            met: None,
            phase: Phase::Probing,
            next_id: 1,
            outstanding: DetHashMap::default(),
            load_next: 0,
            ops_done: 0,
            ops_issued: 0,
            errors: 0,
            busy_rejections: 0,
            unavailable_rejections: 0,
            timeouts: 0,
            started_at: None,
            finished_at: None,
            value_scratch: Vec::new(),
        }
    }

    /// Whether the workload completed.
    pub fn is_done(&self) -> bool {
        self.phase == Phase::Done
    }

    /// Operations completed in the measured phase.
    pub fn ops_done(&self) -> u64 {
        self.ops_done
    }

    /// Error responses observed.
    pub fn errors(&self) -> u64 {
        self.errors
    }

    /// `Busy` responses observed (server shed load).
    pub fn busy_rejections(&self) -> u64 {
        self.busy_rejections
    }

    /// `Unavailable` responses observed (server failed over / recovering).
    pub fn unavailable_rejections(&self) -> u64 {
        self.unavailable_rejections
    }

    /// Requests that timed out (lost with a failed server).
    pub fn timeouts(&self) -> u64 {
        self.timeouts
    }

    /// Measured-phase wall time, once done.
    pub fn elapsed(&self) -> Option<SimDuration> {
        Some(self.finished_at?.since(self.started_at?))
    }

    /// When the measured phase began.
    pub fn started_at(&self) -> Option<SimTime> {
        self.started_at
    }

    /// When the measured phase ended.
    pub fn finished_at(&self) -> Option<SimTime> {
        self.finished_at
    }

    /// Throughput in ops per virtual second, once done.
    pub fn throughput(&self) -> Option<f64> {
        let e = self.elapsed()?;
        if e == SimDuration::ZERO {
            return None;
        }
        Some(self.ops_done as f64 / (e.as_nanos() as f64 / 1e9))
    }

    /// Formats `key{k:08}` into `buf` without allocating (the zero-pad
    /// widens for keys past eight digits, matching `format!`). 23 bytes is
    /// "key" plus the 20 digits of `u64::MAX`.
    fn key_encode(k: u64, buf: &mut [u8; 23]) -> &[u8] {
        let mut digits = 1usize;
        let mut t = k;
        while t >= 10 {
            t /= 10;
            digits += 1;
        }
        let len = 3 + digits.max(8);
        buf[..3].copy_from_slice(b"key");
        let mut v = k;
        for b in buf[3..len].iter_mut().rev() {
            *b = b'0' + (v % 10) as u8;
            v /= 10;
        }
        &buf[..len]
    }

    #[cfg(test)]
    fn key_bytes(k: u64) -> Vec<u8> {
        let mut buf = [0u8; 23];
        Self::key_encode(k, &mut buf).to_vec()
    }

    /// Issues a GET, encoding straight into a pooled buffer.
    fn send_get(&mut self, ctx: &mut HostCtx<'_>, id: u64, key: &[u8]) {
        self.outstanding.insert(id, (ctx.now, true));
        let mut buf = ctx.take_buf();
        encode_get_into(id, key, buf.vec_mut());
        ctx.net_tx(self.server, buf);
    }

    /// Issues a PUT with a `fill`-byte value, encoding straight into a
    /// pooled buffer (the value materializes in a reusable scratch).
    fn send_put(&mut self, ctx: &mut HostCtx<'_>, id: u64, key: &[u8], fill: u8) {
        self.outstanding.insert(id, (ctx.now, false));
        self.value_scratch.clear();
        self.value_scratch.resize(self.config.value_size, fill);
        let mut buf = ctx.take_buf();
        encode_put_into(id, key, &self.value_scratch, buf.vec_mut());
        ctx.net_tx(self.server, buf);
    }

    fn issue_one(&mut self, ctx: &mut HostCtx<'_>) {
        let id = self.next_id;
        self.next_id += 1;
        let mut kb = [0u8; 23];
        match self.phase {
            Phase::Loading => {
                let key = Self::key_encode(self.load_next, &mut kb);
                self.load_next += 1;
                self.send_put(ctx, id, key, 0xAB);
            }
            Phase::Running => {
                let k = ctx.rng().zipf(self.config.keys, self.config.theta);
                let key = Self::key_encode(k, &mut kb);
                let is_read = ctx.rng().chance(self.config.read_fraction);
                if is_read {
                    self.send_get(ctx, id, key);
                } else {
                    self.send_put(ctx, id, key, 0xCD);
                }
                ctx.stage(STAGE_CLIENT_ISSUE, op_key(ctx.port.0, id), is_read as u64);
                self.ops_issued += 1;
            }
            _ => {}
        }
    }

    fn fill_pipeline(&mut self, ctx: &mut HostCtx<'_>) {
        match self.phase {
            Phase::Loading => {
                while self.outstanding.len() < self.config.outstanding
                    && self.load_next < self.config.keys
                {
                    self.issue_one(ctx);
                }
                if self.load_next >= self.config.keys && self.outstanding.is_empty() {
                    self.phase = Phase::Running;
                    self.started_at = Some(ctx.now);
                    ctx.set_timer(self.config.timeout, TOKEN_TICK);
                    self.fill_pipeline(ctx);
                }
            }
            Phase::Running => {
                while self.outstanding.len() < self.config.outstanding
                    && self.ops_issued < self.config.total_ops
                {
                    self.issue_one(ctx);
                }
                if self.ops_done >= self.config.total_ops && self.outstanding.is_empty() {
                    self.phase = Phase::Done;
                    self.finished_at = Some(ctx.now);
                    ctx.trace(format!(
                        "workload done: {} ops, {} errors",
                        self.ops_done, self.errors
                    ));
                }
            }
            _ => {}
        }
    }

    fn probe(&mut self, ctx: &mut HostCtx<'_>) {
        // A 1-byte GET; any non-Busy answer means the server is up.
        let id = self.next_id;
        self.next_id += 1;
        self.outstanding.insert(id, (ctx.now, true));
        ctx.net_tx(
            self.server,
            KvsRequest::Get {
                id,
                key: b"probe".to_vec(),
            }
            .encode(),
        );
        ctx.set_timer(SimDuration::from_millis(2), TOKEN_TICK);
    }
}

impl NetHost for KvsClientHost {
    fn snapshot_state(&self, w: &mut lastcpu_snap::SnapWriter) -> lastcpu_snap::Result<()> {
        lastcpu_snap::Snapshot::snapshot(self, w);
        Ok(())
    }

    fn name(&self) -> &str {
        &self.config.stats_prefix
    }

    fn on_start(&mut self, ctx: &mut HostCtx<'_>) {
        self.met = Some(ClientMetrics::register(
            ctx.stats,
            &self.config.stats_prefix,
        ));
        self.probe(ctx);
    }

    fn on_frame(&mut self, ctx: &mut HostCtx<'_>, frame: Frame) {
        // Borrowed decode: the client never needs an owned copy of the
        // value bytes, so the hot completion path is allocation-free.
        let Some(resp) = KvsResponseRef::decode(&frame.payload) else {
            return;
        };
        let Some((sent_at, is_read)) = self.outstanding.remove(&resp.id) else {
            return;
        };
        match self.phase {
            Phase::Probing => {
                if matches!(resp.status, KvsStatus::Busy | KvsStatus::Unavailable) {
                    // Not up yet (or recovering); the tick timer re-probes.
                    return;
                }
                self.phase = if self.config.preload {
                    Phase::Loading
                } else {
                    self.started_at = Some(ctx.now);
                    Phase::Running
                };
                ctx.set_timer(self.config.timeout, TOKEN_TICK);
                self.fill_pipeline(ctx);
            }
            Phase::Loading => {
                match resp.status {
                    KvsStatus::Ok => {}
                    KvsStatus::Busy => {
                        // Reload this key later; simplest is to append it
                        // again at the end of the load range.
                        self.busy_rejections += 1;
                        self.load_next = self.load_next.saturating_sub(1);
                    }
                    KvsStatus::Unavailable => {
                        // Server failed over mid-load; reload the key once
                        // recovery completes.
                        self.unavailable_rejections += 1;
                        self.load_next = self.load_next.saturating_sub(1);
                    }
                    _ => self.errors += 1,
                }
                self.fill_pipeline(ctx);
            }
            Phase::Running => {
                let latency = ctx.now.since(sent_at);
                let met = self.met.as_ref().expect("registered in on_start");
                match resp.status {
                    KvsStatus::Ok | KvsStatus::NotFound => {
                        self.ops_done += 1;
                        ctx.stage(
                            STAGE_CLIENT_DONE,
                            op_key(ctx.port.0, resp.id),
                            latency.as_nanos(),
                        );
                        met.latency.record(latency);
                        // Hub-keyed copies under the `kvs.` subsystem so a
                        // metrics snapshot always exposes the KVS layer.
                        met.kvs_latency.record(latency);
                        if is_read {
                            met.get_latency.record(latency);
                            met.gets.incr();
                        } else {
                            met.put_latency.record(latency);
                            met.puts.incr();
                        }
                    }
                    KvsStatus::Busy => {
                        self.busy_rejections += 1;
                        self.ops_done += 1;
                        // Back off: refill on the next tick instead of
                        // hammering a shedding server at wire speed.
                        return;
                    }
                    KvsStatus::Unavailable => {
                        // Explicit degradation: the server lost its backing
                        // store and is re-running discovery. Count the op as
                        // done (no latency sample) and back off until the
                        // next tick — recovery takes bus round-trips, not
                        // wire time.
                        self.unavailable_rejections += 1;
                        self.ops_done += 1;
                        met.unavailable.incr();
                        return;
                    }
                    KvsStatus::Error => {
                        self.errors += 1;
                        self.ops_done += 1;
                    }
                }
                self.fill_pipeline(ctx);
            }
            Phase::Done => {}
        }
    }

    fn on_timer(&mut self, ctx: &mut HostCtx<'_>, token: u64) {
        if token != TOKEN_TICK {
            return;
        }
        match self.phase {
            Phase::Probing => {
                self.outstanding.clear();
                self.probe(ctx);
            }
            Phase::Loading | Phase::Running => {
                // Expire lost requests (e.g. they died with a failed
                // server) so the closed loop keeps moving.
                let deadline = self.config.timeout;
                let now = ctx.now;
                let before = self.outstanding.len();
                self.outstanding
                    .retain(|_, (sent, _)| now.since(*sent) < deadline);
                let lost = (before - self.outstanding.len()) as u64;
                self.timeouts += lost;
                if self.phase == Phase::Running {
                    // Timed-out ops count as done (with no latency sample)
                    // so workloads terminate even across failures.
                    self.ops_done += lost;
                }
                if self.phase == Phase::Loading {
                    self.load_next = self.load_next.saturating_sub(lost);
                }
                self.fill_pipeline(ctx);
                if self.phase != Phase::Done {
                    ctx.set_timer(self.config.timeout, TOKEN_TICK);
                }
            }
            Phase::Done => {}
        }
    }
}

fn phase_tag(p: Phase) -> u8 {
    match p {
        Phase::Probing => 0,
        Phase::Loading => 1,
        Phase::Running => 2,
        Phase::Done => 3,
    }
}

impl lastcpu_snap::Snapshot for KvsClientHost {
    fn snapshot(&self, w: &mut lastcpu_snap::SnapWriter) {
        w.put_u32(self.server.0);
        w.put_u64(self.config.keys);
        w.put_f64(self.config.theta);
        w.put_f64(self.config.read_fraction);
        w.put_len(self.config.value_size);
        w.put_len(self.config.outstanding);
        w.put_u64(self.config.total_ops);
        w.put_bool(self.config.preload);
        w.put_u64(self.config.timeout.as_nanos());
        w.put_str(&self.config.stats_prefix);
        w.put_u8(phase_tag(self.phase));
        w.put_u64(self.next_id);
        let mut ids: Vec<u64> = self.outstanding.keys().copied().collect();
        ids.sort_unstable();
        w.put_len(ids.len());
        for id in ids {
            let (sent, is_read) = self.outstanding[&id];
            w.put_u64(id);
            w.put_u64(sent.as_nanos());
            w.put_bool(is_read);
        }
        w.put_u64(self.load_next);
        w.put_u64(self.ops_done);
        w.put_u64(self.ops_issued);
        w.put_u64(self.errors);
        w.put_u64(self.busy_rejections);
        w.put_u64(self.unavailable_rejections);
        w.put_u64(self.timeouts);
        w.put_opt(self.started_at.as_ref(), |w, t| w.put_u64(t.as_nanos()));
        w.put_opt(self.finished_at.as_ref(), |w, t| w.put_u64(t.as_nanos()));
        // Excluded: `met` (live MetricsHub handles) and `value_scratch`
        // (refilled on every issue).
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn key_bytes_are_stable_and_distinct() {
        assert_eq!(KvsClientHost::key_bytes(1), b"key00000001".to_vec());
        assert_ne!(KvsClientHost::key_bytes(1), KvsClientHost::key_bytes(2));
    }

    #[test]
    fn key_encode_matches_format_macro() {
        for k in [
            0,
            1,
            9,
            10,
            99_999_999,
            100_000_000,
            1_234_567_890,
            u64::MAX,
        ] {
            let mut buf = [0u8; 23];
            assert_eq!(
                KvsClientHost::key_encode(k, &mut buf),
                format!("key{k:08}").as_bytes(),
                "key {k}"
            );
        }
    }

    #[test]
    fn fresh_client_is_not_done() {
        let c = KvsClientHost::new(PortId(1), WorkloadConfig::default());
        assert!(!c.is_done());
        assert_eq!(c.ops_done(), 0);
        assert!(c.throughput().is_none());
    }
}
