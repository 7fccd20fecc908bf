//! The three workloads and one repetition ("rep") of each.
//!
//! A rep builds the deployment, powers it on and runs until every client
//! has finished its preload (`started_at()` is set; on the rack, until the
//! first has) — that is the set-up.
//! It then resets the machines' metric hubs and runs the measured window,
//! reading every deterministic counter before and after. An untraced
//! `kvs-cold` rep ends with a checkpoint that is restored into a freshly
//! built deployment; a traced rep profiles the window instead.

use std::collections::BTreeMap;
use std::sync::OnceLock;

use lastcpu_core::devices::nic::SmartNic;
use lastcpu_core::devices::ssd::{SmartSsd, SsdConfig};
use lastcpu_core::{DeviceHandle, HostCtx, NetHost, System, SystemConfig};
use lastcpu_fabric::{FabricConfig, MachineId, TopoKind, TopologyConfig};
use lastcpu_kvs::{
    build_cpuless_kvs, build_rack_kvs_with_policy, KvsClientHost, KvsNicApp, RackSetup,
    RetryPolicy, ServerConfig, WorkloadConfig,
};
use lastcpu_net::{Frame, PortId};
use lastcpu_sim::{critpath, profile, CritPathReport, Histogram, ProfileSnapshot};
use lastcpu_sim::{SimDuration, SimTime};
use lastcpu_sim::{TraceData, TraceRecord};
use lastcpu_snap::Checkpoint;

use crate::alloc;
use crate::calib::HostClock;

/// Profile scope of the benchmark's client wrapper.
pub const CLIENT_SCOPE: &str = "kvs.client";
/// Profile scope around each `run_for` slice of a traced window.
pub const SLICE_SCOPE: &str = "bench.slice";

/// The benchmark's workloads.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// One machine, 512-entry NIC value cache, Zipf keys: the cache-hit
    /// GET fast path.
    KvsHot,
    /// One machine, no cache, uniform keys, 50 % PUT: virtio, SSD, FTL and
    /// IOMMU on every op.
    KvsCold,
    /// The E10 cell: 64 machines on `leaf-spine:8`, R = 2.
    Rack64,
}

impl Workload {
    /// Every workload, in report order.
    pub const ALL: [Workload; 3] = [Workload::KvsHot, Workload::KvsCold, Workload::Rack64];

    /// The `--workload` name.
    pub fn name(self) -> &'static str {
        match self {
            Workload::KvsHot => "kvs-hot",
            Workload::KvsCold => "kvs-cold",
            Workload::Rack64 => "rack64",
        }
    }

    /// Parses a `--workload` name.
    pub fn parse(s: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == s)
    }

    /// The system seed for benchmark seed `seed`. Seed 0 is the workload's
    /// canonical seed (the E10 cell's `0xE10` for `rack64`).
    pub fn system_seed(self, seed: u64) -> u64 {
        let canonical = match self {
            Workload::KvsHot | Workload::KvsCold => SystemConfig::default().seed,
            Workload::Rack64 => 0xE10,
        };
        canonical ^ seed.wrapping_mul(0x9E37_79B9_7F4A_7C15)
    }
}

/// Workload sizes. [`Scale::FULL`] is the benchmark; tests shrink it.
#[derive(Debug, Clone, Copy)]
pub struct Scale {
    /// Measured virtual window of `kvs-hot`.
    pub hot_window: SimDuration,
    /// Measured virtual window of `kvs-cold`.
    pub cold_window: SimDuration,
    /// Keyspace of `kvs-cold` (every client preloads all of it).
    pub cold_keys: u64,
    /// Machines in `rack64`.
    pub rack_machines: usize,
    /// Ops per `rack64` client after preload.
    pub rack_ops: u64,
}

impl Scale {
    /// The benchmark's sizes.
    pub const FULL: Scale = Scale {
        hot_window: SimDuration::from_millis(1000),
        cold_window: SimDuration::from_secs(30),
        cold_keys: 20_000,
        rack_machines: 64,
        rack_ops: 2000,
    };
}

/// Named deterministic counters; a window's figures are `end - start`.
pub type Counters = BTreeMap<&'static str, u64>;

fn bump(c: &mut Counters, key: &'static str, v: u64) {
    *c.entry(key).or_insert(0) += v;
}

fn delta(end: &Counters, start: &Counters) -> Counters {
    end.iter()
        .map(|(&k, &v)| (k, v - start.get(k).copied().unwrap_or(0)))
        .collect()
}

/// The benchmark's span around the load generator: forwards every call to
/// a [`KvsClientHost`] inside a `kvs.client` profile span, so a traced run
/// separates client time from the `engine.net_deliver` event that carries
/// it. The span is inert while profiling is off.
pub struct TimedClient(pub KvsClientHost);

impl NetHost for TimedClient {
    fn name(&self) -> &str {
        self.0.name()
    }

    fn on_start(&mut self, ctx: &mut HostCtx<'_>) {
        let _s = profile::span(CLIENT_SCOPE);
        self.0.on_start(ctx);
    }

    fn on_frame(&mut self, ctx: &mut HostCtx<'_>, frame: Frame) {
        let _s = profile::span(CLIENT_SCOPE);
        self.0.on_frame(ctx, frame);
    }

    fn on_timer(&mut self, ctx: &mut HostCtx<'_>, token: u64) {
        let _s = profile::span(CLIENT_SCOPE);
        self.0.on_timer(ctx, token);
    }

    fn snapshot_state(&self, w: &mut lastcpu_snap::SnapWriter) -> lastcpu_snap::Result<()> {
        self.0.snapshot_state(w)
    }

    fn restore_state(&mut self, r: &mut lastcpu_snap::SnapReader<'_>) -> lastcpu_snap::Result<()> {
        self.0.restore_state(r)
    }
}

/// One machine of a deployment: the KVS frontend NIC, the SSD and the
/// client ports attached to it.
struct Node {
    nic: DeviceHandle,
    ssd: DeviceHandle,
    clients: Vec<PortId>,
}

/// Reads one machine's cumulative counters into `c`.
fn machine_counters(sys: &mut System, node: &Node, c: &mut Counters) {
    for &p in &node.clients {
        let cl = &sys.host_as::<TimedClient>(p).expect("client present").0;
        bump(c, "client.ops", cl.ops_done());
        bump(c, "client.errors", cl.errors());
        bump(c, "client.timeouts", cl.timeouts());
        bump(c, "client.unavailable", cl.unavailable_rejections());
        bump(c, "client.busy", cl.busy_rejections());
    }
    let s = sys
        .device_as::<SmartNic<KvsNicApp>>(node.nic)
        .expect("KVS NIC")
        .app()
        .stats();
    bump(c, "server.gets", s.gets);
    bump(c, "server.puts", s.puts);
    bump(c, "server.cache_hits", s.cache_hits);
    bump(c, "server.fast_gets", s.fast_gets);
    bump(c, "server.shed", s.shed);
    bump(c, "server.misses", s.misses);
    bump(c, "server.failures", s.failures);
    for h in [node.nic, node.ssd] {
        let mmu = sys.iommu(h);
        let (st, tlb) = (mmu.stats(), mmu.tlb_stats());
        bump(c, "iommu.translations", st.translations);
        bump(c, "iommu.faults", st.faults);
        bump(c, "iotlb.hits", tlb.hits);
        bump(c, "iotlb.lookups", tlb.hits + tlb.misses + tlb.perm_misses);
    }
    bump(
        c,
        "iommu.nic_translations",
        sys.iommu(node.nic).stats().translations,
    );
    let ssd = sys.device_as_mut::<SmartSsd>(node.ssd).expect("SSD");
    bump(c, "ssd.requests", ssd.stats().requests);
    let ftl = ssd.fs_mut().ftl_mut().stats();
    bump(c, "ftl.host_writes", ftl.host_writes);
    bump(c, "ftl.nand_writes", ftl.nand_writes);
    bump(c, "ftl.gc_runs", ftl.gc_runs);
    let pool = sys.pool().stats();
    bump(c, "pool.taken", pool.taken);
    bump(c, "pool.fresh", pool.fresh);
    let hub = sys.stats();
    bump(c, "bus.messages", hub.counter("bus.messages"));
    bump(c, "bus.rpc_retries", hub.counter("bus.rpc_retries"));
    bump(c, "virtio.doorbells", hub.counter("system.doorbells"));
    bump(
        c,
        "virtio.doorbells_coalesced",
        hub.counter("system.doorbells_coalesced"),
    );
    for (key, name) in [
        ("nic.handler_ns", "nic.nic0.handler_ns"),
        ("ssd.handler_ns", "ssd.ssd0.handler_ns"),
    ] {
        let ns = hub.histogram(name).map_or(0, |h| h.sum() as u64);
        bump(c, key, ns);
    }
}

/// Merges the clients' `c{i}.latency` histograms of one machine.
fn machine_latency(sys: &System, clients: &[PortId], first: usize, h: &mut Histogram) {
    for i in 0..clients.len() {
        if let Some(c) = sys.stats().histogram(&format!("c{}.latency", first + i)) {
            h.merge(&c);
        }
    }
}

/// FNV-1a over the virtual outputs of a rep.
#[derive(Debug, Clone, Copy)]
struct Fnv(u64);

impl Fnv {
    fn new() -> Fnv {
        Fnv(0xcbf2_9ce4_8422_2325)
    }
    fn bytes(&mut self, b: &[u8]) {
        for &x in b {
            self.0 ^= x as u64;
            self.0 = self.0.wrapping_mul(0x0100_0000_01b3);
        }
    }
    fn u64(&mut self, v: u64) {
        self.bytes(&v.to_le_bytes());
    }
}

fn digest_hub(f: &mut Fnv, hub: &lastcpu_sim::MetricsHub) {
    for (k, v) in hub.counters() {
        f.bytes(k.as_bytes());
        f.u64(v);
    }
    for (k, h) in hub.histograms() {
        f.bytes(k.as_bytes());
        f.u64(h.count());
        f.u64(h.sum() as u64);
        f.u64(h.max().as_nanos());
    }
}

/// A deployment under test.
enum Rig {
    /// `clock` is the end of the last slice run: a machine's own clock
    /// stops at its last event.
    Single {
        sys: Box<System>,
        node: Node,
        clock: SimTime,
    },
    Rack {
        rack: Box<RackSetup>,
        nodes: Vec<Node>,
    },
}

impl Rig {
    fn build(w: Workload, scale: &Scale, seed: u64, traced: bool) -> Rig {
        let seed = w.system_seed(seed);
        match w {
            Workload::KvsHot => single(
                seed,
                512,
                WorkloadConfig {
                    keys: 400,
                    theta: 0.99,
                    read_fraction: 0.95,
                    outstanding: 1,
                    ..client_config()
                },
                16,
            ),
            Workload::KvsCold => single(
                seed,
                0,
                WorkloadConfig {
                    keys: scale.cold_keys,
                    theta: 0.0,
                    read_fraction: 0.5,
                    outstanding: 2,
                    ..client_config()
                },
                8,
            ),
            Workload::Rack64 => rack(seed, scale, traced),
        }
    }

    fn power_on(&mut self) {
        match self {
            Rig::Single { sys, .. } => sys.power_on(),
            Rig::Rack { rack, .. } => rack.fabric.power_on(),
        }
    }

    fn run_for(&mut self, d: SimDuration) -> u64 {
        match self {
            Rig::Single { sys, clock, .. } => {
                *clock += d;
                sys.run_until(*clock)
            }
            Rig::Rack { rack, .. } => rack.fabric.run_for(d),
        }
    }

    fn now(&self) -> SimTime {
        match self {
            Rig::Single { clock, .. } => *clock,
            Rig::Rack { rack, .. } => rack.fabric.now(),
        }
    }

    /// `(system, node)` per machine.
    fn machines(&self) -> Vec<(&System, &Node)> {
        match self {
            Rig::Single { sys, node, .. } => vec![(&**sys, node)],
            Rig::Rack { rack, nodes } => rack
                .machines
                .iter()
                .zip(nodes)
                .map(|(&m, n)| (rack.fabric.machine(m), n))
                .collect(),
        }
    }

    fn clients(&self) -> Vec<&KvsClientHost> {
        let mut out = Vec::new();
        for (sys, node) in self.machines() {
            for &p in &node.clients {
                out.push(&sys.host_as::<TimedClient>(p).expect("client present").0);
            }
        }
        out
    }

    fn reset_metrics(&self) {
        for (sys, _) in self.machines() {
            sys.stats().reset();
        }
    }

    fn counters(&mut self) -> Counters {
        let mut c = Counters::new();
        match self {
            Rig::Single { sys, node, .. } => machine_counters(sys, node, &mut c),
            Rig::Rack { rack, nodes } => {
                for (i, node) in nodes.iter().enumerate() {
                    let m = rack.machines[i];
                    machine_counters(rack.fabric.machine_mut(m), node, &mut c);
                    let r = rack.router(i).stats();
                    bump(&mut c, "router.requests", r.requests);
                    bump(&mut c, "router.failovers", r.failovers);
                    bump(&mut c, "router.give_ups", r.give_ups);
                    bump(&mut c, "router.busy_deferrals", r.busy_deferrals);
                    bump(&mut c, "router.late_acks", r.late_acks);
                }
                let fm = rack.fabric.metrics();
                bump(
                    &mut c,
                    "fabric.frames",
                    fm.counter("fabric.frames_forwarded"),
                );
                bump(&mut c, "fabric.bytes", fm.counter("fabric.bytes"));
            }
        }
        c
    }

    /// Cumulative busy ns of every fabric link (empty for one machine).
    fn link_busy(&self) -> Vec<u64> {
        match self {
            Rig::Single { .. } => Vec::new(),
            Rig::Rack { rack, .. } => rack.fabric.topology().links().map(|l| l.busy_ns).collect(),
        }
    }

    fn latency(&self) -> Histogram {
        let mut h = Histogram::new();
        let mut first = 0;
        for (sys, node) in self.machines() {
            machine_latency(sys, &node.clients, first, &mut h);
            first += node.clients.len();
        }
        h
    }

    fn digest(&self, f: &mut Fnv) {
        for (sys, _) in self.machines() {
            f.u64(sys.now().as_nanos());
            digest_hub(f, sys.stats());
        }
        if let Rig::Rack { rack, .. } = self {
            digest_hub(f, rack.fabric.metrics());
        }
    }

    fn checkpoint(&self) -> lastcpu_snap::Result<Checkpoint> {
        match self {
            Rig::Single { sys, .. } => sys.checkpoint("perfbench"),
            Rig::Rack { rack, .. } => rack.fabric.checkpoint("perfbench"),
        }
    }

    fn restore_from(&mut self, ck: &Checkpoint) -> lastcpu_snap::Result<()> {
        match self {
            Rig::Single { sys, .. } => sys.restore_from(ck),
            Rig::Rack { rack, .. } => rack.fabric.restore_from(ck),
        }
    }

    /// Whether the measured window opens: once every client has finished
    /// its preload. The rack's clients finish preloading up to ~0.2 s of
    /// virtual time apart, so its window opens with the first client and
    /// spans the clients' own measured phases (each client's ops and
    /// latencies still count only after its own preload).
    fn window_open(&self, w: Workload) -> bool {
        let mut started = self.clients().into_iter().map(|c| c.started_at().is_some());
        match w {
            Workload::Rack64 => started.any(|s| s),
            _ => started.all(|s| s),
        }
    }

    /// Whether the measured window is over.
    fn window_over(&self, w: Workload, scale: &Scale, start: SimTime) -> bool {
        match w {
            Workload::KvsHot => self.now() >= start + scale.hot_window,
            Workload::KvsCold => self.now() >= start + scale.cold_window,
            Workload::Rack64 => self.clients().iter().all(|c| c.is_done()),
        }
    }

    /// Slice lengths of the set-up and of the window.
    fn slices(&self) -> (SimDuration, SimDuration) {
        match self {
            Rig::Single { .. } => (SimDuration::from_millis(1), SimDuration::from_millis(10)),
            // The rack's measured phase is ~20 ms of virtual time: a fine
            // set-up slice keeps early clients from running ahead of the
            // window, and a fine window slice bounds the overshoot.
            Rig::Rack { .. } => (SimDuration::from_micros(50), SimDuration::from_micros(500)),
        }
    }
}

/// Closed-loop client settings shared by every workload.
fn client_config() -> WorkloadConfig {
    WorkloadConfig {
        value_size: 128,
        total_ops: u64::MAX,
        preload: true,
        ..WorkloadConfig::default()
    }
}

fn single(seed: u64, cache_entries: usize, load: WorkloadConfig, clients: usize) -> Rig {
    let mut setup = build_cpuless_kvs(
        SystemConfig {
            seed,
            trace: false,
            ..SystemConfig::default()
        },
        SsdConfig::default(),
        ServerConfig {
            cache_entries,
            ..ServerConfig::default()
        },
    );
    let ports = (0..clients)
        .map(|i| {
            setup
                .system
                .add_host(Box::new(TimedClient(KvsClientHost::new(
                    setup.kvs_port,
                    WorkloadConfig {
                        stats_prefix: format!("c{i}"),
                        ..load.clone()
                    },
                ))))
        })
        .collect();
    Rig::Single {
        sys: Box::new(setup.system),
        node: Node {
            nic: setup.frontend,
            ssd: setup.ssd,
            clients: ports,
        },
        clock: SimTime::ZERO,
    }
}

/// The SSD's device handle on a `build_cpuless_kvs` machine. Every machine
/// of the rack is assembled by the same builder in the same order, so the
/// handle is the same on each; the library's `RackSetup` does not carry it.
/// Built once, on first use.
fn rack_ssd_handle() -> DeviceHandle {
    static SSD: OnceLock<DeviceHandle> = OnceLock::new();
    *SSD.get_or_init(|| {
        build_cpuless_kvs(
            SystemConfig::default(),
            SsdConfig::default(),
            ServerConfig::default(),
        )
        .ssd
    })
}

fn rack(seed: u64, scale: &Scale, traced: bool) -> Rig {
    let mut rack = build_rack_kvs_with_policy(
        FabricConfig {
            topology: TopologyConfig {
                kind: TopoKind::parse("leaf-spine:8").expect("topology"),
                oversub: 1,
            },
            ..FabricConfig::default()
        },
        scale.rack_machines,
        2,
        SystemConfig {
            seed,
            trace: traced,
            ..SystemConfig::default()
        },
        RetryPolicy::parse("adaptive+p2c").expect("policy"),
    );
    let ssd = rack_ssd_handle();
    if traced {
        // The critical-path decomposition needs every stage mark and link
        // hop of the window.
        for &m in &rack.machines {
            rack.fabric.machine_mut(m).set_trace_capacity(1 << 20);
        }
        rack.fabric.set_link_tracing(true);
        rack.fabric.set_link_trace_capacity(1 << 20);
    }
    let mut nodes = Vec::new();
    for (i, &nic) in rack.frontends.iter().enumerate() {
        let m = rack.machines[i];
        let port = rack
            .fabric
            .machine_mut(m)
            .add_host(Box::new(TimedClient(KvsClientHost::new(
                rack.router_ports[i],
                WorkloadConfig {
                    keys: 200,
                    theta: 0.99,
                    read_fraction: 0.95,
                    outstanding: 8,
                    total_ops: scale.rack_ops,
                    stats_prefix: format!("c{i}"),
                    ..client_config()
                },
            ))));
        nodes.push(Node {
            nic,
            ssd,
            clients: vec![port],
        });
    }
    Rig::Rack {
        rack: Box::new(rack),
        nodes,
    }
}

/// One op in `CRITPATH_SAMPLE` is decomposed: `critpath::analyze` matches
/// each op against every link hop, so the whole window would take minutes.
pub const CRITPATH_SAMPLE: u64 = 64;

/// Critical-path decomposition of the window's sampled ops (client op id a
/// multiple of [`CRITPATH_SAMPLE`]). Feeds `critpath::analyze` the sampled
/// ops' stage marks and every link hop since `start`, merged in time order
/// with machine-prefixed sources as `Fabric::merged_trace` does, without
/// copying the rest of the trace.
fn sampled_critpath(rack: &RackSetup, start: SimTime) -> CritPathReport {
    use critpath::{STAGE_ROUTER_ACK, STAGE_ROUTER_SUB, STAGE_SERVER_DONE, STAGE_SERVER_RECV};
    let fabric = &rack.fabric;
    let window = |m: MachineId| {
        fabric
            .machine(m)
            .trace()
            .events()
            .filter(move |r| r.at >= start)
    };
    let sampled = |op: u64| op.is_multiple_of(CRITPATH_SAMPLE);
    // Sub-requests carry the op key in `aux` only on the router's marks.
    let mut subs = std::collections::BTreeSet::new();
    for &m in &rack.machines {
        for r in window(m) {
            if let TraceData::Stage { stage, id, aux } = &r.data {
                if *stage == STAGE_ROUTER_SUB && sampled(*aux) {
                    subs.insert(*id);
                }
            }
        }
    }
    let mut records: Vec<(SimTime, usize, TraceRecord)> = Vec::new();
    for (i, &m) in rack.machines.iter().enumerate() {
        for r in window(m) {
            let TraceData::Stage { stage, id, aux } = &r.data else {
                continue;
            };
            let keep = match *stage {
                STAGE_ROUTER_SUB | STAGE_ROUTER_ACK => sampled(*aux),
                STAGE_SERVER_RECV | STAGE_SERVER_DONE => subs.contains(id),
                _ => sampled(*id),
            };
            if keep {
                let source = format!("{}/{}", fabric.machine_name(m), r.source);
                records.push((
                    r.at,
                    i,
                    TraceRecord {
                        source,
                        ..r.clone()
                    },
                ));
            }
        }
    }
    let hops = fabric.link_trace().events().filter(|r| r.at >= start);
    records.extend(hops.map(|r| (r.at, rack.machines.len(), r.clone())));
    records.sort_by_key(|(at, m, _)| (*at, *m));
    let records: Vec<TraceRecord> = records.into_iter().map(|(_, _, r)| r).collect();
    critpath::analyze(&records)
}

/// Host cost of the checkpoint and restore that close an untraced rep.
#[derive(Debug, Clone, Copy)]
pub struct SnapTiming {
    /// `checkpoint()` plus encoding to bytes, host s.
    pub checkpoint_s: f64,
    /// Decode, rebuild, power-on, replay and byte-for-byte verify, host s.
    pub restore_s: f64,
    /// Encoded checkpoint size.
    pub bytes: usize,
}

/// The outcome of one rep.
pub struct Rep {
    /// Machines in the deployment.
    pub machines: usize,
    /// Build, power-on and preload until every client is measuring, host s.
    pub setup_s: f64,
    /// Host seconds of the measured window.
    pub window_host_s: f64,
    /// Host seconds of the measured window, uncalibrated.
    pub window_raw_s: f64,
    /// The calibration scale applied to the window's host time (host
    /// times are all in reference host seconds; see [`crate::calib`]).
    pub host_scale: f64,
    /// Virtual seconds of the measured window.
    pub window_virtual_s: f64,
    /// Events retired in the window.
    pub events: u64,
    /// Heap allocations in the window (0 without the counting allocator).
    pub allocs: u64,
    /// Window deltas of every deterministic counter.
    pub counters: Counters,
    /// Window client latency, merged over clients.
    pub latency: Histogram,
    /// Highest fabric-link utilization over the window (0 for one machine).
    pub max_link_util: f64,
    /// Digest of the rep's virtual outputs.
    pub digest: u64,
    /// Set on untraced `kvs-cold` reps.
    pub snap: Option<SnapTiming>,
    /// Set on traced reps: the window's profile.
    pub profile: Option<ProfileSnapshot>,
    /// Set on traced `rack64` reps.
    pub critpath: Option<CritPathReport>,
    /// Failed correctness checks (empty when the rep is correct).
    pub failures: Vec<String>,
}

impl Rep {
    /// Ops completed in the window (including failed ones).
    pub fn ops(&self) -> u64 {
        self.counters["client.ops"]
    }

    /// Window ops that failed, each once. A client records a latency
    /// sample only for a measured op answered `Ok` or `NotFound`, so the
    /// rest of the window's ops are its timeouts, errors, `Unavailable`
    /// answers (a router give-up reaches the client as one) and `Busy`
    /// answers. The client counters themselves cannot be used on the rack:
    /// they also count what happens during the preload of clients still
    /// loading when the window opens.
    pub fn failed(&self) -> u64 {
        self.ops() - self.latency.count()
    }
}

const SETUP_CAP: SimDuration = SimDuration::from_secs(600);
const WINDOW_CAP: SimDuration = SimDuration::from_secs(60);

/// Runs one rep of `w` at `seed`.
pub fn run_rep(w: Workload, scale: &Scale, seed: u64, traced: bool) -> Result<Rep, String> {
    if w == Workload::Rack64 {
        // Outside the set-up clock: the handle is built once per process.
        rack_ssd_handle();
    }
    let mut clock = HostClock::start();
    let mut rig = Rig::build(w, scale, seed, traced);
    rig.power_on();
    let (setup_slice, window_slice) = rig.slices();
    let mut setup_slices = 0u64;
    while !rig.window_open(w) {
        if rig.now() >= SimTime::ZERO + SETUP_CAP {
            return Err(format!("{}: clients never finished preloading", w.name()));
        }
        rig.run_for(setup_slice);
        setup_slices += 1;
        clock.tick();
    }
    let setup = clock.stop();

    rig.reset_metrics();
    let start = rig.now();
    let c0 = rig.counters();
    let links0 = rig.link_busy();
    if traced {
        profile::reset();
        profile::set_enabled(true);
    }
    let a0 = alloc::allocations();
    let mut clock = HostClock::start();
    let mut events = 0u64;
    while !rig.window_over(w, scale, start) {
        if rig.now() >= start + WINDOW_CAP {
            profile::set_enabled(false);
            return Err(format!("{}: window did not finish", w.name()));
        }
        {
            let _s = profile::span(SLICE_SCOPE);
            events += rig.run_for(window_slice);
        }
        clock.tick();
    }
    let window = clock.stop();
    let allocs = alloc::allocations() - a0 - window.chunk_allocs;
    let prof = traced.then(|| {
        let p = profile::snapshot();
        profile::set_enabled(false);
        p
    });

    // A fixed-length window ends on its deadline; the rack's ends with the
    // last client's last op.
    let end = match w {
        Workload::Rack64 => rig
            .clients()
            .iter()
            .filter_map(|c| c.finished_at())
            .max()
            .unwrap_or(start),
        _ => rig.now(),
    };
    let window_ns = end.since(start).as_nanos().max(1);
    let counters = delta(&rig.counters(), &c0);
    let max_link_util = rig
        .link_busy()
        .iter()
        .zip(&links0)
        .map(|(b, a)| (b - a) as f64 / window_ns as f64)
        .fold(0.0, f64::max);
    let latency = rig.latency();
    let machines = rig.machines().len();

    let mut failures = Vec::new();
    let errors: u64 = rig.clients().iter().map(|c| c.errors()).sum();
    if errors != 0 {
        failures.push(format!("{errors} client error responses"));
    }
    if counters["server.misses"] != 0 {
        failures.push(format!(
            "{} NotFound GETs in the window",
            counters["server.misses"]
        ));
    }
    if latency.count() == 0 {
        failures.push("no latency samples in the window".into());
    }
    if let Rig::Rack { rack, .. } = &rig {
        if !rig.clients().iter().all(|c| c.is_done()) {
            failures.push("a rack client did not finish".into());
        }
        let lost = rack.lost_acked_keys();
        if lost != 0 {
            failures.push(format!("{lost} acknowledged keys lost"));
        }
    }

    let mut f = Fnv::new();
    for (k, v) in &counters {
        f.bytes(k.as_bytes());
        f.u64(*v);
    }
    f.u64(window_ns);
    f.u64(events);
    f.u64(latency.count());
    f.u64(latency.sum() as u64);
    rig.digest(&mut f);

    let critpath = match (&rig, traced) {
        (Rig::Rack { rack, .. }, true) => Some(sampled_critpath(rack, start)),
        _ => None,
    };

    // Only `kvs-cold` exercises the snapshot path.
    let snap = if traced || w != Workload::KvsCold {
        None
    } else {
        let clock = HostClock::start();
        let bytes = rig
            .checkpoint()
            .map_err(|e| format!("{}: checkpoint failed: {e}", w.name()))?
            .encode();
        let checkpoint_s = clock.stop().seconds;
        drop(rig);
        let mut clock = HostClock::start();
        let ck = Checkpoint::decode(&bytes).map_err(|e| format!("checkpoint decode: {e}"))?;
        let mut fresh = Rig::build(w, scale, seed, false);
        fresh.power_on();
        for _ in 0..setup_slices {
            fresh.run_for(setup_slice);
            clock.tick();
        }
        // `restore_from` replays the window itself, up to the checkpoint's
        // event cursor, before it verifies.
        fresh.reset_metrics();
        if let Err(e) = fresh.restore_from(&ck) {
            failures.push(format!("restore did not verify: {e}"));
        }
        Some(SnapTiming {
            checkpoint_s,
            restore_s: clock.stop().seconds,
            bytes: bytes.len(),
        })
    };

    Ok(Rep {
        machines,
        setup_s: setup.seconds,
        window_host_s: window.seconds,
        window_raw_s: window.raw_seconds,
        host_scale: window.scale,
        window_virtual_s: window_ns as f64 / 1e9,
        events,
        allocs,
        counters,
        latency,
        max_link_util,
        digest: f.0,
        snap,
        profile: prof,
        critpath,
        failures,
    })
}
