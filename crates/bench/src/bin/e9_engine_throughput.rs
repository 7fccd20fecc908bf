//! E9 — engine throughput: wall-clock capacity of the simulator core.
//!
//! Every other experiment reports *virtual* time — what the simulated
//! machine would observe. E9 reports *host* time: how many discrete events
//! the engine retires per wall-clock second. That number bounds how much
//! simulated machine we can afford (sweep sizes, fleet sizes, fault-matrix
//! seeds) and is the metric the hot-path work in this crate is judged by.
//!
//! Two phases:
//!
//! - **queue** — the event queue in isolation: a deep steady-state churn
//!   (pop one, schedule one) at a fixed pending-set depth. It runs on the
//!   simulator's timing wheel ([`EventQueue`]) and on the reference binary
//!   heap ([`HeapQueue`]), which isolates the data structure.
//! - **system** — a saturating end-to-end workload on the wheel: the §3 KVS
//!   on the CPU-less deployment (smart NIC + SSD + memory controller), many
//!   closed loops deep, run for a fixed slice of virtual time. Queue
//!   operations are only part of each event here.
//!
//! Writes `BENCH_e9.json` (override with `--out`); schema in
//! `EXPERIMENTS.md`. The JSON carries events/sec, ns/event and
//! allocations/event per phase per engine, plus the wheel-over-heap
//! queue-churn speedup.
//!
//! With `--profile` the run also prints a per-scope allocation attribution
//! table (which `subsystem.site` the allocations/event figure comes from);
//! `--profile-out <path>` dumps the full profile snapshot as JSON. Profiling
//! is excluded from the headline numbers' contract: run without `--profile`
//! when comparing against recorded baselines.

use std::alloc::{GlobalAlloc, Layout, System as SystemAlloc};
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::Instant;

use lastcpu_bench::{ObsArgs, Table};
use lastcpu_core::SystemConfig;
use lastcpu_kvs::build_cpuless_kvs;
use lastcpu_kvs::client::{KvsClientHost, WorkloadConfig};
use lastcpu_kvs::server::ServerConfig;
use lastcpu_sim::{export, profile, DetRng, EventQueue, HeapQueue, SimDuration};

/// Counting allocator: allocations/event is a first-class metric here —
/// the zero-copy envelope and buffer-reuse work shows up in this number.
/// Every allocation is also forwarded to [`lastcpu_sim::profile::note_alloc`],
/// so running with `--profile` attributes the total to `subsystem.site`
/// scopes (the E12 attribution axis) at no cost when profiling is off.
struct CountingAlloc;

static ALLOCS: AtomicU64 = AtomicU64::new(0);

// SAFETY: delegates to the std system allocator; only adds counters
// (`note_alloc` is written to be callable from a global allocator: it never
// allocates and tolerates TLS teardown).
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCS.fetch_add(1, Ordering::Relaxed);
        lastcpu_sim::profile::note_alloc(layout.size());
        unsafe { SystemAlloc.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        unsafe { SystemAlloc.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCS.fetch_add(1, Ordering::Relaxed);
        lastcpu_sim::profile::note_alloc(new_size);
        unsafe { SystemAlloc.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static GLOBAL: CountingAlloc = CountingAlloc;

fn allocs_now() -> u64 {
    ALLOCS.load(Ordering::Relaxed)
}

/// One measured phase.
#[derive(Clone, Copy)]
struct Sample {
    events: u64,
    wall_seconds: f64,
    allocs: u64,
}

impl Sample {
    fn events_per_sec(&self) -> f64 {
        self.events as f64 / self.wall_seconds
    }

    fn ns_per_event(&self) -> f64 {
        self.wall_seconds * 1e9 / self.events as f64
    }

    fn allocs_per_event(&self) -> f64 {
        self.allocs as f64 / self.events as f64
    }

    fn json(&self) -> String {
        format!(
            concat!(
                "{{\"events\": {}, \"wall_seconds\": {:.6}, ",
                "\"events_per_sec\": {:.1}, \"ns_per_event\": {:.1}, ",
                "\"allocs_per_event\": {:.3}}}"
            ),
            self.events,
            self.wall_seconds,
            self.events_per_sec(),
            self.ns_per_event(),
            self.allocs_per_event()
        )
    }
}

struct Args {
    out: String,
    queue_depth: usize,
    queue_ops: u64,
    clients: usize,
    outstanding: usize,
    virtual_ms: u64,
    repeat: usize,
}

impl Args {
    fn parse() -> Args {
        let mut a = Args {
            out: "BENCH_e9.json".into(),
            queue_depth: 65_536,
            queue_ops: 4_000_000,
            clients: 16,
            outstanding: 32,
            virtual_ms: 2_000,
            repeat: 3,
        };
        let mut it = std::env::args().skip(1);
        while let Some(flag) = it.next() {
            let mut val = || it.next().unwrap_or_default();
            match flag.as_str() {
                "--out" => a.out = val(),
                "--queue-depth" => a.queue_depth = val().parse().expect("--queue-depth"),
                "--queue-ops" => a.queue_ops = val().parse().expect("--queue-ops"),
                "--clients" => a.clients = val().parse().expect("--clients"),
                "--outstanding" => a.outstanding = val().parse().expect("--outstanding"),
                "--virtual-ms" => a.virtual_ms = val().parse().expect("--virtual-ms"),
                "--repeat" => a.repeat = val().parse::<usize>().expect("--repeat").max(1),
                _ => {} // same convention as ObsArgs: ignore unknown flags
            }
        }
        a
    }
}

/// Steady-state churn of the bare event queue: keep `depth` events pending,
/// pop the earliest, schedule a replacement at a pseudo-random future
/// offset. The delay mix follows what the system actually schedules —
/// mostly near-future (bus hops, device service times), a tail of far
/// horizon timers — so both the wheel's slot array and its overflow heap
/// participate. `schedule_in` and `pop` are the queue's own methods, so one
/// loop drives the wheel and the reference heap alike.
fn run_queue_phase<Q>(
    q: &mut Q,
    schedule_in: fn(&mut Q, SimDuration, u64),
    pop: fn(&mut Q) -> Option<u64>,
    depth: usize,
    ops: u64,
) -> Sample {
    let mut rng = DetRng::new(0xE9);
    let next_delay = |rng: &mut DetRng| {
        // 75% short (bus/device latencies), 20% medium (timeouts),
        // 5% long (liveness/rebuild horizons).
        let d = match rng.below(20) {
            0 => 1 + rng.below(1 << 24),
            1..=4 => 1 + rng.below(1 << 18),
            _ => 1 + rng.below(1 << 12),
        };
        SimDuration::from_nanos(d)
    };
    for i in 0..depth as u64 {
        let d = next_delay(&mut rng);
        schedule_in(q, d, i);
    }
    let allocs0 = allocs_now();
    let t0 = Instant::now();
    let mut acc = 0u64;
    for i in 0..ops {
        let ev = pop(q).expect("queue kept at constant depth");
        acc = acc.wrapping_add(ev);
        let d = next_delay(&mut rng);
        schedule_in(q, d, i);
    }
    let wall = t0.elapsed().as_secs_f64();
    let allocs = allocs_now() - allocs0;
    std::hint::black_box(acc);
    Sample {
        events: ops,
        wall_seconds: wall,
        allocs,
    }
}

/// Saturating end-to-end workload: the CPU-less KVS deployment with enough
/// closed loops that the engine never idles, run for a fixed slice of
/// virtual time. Events/sec here is the whole simulator — queue, bus
/// routing, DMA, devices — per wall-clock second.
fn run_system_phase(clients: usize, outstanding: usize, vms: u64, obs: &ObsArgs) -> Sample {
    let mut sys_config = SystemConfig {
        trace: false,
        ..SystemConfig::default()
    };
    obs.apply(&mut sys_config);
    let server = ServerConfig {
        cache_entries: 512,
        ..ServerConfig::default()
    };
    let mut setup = build_cpuless_kvs(sys_config, Default::default(), server);
    for i in 0..clients {
        let workload = WorkloadConfig {
            keys: 400,
            theta: 0.99,
            read_fraction: 0.95,
            value_size: 128,
            outstanding,
            total_ops: u64::MAX / 2, // never finishes: run_for bounds the phase
            preload: i == 0,         // one loader is enough; rest start hot
            stats_prefix: "wl".into(),
            ..WorkloadConfig::default()
        };
        setup
            .system
            .add_host(Box::new(KvsClientHost::new(setup.kvs_port, workload)));
    }
    // Warm up outside the measured window: power-on, discovery, preload.
    setup.system.power_on();
    setup.system.run_for(SimDuration::from_millis(200));
    let allocs0 = allocs_now();
    let t0 = Instant::now();
    let events = setup.system.run_for(SimDuration::from_millis(vms));
    let wall = t0.elapsed().as_secs_f64();
    let allocs = allocs_now() - allocs0;
    assert!(events > 0, "system made no progress");
    // Sweep convention: dump after every run, last one wins on disk.
    obs.dump(&setup.system);
    Sample {
        events,
        wall_seconds: wall,
        allocs,
    }
}

fn main() {
    let args = Args::parse();
    let obs = ObsArgs::from_env();
    obs.begin();
    println!("E9: engine throughput — wall-clock events/sec of the simulator core");
    println!(
        "    (queue churn depth {}, {} ops; system: {} clients x {} outstanding, {} ms virtual)",
        args.queue_depth, args.queue_ops, args.clients, args.outstanding, args.virtual_ms
    );
    println!();
    let mut t = Table::new(&[
        "phase",
        "engine",
        "events",
        "events/s",
        "ns/event",
        "allocs/event",
    ]);
    // Best-of-N per phase: minimum wall time is the standard noise filter
    // for wall-clock benchmarks (the fastest run had the least interference).
    let best = |a: Sample, b: Sample| {
        if b.wall_seconds < a.wall_seconds {
            b
        } else {
            a
        }
    };
    let wheel_queue = || {
        let mut q = EventQueue::new();
        let s = run_queue_phase(
            &mut q,
            EventQueue::schedule_in,
            |q| q.pop().map(|e| e.event),
            args.queue_depth,
            args.queue_ops,
        );
        assert_eq!(q.events_processed(), args.queue_ops);
        s
    };
    let heap_queue = || {
        let mut q = HeapQueue::new();
        let s = run_queue_phase(
            &mut q,
            HeapQueue::schedule_in,
            |q| q.pop().map(|e| e.event),
            args.queue_depth,
            args.queue_ops,
        );
        assert_eq!(q.events_processed(), args.queue_ops);
        s
    };
    let system_phase = || run_system_phase(args.clients, args.outstanding, args.virtual_ms, &obs);
    let (mut wq, mut hq, mut ws) = (wheel_queue(), heap_queue(), system_phase());
    // Every run counts toward the profiler's attribution denominator, kept
    // or not — the profiler accumulates across the whole process.
    let mut total_events: u64 = wq.events + hq.events + ws.events;
    for _ in 1..args.repeat {
        let (w, h, sys) = (wheel_queue(), heap_queue(), system_phase());
        total_events += w.events + h.events + sys.events;
        wq = best(wq, w);
        hq = best(hq, h);
        ws = best(ws, sys);
    }
    for (phase, engine, s) in [
        ("queue", "wheel", &wq),
        ("system", "wheel", &ws),
        ("queue", "heap", &hq),
    ] {
        t.row_strings(vec![
            phase.into(),
            engine.into(),
            s.events.to_string(),
            format!("{:.0}", s.events_per_sec()),
            format!("{:.1}", s.ns_per_event()),
            format!("{:.3}", s.allocs_per_event()),
        ]);
    }
    t.print();

    if obs.profile {
        let snap = profile::snapshot();
        println!();
        println!("allocation attribution ({total_events} events across all runs):");
        let mut pt = Table::new(&["scope", "allocs", "bytes", "allocs/event", "share"]);
        let denom = total_events.max(1) as f64;
        let total_allocs = snap.total_allocs().max(1) as f64;
        let mut scopes: Vec<_> = snap.scopes.iter().filter(|s| s.allocs > 0).collect();
        scopes.sort_by(|a, b| b.allocs.cmp(&a.allocs).then(a.name.cmp(b.name)));
        for s in scopes {
            pt.row_strings(vec![
                s.name.into(),
                s.allocs.to_string(),
                s.alloc_bytes.to_string(),
                format!("{:.3}", s.allocs as f64 / denom),
                format!("{:.1}%", 100.0 * s.allocs as f64 / total_allocs),
            ]);
        }
        pt.row_strings(vec![
            "(unattributed)".into(),
            snap.unattributed_allocs.to_string(),
            snap.unattributed_bytes.to_string(),
            format!("{:.3}", snap.unattributed_allocs as f64 / denom),
            format!(
                "{:.1}%",
                100.0 * snap.unattributed_allocs as f64 / total_allocs
            ),
        ]);
        pt.print();
        println!(
            "attributed: {:.1}% of {} allocations",
            100.0 * snap.attributed_alloc_fraction(),
            snap.total_allocs()
        );
        if let Some(path) = &obs.profile_out {
            let body = export::profile_json(&snap, true);
            match std::fs::write(path, &body) {
                Ok(()) => println!("wrote profile to {path}"),
                Err(e) => eprintln!("failed to write profile to {path}: {e}"),
            }
        }
    }

    let speedup = wq.events_per_sec() / hq.events_per_sec();
    println!();
    println!("wheel over heap: {speedup:.2}x queue churn");

    let mut body = String::from("{\n  \"experiment\": \"e9\",\n  \"schema_version\": 3,\n");
    body.push_str(&format!(
        "  \"config\": {{\"queue_depth\": {}, \"queue_ops\": {}, \"clients\": {}, \"outstanding\": {}, \"virtual_ms\": {}, \"repeat\": {}}},\n",
        args.queue_depth, args.queue_ops, args.clients, args.outstanding, args.virtual_ms, args.repeat
    ));
    body.push_str(&format!(
        concat!(
            "  \"engines\": {{\n",
            "    \"wheel\": {{\"queue\": {}, \"system\": {}}},\n",
            "    \"heap\": {{\"queue\": {}}}\n",
            "  }},\n",
            "  \"wheel_over_heap\": {{\"queue\": {:.3}}}\n}}\n"
        ),
        wq.json(),
        ws.json(),
        hq.json(),
        speedup
    ));
    match std::fs::write(&args.out, &body) {
        Ok(()) => println!("\nwrote {}", args.out),
        Err(e) => eprintln!("\nfailed to write {}: {e}", args.out),
    }
    println!();
    println!("expected shape: the queue-churn gap is the engine itself (O(1) wheel");
    println!("slots vs O(log n) heap sift at depth); the system phase spends most");
    println!("of each event on routing, DMA and device work instead.");
}
