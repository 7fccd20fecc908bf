//! Rack-scale end-to-end tests: the fabric co-simulation driving a sharded,
//! replicated CPU-less KVS (the machinery behind experiment E10).
//!
//! Every machine in the rack is a full §3 deployment (smart NIC, smart SSD
//! and memory controller, no CPU) plus a [`ShardRouterHost`] that discovers
//! the rack through the fabric's in-band directory and shards client
//! requests over every `smart-nic` endpoint with R-way replication.
//!
//! [`ShardRouterHost`]: lastcpu_kvs::ShardRouterHost

use lastcpu_fabric::{FabricConfig, TopoKind, TopologyConfig};
use lastcpu_kvs::client::{KvsClientHost, WorkloadConfig};
use lastcpu_kvs::{build_rack_kvs_with_policy, RackSetup, RetryPolicy};
use lastcpu_net::PortId;
use lastcpu_sim::{export, FaultKind, FaultPlan, SimDuration, SimTime};

/// A [`RackSetup`] with one closed-loop client per machine aimed at the
/// *local* shard router.
struct Rack {
    setup: RackSetup,
    client_ports: Vec<PortId>,
}

fn build_rack(machines: usize, replication: usize, seed: u64, workload: &WorkloadConfig) -> Rack {
    build_rack_policy(
        machines,
        replication,
        seed,
        workload,
        RetryPolicy::default(),
    )
}

fn build_rack_policy(
    machines: usize,
    replication: usize,
    seed: u64,
    workload: &WorkloadConfig,
    policy: RetryPolicy,
) -> Rack {
    build_rack_cfg(
        FabricConfig::default(),
        machines,
        replication,
        seed,
        false,
        workload,
        policy,
    )
}

fn build_rack_cfg(
    cfg: FabricConfig,
    machines: usize,
    replication: usize,
    seed: u64,
    trace: bool,
    workload: &WorkloadConfig,
    policy: RetryPolicy,
) -> Rack {
    let mut setup = build_rack_kvs_with_policy(
        cfg,
        machines,
        replication,
        lastcpu_core::SystemConfig {
            seed,
            trace,
            ..lastcpu_core::SystemConfig::default()
        },
        policy,
    );
    let mut client_ports = Vec::new();
    for i in 0..machines {
        let m = setup.machines[i];
        let router_port = setup.router_ports[i];
        let client_port = setup
            .fabric
            .machine_mut(m)
            .add_host(Box::new(KvsClientHost::new(
                router_port,
                WorkloadConfig {
                    stats_prefix: format!("c{i}"),
                    ..workload.clone()
                },
            )));
        client_ports.push(client_port);
    }
    Rack {
        setup,
        client_ports,
    }
}

impl Rack {
    fn len(&self) -> usize {
        self.setup.machines.len()
    }

    fn client(&self, i: usize) -> &KvsClientHost {
        self.setup
            .fabric
            .machine(self.setup.machines[i])
            .host_as(self.client_ports[i])
            .expect("client present")
    }

    /// Runs in 10 ms slices until every client finishes or `cap` elapses.
    fn run_to_completion(&mut self, cap: SimDuration) {
        let deadline = self.setup.fabric.now() + cap;
        while self.setup.fabric.now() < deadline {
            self.setup.fabric.run_for(SimDuration::from_millis(10));
            if self.all_done() {
                break;
            }
        }
    }

    fn all_done(&self) -> bool {
        (0..self.len()).all(|i| self.client(i).is_done())
    }
}

fn small_workload() -> WorkloadConfig {
    WorkloadConfig {
        keys: 40,
        theta: 0.9,
        read_fraction: 0.8,
        value_size: 64,
        outstanding: 4,
        total_ops: 200,
        preload: true,
        ..WorkloadConfig::default()
    }
}

#[test]
fn rack_serves_a_sharded_replicated_workload() {
    let mut rack = build_rack(3, 2, 0xE10, &small_workload());
    rack.setup.fabric.power_on();
    rack.run_to_completion(SimDuration::from_secs(10));

    for i in 0..3 {
        let c = rack.client(i);
        assert!(c.is_done(), "client {i} incomplete: {} ops", c.ops_done());
        assert_eq!(c.errors(), 0, "client {i} saw errors");
        let r = rack.setup.router(i);
        assert_eq!(r.endpoint_names().len(), 3, "router {i} discovered rack");
        assert!(r.stats().requests > 0 && r.stats().hits > 0);
    }
    // R = 2 over a shared 40-key space: every key lives on exactly two
    // machines, so the rack holds 80 records (the probe key is never stored).
    let total: usize = (0..3).map(|i| rack.setup.nic(i).app().key_count()).sum();
    assert_eq!(total, 80, "each key replicated on exactly R=2 machines");
    // The shards are spread: no machine holds everything, none is empty.
    for i in 0..3 {
        let n = rack.setup.nic(i).app().key_count();
        assert!(n > 0 && n < 80, "machine {i} holds {n}/80 records");
    }
    // Cross-machine traffic actually crossed the fabric.
    let fab = &rack.setup.fabric;
    assert!(fab.metrics().counter("fabric.frames_forwarded") > 0);
    assert!(fab.metrics().counter("fabric.bytes") > 0);
    // Routers pre-registered their hub metrics on their machines.
    let hub = fab.machine(rack.setup.machines[0]).stats();
    assert!(hub.counter("fabric.router.requests") > 0);
    assert!(hub.gauge("fabric.router.endpoints") == 3);
}

#[test]
fn replicated_rack_survives_machine_crash_without_losing_acked_writes() {
    // Load everything (R = 2), then kill a machine and audit: every key any
    // router acknowledged must still be held by a surviving machine.
    let wl = WorkloadConfig {
        read_fraction: 1.0, // after preload, pure GETs
        ..small_workload()
    };
    let mut rack = build_rack(3, 2, 0x51, &wl);
    rack.setup.fabric.power_on();
    rack.run_to_completion(SimDuration::from_secs(10));
    assert!(rack.all_done(), "pre-crash workload incomplete");
    assert_eq!(rack.setup.lost_acked_keys(), 0);

    let victim = rack.setup.machines[1];
    rack.setup.fabric.kill_machine(victim);
    // Let the directory sweep withdraw the machine and the routers refresh.
    rack.setup.fabric.run_for(SimDuration::from_millis(5));

    assert_eq!(
        rack.setup.lost_acked_keys(),
        0,
        "R=2 must keep every acknowledged write despite one crash"
    );
    for i in [0usize, 2] {
        assert_eq!(
            rack.setup.router(i).endpoint_names().len(),
            2,
            "router {i} saw the withdrawal"
        );
    }
    assert!(rack.setup.fabric.metrics().counter("fabric.dir.removals") >= 1);
}

#[test]
fn unreplicated_rack_loses_acked_writes_on_crash() {
    // The control: R = 1 stores each key exactly once, so killing a machine
    // loses the acked writes whose only copy it held.
    let wl = WorkloadConfig {
        read_fraction: 1.0,
        ..small_workload()
    };
    let mut rack = build_rack(3, 1, 0x51, &wl);
    rack.setup.fabric.power_on();
    rack.run_to_completion(SimDuration::from_secs(10));
    assert!(rack.all_done(), "pre-crash workload incomplete");
    let held_by_victim = rack.setup.nic(1).app().key_count();
    assert!(held_by_victim > 0, "victim holds some shard");

    rack.setup.fabric.kill_machine(rack.setup.machines[1]);
    rack.setup.fabric.run_for(SimDuration::from_millis(5));

    let lost = rack.setup.lost_acked_keys();
    assert!(
        lost > 0,
        "R=1 must lose the victim's shard ({held_by_victim} keys on it)"
    );
}

/// Full-state fingerprint of a completed rack run: every fabric counter,
/// every router stat, every machine-hub counter, client progress, and
/// per-machine key counts. Two runs with equal fingerprints took the same
/// event path.
fn run_fingerprint(seed: u64, policy: RetryPolicy) -> String {
    let mut rack = build_rack_policy(2, 2, seed, &small_workload(), policy);
    rack.setup.fabric.power_on();
    rack.run_to_completion(SimDuration::from_secs(10));
    assert!(rack.all_done(), "workload incomplete under {policy}");
    let mut fp = String::new();
    for (k, v) in rack.setup.fabric.metrics().counters() {
        fp.push_str(&format!("{k}={v};"));
    }
    for i in 0..2 {
        let s = rack.setup.router(i).stats();
        fp.push_str(&format!(
            "r{i}:{}/{}/{}/{}/{}/{}/{}/{}/{};",
            s.requests,
            s.hits,
            s.failovers,
            s.give_ups,
            s.rebalance_moves,
            s.dir_replies,
            s.dir_installs,
            s.late_acks,
            s.busy_deferrals
        ));
        fp.push_str(&format!("c{i}:{};", rack.client(i).ops_done()));
        fp.push_str(&format!("k{i}:{};", rack.setup.nic(i).app().key_count()));
        for (k, v) in rack
            .setup
            .fabric
            .machine(rack.setup.machines[i])
            .stats()
            .counters()
        {
            fp.push_str(&format!("m{i}.{k}={v};"));
        }
    }
    fp
}

#[test]
fn rack_runs_are_bit_identical() {
    let run = |seed: u64| run_fingerprint(seed, RetryPolicy::default());
    assert_eq!(run(7), run(7), "same seed, same rack, same bytes");
    assert_ne!(run(7), run(8), "different seed perturbs the run");
}

/// FNV-1a, to fold the (large) merged trace and metrics exports into a
/// fingerprint without megabyte-long assert messages.
fn fnv1a(s: &str) -> u64 {
    let mut h = 0xcbf29ce484222325u64;
    for b in s.bytes() {
        h ^= b as u64;
        h = h.wrapping_mul(0x100000001b3);
    }
    h
}

/// Deep fingerprint of a rack run: merged trace, fabric + per-machine
/// metrics exports, pool activity, per-machine key counts, client progress,
/// and the acked-write audit. Any divergence between two runs — event
/// reordering, a counter, a pool buffer taken in a different order — lands
/// in this string.
fn deep_fingerprint(seed: u64, crash: bool) -> String {
    let mut cfg = FabricConfig::default();
    if crash {
        let mut plan = FaultPlan::new(seed ^ 0xFAB);
        plan.inject(SimTime::from_nanos(2_000_000), "m1", FaultKind::Crash);
        cfg.fault_plan = Some(plan);
    }
    let mut rack = build_rack_cfg(
        cfg,
        2,
        2,
        seed,
        true,
        &small_workload(),
        RetryPolicy::default(),
    );
    rack.setup.fabric.power_on();
    if crash {
        // The crash arm never completes the workload; a fixed virtual-time
        // horizon keeps the runs comparable instead.
        rack.setup.fabric.run_for(SimDuration::from_secs(2));
    } else {
        rack.run_to_completion(SimDuration::from_secs(10));
        assert!(rack.all_done(), "workload incomplete (seed {seed:#x})");
    }

    let fab = &rack.setup.fabric;
    let mut fp = String::new();
    fp.push_str(&format!(
        "trace={:016x};",
        fnv1a(&export::trace_jsonl(&fab.merged_trace()))
    ));
    fp.push_str(&format!(
        "fabmet={:016x};",
        fnv1a(&export::metrics_json(fab.metrics()))
    ));
    fp.push_str(&format!("now={};", fab.now().as_nanos()));
    for i in 0..2 {
        let m = rack.setup.machines[i];
        fp.push_str(&format!(
            "m{i}.met={:016x};",
            fnv1a(&export::metrics_json(fab.machine(m).stats()))
        ));
        fp.push_str(&format!("m{i}.pool={:?};", fab.machine(m).pool().stats()));
        fp.push_str(&format!("k{i}={};", rack.setup.nic(i).app().key_count()));
        fp.push_str(&format!("c{i}={};", rack.client(i).ops_done()));
    }
    fp.push_str(&format!("lost={};", rack.setup.lost_acked_keys()));
    fp
}

#[test]
fn rack_results_replay_bit_identically() {
    // The windowed schedule is the rack's event order, so every observable
    // — merged trace, metrics, pool activity, final KVS state — is
    // bit-identical from a seed.
    for seed in [7u64, 0xE13, 1984] {
        assert_eq!(
            deep_fingerprint(seed, false),
            deep_fingerprint(seed, false),
            "seed {seed:#x}: rerun diverged"
        );
    }
    assert_ne!(
        deep_fingerprint(7, false),
        deep_fingerprint(8, false),
        "fingerprint insensitive to seed — it proves nothing"
    );
}

#[test]
fn rack_replays_bit_identically_under_crash_faults() {
    // Faults are fabric control points: the window scheduler fires them at
    // a globally consistent instant, so the crash arm replays
    // bit-identically too.
    for seed in [7u64, 0xE13, 1984] {
        assert_eq!(
            deep_fingerprint(seed, true),
            deep_fingerprint(seed, true),
            "seed {seed:#x}: crash arm diverged on rerun"
        );
    }
}

#[test]
fn every_retry_policy_replays_bit_identically() {
    // Property sweep over the policy x seed grid: the congestion machinery
    // (EWMA timeouts, p2c selection, Busy deferral) must stay a pure
    // function of the event history — same seed, same arm, same bytes.
    // Different seeds must still perturb every arm (the fingerprint is not
    // trivially constant).
    for policy in RetryPolicy::ALL {
        for seed in [7u64, 0xE10, 1984] {
            assert_eq!(
                run_fingerprint(seed, policy),
                run_fingerprint(seed, policy),
                "policy {policy} seed {seed:#x} diverged on replay"
            );
        }
        assert_ne!(
            run_fingerprint(7, policy),
            run_fingerprint(8, policy),
            "policy {policy} fingerprint insensitive to seed"
        );
    }
}

/// Compact fingerprint of a 64-machine leaf-spine run (8 leaves of 8,
/// ECMP across 8 spines): fabric metrics, final clock, per-machine KVS
/// state, client progress, and the acked-write audit. Tracing stays off —
/// at this scale the merged trace would dominate the (debug-build) test.
fn leaf_spine_fingerprint() -> String {
    const MACHINES: usize = 64;
    let cfg = FabricConfig {
        topology: TopologyConfig {
            kind: TopoKind::LeafSpine { leaf_size: 8 },
            oversub: 1,
        },
        ..FabricConfig::default()
    };
    // Tiny per-client workload: 64 clients already put 768 ops and their
    // R=2 replication traffic through every tier of the tree.
    let wl = WorkloadConfig {
        keys: 48,
        total_ops: 12,
        outstanding: 2,
        ..small_workload()
    };
    let mut rack = build_rack_cfg(cfg, MACHINES, 2, 0xE10, false, &wl, RetryPolicy::default());
    rack.setup.fabric.power_on();
    rack.run_to_completion(SimDuration::from_secs(30));
    assert!(rack.all_done(), "64-machine leaf-spine workload incomplete");
    let fab = &rack.setup.fabric;
    let mut fp = format!(
        "now={};fabmet={:016x};",
        fab.now().as_nanos(),
        fnv1a(&export::metrics_json(fab.metrics()))
    );
    for i in 0..MACHINES {
        fp.push_str(&format!(
            "k{i}={};c{i}={};",
            rack.setup.nic(i).app().key_count(),
            rack.client(i).ops_done()
        ));
    }
    fp.push_str(&format!("lost={};", rack.setup.lost_acked_keys()));
    fp
}

#[test]
fn leaf_spine_rack_replays_bit_identically() {
    // The scale-out contract: a 64-machine rack on a real leaf-spine tree —
    // per-link queuing, ECMP path diversity and all — must stay inside the
    // windowed determinism envelope, so two runs produce the same bytes.
    assert_eq!(
        leaf_spine_fingerprint(),
        leaf_spine_fingerprint(),
        "64-machine leaf-spine rerun diverged"
    );
}

#[test]
fn rack_restore_replays_a_single_run_and_continues_identically() {
    // The checkpointed rack reached its cut in one `run_for`, so a fresh
    // rack from the same recipe gets there in the one `run_until` that
    // `restore_from` makes, verifies byte-for-byte, and then tracks the
    // uninterrupted rack exactly.
    let wl = small_workload();
    let mut live = build_rack(3, 2, 0xC4, &wl);
    live.setup.fabric.power_on();
    live.setup.fabric.run_for(SimDuration::from_micros(9_000));
    assert!(
        live.setup.fabric.metrics().counter("fabric.bytes") > 0,
        "the cut must fall after inter-machine traffic starts"
    );
    let ck = live.setup.fabric.checkpoint("cut").expect("checkpoint");

    let mut fresh = build_rack(3, 2, 0xC4, &wl);
    fresh.setup.fabric.power_on();
    fresh
        .setup
        .fabric
        .restore_from(&ck)
        .expect("restore must verify byte-for-byte");

    live.setup.fabric.run_for(SimDuration::from_micros(5_000));
    fresh.setup.fabric.run_for(SimDuration::from_micros(5_000));
    let a = live.setup.fabric.checkpoint("end").expect("checkpoint");
    let b = fresh.setup.fabric.checkpoint("end").expect("checkpoint");
    assert!(
        a.diff(&b).is_none(),
        "continuation diverged: {:?}",
        a.diff(&b)
    );

    let mut other = build_rack(3, 2, 0xC5, &wl);
    other.setup.fabric.power_on();
    assert!(
        other.setup.fabric.restore_from(&ck).is_err(),
        "a rack built from another seed must not verify"
    );
}

#[test]
fn rack_restore_verifies_after_replaying_the_same_slices() {
    // Each `run_until` deadline caps a window, so rack restore guarantees
    // the same recipe *and* the same run slicing. A rack that reached its
    // checkpoint in uneven slices restores by replaying those slices; the
    // last one is the `run_until` inside `restore_from`.
    let wl = small_workload();
    let slices = [50u64, 500, 2_730, 5_830];
    let mut live = build_rack(3, 2, 3, &wl);
    live.setup.fabric.power_on();
    for us in slices {
        live.setup.fabric.run_for(SimDuration::from_micros(us));
    }
    assert!(
        live.setup.fabric.metrics().counter("fabric.bytes") > 0,
        "the cut must fall after inter-machine traffic starts"
    );
    let ck = live.setup.fabric.checkpoint("sliced").expect("checkpoint");

    let mut fresh = build_rack(3, 2, 3, &wl);
    fresh.setup.fabric.power_on();
    for us in &slices[..slices.len() - 1] {
        fresh.setup.fabric.run_for(SimDuration::from_micros(*us));
    }
    fresh
        .setup
        .fabric
        .restore_from(&ck)
        .expect("same slices must verify byte-for-byte");
    fresh
        .setup
        .fabric
        .restore_from(&ck)
        .expect("restore at the checkpoint's own instant only verifies");
}
