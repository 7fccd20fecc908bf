//! E14 — deterministic checkpoint/restore: a rack checkpoint taken mid-run
//! must restore into a fresh process-or-fabric and continue *byte-identically*
//! to a run that was never interrupted.
//!
//! The snapshot subsystem (DESIGN.md §14) serializes every stateful
//! component into a versioned, checksummed [`Checkpoint`]; restore is
//! deterministic re-execution to the manifest's event cursor followed by
//! byte-for-byte verification of every section. E14 exercises the full
//! matrix the correctness bar demands:
//!
//! - **Byte-identity** — for each seed × fault arm, run a
//!   reference rack to completion, checkpointing at a mid-run barrier; then
//!   build a second rack from the same recipe, `restore_from` the
//!   checkpoint (replay + verify — any divergence fails loudly), continue
//!   to completion, and *hard-assert* the final digests (metrics, pool
//!   activity, per-machine KVS contents, acked-write audit, and the final
//!   rack checkpoint itself) are identical.
//! - **Sampled measurement** — both runs reset pool counters at the
//!   checkpoint barrier, so the digested pool activity covers exactly the
//!   post-checkpoint window. This is the warm-start measurement mode:
//!   checkpoint once, then measure only the region of interest.
//! - **Cross-process durability** — the crash arm kills a rack machine
//!   before the checkpoint, writes the checkpoint to disk, re-execs this
//!   binary with `--restore-from`, and the child — a fresh OS process —
//!   restores, finishes the workload, and audits `lost_acked_keys == 0`
//!   at R ≥ 2. The parent hard-asserts the child's final digest matches
//!   its own uninterrupted run.
//!
//! Flags `--checkpoint-out FILE` / `--restore-from FILE` also work
//! standalone for warm-start experimentation. Writes `BENCH_e14.json`
//! (override with `--out`); schema in `EXPERIMENTS.md`.

use lastcpu_bench::Table;
use lastcpu_core::SystemConfig;
use lastcpu_fabric::FabricConfig;
use lastcpu_kvs::client::{KvsClientHost, WorkloadConfig};
use lastcpu_kvs::{build_rack_kvs_with_policy, RackSetup, RetryPolicy};
use lastcpu_net::PortId;
use lastcpu_sim::{export, FaultKind, FaultPlan, SimDuration, SimTime};
use lastcpu_snap::Checkpoint;

/// Virtual instant the crash arm kills machine `m1` (before the
/// checkpoint, so the checkpoint captures — and restore must reproduce —
/// post-crash state).
const CRASH_AT_US: u64 = 1_500;

struct Args {
    machines: usize,
    replication: usize,
    ops: u64,
    keys: u64,
    value_size: usize,
    outstanding: usize,
    seeds: Vec<u64>,
    /// Virtual microseconds into the run at which the checkpoint is taken.
    ckpt_at_us: u64,
    /// Write the reference run's checkpoint here (first cell, or the
    /// standalone warm-start flow).
    checkpoint_out: Option<String>,
    /// Child/warm-start mode: restore from this file instead of running
    /// the full matrix.
    restore_from: Option<String>,
    /// Cell parameters for `--restore-from` mode (the child must rebuild
    /// the exact recipe the checkpoint came from).
    seed: u64,
    crash: bool,
    /// Include wall-clock timings in the artifact; `--no-wall` omits them
    /// so same-flag CI reruns are byte-identical.
    wall: bool,
    out: String,
}

impl Args {
    fn parse() -> Args {
        let mut a = Args {
            machines: 6,
            replication: 2,
            ops: 150,
            keys: 120,
            value_size: 128,
            outstanding: 8,
            seeds: vec![0xE14, 0xE14 + 1, 0xE14 + 2],
            ckpt_at_us: 2_500,
            checkpoint_out: None,
            restore_from: None,
            seed: 0xE14,
            crash: false,
            wall: true,
            out: "BENCH_e14.json".into(),
        };
        let mut it = std::env::args().skip(1);
        while let Some(flag) = it.next() {
            let mut val = || it.next().unwrap_or_default();
            match flag.as_str() {
                "--machines" => a.machines = val().parse().expect("--machines"),
                "--replication" => a.replication = val().parse().expect("--replication"),
                "--ops" => a.ops = val().parse().expect("--ops"),
                "--keys" => a.keys = val().parse().expect("--keys"),
                "--value-size" => a.value_size = val().parse().expect("--value-size"),
                "--outstanding" => a.outstanding = val().parse().expect("--outstanding"),
                "--seeds" => {
                    a.seeds = val()
                        .split(',')
                        .filter(|p| !p.is_empty())
                        .map(|p| p.trim().parse().unwrap_or_else(|_| panic!("bad --seeds")))
                        .collect();
                }
                "--ckpt-at-us" => a.ckpt_at_us = val().parse().expect("--ckpt-at-us"),
                "--checkpoint-out" => a.checkpoint_out = Some(val()),
                "--restore-from" => a.restore_from = Some(val()),
                "--seed" => a.seed = val().parse().expect("--seed"),
                "--crash" => a.crash = true,
                "--no-wall" => a.wall = false,
                "--out" => a.out = val(),
                _ => {} // same convention as the other experiments
            }
        }
        assert!(!a.seeds.is_empty() && a.machines >= 3);
        a
    }
}

fn fnv1a(h: &mut u64, s: &str) {
    for b in s.bytes() {
        *h ^= b as u64;
        *h = h.wrapping_mul(0x100000001b3);
    }
}

struct Bench {
    setup: RackSetup,
    client_ports: Vec<PortId>,
}

impl Bench {
    fn client(&self, i: usize) -> &KvsClientHost {
        self.setup
            .fabric
            .machine(self.setup.machines[i])
            .host_as(self.client_ports[i])
            .expect("client present")
    }

    fn alive(&self, i: usize) -> bool {
        !self.setup.fabric.is_dead(self.setup.machines[i])
    }

    /// Clients on alive machines done (a crashed machine's client dies
    /// with it).
    fn all_done(&self) -> bool {
        (0..self.client_ports.len()).all(|i| !self.alive(i) || self.client(i).is_done())
    }

    /// Sampled-measurement barrier: zero every machine's pool counters so
    /// subsequent digests cover only the post-checkpoint window.
    fn reset_pool_stats(&self) {
        for &m in &self.setup.machines {
            self.setup.fabric.machine(m).pool().reset_stats();
        }
    }

    fn run_to_done(&mut self) -> u64 {
        let deadline = self.setup.fabric.now() + SimDuration::from_secs(60);
        let mut events = 0;
        while self.setup.fabric.now() < deadline {
            events += self.setup.fabric.run_for(SimDuration::from_millis(10));
            if self.all_done() {
                break;
            }
        }
        assert!(self.all_done(), "workload incomplete");
        events
    }

    /// The determinism digest over every end-state observable: fabric and
    /// machine metrics, pool activity, per-machine KVS contents, the
    /// acked-write audit, and the final rack checkpoint (which covers
    /// traces, queues, device and host state byte-for-byte).
    fn digest(&self) -> String {
        let fab = &self.setup.fabric;
        let mut h = 0xcbf29ce484222325u64;
        fnv1a(&mut h, &export::metrics_json(fab.metrics()));
        for i in 0..self.setup.machines.len() {
            let m = self.setup.machines[i];
            fnv1a(&mut h, &export::metrics_json(fab.machine(m).stats()));
            fnv1a(&mut h, &format!("{:?}", fab.machine(m).pool().stats()));
            fnv1a(&mut h, &format!("k{}", self.setup.nic(i).app().key_count()));
        }
        fnv1a(&mut h, &format!("lost{}", self.setup.lost_acked_keys()));
        let end = self
            .setup
            .fabric
            .checkpoint("e14-end")
            .expect("end-state checkpoint");
        fnv1a(&mut h, &format!("ck{:016x}", end.digest()));
        format!("{h:016x}")
    }
}

fn crash_plan(_seed: u64) -> FaultPlan {
    let mut plan = FaultPlan::new(0xE14F);
    plan.inject(
        SimTime::from_nanos(CRASH_AT_US * 1_000),
        "m1",
        FaultKind::Crash,
    );
    plan
}

fn build(args: &Args, seed: u64, crash: bool) -> Bench {
    let mut setup = build_rack_kvs_with_policy(
        FabricConfig {
            fault_plan: crash.then(|| crash_plan(seed)),
            ..FabricConfig::default()
        },
        args.machines,
        args.replication,
        SystemConfig {
            seed,
            trace: false,
            ..SystemConfig::default()
        },
        RetryPolicy::default(),
    );
    let mut client_ports = Vec::new();
    for i in 0..args.machines {
        let m = setup.machines[i];
        let router_port = setup.router_ports[i];
        let port = setup
            .fabric
            .machine_mut(m)
            .add_host(Box::new(KvsClientHost::new(
                router_port,
                WorkloadConfig {
                    keys: args.keys,
                    theta: 0.99,
                    read_fraction: 0.95,
                    value_size: args.value_size,
                    outstanding: args.outstanding,
                    total_ops: args.ops,
                    preload: true,
                    stats_prefix: format!("c{i}"),
                    ..WorkloadConfig::default()
                },
            )));
        client_ports.push(port);
    }
    Bench {
        setup,
        client_ports,
    }
}

struct Cell {
    seed: u64,
    crash: bool,
    ckpt_bytes: usize,
    ckpt_sections: usize,
    ckpt_events: u64,
    ckpt_ms: Option<f64>,
    restore_replay_events: u64,
    restore_ms: Option<f64>,
    total_events: u64,
    virtual_ns: u64,
    lost_acked_keys: usize,
    digest: String,
}

impl Cell {
    fn json(&self) -> String {
        let wall = match (self.ckpt_ms, self.restore_ms) {
            (Some(c), Some(r)) => {
                format!("\"ckpt_ms\": {c:.3}, \"restore_ms\": {r:.3}, ")
            }
            _ => String::new(),
        };
        format!(
            concat!(
                "{{\"seed\": {}, \"crash\": {}, ",
                "\"ckpt_bytes\": {}, \"ckpt_sections\": {}, \"ckpt_events\": {}, ",
                "{}\"restore_replay_events\": {}, \"total_events\": {}, ",
                "\"virtual_ns\": {}, \"lost_acked_keys\": {}, \"digest\": \"{}\"}}"
            ),
            self.seed,
            self.crash,
            self.ckpt_bytes,
            self.ckpt_sections,
            self.ckpt_events,
            wall,
            self.restore_replay_events,
            self.total_events,
            self.virtual_ns,
            self.lost_acked_keys,
            self.digest
        )
    }
}

/// One matrix cell: reference run with a mid-run checkpoint, then a fresh
/// rack restored from that checkpoint; both continue to completion and
/// must land on the same digest.
fn run_cell(args: &Args, seed: u64, crash: bool) -> (Cell, Checkpoint) {
    // --- Reference run (never interrupted) ------------------------------
    let mut a = build(args, seed, crash);
    a.setup.fabric.power_on();
    let mut total_events = a
        .setup
        .fabric
        .run_for(SimDuration::from_micros(args.ckpt_at_us));
    let t0 = std::time::Instant::now();
    let ck = a
        .setup
        .fabric
        .checkpoint("e14")
        .expect("every rack component snapshots");
    let ckpt_ms = t0.elapsed().as_secs_f64() * 1e3;
    let encoded = ck.encode();
    // The checkpoint container round-trips bit-exactly through its own
    // framing (decode re-verifies every section checksum).
    let reread = Checkpoint::decode(&encoded).expect("checkpoint re-decodes");
    assert_eq!(
        reread.digest(),
        ck.digest(),
        "checkpoint encode/decode must be byte-stable"
    );
    a.reset_pool_stats();
    total_events += a.run_to_done();
    let d_a = a.digest();
    let lost = a.setup.lost_acked_keys();
    if crash && args.replication >= 2 {
        assert_eq!(
            lost, 0,
            "acked writes lost despite R={} (seed {seed:#x})",
            args.replication
        );
    }

    // --- Restored run (fresh rack, replay + verify, continue) -----------
    let mut b = build(args, seed, crash);
    b.setup.fabric.power_on();
    let t1 = std::time::Instant::now();
    b.setup
        .fabric
        .restore_from(&ck)
        .expect("restore must verify byte-for-byte");
    let restore_ms = t1.elapsed().as_secs_f64() * 1e3;
    b.reset_pool_stats();
    b.run_to_done();
    let d_b = b.digest();
    assert_eq!(
        d_a, d_b,
        "restored run diverged from uninterrupted run \
         (seed {seed:#x}, crash {crash})"
    );

    let cell = Cell {
        seed,
        crash,
        ckpt_bytes: encoded.len(),
        ckpt_sections: ck.section_count(),
        ckpt_events: ck.manifest.events,
        ckpt_ms: args.wall.then_some(ckpt_ms),
        restore_replay_events: ck.manifest.events,
        restore_ms: args.wall.then_some(restore_ms),
        total_events,
        virtual_ns: a.setup.fabric.now().as_nanos(),
        lost_acked_keys: lost,
        digest: d_a,
    };
    (cell, ck)
}

/// `--restore-from` mode: rebuild the recipe from the flags, restore the
/// on-disk checkpoint in this fresh process, finish the workload, audit.
fn run_restore_child(args: &Args) -> ! {
    let path = args.restore_from.as_deref().unwrap();
    let ck = Checkpoint::read_file(path).expect("read checkpoint file");
    let mut b = build(args, args.seed, args.crash);
    b.setup.fabric.power_on();
    b.setup
        .fabric
        .restore_from(&ck)
        .expect("cross-process restore must verify byte-for-byte");
    b.reset_pool_stats();
    b.run_to_done();
    let lost = b.setup.lost_acked_keys();
    let digest = b.digest();
    // Machine-parseable result line for the parent process.
    println!("E14_CHILD digest={digest} lost={lost}");
    if args.crash && args.replication >= 2 && lost != 0 {
        eprintln!(
            "E14_CHILD FAIL: {lost} acked keys lost at R={}",
            args.replication
        );
        std::process::exit(1);
    }
    std::process::exit(0);
}

/// Cross-process durability audit: write the crash-arm checkpoint to disk,
/// re-exec this binary, and require the child's restored run to match the
/// parent's uninterrupted digest with zero lost acked writes.
fn cross_process_audit(args: &Args, seed: u64, ck: &Checkpoint, want_digest: &str) -> bool {
    let path = args
        .checkpoint_out
        .clone()
        .unwrap_or_else(|| "BENCH_e14.ckpt".to_string());
    ck.write_file(&path).expect("write checkpoint file");
    let exe = std::env::current_exe().expect("current_exe");
    let out = std::process::Command::new(exe)
        .args([
            "--restore-from",
            &path,
            "--seed",
            &seed.to_string(),
            "--crash",
            "--machines",
            &args.machines.to_string(),
            "--replication",
            &args.replication.to_string(),
            "--ops",
            &args.ops.to_string(),
            "--keys",
            &args.keys.to_string(),
            "--value-size",
            &args.value_size.to_string(),
            "--outstanding",
            &args.outstanding.to_string(),
        ])
        .output()
        .expect("spawn restore child");
    let stdout = String::from_utf8_lossy(&out.stdout);
    let ok_line = stdout
        .lines()
        .find(|l| l.starts_with("E14_CHILD "))
        .unwrap_or("");
    let digest_match = ok_line.contains(&format!("digest={want_digest}"));
    let lost_zero = ok_line.contains("lost=0");
    if !out.status.success() || !digest_match || !lost_zero {
        eprintln!(
            "cross-process audit failed: status {:?}, child said {ok_line:?} \
             (wanted digest={want_digest}, lost=0)\n--- child stderr ---\n{}",
            out.status.code(),
            String::from_utf8_lossy(&out.stderr)
        );
        return false;
    }
    if args.checkpoint_out.is_none() {
        let _ = std::fs::remove_file(&path);
    }
    true
}

fn main() {
    let args = Args::parse();
    if args.restore_from.is_some() {
        run_restore_child(&args);
    }

    println!("E14: checkpoint/restore — snapshot mid-run, restore, continue byte-identically");
    println!(
        "    ({} machines, R={}, {} ops/client, checkpoint at {} us, seeds {:x?})",
        args.machines, args.replication, args.ops, args.ckpt_at_us, args.seeds
    );
    println!();

    let mut cells: Vec<Cell> = Vec::new();
    let mut audit_ck: Option<(u64, Checkpoint, String)> = None;
    for &seed in &args.seeds {
        for crash in [false, true] {
            let (cell, ck) = run_cell(&args, seed, crash);
            // The crash-arm checkpoint of the first seed feeds the
            // cross-process audit.
            if crash && audit_ck.is_none() {
                audit_ck = Some((seed, ck, cell.digest.clone()));
            }
            cells.push(cell);
        }
    }

    let mut t = Table::new(&[
        "seed",
        "crash",
        "ckpt KiB",
        "sections",
        "ckpt ev",
        "replay ev",
        "lost",
        "digest",
    ]);
    for c in &cells {
        t.row_strings(vec![
            format!("{:#x}", c.seed),
            c.crash.to_string(),
            format!("{:.1}", c.ckpt_bytes as f64 / 1024.0),
            c.ckpt_sections.to_string(),
            c.ckpt_events.to_string(),
            c.restore_replay_events.to_string(),
            c.lost_acked_keys.to_string(),
            c.digest.clone(),
        ]);
    }
    t.print();
    println!();
    println!(
        "byte-identity: {} cells, every restored run matched its uninterrupted twin",
        cells.len()
    );

    let (audit_seed, audit_ck, audit_digest) = audit_ck.expect("crash arm ran");
    let audit_ok = cross_process_audit(&args, audit_seed, &audit_ck, &audit_digest);
    println!(
        "cross-process restart audit: {}",
        if audit_ok {
            "restored in a fresh process, digest matched, lost_acked_keys == 0"
        } else {
            "FAIL"
        }
    );

    let mut body = String::from("{\n  \"experiment\": \"e14\",\n  \"schema_version\": 2,\n");
    body.push_str(&format!(
        concat!(
            "  \"config\": {{\"machines\": {}, \"replication\": {}, ",
            "\"ops_per_client\": {}, \"keys\": {}, \"value_size\": {}, ",
            "\"outstanding\": {}, \"ckpt_at_us\": {}, \"seeds\": {:?}}},\n"
        ),
        args.machines,
        args.replication,
        args.ops,
        args.keys,
        args.value_size,
        args.outstanding,
        args.ckpt_at_us,
        args.seeds
    ));
    body.push_str("  \"cells\": [\n");
    for (i, c) in cells.iter().enumerate() {
        body.push_str(&format!(
            "    {}{}\n",
            c.json(),
            if i + 1 < cells.len() { "," } else { "" }
        ));
    }
    body.push_str("  ],\n");
    body.push_str(&format!(
        "  \"cross_process_audit\": {{\"ok\": {}, \"digest\": \"{}\"}}\n",
        audit_ok, audit_digest
    ));
    body.push_str("}\n");
    match std::fs::write(&args.out, &body) {
        Ok(()) => println!("\nwrote {}", args.out),
        Err(e) => eprintln!("\nfailed to write {}: {e}", args.out),
    }

    if !audit_ok {
        std::process::exit(1);
    }
    println!();
    println!(
        "expected shape: every cell's restored run is byte-identical to its \
         uninterrupted twin; crash cells lose zero acked writes at R >= 2"
    );
}
