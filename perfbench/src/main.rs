//! `perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>`
//!
//! Runs repetitions of one workload until `--seconds` of host time have
//! passed (at least two, so their digests can be compared), checks every
//! repetition, prints each metric by name and unit, and ends with one JSON
//! result line. `--trace 0` reports the end-to-end metrics; `--trace 1`
//! adds one traced repetition and reports the per-layer metrics.
//! `--list-metrics` prints the metric catalogue. Exits 1 when a check
//! fails, 2 on a usage error.

use std::time::{Duration, Instant};

use lastcpu_perfbench::alloc::CountingAlloc;
use lastcpu_perfbench::layers::{median, per_layer, self_time, LAYERS};
use lastcpu_perfbench::report::{catalogue_json, result_line, unit_of};
use lastcpu_perfbench::workload::{run_rep, Rep, Scale, Workload, CRITPATH_SAMPLE};

#[global_allocator]
static ALLOC: CountingAlloc = CountingAlloc;

/// Repetitions per run, at least: two untraced reps compare digests.
const MIN_REPS: usize = 2;

struct Args {
    workload: Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args() -> Result<Option<Args>, String> {
    let mut workload = None;
    let (mut seed, mut seconds, mut trace) = (0u64, 10.0f64, false);
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        if flag == "--list-metrics" {
            return Ok(None);
        }
        let val = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = |_| format!("bad value {val:?} for {flag}");
        match flag.as_str() {
            "--workload" => {
                workload =
                    Some(Workload::parse(&val).ok_or_else(|| format!("unknown workload {val:?}"))?)
            }
            "--seed" => seed = val.parse().map_err(bad)?,
            "--seconds" => {
                seconds = val
                    .parse()
                    .map_err(|_| format!("bad value {val:?} for {flag}"))?
            }
            "--trace" => {
                trace = match val.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace takes 0 or 1, not {val:?}")),
                }
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    let workload = workload.ok_or("--workload is required (kvs-hot, kvs-cold or rack64)")?;
    Ok(Some(Args {
        workload,
        seed,
        seconds,
        trace,
    }))
}

/// Peak resident set size of this process, MiB (`VmHWM`).
fn peak_rss_mb() -> Result<f64, String> {
    let status = std::fs::read_to_string("/proc/self/status").map_err(|e| e.to_string())?;
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map(|kb| kb / 1024.0)
        .ok_or_else(|| "VmHWM missing from /proc/self/status".into())
}

fn print_rep(i: usize, r: &Rep) {
    let kind = if r.profile.is_some() {
        "traced rep"
    } else {
        "rep"
    };
    let snap = r.snap.map_or(String::new(), |s| {
        format!(
            " | checkpoint {:.3} s ({} B), restore {:.3} s",
            s.checkpoint_s, s.bytes, s.restore_s
        )
    });
    println!(
        "{kind} {i}: setup {:.3} s | window {:.3} s host (calibration scale {:.3}), {:.6} s virtual, {} ops, {} events{snap} | digest {:#018x}",
        r.setup_s,
        r.window_host_s,
        r.host_scale,
        r.window_virtual_s,
        r.ops(),
        r.events,
        r.digest
    );
}

fn end_to_end(reps: &[Rep]) -> Result<Vec<(String, f64)>, String> {
    let med = |f: &dyn Fn(&Rep) -> f64| median(&reps.iter().map(f).collect::<Vec<_>>());
    let r = &reps[0];
    Ok(vec![
        ("setup_s".into(), med(&|r| r.setup_s)),
        (
            "sim_ops_per_host_s".into(),
            med(&|r| r.ops() as f64 / r.window_host_s),
        ),
        ("peak_rss_mb".into(), peak_rss_mb()?),
        ("vops_per_s".into(), r.ops() as f64 / r.window_virtual_s),
    ])
}

/// Prints the traced breakdown: counters with their base, self-time per
/// layer, the largest layer and the tracing overhead.
fn print_layers(reps: &[Rep], traced: &Rep) {
    let r = &reps[0];
    let ops = r.ops();
    println!("counters over the window (base: {ops} ops):");
    for (k, v) in &r.counters {
        println!(
            "  counter {k} = {v} ({:.4} per op)",
            *v as f64 / ops.max(1) as f64
        );
    }
    let st = self_time(r, traced);
    println!(
        "host self time over the traced window ({:.3} s):",
        st.total_ns / 1e9
    );
    for layer in LAYERS {
        println!(
            "  layer {layer:<14} {:>10.3} ms  {:>6.2} %",
            st.self_ns[layer] / 1e6,
            100.0 * st.share(layer)
        );
    }
    if let Some(cp) = &traced.critpath {
        println!(
            "critical path: {} of {} sampled ops decomposed (1 op in {CRITPATH_SAMPLE})",
            cp.ops.len(),
            cp.ops.len() as u64 + cp.incomplete
        );
    }
    if !st.unmapped.is_empty() {
        println!("  unmapped profile scopes: {}", st.unmapped.join(", "));
    }
    let untraced = median(&reps.iter().map(|r| r.window_host_s).collect::<Vec<_>>());
    println!(
        "largest layer: {} ({:.1} %); tracing overhead: {:+.3} s ({:+.1} %) over the untraced window",
        st.largest(),
        100.0 * st.share(st.largest()),
        traced.window_host_s - untraced,
        100.0 * (traced.window_host_s - untraced) / untraced
    );
}

fn run(args: Args) -> Result<bool, String> {
    let w = args.workload;
    println!(
        "perfbench: workload {} seed {} (system seed {:#x}) seconds {} trace {}",
        w.name(),
        args.seed,
        w.system_seed(args.seed),
        args.seconds,
        args.trace as u8
    );
    let deadline = Instant::now() + Duration::from_secs_f64(args.seconds.max(0.0));
    let mut reps = Vec::new();
    while reps.len() < MIN_REPS || Instant::now() < deadline {
        let rep = run_rep(w, &Scale::FULL, args.seed, false)?;
        print_rep(reps.len() + 1, &rep);
        reps.push(rep);
    }
    let traced = if args.trace {
        let t = run_rep(w, &Scale::FULL, args.seed, true)?;
        print_rep(1, &t);
        Some(t)
    } else {
        None
    };

    let mut failures: Vec<String> = Vec::new();
    for r in reps.iter().chain(traced.iter()) {
        failures.extend(r.failures.iter().cloned());
    }
    if let Some(r) = reps
        .iter()
        .chain(traced.iter())
        .find(|r| r.digest != reps[0].digest)
    {
        failures.push(format!(
            "virtual outputs differ between runs of one seed: digest {:#018x} vs {:#018x}",
            reps[0].digest, r.digest
        ));
    }
    failures.sort();
    failures.dedup();
    let correct = failures.is_empty();
    if correct {
        println!(
            "checks: all passed ({} runs, digest {:#018x})",
            reps.len() + traced.is_some() as usize,
            reps[0].digest
        );
    }
    for f in &failures {
        println!("check FAILED: {f}");
    }

    let metrics = match &traced {
        Some(t) => {
            print_layers(&reps, t);
            per_layer(&reps, t)
        }
        None => end_to_end(&reps)?,
    };
    for (name, v) in &metrics {
        println!("metric {name} = {v} {}", unit_of(name).unwrap_or("?"));
    }
    let attempted: u64 = reps.iter().map(|r| r.ops()).sum();
    let failed: u64 = reps.iter().map(|r| r.failed()).sum();
    println!("{}", result_line(correct, attempted, failed, &metrics)?);
    Ok(correct)
}

fn main() {
    let args = match parse_args() {
        Ok(Some(a)) => a,
        Ok(None) => {
            println!("{}", catalogue_json());
            return;
        }
        Err(e) => {
            eprintln!("perfbench: {e}");
            std::process::exit(2);
        }
    };
    match run(args) {
        Ok(true) => {}
        Ok(false) => std::process::exit(1),
        Err(e) => {
            eprintln!("perfbench: {e}");
            std::process::exit(1);
        }
    }
}
