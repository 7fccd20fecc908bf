//! `bench_diff` — regression gate between two `BENCH_*.json` artifacts.
//!
//! ```text
//! bench_diff <baseline.json> <candidate.json> [flags]
//! ```
//!
//! Compares the candidate against the baseline metric-by-metric and exits
//! non-zero when any metric regresses beyond its threshold. Both files must
//! describe the same experiment (`"experiment"` field). Supported:
//!
//! - **e9** — per engine, per phase present in both artifacts (the heap
//!   reference has only a queue phase since schema v3): `events_per_sec`
//!   may not drop more than `--events-tol` percent (default 5);
//!   `allocs_per_event` may not rise by more than `--allocs-tol` absolute
//!   (default 0.5).
//! - **e10** — per matched `(machines, replication, policy, topology,
//!   oversub)` cell (schema-v1 artifacts carry no policy and match as
//!   `"static"`; pre-v4 artifacts carry no topology and match as flat):
//!   `agg_ops_per_sec` may not drop more than `--events-tol` percent;
//!   `p99_us` may not rise more than `--p99-tol` percent (default 10);
//!   `failovers` may not exceed the baseline by more than the p99
//!   tolerance plus a flat slack of 10 (the retry-storm tail gate).
//!   Additionally, every candidate *crash* cell with R ≥ 2 must report
//!   `lost_acked_keys = 0` — the durability invariant is absolute, not
//!   a tolerance.
//! - **e12** — `attributed_alloc_fraction` and `wall_coverage_fraction`
//!   may not drop below the baseline by more than `--coverage-tol`
//!   absolute (default 0.02); the critical-path `sum_error` may not rise
//!   above `--p99-tol` percent of total.
//! - **e14** — per matched `(seed, crash)` cell: the continuation
//!   `digest` and `ckpt_events` must be *exactly* equal; `ckpt_bytes` may
//!   not grow more than `--p99-tol` percent. Candidate-side invariants:
//!   crash cells at R ≥ 2 must report `lost_acked_keys = 0`, and the
//!   cross-process restart audit must have passed.
//!
//! Wall-clock metrics are host noise; CI double-runs of the same commit
//! should pass a relaxed `--events-tol` (see `ci.sh`), while cross-commit
//! comparisons on a quiet machine use the defaults. Allocation counts and
//! virtual-time metrics are deterministic and always use tight thresholds.
//!
//! Exit codes: 0 = no regression, 1 = regression(s) found, 2 = usage or
//! parse error.

use lastcpu_bench::Json;

struct Tolerances {
    /// Max allowed relative drop in throughput-style metrics (fraction).
    events: f64,
    /// Max allowed absolute rise in allocs/event.
    allocs: f64,
    /// Max allowed relative rise in latency-style metrics (fraction).
    p99: f64,
    /// Max allowed absolute drop in coverage fractions.
    coverage: f64,
}

struct Diff {
    tol: Tolerances,
    regressions: Vec<String>,
    compared: usize,
}

impl Diff {
    /// Lower-is-worse metric (throughput): fail on a drop beyond tolerance.
    fn throughput(&mut self, what: &str, base: f64, cand: f64) {
        self.compared += 1;
        let drop = (base - cand) / base.max(f64::MIN_POSITIVE);
        let verdict = if drop > self.tol.events {
            self.regressions.push(format!(
                "{what}: events/s {base:.1} -> {cand:.1} ({:+.1}%)",
                -100.0 * drop
            ));
            "REGRESSION"
        } else {
            "ok"
        };
        println!(
            "  {what}: {base:.1} -> {cand:.1} ({:+.1}%) {verdict}",
            -100.0 * drop
        );
    }

    /// Higher-is-worse metric with absolute threshold (allocs/event).
    fn allocs(&mut self, what: &str, base: f64, cand: f64) {
        self.compared += 1;
        let rise = cand - base;
        let verdict = if rise > self.tol.allocs {
            self.regressions.push(format!(
                "{what}: allocs/event {base:.3} -> {cand:.3} (+{rise:.3})"
            ));
            "REGRESSION"
        } else {
            "ok"
        };
        println!("  {what}: {base:.3} -> {cand:.3} ({rise:+.3}) {verdict}");
    }

    /// Higher-is-worse metric with relative threshold (latency).
    fn latency(&mut self, what: &str, base: f64, cand: f64) {
        self.compared += 1;
        let rise = (cand - base) / base.max(f64::MIN_POSITIVE);
        let verdict = if rise > self.tol.p99 {
            self.regressions.push(format!(
                "{what}: p99 {base:.1} -> {cand:.1} ({:+.1}%)",
                100.0 * rise
            ));
            "REGRESSION"
        } else {
            "ok"
        };
        println!(
            "  {what}: {base:.1} -> {cand:.1} ({:+.1}%) {verdict}",
            100.0 * rise
        );
    }

    /// Higher-is-worse event count (failovers): relative threshold plus a
    /// flat slack so tiny baselines (0 or a handful) don't trip on noise-
    /// scale absolute changes.
    fn counter(&mut self, what: &str, base: f64, cand: f64) {
        self.compared += 1;
        let limit = base * (1.0 + self.tol.p99) + 10.0;
        let verdict = if cand > limit {
            self.regressions.push(format!(
                "{what}: count {base:.0} -> {cand:.0} (limit {limit:.0})"
            ));
            "REGRESSION"
        } else {
            "ok"
        };
        println!("  {what}: {base:.0} -> {cand:.0} (limit {limit:.0}) {verdict}");
    }

    /// Invariant metric: any non-zero candidate value is a regression.
    fn must_be_zero(&mut self, what: &str, cand: f64) {
        self.compared += 1;
        let verdict = if cand != 0.0 {
            self.regressions
                .push(format!("{what}: must be 0, got {cand:.0}"));
            "REGRESSION"
        } else {
            "ok"
        };
        println!("  {what}: {cand:.0} {verdict}");
    }

    /// Deterministic metric: the candidate must equal the baseline exactly.
    fn identical(&mut self, what: &str, base: &str, cand: &str) {
        self.compared += 1;
        let verdict = if base != cand {
            self.regressions
                .push(format!("{what}: {base} -> {cand} (must be identical)"));
            "REGRESSION"
        } else {
            "ok"
        };
        println!("  {what}: {base} -> {cand} {verdict}");
    }

    /// Higher-is-better fraction with absolute threshold (coverage).
    fn coverage(&mut self, what: &str, base: f64, cand: f64) {
        self.compared += 1;
        let drop = base - cand;
        let verdict = if drop > self.tol.coverage {
            self.regressions.push(format!(
                "{what}: coverage {base:.4} -> {cand:.4} (-{drop:.4})"
            ));
            "REGRESSION"
        } else {
            "ok"
        };
        println!("  {what}: {base:.4} -> {cand:.4} ({:+.4}) {verdict}", -drop);
    }
}

fn num(j: &Json, path: &str) -> Result<f64, String> {
    j.path(path)
        .and_then(Json::as_f64)
        .ok_or_else(|| format!("missing numeric field {path:?}"))
}

fn diff_e9(d: &mut Diff, base: &Json, cand: &Json) -> Result<(), String> {
    let engines = base
        .get("engines")
        .and_then(Json::as_obj)
        .ok_or("baseline e9 has no engines object")?;
    for (engine, b) in engines {
        let Some(c) = cand.path(&format!("engines.{engine}")) else {
            println!("  engines.{engine}: absent in candidate, skipped");
            continue;
        };
        for phase in ["queue", "system"] {
            let what = format!("{engine}.{phase}");
            // Schema v3 dropped the heap's system phase: the heap is a
            // queue-only reference now.
            if b.get(phase).is_none() || c.get(phase).is_none() {
                println!("  {what}: absent on one side, skipped");
                continue;
            }
            d.throughput(
                &what,
                num(b, &format!("{phase}.events_per_sec"))?,
                num(c, &format!("{phase}.events_per_sec"))?,
            );
            d.allocs(
                &what,
                num(b, &format!("{phase}.allocs_per_event"))?,
                num(c, &format!("{phase}.allocs_per_event"))?,
            );
        }
    }
    Ok(())
}

fn diff_e10(d: &mut Diff, base: &Json, cand: &Json) -> Result<(), String> {
    let cells = |j: &Json, section: &str| -> Vec<Json> {
        j.get(section)
            .and_then(Json::as_arr)
            .map(<[Json]>::to_vec)
            .unwrap_or_default()
    };
    // Schema v1 predates the retry-policy ablation; its cells are what the
    // v2 schema calls the "static" arm. Pre-v4 cells predate the topology
    // matrix and always ran the flat single-spine fabric.
    let key = |c: &Json| -> Option<(u64, u64, String, String, u64)> {
        Some((
            c.get("machines")?.as_f64()? as u64,
            c.get("replication")?.as_f64()? as u64,
            c.get("policy")
                .and_then(Json::as_str)
                .unwrap_or("static")
                .to_string(),
            c.get("topology")
                .and_then(Json::as_str)
                .unwrap_or("flat")
                .to_string(),
            c.get("oversub").and_then(Json::as_f64).unwrap_or(1.0) as u64,
        ))
    };
    let cand_cells = cells(cand, "scaling");
    for b in cells(base, "scaling") {
        let Some(k) = key(&b) else { continue };
        let Some(c) = cand_cells.iter().find(|c| key(c).as_ref() == Some(&k)) else {
            println!("  cell {k:?}: absent in candidate, skipped");
            continue;
        };
        let what = format!("m{}r{}[{}].{}x{}", k.0, k.1, k.2, k.3, k.4);
        d.throughput(
            &what,
            num(&b, "agg_ops_per_sec")?,
            num(c, "agg_ops_per_sec")?,
        );
        d.latency(&what, num(&b, "p99_us")?, num(c, "p99_us")?);
        d.counter(
            &format!("{what}.failovers"),
            num(&b, "failovers")?,
            num(c, "failovers")?,
        );
    }
    // The durability audit is baseline-independent: no candidate crash run
    // with R >= 2 may lose an acknowledged write, ever.
    for c in cells(cand, "crash") {
        let Some(k) = key(&c) else { continue };
        if k.1 >= 2 {
            d.must_be_zero(
                &format!(
                    "crash.m{}r{}[{}].{}x{}.lost_acked_keys",
                    k.0, k.1, k.2, k.3, k.4
                ),
                num(&c, "lost_acked_keys")?,
            );
        }
    }
    Ok(())
}

fn diff_e14(d: &mut Diff, base: &Json, cand: &Json) -> Result<(), String> {
    let cells = |j: &Json| -> Vec<Json> {
        j.get("cells")
            .and_then(Json::as_arr)
            .map(<[Json]>::to_vec)
            .unwrap_or_default()
    };
    let key = |c: &Json| -> Option<(u64, bool)> {
        Some((
            c.get("seed")?.as_f64()? as u64,
            matches!(c.get("crash").and_then(Json::as_bool), Some(true)),
        ))
    };
    let cand_cells = cells(cand);
    for b in cells(base) {
        let Some(k) = key(&b) else { continue };
        let Some(c) = cand_cells.iter().find(|c| key(c) == Some(k)) else {
            println!("  cell {k:?}: absent in candidate, skipped");
            continue;
        };
        let what = format!("s{:x}{}", k.0, if k.1 { "c" } else { "" });
        // The continuation digest is deterministic: any drift means the
        // snapshot subsystem (or the simulator under it) changed behavior.
        let digest = |j: &Json| {
            j.get("digest")
                .and_then(Json::as_str)
                .unwrap_or("?")
                .to_string()
        };
        d.identical(&format!("{what}.digest"), &digest(&b), &digest(c));
        d.identical(
            &format!("{what}.ckpt_events"),
            &format!("{:.0}", num(&b, "ckpt_events")?),
            &format!("{:.0}", num(c, "ckpt_events")?),
        );
        // Checkpoint size may grow as components gain state, but a jump
        // beyond the latency tolerance is worth failing a diff over.
        d.latency(
            &format!("{what}.ckpt_bytes"),
            num(&b, "ckpt_bytes")?,
            num(c, "ckpt_bytes")?,
        );
    }
    // Candidate-side invariants, baseline-independent: the crash arms must
    // never lose an acked write, and the cross-process restart audit must
    // have passed.
    let replication = num(cand, "config.replication").unwrap_or(0.0);
    for c in &cand_cells {
        let Some(k) = key(c) else { continue };
        if k.1 && replication >= 2.0 {
            d.must_be_zero(
                &format!("s{:x}c.lost_acked_keys", k.0),
                num(c, "lost_acked_keys")?,
            );
        }
    }
    let audit_ok = matches!(
        cand.path("cross_process_audit.ok").and_then(Json::as_bool),
        Some(true)
    );
    d.identical("cross_process_audit.ok", "true", &audit_ok.to_string());
    Ok(())
}

fn diff_e12(d: &mut Diff, base: &Json, cand: &Json) -> Result<(), String> {
    d.coverage(
        "attribution.allocs",
        num(base, "attribution.attributed_alloc_fraction")?,
        num(cand, "attribution.attributed_alloc_fraction")?,
    );
    // Wall coverage only exists in wall mode; `--no-wall` artifacts omit it.
    let wall = "attribution.wall_coverage_fraction";
    match (base.path(wall), cand.path(wall)) {
        (Some(b), Some(c)) => {
            let (b, c) = (
                b.as_f64().ok_or("bad wall_coverage_fraction")?,
                c.as_f64().ok_or("bad wall_coverage_fraction")?,
            );
            d.coverage("attribution.wall", b, c);
        }
        (None, None) => println!("  attribution.wall: absent (no-wall artifacts), skipped"),
        _ => return Err("wall mode differs between baseline and candidate".into()),
    }
    d.latency(
        "critical_path.sum_error",
        1.0 + num(base, "critical_path.worst_sum_error")?,
        1.0 + num(cand, "critical_path.worst_sum_error")?,
    );
    Ok(())
}

fn run() -> Result<i32, String> {
    let mut tol = Tolerances {
        events: 0.05,
        allocs: 0.5,
        p99: 0.10,
        coverage: 0.02,
    };
    let mut files: Vec<String> = Vec::new();
    let mut it = std::env::args().skip(1);
    while let Some(a) = it.next() {
        let mut pct = |flag: &str| -> Result<f64, String> {
            it.next()
                .and_then(|v| v.parse::<f64>().ok())
                .map(|v| v / 100.0)
                .ok_or_else(|| format!("{flag} needs a percentage"))
        };
        match a.as_str() {
            "--events-tol" => tol.events = pct("--events-tol")?,
            "--p99-tol" => tol.p99 = pct("--p99-tol")?,
            "--coverage-tol" => tol.coverage = pct("--coverage-tol")?,
            "--allocs-tol" => {
                tol.allocs = it
                    .next()
                    .and_then(|v| v.parse().ok())
                    .ok_or("--allocs-tol needs a number")?;
            }
            _ if a.starts_with("--") => return Err(format!("unknown flag {a:?}")),
            _ => files.push(a),
        }
    }
    let [base_path, cand_path] = files.as_slice() else {
        return Err("usage: bench_diff <baseline.json> <candidate.json> [flags]".into());
    };

    let read = |p: &str| -> Result<Json, String> {
        let text = std::fs::read_to_string(p).map_err(|e| format!("read {p}: {e}"))?;
        Json::parse(&text).map_err(|e| format!("parse {p}: {e}"))
    };
    let base = read(base_path)?;
    let cand = read(cand_path)?;

    let experiment = base
        .get("experiment")
        .and_then(Json::as_str)
        .ok_or("baseline has no \"experiment\" field")?
        .to_string();
    let cand_exp = cand.get("experiment").and_then(Json::as_str).unwrap_or("?");
    if experiment != cand_exp {
        return Err(format!(
            "experiment mismatch: baseline {experiment:?} vs candidate {cand_exp:?}"
        ));
    }

    println!("bench_diff {experiment}: {base_path} -> {cand_path}");
    let mut d = Diff {
        tol,
        regressions: Vec::new(),
        compared: 0,
    };
    match experiment.as_str() {
        "e9" => diff_e9(&mut d, &base, &cand)?,
        "e10" => diff_e10(&mut d, &base, &cand)?,
        "e12" => diff_e12(&mut d, &base, &cand)?,
        "e14" => diff_e14(&mut d, &base, &cand)?,
        other => return Err(format!("unsupported experiment {other:?}")),
    }
    if d.compared == 0 {
        return Err("no comparable metrics found".into());
    }
    if d.regressions.is_empty() {
        println!("PASS: {} metrics within thresholds", d.compared);
        Ok(0)
    } else {
        println!(
            "FAIL: {} of {} metrics regressed",
            d.regressions.len(),
            d.compared
        );
        for r in &d.regressions {
            println!("  - {r}");
        }
        Ok(1)
    }
}

fn main() {
    match run() {
        Ok(code) => std::process::exit(code),
        Err(e) => {
            eprintln!("bench_diff: {e}");
            std::process::exit(2);
        }
    }
}
