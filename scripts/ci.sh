#!/usr/bin/env bash
# CI gate for the lastcpu workspace. Mirrors what a reviewer runs:
#
#   1. formatting        cargo fmt --check
#   2. lints             cargo clippy --all-targets -- -D warnings
#   3. tier-1            cargo build --release && cargo test -q
#   4. obs smoke test    f2_init_sequence --trace-out/--metrics-out produce
#                        non-empty, well-formed artifacts
#   5. fault smoke test  e4_failures fault matrix replays from three seeds
#                        and exports retry/recovery metrics
#   6. engine smoke test e9_engine_throughput (reduced sizes) produces a
#                        well-formed BENCH_e9.json with nonzero events/sec
#                        for the timing wheel's queue and system phases
#                        and the reference heap's queue phase, and holds
#                        the pooled delivery path's system-phase
#                        allocation rate at <= 1.0 allocs/event
#   7. rack smoke test   e10_rack_scaleout (2 machines, flat topology,
#                        reduced ops, the static and adaptive+p2c
#                        retry-policy arms): a same-seed double run yields
#                        byte-identical BENCH_e10.json (schema v5 with
#                        per-link utilization), and the machine-kill audit
#                        keeps every acked write at R=2 under both arms;
#                        then a tail smoke runs the full 8-machine R=3
#                        cell under adaptive+p2c and fails if its p99
#                        exceeds 2x the R=2 baseline or any acked write is
#                        lost; then a topology smoke runs 16 machines on a
#                        leaf-spine:8 tree at oversubscription 4 — double
#                        run byte-identical, bench_diff clean, per-link
#                        utilization reported, crash audit lossless
#   8. docs gate         cargo doc --no-deps with rustdoc warnings as
#                        errors, an explicit doctest run, and a markdown
#                        link checker (scripts/check_links.py) over
#                        README/DESIGN/EXPERIMENTS/ROADMAP and docs/
#   9. security smoke    e11_security (one seed, reduced ops): a same-seed
#                        double run yields byte-identical BENCH_e11.json,
#                        every hardened row reports leaked == 0 and an
#                        intact workload (any leak fails CI)
#  10. attribution smoke e12_attribution --no-wall (reduced sizes): a
#                        same-seed double run yields byte-identical
#                        BENCH_e12.json; the binary's own gates enforce
#                        >= 95% allocation attribution and exact
#                        critical-path segment sums; bench_diff compares
#                        the two runs as an e12-aware smoke of the diff
#                        tool itself
#  11. regression diff   e9 double run on the same commit through
#                        bench_diff: allocations/event are deterministic
#                        and compared tightly; events/sec is host noise
#                        and gets a relaxed tolerance
#  12. checkpoint smoke  e14_checkpoint --no-wall (reduced matrix): the
#                        binary hard-asserts that every restored rack
#                        continues byte-identically to its uninterrupted
#                        twin (no-fault and crash arms), and that
#                        a checkpoint restored in a *fresh OS process*
#                        finishes with lost_acked_keys == 0 at R=2; a
#                        same-flag double run is byte-identical and
#                        bench_diff compares the pair
#
# Set CI_CRITERION=1 to additionally run the criterion host-time benches
# (opt-in: they are measurements, not pass/fail gates, and take minutes).
#
# Everything runs offline; the workspace has no crates.io dependencies.

set -euo pipefail
cd "$(dirname "$0")/.."

echo "==> cargo fmt --check"
cargo fmt --all -- --check

echo "==> cargo clippy (all targets, -D warnings)"
cargo clippy --offline --workspace --all-targets -- -D warnings

echo "==> tier-1: cargo build --release"
cargo build --offline --release

echo "==> tier-1: cargo test -q"
cargo test --offline -q

echo "==> docs gate: cargo doc --no-deps (rustdoc warnings are errors)"
RUSTDOCFLAGS="-D warnings" cargo doc --offline --no-deps --workspace -q

echo "==> docs gate: doctests"
cargo test --offline -q --doc

echo "==> docs gate: markdown links"
# Every relative link and intra-file anchor in the reviewer-facing docs
# must resolve (external URLs are counted, not fetched — CI is offline).
if command -v python3 >/dev/null 2>&1; then
    python3 scripts/check_links.py \
        README.md DESIGN.md EXPERIMENTS.md ROADMAP.md docs/*.md
else
    echo "    python3 unavailable, markdown link check skipped"
fi

echo "==> observability smoke test (f2_init_sequence)"
tmp="$(mktemp -d)"
trap 'rm -rf "$tmp"' EXIT
cargo run --offline --release -q -p lastcpu-bench --bin f2_init_sequence -- \
    --trace-out "$tmp/f2.jsonl" --metrics-out "$tmp/f2.prom" >/dev/null

# The JSONL trace must be non-empty, and every line must be a JSON object
# with the fields the exporter promises (at_ns, source, corr, kind, what).
[ -s "$tmp/f2.jsonl" ] || { echo "FAIL: empty trace"; exit 1; }
if command -v python3 >/dev/null 2>&1; then
    python3 - "$tmp/f2.jsonl" <<'PY'
import json, sys
n = 0
corrs = set()
for line in open(sys.argv[1]):
    rec = json.loads(line)
    for field in ("at_ns", "source", "corr", "kind", "what"):
        assert field in rec, f"missing {field!r}: {rec}"
    corrs.add(rec["corr"])
    n += 1
assert n > 0, "no trace records"
assert len(corrs) > 1, "expected more than one correlation id"
print(f"    {n} trace records, {len(corrs)} correlation ids")
PY
else
    grep -q '"corr"' "$tmp/f2.jsonl" || { echo "FAIL: no corr field"; exit 1; }
fi

# The metrics snapshot must cover each subsystem the design instruments
# (names are sanitized to lastcpu_<subsystem>_... in the exposition).
for prefix in bus iommu nic ssd memctl kvs; do
    grep -q "lastcpu_${prefix}_" "$tmp/f2.prom" || {
        echo "FAIL: no ${prefix}.* metric in snapshot"; exit 1;
    }
done
echo "    metrics cover bus/iommu/nic/ssd/memctl/kvs"

echo "==> fault-matrix smoke test (e4_failures, 3 seeds)"
# The matrix itself asserts bit-identical replay per cell and a completed
# Figure-2 re-init per recovery; CI additionally checks that the exported
# snapshot carries the retry counters and recovery-latency histograms
# (keys bus.<device>.retries / bus.<device>.recovery_latency, sanitized to
# lastcpu_bus_<device>_... in the Prometheus exposition).
for seed in 0xE4 7 1984; do
    cargo run --offline --release -q -p lastcpu-bench --bin e4_failures -- \
        --fault-seed "$seed" --metrics-out "$tmp/e4_$seed.prom" >/dev/null
    grep -Eq 'lastcpu_bus_[a-z0-9]+_retries' "$tmp/e4_$seed.prom" || {
        echo "FAIL: no bus.*.retries counter for seed $seed"; exit 1;
    }
    grep -q 'recovery_latency' "$tmp/e4_$seed.prom" || {
        echo "FAIL: no recovery_latency histogram for seed $seed"; exit 1;
    }
done
echo "    3 seeds replayed; retry + recovery_latency metrics present"

echo "==> engine-throughput smoke test (e9_engine_throughput, reduced)"
# Reduced sizes keep this to a couple of seconds; the full run is a
# measurement, not a gate. Every measured phase must produce nonzero
# throughput: the wheel's queue and system phases and the reference heap's
# queue phase.
cargo run --offline --release -q -p lastcpu-bench --bin e9_engine_throughput -- \
    --queue-ops 200000 --queue-depth 8192 --virtual-ms 100 --repeat 1 \
    --out "$tmp/BENCH_e9.json" >/dev/null
[ -s "$tmp/BENCH_e9.json" ] || { echo "FAIL: empty BENCH_e9.json"; exit 1; }
if command -v python3 >/dev/null 2>&1; then
    python3 - "$tmp/BENCH_e9.json" <<'PY'
import json, sys
d = json.load(open(sys.argv[1]))
assert d["experiment"] == "e9" and d["schema_version"] == 3, d.keys()
engines = d["engines"]
assert set(engines) == {"wheel", "heap"}, engines.keys()
assert set(engines["wheel"]) == {"queue", "system"}, engines["wheel"].keys()
assert set(engines["heap"]) == {"queue"}, engines["heap"].keys()
for name, e in engines.items():
    for phase, s in e.items():
        assert s["events"] > 0, (name, phase)
        assert s["events_per_sec"] > 0, (name, phase)
        assert s["ns_per_event"] > 0, (name, phase)
# The pooled-delivery gate: the end-to-end system phase must stay at or
# below one heap allocation per simulated event.
a = engines["wheel"]["system"]["allocs_per_event"]
assert a <= 1.0, f"system allocs/event {a} > 1.0 (pool regressed)"
q = d["wheel_over_heap"]["queue"]
a = engines["wheel"]["system"]["allocs_per_event"]
print(f"    BENCH_e9.json well-formed; wheel/heap queue churn {q:.2f}x, "
      f"system {a:.3f} allocs/event")
PY
else
    grep -q '"events_per_sec"' "$tmp/BENCH_e9.json" || {
        echo "FAIL: no events_per_sec in BENCH_e9.json"; exit 1;
    }
fi

echo "==> rack smoke test (e10_rack_scaleout, 2 machines, double run)"
# Reduced matrix: 2 machines, R in {1,2}, 120 ops/client, under both the
# static and the congestion-aware (adaptive+p2c) retry-policy arms. The
# crash cells run too (kill m1, audit acked writes). Rack determinism is a
# whole-file property: two same-seed runs must produce byte-identical
# artifacts — per policy arm, since the arms are part of the artifact.
e10_flags=(--machines 1,2 --replication 1,2 --ops 120 --keys 60
           --policies static,adaptive+p2c --topologies flat --oversub 1)
cargo run --offline --release -q -p lastcpu-bench --bin e10_rack_scaleout -- \
    "${e10_flags[@]}" --out "$tmp/BENCH_e10_a.json" >/dev/null
cargo run --offline --release -q -p lastcpu-bench --bin e10_rack_scaleout -- \
    "${e10_flags[@]}" --out "$tmp/BENCH_e10_b.json" >/dev/null
cmp -s "$tmp/BENCH_e10_a.json" "$tmp/BENCH_e10_b.json" || {
    echo "FAIL: same-seed BENCH_e10.json runs differ"; exit 1;
}
if command -v python3 >/dev/null 2>&1; then
    python3 - "$tmp/BENCH_e10_a.json" <<'PY'
import json, sys
d = json.load(open(sys.argv[1]))
assert d["experiment"] == "e10" and d["schema_version"] == 5, d.keys()
policies = {c["policy"] for c in d["scaling"]}
assert policies == {"static", "adaptive+p2c"}, policies
for c in d["scaling"]:
    assert c["done"], f"scaling cell incomplete: {c}"
    assert c["topology"] == "flat" and c["oversub"] == 1, c
    assert c["ops"] == 120 * c["machines"], c
    assert c["agg_ops_per_sec"] > 0 and c["p99_us"] > 0, c
    assert c["links"] > 0 and c["links_used"] <= c["links"], c
    if c["machines"] > 1:
        assert c["fabric_bytes"] > 0, f"no fabric traffic: {c}"
        assert c["links_used"] > 0 and c["max_link_util"] > 0, \
            f"no per-link utilization: {c}"
crash = {(c["policy"], c["replication"]): c for c in d["crash"]}
assert crash, "no crash cells"
for c in crash.values():
    assert c["done"], f"crash cell incomplete: {c}"
    assert c["acked_keys"] > 0, c
for pol in ("static", "adaptive+p2c"):
    r1, r2 = crash[(pol, 1)], crash[(pol, 2)]
    assert r2["lost_acked_keys"] == 0, f"R=2 lost acked writes: {r2}"
    assert r1["lost_acked_keys"] > 0, f"R=1 control lost nothing: {r1}"
r1 = crash[("adaptive+p2c", 1)]
print(f"    byte-identical double run; crash audit per arm: R=1 lost "
      f"{r1['lost_acked_keys']}/{r1['acked_keys']} acked keys, R=2 lost 0")
PY
else
    grep -q '"lost_acked_keys"' "$tmp/BENCH_e10_a.json" || {
        echo "FAIL: no crash audit in BENCH_e10.json"; exit 1;
    }
fi

echo "==> rack tail smoke test (e10, 8 machines, R=3, adaptive+p2c)"
# The ISSUE-7 acceptance cell at full size: the congestion-aware arm must
# keep the 8xR=3 tail within 2x the 8xR=2 baseline of the same run (the
# static arm sits ~9x above it), and the crash audit must hold at R>=2.
cargo run --offline --release -q -p lastcpu-bench --bin e10_rack_scaleout -- \
    --machines 8 --replication 2,3 --policies adaptive+p2c \
    --topologies flat --oversub 1 \
    --out "$tmp/BENCH_e10_tail.json" >/dev/null
if command -v python3 >/dev/null 2>&1; then
    python3 - "$tmp/BENCH_e10_tail.json" <<'PY'
import json, sys
d = json.load(open(sys.argv[1]))
cell = {c["replication"]: c for c in d["scaling"]}
r2, r3 = cell[2], cell[3]
assert r3["done"] and r2["done"], (r2, r3)
assert r3["p99_us"] <= 2 * r2["p99_us"], \
    f"8xR=3 tail regressed: p99 {r3['p99_us']}us > 2x R=2 {r2['p99_us']}us"
for c in d["crash"]:
    if c["replication"] >= 2:
        assert c["lost_acked_keys"] == 0, f"lost acked writes: {c}"
print(f"    adaptive+p2c 8xR=3: p99 {r3['p99_us']:.0f}us vs R=2 "
      f"{r2['p99_us']:.0f}us, {r3['failovers']} failovers, 0 lost acked")
PY
fi

echo "==> topology smoke test (e10, 16-machine leaf-spine, double run)"
# The ISSUE-10 gate at CI size: a 16-machine rack on a real leaf-spine
# tree (2 leaves of 8, ECMP across the spines left by oversub 4) must
# replay byte-identically, report per-link utilization, and keep every
# acked write at R=2 through the machine-kill audit. bench_diff compares
# the pair as a smoke of its topology-aware e10 keying.
topo_flags=(--machines 16 --replication 2 --ops 120 --keys 60
            --policies adaptive+p2c --topologies leaf-spine:8 --oversub 4)
cargo run --offline --release -q -p lastcpu-bench --bin e10_rack_scaleout -- \
    "${topo_flags[@]}" --out "$tmp/BENCH_e10_ls_a.json" >/dev/null
cargo run --offline --release -q -p lastcpu-bench --bin e10_rack_scaleout -- \
    "${topo_flags[@]}" --out "$tmp/BENCH_e10_ls_b.json" >/dev/null
cmp -s "$tmp/BENCH_e10_ls_a.json" "$tmp/BENCH_e10_ls_b.json" || {
    echo "FAIL: same-seed leaf-spine BENCH_e10.json runs differ"; exit 1;
}
cargo run --offline --release -q -p lastcpu-bench --bin bench_diff -- \
    "$tmp/BENCH_e10_ls_a.json" "$tmp/BENCH_e10_ls_b.json" | tail -1
if command -v python3 >/dev/null 2>&1; then
    python3 - "$tmp/BENCH_e10_ls_a.json" <<'PY'
import json, sys
d = json.load(open(sys.argv[1]))
assert d["schema_version"] == 5, d.keys()
[c] = d["scaling"]
assert c["topology"] == "leaf-spine:8" and c["oversub"] == 4, c
assert c["done"] and c["machines"] == 16, c
# 16 machines x (up + down) host links, plus 2 leaves x 2 surviving
# spines x (up + down) trunks.
assert c["links"] == 40, c["links"]
assert 0 < c["links_used"] <= c["links"], c
assert c["max_link_util"] > 0 and c["hot_link"], c
for k in d["crash"]:
    assert k["topology"] == "leaf-spine:8" and k["oversub"] == 4, k
    assert k["lost_acked_keys"] == 0, f"leaf-spine crash lost writes: {k}"
print(f"    byte-identical double run; {c['links_used']}/{c['links']} links "
      f"used, hottest {c['hot_link']} at {c['max_link_util'] * 100:.3f}%")
PY
fi

echo "==> security smoke test (e11_security, one seed, double run)"
# Reduced matrix: one seed (3601 = 0xE11), 120 ops, 2-machine rack at R=2.
# The gate is the paper's isolation claim made executable: every hardened
# row must report leaked == 0 with an intact workload, and two same-seed
# runs must produce byte-identical artifacts.
e11_flags=(--seeds 3601 --ops 120 --keys 40 --machines 2 --replication 2)
cargo run --offline --release -q -p lastcpu-bench --bin e11_security -- \
    "${e11_flags[@]}" --out "$tmp/BENCH_e11_a.json" >/dev/null
cargo run --offline --release -q -p lastcpu-bench --bin e11_security -- \
    "${e11_flags[@]}" --out "$tmp/BENCH_e11_b.json" >/dev/null
cmp -s "$tmp/BENCH_e11_a.json" "$tmp/BENCH_e11_b.json" || {
    echo "FAIL: same-seed BENCH_e11.json runs differ"; exit 1;
}
if command -v python3 >/dev/null 2>&1; then
    python3 - "$tmp/BENCH_e11_a.json" <<'PY'
import json, sys
d = json.load(open(sys.argv[1]))
assert d["experiment"] == "e11" and d["schema_version"] == 1, d.keys()
assert d["leaked_total_hardened"] == 0, \
    f"SECURITY LEAK: leaked_total_hardened = {d['leaked_total_hardened']}"
hardened = [c for c in d["single"] if c["policy"] == "hardened"]
assert hardened, "no hardened single-machine cells"
for c in hardened:
    assert c["leaked_total"] == 0, f"leak in single cell: {c}"
    assert c["integrity_ok"], f"workload integrity violated: {c}"
    assert c["client_errors"] == 0, c
    kinds = {a["kind"] for a in c["attacks"]}
    assert kinds == {"wild-dma", "stale-generation", "confused-deputy",
                     "ssdp-spoof", "control-flood"}, kinds
assert d["rack"], "no rack cells"
for c in d["rack"]:
    assert c["leaked_total"] == 0, f"leak in rack cell: {c}"
    assert c["clients_done"] and c["client_errors"] == 0, c
    assert c["lost_acked_keys"] == 0, c
blocked = sum(a["blocked"] for c in hardened for a in c["attacks"])
print(f"    byte-identical double run; 0 leaks, {blocked} blocked "
      f"verdicts audited (single + rack)")
PY
else
    grep -q '"leaked_total_hardened": 0' "$tmp/BENCH_e11_a.json" || {
        echo "FAIL: leaked_total_hardened != 0 in BENCH_e11.json"; exit 1;
    }
fi

echo "==> attribution smoke test (e12_attribution --no-wall, double run)"
# Reduced sizes: 300 ms virtual system phase, 4-machine rack at R=2. With
# --no-wall the artifact is pure virtual time + allocation counts, so two
# same-seed runs must be byte-identical. The binary exits non-zero itself
# when an attribution gate fails (< 95% allocations attributed, segment
# sums off by > 5%, or an incomplete rack workload).
e12_flags=(--virtual-ms 300 --machines 4 --replication 2 --rack-ops 100 --no-wall)
cargo run --offline --release -q -p lastcpu-bench --bin e12_attribution -- \
    "${e12_flags[@]}" --out "$tmp/BENCH_e12_a.json" >/dev/null
cargo run --offline --release -q -p lastcpu-bench --bin e12_attribution -- \
    "${e12_flags[@]}" --out "$tmp/BENCH_e12_b.json" >/dev/null
cmp -s "$tmp/BENCH_e12_a.json" "$tmp/BENCH_e12_b.json" || {
    echo "FAIL: same-seed BENCH_e12.json runs differ"; exit 1;
}
cargo run --offline --release -q -p lastcpu-bench --bin bench_diff -- \
    "$tmp/BENCH_e12_a.json" "$tmp/BENCH_e12_b.json" | tail -1
if command -v python3 >/dev/null 2>&1; then
    python3 - "$tmp/BENCH_e12_a.json" <<'PY'
import json, sys
d = json.load(open(sys.argv[1]))
assert d["experiment"] == "e12" and d["schema_version"] == 1, d.keys()
a = d["attribution"]
assert a["attributed_alloc_fraction"] >= 0.95, a["attributed_alloc_fraction"]
assert a["total_allocs"] > 0 and a["events"] > 0, a
assert a["scopes"], "no named scopes"
assert "wall_ns" not in a, "--no-wall artifact carries wall fields"
cp = d["critical_path"]
assert cp["done"] and cp["ops"] > 0, cp
assert cp["worst_sum_error"] <= 0.05, cp["worst_sum_error"]
assert cp["dominant_p99"] in {
    "client_queue", "router_dispatch", "uplink", "spine", "downlink",
    "local_delivery", "replica_service", "ack_aggregation",
    "response_delivery"}, cp["dominant_p99"]
for row in cp["rows"]:
    total, segs = row["total_ns"], sum(row["segments"].values())
    assert total == 0 or abs(segs - total) / total < 0.05, row
print(f"    byte-identical double run; {a['attributed_alloc_fraction']:.1%} "
      f"allocations attributed, p99 dominated by {cp['dominant_p99']}")
PY
fi

echo "==> regression diff (e9 double run through bench_diff)"
# Same commit, so allocations/event must match almost exactly (they are
# deterministic); wall-clock throughput gets a relaxed 30% tolerance to
# survive noisy CI hosts. Cross-commit comparisons use the defaults
# (5% events/sec, +0.5 allocs/event) on a quiet machine.
cargo run --offline --release -q -p lastcpu-bench --bin e9_engine_throughput -- \
    --queue-ops 200000 --queue-depth 8192 --virtual-ms 100 --repeat 1 \
    --out "$tmp/BENCH_e9_again.json" >/dev/null
cargo run --offline --release -q -p lastcpu-bench --bin bench_diff -- \
    --events-tol 30 --allocs-tol 0.001 \
    "$tmp/BENCH_e9.json" "$tmp/BENCH_e9_again.json" | tail -1

echo "==> checkpoint smoke test (e14_checkpoint --no-wall, double run)"
# Reduced matrix: one seed, 4 machines at R=2, 100 ops/client. The binary
# itself hard-asserts restore byte-identity per cell and the cross-process
# restart audit (fresh process restores the crash-arm checkpoint and loses
# zero acked writes). CI adds the double-run byte-identity and a
# bench_diff pass over the pair.
e14_flags=(--seeds 3604 --machines 4 --ops 100 --keys 60 --no-wall)
cargo run --offline --release -q -p lastcpu-bench --bin e14_checkpoint -- \
    "${e14_flags[@]}" --out "$tmp/BENCH_e14_a.json" >/dev/null
cargo run --offline --release -q -p lastcpu-bench --bin e14_checkpoint -- \
    "${e14_flags[@]}" --out "$tmp/BENCH_e14_b.json" >/dev/null
cmp -s "$tmp/BENCH_e14_a.json" "$tmp/BENCH_e14_b.json" || {
    echo "FAIL: same-flag BENCH_e14.json runs differ"; exit 1;
}
cargo run --offline --release -q -p lastcpu-bench --bin bench_diff -- \
    "$tmp/BENCH_e14_a.json" "$tmp/BENCH_e14_b.json" | tail -1
if command -v python3 >/dev/null 2>&1; then
    python3 - "$tmp/BENCH_e14_a.json" <<'PY'
import json, sys
d = json.load(open(sys.argv[1]))
assert d["experiment"] == "e14" and d["schema_version"] == 2, d.keys()
cells = d["cells"]
assert cells, "no cells"
for c in cells:
    assert c["ckpt_bytes"] > 0 and c["ckpt_sections"] > 0, c
    assert c["restore_replay_events"] == c["ckpt_events"], c
    if c["crash"]:
        assert c["lost_acked_keys"] == 0, f"crash cell lost acked writes: {c}"
assert {c["crash"] for c in cells} == {False, True}, cells
assert d["cross_process_audit"]["ok"] is True, d["cross_process_audit"]
kib = cells[0]["ckpt_bytes"] / 1024
print(f"    byte-identical double run; {len(cells)} cells restored "
      f"byte-identically ({kib:.0f} KiB checkpoints); fresh-process "
      f"restart audit passed with 0 lost acked writes")
PY
fi

if [ "${CI_CRITERION:-0}" = "1" ]; then
    echo "==> criterion host-time benches (opt-in via CI_CRITERION=1)"
    cargo bench --offline -p lastcpu-bench
fi

echo "CI OK"
