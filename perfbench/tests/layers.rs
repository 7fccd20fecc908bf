//! Each layer's counters are non-zero on the workload meant to exercise
//! it, the traced shares add up, and the metric catalogue matches what the
//! benchmark reports. Run with `cargo test --release` in `perfbench/`.

use lastcpu_perfbench::layers::{per_layer, SelfTime, LAYERS};
use lastcpu_perfbench::report::{valid_name, END_TO_END, PER_LAYER};
use lastcpu_perfbench::workload::{run_rep, Rep, Scale, Workload};
use lastcpu_sim::SimDuration;

/// Small sizes: seconds per workload in a release build.
const SMALL: Scale = Scale {
    hot_window: SimDuration::from_millis(50),
    cold_window: SimDuration::from_millis(500),
    cold_keys: 500,
    rack_machines: 8,
    rack_ops: 100,
};

fn rep(w: Workload, scale: &Scale, traced: bool) -> Rep {
    let r = run_rep(w, scale, 0, traced).expect("rep runs");
    assert!(r.failures.is_empty(), "{}: {:?}", w.name(), r.failures);
    r
}

/// Client-counted failures of every phase: timeouts, errors,
/// `Unavailable` and `Busy` answers.
fn client_failures(r: &Rep) -> u64 {
    let c = &r.counters;
    c["client.timeouts"] + c["client.errors"] + c["client.unavailable"] + c["client.busy"]
}

fn metric(m: &[(String, f64)], name: &str) -> f64 {
    m.iter()
        .find(|(n, _)| n == name)
        .unwrap_or_else(|| panic!("{name} missing"))
        .1
}

#[test]
fn catalogue_names_are_valid_and_unique() {
    let mut names: Vec<&str> = END_TO_END
        .iter()
        .chain(PER_LAYER.iter())
        .map(|m| m.0)
        .collect();
    for n in &names {
        assert!(valid_name(n), "{n}");
    }
    assert!(!valid_name("_x") && !valid_name("a b") && !valid_name(&"x".repeat(65)));
    names.sort();
    let before = names.len();
    names.dedup();
    assert_eq!(before, names.len(), "duplicate metric names");
}

#[test]
fn kvs_hot_exercises_the_cache_fast_path() {
    let r = rep(Workload::KvsHot, &SMALL, false);
    let c = &r.counters;
    assert!(c["server.cache_hits"] > 0 && c["server.fast_gets"] > 0);
    assert!(c["bus.messages"] > 0 && c["nic.handler_ns"] > 0);
    assert!(
        !c.contains_key("router.requests"),
        "no router on one machine"
    );
    assert!(r.snap.is_none(), "only kvs-cold checkpoints");
    // Every client is measuring for the whole window, so the window's
    // failures are exactly what the clients counted in it.
    assert_eq!(r.failed(), client_failures(&r));
}

#[test]
fn kvs_cold_exercises_storage_iommu_virtio_and_gc() {
    // Full size: garbage collection needs the preload to fill the flash.
    let r = rep(Workload::KvsCold, &Scale::FULL, false);
    let c = &r.counters;
    assert_eq!(c["server.fast_gets"], 0, "no cache, no fast path");
    for k in [
        "ssd.requests",
        "ftl.host_writes",
        "ftl.gc_runs",
        "iommu.translations",
        "iotlb.hits",
        "virtio.doorbells",
        "ssd.handler_ns",
    ] {
        assert!(c[k] > 0, "{k} is 0");
    }
    assert!(r.latency.count() >= 25_000, "{} samples", r.latency.count());
    assert!(
        r.snap.unwrap().bytes > 0,
        "the restore verified, so a checkpoint exists"
    );
}

#[test]
fn rack_exercises_router_fabric_and_critical_path() {
    let untraced = rep(Workload::Rack64, &SMALL, false);
    let traced = rep(Workload::Rack64, &SMALL, true);
    assert_eq!(
        untraced.digest, traced.digest,
        "tracing changed virtual outputs"
    );
    let c = &untraced.counters;
    for k in [
        "router.requests",
        "fabric.frames",
        "fabric.bytes",
        "ssd.requests",
    ] {
        assert!(c[k] > 0, "{k} is 0");
    }
    assert!(untraced.max_link_util > 0.0);
    // Clients still preloading when the window opens add to the client
    // counters but not to the window's failures.
    assert!(untraced.failed() <= client_failures(&untraced));
    assert_eq!(untraced.failed(), untraced.ops() - untraced.latency.count());
    let cp = traced.critpath.as_ref().expect("critical path");
    assert!(!cp.ops.is_empty());

    let reps = [untraced];
    let m = per_layer(&reps, &traced);
    let names: Vec<&str> = m.iter().map(|(n, _)| n.as_str()).collect();
    let want: Vec<&str> = PER_LAYER.iter().map(|p| p.0).collect();
    assert_eq!(names, want, "per_layer order must match the catalogue");
    for k in [
        "kvs.router.host_self_share",
        "fabric.host_self_share",
        "kvs.client.host_self_share",
    ] {
        assert!(metric(&m, k) > 0.0, "{k} is 0");
    }
    assert!(metric(&m, "critpath.decomposed_share") > 0.5);
}

#[test]
fn traced_self_time_shares_sum_to_one() {
    let traced = rep(Workload::KvsHot, &SMALL, true);
    let st = SelfTime::from_profile(traced.profile.as_ref().unwrap(), 0.5);
    assert!(st.unmapped.is_empty(), "unmapped scopes {:?}", st.unmapped);
    let sum: f64 = LAYERS.iter().map(|l| st.share(l)).sum();
    assert!((sum - 1.0).abs() < 1e-9, "shares sum to {sum}");
    assert!(st.share("sim") > 0.0 && st.share("kvs.client") > 0.0 && st.share("devices.nic") > 0.0);
}
