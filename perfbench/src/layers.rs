//! Per-layer metrics: deterministic counters per op, and host self-time
//! shares from a traced window.
//!
//! The program's profiler (`lastcpu_sim::profile`) reports each scope's
//! *inclusive* wall time. Every scope is mapped to one layer by its name
//! ([`SCOPES`]) and, if it is the outermost scope of its layer, to the
//! layer it runs inside. A layer's self time is the inclusive time of its
//! outermost scopes minus that of the layers nested in it, so the shares
//! sum to 1 over the traced window. `iommu.translate` runs inside both the
//! NIC and the SSD; its time is split between them by their translation
//! counts.

use std::collections::BTreeMap;

use lastcpu_sim::critpath::SEGMENTS;
use lastcpu_sim::ProfileSnapshot;

use crate::workload::{Rep, SnapTiming, CLIENT_SCOPE, SLICE_SCOPE};

/// Layers with a host self-time share, in report order. `unattributed` is
/// window time outside every named scope (the run loops themselves).
pub const LAYERS: [&str; 8] = [
    "sim",
    "kvs.client",
    "devices.nic",
    "devices.ssd",
    "iommu",
    "kvs.router",
    "fabric",
    "unattributed",
];

/// Where a scope's time goes.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Role {
    /// The layer's outermost scope, running inside the named layer
    /// (`None` for the root: the benchmark's window slice).
    Entry(Option<&'static str>),
    /// Inside the NIC or the SSD, split by translation counts.
    EntryInDevice,
    /// Always nested in another scope of the same layer: already counted.
    Nested,
}

/// `(scope name or prefix ending in '.', layer, role)`; first match wins.
const SCOPES: &[(&str, &str, Role)] = &[
    (SLICE_SCOPE, "unattributed", Role::Entry(None)),
    ("engine.apply", "sim", Role::Nested),
    ("engine.", "sim", Role::Entry(Some("unattributed"))),
    (CLIENT_SCOPE, "kvs.client", Role::Entry(Some("sim"))),
    ("nic.", "devices.nic", Role::Entry(Some("sim"))),
    ("kvs.app.", "devices.nic", Role::Entry(Some("sim"))),
    ("kvs.server.", "devices.nic", Role::Nested),
    ("kvs.engine.", "devices.nic", Role::Nested),
    ("ssd.serve", "devices.ssd", Role::Nested),
    ("ssd.", "devices.ssd", Role::Entry(Some("sim"))),
    ("iommu.", "iommu", Role::EntryInDevice),
    ("kvs.router.", "kvs.router", Role::Entry(Some("sim"))),
    ("fabric.tunnel_out", "fabric", Role::Entry(Some("sim"))),
    ("fabric.", "fabric", Role::Entry(Some("unattributed"))),
    // Envelope codec: only runs at fault-injection and checkpoint points.
    ("bus.", "sim", Role::Nested),
];

fn role_of(scope: &str) -> Option<(&'static str, Role)> {
    SCOPES
        .iter()
        .find(|(p, _, _)| {
            if p.ends_with('.') {
                scope.starts_with(p)
            } else {
                scope == *p
            }
        })
        .map(|&(_, layer, role)| (layer, role))
}

/// Host self-time per layer of one traced window.
#[derive(Debug, Clone, Default)]
pub struct SelfTime {
    /// Self ns per layer in [`LAYERS`].
    pub self_ns: BTreeMap<&'static str, f64>,
    /// Traced window time: the inclusive time of the window slices.
    pub total_ns: f64,
    /// Profile scopes [`SCOPES`] does not know (a new scope in the
    /// program); their time stays with the layer around them.
    pub unmapped: Vec<&'static str>,
}

impl SelfTime {
    /// Attributes `prof`. `nic_share` is the NIC's fraction of the
    /// window's IOMMU translations (the rest are the SSD's).
    pub fn from_profile(prof: &ProfileSnapshot, nic_share: f64) -> SelfTime {
        let mut st = SelfTime::default();
        let mut incl: BTreeMap<&str, f64> = BTreeMap::new();
        let mut nested_in: BTreeMap<&str, f64> = BTreeMap::new();
        for s in &prof.scopes {
            let w = s.wall_ns as f64;
            match role_of(s.name) {
                None => st.unmapped.push(s.name),
                Some((_, Role::Nested)) => {}
                Some((layer, Role::Entry(parent))) => {
                    *incl.entry(layer).or_default() += w;
                    if let Some(p) = parent {
                        *nested_in.entry(p).or_default() += w;
                    }
                }
                Some((layer, Role::EntryInDevice)) => {
                    *incl.entry(layer).or_default() += w;
                    *nested_in.entry("devices.nic").or_default() += w * nic_share;
                    *nested_in.entry("devices.ssd").or_default() += w * (1.0 - nic_share);
                }
            }
            if s.name == SLICE_SCOPE {
                st.total_ns = w;
            }
        }
        for layer in LAYERS {
            let v = incl.get(layer).copied().unwrap_or(0.0)
                - nested_in.get(layer).copied().unwrap_or(0.0);
            st.self_ns.insert(layer, v);
        }
        st
    }

    /// `layer`'s share of the traced window.
    pub fn share(&self, layer: &str) -> f64 {
        ratio(
            self.self_ns.get(layer).copied().unwrap_or(0.0),
            self.total_ns,
        )
    }

    /// The layer with the largest self time (ignoring `unattributed`).
    pub fn largest(&self) -> &'static str {
        LAYERS[..LAYERS.len() - 1]
            .iter()
            .copied()
            .max_by(|a, b| self.self_ns[a].total_cmp(&self.self_ns[b]))
            .expect("layers")
    }
}

/// `num / den`, or 0 when `den` is 0.
pub fn ratio(num: f64, den: f64) -> f64 {
    if den == 0.0 {
        0.0
    } else {
        num / den
    }
}

/// Median of `v` (mean of the two middle values for an even count).
pub fn median(v: &[f64]) -> f64 {
    let mut s = v.to_vec();
    s.sort_by(f64::total_cmp);
    let n = s.len();
    if n == 0 {
        0.0
    } else if n % 2 == 1 {
        s[n / 2]
    } else {
        (s[n / 2 - 1] + s[n / 2]) / 2.0
    }
}

/// Self time per layer of `traced`'s window, splitting the IOMMU by the
/// untraced rep `r`'s translation counts.
pub fn self_time(r: &Rep, traced: &Rep) -> SelfTime {
    let c = |k: &str| r.counters.get(k).copied().unwrap_or(0) as f64;
    let nic_share = ratio(c("iommu.nic_translations"), c("iommu.translations"));
    SelfTime::from_profile(traced.profile.as_ref().expect("traced rep"), nic_share)
}

/// Name of the critical-path metric of segment `seg`.
pub fn critpath_metric(seg: &str) -> String {
    format!("critpath.{seg}_p99_us")
}

/// Every per-layer metric, `(name, value)`, from the untraced reps
/// of a run and its traced rep.
pub fn per_layer(reps: &[Rep], traced: &Rep) -> Vec<(String, f64)> {
    let r = &reps[0];
    let c = |k: &str| r.counters.get(k).copied().unwrap_or(0) as f64;
    let ops = r.ops() as f64;
    let per_op = |k: &str| ratio(c(k), ops);
    // Busy shares are per device: the window times the machine count.
    let window_ns = r.window_virtual_s * 1e9 * r.machines as f64;
    let st = self_time(r, traced);
    let host_ns_per_event: Vec<f64> = reps
        .iter()
        .map(|r| ratio(r.window_host_s * 1e9, r.events as f64))
        .collect();
    let allocs_per_event: Vec<f64> = reps
        .iter()
        .map(|r| ratio(r.allocs as f64, r.events as f64))
        .collect();
    let untraced_window = median(&reps.iter().map(|r| r.window_host_s).collect::<Vec<_>>());
    let client_ns = traced
        .profile
        .as_ref()
        .and_then(|p| p.scopes.iter().find(|s| s.name == CLIENT_SCOPE))
        .map_or(0.0, |s| s.wall_ns as f64 * traced.host_scale);

    let mut m: Vec<(String, f64)> = Vec::new();
    let mut put = |name: &str, v: f64| m.push((name.to_string(), v));
    put("sim.events_per_op", ratio(r.events as f64, ops));
    put("sim.host_ns_per_event", median(&host_ns_per_event));
    put("sim.allocs_per_event", median(&allocs_per_event));
    put(
        "sim.pool_fresh_share",
        ratio(c("pool.fresh"), c("pool.taken")),
    );
    put(
        "kvs.client.host_ns_per_op",
        ratio(client_ns, traced.ops() as f64),
    );
    put(
        "kvs.server.cache_hit_ratio",
        ratio(c("server.cache_hits"), c("server.gets")),
    );
    put(
        "kvs.server.fast_get_share",
        ratio(c("server.fast_gets"), c("server.gets")),
    );
    put("kvs.server.shed_per_op", per_op("server.shed"));
    put(
        "devices.nic.busy_share",
        ratio(c("nic.handler_ns"), window_ns),
    );
    put("devices.ssd.requests_per_op", per_op("ssd.requests"));
    put(
        "devices.ssd.busy_share",
        ratio(c("ssd.handler_ns"), window_ns),
    );
    put(
        "devices.ssd.ftl_waf",
        ratio(c("ftl.nand_writes"), c("ftl.host_writes")),
    );
    put("devices.ssd.gc_runs", c("ftl.gc_runs"));
    put("iommu.translations_per_op", per_op("iommu.translations"));
    put(
        "iommu.iotlb_hit_ratio",
        ratio(c("iotlb.hits"), c("iotlb.lookups")),
    );
    put("bus.messages_per_op", per_op("bus.messages"));
    put("bus.rpc_retries", c("bus.rpc_retries"));
    put("virtio.doorbells_per_op", per_op("virtio.doorbells"));
    put(
        "virtio.doorbells_coalesced_share",
        ratio(c("virtio.doorbells_coalesced"), c("virtio.doorbells")),
    );
    put("kvs.router.failovers_per_op", per_op("router.failovers"));
    put(
        "kvs.router.busy_deferrals_per_op",
        per_op("router.busy_deferrals"),
    );
    put("kvs.router.late_acks_per_op", per_op("router.late_acks"));
    put("fabric.frames_per_op", per_op("fabric.frames"));
    put("fabric.bytes_per_op", per_op("fabric.bytes"));
    put("fabric.max_link_util", r.max_link_util);
    for layer in LAYERS {
        put(&format!("{layer}.host_self_share"), st.share(layer));
    }
    let cp = traced.critpath.as_ref();
    let p99 = cp.and_then(|cp| cp.row(99.0));
    for (i, seg) in SEGMENTS.iter().enumerate() {
        put(
            &critpath_metric(seg),
            p99.map_or(0.0, |row| row.segments[i] / 1e3),
        );
    }
    put(
        "critpath.decomposed_share",
        cp.map_or(0.0, |cp| {
            ratio(
                cp.ops.len() as f64,
                (cp.ops.len() as u64 + cp.incomplete) as f64,
            )
        }),
    );
    put(
        "snap.checkpoint_mb",
        r.snap.map_or(0.0, |s| s.bytes as f64 / 1e6),
    );
    let snap_med = |f: fn(&SnapTiming) -> f64| {
        median(
            &reps
                .iter()
                .filter_map(|r| r.snap.as_ref().map(f))
                .collect::<Vec<_>>(),
        )
    };
    put("snap.checkpoint_s", snap_med(|s| s.checkpoint_s));
    put("snap.restore_s", snap_med(|s| s.restore_s));
    put(
        "trace.overhead_share",
        ratio(traced.window_host_s - untraced_window, untraced_window),
    );
    put(
        "bench.host_scale",
        median(&reps.iter().map(|r| r.host_scale).collect::<Vec<_>>()),
    );
    put(
        "bench.raw_window_s",
        median(&reps.iter().map(|r| r.window_raw_s).collect::<Vec<_>>()),
    );
    put("failed_op_share", ratio(r.failed() as f64, ops));
    put("latency.samples", r.latency.count() as f64);
    let lat = &r.latency;
    put(
        "latency.mean_us",
        ratio(lat.sum() as f64, lat.count() as f64) / 1e3,
    );
    for (name, p) in [
        ("latency.p50_us", 50.0),
        ("latency.p99_us", 99.0),
        ("latency.p999_us", 99.9),
    ] {
        put(name, lat.percentile(p).as_nanos() as f64 / 1e3);
    }
    m
}
