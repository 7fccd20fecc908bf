//! The metric catalogue and the result line.

/// End-to-end metrics `(name, unit, better)`, reported with `--trace 0`.
/// Host metrics measure the simulator; virtual ones the modelled system.
pub const END_TO_END: [(&str, &str, &str); 4] = [
    ("setup_s", "s", "lower"),
    ("sim_ops_per_host_s", "ops/s", "higher"),
    ("peak_rss_mb", "MB", "lower"),
    ("vops_per_s", "ops/s", "higher"),
];

/// Per-layer metrics `(name, unit, better)`, reported with `--trace 1`, in
/// the order [`crate::layers::per_layer`] produces them. Counters are per
/// op of the measured window; `*.host_self_share` comes from the traced
/// window; `critpath.*` only from `rack64`.
pub const PER_LAYER: [(&str, &str, &str); 55] = [
    ("sim.events_per_op", "events/op", "lower"),
    ("sim.host_ns_per_event", "ns", "lower"),
    ("sim.allocs_per_event", "allocs/event", "lower"),
    ("sim.pool_fresh_share", "share", "lower"),
    ("kvs.client.host_ns_per_op", "ns", "lower"),
    ("kvs.server.cache_hit_ratio", "share", "higher"),
    ("kvs.server.fast_get_share", "share", "higher"),
    ("kvs.server.shed_per_op", "1/op", "lower"),
    ("devices.nic.busy_share", "share", "lower"),
    ("devices.ssd.requests_per_op", "1/op", "lower"),
    ("devices.ssd.busy_share", "share", "lower"),
    ("devices.ssd.ftl_waf", "ratio", "lower"),
    ("devices.ssd.gc_runs", "count", "lower"),
    ("iommu.translations_per_op", "1/op", "lower"),
    ("iommu.iotlb_hit_ratio", "share", "higher"),
    ("bus.messages_per_op", "1/op", "lower"),
    ("bus.rpc_retries", "count", "lower"),
    ("virtio.doorbells_per_op", "1/op", "lower"),
    ("virtio.doorbells_coalesced_share", "share", "higher"),
    ("kvs.router.failovers_per_op", "1/op", "lower"),
    ("kvs.router.busy_deferrals_per_op", "1/op", "lower"),
    ("kvs.router.late_acks_per_op", "1/op", "lower"),
    ("fabric.frames_per_op", "1/op", "lower"),
    ("fabric.bytes_per_op", "B/op", "lower"),
    ("fabric.max_link_util", "share", "lower"),
    ("sim.host_self_share", "share", "lower"),
    ("kvs.client.host_self_share", "share", "lower"),
    ("devices.nic.host_self_share", "share", "lower"),
    ("devices.ssd.host_self_share", "share", "lower"),
    ("iommu.host_self_share", "share", "lower"),
    ("kvs.router.host_self_share", "share", "lower"),
    ("fabric.host_self_share", "share", "lower"),
    ("unattributed.host_self_share", "share", "lower"),
    ("critpath.client_queue_p99_us", "us", "lower"),
    ("critpath.router_dispatch_p99_us", "us", "lower"),
    ("critpath.uplink_p99_us", "us", "lower"),
    ("critpath.spine_p99_us", "us", "lower"),
    ("critpath.downlink_p99_us", "us", "lower"),
    ("critpath.local_delivery_p99_us", "us", "lower"),
    ("critpath.replica_service_p99_us", "us", "lower"),
    ("critpath.ack_aggregation_p99_us", "us", "lower"),
    ("critpath.response_delivery_p99_us", "us", "lower"),
    ("critpath.decomposed_share", "share", "higher"),
    ("snap.checkpoint_mb", "MB", "lower"),
    ("snap.checkpoint_s", "s", "lower"),
    ("snap.restore_s", "s", "lower"),
    ("trace.overhead_share", "share", "lower"),
    ("bench.host_scale", "ratio", "higher"),
    ("bench.raw_window_s", "s", "lower"),
    ("failed_op_share", "share", "lower"),
    ("latency.samples", "count", "higher"),
    ("latency.mean_us", "us", "lower"),
    ("latency.p50_us", "us", "lower"),
    ("latency.p99_us", "us", "lower"),
    ("latency.p999_us", "us", "lower"),
];

/// The unit of catalogued metric `name`.
pub fn unit_of(name: &str) -> Option<&'static str> {
    END_TO_END
        .iter()
        .chain(PER_LAYER.iter())
        .find(|(n, _, _)| *n == name)
        .map(|&(_, u, _)| u)
}

/// Whether `name` is a valid metric name: starts with a letter or digit,
/// at most 64 characters of `[A-Za-z0-9_.-]`.
pub fn valid_name(name: &str) -> bool {
    let b = name.as_bytes();
    !b.is_empty()
        && b.len() <= 64
        && b[0].is_ascii_alphanumeric()
        && b.iter()
            .all(|&c| c.is_ascii_alphanumeric() || b"_.-".contains(&c))
}

/// The result line: one JSON object with `correct`, `attempted`, `failed`
/// and `metrics`. Fails on a non-finite value or an invalid name.
pub fn result_line(
    correct: bool,
    attempted: u64,
    failed: u64,
    metrics: &[(String, f64)],
) -> Result<String, String> {
    let mut parts = Vec::new();
    for (name, v) in metrics {
        if !valid_name(name) {
            return Err(format!("invalid metric name {name:?}"));
        }
        let unit = unit_of(name).ok_or_else(|| format!("uncatalogued metric {name}"))?;
        if !v.is_finite() {
            return Err(format!("metric {name} is not finite: {v}"));
        }
        parts.push(format!(
            "\"{name}\": {{\"value\": {v}, \"unit\": \"{unit}\"}}"
        ));
    }
    Ok(format!(
        "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{{}}}}}",
        parts.join(", ")
    ))
}

/// The catalogue as JSON, for `--list-metrics`.
pub fn catalogue_json() -> String {
    let list = |v: &[(&str, &str, &str)]| {
        v.iter()
            .map(|(n, u, b)| {
                format!("{{\"name\": \"{n}\", \"unit\": \"{u}\", \"better\": \"{b}\"}}")
            })
            .collect::<Vec<_>>()
            .join(", ")
    };
    format!(
        "{{\"end_to_end\": [{}], \"per_layer\": [{}]}}",
        list(&END_TO_END),
        list(&PER_LAYER)
    )
}
