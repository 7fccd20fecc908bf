//! A store-and-forward switch with per-egress-port serialization.

use std::fmt;

use lastcpu_sim::{DetHashMap, SimDuration, SimTime};

use crate::Frame;

/// A switch port identifier.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct PortId(pub u32);

impl PortId {
    /// The broadcast destination.
    pub const BROADCAST: PortId = PortId(u32::MAX);
}

/// Link timing model. Defaults approximate a 10 GbE datacenter edge:
/// 100 ps/byte line rate, 500 ns switch latency, 1 µs propagation.
#[derive(Debug, Clone, Copy)]
pub struct NetCostModel {
    /// Per-byte serialization time in picoseconds (100 ps/B = 10 Gb/s).
    pub per_byte_ps: u64,
    /// Store-and-forward latency inside the switch.
    pub switch_latency: SimDuration,
    /// Propagation delay per link.
    pub propagation: SimDuration,
}

impl Default for NetCostModel {
    fn default() -> Self {
        NetCostModel {
            per_byte_ps: 100,
            switch_latency: SimDuration::from_nanos(500),
            propagation: SimDuration::from_micros(1),
        }
    }
}

impl NetCostModel {
    /// Time to clock `bytes` onto the wire.
    pub fn serialize(&self, bytes: u64) -> SimDuration {
        SimDuration::from_nanos(bytes.saturating_mul(self.per_byte_ps) / 1000)
    }

    /// Time to clock a frame with `payload_bytes` of payload onto the wire,
    /// including the fixed [`crate::FRAME_OVERHEAD_BYTES`] header overhead —
    /// the same constant [`crate::Frame::wire_len`] reports, so cost and
    /// accounting can never drift apart.
    pub fn serialize_frame(&self, payload_bytes: u64) -> SimDuration {
        self.serialize(payload_bytes.saturating_add(crate::FRAME_OVERHEAD_BYTES))
    }
}

/// Switch counters.
#[derive(Debug, Default, Clone, Copy)]
pub struct SwitchStats {
    /// Frames forwarded (per recipient).
    pub forwarded: u64,
    /// Frames dropped (unknown destination).
    pub dropped: u64,
    /// Payload+header bytes forwarded.
    pub bytes: u64,
}

/// A switch connecting registered ports.
///
/// Each egress port serializes at line rate: a frame begins transmission at
/// `max(arrival, port_busy_until)`, so a hot destination queues — this is
/// the congestion that the isolation experiment (E3) measures.
pub struct Switch {
    ports: Vec<PortId>,
    next_port: u32,
    busy_until: DetHashMap<PortId, SimTime>,
    cost: NetCostModel,
    stats: SwitchStats,
}

impl Default for Switch {
    fn default() -> Self {
        Self::new()
    }
}

impl Switch {
    /// An empty switch with the default cost model.
    pub fn new() -> Self {
        Switch {
            ports: Vec::new(),
            next_port: 1,
            busy_until: DetHashMap::default(),
            cost: NetCostModel::default(),
            stats: SwitchStats::default(),
        }
    }

    /// Replaces the cost model.
    pub fn with_cost_model(mut self, cost: NetCostModel) -> Self {
        self.cost = cost;
        self
    }

    /// The cost model in use.
    pub fn cost_model(&self) -> &NetCostModel {
        &self.cost
    }

    /// Counters.
    pub fn stats(&self) -> SwitchStats {
        self.stats
    }

    /// Registers a new port and returns its id.
    pub fn add_port(&mut self) -> PortId {
        let p = PortId(self.next_port);
        self.next_port += 1;
        self.ports.push(p);
        p
    }

    /// Whether `p` is a registered port.
    pub fn has_port(&self, p: PortId) -> bool {
        self.ports.contains(&p)
    }

    /// Queues `wire` bytes on egress `port` (ingress serialization + switch
    /// latency already folded into `at_switch`) and returns the delivery time.
    fn egress(&mut self, at_switch: SimTime, port: PortId, wire: u64) -> SimTime {
        let tx_time = self.cost.serialize(wire);
        let start = (*self.busy_until.entry(port).or_insert(SimTime::ZERO)).max(at_switch);
        let egress_done = start + tx_time;
        self.busy_until.insert(port, egress_done);
        self.stats.forwarded += 1;
        self.stats.bytes += wire;
        egress_done + self.cost.propagation
    }

    /// Routes a unicast frame without allocating: the hot delivery path.
    ///
    /// Returns the delivery time at `frame.dst`, or `None` if the
    /// destination is unknown (dropped, counted) or the frame is a
    /// broadcast (use [`Switch::route`]).
    pub fn route_unicast(&mut self, now: SimTime, frame: &Frame) -> Option<SimTime> {
        if frame.dst == PortId::BROADCAST {
            return None;
        }
        if !self.has_port(frame.dst) {
            self.stats.dropped += 1;
            return None;
        }
        let wire = frame.wire_len();
        // Ingress serialization + switch latency, then queue on the egress
        // port, then propagation to the endpoint.
        let at_switch = now + self.cost.serialize(wire) + self.cost.switch_latency;
        Some(self.egress(at_switch, frame.dst, wire))
    }

    /// Routes a frame arriving at the switch at `now`.
    ///
    /// Returns `(recipient, deliver_at)` pairs; the caller schedules the
    /// deliveries. Unknown unicast destinations are dropped (counted).
    pub fn route(&mut self, now: SimTime, frame: &Frame) -> Vec<(PortId, SimTime)> {
        if frame.dst != PortId::BROADCAST {
            return match self.route_unicast(now, frame) {
                Some(deliver) => vec![(frame.dst, deliver)],
                None => Vec::new(),
            };
        }
        let recipients: Vec<PortId> = self
            .ports
            .iter()
            .copied()
            .filter(|&p| p != frame.src)
            .collect();
        let wire = frame.wire_len();
        let mut out = Vec::with_capacity(recipients.len());
        for port in recipients {
            let at_switch = now + self.cost.serialize(wire) + self.cost.switch_latency;
            let deliver = self.egress(at_switch, port, wire);
            out.push((port, deliver));
        }
        out
    }

    /// The time egress port `p` becomes idle (for queue-depth metrics).
    pub fn port_busy_until(&self, p: PortId) -> SimTime {
        self.busy_until.get(&p).copied().unwrap_or(SimTime::ZERO)
    }
}

impl fmt::Debug for Switch {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "Switch(ports={}, forwarded={}, dropped={})",
            self.ports.len(),
            self.stats.forwarded,
            self.stats.dropped
        )
    }
}

#[cfg(test)]
mod ordering_tests {
    use super::*;

    #[test]
    fn per_port_delivery_preserves_send_order() {
        // Frames from one source to one destination must arrive in order,
        // even with mixed sizes (store-and-forward serialization).
        let mut sw = Switch::new();
        let a = sw.add_port();
        let b = sw.add_port();
        let mut prev = SimTime::ZERO;
        for i in 0..20 {
            let len = if i % 3 == 0 { 9000 } else { 64 };
            let t = sw.route(prev, &Frame::unicast(a, b, vec![0; len]))[0].1;
            assert!(t > prev, "frame {i} delivered out of order");
            prev = t;
        }
    }
}

impl lastcpu_snap::Snapshot for Switch {
    fn snapshot(&self, w: &mut lastcpu_snap::SnapWriter) {
        w.put_u64(self.cost.per_byte_ps);
        w.put_u64(self.cost.switch_latency.as_nanos());
        w.put_u64(self.cost.propagation.as_nanos());
        w.put_u64(self.stats.forwarded);
        w.put_u64(self.stats.dropped);
        w.put_u64(self.stats.bytes);
        w.put_u32(self.next_port);
        w.put_len(self.ports.len());
        for p in &self.ports {
            w.put_u32(p.0);
        }
        let mut busy: Vec<_> = self
            .busy_until
            .iter()
            .map(|(p, t)| (p.0, t.as_nanos()))
            .collect();
        busy.sort_unstable();
        w.put_len(busy.len());
        for (p, t) in busy {
            w.put_u32(p);
            w.put_u64(t);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn frame(src: PortId, dst: PortId, len: usize) -> Frame {
        Frame::unicast(src, dst, vec![0; len])
    }

    #[test]
    fn unicast_delivers_once() {
        let mut sw = Switch::new();
        let a = sw.add_port();
        let b = sw.add_port();
        let out = sw.route(SimTime::ZERO, &frame(a, b, 100));
        assert_eq!(out.len(), 1);
        assert_eq!(out[0].0, b);
        assert!(out[0].1 > SimTime::ZERO);
    }

    #[test]
    fn unknown_destination_dropped() {
        let mut sw = Switch::new();
        let a = sw.add_port();
        let out = sw.route(SimTime::ZERO, &frame(a, PortId(999), 100));
        assert!(out.is_empty());
        assert_eq!(sw.stats().dropped, 1);
    }

    #[test]
    fn broadcast_reaches_all_but_sender() {
        let mut sw = Switch::new();
        let a = sw.add_port();
        let _b = sw.add_port();
        let _c = sw.add_port();
        let out = sw.route(SimTime::ZERO, &frame(a, PortId::BROADCAST, 10));
        assert_eq!(out.len(), 2);
        assert!(out.iter().all(|&(p, _)| p != a));
    }

    #[test]
    fn hot_egress_port_queues() {
        let mut sw = Switch::new();
        let a = sw.add_port();
        let b = sw.add_port();
        let victim = sw.add_port();
        // Two large frames from different sources to the same destination
        // arrive simultaneously: the second serializes after the first.
        let t1 = sw.route(SimTime::ZERO, &frame(a, victim, 9000))[0].1;
        let t2 = sw.route(SimTime::ZERO, &frame(b, victim, 9000))[0].1;
        assert!(t2 > t1);
        let gap = t2 - t1;
        let wire_time = sw.cost_model().serialize(9018);
        assert_eq!(gap, wire_time);
    }

    #[test]
    fn idle_ports_do_not_interfere() {
        let mut sw = Switch::new();
        let a = sw.add_port();
        let b = sw.add_port();
        let c = sw.add_port();
        let d = sw.add_port();
        let t1 = sw.route(SimTime::ZERO, &frame(a, b, 1000))[0].1;
        let t2 = sw.route(SimTime::ZERO, &frame(c, d, 1000))[0].1;
        assert_eq!(t1, t2, "different egress ports are independent");
    }

    #[test]
    fn larger_frames_take_longer() {
        let mut sw = Switch::new();
        let a = sw.add_port();
        let b = sw.add_port();
        let small = sw.route(SimTime::ZERO, &frame(a, b, 64))[0].1;
        let mut sw2 = Switch::new();
        let a2 = sw2.add_port();
        let b2 = sw2.add_port();
        let large = sw2.route(SimTime::ZERO, &frame(a2, b2, 9000))[0].1;
        assert!(large > small);
    }

    #[test]
    fn queue_drains_over_time() {
        let mut sw = Switch::new();
        let a = sw.add_port();
        let b = sw.add_port();
        sw.route(SimTime::ZERO, &frame(a, b, 9000));
        let busy = sw.port_busy_until(b);
        // A frame arriving after the port drained is not delayed by it.
        let later = busy + SimDuration::from_micros(10);
        let t = sw.route(later, &frame(a, b, 64))[0].1;
        let fresh_latency = sw.cost_model().serialize(82).saturating_mul(2)
            + sw.cost_model().switch_latency
            + sw.cost_model().propagation;
        assert_eq!(t.since(later), fresh_latency);
    }

    #[test]
    fn stats_accumulate() {
        let mut sw = Switch::new();
        let a = sw.add_port();
        let b = sw.add_port();
        sw.route(SimTime::ZERO, &frame(a, b, 100));
        sw.route(SimTime::ZERO, &frame(a, PortId::BROADCAST, 10));
        assert_eq!(sw.stats().forwarded, 2);
        assert!(sw.stats().bytes > 0);
    }
}
