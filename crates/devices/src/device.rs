//! The device actor model.
//!
//! A device is a mailbox-driven actor. The simulator (in `lastcpu-core`)
//! calls the [`Device`] hooks with a [`DeviceCtx`] that (a) exposes the only
//! capabilities a device legitimately has, and (b) accounts the virtual time
//! the handler consumes, so outgoing effects are timestamped after the work
//! that produced them.
//!
//! Data-plane accesses are synchronous in *state* (the bytes move now, so
//! the next event observes them) but asynchronous in *time* (their cost
//! accumulates in the context and delays everything the handler emits).
//! This is the standard discrete-event compromise and keeps device code
//! straight-line instead of a continuation swamp.

use lastcpu_bus::{ConnId, DeviceId, Dst, Envelope, Payload, RequestId};
use lastcpu_iommu::{AccessKind, Iommu, IommuFault};
use lastcpu_mem::{Dram, Pasid, VirtAddr};
use lastcpu_net::{Frame, PortId};
use lastcpu_sim::{BufPool, Bytes, CorrId, DetRng, MetricsHub, SimDuration, SimTime};
use lastcpu_virtio::{MemFault, QueueMemory};

/// An outgoing effect queued by a device handler.
///
/// Effects are applied by the simulator *after* the handler returns, at
/// `now + elapsed` where `elapsed` is the compute/DMA time the handler
/// accumulated.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Action {
    /// Send a control-plane message (via the system bus).
    SendBus(Envelope),
    /// Send a doorbell over the *data plane* — modelled after MSI: a memory
    /// write to a special address, far cheaper than a bus message (§2.3
    /// "Notifications").
    Doorbell {
        /// Receiving device.
        to: DeviceId,
        /// Connection the doorbell belongs to.
        conn: ConnId,
        /// Implementation-defined value.
        value: u64,
    },
    /// Arm a timer; [`Device::on_timer`] fires with `token` after `delay`.
    SetTimer {
        /// Delay from the effect's application time.
        delay: SimDuration,
        /// Opaque token returned to the device.
        token: u64,
    },
    /// Transmit a network frame (smart NICs only — the simulator ignores it
    /// for devices without a port).
    NetTx(Frame),
    /// Emit a trace record.
    Trace(String),
    /// Emit a critical-path stage mark (see `lastcpu_sim::critpath`).
    Stage {
        /// Milestone label (`server.recv`, `server.done`, …).
        stage: &'static str,
        /// Primary join key.
        id: u64,
        /// Secondary disambiguator.
        aux: u64,
    },
    /// The device declares itself failed (self-detected fatal error). The
    /// simulator tells the bus, which fences and broadcasts (§4).
    Halt {
        /// Why the device died.
        reason: String,
    },
}

/// The execution context of one handler invocation.
pub struct DeviceCtx<'a> {
    /// Virtual time the handler started.
    pub now: SimTime,
    /// The device's bus address.
    pub dev: DeviceId,
    /// The device's network port, if it has one.
    pub port: Option<PortId>,
    /// Correlation id of the activity this handler belongs to. The simulator
    /// sets it from the triggering event (envelope, timer, frame) and every
    /// outgoing envelope is stamped with it, so causality survives hops.
    pub corr: CorrId,
    /// The system-wide metrics hub. Device firmware registers its own
    /// counters/histograms here (keyed `subsystem.device.metric`); handles
    /// obtained once are plain `Cell` writes on the hot path.
    pub stats: &'a MetricsHub,
    /// Whether the system's trace sink is collecting. Devices use this to
    /// skip building [`Action::Trace`] / [`Action::Stage`] payloads on hot
    /// paths when nothing would record them.
    pub tracing: bool,
    iommu: &'a mut Iommu,
    dram: &'a mut Dram,
    rng: &'a mut DetRng,
    next_req: &'a mut u64,
    pool: Option<&'a BufPool>,
    /// Accumulated handler cost.
    elapsed: SimDuration,
    /// Queued effects.
    actions: Vec<Action>,
    /// Faults raised by DMA during this handler (for stats; the handler
    /// also sees each fault as an `Err` return).
    faults: Vec<IommuFault>,
}

impl<'a> DeviceCtx<'a> {
    /// Creates a context. Called by the simulator only.
    #[allow(clippy::too_many_arguments)] // Wiring constructor for the simulator.
    pub fn new(
        now: SimTime,
        dev: DeviceId,
        port: Option<PortId>,
        iommu: &'a mut Iommu,
        dram: &'a mut Dram,
        rng: &'a mut DetRng,
        next_req: &'a mut u64,
        corr: CorrId,
        stats: &'a MetricsHub,
    ) -> Self {
        DeviceCtx {
            now,
            dev,
            port,
            corr,
            stats,
            tracing: false,
            iommu,
            dram,
            rng,
            next_req,
            pool: None,
            elapsed: SimDuration::ZERO,
            actions: Vec::new(),
            faults: Vec::new(),
        }
    }

    /// Marks the context as tracing-enabled (the simulator sets this from
    /// the trace sink's state before each callback).
    pub fn with_tracing(mut self, on: bool) -> Self {
        self.tracing = on;
        self
    }

    /// Attaches the machine's payload-buffer pool (simulator only).
    pub fn with_pool(mut self, pool: &'a BufPool) -> Self {
        self.pool = Some(pool);
        self
    }

    /// Seeds the action/fault buffers with reusable scratch `Vec`s
    /// (simulator only; the simulator stores the `Vec`s back after
    /// draining them, so the per-handler allocations disappear).
    pub fn with_scratch(mut self, actions: Vec<Action>, faults: Vec<IommuFault>) -> Self {
        debug_assert!(actions.is_empty() && faults.is_empty());
        self.actions = actions;
        self.faults = faults;
        self
    }

    /// An empty payload buffer, drawn from the machine's pool when one is
    /// attached. Encode into it and hand it to [`DeviceCtx::net_tx`] (via
    /// [`Frame::unicast`]); the storage recycles when the frame is consumed
    /// at the receiver.
    pub fn take_buf(&self) -> Bytes {
        match self.pool {
            Some(p) => p.take(),
            None => Bytes::new(),
        }
    }

    /// A payload buffer initialized with a copy of `src` (pooled when a
    /// pool is attached).
    pub fn take_buf_copy(&self, src: &[u8]) -> Bytes {
        match self.pool {
            Some(p) => p.take_copy(src),
            None => src.into(),
        }
    }

    /// Consumes the context, returning queued actions, accumulated cost and
    /// faults. Called by the simulator only.
    pub fn finish(self) -> (Vec<Action>, SimDuration, Vec<IommuFault>) {
        (self.actions, self.elapsed, self.faults)
    }

    /// The device's deterministic RNG.
    pub fn rng(&mut self) -> &mut DetRng {
        self.rng
    }

    /// Time accumulated so far in this handler.
    pub fn elapsed(&self) -> SimDuration {
        self.elapsed
    }

    /// Charges `d` of device compute time (firmware work, hash lookups...).
    pub fn busy(&mut self, d: SimDuration) {
        self.elapsed += d;
    }

    /// Allocates a fresh request id for an outgoing request.
    pub fn next_request_id(&mut self) -> RequestId {
        let r = RequestId(*self.next_req);
        *self.next_req += 1;
        r
    }

    /// Queues a control-plane message with a fresh request id, returning it.
    pub fn send_bus(&mut self, dst: Dst, payload: Payload) -> RequestId {
        let req = self.next_request_id();
        self.send_bus_with_req(dst, req, payload);
        req
    }

    /// Queues a control-plane message echoing an existing request id
    /// (responses).
    pub fn send_bus_with_req(&mut self, dst: Dst, req: RequestId, payload: Payload) {
        self.actions.push(Action::SendBus(Envelope {
            src: self.dev,
            dst,
            req,
            corr: self.corr,
            payload,
        }));
    }

    /// Queues a data-plane doorbell.
    pub fn doorbell(&mut self, to: DeviceId, conn: ConnId, value: u64) {
        self.actions.push(Action::Doorbell { to, conn, value });
    }

    /// Arms a timer.
    pub fn set_timer(&mut self, delay: SimDuration, token: u64) {
        self.actions.push(Action::SetTimer { delay, token });
    }

    /// Queues a network transmission.
    pub fn net_tx(&mut self, frame: Frame) {
        self.actions.push(Action::NetTx(frame));
    }

    /// Emits a trace record.
    pub fn trace(&mut self, what: impl Into<String>) {
        self.actions.push(Action::Trace(what.into()));
    }

    /// Emits a critical-path stage mark. A no-op while the trace sink is
    /// disabled, so per-operation marks cost performance runs nothing.
    #[inline]
    pub fn stage(&mut self, stage: &'static str, id: u64, aux: u64) {
        if self.tracing {
            self.actions.push(Action::Stage { stage, id, aux });
        }
    }

    /// Declares the device failed.
    pub fn halt(&mut self, reason: impl Into<String>) {
        self.actions.push(Action::Halt {
            reason: reason.into(),
        });
    }

    /// DMA-reads `buf.len()` bytes at `va` in address space `pasid`.
    ///
    /// Charges translation plus DRAM access time. On a fault, the fault is
    /// recorded (it will also be counted by the simulator) and returned.
    pub fn dma_read(
        &mut self,
        pasid: Pasid,
        va: VirtAddr,
        buf: &mut [u8],
    ) -> Result<(), IommuFault> {
        self.dma(
            pasid,
            va,
            buf.len() as u64,
            AccessKind::Read,
            |dram, pa, off, chunk, buf| dram.read(pa, &mut buf[off..off + chunk]).map(|_| ()),
            buf,
        )
    }

    /// DMA-writes `data` at `va` in address space `pasid`.
    pub fn dma_write(&mut self, pasid: Pasid, va: VirtAddr, data: &[u8]) -> Result<(), IommuFault> {
        // The closure-based helper needs a mutable buffer; clone-free path:
        let mut remaining = data;
        let mut cur = va;
        while !remaining.is_empty() {
            let in_page = (lastcpu_mem::PAGE_SIZE - cur.page_offset()) as usize;
            let chunk = in_page.min(remaining.len());
            let t = match self.iommu.translate(pasid, cur, AccessKind::Write) {
                Ok(t) => t,
                Err(f) => {
                    // A faulting access still paid for the lookup and walk.
                    let cm = self.iommu.cost_model();
                    self.elapsed += cm.tlb_lookup + cm.walk_per_access.saturating_mul(4);
                    self.faults.push(f);
                    return Err(f);
                }
            };
            self.elapsed += t.cost;
            self.elapsed += self.dram.access_time(chunk as u64);
            self.dram
                .write(t.pa, &remaining[..chunk])
                .expect("translated address within DRAM");
            remaining = &remaining[chunk..];
            cur = cur + chunk as u64;
        }
        Ok(())
    }

    fn dma(
        &mut self,
        pasid: Pasid,
        va: VirtAddr,
        len: u64,
        access: AccessKind,
        op: impl Fn(
            &mut Dram,
            lastcpu_mem::PhysAddr,
            usize,
            usize,
            &mut [u8],
        ) -> Result<(), lastcpu_mem::DramError>,
        buf: &mut [u8],
    ) -> Result<(), IommuFault> {
        let mut off = 0usize;
        let mut cur = va;
        while off < len as usize {
            let in_page = (lastcpu_mem::PAGE_SIZE - cur.page_offset()) as usize;
            let chunk = in_page.min(len as usize - off);
            let t = match self.iommu.translate(pasid, cur, access) {
                Ok(t) => t,
                Err(f) => {
                    // A faulting access still paid for the lookup and walk.
                    let cm = self.iommu.cost_model();
                    self.elapsed += cm.tlb_lookup + cm.walk_per_access.saturating_mul(4);
                    self.faults.push(f);
                    return Err(f);
                }
            };
            self.elapsed += t.cost;
            self.elapsed += self.dram.access_time(chunk as u64);
            op(self.dram, t.pa, off, chunk, buf).expect("translated address within DRAM");
            off += chunk;
            cur = cur + chunk as u64;
        }
        Ok(())
    }

    /// A [`QueueMemory`] view of one address space, for virtqueue endpoints.
    pub fn dma_view(&mut self, pasid: Pasid) -> DmaView<'a, '_> {
        DmaView { ctx: self, pasid }
    }
}

/// [`QueueMemory`] implementation backed by IOMMU-translated DMA.
pub struct DmaView<'a, 'b> {
    ctx: &'b mut DeviceCtx<'a>,
    pasid: Pasid,
}

impl QueueMemory for DmaView<'_, '_> {
    fn read(&mut self, va: u64, buf: &mut [u8]) -> Result<(), MemFault> {
        self.ctx
            .dma_read(self.pasid, VirtAddr::new(va), buf)
            .map_err(|f| MemFault {
                va: f.va.as_u64(),
                write: false,
            })
    }

    fn write(&mut self, va: u64, buf: &[u8]) -> Result<(), MemFault> {
        self.ctx
            .dma_write(self.pasid, VirtAddr::new(va), buf)
            .map_err(|f| MemFault {
                va: f.va.as_u64(),
                write: true,
            })
    }
}

/// A self-managing device.
///
/// All hooks receive a fresh [`DeviceCtx`]; state persists in `self`.
///
/// The `Any` supertrait lets the simulator hand back typed references to
/// devices for inspection in tests and experiments.
pub trait Device: std::any::Any {
    /// Short stable name, e.g. `"nic0"`.
    fn name(&self) -> &str;

    /// Device kind, e.g. `"smart-ssd"`.
    fn kind(&self) -> &str;

    /// Called once when the system powers on: run self-test, send `Hello`,
    /// announce services, start applications (§2.2 "System
    /// Initialization").
    fn on_start(&mut self, ctx: &mut DeviceCtx<'_>);

    /// A control-plane message (or doorbell) arrived.
    fn on_message(&mut self, ctx: &mut DeviceCtx<'_>, env: Envelope);

    /// A timer armed with [`DeviceCtx::set_timer`] fired.
    fn on_timer(&mut self, ctx: &mut DeviceCtx<'_>, token: u64);

    /// A network frame arrived on the device's port (NICs only).
    fn on_net(&mut self, _ctx: &mut DeviceCtx<'_>, _frame: Frame) {}

    /// The device's IOMMU delivered a fault from an earlier DMA (§4 "Error
    /// Handling": each device handles its own faults).
    fn on_fault(&mut self, _ctx: &mut DeviceCtx<'_>, _fault: IommuFault) {}

    /// The bus pulsed the reset line. The device must drop all state and
    /// re-introduce itself (`Hello`) if it recovers.
    fn on_reset(&mut self, _ctx: &mut DeviceCtx<'_>) {}

    /// Serializes the device's durable state into a checkpoint section
    /// body. The default fails loudly: a device type either implements
    /// this or cannot appear in a checkpointed machine — silently
    /// skipping state would make restore verification meaningless.
    fn snapshot_state(&self, _w: &mut lastcpu_snap::SnapWriter) -> lastcpu_snap::Result<()> {
        Err(lastcpu_snap::SnapError::Unsupported(format!(
            "device {:?} (kind {:?})",
            self.name(),
            self.kind()
        )))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use lastcpu_mem::{Perms, PhysAddr};

    fn fixture() -> (Iommu, Dram, DetRng, u64) {
        let mut iommu = Iommu::new(16);
        iommu.bind_pasid(Pasid(1));
        iommu
            .map(
                Pasid(1),
                VirtAddr::new(0x1000),
                PhysAddr::new(0x4000),
                Perms::RW,
            )
            .unwrap();
        iommu
            .map(
                Pasid(1),
                VirtAddr::new(0x2000),
                PhysAddr::new(0x5000),
                Perms::RW,
            )
            .unwrap();
        (iommu, Dram::new(1 << 20), DetRng::new(1), 0)
    }

    #[test]
    fn dma_round_trip_and_cost() {
        let (mut iommu, mut dram, mut rng, mut req) = fixture();
        let hub = MetricsHub::new();
        let mut ctx = DeviceCtx::new(
            SimTime::ZERO,
            DeviceId(1),
            None,
            &mut iommu,
            &mut dram,
            &mut rng,
            &mut req,
            CorrId::NONE,
            &hub,
        );
        ctx.dma_write(Pasid(1), VirtAddr::new(0x1ff0), b"span across pages!")
            .unwrap();
        let mut back = [0u8; 18];
        ctx.dma_read(Pasid(1), VirtAddr::new(0x1ff0), &mut back)
            .unwrap();
        assert_eq!(&back, b"span across pages!");
        assert!(ctx.elapsed() > SimDuration::ZERO);
        let (actions, cost, faults) = ctx.finish();
        assert!(actions.is_empty());
        assert!(cost > SimDuration::ZERO);
        assert!(faults.is_empty());
    }

    #[test]
    fn dma_fault_is_returned_and_recorded() {
        let (mut iommu, mut dram, mut rng, mut req) = fixture();
        let hub = MetricsHub::new();
        let mut ctx = DeviceCtx::new(
            SimTime::ZERO,
            DeviceId(1),
            None,
            &mut iommu,
            &mut dram,
            &mut rng,
            &mut req,
            CorrId::NONE,
            &hub,
        );
        let mut buf = [0u8; 4];
        let err = ctx
            .dma_read(Pasid(1), VirtAddr::new(0x9000), &mut buf)
            .unwrap_err();
        assert_eq!(err.va, VirtAddr::new(0x9000));
        let (_, _, faults) = ctx.finish();
        assert_eq!(faults.len(), 1);
    }

    #[test]
    fn request_ids_are_unique_and_persistent() {
        let (mut iommu, mut dram, mut rng, mut req) = fixture();
        let hub = MetricsHub::new();
        {
            let mut ctx = DeviceCtx::new(
                SimTime::ZERO,
                DeviceId(1),
                None,
                &mut iommu,
                &mut dram,
                &mut rng,
                &mut req,
                CorrId::NONE,
                &hub,
            );
            assert_eq!(ctx.send_bus(Dst::Bus, Payload::Heartbeat), RequestId(0));
            assert_eq!(ctx.send_bus(Dst::Bus, Payload::Heartbeat), RequestId(1));
        }
        // A later handler continues the sequence.
        let mut ctx = DeviceCtx::new(
            SimTime::ZERO,
            DeviceId(1),
            None,
            &mut iommu,
            &mut dram,
            &mut rng,
            &mut req,
            CorrId::NONE,
            &hub,
        );
        assert_eq!(ctx.next_request_id(), RequestId(2));
    }

    #[test]
    fn actions_queue_in_order() {
        let (mut iommu, mut dram, mut rng, mut req) = fixture();
        let hub = MetricsHub::new();
        let mut ctx = DeviceCtx::new(
            SimTime::ZERO,
            DeviceId(1),
            Some(PortId(4)),
            &mut iommu,
            &mut dram,
            &mut rng,
            &mut req,
            CorrId::NONE,
            &hub,
        );
        ctx.set_timer(SimDuration::from_micros(5), 42);
        ctx.doorbell(DeviceId(2), ConnId(7), 1);
        ctx.trace("hello");
        ctx.halt("test");
        let (actions, _, _) = ctx.finish();
        assert!(matches!(actions[0], Action::SetTimer { token: 42, .. }));
        assert!(matches!(actions[1], Action::Doorbell { value: 1, .. }));
        assert!(matches!(actions[2], Action::Trace(_)));
        assert!(matches!(actions[3], Action::Halt { .. }));
    }

    #[test]
    fn dma_view_implements_queue_memory() {
        let (mut iommu, mut dram, mut rng, mut req) = fixture();
        let hub = MetricsHub::new();
        let mut ctx = DeviceCtx::new(
            SimTime::ZERO,
            DeviceId(1),
            None,
            &mut iommu,
            &mut dram,
            &mut rng,
            &mut req,
            CorrId::NONE,
            &hub,
        );
        let mut view = ctx.dma_view(Pasid(1));
        view.write(0x1000, b"via view").unwrap();
        let mut b = [0u8; 8];
        view.read(0x1000, &mut b).unwrap();
        assert_eq!(&b, b"via view");
        // Faults map to MemFault with the right direction.
        assert_eq!(
            view.write(0x9000, b"x"),
            Err(MemFault {
                va: 0x9000,
                write: true
            })
        );
    }

    #[test]
    fn busy_accumulates() {
        let (mut iommu, mut dram, mut rng, mut req) = fixture();
        let hub = MetricsHub::new();
        let mut ctx = DeviceCtx::new(
            SimTime::ZERO,
            DeviceId(1),
            None,
            &mut iommu,
            &mut dram,
            &mut rng,
            &mut req,
            CorrId::NONE,
            &hub,
        );
        ctx.busy(SimDuration::from_nanos(100));
        ctx.busy(SimDuration::from_nanos(50));
        assert_eq!(ctx.elapsed(), SimDuration::from_nanos(150));
    }
}
