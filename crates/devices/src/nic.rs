//! The smart NIC: a programmable network device hosting offloaded
//! applications.
//!
//! §3 of the paper: "all application logic would be compiled to run on the
//! smartNIC. The development environment for the smartNIC would include a
//! library that encapsulates the functionality of the system bus". Here
//! the hosted application implements [`NicApp`]; the "library" it links
//! against is the [`Monitor`] the NIC passes in through [`NicEnv`].
//!
//! The NIC itself handles device lifecycle (self-test, `Hello`, heartbeats,
//! reset) and forwards everything else: network frames, monitor events,
//! timers and IOMMU faults go to the application. A loader-style
//! `install()` hook swaps the application image, modelling the firmware
//! update path.

use lastcpu_bus::Envelope;
use lastcpu_iommu::IommuFault;
use lastcpu_net::Frame;
use lastcpu_sim::SimDuration;

use crate::device::{Device, DeviceCtx};
use crate::monitor::{Monitor, MonitorEvent};

/// Environment handed to the hosted application: the execution context and
/// the device's monitor (the paper's device-side OS library).
pub struct NicEnv<'a, 'b> {
    /// The handler execution context.
    pub ctx: &'a mut DeviceCtx<'b>,
    /// The NIC's resource monitor / libos.
    pub monitor: &'a mut Monitor,
}

/// An application offloaded onto a smart NIC.
pub trait NicApp {
    /// Application name (for traces).
    fn app_name(&self) -> &str;

    /// Called once the NIC is registered on the bus.
    fn on_start(&mut self, env: &mut NicEnv<'_, '_>);

    /// A network frame arrived on the NIC's port.
    fn on_net(&mut self, env: &mut NicEnv<'_, '_>, frame: Frame);

    /// A monitor event (discovery result, open completion, doorbell, ...).
    fn on_event(&mut self, env: &mut NicEnv<'_, '_>, ev: MonitorEvent);

    /// An application timer fired (tokens without the monitor's top bit).
    fn on_timer(&mut self, _env: &mut NicEnv<'_, '_>, _token: u64) {}

    /// The NIC's IOMMU delivered a fault attributable to this app's DMA.
    fn on_fault(&mut self, _env: &mut NicEnv<'_, '_>, _fault: IommuFault) {}

    /// The device was reset; drop all state.
    fn on_reset(&mut self) {}

    /// Serializes the application's durable state for a machine
    /// checkpoint (the NIC body embeds it in its own section). Loud
    /// default, mirroring [`Device::snapshot_state`].
    fn snapshot_state(&self, _w: &mut lastcpu_snap::SnapWriter) -> lastcpu_snap::Result<()> {
        Err(lastcpu_snap::SnapError::Unsupported(format!(
            "nic app {:?}",
            self.app_name()
        )))
    }
}

/// A smart NIC hosting application `A`.
pub struct SmartNic<A> {
    name: String,
    monitor: Monitor,
    app: A,
    app_started: bool,
    /// Firmware image version (bumped by [`SmartNic::install`]).
    app_version: u32,
}

impl<A: NicApp + 'static> SmartNic<A> {
    /// Creates a NIC hosting `app`.
    pub fn new(name: &str, app: A) -> Self {
        SmartNic {
            name: name.to_string(),
            monitor: Monitor::new(),
            app,
            app_started: false,
            app_version: 1,
        }
    }

    /// The hosted application.
    pub fn app(&self) -> &A {
        &self.app
    }

    /// The hosted application, mutably.
    pub fn app_mut(&mut self) -> &mut A {
        &mut self.app
    }

    /// The NIC's monitor (inspection).
    pub fn monitor(&self) -> &Monitor {
        &self.monitor
    }

    /// Current application image version.
    pub fn app_version(&self) -> u32 {
        self.app_version
    }

    /// Installs a new application image (the loader path): replaces the
    /// app, bumps the version and restarts it.
    pub fn install(&mut self, ctx: &mut DeviceCtx<'_>, app: A) {
        self.app = app;
        self.app_version += 1;
        ctx.busy(SimDuration::from_millis(1)); // image flash + restart
        let mut env = NicEnv {
            ctx,
            monitor: &mut self.monitor,
        };
        self.app.on_start(&mut env);
    }
}

impl<A: NicApp + 'static> Device for SmartNic<A> {
    fn snapshot_state(&self, w: &mut lastcpu_snap::SnapWriter) -> lastcpu_snap::Result<()> {
        w.put_str(&self.name);
        w.put_u32(self.app_version);
        w.put_bool(self.app_started);
        lastcpu_snap::Snapshot::snapshot(&self.monitor, w);
        self.app.snapshot_state(w)
    }

    fn name(&self) -> &str {
        &self.name
    }

    fn kind(&self) -> &str {
        "smart-nic"
    }

    fn on_start(&mut self, ctx: &mut DeviceCtx<'_>) {
        ctx.busy(SimDuration::from_micros(20)); // self-test: PHY bring-up
        let name = self.name.clone();
        self.monitor.start(ctx, &name, "smart-nic");
        self.monitor
            .enable_heartbeat(ctx, SimDuration::from_millis(2));
    }

    fn on_message(&mut self, ctx: &mut DeviceCtx<'_>, env: Envelope) {
        // Named sub-scope: the monitor's event vector and session
        // bookkeeping attribute as `nic.on_msg` in the E9 table.
        let _sp = lastcpu_sim::profile::span("nic.on_msg");
        let events = self.monitor.handle(ctx, &env);
        for ev in events {
            // The app starts once registration completes, so its first
            // discovery happens on a live bus.
            if ev == MonitorEvent::Registered && !self.app_started {
                self.app_started = true;
                let mut e = NicEnv {
                    ctx,
                    monitor: &mut self.monitor,
                };
                self.app.on_start(&mut e);
                continue;
            }
            let mut e = NicEnv {
                ctx,
                monitor: &mut self.monitor,
            };
            self.app.on_event(&mut e, ev);
        }
    }

    fn on_net(&mut self, ctx: &mut DeviceCtx<'_>, frame: Frame) {
        // Per-frame firmware cost: parse + dispatch.
        ctx.busy(SimDuration::from_nanos(300));
        let mut e = NicEnv {
            ctx,
            monitor: &mut self.monitor,
        };
        self.app.on_net(&mut e, frame);
    }

    fn on_timer(&mut self, ctx: &mut DeviceCtx<'_>, token: u64) {
        match self.monitor.on_timer(ctx, token) {
            None => {
                let mut e = NicEnv {
                    ctx,
                    monitor: &mut self.monitor,
                };
                self.app.on_timer(&mut e, token);
            }
            Some(events) => {
                // Monitor timers can complete operations (e.g. a discovery
                // window closing); those events belong to the app.
                for ev in events {
                    let mut e = NicEnv {
                        ctx,
                        monitor: &mut self.monitor,
                    };
                    self.app.on_event(&mut e, ev);
                }
            }
        }
    }

    fn on_fault(&mut self, ctx: &mut DeviceCtx<'_>, fault: IommuFault) {
        let mut e = NicEnv {
            ctx,
            monitor: &mut self.monitor,
        };
        self.app.on_fault(&mut e, fault);
    }

    fn on_reset(&mut self, ctx: &mut DeviceCtx<'_>) {
        self.monitor.reset();
        self.app.on_reset();
        self.app_started = false;
        ctx.busy(SimDuration::from_micros(20));
        let name = self.name.clone();
        self.monitor.start(ctx, &name, "smart-nic");
        self.monitor
            .enable_heartbeat(ctx, SimDuration::from_millis(2));
    }
}

/// A trivial app that echoes every frame back to its sender — the NIC
/// equivalent of a loopback firmware, used in tests and as the default
/// image in the loader example.
pub struct EchoApp {
    frames_echoed: u64,
}

impl EchoApp {
    /// A fresh echo app.
    pub fn new() -> Self {
        EchoApp { frames_echoed: 0 }
    }

    /// Frames echoed so far.
    pub fn frames_echoed(&self) -> u64 {
        self.frames_echoed
    }
}

impl Default for EchoApp {
    fn default() -> Self {
        Self::new()
    }
}

impl NicApp for EchoApp {
    fn app_name(&self) -> &str {
        "echo"
    }

    fn on_start(&mut self, _env: &mut NicEnv<'_, '_>) {}

    fn on_net(&mut self, env: &mut NicEnv<'_, '_>, frame: Frame) {
        self.frames_echoed += 1;
        let Some(port) = env.ctx.port else { return };
        env.ctx
            .net_tx(Frame::unicast(port, frame.src, frame.payload));
    }

    fn on_event(&mut self, _env: &mut NicEnv<'_, '_>, _ev: MonitorEvent) {}

    fn snapshot_state(&self, w: &mut lastcpu_snap::SnapWriter) -> lastcpu_snap::Result<()> {
        lastcpu_snap::Snapshot::snapshot(self, w);
        Ok(())
    }
}

impl<A: lastcpu_snap::Snapshot> lastcpu_snap::Snapshot for SmartNic<A> {
    fn snapshot(&self, w: &mut lastcpu_snap::SnapWriter) {
        w.put_str(&self.name);
        w.put_u32(self.app_version);
        w.put_bool(self.app_started);
        self.monitor.snapshot(w);
        self.app.snapshot(w);
    }
}

impl lastcpu_snap::Snapshot for EchoApp {
    fn snapshot(&self, w: &mut lastcpu_snap::SnapWriter) {
        w.put_u64(self.frames_echoed);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use lastcpu_bus::CorrId;
    use lastcpu_bus::{DeviceId, Dst, Payload, RequestId};
    use lastcpu_iommu::Iommu;
    use lastcpu_mem::Dram;
    use lastcpu_net::PortId;
    use lastcpu_sim::MetricsHub;
    use lastcpu_sim::{DetRng, SimTime};

    struct Fix {
        iommu: Iommu,
        dram: Dram,
        rng: DetRng,
        req: u64,
        stats: MetricsHub,
    }

    impl Fix {
        fn new() -> Self {
            Fix {
                iommu: Iommu::new(16),
                dram: Dram::new(1 << 20),
                rng: DetRng::new(7),
                req: 0,
                stats: MetricsHub::new(),
            }
        }

        fn ctx(&mut self) -> DeviceCtx<'_> {
            DeviceCtx::new(
                SimTime::ZERO,
                DeviceId(1),
                Some(PortId(9)),
                &mut self.iommu,
                &mut self.dram,
                &mut self.rng,
                &mut self.req,
                CorrId::NONE,
                &self.stats,
            )
        }
    }

    /// App that records lifecycle callbacks.
    #[derive(Default)]
    struct SpyApp {
        started: u32,
        frames: u32,
        events: u32,
        resets: u32,
    }

    impl NicApp for SpyApp {
        fn app_name(&self) -> &str {
            "spy"
        }

        fn on_start(&mut self, _env: &mut NicEnv<'_, '_>) {
            self.started += 1;
        }

        fn on_net(&mut self, _env: &mut NicEnv<'_, '_>, _frame: Frame) {
            self.frames += 1;
        }

        fn on_event(&mut self, _env: &mut NicEnv<'_, '_>, _ev: MonitorEvent) {
            self.events += 1;
        }

        fn on_reset(&mut self) {
            self.resets += 1;
        }
    }

    fn hello_ack() -> Envelope {
        Envelope {
            src: DeviceId::BUS,
            dst: Dst::Device(DeviceId(1)),
            req: RequestId(0),
            corr: CorrId::NONE,
            payload: Payload::HelloAck {
                assigned: DeviceId(1),
            },
        }
    }

    #[test]
    fn app_starts_on_registration_not_before() {
        let mut fix = Fix::new();
        let mut nic = SmartNic::new("nic0", SpyApp::default());
        let mut ctx = fix.ctx();
        nic.on_start(&mut ctx);
        assert_eq!(nic.app().started, 0);
        drop(ctx);
        let mut ctx = fix.ctx();
        nic.on_message(&mut ctx, hello_ack());
        assert_eq!(nic.app().started, 1);
        // A second HelloAck does not restart the app.
        nic.on_message(&mut ctx, hello_ack());
        assert_eq!(nic.app().started, 1);
        assert_eq!(nic.app().events, 1, "second Registered surfaces as event");
    }

    #[test]
    fn frames_reach_the_app() {
        let mut fix = Fix::new();
        let mut nic = SmartNic::new("nic0", SpyApp::default());
        let mut ctx = fix.ctx();
        nic.on_net(
            &mut ctx,
            Frame::unicast(PortId(2), PortId(9), vec![1, 2, 3]),
        );
        assert_eq!(nic.app().frames, 1);
        assert!(ctx.elapsed() > SimDuration::ZERO, "per-frame cost charged");
    }

    #[test]
    fn echo_app_reflects_frames() {
        let mut fix = Fix::new();
        let mut nic = SmartNic::new("nic0", EchoApp::new());
        let mut ctx = fix.ctx();
        nic.on_net(
            &mut ctx,
            Frame::unicast(PortId(2), PortId(9), b"ping".to_vec()),
        );
        let (actions, _, _) = ctx.finish();
        let tx = actions
            .iter()
            .find_map(|a| match a {
                crate::device::Action::NetTx(f) => Some(f.clone()),
                _ => None,
            })
            .expect("echo transmits");
        assert_eq!(tx.dst, PortId(2));
        assert_eq!(tx.src, PortId(9));
        assert_eq!(tx.payload, b"ping");
        assert_eq!(nic.app().frames_echoed(), 1);
    }

    #[test]
    fn install_swaps_image_and_restarts() {
        let mut fix = Fix::new();
        let mut nic = SmartNic::new("nic0", SpyApp::default());
        assert_eq!(nic.app_version(), 1);
        let mut ctx = fix.ctx();
        nic.install(&mut ctx, SpyApp::default());
        assert_eq!(nic.app_version(), 2);
        assert_eq!(nic.app().started, 1, "new image starts immediately");
    }

    #[test]
    fn reset_restarts_lifecycle() {
        let mut fix = Fix::new();
        let mut nic = SmartNic::new("nic0", SpyApp::default());
        let mut ctx = fix.ctx();
        nic.on_message(&mut ctx, hello_ack());
        drop(ctx);
        let mut ctx = fix.ctx();
        nic.on_reset(&mut ctx);
        assert_eq!(nic.app().resets, 1);
        let (actions, _, _) = ctx.finish();
        // Reset re-sends Hello.
        assert!(actions.iter().any(|a| matches!(
            a,
            crate::device::Action::SendBus(Envelope {
                payload: Payload::Hello { .. },
                ..
            })
        )));
        drop(actions);
        // And the app starts again on re-registration.
        let mut ctx = fix.ctx();
        nic.on_message(&mut ctx, hello_ack());
        assert_eq!(nic.app().started, 2);
    }

    #[test]
    fn app_timers_pass_through() {
        let mut fix = Fix::new();
        let mut nic = SmartNic::new("nic0", SpyApp::default());
        let mut ctx = fix.ctx();
        nic.on_timer(&mut ctx, 7); // app-namespace token
                                   // SpyApp has no on_timer counter; just verify no panic and that a
                                   // monitor token is swallowed.
        nic.on_timer(&mut ctx, 1 << 63);
    }
}
