//! `lastcpu-fabric`: rack-scale co-simulation of CPU-less machines.
//!
//! The paper's end-to-end example exposes a KVS "to other machines over the
//! network" (§3); every experiment through E9 nevertheless ran a *single*
//! emulated machine behind one edge switch. This crate supplies the missing
//! scale-out dimension: a [`Fabric`] instantiates N independent
//! [`lastcpu_core::System`] machines under one deterministic global clock,
//! connects their NICs through modeled inter-machine links, and federates
//! SSDP-style discovery so a service registered on one machine is routable
//! from any other.
//!
//! Three design decisions keep the co-simulation bit-identical from a seed:
//!
//! 1. **Conservative time windows.** Machines interact *only* through
//!    fabric-delivered frames, which always pay at least one link latency
//!    (and directory replies at least `dir_latency`). The fabric therefore
//!    advances in windows no longer than that minimum — the *lookahead* —
//!    within which every machine is provably independent and steps its own
//!    events freely; at each window edge a serial barrier merges the
//!    machines' tunnel output in `(timestamp, machine, production-order)`
//!    order and crosses the links. Directory sweeps and scheduled faults
//!    are control points that additionally cap windows, so they observe a
//!    globally consistent instant. The windows and the barrier's merge
//!    order define the rack's event order, so a seed replays
//!    bit-identically.
//! 2. **Transparent tunnels over an explicit topology.** Each machine's
//!    edge switch grows fabric-owned *proxy ports*, one per remote peer the
//!    machine talks to. A frame sent to a proxy port crosses the
//!    inter-machine fabric — walking the per-pair path the configured
//!    [`Topology`] (flat single-spine, leaf-spine, or k-ary fat-tree)
//!    chose, queuing at line rate on every link it crosses with the same
//!    [`NetCostModel`] serialization semantics the edge switch uses — and
//!    re-enters the remote machine with its source rewritten to the
//!    *remote* machine's proxy port for the original sender. Replies are
//!    symmetric, so unmodified device firmware (the smart-NIC KVS app)
//!    serves remote clients without knowing the rack exists. Path choice
//!    is deterministic ECMP (a hash of `(src, dst, seed)`), so per-pair
//!    ordering and bit-identical replay survive path diversity; see
//!    [`topology`] for the cost model and docs/TOPOLOGY.md for the full
//!    derivation.
//! 3. **Rack-unique correlation ids.** Machine `m` allocates correlation
//!    ids from base `(m+1) << 40`, and the fabric threads the id through
//!    inter-machine frames, so a merged Chrome trace spans machines without
//!    aliasing.
//!
//! Whole-machine faults reuse the PR-2 [`lastcpu_sim::FaultPlan`] with
//! machine names (`"m3"`) as targets: `Drop`/`Delay` apply to that
//! machine's links, `Crash`/`Hang` kill the machine outright (the fabric
//! stops stepping it and drops its traffic), which is what the E10
//! fail-over scenario measures.
//!
//! [`HashRing`] — the consistent-hash ring the KVS shard router builds over
//! discovered endpoints — lives here too, so placement policy and fabric
//! evolve together.
//!
//! [`NetCostModel`]: lastcpu_net::NetCostModel

#![forbid(unsafe_code)]

pub mod fabric;
pub mod proto;
pub mod ring;
pub mod topology;

pub use fabric::{DirEntry, Fabric, FabricConfig, MachineId};
pub use proto::{DirEndpoint, DirMsg};
pub use ring::HashRing;
pub use topology::{LinkStats, TopoKind, Topology, TopologyConfig, Transit};
