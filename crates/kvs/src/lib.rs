//! The paper's §3 application: a key-value store with **no CPU involved**.
//!
//! "The data (keys and values) are stored in a file hosted by a smart SSD,
//! while the operations (get, insert, update, etc.) are processed in a
//! smart-NIC. The NIC exposes a KVS interface to other machines over the
//! network."
//!
//! - [`engine`]: the log-structured store: an in-(NIC-)memory index over an
//!   append-only record log kept in the SSD file, with an incremental
//!   scanner for index rebuild at startup.
//! - [`proto`]: the client↔KVS network protocol (GET/PUT/DELETE frames).
//! - [`app`]: [`app::KvsNicApp`] — the store offloaded onto the smart NIC,
//!   using the Figure 2 session to reach its data file. This is the
//!   CPU-less deployment.
//! - [`cpu_app`]: [`cpu_app::KvsCpuApp`] — the *same* store logic hosted on
//!   the baseline CPU behind a dumb NIC: every request pays interrupts,
//!   syscalls and kernel copies. This is the conventional deployment the
//!   experiments compare against.
//! - [`client`]: a closed-loop workload generator ([`client::KvsClientHost`])
//!   with YCSB-style knobs (read fraction, Zipfian skew, value size),
//!   recording end-to-end latencies.
//! - [`build`]: one-call assembly of both deployments.
//! - [`router`]: the rack-scale shard router ([`router::ShardRouterHost`])
//!   — consistent-hash placement over fabric-discovered endpoints with
//!   R-way replication and machine-crash fail-over (E10).

#![forbid(unsafe_code)]

pub mod app;
pub mod build;
pub mod client;
pub mod cpu_app;
pub mod engine;
pub mod proto;
pub mod router;
pub mod server;

pub use app::KvsNicApp;
pub use build::{
    build_baseline_kvs, build_cpuless_kvs, build_hybrid_kvs, build_rack_kvs,
    build_rack_kvs_with_policy, KvsSetup, RackSetup,
};
pub use client::{KvsClientHost, WorkloadConfig};
pub use cpu_app::KvsCpuApp;
pub use engine::KvEngine;
pub use router::{RetryPolicy, RouterConfig, RouterStats, ShardRouterHost};
pub use server::{KvsServer, ServerConfig, ServerState, ServerStats, VA_STRIDE};
