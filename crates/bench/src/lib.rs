//! Experiment harness for the `lastcpu` reproduction.
//!
//! The paper (HotOS'21) contains no quantitative evaluation; DESIGN.md
//! derives an experiment per explicit claim. Each experiment is a binary in
//! `src/bin/` that builds the system(s), runs the workload in virtual time,
//! and prints the table/series EXPERIMENTS.md records:
//!
//! | Binary | Claim |
//! |---|---|
//! | `f2_init_sequence` | Figure 2 replay: the 7-step CPU-less init handshake |
//! | `e1_control_plane_scaling` | decentralized setup scales past a central kernel |
//! | `e2_kvs_dataplane` | the CPU-less data path beats the kernel-mediated one |
//! | `e3_isolation` | per-context isolation bounds a victim's tail latency |
//! | `e4_failures` | failure notification fan-out + reset recovery (§4) |
//! | `e5_iommu` | IOMMU translation overhead is bounded (IOTLB behaviour) |
//! | `e6_plane_separation` | separate control/data planes beat a conflated bus |
//! | `e7_discovery` | SSDP-style discovery at machine scale vs central directory |
//! | `e8_memctl` | a memory-controller device can own allocation policy |
//!
//! This library hosts the shared pieces: a column formatter and the small
//! driver devices the experiments need (setup clients, doorbell pingers,
//! control-storm generators, allocation churners, DMA probes).

#![forbid(unsafe_code)]

pub mod drivers;
pub mod json;
pub mod obs;
pub mod table;
pub mod twotenant;

pub use json::Json;
pub use obs::ObsArgs;
pub use table::Table;
