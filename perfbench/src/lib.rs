//! The repository benchmark: three workloads (`kvs-hot`, `kvs-cold`,
//! `rack64`) scored on simulator speed (host time) and on the modelled
//! system (virtual time), with a per-layer breakdown from deterministic
//! counters and a traced run. See `perfbench/README.md`.

pub mod alloc;
pub mod calib;
pub mod layers;
pub mod report;
pub mod workload;
