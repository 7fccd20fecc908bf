//! Checkpoint round-trip properties (DESIGN.md §14).
//!
//! The contract under test: a checkpoint survives encode/decode
//! byte-exactly, a component rebuilt by replay verifies byte-identically
//! against the decoded section (and stops verifying once its state moves),
//! a fresh system restored from a checkpoint (replay to the cursor, then
//! verify) re-checkpoints to identical bytes, and a corrupted checkpoint
//! can never be mistaken for a valid one.

use lastcpu_core::SystemConfig;
use lastcpu_fabric::ring::HashRing;
use lastcpu_kvs::client::{KvsClientHost, WorkloadConfig};
use lastcpu_kvs::router::RouterConfig;
use lastcpu_kvs::server::ServerConfig;
use lastcpu_kvs::{build_cpuless_kvs, KvEngine, RetryPolicy, ShardRouterHost};
use lastcpu_net::PortId;
use lastcpu_sim::SimDuration;
use lastcpu_snap::{Checkpoint, Manifest, Snapshot, SCHEMA_VERSION};
use proptest::prelude::*;

/// Puts `c` in a one-section checkpoint and reads the section back through
/// the full encode/decode framing, as restore verification sees it.
fn through_checkpoint(c: &impl Snapshot) -> Vec<u8> {
    let mut ck = Checkpoint::new(Manifest {
        schema_version: SCHEMA_VERSION,
        ..Manifest::default()
    });
    ck.put("component", c);
    let decoded = Checkpoint::decode(&ck.encode()).expect("decode");
    decoded.section("component").expect("section").to_vec()
}

proptest! {
    /// KvEngine: for any op history, a twin replaying the same history
    /// verifies byte-identically against the checkpointed section and
    /// answers every key the original does; one more write breaks the
    /// match.
    #[test]
    fn engine_roundtrip_is_byte_identical(
        ops in proptest::collection::vec(
            (any::<u8>(), proptest::collection::vec(any::<u8>(), 0..48), any::<bool>()),
            1..120,
        ),
    ) {
        let replay = || {
            let mut e = KvEngine::new();
            for (kb, value, del) in &ops {
                let key = format!("k{:03}", kb % 32).into_bytes();
                if *del {
                    let _ = e.delete(&key);
                } else {
                    let _ = e.put(&key, value);
                }
            }
            e
        };
        let a = replay();
        let section = through_checkpoint(&a);
        let mut b = replay();
        prop_assert_eq!(&section, &b.snapshot_bytes());
        prop_assert_eq!(a.len(), b.len());
        for kb in 0u8..32 {
            let key = format!("k{kb:03}").into_bytes();
            prop_assert_eq!(a.get(&key), b.get(&key));
        }
        b.put(b"one-more", b"write").expect("put");
        prop_assert!(section != b.snapshot_bytes(), "a write must change the section");
    }

    /// HashRing: a ring rebuilt from the same membership in reverse order
    /// verifies byte-identically against the checkpointed section and
    /// places every key exactly where the original does; a new member
    /// breaks the match.
    #[test]
    fn hashring_roundtrip_preserves_placement(
        members in proptest::collection::vec(0u8..20, 0..12),
        vnodes in 1u32..96,
    ) {
        let mut a = HashRing::new(vnodes);
        for m in &members {
            a.insert(&format!("m{m}/kvs"));
        }
        let section = through_checkpoint(&a);
        let mut b = HashRing::new(vnodes);
        for m in members.iter().rev() {
            b.insert(&format!("m{m}/kvs"));
        }
        prop_assert_eq!(&section, &b.snapshot_bytes());
        for i in 0u64..64 {
            let key = format!("key-{i:08}").into_bytes();
            prop_assert_eq!(a.replicas(&key, 3), b.replicas(&key, 3));
        }
        b.insert("extra/kvs");
        prop_assert!(section != b.snapshot_bytes(), "a new member must change the section");
    }

    /// ShardRouterHost: a router rebuilt from the same configuration
    /// verifies byte-identically against the checkpointed section; one
    /// built from a *different* configuration does not.
    #[test]
    fn router_roundtrip_is_byte_identical(
        replication in 1usize..5,
        vnodes in 1u32..64,
        max_retries in 0u32..8,
        rtt_multiplier in 1u64..6,
        dir_port in any::<u32>(),
    ) {
        let build = || ShardRouterHost::new(RouterConfig {
            dir_port: PortId(dir_port),
            replication,
            vnodes,
            max_retries,
            rtt_multiplier,
            policy: RetryPolicy::AdaptiveP2c,
            name: format!("router-{vnodes}"),
            ..RouterConfig::default()
        });
        let section = through_checkpoint(&build());
        prop_assert_eq!(&section, &build().snapshot_bytes());
        let other = ShardRouterHost::new(RouterConfig::default());
        prop_assert!(
            section != other.snapshot_bytes(),
            "a different configuration must not verify"
        );
    }
}

/// Builds the single-machine CPU-less KVS with a driving client, runs it
/// `warm_us` of virtual time past power-on.
fn warm_system(seed: u64, warm_us: u64) -> lastcpu_kvs::KvsSetup {
    let mut setup = build_cpuless_kvs(
        SystemConfig {
            seed,
            trace: false,
            ..SystemConfig::default()
        },
        Default::default(),
        ServerConfig::default(),
    );
    setup.system.add_host(Box::new(KvsClientHost::new(
        setup.kvs_port,
        WorkloadConfig {
            keys: 40,
            value_size: 64,
            outstanding: 4,
            total_ops: 400,
            preload: true,
            ..WorkloadConfig::default()
        },
    )));
    setup.system.power_on();
    setup.system.run_for(SimDuration::from_micros(warm_us));
    setup
}

/// A mid-run system checkpoint survives encode/decode byte-exactly, and a
/// fresh system restored from it re-checkpoints to identical bytes.
#[test]
fn system_checkpoint_roundtrip_is_byte_identical() {
    let mut live = warm_system(0x51AB, 900);
    let ck = live.system.checkpoint("test").expect("checkpoint");
    let encoded = ck.encode();
    let reread = Checkpoint::decode(&encoded).expect("decode");
    assert_eq!(reread.encode(), encoded, "encode/decode must be stable");
    assert!(ck.diff(&reread).is_none());

    let mut fresh = warm_system(0x51AB, 0);
    fresh.system.restore_from(&ck).expect("restore + verify");
    let again = fresh.system.checkpoint("test").expect("re-checkpoint");
    assert_eq!(
        again.encode(),
        encoded,
        "restored system must re-checkpoint byte-identically"
    );

    // Both continue identically.
    live.system.run_for(SimDuration::from_micros(600));
    fresh.system.run_for(SimDuration::from_micros(600));
    let d_live = live.system.checkpoint("end").expect("checkpoint");
    let d_fresh = fresh.system.checkpoint("end").expect("checkpoint");
    assert!(
        d_live.diff(&d_fresh).is_none(),
        "continuation diverged: {:?}",
        d_live.diff(&d_fresh)
    );
}

proptest! {
    /// Flipping any single byte of an encoded checkpoint must fail loudly
    /// on decode, or — if the flip lands in the (checksum-free) manifest —
    /// produce a checkpoint whose digest differs. A corrupted checkpoint
    /// can never silently impersonate the original.
    #[test]
    fn corrupted_checkpoint_never_passes_silently(pos_seed in any::<u64>(), bit in 0u8..8) {
        let live = warm_system(0xC0DE, 400);
        let ck = live.system.checkpoint("corrupt-me").expect("checkpoint");
        let clean = ck.encode();
        let mut bent = clean.clone();
        let pos = (pos_seed % bent.len() as u64) as usize;
        bent[pos] ^= 1 << bit;
        match Checkpoint::decode(&bent) {
            Err(_) => {} // loud failure: Corrupt / ChecksumMismatch / VersionMismatch
            Ok(decoded) => {
                prop_assert!(
                    decoded.digest() != ck.digest(),
                    "byte {} flipped yet checkpoint decoded to an identical digest",
                    pos,
                );
            }
        }
    }
}

/// Truncation at every prefix length fails loudly.
#[test]
fn truncated_checkpoint_fails_loudly() {
    let live = warm_system(0x7259, 300);
    let clean = live.system.checkpoint("truncate-me").expect("ck").encode();
    for keep in [0, 1, 7, clean.len() / 2, clean.len() - 1] {
        assert!(
            Checkpoint::decode(&clean[..keep]).is_err(),
            "truncation to {keep} bytes must not decode"
        );
    }
}
