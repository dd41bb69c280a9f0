//! Shard failover round trip (ISSUE satellite): kill a shard, restore a
//! fresh service from the dead shard's [`ModelStore`] snapshot, swap it
//! into the router's slot, and verify the rebuilt shard serves
//! bit-identical estimates over the very same TCP connections — under
//! both transports.

use pmca_serve::store::snapshot_from_dir;
use pmca_serve::{Client, EnergyService, Server, ServiceConfig, ShardRouter, Transport};
use std::sync::Arc;

const SEED: u64 = 321;

const GOOD_SET: [&str; 4] = [
    "UOPS_EXECUTED_CORE",
    "FP_ARITH_INST_RETIRED_DOUBLE",
    "MEM_INST_RETIRED_ALL_STORES",
    "UOPS_DISPATCHED_PORT_PORT_4",
];

fn good_set() -> Vec<String> {
    GOOD_SET.iter().map(|s| s.to_string()).collect()
}

fn ladder() -> Vec<String> {
    (0..10)
        .flat_map(|i| {
            [
                format!("dgemm:{}", 7_000 + 1_900 * i),
                format!("fft:{}", 23_000 + 1_300 * i),
            ]
        })
        .collect()
}

fn probe_counts() -> Vec<(String, f64)> {
    GOOD_SET
        .iter()
        .enumerate()
        .map(|(i, name)| (name.to_string(), 1.0e10 + i as f64 * 3.0e9))
        .collect()
}

/// A fresh single service shaped like one shard of `build_sharded(3)`:
/// in-memory store, same seed.
fn replacement_shard(transport: Transport) -> Arc<EnergyService> {
    Arc::new(
        ServiceConfig::default()
            .cache_capacity(64)
            .seed(SEED)
            .transport(transport)
            .event_loops(2)
            .build()
            .unwrap(),
    )
}

fn failover_restores_bit_identical_estimates_on(transport: Transport) {
    let router = Arc::new(
        ServiceConfig::default()
            .cache_capacity(64)
            .seed(SEED)
            .transport(transport)
            .event_loops(2)
            .build_sharded(3)
            .unwrap(),
    );
    let server = Server::start_router(Arc::clone(&router), "127.0.0.1:0").unwrap();
    let mut client = Client::connect(server.addr()).unwrap();

    // TRAIN routes to skylake's owner shard; the router decides which.
    let owner = router.route_index("skylake");
    assert_eq!(client.train("skylake", &good_set(), &ladder()).unwrap(), 1);
    let before = client.estimate("skylake", &probe_counts()).unwrap();
    assert!(before.joules.is_finite());
    assert_eq!(
        router.shard(owner).stats().models,
        1,
        "owner holds the model"
    );

    // The owner "fails": snapshot its store, build a fresh shard,
    // restore, and swap it into the slot. Existing connections keep
    // routing through the same router.
    let snapshot = router.shard(owner).store().snapshot();
    let fresh = replacement_shard(transport);
    assert_eq!(fresh.stats().models, 0);
    let restored = fresh.store().restore(&snapshot).unwrap();
    assert_eq!(restored, 1, "the snapshot carries the trained model");
    let dead = router.replace(owner, Arc::clone(&fresh));
    assert_eq!(dead.stats().models, 1);

    // Same connection, same counts: the rebuilt shard answers
    // bit-identically — coefficients round-tripped exactly.
    let after = client.estimate("skylake", &probe_counts()).unwrap();
    assert_eq!(after, before, "failover changed the estimate");

    // SHARDS over the wire shows the same topology and ownership.
    let shards = client.shards().unwrap();
    assert_eq!(shards.len(), 3);
    assert!(shards[owner].owns.contains(&"skylake".to_string()));
    assert_eq!(shards[owner].models, 1);
    client.quit().unwrap();
}

#[test]
fn failover_restores_bit_identical_estimates() {
    failover_restores_bit_identical_estimates_on(Transport::Threaded);
}

#[test]
fn failover_restores_bit_identical_estimates_evented() {
    failover_restores_bit_identical_estimates_on(Transport::Evented);
}

#[test]
fn failover_restores_from_the_file_backed_registry() {
    let dir = std::env::temp_dir().join(format!("pmca-failover-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);

    // A file-backed primary trains and persists; every put writes
    // through to disk.
    let primary = Arc::new(
        ServiceConfig::default()
            .cache_capacity(64)
            .seed(SEED)
            .registry_dir(&dir)
            .build()
            .unwrap(),
    );
    primary
        .train_online("skylake", &good_set(), &ladder())
        .unwrap();
    let router = ShardRouter::single(Arc::clone(&primary));
    let before = primary.estimate("skylake", &probe_counts()).unwrap();

    // The process "dies": rebuild purely from the on-disk registry via a
    // directory snapshot, into an in-memory replacement.
    let snapshot = snapshot_from_dir(&dir).unwrap();
    let fresh = replacement_shard(Transport::Threaded);
    assert_eq!(fresh.store().restore(&snapshot).unwrap(), 1);
    router.replace(0, Arc::clone(&fresh));

    let after = router
        .primary()
        .estimate("skylake", &probe_counts())
        .unwrap();
    assert_eq!(after, before, "disk round trip changed the estimate");
    let _ = std::fs::remove_dir_all(&dir);
}
