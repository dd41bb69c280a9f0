//! In-process shard groups with consistent-hash routing.
//!
//! A [`ShardRouter`] owns N [`EnergyService`] shards — each with its own
//! inference engine, model store, run cache, and stream hub — and routes
//! every request to one of them by consistent hashing: platform for the
//! estimate/train verbs, stream id for the `STREAM` family. The hash
//! ring carries [`VNODES_PER_SHARD`] virtual points per shard, so adding
//! or removing a shard moves only its arc of keys instead of reshuffling
//! everything.
//!
//! Shards are replaceable while serving: [`ShardRouter::replace`] swaps
//! one slot's service for a fresh one (restored from a
//! [`crate::store::ModelStore::snapshot`]), which is how simulated
//! failover re-homes a shard's slice without touching the others. The
//! `SHARDS` protocol verb reports each shard's ownership and counters
//! via [`ShardRouter::shard_lines`].

use crate::protocol::{shard_info_fields, ShardInfo};
use crate::service::EnergyService;
use std::sync::{Arc, RwLock};

/// Virtual points each shard contributes to the hash ring. 64 points
/// per shard keeps the per-shard key share within a few percent of even
/// for small shard counts.
pub const VNODES_PER_SHARD: usize = 64;

/// The platforms the simulated substrate knows; `SHARDS` reports which
/// shard each one routes to.
const KNOWN_PLATFORMS: [&str; 2] = ["haswell", "skylake"];

/// FNV-1a over `bytes` with a 64-bit avalanche finalizer — FNV alone
/// clusters on short keys, which skews the ring; the finalizer spreads
/// points evenly.
fn fnv1a(bytes: impl IntoIterator<Item = u8>) -> u64 {
    let mut hash = 0xcbf2_9ce4_8422_2325_u64;
    for byte in bytes {
        hash ^= u64::from(byte);
        hash = hash.wrapping_mul(0x1000_0000_01b3);
    }
    hash ^= hash >> 33;
    hash = hash.wrapping_mul(0xff51_afd7_ed55_8ccd);
    hash ^= hash >> 33;
    hash = hash.wrapping_mul(0xc4ce_b9fe_1a85_ec53);
    hash ^ (hash >> 33)
}

/// Routes requests across in-process shards by consistent hashing.
#[derive(Debug)]
pub struct ShardRouter {
    /// Each slot holds the shard's live service; the lock makes the
    /// slot swappable for failover while other connections keep routing.
    shards: Vec<RwLock<Arc<EnergyService>>>,
    /// `(ring point, shard index)`, sorted by point.
    ring: Vec<(u64, usize)>,
}

impl ShardRouter {
    /// Build a router over `shards` (in slot order). Panics if `shards`
    /// is empty — a router always has at least one shard.
    pub fn new(shards: Vec<Arc<EnergyService>>) -> ShardRouter {
        assert!(
            !shards.is_empty(),
            "a shard router needs at least one shard"
        );
        let mut ring = Vec::with_capacity(shards.len() * VNODES_PER_SHARD);
        for index in 0..shards.len() {
            for vnode in 0..VNODES_PER_SHARD {
                let point = fnv1a(format!("shard-{index}/vnode-{vnode}").into_bytes());
                ring.push((point, index));
            }
        }
        ring.sort_unstable();
        ShardRouter {
            shards: shards.into_iter().map(RwLock::new).collect(),
            ring,
        }
    }

    /// A single-shard router — the non-sharded deployment shape, with a
    /// trivial routing fast path.
    pub fn single(service: Arc<EnergyService>) -> ShardRouter {
        ShardRouter::new(vec![service])
    }

    /// Number of shard slots.
    pub fn shard_count(&self) -> usize {
        self.shards.len()
    }

    /// The shard index `key` routes to. Keys hash case-insensitively so
    /// `SKYLAKE` and `skylake` land on the same shard, matching the
    /// protocol's case-insensitive verbs.
    pub fn route_index(&self, key: &str) -> usize {
        if self.shards.len() == 1 {
            return 0;
        }
        let hash = fnv1a(key.bytes().map(|b| b.to_ascii_lowercase()));
        // First ring point at or after the key's hash, wrapping to the
        // start of the ring past the last point.
        let at = self.ring.partition_point(|&(point, _)| point < hash);
        let (_, index) = self.ring[at % self.ring.len()];
        index
    }

    /// The live service for `key`.
    pub fn route(&self, key: &str) -> Arc<EnergyService> {
        self.shard(self.route_index(key))
    }

    /// The live service in slot `index`.
    pub fn shard(&self, index: usize) -> Arc<EnergyService> {
        Arc::clone(&self.shards[index].read().expect("shard slot poisoned"))
    }

    /// Swap slot `index` to `service` (failover re-homing); returns the
    /// replaced service so the caller can drain or drop it.
    pub fn replace(&self, index: usize, service: Arc<EnergyService>) -> Arc<EnergyService> {
        std::mem::replace(
            &mut *self.shards[index].write().expect("shard slot poisoned"),
            service,
        )
    }

    /// The shard that answers unrouted (global) verbs — slot 0, which is
    /// also the file-backed shard in a `--registry` deployment.
    pub fn primary(&self) -> Arc<EnergyService> {
        self.shard(0)
    }

    /// One [`ShardInfo`] per shard, in slot order.
    pub fn shard_infos(&self) -> Vec<ShardInfo> {
        (0..self.shards.len())
            .map(|index| {
                let service = self.shard(index);
                let stats = service.stats();
                let owns = KNOWN_PLATFORMS
                    .iter()
                    .filter(|platform| self.route_index(platform) == index)
                    .map(|platform| (*platform).to_string())
                    .collect();
                ShardInfo {
                    shard: index,
                    owns,
                    models: stats.models,
                    streams: stats.streams,
                    served: stats.served,
                    errors: stats.errors,
                    cache_entries: stats.cache_entries,
                }
            })
            .collect()
    }

    /// The `SHARDS` listing rows, in slot order.
    pub fn shard_lines(&self) -> Vec<String> {
        self.shard_infos().iter().map(shard_info_fields).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::service::ServiceConfig;

    fn shard_services(n: usize) -> Vec<Arc<EnergyService>> {
        (0..n)
            .map(|i| {
                Arc::new(
                    ServiceConfig::default()
                        .cache_capacity(8)
                        .seed(40 + i as u64)
                        .build()
                        .unwrap(),
                )
            })
            .collect()
    }

    #[test]
    fn single_shard_routes_everything_to_slot_zero() {
        let router = ShardRouter::single(shard_services(1).remove(0));
        for key in ["skylake", "haswell", "stream-17", ""] {
            assert_eq!(router.route_index(key), 0);
        }
        assert_eq!(router.shard_count(), 1);
    }

    #[test]
    fn routing_is_deterministic_and_case_insensitive() {
        let router = ShardRouter::new(shard_services(4));
        for key in ["skylake", "haswell", "node-1", "node-2", "node-3"] {
            let index = router.route_index(key);
            assert!(index < 4);
            assert_eq!(index, router.route_index(key), "stable across calls");
            assert_eq!(
                index,
                router.route_index(&key.to_ascii_uppercase()),
                "case-insensitive"
            );
        }
    }

    #[test]
    fn vnodes_spread_keys_across_all_shards() {
        let router = ShardRouter::new(shard_services(4));
        let mut counts = [0usize; 4];
        for i in 0..1000 {
            counts[router.route_index(&format!("stream-{i}"))] += 1;
        }
        for (shard, &count) in counts.iter().enumerate() {
            assert!(
                count > 100,
                "shard {shard} owns only {count}/1000 keys: {counts:?}"
            );
        }
    }

    #[test]
    fn shard_lines_report_ownership_and_counters() {
        let router = ShardRouter::new(shard_services(2));
        let infos = router.shard_infos();
        assert_eq!(infos.len(), 2);
        let owned: Vec<&String> = infos.iter().flat_map(|i| &i.owns).collect();
        assert_eq!(owned.len(), 2, "both platforms are owned: {infos:?}");
        for (index, info) in infos.iter().enumerate() {
            assert_eq!(info.shard, index);
        }
        let lines = router.shard_lines();
        assert!(lines[0].starts_with("shard=0 owns="), "{lines:?}");
    }

    #[test]
    fn replace_swaps_one_slot_without_disturbing_the_ring() {
        let router = ShardRouter::new(shard_services(2));
        let before: Vec<usize> = (0..100)
            .map(|i| router.route_index(&format!("k{i}")))
            .collect();
        let fresh = shard_services(1).remove(0);
        let replaced = router.replace(1, Arc::clone(&fresh));
        assert!(!Arc::ptr_eq(&replaced, &fresh));
        assert!(Arc::ptr_eq(&router.shard(1), &fresh));
        let after: Vec<usize> = (0..100)
            .map(|i| router.route_index(&format!("k{i}")))
            .collect();
        assert_eq!(before, after, "routing is independent of slot contents");
    }
}
