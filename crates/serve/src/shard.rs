//! A one-service stand-in for the retired in-process shard router.

use crate::service::EnergyService;
use std::sync::Arc;

/// Hands out the process's one [`EnergyService`]. Kept only because the
/// benchmark's traced replay times `serve.shard.route` through it;
/// ROADMAP item 7 drops that use and then deletes this type.
#[derive(Debug)]
pub struct ShardRouter {
    service: Arc<EnergyService>,
}

impl ShardRouter {
    /// Wrap the one service.
    pub fn single(service: Arc<EnergyService>) -> ShardRouter {
        ShardRouter { service }
    }

    /// The service every key routes to.
    pub fn route(&self, _key: &str) -> Arc<EnergyService> {
        Arc::clone(&self.service)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::service::ServiceConfig;

    #[test]
    fn single_shard_routes_everything_to_slot_zero() {
        let service = Arc::new(ServiceConfig::default().cache_capacity(8).build().unwrap());
        let router = ShardRouter::single(Arc::clone(&service));
        for key in ["skylake", "haswell", "stream-17", ""] {
            assert!(Arc::ptr_eq(&router.route(key), &service));
        }
    }
}
