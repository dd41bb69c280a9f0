//! In-process energy estimation service: registry + inference engine, no TCP.
//!
//! Trains an online model on the simulated Skylake, registers it,
//! persists the registry to disk, revives it in a second service, and
//! answers counter-level and app-level queries through the inference
//! engine — the same path `slope-pmc serve` exposes over the wire.
//!
//! Run with: `cargo run --example energy_service -p pmca-serve`

use pmca_serve::ServiceConfig;

const GOOD_SET: [&str; 4] = [
    "UOPS_EXECUTED_CORE",
    "FP_ARITH_INST_RETIRED_DOUBLE",
    "MEM_INST_RETIRED_ALL_STORES",
    "UOPS_DISPATCHED_PORT_PORT_4",
];

fn main() {
    let service = ServiceConfig::default()
        .cache_capacity(256)
        .seed(42)
        .build()
        .expect("building the service");

    // Train an online model on a dgemm/fft ladder, exactly as the TRAIN
    // protocol command would.
    let pmcs: Vec<String> = GOOD_SET.iter().map(|s| s.to_string()).collect();
    let mut ladder = Vec::new();
    for i in 0..12 {
        ladder.push(format!("dgemm:{}", 7_000 + 1_800 * i));
        ladder.push(format!("fft:{}", 23_000 + 1_200 * i));
    }
    let stored = service
        .train_online("skylake", &pmcs, &ladder)
        .expect("training on the simulated Skylake");
    println!(
        "trained {} v{} ({} rows, residual std {:.3} J)",
        stored.key, stored.version, stored.training_rows, stored.residual_std
    );

    // Counter-level query: PMC counts straight to joules.
    let counts: Vec<(String, f64)> = stored
        .feature_order
        .iter()
        .map(|name| (name.clone(), 2.5e10))
        .collect();
    let estimate = service
        .estimate("skylake", &counts)
        .expect("counter-level estimate");
    println!(
        "counter-level estimate: {:.2} J ± {:.2} J ({} v{})",
        estimate.joules, estimate.ci_half_width, estimate.family, estimate.version
    );

    // App-level queries: collected on the simulator, memoised in the run
    // cache — the repeat is answered without a simulated run.
    for spec in ["dgemm:11500", "fft:26000", "dgemm:11500"] {
        let estimate = service
            .estimate_app("skylake", spec)
            .expect("app-level estimate");
        println!(
            "{spec:>14}: {:.2} J ± {:.2} J",
            estimate.joules, estimate.ci_half_width
        );
    }

    // Persist the registry and revive it in a fresh service.
    let dir = std::env::temp_dir().join("pmca-energy-service-example");
    let written = service.save_registry(&dir).expect("save registry");
    let revived = ServiceConfig::default()
        .cache_capacity(64)
        .seed(42)
        .registry_dir(&dir)
        .build()
        .expect("reviving from the saved registry");
    let loaded = revived.stats().models;
    let again = revived
        .estimate("skylake", &counts)
        .expect("revived estimate");
    println!(
        "registry: saved {written} model(s) to {}, revived {loaded}; \
         revived answer {:.2} J (identical: {})",
        dir.display(),
        again.joules,
        (again.joules - estimate.joules).abs() < 1e-12
    );
    let _ = std::fs::remove_dir_all(&dir);

    let stats = service.stats();
    println!(
        "stats: served={} errors={} cache-hits={} cache-misses={} cache-evictions={} \
         models={}",
        stats.served,
        stats.errors,
        stats.cache_hits,
        stats.cache_misses,
        stats.cache_evictions,
        stats.models
    );

    // The same instruments the METRICS protocol command exposes.
    println!("metrics snapshot (command latencies + cache counters):");
    for line in service.metrics_lines() {
        if line.starts_with("pmca_serve_train_seconds") || line.starts_with("pmca_cache_") {
            println!("  {line}");
        }
    }
}
