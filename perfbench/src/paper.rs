//! The paper's offline pipeline, replayed through its layers.
//!
//! No workload times the pipeline end to end: in process on a shared
//! two-core host its experiment time follows the neighbours' load far
//! more than the serving workloads do. Its layers are still timed, once
//! per traced run of `estimate_rpc` ([`crate::serving`]): one Class B +
//! Class C experiment at the reduced scale of [`config`] — the additivity
//! check, the 18-PMC dataset collection, and LR, RF and NN fits on PA,
//! PNA, PA4 and PNA4 — replayed through the public function of each
//! stage. TRAIN, which every serving set-up sends, runs the simulator,
//! the collector, the power meter and the LR fit the same way.

use crate::spans::Recorder;
use pmca_additivity::{AdditivityChecker, AdditivityTest, CompoundCase};
use pmca_core::class_b::{ClassBConfig, PA, PNA};
use pmca_cpusim::{Application, Machine, PlatformSpec};
use pmca_mlkit::forest::ForestParams;
use pmca_mlkit::nn::NnParams;
use pmca_mlkit::tree::TreeParams;
use pmca_mlkit::{Dataset, LinearRegression, NeuralNet, RandomForest, Regressor};
use pmca_obs::MetricsRegistry;
use pmca_parallel::ThreadPool;
use pmca_pmctools::collector::collect_sweeps_batch;
use pmca_powermeter::{HclWattsUp, Methodology};
use pmca_stats::correlation::pearson;
use pmca_workloads::suite::{class_b_compound_pairs, class_b_regression_suite};

/// The reduced scale of the replayed experiment (the paper's is
/// `ClassBConfig::paper()`): four compound pairs with two runs each in
/// the additivity test, every 16th point of the 801-point regression
/// suite, 12-tree forests and 40 NN epochs.
fn config(seed: u64) -> ClassBConfig {
    ClassBConfig {
        seed,
        n_compounds: 4,
        additivity_runs: 2,
        regression_stride: 16,
        pmc_repeats: 1,
        methodology: Methodology::quick(),
        nn_epochs: 40,
        rf_trees: 12,
    }
}

/// Replay one experiment at `seed` as an op of its own; returns the
/// simulator runs it made, as `cpusim.runs_per_op`.
pub fn replay_once(rec: &mut Recorder, seed: u64) -> Result<(&'static str, f64), String> {
    let runs = MetricsRegistry::global().counter("pmca_sim_runs_total", &[]);
    let before = runs.get();
    rec.once(|rec| replay(rec, &config(seed)))?;
    Ok(("cpusim.runs_per_op", (runs.get() - before) as f64))
}

/// Direct `Machine::run_at` calls timed per replay.
const TIMED_RUNS: usize = 16;

/// Replay one experiment's stages through their public functions, with
/// the experiment's own configuration.
fn replay(rec: &mut Recorder, config: &ClassBConfig) -> Result<(), String> {
    let root = rec.open("replay.experiment");
    let mut machine = Machine::new(PlatformSpec::intel_skylake(), config.seed);
    let mut meter = HclWattsUp::with_methodology(&machine, config.seed, config.methodology);
    let all: Vec<&str> = PA.iter().chain(PNA.iter()).copied().collect();
    let events = machine
        .catalog()
        .ids(&all)
        .map_err(|name| format!("unknown event {name}"))?;

    let cases: Vec<CompoundCase> = class_b_compound_pairs(config.n_compounds, config.seed)
        .into_iter()
        .map(|(a, b)| CompoundCase::new(a, b))
        .collect();
    let checker = AdditivityChecker::new(AdditivityTest {
        runs: config.additivity_runs,
        ..AdditivityTest::default()
    });
    rec.time("additivity.check", 1, || {
        checker.check(&mut machine, &events, &cases)
    })
    .map_err(|e| e.to_string())?;

    let suite = class_b_regression_suite();
    let apps: Vec<&dyn Application> = suite
        .iter()
        .step_by(config.regression_stride)
        .map(|a| a.as_ref())
        .collect();
    let energies: Vec<f64> = apps
        .iter()
        .map(|&app| {
            rec.time("powermeter.measure", 1, || {
                meter.measure_dynamic_energy(&mut machine, app).mean_joules
            })
        })
        .collect();
    let sweeps = rec
        .time("pmctools.collect", apps.len(), || {
            collect_sweeps_batch(
                &mut machine,
                &apps,
                &events,
                config.pmc_repeats,
                &ThreadPool::global(),
            )
        })
        .map_err(|e| e.to_string())?;
    let first = machine.reserve_runs(TIMED_RUNS as u64);
    for (i, &app) in apps.iter().take(TIMED_RUNS).enumerate() {
        rec.time("cpusim.run", 1, || machine.run_at(app, first + i as u64));
    }

    let mut dataset = Dataset::new(all.iter().map(|name| name.to_string()).collect());
    for ((app, sweep), energy) in apps.iter().zip(&sweeps).zip(&energies) {
        let row: Vec<f64> = events
            .iter()
            .map(|event| {
                sweep.samples.iter().map(|s| s[event]).sum::<f64>() / sweep.samples.len() as f64
            })
            .collect();
        dataset
            .push(app.name(), row, *energy)
            .map_err(|e| e.to_string())?;
    }
    let correlation = |name: &str| {
        let column = all.iter().position(|n| *n == name).expect("a Class B PMC");
        pearson(&dataset.column(column), dataset.targets())
            .unwrap_or(0.0)
            .abs()
    };
    let top4 = |pool: &[&'static str]| {
        let mut ranked = pool.to_vec();
        ranked.sort_by(|a, b| correlation(b).total_cmp(&correlation(a)));
        ranked.truncate(4);
        ranked
    };
    let test_count = ((dataset.len() as f64) * 150.0 / 801.0).round().max(1.0) as usize;
    let (train, _test) = dataset
        .split_exact(test_count.min(dataset.len() - 1))
        .map_err(|e| e.to_string())?;
    for set in [PA.to_vec(), PNA.to_vec(), top4(&PA), top4(&PNA)] {
        let train = train.select(&set).map_err(|e| e.to_string())?;
        let (x, y) = (train.rows(), train.targets());
        rec.time("mlkit.fit.lr", 1, || {
            LinearRegression::paper_constrained().fit(x, y)
        })
        .map_err(|e| e.to_string())?;
        let forest = ForestParams {
            n_trees: config.rf_trees,
            tree: TreeParams::default(),
            sample_fraction: 1.0,
        };
        rec.time("mlkit.fit.rf", 1, || {
            RandomForest::new(forest, config.seed ^ 0xF0).fit(x, y)
        })
        .map_err(|e| e.to_string())?;
        let nn = NnParams {
            epochs: config.nn_epochs,
            ..NnParams::default()
        };
        rec.time("mlkit.fit.nn", 1, || {
            NeuralNet::new(nn, config.seed ^ 0x99).fit(x, y)
        })
        .map_err(|e| e.to_string())?;
    }
    rec.close(root, 1);
    Ok(())
}
