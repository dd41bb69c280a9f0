//! `estimate_rpc` and `estimate_batch`: ESTIMATE traffic against
//! `slope-pmc serve` running with its defaults.
//!
//! Every reply is checked against an in-process [`EnergyService`] that
//! holds the same models: an f64 reply must match it bit for bit, and a
//! fixed-tier reply must lie within the lowered model's proven error
//! bound of its f64 answer, with its interval widened by exactly the
//! bound the server adds. Counter rows are generated on the fixed tier's
//! quantization grid, where `FixedModel::error_bound` holds for forests
//! too; app-level rows are simulated counts off the grid, answered by
//! the linear online model, whose `direct_error_bound` covers them.
//!
//! Counter rows take each count uniformly from 1.0e10 to 1.6e10, the
//! range of loadgen's counter-level requests (`1e10 + k·1e9`, k < 7).
//! The tiers alternate, as loadgen's `--tier both` gives each an equal
//! pass.

use crate::paper;
use crate::spans::{self, Recorder};
use crate::stats::{median, us, Rng};
use crate::sys::{self, Conn, Server};
use crate::{Args, Done, Mark, Outcome, Round};
use pmca_mlkit::forest::ForestParams;
use pmca_mlkit::tree::TreeParams;
use pmca_mlkit::{CompiledModel, FixedBatch, FixedModel, ModelParams, RandomForest, Regressor};
use pmca_serve::protocol::parse_estimate_reply;
use pmca_serve::registry::encode_entry;
use pmca_serve::{
    BatchRequestRef, EnergyService, InferenceEngine, Registry, Request, RequestRef, RunCache,
    RunKey, ServiceConfig, ShardRouter, StoredModel, Tier,
};
use std::path::Path;
use std::sync::Arc;
use std::time::{Duration, Instant};

const PLATFORM: &str = "skylake";

/// The paper's deployable 4-PMC online set on Skylake.
const ONLINE_SET: [&str; 4] = [
    "UOPS_EXECUTED_CORE",
    "FP_ARITH_INST_RETIRED_DOUBLE",
    "MEM_INST_RETIRED_ALL_STORES",
    "UOPS_DISPATCHED_PORT_PORT_4",
];

/// A second 4-PMC set, answered by a random forest registered at set-up.
const FOREST_SET: [&str; 4] = [
    "ICACHE_64B_IFTAG_MISS",
    "CPU_CLOCK_THREAD_UNHALTED",
    "BR_MISP_RETIRED_ALL_BRANCHES",
    "IDQ_MS_UOPS",
];

/// The per-feature domain the server lowers fixed-tier models for.
const FIXED_FEATURE_MAX: f64 = 1.0e13;
/// The seed and engine size of a server started with its defaults.
const SERVER_SEED: u64 = 1;
const SERVER_WORKERS: usize = 4;
/// Requests pipelined per batch on `estimate_batch`.
const DEPTH: usize = 64;
/// Distinct counter rows per model in a run.
const ROWS: usize = 512;
/// ESTIMATE-APP specs in the `estimate_batch` pool: far below the
/// default 256-run cache, so every timed app request is a cache hit.
const SPECS: usize = 32;
/// Distinct 64-request batches per run.
const BATCHES: usize = 128;
/// The range of every count in a counter row: loadgen's.
const COUNT_MIN: f64 = 1.0e10;
const COUNT_SPAN: f64 = 0.6e10;

#[derive(Clone, Copy, PartialEq, Eq)]
pub enum Shape {
    /// One connection, one request in flight.
    Rpc,
    /// Two connections, 64 requests pipelined on each.
    Batch,
}

/// What a correct reply to one request line is.
struct Expect {
    tier: Tier,
    /// The in-process service's f64 answer.
    joules: f64,
    ci: f64,
    family: String,
    version: u32,
    /// How far a fixed-tier reply may sit from `joules`.
    bound: f64,
    /// What the server adds to a fixed-tier reply's interval.
    widening: f64,
}

impl Expect {
    fn matches(&self, reply: &str) -> bool {
        let Ok(got) = parse_estimate_reply(reply) else {
            return false;
        };
        let same_model = got.family == self.family.as_str() && got.version == self.version;
        let finite = got.joules.is_finite() && got.ci_half_width.is_finite();
        same_model
            && finite
            && match self.tier {
                Tier::F64 => {
                    got.joules.to_bits() == self.joules.to_bits()
                        && got.ci_half_width.to_bits() == self.ci.to_bits()
                }
                Tier::Fixed => {
                    (got.joules - self.joules).abs() <= self.bound
                        && got.ci_half_width.to_bits() == (self.ci + self.widening).to_bits()
                }
            }
    }
}

/// One timed op: its request lines, their wire bytes, and the reply
/// each must get.
struct Op {
    lines: Vec<String>,
    wire: Vec<u8>,
    expect: Vec<Expect>,
}

impl Op {
    fn new(lines: Vec<String>, expect: Vec<Expect>) -> Op {
        let mut wire = Vec::new();
        for line in &lines {
            wire.extend_from_slice(line.as_bytes());
            wire.push(b'\n');
        }
        Op {
            lines,
            wire,
            expect,
        }
    }

    /// How many of `replies` (one line per request) are wrong.
    fn failures(&self, replies: &str) -> u64 {
        let mut lines = replies.lines();
        self.expect
            .iter()
            .filter(|expect| !lines.next().is_some_and(|reply| expect.matches(reply)))
            .count() as u64
    }
}

/// The in-process reference and the run's generated inputs.
struct Fixture {
    oracle: Arc<EnergyService>,
    online: Arc<StoredModel>,
    forest: Option<Arc<StoredModel>>,
    train: String,
    /// Sent once per server set-up before timing. They fill the run
    /// cache in the order the in-process service filled its own, which
    /// makes the simulated collections, and so the answers, identical.
    warm: Op,
    ops: Vec<Op>,
    specs: Vec<String>,
}

fn names(set: &[&str]) -> Vec<String> {
    set.iter().map(|name| name.to_string()).collect()
}

fn counts_line(set: &[&str], row: &[f64], tier: Tier) -> String {
    Request::Estimate {
        platform: PLATFORM.to_string(),
        counts: names(set).into_iter().zip(row.iter().copied()).collect(),
        tier,
    }
    .to_line()
}

fn app_line(spec: &str, tier: Tier) -> String {
    Request::EstimateApp {
        platform: PLATFORM.to_string(),
        app: spec.to_string(),
        tier,
    }
    .to_line()
}

fn lower(model: &StoredModel) -> Result<FixedModel, String> {
    FixedModel::lower(&model.params, FIXED_FEATURE_MAX)
        .map_err(|e| format!("lowering the {} model: {e}", model.key.family))
}

/// The fixed-tier bounds of one model.
struct Bounds {
    family: &'static str,
    /// |fixed − f64| for rows on the quantization grid.
    grid: f64,
    /// |fixed − f64| for any row, where the lowering proves one.
    direct: Option<f64>,
    /// What the server adds to a fixed-tier reply's interval.
    widening: f64,
}

impl Bounds {
    fn of(family: &'static str, model: &StoredModel) -> Result<Bounds, String> {
        let fixed = lower(model)?;
        let direct = fixed.direct_error_bound();
        Ok(Bounds {
            family,
            grid: fixed.error_bound(),
            direct,
            widening: direct.unwrap_or_else(|| fixed.error_bound()),
        })
    }
}

/// One count of a counter row.
fn count(rng: &mut Rng) -> f64 {
    COUNT_MIN + rng.unit() * COUNT_SPAN
}

/// `n` counter rows snapped onto the fixed tier's quantization grid.
fn grid_rows(rng: &mut Rng, fixed: &FixedModel, n: usize) -> Vec<Vec<f64>> {
    (0..n)
        .map(|_| {
            let raw: Vec<f64> = (0..fixed.width()).map(|_| count(rng)).collect();
            fixed.snap_row(&raw)
        })
        .collect()
}

/// `SPECS` distinct app specs: DGEMM, FFT, and serial compounds of both,
/// in turn, so every seed's pool holds the same mix of kinds.
fn spec_pool(rng: &mut Rng) -> Vec<String> {
    let mut specs: Vec<String> = Vec::with_capacity(SPECS);
    while specs.len() < SPECS {
        let dgemm = 6_000 + 100 * rng.below(140);
        let fft = 20_000 + 100 * rng.below(120);
        let spec = match specs.len() % 3 {
            0 => format!("dgemm:{dgemm}"),
            1 => format!("fft:{fft}"),
            _ => format!("dgemm:{dgemm};fft:{fft}"),
        };
        if !specs.contains(&spec) {
            specs.push(spec);
        }
    }
    specs
}

/// The forest answering [`FOREST_SET`]: fitted on a fixed synthetic
/// sample, so the model under test is the same in every run.
fn forest_params() -> Result<(ModelParams, f64, usize), String> {
    let mut rng = Rng::new(0xF0_2E57);
    let weights = [3.0e-9, 1.5e-9, 2.0e-8, 5.0e-9];
    let mut x = Vec::with_capacity(256);
    let mut y = Vec::with_capacity(256);
    for _ in 0..256 {
        let row: Vec<f64> = (0..4).map(|_| count(&mut rng)).collect();
        let joules: f64 = row.iter().zip(&weights).map(|(c, w)| c * w).sum();
        y.push(joules * (0.95 + 0.1 * rng.unit()));
        x.push(row);
    }
    let mut forest = RandomForest::new(
        ForestParams {
            n_trees: 32,
            tree: TreeParams::default(),
            sample_fraction: 1.0,
        },
        7,
    );
    forest.fit(&x, &y).map_err(|e| e.to_string())?;
    let squared: f64 = x
        .iter()
        .zip(&y)
        .map(|(row, t)| (forest.predict_one(row) - t).powi(2))
        .sum();
    Ok((
        ModelParams::from_forest(&forest),
        (squared / y.len() as f64).sqrt(),
        y.len(),
    ))
}

/// The in-process service's answers to `lines`, as one op.
fn answer(oracle: &EnergyService, lines: Vec<String>, bounds: &[Bounds]) -> Result<Op, String> {
    let mut expect = Vec::with_capacity(lines.len());
    for line in &lines {
        let parsed = RequestRef::parse(line).map_err(|e| e.to_string())?;
        let on_grid = matches!(parsed, RequestRef::Estimate { .. });
        let (request, tier) = match parsed {
            RequestRef::Estimate {
                platform,
                counts,
                tier,
            } => (
                BatchRequestRef::Counts {
                    platform,
                    counts,
                    tier: Tier::F64,
                },
                tier,
            ),
            RequestRef::EstimateApp {
                platform,
                app,
                tier,
            } => (
                BatchRequestRef::App {
                    platform,
                    app,
                    tier: Tier::F64,
                },
                tier,
            ),
            _ => return Err(format!("not an estimate request: {line}")),
        };
        let answer = oracle
            .estimate_many_ref(&[request])
            .pop()
            .ok_or("no answer")?
            .map_err(|e| format!("{line}: {e}"))?;
        let of_model = bounds
            .iter()
            .find(|b| answer.family == b.family)
            .ok_or(format!(
                "no fixed-tier bound for the {} family",
                answer.family
            ))?;
        let bound = if on_grid {
            Some(of_model.grid)
        } else {
            of_model.direct
        }
        .ok_or(format!(
            "no fixed-tier bound off the grid for the {} family",
            answer.family
        ))?;
        expect.push(Expect {
            tier,
            joules: answer.joules,
            ci: answer.ci_half_width,
            family: answer.family.to_string(),
            version: answer.version,
            bound,
            widening: of_model.widening,
        });
    }
    Ok(Op::new(lines, expect))
}

impl Fixture {
    fn build(shape: Shape, seed: u64) -> Result<Fixture, String> {
        let oracle = Arc::new(
            ServiceConfig::default()
                .build()
                .map_err(|e| e.to_string())?,
        );
        let pmcs = names(&ONLINE_SET);
        // The TRAIN ladder loadgen uses: ten DGEMM and ten FFT sizes.
        let apps: Vec<String> = (0..10)
            .flat_map(|i| {
                [
                    format!("dgemm:{}", 7_000 + 1_900 * i),
                    format!("fft:{}", 23_000 + 1_300 * i),
                ]
            })
            .collect();
        let train = Request::Train {
            platform: PLATFORM.to_string(),
            pmcs: pmcs.clone(),
            apps: apps.clone(),
        }
        .to_line();
        let online = oracle
            .train_online(PLATFORM, &pmcs, &apps)
            .map_err(|e| e.to_string())?;
        let mut rng = Rng::new(seed);
        let online_rows = grid_rows(&mut rng, &lower(&online)?, ROWS);
        if shape == Shape::Rpc {
            let bounds = [Bounds::of("online", &online)?];
            let warm = answer(
                &oracle,
                vec![
                    counts_line(&ONLINE_SET, &online_rows[0], Tier::F64),
                    counts_line(&ONLINE_SET, &online_rows[0], Tier::Fixed),
                ],
                &bounds,
            )?;
            // Op 2r asks for row r on the f64 tier, op 2r + 1 on the fixed tier.
            let ops = online_rows
                .iter()
                .flat_map(|row| {
                    [Tier::F64, Tier::Fixed].map(|tier| counts_line(&ONLINE_SET, row, tier))
                })
                .map(|line| answer(&oracle, vec![line], &bounds))
                .collect::<Result<Vec<_>, _>>()?;
            return Ok(Fixture {
                oracle,
                online,
                forest: None,
                train,
                warm,
                ops,
                specs: Vec::new(),
            });
        }
        let (params, residual_std, training_rows) = forest_params()?;
        let forest = oracle.register(
            PLATFORM,
            "forest",
            names(&FOREST_SET),
            residual_std,
            training_rows,
            params,
        );
        let forest_rows = grid_rows(&mut rng, &lower(&forest)?, ROWS);
        let bounds = [
            Bounds::of("online", &online)?,
            Bounds::of("forest", &forest)?,
        ];
        let specs = spec_pool(&mut rng);
        let mut warm_lines: Vec<String> =
            specs.iter().map(|spec| app_line(spec, Tier::F64)).collect();
        for tier in [Tier::F64, Tier::Fixed] {
            warm_lines.push(counts_line(&ONLINE_SET, &online_rows[0], tier));
            warm_lines.push(counts_line(&FOREST_SET, &forest_rows[0], tier));
        }
        let warm = answer(&oracle, warm_lines, &bounds)?;
        // Half app-level, a quarter on each counter model; each kind
        // alternates between the tiers.
        let ops = (0..BATCHES)
            .map(|_| {
                let lines = (0..DEPTH)
                    .map(|j| {
                        let tier = if (j / 4) % 2 == 0 {
                            Tier::F64
                        } else {
                            Tier::Fixed
                        };
                        match j % 4 {
                            0 | 1 => app_line(&specs[rng.below(SPECS)], tier),
                            2 => counts_line(&ONLINE_SET, &online_rows[rng.below(ROWS)], tier),
                            _ => counts_line(&FOREST_SET, &forest_rows[rng.below(ROWS)], tier),
                        }
                    })
                    .collect();
                answer(&oracle, lines, &bounds)
            })
            .collect::<Result<Vec<_>, _>>()?;
        Ok(Fixture {
            oracle,
            online,
            forest: Some(forest),
            train,
            warm,
            ops,
            specs,
        })
    }
}

pub fn run(args: &Args, shape: Shape) -> Result<Outcome, String> {
    let fixture = Fixture::build(shape, args.seed)?;
    let registry = args
        .out_dir
        .join(format!("registry-{}", std::process::id()));
    let result = if args.trace {
        set_up(args, &fixture, &registry).and_then(|server| trace(args, shape, &fixture, &server))
    } else {
        measure(args, shape, &fixture, &registry)
    };
    let _ = std::fs::remove_dir_all(&registry);
    result
}

/// Start a server from scratch: process start, TRAIN, warm-up.
fn set_up(args: &Args, fixture: &Fixture, registry: &Path) -> Result<Server, String> {
    let mut extra = Vec::new();
    if let Some(forest) = &fixture.forest {
        // A fresh directory each time: the server also writes the model
        // TRAIN fits into it.
        let _ = std::fs::remove_dir_all(registry);
        std::fs::create_dir_all(registry).map_err(|e| format!("{}: {e}", registry.display()))?;
        let file = registry.join("skylake__forest__perfbench__v1.model");
        std::fs::write(&file, encode_entry(forest))
            .map_err(|e| format!("{}: {e}", file.display()))?;
        extra = vec!["--registry".to_string(), registry.display().to_string()];
    }
    let server = Server::start(&args.server_bin, &extra)?;
    let mut conn = server.connect()?;
    let reply = conn.request(&fixture.train)?;
    if !reply.starts_with("OK ") {
        return Err(format!("TRAIN failed: {reply}"));
    }
    let replies = conn.exchange(&fixture.warm.wire, fixture.warm.expect.len())?;
    let wrong = fixture.warm.failures(&replies);
    if wrong > 0 {
        return Err(format!(
            "{wrong} warm-up replies disagree with the in-process service"
        ));
    }
    Ok(server)
}

/// Connections the load generator opens: one thread drives them all.
fn connections(shape: Shape) -> usize {
    match shape {
        Shape::Rpc => 1,
        Shape::Batch => 2,
    }
}

/// A closed loop in lockstep over `conns`, from one thread: each
/// connection is sent its next op, then each one's replies are read,
/// until `deadline`. An op is timed from its first byte sent to its last
/// reply read, and checked after the clock stops. Ops are taken in turn
/// from `ops`, starting at `*next`.
fn drive(
    conns: &mut [Conn],
    ops: &[Op],
    next: &mut usize,
    deadline: Instant,
    out: &mut Outcome,
) -> Result<Vec<Done>, String> {
    let mut done = Vec::with_capacity(1 << 17);
    let mut replies = String::with_capacity(16 << 10);
    let mut sent = Vec::with_capacity(conns.len());
    while Instant::now() < deadline {
        sent.clear();
        for conn in conns.iter_mut() {
            let op = &ops[*next % ops.len()];
            *next += 1;
            sent.push((op, Instant::now()));
            conn.send(&op.wire)?;
        }
        for (conn, (op, at)) in conns.iter_mut().zip(&sent) {
            replies.clear();
            conn.recv_lines(op.expect.len(), &mut replies)?;
            done.push(Done {
                latency_us: us(at.elapsed()),
                ops: op.expect.len() as u32,
            });
            out.attempted += op.expect.len() as u64;
            out.failed += op.failures(&replies);
        }
    }
    Ok(done)
}

/// The untraced run: each round on a server set up from scratch.
fn measure(
    args: &Args,
    shape: Shape,
    fixture: &Fixture,
    registry: &Path,
) -> Result<Outcome, String> {
    let mut out = Outcome {
        threads: 1,
        connections: connections(shape),
        ..Outcome::default()
    };
    let (mut misses, mut next) = (0, 0);
    let rounds = crate::rounds(args.run, |length| {
        let (server, setup_s) = crate::set_up(|| set_up(args, fixture, registry))?;
        let mut conns = (0..connections(shape))
            .map(|_| server.connect())
            .collect::<Result<Vec<_>, _>>()?;
        let misses_before = sys::counter(&conns[0].stats()?, "cache-misses");
        let from = Mark::now(server.cpu_seconds()?)?;
        let done = drive(
            &mut conns,
            &fixture.ops,
            &mut next,
            from.at + length,
            &mut out,
        )?;
        let to = Mark::now(server.cpu_seconds()?)?;
        misses += sys::counter(&conns[0].stats()?, "cache-misses").saturating_sub(misses_before);
        Ok(Round {
            setup_s,
            done,
            from,
            to,
            peak_rss_mb: server.peak_rss_mb()?,
        })
    })?;
    out.note("timed_cache_misses", misses);
    crate::report(&rounds, &mut out)?;
    Ok(out)
}

/// One model as each layer holds it.
struct Kernel {
    model: Arc<StoredModel>,
    compiled: CompiledModel,
    fixed: FixedModel,
}

/// What a traced run replays each op through: the in-process service,
/// and beside it the components a request crosses, holding the same
/// models.
struct Layers {
    service: Arc<EnergyService>,
    router: ShardRouter,
    registry: Registry,
    engine: InferenceEngine,
    cache: RunCache,
    events: Arc<Vec<String>>,
    kernels: Vec<Kernel>,
}

impl Layers {
    fn new(fixture: &Fixture) -> Result<Layers, String> {
        let mut registry = Registry::new();
        let mut kernels = Vec::new();
        for model in std::iter::once(&fixture.online).chain(&fixture.forest) {
            kernels.push(Kernel {
                model: registry.register(
                    PLATFORM,
                    &model.key.family,
                    model.feature_order.clone(),
                    model.residual_std,
                    model.training_rows,
                    model.params.clone(),
                ),
                compiled: CompiledModel::compile(&model.params).map_err(|e| e.to_string())?,
                fixed: lower(model)?,
            });
        }
        let events = Arc::new(fixture.online.feature_order.clone());
        let cache = RunCache::new(256);
        for spec in &fixture.specs {
            cache.insert(run_key(spec, &events), vec![0.0; events.len()]);
        }
        Ok(Layers {
            service: Arc::clone(&fixture.oracle),
            router: ShardRouter::single(Arc::clone(&fixture.oracle)),
            registry,
            engine: InferenceEngine::new(SERVER_WORKERS),
            cache,
            events,
            kernels,
        })
    }

    /// Replay one op's lines through each layer's public functions;
    /// returns the service time (`estimate_many_ref` over the op).
    fn replay(&self, rec: &mut Recorder, op: &Op, shape: Shape) -> Duration {
        let root = rec.open("replay.op");
        let mut requests: Vec<BatchRequestRef<'_>> = Vec::with_capacity(op.lines.len());
        // Counter rows grouped by (kernel, tier), for the batch kernels.
        let mut groups: Vec<(usize, Tier, Vec<Vec<f64>>)> = Vec::new();
        for line in &op.lines {
            match rec.time("serve.protocol.parse", 1, || RequestRef::parse(line)) {
                Ok(RequestRef::Estimate {
                    platform,
                    counts,
                    tier,
                }) => {
                    rec.time("serve.shard.route", 1, || self.router.route(platform));
                    let pmcs: Vec<&str> = counts.iter().map(|(name, _)| *name).collect();
                    let found = rec.time("serve.registry.lookup", 1, || {
                        self.registry.lookup_names(platform, &pmcs)
                    });
                    // Rows are generated in the models' feature order.
                    let row: Vec<f64> = counts.iter().map(|(_, count)| *count).collect();
                    if let Some(k) = found
                        .and_then(|m| self.kernels.iter().position(|k| Arc::ptr_eq(&k.model, &m)))
                    {
                        let model = &self.kernels[k].model;
                        match (shape, tier) {
                            (Shape::Rpc, Tier::F64) => {
                                let _ = rec.time("serve.engine.f64", 1, || {
                                    self.engine.estimate(model, row)
                                });
                            }
                            (Shape::Rpc, Tier::Fixed) => {
                                let _ = rec.time("serve.engine.fixed", 1, || {
                                    self.engine.estimate_fixed(model, row)
                                });
                            }
                            (Shape::Batch, _) => {
                                match groups.iter_mut().find(|(g, t, _)| *g == k && *t == tier) {
                                    Some((_, _, rows)) => rows.push(row),
                                    None => groups.push((k, tier, vec![row])),
                                }
                            }
                        }
                    }
                    requests.push(BatchRequestRef::Counts {
                        platform,
                        counts,
                        tier,
                    });
                }
                Ok(RequestRef::EstimateApp {
                    platform,
                    app,
                    tier,
                }) => {
                    rec.time("serve.shard.route", 1, || self.router.route(platform));
                    let key = run_key(app, &self.events);
                    rec.time("serve.cache.get", 1, || self.cache.get(&key));
                    requests.push(BatchRequestRef::App {
                        platform,
                        app,
                        tier,
                    });
                }
                _ => {}
            }
        }
        let started = Instant::now();
        let _ = rec.time("serve.service.row", requests.len(), || {
            self.service.estimate_many_ref(&requests)
        });
        let service = started.elapsed();
        for (k, tier, rows) in &groups {
            let kernel = &self.kernels[*k];
            let views: Vec<&[f64]> = rows.iter().map(Vec::as_slice).collect();
            let mut out = Vec::with_capacity(rows.len());
            match tier {
                Tier::F64 => {
                    let owned = rows.clone();
                    let _ = rec.time("serve.engine.batch_row", rows.len(), || {
                        self.engine.estimate_batch(&kernel.model, owned)
                    });
                    rec.time("mlkit.compiled.row", rows.len(), || {
                        kernel.compiled.predict_batch_into(&views, &mut out);
                    });
                }
                Tier::Fixed => {
                    let mut batch = FixedBatch::new();
                    rec.time("mlkit.fixed.row", rows.len(), || {
                        kernel.fixed.push_rows(&mut batch, &views);
                        kernel.fixed.predict_batch_into(&mut batch, &mut out);
                    });
                }
            }
        }
        rec.close(root, 1);
        service
    }
}

fn run_key(app: &str, events: &Arc<Vec<String>>) -> RunKey {
    RunKey {
        app: app.to_string(),
        platform: PLATFORM.to_string(),
        seed: SERVER_SEED,
        events: Arc::clone(events),
    }
}

/// The traced run: one connection, each op sent to the server and then
/// replayed through the layers, alternating untraced and traced ops.
fn trace(args: &Args, shape: Shape, fixture: &Fixture, server: &Server) -> Result<Outcome, String> {
    let layers = Layers::new(fixture)?;
    let mut conn = server.connect()?;
    let before = conn.stats()?;
    let mut out = Outcome {
        threads: 1,
        connections: 1,
        ..Outcome::default()
    };
    // Per traced op on `estimate_rpc`: tier, round trip, service time.
    let mut split: Vec<(Tier, f64, f64)> = Vec::new();
    let mut replies = String::new();
    // Pairs of ops alternate, so both tiers are traced on `estimate_rpc`.
    let mut rec = spans::traced_loop(
        args.run,
        |i| (i / 2) % 2 == 1,
        |rec, i| {
            let op = &fixture.ops[i % fixture.ops.len()];
            replies.clear();
            let sent = Instant::now();
            conn.send(&op.wire)?;
            conn.recv_lines(op.expect.len(), &mut replies)?;
            let received = Instant::now();
            rec.record("e2e.request", sent, received);
            out.attempted += op.expect.len() as u64;
            out.failed += op.failures(&replies);
            let service = layers.replay(rec, op, shape);
            if rec.traced() && shape == Shape::Rpc {
                split.push((op.expect[0].tier, us(received - sent), us(service)));
            }
            Ok(())
        },
    )?;
    let after = conn.stats()?;
    let hits =
        sys::counter(&after, "cache-hits").saturating_sub(sys::counter(&before, "cache-hits"));
    let misses =
        sys::counter(&after, "cache-misses").saturating_sub(sys::counter(&before, "cache-misses"));
    let lookups = hits + misses;
    let mut values: Vec<(&str, f64)> = vec![(
        "serve.cache.hit_ratio",
        if lookups > 0 {
            hits as f64 / lookups as f64
        } else {
            0.0
        },
    )];
    if shape == Shape::Rpc {
        // The offline pipeline TRAIN is built from, once per run.
        values.push(paper::replay_once(&mut rec, args.seed)?);
        let transport: Vec<f64> = split
            .iter()
            .map(|(_, rtt, service)| rtt - service)
            .collect();
        values.push(("serve.transport_us", median(&transport)));
        for (tier, names) in [
            (
                Tier::F64,
                [
                    "serve.rpc.f64.latency_p50_us",
                    "serve.rpc.f64.service_us",
                    "serve.rpc.f64.transport_us",
                ],
            ),
            (
                Tier::Fixed,
                [
                    "serve.rpc.fixed.latency_p50_us",
                    "serve.rpc.fixed.service_us",
                    "serve.rpc.fixed.transport_us",
                ],
            ),
        ] {
            let of_tier: Vec<&(Tier, f64, f64)> =
                split.iter().filter(|(t, _, _)| *t == tier).collect();
            let rtt = median(&of_tier.iter().map(|s| s.1).collect::<Vec<_>>());
            let service = median(&of_tier.iter().map(|s| s.2).collect::<Vec<_>>());
            let transport = median(&of_tier.iter().map(|s| s.1 - s.2).collect::<Vec<_>>());
            out.note(
                &format!("{}_p50_split_us", tier.as_str()),
                format!("{rtt:.2} = service {service:.2} + transport {transport:.2}"),
            );
            values.extend([(names[0], rtt), (names[1], service), (names[2], transport)]);
        }
    }
    rec.finish(
        args,
        &mut out,
        "e2e.request",
        &[
            "serve.protocol.parse",
            "serve.shard.route",
            "serve.service.row",
        ],
        values,
    )?;
    Ok(out)
}
