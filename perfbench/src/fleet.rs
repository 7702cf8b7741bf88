//! The fleet workloads, `pod_alphafair` and `population_week`, run
//! through `lingxi_fleet`'s public engine API.
//!
//! The untraced run times one straight `FleetEngine::run`. The traced run
//! repeats it under a span, then kills and resumes the same run at every
//! epoch barrier, then (pod only) reruns it under max-min sharing, and
//! finally replays the allocator, dispatcher and arrival generator on
//! inputs sized like the run's, each under its own layer's span.

use std::path::{Path, PathBuf};
use std::time::Instant;

use lingxi_fleet::{
    AbrMix, AbrPolicy, ContentionConfig, DispatchConfig, Dispatcher, FairnessConfig,
    FleetCheckpoint, FleetConfig, FleetEngine, FleetReport, FleetScenario, PersistenceConfig,
    PopulationDynamics, RunControl, RunOutcome, StaticHash,
};
use lingxi_net::{
    allocate, FairnessObjective, FlowDemand, ProductionMixture, Topology, MAX_SWEEPS,
};
use lingxi_workload::{ArrivalKind, ArrivalProcess, ClassRegistry, Diurnal};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use crate::report::{mix64, Fingerprint, Outcome, Qoe};
use crate::state::{dir_bytes, verify_binlog};
use crate::trace::Tracer;

/// Which fleet workload.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    PodAlphaFair,
    PopulationWeek,
}

/// `pod_alphafair`: static cohort size and link groups.
const POD_USERS: usize = 1_280;
const POD_LINKS: usize = 32;
const POD_EPOCHS: usize = 2;

/// `population_week`: arrivals per simulated day and links.
const WEEK_ARRIVALS_PER_DAY: f64 = 10_000.0;
const WEEK_LINKS: usize = 16;
const WEEK_DAYS: usize = 7;
const DAY_SECONDS: f64 = 86_400.0;

/// Allocator solves per allocator replay.
const ALLOC_SOLVES: usize = 400;
/// Whole-run dispatch and arrival replays.
const DISPATCH_REPLAYS: usize = 20;
const ARRIVAL_REPLAYS: usize = 5;

fn contention(links: usize) -> ContentionConfig {
    ContentionConfig {
        links,
        ..ContentionConfig::default()
    }
}

fn diurnal() -> ArrivalKind {
    ArrivalKind::Diurnal(Diurnal {
        base_rate: WEEK_ARRIVALS_PER_DAY / DAY_SECONDS,
        amplitude: 0.7,
        peak_s: 21.0 * 3600.0,
        period_s: DAY_SECONDS,
    })
}

fn pod_topology() -> Result<Topology, String> {
    lingxi_exp::fairness::pod_topology().map_err(|e| e.to_string())
}

/// The workload's engine configuration and scenario.
pub fn config(
    kind: Kind,
    seed: u64,
    dir: &Path,
    objective: FairnessObjective,
) -> Result<(FleetConfig, FleetScenario), String> {
    let base = FleetConfig {
        shards: 2,
        seed,
        state_dir: dir.to_path_buf(),
        persistence: PersistenceConfig::binary_log(),
        ..FleetConfig::default()
    };
    Ok(match kind {
        Kind::PodAlphaFair => (
            FleetConfig {
                epochs: POD_EPOCHS,
                contention: Some(contention(POD_LINKS)),
                fairness: Some(FairnessConfig {
                    objective,
                    topology: pod_topology()?,
                }),
                ..base
            },
            FleetScenario {
                name: "pod_alphafair".into(),
                n_users: POD_USERS,
                n_videos: 400,
                mean_sessions_per_epoch: 2.0,
                mixture: ProductionMixture::default(),
                abr_mix: AbrMix::default(),
            },
        ),
        Kind::PopulationWeek => (
            FleetConfig {
                epochs: WEEK_DAYS,
                checkpoint_every: 1,
                contention: Some(contention(WEEK_LINKS)),
                dynamics: Some(PopulationDynamics {
                    arrivals: diurnal(),
                    registry: ClassRegistry::default_heterogeneous(),
                    day_seconds: DAY_SECONDS,
                }),
                dispatch: Some(DispatchConfig::lsq(2)),
                ..base
            },
            FleetScenario {
                name: "population_week".into(),
                n_videos: 400,
                ..FleetScenario::default()
            },
        ),
    })
}

fn fresh_dir(dir: &Path) -> Result<(), String> {
    let _ = std::fs::remove_dir_all(dir);
    std::fs::create_dir_all(dir).map_err(|e| format!("create {dir:?}: {e}"))
}

/// Exact-bit fingerprint of a report's simulated outputs.
fn fingerprint(r: &FleetReport) -> Result<String, String> {
    let mut f = Fingerprint::new();
    f.str(&serde_json::to_string(&r.merged_metrics()).map_err(|e| e.to_string())?);
    f.str(&serde_json::to_string(&r.merged_sketches()).map_err(|e| e.to_string())?);
    f.str(&serde_json::to_string(&r.dispatch_epochs()).map_err(|e| e.to_string())?);
    f.u64(r.sessions as u64);
    f.u64(r.segments as u64);
    f.u64(r.users as u64);
    Ok(f.hex())
}

/// The user ids whose long-term state the run must have persisted: every
/// LingXi-managed (HYB) user of every epoch's cohort. A static cohort has
/// ids `0..n_users`; a dynamic epoch `e` with `n` arrivals has ids
/// `(e << 32) | i` for `i < n`, and its arrivals are its placements.
fn expected_ids(kind: Kind, scenario: &FleetScenario, report: &FleetReport) -> Vec<u64> {
    let mix = scenario.abr_mix;
    let ids: Vec<u64> = match kind {
        Kind::PodAlphaFair => (0..scenario.n_users as u64).collect(),
        Kind::PopulationWeek => report
            .epochs
            .iter()
            .flat_map(|e| {
                let n: u64 = e.dispatch.as_ref().map_or(0, |d| d.placements.iter().sum());
                (0..n).map(move |i| ((e.epoch as u64) << 32) | i)
            })
            .collect(),
    };
    ids.into_iter()
        .filter(|&id| mix.policy_for(id) == AbrPolicy::Hyb)
        .collect()
}

/// Straight run: build the engine and run to completion.
fn run_straight(
    config: &FleetConfig,
    scenario: &FleetScenario,
) -> Result<(FleetReport, f64), String> {
    fresh_dir(&config.state_dir)?;
    let t0 = Instant::now();
    let report = FleetEngine::new(config.clone())
        .and_then(|e| e.run(scenario))
        .map_err(|e| e.to_string())?;
    Ok((report, t0.elapsed().as_secs_f64()))
}

/// Checks every run of a fleet workload gets, traced or not.
fn check_report(kind: Kind, report: &FleetReport, out: &mut Outcome) {
    if !report.state_warnings.is_empty() {
        out.fail(format!("{} state warnings", report.state_warnings.len()));
    }
    if kind == Kind::PopulationWeek {
        for e in &report.epochs {
            let placed: u64 = e.dispatch.as_ref().map_or(0, |d| d.placements.iter().sum());
            if placed == 0 {
                out.fail(format!(
                    "epoch {} placed no user: dispatch did not run",
                    e.epoch
                ));
            }
        }
    }
}

fn report_outcome(kind: Kind, report: &FleetReport, run_s: f64) -> Result<Outcome, String> {
    let loop_s = report.elapsed.as_secs_f64();
    let mut out = Outcome::new(run_s - loop_s, loop_s);
    out.timed_s = run_s;
    out.sessions = report.sessions;
    out.epoch_sessions = report.epochs.iter().map(|e| e.all.sessions).collect();
    out.segments = report.segments;
    let days: Vec<_> = report.merged_metrics();
    out.qoe = Qoe::from_days(&days);
    out.fingerprint = fingerprint(report)?;
    check_report(kind, report, &mut out);

    let epochs = report.epochs.len().max(1) as f64;
    let flushed: usize = report.epochs.iter().map(|e| e.flushed).sum();
    out.counter("fleet.flushed", flushed as f64 / epochs);
    out.counter(
        "fleet.segments_per_session",
        report.segments as f64 / report.sessions.max(1) as f64,
    );
    out.counter("core.cache.hits", report.cache.hits as f64);
    out.counter("core.cache.misses", report.cache.misses as f64);
    out.counter("core.cache.evictions", report.cache.evictions as f64);
    out.counter("core.cache.writes", report.cache.writes as f64);
    let placements: u64 = report
        .epochs
        .iter()
        .filter_map(|e| e.dispatch.as_ref())
        .map(|d| d.placements.iter().sum::<u64>())
        .sum();
    out.counter("fleet.dispatch.placements", placements as f64);
    out.counter(
        "fleet.dispatch.max_weighted_occupancy",
        report.max_weighted_occupancy().unwrap_or(0.0),
    );
    let arrivals = if kind == Kind::PopulationWeek {
        report.users
    } else {
        0
    };
    out.counter("workload.arrivals", arrivals as f64);
    Ok(out)
}

/// One run of a fleet workload.
pub fn run(kind: Kind, seed: u64, dir: &Path, traced: bool) -> Result<Outcome, String> {
    let straight_dir = dir.join("straight");
    let (config, scenario) = config(kind, seed, &straight_dir, FairnessObjective::AlphaFair(2.0))?;
    let mut tracer = traced.then(|| Tracer::new("bench"));
    let span = tracer.as_mut().map(|t| t.enter("fleet.engine"));
    let (report, run_s) = run_straight(&config, &scenario)?;
    if let (Some(t), Some(id)) = (tracer.as_mut(), span) {
        t.exit(id);
    }
    let mut out = report_outcome(kind, &report, run_s)?;
    out.state_bytes = dir_bytes(&straight_dir);
    let optimizations = verify_binlog(
        &straight_dir,
        &expected_ids(kind, &scenario, &report),
        &mut out,
        tracer.as_mut(),
    )?;
    out.counter("core.controller.optimizations", optimizations as f64);
    let Some(mut t) = tracer else {
        return Ok(out);
    };

    out.traced_run_s = run_s;
    stepped(kind, seed, dir, &report, run_s, &mut out, &mut t)?;
    if kind == Kind::PodAlphaFair {
        ablation(seed, dir, &report, run_s, &mut out, &mut t)?;
    } else {
        out.counter("net.fairness.share", 0.0);
    }
    replay_allocator(kind, seed, &config, &report, &mut out, &mut t)?;
    replay_dispatch(kind, seed, &config, &report, &mut out, &mut t);
    replay_arrivals(kind, seed, &config, &mut out, &mut t);
    t.finish();
    out.trace = Some(t);
    Ok(out)
}

/// Kill and resume at every barrier: a fresh engine per epoch, each
/// suspending after one epoch. The merged outputs must equal the
/// straight run's, and every barrier must leave a manifest.
fn stepped(
    kind: Kind,
    seed: u64,
    dir: &Path,
    straight: &FleetReport,
    straight_s: f64,
    out: &mut Outcome,
    t: &mut Tracer,
) -> Result<(), String> {
    let step_dir: PathBuf = dir.join("stepped");
    fresh_dir(&step_dir)?;
    let (config, scenario) = config(kind, seed, &step_dir, FairnessObjective::AlphaFair(2.0))?;
    let mut epoch_s = Vec::new();
    let mut manifests = Vec::new();
    let mut load_s = Vec::new();
    let mut barrier = 0usize;
    let report = loop {
        let span = t.enter("fleet.engine");
        let t0 = Instant::now();
        let outcome = FleetEngine::new(config.clone())
            .and_then(|e| {
                e.run_resumable(
                    &scenario,
                    RunControl {
                        resume: barrier > 0,
                        stop_after_epochs: Some(1),
                    },
                )
            })
            .map_err(|e| e.to_string())?;
        epoch_s.push(t0.elapsed().as_secs_f64());
        t.exit(span);
        match outcome {
            RunOutcome::Complete(report) => break report,
            RunOutcome::Suspended(ckpt) => {
                barrier += 1;
                let path = FleetCheckpoint::path_in(&step_dir);
                if !path.exists() || ckpt.next_epoch != barrier {
                    out.fail(format!("no manifest after stepped barrier {barrier}"));
                }
                // The configured cadence's own checkpoints.
                if config.checkpoint_every > 0 && barrier.is_multiple_of(config.checkpoint_every) {
                    let span = t.enter("fleet.checkpoint");
                    let t1 = Instant::now();
                    let loaded = FleetCheckpoint::load(&step_dir).map_err(|e| e.to_string())?;
                    load_s.push(t1.elapsed().as_secs_f64());
                    t.exit(span);
                    if loaded.as_ref() != Some(&ckpt) {
                        out.fail(format!("manifest at barrier {barrier} does not reload"));
                    }
                    manifests.push(std::fs::metadata(&path).map_or(0, |m| m.len()));
                }
            }
        }
        if barrier > config.epochs {
            return Err("stepped run did not complete".into());
        }
    };
    if fingerprint(&report)? != fingerprint(straight)? {
        out.fail("stepped (kill/resume at every barrier) run differs from the straight run");
    }
    let total: f64 = epoch_s.iter().sum();
    out.counter("fleet.epoch_s", total / epoch_s.len() as f64);
    out.counter("fleet.resume_overhead_s", total - straight_s);
    out.counter("fleet.checkpoint.manifest_bytes", mean_u64(&manifests));
    out.counter("fleet.checkpoint.load_s", mean(&load_s));
    let _ = std::fs::remove_dir_all(&step_dir);
    Ok(())
}

/// The same run under max-min sharing: the α-fair solver's share of the
/// run is the per-session time it adds over the water-fill.
fn ablation(
    seed: u64,
    dir: &Path,
    straight: &FleetReport,
    straight_s: f64,
    out: &mut Outcome,
    t: &mut Tracer,
) -> Result<(), String> {
    let abl_dir = dir.join("maxmin");
    let (config, scenario) = config(
        Kind::PodAlphaFair,
        seed,
        &abl_dir,
        FairnessObjective::MaxMin,
    )?;
    let span = t.enter("fleet.engine");
    let (report, abl_s) = run_straight(&config, &scenario)?;
    t.exit(span);
    let per_alpha = straight_s / straight.sessions.max(1) as f64;
    let per_maxmin = abl_s / report.sessions.max(1) as f64;
    out.counter("net.fairness.share", 1.0 - per_maxmin / per_alpha);
    let _ = std::fs::remove_dir_all(&abl_dir);
    Ok(())
}

/// Flows per allocator solve: the run's per-link concurrency. The pod's
/// static cohort arrives inside one arrival window, so a link group
/// carries about its whole share of users at once; a dynamic population
/// carries arrival rate × session length, at the diurnal peak.
fn concurrency(kind: Kind, config: &FleetConfig, report: &FleetReport) -> usize {
    let links = config.contention.as_ref().map_or(1, |c| c.links) as f64;
    let c = match kind {
        Kind::PodAlphaFair => report.users as f64 / links,
        Kind::PopulationWeek => {
            let watch = Qoe::from_days(&report.merged_metrics()).watch_s;
            let per_day = report.sessions as f64 / report.epochs.len().max(1) as f64;
            per_day * watch / DAY_SECONDS / links * 1.7
        }
    };
    (c.ceil() as usize).max(1)
}

/// Replay `lingxi_net::allocate` on flow sets drawn like the run's: caps
/// from the production mixture times the access-cap factor, routes
/// uniform over the topology, set sizes uniform in `1..=concurrency`.
fn replay_allocator(
    kind: Kind,
    seed: u64,
    config: &FleetConfig,
    report: &FleetReport,
    out: &mut Outcome,
    t: &mut Tracer,
) -> Result<(), String> {
    let (topo, objective) = match &config.fairness {
        Some(f) => (f.topology.clone(), f.objective),
        None => (
            Topology::single_link(
                config
                    .contention
                    .as_ref()
                    .map_or(25_000.0, |c| c.capacity_kbps),
            )
            .map_err(|e| e.to_string())?,
            FairnessObjective::MaxMin,
        ),
    };
    let cap_factor = config
        .contention
        .as_ref()
        .map_or(1.5, |c| c.access_cap_factor);
    let c_max = concurrency(kind, config, report);
    let mut rng = StdRng::seed_from_u64(mix64(seed ^ 0xA110_C47E));
    let mixture = ProductionMixture::default();
    let inputs: Vec<Vec<FlowDemand>> = (0..ALLOC_SOLVES)
        .map(|_| {
            let k = rng.gen_range(1..=c_max);
            (0..k)
                .map(|_| {
                    let cap = mixture.sample_profile(&mut rng).mean_kbps * cap_factor;
                    FlowDemand::new(cap, rng.gen_range(0..topo.n_routes()) as u16)
                })
                .collect()
        })
        .collect();
    let span = t.enter("net.fairness");
    let t0 = Instant::now();
    let mut sweeps = 0usize;
    let mut unconverged = 0usize;
    let mut kkt = 0.0f64;
    for flows in &inputs {
        let a = allocate(&topo, objective, flows).map_err(|e| e.to_string())?;
        sweeps += a.sweeps;
        unconverged += usize::from(a.sweeps >= MAX_SWEEPS);
        kkt = kkt.max(a.kkt_residual);
    }
    let elapsed = t0.elapsed().as_secs_f64();
    t.exit(span);
    if kind == Kind::PodAlphaFair && sweeps == 0 {
        out.fail("allocator replay recorded no sweep: the alpha-fair solver did not run");
    }
    out.counter(
        "net.fairness.allocate_us",
        1e6 * elapsed / ALLOC_SOLVES as f64,
    );
    out.counter(
        "net.fairness.sweeps_per_solve",
        sweeps as f64 / ALLOC_SOLVES as f64,
    );
    out.counter("net.fairness.unconverged", unconverged as f64);
    out.counter("net.fairness.kkt_residual_max", kkt);
    out.counter("net.fairness.flows_max", c_max as f64);
    Ok(())
}

/// Replay the run's placements through a fresh dispatcher: per epoch a
/// barrier refresh from the previous epoch's placements, then one
/// `place` per cohort user. The pod has no dispatch layer and places by
/// the static hash.
fn replay_dispatch(
    kind: Kind,
    seed: u64,
    config: &FleetConfig,
    report: &FleetReport,
    out: &mut Outcome,
    t: &mut Tracer,
) {
    let links = config.contention.as_ref().map_or(1, |c| c.links);
    let cohorts: Vec<u64> = match kind {
        Kind::PodAlphaFair => vec![report.users as u64; report.epochs.len()],
        Kind::PopulationWeek => report
            .epochs
            .iter()
            .map(|e| e.dispatch.as_ref().map_or(0, |d| d.placements.iter().sum()))
            .collect(),
    };
    let build = || -> Box<dyn Dispatcher> {
        match (&config.dispatch, &config.dynamics) {
            (Some(d), Some(dynamics)) => {
                let cap = config
                    .contention
                    .as_ref()
                    .map_or(25_000.0, |c| c.capacity_kbps);
                let weights = (0..links as u64)
                    .map(|l| dynamics.registry.capacity_weight_of(seed, l, cap))
                    .collect();
                d.build(seed, weights)
            }
            _ => Box::new(StaticHash::new(seed, links)),
        }
    };
    let mut rng = StdRng::seed_from_u64(mix64(seed ^ 0xD15_7A7C));
    let span = t.enter("fleet.dispatch");
    let t0 = Instant::now();
    let mut placed = 0u64;
    let mut sink = 0u64;
    for _ in 0..DISPATCH_REPLAYS {
        let mut dispatcher = build();
        let mut snapshot = vec![0u64; links];
        for &n in &cohorts {
            dispatcher.refresh(&snapshot);
            snapshot.iter_mut().for_each(|c| *c = 0);
            for id in 0..n {
                let link = dispatcher.place(id, rng.gen());
                snapshot[link as usize] += 1;
            }
            placed += n;
        }
        sink = sink.wrapping_add(snapshot[0]);
    }
    let elapsed = t0.elapsed().as_secs_f64();
    t.exit(span);
    std::hint::black_box(sink);
    out.counter(
        "fleet.dispatch.place_ns",
        1e9 * elapsed / placed.max(1) as f64,
    );
}

/// Replay the week's arrival generator, one schedule per simulated day.
fn replay_arrivals(kind: Kind, seed: u64, config: &FleetConfig, out: &mut Outcome, t: &mut Tracer) {
    let Some(dynamics) = config
        .dynamics
        .as_ref()
        .filter(|_| kind == Kind::PopulationWeek)
    else {
        out.counter("workload.gen_ns_per_arrival", 0.0);
        return;
    };
    let span = t.enter("workload");
    let t0 = Instant::now();
    let mut events = 0usize;
    for r in 0..ARRIVAL_REPLAYS as u64 {
        for day in 0..config.epochs as u64 {
            let s = mix64(seed ^ mix64((r << 8) | day));
            events += dynamics
                .arrivals
                .events(dynamics.day_seconds, s, &dynamics.registry)
                .len();
        }
    }
    let elapsed = t0.elapsed().as_secs_f64();
    t.exit(span);
    out.counter(
        "workload.gen_ns_per_arrival",
        1e9 * elapsed / events.max(1) as f64,
    );
}

fn mean(v: &[f64]) -> f64 {
    if v.is_empty() {
        0.0
    } else {
        v.iter().sum::<f64>() / v.len() as f64
    }
}

fn mean_u64(v: &[u64]) -> f64 {
    if v.is_empty() {
        0.0
    } else {
        v.iter().sum::<u64>() as f64 / v.len() as f64
    }
}
