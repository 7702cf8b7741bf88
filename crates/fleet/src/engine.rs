//! The sharded fleet engine: shard workers, epoch barriers, deterministic
//! streaming metric merge.
//!
//! Determinism model: every (user, epoch) derives its own RNG stream from
//! the base seed alone — never from the shard id or thread schedule — and
//! a user's long-term state is only ever touched by the worker that owns
//! the user in that epoch. Any partition of users over shards therefore
//! computes identical per-user results. Metrics are held as bounded-memory
//! streaming accumulators: one [`lingxi_abtest::DayAccum`] per user
//! (sessions folded in play order) merged at the epoch barrier in
//! ascending user-id order, plus integer-binned
//! [`crate::report::EpochSketches`] whose merge is exactly
//! order-independent — so merged metrics are bit-identical for any shard
//! count without ever materialising per-session records.
//!
//! In population-dynamics mode (see
//! [`crate::config::PopulationDynamics`]) the per-epoch cohort is not a
//! fixed population: an arrival process emits `(time, class)` events, each
//! materialised into a transient classed user who joins a shared link at
//! its arrival time and departs when its session budget drains.

use std::sync::Arc;
use std::time::{Duration, Instant};

use lingxi_abr::AbrContext;
use lingxi_abtest::{did_report, AbSchedule, DayAccum};
use lingxi_core::{
    run_managed_session_in, BinaryStateLog, LingXiController, ProfilePredictor, SessionBuffers,
    ShardedStateCache, StateBackend,
};
use lingxi_media::{BitrateLadder, Catalog, CatalogConfig, VbrModel};
use lingxi_player::{run_session, ExitDecision, SessionSetup};
use lingxi_user::{
    ExitModel, PopulationConfig, SegmentView, ToleranceDrift, UserPopulation, UserRecord,
};
use lingxi_workload::ArrivalProcess;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use crate::checkpoint::FleetCheckpoint;
use crate::config::{AbrPolicy, FleetConfig, FleetScenario, PopulationDynamics};
use crate::dispatch::{DispatchConfig, DispatchEpoch, Dispatcher};
use crate::report::{EpochMetrics, EpochSketches, FleetReport};
use crate::{mix64, sub, FleetError, Result};

/// Controls for a resumable run ([`FleetEngine::run_resumable`]).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct RunControl {
    /// Resume from the checkpoint manifest in the state directory
    /// (refused when none exists or it was written by a run with a
    /// different scenario or output-relevant configuration — see
    /// [`FleetCheckpoint::config_fingerprint`]).
    pub resume: bool,
    /// Suspend — compact the backend, write a checkpoint, return
    /// [`RunOutcome::Suspended`] — after this many epochs have run in
    /// *this* invocation (a controlled kill at the epoch barrier).
    /// `None` (and `Some(0)`) run to completion.
    pub stop_after_epochs: Option<usize>,
}

/// Outcome of [`FleetEngine::run_resumable`].
#[derive(Debug)]
pub enum RunOutcome {
    /// The run finished; any checkpoint manifest was removed. Boxed: a
    /// report is hundreds of bytes and the variant would otherwise
    /// dominate the enum's size.
    Complete(Box<FleetReport>),
    /// The run suspended at an epoch barrier; the manifest it wrote is
    /// returned and a `resume: true` run continues from it.
    Suspended(FleetCheckpoint),
}

/// One user's slot in an epoch: the record plus the population-dynamics
/// tags (first-arrival time and class index) when active.
#[derive(Debug, Clone, Copy)]
pub(crate) struct EpochUser {
    pub(crate) record: UserRecord,
    /// Absolute arrival time within the epoch (dynamics mode).
    pub(crate) arrival: Option<f64>,
    /// Index into the dynamics registry's user classes.
    pub(crate) class: Option<u16>,
    /// The shared link this user's sessions contend on this epoch. Only
    /// the dispatch pass writes it (contention mode); shard ownership
    /// follows it there.
    pub(crate) link: u64,
}

/// One user's epoch, reduced to bounded-memory accumulators by the shard
/// worker that owned the user.
pub(crate) struct UserEpochRow {
    pub(crate) user_id: u64,
    pub(crate) class: Option<u16>,
    pub(crate) day: DayAccum,
}

/// Everything one shard worker hands to the epoch barrier.
pub(crate) struct ShardEpochOutput {
    pub(crate) rows: Vec<UserEpochRow>,
    pub(crate) sketches: EpochSketches,
}

/// The fleet-simulation engine.
#[derive(Debug)]
pub struct FleetEngine {
    config: FleetConfig,
}

impl FleetEngine {
    /// Create an engine; validates the configuration.
    pub fn new(config: FleetConfig) -> Result<Self> {
        config.validate()?;
        Ok(Self { config })
    }

    /// The engine configuration.
    pub fn config(&self) -> &FleetConfig {
        &self.config
    }

    /// Which shard owns a user. In contention mode ownership follows the
    /// user's *link*, so every link's co-simulation stays whole on one
    /// shard and the shard-count invariance survives contention — under
    /// any dispatch policy, since placement never consults the shard
    /// count.
    fn shard_of(&self, user: &EpochUser) -> usize {
        match &self.config.contention {
            Some(_) => (mix64(user.link) % self.config.shards as u64) as usize,
            None => (mix64(user.record.id) % self.config.shards as u64) as usize,
        }
    }

    /// Real capacity of one shared link (kbps): the link-class registry's
    /// in dynamics mode, else the base contention capacity scaled by the
    /// link's dispatch capacity weight (weight 1.0 when none is set —
    /// heterogeneous weights are physical, not just planning inputs).
    pub(crate) fn link_capacity_kbps(&self, link_id: u64) -> f64 {
        let contention = self
            .config
            .contention
            .as_ref()
            .expect("link capacity only meaningful in contention mode");
        match &self.config.dynamics {
            Some(d) => {
                d.registry
                    .link_class_of(self.config.seed, link_id)
                    .capacity_kbps
            }
            None => {
                let weight = self
                    .config
                    .dispatch
                    .as_ref()
                    .and_then(|d| d.capacity_weights.get(link_id as usize))
                    .copied()
                    .unwrap_or(1.0);
                contention.capacity_kbps * weight
            }
        }
    }

    /// Per-link capacity weights the dispatch layer plans with: explicit
    /// config weights, else derived from the dynamics link-class registry
    /// (class capacity / base capacity — see
    /// [`lingxi_workload::ClassRegistry::capacity_weight_of`]), else
    /// uniform.
    fn dispatch_weights(&self) -> Vec<f64> {
        let Some(contention) = &self.config.contention else {
            return Vec::new();
        };
        if let Some(dispatch) = &self.config.dispatch {
            if !dispatch.capacity_weights.is_empty() {
                return dispatch.capacity_weights.clone();
            }
        }
        match &self.config.dynamics {
            Some(d) => (0..contention.links as u64)
                .map(|l| {
                    d.registry
                        .capacity_weight_of(self.config.seed, l, contention.capacity_kbps)
                })
                .collect(),
            None => vec![1.0; contention.links],
        }
    }

    /// The topology route a user's flows take in fairness mode. Derived
    /// from (seed, user id) only — never from the shard count.
    pub(crate) fn route_of(&self, user_id: u64, n_routes: usize) -> u16 {
        (mix64(self.config.seed ^ mix64(user_id ^ 0xFA1C_0DE5_0F4A_11CE)) % n_routes as u64) as u16
    }

    /// Per-(user, epoch) RNG stream, independent of shard count.
    pub(crate) fn stream_seed(&self, user_id: u64, epoch: usize) -> u64 {
        mix64(self.config.seed ^ mix64(user_id) ^ mix64((epoch as u64) << 17 | 0x5EED))
    }

    /// Seed of one epoch's arrival schedule (dynamics mode).
    fn arrival_seed(&self, epoch: usize) -> u64 {
        mix64(self.config.seed ^ mix64((epoch as u64) ^ 0xA771_0A15_EED5_0000))
    }

    /// Whether this user's sessions run under LingXi management in `epoch`
    /// (A/B mode gates the odd-id treatment cohort on the intervention).
    pub(crate) fn lingxi_active(&self, user_id: u64, epoch: usize) -> bool {
        match &self.config.ab {
            None => true,
            Some(ab) => user_id % 2 == 1 && epoch >= ab.intervention_epoch,
        }
    }

    /// The epoch's dynamic cohort: arrival events materialised into
    /// transient classed users. Pure in `(config, epoch)`.
    fn dynamic_epoch_users(&self, dynamics: &PopulationDynamics, epoch: usize) -> Vec<EpochUser> {
        let events = dynamics.arrivals.events(
            dynamics.day_seconds,
            self.arrival_seed(epoch),
            &dynamics.registry,
        );
        events
            .iter()
            .enumerate()
            .map(|(i, e)| {
                // Ids are unique across epochs so managed state never
                // aliases between transient users.
                let id = ((epoch as u64) << 32) | i as u64;
                let record =
                    dynamics.registry.users[e.class as usize].sample_user(self.config.seed, id);
                EpochUser {
                    record,
                    arrival: Some(e.at),
                    class: Some(e.class),
                    link: 0,
                }
            })
            .collect()
    }

    /// Partition an epoch's users over shards (ascending id per shard).
    fn shard_partition(&self, users: Vec<EpochUser>) -> Vec<Vec<EpochUser>> {
        let mut shard_users: Vec<Vec<EpochUser>> = vec![Vec::new(); self.config.shards];
        for user in users {
            shard_users[self.shard_of(&user)].push(user);
        }
        shard_users
    }

    /// One epoch's dispatch pass: refresh the dispatcher's estimates from
    /// the barrier snapshot (stale by exactly one epoch), place every
    /// cohort user in ascending-id cohort order, and record the epoch's
    /// placements. Pure in (seed, epoch, snapshot) — the cohort order and
    /// every stream seed derive from those alone.
    fn dispatch_epoch(
        &self,
        dispatcher: &mut dyn Dispatcher,
        cohort: &mut [EpochUser],
        epoch: usize,
        snapshot: &[u64],
        weights: &[f64],
    ) -> DispatchEpoch {
        dispatcher.refresh(snapshot);
        let mut placements = vec![0u64; weights.len()];
        for user in cohort.iter_mut() {
            let id = user.record.id;
            user.link = dispatcher.place(id, self.stream_seed(id, epoch));
            placements[user.link as usize] += 1;
        }
        let max_weighted_occupancy = placements
            .iter()
            .zip(weights)
            .map(|(&c, &w)| c as f64 / w)
            .fold(0.0, f64::max);
        DispatchEpoch {
            placements,
            max_weighted_occupancy,
            dispatcher_loads: dispatcher.dispatcher_loads().to_vec(),
        }
    }

    /// Run one scenario to completion.
    pub fn run(&self, scenario: &FleetScenario) -> Result<FleetReport> {
        match self.run_resumable(scenario, RunControl::default())? {
            RunOutcome::Complete(report) => Ok(*report),
            RunOutcome::Suspended(_) => Err(FleetError::Subsystem(
                "run without a stop control cannot suspend".into(),
            )),
        }
    }

    /// Run one scenario with checkpoint/resume control.
    ///
    /// Determinism contract: immediately after barrier `k` every user's
    /// long-term state is durable and epoch `k+1` is a pure function of
    /// (config, scenario, durable state) — the per-(user, epoch) RNG
    /// streams derive from the base seed alone. A run suspended at any
    /// barrier and resumed therefore produces merged metrics and sketches
    /// bit-identical to an uninterrupted run (tested at 1/4/8 shards in
    /// `tests/checkpoint_resume.rs`).
    pub fn run_resumable(
        &self,
        scenario: &FleetScenario,
        control: RunControl,
    ) -> Result<RunOutcome> {
        scenario.validate()?;

        // World construction is deterministic from (seed, scenario).
        let mut world_rng = StdRng::seed_from_u64(self.config.seed);
        let catalog = Catalog::generate(
            BitrateLadder::default_short_video(),
            &CatalogConfig {
                n_videos: scenario.n_videos,
                vbr: VbrModel::default_vbr(),
                ..CatalogConfig::default()
            },
            &mut world_rng,
        )
        .map_err(sub)?;

        // The static cohort replays every epoch; in dynamics mode it stays
        // empty and each epoch's arrivals form the cohort instead.
        let static_population: Vec<EpochUser> = match &self.config.dynamics {
            Some(_) => Vec::new(),
            None => UserPopulation::generate(
                &PopulationConfig {
                    n_users: scenario.n_users,
                    mixture: scenario.mixture,
                    mean_sessions_per_day: scenario.mean_sessions_per_epoch,
                },
                &mut world_rng,
            )
            .map_err(sub)?
            .users()
            .iter()
            .map(|u| EpochUser {
                record: *u,
                arrival: None,
                class: None,
                link: 0,
            })
            .collect(),
        };

        // Durable layer + cache; surface the startup scan (torn log
        // tails) instead of silently dropping users.
        let backend: Arc<dyn StateBackend> = Arc::new(
            BinaryStateLog::open(&self.config.state_dir, self.config.persistence.log)
                .map_err(sub)?,
        );
        let state_warnings = backend.scan().map_err(sub)?.warnings;
        let cache = ShardedStateCache::with_backend(Arc::clone(&backend), self.config.cache)
            .map_err(sub)?;

        // Resume: adopt the manifest's accumulators and epoch cursor. The
        // durable backend already holds every state the checkpointed run
        // flushed at its last barrier. A manifest written under any other
        // scenario or output-relevant configuration is refused: resuming
        // it would splice two different runs.
        let fingerprint = FleetCheckpoint::config_fingerprint(&self.config, scenario);
        let resumed = if control.resume {
            let ckpt = FleetCheckpoint::load(&self.config.state_dir)?.ok_or_else(|| {
                FleetError::InvalidConfig(format!(
                    "resume requested but no checkpoint manifest in {:?}",
                    self.config.state_dir
                ))
            })?;
            if ckpt.fingerprint != fingerprint {
                return Err(FleetError::InvalidConfig(format!(
                    "checkpoint (seed {}, {} epochs, scenario {:?}, config {:016x}) does not \
                     match this run (seed {}, {} epochs, scenario {:?}, config {:016x})",
                    ckpt.seed,
                    ckpt.total_epochs,
                    ckpt.scenario,
                    ckpt.fingerprint,
                    self.config.seed,
                    self.config.epochs,
                    scenario.name,
                    fingerprint
                )));
            }
            Some(ckpt)
        } else {
            None
        };

        let n_classes = self
            .config
            .dynamics
            .as_ref()
            .map(|d| d.registry.users.len())
            .unwrap_or(0);

        // One contention scratch per shard, reused across every epoch so
        // the contended hot path allocates nothing in steady state.
        let scratches: Vec<std::sync::Mutex<crate::contention::ContentionScratch>> =
            (0..self.config.shards)
                .map(|_| std::sync::Mutex::new(crate::contention::ContentionScratch::default()))
                .collect();

        // detlint::allow(wall_clock, reason = "wall-time reporting only; never feeds simulated state or metrics")
        let start = Instant::now();
        // A resumed run adopts the checkpoint's counters.
        let (start_epoch, mut epochs, mut sessions, mut segments, mut users_total, prior_elapsed) =
            match resumed {
                Some(c) => (
                    c.next_epoch,
                    c.epochs,
                    c.sessions,
                    c.segments,
                    c.users_total,
                    Duration::from_secs_f64(c.elapsed_s),
                ),
                None => (
                    0,
                    Vec::with_capacity(self.config.epochs),
                    0usize,
                    0usize,
                    0usize,
                    Duration::ZERO,
                ),
            };
        // Dispatch layer (contention mode): one dispatcher for the whole
        // run — the configured policy, else the static hash. Its
        // estimates refresh at every epoch barrier from the previous
        // epoch's placement snapshot (the stale-information regime). A
        // resumed run re-seeds the snapshot from the manifest's last
        // completed epoch (zeros before epoch 0), so resume stays
        // bit-identical to an uninterrupted run.
        let dispatch_weights = self.dispatch_weights();
        let mut dispatcher = self.config.contention.as_ref().map(|_| {
            self.config
                .dispatch
                .clone()
                .unwrap_or_else(DispatchConfig::static_hash)
                .build(self.config.seed, dispatch_weights.clone())
        });
        let mut dispatch_snapshot: Vec<u64> = epochs
            .last()
            .and_then(|e: &EpochMetrics| e.dispatch.as_ref())
            .map(|d| d.placements.clone())
            .unwrap_or_else(|| vec![0; dispatch_weights.len()]);
        for epoch in start_epoch..self.config.epochs {
            // ---- epoch pipeline: cohort → place → partition ----
            let mut cohort = match &self.config.dynamics {
                Some(d) => self.dynamic_epoch_users(d, epoch),
                None => static_population.clone(),
            };
            // The static cohort is the same users every epoch: count it
            // once. A resumed run never re-runs epoch 0.
            if self.config.dynamics.is_some() || epoch == 0 {
                // detlint::allow(unordered_float_merge, reason = "usize cohort size; integer addition is order-free")
                users_total += cohort.len();
            }
            // Placement is recorded only for a configured dispatch layer,
            // so `dispatch: None` reports stay byte-identical.
            let dispatch_info = dispatcher
                .as_mut()
                .map(|dsp| {
                    let info = self.dispatch_epoch(
                        dsp.as_mut(),
                        &mut cohort,
                        epoch,
                        &dispatch_snapshot,
                        &dispatch_weights,
                    );
                    dispatch_snapshot.clone_from(&info.placements);
                    info
                })
                .filter(|_| self.config.dispatch.is_some());
            let shard_users = self.shard_partition(cohort);

            // ---- parallel phase: one worker per shard ----
            //
            // Shards are fully independent within an epoch and the barrier
            // below folds their outputs in shard order, so running them on
            // worker threads or one after another on the current thread
            // produces the same results. On a single-core host the threads
            // would only time-slice each other; run the shards inline
            // instead and skip the spawn/preemption overhead.
            let single_core = std::thread::available_parallelism().is_ok_and(|n| n.get() == 1);
            let shard_results: Vec<std::result::Result<Result<ShardEpochOutput>, String>> =
                if single_core || shard_users.len() == 1 {
                    shard_users
                        .iter()
                        .zip(&scratches)
                        .map(|(users, scratch)| {
                            Ok(self
                                .run_shard_epoch(users, epoch, scenario, &catalog, &cache, scratch))
                        })
                        .collect()
                } else {
                    std::thread::scope(|scope| {
                        let handles: Vec<_> = shard_users
                            .iter()
                            .zip(&scratches)
                            .map(|(users, scratch)| {
                                let catalog = &catalog;
                                let cache = &cache;
                                scope.spawn(move || {
                                    self.run_shard_epoch(
                                        users, epoch, scenario, catalog, cache, scratch,
                                    )
                                })
                            })
                            .collect();
                        handles
                            .into_iter()
                            .map(|h| {
                                h.join().map_err(|p| {
                                    p.downcast_ref::<String>()
                                        .cloned()
                                        .or_else(|| p.downcast_ref::<&str>().map(|s| s.to_string()))
                                        .unwrap_or_else(|| "unknown panic".into())
                                })
                            })
                            .collect()
                    })
                };

            // ---- epoch barrier: fold per-user accumulators in user-id
            // order (sketch merges are exactly order-independent), then
            // flush the write-behind cache ----
            let mut rows: Vec<UserEpochRow> = Vec::new();
            let mut sketches = EpochSketches::new();
            for result in shard_results {
                let output = result.map_err(FleetError::WorkerPanic)??;
                sketches.merge(&output.sketches);
                rows.extend(output.rows);
            }
            rows.sort_by_key(|r| r.user_id);

            let ab_mode = self.config.ab.is_some();
            let mut all = DayAccum::new();
            let mut control_acc = DayAccum::new();
            let mut treatment = DayAccum::new();
            let mut classes = vec![DayAccum::new(); n_classes];
            for row in &rows {
                // detlint::allow(unordered_float_merge, reason = "usize session/segment counts, folded after rows.sort_by_key(user_id)")
                sessions += row.day.sessions();
                // detlint::allow(unordered_float_merge, reason = "usize segment count; rows already sorted by user id")
                segments += row.day.segments();
                all.merge(&row.day);
                if ab_mode {
                    if row.user_id % 2 == 0 {
                        control_acc.merge(&row.day);
                    } else {
                        treatment.merge(&row.day);
                    }
                }
                if let Some(class) = row.class {
                    if let Some(acc) = classes.get_mut(class as usize) {
                        acc.merge(&row.day);
                    }
                }
            }
            let flushed = cache.flush().map_err(sub)?;
            epochs.push(EpochMetrics {
                epoch,
                all: all.metrics(),
                control: ab_mode.then(|| control_acc.metrics()),
                treatment: ab_mode.then(|| treatment.metrics()),
                classes: classes.iter().map(DayAccum::metrics).collect(),
                sketches,
                flushed,
                dispatch: dispatch_info,
            });

            // Checkpoint at the barrier: everything is durable (the flush
            // above), so compact the backend and write the manifest.
            let ran_here = epoch + 1 - start_epoch;
            let suspend = control
                .stop_after_epochs
                .is_some_and(|n| n > 0 && ran_here >= n && epoch + 1 < self.config.epochs);
            let periodic = self.config.checkpoint_every > 0
                && (epoch + 1) % self.config.checkpoint_every == 0
                && epoch + 1 < self.config.epochs;
            if suspend || periodic {
                backend.checkpoint().map_err(sub)?;
                let ckpt = FleetCheckpoint {
                    schema: crate::checkpoint::CHECKPOINT_SCHEMA,
                    fingerprint,
                    seed: self.config.seed,
                    total_epochs: self.config.epochs,
                    scenario: scenario.name.clone(),
                    next_epoch: epoch + 1,
                    users_total,
                    sessions,
                    segments,
                    elapsed_s: (prior_elapsed + start.elapsed()).as_secs_f64(),
                    epochs: epochs.clone(),
                };
                ckpt.save(&self.config.state_dir)?;
                if suspend {
                    return Ok(RunOutcome::Suspended(ckpt));
                }
            }
        }
        let elapsed = prior_elapsed + start.elapsed();
        // A completed run leaves no manifest behind: a later `resume`
        // must not silently replay a finished run's tail.
        FleetCheckpoint::remove(&self.config.state_dir)?;

        // Population-scale DiD over the per-epoch cohort metrics.
        let did = match &self.config.ab {
            Some(ab) => Some(
                did_report(
                    AbSchedule {
                        days: self.config.epochs,
                        intervention_day: ab.intervention_epoch,
                    },
                    epochs.iter().filter_map(|e| e.control).collect(),
                    epochs.iter().filter_map(|e| e.treatment).collect(),
                )
                .map_err(sub)?,
            ),
            None => None,
        };

        Ok(RunOutcome::Complete(Box::new(FleetReport {
            scenario: scenario.name.clone(),
            shards: self.config.shards,
            users: users_total,
            class_names: self
                .config
                .dynamics
                .as_ref()
                .map(|d| d.registry.users.iter().map(|c| c.name.clone()).collect())
                .unwrap_or_default(),
            epochs,
            sessions,
            segments,
            elapsed,
            cache: cache.stats(),
            state_warnings,
            did,
        })))
    }

    /// One shard worker's epoch: run every owned user's sessions.
    fn run_shard_epoch(
        &self,
        users: &[EpochUser],
        epoch: usize,
        scenario: &FleetScenario,
        catalog: &Catalog,
        cache: &ShardedStateCache,
        scratch: &std::sync::Mutex<crate::contention::ContentionScratch>,
    ) -> Result<ShardEpochOutput> {
        if self.config.contention.is_some() {
            let mut scratch = scratch.lock().expect("contention scratch lock poisoned");
            return crate::contention::run_shard_epoch_contended(
                self,
                users,
                epoch,
                scenario,
                catalog,
                cache,
                &mut scratch,
            );
        }
        let drift = ToleranceDrift::default();
        let mut buffers = SessionBuffers::new();
        let mut rows = Vec::with_capacity(users.len());
        let mut sketches = EpochSketches::new();
        for user in users {
            let mut rng = StdRng::seed_from_u64(self.stream_seed(user.record.id, epoch));
            let policy = scenario.abr_mix.policy_for(user.record.id);
            let managed = policy.managed() && self.lingxi_active(user.record.id, epoch);
            let day = self.run_user_epoch(
                &user.record,
                catalog,
                cache,
                policy,
                managed,
                &drift,
                &mut buffers,
                &mut sketches,
                &mut rng,
            )?;
            rows.push(UserEpochRow {
                user_id: user.record.id,
                class: user.class,
                day,
            });
        }
        Ok(ShardEpochOutput { rows, sketches })
    }

    /// Sessions a user plays this epoch (Poisson-ish jitter around the
    /// user's engagement level, drawn from the user's own stream).
    pub(crate) fn sessions_this_epoch<R: Rng>(&self, user: &UserRecord, rng: &mut R) -> usize {
        let jitter = 0.5 + rng.gen::<f64>();
        ((user.sessions_per_day * jitter).round() as usize).clamp(1, 60)
    }

    /// Run one user's epoch worth of sessions, folded straight into a
    /// bounded-memory day accumulator (play order) and the shard sketches.
    #[allow(clippy::too_many_arguments)]
    fn run_user_epoch(
        &self,
        user: &UserRecord,
        catalog: &Catalog,
        cache: &ShardedStateCache,
        policy: AbrPolicy,
        managed: bool,
        drift: &ToleranceDrift,
        buffers: &mut SessionBuffers,
        sketches: &mut EpochSketches,
        rng: &mut StdRng,
    ) -> Result<DayAccum> {
        let n_sessions = self.sessions_this_epoch(user, rng);
        let mut exit_model = user.exit_model_for_day(drift, rng);
        let mut abr = policy.build();
        let ladder = catalog.ladder();
        let mut day = DayAccum::new();

        if managed {
            // Warm-start the controller from the user's persisted state.
            let mut state = cache.load_or_new(user.id).map_err(sub)?;
            let mut controller = LingXiController::with_state(
                policy.lingxi_config(),
                state.tracker.clone(),
                state.params,
            )
            .map_err(sub)?;
            let mut predictor = ProfilePredictor {
                profile: user.stall,
                base: 0.015,
            };
            for _ in 0..n_sessions {
                let video = catalog.sample(rng);
                let seconds = ((video.duration() * 3.0) as usize).max(60);
                let trace = user.net.trace(seconds, 1.0, rng).map_err(sub)?;
                abr.reset();
                run_managed_session_in(
                    user.id,
                    video,
                    ladder,
                    &trace,
                    self.config.player,
                    abr.as_mut(),
                    &mut controller,
                    &mut predictor,
                    &mut exit_model,
                    buffers,
                    rng,
                )
                .map_err(sub)?;
                let summary = buffers.log().summary();
                day.push(&summary);
                sketches.push(&summary);
            }
            // Write-behind: dirty the cache entry; the epoch barrier (or an
            // LRU eviction) batches it into the durable store.
            state.tracker = controller.tracker().clone();
            state.params = controller.params();
            state.optimizations += controller.optimizations();
            cache.save(&state).map_err(sub)?;
        } else {
            for _ in 0..n_sessions {
                let video = catalog.sample(rng);
                let seconds = ((video.duration() * 3.0) as usize).max(60);
                let trace = user.net.trace(seconds, 1.0, rng).map_err(sub)?;
                abr.reset();
                exit_model.reset_session();
                let setup = SessionSetup {
                    user_id: user.id,
                    video,
                    ladder,
                    process: &trace,
                    config: self.config.player,
                };
                let sizes = &video.sizes;
                let log = run_session(
                    &setup,
                    |env| {
                        let ctx = AbrContext {
                            ladder,
                            sizes,
                            next_segment: env.segment_index(),
                            segment_duration: sizes.segment_duration(),
                        };
                        abr.select(env, &ctx)
                    },
                    |env, record, r| {
                        let view = SegmentView {
                            env,
                            record,
                            ladder,
                        };
                        if exit_model.decide(&view, r) {
                            ExitDecision::Exit
                        } else {
                            ExitDecision::Continue
                        }
                    },
                    rng,
                )
                .map_err(sub)?;
                let summary = log.summary();
                day.push(&summary);
                sketches.push(&summary);
            }
        }
        Ok(day)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::{AbSplit, AbrMix, ContentionConfig, PopulationDynamics};
    use lingxi_workload::{ArrivalKind, ClassRegistry, Poisson};
    use std::path::PathBuf;

    fn temp_dir(tag: &str) -> PathBuf {
        let dir =
            std::env::temp_dir().join(format!("lingxi_fleet_test_{tag}_{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        dir
    }

    /// Users held by the binary state log a finished run left in `dir`.
    fn persisted_users(dir: &std::path::Path) -> usize {
        BinaryStateLog::open(dir, lingxi_core::BinLogConfig::default())
            .unwrap()
            .list()
            .unwrap()
            .len()
    }

    fn small_scenario() -> FleetScenario {
        FleetScenario {
            name: "small".into(),
            n_users: 24,
            n_videos: 8,
            mean_sessions_per_epoch: 2.0,
            ..FleetScenario::default()
        }
    }

    #[test]
    fn merged_metrics_identical_across_shard_counts() {
        let scenario = small_scenario();
        let run = |shards: usize, tag: &str| {
            let dir = temp_dir(tag);
            let config = FleetConfig {
                shards,
                epochs: 2,
                seed: 7,
                state_dir: dir.clone(),
                ..FleetConfig::default()
            };
            let report = FleetEngine::new(config).unwrap().run(&scenario).unwrap();
            let _ = std::fs::remove_dir_all(&dir);
            report
        };
        let one = run(1, "inv1");
        let four = run(4, "inv4");
        assert_eq!(one.merged_metrics(), four.merged_metrics());
        assert_eq!(one.merged_sketches(), four.merged_sketches());
        assert_eq!(one.sessions, four.sessions);
        assert_eq!(one.segments, four.segments);
        assert!(one.sessions >= 24, "every user plays >= 1 session");
        // Sketches saw every session.
        assert_eq!(
            one.epochs
                .iter()
                .map(|e| e.sketches.stall.count())
                .sum::<u64>(),
            one.sessions as u64
        );
    }

    #[test]
    fn ab_mode_produces_population_did() {
        let dir = temp_dir("ab");
        let config = FleetConfig {
            shards: 3,
            epochs: 4,
            seed: 11,
            state_dir: dir.clone(),
            ab: Some(AbSplit {
                intervention_epoch: 2,
            }),
            ..FleetConfig::default()
        };
        let scenario = FleetScenario {
            abr_mix: AbrMix::all_hyb(),
            ..small_scenario()
        };
        let report = FleetEngine::new(config).unwrap().run(&scenario).unwrap();
        let did = report.did.expect("A/B mode reports DiD");
        assert_eq!(did.watch_time.daily_rel_diff_pct.len(), 4);
        assert!(did.watch_time.did.effect.is_finite());
        for e in &report.epochs {
            let c = e.control.unwrap();
            let t = e.treatment.unwrap();
            assert!(c.sessions > 0 && t.sessions > 0);
        }
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn state_persists_and_warm_starts_across_runs() {
        let dir = temp_dir("persist");
        let scenario = FleetScenario {
            abr_mix: AbrMix::all_hyb(),
            // Constrained-heavy mixture so stalls (and optimizations) occur.
            mixture: lingxi_net::ProductionMixture {
                p_constrained: 0.6,
                p_cellular: 0.3,
                p_wifi: 0.1,
            },
            ..small_scenario()
        };
        let config = FleetConfig {
            shards: 2,
            epochs: 1,
            seed: 3,
            state_dir: dir.clone(),
            ..FleetConfig::default()
        };
        let first = FleetEngine::new(config.clone())
            .unwrap()
            .run(&scenario)
            .unwrap();
        assert!(first.state_warnings.is_empty());
        assert_eq!(persisted_users(&dir), 24, "write-behind flushed all users");
        // Second run warm-starts from disk and surfaces a torn log tail: a
        // frame header promising 64 payload bytes, cut off after two.
        let mut log = std::fs::OpenOptions::new()
            .append(true)
            .open(dir.join("shard_0.log"))
            .unwrap();
        std::io::Write::write_all(&mut log, &[64, 0, 0, 0, 0, 0, 0, 0, 1, 2]).unwrap();
        drop(log);
        let second = FleetEngine::new(config).unwrap().run(&scenario).unwrap();
        assert_eq!(second.state_warnings.len(), 1);
        assert!(second.state_warnings[0].contains("shard_0.log"));
        assert!(second.state_warnings[0].contains("torn"));
        assert!(second.cache.misses > 0, "warm start loads from the store");
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn abr_mix_runs_unmanaged_policies() {
        let dir = temp_dir("mix");
        let config = FleetConfig {
            shards: 2,
            epochs: 1,
            seed: 5,
            state_dir: dir.clone(),
            ..FleetConfig::default()
        };
        let scenario = FleetScenario {
            // No HYB users at all: nothing is managed, no state persists.
            abr_mix: AbrMix {
                p_hyb: 0.0,
                p_throughput: 0.5,
            },
            ..small_scenario()
        };
        let report = FleetEngine::new(config).unwrap().run(&scenario).unwrap();
        assert!(report.sessions > 0);
        assert_eq!(persisted_users(&dir), 0);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn dynamics_requires_contention() {
        let config = FleetConfig {
            dynamics: Some(PopulationDynamics {
                arrivals: ArrivalKind::Poisson(Poisson { rate_per_sec: 0.1 }),
                registry: ClassRegistry::default_heterogeneous(),
                day_seconds: 600.0,
            }),
            ..FleetConfig::default()
        };
        assert!(FleetEngine::new(config).is_err());
    }

    #[test]
    fn dynamic_population_reports_per_class_metrics() {
        let run = |shards: usize, tag: &str| {
            let dir = temp_dir(tag);
            let config = FleetConfig {
                shards,
                epochs: 2,
                seed: 13,
                state_dir: dir.clone(),
                contention: Some(ContentionConfig {
                    links: 4,
                    capacity_kbps: 25_000.0,
                    arrival_window: 10.0,
                    access_cap_factor: 1.5,
                }),
                dynamics: Some(PopulationDynamics {
                    arrivals: ArrivalKind::Poisson(Poisson { rate_per_sec: 0.05 }),
                    registry: ClassRegistry::default_heterogeneous(),
                    day_seconds: 600.0,
                }),
                ..FleetConfig::default()
            };
            let report = FleetEngine::new(config)
                .unwrap()
                .run(&small_scenario())
                .unwrap();
            let _ = std::fs::remove_dir_all(&dir);
            report
        };
        let one = run(1, "dyn1");
        let four = run(4, "dyn4");
        // The dynamic cohort and its merged metrics are shard-invariant.
        assert_eq!(one.merged_metrics(), four.merged_metrics());
        assert_eq!(one.merged_sketches(), four.merged_sketches());
        assert_eq!(one.users, four.users);
        assert!(one.users > 0, "Poisson(0.05/s × 600s × 2 epochs) arrivals");
        assert_eq!(one.class_names, vec!["mobile", "desktop", "tv"]);
        for e in &one.epochs {
            assert_eq!(e.classes.len(), 3);
            let class_sessions: usize = e.classes.iter().map(|c| c.sessions).sum();
            assert_eq!(class_sessions, e.all.sessions, "classes partition the day");
        }
    }
}
