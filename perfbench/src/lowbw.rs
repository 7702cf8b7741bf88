//! `lingxi_lowbw`: single-threaded LingXi-managed HYB sessions of the
//! paper's low-bandwidth population, driven through `lingxi_core`'s
//! public session API. The per-user controller (trigger → Monte-Carlo
//! rollouts → Bayesian optimisation) does most of the work here; no
//! fleet, contention or dispatch layer runs. Each user's long-term state
//! is saved to a binary state log once, after the timed loop.

use std::path::Path;
use std::sync::Arc;
use std::time::Instant;

use lingxi_abr::{Abr, AbrContext, Hyb, QoeParams};
use lingxi_abtest::DayAccum;
use lingxi_core::{
    run_managed_session_in, BinLogConfig, BinaryStateLog, LingXiConfig, LingXiController,
    LongTermState, ManagedHooks, ManagedSession, ProfilePredictor, RolloutContext,
    RolloutPredictor, SessionBuffers, StateBackend,
};
use lingxi_exit::StateMatrix;
use lingxi_media::{BitrateLadder, Catalog, CatalogConfig, VbrModel};
use lingxi_net::{BandwidthProcess, ProductionMixture};
use lingxi_player::{PlayerConfig, PlayerEnv};
use lingxi_user::{
    ExitModel, PopulationConfig, QosExitModel, SegmentView, ToleranceDrift, UserPopulation,
    UserRecord,
};
use rand::rngs::StdRng;
use rand::SeedableRng;

use crate::report::{mix64, Fingerprint, Outcome, Qoe};
use crate::trace::{LeafCounter, Tracer};

/// Population drawn before the low-bandwidth filter.
const CANDIDATES: usize = 24_000;
/// Low-bandwidth users kept.
const USERS: usize = 1_600;
/// Sessions each user plays, in order, with one controller carrying its
/// long-term state across them.
const SESSIONS_PER_USER: usize = 6;

/// The generated inputs of one run.
pub struct World {
    catalog: Catalog,
    users: Vec<UserRecord>,
    backend: Arc<BinaryStateLog>,
}

/// Build the world and open the state backend.
pub fn setup(seed: u64, dir: &Path) -> Result<World, String> {
    let mut rng = StdRng::seed_from_u64(seed);
    let catalog = Catalog::generate(
        BitrateLadder::default_short_video(),
        &CatalogConfig {
            n_videos: 400,
            vbr: VbrModel::default_vbr(),
            ..CatalogConfig::default()
        },
        &mut rng,
    )
    .map_err(|e| e.to_string())?;
    let population = UserPopulation::generate(
        &PopulationConfig {
            n_users: CANDIDATES,
            mixture: ProductionMixture::default(),
            mean_sessions_per_day: 4.0,
        },
        &mut rng,
    )
    .map_err(|e| e.to_string())?;
    let users: Vec<UserRecord> = population
        .low_bandwidth_users(catalog.ladder().max_bitrate())
        .into_iter()
        .take(USERS)
        .copied()
        .collect();
    if users.len() < USERS {
        return Err(format!("only {} low-bandwidth users drawn", users.len()));
    }
    let backend =
        Arc::new(BinaryStateLog::open(dir, BinLogConfig::default()).map_err(|e| e.to_string())?);
    Ok(World {
        catalog,
        users,
        backend,
    })
}

/// What the session loop produced.
struct LoopResult {
    day: DayAccum,
    fingerprint: Fingerprint,
    optimizations: usize,
    prunes: usize,
    states: Vec<LongTermState>,
}

/// Forwarding wrapper timing `Abr::select`.
struct TracedAbr<A> {
    inner: A,
    c: LeafCounter,
}

impl<A: Abr> Abr for TracedAbr<A> {
    fn select(&mut self, env: &PlayerEnv, ctx: &AbrContext<'_>) -> usize {
        let inner = &mut self.inner;
        self.c.time(|| inner.select(env, ctx))
    }
    fn set_params(&mut self, params: QoeParams) {
        self.inner.set_params(params)
    }
    fn params(&self) -> QoeParams {
        self.inner.params()
    }
    fn reset(&mut self) {
        self.inner.reset()
    }
    fn name(&self) -> &'static str {
        self.inner.name()
    }
}

/// Forwarding wrapper timing `RolloutPredictor::predict`.
struct TracedPredictor<P> {
    inner: P,
    c: LeafCounter,
}

impl<P: RolloutPredictor> RolloutPredictor for TracedPredictor<P> {
    fn predict(&mut self, state: &StateMatrix, ctx: &RolloutContext) -> f64 {
        let inner = &mut self.inner;
        self.c.time(|| inner.predict(state, ctx))
    }
    fn wants_state(&self) -> bool {
        self.inner.wants_state()
    }
}

/// Forwarding wrapper timing `ExitModel::decide`.
struct TracedExit<E> {
    inner: E,
    c: LeafCounter,
}

impl<E: ExitModel> ExitModel for TracedExit<E> {
    fn exit_prob(&mut self, view: &SegmentView<'_>) -> f64 {
        self.inner.exit_prob(view)
    }
    fn reset_session(&mut self) {
        self.inner.reset_session()
    }
    fn decide(&mut self, view: &SegmentView<'_>, rng: &mut dyn rand::RngCore) -> bool {
        let inner = &mut self.inner;
        self.c.time(|| inner.decide(view, rng))
    }
}

fn user_rng(seed: u64, user: &UserRecord) -> StdRng {
    StdRng::seed_from_u64(mix64(seed ^ mix64(user.id)))
}

fn predictor_for(user: &UserRecord) -> ProfilePredictor {
    ProfilePredictor {
        profile: user.stall,
        base: 0.015,
    }
}

fn trace_seconds(duration: f64) -> usize {
    ((duration * 3.0) as usize).max(60)
}

/// The untraced loop: `run_managed_session_in`, as the fleet calls it.
fn run_plain(seed: u64, world: &World) -> Result<LoopResult, String> {
    let drift = ToleranceDrift::default();
    let ladder = world.catalog.ladder();
    let mut buffers = SessionBuffers::new();
    let mut out = LoopResult::new();
    for user in &world.users {
        let mut rng = user_rng(seed, user);
        let mut exit_model = user.exit_model_for_day(&drift, &mut rng);
        let mut controller =
            LingXiController::new(LingXiConfig::for_hyb()).map_err(|e| e.to_string())?;
        let mut predictor = predictor_for(user);
        let mut abr = Hyb::default_rule();
        for _ in 0..SESSIONS_PER_USER {
            let video = world.catalog.sample(&mut rng);
            let trace = user
                .net
                .trace(trace_seconds(video.duration()), 1.0, &mut rng)
                .map_err(|e| e.to_string())?;
            abr.reset();
            run_managed_session_in(
                user.id,
                video,
                ladder,
                &trace,
                PlayerConfig::default(),
                &mut abr,
                &mut controller,
                &mut predictor,
                &mut exit_model,
                &mut buffers,
                &mut rng,
            )
            .map_err(|e| e.to_string())?;
            out.push_session(&buffers);
        }
        out.push_user(user.id, &controller);
    }
    Ok(out)
}

/// The traced loop: the same sessions stepped through `ManagedSession`
/// (exactly the loop `run_managed_session_in` runs), with forwarding
/// wrappers on the ABR, predictor and user, timed trace generation and
/// downloads, and a `player` span per session. A `complete()` call that
/// advanced the controller's optimisation count is recorded as a
/// `core.controller` span with the leaf calls made inside it.
fn run_traced(seed: u64, world: &World, t: &mut Tracer) -> Result<LoopResult, String> {
    let drift = ToleranceDrift::default();
    let ladder = world.catalog.ladder();
    let mut buffers = SessionBuffers::new();
    let mut out = LoopResult::new();
    let mut net = LeafCounter::default();
    let mut abr = TracedAbr {
        inner: Hyb::default_rule(),
        c: LeafCounter::default(),
    };
    let mut predictor = TracedPredictor {
        inner: predictor_for(&world.users[0]),
        c: LeafCounter::default(),
    };
    let mut exit = TracedExit {
        inner: QosExitModel::calibrated(world.users[0].stall),
        c: LeafCounter::default(),
    };
    macro_rules! counters {
        () => {
            [
                ("abr", abr.c),
                ("core.predictor", predictor.c),
                ("user", exit.c),
                ("net.trace", net),
            ]
        };
    }
    macro_rules! hooks {
        ($controller:expr, $rng:expr) => {
            ManagedHooks {
                abr: &mut abr,
                controller: $controller,
                predictor: &mut predictor,
                user: &mut exit,
                buffers: &mut buffers,
                rng: $rng,
            }
        };
    }
    for user in &world.users {
        let mut rng = user_rng(seed, user);
        exit.inner = user.exit_model_for_day(&drift, &mut rng);
        let mut controller =
            LingXiController::new(LingXiConfig::for_hyb()).map_err(|e| e.to_string())?;
        predictor.inner = predictor_for(user);
        abr.inner = Hyb::default_rule();
        for _ in 0..SESSIONS_PER_USER {
            t.sync(&counters!());
            let session_span = t.enter("player");
            let video = world.catalog.sample(&mut rng);
            let seconds = trace_seconds(video.duration());
            let trace = net
                .time(|| user.net.trace(seconds, 1.0, &mut rng))
                .map_err(|e| e.to_string())?;
            abr.reset();
            let mut session = ManagedSession::begin(
                user.id,
                video,
                ladder,
                PlayerConfig::default(),
                &mut hooks!(&mut controller, &mut rng),
            )
            .map_err(|e| e.to_string())?;
            while let Some(req) = session
                .next_request(&mut hooks!(&mut controller, &mut rng))
                .map_err(|e| e.to_string())?
            {
                let download = net.time(|| trace.download(req.at, req.size_kbits));
                let before = (controller.optimizations(), counters!());
                let start = t.now_ns();
                let more = session.complete(download, &mut hooks!(&mut controller, &mut rng));
                let end = t.now_ns();
                if controller.optimizations() > before.0 {
                    t.sync(&before.1);
                    let span = t.record("core.controller", start, end);
                    t.sync_into(span, &counters!());
                }
                if !more.map_err(|e| e.to_string())? {
                    break;
                }
            }
            session.finalize(&mut buffers);
            out.push_session(&buffers);
            t.sync(&counters!());
            t.exit(session_span);
        }
        out.push_user(user.id, &controller);
    }
    Ok(out)
}

impl LoopResult {
    fn new() -> Self {
        Self {
            day: DayAccum::new(),
            fingerprint: Fingerprint::new(),
            optimizations: 0,
            prunes: 0,
            states: Vec::new(),
        }
    }

    fn push_session(&mut self, buffers: &SessionBuffers) {
        let summary = buffers.log().summary();
        self.day.push(&summary);
        self.fingerprint.f64(summary.watch_time);
        self.fingerprint.f64(summary.total_stall);
        self.fingerprint.f64(summary.mean_bitrate);
        self.fingerprint.u64(summary.segments as u64);
        for p in buffers.deployments() {
            self.fingerprint.str(&format!("{p:?}"));
        }
    }

    fn push_user(&mut self, id: u64, controller: &LingXiController) {
        self.optimizations += controller.optimizations();
        self.prunes += controller.prunes();
        let mut state = LongTermState::new(id);
        state.tracker = controller.tracker().clone();
        state.params = controller.params();
        state.optimizations = controller.optimizations();
        self.states.push(state);
    }
}

/// One run. Untraced: time setup and the session loop. Traced: run the
/// traced loop instead and derive the per-layer numbers from its spans.
pub fn run(seed: u64, dir: &Path, traced: bool) -> Result<Outcome, String> {
    let t0 = Instant::now();
    let world = setup(seed, dir)?;
    let setup_s = t0.elapsed().as_secs_f64();

    let mut tracer = traced.then(|| Tracer::new("bench"));
    let t1 = Instant::now();
    let result = match tracer.as_mut() {
        Some(t) => run_traced(seed, &world, t)?,
        None => run_plain(seed, &world)?,
    };
    let loop_s = t1.elapsed().as_secs_f64();

    let metrics = result.day.metrics();
    let mut out = Outcome::new(setup_s, loop_s);
    out.sessions = result.day.sessions();
    out.epoch_sessions = vec![metrics.sessions];
    out.segments = result.day.segments();
    out.qoe = Qoe::from_days(&[metrics]);
    out.fingerprint = result.fingerprint.hex();
    out.counter("core.controller.optimizations", result.optimizations as f64);
    out.counter("core.controller.prunes", result.prunes as f64);
    out.counter("player.segments", out.segments as f64);
    if result.optimizations == 0 {
        out.fail("lingxi_lowbw recorded no optimisation: the controller never ran");
    }

    // Durable state: each user's long-term state, once, after the loop.
    let refs: Vec<&LongTermState> = result.states.iter().collect();
    world.backend.save_batch(&refs).map_err(|e| e.to_string())?;
    world.backend.flush().map_err(|e| e.to_string())?;
    drop(world.backend);
    out.state_bytes = crate::state::dir_bytes(dir);
    let expected: Vec<u64> = result.states.iter().map(|s| s.user_id).collect();
    let persisted = crate::state::verify_binlog(dir, &expected, &mut out, tracer.as_mut())?;
    if persisted != result.optimizations {
        out.fail(format!(
            "persisted optimisation counts sum to {persisted}, the loop ran {}",
            result.optimizations
        ));
    }

    if let Some(mut t) = tracer {
        t.finish();
        let totals = t.totals();
        let optimize_s = totals.self_s.get("core.controller").copied().unwrap_or(0.0);
        out.counter("core.controller.optimize_s", optimize_s);
        out.counter(
            "core.controller.ms_per_optimization",
            1e3 * optimize_s / result.optimizations.max(1) as f64,
        );
        out.counter(
            "player.step_s",
            totals.self_s.get("player").copied().unwrap_or(0.0),
        );
        for layer in ["core.predictor", "abr", "user", "net.trace"] {
            out.counter(
                &format!("{layer}.calls"),
                totals.calls.get(layer).copied().unwrap_or(0) as f64,
            );
        }
        out.traced_run_s = loop_s;
        out.trace = Some(t);
    }
    Ok(out)
}
