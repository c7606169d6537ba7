//! The benchmark's three workloads: the inputs each builds from the seed,
//! and the fixed list of library calls one iteration issues.
//!
//! Every call goes through the public API (`Explorer`, `Scenario`,
//! `materialize_faults`). [`Inputs::run_call`] is the direct call whose
//! host time the end-to-end metrics measure; [`Inputs::replay_call`]
//! re-issues the same work through the public calls the direct call is
//! made of, wrapping each in a span (see [`crate::trace`]).

use std::hint::black_box;

use madmax_dse::{
    Explorer, FaultAxes, GoodputCandidate, GoodputSearchOutcome, LoadAxes, LoadCandidate,
    LoadPoint, LoadSearchOutcome, PipelineAxes, SearchOutcome, SearchSpace, SearchTelemetry,
    ServeAxes,
};
use madmax_engine::{
    EngineError, FaultEvent, FaultSpec, LoadOutcome, RetryPolicy, Scenario, SimMode,
};
use madmax_fault::{expected_goodput, materialize_faults, young_daly_interval};
use madmax_hw::units::Seconds;
use madmax_hw::{catalog, ClusterSpec, DeviceScaling};
use madmax_model::{LayerClass, ModelArch, ModelId};
use madmax_parallel::{ArrivalSpec, LoadSpec, PipelineSchedule, Plan, ServeConfig, Workload};
use madmax_serve::SimCounters;

use crate::trace::Tracer;

/// The seed whose outputs are pinned in `fingerprints.txt`.
pub const DEFAULT_SEED: u64 = 1;

/// Explorer worker threads, capped at the host's core count. The
/// library default ("all cores") would make timings depend on the host.
pub const THREADS: usize = 2;

/// Requests in the `explore_load` stream. The search aborts when one
/// candidate's simulated clock passes 2^52 grid units (~4.5 h); 64
/// requests stay inside that horizon on every candidate.
const LOAD_REQUESTS: usize = 64;

/// Requests in the once-per-run probe of that abort (observed from 192
/// requests up over the same 48-candidate space).
const ABORT_PROBE_REQUESTS: usize = 256;

/// One workload of the benchmark.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum WorkloadId {
    /// Every zoo model's strategy search (memory-constrained and
    /// unconstrained) plus two joint strategy x pipeline searches.
    TrainZoo,
    /// The LLaMA2 joint serve search at decode 4096, winner verified,
    /// then the load-SLO search, the goodput search, and one
    /// fault-injected load run.
    ///
    /// The last three calls would make a workload of their own, but they
    /// are single-threaded: on a host whose speed shifts by up to 1.6x
    /// for minutes at a time, their run medians did not hold still, so
    /// they ride behind the two-threaded serve search.
    ServeDecode,
}

impl WorkloadId {
    /// Every workload, in the order `BENCHMARK.json` lists them.
    pub const ALL: [WorkloadId; 2] = [Self::TrainZoo, Self::ServeDecode];

    /// The workload's name on the command line.
    pub fn name(self) -> &'static str {
        match self {
            Self::TrainZoo => "train_zoo",
            Self::ServeDecode => "serve_decode",
        }
    }

    /// Parses a command-line workload name.
    pub fn parse(name: &str) -> Option<Self> {
        Self::ALL.into_iter().find(|w| w.name() == name)
    }
}

/// What one call of an iteration does.
#[derive(Debug, Clone)]
pub enum CallKind {
    /// `Explorer::explore`, optionally verifying the winner.
    Explore {
        /// Whether the explorer verifies its winner.
        verify: bool,
    },
    /// `Explorer::explore_load` over these axes.
    ExploreLoad(LoadAxes),
    /// `Explorer::explore_goodput` over these axes.
    ExploreGoodput(FaultAxes),
    /// `price_load`, `materialize_faults`, then one event-mode
    /// `serve_load_faulty` run of the baseline plan.
    FaultyLoad {
        /// The request stream.
        spec: LoadSpec,
        /// The fault process.
        fault: FaultSpec,
        /// Fault horizon, grid units.
        horizon: i64,
        /// Retry policy for interrupted requests.
        retry: RetryPolicy,
    },
}

/// One call of an iteration's fixed call list.
#[derive(Debug, Clone)]
pub struct Call {
    /// Stable name, the key of its fingerprint.
    pub label: String,
    model: usize,
    system: usize,
    workload: Workload,
    space: SearchSpace,
    /// What the call does.
    pub kind: CallKind,
    /// (plan, workload-variant) candidates the call enumerates.
    pub candidates: usize,
}

impl Call {
    /// Whether the seed reaches this call's inputs: it drives the arrival
    /// and fault streams of the load, goodput, and fault-injected calls.
    /// The strategy searches have no random input, so every seed gives
    /// them the same inputs.
    pub fn seeded(&self) -> bool {
        !matches!(self.kind, CallKind::Explore { .. })
    }
}

/// What a call returns.
// One value per call and iteration, moved rarely: boxing buys nothing.
#[allow(clippy::large_enum_variant)]
#[derive(Debug, Clone)]
pub enum Outcome {
    /// An `explore` result.
    Search(SearchOutcome),
    /// An `explore_load` result.
    Load(LoadSearchOutcome),
    /// An `explore_goodput` result.
    Goodput(GoodputSearchOutcome),
    /// A fault-injected load run and the fault stream it ran under.
    Faulty {
        /// The materialized fault events.
        events: Vec<FaultEvent>,
        /// The load run.
        outcome: LoadOutcome,
    },
}

/// Work counts a replayed call reports that its direct call hides.
#[derive(Debug, Clone, Copy, Default)]
pub struct ReplayCounts {
    /// Load-simulator counters summed over the call's load runs.
    pub sim: SimCounters,
    /// Requests simulated across the call's load runs.
    pub requests: u64,
}

/// Everything one workload needs, built from the seed.
#[derive(Debug)]
pub struct Inputs {
    /// The workload.
    pub workload: WorkloadId,
    /// Explorer threads.
    pub threads: usize,
    models: Vec<ModelArch>,
    systems: Vec<ClusterSpec>,
    /// The calls one iteration issues, in order.
    pub calls: Vec<Call>,
    /// The `explore_load` call and the axes of its overflow probe
    /// (`serve_decode` only).
    abort_probe: Option<(usize, LoadAxes)>,
}

/// A sub-seed of `seed` (splitmix64), so the arrival and fault streams
/// are not drawn from one generator state.
fn sub_seed(seed: u64, stream: u64) -> u64 {
    let mut z = seed.wrapping_add(stream.wrapping_mul(0x9E37_79B9_7F4A_7C15));
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

fn transformer_pipeline_space(
    microbatches: Vec<usize>,
    schedules: Vec<PipelineSchedule>,
) -> SearchSpace {
    SearchSpace::strategies()
        .with_classes(vec![LayerClass::Transformer])
        .with_pipeline(PipelineAxes {
            stages: vec![1, 2, 4, 8],
            microbatches,
            schedules,
        })
}

const BOTH_SCHEDULES: [PipelineSchedule; 2] = [PipelineSchedule::GPipe, PipelineSchedule::OneFOneB];

impl Inputs {
    /// Builds the workload's models, clusters, and call list.
    pub fn build(workload: WorkloadId, seed: u64, threads: usize) -> Self {
        let mut inputs = Self {
            workload,
            threads,
            models: Vec::new(),
            systems: Vec::new(),
            calls: Vec::new(),
            abort_probe: None,
        };
        match workload {
            WorkloadId::TrainZoo => inputs.build_train_zoo(),
            WorkloadId::ServeDecode => inputs.build_serve_decode(seed),
        }
        let counts: Vec<usize> = inputs
            .calls
            .iter()
            .map(|c| match c.kind {
                CallKind::FaultyLoad { .. } => 1,
                _ => inputs.explorer(c).candidates().len() * variants(c).len(),
            })
            .collect();
        for (call, n) in inputs.calls.iter_mut().zip(counts) {
            call.candidates = n;
        }
        inputs
    }

    fn push(
        &mut self,
        label: String,
        model: usize,
        system: usize,
        workload: Workload,
        space: SearchSpace,
        kind: CallKind,
    ) {
        self.calls.push(Call {
            label,
            model,
            system,
            workload,
            space,
            kind,
            candidates: 0,
        });
    }

    fn build_train_zoo(&mut self) {
        self.systems = vec![catalog::zionex_dlrm_system(), catalog::llama_llm_system()];
        for id in ModelId::ALL {
            self.models.push(id.build());
            let m = self.models.len() - 1;
            let system = usize::from(!id.is_dlrm());
            for (tag, space) in [
                ("constrained", SearchSpace::strategies()),
                ("unconstrained", SearchSpace::strategies().unconstrained()),
            ] {
                self.push(
                    format!("zoo/{id}/{tag}"),
                    m,
                    system,
                    Workload::pretrain(),
                    space,
                    CallKind::Explore { verify: false },
                );
            }
        }
        for id in [ModelId::Llama2, ModelId::Gpt3] {
            let m = ModelId::ALL
                .iter()
                .position(|&z| z == id)
                .expect("zoo model");
            self.push(
                format!("joint_pp/{id}"),
                m,
                1,
                Workload::pretrain(),
                transformer_pipeline_space(vec![8, 16, 32], BOTH_SCHEDULES.to_vec()),
                CallKind::Explore { verify: false },
            );
        }
    }

    fn build_serve_decode(&mut self, seed: u64) {
        self.models = vec![ModelId::Llama2.build()];
        self.systems = vec![
            catalog::llama_llm_system().scaled(&DeviceScaling::inter_bw_only(1.0 / 8.0)),
            catalog::llama_llm_system(),
        ];
        self.push(
            format!("serve/{}/joint@dec4096", ModelId::Llama2),
            0,
            0,
            Workload::serve(ServeConfig::new(1024, 4096)),
            transformer_pipeline_space(vec![8, 16], BOTH_SCHEDULES.to_vec())
                .with_serve(ServeAxes::batches([256, 512])),
            CallKind::Explore { verify: true },
        );

        let load_axes = |requests| {
            LoadAxes::new(
                LoadSpec::poisson(0.5, requests, sub_seed(seed, 1)).with_kv_blocks(8192),
                [0.5, 1.0, 2.0, 4.0],
            )
            .with_slo_ttft_p99(Seconds::new(60.0))
        };
        self.push(
            format!("load/{}/slo", ModelId::Llama2),
            0,
            1,
            Workload::serve(ServeConfig::new(256, 128).with_decode_batch(8)),
            transformer_pipeline_space(vec![8], vec![PipelineSchedule::GPipe]),
            CallKind::ExploreLoad(load_axes(LOAD_REQUESTS)),
        );
        self.abort_probe = Some((self.calls.len() - 1, load_axes(ABORT_PROBE_REQUESTS)));
        self.push(
            format!("goodput/{}/strategies", ModelId::Llama2),
            0,
            1,
            Workload::pretrain(),
            SearchSpace::strategies(),
            CallKind::ExploreGoodput(
                FaultAxes::new(FaultSpec::fatal(3600.0, 60.0, sub_seed(seed, 2)))
                    .with_intervals([60.0, 300.0, 1800.0]),
            ),
        );
        let horizon = madmax_core::steady::grid_units_round(Seconds::new(7200.0))
            .expect("a 2 h horizon lies on the grid");
        self.push(
            format!("faulty_load/{}/bursty", ModelId::Llama2),
            0,
            1,
            Workload::serve(ServeConfig::new(128, 24).with_decode_batch(4)),
            SearchSpace::default(),
            CallKind::FaultyLoad {
                spec: LoadSpec::bursty(0.4, 20.0, 10.0, 256, sub_seed(seed, 3)),
                fault: FaultSpec::fatal(60.0, 5.0, sub_seed(seed, 4)),
                horizon,
                retry: RetryPolicy::retries(3),
            },
        );
    }

    /// (plan, workload-variant) candidates one iteration enumerates.
    pub fn candidates_per_iteration(&self) -> usize {
        self.calls.iter().map(|c| c.candidates).sum()
    }

    fn explorer(&self, call: &Call) -> Explorer<'_> {
        Explorer::new(&self.models[call.model], &self.systems[call.system])
            .workload(call.workload.clone())
            .space(call.space.clone())
            .threads(self.threads)
            .verify_winner(matches!(call.kind, CallKind::Explore { verify: true }))
    }

    fn scenario(&self, call: &Call) -> Scenario<'_> {
        Scenario::new(&self.models[call.model], &self.systems[call.system])
    }

    /// Issues one call directly: the path the end-to-end metrics time.
    ///
    /// # Errors
    ///
    /// Whatever the library call returns.
    pub fn run_call(&self, call: &Call) -> Result<Outcome, EngineError> {
        match &call.kind {
            CallKind::Explore { .. } => self.explorer(call).explore().map(Outcome::Search),
            CallKind::ExploreLoad(axes) => {
                self.explorer(call).explore_load(axes).map(Outcome::Load)
            }
            CallKind::ExploreGoodput(axes) => self
                .explorer(call)
                .explore_goodput(axes)
                .map(Outcome::Goodput),
            CallKind::FaultyLoad {
                spec,
                fault,
                horizon,
                retry,
            } => {
                let scenario = self.scenario(call).workload_ref(&call.workload);
                let costs = scenario.price_load(spec)?;
                let events = materialize_faults(fault, *horizon)?;
                let outcome = scenario.serve_load_faulty(
                    spec,
                    &costs,
                    SimMode::Event,
                    &events,
                    retry,
                    None,
                )?;
                Ok(Outcome::Faulty { events, outcome })
            }
        }
    }

    /// Re-issues `call` through the public calls it is made of, one span
    /// each, and rebuilds the outcome the direct call would return (the
    /// fingerprint check holds the two equal).
    ///
    /// # Errors
    ///
    /// Whatever the replayed library calls return.
    pub fn replay_call(
        &self,
        call: &Call,
        t: &mut Tracer,
        counts: &mut ReplayCounts,
    ) -> Result<Outcome, EngineError> {
        match &call.kind {
            CallKind::Explore { verify } => {
                t.open("dse.explore");
                let r = self.replay_explore(call, *verify, t);
                t.close();
                r.map(Outcome::Search)
            }
            CallKind::ExploreLoad(axes) => {
                t.open("dse.explore_load");
                let r = self.replay_explore_load(call, axes, t, counts);
                t.close();
                r.map(Outcome::Load)
            }
            CallKind::ExploreGoodput(axes) => {
                t.open("dse.explore_goodput");
                let r = self.replay_explore_goodput(call, axes, t);
                t.close();
                r.map(Outcome::Goodput)
            }
            CallKind::FaultyLoad {
                spec,
                fault,
                horizon,
                retry,
            } => {
                t.open("serve.load_faulty");
                let scenario = self.scenario(call).workload_ref(&call.workload);
                let r = t
                    .leaf("serve.price_load", || scenario.price_load(spec))
                    .and_then(|costs| {
                        let events =
                            t.leaf("fault.materialize", || materialize_faults(fault, *horizon))?;
                        let outcome = t.leaf("serve.sim", || {
                            scenario.serve_load_faulty(
                                spec,
                                &costs,
                                SimMode::Event,
                                &events,
                                retry,
                                None,
                            )
                        })?;
                        count_load(counts, &outcome);
                        Ok(Outcome::Faulty { events, outcome })
                    });
                t.close();
                r
            }
        }
    }

    /// `Explorer::explore`, step by step.
    fn replay_explore(
        &self,
        call: &Call,
        verify: bool,
        t: &mut Tracer,
    ) -> Result<SearchOutcome, EngineError> {
        let explorer = self.explorer(call);
        let (model, system) = (&self.models[call.model], &self.systems[call.system]);
        let mut base_plan = Plan::fsdp_baseline(model);
        base_plan.options.ignore_memory_limits = call.space.ignore_memory_limits;
        let variants = variants(call);
        let baseline = t.leaf("engine.run", || {
            Scenario::new(model, system)
                .plan_ref(&base_plan)
                .workload_ref(&variants[0])
                .run()
        })?;
        let serve_ranked = call.space.serve.is_some();
        let score = |r: &madmax_core::IterationReport| {
            r.serve_tokens_per_sec()
                .unwrap_or_else(|| r.samples_per_sec())
        };
        let (mut best_plan, mut best_workload, mut best) =
            (base_plan.clone(), variants[0].clone(), baseline.clone());
        let (mut evaluated, mut oom, mut unmappable, mut invalid) = (0, 0, 0, 0);
        for workload in &variants {
            let candidates = t.leaf("dse.candidates", || explorer.candidates());
            evaluated += candidates.len();
            let to_run: Vec<Plan> = if *workload == variants[0] {
                candidates
                    .into_iter()
                    .filter(|p| {
                        p.assignments != base_plan.assignments || p.pipeline != base_plan.pipeline
                    })
                    .collect()
            } else {
                candidates
            };
            // Probes: `evaluate_with_telemetry` prices these tables itself,
            // inside its own span; pricing them again here measures the
            // share of that span the two pricing layers take.
            let scenario = Scenario::new(model, system).workload_ref(workload);
            t.probe("core.price", || black_box(scenario.price_plans(&to_run)));
            if to_run
                .iter()
                .any(|p| p.pipeline.is_some_and(|c| c.is_pipelined()))
            {
                t.probe("pipeline.price", || {
                    black_box(scenario.price_pipeline_plans(&to_run))
                });
            }
            let (results, _) = t.leaf("dse.evaluate", || {
                explorer.evaluate_with_telemetry(workload, &to_run)
            });
            for (plan, result) in to_run.into_iter().zip(results) {
                match result {
                    Ok(r) => {
                        let better = if serve_ranked {
                            score(&r) > score(&best)
                        } else {
                            r.iteration_time < best.iteration_time
                        };
                        if better {
                            best = r;
                            best_plan = plan;
                            best_workload = workload.clone();
                        }
                    }
                    Err(e) if e.is_oom() => oom += 1,
                    Err(e) if e.is_unmappable_pipeline() => unmappable += 1,
                    Err(_) => invalid += 1,
                }
            }
        }
        let verify = if verify {
            let (_, trace, sched) = t.leaf("engine.run_with_trace", || {
                Scenario::new(model, system)
                    .plan_ref(&best_plan)
                    .workload_ref(&best_workload)
                    .run_with_trace()
            })?;
            Some(t.leaf("verify.verify", || {
                madmax_verify::Verifier::for_plan(&best_plan, &best_workload).verify(&trace, &sched)
            }))
        } else {
            None
        };
        Ok(SearchOutcome {
            best_plan,
            best_workload,
            best,
            baseline,
            evaluated,
            oom,
            unmappable,
            invalid,
            telemetry: SearchTelemetry::default(),
            verify,
        })
    }

    /// `Explorer::explore_load`, step by step.
    fn replay_explore_load(
        &self,
        call: &Call,
        axes: &LoadAxes,
        t: &mut Tracer,
        counts: &mut ReplayCounts,
    ) -> Result<LoadSearchOutcome, EngineError> {
        let explorer = self.explorer(call);
        let sweep = load_sweep(axes);
        let mut candidates = Vec::new();
        let mut evaluated = 0;
        for workload in variants(call) {
            for plan in t.leaf("dse.candidates", || explorer.candidates()) {
                let scenario = self.scenario(call).plan_ref(&plan).workload_ref(&workload);
                let costs = match t.leaf("serve.price_load", || scenario.price_load(&sweep[0].1)) {
                    Ok(c) => c,
                    Err(e) => {
                        candidates.push(LoadCandidate {
                            plan: plan.clone(),
                            workload: workload.clone(),
                            points: Vec::new(),
                            best_point: None,
                            error: Some(e),
                        });
                        continue;
                    }
                };
                let mut points = Vec::with_capacity(sweep.len());
                for (rate, spec) in &sweep {
                    let outcome = t.leaf("serve.sim", || {
                        scenario.serve_load_priced(spec, &costs, SimMode::Event, None)
                    })?;
                    count_load(counts, &outcome);
                    evaluated += 1;
                    let feasible = axes
                        .slo_ttft_p99
                        .is_none_or(|slo| outcome.report.meets_ttft_slo(slo));
                    points.push(LoadPoint {
                        rate: *rate,
                        report: outcome.report,
                        feasible,
                    });
                }
                let best_point = points
                    .iter()
                    .enumerate()
                    .filter(|(_, p)| p.feasible)
                    .max_by(|(_, a), (_, b)| {
                        a.report.tokens_per_sec.total_cmp(&b.report.tokens_per_sec)
                    })
                    .map(|(i, _)| i);
                candidates.push(LoadCandidate {
                    plan: plan.clone(),
                    workload: workload.clone(),
                    points,
                    best_point,
                    error: None,
                });
            }
        }
        let min_ttft = |c: &LoadCandidate| {
            c.points
                .iter()
                .filter_map(|p| p.report.ttft.map(|t| t.p99.as_secs()))
                .fold(f64::INFINITY, f64::min)
        };
        let best_candidate = candidates
            .iter()
            .enumerate()
            .filter(|(_, c)| c.best_point.is_some())
            .max_by(|(_, a), (_, b)| a.score().total_cmp(&b.score()))
            .or_else(|| {
                candidates
                    .iter()
                    .enumerate()
                    .filter(|(_, c)| !c.points.is_empty())
                    .min_by(|(_, a), (_, b)| min_ttft(a).total_cmp(&min_ttft(b)))
            })
            .map(|(i, _)| i)
            .ok_or_else(|| EngineError::InvalidLoad {
                reason: "no load candidate simulated".to_owned(),
            })?;
        Ok(LoadSearchOutcome {
            candidates,
            best_candidate,
            slo_ttft_p99: axes.slo_ttft_p99,
            evaluated,
        })
    }

    /// `Explorer::explore_goodput`, step by step.
    fn replay_explore_goodput(
        &self,
        call: &Call,
        axes: &FaultAxes,
        t: &mut Tracer,
    ) -> Result<GoodputSearchOutcome, EngineError> {
        let explorer = self.explorer(call);
        let mtbf = axes.fault.mtbf.expect("goodput axes carry an MTBF");
        let sweep: Vec<FaultSpec> = axes
            .intervals
            .iter()
            .map(|&ci| axes.fault.clone().with_checkpoint_interval(ci))
            .collect();
        let mut candidates = Vec::new();
        let mut evaluated = 0;
        let mut telemetry = SearchTelemetry::default();
        for workload in variants(call) {
            for plan in t.leaf("dse.candidates", || explorer.candidates()) {
                let scenario = self.scenario(call).plan_ref(&plan).workload_ref(&workload);
                telemetry.candidates += 1;
                let base = match t.leaf("engine.goodput", || scenario.goodput(&sweep[0])) {
                    Ok(o) => o,
                    Err(e) => {
                        candidates.push(GoodputCandidate {
                            plan: plan.clone(),
                            workload: workload.clone(),
                            points: Vec::new(),
                            best_point: None,
                            iteration_time: None,
                            error: Some(e),
                        });
                        continue;
                    }
                };
                evaluated += 1;
                let iter_time = base.report.iteration_time;
                let write = base.ckpt.write.as_secs();
                let restart = base.ckpt.restart.as_secs();
                let mut points = vec![base.goodput];
                t.open("fault.expected_goodput");
                for spec in &sweep[1..] {
                    let interval = spec
                        .checkpoint_interval
                        .unwrap_or_else(|| young_daly_interval(write, mtbf));
                    points.push(expected_goodput(
                        iter_time.as_secs(),
                        write,
                        restart + spec.recovery,
                        mtbf,
                        interval,
                    ));
                    evaluated += 1;
                }
                t.close();
                let best_point = points
                    .iter()
                    .enumerate()
                    .max_by(|(_, a), (_, b)| {
                        a.effective_throughput.total_cmp(&b.effective_throughput)
                    })
                    .map(|(i, _)| i);
                candidates.push(GoodputCandidate {
                    plan: plan.clone(),
                    workload: workload.clone(),
                    points,
                    best_point,
                    iteration_time: Some(iter_time),
                    error: None,
                });
            }
        }
        let ranked = |key: fn(&GoodputCandidate) -> f64| {
            candidates
                .iter()
                .enumerate()
                .filter(|(_, c)| !c.points.is_empty())
                .max_by(|(_, a), (_, b)| key(a).total_cmp(&key(b)))
                .map(|(i, _)| i)
        };
        let (Some(best_candidate), Some(fault_free_best)) = (
            ranked(GoodputCandidate::score),
            ranked(|c| c.points.first().map_or(0.0, |p| p.fault_free_throughput)),
        ) else {
            return Err(EngineError::InvalidFault {
                reason: "no goodput candidate simulated".to_owned(),
            });
        };
        telemetry.goodput_evals = evaluated as u64;
        Ok(GoodputSearchOutcome {
            candidates,
            best_candidate,
            fault_free_best,
            evaluated,
            telemetry,
        })
    }

    /// The per-token reference for an event-mode load outcome of `call`:
    /// every load run re-simulated one decode step at a time on the same
    /// stream. Returns the labels of runs whose reports differ.
    ///
    /// # Errors
    ///
    /// Whatever the reference runs return.
    pub fn per_token_mismatches(
        &self,
        call: &Call,
        outcome: &Outcome,
    ) -> Result<Vec<String>, EngineError> {
        let mut mismatches = Vec::new();
        match (&call.kind, outcome) {
            (CallKind::ExploreLoad(axes), Outcome::Load(o)) => {
                let sweep = load_sweep(axes);
                for (i, c) in o
                    .candidates
                    .iter()
                    .enumerate()
                    .filter(|(_, c)| !c.points.is_empty())
                {
                    let scenario = self
                        .scenario(call)
                        .plan_ref(&c.plan)
                        .workload_ref(&c.workload);
                    let costs = scenario.price_load(&sweep[0].1)?;
                    for (point, (_, spec)) in c.points.iter().zip(&sweep) {
                        let reference =
                            scenario.serve_load_priced(spec, &costs, SimMode::PerToken, None)?;
                        if reference.report != point.report {
                            mismatches.push(format!("candidate {i} at {} req/s", point.rate));
                        }
                    }
                }
            }
            (CallKind::FaultyLoad { spec, retry, .. }, Outcome::Faulty { events, outcome }) => {
                let scenario = self.scenario(call).workload_ref(&call.workload);
                let costs = scenario.price_load(spec)?;
                let reference = scenario.serve_load_faulty(
                    spec,
                    &costs,
                    SimMode::PerToken,
                    events,
                    retry,
                    None,
                )?;
                if reference.report != outcome.report {
                    mismatches.push("faulty run".to_owned());
                }
            }
            _ => {}
        }
        Ok(mismatches)
    }

    /// Runs the `explore_load` search at [`ABORT_PROBE_REQUESTS`]
    /// requests and returns its error, if it aborted (`None` when the
    /// workload has no load search or the search completed).
    pub fn abort_probe(&self) -> Option<Result<(), EngineError>> {
        let (call, axes) = self.abort_probe.as_ref()?;
        Some(
            self.explorer(&self.calls[*call])
                .explore_load(axes)
                .map(|_| ()),
        )
    }
}

/// The workload variants the serve axes induce (`Explorer`'s rule).
fn variants(call: &Call) -> Vec<Workload> {
    match (&call.space.serve, call.workload.serve_config()) {
        (Some(axes), Some(cfg)) if !axes.decode_batch.is_empty() => axes
            .decode_batch
            .iter()
            .map(|&b| Workload::serve(cfg.with_decode_batch(b)))
            .collect(),
        _ => vec![call.workload.clone()],
    }
}

/// The (rate, spec) points of a Poisson load sweep.
fn load_sweep(axes: &LoadAxes) -> Vec<(f64, LoadSpec)> {
    axes.rates
        .iter()
        .map(|&rate| {
            let mut spec = axes.spec.clone();
            if let ArrivalSpec::Poisson { rate: r, .. } = &mut spec.arrivals {
                *r = rate;
            }
            (rate, spec)
        })
        .collect()
}

fn count_load(counts: &mut ReplayCounts, outcome: &LoadOutcome) {
    counts.sim.decode_runs += outcome.counters.decode_runs;
    counts.sim.decode_steps += outcome.counters.decode_steps;
    counts.sim.evictions += outcome.counters.evictions;
    counts.requests += outcome.report.arrivals as u64;
}
