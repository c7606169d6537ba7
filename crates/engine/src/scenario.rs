//! The [`Scenario`] builder: one entry point for flat and pipelined
//! simulation of any [`Workload`].

use std::borrow::Cow;

use madmax_core::collective::{CollectiveModel, HierarchicalNccl};
use madmax_core::compute::UtilizationModel;
use madmax_core::{CostTable, EngineScratch, IterationReport, Schedule, Trace};
use madmax_fault::{
    expected_goodput, young_daly_interval, CheckpointModel, FaultEvent, FaultSpec, GoodputReport,
    RetryPolicy,
};
use madmax_hw::ClusterSpec;
use madmax_model::ModelArch;
use madmax_parallel::{LoadSpec, Plan, Workload};
use madmax_pipeline::PipelineCostTable;
use madmax_serve::{LoadOutcome, SimMode, StepCostModel};

use crate::error::EngineError;

/// Everything a failure-aware training-goodput evaluation produces.
#[derive(Debug, Clone)]
pub struct GoodputOutcome {
    /// The fault-free iteration report (its `memory` breakdown prices
    /// the checkpoint).
    pub report: IterationReport,
    /// Priced checkpoint/restart costs of this plan on this cluster.
    pub ckpt: CheckpointModel,
    /// The closed-form expected-goodput evaluation.
    pub goodput: GoodputReport,
}

/// One simulation scenario: a model mapped onto a system by a plan,
/// executing a workload.
///
/// `Scenario` is the single front door to the MAD-Max performance model.
/// [`Scenario::run`] inspects the plan's
/// [`madmax_parallel::PipelineConfig`], prices a single-use cost table of
/// the matching engine — the flat SPMD engine
/// (`madmax_core::run_flat_cached`) or the pipeline engine
/// (`madmax_pipeline::run_pipelined_cached`) — and evaluates the plan
/// through it, returning the same [`IterationReport`] either way and one
/// [`EngineError`] on failure. Searches attach shared tables instead
/// ([`Scenario::costs`], [`Scenario::pipeline_costs`]) and evaluate with
/// [`Scenario::run_in`]; the reports are identical.
///
/// The workload axis spans training and serving:
/// [`Workload::pretrain`], [`Workload::finetune`], and
/// [`Workload::serve`] (prefill + token-level decode with a KV-cache;
/// serve runs additionally report TTFT/TPOT through
/// [`IterationReport::serve`]).
///
/// # Examples
///
/// ```
/// use madmax_engine::Scenario;
/// use madmax_hw::catalog;
/// use madmax_model::ModelId;
/// use madmax_parallel::{PipelineConfig, Plan, ServeConfig, Workload};
///
/// # fn main() -> Result<(), madmax_engine::EngineError> {
/// let model = ModelId::Llama2.build();
/// let system = catalog::llama_llm_system();
///
/// // Flat plan (the default FSDP baseline) ...
/// let flat = Scenario::new(&model, &system).run()?;
///
/// // ... a pipelined plan, through the same entry point ...
/// let plan = Plan::fsdp_baseline(&model).with_pipeline(PipelineConfig::one_f_one_b(8, 32));
/// let piped = Scenario::new(&model, &system)
///     .workload(Workload::pretrain())
///     .plan(plan.clone())
///     .run()?;
/// assert!(flat.bubble_fraction.is_none());
/// assert!(piped.bubble_fraction.unwrap() > 0.0);
///
/// // ... and a serve-mode scenario: prefill a 1K prompt, decode 128
/// // tokens per sequence, pipelining the decode stream.
/// let serve = Scenario::new(&model, &system)
///     .workload(Workload::serve(ServeConfig::new(1024, 128)))
///     .plan(plan)
///     .run()?;
/// let stats = serve.serve.unwrap();
/// assert!(stats.ttft > stats.tpot);
/// # Ok(())
/// # }
/// ```
#[derive(Debug)]
pub struct Scenario<'a> {
    model: &'a ModelArch,
    system: &'a ClusterSpec,
    plan: Option<Cow<'a, Plan>>,
    workload: Cow<'a, Workload>,
    collectives: &'a dyn CollectiveModel,
    utilization: UtilizationModel,
    costs: Option<&'a CostTable<'a>>,
    pipeline_costs: Option<&'a PipelineCostTable<'a>>,
    analytic_serve: bool,
}

impl<'a> Scenario<'a> {
    /// Creates a scenario with the FSDP-baseline plan, the pre-training
    /// workload, the default NCCL-style collective model, and constant
    /// compute utilization.
    pub fn new(model: &'a ModelArch, system: &'a ClusterSpec) -> Self {
        Self {
            model,
            system,
            plan: None,
            workload: Cow::Owned(Workload::pretrain()),
            collectives: &HierarchicalNccl,
            utilization: UtilizationModel::Constant,
            costs: None,
            pipeline_costs: None,
            analytic_serve: true,
        }
    }

    /// Enables or disables the closed-form steady-state decode path
    /// (`madmax_core::steady`) on every cost table this scenario *builds*
    /// ([`Scenario::price_plans`], [`Scenario::price_pipeline_plans`], and
    /// the single-use table of [`Scenario::run`] / [`Scenario::run_in`]).
    /// On by default; the closed form is byte-identical to full
    /// simulation, so this knob exists for A/B validation (`false` is the
    /// full-simulation reference) and as an escape hatch. Tables attached
    /// via [`Scenario::costs`] / [`Scenario::pipeline_costs`] keep their
    /// own setting, and [`Scenario::run_with_trace`] always simulates in
    /// full.
    #[must_use]
    pub fn analytic_serve(mut self, on: bool) -> Self {
        self.analytic_serve = on;
        self
    }

    /// Sets the workload (default: [`Workload::pretrain`]).
    #[must_use]
    pub fn workload(mut self, workload: Workload) -> Self {
        self.workload = Cow::Owned(workload);
        self
    }

    /// Borrow-based variant of [`Scenario::workload`]: references the
    /// caller's workload instead of cloning it (the
    /// design-space-exploration hot path runs thousands of scenarios
    /// against one workload).
    #[must_use]
    pub fn workload_ref(mut self, workload: &'a Workload) -> Self {
        self.workload = Cow::Borrowed(workload);
        self
    }

    /// Sets the parallelization plan (default: [`Plan::fsdp_baseline`]).
    /// A plan with an active pipeline config routes the scenario through
    /// the pipeline engine.
    #[must_use]
    pub fn plan(mut self, plan: Plan) -> Self {
        self.plan = Some(Cow::Owned(plan));
        self
    }

    /// Borrow-based variant of [`Scenario::plan`]: references the caller's
    /// plan instead of cloning it.
    #[must_use]
    pub fn plan_ref(mut self, plan: &'a Plan) -> Self {
        self.plan = Some(Cow::Borrowed(plan));
        self
    }

    /// Attaches a shared, pre-priced [`CostTable`] (see
    /// `madmax_core::costs`): [`Scenario::run_in`] then evaluates flat
    /// plans by assembling cached costs instead of re-pricing every GEMM
    /// and collective. The table must have been priced for this scenario's
    /// model, system, and workload, and must cover the plan's strategies.
    #[must_use]
    pub fn costs(mut self, table: &'a CostTable<'a>) -> Self {
        self.costs = Some(table);
        self
    }

    /// Attaches a shared, pre-priced [`PipelineCostTable`] (see
    /// `madmax_pipeline::table`), the pipelined twin of
    /// [`Scenario::costs`]: [`Scenario::run_in`] then evaluates pipelined
    /// plans by assembling cached stage costs instead of re-partitioning
    /// and re-pricing every stage. The table must have been priced for
    /// this scenario's model, system, and workload, and must cover the
    /// plan's (depth, assignment, microbatches) key.
    #[must_use]
    pub fn pipeline_costs(mut self, table: &'a PipelineCostTable<'a>) -> Self {
        self.pipeline_costs = Some(table);
        self
    }

    /// Replaces the collective cost model (ablation studies).
    #[must_use]
    pub fn collectives(mut self, m: &'a dyn CollectiveModel) -> Self {
        self.collectives = m;
        self
    }

    /// Replaces the compute-utilization model (e.g. the workload-dependent
    /// MFU model of Fig. 8).
    #[must_use]
    pub fn utilization(mut self, u: UtilizationModel) -> Self {
        self.utilization = u;
        self
    }

    /// The plan this scenario will execute (the configured one, or the
    /// FSDP baseline).
    pub fn effective_plan(&self) -> Plan {
        match &self.plan {
            Some(p) => p.clone().into_owned(),
            None => Plan::fsdp_baseline(self.model),
        }
    }

    fn is_pipelined(plan: &Plan) -> bool {
        plan.pipeline.is_some_and(|c| c.is_pipelined())
    }

    /// Runs `f` against the effective plan without cloning a configured
    /// plan.
    fn with_plan<R>(&self, f: impl FnOnce(&Plan) -> R) -> R {
        match &self.plan {
            Some(p) => f(p),
            None => f(&Plan::fsdp_baseline(self.model)),
        }
    }

    /// Prices one [`CostTable`] covering every flat plan in `plans`
    /// (pipelined plans are skipped — the stage engine prices per
    /// sub-cluster and microbatch). The table inherits this scenario's
    /// model, system, workload, and cost models, and is `Sync`: build it
    /// once per search and share it read-only across worker threads.
    ///
    /// All plans must share the same pricing-relevant options
    /// (`activation_checkpointing`, `collective_dtype`); this is asserted.
    pub fn price_plans(&self, plans: &[Plan]) -> CostTable<'a> {
        let options = plans
            .first()
            .map_or_else(|| self.effective_plan().options, |p| p.options);
        let mut table = CostTable::new(
            self.model,
            self.system,
            self.workload.as_ref().clone(),
            options,
            self.collectives,
            self.utilization,
        );
        table.set_analytic_serve(self.analytic_serve);
        for plan in plans.iter().filter(|p| !Self::is_pipelined(p)) {
            table.ensure_plan(plan);
        }
        table
    }

    /// Prices one [`PipelineCostTable`] covering every pipelined plan in
    /// `plans` (flat plans are skipped — they are [`Scenario::price_plans`]'
    /// business). The table inherits this scenario's model, system,
    /// workload, and cost models, and is `Sync`: build it once per search
    /// and share it read-only across worker threads.
    ///
    /// All plans must share the same pricing-relevant options; this is
    /// asserted.
    pub fn price_pipeline_plans(&self, plans: &[Plan]) -> PipelineCostTable<'a> {
        let options = plans
            .first()
            .map_or_else(|| self.effective_plan().options, |p| p.options);
        let mut table = PipelineCostTable::new(
            self.model,
            self.system,
            self.workload.as_ref().clone(),
            options,
            self.collectives,
            self.utilization,
        );
        table.set_analytic_serve(self.analytic_serve);
        for plan in plans.iter().filter(|p| Self::is_pipelined(p)) {
            table.ensure_plan(plan);
        }
        table
    }

    /// Runs the scenario through caller-owned buffers — the evaluation
    /// fast path. Plans with an attached cost table of their engine
    /// ([`Scenario::costs`] / [`Scenario::pipeline_costs`]) are assembled
    /// from its cached costs; any other plan prices a single-use table
    /// (`madmax_pipeline::run_single_use`). Every path recycles
    /// `scratch`'s trace arena, schedule, and stream table.
    ///
    /// # Errors
    ///
    /// Same conditions as [`Scenario::run`].
    pub fn run_in(&self, scratch: &mut EngineScratch) -> Result<IterationReport, EngineError> {
        self.check_serve_shape()?;
        self.with_plan(|plan| {
            let report = match (Self::is_pipelined(plan), self.costs, self.pipeline_costs) {
                (true, _, Some(table)) => {
                    debug_assert!(
                        std::ptr::eq(table.model(), self.model)
                            && std::ptr::eq(table.cluster(), self.system)
                            && table.workload() == self.workload.as_ref(),
                        "pipeline cost table priced for a different scenario"
                    );
                    madmax_pipeline::run_pipelined_cached(table, plan, scratch)
                }
                (false, Some(table), _) => {
                    debug_assert!(
                        std::ptr::eq(table.model(), self.model)
                            && std::ptr::eq(table.cluster(), self.system)
                            && table.workload() == self.workload.as_ref(),
                        "cost table priced for a different scenario"
                    );
                    madmax_core::run_flat_cached(table, plan, scratch)
                }
                _ => madmax_pipeline::run_single_use(
                    self.model,
                    self.system,
                    plan,
                    self.workload.as_ref().clone(),
                    self.collectives,
                    self.utilization,
                    self.analytic_serve,
                    scratch,
                ),
            };
            report.map_err(EngineError::from)
        })
    }

    /// Rejects serve workloads that would simulate into nonsense: an
    /// explicit zero-token prompt or zero-sequence serving batch.
    fn check_serve_shape(&self) -> Result<(), EngineError> {
        let Some(serve) = self.workload.serve_config() else {
            return Ok(());
        };
        let reason = match (serve.prompt_len, serve.decode_batch) {
            (Some(0), _) => "a serve prompt needs at least 1 token",
            (_, Some(0)) => "a serve decode batch needs at least 1 sequence",
            _ => return Ok(()),
        };
        Err(EngineError::InvalidWorkload {
            reason: reason.to_owned(),
        })
    }

    /// Runs the scenario end to end.
    ///
    /// # Errors
    ///
    /// [`EngineError::OutOfMemory`] when the mapping does not fit in
    /// device memory, [`EngineError::InvalidWorkload`] for a serve
    /// workload with a zero prompt or decode batch,
    /// [`EngineError::InvalidPlan`] for everything else (invalid
    /// strategy/class combinations, unmappable pipelines, ...).
    pub fn run(&self) -> Result<IterationReport, EngineError> {
        self.run_in(&mut EngineScratch::new())
    }

    /// Runs the scenario, also returning the trace and schedule for
    /// timeline rendering. Attached cost tables are ignored and the
    /// closed-form decode is off, so the full trace is assembled; the
    /// report is the one [`Scenario::run`] returns.
    ///
    /// # Errors
    ///
    /// Same conditions as [`Scenario::run`].
    pub fn run_with_trace(&self) -> Result<(IterationReport, Trace, Schedule), EngineError> {
        let full = Scenario {
            plan: self.plan.as_deref().map(Cow::Borrowed),
            workload: Cow::Borrowed(self.workload.as_ref()),
            costs: None,
            pipeline_costs: None,
            analytic_serve: false,
            ..*self
        };
        let mut scratch = EngineScratch::new();
        let report = full.run_in(&mut scratch)?;
        Ok((report, scratch.trace, scratch.sched))
    }

    /// The serve config this scenario's workload carries, or the
    /// load-path error explaining that it doesn't.
    fn load_serve_config(&self) -> Result<&madmax_parallel::ServeConfig, EngineError> {
        self.workload
            .serve_config()
            .ok_or_else(|| EngineError::InvalidLoad {
                reason: "load simulation needs a serve workload".to_owned(),
            })
    }

    /// Prices a per-step cost model ([`madmax_serve::StepCostModel`]) of
    /// this scenario's plan for the request shapes in `spec` — the slow
    /// part of a load run (a handful of engine probes), reusable across
    /// simulations via [`Scenario::serve_load_priced`].
    ///
    /// The in-flight slot count is `spec.slots`, defaulting to the serve
    /// config's decode batch.
    ///
    /// # Errors
    ///
    /// [`EngineError::InvalidLoad`] for invalid specs or a non-serve
    /// workload, [`EngineError::InvalidWorkload`] for a zero prompt or
    /// decode batch; probe failures as in [`Scenario::run`].
    pub fn price_load(&self, spec: &LoadSpec) -> Result<StepCostModel, EngineError> {
        let serve = self.load_serve_config()?;
        self.check_serve_shape()?;
        spec.validate()
            .map_err(|reason| EngineError::InvalidLoad { reason })?;
        let arrivals = madmax_serve::materialize_arrivals(&spec.arrivals, serve, self.model)?;
        let slots = spec
            .slots
            .unwrap_or_else(|| serve.effective_batch(self.model));
        self.with_plan(|plan| {
            StepCostModel::price(
                self.model,
                self.system,
                plan,
                serve,
                slots,
                &arrivals,
                self.collectives,
                self.utilization,
            )
            .map_err(EngineError::from)
        })
    }

    /// Runs the continuous-batching load simulator against this
    /// scenario's plan: prices the per-step cost model, then executes
    /// `spec`'s arrival stream with in-flight batching in event mode.
    ///
    /// # Errors
    ///
    /// Same conditions as [`Scenario::price_load`].
    pub fn serve_load(&self, spec: &LoadSpec) -> Result<LoadOutcome, EngineError> {
        let costs = self.price_load(spec)?;
        self.serve_load_priced(spec, &costs, SimMode::Event, None)
    }

    /// [`Scenario::serve_load`] with an explicit mode, a reusable
    /// pre-priced cost model (see [`Scenario::price_load`]), and an
    /// optional per-request completion callback (bridge it to a
    /// `ProgressSink` with `madmax_obs::load::forward_to_sink`).
    ///
    /// # Errors
    ///
    /// [`EngineError::InvalidLoad`] for invalid specs or grid-range
    /// overflows.
    pub fn serve_load_priced(
        &self,
        spec: &LoadSpec,
        costs: &StepCostModel,
        mode: SimMode,
        on_complete: Option<&mut dyn FnMut(&madmax_serve::RequestRecord)>,
    ) -> Result<LoadOutcome, EngineError> {
        let serve = self.load_serve_config()?;
        madmax_serve::simulate_load(spec, serve, self.model, costs, mode, on_complete)
            .map_err(EngineError::from)
    }

    /// [`Scenario::serve_load_priced`] under a materialized fault stream:
    /// fatal/maintenance events interrupt in-flight requests (handled per
    /// `retry`) and degrade capacity until recovery, transient events slow
    /// the clock. An empty `faults` slice is byte-identical to the plain
    /// path.
    ///
    /// # Errors
    ///
    /// [`EngineError::InvalidLoad`] for invalid specs, unsorted or
    /// malformed fault events, or grid-range overflows.
    #[allow(clippy::too_many_arguments)]
    pub fn serve_load_faulty(
        &self,
        spec: &LoadSpec,
        costs: &StepCostModel,
        mode: SimMode,
        faults: &[FaultEvent],
        retry: &RetryPolicy,
        on_complete: Option<&mut dyn FnMut(&madmax_serve::RequestRecord)>,
    ) -> Result<LoadOutcome, EngineError> {
        let serve = self.load_serve_config()?;
        madmax_serve::simulate_load_faulty(
            spec,
            serve,
            self.model,
            costs,
            mode,
            faults,
            retry,
            on_complete,
        )
        .map_err(EngineError::from)
    }

    /// Evaluates this scenario's **failure-aware training goodput**: runs
    /// the fault-free simulation, prices a checkpoint write/restart from
    /// the plan's per-device memory breakdown and the cluster fabric (via
    /// the collective model), then folds both through the closed-form
    /// Young/Daly expected-goodput model at `spec.mtbf`.
    ///
    /// The checkpoint interval is `spec.checkpoint_interval` when set,
    /// otherwise the Young/Daly optimum `sqrt(2 * write * MTBF)`.
    ///
    /// # Errors
    ///
    /// [`EngineError::InvalidFault`] for an invalid spec or a spec without
    /// a fatal-fault MTBF; otherwise the same conditions as
    /// [`Scenario::run`].
    pub fn goodput(&self, spec: &FaultSpec) -> Result<GoodputOutcome, EngineError> {
        spec.validate()
            .map_err(|reason| EngineError::InvalidFault { reason })?;
        let Some(mtbf) = spec.mtbf else {
            return Err(EngineError::InvalidFault {
                reason: "goodput evaluation needs a fatal-fault MTBF (FaultSpec::mtbf)".to_owned(),
            });
        };
        let report = self.run()?;
        let ckpt = CheckpointModel::price(&report.memory, self.system, self.collectives);
        let write = ckpt.write.as_secs();
        // A restart reloads the checkpoint and waits out capacity
        // recovery (node replacement / reschedule) before resuming.
        let restart = ckpt.restart.as_secs() + spec.recovery;
        let interval = spec
            .checkpoint_interval
            .unwrap_or_else(|| young_daly_interval(write, mtbf));
        let goodput = expected_goodput(
            report.iteration_time.as_secs(),
            write,
            restart,
            mtbf,
            interval,
        );
        Ok(GoodputOutcome {
            report,
            ckpt,
            goodput,
        })
    }
}

/// One-shot convenience wrapper: runs a [`Scenario`] with an explicit
/// plan and workload.
///
/// # Errors
///
/// Same conditions as [`Scenario::run`].
pub fn simulate(
    model: &ModelArch,
    system: &ClusterSpec,
    plan: &Plan,
    workload: Workload,
) -> Result<IterationReport, EngineError> {
    Scenario::new(model, system)
        .plan(plan.clone())
        .workload(workload)
        .run()
}

#[cfg(test)]
mod tests {
    use super::*;
    use madmax_core::FlatWorstLink;
    use madmax_hw::catalog;
    use madmax_model::{LayerClass, ModelId};
    use madmax_parallel::{HierStrategy, PipelineConfig, ServeConfig, Strategy};

    #[test]
    fn defaults_run_the_fsdp_baseline() {
        let model = ModelId::DlrmA.build();
        let sys = catalog::zionex_dlrm_system();
        let scenario = Scenario::new(&model, &sys);
        assert_eq!(scenario.effective_plan(), Plan::fsdp_baseline(&model));
        let r = scenario.run().unwrap();
        assert!(r.mqps() > 0.3 && r.mqps() < 5.0);
    }

    #[test]
    fn pipelined_plans_dispatch_to_the_stage_engine() {
        let model = ModelId::Llama2.build();
        let sys = catalog::llama_llm_system();
        let plan = Plan::fsdp_baseline(&model).with_pipeline(PipelineConfig::gpipe(8, 16));
        let r = Scenario::new(&model, &sys).plan(plan).run().unwrap();
        assert!(r.bubble_fraction.unwrap() > 0.0);
    }

    #[test]
    fn oom_maps_to_the_unified_error() {
        let model = ModelId::DlrmA.build();
        let sys = catalog::zionex_dlrm_system();
        let plan = Plan::fsdp_baseline(&model)
            .with_strategy(LayerClass::Dense, HierStrategy::flat(Strategy::Ddp));
        let err = Scenario::new(&model, &sys).plan(plan).run().unwrap_err();
        assert!(err.is_oom(), "{err}");
    }

    #[test]
    fn unmappable_pipeline_maps_to_the_unified_error() {
        let model = ModelId::Gpt3.build();
        let sys = catalog::llama_llm_system();
        let plan = Plan::fsdp_baseline(&model).with_pipeline(PipelineConfig::gpipe(7, 8));
        let err = Scenario::new(&model, &sys).plan(plan).run().unwrap_err();
        assert!(err.is_unmappable_pipeline(), "{err}");
    }

    #[test]
    fn collective_and_utilization_knobs_apply_to_both_paths() {
        let model = ModelId::Gpt3.build();
        let sys = catalog::llama_llm_system();
        let hier = Scenario::new(&model, &sys).run().unwrap();
        let flat_model = FlatWorstLink;
        let flat = Scenario::new(&model, &sys)
            .collectives(&flat_model)
            .run()
            .unwrap();
        assert!(flat.comm_time > hier.comm_time);

        let plan = Plan::fsdp_baseline(&model).with_pipeline(PipelineConfig::gpipe(8, 16));
        let hier_pp = Scenario::new(&model, &sys)
            .plan(plan.clone())
            .run()
            .unwrap();
        let flat_pp = Scenario::new(&model, &sys)
            .plan(plan)
            .collectives(&flat_model)
            .run()
            .unwrap();
        assert!(flat_pp.iteration_time >= hier_pp.iteration_time);
    }

    #[test]
    fn trace_views_are_consistent() {
        let model = ModelId::DlrmB.build();
        let sys = catalog::zionex_dlrm_system();
        let scenario = Scenario::new(&model, &sys);
        let (report, trace, sched) = scenario.run_with_trace().unwrap();
        assert_eq!(trace.len(), sched.windows.len());
        assert!((trace.serialized_time() / report.serialized_time - 1.0).abs() < 1e-12);
    }

    #[test]
    fn one_shot_wrapper_matches_builder() {
        let model = ModelId::DlrmA.build();
        let sys = catalog::zionex_dlrm_system();
        let plan = Plan::fsdp_baseline(&model);
        let a = simulate(&model, &sys, &plan, Workload::pretrain()).unwrap();
        let b = Scenario::new(&model, &sys)
            .plan(plan)
            .workload(Workload::pretrain())
            .run()
            .unwrap();
        assert_eq!(a, b);
    }

    #[test]
    fn serve_scenarios_flow_through_both_engines() {
        let model = ModelId::Llama2.build();
        let sys = catalog::llama_llm_system();
        let workload = Workload::serve(ServeConfig::new(512, 32));
        let flat = Scenario::new(&model, &sys)
            .workload(workload.clone())
            .run()
            .unwrap();
        assert!(flat.serve.is_some());
        let plan = Plan::fsdp_baseline(&model).with_pipeline(PipelineConfig::gpipe(8, 16));
        let piped = Scenario::new(&model, &sys)
            .workload(workload)
            .plan(plan)
            .run()
            .unwrap();
        assert!(piped.serve.is_some());
        assert!(piped.bubble_fraction.is_some());
    }

    #[test]
    fn serve_load_runs_a_poisson_stream_end_to_end() {
        let model = ModelId::Llama2.build();
        let sys = catalog::llama_llm_system();
        let spec = madmax_parallel::LoadSpec::poisson(200.0, 12, 7);
        let scenario = Scenario::new(&model, &sys).workload(Workload::serve(
            ServeConfig::new(256, 32).with_decode_batch(4),
        ));
        let out = scenario.serve_load(&spec).unwrap();
        assert_eq!(out.report.arrivals, 12);
        assert_eq!(out.report.completed + out.report.rejected, 12);
        assert!(out.report.ttft.is_some());
        assert!(out.report.tokens_per_sec > 0.0);

        // A pre-priced cost model reproduces the same outcome, and the
        // per-token reference agrees byte for byte.
        let costs = scenario.price_load(&spec).unwrap();
        let again = scenario
            .serve_load_priced(&spec, &costs, SimMode::Event, None)
            .unwrap();
        assert_eq!(again.report, out.report);
        let naive = scenario
            .serve_load_priced(&spec, &costs, SimMode::PerToken, None)
            .unwrap();
        assert_eq!(naive.report, out.report);
    }

    #[test]
    fn degenerate_serve_inputs_are_rejected_at_the_front_door() {
        let model = ModelId::Llama2.build();
        let sys = catalog::llama_llm_system();
        let spec = madmax_parallel::LoadSpec::poisson(1.0, 4, 1);
        for (cfg, what) in [
            (
                ServeConfig::new(256, 8).with_decode_batch(0),
                "decode batch",
            ),
            (ServeConfig::new(0, 8), "prompt"),
        ] {
            let plans = [
                Plan::fsdp_baseline(&model),
                Plan::fsdp_baseline(&model).with_pipeline(PipelineConfig::gpipe(8, 8)),
            ];
            for plan in plans {
                let scenario = Scenario::new(&model, &sys)
                    .workload(Workload::serve(cfg))
                    .plan(plan);
                let table = scenario.price_plans(&[scenario.effective_plan()]);
                let errors = [
                    scenario.run().unwrap_err(),
                    scenario.run_with_trace().unwrap_err(),
                    scenario.price_load(&spec).unwrap_err(),
                    scenario
                        .costs(&table)
                        .run_in(&mut EngineScratch::new())
                        .unwrap_err(),
                ];
                for err in errors {
                    assert!(
                        matches!(&err, EngineError::InvalidWorkload { reason } if reason.contains(what)),
                        "{err}"
                    );
                }
            }
        }
    }

    #[test]
    fn serve_load_rejects_non_serve_workloads() {
        let model = ModelId::Llama2.build();
        let sys = catalog::llama_llm_system();
        let spec = madmax_parallel::LoadSpec::poisson(100.0, 4, 1);
        let err = Scenario::new(&model, &sys).serve_load(&spec).unwrap_err();
        assert!(matches!(err, EngineError::InvalidLoad { .. }), "{err}");
    }

    #[test]
    fn goodput_degrades_with_mtbf_and_needs_a_fatal_stream() {
        let model = ModelId::Llama2.build();
        let sys = catalog::llama_llm_system();
        let scenario = Scenario::new(&model, &sys);

        let plentiful = scenario.goodput(&FaultSpec::fatal(1e9, 60.0, 1)).unwrap();
        assert!(plentiful.goodput.goodput_fraction > 0.99);
        assert!(plentiful.ckpt.write.as_secs() > 0.0);
        // Fault-free throughput comes straight from the iteration report.
        assert!(
            (plentiful.goodput.fault_free_throughput
                - 1.0 / plentiful.report.iteration_time.as_secs())
            .abs()
                < 1e-12
        );

        let scarce = scenario.goodput(&FaultSpec::fatal(600.0, 60.0, 1)).unwrap();
        assert!(scarce.goodput.goodput_fraction < plentiful.goodput.goodput_fraction);
        assert!(scarce.goodput.effective_throughput < scarce.goodput.fault_free_throughput);
        // Same fault-free plan either way.
        assert_eq!(scarce.report, plentiful.report);

        // No fatal stream -> no goodput model.
        let err = scenario.goodput(&FaultSpec::none()).unwrap_err();
        assert!(matches!(err, EngineError::InvalidFault { .. }), "{err}");
        let err = scenario
            .goodput(&FaultSpec::fatal(-1.0, 0.0, 1))
            .unwrap_err();
        assert!(matches!(err, EngineError::InvalidFault { .. }), "{err}");
    }

    #[test]
    fn explicit_checkpoint_interval_overrides_young_daly() {
        let model = ModelId::Llama2.build();
        let sys = catalog::llama_llm_system();
        let scenario = Scenario::new(&model, &sys);
        let auto = scenario
            .goodput(&FaultSpec::fatal(3600.0, 30.0, 1))
            .unwrap();
        let forced = scenario
            .goodput(&FaultSpec::fatal(3600.0, 30.0, 1).with_checkpoint_interval(1.0))
            .unwrap();
        assert!((forced.goodput.interval - 1.0).abs() < 1e-12);
        // The Young/Daly choice is at least as good as an arbitrary one.
        assert!(auto.goodput.goodput_fraction >= forced.goodput.goodput_fraction);
    }

    #[test]
    fn serve_load_faulty_with_no_events_matches_the_plain_path() {
        let model = ModelId::Llama2.build();
        let sys = catalog::llama_llm_system();
        let spec = madmax_parallel::LoadSpec::poisson(200.0, 10, 3);
        let scenario = Scenario::new(&model, &sys).workload(Workload::serve(
            ServeConfig::new(256, 32).with_decode_batch(4),
        ));
        let costs = scenario.price_load(&spec).unwrap();
        let plain = scenario
            .serve_load_priced(&spec, &costs, SimMode::Event, None)
            .unwrap();
        let faulty = scenario
            .serve_load_faulty(
                &spec,
                &costs,
                SimMode::Event,
                &[],
                &RetryPolicy::default(),
                None,
            )
            .unwrap();
        assert_eq!(plain.report, faulty.report);
        assert_eq!(plain.trace, faulty.trace);
    }

    #[test]
    fn pipeline_cost_table_path_matches_run() {
        let model = ModelId::Llama2.build();
        let sys = catalog::llama_llm_system();
        let plans: Vec<Plan> = [(8usize, 16usize), (4, 8)]
            .into_iter()
            .map(|(p, m)| Plan::fsdp_baseline(&model).with_pipeline(PipelineConfig::gpipe(p, m)))
            .collect();
        for workload in [
            Workload::pretrain(),
            Workload::serve(ServeConfig::new(512, 8)),
        ] {
            let scenario = Scenario::new(&model, &sys).workload_ref(&workload);
            let table = scenario.price_pipeline_plans(&plans);
            let mut scratch = EngineScratch::new();
            for plan in &plans {
                let cached = Scenario::new(&model, &sys)
                    .workload_ref(&workload)
                    .plan_ref(plan)
                    .pipeline_costs(&table)
                    .run_in(&mut scratch)
                    .unwrap();
                let fresh = Scenario::new(&model, &sys)
                    .workload_ref(&workload)
                    .plan_ref(plan)
                    .run()
                    .unwrap();
                assert_eq!(cached, fresh);
            }
        }
    }
}
