//! The flat-SPMD execution engine: turns one (model, system, plan,
//! workload) combination into an [`IterationReport`].
//!
//! [`run_flat_cached`] is the engine: it assembles a plan's trace from a
//! priced [`CostTable`], schedules it, and builds the report. Design-space
//! searches share one table across every candidate; one-shot runs price a
//! single-use table for their one plan ([`run_flat_single_use`], which
//! `madmax_pipeline::run_single_use` dispatches flat plans to). New code
//! should go through the unified `madmax_engine::Scenario` front door,
//! which also dispatches pipelined plans.
//!
//! Serve workloads run their prefill and decode phases through the same
//! trace machinery: the prefill is the familiar forward-only pass (over
//! the prompt-length effective model), decode steps are appended as
//! autoregressive single-token passes, and the report additionally
//! carries [`crate::metrics::ServeStats`] (TTFT / TPOT).
//!
//! # Debug-assertions contract
//!
//! Every schedule this engine assembles is cross-checked by
//! [`crate::sim::debug_check_schedule`] in debug builds (causality,
//! per-stream exclusivity, non-negative durations, makespan consistency).
//! Release builds skip the check entirely; the full structural rule set
//! with non-panicking diagnostics is `madmax-verify`.

use std::time::Instant;

use madmax_hw::ClusterSpec;
use madmax_model::ModelArch;
use madmax_parallel::{Plan, PlanError, Workload};

use crate::collective::CollectiveModel;
use crate::compute::UtilizationModel;
use crate::costs::CostTable;
use crate::metrics::IterationReport;
use crate::prof::Phase;
use crate::sim::{schedule_into, EngineScratch};

/// This engine executes the flat SPMD mapping only; plans that configure
/// pipeline parallelism must go through `madmax-pipeline`'s stage engine
/// (or the dispatching `madmax_engine::Scenario`).
fn reject_pipelined(plan: &Plan) -> Result<(), PlanError> {
    match plan.pipeline {
        Some(pp) if pp.is_pipelined() => Err(PlanError::PipelinedPlan { stages: pp.stages }),
        _ => Ok(()),
    }
}

/// The flat engine: evaluates `plan` against a pre-priced [`CostTable`]
/// using caller-owned buffers.
///
/// No compute or collective cost model is invoked (costs come from the
/// table), and the trace arena, schedule, and stream-slot table in
/// `scratch` are recycled across calls. Serve workloads with long decode
/// streams take the closed-form steady-state path ([`crate::steady`])
/// when the table allows it; otherwise the full trace and its schedule
/// are left in `scratch.trace` and `scratch.sched`. The host time of each
/// phase run is added to `scratch.phases`.
///
/// # Errors
///
/// Fails when the plan is pipelined ([`PlanError::PipelinedPlan`]),
/// invalid ([`PlanError::InvalidStrategy`]), or the mapping does not fit
/// in device memory ([`PlanError::OutOfMemory`]).
///
/// # Panics
///
/// Panics when a strategy of `plan` was not priced into `table` via
/// [`CostTable::ensure_plan`]. Debug builds additionally assert that
/// `plan`'s options match the table's pricing context.
pub fn run_flat_cached(
    table: &CostTable,
    plan: &Plan,
    scratch: &mut EngineScratch,
) -> Result<IterationReport, PlanError> {
    reject_pipelined(plan)?;
    let memory = table.memory_for(plan)?;
    let mut t = Instant::now();
    // Closed-form serve path: assemble only the prefill + transient
    // tokens and synthesize the report (bit-identical to the full
    // simulation below; see `crate::steady`). Falls through on any
    // structural condition the closed form does not cover.
    if table.analytic_serve() {
        if let Some(dims) = table.serve_dims() {
            if dims.decode_len >= crate::steady::MIN_ANALYTIC_DECODE {
                table.assemble_serve_prefix_into(
                    plan,
                    &mut scratch.trace,
                    crate::steady::EXPLICIT_TOKENS,
                );
                let report = crate::steady::evaluate_serve_prefix(
                    &scratch.trace,
                    crate::steady::EXPLICIT_TOKENS,
                    &dims,
                    table.report_model(),
                    memory,
                    &mut scratch.steady,
                );
                t = scratch.phases.record(Phase::Steady, t);
                if let Some(report) = report {
                    table.analytic_counters().hit();
                    return Ok(report);
                }
            }
        }
    }
    if table.serve_dims().is_some() {
        table.analytic_counters().miss();
    }
    table.assemble_into(plan, &mut scratch.trace);
    let t = scratch.phases.record(Phase::Assemble, t);
    schedule_into(&scratch.trace, &mut scratch.sched, &mut scratch.streams);
    let t = scratch.phases.record(Phase::Schedule, t);
    let mut report = IterationReport::from_schedule_in(
        &scratch.trace,
        &scratch.sched,
        table.report_model(),
        memory,
        &mut scratch.report,
    );
    report.serve = table.serve_stats(&scratch.trace, &scratch.sched);
    scratch.phases.record(Phase::Report, t);
    if cfg!(debug_assertions) {
        crate::sim::debug_check_schedule(&scratch.trace, &scratch.sched);
    }
    Ok(report)
}

/// Evaluates a flat `plan` once through a single-use [`CostTable`] priced
/// for it alone, then [`run_flat_cached`].
///
/// `analytic_serve` sets the table's closed-form decode switch. With it
/// off, the full trace and its schedule are left in `scratch.trace` and
/// `scratch.sched` for timeline rendering.
///
/// # Errors
///
/// Same conditions as [`run_flat_cached`].
#[allow(clippy::too_many_arguments)]
pub fn run_flat_single_use(
    model: &ModelArch,
    cluster: &ClusterSpec,
    plan: &Plan,
    workload: Workload,
    collectives: &dyn CollectiveModel,
    utilization: UtilizationModel,
    analytic_serve: bool,
    scratch: &mut EngineScratch,
) -> Result<IterationReport, PlanError> {
    let t = Instant::now();
    let mut table = CostTable::new(
        model,
        cluster,
        workload,
        plan.options,
        collectives,
        utilization,
    );
    table.set_analytic_serve(analytic_serve);
    table.ensure_plan(plan);
    scratch.phases.record(Phase::Price, t);
    run_flat_cached(&table, plan, scratch)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::collective::{FlatWorstLink, HierarchicalNccl};
    use madmax_hw::catalog;
    use madmax_model::{LayerClass, ModelId};
    use madmax_parallel::{HierStrategy, ServeConfig, Strategy};

    fn run(
        model: &ModelArch,
        cluster: &ClusterSpec,
        plan: &Plan,
        workload: Workload,
    ) -> Result<IterationReport, PlanError> {
        run_flat_single_use(
            model,
            cluster,
            plan,
            workload,
            &HierarchicalNccl,
            UtilizationModel::Constant,
            true,
            &mut EngineScratch::new(),
        )
    }

    #[test]
    fn dlrm_baseline_runs_and_is_sane() {
        let model = ModelId::DlrmA.build();
        let sys = catalog::zionex_dlrm_system();
        let plan = Plan::fsdp_baseline(&model);
        let r = run(&model, &sys, &plan, Workload::pretrain()).unwrap();
        assert!(r.iteration_time.as_ms() > 10.0 && r.iteration_time.as_ms() < 200.0);
        assert!(r.serialized_time >= r.iteration_time);
        assert!(r.exposed_comm <= r.comm_time);
        assert!(r.mqps() > 0.3 && r.mqps() < 5.0, "{}", r.mqps());
        assert!(r.serve.is_none());
    }

    #[test]
    fn oom_plans_fail() {
        let model = ModelId::DlrmA.build();
        let sys = catalog::zionex_dlrm_system();
        let plan = Plan::fsdp_baseline(&model)
            .with_strategy(LayerClass::Dense, HierStrategy::flat(Strategy::Ddp));
        assert!(matches!(
            run(&model, &sys, &plan, Workload::pretrain()),
            Err(PlanError::OutOfMemory { .. })
        ));
    }

    #[test]
    fn inference_is_faster_than_training() {
        let model = ModelId::DlrmA.build();
        let sys = catalog::zionex_dlrm_system();
        let plan = Plan::fsdp_baseline(&model);
        let train = run(&model, &sys, &plan, Workload::pretrain()).unwrap();
        let infer = run(&model, &sys, &plan, Workload::inference()).unwrap();
        assert!(infer.iteration_time < train.iteration_time);
        assert!(infer.serve.is_none(), "prefill-only runs carry no stats");
    }

    /// One flat run through a single-use table with an explicit collective
    /// model and the closed form off, returning the scratch that holds the
    /// full trace and schedule.
    fn run_with(
        model: &ModelArch,
        cluster: &ClusterSpec,
        plan: &Plan,
        collectives: &dyn crate::collective::CollectiveModel,
    ) -> (IterationReport, EngineScratch) {
        let mut table = CostTable::new(
            model,
            cluster,
            Workload::pretrain(),
            plan.options,
            collectives,
            UtilizationModel::Constant,
        );
        table.set_analytic_serve(false);
        table.ensure_plan(plan);
        let mut scratch = EngineScratch::new();
        let report = run_flat_cached(&table, plan, &mut scratch).unwrap();
        (report, scratch)
    }

    #[test]
    fn collective_model_ablation_changes_results() {
        let model = ModelId::Gpt3.build();
        let sys = catalog::llama_llm_system();
        let plan = Plan::fsdp_baseline(&model);
        let (hier, _) = run_with(&model, &sys, &plan, &HierarchicalNccl);
        let (flat, _) = run_with(&model, &sys, &plan, &FlatWorstLink);
        assert!(flat.comm_time > hier.comm_time);
    }

    #[test]
    fn trace_inspection_available() {
        let model = ModelId::DlrmB.build();
        let sys = catalog::zionex_dlrm_system();
        let plan = Plan::fsdp_baseline(&model);
        let (report, scratch) = run_with(&model, &sys, &plan, &HierarchicalNccl);
        assert_eq!(scratch.trace.len(), scratch.sched.windows.len());
        assert!((scratch.trace.serialized_time() / report.serialized_time - 1.0).abs() < 1e-12);
    }

    #[test]
    fn serve_run_reports_ttft_and_tpot() {
        let model = ModelId::Llama2.build();
        let sys = catalog::llama_llm_system();
        let plan = Plan::fsdp_baseline(&model);
        let workload = Workload::serve(ServeConfig::new(1024, 32));
        let r = run(&model, &sys, &plan, workload).unwrap();
        let s = r.serve.expect("decode run reports serve stats");
        assert_eq!(s.prompt_len, 1024);
        assert_eq!(s.decode_len, 32);
        assert_eq!(s.decode_batch, model.global_batch);
        assert!(s.ttft.as_secs() > 0.0);
        assert!(s.tpot.as_secs() > 0.0);
        assert!(s.ttft > s.tpot, "prefill outweighs one decode step");
        assert!(
            (s.ttft + s.tpot * 32.0 - r.iteration_time).as_secs().abs() < 1e-9,
            "iteration splits into TTFT + decode stream"
        );
        assert!(r.serve_tokens_per_sec().unwrap() > 0.0);
        assert!(r.memory.kv_cache.as_gb() > 0.0);
    }

    #[test]
    fn prefill_only_serve_matches_legacy_inference_shape() {
        // Workload::inference() (the Task::Inference mapping) must run the
        // exact legacy forward-only path: same report, no serve stats.
        let model = ModelId::DlrmA.build();
        let sys = catalog::zionex_dlrm_system();
        let plan = Plan::fsdp_baseline(&model);
        let r = run(&model, &sys, &plan, Workload::inference()).unwrap();
        assert!(r.serve.is_none());
        assert_eq!(r.memory.kv_cache, madmax_hw::units::ByteCount::ZERO);
        // Explicit prompt = model context yields identical numbers (only
        // the engine-internal model handle differs).
        let explicit = Workload::serve(ServeConfig {
            prompt_len: Some(model.context_length),
            decode_len: 0,
            decode_batch: None,
            kv_cache: false,
        });
        let r2 = run(&model, &sys, &plan, explicit).unwrap();
        assert_eq!(r, r2);
    }
}
