//! The pipeline-aware execution engine: expands a
//! [`PipelineCostTable`]'s priced stages into the schedule's multi-stream
//! trace and replays it on `madmax-core`'s list scheduler.
//!
//! [`run_pipelined_cached`] is the engine; [`run_single_use`] is the
//! one-shot front of both engines: it prices a single-use flat or
//! pipeline cost table for one plan and evaluates it through
//! `madmax_core::run_flat_cached` or [`run_pipelined_cached`]. The unified
//! `madmax_engine::Scenario` front door and the serve layer's step-cost
//! probes both run through it.
//!
//! Serve workloads pipeline the decode stream itself: the prompt's
//! prefill runs as a forward-only pipeline, then every decode step flows
//! through the stages as one microbatch unit
//! (see [`crate::schedule::build_serve_trace_into`]), so pipeline
//! parallelism hides inter-stage latency across the token stream.
//!
//! # Debug-assertions contract
//!
//! Every schedule this engine assembles is cross-checked by
//! `madmax_core::debug_check_schedule` in debug builds (causality,
//! per-stream exclusivity, non-negative durations, makespan consistency).
//! Memo hits are exempt: their report's schedule was already checked when
//! it was produced. Release builds skip the check entirely; the full rule
//! set (stage adjacency, 1F1B in-flight bound, GPipe bubble floor) lives
//! in `madmax-verify`.

use std::time::Instant;

use madmax_hw::ClusterSpec;
use madmax_model::ModelArch;
use madmax_parallel::{Plan, PlanError, Workload};

use madmax_core::collective::CollectiveModel;
use madmax_core::compute::UtilizationModel;
use madmax_core::prof::Phase;
use madmax_core::{schedule_into, serve_stats_from, EngineScratch, IterationReport};

use crate::schedule::{build_pipeline_trace_into, build_serve_trace_into};
use crate::table::PipelineCostTable;

/// The pipeline engine: evaluates `plan` against a pre-priced
/// [`PipelineCostTable`] using caller-owned buffers. The model is split
/// into balanced contiguous stages, the global batch into microbatches,
/// and the chosen schedule (GPipe or 1F1B) is replayed on per-stage
/// streams; serve workloads run prefill waves followed by the pipelined
/// decode stream.
///
/// No partitioning, memory derivation, or cost-model pricing runs per
/// call (everything comes from the table), and the trace arena, schedule,
/// and stream-slot table in `scratch` are recycled across calls. Two
/// layers collapse repeated work further:
///
/// - a candidate whose assembly inputs were already evaluated through
///   this table — by *any* worker; the memo store is shared — returns the
///   memoized report without re-assembling (for serve workloads the
///   decode stream is schedule-independent, so the GPipe/1F1B pair of a
///   sweep shares one entry);
/// - serve candidates with long decode streams are evaluated by the
///   closed-form steady-state path (`madmax_core::steady`): only the
///   prefill and a short transient token prefix are assembled, the
///   remaining tokens advance in exact integer arithmetic, and the
///   synthesized report is byte-identical to full simulation (automatic
///   fallback when the exactness conditions fail).
///
/// The host time of each phase run is added to `scratch.phases`.
///
/// # Errors
///
/// [`PlanError::InvalidPipeline`] when the plan has no active pipeline
/// config or the pipeline cannot be mapped (too few layers, indivisible
/// devices, bad microbatch count); [`PlanError::InvalidStrategy`] /
/// [`PlanError::OutOfMemory`] as in the flat engine. See
/// [`PipelineCostTable::priced_for`] for the order.
///
/// # Panics
///
/// Panics when the plan's (depth, assignment, microbatches) key was not
/// priced into `table` via `PipelineCostTable::ensure_plan`.
pub fn run_pipelined_cached(
    table: &PipelineCostTable,
    plan: &Plan,
    scratch: &mut EngineScratch,
) -> Result<IterationReport, PlanError> {
    let priced = table.priced_for(plan)?;
    if let Some(report) = table.memo_lookup(priced.memo_key) {
        table.memo_counters().hit();
        return Ok(report);
    }
    table.memo_counters().miss();

    // Closed-form steady-state path: assemble only prefill + transient
    // tokens, advance the rest analytically (byte-identical or fallback).
    let mut t = Instant::now();
    if let Some((decode, decode_len)) = priced.decode {
        if table.analytic_serve() && decode_len >= madmax_core::steady::MIN_ANALYTIC_DECODE {
            let explicit = madmax_core::steady::EXPLICIT_TOKENS;
            build_serve_trace_into(
                priced.primary,
                decode,
                &priced.cfg,
                explicit,
                priced.prompt_len,
                &mut scratch.trace,
            );
            let model = table.report_model();
            let dims = madmax_core::ServeDims {
                prompt_len: priced.prompt_len,
                decode_len,
                decode_batch: model.global_batch,
            };
            let report = madmax_core::evaluate_serve_prefix(
                &scratch.trace,
                explicit,
                &dims,
                model,
                priced.memory,
                &mut scratch.steady,
            );
            t = scratch.phases.record(Phase::Steady, t);
            if let Some(report) = report {
                table.analytic_counters().hit();
                table.memo_insert(priced.memo_key, &report);
                return Ok(report);
            }
        }
    }

    match priced.decode {
        Some((decode, decode_len)) => build_serve_trace_into(
            priced.primary,
            decode,
            &priced.cfg,
            decode_len,
            priced.prompt_len,
            &mut scratch.trace,
        ),
        None => build_pipeline_trace_into(
            priced.primary,
            &priced.cfg,
            table.workload().has_backward(),
            &mut scratch.trace,
        ),
    }
    let t = scratch.phases.record(Phase::Assemble, t);
    schedule_into(&scratch.trace, &mut scratch.sched, &mut scratch.streams);
    let t = scratch.phases.record(Phase::Schedule, t);
    let model = table.report_model();
    let mut report = IterationReport::from_schedule_in(
        &scratch.trace,
        &scratch.sched,
        model,
        priced.memory,
        &mut scratch.report,
    );
    if let Some((_, decode_len)) = priced.decode {
        table.analytic_counters().miss();
        report.serve = Some(serve_stats_from(
            &scratch.trace,
            &scratch.sched,
            priced.prompt_len,
            decode_len,
            model.global_batch,
        ));
    }
    scratch.phases.record(Phase::Report, t);
    if cfg!(debug_assertions) {
        madmax_core::debug_check_schedule(&scratch.trace, &scratch.sched);
    }
    table.memo_insert(priced.memo_key, &report);
    Ok(report)
}

/// Evaluates `plan` once through a single-use cost table priced for it
/// alone: `madmax_core::run_flat_single_use` for flat plans, a
/// [`PipelineCostTable`] evaluated by [`run_pipelined_cached`] for plans
/// with an active pipeline config.
///
/// `analytic_serve` sets the table's closed-form decode switch. With it
/// off, the full trace and its schedule are left in `scratch.trace` and
/// `scratch.sched` for timeline rendering.
///
/// # Errors
///
/// Same conditions as `madmax_core::run_flat_cached` and
/// [`run_pipelined_cached`].
#[allow(clippy::too_many_arguments)]
pub fn run_single_use(
    model: &ModelArch,
    cluster: &ClusterSpec,
    plan: &Plan,
    workload: Workload,
    collectives: &dyn CollectiveModel,
    utilization: UtilizationModel,
    analytic_serve: bool,
    scratch: &mut EngineScratch,
) -> Result<IterationReport, PlanError> {
    if plan.pipeline.is_some_and(|c| c.is_pipelined()) {
        let t = Instant::now();
        let mut table = PipelineCostTable::new(
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
        run_pipelined_cached(&table, plan, scratch)
    } else {
        madmax_core::run_flat_single_use(
            model,
            cluster,
            plan,
            workload,
            collectives,
            utilization,
            analytic_serve,
            scratch,
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use madmax_core::{CostTable, HierarchicalNccl};
    use madmax_hw::catalog;
    use madmax_model::ModelId;
    use madmax_parallel::{PipelineConfig, ServeConfig};

    fn simulate(
        model: &ModelArch,
        cluster: &ClusterSpec,
        plan: &Plan,
        workload: Workload,
    ) -> Result<IterationReport, PlanError> {
        run_single_use(
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
    fn pipelined_llm_runs_and_reports_bubble() {
        let model = ModelId::Llama2.build();
        let sys = catalog::llama_llm_system();
        let plan = Plan::fsdp_baseline(&model).with_pipeline(PipelineConfig::gpipe(8, 16));
        let r = simulate(&model, &sys, &plan, Workload::pretrain()).unwrap();
        let bubble = r.bubble_fraction.expect("pipelined run reports bubble");
        // Fill/drain overhead plus transfer/parameter-fetch slack: at least
        // the analytic floor, and well below 1.
        assert!(
            bubble >= crate::gpipe_bubble_fraction(8, 16) - 1e-9,
            "{bubble}"
        );
        assert!(bubble < 0.75, "{bubble}");
        assert!(r.iteration_time.as_secs() > 0.0);
    }

    #[test]
    fn non_pipelined_plan_delegates_to_flat_engine() {
        let model = ModelId::DlrmA.build();
        let sys = catalog::zionex_dlrm_system();
        let plan = Plan::fsdp_baseline(&model);
        let mut table = CostTable::new(
            &model,
            &sys,
            Workload::pretrain(),
            plan.options,
            &HierarchicalNccl,
            UtilizationModel::Constant,
        );
        table.ensure_plan(&plan);
        let flat = madmax_core::run_flat_cached(&table, &plan, &mut EngineScratch::new()).unwrap();
        let piped = simulate(&model, &sys, &plan, Workload::pretrain()).unwrap();
        assert_eq!(flat, piped);
        assert!(piped.bubble_fraction.is_none());
    }

    #[test]
    fn flat_engine_rejects_pipelined_plans() {
        let model = ModelId::Llama2.build();
        let sys = catalog::llama_llm_system();
        let plan = Plan::fsdp_baseline(&model).with_pipeline(PipelineConfig::gpipe(8, 16));
        let err = madmax_core::run_flat_single_use(
            &model,
            &sys,
            &plan,
            Workload::pretrain(),
            &HierarchicalNccl,
            UtilizationModel::Constant,
            true,
            &mut EngineScratch::new(),
        )
        .unwrap_err();
        assert!(
            matches!(err, PlanError::PipelinedPlan { stages: 8 }),
            "{err}"
        );
    }

    #[test]
    fn pipeline_engine_rejects_flat_plans() {
        let model = ModelId::Llama2.build();
        let sys = catalog::llama_llm_system();
        let plan = Plan::fsdp_baseline(&model);
        let mut table = PipelineCostTable::new(
            &model,
            &sys,
            Workload::pretrain(),
            plan.options,
            &HierarchicalNccl,
            UtilizationModel::Constant,
        );
        table.ensure_plan(&plan);
        let err = run_pipelined_cached(&table, &plan, &mut EngineScratch::new()).unwrap_err();
        assert!(matches!(err, PlanError::InvalidPipeline { .. }), "{err}");
    }

    #[test]
    fn more_microbatches_shrink_the_bubble() {
        let model = ModelId::Gpt3.build();
        let sys = catalog::llama_llm_system();
        let mut last = f64::INFINITY;
        for m in [4usize, 16, 64] {
            let plan = Plan::fsdp_baseline(&model).with_pipeline(PipelineConfig::one_f_one_b(8, m));
            let r = simulate(&model, &sys, &plan, Workload::pretrain()).unwrap();
            let bubble = r.bubble_fraction.unwrap();
            assert!(bubble < last, "m={m}: {bubble} vs {last}");
            last = bubble;
        }
    }

    #[test]
    fn indivisible_stage_counts_rejected() {
        let model = ModelId::Gpt3.build();
        let sys = catalog::llama_llm_system(); // 256 nodes
        let plan = Plan::fsdp_baseline(&model).with_pipeline(PipelineConfig::gpipe(7, 8));
        let err = simulate(&model, &sys, &plan, Workload::pretrain()).unwrap_err();
        assert!(matches!(err, PlanError::InvalidPipeline { .. }), "{err}");
    }

    #[test]
    fn pipeline_inference_runs_forward_only() {
        let model = ModelId::Llama2.build();
        let sys = catalog::llama_llm_system();
        let plan = Plan::fsdp_baseline(&model).with_pipeline(PipelineConfig::gpipe(8, 16));
        let infer = simulate(&model, &sys, &plan, Workload::inference()).unwrap();
        let train = simulate(&model, &sys, &plan, Workload::pretrain()).unwrap();
        assert!(infer.iteration_time < train.iteration_time);
        use madmax_parallel::CollectiveKind;
        assert!(!infer
            .comm_by_collective
            .contains_key(&CollectiveKind::ReduceScatter));
        assert!(infer.serve.is_none(), "prefill-only: no serve stats");
    }

    #[test]
    fn pipelined_serve_reports_ttft_and_tpot() {
        let model = ModelId::Llama2.build();
        let sys = catalog::llama_llm_system();
        let plan = Plan::fsdp_baseline(&model).with_pipeline(PipelineConfig::gpipe(8, 16));
        let workload = Workload::serve(ServeConfig::new(1024, 32));
        let r = simulate(&model, &sys, &plan, workload).unwrap();
        let s = r.serve.expect("decode run reports serve stats");
        assert_eq!(s.prompt_len, 1024);
        assert_eq!(s.decode_len, 32);
        assert!(s.ttft.as_secs() > 0.0 && s.tpot.as_secs() > 0.0);
        assert!(r.memory.kv_cache.as_gb() > 0.0);
        // The decode stream dominates iteration time here, and throughput
        // accounting follows the serve batch.
        assert!(r.serve_tokens_per_sec().unwrap() > 0.0);
    }
}
