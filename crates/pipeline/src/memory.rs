//! Pipeline-aware memory feasibility: each stage holds only its own layers'
//! parameters/gradients/optimizer state, but must retain activations for
//! every in-flight microbatch — all `m` under GPipe's fill-drain, at most
//! the pipeline depth under 1F1B (its raison d'être).

use madmax_hw::ClusterSpec;
use madmax_model::ModelArch;
use madmax_parallel::{
    memory_per_device, MemoryBreakdown, PipelineSchedule, Plan, PlanError, Workload,
};

#[cfg(test)]
use crate::{
    cost::{stage_cluster, stage_models},
    partition::Stage,
};

/// The worst-stage per-device footprint of a pipelined mapping, checked
/// against usable HBM: [`stage_memory`] folded by
/// [`fold_pipeline_memory`] from scratch. The fresh-pricing reference the
/// cost table (which caches the former per stage split) is tested against.
#[cfg(test)]
pub(crate) fn pipeline_memory(
    model: &ModelArch,
    cluster: &ClusterSpec,
    plan: &Plan,
    workload: &Workload,
    stages: &[Stage],
    microbatches: usize,
    schedule: PipelineSchedule,
) -> Result<MemoryBreakdown, PlanError> {
    plan.validate_strategies(model)?;
    let sub = stage_cluster(cluster, stages.len())?;
    let models = stage_models(model, stages);
    let per_stage = stage_memory(&models, &sub, plan, workload);
    fold_pipeline_memory(&per_stage, microbatches, schedule, workload, plan, cluster)
}

/// The raw per-stage footprints of a pipelined mapping: each stage holds
/// its own sub-model's parameters/gradients/optimizer state on the stage
/// sub-cluster. Schedule-independent (activations are the full-retention
/// GPipe worst case; [`fold_pipeline_memory`] applies 1F1B's in-flight
/// bound).
pub fn stage_memory(
    stage_models: &[ModelArch],
    sub: &ClusterSpec,
    plan: &Plan,
    workload: &Workload,
) -> Vec<MemoryBreakdown> {
    stage_models
        .iter()
        .map(|m| memory_per_device(m, sub, plan, workload))
        .collect()
}

/// Folds raw per-stage footprints into the worst-stage breakdown for one
/// `(microbatches, schedule)` candidate and checks it against usable HBM.
///
/// # Errors
///
/// [`PlanError::OutOfMemory`] when the worst stage exceeds usable HBM and
/// the plan does not ignore memory limits.
pub fn fold_pipeline_memory(
    per_stage: &[MemoryBreakdown],
    microbatches: usize,
    schedule: PipelineSchedule,
    workload: &Workload,
    plan: &Plan,
    cluster: &ClusterSpec,
) -> Result<MemoryBreakdown, PlanError> {
    let p = per_stage.len();
    let mut worst = MemoryBreakdown::default();
    let mut worst_total = f64::NEG_INFINITY;
    for breakdown in per_stage {
        let mut b = *breakdown;
        // memory_per_device retains the full global batch's activations —
        // exactly GPipe's worst case. 1F1B keeps at most `p` in-flight
        // microbatches of the `m` total.
        if schedule == PipelineSchedule::OneFOneB && workload.has_backward() {
            let in_flight = (p.min(microbatches)) as f64 / microbatches as f64;
            b.activations = b.activations * in_flight.min(1.0);
        }
        if b.total().value() > worst_total {
            worst_total = b.total().value();
            worst = b;
        }
    }

    if plan.options.ignore_memory_limits {
        return Ok(worst);
    }
    let usable = plan.options.memory.usable(cluster.device.hbm_capacity);
    if worst.total() > usable {
        return Err(PlanError::OutOfMemory {
            required: worst.total(),
            usable,
        });
    }
    Ok(worst)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::partition::partition_model;
    use madmax_hw::catalog;
    use madmax_model::ModelId;

    #[test]
    fn one_f_one_b_retains_less_than_gpipe() {
        let model = ModelId::Gpt3.build();
        let sys = catalog::llama_llm_system();
        let mut plan = Plan::fsdp_baseline(&model);
        plan.options.ignore_memory_limits = true;
        let stages = partition_model(&model, &sys, 8).unwrap();
        let gpipe = pipeline_memory(
            &model,
            &sys,
            &plan,
            &Workload::pretrain(),
            &stages,
            32,
            PipelineSchedule::GPipe,
        )
        .unwrap();
        let fb = pipeline_memory(
            &model,
            &sys,
            &plan,
            &Workload::pretrain(),
            &stages,
            32,
            PipelineSchedule::OneFOneB,
        )
        .unwrap();
        assert!(fb.activations < gpipe.activations);
        assert_eq!(fb.params, gpipe.params);
        // 8 in-flight of 32 microbatches -> 1/4 the activations.
        let ratio = gpipe.activations.value() / fb.activations.value();
        assert!((ratio - 4.0).abs() < 1e-9, "{ratio}");
    }

    #[test]
    fn stages_shrink_parameter_footprint() {
        let model = ModelId::Gpt3.build();
        let sys = catalog::llama_llm_system();
        let mut plan = Plan::fsdp_baseline(&model);
        plan.options.ignore_memory_limits = true;
        let flat = memory_per_device(&model, &sys, &plan, &Workload::pretrain());
        let stages = partition_model(&model, &sys, 8).unwrap();
        let piped = pipeline_memory(
            &model,
            &sys,
            &plan,
            &Workload::pretrain(),
            &stages,
            32,
            PipelineSchedule::OneFOneB,
        )
        .unwrap();
        // Each stage's FSDP group is 8x smaller but owns 1/8 of the layers:
        // the sharded parameter bytes stay comparable, while the transient
        // unsharded gather buffer is unchanged. The pipelined footprint must
        // not exceed the flat one.
        assert!(
            piped.total() <= flat.total() * 1.05,
            "{piped:?} vs {flat:?}"
        );
    }
}
