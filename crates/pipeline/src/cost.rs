//! Per-stage cost derivation: turns a stage partition into the
//! per-microbatch compute/communication durations the schedule builders
//! consume, pricing intra-stage collectives and inter-stage P2P transfers
//! with the existing `madmax-core` cost models.

use std::borrow::Cow;

use madmax_hw::units::{ByteCount, Seconds};
use madmax_hw::{ClusterSpec, CommLevel, DType};
use madmax_model::{LayerClass, LayerKind, ModelArch};
use madmax_parallel::comm::CommPosition;
use madmax_parallel::{
    derive_layer_comm, CollectiveKind, CommReq, CommScope, Plan, PlanError, Urgency, Workload,
};

use madmax_core::compute::{backward_flops_factor, compute_time, lookup_time, optimizer_time};
use madmax_core::{CollectiveModel, UtilizationModel};

use crate::partition::Stage;

/// Everything the schedule builders need to know about one stage.
#[derive(Debug, Clone, PartialEq)]
pub struct StageCosts {
    /// Forward compute (+ lookups) per microbatch.
    pub fwd_compute: Seconds,
    /// Backward compute per microbatch (zero for inference).
    pub bwd_compute: Seconds,
    /// Blocking forward collectives per microbatch (TP partial sums,
    /// embedding/MoE All2All), aggregated by primitive.
    pub fwd_comm: Vec<(CollectiveKind, Seconds)>,
    /// Blocking backward collectives per microbatch.
    pub bwd_comm: Vec<(CollectiveKind, Seconds)>,
    /// Activation P2P send to the next stage, per microbatch (zero-duration
    /// for the last stage).
    pub send_fwd: Seconds,
    /// Gradient P2P send to the previous stage, per microbatch.
    pub send_bwd: Seconds,
    /// Once-per-iteration prefetchable parameter collectives (FSDP
    /// AllGathers for forward and backward).
    pub param_comm: Vec<(CollectiveKind, Seconds)>,
    /// Once-per-iteration deferred weight-gradient collectives.
    pub grad_comm: Vec<(CollectiveKind, Seconds)>,
    /// Optimizer-step time for the stage's shard of parameters.
    pub optimizer: Seconds,
    /// The layer class dominating the stage's compute (for breakdowns).
    pub dominant_class: LayerClass,
    /// Whether the stage's compute is embedding-lookup dominated.
    pub lookup_dominated: bool,
    /// Per-token KV-cache read time per microbatch (serve workloads with
    /// cache modeling, priced from the decode-phase model): a decode step
    /// at cache length `L` stretches the stage's compute by
    /// `kv_read_per_token * L`.
    pub kv_read_per_token: Seconds,
}

/// The sub-cluster one stage's devices form: total devices divided by the
/// pipeline depth, splitting whole nodes when possible. Borrows the
/// cluster unchanged for `p <= 1` and clones only when an actual sub-spec
/// must be derived — callers on the evaluation hot path cache the result
/// per depth (see `PipelineCostTable`) instead of re-splitting per
/// candidate.
///
/// # Errors
///
/// Returns [`PlanError::InvalidPipeline`] when the device count is not
/// divisible into `p` equal stage groups along the node hierarchy.
pub fn stage_cluster(cluster: &ClusterSpec, p: usize) -> Result<Cow<'_, ClusterSpec>, PlanError> {
    if p <= 1 {
        return Ok(Cow::Borrowed(cluster));
    }
    if cluster.num_nodes >= p && cluster.num_nodes.is_multiple_of(p) {
        return Ok(Cow::Owned(
            cluster.clone().with_num_nodes(cluster.num_nodes / p),
        ));
    }
    if cluster.num_nodes == 1
        && cluster.devices_per_node.is_multiple_of(p)
        && cluster.devices_per_node >= p
    {
        let mut sub = cluster.clone();
        sub.devices_per_node /= p;
        return Ok(Cow::Owned(sub));
    }
    Err(PlanError::InvalidPipeline {
        reason: format!(
            "{} nodes x {} devices cannot be split into {p} equal stage groups",
            cluster.num_nodes, cluster.devices_per_node
        ),
    })
}

/// The interconnect level inter-stage P2P transfers cross: stage groups
/// occupy whole node blocks on multi-node systems, so boundaries cross the
/// scale-out fabric; on a single node they stay on the scale-up fabric.
pub fn p2p_level(cluster: &ClusterSpec) -> CommLevel {
    if cluster.num_nodes > 1 {
        CommLevel::InterNode
    } else {
        CommLevel::IntraNode
    }
}

/// Output activation bytes per sample at a layer's boundary (what a
/// pipeline stage ships to its successor if the stage ends here).
pub fn boundary_bytes_per_sample(kind: &LayerKind, tokens: usize, act_dtype: DType) -> ByteCount {
    let bytes = f64::from(act_dtype.size_bytes());
    let b = match kind {
        LayerKind::Mlp(m) => m.out_dim() as f64 * bytes,
        LayerKind::EmbeddingBag(e) => e.pooled_output_bytes_per_sample(),
        LayerKind::TokenEmbedding(t) => t.dim as f64 * tokens as f64 * bytes,
        LayerKind::Interaction(i) => i.out_dim() as f64 * bytes,
        LayerKind::TransformerBlock(t) => t.hidden as f64 * t.seq_len(tokens) as f64 * bytes,
        LayerKind::Moe(m) => m.expert.out_dim() as f64 * tokens as f64 * bytes,
    };
    ByteCount::new(b)
}

fn add_comm(bucket: &mut Vec<(CollectiveKind, Seconds)>, kind: CollectiveKind, t: Seconds) {
    if t.is_zero() {
        return;
    }
    match bucket.iter_mut().find(|(k, _)| *k == kind) {
        Some((_, acc)) => *acc += t,
        None => bucket.push((kind, t)),
    }
}

fn p2p_time(
    payload: ByteCount,
    cluster: &ClusterSpec,
    collective_model: &dyn CollectiveModel,
) -> Seconds {
    if payload.is_zero() {
        return Seconds::ZERO;
    }
    let req = CommReq {
        collective: CollectiveKind::PointToPoint,
        scope: CommScope::Level(p2p_level(cluster)),
        group_size: 2,
        payload,
        urgency: Urgency::Blocking,
        position: CommPosition::AfterCompute,
        label: "stage.p2p".to_owned(),
    };
    collective_model.time(&req, cluster)
}

/// Builds the sub-`ModelArch` one stage executes (used for memory and
/// optimizer accounting).
pub fn stage_model(model: &ModelArch, stage: &Stage, index: usize) -> ModelArch {
    let groups = stage
        .units
        .iter()
        .map(|u| {
            let mut g = model.groups[u.group].clone();
            g.repeat = u.instances;
            g
        })
        .collect();
    ModelArch {
        name: format!("{} [stage {index}]", model.name),
        groups,
        ..model.clone()
    }
}

/// The error [`stage_costs_in`] reports for a microbatch count that is
/// zero or exceeds the global batch (shared with the cost table so the
/// error value cannot drift).
pub fn microbatch_bounds(model: &ModelArch, microbatches: usize) -> Result<(), PlanError> {
    if microbatches == 0 || microbatches > model.global_batch {
        return Err(PlanError::InvalidPipeline {
            reason: format!(
                "{microbatches} microbatches for a global batch of {}",
                model.global_batch
            ),
        });
    }
    Ok(())
}

/// [`stage_costs_in`] deriving the stage sub-cluster and per-stage
/// sub-models itself: the fresh-pricing reference the cost table is tested
/// against.
#[cfg(test)]
#[allow(clippy::too_many_arguments)]
pub(crate) fn stage_costs(
    model: &ModelArch,
    cluster: &ClusterSpec,
    plan: &Plan,
    workload: &Workload,
    stages: &[Stage],
    microbatches: usize,
    collective_model: &dyn CollectiveModel,
    utilization: UtilizationModel,
) -> Result<Vec<StageCosts>, PlanError> {
    microbatch_bounds(model, microbatches)?;
    let sub = stage_cluster(cluster, stages.len())?;
    let models = stage_models(model, stages);
    stage_costs_in(
        model,
        cluster,
        &sub,
        &models,
        plan,
        workload,
        stages,
        microbatches,
        collective_model,
        utilization,
    )
}

/// Builds every stage's sub-[`ModelArch`] (see [`stage_model`]).
pub fn stage_models(model: &ModelArch, stages: &[Stage]) -> Vec<ModelArch> {
    stages
        .iter()
        .enumerate()
        .map(|(si, stage)| stage_model(model, stage, si))
        .collect()
}

/// Derives per-stage costs for `stages` of `model` under `plan`, with the
/// global batch split into `microbatches`, against a pre-derived stage
/// sub-cluster and pre-built per-stage sub-models, so repeated pricing
/// (one call per search key instead of one per candidate) clones no
/// `ClusterSpec` or `ModelArch`.
///
/// # Errors
///
/// Returns [`PlanError::InvalidPipeline`] for a microbatch count that is
/// zero or exceeds the global batch.
#[allow(clippy::too_many_arguments)] // internal plumbing of the cost table
pub fn stage_costs_in(
    model: &ModelArch,
    cluster: &ClusterSpec,
    sub: &ClusterSpec,
    stage_models: &[ModelArch],
    plan: &Plan,
    workload: &Workload,
    stages: &[Stage],
    microbatches: usize,
    collective_model: &dyn CollectiveModel,
    utilization: UtilizationModel,
) -> Result<Vec<StageCosts>, PlanError> {
    let p = stages.len();
    microbatch_bounds(model, microbatches)?;
    let stage_devices = sub.total_devices() as f64;
    let micro_global = model.global_batch as f64 / microbatches as f64;
    let local_micro = micro_global / stage_devices;
    let tokens = model.context_length;

    let mut out = Vec::with_capacity(p);
    for (si, stage) in stages.iter().enumerate() {
        let mut costs = StageCosts {
            fwd_compute: Seconds::ZERO,
            bwd_compute: Seconds::ZERO,
            fwd_comm: Vec::new(),
            bwd_comm: Vec::new(),
            send_fwd: Seconds::ZERO,
            send_bwd: Seconds::ZERO,
            param_comm: Vec::new(),
            grad_comm: Vec::new(),
            optimizer: Seconds::ZERO,
            dominant_class: LayerClass::Dense,
            lookup_dominated: false,
            kv_read_per_token: Seconds::ZERO,
        };
        let mut class_weight: Vec<(LayerClass, f64)> = Vec::new();
        let mut lookup_secs = 0.0;
        let kv_modeled = workload.serve_config().is_some_and(|c| c.kv_cache);

        for unit in &stage.units {
            let group = &model.groups[unit.group];
            let reps = unit.instances as f64;

            // Compute / lookup per microbatch. Under the balanced-work
            // assumption per-device FLOPs are local_batch x per-sample FLOPs
            // for every strategy (TP's split and larger group batch cancel).
            let (fwd, is_lookup) = if group.kind.is_memory_bound() {
                let bytes = group.kind.lookup_bytes_per_sample(tokens) * local_micro;
                (lookup_time(bytes, sub), true)
            } else {
                let flops = group.kind.flops_fwd_per_sample(tokens) * local_micro;
                (compute_time(flops, model, sub, &utilization), false)
            };
            let fwd = fwd * reps;
            costs.fwd_compute += fwd;
            if is_lookup {
                lookup_secs += fwd.as_secs();
            }
            match class_weight.iter_mut().find(|(c, _)| *c == group.class) {
                Some((_, w)) => *w += fwd.as_secs(),
                None => class_weight.push((group.class, fwd.as_secs())),
            }

            if workload.has_backward() && workload.trains(group.class) {
                let recompute = plan.options.activation_checkpointing
                    && matches!(
                        group.kind,
                        LayerKind::TransformerBlock(_) | LayerKind::Moe(_)
                    );
                if is_lookup {
                    // Gradient scatter back into HBM mirrors the lookup.
                    costs.bwd_compute += fwd;
                } else {
                    costs.bwd_compute += fwd * backward_flops_factor(recompute);
                }
            }

            // KV-cache read coefficient: each attention instance re-reads
            // its cached keys/values (local batch share over the TP heads)
            // once per token position.
            if kv_modeled {
                let per_token = group.kind.kv_cache_bytes_per_token(model.compute_dtype);
                if !per_token.is_zero() {
                    let tp_part = plan.strategy_for(group.class).compute_shard_factor(sub);
                    costs.kv_read_per_token +=
                        lookup_time(per_token * local_micro / tp_part, sub) * reps;
                }
            }

            // Collectives: blocking activation traffic scales with the
            // microbatch; parameter traffic happens once per iteration.
            let comm = derive_layer_comm(group, plan, model, sub, workload, local_micro);
            for req in &comm.forward {
                let t = collective_model.time(req, sub) * reps;
                match (req.urgency, req.position) {
                    (Urgency::Prefetchable, _) => {
                        add_comm(&mut costs.param_comm, req.collective, t);
                    }
                    (_, CommPosition::BeforeCompute | CommPosition::AfterCompute) => {
                        add_comm(&mut costs.fwd_comm, req.collective, t);
                    }
                }
            }
            for req in &comm.backward {
                let t = collective_model.time(req, sub) * reps;
                if req.urgency == Urgency::Prefetchable {
                    add_comm(&mut costs.param_comm, req.collective, t);
                } else {
                    add_comm(&mut costs.bwd_comm, req.collective, t);
                }
            }
            for req in &comm.grad {
                let t = collective_model.time(req, sub) * reps;
                add_comm(&mut costs.grad_comm, req.collective, t);
            }
        }

        // Inter-stage transfers: the boundary layer's activations flow
        // forward; a same-sized gradient flows backward during training.
        if si + 1 < p {
            let last = stage.units.last().expect("stages are non-empty");
            let boundary = boundary_bytes_per_sample(
                &model.groups[last.group].kind,
                tokens,
                model.compute_dtype,
            ) * local_micro;
            costs.send_fwd = p2p_time(boundary, cluster, collective_model);
        }
        if si > 0 && workload.has_backward() {
            // The gradient shipped to the previous stage matches that
            // stage's boundary activations — i.e. this stage's input.
            let prev_out = boundary_input_bytes(model, stages, si, tokens) * local_micro;
            costs.send_bwd = p2p_time(prev_out, cluster, collective_model);
        }

        // Optimizer: streams the stage's parameter/optimizer shard once.
        costs.optimizer = optimizer_time(&stage_models[si], sub, plan, workload);

        class_weight.sort_by(|a, b| b.1.partial_cmp(&a.1).expect("finite weights"));
        if let Some(&(c, w)) = class_weight.first() {
            costs.dominant_class = c;
            costs.lookup_dominated =
                lookup_secs > w || lookup_secs >= costs.fwd_compute.as_secs() * 0.5;
        }
        out.push(costs);
    }
    Ok(out)
}

/// Boundary activation bytes per sample entering stage `si` (the output of
/// the last layer of stage `si - 1`).
fn boundary_input_bytes(
    model: &ModelArch,
    stages: &[Stage],
    si: usize,
    tokens: usize,
) -> ByteCount {
    let prev_last = stages[si - 1].units.last().expect("stages are non-empty");
    boundary_bytes_per_sample(
        &model.groups[prev_last.group].kind,
        tokens,
        model.compute_dtype,
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::partition::partition_model;
    use madmax_core::HierarchicalNccl;
    use madmax_hw::catalog;
    use madmax_model::ModelId;

    fn llm_setup() -> (ModelArch, ClusterSpec, Plan) {
        let model = ModelId::Gpt3.build();
        let sys = catalog::llama_llm_system();
        let plan = Plan::fsdp_baseline(&model);
        (model, sys, plan)
    }

    #[test]
    fn stage_cluster_splits_nodes() {
        let sys = catalog::llama_llm_system(); // 256 nodes x 8
        let sub = stage_cluster(&sys, 8).unwrap();
        assert_eq!(sub.num_nodes * 8, sys.num_nodes);
        assert_eq!(sub.devices_per_node, sys.devices_per_node);
        assert!(stage_cluster(&sys, 7).is_err());
        // Single-node systems split within the node.
        let one = catalog::zionex_dlrm_system().with_num_nodes(1);
        let quarters = stage_cluster(&one, 4).unwrap();
        assert_eq!(quarters.total_devices(), 2);
    }

    #[test]
    fn costs_scale_with_microbatches() {
        let (model, sys, plan) = llm_setup();
        let stages = partition_model(&model, &sys, 8).unwrap();
        let c8 = stage_costs(
            &model,
            &sys,
            &plan,
            &Workload::pretrain(),
            &stages,
            8,
            &HierarchicalNccl,
            UtilizationModel::Constant,
        )
        .unwrap();
        let c32 = stage_costs(
            &model,
            &sys,
            &plan,
            &Workload::pretrain(),
            &stages,
            32,
            &HierarchicalNccl,
            UtilizationModel::Constant,
        )
        .unwrap();
        for (a, b) in c8.iter().zip(&c32) {
            // Per-microbatch compute shrinks 4x with 4x the microbatches.
            assert!((a.fwd_compute.as_secs() / b.fwd_compute.as_secs() - 4.0).abs() < 1e-9);
            // Parameter collectives are batch-independent.
            let pa: Seconds = a.param_comm.iter().map(|(_, t)| *t).sum();
            let pb: Seconds = b.param_comm.iter().map(|(_, t)| *t).sum();
            assert!((pa.as_secs() - pb.as_secs()).abs() < 1e-12);
        }
    }

    #[test]
    fn interior_stages_send_both_ways() {
        let (model, sys, plan) = llm_setup();
        let stages = partition_model(&model, &sys, 4).unwrap();
        let costs = stage_costs(
            &model,
            &sys,
            &plan,
            &Workload::pretrain(),
            &stages,
            16,
            &HierarchicalNccl,
            UtilizationModel::Constant,
        )
        .unwrap();
        assert!(costs[0].send_fwd > Seconds::ZERO);
        assert_eq!(costs[0].send_bwd, Seconds::ZERO);
        assert!(costs[1].send_fwd > Seconds::ZERO);
        assert!(costs[1].send_bwd > Seconds::ZERO);
        let last = costs.last().unwrap();
        assert_eq!(last.send_fwd, Seconds::ZERO);
        assert!(last.send_bwd > Seconds::ZERO);
        // Inference ships no gradients.
        let infer = stage_costs(
            &model,
            &sys,
            &plan,
            &Workload::inference(),
            &stages,
            16,
            &HierarchicalNccl,
            UtilizationModel::Constant,
        )
        .unwrap();
        assert!(infer.iter().all(|c| c.send_bwd.is_zero()));
        assert!(infer.iter().all(|c| c.bwd_compute.is_zero()));
    }

    #[test]
    fn microbatch_bounds_checked() {
        let (model, sys, plan) = llm_setup();
        let stages = partition_model(&model, &sys, 4).unwrap();
        for bad in [0usize, model.global_batch + 1] {
            let err = stage_costs(
                &model,
                &sys,
                &plan,
                &Workload::pretrain(),
                &stages,
                bad,
                &HierarchicalNccl,
                UtilizationModel::Constant,
            )
            .unwrap_err();
            assert!(matches!(err, PlanError::InvalidPipeline { .. }));
        }
    }
}
