//! Parallelization plans: one hierarchical strategy per layer type, plus
//! execution options (Section IV-A's "task and parallelization strategy"
//! configuration).

use std::collections::BTreeMap;

use serde::{Deserialize, Serialize};

use madmax_hw::units::ByteCount;
use madmax_model::{LayerClass, LayerKind, ModelArch};

use crate::strategy::{HierStrategy, Strategy};

/// Optimizer family, determining per-parameter state bytes.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum OptimizerKind {
    /// Adam with fp32 master weights and two fp32 moments (12 B/param) —
    /// the standard recipe for dense/transformer layers.
    AdamMixedPrecision,
    /// Row-wise Adagrad: one fp32 state per embedding row — the standard
    /// memory-frugal recipe for production embedding tables.
    RowWiseAdagrad,
    /// Plain SGD with momentum (4 B/param).
    SgdMomentum,
}

impl OptimizerKind {
    /// Optimizer state bytes for a layer holding `params` parameters.
    pub fn state_bytes(self, params: f64, kind: &LayerKind) -> f64 {
        match self {
            OptimizerKind::AdamMixedPrecision => 12.0 * params,
            OptimizerKind::SgdMomentum => 4.0 * params,
            OptimizerKind::RowWiseAdagrad => {
                let dim = match kind {
                    LayerKind::EmbeddingBag(e) => e.dim as f64,
                    LayerKind::TokenEmbedding(t) => t.dim as f64,
                    // Degenerates to one state per parameter elsewhere.
                    _ => 1.0,
                };
                4.0 * params / dim
            }
        }
    }
}

/// Memory-budget accounting configuration.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct MemoryConfig {
    /// Fixed per-device overhead (CUDA context, NCCL buffers, framework).
    pub overhead: ByteCount,
    /// Fraction of the remaining capacity usable by the workload
    /// (allocator fragmentation and transient buffers consume the rest).
    pub reserve_frac: f64,
}

impl Default for MemoryConfig {
    fn default() -> Self {
        Self {
            overhead: ByteCount::from_gb(2.0),
            reserve_frac: 0.80,
        }
    }
}

impl MemoryConfig {
    /// Usable bytes on a device of the given HBM capacity.
    pub fn usable(&self, capacity: ByteCount) -> ByteCount {
        (capacity - self.overhead).max(ByteCount::ZERO) * self.reserve_frac
    }
}

/// Plan-level execution options.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct PlanOptions {
    /// Prefetch FSDP AllGathers so they overlap with earlier-layer compute
    /// (the optimized production implementation of Fig. 9).
    pub fsdp_prefetch: bool,
    /// Retain only transformer-block inputs and recompute internals during
    /// backward (standard for LLM pre-training).
    pub activation_checkpointing: bool,
    /// Memory accounting knobs.
    pub memory: MemoryConfig,
    /// Optimizer for embedding layers.
    pub embedding_optimizer: OptimizerKind,
    /// Optimizer for all other layers.
    pub dense_optimizer: OptimizerKind,
    /// Precision used on the wire for parameter/gradient collectives
    /// (FSDP AllGather/ReduceScatter, DDP gradient AllReduce). Production
    /// mixed-precision recipes communicate in bf16 even when master
    /// parameters are fp32.
    pub collective_dtype: madmax_hw::DType,
    /// Ignore memory-capacity limits entirely: the paper's "parallelization
    /// strategies not constrained by the memory capacities of existing
    /// training platforms" analysis (orange bars of Fig. 10).
    pub ignore_memory_limits: bool,
}

impl Default for PlanOptions {
    fn default() -> Self {
        Self {
            fsdp_prefetch: true,
            activation_checkpointing: false,
            memory: MemoryConfig::default(),
            embedding_optimizer: OptimizerKind::RowWiseAdagrad,
            dense_optimizer: OptimizerKind::AdamMixedPrecision,
            collective_dtype: madmax_hw::DType::Bf16,
            ignore_memory_limits: false,
        }
    }
}

impl PlanOptions {
    /// The optimizer used for a layer class.
    pub fn optimizer_for(&self, class: LayerClass) -> OptimizerKind {
        if class == LayerClass::Embedding {
            self.embedding_optimizer
        } else {
            self.dense_optimizer
        }
    }
}

/// The order microbatches flow through pipeline stages (Section II-B's
/// pipeline-parallelism axis; modeled after GPipe and PipeDream-Flush).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Serialize, Deserialize)]
pub enum PipelineSchedule {
    /// Fill-drain: all microbatch forwards, then all backwards. Retains
    /// activations for every in-flight microbatch.
    GPipe,
    /// One-forward-one-backward (PipeDream-Flush): after a warm-up of at
    /// most `p` forwards, each stage alternates backward/forward, bounding
    /// retained activations by the pipeline depth.
    OneFOneB,
}

impl std::fmt::Display for PipelineSchedule {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(match self {
            PipelineSchedule::GPipe => "GPipe",
            PipelineSchedule::OneFOneB => "1F1B",
        })
    }
}

/// The pipeline dimension of a plan: how many stages the model is split
/// into, how many microbatches the global batch is split into, and the
/// schedule that interleaves them.
///
/// `stages = 1` (or an absent config) means no pipeline parallelism; the
/// existing per-layer-class strategies then span the whole machine.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub struct PipelineConfig {
    /// Pipeline depth: number of contiguous layer groups (stages).
    pub stages: usize,
    /// Microbatches per iteration (the global batch is split evenly).
    pub microbatches: usize,
    /// Microbatch interleaving schedule.
    pub schedule: PipelineSchedule,
}

impl PipelineConfig {
    /// A GPipe pipeline of `stages` stages and `microbatches` microbatches.
    pub fn gpipe(stages: usize, microbatches: usize) -> Self {
        Self {
            stages,
            microbatches,
            schedule: PipelineSchedule::GPipe,
        }
    }

    /// A 1F1B pipeline of `stages` stages and `microbatches` microbatches.
    pub fn one_f_one_b(stages: usize, microbatches: usize) -> Self {
        Self {
            stages,
            microbatches,
            schedule: PipelineSchedule::OneFOneB,
        }
    }

    /// Whether this config actually pipelines (more than one stage).
    pub fn is_pipelined(&self) -> bool {
        self.stages > 1
    }

    /// The analytic pipeline-bubble fraction for uniform stages:
    /// `(p - 1) / (m + p - 1)`.
    pub fn ideal_bubble_fraction(&self) -> f64 {
        let p = self.stages as f64;
        let m = self.microbatches as f64;
        (p - 1.0) / (m + p - 1.0)
    }
}

impl std::fmt::Display for PipelineConfig {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "pp={} mb={} {}",
            self.stages, self.microbatches, self.schedule
        )
    }
}

/// A complete workload-to-system mapping: one [`HierStrategy`] per layer
/// class present in the model, plus an optional pipeline dimension.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Plan {
    /// Per-layer-class strategies (within a pipeline stage's device group
    /// when a pipeline is configured).
    pub assignments: BTreeMap<LayerClass, HierStrategy>,
    /// Pipeline-parallel dimension (`None` = no pipelining).
    pub pipeline: Option<PipelineConfig>,
    /// Execution options.
    pub options: PlanOptions,
}

/// Errors produced when validating a plan against a model and system.
#[derive(Debug, Clone, PartialEq)]
pub enum PlanError {
    /// A strategy was assigned to a layer class it cannot parallelize.
    InvalidStrategy {
        /// The offending class.
        class: LayerClass,
        /// The offending strategy.
        strategy: HierStrategy,
    },
    /// The per-device memory footprint exceeds usable HBM.
    OutOfMemory {
        /// Required bytes per device.
        required: ByteCount,
        /// Usable bytes per device.
        usable: ByteCount,
    },
    /// The plan configures pipeline parallelism, which the flat SPMD
    /// simulator cannot execute; use `madmax-pipeline`'s simulator.
    PipelinedPlan {
        /// Configured pipeline depth.
        stages: usize,
    },
    /// The pipeline configuration cannot be mapped onto the model/system
    /// (too few layers, indivisible device count, zero microbatches, ...).
    InvalidPipeline {
        /// What is wrong with the configuration.
        reason: String,
    },
}

impl std::fmt::Display for PlanError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            PlanError::InvalidStrategy { class, strategy } => {
                write!(f, "strategy {strategy} is not applicable to {class} layers")
            }
            PlanError::OutOfMemory { required, usable } => write!(
                f,
                "out of memory: requires {:.2} GB/device but only {:.2} GB usable",
                required.as_gb(),
                usable.as_gb()
            ),
            PlanError::PipelinedPlan { stages } => write!(
                f,
                "plan configures {stages} pipeline stages; pipelined plans must be \
                 simulated with madmax-pipeline"
            ),
            PlanError::InvalidPipeline { reason } => {
                write!(f, "invalid pipeline configuration: {reason}")
            }
        }
    }
}

impl std::error::Error for PlanError {}

impl Plan {
    /// The paper's baseline: FSDP for every compute layer type (the widely
    /// adopted feasibility-first default), naive model-parallel sharding
    /// for DLRM embedding tables (their only viable option, Insight 1), and
    /// activation checkpointing for token-based models.
    pub fn fsdp_baseline(model: &ModelArch) -> Self {
        let mut assignments = BTreeMap::new();
        for group in &model.groups {
            let strategy = match (group.class, &group.kind) {
                (LayerClass::Embedding, LayerKind::EmbeddingBag(_)) => {
                    HierStrategy::flat(Strategy::Shard)
                }
                _ => HierStrategy::flat(Strategy::Fsdp),
            };
            assignments.entry(group.class).or_insert(strategy);
        }
        // Checkpoint activations whenever transformer blocks are present
        // (LLMs and the DLRM transformer variants); retaining full
        // transformer activations at production batch sizes is not how any
        // of these models are trained.
        let has_transformer = model
            .groups
            .iter()
            .any(|g| matches!(g.kind, LayerKind::TransformerBlock(_)));
        let options = PlanOptions {
            activation_checkpointing: has_transformer
                || model.batch_unit == madmax_model::BatchUnit::Tokens,
            ..PlanOptions::default()
        };
        Self {
            assignments,
            pipeline: None,
            options,
        }
    }

    /// Replaces the strategy for one layer class (builder-style).
    #[must_use]
    pub fn with_strategy(mut self, class: LayerClass, strategy: HierStrategy) -> Self {
        self.assignments.insert(class, strategy);
        self
    }

    /// Sets the pipeline dimension (builder-style). `stages = 1` configs are
    /// normalized to `None`.
    #[must_use]
    pub fn with_pipeline(mut self, pipeline: PipelineConfig) -> Self {
        self.pipeline = if pipeline.is_pipelined() {
            Some(pipeline)
        } else {
            None
        };
        self
    }

    /// The effective pipeline depth (1 when no pipeline is configured).
    pub fn pipeline_stages(&self) -> usize {
        self.pipeline.map_or(1, |p| p.stages)
    }

    /// The strategy assigned to a class (FSDP if unassigned).
    pub fn strategy_for(&self, class: LayerClass) -> HierStrategy {
        self.assignments
            .get(&class)
            .copied()
            .unwrap_or(HierStrategy::Flat(Strategy::Fsdp))
    }

    /// Checks strategy/class compatibility for every class in the model.
    ///
    /// # Errors
    ///
    /// Returns [`PlanError::InvalidStrategy`] for the first incompatible
    /// assignment. Memory feasibility is checked separately by
    /// [`crate::memory::check_memory`].
    pub fn validate_strategies(&self, model: &ModelArch) -> Result<(), PlanError> {
        for group in &model.groups {
            let strategy = self.strategy_for(group.class);
            if !strategy.allowed_for(group.class) {
                return Err(PlanError::InvalidStrategy {
                    class: group.class,
                    strategy,
                });
            }
        }
        Ok(())
    }

    /// Compact display, e.g. `dense=(TP, DDP) embedding=(MP)` or
    /// `transformer=(FSDP) [pp=8 mb=32 1F1B]`.
    pub fn summary(&self) -> String {
        let classes = self
            .assignments
            .iter()
            .map(|(c, s)| format!("{c}={s}"))
            .collect::<Vec<_>>()
            .join(" ");
        match &self.pipeline {
            Some(pp) => format!("{classes} [{pp}]"),
            None => classes,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use madmax_model::ModelId;

    #[test]
    fn baseline_shards_dlrm_embeddings() {
        let m = ModelId::DlrmA.build();
        let p = Plan::fsdp_baseline(&m);
        assert_eq!(
            p.strategy_for(LayerClass::Embedding),
            HierStrategy::flat(Strategy::Shard)
        );
        assert_eq!(
            p.strategy_for(LayerClass::Dense),
            HierStrategy::flat(Strategy::Fsdp)
        );
        assert!(!p.options.activation_checkpointing);
        assert!(p.validate_strategies(&m).is_ok());
    }

    #[test]
    fn baseline_fsdp_for_llm() {
        let m = ModelId::Gpt3.build();
        let p = Plan::fsdp_baseline(&m);
        assert_eq!(
            p.strategy_for(LayerClass::Embedding),
            HierStrategy::flat(Strategy::Fsdp)
        );
        assert_eq!(
            p.strategy_for(LayerClass::Transformer),
            HierStrategy::flat(Strategy::Fsdp)
        );
        assert!(p.options.activation_checkpointing);
    }

    #[test]
    fn invalid_strategy_detected() {
        let m = ModelId::DlrmA.build();
        let p = Plan::fsdp_baseline(&m)
            .with_strategy(LayerClass::Dense, HierStrategy::flat(Strategy::Shard));
        let err = p.validate_strategies(&m).unwrap_err();
        assert!(matches!(
            err,
            PlanError::InvalidStrategy {
                class: LayerClass::Dense,
                ..
            }
        ));
        assert!(err.to_string().contains("not applicable"));
    }

    #[test]
    fn optimizer_routing() {
        let o = PlanOptions::default();
        assert_eq!(
            o.optimizer_for(LayerClass::Embedding),
            OptimizerKind::RowWiseAdagrad
        );
        assert_eq!(
            o.optimizer_for(LayerClass::Dense),
            OptimizerKind::AdamMixedPrecision
        );
    }

    #[test]
    fn optimizer_state_bytes() {
        use madmax_hw::DType;
        use madmax_model::layer::EmbeddingBagSpec;
        let emb = LayerKind::EmbeddingBag(EmbeddingBagSpec {
            num_tables: 1,
            rows_per_table: 1000.0,
            dim: 128,
            avg_lookups_per_table: 1.0,
            dtype: DType::Fp32,
        });
        let params = emb.params();
        // Row-wise: 4 bytes per row = params/dim rows.
        assert_eq!(
            OptimizerKind::RowWiseAdagrad.state_bytes(params, &emb),
            4.0 * 1000.0
        );
        assert_eq!(
            OptimizerKind::AdamMixedPrecision.state_bytes(params, &emb),
            12.0 * params
        );
        assert_eq!(
            OptimizerKind::SgdMomentum.state_bytes(params, &emb),
            4.0 * params
        );
    }

    #[test]
    fn memory_config_usable() {
        let c = MemoryConfig::default();
        let usable = c.usable(ByteCount::from_gb(40.0));
        assert!((usable.as_gb() - 30.4).abs() < 1e-9);
        // Overhead larger than capacity clamps to zero.
        let tiny = c.usable(ByteCount::from_gb(1.0));
        assert_eq!(tiny, ByteCount::ZERO);
    }
}
