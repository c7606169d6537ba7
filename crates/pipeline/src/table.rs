//! The pricing phase of the pipeline engine: a [`PipelineCostTable`] of
//! per-(pipeline depth, strategy assignment, workload phase, microbatch
//! count) stage costs, computed once per search and composed into stage
//! traces by the assembly phase ([`crate::run_pipelined_cached`]).
//!
//! Joint design-space searches sweep `(per-class strategies) x (depth x
//! microbatches x schedule)` — and serve searches additionally the decode
//! batch — yet almost all of the per-candidate pricing work is shared:
//!
//! - the balanced stage **partition** and the stage **sub-cluster** depend
//!   only on the depth `p`;
//! - the per-stage **sub-models** (for optimizer and memory accounting)
//!   depend only on `p` and the phase model — one build per depth instead
//!   of one `ModelArch` clone per stage per candidate;
//! - the raw per-stage **memory footprints** depend on `(p, strategy
//!   assignment)`; the `(microbatches, schedule)` axes only scale 1F1B's
//!   in-flight activation bound in the final fold
//!   ([`crate::fold_pipeline_memory`]);
//! - the per-stage [`StageCosts`] of each workload phase (training
//!   fwd+bwd, or serve prefill + decode) depend on `(p, assignment,
//!   microbatches)` — the **schedule** axis only reorders trace assembly,
//!   and for serve workloads does not even do that (the decode stream is
//!   schedule-independent).
//!
//! The table memoizes every level, so a candidate evaluation through
//! [`crate::run_pipelined_cached`] assembles cached [`StageCosts`] into a
//! recycled `EngineScratch` arena with zero pricing work — no
//! `partition_model` run, no `ModelArch`/`ClusterSpec` clone, and no
//! collective-model invocation.
//!
//! # Sharing contract
//!
//! Mirroring `madmax_core::CostTable`: a table is priced for one
//! `(model, cluster, workload)` combination and one set of
//! pricing-relevant [`PlanOptions`] (everything except
//! `ignore_memory_limits`, which only gates the feasibility check and is
//! read per plan). [`PipelineCostTable::ensure_plan`] must be called for
//! every candidate before evaluation; the table is then shared read-only
//! across worker threads (it is `Sync`). Assembling a plan whose depth,
//! assignment, or microbatch count was never priced panics; error-shaped
//! candidates (invalid strategies, unmappable depths, OOM folds, bad
//! microbatch counts) are *not* priced and instead get their error from
//! [`PipelineCostTable::priced_for`] at evaluation time. A one-shot run
//! is the same path over a single-use table ([`crate::run_single_use`]).

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;

use madmax_core::{
    CacheCounters, CacheStats, CollectiveModel, IterationReport, ReportMemo, UtilizationModel,
};
use madmax_hw::ClusterSpec;
use madmax_model::{LayerClass, ModelArch};
use madmax_parallel::{
    HierStrategy, MemoryBreakdown, PipelineConfig, Plan, PlanError, PlanOptions, Workload,
};

use crate::cost::{microbatch_bounds, stage_cluster, stage_costs_in, stage_models, StageCosts};
use crate::memory::{fold_pipeline_memory, stage_memory};
use crate::partition::{partition_model, Stage};

/// Monotone stamp distinguishing tables, so a recycled `EngineScratch`
/// memo can never confuse entries of a dropped table with a new one that
/// happens to live at the same address.
static TABLE_GENERATION: AtomicU64 = AtomicU64::new(0);

/// Every pipeline-depth-independent context of one depth `p`.
#[derive(Debug)]
struct DepthEntry {
    stages: Vec<Stage>,
    /// The stage sub-cluster (owned once; candidates borrow it).
    sub: ClusterSpec,
    /// Primary-phase per-stage sub-models.
    sub_models: Vec<ModelArch>,
    /// Decode-phase per-stage sub-models (empty without a decode phase).
    decode_sub_models: Vec<ModelArch>,
    /// Per-assignment costs, keyed by the strategies of the model's
    /// classes in first-appearance order.
    assignments: Vec<(Vec<HierStrategy>, AssignEntry)>,
}

/// Costs of one `(depth, strategy assignment)` pair.
#[derive(Debug)]
struct AssignEntry {
    /// Raw (schedule-independent) per-stage memory footprints.
    per_stage_memory: Vec<MemoryBreakdown>,
    /// Priced stage costs per microbatch count.
    by_m: Vec<(usize, PhaseCosts)>,
}

/// The priced stages of every workload phase for one
/// `(depth, assignment, microbatches)` key.
#[derive(Debug)]
struct PhaseCosts {
    /// Table-unique id, part of the `EngineScratch` memo key.
    id: usize,
    primary: Vec<StageCosts>,
    decode: Option<Vec<StageCosts>>,
}

/// Everything [`crate::run_pipelined_cached`] needs to assemble one
/// candidate: borrowed priced stages, the candidate's pipeline config and
/// memory fold, and the memo key identifying the assembly inputs.
#[derive(Debug)]
pub struct PricedPipelineRef<'t> {
    /// Primary-phase stage costs (training fwd+bwd, or the serve prefill).
    pub primary: &'t [StageCosts],
    /// Decode-phase stage costs plus the decode length, for serve
    /// workloads with decode steps.
    pub decode: Option<(&'t [StageCosts], usize)>,
    /// The candidate's pipeline configuration.
    pub cfg: PipelineConfig,
    /// Resolved prompt length (KV tokens cached before decode step 0).
    pub prompt_len: usize,
    /// The candidate's worst-stage memory breakdown.
    pub memory: MemoryBreakdown,
    /// Key identifying the assembly inputs: `(table generation, phase-cost
    /// entry, schedule tag)`. Two candidates with equal keys build
    /// byte-identical traces, schedules, and reports — the scratch memo
    /// exploits this for the schedule axis of serve searches, whose decode
    /// stream is schedule-independent.
    pub memo_key: (u64, usize, u8),
}

/// Every option except `ignore_memory_limits` (which only gates the
/// feasibility check, read per plan) must match between the table and
/// every plan priced or assembled through it (mirrors
/// `madmax_core::CostTable`'s contract).
fn pricing_options_match(a: &PlanOptions, b: &PlanOptions) -> bool {
    let neutral = |o: &PlanOptions| {
        let mut o = *o;
        o.ignore_memory_limits = false;
        o
    };
    neutral(a) == neutral(b)
}

/// Shared, read-only cost cache for the pipeline engine (see the module
/// docs for the sharing contract).
#[derive(Debug)]
pub struct PipelineCostTable<'a> {
    /// The caller's model, as passed in (identity handle).
    model: &'a ModelArch,
    /// The primary-phase effective model, when the workload overrides the
    /// context length (serve prompt) or global batch (serving batch).
    eff: Option<Box<ModelArch>>,
    /// The decode-phase effective model (single-token context at the
    /// serving batch), for serve workloads with decode steps.
    decode_model: Option<Box<ModelArch>>,
    decode_len: usize,
    cluster: &'a ClusterSpec,
    workload: Workload,
    options: PlanOptions,
    collectives: &'a dyn CollectiveModel,
    utilization: UtilizationModel,
    /// Layer classes present in the model, in first-appearance order (the
    /// assignment-key dimensions).
    classes: Vec<LayerClass>,
    generation: u64,
    /// Whether `run_pipelined_cached` may use the closed-form steady-state
    /// decode evaluator (`madmax_core::steady`) for serve candidates.
    analytic_serve: bool,
    /// Running phase-cost entry counter (memo ids).
    entries: usize,
    depths: Vec<(usize, Result<DepthEntry, PlanError>)>,
    /// Price-vs-reuse telemetry: one hit per `ensure_plan` candidate whose
    /// `(depth, assignment, microbatches)` key was already priced, one
    /// miss per fresh phase-cost entry.
    counters: CacheCounters,
    /// Report-memo telemetry, bumped by `run_pipelined_cached`.
    memo_counters: CacheCounters,
    /// Closed-form-vs-fallback telemetry for serve evaluations (one hit
    /// per report synthesized by the steady-state evaluator, one miss per
    /// serve candidate that fell back to full simulation).
    analytic_counters: CacheCounters,
    /// Keyed most-recently-used store of memoized reports, shared across
    /// every worker evaluating through this table: two candidates with
    /// equal memo keys (e.g. the GPipe/1F1B pair of a serve search, whose
    /// decode stream is schedule-independent) build byte-identical
    /// reports, so whichever worker assembles first saves everyone else
    /// the work — regardless of candidate order or worker assignment.
    memo: Mutex<Vec<ReportMemo>>,
}

/// Retained [`ReportMemo`] entries: enough to cover every live
/// (depth, assignment, microbatches) key of a typical joint-search sweep
/// between revisits, small enough that lookup stays a cache-friendly
/// linear scan.
const MEMO_CAPACITY: usize = 64;

impl<'a> PipelineCostTable<'a> {
    /// Creates an empty table for one `(model, cluster, workload)`
    /// pricing context; call [`PipelineCostTable::ensure_plan`] with every
    /// candidate to fill it.
    pub fn new(
        model: &'a ModelArch,
        cluster: &'a ClusterSpec,
        workload: Workload,
        options: PlanOptions,
        collectives: &'a dyn CollectiveModel,
        utilization: UtilizationModel,
    ) -> Self {
        let eff = match workload.effective_model(model) {
            std::borrow::Cow::Borrowed(_) => None,
            std::borrow::Cow::Owned(m) => Some(Box::new(m)),
        };
        let primary: &ModelArch = eff.as_deref().unwrap_or(model);
        let decode_model = workload.decode_model(primary).map(Box::new);
        let decode_len = match &decode_model {
            Some(_) => {
                workload
                    .serve_config()
                    .expect("decode model implies serve")
                    .decode_len
            }
            None => 0,
        };
        let mut classes: Vec<LayerClass> = Vec::new();
        for g in &primary.groups {
            if !classes.contains(&g.class) {
                classes.push(g.class);
            }
        }
        Self {
            model,
            eff,
            decode_model,
            decode_len,
            cluster,
            workload,
            options,
            collectives,
            utilization,
            classes,
            generation: TABLE_GENERATION.fetch_add(1, Ordering::Relaxed) + 1,
            analytic_serve: true,
            entries: 0,
            depths: Vec::new(),
            counters: CacheCounters::new(),
            memo_counters: CacheCounters::new(),
            analytic_counters: CacheCounters::new(),
            memo: Mutex::new(Vec::new()),
        }
    }

    /// Snapshot of the price-vs-reuse counters:
    /// [`PipelineCostTable::ensure_plan`] records one hit per candidate
    /// whose `(depth, assignment, microbatches)` key was already priced
    /// and one miss per fresh phase-cost entry (error-shaped candidates,
    /// which are never priced, count as neither).
    pub fn stats(&self) -> CacheStats {
        self.counters.snapshot()
    }

    /// Snapshot of the per-scratch report-memo counters, accumulated
    /// across every worker that evaluated candidates through this table
    /// (`run_pipelined_cached` records one hit per memoized report served
    /// and one miss per trace assembled fresh).
    pub fn memo_stats(&self) -> CacheStats {
        self.memo_counters.snapshot()
    }

    /// The report-memo counter pair (crate-internal: `run_pipelined_cached`
    /// bumps it from `&self`).
    pub(crate) fn memo_counters(&self) -> &CacheCounters {
        &self.memo_counters
    }

    /// Snapshot of the closed-form-vs-fallback counters: one hit per serve
    /// report synthesized by the steady-state evaluator
    /// (`madmax_core::steady`), one miss per serve candidate assembled and
    /// simulated in full (fallback, opt-out, or short decode).
    pub fn analytic_stats(&self) -> CacheStats {
        self.analytic_counters.snapshot()
    }

    /// The closed-form-vs-fallback counter pair (crate-internal).
    pub(crate) fn analytic_counters(&self) -> &CacheCounters {
        &self.analytic_counters
    }

    /// Looks up a memoized report by its assembly-input key, refreshing
    /// its recency on a hit.
    pub(crate) fn memo_lookup(&self, key: (u64, usize, u8)) -> Option<IterationReport> {
        let mut memo = self.memo.lock().expect("memo lock poisoned");
        let i = memo.iter().position(|m| m.key == key)?;
        memo[..=i].rotate_right(1);
        Some(memo[0].report.clone())
    }

    /// Stores a freshly evaluated report under its assembly-input key.
    /// Reports for equal keys are byte-identical by construction, so a
    /// racing duplicate from another worker is simply kept (it refreshes
    /// recency either way); the least-recently-used entry is evicted past
    /// capacity.
    pub(crate) fn memo_insert(&self, key: (u64, usize, u8), report: &IterationReport) {
        let mut memo = self.memo.lock().expect("memo lock poisoned");
        match memo.iter().position(|m| m.key == key) {
            Some(i) => memo[..=i].rotate_right(1),
            None => {
                memo.truncate(MEMO_CAPACITY - 1);
                memo.insert(
                    0,
                    ReportMemo {
                        key,
                        report: report.clone(),
                    },
                );
            }
        }
    }

    /// The model this table was priced for (the caller's handle, used for
    /// identity checks).
    pub fn model(&self) -> &'a ModelArch {
        self.model
    }

    /// The primary-phase effective model: identical to
    /// [`PipelineCostTable::model`] unless the workload overrides the
    /// context length or batch (serve prompt/batch). Reports are built
    /// against this model.
    pub fn report_model(&self) -> &ModelArch {
        self.eff.as_deref().unwrap_or(self.model)
    }

    /// The cluster this table was priced for.
    pub fn cluster(&self) -> &'a ClusterSpec {
        self.cluster
    }

    /// The workload this table was priced for.
    pub fn workload(&self) -> &Workload {
        &self.workload
    }

    /// Whether the closed-form steady-state decode evaluator is enabled
    /// for serve candidates assembled through this table (on by default;
    /// it is byte-identical to full simulation, the knob exists for A/B
    /// validation and as an escape hatch).
    pub fn analytic_serve(&self) -> bool {
        self.analytic_serve
    }

    /// Enables or disables the closed-form steady-state decode path.
    pub fn set_analytic_serve(&mut self, on: bool) {
        self.analytic_serve = on;
    }

    /// The serve-stream dimensions of this table's workload, when it has
    /// a decode phase (inputs to the closed-form decode evaluator).
    pub fn serve_dims(&self) -> Option<madmax_core::ServeDims> {
        self.decode_model.as_deref()?;
        let model = self.report_model();
        Some(madmax_core::ServeDims {
            prompt_len: model.context_length,
            decode_len: self.decode_len,
            decode_batch: model.global_batch,
        })
    }

    /// The strategies `plan` assigns to the model's classes, in the
    /// table's canonical class order.
    fn assign_key(&self, plan: &Plan) -> Vec<HierStrategy> {
        self.classes.iter().map(|&c| plan.strategy_for(c)).collect()
    }

    /// Prices (once) everything `plan`'s candidate needs: the depth's
    /// partition and sub-cluster/sub-models, the assignment's per-stage
    /// memory, and the per-phase stage costs at the plan's microbatch
    /// count. Safe to call with every candidate of a search;
    /// already-priced keys and non-pipelined or error-shaped candidates
    /// (which re-derive their exact error at evaluation time) are skipped.
    ///
    /// # Panics
    ///
    /// Panics when `plan`'s pricing-relevant options diverge from the
    /// table's (see the module docs).
    pub fn ensure_plan(&mut self, plan: &Plan) {
        assert!(
            pricing_options_match(&self.options, &plan.options),
            "plan options diverge from the pipeline cost table's pricing context"
        );
        let Some(cfg) = plan.pipeline.filter(|c| c.is_pipelined()) else {
            return; // flat plans are the flat CostTable's business
        };
        let key = self.assign_key(plan);
        let primary: &ModelArch = self.eff.as_deref().unwrap_or(self.model);
        if plan.validate_strategies(primary).is_err() {
            return;
        }

        let di = match self.depths.iter().position(|(p, _)| *p == cfg.stages) {
            Some(i) => i,
            None => {
                let built = Self::build_depth(
                    primary,
                    self.decode_model.as_deref(),
                    self.cluster,
                    cfg.stages,
                );
                self.depths.push((cfg.stages, built));
                self.depths.len() - 1
            }
        };
        let collectives = self.collectives;
        let utilization = self.utilization;
        let (workload, cluster) = (&self.workload, self.cluster);
        let Ok(entry) = &mut self.depths[di].1 else {
            return; // unmappable depth; candidates reproduce the error
        };
        let ai = match entry.assignments.iter().position(|(k, _)| *k == key) {
            Some(i) => i,
            None => {
                let per_stage_memory = stage_memory(&entry.sub_models, &entry.sub, plan, workload);
                entry.assignments.push((
                    key,
                    AssignEntry {
                        per_stage_memory,
                        by_m: Vec::new(),
                    },
                ));
                entry.assignments.len() - 1
            }
        };
        let ae = &mut entry.assignments[ai].1;

        // Candidates that fail the memory fold or the microbatch bounds
        // are never priced: `priced_for` returns their error first.
        if fold_pipeline_memory(
            &ae.per_stage_memory,
            cfg.microbatches,
            cfg.schedule,
            workload,
            plan,
            cluster,
        )
        .is_err()
            || microbatch_bounds(primary, cfg.microbatches).is_err()
        {
            return;
        }
        if let Some(dm) = self.decode_model.as_deref() {
            if microbatch_bounds(dm, cfg.microbatches).is_err() {
                return;
            }
        }
        if ae.by_m.iter().any(|(m, _)| *m == cfg.microbatches) {
            self.counters.hit();
            return;
        }

        let Ok(primary_costs) = stage_costs_in(
            primary,
            cluster,
            &entry.sub,
            &entry.sub_models,
            plan,
            workload,
            &entry.stages,
            cfg.microbatches,
            collectives,
            utilization,
        ) else {
            return;
        };
        let decode_costs = match self.decode_model.as_deref() {
            Some(dm) => {
                let Ok(costs) = stage_costs_in(
                    dm,
                    cluster,
                    &entry.sub,
                    &entry.decode_sub_models,
                    plan,
                    workload,
                    &entry.stages,
                    cfg.microbatches,
                    collectives,
                    utilization,
                ) else {
                    return;
                };
                Some(costs)
            }
            None => None,
        };
        self.counters.miss();
        let id = self.entries;
        self.entries += 1;
        ae.by_m.push((
            cfg.microbatches,
            PhaseCosts {
                id,
                primary: primary_costs,
                decode: decode_costs,
            },
        ));
    }

    /// Builds the depth-level context: partition, sub-cluster, and
    /// per-stage sub-models for both phases.
    fn build_depth(
        primary: &ModelArch,
        decode_model: Option<&ModelArch>,
        cluster: &ClusterSpec,
        p: usize,
    ) -> Result<DepthEntry, PlanError> {
        let stages = partition_model(primary, cluster, p)?;
        let sub = stage_cluster(cluster, p)?.into_owned();
        let sub_models = stage_models(primary, &stages);
        let decode_sub_models = decode_model.map_or_else(Vec::new, |dm| stage_models(dm, &stages));
        Ok(DepthEntry {
            stages,
            sub,
            sub_models,
            decode_sub_models,
            assignments: Vec::new(),
        })
    }

    /// Resolves one candidate against the table: borrowed priced stages
    /// plus the candidate's memory fold — or the pipeline engine's error,
    /// checked in this order: no active pipeline config, invalid
    /// strategies, unmappable partition/sub-cluster, the memory fold
    /// (incl. OOM), then microbatch bounds per phase.
    ///
    /// # Errors
    ///
    /// [`PlanError::InvalidPipeline`], [`PlanError::InvalidStrategy`], or
    /// [`PlanError::OutOfMemory`], in the order above.
    ///
    /// # Panics
    ///
    /// Panics when the candidate's (depth, assignment, microbatches) key
    /// was not priced via [`PipelineCostTable::ensure_plan`]; debug builds
    /// also assert that `plan`'s options match the pricing context.
    pub fn priced_for(&self, plan: &Plan) -> Result<PricedPipelineRef<'_>, PlanError> {
        debug_assert!(
            pricing_options_match(&self.options, &plan.options),
            "plan options diverge from the pipeline cost table's pricing context"
        );
        let Some(cfg) = plan.pipeline.filter(|c| c.is_pipelined()) else {
            return Err(PlanError::InvalidPipeline {
                reason: "plan has no active pipeline config (use the flat engine)".to_owned(),
            });
        };
        let primary = self.report_model();
        plan.validate_strategies(primary)?;
        let depth = self
            .depths
            .iter()
            .find(|(p, _)| *p == cfg.stages)
            .unwrap_or_else(|| {
                panic!(
                    "pipeline cost table has no entry for depth {}; \
                     call PipelineCostTable::ensure_plan for every plan first",
                    cfg.stages
                )
            });
        let entry = depth.1.as_ref().map_err(Clone::clone)?;
        let key = self.assign_key(plan);
        let ae = entry
            .assignments
            .iter()
            .find(|(k, _)| *k == key)
            .map_or_else(
                || {
                    panic!(
                        "pipeline cost table has no entry for {}; \
                         call PipelineCostTable::ensure_plan for every plan first",
                        plan.summary()
                    )
                },
                |(_, e)| e,
            );
        let memory = fold_pipeline_memory(
            &ae.per_stage_memory,
            cfg.microbatches,
            cfg.schedule,
            &self.workload,
            plan,
            self.cluster,
        )?;
        microbatch_bounds(primary, cfg.microbatches)?;
        if let Some(dm) = self.decode_model.as_deref() {
            microbatch_bounds(dm, cfg.microbatches)?;
        }
        let pc = ae
            .by_m
            .iter()
            .find(|(m, _)| *m == cfg.microbatches)
            .map_or_else(
                || {
                    panic!(
                        "pipeline cost table has no entry for {} microbatches; \
                         call PipelineCostTable::ensure_plan for every plan first",
                        cfg.microbatches
                    )
                },
                |(_, c)| c,
            );
        // Training traces depend on the schedule; serve traces do not (the
        // decode stream is forward-only), so all schedules share one tag
        // and the scratch memo collapses the schedule axis.
        let sched_tag = if self.workload.has_backward() {
            match cfg.schedule {
                madmax_parallel::PipelineSchedule::GPipe => 0,
                madmax_parallel::PipelineSchedule::OneFOneB => 1,
            }
        } else {
            2
        };
        Ok(PricedPipelineRef {
            primary: &pc.primary,
            decode: pc.decode.as_deref().map(|costs| (costs, self.decode_len)),
            cfg,
            prompt_len: primary.context_length,
            memory,
            memo_key: (self.generation, pc.id, sched_tag),
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use madmax_core::HierarchicalNccl;
    use madmax_hw::catalog;
    use madmax_model::ModelId;
    use madmax_parallel::{PipelineSchedule, ServeConfig, Strategy};

    fn table_for<'a>(
        model: &'a ModelArch,
        sys: &'a ClusterSpec,
        workload: Workload,
        options: PlanOptions,
    ) -> PipelineCostTable<'a> {
        PipelineCostTable::new(
            model,
            sys,
            workload,
            options,
            &HierarchicalNccl,
            UtilizationModel::Constant,
        )
    }

    #[test]
    fn ensure_plan_is_idempotent_and_shares_keys() {
        let model = ModelId::Llama2.build();
        let sys = catalog::llama_llm_system();
        let base = Plan::fsdp_baseline(&model);
        let mut table = table_for(&model, &sys, Workload::pretrain(), base.options);
        for schedule in [PipelineSchedule::GPipe, PipelineSchedule::OneFOneB] {
            let plan = base.clone().with_pipeline(PipelineConfig {
                stages: 8,
                microbatches: 16,
                schedule,
            });
            table.ensure_plan(&plan);
        }
        // Both schedules share one (depth, assignment, m) entry.
        assert_eq!(table.entries, 1);
        assert_eq!(table.depths.len(), 1);
        table.ensure_plan(&base.clone().with_pipeline(PipelineConfig::gpipe(8, 32)));
        assert_eq!(table.entries, 2, "new microbatch count prices once");
    }

    #[test]
    fn cached_pricing_matches_fresh_stage_costs() {
        let model = ModelId::Gpt3.build();
        let sys = catalog::llama_llm_system();
        let base = Plan::fsdp_baseline(&model);
        let plan = base
            .clone()
            .with_pipeline(PipelineConfig::one_f_one_b(8, 32));
        let mut table = table_for(&model, &sys, Workload::pretrain(), base.options);
        table.ensure_plan(&plan);
        let priced = table.priced_for(&plan).unwrap();
        let stages = partition_model(&model, &sys, 8).unwrap();
        let fresh = crate::cost::stage_costs(
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
        assert_eq!(priced.primary, fresh.as_slice());
        let fresh_mem = crate::memory::pipeline_memory(
            &model,
            &sys,
            &plan,
            &Workload::pretrain(),
            &stages,
            32,
            PipelineSchedule::OneFOneB,
        )
        .unwrap();
        assert_eq!(priced.memory, fresh_mem);
        assert!(priced.decode.is_none());
    }

    #[test]
    fn serve_tables_price_both_phases_and_share_schedule_entries() {
        let model = ModelId::Llama2.build();
        let sys = catalog::llama_llm_system();
        let base = Plan::fsdp_baseline(&model);
        let workload = Workload::serve(ServeConfig::new(512, 16).with_decode_batch(512));
        let mut table = table_for(&model, &sys, workload, base.options);
        let gpipe = base.clone().with_pipeline(PipelineConfig::gpipe(8, 8));
        let fb = base
            .clone()
            .with_pipeline(PipelineConfig::one_f_one_b(8, 8));
        table.ensure_plan(&gpipe);
        table.ensure_plan(&fb);
        let a = table.priced_for(&gpipe).unwrap();
        let b = table.priced_for(&fb).unwrap();
        assert!(a.decode.is_some());
        // Serve traces are schedule-independent: both candidates resolve
        // to the same memo key, so a recycled scratch skips re-assembly.
        assert_eq!(a.memo_key, b.memo_key);
    }

    #[test]
    fn error_shapes_match_the_uncached_path() {
        let model = ModelId::Gpt3.build();
        let sys = catalog::llama_llm_system();
        let base = Plan::fsdp_baseline(&model);
        let mut table = table_for(&model, &sys, Workload::pretrain(), base.options);

        // No active pipeline config.
        table.ensure_plan(&base);
        let err = table.priced_for(&base).unwrap_err();
        assert!(matches!(err, PlanError::InvalidPipeline { .. }));

        // Unmappable depth (256 nodes cannot split 7 ways).
        let bad = base.clone().with_pipeline(PipelineConfig::gpipe(7, 8));
        table.ensure_plan(&bad);
        let err = table.priced_for(&bad).unwrap_err();
        assert!(matches!(err, PlanError::InvalidPipeline { .. }), "{err}");

        // Invalid strategy for a class.
        let invalid = base
            .clone()
            .with_strategy(LayerClass::Embedding, HierStrategy::flat(Strategy::Tp))
            .with_pipeline(PipelineConfig::gpipe(8, 16));
        table.ensure_plan(&invalid);
        let err = table.priced_for(&invalid).unwrap_err();
        assert!(matches!(err, PlanError::InvalidStrategy { .. }), "{err}");

        // Bad microbatch count.
        let zero_m = base.clone().with_pipeline(PipelineConfig::gpipe(8, 0));
        table.ensure_plan(&zero_m);
        let err = table.priced_for(&zero_m).unwrap_err();
        assert!(matches!(err, PlanError::InvalidPipeline { .. }), "{err}");
    }

    #[test]
    #[should_panic(expected = "no entry")]
    fn assembling_an_unpriced_key_panics() {
        let model = ModelId::Llama2.build();
        let sys = catalog::llama_llm_system();
        let base = Plan::fsdp_baseline(&model);
        let mut table = table_for(&model, &sys, Workload::pretrain(), base.options);
        table.ensure_plan(&base.clone().with_pipeline(PipelineConfig::gpipe(8, 16)));
        let other = base.with_pipeline(PipelineConfig::gpipe(4, 16));
        let _ = table.priced_for(&other);
    }

    #[test]
    #[should_panic(expected = "options diverge")]
    fn mismatched_pricing_options_rejected() {
        let model = ModelId::Llama2.build();
        let sys = catalog::llama_llm_system();
        let base = Plan::fsdp_baseline(&model);
        let mut table = table_for(&model, &sys, Workload::pretrain(), base.options);
        let mut other = base.with_pipeline(PipelineConfig::gpipe(8, 16));
        other.options.activation_checkpointing = !other.options.activation_checkpointing;
        table.ensure_plan(&other);
    }
}
