//! # madmax-core
//!
//! The MAD-Max distributed ML performance model (Hsia et al., ISCA 2024):
//! given a model architecture, a distributed system, a task, and a
//! hierarchical parallelization plan, it generates per-device execution
//! traces (compute + communication streams with data dependencies), replays
//! them on a two-stream overlap simulator, and reports throughput,
//! serialized/overlapped execution, exposed communication, and per-
//! collective breakdowns (Section IV of the paper).
//!
//! The unified front door to the performance model is
//! `madmax_engine::Scenario`, which dispatches between this crate's flat
//! engine ([`run_flat_cached`]) and `madmax-pipeline`'s stage engine. The
//! `validation` module holds the paper's Table I / Fig. 7-9 reference
//! experiments.
//!
//! # The two-phase engine: price, then assemble
//!
//! Trace construction is split into a **pricing** phase and an
//! **assembly** phase so design-space searches never pay for the same
//! cost twice:
//!
//! 1. *Pricing* ([`costs::CostTable`]) evaluates every per-(layer-group,
//!    [`madmax_parallel::HierStrategy`]) compute duration and collective
//!    cost once, for a fixed `(model, cluster, task, options)` context.
//! 2. *Assembly* ([`costs::CostTable::assemble_into`]) walks the model in
//!    execution order and composes cached costs into a [`Trace`] —
//!    allocation-free on the hot path: op names are structured
//!    [`trace::OpName`]s sharing `Arc<str>` labels, dependency lists store
//!    up to two entries inline ([`trace::Deps`]), and the trace arena,
//!    schedule, and stream-slot table ([`sim::EngineScratch`]) are
//!    recycled across candidates.
//!
//! **CostTable sharing contract**: `madmax-dse` builds one table per
//! search (`CostTable::ensure_plan` for every candidate, before spawning
//! workers) and shares it read-only (`&CostTable` is `Sync`) across the
//! worker pool; each worker owns an `EngineScratch` and evaluates
//! candidates through [`run_flat_cached`]. A one-shot run is the same
//! path over a single-use table priced for its one plan. A table must
//! only be used with plans whose pricing-relevant options
//! (`activation_checkpointing`, `collective_dtype`) match its context —
//! this is asserted — and a shared table produces reports byte-identical
//! to single-use ones.

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

pub mod builder;
pub mod collective;
pub mod compute;
pub mod config;
pub mod costs;
pub mod counters;
pub mod metrics;
pub mod perf;
pub mod prof;
pub mod sim;
pub mod steady;
pub mod trace;
pub mod validation;

pub use collective::{CollectiveModel, FlatWorstLink, HierarchicalNccl};
pub use compute::UtilizationModel;
pub use costs::{CostTable, PricedComm, StrategyCosts};
pub use counters::{CacheCounters, CacheStats};
pub use metrics::{serve_stats_from, IterationReport, ReportScratch, ServeStats};
pub use perf::{run_flat_cached, run_flat_single_use};
pub use sim::{
    debug_check_schedule, merged, merged_into, schedule, schedule_into, single_difference_measure,
    EngineScratch, OpWindow, ReportMemo, Schedule, StreamTable,
};
pub use steady::{
    affine_series_units, decode_compute_duration, evaluate_serve_prefix, first_series_crossing,
    grid_seconds, grid_units, grid_units_round, quantize, ServeDims, SteadyScratch,
};
pub use trace::{
    intern_label, Deps, OpId, OpKind, OpName, PassDir, Phase, StreamId, Trace, TraceOp,
};

#[cfg(test)]
mod cross_module_tests {
    use crate::perf::run_flat_single_use;
    use crate::{CostTable, EngineScratch, IterationReport, Trace, UtilizationModel};
    use madmax_hw::{catalog, ClusterSpec};
    use madmax_model::{ModelArch, ModelId};
    use madmax_parallel::{Plan, PlanError, Workload};

    fn simulate(
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
            &crate::HierarchicalNccl,
            UtilizationModel::Constant,
            true,
            &mut EngineScratch::new(),
        )
    }

    fn assemble_trace(model: &ModelArch, cluster: &ClusterSpec, plan: &Plan) -> Trace {
        let mut table = CostTable::new(
            model,
            cluster,
            Workload::pretrain(),
            plan.options,
            &crate::HierarchicalNccl,
            UtilizationModel::Constant,
        );
        table.ensure_plan(plan);
        let mut trace = Trace::new();
        table.assemble_into(plan, &mut trace);
        trace
    }

    #[test]
    fn report_serde_round_trip() {
        let model = ModelId::DlrmB.build();
        let sys = catalog::zionex_dlrm_system();
        let plan = Plan::fsdp_baseline(&model);
        let r = simulate(&model, &sys, &plan, Workload::pretrain()).unwrap();
        let js = serde_json::to_string(&r).unwrap();
        let back: crate::IterationReport = serde_json::from_str(&js).unwrap();
        assert_eq!(r, back);
    }

    #[test]
    fn trace_serde_round_trip() {
        let model = ModelId::DlrmB.build();
        let sys = catalog::zionex_dlrm_system();
        let plan = Plan::fsdp_baseline(&model);
        let trace = assemble_trace(&model, &sys, &plan);
        let js = serde_json::to_string(&trace).unwrap();
        let back: crate::Trace = serde_json::from_str(&js).unwrap();
        assert_eq!(trace, back);
    }

    #[test]
    fn faster_compute_shrinks_gemm_only() {
        use madmax_hw::DeviceScaling;
        let model = ModelId::DlrmA.build();
        let sys = catalog::zionex_dlrm_system();
        let fast = sys.scaled(&DeviceScaling::compute_only(10.0));
        let plan = Plan::fsdp_baseline(&model);
        let base = simulate(&model, &sys, &plan, Workload::pretrain()).unwrap();
        let scaled = simulate(&model, &fast, &plan, Workload::pretrain()).unwrap();
        assert!((scaled.gemm_time.as_secs() - base.gemm_time.as_secs() / 10.0).abs() < 1e-9);
        assert_eq!(scaled.lookup_time, base.lookup_time);
        assert_eq!(scaled.comm_time, base.comm_time);
    }

    #[test]
    fn faster_hbm_shrinks_lookups_only() {
        use madmax_hw::DeviceScaling;
        let model = ModelId::DlrmA.build();
        let sys = catalog::zionex_dlrm_system();
        let fast = sys.scaled(&DeviceScaling::mem_bw_only(10.0));
        let plan = Plan::fsdp_baseline(&model);
        let base = simulate(&model, &sys, &plan, Workload::pretrain()).unwrap();
        let scaled = simulate(&model, &fast, &plan, Workload::pretrain()).unwrap();
        assert!(scaled.lookup_time < base.lookup_time);
        assert_eq!(scaled.gemm_time, base.gemm_time);
    }

    #[test]
    fn bigger_batch_amortizes_fixed_communication() {
        // Doubling the global batch less than doubles iteration time for
        // FSDP workloads (parameter gathers are batch-independent).
        let mut model = ModelId::DlrmA.build();
        let sys = catalog::zionex_dlrm_system();
        let plan = Plan::fsdp_baseline(&model);
        let r1 = simulate(&model, &sys, &plan, Workload::pretrain()).unwrap();
        model.global_batch *= 2;
        let r2 = simulate(&model, &sys, &plan, Workload::pretrain()).unwrap();
        assert!(r2.iteration_time > r1.iteration_time);
        assert!(r2.iteration_time.as_secs() < 2.0 * r1.iteration_time.as_secs());
        assert!(r2.samples_per_sec() > r1.samples_per_sec());
    }

    #[test]
    fn inference_runs_forward_collectives_only() {
        let model = ModelId::DlrmA.build();
        let sys = catalog::zionex_dlrm_system();
        let plan = Plan::fsdp_baseline(&model);
        let train = simulate(&model, &sys, &plan, Workload::pretrain()).unwrap();
        let infer = simulate(&model, &sys, &plan, Workload::inference()).unwrap();
        use madmax_parallel::CollectiveKind;
        // No gradient reduce-scatter at inference.
        assert!(!infer
            .comm_by_collective
            .contains_key(&CollectiveKind::ReduceScatter));
        assert!(train
            .comm_by_collective
            .contains_key(&CollectiveKind::ReduceScatter));
        // Forward All2All halves (no gradient exchange).
        let a2a_t = train.comm_by_collective[&CollectiveKind::AllToAll];
        let a2a_i = infer.comm_by_collective[&CollectiveKind::AllToAll];
        assert!((a2a_t.as_secs() / a2a_i.as_secs() - 2.0).abs() < 1e-6);
    }
}
