//! One module per paper table/figure; each experiment exposes a `run`-style
//! function returning the rendered report.

pub mod ablations;
pub mod characterization;
pub mod fault_figs;
pub mod hardware_figs;
pub mod pipeline_figs;
pub mod serve_figs;
pub mod serve_load_figs;
pub mod strategy_figs;
pub mod tables;
pub mod validation_figs;

use crate::SearchHooks;

/// One named experiment: its `results/<name>.txt` stem and the function
/// rendering its report.
pub type Experiment<'a> = (&'static str, Box<dyn Fn() -> String + 'a>);

/// Every table/figure experiment of the suite, in `madmax figures` order. The
/// DSE-heavy ones thread `hooks` into their explorers.
pub fn all(hooks: SearchHooks<'_>) -> Vec<Experiment<'_>> {
    let h = hooks;
    vec![
        ("table1_validation", Box::new(tables::table1)),
        ("table2_model_suite", Box::new(tables::table2)),
        ("table3_systems", Box::new(tables::table3)),
        ("table4_hw_specs", Box::new(tables::table4)),
        (
            "fig01_pareto_frontier",
            Box::new(|| {
                hardware_figs::fig16("Fig. 1: Resource-performance pareto frontier (cloud DLRM-A)")
            }),
        ),
        (
            "fig03_model_characterization",
            Box::new(characterization::fig03),
        ),
        (
            "fig04_fleet_characterization",
            Box::new(characterization::fig04),
        ),
        ("fig06_sample_streams", Box::new(validation_figs::fig06)),
        ("fig07_dlrm_validation", Box::new(validation_figs::fig07)),
        ("fig08_vit_validation", Box::new(validation_figs::fig08)),
        ("fig09_fsdp_prefetch", Box::new(validation_figs::fig09)),
        (
            "fig10_pretraining_speedup",
            Box::new(move || strategy_figs::fig10(&h)),
        ),
        ("fig11_dlrm_strategy_sweep", Box::new(strategy_figs::fig11)),
        ("fig12_dlrm_variants", Box::new(strategy_figs::fig12)),
        ("fig13_variant_pareto", Box::new(strategy_figs::fig13)),
        ("fig14_task_diversity", Box::new(strategy_figs::fig14)),
        ("fig15_context_length", Box::new(strategy_figs::fig15)),
        (
            "fig16_cloud_instances",
            Box::new(|| {
                hardware_figs::fig16("Fig. 16: Cloud instance configurations and workload mappings")
            }),
        ),
        ("fig17_gpu_generations", Box::new(hardware_figs::fig17)),
        (
            "fig18_commodity_hardware",
            Box::new(move || hardware_figs::fig18(&h)),
        ),
        ("fig19_hardware_scaling", Box::new(hardware_figs::fig19)),
        ("fig20_execution_breakdown", Box::new(hardware_figs::fig20)),
        (
            "fig_pipeline_schedules",
            Box::new(move || pipeline_figs::fig_pipeline_schedules(&h)),
        ),
        ("fig_serve", Box::new(move || serve_figs::fig_serve(&h))),
        (
            "fig_serve_load",
            Box::new(move || serve_load_figs::fig_serve_load(&h)),
        ),
        ("fig_fault", Box::new(move || fault_figs::fig_fault(&h))),
        ("ablations", Box::new(ablations::run)),
    ]
}
