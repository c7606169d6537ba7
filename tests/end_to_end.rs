//! Cross-crate end-to-end tests: JSON config round trips driving the full
//! pipeline, determinism, and consistency between the simulator's views.

use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicUsize, Ordering};

use madmax_core::config::{ExperimentSpec, SimulationConfig};
use madmax_core::StreamId;
use madmax_engine::{simulate, Scenario};
use madmax_hw::catalog;
use madmax_model::{LayerClass, ModelId};
use madmax_parallel::{HierStrategy, Plan, Strategy, Workload};

#[test]
fn json_round_trip_preserves_simulation_results() {
    for id in [ModelId::DlrmA, ModelId::Gpt3, ModelId::LlmMoe] {
        let model = id.build();
        let system = if id.is_dlrm() {
            catalog::zionex_dlrm_system()
        } else {
            catalog::llama_llm_system()
        };
        let plan = Plan::fsdp_baseline(&model);
        let direct = simulate(&model, &system, &plan, Workload::pretrain()).unwrap();

        let cfg = SimulationConfig {
            model,
            system,
            experiment: ExperimentSpec {
                workload: Workload::pretrain(),
                plan,
            },
        };
        let json = cfg.to_json().unwrap();
        let loaded = SimulationConfig::from_json(&json).unwrap();
        let reloaded = simulate(
            &loaded.model,
            &loaded.system,
            &loaded.experiment.plan,
            loaded.experiment.workload,
        )
        .unwrap();
        assert_eq!(direct, reloaded, "{id}: config round trip changed results");
    }
}

#[test]
fn simulation_is_deterministic() {
    let model = ModelId::DlrmATransformer.build();
    let sys = catalog::zionex_dlrm_system();
    let plan = Plan::fsdp_baseline(&model);
    let a = simulate(&model, &sys, &plan, Workload::pretrain()).unwrap();
    let b = simulate(&model, &sys, &plan, Workload::pretrain()).unwrap();
    assert_eq!(a, b);
}

#[test]
fn schedule_respects_dependencies_and_stream_order() {
    let model = ModelId::DlrmA.build();
    let sys = catalog::zionex_dlrm_system();
    let plan = Plan::fsdp_baseline(&model);
    let (_, trace, sched) = Scenario::new(&model, &sys)
        .plan(plan)
        .run_with_trace()
        .unwrap();

    // Every dependency finishes before its dependent starts.
    for (i, op) in trace.ops().iter().enumerate() {
        for dep in &op.deps {
            assert!(
                sched.windows[dep.0].finish <= sched.windows[i].start,
                "{} starts before {} finishes",
                op.name,
                trace.ops()[dep.0].name
            );
        }
        // Durations are non-negative and windows are consistent.
        assert!(sched.windows[i].finish >= sched.windows[i].start);
    }

    // Within each stream, ops run in issue order without overlap.
    for stream in [StreamId::Compute, StreamId::Comm, StreamId::GradComm] {
        let mut last_finish = None;
        for (id, _) in trace.stream_ops(stream) {
            let w = sched.windows[id.0];
            if let Some(lf) = last_finish {
                assert!(w.start >= lf, "stream {stream:?} overlaps itself");
            }
            last_finish = Some(w.finish);
        }
    }
}

#[test]
fn accounting_identities_hold_across_suite() {
    for id in ModelId::ALL {
        let model = id.build();
        let sys = if id.is_dlrm() {
            catalog::zionex_dlrm_system()
        } else {
            catalog::llama_llm_system()
        };
        let plan = Plan::fsdp_baseline(&model);
        for task in [Workload::pretrain(), Workload::inference()] {
            let r = simulate(&model, &sys, &plan, task).unwrap();
            // Serialized >= overlapped; exposed <= total comm; category sums
            // match totals.
            assert!(r.serialized_time >= r.iteration_time, "{id}");
            assert!(
                r.exposed_comm <= r.comm_time + madmax_hw::Seconds::from_us(1.0),
                "{id}"
            );
            let comm_sum: madmax_hw::Seconds = r.comm_by_collective.values().copied().sum();
            assert!(
                (comm_sum.as_secs() - r.comm_time.as_secs()).abs() < 1e-9,
                "{id}"
            );
            let serial_sum = r.compute_time() + r.comm_time;
            assert!(
                (serial_sum.as_secs() - r.serialized_time.as_secs()).abs() < 1e-9,
                "{id}: {} vs {}",
                serial_sum,
                r.serialized_time
            );
            assert!(r.samples_per_sec() > 0.0);
        }
    }
}

#[test]
fn more_nodes_increase_throughput_but_sublinearly_for_dlrm() {
    let model = ModelId::DlrmA.build();
    let mut throughputs = Vec::new();
    for nodes in [4usize, 8, 16] {
        let sys = catalog::zionex_dlrm_system().with_num_nodes(nodes);
        let mut scaled = model.clone();
        scaled.global_batch = 512 * sys.total_devices();
        let mut plan = Plan::fsdp_baseline(&scaled);
        plan.options.ignore_memory_limits = true; // isolate network scaling
        let r = simulate(&scaled, &sys, &plan, Workload::pretrain()).unwrap();
        throughputs.push(r.samples_per_sec());
    }
    assert!(throughputs[1] > throughputs[0]);
    assert!(throughputs[2] > throughputs[1]);
    // Scaling efficiency below 100%: All2All spans slower links as nodes
    // grow.
    let eff = throughputs[2] / throughputs[0] / 4.0;
    assert!(eff < 1.0, "efficiency {eff:.2}");
}

#[test]
fn collective_dtype_halves_fsdp_traffic() {
    let model = ModelId::DlrmA.build();
    let sys = catalog::zionex_dlrm_system();
    let mut plan = Plan::fsdp_baseline(&model);
    plan.options.collective_dtype = madmax_hw::DType::Bf16;
    let bf16 = simulate(&model, &sys, &plan, Workload::pretrain()).unwrap();
    plan.options.collective_dtype = madmax_hw::DType::Fp32;
    let fp32 = simulate(&model, &sys, &plan, Workload::pretrain()).unwrap();
    // FSDP AllGather/ReduceScatter payloads double at fp32 on the wire;
    // All2All (activation) payloads are unchanged.
    let ag16 = bf16.comm_by_collective[&madmax_parallel::CollectiveKind::AllGather];
    let ag32 = fp32.comm_by_collective[&madmax_parallel::CollectiveKind::AllGather];
    assert!((ag32.as_secs() / ag16.as_secs() - 2.0).abs() < 0.01);
    let a2a16 = bf16.comm_by_collective[&madmax_parallel::CollectiveKind::AllToAll];
    let a2a32 = fp32.comm_by_collective[&madmax_parallel::CollectiveKind::AllToAll];
    assert!((a2a32.as_secs() - a2a16.as_secs()).abs() < 1e-12);
}

#[test]
fn single_node_dlrm_has_no_internode_bottleneck() {
    let model = ModelId::DlrmB.build();
    let one = catalog::zionex_dlrm_system().with_num_nodes(1);
    let sixteen = catalog::zionex_dlrm_system();
    let mut m1 = model.clone();
    m1.global_batch = 2048 * 8;
    let mut plan = Plan::fsdp_baseline(&m1);
    plan.options.ignore_memory_limits = true;
    let r1 = simulate(&m1, &one, &plan, Workload::pretrain()).unwrap();
    let r16 = simulate(
        &model,
        &sixteen,
        &Plan::fsdp_baseline(&model),
        Workload::pretrain(),
    )
    .unwrap();
    // Same per-device batch, but the single node exchanges embeddings over
    // NVLink only: faster per-iteration comm.
    assert!(r1.comm_time < r16.comm_time);
}

#[test]
fn moe_expert_parallelism_creates_blocking_a2a() {
    let model = ModelId::LlmMoe.build();
    let sys = catalog::llama_llm_system();
    let plan = Plan::fsdp_baseline(&model)
        .with_strategy(LayerClass::Moe, HierStrategy::flat(Strategy::Shard));
    let r = simulate(&model, &sys, &plan, Workload::pretrain()).unwrap();
    let a2a = r.comm_by_collective[&madmax_parallel::CollectiveKind::AllToAll];
    assert!(a2a.as_secs() > 0.0);
    // MoE A2A is on the critical path: some of it must be exposed.
    let exposed_a2a = r.exposed_by_collective[&madmax_parallel::CollectiveKind::AllToAll];
    assert!(exposed_a2a.as_secs() > 0.0);
}

/// A fresh, empty directory under the system temp dir, removed on drop.
struct TempDir(PathBuf);

impl TempDir {
    fn new() -> Self {
        static NEXT: AtomicUsize = AtomicUsize::new(0);
        let dir = std::env::temp_dir().join(format!(
            "madmax-end-to-end-{}-{}",
            std::process::id(),
            NEXT.fetch_add(1, Ordering::Relaxed)
        ));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).expect("temp dir is creatable");
        Self(dir)
    }
}

impl Drop for TempDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

/// Runs the `madmax` CLI binary with `args` in the working directory `dir`.
fn madmax_in(dir: &Path, args: &[&str]) -> std::process::Output {
    std::process::Command::new(env!("CARGO_BIN_EXE_madmax"))
        .current_dir(dir)
        .args(args)
        .output()
        .expect("madmax binary runs")
}

/// Runs the `madmax` CLI binary with `args` in a fresh temp directory, so
/// nothing it writes lands in the source tree.
fn madmax(args: &[&str]) -> std::process::Output {
    madmax_in(&TempDir::new().0, args)
}

#[test]
fn cli_help_prints_usage_and_succeeds() {
    for flag in ["--help", "-h", "help"] {
        let out = madmax(&[flag]);
        assert!(out.status.success(), "{flag}: {out:?}");
        let stdout = String::from_utf8(out.stdout).unwrap();
        assert!(stdout.starts_with("usage: madmax"), "{stdout}");
    }
}

#[test]
fn cli_rejects_degenerate_serve_inputs() {
    let serve = [
        "simulate", "--model", "llama2", "--system", "llama", "--task", "serve",
    ];
    for extra in [
        &["--decode-batch", "0"][..],
        &["--prompt", "0", "--decode", "8"],
    ] {
        let args: Vec<&str> = serve.iter().chain(extra).copied().collect();
        let out = madmax(&args);
        assert!(!out.status.success(), "{args:?} must fail");
        let stderr = String::from_utf8(out.stderr).unwrap();
        assert!(stderr.contains("invalid workload"), "{args:?}: {stderr}");
        assert!(out.stdout.is_empty(), "{args:?} printed a report");
    }
}

#[test]
fn cli_rejects_unknown_flags() {
    // A typo'd flag must fail loudly instead of running with the default.
    let out = madmax(&[
        "search",
        "--model",
        "llama2",
        "--system",
        "llama",
        "--task",
        "serve",
        "--arival-rate",
        "0.1",
    ]);
    assert_eq!(out.status.code(), Some(1), "{out:?}");
    assert!(out.stdout.is_empty(), "nothing ran: {out:?}");
    let stderr = String::from_utf8(out.stderr).unwrap();
    assert_eq!(stderr.trim(), "error: unknown flag --arival-rate");
}

#[test]
fn cli_figures_runs_selected_experiments() {
    let dir = TempDir::new();
    let out = madmax_in(&dir.0, &["figures", "--only", "table1", "--threads", "1"]);
    assert_eq!(out.status.code(), Some(0), "{out:?}");
    let table1 = madmax_bench::experiments::tables::table1();
    let stdout = String::from_utf8(out.stdout).unwrap();
    assert_eq!(
        stdout,
        format!("{table1}\n"),
        "stdout holds exactly the Table I report"
    );
    let stderr = String::from_utf8(out.stderr).unwrap();
    let ran: Vec<&str> = stderr
        .lines()
        .filter_map(|l| l.strip_prefix(">>> "))
        .collect();
    assert_eq!(ran, ["table1_validation"], "{stderr}");
    // Reports land under the working directory's `results/`.
    let saved = std::fs::read_to_string(dir.0.join("results/table1_validation.txt")).unwrap();
    assert_eq!(saved, table1);

    // A report that cannot be written fails the command.
    let blocked = TempDir::new();
    std::fs::write(blocked.0.join("results"), "a plain file").unwrap();
    let out = madmax_in(
        &blocked.0,
        &["figures", "--only", "table1", "--threads", "1"],
    );
    assert_eq!(out.status.code(), Some(1), "{out:?}");
    let stderr = String::from_utf8(out.stderr).unwrap();
    assert!(stderr.starts_with("error: "), "{stderr}");

    // An empty selection must not succeed silently.
    let out = madmax(&["figures", "--only", "no-such-figure"]);
    assert_eq!(out.status.code(), Some(1), "{out:?}");
    assert!(out.stdout.is_empty(), "nothing ran: {out:?}");
    let stderr = String::from_utf8(out.stderr).unwrap();
    assert!(stderr.starts_with("error: "), "{stderr}");

    let out = madmax(&["figures", "--bogus"]);
    assert_eq!(out.status.code(), Some(1), "{out:?}");
    let stderr = String::from_utf8(out.stderr).unwrap();
    assert!(stderr.contains("unknown flag"), "{stderr}");
}

#[test]
fn cli_search_telemetry_reports_phase_times() {
    let dir = TempDir::new();
    let out = madmax_in(
        &dir.0,
        &[
            "search",
            "--model",
            "llama2",
            "--system",
            "llama",
            "--threads",
            "2",
            "--telemetry",
            "telemetry.json",
        ],
    );
    assert_eq!(out.status.code(), Some(0), "{out:?}");
    let js = std::fs::read_to_string(dir.0.join("telemetry.json")).unwrap();
    let telemetry = serde_json::parse_value(&js).unwrap();
    let phase = |name: &str, key: &str| {
        let phases = serde::field(telemetry.as_map().unwrap(), "phases").unwrap();
        let entry = serde::field(phases.as_map().unwrap(), name).unwrap();
        serde::field(entry.as_map().unwrap(), key)
            .unwrap()
            .as_u64()
            .unwrap()
    };
    assert!(phase("assemble", "count") > 0, "{js}");
    assert!(phase("price", "count") > 0, "{js}");
    assert_eq!(phase("verify", "count"), 0, "no --verify: {js}");
}
