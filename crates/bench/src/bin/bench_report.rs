//! Performance-trajectory harness: times `Explorer::explore()` on the
//! fig10-style joint strategy searches, the pipeline-schedule grids and
//! joint strategy x pipeline searches, the serve-mode (`fig_serve`)
//! searches, and the continuous-batching load paths (`serve_load/...`:
//! event-driven vs naive per-token simulation at long decode lengths,
//! plus the SLO goodput search), then writes a machine-readable
//! `BENCH_PR<n>.json` at the repository root. Each PR that claims a hot-path win (or adds a new
//! search family) re-runs this bin and commits the new point, so the perf
//! history is a series of comparable JSON files rather than anecdotes.
//!
//! Usage:
//!
//! ```text
//! cargo run --release -p madmax-bench --bin bench_report -- \
//!     [--threads N] [--out BENCH_PR6.json] [--reps 5] [--baseline PRE.json] \
//!     [--guard 0.95]
//! ```
//!
//! With `--baseline`, a previously emitted report (e.g. one produced by
//! running this bin against the pre-PR commit) is joined by search name
//! and each record gains `pre_pr_wall_ms` and `speedup` fields, making
//! the committed file a self-contained before/after comparison.
//! `--guard R` additionally fails the run (exit 1) unless the aggregate
//! fig10 suite stayed at least `R`x the baseline's wall-clock — the
//! telemetry layer's overhead guard: searches run with telemetry *off*
//! (no progress sink, no spool), so always-on counters must stay in the
//! noise.
//!
//! Fig. 10 runs each model's joint strategy search twice — memory-
//! constrained (blue bars) and unconstrained (orange bars) — so one record
//! is emitted per (model, constraint) search:
//! `{"search": "fig10/GPT-3/unconstrained", "candidates": 144,
//! "wall_ms": 1.23, "threads": 1}`. `wall_ms` is the best (minimum) of
//! `--reps` timed runs after one warm-up, so allocator and cache warm-up
//! noise does not pollute the trajectory.

use std::time::Instant;

use madmax_dse::{Explorer, FaultAxes, LoadAxes, PipelineAxes, SearchSpace, ServeAxes};
use madmax_engine::{FaultSpec, RetryPolicy, Scenario, SimMode};
use madmax_fault::materialize_faults;
use madmax_hw::units::Seconds;
use madmax_hw::{catalog, DeviceScaling};
use madmax_model::{LayerClass, ModelId};
use madmax_parallel::{LoadSpec, PipelineConfig, PipelineSchedule, Plan, ServeConfig, Workload};
use serde::{Deserialize, Serialize};

/// One timed search, as emitted (and re-read via `--baseline`) by this
/// bin. The comparison fields are `None`/`null` when no baseline is
/// supplied; the cache-hit-rate columns are `None` for aggregate records
/// and when re-reading reports from before the telemetry layer existed.
#[derive(Debug, Serialize, Deserialize)]
struct BenchRecord {
    search: String,
    candidates: usize,
    wall_ms: f64,
    threads: usize,
    pre_pr_wall_ms: Option<f64>,
    speedup: Option<f64>,
    flat_cache_hit_rate: Option<f64>,
    pipeline_cache_hit_rate: Option<f64>,
    report_memo_hit_rate: Option<f64>,
}

fn arg_value(name: &str) -> Option<String> {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut it = args.iter();
    while let Some(a) = it.next() {
        if a == name {
            return it.next().cloned();
        }
    }
    None
}

/// Times one search — one warm-up, then best-of-`reps` — and records it
/// under `search`, joining the pre-PR point from `baseline` when present.
/// `telemetry` (from a representative run) supplies the cache-hit-rate
/// columns.
#[allow(clippy::too_many_arguments)]
fn record(
    records: &mut Vec<BenchRecord>,
    baseline: &[BenchRecord],
    search: String,
    candidates: usize,
    threads: usize,
    reps: usize,
    telemetry: Option<&madmax_obs::SearchTelemetry>,
    mut run: impl FnMut(),
) -> f64 {
    run(); // warm-up
    let mut best_ms = f64::INFINITY;
    for _ in 0..reps {
        let start = Instant::now();
        run();
        best_ms = best_ms.min(start.elapsed().as_secs_f64() * 1e3);
    }
    let pre = baseline
        .iter()
        .find(|r| r.search == search)
        .map(|r| r.wall_ms);
    let vs = pre.map_or(String::new(), |p| format!("  {:5.1}x vs pre", p / best_ms));
    let hit =
        |r: Option<f64>| r.map_or_else(|| "    -".to_owned(), |r| format!("{:4.0}%", r * 100.0));
    let flat = telemetry.and_then(|t| t.flat_cache.hit_rate());
    let pipe = telemetry.and_then(|t| t.pipeline_cache.hit_rate());
    let memo = telemetry.and_then(|t| t.report_memo.hit_rate());
    println!(
        "{search:<46} {candidates:>4} candidates  {best_ms:>9.2} ms  \
         cache {}/{}/{}  ({threads} threads){vs}",
        hit(flat),
        hit(pipe),
        hit(memo),
    );
    records.push(BenchRecord {
        search,
        candidates,
        wall_ms: best_ms,
        threads,
        pre_pr_wall_ms: pre,
        speedup: pre.map(|p| p / best_ms),
        flat_cache_hit_rate: flat,
        pipeline_cache_hit_rate: pipe,
        report_memo_hit_rate: memo,
    });
    best_ms
}

fn main() {
    let threads = arg_value("--threads")
        .and_then(|v| v.parse::<usize>().ok())
        .map_or_else(madmax_bench::default_threads, |n| n.max(1));
    let out_path = arg_value("--out").unwrap_or_else(|| "BENCH_PR6.json".to_owned());
    let guard: Option<f64> = arg_value("--guard").map(|v| {
        v.parse()
            .unwrap_or_else(|_| panic!("--guard expects a ratio, got `{v}`"))
    });
    let reps: usize = arg_value("--reps")
        .and_then(|v| v.parse().ok())
        .unwrap_or(5)
        .max(1);
    let baseline: Vec<BenchRecord> = match arg_value("--baseline") {
        Some(path) => {
            let text = std::fs::read_to_string(&path)
                .unwrap_or_else(|e| panic!("read baseline {path}: {e}"));
            serde_json::from_str(&text).unwrap_or_else(|e| panic!("parse baseline {path}: {e}"))
        }
        None => Vec::new(),
    };

    let mut records: Vec<BenchRecord> = Vec::new();
    let (mut total_candidates, mut total_ms) = (0usize, 0.0f64);
    for id in ModelId::ALL {
        let model = id.build();
        let system = if id.is_dlrm() {
            catalog::zionex_dlrm_system()
        } else {
            catalog::llama_llm_system()
        };
        for (label, space) in [
            ("", SearchSpace::strategies()),
            ("/unconstrained", SearchSpace::strategies().unconstrained()),
        ] {
            let explorer = Explorer::new(&model, &system).space(space).threads(threads);
            let candidates = explorer.candidates().len();
            let outcome = explorer.explore().expect("baseline feasible");
            let best_ms = record(
                &mut records,
                &baseline,
                format!("fig10/{id}{label}"),
                candidates,
                threads,
                reps,
                Some(&outcome.telemetry),
                || {
                    let o = explorer.explore().expect("baseline feasible");
                    assert_eq!(o.best_plan, outcome.best_plan, "non-deterministic search");
                },
            );
            total_candidates += candidates;
            total_ms += best_ms;
        }
    }

    // Aggregate record: the full fig10 search suite, wall-clock summed.
    // A baseline produced by this bin carries its own aggregate record;
    // exclude it (and the non-fig10 searches) so pre-PR time is not
    // double-counted.
    {
        let search = "fig10/all".to_owned();
        let pre: f64 = baseline
            .iter()
            .filter(|r| r.search != search && r.search.starts_with("fig10/"))
            .map(|r| r.wall_ms)
            .sum();
        let pre = (pre > 0.0).then_some(pre);
        let vs = pre.map_or(String::new(), |p| format!("  {:5.1}x vs pre", p / total_ms));
        println!(
            "{search:<46} {total_candidates:>4} candidates  {total_ms:>9.2} ms  \
             ({threads} threads){vs}"
        );
        records.push(BenchRecord {
            search,
            candidates: total_candidates,
            wall_ms: total_ms,
            threads,
            pre_pr_wall_ms: pre,
            speedup: pre.map(|p| p / total_ms),
            flat_cache_hit_rate: None,
            pipeline_cache_hit_rate: None,
            report_memo_hit_rate: None,
        });
        // Overhead guard: the always-on telemetry counters (relaxed
        // atomics in the cost tables) must not slow the telemetry-off
        // suite below `--guard` x the baseline.
        if let (Some(ratio), Some(p)) = (guard, pre) {
            let speedup = p / total_ms;
            assert!(
                speedup >= ratio,
                "overhead guard failed: fig10 suite at {speedup:.3}x of baseline \
                 (threshold {ratio}x)"
            );
            println!("overhead guard passed: {speedup:.3}x >= {ratio}x");
        }
    }

    // Pipeline-schedule grids (the fig_pipeline_schedules hot loop): the
    // full (microbatch x schedule) plan grid at pp=8, evaluated through
    // the shared-table `Explorer::evaluate` fast path.
    for id in [ModelId::Llama, ModelId::Llama2, ModelId::Gpt3] {
        let model = id.build();
        let system = catalog::llama_llm_system();
        let plans: Vec<Plan> = [2usize, 4, 8, 16, 32]
            .iter()
            .flat_map(|&m| {
                [PipelineSchedule::GPipe, PipelineSchedule::OneFOneB].map(|schedule| {
                    let mut plan = Plan::fsdp_baseline(&model).with_pipeline(PipelineConfig {
                        stages: 8,
                        microbatches: m,
                        schedule,
                    });
                    plan.options.ignore_memory_limits = true;
                    plan
                })
            })
            .collect();
        let explorer = Explorer::new(&model, &system)
            .workload(Workload::pretrain())
            .threads(threads);
        let (_, telemetry) = explorer.evaluate_with_telemetry(&Workload::pretrain(), &plans);
        record(
            &mut records,
            &baseline,
            format!("fig_pipeline_schedules/{id}"),
            plans.len(),
            threads,
            reps,
            Some(&telemetry),
            || {
                for r in explorer.evaluate(&plans) {
                    r.expect("schedule grid is feasible");
                }
            },
        );
    }

    // Joint strategy x pipeline searches (fig10 with pipeline axes): the
    // transformer-class strategy sweep crossed with (depth, microbatch,
    // schedule) on the training workload.
    for id in [ModelId::Llama2, ModelId::Gpt3] {
        let model = id.build();
        let system = catalog::llama_llm_system();
        let space = SearchSpace::strategies()
            .with_classes(vec![LayerClass::Transformer])
            .with_pipeline(PipelineAxes {
                stages: vec![1, 2, 4, 8],
                microbatches: vec![8, 16, 32],
                schedules: vec![PipelineSchedule::GPipe, PipelineSchedule::OneFOneB],
            });
        let explorer = Explorer::new(&model, &system).space(space).threads(threads);
        let candidates = explorer.candidates().len();
        let outcome = explorer.explore().expect("joint baseline feasible");
        record(
            &mut records,
            &baseline,
            format!("fig10_pp/{id}/joint"),
            candidates,
            threads,
            reps,
            Some(&outcome.telemetry),
            || {
                let o = explorer.explore().expect("joint baseline feasible");
                assert_eq!(o.best_plan, outcome.best_plan, "non-deterministic search");
            },
        );
    }

    // Serve-mode searches (fig_serve): the joint (transformer strategy x
    // pipeline x decode batch) search on the bandwidth-constrained fabric,
    // and its flat (pp=1) half — swept across decode lengths so the
    // trajectory records how per-search cost scales with the token axis.
    // Decode 64 keeps the original bare names so `--baseline` joins
    // pre-grid reports; longer decodes get an `@dec<n>` suffix.
    {
        let model = ModelId::Llama2.build();
        let slow = catalog::llama_llm_system().scaled(&DeviceScaling::inter_bw_only(1.0 / 8.0));
        for decode in [64usize, 256, 1024] {
            let workload = Workload::serve(ServeConfig::new(1024, decode));
            let suffix = if decode == 64 {
                String::new()
            } else {
                format!("@dec{decode}")
            };
            let flat_space = SearchSpace::strategies()
                .with_classes(vec![LayerClass::Transformer])
                .with_serve(ServeAxes::batches([256, 512]));
            let joint_space = flat_space.clone().with_pipeline(PipelineAxes {
                stages: vec![1, 2, 4, 8],
                microbatches: vec![8, 16],
                schedules: vec![PipelineSchedule::GPipe, PipelineSchedule::OneFOneB],
            });
            for (label, space) in [("flat", flat_space), ("joint", joint_space)] {
                let explorer = Explorer::new(&model, &slow)
                    .workload(workload.clone())
                    .space(space)
                    .threads(threads);
                let outcome = explorer.explore().expect("serve baseline feasible");
                // (plan x decode-batch) combinations, as tallied by the
                // search itself.
                let candidates = outcome.evaluated;
                record(
                    &mut records,
                    &baseline,
                    format!("fig_serve/{}/{label}{suffix}", ModelId::Llama2),
                    candidates,
                    threads,
                    reps,
                    Some(&outcome.telemetry),
                    || {
                        let o = explorer.explore().expect("serve baseline feasible");
                        assert_eq!(o.best_plan, outcome.best_plan, "non-deterministic search");
                    },
                );
            }
        }
    }

    // Continuous-batching load simulator: event-driven vs the naive
    // per-token reference on long-decode streams. The event mode
    // collapses homogeneous decode runs with the closed-form series
    // re-entry, so its advantage grows with the decode length; both
    // modes must stay byte-identical on the request-visible report.
    {
        let model = ModelId::Llama2.build();
        let system = catalog::llama_llm_system();
        for decode in [256usize, 1024] {
            let workload = Workload::serve(ServeConfig::new(256, decode).with_decode_batch(8));
            let spec = LoadSpec::poisson(0.02, 32, 9).with_kv_blocks(16_384);
            let scenario = Scenario::new(&model, &system).workload_ref(&workload);
            let costs = scenario.price_load(&spec).expect("load prices");
            let event = scenario
                .serve_load_priced(&spec, &costs, SimMode::Event, None)
                .expect("event run");
            let naive = scenario
                .serve_load_priced(&spec, &costs, SimMode::PerToken, None)
                .expect("per-token run");
            assert_eq!(event.report, naive.report, "modes must agree byte-for-byte");
            let mut walls = [0.0f64; 2];
            for (i, (label, mode)) in [("event", SimMode::Event), ("pertoken", SimMode::PerToken)]
                .into_iter()
                .enumerate()
            {
                walls[i] = record(
                    &mut records,
                    &baseline,
                    format!("serve_load/{}/{label}@dec{decode}", ModelId::Llama2),
                    spec.arrivals.count(),
                    1,
                    reps,
                    None,
                    || {
                        scenario
                            .serve_load_priced(&spec, &costs, mode, None)
                            .expect("load run");
                    },
                );
            }
            println!(
                "serve_load event vs per-token @dec{decode}: {:.1}x faster",
                walls[1] / walls[0]
            );
        }

        // The SLO-constrained load search end-to-end on the worker pool:
        // each candidate priced once, every arrival rate simulated in
        // event mode.
        let axes = LoadAxes::new(
            LoadSpec::poisson(0.02, 16, 9).with_kv_blocks(8192),
            [0.02, 0.1, 0.5],
        )
        .with_slo_ttft_p99(Seconds::new(60.0));
        let explorer = Explorer::new(&model, &system)
            .workload(Workload::serve(
                ServeConfig::new(256, 64).with_decode_batch(8),
            ))
            .space(SearchSpace::default().with_pipeline(PipelineAxes {
                stages: vec![1, 2, 4, 8],
                microbatches: vec![8],
                schedules: vec![PipelineSchedule::GPipe],
            }))
            .threads(threads);
        let outcome = explorer.explore_load(&axes).expect("load search runs");
        record(
            &mut records,
            &baseline,
            format!("serve_load_search/{}", ModelId::Llama2),
            outcome.evaluated,
            threads,
            reps,
            None,
            || {
                let o = explorer.explore_load(&axes).expect("load search runs");
                assert_eq!(
                    o.best_candidate, outcome.best_candidate,
                    "non-deterministic load search"
                );
            },
        );
    }

    // Failure-aware paths: the goodput-ranked strategy search (one
    // simulation + closed-form interval sweep per candidate) and the
    // fault-injected continuous-batching simulator (fatal windows
    // dropping in-flight requests, retries, degraded capacity) against
    // its fault-free twin on the same stream.
    {
        let model = ModelId::Llama2.build();
        let system = catalog::llama_llm_system();
        let explorer = Explorer::new(&model, &system)
            .space(SearchSpace::strategies())
            .threads(threads);
        let axes =
            FaultAxes::new(FaultSpec::fatal(3600.0, 60.0, 7)).with_intervals([60.0, 300.0, 1800.0]);
        let outcome = explorer
            .explore_goodput(&axes)
            .expect("goodput search runs");
        record(
            &mut records,
            &baseline,
            format!("goodput_search/{}", ModelId::Llama2),
            outcome.evaluated,
            threads,
            reps,
            Some(&outcome.telemetry),
            || {
                let o = explorer
                    .explore_goodput(&axes)
                    .expect("goodput search runs");
                assert_eq!(
                    o.best_candidate, outcome.best_candidate,
                    "non-deterministic goodput search"
                );
            },
        );

        let workload = Workload::serve(ServeConfig::new(128, 24).with_decode_batch(4));
        let spec = LoadSpec::bursty(0.4, 20.0, 10.0, 32, 7);
        let scenario = Scenario::new(&model, &system).workload_ref(&workload);
        let costs = scenario.price_load(&spec).expect("load prices");
        let horizon =
            madmax_core::steady::grid_units_round(Seconds::new(400.0)).expect("horizon on grid");
        let events = materialize_faults(&FaultSpec::fatal(60.0, 5.0, 3), horizon).expect("faults");
        let retry = RetryPolicy::retries(3);
        for (label, faults) in [("faulty", events.as_slice()), ("clean", &[][..])] {
            record(
                &mut records,
                &baseline,
                format!("serve_load_fault/{}/{label}", ModelId::Llama2),
                spec.arrivals.count(),
                1,
                reps,
                None,
                || {
                    scenario
                        .serve_load_faulty(&spec, &costs, SimMode::Event, faults, &retry, None)
                        .expect("faulty load run");
                },
            );
        }
    }

    let lines: Vec<String> = records
        .iter()
        .map(|r| format!("  {}", serde_json::to_string(r).expect("record serializes")))
        .collect();
    let json = format!("[\n{}\n]\n", lines.join(",\n"));
    let root = std::path::PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("../..");
    std::fs::write(root.join(&out_path), &json).expect("write bench report");
    println!("wrote {out_path}");
}
