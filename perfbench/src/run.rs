//! One benchmark run: set-up, the timed closed loop, the output check,
//! and the metrics it prints.
//!
//! The loop is closed with one client: it issues one iteration (the
//! workload's fixed call list), waits for it, then issues the next, until
//! `--seconds` have passed. With `--trace 0` every iteration is a direct,
//! untraced one and the run reports the end-to-end metrics. With
//! `--trace 1` direct iterations alternate with traced replays of the
//! same calls and the run reports the per-layer metrics.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::path::PathBuf;
use std::time::{Duration, Instant};

use madmax_dse::SearchTelemetry;
use madmax_engine::EngineError;

use crate::check::{fingerprint, parse_committed, Checker, COMMITTED};
use crate::host::{peak_rss_mb, ProcStat};
use crate::trace::{iteration_times, IterationTimes, Tracer};
use crate::workloads::{
    CallKind, Inputs, Outcome, ReplayCounts, WorkloadId, DEFAULT_SEED, THREADS,
};

/// A run sets up at least this many times and for at least
/// [`SETUP_MIN_SECONDS`] (at most [`SETUP_MAX_REPS`] times); `setup_s` is
/// the median set-up.
const SETUP_MIN_REPS: usize = 3;
const SETUP_MIN_SECONDS: f64 = 2.0;
const SETUP_MAX_REPS: usize = 25;

/// Command-line arguments.
#[derive(Debug, Clone)]
pub struct Args {
    /// The workload to run.
    pub workload: WorkloadId,
    /// Seed of the arrival and fault streams.
    pub seed: u64,
    /// How long the timed loop runs.
    pub seconds: f64,
    /// Whether to run the traced replay (per-layer metrics).
    pub trace: bool,
    /// Fingerprints to check against instead of the committed ones.
    pub fingerprints: Option<PathBuf>,
    /// Write this run's fingerprints here, merged into those the file
    /// already holds.
    pub bless: Option<PathBuf>,
}

impl Args {
    /// Parses `--workload W --seed N --seconds S --trace 0|1`, plus the
    /// optional `--fingerprints PATH` and `--bless PATH`.
    ///
    /// # Errors
    ///
    /// A message naming the bad or missing argument.
    pub fn parse(args: impl IntoIterator<Item = String>) -> Result<Self, String> {
        let mut map = BTreeMap::new();
        let mut it = args.into_iter();
        while let Some(flag) = it.next() {
            let name = flag
                .strip_prefix("--")
                .ok_or_else(|| format!("unexpected argument `{flag}`"))?
                .to_owned();
            let value = it.next().ok_or_else(|| format!("--{name} needs a value"))?;
            map.insert(name, value);
        }
        let mut take = |name: &str| map.remove(name);
        let workload = take("workload").ok_or("--workload is required")?;
        let workload = WorkloadId::parse(&workload).ok_or_else(|| {
            let names: Vec<_> = WorkloadId::ALL.iter().map(|w| w.name()).collect();
            format!(
                "unknown workload `{workload}` (one of {})",
                names.join(", ")
            )
        })?;
        let seed = take("seed").map_or(Ok(DEFAULT_SEED), |s| {
            s.parse()
                .map_err(|_| format!("--seed expects an integer, got `{s}`"))
        })?;
        let seconds = take("seconds").map_or(Ok(10.0), |s| match s.parse::<f64>() {
            Ok(v) if v.is_finite() && v > 0.0 && v <= 3600.0 => Ok(v),
            _ => Err(format!(
                "--seconds expects a number in (0, 3600], got `{s}`"
            )),
        })?;
        let trace = match take("trace").as_deref() {
            None | Some("0") => false,
            Some("1") => true,
            Some(v) => return Err(format!("--trace expects 0 or 1, got `{v}`")),
        };
        let fingerprints = take("fingerprints").map(PathBuf::from);
        let bless = take("bless").map(PathBuf::from);
        if let Some(extra) = map.keys().next() {
            return Err(format!("unknown flag --{extra}"));
        }
        Ok(Self {
            workload,
            seed,
            seconds,
            trace,
            fingerprints,
            bless,
        })
    }
}

/// One reported metric.
#[derive(Debug, Clone)]
pub struct Metric {
    /// Metric name, as in `BENCHMARK.json`.
    pub name: &'static str,
    /// The measured value.
    pub value: f64,
    /// Its unit.
    pub unit: &'static str,
}

/// What a run reports.
#[derive(Debug)]
pub struct Report {
    /// Human-readable lines printed before the result.
    pub lines: Vec<String>,
    /// Calls issued (and checked).
    pub attempted: u64,
    /// Calls that returned an error or failed the output check.
    pub failed: u64,
    /// The metrics, in print order.
    pub metrics: Vec<Metric>,
}

impl Report {
    /// The result line: one JSON object.
    pub fn json(&self) -> String {
        let metrics: Vec<String> = self
            .metrics
            .iter()
            .map(|m| {
                let value = if m.value.is_finite() { m.value } else { 0.0 };
                format!(
                    "\"{}\": {{\"value\": {value}, \"unit\": \"{}\"}}",
                    m.name, m.unit
                )
            })
            .collect();
        format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.failed == 0,
            self.attempted,
            self.failed,
            metrics.join(", ")
        )
    }
}

/// Linear-interpolation quantile of `values` (`q` in [0, 1]).
fn quantile(values: &[f64], q: f64) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let pos = q * (v.len() - 1) as f64;
    let (lo, hi) = (pos.floor() as usize, pos.ceil() as usize);
    v[lo] + (v[hi] - v[lo]) * (pos - lo as f64)
}

fn median(values: &[f64]) -> f64 {
    quantile(values, 0.5)
}

/// Results of one direct iteration.
struct Direct {
    results: Vec<Result<Outcome, EngineError>>,
    call_ms: Vec<f64>,
    wall_ms: f64,
}

/// Issues every call once, directly, timing each.
fn direct_iteration(inputs: &Inputs) -> Direct {
    let started = Instant::now();
    let mut results = Vec::with_capacity(inputs.calls.len());
    let mut call_ms = Vec::with_capacity(inputs.calls.len());
    for call in &inputs.calls {
        let t0 = Instant::now();
        results.push(inputs.run_call(call));
        call_ms.push(t0.elapsed().as_secs_f64() * 1e3);
    }
    Direct {
        results,
        call_ms,
        wall_ms: started.elapsed().as_secs_f64() * 1e3,
    }
}

/// The checker key of a call.
fn key(workload: WorkloadId, label: &str) -> String {
    format!("{}/{label}", workload.name())
}

/// Records one iteration's results with the checker. Results of calls
/// the seed reaches are pinned to the committed fingerprints only at the
/// default seed.
pub fn record(
    checker: &mut Checker,
    inputs: &Inputs,
    results: &[Result<Outcome, EngineError>],
    default_seed: bool,
) {
    for (call, r) in inputs.calls.iter().zip(results) {
        checker.record(
            &key(inputs.workload, &call.label),
            fingerprint(r),
            r.is_ok(),
            default_seed || !call.seeded(),
        );
    }
}

/// One direct iteration's timings, kept for the per-layer metrics.
struct DirectSample {
    /// Sum of the calls' host times.
    calls_ms: f64,
    explore_load_ms: f64,
    explore_goodput_ms: f64,
    telemetry: SearchTelemetry,
}

/// Runs the benchmark.
///
/// # Errors
///
/// An unreadable `--fingerprints` file or an unwritable `--bless` path.
pub fn run(args: &Args, started: Instant) -> Result<Report, String> {
    let committed = match &args.fingerprints {
        Some(path) => {
            std::fs::read_to_string(path).map_err(|e| format!("read {}: {e}", path.display()))?
        }
        None => COMMITTED.to_owned(),
    };
    let committed = parse_committed(&committed);
    let mut checker = Checker::new(committed);
    let default_seed = args.seed == DEFAULT_SEED;
    let threads =
        THREADS.min(std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get));
    let mut lines = vec![format!(
        "perfbench workload={} seed={} threads={threads} seconds={} trace={}",
        args.workload.name(),
        args.seed,
        args.seconds,
        u8::from(args.trace)
    )];

    // Set-up: build the inputs, then one untimed warm-up iteration.
    let (mut inputs_ms, mut warmup_ms, mut setup_s) = (Vec::new(), Vec::new(), Vec::new());
    let mut first = None;
    let mut inputs = None;
    while setup_s.len() < SETUP_MIN_REPS
        || (setup_s.iter().sum::<f64>() < SETUP_MIN_SECONDS && setup_s.len() < SETUP_MAX_REPS)
    {
        // The first set-up counts from process start.
        let t0 = if setup_s.is_empty() {
            started
        } else {
            Instant::now()
        };
        let built = Inputs::build(args.workload, args.seed, threads);
        let t1 = Instant::now();
        let warm = direct_iteration(&built);
        let t2 = Instant::now();
        record(&mut checker, &built, &warm.results, default_seed);
        inputs_ms.push((t1 - t0).as_secs_f64() * 1e3);
        warmup_ms.push((t2 - t1).as_secs_f64() * 1e3);
        setup_s.push((t2 - t0).as_secs_f64());
        first.get_or_insert(warm.results);
        inputs = Some(built);
    }
    let inputs = inputs.expect("SETUP_MIN_REPS > 0");
    let first = first.expect("SETUP_MIN_REPS > 0");

    // The timed loop.
    let seconds = Duration::from_secs_f64(args.seconds);
    let mut tracer = Tracer::new();
    let mut iter_ms = Vec::new();
    let mut samples = Vec::new();
    let mut replay_ms = Vec::new();
    let mut replay_counts = Vec::new();
    let mut host = ProcStat::default();
    let loop_start = Instant::now();
    while iter_ms.is_empty() || loop_start.elapsed() < seconds {
        let s0 = ProcStat::now();
        let d = direct_iteration(&inputs);
        host.add(ProcStat::now().since(s0));
        iter_ms.push(d.wall_ms);
        record(&mut checker, &inputs, &d.results, default_seed);
        if !args.trace {
            continue;
        }
        let calls_of = |pick: fn(&CallKind) -> bool| -> f64 {
            inputs
                .calls
                .iter()
                .zip(&d.call_ms)
                .filter(|(c, _)| pick(&c.kind))
                .map(|(_, ms)| ms)
                .sum()
        };
        samples.push(DirectSample {
            calls_ms: d.call_ms.iter().sum(),
            explore_load_ms: calls_of(|k| matches!(k, CallKind::ExploreLoad(_))),
            explore_goodput_ms: calls_of(|k| matches!(k, CallKind::ExploreGoodput(_))),
            telemetry: telemetry_of(&d.results),
        });
        tracer.set_iteration(u32::try_from(replay_ms.len()).expect("under 2^32 iterations"));
        let mut counts = ReplayCounts::default();
        let t0 = Instant::now();
        let results: Vec<_> = inputs
            .calls
            .iter()
            .map(|c| inputs.replay_call(c, &mut tracer, &mut counts))
            .collect();
        replay_ms.push(t0.elapsed().as_secs_f64() * 1e3);
        replay_counts.push(counts);
        record(&mut checker, &inputs, &results, default_seed);
    }
    let peak_rss = peak_rss_mb();

    // Untimed checks: per-token references, Table I, the overflow probe.
    check_references(&inputs, &first, &mut checker);
    let min_accuracy = table_i(&mut checker, &mut lines);
    let load_aborts = match inputs.abort_probe() {
        Some(Err(e)) => {
            lines.push(format!("load-search overflow probe: aborted with `{e}`"));
            1.0
        }
        Some(Ok(())) => {
            lines.push("load-search overflow probe: completed".to_owned());
            0.0
        }
        None => 0.0,
    };

    if let Some(path) = &args.bless {
        bless(path, &checker)?;
        lines.push(format!("wrote fingerprints to {}", path.display()));
    }

    let cand = inputs.candidates_per_iteration() as f64;
    let metrics = if args.trace {
        let spans = tracer.spans();
        let mut m = per_layer(
            &first,
            &samples,
            &iteration_times(spans),
            &replay_ms,
            &replay_counts,
        );
        m.push(metric("dse.load_aborts", load_aborts, "count"));
        m.push(metric("core.table_i_min_accuracy_pct", min_accuracy, "%"));
        let n = iter_ms.len() as f64;
        let cpu = host.user_s + host.sys_s;
        m.push(metric(
            "host.minflt_per_iter",
            host.minflt as f64 / n,
            "count",
        ));
        m.push(metric("host.sys_share", ratio(host.sys_s, cpu), "ratio"));
        m.push(metric(
            "host.cpu_util",
            ratio(cpu, iter_ms.iter().sum::<f64>() / 1e3 * threads as f64),
            "ratio",
        ));
        m.push(metric("setup.inputs_ms", median(&inputs_ms), "ms"));
        m.push(metric("setup.warmup_ms", median(&warmup_ms), "ms"));
        m.push(metric("setup.cold_ms", setup_s[0] * 1e3, "ms"));
        lines.push(format!(
            "traced run: {} direct and {} replayed iterations, {} spans",
            iter_ms.len(),
            replay_ms.len(),
            spans.len()
        ));
        if let Some(path) = write_spans(args, &tracer) {
            lines.push(format!("spans written to {path}"));
        }
        m
    } else {
        let iter_s: Vec<f64> = iter_ms.iter().map(|ms| ms / 1e3).collect();
        let beyond_p90 = iter_s.len() - (iter_s.len() * 9).div_ceil(10);
        let (failed, attempted) = (checker.failed() as f64, checker.attempted() as f64);
        lines.push(format!(
            "{} timed iterations of {cand} candidates, {} set-ups; {beyond_p90} samples beyond p90{}",
            iter_s.len(),
            setup_s.len(),
            if beyond_p90 < 10 { " (fewer than 10: p90 is indicative only)" } else { "" }
        ));
        lines.push(format!(
            "iteration s: min {:.4} p10 {:.4} p50 {:.4} p90 {:.4} max {:.4}",
            quantile(&iter_s, 0.0),
            quantile(&iter_s, 0.1),
            quantile(&iter_s, 0.5),
            quantile(&iter_s, 0.9),
            quantile(&iter_s, 1.0)
        ));
        lines.push(format!(
            "failed_frac {} ({failed} of {attempted} calls)",
            failed / attempted
        ));
        vec![
            // A rate over the whole loop, not over the median iteration:
            // on a host whose speed drifts, it moves with the share of slow
            // iterations instead of jumping between modes.
            metric(
                "cand_per_s",
                cand * iter_s.len() as f64 / iter_s.iter().sum::<f64>(),
                "1/s",
            ),
            metric("iter_s_p50", median(&iter_s), "s"),
            metric("iter_s_p90", quantile(&iter_s, 0.9), "s"),
            metric("setup_s", median(&setup_s), "s"),
            metric("peak_rss_mb", peak_rss, "MB"),
            metric("ok_frac", 1.0 - failed / attempted, "ratio"),
        ]
    };
    for m in &metrics {
        lines.push(format!("  {:<34} {:>16.6} {}", m.name, m.value, m.unit));
    }
    lines.extend(
        checker
            .messages()
            .into_iter()
            .map(|m| format!("CHECK FAILED {m}")),
    );
    Ok(Report {
        lines,
        attempted: checker.attempted(),
        failed: checker.failed(),
        metrics,
    })
}

/// Holds every event-mode load run among `first` (the run's first
/// results) to a per-token reference run on the same stream; a mismatch
/// fails every call of that label.
pub fn check_references(
    inputs: &Inputs,
    first: &[Result<Outcome, EngineError>],
    checker: &mut Checker,
) {
    for (call, outcome) in inputs.calls.iter().zip(first) {
        let Ok(outcome) = outcome else { continue };
        let why = match inputs.per_token_mismatches(call, outcome) {
            Ok(m) if m.is_empty() => continue,
            Ok(m) => format!(
                "event mode differs from the per-token reference: {}",
                m.join(", ")
            ),
            Err(e) => format!("per-token reference failed: {e}"),
        };
        checker.fail_first(&key(inputs.workload, &call.label), why);
    }
}

fn metric(name: &'static str, value: f64, unit: &'static str) -> Metric {
    Metric { name, value, unit }
}

/// `num / den`, 0 when `den` is 0.
fn ratio(num: f64, den: f64) -> f64 {
    if den == 0.0 {
        0.0
    } else {
        num / den
    }
}

/// Search telemetry of an iteration's calls, absorbed into one.
fn telemetry_of(results: &[Result<Outcome, EngineError>]) -> SearchTelemetry {
    let mut t = SearchTelemetry::default();
    for r in results {
        match r {
            Ok(Outcome::Search(o)) => t.absorb(&o.telemetry),
            Ok(Outcome::Goodput(o)) => t.absorb(&o.telemetry),
            _ => {}
        }
    }
    t
}

/// Checks and prints Table I; returns the lowest accuracy, percent.
fn table_i(checker: &mut Checker, lines: &mut Vec<String>) -> f64 {
    lines.push("Table I model accuracy (held fixed by the check):".to_owned());
    match madmax_core::validation::table_i() {
        Ok(rows) => {
            let mut fp = String::new();
            for row in &rows {
                lines.push(format!(
                    "  {:<48} measured {:>10.2} predicted {:>10.2} {:<5} accuracy {:6.2}%",
                    row.metric,
                    row.measured,
                    row.predicted,
                    row.unit,
                    row.accuracy()
                ));
                write!(fp, "{:016x} ", row.accuracy().to_bits()).expect("String write");
            }
            checker.record("table_i", fp.trim_end().to_owned(), true, true);
            rows.iter()
                .map(|r| r.accuracy())
                .fold(f64::INFINITY, f64::min)
        }
        Err(e) => {
            checker.record("table_i", format!("error: {e}"), false, true);
            0.0
        }
    }
}

/// The per-layer metrics of a traced run.
fn per_layer(
    first: &[Result<Outcome, EngineError>],
    samples: &[DirectSample],
    replays: &BTreeMap<u32, IterationTimes>,
    replay_ms: &[f64],
    replay_counts: &[ReplayCounts],
) -> Vec<Metric> {
    let replays: Vec<&IterationTimes> = replays.values().collect();
    let span_ms = |name: &str| -> f64 {
        let v: Vec<f64> = replays
            .iter()
            .map(|t| t.by_name_ms.get(name).copied().unwrap_or(0.0))
            .collect();
        median(&v)
    };
    let self_ms = |layer: &str| -> f64 {
        let v: Vec<f64> = replays
            .iter()
            .map(|t| t.self_ms.get(layer).copied().unwrap_or(0.0))
            .collect();
        median(&v)
    };
    let over_samples = |f: &dyn Fn(&DirectSample) -> f64| -> f64 {
        median(&samples.iter().map(f).collect::<Vec<_>>())
    };

    // Exact counts, from the run's first results.
    let tel = telemetry_of(first);
    let (mut cands, mut ok, mut oom, mut unmappable, mut invalid) =
        (tel.candidates, tel.ok, tel.oom, tel.unmappable, tel.invalid);
    let (mut completed, mut failed, mut retries, mut fault_events) = (0u64, 0u64, 0u64, 0u64);
    let (mut verify_errors, mut verify_warnings) = (0u64, 0u64);
    for r in first.iter().flatten() {
        match r {
            Outcome::Search(o) => {
                if let Some(v) = &o.verify {
                    verify_errors += v.error_count() as u64;
                    verify_warnings += v.warning_count() as u64;
                }
            }
            Outcome::Load(o) => {
                for c in &o.candidates {
                    cands += 1;
                    match &c.error {
                        None => ok += 1,
                        Some(e) if e.is_oom() => oom += 1,
                        Some(e) if e.is_unmappable_pipeline() => unmappable += 1,
                        Some(_) => invalid += 1,
                    }
                    for p in &c.points {
                        completed += p.report.completed as u64;
                        failed += p.report.failed as u64;
                        retries += p.report.retries;
                    }
                }
            }
            Outcome::Goodput(_) => {}
            Outcome::Faulty { events, outcome } => {
                fault_events += events.len() as u64;
                completed += outcome.report.completed as u64;
                failed += outcome.report.failed as u64;
                retries += outcome.report.retries;
            }
        }
    }
    let replayed = replay_counts.first().copied().unwrap_or_default();
    let sim_req_per_s = median(
        &replays
            .iter()
            .zip(replay_counts)
            .map(|(t, c)| {
                let ms = t.by_name_ms.get("serve.sim").copied().unwrap_or(0.0);
                ratio(c.requests as f64, ms / 1e3)
            })
            .collect::<Vec<_>>(),
    );
    let hit_rate = |s: madmax_core::CacheStats| s.hit_rate().unwrap_or(0.0);
    let covered: Vec<f64> = replays.iter().map(|t| t.covered_ms).collect();
    let unprobed: Vec<f64> = replays
        .iter()
        .zip(replay_ms)
        .map(|(t, ms)| ms - t.probe_ms)
        .collect();
    let direct_calls_ms = over_samples(&|s| s.calls_ms);

    vec![
        metric("dse.candidates", cands as f64, "count"),
        metric("dse.ok", ok as f64, "count"),
        metric("dse.oom", oom as f64, "count"),
        metric("dse.unmappable", unmappable as f64, "count"),
        metric("dse.invalid", invalid as f64, "count"),
        metric("dse.useful_ratio", ratio(ok as f64, cands as f64), "ratio"),
        metric(
            "dse.eval_us_mean",
            over_samples(&|s| s.telemetry.eval_latency.mean_us().unwrap_or(0.0)),
            "us",
        ),
        metric(
            "dse.eval_us_max",
            over_samples(&|s| s.telemetry.eval_latency.max_us),
            "us",
        ),
        metric(
            "dse.worker_imbalance",
            over_samples(&|s| {
                let busy: Vec<f64> = s.telemetry.workers.iter().map(|w| w.busy_ms).collect();
                let mean = busy.iter().sum::<f64>() / busy.len().max(1) as f64;
                ratio(busy.iter().copied().fold(0.0, f64::max), mean)
            }),
            "ratio",
        ),
        metric(
            "dse.explore_load_ms",
            over_samples(&|s| s.explore_load_ms),
            "ms",
        ),
        metric(
            "dse.explore_goodput_ms",
            over_samples(&|s| s.explore_goodput_ms),
            "ms",
        ),
        metric(
            "dse.unattributed_ms",
            direct_calls_ms - median(&covered),
            "ms",
        ),
        metric("dse.self_ms", self_ms("dse"), "ms"),
        metric("core.price_ms", span_ms("core.price"), "ms"),
        metric(
            "core.flat_cache_hit_rate",
            hit_rate(tel.flat_cache),
            "ratio",
        ),
        metric("core.steady_hits", tel.steady_analytic.hits as f64, "count"),
        metric(
            "core.steady_fallbacks",
            tel.steady_analytic.misses as f64,
            "count",
        ),
        metric("core.self_ms", self_ms("core"), "ms"),
        metric("pipeline.price_ms", span_ms("pipeline.price"), "ms"),
        metric(
            "pipeline.cache_hit_rate",
            hit_rate(tel.pipeline_cache),
            "ratio",
        ),
        metric("pipeline.memo_hit_rate", hit_rate(tel.report_memo), "ratio"),
        metric("pipeline.self_ms", self_ms("pipeline"), "ms"),
        metric("engine.run_ms", span_ms("engine.run"), "ms"),
        metric(
            "engine.run_with_trace_ms",
            span_ms("engine.run_with_trace"),
            "ms",
        ),
        metric("engine.goodput_ms", span_ms("engine.goodput"), "ms"),
        metric("engine.self_ms", self_ms("engine"), "ms"),
        metric("serve.price_load_ms", span_ms("serve.price_load"), "ms"),
        metric("serve.sim_ms", span_ms("serve.sim"), "ms"),
        metric("serve.sim_req_per_s", sim_req_per_s, "1/s"),
        metric(
            "serve.decode_runs",
            replayed.sim.decode_runs as f64,
            "count",
        ),
        metric(
            "serve.decode_steps",
            replayed.sim.decode_steps as f64,
            "count",
        ),
        metric("serve.evictions", replayed.sim.evictions as f64, "count"),
        metric("serve.completed", completed as f64, "count"),
        metric("serve.failed", failed as f64, "count"),
        metric("serve.retries", retries as f64, "count"),
        metric("serve.self_ms", self_ms("serve"), "ms"),
        metric("fault.materialize_ms", span_ms("fault.materialize"), "ms"),
        metric("fault.events", fault_events as f64, "count"),
        metric("fault.goodput_evals", tel.goodput_evals as f64, "count"),
        metric("fault.self_ms", self_ms("fault"), "ms"),
        metric("verify.ms", span_ms("verify.verify"), "ms"),
        metric("verify.errors", verify_errors as f64, "count"),
        metric("verify.warnings", verify_warnings as f64, "count"),
        metric("verify.self_ms", self_ms("verify"), "ms"),
        metric(
            "host.trace_overhead_ms",
            median(&unprobed) - direct_calls_ms,
            "ms",
        ),
    ]
}

/// Writes the run's first fingerprints, merged into those already at
/// `path`, to `path`.
fn bless(path: &PathBuf, checker: &Checker) -> Result<(), String> {
    let mut committed = parse_committed(&std::fs::read_to_string(path).unwrap_or_default());
    for (k, fp) in checker.firsts() {
        committed.insert(k.to_owned(), fp.to_owned());
    }
    let mut text = String::from(
        "# Output fingerprints at the default seed, one `key<TAB>fingerprint` per call.\n\
         # Regenerate with `--bless perfbench/fingerprints.txt` only when a change is\n\
         # meant to alter simulated results.\n",
    );
    for (k, fp) in &committed {
        writeln!(text, "{k}\t{fp}").expect("String write");
    }
    std::fs::write(path, text).map_err(|e| format!("write {}: {e}", path.display()))
}

/// Writes the spans as JSON lines under the build directory (the
/// default one when run from the repository root); returns the path, or
/// `None` when it cannot be written.
fn write_spans(args: &Args, tracer: &Tracer) -> Option<String> {
    let target =
        std::env::var("CARGO_TARGET_DIR").unwrap_or_else(|_| "perfbench/target".to_owned());
    let dir = PathBuf::from(target).join("perfbench");
    std::fs::create_dir_all(&dir).ok()?;
    let path = dir.join(format!(
        "spans-{}-seed{}.jsonl",
        args.workload.name(),
        args.seed
    ));
    std::fs::write(&path, tracer.to_jsonl()).ok()?;
    Some(path.display().to_string())
}
