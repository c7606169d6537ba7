//! Property-based invariants of the continuous-batching load simulator
//! (`madmax-serve`), over randomized Poisson request streams:
//!
//! - **Request conservation**: at the horizon every arrival is in
//!   exactly one terminal bucket — completed, rejected, still queued, or
//!   still in flight — and the output-token ledger matches the
//!   per-request records;
//! - **TTFT lower bound**: no request sees its first token earlier than
//!   its own prefill latency as priced by the [`StepCostModel`]
//!   (queueing and batching can only add to it);
//! - **Rate monotonicity** (single decode slot): with one in-flight
//!   slot the simulator is a FIFO single server, so compressing the
//!   same seeded arrival sequence to a higher rate can only push TTFT
//!   percentiles up;
//! - **Mode equivalence**: the event-driven series-jump mode produces a
//!   [`LoadReport`] and per-request records byte-identical to the naive
//!   per-token reference — the speedup is purely wall-clock;
//! - **Search determinism**: the SLO-constrained load search returns the
//!   same outcome on one worker thread as on four.
//!
//! [`StepCostModel`]: madmax_serve::StepCostModel
//! [`LoadReport`]: madmax_serve::LoadReport

use proptest::prelude::*;

use madmax_dse::{Explorer, LoadAxes, PipelineAxes, SearchSpace};
use madmax_engine::{Scenario, SimMode};
use madmax_hw::catalog;
use madmax_hw::units::Seconds;
use madmax_model::{LayerClass, ModelId};
use madmax_parallel::{LoadSpec, PipelineSchedule, ServeConfig, Workload};
use madmax_serve::{LoadOutcome, StepCostModel};

/// A randomized but always-valid Poisson load spec: `paged = 0` leaves
/// the KV budget unbounded, anything else pages it down to a tight
/// evictable budget.
fn spec_of(rate: f64, count: usize, seed: u64, paged: usize) -> LoadSpec {
    let spec = LoadSpec::poisson(rate, count, seed);
    if paged > 0 {
        spec.with_kv_blocks(96 * paged as u64).with_eviction(true)
    } else {
        spec
    }
}

/// Prices `spec` once and simulates it in `mode`; pricing is the
/// expensive part, so callers reuse the returned model across modes.
fn run(spec: &LoadSpec, serve: ServeConfig, mode: SimMode) -> (LoadOutcome, StepCostModel) {
    let model = ModelId::Llama2.build();
    let sys = catalog::llama_llm_system();
    let scenario = Scenario::new(&model, &sys).workload(Workload::serve(serve));
    let costs = scenario.price_load(spec).unwrap();
    let outcome = scenario
        .serve_load_priced(spec, &costs, mode, None)
        .unwrap();
    (outcome, costs)
}

proptest! {
    /// Every arrival lands in exactly one terminal bucket, and the
    /// aggregate token/eviction ledgers match the per-request records.
    #[test]
    fn requests_are_conserved(
        rate in 0.01f64..0.5,
        count in 3usize..14,
        seed in 0u64..u64::MAX,
        prompt in 32usize..384,
        decode in 4usize..32,
        batch in 1usize..6,
        paged in 0usize..3,
    ) {
        let spec = spec_of(rate, count, seed, paged);
        let serve = ServeConfig::new(prompt, decode).with_decode_batch(batch);
        let (outcome, _) = run(&spec, serve, SimMode::Event);
        let r = &outcome.report;
        prop_assert_eq!(r.arrivals, spec.arrivals.count());
        prop_assert_eq!(
            r.completed + r.rejected + r.queued_at_end + r.in_flight_at_end,
            r.arrivals,
            "terminal buckets must partition the {} arrivals",
            r.arrivals
        );
        prop_assert_eq!(r.requests.len(), r.arrivals);
        let completed = r.requests.iter().filter(|q| q.completed).count();
        let rejected = r.requests.iter().filter(|q| q.rejected).count();
        prop_assert_eq!(completed, r.completed);
        prop_assert_eq!(rejected, r.rejected);
        let tokens: u64 = r.requests.iter().map(|q| q.output_tokens).sum();
        prop_assert_eq!(tokens, r.output_tokens);
        let evictions: u64 = r.requests.iter().map(|q| u64::from(q.evictions)).sum();
        prop_assert_eq!(evictions, r.evictions);
    }

    /// TTFT is bounded below by the request's own priced prefill
    /// latency: admission queueing and in-flight batching only delay
    /// the first token, never accelerate it.
    #[test]
    fn ttft_never_beats_the_prefill(
        rate in 0.01f64..0.5,
        count in 3usize..14,
        seed in 0u64..u64::MAX,
        prompt in 32usize..384,
        decode in 4usize..32,
        batch in 1usize..6,
        paged in 0usize..3,
    ) {
        let spec = spec_of(rate, count, seed, paged);
        let serve = ServeConfig::new(prompt, decode).with_decode_batch(batch);
        let (outcome, costs) = run(&spec, serve, SimMode::Event);
        for rec in &outcome.trace.records {
            let Some(first_token) = rec.first_token else { continue };
            let prefill = costs.prefill_units(rec.prompt_len as u64).unwrap();
            prop_assert!(
                first_token - rec.arrival >= prefill,
                "request {}: TTFT {} < prefill {} grid units",
                rec.id,
                first_token - rec.arrival,
                prefill
            );
        }
    }

    /// With a single decode slot the simulator degenerates to a FIFO
    /// single server over fixed service demands, so re-running the same
    /// seeded arrival sequence compressed to a strictly higher rate can
    /// only raise the TTFT percentiles. (Wider decode batches reorder
    /// work across slots, where this pointwise argument no longer
    /// holds — the bound is decode_batch = 1 by design.)
    #[test]
    fn ttft_percentiles_are_monotone_in_rate(
        rate_lo in 0.005f64..0.05,
        factor in 4.0f64..64.0,
        count in 4usize..12,
        seed in 0u64..u64::MAX,
        prompt in 32usize..256,
        decode in 4usize..24,
    ) {
        let serve = ServeConfig::new(prompt, decode).with_decode_batch(1);
        let lo_spec = LoadSpec::poisson(rate_lo, count, seed);
        let hi_spec = LoadSpec::poisson(rate_lo * factor, count, seed);
        let (lo, _) = run(&lo_spec, serve, SimMode::Event);
        let (hi, _) = run(&hi_spec, serve, SimMode::Event);
        // A horizonless Poisson run admits every request, so both sides
        // must have produced first tokens.
        prop_assert!(lo.report.ttft.is_some() && hi.report.ttft.is_some());
        let (lo, hi) = (lo.report.ttft.unwrap(), hi.report.ttft.unwrap());
        prop_assert_eq!(lo.count, hi.count);
        // Grid rounding of the scaled arrival times can move a sample
        // by a unit (~4 ps); queueing deltas dominate by orders of
        // magnitude, so compare with a hair of slack.
        const SLACK: f64 = 1e-9;
        for (name, l, h) in [
            ("p50", lo.p50, hi.p50),
            ("p95", lo.p95, hi.p95),
            ("p99", lo.p99, hi.p99),
            ("mean", lo.mean, hi.mean),
            ("max", lo.max, hi.max),
        ] {
            prop_assert!(
                h.as_secs() + SLACK >= l.as_secs(),
                "TTFT {} fell from {:.6}s to {:.6}s as the rate rose",
                name,
                l.as_secs(),
                h.as_secs()
            );
        }
    }

    /// The event-driven mode (closed-form series jumps between events)
    /// is a pure wall-clock optimization: its report and per-request
    /// records are byte-identical to the naive per-token reference.
    #[test]
    fn event_mode_matches_per_token_reference(
        rate in 0.01f64..0.5,
        count in 3usize..14,
        seed in 0u64..u64::MAX,
        prompt in 32usize..384,
        decode in 4usize..32,
        batch in 1usize..6,
        paged in 0usize..3,
    ) {
        let spec = spec_of(rate, count, seed, paged);
        let serve = ServeConfig::new(prompt, decode).with_decode_batch(batch);
        let model = ModelId::Llama2.build();
        let sys = catalog::llama_llm_system();
        let scenario = Scenario::new(&model, &sys).workload(Workload::serve(serve));
        let costs = scenario.price_load(&spec).unwrap();
        let event = scenario
            .serve_load_priced(&spec, &costs, SimMode::Event, None)
            .unwrap();
        let naive = scenario
            .serve_load_priced(&spec, &costs, SimMode::PerToken, None)
            .unwrap();
        prop_assert_eq!(&event.report, &naive.report);
        prop_assert_eq!(&event.trace.records, &naive.trace.records);
    }
}

#[test]
fn load_search_is_deterministic_across_thread_counts() {
    // Transformer strategies x pp 1/8: some candidates OOM, so errors
    // are compared too.
    let model = ModelId::Llama2.build();
    let sys = catalog::llama_llm_system();
    let space = SearchSpace::strategies()
        .with_classes(vec![LayerClass::Transformer])
        .with_pipeline(PipelineAxes {
            stages: vec![1, 8],
            microbatches: vec![8],
            schedules: vec![PipelineSchedule::GPipe],
        });
    let axes = LoadAxes::new(LoadSpec::poisson(0.05, 12, 5), [0.05, 0.5])
        .with_slo_ttft_p99(Seconds::new(30.0));
    let run = |threads: usize| {
        Explorer::new(&model, &sys)
            .workload(Workload::serve(
                ServeConfig::new(256, 16).with_decode_batch(4),
            ))
            .space(space.clone())
            .threads(threads)
            .explore_load(&axes)
            .unwrap()
    };
    let one = run(1);
    let four = run(4);
    assert_eq!(one.best_candidate, four.best_candidate);
    assert_eq!(one.evaluated, four.evaluated);
    assert_eq!(one.candidates.len(), four.candidates.len());
    assert!(one.candidates.iter().any(|c| c.error.is_some()));
    assert!(one.candidates.iter().any(|c| c.points.len() == 2));
    for (a, b) in one.candidates.iter().zip(&four.candidates) {
        assert_eq!(a.plan, b.plan);
        assert_eq!(format!("{:?}", a.points), format!("{:?}", b.points));
        assert_eq!(a.best_point, b.best_point);
        assert_eq!(format!("{:?}", a.error), format!("{:?}", b.error));
    }
}
