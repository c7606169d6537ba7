//! SLO-constrained load search: rank deployment candidates by the
//! throughput they sustain under a continuous-batching request stream
//! without violating a tail-latency SLO.
//!
//! [`Explorer::explore_load`] sweeps the space's (plan, workload)
//! candidates against a ladder of arrival rates, on the explorer's
//! worker pool. Each candidate prices its per-step cost model once (a
//! handful of engine probes), then simulates every rate through
//! `madmax_serve`'s event-driven simulator.
//! A rate point is *feasible* when its p99 TTFT meets the SLO; a
//! candidate's score is the best feasible throughput, and the winner's
//! rate sweep is the latency-vs-throughput frontier (the serving
//! counterpart of the paper's iteration-time sweeps).

use std::sync::atomic::{AtomicUsize, Ordering};

use madmax_engine::{EngineError, SimMode};
use madmax_hw::units::Seconds;
use madmax_parallel::{ArrivalSpec, LoadSpec, Plan, Workload};
use madmax_serve::LoadReport;

use crate::explore::{Explorer, IterationTime};

/// The load dimensions of a search: a base [`LoadSpec`] (queue, paging,
/// horizon knobs), the arrival rates to sweep, and the TTFT SLO.
#[derive(Debug, Clone)]
pub struct LoadAxes {
    /// The base load spec. A [`ArrivalSpec::Poisson`] or
    /// [`ArrivalSpec::Bursty`] arrival process is re-rated per sweep
    /// point; a trace is simulated as-is (one point).
    pub spec: LoadSpec,
    /// Arrival rates (requests/second) to sweep for Poisson or bursty
    /// arrivals. Ignored for trace arrivals.
    pub rates: Vec<f64>,
    /// p99 time-to-first-token SLO; `None` ranks by unconstrained
    /// throughput.
    pub slo_ttft_p99: Option<Seconds>,
}

impl LoadAxes {
    /// Axes sweeping `rates` over `spec` under `slo`.
    pub fn new(spec: LoadSpec, rates: impl IntoIterator<Item = f64>) -> Self {
        Self {
            spec,
            rates: rates.into_iter().collect(),
            slo_ttft_p99: None,
        }
    }

    /// Sets the p99 TTFT SLO.
    #[must_use]
    pub fn with_slo_ttft_p99(mut self, slo: Seconds) -> Self {
        self.slo_ttft_p99 = Some(slo);
        self
    }

    /// The spec at one sweep rate (Poisson/bursty re-rated; traces
    /// unchanged).
    fn spec_at(&self, rate: f64) -> LoadSpec {
        let mut spec = self.spec.clone();
        match &mut spec.arrivals {
            ArrivalSpec::Poisson { rate: r, .. } | ArrivalSpec::Bursty { rate: r, .. } => {
                *r = rate;
            }
            ArrivalSpec::Trace { .. } => {}
        }
        spec
    }

    /// The sweep points: every rate for Poisson/bursty arrivals, the
    /// trace itself (rate reported as 0) otherwise.
    fn sweep(&self) -> Vec<(f64, LoadSpec)> {
        match &self.spec.arrivals {
            ArrivalSpec::Poisson { .. } | ArrivalSpec::Bursty { .. } if !self.rates.is_empty() => {
                self.rates.iter().map(|&r| (r, self.spec_at(r))).collect()
            }
            _ => vec![(0.0, self.spec.clone())],
        }
    }
}

/// One (candidate, rate) simulation of a load search.
#[derive(Debug, Clone)]
pub struct LoadPoint {
    /// Arrival rate of this point, requests/second (0 for trace-driven
    /// arrivals).
    pub rate: f64,
    /// The simulated load report.
    pub report: LoadReport,
    /// Whether the report meets the search's TTFT SLO.
    pub feasible: bool,
}

/// One candidate's full rate sweep.
#[derive(Debug, Clone)]
pub struct LoadCandidate {
    /// The candidate plan.
    pub plan: Plan,
    /// The workload variant it served.
    pub workload: Workload,
    /// One point per swept rate, in rate order. Empty when the candidate
    /// failed to price or a rate failed to simulate.
    pub points: Vec<LoadPoint>,
    /// Index into [`LoadCandidate::points`] of the best feasible point
    /// (highest throughput meeting the SLO), if any.
    pub best_point: Option<usize>,
    /// Why the candidate failed to price or simulate, when it did.
    pub error: Option<EngineError>,
}

impl LoadCandidate {
    /// The candidate's score: completed tokens/second at its best
    /// feasible point (0 when nothing met the SLO).
    pub fn score(&self) -> f64 {
        self.best_point
            .map_or(0.0, |i| self.points[i].report.tokens_per_sec)
    }
}

/// Result of one [`Explorer::explore_load`] run.
#[derive(Debug, Clone)]
pub struct LoadSearchOutcome {
    /// Every candidate's sweep, in enumeration order.
    pub candidates: Vec<LoadCandidate>,
    /// Index into [`LoadSearchOutcome::candidates`] of the winner.
    pub best_candidate: usize,
    /// The SLO the search ranked under.
    pub slo_ttft_p99: Option<Seconds>,
    /// Load simulations executed (points across all candidates).
    pub evaluated: usize,
}

impl LoadSearchOutcome {
    /// The winning candidate.
    pub fn best(&self) -> &LoadCandidate {
        &self.candidates[self.best_candidate]
    }

    /// The winner's best feasible throughput, completed tokens/second.
    pub fn best_tokens_per_sec(&self) -> f64 {
        self.best().score()
    }

    /// The winner's latency-vs-throughput frontier: one
    /// `(rate, tokens_per_sec, ttft_p99_seconds)` row per swept rate
    /// that produced a first token.
    pub fn frontier(&self) -> Vec<(f64, f64, f64)> {
        self.best()
            .points
            .iter()
            .filter_map(|p| {
                let ttft = p.report.ttft?;
                Some((p.rate, p.report.tokens_per_sec, ttft.p99.as_secs()))
            })
            .collect()
    }
}

impl IterationTime for Vec<LoadPoint> {
    fn iteration_ms(&self) -> Option<f64> {
        None
    }
}

impl Explorer<'_> {
    /// Searches the space for the deployment sustaining the highest
    /// continuous-batching throughput under `axes`' TTFT SLO.
    ///
    /// Candidates are the same (plan, workload-variant) combinations
    /// [`Explorer::explore`] evaluates, on the same worker pool; each
    /// prices one per-step cost model and simulates every arrival rate in
    /// event mode. Candidates whose pricing fails (OOM at the worst-case
    /// context, unmappable pipeline, ...) or whose load run at some rate
    /// fails (its clock leaving the exact grid) stay in the outcome with
    /// their error. The search's telemetry reaches the attached
    /// [`madmax_obs::ProgressSink`] (`search_finished`).
    ///
    /// Ranking: highest [`LoadCandidate::score`] — throughput at the
    /// best SLO-feasible rate. When *no* candidate meets the SLO at any
    /// rate, the search falls back to the lowest achieved p99 TTFT so a
    /// winner (and its frontier) still comes back.
    ///
    /// # Errors
    ///
    /// [`EngineError::InvalidLoad`] when the workload is not serve or
    /// the spec is invalid; the first candidate's error when every
    /// candidate failed.
    ///
    /// # Panics
    ///
    /// Panics when the space carries serve axes but the workload is not
    /// serve (matching [`Explorer::explore`]).
    pub fn explore_load(&self, axes: &LoadAxes) -> Result<LoadSearchOutcome, EngineError> {
        let variants = self.workload_variants();
        if variants[0].serve_config().is_none() {
            return Err(EngineError::InvalidLoad {
                reason: "load search needs a serve workload".to_owned(),
            });
        }
        self.base_spec_check(axes)?;
        let sweep = axes.sweep();
        let plans = self.candidates();
        let batches: Vec<_> = variants.iter().map(|w| (w, plans.as_slice())).collect();
        let simulations = AtomicUsize::new(0);
        let (evaluated, _) = self.run_pipeline(&batches, false, |s, _| {
            // Request shapes are rate-independent, so one cost model
            // serves the whole sweep. A run leaving the exact grid fails
            // this candidate only, like a pricing error.
            let costs = s.price_load(&sweep[0].1)?;
            sweep
                .iter()
                .map(|(rate, spec)| {
                    let report = s
                        .serve_load_priced(spec, &costs, SimMode::Event, None)?
                        .report;
                    simulations.fetch_add(1, Ordering::Relaxed);
                    Ok(LoadPoint {
                        rate: *rate,
                        feasible: axes
                            .slo_ttft_p99
                            .is_none_or(|slo| report.meets_ttft_slo(slo)),
                        report,
                    })
                })
                .collect()
        });
        let candidates: Vec<LoadCandidate> = evaluated
            .into_iter()
            .map(|(workload, plan, result)| {
                let (points, error) = match result {
                    Ok(points) => (points, None),
                    Err(e) => (Vec::new(), Some(e)),
                };
                let best_point = points
                    .iter()
                    .enumerate()
                    .filter(|(_, p)| p.feasible)
                    .max_by(|(_, a), (_, b)| {
                        a.report.tokens_per_sec.total_cmp(&b.report.tokens_per_sec)
                    })
                    .map(|(i, _)| i);
                LoadCandidate {
                    plan: plan.clone(),
                    workload: workload.clone(),
                    points,
                    best_point,
                    error,
                }
            })
            .collect();

        let scored = candidates
            .iter()
            .enumerate()
            .filter(|(_, c)| c.best_point.is_some())
            .max_by(|(_, a), (_, b)| a.score().total_cmp(&b.score()))
            .map(|(i, _)| i);
        let best_candidate = match scored {
            Some(i) => i,
            None => {
                // Nothing met the SLO: fall back to the lowest achieved
                // p99 TTFT among candidates that simulated at all.
                let fallback = candidates
                    .iter()
                    .enumerate()
                    .filter(|(_, c)| !c.points.is_empty())
                    .min_by(|(_, a), (_, b)| min_ttft(a).total_cmp(&min_ttft(b)))
                    .map(|(i, _)| i);
                match fallback {
                    Some(i) => i,
                    None => {
                        // Every candidate failed.
                        return Err(candidates
                            .into_iter()
                            .next()
                            .and_then(|c| c.error)
                            .unwrap_or(EngineError::InvalidLoad {
                                reason: "the search space is empty".to_owned(),
                            }));
                    }
                }
            }
        };
        Ok(LoadSearchOutcome {
            candidates,
            best_candidate,
            slo_ttft_p99: axes.slo_ttft_p99,
            evaluated: simulations.into_inner(),
        })
    }

    /// Validates the axes' base spec up front so an invalid spec fails
    /// once with a clear error instead of once per candidate.
    fn base_spec_check(&self, axes: &LoadAxes) -> Result<(), EngineError> {
        axes.spec
            .validate()
            .map_err(|reason| EngineError::InvalidLoad { reason })?;
        if let ArrivalSpec::Poisson { .. } | ArrivalSpec::Bursty { .. } = &axes.spec.arrivals {
            if axes.rates.is_empty() {
                return Err(EngineError::InvalidLoad {
                    reason: "Poisson/bursty load axes need at least one arrival rate".to_owned(),
                });
            }
            for &r in &axes.rates {
                if !(r.is_finite() && r > 0.0) {
                    return Err(EngineError::InvalidLoad {
                        reason: format!("arrival rate {r} must be finite and positive"),
                    });
                }
            }
        }
        Ok(())
    }
}

/// A candidate's lowest achieved p99 TTFT across its sweep (infinite
/// when nothing produced a first token).
fn min_ttft(c: &LoadCandidate) -> f64 {
    c.points
        .iter()
        .filter_map(|p| p.report.ttft.map(|t| t.p99.as_secs()))
        .fold(f64::INFINITY, f64::min)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::explore::{PipelineAxes, SearchSpace};
    use madmax_hw::catalog;
    use madmax_model::ModelId;
    use madmax_parallel::{PipelineSchedule, RequestSpec, ServeConfig};

    /// A Llama2 prefill at 256 tokens costs ~10 s on this system, so the
    /// interesting rate regime is fractional requests/second and SLOs are
    /// tens of seconds.
    fn axes(rates: &[f64], slo: f64) -> LoadAxes {
        LoadAxes::new(LoadSpec::poisson(rates[0], 16, 11), rates.iter().copied())
            .with_slo_ttft_p99(Seconds::new(slo))
    }

    #[test]
    fn load_search_ranks_by_slo_constrained_throughput() {
        let model = ModelId::Llama2.build();
        let sys = catalog::llama_llm_system();
        let explorer = Explorer::new(&model, &sys)
            .workload(Workload::serve(
                ServeConfig::new(256, 32).with_decode_batch(8),
            ))
            .space(SearchSpace::default());
        // Idle at 0.02 req/s (p99 TTFT ~ one prefill), saturated at
        // 50 req/s (p99 TTFT ~ 65 s): the 30 s SLO admits only the idle
        // point even though the saturated one moves more tokens/second.
        let r = explorer.explore_load(&axes(&[0.02, 50.0], 30.0)).unwrap();
        assert_eq!(r.candidates.len(), 1, "default space = baseline plan only");
        assert_eq!(r.evaluated, 2);
        let best = r.best();
        assert!(best.error.is_none());
        assert_eq!(best.points.len(), 2);
        assert!(best.points[0].feasible && !best.points[1].feasible);
        assert_eq!(best.best_point, Some(0), "SLO overrides raw throughput");
        assert!(r.best_tokens_per_sec() > 0.0);
        let frontier = r.frontier();
        assert_eq!(frontier.len(), 2);
        assert!(
            frontier[1].2 > frontier[0].2,
            "saturation raises tail latency: {frontier:?}"
        );
        // Reports carry the conservation invariant through the search.
        for p in &best.points {
            assert_eq!(
                p.report.completed + p.report.rejected,
                p.report.arrivals,
                "no horizon: every request resolves"
            );
        }
    }

    #[test]
    fn infeasible_slo_falls_back_to_lowest_tail_latency() {
        let model = ModelId::Llama2.build();
        let sys = catalog::llama_llm_system();
        let explorer = Explorer::new(&model, &sys).workload(Workload::serve(
            ServeConfig::new(256, 16).with_decode_batch(4),
        ));
        let a = axes(&[100.0, 400.0], 1e-12); // nothing can meet this
        let r = explorer.explore_load(&a).unwrap();
        assert!(r.best().best_point.is_none());
        assert!(r.best_tokens_per_sec() == 0.0);
        assert!(!r.frontier().is_empty(), "frontier still reported");
    }

    #[test]
    fn pipeline_axes_widen_the_load_space() {
        let model = ModelId::Llama2.build();
        let sys = catalog::llama_llm_system();
        let explorer = Explorer::new(&model, &sys)
            .workload(Workload::serve(
                ServeConfig::new(256, 16).with_decode_batch(8),
            ))
            .space(SearchSpace::default().with_pipeline(PipelineAxes {
                stages: vec![1, 8],
                microbatches: vec![8],
                schedules: vec![PipelineSchedule::GPipe],
            }));
        let r = explorer.explore_load(&axes(&[0.02, 0.2], 500.0)).unwrap();
        assert_eq!(r.candidates.len(), 2);
        // Both candidates priced and swept (or recorded their error).
        for c in &r.candidates {
            assert!(c.error.is_some() || c.points.len() == 2);
        }
        assert!(r.best().best_point.is_some());
    }

    #[test]
    fn a_candidate_leaving_the_grid_fails_alone() {
        // Eight requests arriving 14 s before the 2^52-unit clock limit
        // (2^14 s): the flat plan needs ~33 s to serve them and overflows,
        // the 8-stage pipeline needs ~1.4 s and completes.
        let model = ModelId::Llama2.build();
        let sys = catalog::llama_llm_system();
        let explorer = Explorer::new(&model, &sys)
            .workload(Workload::serve(
                ServeConfig::new(256, 16).with_decode_batch(8),
            ))
            .space(SearchSpace::default().with_pipeline(PipelineAxes {
                stages: vec![1, 8],
                microbatches: vec![8],
                schedules: vec![PipelineSchedule::GPipe],
            }));
        let request = RequestSpec {
            arrival: 16370.0,
            prompt_len: 256,
            decode_len: 16,
        };
        let spec = LoadSpec::trace(vec![request; 8]);
        let r = explorer.explore_load(&LoadAxes::new(spec, [])).unwrap();
        assert_eq!(r.candidates.len(), 2);
        let flat = &r.candidates[0];
        assert!(flat.plan.pipeline.is_none());
        assert!(
            matches!(&flat.error, Some(EngineError::InvalidLoad { reason }) if reason.contains("2^52")),
            "{:?}",
            flat.error
        );
        assert!(flat.points.is_empty() && flat.best_point.is_none());
        assert_eq!(r.best_candidate, 1);
        assert!(r.best().error.is_none());
        assert_eq!(r.evaluated, 1);
    }

    #[test]
    fn non_serve_workloads_are_rejected() {
        let model = ModelId::Llama2.build();
        let sys = catalog::llama_llm_system();
        let err = Explorer::new(&model, &sys)
            .explore_load(&axes(&[100.0], 30.0))
            .unwrap_err();
        assert!(matches!(err, EngineError::InvalidLoad { .. }), "{err}");
    }
}
