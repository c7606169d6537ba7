//! Failure-aware goodput search: rank deployment candidates by the
//! *effective* training throughput they sustain under a fault process,
//! not their fault-free iteration time.
//!
//! [`Explorer::explore_goodput`] sweeps the space's (plan, workload)
//! candidates against a [`FaultAxes`], on the explorer's worker pool and
//! shared cost tables: each candidate runs its fault-free simulation
//! once, prices a checkpoint write/restart from its per-device memory
//! breakdown (replicated plans carry fat checkpoints, sharded plans thin
//! ones), then evaluates the closed-form Young/Daly expected goodput at
//! every checkpoint interval on the axes. The headline result is
//! [`GoodputSearchOutcome::plan_flip`]: as the fleet MTBF shrinks, the
//! goodput-optimal plan diverges from the latency-optimal one — exactly
//! the failure-awareness the fault-free explorer cannot see.

use std::time::Instant;

use madmax_core::prof::Phase;
use madmax_engine::{EngineError, FaultSpec, GoodputOutcome, GoodputReport};
use madmax_fault::expected_goodput;
use madmax_hw::units::Seconds;
use madmax_obs::SearchTelemetry;
use madmax_parallel::{Plan, Workload};

use crate::explore::{Explorer, IterationTime};

/// The fault dimensions of a goodput search: one fault process (the
/// fleet MTBF must be set) and the checkpoint intervals to sweep.
#[derive(Debug, Clone)]
pub struct FaultAxes {
    /// The fault process. `fault.mtbf` is required;
    /// `fault.checkpoint_interval` is ignored when `intervals` is
    /// non-empty.
    pub fault: FaultSpec,
    /// Checkpoint intervals (seconds of useful work) to sweep per
    /// candidate. Empty sweeps a single point at the spec's interval
    /// (the Young/Daly optimum when that is `None` too).
    pub intervals: Vec<f64>,
}

impl FaultAxes {
    /// Axes evaluating `fault` at its own checkpoint interval (the
    /// Young/Daly optimum unless the spec pins one).
    pub fn new(fault: FaultSpec) -> Self {
        Self {
            fault,
            intervals: Vec::new(),
        }
    }

    /// Adds a checkpoint-interval sweep.
    #[must_use]
    pub fn with_intervals(mut self, intervals: impl IntoIterator<Item = f64>) -> Self {
        self.intervals = intervals.into_iter().collect();
        self
    }
}

/// One candidate's checkpoint-interval sweep.
#[derive(Debug, Clone)]
pub struct GoodputCandidate {
    /// The candidate plan.
    pub plan: Plan,
    /// The workload variant it ran.
    pub workload: Workload,
    /// One goodput evaluation per swept interval, in axes order. Empty
    /// when the candidate failed to simulate.
    pub points: Vec<GoodputReport>,
    /// Index into [`GoodputCandidate::points`] of the best interval
    /// (highest effective throughput), if any.
    pub best_point: Option<usize>,
    /// The candidate's fault-free iteration time, when it simulated.
    pub iteration_time: Option<Seconds>,
    /// Why the candidate failed to simulate, when it did.
    pub error: Option<EngineError>,
}

impl GoodputCandidate {
    /// The candidate's score: effective (goodput-weighted) iterations
    /// per second at its best checkpoint interval (0 when it failed).
    pub fn score(&self) -> f64 {
        self.best_point
            .map_or(0.0, |i| self.points[i].effective_throughput)
    }
}

/// Result of one [`Explorer::explore_goodput`] run.
#[derive(Debug, Clone)]
pub struct GoodputSearchOutcome {
    /// Every candidate's sweep, in enumeration order.
    pub candidates: Vec<GoodputCandidate>,
    /// Index into [`GoodputSearchOutcome::candidates`] of the
    /// goodput-optimal winner.
    pub best_candidate: usize,
    /// Index of the *fault-free* (latency-optimal) winner: the candidate
    /// with the highest fault-free throughput, i.e. what the plain
    /// explorer would have picked.
    pub fault_free_best: usize,
    /// Goodput evaluations executed (points across all candidates).
    pub evaluated: usize,
    /// Search counters ([`SearchTelemetry::goodput_evals`] carries
    /// `evaluated`; outcome counters reconcile as in the plain search).
    pub telemetry: SearchTelemetry,
}

impl GoodputSearchOutcome {
    /// The goodput-optimal candidate.
    pub fn best(&self) -> &GoodputCandidate {
        &self.candidates[self.best_candidate]
    }

    /// The latency-optimal candidate (the fault-free explorer's pick).
    pub fn fault_free(&self) -> &GoodputCandidate {
        &self.candidates[self.fault_free_best]
    }

    /// Whether failure-awareness changed the winning plan: the
    /// goodput-optimal candidate differs from the latency-optimal one.
    pub fn plan_flip(&self) -> bool {
        self.best_candidate != self.fault_free_best
    }

    /// The winner's best effective throughput, iterations/second.
    pub fn best_effective_throughput(&self) -> f64 {
        self.best().score()
    }
}

impl IterationTime for GoodputOutcome {
    fn iteration_ms(&self) -> Option<f64> {
        Some(self.report.iteration_time.as_ms())
    }
}

impl Explorer<'_> {
    /// Searches the space for the deployment with the highest
    /// **failure-aware goodput** under `axes`' fault process.
    ///
    /// Candidates are the same (plan, workload-variant) combinations
    /// [`Explorer::explore`] evaluates, on the same worker pool and
    /// through the same shared cost tables. Each runs its fault-free
    /// simulation and prices its checkpoint once
    /// ([`madmax_engine::Scenario::goodput`] at the first interval); the
    /// remaining interval points reuse that report's checkpoint write,
    /// restart and MTBF through the closed form, so a k-interval sweep
    /// costs one simulation, not k.
    ///
    /// Ranking: highest [`GoodputCandidate::score`] — effective
    /// iterations/second at the best swept checkpoint interval.
    /// [`GoodputSearchOutcome::fault_free_best`] records what a
    /// fault-blind ranking would have picked, so
    /// [`GoodputSearchOutcome::plan_flip`] exposes divergence directly.
    ///
    /// # Errors
    ///
    /// [`EngineError::InvalidFault`] for an invalid spec, a spec without
    /// an MTBF, or a non-positive interval; the first candidate's error
    /// when every candidate failed to simulate.
    ///
    /// # Panics
    ///
    /// Panics when the space carries serve axes but the workload is not
    /// serve (matching [`Explorer::explore`]).
    pub fn explore_goodput(&self, axes: &FaultAxes) -> Result<GoodputSearchOutcome, EngineError> {
        axes.fault
            .validate()
            .map_err(|reason| EngineError::InvalidFault { reason })?;
        if axes.fault.mtbf.is_none() {
            return Err(EngineError::InvalidFault {
                reason: "goodput search needs a fatal-fault MTBF (FaultSpec::mtbf)".to_owned(),
            });
        }
        for &ci in &axes.intervals {
            if !ci.is_finite() || ci <= 0.0 {
                return Err(EngineError::InvalidFault {
                    reason: format!("checkpoint interval {ci} must be finite and positive"),
                });
            }
        }
        let first = match axes.intervals.first() {
            Some(&ci) => axes.fault.clone().with_checkpoint_interval(ci),
            None => axes.fault.clone(),
        };
        let variants = self.workload_variants();
        let plans = self.candidates();
        let batches: Vec<_> = variants.iter().map(|w| (w, plans.as_slice())).collect();
        let (evaluated, mut telemetry) = self.run_pipeline(&batches, true, |s, scratch| {
            let t = Instant::now();
            let outcome = s.goodput(&first);
            scratch.phases.record(Phase::Goodput, t);
            outcome
        });
        let candidates: Vec<GoodputCandidate> = evaluated
            .into_iter()
            .map(|(workload, plan, result)| {
                let (points, iteration_time, error) = match result {
                    Ok(base) => {
                        let g = base.goodput;
                        let iter_time = base.report.iteration_time;
                        let mut points = vec![g];
                        points.extend(axes.intervals.iter().skip(1).map(|&ci| {
                            expected_goodput(
                                iter_time.as_secs(),
                                g.checkpoint_write,
                                g.restart,
                                g.mtbf,
                                ci,
                            )
                        }));
                        (points, Some(iter_time), None)
                    }
                    Err(e) => (Vec::new(), None, Some(e)),
                };
                let best_point = points
                    .iter()
                    .enumerate()
                    .max_by(|(_, a), (_, b)| {
                        a.effective_throughput.total_cmp(&b.effective_throughput)
                    })
                    .map(|(i, _)| i);
                GoodputCandidate {
                    plan: plan.clone(),
                    workload: workload.clone(),
                    points,
                    best_point,
                    iteration_time,
                    error,
                }
            })
            .collect();

        let ranked = |key: fn(&GoodputCandidate) -> f64| {
            candidates
                .iter()
                .enumerate()
                .filter(|(_, c)| !c.points.is_empty())
                .max_by(|(_, a), (_, b)| key(a).total_cmp(&key(b)))
                .map(|(i, _)| i)
        };
        let best_candidate = ranked(GoodputCandidate::score);
        let fault_free_best = ranked(|c| c.points.first().map_or(0.0, |p| p.fault_free_throughput));
        let evaluated: usize = candidates.iter().map(|c| c.points.len()).sum();
        telemetry.goodput_evals = evaluated as u64;
        match (best_candidate, fault_free_best) {
            (Some(best_candidate), Some(fault_free_best)) => Ok(GoodputSearchOutcome {
                candidates,
                best_candidate,
                fault_free_best,
                evaluated,
                telemetry,
            }),
            _ => {
                // Every candidate failed to simulate.
                Err(candidates
                    .into_iter()
                    .next()
                    .and_then(|c| c.error)
                    .unwrap_or(EngineError::InvalidFault {
                        reason: "the search space is empty".to_owned(),
                    }))
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::explore::SearchSpace;
    use madmax_engine::Scenario;
    use madmax_hw::catalog;
    use madmax_model::ModelId;

    fn axes(mtbf: f64) -> FaultAxes {
        FaultAxes::new(FaultSpec::fatal(mtbf, 60.0, 7))
    }

    #[test]
    fn goodput_search_sweeps_intervals_and_ranks_by_effective_throughput() {
        let model = ModelId::Llama2.build();
        let sys = catalog::llama_llm_system();
        let explorer = Explorer::new(&model, &sys).space(SearchSpace::default());
        let a = axes(3600.0).with_intervals([10.0, 120.0, 1800.0]);
        let r = explorer.explore_goodput(&a).unwrap();
        assert_eq!(r.candidates.len(), 1, "default space = baseline plan only");
        assert_eq!(r.evaluated, 3);
        let best = r.best();
        assert!(best.error.is_none());
        assert_eq!(best.points.len(), 3);
        let bp = best.best_point.unwrap();
        for p in &best.points {
            assert!(p.effective_throughput <= best.points[bp].effective_throughput);
            assert!(p.goodput_fraction > 0.0 && p.goodput_fraction <= 1.0);
            assert!(p.effective_throughput <= p.fault_free_throughput);
        }
        assert!(r.best_effective_throughput() > 0.0);
        assert_eq!(r.telemetry.goodput_evals, 3);
        assert_eq!(r.telemetry.ok, 1);
        assert!(r.telemetry.reconciles());
        // The candidate priced through the search's shared flat table.
        assert!(r.telemetry.flat_cache.total() > 0, "{:?}", r.telemetry);
    }

    #[test]
    fn interval_sweep_matches_per_interval_scenario_goodput() {
        // The uncached `Scenario::goodput` at each interval is the
        // reference for the search's shared-table, one-simulation sweep:
        // every candidate's points match it bit for bit, and every
        // failed candidate fails with the same error.
        let model = ModelId::Llama2.build();
        let sys = catalog::llama_llm_system();
        let intervals = [30.0, 600.0];
        for space in [SearchSpace::default(), SearchSpace::strategies()] {
            let r = Explorer::new(&model, &sys)
                .space(space)
                .explore_goodput(&axes(1800.0).with_intervals(intervals))
                .unwrap();
            assert!(r.candidates.iter().any(|c| c.error.is_none()));
            for c in &r.candidates {
                let scenario = Scenario::new(&model, &sys)
                    .plan_ref(&c.plan)
                    .workload_ref(&c.workload);
                for (i, &ci) in intervals.iter().enumerate() {
                    let direct = scenario
                        .goodput(&FaultSpec::fatal(1800.0, 60.0, 7).with_checkpoint_interval(ci));
                    match (&direct, &c.error) {
                        (Ok(direct), None) => {
                            assert_eq!(
                                format!("{:?}", c.points[i]),
                                format!("{:?}", direct.goodput)
                            );
                            assert_eq!(c.iteration_time, Some(direct.report.iteration_time));
                        }
                        (Err(direct), Some(swept)) => {
                            assert_eq!(swept.to_string(), direct.to_string());
                        }
                        _ => panic!(
                            "{}: search {:?} vs direct {direct:?}",
                            c.plan.summary(),
                            c.error
                        ),
                    }
                }
            }
        }
    }

    #[test]
    fn strategy_space_ranks_goodput_not_just_latency() {
        let model = ModelId::Llama2.build();
        let sys = catalog::llama_llm_system();
        let explorer = Explorer::new(&model, &sys).space(SearchSpace::strategies());
        let r = explorer.explore_goodput(&axes(3600.0)).unwrap();
        assert!(r.candidates.len() > 1);
        // Both rankings land on simulated candidates.
        assert!(r.best().error.is_none());
        assert!(r.fault_free().error.is_none());
        // The fault-free pick is the iteration-time winner.
        let ff = r.fault_free().iteration_time.unwrap();
        for c in &r.candidates {
            if let Some(t) = c.iteration_time {
                assert!(ff.as_secs() <= t.as_secs() + 1e-12);
            }
        }
    }

    #[test]
    fn bad_axes_are_rejected_up_front() {
        let model = ModelId::Llama2.build();
        let sys = catalog::llama_llm_system();
        let explorer = Explorer::new(&model, &sys).space(SearchSpace::default());
        let err = explorer
            .explore_goodput(&FaultAxes::new(FaultSpec::none()))
            .unwrap_err();
        assert!(matches!(err, EngineError::InvalidFault { .. }), "{err}");
        let err = explorer
            .explore_goodput(&axes(3600.0).with_intervals([0.0]))
            .unwrap_err();
        assert!(matches!(err, EngineError::InvalidFault { .. }), "{err}");
    }
}
