//! # madmax-dse
//!
//! Design-space exploration on top of the MAD-Max performance model,
//! built on the unified `madmax_engine::Scenario` entry point: one
//! [`SearchSpace`] spanning the per-layer-class strategy axes and the
//! optional pipeline axes, one parallel [`Explorer`] producing a
//! [`SearchOutcome`] (Figs. 10, 18, and the joint pipeline study),
//! exhaustive per-class strategy sweeps (Figs. 11-15, 17),
//! Pareto-frontier extraction (Figs. 1, 13, 16), and the
//! future-technologies hardware scaling study (Figs. 19-20).
//!
//! Serve workloads search the same way: attach `ServeAxes` (decode
//! batch) to the space and the explorer ranks (plan, batch) combinations
//! by output tokens per second.
//!
//! The three searches — latency ([`Explorer::explore`]), load-SLO
//! ([`Explorer::explore_load`]) and failure-aware goodput
//! ([`Explorer::explore_goodput`]) — share one candidate pipeline: the
//! same (plan, workload-variant) enumeration, worker pool, outcome
//! classification, progress events and [`SearchTelemetry`]. Each keeps
//! only its per-candidate evaluation and its ranking.
//!
//! The pre-`Explorer` entry points (`optimize`, `optimize_pipeline`) have
//! been removed after their deprecation release; `Explorer` over the
//! matching `SearchSpace` is the single search API.

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

pub mod explore;
pub mod fault;
pub mod load;
pub mod pareto;
pub mod scaling;
pub mod sweep;

pub use explore::{Explorer, PipelineAxes, SearchOutcome, SearchSpace, ServeAxes};
pub use fault::{FaultAxes, GoodputCandidate, GoodputSearchOutcome};
pub use load::{LoadAxes, LoadCandidate, LoadPoint, LoadSearchOutcome};
pub use madmax_obs::{
    CandidateEvent, CandidateOutcome, JsonlSink, NullSink, ProgressSink, SearchTelemetry,
    StderrTicker,
};
pub use pareto::{pareto_frontier, ParetoPoint};
pub use scaling::{scaling_study, ScalingAxis, ScalingPoint};
pub use sweep::{best_point, sweep_class, SweepPoint};
