//! # madmax-bench
//!
//! The MAD-Max experiment harness: one module per table and figure of the
//! paper's evaluation. Each experiment returns its rendered report;
//! [`experiments::all`] lists them in order, and `madmax figures
//! [--only SUBSTR]` runs them, persists each report under `results/`,
//! and ends with a per-experiment elapsed-time summary, so hot-path
//! regressions are visible straight from the tier-1 artifact run.
//!
//! Host-time performance is measured by the standalone `perfbench/`
//! benchmark at the repository root, not by this crate.

#![warn(missing_docs)]

pub mod cli;
pub mod corpus;
pub mod experiments;

pub use cli::SearchHooks;
pub use corpus::{fault_corpus, verify_corpus, FaultScenario, VerifyScenario};

/// The default worker-pool size for DSE-heavy experiments: all available
/// cores.
pub fn default_threads() -> usize {
    std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get)
}
