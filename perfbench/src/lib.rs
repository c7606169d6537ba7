//! Host-time benchmark of the MAD-Max search stack.
//!
//! One process drives the public library API in-process over one of
//! three workloads (see [`workloads`]), checks every simulated output
//! (see [`check`]), and reports end-to-end metrics from untraced
//! iterations or per-layer metrics from a traced replay (see [`trace`]).
//! `perfbench/README.md` describes the metrics and how to run it.

pub mod check;
pub mod host;
pub mod run;
pub mod trace;
pub mod workloads;
