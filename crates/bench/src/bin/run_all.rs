//! Runs every table/figure experiment and persists results under
//! `results/`. DSE-heavy experiments fan out over all available cores, and
//! the telemetry layer's [`ElapsedSummary`] prints a per-figure
//! elapsed-time table at the end so hot-path regressions are visible
//! straight from the tier-1 artifact run. Per-search telemetry (outcome
//! counters, cache hit rates) lands in `results/telemetry.json`.

use madmax_bench::{emit, experiments, SearchHooks};
use madmax_obs::{ElapsedSummary, TelemetrySpool};

fn main() {
    let threads = madmax_bench::default_threads();
    let spool = TelemetrySpool::new();
    let hooks = SearchHooks {
        threads,
        sink: None,
        spool: Some(&spool),
        verify: false,
    };
    let mut summary = ElapsedSummary::new();
    for (name, f) in experiments::all(hooks) {
        eprintln!(">>> {name}");
        let report = summary.run(name, f);
        emit(name, &report);
    }

    eprintln!("\n=== elapsed per experiment ===");
    eprint!("{}", summary.table());

    let telemetry_path = madmax_bench::results_dir().join("telemetry.json");
    match spool.write(&telemetry_path) {
        Ok(()) => eprintln!("search telemetry written to {}", telemetry_path.display()),
        Err(err) => eprintln!("cannot write search telemetry: {err}"),
    }
}
