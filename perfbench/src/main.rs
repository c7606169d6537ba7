//! `perfbench --workload W --seed N --seconds S --trace 0|1`: runs one
//! workload and prints its metrics; the last line of standard output is
//! one JSON object. Exits non-zero when a call fails or an output check
//! does not hold.

use std::process::ExitCode;
use std::time::Instant;

fn main() -> ExitCode {
    let started = Instant::now();
    let args = match perfbench::run::Args::parse(std::env::args().skip(1)) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    let report = match perfbench::run::run(&args, started) {
        Ok(r) => r,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    for line in &report.lines {
        println!("{line}");
    }
    println!("{}", report.json());
    if report.failed == 0 {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
