//! The output check catches wrong results: a perturbed committed
//! fingerprint and an event-mode run that disagrees with its per-token
//! reference each count as failed calls and make the run exit non-zero.

use std::process::Command;

use perfbench::check::{parse_committed, Checker, COMMITTED};
use perfbench::run::{check_references, record};
use perfbench::workloads::{Inputs, Outcome, WorkloadId, DEFAULT_SEED};

/// Runs the benchmark binary briefly on `serve_decode`; returns the exit
/// status and the last stdout line.
fn run_serve_decode(extra: &[&str]) -> (bool, String) {
    let out = Command::new(env!("CARGO_BIN_EXE_perfbench"))
        .args([
            "--workload",
            "serve_decode",
            "--seed",
            "1",
            "--seconds",
            "0.2",
            "--trace",
            "0",
        ])
        .args(extra)
        .output()
        .expect("benchmark binary runs");
    let stdout = String::from_utf8(out.stdout).expect("utf-8 output");
    let last = stdout.lines().last().unwrap_or_default().to_owned();
    (out.status.success(), last)
}

#[test]
fn committed_fingerprints_pass() {
    let (ok, last) = run_serve_decode(&[]);
    assert!(ok, "{last}");
    assert!(last.starts_with("{\"correct\": true,"), "{last}");
    assert!(last.contains("\"failed\": 0,"), "{last}");
}

#[test]
fn perturbed_fingerprint_fails_the_run() {
    let key = "serve_decode/faulty_load/LLaMA2/bursty";
    let mut perturbed = String::new();
    for line in COMMITTED.lines() {
        match line.strip_prefix(key) {
            Some(rest) => perturbed.push_str(&format!(
                "{key}{}",
                rest.replacen("completed=", "completed=9", 1)
            )),
            None => perturbed.push_str(line),
        }
        perturbed.push('\n');
    }
    assert_ne!(
        perturbed.trim_end(),
        COMMITTED.trim_end(),
        "the key is committed"
    );
    let path = std::path::Path::new(env!("CARGO_TARGET_TMPDIR")).join("perturbed_fingerprints.txt");
    std::fs::write(&path, perturbed).expect("write perturbed fingerprints");
    let (ok, last) = run_serve_decode(&["--fingerprints", path.to_str().expect("utf-8 path")]);
    assert!(!ok, "a perturbed fingerprint must fail the run: {last}");
    assert!(last.starts_with("{\"correct\": false,"), "{last}");
    assert!(!last.contains("\"failed\": 0,"), "{last}");
}

#[test]
fn per_token_mismatch_fails_every_call_of_its_label() {
    let inputs = Inputs::build(WorkloadId::ServeDecode, DEFAULT_SEED, 2);
    let mut results: Vec<_> = inputs.calls.iter().map(|c| inputs.run_call(c)).collect();
    let mut checker = Checker::new(parse_committed(COMMITTED));
    record(&mut checker, &inputs, &results, true);
    check_references(&inputs, &results, &mut checker);
    assert_eq!(checker.failed(), 0, "{:?}", checker.messages());

    let faulty = results
        .iter_mut()
        .find_map(|r| match r {
            Ok(Outcome::Faulty { outcome, .. }) => Some(outcome),
            _ => None,
        })
        .expect("serve_decode issues a faulty load run");
    faulty.report.tokens_per_sec += 1.0;
    let mut checker = Checker::new(parse_committed(COMMITTED));
    record(&mut checker, &inputs, &results, false);
    record(&mut checker, &inputs, &results, false);
    check_references(&inputs, &results, &mut checker);
    assert_eq!(checker.failed(), 2, "both calls of the label fail");
    assert!(
        checker
            .messages()
            .iter()
            .any(|m| m.contains("per-token reference")),
        "{:?}",
        checker.messages()
    );
}
