//! Golden digests of every table/figure experiment: each report
//! `madmax figures` writes to `results/<name>.txt` is reduced to one
//! FNV-1a 64-bit hash and compared against the committed
//! `tests/golden/figures.txt`. Engine refactors that promise
//! byte-identical reports are held to it here, by `cargo test`.
//!
//! Re-bless after an intentional output change with
//! `MADMAX_BLESS=1 cargo test -p madmax-bench --test figure_digests`.

use std::fmt::Write as _;

use madmax_bench::{experiments, SearchHooks};

/// FNV-1a, 64-bit.
fn fnv64(text: &str) -> u64 {
    text.bytes().fold(0xcbf2_9ce4_8422_2325, |h, b| {
        (h ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3)
    })
}

#[test]
fn every_experiment_matches_its_golden_digest() {
    // Results are identical at any thread count; two keeps the test light.
    let mut rendered = String::new();
    for (name, run) in experiments::all(SearchHooks::with_threads(2)) {
        writeln!(rendered, "{name} {:016x}", fnv64(&run())).unwrap();
    }
    let path =
        std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("../../tests/golden/figures.txt");
    if std::env::var_os("MADMAX_BLESS").is_some() {
        std::fs::create_dir_all(path.parent().unwrap()).unwrap();
        std::fs::write(&path, &rendered).unwrap();
        return;
    }
    let golden = std::fs::read_to_string(&path).unwrap_or_else(|e| {
        panic!("missing tests/golden/figures.txt: {e}; bless with MADMAX_BLESS=1")
    });
    assert_eq!(
        rendered, golden,
        "experiment outputs drifted from their golden digests; if intentional, bless with MADMAX_BLESS=1"
    );
}
