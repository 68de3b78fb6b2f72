//! `--smoke` as a test: every metric `BENCHMARK.json` declares is
//! emitted (finite, unit-tagged, well-named), every answer is right, and
//! the single-client workloads' counts repeat exactly.

use std::path::Path;

#[test]
fn smoke_emits_every_declared_metric() {
    let scratch = Path::new(env!("CARGO_TARGET_TMPDIR")).join("smoke");
    let bench_json = Path::new(env!("CARGO_MANIFEST_DIR")).join("../BENCHMARK.json");
    if let Err(problems) = lfs_benchmark::run::smoke(&bench_json, &scratch, &scratch) {
        panic!("{problems}");
    }
}
