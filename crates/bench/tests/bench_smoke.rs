//! Every bench bin that writes a committed `BENCH_*` artifact needs a
//! `--smoke` mode and a CI step that runs it; otherwise the artifact
//! regenerates only on full runs and rots unnoticed.

use std::path::Path;

/// What is missing for bin `stem` with source `src`, given the CI
/// workflow text `ci`.
fn findings(stem: &str, src: &str, ci: &str) -> Vec<String> {
    let mut out = Vec::new();
    if !src.contains("BENCH_") {
        return out;
    }
    // A mention in a comment is no support: the flag must be parsed.
    let in_code = |l: &str| l.split("//").next().is_some_and(|c| c.contains("smoke"));
    if !src.lines().any(in_code) {
        out.push(format!(
            "{stem} writes a BENCH_* file but has no --smoke mode"
        ));
    }
    let step = format!("--bin {stem} ");
    if !ci
        .lines()
        .any(|l| l.contains(&step) && l.contains("--smoke"))
    {
        out.push(format!("ci.yml has no `--bin {stem} ... --smoke` step"));
    }
    out
}

#[test]
fn every_bench_artifact_bin_has_a_smoke_step_in_ci() {
    let dir = Path::new(env!("CARGO_MANIFEST_DIR"));
    let ci = std::fs::read_to_string(dir.join("../../.github/workflows/ci.yml"))
        .expect("read the CI workflow");
    let mut bins: Vec<_> = std::fs::read_dir(dir.join("src/bin"))
        .expect("list the bench bins")
        .map(|e| e.expect("read a bin entry").path())
        .collect();
    bins.sort();
    let mut missing = Vec::new();
    for bin in &bins {
        let stem = bin.file_stem().and_then(|s| s.to_str()).expect("bin stem");
        let src = std::fs::read_to_string(bin).expect("read a bin");
        missing.extend(findings(stem, &src, &ci));
    }
    assert!(missing.is_empty(), "{}", missing.join("\n"));
}

#[test]
fn a_rotted_bin_yields_both_findings() {
    let src = "// Pass --smoke for a quick run.\n\
               fn main() { std::fs::write(\"BENCH_fig99.json\", \"{}\").unwrap(); }\n";
    let ci = "run: cargo run -p pim-bench --bin fig99_rotted_v2 -- --smoke\n";
    let found = findings("fig99_rotted", src, ci);
    assert_eq!(found.len(), 2, "{found:?}");
    assert!(found[0].contains("no --smoke mode"), "{}", found[0]);
    assert!(found[1].contains("--bin fig99_rotted ..."), "{}", found[1]);
}
