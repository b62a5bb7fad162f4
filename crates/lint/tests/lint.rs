//! Self-tests for `pim-lint`: every rule ships a fixture that trips
//! it, the allow machinery is exercised in both directions, and the
//! real workspace must lint clean (the same invariant CI gates on).

use pim_lint::{lint_source, lint_workspace, Violation, RULES};
use std::path::Path;

fn rules_of(vs: &[Violation]) -> Vec<&'static str> {
    vs.iter().map(|v| v.rule).collect()
}

#[test]
fn hash_collections_fixture_trips() {
    let vs = lint_source(
        "crates/sim/src/fixture.rs",
        include_str!("fixtures/hash_collections.rs"),
    );
    assert!(!vs.is_empty(), "fixture must trip");
    assert!(vs.iter().all(|v| v.rule == "hash-collections"), "{vs:?}");
    // The HashMap inside the leading comment is not reported: only the
    // real `use` (line 4) and the field (line 7).
    assert_eq!(vs.iter().map(|v| v.line).collect::<Vec<_>>(), vec![4, 7]);
    // The engine crate is in scope too: its completion path is hot.
    let core = lint_source(
        "crates/core/src/fixture.rs",
        include_str!("fixtures/hash_collections.rs"),
    );
    assert_eq!(rules_of(&core), vec!["hash-collections"; 2], "{core:?}");
    // So is the memory controller: its queues are scanned every tick.
    let dram = lint_source(
        "crates/dram/src/fixture.rs",
        include_str!("fixtures/hash_collections.rs"),
    );
    assert_eq!(rules_of(&dram), vec!["hash-collections"; 2], "{dram:?}");
    // So is the CPU model: its cores and LLC look up requests per access.
    let cpu = lint_source(
        "crates/cpu/src/fixture.rs",
        include_str!("fixtures/hash_collections.rs"),
    );
    assert_eq!(rules_of(&cpu), vec!["hash-collections"; 2], "{cpu:?}");
}

#[test]
fn hash_collections_is_path_scoped() {
    // The same text under a non-deterministic crate is fine.
    let vs = lint_source(
        "crates/workloads/src/fixture.rs",
        include_str!("fixtures/hash_collections.rs"),
    );
    assert!(vs.is_empty(), "{vs:?}");
}

#[test]
fn wall_clock_fixture_trips_and_whitelist_holds() {
    let src = include_str!("fixtures/wall_clock.rs");
    let vs = lint_source("crates/hostq/src/fixture.rs", src);
    assert_eq!(rules_of(&vs), vec!["wall-clock"], "{vs:?}");

    // The self-profiler and the bench harness may read the wall clock.
    for path in [
        "crates/sim/src/system.rs",
        "crates/runtime/src/serving.rs",
        "crates/bench/src/bin/fixture.rs",
    ] {
        assert!(lint_source(path, src).is_empty(), "{path} is whitelisted");
    }
}

#[test]
fn truncating_cast_fixture_trips_only_on_narrowing() {
    let vs = lint_source(
        "crates/core/src/fixture.rs",
        include_str!("fixtures/truncating_cast.rs"),
    );
    assert_eq!(rules_of(&vs), vec!["truncating-cast"], "{vs:?}");
    assert_eq!(vs[0].line, 4, "the widening `as u64` must not trip");
}

#[test]
fn no_f32_fixture_trips() {
    let vs = lint_source(
        "crates/sim/src/fixture.rs",
        include_str!("fixtures/no_f32.rs"),
    );
    assert!(!vs.is_empty());
    assert!(vs.iter().all(|v| v.rule == "no-f32"), "{vs:?}");
}

#[test]
fn justified_allows_silence_their_rule() {
    let vs = lint_source(
        "crates/core/src/fixture.rs",
        include_str!("fixtures/allow_ok.rs"),
    );
    assert!(vs.is_empty(), "{vs:?}");
}

#[test]
fn bare_allow_is_reported_and_does_not_silence() {
    let vs = lint_source(
        "crates/core/src/fixture.rs",
        include_str!("fixtures/allow_missing_reason.rs"),
    );
    let mut rules = rules_of(&vs);
    rules.sort_unstable();
    assert_eq!(
        rules,
        vec!["allow-missing-reason", "truncating-cast", "unknown-rule"],
        "{vs:?}"
    );
}

#[test]
fn test_code_is_exempt() {
    let src = "pub fn f(x: u64) -> u64 { x }\n#[cfg(test)]\nmod tests {\n    fn g(x: u64) -> u32 { x as u32 }\n}\n";
    assert!(lint_source("crates/core/src/fixture.rs", src).is_empty());
}

#[test]
fn bench_smoke_tree_trips_both_halves() {
    let root = Path::new(env!("CARGO_MANIFEST_DIR")).join("tests/fixtures/bench_smoke_tree");
    let vs = lint_workspace(&root);
    assert_eq!(rules_of(&vs), vec!["bench-smoke", "bench-smoke"], "{vs:?}");
    assert!(vs[0].message.contains("no --smoke mode"), "{}", vs[0]);
    assert!(
        vs[1].message.contains("no `--bin fig99_rotted"),
        "{}",
        vs[1]
    );
}

#[test]
fn the_actual_workspace_lints_clean() {
    // The same check CI gates on: the real tree has zero violations.
    let root = Path::new(env!("CARGO_MANIFEST_DIR")).join("../..");
    let vs = lint_workspace(&root);
    assert!(vs.is_empty(), "workspace must lint clean:\n{}", {
        let mut s = String::new();
        for v in &vs {
            s.push_str(&format!("{v}\n"));
        }
        s
    });
}

#[test]
fn rule_table_is_stable() {
    // The README documents these ids; renaming one is a breaking change
    // for existing `lint:allow(...)` annotations.
    assert_eq!(
        RULES,
        &[
            "hash-collections",
            "wall-clock",
            "truncating-cast",
            "no-f32",
            "bench-smoke"
        ]
    );
}
