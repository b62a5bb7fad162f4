//! `pim-lint`: the workspace determinism linter.
//!
//! The whole repository rests on one property: **a seeded simulation is
//! bit-identically replayable**. Goldens, the conformance matrix, and
//! byte-compared telemetry exports all assume it. That property is easy
//! to break with changes the type system happily accepts — iterating a
//! `HashMap`, reading the wall clock inside the simulated world, or
//! silently truncating a tick count through an `as` cast. This crate is
//! a small, dependency-free textual analyzer that rejects those
//! patterns before they reach a golden.
//!
//! ## Rules
//!
//! | id | scope | what it rejects |
//! |----|-------|-----------------|
//! | `hash-collections` | `crates/{sim,core,cpu,dram,runtime,telemetry}/src` | any `HashMap`/`HashSet` use — hash-iteration order is nondeterministic across builds, and SipHash is slow on hot paths |
//! | `wall-clock` | everywhere except the self-profiler (`sim/src/system.rs`, `runtime/src/serving.rs`) and `crates/bench` | `Instant::now()` / `SystemTime::now()` — host time must never leak into simulated time |
//! | `truncating-cast` | `crates/{sim,core,dram,hostq,runtime}/src` | bare `as u8/u16/u32/i8/i16/i32` between integer widths — use `try_from` or a widening cast |
//! | `no-f32` | `crates/{sim,core,dram,hostq,runtime,telemetry}/src` | any `f32` — all model arithmetic is `f64`; mixing widths changes rounding between platforms |
//! | `bench-smoke` | workspace | a `crates/bench` bin that commits a `BENCH_*.json` artifact but lacks `--smoke` support or a `--smoke` CI step in `.github/workflows/ci.yml` |
//!
//! ## Allowlist
//!
//! A violating line can be waived with a justified annotation on the
//! same line or the immediately preceding comment line:
//!
//! ```text
//! let lane = idx as u32; // lint:allow(truncating-cast) -- idx < 2^16 lanes by construction
//! ```
//!
//! The justification after `--` is **mandatory**; a bare
//! `lint:allow(rule)` is itself reported (`allow-missing-reason`), and
//! an allow naming a rule this linter doesn't know is reported
//! (`unknown-rule`). This keeps every waiver greppable and explained.
//!
//! ## What this is (and is not)
//!
//! This is a *textual* analyzer: it works line-by-line on source text,
//! skips `//` comments and everything after the first `#[cfg(test)]`
//! in a file, and never parses Rust. That makes it trivially
//! dependency-free and fast, at the cost of precision — which is fine,
//! because every rule here is one where *any* textual occurrence in
//! the scoped paths is wrong (or at minimum worth a justified waiver).
//! Type-aware enforcement (e.g. `clippy::cast_possible_truncation`)
//! complements it from the `[lints]` tables in the timing crates.

use std::fmt;
use std::path::{Path, PathBuf};

/// Every rule id this linter knows, in report order.
pub const RULES: &[&str] = &[
    "hash-collections",
    "wall-clock",
    "truncating-cast",
    "no-f32",
    "bench-smoke",
];

/// One finding: a rule tripped at a line of a (virtual or real) file.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Violation {
    /// Workspace-relative path (as given to [`lint_source`]).
    pub path: String,
    /// 1-based line number.
    pub line: usize,
    /// Rule id (one of [`RULES`], or the meta rules
    /// `allow-missing-reason` / `unknown-rule`).
    pub rule: &'static str,
    /// Human-oriented explanation of what tripped.
    pub message: String,
}

impl fmt::Display for Violation {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{}:{}: [{}] {}",
            self.path, self.line, self.rule, self.message
        )
    }
}

/// Crates whose `src/` must never touch hash-ordered collections: their
/// iteration order feeds scheduling decisions and exported artifacts,
/// and the engine's and the CPU model's per-access lookups sit on the
/// hottest paths.
const HASH_SCOPED: &[&str] = &[
    "crates/sim/src/",
    "crates/core/src/",
    "crates/cpu/src/",
    "crates/dram/src/",
    "crates/runtime/src/",
    "crates/telemetry/src/",
];

/// Crates whose `src/` must not use bare truncating integer casts.
const CAST_SCOPED: &[&str] = &[
    "crates/sim/src/",
    "crates/core/src/",
    "crates/dram/src/",
    "crates/hostq/src/",
    "crates/runtime/src/",
];

/// Crates whose `src/` must not use `f32` anywhere.
const F32_SCOPED: &[&str] = &[
    "crates/sim/src/",
    "crates/core/src/",
    "crates/dram/src/",
    "crates/hostq/src/",
    "crates/runtime/src/",
    "crates/telemetry/src/",
];

/// Files allowed to read the host wall clock: the self-profiler (which
/// *measures* the simulator and explicitly never feeds simulated time)
/// and the bench harness (whose whole job is wall-clock measurement).
const WALL_CLOCK_WHITELIST: &[&str] = &[
    "crates/sim/src/system.rs",
    "crates/runtime/src/serving.rs",
    "crates/bench/",
];

fn in_scope(path: &str, prefixes: &[&str]) -> bool {
    prefixes.iter().any(|p| path.starts_with(p))
}

/// The code portion of a line: everything before a `//` comment opener.
/// (Heuristic: a `//` inside a string literal will truncate early; none
/// of the patterns this linter matches can be hidden that way without
/// also being dead as code.)
fn code_of(line: &str) -> &str {
    match line.find("//") {
        Some(i) => &line[..i],
        None => line,
    }
}

/// True when `needle` occurs in `hay` bounded by non-identifier chars.
fn word_hit(hay: &str, needle: &str) -> bool {
    let ident = |c: char| c.is_alphanumeric() || c == '_';
    let mut from = 0;
    while let Some(i) = hay[from..].find(needle) {
        let at = from + i;
        let before_ok = at == 0 || !hay[..at].chars().next_back().is_some_and(ident);
        let after = at + needle.len();
        let after_ok = after >= hay.len() || !hay[after..].chars().next().is_some_and(ident);
        if before_ok && after_ok {
            return true;
        }
        from = at + needle.len();
    }
    false
}

/// True when the line performs a bare narrowing `as` cast.
fn truncating_cast_hit(code: &str) -> bool {
    ["u8", "u16", "u32", "i8", "i16", "i32"]
        .iter()
        .any(|ty| word_hit(code, &format!("as {ty}")))
}

/// The `lint:allow(...)` annotations present in a line's comment, as
/// `(rule, has_justification)` pairs.
fn allows_in(line: &str) -> Vec<(String, bool)> {
    let mut out = Vec::new();
    let mut rest = line;
    while let Some(i) = rest.find("lint:allow(") {
        rest = &rest[i + "lint:allow(".len()..];
        let Some(close) = rest.find(')') else { break };
        let rule = rest[..close].trim().to_string();
        rest = &rest[close + 1..];
        // Justification: a ` -- reason` tail with non-empty reason,
        // consumed up to the next annotation (if any).
        let tail = match rest.find("lint:allow(") {
            Some(j) => &rest[..j],
            None => rest,
        };
        let justified = tail
            .find("--")
            .is_some_and(|j| !tail[j + 2..].trim().trim_matches('-').trim().is_empty());
        out.push((rule, justified));
    }
    out
}

/// Per-line allow state assembled from the line itself plus a directly
/// preceding pure-comment line.
struct AllowMap {
    /// `by_line[i]` = annotations governing 1-based line `i + 1`.
    by_line: Vec<Vec<(String, bool)>>,
}

impl AllowMap {
    fn build(lines: &[&str]) -> (Self, Vec<Violation>) {
        let mut by_line: Vec<Vec<(String, bool)>> = vec![Vec::new(); lines.len()];
        let mut meta = Vec::new();
        for (i, line) in lines.iter().enumerate() {
            let found = allows_in(line);
            if found.is_empty() {
                continue;
            }
            for (rule, justified) in &found {
                if !RULES.contains(&rule.as_str()) {
                    meta.push((
                        i + 1,
                        "unknown-rule",
                        format!(
                            "lint:allow({rule}) names no known rule (known: {})",
                            RULES.join(", ")
                        ),
                    ));
                } else if !justified {
                    meta.push((i + 1, "allow-missing-reason", format!("lint:allow({rule}) needs a justification: `// lint:allow({rule}) -- <why this is sound>`")));
                }
            }
            // A standalone comment line's allows govern the next line;
            // a trailing comment governs its own line.
            let standalone = line.trim_start().starts_with("//");
            if standalone && i + 1 < lines.len() {
                by_line[i + 1].extend(found);
            } else {
                by_line[i].extend(found);
            }
        }
        let meta = meta
            .into_iter()
            .map(|(line, rule, message)| Violation {
                path: String::new(),
                line,
                rule,
                message,
            })
            .collect();
        (Self { by_line }, meta)
    }

    fn allows(&self, line_idx: usize, rule: &str) -> bool {
        self.by_line[line_idx]
            .iter()
            .any(|(r, justified)| r == rule && *justified)
    }
}

/// Lint one file's source text under its workspace-relative `path`.
///
/// The path is *virtual*: rules scope themselves by path prefix, so
/// tests can exercise any rule by picking the right prefix without
/// touching the real tree.
pub fn lint_source(path: &str, content: &str) -> Vec<Violation> {
    let lines: Vec<&str> = content.lines().collect();
    let (allow, meta) = AllowMap::build(&lines);
    let mut out: Vec<Violation> = meta
        .into_iter()
        .map(|mut v| {
            v.path = path.to_string();
            v
        })
        .collect();
    let mut push = |line: usize, rule: &'static str, message: String| {
        out.push(Violation {
            path: path.to_string(),
            line,
            rule,
            message,
        });
    };

    // Token rules: line-oriented, comments skipped, everything after
    // the first `#[cfg(test)]` exempt (test code may use host time,
    // hash maps and narrowing casts freely — it never feeds a golden).
    let mut in_tests = false;
    for (i, line) in lines.iter().enumerate() {
        if line.trim_start().starts_with("#[cfg(test)]") {
            in_tests = true;
        }
        if in_tests || line.trim_start().starts_with("//") {
            continue;
        }
        let code = code_of(line);

        if in_scope(path, HASH_SCOPED)
            && (word_hit(code, "HashMap") || word_hit(code, "HashSet"))
            && !allow.allows(i, "hash-collections")
        {
            push(i + 1, "hash-collections", "hash-ordered collection in a determinism-critical crate: iteration order varies across builds and breaks bit-identical replay; use BTreeMap/BTreeSet or a Vec".into());
        }

        if !in_scope(path, WALL_CLOCK_WHITELIST)
            && (code.contains("Instant::now") || code.contains("SystemTime::now"))
            && !allow.allows(i, "wall-clock")
        {
            push(i + 1, "wall-clock", "host wall-clock read outside the self-profiler/bench whitelist: simulated time must be a pure function of the event stream".into());
        }

        if in_scope(path, CAST_SCOPED)
            && truncating_cast_hit(code)
            && !allow.allows(i, "truncating-cast")
        {
            push(i + 1, "truncating-cast", "bare narrowing `as` cast: silently truncates out-of-range values; use `::try_from(..)` (or widen the other operand)".into());
        }

        if in_scope(path, F32_SCOPED) && word_hit(code, "f32") && !allow.allows(i, "no-f32") {
            push(i + 1, "no-f32", "f32 in a model crate: all model arithmetic is f64; mixed widths change rounding and break golden comparisons".into());
        }
    }

    out
}

/// Directories the workspace walk never descends into.
const SKIP_DIRS: &[&str] = &["target", ".git", "stubs", "lint"];

fn walk(dir: &Path, out: &mut Vec<PathBuf>) {
    let Ok(rd) = std::fs::read_dir(dir) else {
        return;
    };
    let mut entries: Vec<PathBuf> = rd.filter_map(|e| e.ok().map(|e| e.path())).collect();
    entries.sort(); // deterministic report order, independent of readdir order
    for p in entries {
        if p.is_dir() {
            let name = p.file_name().and_then(|n| n.to_str()).unwrap_or("");
            if !SKIP_DIRS.contains(&name) {
                walk(&p, out);
            }
        } else if p.extension().is_some_and(|e| e == "rs") {
            out.push(p);
        }
    }
}

/// Lint every `.rs` file under `root/crates` (minus `crates/lint`
/// itself and `stubs/`), then apply the workspace-level `bench-smoke`
/// rule. Paths in the report are `root`-relative.
pub fn lint_workspace(root: &Path) -> Vec<Violation> {
    let mut files = Vec::new();
    walk(&root.join("crates"), &mut files);
    let mut out = Vec::new();
    for f in &files {
        let Ok(content) = std::fs::read_to_string(f) else {
            continue;
        };
        let rel = f
            .strip_prefix(root)
            .unwrap_or(f)
            .to_string_lossy()
            .replace('\\', "/");
        out.extend(lint_source(&rel, &content));
    }
    out.extend(bench_smoke(root, &files));
    out
}

/// Workspace rule: every bench bin that commits a `BENCH_*.json`
/// artifact must support `--smoke` and be exercised with `--smoke` by
/// CI — otherwise the artifact regenerates only on full runs and rots.
fn bench_smoke(root: &Path, files: &[PathBuf]) -> Vec<Violation> {
    let ci = std::fs::read_to_string(root.join(".github/workflows/ci.yml")).unwrap_or_default();
    let mut out = Vec::new();
    for f in files {
        let rel = f
            .strip_prefix(root)
            .unwrap_or(f)
            .to_string_lossy()
            .replace('\\', "/");
        if !rel.contains("crates/bench/src/bin/") {
            continue;
        }
        let Ok(content) = std::fs::read_to_string(f) else {
            continue;
        };
        if !content.contains("BENCH_") {
            continue;
        }
        if content
            .lines()
            .any(|l| allows_in(l).iter().any(|(r, j)| r == "bench-smoke" && *j))
        {
            continue;
        }
        let stem = f.file_stem().and_then(|s| s.to_str()).unwrap_or("");
        // Comment mentions don't count as support: the flag must appear
        // in code (a `--smoke` match arm or an `args.smoke` branch).
        let has_smoke = content.lines().any(|l| code_of(l).contains("smoke"));
        if !has_smoke {
            out.push(Violation {
                path: rel.clone(),
                line: 1,
                rule: "bench-smoke",
                message: format!("bench bin `{stem}` commits a BENCH_*.json artifact but has no --smoke mode; CI can't exercise it cheaply"),
            });
        }
        let in_ci = ci
            .lines()
            .any(|l| l.contains(&format!("--bin {stem}")) && l.contains("--smoke"));
        if !in_ci {
            out.push(Violation {
                path: rel,
                line: 1,
                rule: "bench-smoke",
                message: format!("bench bin `{stem}` commits a BENCH_*.json artifact but .github/workflows/ci.yml has no `--bin {stem} ... --smoke` step"),
            });
        }
    }
    out
}
