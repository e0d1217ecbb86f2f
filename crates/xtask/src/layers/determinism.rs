//! L5 — determinism (strict crates plus `significance`/`mapmatch`/`geo`).
//!
//! DESIGN §10 promises byte-identical training/batch/serving output at any
//! thread count. The two classic ways to break that promise silently are
//! (a) iterating a `HashMap`/`HashSet` and letting the nondeterministic
//! order reach an output or merge path, and (b) folding wall-clock time
//! into results. This layer flags:
//!
//! * `.iter()` / `.keys()` / `.values()` / `.drain()` / `for … in` over
//!   bindings or fields declared with a hash-container type in the same
//!   file. Where order is provably irrelevant (per-key merges into ordered
//!   containers, reductions through a total order with full tie-breaks),
//!   mark the line `// lint: ordered — <justification>`; the justification
//!   is mandatory.
//! * `RandomState` — hash-seeded iteration order has no place in
//!   determinism-critical crates; no escape hatch.
//! * `Instant::now` / `SystemTime::now` — wall-clock reads outside the
//!   `obs` crate need `// lint: wallclock — <justification>` (sanctioned
//!   use: measuring a span duration that is *recorded* but never folded
//!   into results).
//!
//! Scope: declaration tracking is per-file and name-based — a lexer cannot
//! do type inference. That overshoots on rare shadowing and undershoots on
//! cross-file fields; both are acceptable for a lint whose escape hatch
//! carries the proof obligation.

use super::{severity_for, FileCtx, Finding, Level};
use crate::lexer::TokKind;
use std::collections::BTreeSet;

/// Non-strict crates that still carry the determinism contract: HITS
/// significance feeds summary scores, map-matching feeds calibration.
const EXTRA_CRATES: &[&str] = &["significance", "mapmatch", "geo"];

/// Crates where L5 applies at the crate's own severity.
pub fn applies(crate_key: &str, level: Level) -> bool {
    level == Level::Strict || level == Level::Report || EXTRA_CRATES.contains(&crate_key)
}

const HASH_TYPES: &[&str] = &["HashMap", "HashSet"];
const ITER_METHODS: &[&str] = &[
    "iter",
    "iter_mut",
    "keys",
    "values",
    "values_mut",
    "into_iter",
    "into_keys",
    "into_values",
    "drain",
    "retain",
];

pub fn scan(ctx: &FileCtx<'_>) -> Vec<Finding> {
    let mut findings = Vec::new();
    if !applies(ctx.crate_key, ctx.level) {
        return findings;
    }
    let severity = severity_for(ctx.level);
    let hash_names = hash_bindings(ctx);
    let mut push = |rule_line: usize, message: String| {
        findings.push(Finding {
            severity,
            rule: "L5",
            path: ctx.rel.to_string(),
            line: rule_line,
            message,
        });
    };

    for ci in 0..ctx.code.len() {
        let line = ctx.line(ci);
        if ctx.in_test(line) || ctx.kind(ci) != TokKind::Ident {
            continue;
        }
        match ctx.text(ci) {
            // (a) `name.iter()` etc. where `name` is hash-declared.
            m if ITER_METHODS.contains(&m)
                && ci >= 2
                && ctx.is_punct(ci - 1, ".")
                && ctx.is_punct(ci + 1, "(")
                && ctx.kind(ci - 2) == TokKind::Ident
                && hash_names.contains(ctx.text(ci - 2)) =>
            {
                if !ctx.has_justified_marker(line, "lint: ordered") {
                    push(
                        line,
                        format!(
                            "`{}.{m}()` iterates a hash container; order can leak into \
                             output/merge paths — use an ordered container or justify with \
                             `// lint: ordered — <why order is irrelevant>`",
                            ctx.text(ci - 2)
                        ),
                    );
                }
            }
            // (a') `for pat in expr {` where expr mentions a hash binding.
            "for" => {
                let Some(in_ci) = find_for_in(ctx, ci) else { continue };
                let mut j = in_ci + 1;
                let mut depth = 0i32;
                let mut culprit: Option<&str> = None;
                while j < ctx.code.len() {
                    if ctx.kind(j) == TokKind::Punct {
                        match ctx.text(j) {
                            "(" | "[" => depth += 1,
                            ")" | "]" => depth -= 1,
                            "{" if depth == 0 => break,
                            _ => {}
                        }
                    } else if ctx.kind(j) == TokKind::Ident && hash_names.contains(ctx.text(j)) {
                        // A later `.method()` on the binding is handled by
                        // rule (a); only flag the bare `for x in &map` form
                        // where no iter-method token follows the name.
                        let followed_by_call = ctx.is_punct(j + 1, ".")
                            && j + 2 < ctx.code.len()
                            && ITER_METHODS.contains(&ctx.text(j + 2));
                        if !followed_by_call {
                            culprit = Some(ctx.text(j));
                        }
                    }
                    j += 1;
                }
                if let Some(name) = culprit {
                    if !ctx.has_justified_marker(line, "lint: ordered") {
                        push(
                            line,
                            format!(
                                "`for … in` over hash container `{name}`; order can leak into \
                                 output/merge paths — use an ordered container or justify with \
                                 `// lint: ordered — <why order is irrelevant>`"
                            ),
                        );
                    }
                }
            }
            // (b) RandomState — hard error, no marker.
            "RandomState" => {
                push(
                    line,
                    "`RandomState` (seeded hash order) in a determinism-critical crate; \
                     use an ordered container"
                        .to_string(),
                );
            }
            // (c) wall-clock reads.
            t @ ("Instant" | "SystemTime")
                if ctx.crate_key != "obs"
                    && ctx.is_punct(ci + 1, ":")
                    && ctx.is_punct(ci + 2, ":")
                    && ctx.is_ident(ci + 3, "now") =>
            {
                if !ctx.has_justified_marker(line, "lint: wallclock") {
                    push(
                        line,
                        format!(
                            "`{t}::now()` in a determinism-critical crate; time must never \
                             reach results — record via obs or justify with \
                             `// lint: wallclock — <why time stays out of outputs>`"
                        ),
                    );
                }
            }
            _ => {}
        }
    }
    findings
}

/// Identifiers declared in this file with a hash-container type: struct
/// fields / params / lets with a `name: HashMap<…>` annotation, and
/// `let name = HashMap::new()`-style initializers.
fn hash_bindings<'a>(ctx: &FileCtx<'a>) -> BTreeSet<&'a str> {
    let mut names = BTreeSet::new();
    for ci in 0..ctx.code.len() {
        if ctx.kind(ci) != TokKind::Ident {
            continue;
        }
        // `name : … HashMap …` up to a depth-0 terminator.
        if ctx.is_punct(ci + 1, ":")
            && !ctx.is_punct(ci + 2, ":")
            && !(ci >= 1 && ctx.is_punct(ci - 1, ":"))
        {
            let mut angle = 0i32;
            let mut paren = 0i32;
            let mut j = ci + 2;
            while j < ctx.code.len() {
                match (ctx.kind(j), ctx.text(j)) {
                    (TokKind::Punct, "<") => angle += 1,
                    (TokKind::Punct, ">") => angle -= 1,
                    (TokKind::Punct, "(" | "[" | "{") => paren += 1,
                    (TokKind::Punct, ")" | "]" | "}") if paren > 0 => paren -= 1,
                    (TokKind::Punct, ")" | "]" | "}" | ";" | "=" | ",") => break,
                    (TokKind::Ident, t) if HASH_TYPES.contains(&t) => {
                        names.insert(ctx.text(ci));
                        break;
                    }
                    _ => {}
                }
                if angle < 0 {
                    break;
                }
                j += 1;
            }
        }
        // `let [mut] name = HashMap::new()` / `HashSet::with_capacity(…)`.
        if ctx.is_ident(ci, "let") {
            let name_ci = if ctx.is_ident(ci + 1, "mut") { ci + 2 } else { ci + 1 };
            if name_ci + 1 < ctx.code.len()
                && ctx.kind(name_ci) == TokKind::Ident
                && ctx.is_punct(name_ci + 1, "=")
                && name_ci + 2 < ctx.code.len()
                && HASH_TYPES.contains(&ctx.text(name_ci + 2))
            {
                names.insert(ctx.text(name_ci));
            }
        }
    }
    names
}

/// The code index of the `in` keyword of a `for` loop header at `ci`.
fn find_for_in(ctx: &FileCtx<'_>, for_ci: usize) -> Option<usize> {
    let mut depth = 0i32;
    for j in for_ci + 1..ctx.code.len().min(for_ci + 64) {
        match (ctx.kind(j), ctx.text(j)) {
            (TokKind::Punct, "(" | "[") => depth += 1,
            (TokKind::Punct, ")" | "]") => depth -= 1,
            (TokKind::Punct, "{") => return None, // `for` without `in` (macro?)
            (TokKind::Ident, "in") if depth == 0 => return Some(j),
            _ => {}
        }
    }
    None
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::lexer::lex;

    fn run_in(crate_key: &'static str, level: Level, src: &str) -> Vec<Finding> {
        let lx = lex(src);
        let ctx = FileCtx::new(crate_key, "crates/x/src/lib.rs", &lx, level, false);
        scan(&ctx)
    }

    fn run(src: &str) -> Vec<Finding> {
        run_in("core", Level::Strict, src)
    }

    #[test]
    fn flags_iter_over_declared_hashmap() {
        let src = "use std::collections::HashMap;\npub fn f(m: &HashMap<u32, u32>) -> u32 {\n    m.iter().map(|(_, v)| *v).sum()\n}\n";
        let f = run(src);
        assert_eq!(f.len(), 1, "{f:?}");
        assert_eq!(f[0].rule, "L5");
        assert_eq!(f[0].line, 3);
    }

    #[test]
    fn flags_for_in_over_hash_field() {
        let src = "use std::collections::HashMap;\nstruct P { pairs: HashMap<u32, u32> }\npub fn f(p: &P) -> u32 {\n    let mut s = 0;\n    for (_, v) in &p.pairs {\n        s += v;\n    }\n    s\n}\n";
        let f = run(src);
        assert_eq!(f.len(), 1, "{f:?}");
        assert_eq!(f[0].line, 5);
    }

    #[test]
    fn flags_keys_values_drain_and_let_initializer_bindings() {
        let src = "use std::collections::{HashMap, HashSet};\npub fn f() -> usize {\n    let mut m = HashMap::new();\n    m.insert(1u32, 2u32);\n    let s: HashSet<u32> = HashSet::new();\n    m.keys().count() + m.values().count() + s.iter().count()\n}\n";
        let f = run(src);
        assert_eq!(f.len(), 3, "{f:?}");
    }

    #[test]
    fn ordered_marker_with_justification_suppresses() {
        let src = "use std::collections::HashMap;\npub fn f(m: &HashMap<u32, u32>) -> u32 {\n    // lint: ordered — per-key sum is commutative\n    m.values().sum()\n}\n";
        assert!(run(src).is_empty());
        // A bare marker without justification does not.
        let bare = "use std::collections::HashMap;\npub fn f(m: &HashMap<u32, u32>) -> u32 {\n    // lint: ordered\n    m.values().sum()\n}\n";
        assert_eq!(run(bare).len(), 1);
    }

    #[test]
    fn btreemap_iteration_is_fine_and_probes_are_fine() {
        let src = "use std::collections::{BTreeMap, HashMap};\npub fn f(b: &BTreeMap<u32, u32>, h: &HashMap<u32, u32>) -> u32 {\n    let probe = h.get(&1).copied().unwrap_or(0);\n    b.iter().map(|(_, v)| *v).sum::<u32>() + probe\n}\n";
        assert!(run(src).is_empty(), "probing and ordered iteration must pass");
    }

    #[test]
    fn random_state_is_flagged_without_escape() {
        let src = "use std::collections::hash_map::RandomState;\npub fn f() { let _s = RandomState::new(); }\n";
        let f = run(src);
        assert!(!f.is_empty(), "{f:?}");
        assert!(f[0].message.contains("RandomState"));
    }

    #[test]
    fn wallclock_needs_justified_marker() {
        let src = "use std::time::Instant;\npub fn f() -> u64 {\n    let t = Instant::now();\n    t.elapsed().as_nanos() as u64\n}\n";
        let f = run(src);
        assert_eq!(f.len(), 1, "{f:?}");
        let ok = "use std::time::Instant;\npub fn f() -> std::time::Duration {\n    // lint: wallclock — duration is recorded via obs, never folded into results\n    let t = Instant::now();\n    t.elapsed()\n}\n";
        assert!(run_in("core", Level::Strict, ok).is_empty());
    }

    #[test]
    fn scope_is_strict_plus_extra_crates() {
        let src = "use std::collections::HashMap;\npub fn f(m: &HashMap<u32, u32>) -> u32 { m.values().sum() }\n";
        assert_eq!(run_in("significance", Level::Workspace, src).len(), 1);
        assert_eq!(run_in("mapmatch", Level::Workspace, src).len(), 1);
        assert!(
            run_in("textmine", Level::Workspace, src).is_empty(),
            "plain workspace crates skip L5"
        );
        let report = run_in("eval", Level::Report, src);
        assert_eq!(report.len(), 1);
        assert_eq!(report[0].severity, crate::layers::Severity::Warning);
    }

    #[test]
    fn cfg_test_code_is_exempt() {
        let src = "#[cfg(test)]\nmod tests {\n    use std::collections::HashMap;\n    fn t(m: &HashMap<u32, u32>) -> u32 { m.values().sum() }\n}\n";
        assert!(run(src).is_empty());
    }
}
