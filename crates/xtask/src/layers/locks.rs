//! L6 — lock discipline (`exec` / `core` / `obs` / `geo` / `server`).
//!
//! The route memo's contract is that values are computed *outside* its
//! lock (`get_or_insert_with` drops the guard before calling the closure),
//! and the executor/obs layers hold their mutexes for O(1) critical
//! sections. Three shapes break that discipline, all detectable
//! statement-locally:
//!
//! * **nested-lock** — two `.lock(` / `::lock(` acquisitions in one
//!   statement: lock-order inversion risk, and the inner acquisition runs
//!   under the outer guard.
//! * **guard-across-closure** — a lock acquired and then a
//!   closure-taking method (`or_insert_with`, `unwrap_or_else`, …) called
//!   later in the same statement: the closure (arbitrary user code) runs
//!   while the guard is held.
//! * **guard-across-exit** — a `let` statement that acquires a lock and
//!   also contains `?` / `return`: the guard (or a `PoisonError` carrying
//!   it) crosses an early exit.
//!
//! Escape hatch: `// lint: lock-ok — <justification>`. A statement is the
//! token run between `;`, `{`, or `}` — coarse, but locks in these crates
//! are all helper-mediated one-liners, and the coarseness only ever
//! over-flags (the marker carries the proof).

use super::{severity_for, FileCtx, Finding, Level};
use crate::lexer::TokKind;

/// Crates subject to L6 (all hold or wrap locks, except `geo`, which is
/// kept in the lane so a lock can never creep into the hot spatial index).
const LOCK_CRATES: &[&str] = &["exec", "core", "obs", "geo", "server"];

/// Methods that take a closure and run it inline on the receiver chain.
const CLOSURE_TAKERS: &[&str] =
    &["or_insert_with", "get_or_insert_with", "unwrap_or_else", "or_else", "map_or_else"];

pub fn applies(crate_key: &str, level: Level) -> bool {
    LOCK_CRATES.contains(&crate_key) || level == Level::Report
}

pub fn scan(ctx: &FileCtx<'_>) -> Vec<Finding> {
    let mut findings = Vec::new();
    if !applies(ctx.crate_key, ctx.level) {
        return findings;
    }
    let severity = severity_for(ctx.level);

    // Statement boundaries: token runs split on `;` / `{` / `}`.
    let mut stmt_start = 0usize;
    for ci in 0..=ctx.code.len() {
        let is_boundary = ci == ctx.code.len()
            || (ctx.kind(ci) == TokKind::Punct && matches!(ctx.text(ci), ";" | "{" | "}"));
        if !is_boundary {
            continue;
        }
        let stmt = stmt_start..ci;
        stmt_start = ci + 1;
        if stmt.is_empty() {
            continue;
        }

        // Lock-call positions within the statement.
        let locks: Vec<usize> = stmt
            .clone()
            .filter(|&j| {
                ctx.is_ident(j, "lock")
                    && ctx.is_punct(j + 1, "(")
                    && j >= 1
                    && (ctx.is_punct(j - 1, ".")
                        || (j >= 2 && ctx.is_punct(j - 1, ":") && ctx.is_punct(j - 2, ":")))
            })
            .collect();
        let Some(&first_lock) = locks.first() else { continue };
        let line = ctx.line(first_lock);
        if ctx.in_test(line) {
            continue;
        }
        let mut push = |at: usize, what: &str, detail: String| {
            let l = ctx.line(at);
            if !ctx.has_justified_marker(l, "lint: lock-ok") {
                findings.push(Finding {
                    severity,
                    rule: "L6",
                    path: ctx.rel.to_string(),
                    line: l,
                    message: format!("{what}: {detail} — restructure, or justify with `// lint: lock-ok — <reason>`"),
                });
            }
        };

        if locks.len() > 1 {
            push(
                locks[1],
                "nested lock acquisition",
                format!("{} lock calls in one statement", locks.len()),
            );
        }
        // Closure-takers applied directly to a lock call's result
        // (`lock().unwrap_or_else(|e| e.into_inner())`) are the sanctioned
        // poison-absorbing idiom: the closure handles the lock `Result`,
        // it does not run user code under the guard. Anything later in the
        // chain does.
        let absorbers: Vec<usize> =
            locks.iter().filter_map(|&l| ctx.close_paren(l + 1).map(|close| close + 2)).collect();
        if let Some(taker) = (first_lock + 1..stmt.end).find(|&j| {
            ctx.kind(j) == TokKind::Ident
                && CLOSURE_TAKERS.contains(&ctx.text(j))
                && ctx.is_punct(j + 1, "(")
                && !absorbers.contains(&j)
        }) {
            push(
                taker,
                "lock guard held across a closure argument",
                format!("`{}` runs its closure while the guard is live", ctx.text(taker)),
            );
        }
        let is_let = stmt.clone().next().is_some_and(|j| ctx.is_ident(j, "let"));
        if is_let {
            if let Some(exit) = (first_lock + 1..stmt.end)
                .find(|&j| ctx.is_punct(j, "?") || ctx.is_ident(j, "return"))
            {
                push(
                    exit,
                    "lock guard bound across an early exit",
                    "`?`/`return` in a `let` statement that acquires a lock".to_string(),
                );
            }
        }
    }
    findings
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::lexer::lex;

    fn run(src: &str) -> Vec<Finding> {
        let lx = lex(src);
        let ctx = FileCtx::new("core", "crates/core/src/route_memo.rs", &lx, Level::Strict, false);
        scan(&ctx)
    }

    #[test]
    fn flags_nested_lock_in_one_statement() {
        let src = "pub fn f(a: &std::sync::Mutex<u32>, b: &std::sync::Mutex<u32>) -> u32 {\n    *a.lock().unwrap_or_else(|e| e.into_inner()) + *b.lock().unwrap_or_else(|e| e.into_inner())\n}\n";
        let f = run(src);
        assert!(f.iter().any(|f| f.message.contains("nested lock")), "{f:?}");
    }

    #[test]
    fn flags_guard_across_closure_taker() {
        let src = "pub fn f(m: &std::sync::Mutex<std::collections::BTreeMap<u32, u32>>) -> u32 {\n    *m.lock().unwrap().entry(1).or_insert_with(|| expensive())\n}\nfn expensive() -> u32 { 9 }\n";
        let f = run(src);
        assert!(f.iter().any(|f| f.message.contains("closure")), "{f:?}");
    }

    #[test]
    fn flags_guard_bound_across_question_mark() {
        let src = "pub fn f(m: &std::sync::Mutex<u32>) -> Result<u32, Box<dyn std::error::Error + '_>> {\n    let g = m.lock()?;\n    Ok(*g)\n}\n";
        let f = run(src);
        assert!(f.iter().any(|f| f.message.contains("early exit")), "{f:?}");
    }

    #[test]
    fn single_helper_mediated_lock_is_fine() {
        // The route-memo idiom: poison-absorbing helper, one lock per statement,
        // value computed outside the guard.
        let src = "use std::sync::{Mutex, MutexGuard};\nfn lock<T>(m: &Mutex<T>) -> MutexGuard<'_, T> {\n    match m.lock() {\n        Ok(g) => g,\n        Err(p) => p.into_inner(),\n    }\n}\npub fn get(m: &Mutex<u32>) -> u32 {\n    *lock(m)\n}\n";
        assert!(run(src).is_empty(), "the sanctioned idiom must not fire");
    }

    #[test]
    fn closure_before_lock_is_fine() {
        // `.map(|s| lock(s).len())` — the lock lives *inside* the closure;
        // only lock-then-closure-taker fires.
        let src = "use std::sync::Mutex;\npub fn total(shards: &[Mutex<Vec<u32>>]) -> usize {\n    shards.iter().map(|s| s.lock().unwrap_or_else(|e| e.into_inner()).len()).sum()\n}\n";
        let f = run(src);
        assert!(
            !f.iter().any(|f| f.message.contains("closure")),
            "lock inside a closure is not a guard-across-closure: {f:?}"
        );
    }

    #[test]
    fn lock_ok_marker_with_justification_suppresses() {
        let src = "pub fn f(a: &std::sync::Mutex<u32>, b: &std::sync::Mutex<u32>) -> u32 {\n    // lint: lock-ok — fixed a-then-b order, documented in the module header\n    *a.lock().unwrap_or_else(|e| e.into_inner()) + *b.lock().unwrap_or_else(|e| e.into_inner())\n}\n";
        assert!(run(src).is_empty());
    }

    #[test]
    fn non_lock_crates_are_skipped() {
        let src = "pub fn f(m: &std::sync::Mutex<u32>, n: &std::sync::Mutex<u32>) -> u32 { *m.lock().unwrap() + *n.lock().unwrap() }\n";
        let lx = lex(src);
        let ctx = FileCtx::new("poi", "crates/poi/src/lib.rs", &lx, Level::Workspace, false);
        assert!(scan(&ctx).is_empty());
    }
}
