//! The lint layer catalog (L1–L7) and the per-file context they share.
//!
//! Each layer is a function from a [`FileCtx`] (or, for the cross-file L4,
//! a slice of them) to findings. Layers match over *code tokens* produced
//! by [`crate::lexer`]; markers (`// nan-ok:`, `// cast-ok:`,
//! `// lint: ordered — …`, `// lint: wallclock — …`, `// lint: lock-ok — …`)
//! are looked up in *comment tokens* only, so a marker spelled inside a
//! string literal can never suppress a finding. See DESIGN.md §13 for the
//! catalog and semantics.

pub mod casts;
pub mod determinism;
pub mod errors;
pub mod locks;
pub mod nan;
pub mod obs_names;
pub mod panics;

use crate::lexer::{Lexed, Tok, TokKind};
use std::fmt;

/// How findings in a crate are reported.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Level {
    /// All rules, all errors (the paper-critical crates).
    Strict,
    /// L1 + L4 + L7 as errors; L2/L3/L5/L6 not applied (supporting crates).
    Workspace,
    /// All rules, downgraded to warnings (eval/xtask/suite/examples).
    Report,
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Severity {
    Error,
    Warning,
}

#[derive(Debug, Clone)]
pub struct Finding {
    pub severity: Severity,
    pub rule: &'static str,
    pub path: String,
    pub line: usize,
    pub message: String,
}

impl fmt::Display for Finding {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let sev = match self.severity {
            Severity::Error => "error",
            Severity::Warning => "warning",
        };
        write!(f, "{sev}[{}]: {}:{}: {}", self.rule, self.path, self.line, self.message)
    }
}

/// Everything the layers need to know about one source file.
pub struct FileCtx<'a> {
    /// Crate key (`core`, `routes`, …; `__root__` / `__examples__` /
    /// `__experiments__` for the synthetic groups).
    pub crate_key: &'a str,
    /// Workspace-relative path with `/` separators.
    pub rel: &'a str,
    /// The tokenized source.
    pub lx: &'a Lexed<'a>,
    /// Indices into `lx.toks` of code (non-comment) tokens.
    pub code: Vec<usize>,
    /// 1-based line → line belongs to a `#[cfg(test)]` item.
    pub is_test: Vec<bool>,
    /// 1-based line → concatenated comment text on that line.
    pub comments: Vec<String>,
    /// 1-based line → original line text with comments blanked (what
    /// allowlist needles match against).
    pub code_lines: Vec<String>,
    pub level: Level,
    /// Whether the file is on the L3 DP hot-path list.
    pub hot: bool,
}

impl<'a> FileCtx<'a> {
    pub fn new(
        crate_key: &'a str,
        rel: &'a str,
        lx: &'a Lexed<'a>,
        level: Level,
        hot: bool,
    ) -> Self {
        let code: Vec<usize> = (0..lx.toks.len()).filter(|&i| lx.toks[i].kind.is_code()).collect();
        let n_lines = lx.line_count();
        let mut comments = vec![String::new(); n_lines + 2];
        let mut code_src = lx.src.as_bytes().to_vec();
        for t in &lx.toks {
            if t.kind.is_code() {
                continue;
            }
            // Attribute each physical line of the comment to its own slot
            // so markers inside multi-line block comments resolve, and
            // blank the comment out of the code-line text.
            for (k, piece) in lx.src[t.start..t.end].split('\n').enumerate() {
                if let Some(slot) = comments.get_mut(t.line + k) {
                    if !slot.is_empty() {
                        slot.push(' ');
                    }
                    slot.push_str(piece);
                }
            }
            for byte in code_src.iter_mut().take(t.end).skip(t.start) {
                if *byte != b'\n' {
                    *byte = b' ';
                }
            }
        }
        let code_text = String::from_utf8_lossy(&code_src).into_owned();
        let mut code_lines: Vec<String> = code_text.lines().map(str::to_string).collect();
        code_lines.insert(0, String::new()); // 1-based indexing
        let is_test = test_line_mask(lx, &code);
        Self { crate_key, rel, lx, code, is_test, comments, code_lines, level, hot }
    }

    /// The token behind code index `ci`.
    pub fn tok(&self, ci: usize) -> Tok {
        self.lx.toks[self.code[ci]]
    }

    /// Source text of code token `ci`.
    pub fn text(&self, ci: usize) -> &'a str {
        self.lx.text(self.code[ci])
    }

    pub fn kind(&self, ci: usize) -> TokKind {
        self.tok(ci).kind
    }

    pub fn line(&self, ci: usize) -> usize {
        self.tok(ci).line
    }

    /// Whether code token `ci` is an identifier with this exact text.
    pub fn is_ident(&self, ci: usize, word: &str) -> bool {
        ci < self.code.len() && self.kind(ci) == TokKind::Ident && self.text(ci) == word
    }

    /// Whether code token `ci` is this exact punctuation.
    pub fn is_punct(&self, ci: usize, p: &str) -> bool {
        ci < self.code.len() && self.kind(ci) == TokKind::Punct && self.text(ci) == p
    }

    pub fn in_test(&self, line: usize) -> bool {
        self.is_test.get(line).copied().unwrap_or(false)
    }

    /// Code index of the `)` matching the `(` at code index `open`.
    pub fn close_paren(&self, open: usize) -> Option<usize> {
        let mut depth = 0usize;
        for ci in open..self.code.len() {
            if self.is_punct(ci, "(") {
                depth += 1;
            } else if self.is_punct(ci, ")") {
                depth -= 1;
                if depth == 0 {
                    return Some(ci);
                }
            }
        }
        None
    }

    /// Whether `line` (or the line above) carries `marker` in a comment.
    /// Markers in strings/code never match — comments only.
    pub fn has_marker(&self, line: usize, marker: &str) -> bool {
        self.comment_on(line).contains(marker)
            || (line > 1 && self.comment_on(line - 1).contains(marker))
    }

    /// Whether `line` (or the line above) carries `marker` followed by a
    /// non-empty justification (separators `—`, `-`, `:` are skipped).
    pub fn has_justified_marker(&self, line: usize, marker: &str) -> bool {
        let justified = |text: &str| {
            text.find(marker).is_some_and(|at| {
                let rest = text[at + marker.len()..]
                    .trim_start_matches([' ', '\t', '—', '-', ':', '–'])
                    .trim();
                !rest.is_empty()
            })
        };
        justified(self.comment_on(line)) || (line > 1 && justified(self.comment_on(line - 1)))
    }

    fn comment_on(&self, line: usize) -> &str {
        self.comments.get(line).map_or("", String::as_str)
    }

    /// The comment-stripped text of `line` (for allowlist needle matching).
    pub fn code_line(&self, line: usize) -> &str {
        self.code_lines.get(line).map_or("", String::as_str)
    }
}

/// Finding severity for a crate level.
pub fn severity_for(level: Level) -> Severity {
    match level {
        Level::Report => Severity::Warning,
        _ => Severity::Error,
    }
}

/// Marks every line belonging to a `#[cfg(test)]` item (attribute line
/// through the item's closing brace or trailing semicolon). Token-based:
/// braces inside strings or comments can no longer confuse the matcher.
fn test_line_mask(lx: &Lexed<'_>, code: &[usize]) -> Vec<bool> {
    let mut is_test = vec![false; lx.line_count() + 2];
    let tokens_match = |ci: usize, pat: &[&str]| -> bool {
        pat.iter()
            .enumerate()
            .all(|(k, want)| code.get(ci + k).is_some_and(|&ti| lx.text(ti) == *want))
    };
    let mut ci = 0usize;
    while ci < code.len() {
        if !tokens_match(ci, &["#", "[", "cfg", "(", "test", ")", "]"]) {
            ci += 1;
            continue;
        }
        let attr_line = lx.toks[code[ci]].line;
        // Find the item's body: first `{` or `;` after the attribute.
        let mut j = ci + 7;
        while j < code.len() {
            let t = lx.toks[code[j]];
            if t.kind == TokKind::Punct {
                let s = lx.text(code[j]);
                if s == "{" || s == ";" {
                    break;
                }
            }
            j += 1;
        }
        let end = if j < code.len() && lx.text(code[j]) == "{" {
            let mut depth = 0usize;
            let mut k = j;
            loop {
                if k >= code.len() {
                    break k.saturating_sub(1);
                }
                let s = lx.text(code[k]);
                if lx.toks[code[k]].kind == TokKind::Punct {
                    if s == "{" {
                        depth += 1;
                    } else if s == "}" {
                        depth -= 1;
                        if depth == 0 {
                            break k;
                        }
                    }
                }
                k += 1;
            }
        } else {
            j.min(code.len().saturating_sub(1))
        };
        let last_line = code.get(end).map_or(attr_line, |&ti| lx.toks[ti].line);
        for line in attr_line..=last_line {
            if line < is_test.len() {
                is_test[line] = true;
            }
        }
        ci = end.max(ci) + 1;
    }
    is_test
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::lexer::lex;

    fn ctx<'a>(lx: &'a Lexed<'a>) -> FileCtx<'a> {
        FileCtx::new("demo", "crates/demo/src/lib.rs", lx, Level::Strict, false)
    }

    #[test]
    fn cfg_test_mod_lines_are_masked() {
        let src = "pub fn ok() {}\n#[cfg(test)]\nmod tests {\n    fn t() { panic!(\"x\") }\n}\npub fn after() {}\n";
        let lx = lex(src);
        let c = ctx(&lx);
        assert!(!c.in_test(1));
        assert!(c.in_test(2));
        assert!(c.in_test(4));
        assert!(c.in_test(5));
        assert!(!c.in_test(6));
    }

    #[test]
    fn braces_in_strings_do_not_break_test_mask() {
        let src = "#[cfg(test)]\nmod tests {\n    const S: &str = \"}}}\";\n    fn t() {}\n}\npub fn after() { let _ = 1; }\n";
        let lx = lex(src);
        let c = ctx(&lx);
        assert!(c.in_test(4), "string braces must not close the mod early");
        assert!(!c.in_test(6));
    }

    #[test]
    fn markers_in_strings_never_match() {
        let src = "fn f() {\n    let s = \"// nan-ok: not a real marker\";\n    let _ = s;\n}\n";
        let lx = lex(src);
        let c = ctx(&lx);
        assert!(!c.has_marker(2, "nan-ok:"), "marker inside a string literal must not count");
        assert!(!c.has_marker(3, "nan-ok:"));
    }

    #[test]
    fn markers_in_comments_match_same_and_previous_line() {
        let src = "fn f() {\n    // nan-ok: validated finite\n    let _ = 1;\n}\n";
        let lx = lex(src);
        let c = ctx(&lx);
        assert!(c.has_marker(2, "nan-ok:"));
        assert!(c.has_marker(3, "nan-ok:"));
        assert!(!c.has_marker(4, "nan-ok:"));
    }

    #[test]
    fn justified_marker_requires_text_after_separator() {
        let src = "fn f() {\n    // lint: ordered\n    let _ = 1;\n    // lint: ordered — per-key merge is commutative\n    let _ = 2;\n}\n";
        let lx = lex(src);
        let c = ctx(&lx);
        assert!(!c.has_justified_marker(3, "lint: ordered"), "bare marker has no justification");
        assert!(c.has_justified_marker(5, "lint: ordered"));
    }

    #[test]
    fn code_line_strips_comments_but_keeps_strings() {
        let src = "fn f() {\n    g(\"needle\"); // trailing comment with needle2\n}\n";
        let lx = lex(src);
        let c = ctx(&lx);
        assert!(c.code_line(2).contains("needle"));
        assert!(!c.code_line(2).contains("needle2"));
    }

    #[test]
    fn multiline_block_comment_markers_resolve_per_line() {
        let src = "fn f() {\n    /* spanning\n       cast-ok: inner line */\n    let _ = 1;\n}\n";
        let lx = lex(src);
        let c = ctx(&lx);
        assert!(c.has_marker(3, "cast-ok:"));
        assert!(c.has_marker(4, "cast-ok:"), "previous-line lookup sees the block tail");
    }
}
