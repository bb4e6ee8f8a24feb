//! Torture tests: the lexer/parser and the rule scanner must be *total*
//! functions of their input — never panic, always terminate, and produce
//! identical diagnostics when run twice over the same text.
//!
//! Three input regimes, in increasing structure:
//!
//! 1. raw byte soup (lossy-decoded to UTF-8),
//! 2. concatenations of adversarial Rust fragments — nested block
//!    comments, raw strings with `#` fences, char literals containing
//!    `"` and `{`, half-open delimiters of every kind,
//! 3. systematically unbalanced comment/raw-string nesting.
//!
//! None of these need to *mean* anything; the scanner's contract is that
//! a file it cannot make sense of yields a deterministic (possibly
//! empty) diagnostic list, not a crash or a hang.

use distscroll_lint::parse::{parse_file, LexState};
use distscroll_lint::rules::scan_parsed;
use distscroll_lint::FileContext;
use proptest::collection::vec;
use proptest::prelude::*;

/// Scan `text` as if it lived at a deterministic-crate path (the
/// strictest context: every rule armed) and render the diagnostics.
fn scan_rendered(text: &str) -> Vec<String> {
    let ctx = FileContext::classify("crates/host/src/torture.rs");
    let parsed = parse_file(text);
    scan_parsed(&parsed, &ctx)
        .iter()
        .map(|d| d.to_string())
        .collect()
}

/// Adversarial source fragments. Individually innocuous; concatenated
/// in random order they produce exactly the half-open comment, fence,
/// and literal states that hand-rolled lexers get wrong.
const FRAGMENTS: &[&str] = &[
    // Block-comment machinery, including pre-nested openers.
    "/*",
    "*/",
    "/* /* nested */ still open",
    "/* lint:allow(wall-clock) inside comment */",
    // Raw strings with 0-2 `#` fences, both halves separately.
    "r\"plain raw\"",
    "r#\"",
    "\"#",
    "r##\"contains \"# but not the fence\"##",
    "let s = r#\"// lint:allow(raw-seq)\"#;",
    // Char literals holding the characters the string lexer keys on.
    "'\"'",
    "'{'",
    "'}'",
    "'\\''",
    "'\\\\'",
    // Lifetimes look like unterminated char literals.
    "fn f<'a>(x: &'a str) {}",
    // Plain strings hiding comment markers.
    "\"// not a comment\"",
    "\"/* not open\"",
    // Tokens the rules key on, so rule code paths run too.
    "let guard = m.lock();",
    "pool.par_map(|x| x);",
    "// lint:allow(wall-clock) torn suppression",
    "let t = std::time::Instant::now();",
    "seq.raw() + 1",
    "let s: Seq16 = x;",
    "#[cfg(test)]",
    "unsafe {",
    // Structure and whitespace.
    "fn torn(",
    "{",
    "}",
    "\n",
    "\t ",
];

/// Assemble a source text from fragment indices and a separator choice.
fn assemble(picks: &[usize], sep: usize, noise: &str) -> String {
    let sep = [" ", "\n", ""][sep % 3];
    let mut parts: Vec<&str> = picks
        .iter()
        .map(|&i| FRAGMENTS[i % FRAGMENTS.len()])
        .collect();
    parts.push(noise);
    parts.join(sep)
}

proptest! {
    // Regime 1: arbitrary bytes. The parser sees whatever
    // `from_utf8_lossy` makes of them and must stay total.
    #[test]
    fn byte_soup_never_panics_and_is_deterministic(
        bytes in vec(any::<u8>(), 0..512),
    ) {
        let text = String::from_utf8_lossy(&bytes).into_owned();
        let first = scan_rendered(&text);
        let second = scan_rendered(&text);
        prop_assert_eq!(first, second);
    }

    // Regime 2: adversarial fragment soup. Exercises every lexer mode
    // transition (line/block comment, string, raw string, char) across
    // random boundaries, plus the rule scanner on top.
    #[test]
    fn fragment_soup_never_panics_and_is_deterministic(
        picks in vec(0usize..30, 0..40),
        sep in 0usize..3,
        noise in "[ -~]{0,16}",
    ) {
        let text = assemble(&picks, sep, &noise);
        let first = scan_rendered(&text);
        let second = scan_rendered(&text);
        prop_assert_eq!(first, second);

        // Structural invariants of the parse itself.
        let parsed = parse_file(&text);
        let n_lines = text.lines().count();
        prop_assert_eq!(parsed.lines.len(), n_lines);
        for b in &parsed.bindings {
            prop_assert!(b.line >= 1 && b.line <= n_lines.max(1));
        }
    }

    // Regime 3: systematically unbalanced nesting. `open` block-comment
    // openers, `close` closers, with a raw string of `fences` hashes
    // wedged in between — the lexer must resolve to *some* state and
    // carry it identically across a re-lex.
    #[test]
    fn unbalanced_nesting_terminates(
        open in 0usize..8,
        close in 0usize..8,
        fences in 0usize..4,
        tail in "[ -~]{0,16}",
    ) {
        let mut text = String::new();
        for _ in 0..open {
            text.push_str("/* ");
        }
        let fence = "#".repeat(fences);
        text.push_str(&format!("r{fence}\"body\"{fence} "));
        for _ in 0..close {
            text.push_str(" */");
        }
        text.push('\n');
        text.push_str(&tail);

        let first = scan_rendered(&text);
        let second = scan_rendered(&text);
        prop_assert_eq!(first, second);

        // The low-level splitter is deterministic too: lexing the same
        // line twice from the same state yields the same split.
        let mut s1 = LexState::default();
        let mut s2 = LexState::default();
        for line in text.lines() {
            let a = s1.split(line);
            let b = s2.split(line);
            prop_assert_eq!(a.code, b.code);
            prop_assert_eq!(a.comment, b.comment);
        }
    }
}
