//! The semantic layer under the rules: a lexer that strips comments
//! and string literals, and a brace-aware parser that recovers enough
//! structure — `#[cfg(test)]` regions and `let`-binding lifetimes
//! inside function bodies — for flow-aware rules to reason about code
//! that spans lines.
//!
//! This is deliberately *not* a Rust grammar. It is a single forward
//! pass that tracks brace depth and never backtracks, so it is fast,
//! dependency-free, total (any byte sequence parses to *something*),
//! and deterministic: parsing the same text twice yields the same
//! [`ParsedFile`], a property the torture tests pin down. Where the
//! grammar is ambiguous to a scanner (closures, `let` inside macro
//! arms) the parser errs toward recording *less* structure, because
//! every downstream rule treats missing structure as "no finding".
//!
//! The lexer improves on the PR 3 line scanner in one semantic way:
//! block comments nest, as they do in Rust, so `/* outer /* inner */
//! still comment */` never leaks tokens into code.

/// One physical line split into its code and comment parts by the
/// lexer. String-literal *contents* are blanked out of `code` so rule
/// patterns never match inside text.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SplitLine {
    /// The line with comments removed and string contents blanked.
    pub code: String,
    /// Concatenated comment text on the line (line + block comments).
    pub comment: String,
}

/// Character-level lexer state carried across lines: nested block
/// comments and (raw) string literals.
#[derive(Default)]
pub struct LexState {
    /// How many `/*` are open; block comments nest in Rust.
    block_comment_depth: usize,
    /// `Some(hashes)` inside a (raw) string literal; `hashes` is the
    /// `#` count of a raw string, 0 for a normal `"…"` literal.
    in_string: Option<usize>,
}

impl LexState {
    /// Splits one physical line, updating the cross-line state.
    pub fn split(&mut self, line: &str) -> SplitLine {
        let mut code = String::with_capacity(line.len());
        let mut comment = String::new();
        let chars: Vec<char> = line.chars().collect();
        let mut i = 0;
        while i < chars.len() {
            if self.block_comment_depth > 0 {
                if chars[i] == '*' && chars.get(i + 1) == Some(&'/') {
                    self.block_comment_depth -= 1;
                    i += 2;
                } else if chars[i] == '/' && chars.get(i + 1) == Some(&'*') {
                    self.block_comment_depth += 1;
                    comment.push_str("/*");
                    i += 2;
                } else {
                    comment.push(chars[i]);
                    i += 1;
                }
                continue;
            }
            if let Some(hashes) = self.in_string {
                // Inside a string literal: blank the contents so code
                // patterns never match inside text.
                if chars[i] == '\\' && hashes == 0 {
                    i += 2; // skip the escaped character
                    continue;
                }
                if chars[i] == '"' {
                    let closes = (1..=hashes).all(|k| chars.get(i + k) == Some(&'#'));
                    if closes {
                        self.in_string = None;
                        code.push('"');
                        i += 1 + hashes;
                        continue;
                    }
                }
                i += 1;
                continue;
            }
            match chars[i] {
                '/' if chars.get(i + 1) == Some(&'/') => {
                    comment.push_str(&chars[i + 2..].iter().collect::<String>());
                    break;
                }
                '/' if chars.get(i + 1) == Some(&'*') => {
                    self.block_comment_depth = 1;
                    i += 2;
                }
                '"' => {
                    code.push('"');
                    self.in_string = Some(0);
                    i += 1;
                }
                'r' if chars.get(i + 1) == Some(&'"')
                    || (chars.get(i + 1) == Some(&'#')
                        && matches!(chars.get(i + 2), Some(&'#') | Some(&'"'))) =>
                {
                    // Raw string: r"…" or r#"…"# (any hash depth).
                    let mut hashes = 0;
                    let mut j = i + 1;
                    while chars.get(j) == Some(&'#') {
                        hashes += 1;
                        j += 1;
                    }
                    if chars.get(j) == Some(&'"') {
                        code.push('"');
                        self.in_string = Some(hashes);
                        i = j + 1;
                    } else {
                        code.push(chars[i]);
                        i += 1;
                    }
                }
                '\'' => {
                    // Char literal or lifetime. A char literal closes
                    // within a few characters ('x', '\n', '\u{..}');
                    // a lifetime has no closing quote before a
                    // non-ident char — pass it through unchanged.
                    if let Some(close) = close_of_char_literal(&chars, i) {
                        code.push('\'');
                        i = close + 1;
                    } else {
                        code.push('\'');
                        i += 1;
                    }
                }
                c => {
                    code.push(c);
                    i += 1;
                }
            }
        }
        SplitLine { code, comment }
    }
}

/// If `chars[start]` opens a char literal, returns the index of its
/// closing quote; `None` for lifetimes.
fn close_of_char_literal(chars: &[char], start: usize) -> Option<usize> {
    let mut j = start + 1;
    if chars.get(j) == Some(&'\\') {
        // Escaped char: find the next unescaped quote within a short
        // window (covers \n, \', \u{1F600}).
        let limit = (start + 12).min(chars.len());
        j += 1;
        while j < limit {
            if chars[j] == '\'' {
                return Some(j);
            }
            j += 1;
        }
        return None;
    }
    // 'x' — exactly one character then a quote; anything else is a
    // lifetime like 'static or 'a.
    if chars.get(j).is_some() && chars.get(j + 1) == Some(&'\'') {
        return Some(j + 1);
    }
    None
}

/// How a `let` binding is classified by its initializer — the facts the
/// flow-aware rules consume.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum BindingClass {
    /// Holds a mutex guard (`.lock()` / `lock_unpoisoned(..)`).
    Guard,
    /// Carries a wrapping serial number (`Seq16`, a 16-bit stamp) that
    /// raw integer arithmetic would misorder at the wrap.
    Serial,
    /// Anything else.
    Plain,
}

/// One `let` binding inside a function body, with its lifetime.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Binding {
    /// The bound identifier.
    pub name: String,
    /// Classification derived from the initializer and annotation.
    pub class: BindingClass,
    /// 1-based line of the `let`.
    pub line: usize,
    /// 1-based line where the enclosing block closes (last line of the
    /// file if the block never closes).
    pub scope_end: usize,
    /// Line of an explicit `drop(name)`, which ends liveness early.
    pub dropped_at: Option<usize>,
    /// Brace depth the binding was declared at (parser internal, kept
    /// for diagnostics).
    pub depth: usize,
}

impl Binding {
    /// Last line on which the binding is still live.
    pub fn live_until(&self) -> usize {
        self.dropped_at.unwrap_or(self.scope_end)
    }

    /// Is the binding live at `line` (1-based), excluding its own
    /// declaration line?
    pub fn live_across(&self, line: usize) -> bool {
        self.line < line && line <= self.live_until()
    }
}

/// The parse of one file: everything the rules need, computed in a
/// single pass.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ParsedFile {
    /// Original lines (for diagnostic snippets).
    pub raw: Vec<String>,
    /// Lexed lines: code with comments/strings stripped, plus comment
    /// text (pragmas live there).
    pub lines: Vec<SplitLine>,
    /// `let` bindings with lifetimes, in source order.
    pub bindings: Vec<Binding>,
    /// Per line: was it inside a `#[cfg(test)]` region when scanned?
    pub in_test: Vec<bool>,
}

/// Accumulates a `let` statement across lines until its `;`.
struct LetAcc {
    text: String,
    line: usize,
    depth: usize,
    spanned: usize,
}

/// How many lines a `let` statement may span before the parser gives
/// up and classifies what it has — a termination guard, not a limit
/// any real statement hits.
const MAX_LET_SPAN: usize = 40;

/// Parses one file. Total: never fails, never panics; unparseable
/// regions simply contribute no bindings.
pub fn parse_file(text: &str) -> ParsedFile {
    let raw: Vec<String> = text.lines().map(str::to_string).collect();
    let mut lex = LexState::default();
    let lines: Vec<SplitLine> = raw.iter().map(|l| lex.split(l)).collect();
    let total = lines.len().max(1);

    let mut bindings: Vec<Binding> = Vec::new();
    let mut in_test = vec![false; lines.len()];

    let mut depth: usize = 0;
    let mut pending_let: Option<LetAcc> = None;

    // `#[cfg(test)]` region tracking, line-granular: after the
    // attribute, the next brace-opening item starts a region that ends
    // when the depth returns to its entry value.
    let mut pending_cfg_test = false;
    let mut test_region_floor: Option<usize> = None;

    for (idx, sl) in lines.iter().enumerate() {
        let line_no = idx + 1;
        let code = sl.code.as_str();
        in_test[idx] = test_region_floor.is_some();

        if code.contains("#[cfg(test)]") || code.contains("#[cfg(all(test") {
            pending_cfg_test = true;
        }

        let chars: Vec<char> = code.chars().collect();
        let mut i = 0;
        let mut let_started_here = false;
        while i < chars.len() {
            match chars[i] {
                '{' => {
                    depth += 1;
                    i += 1;
                }
                '}' => {
                    depth = depth.saturating_sub(1);
                    for b in bindings.iter_mut() {
                        if b.scope_end == 0 && b.depth > depth {
                            b.scope_end = line_no;
                        }
                    }
                    i += 1;
                }
                c if is_ident_start(c) => {
                    let start = i;
                    while i < chars.len() && is_ident_char(chars[i]) {
                        i += 1;
                    }
                    let word: String = chars[start..i].iter().collect();
                    if word == "let" && pending_let.is_none() {
                        pending_let = Some(LetAcc {
                            text: chars[i..].iter().collect(),
                            line: line_no,
                            depth,
                            spanned: 0,
                        });
                        let_started_here = true;
                        // The rest of the line is captured; keep
                        // walking it for braces only.
                    }
                }
                _ => i += 1,
            }
        }

        // `#[cfg(test)]` floor bookkeeping mirrors the PR 3 scanner
        // exactly (line-granular, entry-depth floor).
        let depth_after = depth;
        let line_opened = code.contains('{');
        let line_closed = code.contains('}');
        if pending_cfg_test && line_opened {
            // Floor is the depth *before* this line's net change —
            // reconstruct it from the after-value.
            let net = (code.matches('{').count() as i64) - (code.matches('}').count() as i64);
            let before = (depth_after as i64 - net).max(0) as usize;
            test_region_floor = Some(before);
            pending_cfg_test = false;
        } else if pending_cfg_test && code.contains(';') {
            // `#[cfg(test)] mod x;` — out-of-line; nothing to skip.
            pending_cfg_test = false;
        }
        if let Some(floor) = test_region_floor {
            if depth_after <= floor && line_closed {
                test_region_floor = None;
            }
        }

        // Continue or finish an open `let` statement.
        if let Some(mut acc) = pending_let.take() {
            if !let_started_here {
                acc.text.push(' ');
                acc.text.push_str(code);
                acc.spanned += 1;
            }
            if acc.text.contains(';') || acc.spanned >= MAX_LET_SPAN || depth < acc.depth {
                let new = finish_let(&acc, &bindings, total);
                bindings.extend(new);
            } else {
                pending_let = Some(acc);
            }
        }

        // `drop(name)` ends a binding's liveness early.
        for name in dropped_names(code) {
            for b in bindings.iter_mut().rev() {
                if b.name == name && b.dropped_at.is_none() && b.scope_end == 0 {
                    b.dropped_at = Some(line_no);
                    break;
                }
            }
        }
    }

    if let Some(acc) = pending_let.take() {
        let new = finish_let(&acc, &bindings, total);
        bindings.extend(new);
    }
    for b in bindings.iter_mut() {
        if b.scope_end == 0 {
            b.scope_end = total;
        }
    }

    ParsedFile {
        raw,
        lines,
        bindings,
        in_test,
    }
}

/// Finalizes one accumulated `let` statement into bindings.
fn finish_let(acc: &LetAcc, existing: &[Binding], total: usize) -> Vec<Binding> {
    let (pattern, mut init) = split_let(&acc.text);
    // Truncate the initializer at the first block so a `match`/`if`
    // body's statements never leak into classification.
    if let Some(b) = init.find('{') {
        init = &init[..b];
    }
    let annotated_serial = word_in(pattern, "Seq16");
    let class = classify_init(init, annotated_serial, existing);
    pattern_idents(pattern)
        .into_iter()
        .map(|name| Binding {
            name,
            class,
            line: acc.line,
            scope_end: if acc.depth == 0 { total } else { 0 },
            dropped_at: None,
            depth: acc.depth,
        })
        .collect()
}

/// Splits a `let` statement's text (after the `let` keyword) into
/// pattern and initializer at the first standalone `=`.
fn split_let(text: &str) -> (&str, &str) {
    let bytes = text.as_bytes();
    for (i, &b) in bytes.iter().enumerate() {
        if b != b'=' {
            continue;
        }
        let prev = if i == 0 { b' ' } else { bytes[i - 1] };
        let next = *bytes.get(i + 1).unwrap_or(&b' ');
        if next == b'=' || next == b'>' {
            continue;
        }
        if matches!(
            prev,
            b'=' | b'<' | b'>' | b'!' | b'+' | b'-' | b'*' | b'/' | b'%' | b'&' | b'|' | b'^'
        ) {
            continue;
        }
        return (&text[..i], &text[i + 1..]);
    }
    (text, "")
}

/// Identifiers bound by a `let` pattern: lower-case idents, skipping
/// keywords, `_`, and capitalized constructor/type names.
fn pattern_idents(pattern: &str) -> Vec<String> {
    let mut out = Vec::new();
    // Anything after a `:` is a type annotation, not a binding.
    let pattern = pattern.split(':').next().unwrap_or(pattern);
    for word in pattern.split(|c: char| !is_ident_char(c)) {
        if word.is_empty() || word == "_" {
            continue;
        }
        if matches!(word, "mut" | "ref" | "box") {
            continue;
        }
        let starts_lower = word
            .chars()
            .next()
            .is_some_and(|c| c.is_lowercase() || c == '_');
        if starts_lower && !out.contains(&word.to_string()) {
            out.push(word.to_string());
        }
    }
    out
}

/// Tokens that prove the statement already went through the sanctioned
/// RFC 1982 helpers (or widened out of the wrapping domain), so its
/// result is a plain integer, not a serial number.
const SERIAL_LAUNDER: &[&str] = &[
    "wrapping_add",
    "wrapping_sub",
    "wrapping_mul",
    "distance_from",
    "newer_or_equal",
    "u64::from",
    "u32::from",
    "usize::from",
    "i64::from",
    "i32::from",
    "f64::from",
];

/// Tokens whose presence in an initializer marks the bound value as a
/// wrapping serial number.
const SERIAL_SOURCES: &[&str] = &["Seq16", ".raw()", ".stamp()", ".seq()"];

/// Classifies a `let` initializer.
fn classify_init(init: &str, annotated_serial: bool, live: &[Binding]) -> BindingClass {
    if init.contains(".lock()") || init.contains("lock_unpoisoned(") {
        return BindingClass::Guard;
    }
    if SERIAL_LAUNDER.iter().any(|t| init.contains(t)) {
        return BindingClass::Plain;
    }
    if annotated_serial || SERIAL_SOURCES.iter().any(|t| init.contains(t)) {
        return BindingClass::Serial;
    }
    // Flow propagation: initializing from a live serial binding keeps
    // the serial taint unless a laundering helper intervened (above).
    for b in live {
        if b.class == BindingClass::Serial && b.scope_end == 0 && word_in(init, &b.name) {
            return BindingClass::Serial;
        }
    }
    BindingClass::Plain
}

/// Names passed to a `drop(..)` call on this line.
fn dropped_names(code: &str) -> Vec<String> {
    let mut out = Vec::new();
    let mut from = 0;
    while let Some(rel) = code[from..].find("drop(") {
        let pos = from + rel;
        let bounded = !code[..pos]
            .chars()
            .next_back()
            .is_some_and(|c| is_ident_char(c) && c != ':');
        if bounded {
            let inner = &code[pos + "drop(".len()..];
            if let Some(close) = inner.find(')') {
                let name = inner[..close].trim();
                if !name.is_empty() && name.chars().all(is_ident_char) {
                    out.push(name.to_string());
                }
            }
        }
        from = pos + "drop(".len();
    }
    out
}

/// Is `c` a character that can start an identifier?
fn is_ident_start(c: char) -> bool {
    c.is_alphabetic() || c == '_'
}

/// Is `c` an identifier character?
pub(crate) fn is_ident_char(c: char) -> bool {
    c.is_alphanumeric() || c == '_'
}

/// Does `text` contain `word` as a word-bounded token?
fn word_in(text: &str, word: &str) -> bool {
    let mut from = 0;
    while let Some(rel) = text[from..].find(word) {
        let pos = from + rel;
        let before = text[..pos].chars().next_back();
        let after = text[pos + word.len()..].chars().next();
        if !before.is_some_and(is_ident_char) && !after.is_some_and(is_ident_char) {
            return true;
        }
        from = pos + word.len();
    }
    false
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nested_block_comments_stay_comments() {
        let text = "/* outer /* inner .unwrap() */ still comment */ fn f() {}\n";
        let parsed = parse_file(text);
        assert!(!parsed.lines[0].code.contains("unwrap"));
        assert!(parsed.lines[0].code.contains("fn f()"));
    }

    #[test]
    fn nested_block_comment_across_lines() {
        let text = "/* a /* b */\nstill comment .unwrap() */\nfn g() {}\n";
        let parsed = parse_file(text);
        assert!(!parsed.lines[1].code.contains("unwrap"));
    }

    #[test]
    fn guard_binding_lifetime_tracked() {
        let text = concat!(
            "fn f(m: &std::sync::Mutex<u32>) {\n",
            "    let guard = m.lock();\n",
            "    work();\n",
            "    drop(guard);\n",
            "    more();\n",
            "}\n",
        );
        let parsed = parse_file(text);
        assert_eq!(parsed.bindings.len(), 1);
        let b = &parsed.bindings[0];
        assert_eq!(b.name, "guard");
        assert_eq!(b.class, BindingClass::Guard);
        assert_eq!(b.line, 2);
        assert_eq!(b.scope_end, 6);
        assert_eq!(b.dropped_at, Some(4));
        assert!(b.live_across(3));
        assert!(!b.live_across(5));
    }

    #[test]
    fn serial_classification_and_laundering() {
        let text = concat!(
            "fn f(record: &Record, seq: Seq16) {\n",
            "    let stamp = record.stamp();\n",
            "    let tainted = stamp;\n",
            "    let clean = u64::from(stamp.wrapping_sub(prev));\n",
            "    let annotated: Seq16 = next();\n",
            "}\n",
        );
        let parsed = parse_file(text);
        let classes: Vec<(&str, BindingClass)> = parsed
            .bindings
            .iter()
            .map(|b| (b.name.as_str(), b.class))
            .collect();
        assert_eq!(
            classes,
            vec![
                ("stamp", BindingClass::Serial),
                ("tainted", BindingClass::Serial),
                ("clean", BindingClass::Plain),
                ("annotated", BindingClass::Serial),
            ]
        );
    }

    #[test]
    fn multiline_let_is_accumulated() {
        let text = concat!(
            "fn f(m: &std::sync::Mutex<u32>) {\n",
            "    let guard = m\n",
            "        .lock();\n",
            "    use_it(&guard);\n",
            "}\n",
        );
        let parsed = parse_file(text);
        assert_eq!(parsed.bindings.len(), 1);
        assert_eq!(parsed.bindings[0].class, BindingClass::Guard);
        assert_eq!(parsed.bindings[0].line, 2);
    }

    #[test]
    fn cfg_test_regions_marked() {
        let text = concat!(
            "pub fn ok() {}\n",
            "#[cfg(test)]\n",
            "mod tests {\n",
            "    fn t() {}\n",
            "}\n",
            "pub fn after() {}\n",
        );
        let parsed = parse_file(text);
        assert!(!parsed.in_test[0]);
        assert!(parsed.in_test[3]);
        assert!(!parsed.in_test[5]);
    }

    #[test]
    fn tuple_patterns_bind_all_lowercase_idents() {
        let text = "fn f() { let (a, b) = pair(); let Some(c) = opt else { return }; }\n";
        let parsed = parse_file(text);
        let names: Vec<&str> = parsed.bindings.iter().map(|b| b.name.as_str()).collect();
        // The second `let` is inside the same line after the first
        // completed; the parser picks it up as its own statement.
        assert!(names.contains(&"a"));
        assert!(names.contains(&"b"));
    }

    #[test]
    fn parse_is_total_and_deterministic_on_junk() {
        let junk = "}}}{{{ let = = ; fn 'a\" r#\" /* /* */ '{' ";
        let a = parse_file(junk);
        let b = parse_file(junk);
        assert_eq!(a, b);
    }

    #[test]
    fn raw_string_fences_survive_round_trip() {
        let text = "fn f() -> &'static str {\n    r##\"text \"# .unwrap() \"##\n}\n";
        let parsed = parse_file(text);
        assert!(!parsed.lines[1].code.contains("unwrap"));
    }
}
