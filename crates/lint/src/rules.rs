//! The rule set and the per-file scanner, running over the semantic
//! parse from [`crate::parse`].
//!
//! PR 3's scanner was a line/token matcher; it is still the backbone
//! (token rules are cheap and auditable), but the scanner now consumes
//! a [`ParsedFile`] — `#[cfg(test)]` regions and `let`-binding
//! lifetimes — so three rules can reason about *flow* across lines:
//! a lock guard live across a `par_map` fan-out, serial-number values
//! hit with raw integer arithmetic, and `lint:allow` pragmas that no
//! longer suppress anything.

use crate::parse::{parse_file, BindingClass, ParsedFile, SplitLine};
use crate::Diagnostic;

/// Every lint rule the scanner knows, in stable order.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum Rule {
    /// Threading primitives outside the sanctioned executor crate.
    ThreadDiscipline,
    /// Wall-clock reads in deterministic evaluation paths.
    WallClock,
    /// Ambient (OS-seeded) randomness in deterministic evaluation paths.
    AmbientRng,
    /// Unordered hash collections in report-feeding library code.
    UnorderedIter,
    /// `unsafe` outside the allowlisted module or without a SAFETY comment.
    UnsafeAudit,
    /// Panicking calls in library code outside tests.
    PanicHygiene,
    /// Raw ARQ sequence-number construction outside `crates/hw`.
    RawSeq,
    /// Raw `StreamDecoder` construction inside `crates/ingest` outside
    /// the shard registry.
    RawDecoder,
    /// Manual clock stepping / fixed-tick driving outside the scheduler
    /// crate and `#[cfg(test)]` regions.
    FixedTick,
    /// A mutex guard binding live across a `par_map`/`par_map_ctx`
    /// fan-out — deadlock risk under the global token budget.
    GuardAcrossFanout,
    /// Raw `+`/`-`/`<`/`>` arithmetic on wrapping serial numbers
    /// (`Seq16`, 16-bit stamps) outside the RFC 1982 helpers.
    SerialArith,
    /// Raw distance-filter construction (`MedianFilter`/`Ema`/`SlewGate`)
    /// outside `crates/recognizer` and `crates/sensors`.
    RawFilter,
    /// A valid `lint:allow` pragma that suppresses zero diagnostics.
    UnusedPragma,
    /// A `lint:allow` pragma that is unusable as written.
    BadPragma,
}

/// All rules, in the order they are documented and reported.
pub const ALL_RULES: &[Rule] = &[
    Rule::ThreadDiscipline,
    Rule::WallClock,
    Rule::AmbientRng,
    Rule::UnorderedIter,
    Rule::UnsafeAudit,
    Rule::PanicHygiene,
    Rule::RawSeq,
    Rule::RawDecoder,
    Rule::FixedTick,
    Rule::GuardAcrossFanout,
    Rule::SerialArith,
    Rule::RawFilter,
    Rule::UnusedPragma,
    Rule::BadPragma,
];

impl Rule {
    /// The stable kebab-case id used in pragmas, JSON and fixtures.
    pub fn name(self) -> &'static str {
        match self {
            Rule::ThreadDiscipline => "thread-discipline",
            Rule::WallClock => "wall-clock",
            Rule::AmbientRng => "ambient-rng",
            Rule::UnorderedIter => "unordered-iter",
            Rule::UnsafeAudit => "unsafe-audit",
            Rule::PanicHygiene => "panic-hygiene",
            Rule::RawSeq => "raw-seq",
            Rule::RawDecoder => "raw-decoder",
            Rule::FixedTick => "fixed-tick",
            Rule::GuardAcrossFanout => "guard-across-fanout",
            Rule::SerialArith => "serial-arith",
            Rule::RawFilter => "raw-filter",
            Rule::UnusedPragma => "unused-pragma",
            Rule::BadPragma => "bad-pragma",
        }
    }

    /// Resolves a pragma/fixture rule id; `None` for unknown names.
    pub fn from_name(name: &str) -> Option<Rule> {
        ALL_RULES.iter().copied().find(|r| r.name() == name)
    }

    /// One-line description, shown by `xtask lint --rules`.
    pub fn describe(self) -> &'static str {
        match self {
            Rule::ThreadDiscipline => {
                "thread::spawn / thread::scope / thread::Builder / rayon outside crates/par — \
                 all parallelism must flow through the shared pool's token budget"
            }
            Rule::WallClock => {
                "Instant::now / SystemTime::now in core/eval/baselines/host library code — \
                 wall-clock reads make eval output machine-dependent"
            }
            Rule::AmbientRng => {
                "thread_rng / rand::random / from_entropy / OsRng in core/eval/baselines/host \
                 library code — all stochasticity must flow from the experiment seed"
            }
            Rule::UnorderedIter => {
                "HashMap / HashSet in first-party library code — iteration order feeds reports; \
                 use BTreeMap / BTreeSet or a sorted Vec"
            }
            Rule::UnsafeAudit => {
                "unsafe outside the audited allowlist (par::pool, core's counting-allocator \
                 test), or without a `// SAFETY:` comment justifying it"
            }
            Rule::PanicHygiene => {
                "unwrap / expect / panic! / unreachable! / todo! / unimplemented! in library \
                 code outside tests — fail through Result like summarize()"
            }
            Rule::RawSeq => {
                "Seq16::from_raw outside crates/hw — device and host code receive ARQ \
                 sequence numbers from decode_data/decode_ack and never construct their own, \
                 so serial-number comparisons stay in one audited module"
            }
            Rule::RawDecoder => {
                "StreamDecoder construction in crates/ingest outside src/shard.rs — every \
                 fleet session lives in exactly one shard's books; ask the shard registry \
                 for a session instead of opening a decoder at the call site"
            }
            Rule::FixedTick => {
                "SimClock::advance / board.step / manual tick stepping outside crates/hw and \
                 #[cfg(test)] regions — register a deadline with the event scheduler \
                 (distscroll_hw::sched) and let the device dispatch advance time"
            }
            Rule::GuardAcrossFanout => {
                "a .lock() / lock_unpoisoned() guard binding still live at a par_map / \
                 par_map_ctx call outside crates/par — workers blocking on the guard while \
                 the caller blocks on the pool deadlocks under the global token budget; \
                 drop the guard first or lock inside the worker closure"
            }
            Rule::SerialArith => {
                "raw + - < > arithmetic on a wrapping serial number (Seq16, 16-bit stamp) \
                 outside crates/hw — a backwards jump under 32768 is reordering, not a wrap \
                 (the PR 5 SessionLog bug); compare through wrapping_sub/distance_from/\
                 newer_or_equal, the RFC 1982 helpers"
            }
            Rule::RawFilter => {
                "MedianFilter::new / Ema::new / SlewGate::new outside crates/recognizer and \
                 crates/sensors — the recognizer crate owns the distance-processing stages \
                 and their cycle/RAM budgets; build a ClassicChain or Segmented recognizer \
                 instead of wiring stages by hand"
            }
            Rule::UnusedPragma => {
                "a lint:allow pragma that suppresses zero diagnostics — stale suppressions \
                 rot silently; delete the pragma or re-attach it to the violation it excuses"
            }
            Rule::BadPragma => "a lint:allow pragma naming an unknown rule or carrying no reason",
        }
    }
}

/// What kind of source a file is, derived from its workspace path.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FileKind {
    /// Library code — the strictest scope.
    Lib,
    /// A binary entry point (`main.rs`, `src/bin/…`, `build.rs`).
    Bin,
    /// Integration tests, benches or examples.
    TestLike,
}

/// Path-derived facts the rules scope themselves by.
#[derive(Debug, Clone)]
pub struct FileContext {
    /// Workspace-relative path with `/` separators.
    pub path: String,
    /// Crate directory name under `crates/`, `"perfbench"` for the
    /// benchmark package, or `"distscroll"` for the root package.
    pub crate_name: String,
    /// Library / binary / test-like classification.
    pub kind: FileKind,
}

/// Crates whose library code must be free of wall-clock and ambient
/// randomness: everything on the path from a seed to a report.
const DETERMINISTIC_CRATES: &[&str] = &["core", "eval", "baselines", "host", "ingest"];

/// The only modules allowed to contain `unsafe` (and every block there
/// must carry a SAFETY comment): the worker pool, and the counting
/// allocators backing the three zero-allocation regression tests.
const UNSAFE_ALLOWLIST: &[&str] = &[
    "crates/par/src/pool.rs",
    "crates/core/tests/zero_alloc.rs",
    "crates/host/tests/zero_alloc_decode.rs",
    "crates/ingest/tests/zero_alloc_round.rs",
];

impl FileContext {
    /// Classifies a workspace-relative path (`/`-separated).
    pub fn classify(path: &str) -> FileContext {
        let parts: Vec<&str> = path.split('/').collect();
        let crate_name = match parts.as_slice() {
            ["crates", name, ..] => name,
            ["perfbench", ..] => "perfbench",
            _ => "distscroll",
        };
        let file_name = parts.last().copied().unwrap_or_default();
        let test_like = parts
            .iter()
            .any(|p| matches!(*p, "tests" | "benches" | "examples"));
        let kind = if test_like {
            FileKind::TestLike
        } else if file_name == "main.rs"
            || file_name == "build.rs"
            || parts.contains(&"bin")
            // The benchmark is a binary-only package of its own (not a
            // workspace member), so every module in it is binary code.
            || crate_name == "perfbench"
        {
            FileKind::Bin
        } else {
            FileKind::Lib
        };
        FileContext {
            path: path.to_string(),
            crate_name: crate_name.to_string(),
            kind,
        }
    }

    fn is_deterministic_crate(&self) -> bool {
        DETERMINISTIC_CRATES.contains(&self.crate_name.as_str())
    }

    fn unsafe_allowlisted(&self) -> bool {
        UNSAFE_ALLOWLIST.contains(&self.path.as_str())
    }
}

/// Is `text[pos..pos+len]` a standalone token (not part of a larger
/// identifier)?
fn word_bounded(text: &str, pos: usize, len: usize) -> bool {
    let is_word = |c: char| c.is_alphanumeric() || c == '_';
    let before = text[..pos].chars().next_back();
    let after = text[pos + len..].chars().next();
    !before.is_some_and(is_word) && !after.is_some_and(is_word)
}

/// Does `code` contain `pat` as a word-bounded token?
fn has_token(code: &str, pat: &str) -> bool {
    let mut from = 0;
    while let Some(rel) = code[from..].find(pat) {
        let pos = from + rel;
        if word_bounded(code, pos, pat.len()) {
            return true;
        }
        from = pos + pat.len();
    }
    false
}

/// A parsed allow pragma: the named rules plus the reason's length.
struct Pragma {
    rules: Vec<Result<Rule, String>>,
    reason_len: usize,
}

/// Extracts a pragma from a line's comment text, if any.
fn parse_pragma(comment: &str) -> Option<Pragma> {
    let start = comment.find("lint:allow(")?;
    let rest = &comment[start + "lint:allow(".len()..];
    let close = rest.find(')')?;
    let rules = rest[..close]
        .split(',')
        .map(|name| {
            let name = name.trim();
            Rule::from_name(name).ok_or_else(|| name.to_string())
        })
        .collect();
    let reason = rest[close + 1..].trim();
    Some(Pragma {
        rules,
        reason_len: reason.len(),
    })
}

/// Minimum pragma-reason length: long enough to force a real sentence
/// fragment, short enough to never be the obstacle.
const MIN_REASON: usize = 8;

/// One `(rule, line)` grant from a valid pragma, with usage tracking
/// for the `unused-pragma` rule.
struct PragmaGrant {
    rule: Rule,
    line: usize,
    used: bool,
}

/// Scans one file's source text under the given path-derived context.
///
/// Convenience wrapper over [`scan_parsed`] for callers that have no
/// use for the parse (fixtures, unit tests).
pub fn scan_source(text: &str, ctx: &FileContext) -> Vec<Diagnostic> {
    scan_parsed(&parse_file(text), ctx)
}

/// Scans an already-parsed file. This is the single rule engine both
/// the workspace scan and the fixture self-test use, so the two can
/// never drift apart.
pub fn scan_parsed(parsed: &ParsedFile, ctx: &FileContext) -> Vec<Diagnostic> {
    let mut diags = Vec::new();
    let split = &parsed.lines;
    let raw = &parsed.raw;

    // Valid pragma grants, for suppression and the unused check.
    let mut grants: Vec<PragmaGrant> = Vec::new();
    // Grant indices carried from a comment-only pragma line to the
    // next line.
    let mut carried_grants: Vec<usize> = Vec::new();

    for (idx, sl) in split.iter().enumerate() {
        let line_no = idx + 1;
        let code = sl.code.as_str();
        let code_trim = code.trim();
        let in_test_module = parsed.in_test.get(idx).copied().unwrap_or(false);
        let snippet = raw
            .get(idx)
            .map(|l| l.trim().to_string())
            .unwrap_or_default();

        // --- pragma handling -------------------------------------------------
        // Doc comments (`///`, `//!`) are prose: a pragma *mentioned*
        // there (e.g. this crate's own usage example) is documentation,
        // not a suppression, and must not trip `unused-pragma`.
        let is_doc_comment = sl.comment.starts_with('/') || sl.comment.starts_with('!');
        let mut allows: Vec<usize> = std::mem::take(&mut carried_grants);
        if let Some(pragma) = parse_pragma(&sl.comment).filter(|_| !is_doc_comment) {
            let mut valid = true;
            let mut new_grants: Vec<usize> = Vec::new();
            for r in &pragma.rules {
                match r {
                    Ok(rule) => {
                        grants.push(PragmaGrant {
                            rule: *rule,
                            line: line_no,
                            used: false,
                        });
                        new_grants.push(grants.len() - 1);
                    }
                    Err(name) => {
                        valid = false;
                        diags.push(Diagnostic {
                            file: ctx.path.clone(),
                            line: line_no,
                            rule: Rule::BadPragma,
                            message: format!(
                                "pragma names unknown rule `{name}` — known rules: {}",
                                ALL_RULES
                                    .iter()
                                    .map(|r| r.name())
                                    .collect::<Vec<_>>()
                                    .join(", ")
                            ),
                            snippet: snippet.clone(),
                        });
                    }
                }
            }
            if pragma.reason_len < MIN_REASON {
                valid = false;
                diags.push(Diagnostic {
                    file: ctx.path.clone(),
                    line: line_no,
                    rule: Rule::BadPragma,
                    message: "pragma carries no reason — write `// lint:allow(rule) why this \
                              is sound`"
                        .to_string(),
                    snippet: snippet.clone(),
                });
            }
            if !valid {
                // An invalid pragma suppresses nothing; withdraw its
                // grants so the unused check skips them too.
                for &g in &new_grants {
                    grants[g].used = true;
                }
            } else if code_trim.is_empty() {
                // Comment-only pragma line: applies to the next line.
                carried_grants = allows.clone();
                carried_grants.extend(new_grants);
                allows = Vec::new();
            } else {
                allows.extend(new_grants);
            }
        }

        // --- token rules -----------------------------------------------------
        let mut hits: Vec<(Rule, String)> = Vec::new();

        if ctx.crate_name != "par"
            && (has_token(code, "thread::spawn")
                || has_token(code, "thread::scope")
                || has_token(code, "thread::Builder")
                || has_token(code, "rayon"))
        {
            hits.push((
                Rule::ThreadDiscipline,
                "threading outside crates/par — route this through distscroll_par so the \
                 global --jobs token budget holds"
                    .to_string(),
            ));
        }

        let lib_line = ctx.kind == FileKind::Lib && !in_test_module;

        if lib_line && ctx.is_deterministic_crate() {
            if has_token(code, "Instant::now") || has_token(code, "SystemTime::now") {
                hits.push((
                    Rule::WallClock,
                    "wall-clock read in a deterministic eval path — results must be a pure \
                     function of the seed"
                        .to_string(),
                ));
            }
            if has_token(code, "thread_rng")
                || has_token(code, "rand::random")
                || has_token(code, "from_entropy")
                || has_token(code, "OsRng")
            {
                hits.push((
                    Rule::AmbientRng,
                    "ambient randomness in a deterministic eval path — derive every RNG from \
                     the experiment seed"
                        .to_string(),
                ));
            }
        }

        if lib_line && (has_token(code, "HashMap") || has_token(code, "HashSet")) {
            hits.push((
                Rule::UnorderedIter,
                "unordered hash collection in report-feeding library code — iteration order \
                 is nondeterministic; use BTreeMap/BTreeSet or sort before iterating"
                    .to_string(),
            ));
        }

        if has_token(code, "unsafe") {
            if !ctx.unsafe_allowlisted() {
                hits.push((
                    Rule::UnsafeAudit,
                    format!(
                        "`unsafe` outside the audited allowlist ({}) — extend the allowlist \
                         only with a reviewed justification",
                        UNSAFE_ALLOWLIST.join(", ")
                    ),
                ));
            } else if !safety_comment_nearby(split, raw, idx) {
                hits.push((
                    Rule::UnsafeAudit,
                    "`unsafe` without a `// SAFETY:` comment — state the invariant that makes \
                     this sound"
                        .to_string(),
                ));
            }
        }

        if ctx.crate_name != "hw" && has_token(code, "from_raw") {
            hits.push((
                Rule::RawSeq,
                "raw sequence-number construction outside crates/hw — take sequence numbers \
                 from decode_data/decode_ack so serial-number arithmetic stays in the audited \
                 arq module"
                    .to_string(),
            ));
        }

        if ctx.crate_name == "ingest"
            && ctx.path != "crates/ingest/src/shard.rs"
            && (has_token(code, "StreamDecoder::new")
                || has_token(code, "StreamDecoder::with_arq")
                || has_token(code, "StreamDecoder::with_arq_resync")
                || has_token(code, "StreamDecoder::default"))
        {
            hits.push((
                Rule::RawDecoder,
                "raw StreamDecoder construction outside the shard registry — sessions in \
                 crates/ingest are opened by crates/ingest/src/shard.rs only, so every \
                 decoder's counters land in exactly one shard's books"
                    .to_string(),
            ));
        }

        if ctx.crate_name != "recognizer"
            && ctx.crate_name != "sensors"
            && (has_token(code, "MedianFilter::new")
                || has_token(code, "Ema::new")
                || has_token(code, "SlewGate::new"))
        {
            hits.push((
                Rule::RawFilter,
                "raw distance-filter construction outside crates/recognizer — the recognizer \
                 crate owns the stage chain and its cycle/RAM budgets; build a ClassicChain \
                 or Segmented recognizer instead of wiring MedianFilter/Ema/SlewGate by hand"
                    .to_string(),
            ));
        }

        if ctx.crate_name != "hw"
            && !in_test_module
            && (has_token(code, "clock.advance")
                || has_token(code, "clock.advance_to")
                || has_token(code, "SimClock::advance")
                || has_token(code, "board.step"))
        {
            hits.push((
                Rule::FixedTick,
                "manual tick stepping outside the scheduler crate — register a deadline with \
                 the event scheduler (distscroll_hw::sched) and drive time through the device \
                 dispatch (tick/run_until), so the jump-to-deadline discipline holds"
                    .to_string(),
            ));
        }

        if lib_line {
            for pat in [
                ".unwrap()",
                ".expect(",
                "panic!(",
                "unreachable!(",
                "todo!(",
                "unimplemented!(",
            ] {
                if code.contains(pat) {
                    hits.push((
                        Rule::PanicHygiene,
                        format!(
                            "`{}` in library code — return Result (the summarize() style) or \
                             justify the invariant with a pragma",
                            pat.trim_matches(|c| c == '.' || c == '(')
                        ),
                    ));
                    break;
                }
            }
        }

        // --- flow-aware rules (binding lifetimes from the parser) ------------

        if ctx.crate_name != "par" && (has_token(code, "par_map") || has_token(code, "par_map_ctx"))
        {
            let live_guards: Vec<&crate::parse::Binding> = parsed
                .bindings
                .iter()
                .filter(|b| b.class == BindingClass::Guard && b.live_across(line_no))
                .collect();
            if !live_guards.is_empty() {
                let names = live_guards
                    .iter()
                    .map(|b| format!("`{}` (line {})", b.name, b.line))
                    .collect::<Vec<_>>()
                    .join(", ");
                hits.push((
                    Rule::GuardAcrossFanout,
                    format!(
                        "lock guard {names} is live across this fan-out — pool workers \
                         contending on the guard while the caller holds a pool token can \
                         deadlock the budget; drop the guard before fanning out or move the \
                         lock inside the worker closure"
                    ),
                ));
            }
        }

        if ctx.crate_name != "hw" {
            let live_serials: Vec<&str> = parsed
                .bindings
                .iter()
                .filter(|b| {
                    b.class == BindingClass::Serial
                        && b.line <= line_no
                        && line_no <= b.live_until()
                })
                .map(|b| b.name.as_str())
                .collect();
            if let Some(operand) = serial_arith_operand(code, &live_serials) {
                hits.push((
                    Rule::SerialArith,
                    format!(
                        "raw integer arithmetic on serial-number value `{operand}` — a \
                         backwards jump under 32768 is reordering, not a wrap; use the RFC \
                         1982 helpers (wrapping_sub + horizon, distance_from, newer_or_equal) \
                         from crates/hw"
                    ),
                ));
            }
        }

        for (rule, message) in hits {
            let suppressed = allows.iter().any(|&g| grants[g].rule == rule);
            if suppressed {
                for &g in &allows {
                    if grants[g].rule == rule {
                        grants[g].used = true;
                    }
                }
                continue;
            }
            diags.push(Diagnostic {
                file: ctx.path.clone(),
                line: line_no,
                rule,
                message,
                snippet: snippet.clone(),
            });
        }
    }

    // --- unused-pragma -------------------------------------------------------
    // A grant that suppressed nothing is itself a violation, so the
    // workspace's suppressions can never rot silently. (Not itself
    // suppressible: a pragma excusing a stale pragma would defeat the
    // audit.)
    for grant in &grants {
        if !grant.used {
            diags.push(Diagnostic {
                file: ctx.path.clone(),
                line: grant.line,
                rule: Rule::UnusedPragma,
                message: format!(
                    "pragma allows `{}` but suppresses no diagnostic — delete it, or \
                     re-attach it to the violation it is meant to excuse",
                    grant.rule.name()
                ),
                snippet: raw
                    .get(grant.line - 1)
                    .map(|l| l.trim().to_string())
                    .unwrap_or_default(),
            });
        }
    }
    diags.sort_by_key(|d| (d.line, d.rule));
    diags
}

/// Raw serial-arithmetic detection on one lexed code line: returns the
/// offending operand text if a `+ - < > <= >= += -=` operator has a
/// serial-number operand on either side.
///
/// An operand is serial when it calls `.raw()` / `.stamp()` directly
/// or names a live serial binding — unless the operand expression
/// itself routes through an RFC 1982 helper (`wrapping_sub(..) < HALF`
/// is the sanctioned idiom, not a violation).
fn serial_arith_operand(code: &str, serial_names: &[&str]) -> Option<String> {
    let toks = op_tokenize(code);
    for (i, t) in toks.iter().enumerate() {
        if !t.is_op || !RAW_OPS.contains(&t.text.as_str()) {
            continue;
        }
        // Binary context only: the previous token must close an
        // operand (identifier, `)` or `]`) — otherwise this is unary
        // minus, a generic bracket after `::<`, a pattern, etc.
        let prev_closes_operand =
            i > 0 && (!toks[i - 1].is_op || matches!(toks[i - 1].text.as_str(), ")" | "]"));
        if !prev_closes_operand {
            continue;
        }
        let left = operand_start(&toks, i).map(|s| join_toks(&toks[s..i]));
        let right = operand_end(&toks, i).map(|e| join_toks(&toks[i + 1..e]));
        for expr in [left, right].into_iter().flatten() {
            if is_serial_operand(&expr, serial_names) {
                return Some(expr);
            }
        }
    }
    None
}

/// Tokens the operator scanner works on: identifiers/numbers, and
/// punctuation with two-character operators kept whole.
struct OpTok {
    text: String,
    is_op: bool,
}

/// Two-character operators that must never be matched as the raw
/// single-character ones (`->` is not a minus, `..` is not two dots).
const TWO_CHAR: &[&str] = &[
    "->", "=>", "<<", ">>", "<=", ">=", "==", "!=", "::", "..", "+=", "-=", "&&", "||",
];

/// The raw operators the `serial-arith` rule polices. `<=`/`>=` and the
/// compound assignments are included; shifts/equality/ranges are not
/// (equality is wrap-safe, ranges and shifts are not ordering).
const RAW_OPS: &[&str] = &["+", "-", "<", ">", "<=", ">=", "+=", "-="];

/// Splits a lexed code line into identifier and punctuation tokens.
fn op_tokenize(code: &str) -> Vec<OpTok> {
    let chars: Vec<char> = code.chars().collect();
    let mut out = Vec::new();
    let mut i = 0;
    while i < chars.len() {
        let c = chars[i];
        if c.is_whitespace() {
            i += 1;
            continue;
        }
        if crate::parse::is_ident_char(c) {
            let start = i;
            while i < chars.len() && crate::parse::is_ident_char(chars[i]) {
                i += 1;
            }
            out.push(OpTok {
                text: chars[start..i].iter().collect(),
                is_op: false,
            });
            continue;
        }
        if i + 1 < chars.len() {
            let pair: String = chars[i..i + 2].iter().collect();
            if TWO_CHAR.contains(&pair.as_str()) {
                out.push(OpTok {
                    text: pair,
                    is_op: true,
                });
                i += 2;
                continue;
            }
        }
        out.push(OpTok {
            text: c.to_string(),
            is_op: true,
        });
        i += 1;
    }
    out
}

/// Joins a token span back into expression text (no spaces — the
/// serial tests are substring/segment matches).
fn join_toks(toks: &[OpTok]) -> String {
    toks.iter().map(|t| t.text.as_str()).collect()
}

/// Walks backwards over one balanced bracket group, leaving `j` at the
/// opening token. Returns false if unbalanced.
fn skip_group_back(toks: &[OpTok], j: &mut usize) -> bool {
    let mut depth = 0i32;
    loop {
        if *j == 0 {
            return false;
        }
        *j -= 1;
        match toks[*j].text.as_str() {
            ")" | "]" => depth += 1,
            "(" | "[" => {
                depth -= 1;
                if depth == 0 {
                    return true;
                }
            }
            _ => {}
        }
    }
}

/// Start index of the operand chain ending just before token `i`:
/// identifiers, `.`/`::` links and balanced call/index groups.
fn operand_start(toks: &[OpTok], i: usize) -> Option<usize> {
    let mut j = i;
    loop {
        if j == 0 {
            break;
        }
        let t = &toks[j - 1];
        if !t.is_op {
            j -= 1;
        } else if matches!(t.text.as_str(), ")" | "]") {
            let mut g = j;
            if !skip_group_back(toks, &mut g) {
                break;
            }
            j = g;
            // A call/index attaches to the identifier before it.
            if j > 0 && !toks[j - 1].is_op {
                j -= 1;
            }
        } else {
            break;
        }
        // Chain continues only through `.` / `::`.
        if j > 0 && matches!(toks[j - 1].text.as_str(), "." | "::") {
            j -= 1;
        } else {
            break;
        }
    }
    if j < i {
        Some(j)
    } else {
        None
    }
}

/// Walks forward over one balanced bracket group starting at `j`
/// (which must be `(` or `[`), leaving `j` just past the close.
fn skip_group_fwd(toks: &[OpTok], j: &mut usize) -> bool {
    let mut depth = 0i32;
    while *j < toks.len() {
        match toks[*j].text.as_str() {
            "(" | "[" => depth += 1,
            ")" | "]" => {
                depth -= 1;
                if depth == 0 {
                    *j += 1;
                    return true;
                }
            }
            _ => {}
        }
        *j += 1;
    }
    false
}

/// Exclusive end index of the operand chain starting just after token
/// `i`: identifiers, `.`/`::` links and balanced call/index groups.
fn operand_end(toks: &[OpTok], i: usize) -> Option<usize> {
    let start = i + 1;
    let mut j = start;
    loop {
        match toks.get(j) {
            Some(t) if !t.is_op => {
                j += 1;
                while toks
                    .get(j)
                    .is_some_and(|t| matches!(t.text.as_str(), "(" | "["))
                {
                    if !skip_group_fwd(toks, &mut j) {
                        return if j > start { Some(j) } else { None };
                    }
                }
            }
            Some(t) if t.text == "(" => {
                if !skip_group_fwd(toks, &mut j) {
                    break;
                }
            }
            _ => break,
        }
        if toks
            .get(j)
            .is_some_and(|t| matches!(t.text.as_str(), "." | "::"))
        {
            j += 1;
        } else {
            break;
        }
    }
    if j > start {
        Some(j)
    } else {
        None
    }
}

/// Is this operand expression a serial number under raw arithmetic?
/// Routing through an RFC 1982 helper (or a widening `from`) launders
/// the value — `stamp.wrapping_sub(front) < HALF` is the sanctioned
/// idiom, not a violation.
fn is_serial_operand(expr: &str, serial_names: &[&str]) -> bool {
    for helper in [
        "wrapping_sub",
        "wrapping_add",
        "distance_from",
        "newer_or_equal",
        "u64::from",
        "u32::from",
        "usize::from",
    ] {
        if expr.contains(helper) {
            return false;
        }
    }
    if expr.contains(".raw()") || expr.contains(".stamp()") || expr.contains(".seq()") {
        return true;
    }
    expr.split(|c: char| !crate::parse::is_ident_char(c))
        .any(|seg| !seg.is_empty() && serial_names.contains(&seg))
}

/// Is there a `SAFETY:` comment on this line or in the contiguous
/// comment/attribute block immediately above it?
fn safety_comment_nearby(split: &[SplitLine], lines: &[String], idx: usize) -> bool {
    if split[idx].comment.contains("SAFETY:") {
        return true;
    }
    let mut j = idx;
    while j > 0 {
        j -= 1;
        let code_trim = split[j].code.trim();
        let is_attr = code_trim.starts_with("#[") || code_trim.starts_with("#![");
        if !(code_trim.is_empty() || is_attr) {
            // Hit real code: the comment block above the unsafe ends.
            return false;
        }
        if split[j].comment.contains("SAFETY:") {
            return true;
        }
        // Allow the search to continue through attributes and comment
        // lines, but not past a blank separator *with no comment*.
        if code_trim.is_empty() && split[j].comment.is_empty() && lines[j].trim().is_empty() {
            return false;
        }
    }
    false
}

#[cfg(test)]
mod tests {
    use super::*;

    fn lib_ctx(path: &str) -> FileContext {
        FileContext::classify(path)
    }

    fn rules_at(text: &str, path: &str) -> Vec<(Rule, usize)> {
        scan_source(text, &lib_ctx(path))
            .into_iter()
            .map(|d| (d.rule, d.line))
            .collect()
    }

    #[test]
    fn classify_kinds() {
        assert_eq!(
            FileContext::classify("crates/eval/src/report.rs").kind,
            FileKind::Lib
        );
        assert_eq!(
            FileContext::classify("crates/eval/src/main.rs").kind,
            FileKind::Bin
        );
        assert_eq!(
            FileContext::classify("crates/par/tests/nesting.rs").kind,
            FileKind::TestLike
        );
        assert_eq!(FileContext::classify("src/lib.rs").crate_name, "distscroll");
        let bench = FileContext::classify("perfbench/src/session.rs");
        assert_eq!(bench.crate_name, "perfbench");
        assert_eq!(bench.kind, FileKind::Bin);
    }

    #[test]
    fn thread_spawn_flagged_outside_par_only() {
        let text = "fn f() { std::thread::spawn(|| {}); }\n";
        assert_eq!(
            rules_at(text, "crates/eval/src/runner.rs"),
            vec![(Rule::ThreadDiscipline, 1)]
        );
        assert!(rules_at(text, "crates/par/src/pool.rs")
            .iter()
            .all(|(r, _)| *r != Rule::ThreadDiscipline));
    }

    #[test]
    fn wall_clock_scoped_to_deterministic_crates_lib_code() {
        let text = "fn f() { let _ = std::time::Instant::now(); }\n";
        assert_eq!(
            rules_at(text, "crates/eval/src/stats.rs"),
            vec![(Rule::WallClock, 1)]
        );
        assert!(rules_at(text, "crates/eval/src/main.rs").is_empty());
        assert!(rules_at(text, "crates/sensors/src/noise.rs").is_empty());
    }

    #[test]
    fn tokens_in_strings_and_comments_do_not_fire() {
        let text = concat!(
            "// mentions thread::spawn and HashMap in prose\n",
            "fn f() -> &'static str { \"Instant::now() .unwrap() HashMap\" }\n",
        );
        assert!(rules_at(text, "crates/eval/src/stats.rs").is_empty());
    }

    #[test]
    fn unwrap_in_cfg_test_module_is_exempt() {
        let text = concat!(
            "pub fn ok() {}\n",
            "#[cfg(test)]\n",
            "mod tests {\n",
            "    #[test]\n",
            "    fn t() { Some(1).unwrap(); }\n",
            "}\n",
        );
        assert!(rules_at(text, "crates/core/src/menu.rs").is_empty());
    }

    #[test]
    fn unwrap_after_cfg_test_module_closes_is_flagged_again() {
        let text = concat!(
            "#[cfg(test)]\n",
            "mod tests {\n",
            "    fn t() { Some(1).unwrap(); }\n",
            "}\n",
            "pub fn bad() { Some(1).unwrap(); }\n",
        );
        assert_eq!(
            rules_at(text, "crates/core/src/menu.rs"),
            vec![(Rule::PanicHygiene, 5)]
        );
    }

    #[test]
    fn pragma_suppresses_same_line_and_next_line() {
        let trailing =
            "pub fn f() { Some(1).unwrap(); } // lint:allow(panic-hygiene) startup invariant\n";
        assert!(rules_at(trailing, "crates/core/src/menu.rs").is_empty());
        let preceding = concat!(
            "// lint:allow(panic-hygiene) startup invariant holds\n",
            "pub fn f() { Some(1).unwrap(); }\n",
        );
        assert!(rules_at(preceding, "crates/core/src/menu.rs").is_empty());
    }

    #[test]
    fn pragma_does_not_leak_past_its_target_line() {
        let text = concat!(
            "// lint:allow(panic-hygiene) only the next line\n",
            "pub fn f() { Some(1).unwrap(); }\n",
            "pub fn g() { Some(1).unwrap(); }\n",
        );
        assert_eq!(
            rules_at(text, "crates/core/src/menu.rs"),
            vec![(Rule::PanicHygiene, 3)]
        );
    }

    #[test]
    fn pragma_without_reason_is_bad_and_does_not_suppress() {
        let text = concat!(
            "// lint:allow(panic-hygiene)\n",
            "pub fn f() { Some(1).unwrap(); }\n",
        );
        assert_eq!(
            rules_at(text, "crates/core/src/menu.rs"),
            vec![(Rule::BadPragma, 1), (Rule::PanicHygiene, 2)]
        );
    }

    #[test]
    fn unsafe_needs_allowlist_and_safety_comment() {
        let outside = "pub fn f() { unsafe { core::hint::unreachable_unchecked() } }\n";
        assert_eq!(
            rules_at(outside, "crates/core/src/menu.rs"),
            vec![(Rule::UnsafeAudit, 1)]
        );
        let unaudited = "pub fn f(p: *const u8) -> u8 { unsafe { *p } }\n";
        assert_eq!(
            rules_at(unaudited, "crates/par/src/pool.rs"),
            vec![(Rule::UnsafeAudit, 1)]
        );
        let audited = concat!(
            "// SAFETY: caller guarantees p is valid for reads\n",
            "pub fn f(p: *const u8) -> u8 { unsafe { *p } }\n",
        );
        assert!(rules_at(audited, "crates/par/src/pool.rs").is_empty());
    }

    #[test]
    fn attribute_between_safety_comment_and_unsafe_is_fine() {
        let text = concat!(
            "// SAFETY: justified above the attribute\n",
            "#[allow(unsafe_code)]\n",
            "unsafe impl Send for X {}\n",
        );
        assert!(rules_at(text, "crates/par/src/pool.rs").is_empty());
    }

    #[test]
    fn forbid_unsafe_code_attribute_does_not_fire() {
        let text = "#![forbid(unsafe_code)]\n";
        assert!(rules_at(text, "crates/core/src/lib.rs").is_empty());
    }

    #[test]
    fn raw_seq_flagged_outside_hw_only() {
        let text = "fn f() -> Seq16 { Seq16::from_raw(7) }\n";
        assert_eq!(
            rules_at(text, "crates/host/src/telemetry.rs"),
            vec![(Rule::RawSeq, 1)]
        );
        assert_eq!(
            rules_at(text, "crates/eval/src/experiments/arq.rs"),
            vec![(Rule::RawSeq, 1)]
        );
        assert!(rules_at(text, "crates/hw/src/arq.rs").is_empty());
        let decoded = "fn f(p: &[u8]) { let _ = decode_data(p); }\n";
        assert!(rules_at(decoded, "crates/host/src/telemetry.rs").is_empty());
    }

    #[test]
    fn raw_decoder_flagged_in_ingest_outside_the_shard_registry() {
        let text = "fn f() -> StreamDecoder { StreamDecoder::with_arq_resync() }\n";
        assert_eq!(
            rules_at(text, "crates/ingest/src/service.rs"),
            vec![(Rule::RawDecoder, 1)]
        );
        assert_eq!(
            rules_at(text, "crates/ingest/tests/backpressure.rs"),
            vec![(Rule::RawDecoder, 1)]
        );
        // The shard registry is the sanctioned construction site, and
        // other crates (the single-device host path) are out of scope.
        assert!(rules_at(text, "crates/ingest/src/shard.rs").is_empty());
        assert!(rules_at(text, "crates/host/src/session.rs").is_empty());
        let plain = "fn f() -> StreamDecoder { StreamDecoder::new() }\n";
        assert_eq!(
            rules_at(plain, "crates/ingest/src/loadgen.rs"),
            vec![(Rule::RawDecoder, 1)]
        );
        let pragmad = concat!(
            "// lint:allow(raw-decoder) capture-time ground truth, outside any shard's books\n",
            "fn f() -> StreamDecoder { StreamDecoder::with_arq() }\n",
        );
        assert!(rules_at(pragmad, "crates/ingest/src/loadgen.rs").is_empty());
    }

    #[test]
    fn raw_filter_flagged_outside_recognizer_and_sensors() {
        let text = "fn f() -> MedianFilter { MedianFilter::new(9) }\n";
        assert_eq!(
            rules_at(text, "crates/core/src/firmware.rs"),
            vec![(Rule::RawFilter, 1)]
        );
        // Test-like code gets no exemption: tests hand-wiring the
        // stages dodge the budgeted chain exactly like library code.
        assert_eq!(
            rules_at(text, "crates/eval/tests/filters.rs"),
            vec![(Rule::RawFilter, 1)]
        );
        // The two sanctioned construction sites: the stage owners.
        assert!(rules_at(text, "crates/recognizer/src/classic.rs").is_empty());
        assert!(rules_at(text, "crates/sensors/src/filter.rs").is_empty());
        let ema = "fn f() -> Ema { Ema::new(0.45) }\n";
        assert_eq!(
            rules_at(ema, "crates/baselines/src/distscroll.rs"),
            vec![(Rule::RawFilter, 1)]
        );
        let gate = "fn f() -> SlewGate { SlewGate::new(120.0, 4) }\n";
        assert_eq!(
            rules_at(gate, "crates/eval/src/runner.rs"),
            vec![(Rule::RawFilter, 1)]
        );
        // Mentions in type position or prose never fire: only the
        // word-bounded constructor tokens do.
        let typed = "fn f(m: &MedianFilter, e: &Ema) -> u16 { m.len() as u16 }\n";
        assert!(rules_at(typed, "crates/core/src/firmware.rs").is_empty());
        let pragmad = concat!(
            "// lint:allow(raw-filter) standby engine smooths the accel channel, not scroll\n",
            "fn f() -> Ema { Ema::new(0.2) }\n",
        );
        assert!(rules_at(pragmad, "crates/core/src/firmware.rs").is_empty());
    }

    #[test]
    fn fixed_tick_flagged_outside_hw_and_tests() {
        let text = "fn f(b: &mut Board, d: SimDuration) { board.step(d); }\n";
        assert_eq!(
            rules_at(text, "crates/eval/src/runner.rs"),
            vec![(Rule::FixedTick, 1)]
        );
        assert_eq!(
            rules_at(text, "examples/quickstart.rs"),
            vec![(Rule::FixedTick, 1)]
        );
        assert!(rules_at(text, "crates/hw/src/board.rs").is_empty());
        let advance = "fn f(c: &mut SimClock, d: SimDuration) { clock.advance(d); }\n";
        assert_eq!(
            rules_at(advance, "crates/core/src/device.rs"),
            vec![(Rule::FixedTick, 1)]
        );
        let in_test = concat!(
            "pub fn ok() {}\n",
            "#[cfg(test)]\n",
            "mod tests {\n",
            "    fn t(b: &mut Board, d: SimDuration) { board.step(d); }\n",
            "}\n",
        );
        assert!(rules_at(in_test, "crates/core/src/firmware.rs").is_empty());
        let pragmad = concat!(
            "// lint:allow(fixed-tick) the event-core dispatch is the sanctioned stepping site\n",
            "fn f(b: &mut Board, d: SimDuration) { board.step(d); }\n",
        );
        assert!(rules_at(pragmad, "crates/core/src/device.rs").is_empty());
    }

    #[test]
    fn hash_collections_flagged_in_lib_code() {
        let text = "use std::collections::HashMap;\n";
        assert_eq!(
            rules_at(text, "crates/host/src/telemetry.rs"),
            vec![(Rule::UnorderedIter, 1)]
        );
        assert!(rules_at(text, "crates/host/tests/t.rs").is_empty());
    }

    #[test]
    fn multiline_raw_strings_are_blanked() {
        let text = concat!(
            "pub fn f() -> &'static str {\n",
            "    r#\"first line .unwrap()\n",
            "    Instant::now() still inside the raw string\n",
            "    \"#\n",
            "}\n",
        );
        assert!(rules_at(text, "crates/eval/src/report.rs").is_empty());
    }

    #[test]
    fn char_literals_and_lifetimes_do_not_derail_the_lexer() {
        let text = concat!(
            "pub fn f(c: char) -> bool { c == '\"' }\n",
            "pub fn g<'a>(s: &'a str) -> &'a str { s }\n",
            "pub fn bad() { Option::<u8>::None.unwrap(); }\n",
        );
        assert_eq!(
            rules_at(text, "crates/core/src/menu.rs"),
            vec![(Rule::PanicHygiene, 3)]
        );
    }

    // --- flow-aware rules ---------------------------------------------------

    #[test]
    fn guard_live_across_fanout_fires() {
        let text = concat!(
            "fn f(m: &std::sync::Mutex<u32>, jobs: &[J]) {\n",
            "    let guard = lock_unpoisoned(m);\n",
            "    par_map(jobs, &(), |_, j| work(j));\n",
            "}\n",
        );
        assert_eq!(
            rules_at(text, "crates/ingest/src/service.rs"),
            vec![(Rule::GuardAcrossFanout, 3)]
        );
    }

    #[test]
    fn guard_dropped_before_fanout_is_clean() {
        let text = concat!(
            "fn f(m: &std::sync::Mutex<u32>, jobs: &[J]) {\n",
            "    let guard = m.lock();\n",
            "    let n = *guard;\n",
            "    drop(guard);\n",
            "    par_map(jobs, &n, |_, j| work(j));\n",
            "}\n",
        );
        assert!(rules_at(text, "crates/ingest/src/service.rs").is_empty());
    }

    #[test]
    fn lock_inside_worker_closure_is_clean() {
        let text = concat!(
            "fn f(shards: &[std::sync::Mutex<S>], jobs: &[J]) {\n",
            "    par_map(jobs, shards, |_, m| {\n",
            "        lock_unpoisoned(m).process_queue();\n",
            "    });\n",
            "}\n",
        );
        assert!(rules_at(text, "crates/ingest/src/service.rs").is_empty());
    }

    #[test]
    fn guard_across_fanout_exempt_inside_par() {
        let text = concat!(
            "fn f(m: &std::sync::Mutex<u32>, jobs: &[J]) {\n",
            "    let guard = m.lock();\n",
            "    par_map(jobs, &(), |_, j| work(j));\n",
            "}\n",
        );
        assert!(rules_at(text, "crates/par/src/pool.rs")
            .iter()
            .all(|(r, _)| *r != Rule::GuardAcrossFanout));
    }

    #[test]
    fn serial_arith_flags_raw_comparisons_on_tainted_bindings() {
        let text = concat!(
            "fn f(record: &Record, last: u16) {\n",
            "    let stamp = record.stamp();\n",
            "    if stamp < last {\n",
            "        resync();\n",
            "    }\n",
            "}\n",
        );
        assert_eq!(
            rules_at(text, "crates/host/src/session.rs"),
            vec![(Rule::SerialArith, 3)]
        );
    }

    #[test]
    fn serial_arith_flags_direct_raw_accessor_arithmetic() {
        let text = "fn f(s: Seq16) -> u16 { s.raw() + 1 }\n";
        assert_eq!(
            rules_at(text, "crates/host/src/session.rs"),
            vec![(Rule::SerialArith, 1)]
        );
    }

    #[test]
    fn serial_arith_laundered_through_rfc1982_helpers_is_clean() {
        let text = concat!(
            "fn f(record: &Record, front: Seq16) {\n",
            "    let stamp = record.stamp();\n",
            "    let delta = u64::from(stamp.wrapping_sub(front));\n",
            "    if delta < SERIAL_HALF {\n",
            "        advance();\n",
            "    }\n",
            "    if stamp.wrapping_sub(front) < HALF {\n",
            "        advance();\n",
            "    }\n",
            "}\n",
        );
        assert!(rules_at(text, "crates/host/src/session.rs").is_empty());
    }

    #[test]
    fn serial_arith_exempt_inside_hw_and_ignores_type_position() {
        let raw = "fn f(s: Seq16, t: Seq16) -> bool { s.raw() < t.raw() }\n";
        assert!(rules_at(raw, "crates/hw/src/arq.rs").is_empty());
        // `Seq16` in type position (generics) is not an operand.
        let types = "fn f(v: Vec<Seq16>) -> usize { v.len() + 1 }\n";
        assert!(rules_at(types, "crates/host/src/session.rs").is_empty());
    }

    #[test]
    fn unused_pragma_is_flagged_at_the_pragma_line() {
        let text = concat!(
            "// lint:allow(panic-hygiene) nothing here panics any more\n",
            "pub fn fine() -> u32 { 7 }\n",
        );
        assert_eq!(
            rules_at(text, "crates/core/src/menu.rs"),
            vec![(Rule::UnusedPragma, 1)]
        );
    }

    #[test]
    fn used_pragma_is_not_flagged() {
        let text = concat!(
            "// lint:allow(panic-hygiene) startup invariant holds here\n",
            "pub fn f() { Some(1).unwrap(); }\n",
        );
        assert!(rules_at(text, "crates/core/src/menu.rs").is_empty());
    }

    #[test]
    fn unused_pragma_cannot_be_suppressed_by_a_pragma() {
        let text = concat!(
            "// lint:allow(unused-pragma) trying to excuse staleness itself\n",
            "pub fn fine() -> u32 { 7 }\n",
        );
        assert_eq!(
            rules_at(text, "crates/core/src/menu.rs"),
            vec![(Rule::UnusedPragma, 1)]
        );
    }

    #[test]
    fn invalid_pragma_is_bad_but_not_also_unused() {
        let text = concat!(
            "// lint:allow(no-such-rule) reason text long enough\n",
            "pub fn fine() -> u32 { 7 }\n",
        );
        assert_eq!(
            rules_at(text, "crates/core/src/menu.rs"),
            vec![(Rule::BadPragma, 1)]
        );
    }

    #[test]
    fn serial_operand_extraction_handles_chains() {
        assert_eq!(
            serial_arith_operand("if record.stamp() < last {", &[]),
            Some("record.stamp()".to_string())
        );
        assert_eq!(
            serial_arith_operand("let d = stamp.wrapping_sub(front) < HALF;", &["stamp"]),
            None
        );
        assert_eq!(
            serial_arith_operand("x += seq.raw();", &[]),
            Some("seq.raw()".to_string())
        );
        assert_eq!(serial_arith_operand("let r = 0..n;", &["n"]), None);
        assert_eq!(serial_arith_operand("fn f() -> u16 {", &[]), None);
    }
}
