//! A small Rust lexer that separates *code* from comments and literal
//! contents, without a full parser (no `syn`, consistent with the
//! vendored-deps policy).
//!
//! The audit rules are token scans, so their one failure mode is a
//! forbidden token appearing inside a string literal or a comment
//! (`"HashMap"` in a doc example must not trip the hash-iter rule).
//! [`mask`] produces a copy of the source in which every comment and
//! every literal body is replaced by spaces — newlines preserved, so
//! line numbers in the masked text match the original — plus the
//! comment and string-literal text per line, which the allow-annotation
//! and `// SAFETY:` checks and the env-access key check read.
//!
//! Handled constructs: line comments (`//`, `///`, `//!`), *nested*
//! block comments, string literals with escapes, raw strings
//! (`r"…"`, `r#"…"#`, any hash depth), byte strings (`b"…"`, `br#"…"#`),
//! char and byte-char literals, raw identifiers (`r#type`), and the
//! char-literal vs. lifetime ambiguity (`'a'` vs. `<'a>` vs.
//! `'outer: loop`).
//!
//! Beyond the masked per-line streams, [`Masked`] records which lines
//! belong to *doc* comments (outer `///`/`/**` and inner `//!`/`/*!`,
//! including every continuation line of a block doc comment), which the
//! allow-annotation parser skips, and the body of every string/char
//! literal, which the env-doc-drift rule reads `QCPA_*` keys from.

/// Which kind of literal a [`LitSpan`] records.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum LitKind {
    /// A string, raw string, or byte string literal.
    Str,
    /// A char or byte-char literal.
    Char,
}

/// One string/char literal: where it starts and what its body says.
#[derive(Debug, Clone)]
pub struct LitSpan {
    /// 0-based line of the opening delimiter (or `b`/`r` prefix).
    pub line: usize,
    /// The literal body (escapes unprocessed, delimiters stripped).
    pub text: String,
    /// String vs. char.
    pub kind: LitKind,
}

/// The result of masking one source file. All line indices are 0-based;
/// callers present them 1-based.
#[derive(Debug, Clone)]
pub struct Masked {
    /// The source with comments and literal bodies blanked to spaces.
    /// Same number of lines as the input.
    pub code: Vec<String>,
    /// Concatenated comment text on each line (without `//` markers
    /// stripped — the raw comment characters, markers included).
    pub comments: Vec<String>,
    /// Concatenated string-literal content on each line.
    pub strings: Vec<String>,
    /// Per-line flag: the line's comment text belongs to a doc comment
    /// (`///`, `//!`, `/** */`, `/*! */`) — including the continuation
    /// lines of multi-line block doc comments, which a prefix check on
    /// the line's own text cannot classify.
    pub doc_comment: Vec<bool>,
    /// Every string/char literal, in source order.
    pub literals: Vec<LitSpan>,
}

impl Masked {
    /// Number of lines in the file.
    pub fn n_lines(&self) -> usize {
        self.code.len()
    }

    /// True when the masked code on `line` is blank (the original line
    /// held only whitespace and/or comment text).
    pub fn is_comment_only(&self, line: usize) -> bool {
        self.code[line].trim().is_empty() && !self.comments[line].trim().is_empty()
    }
}

fn is_ident_char(c: char) -> bool {
    c.is_alphanumeric() || c == '_'
}

/// Masks one source file. Never fails: unterminated constructs extend
/// to end of input, matching what `rustc` would reject anyway.
pub fn mask(src: &str) -> Masked {
    let chars: Vec<char> = src.chars().collect();
    let mut out = MaskWriter::new();
    let mut i = 0usize;
    // The last non-whitespace char emitted as code, to tell `r"…"`
    // (raw string) from `var"…"` (identifier ending in r — not Rust,
    // but the lexer must not panic) and to keep `br`/`b` prefixes
    // from triggering mid-identifier.
    let mut prev_code: Option<char> = None;
    while i < chars.len() {
        let c = chars[i];
        let next = chars.get(i + 1).copied();
        match c {
            '/' if next == Some('/') => {
                // `///` (but not `////`) and `//!` are doc comments.
                let doc = match (chars.get(i + 2), chars.get(i + 3)) {
                    (Some('!'), _) => true,
                    (Some('/'), Some('/')) => false,
                    (Some('/'), _) => true,
                    _ => false,
                };
                while i < chars.len() && chars[i] != '\n' {
                    out.comment(chars[i], doc);
                    i += 1;
                }
            }
            '/' if next == Some('*') => {
                // `/**` (but not `/***` or the empty `/**/`) and `/*!`
                // open doc comments; every line they span is doc.
                let doc = match (chars.get(i + 2), chars.get(i + 3)) {
                    (Some('!'), _) => true,
                    (Some('*'), Some('*')) | (Some('*'), Some('/')) => false,
                    (Some('*'), _) => true,
                    _ => false,
                };
                let mut depth = 0usize;
                while i < chars.len() {
                    if chars[i] == '/' && chars.get(i + 1) == Some(&'*') {
                        depth += 1;
                        out.comment('/', doc);
                        out.comment('*', doc);
                        i += 2;
                    } else if chars[i] == '*' && chars.get(i + 1) == Some(&'/') {
                        depth -= 1;
                        out.comment('*', doc);
                        out.comment('/', doc);
                        i += 2;
                        if depth == 0 {
                            break;
                        }
                    } else {
                        out.comment(chars[i], doc);
                        i += 1;
                    }
                }
            }
            '"' => {
                out.begin_lit(LitKind::Str);
                i = consume_string(&chars, i, &mut out);
                out.end_lit();
                prev_code = Some('"');
            }
            'r' | 'b' if prev_code.is_none_or(|p| !is_ident_char(p)) => {
                if let Some(end) = raw_string_end(&chars, i) {
                    // r"…" / r#"…"# / br"…" / br##"…"## — mask the lot.
                    let mut j = i;
                    let hashes = count_hashes(&chars, i);
                    out.begin_lit(LitKind::Str);
                    // Skip prefix + hashes + opening quote.
                    while j < chars.len() && chars[j] != '"' {
                        out.blank(chars[j]);
                        j += 1;
                    }
                    out.blank('"');
                    j += 1;
                    while j < end {
                        out.string_body(chars[j]);
                        j += 1;
                    }
                    // Closing quote + hashes.
                    let close = (end + 1 + hashes).min(chars.len());
                    while j < close {
                        out.blank(chars[j]);
                        j += 1;
                    }
                    out.end_lit();
                    i = j;
                    prev_code = Some('"');
                } else if c == 'b' && next == Some('"') {
                    out.begin_lit(LitKind::Str);
                    out.blank('b');
                    i = consume_string(&chars, i + 1, &mut out);
                    out.end_lit();
                    prev_code = Some('"');
                } else if c == 'b' && next == Some('\'') {
                    out.begin_lit(LitKind::Char);
                    out.blank('b');
                    i = consume_char_literal(&chars, i + 1, &mut out);
                    out.end_lit();
                    prev_code = Some('\'');
                } else if c == 'r'
                    && next == Some('#')
                    && chars
                        .get(i + 2)
                        .is_some_and(|&c| is_ident_char(c) && !c.is_ascii_digit())
                {
                    // Raw identifier (`r#type`): one identifier token,
                    // kept in code, prefix included so columns stay
                    // aligned.
                    out.code('r');
                    out.code('#');
                    i += 2;
                    while i < chars.len() && is_ident_char(chars[i]) {
                        out.code(chars[i]);
                        prev_code = Some(chars[i]);
                        i += 1;
                    }
                } else {
                    out.code(c);
                    prev_code = Some(c);
                    i += 1;
                }
            }
            '\'' => {
                if is_char_literal(&chars, i) {
                    out.begin_lit(LitKind::Char);
                    i = consume_char_literal(&chars, i, &mut out);
                    out.end_lit();
                    prev_code = Some('\'');
                } else {
                    // Lifetime or loop label: plain code.
                    out.code('\'');
                    prev_code = Some('\'');
                    i += 1;
                }
            }
            '\n' => {
                out.newline();
                i += 1;
            }
            _ => {
                out.code(c);
                if !c.is_whitespace() {
                    prev_code = Some(c);
                }
                i += 1;
            }
        }
    }
    out.finish()
}

/// At `chars[i] == '\''`: char literal, or lifetime/label?
fn is_char_literal(chars: &[char], i: usize) -> bool {
    match chars.get(i + 1) {
        None => false,
        Some('\\') => true,
        Some(_) => chars.get(i + 2) == Some(&'\''),
    }
}

/// Consumes a char literal starting at the opening quote; returns the
/// index just past the closing quote.
fn consume_char_literal(chars: &[char], i: usize, out: &mut MaskWriter) -> usize {
    debug_assert_eq!(chars[i], '\'');
    out.blank('\'');
    let mut j = i + 1;
    while j < chars.len() {
        match chars[j] {
            '\\' => {
                out.string_body('\\');
                j += 1;
                if j < chars.len() {
                    out.string_body(chars[j]);
                    j += 1;
                }
            }
            '\'' => {
                out.blank('\'');
                return j + 1;
            }
            c => {
                out.string_body(c);
                j += 1;
            }
        }
    }
    j
}

/// Consumes a `"…"` string starting at the opening quote; returns the
/// index just past the closing quote.
fn consume_string(chars: &[char], i: usize, out: &mut MaskWriter) -> usize {
    debug_assert_eq!(chars[i], '"');
    out.blank('"');
    let mut j = i + 1;
    while j < chars.len() {
        match chars[j] {
            '\\' => {
                out.string_body('\\');
                j += 1;
                if j < chars.len() {
                    out.string_body(chars[j]);
                    j += 1;
                }
            }
            '"' => {
                out.blank('"');
                return j + 1;
            }
            c => {
                out.string_body(c);
                j += 1;
            }
        }
    }
    j
}

/// Number of `#` between a raw-string prefix at `i` and its quote.
fn count_hashes(chars: &[char], i: usize) -> usize {
    let mut j = i + 1;
    if chars.get(i) == Some(&'b') {
        j += 1; // skip the `r` of `br`
    }
    let mut hashes = 0;
    while chars.get(j) == Some(&'#') {
        hashes += 1;
        j += 1;
    }
    hashes
}

/// If `chars[i..]` starts a raw (byte) string (`r"`, `r#"`, `br"`, …),
/// returns the index of the *closing quote*; otherwise `None`.
fn raw_string_end(chars: &[char], i: usize) -> Option<usize> {
    let mut j = i;
    if chars.get(j) == Some(&'b') {
        j += 1;
    }
    if chars.get(j) != Some(&'r') {
        return None;
    }
    j += 1;
    let mut hashes = 0usize;
    while chars.get(j) == Some(&'#') {
        hashes += 1;
        j += 1;
    }
    if chars.get(j) != Some(&'"') {
        return None;
    }
    j += 1;
    // Find `"` followed by `hashes` hash marks.
    while j < chars.len() {
        if chars[j] == '"' && chars[j + 1..].iter().take_while(|&&c| c == '#').count() >= hashes {
            return Some(j);
        }
        j += 1;
    }
    Some(chars.len().saturating_sub(1))
}

/// Accumulates the three per-line streams while tracking the current line.
struct MaskWriter {
    code: Vec<String>,
    comments: Vec<String>,
    strings: Vec<String>,
    doc_comment: Vec<bool>,
    literals: Vec<LitSpan>,
    /// The literal being accumulated, when inside one.
    lit: Option<LitSpan>,
}

impl MaskWriter {
    fn new() -> Self {
        Self {
            code: vec![String::new()],
            comments: vec![String::new()],
            strings: vec![String::new()],
            doc_comment: vec![false],
            literals: Vec::new(),
            lit: None,
        }
    }

    fn newline(&mut self) {
        self.code.push(String::new());
        self.comments.push(String::new());
        self.strings.push(String::new());
        self.doc_comment.push(false);
    }

    /// A genuine code character.
    fn code(&mut self, c: char) {
        if c == '\n' {
            self.newline();
        } else {
            let line = self.code.len() - 1;
            self.code[line].push(c);
        }
    }

    /// A character inside a comment: blank in code, kept in comments.
    /// `doc` marks the line as doc-comment text.
    fn comment(&mut self, c: char, doc: bool) {
        if c == '\n' {
            self.newline();
        } else {
            let line = self.code.len() - 1;
            self.code[line].push(' ');
            self.comments[line].push(c);
            if doc {
                self.doc_comment[line] = true;
            }
        }
    }

    /// A character inside a string/char literal body: blank in code,
    /// kept in strings (and in the active literal span).
    fn string_body(&mut self, c: char) {
        if let Some(lit) = &mut self.lit {
            lit.text.push(c);
        }
        if c == '\n' {
            self.newline();
        } else {
            let line = self.code.len() - 1;
            self.code[line].push(' ');
            self.strings[line].push(c);
        }
    }

    /// A structural literal character (quote, raw prefix): blank
    /// everywhere.
    fn blank(&mut self, c: char) {
        if c == '\n' {
            self.newline();
        } else {
            let line = self.code.len() - 1;
            self.code[line].push(' ');
        }
    }

    /// Opens a literal span on the current line.
    fn begin_lit(&mut self, kind: LitKind) {
        self.lit = Some(LitSpan {
            line: self.code.len() - 1,
            text: String::new(),
            kind,
        });
    }

    /// Closes the current literal span.
    fn end_lit(&mut self) {
        if let Some(lit) = self.lit.take() {
            self.literals.push(lit);
        }
    }

    fn finish(self) -> Masked {
        Masked {
            code: self.code,
            comments: self.comments,
            strings: self.strings,
            doc_comment: self.doc_comment,
            literals: self.literals,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn code_of(src: &str) -> String {
        mask(src).code.join("\n")
    }

    #[test]
    fn line_comments_masked() {
        let m = mask("let x = 1; // uses HashMap\nlet y = 2;");
        assert!(!m.code[0].contains("HashMap"));
        assert!(m.comments[0].contains("HashMap"));
        assert_eq!(m.code[1], "let y = 2;");
    }

    #[test]
    fn nested_block_comments() {
        let src = "a /* one /* two */ still comment */ b";
        let c = code_of(src);
        assert!(c.contains('a') && c.contains('b'));
        assert!(!c.contains("comment"));
    }

    #[test]
    fn block_comment_spans_lines() {
        let m = mask("x /* HashMap\n still HashMap */ y");
        assert!(!m.code[0].contains("HashMap"));
        assert!(!m.code[1].contains("HashMap"));
        assert!(m.comments[0].contains("HashMap"));
        assert!(m.comments[1].contains("HashMap"));
        assert!(m.code[1].contains('y'));
        assert_eq!(m.n_lines(), 2);
    }

    #[test]
    fn strings_masked_and_captured() {
        let m = mask("call(\"has .unwrap() inside\");");
        assert!(!m.code[0].contains("unwrap"));
        assert!(m.strings[0].contains(".unwrap()"));
        assert!(m.code[0].contains("call("));
    }

    #[test]
    fn escaped_quote_does_not_terminate() {
        let m = mask(r#"f("a\"b.unwrap()"); g()"#);
        assert!(!m.code[0].contains("unwrap"));
        assert!(m.code[0].contains("g()"));
    }

    #[test]
    fn raw_strings_masked() {
        let src = "let s = r#\"raw .unwrap() \"quoted\" body\"#; h()";
        let m = mask(src);
        assert!(!m.code[0].contains("unwrap"));
        assert!(m.code[0].contains("h()"));
        assert!(m.strings[0].contains(".unwrap()"));
    }

    #[test]
    fn raw_string_hash_depth_respected() {
        let src = "let s = r##\"inner \"# not end\"##; tail()";
        let m = mask(src);
        assert!(m.code[0].contains("tail()"));
        assert!(!m.code[0].contains("not end"));
    }

    #[test]
    fn byte_strings_masked() {
        let m = mask("let b = b\"unwrap()\"; k()");
        assert!(!m.code[0].contains("unwrap"));
        assert!(m.code[0].contains("k()"));
    }

    #[test]
    fn char_literals_vs_lifetimes() {
        let m = mask("fn f<'a>(x: &'a str) { let q = 'q'; let n = '\\n'; }");
        // Lifetimes survive as code; char bodies do not.
        assert!(m.code[0].contains("<'a>"));
        assert!(m.code[0].contains("&'a str"));
        assert!(!m.code[0].contains("'q'"));
        assert!(m.strings[0].contains('q'));
    }

    #[test]
    fn loop_labels_are_code() {
        let m = mask("'outer: loop { break 'outer; }");
        assert!(m.code[0].contains("'outer: loop"));
        assert!(m.code[0].contains("break 'outer;"));
    }

    #[test]
    fn unicode_escape_char_literal() {
        let m = mask("let c = '\\u{1F600}'; done()");
        assert!(m.code[0].contains("done()"));
        assert!(!m.code[0].contains("1F600"));
    }

    #[test]
    fn identifier_ending_in_r_not_raw_string() {
        let m = mask("for r in 0..3 { s.push_str(\"x\"); }");
        assert!(m.code[0].contains("for r in 0..3"));
    }

    #[test]
    fn byte_char_literal() {
        let m = mask("let b = b'x'; rest()");
        assert!(m.code[0].contains("rest()"));
        assert!(!m.code[0].contains("'x'"));
    }

    #[test]
    fn multiline_string_keeps_line_count() {
        let src = "a(\"one\ntwo\nthree\") ; b";
        let m = mask(src);
        assert_eq!(m.n_lines(), 3);
        assert!(m.code[2].contains("; b"));
        assert!(m.strings[1].contains("two"));
    }

    #[test]
    fn comment_only_detection() {
        let m = mask("// just a comment\nlet x = 1; // trailing\n\n");
        assert!(m.is_comment_only(0));
        assert!(!m.is_comment_only(1));
        assert!(!m.is_comment_only(2));
    }

    #[test]
    fn doc_comment_lines_classified() {
        let m = mask("//! inner doc\n/// outer doc\n// plain\n//// not doc\nlet x = 1;\n");
        assert_eq!(m.doc_comment[..5], [true, true, false, false, false]);
    }

    #[test]
    fn block_doc_comment_marks_continuation_lines() {
        let m = mask("/*! inner block\n continues here\n*/\n/* plain block\n tail */\n");
        assert!(m.doc_comment[0] && m.doc_comment[1] && m.doc_comment[2]);
        assert!(!m.doc_comment[3] && !m.doc_comment[4]);
        let m = mask("/** outer block\n second line */ code()\n");
        assert!(m.doc_comment[0] && m.doc_comment[1]);
        // `/**/` (empty) and `/***/` are not doc comments.
        assert!(!mask("/**/ x\n").doc_comment[0]);
        assert!(!mask("/*** banner ***/ x\n").doc_comment[0]);
    }

    #[test]
    fn raw_identifiers_stay_code() {
        let m = mask("let r#type = r#match.r#fn; struct r#struct;\n");
        assert!(m.code[0].contains("r#type"));
        assert!(m.code[0].contains("r#match"));
        assert!(m.code[0].contains("r#struct"));
        assert!(m.literals.is_empty());
        // A raw *string* right after is still a string.
        let m = mask("let a = r#type; let s = r#\"body\"#;\n");
        assert!(m.code[0].contains("r#type"));
        assert!(!m.code[0].contains("body"));
        assert_eq!(m.literals.len(), 1);
    }

    #[test]
    fn literal_spans_record_position_and_body() {
        let m = mask("let s = \"abc\"; let c = 'x'; let r = r#\"raw\"#;\n");
        assert_eq!(m.literals.len(), 3);
        assert_eq!(m.literals[0].text, "abc");
        assert_eq!(m.literals[0].kind, LitKind::Str);
        assert_eq!(m.literals[0].line, 0);
        assert_eq!(m.literals[1].text, "x");
        assert_eq!(m.literals[1].kind, LitKind::Char);
        assert_eq!(m.literals[2].text, "raw");
        let m = mask("f(b\"xy\", b'z')\n");
        assert_eq!(m.literals[0].text, "xy");
        assert_eq!(m.literals[1].text, "z");
    }

    #[test]
    fn multiline_literal_span_keeps_start() {
        let m = mask("let s = \"one\ntwo\";\n");
        assert_eq!(m.literals.len(), 1);
        assert_eq!(m.literals[0].line, 0);
        assert_eq!(m.literals[0].text, "one\ntwo");
    }
}
