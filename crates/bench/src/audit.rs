//! Source audit: enumerate every scrutiny-worthy site in the
//! workspace's own sources and require each to carry an adjacent
//! justification comment.
//!
//! Four kinds of site are tracked:
//!
//! * **`unsafe`** (block, fn, impl, trait) — requires `// SAFETY:`.
//!   The only `unsafe` is the allocator code: obskit's tracking
//!   allocator and the raw-allocation timing loop in `obs_overhead`
//!   (see DESIGN.md's unsafe-code policy).
//! * **`static mut`** — requires `// SAFETY:`. The most race-prone
//!   shape of shared state; the steady-state count is zero.
//! * **`transmute`** — requires `// SAFETY:`, *in addition to* the
//!   `unsafe` block it necessarily sits in: the justification must
//!   cover the reinterpretation itself, not just the block.
//! * **`#[allow(clippy::…)]`** — requires `// ALLOW:`. Lint opt-outs
//!   are policy exceptions; each must say why the lint does not apply,
//!   so the exception list stays reviewable instead of accreting.
//!
//! The justification may sit on the same line (a trailing comment) or
//! within the [`SAFETY_COMMENT_WINDOW`] preceding non-empty lines.
//! Vendored third-party sources (`vendor/`) and build output
//! (`target/`) are out of scope — we audit our code, not our
//! dependencies'.
//!
//! The scanner is a small lexer, not a parser: it strips line comments,
//! block comments, string and char literals, then looks for the tokens
//! at word boundaries. That is exact for the token stream — `unsafe`
//! inside a string or comment never matches, and `unsafe_code` in a
//! `forbid` attribute or `transmute_copy` never word-boundary-match.

use std::collections::BTreeMap;
use std::path::{Path, PathBuf};

/// What kind of scrutiny-worthy construct a [`Site`] is.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum SiteKind {
    /// An `unsafe` block, fn, impl or trait.
    Unsafe,
    /// A `static mut` item.
    StaticMut,
    /// A `transmute` call (audited independently of its `unsafe` block).
    Transmute,
    /// A `#[allow(clippy::…)]` / `#![allow(clippy::…)]` lint opt-out.
    ClippyAllow,
}

impl SiteKind {
    /// The comment token that justifies this kind of site.
    pub fn required_token(self) -> &'static str {
        match self {
            SiteKind::Unsafe | SiteKind::StaticMut | SiteKind::Transmute => "SAFETY:",
            SiteKind::ClippyAllow => "ALLOW:",
        }
    }

    /// Human-readable label for reports.
    pub fn label(self) -> &'static str {
        match self {
            SiteKind::Unsafe => "unsafe",
            SiteKind::StaticMut => "static-mut",
            SiteKind::Transmute => "transmute",
            SiteKind::ClippyAllow => "clippy-allow",
        }
    }
}

/// One audited occurrence in a source file.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Site {
    /// Path as reported (relative to the scan root).
    pub file: String,
    /// 1-based line number of the token.
    pub line: usize,
    /// The construct found there.
    pub kind: SiteKind,
    /// Whether the required justification comment is adjacent.
    pub documented: bool,
}

impl Site {
    /// The crate this site belongs to: `crates/<name>/…` maps to
    /// `<name>`, anything else to the root package.
    pub fn crate_name(&self) -> &str {
        let mut parts = self.file.split(['/', '\\']);
        match (parts.next(), parts.next()) {
            (Some("crates"), Some(name)) => name,
            _ => "formal-feedback",
        }
    }
}

/// Per-crate tallies of `(total, undocumented)` sites by kind.
pub fn per_crate_counts(sites: &[Site]) -> BTreeMap<String, BTreeMap<SiteKind, (usize, usize)>> {
    let mut out: BTreeMap<String, BTreeMap<SiteKind, (usize, usize)>> = BTreeMap::new();
    for site in sites {
        let entry = out
            .entry(site.crate_name().to_owned())
            .or_default()
            .entry(site.kind)
            .or_insert((0, 0));
        entry.0 += 1;
        if !site.documented {
            entry.1 += 1;
        }
    }
    out
}

/// Strips comments and string/char literals from Rust source, preserving
/// line structure (every removed character becomes a space, newlines
/// survive), so token positions stay on their original lines.
fn strip_non_code(source: &str) -> String {
    #[derive(PartialEq)]
    enum State {
        Code,
        LineComment,
        BlockComment(usize),
        Str,
        RawStr(usize),
        Char,
    }
    let mut out = String::with_capacity(source.len());
    let mut state = State::Code;
    let bytes: Vec<char> = source.chars().collect();
    let mut i = 0;
    while i < bytes.len() {
        let c = bytes[i];
        let next = bytes.get(i + 1).copied();
        match state {
            State::Code => match c {
                '/' if next == Some('/') => {
                    state = State::LineComment;
                    out.push(' ');
                }
                '/' if next == Some('*') => {
                    state = State::BlockComment(1);
                    out.push(' ');
                }
                '"' => {
                    state = State::Str;
                    out.push(' ');
                }
                'r' if next == Some('"') || next == Some('#') => {
                    // Possible raw string r"…" / r#"…"#.
                    let mut hashes = 0;
                    let mut j = i + 1;
                    while bytes.get(j) == Some(&'#') {
                        hashes += 1;
                        j += 1;
                    }
                    if bytes.get(j) == Some(&'"') {
                        state = State::RawStr(hashes);
                        for _ in i..=j {
                            out.push(' ');
                        }
                        i = j + 1;
                        continue;
                    }
                    out.push(c);
                }
                '\'' => {
                    // Char literal vs lifetime: a lifetime is '<ident>
                    // with no closing quote right after.
                    let is_lifetime = next.is_some_and(|n| n.is_alphabetic() || n == '_')
                        && bytes.get(i + 2) != Some(&'\'');
                    if is_lifetime {
                        out.push(c);
                    } else {
                        state = State::Char;
                        out.push(' ');
                    }
                }
                _ => out.push(c),
            },
            State::LineComment => {
                if c == '\n' {
                    state = State::Code;
                    out.push('\n');
                } else {
                    out.push(' ');
                }
            }
            State::BlockComment(depth) => {
                if c == '*' && next == Some('/') {
                    state = if depth == 1 {
                        State::Code
                    } else {
                        State::BlockComment(depth - 1)
                    };
                    out.push(' ');
                    out.push(' ');
                    i += 2;
                    continue;
                } else if c == '/' && next == Some('*') {
                    state = State::BlockComment(depth + 1);
                    out.push(' ');
                    out.push(' ');
                    i += 2;
                    continue;
                } else if c == '\n' {
                    out.push('\n');
                } else {
                    out.push(' ');
                }
            }
            State::Str => match c {
                '\\' => {
                    out.push(' ');
                    if next.is_some() {
                        out.push(' ');
                        i += 2;
                        continue;
                    }
                }
                '"' => {
                    state = State::Code;
                    out.push(' ');
                }
                '\n' => out.push('\n'),
                _ => out.push(' '),
            },
            State::RawStr(hashes) => {
                if c == '"' {
                    let mut matched = true;
                    for k in 0..hashes {
                        if bytes.get(i + 1 + k) != Some(&'#') {
                            matched = false;
                            break;
                        }
                    }
                    if matched {
                        state = State::Code;
                        for _ in 0..=hashes {
                            out.push(' ');
                        }
                        i += 1 + hashes;
                        continue;
                    }
                }
                if c == '\n' {
                    out.push('\n');
                } else {
                    out.push(' ');
                }
            }
            State::Char => match c {
                '\\' => {
                    out.push(' ');
                    if next.is_some() {
                        out.push(' ');
                        i += 2;
                        continue;
                    }
                }
                '\'' => {
                    state = State::Code;
                    out.push(' ');
                }
                '\n' => out.push('\n'),
                _ => out.push(' '),
            },
        }
        i += 1;
    }
    out
}

/// Whether `code_line` contains `word` at identifier boundaries.
fn has_word(code_line: &str, word: &str) -> bool {
    let is_ident = |c: char| c.is_alphanumeric() || c == '_';
    let mut rest = code_line;
    while let Some(pos) = rest.find(word) {
        let before_ok = pos == 0 || !rest[..pos].chars().next_back().is_some_and(is_ident);
        let after_ok = !rest[pos + word.len()..]
            .chars()
            .next()
            .is_some_and(is_ident);
        if before_ok && after_ok {
            return true;
        }
        rest = &rest[pos + word.len()..];
    }
    false
}

/// A word-boundary `static` directly followed (modulo whitespace) by a
/// word-boundary `mut` on one stripped line.
fn has_static_mut(code_line: &str) -> bool {
    let is_ident = |c: char| c.is_alphanumeric() || c == '_';
    let mut offset = 0;
    while let Some(pos) = code_line[offset..].find("static") {
        let abs = offset + pos;
        let before_ok = abs == 0 || !code_line[..abs].chars().next_back().is_some_and(is_ident);
        let after = &code_line[abs + 6..];
        if before_ok && !after.chars().next().is_some_and(is_ident) {
            let rest = after.trim_start();
            if rest.starts_with("mut") && !rest.chars().nth(3).is_some_and(is_ident) {
                return true;
            }
        }
        offset = abs + 6;
    }
    false
}

/// Detects the site kinds present on one stripped code line.
fn kinds_on_line(code_line: &str) -> Vec<SiteKind> {
    let mut kinds = Vec::new();
    if has_word(code_line, "unsafe") {
        kinds.push(SiteKind::Unsafe);
    }
    if has_static_mut(code_line) {
        kinds.push(SiteKind::StaticMut);
    }
    if has_word(code_line, "transmute") {
        kinds.push(SiteKind::Transmute);
    }
    if code_line.contains("allow(clippy::") {
        kinds.push(SiteKind::ClippyAllow);
    }
    kinds
}

/// How many non-empty lines above a site the justification comment may
/// start. Large enough for a thorough multi-line justification, small
/// enough that the comment is adjacent to the site.
pub const SAFETY_COMMENT_WINDOW: usize = 8;

/// Scans one file's source text for audited sites. `file` is the label
/// recorded in the findings.
pub fn scan_source(file: &str, source: &str) -> Vec<Site> {
    let stripped = strip_non_code(source);
    let code_lines: Vec<&str> = stripped.lines().collect();
    let raw_lines: Vec<&str> = source.lines().collect();
    let mut sites = Vec::new();
    for (idx, code_line) in code_lines.iter().enumerate() {
        for kind in kinds_on_line(code_line) {
            // Look for the justification token in the original text (it
            // lives in comments, which the stripped view erased): first
            // as a trailing comment on the site's own line, then within
            // the preceding window of non-empty lines.
            let token = kind.required_token();
            let mut documented = raw_lines.get(idx).is_some_and(|l| l.contains(token));
            let mut seen = 0;
            for back in raw_lines[..idx].iter().rev() {
                if documented {
                    break;
                }
                if back.trim().is_empty() {
                    continue;
                }
                if back.contains(token) {
                    documented = true;
                    break;
                }
                seen += 1;
                if seen >= SAFETY_COMMENT_WINDOW {
                    break;
                }
            }
            sites.push(Site {
                file: file.to_owned(),
                line: idx + 1,
                kind,
                documented,
            });
        }
    }
    sites
}

fn walk(dir: &Path, files: &mut Vec<PathBuf>) -> std::io::Result<()> {
    for entry in std::fs::read_dir(dir)? {
        let entry = entry?;
        let path = entry.path();
        let name = entry.file_name();
        let name = name.to_string_lossy();
        if path.is_dir() {
            if name == "vendor" || name == "target" || name.starts_with('.') {
                continue;
            }
            walk(&path, files)?;
        } else if name.ends_with(".rs") {
            files.push(path);
        }
    }
    Ok(())
}

/// Audits every `.rs` file under `root` (skipping `vendor/`, `target/`
/// and hidden directories). Paths in the findings are relative to
/// `root`. Files are visited in sorted order, so output is
/// deterministic.
///
/// # Errors
///
/// Propagates I/O errors from traversal or reading.
pub fn audit_tree(root: &Path) -> std::io::Result<Vec<Site>> {
    let mut files = Vec::new();
    walk(root, &mut files)?;
    files.sort();
    let mut sites = Vec::new();
    for path in files {
        let source = std::fs::read_to_string(&path)?;
        let label = path
            .strip_prefix(root)
            .unwrap_or(&path)
            .to_string_lossy()
            .into_owned();
        sites.extend(scan_source(&label, &source));
    }
    Ok(sites)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn flags_undocumented_unsafe_block() {
        let src = "fn f() {\n    let x = unsafe { danger() };\n}\n";
        let sites = scan_source("x.rs", src);
        assert_eq!(sites.len(), 1);
        assert_eq!(sites[0].line, 2);
        assert_eq!(sites[0].kind, SiteKind::Unsafe);
        assert!(!sites[0].documented);
    }

    #[test]
    fn flags_static_mut_and_transmute_separately() {
        let src = "static mut COUNTER: u32 = 0;\n\
                   let y = unsafe { std::mem::transmute::<A, B>(x) };\n";
        let sites = scan_source("x.rs", src);
        let kinds: Vec<(SiteKind, usize)> = sites.iter().map(|s| (s.kind, s.line)).collect();
        assert_eq!(
            kinds,
            vec![
                (SiteKind::StaticMut, 1),
                (SiteKind::Unsafe, 2),
                (SiteKind::Transmute, 2),
            ]
        );
        assert!(sites.iter().all(|s| !s.documented));
    }

    #[test]
    fn static_without_mut_and_mutex_do_not_match() {
        let src = "static OK: u32 = 0;\n\
                   static LOCK: Mutex<u32> = Mutex::new(0);\n\
                   static mutex_like: u8 = 0;\n\
                   let transmuted = 1;\n";
        assert!(scan_source("x.rs", src).is_empty());
    }

    #[test]
    fn clippy_allow_requires_allow_comment() {
        let bare = "#[allow(clippy::unwrap_used)]\nfn f() {}\n";
        let sites = scan_source("x.rs", bare);
        assert_eq!(sites.len(), 1);
        assert_eq!(sites[0].kind, SiteKind::ClippyAllow);
        assert!(!sites[0].documented);

        let tagged = "// ALLOW: test helper, panics are the point.\n\
                      #[allow(clippy::unwrap_used)]\nfn f() {}\n";
        let sites = scan_source("x.rs", tagged);
        assert_eq!(sites.len(), 1);
        assert!(sites[0].documented);

        // A SAFETY: comment does not satisfy an ALLOW site.
        let wrong = "// SAFETY: not the right token.\n\
                     #[allow(clippy::unwrap_used)]\nfn f() {}\n";
        assert!(!scan_source("x.rs", wrong)[0].documented);

        // Non-clippy allows (rustc lints) are not audited.
        let rustc = "#[allow(dead_code)]\nfn f() {}\n";
        assert!(scan_source("x.rs", rustc).is_empty());
    }

    #[test]
    fn trailing_comment_on_the_same_line_counts() {
        let src = "#![allow(clippy::expect_used)] // ALLOW: bin entrypoint.\n";
        let sites = scan_source("x.rs", src);
        assert_eq!(sites.len(), 1);
        assert!(sites[0].documented);
    }

    #[test]
    fn per_crate_counts_split_by_crate_and_kind() {
        let sites = vec![
            Site {
                file: "crates/parkit/src/pool.rs".into(),
                line: 1,
                kind: SiteKind::Unsafe,
                documented: true,
            },
            Site {
                file: "crates/parkit/src/pool.rs".into(),
                line: 2,
                kind: SiteKind::Transmute,
                documented: false,
            },
            Site {
                file: "src/main.rs".into(),
                line: 3,
                kind: SiteKind::ClippyAllow,
                documented: true,
            },
        ];
        let counts = per_crate_counts(&sites);
        assert_eq!(counts["parkit"][&SiteKind::Unsafe], (1, 0));
        assert_eq!(counts["parkit"][&SiteKind::Transmute], (1, 1));
        assert_eq!(counts["formal-feedback"][&SiteKind::ClippyAllow], (1, 0));
    }

    #[test]
    fn accepts_documented_unsafe_block() {
        let src = "fn f() {\n    // SAFETY: the pointer is valid for the call.\n    let x = unsafe { danger() };\n}\n";
        let sites = scan_source("x.rs", src);
        assert_eq!(sites.len(), 1);
        assert!(sites[0].documented);
    }

    #[test]
    fn safety_comment_beyond_window_does_not_count() {
        let mut src = String::from("// SAFETY: too far away.\n");
        for i in 0..SAFETY_COMMENT_WINDOW + 1 {
            src.push_str(&format!("let filler_{i} = {i};\n"));
        }
        src.push_str("unsafe { danger() };\n");
        let sites = scan_source("x.rs", &src);
        assert_eq!(sites.len(), 1);
        assert!(!sites[0].documented);
    }

    #[test]
    fn ignores_unsafe_in_comments_strings_and_identifiers() {
        let src = concat!(
            "#![forbid(unsafe_code)]\n",
            "// this comment says unsafe { }\n",
            "/* unsafe here too */\n",
            "let s = \"unsafe in a string\";\n",
            "let r = r#\"unsafe raw\"#;\n",
            "fn unsafe_sounding_name() {}\n",
            "let c = 'u'; let lt: &'static str = \"x\";\n",
        );
        assert!(scan_source("x.rs", src).is_empty());
    }

    #[test]
    fn catches_unsafe_fn_impl_and_trait() {
        let src = "unsafe fn f() {}\nunsafe impl Send for T {}\nunsafe trait U {}\n";
        let sites = scan_source("x.rs", src);
        assert_eq!(sites.len(), 3);
        assert_eq!(
            sites.iter().map(|s| s.line).collect::<Vec<_>>(),
            vec![1, 2, 3]
        );
    }

    #[test]
    fn multiline_safety_comment_documents_the_site() {
        let src = "\
// SAFETY: a long justification that spans
// several comment lines before the block
// and still counts as adjacent.
unsafe { danger() };
";
        let sites = scan_source("x.rs", src);
        assert_eq!(sites.len(), 1);
        assert!(sites[0].documented);
    }
}
