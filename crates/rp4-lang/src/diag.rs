//! Structured diagnostics with rustc-style rendering.
//!
//! Every front-end and verifier finding is a [`Diagnostic`] carrying a
//! stable `RP4xxx` code, a severity, an optional [`Span`], and notes. The
//! renderer produces the familiar
//!
//! ```text
//! error[RP4102]: stage `acl` writes `ipv4.ttl` which stage `fib` reads
//!   --> base.rp4:12:7
//!    |
//! 12 | stage acl {
//!    |       ^^^
//!    = note: reorder the stages or split the write into its own stage
//! ```
//!
//! layout when source text is available, and a single-line form otherwise.

use crate::span::{ItemKind, Span};

/// How serious a finding is.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum Severity {
    /// Suspicious but legal; fatal only under `--deny-warnings`.
    Warning,
    /// The program or plan is invalid.
    Error,
}

impl std::fmt::Display for Severity {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Severity::Warning => write!(f, "warning"),
            Severity::Error => write!(f, "error"),
        }
    }
}

/// One finding from the front end or the verifier.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Diagnostic {
    /// Stable code, e.g. `RP4101`.
    pub code: String,
    /// Error or warning.
    pub severity: Severity,
    /// Where in the source, when known.
    pub span: Option<Span>,
    /// Primary message.
    pub message: String,
    /// Supplementary `= note:` lines.
    pub notes: Vec<String>,
    /// Root-cause key: the `(kind, name)` items the finding is about. Never
    /// rendered; two analysers' findings about one item are deduplicated
    /// by comparing keys.
    pub key: Vec<(ItemKind, String)>,
}

impl Diagnostic {
    /// An error with the given code and message.
    pub fn error(code: &str, message: impl Into<String>) -> Self {
        Diagnostic {
            code: code.to_string(),
            severity: Severity::Error,
            span: None,
            message: message.into(),
            notes: vec![],
            key: vec![],
        }
    }

    /// A warning with the given code and message.
    pub fn warning(code: &str, message: impl Into<String>) -> Self {
        Diagnostic {
            severity: Severity::Warning,
            ..Diagnostic::error(code, message)
        }
    }

    /// Attaches a span (builder-style).
    pub fn with_span(mut self, span: Option<Span>) -> Self {
        self.span = span;
        self
    }

    /// Appends a note (builder-style).
    pub fn with_note(mut self, note: impl Into<String>) -> Self {
        self.notes.push(note.into());
        self
    }

    /// Adds an item to the root-cause key (builder-style).
    pub fn with_key(mut self, kind: ItemKind, name: impl Into<String>) -> Self {
        self.key.push((kind, name.into()));
        self
    }

    /// The single-line form: `error[RP4101]: message`.
    pub fn header(&self) -> String {
        format!("{}[{}]: {}", self.severity, self.code, self.message)
    }

    /// Full rustc-style rendering. `source` enables the quoted snippet;
    /// `filename` labels the location line.
    pub fn render(&self, source: Option<&str>, filename: &str) -> String {
        let mut out = self.header();
        let Some(span) = self.span else {
            for n in &self.notes {
                out.push_str(&format!("\n  = note: {n}"));
            }
            return out;
        };
        out.push_str(&format!("\n  --> {}:{}:{}", filename, span.line, span.col));
        if let Some(src) = source {
            if let Some(line_text) = src.lines().nth(span.line.saturating_sub(1)) {
                let lno = span.line.to_string();
                let gut = " ".repeat(lno.len());
                let caret_col = span.col.saturating_sub(1).min(line_text.len());
                let width = span
                    .len()
                    .min(line_text.len().saturating_sub(caret_col))
                    .max(1);
                out.push_str(&format!("\n {gut} |"));
                out.push_str(&format!("\n {lno} | {line_text}"));
                out.push_str(&format!(
                    "\n {gut} | {}{}",
                    " ".repeat(caret_col),
                    "^".repeat(width)
                ));
            }
        }
        for n in &self.notes {
            out.push_str(&format!("\n  = note: {n}"));
        }
        out
    }
}

/// Renders a batch of diagnostics followed by the rustc-style summary line
/// (`error: aborting due to 2 previous errors; 1 warning emitted`).
pub fn render_all(diags: &[Diagnostic], source: Option<&str>, filename: &str) -> String {
    let mut out = String::new();
    for d in diags {
        out.push_str(&d.render(source, filename));
        out.push_str("\n\n");
    }
    let errors = diags
        .iter()
        .filter(|d| d.severity == Severity::Error)
        .count();
    let warnings = diags.len() - errors;
    match (errors, warnings) {
        (0, 0) => {}
        (0, w) => out.push_str(&format!("warning: {w} warning(s) emitted\n")),
        (e, 0) => out.push_str(&format!("error: aborting due to {e} previous error(s)\n")),
        (e, w) => out.push_str(&format!(
            "error: aborting due to {e} previous error(s); {w} warning(s) emitted\n"
        )),
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn renders_snippet_with_carets() {
        let src = "table t {\n  key = { meta.x: exact; }\n}\n";
        let d = Diagnostic::error("RP4103", "table `t` overcommits the SRAM pool")
            .with_span(Some(Span::new(6, 7, 1, 7)))
            .with_note("pool has 80 blocks");
        let r = d.render(Some(src), "x.rp4");
        assert!(r.contains("error[RP4103]"), "{r}");
        assert!(r.contains("--> x.rp4:1:7"), "{r}");
        assert!(r.contains("1 | table t {"), "{r}");
        assert!(r.contains("^"), "{r}");
        assert!(r.contains("= note: pool has 80 blocks"), "{r}");
    }

    #[test]
    fn spanless_renders_single_line() {
        let d = Diagnostic::warning("RP4106", "table `t` is never applied");
        assert_eq!(
            d.render(None, "x.rp4"),
            "warning[RP4106]: table `t` is never applied"
        );
    }

    #[test]
    fn summary_counts() {
        let ds = vec![
            Diagnostic::error("RP4101", "a"),
            Diagnostic::warning("RP4106", "b"),
        ];
        let r = render_all(&ds, None, "x.rp4");
        assert!(
            r.contains("aborting due to 1 previous error(s); 1 warning(s) emitted"),
            "{r}"
        );
    }
}
