//! Compiler diagnostics.

use crate::span::Span;

/// A compile-time error, with the source region it blames.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CompileError {
    /// Where in the source.
    pub span: Span,
    /// What went wrong.
    pub msg: String,
}

impl CompileError {
    /// An error blaming `span`.
    pub fn new(span: Span, msg: impl Into<String>) -> Self {
        CompileError {
            span,
            msg: msg.into(),
        }
    }

    /// Renders the error against its source: `line:col: msg`, the source
    /// line, and a caret under the offending text.
    pub fn render(&self, src: &str) -> String {
        let (line, col) = self.span.line_col(src);
        let text = src.lines().nth(line - 1).unwrap_or("");
        let width = (self.span.end - self.span.start)
            .max(1)
            .min(text.len() + 1 - (col - 1).min(text.len()));
        format!(
            "{line}:{col}: error: {}\n  {text}\n  {}{}",
            self.msg,
            " ".repeat(col - 1),
            "^".repeat(width.max(1)),
        )
    }
}

impl std::fmt::Display for CompileError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "error: {}", self.msg)
    }
}

impl std::error::Error for CompileError {}

/// Compiler result alias.
pub type Result<T> = std::result::Result<T, CompileError>;

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn render_points_at_the_span() {
        let src = "let x = ;\n";
        let e = CompileError::new(Span::new(8, 9), "expected expression");
        let r = e.render(src);
        assert!(r.starts_with("1:9: error: expected expression"), "{r}");
        assert!(r.contains("let x = ;"), "{r}");
        assert!(r.ends_with("        ^"), "{r}");
    }

    #[test]
    fn display_is_terse() {
        let e = CompileError::new(Span::default(), "boom");
        assert_eq!(e.to_string(), "error: boom");
    }
}
