//! The abstract syntax tree.

use crate::span::Span;

/// A binary operator.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum BinOp {
    /// `+` (wrapping).
    Add,
    /// `-` (wrapping).
    Sub,
    /// `*` (low 16 bits).
    Mul,
    /// `/` (unsigned).
    Div,
    /// `%` (unsigned).
    Rem,
    /// `&`
    And,
    /// `|`
    Or,
    /// `^`
    Xor,
    /// `<<` — the shift amount must be a constant 0–15.
    Shl,
    /// `>>` (logical) — the shift amount must be a constant 0–15.
    Shr,
    /// `==`, producing 0 or 1.
    Eq,
    /// `!=`, producing 0 or 1.
    Ne,
    /// `<` (signed difference test), producing 0 or 1.
    Lt,
    /// `<=`, producing 0 or 1.
    Le,
    /// `>`, producing 0 or 1.
    Gt,
    /// `>=`, producing 0 or 1.
    Ge,
    /// `&&` with short-circuit evaluation, producing 0 or 1.
    LAnd,
    /// `||` with short-circuit evaluation, producing 0 or 1.
    LOr,
}

/// A unary operator.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum UnOp {
    /// `-` (two's complement).
    Neg,
    /// `~` (bitwise complement).
    Not,
    /// `!` (logical: 0 becomes 1, anything else 0).
    LNot,
}

/// An expression.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Expr {
    /// An integer literal.
    Int(u16, Span),
    /// A variable reference.
    Var(String, Span),
    /// A unary operation.
    Unary(UnOp, Box<Expr>, Span),
    /// A binary operation.
    Binary(BinOp, Box<Expr>, Box<Expr>, Span),
    /// A procedure or builtin call.
    Call(String, Vec<Expr>, Span),
}

impl Expr {
    /// The source span of the expression.
    pub fn span(&self) -> Span {
        match self {
            Expr::Int(_, s)
            | Expr::Var(_, s)
            | Expr::Unary(_, _, s)
            | Expr::Binary(_, _, _, s)
            | Expr::Call(_, _, s) => *s,
        }
    }

    /// The constant value of the expression, if it folds without
    /// evaluating variables or calls.
    pub fn const_value(&self) -> Option<u16> {
        match self {
            Expr::Int(v, _) => Some(*v),
            Expr::Unary(op, e, _) => {
                let v = e.const_value()?;
                Some(match op {
                    UnOp::Neg => v.wrapping_neg(),
                    UnOp::Not => !v,
                    UnOp::LNot => u16::from(v == 0),
                })
            }
            Expr::Binary(op, a, b, _) => {
                let a = a.const_value()?;
                let b = b.const_value()?;
                Some(match op {
                    BinOp::Add => a.wrapping_add(b),
                    BinOp::Sub => a.wrapping_sub(b),
                    BinOp::Mul => a.wrapping_mul(b),
                    BinOp::Div => a.checked_div(b)?,
                    BinOp::Rem => a.checked_rem(b)?,
                    BinOp::And => a & b,
                    BinOp::Or => a | b,
                    BinOp::Xor => a ^ b,
                    BinOp::Shl => a.checked_shl(b.into()).unwrap_or(0),
                    BinOp::Shr => a.checked_shr(b.into()).unwrap_or(0),
                    BinOp::Eq => u16::from(a == b),
                    BinOp::Ne => u16::from(a != b),
                    BinOp::Lt => u16::from((a as i16) < (b as i16)),
                    BinOp::Le => u16::from((a as i16) <= (b as i16)),
                    BinOp::Gt => u16::from((a as i16) > (b as i16)),
                    BinOp::Ge => u16::from((a as i16) >= (b as i16)),
                    BinOp::LAnd => u16::from(a != 0 && b != 0),
                    BinOp::LOr => u16::from(a != 0 || b != 0),
                })
            }
            Expr::Var(..) | Expr::Call(..) => None,
        }
    }
}

/// A brace-delimited statement sequence.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Block {
    /// The statements, in order.
    pub stmts: Vec<Stmt>,
    /// Source span of the braces.
    pub span: Span,
}

/// A statement.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Stmt {
    /// `let name = init;` — declares a local (default 0).
    Let(String, Option<Expr>, Span),
    /// `name = expr;`
    Assign(String, Expr, Span),
    /// `if cond { .. } else { .. }` — `else if` chains nest in the else
    /// block.
    If(Expr, Block, Option<Block>, Span),
    /// `while cond { .. }`
    While(Expr, Block, Span),
    /// `return expr?;`
    Return(Option<Expr>, Span),
    /// An expression evaluated for effect (or, as the final top-level
    /// statement, for the program's result).
    Expr(Expr, Span),
    /// A nested block scope.
    Block(Block),
}

impl Stmt {
    /// The source span of the statement.
    pub fn span(&self) -> Span {
        match self {
            Stmt::Let(_, _, s)
            | Stmt::Assign(_, _, s)
            | Stmt::If(_, _, _, s)
            | Stmt::While(_, _, s)
            | Stmt::Return(_, s)
            | Stmt::Expr(_, s) => *s,
            Stmt::Block(b) => b.span,
        }
    }
}

/// A procedure definition.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Proc {
    /// Procedure name.
    pub name: String,
    /// Parameter names, becoming locals 0..n.
    pub params: Vec<String>,
    /// The body.
    pub body: Block,
    /// Span of the `proc` header.
    pub span: Span,
}

/// A global variable declaration.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Global {
    /// Variable name.
    pub name: String,
    /// Optional initializer, evaluated before the first top-level
    /// statement.
    pub init: Option<Expr>,
    /// Span of the declaration.
    pub span: Span,
}

/// A whole source file: globals, procedures, and the implicit main body.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct Program {
    /// Global declarations, in order.
    pub globals: Vec<Global>,
    /// Procedure definitions.
    pub procs: Vec<Proc>,
    /// Top-level statements forming the implicit main.
    pub main: Vec<Stmt>,
}

#[cfg(test)]
mod tests {
    use super::*;

    fn int(v: u16) -> Expr {
        Expr::Int(v, Span::default())
    }

    fn bin(op: BinOp, a: Expr, b: Expr) -> Expr {
        Expr::Binary(op, Box::new(a), Box::new(b), Span::default())
    }

    #[test]
    fn const_folding_arithmetic() {
        assert_eq!(bin(BinOp::Add, int(65535), int(2)).const_value(), Some(1));
        assert_eq!(
            bin(BinOp::Mul, int(300), int(300)).const_value(),
            Some(300u16.wrapping_mul(300))
        );
        assert_eq!(bin(BinOp::Div, int(7), int(0)).const_value(), None);
    }

    #[test]
    fn const_folding_comparisons_are_signed() {
        // 0xffff is -1: less than 1.
        assert_eq!(bin(BinOp::Lt, int(0xffff), int(1)).const_value(), Some(1));
        assert_eq!(bin(BinOp::Gt, int(0xffff), int(1)).const_value(), Some(0));
    }

    #[test]
    fn const_folding_stops_at_variables() {
        let e = bin(BinOp::Add, int(1), Expr::Var("x".into(), Span::default()));
        assert_eq!(e.const_value(), None);
    }

    #[test]
    fn logical_unary_folds() {
        assert_eq!(
            Expr::Unary(UnOp::LNot, Box::new(int(0)), Span::default()).const_value(),
            Some(1)
        );
        assert_eq!(
            Expr::Unary(UnOp::LNot, Box::new(int(7)), Span::default()).const_value(),
            Some(0)
        );
        assert_eq!(
            Expr::Unary(UnOp::Neg, Box::new(int(1)), Span::default()).const_value(),
            Some(0xffff)
        );
    }
}
