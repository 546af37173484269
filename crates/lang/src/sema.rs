//! Semantic analysis: name resolution, arity checking, constant folding,
//! and lowering to a resolved IR the code generator can emit directly.
//!
//! Resolution maps every variable to a *place*: a local frame slot
//! (Mesa `LL`/`SL` through the `L` base register) or a global frame slot
//! (`LG`/`SG` through `G`).  Locals follow block scoping; slots are
//! reclaimed when a block ends, so sibling blocks share slots exactly as
//! the Mesa compiler packed frames.

use std::collections::HashMap;

use crate::ast::{BinOp, Block, Expr, Program, Stmt, UnOp};
use crate::error::{CompileError, Result};
use crate::span::Span;

/// Most local slots a frame may use, scratch included.  Frames are 32
/// words; two words hold the saved `L` and return PC ahead of `L`, and we
/// keep a margin of two.
pub const MAX_LOCALS: u8 = 28;

/// Most global slots a program may declare (the global frame is 256 words;
/// we use a page-aligned quarter).
pub const MAX_GLOBALS: u8 = 64;

/// Where a resolved variable lives.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Place {
    /// Frame slot *n* of the enclosing procedure (`LL`/`SL`).
    Local(u8),
    /// Global frame slot *n* (`LG`/`SG`).
    Global(u8),
}

/// A resolved expression.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum RExpr {
    /// A compile-time constant.
    Const(u16),
    /// Load from a place.
    Load(Place),
    /// A unary operation.
    Unary(UnOp, Box<RExpr>),
    /// A non-shift binary operation.
    Binary(BinOp, Box<RExpr>, Box<RExpr>),
    /// A shift by a constant amount (`left`, amount, operand).
    Shift {
        /// True for `<<`, false for logical `>>`.
        left: bool,
        /// Bits, 0–15.
        amount: u8,
        /// The shifted operand.
        operand: Box<RExpr>,
    },
    /// A call to procedure `procs[index]`.
    Call(usize, Vec<RExpr>),
    /// `aref(base, index)` — read `MEM[base + index]`.
    ARef(Box<RExpr>, Box<RExpr>),
}

/// A resolved statement: the lowered operation plus the source span it
/// came from, threaded through codegen into the bytecode span map so
/// analyzers can point diagnostics back at source text.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RStmt {
    /// The source range this statement was lowered from.
    pub span: Span,
    /// The lowered operation.
    pub kind: RStmtKind,
}

impl RStmt {
    fn new(span: Span, kind: RStmtKind) -> Self {
        RStmt { span, kind }
    }
}

/// A resolved statement's operation.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum RStmtKind {
    /// Evaluate and store to a place.
    Store(Place, RExpr),
    /// `if` with lowered arms.
    If(RExpr, Vec<RStmt>, Vec<RStmt>),
    /// `while` loop.
    While(RExpr, Vec<RStmt>),
    /// Return a value from the enclosing procedure.
    Return(RExpr),
    /// Evaluate for effect; the value is dropped.
    Eval(RExpr),
    /// Evaluate and keep: the program result (final main statement only).
    Result(RExpr),
    /// `aset(base, index, value)` — write `MEM[base + index]`.
    ASet(RExpr, RExpr, RExpr),
}

/// A resolved procedure body.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RProc {
    /// Source name (label `proc:<name>` in the byte code).
    pub name: String,
    /// Declared parameter count.
    pub nargs: u8,
    /// Lowered body.
    pub body: Vec<RStmt>,
    /// Scratch frame slot for multiply/divide lowering, if any part of
    /// the body needs one.
    pub scratch: Option<u8>,
    /// High-water mark of frame slots used (scratch included).
    pub frame_size: u8,
}

/// A fully resolved program, ready for code generation.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RProgram {
    /// Number of global slots in use.
    pub num_globals: u8,
    /// Global initializers, in declaration order.
    pub global_inits: Vec<(u8, RExpr)>,
    /// Procedure bodies, in definition order (call sites index this).
    pub procs: Vec<RProc>,
    /// The implicit main body.
    pub main: RProc,
}

const BUILTINS: &[(&str, usize)] = &[("peek", 1), ("poke", 2), ("aref", 2), ("aset", 3)];

/// Resolves and lowers a parsed program.
///
/// # Errors
///
/// Reports the first semantic error: unknown or duplicate names, arity
/// mismatches, non-constant shift amounts, builtins misused in value or
/// statement position, too many locals or globals, or `return` outside a
/// procedure.
pub fn resolve(program: &Program) -> Result<RProgram> {
    let mut globals = HashMap::new();
    let mut global_inits = Vec::new();
    let mut proc_ids = HashMap::new();
    let mut arities = Vec::new();

    for (i, p) in program.procs.iter().enumerate() {
        if BUILTINS.iter().any(|&(b, _)| b == p.name) {
            return Err(CompileError::new(
                p.span,
                format!("`{}` redefines a builtin", p.name),
            ));
        }
        if proc_ids.insert(p.name.clone(), i).is_some() {
            return Err(CompileError::new(
                p.span,
                format!("duplicate procedure `{}`", p.name),
            ));
        }
        arities.push(p.params.len());
    }

    let mut ctx = Ctx {
        procs: &proc_ids,
        arities: &arities,
        globals: &mut globals,
    };
    let ctx = &mut ctx;

    for g in &program.globals {
        let slot = u8::try_from(ctx.globals.len())
            .ok()
            .filter(|&n| n < MAX_GLOBALS)
            .ok_or_else(|| CompileError::new(g.span, "too many globals"))?;
        if ctx.globals.insert(g.name.clone(), slot).is_some() {
            return Err(CompileError::new(
                g.span,
                format!("duplicate global `{}`", g.name),
            ));
        }
        if let Some(init) = &g.init {
            // Initializers run before main, where no locals are in scope.
            let mut frame = FrameCtx::new(&[], g.span)?;
            let e = lower_expr(init, ctx, &mut frame)?;
            global_inits.push((slot, e));
        }
    }

    let mut procs = Vec::new();
    for p in &program.procs {
        let mut frame = FrameCtx::new(&p.params, p.span)?;
        let body = lower_stmts(&p.body.stmts, ctx, &mut frame, true, false)?;
        procs.push(RProc {
            name: p.name.clone(),
            nargs: p.params.len() as u8,
            body,
            scratch: frame.scratch,
            frame_size: frame.max,
        });
    }

    let mut frame = FrameCtx::new(&[], Span::default())?;
    let main_body = lower_stmts(&program.main, ctx, &mut frame, false, true)?;
    let main = RProc {
        name: "main".into(),
        nargs: 0,
        body: main_body,
        scratch: frame.scratch,
        frame_size: frame.max,
    };

    Ok(RProgram {
        num_globals: globals.len() as u8,
        global_inits,
        procs,
        main,
    })
}

struct Ctx<'a> {
    procs: &'a HashMap<String, usize>,
    arities: &'a [usize],
    globals: &'a mut HashMap<String, u8>,
}

/// Local-slot allocation for one frame: a scope stack with high-water
/// tracking, plus lazily reserved multiply/divide scratch.
struct FrameCtx {
    scopes: Vec<HashMap<String, u8>>,
    next: u8,
    max: u8,
    scratch: Option<u8>,
}

impl FrameCtx {
    fn new(params: &[String], span: Span) -> Result<Self> {
        let mut top = HashMap::new();
        for (i, p) in params.iter().enumerate() {
            if top.insert(p.clone(), i as u8).is_some() {
                return Err(CompileError::new(
                    span,
                    format!("duplicate parameter `{p}`"),
                ));
            }
        }
        let next = params.len() as u8;
        if next > MAX_LOCALS {
            return Err(CompileError::new(span, "too many parameters"));
        }
        Ok(FrameCtx {
            scopes: vec![top],
            next,
            max: next,
            scratch: None,
        })
    }

    fn declare(&mut self, name: &str, span: Span) -> Result<u8> {
        let scope = self.scopes.last_mut().expect("at least one scope");
        if scope.contains_key(name) {
            return Err(CompileError::new(
                span,
                format!("`{name}` already declared in this scope"),
            ));
        }
        if self.next >= MAX_LOCALS {
            return Err(CompileError::new(span, "too many locals in this frame"));
        }
        let slot = self.next;
        scope.insert(name.to_string(), slot);
        self.next += 1;
        self.max = self.max.max(self.next);
        Ok(slot)
    }

    fn lookup(&self, name: &str) -> Option<u8> {
        self.scopes.iter().rev().find_map(|s| s.get(name)).copied()
    }

    fn enter(&mut self) {
        self.scopes.push(HashMap::new());
    }

    fn exit(&mut self) {
        let popped = self.scopes.pop().expect("scope to pop");
        self.next -= popped.len() as u8;
    }

    fn reserve_scratch(&mut self) -> Result<u8> {
        if let Some(s) = self.scratch {
            return Ok(s);
        }
        // The scratch lives above every scope's watermark; reserving the
        // current max is unsound (a later, deeper scope would collide), so
        // take the top slot of the frame.
        let slot = MAX_LOCALS;
        self.scratch = Some(slot);
        Ok(slot)
    }
}

fn resolve_var(name: &str, span: Span, ctx: &Ctx<'_>, frame: &FrameCtx) -> Result<Place> {
    if let Some(slot) = frame.lookup(name) {
        return Ok(Place::Local(slot));
    }
    if let Some(&slot) = ctx.globals.get(name) {
        return Ok(Place::Global(slot));
    }
    Err(CompileError::new(
        span,
        format!("unknown variable `{name}`"),
    ))
}

fn lower_expr(e: &Expr, ctx: &Ctx<'_>, frame: &mut FrameCtx) -> Result<RExpr> {
    // Shift amounts are validated even when the whole expression folds,
    // so `1 << 16` is an error rather than silently zero.
    if let Expr::Binary(op @ (BinOp::Shl | BinOp::Shr), lhs, rhs, span) = e {
        let amount = rhs.const_value().ok_or_else(|| {
            CompileError::new(
                rhs.span(),
                "shift amount must be a compile-time constant (the SHIFTCTL operand is an immediate)",
            )
        })?;
        if amount > 15 {
            return Err(CompileError::new(*span, "shift amount must be 0-15"));
        }
        if let Some(v) = e.const_value() {
            return Ok(RExpr::Const(v));
        }
        return Ok(RExpr::Shift {
            left: *op == BinOp::Shl,
            amount: amount as u8,
            operand: Box::new(lower_expr(lhs, ctx, frame)?),
        });
    }
    // Fold any fully constant subtree.
    if let Some(v) = e.const_value() {
        return Ok(RExpr::Const(v));
    }
    match e {
        Expr::Int(v, _) => Ok(RExpr::Const(*v)),
        Expr::Var(name, span) => Ok(RExpr::Load(resolve_var(name, *span, ctx, frame)?)),
        Expr::Unary(op, inner, _) => {
            Ok(RExpr::Unary(*op, Box::new(lower_expr(inner, ctx, frame)?)))
        }
        Expr::Binary(op, lhs, rhs, _) => {
            if matches!(op, BinOp::Mul | BinOp::Div | BinOp::Rem) {
                frame.reserve_scratch()?;
            }
            Ok(RExpr::Binary(
                *op,
                Box::new(lower_expr(lhs, ctx, frame)?),
                Box::new(lower_expr(rhs, ctx, frame)?),
            ))
        }
        Expr::Call(name, args, span) => {
            let lowered: Vec<RExpr> = args
                .iter()
                .map(|a| lower_expr(a, ctx, frame))
                .collect::<Result<_>>()?;
            match name.as_str() {
                "peek" | "aref" => {
                    let want = if name == "peek" { 1 } else { 2 };
                    check_arity(name, want, args.len(), *span)?;
                    let mut it = lowered.into_iter();
                    let base = it.next().expect("arity checked");
                    let index = it.next().unwrap_or(RExpr::Const(0));
                    Ok(RExpr::ARef(Box::new(base), Box::new(index)))
                }
                "poke" | "aset" => Err(CompileError::new(
                    *span,
                    format!("`{name}` stores to memory and has no value; use it as a statement"),
                )),
                _ => {
                    let &id = ctx.procs.get(name).ok_or_else(|| {
                        CompileError::new(*span, format!("unknown procedure `{name}`"))
                    })?;
                    check_arity(name, ctx.arities[id], args.len(), *span)?;
                    Ok(RExpr::Call(id, lowered))
                }
            }
        }
    }
}

fn check_arity(name: &str, want: usize, got: usize, span: Span) -> Result<()> {
    if want == got {
        Ok(())
    } else {
        Err(CompileError::new(
            span,
            format!("`{name}` takes {want} argument(s), {got} given"),
        ))
    }
}

fn lower_block(
    b: &Block,
    ctx: &Ctx<'_>,
    frame: &mut FrameCtx,
    in_proc: bool,
) -> Result<Vec<RStmt>> {
    frame.enter();
    let out = lower_stmts(&b.stmts, ctx, frame, in_proc, false);
    frame.exit();
    out
}

fn lower_stmts(
    stmts: &[Stmt],
    ctx: &Ctx<'_>,
    frame: &mut FrameCtx,
    in_proc: bool,
    is_main: bool,
) -> Result<Vec<RStmt>> {
    let mut out = Vec::new();
    for (i, s) in stmts.iter().enumerate() {
        let last_of_main = is_main && i + 1 == stmts.len();
        match s {
            Stmt::Let(name, init, span) => {
                let value = match init {
                    Some(e) => lower_expr(e, ctx, frame)?,
                    None => RExpr::Const(0),
                };
                // Resolve the initializer before the name enters scope:
                // `let x = x;` refers to the outer `x`.
                let slot = frame.declare(name, *span)?;
                out.push(RStmt::new(
                    *span,
                    RStmtKind::Store(Place::Local(slot), value),
                ));
            }
            Stmt::Assign(name, e, span) => {
                let place = resolve_var(name, *span, ctx, frame)?;
                let value = lower_expr(e, ctx, frame)?;
                out.push(RStmt::new(*span, RStmtKind::Store(place, value)));
            }
            Stmt::If(cond, then, els, span) => {
                let c = lower_expr(cond, ctx, frame)?;
                let t = lower_block(then, ctx, frame, in_proc)?;
                let e = match els {
                    Some(b) => lower_block(b, ctx, frame, in_proc)?,
                    None => Vec::new(),
                };
                out.push(RStmt::new(*span, RStmtKind::If(c, t, e)));
            }
            Stmt::While(cond, body, span) => {
                let c = lower_expr(cond, ctx, frame)?;
                let b = lower_block(body, ctx, frame, in_proc)?;
                out.push(RStmt::new(*span, RStmtKind::While(c, b)));
            }
            Stmt::Return(value, span) => {
                if !in_proc {
                    return Err(CompileError::new(
                        *span,
                        "`return` outside a procedure; the last top-level expression is the program result",
                    ));
                }
                let v = match value {
                    Some(e) => lower_expr(e, ctx, frame)?,
                    None => RExpr::Const(0),
                };
                out.push(RStmt::new(*span, RStmtKind::Return(v)));
            }
            Stmt::Expr(e, span) => {
                // Builtin stores are statements, not values.
                if let Expr::Call(name, args, _) = e {
                    if name == "poke" || name == "aset" {
                        let want = if name == "poke" { 2 } else { 3 };
                        check_arity(name, want, args.len(), *span)?;
                        let mut it = args
                            .iter()
                            .map(|a| lower_expr(a, ctx, frame))
                            .collect::<Result<Vec<_>>>()?
                            .into_iter();
                        let base = it.next().expect("arity checked");
                        let (index, value) = if want == 2 {
                            (RExpr::Const(0), it.next().expect("arity checked"))
                        } else {
                            (
                                it.next().expect("arity checked"),
                                it.next().expect("arity checked"),
                            )
                        };
                        out.push(RStmt::new(*span, RStmtKind::ASet(base, index, value)));
                        continue;
                    }
                }
                let v = lower_expr(e, ctx, frame)?;
                out.push(RStmt::new(
                    *span,
                    if last_of_main {
                        RStmtKind::Result(v)
                    } else {
                        RStmtKind::Eval(v)
                    },
                ));
            }
            Stmt::Block(b) => {
                out.extend(lower_block(b, ctx, frame, in_proc)?);
            }
        }
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::parser::parse;

    fn lower(src: &str) -> RProgram {
        resolve(&parse(src).unwrap()).unwrap()
    }

    fn lower_err(src: &str) -> CompileError {
        resolve(&parse(src).unwrap()).unwrap_err()
    }

    #[test]
    fn locals_get_sequential_slots() {
        let p = lower("let a = 1; let b = 2; a + b;");
        assert!(matches!(
            p.main.body[0].kind,
            RStmtKind::Store(Place::Local(0), _)
        ));
        assert!(matches!(
            p.main.body[1].kind,
            RStmtKind::Store(Place::Local(1), _)
        ));
        assert_eq!(p.main.frame_size, 2);
    }

    #[test]
    fn sibling_blocks_share_slots() {
        let p = lower("{ let a = 1; a; } { let b = 2; b; }");
        assert!(matches!(
            p.main.body[0].kind,
            RStmtKind::Store(Place::Local(0), _)
        ));
        assert!(matches!(
            p.main.body[2].kind,
            RStmtKind::Store(Place::Local(0), _)
        ));
    }

    #[test]
    fn shadowing_resolves_innermost() {
        let p = lower("let a = 1; { let a = 2; a; } a;");
        match &p.main.body[2].kind {
            RStmtKind::Eval(RExpr::Load(Place::Local(1))) => {}
            other => panic!("{other:?}"),
        }
        match &p.main.body[3].kind {
            RStmtKind::Result(RExpr::Load(Place::Local(0))) => {}
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn let_initializer_sees_outer_binding() {
        let p = lower("let x = 5; { let x = x; x; }");
        // Inner `let x = x` loads outer slot 0 into new slot 1.
        match &p.main.body[1].kind {
            RStmtKind::Store(Place::Local(1), RExpr::Load(Place::Local(0))) => {}
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn globals_resolve_everywhere() {
        let p = lower("global g = 7; proc f() { return g; } f();");
        assert_eq!(p.num_globals, 1);
        assert_eq!(p.global_inits.len(), 1);
        match &p.procs[0].body[0].kind {
            RStmtKind::Return(RExpr::Load(Place::Global(0))) => {}
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn constants_fold() {
        let p = lower("let x = 2 * 3 + 4;");
        assert!(matches!(
            p.main.body[0].kind,
            RStmtKind::Store(_, RExpr::Const(10))
        ));
        // A folded multiply needs no scratch slot.
        assert_eq!(p.main.scratch, None);
    }

    #[test]
    fn runtime_multiply_reserves_scratch() {
        let p = lower("let x = 3; x * x;");
        assert_eq!(p.main.scratch, Some(MAX_LOCALS));
    }

    #[test]
    fn shift_amount_must_be_constant() {
        let e = lower_err("let n = 2; 1 << n;");
        assert!(e.msg.contains("compile-time constant"), "{e}");
        assert!(lower_err("let n = 2; 1 << 16;").msg.contains("0-15"));
    }

    #[test]
    fn unknowns_are_reported() {
        assert!(lower_err("y = 1;").msg.contains("unknown variable"));
        assert!(lower_err("f(1);").msg.contains("unknown procedure"));
    }

    #[test]
    fn scope_exit_unbinds() {
        let e = lower_err("{ let a = 1; } a;");
        assert!(e.msg.contains("unknown variable `a`"), "{e}");
    }

    #[test]
    fn arity_is_checked() {
        let e = lower_err("proc f(a, b) { return a; } f(1);");
        assert!(e.msg.contains("takes 2 argument(s), 1 given"), "{e}");
    }

    #[test]
    fn duplicates_are_reported() {
        assert!(lower_err("let a = 1; let a = 2;")
            .msg
            .contains("already declared"));
        assert!(lower_err("global g; global g;")
            .msg
            .contains("duplicate global"));
        assert!(lower_err("proc f() {} proc f() {}")
            .msg
            .contains("duplicate procedure"));
        assert!(lower_err("proc f(x, x) {}")
            .msg
            .contains("duplicate parameter"));
    }

    #[test]
    fn builtins_cannot_be_redefined_or_misused() {
        assert!(lower_err("proc peek(a) {}")
            .msg
            .contains("redefines a builtin"));
        assert!(lower_err("let v = poke(1, 2);")
            .msg
            .contains("as a statement"));
        assert!(lower_err("peek(1, 2);").msg.contains("takes 1 argument(s)"));
    }

    #[test]
    fn return_only_in_procs() {
        let e = lower_err("return 1;");
        assert!(e.msg.contains("outside a procedure"), "{e}");
    }

    #[test]
    fn last_main_expr_is_the_result() {
        let p = lower("1 + 1; 2 + 2;");
        assert!(matches!(p.main.body[0].kind, RStmtKind::Eval(_)));
        assert!(matches!(p.main.body[1].kind, RStmtKind::Result(_)));
    }

    #[test]
    fn peek_and_aset_lower_to_memory_ops() {
        let p = lower("poke(0x100, 5); aset(0x100, 2, 6); peek(0x100) + aref(0x100, 2);");
        assert!(matches!(p.main.body[0].kind, RStmtKind::ASet(_, _, _)));
        assert!(matches!(p.main.body[1].kind, RStmtKind::ASet(_, _, _)));
        match &p.main.body[2].kind {
            RStmtKind::Result(RExpr::Binary(BinOp::Add, a, b)) => {
                assert!(matches!(**a, RExpr::ARef(_, _)));
                assert!(matches!(**b, RExpr::ARef(_, _)));
            }
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn too_many_locals_is_reported() {
        let mut src = String::new();
        for i in 0..=MAX_LOCALS {
            src.push_str(&format!("let v{i} = 0;\n"));
        }
        assert!(lower_err(&src).msg.contains("too many locals"));
    }
}
