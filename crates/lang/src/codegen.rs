//! Code generation: resolved IR to Mesa byte codes.
//!
//! The target is the stack bytecode of [`dorado_emu::mesa`]; every
//! construct lowers to the opcodes the paper's §7 table costs out.  The
//! interesting lowerings:
//!
//! * **Comparisons** have no dedicated opcodes; they compute a difference
//!   and test it with a conditional jump, materializing 0 or 1.  The
//!   difference test is signed and exact while `|a-b| < 2^15` (the same
//!   contract as Mesa's `INTEGER` compare).
//! * **Multiply/divide** push two results (high/low, remainder/quotient);
//!   discarding the extra word beneath the top of stack costs a
//!   store-drop-reload through a scratch frame slot, because the stack
//!   has no swap. `%` gets the remainder for free by dropping the
//!   quotient.
//! * **Shifts** become `Shift` opcodes whose operand is a raw `SHIFTCTL`
//!   immediate — which is why shift amounts must be compile-time
//!   constants.
//! * **`&&`/`||`** short-circuit with forward jumps.

use dorado_asm::ShiftCtl;
use dorado_emu::mesa::MesaAsm;

use crate::ast::{BinOp, UnOp};
use crate::error::{CompileError, Result};
use crate::sema::{Place, RExpr, RProc, RProgram, RStmt, RStmtKind};
use crate::span::Span;

/// Generates the final byte program for a resolved program.
///
/// Layout: global initializers, the main body, `HALT`, then each
/// procedure in definition order.
///
/// # Errors
///
/// Reports jump displacements that overflow a signed byte (bodies longer
/// than 127 bytes must be split into procedures).
pub fn generate(p: &RProgram) -> Result<Vec<u8>> {
    emit(p).assemble().map_err(assemble_error)
}

/// Like [`generate`], but also returns the bytecode→source map: for each
/// statement boundary, the byte offset it starts at and the source
/// `(start, end)` range it was lowered from.
///
/// # Errors
///
/// Same as [`generate`].
#[allow(clippy::type_complexity)]
pub fn generate_with_map(p: &RProgram) -> Result<(Vec<u8>, Vec<(usize, (usize, usize))>)> {
    emit(p).assemble_with_map().map_err(assemble_error)
}

fn assemble_error(e: String) -> CompileError {
    CompileError::new(
        Span::default(),
        format!("{e} (conditional bodies are limited to 127 bytes of code; split long bodies into procedures)"),
    )
}

fn emit(p: &RProgram) -> MesaAsm {
    let mut g = Gen {
        asm: MesaAsm::new(),
        next_label: 0,
        proc_labels: p.procs.iter().map(|q| proc_label(&q.name)).collect(),
    };
    for (slot, init) in &p.global_inits {
        g.expr(init, &p.main);
        g.asm.sg(*slot);
    }
    g.stmts(&p.main.body, &p.main);
    g.asm.halt();
    for proc in &p.procs {
        g.asm.label(proc_label(&proc.name));
        g.stmts(&proc.body, proc);
        // Fallthrough return value: 0.
        g.asm.lib(0);
        g.asm.ret();
    }
    g.asm
}

fn proc_label(name: &str) -> String {
    format!("proc:{name}")
}

struct Gen {
    asm: MesaAsm,
    next_label: u32,
    proc_labels: Vec<String>,
}

impl Gen {
    fn fresh(&mut self, what: &str) -> String {
        self.next_label += 1;
        format!("{what}.{}", self.next_label)
    }

    fn push_const(&mut self, v: u16) {
        if v <= 0xff {
            self.asm.lib(v as u8);
        } else {
            self.asm.liw(v);
        }
    }

    fn load(&mut self, place: Place) {
        match place {
            Place::Local(n) => self.asm.ll(n),
            Place::Global(n) => self.asm.lg(n),
        }
    }

    fn store(&mut self, place: Place) {
        match place {
            Place::Local(n) => self.asm.sl(n),
            Place::Global(n) => self.asm.sg(n),
        }
    }

    fn scratch(&self, frame: &RProc) -> u8 {
        frame
            .scratch
            .expect("sema reserves a scratch slot for every multiply/divide")
    }

    /// Drops the word *beneath* the top of stack: store the top to the
    /// frame scratch, drop the word under it, reload.
    fn drop_under(&mut self, frame: &RProc) {
        let s = self.scratch(frame);
        self.asm.sl(s);
        self.asm.drop_top();
        self.asm.ll(s);
    }

    /// Pushes 1 if the popped condition satisfies `jump_if_zero`
    /// (inverted otherwise) — the common tail of every comparison.
    fn flag_from_jump(&mut self, jump_if_zero: bool) {
        let yes = self.fresh("cmp.t");
        let end = self.fresh("cmp.e");
        if jump_if_zero {
            self.asm.jzb(yes.clone());
        } else {
            self.asm.jnzb(yes.clone());
        }
        self.asm.lib(0);
        self.asm.jb(end.clone());
        self.asm.label(yes);
        self.asm.lib(1);
        self.asm.label(end);
    }

    /// Pops `a, b`; pushes the sign bit test input for the comparison.
    /// `negate` turns `a-b` into `b-a` for `>`/`<=`.
    fn signed_diff(&mut self, negate: bool) {
        self.asm.sub();
        if negate {
            self.asm.neg();
        }
        self.asm.liw(0x8000);
        self.asm.and();
    }

    fn expr(&mut self, e: &RExpr, frame: &RProc) {
        match e {
            RExpr::Const(v) => self.push_const(*v),
            RExpr::Load(place) => self.load(*place),
            RExpr::Unary(op, inner) => {
                self.expr(inner, frame);
                match op {
                    UnOp::Neg => self.asm.neg(),
                    UnOp::Not => {
                        self.asm.liw(0xffff);
                        self.asm.xor();
                    }
                    UnOp::LNot => self.flag_from_jump(true),
                }
            }
            RExpr::Shift {
                left,
                amount,
                operand,
            } => {
                self.expr(operand, frame);
                if *amount > 0 {
                    let ctl = if *left {
                        // Left cycle then zero the wrapped low bits.
                        ShiftCtl::with_masks(*amount, 0, *amount)
                    } else {
                        // Extract bits amount..16, right justified.
                        ShiftCtl::field_extract(*amount, 16 - *amount)
                    };
                    self.asm.shift(ctl);
                }
            }
            RExpr::Binary(op, a, b) => self.binary(*op, a, b, frame),
            RExpr::Call(id, args) => {
                // Arguments push left to right; XFER moves them into the
                // callee's locals 0..n.
                for a in args {
                    self.expr(a, frame);
                }
                let name = self.proc_labels[*id].clone();
                self.asm.call(name, args.len() as u8);
            }
            RExpr::ARef(base, index) => {
                self.expr(base, frame);
                self.expr(index, frame);
                self.asm.aread();
            }
        }
    }

    fn binary(&mut self, op: BinOp, a: &RExpr, b: &RExpr, frame: &RProc) {
        // Short-circuit forms control evaluation of `b`.
        match op {
            BinOp::LAnd => {
                let no = self.fresh("and.f");
                let end = self.fresh("and.e");
                self.expr(a, frame);
                self.asm.jzb(no.clone());
                self.expr(b, frame);
                self.asm.jzb(no.clone());
                self.asm.lib(1);
                self.asm.jb(end.clone());
                self.asm.label(no);
                self.asm.lib(0);
                self.asm.label(end);
                return;
            }
            BinOp::LOr => {
                let yes = self.fresh("or.t");
                let end = self.fresh("or.e");
                self.expr(a, frame);
                self.asm.jnzb(yes.clone());
                self.expr(b, frame);
                self.asm.jnzb(yes.clone());
                self.asm.lib(0);
                self.asm.jb(end.clone());
                self.asm.label(yes);
                self.asm.lib(1);
                self.asm.label(end);
                return;
            }
            _ => {}
        }
        self.expr(a, frame);
        self.expr(b, frame);
        match op {
            BinOp::Add => self.asm.add(),
            BinOp::Sub => self.asm.sub(),
            BinOp::And => self.asm.and(),
            BinOp::Or => self.asm.or(),
            BinOp::Xor => self.asm.xor(),
            BinOp::Mul => {
                // MUL pushes high then low; keep the low word.
                self.asm.mul();
                self.drop_under(frame);
            }
            BinOp::Div => {
                // DIV pushes remainder then quotient; keep the quotient.
                self.asm.div();
                self.drop_under(frame);
            }
            BinOp::Rem => {
                // ... or drop the quotient to keep the remainder.
                self.asm.div();
                self.asm.drop_top();
            }
            BinOp::Eq => {
                self.asm.sub();
                self.flag_from_jump(true);
            }
            BinOp::Ne => {
                self.asm.sub();
                self.flag_from_jump(false);
            }
            BinOp::Lt => {
                // a < b  ⇔  sign(a-b) set.
                self.signed_diff(false);
                self.flag_from_jump(false);
            }
            BinOp::Ge => {
                self.signed_diff(false);
                self.flag_from_jump(true);
            }
            BinOp::Gt => {
                // a > b  ⇔  sign(b-a) set.
                self.signed_diff(true);
                self.flag_from_jump(false);
            }
            BinOp::Le => {
                self.signed_diff(true);
                self.flag_from_jump(true);
            }
            BinOp::Shl | BinOp::Shr => unreachable!("sema lowers shifts to RExpr::Shift"),
            BinOp::LAnd | BinOp::LOr => unreachable!("handled above"),
        }
    }

    fn stmts(&mut self, body: &[RStmt], frame: &RProc) {
        for s in body {
            self.stmt(s, frame);
        }
    }

    fn stmt(&mut self, s: &RStmt, frame: &RProc) {
        self.asm.mark(s.span.start, s.span.end);
        match &s.kind {
            RStmtKind::Store(place, e) => {
                self.expr(e, frame);
                self.store(*place);
            }
            RStmtKind::If(cond, then, els) => {
                let end = self.fresh("if.e");
                self.expr(cond, frame);
                if els.is_empty() {
                    self.asm.jzb(end.clone());
                    self.stmts(then, frame);
                } else {
                    let no = self.fresh("if.f");
                    self.asm.jzb(no.clone());
                    self.stmts(then, frame);
                    self.asm.jb(end.clone());
                    self.asm.label(no);
                    self.stmts(els, frame);
                }
                self.asm.label(end);
            }
            RStmtKind::While(cond, body) => {
                let top = self.fresh("wh.t");
                let end = self.fresh("wh.e");
                self.asm.label(top.clone());
                self.expr(cond, frame);
                self.asm.jzb(end.clone());
                self.stmts(body, frame);
                self.asm.jb(top);
                self.asm.label(end);
            }
            RStmtKind::Return(e) => {
                self.expr(e, frame);
                self.asm.ret();
            }
            RStmtKind::Eval(e) => {
                self.expr(e, frame);
                self.asm.drop_top();
            }
            RStmtKind::Result(e) => {
                self.expr(e, frame);
            }
            RStmtKind::ASet(base, index, value) => {
                self.expr(base, frame);
                self.expr(index, frame);
                self.expr(value, frame);
                self.asm.awrite();
            }
        }
    }
}
