//! Mesa bytecode lints with source-span rendering.
//!
//! The microcode passes anchor findings to microstore addresses; for
//! programs compiled from the `dorado-lang` surface language the
//! interesting defects live one level up, in the *bytecode* the
//! compiler emits.  This module abstract-interprets the operand-stack
//! depth over the bytecode CFG (interval per offset, joins at merges,
//! clamped so loops converge) and reports:
//!
//! * undefined or truncated instructions (Error);
//! * definite operand-stack underflow (Error) and possible underflow
//!   on some path (Warning);
//! * stack depth that can grow without bound around a loop (Warning);
//! * jump targets that land inside another instruction's operand
//!   bytes (Error);
//! * unreachable bytecode (Warning).
//!
//! Findings carry byte offsets; [`render_with_source`] maps them back
//! to the source line through the compiler's span map
//! (`dorado_lang::compile_with_map`) and renders a clippy-style
//! caret listing.

use dorado_emu::mesa::{opcode_table, Op};

use crate::diag::Severity;

/// Depth beyond which a loop is assumed to push without bound.
const DEPTH_CAP: i32 = 256;

/// One bytecode-level finding.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ByteDiagnostic {
    /// Finding severity.
    pub severity: Severity,
    /// Byte offset of the instruction.
    pub offset: usize,
    /// What went wrong.
    pub message: String,
}

impl ByteDiagnostic {
    fn new(severity: Severity, offset: usize, message: impl Into<String>) -> Self {
        ByteDiagnostic {
            severity,
            offset,
            message: message.into(),
        }
    }
}

/// Stack effect of the straightforward opcodes; the flow ops (jumps,
/// call, ret, halt) are handled specially.
fn fixed_delta(op: Op) -> Option<i32> {
    Some(match op {
        Op::Lib | Op::Liw | Op::Ll | Op::Lg | Op::Dup => 1,
        Op::Sl | Op::Sg | Op::Drop | Op::Add | Op::Sub | Op::And | Op::Or | Op::Xor | Op::ARead => {
            -1
        }
        Op::Neg | Op::Inc | Op::Rf | Op::Shift | Op::Mul | Op::Div => 0,
        Op::Wf => -2,
        Op::AWrite => -3,
        Op::Jb | Op::Jzb | Op::Jnzb | Op::Call | Op::Ret | Op::Halt => return None,
    })
}

/// Lints a Mesa bytecode program (entry at offset 0).
pub fn lint_bytecode(bytes: &[u8]) -> Vec<ByteDiagnostic> {
    let mut table: [Option<(Op, usize)>; 256] = [None; 256];
    for (op, _, operands, _) in opcode_table() {
        let size: usize = operands.iter().map(|k| k.bytes()).sum();
        table[op as u8 as usize] = Some((op, size));
    }
    let mut diags = Vec::new();
    let mut is_start = vec![false; bytes.len()];
    let mut is_operand = vec![false; bytes.len()];
    let mut depth: Vec<Option<(i32, i32)>> = vec![None; bytes.len()];
    let mut work: Vec<(usize, (i32, i32))> = vec![(0, (0, 0))];
    let mut reported_off_end = false;
    while let Some((at, d)) = work.pop() {
        if at >= bytes.len() {
            if !reported_off_end {
                diags.push(ByteDiagnostic::new(
                    Severity::Error,
                    bytes.len(),
                    "execution runs off the end of the program",
                ));
                reported_off_end = true;
            }
            continue;
        }
        // Clamp so net-push/net-pop loops converge; the clamps are
        // themselves reportable states.
        let d = (d.0.max(-1), d.1.min(DEPTH_CAP));
        let merged = match depth[at] {
            None => d,
            Some(old) => (old.0.min(d.0), old.1.max(d.1)),
        };
        if depth[at] == Some(merged) {
            continue;
        }
        depth[at] = Some(merged);
        is_start[at] = true;
        let Some((op, opsize)) = table[bytes[at] as usize] else {
            diags.push(ByteDiagnostic::new(
                Severity::Error,
                at,
                format!("undefined opcode {:#04x}", bytes[at]),
            ));
            continue;
        };
        if at + 1 + opsize > bytes.len() {
            diags.push(ByteDiagnostic::new(
                Severity::Error,
                at,
                format!("truncated instruction: {op:?} needs {opsize} operand bytes"),
            ));
            continue;
        }
        for slot in &mut is_operand[at + 1..at + 1 + opsize] {
            *slot = true;
        }
        let next = at + 1 + opsize;
        let rel_target = |operand_at: usize| {
            let disp = i64::from(bytes[operand_at] as i8);
            usize::try_from(operand_at as i64 + 1 + disp).ok()
        };
        match op {
            Op::Jb => {
                if let Some(t) = rel_target(at + 1) {
                    work.push((t, merged));
                }
            }
            Op::Jzb | Op::Jnzb => {
                let after = (merged.0 - 1, merged.1 - 1);
                if let Some(t) = rel_target(at + 1) {
                    work.push((t, after));
                }
                work.push((next, after));
            }
            Op::Call => {
                let nargs = i32::from(bytes[at + 1]);
                let target = usize::from(u16::from_be_bytes([bytes[at + 2], bytes[at + 3]]));
                // The callee runs in its own frame (arguments become
                // locals); the continuation sees the arguments replaced
                // by one result.
                work.push((target, (0, 0)));
                work.push((next, (merged.0 - nargs + 1, merged.1 - nargs + 1)));
            }
            Op::Ret | Op::Halt => {}
            _ => {
                let delta = fixed_delta(op).expect("flow ops handled above");
                work.push((next, (merged.0 + delta, merged.1 + delta)));
            }
        }
    }
    // Depth judgements, one per instruction, in offset order.
    for at in 0..bytes.len() {
        if !is_start[at] {
            continue;
        }
        let Some((lo, hi)) = depth[at] else { continue };
        let Some((op, _)) = table[bytes[at] as usize] else {
            continue;
        };
        let pops = match op {
            Op::Lib | Op::Liw | Op::Ll | Op::Lg | Op::Jb | Op::Halt => 0,
            Op::Sl
            | Op::Sg
            | Op::Neg
            | Op::Inc
            | Op::Jzb
            | Op::Jnzb
            | Op::Rf
            | Op::Shift
            | Op::Dup
            | Op::Drop
            | Op::Ret => 1,
            Op::Add
            | Op::Sub
            | Op::And
            | Op::Or
            | Op::Xor
            | Op::Wf
            | Op::ARead
            | Op::Mul
            | Op::Div => 2,
            Op::AWrite => 3,
            Op::Call => i32::from(bytes[at + 1]),
        };
        if hi - pops < 0 {
            diags.push(ByteDiagnostic::new(
                Severity::Error,
                at,
                format!("operand stack underflows: depth is at most {hi} but {op:?} pops {pops}"),
            ));
        } else if lo - pops < 0 {
            diags.push(ByteDiagnostic::new(
                Severity::Warning,
                at,
                format!(
                    "operand stack may underflow: depth can be as low as {lo} but {op:?} pops {pops}"
                ),
            ));
        }
        if hi >= DEPTH_CAP {
            diags.push(ByteDiagnostic::new(
                Severity::Warning,
                at,
                "operand stack depth can grow without bound around a loop",
            ));
        }
    }
    // Jump-into-operand conflicts.
    for at in 0..bytes.len() {
        if is_start[at] && is_operand[at] {
            diags.push(ByteDiagnostic::new(
                Severity::Error,
                at,
                "control transfers into another instruction's operand bytes",
            ));
        }
    }
    // Unreachable runs: report the first offset of each.
    let mut prev_dead = false;
    for at in 0..bytes.len() {
        let dead = !is_start[at] && !is_operand[at];
        if dead && !prev_dead {
            diags.push(ByteDiagnostic::new(
                Severity::Warning,
                at,
                "unreachable bytecode",
            ));
        }
        prev_dead = dead;
    }
    diags.sort_by(|a, b| (a.offset, &a.message).cmp(&(b.offset, &b.message)));
    diags.dedup();
    diags
}

/// Renders `d` against the source text through the compiler's span map
/// (pairs of bytecode offset and source `(start, end)` byte range, as
/// returned by `dorado_lang::compile_with_map`).
pub fn render_with_source(
    d: &ByteDiagnostic,
    src: &str,
    map: &[(usize, (usize, usize))],
) -> String {
    let mut out = format!("{}[bytecode]: {}\n", d.severity.name(), d.message);
    let span = map
        .iter()
        .rev()
        .find(|&&(o, _)| o <= d.offset)
        .map(|&(_, s)| s);
    match span {
        Some((start, end)) if start < src.len() => {
            let line_start = src[..start].rfind('\n').map_or(0, |i| i + 1);
            let line_no = src[..line_start].matches('\n').count() + 1;
            let line_end = src[line_start..]
                .find('\n')
                .map_or(src.len(), |i| line_start + i);
            let line = &src[line_start..line_end];
            let col = start - line_start;
            let width = end.min(line_end).saturating_sub(start).max(1);
            out.push_str(&format!(
                "  --> line {line_no} (bytecode offset {})\n",
                d.offset
            ));
            out.push_str(&format!("   | {line}\n"));
            out.push_str(&format!("   | {}{}\n", " ".repeat(col), "^".repeat(width)));
        }
        _ => {
            out.push_str(&format!("  --> bytecode offset {}\n", d.offset));
        }
    }
    out
}
