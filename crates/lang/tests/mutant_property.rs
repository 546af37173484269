//! Robustness against hostile source: token-level mutants of the
//! `compiler_demo` example's program must compile or fail with a typed
//! [`CompileError`](dorado_lang::CompileError), never panic, and the
//! bytecode lint must not panic on anything that compiles.
//!
//! Each case lexes the example's source, applies one to three edits to
//! the token stream (delete, duplicate, swap with the next token, or
//! replace with another token or an edge-case literal or operator), and
//! re-joins the tokens with spaces.  Most mutants are rejected by the
//! parser or by semantic checks; the rest compile to a different
//! program.  The `check` harness reports any panic with its seed.

use dorado_base::check::{check, Rng};
use dorado_lang::compile;
use dorado_lang::lexer::lex;
use dorado_lang::token::TokenKind;
use dorado_ulint::bytecode::lint_bytecode;

const EXAMPLE: &str = include_str!("../../../examples/compiler_demo.rs");

/// The program text the example compiles (its `PROGRAM` raw string).
fn demo_source() -> &'static str {
    let start = EXAMPLE
        .find("r#\"")
        .expect("the example holds a raw string")
        + 3;
    let len = EXAMPLE[start..].find("\"#").expect("the raw string ends");
    &EXAMPLE[start..start + len]
}

/// Edge-case tokens a mutant may splice in.
const EXTRA: [&str; 12] = [
    "0", "65535", "0xffff", "0o177777", "(", ")", "{", "}", ";", "-", "/", "%",
];

fn mutant(rng: &mut Rng, tokens: &[String]) -> String {
    let mut toks = tokens.to_vec();
    for _ in 0..rng.range(1, 4) {
        if toks.is_empty() {
            break;
        }
        let i = rng.below(toks.len() as u64) as usize;
        match rng.below(5) {
            0 => {
                toks.remove(i);
            }
            1 => toks.insert(i, toks[i].clone()),
            2 if i + 1 < toks.len() => toks.swap(i, i + 1),
            3 => toks[i] = rng.choose(tokens).clone(),
            _ => toks[i] = (*rng.choose(&EXTRA)).to_string(),
        }
    }
    toks.join(" ")
}

#[test]
fn compiler_demo_mutants_compile_or_fail_cleanly() {
    let src = demo_source();
    let tokens: Vec<String> = lex(src)
        .expect("the example lexes")
        .iter()
        .filter(|t| t.kind != TokenKind::Eof)
        .map(|t| src[t.span.start..t.span.end].to_string())
        .collect();
    assert!(compile(src).is_ok(), "the unmutated example compiles");
    check(
        "compiler_demo_mutants_compile_or_fail_cleanly",
        300,
        |rng| {
            let text = mutant(rng, &tokens);
            if let Ok(bytes) = compile(&text) {
                lint_bytecode(&bytes);
            }
        },
    );
}
