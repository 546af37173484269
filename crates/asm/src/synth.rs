//! Synthetic microprogram generation, for the placement experiment (E6).
//!
//! §7: "the automatic [placer used] 99.9% of the available memory when
//! called upon to place an essentially full microstore."  To reproduce
//! that, we need microprograms with the statistical shape of real
//! microcode — straight-line runs, conditional branches, calls and
//! returns, FF-consuming constants — big enough to fill the 4096-word
//! store.  The generator is deterministic given a seed (a small xorshift
//! PRNG, so this crate needs no external randomness).

use crate::ff::FfOp;
use crate::fields::{ASel, AluOp, BSel, Cond};
use crate::inst::Inst;
use crate::program::{Assembler, MicroProgram};

/// Statistical profile of generated code.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SynthProfile {
    /// Probability (percent) that an instruction carries a byte-form
    /// constant (claiming FF).
    pub constant_pct: u8,
    /// Probability (percent) that an instruction carries an FF function.
    pub ff_op_pct: u8,
    /// Probability (percent) that a basic block ends in a conditional
    /// branch (vs goto / call / return).
    pub branch_pct: u8,
    /// Mean basic-block length in instructions.
    pub block_len: u8,
}

impl Default for SynthProfile {
    /// Roughly the mix observed in this repository's emulator microcode.
    fn default() -> Self {
        SynthProfile {
            constant_pct: 15,
            ff_op_pct: 25,
            branch_pct: 30,
            block_len: 5,
        }
    }
}

/// A small deterministic xorshift PRNG.
#[derive(Debug, Clone)]
struct Rng(u64);

impl Rng {
    fn new(seed: u64) -> Self {
        Rng(seed | 1)
    }

    fn next(&mut self) -> u64 {
        let mut x = self.0;
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        self.0 = x;
        x
    }

    fn below(&mut self, n: u64) -> u64 {
        self.next() % n
    }

    fn pct(&mut self, p: u8) -> bool {
        self.below(100) < u64::from(p)
    }
}

fn random_body(rng: &mut Rng, profile: &SynthProfile) -> Inst {
    let mut i = Inst::new()
        .rm((rng.below(16)) as u8)
        .alu(AluOp::new(rng.below(16) as u8).expect("4 bits"));
    i.asel = match rng.below(4) {
        0 => ASel::Rm,
        1 => ASel::T,
        2 => ASel::FetchR,
        _ => ASel::StoreR,
    };
    if rng.pct(profile.constant_pct) {
        // Byte-form constant: low byte random, high byte zero.
        i = i.const16(rng.below(256) as u16);
    } else {
        i.bsel = if rng.pct(50) { BSel::T } else { BSel::Rm };
        if rng.pct(profile.ff_op_pct) {
            let op = match rng.below(6) {
                0 => FfOp::DecCount,
                1 => FfOp::ReadCount,
                2 => FfOp::LoadQ,
                3 => FfOp::ReadQ,
                4 => FfOp::LoadShiftCtl,
                _ => FfOp::ShOut,
            };
            i = i.ff(op);
        }
    }
    match rng.below(3) {
        0 => i.load_t(),
        1 => i.load_rm(),
        _ => i,
    }
}

/// Generates a placeable microprogram of roughly `n_insts` instructions.
///
/// The program is a soup of basic blocks: each block is a short
/// straight-line run ending in a control transfer to another block
/// (conditional branch, goto, or call paired with a return).  Every block
/// is reachable by name so the placer must satisfy the full constraint set.
///
/// # Panics
///
/// Panics if `n_insts < 8`.
pub fn random_program(seed: u64, n_insts: usize, profile: &SynthProfile) -> MicroProgram {
    assert!(n_insts >= 8, "too small to form blocks");
    let mut rng = Rng::new(seed);
    let mut a = Assembler::new();

    // Decide the block structure up front so transfers have real targets.
    let mut blocks = Vec::new();
    let mut budget = n_insts;
    while budget > 0 {
        let len = 1 + (rng.below(u64::from(profile.block_len) * 2 - 1)) as usize;
        let len = len.min(budget);
        blocks.push(len);
        budget -= len;
    }
    let n_blocks = blocks.len();
    let block_label = |i: usize| format!("blk{i}");

    for (bi, len) in blocks.iter().enumerate() {
        a.label(block_label(bi));
        for _ in 0..len.saturating_sub(1) {
            a.emit(random_body(&mut rng, profile));
        }
        // Terminator.
        let term = random_body(&mut rng, profile);
        let succ = block_label(rng.below(n_blocks as u64) as usize);
        let other = block_label(rng.below(n_blocks as u64) as usize);
        let t = if term.ff_free() && rng.pct(30) {
            // Transfers that may need FF keep it free.
            term
        } else {
            let mut t = term;
            t.ff = crate::inst::FfSlot::Free;
            if t.bsel.is_constant() {
                t.bsel = BSel::T;
            }
            t
        };
        if rng.pct(profile.branch_pct) {
            a.emit(t.branch(
                Cond::decode(rng.below(8) as u8).expect("3 bits"),
                succ,
                other,
            ));
        } else {
            match rng.below(3) {
                0 => a.emit(t.goto_(succ)),
                1 => a.emit(t.call(succ)),
                _ => a.emit(t.ret()),
            }
        }
    }
    a.program()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn generated_programs_place() {
        for seed in 1..6 {
            let p = random_program(seed, 400, &SynthProfile::default());
            let placed = p.place().unwrap_or_else(|e| panic!("seed {seed}: {e}"));
            assert!(placed.words_used() >= 400);
        }
    }

    #[test]
    fn generation_is_deterministic() {
        let a = random_program(7, 200, &SynthProfile::default());
        let b = random_program(7, 200, &SynthProfile::default());
        assert_eq!(a.len(), b.len());
        let pa = a.place().unwrap();
        let pb = b.place().unwrap();
        assert_eq!(pa.words(), pb.words());
    }

    #[test]
    fn near_full_store_places_with_high_utilization() {
        // The §7 experiment at reduced scale (the full-size version is the
        // E6 bench): ~3000 instructions of realistic soup.
        let p = random_program(42, 3000, &SynthProfile::default());
        let placed = p.place().expect("must place");
        let stats = placed.stats();
        assert!(
            stats.utilization() > 0.96,
            "utilization {:.4} ({stats:?})",
            stats.utilization()
        );
    }

    #[test]
    #[should_panic(expected = "too small")]
    fn rejects_tiny_programs() {
        let _ = random_program(1, 4, &SynthProfile::default());
    }
}
