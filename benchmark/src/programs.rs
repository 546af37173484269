//! The `programs` workload: seeded `dorado-lang` programs compiled and
//! run on a Mesa machine with no devices.
//!
//! Every program combines three kernels that load different parts of
//! the machine: recursive `fib(n)` (the XFER call path), a `gcd` loop
//! (ALU and branches) and a fill-then-sum walk over a table at
//! `0x8000`.  The walk's span runs from 256 words to 32 KW, 8× the
//! 4 KW cache: stride-1 walks over small tables hit the cache, stride-16
//! walks over large ones touch a new munch on every reference and go to
//! storage.  With no devices attached the `io` layer is bypassed.
//!
//! The pass is stratified: every (walk, `fib` size) pair occurs equally
//! often, so seeds and passes differ in values but not in the mix of
//! work.  The program's three results are checked against a host
//! reference in 16-bit wrapping arithmetic.

use dorado_base::check::Rng;
use dorado_base::{VirtAddr, Word};
use dorado_emu::suite::{build_mesa_on, Suite};
use dorado_emu::{mesa, SuiteBuilder};

use crate::{add_stats, pass_rng, Ledger, Passes, Tracer, Workload};

/// Programs per pass: one of every (walk, `fib` size) pair.
pub const PASS_PROGRAMS: usize = STRATA;

/// The walks: (table span in words, stride).
pub const WALKS: [(u32, u16); 6] = [
    (256, 1),
    (1024, 1),
    (4096, 1),
    (4096, 16),
    (16384, 16),
    (32768, 16),
];

/// The `fib` sizes.
pub const FIB_N: [u16; 4] = [13, 14, 15, 16];

const STRATA: usize = WALKS.len() * FIB_N.len();

/// Base address of the walked table.
pub const TABLE: Word = 0x8000;
/// Where the program stores its three results.
pub const RESULTS: u32 = 0x7ff0;
/// Cycle budget of one program; running out of it counts as a wedge.
pub const RUN_LIMIT: u64 = 20_000_000;

/// One generated program.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ProgramSpec {
    /// Argument of `fib`.
    pub fib_n: u16,
    /// `gcd` is called with `(gcd_a + r, gcd_b)` for `r` in `1..=gcd_reps`.
    pub gcd_a: u16,
    /// Second `gcd` argument.
    pub gcd_b: u16,
    /// Number of `gcd` calls.
    pub gcd_reps: u16,
    /// Table elements filled and summed.
    pub count: u16,
    /// Distance between touched elements, in words.
    pub stride: u16,
    /// Element `i` holds `i * mult + bias`.
    pub mult: u16,
    /// See `mult`.
    pub bias: u16,
}

impl ProgramSpec {
    /// A program of stratum `stratum` (a walk and a `fib` size) with
    /// seeded values.
    pub fn generate(rng: &mut Rng, stratum: usize) -> Self {
        let (span, stride) = WALKS[stratum % WALKS.len()];
        ProgramSpec {
            fib_n: FIB_N[stratum / WALKS.len() % FIB_N.len()],
            gcd_a: rng.range(1_000, 60_000) as u16,
            gcd_b: rng.range(1_000, 60_000) as u16,
            gcd_reps: 16,
            count: (span / u32::from(stride)) as u16,
            stride,
            mult: rng.word() | 1,
            bias: rng.word(),
        }
    }

    /// The program's source text.
    pub fn source(&self) -> String {
        format!(
            "proc fib(n) {{ if n < 2 {{ return n; }} return fib(n - 1) + fib(n - 2); }}\n\
             proc gcd(a, b) {{ while b != 0 {{ let t = b; b = a % b; a = t; }} return a; }}\n\
             proc fill(count, stride, mult, bias) {{\n\
             \x20 let i = 0;\n\
             \x20 while count != 0 {{ aset({TABLE}, i, i * mult + bias); i = i + stride; count = count - 1; }}\n\
             \x20 return 0;\n\
             }}\n\
             proc walk(count, stride) {{\n\
             \x20 let s = 0; let i = 0;\n\
             \x20 while count != 0 {{ s = s + aref({TABLE}, i); i = i + stride; count = count - 1; }}\n\
             \x20 return s;\n\
             }}\n\
             let f = fib({n});\n\
             let g = 0; let r = {reps};\n\
             while r != 0 {{ g = g + gcd({a} + r, {b}); r = r - 1; }}\n\
             fill({count}, {stride}, {mult}, {bias});\n\
             let w = walk({count}, {stride});\n\
             poke({r0}, f); poke({r1}, g); poke({r2}, w);\n\
             f ^ g ^ w;\n",
            n = self.fib_n,
            reps = self.gcd_reps,
            a = self.gcd_a,
            b = self.gcd_b,
            count = self.count,
            stride = self.stride,
            mult = self.mult,
            bias = self.bias,
            r0 = RESULTS,
            r1 = RESULTS + 1,
            r2 = RESULTS + 2,
        )
    }

    /// The host reference: `[fib, gcd sum, walk sum]`.
    pub fn expected(&self) -> [Word; 3] {
        let (mut a, mut b) = (0u16, 1u16);
        for _ in 0..self.fib_n {
            (a, b) = (b, a.wrapping_add(b));
        }
        let fib = a;
        let gcd = (1..=self.gcd_reps).fold(0u16, |acc, r| {
            let (mut x, mut y) = (self.gcd_a.wrapping_add(r), self.gcd_b);
            while y != 0 {
                (x, y) = (y, x % y);
            }
            acc.wrapping_add(x)
        });
        let walk = (0..self.count).fold(0u16, |acc, k| {
            let i = k.wrapping_mul(self.stride);
            acc.wrapping_add(i.wrapping_mul(self.mult).wrapping_add(self.bias))
        });
        [fib, gcd, walk]
    }
}

/// The seeded programs of pass `pass`, `n` ops cycling through the strata.
pub fn specs(seed: u64, pass: usize, n: usize) -> Vec<ProgramSpec> {
    let mut rng = pass_rng(seed, 0x7072_6f67, pass);
    (0..n)
        .map(|i| ProgramSpec::generate(&mut rng, i % STRATA))
        .collect()
}

/// Reads the three stored results and the final top of stack.
pub fn results(m: &dorado_core::Dorado) -> ([Word; 3], Word) {
    let word = |k: u32| m.memory().read_virt(VirtAddr::new(RESULTS + k));
    ([word(0), word(1), word(2)], mesa::tos(m))
}

struct Program {
    source: String,
    expected: [Word; 3],
}

fn programs(seed: u64, pass: usize, n: usize) -> Vec<Program> {
    specs(seed, pass, n)
        .into_iter()
        .map(|s| Program {
            source: s.source(),
            expected: s.expected(),
        })
        .collect()
}

/// The workload state: the Mesa suite and the current pass's programs.
pub struct Programs {
    suite: Suite,
    programs: Passes<Program>,
}

impl Programs {
    /// Generates the first pass's programs and assembles the Mesa suite.
    ///
    /// # Panics
    ///
    /// Panics if the Mesa suite fails to assemble.
    pub fn setup(seed: u64, pass_len: usize, tr: &mut Tracer) -> Self {
        let programs = Passes::new(seed, pass_len, programs);
        let suite = tr.span("emu.assemble", |_| {
            SuiteBuilder::new()
                .with_mesa()
                .assemble()
                .expect("Mesa suite assembles")
        });
        Programs { suite, programs }
    }
}

impl Workload for Programs {
    fn pass_len(&self) -> usize {
        self.programs.len()
    }

    fn run_op(&mut self, i: usize, tr: &mut Tracer, ledger: &mut Ledger) -> bool {
        let p = self.programs.get(i);
        ledger.add("lang.compiles", 1.0);
        let Ok(bytes) = tr.span("lang.compile", |_| dorado_lang::compile(&p.source)) else {
            return false;
        };
        let Ok(mut m) = tr.span("emu.build_machine", |_| build_mesa_on(&self.suite, &bytes)) else {
            return false;
        };
        let out = tr.span("core.run", |_| m.run(RUN_LIMIT));
        ledger.add("core.run_cycles", out.cycles().unwrap_or(0) as f64);
        add_stats(ledger, &m.stats());
        let (stored, tos) = results(&m);
        let [f, g, w] = p.expected;
        out.halted() && stored == p.expected && tos == f ^ g ^ w
    }
}
