//! E13 (§5.7): Hold converts memory-wait cycles into useful work for
//! higher-priority tasks.

use dorado_bench as h;
use dorado_bench::harness::bench;

fn main() {
    let (alone, shared, disp) = h::hold_overlap();
    println!("E13 | emulator alone {alone} instrs; with display {shared} (+{disp} display instrs)");
    println!(
        "E13 | display work recovered from held cycles at only {:.1}% emulator cost",
        (1.0 - shared as f64 / alone as f64) * 100.0
    );
    bench("e13/overlap", h::hold_overlap);
}
