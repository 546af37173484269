//! The microassembler's automatic placement at work (§5.5, §7): place this
//! repository's real microcode suite and a sweep of synthetic near-full
//! stores, reporting utilization — the experiment behind the paper's
//! "99.9% of the available memory" remark.
//!
//! ```sh
//! cargo run --example placement_report
//! ```

use dorado::asm::synth::{random_program, SynthProfile};
use dorado::emu::SuiteBuilder;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    println!("real microcode (the full emulator + device suite):");
    let suite = SuiteBuilder::everything().assemble()?;
    let s = suite.placed().stats();
    println!(
        "  {:>4} instructions + {:>3} relays, {:>3} wasted words → {:>6.2}% utilization",
        s.instructions,
        s.relays,
        s.waste,
        s.utilization() * 100.0
    );

    println!("\nsynthetic programs (statistics like real microcode), by size:");
    println!(
        "  {:>6} {:>7} {:>7} {:>7} {:>9} {:>8}",
        "insts", "relays", "waste", "rounds", "footprint", "util%"
    );
    for n in [500, 1000, 2000, 3000, 3400] {
        let p = random_program(7, n, &SynthProfile::default());
        let placed = p.place()?;
        let s = placed.stats();
        println!(
            "  {:>6} {:>7} {:>7} {:>7} {:>9} {:>8.2}",
            s.instructions,
            s.relays,
            s.waste,
            s.repair_rounds,
            s.footprint(),
            s.utilization() * 100.0
        );
    }

    println!("\nbranch-heavy vs straight-line code:");
    for (name, profile) in [
        (
            "straight",
            SynthProfile {
                branch_pct: 5,
                ..SynthProfile::default()
            },
        ),
        ("typical", SynthProfile::default()),
        (
            "branchy",
            SynthProfile {
                branch_pct: 70,
                ..SynthProfile::default()
            },
        ),
    ] {
        let p = random_program(11, 2000, &profile);
        let placed = p.place()?;
        let s = placed.stats();
        println!(
            "  {name:<9} {:>5} relays, {:>4} waste → {:>6.2}%",
            s.relays,
            s.waste,
            s.utilization() * 100.0
        );
    }
    println!(
        "\n(The paper reports 99.9%; this placer's greedy packing plus\n\
         repair reaches the high nineties — the residual is page-boundary\n\
         escapes and duplicated branch targets, see EXPERIMENTS.md.)"
    );
    Ok(())
}
