//! Prints the paper-vs-measured table for every experiment, in markdown.
//!
//! ```sh
//! cargo run --release -p dorado-bench --bin report
//! ```

use dorado_bench as h;
use dorado_core::TaskingMode;
use dorado_emu::bitblt::BlitKind;

fn main() {
    println!("# Experiment report: paper vs. measured\n");
    println!("Machine: 60 ns multiwire clock, 4 KW 2-way cache, 8-cycle storage RAMs.\n");

    // --- E1 -------------------------------------------------------------
    println!("## E1 — microinstructions per macroinstruction (§7)\n");
    println!("| Opcode class | Paper (Mesa) | Measured (Mesa) | Paper (Lisp) | Measured (Lisp) | Measured (BCPL) |");
    println!("|---|---|---|---|---|---|");
    let mesa_load = h::mesa_cost(|p| p.ll(0), 64);
    let lisp_load = h::lisp_cost(|p| p.lget(0), 64);
    let bcpl_load = h::bcpl_cost(|p| p.lv(0), 64);
    println!("| load | 1–2 | {mesa_load:.1} | ≈5 | {lisp_load:.1} | {bcpl_load:.1} |");
    let mesa_store = h::mesa_cost(
        |p| {
            p.lib(1);
            p.sl(0);
        },
        64,
    ) - 1.0;
    let lisp_store = h::lisp_cost(
        |p| {
            p.push_fix(1);
            p.lset(0);
        },
        64,
    ) - 3.0;
    let bcpl_store = h::bcpl_cost(
        |p| {
            p.lit(1);
            p.sv(0);
        },
        64,
    ) - 1.0;
    println!("| store | 1–2 | {mesa_store:.1} | ≈5 | {lisp_store:.1} | {bcpl_store:.1} |");
    let mesa_field = h::mesa_cost(
        |p| {
            p.liw(0x100);
            p.rf(4, 8);
            p.drop_top();
        },
        32,
    ) - 2.0;
    println!("| read field | 5–10 | {mesa_field:.1} | 10–20 | n/a (CAR below) | — |");
    let lisp_car = h::lisp_cost(
        |p| {
            p.push_fix(5);
            p.push_fix(7);
            p.cons();
            p.car();
        },
        16,
    );
    println!(
        "| cons+car | — | — | 10–20 each | {:.1} (pair) | — |",
        lisp_car
    );
    let mesa_call = h::mesa_call_cycles();
    let lisp_call = h::lisp_call_cycles();
    let bcpl_call = h::bcpl_call_cycles();
    println!(
        "| call+return (cycles) | ≈50 | {mesa_call:.0} | ≈200 | {lisp_call:.0} | {bcpl_call:.0} |"
    );
    println!();

    // --- E2 -------------------------------------------------------------
    println!("## E2 — BitBlt bandwidth (§7)\n");
    println!("| Operation | Paper | Measured |");
    println!("|---|---|---|");
    println!(
        "| erase (fill) | ≥ simple class | {:.1} Mbit/s |",
        h::bitblt_mbps(BlitKind::Fill, 0)
    );
    println!(
        "| scroll (shifted copy) | 34 Mbit/s | {:.1} Mbit/s |",
        h::bitblt_mbps(BlitKind::ShiftedCopy, 5)
    );
    println!(
        "| aligned copy | ≈34 Mbit/s class | {:.1} Mbit/s |",
        h::bitblt_mbps(BlitKind::Copy, 0)
    );
    println!(
        "| src⊕dst∧filter (merge) | 24 Mbit/s | {:.1} Mbit/s |",
        h::bitblt_mbps(BlitKind::Merge, 5)
    );
    println!();

    // --- E3 -------------------------------------------------------------
    println!("## E3 — slow-I/O processor share vs device rate (§7)\n");
    println!("| Device rate | Paper | Measured share |");
    println!("|---|---|---|");
    for mbps in [5.0, 10.0, 20.0, 40.0, 80.0] {
        let share = h::slow_io_share(mbps) * 100.0;
        let paper = if (mbps - 10.0).abs() < 0.1 {
            "5%"
        } else {
            "∝ rate"
        };
        println!("| {mbps:.0} Mbit/s | {paper} | {share:.1}% |");
    }
    println!();

    // --- E4/E5 ----------------------------------------------------------
    println!("## E4/E5 — fast I/O at full storage bandwidth (§6.2.1, §7)\n");
    let g2 = h::fastio_share(TaskingMode::OnDemand) * 100.0;
    let g3 = h::fastio_share(TaskingMode::NotifyGrain3) * 100.0;
    let mbps = h::fastio_mbps();
    println!("| Quantity | Paper | Measured |");
    println!("|---|---|---|");
    println!("| delivered bandwidth | 530 Mbit/s | {mbps:.0} Mbit/s |");
    println!("| processor share, 2-cycle grain | 25% | {g2:.1}% |");
    println!("| processor share, 3-cycle notify design | 37.5% | {g3:.1}% |");
    println!();

    // --- E6 -------------------------------------------------------------
    println!("## E6 — automatic placement of a full microstore (§7)\n");
    println!("| Program size | Paper | Measured utilization |");
    println!("|---|---|---|");
    for n in [1000usize, 2000, 3000, 3400] {
        println!(
            "| {n} instructions | 99.9% | {:.1}% |",
            h::placement_utilization(n) * 100.0
        );
    }
    println!("\n(Greedy placement with constraint repair; the paper's placer");
    println!("optimized page assignment globally — see EXPERIMENTS.md.)\n");

    // --- E7 -------------------------------------------------------------
    println!("## E7 — bus bandwidth constants (§5.8, §6.2.1)\n");
    let c = h::clock();
    println!("| Bus | Paper | This machine |");
    println!("|---|---|---|");
    println!(
        "| slow I/O (word/cycle) | 265 Mbit/s | {:.0} Mbit/s |",
        c.mbits_per_sec(16, dorado_base::Cycles(1))
    );
    println!(
        "| storage (munch / 8 cycles) | 530 Mbit/s | {:.0} Mbit/s |",
        c.mbits_per_sec(256, dorado_base::Cycles(8))
    );
    println!();

    // --- E9 -------------------------------------------------------------
    println!("## E9 — data bypassing ablation (§5.6)\n");
    let (with, without) = h::bypass_cycles();
    println!("| Machine | Cycles | Relative |");
    println!("|---|---|---|");
    println!("| with bypassing (shipped) | {with} | 1.00 |");
    println!(
        "| Model 0 (no bypassing, padded code) | {without} | {:.2} |",
        without as f64 / with as f64
    );
    println!();

    // --- E12 ------------------------------------------------------------
    println!("## E12 — wiring technology (§2)\n");
    let (stitch, multi) = h::wiring_times_ms();
    println!("| Build | Cycle | Workload time | Slowdown |");
    println!("|---|---|---|---|");
    println!("| stitchweld prototype | 50 ns | {stitch:.3} ms | — |");
    println!(
        "| multiwire production | 60 ns | {multi:.3} ms | {:.0}% (paper: ≈15%) |",
        (multi - stitch) / multi * 100.0
    );
    println!();

    // --- E13 ------------------------------------------------------------
    println!("## E13 — Hold overlaps memory latency with I/O work (§5.7)\n");
    let (alone, shared, disp) = h::hold_overlap();
    println!("| Configuration | Emulator instructions | Display instructions |");
    println!("|---|---|---|");
    println!("| cache-missing emulator alone | {alone} | 0 |");
    println!("| + display refresh | {shared} | {disp} |");
    println!(
        "\nThe display performed {disp} instructions of useful work while \
         costing the\nemulator only {:.1}% of its throughput — the held \
         cycles were recycled.\n",
        (1.0 - shared as f64 / alone as f64) * 100.0
    );
}
