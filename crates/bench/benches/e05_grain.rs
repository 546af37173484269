//! E5 (§6.2.1): task-grain ablation — the shipped 2-cycle grain needs 25%
//! of the processor to saturate storage; the "simpler" 3-cycle notify
//! design needs 37.5%.

use dorado_bench as h;
use dorado_bench::harness::bench;
use dorado_core::TaskingMode;

fn main() {
    let g2 = h::fastio_share(TaskingMode::OnDemand) * 100.0;
    let g3 = h::fastio_share(TaskingMode::NotifyGrain3) * 100.0;
    println!("E5 | 2-cycle grain: {g2:.1}% (paper 25%)");
    println!("E5 | 3-cycle notify: {g3:.1}% (paper 37.5%)");
    bench("e05/grain3_share", || {
        h::fastio_share(TaskingMode::NotifyGrain3)
    });
}
