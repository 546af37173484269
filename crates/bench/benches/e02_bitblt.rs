//! E2 (§7): BitBlt bandwidths — simple (erase/scroll) vs complex (merge).

use dorado_bench as h;
use dorado_bench::harness::bench;
use dorado_emu::bitblt::BlitKind;

fn main() {
    for (name, kind, shift, paper) in [
        ("fill", BlitKind::Fill, 0u8, "(fastest)"),
        ("copy", BlitKind::Copy, 0, "≈34 class"),
        ("scroll", BlitKind::ShiftedCopy, 5, "34 Mbit/s"),
        ("merge", BlitKind::Merge, 5, "24 Mbit/s"),
    ] {
        println!(
            "E2 | {name}: {:.1} Mbit/s (paper {paper})",
            h::bitblt_mbps(kind, shift)
        );
    }
    bench("e02/scroll_60x80", || {
        h::bitblt_mbps(BlitKind::ShiftedCopy, 5)
    });
    bench("e02/merge_60x80", || h::bitblt_mbps(BlitKind::Merge, 5));
}
