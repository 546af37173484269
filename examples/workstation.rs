//! The full personal-computer scenario of §4: the Mesa emulator computing
//! in the foreground while the display refreshes over fast I/O, the disk
//! streams a transfer, and the network receives a packet — all sharing one
//! processor by task priority.
//!
//! ```sh
//! cargo run --example workstation
//! cargo run --example workstation -- --trace trace.jsonl   # last 64Ki cycles as JSONL
//! cargo run --example workstation -- --trace=trace.jsonl   # same, one-argument form
//! ```

use dorado::base::{BaseRegId, TaskId, VirtAddr, Word};
use dorado::emu::layout::*;
use dorado::emu::mesa::{self, MesaAsm};
use dorado::emu::SuiteBuilder;
use dorado::io::{DiskController, DisplayController, NetworkController};

fn main() -> Result<(), Box<dyn std::error::Error>> {
    // `--trace FILE` records the last 64Ki cycles and exports them as
    // JSONL (one event per line) for offline tooling.
    let mut args = std::env::args().skip(1);
    let mut trace_path: Option<String> = None;
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--trace" => {
                trace_path = Some(args.next().ok_or("--trace needs a file argument")?);
            }
            s if s.starts_with("--trace=") => {
                let path = &s["--trace=".len()..];
                if path.is_empty() {
                    return Err("--trace= needs a file argument".into());
                }
                trace_path = Some(path.to_string());
            }
            other => return Err(format!("unknown argument `{other}`").into()),
        }
    }

    // The foreground program: naive recursive fib(15).
    let mut p = MesaAsm::new();
    p.lib(15);
    p.call("fib", 1);
    p.halt();
    p.label("fib");
    p.ll(0);
    p.lib(2);
    p.sub();
    p.sl(2);
    p.ll(0);
    p.jzb("base0");
    p.ll(0);
    p.lib(1);
    p.sub();
    p.jzb("base1");
    p.ll(0);
    p.lib(1);
    p.sub();
    p.call("fib", 1);
    p.ll(2);
    p.call("fib", 1);
    p.add();
    p.ret();
    p.label("base0");
    p.lib(0);
    p.ret();
    p.label("base1");
    p.lib(1);
    p.ret();
    let program = p.assemble()?;

    // Devices.
    let mut display = DisplayController::with_rate(TASK_DISPLAY, 256.0, 60.0);
    display.start();
    let mut disk = DiskController::new(TASK_DISK);
    for (i, w) in disk.platter_mut().iter_mut().take(2048).enumerate() {
        *w = i as Word;
    }
    disk.start_read(2048);
    let mut net = NetworkController::new(TASK_NET);
    net.inject_packet((1..=48).map(|x| x * 3).collect());

    // One microstore image holds the emulator and every device task (§5.1).
    let suite = SuiteBuilder::new()
        .with_mesa()
        .with_display()
        .with_disk()
        .with_network()
        .assemble()?;
    println!(
        "microstore: {} words placed, {:.1}% utilization",
        suite.placed().words_used(),
        suite.placed().stats().utilization() * 100.0
    );

    let mut m = suite
        .machine()
        .task_entry(TASK_EMU, "mesa:boot")
        .device(Box::new(display), IOA_DISPLAY, 2)
        .wire_ioaddress(TASK_DISPLAY, IOA_DISPLAY)
        .task_entry(TASK_DISPLAY, "disp:init")
        .device(Box::new(disk), IOA_DISK, 2)
        .wire_ioaddress(TASK_DISK, IOA_DISK)
        .task_entry(TASK_DISK, "disk:init")
        .device(Box::new(net), IOA_NET, 3)
        .wire_ioaddress(TASK_NET, IOA_NET)
        .task_entry(TASK_NET, "net:init")
        .build()?;
    mesa::configure_ifu(&mut m);
    mesa::init_runtime(&mut m);
    mesa::load_program(&mut m, &program);
    // Buffer regions for the device tasks.
    m.memory_mut()
        .set_base_reg(BaseRegId::new(BR_DISPLAY), 0x2000);
    m.memory_mut().set_base_reg(BaseRegId::new(BR_DISK), 0x3000);
    m.memory_mut().set_base_reg(BaseRegId::new(BR_NET), 0x3800);
    // A visible bitmap for the display to show.
    for i in 0..0x1000u32 {
        m.memory_mut()
            .write_virt(VirtAddr::new(0x2000 + i), (i as Word).wrapping_mul(3));
    }

    if trace_path.is_some() {
        m.trace_enable(1 << 16);
    }

    let outcome = m.run(2_000_000);
    println!(
        "\nfib(15) = {} (expected 610); outcome {outcome:?}",
        mesa::tos(&m)
    );

    // The §7 tables, straight from the metrics registry.
    println!("\n{}", m.report());
    println!("\nprocessor shares by task (the §4 sharing story):");
    let r = m.report();
    for (name, task) in [
        ("emulator (Mesa)", TaskId::EMULATOR),
        ("disk", TASK_DISK),
        ("network", TASK_NET),
        ("display", TASK_DISPLAY),
    ] {
        println!(
            "  {name:<16} {:>6.2}%  ({} instructions)",
            r.utilization(task) * 100.0,
            r.executed(task)
        );
    }

    if let (Some(path), Some(tracer)) = (&trace_path, m.tracer()) {
        let mut f = std::io::BufWriter::new(std::fs::File::create(path)?);
        tracer.write_jsonl(&mut f)?;
        println!(
            "\nwrote {} trace event(s) to {path} ({} older dropped)",
            tracer.len(),
            tracer.dropped()
        );
    }

    // The disk transfer landed in memory:
    let good = (0..2048u32)
        .take_while(|&i| m.memory().read_virt(VirtAddr::new(0x3000 + i)) == i as Word)
        .count();
    let d = m.device_mut::<DiskController>("disk").unwrap();
    println!(
        "disk transfer: {good}/2048 words intact, overruns {}",
        d.overruns
    );
    Ok(())
}
