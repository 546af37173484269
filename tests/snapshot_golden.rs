//! Golden snapshot images: the CRC64 of `save_image` output at fixed
//! points, pinned in a committed table.
//!
//! The snapshot format promises byte-identical images for identical
//! machine state, whatever the I/O scheduling mode and however the
//! serialization code is organised.  This table is that promise's
//! oracle: every workstation point is taken under the event-horizon
//! scheduler and under naive always-tick, and both must hash to the same
//! entry.  On a mismatch the test prints the whole computed table; a
//! table change is a snapshot format change and needs `SNAP_VERSION`
//! bumped.

use dorado::base::crc::crc64;
use dorado::base::snap::{save_image, Snapshot, SNAP_VERSION};
use dorado::base::{TaskId, VirtAddr, Word, MUNCH_WORDS};
use dorado::cluster::{ClusterConfig, ClusterSim, Exec};
use dorado::core::Dorado;
use dorado::emu::scenario::{build_machine, ScenarioKind};
use dorado::ifu::{DecodeEntry, Ifu, OperandKind};
use dorado::io::synth::SynthPath;
use dorado::io::{
    Device, DiskController, DisplayController, Framebuffer, InputDevice, NetworkController,
    RateDevice,
};
use dorado::mem::{MemConfig, MemorySystem};
use dorado_bench::workstation_machine;

/// `(point, CRC64 of its image)`, in the order the test computes them.
const GOLDEN: &[(&str, u64)] = &[
    ("workstation@0", 0x757d8f3956ff2453),
    ("workstation@30000", 0xb2ebda388ee3a4d4),
    ("workstation@200000", 0x84da267dcc54ae4a),
    ("scenario@0", 0x66882bbb75ebf59b),
    ("scenario@30000", 0x2cbe5b4d18b970ca),
    ("scenario@200000", 0xf9e4d53c56b295c0),
    ("cluster8@10", 0xf69b06ac87422e2c),
    ("disk", 0x15dc53e3e4ceeed9),
    ("network", 0xde52717b7ba6286c),
    ("display", 0x622fef71ff6d7001),
    ("input", 0x0f9d71eeb1e00a55),
    ("synth-running", 0xc9a54fc2493c6555),
    ("synth-stopped", 0xb9085f2087af1c45),
    ("memory", 0x38c93434bbf108da),
    ("ifu", 0x71a9db723ae693cc),
];

fn crc<T: Snapshot>(x: &mut T) -> u64 {
    crc64(&save_image(x))
}

/// Images of one workstation build at cycles 0, 30k and 200k (the run
/// halts earlier if its program does), in one scheduling mode.
fn workstation_points(
    name: &str,
    build: impl Fn() -> Dorado,
    always_tick: bool,
    out: &mut Vec<(String, u64)>,
) {
    let mut m = build();
    m.io_mut().set_always_tick(always_tick);
    for k in [0u64, 30_000, 200_000] {
        m.run_quantum(k - m.cycles().min(k));
        out.push((format!("{name}@{k}"), crc(&mut m)));
    }
}

fn scenario_workstation() -> Dorado {
    build_machine(ScenarioKind::EditorStorm)
}

fn disk_mid_transfer() -> DiskController {
    let mut d = DiskController::new(TaskId::new(11));
    for (i, w) in d.platter_mut().iter_mut().take(256).enumerate() {
        *w = (i as Word).wrapping_mul(5);
    }
    d.start_read(200);
    for _ in 0..500 {
        d.tick();
    }
    let _ = d.input(0);
    d
}

fn network_mid_receive() -> NetworkController {
    let mut n = NetworkController::new(TaskId::new(13));
    n.inject_packet(vec![10, 20, 30, 40, 50, 60, 70, 80]);
    n.inject_packet(vec![1, 2]);
    n.output(0, 7);
    for _ in 0..400 {
        n.tick();
    }
    n
}

fn display_mid_field() -> DisplayController {
    let mut d = DisplayController::with_rate(TaskId::new(14), 100.0, 60.0);
    d.set_framebuffer(Framebuffer::new(4, 8));
    d.start();
    d.accept_munch(&[0x1234; MUNCH_WORDS]);
    d.accept_munch(&[0xbeef; MUNCH_WORDS]);
    for _ in 0..60 {
        d.tick();
    }
    d
}

fn input_mid_script() -> InputDevice {
    let mut k = InputDevice::keyboard(TaskId::new(9));
    k.schedule_all([(2, 10), (8, 11), (9, 12), (90, 13)]);
    for _ in 0..20 {
        k.tick();
    }
    let _ = k.input(0);
    k
}

fn synth(stopped: bool) -> RateDevice {
    let mut d = RateDevice::new(TaskId::new(10), 16.0, 60.0, SynthPath::Slow);
    d.start();
    for _ in 0..300 {
        d.tick();
    }
    let _ = d.input(0);
    if stopped {
        d.stop();
        for _ in 0..100 {
            d.tick();
        }
    }
    d
}

fn memory_with_fetch_in_flight() -> MemorySystem {
    let mut m = MemorySystem::new(MemConfig::default());
    m.write_virt(VirtAddr::new(0x1000), 0xfeed);
    m.start_fetch(TaskId::EMULATOR, VirtAddr::new(0x1000))
        .unwrap();
    m.tick();
    m
}

fn ifu_mid_prefetch() -> Ifu {
    let mut mem = MemorySystem::new(MemConfig::default());
    for i in 0..8u32 {
        mem.write_virt(VirtAddr::new(0x400 + i), 0x1005 + i as Word);
    }
    let mut ifu = Ifu::new();
    ifu.set_code_base(VirtAddr::new(0x400));
    ifu.set_decode_entry(
        0x10,
        DecodeEntry::new(dorado::base::MicroAddr::new(8)).with_operand(OperandKind::Byte),
    );
    ifu.jump(0);
    for _ in 0..12 {
        ifu.tick(&mut mem);
        mem.tick();
    }
    ifu
}

fn compute() -> Vec<(String, u64)> {
    let mut table = Vec::new();
    for (name, build) in [
        ("workstation", workstation_machine as fn() -> Dorado),
        ("scenario", scenario_workstation),
    ] {
        let mut sched = Vec::new();
        workstation_points(name, build, false, &mut sched);
        let mut naive = Vec::new();
        workstation_points(name, build, true, &mut naive);
        assert_eq!(
            sched, naive,
            "{name}: images differ between scheduled and always-tick runs"
        );
        table.extend(sched);
    }

    let mut cluster = ClusterSim::build(&ClusterConfig::pairs(8, 3, 2)).unwrap();
    cluster.run(10, Exec::Sequential);
    table.push(("cluster8@10".into(), crc64(&cluster.save_checkpoint())));

    table.push(("disk".into(), crc(&mut disk_mid_transfer())));
    table.push(("network".into(), crc(&mut network_mid_receive())));
    table.push(("display".into(), crc(&mut display_mid_field())));
    table.push(("input".into(), crc(&mut input_mid_script())));
    table.push(("synth-running".into(), crc(&mut synth(false))));
    table.push(("synth-stopped".into(), crc(&mut synth(true))));
    table.push(("memory".into(), crc(&mut memory_with_fetch_in_flight())));
    table.push(("ifu".into(), crc(&mut ifu_mid_prefetch())));
    table
}

#[test]
fn snapshot_images_match_the_golden_table() {
    assert_eq!(SNAP_VERSION, 1, "the table pins format version 1");
    let table = compute();
    let golden: Vec<(String, u64)> = GOLDEN.iter().map(|&(n, c)| (n.to_string(), c)).collect();
    if table != golden {
        let mut listing = String::from("const GOLDEN: &[(&str, u64)] = &[\n");
        for (name, c) in &table {
            listing.push_str(&format!("    (\"{name}\", {c:#018x}),\n"));
        }
        listing.push_str("];\n");
        panic!("snapshot images drifted from the golden table; computed:\n{listing}");
    }
}

/// The points the table pins are the states it claims to pin.
#[test]
fn golden_points_are_mid_operation() {
    let d = display_mid_field();
    let cursor = d.framebuffer().unwrap().cursor();
    assert!(cursor > 0 && d.painted > 0, "display mid-field");
    assert!(disk_mid_transfer().busy(), "disk mid-transfer");
    let n = network_mid_receive();
    assert!(n.rx_busy(), "network mid-receive");
    assert!(input_mid_script().pending() > 0, "input mid-script");
    assert!(memory_with_fetch_in_flight().fetch_in_flight(TaskId::EMULATOR));
    let mut scn = scenario_workstation();
    scn.run_quantum(30_000);
    let fb_cursor = scn
        .device_mut::<DisplayController>("display")
        .unwrap()
        .framebuffer()
        .unwrap()
        .cursor();
    assert!(fb_cursor > 0, "scenario display mid-field at 30k");
}
