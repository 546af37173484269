use dorado_asm::*;
fn nop() -> Inst {
    Inst::new()
}
fn try_place(name: &str, f: impl FnOnce(&mut Assembler)) {
    let mut a = Assembler::new();
    a.label("trap");
    a.emit(nop().ff_halt().goto_("trap"));
    f(&mut a);
    match a.place() {
        Ok(p) => println!("{name}: ok ({} words)", p.words_used()),
        Err(e) => println!("{name}: ERR {e}"),
    }
}
fn main() {
    try_place("disk_read", dorado_emu::devices::emit_disk_read);
    try_place("disk_write", dorado_emu::devices::emit_disk_write);
    try_place("display", dorado_emu::devices::emit_display_fastio);
    try_place("display3", dorado_emu::devices::emit_display_fastio_grain3);
    try_place("sinkf", dorado_emu::devices::emit_fastio_sink);
    try_place("sinks", dorado_emu::devices::emit_slow_sink);
    try_place("net", dorado_emu::devices::emit_network_rx);
    try_place("bitblt", dorado_emu::bitblt::emit_microcode);
    try_place("mesa", dorado_emu::mesa::emit_microcode);
}
