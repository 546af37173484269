//! Device-task microcode: the service loops of §7.
//!
//! * **Disk** (slow I/O): "the microcode for the disk takes three cycles to
//!   transfer two words each way; thus the 10 megabit/sec disk consumes 5%
//!   of the processor."  The inner loop is two combined
//!   `Input`+store+bump instructions and a `Block`.
//! * **Display** (fast I/O): "takes only two instructions to transfer a 16
//!   word block of data from memory to the device, and can consume the
//!   available memory bandwidth for I/O (530 megabits/sec) using only one
//!   quarter of the available microcycles."
//! * A grain-3 variant of each loop adds the explicit `IoNotify` of the
//!   §6.2.1 "simpler design" ablation.
//!
//! Each task's microcode begins with a one-time preamble (run on its first
//! wakeup) that sets the task-specific RBASE and MEMBASE, then falls into
//! its steady-state loop; `Block` leaves TPC at the loop head.

use dorado_asm::{ASel, AluOp, Assembler, BSel, Cond, FfOp, Inst};

use crate::layout::*;

fn nop() -> Inst {
    Inst::new()
}

/// Emits a task preamble setting RBASE and MEMBASE, ending just before
/// `loop_label` (which must be emitted immediately after).
fn emit_preamble(a: &mut Assembler, entry: &str, rbase: u8, membase: u8) {
    a.label(entry.to_string());
    a.emit(nop().const16(rbase.into()).alu(AluOp::B).load_t());
    a.emit(nop().b(BSel::T).ff(FfOp::LoadRBase));
    a.emit(nop().ff(FfOp::LoadMemBaseImm(membase)));
}

/// Emits the disk *read* service loop (device → memory): entry label
/// `disk:init`, loop `disk:loop`.  RM window register 0 (under
/// [`RB_DISK`]) is the buffer displacement, counted up as words arrive.
pub fn emit_disk_read(a: &mut Assembler) {
    emit_preamble(a, "disk:init", RB_DISK, BR_DISK);
    a.label("disk:loop");
    // "Three cycles to transfer two words" (§7): two combined
    // Input+store+bump instructions and a separate Block.  The Block must
    // be its own instruction because "a task must execute at least two
    // instructions after its wakeup is removed before it blocks" (§6.2.1)
    // — this holds on the resume-from-preemption path too.
    a.emit(
        nop()
            .rm(0)
            .a(ASel::StoreR)
            .ff(FfOp::IoInput)
            .alu(AluOp::INC_A)
            .load_rm(),
    );
    a.emit(
        nop()
            .rm(0)
            .a(ASel::StoreR)
            .ff(FfOp::IoInput)
            .alu(AluOp::INC_A)
            .load_rm(),
    );
    a.emit(nop().io_block().goto_("disk:loop"));
}

/// Emits the disk *write* service loop (memory → device): entry
/// `diskw:init`, loop `diskw:loop`.  The loop is software-pipelined: each
/// instruction starts the next fetch while outputting the word fetched two
/// iterations earlier.
pub fn emit_disk_write(a: &mut Assembler) {
    emit_preamble(a, "diskw:init", RB_DISK, BR_DISK);
    // Prologue: prime the fetch pipe with the first two words.
    a.emit(nop().rm(0).a(ASel::FetchR).alu(AluOp::INC_A).load_rm());
    a.emit(nop().rm(0).a(ASel::FetchR).alu(AluOp::INC_A).load_rm());
    a.label("diskw:loop");
    a.emit(
        nop()
            .rm(0)
            .a(ASel::FetchR)
            .b(BSel::MemData)
            .ff(FfOp::IoOutput)
            .alu(AluOp::INC_A)
            .load_rm(),
    );
    a.emit(
        nop()
            .rm(0)
            .a(ASel::FetchR)
            .b(BSel::MemData)
            .ff(FfOp::IoOutput)
            .alu(AluOp::INC_A)
            .load_rm(),
    );
    a.emit(nop().io_block().goto_("diskw:loop"));
}

/// Emits the display fast-I/O refresh loop: entry `disp:init`, loop
/// `disp:loop`.  The task's T permanently holds 16 (the munch stride), so
/// the whole service is `IOFetch16` + pointer bump, then `Block` — two
/// instructions per 16-word block (§7).
pub fn emit_display_fastio(a: &mut Assembler) {
    emit_preamble(a, "disp:init", RB_DISPLAY, BR_DISPLAY);
    a.emit(nop().const16(16).alu(AluOp::B).load_t());
    a.label("disp:loop");
    a.emit(
        nop()
            .rm(0)
            .b(BSel::T)
            .ff(FfOp::IoFetch16)
            .alu(AluOp::ADD)
            .load_rm(),
    );
    a.emit(nop().io_block().goto_("disp:loop"));
}

/// The grain-3 variant of the display loop (`disp3:init` / `disp3:loop`):
/// the §6.2.1 "simpler design" needs a third instruction to notify the
/// device, so saturating storage costs 3/8 = 37.5% of the processor.
pub fn emit_display_fastio_grain3(a: &mut Assembler) {
    emit_preamble(a, "disp3:init", RB_DISPLAY, BR_DISPLAY);
    a.emit(nop().const16(16).alu(AluOp::B).load_t());
    a.label("disp3:loop");
    a.emit(
        nop()
            .rm(0)
            .b(BSel::T)
            .ff(FfOp::IoFetch16)
            .alu(AluOp::ADD)
            .load_rm(),
    );
    a.emit(nop().ff(FfOp::IoNotify));
    a.emit(nop().io_block().goto_("disp3:loop"));
}

/// Emits a fast-I/O *sink* loop (`synthf:init` / `synthf:loop`): munches
/// move from a source device to storage (`IOStore16`), two instructions
/// per block.
pub fn emit_fastio_sink(a: &mut Assembler) {
    emit_preamble(a, "synthf:init", RB_SYNTH, BR_DATA);
    a.emit(nop().const16(16).alu(AluOp::B).load_t());
    a.label("synthf:loop");
    a.emit(
        nop()
            .rm(0)
            .b(BSel::T)
            .ff(FfOp::IoStore16)
            .alu(AluOp::ADD)
            .load_rm(),
    );
    a.emit(nop().io_block().goto_("synthf:loop"));
}

/// Emits a slow-I/O sink loop servicing word pairs (`synths:init` /
/// `synths:loop`), identical in structure to the disk read loop but
/// usable with a [`RateDevice`](dorado_io::RateDevice) at any data rate.
pub fn emit_slow_sink(a: &mut Assembler) {
    emit_preamble(a, "synths:init", RB_SYNTH, BR_DATA);
    a.label("synths:loop");
    a.emit(
        nop()
            .rm(0)
            .a(ASel::StoreR)
            .ff(FfOp::IoInput)
            .alu(AluOp::INC_A)
            .load_rm(),
    );
    a.emit(
        nop()
            .rm(0)
            .a(ASel::StoreR)
            .ff(FfOp::IoInput)
            .alu(AluOp::INC_A)
            .load_rm(),
    );
    a.emit(nop().io_block().goto_("synths:loop"));
}

/// Emits the network receive loop (`net:init` / `net:loop`): one word per
/// wakeup into a buffer, two instructions.
pub fn emit_network_rx(a: &mut Assembler) {
    emit_preamble(a, "net:init", RB_NET, BR_NET);
    a.label("net:loop");
    a.emit(
        nop()
            .rm(0)
            .a(ASel::StoreR)
            .ff(FfOp::IoInput)
            .alu(AluOp::INC_A)
            .load_rm(),
    );
    a.emit(nop()); // second instruction after the wakeup drop (§6.2.1)
    a.emit(nop().io_block().goto_("net:loop"));
}

/// Emits the *framed* display refresh loop (`dispw:init` / `dispw:loop`):
/// the steady state is the same two-instruction munch service as
/// `disp:loop`, but the block's branch watches the controller's attention
/// line (`IOAtten` = vertical retrace).  At a field boundary the task
/// rewinds its bitmap pointer to displacement 0 and acknowledges the
/// field over `IONotify` — four instructions of constant per-field
/// overhead, so the §7 two-instructions-per-scanline property holds in
/// steady state.
///
/// Layout: `dispw:loop` is pair-aligned (even) with `dispw:wrap` in the
/// following odd word, so the live-condition branch needs no placer
/// relay in either arm.
pub fn emit_display_framed(a: &mut Assembler) {
    emit_preamble(a, "dispw:init", RB_DISPLAY, BR_DISPLAY);
    a.emit(nop().const16(16).alu(AluOp::B).load_t());
    a.pair_align();
    a.label("dispw:loop");
    a.emit(
        nop()
            .rm(0)
            .b(BSel::T)
            .ff(FfOp::IoFetch16)
            .alu(AluOp::ADD)
            .load_rm()
            .goto_("dispw:blk"),
    );
    a.label("dispw:wrap");
    a.emit(
        nop()
            .rm(0)
            .const16(0)
            .alu(AluOp::B)
            .load_rm()
            .goto_("dispw:ack"),
    );
    a.label("dispw:blk");
    a.emit(
        nop()
            .io_block()
            .branch(Cond::IoAtten, "dispw:wrap", "dispw:loop"),
    );
    a.label("dispw:ack");
    a.emit(nop().ff(FfOp::IoNotify).goto_("dispw:loop"));
}

/// Emits the keyboard service loop (`kbd:init` / `kbd:loop`): one event
/// word per wakeup into the keyboard ring, same shape as the network
/// receive loop.
pub fn emit_keyboard_rx(a: &mut Assembler) {
    emit_preamble(a, "kbd:init", RB_KBD, BR_KBD);
    a.label("kbd:loop");
    a.emit(
        nop()
            .rm(0)
            .a(ASel::StoreR)
            .ff(FfOp::IoInput)
            .alu(AluOp::INC_A)
            .load_rm(),
    );
    a.emit(nop()); // second instruction after the wakeup drop (§6.2.1)
    a.emit(nop().io_block().goto_("kbd:loop"));
}

/// Emits the mouse service loop (`mouse:init` / `mouse:loop`).
pub fn emit_mouse_rx(a: &mut Assembler) {
    emit_preamble(a, "mouse:init", RB_MOUSE, BR_MOUSE);
    a.label("mouse:loop");
    a.emit(
        nop()
            .rm(0)
            .a(ASel::StoreR)
            .ff(FfOp::IoInput)
            .alu(AluOp::INC_A)
            .load_rm(),
    );
    a.emit(nop()); // second instruction after the wakeup drop (§6.2.1)
    a.emit(nop().io_block().goto_("mouse:loop"));
}

/// Emits the scenario idle loop (`scn:idle`): the emulator task spins
/// here between scripted bitblt episodes so device tasks keep running
/// without the machine halting.
pub fn emit_scenario_idle(a: &mut Assembler) {
    a.label("scn:idle");
    a.emit(nop().goto_("scn:idle"));
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn all_loops_assemble_and_place() {
        let mut a = Assembler::new();
        a.label("trap");
        a.emit(nop().ff_halt().goto_("trap"));
        emit_disk_read(&mut a);
        emit_disk_write(&mut a);
        emit_display_fastio(&mut a);
        emit_display_fastio_grain3(&mut a);
        emit_fastio_sink(&mut a);
        emit_slow_sink(&mut a);
        emit_network_rx(&mut a);
        emit_display_framed(&mut a);
        emit_keyboard_rx(&mut a);
        emit_mouse_rx(&mut a);
        emit_scenario_idle(&mut a);
        let placed = a.place().expect("device microcode places");
        for label in [
            "disk:init",
            "disk:loop",
            "diskw:loop",
            "disp:loop",
            "disp3:loop",
            "synthf:loop",
            "synths:loop",
            "net:loop",
            "dispw:loop",
            "kbd:loop",
            "mouse:loop",
            "scn:idle",
        ] {
            assert!(placed.address_of(label).is_some(), "{label}");
        }
    }

    #[test]
    fn framed_display_loop_keeps_the_two_instruction_shape() {
        // Steady state: munch fetch at the pair-aligned loop head, block
        // at its goto target; the retrace arm sits in the odd word so the
        // IOAtten branch resolves without placer relays.
        let mut a = Assembler::new();
        a.label("trap");
        a.emit(nop().ff_halt().goto_("trap"));
        emit_display_framed(&mut a);
        let placed = a.place().unwrap();
        let lp = placed.address_of("dispw:loop").unwrap();
        assert_eq!(lp.raw() % 2, 0, "loop head must sit at an even address");
        let wrap = placed.address_of("dispw:wrap").unwrap();
        assert_eq!(wrap.raw(), lp.raw() + 1, "wrap is the odd pair partner");
        let blk = placed.address_of("dispw:blk").unwrap();
        assert!(placed.word(blk).block());
    }

    #[test]
    fn steady_state_loops_have_paper_lengths() {
        // The §7 claims are about instructions per service; check the
        // loop bodies have exactly the paper's instruction counts.
        let mut a = Assembler::new();
        a.label("trap");
        a.emit(nop().ff_halt().goto_("trap"));
        emit_disk_read(&mut a);
        emit_display_fastio(&mut a);
        let placed = a.place().unwrap();
        let disk_loop = placed.address_of("disk:loop").unwrap();
        // Disk: 2 transfer instructions per pair, then a separate Block —
        // "three cycles to transfer two words" (§7).
        let w3 = placed.word(dorado_base::MicroAddr::new(disk_loop.raw() + 2));
        assert!(w3.block());
        let disp_loop = placed.address_of("disp:loop").unwrap();
        let w2 = placed.word(dorado_base::MicroAddr::new(disp_loop.raw() + 1));
        assert!(w2.block());
    }
}
