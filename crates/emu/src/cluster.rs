//! Cluster workload microcode: an echo/RPC server and request generators.
//!
//! The paper's Dorado lived on the experimental Ethernet (§2); these
//! programs put traffic on it.  Packets follow the `dorado-cluster` wire
//! convention: word 0 is the destination address, word 1 the source, word
//! 2 a sequence number, and the rest payload.
//!
//! * **Echo server** (`eserv:*`, network task): waits for end-of-packet
//!   attention, then replays the packet with source and destination
//!   swapped — the §7 service-loop discipline applied to an RPC shape.
//! * **Closed-loop client** (`clib:*` emulator task + `clic:*` network
//!   task): the emulator primes a window of outstanding requests, then
//!   the network task sends a fresh request for every response — fixed
//!   outstanding-window load.
//! * **Open-loop client** (`clio:*` emulator task + `clid:*` network
//!   task): the emulator emits a request every `period` countdown
//!   iterations whether or not responses return; the network task drains
//!   and counts responses — fixed-rate load.
//!
//! The COUNT register is machine-global (one per processor, not per
//! task), so these loops keep their countdowns in RM registers and test
//! the ALU `Zero` flag, which *is* task-specific (§5.3).

use dorado_asm::{ASel, AluOp, Assembler, BSel, Cond, FfOp, Inst};
use dorado_base::Word;
use dorado_core::Dorado;

use crate::layout::{BR_DATA, BR_NET, IOA_NET, RB_NET};

// --- RM register allocation (one convention for every cluster window) -------

/// Packets served (server) / responses seen (client net task) / requests
/// sent (open-loop emulator task).
pub const CR_COUNT: u8 = 0;
/// Holds `IOA_NET` (the data register), the resting IOADDRESS.
pub const CR_IOA_DATA: u8 = 1;
/// Holds `IOA_NET + 2` (the control register: end-of-packet).
pub const CR_IOA_CTRL: u8 = 2;
/// Holds `IOA_NET + 3` (first-complete-packet length).
pub const CR_IOA_LEN: u8 = 3;
/// Client: the server's fabric address (request word 0).
pub const CR_SERVER: u8 = 4;
/// Client: this machine's fabric address (request word 1); the server
/// reuses the slot for the address saved from each inbound packet.
pub const CR_SELF: u8 = 5;
/// Client: next sequence number (request word 2).
pub const CR_SEQ: u8 = 6;
/// Client: payload words per request (beyond the three header words).
pub const CR_PAYLOAD: u8 = 7;
/// Closed-loop window, or open-loop period (countdown iterations).
pub const CR_LIMIT: u8 = 8;
/// Scratch countdown.
pub const CR_TMP: u8 = 9;
/// Open-loop burst size: requests sent back-to-back at each firing.
pub const CR_BURST: u8 = 10;
/// Scratch burst countdown.
pub const CR_BTMP: u8 = 11;

fn nop() -> Inst {
    Inst::new()
}

/// Absolute RM index of window register `reg` under `rbase`.
fn rm_index(rbase: u8, reg: u8) -> usize {
    usize::from(rbase) * 16 + usize::from(reg)
}

// --- shared emitters ---------------------------------------------------------

/// Network-task preamble: window registers, MEMBASE, IOADDRESS constants,
/// and a zeroed counter.  Ends just before the label emitted next.
fn emit_net_preamble(a: &mut Assembler, entry: &str) {
    a.label(entry.to_string());
    a.emit(nop().const16(RB_NET.into()).alu(AluOp::B).load_t());
    a.emit(nop().b(BSel::T).ff(FfOp::LoadRBase));
    a.emit(nop().ff(FfOp::LoadMemBaseImm(BR_NET)));
    a.emit(
        nop()
            .rm(CR_IOA_DATA)
            .const16(IOA_NET)
            .alu(AluOp::B)
            .load_rm(),
    );
    a.emit(
        nop()
            .rm(CR_IOA_CTRL)
            .const16(IOA_NET + 2)
            .alu(AluOp::B)
            .load_rm(),
    );
    a.emit(
        nop()
            .rm(CR_IOA_LEN)
            .const16(IOA_NET + 3)
            .alu(AluOp::B)
            .load_rm(),
    );
    a.emit(nop().rm(CR_IOA_DATA).ff(FfOp::LoadIoAddress));
    a.emit(nop().rm(CR_COUNT).const16(0).alu(AluOp::B).load_rm());
}

/// Emulator-task preamble for the client generators: RBASE 0, flat data
/// space, IOADDRESS pointed at the network data register.
fn emit_emu_preamble(a: &mut Assembler, entry: &str) {
    a.label(entry.to_string());
    a.emit(nop().const16(0).alu(AluOp::B).load_t());
    a.emit(nop().b(BSel::T).ff(FfOp::LoadRBase));
    a.emit(nop().ff(FfOp::LoadMemBaseImm(BR_DATA)));
    a.emit(
        nop()
            .rm(CR_IOA_DATA)
            .const16(IOA_NET)
            .alu(AluOp::B)
            .load_rm(),
    );
    a.emit(
        nop()
            .rm(CR_IOA_CTRL)
            .const16(IOA_NET + 2)
            .alu(AluOp::B)
            .load_rm(),
    );
    a.emit(nop().rm(CR_IOA_DATA).ff(FfOp::LoadIoAddress));
    a.emit(nop().rm(CR_COUNT).const16(0).alu(AluOp::B).load_rm());
}

/// Emits `{p}:send`: output one request packet `[server, self, seq,
/// payload…]`, bump the sequence number, end the packet, and restore
/// IOADDRESS.  Falls through to whatever the caller emits next.
fn emit_send(a: &mut Assembler, p: &str) {
    a.label(format!("{p}:send"));
    a.emit(nop().rm(CR_SERVER).ff(FfOp::IoOutput));
    a.emit(nop().rm(CR_SELF).ff(FfOp::IoOutput));
    a.emit(nop().rm(CR_SEQ).ff(FfOp::IoOutput));
    a.emit(nop().rm(CR_SEQ).alu(AluOp::INC_A).load_rm());
    // CR_TMP ← payload length, via T (RM-to-RM needs two instructions);
    // the pass-A sets the Zero flag the skip branch reads.
    a.emit(nop().rm(CR_PAYLOAD).alu(AluOp::A).load_t());
    a.emit(nop().rm(CR_TMP).a(ASel::T).alu(AluOp::A).load_rm());
    a.emit(nop().branch(Cond::Zero, format!("{p}:endpkt"), format!("{p}:pay")));
    a.label(format!("{p}:pay"));
    a.emit(nop().rm(CR_TMP).alu(AluOp::DEC_A).load_rm());
    a.emit(nop().rm(CR_SEQ).ff(FfOp::IoOutput).branch(
        Cond::Zero,
        format!("{p}:endpkt"),
        format!("{p}:pay"),
    ));
    a.label(format!("{p}:endpkt"));
    a.emit(nop().rm(CR_IOA_CTRL).ff(FfOp::LoadIoAddress));
    a.emit(nop().ff(FfOp::IoOutput));
    a.emit(nop().rm(CR_IOA_DATA).ff(FfOp::LoadIoAddress));
}

// --- the workload programs ---------------------------------------------------

/// Emits the echo/RPC server (network task): entry `eserv:init`, steady
/// state `eserv:loop`.  Each complete inbound packet is echoed with words
/// 0 and 1 swapped, and `CR_COUNT` counts packets served.
pub fn emit_echo_server(a: &mut Assembler) {
    emit_net_preamble(a, "eserv:init");
    a.label("eserv:loop");
    a.emit(nop()); // §6.2.1: ≥2 instructions between wakeup drop and Block
    a.emit(nop().branch(Cond::IoAtten, "eserv:serve", "eserv:wait"));
    a.label("eserv:wait");
    a.emit(nop());
    a.emit(nop().io_block().goto_("eserv:loop"));
    a.label("eserv:serve");
    // T ← packet length N (register 3), then back to the data register.
    a.emit(nop().rm(CR_IOA_LEN).ff(FfOp::LoadIoAddress));
    a.emit(nop().ff(FfOp::IoInput).load_t());
    a.emit(nop().rm(CR_IOA_DATA).ff(FfOp::LoadIoAddress));
    // CR_TMP ← N − 2: words still to echo after the swapped header pair.
    a.emit(
        nop()
            .rm(CR_TMP)
            .a(ASel::T)
            .const16(2)
            .alu(AluOp::SUB)
            .load_rm(),
    );
    // Swap the header: w0 (our address) is held while w1 (the requester)
    // goes out first.
    a.emit(nop().rm(CR_SELF).ff(FfOp::IoInput).load_rm());
    a.emit(nop().ff(FfOp::IoInput).load_t());
    a.emit(nop().b(BSel::T).ff(FfOp::IoOutput));
    a.emit(nop().rm(CR_SELF).ff(FfOp::IoOutput));
    a.emit(nop().rm(CR_TMP).alu(AluOp::A));
    a.emit(nop().branch(Cond::Zero, "eserv:fin", "eserv:echo"));
    a.label("eserv:echo");
    a.emit(nop().ff(FfOp::IoInput).load_t());
    a.emit(nop().rm(CR_TMP).alu(AluOp::DEC_A).load_rm());
    a.emit(
        nop()
            .b(BSel::T)
            .ff(FfOp::IoOutput)
            .branch(Cond::Zero, "eserv:fin", "eserv:echo"),
    );
    a.label("eserv:fin");
    a.emit(nop().rm(CR_IOA_CTRL).ff(FfOp::LoadIoAddress));
    a.emit(nop().ff(FfOp::IoOutput)); // end of packet
    a.emit(nop().rm(CR_IOA_DATA).ff(FfOp::LoadIoAddress));
    a.emit(nop().rm(CR_COUNT).alu(AluOp::INC_A).load_rm());
    a.emit(nop());
    a.emit(nop().io_block().goto_("eserv:loop"));
}

/// Emits the closed-loop client: `clib:init` (emulator task) primes
/// `CR_LIMIT` outstanding requests then parks at `clu:idle`; `clic:init`
/// (network task) consumes each response and sends a replacement, keeping
/// the window full.  `CR_COUNT` in the network window counts responses.
pub fn emit_closed_client(a: &mut Assembler) {
    // Emulator side: prime the window.
    emit_emu_preamble(a, "clib:init");
    a.emit(nop().rm(CR_LIMIT).alu(AluOp::A));
    a.emit(nop().branch(Cond::Zero, "clu:idle", "clib:send"));
    emit_send(a, "clib");
    a.emit(nop().rm(CR_LIMIT).alu(AluOp::DEC_A).load_rm());
    a.emit(nop().branch(Cond::Zero, "clu:idle", "clib:send"));
    a.label("clu:idle");
    a.emit(nop().goto_("clu:idle")); // task 0 never blocks; it spins
                                     // Network side: one response in, one request out.
    emit_net_preamble(a, "clic:init");
    a.label("clic:loop");
    a.emit(nop());
    a.emit(nop().branch(Cond::IoAtten, "clic:got", "clic:wait"));
    a.label("clic:wait");
    a.emit(nop());
    a.emit(nop().io_block().goto_("clic:loop"));
    a.label("clic:got");
    // Drain the N-word response (contents don't matter to the client).
    a.emit(nop().rm(CR_IOA_LEN).ff(FfOp::LoadIoAddress));
    a.emit(nop().ff(FfOp::IoInput).load_t());
    a.emit(nop().rm(CR_IOA_DATA).ff(FfOp::LoadIoAddress));
    a.emit(nop().rm(CR_TMP).a(ASel::T).alu(AluOp::A).load_rm());
    a.label("clic:drain");
    a.emit(nop().ff(FfOp::IoInput));
    a.emit(nop().rm(CR_TMP).alu(AluOp::DEC_A).load_rm());
    a.emit(nop().branch(Cond::Zero, "clic:acked", "clic:drain"));
    a.label("clic:acked");
    a.emit(nop().rm(CR_COUNT).alu(AluOp::INC_A).load_rm());
    a.emit(nop().goto_("clic:send"));
    emit_send(a, "clic");
    a.emit(nop());
    a.emit(nop().io_block().goto_("clic:loop"));
}

/// Emits the open-loop client: `clio:init` (emulator task) fires every
/// `CR_LIMIT` countdown iterations regardless of responses, sending a
/// back-to-back burst of `CR_BURST` requests per firing (`CR_COUNT`
/// counts sends); `clid:init` (network task) drains inbound responses and
/// counts them in its own `CR_COUNT`.  `CR_BURST` = 0 sends nothing —
/// preset it to at least 1.
pub fn emit_open_client(a: &mut Assembler) {
    emit_emu_preamble(a, "clio:init");
    a.label("clio:loop");
    a.emit(nop().rm(CR_LIMIT).alu(AluOp::A).load_t());
    a.emit(nop().rm(CR_TMP).a(ASel::T).alu(AluOp::A).load_rm());
    a.emit(nop().branch(Cond::Zero, "clio:arm", "clio:delay"));
    a.label("clio:delay");
    a.emit(nop().rm(CR_TMP).alu(AluOp::DEC_A).load_rm());
    a.emit(nop().branch(Cond::Zero, "clio:arm", "clio:delay"));
    // The burst countdown: CR_BTMP ← CR_BURST, skipping the whole firing
    // when the burst size is zero.
    a.label("clio:arm");
    a.emit(nop().rm(CR_BURST).alu(AluOp::A).load_t());
    a.emit(nop().rm(CR_BTMP).a(ASel::T).alu(AluOp::A).load_rm());
    a.emit(nop().branch(Cond::Zero, "clio:loop", "clio:send"));
    emit_send(a, "clio");
    a.emit(nop().rm(CR_COUNT).alu(AluOp::INC_A).load_rm());
    a.emit(nop().rm(CR_BTMP).alu(AluOp::DEC_A).load_rm());
    a.emit(nop().branch(Cond::Zero, "clio:loop", "clio:send"));
    // Network side: drain and count responses.
    emit_net_preamble(a, "clid:init");
    a.label("clid:loop");
    a.emit(nop());
    a.emit(nop().branch(Cond::IoAtten, "clid:got", "clid:wait"));
    a.label("clid:wait");
    a.emit(nop());
    a.emit(nop().io_block().goto_("clid:loop"));
    a.label("clid:got");
    a.emit(nop().rm(CR_IOA_LEN).ff(FfOp::LoadIoAddress));
    a.emit(nop().ff(FfOp::IoInput).load_t());
    a.emit(nop().rm(CR_IOA_DATA).ff(FfOp::LoadIoAddress));
    a.emit(nop().rm(CR_TMP).a(ASel::T).alu(AluOp::A).load_rm());
    a.label("clid:drain");
    a.emit(nop().ff(FfOp::IoInput));
    a.emit(nop().rm(CR_TMP).alu(AluOp::DEC_A).load_rm());
    a.emit(nop().branch(Cond::Zero, "clid:done", "clid:drain"));
    a.label("clid:done");
    a.emit(nop().rm(CR_COUNT).alu(AluOp::INC_A).load_rm());
    a.emit(nop());
    a.emit(nop().io_block().goto_("clid:loop"));
}

/// Emits every cluster workload program (the `cluster` suite module).
pub fn emit_microcode(a: &mut Assembler) {
    emit_echo_server(a);
    emit_closed_client(a);
    emit_open_client(a);
}

// --- host-side access --------------------------------------------------------

/// Presets a client's *network-task* window: server and self addresses,
/// starting sequence number, and payload words per request.
pub fn preset_net_client(m: &mut Dorado, server: Word, self_addr: Word, seq0: Word, payload: Word) {
    m.set_rm(rm_index(RB_NET, CR_SERVER), server);
    m.set_rm(rm_index(RB_NET, CR_SELF), self_addr);
    m.set_rm(rm_index(RB_NET, CR_SEQ), seq0);
    m.set_rm(rm_index(RB_NET, CR_PAYLOAD), payload);
}

/// Presets a client's *emulator-task* window (RBASE 0): addresses,
/// starting sequence number, payload words, and the window (closed-loop)
/// or period (open-loop) in `CR_LIMIT`.
pub fn preset_emu_client(
    m: &mut Dorado,
    server: Word,
    self_addr: Word,
    seq0: Word,
    payload: Word,
    limit: Word,
) {
    m.set_rm(rm_index(0, CR_SERVER), server);
    m.set_rm(rm_index(0, CR_SELF), self_addr);
    m.set_rm(rm_index(0, CR_SEQ), seq0);
    m.set_rm(rm_index(0, CR_PAYLOAD), payload);
    m.set_rm(rm_index(0, CR_LIMIT), limit);
}

/// Presets an open-loop client's *emulator-task* window: addresses,
/// sequence, payload, firing period (`CR_LIMIT`), and burst size per
/// firing (`CR_BURST`).
#[allow(clippy::too_many_arguments)]
pub fn preset_open_client(
    m: &mut Dorado,
    server: Word,
    self_addr: Word,
    seq0: Word,
    payload: Word,
    period: Word,
    burst: Word,
) {
    preset_emu_client(m, server, self_addr, seq0, payload, period);
    m.set_rm(rm_index(0, CR_BURST), burst);
}

/// The network-task counter: packets served (server) or responses seen
/// (client).
pub fn net_count(m: &Dorado) -> Word {
    m.rm(rm_index(RB_NET, CR_COUNT))
}

/// The emulator-task counter: requests sent by the open-loop generator.
pub fn emu_count(m: &Dorado) -> Word {
    m.rm(rm_index(0, CR_COUNT))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn all_programs_assemble_and_place() {
        let mut a = Assembler::new();
        a.label("trap");
        a.emit(nop().ff_halt().goto_("trap"));
        emit_microcode(&mut a);
        let placed = a.place().expect("cluster microcode places");
        for label in [
            "eserv:init",
            "eserv:loop",
            "eserv:serve",
            "clib:init",
            "clu:idle",
            "clic:loop",
            "clic:send",
            "clio:loop",
            "clio:arm",
            "clid:loop",
        ] {
            assert!(placed.address_of(label).is_some(), "{label}");
        }
        let violations = dorado_asm::verify::verify(&placed);
        assert!(violations.is_empty(), "{violations:#?}");
    }

    #[test]
    fn register_conventions_are_distinct() {
        let regs = [
            CR_COUNT,
            CR_IOA_DATA,
            CR_IOA_CTRL,
            CR_IOA_LEN,
            CR_SERVER,
            CR_SELF,
            CR_SEQ,
            CR_PAYLOAD,
            CR_LIMIT,
            CR_TMP,
            CR_BURST,
            CR_BTMP,
        ];
        for (i, a) in regs.iter().enumerate() {
            for b in &regs[i + 1..] {
                assert_ne!(a, b);
            }
            assert!(*a < 16, "window registers are 4-bit");
        }
    }
}
