//! Smalltalk message sends through the microcoded method cache — the
//! dispatch structure of Smalltalk-76 (§7), with first-send misses walking
//! the method dictionary and later sends hitting the cache.
//!
//! ```sh
//! cargo run --example smalltalk_sends
//! ```

use dorado::base::{VirtAddr, Word};
use dorado::emu::layout::{GLOBAL_FRAME, SCRATCH};
use dorado::emu::smalltalk::{self, StAsm};
use dorado::emu::suite::build_smalltalk;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    // A Point-ish object: class with two methods, instance with two fields.
    //   sel 1 = x (field 0), sel 2 = y (field 1), sel 3 = manhattan (x+y
    //   via two nested self-sends).
    let mut p = StAsm::new();
    // main: push point; send #manhattan; store to global 1; halt.
    p.push_var(0);
    p.send(3, 0);
    p.set_var(1);
    // Send #x twice more: the second probe hits the method cache.
    p.push_var(0);
    p.send(1, 0);
    p.set_var(2);
    p.push_var(0);
    p.send(1, 0);
    p.set_var(3);
    p.halt();
    // Methods.
    let m_x = p.label("m_x");
    p.push_inst(0);
    p.mret();
    let m_y = p.label("m_y");
    p.push_inst(1);
    p.mret();
    let m_manhattan = p.label("m_manhattan");
    p.push_var(0);
    p.send(1, 0); // self x  (receiver refetched from the global)
    p.push_var(0);
    p.send(2, 0); // self y
    p.add();
    p.mret();
    let bytes = p.assemble();

    let class_addr = SCRATCH;
    let obj_addr = SCRATCH + 0x40;
    let mut m = build_smalltalk(&bytes)?;
    smalltalk::define_class(&mut m, class_addr, &[(1, m_x), (2, m_y), (3, m_manhattan)]);
    smalltalk::define_object(&mut m, obj_addr, class_addr, &[30, 12]);
    m.memory_mut()
        .write_virt(VirtAddr::new(GLOBAL_FRAME), obj_addr as Word);

    let outcome = m.run(1_000_000);
    println!("outcome: {outcome:?}");
    let g = |n: u32| m.memory().read_virt(VirtAddr::new(GLOBAL_FRAME + n));
    println!("point manhattan (30+12) = {}", g(1));
    println!("point x = {} (sent twice: miss, then cache hit)", g(2));
    assert_eq!(g(2), g(3));

    let s = m.stats();
    println!(
        "\n{} macroinstructions, {} cycles, {:.1} cycles per send-heavy opcode",
        s.macro_instructions,
        s.cycles,
        s.cycles as f64 / s.macro_instructions as f64
    );
    println!(
        "(Every send fetches the receiver's class, hashes class+selector, \
         probes the\n method cache, and on a miss walks the class's method \
         dictionary — all in\n microcode, as in Smalltalk-76.)"
    );
    Ok(())
}
