//! Larger byte-code programs running end to end: a prime sieve, a sort,
//! and string-of-ops stress — the "real programs" tier of testing.

use dorado_base::{VirtAddr, Word};
use dorado_emu::layout::SCRATCH;
use dorado_emu::mesa::{self, MesaAsm};
use dorado_emu::suite::build_mesa;

#[test]
fn sieve_of_eratosthenes_in_mesa() {
    // Sieve [2, N): flags live in memory at SCRATCH; composite ⇒ 1.
    const N: u16 = 64;
    let base = SCRATCH as Word;
    let mut p = MesaAsm::new();
    // for i = 2 .. N-1: if flag[i] == 0 { for j = 2i step i: flag[j] = 1 }
    p.lib(2);
    p.sl(0); // i
    p.label("outer");
    // if flag[i] != 0 -> next
    p.liw(base);
    p.ll(0);
    p.aread();
    p.jnzb("next_i");
    // j = 2*i
    p.ll(0);
    p.ll(0);
    p.add();
    p.sl(1);
    p.label("inner");
    // if j >= N -> done with inner: test via (N-1) - j sign? Use
    // subtraction and the fact values stay small: j - N == 0 won't hit
    // exactly for non-multiples, so loop while j < N using a countdown:
    // k = N - j; if k == 0 or wrapped (> N) stop.  Since j grows by i and
    // j <= 2N, test j == N is insufficient; instead compute (j < N) as
    // high-bit of (j - N).
    p.ll(1);
    p.liw(N);
    p.sub(); // j - N (wraps negative while j < N)
    p.liw(0x8000);
    p.and(); // sign bit
    p.jzb("next_i"); // j >= N
                     // flag[j] = 1
    p.liw(base);
    p.ll(1);
    p.lib(1);
    p.awrite();
    // j += i
    p.ll(1);
    p.ll(0);
    p.add();
    p.sl(1);
    p.jb("inner");
    p.label("next_i");
    // i += 1; if i < N/2 continue
    p.ll(0);
    p.inc();
    p.sl(0);
    p.ll(0);
    p.liw(N / 2);
    p.sub();
    p.liw(0x8000);
    p.and();
    p.jnzb("outer"); // i < N/2
    p.halt();
    let bytes = p.assemble().unwrap();
    let mut m = build_mesa(&bytes).unwrap();
    let out = m.run(5_000_000);
    assert!(out.halted(), "{out:?}");

    // Check against a host sieve.
    let mut host = vec![0u16; N as usize];
    for i in 2..(N as usize) {
        if host[i] == 0 {
            let mut j = 2 * i;
            while j < N as usize {
                host[j] = 1;
                j += i;
            }
        }
    }
    for (i, &want) in host.iter().enumerate().skip(2) {
        assert_eq!(
            m.memory().read_virt(VirtAddr::new(SCRATCH + i as u32)),
            want,
            "flag[{i}]"
        );
    }
    let s = m.stats();
    println!(
        "sieve({N}): {} macroinstructions, {} cycles",
        s.macro_instructions, s.cycles
    );
}

#[test]
fn insertion_sort_in_mesa() {
    // Sort 12 words in memory with array reads/writes and nested loops.
    let data: [Word; 12] = [9, 1, 8, 3, 7, 0, 6, 2, 5, 4, 11, 10];
    let base = SCRATCH as Word + 0x80;
    let n = data.len() as u16;
    let mut p = MesaAsm::new();
    p.lib(1);
    p.sl(0); // i = 1
    p.label("outer");
    // key = a[i]; j = i
    p.liw(base);
    p.ll(0);
    p.aread();
    p.sl(2); // key
    p.ll(0);
    p.sl(1); // j
    p.label("shift");
    // while j > 0 and a[j-1] > key: a[j] = a[j-1]; j -= 1
    p.ll(1);
    p.jzb("place");
    p.liw(base);
    p.ll(1);
    p.lib(1);
    p.sub();
    p.aread(); // a[j-1]
    p.ll(2);
    p.sub(); // a[j-1] - key
    p.dup();
    p.liw(0x8000);
    p.and();
    p.jnzb("place_drop"); // negative: a[j-1] < key, stop
    p.jzb("place"); // equal: stop (drop the zero)
                    // a[j] = a[j-1]
    p.liw(base);
    p.ll(1);
    p.liw(base);
    p.ll(1);
    p.lib(1);
    p.sub();
    p.aread();
    p.awrite();
    p.ll(1);
    p.lib(1);
    p.sub();
    p.sl(1);
    p.jb("shift");
    p.label("place_drop");
    p.drop_top(); // the leftover difference
    p.label("place");
    // a[j] = key
    p.liw(base);
    p.ll(1);
    p.ll(2);
    p.awrite();
    // i += 1; loop while i < n
    p.ll(0);
    p.inc();
    p.sl(0);
    p.ll(0);
    p.liw(n);
    p.sub();
    p.jnzb("outer");
    p.halt();
    let bytes = p.assemble().unwrap();
    let mut m = build_mesa(&bytes).unwrap();
    for (i, w) in data.iter().enumerate() {
        m.memory_mut()
            .write_virt(VirtAddr::new(u32::from(base) + i as u32), *w);
    }
    let out = m.run(5_000_000);
    assert!(out.halted(), "{out:?}");
    let mut expect = data;
    expect.sort();
    for (i, want) in expect.iter().enumerate() {
        assert_eq!(
            m.memory()
                .read_virt(VirtAddr::new(u32::from(base) + i as u32)),
            *want,
            "slot {i}"
        );
    }
}

#[test]
fn deep_mesa_recursion_exercises_the_frame_pool() {
    // Recurse 40 deep (the pool holds 64 frames) and unwind correctly.
    let mut p = MesaAsm::new();
    p.lib(40);
    p.call("down", 1);
    p.halt();
    p.label("down");
    p.ll(0);
    p.jzb("bottom");
    p.ll(0);
    p.lib(1);
    p.sub();
    p.call("down", 1);
    p.inc(); // +1 per level on the way up
    p.ret();
    p.label("bottom");
    p.lib(100);
    p.ret();
    let mut m = build_mesa(&p.assemble().unwrap()).unwrap();
    let out = m.run(5_000_000);
    assert!(out.halted(), "{out:?}");
    assert_eq!(mesa::tos(&m), 140, "100 + 40 increments");
}

#[test]
fn long_programs_stream_through_the_ifu() {
    // A 1500-byte straight-line program: the IFU must prefetch across
    // many munches without losing a byte.
    let mut p = MesaAsm::new();
    p.lib(0);
    for i in 0..700u16 {
        if i % 7 == 3 {
            p.inc();
        } else {
            p.dup();
            p.drop_top();
        }
    }
    p.halt();
    let bytes = p.assemble().unwrap();
    assert!(bytes.len() > 1300);
    let mut m = build_mesa(&bytes).unwrap();
    let out = m.run(1_000_000);
    assert!(out.halted(), "{out:?}");
    assert_eq!(mesa::tos(&m), 100, "exactly the INC count");
    let s = m.stats();
    assert_eq!(s.macro_instructions, 1302); // 1 + 100·INC + 600·(DUP+DROP) + HALT
}
