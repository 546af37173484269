//! Timing-series tests over the memory system: storage contention, miss
//! streams, write-back pressure, and the IFU port.

use dorado_base::{TaskId, VirtAddr};
use dorado_mem::{MemConfig, MemorySystem};

const T0: TaskId = TaskId::EMULATOR;

fn drain(m: &mut MemorySystem, t: TaskId) -> u16 {
    loop {
        match m.memdata(t) {
            Ok(w) => return w,
            Err(_) => m.tick(),
        }
    }
}

#[test]
fn miss_stream_throughput_is_storage_limited() {
    // Fetching a new munch every time: limited to one munch per storage
    // cycle (8), i.e. the miss stream cannot beat 1 fetch / 8 cycles.
    let mut m = MemorySystem::new(MemConfig::default());
    let start = m.now();
    for k in 0..32u32 {
        let addr = VirtAddr::new(k * 16);
        loop {
            match m.start_fetch(T0, addr) {
                Ok(()) => break,
                Err(_) => m.tick(),
            }
        }
        let _ = drain(&mut m, T0);
    }
    let elapsed = m.now() - start;
    assert!(elapsed >= 32 * 8, "storage cycle floor: {elapsed}");
    assert_eq!(m.counters().cache_hits(), 0);
    assert_eq!(m.counters().storage_refs(), 32);
}

#[test]
fn hit_stream_sustains_one_reference_per_cycle_pair() {
    // Warm one munch, then fetch within it repeatedly: a fetch can start
    // every cycle (2-deep pipe), so 32 fetches take about 34 cycles.
    let mut m = MemorySystem::new(MemConfig::default());
    m.start_fetch(T0, VirtAddr::new(0)).unwrap();
    let _ = drain(&mut m, T0);
    let start = m.now();
    for k in 0..32u32 {
        while !m.can_start_fetch(T0, VirtAddr::new(k % 16)) {
            m.tick();
        }
        m.start_fetch(T0, VirtAddr::new(k % 16)).unwrap();
        m.tick();
    }
    let elapsed = m.now() - start;
    // Steady state: one reference starts every cycle ("a cache reference
    // [can start] in every cycle", §3); an unconsumed ready word simply
    // rolls into the MEMDATA register as the pipe refills.
    assert!(elapsed <= 36, "pipelined hits: {elapsed} cycles for 32");
}

#[test]
fn writeback_pressure_doubles_storage_traffic() {
    // Dirty every line of a tiny cache, then stream misses: each miss
    // costs a fill plus a write-back.
    let mut m = MemorySystem::new(MemConfig {
        cache_words: 64, // 2 sets x 2 ways
        assoc: 2,
        ..MemConfig::default()
    });
    // Dirty 4 munches (the whole cache).
    for k in 0..4u32 {
        loop {
            match m.start_store(T0, VirtAddr::new(k * 16), 0xaaaa) {
                Ok(()) => break,
                Err(_) => m.tick(),
            }
        }
        for _ in 0..10 {
            m.tick();
        }
    }
    let refs_before = m.counters().storage_refs();
    let wb_before = m.counters().writebacks();
    // Miss through fresh addresses.
    for k in 10..14u32 {
        loop {
            match m.start_fetch(T0, VirtAddr::new(k * 16)) {
                Ok(()) => break,
                Err(_) => m.tick(),
            }
        }
        let _ = drain(&mut m, T0);
    }
    assert_eq!(m.counters().writebacks() - wb_before, 4);
    assert_eq!(
        m.counters().storage_refs() - refs_before,
        8,
        "fill + WB each"
    );
    // The dirty data survived.
    for k in 0..4u32 {
        assert_eq!(m.read_virt(VirtAddr::new(k * 16)), 0xaaaa);
    }
}

#[test]
fn ifu_port_contends_with_processor_for_storage() {
    let mut m = MemorySystem::new(MemConfig::default());
    // Processor miss occupies storage...
    m.start_fetch(T0, VirtAddr::new(0x1000)).unwrap();
    // ...so an IFU miss in the same cycle is held.
    assert!(m.ifu_start_fetch(VirtAddr::new(0x2000)).is_err());
    for _ in 0..8 {
        m.tick();
    }
    m.ifu_start_fetch(VirtAddr::new(0x2000)).unwrap();
    // And both deliver.
    let w = drain(&mut m, T0);
    assert_eq!(w, 0);
    while m.ifu_data().is_none() {
        m.tick();
    }
}

#[test]
fn ifu_abort_discards_inflight_fetch() {
    let mut m = MemorySystem::new(MemConfig::default());
    m.ifu_start_fetch(VirtAddr::new(0)).unwrap();
    assert!(m.ifu_fetch_outstanding());
    m.ifu_abort_fetch();
    assert!(!m.ifu_fetch_outstanding());
    assert!(m.ifu_data().is_none());
}

#[test]
fn map_remapping_is_visible_to_timed_fetches() {
    let mut m = MemorySystem::new(MemConfig::default());
    // Real page 4 holds a marker; map virtual page 8 onto it.
    m.write_virt(VirtAddr::new(4 * 256 + 7), 0x1234);
    m.map_mut().map_page(8, 4);
    loop {
        match m.start_fetch(T0, VirtAddr::new(8 * 256 + 7)) {
            Ok(()) => break,
            Err(_) => m.tick(),
        }
    }
    assert_eq!(drain(&mut m, T0), 0x1234);
}

#[test]
fn fast_io_and_processor_interleave_fairly() {
    // Alternate fast-I/O munches and processor misses: both make
    // progress, storage never double-books.
    let mut m = MemorySystem::new(MemConfig::default());
    let mut fast = 0;
    let mut fetches = 0;
    for round in 0..16u32 {
        loop {
            match m.fast_fetch(VirtAddr::new(round * 16)) {
                Ok(_) => {
                    fast += 1;
                    break;
                }
                Err(_) => m.tick(),
            }
        }
        loop {
            match m.start_fetch(T0, VirtAddr::new(0x1000 + round * 16)) {
                Ok(()) => {
                    fetches += 1;
                    break;
                }
                Err(_) => m.tick(),
            }
        }
        let _ = drain(&mut m, T0);
    }
    assert_eq!((fast, fetches), (16, 16));
    assert_eq!(m.counters().storage_refs(), 32);
}
