//! The timed memory controller: latencies, storage occupancy, `Hold`, and
//! the fast I/O path (§5.7, §5.8).

use crate::cache::Cache;
use crate::config::MemConfig;
use crate::map::Map;
use crate::storage::Storage;
use dorado_base::snap::{Reader, SnapError, Snapshot, Writer};
use dorado_base::{
    BaseRegId, CacheStats, StorageStats, TaskId, VirtAddr, Word, MUNCH_WORDS, NUM_TASKS,
};

/// Why the memory asserted `Hold` (§5.7).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum HoldReason {
    /// The task's previous fetch has not yet delivered its data and the
    /// instruction tried to start another reference.
    PipeBusy,
    /// A storage reference was needed but the storage RAMs are mid-cycle.
    StorageBusy,
    /// MEMDATA was used before the fetch completed.
    DataNotReady,
}

/// The `Hold` signal: "the effect of Hold is to stop any state changes
/// specified by the current instruction ... In effect, Hold converts the
/// currently executing instruction into a 'no operation, jump to self'
/// instruction" (§5.7).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct Hold(pub HoldReason);

impl std::fmt::Display for Hold {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let why = match self.0 {
            HoldReason::PipeBusy => "reference pipe busy",
            HoldReason::StorageBusy => "storage busy",
            HoldReason::DataNotReady => "data not ready",
        };
        write!(f, "hold: {why}")
    }
}

impl std::error::Error for Hold {}

/// Counters the memory system accumulates (merged into machine-wide
/// [`Stats`](dorado_base::Stats) by the `Dorado` machine).
///
/// Cache traffic is split by requester port and storage traffic by kind;
/// the flat totals of the old counter block are available as methods.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct MemCounters {
    /// Cache references and hits, split by requester (processor port,
    /// IFU port, fast-I/O coherence probes).
    pub cache: CacheStats,
    /// Storage-pipeline references by kind, plus busy-cycle occupancy.
    pub storage: StorageStats,
    /// Map faults observed.
    pub faults: u64,
    /// Holds issued, by reason.
    pub holds_pipe: u64,
    /// Holds for storage occupancy.
    pub holds_storage: u64,
    /// Holds for unready MEMDATA.
    pub holds_data: u64,
}

impl MemCounters {
    /// Cache references started on the processor and IFU ports (the
    /// references that allocate in the cache).
    pub fn cache_refs(&self) -> u64 {
        self.cache.processor.refs + self.cache.ifu.refs
    }

    /// Cache hits on the processor and IFU ports.
    pub fn cache_hits(&self) -> u64 {
        self.cache.processor.hits + self.cache.ifu.hits
    }

    /// Storage references of any kind (misses, write-backs, fast I/O).
    pub fn storage_refs(&self) -> u64 {
        self.storage.refs
    }

    /// Dirty-victim write-backs.
    pub fn writebacks(&self) -> u64 {
        self.storage.writebacks
    }

    /// Fast I/O munches transferred, either direction.
    pub fn fast_munches(&self) -> u64 {
        self.storage.fast_fetches + self.storage.fast_stores
    }

    /// Cache references made on the IFU's port.
    pub fn ifu_refs(&self) -> u64 {
        self.cache.ifu.refs
    }
}

#[derive(Debug, Clone, Copy)]
struct PendingFetch {
    ready_at: u64,
    data: Word,
}

/// A task's fetch pipe: up to two outstanding references ("fully segmented
/// pipelining which allows a cache reference to start in every cycle", §3).
/// MEMDATA delivery is in reference order.
#[derive(Debug, Clone, Copy, Default)]
struct FetchPipe {
    slots: [Option<PendingFetch>; 2],
}

impl FetchPipe {
    fn front(&self) -> Option<PendingFetch> {
        self.slots[0]
    }

    fn is_full(&self) -> bool {
        self.slots[1].is_some()
    }

    fn pop(&mut self) -> Option<PendingFetch> {
        let f = self.slots[0].take();
        self.slots[0] = self.slots[1].take();
        f
    }

    fn push(&mut self, p: PendingFetch) {
        if self.slots[0].is_none() {
            self.slots[0] = Some(p);
        } else {
            debug_assert!(self.slots[1].is_none());
            self.slots[1] = Some(p);
        }
    }
}

/// The memory system: base registers, map, cache, storage, and timing.
///
/// Call [`MemorySystem::tick`] once per processor microcycle; reference-
/// starting and data-consuming methods return [`Hold`] exactly when the
/// hardware would assert it.
#[derive(Debug, Clone)]
pub struct MemorySystem {
    cfg: MemConfig,
    storage: Storage,
    cache: Cache,
    map: Map,
    base: [u32; dorado_base::NUM_BASE_REGISTERS],
    now: u64,
    storage_free_at: u64,
    pending: [FetchPipe; NUM_TASKS],
    memdata: [Word; NUM_TASKS],
    ifu_pending: Option<PendingFetch>,
    counters: MemCounters,
    fault: bool,
}

impl MemorySystem {
    /// Creates a memory system.
    ///
    /// # Panics
    ///
    /// Panics if `cfg` is inconsistent (see [`MemConfig::validate`]).
    pub fn new(cfg: MemConfig) -> Self {
        cfg.validate();
        MemorySystem {
            storage: Storage::new(cfg.storage_words),
            cache: Cache::new(cfg.cache_sets(), cfg.assoc),
            map: Map::identity(cfg.storage_words, cfg.page_words),
            base: [0; dorado_base::NUM_BASE_REGISTERS],
            now: 0,
            storage_free_at: 0,
            pending: [FetchPipe::default(); NUM_TASKS],
            memdata: [0; NUM_TASKS],
            ifu_pending: None,
            counters: MemCounters::default(),
            cfg,
            fault: false,
        }
    }

    /// The configuration in force.
    pub fn config(&self) -> &MemConfig {
        &self.cfg
    }

    /// Advances one microcycle, accumulating storage-pipeline occupancy.
    #[inline]
    pub fn tick(&mut self) {
        if self.now < self.storage_free_at {
            self.counters.storage.busy_cycles += 1;
        }
        self.now += 1;
    }

    /// The current cycle number.
    pub fn now(&self) -> u64 {
        self.now
    }

    /// Accumulated counters.
    pub fn counters(&self) -> &MemCounters {
        &self.counters
    }

    /// Whether a map fault has occurred since the last [`Self::clear_fault`].
    pub fn fault(&self) -> bool {
        self.fault
    }

    /// Clears the sticky map-fault flag.
    pub fn clear_fault(&mut self) {
        self.fault = false;
    }

    // --- base registers ---------------------------------------------------

    /// Reads a 28-bit base register.
    pub fn base_reg(&self, id: BaseRegId) -> u32 {
        self.base[id.index()]
    }

    /// Writes a 28-bit base register (extra bits are dropped).
    pub fn set_base_reg(&mut self, id: BaseRegId, value: u32) {
        self.base[id.index()] = value & VirtAddr::MASK;
    }

    /// Forms a virtual address: `base[MEMBASE] + displacement` (§6.3.2).
    pub fn resolve(&self, membase: BaseRegId, displacement: Word) -> VirtAddr {
        VirtAddr::new(self.base[membase.index()]).offset(displacement)
    }

    // --- processor references ----------------------------------------------

    /// Starts a fetch for `task` (the `ASelect` fetch forms, §6.3.1).
    ///
    /// # Errors
    ///
    /// Holds when the task's previous fetch is still in flight, or the
    /// fetch misses while storage is mid-cycle.
    pub fn start_fetch(&mut self, task: TaskId, vaddr: VirtAddr) -> Result<(), Hold> {
        let pipe = &mut self.pending[task.index()];
        if pipe.is_full() {
            match pipe.front() {
                Some(p) if self.now >= p.ready_at => {
                    // The oldest fetch delivered but was never consumed; it
                    // simply becomes "the word most recently fetched"
                    // (§6.3.2) and frees a pipe slot.
                    let p = pipe.pop().expect("front exists");
                    self.memdata[task.index()] = p.data;
                }
                _ => {
                    self.counters.holds_pipe += 1;
                    return Err(Hold(HoldReason::PipeBusy));
                }
            }
        }
        self.counters.cache.processor.refs += 1;
        if let Some(word) = self.cache.read(vaddr) {
            self.counters.cache.processor.hits += 1;
            self.pending[task.index()].push(PendingFetch {
                ready_at: self.now + self.cfg.hit_latency,
                data: word,
            });
            return Ok(());
        }
        // Miss: needs a storage cycle now.
        self.reserve_storage().inspect_err(|_h| {
            self.counters.cache.processor.refs -= 1; // the reference retries
        })?;
        let word = match self.fill_from_storage(vaddr) {
            Some(_) => self.cache.read(vaddr).expect("just filled"),
            None => 0,
        };
        self.pending[task.index()].push(PendingFetch {
            ready_at: self.now + self.cfg.miss_penalty,
            data: word,
        });
        Ok(())
    }

    /// Starts a store of `value` for `task` (the `ASelect` store forms).
    ///
    /// # Errors
    ///
    /// Holds when the store misses while storage is mid-cycle.  A hitting
    /// store completes without stalling the task.
    pub fn start_store(
        &mut self,
        task: TaskId,
        vaddr: VirtAddr,
        value: Word,
    ) -> Result<(), Hold> {
        let _ = task;
        self.counters.cache.processor.refs += 1;
        if self.cache.write(vaddr, value) {
            self.counters.cache.processor.hits += 1;
            return Ok(());
        }
        self.reserve_storage().inspect_err(|_h| {
            self.counters.cache.processor.refs -= 1;
        })?;
        if self.fill_from_storage(vaddr).is_some() {
            let ok = self.cache.write(vaddr, value);
            debug_assert!(ok, "write after fill must hit");
        }
        Ok(())
    }

    /// Reads MEMDATA for `task`: "the value of the memory word most
    /// recently fetched by the current task; if the fetch is not complete,
    /// the processor is held when it tries to use \[it\]" (§6.3.2).
    ///
    /// # Errors
    ///
    /// Holds while the fetch is in flight.
    pub fn memdata(&mut self, task: TaskId) -> Result<Word, Hold> {
        match self.pending[task.index()].front() {
            Some(p) if self.now >= p.ready_at => {
                self.pending[task.index()].pop();
                self.memdata[task.index()] = p.data;
                Ok(p.data)
            }
            Some(_) => {
                self.counters.holds_data += 1;
                Err(Hold(HoldReason::DataNotReady))
            }
            None => Ok(self.memdata[task.index()]),
        }
    }

    /// Whether `task` has a fetch still in flight (without holding).
    pub fn fetch_in_flight(&self, task: TaskId) -> bool {
        matches!(self.pending[task.index()].front(), Some(p) if self.now < p.ready_at)
    }

    // --- non-mutating hold predicates (the processor's check phase) ---------

    /// Whether MEMDATA for `task` can be read this cycle without holding.
    pub fn memdata_ready(&self, task: TaskId) -> bool {
        match self.pending[task.index()].front() {
            Some(p) => self.now >= p.ready_at,
            None => true,
        }
    }

    /// Whether `task` may start another fetch this cycle (a pipe slot is
    /// free, or the oldest reference has delivered).
    pub fn fetch_pipe_free(&self, task: TaskId) -> bool {
        let pipe = &self.pending[task.index()];
        !pipe.is_full() || matches!(pipe.front(), Some(p) if self.now >= p.ready_at)
    }

    /// Whether the storage RAMs are free to start a reference this cycle.
    pub fn storage_free(&self) -> bool {
        self.now >= self.storage_free_at
    }

    /// Whether the munch containing `vaddr` is cache-resident (no LRU
    /// update).
    pub fn would_hit(&self, vaddr: VirtAddr) -> bool {
        self.cache.probe(vaddr)
    }

    /// Whether [`Self::start_fetch`] would succeed this cycle.
    pub fn can_start_fetch(&self, task: TaskId, vaddr: VirtAddr) -> bool {
        self.fetch_pipe_free(task) && (self.cache.probe(vaddr) || self.storage_free())
    }

    /// Whether [`Self::start_store`] would succeed this cycle.
    pub fn can_start_store(&self, vaddr: VirtAddr) -> bool {
        self.cache.probe(vaddr) || self.storage_free()
    }

    // --- the IFU's private cache port ---------------------------------------

    /// Starts a fetch on the IFU's dedicated cache port ("independent busses
    /// communicate with the memory, IFU, and I/O systems", §4).
    ///
    /// # Errors
    ///
    /// Holds when the previous IFU fetch is in flight, or on a miss while
    /// storage is mid-cycle.
    pub fn ifu_start_fetch(&mut self, vaddr: VirtAddr) -> Result<(), Hold> {
        if matches!(self.ifu_pending, Some(p) if self.now < p.ready_at) {
            return Err(Hold(HoldReason::PipeBusy));
        }
        self.counters.cache.ifu.refs += 1;
        if let Some(word) = self.cache.read(vaddr) {
            self.counters.cache.ifu.hits += 1;
            self.ifu_pending = Some(PendingFetch {
                ready_at: self.now + self.cfg.hit_latency,
                data: word,
            });
            return Ok(());
        }
        self.reserve_storage().inspect_err(|_h| {
            self.counters.cache.ifu.refs -= 1;
        })?;
        let word = match self.fill_from_storage(vaddr) {
            Some(_) => self.cache.read(vaddr).expect("just filled"),
            None => 0,
        };
        self.ifu_pending = Some(PendingFetch {
            ready_at: self.now + self.cfg.miss_penalty,
            data: word,
        });
        Ok(())
    }

    /// Collects the IFU fetch result if it has arrived (consuming it).
    pub fn ifu_data(&mut self) -> Option<Word> {
        match self.ifu_pending {
            Some(p) if self.now >= p.ready_at => {
                self.ifu_pending = None;
                Some(p.data)
            }
            _ => None,
        }
    }

    /// Whether an IFU fetch is outstanding (ready or not).
    pub fn ifu_fetch_outstanding(&self) -> bool {
        self.ifu_pending.is_some()
    }

    /// Abandons any outstanding IFU fetch (after a macro jump).
    pub fn ifu_abort_fetch(&mut self) {
        self.ifu_pending = None;
    }

    // --- fast I/O path ------------------------------------------------------

    /// Fast I/O fetch: one munch from storage (or a dirty cached copy) to a
    /// device, bypassing the cache (§5.8).
    ///
    /// # Errors
    ///
    /// Holds while storage is mid-cycle.
    pub fn fast_fetch(&mut self, vaddr: VirtAddr) -> Result<[Word; MUNCH_WORDS], Hold> {
        self.reserve_storage()?;
        self.counters.storage.fast_fetches += 1;
        self.counters.cache.fast_io.refs += 1;
        // Coherence: a dirty cached copy is newer than storage.
        if let Some(data) = self.cache.peek_dirty_munch(vaddr) {
            self.counters.cache.fast_io.hits += 1;
            return Ok(data);
        }
        match self.translate(vaddr.munch_base()) {
            Some(raddr) => Ok(self.storage.read_munch(raddr)),
            None => Ok([0; MUNCH_WORDS]),
        }
    }

    /// Fast I/O store: one munch from a device to storage, bypassing (and
    /// invalidating) the cache.
    ///
    /// # Errors
    ///
    /// Holds while storage is mid-cycle.
    pub fn fast_store(
        &mut self,
        vaddr: VirtAddr,
        munch: &[Word; MUNCH_WORDS],
    ) -> Result<(), Hold> {
        self.reserve_storage()?;
        self.counters.storage.fast_stores += 1;
        self.counters.cache.fast_io.refs += 1;
        if self.cache.invalidate(vaddr) {
            // The munch was cache-resident: the coherence probe "hit".
            self.counters.cache.fast_io.hits += 1;
        }
        if let Some(raddr) = self.translate(vaddr.munch_base()) {
            self.storage.write_munch(raddr, munch);
        }
        Ok(())
    }

    // --- untimed host access -------------------------------------------------

    /// Reads a word with no timing (host/debugger view, coherent with the
    /// cache).
    pub fn read_virt(&self, vaddr: VirtAddr) -> Word {
        if let Some(w) = self.cache.peek(vaddr) {
            return w;
        }
        match self.map.translate(vaddr) {
            Some(raddr) => self.storage.read(raddr),
            None => 0,
        }
    }

    /// Writes a word with no timing (host preload; updates the cached copy
    /// if resident, else storage).
    pub fn write_virt(&mut self, vaddr: VirtAddr, value: Word) {
        if self.cache.write(vaddr, value) {
            return;
        }
        if let Some(raddr) = self.map.translate(vaddr) {
            self.storage.write(raddr, value);
        }
    }

    /// Mutable access to the page map.
    pub fn map_mut(&mut self) -> &mut Map {
        &mut self.map
    }

    /// The page map.
    pub fn map(&self) -> &Map {
        &self.map
    }

    // --- internals ------------------------------------------------------------

    fn reserve_storage(&mut self) -> Result<(), Hold> {
        if self.now < self.storage_free_at {
            self.counters.holds_storage += 1;
            return Err(Hold(HoldReason::StorageBusy));
        }
        self.storage_free_at = self.now + self.cfg.storage_cycle;
        self.counters.storage.refs += 1;
        Ok(())
    }

    /// Brings the munch containing `vaddr` into the cache; returns `None`
    /// on a map fault.  A dirty eviction consumes a further storage cycle.
    fn fill_from_storage(&mut self, vaddr: VirtAddr) -> Option<()> {
        let raddr = self.translate(vaddr.munch_base())?;
        let munch = self.storage.read_munch(raddr);
        self.counters.storage.fills += 1;
        if let Some(ev) = self.cache.fill(vaddr, munch) {
            self.counters.storage.writebacks += 1;
            self.counters.storage.refs += 1;
            self.storage_free_at += self.cfg.storage_cycle;
            if let Some(ev_raddr) = self.translate(ev.vaddr) {
                self.storage.write_munch(ev_raddr, &ev.data);
            }
        }
        Some(())
    }

    fn translate(&mut self, vaddr: VirtAddr) -> Option<dorado_base::RealAddr> {
        match self.map.translate(vaddr) {
            Some(r) => Some(r),
            None => {
                self.fault = true;
                self.counters.faults += 1;
                None
            }
        }
    }
}

fn save_fetch(w: &mut Writer, p: Option<PendingFetch>) {
    match p {
        Some(p) => {
            w.bool(true);
            w.u64(p.ready_at);
            w.u16(p.data);
        }
        None => w.bool(false),
    }
}

fn restore_fetch(r: &mut Reader<'_>) -> Result<Option<PendingFetch>, SnapError> {
    Ok(if r.bool()? {
        Some(PendingFetch {
            ready_at: r.u64()?,
            data: r.u16()?,
        })
    } else {
        None
    })
}

impl Snapshot for MemCounters {
    fn save(&self, w: &mut Writer) {
        self.cache.save(w);
        self.storage.save(w);
        w.u64(self.faults);
        w.u64(self.holds_pipe);
        w.u64(self.holds_storage);
        w.u64(self.holds_data);
    }

    fn restore(&mut self, r: &mut Reader<'_>) -> Result<(), SnapError> {
        self.cache.restore(r)?;
        self.storage.restore(r)?;
        self.faults = r.u64()?;
        self.holds_pipe = r.u64()?;
        self.holds_storage = r.u64()?;
        self.holds_data = r.u64()?;
        Ok(())
    }
}

impl Snapshot for MemorySystem {
    fn save(&self, w: &mut Writer) {
        w.tag(b"MEMS");
        for b in self.base {
            w.u32(b);
        }
        w.u64(self.now);
        w.u64(self.storage_free_at);
        for pipe in &self.pending {
            save_fetch(w, pipe.slots[0]);
            save_fetch(w, pipe.slots[1]);
        }
        w.words(&self.memdata);
        save_fetch(w, self.ifu_pending);
        self.counters.save(w);
        w.bool(self.fault);
        self.cache.save(w);
        self.storage.save(w);
        self.map.save(w);
    }

    fn restore(&mut self, r: &mut Reader<'_>) -> Result<(), SnapError> {
        r.tag(b"MEMS")?;
        for b in &mut self.base {
            *b = r.u32()?;
        }
        self.now = r.u64()?;
        self.storage_free_at = r.u64()?;
        for pipe in &mut self.pending {
            pipe.slots[0] = restore_fetch(r)?;
            pipe.slots[1] = restore_fetch(r)?;
        }
        r.words(&mut self.memdata)?;
        self.ifu_pending = restore_fetch(r)?;
        self.counters.restore(r)?;
        self.fault = r.bool()?;
        self.cache.restore(r)?;
        self.storage.restore(r)?;
        self.map.restore(r)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn mem() -> MemorySystem {
        MemorySystem::new(MemConfig::default())
    }

    const T0: TaskId = TaskId::EMULATOR;

    fn run_until_data(m: &mut MemorySystem, task: TaskId) -> (Word, u64) {
        let start = m.now();
        loop {
            match m.memdata(task) {
                Ok(w) => return (w, m.now() - start),
                Err(_) => m.tick(),
            }
        }
    }

    #[test]
    fn hit_latency_is_two_cycles() {
        let mut m = mem();
        m.write_virt(VirtAddr::new(0x40), 0x1111);
        // Warm the cache.
        m.start_fetch(T0, VirtAddr::new(0x40)).unwrap();
        let _ = run_until_data(&mut m, T0);
        // Timed hit.
        m.start_fetch(T0, VirtAddr::new(0x41)).unwrap();
        let (w, waited) = run_until_data(&mut m, T0);
        assert_eq!(w, 0);
        assert_eq!(waited, 2);
    }

    #[test]
    fn miss_penalty_applies() {
        let mut m = mem();
        m.write_virt(VirtAddr::new(0x1000), 0x2222);
        m.start_fetch(T0, VirtAddr::new(0x1000)).unwrap();
        let (w, waited) = run_until_data(&mut m, T0);
        assert_eq!(w, 0x2222);
        assert_eq!(waited, MemConfig::default().miss_penalty);
        assert_eq!(m.counters().cache_hits(), 0);
        assert_eq!(m.counters().cache_refs(), 1);
        assert_eq!(m.counters().cache.processor.refs, 1);
        assert_eq!(m.counters().storage_refs(), 1);
        assert_eq!(m.counters().storage.fills, 1);
    }

    #[test]
    fn memdata_is_sticky_after_delivery() {
        let mut m = mem();
        m.write_virt(VirtAddr::new(5), 99);
        m.start_fetch(T0, VirtAddr::new(5)).unwrap();
        let (w, _) = run_until_data(&mut m, T0);
        assert_eq!(w, 99);
        // Repeated uses see the same value without holding.
        assert_eq!(m.memdata(T0).unwrap(), 99);
        assert_eq!(m.memdata(T0).unwrap(), 99);
    }

    #[test]
    fn third_fetch_while_pipe_full_holds() {
        let mut m = mem();
        // Warm two munches so the fetches hit (storage is not the limit).
        m.start_fetch(T0, VirtAddr::new(0)).unwrap();
        let _ = run_until_data(&mut m, T0);
        for _ in 0..10 {
            m.tick();
        }
        m.start_fetch(T0, VirtAddr::new(0x2000)).unwrap();
        let _ = run_until_data(&mut m, T0);
        for _ in 0..10 {
            m.tick();
        }
        // Two back-to-back hits fill the pipe ("a cache reference [starts]
        // in every cycle", §3)...
        m.start_fetch(T0, VirtAddr::new(0)).unwrap();
        assert!(m.fetch_in_flight(T0));
        m.start_fetch(T0, VirtAddr::new(0x2000)).unwrap();
        // ...and a third in the same cycle holds.
        let e = m.start_fetch(T0, VirtAddr::new(1)).unwrap_err();
        assert_eq!(e, Hold(HoldReason::PipeBusy));
        assert!(!m.fetch_pipe_free(T0));
        // Deliveries drain in order: one word per cycle after latency.
        m.tick();
        m.tick();
        assert_eq!(m.memdata(T0).unwrap(), m.read_virt(VirtAddr::new(0)));
        m.tick();
        assert_eq!(m.memdata(T0).unwrap(), m.read_virt(VirtAddr::new(0x2000)));
    }

    #[test]
    fn tasks_have_independent_memdata() {
        let mut m = mem();
        let t1 = TaskId::new(11);
        m.write_virt(VirtAddr::new(1), 10);
        m.write_virt(VirtAddr::new(100), 20);
        m.start_fetch(T0, VirtAddr::new(1)).unwrap();
        for _ in 0..MemConfig::default().storage_cycle {
            m.tick(); // both fetches miss; let the storage cycle elapse
        }
        m.start_fetch(t1, VirtAddr::new(100)).unwrap();
        let (w1, _) = run_until_data(&mut m, t1);
        let (w0, _) = run_until_data(&mut m, T0);
        assert_eq!((w0, w1), (10, 20));
    }

    #[test]
    fn storage_busy_holds_second_miss() {
        let mut m = mem();
        let t1 = TaskId::new(1);
        m.start_fetch(T0, VirtAddr::new(0x1000)).unwrap(); // miss
        let e = m.start_fetch(t1, VirtAddr::new(0x2000)).unwrap_err();
        assert_eq!(e, Hold(HoldReason::StorageBusy));
        // After the storage cycle elapses the second miss can start.
        for _ in 0..MemConfig::default().storage_cycle {
            m.tick();
        }
        m.start_fetch(t1, VirtAddr::new(0x2000)).unwrap();
    }

    #[test]
    fn hits_do_not_occupy_storage() {
        let mut m = mem();
        m.start_fetch(T0, VirtAddr::new(0)).unwrap(); // miss warms line
        let _ = run_until_data(&mut m, T0);
        let t1 = TaskId::new(1);
        // A hit and a miss in the same cycle: the miss keeps storage, but a
        // hit right after is fine.
        m.start_fetch(t1, VirtAddr::new(0x3000)).unwrap(); // miss
        m.start_fetch(T0, VirtAddr::new(1)).unwrap(); // hit, no storage
    }

    #[test]
    fn store_hit_is_silent_and_write_back() {
        let mut m = mem();
        m.start_fetch(T0, VirtAddr::new(0)).unwrap();
        let _ = run_until_data(&mut m, T0);
        let refs_before = m.counters().storage_refs();
        m.start_store(T0, VirtAddr::new(0), 0xaaaa).unwrap();
        assert_eq!(m.counters().storage_refs(), refs_before, "write-back defers");
        assert_eq!(m.read_virt(VirtAddr::new(0)), 0xaaaa);
    }

    #[test]
    fn dirty_eviction_reaches_storage() {
        let mut m = MemorySystem::new(MemConfig {
            cache_words: 32, // 1 set × 2 ways, tiny cache
            assoc: 2,
            ..MemConfig::default()
        });
        m.start_store(T0, VirtAddr::new(0), 7).unwrap(); // allocate + dirty
        for _ in 0..20 {
            m.tick();
        }
        // Evict block 0 by filling two more blocks in the same (only) set.
        m.start_fetch(T0, VirtAddr::new(16)).unwrap();
        let _ = run_until_data(&mut m, T0);
        m.start_fetch(T0, VirtAddr::new(32)).unwrap();
        let _ = run_until_data(&mut m, T0);
        assert!(!m.would_hit(VirtAddr::new(0)), "block 0 must be evicted");
        assert_eq!(m.counters().writebacks(), 1);
        assert_eq!(m.counters().storage.writebacks, 1);
        // The dirty datum survives in storage.
        assert_eq!(m.read_virt(VirtAddr::new(0)), 7);
    }

    #[test]
    fn fast_fetch_sees_dirty_cache_data() {
        let mut m = mem();
        m.start_store(T0, VirtAddr::new(0x20), 0x5555).unwrap();
        for _ in 0..10 {
            m.tick();
        }
        let munch = m.fast_fetch(VirtAddr::new(0x20)).unwrap();
        assert_eq!(munch[0], 0x5555);
        assert_eq!(m.counters().fast_munches(), 1);
        // The coherence probe found the dirty munch: a fast-I/O cache hit.
        assert_eq!(m.counters().cache.fast_io.refs, 1);
        assert_eq!(m.counters().cache.fast_io.hits, 1);
    }

    #[test]
    fn fast_store_invalidates_cache() {
        let mut m = mem();
        m.start_fetch(T0, VirtAddr::new(0x40)).unwrap();
        let _ = run_until_data(&mut m, T0);
        for _ in 0..10 {
            m.tick();
        }
        let munch = [0x1212u16; MUNCH_WORDS];
        m.fast_store(VirtAddr::new(0x40), &munch).unwrap();
        // Cached (stale) copy must not be visible.
        assert_eq!(m.read_virt(VirtAddr::new(0x40)), 0x1212);
    }

    #[test]
    fn fast_io_respects_storage_cycle() {
        let mut m = mem();
        m.fast_fetch(VirtAddr::new(0)).unwrap();
        assert!(m.fast_fetch(VirtAddr::new(16)).is_err());
        for _ in 0..MemConfig::default().storage_cycle {
            m.tick();
        }
        m.fast_fetch(VirtAddr::new(16)).unwrap();
    }

    #[test]
    fn base_registers_and_resolve() {
        let mut m = mem();
        m.set_base_reg(BaseRegId::new(3), 0x1000);
        assert_eq!(m.base_reg(BaseRegId::new(3)), 0x1000);
        assert_eq!(
            m.resolve(BaseRegId::new(3), 0x34),
            VirtAddr::new(0x1034)
        );
        // Extra bits beyond 28 are dropped.
        m.set_base_reg(BaseRegId::new(4), 0xf000_0001);
        assert_eq!(m.base_reg(BaseRegId::new(4)), 1);
    }

    #[test]
    fn map_fault_is_sticky() {
        let mut m = mem();
        m.map_mut().unmap_page(0);
        m.start_fetch(T0, VirtAddr::new(0)).unwrap();
        let (w, _) = run_until_data(&mut m, T0);
        assert_eq!(w, 0);
        assert!(m.fault());
        assert_eq!(m.counters().faults, 1);
        m.clear_fault();
        assert!(!m.fault());
    }

    #[test]
    fn hold_display() {
        assert!(format!("{}", Hold(HoldReason::StorageBusy)).contains("storage"));
    }

    #[test]
    fn storage_busy_cycles_cover_the_ram_cycle() {
        let mut m = mem();
        m.start_fetch(T0, VirtAddr::new(0x1000)).unwrap(); // miss
        for _ in 0..2 * MemConfig::default().storage_cycle {
            m.tick();
        }
        // Exactly one RAM cycle's worth of busy time was accumulated.
        assert_eq!(
            m.counters().storage.busy_cycles,
            MemConfig::default().storage_cycle
        );
        assert_eq!(m.counters().storage.refs, 1);
    }

    #[test]
    fn cache_ports_are_split_by_requester() {
        let mut m = mem();
        // One processor miss, one IFU miss on another munch.
        m.start_fetch(T0, VirtAddr::new(0)).unwrap();
        let _ = run_until_data(&mut m, T0);
        m.ifu_start_fetch(VirtAddr::new(0x2000)).unwrap();
        while m.ifu_data().is_none() {
            m.tick();
        }
        // A processor hit on the warmed munch, an IFU hit on its own.
        m.start_fetch(T0, VirtAddr::new(1)).unwrap();
        let _ = run_until_data(&mut m, T0);
        m.ifu_start_fetch(VirtAddr::new(0x2001)).unwrap();
        while m.ifu_data().is_none() {
            m.tick();
        }
        let c = m.counters().cache;
        assert_eq!((c.processor.refs, c.processor.hits), (2, 1));
        assert_eq!((c.ifu.refs, c.ifu.hits), (2, 1));
        assert_eq!(c.fast_io.refs, 0);
        assert_eq!(m.counters().cache_refs(), 4);
        assert_eq!(m.counters().ifu_refs(), 2);
    }

    #[test]
    fn snapshot_mid_flight_fetch_resumes_identically() {
        use dorado_base::snap::{restore_image, save_image};
        let mut m = mem();
        m.write_virt(VirtAddr::new(0x1000), 0x2222);
        m.set_base_reg(BaseRegId::new(5), 0x300);
        m.map_mut().map_page(40, 2);
        m.start_fetch(T0, VirtAddr::new(0x1000)).unwrap(); // miss in flight
        for _ in 0..MemConfig::default().storage_cycle {
            m.tick();
        }
        m.ifu_start_fetch(VirtAddr::new(0x2000)).unwrap();
        m.tick();

        let img = save_image(&m);
        let mut n = mem();
        restore_image(&mut n, &img).unwrap();
        assert_eq!(save_image(&n), img, "save(restore(save)) is byte-stable");

        // Both machines deliver the same data after the same waits and end
        // with identical counters.
        let (wm, dm) = run_until_data(&mut m, T0);
        let (wn, dn) = run_until_data(&mut n, T0);
        assert_eq!((wm, dm), (wn, dn));
        assert_eq!(wm, 0x2222);
        while m.ifu_data().is_none() {
            m.tick();
        }
        while n.ifu_data().is_none() {
            n.tick();
        }
        assert_eq!(m.counters(), n.counters());
        assert_eq!(m.now(), n.now());
        assert_eq!(save_image(&m), save_image(&n));

        // A differently sized machine refuses the image.
        let mut other = MemorySystem::new(MemConfig {
            storage_words: MemConfig::default().storage_words * 2,
            ..MemConfig::default()
        });
        assert!(restore_image(&mut other, &img).is_err());
    }

    #[test]
    fn fast_store_probe_counts_resident_munch_as_hit() {
        let mut m = mem();
        m.start_fetch(T0, VirtAddr::new(0x40)).unwrap(); // make resident
        let _ = run_until_data(&mut m, T0);
        for _ in 0..10 {
            m.tick();
        }
        m.fast_store(VirtAddr::new(0x40), &[1; MUNCH_WORDS]).unwrap();
        for _ in 0..MemConfig::default().storage_cycle {
            m.tick();
        }
        m.fast_store(VirtAddr::new(0x800), &[2; MUNCH_WORDS]).unwrap();
        let c = m.counters().cache;
        assert_eq!((c.fast_io.refs, c.fast_io.hits), (2, 1));
        assert_eq!(m.counters().storage.fast_stores, 2);
    }
}
