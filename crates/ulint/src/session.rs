//! A count-only lint over one image under single-word patches, kept
//! incrementally.
//!
//! A transformation that validates each candidate rewrite by
//! re-linting (branch-slot filling in `dorado-uopt`) only needs the
//! error and warning counts, and each candidate changes one word.  A
//! [`LintSession`] takes over the image's [`Analyses`] (its CFG, root
//! classification and root facts, so nothing is built or solved twice),
//! solves every other analysis once, keeps the results, and for every
//! candidate
//!
//! 1. patches the word into the image and the CFG in place
//!    ([`LintSession::fill_relay`]; only the edges out of that word
//!    move, see [`Cfg::replace`]) and brings the kept state up to date,
//! 2. reads the counts ([`LintSession::counts`]), a sum of stored
//!    tallies,
//! 3. and undoes the patch if the candidate is refused
//!    ([`LintSession::revert`]) by replaying an undo log.
//!
//! What is kept:
//!
//! * the root facts, one flag byte per word (reached from an emulator
//!   root, reached from an I/O root, and "a fetch may have started"),
//!   taken over from the [`Analyses`];
//! * each pass's per-word facts: task-safety staleness per I/O root,
//!   the COUNT interval, and the stack-depth interval;
//! * per-word, per-pass error and warning tallies, and the pass-global
//!   quantities (the stack span and first drift site, each task
//!   region's first shared-register write and vulnerable reads, the
//!   dead-arm findings under the COUNT gating).
//!
//! A patch re-solves only the region R of words reachable, in the
//! patched CFG, from the patched word and from its old successors
//! (`analysis::Region`).  No other word's input state can change: it has no
//! path from the patched word in either graph, so its ancestors and
//! their equations are the same.  The root facts, the staleness and the
//! COUNT interval have no widening (COUNT's 5-bit immediates bound its
//! lattice), so their least fixpoint does not depend on visit order and
//! the region re-solve equals a full solve.  Stack depth does widen,
//! and where widening takes effect its result depends on visit order;
//! it re-solves in full, into a reused buffer, whenever R touches the
//! words the emulator roots reach.
//!
//! The counts equal [`lint_with_config`](crate::lint_with_config)'s
//! exactly: the patched CFG equals [`Cfg::build`] of the patched image,
//! the facts equal a full solve, and the tallies come from the passes'
//! own per-word finding functions.

use dorado_asm::{Microword, PlacedProgram, SlotUse};
use dorado_base::{MicroAddr, MICROSTORE_SIZE};

use crate::analysis::{self, Fixpoint, Region};
use crate::cfg::Cfg;
use crate::diag::Diagnostic;
use crate::passes::dead_code::{self, Count, CountInterval};
use crate::passes::stack_depth::{self, Depth, DepthDomain};
use crate::passes::task_safety::{self, Masks, RegionUse, Stale};
use crate::passes::{branch_window, ff_conflict, hold, is_stack_op, Tally};
use crate::{Analyses, LintConfig, RootFlags, EMU, FETCH, IO};

/// The passes with per-word tallies, as indices into
/// [`LintSession::tallies`].  ff-conflict depends on the word alone;
/// the others on the word, its predecessors and the root facts.
const FF: usize = 0;
const HOLD: usize = 1;
const WINDOW: usize = 2;
const DEAD: usize = 3;
const WORD_PASSES: usize = 4;

/// A set of microstore addresses, one bit each.
#[derive(Debug, Clone)]
struct AddrSet([u64; MICROSTORE_SIZE / 64]);

impl AddrSet {
    /// Sets whether `a` is a member; returns the block index and its old
    /// bits if that changed anything.
    fn set(&mut self, a: MicroAddr, on: bool) -> Option<(usize, u64)> {
        let (i, bit) = (a.raw() as usize / 64, 1u64 << (a.raw() % 64));
        let old = self.0[i];
        let new = if on { old | bit } else { old & !bit };
        self.0[i] = new;
        (new != old).then_some((i, old))
    }

    /// The two least members.
    fn first_two(&self) -> [Option<MicroAddr>; 2] {
        let mut out = [None; 2];
        let mut n = 0;
        for (i, &block) in self.0.iter().enumerate() {
            let mut b = block;
            while b != 0 && n < 2 {
                out[n] = Some(MicroAddr::new((i * 64) as u16 + b.trailing_zeros() as u16));
                b &= b - 1;
                n += 1;
            }
            if n == 2 {
                break;
            }
        }
        out
    }
}

/// Task-safety's kept state, present only when the config has I/O roots
/// (with none there is no second region, and the pass reports nothing).
#[derive(Debug)]
struct TaskState {
    /// Each word's shared-register accesses.
    masks: Vec<Masks>,
    /// The staleness input states, per I/O root.
    stale: Vec<Vec<Option<u8>>>,
    /// Per region (emulator first, then each I/O root) and register: the
    /// words that write it, then the words that read it vulnerably, at
    /// `sets[(region * 4 + k) * 2 + {0, 1}]`.
    sets: Vec<AddrSet>,
    /// Each region's [`RegionUse`], derived from `sets`.
    uses: Vec<RegionUse>,
    /// Regions whose `sets` changed since `uses` was derived.
    dirty: Vec<usize>,
}

impl TaskState {
    /// Records `(writes, vulnerable reads)` of word `a` in `region`,
    /// logging every changed block.
    fn record(
        &mut self,
        region: usize,
        a: MicroAddr,
        (writes, reads): (u8, u8),
        log: &mut Vec<(usize, usize, u64)>,
    ) {
        for k in 0..4 {
            let bit = 1 << k;
            for (kind, on) in [(0, writes & bit != 0), (1, reads & bit != 0)] {
                let s = (region * 4 + k) * 2 + kind;
                if let Some((i, old)) = self.sets[s].set(a, on) {
                    log.push((s, i, old));
                    if !self.dirty.contains(&region) {
                        self.dirty.push(region);
                    }
                }
            }
        }
    }

    /// Re-derives the dirty regions' [`RegionUse`]s, logging the old ones.
    fn derive(&mut self, log: &mut Vec<(usize, RegionUse)>) {
        for region in self.dirty.drain(..) {
            let mut u = RegionUse::default();
            for k in 0..4 {
                u.first_write[k] = self.sets[(region * 4 + k) * 2].first_two()[0];
                u.reads[k] = self.sets[(region * 4 + k) * 2 + 1].first_two();
            }
            log.push((region, std::mem::replace(&mut self.uses[region], u)));
        }
    }
}

/// The pass-global findings' counts, and the drift site's cached
/// "the loop can exit" answer.
#[derive(Debug, Clone, Copy, Default)]
struct Globals {
    stack: Tally,
    task: Tally,
    arms: Tally,
    exit: Option<(MicroAddr, bool)>,
}

/// The undo record of the last patch: the patched word, every
/// overwritten entry in write order, and the scalars as they were.
#[derive(Debug, Default)]
struct Undo {
    patch: Option<(MicroAddr, Microword, String)>,
    facts: Vec<(MicroAddr, Option<u8>)>,
    count: Vec<(MicroAddr, Option<Count>)>,
    stale: Vec<(usize, MicroAddr, Option<u8>)>,
    tallies: Vec<(usize, MicroAddr, Tally)>,
    sets: Vec<(usize, usize, u64)>,
    uses: Vec<(usize, RegionUse)>,
    mask: Masks,
    total: Tally,
    globals: Globals,
    swapped: bool,
}

impl Undo {
    fn clear(&mut self) {
        self.patch = None;
        self.facts.clear();
        self.count.clear();
        self.stale.clear();
        self.tallies.clear();
        self.sets.clear();
        self.uses.clear();
        self.swapped = false;
    }
}

/// Deterministic work counters of a [`LintSession`], summed over its
/// patches.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct SessionWork {
    /// Patches applied ([`LintSession::fill_relay`] calls).
    pub patches: usize,
    /// Words re-solved and re-tallied: the sizes of the patched regions.
    pub region_words: usize,
    /// Full re-solves of stack depth, the one widening domain.
    pub full_resolves: usize,
}

/// One patched image, its CFG, and every analysis result kept across
/// patches, with the undo record of the last patch.
#[derive(Debug)]
pub struct LintSession<'a> {
    placed: &'a mut PlacedProgram,
    config: LintConfig,
    cfg: Cfg,
    emu_roots: Vec<MicroAddr>,
    /// Each root with its [`RootFlags`] entry flag, and with its COUNT
    /// entry interval.
    root_seeds: Vec<(MicroAddr, u8)>,
    count_seeds: Vec<(MicroAddr, Count)>,
    facts: Vec<Option<u8>>,
    task: Option<TaskState>,
    depth: Fixpoint<Depth>,
    depth_prev: Fixpoint<Depth>,
    count: Vec<Option<Count>>,
    /// Stack operations, CNT=0 branches and COUNT writers, by address.
    stack_ops: Vec<MicroAddr>,
    cnt_branches: Vec<MicroAddr>,
    count_writers: Vec<MicroAddr>,
    tallies: [Vec<Tally>; WORD_PASSES],
    /// The sum of `tallies`.
    total: Tally,
    globals: Globals,
    region: Region,
    /// The patched word and its old successors (R's seeds), then every
    /// word whose tallies may have changed.
    touched: Vec<MicroAddr>,
    scratch: Vec<Diagnostic>,
    undo: Undo,
    work: SessionWork,
}

impl<'a> LintSession<'a> {
    /// Opens a session over `placed`, taking over `an`, its analysis
    /// (the CFG, the root classification and the root facts), and
    /// solving every other kept result once.
    pub fn new(placed: &'a mut PlacedProgram, an: Analyses) -> Self {
        let Analyses {
            config, cfg, facts, ..
        } = an;
        debug_assert!(
            cfg.iter().all(|n| placed.word(n.addr) == n.word),
            "the analysis handed to the session was not computed from its image"
        );
        let count_seeds = dead_code::count_seeds(&config);
        let io_roots = config.io_roots.len();
        let task = (io_roots > 0).then(|| TaskState {
            masks: vec![Masks::default(); MICROSTORE_SIZE],
            stale: vec![vec![None; MICROSTORE_SIZE]; io_roots],
            sets: vec![AddrSet([0; MICROSTORE_SIZE / 64]); (io_roots + 1) * 8],
            uses: vec![RegionUse::default(); io_roots + 1],
            dirty: Vec::new(),
        });
        let mut s = LintSession {
            placed,
            emu_roots: config.emu_addrs(),
            root_seeds: config.root_seeds(),
            count: analysis::solve(&cfg, &CountInterval, &count_seeds),
            count_seeds,
            config,
            facts,
            task,
            depth: Fixpoint::default(),
            depth_prev: Fixpoint::default(),
            stack_ops: Vec::new(),
            cnt_branches: Vec::new(),
            count_writers: Vec::new(),
            tallies: std::array::from_fn(|_| vec![Tally::default(); MICROSTORE_SIZE]),
            total: Tally::default(),
            globals: Globals::default(),
            region: Region::default(),
            touched: Vec::new(),
            scratch: Vec::new(),
            undo: Undo::default(),
            work: SessionWork::default(),
            cfg,
        };
        // Each handler's staleness over what its root reaches.
        if let Some(t) = s.task.as_mut() {
            for n in s.cfg.iter() {
                t.masks[n.addr.raw() as usize] = Masks::decode(n.word);
            }
        }
        for r in 0..s.config.io_roots.len() {
            let root = s.config.io_roots[r].1;
            s.region.grow(&s.cfg, &[root]);
            s.resolve_stale(r);
        }
        let words: Vec<MicroAddr> = s.cfg.iter().map(|n| n.addr).collect();
        for &w in &words {
            s.record_emu(w);
            s.retally(w);
            let ff = ff_conflict::word_tally(s.placed, s.cfg.node(w).expect("words are nodes"));
            s.set_tally(FF, w, ff);
            s.relist(w);
        }
        s.resolve_depth(true);
        s.update_globals();
        s.undo.clear();
        s.work = SessionWork::default();
        s
    }

    /// The image as currently patched.
    pub fn placed(&self) -> &PlacedProgram {
        self.placed
    }

    /// The CFG of the image as currently patched.
    pub fn cfg(&self) -> &Cfg {
        &self.cfg
    }

    /// The work done so far (see [`SessionWork`]).
    pub fn work(&self) -> SessionWork {
        self.work
    }

    /// The `(errors, warnings)` that
    /// [`lint_with_config`](crate::lint_with_config) reports on the
    /// current image.
    pub fn counts(&self) -> (usize, usize) {
        let g = &self.globals;
        let mut t = self.total;
        t += g.stack;
        t += g.task;
        t += g.arms;
        (t.errors, t.warnings)
    }

    /// Replaces the placer relay at `at` with `word`, a copy of
    /// instruction `inst` ([`PlacedProgram::fill_relay`]), in the image
    /// and the CFG, and brings every kept result up to date.  The patch
    /// stays until the next `fill_relay`, or until
    /// [`revert`](LintSession::revert) undoes it.
    ///
    /// # Panics
    ///
    /// Panics if the slot at `at` does not hold a relay.
    pub fn fill_relay(&mut self, at: MicroAddr, word: Microword, inst: usize) {
        let SlotUse::Relay(target) = &self.placed.uses()[at.raw() as usize] else {
            panic!("LintSession::fill_relay at {at}: slot is not a relay");
        };
        self.undo.clear();
        self.undo.patch = Some((at, self.placed.word(at), target.clone()));
        self.undo.total = self.total;
        self.undo.globals = self.globals;
        self.touched.clear();
        self.touched.push(at);
        self.touched
            .extend_from_slice(&self.cfg.node(at).expect("a relay is a node").succs);
        self.placed.fill_relay(at, word, inst);
        self.cfg.replace(at, word, false);

        self.region.grow(&self.cfg, &self.touched);
        self.work.patches += 1;
        self.work.region_words += self.region.words().len();
        // The root facts and COUNT, join-only, re-solve over R.
        let (cfg, undo) = (&self.cfg, &mut self.undo);
        let (facts, seeds) = (&mut self.facts, &self.root_seeds);
        self.region
            .resolve(cfg, &RootFlags, facts, seeds, |a, old| {
                undo.facts.push((a, old))
            });
        let (count, seeds) = (&mut self.count, &self.count_seeds);
        self.region
            .resolve(cfg, &CountInterval, count, seeds, |a, old| {
                undo.count.push((a, old))
            });
        if let Some(t) = self.task.as_mut() {
            self.undo.mask = t.masks[at.raw() as usize];
            t.masks[at.raw() as usize] = Masks::decode(word);
        }
        for r in 0..self.config.io_roots.len() {
            let root = self.config.io_roots[r].1;
            let stale = &self.task.as_ref().expect("I/O roots have task state").stale[r];
            // The edges entering R and the states outside it are the same
            // before and after the patch, so a handler whose root is
            // outside R and that reaches no entering edge reaches no word
            // of R, before or after.
            let reaches = self.region.contains(root)
                || (self.region.entries().iter()).any(|&(p, _)| stale[p.raw() as usize].is_some());
            if reaches {
                self.resolve_stale(r);
            }
        }
        // A word's tallies depend on its word, its predecessors' words
        // and its root facts: re-tally the patched word, its old and new
        // successors, and the words of R whose facts moved.  Stack depth
        // re-solves in full only if R holds a word the emulator roots
        // reach, before or after the patch.
        self.touched
            .extend_from_slice(&self.cfg.node(at).expect("a relay is a node").succs);
        let mut emu = false;
        for &(a, old) in &self.undo.facts {
            let new = self.facts[a.raw() as usize];
            if new != old {
                self.touched.push(a);
            }
            emu |= [old, new].into_iter().flatten().any(|v| v & EMU != 0);
        }
        for i in 0..self.touched.len() {
            let w = self.touched[i];
            self.record_emu(w);
            self.retally(w);
        }
        let ff =
            ff_conflict::word_tally(self.placed, self.cfg.node(at).expect("a relay is a node"));
        self.set_tally(FF, at, ff);
        self.relist(at);
        self.resolve_depth(emu);
        self.update_globals();
    }

    /// Undoes the last [`fill_relay`](LintSession::fill_relay), leaving
    /// the image, the CFG and every kept result exactly as they were
    /// before it, by replaying the undo log.
    ///
    /// # Panics
    ///
    /// Panics if there is no patch to undo.
    pub fn revert(&mut self) {
        let (at, word, target) = self
            .undo
            .patch
            .take()
            .expect("LintSession::revert: no patch to undo");
        self.placed.unfill_relay(at, word, target);
        self.cfg.replace(at, word, true);
        let u = &mut self.undo;
        for (a, old) in u.facts.drain(..).rev() {
            self.facts[a.raw() as usize] = old;
        }
        for (a, old) in u.count.drain(..).rev() {
            self.count[a.raw() as usize] = old;
        }
        for (pass, a, old) in u.tallies.drain(..).rev() {
            self.tallies[pass][a.raw() as usize] = old;
        }
        if let Some(t) = self.task.as_mut() {
            for (r, a, old) in u.stale.drain(..).rev() {
                t.stale[r][a.raw() as usize] = old;
            }
            for (s, i, old) in u.sets.drain(..).rev() {
                t.sets[s].0[i] = old;
            }
            for (region, old) in u.uses.drain(..).rev() {
                t.uses[region] = old;
            }
            t.masks[at.raw() as usize] = u.mask;
        }
        if std::mem::take(&mut u.swapped) {
            std::mem::swap(&mut self.depth, &mut self.depth_prev);
        }
        self.total = u.total;
        self.globals = u.globals;
        self.relist(at);
    }

    /// Re-solves I/O root `r`'s staleness over the region and records
    /// the words whose state moved, and the patched word, in that
    /// handler's task region.
    fn resolve_stale(&mut self, r: usize) {
        let t = self.task.as_mut().expect("I/O roots have task state");
        let root = self.config.io_roots[r].1;
        let patched = self.undo.patch.as_ref().map(|p| p.0);
        let log = &mut self.undo.stale;
        let start = log.len();
        let mut stale = std::mem::take(&mut t.stale[r]);
        self.region.resolve(
            &self.cfg,
            &Stale(&t.masks),
            &mut stale,
            &[(root, task_safety::ALL)],
            |a, old| log.push((r, a, old)),
        );
        for &(_, w, old) in &log[start..] {
            let new = stale[w.raw() as usize];
            if new == old && Some(w) != patched {
                continue;
            }
            let access = match new {
                Some(v) => task_safety::io_access(t.masks[w.raw() as usize], v),
                None => (0, 0),
            };
            t.record(r + 1, w, access, &mut self.undo.sets);
        }
        t.stale[r] = stale;
    }

    /// Records word `w` in the emulator's task region.
    fn record_emu(&mut self, w: MicroAddr) {
        if let Some(t) = self.task.as_mut() {
            let access = match self.facts[w.raw() as usize] {
                Some(v) if v & EMU != 0 => task_safety::emu_access(t.masks[w.raw() as usize]),
                _ => (0, 0),
            };
            t.record(0, w, access, &mut self.undo.sets);
        }
    }

    /// Re-tallies the root-fact-dependent passes at word `w`.
    fn retally(&mut self, w: MicroAddr) {
        let node = self.cfg.node(w).expect("tallied words are nodes");
        let facts = self.facts[w.raw() as usize];
        let reached = facts.is_some();
        let started = facts.is_some_and(|v| v & FETCH != 0);
        let hold = Tally::of(&hold::fetchless_read(&self.cfg, node, reached, started));
        branch_window::findings(&self.cfg, node, &mut self.scratch);
        let window = Tally::of(&self.scratch);
        self.scratch.clear();
        let dead = Tally::of(&dead_code::unreachable(node, reached));
        self.set_tally(HOLD, w, hold);
        self.set_tally(WINDOW, w, window);
        self.set_tally(DEAD, w, dead);
    }

    fn set_tally(&mut self, pass: usize, w: MicroAddr, new: Tally) {
        let slot = &mut self.tallies[pass][w.raw() as usize];
        if *slot != new {
            self.undo.tallies.push((pass, w, *slot));
            self.total -= *slot;
            self.total += new;
            *slot = new;
        }
    }

    /// Puts word `w` into or out of the stack-op, CNT=0-branch and
    /// COUNT-writer lists according to its current word.
    fn relist(&mut self, w: MicroAddr) {
        let word = self.cfg.node(w).expect("listed words are nodes").word;
        for (list, member) in [
            (&mut self.stack_ops, is_stack_op(word)),
            (&mut self.cnt_branches, dead_code::is_cnt_branch(word)),
            (&mut self.count_writers, dead_code::writes_count(word)),
        ] {
            match (list.binary_search(&w), member) {
                (Err(k), true) => list.insert(k, w),
                (Ok(k), false) => {
                    list.remove(k);
                }
                _ => {}
            }
        }
    }

    /// Re-solves stack depth in full (if `emu`), keeping the previous
    /// result for a revert.
    fn resolve_depth(&mut self, emu: bool) {
        if emu && !self.emu_roots.is_empty() {
            std::mem::swap(&mut self.depth, &mut self.depth_prev);
            self.depth.solve(
                &self.cfg,
                &self.emu_roots,
                &DepthDomain,
                stack_depth::WIDEN_AFTER,
            );
            self.undo.swapped = true;
            self.work.full_resolves += 1;
        }
    }

    /// Recomputes the pass-global findings' counts from the kept
    /// per-word results.
    fn update_globals(&mut self) {
        let cfg = &self.cfg;
        let node = |a: MicroAddr| cfg.node(a).expect("listed words are nodes");
        let out = &mut self.scratch;
        let g = &mut self.globals;
        // stack-depth: the excursion over the stack operations.
        // The loops through a word outside R are unchanged, so a cached
        // answer holds until its site falls in R.
        if g.exit.is_some_and(|(at, _)| self.region.contains(at)) {
            g.exit = None;
        }
        if let Some(&root) = self.emu_roots.first() {
            let ex = stack_depth::excursion(&self.depth, self.stack_ops.iter().map(|&a| node(a)));
            let exit = match (ex.drift, g.exit) {
                (None, _) => false,
                (Some(at), Some((cached, exit))) if at == cached => exit,
                (Some(at), _) => {
                    let exit = stack_depth::has_exit(cfg, at);
                    g.exit = Some((at, exit));
                    exit
                }
            };
            stack_depth::findings(&ex, root, |_| exit, out);
            g.stack = Tally::of(out.iter());
            out.clear();
        }
        // task-safety: the clobbers between the task regions.
        if let Some(t) = self.task.as_mut().filter(|t| !t.dirty.is_empty()) {
            t.derive(&mut self.undo.uses);
            task_safety::findings(&self.config, &t.uses, out);
            g.task = Tally::of(out.iter());
            out.clear();
        }
        // dead-code: the never-taken CNT=0 arms where COUNT is
        // single-task.
        let facts = &self.facts;
        let written = |flag: u8| {
            (self.count_writers.iter())
                .any(|a| facts[a.raw() as usize].is_some_and(|v| v & flag != 0))
        };
        let (emu_writes, io_writes) = (written(EMU), written(IO));
        g.arms = Tally::default();
        for &a in &self.cnt_branches {
            let v = facts[a.raw() as usize].unwrap_or(0);
            if !dead_code::count_shared(v & EMU != 0, v & IO != 0, emu_writes, io_writes) {
                let input = self.count[a.raw() as usize].as_ref();
                g.arms += Tally::of(&dead_code::dead_arm(node(a), input));
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use dorado_asm::{Assembler, Cond, ControlOp, FfOp, Inst, PlacedProgram, SlotUse};
    use dorado_base::MicroAddr;

    use super::LintSession;
    use crate::{analyze_with_config, lint_with_config, LintConfig};

    /// Re-aims the relay to `from` at `to`, on the relay's own page, and
    /// checks the session against the full lint after the patch and the
    /// revert; returns the counts before and after.
    fn reaim(placed: &mut PlacedProgram, from: &str, to: &str) -> [(usize, usize); 2] {
        let config = LintConfig {
            emu_roots: vec![("boot".to_string(), placed.address_of("boot").unwrap())],
            io_roots: Vec::new(),
        };
        let at = (placed.uses().iter().enumerate())
            .find(|(_, slot)| matches!(slot, SlotUse::Relay(t) if t == from))
            .map(|(raw, _)| MicroAddr::new(raw as u16))
            .expect("a relay to `from`");
        let to = placed.address_of(to).unwrap();
        assert_eq!(to.page(), at.page());
        let word = placed
            .word(at)
            .with_control(ControlOp::Goto {
                offset: to.page_offset() as u8,
            })
            .with_ff(0);
        let full = |p: &PlacedProgram| {
            let r = lint_with_config(p, &config);
            (r.errors(), r.warnings())
        };
        let an = analyze_with_config(placed, config.clone());
        let mut session = LintSession::new(placed, an);
        let before = session.counts();
        assert_eq!(before, full(session.placed()), "unpatched");
        session.fill_relay(at, word, 0);
        let after = session.counts();
        assert_eq!(after, full(session.placed()), "patched");
        session.revert();
        assert_eq!(session.counts(), before, "reverted");
        [before, after]
    }

    #[test]
    fn count_interval_follows_a_patch_that_strands_a_branch() {
        // boot loads COUNT and reaches the CNT=0 branch only through the
        // placer's relay; re-aiming the relay at boot strands the branch,
        // so its dead-arm warning must go with the COUNT interval.
        let mut a = Assembler::new();
        a.label("boot");
        a.emit(Inst::new().ff(FfOp::LoadCountImm(0)).goto_("test"));
        a.page_break();
        a.label("test");
        a.emit(Inst::new().branch(Cond::CntZero, "zero", "more"));
        a.label("zero");
        a.emit(Inst::new().ff_halt().goto_("zero"));
        a.label("more");
        a.emit(Inst::new().ff_halt().goto_("more"));
        let mut placed = a.place().unwrap();
        let [before, after] = reaim(&mut placed, "test", "boot");
        assert_eq!(before, (0, 1), "the CNT≠0 arm is dead");
        // The branch, its arms and the placer's two arm relays.
        assert_eq!(after, (0, 5), "five stranded words, no dead arm");
    }

    #[test]
    fn drift_exit_follows_a_patch_inside_the_loop() {
        // The push at `push` loops back through the relay and the CNT=0
        // branch at `test`, so the loop can exit.  Re-aiming the relay at
        // `push` leaves a loop with no exit through the same drift site:
        // the cached exit answer must not survive the patch.
        let mut a = Assembler::new();
        a.label("boot");
        a.emit(Inst::new().goto_("push"));
        a.label("push");
        a.emit(Inst::new().stack(1).ff(FfOp::LoadCountImm(3)).goto_("test"));
        a.page_break();
        a.label("test");
        a.emit(Inst::new().branch(Cond::CntZero, "again", "back"));
        a.label("again");
        a.emit(Inst::new().goto_("push"));
        a.label("back");
        a.emit(Inst::new().goto_("push"));
        let mut placed = a.place().unwrap();
        let [before, after] = reaim(&mut placed, "test", "push");
        assert_eq!(before.0, 0, "the loop can exit");
        assert_eq!(after.0, 1, "the loop cannot exit");
    }
}
