//! Automatic placement of microinstructions (§5.5, §7).
//!
//! The `NEXTPC` scheme trades microword bits for placement constraints:
//! in-page successors are cheap, cross-page transfers need the FF byte, a
//! conditional branch's false target must sit at an even address with the
//! true target at the next odd address, and dispatch tables must be aligned.
//! "We were concerned about the amount of microstore which might be wasted
//! by automatic placement of instructions under all these constraints.  In
//! fact, however, the automatic [placer used] 99.9% of the available memory
//! when called upon to place an essentially full microstore." (§7)
//!
//! The algorithm here is a greedy sequential packer with a constraint-repair
//! fixpoint:
//!
//! 1. **Layout** walks the listing, assigning each instruction the next
//!    free slot (honouring alignment directives).  Conditional branches get
//!    their target pair allocated immediately after them — inlining the
//!    fall-through arm when possible, otherwise materializing one-word
//!    *relay* jumps (the duplication cost the paper mentions for shared
//!    branch targets).
//! 2. **Encoding** resolves labels into concrete [`ControlOp`]s.  When it
//!    discovers a violated constraint that layout could not foresee (e.g. a
//!    fall-through crossing a page boundary out of an instruction whose FF
//!    is already claimed by a constant), it reports a *repair* — a forced
//!    page break or an extra relay — and layout runs again.  Each round adds
//!    at least one repair, so the loop terminates.

use std::collections::{HashMap, HashSet};

use crate::error::AsmError;

use crate::flow::{ControlOp, Flow};
use crate::inst::{FfSlot, Inst};
use crate::microword::Microword;
use crate::program::{Item, MicroProgram};
use dorado_base::{MicroAddr, MICROSTORE_SIZE, PAGE_SIZE};

/// What occupies one microstore word after placement.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SlotUse {
    /// Unallocated.
    Empty,
    /// Program instruction (by listing index).
    Inst(usize),
    /// A placer-inserted relay jump to the named label.
    Relay(String),
    /// A word lost to alignment or page-escape padding.
    Waste,
}

/// Counters describing placement quality — the quantities behind the §7
/// placement experiment (E6).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct PlacementStats {
    /// Program instructions placed.
    pub instructions: usize,
    /// Relay words inserted (cross-page escapes, duplicated branch targets).
    pub relays: usize,
    /// Words wasted to alignment and page-escape padding.
    pub waste: usize,
    /// Number of constraint-repair rounds the fixpoint needed.
    pub repair_rounds: usize,
}

impl PlacementStats {
    /// Useful words: instructions plus relays.
    pub fn used(&self) -> usize {
        self.instructions + self.relays
    }

    /// The footprint: used plus wasted words.
    pub fn footprint(&self) -> usize {
        self.used() + self.waste
    }

    /// Fraction of the footprint holding useful words — the utilization
    /// measure of §7 ("99.9% of the available memory").
    pub fn utilization(&self) -> f64 {
        if self.footprint() == 0 {
            1.0
        } else {
            self.used() as f64 / self.footprint() as f64
        }
    }
}

/// A placed microprogram: the 4096-word store image plus symbol and
/// provenance information.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PlacedProgram {
    words: Vec<Microword>,
    uses: Vec<SlotUse>,
    labels: HashMap<String, MicroAddr>,
    inst_addrs: Vec<MicroAddr>,
    stats: PlacementStats,
}

impl PlacedProgram {
    /// The microword at `addr`.
    pub fn word(&self, addr: MicroAddr) -> Microword {
        self.words[addr.raw() as usize]
    }

    /// The full 4096-word image.
    pub fn words(&self) -> &[Microword] {
        &self.words
    }

    /// What occupies each word.
    pub fn uses(&self) -> &[SlotUse] {
        &self.uses
    }

    /// The address a label was placed at.
    pub fn address_of(&self, label: &str) -> Option<MicroAddr> {
        self.labels.get(label).copied()
    }

    /// The address of the *n*-th instruction in the listing.
    pub fn inst_addr(&self, index: usize) -> Option<MicroAddr> {
        self.inst_addrs.get(index).copied()
    }

    /// All labels and their addresses.
    pub fn labels(&self) -> impl Iterator<Item = (&str, MicroAddr)> {
        self.labels.iter().map(|(k, v)| (k.as_str(), *v))
    }

    /// Words holding instructions or relays.
    pub fn words_used(&self) -> usize {
        self.stats.used()
    }

    /// Placement statistics.
    pub fn stats(&self) -> &PlacementStats {
        &self.stats
    }

    /// Patches one word of the image (the console's microstore-write path;
    /// also used to corrupt images in verification tests).  The slot's
    /// provenance is unchanged.
    pub fn set_word(&mut self, addr: MicroAddr, word: Microword) {
        self.words[addr.raw() as usize] = word;
    }

    /// Replaces a placer relay word with a copy of instruction `inst`
    /// (branch-slot filling): the word, provenance, and statistics all
    /// change together so listings, structural verification, and the CFG
    /// stay coherent with the patched image.
    ///
    /// # Panics
    ///
    /// Panics if the slot at `addr` does not hold a relay — only wasted
    /// branch-window words may be filled this way.
    pub fn fill_relay(&mut self, addr: MicroAddr, word: Microword, inst: usize) {
        let raw = addr.raw() as usize;
        assert!(
            matches!(self.uses[raw], SlotUse::Relay(_)),
            "fill_relay at {addr}: slot holds {:?}, not a relay",
            self.uses[raw]
        );
        self.words[raw] = word;
        self.uses[raw] = SlotUse::Inst(inst);
        self.stats.relays -= 1;
        self.stats.instructions += 1;
    }

    /// Undoes [`PlacedProgram::fill_relay`]: puts the relay `word` to
    /// `target` back at `addr`, restoring provenance and statistics.
    ///
    /// # Panics
    ///
    /// Panics if the slot at `addr` does not hold an instruction.
    pub fn unfill_relay(&mut self, addr: MicroAddr, word: Microword, target: String) {
        let raw = addr.raw() as usize;
        assert!(
            matches!(self.uses[raw], SlotUse::Inst(_)),
            "unfill_relay at {addr}: slot holds {:?}, not an instruction",
            self.uses[raw]
        );
        self.words[raw] = word;
        self.uses[raw] = SlotUse::Relay(target);
        self.stats.relays += 1;
        self.stats.instructions -= 1;
    }
}

/// Internal repair requests discovered during encoding.
enum Repair {
    /// Force instruction `index` to start a fresh page.
    Break(usize),
    /// Allocate a relay immediately after instruction `index`, targeting
    /// the label.
    Relay(usize, String),
}

/// One scheduled word during layout.
#[derive(Debug, Clone)]
enum Slot {
    Inst(usize),
    Relay { target: String },
    Waste,
}

struct Layout {
    /// slot index -> contents (parallel to store addresses 0..4096).
    slots: Vec<Option<Slot>>,
    labels: HashMap<String, MicroAddr>,
    inst_addr: Vec<Option<MicroAddr>>,
    /// For each branch instruction index: the pair base offset (even) used.
    branch_pair: HashMap<usize, u16>,
    /// Instructions that may not be relocated by compaction (branches and
    /// inlined pair arms, whose positions encode their semantics).
    pinned: HashSet<usize>,
    waste: usize,
}

/// Preprocessed program: instructions with their attached labels/directives.
struct Listing<'p> {
    insts: Vec<&'p Inst>,
    /// Labels attached to each instruction.
    labels_at: Vec<Vec<&'p str>>,
    /// Directives attached to each instruction.
    pair_align: Vec<bool>,
    align8: Vec<bool>,
    align256: Vec<bool>,
    page_break: Vec<bool>,
    /// label -> instruction index.
    label_index: HashMap<&'p str, usize>,
}

fn preprocess(program: &MicroProgram) -> Result<Listing<'_>, AsmError> {
    let mut insts = Vec::new();
    let mut labels_at: Vec<Vec<&str>> = Vec::new();
    let mut pair_align = Vec::new();
    let mut align8 = Vec::new();
    let mut align256 = Vec::new();
    let mut page_break = Vec::new();
    let mut label_index = HashMap::new();

    let mut pending_labels: Vec<&str> = Vec::new();
    let mut pending = (false, false, false, false);
    for item in program.items() {
        match item {
            Item::Label(name) => {
                if label_index.contains_key(name.as_str()) {
                    return Err(AsmError::DuplicateLabel(name.clone()));
                }
                label_index.insert(name.as_str(), insts.len());
                pending_labels.push(name);
            }
            Item::PairAlign => pending.0 = true,
            Item::Align8 => pending.1 = true,
            Item::Align256 => pending.2 = true,
            Item::PageBreak => pending.3 = true,
            Item::Inst(inst) => {
                insts.push(inst);
                labels_at.push(std::mem::take(&mut pending_labels));
                pair_align.push(pending.0);
                align8.push(pending.1);
                align256.push(pending.2);
                page_break.push(pending.3);
                pending = (false, false, false, false);
            }
        }
    }
    if !pending_labels.is_empty() {
        return Err(AsmError::UndefinedLabel(format!(
            "label `{}` attached past the last instruction",
            pending_labels[0]
        )));
    }
    if insts.is_empty() {
        return Err(AsmError::EmptyProgram);
    }
    // Check label references.
    for inst in &insts {
        for l in inst.flow.labels() {
            if !label_index.contains_key(l) {
                return Err(AsmError::UndefinedLabel(l.to_string()));
            }
        }
    }
    Ok(Listing {
        insts,
        labels_at,
        pair_align,
        align8,
        align256,
        page_break,
        label_index,
    })
}

/// Whether instruction `i` may be moved to any free slot: nothing falls
/// through into it, its own flow works from anywhere, and its position does
/// not carry meaning (not a branch, pair arm, or aligned table entry).
fn relocatable(listing: &Listing<'_>, layout: &Layout, i: usize) -> bool {
    if layout.pinned.contains(&i)
        || listing.pair_align[i]
        || listing.align8[i]
        || listing.align256[i]
    {
        return false;
    }
    if i > 0 && matches!(listing.insts[i - 1].flow, Flow::Next) {
        return false; // the predecessor falls into this slot
    }
    match &listing.insts[i].flow {
        Flow::Return => true,
        Flow::Goto(_) | Flow::Call(_) => listing.insts[i].ff_free(),
        _ => false,
    }
}

/// Moves relocatable instructions from the tail of the store into interior
/// holes, shrinking the footprint — the squeeze that lets the placer
/// approach the paper's "99.9% of the available memory" (§7).
fn compact(listing: &Listing<'_>, layout: &mut Layout) {
    loop {
        let Some(last) = layout.slots.iter().rposition(|s| s.is_some()) else {
            return;
        };
        match &layout.slots[last] {
            Some(Slot::Waste) => {
                layout.slots[last] = None;
                layout.waste -= 1;
            }
            Some(Slot::Inst(i)) if relocatable(listing, layout, *i) => {
                let i = *i;
                let Some(hole) = layout.slots[..last]
                    .iter()
                    .position(|s| matches!(s, Some(Slot::Waste)))
                else {
                    return;
                };
                layout.slots[hole] = Some(Slot::Inst(i));
                layout.slots[last] = None;
                layout.waste -= 1;
                record_inst(listing, layout, i, hole as u16);
            }
            _ => return,
        }
    }
}

/// Places a microprogram.  See the [module docs](self) for the algorithm.
///
/// # Errors
///
/// Returns an [`AsmError`] for undefined/duplicate labels, store overflow,
/// misaligned dispatch tables, or unsatisfiable FF sharing.
pub fn place(program: &MicroProgram) -> Result<PlacedProgram, AsmError> {
    let listing = preprocess(program)?;
    let mut breaks: HashSet<usize> = HashSet::new();
    let mut relays: HashMap<usize, Vec<String>> = HashMap::new();
    // Each repair round adds a break or a relay keyed by instruction, so
    // the loop is bounded by a small multiple of the program size.
    let max_rounds = 2 * listing.insts.len() + 16;
    for round in 0..max_rounds {
        let mut layout = layout_pass(&listing, &breaks, &relays)?;
        compact(&listing, &mut layout);
        match encode_pass(&listing, &layout) {
            Ok((words, uses, mut stats)) => {
                stats.repair_rounds = round;
                let inst_addrs = layout
                    .inst_addr
                    .iter()
                    .map(|a| a.expect("all instructions placed"))
                    .collect();
                return Ok(PlacedProgram {
                    words,
                    uses,
                    labels: layout.labels,
                    inst_addrs,
                    stats,
                });
            }
            Err(Ok(Repair::Break(i))) => {
                if !breaks.insert(i) {
                    // No progress is possible: surface the diagnostic.
                    return Err(AsmError::FfConflict {
                        first: format!(
                            "instruction {i} cannot reach its successor \
                             even from a fresh page"
                        ),
                        second: "FF already claimed".into(),
                    });
                }
            }
            Err(Ok(Repair::Relay(i, label))) => {
                relays.entry(i).or_default().push(label);
            }
            Err(Err(e)) => return Err(e),
        }
    }
    Err(AsmError::StoreFull {
        needed: MICROSTORE_SIZE + 1,
    })
}

const PAGE: u16 = PAGE_SIZE as u16;

fn page_of(raw: u16) -> u16 {
    raw / PAGE
}

struct Cursor {
    next: u16,
}

impl Cursor {
    fn skip_to(&mut self, addr: u16, layout: &mut Layout) -> Result<(), AsmError> {
        while self.next < addr {
            self.waste_one(layout)?;
        }
        Ok(())
    }

    fn waste_one(&mut self, layout: &mut Layout) -> Result<(), AsmError> {
        let i = self.next as usize;
        if i >= MICROSTORE_SIZE {
            return Err(AsmError::StoreFull { needed: i + 1 });
        }
        if layout.slots[i].is_none() {
            layout.slots[i] = Some(Slot::Waste);
            layout.waste += 1;
        }
        self.next += 1;
        Ok(())
    }

    fn alloc(&mut self, layout: &mut Layout, slot: Slot) -> Result<u16, AsmError> {
        let i = self.next as usize;
        if i >= MICROSTORE_SIZE {
            return Err(AsmError::StoreFull { needed: i + 1 });
        }
        debug_assert!(layout.slots[i].is_none(), "slot {i} already allocated");
        layout.slots[i] = Some(slot);
        self.next += 1;
        Ok(i as u16)
    }
}

fn layout_pass(
    listing: &Listing<'_>,
    breaks: &HashSet<usize>,
    relay_reqs: &HashMap<usize, Vec<String>>,
) -> Result<Layout, AsmError> {
    let n = listing.insts.len();
    let mut layout = Layout {
        slots: vec![None; MICROSTORE_SIZE],
        labels: HashMap::new(),
        inst_addr: vec![None; n],
        branch_pair: HashMap::new(),
        pinned: HashSet::new(),
        waste: 0,
    };
    let mut cur = Cursor { next: 0 };

    let has_directive = |k: usize| {
        listing.pair_align[k] || listing.align8[k] || listing.align256[k] || listing.page_break[k]
    };

    let mut i = 0usize;
    while i < n {
        if layout.inst_addr[i].is_some() {
            // Already placed (inlined into a branch pair).
            i += 1;
            continue;
        }
        // Collect the fall-through segment starting here: a run of
        // `Flow::Next` instructions plus its terminator.  Fall-through does
        // not require adjacency (every word names its successor), only
        // same-page reach or a free FF for the cross-page long form — so a
        // segment is placed page by page, splitting at FF-free words.
        let mut seg = vec![i];
        while matches!(
            listing.insts[*seg.last().expect("nonempty")].flow,
            Flow::Next
        ) {
            let j = seg.last().unwrap() + 1;
            if j >= n || layout.inst_addr[j].is_some() || has_directive(j) {
                break;
            }
            seg.push(j);
        }

        // Alignment directives (attached to the segment head); a repair
        // break anywhere in the segment moves the whole segment.
        if (listing.page_break[i] || seg.iter().any(|k| breaks.contains(k)))
            && !cur.next.is_multiple_of(PAGE)
        {
            cur.skip_to((page_of(cur.next) + 1) * PAGE, &mut layout)?;
        }
        if listing.align256[i] && !cur.next.is_multiple_of(256) {
            cur.skip_to((cur.next / 256 + 1) * 256, &mut layout)?;
        }
        if listing.align8[i] && !cur.next.is_multiple_of(8) {
            cur.skip_to((cur.next / 8 + 1) * 8, &mut layout)?;
        }
        if listing.pair_align[i] && !cur.next.is_multiple_of(2) {
            cur.waste_one(&mut layout)?;
        }

        let arms = when_of(listing, &seg);
        place_segment(listing, &mut layout, &mut cur, &seg, arms)?;
        let term = *seg.last().unwrap();
        // Explicitly requested relays (repairs for FF-busy cross-page
        // gotos).  A relay only needs to share the *page* of its source,
        // so an existing alignment hole in that page is the perfect home.
        if let Some(targets) = relay_reqs.get(&term) {
            let page = layout.inst_addr[term].expect("just placed").page() as usize;
            for tgt in targets {
                let hole = (page * PAGE_SIZE..(page + 1) * PAGE_SIZE)
                    .find(|&s| matches!(layout.slots[s], Some(Slot::Waste)));
                match hole {
                    Some(s) => {
                        layout.slots[s] = Some(Slot::Relay {
                            target: tgt.clone(),
                        });
                        layout.waste -= 1;
                    }
                    None => {
                        cur.alloc(
                            &mut layout,
                            Slot::Relay {
                                target: tgt.clone(),
                            },
                        )?;
                    }
                }
            }
        }
        i = term + 1;
    }
    Ok(layout)
}

/// The branch arms of a segment's terminator, if it is a branch.
fn when_of<'p>(listing: &Listing<'p>, seg: &[usize]) -> Option<(&'p str, &'p str)> {
    match &listing.insts[*seg.last().expect("nonempty")].flow {
        Flow::Branch {
            when_true,
            when_false,
            ..
        } => Some((when_true.as_str(), when_false.as_str())),
        _ => None,
    }
}

/// Places one fall-through segment: as much as fits per page, splitting
/// only at instructions whose FF is free (they escape with a long goto).
/// A branch terminator needs three contiguous words (its target pair and
/// itself) unless its pair already exists in the landing page.
fn place_segment(
    listing: &Listing<'_>,
    layout: &mut Layout,
    cur: &mut Cursor,
    seg: &[usize],
    branch_arms: Option<(&str, &str)>,
) -> Result<(), AsmError> {
    let mut pos = 0usize; // next unplaced element of `seg`
    while pos < seg.len() {
        let left = &seg[pos..];
        let offset = (cur.next % PAGE) as usize;
        let room = PAGE as usize - offset;
        // Cost of finishing the whole segment in this page.
        let tail_cost = match branch_arms {
            Some((wt, wf)) => {
                let case_a = pair_ready(listing, layout, cur, wt, wf, left.len() - 1);
                left.len() - 1 + if case_a { 1 } else { 3 }
            }
            None => left.len(),
        };
        if tail_cost <= room {
            for &k in &left[..left.len() - 1] {
                let a = cur.alloc(layout, Slot::Inst(k))?;
                record_inst(listing, layout, k, a);
            }
            let term = *left.last().expect("nonempty");
            match branch_arms {
                Some((wt, wf)) => {
                    place_branch(listing, layout, cur, term, wt, wf)?;
                }
                None => {
                    let a = cur.alloc(layout, Slot::Inst(term))?;
                    record_inst(listing, layout, term, a);
                }
            }
            return Ok(());
        }
        // Must split: the last body instruction placed in this page needs a
        // free FF for its cross-page escape.
        let max_here = room.min(left.len().saturating_sub(1));
        let split = (1..=max_here)
            .rev()
            .find(|&s| listing.insts[left[s - 1]].ff_free());
        match split {
            Some(s) => {
                for &k in &left[..s] {
                    let a = cur.alloc(layout, Slot::Inst(k))?;
                    record_inst(listing, layout, k, a);
                }
                pos += s;
                if !cur.next.is_multiple_of(PAGE) {
                    cur.skip_to((page_of(cur.next) + 1) * PAGE, layout)?;
                }
            }
            None if offset > 0 => {
                // Retry with a whole fresh page.
                cur.skip_to((page_of(cur.next) + 1) * PAGE, layout)?;
            }
            None => {
                return Err(AsmError::FfConflict {
                    first: format!(
                        "a fall-through run of {} FF-busy instructions                          cannot cross a page boundary",
                        left.len()
                    ),
                    second: "no free FF for the page escape".into(),
                });
            }
        }
    }
    Ok(())
}

/// Whether a branch's target pair already exists, correctly arranged, in
/// the page the branch would land in (`body_len` words past the cursor) —
/// the placer's "case A".
fn pair_ready(
    listing: &Listing<'_>,
    layout: &Layout,
    cur: &Cursor,
    when_true: &str,
    when_false: &str,
    body_len: usize,
) -> bool {
    let f_idx = listing.label_index[when_false];
    let t_idx = listing.label_index[when_true];
    match (layout.inst_addr[f_idx], layout.inst_addr[t_idx]) {
        (Some(fa), Some(ta)) => {
            fa.page_offset() % 2 == 0
                && ta.raw() == fa.raw() + 1
                && page_of(cur.next + body_len as u16) == fa.page()
        }
        _ => false,
    }
}

fn record_inst(listing: &Listing<'_>, layout: &mut Layout, i: usize, addr: u16) {
    layout.inst_addr[i] = Some(MicroAddr::new(addr));
    for l in &listing.labels_at[i] {
        layout.labels.insert((*l).to_string(), MicroAddr::new(addr));
    }
}

/// Places a conditional branch and arranges its even/odd target pair.
fn place_branch(
    listing: &Listing<'_>,
    layout: &mut Layout,
    cur: &mut Cursor,
    i: usize,
    when_true: &str,
    when_false: &str,
) -> Result<(), AsmError> {
    let f_idx = listing.label_index[when_false];
    let t_idx = listing.label_index[when_true];

    // Case A: the pair already exists — `when_false` placed at an even
    // offset with `when_true` at the next odd offset.  The branch must land
    // in the same page; if the cursor is elsewhere, fall through to pair
    // allocation (relays) instead of forcing a page move.
    layout.pinned.insert(i);
    if let (Some(fa), Some(ta)) = (layout.inst_addr[f_idx], layout.inst_addr[t_idx]) {
        if fa.page_offset() % 2 == 0 && ta.raw() == fa.raw() + 1 && page_of(cur.next) == fa.page() {
            let addr = cur.alloc(layout, Slot::Inst(i))?;
            record_inst(listing, layout, i, addr);
            layout.branch_pair.insert(i, fa.page_offset() / 2);
            return Ok(());
        }
    }

    // Allocate a fresh pair adjacent to the branch, in the same page: three
    // consecutive words are needed.  At an even cursor the pair goes
    // *first* and the branch third (instruction order in the store is
    // free — every word names its successor explicitly, §5.5); at an odd
    // cursor the branch goes first.  Either way, no padding.
    loop {
        let offset = cur.next % PAGE;
        if offset + 2 < PAGE {
            break;
        }
        // Not enough room in this page: move to the next one.
        cur.waste_one(layout)?;
    }

    let branch_first = cur.next % 2 == 1;
    // An inlined arm is pinned to the pair's position, so its own outgoing
    // flow must work from *anywhere*: a free FF covers every cross-page
    // case (long goto/call, long fall-through escape), and Return/IFUJump
    // need no target at all.  Arms that fail this are relayed instead and
    // their instruction placed later as a normal segment.
    let inline_ok = |k: usize| {
        listing.insts[k].ff_free() || matches!(listing.insts[k].flow, Flow::Return | Flow::IfuJump)
    };
    let addr;
    if branch_first {
        addr = cur.alloc(layout, Slot::Inst(i))?;
        record_inst(listing, layout, i, addr);
    } else {
        addr = cur.next + 2; // the branch will land after the pair
    }
    let pair_base = cur.next % PAGE;
    layout.branch_pair.insert(i, pair_base / 2);

    // False arm (even slot): inline the next listing instruction when it is
    // exactly the false target and nothing else constrains it.
    let inline_false = f_idx == i + 1
        && inline_ok(f_idx)
        && layout.inst_addr[f_idx].is_none()
        && !listing.pair_align[f_idx]
        && !listing.align8[f_idx]
        && !listing.align256[f_idx]
        && !listing.page_break[f_idx]
        && !matches!(listing.insts[f_idx].flow, Flow::Branch { .. });
    if inline_false {
        layout.pinned.insert(f_idx);
        let a = cur.alloc(layout, Slot::Inst(f_idx))?;
        record_inst(listing, layout, f_idx, a);
    } else {
        cur.alloc(
            layout,
            Slot::Relay {
                target: when_false.to_string(),
            },
        )?;
    }

    // True arm (odd slot): inline when it is the next instruction and the
    // false arm did not already claim it.
    let inline_true = !inline_false
        && t_idx == i + 1
        && inline_ok(t_idx)
        && layout.inst_addr[t_idx].is_none()
        && !listing.pair_align[t_idx]
        && !listing.align8[t_idx]
        && !listing.align256[t_idx]
        && !listing.page_break[t_idx]
        && !matches!(listing.insts[t_idx].flow, Flow::Branch { .. });
    if inline_true {
        layout.pinned.insert(t_idx);
        let a = cur.alloc(layout, Slot::Inst(t_idx))?;
        record_inst(listing, layout, t_idx, a);
    } else {
        cur.alloc(
            layout,
            Slot::Relay {
                target: when_true.to_string(),
            },
        )?;
    }
    if !branch_first {
        let a = cur.alloc(layout, Slot::Inst(i))?;
        debug_assert_eq!(a, addr);
        record_inst(listing, layout, i, a);
    }
    Ok(())
}

type EncodeResult =
    Result<(Vec<Microword>, Vec<SlotUse>, PlacementStats), Result<Repair, AsmError>>;

fn encode_pass(listing: &Listing<'_>, layout: &Layout) -> EncodeResult {
    let mut words = vec![Microword::default(); MICROSTORE_SIZE];
    let mut uses = vec![SlotUse::Empty; MICROSTORE_SIZE];
    let mut stats = PlacementStats {
        waste: layout.waste,
        ..PlacementStats::default()
    };

    for (raw, slot) in layout.slots.iter().enumerate() {
        let addr = MicroAddr::new(raw as u16);
        match slot {
            None => {}
            Some(Slot::Waste) => {
                uses[raw] = SlotUse::Waste;
            }
            Some(Slot::Relay { target, .. }) => {
                let dest = layout.labels[target];
                let (control, ff) = route(addr, dest, true, false).map_err(Err)?;
                words[raw] = Microword::default().with_control(control).with_ff(ff);
                uses[raw] = SlotUse::Relay(target.clone());
                stats.relays += 1;
            }
            Some(Slot::Inst(i)) => {
                let inst = listing.insts[*i];
                let word = encode_inst(listing, layout, *i, inst, addr)?;
                words[raw] = word;
                uses[raw] = SlotUse::Inst(*i);
                stats.instructions += 1;
            }
        }
    }
    Ok((words, uses, stats))
}

/// Chooses short or long form for a transfer from `at` to `dest`,
/// returning `None` when no encoding exists (cross-page with a busy FF).
/// This is [`route`] for external rewriters — branch-slot filling re-aims
/// a copied instruction's control field with it.
pub fn reroute(
    at: MicroAddr,
    dest: MicroAddr,
    ff_free: bool,
    call: bool,
) -> Option<(ControlOp, u8)> {
    route(at, dest, ff_free, call).ok()
}

/// Chooses short or long form for a transfer from `at` to `dest`.
fn route(
    at: MicroAddr,
    dest: MicroAddr,
    ff_free: bool,
    call: bool,
) -> Result<(ControlOp, u8), AsmError> {
    let offset = dest.page_offset() as u8;
    if dest.page() == at.page() {
        Ok((
            if call {
                ControlOp::Call { offset }
            } else {
                ControlOp::Goto { offset }
            },
            0,
        ))
    } else if ff_free {
        Ok((
            if call {
                ControlOp::CallLong { offset }
            } else {
                ControlOp::GotoLong { offset }
            },
            dest.page() as u8,
        ))
    } else {
        // Caller converts this into a repair.
        Err(AsmError::FfConflict {
            first: "cross-page transfer needs FF".into(),
            second: "FF already claimed".into(),
        })
    }
}

fn encode_inst(
    listing: &Listing<'_>,
    layout: &Layout,
    i: usize,
    inst: &Inst,
    at: MicroAddr,
) -> Result<Microword, Result<Repair, AsmError>> {
    let mut word = Microword::default()
        .with_raddr(inst.raddr)
        .with_aluop(inst.aluop)
        .with_bsel(inst.bsel)
        .with_asel(inst.asel)
        .with_block(inst.block);
    word = word.with_load_control(inst.load);
    let base_ff = match inst.ff {
        FfSlot::Free => None,
        FfSlot::Op(op) => Some(op.encode()),
        FfSlot::Const(b) => Some(b),
    };

    let ff_free = base_ff.is_none();
    let (control, flow_ff) = match &inst.flow {
        Flow::Next => {
            let dest = next_inst_addr(listing, layout, i).ok_or(Err(AsmError::UndefinedLabel(
                "fall-through past the last instruction".into(),
            )))?;
            match route(at, dest, ff_free, false) {
                Ok(x) => x,
                Err(_) if at.page_offset() != 0 => {
                    // Move this instruction to a fresh page so that it and
                    // its successor share a page again.
                    return Err(Ok(Repair::Break(i)));
                }
                Err(_) => {
                    return Err(Err(AsmError::FfConflict {
                        first: format!(
                            "fall-through at {at} (instruction {i}) crosses to {:?}",
                            next_inst_addr(listing, layout, i)
                        ),
                        second: "FF already claimed".into(),
                    }))
                }
            }
        }
        Flow::Goto(label) | Flow::Call(label) => {
            let call = matches!(inst.flow, Flow::Call(_));
            let dest = layout.labels[label.as_str()];
            match route(at, dest, ff_free, call) {
                Ok(x) => x,
                Err(_) => {
                    // FF busy and target off-page: route through a relay
                    // placed right after this instruction.
                    match find_relay(layout, at, label) {
                        Some(relay_addr) if relay_addr.page() == at.page() => {
                            let offset = relay_addr.page_offset() as u8;
                            (
                                if call {
                                    ControlOp::Call { offset }
                                } else {
                                    ControlOp::Goto { offset }
                                },
                                0,
                            )
                        }
                        Some(_) => return Err(Ok(Repair::Break(i))),
                        None => return Err(Ok(Repair::Relay(i, label.clone()))),
                    }
                }
            }
        }
        Flow::Return => (ControlOp::Return, 0),
        Flow::IfuJump => (ControlOp::IfuJump, 0),
        Flow::Branch { cond, .. } => {
            let pair = layout.branch_pair[&i] as u8;
            if pair >= 8 {
                return Err(Err(AsmError::BranchPairUnplaceable {
                    at,
                    when_false: "pair index out of range".into(),
                    when_true: String::new(),
                }));
            }
            (ControlOp::CondGoto { cond: *cond, pair }, 0)
        }
        Flow::Dispatch8(label) => {
            let dest = layout.labels[label.as_str()];
            if !dest.page_offset().is_multiple_of(8) {
                return Err(Err(AsmError::BadDispatchTable(format!(
                    "dispatch-8 table `{label}` at {dest} is not 8-aligned"
                ))));
            }
            if !ff_free {
                return Err(Err(AsmError::FfConflict {
                    first: "dispatch-8 needs FF for the table page".into(),
                    second: "FF already claimed".into(),
                }));
            }
            (
                ControlOp::Dispatch8 {
                    base_hi: dest.page_offset() >= 8,
                },
                dest.page() as u8,
            )
        }
        Flow::Dispatch256(label) => {
            let dest = layout.labels[label.as_str()];
            if !dest.raw().is_multiple_of(256) {
                return Err(Err(AsmError::BadDispatchTable(format!(
                    "dispatch-256 table `{label}` at {dest} is not 256-aligned"
                ))));
            }
            if !ff_free {
                return Err(Err(AsmError::FfConflict {
                    first: "dispatch-256 needs FF for the table quadrant".into(),
                    second: "FF already claimed".into(),
                }));
            }
            (ControlOp::Dispatch256, (dest.raw() / 256) as u8)
        }
    };

    word = word.with_control(control);
    word = word.with_ff(base_ff.unwrap_or(flow_ff));
    Ok(word)
}

fn next_inst_addr(listing: &Listing<'_>, layout: &Layout, i: usize) -> Option<MicroAddr> {
    if i + 1 < listing.insts.len() {
        layout.inst_addr[i + 1]
    } else {
        None
    }
}

/// Finds a relay slot for `label` in the same page as `at`.
fn find_relay(layout: &Layout, at: MicroAddr, label: &str) -> Option<MicroAddr> {
    let page = at.page() as usize;
    (page * PAGE_SIZE..(page + 1) * PAGE_SIZE).find_map(|raw| match &layout.slots[raw] {
        Some(Slot::Relay { target }) if target == label => Some(MicroAddr::new(raw as u16)),
        _ => None,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fields::{AluOp, Cond};
    use crate::program::Assembler;

    fn nop() -> Inst {
        Inst::new()
    }

    #[test]
    fn straight_line_is_sequential() {
        let mut a = Assembler::new();
        for _ in 0..5 {
            a.emit(nop());
        }
        a.emit(nop().ff_halt().goto_("end"));
        a.label("end");
        // "end" needs an instruction after it:
        // (re-emit: label must precede an instruction)
        a.emit(nop().ret());
        let placed = a.place().unwrap();
        for k in 0..7 {
            assert_eq!(placed.inst_addr(k).unwrap().raw(), k as u16);
        }
        // Fall-throughs encode as in-page gotos to the next slot.
        let w = placed.word(MicroAddr::new(0));
        assert_eq!(w.control().unwrap(), ControlOp::Goto { offset: 1 });
    }

    #[test]
    fn page_crossing_uses_long_goto() {
        let mut a = Assembler::new();
        for _ in 0..(PAGE_SIZE + 2) {
            a.emit(nop());
        }
        a.emit(nop().ret());
        let placed = a.place().unwrap();
        // The word at offset 15 must escape to page 1.
        let w = placed.word(MicroAddr::from_parts(0, 15));
        assert_eq!(w.control().unwrap(), ControlOp::GotoLong { offset: 0 });
        assert_eq!(w.ff(), 1);
    }

    #[test]
    fn page_crossing_with_busy_ff_forces_break() {
        let mut a = Assembler::new();
        // 15 words of filler, then a constant-carrying instruction that
        // would land at offset 15 where its fall-through crosses the page.
        for _ in 0..15 {
            a.emit(nop());
        }
        a.emit(nop().const16(7).alu(AluOp::B).load_t());
        a.emit(nop().ret());
        let placed = a.place().unwrap();
        let const_addr = placed.inst_addr(15).unwrap();
        // The segment planner splits the run at an FF-free word, so the
        // constant-carrying instruction lands at the next page's start —
        // with no repair rounds at all.
        assert_eq!(const_addr, MicroAddr::from_parts(1, 0));
        assert_eq!(placed.stats().repair_rounds, 0);
        assert!(placed.stats().waste >= 1);
    }

    #[test]
    fn branch_pair_inline_false_arm() {
        let mut a = Assembler::new();
        a.emit(nop().branch(Cond::Zero, "t", "f"));
        a.label("f");
        a.emit(nop().ret()); // inlined at the even slot
        a.label("t");
        a.emit(nop().ret()); // placed later; odd slot holds a relay... or inline
        let placed = a.place().unwrap();
        let b = placed.word(placed.inst_addr(0).unwrap());
        let ControlOp::CondGoto { pair, .. } = b.control().unwrap() else {
            panic!("not a branch");
        };
        let f_addr = placed.address_of("f").unwrap();
        assert_eq!(f_addr.page_offset() % 2, 0);
        assert_eq!(f_addr.page_offset(), u16::from(pair) * 2);
        // True target reached via the odd slot (relay or inline).
        let odd = MicroAddr::new(f_addr.raw() + 1);
        let w = placed.word(odd);
        match w.control().unwrap() {
            ControlOp::Goto { offset } => {
                assert_eq!(
                    placed.address_of("t").unwrap().page_offset(),
                    u16::from(offset)
                );
            }
            ControlOp::GotoLong { .. } | ControlOp::Return => {}
            other => panic!("unexpected odd-slot control {other:?}"),
        }
    }

    #[test]
    fn backward_branch_to_prebuilt_pair() {
        let mut a = Assembler::new();
        a.pair_align();
        a.label("top");
        a.emit(nop().ff_dec_count().goto_("body")); // even
        a.label("exit");
        a.emit(nop().ff_halt().goto_("exit")); // odd
        a.label("body");
        a.emit(nop().branch(Cond::CntZero, "exit", "top"));
        let placed = a.place().unwrap();
        let top = placed.address_of("top").unwrap();
        let exit = placed.address_of("exit").unwrap();
        assert_eq!(top.page_offset() % 2, 0);
        assert_eq!(exit.raw(), top.raw() + 1);
        let b = placed.word(placed.inst_addr(2).unwrap());
        assert_eq!(
            b.control().unwrap(),
            ControlOp::CondGoto {
                cond: Cond::CntZero,
                pair: (top.page_offset() / 2) as u8
            }
        );
        // No relays needed: the loop costs no extra words.
        assert_eq!(placed.stats().relays, 0);
    }

    #[test]
    fn shared_branch_targets_get_duplicated_relays() {
        let mut a = Assembler::new();
        a.pair_align();
        a.label("f1");
        a.emit(nop()); // even
        a.label("t1");
        a.emit(nop()); // odd
        a.emit(nop().branch(Cond::Zero, "t1", "f1")); // case A, no relays
                                                      // A second branch to the same targets from elsewhere cannot reuse
                                                      // the pair (it is not at the cursor's page position after more code)
                                                      // — it gets relay duplication, the §5.5 annoyance.
        for _ in 0..20 {
            a.emit(nop());
        }
        a.emit(nop().branch(Cond::Zero, "t1", "f1"));
        a.emit(nop().ret());
        let placed = a.place().unwrap();
        assert!(placed.stats().relays >= 2);
    }

    #[test]
    fn calls_and_returns() {
        let mut a = Assembler::new();
        a.emit(nop().call("sub"));
        a.emit(nop().ff_halt().goto_("done"));
        a.label("done");
        a.emit(nop().ret());
        a.label("sub");
        a.emit(nop().ret());
        let placed = a.place().unwrap();
        let call = placed.word(placed.inst_addr(0).unwrap());
        assert!(matches!(
            call.control().unwrap(),
            ControlOp::Call { .. } | ControlOp::CallLong { .. }
        ));
    }

    #[test]
    fn cross_page_call_uses_ff() {
        let mut a = Assembler::new();
        a.emit(nop().call("sub"));
        a.emit(nop().ff_halt().goto_("self"));
        a.label("self");
        a.emit(nop().ret());
        a.page_break();
        a.page_break(); // still one break; idempotent on page boundary
                        // A fall-through predecessor pins `sub` (the compactor would
                        // otherwise pull a lone relocatable instruction back into page 0).
        a.emit(nop());
        a.label("sub");
        a.emit(nop().ret());
        let placed = a.place().unwrap();
        let call = placed.word(placed.inst_addr(0).unwrap());
        let sub = placed.address_of("sub").unwrap();
        assert_eq!(sub.page(), 1, "pinned on its own page");
        assert_eq!(
            call.control().unwrap(),
            ControlOp::CallLong {
                offset: sub.page_offset() as u8
            }
        );
        assert_eq!(call.ff(), sub.page() as u8);
    }

    #[test]
    fn cross_page_goto_with_busy_ff_gets_relay() {
        let mut a = Assembler::new();
        // Instruction with FF claimed by a constant, jumping cross-page.
        a.emit(nop().const16(0x42).alu(AluOp::B).load_t().goto_("far"));
        a.page_break();
        a.emit(nop()); // fall-through predecessor pins `far` off-page
        a.label("far");
        a.emit(nop().ret());
        let placed = a.place().unwrap();
        assert!(placed.stats().relays >= 1);
        // The first instruction short-gotos the relay, which long-gotos far.
        let w0 = placed.word(placed.inst_addr(0).unwrap());
        let ControlOp::Goto { offset } = w0.control().unwrap() else {
            panic!("expected short goto to relay");
        };
        let relay = placed.word(MicroAddr::from_parts(0, offset.into()));
        let far = placed.address_of("far").unwrap();
        assert_eq!(
            relay.control().unwrap(),
            ControlOp::GotoLong {
                offset: far.page_offset() as u8
            }
        );
        assert_eq!(relay.ff(), far.page() as u8);
    }

    #[test]
    fn dispatch8_table() {
        let mut a = Assembler::new();
        a.emit(nop().dispatch8("tbl"));
        a.align8();
        a.label("tbl");
        for _ in 0..8 {
            a.emit(nop().ret());
        }
        let placed = a.place().unwrap();
        let d = placed.word(placed.inst_addr(0).unwrap());
        let tbl = placed.address_of("tbl").unwrap();
        assert_eq!(tbl.page_offset() % 8, 0);
        match d.control().unwrap() {
            ControlOp::Dispatch8 { base_hi } => {
                assert_eq!(base_hi, tbl.page_offset() >= 8);
                assert_eq!(d.ff(), tbl.page() as u8);
            }
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn dispatch256_table() {
        let mut a = Assembler::new();
        a.emit(nop().dispatch256("tbl"));
        a.align256();
        a.label("tbl");
        for _ in 0..256 {
            a.emit(nop().ret());
        }
        let placed = a.place().unwrap();
        let tbl = placed.address_of("tbl").unwrap();
        assert_eq!(tbl.raw() % 256, 0);
        let d = placed.word(placed.inst_addr(0).unwrap());
        assert_eq!(d.control().unwrap(), ControlOp::Dispatch256);
        assert_eq!(d.ff(), (tbl.raw() / 256) as u8);
    }

    #[test]
    fn undefined_label_errors() {
        let mut a = Assembler::new();
        a.emit(nop().goto_("nowhere"));
        assert!(matches!(
            a.place(),
            Err(AsmError::UndefinedLabel(l)) if l == "nowhere"
        ));
    }

    #[test]
    fn empty_program_errors() {
        let a = Assembler::new();
        assert!(matches!(a.place(), Err(AsmError::EmptyProgram)));
    }

    #[test]
    fn store_overflow_errors() {
        let mut a = Assembler::new();
        for _ in 0..MICROSTORE_SIZE {
            a.emit(nop());
        }
        a.emit(nop().ret());
        assert!(matches!(a.place(), Err(AsmError::StoreFull { .. })));
    }

    #[test]
    fn utilization_of_dense_code_is_high() {
        let mut a = Assembler::new();
        for _ in 0..1000 {
            a.emit(nop());
        }
        a.emit(nop().ret());
        let placed = a.place().unwrap();
        assert!(placed.stats().utilization() > 0.99);
    }

    #[test]
    fn trailing_fallthrough_errors() {
        let mut a = Assembler::new();
        a.emit(nop()); // Flow::Next with no successor
        assert!(a.place().is_err());
    }
}
