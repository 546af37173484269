//! A control-flow graph over a placed microprogram.
//!
//! Nodes are the used microstore words (instructions and placer relays);
//! edges follow the NEXTPC scheme of §3.1/§5.5: in-page gotos and calls,
//! long transfers through the FF field, conditional even/odd pairs,
//! dispatch tables, call-return continuations through LINK.  `RETURN`
//! and `IFUJUMP` have no static successors (their targets are LINK and
//! the IFU decode table respectively); analysis of code behind them
//! starts again from labeled roots.
//!
//! TASK switches are *not* edges: the scheduler can preempt between any
//! two microinstructions, so passes that care about cross-task
//! interference (task-safety) treat every edge as a potential TASK
//! point rather than materializing interference edges.

use crate::{ControlOp, Microword, PlacedProgram};
use dorado_base::{MicroAddr, MICROSTORE_SIZE};

/// One used microstore word and its static flow edges.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Node {
    /// Where the word lives.
    pub addr: MicroAddr,
    /// The word itself.
    pub word: Microword,
    /// True if the placer synthesized this word (a cross-page escape
    /// relay), false for listed instructions.
    pub relay: bool,
    /// Static successors (only used words; transfers into unused words
    /// are structural violations and carry no edge).
    pub succs: Vec<MicroAddr>,
    /// Static predecessors, in ascending address order.
    pub preds: Vec<MicroAddr>,
}

/// The control-flow graph: a dense array over the 4096-word store.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Cfg {
    nodes: Vec<Option<Node>>,
}

impl Cfg {
    /// Builds the CFG for a placed program.
    pub fn build(placed: &PlacedProgram) -> Cfg {
        use crate::placer::SlotUse;
        let uses = placed.uses();
        let used =
            |a: MicroAddr| !matches!(uses[a.raw() as usize], SlotUse::Empty | SlotUse::Waste);
        let mut nodes: Vec<Option<Node>> = vec![None; MICROSTORE_SIZE];
        for (i, slot) in uses.iter().enumerate() {
            let relay = match slot {
                SlotUse::Empty | SlotUse::Waste => continue,
                SlotUse::Inst(_) => false,
                SlotUse::Relay(_) => true,
            };
            let addr = MicroAddr::new(i as u16);
            let word = placed.word(addr);
            let succs = successors(addr, word)
                .into_iter()
                .filter(|&s| used(s))
                .collect();
            nodes[i] = Some(Node {
                addr,
                word,
                relay,
                succs,
                preds: Vec::new(),
            });
        }
        // Invert the edges.
        for i in 0..nodes.len() {
            let Some(node) = &nodes[i] else { continue };
            let from = node.addr;
            for s in node.succs.clone() {
                if let Some(t) = nodes[s.raw() as usize].as_mut() {
                    if !t.preds.contains(&from) {
                        t.preds.push(from);
                    }
                }
            }
        }
        Cfg { nodes }
    }

    /// Rewrites the used word at `addr` in place — the CFG half of
    /// patching one word of the image (branch-slot filling and its
    /// undo).  Only the edges out of `addr` move: it leaves the
    /// predecessor lists of its old successors and joins those of its
    /// new ones, in address order, so the result equals [`Cfg::build`]
    /// of the patched image as long as the set of used words is
    /// unchanged.
    ///
    /// # Panics
    ///
    /// Panics if the word at `addr` is not a node.
    pub fn replace(&mut self, addr: MicroAddr, word: Microword, relay: bool) {
        let i = addr.raw() as usize;
        let node = self.nodes[i]
            .as_mut()
            .unwrap_or_else(|| panic!("Cfg::replace at {addr}: word is not used"));
        node.word = word;
        node.relay = relay;
        let old = std::mem::take(&mut node.succs);
        for s in old {
            if let Some(t) = self.nodes[s.raw() as usize].as_mut() {
                t.preds.retain(|&p| p != addr);
            }
        }
        let succs: Vec<MicroAddr> = successors(addr, word)
            .into_iter()
            .filter(|&s| self.nodes[s.raw() as usize].is_some())
            .collect();
        for &s in &succs {
            if let Some(t) = self.nodes[s.raw() as usize].as_mut() {
                if let Err(k) = t.preds.binary_search(&addr) {
                    t.preds.insert(k, addr);
                }
            }
        }
        if let Some(node) = self.nodes[i].as_mut() {
            node.succs = succs;
        }
    }

    /// The node at `addr`, if that word is used.
    pub fn node(&self, addr: MicroAddr) -> Option<&Node> {
        self.nodes[addr.raw() as usize].as_ref()
    }

    /// All nodes, in address order.
    pub fn iter(&self) -> impl Iterator<Item = &Node> {
        self.nodes.iter().filter_map(Option::as_ref)
    }

    /// Number of nodes (used words).
    pub fn len(&self) -> usize {
        self.nodes.iter().filter(|n| n.is_some()).count()
    }

    /// True when the program has no used words.
    pub fn is_empty(&self) -> bool {
        self.nodes.iter().all(Option::is_none)
    }

    /// The set of words reachable from `roots` along static edges, as a
    /// dense bitmap indexed by raw address.
    pub fn reach(&self, roots: &[MicroAddr]) -> Vec<bool> {
        let mut seen = vec![false; MICROSTORE_SIZE];
        let mut work: Vec<MicroAddr> = Vec::new();
        for &r in roots {
            if self.node(r).is_some() && !seen[r.raw() as usize] {
                seen[r.raw() as usize] = true;
                work.push(r);
            }
        }
        while let Some(a) = work.pop() {
            let node = self.node(a).expect("reachable nodes exist");
            for &s in &node.succs {
                if !seen[s.raw() as usize] {
                    seen[s.raw() as usize] = true;
                    work.push(s);
                }
            }
        }
        seen
    }
}

/// The static successor addresses of one word, mirroring the machine's
/// NEXTPC computation (unused-word filtering happens in the builder).
pub fn successors(at: MicroAddr, word: Microword) -> Vec<MicroAddr> {
    let Ok(control) = word.control() else {
        return Vec::new();
    };
    let ff = word.ff();
    match control {
        ControlOp::Goto { .. } | ControlOp::GotoLong { .. } => {
            control.static_next(at, ff).into_iter().collect()
        }
        ControlOp::Call { .. } | ControlOp::CallLong { .. } => {
            // The callee, plus the continuation RETURN resumes at
            // (LINK ← THISPC+1, crossing pages like the machine does).
            let mut out: Vec<MicroAddr> = control.static_next(at, ff).into_iter().collect();
            out.push(MicroAddr::new(at.raw().wrapping_add(1)));
            out
        }
        ControlOp::CondGoto { pair, .. } => {
            let base = at.with_offset(u16::from(pair) * 2);
            vec![base, base.or_low_bit(true)]
        }
        ControlOp::Return | ControlOp::IfuJump => Vec::new(),
        ControlOp::Dispatch8 { base_hi } => {
            let base = MicroAddr::from_parts(ff.into(), if base_hi { 8 } else { 0 });
            (0..8)
                .map(|k| base.with_offset(base.page_offset() + k))
                .collect()
        }
        ControlOp::Dispatch256 => {
            let base = u16::from(ff & 0xf) << 8;
            (0..256).map(|k| MicroAddr::new(base | k)).collect()
        }
    }
}
