//! A worklist fixpoint engine for forward abstract interpretation over
//! the [`Cfg`].
//!
//! Passes plug in a [`Domain`]: an abstract value, a join, and a
//! transfer function over one microword.  Every domain but stack depth
//! is join-only over a finite lattice (the COUNT interval too: its
//! values come only from 5-bit `CNT←n` immediates and decrements), so
//! its least fixpoint does not depend on visit order.  Stack depth
//! drifts around a loop with a nonzero net push, so it is widened once
//! a node has been revisited enough times.
//!
//! * `Fixpoint::solve` solves from scratch with widening, reusing its
//!   buffers (it clears only the words the previous solve reached);
//! * `solve` solves a join-only domain from scratch, as
//!   [`analyze`](crate::analyze) does for the root facts;
//! * `Region::resolve` re-solves a join-only domain over the words a
//!   one-word patch can affect, keeping every other word's state.

use dorado_base::{MicroAddr, MICROSTORE_SIZE};

use crate::cfg::{Cfg, Node};

/// An abstract domain for forward dataflow.
pub trait Domain {
    /// The abstract value attached to each program point.
    type Value: Clone + PartialEq;

    /// The value at analysis roots (task entries, labels).
    fn entry(&self) -> Self::Value;

    /// Least upper bound of two values.
    fn join(&self, a: &Self::Value, b: &Self::Value) -> Self::Value;

    /// Abstract effect of executing one word.
    fn transfer(&self, node: &Node, v: &Self::Value) -> Self::Value;

    /// Widening applied after a node has been revisited
    /// `Fixpoint::solve`'s `widen_after` times; defaults to plain join
    /// (fine for finite domains).
    fn widen(&self, old: &Self::Value, new: &Self::Value) -> Self::Value {
        self.join(old, new)
    }
}

/// Per-address input states after convergence, indexed by raw address,
/// with the buffers the solver reuses.  `None` means the word was not
/// reached from the roots.
#[derive(Debug)]
pub struct Fixpoint<V> {
    states: Vec<Option<V>>,
    visits: Vec<u32>,
    reached: Vec<MicroAddr>,
    work: Vec<MicroAddr>,
}

impl<V: Clone + PartialEq> Default for Fixpoint<V> {
    fn default() -> Self {
        Fixpoint {
            states: vec![None; MICROSTORE_SIZE],
            visits: vec![0; MICROSTORE_SIZE],
            reached: Vec::new(),
            work: Vec::new(),
        }
    }
}

impl<V: Clone + PartialEq> Fixpoint<V> {
    /// The input state at `addr` (the value *before* the word executes).
    pub fn input(&self, addr: MicroAddr) -> Option<&V> {
        self.states[addr.raw() as usize].as_ref()
    }

    /// Every word the roots reach (those with an input state), in the
    /// order the engine first reached them.
    pub(crate) fn reached(&self) -> &[MicroAddr] {
        &self.reached
    }

    /// Runs `dom` to a fixpoint from `roots`, replacing the previous
    /// solve.  `widen_after` bounds how many times a node is re-joined
    /// precisely before widening kicks in.  Only the words the previous
    /// solve reached are cleared, so a solver reused across calls
    /// allocates nothing once its worklist has grown.
    pub(crate) fn solve<D: Domain<Value = V>>(
        &mut self,
        cfg: &Cfg,
        roots: &[MicroAddr],
        dom: &D,
        widen_after: usize,
    ) {
        for a in self.reached.drain(..) {
            self.states[a.raw() as usize] = None;
            self.visits[a.raw() as usize] = 0;
        }
        let Fixpoint {
            states,
            visits,
            reached,
            work,
        } = self;
        for &r in roots {
            if cfg.node(r).is_none() {
                continue;
            }
            let i = r.raw() as usize;
            let entry = dom.entry();
            match &states[i] {
                Some(old) => {
                    let joined = dom.join(old, &entry);
                    if joined != *old {
                        states[i] = Some(joined);
                        work.push(r);
                    }
                }
                None => {
                    states[i] = Some(entry);
                    reached.push(r);
                    work.push(r);
                }
            }
        }
        while let Some(a) = work.pop() {
            let node = cfg.node(a).expect("worklist holds live nodes");
            let input = states[a.raw() as usize]
                .as_ref()
                .expect("worklist nodes have states");
            let out = dom.transfer(node, input);
            for &s in &node.succs {
                let i = s.raw() as usize;
                let updated = match &states[i] {
                    None => {
                        reached.push(s);
                        Some(out.clone())
                    }
                    Some(old) => {
                        let new = if visits[i] as usize > widen_after {
                            dom.widen(old, &out)
                        } else {
                            dom.join(old, &out)
                        };
                        if new == *old {
                            None
                        } else {
                            Some(new)
                        }
                    }
                };
                if let Some(v) = updated {
                    states[i] = Some(v);
                    visits[i] += 1;
                    work.push(s);
                }
            }
        }
    }
}

/// Solves the join-only `dom` from `seeds` (each root with its entry
/// value) over every word they reach: the states, dense by raw address,
/// `None` where no seed reaches.
pub(crate) fn solve<D: Domain>(
    cfg: &Cfg,
    dom: &D,
    seeds: &[(MicroAddr, D::Value)],
) -> Vec<Option<D::Value>> {
    let mut states = vec![None; MICROSTORE_SIZE];
    let mut work = Vec::new();
    for (r, v) in seeds {
        if cfg.node(*r).is_some() {
            join_into(dom, &mut states, &mut work, *r, v.clone());
        }
    }
    drain(cfg, dom, &mut states, &mut work);
    states
}

/// A forward-closed set of CFG words: everything reachable from a seed
/// set, with the edges that enter it from outside.  After a patch to
/// the edges out of one word, the region grown from that word and its
/// old successors holds every word whose input state can have changed
/// (a word outside it has no path from the patched word in either
/// graph, so its ancestors and their equations are the same).
#[derive(Debug)]
pub(crate) struct Region {
    words: Vec<MicroAddr>,
    inside: Vec<bool>,
    entries: Vec<(MicroAddr, MicroAddr)>,
    work: Vec<MicroAddr>,
}

impl Default for Region {
    fn default() -> Self {
        Region {
            words: Vec::new(),
            inside: vec![false; MICROSTORE_SIZE],
            entries: Vec::new(),
            work: Vec::new(),
        }
    }
}

impl Region {
    /// Makes the region the words of `cfg` reachable from `seeds`.
    pub(crate) fn grow(&mut self, cfg: &Cfg, seeds: &[MicroAddr]) {
        for a in self.words.drain(..) {
            self.inside[a.raw() as usize] = false;
        }
        self.entries.clear();
        for &s in seeds {
            if cfg.node(s).is_some() && !self.inside[s.raw() as usize] {
                self.inside[s.raw() as usize] = true;
                self.words.push(s);
            }
        }
        let mut next = 0;
        while next < self.words.len() {
            let node = cfg.node(self.words[next]).expect("region words are nodes");
            next += 1;
            for &s in &node.succs {
                if !self.inside[s.raw() as usize] {
                    self.inside[s.raw() as usize] = true;
                    self.words.push(s);
                }
            }
        }
        for &w in &self.words {
            let node = cfg.node(w).expect("region words are nodes");
            for &p in &node.preds {
                if !self.inside[p.raw() as usize] {
                    self.entries.push((p, w));
                }
            }
        }
    }

    /// The region's words, seeds first, then in breadth-first order.
    pub(crate) fn words(&self) -> &[MicroAddr] {
        &self.words
    }

    /// Whether `addr` is in the region.
    pub(crate) fn contains(&self, addr: MicroAddr) -> bool {
        self.inside[addr.raw() as usize]
    }

    /// The edges `(pred, word)` that enter the region from outside it.
    pub(crate) fn entries(&self) -> &[(MicroAddr, MicroAddr)] {
        &self.entries
    }

    /// Re-solves `dom` over the region in `states`: every region word is
    /// reset (its old state handed to `log` first), then re-seeded from
    /// the stored outputs of the predecessors outside the region and
    /// from the `seeds` inside it, and iterated to a fixpoint.  States
    /// outside the region are read, never written.
    ///
    /// Only for domains whose widening is their join (finite lattices):
    /// their least fixpoint does not depend on visit order, so the
    /// result equals a full [`Fixpoint::solve`] of the whole graph.
    pub(crate) fn resolve<D: Domain>(
        &mut self,
        cfg: &Cfg,
        dom: &D,
        states: &mut [Option<D::Value>],
        seeds: &[(MicroAddr, D::Value)],
        mut log: impl FnMut(MicroAddr, Option<D::Value>),
    ) {
        for &a in &self.words {
            log(a, states[a.raw() as usize].take());
        }
        for &(p, w) in &self.entries {
            let Some(v) = &states[p.raw() as usize] else {
                continue;
            };
            let out = dom.transfer(cfg.node(p).expect("entry preds are nodes"), v);
            join_into(dom, states, &mut self.work, w, out);
        }
        for (r, v) in seeds {
            if self.inside[r.raw() as usize] {
                join_into(dom, states, &mut self.work, *r, v.clone());
            }
        }
        drain(cfg, dom, states, &mut self.work);
    }
}

/// Iterates the join-only `dom` from the queued words `work` until no
/// state in `states` grows.
fn drain<D: Domain>(
    cfg: &Cfg,
    dom: &D,
    states: &mut [Option<D::Value>],
    work: &mut Vec<MicroAddr>,
) {
    while let Some(a) = work.pop() {
        let node = cfg.node(a).expect("worklist holds live nodes");
        let input = states[a.raw() as usize]
            .as_ref()
            .expect("worklist nodes have states");
        let out = dom.transfer(node, input);
        for &s in &node.succs {
            join_into(dom, states, work, s, out.clone());
        }
    }
}

/// Joins `v` into the state at `at`, queueing `at` if the state grew.
fn join_into<D: Domain>(
    dom: &D,
    states: &mut [Option<D::Value>],
    work: &mut Vec<MicroAddr>,
    at: MicroAddr,
    v: D::Value,
) {
    let slot = &mut states[at.raw() as usize];
    let new = match slot {
        Some(old) => dom.join(old, &v),
        None => v,
    };
    if slot.as_ref() != Some(&new) {
        *slot = Some(new);
        work.push(at);
    }
}
