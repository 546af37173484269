//! A worklist fixpoint engine for forward abstract interpretation over
//! the [`Cfg`](crate::cfg::Cfg).
//!
//! Passes plug in a [`Domain`]: an abstract value, a join, and a
//! transfer function over one microword.  The engine iterates to a
//! fixpoint, applying the domain's widening once a node has been
//! revisited enough times, so interval domains terminate on loops.

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
    /// [`fixpoint`]'s `widen_after` times; defaults to plain join
    /// (fine for finite domains).
    fn widen(&self, old: &Self::Value, new: &Self::Value) -> Self::Value {
        self.join(old, new)
    }
}

/// Per-address input states after convergence, indexed by raw address.
/// `None` means the word was not reached from the roots.
pub struct Fixpoint<V> {
    states: Vec<Option<V>>,
    reached: Vec<MicroAddr>,
}

impl<V> Fixpoint<V> {
    /// The input state at `addr` (the value *before* the word executes).
    pub fn input(&self, addr: MicroAddr) -> Option<&V> {
        self.states[addr.raw() as usize].as_ref()
    }

    /// Every word the roots reach (those with an input state), in the
    /// order the engine first reached them.
    pub(crate) fn reached(&self) -> &[MicroAddr] {
        &self.reached
    }
}

/// Runs `dom` to a fixpoint from `roots`.  `widen_after` bounds how many
/// times a node is re-joined precisely before widening kicks in.
pub fn fixpoint<D: Domain>(
    cfg: &Cfg,
    roots: &[MicroAddr],
    dom: &D,
    widen_after: usize,
) -> Fixpoint<D::Value> {
    let mut states: Vec<Option<D::Value>> = (0..MICROSTORE_SIZE).map(|_| None).collect();
    let mut visits = vec![0usize; MICROSTORE_SIZE];
    let mut reached: Vec<MicroAddr> = Vec::new();
    let mut work: Vec<MicroAddr> = Vec::new();
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
            .clone()
            .expect("worklist nodes have states");
        let out = dom.transfer(node, &input);
        for &s in &node.succs {
            let i = s.raw() as usize;
            let updated = match &states[i] {
                None => {
                    reached.push(s);
                    Some(out.clone())
                }
                Some(old) => {
                    let new = if visits[i] > widen_after {
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
    Fixpoint { states, reached }
}
