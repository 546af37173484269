//! A count-only lint over one image under single-word patches.
//!
//! A transformation that validates each candidate rewrite by
//! re-linting (branch-slot filling in `dorado-uopt`) only needs the
//! error and warning counts, and each candidate changes one word.  A
//! [`LintSession`] builds the CFG once, then for every candidate
//!
//! 1. patches the word into the image and the CFG in place
//!    ([`LintSession::fill_relay`]; only the edges out of that word
//!    move, see [`Cfg::replace`]),
//! 2. counts ([`LintSession::counts`]) by running the same passes as
//!    [`lint_with_config`](crate::lint_with_config) at a
//!    [`Severity::Warning`] floor, so no informational finding is ever
//!    built,
//! 3. and undoes the patch if the candidate is refused
//!    ([`LintSession::revert`]).
//!
//! The counts equal the full lint's exactly: the patched CFG equals
//! [`Cfg::build`] of the patched image, the passes are the same code,
//! and the floor only drops findings that are neither errors nor
//! warnings.

use dorado_asm::{Microword, PlacedProgram, SlotUse};
use dorado_base::MicroAddr;

use crate::cfg::Cfg;
use crate::diag::Severity;
use crate::{lint_cfg, LintConfig};

/// One patched image and its CFG, with the undo record of the last
/// patch.
#[derive(Debug)]
pub struct LintSession<'a> {
    placed: &'a mut PlacedProgram,
    config: LintConfig,
    cfg: Cfg,
    undo: Option<(MicroAddr, Microword, String)>,
}

impl<'a> LintSession<'a> {
    /// Opens a session over `placed`, linted under `config`.
    pub fn new(placed: &'a mut PlacedProgram, config: LintConfig) -> Self {
        let cfg = Cfg::build(placed);
        LintSession {
            placed,
            config,
            cfg,
            undo: None,
        }
    }

    /// The image as currently patched.
    pub fn placed(&self) -> &PlacedProgram {
        self.placed
    }

    /// The CFG of the image as currently patched.
    pub fn cfg(&self) -> &Cfg {
        &self.cfg
    }

    /// The `(errors, warnings)` that
    /// [`lint_with_config`](crate::lint_with_config) reports on the
    /// current image.
    pub fn counts(&self) -> (usize, usize) {
        let report = lint_cfg(self.placed, &self.cfg, &self.config, Severity::Warning);
        (report.errors(), report.warnings())
    }

    /// Replaces the placer relay at `at` with `word`, a copy of
    /// instruction `inst` ([`PlacedProgram::fill_relay`]), in the image
    /// and the CFG.  The patch stays until the next `fill_relay`, or
    /// until [`revert`](LintSession::revert) undoes it.
    ///
    /// # Panics
    ///
    /// Panics if the slot at `at` does not hold a relay.
    pub fn fill_relay(&mut self, at: MicroAddr, word: Microword, inst: usize) {
        let SlotUse::Relay(target) = &self.placed.uses()[at.raw() as usize] else {
            panic!("LintSession::fill_relay at {at}: slot is not a relay");
        };
        self.undo = Some((at, self.placed.word(at), target.clone()));
        self.placed.fill_relay(at, word, inst);
        self.cfg.replace(at, word, false);
    }

    /// Undoes the last [`fill_relay`](LintSession::fill_relay), leaving
    /// the image and the CFG exactly as they were before it.
    ///
    /// # Panics
    ///
    /// Panics if there is no patch to undo.
    pub fn revert(&mut self) {
        let (at, word, target) = self
            .undo
            .take()
            .expect("LintSession::revert: no patch to undo");
        self.placed.unfill_relay(at, word, target);
        self.cfg.replace(at, word, true);
    }
}
