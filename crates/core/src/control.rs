//! The control section (§6.2): task-specific program counters, subroutine
//! linkage, and the task arbitration pipeline.

use dorado_base::snap::{Io, SnapError, Snapshot};
use dorado_base::task::TaskSet;
use dorado_base::{MicroAddr, TaskId, NUM_TASKS};

/// How wakeup removal is signalled to devices — the §6.2.1 design choice.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum TaskingMode {
    /// The shipped design: NEXT is broadcast to all devices, which drop
    /// their wakeups on seeing their task number.  Grain of allocation:
    /// two cycles.
    #[default]
    OnDemand,
    /// The "simpler design" ablation: "the microcode \[must\] explicitly
    /// notify its device when the wakeup should be removed" (`IoNotify`).
    /// NEXT is not broadcast; the grain becomes three cycles.
    NotifyGrain3,
}

/// The first (arbitration) stage's output registers: BESTNEXTTASK and
/// BESTNEXTPC (§6.2.1).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Stage1 {
    /// The highest-priority requesting task.
    pub task: TaskId,
    /// That task's TPC, read in advance.
    pub pc: MicroAddr,
}

/// The control section state.
#[derive(Debug, Clone)]
pub struct ControlSection {
    /// Task-specific program counters (§5.3, §6.2.2).
    pub tpc: [MicroAddr; NUM_TASKS],
    /// Task-specific subroutine linkage registers (§6.2.3).
    pub link: [MicroAddr; NUM_TASKS],
    /// READY: preempted and explicitly readied tasks (§6.2.1).
    pub ready: TaskSet,
    /// The task whose instruction executes this cycle (THISTASK).
    pub this_task: TaskId,
    /// The address of the instruction executing this cycle (THISPC).
    pub this_pc: MicroAddr,
    /// The arbitration-stage output latched last cycle.
    pub stage1: Stage1,
}

impl Default for ControlSection {
    fn default() -> Self {
        Self::new()
    }
}

impl ControlSection {
    /// A reset control section: all TPCs at 0, task 0 running from 0.
    pub fn new() -> Self {
        ControlSection {
            tpc: [MicroAddr::new(0); NUM_TASKS],
            link: [MicroAddr::new(0); NUM_TASKS],
            ready: TaskSet::EMPTY,
            this_task: TaskId::EMULATOR,
            this_pc: MicroAddr::new(0),
            stage1: Stage1 {
                task: TaskId::EMULATOR,
                pc: MicroAddr::new(0),
            },
        }
    }

    /// Latches the arbitration stage: priority-encode the requests and read
    /// the winner's TPC (the first pipe stage of Figure 3).  `requests`
    /// must already include task 0 (which "requests service from the
    /// processor at all times", §5.1).
    ///
    /// # Panics
    ///
    /// Panics if `requests` is empty.
    pub fn arbitrate(&mut self, requests: TaskSet) {
        let best = requests
            .highest()
            .expect("task 0 always requests the processor");
        self.stage1 = Stage1 {
            task: best,
            pc: self.tpc[best.index()],
        };
    }

    /// The NEXT computation (second pipe stage): "The NEXT bus normally
    /// gets the larger of BESTNEXTTASK and THISTASK"; Block "indicate\[s\]
    /// that NEXT should get BESTNEXTTASK unconditionally" (§6.2.1).
    pub fn next_task(&self, block: bool) -> TaskId {
        if block || self.stage1.task > self.this_task {
            self.stage1.task
        } else {
            self.this_task
        }
    }
}

/// Walks a microstore address as its raw 12 bits.
fn walk_addr(io: &mut Io<'_>, a: &mut MicroAddr) -> Result<(), SnapError> {
    let mut raw = a.raw();
    io.u16(&mut raw)?;
    *a = MicroAddr::new(raw);
    Ok(())
}

impl Snapshot for ControlSection {
    fn walk(&mut self, io: &mut Io<'_>) -> Result<(), SnapError> {
        io.tag(b"CTRL")?;
        for pc in self.tpc.iter_mut().chain(&mut self.link) {
            walk_addr(io, pc)?;
        }
        let mut ready = self.ready.bits();
        io.u16(&mut ready)?;
        self.ready = TaskSet::from_bits(ready);
        io.task(&mut self.this_task)?;
        walk_addr(io, &mut self.this_pc)?;
        io.task(&mut self.stage1.task)?;
        walk_addr(io, &mut self.stage1.pc)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn requests(tasks: &[u8]) -> TaskSet {
        let mut s: TaskSet = tasks.iter().map(|&t| TaskId::new(t)).collect();
        s.insert(TaskId::EMULATOR);
        s
    }

    #[test]
    fn arbitrate_picks_highest() {
        let mut c = ControlSection::new();
        c.tpc[11] = MicroAddr::new(0o1234);
        c.arbitrate(requests(&[3, 11, 7]));
        assert_eq!(c.stage1.task, TaskId::new(11));
        assert_eq!(c.stage1.pc, MicroAddr::new(0o1234));
    }

    #[test]
    fn next_prefers_higher_priority() {
        let mut c = ControlSection::new();
        c.this_task = TaskId::new(5);
        c.arbitrate(requests(&[3]));
        // Best (3) is lower than running (5): keep running.
        assert_eq!(c.next_task(false), TaskId::new(5));
        // Unless the running task blocks.
        assert_eq!(c.next_task(true), TaskId::new(3));
        // A higher-priority request preempts.
        c.arbitrate(requests(&[9]));
        assert_eq!(c.next_task(false), TaskId::new(9));
    }

    #[test]
    fn emulator_runs_when_nothing_else_wants_to() {
        let mut c = ControlSection::new();
        c.this_task = TaskId::new(5);
        c.arbitrate(requests(&[]));
        assert_eq!(c.next_task(true), TaskId::EMULATOR);
    }

    #[test]
    #[should_panic(expected = "task 0")]
    fn empty_requests_panic() {
        ControlSection::new().arbitrate(TaskSet::EMPTY);
    }
}
