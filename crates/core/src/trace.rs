//! Cycle-stamped execution traces, in the spirit of the microprogram
//! debugger the real machine was controlled with.
//!
//! Tracing is off by default and costs nothing when off (the machine's
//! per-cycle work is gated on the tracer being present).  When on, events
//! land in a fixed-capacity ring buffer: a long run keeps its *last* N
//! cycles, which is what a debugger wants when the interesting part is
//! just before the stop.  The buffer exports as JSONL (one event per
//! line, stable keys) for offline tooling, or as a human-readable dump.

use dorado_base::{HoldCause, MicroAddr, TaskId};

/// How the cache answered a reference started by the traced instruction.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum CacheOutcome {
    /// The instruction started no cache reference.
    #[default]
    None,
    /// The reference hit in the cache.
    Hit,
    /// The reference went to storage.
    Miss,
}

impl CacheOutcome {
    /// A short stable name (`"hit"`, `"miss"`, `"none"`).
    pub fn name(self) -> &'static str {
        match self {
            CacheOutcome::None => "none",
            CacheOutcome::Hit => "hit",
            CacheOutcome::Miss => "miss",
        }
    }
}

/// One cycle of execution, as recorded when tracing is enabled.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TraceEvent {
    /// The cycle number (from machine reset).
    pub cycle: u64,
    /// The task whose instruction occupied the cycle.
    pub task: TaskId,
    /// The instruction's microstore address.
    pub addr: MicroAddr,
    /// Why the instruction was held, if it was.
    pub held: Option<HoldCause>,
    /// The task selected to execute in the following cycle.
    pub next_task: TaskId,
    /// Cache outcome of any reference the instruction started.
    pub cache: CacheOutcome,
    /// Whether the §5.6 bypass hardware forwarded this instruction's
    /// RESULT to its register sinks immediately (always `false` when the
    /// instruction was held, wrote no register, or the machine runs in
    /// the Model-0 no-bypass configuration).
    pub bypass: bool,
}

impl TraceEvent {
    /// One JSON object, on one line, with stable keys.
    pub fn to_json(&self) -> String {
        format!(
            "{{\"cycle\":{},\"task\":{},\"addr\":{},\"held\":{},\"next_task\":{},\"cache\":\"{}\",\"bypass\":{}}}",
            self.cycle,
            self.task.number(),
            self.addr.raw(),
            match self.held {
                Some(cause) => format!("\"{}\"", cause.name()),
                None => "null".to_string(),
            },
            self.next_task.number(),
            self.cache.name(),
            self.bypass,
        )
    }
}

impl std::fmt::Display for TraceEvent {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "[{:>8}] {} @{}{}{}{}{}",
            self.cycle,
            self.task,
            self.addr,
            match self.held {
                Some(cause) => format!(" HELD({cause})"),
                None => String::new(),
            },
            match self.cache {
                CacheOutcome::None => String::new(),
                c => format!(" cache:{}", c.name()),
            },
            if self.bypass { " bypass" } else { "" },
            if self.next_task != self.task {
                format!(" -> {}", self.next_task)
            } else {
                String::new()
            }
        )
    }
}

/// A fixed-capacity ring buffer of [`TraceEvent`]s: always keeps the most
/// recent `capacity` events, counting what it had to drop.
#[derive(Debug, Clone)]
pub struct Tracer {
    buf: Vec<TraceEvent>,
    /// Index of the oldest event once the buffer has wrapped.
    head: usize,
    capacity: usize,
    dropped: u64,
}

impl Tracer {
    /// Creates a tracer keeping the last `capacity` events.
    ///
    /// # Panics
    ///
    /// Panics if `capacity` is zero.
    pub fn new(capacity: usize) -> Self {
        assert!(capacity > 0, "tracer capacity must be positive");
        Tracer {
            buf: Vec::with_capacity(capacity.min(1 << 20)),
            head: 0,
            capacity,
            dropped: 0,
        }
    }

    /// Records one event, evicting the oldest once full.
    pub fn record(&mut self, event: TraceEvent) {
        if self.buf.len() < self.capacity {
            self.buf.push(event);
        } else {
            self.buf[self.head] = event;
            self.head = (self.head + 1) % self.capacity;
            self.dropped += 1;
        }
    }

    /// Events currently retained.
    pub fn len(&self) -> usize {
        self.buf.len()
    }

    /// Whether no events are retained.
    pub fn is_empty(&self) -> bool {
        self.buf.is_empty()
    }

    /// The retention capacity.
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// Events evicted because the buffer was full.
    pub fn dropped(&self) -> u64 {
        self.dropped
    }

    /// The retained events, oldest first.
    pub fn events(&self) -> impl Iterator<Item = &TraceEvent> {
        let (wrapped, start) = self.buf.split_at(self.head);
        start.iter().chain(wrapped.iter())
    }

    /// Drains the retained events (oldest first), leaving the tracer
    /// empty but enabled.
    pub fn take(&mut self) -> Vec<TraceEvent> {
        let events: Vec<TraceEvent> = self.events().copied().collect();
        self.buf.clear();
        self.head = 0;
        events
    }

    /// The retained events as JSONL: one JSON object per line.
    pub fn to_jsonl(&self) -> String {
        let mut out = String::new();
        for e in self.events() {
            out.push_str(&e.to_json());
            out.push('\n');
        }
        out
    }

    /// Writes the retained events as JSONL.
    ///
    /// # Errors
    ///
    /// Propagates I/O errors from `w`.
    pub fn write_jsonl<W: std::io::Write>(&self, w: &mut W) -> std::io::Result<()> {
        for e in self.events() {
            writeln!(w, "{}", e.to_json())?;
        }
        Ok(())
    }
}

impl std::fmt::Display for Tracer {
    /// A human-readable dump: one event per line, plus a header noting
    /// any eviction.
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        writeln!(
            f,
            "trace: {} event(s), capacity {}{}",
            self.len(),
            self.capacity,
            if self.dropped > 0 {
                format!(", {} older dropped", self.dropped)
            } else {
                String::new()
            }
        )?;
        for e in self.events() {
            writeln!(f, "{e}")?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn event(cycle: u64) -> TraceEvent {
        TraceEvent {
            cycle,
            task: TaskId::EMULATOR,
            addr: MicroAddr::new(cycle as u16),
            held: None,
            next_task: TaskId::EMULATOR,
            cache: CacheOutcome::None,
            bypass: false,
        }
    }

    #[test]
    fn display_shows_switches_and_holds() {
        let e = TraceEvent {
            cycle: 5,
            task: TaskId::EMULATOR,
            addr: MicroAddr::new(0o100),
            held: None,
            next_task: TaskId::new(11),
            cache: CacheOutcome::Hit,
            bypass: true,
        };
        let s = format!("{e}");
        assert!(s.contains("task0") && s.contains("-> task11"), "{s}");
        assert!(s.contains("cache:hit") && s.contains("bypass"), "{s}");
        let e = TraceEvent {
            held: Some(HoldCause::MemData),
            next_task: TaskId::EMULATOR,
            cache: CacheOutcome::None,
            bypass: false,
            ..e
        };
        let s = format!("{e}");
        assert!(s.contains("HELD"), "{s}");
        assert!(!s.contains("->"), "{s}");
    }

    #[test]
    fn ring_keeps_the_most_recent_events() {
        let mut t = Tracer::new(3);
        for c in 0..5 {
            t.record(event(c));
        }
        assert_eq!(t.len(), 3);
        assert_eq!(t.dropped(), 2);
        let cycles: Vec<u64> = t.events().map(|e| e.cycle).collect();
        assert_eq!(cycles, vec![2, 3, 4]);
    }

    #[test]
    fn take_drains_in_order_and_resets() {
        let mut t = Tracer::new(2);
        for c in 0..3 {
            t.record(event(c));
        }
        let taken = t.take();
        assert_eq!(
            taken.iter().map(|e| e.cycle).collect::<Vec<_>>(),
            vec![1, 2]
        );
        assert!(t.is_empty());
        t.record(event(9));
        assert_eq!(t.events().next().unwrap().cycle, 9);
    }

    #[test]
    fn jsonl_is_one_valid_object_per_line() {
        let mut t = Tracer::new(4);
        t.record(TraceEvent {
            held: Some(HoldCause::IfuDispatch),
            cache: CacheOutcome::Miss,
            ..event(7)
        });
        t.record(event(8));
        let text = t.to_jsonl();
        let lines: Vec<&str> = text.lines().collect();
        assert_eq!(lines.len(), 2);
        assert!(lines[0].starts_with('{') && lines[0].ends_with('}'));
        assert!(
            lines[0].contains("\"held\":\"ifu-dispatch\""),
            "{}",
            lines[0]
        );
        assert!(lines[0].contains("\"cache\":\"miss\""), "{}", lines[0]);
        assert!(lines[1].contains("\"held\":null"), "{}", lines[1]);
        let mut sink = Vec::new();
        t.write_jsonl(&mut sink).unwrap();
        assert_eq!(String::from_utf8(sink).unwrap(), text);
    }

    #[test]
    fn tracer_display_dumps_events() {
        let mut t = Tracer::new(2);
        for c in 0..4 {
            t.record(event(c));
        }
        let s = format!("{t}");
        assert!(s.contains("2 event(s)"), "{s}");
        assert!(s.contains("2 older dropped"), "{s}");
    }

    #[test]
    #[should_panic(expected = "capacity")]
    fn zero_capacity_is_rejected() {
        let _ = Tracer::new(0);
    }
}
