//! Counting/timing wrappers around the program's public traits. Every
//! per-layer number is taken here, from outside: nothing under `crates/`
//! knows it is being measured.

use rbcast_grid::NodeId;
use rbcast_net::journal::JournalError;
use rbcast_net::{Datagram, NetJournal, Record};
use rbcast_protocols::{ChainRepr, Msg};
use rbcast_sim::trace::{TraceEvent, TraceSink};
use rbcast_sim::{Ctx, Process};
use std::cell::{Cell, RefCell};
use std::rc::Rc;
use std::time::Instant;

/// One callback in [`CLOCK_STRIDE`] is clocked; the rest are only
/// counted. 17 is coprime to every fan-out the workloads have (8 at
/// r = 1, 24 at r = 2), so the sample walks through all positions of a
/// transmission's receiver list instead of aliasing onto one.
const CLOCK_STRIDE: u64 = 17;

/// What one `Instant::now()` … `elapsed()` pair reads with nothing in
/// between, in nanoseconds (median of many pairs, measured once). A
/// clocked callback of a few dozen nanoseconds would otherwise be
/// reported at twice its cost.
pub fn clock_overhead_ns() -> u64 {
    static OVERHEAD: std::sync::OnceLock<u64> = std::sync::OnceLock::new();
    *OVERHEAD.get_or_init(|| {
        let mut pairs: Vec<u64> = (0..10_001)
            .map(|_| {
                let start = Instant::now();
                u64::try_from(std::hint::black_box(start).elapsed().as_nanos()).unwrap_or(0)
            })
            .collect();
        pairs.sort_unstable();
        pairs[pairs.len() / 2]
    })
}

/// Calls counted, calls clocked, and nanoseconds inside the clocked
/// ones, for one kind of callback.
#[derive(Debug, Clone, Default)]
pub struct CallStat {
    calls: Cell<u64>,
    clocked: Cell<u64>,
    clocked_ns: Cell<u64>,
}

impl CallStat {
    pub fn calls(&self) -> u64 {
        self.calls.get()
    }

    /// Counts one call of `f`; clocks it if it is the stride's turn.
    #[inline]
    fn measure<R>(&self, f: impl FnOnce() -> R) -> R {
        let calls = self.calls.get() + 1;
        self.calls.set(calls);
        if !calls.is_multiple_of(CLOCK_STRIDE) {
            return f();
        }
        let start = Instant::now();
        let r = f();
        let ns = u64::try_from(start.elapsed().as_nanos()).unwrap_or(u64::MAX);
        self.clocked.set(self.clocked.get() + 1);
        self.clocked_ns
            .set(self.clocked_ns.get() + ns.saturating_sub(clock_overhead_ns()));
        r
    }

    /// Estimated seconds in all calls: the clocked calls' mean applied
    /// to every call.
    pub fn seconds(&self) -> f64 {
        if self.clocked.get() == 0 {
            return 0.0;
        }
        self.clocked_ns.get() as f64 * 1e-9 * self.calls.get() as f64 / self.clocked.get() as f64
    }
}

/// Callback statistics of the network being traced.
#[derive(Debug, Clone, Default)]
pub struct ProcessStats {
    pub on_start: CallStat,
    /// `on_message` by `Msg` kind: SOURCE, COMMITTED, HEARD.
    pub on_message: [CallStat; 3],
    pub on_round_end: CallStat,
}

impl ProcessStats {
    pub fn on_message_calls(&self) -> u64 {
        self.on_message.iter().map(CallStat::calls).sum()
    }

    pub fn on_message_seconds(&self) -> f64 {
        self.on_message.iter().map(CallStat::seconds).sum()
    }

    /// Estimated seconds inside protocol code, all callbacks.
    pub fn seconds(&self) -> f64 {
        self.on_start.seconds() + self.on_message_seconds() + self.on_round_end.seconds()
    }
}

thread_local! {
    /// One traced network runs at a time, on this thread, so its shims
    /// share their counters through a thread-local instead of carrying a
    /// pointer each: a shimmed process is then exactly as large as the
    /// bare one, and a million of them touch no more memory than
    /// untraced.
    static STATS: ProcessStats = const {
        const ZERO: CallStat = CallStat {
            calls: Cell::new(0),
            clocked: Cell::new(0),
            clocked_ns: Cell::new(0),
        };
        ProcessStats {
            on_start: ZERO,
            on_message: [ZERO; 3],
            on_round_end: ZERO,
        }
    };
}

/// Hands back what the shims counted since the last call and zeroes the
/// counters for the next network.
pub fn take_process_stats() -> ProcessStats {
    STATS.with(|stats| {
        let taken = stats.clone();
        for stat in [&stats.on_start, &stats.on_round_end]
            .into_iter()
            .chain(&stats.on_message)
        {
            stat.calls.set(0);
            stat.clocked.set(0);
            stat.clocked_ns.set(0);
        }
        taken
    })
}

/// Wraps one node's process: counts every callback, clocks a stride.
/// Generic over the wrapped type so the process sits inline — one box
/// and one dynamic dispatch per callback, as untraced.
pub struct ProcessShim<P>(pub P);

impl<P: Process<Msg>> Process<Msg> for ProcessShim<P> {
    fn on_start(&mut self, ctx: &mut Ctx<'_, Msg>) {
        STATS.with(|s| s.on_start.measure(|| self.0.on_start(ctx)));
    }

    fn on_message(&mut self, ctx: &mut Ctx<'_, Msg>, from: NodeId, msg: &Msg) {
        let kind = match msg {
            Msg::Source(_) => 0,
            Msg::Committed(_) => 1,
            Msg::Heard(_) => 2,
        };
        STATS.with(|s| s.on_message[kind].measure(|| self.0.on_message(ctx, from, msg)));
    }

    fn on_round_end(&mut self, ctx: &mut Ctx<'_, Msg>) {
        STATS.with(|s| s.on_round_end.measure(|| self.0.on_round_end(ctx)));
    }

    // Forwarded untouched: the sparse engine's frontier depends on it.
    fn needs_round_end(&self) -> bool {
        self.0.needs_round_end()
    }
}

/// The `HEARD` chains one sampled node received, kept for the packer
/// kernel.
pub type ChainCapture = Rc<RefCell<Vec<ChainRepr>>>;

/// Keeps a copy of every `HEARD` chain delivered to the wrapped
/// process. Only the few sampled nodes carry one.
pub struct Capture<P> {
    pub inner: P,
    pub chains: ChainCapture,
}

impl<P: Process<Msg>> Process<Msg> for Capture<P> {
    fn on_start(&mut self, ctx: &mut Ctx<'_, Msg>) {
        self.inner.on_start(ctx);
    }
    fn on_message(&mut self, ctx: &mut Ctx<'_, Msg>, from: NodeId, msg: &Msg) {
        if let Msg::Heard(chain) = msg {
            self.chains.borrow_mut().push(*chain);
        }
        self.inner.on_message(ctx, from, msg);
    }
    fn on_round_end(&mut self, ctx: &mut Ctx<'_, Msg>) {
        self.inner.on_round_end(ctx);
    }
    fn needs_round_end(&self) -> bool {
        self.inner.needs_round_end()
    }
}

/// A process whose concrete type is not public (the attackers come
/// boxed); wrapped as-is, at the cost of a second dispatch.
pub struct Opaque(pub Box<dyn Process<Msg>>);

impl Process<Msg> for Opaque {
    fn on_start(&mut self, ctx: &mut Ctx<'_, Msg>) {
        self.0.on_start(ctx);
    }
    fn on_message(&mut self, ctx: &mut Ctx<'_, Msg>, from: NodeId, msg: &Msg) {
        self.0.on_message(ctx, from, msg);
    }
    fn on_round_end(&mut self, ctx: &mut Ctx<'_, Msg>) {
        self.0.on_round_end(ctx);
    }
    fn needs_round_end(&self) -> bool {
        self.0.needs_round_end()
    }
}

/// What the [`RoundSink`] saw.
#[derive(Debug, Default)]
pub struct RoundLog {
    /// `(RoundStart, RoundEnd)` clock stamps per delivery round.
    pub rounds: Vec<(Instant, Instant)>,
    pub decisions: u64,
    open: Option<Instant>,
}

/// A [`TraceSink`] that stamps round boundaries with the wall clock and
/// counts decisions; every other event is dropped unread.
pub struct RoundSink(pub Rc<RefCell<RoundLog>>);

impl TraceSink for RoundSink {
    fn record(&mut self, event: &TraceEvent) {
        match event {
            TraceEvent::RoundStart { .. } => self.0.borrow_mut().open = Some(Instant::now()),
            TraceEvent::RoundEnd { .. } => {
                let now = Instant::now();
                let mut log = self.0.borrow_mut();
                let start = log.open.take().unwrap_or(now);
                log.rounds.push((start, now));
            }
            TraceEvent::Decision { .. } => self.0.borrow_mut().decisions += 1,
            _ => {}
        }
    }
}

/// Datagram and byte totals at one point of the send path, plus the
/// first datagrams seen (for the wire kernels).
#[derive(Debug, Default)]
pub struct WireTap {
    pub datagrams: Cell<u64>,
    pub bytes: Cell<u64>,
    pub sample: RefCell<Vec<Vec<u8>>>,
}

/// Datagrams kept per tap for the encode/decode kernels.
pub const WIRE_SAMPLE: usize = 4_096;

/// Counts what crosses a [`Datagram`] boundary on the way out. Placed
/// outside the chaos shim it sees what the link layer sent; placed
/// inside, what reached the loopback hub.
pub struct DatagramShim<T> {
    inner: T,
    tap: Rc<WireTap>,
}

impl<T: Datagram> DatagramShim<T> {
    pub fn new(inner: T, tap: &Rc<WireTap>) -> Self {
        DatagramShim {
            inner,
            tap: Rc::clone(tap),
        }
    }
}

impl<T: Datagram> Datagram for DatagramShim<T> {
    fn send(&mut self, to: u32, bytes: &[u8]) {
        self.tap.datagrams.set(self.tap.datagrams.get() + 1);
        self.tap
            .bytes
            .set(self.tap.bytes.get() + bytes.len() as u64);
        {
            let mut sample = self.tap.sample.borrow_mut();
            if sample.len() < WIRE_SAMPLE {
                sample.push(bytes.to_vec());
            }
        }
        self.inner.send(to, bytes);
    }

    fn poll(&mut self) -> Option<Vec<u8>> {
        self.inner.poll()
    }

    fn tick(&mut self, now: u64) {
        self.inner.tick(now);
    }
}

/// Append totals of every node's journal, plus the first records seen
/// (for the file-journal kernel).
#[derive(Debug, Default)]
pub struct JournalTap {
    pub appends: CallStat,
    pub sample: RefCell<Vec<Record>>,
}

/// Records kept for the `FileJournal` append kernel.
pub const JOURNAL_SAMPLE: usize = 2_000;

/// Counts every [`NetJournal::append`], clocks one in
/// [`CLOCK_STRIDE`].
pub struct JournalShim<J> {
    inner: J,
    tap: Rc<JournalTap>,
}

impl<J: NetJournal> JournalShim<J> {
    pub fn new(inner: J, tap: &Rc<JournalTap>) -> Self {
        JournalShim {
            inner,
            tap: Rc::clone(tap),
        }
    }
}

impl<J: NetJournal> NetJournal for JournalShim<J> {
    fn append(&mut self, record: &Record) {
        let inner = &mut self.inner;
        self.tap.appends.measure(|| inner.append(record));
        if self.tap.appends.calls() as usize <= JOURNAL_SAMPLE {
            self.tap.sample.borrow_mut().push(record.clone());
        }
    }

    fn records(&self) -> Result<Vec<Record>, JournalError> {
        self.inner.records()
    }
}
