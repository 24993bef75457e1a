//! Per-layer tracing from outside the STMs.
//!
//! [`Traced`] implements [`TmAlgorithm`] by delegating every call to a real
//! STM, and [`TracedCm`] implements [`ContentionManager`] by delegating to
//! the STM's own default manager, which is passed in through the STM's
//! builder. Neither changes what the STM does; they only count calls and
//! time some of them.
//!
//! Every `TmAlgorithm` call is counted. Only a sample of transaction
//! attempts is timed: the choice is made at `begin`, and a timed attempt
//! times each of its algorithm calls and its whole span, from the start of
//! `begin` to the end of the successful `commit` or of `rollback`. The
//! attempt's self time (workload code plus `TmHeap` allocation) is that
//! span minus its algorithm calls. `resolve` calls are rare and always
//! timed.
//!
//! Counters live in the per-thread descriptor and in per-slot contention
//! manager records, so no lock is taken on the traced path. A descriptor
//! adds its counters to the shared [`Sink`] when it is dropped, which
//! happens when its thread's `ThreadContext` ends.

use std::sync::{Arc, Mutex};
use std::time::Instant;

use stm_core::clock::{ThreadRegistry, ThreadSlot, TxShared, MAX_THREADS};
use stm_core::cm::{CmHandle, ContentionManager, Resolution};
use stm_core::error::TxResult;
use stm_core::heap::TmHeap;
use stm_core::pad::CachePadded;
use stm_core::sync::{AtomicBool, AtomicU64, Ordering};
use stm_core::tm::{DescriptorCore, TmAlgorithm, TxDescriptor};
use stm_core::word::{Addr, Word};

/// One in `SAMPLE_PERIOD` attempts is timed (a power of two).
pub const SAMPLE_PERIOD: u64 = 32;

/// Counters of the `stm_core::tm` and algorithm layers, summed over
/// threads. Times are raw nanoseconds of timed attempts: each timed
/// interval still contains the cost of one clock read, which
/// [`LayerCounts::corrected`] removes.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct LayerCounts {
    pub begins: u64,
    pub reads: u64,
    pub read_aborts: u64,
    pub writes: u64,
    pub write_aborts: u64,
    pub commit_calls: u64,
    pub commit_aborts: u64,
    pub rollbacks: u64,
    /// Timed attempts and the calls made inside them.
    pub timed_attempts: u64,
    pub timed_reads: u64,
    pub timed_writes: u64,
    pub timed_commits: u64,
    pub timed_rollbacks: u64,
    pub begin_ns: u64,
    pub read_ns: u64,
    pub write_ns: u64,
    pub commit_ns: u64,
    pub rollback_ns: u64,
    /// Span of timed attempts that aborted, and the timed calls in them.
    pub wasted_ns: u64,
    pub wasted_calls: u64,
    pub wasted_attempts: u64,
    /// Span of timed attempts minus their algorithm calls, summed over
    /// attempts that ended; `ended_calls` counts the timed calls in them.
    pub body_self_ns: u64,
    pub ended_attempts: u64,
    pub ended_calls: u64,
}

impl LayerCounts {
    /// Adds `other` field by field.
    pub fn add(&mut self, other: &LayerCounts) {
        let LayerCounts {
            begins,
            reads,
            read_aborts,
            writes,
            write_aborts,
            commit_calls,
            commit_aborts,
            rollbacks,
            timed_attempts,
            timed_reads,
            timed_writes,
            timed_commits,
            timed_rollbacks,
            begin_ns,
            read_ns,
            write_ns,
            commit_ns,
            rollback_ns,
            wasted_ns,
            wasted_calls,
            wasted_attempts,
            body_self_ns,
            ended_attempts,
            ended_calls,
        } = other;
        self.begins += begins;
        self.reads += reads;
        self.read_aborts += read_aborts;
        self.writes += writes;
        self.write_aborts += write_aborts;
        self.commit_calls += commit_calls;
        self.commit_aborts += commit_aborts;
        self.rollbacks += rollbacks;
        self.timed_attempts += timed_attempts;
        self.timed_reads += timed_reads;
        self.timed_writes += timed_writes;
        self.timed_commits += timed_commits;
        self.timed_rollbacks += timed_rollbacks;
        self.begin_ns += begin_ns;
        self.read_ns += read_ns;
        self.write_ns += write_ns;
        self.commit_ns += commit_ns;
        self.rollback_ns += rollback_ns;
        self.wasted_ns += wasted_ns;
        self.wasted_calls += wasted_calls;
        self.wasted_attempts += wasted_attempts;
        self.body_self_ns += body_self_ns;
        self.ended_attempts += ended_attempts;
        self.ended_calls += ended_calls;
    }

    /// Attempts that committed.
    pub fn commits(&self) -> u64 {
        self.commit_calls - self.commit_aborts
    }

    /// The times with the clock-read cost taken out.
    ///
    /// A timed attempt with `k` timed calls reads the clock `2k` times; the
    /// `2k - 1` intervals between consecutive reads (the `k` calls and the
    /// `k - 1` gaps between them) each contain the cost of one read,
    /// `clock_ns`. Each corrected time is clamped at zero.
    pub fn corrected(&self, clock_ns: f64) -> CorrectedTimes {
        let less = |raw: u64, intervals: u64| (raw as f64 - intervals as f64 * clock_ns).max(0.0);
        CorrectedTimes {
            begin_ns: less(self.begin_ns, self.timed_attempts),
            read_ns: less(self.read_ns, self.timed_reads),
            write_ns: less(self.write_ns, self.timed_writes),
            commit_ns: less(self.commit_ns, self.timed_commits),
            rollback_ns: less(self.rollback_ns, self.timed_rollbacks),
            wasted_ns: less(self.wasted_ns, 2 * self.wasted_calls - self.wasted_attempts),
            body_self_ns: less(self.body_self_ns, self.ended_calls - self.ended_attempts),
        }
    }
}

/// Times of [`LayerCounts`] without the clock-read cost, in nanoseconds.
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub struct CorrectedTimes {
    pub begin_ns: f64,
    pub read_ns: f64,
    pub write_ns: f64,
    pub commit_ns: f64,
    pub rollback_ns: f64,
    pub wasted_ns: f64,
    pub body_self_ns: f64,
}

impl CorrectedTimes {
    /// Time inside algorithm calls.
    pub fn algo_ns(&self) -> f64 {
        self.begin_ns + self.read_ns + self.write_ns + self.commit_ns + self.rollback_ns
    }
}

/// The mean cost of one `Instant::now()`, measured as the mean interval
/// between back-to-back reads.
pub fn clock_read_ns() -> f64 {
    const READS: u32 = 200_000;
    let start = Instant::now();
    let mut last = start;
    for _ in 0..READS {
        last = std::hint::black_box(Instant::now());
    }
    nanos(last - start) as f64 / f64::from(READS)
}

/// Where descriptors leave their counters.
#[derive(Debug, Default)]
pub struct Sink {
    counts: Mutex<LayerCounts>,
    recording: AtomicBool,
}

impl Sink {
    fn add(&self, counts: &LayerCounts) {
        // sync: Relaxed — the flag changes only while no worker runs: it is
        // set before the driver spawns a window's workers and cleared after
        // it joins them, and spawn and join order it; the counts travel
        // under the mutex.
        if self.recording.load(Ordering::Relaxed) {
            // A poisoned sink only means another flush panicked; the
            // counts are plain sums and stay meaningful.
            let mut sum = self.counts.lock().unwrap_or_else(|e| e.into_inner());
            sum.add(counts);
        }
    }
}

/// Per-thread tracing state, wrapped around the STM's own descriptor.
pub struct TracedDesc<D> {
    inner: D,
    sink: Arc<Sink>,
    counts: LayerCounts,
    /// xorshift state choosing the timed attempts.
    sampler: u64,
    /// The current attempt's timing, when it is timed.
    timed: Option<Timing>,
}

/// Timing of one attempt: its start, and its algorithm time and timed
/// calls so far.
struct Timing {
    start: Instant,
    algo_ns: u64,
    calls: u64,
}

impl<D> TracedDesc<D> {
    fn choose_sample(&mut self) -> bool {
        let mut x = self.sampler;
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        self.sampler = x;
        x % SAMPLE_PERIOD == 0
    }

    /// Times `call` if the attempt is timed, returning its result and, if
    /// timed, its duration and end.
    #[inline]
    fn call<T>(&mut self, call: impl FnOnce(&mut D) -> T) -> (T, Option<(u64, Instant)>) {
        let start = self.timed.is_some().then(Instant::now);
        let result = call(&mut self.inner);
        let timing = start.map(|start| {
            let end = Instant::now();
            let ns = nanos(end - start);
            if let Some(t) = self.timed.as_mut() {
                t.algo_ns += ns;
                t.calls += 1;
            }
            (ns, end)
        });
        (result, timing)
    }

    /// Ends a timed attempt at `end`; `aborted` attempts count as wasted.
    fn end_attempt(&mut self, end: Instant, aborted: bool) {
        if let Some(t) = self.timed.take() {
            let span = nanos(end - t.start);
            self.counts.body_self_ns += span.saturating_sub(t.algo_ns);
            self.counts.ended_attempts += 1;
            self.counts.ended_calls += t.calls;
            if aborted {
                self.counts.wasted_ns += span;
                self.counts.wasted_calls += t.calls;
                self.counts.wasted_attempts += 1;
            }
        }
    }
}

impl<D> Drop for TracedDesc<D> {
    fn drop(&mut self) {
        self.sink.add(&self.counts);
    }
}

impl<D: TxDescriptor> TxDescriptor for TracedDesc<D> {
    fn core(&self) -> &DescriptorCore {
        self.inner.core()
    }

    fn core_mut(&mut self) -> &mut DescriptorCore {
        self.inner.core_mut()
    }

    fn is_read_only(&self) -> bool {
        self.inner.is_read_only()
    }
}

fn nanos(d: std::time::Duration) -> u64 {
    u64::try_from(d.as_nanos()).unwrap_or(u64::MAX)
}

/// A [`TmAlgorithm`] that delegates to `A` and records per-layer counters.
pub struct Traced<A> {
    inner: A,
    sink: Arc<Sink>,
    cm: Arc<TracedCm>,
}

impl<A: TmAlgorithm> Traced<A> {
    /// Wraps `inner`, which must have been built with `cm` as its
    /// contention manager.
    pub fn new(inner: A, cm: Arc<TracedCm>) -> Self {
        Traced {
            inner,
            sink: Arc::new(Sink::default()),
            cm,
        }
    }
}

/// Start and stop of per-layer recording, so a traced STM can be driven
/// behind `dyn`.
pub trait LayerTap: Send + Sync {
    /// Clears every counter and starts recording the descriptors that end
    /// from now on.
    fn start_recording(&self);
    /// Stops recording; descriptors ending later (such as the post-run
    /// checker's) are not counted.
    fn stop_recording(&self);
    /// The counters recorded since `start_recording`, and the contention
    /// manager's `(resolve calls, resolve nanoseconds)`.
    fn take(&self) -> (LayerCounts, (u64, u64));
}

impl<A: TmAlgorithm> LayerTap for Traced<A> {
    fn start_recording(&self) {
        *self.sink.counts.lock().unwrap_or_else(|e| e.into_inner()) = LayerCounts::default();
        self.cm.take();
        // sync: Relaxed — see `Sink::add`.
        self.sink.recording.store(true, Ordering::Relaxed);
    }

    fn stop_recording(&self) {
        // sync: Relaxed — see `Sink::add`.
        self.sink.recording.store(false, Ordering::Relaxed);
    }

    fn take(&self) -> (LayerCounts, (u64, u64)) {
        let counts =
            std::mem::take(&mut *self.sink.counts.lock().unwrap_or_else(|e| e.into_inner()));
        (counts, self.cm.take())
    }
}

impl<A: TmAlgorithm> TmAlgorithm for Traced<A> {
    type Descriptor = TracedDesc<A::Descriptor>;

    fn name(&self) -> &'static str {
        self.inner.name()
    }

    fn heap(&self) -> &TmHeap {
        self.inner.heap()
    }

    fn registry(&self) -> &ThreadRegistry {
        self.inner.registry()
    }

    fn contention_manager(&self) -> &dyn ContentionManager {
        self.inner.contention_manager()
    }

    fn create_descriptor(&self, slot: ThreadSlot) -> Self::Descriptor {
        TracedDesc {
            inner: self.inner.create_descriptor(slot),
            sink: Arc::clone(&self.sink),
            counts: LayerCounts::default(),
            sampler: 0x9e37_79b9_7f4a_7c15 ^ (slot.index() as u64 + 1),
            timed: None,
        }
    }

    fn begin(&self, desc: &mut Self::Descriptor, is_restart: bool) {
        desc.counts.begins += 1;
        desc.timed = desc.choose_sample().then(|| Timing {
            start: Instant::now(),
            algo_ns: 0,
            calls: 0,
        });
        let start = desc.timed.as_ref().map(|t| t.start);
        self.inner.begin(&mut desc.inner, is_restart);
        if let (Some(start), Some(t)) = (start, desc.timed.as_mut()) {
            let ns = nanos(start.elapsed());
            t.algo_ns = ns;
            t.calls = 1;
            desc.counts.timed_attempts += 1;
            desc.counts.begin_ns += ns;
        }
    }

    fn read(&self, desc: &mut Self::Descriptor, addr: Addr) -> TxResult<Word> {
        desc.counts.reads += 1;
        let (result, timing) = desc.call(|d| self.inner.read(d, addr));
        if let Some((ns, _)) = timing {
            desc.counts.timed_reads += 1;
            desc.counts.read_ns += ns;
        }
        desc.counts.read_aborts += u64::from(result.is_err());
        result
    }

    fn write(&self, desc: &mut Self::Descriptor, addr: Addr, value: Word) -> TxResult<()> {
        desc.counts.writes += 1;
        let (result, timing) = desc.call(|d| self.inner.write(d, addr, value));
        if let Some((ns, _)) = timing {
            desc.counts.timed_writes += 1;
            desc.counts.write_ns += ns;
        }
        desc.counts.write_aborts += u64::from(result.is_err());
        result
    }

    fn commit(&self, desc: &mut Self::Descriptor) -> TxResult<()> {
        desc.counts.commit_calls += 1;
        let (result, timing) = desc.call(|d| self.inner.commit(d));
        if let Some((ns, end)) = timing {
            desc.counts.timed_commits += 1;
            desc.counts.commit_ns += ns;
            if result.is_ok() {
                desc.end_attempt(end, false);
            }
        }
        desc.counts.commit_aborts += u64::from(result.is_err());
        result
    }

    fn rollback(&self, desc: &mut Self::Descriptor) {
        desc.counts.rollbacks += 1;
        let ((), timing) = desc.call(|d| self.inner.rollback(d));
        if let Some((ns, end)) = timing {
            desc.counts.timed_rollbacks += 1;
            desc.counts.rollback_ns += ns;
            desc.end_attempt(end, true);
        }
    }
}

/// Per-slot contention-manager counters, written only by the slot's thread.
#[derive(Debug, Default)]
struct CmSlot {
    resolves: AtomicU64,
    resolve_ns: AtomicU64,
}

/// A [`ContentionManager`] that delegates to a real manager and counts and
/// times its `resolve` calls.
#[derive(Debug)]
pub struct TracedCm {
    inner: CmHandle,
    slots: Box<[CachePadded<CmSlot>]>,
}

impl TracedCm {
    /// Wraps `inner`.
    pub fn new(inner: CmHandle) -> Self {
        TracedCm {
            inner,
            slots: (0..MAX_THREADS).map(|_| CachePadded::default()).collect(),
        }
    }

    /// Returns `(resolve calls, resolve nanoseconds)` summed over threads
    /// and clears them. Call only while no transaction runs.
    fn take(&self) -> (u64, u64) {
        self.slots.iter().fold((0, 0), |(calls, ns), slot| {
            // sync: Relaxed — the recording threads were joined before this.
            let c = slot.resolves.swap(0, Ordering::Relaxed);
            // sync: Relaxed — as above.
            let n = slot.resolve_ns.swap(0, Ordering::Relaxed);
            (calls + c, ns + n)
        })
    }
}

impl ContentionManager for TracedCm {
    fn on_start(&self, me: &TxShared, is_restart: bool) {
        self.inner.on_start(me, is_restart);
    }

    fn on_write(&self, me: &TxShared, writes_so_far: usize) {
        self.inner.on_write(me, writes_so_far);
    }

    fn on_read(&self, me: &TxShared, reads_so_far: usize) {
        self.inner.on_read(me, reads_so_far);
    }

    fn resolve(&self, me: &TxShared, owner: &TxShared) -> Resolution {
        let start = Instant::now();
        let resolution = self.inner.resolve(me, owner);
        let ns = nanos(start.elapsed());
        let slot = &self.slots[me.slot().index()];
        // sync: Relaxed — statistics only; read after the threads join.
        slot.resolves.fetch_add(1, Ordering::Relaxed);
        // sync: Relaxed — as above.
        slot.resolve_ns.fetch_add(ns, Ordering::Relaxed);
        resolution
    }

    fn on_rollback(&self, me: &TxShared) {
        self.inner.on_rollback(me);
    }

    fn on_commit(&self, me: &TxShared) {
        self.inner.on_commit(me);
    }

    fn name(&self) -> &'static str {
        self.inner.name()
    }
}
