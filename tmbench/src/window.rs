//! Measured windows: one STM instance with its workload, driven
//! closed-loop through `stm_workloads::driver::run_workload_spec` for a
//! fixed duration and checked afterwards.

use std::cell::Cell;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

use stm_core::backoff::FastRng;
use stm_core::clock::MAX_THREADS;
use stm_core::pad::CachePadded;
use stm_core::sync::{AtomicU64, Ordering};
use stm_core::tm::{ThreadContext, TmAlgorithm};
use stm_workloads::driver::{run_workload_spec, RunLength, RunSpec};
use stm_workloads::Workload;

use crate::hist::{Histogram, Recorder};
use crate::trace::{LayerCounts, LayerTap};
use crate::workloads::{setup, Fingerprint, OutsideCheck, Prepared, Scale, WorkloadKind};

/// Worker threads per window.
pub const THREADS: usize = 2;

thread_local! {
    /// Index of the driver worker running on this thread.
    static WORKER: Cell<usize> = const { Cell::new(usize::MAX) };
}

#[derive(Default)]
struct WorkerRecord {
    latency: Recorder,
    started: AtomicU64,
}

/// Wraps the workload: times every `execute`, counts started operations,
/// and runs the post-run checks, keeping their verdict instead of letting
/// the driver panic on it.
struct Timed<A: TmAlgorithm> {
    inner: Arc<dyn Workload<A>>,
    outside_check: Option<OutsideCheck>,
    tap: Option<Arc<dyn LayerTap>>,
    workers: Vec<CachePadded<WorkerRecord>>,
    /// Operations completed on this data set by earlier windows.
    ops_before: AtomicU64,
    verdict: Mutex<Option<Result<(), String>>>,
}

impl<A: TmAlgorithm> Workload<A> for Timed<A> {
    fn execute(&self, ctx: &mut ThreadContext<A>, rng: &mut FastRng, op_index: u64) {
        let record = &self.workers[WORKER.with(Cell::get)];
        // sync: Relaxed — single writer; read after the worker is joined.
        let started = record.started.load(Ordering::Relaxed);
        // sync: Relaxed — as above.
        record.started.store(started + 1, Ordering::Relaxed);
        let start = Instant::now();
        self.inner.execute(ctx, rng, op_index);
        let ns = start.elapsed().as_nanos();
        record.latency.record(u64::try_from(ns).unwrap_or(u64::MAX));
    }

    fn name(&self) -> String {
        self.inner.name()
    }

    fn check(&self, ctx: &mut ThreadContext<A>) -> bool {
        if let Some(tap) = &self.tap {
            tap.stop_recording();
        }
        let verdict = if !self.inner.check(ctx) {
            Err(format!(
                "{} failed its consistency check",
                self.inner.name()
            ))
        } else if let Some(outside_check) = &self.outside_check {
            // sync: Relaxed — the workers were joined before the check, and
            // `ops_before` is only touched between windows.
            let ops = self.ops_before.load(Ordering::Relaxed)
                + self
                    .workers
                    .iter()
                    // sync: Relaxed — as above.
                    .map(|w| w.started.load(Ordering::Relaxed))
                    .sum::<u64>();
            outside_check.check(ctx, ops)
        } else {
            Ok(())
        };
        *self.verdict.lock().expect("verdict lock poisoned") = Some(verdict);
        true
    }

    fn on_thread_start(&self, thread_index: usize) {
        assert!(
            thread_index < self.workers.len(),
            "more workers than records"
        );
        WORKER.with(|w| w.set(thread_index));
        self.inner.on_thread_start(thread_index);
    }
}

/// The outcome of one window.
#[derive(Debug, Default)]
pub struct Window {
    /// Operations started.
    pub attempted: u64,
    /// `attempted` if the window failed, else 0.
    pub failed: u64,
    /// Why the window failed.
    pub error: Option<String>,
    /// Operations completed and the measured interval.
    pub ops: u64,
    pub elapsed: Duration,
    /// Per-operation latency in nanoseconds.
    pub latency: Histogram,
    /// Contention telemetry from `RunResult`, in nanoseconds.
    pub cm_wait_ns: u64,
    pub backoff_ns: u64,
    /// Per-layer counters and `(resolve calls, resolve ns)`, when traced.
    pub layers: Option<(LayerCounts, (u64, u64))>,
}

impl Window {
    pub fn ops_per_s(&self) -> f64 {
        self.ops as f64 / self.elapsed.as_secs_f64()
    }

    /// Worker thread-time of the window in nanoseconds.
    pub fn thread_ns(&self) -> f64 {
        self.elapsed.as_nanos() as f64 * THREADS as f64
    }
}

/// Something that can run measured windows.
pub trait Runner {
    /// The set-up fingerprint (also runs the outside check).
    fn fingerprint(&self) -> Result<Fingerprint, String>;
    /// Runs one window of `duration` with operation streams from `seed`.
    fn run_window(&mut self, duration: Duration, seed: u64) -> Window;
    /// `true` once a window failed; the instance may hold leaked locks
    /// and must not run again.
    fn broken(&self) -> bool;
}

/// Builds a fresh STM instance and, for traced instances, its tap.
pub type Factory<A> = Box<dyn Fn() -> (Arc<A>, Option<Arc<dyn LayerTap>>)>;

/// Thread slots one window may register: the workers, the driver's
/// checker and a vacation re-set-up.
const SLOTS_PER_WINDOW: usize = THREADS + 2;

/// An STM with its workload set up, rebuilt by its factory when the STM
/// runs out of thread slots (they are never recycled).
pub struct Instance<A: TmAlgorithm> {
    factory: Factory<A>,
    kind: WorkloadKind,
    seed: u64,
    scale: Scale,
    stm: Arc<A>,
    prepared: Prepared<A>,
    timed: Arc<Timed<A>>,
    /// Windows run on the current data set.
    windows: u64,
    broken: bool,
}

fn timed<A: TmAlgorithm>(prepared: &Prepared<A>, tap: Option<Arc<dyn LayerTap>>) -> Arc<Timed<A>> {
    Arc::new(Timed {
        inner: Arc::clone(&prepared.workload),
        outside_check: prepared.outside_check.clone(),
        tap,
        workers: (0..THREADS).map(|_| CachePadded::default()).collect(),
        ops_before: AtomicU64::new(0),
        verdict: Mutex::new(None),
    })
}

impl<A: TmAlgorithm> Instance<A> {
    /// Builds an STM with `factory` and sets `kind` up on it from `seed`.
    pub fn new(factory: Factory<A>, kind: WorkloadKind, seed: u64, scale: Scale) -> Self {
        let (stm, tap) = factory();
        let prepared = setup(kind, &stm, seed, scale);
        let timed = timed(&prepared, tap);
        Instance {
            factory,
            kind,
            seed,
            scale,
            stm,
            prepared,
            timed,
            windows: 0,
            broken: false,
        }
    }

    /// Sets the workload up again from the same seed, on a fresh STM if
    /// `new_stm`.
    fn renew(&mut self, new_stm: bool) {
        let tap = if new_stm {
            let (stm, tap) = (self.factory)();
            self.stm = stm;
            tap
        } else {
            self.timed.tap.clone()
        };
        self.prepared = setup(self.kind, &self.stm, self.seed, self.scale);
        self.timed = timed(&self.prepared, tap);
        self.windows = 0;
    }
}

fn panic_message(payload: &(dyn std::any::Any + Send)) -> String {
    payload
        .downcast_ref::<&str>()
        .map(|s| s.to_string())
        .or_else(|| payload.downcast_ref::<String>().cloned())
        .unwrap_or_else(|| "non-string panic payload".to_string())
}

impl<A: TmAlgorithm> Runner for Instance<A> {
    fn fingerprint(&self) -> Result<Fingerprint, String> {
        self.prepared.fingerprint(&self.stm)
    }

    fn run_window(&mut self, duration: Duration, seed: u64) -> Window {
        assert!(!self.broken, "a failed instance must not run again");
        // Vacation's own check bounds the total stock at ten times its
        // initial value, and stock grows by about one unit per operation,
        // so one data set holds only about 1.1 M operations: each vacation
        // window starts from a fresh set-up of the same seed (the old
        // tables stay allocated in the heap).
        let fresh_data = self.windows > 0 && self.kind == WorkloadKind::VacationHigh;
        let short_of_slots = self.stm.registry().registered() + SLOTS_PER_WINDOW > MAX_THREADS;
        if fresh_data || short_of_slots {
            self.renew(short_of_slots);
        }
        self.windows += 1;
        if let Some(tap) = &self.timed.tap {
            tap.start_recording();
        }
        *self.timed.verdict.lock().expect("verdict lock poisoned") = None;
        let spec = RunSpec::new(THREADS, RunLength::Duration(duration), seed);
        let run = catch_unwind(AssertUnwindSafe(|| {
            run_workload_spec(Arc::clone(&self.stm), Arc::clone(&self.timed), &spec)
        }));
        let mut window = Window::default();
        for worker in &self.timed.workers {
            // sync: Relaxed — the workers were joined by the driver.
            window.attempted += worker.started.swap(0, Ordering::Relaxed);
            window.latency.merge(&worker.latency.take());
        }
        if let Some(tap) = &self.timed.tap {
            tap.stop_recording();
            window.layers = Some(tap.take());
        }
        let verdict = self
            .timed
            .verdict
            .lock()
            .expect("verdict lock poisoned")
            .take();
        let error = match (run, verdict) {
            (Err(payload), _) => Some(format!("worker panicked: {}", panic_message(&*payload))),
            (Ok(_), None) => Some("the post-run check did not run".to_string()),
            (Ok(_), Some(Err(e))) => Some(e),
            (Ok(result), Some(Ok(()))) => {
                let ops_before = &self.timed.ops_before;
                // sync: Relaxed — between windows, no worker runs.
                ops_before.fetch_add(result.operations, Ordering::Relaxed);
                window.ops = result.operations;
                window.elapsed = result.elapsed;
                window.cm_wait_ns = result.stats.totals.contention.cm_wait_nanos;
                window.backoff_ns = result.stats.totals.contention.backoff_nanos;
                None
            }
        };
        if error.is_some() {
            self.broken = true;
            window.attempted = window.attempted.max(1);
            window.failed = window.attempted;
            window.error = error;
        }
        window
    }

    fn broken(&self) -> bool {
        self.broken
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use stm_core::config::StmConfig;
    use swisstm::SwissTm;

    /// A workload that can fail its check or panic at one operation.
    struct Faulty {
        check_passes: bool,
        panic_at: Option<u64>,
    }

    impl<A: TmAlgorithm> Workload<A> for Faulty {
        fn execute(&self, ctx: &mut ThreadContext<A>, _rng: &mut FastRng, op_index: u64) {
            assert_ne!(Some(op_index), self.panic_at, "injected failure");
            ctx.atomically(|_| Ok(()))
                .expect("empty transaction commits");
        }

        fn name(&self) -> String {
            "faulty".to_string()
        }

        fn check(&self, _ctx: &mut ThreadContext<A>) -> bool {
            self.check_passes
        }
    }

    fn instance(check_passes: bool, panic_at: Option<u64>) -> Instance<SwissTm> {
        let stm = Arc::new(SwissTm::with_config(StmConfig::small()));
        let workload: Arc<dyn Workload<SwissTm>> = Arc::new(Faulty {
            check_passes,
            panic_at,
        });
        let prepared = Prepared {
            workload,
            tree: None,
            outside_check: None,
        };
        let timed = timed(&prepared, None);
        Instance {
            factory: Box::new(|| unreachable!("the test never renews")),
            stm,
            kind: WorkloadKind::RbTree,
            seed: 1,
            scale: Scale::Tiny,
            prepared,
            timed,
            windows: 0,
            broken: false,
        }
    }

    const SHORT: Duration = Duration::from_millis(20);

    #[test]
    fn a_passing_window_counts_and_times_every_operation() {
        let mut runner = instance(true, None);
        let w = runner.run_window(SHORT, 3);
        assert_eq!(w.error, None);
        assert_eq!((w.failed, w.ops), (0, w.attempted));
        assert_eq!(w.latency.count(), w.ops);
        assert!(w.ops > 0 && !runner.broken());
    }

    #[test]
    fn a_failed_check_fails_every_operation_of_the_window() {
        let mut runner = instance(false, None);
        let w = runner.run_window(SHORT, 3);
        assert!(w.error.as_deref().unwrap().contains("consistency check"));
        assert!(w.attempted > 0);
        assert_eq!(w.failed, w.attempted);
        assert!(runner.broken());
    }

    #[test]
    fn a_panicking_worker_is_caught_and_fails_the_window() {
        let mut runner = instance(true, Some(10));
        let w = runner.run_window(SHORT, 3);
        assert!(w.error.as_deref().unwrap().contains("worker panicked"));
        assert_eq!(w.failed, w.attempted);
        assert!(runner.broken());
    }

    #[test]
    fn the_kmeans_count_check_catches_a_lost_update() {
        let stm = Arc::new(SwissTm::with_config(StmConfig::small()));
        let prepared = setup(WorkloadKind::KmeansLow, &stm, 7, Scale::Tiny);
        let check = prepared.outside_check.clone().expect("kmeans has a check");
        let mut ctx = ThreadContext::register(Arc::clone(&stm));
        let mut rng = FastRng::new(1);
        for op in 0..5 {
            prepared.workload.execute(&mut ctx, &mut rng, op);
        }
        assert_eq!(check.check(&mut ctx, 5), Ok(()));
        let err = check.check(&mut ctx, 6).unwrap_err();
        assert!(err.contains("add up to 5"), "{err}");
    }

    #[test]
    fn the_rbtree_heap_check_catches_a_leaked_node() {
        let stm = Arc::new(SwissTm::with_config(StmConfig::small()));
        let prepared = setup(WorkloadKind::RbTree, &stm, 7, Scale::Tiny);
        assert!(prepared.fingerprint(&stm).is_ok());
        stm.heap().alloc_zeroed(6).expect("heap has room");
        let err = prepared.fingerprint(&stm).unwrap_err();
        assert!(err.contains("live words"), "{err}");
    }
}
