//! The four paper-default STMs, built bare or wrapped for tracing.

use std::sync::Arc;
use std::time::{Duration, Instant};

use rstm::Rstm;
use stm_core::cm::{CmHandle, Polka, Timid, TwoPhase};
use stm_core::config::{HeapConfig, StmConfig};
use stm_core::tm::TmAlgorithm;
use swisstm::SwissTm;
use tinystm::TinyStm;
use tl2::Tl2;

use crate::trace::{LayerTap, Traced, TracedCm};
use crate::window::{Factory, Instance, Runner};
use crate::workloads::{Scale, WorkloadKind};

/// The four STMs, in report order.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum StmKind {
    SwissTm,
    Tl2,
    TinyStm,
    Rstm,
}

impl StmKind {
    pub const ALL: [StmKind; 4] = [
        StmKind::SwissTm,
        StmKind::Tl2,
        StmKind::TinyStm,
        StmKind::Rstm,
    ];

    /// The metric-name prefix.
    pub fn label(self) -> &'static str {
        match self {
            StmKind::SwissTm => "swisstm",
            StmKind::Tl2 => "tl2",
            StmKind::TinyStm => "tinystm",
            StmKind::Rstm => "rstm",
        }
    }

    /// Relative share of an untraced run's time. RSTM's throughput swings
    /// most from window to window (Polka's waits come in bursts), so it
    /// gets twice the time of the others.
    pub fn time_weight(self) -> u32 {
        match self {
            StmKind::Rstm => 2,
            _ => 1,
        }
    }

    /// The STM's own default contention manager (two-phase for SwissTM,
    /// timid for TL2 and TinySTM, Polka for RSTM eager/invisible).
    pub fn default_cm(self) -> CmHandle {
        match self {
            StmKind::SwissTm => Arc::new(TwoPhase::new()),
            StmKind::Tl2 | StmKind::TinyStm => Arc::new(Timid::new()),
            StmKind::Rstm => Arc::new(Polka::new()),
        }
    }
}

/// The paper-default configuration (strict clock, flat 2^22-entry lock
/// table, 16-byte stripes) with a 2^22-word heap, which holds every
/// workload with room to spare.
pub fn stm_config(scale: Scale) -> StmConfig {
    match scale {
        Scale::Bench => StmConfig::benchmark().with_heap(HeapConfig::with_words(1 << 22)),
        Scale::Tiny => StmConfig::small(),
    }
}

fn instance<A: TmAlgorithm>(
    factory: Factory<A>,
    workload: WorkloadKind,
    seed: u64,
    scale: Scale,
) -> Box<dyn Runner> {
    Box::new(Instance::new(factory, workload, seed, scale))
}

fn bare_factory<A: TmAlgorithm>(build: fn(StmConfig) -> A, config: StmConfig) -> Factory<A> {
    Box::new(move || (Arc::new(build(config)), None))
}

/// Builds bare `kind` with its default contention manager and sets up
/// `workload` on it.
pub fn bare(kind: StmKind, workload: WorkloadKind, seed: u64, scale: Scale) -> Box<dyn Runner> {
    let c = stm_config(scale);
    match kind {
        StmKind::SwissTm => instance(bare_factory(SwissTm::with_config, c), workload, seed, scale),
        StmKind::Tl2 => instance(bare_factory(Tl2::with_config, c), workload, seed, scale),
        StmKind::TinyStm => instance(bare_factory(TinyStm::with_config, c), workload, seed, scale),
        StmKind::Rstm => instance(bare_factory(Rstm::with_config, c), workload, seed, scale),
    }
}

/// A factory wrapping `build(config, cm)` in [`Traced`], where `cm` is
/// `kind`'s default contention manager wrapped in a [`TracedCm`].
fn traced_factory<A: TmAlgorithm>(
    kind: StmKind,
    build: fn(StmConfig, CmHandle) -> A,
    config: StmConfig,
) -> Factory<Traced<A>> {
    Box::new(move || {
        let cm = Arc::new(TracedCm::new(kind.default_cm()));
        let inner = build(config, Arc::clone(&cm) as CmHandle);
        let stm = Arc::new(Traced::new(inner, cm));
        let tap: Arc<dyn LayerTap> = Arc::clone(&stm) as Arc<dyn LayerTap>;
        (stm, Some(tap))
    })
}

/// Builds `kind` with its default contention manager wrapped in a
/// [`TracedCm`], wraps the STM in [`Traced`] and sets up `workload` on it.
pub fn traced(kind: StmKind, workload: WorkloadKind, seed: u64, scale: Scale) -> Box<dyn Runner> {
    let c = stm_config(scale);
    match kind {
        StmKind::SwissTm => {
            let build = |c, cm| SwissTm::builder().config(c).contention_manager(cm).build();
            instance(traced_factory(kind, build, c), workload, seed, scale)
        }
        StmKind::Tl2 => {
            let build = |c, cm| Tl2::builder().config(c).contention_manager(cm).build();
            instance(traced_factory(kind, build, c), workload, seed, scale)
        }
        StmKind::TinyStm => {
            let build = |c, cm| TinyStm::builder().config(c).contention_manager(cm).build();
            instance(traced_factory(kind, build, c), workload, seed, scale)
        }
        StmKind::Rstm => {
            let build = |c, cm| Rstm::builder().config(c).contention_manager(cm).build();
            instance(traced_factory(kind, build, c), workload, seed, scale)
        }
    }
}

/// Builds the four bare STMs with `workload` set up on each, and the time
/// that took.
pub fn bare_all(
    workload: WorkloadKind,
    seed: u64,
    scale: Scale,
) -> (Vec<Box<dyn Runner>>, Duration) {
    let start = Instant::now();
    let runners = StmKind::ALL
        .into_iter()
        .map(|kind| bare(kind, workload, seed, scale))
        .collect();
    (runners, start.elapsed())
}

#[cfg(test)]
mod tests {
    use super::*;
    use stm_core::word::Addr;
    use stm_workloads::driver::{run_workload_spec, RunLength, RunSpec};

    use crate::workloads::setup;

    /// Commits, reads and writes of a seeded single-thread run, and the
    /// final heap contents. `ready` runs between set-up and the run.
    fn single_thread_run<A: TmAlgorithm>(
        stm: &Arc<A>,
        workload: WorkloadKind,
        ready: impl FnOnce(),
    ) -> (u64, u64, u64, Vec<u64>) {
        let prepared = setup(workload, stm, 5, Scale::Tiny);
        ready();
        let spec = RunSpec::new(1, RunLength::OpsPerThread(300), 9);
        let result = run_workload_spec(Arc::clone(stm), Arc::clone(&prepared.workload), &spec);
        assert!(result.check_passed);
        let heap = stm.heap();
        let contents = (0..heap.capacity())
            .map(|i| heap.load(Addr::new(i)))
            .collect();
        let t = &result.stats.totals;
        (t.commits, t.reads, t.writes, contents)
    }

    fn assert_decorator_changes_nothing<A: TmAlgorithm>(
        kind: StmKind,
        bare: impl Fn() -> A,
        wrapped: impl Fn(CmHandle) -> A,
    ) {
        for workload in WorkloadKind::ALL {
            let plain = Arc::new(bare());
            let expected = single_thread_run(&plain, workload, || {});
            let cm = Arc::new(TracedCm::new(kind.default_cm()));
            let traced = Arc::new(Traced::new(wrapped(Arc::clone(&cm) as CmHandle), cm));
            assert_eq!(
                traced.contention_manager().name(),
                plain.contention_manager().name(),
                "{kind:?} traced with another contention manager"
            );
            let got = single_thread_run(&traced, workload, || traced.start_recording());
            let (commits, reads, writes, heap) = &got;
            assert_eq!(
                (commits, reads, writes),
                (&expected.0, &expected.1, &expected.2),
                "{kind:?} on {workload:?}: commit/read/write counts differ"
            );
            assert!(
                *heap == expected.3,
                "{kind:?} on {workload:?}: heap contents differ"
            );
            let (counts, _) = traced.take();
            assert!(counts.commits() >= *commits && counts.reads >= *reads);
            assert!(counts.timed_attempts > 0, "no attempt was timed");
        }
    }

    #[test]
    fn tracing_decorators_change_nothing() {
        let c = stm_config(Scale::Tiny);
        assert_decorator_changes_nothing(
            StmKind::SwissTm,
            || SwissTm::with_config(c),
            |cm| SwissTm::builder().config(c).contention_manager(cm).build(),
        );
        assert_decorator_changes_nothing(
            StmKind::Tl2,
            || Tl2::with_config(c),
            |cm| Tl2::builder().config(c).contention_manager(cm).build(),
        );
        assert_decorator_changes_nothing(
            StmKind::TinyStm,
            || TinyStm::with_config(c),
            |cm| TinyStm::builder().config(c).contention_manager(cm).build(),
        );
        assert_decorator_changes_nothing(
            StmKind::Rstm,
            || Rstm::with_config(c),
            |cm| Rstm::builder().config(c).contention_manager(cm).build(),
        );
    }

    #[test]
    fn the_same_seed_gives_the_same_setup() {
        for workload in WorkloadKind::ALL {
            for kind in StmKind::ALL {
                let first = bare(kind, workload, 42, Scale::Tiny).fingerprint().unwrap();
                let again = bare(kind, workload, 42, Scale::Tiny).fingerprint().unwrap();
                assert_eq!(first, again, "{kind:?} on {workload:?}");
                let traced = traced(kind, workload, 42, Scale::Tiny)
                    .fingerprint()
                    .unwrap();
                assert_eq!(first, traced, "{kind:?} on {workload:?}, traced");
            }
        }
        // Vacation's tables and kmeans's zeroed accumulators do not depend
        // on the seed (kmeans's points live outside the heap); the other
        // two do (rbtree draws its keys from `seed | 1`).
        for workload in [WorkloadKind::RbTree, WorkloadKind::Bench7Rw] {
            let a = bare(StmKind::SwissTm, workload, 42, Scale::Tiny)
                .fingerprint()
                .unwrap();
            let b = bare(StmKind::SwissTm, workload, 44, Scale::Tiny)
                .fingerprint()
                .unwrap();
            assert_ne!(
                a.heap_digest, b.heap_digest,
                "{workload:?} ignores the seed"
            );
        }
    }
}
