//! The algorithm-facing STM interface and the transaction retry driver.
//!
//! Every STM in the workspace (SwissTM, TL2, TinySTM, RSTM) implements
//! [`TmAlgorithm`]. Application code never calls the algorithm directly;
//! it registers a [`ThreadContext`] and runs closures through
//! [`ThreadContext::atomically`], which handles begin/commit/rollback,
//! contention-manager hooks, transactional allocation bookkeeping, retry
//! and statistics.
//!
//! The split mirrors the paper's structure: Algorithm 1 is the per-word
//! algorithm (here: a `TmAlgorithm` impl), Algorithm 2 the contention
//! manager (here: [`crate::cm::ContentionManager`]), and the benchmarks sit
//! on top of a thin word-based API (here: [`Tx`]).

use std::sync::Arc;

use crate::clock::{ThreadRegistry, ThreadSlot, TxShared, TxStatus};
use crate::cm::ContentionManager;
use crate::error::{Abort, AbortReason, StmError, TxResult};
use crate::heap::TmHeap;
use crate::logs::AllocLog;
use crate::stats::TxStats;
use crate::word::{Addr, Word};

/// State shared by every algorithm's transaction descriptor.
///
/// Algorithms embed a `DescriptorCore` in their descriptor type and expose
/// it through [`TxDescriptor::core`]; the retry driver uses it for
/// allocation bookkeeping, statistics and contention-manager hooks.
#[derive(Debug)]
pub struct DescriptorCore {
    /// The thread slot owning this descriptor.
    pub slot: ThreadSlot,
    /// The thread's shared record (visible to other threads).
    pub shared: Arc<TxShared>,
    /// Allocator activity of the current attempt.
    pub alloc_log: AllocLog,
    /// Transactional reads performed by the current attempt.
    pub attempt_reads: u64,
    /// Transactional writes performed by the current attempt.
    pub attempt_writes: u64,
}

impl DescriptorCore {
    /// Creates a core for `slot` with its shared record.
    pub fn new(slot: ThreadSlot, shared: Arc<TxShared>) -> Self {
        DescriptorCore {
            slot,
            shared,
            alloc_log: AllocLog::new(),
            attempt_reads: 0,
            attempt_writes: 0,
        }
    }

    /// Resets the per-attempt counters (called from `begin`).
    pub fn reset_attempt(&mut self) {
        self.attempt_reads = 0;
        self.attempt_writes = 0;
    }
}

/// Trait implemented by every algorithm's transaction descriptor.
pub trait TxDescriptor: Send {
    /// Shared descriptor core.
    fn core(&self) -> &DescriptorCore;
    /// Mutable access to the shared descriptor core.
    fn core_mut(&mut self) -> &mut DescriptorCore;
    /// `true` if the current attempt has not written anything.
    fn is_read_only(&self) -> bool;
}

/// A word-based software transactional memory algorithm.
///
/// # Contract
///
/// * `read`, `write` and `commit` return `Err(Abort)` when the attempt must
///   be retried. An operation that returns `Err` must leave the descriptor
///   in a state where [`TmAlgorithm::rollback`] can be called safely.
/// * `rollback` must be idempotent: the driver calls it on every abort
///   path, including after a failed `commit` that already cleaned up.
/// * `commit` returning `Ok(())` means all writes of the attempt are
///   visible atomically to other transactions (opacity is expected, as in
///   the paper).
pub trait TmAlgorithm: Send + Sync + 'static {
    /// Per-thread transaction descriptor, reused across transactions.
    type Descriptor: TxDescriptor;

    /// Human-readable algorithm name (used in experiment tables).
    fn name(&self) -> &'static str;

    /// The shared transactional heap this instance operates on.
    fn heap(&self) -> &TmHeap;

    /// The registry handing out thread slots for this instance.
    fn registry(&self) -> &ThreadRegistry;

    /// The contention manager used by this instance.
    fn contention_manager(&self) -> &dyn ContentionManager;

    /// Creates a descriptor for a registered thread slot.
    fn create_descriptor(&self, slot: ThreadSlot) -> Self::Descriptor;

    /// Starts a new transaction attempt.
    fn begin(&self, desc: &mut Self::Descriptor, is_restart: bool);

    /// Transactional read of the word at `addr`.
    ///
    /// # Errors
    ///
    /// Returns `Err(Abort)` when the attempt must be rolled back (e.g. the
    /// read-set could not be validated).
    fn read(&self, desc: &mut Self::Descriptor, addr: Addr) -> TxResult<Word>;

    /// Transactional write of `value` to `addr`.
    ///
    /// # Errors
    ///
    /// Returns `Err(Abort)` when the attempt must be rolled back (e.g. a
    /// write/write conflict was resolved against this transaction).
    fn write(&self, desc: &mut Self::Descriptor, addr: Addr, value: Word) -> TxResult<()>;

    /// Attempts to commit the current attempt.
    ///
    /// # Errors
    ///
    /// Returns `Err(Abort)` when commit-time validation fails; the
    /// implementation must have released all its locks before returning.
    fn commit(&self, desc: &mut Self::Descriptor) -> TxResult<()>;

    /// Rolls back the current attempt, releasing any acquired locks.
    /// Must be idempotent.
    fn rollback(&self, desc: &mut Self::Descriptor);
}

/// Handle passed to transaction bodies.
///
/// All transactional operations of application code go through `Tx`; it
/// simply forwards to the algorithm, adding convenience helpers for
/// pointer-like fields and transactional allocation.
pub struct Tx<'a, A: TmAlgorithm> {
    alg: &'a A,
    desc: &'a mut A::Descriptor,
}

impl<'a, A: TmAlgorithm> Tx<'a, A> {
    /// Reads the word at `addr`.
    ///
    /// # Errors
    ///
    /// Propagates the algorithm's abort decision; transaction bodies should
    /// forward it with `?`.
    #[inline]
    pub fn read(&mut self, addr: Addr) -> TxResult<Word> {
        self.alg.read(self.desc, addr)
    }

    /// Writes `value` to `addr`.
    ///
    /// # Errors
    ///
    /// Propagates the algorithm's abort decision.
    #[inline]
    pub fn write(&mut self, addr: Addr, value: Word) -> TxResult<()> {
        self.alg.write(self.desc, addr, value)
    }

    /// Reads the field at `base + offset`.
    ///
    /// # Errors
    ///
    /// Propagates the algorithm's abort decision.
    #[inline]
    pub fn read_field(&mut self, base: Addr, offset: usize) -> TxResult<Word> {
        self.read(base.offset(offset))
    }

    /// Writes the field at `base + offset`.
    ///
    /// # Errors
    ///
    /// Propagates the algorithm's abort decision.
    #[inline]
    pub fn write_field(&mut self, base: Addr, offset: usize, value: Word) -> TxResult<()> {
        self.write(base.offset(offset), value)
    }

    /// Reads a heap "pointer" stored at `addr`.
    ///
    /// # Errors
    ///
    /// Propagates the algorithm's abort decision.
    #[inline]
    pub fn read_addr(&mut self, addr: Addr) -> TxResult<Addr> {
        Ok(Addr::from_word(self.read(addr)?))
    }

    /// Stores a heap "pointer" at `addr`.
    ///
    /// # Errors
    ///
    /// Propagates the algorithm's abort decision.
    #[inline]
    pub fn write_addr(&mut self, addr: Addr, value: Addr) -> TxResult<()> {
        self.write(addr, value.to_word())
    }

    /// Allocates `words` zeroed words from the transactional heap. The
    /// allocation is rolled back if the transaction aborts.
    ///
    /// # Errors
    ///
    /// Returns [`Abort::OOM`] when the heap is exhausted.
    pub fn alloc(&mut self, words: usize) -> TxResult<Addr> {
        match self.alg.heap().alloc_zeroed(words) {
            Ok(addr) => {
                self.desc.core_mut().alloc_log.record_alloc(addr, words);
                Ok(addr)
            }
            Err(_) => Err(Abort::OOM),
        }
    }

    /// Frees a heap block when (and only when) the transaction commits.
    pub fn free(&mut self, addr: Addr, words: usize) {
        self.desc.core_mut().alloc_log.record_free(addr, words);
    }

    /// Explicitly aborts and retries the transaction.
    ///
    /// # Errors
    ///
    /// Always returns `Err(Abort::EXPLICIT)`; the idiom is
    /// `return tx.retry();`.
    pub fn retry<T>(&mut self) -> TxResult<T> {
        Err(Abort::EXPLICIT)
    }

    /// The thread slot running this transaction.
    pub fn slot(&self) -> ThreadSlot {
        self.desc.core().slot
    }

    /// `true` if the attempt has not performed any write yet.
    pub fn is_read_only(&self) -> bool {
        self.desc.is_read_only()
    }

    /// The algorithm executing this transaction (for advanced callers that
    /// need configuration data such as the lock-table granularity).
    pub fn algorithm(&self) -> &A {
        self.alg
    }
}

/// Per-thread entry point: owns the thread's descriptor and statistics and
/// drives the retry loop.
pub struct ThreadContext<A: TmAlgorithm> {
    alg: Arc<A>,
    slot: ThreadSlot,
    /// The thread's shared record, held for the context's lifetime and lent
    /// to every attempt (no reference-count traffic per attempt).
    shared: Arc<TxShared>,
    desc: A::Descriptor,
    stats: TxStats,
    retry_budget: Option<u64>,
}

impl<A: TmAlgorithm> ThreadContext<A> {
    /// Registers the calling thread with the STM instance and returns its
    /// context.
    ///
    /// # Panics
    ///
    /// Panics if more than [`crate::clock::MAX_THREADS`] threads register.
    pub fn register(alg: Arc<A>) -> Self {
        let slot = alg
            .registry()
            .register()
            .expect("exceeded the maximum number of STM threads");
        let desc = alg.create_descriptor(slot);
        let shared = Arc::clone(&desc.core().shared);
        ThreadContext {
            alg,
            slot,
            shared,
            desc,
            stats: TxStats::new(),
            retry_budget: None,
        }
    }

    /// Limits the number of attempts per transaction; afterwards
    /// [`ThreadContext::atomically`] returns
    /// [`StmError::RetryBudgetExhausted`]. Mainly useful in tests.
    pub fn with_retry_budget(mut self, attempts: u64) -> Self {
        self.retry_budget = Some(attempts);
        self
    }

    /// The thread slot of this context.
    pub fn slot(&self) -> ThreadSlot {
        self.slot
    }

    /// The STM algorithm driven by this context.
    pub fn algorithm(&self) -> &A {
        &self.alg
    }

    /// Statistics accumulated so far.
    ///
    /// The contention telemetry written through the shared record (CM
    /// resolutions, wait/back-off time) is folded in lazily; call
    /// [`ThreadContext::sync_telemetry`] first (or use
    /// [`ThreadContext::take_stats`], which does) when those fields matter.
    pub fn stats(&self) -> &TxStats {
        &self.stats
    }

    /// Drains the contention telemetry accumulated on the thread's shared
    /// record into the statistics. Counters recorded by contention-manager
    /// hooks and STM conflict paths live on [`TxShared`] (they only have a
    /// shared reference); folding them in here keeps the per-transaction
    /// epilogues free of telemetry loads.
    pub fn sync_telemetry(&mut self) {
        self.stats.absorb_telemetry(self.shared.telemetry());
    }

    /// Returns the accumulated statistics (telemetry folded in), resetting
    /// the counters.
    pub fn take_stats(&mut self) -> TxStats {
        self.sync_telemetry();
        std::mem::take(&mut self.stats)
    }

    /// Runs `body` as a transaction, retrying until it commits.
    ///
    /// The closure may be executed several times; it must be free of
    /// side effects other than transactional reads/writes and
    /// allocations through [`Tx`].
    ///
    /// # Errors
    ///
    /// Returns [`StmError::RetryBudgetExhausted`] if a retry budget was set
    /// and exceeded; otherwise retries until commit.
    pub fn atomically<T, F>(&mut self, mut body: F) -> Result<T, StmError>
    where
        F: FnMut(&mut Tx<'_, A>) -> TxResult<T>,
    {
        let mut is_restart = false;
        let mut attempts: u64 = 0;
        let alg = &*self.alg;
        let shared = &*self.shared;
        loop {
            attempts += 1;
            shared.clear_abort_request();
            shared.set_status(TxStatus::Active);
            alg.begin(&mut self.desc, is_restart);

            let outcome = body(&mut Tx {
                alg,
                desc: &mut self.desc,
            });

            let reason = match outcome {
                Ok(value) => {
                    let read_only = self.desc.is_read_only();
                    match alg.commit(&mut self.desc) {
                        Ok(()) => {
                            finish_commit(
                                alg,
                                shared,
                                &mut self.desc,
                                &mut self.stats,
                                read_only,
                                attempts,
                            );
                            return Ok(value);
                        }
                        // The contract promises `rollback` on *every* abort
                        // path, including a failed commit: commit released
                        // the algorithm's locks, but descriptor state (e.g.
                        // a doomed flag) is only reset by the rollback
                        // below, which is idempotent.
                        Err(abort) => abort.reason,
                    }
                }
                Err(abort) => abort.reason,
            };
            alg.rollback(&mut self.desc);
            finish_abort(alg, shared, &mut self.desc, &mut self.stats, reason);

            if let Some(budget) = self.retry_budget {
                if attempts >= budget {
                    return Err(StmError::RetryBudgetExhausted { attempts });
                }
            }
            is_restart = true;
        }
    }

    /// Runs a read-only convenience transaction returning a single word.
    ///
    /// # Errors
    ///
    /// Same as [`ThreadContext::atomically`].
    pub fn read_word(&mut self, addr: Addr) -> Result<Word, StmError> {
        self.atomically(|tx| tx.read(addr))
    }

    /// Runs a convenience transaction writing a single word.
    ///
    /// # Errors
    ///
    /// Same as [`ThreadContext::atomically`].
    pub fn write_word(&mut self, addr: Addr, value: Word) -> Result<(), StmError> {
        self.atomically(|tx| tx.write(addr, value))
    }
}

/// Commit epilogue of [`ThreadContext::atomically`]: applies the deferred
/// frees, folds the attempt into `stats` and notifies the contention
/// manager. Takes the context's fields separately so the attempt can
/// borrow the shared record while the descriptor is mutated.
fn finish_commit<A: TmAlgorithm>(
    alg: &A,
    shared: &TxShared,
    desc: &mut A::Descriptor,
    stats: &mut TxStats,
    read_only: bool,
    attempts: u64,
) {
    let core = desc.core_mut();
    // Frees become effective only now that the transaction committed.
    for &(addr, words) in core.alloc_log.freed() {
        alg.heap().free(addr, words);
    }
    core.alloc_log.clear();
    stats.reads += core.attempt_reads;
    stats.writes += core.attempt_writes;
    stats.record_commit(read_only);
    stats.retries.record(attempts);
    shared.reset_aborts();
    alg.contention_manager().on_commit(shared);
    shared.set_status(TxStatus::Idle);
}

/// Abort epilogue of [`ThreadContext::atomically`]: returns the attempt's
/// allocations, folds it into `stats` and notifies the contention manager.
fn finish_abort<A: TmAlgorithm>(
    alg: &A,
    shared: &TxShared,
    desc: &mut A::Descriptor,
    stats: &mut TxStats,
    reason: AbortReason,
) {
    let core = desc.core_mut();
    // Allocations of the failed attempt are rolled back.
    for &(addr, words) in core.alloc_log.allocated() {
        alg.heap().free(addr, words);
    }
    core.alloc_log.clear();
    stats.reads += core.attempt_reads;
    stats.writes += core.attempt_writes;
    stats.record_abort(reason);
    shared.record_abort();
    // Under the model checker, an abort caused by a lock that a rival
    // still holds turns the retry loop into a busy-wait: re-running the
    // attempt before the owner moves hits the same lock and spawns an
    // unbounded retry schedule. Yielding through the instrumented spin
    // hint parks this thread until another thread stores — sound,
    // because a held lock implies a live owner (every commit/rollback
    // path releases before the thread finishes), so a wake-up store is
    // always coming. Validation failures are not yielded: their retry
    // can succeed with no further external store (bounded by the finite
    // number of rival commits), so parking could deadlock the model.
    #[cfg(stm_model)]
    if matches!(reason, AbortReason::WriteConflict | AbortReason::ReadLocked) {
        crate::sync::spin_loop();
    }
    shared.set_status(TxStatus::Aborted);
    alg.contention_manager().on_rollback(shared);
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::HeapConfig;
    use crate::naive::NaiveGlobalLockTm;

    fn new_stm() -> Arc<NaiveGlobalLockTm> {
        Arc::new(NaiveGlobalLockTm::new(HeapConfig::small()))
    }

    #[test]
    fn atomically_commits_a_simple_transaction() {
        let stm = new_stm();
        let addr = stm.heap().alloc_zeroed(1).unwrap();
        let mut ctx = ThreadContext::register(Arc::clone(&stm));
        ctx.atomically(|tx| tx.write(addr, 5)).unwrap();
        assert_eq!(ctx.read_word(addr).unwrap(), 5);
        assert_eq!(ctx.stats().commits, 2);
    }

    #[test]
    fn explicit_retry_consumes_budget() {
        let stm = new_stm();
        let mut ctx = ThreadContext::register(stm).with_retry_budget(3);
        let result: Result<(), StmError> = ctx.atomically(|tx| tx.retry());
        assert!(matches!(
            result,
            Err(StmError::RetryBudgetExhausted { attempts: 3 })
        ));
        assert_eq!(ctx.stats().aborts, 3);
        assert_eq!(ctx.stats().commits, 0);
    }

    #[test]
    fn aborted_allocations_are_returned_to_the_heap() {
        let stm = new_stm();
        let mut ctx = ThreadContext::register(Arc::clone(&stm)).with_retry_budget(1);
        let live_before = stm.heap().live_words();
        let _ = ctx.atomically(|tx| {
            tx.alloc(8)?;
            tx.retry::<()>()
        });
        assert_eq!(stm.heap().live_words(), live_before);
    }

    #[test]
    fn commit_applies_deferred_frees() {
        let stm = new_stm();
        let block = stm.heap().alloc_zeroed(8).unwrap();
        let mut ctx = ThreadContext::register(Arc::clone(&stm));
        let live_before = stm.heap().live_words();
        ctx.atomically(|tx| {
            tx.free(block, 8);
            Ok(())
        })
        .unwrap();
        assert_eq!(stm.heap().live_words(), live_before - 8);
    }

    #[test]
    fn read_only_commits_are_tracked() {
        let stm = new_stm();
        let addr = stm.heap().alloc_zeroed(1).unwrap();
        let mut ctx = ThreadContext::register(stm);
        ctx.atomically(|tx| tx.read(addr)).unwrap();
        ctx.atomically(|tx| tx.write(addr, 1)).unwrap();
        assert_eq!(ctx.stats().read_only_commits, 1);
        assert_eq!(ctx.stats().commits, 2);
    }

    #[test]
    fn pointer_helpers_round_trip() {
        let stm = new_stm();
        let addr = stm.heap().alloc_zeroed(4).unwrap();
        let target = Addr::new(1234);
        let mut ctx = ThreadContext::register(stm);
        ctx.atomically(|tx| {
            tx.write_addr(addr, target)?;
            tx.write_field(addr, 1, 77)?;
            Ok(())
        })
        .unwrap();
        let (ptr, field) = ctx
            .atomically(|tx| Ok((tx.read_addr(addr)?, tx.read_field(addr, 1)?)))
            .unwrap();
        assert_eq!(ptr, target);
        assert_eq!(field, 77);
    }

    /// A minimal algorithm whose commit fails a configurable number of
    /// times. Commit failure leaves `needs_rollback` set on the descriptor;
    /// only `rollback` clears it, and `begin` asserts it is clear — so the
    /// test fails loudly if the driver ever skips `rollback` on the
    /// failed-commit path (the contract documented on [`TmAlgorithm`]).
    struct FlakyTm {
        heap: TmHeap,
        registry: ThreadRegistry,
        cm: crate::cm::Timid,
        commit_failures: crate::sync::AtomicU64,
        rollbacks: crate::sync::AtomicU64,
    }

    struct FlakyDescriptor {
        core: DescriptorCore,
        needs_rollback: bool,
    }

    impl TxDescriptor for FlakyDescriptor {
        fn core(&self) -> &DescriptorCore {
            &self.core
        }

        fn core_mut(&mut self) -> &mut DescriptorCore {
            &mut self.core
        }

        fn is_read_only(&self) -> bool {
            false
        }
    }

    impl TmAlgorithm for FlakyTm {
        type Descriptor = FlakyDescriptor;

        fn name(&self) -> &'static str {
            "flaky"
        }

        fn heap(&self) -> &TmHeap {
            &self.heap
        }

        fn registry(&self) -> &ThreadRegistry {
            &self.registry
        }

        fn contention_manager(&self) -> &dyn ContentionManager {
            &self.cm
        }

        fn create_descriptor(&self, slot: ThreadSlot) -> FlakyDescriptor {
            FlakyDescriptor {
                core: DescriptorCore::new(slot, Arc::clone(self.registry.shared(slot))),
                needs_rollback: false,
            }
        }

        fn begin(&self, desc: &mut FlakyDescriptor, _is_restart: bool) {
            assert!(
                !desc.needs_rollback,
                "begin reached without rollback after a failed commit"
            );
            desc.core.reset_attempt();
        }

        fn read(&self, desc: &mut FlakyDescriptor, addr: Addr) -> TxResult<Word> {
            desc.core.attempt_reads += 1;
            Ok(self.heap.load(addr))
        }

        fn write(&self, desc: &mut FlakyDescriptor, addr: Addr, value: Word) -> TxResult<()> {
            desc.core.attempt_writes += 1;
            self.heap.store(addr, value);
            Ok(())
        }

        fn commit(&self, desc: &mut FlakyDescriptor) -> TxResult<()> {
            use crate::sync::Ordering;
            // sync: Relaxed — single-threaded test harness.
            let remaining = self.commit_failures.load(Ordering::Relaxed);
            if remaining > 0 {
                // sync: Relaxed — single-threaded test harness.
                self.commit_failures.store(remaining - 1, Ordering::Relaxed);
                desc.needs_rollback = true;
                return Err(Abort::READ_VALIDATION);
            }
            Ok(())
        }

        fn rollback(&self, desc: &mut FlakyDescriptor) {
            desc.needs_rollback = false;
            self.rollbacks
                // sync: Relaxed — single-threaded test harness.
                .fetch_add(1, crate::sync::Ordering::Relaxed);
        }
    }

    #[test]
    fn rollback_runs_after_a_failed_commit() {
        let stm = Arc::new(FlakyTm {
            heap: TmHeap::new(HeapConfig::small()),
            registry: ThreadRegistry::new(),
            cm: crate::cm::Timid::new(),
            commit_failures: crate::sync::AtomicU64::new(2),
            rollbacks: crate::sync::AtomicU64::new(0),
        });
        let addr = stm.heap().alloc_zeroed(1).unwrap();
        let mut ctx = ThreadContext::register(Arc::clone(&stm));
        // Two commit failures, then success; `begin` panics if any failed
        // commit was not followed by `rollback`.
        ctx.atomically(|tx| tx.write(addr, 9)).unwrap();
        assert_eq!(
            // sync: Relaxed — single-threaded test harness.
            stm.rollbacks.load(crate::sync::Ordering::Relaxed),
            2,
            "driver must roll back once per failed commit"
        );
        assert_eq!(ctx.stats().aborts, 2);
        assert_eq!(ctx.stats().commits, 1);
    }

    #[test]
    fn attempts_borrow_the_shared_record_without_cloning_it() {
        let stm = new_stm();
        let mut ctx = ThreadContext::register(Arc::clone(&stm));
        let shared = stm.registry().shared(ctx.slot());
        let held = Arc::strong_count(shared);
        let mut attempts = 0;
        let _ = ctx.atomically(|tx| {
            attempts += 1;
            assert_eq!(Arc::strong_count(shared), held);
            if attempts < 3 {
                return tx.retry();
            }
            Ok(())
        });
        assert_eq!(attempts, 3);
    }

    #[test]
    fn take_stats_resets_counters() {
        let stm = new_stm();
        let addr = stm.heap().alloc_zeroed(1).unwrap();
        let mut ctx = ThreadContext::register(stm);
        ctx.atomically(|tx| tx.write(addr, 1)).unwrap();
        let taken = ctx.take_stats();
        assert_eq!(taken.commits, 1);
        assert_eq!(ctx.stats().commits, 0);
    }
}
