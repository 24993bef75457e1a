//! The SwissTM algorithm (paper Algorithm 1) on top of `stm-core`.

use std::sync::Arc;

use stm_core::clock::{ThreadRegistry, ThreadSlot, TxClock, TxShared};
use stm_core::cm::{CmHandle, ContentionManager, Resolution, TwoPhase};
use stm_core::config::StmConfig;
use stm_core::error::{Abort, TxResult};
use stm_core::heap::TmHeap;
use stm_core::locktable::LockTable;
use stm_core::logs::{ReadEntry, ReadLog};
use stm_core::owned::OwnedWriteSet;
use stm_core::telemetry::{self, ConflictSite, WaitTimer};
use stm_core::tm::{DescriptorCore, TmAlgorithm, TxDescriptor};
use stm_core::word::{Addr, Word};

use crate::entry::{ReadLockState, StripeEntry, WriteLockState};

/// Builder for [`SwissTm`] instances.
///
/// The defaults reproduce the paper's configuration: a 2^22-entry lock
/// table with 16-byte stripes and the two-phase contention manager with
/// `Wn = 10` and randomized linear back-off. The builder exists so the
/// dissection experiments (Figures 10–13, Tables 1–2) can swap the
/// contention manager and the stripe granularity.
#[derive(Debug)]
pub struct SwissTmBuilder {
    config: StmConfig,
    cm: Option<CmHandle>,
}

impl SwissTmBuilder {
    /// Starts a builder with the paper's defaults and a benchmark-sized
    /// heap.
    pub fn new() -> Self {
        SwissTmBuilder {
            config: StmConfig::benchmark(),
            cm: None,
        }
    }

    /// Sets the heap and lock-table configuration.
    pub fn config(mut self, config: StmConfig) -> Self {
        self.config = config;
        self
    }

    /// Replaces the contention manager (default: [`TwoPhase`]).
    pub fn contention_manager(mut self, cm: CmHandle) -> Self {
        self.cm = Some(cm);
        self
    }

    /// Builds the STM instance.
    pub fn build(self) -> SwissTm {
        let cm = self.cm.unwrap_or_else(|| Arc::new(TwoPhase::new()));
        SwissTm {
            heap: TmHeap::new(self.config.heap),
            registry: ThreadRegistry::new(),
            lock_table: LockTable::new(self.config.lock_table),
            commit_ts: TxClock::new(self.config.clock),
            cm,
        }
    }
}

impl Default for SwissTmBuilder {
    fn default() -> Self {
        SwissTmBuilder::new()
    }
}

/// The SwissTM software transactional memory.
///
/// See the crate-level documentation for the algorithm overview; the
/// methods of [`TmAlgorithm`] map one-to-one onto the paper's pseudo-code
/// functions (`start`, `read-word`, `write-word`, `commit`, `rollback`,
/// `validate`, `extend`).
pub struct SwissTm {
    heap: TmHeap,
    registry: ThreadRegistry,
    lock_table: LockTable<StripeEntry>,
    commit_ts: TxClock,
    cm: CmHandle,
}

impl std::fmt::Debug for SwissTm {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("SwissTm")
            .field("lock_table_entries", &self.lock_table.len())
            .field("grain_shift", &self.lock_table.grain_shift())
            .field("commit_ts", &self.commit_ts.read())
            .field("cm", &self.cm.name())
            .finish()
    }
}

impl SwissTm {
    /// Creates an instance with the paper's default configuration and a
    /// benchmark-sized heap.
    pub fn new() -> Self {
        SwissTmBuilder::new().build()
    }

    /// Creates an instance with an explicit configuration.
    pub fn with_config(config: StmConfig) -> Self {
        SwissTmBuilder::new().config(config).build()
    }

    /// Returns a builder for customised instances.
    pub fn builder() -> SwissTmBuilder {
        SwissTmBuilder::new()
    }

    /// Current value of the global commit counter.
    pub fn commit_timestamp(&self) -> u64 {
        self.commit_ts.read()
    }

    /// The configured commit-clock mode.
    pub fn clock_mode(&self) -> stm_core::config::ClockMode {
        self.commit_ts.mode()
    }

    /// The lock-table stripe granularity (log2 words per stripe).
    pub fn grain_shift(&self) -> u32 {
        self.lock_table.grain_shift()
    }

    /// The lock table, exposed for diagnostics and for deterministic
    /// conflict rigs that stage stuck locks (see
    /// `stm_core::testkit::RecordingCm`). Application code never needs it.
    pub fn lock_table(&self) -> &LockTable<StripeEntry> {
        &self.lock_table
    }

    fn shared_of(&self, slot: ThreadSlot) -> &Arc<TxShared> {
        self.registry.shared(slot)
    }

    /// `validate` (paper lines 50–53) over a slice of read-log entries:
    /// every entry must still carry the version it had when first read. A
    /// mismatch is benign only for a stripe whose write lock we hold *and*
    /// whose read-lock version at acquisition time equals the version the
    /// read observed — i.e. nothing committed between our read and our
    /// acquisition (the read lock is locked by us during commit, so the raw
    /// word cannot match then). A w-lock held by `slot` names the stripe's
    /// record in the write set, so the check costs one lock-word load and
    /// validation stays linear in the number of checked entries.
    fn entries_valid(
        &self,
        slot: ThreadSlot,
        write_set: &OwnedWriteSet,
        entries: &[ReadEntry],
    ) -> bool {
        for entry in entries {
            let stripe = self.lock_table.entry_at(entry.lock_index);
            let current = stripe.read_lock_raw();
            if current == entry.version << 1 {
                continue;
            }
            match stripe.owned_record(slot) {
                Some(record) if write_set.version(record) == entry.version => {}
                _ => return false,
            }
        }
        true
    }

    /// Full read-set validation (used by the commit path).
    fn validate(&self, desc: &SwissDescriptor) -> bool {
        self.entries_valid(desc.core.slot, &desc.write_set, desc.read_log.entries())
    }

    /// `extend` (paper lines 54–57): re-validate and, on success, advance
    /// the transaction's validity timestamp to the current commit counter.
    /// [`ReadLog::extend_with`] orders the work — fresh suffix first, then
    /// the opacity-mandated re-confirmation of the validated prefix.
    fn extend(&self, desc: &mut SwissDescriptor) -> bool {
        let ts = self.commit_ts.read();
        let slot = desc.core.slot;
        let write_set = &desc.write_set;
        if !desc
            .read_log
            .extend_with(|entries| self.entries_valid(slot, write_set, entries))
        {
            return false;
        }
        desc.valid_ts = ts;
        true
    }

    /// Releases all acquired write locks (paper `rollback`, lines 46–49,
    /// minus the contention-manager hook which the driver invokes). The
    /// stripe records themselves are cleared with the write set by the
    /// caller.
    fn release_write_locks(&self, desc: &mut SwissDescriptor) {
        for stripe in desc.write_set.stripes() {
            self.lock_table.entry_at(stripe.lock_index).release_write();
        }
    }

    fn doom(&self, desc: &mut SwissDescriptor, abort: Abort) -> Abort {
        self.release_write_locks(desc);
        desc.read_log.clear();
        desc.write_set.clear();
        desc.doomed = true;
        abort
    }
}

impl Default for SwissTm {
    fn default() -> Self {
        SwissTm::new()
    }
}

/// Transaction descriptor of [`SwissTm`].
///
/// The stripes whose write lock the transaction holds — together with the
/// read-lock version observed at acquisition time (restored if commit-time
/// validation fails) — are the records of the owner-indexed write set; each
/// held w-lock stores its record's index.
#[derive(Debug)]
pub struct SwissDescriptor {
    core: DescriptorCore,
    /// `tx.valid-ts`: value of the commit counter at start or last
    /// successful extension.
    valid_ts: u64,
    read_log: ReadLog,
    write_set: OwnedWriteSet,
    /// Set once an operation has aborted the attempt; subsequent operations
    /// fail fast until the driver restarts the transaction.
    doomed: bool,
}

impl TxDescriptor for SwissDescriptor {
    fn core(&self) -> &DescriptorCore {
        &self.core
    }

    fn core_mut(&mut self) -> &mut DescriptorCore {
        &mut self.core
    }

    fn is_read_only(&self) -> bool {
        self.write_set.is_empty()
    }
}

impl TmAlgorithm for SwissTm {
    type Descriptor = SwissDescriptor;

    fn name(&self) -> &'static str {
        "SwissTM"
    }

    fn heap(&self) -> &TmHeap {
        &self.heap
    }

    fn registry(&self) -> &ThreadRegistry {
        &self.registry
    }

    fn contention_manager(&self) -> &dyn ContentionManager {
        &*self.cm
    }

    fn create_descriptor(&self, slot: ThreadSlot) -> SwissDescriptor {
        SwissDescriptor {
            core: DescriptorCore::new(slot, Arc::clone(self.shared_of(slot))),
            valid_ts: 0,
            read_log: ReadLog::new(),
            write_set: OwnedWriteSet::new(),
            doomed: false,
        }
    }

    /// Paper `start` (lines 1–3): snapshot the commit counter and notify the
    /// contention manager.
    fn begin(&self, desc: &mut SwissDescriptor, is_restart: bool) {
        desc.core.reset_attempt();
        desc.read_log.clear();
        desc.write_set.clear();
        desc.doomed = false;
        desc.valid_ts = self.commit_ts.read();
        self.cm.on_start(&desc.core.shared, is_restart);
    }

    /// Paper `read-word` (lines 4–18).
    fn read(&self, desc: &mut SwissDescriptor, addr: Addr) -> TxResult<Word> {
        if desc.doomed {
            return Err(Abort::EXPLICIT);
        }
        if desc.core.shared.abort_requested() {
            return Err(self.doom(desc, Abort::REMOTE));
        }
        desc.core.attempt_reads += 1;
        let lock_index = self.lock_table.index_of(addr);
        let stripe = self.lock_table.entry_at(lock_index);

        // Read-after-write: if we own the stripe's write lock, the record it
        // names holds the latest value for addresses we wrote; other
        // addresses of the stripe cannot be modified concurrently, so the
        // heap value is safe to return directly.
        if let Some(record) = stripe.owned_record(desc.core.slot) {
            return Ok(desc
                .write_set
                .lookup(record, addr)
                .unwrap_or_else(|| self.heap.load(addr)));
        }

        // Consistent (r-lock, value, r-lock) triple read: retry until the two
        // read-lock samples agree and are unlocked. The spin paths honour
        // remote abort requests — the stripe may be read-locked by a writer
        // that is itself waiting for *us* to abort, so spinning blindly
        // could ignore the contention manager's decision indefinitely.
        let (value, version) = loop {
            let first = stripe.read_lock_raw();
            if let ReadLockState::Locked = StripeEntry::decode_read_lock(first) {
                if desc.core.shared.abort_requested() {
                    return Err(self.doom(desc, Abort::REMOTE));
                }
                stm_core::sync::spin_loop();
                continue;
            }
            let value = self.heap.load(addr);
            let second = stripe.read_lock_raw();
            if first == second {
                break (value, first >> 1);
            }
            if desc.core.shared.abort_requested() {
                return Err(self.doom(desc, Abort::REMOTE));
            }
            stm_core::sync::spin_loop();
        };

        desc.read_log.push(lock_index, version);
        self.cm.on_read(&desc.core.shared, desc.read_log.len());

        if version > desc.valid_ts {
            // Fold the fresh version into a deferred clock before extending,
            // so the new snapshot reaches at least this stripe's version.
            self.commit_ts.observe(version);
            if !self.extend(desc) {
                return Err(self.doom(desc, Abort::READ_VALIDATION));
            }
        }
        Ok(value)
    }

    /// Paper `write-word` (lines 19–33).
    fn write(&self, desc: &mut SwissDescriptor, addr: Addr, value: Word) -> TxResult<()> {
        if desc.doomed {
            return Err(Abort::EXPLICIT);
        }
        if desc.core.shared.abort_requested() {
            return Err(self.doom(desc, Abort::REMOTE));
        }
        desc.core.attempt_writes += 1;
        let lock_index = self.lock_table.index_of(addr);
        let stripe = self.lock_table.entry_at(lock_index);

        // Already own the stripe: just update its record's entries.
        if let Some(record) = stripe.owned_record(desc.core.slot) {
            desc.write_set.write(record, addr, value);
            return Ok(());
        }

        // Eager acquisition loop with contention management on write/write
        // conflicts; the w-lock we take names our next stripe record. The
        // owner seen here is never us: only this thread stores our tag, and
        // it saw none above. The wait timer starts lazily on the first
        // contended iteration (conflict-free writes never sample a clock)
        // and records the time spent in the loop on every exit path when it
        // drops.
        let record = desc.write_set.next_record();
        let mut wait_timer: Option<WaitTimer> = None;
        loop {
            match stripe.write_lock() {
                WriteLockState::Unlocked => {
                    if stripe.try_acquire_write_at(desc.core.slot, record) {
                        break;
                    }
                }
                WriteLockState::LockedBy(owner_slot) => {
                    if wait_timer.is_none() {
                        wait_timer = Some(WaitTimer::start(&desc.core.shared));
                    }
                    let owner = self.shared_of(owner_slot);
                    match telemetry::resolve_recorded(
                        &*self.cm,
                        &desc.core.shared,
                        owner,
                        ConflictSite::Write,
                    ) {
                        Resolution::AbortSelf => {
                            return Err(self.doom(desc, Abort::WRITE_CONFLICT));
                        }
                        Resolution::AbortOther | Resolution::Wait => {
                            stm_core::sync::spin_loop();
                        }
                    }
                    // Check whether somebody asked *us* to abort while we
                    // were fighting for the lock (deadlock avoidance between
                    // two second-phase transactions).
                    if desc.core.shared.abort_requested() {
                        return Err(self.doom(desc, Abort::REMOTE));
                    }
                }
            }
        }
        drop(wait_timer);

        // Acquired the stripe: remember the version for a potential restore
        // at commit time.
        let version = match stripe.read_lock() {
            ReadLockState::Unlocked { version } => version,
            // The previous owner unlocks the read lock before releasing the
            // write lock, so observing it locked here is impossible; be
            // conservative anyway. The write lock we just took has no record
            // in the write set yet, so it must be released here or it would
            // leak past the rollback.
            ReadLockState::Locked => {
                stripe.release_write();
                return Err(self.doom(desc, Abort::WRITE_CONFLICT));
            }
        };
        desc.write_set.push_stripe(lock_index, version);
        desc.write_set.write(record, addr, value);
        self.cm
            .on_write(&desc.core.shared, desc.write_set.stripe_count());

        // Preserve opacity: if the stripe moved past our snapshot we must be
        // able to extend, otherwise the transaction is inconsistent.
        if version > desc.valid_ts {
            self.commit_ts.observe(version);
            if !self.extend(desc) {
                return Err(self.doom(desc, Abort::READ_VALIDATION));
            }
        }
        Ok(())
    }

    /// Paper `commit` (lines 34–45).
    fn commit(&self, desc: &mut SwissDescriptor) -> TxResult<()> {
        if desc.doomed {
            return Err(Abort::EXPLICIT);
        }
        if desc.core.shared.abort_requested() {
            return Err(self.doom(desc, Abort::REMOTE));
        }
        // Read-only transactions commit immediately: their read log is
        // guaranteed consistent by construction.
        if desc.write_set.is_empty() {
            desc.read_log.clear();
            return Ok(());
        }

        // Lock the read locks of every stripe we are about to update.
        for stripe in desc.write_set.stripes() {
            self.lock_table.entry_at(stripe.lock_index).lock_read();
        }

        // The stamp is taken after the read locks above are held: a
        // deferred clock's committer-side fence sits between those lock
        // stores and its clock read (see `TxClock`).
        let stamp = self.commit_ts.commit_stamp(desc.valid_ts);
        let ts = stamp.ts;

        if stamp.needs_validation() && !self.validate(desc) {
            // Restore read-lock versions, release write locks and abort.
            for stripe in desc.write_set.stripes() {
                self.lock_table
                    .entry_at(stripe.lock_index)
                    .restore_read_version(stripe.version);
            }
            return Err(self.doom(desc, Abort::READ_VALIDATION));
        }

        // Write back the redo log and publish the new version.
        for entry in desc.write_set.entries() {
            self.heap.store(entry.addr, entry.value);
        }
        for stripe in desc.write_set.stripes() {
            let entry = self.lock_table.entry_at(stripe.lock_index);
            entry.publish_version(ts);
            entry.release_write();
        }
        desc.read_log.clear();
        desc.write_set.clear();
        Ok(())
    }

    /// Paper `rollback` (lines 46–49). Idempotent: the driver may call it
    /// after an operation already cleaned up.
    fn rollback(&self, desc: &mut SwissDescriptor) {
        self.release_write_locks(desc);
        desc.read_log.clear();
        desc.write_set.clear();
        desc.doomed = false;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use stm_core::config::{HeapConfig, LockTableConfig, StmConfig};
    use stm_core::tm::ThreadContext;

    fn small_stm() -> Arc<SwissTm> {
        Arc::new(SwissTm::with_config(StmConfig::small()))
    }

    #[test]
    fn read_your_own_writes() {
        let stm = small_stm();
        let addr = stm.heap().alloc_zeroed(2).unwrap();
        let mut ctx = ThreadContext::register(stm);
        let observed = ctx
            .atomically(|tx| {
                tx.write(addr, 10)?;
                tx.write(addr.offset(1), 20)?;
                Ok((tx.read(addr)?, tx.read(addr.offset(1))?))
            })
            .unwrap();
        assert_eq!(observed, (10, 20));
    }

    #[test]
    fn committed_writes_are_visible_to_later_transactions() {
        let stm = small_stm();
        let addr = stm.heap().alloc_zeroed(1).unwrap();
        let mut ctx = ThreadContext::register(Arc::clone(&stm));
        ctx.atomically(|tx| tx.write(addr, 99)).unwrap();
        let mut ctx2 = ThreadContext::register(stm);
        assert_eq!(ctx2.read_word(addr).unwrap(), 99);
    }

    #[test]
    fn aborted_writes_leave_no_trace() {
        let stm = small_stm();
        let addr = stm.heap().alloc_zeroed(1).unwrap();
        let mut ctx = ThreadContext::register(Arc::clone(&stm)).with_retry_budget(2);
        let _ = ctx.atomically(|tx| {
            tx.write(addr, 1234)?;
            tx.retry::<()>()
        });
        assert_eq!(stm.heap().load(addr), 0);
        // The stripe's write lock must have been released.
        let mut ctx2 = ThreadContext::register(stm);
        ctx2.atomically(|tx| tx.write(addr, 5)).unwrap();
        assert_eq!(ctx2.read_word(addr).unwrap(), 5);
    }

    #[test]
    fn commit_timestamp_advances_only_for_updates() {
        let stm = small_stm();
        let addr = stm.heap().alloc_zeroed(1).unwrap();
        let mut ctx = ThreadContext::register(Arc::clone(&stm));
        let before = stm.commit_timestamp();
        ctx.atomically(|tx| tx.read(addr)).unwrap();
        assert_eq!(stm.commit_timestamp(), before);
        ctx.atomically(|tx| tx.write(addr, 1)).unwrap();
        assert_eq!(stm.commit_timestamp(), before + 1);
    }

    #[test]
    fn counter_is_consistent_under_concurrency() {
        let stm = Arc::new(SwissTm::with_config(StmConfig::small()));
        let addr = stm.heap().alloc_zeroed(1).unwrap();
        let threads = 4;
        let increments = 500;
        let handles: Vec<_> = (0..threads)
            .map(|_| {
                let stm = Arc::clone(&stm);
                std::thread::spawn(move || {
                    let mut ctx = ThreadContext::register(stm);
                    for _ in 0..increments {
                        ctx.atomically(|tx| {
                            let v = tx.read(addr)?;
                            tx.write(addr, v + 1)
                        })
                        .unwrap();
                    }
                })
            })
            .collect();
        for h in handles {
            h.join().unwrap();
        }
        assert_eq!(stm.heap().load(addr), (threads * increments) as u64);
    }

    #[test]
    fn disjoint_writers_commit_without_interference() {
        let stm = Arc::new(SwissTm::with_config(StmConfig::small()));
        // Allocate addresses far apart so they hit different stripes.
        let a = stm.heap().alloc_zeroed(64).unwrap();
        let b = stm.heap().alloc_zeroed(64).unwrap();
        let s1 = Arc::clone(&stm);
        let s2 = Arc::clone(&stm);
        let t1 = std::thread::spawn(move || {
            let mut ctx = ThreadContext::register(s1);
            for i in 0..200 {
                ctx.atomically(|tx| tx.write(a, i)).unwrap();
            }
        });
        let t2 = std::thread::spawn(move || {
            let mut ctx = ThreadContext::register(s2);
            for i in 0..200 {
                ctx.atomically(|tx| tx.write(b.offset(63), i)).unwrap();
            }
        });
        t1.join().unwrap();
        t2.join().unwrap();
        assert_eq!(stm.heap().load(a), 199);
        assert_eq!(stm.heap().load(b.offset(63)), 199);
    }

    #[test]
    fn money_transfer_preserves_the_total() {
        // The classic opacity/atomicity smoke test: concurrent transfers
        // between accounts never create or destroy money.
        let stm = Arc::new(SwissTm::with_config(StmConfig::small()));
        let accounts = 8usize;
        let base = stm.heap().alloc_zeroed(accounts).unwrap();
        let initial = 1000u64;
        for i in 0..accounts {
            stm.heap().store(base.offset(i), initial);
        }
        let handles: Vec<_> = (0..4)
            .map(|t| {
                let stm = Arc::clone(&stm);
                std::thread::spawn(move || {
                    let mut ctx = ThreadContext::register(stm);
                    let mut rng = stm_core::backoff::FastRng::new(t as u64 + 1);
                    for _ in 0..500 {
                        let from = rng.next_below(accounts as u64) as usize;
                        let to = rng.next_below(accounts as u64) as usize;
                        ctx.atomically(|tx| {
                            let f = tx.read(base.offset(from))?;
                            let t_balance = tx.read(base.offset(to))?;
                            if from != to && f >= 10 {
                                tx.write(base.offset(from), f - 10)?;
                                tx.write(base.offset(to), t_balance + 10)?;
                            }
                            Ok(())
                        })
                        .unwrap();
                    }
                })
            })
            .collect();
        for h in handles {
            h.join().unwrap();
        }
        let total: u64 = (0..accounts).map(|i| stm.heap().load(base.offset(i))).sum();
        assert_eq!(total, initial * accounts as u64);
    }

    #[test]
    fn reader_spinning_on_locked_stripe_honours_remote_abort() {
        // Regression test: a reader spinning in the consistent-read loop on
        // a read-locked stripe must notice a remote abort request instead of
        // spinning until the lock is released.
        let stm = Arc::new(SwissTm::with_config(StmConfig::small()));
        let addr = stm.heap().alloc_zeroed(1).unwrap();
        // Simulate a writer stuck mid-commit: the stripe's read lock stays
        // locked for the whole test.
        stm.lock_table.entry(addr).lock_read();

        let reader_stm = Arc::clone(&stm);
        let reader = std::thread::spawn(move || {
            let mut ctx = ThreadContext::register(reader_stm).with_retry_budget(3);
            ctx.atomically(|tx| tx.read(addr))
        });
        // Keep requesting an abort (each attempt clears the flag) until the
        // reader gives up its retry budget. Without the abort check in the
        // read loop this never happens and the test hangs.
        while !reader.is_finished() {
            for shared in stm.registry().iter_registered() {
                shared.request_abort();
            }
            std::thread::yield_now();
        }
        let result = reader.join().unwrap();
        assert!(matches!(
            result,
            Err(stm_core::error::StmError::RetryBudgetExhausted { attempts: 3 })
        ));
        stm.lock_table.entry(addr).publish_version(0);
    }

    #[test]
    fn builder_respects_grain_shift() {
        let stm = SwissTm::builder()
            .config(
                StmConfig::small().with_lock_table(LockTableConfig::small().with_grain_shift(4)),
            )
            .build();
        assert_eq!(stm.grain_shift(), 4);
    }

    #[test]
    fn custom_contention_manager_is_used() {
        let stm = SwissTm::builder()
            .config(StmConfig::small())
            .contention_manager(Arc::new(stm_core::cm::Timid::new()))
            .build();
        assert_eq!(stm.contention_manager().name(), "timid");
        assert_eq!(
            SwissTm::with_config(StmConfig::small())
                .contention_manager()
                .name(),
            "two-phase"
        );
    }

    #[test]
    fn debug_output_mentions_algorithm_state() {
        let stm = SwissTm::with_config(StmConfig::small().with_heap(HeapConfig::small()));
        let dbg = format!("{stm:?}");
        assert!(dbg.contains("SwissTm"));
        assert!(dbg.contains("cm"));
    }
}
