//! # TinySTM baseline
//!
//! A reproduction of **TinySTM** (Felber, Fetzer and Riegel, PPoPP 2008) in
//! its default *write-back, encounter-time locking* configuration — the
//! paper's "pure eager" word-based baseline.
//!
//! Key properties (paper §2.1 and §5):
//!
//! * **Encounter-time locking (eager acquisition).** A writer acquires the
//!   stripe's versioned lock at its *first* write, so write/write conflicts
//!   are detected immediately — the behaviour SwissTM keeps.
//! * **Eager read/write conflict detection.** A reader that encounters a
//!   stripe locked by another transaction aborts immediately (the paper's
//!   point 2 in the introduction: "read/write conflicts … are detected very
//!   early and resolved by aborting readers"). This is the behaviour
//!   SwissTM *relaxes* with its lazy read/write detection.
//! * **Time-based validation with snapshot extension** (the LSA scheme):
//!   reads are invisible and validated against a global clock, and the
//!   snapshot is extended when possible.
//! * **Timid contention management** with optional back-off.
//!
//! # Example
//!
//! ```
//! use std::sync::Arc;
//! use stm_core::prelude::*;
//! use tinystm::TinyStm;
//!
//! let stm = Arc::new(TinyStm::with_config(stm_core::config::StmConfig::small()));
//! let cell = stm.heap().alloc_zeroed(1).unwrap();
//! let mut ctx = ThreadContext::register(stm);
//! ctx.atomically(|tx| tx.write(cell, 9)).unwrap();
//! assert_eq!(ctx.read_word(cell).unwrap(), 9);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use std::sync::Arc;

use stm_core::sync::{AtomicU64, Ordering};

use stm_core::clock::{ThreadRegistry, ThreadSlot, TxClock, TxShared};
use stm_core::cm::{CmHandle, ContentionManager, Resolution, Timid};
use stm_core::config::StmConfig;
use stm_core::error::{Abort, TxResult};
use stm_core::heap::TmHeap;
use stm_core::locktable::LockTable;
use stm_core::logs::{ReadEntry, ReadLog};
use stm_core::owned::{self, OwnedWriteSet};
use stm_core::telemetry::{self, ConflictSite, WaitTimer};
use stm_core::tm::{DescriptorCore, TmAlgorithm, TxDescriptor};
use stm_core::word::{Addr, Word};

/// A TinySTM versioned lock: `version << 1` when free, and
/// `owner_word << 1 | 1` when owned by a writer, where the
/// [`owned::owner_word`] names the owner's slot and the index of its stripe
/// record in its write set.
#[derive(Debug, Default)]
pub struct OwnedLock {
    word: AtomicU64,
}

/// Decoded state of an [`OwnedLock`].
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum OwnedLockState {
    /// Unlocked; carries the stripe's current version.
    Free {
        /// Commit timestamp of the stripe's last writer.
        version: u64,
    },
    /// Owned by the writer running on `owner`.
    Owned {
        /// Slot of the owning thread.
        owner: ThreadSlot,
    },
}

impl OwnedLock {
    /// Raw sample of the lock word.
    #[inline]
    pub fn sample(&self) -> u64 {
        // sync: Acquire pairs with publish()'s Release — a transaction that
        // validates against version v also sees the write-back v stamps.
        self.word.load(Ordering::Acquire)
    }

    /// Decodes a raw sample.
    #[inline]
    pub fn decode(raw: u64) -> OwnedLockState {
        if raw & 1 == 1 {
            OwnedLockState::Owned {
                owner: owned::owner_slot(raw >> 1),
            }
        } else {
            OwnedLockState::Free { version: raw >> 1 }
        }
    }

    /// The stripe record index stored by `slot` if the raw sample shows the
    /// lock owned by `slot`.
    #[inline]
    pub fn owned_record(raw: u64, slot: ThreadSlot) -> Option<usize> {
        if raw & 1 == 1 {
            owned::record_of(raw >> 1, slot)
        } else {
            None
        }
    }

    /// Current state.
    #[inline]
    pub fn state(&self) -> OwnedLockState {
        Self::decode(self.sample())
    }

    /// Returns `true` if the lock is currently owned by `slot`.
    #[inline]
    pub fn is_owned_by(&self, slot: ThreadSlot) -> bool {
        Self::owned_record(self.sample(), slot).is_some()
    }

    /// Tries to acquire the lock for `slot`, naming record 0, expecting
    /// free state with `version`.
    #[inline]
    pub fn try_acquire(&self, slot: ThreadSlot, version: u64) -> bool {
        self.try_acquire_at(slot, version, 0)
    }

    /// Tries to acquire the lock for `slot`, storing the index of the
    /// owner's stripe `record`, expecting free state with `version`.
    #[inline]
    pub fn try_acquire_at(&self, slot: ThreadSlot, version: u64, record: usize) -> bool {
        self.word
            .compare_exchange(
                version << 1,
                owned::owner_word(slot, record) << 1 | 1,
                // sync: AcqRel on success — Acquire orders the new owner
                // after the previous release, Release publishes ownership to
                // conflicting transactions; Acquire on failure because the
                // loser decodes the winner's tag for contention management.
                Ordering::AcqRel,
                Ordering::Acquire,
            )
            .is_ok()
    }

    /// Releases the lock, restoring `version` (abort path).
    #[inline]
    pub fn restore(&self, version: u64) {
        // sync: Release — only the owner stores here; the restored version
        // must not be visible before the owner's rollback stores.
        self.word.store(version << 1, Ordering::Release);
    }

    /// Releases the lock, publishing a new `version` (commit path).
    #[inline]
    pub fn publish(&self, version: u64) {
        // sync: Release publishes the committed write-back before the new
        // version becomes visible (pairs with sample()'s Acquire).
        self.word.store(version << 1, Ordering::Release);
    }
}

/// Transaction descriptor of [`TinyStm`].
///
/// The stripes owned by the transaction — with the version to restore on
/// abort — are the records of the owner-indexed write set; each owned lock
/// word stores its record's index.
#[derive(Debug)]
pub struct TinyDescriptor {
    core: DescriptorCore,
    /// Snapshot timestamp (start or last successful extension).
    valid_ts: u64,
    read_log: ReadLog,
    write_set: OwnedWriteSet,
    doomed: bool,
}

impl TxDescriptor for TinyDescriptor {
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

/// Builder for [`TinyStm`] instances.
#[derive(Debug)]
pub struct TinyStmBuilder {
    config: StmConfig,
    cm: Option<CmHandle>,
}

impl TinyStmBuilder {
    /// Starts a builder with the default configuration.
    pub fn new() -> Self {
        TinyStmBuilder {
            config: StmConfig::benchmark(),
            cm: None,
        }
    }

    /// Sets the heap and lock-table configuration.
    pub fn config(mut self, config: StmConfig) -> Self {
        self.config = config;
        self
    }

    /// Replaces the contention manager (default: [`Timid`]).
    pub fn contention_manager(mut self, cm: CmHandle) -> Self {
        self.cm = Some(cm);
        self
    }

    /// Builds the STM instance.
    pub fn build(self) -> TinyStm {
        TinyStm {
            heap: TmHeap::new(self.config.heap),
            registry: ThreadRegistry::new(),
            lock_table: LockTable::new(self.config.lock_table),
            clock: TxClock::new(self.config.clock),
            cm: self.cm.unwrap_or_else(|| Arc::new(Timid::new())),
        }
    }
}

impl Default for TinyStmBuilder {
    fn default() -> Self {
        TinyStmBuilder::new()
    }
}

/// The TinySTM software transactional memory (encounter-time locking).
pub struct TinyStm {
    heap: TmHeap,
    registry: ThreadRegistry,
    lock_table: LockTable<OwnedLock>,
    clock: TxClock,
    cm: CmHandle,
}

impl std::fmt::Debug for TinyStm {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("TinyStm")
            .field("lock_table_entries", &self.lock_table.len())
            .field("clock", &self.clock.read())
            .field("cm", &self.cm.name())
            .finish()
    }
}

impl TinyStm {
    /// Creates an instance with the benchmark configuration.
    pub fn new() -> Self {
        TinyStmBuilder::new().build()
    }

    /// Creates an instance with an explicit configuration.
    pub fn with_config(config: StmConfig) -> Self {
        TinyStmBuilder::new().config(config).build()
    }

    /// Returns a builder for customised instances.
    pub fn builder() -> TinyStmBuilder {
        TinyStmBuilder::new()
    }

    /// Current value of the global clock.
    pub fn clock_value(&self) -> u64 {
        self.clock.read()
    }

    /// The configured commit-clock mode.
    pub fn clock_mode(&self) -> stm_core::config::ClockMode {
        self.clock.mode()
    }

    /// The lock table, exposed for diagnostics and for deterministic
    /// conflict rigs that stage stuck locks (see
    /// `stm_core::testkit::RecordingCm`). Application code never needs it.
    pub fn lock_table(&self) -> &LockTable<OwnedLock> {
        &self.lock_table
    }

    fn shared_of(&self, slot: ThreadSlot) -> &Arc<TxShared> {
        self.registry.shared(slot)
    }

    /// Validates a slice of read-log entries. A stripe we own hides its
    /// version behind the lock, but the lock word names our record, whose
    /// version at acquisition must equal the one the read observed —
    /// otherwise another transaction committed in between.
    fn entries_valid(
        &self,
        slot: ThreadSlot,
        write_set: &OwnedWriteSet,
        entries: &[ReadEntry],
    ) -> bool {
        for entry in entries {
            let raw = self.lock_table.entry_at(entry.lock_index).sample();
            if raw == entry.version << 1 {
                continue;
            }
            match OwnedLock::owned_record(raw, slot) {
                Some(record) if write_set.version(record) == entry.version => {}
                _ => return false,
            }
        }
        true
    }

    /// Full read-set validation (used by the commit path).
    fn validate(&self, desc: &TinyDescriptor) -> bool {
        self.entries_valid(desc.core.slot, &desc.write_set, desc.read_log.entries())
    }

    /// Snapshot extension (the LSA scheme). [`ReadLog::extend_with`] orders
    /// the work — fresh suffix first, then the opacity-mandated
    /// re-confirmation of the validated prefix.
    fn extend(&self, desc: &mut TinyDescriptor) -> bool {
        let ts = self.clock.read();
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

    /// Restores every owned stripe's pre-acquisition version. The stripe
    /// records themselves are cleared with the write set by the caller.
    fn release_locks(&self, desc: &mut TinyDescriptor) {
        for stripe in desc.write_set.stripes() {
            self.lock_table
                .entry_at(stripe.lock_index)
                .restore(stripe.version);
        }
    }

    fn doom(&self, desc: &mut TinyDescriptor, abort: Abort) -> Abort {
        self.release_locks(desc);
        desc.read_log.clear();
        desc.write_set.clear();
        desc.doomed = true;
        abort
    }
}

impl Default for TinyStm {
    fn default() -> Self {
        TinyStm::new()
    }
}

impl TmAlgorithm for TinyStm {
    type Descriptor = TinyDescriptor;

    fn name(&self) -> &'static str {
        "TinySTM"
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

    fn create_descriptor(&self, slot: ThreadSlot) -> TinyDescriptor {
        TinyDescriptor {
            core: DescriptorCore::new(slot, Arc::clone(self.shared_of(slot))),
            valid_ts: 0,
            read_log: ReadLog::new(),
            write_set: OwnedWriteSet::new(),
            doomed: false,
        }
    }

    fn begin(&self, desc: &mut TinyDescriptor, is_restart: bool) {
        desc.core.reset_attempt();
        desc.read_log.clear();
        desc.write_set.clear();
        desc.doomed = false;
        desc.valid_ts = self.clock.read();
        self.cm.on_start(&desc.core.shared, is_restart);
    }

    fn read(&self, desc: &mut TinyDescriptor, addr: Addr) -> TxResult<Word> {
        if desc.doomed {
            return Err(Abort::EXPLICIT);
        }
        if desc.core.shared.abort_requested() {
            return Err(self.doom(desc, Abort::REMOTE));
        }
        desc.core.attempt_reads += 1;

        let lock_index = self.lock_table.index_of(addr);
        let lock = self.lock_table.entry_at(lock_index);

        // Read from our own redo log if we own the stripe: the lock word
        // names the record holding our writes to it.
        let pre = lock.sample();
        if let Some(record) = OwnedLock::owned_record(pre, desc.core.slot) {
            return Ok(desc
                .write_set
                .lookup(record, addr)
                .unwrap_or_else(|| self.heap.load(addr)));
        }

        // Eager read/write conflict detection: a stripe owned by another
        // writer aborts the reader immediately (TinySTM encounter-time
        // locking behaviour the paper contrasts with SwissTM).
        match OwnedLock::decode(pre) {
            OwnedLockState::Owned { .. } => {
                return Err(self.doom(desc, Abort::READ_LOCKED));
            }
            OwnedLockState::Free { .. } => {}
        }
        let value = self.heap.load(addr);
        let post = lock.sample();
        if pre != post {
            return Err(self.doom(desc, Abort::READ_VALIDATION));
        }
        let version = match OwnedLock::decode(post) {
            OwnedLockState::Free { version } => version,
            OwnedLockState::Owned { .. } => {
                return Err(self.doom(desc, Abort::READ_LOCKED));
            }
        };

        desc.read_log.push(lock_index, version);
        self.cm.on_read(&desc.core.shared, desc.read_log.len());

        if version > desc.valid_ts {
            // Fold the fresh version into a deferred clock before extending,
            // so the new snapshot reaches at least this stripe's version.
            self.clock.observe(version);
            if !self.extend(desc) {
                return Err(self.doom(desc, Abort::READ_VALIDATION));
            }
        }
        Ok(value)
    }

    fn write(&self, desc: &mut TinyDescriptor, addr: Addr, value: Word) -> TxResult<()> {
        if desc.doomed {
            return Err(Abort::EXPLICIT);
        }
        if desc.core.shared.abort_requested() {
            return Err(self.doom(desc, Abort::REMOTE));
        }
        desc.core.attempt_writes += 1;

        let lock_index = self.lock_table.index_of(addr);
        let lock = self.lock_table.entry_at(lock_index);

        if let Some(record) = OwnedLock::owned_record(lock.sample(), desc.core.slot) {
            desc.write_set.write(record, addr, value);
            return Ok(());
        }

        // Encounter-time acquisition with contention management; the lock
        // word we install names our next stripe record. The owner seen here
        // is never us: only this thread stores our tag, and it saw none
        // above. The wait timer starts lazily on the first contended
        // iteration and records the loop's wall-clock time on every exit
        // path.
        let record = desc.write_set.next_record();
        let mut wait_timer: Option<WaitTimer> = None;
        let version = loop {
            match lock.state() {
                OwnedLockState::Free { version } => {
                    if lock.try_acquire_at(desc.core.slot, version, record) {
                        break version;
                    }
                }
                OwnedLockState::Owned { owner } => {
                    if wait_timer.is_none() {
                        wait_timer = Some(WaitTimer::start(&desc.core.shared));
                    }
                    match telemetry::resolve_recorded(
                        &*self.cm,
                        &desc.core.shared,
                        self.shared_of(owner),
                        ConflictSite::Write,
                    ) {
                        Resolution::AbortSelf => {
                            return Err(self.doom(desc, Abort::WRITE_CONFLICT));
                        }
                        Resolution::AbortOther | Resolution::Wait => stm_core::sync::spin_loop(),
                    }
                    if desc.core.shared.abort_requested() {
                        return Err(self.doom(desc, Abort::REMOTE));
                    }
                }
            }
        };
        drop(wait_timer);

        desc.write_set.push_stripe(lock_index, version);
        desc.write_set.write(record, addr, value);
        self.cm
            .on_write(&desc.core.shared, desc.write_set.stripe_count());

        if version > desc.valid_ts {
            self.clock.observe(version);
            if !self.extend(desc) {
                return Err(self.doom(desc, Abort::READ_VALIDATION));
            }
        }
        Ok(())
    }

    fn commit(&self, desc: &mut TinyDescriptor) -> TxResult<()> {
        if desc.doomed {
            return Err(Abort::EXPLICIT);
        }
        if desc.core.shared.abort_requested() {
            return Err(self.doom(desc, Abort::REMOTE));
        }
        if desc.write_set.is_empty() {
            desc.read_log.clear();
            return Ok(());
        }

        // Stamped with the whole write set already owned (encounter-time
        // locking): a deferred clock's committer-side fence sits between
        // those acquisitions and its clock read (see `TxClock`).
        let stamp = self.clock.commit_stamp(desc.valid_ts);
        let ts = stamp.ts;
        if stamp.needs_validation() && !self.validate(desc) {
            return Err(self.doom(desc, Abort::READ_VALIDATION));
        }

        for entry in desc.write_set.entries() {
            self.heap.store(entry.addr, entry.value);
        }
        for stripe in desc.write_set.stripes() {
            self.lock_table.entry_at(stripe.lock_index).publish(ts);
        }
        desc.read_log.clear();
        desc.write_set.clear();
        Ok(())
    }

    fn rollback(&self, desc: &mut TinyDescriptor) {
        self.release_locks(desc);
        desc.read_log.clear();
        desc.write_set.clear();
        desc.doomed = false;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use stm_core::config::StmConfig;
    use stm_core::tm::ThreadContext;

    fn small_stm() -> Arc<TinyStm> {
        Arc::new(TinyStm::with_config(StmConfig::small()))
    }

    #[test]
    fn read_your_own_writes() {
        let stm = small_stm();
        let addr = stm.heap().alloc_zeroed(1).unwrap();
        let mut ctx = ThreadContext::register(stm);
        let v = ctx
            .atomically(|tx| {
                tx.write(addr, 3)?;
                tx.read(addr)
            })
            .unwrap();
        assert_eq!(v, 3);
    }

    #[test]
    fn eager_acquisition_locks_the_stripe_before_commit() {
        let stm = small_stm();
        let addr = stm.heap().alloc_zeroed(1).unwrap();
        let probe = Arc::clone(&stm);
        let mut ctx = ThreadContext::register(Arc::clone(&stm)).with_retry_budget(1);
        let _ = ctx.atomically(|tx| {
            tx.write(addr, 1)?;
            // Encounter-time locking: the stripe is owned right now even
            // though the transaction has not committed.
            let lock = probe.lock_table.entry(addr);
            assert!(matches!(lock.state(), OwnedLockState::Owned { .. }));
            tx.retry::<()>()
        });
        // After the abort the lock must have been restored.
        let lock = stm.lock_table.entry(addr);
        assert!(matches!(lock.state(), OwnedLockState::Free { .. }));
        assert_eq!(stm.heap().load(addr), 0);
    }

    #[test]
    fn counter_is_consistent_under_concurrency() {
        let stm = Arc::new(TinyStm::with_config(StmConfig::small()));
        let addr = stm.heap().alloc_zeroed(1).unwrap();
        let handles: Vec<_> = (0..4)
            .map(|_| {
                let stm = Arc::clone(&stm);
                std::thread::spawn(move || {
                    let mut ctx = ThreadContext::register(stm);
                    for _ in 0..500 {
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
        assert_eq!(stm.heap().load(addr), 2000);
    }

    #[test]
    fn owned_lock_encoding_round_trips() {
        let lock = OwnedLock::default();
        assert_eq!(lock.state(), OwnedLockState::Free { version: 0 });
        assert!(lock.try_acquire(ThreadSlot::new(2), 0));
        assert!(lock.is_owned_by(ThreadSlot::new(2)));
        assert!(!lock.is_owned_by(ThreadSlot::new(1)));
        lock.publish(4);
        assert_eq!(lock.state(), OwnedLockState::Free { version: 4 });
        assert!(!lock.try_acquire(ThreadSlot::new(2), 3));
    }

    #[test]
    fn record_index_round_trips_without_naming_other_owners() {
        let last = ThreadSlot::new(stm_core::clock::MAX_THREADS - 1);
        for (slot, record) in [(last, 0), (last, 1 << 40), (ThreadSlot::new(0), 65)] {
            let lock = OwnedLock::default();
            lock.publish(7);
            assert!(lock.try_acquire_at(slot, 7, record));
            assert_eq!(OwnedLock::owned_record(lock.sample(), slot), Some(record));
            assert_eq!(lock.state(), OwnedLockState::Owned { owner: slot });
            for other in (0..stm_core::clock::MAX_THREADS).map(ThreadSlot::new) {
                if other != slot {
                    assert!(!lock.is_owned_by(other));
                    assert_eq!(OwnedLock::owned_record(lock.sample(), other), None);
                }
            }
            lock.restore(7);
            assert_eq!(lock.state(), OwnedLockState::Free { version: 7 });
            assert_eq!(OwnedLock::owned_record(lock.sample(), slot), None);
        }
    }

    #[test]
    fn money_transfer_preserves_the_total() {
        let stm = Arc::new(TinyStm::with_config(StmConfig::small()));
        let accounts = 8usize;
        let base = stm.heap().alloc_zeroed(accounts).unwrap();
        for i in 0..accounts {
            stm.heap().store(base.offset(i), 1000);
        }
        let handles: Vec<_> = (0..4)
            .map(|t| {
                let stm = Arc::clone(&stm);
                std::thread::spawn(move || {
                    let mut ctx = ThreadContext::register(stm);
                    let mut rng = stm_core::backoff::FastRng::new(t as u64 + 21);
                    for _ in 0..400 {
                        let from = rng.next_below(accounts as u64) as usize;
                        let to = rng.next_below(accounts as u64) as usize;
                        ctx.atomically(|tx| {
                            let f = tx.read(base.offset(from))?;
                            let t_bal = tx.read(base.offset(to))?;
                            if from != to && f >= 10 {
                                tx.write(base.offset(from), f - 10)?;
                                tx.write(base.offset(to), t_bal + 10)?;
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
        assert_eq!(total, 8000);
    }

    #[test]
    fn clock_advances_once_per_update_transaction() {
        let stm = small_stm();
        let addr = stm.heap().alloc_zeroed(1).unwrap();
        let mut ctx = ThreadContext::register(Arc::clone(&stm));
        let before = stm.clock_value();
        ctx.atomically(|tx| tx.read(addr)).unwrap();
        assert_eq!(stm.clock_value(), before);
        ctx.atomically(|tx| tx.write(addr, 1)).unwrap();
        assert_eq!(stm.clock_value(), before + 1);
    }

    #[test]
    fn builder_accepts_custom_cm() {
        let stm = TinyStm::builder()
            .config(StmConfig::small())
            .contention_manager(Arc::new(stm_core::cm::Timid::with_backoff()))
            .build();
        assert_eq!(stm.contention_manager().name(), "timid+backoff");
    }
}
