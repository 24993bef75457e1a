//! # TL2 baseline
//!
//! A reproduction of **Transactional Locking II** (Dice, Shalev and Shavit,
//! DISC 2006), the lazy, commit-time-locking, word-based STM the paper uses
//! as its "pure lazy" baseline.
//!
//! Key properties (paper §2.1 and §5):
//!
//! * **Lazy acquisition / commit-time locking.** Writes are buffered in a
//!   redo log; the per-stripe versioned locks are only acquired during
//!   commit. Write/write conflicts are therefore detected *late*, which is
//!   exactly the behaviour the paper criticises for long transactions
//!   (work performed after the conflict materialises is wasted).
//! * **Invisible reads with a global version clock.** A transaction samples
//!   the global clock at start (`rv`); every read checks that the stripe's
//!   version is not newer than `rv` and that the stripe is unlocked,
//!   otherwise the transaction aborts (original TL2 does not extend its
//!   snapshot).
//! * **Timid contention management.** On any conflict the transaction
//!   aborts itself, optionally after a short back-off.
//!
//! The implementation is generic over the contention manager so the
//! dissection experiments can plug other policies, but the default is the
//! paper's (timid).
//!
//! # Example
//!
//! ```
//! use std::sync::Arc;
//! use stm_core::prelude::*;
//! use tl2::Tl2;
//!
//! let stm = Arc::new(Tl2::with_config(stm_core::config::StmConfig::small()));
//! let cell = stm.heap().alloc_zeroed(1).unwrap();
//! let mut ctx = ThreadContext::register(stm);
//! ctx.atomically(|tx| tx.write(cell, 5)).unwrap();
//! assert_eq!(ctx.read_word(cell).unwrap(), 5);
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
use stm_core::logs::{ReadLog, StripeSet, WriteLog};
use stm_core::telemetry::{self, ConflictSite, WaitTimer};
use stm_core::tm::{DescriptorCore, TmAlgorithm, TxDescriptor};
use stm_core::word::{Addr, Word};

/// A TL2 versioned lock: `version << 1` when free, `owner_tag << 1 | 1`
/// while held during a commit.
#[derive(Debug, Default)]
pub struct VersionedLock {
    word: AtomicU64,
}

/// Decoded state of a [`VersionedLock`].
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum LockState {
    /// The stripe is unlocked; `version` is its current version.
    Free {
        /// Commit timestamp of the stripe's last writer.
        version: u64,
    },
    /// The stripe is locked by the transaction on `owner`.
    Held {
        /// Slot of the owning thread.
        owner: ThreadSlot,
    },
}

impl VersionedLock {
    #[inline]
    fn owner_tag(slot: ThreadSlot) -> u64 {
        ((slot.index() as u64) + 1) << 1 | 1
    }

    /// Raw sample of the lock word.
    #[inline]
    pub fn sample(&self) -> u64 {
        // sync: Acquire pairs with publish()'s Release — a transaction that
        // validates against version v also sees the write-back v stamps.
        self.word.load(Ordering::Acquire)
    }

    /// Decodes a raw sample.
    #[inline]
    pub fn decode(raw: u64) -> LockState {
        if raw & 1 == 1 {
            LockState::Held {
                owner: ThreadSlot::new(((raw >> 1) - 1) as usize),
            }
        } else {
            LockState::Free { version: raw >> 1 }
        }
    }

    /// Current state.
    #[inline]
    pub fn state(&self) -> LockState {
        Self::decode(self.sample())
    }

    /// Tries to lock the stripe for `slot`, expecting the currently observed
    /// free `version`. Returns `true` on success.
    #[inline]
    pub fn try_lock(&self, slot: ThreadSlot, version: u64) -> bool {
        self.word
            .compare_exchange(
                version << 1,
                Self::owner_tag(slot),
                // sync: AcqRel on success — Acquire orders the new owner
                // after the previous release, Release publishes ownership to
                // conflicting transactions; Acquire on failure because the
                // loser decodes the winner's tag for contention management.
                Ordering::AcqRel,
                Ordering::Acquire,
            )
            .is_ok()
    }

    /// Unlocks, restoring the pre-lock version (commit failed).
    #[inline]
    pub fn restore(&self, version: u64) {
        // sync: Release — only the owner stores here; the restored version
        // must not be visible before the owner's rollback stores.
        self.word.store(version << 1, Ordering::Release);
    }

    /// Unlocks, publishing a new version (commit succeeded).
    #[inline]
    pub fn publish(&self, version: u64) {
        // sync: Release publishes the committed write-back before the new
        // version becomes visible (pairs with sample()'s Acquire).
        self.word.store(version << 1, Ordering::Release);
    }
}

/// Transaction descriptor of [`Tl2`].
#[derive(Debug)]
pub struct Tl2Descriptor {
    core: DescriptorCore,
    /// Read version: global-clock sample taken at transaction start.
    rv: u64,
    read_log: ReadLog,
    write_log: WriteLog,
    /// Stripes locked during the current commit attempt, with the version to
    /// restore on failure (O(1) lookup during read-set validation).
    commit_locked: StripeSet,
    /// Reusable scratch buffer holding the write-set stripes in the global
    /// acquisition order used by commit (sorted to avoid deadlocks between
    /// concurrent committers).
    commit_order: Vec<usize>,
    doomed: bool,
}

impl TxDescriptor for Tl2Descriptor {
    fn core(&self) -> &DescriptorCore {
        &self.core
    }

    fn core_mut(&mut self) -> &mut DescriptorCore {
        &mut self.core
    }

    fn is_read_only(&self) -> bool {
        self.write_log.is_empty()
    }
}

/// Builder for [`Tl2`] instances.
#[derive(Debug)]
pub struct Tl2Builder {
    config: StmConfig,
    cm: Option<CmHandle>,
}

impl Tl2Builder {
    /// Starts a builder with the default (paper) configuration.
    pub fn new() -> Self {
        Tl2Builder {
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
    pub fn build(self) -> Tl2 {
        Tl2 {
            heap: TmHeap::new(self.config.heap),
            registry: ThreadRegistry::new(),
            lock_table: LockTable::new(self.config.lock_table),
            clock: TxClock::new(self.config.clock),
            cm: self.cm.unwrap_or_else(|| Arc::new(Timid::new())),
        }
    }
}

impl Default for Tl2Builder {
    fn default() -> Self {
        Tl2Builder::new()
    }
}

/// The TL2 software transactional memory (lazy / commit-time locking).
pub struct Tl2 {
    heap: TmHeap,
    registry: ThreadRegistry,
    lock_table: LockTable<VersionedLock>,
    clock: TxClock,
    cm: CmHandle,
}

impl std::fmt::Debug for Tl2 {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Tl2")
            .field("lock_table_entries", &self.lock_table.len())
            .field("clock", &self.clock.read())
            .field("cm", &self.cm.name())
            .finish()
    }
}

impl Tl2 {
    /// Creates an instance with the benchmark configuration.
    pub fn new() -> Self {
        Tl2Builder::new().build()
    }

    /// Creates an instance with an explicit configuration.
    pub fn with_config(config: StmConfig) -> Self {
        Tl2Builder::new().config(config).build()
    }

    /// Returns a builder for customised instances.
    pub fn builder() -> Tl2Builder {
        Tl2Builder::new()
    }

    /// The lock table, exposed for diagnostics and for deterministic
    /// conflict rigs that stage stuck locks (see
    /// `stm_core::testkit::RecordingCm`). Application code never needs it.
    pub fn lock_table(&self) -> &LockTable<VersionedLock> {
        &self.lock_table
    }

    /// Current value of the global version clock.
    pub fn clock_value(&self) -> u64 {
        self.clock.read()
    }

    /// The configured commit-clock mode.
    pub fn clock_mode(&self) -> stm_core::config::ClockMode {
        self.clock.mode()
    }

    fn shared_of(&self, slot: ThreadSlot) -> &Arc<TxShared> {
        self.registry.shared(slot)
    }

    /// Validates the read set: every read stripe must be free (or locked by
    /// this transaction during commit) with a version not newer than the
    /// transaction's read version.
    fn validate(&self, desc: &Tl2Descriptor) -> bool {
        for entry in desc.read_log.iter() {
            let lock = self.lock_table.entry_at(entry.lock_index);
            match lock.state() {
                LockState::Free { version } => {
                    if version > desc.rv {
                        // Classic GV5 catch-up: fold the too-new version
                        // into a deferred clock so the retry's snapshot
                        // covers it (no-op for the strict clock).
                        self.clock.observe(version);
                        return false;
                    }
                }
                LockState::Held { owner } => {
                    if owner != desc.core.slot {
                        return false;
                    }
                    // We locked the stripe during this commit; the version it
                    // carried just before we locked it must still be covered
                    // by our read version, otherwise another transaction
                    // committed it after our snapshot.
                    match desc.commit_locked.version_of(entry.lock_index) {
                        Some(version) if version <= desc.rv => {}
                        _ => return false,
                    }
                }
            }
        }
        true
    }

    fn release_commit_locks(&self, desc: &mut Tl2Descriptor) {
        for stripe in desc.commit_locked.iter() {
            self.lock_table
                .entry_at(stripe.lock_index)
                .restore(stripe.version);
        }
        desc.commit_locked.clear();
    }

    /// Locks every stripe in `order` for the committing transaction,
    /// consulting the contention manager on conflicts. Successfully locked
    /// stripes are recorded in `commit_locked` (with their pre-lock version)
    /// so the caller can release them on any failure path.
    fn lock_write_set(&self, desc: &mut Tl2Descriptor, order: &[usize]) -> TxResult<()> {
        for &lock_index in order {
            let lock = self.lock_table.entry_at(lock_index);
            // Per-stripe lazily started wait timer, scoped exactly like the
            // encounter-time STMs' timers: it covers one conflict episode
            // (first contended attempt until this stripe is resolved either
            // way) and drops at the end of the stripe's iteration, so
            // uncontended acquisitions of the remaining write set are never
            // billed as CM wait time.
            let mut wait_timer: Option<WaitTimer> = None;
            loop {
                match lock.state() {
                    LockState::Free { version } => {
                        if lock.try_lock(desc.core.slot, version) {
                            desc.commit_locked.insert(lock_index, version);
                            break;
                        }
                    }
                    LockState::Held { owner } => {
                        if owner == desc.core.slot {
                            break;
                        }
                        if wait_timer.is_none() {
                            wait_timer = Some(WaitTimer::start(&desc.core.shared));
                        }
                        match telemetry::resolve_recorded(
                            &*self.cm,
                            &desc.core.shared,
                            self.shared_of(owner),
                            ConflictSite::Commit,
                        ) {
                            Resolution::AbortSelf => {
                                return Err(Abort::WRITE_CONFLICT);
                            }
                            Resolution::AbortOther | Resolution::Wait => {
                                stm_core::sync::spin_loop()
                            }
                        }
                        if desc.core.shared.abort_requested() {
                            return Err(Abort::REMOTE);
                        }
                    }
                }
            }
        }
        Ok(())
    }

    fn doom(&self, desc: &mut Tl2Descriptor, abort: Abort) -> Abort {
        self.release_commit_locks(desc);
        desc.read_log.clear();
        desc.write_log.clear();
        desc.doomed = true;
        abort
    }
}

impl Default for Tl2 {
    fn default() -> Self {
        Tl2::new()
    }
}

impl TmAlgorithm for Tl2 {
    type Descriptor = Tl2Descriptor;

    fn name(&self) -> &'static str {
        "TL2"
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

    fn create_descriptor(&self, slot: ThreadSlot) -> Tl2Descriptor {
        Tl2Descriptor {
            core: DescriptorCore::new(slot, Arc::clone(self.shared_of(slot))),
            rv: 0,
            read_log: ReadLog::new(),
            write_log: WriteLog::new(),
            commit_locked: StripeSet::new(),
            commit_order: Vec::with_capacity(16),
            doomed: false,
        }
    }

    fn begin(&self, desc: &mut Tl2Descriptor, is_restart: bool) {
        desc.core.reset_attempt();
        desc.read_log.clear();
        desc.write_log.clear();
        desc.commit_locked.clear();
        desc.doomed = false;
        desc.rv = self.clock.read();
        self.cm.on_start(&desc.core.shared, is_restart);
    }

    fn read(&self, desc: &mut Tl2Descriptor, addr: Addr) -> TxResult<Word> {
        if desc.doomed {
            return Err(Abort::EXPLICIT);
        }
        if desc.core.shared.abort_requested() {
            return Err(self.doom(desc, Abort::REMOTE));
        }
        desc.core.attempt_reads += 1;

        // Read-after-write from the redo log.
        if let Some(value) = desc.write_log.lookup(addr) {
            return Ok(value);
        }

        let lock_index = self.lock_table.index_of(addr);
        let lock = self.lock_table.entry_at(lock_index);

        // Post-validated read: sample the lock, read the value, sample
        // again; the stripe must be free, unchanged and not newer than rv.
        let pre = lock.sample();
        let value = self.heap.load(addr);
        let post = lock.sample();
        let version = match VersionedLock::decode(post) {
            LockState::Free { version } => version,
            LockState::Held { .. } => {
                return Err(self.doom(desc, Abort::READ_LOCKED));
            }
        };
        if pre != post || version > desc.rv {
            // GV5 catch-up before aborting, so the retry starts with a
            // snapshot that covers the version we just tripped over.
            self.clock.observe(version);
            return Err(self.doom(desc, Abort::READ_VALIDATION));
        }

        desc.read_log.push(lock_index, version);
        self.cm.on_read(&desc.core.shared, desc.read_log.len());
        Ok(value)
    }

    fn write(&self, desc: &mut Tl2Descriptor, addr: Addr, value: Word) -> TxResult<()> {
        if desc.doomed {
            return Err(Abort::EXPLICIT);
        }
        if desc.core.shared.abort_requested() {
            return Err(self.doom(desc, Abort::REMOTE));
        }
        desc.core.attempt_writes += 1;
        // Lazy acquisition: just buffer the write. The stripe set gives the
        // commit path the distinct write-set stripes without a sort+dedup
        // pass over the whole redo log.
        let lock_index = self.lock_table.index_of(addr);
        desc.write_log.record_stripe(lock_index);
        desc.write_log.record(addr, value);
        self.cm.on_write(&desc.core.shared, desc.write_log.len());
        Ok(())
    }

    fn commit(&self, desc: &mut Tl2Descriptor) -> TxResult<()> {
        if desc.doomed {
            return Err(Abort::EXPLICIT);
        }
        if desc.core.shared.abort_requested() {
            return Err(self.doom(desc, Abort::REMOTE));
        }
        if desc.write_log.is_empty() {
            desc.read_log.clear();
            return Ok(());
        }

        // Acquire every write-set stripe (commit-time locking). Write/write
        // conflicts surface only here — the "lazy" behaviour the paper
        // dissects in Figure 6a. The stripes are already distinct (tracked
        // by the write log's stripe set); only the deadlock-avoidance sort
        // remains, on a scratch buffer reused across commits.
        let mut order = std::mem::take(&mut desc.commit_order);
        desc.write_log.sorted_stripe_indices(&mut order);
        let locked = self.lock_write_set(desc, &order);
        desc.commit_order = order;
        if let Err(abort) = locked {
            return Err(self.doom(desc, abort));
        }

        // Stamped after the write set is locked: a deferred clock's
        // committer-side fence sits between the lock stores above and its
        // clock read (see `TxClock`).
        let stamp = self.clock.commit_stamp(desc.rv);
        let wv = stamp.ts;

        // Validate the read set unless nothing could have changed.
        if stamp.needs_validation() && !self.validate(desc) {
            return Err(self.doom(desc, Abort::READ_VALIDATION));
        }

        // Write back and release with the new version.
        for entry in desc.write_log.iter() {
            self.heap.store(entry.addr, entry.value);
        }
        for stripe in desc.commit_locked.iter() {
            self.lock_table.entry_at(stripe.lock_index).publish(wv);
        }
        desc.commit_locked.clear();
        desc.read_log.clear();
        desc.write_log.clear();
        Ok(())
    }

    fn rollback(&self, desc: &mut Tl2Descriptor) {
        self.release_commit_locks(desc);
        desc.read_log.clear();
        desc.write_log.clear();
        desc.doomed = false;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use stm_core::config::StmConfig;
    use stm_core::tm::ThreadContext;

    fn small_stm() -> Arc<Tl2> {
        Arc::new(Tl2::with_config(StmConfig::small()))
    }

    #[test]
    fn read_your_own_writes() {
        let stm = small_stm();
        let addr = stm.heap().alloc_zeroed(1).unwrap();
        let mut ctx = ThreadContext::register(stm);
        let v = ctx
            .atomically(|tx| {
                tx.write(addr, 7)?;
                tx.read(addr)
            })
            .unwrap();
        assert_eq!(v, 7);
    }

    #[test]
    fn writes_are_invisible_until_commit() {
        let stm = small_stm();
        let addr = stm.heap().alloc_zeroed(1).unwrap();
        let heap_view = Arc::clone(&stm);
        let mut ctx = ThreadContext::register(Arc::clone(&stm)).with_retry_budget(1);
        let _ = ctx.atomically(|tx| {
            tx.write(addr, 55)?;
            // Lazy STM: nothing is locked, nothing is written yet.
            assert_eq!(heap_view.heap().load(addr), 0);
            tx.retry::<()>()
        });
        assert_eq!(stm.heap().load(addr), 0);
    }

    #[test]
    fn counter_is_consistent_under_concurrency() {
        let stm = Arc::new(Tl2::with_config(StmConfig::small()));
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
    fn clock_advances_once_per_update_transaction() {
        let stm = small_stm();
        let addr = stm.heap().alloc_zeroed(1).unwrap();
        let mut ctx = ThreadContext::register(Arc::clone(&stm));
        let before = stm.clock_value();
        ctx.atomically(|tx| tx.read(addr)).unwrap();
        assert_eq!(stm.clock_value(), before);
        ctx.atomically(|tx| tx.write(addr, 3)).unwrap();
        assert_eq!(stm.clock_value(), before + 1);
    }

    #[test]
    fn versioned_lock_encoding_round_trips() {
        let lock = VersionedLock::default();
        assert_eq!(lock.state(), LockState::Free { version: 0 });
        assert!(lock.try_lock(ThreadSlot::new(3), 0));
        assert_eq!(
            lock.state(),
            LockState::Held {
                owner: ThreadSlot::new(3)
            }
        );
        lock.publish(9);
        assert_eq!(lock.state(), LockState::Free { version: 9 });
        lock.restore(9);
        assert_eq!(lock.state(), LockState::Free { version: 9 });
    }

    #[test]
    fn try_lock_fails_on_stale_version() {
        let lock = VersionedLock::default();
        lock.publish(5);
        assert!(!lock.try_lock(ThreadSlot::new(0), 4));
        assert!(lock.try_lock(ThreadSlot::new(0), 5));
    }

    #[test]
    fn money_transfer_preserves_the_total() {
        let stm = Arc::new(Tl2::with_config(StmConfig::small()));
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
                    let mut rng = stm_core::backoff::FastRng::new(t as u64 + 11);
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
    fn builder_accepts_custom_cm() {
        let stm = Tl2::builder()
            .config(StmConfig::small())
            .contention_manager(Arc::new(stm_core::cm::Greedy::new()))
            .build();
        assert_eq!(stm.contention_manager().name(), "greedy");
        assert_eq!(
            Tl2::with_config(StmConfig::small())
                .contention_manager()
                .name(),
            "timid"
        );
    }
}
