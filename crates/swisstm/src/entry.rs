//! Lock-table stripe entries: the `r-lock` / `w-lock` pair.
//!
//! Each stripe of consecutive heap words maps to one [`StripeEntry`]
//! (paper §3, §3.3):
//!
//! * the **write lock** (`w-lock`) is `0` when free and otherwise an
//!   [`owner_word`]: the owning thread slot plus the index of the owner's
//!   stripe record in its write set (the paper's pointer to the owner's
//!   write-log entry). It is acquired eagerly with a compare-and-swap at a
//!   transaction's first write to the stripe, and simply overwritten with
//!   `0` on release (only the owner releases it).
//! * the **read lock** (`r-lock`) stores the stripe's version number
//!   shifted left by one (so its least-significant bit is `0`) when
//!   unlocked, and the value `1` while the owning writer is committing.
//!   Only the transaction holding the corresponding write lock ever locks
//!   the read lock, so no compare-and-swap is needed.

use stm_core::sync::{AtomicU64, Ordering};

use stm_core::clock::ThreadSlot;
use stm_core::owned::{owner_slot, owner_word, record_of};

/// Value of an unlocked write lock.
const W_UNLOCKED: u64 = 0;
/// Value of a locked read lock.
const R_LOCKED: u64 = 1;

/// Decoded state of a stripe's write lock.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum WriteLockState {
    /// Nobody owns the stripe.
    Unlocked,
    /// The stripe is owned by the transaction running on this thread slot.
    LockedBy(ThreadSlot),
}

/// Decoded state of a stripe's read lock.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum ReadLockState {
    /// The stripe is not being committed; `version` is its current version.
    Unlocked {
        /// Commit timestamp of the last committed writer of the stripe.
        version: u64,
    },
    /// The owning writer is committing the stripe right now.
    Locked,
}

/// One lock-table entry: the pair of locks guarding a stripe of heap words.
#[derive(Debug, Default)]
pub struct StripeEntry {
    w_lock: AtomicU64,
    r_lock: AtomicU64,
}

impl StripeEntry {
    #[inline]
    fn w_lock_word(&self) -> u64 {
        // sync: Acquire so a transaction that sees an owner tag also sees
        // that owner's descriptor state (pairs with try_acquire_write_at).
        self.w_lock.load(Ordering::Acquire)
    }

    /// Current state of the write lock.
    #[inline]
    pub fn write_lock(&self) -> WriteLockState {
        match self.w_lock_word() {
            W_UNLOCKED => WriteLockState::Unlocked,
            word => WriteLockState::LockedBy(owner_slot(word)),
        }
    }

    /// Returns `true` if the write lock is held by `slot`.
    #[inline]
    pub fn is_write_locked_by(&self, slot: ThreadSlot) -> bool {
        self.owned_record(slot).is_some()
    }

    /// The stripe record index stored by `slot` if `slot` holds the write
    /// lock.
    #[inline]
    pub fn owned_record(&self, slot: ThreadSlot) -> Option<usize> {
        record_of(self.w_lock_word(), slot)
    }

    /// Attempts to acquire the write lock for `slot`, naming record 0.
    /// Returns `true` on success.
    #[inline]
    pub fn try_acquire_write(&self, slot: ThreadSlot) -> bool {
        self.try_acquire_write_at(slot, 0)
    }

    /// Attempts to acquire the write lock for `slot`, storing the index of
    /// the owner's stripe `record`. Returns `true` on success.
    #[inline]
    pub fn try_acquire_write_at(&self, slot: ThreadSlot, record: usize) -> bool {
        self.w_lock
            .compare_exchange(
                W_UNLOCKED,
                owner_word(slot, record),
                // sync: AcqRel on success — Acquire orders the new owner
                // after the previous owner's release, Release publishes the
                // ownership to conflicting readers/writers; Acquire on
                // failure because the loser inspects the winner's tag to
                // pick a contention-management victim.
                Ordering::AcqRel,
                Ordering::Acquire,
            )
            .is_ok()
    }

    /// Releases the write lock. Only the owner may call this.
    #[inline]
    pub fn release_write(&self) {
        // sync: Release so the next acquirer (Acquire CAS) sees the
        // owner's write-back/rollback stores before the lock reads as free.
        self.w_lock.store(W_UNLOCKED, Ordering::Release);
    }

    /// Current state of the read lock.
    #[inline]
    pub fn read_lock(&self) -> ReadLockState {
        // sync: Acquire pairs with publish_version's Release — a reader
        // that observes version v also observes the write-back that v
        // stamps (validation correctness; model-checked in stm-model-tests).
        let raw = self.r_lock.load(Ordering::Acquire);
        if raw & 1 == R_LOCKED {
            ReadLockState::Locked
        } else {
            ReadLockState::Unlocked { version: raw >> 1 }
        }
    }

    /// Raw read-lock word (used by the read-word consistency loop, which
    /// needs to compare two samples for equality regardless of state).
    #[inline]
    pub fn read_lock_raw(&self) -> u64 {
        // sync: Acquire, same edge as read_lock().
        self.r_lock.load(Ordering::Acquire)
    }

    /// Decodes a raw read-lock sample.
    #[inline]
    pub fn decode_read_lock(raw: u64) -> ReadLockState {
        if raw & 1 == R_LOCKED {
            ReadLockState::Locked
        } else {
            ReadLockState::Unlocked { version: raw >> 1 }
        }
    }

    /// Locks the read lock for commit. Only the write-lock owner may call
    /// this; plain stores suffice (paper §3.3).
    #[inline]
    pub fn lock_read(&self) {
        // sync: Release — only the write-lock owner stores here (no CAS
        // needed, paper §3.3); Release keeps the lock-read marker ordered
        // after the owner's prior stores for readers that spin on it.
        self.r_lock.store(R_LOCKED, Ordering::Release);
    }

    /// Restores the read lock to a previously observed version (used when
    /// commit-time validation fails).
    #[inline]
    pub fn restore_read_version(&self, version: u64) {
        // sync: Release — restores the pre-commit version; readers that
        // see it proceed exactly as before the aborted commit.
        self.r_lock.store(version << 1, Ordering::Release);
    }

    /// Publishes a new version (the committing transaction's timestamp) and
    /// thereby unlocks the read lock.
    #[inline]
    pub fn publish_version(&self, version: u64) {
        // sync: Release publishes the committed write-back before the new
        // version becomes visible (pairs with read_lock's Acquire).
        self.r_lock.store(version << 1, Ordering::Release);
    }

    /// Convenience: the current version if unlocked.
    #[inline]
    pub fn version(&self) -> Option<u64> {
        match self.read_lock() {
            ReadLockState::Unlocked { version } => Some(version),
            ReadLockState::Locked => None,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fresh_entry_is_unlocked_with_version_zero() {
        let e = StripeEntry::default();
        assert_eq!(e.write_lock(), WriteLockState::Unlocked);
        assert_eq!(e.read_lock(), ReadLockState::Unlocked { version: 0 });
        assert_eq!(e.version(), Some(0));
    }

    #[test]
    fn write_lock_acquire_release() {
        let e = StripeEntry::default();
        let a = ThreadSlot::new(0);
        let b = ThreadSlot::new(1);
        assert!(e.try_acquire_write(a));
        assert!(e.is_write_locked_by(a));
        assert!(!e.is_write_locked_by(b));
        assert_eq!(e.write_lock(), WriteLockState::LockedBy(a));
        // Second acquisition fails until released.
        assert!(!e.try_acquire_write(b));
        e.release_write();
        assert!(e.try_acquire_write(b));
        assert_eq!(e.write_lock(), WriteLockState::LockedBy(b));
    }

    #[test]
    fn read_lock_version_cycle() {
        let e = StripeEntry::default();
        e.lock_read();
        assert_eq!(e.read_lock(), ReadLockState::Locked);
        assert_eq!(e.version(), None);
        e.publish_version(7);
        assert_eq!(e.read_lock(), ReadLockState::Unlocked { version: 7 });
        e.lock_read();
        e.restore_read_version(7);
        assert_eq!(e.version(), Some(7));
    }

    #[test]
    fn decode_matches_raw_samples() {
        let e = StripeEntry::default();
        e.publish_version(42);
        let raw = e.read_lock_raw();
        assert_eq!(
            StripeEntry::decode_read_lock(raw),
            ReadLockState::Unlocked { version: 42 }
        );
        e.lock_read();
        assert_eq!(
            StripeEntry::decode_read_lock(e.read_lock_raw()),
            ReadLockState::Locked
        );
    }

    #[test]
    fn owner_tags_distinguish_slots() {
        let e = StripeEntry::default();
        assert!(e.try_acquire_write(ThreadSlot::new(5)));
        assert_eq!(e.write_lock(), WriteLockState::LockedBy(ThreadSlot::new(5)));
        assert!(!e.is_write_locked_by(ThreadSlot::new(4)));
    }

    #[test]
    fn record_index_round_trips_without_naming_other_owners() {
        let last = ThreadSlot::new(stm_core::clock::MAX_THREADS - 1);
        for (slot, record) in [(last, 0), (last, 1 << 40), (ThreadSlot::new(0), 65)] {
            let e = StripeEntry::default();
            assert!(e.try_acquire_write_at(slot, record));
            assert_eq!(e.owned_record(slot), Some(record));
            assert_eq!(e.write_lock(), WriteLockState::LockedBy(slot));
            assert!(e.is_write_locked_by(slot));
            for other in (0..stm_core::clock::MAX_THREADS).map(ThreadSlot::new) {
                if other != slot {
                    assert!(!e.is_write_locked_by(other));
                    assert_eq!(e.owned_record(other), None);
                }
            }
            e.release_write();
            assert_eq!(e.owned_record(slot), None);
        }
    }
}
