//! The owner-indexed write set of the encounter-time-locking STMs.
//!
//! SwissTM and TinySTM acquire a stripe's lock at the transaction's first
//! write to it and hold it until commit or rollback. While the lock is
//! held, its word names the owner: [`owner_word`] packs the owner's slot
//! tag into the low [`OWNER_TAG_BITS`] bits and the index of the owner's
//! stripe record in its [`OwnedWriteSet`] above them. This is the paper's
//! Algorithm 1 layout (a locked w-lock points at the owner's write-log
//! entry), so the owner answers "do I hold this stripe, and where are my
//! writes to it?" from the lock word it loads anyway:
//!
//! * write-after-write and read-after-write follow the named record to a
//!   per-stripe chain of entries, at most as long as the number of words
//!   the transaction wrote under that lock entry;
//! * validation of a self-owned stripe compares the named record's
//!   version at acquisition.
//!
//! Other threads only ever need the owner's slot, which the tag bits give
//! them; the record index is meaningful to the owner alone. TL2, RSTM and
//! the naive STM keep the address-indexed [`crate::logs::WriteLog`]: a lazy
//! writer holds no lock whose word could index its writes.

use crate::clock::{ThreadSlot, MAX_THREADS};
use crate::word::{Addr, Word};

/// Number of low bits of an owner word holding the owner's slot tag
/// (`slot + 1`, so a tag is never zero).
pub const OWNER_TAG_BITS: u32 = 7;

const TAG_MASK: u64 = (1 << OWNER_TAG_BITS) - 1;

const _: () = assert!(MAX_THREADS as u64 <= TAG_MASK, "slot tags must fit");

/// Packs the owner `slot` and its stripe `record` index into one word. The
/// result is never zero.
#[inline]
pub const fn owner_word(slot: ThreadSlot, record: usize) -> u64 {
    ((record as u64) << OWNER_TAG_BITS) | (slot.index() as u64 + 1)
}

/// The owner slot named by an owner word.
#[inline]
pub const fn owner_slot(word: u64) -> ThreadSlot {
    ThreadSlot::new((word & TAG_MASK) as usize - 1)
}

/// The owner's record index if `word` names `slot` as its owner.
#[inline]
pub const fn record_of(word: u64, slot: ThreadSlot) -> Option<usize> {
    if word & TAG_MASK == slot.index() as u64 + 1 {
        Some((word >> OWNER_TAG_BITS) as usize)
    } else {
        None
    }
}

/// Marks the end of a stripe's entry chain.
const NIL: usize = usize::MAX;

/// One stripe held by the transaction.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct OwnedStripe {
    /// Index of the lock-table entry.
    pub lock_index: usize,
    /// Version the stripe carried when it was acquired (restored if the
    /// attempt aborts, compared by self-owned validation).
    pub version: u64,
    /// Most recently appended entry of the stripe's chain.
    last: usize,
}

/// One buffered write.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct OwnedEntry {
    /// The written address.
    pub addr: Addr,
    /// The value to install at commit time.
    pub value: Word,
    /// The previous entry of the same stripe.
    prev: usize,
}

/// A redo log indexed by the record numbers the owner stores in its lock
/// words (see the module documentation).
///
/// Stripes are numbered in acquisition order and entries kept in
/// first-write order, so commit and rollback visit each lock once and write
/// back in program order, as with [`crate::logs::WriteLog`].
#[derive(Debug, Default)]
pub struct OwnedWriteSet {
    stripes: Vec<OwnedStripe>,
    entries: Vec<OwnedEntry>,
}

impl OwnedWriteSet {
    /// Creates an empty set.
    pub fn new() -> Self {
        OwnedWriteSet {
            stripes: Vec::with_capacity(16),
            entries: Vec::with_capacity(32),
        }
    }

    /// The record index the next [`OwnedWriteSet::push_stripe`] returns;
    /// the owner stores it in the lock word it is about to acquire.
    #[inline]
    pub fn next_record(&self) -> usize {
        self.stripes.len()
    }

    /// Records a newly acquired stripe with its version at acquisition and
    /// returns its record index.
    #[inline]
    pub fn push_stripe(&mut self, lock_index: usize, version: u64) -> usize {
        self.stripes.push(OwnedStripe {
            lock_index,
            version,
            last: NIL,
        });
        self.stripes.len() - 1
    }

    /// Buffers a write of `value` to `addr` under stripe `record`. Returns
    /// `true` if `addr` had not been written before, `false` if its entry
    /// was updated in place.
    #[inline]
    pub fn write(&mut self, record: usize, addr: Addr, value: Word) -> bool {
        let mut pos = self.stripes[record].last;
        while pos != NIL {
            let entry = &mut self.entries[pos];
            if entry.addr == addr {
                entry.value = value;
                return false;
            }
            pos = entry.prev;
        }
        let stripe = &mut self.stripes[record];
        self.entries.push(OwnedEntry {
            addr,
            value,
            prev: stripe.last,
        });
        stripe.last = self.entries.len() - 1;
        true
    }

    /// The latest value buffered for `addr` under stripe `record`, if any.
    #[inline]
    pub fn lookup(&self, record: usize, addr: Addr) -> Option<Word> {
        let mut pos = self.stripes[record].last;
        while pos != NIL {
            let entry = &self.entries[pos];
            if entry.addr == addr {
                return Some(entry.value);
            }
            pos = entry.prev;
        }
        None
    }

    /// The version stripe `record` carried at acquisition.
    #[inline]
    pub fn version(&self, record: usize) -> u64 {
        self.stripes[record].version
    }

    /// The held stripes in acquisition order.
    #[inline]
    pub fn stripes(&self) -> &[OwnedStripe] {
        &self.stripes
    }

    /// The buffered writes in first-write order.
    #[inline]
    pub fn entries(&self) -> &[OwnedEntry] {
        &self.entries
    }

    /// Number of distinct written addresses.
    #[inline]
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// Returns `true` if nothing has been written.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Number of held stripes.
    #[inline]
    pub fn stripe_count(&self) -> usize {
        self.stripes.len()
    }

    /// Clears the set for the next transaction attempt.
    #[inline]
    pub fn clear(&mut self) {
        self.stripes.clear();
        self.entries.clear();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::backoff::FastRng;
    use crate::logs::WriteLog;

    #[test]
    fn owner_words_round_trip_at_the_edges() {
        let last = ThreadSlot::new(MAX_THREADS - 1);
        let large = usize::MAX >> (OWNER_TAG_BITS + 1);
        for slot in [ThreadSlot::new(0), ThreadSlot::new(1), last] {
            for record in [0, 1, 127, 128, 4096, 1 << 40, large] {
                let word = owner_word(slot, record);
                assert_ne!(word, 0);
                assert_eq!(owner_slot(word), slot);
                assert_eq!(record_of(word, slot), Some(record));
            }
        }
    }

    #[test]
    fn foreign_record_bits_never_name_another_owner() {
        // Record indices whose bits, misread as a tag, would name another
        // slot must not make the word look owned by that slot.
        for owner in 0..MAX_THREADS {
            for other in (0..MAX_THREADS).filter(|&o| o != owner) {
                for record in [0, other, other + 1, (other + 1) << OWNER_TAG_BITS, 1 << 40] {
                    let word = owner_word(ThreadSlot::new(owner), record);
                    assert_eq!(record_of(word, ThreadSlot::new(other)), None);
                }
            }
        }
    }

    #[test]
    fn chains_are_per_stripe_and_clear_resets() {
        let mut set = OwnedWriteSet::new();
        let a = set.push_stripe(10, 3);
        let b = set.push_stripe(11, 4);
        assert!(set.write(a, Addr::new(20), 1));
        assert!(set.write(b, Addr::new(22), 2));
        assert!(set.write(a, Addr::new(21), 3));
        assert!(!set.write(a, Addr::new(20), 5));
        assert_eq!(set.lookup(a, Addr::new(20)), Some(5));
        assert_eq!(set.lookup(a, Addr::new(22)), None, "chains do not mix");
        assert_eq!(set.lookup(b, Addr::new(22)), Some(2));
        assert_eq!((set.version(a), set.version(b)), (3, 4));
        let order: Vec<(usize, Word)> = set
            .entries()
            .iter()
            .map(|e| (e.addr.index(), e.value))
            .collect();
        assert_eq!(order, vec![(20, 5), (22, 2), (21, 3)]);
        assert_eq!((set.len(), set.stripe_count()), (3, 2));
        set.clear();
        assert!(set.is_empty());
        assert_eq!(set.stripe_count(), 0);
        assert_eq!(set.next_record(), 0);
    }

    #[test]
    fn owned_write_set_matches_write_log() {
        // Property-style test with the workspace's seeded FastRng: random
        // write/lookup/clear sequences over addresses sharing stripes must
        // give the answers and entry order of the address-indexed
        // `WriteLog`, and keep each stripe's first version in acquisition
        // order. `owners` plays the lock table: the record index a
        // stripe's lock word would carry.
        let mut rng = FastRng::new(0x0DDB_A115);
        let mut set = OwnedWriteSet::new();
        let mut log = WriteLog::new();
        let mut stripes: Vec<(usize, u64)> = Vec::new();
        let mut owners: Vec<Option<usize>> = vec![None; 48];
        for step in 0..40_000u64 {
            let addr = Addr::new(1 + rng.next_below(96) as usize);
            let lock_index = addr.index() % 48;
            match rng.next_below(100) {
                0..=49 => {
                    let value = rng.next_below(1 << 30);
                    let record = match owners[lock_index] {
                        Some(record) => record,
                        None => {
                            let version = rng.next_below(1 << 20);
                            let record = set.next_record();
                            assert_eq!(set.push_stripe(lock_index, version), record);
                            stripes.push((lock_index, version));
                            owners[lock_index] = Some(record);
                            record
                        }
                    };
                    assert_eq!(
                        set.write(record, addr, value),
                        log.record(addr, value),
                        "write diverged at step {step}"
                    );
                }
                50..=97 => match owners[lock_index] {
                    Some(record) => {
                        assert_eq!(set.lookup(record, addr), log.lookup(addr), "step {step}");
                        assert_eq!(set.version(record), stripes[record].1, "step {step}");
                    }
                    None => assert_eq!(log.lookup(addr), None, "step {step}"),
                },
                _ => {
                    set.clear();
                    log.clear();
                    stripes.clear();
                    owners.iter_mut().for_each(|o| *o = None);
                }
            }
            assert_eq!(set.len(), log.len());
            assert!(set
                .entries()
                .iter()
                .zip(log.iter())
                .all(|(s, l)| s.addr == l.addr && s.value == l.value));
            let held: Vec<(usize, u64)> = set
                .stripes()
                .iter()
                .map(|s| (s.lock_index, s.version))
                .collect();
            assert_eq!(held, stripes, "stripe order diverged at step {step}");
        }
    }
}
