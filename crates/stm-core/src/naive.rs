//! A trivial single-global-lock "STM".
//!
//! [`NaiveGlobalLockTm`] serialises every non-read-only transaction behind
//! one spin lock. It exists for two reasons:
//!
//! 1. it exercises the [`crate::tm::ThreadContext`] driver in this crate's
//!    own tests without depending on the real algorithms, and
//! 2. it is the "all shared objects protected by a single global lock"
//!    strawman the paper's introduction contrasts TMs against, so the
//!    harness can use it as a sanity baseline.
//!
//! It is intentionally *not* efficient: writes take the global lock eagerly
//! and hold it until commit.

use crate::sync::{AtomicBool, Ordering};
use std::sync::Arc;

use crate::clock::{ThreadRegistry, ThreadSlot};
use crate::cm::{ContentionManager, Timid};
use crate::config::HeapConfig;
use crate::error::TxResult;
use crate::heap::TmHeap;
use crate::logs::WriteLog;
use crate::tm::{DescriptorCore, TmAlgorithm, TxDescriptor};
use crate::word::{Addr, Word};

/// Transaction descriptor of [`NaiveGlobalLockTm`].
#[derive(Debug)]
pub struct NaiveDescriptor {
    core: DescriptorCore,
    write_log: WriteLog,
    holds_lock: bool,
}

impl TxDescriptor for NaiveDescriptor {
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

/// A single-global-lock transactional memory (sanity baseline).
#[derive(Debug)]
pub struct NaiveGlobalLockTm {
    heap: TmHeap,
    registry: ThreadRegistry,
    cm: Timid,
    lock: AtomicBool,
}

impl NaiveGlobalLockTm {
    /// Creates an instance with its own heap.
    pub fn new(heap_config: HeapConfig) -> Self {
        NaiveGlobalLockTm {
            heap: TmHeap::new(heap_config),
            registry: ThreadRegistry::new(),
            cm: Timid::new(),
            lock: AtomicBool::new(false),
        }
    }

    fn acquire_global_lock(&self, desc: &mut NaiveDescriptor) {
        if desc.holds_lock {
            return;
        }
        while self
            .lock
            // sync: AcqRel on success — Acquire makes the lock holder see
            // the previous holder's writes, Release is not needed for the
            // acquisition itself but comes free with the RMW; Relaxed on
            // failure because a failed attempt only spins again.
            .compare_exchange_weak(false, true, Ordering::AcqRel, Ordering::Relaxed)
            .is_err()
        {
            crate::sync::spin_loop();
        }
        desc.holds_lock = true;
    }

    fn release_global_lock(&self, desc: &mut NaiveDescriptor) {
        if desc.holds_lock {
            // sync: Release publishes the critical-section writes to the
            // next Acquire lock holder.
            self.lock.store(false, Ordering::Release);
            desc.holds_lock = false;
        }
    }
}

impl TmAlgorithm for NaiveGlobalLockTm {
    type Descriptor = NaiveDescriptor;

    fn name(&self) -> &'static str {
        "global-lock"
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

    fn create_descriptor(&self, slot: ThreadSlot) -> NaiveDescriptor {
        NaiveDescriptor {
            core: DescriptorCore::new(slot, Arc::clone(self.registry.shared(slot))),
            write_log: WriteLog::new(),
            holds_lock: false,
        }
    }

    fn begin(&self, desc: &mut NaiveDescriptor, _is_restart: bool) {
        desc.core.reset_attempt();
        desc.write_log.clear();
        // A single global lock serialises *all* transactions (including
        // read-only ones): this is the strawman baseline, not an optimised
        // STM, and taking the lock up front is what makes it trivially
        // opaque.
        self.acquire_global_lock(desc);
    }

    fn read(&self, desc: &mut NaiveDescriptor, addr: Addr) -> TxResult<Word> {
        desc.core.attempt_reads += 1;
        if let Some(value) = desc.write_log.lookup(addr) {
            return Ok(value);
        }
        // The global lock is held for the whole transaction, so reading the
        // committed state directly is trivially consistent.
        Ok(self.heap.load(addr))
    }

    fn write(&self, desc: &mut NaiveDescriptor, addr: Addr, value: Word) -> TxResult<()> {
        desc.core.attempt_writes += 1;
        desc.write_log.record(addr, value);
        Ok(())
    }

    fn commit(&self, desc: &mut NaiveDescriptor) -> TxResult<()> {
        for entry in desc.write_log.iter() {
            self.heap.store(entry.addr, entry.value);
        }
        desc.write_log.clear();
        self.release_global_lock(desc);
        Ok(())
    }

    fn rollback(&self, desc: &mut NaiveDescriptor) {
        desc.write_log.clear();
        self.release_global_lock(desc);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::tm::ThreadContext;

    #[test]
    fn counter_increments_across_threads() {
        let stm = Arc::new(NaiveGlobalLockTm::new(HeapConfig::small()));
        let addr = stm.heap().alloc_zeroed(1).unwrap();
        let threads: Vec<_> = (0..4)
            .map(|_| {
                let stm = Arc::clone(&stm);
                std::thread::spawn(move || {
                    let mut ctx = ThreadContext::register(stm);
                    for _ in 0..250 {
                        ctx.atomically(|tx| {
                            let v = tx.read(addr)?;
                            tx.write(addr, v + 1)
                        })
                        .unwrap();
                    }
                })
            })
            .collect();
        for t in threads {
            t.join().unwrap();
        }
        assert_eq!(stm.heap().load(addr), 1000);
    }

    #[test]
    fn rollback_releases_the_global_lock() {
        let stm = Arc::new(NaiveGlobalLockTm::new(HeapConfig::small()));
        let addr = stm.heap().alloc_zeroed(1).unwrap();
        let mut ctx = ThreadContext::register(Arc::clone(&stm)).with_retry_budget(1);
        let _ = ctx.atomically(|tx| {
            tx.write(addr, 9)?;
            tx.retry::<()>()
        });
        // If the lock leaked, this second transaction would deadlock.
        let mut ctx2 = ThreadContext::register(stm);
        ctx2.atomically(|tx| tx.write(addr, 3)).unwrap();
        assert_eq!(ctx2.read_word(addr).unwrap(), 3);
    }

    #[test]
    fn read_after_write_sees_own_update() {
        let stm = Arc::new(NaiveGlobalLockTm::new(HeapConfig::small()));
        let addr = stm.heap().alloc_zeroed(1).unwrap();
        let mut ctx = ThreadContext::register(stm);
        let observed = ctx
            .atomically(|tx| {
                tx.write(addr, 42)?;
                tx.read(addr)
            })
            .unwrap();
        assert_eq!(observed, 42);
    }
}
