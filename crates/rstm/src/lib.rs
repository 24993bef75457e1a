//! # RSTM-style baseline
//!
//! A reproduction of the **RSTM (version 3)** design point used by the
//! paper: an object-based STM with per-object metadata, configurable
//! *eager vs lazy* acquisition, *visible vs invisible* reads, a global
//! commit-counter validation heuristic and pluggable contention managers
//! (Polka by default, Serializer/Greedy for the STMBench7 experiments).
//!
//! ## Relation to the original
//!
//! The original RSTM manages heap *objects* through an object header with
//! an owner pointer and a visible-reader list. Our workloads live in the
//! shared word heap (see DESIGN.md §2), so the "objects" here are lock-table
//! stripes: every stripe carries an [`ObjectHeader`] with
//!
//! * an **owner** word (the acquiring transaction's slot),
//! * a **visible-readers bitmap** (one bit per thread slot),
//! * a **versioned lock** used for commit-time write-back.
//!
//! This keeps RSTM's cost profile — several metadata words touched per
//! access, reader-bitmap read-modify-writes in visible mode, Polka
//! bookkeeping — which is what drives its relative performance in the
//! paper's Lee-TM and red-black-tree experiments.
//!
//! ## Variants
//!
//! [`RstmVariant`] selects the acquisition strategy and read visibility;
//! the four combinations correspond to the four RSTM algorithm variants the
//! paper mentions in §2.1 and exercises in Figure 7 and Table 1.
//!
//! # Example
//!
//! ```
//! use std::sync::Arc;
//! use stm_core::prelude::*;
//! use rstm::{Rstm, RstmVariant};
//!
//! let stm = Arc::new(
//!     Rstm::builder()
//!         .config(stm_core::config::StmConfig::small())
//!         .variant(RstmVariant::eager_invisible())
//!         .build(),
//! );
//! let cell = stm.heap().alloc_zeroed(1).unwrap();
//! let mut ctx = ThreadContext::register(stm);
//! ctx.atomically(|tx| tx.write(cell, 1)).unwrap();
//! assert_eq!(ctx.read_word(cell).unwrap(), 1);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use std::sync::Arc;
use stm_core::sync::{AtomicU64, Ordering};

use stm_core::clock::{ThreadRegistry, ThreadSlot, TxClock, TxShared};
use stm_core::cm::{CmHandle, ContentionManager, Polka, Resolution};
use stm_core::config::StmConfig;
use stm_core::error::{Abort, TxResult};
use stm_core::heap::TmHeap;
use stm_core::locktable::LockTable;
use stm_core::logs::{ReadEntry, ReadLog, StripeSet, WriteLog};
use stm_core::telemetry::{self, ConflictSite, WaitTimer};
use stm_core::tm::{DescriptorCore, TmAlgorithm, TxDescriptor};
use stm_core::word::{Addr, Word};

/// Acquisition strategy: when does a writer take ownership of an object?
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Acquisition {
    /// At the first write (encounter time).
    Eager,
    /// At commit time.
    Lazy,
}

/// Read visibility: do readers announce themselves in the object header?
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum ReadVisibility {
    /// Readers register in the per-object reader bitmap; writers abort them
    /// when acquiring the object.
    Visible,
    /// Readers leave no trace and validate their read set against object
    /// versions (with the global commit-counter heuristic).
    Invisible,
}

/// An RSTM algorithm variant: acquisition strategy × read visibility.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct RstmVariant {
    /// Acquisition strategy.
    pub acquisition: Acquisition,
    /// Read visibility.
    pub visibility: ReadVisibility,
}

impl RstmVariant {
    /// Eager acquisition, invisible reads (the paper's default RSTM
    /// configuration).
    pub fn eager_invisible() -> Self {
        RstmVariant {
            acquisition: Acquisition::Eager,
            visibility: ReadVisibility::Invisible,
        }
    }

    /// Eager acquisition, visible reads.
    pub fn eager_visible() -> Self {
        RstmVariant {
            acquisition: Acquisition::Eager,
            visibility: ReadVisibility::Visible,
        }
    }

    /// Lazy acquisition, invisible reads.
    pub fn lazy_invisible() -> Self {
        RstmVariant {
            acquisition: Acquisition::Lazy,
            visibility: ReadVisibility::Invisible,
        }
    }

    /// Lazy acquisition, visible reads.
    pub fn lazy_visible() -> Self {
        RstmVariant {
            acquisition: Acquisition::Lazy,
            visibility: ReadVisibility::Visible,
        }
    }

    /// Short label used in experiment tables, e.g. `"eager/invisible"`.
    pub fn label(&self) -> &'static str {
        match (self.acquisition, self.visibility) {
            (Acquisition::Eager, ReadVisibility::Invisible) => "eager/invisible",
            (Acquisition::Eager, ReadVisibility::Visible) => "eager/visible",
            (Acquisition::Lazy, ReadVisibility::Invisible) => "lazy/invisible",
            (Acquisition::Lazy, ReadVisibility::Visible) => "lazy/visible",
        }
    }
}

impl Default for RstmVariant {
    fn default() -> Self {
        RstmVariant::eager_invisible()
    }
}

/// Per-object (per-stripe) metadata header.
#[derive(Debug, Default)]
pub struct ObjectHeader {
    /// Owning writer: 0 when unowned, otherwise thread slot + 1.
    owner: AtomicU64,
    /// Bitmap of visible readers (bit *i* = thread slot *i*).
    readers: AtomicU64,
    /// Versioned lock used for commit-time write-back: `version << 1` when
    /// free, `1` while a writer installs its updates.
    version: AtomicU64,
}

impl ObjectHeader {
    #[inline]
    fn owner_tag(slot: ThreadSlot) -> u64 {
        slot.index() as u64 + 1
    }

    /// Current owner, if any.
    #[inline]
    pub fn owner(&self) -> Option<ThreadSlot> {
        // sync: Acquire so whoever sees an owner tag also sees that
        // owner's descriptor state (pairs with try_acquire's Release).
        match self.owner.load(Ordering::Acquire) {
            0 => None,
            tag => Some(ThreadSlot::new((tag - 1) as usize)),
        }
    }

    /// Returns `true` if `slot` owns this object.
    #[inline]
    pub fn is_owned_by(&self, slot: ThreadSlot) -> bool {
        // sync: Acquire, same edge as owner().
        self.owner.load(Ordering::Acquire) == Self::owner_tag(slot)
    }

    /// Attempts to acquire ownership for `slot`.
    #[inline]
    pub fn try_acquire(&self, slot: ThreadSlot) -> bool {
        self.owner
            .compare_exchange(
                0,
                Self::owner_tag(slot),
                // sync: AcqRel on success — Acquire orders the new owner
                // after the previous release, Release publishes ownership
                // to conflicting transactions; Acquire on failure because
                // the loser reads the winner's tag to fight or wait.
                Ordering::AcqRel,
                Ordering::Acquire,
            )
            .is_ok()
    }

    /// Releases ownership.
    #[inline]
    pub fn release(&self) {
        // sync: Release so the next acquirer sees the previous owner's
        // write-back (eager) or abandoned state (abort) before free.
        self.owner.store(0, Ordering::Release);
    }

    /// Registers `slot` as a visible reader.
    #[inline]
    pub fn add_reader(&self, slot: ThreadSlot) {
        // sync: AcqRel RMW — registration must be ordered against a
        // concurrent writer's readers() scan: either the writer sees this
        // reader's bit, or this reader's subsequent version check sees the
        // writer's acquisition.
        self.readers.fetch_or(1 << slot.index(), Ordering::AcqRel);
    }

    /// Unregisters `slot` as a visible reader.
    #[inline]
    pub fn remove_reader(&self, slot: ThreadSlot) {
        self.readers
            // sync: AcqRel RMW, mirror of add_reader().
            .fetch_and(!(1 << slot.index()), Ordering::AcqRel);
    }

    /// Snapshot of the visible-reader bitmap.
    #[inline]
    pub fn readers(&self) -> u64 {
        // sync: Acquire pairs with add_reader's RMW so a writer that saw
        // the bitmap empty is ordered after the readers' deregistrations.
        self.readers.load(Ordering::Acquire)
    }

    /// Raw sample of the versioned lock.
    #[inline]
    pub fn version_raw(&self) -> u64 {
        // sync: Acquire pairs with publish_version's Release — observing
        // version v implies observing the write-back v stamps.
        self.version.load(Ordering::Acquire)
    }

    /// Current version, or `None` while a writer installs updates.
    #[inline]
    pub fn version(&self) -> Option<u64> {
        let raw = self.version_raw();
        if raw & 1 == 1 {
            None
        } else {
            Some(raw >> 1)
        }
    }

    /// Marks the object as being written back.
    #[inline]
    pub fn lock_version(&self) {
        // sync: Release — only the object's owner stores here; readers
        // spinning on the locked marker re-sample with Acquire.
        self.version.store(1, Ordering::Release);
    }

    /// Publishes a new version (unlocking the write-back lock).
    #[inline]
    pub fn publish_version(&self, version: u64) {
        // sync: Release publishes the installed updates before the new
        // version becomes visible (pairs with version_raw's Acquire).
        self.version.store(version << 1, Ordering::Release);
    }
}

/// Transaction descriptor of [`Rstm`].
#[derive(Debug)]
pub struct RstmDescriptor {
    core: DescriptorCore,
    valid_ts: u64,
    read_log: ReadLog,
    write_log: WriteLog,
    /// Objects owned by this transaction, with the version observed when the
    /// object was acquired (O(1) membership and version lookup).
    acquired: StripeSet,
    /// Objects on which this transaction registered as a visible reader
    /// (O(1) membership test on the read hot path).
    visible_reads: StripeSet,
    /// Reusable scratch buffer for the lazy variant's commit-time
    /// acquisition order (sorted for deadlock avoidance).
    commit_order: Vec<usize>,
    doomed: bool,
}

impl TxDescriptor for RstmDescriptor {
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

/// Builder for [`Rstm`] instances.
#[derive(Debug)]
pub struct RstmBuilder {
    config: StmConfig,
    variant: RstmVariant,
    cm: Option<CmHandle>,
}

impl RstmBuilder {
    /// Starts a builder with the paper's default RSTM configuration
    /// (eager acquisition, invisible reads, Polka).
    pub fn new() -> Self {
        RstmBuilder {
            config: StmConfig::benchmark(),
            variant: RstmVariant::eager_invisible(),
            cm: None,
        }
    }

    /// Sets the heap and lock-table configuration.
    pub fn config(mut self, config: StmConfig) -> Self {
        self.config = config;
        self
    }

    /// Sets the algorithm variant.
    pub fn variant(mut self, variant: RstmVariant) -> Self {
        self.variant = variant;
        self
    }

    /// Replaces the contention manager (default: [`Polka`]).
    pub fn contention_manager(mut self, cm: CmHandle) -> Self {
        self.cm = Some(cm);
        self
    }

    /// Builds the STM instance.
    pub fn build(self) -> Rstm {
        Rstm {
            heap: TmHeap::new(self.config.heap),
            registry: ThreadRegistry::new(),
            objects: LockTable::new(self.config.lock_table),
            commit_counter: TxClock::new(self.config.clock),
            variant: self.variant,
            cm: self.cm.unwrap_or_else(|| Arc::new(Polka::new())),
        }
    }
}

impl Default for RstmBuilder {
    fn default() -> Self {
        RstmBuilder::new()
    }
}

/// The RSTM-style software transactional memory.
pub struct Rstm {
    heap: TmHeap,
    registry: ThreadRegistry,
    objects: LockTable<ObjectHeader>,
    commit_counter: TxClock,
    variant: RstmVariant,
    cm: CmHandle,
}

impl std::fmt::Debug for Rstm {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Rstm")
            .field("variant", &self.variant.label())
            .field("objects", &self.objects.len())
            .field("cm", &self.cm.name())
            .finish()
    }
}

impl Rstm {
    /// Creates an instance with the paper's default configuration.
    pub fn new() -> Self {
        RstmBuilder::new().build()
    }

    /// Creates an instance with an explicit heap/lock-table configuration.
    pub fn with_config(config: StmConfig) -> Self {
        RstmBuilder::new().config(config).build()
    }

    /// Returns a builder for customised instances.
    pub fn builder() -> RstmBuilder {
        RstmBuilder::new()
    }

    /// The variant (acquisition × visibility) of this instance.
    pub fn variant(&self) -> RstmVariant {
        self.variant
    }

    /// The configured commit-clock mode.
    pub fn clock_mode(&self) -> stm_core::config::ClockMode {
        self.commit_counter.mode()
    }

    /// The object-header table, exposed for diagnostics and for
    /// deterministic conflict rigs that stage stuck owners or visible
    /// readers (see `stm_core::testkit::RecordingCm`). Application code
    /// never needs it.
    pub fn objects(&self) -> &LockTable<ObjectHeader> {
        &self.objects
    }

    fn shared_of(&self, slot: ThreadSlot) -> &Arc<TxShared> {
        self.registry.shared(slot)
    }

    /// Validates a slice of read-log entries. The self-owned object check
    /// is O(1) via the acquired stripe set.
    fn entries_valid(&self, acquired: &StripeSet, entries: &[ReadEntry]) -> bool {
        for entry in entries {
            let object = self.objects.entry_at(entry.lock_index);
            if object.version() == Some(entry.version) {
                continue;
            }
            // A drifted (or write-back-locked) version is benign only for an
            // object we own whose version at acquisition time equals the one
            // the read observed — i.e. nothing committed it between our read
            // and our acquisition.
            if acquired.version_of(entry.lock_index) != Some(entry.version) {
                return false;
            }
        }
        true
    }

    /// Full read-set validation (used by the commit path).
    fn validate(&self, desc: &RstmDescriptor) -> bool {
        self.entries_valid(&desc.acquired, desc.read_log.entries())
    }

    /// Snapshot extension: [`ReadLog::extend_with`] orders the work — fresh
    /// suffix first, then the opacity-mandated re-confirmation of the
    /// validated prefix.
    fn extend(&self, desc: &mut RstmDescriptor) -> bool {
        let ts = self.commit_counter.read();
        let acquired = &desc.acquired;
        if !desc
            .read_log
            .extend_with(|entries| self.entries_valid(acquired, entries))
        {
            return false;
        }
        desc.valid_ts = ts;
        true
    }

    /// Resolves a conflict against the owner of `object`; returns `Ok(())`
    /// when the caller may retry the acquisition and `Err` when the caller
    /// must abort. `site` attributes the resolution in the contention
    /// telemetry (eager write, lazy commit-time acquisition, or an eager
    /// read/write conflict).
    fn fight_owner(
        &self,
        desc: &RstmDescriptor,
        owner: ThreadSlot,
        kind: Abort,
        site: ConflictSite,
    ) -> TxResult<()> {
        let owner_shared = self.shared_of(owner);
        match telemetry::resolve_recorded(&*self.cm, &desc.core.shared, owner_shared, site) {
            Resolution::AbortSelf => Err(kind),
            Resolution::AbortOther | Resolution::Wait => {
                stm_core::sync::spin_loop();
                Ok(())
            }
        }
    }

    /// Aborts (or waits for) the visible readers of an object the caller
    /// just acquired.
    fn resolve_visible_readers(
        &self,
        desc: &RstmDescriptor,
        object: &ObjectHeader,
    ) -> TxResult<()> {
        let readers = object.readers();
        if readers == 0 {
            return Ok(());
        }
        for slot_index in 0..stm_core::clock::MAX_THREADS {
            if slot_index == desc.core.slot.index() {
                continue;
            }
            if readers & (1 << slot_index) != 0 {
                let reader = self.shared_of(ThreadSlot::new(slot_index));
                let resolution = self.cm.resolve(&desc.core.shared, reader);
                // This site cannot wait: any decision other than AbortSelf
                // is carried out by telling the reader to abort, so the
                // telemetry records the *effective* resolution — a literal
                // `Wait` answer would otherwise show up as waits with zero
                // victim-aborts next to a non-zero inflicted count.
                let effective = match resolution {
                    Resolution::Wait => Resolution::AbortOther,
                    other => other,
                };
                desc.core
                    .shared
                    .telemetry()
                    .record_resolution(ConflictSite::VisibleReader, effective);
                match resolution {
                    Resolution::AbortSelf => return Err(Abort::WRITE_CONFLICT),
                    Resolution::AbortOther | Resolution::Wait => {
                        if reader.request_abort() {
                            desc.core.shared.telemetry().record_abort_inflicted();
                        }
                    }
                }
            }
        }
        Ok(())
    }

    fn acquire_object(
        &self,
        desc: &mut RstmDescriptor,
        lock_index: usize,
        site: ConflictSite,
    ) -> TxResult<()> {
        if desc.acquired.contains(lock_index) {
            return Ok(());
        }
        let object = self.objects.entry_at(lock_index);
        // Lazily started wait timer: conflict-free acquisitions never
        // sample a clock; contended ones attribute the loop's wall-clock
        // time to the CM wait total on every exit path.
        let mut wait_timer: Option<WaitTimer> = None;
        loop {
            if desc.core.shared.abort_requested() {
                return Err(Abort::REMOTE);
            }
            match object.owner() {
                None => {
                    if object.try_acquire(desc.core.slot) {
                        break;
                    }
                }
                Some(owner) if owner == desc.core.slot => break,
                Some(owner) => {
                    if wait_timer.is_none() {
                        wait_timer = Some(WaitTimer::start(&desc.core.shared));
                    }
                    self.fight_owner(desc, owner, Abort::WRITE_CONFLICT, site)?;
                }
            }
        }
        drop(wait_timer);
        // Record the version observed at acquisition so commit can detect
        // read/write races on the object itself.
        let version = object.version().unwrap_or(0);
        desc.acquired.insert(lock_index, version);
        self.cm.on_write(&desc.core.shared, desc.acquired.len());
        // Visible readers conflict with the new writer right away.
        self.resolve_visible_readers(desc, object)?;
        Ok(())
    }

    fn release_everything(&self, desc: &mut RstmDescriptor) {
        for stripe in desc.acquired.iter() {
            self.objects.entry_at(stripe.lock_index).release();
        }
        desc.acquired.clear();
        for stripe in desc.visible_reads.iter() {
            self.objects
                .entry_at(stripe.lock_index)
                .remove_reader(desc.core.slot);
        }
        desc.visible_reads.clear();
    }

    fn doom(&self, desc: &mut RstmDescriptor, abort: Abort) -> Abort {
        self.release_everything(desc);
        desc.read_log.clear();
        desc.write_log.clear();
        desc.doomed = true;
        abort
    }
}

impl Default for Rstm {
    fn default() -> Self {
        Rstm::new()
    }
}

impl TmAlgorithm for Rstm {
    type Descriptor = RstmDescriptor;

    fn name(&self) -> &'static str {
        "RSTM"
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

    fn create_descriptor(&self, slot: ThreadSlot) -> RstmDescriptor {
        RstmDescriptor {
            core: DescriptorCore::new(slot, Arc::clone(self.shared_of(slot))),
            valid_ts: 0,
            read_log: ReadLog::new(),
            write_log: WriteLog::new(),
            acquired: StripeSet::new(),
            visible_reads: StripeSet::new(),
            commit_order: Vec::with_capacity(16),
            doomed: false,
        }
    }

    fn begin(&self, desc: &mut RstmDescriptor, is_restart: bool) {
        desc.core.reset_attempt();
        desc.read_log.clear();
        desc.write_log.clear();
        desc.acquired.clear();
        desc.visible_reads.clear();
        desc.doomed = false;
        desc.valid_ts = self.commit_counter.read();
        self.cm.on_start(&desc.core.shared, is_restart);
    }

    fn read(&self, desc: &mut RstmDescriptor, addr: Addr) -> TxResult<Word> {
        if desc.doomed {
            return Err(Abort::EXPLICIT);
        }
        if desc.core.shared.abort_requested() {
            return Err(self.doom(desc, Abort::REMOTE));
        }
        desc.core.attempt_reads += 1;

        let lock_index = self.objects.index_of(addr);
        let object = self.objects.entry_at(lock_index);

        // Read-after-write.
        if object.is_owned_by(desc.core.slot) {
            if let Some(value) = desc.write_log.lookup(addr) {
                return Ok(value);
            }
            return Ok(self.heap.load(addr));
        }
        if let Some(value) = desc.write_log.lookup(addr) {
            // Lazy variant: the write is buffered but the object not yet
            // acquired.
            return Ok(value);
        }

        // With eager acquisition an object owned by an active writer is an
        // eagerly detected read/write conflict (RSTM "opens" the object and
        // consults the contention manager) — the behaviour the paper's
        // Figure 7/8 analysis attributes to eager designs.
        if self.variant.acquisition == Acquisition::Eager {
            let mut wait_timer: Option<WaitTimer> = None;
            while let Some(owner) = object.owner() {
                if owner == desc.core.slot {
                    break;
                }
                if wait_timer.is_none() {
                    wait_timer = Some(WaitTimer::start(&desc.core.shared));
                }
                if let Err(abort) =
                    self.fight_owner(desc, owner, Abort::READ_LOCKED, ConflictSite::Read)
                {
                    return Err(self.doom(desc, abort));
                }
                if desc.core.shared.abort_requested() {
                    return Err(self.doom(desc, Abort::REMOTE));
                }
            }
            drop(wait_timer);
        }

        if self.variant.visibility == ReadVisibility::Visible
            && !desc.visible_reads.contains(lock_index)
        {
            object.add_reader(desc.core.slot);
            desc.visible_reads.insert(lock_index, 0);
        }

        // Consistent version/value/version sample. The spin paths honour
        // remote abort requests: the object may be write-back-locked by a
        // committer that is waiting on the contention manager's decision
        // against us.
        let (value, version) = loop {
            let pre = object.version_raw();
            if pre & 1 == 1 {
                if desc.core.shared.abort_requested() {
                    return Err(self.doom(desc, Abort::REMOTE));
                }
                stm_core::sync::spin_loop();
                continue;
            }
            let value = self.heap.load(addr);
            let post = object.version_raw();
            if pre == post {
                break (value, pre >> 1);
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
            // so the new snapshot reaches at least this object's version.
            self.commit_counter.observe(version);
            if !self.extend(desc) {
                return Err(self.doom(desc, Abort::READ_VALIDATION));
            }
        }
        Ok(value)
    }

    fn write(&self, desc: &mut RstmDescriptor, addr: Addr, value: Word) -> TxResult<()> {
        if desc.doomed {
            return Err(Abort::EXPLICIT);
        }
        if desc.core.shared.abort_requested() {
            return Err(self.doom(desc, Abort::REMOTE));
        }
        desc.core.attempt_writes += 1;

        let lock_index = self.objects.index_of(addr);

        if self.variant.acquisition == Acquisition::Eager {
            if let Err(abort) = self.acquire_object(desc, lock_index, ConflictSite::Write) {
                return Err(self.doom(desc, abort));
            }
            let version = desc.acquired.version_of(lock_index).unwrap_or(0);
            if version > desc.valid_ts {
                self.commit_counter.observe(version);
                if !self.extend(desc) {
                    return Err(self.doom(desc, Abort::READ_VALIDATION));
                }
            }
        }
        desc.write_log.record(addr, value);
        if self.variant.acquisition == Acquisition::Lazy {
            // Track the distinct write-set stripes so commit-time
            // acquisition needs no sort+dedup pass over the redo log.
            desc.write_log.record_stripe(lock_index);
            self.cm.on_write(&desc.core.shared, desc.write_log.len());
        }
        Ok(())
    }

    fn commit(&self, desc: &mut RstmDescriptor) -> TxResult<()> {
        if desc.doomed {
            return Err(Abort::EXPLICIT);
        }
        if desc.core.shared.abort_requested() {
            return Err(self.doom(desc, Abort::REMOTE));
        }
        if desc.write_log.is_empty() {
            // Read-only: clean up visible-reader registrations.
            for stripe in desc.visible_reads.iter() {
                self.objects
                    .entry_at(stripe.lock_index)
                    .remove_reader(desc.core.slot);
            }
            desc.visible_reads.clear();
            desc.read_log.clear();
            return Ok(());
        }

        // Lazy variant: acquire the whole write set now, in sorted order
        // for deadlock avoidance. The distinct stripes come from the write
        // log's stripe set; the sort reuses a per-descriptor scratch buffer.
        if self.variant.acquisition == Acquisition::Lazy {
            let mut order = std::mem::take(&mut desc.commit_order);
            desc.write_log.sorted_stripe_indices(&mut order);
            let mut acquired = Ok(());
            for &lock_index in &order {
                if let Err(abort) = self.acquire_object(desc, lock_index, ConflictSite::Commit) {
                    acquired = Err(abort);
                    break;
                }
            }
            desc.commit_order = order;
            if let Err(abort) = acquired {
                return Err(self.doom(desc, abort));
            }
        }

        // sync: the write-back locks must be taken *before* the clock is
        // stamped. The clock stamp is an AcqRel RMW, so a rival whose
        // begin-time snapshot (Acquire clock read) covers our stamp also
        // observes these locked version words — it can never sample a
        // consistent pre-commit version/value pair for an object we are
        // about to overwrite and then skip validation because its stamp
        // lands directly after ours. The owner word alone does not give
        // that guarantee here: the invisible read path samples only the
        // version word. (Locking after validation used to be safe under
        // SC; the model checker's lost-update scenario found the C11-level
        // window — see crates/stm-model-tests/tests/lost_update.rs.)
        for stripe in desc.acquired.iter() {
            self.objects.entry_at(stripe.lock_index).lock_version();
        }

        // Stamped after the whole write set is acquired and version-locked:
        // a deferred clock's committer-side fence sits between those
        // acquisitions and its clock read (see `TxClock`).
        let stamp = self.commit_counter.commit_stamp(desc.valid_ts);
        let ts = stamp.ts;
        if stamp.needs_validation() && !self.validate(desc) {
            // Unlock the write-back locks at their acquisition-time
            // versions before rolling back: `release_everything` only
            // frees the owner words, and a version word left locked would
            // park every future reader of the stripe forever.
            for stripe in desc.acquired.iter() {
                self.objects
                    .entry_at(stripe.lock_index)
                    .publish_version(stripe.version);
            }
            return Err(self.doom(desc, Abort::READ_VALIDATION));
        }

        // Install the updates under the already-held write-back locks.
        for entry in desc.write_log.iter() {
            self.heap.store(entry.addr, entry.value);
        }
        for stripe in desc.acquired.iter() {
            let object = self.objects.entry_at(stripe.lock_index);
            object.publish_version(ts);
            object.release();
        }
        desc.acquired.clear();
        for stripe in desc.visible_reads.iter() {
            self.objects
                .entry_at(stripe.lock_index)
                .remove_reader(desc.core.slot);
        }
        desc.visible_reads.clear();
        desc.read_log.clear();
        desc.write_log.clear();
        Ok(())
    }

    fn rollback(&self, desc: &mut RstmDescriptor) {
        self.release_everything(desc);
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

    fn stm_with(variant: RstmVariant) -> Arc<Rstm> {
        Arc::new(
            Rstm::builder()
                .config(StmConfig::small())
                .variant(variant)
                .build(),
        )
    }

    fn all_variants() -> Vec<RstmVariant> {
        vec![
            RstmVariant::eager_invisible(),
            RstmVariant::eager_visible(),
            RstmVariant::lazy_invisible(),
            RstmVariant::lazy_visible(),
        ]
    }

    #[test]
    fn read_your_own_writes_in_all_variants() {
        for variant in all_variants() {
            let stm = stm_with(variant);
            let addr = stm.heap().alloc_zeroed(1).unwrap();
            let mut ctx = ThreadContext::register(stm);
            let v = ctx
                .atomically(|tx| {
                    tx.write(addr, 11)?;
                    tx.read(addr)
                })
                .unwrap();
            assert_eq!(v, 11, "variant {}", variant.label());
        }
    }

    #[test]
    fn counter_is_consistent_under_concurrency_in_all_variants() {
        for variant in all_variants() {
            let stm = stm_with(variant);
            let addr = stm.heap().alloc_zeroed(1).unwrap();
            let handles: Vec<_> = (0..4)
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
            for h in handles {
                h.join().unwrap();
            }
            assert_eq!(stm.heap().load(addr), 1000, "variant {}", variant.label());
        }
    }

    #[test]
    fn aborted_writes_leave_no_trace() {
        for variant in all_variants() {
            let stm = stm_with(variant);
            let addr = stm.heap().alloc_zeroed(1).unwrap();
            let mut ctx = ThreadContext::register(Arc::clone(&stm)).with_retry_budget(1);
            let _ = ctx.atomically(|tx| {
                tx.write(addr, 77)?;
                tx.retry::<()>()
            });
            assert_eq!(stm.heap().load(addr), 0, "variant {}", variant.label());
            // Object must be released so another transaction can write it.
            let mut ctx2 = ThreadContext::register(stm);
            ctx2.atomically(|tx| tx.write(addr, 5)).unwrap();
        }
    }

    #[test]
    fn visible_readers_are_cleared_on_commit() {
        let stm = stm_with(RstmVariant::eager_visible());
        let addr = stm.heap().alloc_zeroed(1).unwrap();
        let mut ctx = ThreadContext::register(Arc::clone(&stm));
        ctx.atomically(|tx| tx.read(addr)).unwrap();
        assert_eq!(stm.objects.entry(addr).readers(), 0);
    }

    #[test]
    fn object_header_reader_bitmap() {
        let header = ObjectHeader::default();
        header.add_reader(ThreadSlot::new(0));
        header.add_reader(ThreadSlot::new(5));
        assert_eq!(header.readers(), 0b100001);
        header.remove_reader(ThreadSlot::new(0));
        assert_eq!(header.readers(), 0b100000);
    }

    #[test]
    fn object_header_ownership() {
        let header = ObjectHeader::default();
        assert_eq!(header.owner(), None);
        assert!(header.try_acquire(ThreadSlot::new(2)));
        assert!(!header.try_acquire(ThreadSlot::new(3)));
        assert!(header.is_owned_by(ThreadSlot::new(2)));
        header.release();
        assert_eq!(header.owner(), None);
    }

    #[test]
    fn object_header_version_lock() {
        let header = ObjectHeader::default();
        assert_eq!(header.version(), Some(0));
        header.lock_version();
        assert_eq!(header.version(), None);
        header.publish_version(6);
        assert_eq!(header.version(), Some(6));
    }

    #[test]
    fn variant_labels_are_distinct() {
        let mut labels: Vec<_> = all_variants().iter().map(|v| v.label()).collect();
        labels.sort_unstable();
        labels.dedup();
        assert_eq!(labels.len(), 4);
    }

    #[test]
    fn default_cm_is_polka() {
        let stm = Rstm::with_config(StmConfig::small());
        assert_eq!(stm.contention_manager().name(), "polka");
        assert_eq!(stm.variant(), RstmVariant::eager_invisible());
    }

    #[test]
    fn reader_spinning_on_write_back_locked_object_honours_remote_abort() {
        // Regression test: a reader spinning on an object whose write-back
        // lock is held must notice a remote abort request instead of
        // spinning until the lock is released.
        let stm = stm_with(RstmVariant::eager_invisible());
        let addr = stm.heap().alloc_zeroed(1).unwrap();
        // Simulate a committer stuck mid-write-back.
        stm.objects.entry(addr).lock_version();

        let reader_stm = Arc::clone(&stm);
        let reader = std::thread::spawn(move || {
            let mut ctx = ThreadContext::register(reader_stm).with_retry_budget(3);
            ctx.atomically(|tx| tx.read(addr))
        });
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
        stm.objects.entry(addr).publish_version(0);
    }

    #[test]
    fn money_transfer_preserves_the_total() {
        let stm = stm_with(RstmVariant::eager_invisible());
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
                    let mut rng = stm_core::backoff::FastRng::new(t as u64 + 31);
                    for _ in 0..300 {
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
}
