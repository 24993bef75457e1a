//! # stm-core
//!
//! Shared substrate for the word-based software transactional memories in
//! this workspace (the SwissTM reproduction plus its TL2, TinySTM and RSTM
//! baselines).
//!
//! The crate provides everything an STM algorithm needs *except* the
//! algorithm itself:
//!
//! * a [`heap::TmHeap`] — a shared slab of 64-bit words addressed by
//!   [`Addr`], with a transactional allocator on top,
//! * [`locktable::LockTable`] — the `address -> ownership record` mapping
//!   (the paper's Figure 1) with a configurable stripe granularity,
//! * [`clock::GlobalClock`] and [`clock::ThreadRegistry`] — the global
//!   commit counter and per-thread shared descriptors used by contention
//!   managers,
//! * [`cm`] — the contention-manager library (Timid, Backoff, Greedy,
//!   Serializer, Polka and the paper's two-phase manager),
//! * [`logs`] — read-/write-log containers,
//! * [`owned`] — the owner-indexed write set of the encounter-time-locking
//!   STMs, whose lock words name the owner's stripe record,
//! * [`stats`] — per-thread and aggregated execution statistics,
//! * [`sync`] — the atomics gateway every STM crate imports instead of
//!   `std::sync::atomic`; under `--cfg stm_model` it swaps in the
//!   instrumented atomics of the in-workspace `stm-model` checker,
//! * [`telemetry`] — allocation-free contention telemetry (CM resolutions
//!   per conflict site, wait/back-off time, inflicted remote aborts,
//!   retry-depth histograms) fed by the managers and the STM conflict
//!   paths,
//! * [`testkit`] — test support ([`testkit::RecordingCm`]) for
//!   deterministic contention rigs,
//! * [`tm`] — the [`tm::TmAlgorithm`] trait every STM implements and the
//!   [`tm::ThreadContext`] retry driver (`atomically`).
//!
//! # Example
//!
//! ```
//! use stm_core::prelude::*;
//!
//! // `NaiveGlobalLockTm` is a tiny single-global-lock STM shipped with this
//! // crate for testing the driver; real algorithms live in the `swisstm`,
//! // `tl2`, `tinystm` and `rstm` crates.
//! let stm = std::sync::Arc::new(stm_core::naive::NaiveGlobalLockTm::new(HeapConfig::small()));
//! let addr = stm.heap().alloc_zeroed(1).unwrap();
//! let mut ctx = ThreadContext::register(stm);
//! let value = ctx.atomically(|tx| {
//!     tx.write(addr, 41)?;
//!     let v = tx.read(addr)?;
//!     tx.write(addr, v + 1)?;
//!     tx.read(addr)
//! }).unwrap();
//! assert_eq!(value, 42);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod backoff;
pub mod clock;
pub mod cm;
pub mod config;
pub mod error;
pub mod hash;
pub mod heap;
pub mod locktable;
pub mod logs;
pub mod naive;
pub mod owned;
pub mod pad;
pub mod stats;
pub mod sync;
pub mod telemetry;
pub mod testkit;
pub mod tm;
pub mod word;

/// Convenience re-exports of the types used by nearly every consumer.
pub mod prelude {
    pub use crate::clock::{
        CommitStamp, GlobalClock, ThreadRegistry, ThreadSlot, TxClock, TxShared,
    };
    pub use crate::cm::{ContentionManager, Resolution};
    pub use crate::config::{ClockMode, HeapConfig, LockTableConfig, StmConfig, TableLayout};
    pub use crate::error::{Abort, AbortReason, StmError};
    pub use crate::heap::TmHeap;
    pub use crate::pad::CachePadded;
    pub use crate::stats::{StatsAggregate, TxStats};
    pub use crate::tm::{ThreadContext, TmAlgorithm, Tx};
    pub use crate::word::{Addr, Word};
}

pub use crate::clock::{CommitStamp, GlobalClock, ThreadRegistry, ThreadSlot, TxClock, TxShared};
pub use crate::cm::{ContentionManager, Resolution};
pub use crate::config::{ClockMode, HeapConfig, LockTableConfig, TableLayout};
pub use crate::error::{Abort, AbortReason, StmError};
pub use crate::heap::TmHeap;
pub use crate::pad::CachePadded;
pub use crate::stats::{RetryHistogram, StatsAggregate, TxStats};
pub use crate::telemetry::{ConflictSite, ContentionCounters};
pub use crate::tm::{ThreadContext, TmAlgorithm, Tx};
pub use crate::word::{Addr, Word};
