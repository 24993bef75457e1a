//! The benchmark workloads: set-up from a seed, the set-up fingerprint,
//! and the checks made from outside the workload (heap accounting on
//! `rbtree`, exact operation count on `kmeans-low`).

use std::sync::Arc;

use stm_core::backoff::FastRng;
use stm_core::config::HeapConfig;
use stm_core::heap::TmHeap;
use stm_core::naive::NaiveGlobalLockTm;
use stm_core::tm::{ThreadContext, TmAlgorithm};
use stm_core::word::Addr;
use stm_workloads::profile::SizeProfile;
use stm_workloads::rbtree::{RbTreeConfig, RbTreeWorkload};
use stm_workloads::stamp::kmeans::{KmeansConfig, KmeansWorkload};
use stm_workloads::stamp::vacation::{VacationConfig, VacationWorkload};
use stm_workloads::stmbench7::{Bench7Config, Bench7Data, Bench7Workload, WorkloadMix};
use stm_workloads::structures::RbTree;
use stm_workloads::Workload;

/// A benchmark workload.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum WorkloadKind {
    /// Paper Fig. 5 red-black tree: range 16 384, 8 192 keys, 20 % updates.
    RbTree,
    /// STMBench7 read-write mix on the quick-profile structure.
    Bench7Rw,
    /// STAMP vacation, high contention, full-profile tables.
    VacationHigh,
    /// STAMP kmeans, low contention, full-profile points (64 clusters).
    KmeansLow,
}

impl WorkloadKind {
    /// Every workload, in the order they are documented.
    pub const ALL: [WorkloadKind; 4] = [
        WorkloadKind::RbTree,
        WorkloadKind::Bench7Rw,
        WorkloadKind::VacationHigh,
        WorkloadKind::KmeansLow,
    ];

    /// The name used on the command line.
    pub fn name(self) -> &'static str {
        match self {
            WorkloadKind::RbTree => "rbtree",
            WorkloadKind::Bench7Rw => "bench7-rw",
            WorkloadKind::VacationHigh => "vacation-high",
            WorkloadKind::KmeansLow => "kmeans-low",
        }
    }

    /// Parses a command-line workload name.
    pub fn parse(name: &str) -> Option<Self> {
        WorkloadKind::ALL.into_iter().find(|k| k.name() == name)
    }
}

/// Data-set size: the benchmark's sizes, or tiny ones for tests.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Scale {
    Bench,
    #[cfg_attr(not(test), allow(dead_code))]
    Tiny,
}

/// What a set-up produced, observed from outside: heap words in use, the
/// number of keys in the workload's index tree (where the workload exposes
/// one) and a digest of the whole heap.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Fingerprint {
    pub live_words: usize,
    pub tree_size: Option<u64>,
    pub heap_digest: u64,
}

/// A workload set up on one STM instance.
pub struct Prepared<A: TmAlgorithm> {
    pub workload: Arc<dyn Workload<A>>,
    /// The index tree the fingerprint counts, where the workload exposes one.
    pub(crate) tree: Option<RbTree>,
    /// The check made from outside the workload, where it has one.
    pub outside_check: Option<OutsideCheck>,
}

/// A check of a workload's state made from outside it, after a window.
#[derive(Clone)]
pub enum OutsideCheck {
    /// `rbtree`: heap accounting and key order.
    RbHeap(RbHeapCheck),
    /// `kmeans-low`: the cluster counts add up to the operations done.
    KmeansCount(Arc<KmeansWorkload>),
}

impl OutsideCheck {
    /// Runs the check, single-threaded, on a data set that has completed
    /// `ops` operations since its set-up.
    ///
    /// # Errors
    ///
    /// Returns what the check found wrong.
    pub fn check<A: TmAlgorithm>(
        &self,
        ctx: &mut ThreadContext<A>,
        ops: u64,
    ) -> Result<(), String> {
        match self {
            OutsideCheck::RbHeap(check) => check.check(ctx),
            OutsideCheck::KmeansCount(workload) => {
                // Every kmeans operation adds one to exactly one cluster's
                // count, so a lost or doubled update shows here.
                let assigned = workload.total_assigned(ctx);
                if assigned == ops {
                    Ok(())
                } else {
                    Err(format!(
                        "the cluster counts add up to {assigned}, but {ops} operations completed"
                    ))
                }
            }
        }
    }
}

/// Kmeans picks its point by the operation index, which in duration runs
/// counts 0, 1, 2, ... on every worker alike, so the workers would add
/// the same points to the same clusters in lockstep. This draws the index
/// from the worker's seeded stream instead, so that workers collide only
/// as often as the cluster count makes them.
struct RandomPoints<W>(Arc<W>);

impl<A: TmAlgorithm, W: Workload<A>> Workload<A> for RandomPoints<W> {
    fn execute(&self, ctx: &mut ThreadContext<A>, rng: &mut FastRng, _op_index: u64) {
        let index = rng.next_u64();
        self.0.execute(ctx, rng, index);
    }

    fn name(&self) -> String {
        self.0.name()
    }

    fn check(&self, ctx: &mut ThreadContext<A>) -> bool {
        self.0.check(ctx)
    }
}

/// Heap accounting of the `rbtree` workload: the heap holds exactly the
/// tree, so `live_words == empty_words + len * node_words`, with both word
/// counts learned at set-up.
#[derive(Clone, Copy, Debug)]
pub struct RbHeapCheck {
    tree: RbTree,
    key_range: u64,
    empty_words: usize,
    node_words: usize,
}

impl RbHeapCheck {
    /// Checks the heap accounting and that the keys are strictly ascending
    /// and inside the key range. Run single-threaded, after a window.
    pub fn check<A: TmAlgorithm>(&self, ctx: &mut ThreadContext<A>) -> Result<(), String> {
        let (len, keys) = ctx
            .atomically(|tx| Ok((self.tree.len(tx)?, self.tree.keys(tx)?)))
            .map_err(|e| format!("reading the tree failed: {e}"))?;
        let live = ctx.algorithm().heap().live_words();
        let expected = self.empty_words + len as usize * self.node_words;
        if live != expected {
            return Err(format!(
                "heap holds {live} live words, but an empty tree ({} words) plus {len} \
                 nodes of {} words is {expected}",
                self.empty_words, self.node_words
            ));
        }
        if keys.len() as u64 != len {
            return Err(format!("tree size {len} but {} keys", keys.len()));
        }
        if keys.windows(2).any(|w| w[0] >= w[1]) {
            return Err("keys are not strictly ascending".to_string());
        }
        if keys.last().is_some_and(|&k| k >= self.key_range) {
            return Err(format!("a key lies outside [0, {})", self.key_range));
        }
        Ok(())
    }
}

fn rbtree_config(scale: Scale) -> RbTreeConfig {
    match scale {
        Scale::Bench => RbTreeConfig::paper_default(),
        Scale::Tiny => RbTreeConfig::small(),
    }
}

fn bench7_config(scale: Scale) -> Bench7Config {
    match scale {
        Scale::Bench => Bench7Config::for_profile(SizeProfile::Quick),
        Scale::Tiny => Bench7Config::tiny(),
    }
}

fn kmeans_config(scale: Scale) -> KmeansConfig {
    match scale {
        Scale::Bench => KmeansConfig::low_contention_at(SizeProfile::Full),
        Scale::Tiny => KmeansConfig::low_contention(),
    }
}

fn vacation_config(scale: Scale) -> VacationConfig {
    match scale {
        Scale::Bench => VacationConfig::high_contention_at(SizeProfile::Full),
        Scale::Tiny => VacationConfig {
            relations: 128,
            ..VacationConfig::high_contention()
        },
    }
}

/// FNV-1a digest of every heap word, read directly while no transaction
/// runs.
pub fn heap_digest(heap: &TmHeap) -> u64 {
    (0..heap.capacity()).fold(0xcbf2_9ce4_8422_2325u64, |digest, i| {
        (digest ^ heap.load(Addr::new(i))).wrapping_mul(0x0000_0100_0000_01b3)
    })
}

/// Learns the empty-tree and per-node word counts of [`RbTree`] on a
/// scratch instance.
fn rbtree_word_counts() -> (usize, usize) {
    let scratch = Arc::new(NaiveGlobalLockTm::new(HeapConfig::small()));
    let tree = RbTree::create(scratch.heap()).expect("scratch heap holds an empty tree");
    let empty = scratch.heap().live_words();
    ThreadContext::register(Arc::clone(&scratch))
        .atomically(|tx| tree.insert(tx, 1, 1))
        .expect("scratch insert commits");
    (empty, scratch.heap().live_words() - empty)
}

/// Sets up `kind` on `stm` from `seed`.
///
/// # Panics
///
/// Panics if the heap is too small for the workload.
pub fn setup<A: TmAlgorithm>(
    kind: WorkloadKind,
    stm: &Arc<A>,
    seed: u64,
    scale: Scale,
) -> Prepared<A> {
    let live_before = stm.heap().live_words();
    let (workload, tree, outside_check): (Arc<dyn Workload<A>>, Option<RbTree>, _) = match kind {
        WorkloadKind::RbTree => {
            let config = rbtree_config(scale);
            let workload = RbTreeWorkload::setup(stm, config, seed);
            let tree = workload.tree();
            let (empty_words, node_words) = rbtree_word_counts();
            let check = RbHeapCheck {
                tree,
                key_range: config.key_range,
                empty_words: live_before + empty_words,
                node_words,
            };
            (workload, Some(tree), Some(OutsideCheck::RbHeap(check)))
        }
        WorkloadKind::Bench7Rw => {
            let data = Bench7Data::build(stm, bench7_config(scale), seed);
            let part_index = data.part_index();
            let workload = Arc::new(Bench7Workload::new(data, WorkloadMix::read_write()));
            (workload, Some(part_index), None)
        }
        WorkloadKind::VacationHigh => {
            let workload = VacationWorkload::setup(stm, vacation_config(scale), seed);
            (workload, None, None)
        }
        WorkloadKind::KmeansLow => {
            let workload = KmeansWorkload::setup(stm, kmeans_config(scale), seed);
            let check = OutsideCheck::KmeansCount(Arc::clone(&workload));
            (Arc::new(RandomPoints(workload)), None, Some(check))
        }
    };
    Prepared {
        workload,
        tree,
        outside_check,
    }
}

impl<A: TmAlgorithm> Prepared<A> {
    /// The set-up fingerprint of the workload on `stm`, read while no
    /// transaction runs; also runs the outside check.
    ///
    /// # Errors
    ///
    /// Returns the outside check's complaint.
    pub fn fingerprint(&self, stm: &Arc<A>) -> Result<Fingerprint, String> {
        let mut ctx = ThreadContext::register(Arc::clone(stm));
        if let Some(check) = &self.outside_check {
            check.check(&mut ctx, 0)?;
        }
        let tree_size = match self.tree {
            Some(tree) => Some(
                ctx.atomically(|tx| tree.len(tx))
                    .map_err(|e| format!("reading the index tree failed: {e}"))?,
            ),
            None => None,
        };
        Ok(Fingerprint {
            live_words: stm.heap().live_words(),
            tree_size,
            heap_digest: heap_digest(stm.heap()),
        })
    }
}
