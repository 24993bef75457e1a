//! One transaction with a write set larger than the lock table commits
//! intact on the encounter-time-locking STMs, whose lock words name the
//! owner's stripe record.
//!
//! With the small configuration (4096 lock entries, two words per stripe)
//! 12,288 written words put several stripes on each lock entry, so each
//! record's entry chain holds words of more than one stripe. The body
//! checks read-after-write and write-after-write on every word before the
//! transaction commits, and after the commit every word holds its last
//! written value and every lock is free again.

use std::sync::Arc;

use stm_core::config::StmConfig;
use stm_core::tm::{ThreadContext, TmAlgorithm};

use swisstm::SwissTm;
use tinystm::TinyStm;

const WORDS: usize = 3 * 4096;

fn large_write_set_commits<A: TmAlgorithm>(stm: Arc<A>) {
    let name = stm.name();
    let base = stm.heap().alloc_zeroed(WORDS).unwrap();
    let mut ctx = ThreadContext::register(Arc::clone(&stm));
    ctx.atomically(|tx| {
        for i in 0..WORDS {
            tx.write(base.offset(i), i as u64 + 1)?;
        }
        for i in 0..WORDS {
            assert_eq!(tx.read(base.offset(i))?, i as u64 + 1, "{name}: word {i}");
        }
        for i in (0..WORDS).step_by(2) {
            tx.write(base.offset(i), 0)?;
        }
        Ok(())
    })
    .unwrap();
    assert_eq!(
        ctx.stats().commits,
        1,
        "{name}: the transaction must not retry"
    );
    for i in 0..WORDS {
        let expected = if i % 2 == 0 { 0 } else { i as u64 + 1 };
        assert_eq!(
            stm.heap().load(base.offset(i)),
            expected,
            "{name}: word {i}"
        );
    }
    // Every lock was released: a second thread writes the whole range.
    let mut other = ThreadContext::register(Arc::clone(&stm)).with_retry_budget(1);
    other
        .atomically(|tx| {
            for i in 0..WORDS {
                tx.write(base.offset(i), 7)?;
            }
            Ok(())
        })
        .unwrap();
    assert!((0..WORDS).all(|i| stm.heap().load(base.offset(i)) == 7));
}

#[test]
fn swisstm_commits_a_write_set_larger_than_the_lock_table() {
    large_write_set_commits(Arc::new(SwissTm::with_config(StmConfig::small())));
}

#[test]
fn tinystm_commits_a_write_set_larger_than_the_lock_table() {
    large_write_set_commits(Arc::new(TinyStm::with_config(StmConfig::small())));
}
