//! Fixture: ad-hoc atomic memory-ordering choice outside the obs and
//! engine modules. `cargo xtask audit --root
//! crates/xtask/fixtures/atomic-ordering` must exit non-zero with
//! `atomic-ordering` findings.

use std::sync::atomic::{AtomicU64, Ordering};

static DROPPED: AtomicU64 = AtomicU64::new(0);

fn record_drop() {
    DROPPED.fetch_add(1, Ordering::Relaxed);
}

fn record_ok(count: &AtomicU64) {
    // audit:allow(atomic-ordering): monotone counter, read after writers join
    count.fetch_add(1, Ordering::Relaxed);
}
