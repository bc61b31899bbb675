//! Cooperative cancellation flags for in-flight synthesis.
//!
//! A deadline bounds how long a search may run; a cancellation flag lets a
//! caller stop it *early* — a compilation server whose client disconnected
//! has no reason to finish the request. The flag is checked at exactly the
//! sites that already check the cooperative deadline (candidate loops in
//! lifting, lowering and the swizzle search), so cancellation inherits the
//! deadline plumbing's latency bounds.
//!
//! Flags are `&'static AtomicBool` rather than `Arc<AtomicBool>` so
//! [`crate::LoweringOptions`] stays `Copy` (the options value is copied
//! into every search stage). Statics cannot be freed, so
//! the pool recycles them: [`acquire`] pops a cleared flag from the
//! free list (leaking a fresh one only when the list is empty) and
//! [`release`] returns it. The number of live flags is therefore bounded
//! by the caller's peak concurrency, not the request count.
//!
//! Safety contract for [`release`]: the caller must guarantee no thread
//! still reads the flag — the driver releases only after every worker of
//! the batch has joined.

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Mutex;

/// A cancellation flag: set it to `true` to ask in-flight synthesis to
/// stop at its next cooperative check point.
pub type CancelFlag = &'static AtomicBool;

static FREE: Mutex<Vec<&'static AtomicBool>> = Mutex::new(Vec::new());

/// Take a cleared flag from the pool (allocating one if none is free).
pub fn acquire() -> CancelFlag {
    let recycled = FREE.lock().unwrap_or_else(std::sync::PoisonError::into_inner).pop();
    match recycled {
        Some(flag) => {
            flag.store(false, Ordering::SeqCst);
            flag
        }
        None => Box::leak(Box::new(AtomicBool::new(false))),
    }
}

/// Return a flag to the pool once no thread can read it any more.
pub fn release(flag: CancelFlag) {
    flag.store(false, Ordering::SeqCst);
    FREE.lock().unwrap_or_else(std::sync::PoisonError::into_inner).push(flag);
}

/// Whether an optional flag is raised.
#[inline]
pub fn cancelled(flag: Option<CancelFlag>) -> bool {
    flag.is_some_and(|f| f.load(Ordering::Relaxed))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn acquire_release_recycles_and_clears() {
        let a = acquire();
        assert!(!a.load(Ordering::SeqCst));
        a.store(true, Ordering::SeqCst);
        release(a);
        let b = acquire();
        // Whichever flag came back (the pool is shared across tests), it
        // must be cleared.
        assert!(!b.load(Ordering::SeqCst));
        release(b);
    }

    #[test]
    fn cancelled_reads_the_flag() {
        assert!(!cancelled(None));
        let f = acquire();
        assert!(!cancelled(Some(f)));
        f.store(true, Ordering::SeqCst);
        assert!(cancelled(Some(f)));
        release(f);
    }
}
