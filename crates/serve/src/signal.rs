//! Minimal SIGINT/SIGTERM latch without a libc dependency: `signal(2)`
//! is in every libc the workspace targets, and an `AtomicBool` store is
//! async-signal-safe. Every event loop polls [`shutdown_requested`]
//! each turn and starts a graceful drain when it flips.

use std::sync::atomic::{AtomicBool, Ordering};

static SHUTDOWN: AtomicBool = AtomicBool::new(false);

#[cfg(unix)]
mod imp {
    use super::SHUTDOWN;
    use std::sync::atomic::Ordering;

    const SIGINT: i32 = 2;
    const SIGTERM: i32 = 15;

    extern "C" {
        fn signal(signum: i32, handler: usize) -> usize;
    }

    extern "C" fn on_signal(_signum: i32) {
        SHUTDOWN.store(true, Ordering::SeqCst);
    }

    pub fn install() {
        // SAFETY: on_signal only stores to an atomic, which is
        // async-signal-safe; the handler pointer outlives the process.
        let handler = on_signal as extern "C" fn(i32) as *const () as usize;
        unsafe {
            signal(SIGINT, handler);
            signal(SIGTERM, handler);
        }
    }
}

#[cfg(not(unix))]
mod imp {
    pub fn install() {}
}

/// Installs the SIGINT/SIGTERM handlers (no-op off Unix).
pub fn install() {
    imp::install();
}

/// Whether a termination signal has been received.
#[must_use]
pub fn shutdown_requested() -> bool {
    SHUTDOWN.load(Ordering::SeqCst)
}
