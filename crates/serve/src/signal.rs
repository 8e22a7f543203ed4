//! Dependency-free SIGINT/SIGTERM notification.
//!
//! The repo's no-external-crates rule leaves `libc`'s `signal(2)` binding
//! to a two-line `extern "C"` declaration. The handler does the only
//! thing that is async-signal-safe here: store into a static
//! `AtomicBool`. The server's accept loop polls [`shutdown_requested`]
//! between accepts and starts its drain sequence when it flips.

use std::sync::atomic::{AtomicBool, Ordering};

static SHUTDOWN: AtomicBool = AtomicBool::new(false);

/// `true` once a registered signal has been delivered.
pub(crate) fn shutdown_requested() -> bool {
    SHUTDOWN.load(Ordering::SeqCst)
}

#[cfg(unix)]
mod imp {
    use std::sync::atomic::Ordering;

    const SIGINT: i32 = 2;
    const SIGTERM: i32 = 15;

    extern "C" {
        fn signal(signum: i32, handler: usize) -> usize;
    }

    extern "C" fn on_signal(_signum: i32) {
        super::SHUTDOWN.store(true, Ordering::SeqCst);
    }

    /// Routes SIGINT and SIGTERM to the shutdown flag.
    pub(crate) fn install() {
        let handler = on_signal as extern "C" fn(i32) as *const () as usize;
        unsafe {
            signal(SIGINT, handler);
            signal(SIGTERM, handler);
        }
    }
}

#[cfg(not(unix))]
mod imp {
    /// No signal plumbing off-unix; `{"cmd":"shutdown"}` still works.
    pub(crate) fn install() {}
}

pub(crate) use imp::install;
