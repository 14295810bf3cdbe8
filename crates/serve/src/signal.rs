//! SIGTERM / SIGINT → a process-wide shutdown flag.
//!
//! The workspace is offline (no `libc`/`signal-hook`), so the handler is
//! registered through the C `signal(2)` entry point libc already links in.
//! This is the only unsafe code in the workspace; the handler body does the
//! single async-signal-safe thing — a relaxed store to a static atomic —
//! and everything else polls that flag from ordinary threads.
//!
//! On non-Unix targets the module compiles to a no-op registration.

use std::sync::atomic::{AtomicBool, Ordering};

static SHUTDOWN: AtomicBool = AtomicBool::new(false);

/// Whether a shutdown signal has been seen.
pub fn shutdown_requested() -> bool {
    SHUTDOWN.load(Ordering::Acquire)
}

#[cfg(unix)]
#[allow(unsafe_code)] // the workspace-wide deny is lifted for exactly this registration
mod unix {
    use super::SHUTDOWN;
    use std::sync::atomic::Ordering;

    const SIGINT: i32 = 2;
    const SIGTERM: i32 = 15;

    extern "C" fn on_signal(_signum: i32) {
        // Only async-signal-safe operation: a store to a static atomic.
        SHUTDOWN.store(true, Ordering::Release);
    }

    extern "C" {
        fn signal(signum: i32, handler: extern "C" fn(i32)) -> usize;
    }

    pub fn install() {
        // SAFETY: `signal` is the C standard library's registration entry
        // point; `on_signal` is an `extern "C" fn(i32)` whose body is
        // async-signal-safe. Errors (SIG_ERR) are ignored: the fallback is
        // the default disposition, i.e. un-graceful exit.
        unsafe {
            signal(SIGTERM, on_signal);
            signal(SIGINT, on_signal);
        }
    }
}

/// Installs SIGTERM and SIGINT handlers that raise the shutdown flag.
/// Idempotent; a no-op off Unix.
pub fn install_handlers() {
    #[cfg(unix)]
    unix::install();
}
