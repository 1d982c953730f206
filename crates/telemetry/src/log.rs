//! A tiny leveled logger for progress output.
//!
//! The simulator's binaries and benches print their *results* on stdout;
//! everything else — progress notes, file-written confirmations, skipped
//! steps — goes through this logger to stderr so CI runs and benches are
//! quiet by default.
//!
//! The level comes from the `VIX_LOG` environment variable
//! (`off`, `warn`, `info` or `debug`; default `warn`), read once on
//! first use. Use the [`info!`](crate::info) and [`debug!`](crate::debug)
//! macros:
//!
//! ```
//! vix_telemetry::info!("wrote {} sweep points", 12);
//! ```
//!
//! Formatting arguments are only evaluated when the level is enabled.

use std::fmt;
use std::sync::atomic::{AtomicU8, Ordering};

/// Log severities, in increasing verbosity.
#[repr(u8)]
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum LogLevel {
    /// Something is wrong but the run continues.
    Warn = 1,
    /// High-level progress (files written, phases entered).
    Info = 2,
    /// Per-job / per-step detail.
    Debug = 3,
}

impl LogLevel {
    fn tag(self) -> &'static str {
        match self {
            LogLevel::Warn => "warn",
            LogLevel::Info => "info",
            LogLevel::Debug => "debug",
        }
    }
}

/// 0 = silent; 255 = "not yet read from the environment".
static LEVEL: AtomicU8 = AtomicU8::new(UNSET);
const UNSET: u8 = 255;

fn level_from_env() -> u8 {
    match std::env::var("VIX_LOG").ok().as_deref() {
        Some("off" | "silent" | "none") => 0,
        Some("info") => LogLevel::Info as u8,
        Some("debug") => LogLevel::Debug as u8,
        // `warn`, unset, and anything unrecognised: the quiet default.
        _ => LogLevel::Warn as u8,
    }
}

fn current_level() -> u8 {
    let lvl = LEVEL.load(Ordering::Relaxed);
    if lvl != UNSET {
        return lvl;
    }
    let from_env = level_from_env();
    // A racing set_level wins; only replace the UNSET sentinel.
    let _ = LEVEL.compare_exchange(UNSET, from_env, Ordering::Relaxed, Ordering::Relaxed);
    LEVEL.load(Ordering::Relaxed)
}

/// Overrides the level programmatically. Takes precedence over `VIX_LOG`
/// from then on.
#[cfg(test)]
fn set_level(level: Option<LogLevel>) {
    LEVEL.store(level.map_or(0, |l| l as u8), Ordering::Relaxed);
}

/// True when messages at `level` are currently emitted.
#[must_use]
pub fn enabled(level: LogLevel) -> bool {
    level as u8 <= current_level()
}

/// Emits one line to stderr. Prefer the macros, which skip argument
/// formatting when the level is off.
pub fn log(level: LogLevel, args: fmt::Arguments<'_>) {
    if enabled(level) {
        eprintln!("[vix {}] {args}", level.tag());
    }
}

/// Logs at [`LogLevel::Info`].
#[macro_export]
macro_rules! info {
    ($($arg:tt)*) => {
        if $crate::log::enabled($crate::log::LogLevel::Info) {
            $crate::log::log($crate::log::LogLevel::Info, ::core::format_args!($($arg)*));
        }
    };
}

/// Logs at [`LogLevel::Debug`].
#[macro_export]
macro_rules! debug {
    ($($arg:tt)*) => {
        if $crate::log::enabled($crate::log::LogLevel::Debug) {
            $crate::log::log($crate::log::LogLevel::Debug, ::core::format_args!($($arg)*));
        }
    };
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn levels_order_and_gate() {
        set_level(Some(LogLevel::Info));
        assert!(enabled(LogLevel::Warn));
        assert!(enabled(LogLevel::Info));
        assert!(!enabled(LogLevel::Debug));
        set_level(None);
        assert!(!enabled(LogLevel::Warn));
        set_level(Some(LogLevel::Debug));
        assert!(enabled(LogLevel::Debug));
    }
}
