//! Leveled logging (`SELEARN_LOG=off|warn|info|debug`).
//!
//! Replaces the bench harness's ad-hoc `eprintln!` lines: messages at or
//! below the active level go to stderr prefixed `[selearn]`.

use std::sync::atomic::{AtomicU8, Ordering};

/// Log verbosity, ordered `Off < Warn < Info < Debug`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
#[repr(u8)]
pub enum Level {
    /// No log output.
    Off = 0,
    /// Actionable anomalies (drift alarms, degraded serving).
    Warn = 1,
    /// Progress messages (the default).
    Info = 2,
    /// Per-phase diagnostics (solver exits, bisection probes, …).
    Debug = 3,
}

/// 0..=3 mirror `Level`; 4 = "uninitialised, read SELEARN_LOG on first use".
const UNINIT: u8 = 4;
static LEVEL: AtomicU8 = AtomicU8::new(UNINIT);

/// Parses a `SELEARN_LOG` value.
fn parse_level(value: Option<&str>) -> Level {
    match value {
        Some("off") | Some("0") => Level::Off,
        Some("warn") | Some("1") => Level::Warn,
        Some("debug") | Some("3") => Level::Debug,
        // default and explicit "info"/"2" and any unrecognised value
        _ => Level::Info,
    }
}

/// The active level, lazily initialised from `SELEARN_LOG`.
pub fn level() -> Level {
    match LEVEL.load(Ordering::Relaxed) {
        0 => Level::Off,
        1 => Level::Warn,
        2 => Level::Info,
        3 => Level::Debug,
        _ => {
            let l = parse_level(std::env::var("SELEARN_LOG").ok().as_deref());
            LEVEL.store(l as u8, Ordering::Relaxed);
            l
        }
    }
}

/// `true` when messages at `l` would be printed.
#[inline]
pub fn log_enabled(l: Level) -> bool {
    l <= level()
}

/// Logs `message` at level `l` as one stderr line. Prefer the
/// [`crate::warn!`]/[`crate::info!`]/[`crate::debug!`] macros, which skip
/// formatting entirely when the level is off.
pub fn log(l: Level, message: &str) {
    if !log_enabled(l) {
        return;
    }
    if l == Level::Warn {
        eprintln!("[selearn] warn: {message}");
    } else {
        eprintln!("[selearn] {message}");
    }
}

/// Logs at [`Level::Warn`]; arguments are only formatted when warn
/// logging is active.
#[macro_export]
macro_rules! warn {
    ($($arg:tt)*) => {
        if $crate::log::log_enabled($crate::Level::Warn) {
            $crate::log::log($crate::Level::Warn, &format!($($arg)*));
        }
    };
}

/// Logs at [`Level::Info`]; arguments are only formatted when info
/// logging is active.
#[macro_export]
macro_rules! info {
    ($($arg:tt)*) => {
        if $crate::log::log_enabled($crate::Level::Info) {
            $crate::log::log($crate::Level::Info, &format!($($arg)*));
        }
    };
}

/// Logs at [`Level::Debug`]; arguments are only formatted when debug
/// logging is active.
#[macro_export]
macro_rules! debug {
    ($($arg:tt)*) => {
        if $crate::log::log_enabled($crate::Level::Debug) {
            $crate::log::log($crate::Level::Debug, &format!($($arg)*));
        }
    };
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn levels_parse_and_order() {
        assert!(
            Level::Off < Level::Warn && Level::Warn < Level::Info && Level::Info < Level::Debug
        );
        for (value, level) in [
            (Some("off"), Level::Off),
            (Some("0"), Level::Off),
            (Some("warn"), Level::Warn),
            (Some("1"), Level::Warn),
            (Some("info"), Level::Info),
            (Some("2"), Level::Info),
            (Some("debug"), Level::Debug),
            (Some("3"), Level::Debug),
            (Some("loud"), Level::Info),
            (None, Level::Info),
        ] {
            assert_eq!(parse_level(value), level, "{value:?}");
        }
    }
}
