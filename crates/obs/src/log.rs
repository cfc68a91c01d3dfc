//! Leveled structured logging: `key=value` text or JSON lines on
//! stderr.
//!
//! One global logger per process, configured once at startup from
//! `--log-level` / `--log-json`. Records are single lines so they
//! interleave safely across threads and grep cleanly across
//! processes — the whole point of stamping trace ids is that
//! `grep trace=0000000100ab12cd router.log shard.log` reconstructs a
//! command's path.
//!
//! Call sites use [`logline!`](crate::logline): it checks [`enabled`] before building
//! any field strings, so filtered-out levels cost one relaxed atomic
//! load.

use std::sync::atomic::{AtomicBool, AtomicU8, Ordering};
use std::time::{SystemTime, UNIX_EPOCH};

/// Severity, ordered. The default level is `Info`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum Level {
    Debug = 0,
    Info = 1,
    Warn = 2,
    Error = 3,
}

impl Level {
    pub fn as_str(self) -> &'static str {
        match self {
            Level::Debug => "debug",
            Level::Info => "info",
            Level::Warn => "warn",
            Level::Error => "error",
        }
    }

    /// Parses a `--log-level` argument (case-insensitive).
    pub fn parse(s: &str) -> Option<Level> {
        match s.to_ascii_lowercase().as_str() {
            "debug" => Some(Level::Debug),
            "info" => Some(Level::Info),
            "warn" | "warning" => Some(Level::Warn),
            "error" => Some(Level::Error),
            _ => None,
        }
    }
}

static LEVEL: AtomicU8 = AtomicU8::new(Level::Info as u8);
static JSON: AtomicBool = AtomicBool::new(false);

/// Configures the process-wide logger. Callable any time; takes
/// effect for subsequent records.
pub fn init(level: Level, json: bool) {
    LEVEL.store(level as u8, Ordering::Relaxed);
    JSON.store(json, Ordering::Relaxed);
}

/// Whether a record at `level` would be emitted.
pub fn enabled(level: Level) -> bool {
    level as u8 >= LEVEL.load(Ordering::Relaxed)
}

/// Emits one record unconditionally. Prefer [`logline!`](crate::logline), which
/// checks [`enabled`] before formatting fields.
pub fn emit(level: Level, event: &str, fields: &[(&str, String)]) {
    let ts = SystemTime::now()
        .duration_since(UNIX_EPOCH)
        .unwrap_or_default();
    let line = render(
        level,
        event,
        fields,
        JSON.load(Ordering::Relaxed),
        ts.as_secs(),
        ts.subsec_millis(),
    );
    eprintln!("{line}");
}

/// Pure record formatter (separated from [`emit`] for testability).
pub fn render(
    level: Level,
    event: &str,
    fields: &[(&str, String)],
    json: bool,
    secs: u64,
    millis: u32,
) -> String {
    let mut out = String::with_capacity(64 + fields.len() * 16);
    if json {
        out.push_str(&format!(
            "{{\"ts\":{secs}.{millis:03},\"level\":\"{}\",\"event\":\"{}\"",
            level.as_str(),
            escape_json(event)
        ));
        for (k, v) in fields {
            out.push_str(&format!(",\"{}\":", escape_json(k)));
            if is_bare_number(v) {
                out.push_str(v);
            } else {
                out.push_str(&format!("\"{}\"", escape_json(v)));
            }
        }
        out.push('}');
    } else {
        out.push_str(&format!(
            "ts={secs}.{millis:03} level={} event={}",
            level.as_str(),
            event
        ));
        for (k, v) in fields {
            out.push(' ');
            out.push_str(k);
            out.push('=');
            if v.is_empty() || v.contains([' ', '"', '=']) {
                out.push('"');
                out.push_str(&v.replace('\\', "\\\\").replace('"', "\\\""));
                out.push('"');
            } else {
                out.push_str(v);
            }
        }
    }
    out
}

/// A value that can ride unquoted in JSON output: an integer or
/// simple decimal.
fn is_bare_number(s: &str) -> bool {
    !s.is_empty()
        && s.parse::<f64>().map(f64::is_finite).unwrap_or(false)
        && s.bytes()
            .all(|b| b.is_ascii_digit() || b == b'.' || b == b'-')
}

fn escape_json(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out
}

/// Emits a structured record if the level passes the filter. Fields
/// are `name = expr` pairs; each expr is formatted with `to_string()`
/// only when the record is actually emitted.
///
/// ```
/// use aware_obs::log::Level;
/// aware_obs::logline!(Level::Info, "shard_joined", addr = "127.0.0.1:7000", sessions = 42);
/// ```
#[macro_export]
macro_rules! logline {
    ($level:expr, $event:expr $(, $k:ident = $v:expr)* $(,)?) => {
        if $crate::log::enabled($level) {
            $crate::log::emit($level, $event, &[$((stringify!($k), $v.to_string())),*]);
        }
    };
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn text_format_is_greppable_key_value() {
        let line = render(
            Level::Warn,
            "slow_query",
            &[
                ("trace", "0000000100ab12cd".to_string()),
                ("session", "7".to_string()),
                ("message", "has spaces".to_string()),
            ],
            false,
            12,
            34,
        );
        assert_eq!(
            line,
            "ts=12.034 level=warn event=slow_query trace=0000000100ab12cd session=7 message=\"has spaces\""
        );
    }

    #[test]
    fn json_format_quotes_strings_but_not_numbers() {
        let line = render(
            Level::Error,
            "persist_failed",
            &[
                ("session", "19".to_string()),
                ("error", "disk \"full\"".to_string()),
                ("wealth", "0.05".to_string()),
            ],
            true,
            9,
            7,
        );
        assert_eq!(
            line,
            "{\"ts\":9.007,\"level\":\"error\",\"event\":\"persist_failed\",\"session\":19,\"error\":\"disk \\\"full\\\"\",\"wealth\":0.05}"
        );
    }

    #[test]
    fn level_parse_and_order() {
        assert_eq!(Level::parse("WARN"), Some(Level::Warn));
        assert_eq!(Level::parse("nope"), None);
        assert!(Level::Debug < Level::Error);
    }

    #[test]
    fn bare_number_detection() {
        assert!(is_bare_number("42"));
        assert!(is_bare_number("-1.5"));
        assert!(!is_bare_number("1e9")); // exponent: quote it
        assert!(!is_bare_number("0x10"));
        assert!(!is_bare_number(""));
        assert!(!is_bare_number("NaN"));
    }
}
