//! The wire protocol: line-oriented requests, length-prefixed responses.
//!
//! **Requests** are one UTF-8 line each (at most [`MAX_LINE`] bytes,
//! `\n`-terminated, `\r\n` tolerated). A line is either a session-control
//! verb (`open`, `attach`, `detach`, `deadline`, `sessions`, `status`,
//! `ping`) or any command of the shared REPL grammar
//! ([`em_core::command`]), executed against the connection's attached
//! session. Blank lines and `#` comments are ignored (no response), so a
//! human driving the server through netcat can paste annotated scripts.
//!
//! **Responses** are framed so payloads can span lines and carry exact
//! byte counts: a header line `ok <len>\n` or `err <len>\n` followed by
//! exactly `<len>` bytes of UTF-8 payload. Successful payloads are
//! one-line JSON records (see [`em_core::porcelain`]); error payloads are
//! human-readable messages. The framing keeps the protocol
//! netcat-debuggable while letting clients read without guessing where a
//! response ends.
//!
//! Note one deliberate shadowing: in the REPL grammar `open <dir>` opens
//! a store *directory*; on the wire `open <name>` creates a named
//! *session* (the server owns the directories). File-path commands
//! (`save <path>`, `load`, `export`, `import`, REPL-`open`) are rejected
//! over the wire — the server's filesystem is not the client's.

use em_core::command::{self, Command};
use std::io::{BufRead, Write};
use std::time::Duration;

/// Upper bound on one request line, in bytes.
pub const MAX_LINE: usize = 16 * 1024;

/// Upper bound a client accepts for one response payload, in bytes.
pub const MAX_FRAME: usize = 16 * 1024 * 1024;

/// Frames one `replicate` response ships when the request names no `max`.
pub const DEFAULT_REPLICATE_MAX: usize = 256;

/// Hard ceiling on frames per `replicate` response, whatever the request
/// asks for — keeps one response under the frame cap.
pub const MAX_REPLICATE_MAX: usize = 4096;

/// One parsed request line.
#[derive(Debug, Clone, PartialEq)]
pub enum Request {
    /// `open <name>` — create a fresh named session and attach to it.
    Open(String),
    /// `attach <name>` — attach to an existing session, recovering it
    /// from its durable store if it is not resident.
    Attach(String),
    /// `detach` — drop this connection's session binding.
    Detach,
    /// `deadline <ms>` / `deadline off` — set or lift the attached
    /// session's per-edit wall-clock budget.
    Deadline(Option<Duration>),
    /// `sessions` — list every session the server knows about.
    Sessions,
    /// `status` — the attached session's status.
    Status,
    /// `ping` — liveness probe.
    Ping,
    /// `replicate <session> <epoch> <idx> [max]` — ship journal frames of
    /// the named session past the watermark `(epoch, idx)`; followers
    /// poll this on the leader.
    Replicate {
        /// Session whose journal to tail.
        name: String,
        /// Watermark epoch (journal generation).
        epoch: u64,
        /// Frames already consumed within that generation.
        idx: u64,
        /// Maximum frames to ship in one response.
        max: usize,
    },
    /// `snapshot <session>` — ship the named session's newest on-disk
    /// snapshot (binary payload); how a follower bootstraps or resyncs a
    /// session whose early journal generations were compacted away.
    Snapshot(String),
    /// `promote` — flip this follower to leader: stop replicating, settle
    /// parked work, take the store locks, accept mutations.
    Promote,
    /// `scrub <session> [--repair]` — walk the named session's store
    /// (both snapshot generations + journals), verify every CRC frame,
    /// and report findings; with `--repair`, restore the newest provably
    /// consistent state.
    Scrub {
        /// Session whose store directory to scrub.
        name: String,
        /// Whether to repair findings instead of just reporting them.
        repair: bool,
    },
    /// `shutdown` — drain the server: stop accepting new connections,
    /// settle parked edits, snapshot every resident session, release the
    /// store locks, exit.
    Shutdown,
    /// `metrics` — the process-global metrics registry as porcelain JSON
    /// (counters, gauges, histogram summaries, ring-buffer series).
    Metrics,
    /// `replicas` — on a leader, every follower's `(epoch, idx)` watermark
    /// and measured lag, as observed from its `replicate` polls.
    Replicas,
    /// Any command of the shared REPL grammar, run on the attached
    /// session.
    Cmd(Command),
}

/// Parses one request line. Blank lines and `#` comments yield `None`.
pub fn parse_request(line: &str) -> Result<Option<Request>, String> {
    let trimmed = line.trim();
    if trimmed.is_empty() || trimmed.starts_with('#') {
        return Ok(None);
    }
    let (word, rest) = match trimmed.split_once(char::is_whitespace) {
        Some((w, r)) => (w, r.trim()),
        None => (trimmed, ""),
    };
    let named = |what: &str| -> Result<String, String> {
        if rest.is_empty() {
            Err(format!("{word}: missing {what}"))
        } else if rest.split_whitespace().count() > 1 {
            Err(format!("{word}: expected one {what}, got {rest:?}"))
        } else {
            Ok(rest.to_string())
        }
    };
    let req = match word.to_lowercase().as_str() {
        "open" => Request::Open(named("session name")?),
        "attach" => Request::Attach(named("session name")?),
        "detach" => Request::Detach,
        "deadline" => match rest.to_lowercase().as_str() {
            "" => return Err("deadline: missing <ms> or `off`".to_string()),
            "off" | "none" => Request::Deadline(None),
            ms => Request::Deadline(Some(Duration::from_millis(
                ms.parse()
                    .map_err(|_| format!("deadline: bad milliseconds {ms:?}"))?,
            ))),
        },
        "sessions" => Request::Sessions,
        "status" => Request::Status,
        "ping" => Request::Ping,
        "replicate" => {
            let parts: Vec<&str> = rest.split_whitespace().collect();
            if parts.len() < 3 || parts.len() > 4 {
                return Err("replicate: expected <session> <epoch> <idx> [max]".to_string());
            }
            let num = |what: &str, s: &str| -> Result<u64, String> {
                s.parse()
                    .map_err(|_| format!("replicate: bad {what} {s:?}"))
            };
            Request::Replicate {
                name: parts[0].to_string(),
                epoch: num("epoch", parts[1])?,
                idx: num("idx", parts[2])?,
                max: parts
                    .get(3)
                    .map_or(Ok(DEFAULT_REPLICATE_MAX as u64), |s| num("max", s))?
                    .min(MAX_REPLICATE_MAX as u64) as usize,
            }
        }
        "snapshot" => Request::Snapshot(named("session name")?),
        "promote" => Request::Promote,
        "scrub" => {
            let parts: Vec<&str> = rest.split_whitespace().collect();
            match parts.as_slice() {
                [name] => Request::Scrub {
                    name: name.to_string(),
                    repair: false,
                },
                [name, "--repair"] => Request::Scrub {
                    name: name.to_string(),
                    repair: true,
                },
                _ => return Err("scrub: expected <session> [--repair]".to_string()),
            }
        }
        "shutdown" => Request::Shutdown,
        "metrics" => Request::Metrics,
        "replicas" => Request::Replicas,
        _ => match command::parse(trimmed)? {
            Some(cmd) => Request::Cmd(cmd),
            None => return Ok(None),
        },
    };
    Ok(Some(req))
}

impl Request {
    /// The wire verb this request dispatches as — the `cmd` label of its
    /// latency histogram. Stable and low-cardinality by construction: one
    /// value per grammar word, never derived from client-supplied text.
    pub fn verb(&self) -> &'static str {
        match self {
            Request::Open(_) => "open",
            Request::Attach(_) => "attach",
            Request::Detach => "detach",
            Request::Deadline(_) => "deadline",
            Request::Sessions => "sessions",
            Request::Status => "status",
            Request::Ping => "ping",
            Request::Replicate { .. } => "replicate",
            Request::Snapshot(_) => "snapshot",
            Request::Promote => "promote",
            Request::Scrub { .. } => "scrub",
            Request::Shutdown => "shutdown",
            Request::Metrics => "metrics",
            Request::Replicas => "replicas",
            Request::Cmd(cmd) => cmd.verb(),
        }
    }
}

/// Every verb [`Request::verb`] can return, for pre-registering the
/// per-command latency histograms (the hot-path lookup is then a plain
/// `HashMap` read, no registry lock). Sorted; `open` and `status` are
/// shared between the wire and the grammar, so they appear once.
pub const ALL_VERBS: &[&str] = &[
    "add",
    "addpred",
    "attach",
    "deadline",
    "detach",
    "explain",
    "export",
    "features",
    "help",
    "history",
    "import",
    "lint",
    "load",
    "matches",
    "memory",
    "metrics",
    "misses",
    "open",
    "optimize",
    "ping",
    "promote",
    "quality",
    "quit",
    "replicas",
    "replicate",
    "resume",
    "rm",
    "rmpred",
    "rules",
    "run",
    "save",
    "scrub",
    "sessions",
    "set",
    "shutdown",
    "simplify",
    "snapshot",
    "stats",
    "status",
    "undo",
];

/// The typed kind of an `err` payload, recovered from its stable prefix.
///
/// Every [`crate::ServerError`] variant renders as `<prefix>: <detail>`
/// with a prefix from this table, so clients tally refusals by *kind*
/// instead of string-matching free-form text — a wording change in the
/// detail can no longer silently zero a counter. The prefix table is
/// pinned by a golden test; changing a prefix is a wire-protocol change.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum ErrorKind {
    /// `bad request` — the request line did not parse.
    BadRequest,
    /// `unknown_session` — no session with that name.
    UnknownSession,
    /// `session_exists` — `open` of an existing name.
    SessionExists,
    /// `not attached` — a session command before `open`/`attach`.
    NotAttached,
    /// `unsupported over the wire` — REPL-only verb.
    Unsupported,
    /// `edit` — the debugging session rejected the edit.
    Edit,
    /// `persist` — the durable store failed.
    Persist,
    /// `busy` — admission refused the connection.
    Busy,
    /// `read_only` — a mutation reached a replica.
    ReadOnly,
    /// `overloaded` — the command was shed from the admission queue.
    Overloaded,
    /// `degraded` — the session's store is in degraded (read-only) mode.
    Degraded,
    /// `too_large` — a response exceeded the frame cap.
    TooLarge,
    /// `i/o error` — a socket-level failure.
    Io,
    /// No recognised prefix.
    Unknown,
}

impl ErrorKind {
    /// The wire prefix (the text before the first `:` of an `err`
    /// payload).
    pub fn prefix(self) -> &'static str {
        match self {
            ErrorKind::BadRequest => "bad request",
            ErrorKind::UnknownSession => "unknown_session",
            ErrorKind::SessionExists => "session_exists",
            ErrorKind::NotAttached => "not attached",
            ErrorKind::Unsupported => "unsupported over the wire",
            ErrorKind::Edit => "edit",
            ErrorKind::Persist => "persist",
            ErrorKind::Busy => "busy",
            ErrorKind::ReadOnly => "read_only",
            ErrorKind::Overloaded => "overloaded",
            ErrorKind::Degraded => "degraded",
            ErrorKind::TooLarge => "too_large",
            ErrorKind::Io => "i/o error",
            ErrorKind::Unknown => "",
        }
    }

    /// A metric-label-safe identifier for this kind (snake_case, no
    /// spaces) — the `kind` label of `em_errors_total`.
    pub fn name(self) -> &'static str {
        match self {
            ErrorKind::BadRequest => "bad_request",
            ErrorKind::UnknownSession => "unknown_session",
            ErrorKind::SessionExists => "session_exists",
            ErrorKind::NotAttached => "not_attached",
            ErrorKind::Unsupported => "unsupported",
            ErrorKind::Edit => "edit",
            ErrorKind::Persist => "persist",
            ErrorKind::Busy => "busy",
            ErrorKind::ReadOnly => "read_only",
            ErrorKind::Overloaded => "overloaded",
            ErrorKind::Degraded => "degraded",
            ErrorKind::TooLarge => "too_large",
            ErrorKind::Io => "io",
            ErrorKind::Unknown => "unknown",
        }
    }

    /// Every typed kind, for exhaustive golden tests.
    pub fn all() -> [ErrorKind; 13] {
        [
            ErrorKind::BadRequest,
            ErrorKind::UnknownSession,
            ErrorKind::SessionExists,
            ErrorKind::NotAttached,
            ErrorKind::Unsupported,
            ErrorKind::Edit,
            ErrorKind::Persist,
            ErrorKind::Busy,
            ErrorKind::ReadOnly,
            ErrorKind::Overloaded,
            ErrorKind::Degraded,
            ErrorKind::TooLarge,
            ErrorKind::Io,
        ]
    }
}

/// Classifies an `err` payload by its typed prefix.
pub fn error_kind(payload: &str) -> ErrorKind {
    let Some((prefix, _)) = payload.split_once(':') else {
        return ErrorKind::Unknown;
    };
    ErrorKind::all()
        .into_iter()
        .find(|k| k.prefix() == prefix)
        .unwrap_or(ErrorKind::Unknown)
}

/// Writes one framed response: `ok|err <len>\n` + payload, flushed.
pub fn write_frame(w: &mut impl Write, ok: bool, payload: &str) -> std::io::Result<()> {
    let status = if ok { "ok" } else { "err" };
    writeln!(w, "{status} {}", payload.len())?;
    w.write_all(payload.as_bytes())?;
    w.flush()
}

/// Reads one framed response. Returns `None` on clean EOF at a frame
/// boundary; mid-frame EOF and malformed headers are errors.
pub fn read_frame(r: &mut impl BufRead) -> std::io::Result<Option<(bool, String)>> {
    let mut header = String::new();
    if r.read_line(&mut header)? == 0 {
        return Ok(None);
    }
    let header = header.trim_end();
    let bad = || {
        std::io::Error::new(
            std::io::ErrorKind::InvalidData,
            format!("malformed frame header {header:?}"),
        )
    };
    let (status, len) = header.split_once(' ').ok_or_else(bad)?;
    let ok = match status {
        "ok" => true,
        "err" => false,
        _ => return Err(bad()),
    };
    let len: usize = len.parse().map_err(|_| bad())?;
    if len > MAX_FRAME {
        return Err(std::io::Error::new(
            std::io::ErrorKind::InvalidData,
            format!("frame of {len} bytes exceeds the {MAX_FRAME}-byte cap"),
        ));
    }
    let mut payload = vec![0u8; len];
    r.read_exact(&mut payload)?;
    let payload = String::from_utf8(payload)
        .map_err(|_| std::io::Error::new(std::io::ErrorKind::InvalidData, "non-UTF-8 payload"))?;
    Ok(Some((ok, payload)))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn every_parsed_verb_is_preregistered() {
        // A verb missing from ALL_VERBS would silently fall back to the
        // registry-locked path for its latency histogram; keep the table
        // exhaustive and duplicate-free.
        let mut sorted = ALL_VERBS.to_vec();
        sorted.sort_unstable();
        sorted.dedup();
        assert_eq!(sorted, ALL_VERBS, "ALL_VERBS sorted and unique");
        for line in [
            "open a",
            "attach a",
            "detach",
            "deadline off",
            "sessions",
            "status",
            "ping",
            "replicate a 0 0",
            "snapshot a",
            "promote",
            "scrub a",
            "shutdown",
            "metrics",
            "replicas",
            "help",
            "add x",
            "rules",
            "rm r1",
            "addpred r1 x",
            "rmpred p1",
            "set p1 0.5",
            "undo",
            "resume",
            "simplify",
            "lint",
            "run",
            "matches",
            "explain 0",
            "misses f1",
            "quality",
            "stats",
            "optimize",
            "memory",
            "history",
            "features",
            "save",
            "load x",
            "export x",
            "import x",
            "quit",
        ] {
            let req = parse_request(line).unwrap().unwrap();
            assert!(
                ALL_VERBS.contains(&req.verb()),
                "verb {:?} of {line:?} not pre-registered",
                req.verb()
            );
        }
    }

    #[test]
    fn control_verbs_parse() {
        assert_eq!(
            parse_request("open alice").unwrap(),
            Some(Request::Open("alice".into()))
        );
        assert_eq!(
            parse_request("ATTACH bob-2").unwrap(),
            Some(Request::Attach("bob-2".into()))
        );
        assert_eq!(parse_request("detach").unwrap(), Some(Request::Detach));
        assert_eq!(parse_request("sessions").unwrap(), Some(Request::Sessions));
        assert_eq!(parse_request("status").unwrap(), Some(Request::Status));
        assert_eq!(parse_request("ping").unwrap(), Some(Request::Ping));
        assert_eq!(
            parse_request("deadline 250").unwrap(),
            Some(Request::Deadline(Some(Duration::from_millis(250))))
        );
        assert_eq!(
            parse_request("deadline off").unwrap(),
            Some(Request::Deadline(None))
        );
    }

    #[test]
    fn replication_verbs_parse() {
        assert_eq!(
            parse_request("replicate alice 3 17").unwrap(),
            Some(Request::Replicate {
                name: "alice".into(),
                epoch: 3,
                idx: 17,
                max: DEFAULT_REPLICATE_MAX,
            })
        );
        assert_eq!(
            parse_request("replicate alice 0 0 64").unwrap(),
            Some(Request::Replicate {
                name: "alice".into(),
                epoch: 0,
                idx: 0,
                max: 64,
            })
        );
        // Requested max is clamped to the hard ceiling.
        assert_eq!(
            parse_request("replicate alice 0 0 999999").unwrap(),
            Some(Request::Replicate {
                name: "alice".into(),
                epoch: 0,
                idx: 0,
                max: MAX_REPLICATE_MAX,
            })
        );
        assert_eq!(
            parse_request("snapshot alice").unwrap(),
            Some(Request::Snapshot("alice".into()))
        );
        assert_eq!(parse_request("promote").unwrap(), Some(Request::Promote));
        assert_eq!(
            parse_request("scrub alice").unwrap(),
            Some(Request::Scrub {
                name: "alice".into(),
                repair: false,
            })
        );
        assert_eq!(
            parse_request("scrub alice --repair").unwrap(),
            Some(Request::Scrub {
                name: "alice".into(),
                repair: true,
            })
        );
        assert!(parse_request("scrub").unwrap_err().contains("expected"));
        assert!(parse_request("scrub a b").unwrap_err().contains("expected"));
        assert_eq!(parse_request("shutdown").unwrap(), Some(Request::Shutdown));
        assert!(parse_request("replicate alice")
            .unwrap_err()
            .contains("expected"));
        assert!(parse_request("replicate alice x 0")
            .unwrap_err()
            .contains("bad epoch"));
        assert!(parse_request("snapshot")
            .unwrap_err()
            .contains("session name"));
    }

    #[test]
    fn grammar_commands_pass_through() {
        assert_eq!(
            parse_request("run").unwrap(),
            Some(Request::Cmd(Command::Run))
        );
        assert_eq!(
            parse_request("add exact(a, b) >= 1").unwrap(),
            Some(Request::Cmd(Command::AddRule("exact(a, b) >= 1".into())))
        );
        // Wire `open` shadows REPL `open <dir>`: a one-word operand is a
        // session name, never a directory.
        assert_eq!(
            parse_request("open store/dir").unwrap(),
            Some(Request::Open("store/dir".into()))
        );
    }

    #[test]
    fn blanks_comments_and_errors() {
        assert_eq!(parse_request("").unwrap(), None);
        assert_eq!(parse_request("  # note").unwrap(), None);
        assert!(parse_request("open").unwrap_err().contains("session name"));
        assert!(parse_request("open a b").unwrap_err().contains("one"));
        assert!(parse_request("deadline soon").unwrap_err().contains("bad"));
        assert!(parse_request("frobnicate")
            .unwrap_err()
            .contains("unknown command"));
    }

    #[test]
    fn frames_roundtrip() {
        let mut buf = Vec::new();
        write_frame(&mut buf, true, "{\"event\":\"pong\"}").unwrap();
        write_frame(&mut buf, false, "no session").unwrap();
        write_frame(&mut buf, true, "").unwrap();
        let mut r = std::io::BufReader::new(buf.as_slice());
        assert_eq!(
            read_frame(&mut r).unwrap(),
            Some((true, "{\"event\":\"pong\"}".to_string()))
        );
        assert_eq!(
            read_frame(&mut r).unwrap(),
            Some((false, "no session".to_string()))
        );
        assert_eq!(read_frame(&mut r).unwrap(), Some((true, String::new())));
        assert_eq!(read_frame(&mut r).unwrap(), None);
    }

    #[test]
    fn frames_with_multiline_payload_roundtrip() {
        let payload = "line one\nline two\nline three";
        let mut buf = Vec::new();
        write_frame(&mut buf, true, payload).unwrap();
        let mut r = std::io::BufReader::new(buf.as_slice());
        assert_eq!(
            read_frame(&mut r).unwrap(),
            Some((true, payload.to_string()))
        );
    }

    #[test]
    fn malformed_frames_are_errors() {
        for bad in ["gibberish\n", "ok nope\n", "maybe 3\nabc"] {
            let mut r = std::io::BufReader::new(bad.as_bytes());
            assert!(read_frame(&mut r).is_err(), "{bad:?} must not parse");
        }
        // Mid-frame EOF.
        let mut r = std::io::BufReader::new("ok 10\nabc".as_bytes());
        assert!(read_frame(&mut r).is_err());
    }
}
