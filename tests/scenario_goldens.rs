//! Cross-surface scenario goldens: one debugging session written in the
//! REPL grammar (`tests/scenarios/debug_loop.rulem`) runs through the
//! CLI's human renderer, the CLI's `--porcelain` renderer, and the
//! server's wire protocol.
//!
//! - CLI human output must equal `golden/debug_loop.human`;
//! - the wire payloads must equal `golden/debug_loop.porcelain`;
//! - CLI `--porcelain` must print those same wire payloads.
//!
//! Timings are masked before comparison (`elapsed_us` in JSON, printed
//! durations in human text). Error wording is per surface: the human
//! golden pins the CLI's `error:` lines, the porcelain golden pins the
//! wire's `err` frames, and the CLI `--porcelain` check only requires
//! that the same commands fail.

use em_cli::{parse, App};
use em_core::SessionConfig;
use em_datagen::Domain;
use em_server::{serve, Client, ServerConfig, SessionTemplate};

const SCENARIO: &str = include_str!("scenarios/debug_loop.rulem");
const HUMAN_GOLDEN: &str = include_str!("golden/debug_loop.human");
const PORCELAIN_GOLDEN: &str = include_str!("golden/debug_loop.porcelain");

const SCALE: f64 = 0.01;
const SEED: u64 = 7;

/// One command's reply: its payload, or the surface's error message.
type Reply = Result<String, String>;

fn commands() -> impl Iterator<Item = &'static str> {
    SCENARIO
        .lines()
        .map(str::trim)
        .filter(|l| !l.is_empty() && !l.starts_with('#'))
}

fn config() -> SessionConfig {
    SessionConfig::default()
}

fn run_cli(porcelain: bool) -> Vec<(&'static str, Reply)> {
    let mut app = App::demo(Domain::Products, SCALE, SEED, config()).unwrap();
    app.set_porcelain(porcelain);
    commands()
        .map(|line| {
            let cmd = parse(line).unwrap().expect("scenario lines are commands");
            (line, app.execute(cmd).map_err(|e| e.to_string()))
        })
        .collect()
}

fn run_wire() -> Vec<(&'static str, Reply)> {
    let template = SessionTemplate::demo(Domain::Products, SCALE, SEED, config()).unwrap();
    let handle = serve(template, ServerConfig::default()).unwrap();
    let mut client = Client::connect(handle.addr()).unwrap();
    client.expect_ok("open scenario").unwrap();
    let replies = commands()
        .map(|line| {
            let (ok, payload) = client.request(line).unwrap();
            (line, if ok { Ok(payload) } else { Err(payload) })
        })
        .collect();
    drop(client);
    handle.shutdown();
    replies
}

/// The transcript as the REPL prints it: `error: …` for failures.
fn human_transcript(replies: &[(&str, Reply)]) -> String {
    let mut out = String::new();
    for (line, reply) in replies {
        out.push_str(&format!("> {line}\n"));
        match reply {
            Ok(text) => out.push_str(&mask_durations(text)),
            Err(e) => out.push_str(&format!("error: {e}")),
        }
        out.push('\n');
    }
    out
}

/// The transcript as frames: the payload, or `err <message>`.
fn porcelain_transcript(replies: &[(&str, Reply)]) -> String {
    let mut out = String::new();
    for (line, reply) in replies {
        out.push_str(&format!("> {line}\n"));
        match reply {
            Ok(payload) => out.push_str(&mask_elapsed_us(payload)),
            Err(e) => out.push_str(&format!("err {e}")),
        }
        out.push('\n');
    }
    out
}

/// Drops the wording of `err` lines, keeping only that the command failed.
fn errors_elided(transcript: &str) -> String {
    transcript
        .lines()
        .map(|l| if l.starts_with("err ") { "err" } else { l })
        .collect::<Vec<_>>()
        .join("\n")
}

/// Replaces every `"elapsed_us":<n>` value with 0.
fn mask_elapsed_us(s: &str) -> String {
    const KEY: &str = "\"elapsed_us\":";
    let mut out = String::with_capacity(s.len());
    let mut rest = s;
    while let Some(at) = rest.find(KEY) {
        out.push_str(&rest[..at + KEY.len()]);
        rest = rest[at + KEY.len()..].trim_start_matches(|c: char| c.is_ascii_digit());
        out.push('0');
    }
    out.push_str(rest);
    out
}

/// Replaces every printed duration (`12ns`, `3.4µs`, `5.67ms`, `1.2s`)
/// by `<t>`, collapsing the padding before it to one space.
fn mask_durations(s: &str) -> String {
    let chars: Vec<char> = s.chars().collect();
    let mut out = String::with_capacity(s.len());
    let mut i = 0;
    while i < chars.len() {
        let starts_token = i == 0 || !(chars[i - 1].is_alphanumeric() || chars[i - 1] == '.');
        if starts_token && chars[i].is_ascii_digit() {
            if let Some(end) = duration_end(&chars, i) {
                if out.ends_with(' ') {
                    out.truncate(out.trim_end_matches(' ').len());
                    out.push(' ');
                }
                out.push_str("<t>");
                i = end;
                continue;
            }
        }
        out.push(chars[i]);
        i += 1;
    }
    out
}

/// The end of a duration token starting at `i`, if one starts there.
fn duration_end(chars: &[char], mut i: usize) -> Option<usize> {
    while i < chars.len() && (chars[i].is_ascii_digit() || chars[i] == '.') {
        i += 1;
    }
    let unit_len = ["ns", "µs", "ms", "s"].iter().find_map(|unit| {
        let u: Vec<char> = unit.chars().collect();
        chars[i..].starts_with(&u).then_some(u.len())
    })?;
    let end = i + unit_len;
    let bounded = end == chars.len() || !chars[end].is_alphanumeric();
    bounded.then_some(end)
}

/// Panics at the first differing line, showing both sides.
fn assert_same(what: &str, actual: &str, golden: &str) {
    if actual == golden {
        return;
    }
    let (a, g): (Vec<&str>, Vec<&str>) = (actual.lines().collect(), golden.lines().collect());
    let at = a
        .iter()
        .zip(&g)
        .position(|(x, y)| x != y)
        .unwrap_or(a.len().min(g.len()));
    panic!(
        "{what} differs from its golden at line {}:\n  actual: {:?}\n  golden: {:?}\n\
         (actual {} lines, golden {} lines)",
        at + 1,
        a.get(at),
        g.get(at),
        a.len(),
        g.len()
    );
}

#[test]
fn cli_human_output_matches_the_human_golden() {
    let actual = human_transcript(&run_cli(false));
    assert_same("CLI human output", &actual, HUMAN_GOLDEN);
}

#[test]
fn wire_payloads_match_the_porcelain_golden() {
    let actual = porcelain_transcript(&run_wire());
    assert_same("wire payloads", &actual, PORCELAIN_GOLDEN);
}

#[test]
fn cli_porcelain_prints_the_wire_payloads() {
    let actual = errors_elided(&porcelain_transcript(&run_cli(true)));
    assert_same(
        "CLI --porcelain output",
        &actual,
        &errors_elided(PORCELAIN_GOLDEN),
    );
}

#[test]
fn duration_masking_covers_every_debug_unit() {
    assert_eq!(
        mask_durations("in 12ns, 3.4µs and    5.67ms (1.2s) p0 0.5 r1s"),
        "in <t>, <t> and <t> (<t>) p0 0.5 r1s"
    );
    assert_eq!(
        mask_elapsed_us(r#"{"elapsed_us":1234,"x":1}"#),
        r#"{"elapsed_us":0,"x":1}"#
    );
}
