//! The `rulem` binary: argument parsing, the REPL loop, and the
//! `serve` / `connect` network modes.

use em_blocking::Blocker;
use em_cli::{parse, App};
use em_core::{DebugSession, SessionConfig, SessionStore};
use em_datagen::Domain;
use em_server::{serve, Client, ServerConfig, SessionTemplate};
use std::io::{BufRead, Write};

const USAGE: &str = "\
usage:
  rulem --demo <domain> [--scale <f>] [--seed <n>] [--threads <n>] [--deadline-ms <n>]
      domains: products | restaurants | books | breakfast | movies | videogames
  rulem <a.csv> <b.csv> --block <attr>[:<spec>] [--threads <n>] [--deadline-ms <n>]
      either mode also accepts --store <dir> and --porcelain
      CSV files: first column is the record id, header row names attributes;
      blocking <spec> is a token min-overlap count on <attr> (default 2),
      ':eq' for an exact attribute-equivalence join, or ':j<t>' for a
      jaccard similarity join at threshold <t> (e.g. title:j0.6). The
      ':eq' and ':j' joins carry a similarity guarantee that `lint` uses
      to flag predicates the blocking step already satisfies.
  rulem serve --addr <host:port> [--store-root <dir>] [--max-conns <n>]
              [--max-resident <n>] [--workers <n>] [--queue-budget-ms <n>]
              [--rate <per-sec>[:<burst>]] [--follow <leader-addr>]
              [--promote-on-loss] [--metrics-addr <host:port>]
              [--no-metrics] [--log-json] [dataset flags as above]
      serves named debugging sessions over TCP; every client gets its own
      session over the shared dataset. With --store-root each session is
      journaled under <dir>/<name> and survives a server crash.
      Commands queue through fair-share admission (--workers execute them
      round-robin across connections; a command waiting past
      --queue-budget-ms is shed with `overloaded` + a retry hint; --rate
      token-buckets each connection). With --follow the server runs as a
      read-only replica of the leader at <leader-addr>, streaming its
      journal frames; `promote` (or --promote-on-loss after the leader
      stays unreachable) flips it to a leader that accepts mutations.
      --metrics-addr serves a Prometheus-style text exposition of the
      process metrics registry over HTTP (`:0` picks a free port; the
      `metrics` wire verb returns the same registry as JSON either way);
      --no-metrics disables all metric recording; --log-json writes
      structured JSON operational events (resyncs, degraded flips, scrub
      findings, drain) to stderr, one object per line.
  rulem connect [<host:port>] [--timeout-ms <n>]
      line-oriented client for a running server (also works with netcat).
      --timeout-ms bounds connect and each response read.
  rulem scrub <store-dir> [--repair] [--log-json]
      offline integrity check of a session store: verifies both snapshot
      generations and every journal CRC frame, reporting torn tails, bit
      flips, missing generations, orphan temp files, and stale locks.
      With --repair, restores the newest provably consistent state.
      Exits 0 when the store is serviceable, 1 when it is not.

examples:
  rulem --demo products --scale 0.05
  rulem walmart.csv amazon.csv --block title:2
  rulem yelp.csv foursquare.csv --block city:eq --threads 4 --deadline-ms 200
  rulem serve --addr 127.0.0.1:7878 --store-root /tmp/stores --demo products
  rulem connect 127.0.0.1:7878

--threads 1 runs serially (default); --threads 0 uses all cores;
--threads n runs matching and incremental edits on an n-worker pool.

--deadline-ms n bounds each edit's wall clock: an edit that exceeds it
stops early and reports a partial result; `resume` finishes it. Ctrl-C
cancels the edit in flight the same way (the session survives).

--store <dir> makes the session durable: every edit is journaled before
it applies, `save` folds the journal into a fresh snapshot, and starting
with the same --store recovers the session (snapshot + journal replay),
printing a recovery report.

--porcelain prints every session command's result as the payload the
server's wire protocol sends for it (one JSON record per line) for
scripted use.";

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let result = match args.first().map(String::as_str) {
        Some("serve") => serve_main(&args[1..]),
        Some("connect") => connect_main(&args[1..]),
        Some("scrub") => scrub_main(&args[1..]),
        _ => repl_main(&args),
    };
    if let Err(msg) = result {
        eprintln!("{msg}\n\n{USAGE}");
        std::process::exit(2);
    }
}

fn repl_main(args: &[String]) -> Result<(), String> {
    let mut app = build_app(args)?;
    if args.iter().any(|a| a == "--porcelain") {
        app.set_porcelain(true);
    }
    run_repl(app);
    Ok(())
}

/// Everything a session or server needs about the data: the tables,
/// blocked candidates, labels (demo mode only), and evaluation config.
struct Dataset {
    table_a: em_types::Table,
    table_b: em_types::Table,
    cands: em_types::CandidateSet,
    labels: Vec<em_types::LabeledPair>,
    config: SessionConfig,
    /// Similarity floors the blocking step guarantees for every candidate
    /// pair (empty for lossy blockers) — fed to the static analyzer so
    /// `lint` can flag predicates blocking already satisfies.
    guarantees: Vec<em_similarity::JoinGuarantee>,
}

fn get_flag<'a>(args: &'a [String], name: &str) -> Option<&'a str> {
    args.iter()
        .position(|a| a == name)
        .and_then(|i| args.get(i + 1))
        .map(String::as_str)
}

/// Builds the dataset from either `--demo <domain>` or two CSV paths
/// plus `--block`.
fn build_dataset(args: &[String]) -> Result<Dataset, String> {
    let n_threads: usize = get_flag(args, "--threads")
        .map(|s| s.parse().map_err(|_| format!("bad --threads {s:?}")))
        .transpose()?
        .unwrap_or(1);
    let deadline = get_flag(args, "--deadline-ms")
        .map(|s| {
            s.parse::<u64>()
                .map_err(|_| format!("bad --deadline-ms {s:?}"))
        })
        .transpose()?
        .map(std::time::Duration::from_millis);
    let config = SessionConfig {
        n_threads,
        deadline,
        ..SessionConfig::default()
    };

    if let Some(domain_name) = get_flag(args, "--demo") {
        let domain = match domain_name.to_lowercase().as_str() {
            "products" => Domain::Products,
            "restaurants" => Domain::Restaurants,
            "books" => Domain::Books,
            "breakfast" => Domain::Breakfast,
            "movies" => Domain::Movies,
            "videogames" | "video-games" => Domain::VideoGames,
            other => return Err(format!("unknown demo domain {other:?}")),
        };
        let scale: f64 = get_flag(args, "--scale")
            .map(|s| s.parse().map_err(|_| format!("bad --scale {s:?}")))
            .transpose()?
            .unwrap_or(0.05);
        let seed: u64 = get_flag(args, "--seed")
            .map(|s| s.parse().map_err(|_| format!("bad --seed {s:?}")))
            .transpose()?
            .unwrap_or(42);
        let ds = domain.generate(seed, scale);
        let cands = em_blocking::OverlapBlocker::new(
            domain.title_attr(),
            em_similarity::TokenScheme::Whitespace,
            2,
        )
        .block(&ds.table_a, &ds.table_b)
        .map_err(|e| format!("demo blocking: {e}"))?;
        let labels = ds.label_candidates(&cands);
        return Ok(Dataset {
            table_a: ds.table_a,
            table_b: ds.table_b,
            cands,
            labels,
            config,
            // Token-overlap blocking is lossy: no join guarantee.
            guarantees: Vec::new(),
        });
    }

    // CSV mode. Positional arguments are whatever is neither a flag nor
    // the value belonging to the flag before it.
    let mut files = Vec::new();
    let mut skip_next = false;
    for a in args {
        if skip_next {
            skip_next = false;
        } else if a == "--porcelain" {
            // The one value-less flag.
        } else if a.starts_with("--") {
            skip_next = true; // every other flag takes a value
        } else {
            files.push(a);
        }
    }
    let [path_a, path_b] = files.as_slice() else {
        return Err("expected two CSV paths (or --demo <domain>)".to_string());
    };
    let block = get_flag(args, "--block").ok_or("missing --block <attr>[:k|:eq]")?;

    let read_table = |path: &str| -> Result<em_types::Table, String> {
        let text = std::fs::read_to_string(path).map_err(|e| format!("{path}: {e}"))?;
        let name = std::path::Path::new(path)
            .file_stem()
            .and_then(|s| s.to_str())
            .unwrap_or("table");
        em_types::parse_csv(name, &text).map_err(|e| format!("{path}: {e}"))
    };
    let a = read_table(path_a)?;
    let b = read_table(path_b)?;

    let (attr, spec) = block.split_once(':').unwrap_or((block, "2"));
    let (cands, guarantees) = if spec == "eq" {
        // Case-sensitive: only exact equality carries the `exact(k, k) = 1`
        // join guarantee the analyzer consumes.
        let blocker = em_blocking::AttrEquivalenceBlocker::case_sensitive(attr);
        let cands = blocker.block(&a, &b).map_err(|e| e.to_string())?;
        (cands, blocker.guarantee().into_iter().collect())
    } else if let Some(t) = spec.strip_prefix('j') {
        let t: f64 = t
            .parse()
            .map_err(|_| format!("bad jaccard threshold {t:?} (want e.g. :j0.6)"))?;
        let blocker =
            em_blocking::JaccardJoinBlocker::new(attr, em_similarity::TokenScheme::Whitespace, t);
        let cands = blocker.block(&a, &b).map_err(|e| e.to_string())?;
        (cands, blocker.guarantee().into_iter().collect())
    } else {
        let k: usize = spec.parse().map_err(|_| format!("bad overlap {spec:?}"))?;
        let blocker =
            em_blocking::OverlapBlocker::new(attr, em_similarity::TokenScheme::Whitespace, k);
        let cands = blocker.block(&a, &b).map_err(|e| e.to_string())?;
        (cands, blocker.guarantee().into_iter().collect())
    };

    Ok(Dataset {
        table_a: a,
        table_b: b,
        cands,
        labels: Vec::new(),
        config,
        guarantees,
    })
}

fn build_app(args: &[String]) -> Result<App, String> {
    if args.is_empty() || args.iter().any(|a| a == "--help" || a == "-h") {
        return Err("rulem — interactive entity-matching debugger".to_string());
    }
    let ds = build_dataset(args)?;
    let mut session = DebugSession::new(ds.table_a, ds.table_b, ds.cands, ds.config);
    session.set_block_guarantees(ds.guarantees);
    finish_app(session, ds.labels, get_flag(args, "--store"))
}

/// Binds the session to its durable store (if `--store` was given),
/// recovering any previous state, and wraps it into the app. A recovery
/// report goes to stdout so scripted runs can check it.
fn finish_app(
    session: DebugSession,
    labels: Vec<em_types::LabeledPair>,
    store_dir: Option<&str>,
) -> Result<App, String> {
    let Some(dir) = store_dir else {
        return Ok(App::new(session, labels));
    };
    // Hold the directory's lock for the life of the REPL so a concurrent
    // server (or second REPL) can't interleave journal writes.
    let lock = em_core::StoreLock::acquire(std::path::Path::new(dir))
        .map_err(|e| format!("--store {dir}: {e}"))?;
    let (store, report) = SessionStore::attach(std::path::Path::new(dir), session)
        .map_err(|e| format!("--store {dir}: {e}"))?;
    match report {
        Some(report) => println!("{report}"),
        None => println!("created session store at {dir}"),
    }
    let mut app = App::with_store(store, labels);
    app.hold_lock(lock);
    Ok(app)
}

/// `rulem serve`: run the multi-session debug server until killed.
fn serve_main(args: &[String]) -> Result<(), String> {
    if args.iter().any(|a| a == "--help" || a == "-h") {
        return Err("rulem serve — network server for debugging sessions".to_string());
    }
    if args.iter().any(|a| a == "--no-metrics") {
        em_metrics::set_enabled(false);
    }
    if args.iter().any(|a| a == "--log-json") {
        em_metrics::events::set_json_events(true);
    }
    let ds = build_dataset(args)?;
    let template = SessionTemplate::new(ds.table_a, ds.table_b, ds.cands, ds.labels, ds.config)
        .with_guarantees(ds.guarantees);
    let config = ServerConfig {
        addr: get_flag(args, "--addr")
            .unwrap_or("127.0.0.1:7878")
            .to_string(),
        store_root: get_flag(args, "--store-root").map(std::path::PathBuf::from),
        max_resident: get_flag(args, "--max-resident")
            .map(|s| s.parse().map_err(|_| format!("bad --max-resident {s:?}")))
            .transpose()?
            .unwrap_or(8),
        max_conns: get_flag(args, "--max-conns")
            .map(|s| s.parse().map_err(|_| format!("bad --max-conns {s:?}")))
            .transpose()?
            .unwrap_or(1024),
        admission: {
            let mut admission = em_server::AdmissionConfig::default();
            if let Some(s) = get_flag(args, "--workers") {
                admission.workers = s.parse().map_err(|_| format!("bad --workers {s:?}"))?;
            }
            if let Some(s) = get_flag(args, "--queue-budget-ms") {
                let ms: u64 = s
                    .parse()
                    .map_err(|_| format!("bad --queue-budget-ms {s:?}"))?;
                admission.queue_budget = std::time::Duration::from_millis(ms);
            }
            if let Some(s) = get_flag(args, "--rate") {
                // <per-sec> or <per-sec>:<burst>
                let (per_sec, burst) = match s.split_once(':') {
                    Some((p, b)) => (p, Some(b)),
                    None => (s, None),
                };
                let per_sec: f64 = per_sec.parse().map_err(|_| format!("bad --rate {s:?}"))?;
                let burst: f64 = match burst {
                    Some(b) => b.parse().map_err(|_| format!("bad --rate burst {b:?}"))?,
                    None => (per_sec * 2.0).max(1.0),
                };
                admission.rate = Some(em_server::RateLimit { per_sec, burst });
            }
            admission
        },
        metrics_addr: get_flag(args, "--metrics-addr").map(str::to_string),
        follow: get_flag(args, "--follow").map(str::to_string),
        promote_on_loss: args.iter().any(|a| a == "--promote-on-loss"),
        #[cfg(feature = "fault-inject")]
        net_faults: None,
    };
    let n_candidates = template.n_candidates();
    let handle = serve(template, config).map_err(|e| format!("serve: {e}"))?;
    // Banner writes must never kill the server: a supervisor may close
    // our stdout at any point (println! would panic on EPIPE). The e2e
    // harness greps for the exact "listening on " prefix to learn the
    // port.
    let mut stdout = std::io::stdout();
    let _ = writeln!(stdout, "listening on {}", handle.addr());
    // Same contract for the metrics listener: tests grep "metrics on ".
    if let Some(addr) = handle.metrics_addr() {
        let _ = writeln!(stdout, "metrics on {addr}");
    }
    let _ = writeln!(
        stdout,
        "{n_candidates} candidate pairs per session; `rulem connect {}` to attach",
        handle.addr()
    );
    let _ = stdout.flush();
    // Serve until asked to stop. SIGTERM (a supervisor's stop) and the
    // wire `shutdown` verb both drain: parked edits settle, every
    // resident session folds into a fresh snapshot, and the store locks
    // release — so a *planned* restart never pays journal replay. SIGKILL
    // still loses nothing: sessions are write-ahead journaled and the
    // next `serve --store-root` recovers on attach.
    install_sigterm_flag();
    loop {
        std::thread::sleep(std::time::Duration::from_millis(200));
        if handle.shutdown_requested() || sigterm_requested() {
            let saved = handle.shutdown();
            let _ = writeln!(std::io::stdout(), "drained: {saved} session(s) saved");
            return Ok(());
        }
    }
}

/// The flag [`install_sigterm_flag`]'s handler raises; polled by the
/// serve loop. A handler may only do async-signal-safe work, so it
/// stores one atomic and the drain itself runs on the main thread.
#[cfg(unix)]
static SIGTERM: std::sync::atomic::AtomicBool = std::sync::atomic::AtomicBool::new(false);

#[cfg(unix)]
fn install_sigterm_flag() {
    extern "C" fn on_sigterm(_sig: i32) {
        SIGTERM.store(true, std::sync::atomic::Ordering::Release);
    }
    extern "C" {
        fn signal(signum: i32, handler: extern "C" fn(i32)) -> usize;
    }
    const SIGTERM_NO: i32 = 15;
    unsafe {
        signal(SIGTERM_NO, on_sigterm);
    }
}

#[cfg(unix)]
fn sigterm_requested() -> bool {
    SIGTERM.load(std::sync::atomic::Ordering::Acquire)
}

#[cfg(not(unix))]
fn install_sigterm_flag() {}

#[cfg(not(unix))]
fn sigterm_requested() -> bool {
    false
}

/// `rulem scrub <dir> [--repair]`: offline store integrity check.
fn scrub_main(args: &[String]) -> Result<(), String> {
    let mut dir: Option<&str> = None;
    let mut repair = false;
    for a in args {
        match a.as_str() {
            "--repair" => repair = true,
            "--log-json" => em_metrics::events::set_json_events(true),
            "--help" | "-h" => return Err("rulem scrub — session store integrity check".into()),
            other if !other.starts_with("--") && dir.is_none() => dir = Some(other),
            other => return Err(format!("scrub: unexpected argument {other:?}")),
        }
    }
    let dir = dir.ok_or("scrub: missing <store-dir>")?;
    let report = match em_core::scrub(std::path::Path::new(dir), repair) {
        Ok(report) => report,
        Err(e) => {
            // An operational refusal (store locked by a live process, an
            // unreadable directory), not a usage error: no usage dump.
            eprintln!("scrub: {e}");
            std::process::exit(1);
        }
    };
    println!("{report}");
    if !report.serviceable {
        // Not a usage error: report printed, signal via exit code only.
        std::process::exit(1);
    }
    Ok(())
}

/// `rulem connect`: a thin interactive client for a running server.
fn connect_main(args: &[String]) -> Result<(), String> {
    let addr = args
        .iter()
        .find(|a| !a.starts_with("--"))
        .map(String::as_str)
        .unwrap_or("127.0.0.1:7878");
    let timeouts = match get_flag(args, "--timeout-ms") {
        Some(s) => {
            let ms: u64 = s.parse().map_err(|_| format!("bad --timeout-ms {s:?}"))?;
            em_server::Timeouts {
                connect: Some(std::time::Duration::from_millis(ms)),
                read: Some(std::time::Duration::from_millis(ms)),
            }
        }
        None => em_server::Timeouts::default(),
    };
    let mut client =
        Client::connect_with(addr, timeouts).map_err(|e| format!("connect {addr}: {e}"))?;
    println!("connected to {addr} — `open <name>` or `attach <name>`, then edit; `quit` leaves");
    // Surface replication topology up front: anyone connecting to a
    // leader with followers (or to a follower) sees it without asking.
    if let Ok((true, payload)) = client.request("replicas") {
        #[derive(serde::Deserialize)]
        struct ReplicasHead {
            role: String,
            count: usize,
        }
        if let Ok(head) = serde_json::from_str::<ReplicasHead>(&payload) {
            if head.role == "follower" || head.count > 0 {
                println!(
                    "{}: {} replica stream(s) known — `replicas` for watermarks",
                    head.role, head.count
                );
            }
        }
    }
    let stdin = std::io::stdin();
    let mut stdout = std::io::stdout();
    loop {
        print!("> ");
        let _ = stdout.flush();
        let mut line = String::new();
        match stdin.lock().read_line(&mut line) {
            Ok(0) => break,
            Ok(_) => {}
            Err(e) => {
                eprintln!("stdin: {e}");
                break;
            }
        }
        let trimmed = line.trim();
        if trimmed.is_empty() || trimmed.starts_with('#') {
            continue; // the server sends no response for these
        }
        match client.request(trimmed) {
            Ok((true, payload)) => println!("{payload}"),
            Ok((false, payload)) => println!("error: {payload}"),
            Err(e) => {
                eprintln!("connection lost: {e}");
                break;
            }
        }
        if trimmed.eq_ignore_ascii_case("quit") {
            break;
        }
    }
    Ok(())
}

/// Routes SIGINT to the session's cancel token: Ctrl-C stops the edit in
/// flight at its next budget check instead of killing the process. At the
/// prompt the token is armed but harmless — the next edit clears it.
#[cfg(unix)]
fn install_sigint_handler(token: em_core::CancelToken) {
    use std::sync::OnceLock;
    static TOKEN: OnceLock<em_core::CancelToken> = OnceLock::new();
    extern "C" fn on_sigint(_sig: i32) {
        // Only an atomic store — async-signal-safe.
        if let Some(t) = TOKEN.get() {
            t.cancel();
        }
    }
    extern "C" {
        fn signal(signum: i32, handler: extern "C" fn(i32)) -> usize;
    }
    const SIGINT: i32 = 2;
    if TOKEN.set(token).is_ok() {
        unsafe {
            signal(SIGINT, on_sigint);
        }
    }
}

#[cfg(not(unix))]
fn install_sigint_handler(_token: em_core::CancelToken) {}

fn run_repl(mut app: App) {
    install_sigint_handler(app.session().cancel_token());
    println!("rulem — interactive entity-matching debugger");
    println!(
        "{} × {} records, {} candidate pairs. Type `help`.",
        app.session().context().table_a().len(),
        app.session().context().table_b().len(),
        app.session().candidates().len()
    );

    let stdin = std::io::stdin();
    let mut stdout = std::io::stdout();
    loop {
        print!("> ");
        let _ = stdout.flush();
        let mut line = String::new();
        match stdin.lock().read_line(&mut line) {
            Ok(0) => break, // EOF
            Ok(_) => {}
            Err(e) => {
                eprintln!("stdin: {e}");
                break;
            }
        }
        match parse(&line) {
            Ok(None) => {}
            Ok(Some(cmd)) => match app.execute(cmd) {
                Ok(out) => println!("{out}"),
                Err(err) => println!("error: {err}"),
            },
            Err(err) => println!("error: {err}"),
        }
        if app.should_quit() {
            break;
        }
    }
}
