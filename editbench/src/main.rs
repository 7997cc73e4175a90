//! The edit benchmark: the paper's interactive loop (try an edit, look,
//! undo) measured end to end and layer by layer. See NOTES.md.
//!
//! ```text
//! editbench --workload <session-edits|wire-mixed> --seed <n> --seconds <s> --trace <0|1>
//! editbench --self-test --workload <name> --seed <n> [--ops <steps>]
//! ```
//!
//! The last line of standard output is the result as one JSON object.
//! `--ops` runs a fixed number of steps instead of a timed window and
//! prints a digest of the rule text and the program's work counters;
//! `--self-test` runs that twice in separate processes and compares.

mod inputs;
mod ops;
mod replay;
mod stats;
mod trace;
mod workloads;

use ops::Until;
use stats::Report;
use std::path::PathBuf;
use std::process::ExitCode;
use std::time::{Duration, Instant};
use workloads::{Spec, SESSION_EDITS, WIRE_MIXED};

struct Args {
    spec: &'static Spec,
    seed: u64,
    seconds: f64,
    trace: bool,
    ops: Option<u64>,
    self_test: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut workload = None;
    let (mut seed, mut seconds, mut trace, mut ops, mut self_test) =
        (None, 10.0, false, None, false);
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or(format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => workload = Some(value()?),
            "--seed" => seed = Some(value()?.parse().map_err(|e| format!("--seed: {e}"))?),
            "--seconds" => seconds = value()?.parse().map_err(|e| format!("--seconds: {e}"))?,
            "--trace" => {
                trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, not {other}")),
                }
            }
            "--ops" => ops = Some(value()?.parse().map_err(|e| format!("--ops: {e}"))?),
            "--self-test" => self_test = true,
            other => return Err(format!("unknown argument {other}")),
        }
    }
    let spec = match workload.as_deref() {
        Some("session-edits") => &SESSION_EDITS,
        Some("wire-mixed") => &WIRE_MIXED,
        Some(other) => return Err(format!("unknown workload {other}")),
        None => return Err("--workload is required".to_string()),
    };
    if !(seconds > 0.0 && seconds <= 600.0) {
        return Err(format!("--seconds must be in (0, 600], not {seconds}"));
    }
    if ops == Some(0) {
        return Err("--ops must be at least 1".to_string());
    }
    Ok(Args {
        spec,
        seed: seed.ok_or("--seed is required")?,
        seconds,
        trace,
        ops,
        self_test,
    })
}

/// Fixed CPU and memory-streaming loops, timed in ms. They show how fast
/// the host ran during a run; they are not metrics.
fn host_probe() -> (f64, f64) {
    let start = Instant::now();
    let mut x = 0x9E37_79B9_7F4A_7C15u64;
    for i in 0..40_000_000u64 {
        x = (x ^ (x >> 29))
            .wrapping_mul(0xBF58_476D_1CE4_E5B9)
            .wrapping_add(i);
    }
    std::hint::black_box(x);
    let cpu = start.elapsed();
    let buf = vec![1u64; 4 << 20]; // 32 MiB, well past the last-level cache
    let start = Instant::now();
    let mut sum = 0u64;
    for _ in 0..8 {
        sum = sum.wrapping_add(std::hint::black_box(&buf).iter().sum::<u64>());
    }
    std::hint::black_box(sum);
    (stats::ms(cpu), stats::ms(start.elapsed()))
}

fn fnv1a(text: &str) -> u64 {
    text.bytes().fold(0xcbf2_9ce4_8422_2325, |h, b| {
        (h ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3)
    })
}

/// The rule text and the program's own work counters after a fixed-step
/// run: two processes given one seed must print the same line.
fn digest(spec: &Spec, inputs: &inputs::Inputs, seed: u64) -> String {
    let text: String = (0..spec.analysts as u64)
        .map(|a| inputs::Program::select(inputs, spec.rules, seed, a).text())
        .collect();
    format!(
        "digest rules={:016x} memo_lookups={} kernel_computations={} rule_evals={} journal_appends={} snapshots={}",
        fnv1a(&text),
        trace::counter("em_memo_hits_total"),
        trace::counter("em_memo_misses_total"),
        trace::counter("em_rule_evals_total"),
        trace::counter("em_journal_appends_total"),
        trace::counter("em_snapshot_saves_total"),
    )
}

/// Runs the fixed-step mode twice in separate processes and compares
/// their digests.
fn self_test(args: &Args) -> ExitCode {
    let exe = std::env::current_exe().expect("path of the running benchmark");
    let steps = args.ops.unwrap_or(24).to_string();
    let seed = args.seed.to_string();
    let run = || -> Option<String> {
        let out = std::process::Command::new(&exe)
            .args([
                "--workload",
                args.spec.name,
                "--seed",
                &seed,
                "--trace",
                "0",
                "--ops",
                &steps,
            ])
            .output()
            .ok()?;
        let stdout = String::from_utf8_lossy(&out.stdout).into_owned();
        let line = stdout
            .lines()
            .find_map(|l| l.strip_prefix("# digest "))?
            .to_string();
        out.status.success().then_some(line)
    };
    let (a, b) = (run(), run());
    println!("first:  {}", a.as_deref().unwrap_or("(failed)"));
    println!("second: {}", b.as_deref().unwrap_or("(failed)"));
    if a.is_some() && a == b {
        println!("self-test passed: identical rule text and work counts");
        ExitCode::SUCCESS
    } else {
        println!("self-test FAILED");
        ExitCode::FAILURE
    }
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(args) => args,
        Err(e) => {
            eprintln!("editbench: {e}");
            return ExitCode::from(2);
        }
    };
    if args.self_test {
        return self_test(&args);
    }
    let spec = args.spec;
    // Everything the run writes stays under the working directory.
    let root = PathBuf::from(".bench_work");
    let work = root.join(format!("{}-{}", spec.name, std::process::id()));
    let _ = std::fs::remove_dir_all(&work);
    if let Err(e) = std::fs::create_dir_all(&work) {
        eprintln!("editbench: cannot create {}: {e}", work.display());
        return ExitCode::FAILURE;
    }
    let mut report = Report::default();
    let before = host_probe();
    let start = Instant::now();
    let inputs = inputs::Inputs::products(spec.scale, workloads::TREES);
    report.note(format!(
        "{} seed {}: {} candidate pairs, {}-feature menu, {}-rule pool, inputs in {:.2} s",
        spec.name,
        args.seed,
        inputs.cands.len(),
        inputs.menu.len(),
        inputs.pool.len(),
        start.elapsed().as_secs_f64()
    ));
    if args.trace {
        replay::traced(&mut report, spec, &inputs, args.seed, args.seconds, &work);
    } else {
        let (seconds, steps) = (args.seconds, args.ops);
        let until = move |start: Instant| match steps {
            Some(n) => Until::Steps(n),
            None => Until::Deadline(start + Duration::from_secs_f64(seconds)),
        };
        if spec.wire {
            workloads::wire_mixed(&mut report, &inputs, args.seed, &work, until);
        } else {
            workloads::session_edits(&mut report, &inputs, args.seed, until);
        }
    }
    let after = host_probe();
    report.note(format!(
        "host drift probe (not metrics): cpu loop {:.2} / {:.2} ms, memory stream {:.2} / {:.2} ms (before / after)",
        before.0, after.0, before.1, after.1
    ));
    if args.ops.is_some() {
        report.note(digest(spec, &inputs, args.seed));
    }
    let _ = std::fs::remove_dir_all(&work);
    let _ = std::fs::remove_dir(&root);
    report.print();
    if report.correct() {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
