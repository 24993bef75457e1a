//! The repository benchmark: the four paper STMs (SwissTM, TL2, TinySTM,
//! RSTM, each with its default contention manager) on one workload,
//! closed-loop with two worker threads.
//!
//! ```text
//! tmbench --workload bench7-rw|kmeans-low|rbtree|vacation-high --seed N --seconds S --trace 0|1
//! ```
//!
//! `--trace 0` sets the workload up on the bare STMs, then measures `S`
//! seconds in rounds of one window per STM, setting the workload up once
//! more on four fresh STMs before each round (the median set-up time is
//! `setup_s`). It prints, per STM, operations per second over all windows and
//! the p50 and p99 latency of all operations of those windows.
//! `--trace 1` instead alternates
//! windows of each bare STM with windows of the same STM wrapped in the
//! tracing decorators (see `trace`), and prints the per-layer metrics and
//! the tracing overhead.
//!
//! Every window ends with the workload's consistency check (and, on
//! `rbtree` and `kmeans-low`, a check made from outside the workload). A
//! failed check, a panicking worker or a transaction error fails every
//! operation of that window and stops that STM; the run then exits with
//! status 1. The last line of standard output is the JSON result.

mod hist;
mod metrics;
mod stms;
mod trace;
mod window;
mod workloads;

use std::collections::BTreeMap;
use std::process::ExitCode;
use std::sync::Mutex;
use std::time::{Duration, Instant};

use stm_core::backoff::FastRng;

use crate::metrics::{median, MetricDef};
use crate::stms::StmKind;
use crate::window::{Runner, Window, THREADS};
use crate::workloads::{Scale, WorkloadKind};

/// Measured windows per STM (and per bare/traced side in traced runs),
/// after one unmeasured warm-up window.
const ROUNDS: u32 = 30;
/// A run still going after this long fails.
const DEADLINE: Duration = Duration::from_secs(170);
/// A window that has not ended this long after its length fails: one of
/// its transactions never returned.
const STALL: Duration = Duration::from_secs(10);

/// What the watchdog needs to fail a stuck run.
struct Progress {
    /// The window running now, and when it must have ended.
    running: Option<(String, Instant)>,
    attempted: u64,
    failed: u64,
}

static PROGRESS: Mutex<Progress> = Mutex::new(Progress {
    running: None,
    attempted: 0,
    failed: 0,
});

fn progress() -> std::sync::MutexGuard<'static, Progress> {
    PROGRESS.lock().unwrap_or_else(|e| e.into_inner())
}

/// Fails the run, with a result line of `defs`, once a window stalls or
/// the run passes [`DEADLINE`]. A stalled window counts as one failed
/// operation: its stuck worker cannot be stopped or asked how far it got.
fn watchdog(defs: Vec<MetricDef>) {
    let start = Instant::now();
    loop {
        std::thread::sleep(Duration::from_millis(100));
        let p = progress();
        let why = match &p.running {
            Some((what, end)) if Instant::now() > *end => format!(
                "the {what} had not ended {STALL:?} after its length; a transaction never returned"
            ),
            _ if start.elapsed() > DEADLINE => format!("still running after {DEADLINE:?}"),
            _ => continue,
        };
        eprintln!("FAILED {why}");
        let values = defs.iter().map(|d| (d.name.clone(), 0.0)).collect();
        println!(
            "{}",
            metrics::result_line(false, p.attempted + 1, p.failed + 1, &defs, &values)
        );
        std::process::exit(1);
    }
}

const USAGE: &str =
    "usage: tmbench --workload bench7-rw|kmeans-low|rbtree|vacation-high --seed N --seconds S --trace 0|1";

#[derive(Debug, PartialEq)]
struct Args {
    workload: WorkloadKind,
    seed: u64,
    seconds: u64,
    trace: bool,
}

fn parse_args(args: &[String]) -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let number = || {
            value
                .parse::<u64>()
                .map_err(|_| format!("{flag} takes a whole number, not {value:?}"))
        };
        match flag.as_str() {
            "--workload" => {
                workload = Some(
                    WorkloadKind::parse(value)
                        .ok_or_else(|| format!("unknown workload {value:?}"))?,
                )
            }
            "--seed" => seed = Some(number()?),
            "--seconds" => seconds = Some(number()?.clamp(1, 120)),
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace takes 0 or 1, not {value:?}")),
                })
            }
            _ => return Err(format!("unknown flag {flag:?}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace: trace.unwrap_or(false),
    })
}

/// Seed of one window's operation streams.
fn window_seed(seed: u64, stm: usize, round: u32, traced: bool) -> u64 {
    let index = (stm as u64) << 32 | u64::from(round) << 1 | u64::from(traced);
    FastRng::new(seed ^ index.wrapping_mul(0x9e37_79b9_7f4a_7c15)).next_u64()
}

/// Everything a run measured.
#[derive(Default)]
struct Outcome {
    attempted: u64,
    failed: u64,
    values: BTreeMap<String, f64>,
    /// Latency samples behind the percentile metrics.
    samples: BTreeMap<String, u64>,
}

impl Outcome {
    /// Runs one window of `runner` under the watchdog and counts it.
    fn run_window(
        &mut self,
        stm: StmKind,
        side: &str,
        round: u32,
        runner: &mut dyn Runner,
        length: Duration,
        seed: u64,
    ) -> Window {
        let what = format!("{} {side} window {round}", stm.label());
        progress().running = Some((what, Instant::now() + length + STALL));
        let w = runner.run_window(length, seed);
        self.attempted += w.attempted;
        self.failed += w.failed;
        if let Some(e) = &w.error {
            eprintln!("FAILED {}: {e}", stm.label());
        }
        progress().running = None;
        self.publish();
        w
    }

    /// Shares the counts with the watchdog.
    fn publish(&self) {
        let mut p = progress();
        p.attempted = self.attempted;
        p.failed = self.failed;
    }

    /// A failure outside any window; counts as one failed operation.
    fn fail(&mut self, stm: StmKind, why: &str) {
        self.attempted += 1;
        self.failed += 1;
        self.publish();
        eprintln!("FAILED {}: {why}", stm.label());
    }

    /// Prints the set-up fingerprint; `false` (and a failure) if the
    /// set-up check fails.
    fn check_setup(&mut self, stm: StmKind, side: &str, runner: &dyn Runner) -> bool {
        match runner.fingerprint() {
            Ok(fp) => {
                let tree = fp
                    .tree_size
                    .map_or_else(|| "-".to_string(), |n| n.to_string());
                println!(
                    "setup {:<8} {side:<6} live_words={} tree_size={tree} heap_digest={:016x}",
                    stm.label(),
                    fp.live_words,
                    fp.heap_digest
                );
                true
            }
            Err(e) => {
                self.fail(stm, &format!("{side} set-up check: {e}"));
                false
            }
        }
    }
}

fn print_windows(stm: StmKind, side: &str, windows: &[Window]) {
    let samples: u64 = windows.iter().map(|w| w.latency.count()).sum();
    let list = |f: &dyn Fn(&Window) -> f64| -> String {
        let v: Vec<String> = windows.iter().map(|w| format!("{:.4}", f(w))).collect();
        v.join(" ")
    };
    let us = |q: f64| move |w: &Window| w.latency.quantile(q).unwrap_or(0.0) / 1000.0;
    println!(
        "{:<8} {side:<6} windows={} samples={samples}\n  ops_per_s=[{}]\n  p50_us=[{}]\n  p99_us=[{}]",
        stm.label(),
        windows.len(),
        list(&Window::ops_per_s),
        list(&us(0.5)),
        list(&us(0.99)),
    );
}

fn run_untraced(args: &Args, out: &mut Outcome) {
    let (mut runners, took) = stms::bare_all(args.workload, args.seed, Scale::Bench);
    let mut setups = vec![took.as_secs_f64()];
    let set_up: Vec<bool> = StmKind::ALL
        .into_iter()
        .zip(&runners)
        .map(|(stm, runner)| out.check_setup(stm, "bare", runner.as_ref()))
        .collect();
    let mut windows: Vec<Vec<Window>> = StmKind::ALL.iter().map(|_| Vec::new()).collect();
    let total_weight: u32 = StmKind::ALL.iter().map(|s| s.time_weight()).sum();
    let slice = Duration::from_secs(args.seconds) / (total_weight * (ROUNDS + 1));
    // Round 0 warms up: its windows are checked but not measured.
    for round in 0..=ROUNDS {
        // Set-ups spread over the run, so that `setup_s` sees the machine
        // as the windows do rather than only as it was at the start.
        let (_, took) = stms::bare_all(args.workload, args.seed, Scale::Bench);
        setups.push(took.as_secs_f64());
        // Rotate the order so no STM always runs first or last.
        for step in 0..StmKind::ALL.len() {
            let i = (round as usize + step) % StmKind::ALL.len();
            if !set_up[i] || runners[i].broken() {
                continue;
            }
            let seed = window_seed(args.seed, i, round, false);
            let stm = StmKind::ALL[i];
            let length = slice * stm.time_weight();
            let w = out.run_window(stm, "bare", round, runners[i].as_mut(), length, seed);
            if round > 0 && w.error.is_none() {
                windows[i].push(w);
            }
        }
    }
    println!("setup_s samples: {setups:?}");
    out.values.insert("setup_s".to_string(), median(&setups));
    for (stm, windows) in StmKind::ALL.into_iter().zip(&windows) {
        print_windows(stm, "bare", windows);
        out.values.extend(metrics::end_to_end_values(stm, windows));
        let samples: u64 = windows.iter().map(|w| w.latency.count()).sum();
        for q in ["op_p50_us", "op_p99_us"] {
            out.samples.insert(format!("{}.{q}", stm.label()), samples);
        }
    }
}

fn run_traced(args: &Args, out: &mut Outcome) {
    let clock_ns = trace::clock_read_ns();
    println!("clock read: {clock_ns:.1} ns, taken out of every timed interval");
    let window = Duration::from_secs(args.seconds) / (2 * StmKind::ALL.len() as u32 * (ROUNDS + 1));
    for (i, stm) in StmKind::ALL.into_iter().enumerate() {
        let mut bare = stms::bare(stm, args.workload, args.seed, Scale::Bench);
        let mut traced = stms::traced(stm, args.workload, args.seed, Scale::Bench);
        let mut set_up = out.check_setup(stm, "bare", bare.as_ref());
        set_up &= out.check_setup(stm, "traced", traced.as_ref());
        if set_up && bare.fingerprint() != traced.fingerprint() {
            out.fail(stm, "the traced set-up differs from the bare one");
            set_up = false;
        }
        let (mut bare_windows, mut traced_windows) = (Vec::new(), Vec::new());
        // Round 0 warms up both sides, as in untraced runs.
        for round in 0..=ROUNDS {
            // Alternate which side goes first.
            let mut sides = [
                (false, &mut bare, &mut bare_windows),
                (true, &mut traced, &mut traced_windows),
            ];
            if round % 2 == 1 {
                sides.reverse();
            }
            for (is_traced, runner, windows) in sides {
                if !set_up || runner.broken() {
                    continue;
                }
                let side = if is_traced { "traced" } else { "bare" };
                let seed = window_seed(args.seed, i, round, is_traced);
                let w = out.run_window(stm, side, round, runner.as_mut(), window, seed);
                if round > 0 && w.error.is_none() {
                    windows.push(w);
                }
            }
        }
        print_windows(stm, "bare", &bare_windows);
        print_windows(stm, "traced", &traced_windows);
        let overhead = metrics::throughput(&traced_windows) / metrics::throughput(&bare_windows);
        out.values.extend(metrics::per_layer_values(
            stm,
            &traced_windows,
            overhead,
            clock_ns,
        ));
    }
}

fn print_table(defs: &[MetricDef], out: &Outcome) {
    for d in defs {
        let samples = out
            .samples
            .get(&d.name)
            .map_or_else(String::new, |n| format!("  (samples={n})"));
        println!(
            "{:<32} {:>16.4} {:<6}{samples}",
            d.name, out.values[&d.name], d.unit
        );
    }
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let args = match parse_args(&argv) {
        Ok(args) => args,
        Err(e) => {
            eprintln!("tmbench: {e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    let defs = if args.trace {
        metrics::per_layer()
    } else {
        metrics::end_to_end()
    };
    let watched = defs.clone();
    std::thread::spawn(move || watchdog(watched));
    let parallelism = std::thread::available_parallelism().map_or(0, |n| n.get());
    println!(
        "tmbench workload={} seed={} seconds={} trace={} threads={THREADS} available_parallelism={parallelism}",
        args.workload.name(),
        args.seed,
        args.seconds,
        u8::from(args.trace)
    );
    let mut out = Outcome::default();
    if args.trace {
        run_traced(&args, &mut out);
    } else {
        run_untraced(&args, &mut out);
    }
    print_table(&defs, &out);
    let correct = out.failed == 0;
    println!(
        "{}",
        metrics::result_line(
            correct,
            out.attempted.max(1),
            out.failed,
            &defs,
            &out.values
        )
    );
    if correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn strings(args: &[&str]) -> Vec<String> {
        args.iter().map(|s| s.to_string()).collect()
    }

    #[test]
    fn parses_the_command_line() {
        let args = parse_args(&strings(&[
            "--workload",
            "bench7-rw",
            "--seed",
            "42",
            "--seconds",
            "10",
            "--trace",
            "1",
        ]))
        .unwrap();
        assert_eq!(
            args,
            Args {
                workload: WorkloadKind::Bench7Rw,
                seed: 42,
                seconds: 10,
                trace: true
            }
        );
        assert!(parse_args(&strings(&[
            "--workload",
            "nope",
            "--seed",
            "1",
            "--seconds",
            "1"
        ]))
        .is_err());
        assert!(parse_args(&strings(&["--workload", "rbtree", "--seconds", "1"])).is_err());
        assert!(parse_args(&strings(&["--workload"])).is_err());
    }

    #[test]
    fn window_seeds_differ_per_window_and_repeat_per_seed() {
        let a = window_seed(1, 0, 0, false);
        assert_eq!(a, window_seed(1, 0, 0, false));
        assert_ne!(a, window_seed(2, 0, 0, false));
        assert_ne!(a, window_seed(1, 1, 0, false));
        assert_ne!(a, window_seed(1, 0, 1, false));
        assert_ne!(a, window_seed(1, 0, 0, true));
    }
}
