//! Command line: one run per invocation (what the driver calls), plus
//! `--emit-spec`, `--check-repeat` and `--smoke`.

use std::path::PathBuf;
use std::process::{Command, ExitCode};

use crate::run::{run, RunArgs};
use crate::spec::{self, Sizes};
use crate::stats::{median, range_share};

const USAGE: &str = "\
unistore-benchmark --workload <name> --seed <n> --seconds <s> --trace <0|1>
    One run. Prints every metric by name with its unit as the last line of
    stdout; exits non-zero if any result was wrong. --seconds selects the
    amount of fixed work (trials = seconds x a frozen per-workload rate,
    at least 40); no clock decides when a run stops.
unistore-benchmark --emit-spec
    Writes BENCHMARK.json (in the current directory) from src/spec.rs.
unistore-benchmark --check-repeat [--workload <name>] [--seed <n>] [--seconds <s>]
    Runs the workload(s) five times each in child processes and fails
    unless the count and simulated-time metrics are bit-identical and the
    (max-min)/median spread of the wall-clock ones is under half their bound.
unistore-benchmark --smoke
    All five workloads, untraced and traced, on tiny constants.";

struct Cli {
    workload: Option<String>,
    seed: u64,
    seconds: u32,
    trace: bool,
    emit_spec: bool,
    check_repeat: bool,
    smoke: bool,
    help: bool,
}

fn parse_args(args: &[String]) -> Result<Cli, String> {
    let mut cli = Cli {
        workload: None,
        seed: 1,
        seconds: spec::RUN_SECONDS,
        trace: false,
        emit_spec: false,
        check_repeat: false,
        smoke: false,
        help: false,
    };
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let mut value =
            |what: &str| it.next().cloned().ok_or_else(|| format!("{flag} needs {what}"));
        match flag.as_str() {
            "--workload" => cli.workload = Some(value("a workload name")?),
            "--seed" => {
                cli.seed = value("a number")?.parse().map_err(|e| format!("--seed: {e}"))?;
            }
            "--seconds" => {
                let s: u32 = value("a number")?.parse().map_err(|e| format!("--seconds: {e}"))?;
                if !(1..=60).contains(&s) {
                    return Err("--seconds must be between 1 and 60".into());
                }
                cli.seconds = s;
            }
            "--trace" => {
                cli.trace = match value("0 or 1")?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, not {other:?}")),
                };
            }
            "--emit-spec" => cli.emit_spec = true,
            "--check-repeat" => cli.check_repeat = true,
            "--smoke" => cli.smoke = true,
            "--help" | "-h" => cli.help = true,
            other => return Err(format!("unknown argument {other:?}")),
        }
    }
    Ok(cli)
}

fn out_dir() -> PathBuf {
    PathBuf::from(spec::PATHS[0]).join("out")
}

pub fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let cli = match parse_args(&args) {
        Ok(cli) => cli,
        Err(e) => {
            eprintln!("{e}\n\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    if cli.help {
        // The README's metric tables are this output, pasted.
        println!("{USAGE}\n\n| end-to-end metric | unit | better | bound | definition |\n|---|---|---|---|---|");
        for m in spec::END_TO_END {
            let (name, unit, better) = (m.name, m.unit, m.better.as_str());
            println!("| `{name}` | {unit} | {better} | {} | {} |", m.bound, m.what);
        }
        println!("\n| per-layer metric | unit | better | should move |\n|---|---|---|---|");
        for m in spec::PER_LAYER {
            println!("| `{}` | {} | {} | {} |", m.name, m.unit, m.better.as_str(), m.moves);
        }
        println!();
        for note in spec::INTERACTIONS {
            println!("- {note}");
        }
        return ExitCode::SUCCESS;
    }
    if cli.emit_spec {
        return match std::fs::write("BENCHMARK.json", spec::benchmark_json()) {
            Ok(()) => ExitCode::SUCCESS,
            Err(e) => {
                eprintln!("could not write BENCHMARK.json: {e}");
                ExitCode::FAILURE
            }
        };
    }
    if cli.smoke {
        return match smoke(&out_dir()) {
            Ok(()) => ExitCode::SUCCESS,
            Err(e) => {
                eprintln!("{e}");
                ExitCode::FAILURE
            }
        };
    }
    if cli.check_repeat {
        return check_repeat(&cli);
    }
    let Some(workload) = cli.workload else {
        eprintln!("--workload is required\n\n{USAGE}");
        return ExitCode::from(2);
    };
    let args = RunArgs {
        workload,
        seed: cli.seed,
        seconds: cli.seconds,
        trace: cli.trace,
        sizes: Sizes::FULL,
        out_dir: out_dir(),
    };
    match run(&args) {
        Ok(result) => {
            println!("{}", result.to_json());
            match result.correct {
                true => ExitCode::SUCCESS,
                false => ExitCode::FAILURE,
            }
        }
        Err(e) => {
            eprintln!("{e}");
            ExitCode::from(2)
        }
    }
}

/// Every workload, untraced and traced, on [`Sizes::SMOKE`]: all results
/// correct, every spec metric present and finite.
pub fn smoke(out_dir: &std::path::Path) -> Result<(), String> {
    for w in spec::WORKLOADS {
        for trace in [false, true] {
            let args = RunArgs {
                workload: w.name.to_string(),
                seed: 7,
                seconds: 1,
                trace,
                sizes: Sizes::SMOKE,
                out_dir: out_dir.to_path_buf(),
            };
            let r = run(&args)?;
            if !r.correct {
                return Err(format!("{} (trace {trace}): {:?}", w.name, r.first_wrong));
            }
            let expected = match trace {
                false => spec::END_TO_END.len(),
                true => spec::PER_LAYER.len(),
            };
            if r.metrics.len() != expected || r.attempted == 0 {
                return Err(format!("{} (trace {trace}): metrics missing", w.name));
            }
            println!("{}", r.to_json());
        }
    }
    Ok(())
}

/// Pulls `"name": {"value": <number>` out of a result line.
fn metric_text<'a>(line: &'a str, name: &str) -> Option<&'a str> {
    let key = format!("\"{name}\": {{\"value\": ");
    let rest = &line[line.find(&key)? + key.len()..];
    Some(&rest[..rest.find(',')?])
}

/// Metrics that are counts or simulated time: bit-identical per seed.
const EXACT: &[&str] =
    &["sim_p50_ms", "sim_p99_ms", "msgs_per_op", "wire_kib_per_op", "success_rate"];
const REPEATS: usize = 5;

fn check_repeat(cli: &Cli) -> ExitCode {
    let exe = match std::env::current_exe() {
        Ok(p) => p,
        Err(e) => {
            eprintln!("cannot find this executable: {e}");
            return ExitCode::FAILURE;
        }
    };
    let names: Vec<&str> = match &cli.workload {
        Some(w) => vec![w.as_str()],
        None => spec::WORKLOADS.iter().map(|w| w.name).collect(),
    };
    let mut failed = false;
    println!("| workload | metric | median | spread (max-min)/median | allowed | verdict |");
    println!("|---|---|---|---|---|---|");
    for name in names {
        let mut lines: Vec<String> = Vec::new();
        for _ in 0..REPEATS {
            // A child per run: peak RSS is a per-process high-water mark.
            let out = Command::new(&exe)
                .args(["--workload", name, "--trace", "0"])
                .args(["--seed", &cli.seed.to_string(), "--seconds", &cli.seconds.to_string()])
                .output();
            match out {
                Ok(o) if o.status.success() => {
                    let stdout = String::from_utf8_lossy(&o.stdout);
                    lines.push(stdout.lines().last().unwrap_or_default().to_string());
                }
                Ok(o) => {
                    eprintln!("{name}: a run failed\n{}", String::from_utf8_lossy(&o.stderr));
                    return ExitCode::FAILURE;
                }
                Err(e) => {
                    eprintln!("{name}: could not start a run: {e}");
                    return ExitCode::FAILURE;
                }
            }
        }
        for m in spec::END_TO_END {
            let texts: Vec<&str> = lines.iter().filter_map(|l| metric_text(l, m.name)).collect();
            if texts.len() != REPEATS {
                eprintln!("{name}: {} missing from a result line", m.name);
                return ExitCode::FAILURE;
            }
            let values: Vec<f64> = texts.iter().filter_map(|t| t.parse().ok()).collect();
            let (spread, allowed, ok) = match EXACT.contains(&m.name) {
                true => {
                    let same = texts.iter().all(|t| *t == texts[0]);
                    (if same { 0.0 } else { range_share(&values) }, 0.0, same)
                }
                false => {
                    let spread = range_share(&values);
                    (spread, m.bound / 2.0, spread < m.bound / 2.0)
                }
            };
            failed |= !ok;
            println!(
                "| {name} | {} | {} {} | {:.4} | {} | {} |",
                m.name,
                median(&values),
                m.unit,
                spread,
                if allowed == 0.0 { "bit-identical".to_string() } else { format!("< {allowed}") },
                if ok { "ok" } else { "FAIL" },
            );
        }
    }
    match failed {
        true => ExitCode::FAILURE,
        false => ExitCode::SUCCESS,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn metric_text_reads_the_result_line() {
        let r = crate::run::RunResult {
            correct: true,
            attempted: 10,
            failed: 0,
            metrics: vec![
                crate::run::Metric { name: "sim_p50_ms", value: 2.25, unit: "ms" },
                crate::run::Metric { name: "setup_s", value: 1.0625, unit: "s" },
            ],
            first_wrong: None,
        };
        let line = r.to_json();
        assert_eq!(
            line,
            "{\"correct\": true, \"attempted\": 10, \"failed\": 0, \"metrics\": {\"sim_p50_ms\": {\"value\": 2.25, \"unit\": \"ms\"}, \"setup_s\": {\"value\": 1.0625, \"unit\": \"s\"}}}"
        );
        assert_eq!(metric_text(&line, "sim_p50_ms"), Some("2.25"));
        assert_eq!(metric_text(&line, "setup_s"), Some("1.0625"));
        assert_eq!(metric_text(&line, "absent"), None);
    }

    #[test]
    fn arguments_parse_as_the_driver_passes_them() {
        let args: Vec<String> = "--workload join3 --seed 9 --seconds 15 --trace 1"
            .split(' ')
            .map(String::from)
            .collect();
        let cli = parse_args(&args).unwrap();
        assert_eq!(cli.workload.as_deref(), Some("join3"));
        assert_eq!((cli.seed, cli.seconds, cli.trace), (9, 15, true));
        assert!(parse_args(&["--trace".to_string(), "yes".to_string()]).is_err());
        assert!(parse_args(&["--seconds".to_string(), "0".to_string()]).is_err());
    }

    /// `--smoke`: all five workloads and their traced runs on tiny
    /// constants, through the same code as the full-size runs.
    #[test]
    fn smoke_runs_every_workload_and_trace() {
        let dir = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("out/smoke");
        let outcome = smoke(&dir);
        let _ = std::fs::remove_dir_all(&dir);
        outcome.unwrap();
    }
}
