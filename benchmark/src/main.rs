//! End-to-end benchmark of the Muffin search, sharded fleet and serving
//! paths, with a traced mode that breaks each workload down by layer.
//!
//! ```text
//! cargo run --release --manifest-path benchmark/Cargo.toml -- \
//!     --workload search|fleet|serve --seed N --seconds S --trace 0|1
//! ```
//!
//! The last line of standard output is one JSON object with the keys
//! `correct`, `attempted`, `failed` and `metrics`; the lines above it are
//! for people. The process exits 1 when an output check fails and 2 on a
//! usage or set-up error. See `benchmark/README.md`.

mod fleet;
mod layers;
mod report;
mod search;
mod serve;
mod setup;
mod spans;

/// Where runs leave span logs and shard directories, relative to the
/// directory the benchmark runs in.
pub const OUT_DIR: &str = ".bench_out";

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
}

const USAGE: &str =
    "usage: muffin-e2e-bench --workload search|fleet|serve --seed N --seconds S --trace 0|1";

fn parse_args(mut args: impl Iterator<Item = String>) -> Result<Args, String> {
    let (mut workload, mut seed, mut seconds, mut trace) = (None, None, None, None);
    while let Some(flag) = args.next() {
        let value = args.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = |what: &str| format!("{flag} {value:?}: expected {what}");
        match flag.as_str() {
            "--workload" => workload = Some(value),
            "--seed" => {
                seed = Some(
                    value
                        .parse::<u64>()
                        .map_err(|_| bad("an unsigned integer"))?,
                )
            }
            "--seconds" => {
                let s: u64 = value
                    .parse()
                    .map_err(|_| bad("a whole number of seconds"))?;
                if s == 0 {
                    return Err(bad("at least 1 second"));
                }
                seconds = Some(s as f64);
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad("0 or 1")),
                })
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("missing --workload")?,
        seed: seed.ok_or("missing --seed")?,
        seconds: seconds.ok_or("missing --seconds")?,
        trace: trace.unwrap_or(false),
    })
}

fn run(args: &Args) -> Result<report::RunResult, String> {
    let mut result = match args.workload.as_str() {
        "search" => search::run(args.seed, args.seconds, args.trace)?,
        "fleet" => fleet::run(args.seed, args.seconds, args.trace)?,
        "serve" => serve::run(args.seed, args.seconds, args.trace)?,
        other => {
            return Err(format!(
                "unknown workload {other:?} (search, fleet or serve)"
            ))
        }
    };
    if !args.trace {
        result.push("peak_rss_mb", report::peak_rss_mb()?, "MB");
    }
    let error_rate = result.failed as f64 / result.attempted.max(1) as f64;
    result.note(format!(
        "error_rate = {error_rate} ({} failed of {} attempted)",
        result.failed, result.attempted
    ));
    Ok(result)
}

fn main() {
    let args = match parse_args(std::env::args().skip(1)) {
        Ok(args) => args,
        Err(e) => {
            eprintln!("{e}\n{USAGE}");
            std::process::exit(2);
        }
    };
    let result = match run(&args) {
        Ok(result) => result,
        Err(e) => {
            eprintln!("benchmark {} failed: {e}", args.workload);
            std::process::exit(2);
        }
    };
    for m in &result.metrics {
        println!("{} = {} {}", m.name, m.value, m.unit);
    }
    for line in result.notes.iter().chain(&result.check_failures) {
        println!("# {line}");
    }
    match report::to_json_line(&result) {
        Ok(line) => println!("{line}"),
        Err(e) => {
            eprintln!("benchmark produced an invalid result: {e}");
            std::process::exit(2);
        }
    }
    if !result.correct() {
        std::process::exit(1);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn args(s: &str) -> Result<Args, String> {
        parse_args(s.split_whitespace().map(String::from))
    }

    #[test]
    fn parses_the_benchmark_command_line() {
        let a = args("--workload fleet --seed 7 --seconds 10 --trace 1").expect("valid");
        assert_eq!(
            (a.workload.as_str(), a.seed, a.seconds, a.trace),
            ("fleet", 7, 10.0, true)
        );
    }

    #[test]
    fn rejects_malformed_flags() {
        assert!(args("--workload search --seed x --seconds 1").is_err());
        assert!(args("--workload search --seed 1 --seconds 0").is_err());
        assert!(args("--workload search --seed 1 --seconds 1 --trace 2").is_err());
        assert!(args("--workload search --seed 1 --seconds 1 --bogus 1").is_err());
        assert!(args("--seed 1 --seconds 1").is_err());
        assert!(args("--workload search --seed").is_err());
    }
}
