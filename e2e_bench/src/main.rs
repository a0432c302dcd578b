//! Benchmark entry point.
//!
//! ```text
//! e2e_bench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//! e2e_bench --manifest        # print BENCHMARK.json
//! ```
//!
//! Prints human-readable lines, then one JSON object as the last line of
//! stdout. Exits 1 when the correctness gate fails, 2 on bad arguments.

use e2e_bench::manifest::manifest_json;
use e2e_bench::measure::run;
use e2e_bench::workload::{Size, Workload};

fn usage(msg: &str) -> ! {
    eprintln!("{msg}");
    eprintln!(
        "usage: e2e_bench --workload <fixed_fe|sessions_churn|faults_overload> \
         --seed <u64> --seconds <s> --trace <0|1> | --manifest"
    );
    std::process::exit(2);
}

fn main() {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut args = std::env::args().skip(1);
    while let Some(flag) = args.next() {
        if flag == "--manifest" {
            print!("{}", manifest_json());
            return;
        }
        let Some(value) = args.next() else {
            usage(&format!("{flag} needs a value"));
        };
        match flag.as_str() {
            "--workload" => workload = Workload::parse(&value),
            "--seed" => seed = value.parse::<u64>().ok(),
            "--seconds" => seconds = value.parse::<f64>().ok().filter(|s| *s > 0.0),
            "--trace" => {
                trace = match value.as_str() {
                    "0" => Some(false),
                    "1" => Some(true),
                    _ => None,
                }
            }
            _ => usage(&format!("unknown argument {flag:?}")),
        }
    }
    let (Some(workload), Some(seed), Some(seconds), Some(trace)) = (workload, seed, seconds, trace)
    else {
        usage("missing or invalid argument");
    };
    // Pin the environment the simulator crates read, so the numbers do
    // not depend on the caller's shell. No thread exists yet.
    std::env::set_var("FECDN_THREADS", workload.threads().to_string());
    std::env::set_var("FECDN_METRICS", "1");
    for var in ["FECDN_WORLD_BATCH", "FECDN_ENGINE", "FECDN_SCALE"] {
        std::env::remove_var(var);
    }
    let report = run(workload, seed, seconds, trace, Size::Full);
    for line in &report.notes {
        println!("{line}");
    }
    for m in &report.metrics {
        match m.value {
            Some(v) => println!("metric {} = {v} {}", m.name, m.unit),
            None => println!("metric {} unavailable ({})", m.name, m.unit),
        }
    }
    println!("{}", report.json());
    if !report.correct {
        std::process::exit(1);
    }
}
