//! `claims` — runs one paper artefact and reports its claims.
//!
//! ```text
//! claims <artefact>   # TSV to stdout, one [PASS]/[FAIL] line per check to stderr
//! claims --list       # every artefact name, one per line
//! ```
//!
//! `FECDN_SCALE` (`quick` or `paper`, default quick) and `FECDN_SEED`
//! (a u64, default 42) pick the run; `FECDN_THREADS` sets the campaign
//! worker count (unset, empty or 0 for every core). Exit status: 0 when
//! every check passed, 1 when one failed, 2 on a bad invocation (no
//! argument, an unknown artefact, a second argument, or a bad
//! `FECDN_SCALE`, `FECDN_SEED` or `FECDN_THREADS`).

use bench::claims::{report, ALL};
use bench::{seed_from_value, Scale};
use emulator::campaign::threads_from_value;

/// What the command line asks for: the list, or one artefact (its
/// index in [`ALL`]) at a scale and seed.
#[derive(Debug, PartialEq)]
enum Invocation {
    List,
    Run(usize, Scale, u64),
}

/// Parses the arguments (program name excluded) and the values of
/// `FECDN_SCALE`, `FECDN_SEED` and `FECDN_THREADS`; `--list` reads
/// none of them. Pure, so tests can pin it without touching process
/// state. The worker count is only validated here: the campaign reads
/// it again when it runs.
fn parse(
    args: &[String],
    scale: Option<&str>,
    seed: Option<&str>,
    threads: Option<&str>,
) -> Result<Invocation, String> {
    let [arg] = args else {
        return Err(format!(
            "usage: claims <artefact> | claims --list (got {} arguments)",
            args.len()
        ));
    };
    if arg == "--list" {
        return Ok(Invocation::List);
    }
    let artefact = ALL
        .iter()
        .position(|(name, _)| name == arg)
        .ok_or_else(|| format!("unknown artefact {arg:?} (claims --list names them)"))?;
    let scale = Scale::from_value(scale)?;
    let seed = seed_from_value(seed)?;
    threads_from_value(threads)?;
    Ok(Invocation::Run(artefact, scale, seed))
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let var = |name| std::env::var(name).ok();
    let invocation = parse(
        &args,
        var("FECDN_SCALE").as_deref(),
        var("FECDN_SEED").as_deref(),
        var("FECDN_THREADS").as_deref(),
    )
    .unwrap_or_else(|msg| {
        eprintln!("{msg}");
        std::process::exit(2);
    });
    let Invocation::Run(artefact, scale, seed) = invocation else {
        for (name, _) in ALL {
            println!("{name}");
        }
        return;
    };
    let run = (ALL[artefact].1)(scale, seed);
    print!("{}", run.tsv);
    if !report(&run.checks) {
        eprintln!("one or more paper-shape checks FAILED");
        std::process::exit(1);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn args(v: &[&str]) -> Vec<String> {
        v.iter().map(|s| s.to_string()).collect()
    }

    #[test]
    fn exactly_one_argument_is_required() {
        for bad in [args(&[]), args(&["fig5", "fig6"]), args(&["--list", "x"])] {
            let err = parse(&bad, None, None, None).unwrap_err();
            assert!(err.starts_with("usage: claims"), "{err}");
        }
    }

    #[test]
    fn an_unknown_artefact_is_rejected() {
        for bad in ["fig10", "bench_tcpsim", "", "--help"] {
            let err = parse(&args(&[bad]), None, None, None).unwrap_err();
            assert!(err.contains(&format!("unknown artefact {bad:?}")), "{err}");
        }
    }

    #[test]
    fn list_takes_no_settings() {
        assert_eq!(
            parse(&args(&["--list"]), None, None, None),
            Ok(Invocation::List)
        );
        assert_eq!(
            parse(&args(&["--list"]), Some("bogus"), Some("x"), Some("-3")),
            Ok(Invocation::List)
        );
    }

    #[test]
    fn an_artefact_runs_at_the_parsed_scale_and_seed() {
        let fig5 = ALL.iter().position(|(name, _)| *name == "fig5").unwrap();
        assert_eq!(
            parse(&args(&["fig5"]), None, None, None),
            Ok(Invocation::Run(fig5, Scale::Quick, 42))
        );
        assert_eq!(
            parse(&args(&["fig5"]), Some("paper"), Some("7"), Some("4")),
            Ok(Invocation::Run(fig5, Scale::Paper, 7))
        );
        let err = parse(&args(&["fig5"]), Some("bogus"), None, None).unwrap_err();
        assert!(err.contains("FECDN_SCALE value \"bogus\""), "{err}");
        let err = parse(&args(&["fig5"]), None, Some("x"), None).unwrap_err();
        assert!(err.contains("FECDN_SEED value \"x\""), "{err}");
        for bad in ["x", "-3", "1.5"] {
            let err = parse(&args(&["fig5"]), None, None, Some(bad)).unwrap_err();
            assert!(
                err.contains(&format!("FECDN_THREADS value {bad:?}")),
                "{err}"
            );
        }
    }
}
