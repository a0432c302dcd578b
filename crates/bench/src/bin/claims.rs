//! `claims` — runs one paper artefact and reports its claims.
//!
//! ```text
//! claims <artefact>   # TSV to stdout, one [PASS]/[FAIL] line per check to stderr
//! claims --list       # every artefact name, one per line
//! ```
//!
//! `FECDN_SCALE` (`quick` or `paper`, default quick) and `FECDN_SEED`
//! (a u64, default 42) pick the run; `FECDN_THREADS` sets the campaign
//! worker count. Exit status: 0 when every check passed, 1 when one
//! failed, 2 on a bad invocation (no argument, an unknown artefact, a
//! second argument, or a bad `FECDN_SCALE` or `FECDN_SEED`).

use bench::claims::ALL;
use bench::{seed_from_value, Scale};

/// What the command line asks for: the list, or one artefact (its
/// index in [`ALL`]) at a scale and seed.
#[derive(Debug, PartialEq)]
enum Invocation {
    List,
    Run(usize, Scale, u64),
}

/// Parses the arguments (program name excluded) and the values of
/// `FECDN_SCALE` and `FECDN_SEED`. Pure, so tests can pin it without
/// touching process state.
fn parse(args: &[String], scale: Option<&str>, seed: Option<&str>) -> Result<Invocation, String> {
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
    Ok(Invocation::Run(
        artefact,
        Scale::from_value(scale)?,
        seed_from_value(seed)?,
    ))
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let var = |name| std::env::var(name).ok();
    let invocation = parse(
        &args,
        var("FECDN_SCALE").as_deref(),
        var("FECDN_SEED").as_deref(),
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
    for c in &run.checks {
        let verdict = if c.pass { "PASS" } else { "FAIL" };
        if c.detail.is_empty() {
            eprintln!("  [{verdict}] {}", c.id);
        } else {
            eprintln!("  [{verdict}] {} ({})", c.id, c.detail);
        }
    }
    if !run.passed() {
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
            let err = parse(&bad, None, None).unwrap_err();
            assert!(err.starts_with("usage: claims"), "{err}");
        }
    }

    #[test]
    fn an_unknown_artefact_is_rejected() {
        for bad in ["fig10", "bench_tcpsim", "", "--help"] {
            let err = parse(&args(&[bad]), None, None).unwrap_err();
            assert!(err.contains(&format!("unknown artefact {bad:?}")), "{err}");
        }
    }

    #[test]
    fn list_takes_no_settings() {
        assert_eq!(parse(&args(&["--list"]), None, None), Ok(Invocation::List));
        assert_eq!(
            parse(&args(&["--list"]), Some("bogus"), Some("x")),
            Ok(Invocation::List)
        );
    }

    #[test]
    fn an_artefact_runs_at_the_parsed_scale_and_seed() {
        let fig5 = ALL.iter().position(|(name, _)| *name == "fig5").unwrap();
        assert_eq!(
            parse(&args(&["fig5"]), None, None),
            Ok(Invocation::Run(fig5, Scale::Quick, 42))
        );
        assert_eq!(
            parse(&args(&["fig5"]), Some("paper"), Some("7")),
            Ok(Invocation::Run(fig5, Scale::Paper, 7))
        );
        let err = parse(&args(&["fig5"]), Some("bogus"), None).unwrap_err();
        assert!(err.contains("FECDN_SCALE value \"bogus\""), "{err}");
        let err = parse(&args(&["fig5"]), None, Some("x")).unwrap_err();
        assert!(err.contains("FECDN_SEED value \"x\""), "{err}");
    }
}
