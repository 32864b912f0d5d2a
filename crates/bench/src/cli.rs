//! One strict command-line parser for every `fsc-bench` binary.
//!
//! A binary declares the flags it accepts as a [`Spec`]: `"--quick"` is a
//! switch, `"--out <path>"` takes one value.  An unknown flag, a repeated flag,
//! a missing value, or a value that does not parse is an error, and
//! [`from_env`] turns it into exit status 2 with a message, so a typo cannot
//! silently run a different experiment.

use std::fmt::Display;
use std::str::FromStr;

use crate::Scale;

/// The flags one binary accepts, as usage text: `"--quick"` or `"--out <path>"`.
pub type Spec = &'static [&'static str];

/// The flags given on one command line, checked against their [`Spec`].
#[derive(Debug)]
pub struct Args {
    spec: Spec,
    given: Vec<(&'static str, Option<String>)>,
}

/// Parses `argv` (without the program name) against `spec`.
pub fn parse(spec: Spec, argv: &[String]) -> Result<Args, String> {
    let mut given: Vec<(&'static str, Option<String>)> = Vec::new();
    let mut argv = argv.iter();
    while let Some(arg) = argv.next() {
        let usage = spec
            .iter()
            .copied()
            .find(|usage| name(usage) == arg.as_str())
            .ok_or_else(|| format!("unknown flag {arg:?}"))?;
        let flag = name(usage);
        if given.iter().any(|(seen, _)| *seen == flag) {
            return Err(format!("{flag} given twice"));
        }
        let value = if usage.contains(' ') {
            let value = argv
                .next()
                .filter(|v| !v.starts_with("--"))
                .ok_or_else(|| format!("{usage}: missing value"))?;
            Some(value.clone())
        } else {
            None
        };
        given.push((flag, value));
    }
    Ok(Args { spec, given })
}

/// Parses the process arguments against `spec` and builds the binary's
/// options with `build`; exits 2 with the error and the usage line when
/// either fails.
pub fn from_env<T>(spec: Spec, build: impl FnOnce(&Args) -> Result<T, String>) -> T {
    let argv: Vec<String> = std::env::args().collect();
    parse(spec, &argv[1..])
        .and_then(|args| build(&args))
        .unwrap_or_else(|err| {
            eprintln!("error: {err}");
            eprintln!("usage: {} [{}]", argv[0], spec.join("] ["));
            std::process::exit(2);
        })
}

/// The flag name of a usage entry: `"--out"` for `"--out <path>"`.
fn name(usage: &str) -> &str {
    usage.split(' ').next().unwrap_or(usage)
}

impl Args {
    fn usage(&self, flag: &str) -> &'static str {
        self.spec
            .iter()
            .copied()
            .find(|usage| name(usage) == flag)
            .unwrap_or_else(|| panic!("{flag} is not in this binary's spec"))
    }

    /// Whether the switch `flag` was given.
    pub fn flag(&self, flag: &str) -> bool {
        self.usage(flag);
        self.given.iter().any(|(seen, _)| *seen == flag)
    }

    /// [`Scale::Quick`] when `--quick` was given, [`Scale::Full`] otherwise.
    pub fn scale(&self) -> Scale {
        if self.flag("--quick") {
            Scale::Quick
        } else {
            Scale::Full
        }
    }

    /// The value of `flag` parsed as `T`, `None` when the flag was not given,
    /// and an error naming the flag when the value does not parse.
    pub fn value<T: FromStr>(&self, flag: &str) -> Result<Option<T>, String>
    where
        T::Err: Display,
    {
        let usage = self.usage(flag);
        let Some((_, Some(value))) = self.given.iter().find(|(seen, _)| *seen == flag) else {
            return Ok(None);
        };
        value
            .parse()
            .map(Some)
            .map_err(|e| format!("{usage}: bad value {value:?} ({e})"))
    }
}

#[cfg(test)]
mod tests {
    use std::num::NonZeroUsize;

    use super::*;

    const SPEC: Spec = &["--quick", "--threads <n>", "--out <path>"];

    /// The options a `run_all`-like binary builds: scale, threads (default 1), out.
    fn build(argv: &[&str]) -> Result<(Scale, usize, Option<String>), String> {
        let argv: Vec<String> = argv.iter().map(|a| a.to_string()).collect();
        let args = parse(SPEC, &argv)?;
        let threads = args.value::<NonZeroUsize>("--threads")?;
        Ok((
            args.scale(),
            threads.map_or(1, NonZeroUsize::get),
            args.value("--out")?,
        ))
    }

    #[test]
    fn valid_command_lines_build_their_options() {
        let out = |p: &str| Some(p.to_string());
        for (argv, want) in [
            (&[][..], (Scale::Full, 1, None)),
            (&["--quick"], (Scale::Quick, 1, None)),
            (&["--threads", "4"], (Scale::Full, 4, None)),
            (&["--out", "p"], (Scale::Full, 1, out("p"))),
            (
                &["--out", "p", "--quick", "--threads", "2"],
                (Scale::Quick, 2, out("p")),
            ),
        ] {
            assert_eq!(build(argv), Ok(want), "{argv:?}");
        }
    }

    #[test]
    fn malformed_command_lines_fail_naming_the_flag() {
        for (argv, named) in [
            (&["--quik"][..], "--quik"),
            (&["quick"], "quick"),
            (&["--quick", "--quick"], "--quick"),
            (&["--out", "a", "--out", "b"], "--out"),
            (&["--threads"], "--threads"),
            (&["--quick", "--threads"], "--threads"),
            (&["--out", "--quick"], "--out"),
            (&["--threads", "0"], "--threads"),
            (&["--threads", "x"], "--threads"),
            (&["--threads", "-1"], "--threads"),
        ] {
            let err = build(argv).expect_err(&format!("{argv:?} must fail"));
            assert!(err.contains(named), "{argv:?}: {err}");
        }
    }

    #[test]
    #[should_panic(expected = "not in this binary's spec")]
    fn looking_up_an_undeclared_flag_is_a_bug() {
        parse(SPEC, &[]).unwrap().flag("--qiuck");
    }
}
