//! The command-line grammar of `rvs` and of the `rvs-bench` binaries.
//!
//! A binary reads its arguments once, with [`argv`], and names what it
//! takes in a list of specs: `--name` is a switch, `--name VALUE` a flag
//! followed by exactly one argument (whatever that is, so a value may start
//! with `--`), and a bare `NAME` a positional argument that must be given.
//! A flag given twice keeps its last value. [`parse`] checks a command line
//! against such a list and has no side effects; [`accept`] and the typed
//! getters of [`Args`] refuse what does not fit.
//!
//! Every refusal, a binary's own one for two flags at odds included, goes
//! through [`refuse`]: the complaint on the first stderr line, the binary's
//! usage text under it, nothing on stdout and exit code 2, all before a
//! simulation starts. Exit code 1 is left to failures at run time.

use rvs_sim::SimTime;
use std::collections::BTreeMap;
use std::fmt::Display;
use std::str::FromStr;

/// The process's arguments after the program name: the one read of the
/// command line in `rvs` and in the `rvs-bench` binaries.
pub fn argv() -> Vec<String> {
    // rvs-lint: allow(ambient-env) -- the command line, read once at a binary's entry point
    std::env::args().skip(1).collect()
}

/// Refuse a command line: `complaint` on the first stderr line, `usage`
/// under it, and exit 2.
pub fn refuse(usage: &str, complaint: &str) -> ! {
    eprintln!("{complaint}\n{usage}");
    std::process::exit(2)
}

/// A command line that fits its grammar, and the usage text its
/// refusals print.
#[derive(Debug)]
pub struct Args {
    usage: String,
    /// Flags given, by name without the dashes; a switch has no value.
    flags: BTreeMap<String, Option<String>>,
    operands: Vec<String>,
}

/// Check `argv` against `grammar` (see the module doc); the error is the
/// complaint naming the first argument that does not fit, or the first
/// positional argument missing.
pub fn parse(argv: &[String], grammar: &[&str], usage: &str) -> Result<Args, String> {
    let wanted: Vec<&str> = grammar
        .iter()
        .copied()
        .filter(|spec| !spec.starts_with("--"))
        .collect();
    let mut args = Args {
        usage: usage.to_string(),
        flags: BTreeMap::new(),
        operands: Vec::new(),
    };
    let mut it = argv.iter();
    while let Some(arg) = it.next() {
        let Some(name) = arg.strip_prefix("--") else {
            if args.operands.len() == wanted.len() {
                return Err(format!("unexpected argument `{arg}`"));
            }
            args.operands.push(arg.clone());
            continue;
        };
        let valued = grammar.iter().find_map(|spec| match spec.split_once(' ') {
            Some((flag, _)) => (flag == arg).then_some(true),
            None => (*spec == arg).then_some(false),
        });
        let value = match valued {
            None => return Err(format!("unknown flag `{arg}`")),
            Some(false) => None,
            Some(true) => match it.next() {
                Some(value) => Some(value.clone()),
                None => return Err(format!("flag `{arg}` needs a value")),
            },
        };
        args.flags.insert(name.to_string(), value);
    }
    match wanted.get(args.operands.len()) {
        Some(missing) => Err(format!("missing argument `{missing}`")),
        None => Ok(args),
    }
}

/// [`parse`], refusing a command line that does not fit.
pub fn accept(argv: &[String], grammar: &[&str], usage: &str) -> Args {
    parse(argv, grammar, usage).unwrap_or_else(|complaint| refuse(usage, &complaint))
}

impl Args {
    /// Refuse this command line with `complaint`, under this binary's
    /// usage text.
    pub fn refuse(&self, complaint: &str) -> ! {
        refuse(&self.usage, complaint)
    }

    /// Was `--name` given?
    pub fn has(&self, name: &str) -> bool {
        self.flags.contains_key(name)
    }

    /// The text following `--name`, if given.
    pub fn value(&self, name: &str) -> Option<&str> {
        self.flags.get(name)?.as_deref()
    }

    /// The `i`-th positional argument of the grammar.
    pub fn operand(&self, i: usize) -> &str {
        &self.operands[i]
    }

    /// `--name`'s value as a `T`, if given; a value that does not parse is
    /// refused.
    pub fn get<T: FromStr>(&self, name: &str) -> Option<T> {
        let v = self.value(name)?;
        let parsed = v.parse().ok();
        Some(parsed.unwrap_or_else(|| self.refuse(&format!("invalid value `{v}` for --{name}"))))
    }

    /// Like [`get`](Self::get), for a value that must also pass `ok`;
    /// `want` names the values that do in the complaint. A parsable but
    /// impossible value (`--loss 1.5`) is the user's mistake and is
    /// refused here, not by an assertion deep inside the library.
    pub fn get_in<T: FromStr + Display>(
        &self,
        name: &str,
        want: &str,
        ok: impl Fn(&T) -> bool,
    ) -> Option<T> {
        let v = self.get(name)?;
        if !ok(&v) {
            self.refuse(&format!("--{name} must be {want}, got {v}"));
        }
        Some(v)
    }

    /// Like [`get`](Self::get), for a value in `min..=max`.
    pub fn within<T: FromStr + Display + PartialOrd>(
        &self,
        name: &str,
        min: T,
        max: T,
    ) -> Option<T> {
        let v = self.get(name)?;
        if v < min {
            self.refuse(&format!("--{name} must be at least {min}, got {v}"));
        }
        if v > max {
            self.refuse(&format!("--{name} must be at most {max}, got {v}"));
        }
        Some(v)
    }

    /// A count of at least `min`.
    pub fn at_least(&self, name: &str, min: usize) -> Option<usize> {
        self.within(name, min, usize::MAX)
    }

    /// `--hours H`: a run simulates something (`H` ≥ 1) and its end is a
    /// time the clock can count in milliseconds (`H` ≤ [`SimTime::MAX_HOURS`]).
    pub fn hours(&self) -> Option<u64> {
        self.within("hours", 1, SimTime::MAX_HOURS)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// `line` against `grammar`: the flags given with their values and the
    /// positional arguments, or the complaint.
    fn check(line: &str, grammar: &[&str]) -> Result<String, String> {
        let argv: Vec<String> = line.split_whitespace().map(String::from).collect();
        let args = parse(&argv, grammar, "USAGE")?;
        let flags = args.flags.iter().map(|(name, value)| match value {
            Some(v) => format!("{name}={v}"),
            None => name.clone(),
        });
        Ok(flags.chain(args.operands).collect::<Vec<_>>().join(" "))
    }

    #[test]
    fn the_grammar_of_every_binary() {
        // `fig6_vote_sampling`'s grammar, and what its refusals name.
        let fig6 = ["--quick", "--audit", "--peers N", "--json FILE"];
        let ok = |line: &str, want: &str| assert_eq!(check(line, &fig6), Ok(want.into()), "{line}");
        let refused = |line: &str, complaint: &str| {
            assert_eq!(check(line, &fig6), Err(complaint.into()), "{line}");
        };
        ok("", "");
        ok(
            "--quick --peers 100 --json out.json --audit",
            "audit json=out.json peers=100 quick",
        );
        // A valued flag swallows exactly one argument, whatever it is.
        ok("--json --quick", "json=--quick");
        // The last of a flag given twice counts.
        ok("--peers 1 --peers 2", "peers=2");
        refused("--peer 10000", "unknown flag `--peer`");
        refused("--quick --no-such", "unknown flag `--no-such`");
        refused("--peers 100 200", "unexpected argument `200`");
        refused("-q", "unexpected argument `-q`");
        // A valued flag with nothing after it is named too.
        refused("--quick --json", "flag `--json` needs a value");
        refused("--json out.json --peers", "flag `--peers` needs a value");

        // What the other bench binaries take: `--quick`, and `--json` only
        // where a series is written. A misspelt `--quick` must not fall
        // through to the paper-scale run.
        assert_eq!(check("--quick", &["--quick"]), Ok("quick".into()));
        let quik = check("--quik", &["--quick"]);
        assert_eq!(quik, Err("unknown flag `--quik`".into()));
        let json = check("--quick --json out.json", &["--quick"]);
        assert_eq!(json, Err("unknown flag `--json`".into()));
        let audit = check("--audit", &["--quick", "--json FILE"]);
        assert_eq!(audit, Err("unknown flag `--audit`".into()));

        // `rvs ckpt diff A B` and `rvs ckpt regen [--dir D]`: positional
        // arguments are all required, and no more are taken.
        let diff = ["A", "B"];
        assert_eq!(check("a b", &diff), Ok("a b".into()));
        assert_eq!(check("a", &diff), Err("missing argument `B`".into()));
        assert_eq!(check("a b c", &diff), Err("unexpected argument `c`".into()));
        assert_eq!(
            check("--json a b", &diff),
            Err("unknown flag `--json`".into())
        );
        let regen = ["--dir D"];
        assert_eq!(check("--dir x", &regen), Ok("dir=x".into()));
        assert_eq!(check("--out x", &regen), Err("unknown flag `--out`".into()));
    }

    #[test]
    fn getters_read_what_was_given() {
        let argv: Vec<String> = ["--peers", "12", "--quick", "x"].map(String::from).into();
        let args = accept(
            &argv,
            &["--quick", "--peers N", "--hours N", "FILE"],
            "USAGE",
        );
        assert!(args.has("quick") && args.has("peers") && !args.has("hours"));
        assert_eq!(args.value("peers"), Some("12"));
        assert_eq!(args.get::<u64>("peers"), Some(12));
        assert_eq!(args.at_least("peers", 12), Some(12));
        assert_eq!(args.within("peers", 1u32, 12), Some(12));
        assert_eq!(args.get_in("peers", "above 10", |p: &u8| *p > 10), Some(12));
        assert_eq!(args.hours(), None);
        assert_eq!(args.operand(0), "x");
    }
}
