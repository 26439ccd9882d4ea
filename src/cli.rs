//! Command-line argument handling for the `het-gmp` binary.
//!
//! Hand-rolled `--flag value` parsing (no external dependency): every
//! subcommand sees a [`Args`] map plus positional arguments, and rejects
//! flags outside its known set ([`Args::unknown_flag`]) — a typo or a
//! retired flag must not be silently ignored — and a value that does not
//! parse as its flag's type is a usage error ([`Args::parsed`]), never a
//! silent fall back to the default.

use std::collections::HashMap;
use std::str::FromStr;

use het_gmp::telemetry::HetGmpError;

/// Parsed command line: positionals + `--flag value` options.
#[derive(Debug, Default)]
pub struct Args {
    /// Positional arguments in order (subcommand first).
    pub positional: Vec<String>,
    flags: HashMap<String, String>,
}

impl Args {
    /// Parses an argument list (excluding the program name).
    ///
    /// `--flag value` and `--flag=value` are both accepted; a trailing
    /// `--flag` with no value stores an empty string (presence flag).
    pub fn parse<I: IntoIterator<Item = String>>(args: I) -> Self {
        let mut out = Args::default();
        let mut iter = args.into_iter().peekable();
        while let Some(arg) = iter.next() {
            if let Some(name) = arg.strip_prefix("--") {
                if let Some((k, v)) = name.split_once('=') {
                    out.flags.insert(k.to_string(), v.to_string());
                } else {
                    let value = match iter.peek() {
                        Some(next) if !next.starts_with("--") => {
                            iter.next().expect("peeked")
                        }
                        _ => String::new(),
                    };
                    out.flags.insert(name.to_string(), value);
                }
            } else {
                out.positional.push(arg);
            }
        }
        out
    }

    /// The subcommand (first positional), if any.
    pub fn command(&self) -> Option<&str> {
        self.positional.first().map(String::as_str)
    }

    /// Raw string flag.
    pub fn get(&self, name: &str) -> Option<&str> {
        self.flags.get(name).map(String::as_str)
    }

    /// True when `--name` appeared (with or without value).
    pub fn has(&self, name: &str) -> bool {
        self.flags.contains_key(name)
    }

    /// The first flag (in name order, so the report is deterministic) that
    /// is not in `known`, if any.
    pub fn unknown_flag(&self, known: &[&str]) -> Option<&str> {
        self.flags
            .keys()
            .map(String::as_str)
            .filter(|k| !known.contains(k))
            .min()
    }

    /// Typed flag: `None` when absent. A value that does not parse as `T`
    /// (a bare `--name` included) is a usage error naming the flag and the
    /// value.
    pub fn parsed<T: FromStr>(&self, name: &str) -> Result<Option<T>, HetGmpError> {
        self.get(name)
            .map(|v| {
                v.parse().map_err(|_| {
                    let ty = std::any::type_name::<T>();
                    HetGmpError::usage(format!("--{name} expects a {ty} value, got {v:?}"))
                })
            })
            .transpose()
    }

    /// Typed flag with a default for when it is absent.
    pub fn parsed_or<T: FromStr>(&self, name: &str, default: T) -> Result<T, HetGmpError> {
        Ok(self.parsed(name)?.unwrap_or(default))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse(s: &str) -> Args {
        Args::parse(s.split_whitespace().map(String::from))
    }

    #[test]
    fn positionals_and_flags() {
        let a = parse("train --scale 0.5 --workers 8 extra");
        assert_eq!(a.command(), Some("train"));
        assert_eq!(a.positional, vec!["train", "extra"]);
        assert_eq!(a.get("scale"), Some("0.5"));
        assert_eq!(a.parsed_or("workers", 1usize).unwrap(), 8);
        assert_eq!(a.parsed_or("missing", 3usize).unwrap(), 3);
        assert_eq!(a.parsed::<f64>("scale").unwrap(), Some(0.5));
        assert_eq!(a.parsed::<usize>("missing").unwrap(), None);
    }

    #[test]
    fn equals_form_and_presence() {
        let a = parse("gen --preset=criteo --verbose");
        assert_eq!(a.get("preset"), Some("criteo"));
        assert!(a.has("verbose"));
        assert_eq!(a.get("verbose"), Some(""));
        assert!(!a.has("quiet"));
    }

    #[test]
    fn flag_followed_by_flag() {
        let a = parse("x --a --b 2");
        assert_eq!(a.get("a"), Some(""));
        assert_eq!(a.parsed_or("b", 0).unwrap(), 2);
    }

    #[test]
    fn bad_parse_is_a_usage_error_naming_flag_and_value() {
        let a = parse("x --n notanumber --scale 1x --bare");
        for (flag, value) in [("n", "notanumber"), ("scale", "1x"), ("bare", "")] {
            let e = a
                .parsed_or(flag, 7usize)
                .expect_err("must not fall back to the default");
            assert_eq!(e.exit_code(), 2, "{e}");
            let text = e.to_string();
            assert!(text.contains(&format!("--{flag} ")), "{text}");
            assert!(text.contains(&format!("{value:?}")), "{text}");
        }
    }

    #[test]
    fn unknown_flag_names_the_first_offender() {
        let a = parse("train --workers 2 --zeta --frobnicate=3");
        assert_eq!(a.unknown_flag(&["workers", "zeta", "frobnicate"]), None);
        assert_eq!(a.unknown_flag(&["workers"]), Some("frobnicate"));
        assert_eq!(a.unknown_flag(&["workers", "frobnicate"]), Some("zeta"));
    }

    #[test]
    fn empty() {
        let a = Args::parse(Vec::<String>::new());
        assert_eq!(a.command(), None);
    }
}
