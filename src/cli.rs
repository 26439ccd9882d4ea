//! Command-line argument handling for the `het-gmp` binary.
//!
//! Hand-rolled `--flag value` parsing (no external dependency): every
//! subcommand sees a [`Args`] map plus positional arguments, and rejects
//! flags outside its known set ([`Args::unknown_flag`]) — a typo or a
//! retired flag must not be silently ignored.

use std::collections::HashMap;

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

    /// Typed flag with default.
    pub fn get_or<T: std::str::FromStr>(&self, name: &str, default: T) -> T {
        self.get(name)
            .and_then(|v| v.parse().ok())
            .unwrap_or(default)
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
        assert_eq!(a.get_or("workers", 1usize), 8);
        assert_eq!(a.get_or("missing", 3usize), 3);
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
        assert_eq!(a.get_or("b", 0), 2);
    }

    #[test]
    fn bad_parse_falls_back() {
        let a = parse("x --n notanumber");
        assert_eq!(a.get_or("n", 7usize), 7);
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
