//! Minimal flag parser: `--key value` pairs and boolean `--flag`s.
//!
//! Kept dependency-free on purpose (the workspace's external crates are
//! limited to what DESIGN.md justifies); the option surface is small
//! enough that a hand-rolled parser stays simpler than a framework.

use std::collections::BTreeMap;

/// Parsed command line: a subcommand plus its options.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct Args {
    /// First positional argument.
    pub command: Option<String>,
    /// Second positional argument — the action of commands that take
    /// one (`store ls` / `store gc` / `store export` / `store import`).
    pub action: Option<String>,
    values: BTreeMap<String, String>,
    flags: Vec<String>,
}

impl Args {
    /// Parse raw arguments (without the program name). `--key value`
    /// sets an option; a `--key` followed by another `--…` or nothing
    /// is a boolean flag.
    pub fn parse<I: IntoIterator<Item = String>>(raw: I) -> Result<Args, String> {
        let mut out = Args::default();
        let mut iter = raw.into_iter().peekable();
        while let Some(tok) = iter.next() {
            if let Some(key) = tok.strip_prefix("--") {
                if key.is_empty() {
                    return Err("empty option name '--'".into());
                }
                match iter.peek() {
                    Some(next) if !next.starts_with("--") => {
                        let value = iter.next().expect("peeked");
                        if out.values.insert(key.to_string(), value).is_some() {
                            return Err(format!("option --{key} given twice"));
                        }
                    }
                    _ => out.flags.push(key.to_string()),
                }
            } else if out.command.is_none() {
                out.command = Some(tok);
            } else if out.action.is_none() {
                out.action = Some(tok);
            } else {
                return Err(format!("unexpected positional argument '{tok}'"));
            }
        }
        Ok(out)
    }

    /// String option.
    pub fn get(&self, key: &str) -> Option<&str> {
        self.values.get(key).map(String::as_str)
    }

    /// String option with a default.
    pub fn get_or<'a>(&'a self, key: &str, default: &'a str) -> &'a str {
        self.get(key).unwrap_or(default)
    }

    /// Required string option.
    #[allow(dead_code)] // part of the parser's API surface; used in tests
    pub fn require(&self, key: &str) -> Result<&str, String> {
        self.get(key)
            .ok_or_else(|| format!("missing required option --{key}"))
    }

    /// Parsed numeric option.
    pub fn get_num<T: std::str::FromStr>(&self, key: &str) -> Result<Option<T>, String> {
        match self.get(key) {
            None => Ok(None),
            Some(v) => v
                .parse()
                .map(Some)
                .map_err(|_| format!("option --{key}: cannot parse '{v}'")),
        }
    }

    /// Parsed numeric option with a default.
    pub fn num_or<T: std::str::FromStr>(&self, key: &str, default: T) -> Result<T, String> {
        Ok(self.get_num(key)?.unwrap_or(default))
    }

    /// Boolean flag.
    pub fn flag(&self, key: &str) -> bool {
        self.flags.iter().any(|f| f == key)
    }

    /// The name of every option given, valued or boolean.
    pub fn options(&self) -> impl Iterator<Item = &str> {
        self.values.keys().chain(&self.flags).map(String::as_str)
    }

    /// Comma-separated list option.
    pub fn list(&self, key: &str) -> Option<Vec<String>> {
        self.get(key)
            .map(|v| v.split(',').map(|s| s.trim().to_string()).collect())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse(tokens: &[&str]) -> Args {
        Args::parse(tokens.iter().map(|s| s.to_string())).unwrap()
    }

    #[test]
    fn command_options_and_flags() {
        let a = parse(&["tune", "--nodes", "32", "--sequential", "--out", "t.json"]);
        assert_eq!(a.command.as_deref(), Some("tune"));
        assert_eq!(a.get("nodes"), Some("32"));
        assert_eq!(a.get("out"), Some("t.json"));
        assert!(a.flag("sequential"));
        assert!(!a.flag("parallel"));
    }

    #[test]
    fn numeric_parsing_and_defaults() {
        let a = parse(&["simulate", "--msg", "65536"]);
        assert_eq!(a.num_or::<u64>("msg", 0).unwrap(), 65_536);
        assert_eq!(a.num_or::<u32>("nodes", 16).unwrap(), 16);
        assert!(a.num_or::<u64>("msg", 0).is_ok());
        let bad = parse(&["simulate", "--msg", "lots"]);
        assert!(bad.num_or::<u64>("msg", 0).is_err());
    }

    #[test]
    fn lists_split_on_commas() {
        let a = parse(&["tune", "--collectives", "bcast, reduce,allgather"]);
        assert_eq!(
            a.list("collectives").unwrap(),
            vec!["bcast", "reduce", "allgather"]
        );
    }

    #[test]
    fn duplicate_option_rejected() {
        let e = Args::parse(["x", "--a", "1", "--a", "2"].map(String::from)).unwrap_err();
        assert!(e.contains("twice"));
    }

    #[test]
    fn second_positional_is_the_action() {
        let a = parse(&["store", "ls", "--store", "cache"]);
        assert_eq!(a.command.as_deref(), Some("store"));
        assert_eq!(a.action.as_deref(), Some("ls"));
        assert_eq!(a.get("store"), Some("cache"));
    }

    #[test]
    fn unexpected_positional_rejected() {
        let e = Args::parse(["x", "y", "z"].map(String::from)).unwrap_err();
        assert!(e.contains("unexpected"));
    }

    #[test]
    fn require_reports_the_key() {
        let a = parse(&["tune"]);
        assert!(a.require("out").unwrap_err().contains("--out"));
    }

    #[test]
    fn trailing_flag_is_boolean() {
        let a = parse(&["tune", "--sequential"]);
        assert!(a.flag("sequential"));
    }
}
