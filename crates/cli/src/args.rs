//! Tiny hand-rolled flag parser (no external dependency): `--key value`
//! pairs plus boolean `--flag`s, with typed accessors and a final check
//! that rejects unknown and half-given flags.

use std::collections::HashMap;

/// How a command read a key: as a `--key value` pair or a boolean `--flag`.
#[derive(Clone, Copy, PartialEq, Eq)]
enum Kind {
    Value,
    Flag,
}

/// Parsed command-line flags.
pub struct Args {
    values: HashMap<String, String>,
    flags: Vec<String>,
    used: std::cell::RefCell<Vec<(String, Kind)>>,
}

impl Args {
    /// Parses `argv` (already stripped of program name and subcommand).
    ///
    /// Tokens starting with `--` followed by a non-`--` token are key/value
    /// pairs; a `--token` followed by another `--token` (or the end) is a
    /// boolean flag.
    pub fn parse(argv: &[String]) -> Result<Self, String> {
        let mut values = HashMap::new();
        let mut flags = Vec::new();
        let mut i = 0;
        while i < argv.len() {
            let tok = &argv[i];
            let key = tok
                .strip_prefix("--")
                .ok_or_else(|| format!("expected a --flag, found `{tok}`"))?;
            if i + 1 < argv.len() && !argv[i + 1].starts_with("--") {
                values.insert(key.to_string(), argv[i + 1].clone());
                i += 2;
            } else {
                flags.push(key.to_string());
                i += 1;
            }
        }
        Ok(Args {
            values,
            flags,
            used: std::cell::RefCell::new(Vec::new()),
        })
    }

    fn mark(&self, key: &str, kind: Kind) {
        self.used.borrow_mut().push((key.to_string(), kind));
    }

    /// Typed value with a default.
    pub fn get<T: std::str::FromStr>(&self, key: &str, default: T) -> Result<T, String> {
        self.mark(key, Kind::Value);
        match self.values.get(key) {
            None => Ok(default),
            Some(v) => v
                .parse()
                .map_err(|_| format!("--{key}: cannot parse `{v}`")),
        }
    }

    /// Required string value.
    pub fn require(&self, key: &str) -> Result<String, String> {
        self.mark(key, Kind::Value);
        self.values
            .get(key)
            .cloned()
            .ok_or_else(|| format!("missing required --{key}"))
    }

    /// Optional string value.
    pub fn opt(&self, key: &str) -> Option<String> {
        self.mark(key, Kind::Value);
        self.values.get(key).cloned()
    }

    /// Boolean flag.
    pub fn flag(&self, key: &str) -> bool {
        self.mark(key, Kind::Flag);
        self.flags.iter().any(|f| f == key)
    }

    /// Errors on any flag the command never consulted, on a valued flag
    /// given without its value (which would otherwise read as the default),
    /// and on a boolean flag given a value (which would otherwise read as
    /// off).
    pub fn finish(&self) -> Result<(), String> {
        let used = self.used.borrow();
        let given = self.values.keys().map(|k| (k, Kind::Value));
        for (k, kind) in given.chain(self.flags.iter().map(|k| (k, Kind::Flag))) {
            match used.iter().find(|(u, _)| u == k).map(|&(_, read)| read) {
                None => return Err(format!("unknown flag --{k}")),
                Some(read) if read == kind => {}
                Some(Kind::Value) => return Err(format!("--{k} needs a value")),
                Some(Kind::Flag) => return Err(format!("--{k} takes no value")),
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn argv(s: &str) -> Vec<String> {
        s.split_whitespace().map(String::from).collect()
    }

    #[test]
    fn parses_pairs_and_flags() {
        let a = Args::parse(&argv("--p 8 --gantt --k 64")).unwrap();
        assert_eq!(a.get("p", 0usize).unwrap(), 8);
        assert_eq!(a.get("k", 0usize).unwrap(), 64);
        assert!(a.flag("gantt"));
        assert!(!a.flag("csv"));
        assert!(a.finish().is_ok());
    }

    #[test]
    fn defaults_apply() {
        let a = Args::parse(&[]).unwrap();
        assert_eq!(a.get("s", 16u64).unwrap(), 16);
    }

    #[test]
    fn rejects_unknown_flags() {
        let a = Args::parse(&argv("--bogus 1")).unwrap();
        let _ = a.get("p", 0usize);
        assert!(a.finish().is_err());
    }

    #[test]
    fn rejects_a_valued_flag_without_its_value() {
        for line in ["--seed", "--seed --p 8", "--p 8 --seed"] {
            let a = Args::parse(&argv(line)).unwrap();
            assert_eq!(a.get("seed", 42u64).unwrap(), 42);
            let _ = a.get("p", 0usize);
            assert_eq!(a.finish().unwrap_err(), "--seed needs a value", "{line}");
        }
        let a = Args::parse(&argv("--out")).unwrap();
        assert!(a.opt("out").is_none());
        assert_eq!(a.finish().unwrap_err(), "--out needs a value");
    }

    #[test]
    fn rejects_a_boolean_flag_given_a_value() {
        let a = Args::parse(&argv("--gantt yes --p 8")).unwrap();
        assert!(!a.flag("gantt"));
        let _ = a.get("p", 0usize);
        assert_eq!(a.finish().unwrap_err(), "--gantt takes no value");
    }

    #[test]
    fn rejects_malformed_tokens() {
        assert!(Args::parse(&argv("p 8")).is_err());
    }

    #[test]
    fn require_and_opt() {
        let a = Args::parse(&argv("--out file.trace")).unwrap();
        assert_eq!(a.require("out").unwrap(), "file.trace");
        assert!(a.opt("missing").is_none());
        assert!(a.require("missing").is_err());
    }
}
