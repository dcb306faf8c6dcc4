//! Option parsing for the `levy` command-line driver.
//!
//! Deliberately dependency-free: `--key value` pairs into a map with typed,
//! defaulted lookups. Kept in the library so it is unit-testable.

use std::collections::HashMap;

/// Parsed `--key value` command-line options.
#[derive(Debug, Clone, Default)]
pub struct Options(HashMap<String, String>);

impl Options {
    /// Parses alternating `--key value` arguments.
    ///
    /// # Errors
    ///
    /// Returns a message if an argument is not `--`-prefixed or a key has
    /// no value.
    pub fn parse(args: &[String]) -> Result<Self, String> {
        let mut map = HashMap::new();
        let mut i = 0;
        while i < args.len() {
            let key = args[i]
                .strip_prefix("--")
                .ok_or_else(|| format!("expected --option, got '{}'", args[i]))?;
            let value = args
                .get(i + 1)
                .ok_or_else(|| format!("--{key} requires a value"))?;
            map.insert(key.to_owned(), value.clone());
            i += 2;
        }
        Ok(Options(map))
    }

    /// Typed lookup with a default.
    ///
    /// # Errors
    ///
    /// Returns a message if the raw value fails to parse as `T`.
    pub fn get<T: std::str::FromStr>(&self, key: &str, default: T) -> Result<T, String> {
        match self.0.get(key) {
            None => Ok(default),
            Some(raw) => raw
                .parse()
                .map_err(|_| format!("invalid value '{raw}' for --{key}")),
        }
    }

    /// String lookup with a default.
    pub fn get_str(&self, key: &str, default: &str) -> String {
        self.0
            .get(key)
            .cloned()
            .unwrap_or_else(|| default.to_owned())
    }

    /// Whether a key was supplied.
    pub fn contains(&self, key: &str) -> bool {
        self.0.contains_key(key)
    }

    /// Rejects every supplied key outside `accepted`, so a typo'd flag is
    /// an error instead of silently leaving its option at the default.
    ///
    /// # Errors
    ///
    /// Returns a message naming the unknown flag (the first in sorted
    /// order) and the accepted ones.
    pub fn accept_only(&self, accepted: &[&str]) -> Result<(), String> {
        let unknown = self
            .0
            .keys()
            .filter(|key| !accepted.contains(&key.as_str()));
        let Some(key) = unknown.min() else {
            return Ok(());
        };
        let accepted: Vec<String> = accepted.iter().map(|k| format!("--{k}")).collect();
        Err(format!(
            "unknown option --{key} (accepted: {})",
            accepted.join(", ")
        ))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn args(list: &[&str]) -> Vec<String> {
        list.iter().map(|s| s.to_string()).collect()
    }

    #[test]
    fn parses_key_value_pairs() {
        let opts = Options::parse(&args(&["--alpha", "2.5", "--steps", "100"])).unwrap();
        assert_eq!(opts.get("alpha", 0.0), Ok(2.5));
        assert_eq!(opts.get("steps", 0u64), Ok(100));
        assert!(opts.contains("alpha"));
        assert!(!opts.contains("missing"));
    }

    #[test]
    fn defaults_apply_for_missing_keys() {
        let opts = Options::parse(&args(&[])).unwrap();
        assert_eq!(opts.get("k", 32usize), Ok(32));
        assert_eq!(opts.get_str("strategy", "random"), "random");
    }

    #[test]
    fn rejects_non_option_arguments() {
        let err = Options::parse(&args(&["alpha", "2.5"])).unwrap_err();
        assert!(err.contains("expected --option"));
    }

    #[test]
    fn rejects_missing_values() {
        let err = Options::parse(&args(&["--alpha"])).unwrap_err();
        assert!(err.contains("requires a value"));
    }

    #[test]
    fn rejects_unparseable_values() {
        let opts = Options::parse(&args(&["--k", "many"])).unwrap();
        let err = opts.get("k", 1usize).unwrap_err();
        assert!(err.contains("invalid value"));
    }

    #[test]
    fn rejects_unknown_keys() {
        let opts = Options::parse(&args(&["--alpah", "2.5", "--seed", "1"])).unwrap();
        let err = opts.accept_only(&["alpha", "seed"]).unwrap_err();
        assert!(err.contains("unknown option --alpah"), "{err}");
        assert!(err.contains("accepted: --alpha, --seed"), "{err}");
    }

    #[test]
    fn known_keys_still_parse() {
        let opts = Options::parse(&args(&["--alpha", "2.5", "--seed", "1"])).unwrap();
        assert_eq!(opts.accept_only(&["alpha", "steps", "seed"]), Ok(()));
        assert_eq!(opts.get("alpha", 0.0), Ok(2.5));
        assert_eq!(opts.get("steps", 7u64), Ok(7));
        assert_eq!(Options::default().accept_only(&[]), Ok(()));
    }

    #[test]
    fn later_duplicates_win() {
        let opts = Options::parse(&args(&["--k", "1", "--k", "2"])).unwrap();
        assert_eq!(opts.get("k", 0u32), Ok(2));
    }
}
