//! Minimal command-line argument handling for the harness binaries.

use std::collections::HashMap;

/// Parsed `--key value` / `--flag` arguments.
pub struct Args {
    values: HashMap<String, String>,
    flags: Vec<String>,
}

impl Args {
    /// Parses the process arguments.
    pub fn parse() -> Self {
        Self::from_args(std::env::args().skip(1))
    }

    /// Parses from an explicit iterator (tests).
    pub fn from_args(iter: impl IntoIterator<Item = String>) -> Self {
        let mut values = HashMap::new();
        let mut flags = Vec::new();
        let mut iter = iter.into_iter().peekable();
        while let Some(arg) = iter.next() {
            if let Some(key) = arg.strip_prefix("--") {
                match iter.peek() {
                    Some(next) if !next.starts_with("--") => {
                        values.insert(key.to_string(), iter.next().unwrap());
                    }
                    _ => flags.push(key.to_string()),
                }
            }
        }
        Self { values, flags }
    }

    /// A typed value with a default. A value that does not parse ends
    /// the process through [`crate::report::die`]: a harness that quietly
    /// measured the default instead would report a wrong number.
    pub fn get<T: std::str::FromStr>(&self, key: &str, default: T) -> T {
        self.try_get(key, default)
            .unwrap_or_else(|e| crate::report::die(&e))
    }

    /// [`Self::get`], with the unparsable value as an error naming the
    /// flag and what was passed.
    pub fn try_get<T: std::str::FromStr>(&self, key: &str, default: T) -> Result<T, String> {
        self.values.get(key).map_or(Ok(default), |v| parse(key, v))
    }

    /// A comma-separated list of typed values (`--servers 2,4,8`).
    pub fn get_list<T: std::str::FromStr>(&self, key: &str, default: &str) -> Vec<T> {
        self.get_str(key, default)
            .split(',')
            .map(|v| parse(key, v.trim()).unwrap_or_else(|e| crate::report::die(&e)))
            .collect()
    }

    /// A string value with a default.
    pub fn get_str(&self, key: &str, default: &str) -> String {
        self.values
            .get(key)
            .cloned()
            .unwrap_or_else(|| default.to_string())
    }

    /// Whether a bare flag was passed.
    pub fn has(&self, flag: &str) -> bool {
        self.flags.iter().any(|f| f == flag)
    }
}

fn parse<T: std::str::FromStr>(key: &str, v: &str) -> Result<T, String> {
    v.parse()
        .map_err(|_| format!("--{key}: cannot parse {v:?}"))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn args(s: &str) -> Args {
        Args::from_args(s.split_whitespace().map(String::from))
    }

    #[test]
    fn values_and_flags() {
        let a = args("--servers 8 --render --scale 0.5");
        assert_eq!(a.get("servers", 1usize), 8);
        assert_eq!(a.get("scale", 1.0f64), 0.5);
        assert!(a.has("render"));
        assert!(!a.has("missing"));
    }

    #[test]
    fn defaults_apply() {
        let a = args("");
        assert_eq!(a.get("servers", 4usize), 4);
        assert_eq!(a.get_str("mode", "mona"), "mona");
    }

    #[test]
    fn malformed_values_are_named_not_defaulted() {
        let a = args("--servers lots");
        let err = a.try_get("servers", 2usize).unwrap_err();
        assert!(err.contains("--servers") && err.contains("lots"), "{err}");
    }
}
