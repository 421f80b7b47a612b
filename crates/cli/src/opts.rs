//! Minimal `--flag value` argument parsing (no external dependencies).

use std::collections::HashMap;

/// Parsed command line: one subcommand plus `--key value` flags.
#[derive(Clone, Debug, Default)]
pub struct Opts {
    /// The subcommand (first positional argument).
    pub command: String,
    flags: HashMap<String, String>,
}

impl Opts {
    /// Parse from an iterator of arguments (excluding argv\[0\]).
    pub fn parse<I: IntoIterator<Item = String>>(args: I) -> Result<Opts, String> {
        let mut it = args.into_iter().peekable();
        let command = it.next().unwrap_or_default(); // empty = no subcommand
        let mut flags = HashMap::new();
        while let Some(a) = it.next() {
            let Some(key) = a.strip_prefix("--") else {
                return Err(format!("unexpected positional argument '{a}'"));
            };
            let value = match it.peek() {
                Some(v) if !v.starts_with("--") => it.next().unwrap(),
                _ => "true".to_string(), // bare boolean flag
            };
            if flags.insert(key.to_string(), value).is_some() {
                return Err(format!("flag --{key} given twice"));
            }
        }
        Ok(Opts { command, flags })
    }

    /// Fail naming every given flag that is in none of `accepted`, so a
    /// typo or a stale flag stops the command instead of being ignored.
    pub fn reject_unknown(&self, accepted: &[&[&str]]) -> Result<(), String> {
        let mut unknown: Vec<&str> = self
            .flags
            .keys()
            .map(String::as_str)
            .filter(|k| !accepted.iter().any(|set| set.contains(k)))
            .collect();
        if unknown.is_empty() {
            return Ok(());
        }
        unknown.sort_unstable();
        let list: Vec<String> = unknown.iter().map(|k| format!("--{k}")).collect();
        Err(format!("unknown flag {} for `bct {}`", list.join(", "), self.command))
    }

    /// String flag with a default.
    pub fn get(&self, key: &str, default: &str) -> String {
        self.flags.get(key).cloned().unwrap_or_else(|| default.to_string())
    }

    /// Numeric flag with a default.
    pub fn get_f64(&self, key: &str, default: f64) -> Result<f64, String> {
        match self.flags.get(key) {
            None => Ok(default),
            Some(v) => v.parse().map_err(|_| format!("--{key} expects a number, got '{v}'")),
        }
    }

    /// Integer flag with a default.
    pub fn get_usize(&self, key: &str, default: usize) -> Result<usize, String> {
        match self.flags.get(key) {
            None => Ok(default),
            Some(v) => v.parse().map_err(|_| format!("--{key} expects an integer, got '{v}'")),
        }
    }

    /// Boolean flag (present = true).
    pub fn get_bool(&self, key: &str) -> bool {
        self.flags.contains_key(key)
    }

    /// String flag without a default (`None` when absent).
    pub fn try_get(&self, key: &str) -> Option<String> {
        self.flags.get(key).cloned()
    }

    /// Comma-separated list flag.
    pub fn get_list(&self, key: &str, default: &str) -> Vec<String> {
        self.get(key, default)
            .split(',')
            .filter(|s| !s.is_empty())
            .map(str::to_string)
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse(s: &str) -> Result<Opts, String> {
        Opts::parse(s.split_whitespace().map(str::to_string))
    }

    #[test]
    fn parses_command_and_flags() {
        let o = parse("run --topo star:2,2 --jobs 50 --full").unwrap();
        assert_eq!(o.command, "run");
        assert_eq!(o.get("topo", ""), "star:2,2");
        assert_eq!(o.get_usize("jobs", 0).unwrap(), 50);
        assert!(o.get_bool("full"));
        assert!(!o.get_bool("absent"));
        assert_eq!(o.get("missing", "dflt"), "dflt");
    }

    #[test]
    fn rejects_bad_input() {
        assert!(parse("run stray").is_err());
        assert!(parse("run --x 1 --x 2").is_err());
        let o = parse("run --jobs abc").unwrap();
        assert!(o.get_usize("jobs", 0).is_err());
        let o = parse("sweep --workers 3 --worker 3 --bogus").unwrap();
        let err = o.reject_unknown(&[&["workers"]]).unwrap_err();
        assert_eq!(err, "unknown flag --bogus, --worker for `bct sweep`");
        assert!(o.reject_unknown(&[&["workers", "bogus"], &["worker"]]).is_ok());
    }

    #[test]
    fn lists_split_on_commas() {
        let o = parse("sweep --speeds 1,1.5,2").unwrap();
        assert_eq!(o.get_list("speeds", ""), vec!["1", "1.5", "2"]);
        assert!(o.get_list("absent", "").is_empty());
    }

    #[test]
    fn empty_argv_yields_empty_command() {
        let o = Opts::parse(Vec::<String>::new()).unwrap();
        assert_eq!(o.command, "");
    }
}
