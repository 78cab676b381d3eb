//! The command-line parser shared by `sentomist`, `sentomistd` and
//! `sentomist_loadgen`.
//!
//! A command declares the flags that take a value, its switches and how
//! many positional arguments it accepts; [`parse`] reads the words in any
//! order against that declaration. A switch never takes a value, so the
//! word after it is read on its own, and a value flag always takes the
//! next word. An undeclared flag, a value flag without its value and one
//! positional too many are errors, never a silent default. [`Args`] then
//! hands out the values, parsing numbers at the caller's own type so an
//! out-of-range number is an error rather than a truncation.

use std::collections::HashMap;
use std::str::FromStr;

/// A command line parsed against its declaration.
#[derive(Debug, Default)]
pub struct Args {
    positionals: Vec<String>,
    /// Every flag given, with its value; `None` for a switch.
    flags: HashMap<String, Option<String>>,
}

/// Parses `args` for a command whose value flags are `values`, whose
/// switches are `switches` and which takes at most `positionals`
/// positional arguments. Flags are named without their `--`. A flag
/// given twice keeps its last value.
///
/// # Errors
///
/// ``unknown flag `--NAME` `` for a flag the command does not declare,
/// `--NAME wants a value` for a value flag followed by nothing or by a
/// `--` word, and ``unexpected argument `ARG` `` for one positional too
/// many. The first offending word is the one named.
pub fn parse(
    args: &[String],
    values: &[&str],
    switches: &[&str],
    positionals: usize,
) -> Result<Args, String> {
    let mut parsed = Args::default();
    let mut words = args.iter();
    while let Some(word) = words.next() {
        let Some(name) = word.strip_prefix("--") else {
            if parsed.positionals.len() == positionals {
                return Err(format!("unexpected argument `{word}`"));
            }
            parsed.positionals.push(word.clone());
            continue;
        };
        let value = if switches.contains(&name) {
            None
        } else if values.contains(&name) {
            match words.next() {
                Some(value) if !value.starts_with("--") => Some(value.clone()),
                _ => return Err(format!("--{name} wants a value")),
            }
        } else {
            return Err(format!("unknown flag `--{name}`"));
        };
        parsed.flags.insert(name.to_string(), value);
    }
    Ok(parsed)
}

impl Args {
    /// The `i`-th positional argument, if given.
    pub fn positional(&self, i: usize) -> Option<&str> {
        self.positionals.get(i).map(String::as_str)
    }

    /// Whether the flag or switch `name` was given.
    pub fn has(&self, name: &str) -> bool {
        self.flags.contains_key(name)
    }

    /// The value of flag `name`, if given.
    pub fn value(&self, name: &str) -> Option<&str> {
        self.flags.get(name)?.as_deref()
    }

    /// The value of flag `name` parsed as a `T`, if given.
    ///
    /// # Errors
    ///
    /// ``--NAME wants a number, got `V` `` when the value does not parse
    /// as a `T`, a value outside `T`'s range included.
    pub fn number<T: FromStr>(&self, name: &str) -> Result<Option<T>, String> {
        self.value(name)
            .map(|v| {
                v.parse()
                    .map_err(|_| format!("--{name} wants a number, got `{v}`"))
            })
            .transpose()
    }

    /// [`Args::number`], or `default` when the flag is absent.
    ///
    /// # Errors
    ///
    /// As [`Args::number`].
    pub fn number_or<T: FromStr>(&self, name: &str, default: T) -> Result<T, String> {
        Ok(self.number(name)?.unwrap_or(default))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn words(line: &str) -> Vec<String> {
        line.split_whitespace().map(String::from).collect()
    }

    const VALUES: &[&str] = &["irq", "out"];
    const SWITCHES: &[&str] = &["json"];

    #[test]
    fn switches_never_take_a_value_and_flags_come_in_any_order() {
        for line in [
            "--json t.json --irq 2",
            "t.json --irq 2 --json",
            "--irq 2 --json t.json",
        ] {
            let args = parse(&words(line), VALUES, SWITCHES, 1).unwrap();
            assert_eq!(args.positional(0), Some("t.json"), "{line}");
            assert!(args.has("json") && args.value("json").is_none(), "{line}");
            assert_eq!(args.number::<u8>("irq"), Ok(Some(2)), "{line}");
            assert!(!args.has("out"), "{line}");
            assert_eq!(args.number_or("out", 7u64), Ok(7), "{line}");
        }
        let args = parse(&words("--irq 1 --irq 3 --out -"), VALUES, SWITCHES, 0).unwrap();
        assert_eq!(args.number_or("irq", 0u8), Ok(3), "the last value wins");
        assert_eq!(args.value("out"), Some("-"), "a lone dash is a value");
        assert_eq!(args.positional(0), None);
    }

    #[test]
    fn malformed_command_lines_are_errors() {
        for (line, positionals, error) in [
            ("--bogus 1 --worse", 0, "unknown flag `--bogus`"),
            ("--", 0, "unknown flag `--`"),
            ("--out", 0, "--out wants a value"),
            ("--out --json", 0, "--out wants a value"),
            ("a b", 1, "unexpected argument `b`"),
            ("--json 5", 0, "unexpected argument `5`"),
        ] {
            let error = Err(error.to_string());
            assert_eq!(
                parse(&words(line), VALUES, SWITCHES, positionals).map(|_| ()),
                error,
                "{line}"
            );
        }
        let args = parse(&words("--irq 258 --out x"), VALUES, SWITCHES, 0).unwrap();
        assert_eq!(
            args.number::<u8>("irq"),
            Err("--irq wants a number, got `258`".to_string())
        );
        assert_eq!(
            args.number_or("out", 0.5f64),
            Err("--out wants a number, got `x`".to_string())
        );
    }
}
