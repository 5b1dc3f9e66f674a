//! Command-line flag parsing shared by the `selearn-serve` and
//! `selearn-load` bins. Every malformed flag prints a message (plus the
//! bin's usage where it helps) and exits with code 2.

use std::str::FromStr;

/// The process arguments still unclaimed, and the usage text printed
/// beside flag errors.
pub struct Args {
    rest: Vec<String>,
    usage: &'static str,
}

impl Args {
    /// The process arguments, program name skipped.
    pub fn from_env(usage: &'static str) -> Self {
        Self {
            rest: std::env::args().skip(1).collect(),
            usage,
        }
    }

    /// Claims a bare `flag`; `true` when it was given.
    pub fn flag(&mut self, flag: &str) -> bool {
        match self.rest.iter().position(|a| a == flag) {
            Some(pos) => {
                self.rest.remove(pos);
                true
            }
            None => false,
        }
    }

    /// Claims `flag VALUE`. A trailing flag with no value exits 2.
    pub fn value(&mut self, flag: &str) -> Option<String> {
        let pos = self.rest.iter().position(|a| a == flag)?;
        if pos + 1 >= self.rest.len() {
            eprintln!("{flag} requires an argument\n{}", self.usage);
            std::process::exit(2);
        }
        let value = self.rest.remove(pos + 1);
        self.rest.remove(pos);
        Some(value)
    }

    /// Claims `flag N` and parses `N`. A value that does not parse exits 2.
    pub fn num<T: FromStr>(&mut self, flag: &str) -> Option<T> {
        self.value(flag).map(|v| match v.parse() {
            Ok(n) => n,
            Err(_) => {
                eprintln!("{flag} requires a number, got {v:?}");
                std::process::exit(2);
            }
        })
    }

    /// Exits 2 when any argument was not claimed.
    pub fn finish(self) {
        if !self.rest.is_empty() {
            eprintln!("unknown arguments: {:?}\n{}", self.rest, self.usage);
            std::process::exit(2);
        }
    }
}

/// Parses a `--synthetic DIM` value: an integer in `1..=6`, else exits 2.
pub fn synthetic_dim(dim: &str) -> usize {
    match dim.parse() {
        Ok(d) if (1..=6).contains(&d) => d,
        _ => {
            eprintln!("--synthetic DIM must be an integer in 1..=6");
            std::process::exit(2);
        }
    }
}
