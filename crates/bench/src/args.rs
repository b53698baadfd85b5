//! The one argument parser every command shares: boolean flags,
//! `--flag VALUE` with typed parsing, and trailing positional values.
//!
//! A command takes its flags by name first; whatever is left must be
//! positional. A token left over that starts with `--` is an unknown
//! flag. Every mistake is an error message that `main` turns into exit
//! code 2 and the command's usage line.

use std::str::FromStr;

/// The arguments after the command name, consumed as they are taken.
#[derive(Debug)]
pub(crate) struct Args {
    tokens: Vec<String>,
}

impl Args {
    pub(crate) fn new(tokens: impl IntoIterator<Item = String>) -> Self {
        Args {
            tokens: tokens.into_iter().collect(),
        }
    }

    fn take(&mut self, name: &str) -> Option<usize> {
        let at = self.tokens.iter().position(|t| t == name)?;
        self.tokens.remove(at);
        Some(at)
    }

    /// Whether the boolean flag `name` was given.
    pub(crate) fn flag(&mut self, name: &str) -> bool {
        let mut seen = false;
        while self.take(name).is_some() {
            seen = true;
        }
        seen
    }

    /// The value of `--name VALUE`, parsed; the last one wins when the
    /// flag is repeated.
    pub(crate) fn value<T: FromStr>(&mut self, name: &str) -> Result<Option<T>, String> {
        let mut value = None;
        while let Some(at) = self.take(name) {
            if at == self.tokens.len() {
                return Err(format!("{name} requires a value"));
            }
            value = Some(parse(name, &self.tokens.remove(at))?);
        }
        Ok(value)
    }

    /// [`Args::value`] for a value that must be greater than zero.
    pub(crate) fn positive<T>(&mut self, name: &str) -> Result<Option<T>, String>
    where
        T: FromStr + PartialOrd + Default,
    {
        match self.value::<T>(name)? {
            Some(v) if v <= T::default() => Err(format!("{name} requires a positive value")),
            v => Ok(v),
        }
    }

    /// A flag whose value may be left out: `None` when the flag is absent,
    /// `Some(None)` when it is given bare (followed by nothing or by
    /// another flag).
    pub(crate) fn optional_value<T: FromStr>(
        &mut self,
        name: &str,
    ) -> Result<Option<Option<T>>, String> {
        let mut value = None;
        while let Some(at) = self.take(name) {
            value = Some(match self.tokens.get(at) {
                Some(v) if !v.starts_with("--") => Some(parse(name, &self.tokens.remove(at))?),
                _ => None,
            });
        }
        Ok(value)
    }

    /// The next positional value, once every flag has been taken.
    pub(crate) fn positional<T: FromStr>(&mut self) -> Result<Option<T>, String> {
        match self.tokens.first() {
            None => Ok(None),
            Some(t) if t.starts_with("--") => Err(format!("unknown flag '{t}'")),
            Some(_) => parse("positional argument", &self.tokens.remove(0)).map(Some),
        }
    }

    /// Every positional value left.
    pub(crate) fn positionals<T: FromStr>(mut self) -> Result<Vec<T>, String> {
        let mut values = Vec::new();
        while let Some(v) = self.positional()? {
            values.push(v);
        }
        Ok(values)
    }

    /// Checks that nothing is left.
    pub(crate) fn finish(mut self) -> Result<(), String> {
        match self.positional::<String>()? {
            None => Ok(()),
            Some(t) => Err(format!("unexpected argument '{t}'")),
        }
    }
}

fn parse<T: FromStr>(what: &str, token: &str) -> Result<T, String> {
    token
        .parse()
        .map_err(|_| format!("{what}: cannot parse '{token}'"))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn args(line: &str) -> Args {
        Args::new(line.split_whitespace().map(str::to_string))
    }

    #[test]
    fn an_unknown_flag_is_an_error() {
        let mut a = args("--assert-verifed --threads 4 4 4 32");
        assert_eq!(a.value::<usize>("--threads"), Ok(Some(4)));
        assert!(!a.flag("--assert-verified"));
        let err = a.positionals::<i64>().unwrap_err();
        assert!(err.contains("unknown flag '--assert-verifed'"), "{err}");
        let mut a = args("4 --assert-prunin");
        assert_eq!(a.positional::<usize>(), Ok(Some(4)));
        let err = a.finish().unwrap_err();
        assert!(err.contains("unknown flag '--assert-prunin'"), "{err}");
    }

    #[test]
    fn a_flag_missing_its_value_is_an_error() {
        let err = args("4 4 --threads").value::<usize>("--threads");
        assert_eq!(err, Err("--threads requires a value".to_string()));
    }

    #[test]
    fn a_bad_number_is_an_error() {
        let err = args("--assert-speedup fast").value::<f64>("--assert-speedup");
        assert!(err.unwrap_err().contains("cannot parse 'fast'"));
        assert!(args("--threads -1").value::<usize>("--threads").is_err());
        for zero in ["0", "-1.5"] {
            let mut a = args(&format!("--assert-vm-overhead {zero}"));
            assert!(a.positive::<f64>("--assert-vm-overhead").is_err(), "{zero}");
        }
        assert!(args("4 x 32").positionals::<i64>().is_err());
        assert!(args("-4").positional::<usize>().is_err());
    }

    #[test]
    fn positional_ints_follow_the_flags() {
        let mut a = args("--assert-parity --threads 2 4 4 32");
        assert!(a.flag("--assert-parity"));
        assert_eq!(a.positive::<f64>("--assert-vm-overhead"), Ok(None));
        assert_eq!(a.value::<usize>("--threads"), Ok(Some(2)));
        assert_eq!(a.positionals::<i64>(), Ok(vec![4, 4, 32]));
        let mut a = args("8 1024 7");
        assert_eq!(a.positional::<usize>(), Ok(Some(8)));
        assert_eq!(a.positional::<i64>(), Ok(Some(1024)));
        assert!(a.finish().unwrap_err().contains("unexpected argument '7'"));
        assert_eq!(args("").positional::<i64>(), Ok(None));
    }

    #[test]
    fn an_optional_value_may_be_left_out() {
        let opt = |line: &str| args(line).optional_value::<f64>("--assert-compression");
        assert_eq!(opt(""), Ok(None));
        assert_eq!(opt("--assert-compression"), Ok(Some(None)));
        assert_eq!(opt("--assert-compression 5"), Ok(Some(Some(5.0))));
        assert!(opt("--assert-compression five").is_err());
        let mut a = args("--assert-compression --other");
        assert_eq!(
            a.optional_value::<f64>("--assert-compression"),
            Ok(Some(None))
        );
        assert!(a.finish().is_err());
    }
}
