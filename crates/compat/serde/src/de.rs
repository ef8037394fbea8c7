//! The JSON cursor every [`Deserialize`](crate::Deserialize) impl reads
//! from: typed values are decoded straight from the text, with no
//! intermediate [`Value`] tree.
//!
//! A [`Reader`] walks one JSON document. Scalars come out as `bool`,
//! [`Number`] or a borrowed string (owned only when it had escapes);
//! containers are stepped through with [`Reader::begin_array`] /
//! [`Reader::next_element`] and [`Reader::begin_object`] /
//! [`Reader::next_key`]; [`Reader::skip_value`] validates and discards
//! whatever a type does not read. Positions only ever advance past ASCII
//! bytes or whole runs ending before an ASCII delimiter, so `pos` always
//! sits on a char boundary and slices of the text never need UTF-8
//! checking again.

use crate::{Deserialize, Error, Map, Number, Value};
use std::borrow::Cow;

/// The deepest array/object nesting a [`Reader`] accepts. Far above any
/// document the workspace writes (forests are flat node vectors, store
/// entries nest fewer than 16 levels) and far below the depth at which
/// recursive decoding would exhaust a default thread stack.
pub const MAX_DEPTH: usize = 128;

/// A forward-only cursor over one JSON document.
pub struct Reader<'a> {
    text: &'a str,
    pos: usize,
    /// Open arrays and objects.
    depth: usize,
    /// Set by `begin_*` until the container's first `next_*` call: the
    /// next element or key is not preceded by a comma. Nothing else runs
    /// between the two calls, so one flag serves every nesting level.
    fresh: bool,
}

impl<'a> Reader<'a> {
    /// A cursor at the start of `text`.
    pub fn new(text: &'a str) -> Self {
        Reader {
            text,
            pos: 0,
            depth: 0,
            fresh: false,
        }
    }

    /// An error at the current byte offset.
    pub fn error(&self, msg: &str) -> Error {
        Error::custom(format!("{msg} at byte {}", self.pos))
    }

    /// Accept only whitespace after the document.
    pub fn finish(mut self) -> Result<(), Error> {
        self.skip_ws();
        if self.pos == self.text.len() {
            Ok(())
        } else {
            Err(self.error("trailing characters after JSON value"))
        }
    }

    #[inline]
    fn bytes(&self) -> &'a [u8] {
        self.text.as_bytes()
    }

    #[inline]
    fn peek(&self) -> Option<u8> {
        self.bytes().get(self.pos).copied()
    }

    #[inline]
    fn skip_ws(&mut self) {
        while matches!(self.peek(), Some(b' ' | b'\t' | b'\n' | b'\r')) {
            self.pos += 1;
        }
    }

    /// The first byte of the next token, without consuming it.
    #[inline]
    fn peek_token(&mut self) -> Option<u8> {
        self.skip_ws();
        self.peek()
    }

    #[inline]
    fn expect(&mut self, b: u8) -> Result<(), Error> {
        if self.peek() == Some(b) {
            self.pos += 1;
            Ok(())
        } else {
            Err(self.error(&format!("expected `{}`", b as char)))
        }
    }

    #[inline]
    fn eat_keyword(&mut self, word: &str) -> bool {
        if self.bytes()[self.pos..].starts_with(word.as_bytes()) {
            self.pos += word.len();
            true
        } else {
            false
        }
    }

    /// Consume a `null` if one comes next.
    #[inline]
    pub fn eat_null(&mut self) -> bool {
        self.skip_ws();
        self.eat_keyword("null")
    }

    /// Read `null`.
    pub fn parse_null(&mut self) -> Result<(), Error> {
        if self.eat_null() {
            Ok(())
        } else {
            Err(self.error("expected null"))
        }
    }

    /// Read `true` or `false`.
    pub fn parse_bool(&mut self) -> Result<bool, Error> {
        self.skip_ws();
        if self.eat_keyword("true") {
            Ok(true)
        } else if self.eat_keyword("false") {
            Ok(false)
        } else {
            Err(self.error("expected bool"))
        }
    }

    /// Read a number: integers stay exact, anything with a fraction or
    /// an exponent is an `f64`.
    #[inline]
    pub fn parse_number(&mut self) -> Result<Number, Error> {
        self.skip_ws();
        let start = self.pos;
        let negative = self.peek() == Some(b'-');
        if negative {
            self.pos += 1;
        }
        // Accumulate the leading digits as they are scanned; `None` once
        // they overflow a `u64`.
        let mut digits = Some(0u64);
        while let Some(d @ b'0'..=b'9') = self.peek() {
            digits = digits
                .and_then(|v| v.checked_mul(10))
                .and_then(|v| v.checked_add(u64::from(d - b'0')));
            self.pos += 1;
        }
        let mut is_float = false;
        while let Some(b'0'..=b'9' | b'.' | b'e' | b'E' | b'+' | b'-') = self.peek() {
            is_float = true;
            self.pos += 1;
        }
        let text = &self.text[start..self.pos];
        if text.is_empty() || text == "-" {
            return Err(self.error("invalid number"));
        }
        match (is_float, negative, digits) {
            (false, false, Some(v)) => return Ok(Number::from_u64(v)),
            (false, true, Some(0)) => return Ok(Number::from_u64(0)),
            (false, true, Some(v)) if v <= i64::MIN.unsigned_abs() => {
                return Ok(Number::from_i64(0i64.wrapping_sub_unsigned(v)));
            }
            // Fractions, exponents and integers too wide to keep exact.
            _ => {}
        }
        text.parse::<f64>()
            .map(Number::from_f64)
            .map_err(|_| self.error("invalid number"))
    }

    /// Read a string, borrowed from the text unless it had escapes.
    #[inline]
    pub fn parse_str(&mut self) -> Result<Cow<'a, str>, Error> {
        self.skip_ws();
        self.expect(b'"')?;
        let text = self.text;
        let mut owned: Option<String> = None;
        loop {
            // Take the run up to the next quote or backslash as one
            // slice; raw control characters pass through.
            let start = self.pos;
            let run = self.bytes()[start..]
                .iter()
                .position(|&b| b == b'"' || b == b'\\')
                .unwrap_or(text.len() - start);
            self.pos += run;
            let slice = &text[start..self.pos];
            match self.peek() {
                None => return Err(self.error("unterminated string")),
                Some(b'"') => {
                    self.pos += 1;
                    return Ok(match owned {
                        None => Cow::Borrowed(slice),
                        Some(mut out) => {
                            out.push_str(slice);
                            Cow::Owned(out)
                        }
                    });
                }
                // A backslash: the only other byte a run stops at.
                Some(_) => {
                    self.pos += 1;
                    let esc = self
                        .peek()
                        .ok_or_else(|| self.error("unterminated escape"))?;
                    self.pos += 1;
                    let c = match esc {
                        b'"' => '"',
                        b'\\' => '\\',
                        b'/' => '/',
                        b'n' => '\n',
                        b'r' => '\r',
                        b't' => '\t',
                        b'b' => '\u{8}',
                        b'f' => '\u{c}',
                        b'u' => self.unicode_escape()?,
                        _ => return Err(self.error("invalid escape")),
                    };
                    let out = owned.get_or_insert_with(String::new);
                    out.push_str(slice);
                    out.push(c);
                }
            }
        }
    }

    fn hex4(&mut self) -> Result<u32, Error> {
        let end = self.pos + 4;
        if end > self.text.len() {
            return Err(self.error("truncated \\u escape"));
        }
        let hex = std::str::from_utf8(&self.bytes()[self.pos..end])
            .map_err(|_| self.error("invalid \\u escape"))?;
        let code = u32::from_str_radix(hex, 16).map_err(|_| self.error("invalid \\u escape"))?;
        self.pos = end;
        Ok(code)
    }

    fn unicode_escape(&mut self) -> Result<char, Error> {
        let hi = self.hex4()?;
        if (0xD800..0xDC00).contains(&hi) {
            // High surrogate: must pair with a following \uXXXX low half.
            if !self.eat_keyword("\\u") {
                return Err(self.error("unpaired surrogate"));
            }
            let lo = self.hex4()?;
            if !(0xDC00..0xE000).contains(&lo) {
                return Err(self.error("invalid low surrogate"));
            }
            let code = 0x10000 + ((hi - 0xD800) << 10) + (lo - 0xDC00);
            char::from_u32(code).ok_or_else(|| self.error("invalid surrogate pair"))
        } else if (0xDC00..0xE000).contains(&hi) {
            Err(self.error("unpaired low surrogate"))
        } else {
            char::from_u32(hi).ok_or_else(|| self.error("invalid \\u escape"))
        }
    }

    #[inline]
    fn open(&mut self, delim: u8) -> Result<(), Error> {
        self.skip_ws();
        self.expect(delim)?;
        if self.depth == MAX_DEPTH {
            return Err(self.error(&format!("nesting deeper than {MAX_DEPTH} levels")));
        }
        self.depth += 1;
        self.fresh = true;
        Ok(())
    }

    /// Step past the separator before the next member of the open
    /// container. `false` (with the container closed) at `close`.
    #[inline]
    fn next_member(&mut self, close: u8) -> Result<bool, Error> {
        self.skip_ws();
        if self.peek() == Some(close) {
            self.pos += 1;
            self.depth -= 1;
            self.fresh = false;
            return Ok(false);
        }
        if std::mem::take(&mut self.fresh) {
            return Ok(true);
        }
        match self.peek() {
            Some(b',') => {
                self.pos += 1;
                Ok(true)
            }
            _ => Err(self.error(&format!("expected `,` or `{}`", close as char))),
        }
    }

    /// Open an array; step through it with [`Reader::next_element`].
    #[inline]
    pub fn begin_array(&mut self) -> Result<(), Error> {
        self.open(b'[')
    }

    /// `true` when another element follows (read it next), `false` once
    /// the array has closed.
    #[inline]
    pub fn next_element(&mut self) -> Result<bool, Error> {
        self.next_member(b']')
    }

    /// Open an object; step through it with [`Reader::next_key`].
    #[inline]
    pub fn begin_object(&mut self) -> Result<(), Error> {
        self.open(b'{')
    }

    /// The next key with its `:` consumed (read the value next), or
    /// `None` once the object has closed.
    #[inline]
    pub fn next_key(&mut self) -> Result<Option<Cow<'a, str>>, Error> {
        if !self.next_member(b'}')? {
            return Ok(None);
        }
        let key = self.parse_str()?;
        self.skip_ws();
        self.expect(b':')?;
        Ok(Some(key))
    }

    /// Element `index` of an array known to hold `len`.
    #[inline]
    pub fn element<T: Deserialize>(&mut self, index: usize, len: usize) -> Result<T, Error> {
        if !self.next_element()? {
            return Err(self.error(&format!("expected {len} elements, got {index}")));
        }
        T::deserialize(self)
    }

    /// Close an array whose `len` elements were all read.
    #[inline]
    pub fn end_array(&mut self, len: usize) -> Result<(), Error> {
        if self.next_element()? {
            return Err(self.error(&format!("expected {len} elements, got more")));
        }
        Ok(())
    }

    /// Open an externally tagged enum: a unit variant's name as a string
    /// (`false`), or a single-entry `{"Variant": payload}` object
    /// (`true`), positioned at the payload. Finish the object with
    /// [`Reader::end_enum`].
    pub fn begin_enum(&mut self) -> Result<(Cow<'a, str>, bool), Error> {
        match self.peek_token() {
            Some(b'"') => Ok((self.parse_str()?, false)),
            Some(b'{') => {
                self.begin_object()?;
                match self.next_key()? {
                    Some(tag) => Ok((tag, true)),
                    None => Err(self.error("expected a single-entry object for an enum")),
                }
            }
            _ => Err(self.error("expected an enum variant")),
        }
    }

    /// Close a `{"Variant": payload}` object: no second entry may follow.
    pub fn end_enum(&mut self) -> Result<(), Error> {
        match self.next_key()? {
            None => Ok(()),
            Some(_) => Err(self.error("expected a single-entry object for an enum")),
        }
    }

    /// Validate and discard the next value.
    pub fn skip_value(&mut self) -> Result<(), Error> {
        match self.peek_token() {
            Some(b'{') => {
                self.begin_object()?;
                while self.next_key()?.is_some() {
                    self.skip_value()?;
                }
            }
            Some(b'[') => {
                self.begin_array()?;
                while self.next_element()? {
                    self.skip_value()?;
                }
            }
            Some(b'"') => {
                self.parse_str()?;
            }
            Some(b'-' | b'0'..=b'9') => {
                self.parse_number()?;
            }
            Some(b't' | b'f') => {
                self.parse_bool()?;
            }
            Some(b'n') => self.parse_null()?,
            _ => return Err(self.error("expected a JSON value")),
        }
        Ok(())
    }
}

impl Deserialize for Value {
    fn deserialize(r: &mut Reader<'_>) -> Result<Self, Error> {
        Ok(match r.peek_token() {
            Some(b'{') => {
                r.begin_object()?;
                let mut map = Map::new();
                while let Some(key) = r.next_key()? {
                    let value = Value::deserialize(r)?;
                    map.insert(key.into_owned(), value);
                }
                Value::Object(map)
            }
            Some(b'[') => {
                r.begin_array()?;
                let mut items = Vec::new();
                while r.next_element()? {
                    items.push(Value::deserialize(r)?);
                }
                Value::Array(items)
            }
            Some(b'"') => Value::String(r.parse_str()?.into_owned()),
            Some(b'-' | b'0'..=b'9') => Value::Number(r.parse_number()?),
            Some(b't' | b'f') => Value::Bool(r.parse_bool()?),
            Some(b'n') if r.eat_null() => Value::Null,
            _ => return Err(r.error("expected a JSON value")),
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn read<T: Deserialize>(text: &str) -> Result<T, Error> {
        let mut r = Reader::new(text);
        let v = T::deserialize(&mut r)?;
        r.finish()?;
        Ok(v)
    }

    #[test]
    fn containers_step_and_reject_bad_separators() {
        assert_eq!(read::<Vec<u8>>(" [ 1 , 2,3 ] ").unwrap(), vec![1, 2, 3]);
        assert_eq!(read::<Vec<Vec<u8>>>("[[],[1],[]]").unwrap().len(), 3);
        for bad in ["[1 2]", "[,1]", "[1,]", "[[] 1]", "[1", "[1}"] {
            assert!(read::<Vec<Value>>(bad).is_err(), "accepted {bad}");
        }
        for bad in [
            r#"{"a" 1}"#,
            r#"{"a":1,}"#,
            r#"{,"a":1}"#,
            r#"{"a":1 "b":2}"#,
        ] {
            assert!(read::<Value>(bad).is_err(), "accepted {bad}");
        }
    }

    #[test]
    fn strings_borrow_unless_escaped() {
        let mut r = Reader::new(r#""plain" "a\nb""#);
        assert!(matches!(r.parse_str().unwrap(), Cow::Borrowed("plain")));
        match r.parse_str().unwrap() {
            Cow::Owned(s) => assert_eq!(s, "a\nb"),
            Cow::Borrowed(s) => panic!("escaped string borrowed: {s:?}"),
        }
    }

    #[test]
    fn skip_value_validates_what_it_skips() {
        let mut r = Reader::new(r#"{"a":[1,{"b":null}],"c":"A"} 7"#);
        r.skip_value().unwrap();
        assert_eq!(r.parse_number().unwrap(), Number::from_u64(7));
        for bad in [r#"{"a":[1,}"#, r#""\q""#, "nul", "tru", "-"] {
            assert!(Reader::new(bad).skip_value().is_err(), "skipped {bad}");
        }
    }

    #[test]
    fn nesting_past_the_cap_is_an_error() {
        let ok = format!("{}{}", "[".repeat(MAX_DEPTH), "]".repeat(MAX_DEPTH));
        assert!(read::<Value>(&ok).is_ok());
        let deep = format!("{}{}", "[".repeat(MAX_DEPTH + 1), "]".repeat(MAX_DEPTH + 1));
        let e = read::<Value>(&deep).unwrap_err();
        assert!(e.to_string().contains("nesting deeper than"), "{e}");
        assert!(Reader::new(&deep).skip_value().is_err());
    }
}
