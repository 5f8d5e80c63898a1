//! The workspace's zero-dependency JSON layer: one value type ([`Json`]),
//! a deterministic renderer ([`Json::render`], [`Json::render_pretty`]),
//! an [`ObjectWriter`] that streams the same bytes for an object of fixed
//! shape into any `fmt::Write` sink without building the tree, a pull
//! [`Reader`] over JSON text (the one lexer and grammar), and [`parse`],
//! which builds a tree with it.
//!
//! Every document the system writes or reads passes through it: exported
//! Chrome traces, the on-disk artifact store, the serve wire protocol (one
//! document per line) and the `BENCH_*.json` / `BENCH_dse-*.json` reports.
//! Artifact files and wire lines arrive from outside the process, so the
//! parser guarantees, for any input:
//!
//! * **linear time** — each input byte is examined a bounded number of
//!   times; a string's runs of plain text are copied as whole slices, and
//!   no step rescans the rest of the document, so a multi-megabyte
//!   artifact or wire line costs time proportional to its length;
//! * **bounded depth** — arrays/objects nested deeper than [`MAX_DEPTH`]
//!   are an `Err`, never a stack overflow;
//! * **no panic** — malformed input returns an `Err` naming a byte offset.
//!
//! Numbers become `f64` (callers that need every `u64` store decimal
//! strings); strings accept every JSON escape, including UTF-16 surrogate
//! pairs. Rendering is byte-stable: one value always yields the same text.
//!
//! Every reader also decodes its fields here, so the rule for a field is
//! written once: the required-field accessors ([`Json::field`],
//! [`Json::num_field`], [`Json::count_field`], [`Json::decimal_field`],
//! [`Json::str_field`], [`Json::bool_field`], [`Json::arr_field`]) and
//! [`Json::optional`] for an absent-or-`null` field. Integers travel in
//! one of two wire forms: a *count* is a JSON number holding an exact
//! integer in `[0, 2^53)` ([`Json::count`], [`exact_u64`]), narrowed with
//! `try_from` to the reader's type; any other `u64` is a *decimal*
//! string ([`Json::decimal`]). A rejected field comes back as a message
//! naming it, built only on failure.
//!
//! A reader that knows its document's shape can skip the tree: the
//! [`Reader`] reads members in a fixed order ([`Reader::field`]) and
//! decodes each value in place with the same rules and messages
//! ([`Reader::count`], [`Reader::decimal`], [`Reader::str`], ...). The
//! artifact store decodes its files this way.

use std::borrow::Cow;
use std::fmt;

/// A parsed JSON value.
#[derive(Debug, Clone, PartialEq)]
pub enum Json {
    /// `null`
    Null,
    /// `true` / `false`
    Bool(bool),
    /// Any number, as `f64`.
    Num(f64),
    /// A string.
    Str(String),
    /// An array.
    Arr(Vec<Json>),
    /// An object; insertion order preserved, duplicate keys kept.
    Obj(Vec<(String, Json)>),
}

impl Json {
    /// Object field lookup (first match).
    pub fn get(&self, key: &str) -> Option<&Json> {
        match self {
            Json::Obj(fields) => fields.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    /// The array elements, if this is an array.
    pub fn as_arr(&self) -> Option<&[Json]> {
        match self {
            Json::Arr(v) => Some(v),
            _ => None,
        }
    }

    /// The number, if this is a number.
    pub fn as_num(&self) -> Option<f64> {
        match self {
            Json::Num(n) => Some(*n),
            _ => None,
        }
    }

    /// The number, if it is an exact count ([`exact_u64`]).
    pub fn as_u64(&self) -> Option<u64> {
        self.as_num().and_then(exact_u64)
    }

    /// The string, if this is a string.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Json::Str(s) => Some(s),
            _ => None,
        }
    }

    /// A count: [`Json::Num`] of `n`, the wire form [`Json::to_count`]
    /// decodes.
    pub fn count(n: usize) -> Json {
        Json::Num(n as f64)
    }

    /// A `u64` as a decimal string, the wire form [`Json::to_decimal`]
    /// decodes: `f64` numbers cannot carry every `u64`.
    pub fn decimal(n: u64) -> Json {
        Json::Str(n.to_string())
    }

    /// This value as a count narrowed to `T`: an exact integer in
    /// `[0, 2^53)` that `T` holds. `what` names the value in the message.
    ///
    /// # Errors
    ///
    /// A non-number, a fractional, negative or too-large number, or one
    /// `T` cannot hold.
    pub fn to_count<T: TryFrom<u64>>(&self, what: &str) -> Result<T, String> {
        count_of(self.as_num(), what)
    }

    /// This value as a `u64` carried as a decimal string.
    ///
    /// # Errors
    ///
    /// Anything but a string of decimal digits that fits `u64`.
    pub fn to_decimal(&self, what: &str) -> Result<u64, String> {
        decimal_of(self.as_str(), what)
    }

    /// The required object field `key`; `null` is a present value.
    ///
    /// # Errors
    ///
    /// The field is absent (or `self` is not an object).
    pub fn field(&self, key: &str) -> Result<&Json, String> {
        self.get(key)
            .ok_or_else(|| format!("missing field `{key}`"))
    }

    /// An optional field: `Ok(None)` when `key` is absent or `null`,
    /// otherwise `decode(self, key)` — one of the `*_field` accessors.
    ///
    /// # Errors
    ///
    /// Whatever `decode` rejects.
    pub fn optional<'j, T>(
        &'j self,
        key: &str,
        decode: impl FnOnce(&'j Json, &str) -> Result<T, String>,
    ) -> Result<Option<T>, String> {
        match self.get(key) {
            None | Some(Json::Null) => Ok(None),
            Some(_) => decode(self, key).map(Some),
        }
    }

    /// The required number field `key`.
    ///
    /// # Errors
    ///
    /// The field is absent or not a number.
    pub fn num_field(&self, key: &str) -> Result<f64, String> {
        self.field(key)?
            .as_num()
            .ok_or_else(|| format!("`{key}` is not a number"))
    }

    /// The required count field `key`, narrowed to `T` ([`Json::to_count`]).
    ///
    /// # Errors
    ///
    /// The field is absent or not a count that `T` holds.
    pub fn count_field<T: TryFrom<u64>>(&self, key: &str) -> Result<T, String> {
        self.field(key)?.to_count(key)
    }

    /// The required decimal-string `u64` field `key` ([`Json::to_decimal`]).
    ///
    /// # Errors
    ///
    /// The field is absent or not a decimal `u64` string.
    pub fn decimal_field(&self, key: &str) -> Result<u64, String> {
        self.field(key)?.to_decimal(key)
    }

    /// The required string field `key`.
    ///
    /// # Errors
    ///
    /// The field is absent or not a string.
    pub fn str_field(&self, key: &str) -> Result<&str, String> {
        self.field(key)?
            .as_str()
            .ok_or_else(|| format!("`{key}` is not a string"))
    }

    /// The required boolean field `key`.
    ///
    /// # Errors
    ///
    /// The field is absent or not `true`/`false`.
    pub fn bool_field(&self, key: &str) -> Result<bool, String> {
        match self.field(key)? {
            Json::Bool(b) => Ok(*b),
            _ => Err(format!("`{key}` is not a bool")),
        }
    }

    /// The required array field `key`.
    ///
    /// # Errors
    ///
    /// The field is absent or not an array.
    pub fn arr_field(&self, key: &str) -> Result<&[Json], String> {
        self.field(key)?
            .as_arr()
            .ok_or_else(|| format!("`{key}` is not an array"))
    }

    /// Renders compact JSON text. Deterministic for a fixed value:
    /// object fields keep insertion order, numbers format integrally
    /// when integral (`3` not `3.0`) and via shortest-round-trip `{:?}`
    /// otherwise. Non-finite numbers (which JSON cannot express) render
    /// as `null`.
    pub fn render(&self) -> String {
        let mut out = String::new();
        self.write(&mut out, None, 0)
            .expect("writing to a String cannot fail");
        out
    }

    /// Renders indented JSON text (two spaces per level); same value
    /// conventions as [`Json::render`].
    pub fn render_pretty(&self) -> String {
        let mut out = String::new();
        self.write(&mut out, Some(2), 0)
            .expect("writing to a String cannot fail");
        out
    }

    fn write<W: fmt::Write>(
        &self,
        out: &mut W,
        indent: Option<usize>,
        depth: usize,
    ) -> fmt::Result {
        match self {
            Json::Null => out.write_str("null"),
            Json::Bool(b) => out.write_str(if *b { "true" } else { "false" }),
            Json::Num(n) => write_num(out, *n),
            Json::Str(s) => write_escaped(out, s),
            Json::Arr(items) => {
                if items.is_empty() {
                    return out.write_str("[]");
                }
                out.write_char('[')?;
                for (i, item) in items.iter().enumerate() {
                    if i > 0 {
                        out.write_char(',')?;
                    }
                    newline(out, indent, depth + 1)?;
                    item.write(out, indent, depth + 1)?;
                }
                newline(out, indent, depth)?;
                out.write_char(']')
            }
            Json::Obj(fields) => {
                if fields.is_empty() {
                    return out.write_str("{}");
                }
                out.write_char('{')?;
                for (i, (k, v)) in fields.iter().enumerate() {
                    if i > 0 {
                        out.write_char(',')?;
                    }
                    newline(out, indent, depth + 1)?;
                    write_escaped(out, k)?;
                    out.write_char(':')?;
                    if indent.is_some() {
                        out.write_char(' ')?;
                    }
                    v.write(out, indent, depth + 1)?;
                }
                newline(out, indent, depth)?;
                out.write_char('}')
            }
        }
    }
}

/// 2^53: below it `f64` holds every integer exactly.
const EXACT_INT_LIMIT: f64 = 9_007_199_254_740_992.0;

/// `n` as an exact count: an integer in `[0, 2^53)`, the range where
/// `f64` holds every integer exactly. A fractional, negative, larger or
/// non-finite number is `None` rather than a silently truncated or
/// saturated count. Every count the system reads passes this one rule.
pub fn exact_u64(n: f64) -> Option<u64> {
    (n.fract() == 0.0 && (0.0..EXACT_INT_LIMIT).contains(&n)).then_some(n as u64)
}

/// The count rule of [`Json::to_count`] and [`Reader::count`], over a
/// number (`None`: the value was not one).
fn count_of<T: TryFrom<u64>>(n: Option<f64>, what: &str) -> Result<T, String> {
    let n = n.ok_or_else(|| format!("`{what}` is not a number"))?;
    let exact = exact_u64(n).ok_or_else(|| {
        format!("`{what}` = {n} is not a valid index or count (an integer in [0, 2^53))")
    })?;
    T::try_from(exact)
        .map_err(|_| format!("`{what}` = {exact} exceeds {}", std::any::type_name::<T>()))
}

/// The decimal rule of [`Json::to_decimal`] and [`Reader::decimal`], over
/// a string (`None`: the value was not one).
fn decimal_of(s: Option<&str>, what: &str) -> Result<u64, String> {
    s.and_then(|s| s.parse().ok())
        .ok_or_else(|| format!("`{what}` is not a decimal u64 string"))
}

/// Builds a [`Json::Obj`] from `(key, value)` pairs, preserving order.
pub fn obj(fields: impl IntoIterator<Item = (&'static str, Json)>) -> Json {
    Json::Obj(
        fields
            .into_iter()
            .map(|(k, v)| (k.to_string(), v))
            .collect(),
    )
}

/// The regression gate of every committed document (`BENCH_<net>.json`
/// and `BENCH_dse-<suite>.json` alike): determinism is the gate, so a
/// fresh render must equal the `baseline` text byte for byte. On a
/// mismatch the message names the first differing JSON path with both
/// values, the re-run's first.
///
/// # Errors
///
/// Returns the first difference, a parse error of either document, or
/// renderer drift when both parse to equal values.
pub fn check_document(baseline: &str, fresh: &str) -> Result<(), String> {
    if baseline == fresh {
        return Ok(());
    }
    match first_difference(&parse(fresh)?, &parse(baseline)?) {
        Some(diff) => Err(format!("re-run diverged — {diff}")),
        None => Err("re-run is semantically equal but not byte-identical \
             (formatting drift in the renderer?)"
            .to_string()),
    }
}

/// Walks two JSON documents in parallel and returns the path and values
/// of the first structural difference (`None` when identical) — the
/// diagnostic [`check_document`] reports.
pub fn first_difference(a: &Json, b: &Json) -> Option<String> {
    diff_at("$", a, b)
}

fn diff_at(path: &str, a: &Json, b: &Json) -> Option<String> {
    match (a, b) {
        (Json::Obj(x), Json::Obj(y)) => {
            for ((ka, va), (kb, vb)) in x.iter().zip(y) {
                if ka != kb {
                    return Some(format!("{path}: key `{ka}` vs `{kb}`"));
                }
                if let Some(d) = diff_at(&format!("{path}.{ka}"), va, vb) {
                    return Some(d);
                }
            }
            (x.len() != y.len()).then(|| format!("{path}: {} field(s) vs {}", x.len(), y.len()))
        }
        (Json::Arr(x), Json::Arr(y)) => {
            for (i, (va, vb)) in x.iter().zip(y).enumerate() {
                if let Some(d) = diff_at(&format!("{path}[{i}]"), va, vb) {
                    return Some(d);
                }
            }
            (x.len() != y.len()).then(|| format!("{path}: {} element(s) vs {}", x.len(), y.len()))
        }
        _ => (a != b).then(|| format!("{path}: {} vs {}", a.render(), b.render())),
    }
}

/// Pretty mode only: ends the line and indents to nesting level `depth`.
fn newline<W: fmt::Write>(out: &mut W, indent: Option<usize>, depth: usize) -> fmt::Result {
    if let Some(w) = indent {
        const SPACES: &str = "                                ";
        out.write_char('\n')?;
        let mut left = w * depth;
        while left > 0 {
            let run = left.min(SPACES.len());
            out.write_str(&SPACES[..run])?;
            left -= run;
        }
    }
    Ok(())
}

/// Writes a number the way [`Json::render`] does: integral `f64`s in
/// the exactly-representable range print without a fractional part,
/// everything else via shortest-round-trip `{:?}`; non-finite → `null`.
/// The one number rule: the renderer, streamed encoders
/// ([`ObjectWriter`]) and design-space labels all write through it.
///
/// # Errors
///
/// Only what the sink returns.
pub fn write_num<W: fmt::Write>(out: &mut W, n: f64) -> fmt::Result {
    if !n.is_finite() {
        return out.write_str("null");
    }
    // Below 2^53 every integer is exactly representable, so printing
    // without a fraction loses nothing.
    if n.fract() == 0.0 && n.abs() < EXACT_INT_LIMIT {
        write_int(out, n as i64)
    } else {
        write!(out, "{n:?}")
    }
}

/// Writes `n` in decimal without the formatting machinery: the digits
/// fill a stack buffer from its end, then go out as one slice.
fn write_int<W: fmt::Write>(out: &mut W, n: i64) -> fmt::Result {
    let mut buf = [0u8; 20];
    let mut at = buf.len();
    let mut rest = n.unsigned_abs();
    loop {
        at -= 1;
        buf[at] = b'0' + (rest % 10) as u8;
        rest /= 10;
        if rest == 0 {
            break;
        }
    }
    if n < 0 {
        at -= 1;
        buf[at] = b'-';
    }
    out.write_str(std::str::from_utf8(&buf[at..]).map_err(|_| fmt::Error)?)
}

/// Streams one compact JSON object into a sink: the bytes
/// [`Json::render`] writes for an object with the same members, without
/// building the tree. A document with a fixed shape (a design point's
/// canonical form) writes itself through this and hashes or stores the
/// text; a caller that needs the tree parses that text.
///
/// ```
/// use scaledeep_trace::json::{obj, Json, ObjectWriter};
/// let mut text = String::new();
/// let mut o = ObjectWriter::open(&mut text).unwrap();
/// o.str("kind", "conv").unwrap();
/// o.object("at", |o| o.num("col", 3.0)).unwrap();
/// o.close().unwrap();
/// let tree = obj([
///     ("kind", Json::Str("conv".into())),
///     ("at", obj([("col", Json::Num(3.0))])),
/// ]);
/// assert_eq!(text, tree.render());
/// ```
#[derive(Debug)]
pub struct ObjectWriter<'w, W: fmt::Write> {
    out: &'w mut W,
    empty: bool,
}

impl<'w, W: fmt::Write> ObjectWriter<'w, W> {
    /// Opens an object on `out`.
    ///
    /// # Errors
    ///
    /// Only what the sink returns.
    pub fn open(out: &'w mut W) -> Result<Self, fmt::Error> {
        out.write_char('{')?;
        Ok(Self { out, empty: true })
    }

    fn key(&mut self, key: &str) -> fmt::Result {
        if !std::mem::take(&mut self.empty) {
            self.out.write_char(',')?;
        }
        write_escaped(self.out, key)?;
        self.out.write_char(':')
    }

    /// A number member, written by [`write_num`].
    ///
    /// # Errors
    ///
    /// Only what the sink returns.
    pub fn num(&mut self, key: &str, n: f64) -> fmt::Result {
        self.key(key)?;
        write_num(self.out, n)
    }

    /// A count member: the bytes of [`Json::count`].
    ///
    /// # Errors
    ///
    /// Only what the sink returns.
    pub fn count(&mut self, key: &str, n: usize) -> fmt::Result {
        self.num(key, n as f64)
    }

    /// A string member.
    ///
    /// # Errors
    ///
    /// Only what the sink returns.
    pub fn str(&mut self, key: &str, s: &str) -> fmt::Result {
        self.key(key)?;
        write_escaped(self.out, s)
    }

    /// A nested object member, whose members `body` writes.
    ///
    /// # Errors
    ///
    /// Only what the sink (or `body`) returns.
    pub fn object(
        &mut self,
        key: &str,
        body: impl FnOnce(&mut ObjectWriter<'_, W>) -> fmt::Result,
    ) -> fmt::Result {
        self.key(key)?;
        let mut inner = ObjectWriter::open(self.out)?;
        body(&mut inner)?;
        inner.close()
    }

    /// Closes the object.
    ///
    /// # Errors
    ///
    /// Only what the sink returns.
    pub fn close(self) -> fmt::Result {
        self.out.write_char('}')
    }
}

/// Writes `s` as a quoted JSON string. Only ASCII bytes are ever escaped
/// and each is a whole UTF-8 scalar, so the text between two of them is
/// written as one slice.
fn write_escaped<W: fmt::Write>(out: &mut W, s: &str) -> fmt::Result {
    out.write_char('"')?;
    let mut plain = 0;
    for (i, b) in s.bytes().enumerate() {
        let esc = match b {
            b'"' => "\\\"",
            b'\\' => "\\\\",
            b'\n' => "\\n",
            b'\t' => "\\t",
            b'\r' => "\\r",
            0x08 => "\\b",
            0x0c => "\\f",
            0..0x20 => "", // the other controls: `\u00XX` below
            _ => continue,
        };
        out.write_str(&s[plain..i])?;
        if esc.is_empty() {
            write!(out, "\\u{b:04x}")?;
        } else {
            out.write_str(esc)?;
        }
        plain = i + 1;
    }
    out.write_str(&s[plain..])?;
    out.write_char('"')
}

/// Parses `text` into a [`Json`] value, in time linear in its length:
/// a [`Reader`] reads one [`Reader::value`] and then the end of input.
///
/// A `\uXXXX` escape takes exactly four hex digits. A high surrogate
/// escape followed by a low surrogate escape decodes to the one
/// supplementary-plane character they encode (`"\ud83d\ude00"` is 😀);
/// a surrogate escape without its partner, which no `String` can hold,
/// decodes to U+FFFD REPLACEMENT CHARACTER.
///
/// # Errors
///
/// Returns a byte-offset-annotated message on malformed input, trailing
/// garbage, or arrays/objects nested deeper than [`MAX_DEPTH`].
pub fn parse(text: &str) -> Result<Json, String> {
    let mut r = Reader::new(text);
    let v = r.value()?;
    r.finish()?;
    Ok(v)
}

/// The deepest array/object nesting a [`Reader`] accepts. The reader
/// recurses once per level, so the bound keeps hostile input (a wire line
/// or artifact file of a million `[`) from overflowing the thread's stack;
/// every document the system writes nests at most 6 levels.
pub const MAX_DEPTH: usize = 64;

/// A pull reader over JSON text: the one lexer and grammar of this layer.
///
/// [`parse`] builds a tree with [`Reader::value`]. A decoder that knows its
/// document's shape reads it in place instead, with no tree: it opens
/// objects and arrays with closures ([`Reader::object`], [`Reader::array`],
/// [`Reader::elements`]), names each member in document order
/// ([`Reader::field`], or [`Reader::key`] for a tagged variant), and reads
/// scalars with the same rules and messages as the tree accessors
/// ([`Reader::count`], [`Reader::decimal`], [`Reader::str`],
/// [`Reader::bool`], [`Reader::nullable`]). A value reader's message names
/// the last member key read. Every reader skips the whitespace before its
/// token. After an error the reader's position is unspecified: drop it.
///
/// `text` is only sliced between positions next to ASCII bytes, which are
/// always char boundaries.
pub struct Reader<'a> {
    text: &'a str,
    bytes: &'a [u8],
    pos: usize,
    depth: usize,
    /// The innermost open object has read no member yet.
    first: bool,
    /// The last member key read: the name in a value reader's message.
    key: Cow<'a, str>,
}

impl<'a> Reader<'a> {
    /// A reader at the start of `text`.
    pub fn new(text: &'a str) -> Self {
        Reader {
            text,
            bytes: text.as_bytes(),
            pos: 0,
            depth: 0,
            first: true,
            key: Cow::Borrowed("$"),
        }
    }

    /// Ends the document: only whitespace may follow what was read.
    ///
    /// # Errors
    ///
    /// Anything else left in the text.
    pub fn finish(mut self) -> Result<(), String> {
        self.skip_ws();
        if self.pos == self.bytes.len() {
            Ok(())
        } else {
            Err(format!("trailing garbage at byte {}", self.pos))
        }
    }

    /// The next value as a [`Json`] tree, whatever its type.
    ///
    /// # Errors
    ///
    /// Malformed text or nesting deeper than [`MAX_DEPTH`].
    pub fn value(&mut self) -> Result<Json, String> {
        self.skip_ws();
        match self.peek() {
            Some(b'n') => self.literal("null").map(|()| Json::Null),
            Some(b't' | b'f') => self.bool().map(Json::Bool),
            Some(b'"') => self.string().map(|s| Json::Str(s.into_owned())),
            Some(b'[') => self.array(Self::value).map(Json::Arr),
            Some(b'{') => self.object(|r| {
                let mut fields = Vec::new();
                while let Some(key) = r.next_key()? {
                    fields.push((key.into_owned(), r.value()?));
                }
                Ok(Json::Obj(fields))
            }),
            Some(b'-' | b'0'..=b'9') => self.number().map(Json::Num),
            _ => Err(format!("unexpected byte at {}", self.pos)),
        }
    }

    /// Reads an object: `members` reads its members in order (through
    /// [`Reader::field`] or [`Reader::key`]), and the object must end
    /// after them.
    ///
    /// # Errors
    ///
    /// A non-object, what `members` rejects, or a member left unread.
    pub fn object<T>(
        &mut self,
        members: impl FnOnce(&mut Self) -> Result<T, String>,
    ) -> Result<T, String> {
        self.open(b'{', "an object")?;
        let outer = std::mem::replace(&mut self.first, true);
        let value = members(self)?;
        if let Some(extra) = self.next_key()? {
            return Err(format!(
                "unexpected field `{extra}` before byte {}",
                self.pos
            ));
        }
        self.close();
        self.first = outer;
        Ok(value)
    }

    /// Reads the next member's key, which must be `key`, and its `:`; the
    /// caller then reads the value.
    ///
    /// # Errors
    ///
    /// Another key in its place, or the object's end.
    pub fn field(&mut self, key: &str) -> Result<&mut Self, String> {
        match self.next_key()? {
            Some(found) if found == key => {
                self.key = found;
                Ok(self)
            }
            Some(found) => Err(format!("expected field `{key}`, found `{found}`")),
            None => Err(format!("missing field `{key}`")),
        }
    }

    /// Reads the next member's key, whatever it is, and its `:`: the tag
    /// of a variant. `None` at the object's end.
    ///
    /// # Errors
    ///
    /// Malformed text.
    pub fn key(&mut self) -> Result<Option<&str>, String> {
        Ok(match self.next_key()? {
            Some(found) => {
                self.key = found;
                Some(&self.key)
            }
            None => None,
        })
    }

    /// Reads an array, one element per call of `item`.
    ///
    /// # Errors
    ///
    /// A non-array, or what `item` rejects.
    pub fn array<T>(
        &mut self,
        mut item: impl FnMut(&mut Self) -> Result<T, String>,
    ) -> Result<Vec<T>, String> {
        let mut out = Vec::new();
        self.elements(|r| {
            out.push(item(r)?);
            Ok(())
        })?;
        Ok(out)
    }

    /// Reads an array without collecting it: `item` reads each element.
    ///
    /// # Errors
    ///
    /// A non-array, or what `item` rejects.
    pub fn elements(
        &mut self,
        mut item: impl FnMut(&mut Self) -> Result<(), String>,
    ) -> Result<(), String> {
        self.open(b'[', "an array")?;
        self.skip_ws();
        if self.peek() != Some(b']') {
            loop {
                item(self)?;
                self.skip_ws();
                match self.peek() {
                    Some(b',') => self.pos += 1,
                    Some(b']') => break,
                    _ => return Err(format!("expected `,` or `]` at byte {}", self.pos)),
                }
            }
        }
        self.close();
        Ok(())
    }

    /// A count narrowed to `T`, by [`Json::to_count`]'s rule and message.
    ///
    /// # Errors
    ///
    /// A non-number, or a number that is not a count `T` holds.
    pub fn count<T: TryFrom<u64>>(&mut self) -> Result<T, String> {
        self.skip_ws();
        let n = match self.peek() {
            Some(b'-' | b'0'..=b'9') => Some(self.number()?),
            _ => None,
        };
        count_of(n, &self.key)
    }

    /// A `u64` carried as a decimal string, by [`Json::to_decimal`]'s rule
    /// and message.
    ///
    /// # Errors
    ///
    /// Anything but a string of decimal digits that fits `u64`.
    pub fn decimal(&mut self) -> Result<u64, String> {
        self.skip_ws();
        let s = match self.peek() {
            Some(b'"') => Some(self.string()?),
            _ => None,
        };
        decimal_of(s.as_deref(), &self.key)
    }

    /// A string, borrowed from the text when it has no escape.
    ///
    /// # Errors
    ///
    /// A non-string.
    pub fn str(&mut self) -> Result<Cow<'a, str>, String> {
        self.skip_ws();
        if self.peek() == Some(b'"') {
            self.string()
        } else {
            Err(format!("`{}` is not a string", self.key))
        }
    }

    /// `true` or `false`.
    ///
    /// # Errors
    ///
    /// Anything else.
    pub fn bool(&mut self) -> Result<bool, String> {
        self.skip_ws();
        match self.peek() {
            Some(b't') => self.literal("true").map(|()| true),
            Some(b'f') => self.literal("false").map(|()| false),
            _ => Err(format!("`{}` is not a bool", self.key)),
        }
    }

    /// `None` for `null`, otherwise what `value` reads.
    ///
    /// # Errors
    ///
    /// Whatever `value` rejects.
    pub fn nullable<T>(
        &mut self,
        value: impl FnOnce(&mut Self) -> Result<T, String>,
    ) -> Result<Option<T>, String> {
        self.skip_ws();
        if self.peek() == Some(b'n') {
            self.literal("null").map(|()| None)
        } else {
            value(self).map(Some)
        }
    }

    fn skip_ws(&mut self) {
        while let Some(b) = self.bytes.get(self.pos) {
            if matches!(b, b' ' | b'\t' | b'\n' | b'\r') {
                self.pos += 1;
            } else {
                break;
            }
        }
    }

    fn peek(&self) -> Option<u8> {
        self.bytes.get(self.pos).copied()
    }

    fn expect(&mut self, b: u8) -> Result<(), String> {
        if self.peek() == Some(b) {
            self.pos += 1;
            Ok(())
        } else {
            Err(format!("expected `{}` at byte {}", b as char, self.pos))
        }
    }

    fn literal(&mut self, lit: &str) -> Result<(), String> {
        if self.bytes[self.pos..].starts_with(lit.as_bytes()) {
            self.pos += lit.len();
            Ok(())
        } else {
            Err(format!("bad literal at byte {}", self.pos))
        }
    }

    /// Enters an array or object at its `bracket`, one level deeper.
    fn open(&mut self, bracket: u8, what: &str) -> Result<(), String> {
        self.skip_ws();
        if self.peek() != Some(bracket) {
            return Err(format!("`{}` is not {what}", self.key));
        }
        if self.depth == MAX_DEPTH {
            return Err(format!(
                "nesting deeper than {MAX_DEPTH} levels at byte {}",
                self.pos
            ));
        }
        self.pos += 1;
        self.depth += 1;
        Ok(())
    }

    /// Leaves an array or object at its closing bracket.
    fn close(&mut self) {
        self.pos += 1;
        self.depth -= 1;
    }

    /// The next member's key and its `:`, after the `,` that separates it
    /// from the one before; `None` at the object's closing `}`, which is
    /// left for [`Reader::object`].
    fn next_key(&mut self) -> Result<Option<Cow<'a, str>>, String> {
        self.skip_ws();
        match self.peek() {
            Some(b'}') => return Ok(None),
            _ if self.first => self.first = false,
            Some(b',') => {
                self.pos += 1;
                self.skip_ws();
            }
            _ => return Err(format!("expected `,` or `}}` at byte {}", self.pos)),
        }
        let key = self.string()?;
        self.skip_ws();
        self.expect(b':')?;
        Ok(Some(key))
    }

    fn string(&mut self) -> Result<Cow<'a, str>, String> {
        self.expect(b'"')?;
        // Built only once an escape shows up; until then the string is a
        // slice of the text.
        let mut owned: Option<String> = None;
        loop {
            // Everything up to the next `"` or `\` is literal text. Both
            // delimiters are ASCII, so the run ends on a char boundary of
            // the already-valid UTF-8 input and is taken as one slice.
            let run = self.bytes[self.pos..]
                .iter()
                .position(|&b| b == b'"' || b == b'\\')
                .ok_or("unterminated string")?;
            let plain = &self.text[self.pos..self.pos + run];
            self.pos += run;
            if self.bytes[self.pos] == b'"' {
                self.pos += 1;
                return Ok(match owned {
                    None => Cow::Borrowed(plain),
                    Some(mut out) => {
                        out.push_str(plain);
                        Cow::Owned(out)
                    }
                });
            }
            let out = owned.get_or_insert_with(String::new);
            out.push_str(plain);
            self.pos += 1;
            match self.peek() {
                Some(b'"') => out.push('"'),
                Some(b'\\') => out.push('\\'),
                Some(b'/') => out.push('/'),
                Some(b'n') => out.push('\n'),
                Some(b't') => out.push('\t'),
                Some(b'r') => out.push('\r'),
                Some(b'b') => out.push('\u{8}'),
                Some(b'f') => out.push('\u{c}'),
                Some(b'u') => {
                    self.pos += 1;
                    out.push(self.unicode_escape()?);
                    continue;
                }
                _ => return Err(format!("bad escape at byte {}", self.pos)),
            }
            self.pos += 1;
        }
    }

    /// Decodes the escape whose four hex digits start at `pos`, pairing a
    /// high surrogate with an immediately following `\u` low surrogate;
    /// an unpaired surrogate becomes U+FFFD.
    fn unicode_escape(&mut self) -> Result<char, String> {
        let hi = self.hex4()?;
        if (0xd800..0xdc00).contains(&hi) && self.bytes[self.pos..].starts_with(b"\\u") {
            let after_hi = self.pos;
            self.pos += 2;
            let lo = self.hex4()?;
            if (0xdc00..0xe000).contains(&lo) {
                let code = 0x10000 + ((hi - 0xd800) << 10) + (lo - 0xdc00);
                return Ok(char::from_u32(code).unwrap_or('\u{fffd}'));
            }
            // Not a partner: leave that escape to be decoded on its own.
            self.pos = after_hi;
        }
        Ok(char::from_u32(hi).unwrap_or('\u{fffd}'))
    }

    /// Reads exactly four hex digits (no sign, no shorter form).
    fn hex4(&mut self) -> Result<u32, String> {
        let digits = self
            .bytes
            .get(self.pos..self.pos + 4)
            .ok_or("truncated \\u escape")?;
        let mut code = 0;
        for &d in digits {
            let v = char::from(d)
                .to_digit(16)
                .ok_or_else(|| format!("bad \\u escape at byte {}", self.pos))?;
            code = code << 4 | v;
        }
        self.pos += 4;
        Ok(code)
    }

    fn number(&mut self) -> Result<f64, String> {
        let start = self.pos;
        if self.peek() == Some(b'-') {
            self.pos += 1;
        }
        while matches!(
            self.peek(),
            Some(b'0'..=b'9' | b'.' | b'e' | b'E' | b'+' | b'-')
        ) {
            self.pos += 1;
        }
        self.text[start..self.pos]
            .parse::<f64>()
            .map_err(|_| format!("bad number at byte {start}"))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn as_u64_accepts_only_exact_non_negative_integers() {
        let n = |text: &str| parse(text).unwrap().as_u64();
        assert_eq!(n("0"), Some(0));
        assert_eq!(n("42"), Some(42));
        assert_eq!(n("9007199254740991"), Some((1 << 53) - 1));
        assert_eq!(n("9007199254740992"), None);
        assert_eq!(n("5.5"), None);
        assert_eq!(n("-1"), None);
        assert_eq!(n("\"7\""), None);
    }

    #[test]
    fn parses_scalars() {
        assert_eq!(parse("null").unwrap(), Json::Null);
        assert_eq!(parse(" true ").unwrap(), Json::Bool(true));
        assert_eq!(parse("-2.5e2").unwrap(), Json::Num(-250.0));
        assert_eq!(parse("\"a\\nb\"").unwrap(), Json::Str("a\nb".into()));
    }

    #[test]
    fn parses_nested() {
        let v = parse(r#"{"a":[1,2,{"b":"x"}],"c":{}}"#).unwrap();
        let arr = v.get("a").unwrap().as_arr().unwrap();
        assert_eq!(arr.len(), 3);
        assert_eq!(arr[2].get("b").unwrap().as_str(), Some("x"));
        assert_eq!(v.get("c"), Some(&Json::Obj(vec![])));
    }

    #[test]
    fn rejects_garbage() {
        assert!(parse("").is_err());
        assert!(parse("{").is_err());
        assert!(parse("[1,]").is_err());
        assert!(parse("1 2").is_err());
        assert!(parse("\"unterminated").is_err());
        // Every proper prefix of a document using each construct is an
        // error, never a panic.
        let doc = r#"{"a":[1,-2.5e3,true,false,null],"s":"x\"\\\/\n\u00e9\ud83d\ude00é😀","o":{}}"#;
        for end in (0..doc.len()).filter(|&i| doc.is_char_boundary(i)) {
            assert!(parse(&doc[..end]).is_err(), "prefix of {end} bytes parsed");
        }
        assert!(parse(doc).is_ok());
    }

    #[test]
    fn nesting_is_bounded_without_overflowing_the_stack() {
        let nested = |n: usize| format!("{}{}", "[".repeat(n), "]".repeat(n));
        assert!(parse(&nested(MAX_DEPTH)).is_ok());
        let err = parse(&nested(MAX_DEPTH + 1)).unwrap_err();
        assert!(err.contains("nesting deeper than"), "{err}");
        assert!(parse(&"{\"a\":".repeat(MAX_DEPTH + 1)).is_err());
        // A million unclosed brackets on a default-sized thread stack.
        let hostile = "[".repeat(1_000_000);
        let parsed = std::thread::spawn(move || parse(&hostile).is_err())
            .join()
            .expect("parse must not abort the thread");
        assert!(parsed);
    }

    #[test]
    fn field_accessors_decode_and_name_what_they_reject() {
        let doc = parse(
            r#"{"n":2.5,"c":65536,"top":9007199254740991,"big":9007199254740992,
                "neg":-1,"d":"18446744073709551615","s":"x","b":true,"a":[1],"z":null}"#,
        )
        .unwrap();
        assert_eq!(doc.num_field("n"), Ok(2.5));
        assert_eq!(doc.count_field::<u32>("c"), Ok(65_536));
        assert_eq!(doc.count_field::<u64>("top"), Ok((1 << 53) - 1));
        assert_eq!(doc.decimal_field("d"), Ok(u64::MAX));
        assert_eq!(doc.str_field("s"), Ok("x"));
        assert_eq!(doc.bool_field("b"), Ok(true));
        assert_eq!(doc.arr_field("a").map(<[Json]>::len), Ok(1));
        assert_eq!(doc.field("z"), Ok(&Json::Null));
        assert_eq!(doc.optional("z", Json::count_field::<u8>), Ok(None));
        assert_eq!(doc.optional("gone", Json::str_field), Ok(None));
        assert_eq!(doc.optional("s", Json::str_field), Ok(Some("x")));

        let err = |r: Result<u64, String>| r.unwrap_err();
        assert_eq!(err(doc.count_field("gone")), "missing field `gone`");
        assert_eq!(err(doc.count_field("s")), "`s` is not a number");
        for key in ["n", "big", "neg"] {
            let e = err(doc.count_field(key));
            assert!(e.starts_with(&format!("`{key}` = ")), "{e}");
            assert!(e.ends_with("is not a valid index or count (an integer in [0, 2^53))"));
        }
        assert_eq!(
            doc.count_field::<u16>("c").unwrap_err(),
            "`c` = 65536 exceeds u16"
        );
        assert_eq!(
            err(doc.decimal_field("c")),
            "`c` is not a decimal u64 string"
        );
        assert_eq!(doc.str_field("b").unwrap_err(), "`b` is not a string");
        assert_eq!(doc.bool_field("z").unwrap_err(), "`z` is not a bool");
        assert_eq!(doc.arr_field("s").unwrap_err(), "`s` is not an array");
        assert_eq!(
            doc.optional("s", Json::bool_field).unwrap_err(),
            "`s` is not a bool"
        );
        // A non-object has no fields.
        assert!(Json::Num(1.0).field("n").is_err());
        assert_eq!(exact_u64(f64::NAN), None);
        assert_eq!(exact_u64(f64::INFINITY), None);
        // The two integer wire forms.
        assert_eq!(Json::count(42).render(), "42");
        assert_eq!(Json::decimal(u64::MAX).render(), "\"18446744073709551615\"");
    }

    #[test]
    fn reader_reads_fields_in_order_and_names_what_it_rejects() {
        let text = r#" { "c" : 7 , "d":"18446744073709551615", "s":"plain", "e":"a\nb",
            "b":false, "z":null, "o":{"t":1}, "a":[1, 2], "tag":{"ok":[]} } "#;
        let mut r = Reader::new(text);
        let read = r
            .object(|r| {
                let c: u8 = r.field("c")?.count()?;
                let d = r.field("d")?.decimal()?;
                let s = r.field("s")?.str()?;
                assert!(matches!(s, Cow::Borrowed("plain")), "no escape, no copy");
                let e = r.field("e")?.str()?.into_owned();
                let b = r.field("b")?.bool()?;
                let z = r.field("z")?.nullable(Reader::count::<u8>)?;
                let o = r
                    .field("o")?
                    .nullable(|r| r.object(|r| r.field("t")?.count::<u8>()))?;
                let a = r.field("a")?.array(Reader::count::<u16>)?;
                let tag = r.field("tag")?.object(|r| {
                    let ok = r.key()? == Some("ok");
                    r.elements(|_| Ok(()))?;
                    Ok(ok)
                })?;
                Ok((c, d, s, e, b, z, o, a, tag))
            })
            .unwrap();
        r.finish().unwrap();
        assert_eq!(
            read,
            (
                7,
                u64::MAX,
                Cow::Borrowed("plain"),
                "a\nb".to_string(),
                false,
                None,
                Some(1),
                vec![1, 2],
                true
            )
        );

        // Members are read in order: each reader names the expected and the
        // found key, and a member left unread is an error too.
        let fail = |text: &str, read: fn(&mut Reader) -> Result<u64, String>| {
            let mut r = Reader::new(text);
            r.object(read).and_then(|v| r.finish().map(|()| v))
        };
        let c = |r: &mut Reader| r.field("c")?.count();
        assert_eq!(fail(r#"{"c":1}"#, c), Ok(1));
        assert_eq!(
            fail(r#"{"d":1}"#, c),
            Err("expected field `c`, found `d`".into())
        );
        assert_eq!(fail("{}", c), Err("missing field `c`".into()));
        let extra = fail(r#"{"c":1,"x":2}"#, c).unwrap_err();
        assert!(extra.starts_with("unexpected field `x`"), "{extra}");
        assert!(fail(r#"{"c":1} 2"#, c)
            .unwrap_err()
            .contains("trailing garbage"));
        assert!(fail("[]", c).unwrap_err().contains("`$` is not an object"));
        // The value readers keep the tree accessors' messages, naming the
        // last key read.
        let text = r#"{"n":2.5,"s":"x","c":65536}"#;
        let doc = parse(text).unwrap();
        let at = |key: &str, read: fn(&mut Reader) -> Result<(), String>| {
            let mut r = Reader::new(text);
            r.object(|r| {
                for k in ["n", "s", "c"] {
                    r.field(k)?;
                    if k == key {
                        return read(r);
                    }
                    r.value()?;
                }
                Ok(())
            })
            .unwrap_err()
        };
        let err = |r: Result<u64, String>| r.unwrap_err();
        assert_eq!(
            at("n", |r| r.count::<u64>().map(drop)),
            err(doc.count_field("n"))
        );
        assert_eq!(
            at("s", |r| r.count::<u64>().map(drop)),
            err(doc.count_field("s"))
        );
        assert_eq!(
            at("c", |r| r.count::<u16>().map(drop)),
            doc.count_field::<u16>("c").unwrap_err()
        );
        assert_eq!(
            at("c", |r| r.decimal().map(drop)),
            err(doc.decimal_field("c"))
        );
        assert_eq!(
            at("c", |r| r.str().map(drop)),
            doc.str_field("c").unwrap_err()
        );
        assert_eq!(
            at("c", |r| r.bool().map(drop)),
            doc.bool_field("c").unwrap_err()
        );
        assert_eq!(
            at("c", |r| r.array(Reader::value).map(drop)),
            doc.arr_field("c").unwrap_err()
        );
    }

    #[test]
    fn committed_bench_documents_parse() {
        let root = concat!(env!("CARGO_MANIFEST_DIR"), "/../..");
        let mut parsed = 0;
        for entry in std::fs::read_dir(root).unwrap() {
            let path = entry.unwrap().path();
            let name = path.file_name().unwrap().to_string_lossy().into_owned();
            if name.starts_with("BENCH_") && name.ends_with(".json") {
                let text = std::fs::read_to_string(&path).unwrap();
                parse(&text).unwrap_or_else(|e| panic!("{name}: {e}"));
                parsed += 1;
            }
        }
        assert!(parsed >= 5, "found only {parsed} BENCH documents");
    }

    #[test]
    fn unicode_escapes() {
        let str_of = |doc: &str| parse(doc).map(|v| v.as_str().map(str::to_string));
        assert_eq!(str_of(r#""\u0041\u00e9\u00E9""#), Ok(Some("Aéé".into())));
        // A surrogate pair is one supplementary-plane character.
        assert_eq!(str_of(r#""\ud83d\ude00""#), Ok(Some("😀".into())));
        assert_eq!(str_of(r#""\uD83D\uDE00!""#), Ok(Some("😀!".into())));
        // A lone surrogate decodes to U+FFFD; a following escape that is
        // not its partner decodes on its own.
        assert_eq!(str_of(r#""\ud83d""#), Ok(Some("\u{fffd}".into())));
        assert_eq!(str_of(r#""\ud83dx""#), Ok(Some("\u{fffd}x".into())));
        assert_eq!(str_of(r#""\ude00""#), Ok(Some("\u{fffd}".into())));
        assert_eq!(str_of(r#""\ud83d\u0041""#), Ok(Some("\u{fffd}A".into())));
        assert_eq!(
            str_of(r#""\ud83d\ud83d\ude00""#),
            Ok(Some("\u{fffd}😀".into()))
        );
        // Exactly four hex digits: no sign, no short form, no junk partner.
        for bad in [
            r#""\u+041""#,
            r#""\u-041""#,
            r#""\u004""#,
            r#""\u00g1""#,
            r#""\u00é""#,
            r#""\ud83d\u+e00""#,
            r#""\ud83d\u""#,
        ] {
            assert!(parse(bad).is_err(), "{bad} must be rejected");
        }
    }

    #[test]
    fn multi_megabyte_string_parses_in_linear_time() {
        // A 4.2 MB string of multi-byte text between two escapes. Parsing
        // once re-validated the rest of the document per character, which
        // made this document take minutes.
        let body = "é€😀a".repeat(420_000);
        let doc = format!("[\"\\n{body}\\\"\"]");
        assert!(doc.len() >= 4_000_000);
        let v = parse(&doc).unwrap();
        let s = v.as_arr().unwrap()[0].as_str().unwrap();
        assert_eq!(s.len(), body.len() + 2);
        assert!(s.starts_with('\n') && s.ends_with('"') && s[1..s.len() - 1] == body);
        assert_eq!(v.render(), doc);
    }

    fn sample() -> Json {
        obj([
            ("s", Json::Str("a\"\\\n\tb".into())),
            ("i", Json::Num(42.0)),
            ("neg", Json::Num(-7.0)),
            ("f", Json::Num(0.1)),
            ("tiny", Json::Num(1e-9)),
            ("b", Json::Bool(true)),
            ("z", Json::Null),
            (
                "arr",
                Json::Arr(vec![Json::Num(1.0), Json::Arr(vec![]), Json::Obj(vec![])]),
            ),
        ])
    }

    #[test]
    fn render_round_trips_through_parse() {
        let v = sample();
        assert_eq!(parse(&v.render()).unwrap(), v);
        assert_eq!(parse(&v.render_pretty()).unwrap(), v);
    }

    #[test]
    fn render_formats_integers_without_fraction() {
        assert_eq!(Json::Num(3.0).render(), "3");
        assert_eq!(Json::Num(-3.0).render(), "-3");
        assert_eq!(Json::Num(0.5).render(), "0.5");
        assert_eq!(Json::Num(f64::NAN).render(), "null");
        assert_eq!(Json::Num(f64::INFINITY).render(), "null");
    }

    #[test]
    fn integer_fast_path_matches_the_formatter() {
        let limit = EXACT_INT_LIMIT as i64 - 1;
        let mut cases = vec![0, 1, -1, 9, 10, -10, 99, 100, limit, -limit];
        let mut x: u64 = 0x9E37_79B9_7F4A_7C15;
        for _ in 0..2000 {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            let magnitude = (x >> (x % 64)) as i64 % (limit + 1);
            cases.push(if x & 1 == 0 { magnitude } else { -magnitude });
        }
        for n in cases {
            let mut out = String::new();
            write_num(&mut out, n as f64).unwrap();
            assert_eq!(out, format!("{n}"), "{n}");
        }
        assert_eq!(Json::Num(-0.0).render(), "0");
        assert_eq!(Json::Num(EXACT_INT_LIMIT).render(), "9007199254740992.0");
    }

    #[test]
    fn object_writer_streams_the_rendered_bytes() {
        let mut text = String::new();
        let mut o = ObjectWriter::open(&mut text).unwrap();
        o.str("s", "a\"\\\n\tb").unwrap();
        o.count("i", 42).unwrap();
        o.num("f", 0.1).unwrap();
        o.num("big", 1e20).unwrap();
        o.num("nan", f64::NAN).unwrap();
        o.object("empty", |_| Ok(())).unwrap();
        o.object("nested", |o| {
            o.num("tiny", 1e-300)?;
            o.object("deeper", |o| o.str("k", "v"))
        })
        .unwrap();
        o.close().unwrap();
        let tree = obj([
            ("s", Json::Str("a\"\\\n\tb".into())),
            ("i", Json::count(42)),
            ("f", Json::Num(0.1)),
            ("big", Json::Num(1e20)),
            ("nan", Json::Num(f64::NAN)),
            ("empty", Json::Obj(vec![])),
            (
                "nested",
                obj([
                    ("tiny", Json::Num(1e-300)),
                    ("deeper", obj([("k", Json::Str("v".into()))])),
                ]),
            ),
        ]);
        assert_eq!(text, tree.render());
    }

    #[test]
    fn render_is_deterministic_and_compact() {
        let v = obj([("a", Json::Num(1.0)), ("b", Json::Arr(vec![Json::Null]))]);
        assert_eq!(v.render(), r#"{"a":1,"b":[null]}"#);
        assert_eq!(v.render(), v.render());
    }

    #[test]
    fn render_escapes_control_chars() {
        let v = Json::Str("\u{1}".into());
        assert_eq!(v.render(), "\"\\u0001\"");
        assert_eq!(parse(&v.render()).unwrap(), v);
    }

    #[test]
    fn pretty_output_is_indented() {
        let text = sample().render_pretty();
        assert!(text.contains("\n  \"i\": 42"), "{text}");
        assert!(text.ends_with('}'));
    }

    #[test]
    fn check_document_requires_byte_identity() {
        let base = sample().render_pretty();
        assert_eq!(check_document(&base, &base), Ok(()));
        // Equal values in other bytes are renderer drift, not a pass.
        let err = check_document(&base, &sample().render()).unwrap_err();
        assert!(err.contains("formatting drift"), "{err}");
        // A leaf, a key, a missing element and a missing field each
        // name their path, the re-run's value first.
        let leaf = check_document(r#"{"a":[1,{"b":2}]}"#, r#"{"a":[1,{"b":3}]}"#).unwrap_err();
        assert!(leaf.contains("$.a[1].b: 3 vs 2"), "{leaf}");
        let key = check_document(r#"{"a":1}"#, r#"{"c":1}"#).unwrap_err();
        assert!(key.contains("$: key `c` vs `a`"), "{key}");
        let short = check_document("[1,2]", "[1]").unwrap_err();
        assert!(short.contains("$: 1 element(s) vs 2"), "{short}");
        let fewer = check_document(r#"{"a":1,"b":2}"#, r#"{"a":1}"#).unwrap_err();
        assert!(fewer.contains("$: 1 field(s) vs 2"), "{fewer}");
        assert!(check_document("{}", "not json").is_err());
    }
}
