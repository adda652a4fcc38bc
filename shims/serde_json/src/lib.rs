//! Offline shim for `serde_json`: `from_str` and `to_string` only — the
//! surface this workspace uses (pipeline scripts and benches).
//!
//! Deserialization parses the text into the shared self-describing
//! `Content` tree from the serde shim and replays it through
//! `ContentDeserializer`, so struct/enum/option decoding matches what the
//! derive expects. Serialization is a direct single-pass writer.

use serde::__private::{Content, ContentDeserializer};
use serde::de::DeserializeOwned;
use serde::ser::{self, Serialize};
use std::fmt;

/// JSON (de)serialization failure.
#[derive(Debug, Clone)]
pub struct Error(String);

impl fmt::Display for Error {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.0)
    }
}

impl std::error::Error for Error {}

impl serde::ser::Error for Error {
    fn custom<T: fmt::Display>(msg: T) -> Self {
        Error(msg.to_string())
    }
}

impl serde::de::Error for Error {
    fn custom<T: fmt::Display>(msg: T) -> Self {
        Error(msg.to_string())
    }
}

pub type Result<T> = std::result::Result<T, Error>;

// ---------------------------------------------------------------------------
// Deserialization
// ---------------------------------------------------------------------------

/// Parses a value from JSON text.
pub fn from_str<T: DeserializeOwned>(s: &str) -> Result<T> {
    let mut p = Parser {
        bytes: s.as_bytes(),
        pos: 0,
    };
    p.skip_ws();
    let content = p.parse_value()?;
    p.skip_ws();
    if p.pos != p.bytes.len() {
        return Err(Error(format!(
            "trailing characters at offset {}",
            p.pos
        )));
    }
    T::deserialize(ContentDeserializer::<Error>::new(content))
}

struct Parser<'a> {
    bytes: &'a [u8],
    pos: usize,
}

impl<'a> Parser<'a> {
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

    fn err(&self, msg: &str) -> Error {
        Error(format!("{msg} at offset {}", self.pos))
    }

    fn expect_literal(&mut self, lit: &str) -> Result<()> {
        if self.bytes[self.pos..].starts_with(lit.as_bytes()) {
            self.pos += lit.len();
            Ok(())
        } else {
            Err(self.err(&format!("expected `{lit}`")))
        }
    }

    fn parse_value(&mut self) -> Result<Content> {
        self.skip_ws();
        match self.peek() {
            None => Err(self.err("unexpected end of input")),
            Some(b'n') => {
                self.expect_literal("null")?;
                Ok(Content::Null)
            }
            Some(b't') => {
                self.expect_literal("true")?;
                Ok(Content::Bool(true))
            }
            Some(b'f') => {
                self.expect_literal("false")?;
                Ok(Content::Bool(false))
            }
            Some(b'"') => self.parse_string().map(Content::Str),
            Some(b'[') => self.parse_array(),
            Some(b'{') => self.parse_object(),
            Some(b'-') | Some(b'0'..=b'9') => self.parse_number(),
            Some(c) => Err(self.err(&format!("unexpected character `{}`", c as char))),
        }
    }

    fn parse_array(&mut self) -> Result<Content> {
        self.pos += 1; // '['
        let mut items = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b']') {
            self.pos += 1;
            return Ok(Content::Seq(items));
        }
        loop {
            items.push(self.parse_value()?);
            self.skip_ws();
            match self.peek() {
                Some(b',') => {
                    self.pos += 1;
                }
                Some(b']') => {
                    self.pos += 1;
                    return Ok(Content::Seq(items));
                }
                _ => return Err(self.err("expected `,` or `]`")),
            }
        }
    }

    fn parse_object(&mut self) -> Result<Content> {
        self.pos += 1; // '{'
        let mut entries = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b'}') {
            self.pos += 1;
            return Ok(Content::Map(entries));
        }
        loop {
            self.skip_ws();
            if self.peek() != Some(b'"') {
                return Err(self.err("expected object key"));
            }
            let key = self.parse_string()?;
            self.skip_ws();
            if self.peek() != Some(b':') {
                return Err(self.err("expected `:`"));
            }
            self.pos += 1;
            let value = self.parse_value()?;
            entries.push((Content::Str(key), value));
            self.skip_ws();
            match self.peek() {
                Some(b',') => {
                    self.pos += 1;
                }
                Some(b'}') => {
                    self.pos += 1;
                    return Ok(Content::Map(entries));
                }
                _ => return Err(self.err("expected `,` or `}`")),
            }
        }
    }

    fn parse_string(&mut self) -> Result<String> {
        self.pos += 1; // opening quote
        let mut out = String::new();
        loop {
            let start = self.pos;
            // Fast path: run of plain bytes.
            while let Some(&b) = self.bytes.get(self.pos) {
                if b == b'"' || b == b'\\' || b < 0x20 {
                    break;
                }
                self.pos += 1;
            }
            out.push_str(
                std::str::from_utf8(&self.bytes[start..self.pos])
                    .map_err(|_| self.err("invalid UTF-8"))?,
            );
            match self.peek() {
                Some(b'"') => {
                    self.pos += 1;
                    return Ok(out);
                }
                Some(b'\\') => {
                    self.pos += 1;
                    let esc = self.peek().ok_or_else(|| self.err("unterminated escape"))?;
                    self.pos += 1;
                    match esc {
                        b'"' => out.push('"'),
                        b'\\' => out.push('\\'),
                        b'/' => out.push('/'),
                        b'b' => out.push('\u{8}'),
                        b'f' => out.push('\u{c}'),
                        b'n' => out.push('\n'),
                        b'r' => out.push('\r'),
                        b't' => out.push('\t'),
                        b'u' => {
                            let cp = self.parse_hex4()?;
                            let c = if (0xD800..0xDC00).contains(&cp) {
                                // Surrogate pair.
                                self.expect_literal("\\u")?;
                                let lo = self.parse_hex4()?;
                                let combined =
                                    0x10000 + ((cp - 0xD800) << 10) + (lo.wrapping_sub(0xDC00));
                                char::from_u32(combined)
                                    .ok_or_else(|| self.err("invalid surrogate pair"))?
                            } else {
                                char::from_u32(cp).ok_or_else(|| self.err("invalid \\u escape"))?
                            };
                            out.push(c);
                        }
                        _ => return Err(self.err("invalid escape")),
                    }
                }
                Some(_) => return Err(self.err("control character in string")),
                None => return Err(self.err("unterminated string")),
            }
        }
    }

    fn parse_hex4(&mut self) -> Result<u32> {
        if self.pos + 4 > self.bytes.len() {
            return Err(self.err("truncated \\u escape"));
        }
        let hex = std::str::from_utf8(&self.bytes[self.pos..self.pos + 4])
            .map_err(|_| self.err("invalid \\u escape"))?;
        let v = u32::from_str_radix(hex, 16).map_err(|_| self.err("invalid \\u escape"))?;
        self.pos += 4;
        Ok(v)
    }

    fn parse_number(&mut self) -> Result<Content> {
        let start = self.pos;
        if self.peek() == Some(b'-') {
            self.pos += 1;
        }
        let mut float = false;
        while let Some(&b) = self.bytes.get(self.pos) {
            match b {
                b'0'..=b'9' => self.pos += 1,
                b'.' | b'e' | b'E' | b'+' | b'-' => {
                    float = true;
                    self.pos += 1;
                }
                _ => break,
            }
        }
        let text = std::str::from_utf8(&self.bytes[start..self.pos])
            .map_err(|_| self.err("invalid number"))?;
        if float {
            text.parse::<f64>()
                .map(Content::F64)
                .map_err(|_| self.err("invalid number"))
        } else if text.starts_with('-') {
            text.parse::<i64>()
                .map(Content::I64)
                .map_err(|_| self.err("invalid number"))
        } else {
            text.parse::<u64>()
                .map(Content::U64)
                .map_err(|_| self.err("invalid number"))
        }
    }
}

// ---------------------------------------------------------------------------
// Serialization
// ---------------------------------------------------------------------------

/// Serializes a value to compact JSON text.
pub fn to_string<T: Serialize + ?Sized>(value: &T) -> Result<String> {
    let mut out = String::new();
    value.serialize(JsonSer { out: &mut out })?;
    Ok(out)
}

fn escape_into(out: &mut String, s: &str) {
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out.push('"');
}

struct JsonSer<'a> {
    out: &'a mut String,
}

pub struct SeqSer<'a> {
    out: &'a mut String,
    first: bool,
    /// Closing bracket(s) to emit on `end` (tuple variants close `]}`).
    close: &'static str,
}

pub struct MapSer<'a> {
    out: &'a mut String,
    first: bool,
    close: &'static str,
}

impl<'a> ser::Serializer for JsonSer<'a> {
    type Ok = ();
    type Error = Error;
    type SerializeSeq = SeqSer<'a>;
    type SerializeTuple = SeqSer<'a>;
    type SerializeTupleStruct = SeqSer<'a>;
    type SerializeTupleVariant = SeqSer<'a>;
    type SerializeMap = MapSer<'a>;
    type SerializeStruct = MapSer<'a>;
    type SerializeStructVariant = MapSer<'a>;

    fn serialize_bool(self, v: bool) -> Result<()> {
        self.out.push_str(if v { "true" } else { "false" });
        Ok(())
    }
    fn serialize_i8(self, v: i8) -> Result<()> {
        self.serialize_i64(v as i64)
    }
    fn serialize_i16(self, v: i16) -> Result<()> {
        self.serialize_i64(v as i64)
    }
    fn serialize_i32(self, v: i32) -> Result<()> {
        self.serialize_i64(v as i64)
    }
    fn serialize_i64(self, v: i64) -> Result<()> {
        self.out.push_str(&v.to_string());
        Ok(())
    }
    fn serialize_u8(self, v: u8) -> Result<()> {
        self.serialize_u64(v as u64)
    }
    fn serialize_u16(self, v: u16) -> Result<()> {
        self.serialize_u64(v as u64)
    }
    fn serialize_u32(self, v: u32) -> Result<()> {
        self.serialize_u64(v as u64)
    }
    fn serialize_u64(self, v: u64) -> Result<()> {
        self.out.push_str(&v.to_string());
        Ok(())
    }
    fn serialize_f32(self, v: f32) -> Result<()> {
        if !v.is_finite() {
            return Err(Error("non-finite float in JSON".into()));
        }
        self.out.push_str(&format!("{v:?}"));
        Ok(())
    }
    fn serialize_f64(self, v: f64) -> Result<()> {
        if !v.is_finite() {
            return Err(Error("non-finite float in JSON".into()));
        }
        self.out.push_str(&format!("{v:?}"));
        Ok(())
    }
    fn serialize_char(self, v: char) -> Result<()> {
        escape_into(self.out, v.encode_utf8(&mut [0u8; 4]));
        Ok(())
    }
    fn serialize_str(self, v: &str) -> Result<()> {
        escape_into(self.out, v);
        Ok(())
    }
    fn serialize_bytes(self, v: &[u8]) -> Result<()> {
        let mut seq = self.serialize_seq(Some(v.len()))?;
        for b in v {
            ser::SerializeSeq::serialize_element(&mut seq, b)?;
        }
        ser::SerializeSeq::end(seq)
    }
    fn serialize_none(self) -> Result<()> {
        self.out.push_str("null");
        Ok(())
    }
    fn serialize_some<T: Serialize + ?Sized>(self, value: &T) -> Result<()> {
        value.serialize(self)
    }
    fn serialize_unit(self) -> Result<()> {
        self.out.push_str("null");
        Ok(())
    }
    fn serialize_unit_struct(self, _name: &'static str) -> Result<()> {
        self.serialize_unit()
    }
    fn serialize_unit_variant(
        self,
        _name: &'static str,
        _variant_index: u32,
        variant: &'static str,
    ) -> Result<()> {
        self.serialize_str(variant)
    }
    fn serialize_newtype_struct<T: Serialize + ?Sized>(
        self,
        _name: &'static str,
        value: &T,
    ) -> Result<()> {
        value.serialize(self)
    }
    fn serialize_newtype_variant<T: Serialize + ?Sized>(
        self,
        _name: &'static str,
        _variant_index: u32,
        variant: &'static str,
        value: &T,
    ) -> Result<()> {
        self.out.push('{');
        escape_into(self.out, variant);
        self.out.push(':');
        value.serialize(JsonSer { out: self.out })?;
        self.out.push('}');
        Ok(())
    }
    fn serialize_seq(self, _len: Option<usize>) -> Result<SeqSer<'a>> {
        self.out.push('[');
        Ok(SeqSer {
            out: self.out,
            first: true,
            close: "]",
        })
    }
    fn serialize_tuple(self, len: usize) -> Result<SeqSer<'a>> {
        self.serialize_seq(Some(len))
    }
    fn serialize_tuple_struct(self, _name: &'static str, len: usize) -> Result<SeqSer<'a>> {
        self.serialize_seq(Some(len))
    }
    fn serialize_tuple_variant(
        self,
        _name: &'static str,
        _variant_index: u32,
        variant: &'static str,
        _len: usize,
    ) -> Result<SeqSer<'a>> {
        self.out.push('{');
        escape_into(self.out, variant);
        self.out.push_str(":[");
        Ok(SeqSer {
            out: self.out,
            first: true,
            close: "]}",
        })
    }
    fn serialize_map(self, _len: Option<usize>) -> Result<MapSer<'a>> {
        self.out.push('{');
        Ok(MapSer {
            out: self.out,
            first: true,
            close: "}",
        })
    }
    fn serialize_struct(self, _name: &'static str, _len: usize) -> Result<MapSer<'a>> {
        self.serialize_map(None)
    }
    fn serialize_struct_variant(
        self,
        _name: &'static str,
        _variant_index: u32,
        variant: &'static str,
        _len: usize,
    ) -> Result<MapSer<'a>> {
        self.out.push('{');
        escape_into(self.out, variant);
        self.out.push_str(":{");
        Ok(MapSer {
            out: self.out,
            first: true,
            close: "}}",
        })
    }
}

impl SeqSer<'_> {
    fn sep(&mut self) {
        if self.first {
            self.first = false;
        } else {
            self.out.push(',');
        }
    }
}

impl ser::SerializeSeq for SeqSer<'_> {
    type Ok = ();
    type Error = Error;
    fn serialize_element<T: Serialize + ?Sized>(&mut self, value: &T) -> Result<()> {
        self.sep();
        value.serialize(JsonSer { out: self.out })
    }
    fn end(self) -> Result<()> {
        self.out.push_str(self.close);
        Ok(())
    }
}

impl ser::SerializeTuple for SeqSer<'_> {
    type Ok = ();
    type Error = Error;
    fn serialize_element<T: Serialize + ?Sized>(&mut self, value: &T) -> Result<()> {
        ser::SerializeSeq::serialize_element(self, value)
    }
    fn end(self) -> Result<()> {
        ser::SerializeSeq::end(self)
    }
}

impl ser::SerializeTupleStruct for SeqSer<'_> {
    type Ok = ();
    type Error = Error;
    fn serialize_field<T: Serialize + ?Sized>(&mut self, value: &T) -> Result<()> {
        ser::SerializeSeq::serialize_element(self, value)
    }
    fn end(self) -> Result<()> {
        ser::SerializeSeq::end(self)
    }
}

impl ser::SerializeTupleVariant for SeqSer<'_> {
    type Ok = ();
    type Error = Error;
    fn serialize_field<T: Serialize + ?Sized>(&mut self, value: &T) -> Result<()> {
        ser::SerializeSeq::serialize_element(self, value)
    }
    fn end(self) -> Result<()> {
        ser::SerializeSeq::end(self)
    }
}

impl MapSer<'_> {
    fn sep(&mut self) {
        if self.first {
            self.first = false;
        } else {
            self.out.push(',');
        }
    }
}

impl ser::SerializeMap for MapSer<'_> {
    type Ok = ();
    type Error = Error;
    fn serialize_key<T: Serialize + ?Sized>(&mut self, key: &T) -> Result<()> {
        self.sep();
        key.serialize(KeySer { out: self.out })?;
        self.out.push(':');
        Ok(())
    }
    fn serialize_value<T: Serialize + ?Sized>(&mut self, value: &T) -> Result<()> {
        value.serialize(JsonSer { out: self.out })
    }
    fn end(self) -> Result<()> {
        self.out.push_str(self.close);
        Ok(())
    }
}

impl ser::SerializeStruct for MapSer<'_> {
    type Ok = ();
    type Error = Error;
    fn serialize_field<T: Serialize + ?Sized>(&mut self, key: &'static str, value: &T) -> Result<()> {
        self.sep();
        escape_into(self.out, key);
        self.out.push(':');
        value.serialize(JsonSer { out: self.out })
    }
    fn end(self) -> Result<()> {
        self.out.push_str(self.close);
        Ok(())
    }
}

impl ser::SerializeStructVariant for MapSer<'_> {
    type Ok = ();
    type Error = Error;
    fn serialize_field<T: Serialize + ?Sized>(&mut self, key: &'static str, value: &T) -> Result<()> {
        ser::SerializeStruct::serialize_field(self, key, value)
    }
    fn end(self) -> Result<()> {
        ser::SerializeStruct::end(self)
    }
}

/// Serializer for map keys: only string-like keys are representable.
struct KeySer<'a> {
    out: &'a mut String,
}

macro_rules! key_as_string {
    ($($m:ident: $ty:ty),+ $(,)?) => {
        $(
            fn $m(self, v: $ty) -> Result<()> {
                escape_into(self.out, &v.to_string());
                Ok(())
            }
        )+
    };
}

impl<'a> ser::Serializer for KeySer<'a> {
    type Ok = ();
    type Error = Error;
    type SerializeSeq = SeqSer<'a>;
    type SerializeTuple = SeqSer<'a>;
    type SerializeTupleStruct = SeqSer<'a>;
    type SerializeTupleVariant = SeqSer<'a>;
    type SerializeMap = MapSer<'a>;
    type SerializeStruct = MapSer<'a>;
    type SerializeStructVariant = MapSer<'a>;

    key_as_string!(
        serialize_bool: bool,
        serialize_i8: i8,
        serialize_i16: i16,
        serialize_i32: i32,
        serialize_i64: i64,
        serialize_u8: u8,
        serialize_u16: u16,
        serialize_u32: u32,
        serialize_u64: u64,
    );

    fn serialize_f32(self, _v: f32) -> Result<()> {
        Err(Error("float cannot be a JSON object key".into()))
    }
    fn serialize_f64(self, _v: f64) -> Result<()> {
        Err(Error("float cannot be a JSON object key".into()))
    }
    fn serialize_char(self, v: char) -> Result<()> {
        escape_into(self.out, v.encode_utf8(&mut [0u8; 4]));
        Ok(())
    }
    fn serialize_str(self, v: &str) -> Result<()> {
        escape_into(self.out, v);
        Ok(())
    }
    fn serialize_bytes(self, _v: &[u8]) -> Result<()> {
        Err(Error("bytes cannot be a JSON object key".into()))
    }
    fn serialize_none(self) -> Result<()> {
        Err(Error("null cannot be a JSON object key".into()))
    }
    fn serialize_some<T: Serialize + ?Sized>(self, value: &T) -> Result<()> {
        value.serialize(self)
    }
    fn serialize_unit(self) -> Result<()> {
        Err(Error("unit cannot be a JSON object key".into()))
    }
    fn serialize_unit_struct(self, _name: &'static str) -> Result<()> {
        Err(Error("unit cannot be a JSON object key".into()))
    }
    fn serialize_unit_variant(
        self,
        _name: &'static str,
        _variant_index: u32,
        variant: &'static str,
    ) -> Result<()> {
        self.serialize_str(variant)
    }
    fn serialize_newtype_struct<T: Serialize + ?Sized>(
        self,
        _name: &'static str,
        value: &T,
    ) -> Result<()> {
        value.serialize(self)
    }
    fn serialize_newtype_variant<T: Serialize + ?Sized>(
        self,
        _name: &'static str,
        _variant_index: u32,
        _variant: &'static str,
        _value: &T,
    ) -> Result<()> {
        Err(Error("complex value cannot be a JSON object key".into()))
    }
    fn serialize_seq(self, _len: Option<usize>) -> Result<SeqSer<'a>> {
        Err(Error("sequence cannot be a JSON object key".into()))
    }
    fn serialize_tuple(self, _len: usize) -> Result<SeqSer<'a>> {
        Err(Error("tuple cannot be a JSON object key".into()))
    }
    fn serialize_tuple_struct(self, _name: &'static str, _len: usize) -> Result<SeqSer<'a>> {
        Err(Error("tuple cannot be a JSON object key".into()))
    }
    fn serialize_tuple_variant(
        self,
        _name: &'static str,
        _variant_index: u32,
        _variant: &'static str,
        _len: usize,
    ) -> Result<SeqSer<'a>> {
        Err(Error("tuple cannot be a JSON object key".into()))
    }
    fn serialize_map(self, _len: Option<usize>) -> Result<MapSer<'a>> {
        Err(Error("map cannot be a JSON object key".into()))
    }
    fn serialize_struct(self, _name: &'static str, _len: usize) -> Result<MapSer<'a>> {
        Err(Error("struct cannot be a JSON object key".into()))
    }
    fn serialize_struct_variant(
        self,
        _name: &'static str,
        _variant_index: u32,
        _variant: &'static str,
        _len: usize,
    ) -> Result<MapSer<'a>> {
        Err(Error("struct cannot be a JSON object key".into()))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scalars_roundtrip() {
        assert_eq!(from_str::<u64>("42").unwrap(), 42);
        assert_eq!(from_str::<i64>("-42").unwrap(), -42);
        assert_eq!(from_str::<f64>("0.5").unwrap(), 0.5);
        assert!(from_str::<bool>("true").unwrap());
        assert_eq!(from_str::<String>("\"a\\nb\"").unwrap(), "a\nb");
        assert_eq!(from_str::<Option<u32>>("null").unwrap(), None);
        assert_eq!(from_str::<Option<u32>>("7").unwrap(), Some(7));
    }

    #[test]
    fn collections_roundtrip() {
        let v: Vec<u32> = from_str("[1, 2, 3]").unwrap();
        assert_eq!(v, vec![1, 2, 3]);
        assert_eq!(to_string(&v).unwrap(), "[1,2,3]");
        let t: (u8, f32) = from_str("[1, 2.5]").unwrap();
        assert_eq!(t, (1, 2.5));
    }

    #[test]
    fn garbage_is_an_error() {
        assert!(from_str::<u64>("not json").is_err());
        assert!(from_str::<Vec<u32>>("[1,").is_err());
        assert!(from_str::<String>("\"unterminated").is_err());
        assert!(from_str::<u64>("42 43").is_err());
    }

    #[test]
    fn strings_escape() {
        assert_eq!(to_string("a\"b\n").unwrap(), "\"a\\\"b\\n\"");
    }
}
