//! Minimal deterministic JSON writer.
//!
//! The observability exports must be byte-identical across thread counts
//! and reruns, so they are rendered by this tiny writer instead of a
//! serializer crate: integers, booleans, strings, arrays and objects
//! only — **no floats** (float formatting is the classic source of
//! cross-platform byte drift), and object keys are emitted in exactly
//! the order the caller writes them (callers iterate sorted orders or
//! fixed field lists, so the order is deterministic by construction).

/// Append-only JSON buffer.
///
/// The builder does not validate nesting — callers drive it with
/// structurally correct sequences (`obj_open`/`key`/…/`obj_close`). The
/// `comma` state machine inserts separators automatically: anything
/// written immediately after an `open` gets no comma, everything after
/// does.
#[derive(Debug, Default)]
pub struct JsonBuf {
    out: String,
    comma: bool,
}

impl JsonBuf {
    /// New empty buffer.
    pub fn new() -> Self {
        Self::default()
    }

    /// Finish and return the rendered JSON text.
    pub fn finish(self) -> String {
        self.out
    }

    /// Empty the buffer for the next document, keeping its allocation —
    /// what lets a per-epoch line be rendered into one reused buffer.
    pub fn clear(&mut self) {
        self.out.clear();
        self.comma = false;
    }

    /// The text rendered so far.
    pub fn as_str(&self) -> &str {
        &self.out
    }

    /// Splice `json` in verbatim as the next value. The caller vouches
    /// that it is one complete JSON value (e.g. a serde-rendered struct).
    pub fn raw(&mut self, json: &str) -> &mut Self {
        self.sep();
        self.out.push_str(json);
        self
    }

    fn sep(&mut self) {
        if self.comma {
            self.out.push(',');
        }
        self.comma = true;
    }

    /// `{` — start an object (as a value in the current context).
    pub fn obj_open(&mut self) -> &mut Self {
        self.sep();
        self.out.push('{');
        self.comma = false;
        self
    }

    /// `}` — close the current object.
    pub fn obj_close(&mut self) -> &mut Self {
        self.out.push('}');
        self.comma = true;
        self
    }

    /// `[` — start an array (as a value in the current context).
    pub fn arr_open(&mut self) -> &mut Self {
        self.sep();
        self.out.push('[');
        self.comma = false;
        self
    }

    /// `]` — close the current array.
    pub fn arr_close(&mut self) -> &mut Self {
        self.out.push(']');
        self.comma = true;
        self
    }

    /// `"key":` — object key; the next write is its value.
    pub fn key(&mut self, k: &str) -> &mut Self {
        self.sep();
        write_str(&mut self.out, k);
        self.out.push(':');
        self.comma = false;
        self
    }

    /// String value.
    pub fn str(&mut self, v: &str) -> &mut Self {
        self.sep();
        write_str(&mut self.out, v);
        self
    }

    /// Unsigned integer value.
    pub fn u64(&mut self, v: u64) -> &mut Self {
        self.sep();
        push_u64(&mut self.out, v);
        self
    }

    /// Signed integer value.
    pub fn i64(&mut self, v: i64) -> &mut Self {
        self.sep();
        if v < 0 {
            self.out.push('-');
        }
        push_u64(&mut self.out, v.unsigned_abs());
        self
    }

    /// Boolean value.
    pub fn bool(&mut self, v: bool) -> &mut Self {
        self.sep();
        self.out.push_str(if v { "true" } else { "false" });
        self
    }

    /// `null`.
    pub fn null(&mut self) -> &mut Self {
        self.sep();
        self.out.push_str("null");
        self
    }
}

/// Append `v` in decimal without the intermediate `String` that
/// `to_string` allocates (a snapshot renders tens of thousands of these).
pub(crate) fn push_u64(out: &mut String, mut v: u64) {
    let mut buf = [0u8; 20];
    let mut i = buf.len();
    loop {
        i -= 1;
        buf[i] = b'0' + (v % 10) as u8;
        v /= 10;
        if v == 0 {
            break;
        }
    }
    out.push_str(std::str::from_utf8(&buf[i..]).expect("ASCII digits"));
}

/// JSON string escaping (quotes, backslash, control chars).
fn write_str(out: &mut String, s: &str) {
    out.push('"');
    if s.bytes().all(|b| b >= 0x20 && b != b'"' && b != b'\\') {
        // Nothing to escape (every series key): one copy.
        out.push_str(s);
        out.push('"');
        return;
    }
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => {
                out.push_str(&format!("\\u{:04x}", c as u32));
            }
            c => out.push(c),
        }
    }
    out.push('"');
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn renders_nested_structures() {
        let mut j = JsonBuf::new();
        j.obj_open();
        j.key("a").u64(1);
        j.key("b").arr_open();
        j.u64(2).str("x").bool(true).null();
        j.arr_close();
        j.key("c").obj_open().key("d").i64(-5).obj_close();
        j.obj_close();
        assert_eq!(j.finish(), r#"{"a":1,"b":[2,"x",true,null],"c":{"d":-5}}"#);
    }

    #[test]
    fn escapes_strings() {
        let mut j = JsonBuf::new();
        j.str("q\"b\\s\nnl\u{1}");
        assert_eq!(j.finish(), r#""q\"b\\s\nnl\u0001""#);
    }

    #[test]
    fn integers_render_like_to_string() {
        for v in [0u64, 7, 10, 99, 100, 18_446_744_073_709_551_615] {
            let mut j = JsonBuf::new();
            j.u64(v);
            assert_eq!(j.finish(), v.to_string());
        }
        for v in [0i64, -1, 42, i64::MIN, i64::MAX] {
            let mut j = JsonBuf::new();
            j.i64(v);
            assert_eq!(j.finish(), v.to_string());
        }
    }

    #[test]
    fn cleared_buffer_renders_a_fresh_document_with_raw_splices() {
        let mut j = JsonBuf::new();
        j.obj_open().key("a").u64(1).obj_close();
        j.clear();
        j.obj_open();
        j.key("s").raw(r#"{"x":[1,2]}"#);
        j.key("t").u64(2);
        j.obj_close();
        assert_eq!(j.as_str(), r#"{"s":{"x":[1,2]},"t":2}"#);
    }

    #[test]
    fn empty_containers() {
        let mut j = JsonBuf::new();
        j.arr_open();
        j.obj_open().obj_close();
        j.arr_open().arr_close();
        j.arr_close();
        assert_eq!(j.finish(), "[{},[]]");
    }
}
