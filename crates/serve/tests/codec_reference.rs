//! The frame codec against its per-character reference.
//!
//! `dagmap_obs::json` decodes strings by copying whole runs between the
//! bytes a string literal cannot hold raw, and escapes by copying the runs
//! between the bytes it escapes; the frame builders write escaped text
//! straight into one buffer. The `reference` module keeps the code they
//! replaced: a parser that decodes one UTF-8 scalar at a time, an escaper
//! that walks chars, and frame builders that `format!` each field. Both
//! sides must give the same value, or the same error text with the same
//! byte offset, on seeded random strings and on every truncation and
//! single-byte mutation of a real request frame and a real reply frame,
//! and must build the same frame bytes.

use dagmap_core::{MapOptions, MapReport, Mapper};
use dagmap_genlib::Library;
use dagmap_netlist::{blif, SubjectGraph};
use dagmap_obs::json::{self, Value};
use dagmap_rng::StdRng;
use dagmap_serve::protocol::{error_frame, map_ok_frame, map_report_fields, ErrorKind};
use dagmap_serve::{map_request, remap_request, MapCall};

/// The per-character codec the run-based one replaced, kept as the
/// reference it must equal.
mod reference {
    use std::collections::BTreeMap;

    use dagmap_obs::json::Value;

    pub fn parse(text: &str) -> Result<Value, String> {
        let mut p = Parser {
            bytes: text.as_bytes(),
            pos: 0,
        };
        p.skip_ws();
        let v = p.value()?;
        p.skip_ws();
        if p.pos != p.bytes.len() {
            return Err(format!("trailing content at byte {}", p.pos));
        }
        Ok(v)
    }

    struct Parser<'a> {
        bytes: &'a [u8],
        pos: usize,
    }

    impl Parser<'_> {
        fn err(&self, what: &str) -> String {
            format!("{} at byte {}", what, self.pos)
        }

        fn peek(&self) -> Option<u8> {
            self.bytes.get(self.pos).copied()
        }

        fn skip_ws(&mut self) {
            while matches!(self.peek(), Some(b' ' | b'\t' | b'\n' | b'\r')) {
                self.pos += 1;
            }
        }

        fn expect(&mut self, c: u8) -> Result<(), String> {
            if self.peek() == Some(c) {
                self.pos += 1;
                Ok(())
            } else {
                Err(self.err(&format!("expected `{}`", c as char)))
            }
        }

        fn value(&mut self) -> Result<Value, String> {
            match self.peek() {
                Some(b'{') => self.object(),
                Some(b'[') => self.array(),
                Some(b'"') => Ok(Value::Str(self.string()?)),
                Some(b't') => self.literal("true", Value::Bool(true)),
                Some(b'f') => self.literal("false", Value::Bool(false)),
                Some(b'n') => self.literal("null", Value::Null),
                Some(c) if c == b'-' || c.is_ascii_digit() => self.number(),
                Some(c) => Err(self.err(&format!("unexpected byte `{}`", c as char))),
                None => Err(self.err("unexpected end of input")),
            }
        }

        fn literal(&mut self, word: &str, v: Value) -> Result<Value, String> {
            if self.bytes[self.pos..].starts_with(word.as_bytes()) {
                self.pos += word.len();
                Ok(v)
            } else {
                Err(self.err(&format!("expected `{word}`")))
            }
        }

        fn object(&mut self) -> Result<Value, String> {
            self.expect(b'{')?;
            let mut map = BTreeMap::new();
            self.skip_ws();
            if self.peek() == Some(b'}') {
                self.pos += 1;
                return Ok(Value::Obj(map));
            }
            loop {
                self.skip_ws();
                let key = self.string()?;
                self.skip_ws();
                self.expect(b':')?;
                self.skip_ws();
                let val = self.value()?;
                map.insert(key, val);
                self.skip_ws();
                match self.peek() {
                    Some(b',') => self.pos += 1,
                    Some(b'}') => {
                        self.pos += 1;
                        return Ok(Value::Obj(map));
                    }
                    _ => return Err(self.err("expected `,` or `}`")),
                }
            }
        }

        fn array(&mut self) -> Result<Value, String> {
            self.expect(b'[')?;
            let mut items = Vec::new();
            self.skip_ws();
            if self.peek() == Some(b']') {
                self.pos += 1;
                return Ok(Value::Arr(items));
            }
            loop {
                self.skip_ws();
                items.push(self.value()?);
                self.skip_ws();
                match self.peek() {
                    Some(b',') => self.pos += 1,
                    Some(b']') => {
                        self.pos += 1;
                        return Ok(Value::Arr(items));
                    }
                    _ => return Err(self.err("expected `,` or `]`")),
                }
            }
        }

        fn string(&mut self) -> Result<String, String> {
            self.expect(b'"')?;
            let mut out = String::new();
            loop {
                match self.peek() {
                    None => return Err(self.err("unterminated string")),
                    Some(b'"') => {
                        self.pos += 1;
                        return Ok(out);
                    }
                    Some(b'\\') => {
                        self.pos += 1;
                        let esc = self.peek().ok_or_else(|| self.err("dangling escape"))?;
                        self.pos += 1;
                        match esc {
                            b'"' => out.push('"'),
                            b'\\' => out.push('\\'),
                            b'/' => out.push('/'),
                            b'b' => out.push('\u{0008}'),
                            b'f' => out.push('\u{000C}'),
                            b'n' => out.push('\n'),
                            b'r' => out.push('\r'),
                            b't' => out.push('\t'),
                            b'u' => {
                                let hi = self.hex4()?;
                                let cp = if (0xD800..0xDC00).contains(&hi) {
                                    if self.peek() == Some(b'\\') {
                                        self.pos += 1;
                                        self.expect(b'u')?;
                                        let lo = self.hex4()?;
                                        if !(0xDC00..0xE000).contains(&lo) {
                                            return Err(self.err("invalid low surrogate"));
                                        }
                                        0x10000 + ((hi - 0xD800) << 10) + (lo - 0xDC00)
                                    } else {
                                        return Err(self.err("lone high surrogate"));
                                    }
                                } else if (0xDC00..0xE000).contains(&hi) {
                                    return Err(self.err("lone low surrogate"));
                                } else {
                                    hi
                                };
                                out.push(
                                    char::from_u32(cp)
                                        .ok_or_else(|| self.err("invalid code point"))?,
                                );
                            }
                            _ => return Err(self.err("invalid escape")),
                        }
                    }
                    Some(c) if c < 0x20 => return Err(self.err("raw control character")),
                    Some(_) => {
                        // One UTF-8 scalar at a time.
                        let start = self.pos;
                        self.pos += 1;
                        while self.peek().is_some_and(|b| b >= 0x80 && (b & 0xC0) == 0x80) {
                            self.pos += 1;
                        }
                        out.push_str(
                            std::str::from_utf8(&self.bytes[start..self.pos])
                                .map_err(|_| self.err("invalid utf-8"))?,
                        );
                    }
                }
            }
        }

        fn hex4(&mut self) -> Result<u32, String> {
            let mut v = 0u32;
            for _ in 0..4 {
                let c = self
                    .peek()
                    .ok_or_else(|| self.err("truncated \\u escape"))?;
                let d = (c as char)
                    .to_digit(16)
                    .ok_or_else(|| self.err("non-hex digit in \\u escape"))?;
                v = v * 16 + d;
                self.pos += 1;
            }
            Ok(v)
        }

        fn number(&mut self) -> Result<Value, String> {
            let start = self.pos;
            if self.peek() == Some(b'-') {
                self.pos += 1;
            }
            match self.peek() {
                Some(b'0') => self.pos += 1,
                Some(c) if c.is_ascii_digit() => {
                    while self.peek().is_some_and(|b| b.is_ascii_digit()) {
                        self.pos += 1;
                    }
                }
                _ => return Err(self.err("malformed number")),
            }
            if self.peek() == Some(b'.') {
                self.pos += 1;
                if !self.peek().is_some_and(|b| b.is_ascii_digit()) {
                    return Err(self.err("digits required after decimal point"));
                }
                while self.peek().is_some_and(|b| b.is_ascii_digit()) {
                    self.pos += 1;
                }
            }
            if matches!(self.peek(), Some(b'e' | b'E')) {
                self.pos += 1;
                if matches!(self.peek(), Some(b'+' | b'-')) {
                    self.pos += 1;
                }
                if !self.peek().is_some_and(|b| b.is_ascii_digit()) {
                    return Err(self.err("digits required in exponent"));
                }
                while self.peek().is_some_and(|b| b.is_ascii_digit()) {
                    self.pos += 1;
                }
            }
            let text = std::str::from_utf8(&self.bytes[start..self.pos]).expect("ascii number");
            text.parse::<f64>()
                .map(Value::Num)
                .map_err(|_| self.err("unparsable number"))
        }
    }

    pub fn escape(s: &str) -> String {
        let mut out = String::with_capacity(s.len() + 2);
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
        out
    }

    fn id_field(id: Option<&str>) -> String {
        match id {
            Some(id) => format!("\"id\":\"{}\",", escape(id)),
            None => String::new(),
        }
    }

    pub fn error_frame(id: Option<&str>, kind: &str, message: &str) -> String {
        format!(
            "{{{}\"ok\":false,\"error\":{{\"kind\":\"{}\",\"message\":\"{}\"}}}}",
            id_field(id),
            kind,
            escape(message)
        )
    }

    pub fn map_ok_frame(
        op: &str,
        id: Option<&str>,
        lib: &str,
        fields: &str,
        blif: &str,
        handle: Option<&str>,
        trace_chrome: Option<&str>,
    ) -> String {
        let trace = match trace_chrome {
            Some(t) => format!(",\"trace\":\"{}\"", escape(t)),
            None => String::new(),
        };
        let handle = match handle {
            Some(h) => format!(",\"handle\":\"{}\"", escape(h)),
            None => String::new(),
        };
        format!(
            "{{{}\"ok\":true,\"op\":\"{}\",\"lib\":\"{}\",{},\"blif\":\"{}\"{}{}}}",
            id_field(id),
            escape(op),
            escape(lib),
            fields,
            escape(blif),
            handle,
            trace
        )
    }

    #[allow(clippy::too_many_arguments)]
    pub fn map_request(
        blif: &str,
        id: Option<&str>,
        lib: Option<&str>,
        algo: &str,
        recover: bool,
        trace: bool,
        retain: bool,
    ) -> String {
        let mut payload = String::with_capacity(blif.len() + 128);
        payload.push_str("{\"op\":\"map\"");
        if let Some(id) = id {
            payload.push_str(&format!(",\"id\":\"{}\"", escape(id)));
        }
        if let Some(lib) = lib {
            payload.push_str(&format!(",\"lib\":\"{}\"", escape(lib)));
        }
        let algo = if algo.is_empty() { "dag" } else { algo };
        payload.push_str(&format!(
            ",\"options\":{{\"algo\":\"{}\",\"recover\":{},\"trace\":{},\"retain\":{}}}",
            escape(algo),
            recover,
            trace,
            retain
        ));
        payload.push_str(&format!(",\"blif\":\"{}\"}}", escape(blif)));
        payload
    }

    pub fn remap_request(blif: &str, handle: &str, id: Option<&str>, trace: bool) -> String {
        let mut payload = String::with_capacity(blif.len() + 128);
        payload.push_str("{\"op\":\"remap\"");
        if let Some(id) = id {
            payload.push_str(&format!(",\"id\":\"{}\"", escape(id)));
        }
        payload.push_str(&format!(",\"handle\":\"{}\"", escape(handle)));
        payload.push_str(&format!(",\"options\":{{\"trace\":{trace}}}"));
        payload.push_str(&format!(",\"blif\":\"{}\"}}", escape(blif)));
        payload
    }
}

fn assert_same_parse(text: &str) {
    assert_eq!(
        json::parse(text),
        reference::parse(text),
        "diverged on {text:?}"
    );
}

/// One random piece of string-literal body text: raw ASCII (with the odd
/// raw quote or backslash), raw control bytes, multibyte UTF-8, every
/// escape, and surrogate pairs and lone halves.
fn literal_piece(rng: &mut StdRng, out: &mut String) {
    const MULTIBYTE: [char; 6] = ['é', 'ß', '€', '中', '😀', '\u{10FFFF}'];
    match rng.random_range(0..12u32) {
        0..=3 => {
            for _ in 0..rng.random_range(0..20usize) {
                out.push(char::from(rng.random_range(0x20..0x7Fu8)));
            }
        }
        4 => out.push(char::from(rng.random_range(0..0x20u8))),
        5 => {
            for _ in 0..rng.random_range(1..4usize) {
                out.push(MULTIBYTE[rng.random_range(0..MULTIBYTE.len())]);
            }
        }
        6 => {
            const SIMPLE: [&str; 9] = [
                "\\\"", "\\\\", "\\/", "\\b", "\\f", "\\n", "\\r", "\\t", "\\q",
            ];
            out.push_str(SIMPLE[rng.random_range(0..SIMPLE.len())]);
        }
        7 => {
            out.push_str("\\u");
            for _ in 0..rng.random_range(0..5usize) {
                out.push(char::from(
                    b"0123456789abcdefABCDEFxG"[rng.random_range(0..24usize)],
                ));
            }
        }
        8 => out.push_str(
            ["\\uD83D\\uDE00", "\\ud800\\udfff", "\\uDBFF\\uDC00"][rng.random_range(0..3usize)],
        ),
        9 => out.push_str(
            [
                "\\uD800",
                "\\uD800x",
                "\\uD800\\u0041",
                "\\uD800\\",
                "\\uD800\\n",
            ][rng.random_range(0..5usize)],
        ),
        10 => out.push_str(["\\uDC00", "\\uDFFF"][rng.random_range(0..2usize)]),
        _ => out.push(['"', '\\'][rng.random_range(0..2usize)]),
    }
}

/// A random string literal, usually closed, sometimes inside an array or
/// as an object key.
fn random_literal(rng: &mut StdRng) -> String {
    let mut lit = String::from("\"");
    for _ in 0..rng.random_range(0..8usize) {
        literal_piece(rng, &mut lit);
    }
    if rng.random_bool(0.85) {
        lit.push('"');
    }
    match rng.random_range(0..4u32) {
        0 => format!("[{lit},1]"),
        1 => format!("{{{lit}:{lit}}}"),
        _ => lit,
    }
}

#[test]
fn decoder_matches_the_reference_on_random_strings() {
    let mut rng = StdRng::seed_from_u64(0x5EED_C0DE);
    for _ in 0..4000 {
        let text = random_literal(&mut rng);
        for end in (0..=text.len()).filter(|&i| text.is_char_boundary(i)) {
            assert_same_parse(&text[..end]);
        }
    }
}

#[test]
fn escaper_matches_the_reference_and_round_trips() {
    let mut rng = StdRng::seed_from_u64(0x00E5_CA9E);
    for _ in 0..4000 {
        let mut raw = String::new();
        for _ in 0..rng.random_range(0..10usize) {
            match rng.random_range(0..5u32) {
                0 => raw.push(char::from(rng.random_range(0..0x20u8))),
                1 => raw.push(['"', '\\', '\u{7f}', 'é', '€', '😀'][rng.random_range(0..6usize)]),
                _ => {
                    for _ in 0..rng.random_range(0..24usize) {
                        raw.push(char::from(rng.random_range(0x20..0x7Fu8)));
                    }
                }
            }
        }
        let escaped = json::escape(&raw);
        assert_eq!(escaped, reference::escape(&raw), "{raw:?}");
        let mut appended = String::from("prefix");
        json::escape_into(&mut appended, &raw);
        assert_eq!(appended, format!("prefix{escaped}"));
        let literal = format!("\"{escaped}\"");
        assert_eq!(
            json::parse(&literal),
            Ok(Value::Str(raw.clone())),
            "{raw:?}"
        );
        assert_same_parse(&literal);
    }
}

/// A real map request and the daemon's reply to it, for a one-gate design
/// under an id with escapes and multibyte characters.
fn real_frames() -> (String, String) {
    let input = ".model tiny\n.inputs a b\n.outputs f\n.names a b f\n11 1\n.end\n";
    let id = "r\"1\\é€😀";
    let request = map_request(
        input,
        &MapCall {
            id: Some(id),
            lib: Some("lib2_like"),
            retain: true,
            ..MapCall::default()
        },
    );
    let library = Library::lib2_like();
    let subject = SubjectGraph::from_network(&blif::parse(input).unwrap()).unwrap();
    let (mapped, report) = Mapper::new(&library)
        .map_with_report(&subject, MapOptions::dag())
        .unwrap();
    let out = blif::to_string(&mapped.to_network().unwrap()).unwrap();
    let reply = map_ok_frame("map", Some(id), "lib2_like", &report, &out, Some(id), None);
    (request, reply)
}

#[test]
fn frames_decode_like_the_reference_under_every_truncation_and_mutation() {
    let (request, reply) = real_frames();
    for frame in [&request, &reply] {
        assert!(json::parse(frame).is_ok(), "{frame}");
        for end in (0..=frame.len()).filter(|&i| frame.is_char_boundary(i)) {
            assert_same_parse(&frame[..end]);
        }
        let mut bytes = frame.as_bytes().to_vec();
        for pos in 0..bytes.len() {
            let original = bytes[pos];
            for b in 0..=255u8 {
                if b == original {
                    continue;
                }
                bytes[pos] = b;
                if let Ok(text) = std::str::from_utf8(&bytes) {
                    assert_same_parse(text);
                }
            }
            bytes[pos] = original;
        }
    }
}

#[test]
fn frame_builders_write_the_reference_bytes() {
    let (_, reply) = real_frames();
    let blif = ".model m\n.inputs a \"b\"\n.outputs f\n.names a f\n1 1\n.end\n";
    for id in [None, Some("x"), Some("q\"\\é\u{1}")] {
        for lib in [None, Some("44-3")] {
            for (recover, trace, retain) in [(false, false, false), (true, true, true)] {
                for algo in ["", "dag-extended"] {
                    let call = MapCall {
                        id,
                        lib,
                        algo,
                        recover,
                        trace,
                        retain,
                    };
                    assert_eq!(
                        map_request(blif, &call),
                        reference::map_request(blif, id, lib, algo, recover, trace, retain)
                    );
                }
            }
            assert_eq!(
                remap_request(blif, "h\"1", id, lib.is_some()),
                reference::remap_request(blif, "h\"1", id, lib.is_some())
            );
        }
        for kind in [ErrorKind::BadRequest, ErrorKind::Busy] {
            let message = "blif: line 3: unknown \"x\"\n";
            assert_eq!(
                error_frame(id, kind, message),
                reference::error_frame(id, kind.as_str(), message)
            );
        }
    }
    let report = MapReport {
        algorithm: "dag",
        delay: 4.25,
        predicted_delay: 4.25,
        area: 12.0,
        num_cells: 3,
        duplicated_subject_nodes: 1,
        matches_enumerated: 42,
        matches_pruned: 7,
        memo_lookups: 0,
        memo_hits: 0,
        memo_id_hits: 0,
        match_words: 5,
        match_candidate_bits: 80,
        label_threads: 1,
        levels: 4,
        label_seconds: 0.001,
        cover_seconds: 0.0005,
        area_recovery_seconds: 0.0,
        decompose_seconds: 0.0002,
        strash_raw_nodes: 20,
        strash_unique_nodes: 17,
        strash_dedup_hits: 3,
        labels_reused: 2,
    };
    let fields = map_report_fields(&report);
    for (id, handle, trace) in [
        (None, None, None),
        (Some("r\"é"), Some("h"), Some("{\"traceEvents\":[]}\n")),
    ] {
        assert_eq!(
            map_ok_frame("remap", id, "lib2_like", &report, &reply, handle, trace),
            reference::map_ok_frame("remap", id, "lib2_like", &fields, &reply, handle, trace)
        );
    }
}
