//! The wire protocol of `dagmap serve`.
//!
//! # Framing
//!
//! Every message — request or response — is one *frame*:
//!
//! ```text
//! <payload length in bytes, ASCII decimal>\n<payload>
//! ```
//!
//! The payload is a single UTF-8 JSON object (RFC 8259, parsed with the
//! workspace's own [`dagmap_obs::json`] parser — the build is
//! dependency-free). Length-prefixing keeps framing independent of payload
//! content: BLIF text with embedded newlines needs no escaping gymnastics,
//! and a reader never scans for a terminator.
//!
//! # Requests
//!
//! ```json
//! {"op":"map","id":"r1","lib":"lib2","blif":".model ...",
//!  "options":{"algo":"dag","recover":false,"trace":false,"retain":false}}
//! {"op":"remap","id":"r2","handle":"r1","blif":".model ...",
//!  "options":{"trace":false}}
//! {"op":"ping"}
//! {"op":"metrics"}
//! {"op":"shutdown"}
//! ```
//!
//! `id` (string or number) is echoed verbatim in the response so clients
//! may pipeline requests and match replies out of order. `lib` selects one
//! of the libraries the daemon was started with (defaulting to the first);
//! `options` is optional and defaults to a plain delay-optimal DAG map.
//! `options.retain` on a map request (which then requires an `id`) keeps
//! the labeling run server-side under handle `id`; a later `remap` names
//! that handle and ships the *edited* netlist — the daemon re-labels only
//! the region whose strash signatures changed and answers with output
//! byte-identical to a cold map of the same BLIF. A remap reply echoes a
//! fresh snapshot under the same handle, so edits chain. `metrics` returns
//! the daemon's live registry — request, error, busy and remap counts,
//! rolling latency quantiles, per-library request counts — as Prometheus
//! text exposition.
//!
//! # Responses
//!
//! Success: `{"ok":true,...}` with op-specific fields — a map reply carries
//! `delay`, `area`, the mapped netlist as `blif`, and the `phases` /
//! `counters` objects of [`MapReport`]. A map the daemon answered from its
//! reply cache says `"cached":true` right after `"ok":true`; every byte
//! after that is the reply of the run that stored it, report included.
//! Failure:
//! `{"ok":false,"error":{"kind":...,"message":...}}` where `kind` is one of
//! `bad_request`, `busy`, `shutting_down`, `internal`. A malformed frame
//! produces a `bad_request` reply on the same connection; it never kills
//! the connection or a worker.

use std::collections::BTreeMap;
use std::io::{self, BufRead, Write};

use dagmap_core::MapReport;
use dagmap_obs::json::{escape, escape_into, parse, Value};

/// Hard ceiling on a single frame's payload, so a corrupt or hostile
/// length header cannot make the server allocate without bound.
pub const MAX_FRAME_BYTES: usize = 64 << 20;

/// Writes one length-prefixed frame and flushes.
///
/// # Errors
///
/// Propagates I/O errors from the underlying writer.
pub fn write_frame(w: &mut impl Write, payload: &str) -> io::Result<()> {
    write_frame_parts(w, "", payload)
}

/// Writes one frame whose payload is `head` followed by `body`, without
/// joining the two first: a cached reply's stored body goes out as it is.
/// Header and payload leave in one vectored write where the writer takes
/// them whole, so the peer wakes once per frame rather than once for the
/// header and again for the payload.
pub(crate) fn write_frame_parts(w: &mut impl Write, head: &str, body: &str) -> io::Result<()> {
    let mut prefix = (head.len() + body.len()).to_string();
    prefix.push('\n');
    prefix.push_str(head);
    let mut parts = [
        io::IoSlice::new(prefix.as_bytes()),
        io::IoSlice::new(body.as_bytes()),
    ];
    let mut parts = &mut parts[..];
    while !parts.is_empty() {
        match w.write_vectored(parts) {
            Ok(0) => return Err(io::ErrorKind::WriteZero.into()),
            Ok(n) => io::IoSlice::advance_slices(&mut parts, n),
            Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
            Err(e) => return Err(e),
        }
    }
    w.flush()
}

/// Reads one frame; `Ok(None)` on clean EOF at a frame boundary.
///
/// # Errors
///
/// I/O errors from the reader, plus `InvalidData` for malformed length
/// headers, oversized frames, truncated payloads and non-UTF-8 payloads.
pub fn read_frame(r: &mut impl BufRead) -> io::Result<Option<String>> {
    let mut header = String::new();
    let n = r.read_line(&mut header)?;
    if n == 0 {
        return Ok(None);
    }
    let text = header.trim_end_matches(['\r', '\n']);
    let len: usize = text.parse().map_err(|_| {
        io::Error::new(
            io::ErrorKind::InvalidData,
            format!("malformed frame header `{}`", text.escape_default()),
        )
    })?;
    if len > MAX_FRAME_BYTES {
        return Err(io::Error::new(
            io::ErrorKind::InvalidData,
            format!("frame of {len} bytes exceeds the {MAX_FRAME_BYTES}-byte limit"),
        ));
    }
    let mut payload = vec![0u8; len];
    r.read_exact(&mut payload)?;
    String::from_utf8(payload)
        .map(Some)
        .map_err(|_| io::Error::new(io::ErrorKind::InvalidData, "frame payload is not UTF-8"))
}

/// A parsed request frame.
#[derive(Debug, Clone, PartialEq)]
pub enum Request {
    /// Liveness check; answered inline by the connection reader.
    Ping,
    /// Prometheus text exposition of the live metrics registry; answered
    /// inline by the connection reader.
    Metrics,
    /// Graceful shutdown: stop accepting, drain in-flight maps, exit.
    Shutdown,
    /// Map one BLIF network.
    Map(Box<MapRequest>),
    /// Incrementally re-map an edited network against retained labels.
    Remap(Box<RemapRequest>),
}

/// The payload of an `op:"map"` request.
#[derive(Debug, Clone, PartialEq)]
pub struct MapRequest {
    /// Client-chosen correlation id, echoed in the reply.
    pub id: Option<String>,
    /// Library name; `None` means the daemon's default (first) library.
    pub lib: Option<String>,
    /// The network to map, as BLIF text.
    pub blif: String,
    /// `"dag"`, `"tree"` or `"dag-extended"`.
    pub algo: String,
    /// Run slack-driven area recovery after the delay-optimal cover.
    pub recover: bool,
    /// Record this request under a per-request obs session and return the
    /// Chrome trace JSON in the reply.
    pub trace: bool,
    /// Retain the labeling run server-side (under handle = `id`) for later
    /// `remap` requests. Requires `id`.
    pub retain: bool,
}

/// The payload of an `op:"remap"` request. Library, algorithm and recovery
/// settings come from the retained run — reusing a label computed under a
/// different configuration would not be bit-identical, so the server does
/// not allow them to drift.
#[derive(Debug, Clone, PartialEq)]
pub struct RemapRequest {
    /// Client-chosen correlation id, echoed in the reply.
    pub id: Option<String>,
    /// The handle a prior `retain: true` map registered.
    pub handle: String,
    /// The *edited* network, as full BLIF text.
    pub blif: String,
    /// Record this request under a per-request obs session and return the
    /// Chrome trace JSON in the reply.
    pub trace: bool,
}

/// Error classes a response frame can carry.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ErrorKind {
    /// The request itself is invalid (bad JSON, unknown op or library,
    /// unparsable BLIF, unmappable network).
    BadRequest,
    /// Backpressure: the daemon is at its `--max-inflight` limit.
    Busy,
    /// The daemon is draining toward exit and accepts no new maps.
    ShuttingDown,
    /// A worker failed unexpectedly; the request died, the worker did not.
    Internal,
}

impl ErrorKind {
    /// The wire name of the kind.
    pub fn as_str(self) -> &'static str {
        match self {
            ErrorKind::BadRequest => "bad_request",
            ErrorKind::Busy => "busy",
            ErrorKind::ShuttingDown => "shutting_down",
            ErrorKind::Internal => "internal",
        }
    }
}

fn opt_string(v: Option<&Value>, what: &str) -> Result<Option<String>, String> {
    match v {
        None | Some(Value::Null) => Ok(None),
        Some(Value::Str(s)) => Ok(Some(s.clone())),
        Some(Value::Num(n)) => Ok(Some(format_f64(*n))),
        Some(_) => Err(format!("`{what}` must be a string")),
    }
}

fn opt_bool(v: Option<&Value>, what: &str) -> Result<bool, String> {
    match v {
        None | Some(Value::Null) => Ok(false),
        Some(Value::Bool(b)) => Ok(*b),
        Some(_) => Err(format!("`{what}` must be a boolean")),
    }
}

/// Moves the string under `key` out of a request object.
fn take_string(obj: &mut BTreeMap<String, Value>, key: &str) -> Option<String> {
    match obj.remove(key) {
        Some(Value::Str(s)) => Some(s),
        _ => None,
    }
}

/// Parses one request payload. The BLIF text is moved out of the parsed
/// document, not copied.
///
/// # Errors
///
/// A human-readable message naming the first problem found; the server
/// wraps it in a `bad_request` reply.
pub fn parse_request(payload: &str) -> Result<Request, String> {
    let doc = parse(payload).map_err(|e| format!("invalid JSON: {e}"))?;
    let Value::Obj(mut obj) = doc else {
        return Err("request must be a JSON object".into());
    };
    let op = take_string(&mut obj, "op").ok_or("request needs a string `op`")?;
    match op.as_str() {
        "ping" => Ok(Request::Ping),
        "metrics" => Ok(Request::Metrics),
        "shutdown" => Ok(Request::Shutdown),
        "map" => {
            let blif = take_string(&mut obj, "blif").ok_or("map request needs a string `blif`")?;
            let id = opt_string(obj.get("id"), "id")?;
            let lib = opt_string(obj.get("lib"), "lib")?;
            let options = match obj.get("options") {
                None | Some(Value::Null) => None,
                Some(v) => Some(v.as_obj().ok_or("`options` must be an object")?),
            };
            let algo = options
                .and_then(|o| o.get("algo"))
                .map(|v| v.as_str().ok_or("`options.algo` must be a string"))
                .transpose()?
                .unwrap_or("dag")
                .to_owned();
            if !matches!(algo.as_str(), "dag" | "tree" | "dag-extended") {
                return Err(format!(
                    "unknown algorithm `{algo}` (expected dag, tree or dag-extended)"
                ));
            }
            let recover = opt_bool(options.and_then(|o| o.get("recover")), "options.recover")?;
            let trace = opt_bool(options.and_then(|o| o.get("trace")), "options.trace")?;
            let retain = opt_bool(options.and_then(|o| o.get("retain")), "options.retain")?;
            if retain && id.is_none() {
                return Err("`options.retain` requires an `id` to use as the handle".into());
            }
            Ok(Request::Map(Box::new(MapRequest {
                id,
                lib,
                blif,
                algo,
                recover,
                trace,
                retain,
            })))
        }
        "remap" => {
            let blif =
                take_string(&mut obj, "blif").ok_or("remap request needs a string `blif`")?;
            let handle = obj
                .get("handle")
                .and_then(Value::as_str)
                .ok_or("remap request needs a string `handle`")?
                .to_owned();
            let id = opt_string(obj.get("id"), "id")?;
            let options = match obj.get("options") {
                None | Some(Value::Null) => None,
                Some(v) => Some(v.as_obj().ok_or("`options` must be an object")?),
            };
            let trace = opt_bool(options.and_then(|o| o.get("trace")), "options.trace")?;
            Ok(Request::Remap(Box::new(RemapRequest {
                id,
                handle,
                blif,
                trace,
            })))
        }
        other => Err(format!("unknown op `{other}`")),
    }
}

/// Formats an `f64` as a JSON number (finite values only; the mapper never
/// produces NaN or infinities, but guard anyway by degrading to `null`).
pub fn format_f64(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "null".to_owned()
    }
}

/// Appends `,"key":"value"` (`value` escaped) to a frame under
/// construction; the leading comma is left off when `comma` is false.
pub(crate) fn push_string_field(frame: &mut String, comma: bool, key: &str, value: &str) {
    if comma {
        frame.push(',');
    }
    frame.push('"');
    frame.push_str(key);
    frame.push_str("\":\"");
    escape_into(frame, value);
    frame.push('"');
}

/// Builds an error reply frame.
pub fn error_frame(id: Option<&str>, kind: ErrorKind, message: &str) -> String {
    let mut frame = String::with_capacity(message.len() + 96);
    frame.push('{');
    if let Some(id) = id {
        push_string_field(&mut frame, false, "id", id);
        frame.push(',');
    }
    frame.push_str("\"ok\":false,\"error\":{\"kind\":\"");
    frame.push_str(kind.as_str());
    frame.push('"');
    push_string_field(&mut frame, true, "message", message);
    frame.push_str("}}");
    frame
}

/// Builds the `ping` reply frame.
pub fn pong_frame() -> String {
    "{\"ok\":true,\"op\":\"ping\"}".to_owned()
}

/// Builds the `shutdown` acknowledgement frame.
pub fn shutdown_ack_frame() -> String {
    "{\"ok\":true,\"op\":\"shutdown\"}".to_owned()
}

/// Builds the `metrics` reply frame carrying the Prometheus text
/// exposition.
pub fn metrics_frame(exposition: &str) -> String {
    format!(
        "{{\"ok\":true,\"op\":\"metrics\",\"exposition\":\"{}\"}}",
        escape(exposition)
    )
}

/// The [`MapReport`] fields as a JSON fragment (no surrounding braces):
/// top-level result numbers plus `phases` and `counters` sub-objects.
///
/// This is the single serialization of a mapping report — `dagmap map
/// --json` wraps it in `{}`, the serve protocol embeds it next to its
/// envelope fields — so the two paths can never drift apart.
pub fn map_report_fields(report: &MapReport) -> String {
    format!(
        concat!(
            "\"algorithm\":\"{}\",\"delay\":{},\"predicted_delay\":{},\"area\":{},",
            "\"num_cells\":{},\"duplicated_subject_nodes\":{},",
            "\"phases\":{{\"decompose_seconds\":{},\"label_seconds\":{},",
            "\"cover_seconds\":{},\"area_recovery_seconds\":{},",
            "\"label_threads\":{},\"levels\":{}}},",
            "\"counters\":{{\"matches_enumerated\":{},\"matches_pruned\":{},",
            "\"memo_lookups\":{},\"memo_hits\":{},\"memo_id_hits\":{},",
            "\"match_words\":{},\"match_candidate_bits\":{},",
            "\"labels_reused\":{}}},",
            "\"strash\":{{\"raw_nodes\":{},\"unique_nodes\":{},",
            "\"dedup_hits\":{}}}"
        ),
        escape(report.algorithm),
        format_f64(report.delay),
        format_f64(report.predicted_delay),
        format_f64(report.area),
        report.num_cells,
        report.duplicated_subject_nodes,
        format_f64(report.decompose_seconds),
        format_f64(report.label_seconds),
        format_f64(report.cover_seconds),
        format_f64(report.area_recovery_seconds),
        report.label_threads,
        report.levels,
        report.matches_enumerated,
        report.matches_pruned,
        report.memo_lookups,
        report.memo_hits,
        report.memo_id_hits,
        report.match_words,
        report.match_candidate_bits,
        report.labels_reused,
        report.strash_raw_nodes,
        report.strash_unique_nodes,
        report.strash_dedup_hits,
    )
}

/// A [`MapReport`] as a complete JSON object (the `dagmap map --json`
/// output).
pub fn map_report_json(report: &MapReport) -> String {
    format!("{{{}}}", map_report_fields(report))
}

/// Builds a successful map or remap reply frame. `handle` is echoed when
/// the request retained (or refreshed) server-side labels under it. The
/// daemon writes the same two parts, head and body, without joining them.
pub fn map_ok_frame(
    op: &str,
    id: Option<&str>,
    lib: &str,
    report: &MapReport,
    blif: &str,
    handle: Option<&str>,
    trace_chrome: Option<&str>,
) -> String {
    let mut frame = reply_head(id, false);
    frame.push_str(&map_reply_body(op, lib, report, blif, handle, trace_chrome));
    frame
}

/// The head of a successful reply frame: `{`, the echoed `id`, `"ok":true`
/// and, for a reply served from the reply cache, `"cached":true`.
pub(crate) fn reply_head(id: Option<&str>, cached: bool) -> String {
    let mut head = String::with_capacity(id.map_or(0, str::len) + 40);
    head.push('{');
    if let Some(id) = id {
        push_string_field(&mut head, false, "id", id);
        head.push(',');
    }
    head.push_str("\"ok\":true");
    if cached {
        head.push_str(",\"cached\":true");
    }
    head
}

/// The rest of a successful map or remap reply frame after its
/// [`reply_head`]: op, library, report fields, the escaped BLIF, and the
/// handle and trace when present. It names no request, so the reply cache
/// stores it as it is.
pub(crate) fn map_reply_body(
    op: &str,
    lib: &str,
    report: &MapReport,
    blif: &str,
    handle: Option<&str>,
    trace_chrome: Option<&str>,
) -> String {
    let fields = map_report_fields(report);
    let trace_len = trace_chrome.map_or(0, str::len);
    // Escaping grows BLIF by about one byte per line.
    let escaped = blif.len() + trace_len;
    let mut body = String::with_capacity(fields.len() + escaped + escaped / 8 + 96);
    push_string_field(&mut body, true, "op", op);
    push_string_field(&mut body, true, "lib", lib);
    body.push(',');
    body.push_str(&fields);
    push_string_field(&mut body, true, "blif", blif);
    if let Some(h) = handle {
        push_string_field(&mut body, true, "handle", h);
    }
    if let Some(t) = trace_chrome {
        push_string_field(&mut body, true, "trace", t);
    }
    body.push('}');
    body
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::io::BufReader;

    #[test]
    fn frames_round_trip_through_a_buffer() {
        let mut buf = Vec::new();
        for payload in ["{}", "{\"op\":\"ping\"}", "{\"blif\":\"a\\nb\\nc\"}", ""] {
            write_frame(&mut buf, payload).unwrap();
        }
        let mut r = BufReader::new(&buf[..]);
        assert_eq!(read_frame(&mut r).unwrap().as_deref(), Some("{}"));
        assert_eq!(
            read_frame(&mut r).unwrap().as_deref(),
            Some("{\"op\":\"ping\"}")
        );
        assert_eq!(
            read_frame(&mut r).unwrap().as_deref(),
            Some("{\"blif\":\"a\\nb\\nc\"}")
        );
        assert_eq!(read_frame(&mut r).unwrap().as_deref(), Some(""));
        assert_eq!(read_frame(&mut r).unwrap(), None);
    }

    /// Takes at most 3 bytes per call, through `Write`'s default
    /// one-slice `write_vectored`.
    struct Trickle(Vec<u8>);

    impl Write for Trickle {
        fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
            let n = buf.len().min(3);
            self.0.extend_from_slice(&buf[..n]);
            Ok(n)
        }

        fn flush(&mut self) -> io::Result<()> {
            Ok(())
        }
    }

    #[test]
    fn a_frame_survives_a_writer_that_takes_a_few_bytes_at_a_time() {
        let mut w = Trickle(Vec::new());
        write_frame_parts(&mut w, "{\"id\":\"r1\"", ",\"ok\":true}").unwrap();
        write_frame(&mut w, "").unwrap();
        let mut r = BufReader::new(&w.0[..]);
        assert_eq!(
            read_frame(&mut r).unwrap().as_deref(),
            Some("{\"id\":\"r1\",\"ok\":true}")
        );
        assert_eq!(read_frame(&mut r).unwrap().as_deref(), Some(""));
        assert_eq!(read_frame(&mut r).unwrap(), None);
    }

    #[test]
    fn bad_headers_and_truncation_are_errors_not_hangs() {
        for bad in ["x\n{}", "-3\nab", "999999999999999999999\n", "5\nab"] {
            let mut r = BufReader::new(bad.as_bytes());
            assert!(read_frame(&mut r).is_err(), "`{bad}` should error");
        }
        let oversized = format!("{}\n", MAX_FRAME_BYTES + 1);
        let mut r = BufReader::new(oversized.as_bytes());
        assert!(read_frame(&mut r).is_err());
    }

    #[test]
    fn requests_parse_and_validate() {
        assert_eq!(parse_request("{\"op\":\"ping\"}").unwrap(), Request::Ping);
        assert_eq!(
            parse_request("{\"op\":\"metrics\"}").unwrap(),
            Request::Metrics
        );
        assert_eq!(
            parse_request("{\"op\":\"shutdown\"}").unwrap(),
            Request::Shutdown
        );
        let req = parse_request(
            "{\"op\":\"map\",\"id\":7,\"lib\":\"lib2\",\"blif\":\".model m\",\
             \"options\":{\"algo\":\"tree\",\"recover\":true}}",
        )
        .unwrap();
        match req {
            Request::Map(m) => {
                assert_eq!(m.id.as_deref(), Some("7"));
                assert_eq!(m.lib.as_deref(), Some("lib2"));
                assert_eq!(m.algo, "tree");
                assert!(m.recover);
                assert!(!m.trace);
                assert!(!m.retain);
            }
            other => panic!("expected map, got {other:?}"),
        }
        let req = parse_request(
            "{\"op\":\"map\",\"id\":\"d1\",\"blif\":\".model m\",\
             \"options\":{\"retain\":true}}",
        )
        .unwrap();
        match req {
            Request::Map(m) => assert!(m.retain),
            other => panic!("expected map, got {other:?}"),
        }
        let req = parse_request(
            "{\"op\":\"remap\",\"id\":\"r2\",\"handle\":\"d1\",\"blif\":\".model m\"}",
        )
        .unwrap();
        match req {
            Request::Remap(m) => {
                assert_eq!(m.id.as_deref(), Some("r2"));
                assert_eq!(m.handle, "d1");
                assert!(!m.trace);
            }
            other => panic!("expected remap, got {other:?}"),
        }
        for bad in [
            "not json",
            "[1,2]",
            "{\"op\":\"nope\"}",
            "{\"op\":\"stats\"}",
            "{\"op\":\"map\"}",
            "{\"op\":\"map\",\"blif\":\"x\",\"options\":{\"algo\":\"magic\"}}",
            "{\"op\":\"map\",\"blif\":\"x\",\"options\":{\"recover\":\"yes\"}}",
            // retain needs an id to use as the handle
            "{\"op\":\"map\",\"blif\":\"x\",\"options\":{\"retain\":true}}",
            // remap needs a handle
            "{\"op\":\"remap\",\"blif\":\"x\"}",
        ] {
            assert!(parse_request(bad).is_err(), "`{bad}` should not parse");
        }
    }

    #[test]
    fn reply_frames_are_valid_json() {
        use dagmap_obs::json::parse;
        let report = MapReport {
            algorithm: "dag",
            delay: 4.25,
            predicted_delay: 4.25,
            area: 12.0,
            num_cells: 3,
            duplicated_subject_nodes: 1,
            matches_enumerated: 42,
            matches_pruned: 7,
            memo_lookups: 10,
            memo_hits: 6,
            match_words: 5,
            match_candidate_bits: 80,
            label_threads: 1,
            levels: 4,
            label_seconds: 0.001,
            cover_seconds: 0.0005,
            area_recovery_seconds: 0.0,
            decompose_seconds: 0.0002,
            memo_id_hits: 4,
            strash_raw_nodes: 20,
            strash_unique_nodes: 17,
            strash_dedup_hits: 3,
            labels_reused: 2,
        };
        let ok = map_ok_frame(
            "map",
            Some("r\"1"),
            "lib2",
            &report,
            ".model m\n.end\n",
            Some("d1"),
            Some("{\"traceEvents\":[]}"),
        );
        let v = parse(&ok).unwrap();
        assert_eq!(v.get("id").unwrap().as_str(), Some("r\"1"));
        assert_eq!(v.get("delay").unwrap().as_num(), Some(4.25));
        assert_eq!(
            v.get("counters")
                .unwrap()
                .get("memo_hits")
                .unwrap()
                .as_num(),
            Some(6.0)
        );
        assert_eq!(
            v.get("counters")
                .unwrap()
                .get("memo_id_hits")
                .unwrap()
                .as_num(),
            Some(4.0)
        );
        assert_eq!(
            v.get("strash").unwrap().get("dedup_hits").unwrap().as_num(),
            Some(3.0)
        );
        assert_eq!(v.get("handle").unwrap().as_str(), Some("d1"));
        assert_eq!(v.get("blif").unwrap().as_str(), Some(".model m\n.end\n"));
        let err = error_frame(None, ErrorKind::Busy, "1 inflight >= limit");
        let v = parse(&err).unwrap();
        assert_eq!(v.get("ok"), Some(&Value::Bool(false)));
        assert_eq!(
            v.get("error").unwrap().get("kind").unwrap().as_str(),
            Some("busy")
        );
        let report_obj = parse(&map_report_json(&report)).unwrap();
        assert_eq!(report_obj.get("num_cells").unwrap().as_num(), Some(3.0));
    }
}
