//! A small blocking client for the serve protocol — used by `dagmap
//! client`, the integration tests and the `serveperf` harness.

use std::io::{self, BufReader, Read, Write};
use std::net::TcpStream;
#[cfg(unix)]
use std::os::unix::net::UnixStream;
#[cfg(unix)]
use std::path::PathBuf;

use dagmap_obs::json::{parse, Value};

use crate::protocol::{push_string_field, read_frame, write_frame};

/// Where to connect.
#[derive(Debug, Clone)]
pub enum Endpoint {
    /// A TCP address, e.g. `127.0.0.1:7433`.
    Tcp(String),
    /// A unix-domain socket path.
    #[cfg(unix)]
    Unix(PathBuf),
}

/// One connection to a `dagmap serve` daemon.
///
/// [`Client::send`]/[`Client::recv`] are independent, so callers may
/// pipeline: write a window of requests, then read replies (matching them
/// up by `id`). [`Client::call`] is the simple one-in-one-out form.
pub struct Client {
    writer: Box<dyn Write + Send>,
    reader: BufReader<Box<dyn Read + Send>>,
}

impl std::fmt::Debug for Client {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Client").finish_non_exhaustive()
    }
}

impl Client {
    /// Connects to `endpoint`.
    ///
    /// # Errors
    ///
    /// Connection failures.
    pub fn connect(endpoint: &Endpoint) -> io::Result<Client> {
        let (writer, reader): (Box<dyn Write + Send>, Box<dyn Read + Send>) = match endpoint {
            Endpoint::Tcp(addr) => {
                let stream = TcpStream::connect(addr)?;
                let _ = stream.set_nodelay(true);
                (Box::new(stream.try_clone()?), Box::new(stream))
            }
            #[cfg(unix)]
            Endpoint::Unix(path) => {
                let stream = UnixStream::connect(path)?;
                (Box::new(stream.try_clone()?), Box::new(stream))
            }
        };
        Ok(Client {
            writer,
            reader: BufReader::new(reader),
        })
    }

    /// Sends one raw payload frame.
    ///
    /// # Errors
    ///
    /// I/O errors from the transport.
    pub fn send(&mut self, payload: &str) -> io::Result<()> {
        write_frame(&mut self.writer, payload)
    }

    /// Receives one reply, parsed as JSON.
    ///
    /// # Errors
    ///
    /// Transport errors, unexpected EOF, and replies that are not valid
    /// JSON (`InvalidData`).
    pub fn recv(&mut self) -> io::Result<Value> {
        let payload = read_frame(&mut self.reader)?.ok_or_else(|| {
            io::Error::new(io::ErrorKind::UnexpectedEof, "server closed the connection")
        })?;
        parse(&payload).map_err(|e| {
            io::Error::new(
                io::ErrorKind::InvalidData,
                format!("reply is not valid JSON: {e}"),
            )
        })
    }

    /// One request, one reply.
    ///
    /// # Errors
    ///
    /// As for [`Client::send`] and [`Client::recv`].
    pub fn call(&mut self, payload: &str) -> io::Result<Value> {
        self.send(payload)?;
        self.recv()
    }

    /// Receives one reply as raw frame text, without parsing it.
    ///
    /// # Errors
    ///
    /// Transport errors and unexpected EOF.
    pub fn recv_raw(&mut self) -> io::Result<String> {
        read_frame(&mut self.reader)?.ok_or_else(|| {
            io::Error::new(io::ErrorKind::UnexpectedEof, "server closed the connection")
        })
    }

    /// One request, one raw-text reply.
    ///
    /// # Errors
    ///
    /// As for [`Client::send`] and [`Client::recv_raw`].
    pub fn call_raw(&mut self, payload: &str) -> io::Result<String> {
        self.send(payload)?;
        self.recv_raw()
    }

    /// Round-trips a `ping`.
    ///
    /// # Errors
    ///
    /// Transport errors, or a reply that is not a pong.
    pub fn ping(&mut self) -> io::Result<()> {
        let reply = self.call("{\"op\":\"ping\"}")?;
        if reply.get("ok") == Some(&Value::Bool(true)) {
            Ok(())
        } else {
            Err(io::Error::new(
                io::ErrorKind::InvalidData,
                format!("unexpected ping reply: {reply:?}"),
            ))
        }
    }

    /// Requests graceful shutdown and returns the acknowledgement.
    ///
    /// # Errors
    ///
    /// As for [`Client::call`].
    pub fn shutdown(&mut self) -> io::Result<Value> {
        self.call("{\"op\":\"shutdown\"}")
    }

    /// Fetches the daemon's live metrics as Prometheus text exposition.
    ///
    /// # Errors
    ///
    /// Transport errors, an error frame, or a malformed reply.
    pub fn metrics(&mut self) -> io::Result<String> {
        let reply = self.call("{\"op\":\"metrics\"}")?;
        if let Some(err) = reply.get("error") {
            let msg = err
                .get("message")
                .and_then(Value::as_str)
                .unwrap_or("unknown error");
            return Err(io::Error::other(msg.to_owned()));
        }
        reply
            .get("exposition")
            .and_then(Value::as_str)
            .map(str::to_owned)
            .ok_or_else(|| {
                io::Error::new(
                    io::ErrorKind::InvalidData,
                    "metrics reply carries no exposition",
                )
            })
    }
}

/// Options of a [`map_request`] payload.
#[derive(Debug, Clone, Default)]
pub struct MapCall<'a> {
    /// Correlation id echoed in the reply.
    pub id: Option<&'a str>,
    /// Library name (daemon default when `None`).
    pub lib: Option<&'a str>,
    /// `"dag"` (default when empty), `"tree"` or `"dag-extended"`.
    pub algo: &'a str,
    /// Run area recovery.
    pub recover: bool,
    /// Request a per-request Chrome trace in the reply.
    pub trace: bool,
    /// Ask the daemon to retain the run's labels for later `remap`
    /// requests. Requires `id` (the reply's `handle` references the
    /// retained snapshot).
    pub retain: bool,
}

/// A payload buffer sized for `blif` once escaped (about one byte more
/// per line) plus the envelope fields.
fn payload_for(blif: &str) -> String {
    String::with_capacity(blif.len() + blif.len() / 8 + 160)
}

/// Builds a map request payload for `blif` under `call`. The escaped BLIF
/// is written straight into the one payload buffer.
pub fn map_request(blif: &str, call: &MapCall<'_>) -> String {
    let mut payload = payload_for(blif);
    payload.push_str("{\"op\":\"map\"");
    if let Some(id) = call.id {
        push_string_field(&mut payload, true, "id", id);
    }
    if let Some(lib) = call.lib {
        push_string_field(&mut payload, true, "lib", lib);
    }
    let algo = if call.algo.is_empty() {
        "dag"
    } else {
        call.algo
    };
    payload.push_str(",\"options\":{");
    push_string_field(&mut payload, false, "algo", algo);
    for (key, on) in [
        ("recover", call.recover),
        ("trace", call.trace),
        ("retain", call.retain),
    ] {
        payload.push_str(",\"");
        payload.push_str(key);
        payload.push_str(if on { "\":true" } else { "\":false" });
    }
    payload.push('}');
    push_string_field(&mut payload, true, "blif", blif);
    payload.push('}');
    payload
}

/// Builds a remap request payload: re-map the edited `blif` incrementally
/// against the labels retained under `handle` (from a prior `map` with
/// `retain`). The daemon replays the retained run's library and options, so
/// the reply is byte-identical to a cold map of the edited netlist.
pub fn remap_request(blif: &str, handle: &str, id: Option<&str>, trace: bool) -> String {
    let mut payload = payload_for(blif);
    payload.push_str("{\"op\":\"remap\"");
    if let Some(id) = id {
        push_string_field(&mut payload, true, "id", id);
    }
    push_string_field(&mut payload, true, "handle", handle);
    payload.push_str(if trace {
        ",\"options\":{\"trace\":true}"
    } else {
        ",\"options\":{\"trace\":false}"
    });
    push_string_field(&mut payload, true, "blif", blif);
    payload.push('}');
    payload
}
