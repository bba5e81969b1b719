//! A minimal blocking client for the line-delimited JSON protocol:
//! one request line out, one response line back, over a persistent
//! connection.
//!
//! Responses come off the network, so the read path guards its buffer:
//! a response line longer than [`MAX_LINE`] surfaces
//! [`ClientError::LineTooLong`] instead of growing the buffer without
//! bound.

use std::io::{ErrorKind, Read, Write};
use std::net::{TcpStream, ToSocketAddrs};

use sim_json::{Json, JsonError};

/// Longest response line accepted before [`ClientError::LineTooLong`].
const MAX_LINE: usize = 32 << 20;

/// What went wrong talking to the service.
#[derive(Debug)]
pub enum ClientError {
    /// Transport failure (connect, read, or write).
    Io(std::io::Error),
    /// The server's response line was not valid JSON.
    Json(JsonError),
    /// The server closed the connection before answering.
    Closed,
    /// The server sent more than 32 MiB without a newline; the payload
    /// was discarded, not buffered.
    LineTooLong(usize),
}

impl std::fmt::Display for ClientError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ClientError::Io(e) => write!(f, "transport error: {e}"),
            ClientError::Json(e) => write!(f, "bad response JSON: {e}"),
            ClientError::Closed => write!(f, "server closed the connection"),
            ClientError::LineTooLong(limit) => {
                write!(f, "response line exceeded {limit} bytes")
            }
        }
    }
}

impl std::error::Error for ClientError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            ClientError::Io(e) => Some(e),
            ClientError::Json(e) => Some(e),
            _ => None,
        }
    }
}

impl From<std::io::Error> for ClientError {
    fn from(e: std::io::Error) -> Self {
        ClientError::Io(e)
    }
}

impl From<JsonError> for ClientError {
    fn from(e: JsonError) -> Self {
        ClientError::Json(e)
    }
}

/// A connected protocol client.
pub struct Client {
    stream: TcpStream,
    /// Bytes received but not yet consumed as a complete line.
    pending: Vec<u8>,
}

impl Client {
    /// Connects to a running service.
    ///
    /// # Errors
    ///
    /// Propagates the connect failure.
    pub fn connect(addr: impl ToSocketAddrs) -> Result<Client, ClientError> {
        Ok(Client {
            stream: TcpStream::connect(addr)?,
            pending: Vec::new(),
        })
    }

    /// Sends one raw request line (a newline is appended).
    ///
    /// # Errors
    ///
    /// [`ClientError::Io`] on a transport failure.
    pub fn send_line(&mut self, line: &str) -> Result<(), ClientError> {
        writeln!(self.stream, "{line}")?;
        Ok(self.stream.flush()?)
    }

    /// Receives one response line (without the trailing newline),
    /// honouring the line-length guard.
    ///
    /// # Errors
    ///
    /// [`ClientError::Closed`] when the server hangs up mid-line,
    /// [`ClientError::LineTooLong`] when the guard trips,
    /// [`ClientError::Io`] on any other transport failure.
    pub fn recv_line(&mut self) -> Result<String, ClientError> {
        let mut chunk = [0u8; 4096];
        loop {
            if let Some(pos) = self.pending.iter().position(|&b| b == b'\n') {
                let rest = self.pending.split_off(pos + 1);
                let line = std::mem::replace(&mut self.pending, rest);
                return Ok(String::from_utf8_lossy(&line).trim_end().to_string());
            }
            if self.pending.len() > MAX_LINE {
                self.pending.clear();
                return Err(ClientError::LineTooLong(MAX_LINE));
            }
            match self.stream.read(&mut chunk) {
                Ok(0) => return Err(ClientError::Closed),
                Ok(n) => self.pending.extend_from_slice(&chunk[..n]),
                Err(e) if e.kind() == ErrorKind::Interrupted => {}
                Err(e) => return Err(ClientError::Io(e)),
            }
        }
    }

    /// Sends one raw request line and returns the raw response line
    /// (without the trailing newline).
    ///
    /// # Errors
    ///
    /// See [`Client::send_line`] and [`Client::recv_line`].
    pub fn request_line(&mut self, line: &str) -> Result<String, ClientError> {
        self.send_line(line)?;
        self.recv_line()
    }

    /// Sends a request document and parses the response.
    ///
    /// # Errors
    ///
    /// See [`Client::request_line`]; additionally [`ClientError::Json`]
    /// when the response line does not parse.
    pub fn request(&mut self, body: &Json) -> Result<Json, ClientError> {
        let reply = self.request_line(&body.to_string())?;
        Ok(Json::parse(&reply)?)
    }
}
