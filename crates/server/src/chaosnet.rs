//! [`FaultyTransport`]: a deterministic fault-injecting wrapper around a
//! session's TCP stream.
//!
//! The *decisions* — chunk sizes, pauses, the byte offset at which the
//! connection dies — come from a [`NetFaultPlan`], which is a pure
//! function of `(seed, connection, byte offset)`; this wrapper merely acts
//! them out against a real socket. With no plan it is a passthrough, which
//! is why the regular [`Client`](crate::client::Client) can always carry
//! one: clean runs and chaos runs travel the same code path and the byte
//! counters are available either way (the `chaos --net` matrix sizes its
//! cut points from a clean run's observed traffic).
//!
//! Severing is modelled as a real half-open failure: the wrapper shuts the
//! socket down both ways and every subsequent operation fails with a
//! `ConnectionReset`-kind I/O error, exactly what a peer observes when a
//! connection dies mid-frame.

use std::io::{Read, Write};
use std::net::TcpStream;
use std::time::Duration;

use parapage::conform::{NetFaultKind, NetFaultPlan};

/// A TCP stream with a deterministic fault schedule in front of it.
#[derive(Debug)]
pub struct FaultyTransport {
    inner: TcpStream,
    plan: Option<NetFaultPlan>,
    sent: u64,
    received: u64,
    severed: bool,
}

impl FaultyTransport {
    /// Wraps `stream`; `plan` is the fault schedule to act out (`None`
    /// for a clean passthrough that still counts bytes).
    pub fn new(stream: TcpStream, plan: Option<NetFaultPlan>) -> Self {
        FaultyTransport {
            inner: stream,
            plan,
            sent: 0,
            received: 0,
            severed: false,
        }
    }

    /// Bytes successfully handed to the socket so far.
    pub fn bytes_sent(&self) -> u64 {
        self.sent
    }

    /// Bytes successfully read off the socket so far.
    pub fn bytes_received(&self) -> u64 {
        self.received
    }

    /// Whether the plan has severed this connection.
    pub fn severed(&self) -> bool {
        self.severed
    }

    /// Sets (or clears) the inner socket's read timeout — the client's
    /// per-request deadline.
    ///
    /// # Errors
    /// Socket option failures, verbatim.
    pub fn set_read_timeout(&self, dur: Option<Duration>) -> std::io::Result<()> {
        self.inner.set_read_timeout(dur)
    }

    /// Severs the connection: both directions shut down, all subsequent
    /// operations fail.
    fn sever(&mut self) -> std::io::Error {
        self.severed = true;
        let _ = self.inner.shutdown(std::net::Shutdown::Both);
        std::io::Error::new(
            std::io::ErrorKind::ConnectionReset,
            "connection severed by fault plan",
        )
    }
}

impl Write for FaultyTransport {
    fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
        if self.severed {
            return Err(std::io::Error::new(
                std::io::ErrorKind::BrokenPipe,
                "connection previously severed by fault plan",
            ));
        }
        let Some(plan) = self.plan else {
            let n = self.inner.write(buf)?;
            self.sent += n as u64;
            return Ok(n);
        };
        if plan.cuts_send(self.sent) {
            return Err(self.sever());
        }
        if let Some(pause) = plan.write_pause(self.sent) {
            std::thread::sleep(pause);
        }
        let mut limit = plan.write_chunk(self.sent).min(buf.len());
        // Land the fault exactly at its offset: stop this write short so
        // the next one starts at `cut_at` — severing (cut-send) or
        // stalling (trickle) mid-frame whenever the cut point is inside a
        // frame.
        if matches!(plan.kind, NetFaultKind::CutSend | NetFaultKind::Trickle)
            && self.sent < plan.cut_at
        {
            limit = limit.min((plan.cut_at - self.sent) as usize);
        }
        let n = self.inner.write(&buf[..limit.max(1).min(buf.len())])?;
        self.sent += n as u64;
        Ok(n)
    }

    fn flush(&mut self) -> std::io::Result<()> {
        self.inner.flush()
    }
}

impl Read for FaultyTransport {
    fn read(&mut self, buf: &mut [u8]) -> std::io::Result<usize> {
        if self.severed {
            return Err(std::io::Error::new(
                std::io::ErrorKind::ConnectionReset,
                "connection previously severed by fault plan",
            ));
        }
        let Some(plan) = self.plan else {
            let n = self.inner.read(buf)?;
            self.received += n as u64;
            return Ok(n);
        };
        if plan.cuts_recv(self.received) {
            return Err(self.sever());
        }
        if let Some(pause) = plan.read_pause(self.received) {
            std::thread::sleep(pause);
        }
        let mut limit = buf.len();
        if plan.kind == NetFaultKind::CutRecv {
            limit = limit.min((plan.cut_at - self.received) as usize);
        }
        let take = limit.max(1).min(buf.len());
        let n = self.inner.read(&mut buf[..take])?;
        self.received += n as u64;
        Ok(n)
    }
}
