//! A blocking protocol client: one TCP connection speaking the framed
//! request/reply stream, used by the load driver and the protocol tests.
//!
//! Every client reads and writes through a [`FaultyTransport`] — a
//! passthrough unless a deterministic fault plan is attached — so clean
//! traffic and chaos traffic share one code path and the wire byte
//! counters are always available. A per-request read deadline can be set with
//! [`Client::set_deadline`]; expiry surfaces as the typed
//! [`WireError::TimedOut`]. For automatic reconnect, re-attach, and retry
//! on top of this single-connection client, see
//! [`ResilientClient`](crate::resilient::ResilientClient).

use std::net::{TcpStream, ToSocketAddrs};
use std::time::Duration;

use parapage::conform::NetFaultPlan;

use crate::chaosnet::FaultyTransport;
use crate::protocol::{
    c2s_chain_seed, s2c_chain_seed, Frame, TenantConfig, WireError, WireState, PROTO_VERSION,
};

/// One connection to a `parapage serve` daemon.
#[derive(Debug)]
pub struct Client {
    stream: FaultyTransport,
    send: WireState,
    recv: WireState,
}

impl Client {
    /// Connects without opening a session (send `Hello` via [`Client::hello`]).
    ///
    /// # Errors
    /// Connection failures, verbatim.
    pub fn connect(addr: impl ToSocketAddrs) -> std::io::Result<Client> {
        Client::connect_with(addr, None, None)
    }

    /// Connects with an optional deterministic fault plan on the transport
    /// and an optional per-request read deadline.
    ///
    /// # Errors
    /// Connection failures, verbatim.
    pub fn connect_with(
        addr: impl ToSocketAddrs,
        plan: Option<NetFaultPlan>,
        deadline: Option<Duration>,
    ) -> std::io::Result<Client> {
        let stream = TcpStream::connect(addr)?;
        stream.set_nodelay(true)?;
        stream.set_read_timeout(deadline)?;
        Ok(Client {
            stream: FaultyTransport::new(stream, plan),
            send: WireState::new(c2s_chain_seed()),
            recv: WireState::new(s2c_chain_seed()),
        })
    }

    /// Sets (or clears) the per-request read deadline; an expired deadline
    /// surfaces as [`WireError::TimedOut`] from [`Client::recv`].
    ///
    /// # Errors
    /// Socket option failures, verbatim.
    pub fn set_deadline(&self, deadline: Option<Duration>) -> std::io::Result<()> {
        self.stream.set_read_timeout(deadline)
    }

    /// The transport underneath, with its wire byte counters.
    pub fn transport(&self) -> &FaultyTransport {
        &self.stream
    }

    /// Sends one frame.
    ///
    /// # Errors
    /// Transport or encode failures as [`WireError`].
    pub fn send(&mut self, frame: &Frame) -> Result<(), WireError> {
        self.send.write_frame(&mut self.stream, frame)
    }

    /// Receives one frame.
    ///
    /// # Errors
    /// Transport, framing, or decode failures as [`WireError`].
    pub fn recv(&mut self) -> Result<Frame, WireError> {
        self.recv.read_frame(&mut self.stream)
    }

    /// Sends a frame and returns the server's reply (the protocol is
    /// strictly request/reply per connection).
    ///
    /// # Errors
    /// Transport, framing, or decode failures as [`WireError`].
    pub fn call(&mut self, frame: &Frame) -> Result<Frame, WireError> {
        self.send(frame)?;
        self.recv()
    }

    /// Opens (or re-attaches to) a tenant session; returns the server's
    /// reply — `HelloAck` on admission, `Busy` under load shedding,
    /// `Error` on rejection.
    ///
    /// # Errors
    /// Transport, framing, or decode failures as [`WireError`].
    pub fn hello(&mut self, config: TenantConfig) -> Result<Frame, WireError> {
        self.call(&Frame::Hello {
            proto: PROTO_VERSION,
            config,
        })
    }
}
