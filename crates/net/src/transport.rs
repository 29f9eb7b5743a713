//! Datagram transports: real UDP sockets and an in-process loopback.
//!
//! The runtime is transport-agnostic behind the [`Datagram`] trait —
//! the same [`crate::runtime::NodeRuntime`] drives a UDP cluster of OS
//! processes and a single-threaded loopback cluster used by the golden
//! parity tests. This module is the *only* place in the workspace that
//! touches raw sockets (enforced by the `raw-socket-io` audit rule):
//! everything above it deals in already-framed byte vectors.

use std::cell::RefCell;
use std::collections::VecDeque;
use std::io::ErrorKind;
use std::net::{Ipv4Addr, SocketAddrV4, UdpSocket};
use std::rc::Rc;

/// An unreliable, unordered datagram service between nodes addressed by
/// their grid id. Implementations may drop, duplicate, and reorder —
/// the link layer recovers — but must not corrupt silently (the wire
/// checksum catches in-flight corruption anyway).
pub trait Datagram {
    /// Best-effort send of one datagram to node `to`.
    fn send(&mut self, to: u32, bytes: &[u8]);

    /// Next available datagram, if any (non-blocking).
    fn poll(&mut self) -> Option<Vec<u8>>;

    /// Advances transport-internal time (used by the chaos shim to
    /// release delayed datagrams). The default transport has no clock.
    fn tick(&mut self, _now: u64) {}
}

/// UDP transport for a local cluster: node `i` binds
/// `127.0.0.1:base_port + i` and addresses peers the same way.
///
/// The socket is non-blocking; [`Datagram::poll`] drains at most one
/// datagram per call so the runtime's pump loop stays fair. Datagram
/// source addresses are ignored — sender identity rides in the packet
/// header, mirroring the sim channel's authoritative sender ids (and
/// the chaos shim sits *above* this layer, so it cannot forge them).
#[derive(Debug)]
pub struct UdpTransport {
    socket: UdpSocket,
    base_port: u16,
    buf: Box<[u8; 2048]>,
}

impl UdpTransport {
    /// Binds node `me`'s socket on `127.0.0.1:base_port + me`.
    ///
    /// # Errors
    ///
    /// Propagates bind/configure failures (port in use, etc.).
    pub fn bind(me: u32, base_port: u16) -> std::io::Result<Self> {
        let port = base_port
            .checked_add(u16::try_from(me).map_err(|_| {
                std::io::Error::new(ErrorKind::InvalidInput, "node id exceeds port space")
            })?)
            .ok_or_else(|| std::io::Error::new(ErrorKind::InvalidInput, "port overflow"))?;
        let socket = UdpSocket::bind(SocketAddrV4::new(Ipv4Addr::LOCALHOST, port))?;
        socket.set_nonblocking(true)?;
        Ok(UdpTransport {
            socket,
            base_port,
            buf: Box::new([0u8; 2048]),
        })
    }

    fn addr_of(&self, to: u32) -> Option<SocketAddrV4> {
        let port = self.base_port.checked_add(u16::try_from(to).ok()?)?;
        Some(SocketAddrV4::new(Ipv4Addr::LOCALHOST, port))
    }
}

impl Datagram for UdpTransport {
    fn send(&mut self, to: u32, bytes: &[u8]) {
        // Best effort by contract: a failed send is a lost datagram,
        // which the link layer's retransmission already covers.
        if let Some(addr) = self.addr_of(to) {
            let _ = self.socket.send_to(bytes, addr);
        }
    }

    fn poll(&mut self) -> Option<Vec<u8>> {
        match self.socket.recv_from(&mut self.buf[..]) {
            Ok((n, _src)) => Some(self.buf[..n].to_vec()),
            Err(e) if e.kind() == ErrorKind::WouldBlock => None,
            // Treat transient errors as silence; ARQ recovers.
            Err(_) => None,
        }
    }
}

/// Shared mailbox set for an in-process cluster: one FIFO of datagrams
/// per node, indexed by node id (`None` until that node first
/// attaches). Single-threaded by design (`Rc`, not `Arc`) — the
/// loopback cluster pumps its nodes round-robin on one thread, which
/// keeps parity tests deterministic without any thread scheduling.
#[derive(Debug, Default)]
pub struct LoopbackHub {
    queues: RefCell<Vec<Option<VecDeque<Vec<u8>>>>>,
}

impl LoopbackHub {
    /// A hub with no mailboxes yet (ports create theirs on attach).
    #[must_use]
    pub fn new() -> Rc<Self> {
        Rc::new(LoopbackHub::default())
    }

    /// Attaches node `me`, creating its mailbox (a node attaching again
    /// after a restart finds what was sent to it meanwhile).
    #[must_use]
    pub fn attach(self: &Rc<Self>, me: u32) -> LoopbackPort {
        let mut queues = self.queues.borrow_mut();
        if queues.len() <= me as usize {
            queues.resize_with(me as usize + 1, || None);
        }
        queues[me as usize].get_or_insert_with(VecDeque::new);
        LoopbackPort {
            hub: Rc::clone(self),
            me,
        }
    }

    /// Total undelivered datagrams across all mailboxes.
    #[cfg(test)]
    fn in_flight(&self) -> usize {
        self.queues
            .borrow()
            .iter()
            .flatten()
            .map(VecDeque::len)
            .sum()
    }
}

/// One node's endpoint on a [`LoopbackHub`].
#[derive(Debug)]
pub struct LoopbackPort {
    hub: Rc<LoopbackHub>,
    me: u32,
}

impl Datagram for LoopbackPort {
    fn send(&mut self, to: u32, bytes: &[u8]) {
        // Sends to detached nodes vanish, like UDP to a dead port.
        if let Some(Some(q)) = self.hub.queues.borrow_mut().get_mut(to as usize) {
            q.push_back(bytes.to_vec());
        }
    }

    fn poll(&mut self) -> Option<Vec<u8>> {
        self.hub
            .queues
            .borrow_mut()
            .get_mut(self.me as usize)?
            .as_mut()?
            .pop_front()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn loopback_delivers_fifo_between_ports() {
        let hub = LoopbackHub::new();
        let mut a = hub.attach(0);
        let mut b = hub.attach(1);
        a.send(1, b"one");
        a.send(1, b"two");
        assert_eq!(b.poll().as_deref(), Some(&b"one"[..]));
        assert_eq!(b.poll().as_deref(), Some(&b"two"[..]));
        assert_eq!(b.poll(), None);
        assert_eq!(a.poll(), None);
    }

    #[test]
    fn loopback_sends_to_unknown_nodes_vanish() {
        let hub = LoopbackHub::new();
        let mut a = hub.attach(0);
        a.send(99, b"void");
        assert_eq!(hub.in_flight(), 0);
    }

    #[test]
    fn udp_round_trips_a_datagram() {
        // Two transports on a private base port; packet header identity
        // is out of scope here — raw bytes only.
        let base = 46000;
        let mut a = match UdpTransport::bind(0, base) {
            Ok(t) => t,
            // Sandboxes without loopback sockets skip silently; the
            // cluster smoke in ci.sh exercises UDP end to end.
            Err(_) => return,
        };
        let mut b = match UdpTransport::bind(1, base) {
            Ok(t) => t,
            Err(_) => return,
        };
        a.send(1, b"ping");
        let mut got = None;
        for _ in 0..1000 {
            if let Some(bytes) = b.poll() {
                got = Some(bytes);
                break;
            }
            std::thread::sleep(std::time::Duration::from_millis(1));
        }
        assert_eq!(got.as_deref(), Some(&b"ping"[..]));
        assert_eq!(a.poll(), None);
    }
}
