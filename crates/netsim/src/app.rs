//! Application framework: the code that runs on simulated hosts.
//!
//! An [`App`] is a callback-driven state machine. The engine invokes it on
//! start, on UDP datagram arrival, on timers, and on TCP events. During a
//! callback the app issues side effects through [`AppCtx`]; the engine
//! executes them after the callback returns (so callbacks never re-enter
//! the engine).

use crate::event::ConnId;
use crate::time::{SimDuration, SimTime};
use crate::topology::NodeId;
pub use crate::tcp::TcpEvent;
use rand::rngs::SmallRng;
use std::any::Any;
use std::net::Ipv4Addr;

/// Deferred side effects issued by an app during a callback.
#[derive(Debug)]
pub enum AppOp {
    /// Bind a UDP port to this app (datagrams to it are delivered here).
    BindUdp {
        /// Port to bind.
        port: u16,
    },
    /// Send a UDP datagram.
    SendUdp {
        /// Source port (needs no binding to send).
        src_port: u16,
        /// Destination address.
        dst: Ipv4Addr,
        /// Destination port.
        dst_port: u16,
        /// Payload bytes.
        payload: Vec<u8>,
    },
    /// Arm a one-shot timer owned by this app.
    SetTimer {
        /// Fire after this delay.
        delay: SimDuration,
        /// App-chosen identifier passed back in `on_timer`.
        timer_id: u64,
    },
    /// Listen for TCP connections on a port (accepted conns belong to
    /// this app).
    TcpListen {
        /// Port to listen on.
        port: u16,
    },
    /// Open a TCP connection (the id was pre-allocated synchronously).
    TcpConnect {
        /// Pre-allocated connection id.
        conn: ConnId,
        /// Destination address.
        dst: Ipv4Addr,
        /// Destination port.
        dst_port: u16,
    },
    /// Queue bytes on a connection.
    TcpSend {
        /// Connection.
        conn: ConnId,
        /// Bytes to append to the stream.
        data: Vec<u8>,
    },
    /// Half-close a connection (FIN after the queued bytes).
    TcpClose {
        /// Connection.
        conn: ConnId,
    },
}

/// The capability handle an app uses during a callback.
pub struct AppCtx<'a> {
    /// Current simulated time.
    pub now: SimTime,
    /// Node the app runs on.
    pub node: NodeId,
    /// The node's IP address.
    pub node_ip: Ipv4Addr,
    /// Deterministic per-host RNG.
    pub rng: &'a mut SmallRng,
    pub(crate) ops: &'a mut Vec<AppOp>,
    pub(crate) next_conn: &'a mut ConnId,
}

impl AppCtx<'_> {
    /// Bind a UDP port to this app.
    pub fn bind_udp(&mut self, port: u16) {
        self.ops.push(AppOp::BindUdp { port });
    }

    /// Send a UDP datagram.
    pub fn send_udp(&mut self, src_port: u16, dst: Ipv4Addr, dst_port: u16, payload: Vec<u8>) {
        self.ops.push(AppOp::SendUdp { src_port, dst, dst_port, payload });
    }

    /// Arm a one-shot timer; `timer_id` comes back in `on_timer`.
    pub fn set_timer(&mut self, delay: SimDuration, timer_id: u64) {
        self.ops.push(AppOp::SetTimer { delay, timer_id });
    }

    /// Listen for TCP connections on `port`.
    pub fn tcp_listen(&mut self, port: u16) {
        self.ops.push(AppOp::TcpListen { port });
    }

    /// Open a TCP connection; returns its id immediately (events arrive
    /// later: `Connected`, then `Data`/`Closed`).
    pub fn tcp_connect(&mut self, dst: Ipv4Addr, dst_port: u16) -> ConnId {
        let conn = *self.next_conn;
        *self.next_conn += 1;
        self.ops.push(AppOp::TcpConnect { conn, dst, dst_port });
        conn
    }

    /// Queue bytes on a connection.
    pub fn tcp_send(&mut self, conn: ConnId, data: Vec<u8>) {
        self.ops.push(AppOp::TcpSend { conn, data });
    }

    /// Half-close a connection.
    pub fn tcp_close(&mut self, conn: ConnId) {
        self.ops.push(AppOp::TcpClose { conn });
    }
}

/// A simulated application. Post-run inspection finds an installed app by
/// its concrete type: [`Simulator::app`](crate::Simulator::app) downcasts
/// it through `Any`, so an app implements only its callbacks.
pub trait App: Any + Send {
    /// Called once at simulation start.
    fn on_start(&mut self, ctx: &mut AppCtx<'_>);

    /// A UDP datagram arrived on a port this app bound.
    fn on_udp(
        &mut self,
        ctx: &mut AppCtx<'_>,
        from: Ipv4Addr,
        from_port: u16,
        to_port: u16,
        payload: &[u8],
    ) {
        let _ = (ctx, from, from_port, to_port, payload);
    }

    /// A timer armed via [`AppCtx::set_timer`] fired.
    fn on_timer(&mut self, ctx: &mut AppCtx<'_>, timer_id: u64) {
        let _ = (ctx, timer_id);
    }

    /// A TCP event on a connection this app owns.
    fn on_tcp(&mut self, ctx: &mut AppCtx<'_>, event: TcpEvent) {
        let _ = (ctx, event);
    }

    /// Kept only so that implementations written before `App: Any` still
    /// compile (the benchmark's apps define it); nothing calls it.
    fn as_any(&self) -> &dyn Any
    where
        Self: Sized,
    {
        self
    }

    /// Mutable twin of [`App::as_any`], kept for the same reason.
    fn as_any_mut(&mut self) -> &mut dyn Any
    where
        Self: Sized,
    {
        self
    }
}
