//! A TCP-Reno-style reliable transport, used for task data transfers.
//!
//! The paper moves task payloads (0.5–5.5 MB, Table I) between edge devices
//! and edge servers over TCP on a congested network; transfer times emerge
//! from congestion control sharing bottleneck queues with background
//! traffic. This module implements the canonical Reno behaviours that
//! produce those dynamics:
//!
//! * three-way handshake, FIN close, cumulative ACKs,
//! * slow start / congestion avoidance (AIMD),
//! * fast retransmit + fast recovery on three duplicate ACKs,
//! * retransmission timeout with exponential backoff and go-back-N,
//! * RFC 6298 RTT estimation (Karn's rule: only un-retransmitted samples).
//!
//! The implementation is a pure state machine: it never touches the event
//! queue or the network directly. Callers invoke the `on_*`/verb methods
//! and then drain three outboxes — [`TcpHost::take_segments`] (segments to
//! put on the wire), [`TcpHost::take_timer_requests`] (RTO timers to arm),
//! and [`TcpHost::take_events`] (events to deliver to applications). This
//! makes the whole transport unit-testable with a two-line fake network.
//!
//! Stream offsets are tracked as `u64` byte offsets and mapped to 32-bit
//! wire sequence numbers at the edge; transfers in this system are far
//! below 4 GiB so no wrap handling is required (asserted).

use crate::event::ConnId;
use crate::time::{SimDuration, SimTime};
use int_packet::{TcpFlags, TcpHeader};
use std::collections::{BTreeMap, HashMap};
use std::net::Ipv4Addr;

/// Events surfaced to the owning application.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum TcpEvent {
    /// Active open completed (SYN-ACK received).
    Connected {
        /// The connection.
        conn: ConnId,
    },
    /// Passive open completed (handshake ACK received on a listener).
    Accepted {
        /// The new connection.
        conn: ConnId,
        /// Local port it was accepted on.
        local_port: u16,
        /// Remote address.
        peer: (Ipv4Addr, u16),
    },
    /// In-order payload bytes arrived.
    Data {
        /// The connection.
        conn: ConnId,
        /// The bytes, in stream order.
        data: Vec<u8>,
    },
    /// End of stream: for a receiver, the peer's FIN arrived after all data
    /// was delivered; for a sender, our FIN (and hence every byte we ever
    /// queued) has been acknowledged. Emitted exactly once per connection.
    Closed {
        /// The connection.
        conn: ConnId,
    },
}

/// A segment handed to the network layer for transmission.
#[derive(Debug, Clone)]
pub struct SegmentOut {
    /// Destination host.
    pub dst_ip: Ipv4Addr,
    /// Fully formed TCP header.
    pub header: TcpHeader,
    /// Payload bytes.
    pub payload: Vec<u8>,
}

/// A request to (re)arm a connection's retransmission timer.
#[derive(Debug, Clone, Copy)]
pub struct TimerRequest {
    /// Connection the timer belongs to.
    pub conn: ConnId,
    /// Absolute deadline.
    pub deadline: SimTime,
    /// Generation; fire only if still current.
    pub generation: u64,
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum State {
    SynSent,
    SynReceived,
    Established,
    /// Our FIN is in flight or queued; may still be retransmitting data.
    Closing,
    /// Everything done; kept briefly for bookkeeping then dropped.
    Done,
}

/// Maximum segment payload, bytes. 1400 keeps full segments near the
/// paper's 1.5 KB packets once Ethernet/IP/TCP headers are added.
const MSS: u64 = 1400;
/// Initial congestion window, in MSS (RFC 6928 IW10).
const INITIAL_CWND_MSS: u64 = 10;
/// Initial slow-start threshold, bytes.
const INITIAL_SSTHRESH: u64 = 256 * 1024;
/// Fixed advertised receive window, bytes (apps consume immediately).
const RECV_WINDOW: u32 = 1024 * 1024;
/// Lower bound for the retransmission timeout.
const MIN_RTO: SimDuration = SimDuration::from_millis(200);
/// Initial RTO before any RTT sample (RFC 6298: 1 s).
const INITIAL_RTO: SimDuration = SimDuration::from_secs(1);
/// Upper bound for backed-off RTOs.
const MAX_RTO: SimDuration = SimDuration::from_secs(60);

const CONNECT_MAX_RETRIES: u32 = 8;

/// Implicit window scale (RFC 7323 with a fixed shift both ends agree on):
/// the 16-bit wire window field is in units of 64 bytes, allowing windows
/// up to 4 MiB without carrying the option in our fixed 20-byte header.
const WINDOW_SHIFT: u32 = 6;

/// Encode a byte window into the scaled 16-bit wire field (rounds up so a
/// non-zero window never encodes to zero).
fn wire_window(bytes: u32) -> u16 {
    ((bytes + (1 << WINDOW_SHIFT) - 1) >> WINDOW_SHIFT).min(u16::MAX as u32) as u16
}

/// Decode the scaled wire field back to bytes.
fn unscale_window(wire: u16) -> u32 {
    (wire as u32) << WINDOW_SHIFT
}

struct Conn {
    id: ConnId,
    state: State,
    peer_ip: Ipv4Addr,
    peer_port: u16,
    local_port: u16,

    // ---- send side ----
    /// Initial send sequence number (wire); SYN consumes `iss`.
    iss: u32,
    /// All bytes ever queued for sending.
    snd_buf: Vec<u8>,
    /// First unacknowledged stream offset.
    snd_una: u64,
    /// Next stream offset to send.
    snd_nxt: u64,
    /// Peer's advertised receive window.
    snd_wnd: u32,
    /// Congestion window, bytes.
    cwnd: u64,
    /// Slow-start threshold, bytes.
    ssthresh: u64,
    /// Duplicate-ACK counter.
    dup_acks: u32,
    /// In fast recovery until `snd_una` reaches this offset.
    recover: Option<u64>,
    /// Application called close: FIN follows the last data byte.
    fin_queued: bool,
    /// FIN has been transmitted at least once.
    fin_sent: bool,
    /// Our FIN was acknowledged.
    fin_acked: bool,
    /// SYN retransmission counter (connect gives up after too many).
    syn_retries: u32,

    // ---- receive side ----
    /// Peer's initial sequence number (wire).
    irs: u32,
    /// Next expected stream offset from the peer.
    rcv_nxt: u64,
    /// Out-of-order segments keyed by stream offset.
    ooo: BTreeMap<u64, Vec<u8>>,
    /// Peer FIN's stream offset, once seen.
    peer_fin: Option<u64>,
    /// We already told the app the stream ended.
    eof_delivered: bool,
    /// Peer's FIN has been fully processed (it consumed one sequence slot).
    peer_fin_processed: bool,

    // ---- RTT / RTO ----
    srtt: Option<SimDuration>,
    rttvar: SimDuration,
    rto: SimDuration,
    /// Outstanding RTT sample: (stream offset that must be acked, send time).
    rtt_sample: Option<(u64, SimTime)>,
    /// Current timer generation.
    timer_gen: u64,
    /// True if a timer is conceptually armed.
    timer_armed: bool,
}

impl Conn {
    fn flight_size(&self) -> u64 {
        self.snd_nxt - self.snd_una
    }

    fn send_window(&self) -> u64 {
        self.cwnd.min(self.snd_wnd as u64)
    }

    /// Wire sequence for a stream offset (SYN consumes `iss`).
    fn wire_seq(&self, offset: u64) -> u32 {
        debug_assert!(offset < u32::MAX as u64, "stream too long for no-wrap mapping");
        self.iss.wrapping_add(1).wrapping_add(offset as u32)
    }

    /// Stream offset for a peer wire sequence.
    fn peer_offset(&self, seq: u32) -> i64 {
        // (seq - irs - 1) interpreted in a window around rcv_nxt.
        seq.wrapping_sub(self.irs).wrapping_sub(1) as i32 as i64
    }
}

/// Per-host TCP endpoint: all connections plus the three outboxes.
pub struct TcpHost {
    local_ip: Ipv4Addr,
    conns: HashMap<ConnId, Conn>,
    by_tuple: HashMap<(Ipv4Addr, u16, u16), ConnId>,
    listeners: Vec<u16>,
    next_ephemeral: u16,
    /// Next connection id; also advanced synchronously by `AppCtx` so apps
    /// get their `ConnId` before the engine processes the connect op.
    pub(crate) next_conn: ConnId,
    /// Deterministic ISS counter (no randomness needed inside a simulation).
    next_iss: u32,

    segments: Vec<SegmentOut>,
    timers: Vec<TimerRequest>,
    events: Vec<TcpEvent>,
}

impl TcpHost {
    /// New endpoint for a host with address `local_ip`.
    pub fn new(local_ip: Ipv4Addr) -> Self {
        TcpHost {
            local_ip,
            conns: HashMap::new(),
            by_tuple: HashMap::new(),
            listeners: Vec::new(),
            next_ephemeral: 40_000,
            next_conn: 1,
            next_iss: 1_000,
            segments: Vec::new(),
            timers: Vec::new(),
            events: Vec::new(),
        }
    }

    /// Drain segments to transmit.
    pub fn take_segments(&mut self) -> Vec<SegmentOut> {
        std::mem::take(&mut self.segments)
    }

    /// Drain timer (re)arm requests.
    pub fn take_timer_requests(&mut self) -> Vec<TimerRequest> {
        std::mem::take(&mut self.timers)
    }

    /// Drain application events.
    pub fn take_events(&mut self) -> Vec<TcpEvent> {
        std::mem::take(&mut self.events)
    }

    /// Number of live connections (diagnostics).
    pub fn conn_count(&self) -> usize {
        self.conns.len()
    }

    /// Address this endpoint sends from.
    pub fn local_ip(&self) -> Ipv4Addr {
        self.local_ip
    }

    /// Allocate a fresh connection id (to pass to [`TcpHost::connect`]).
    pub fn alloc_conn_id(&mut self) -> ConnId {
        let c = self.next_conn;
        self.next_conn += 1;
        c
    }

    /// Start listening for connections on `port`.
    pub fn listen(&mut self, port: u16) {
        if !self.listeners.contains(&port) {
            self.listeners.push(port);
        }
    }

    /// Begin an active open. `conn` must be a fresh id (allocated via
    /// `next_conn` by the caller).
    pub fn connect(&mut self, conn: ConnId, dst_ip: Ipv4Addr, dst_port: u16, now: SimTime) {
        let local_port = self.alloc_ephemeral();
        let iss = self.alloc_iss();
        let mut c = self.new_conn(conn, dst_ip, dst_port, local_port, iss);
        c.state = State::SynSent;
        self.by_tuple.insert((dst_ip, dst_port, local_port), conn);

        let hdr = TcpHeader {
            src_port: local_port,
            dst_port,
            seq: iss,
            ack: 0,
            flags: TcpFlags::SYN,
            window: wire_window(RECV_WINDOW),
        };
        self.segments.push(SegmentOut { dst_ip, header: hdr, payload: Vec::new() });
        self.conns.insert(conn, c);
        self.arm_timer(conn, now);
    }

    /// Queue bytes for sending on an established (or connecting) connection.
    pub fn send(&mut self, conn: ConnId, data: &[u8], now: SimTime) {
        let Some(c) = self.conns.get_mut(&conn) else { return };
        debug_assert!(!c.fin_queued, "send after close");
        c.snd_buf.extend_from_slice(data);
        self.pump(conn, now);
    }

    /// Half-close: no more data will be queued; FIN follows the last byte.
    pub fn close(&mut self, conn: ConnId, now: SimTime) {
        let Some(c) = self.conns.get_mut(&conn) else { return };
        if c.fin_queued {
            return;
        }
        c.fin_queued = true;
        if c.state == State::Established {
            c.state = State::Closing;
        }
        self.pump(conn, now);
    }

    /// A TCP segment addressed to this host arrived.
    pub fn on_segment(
        &mut self,
        now: SimTime,
        src_ip: Ipv4Addr,
        hdr: &TcpHeader,
        payload: &[u8],
    ) {
        let tuple = (src_ip, hdr.src_port, hdr.dst_port);
        if let Some(&conn) = self.by_tuple.get(&tuple) {
            self.on_conn_segment(conn, now, hdr, payload);
            return;
        }
        // New connection? Only SYNs to listening ports are honoured.
        if hdr.flags.syn && !hdr.flags.ack && self.listeners.contains(&hdr.dst_port) {
            self.accept_syn(now, src_ip, hdr);
        }
        // Anything else to an unknown tuple is silently dropped (no RST in
        // this simulation; nothing generates half-open traffic).
    }

    /// A retransmission timer fired.
    pub fn on_timer(&mut self, conn: ConnId, generation: u64, now: SimTime) {
        let Some(c) = self.conns.get_mut(&conn) else { return };
        if !c.timer_armed || c.timer_gen != generation {
            return; // stale timer
        }
        c.timer_armed = false;

        match c.state {
            State::SynSent | State::SynReceived => {
                c.syn_retries += 1;
                if c.syn_retries > CONNECT_MAX_RETRIES {
                    self.drop_conn(conn);
                    return;
                }
                c.rto = (c.rto * 2).min(MAX_RTO);
                let flags =
                    if c.state == State::SynSent { TcpFlags::SYN } else { TcpFlags::SYN_ACK };
                let ack = if c.state == State::SynSent { 0 } else { c.wire_ack() };
                let hdr = TcpHeader {
                    src_port: c.local_port,
                    dst_port: c.peer_port,
                    seq: c.iss,
                    ack,
                    flags,
                    window: wire_window(RECV_WINDOW),
                };
                let dst_ip = c.peer_ip;
                self.segments.push(SegmentOut { dst_ip, header: hdr, payload: Vec::new() });
                self.arm_timer(conn, now);
            }
            State::Established | State::Closing => {
                // RTO: multiplicative decrease, go-back-N, backoff.
                let flight = c.flight_size().max(1);
                c.ssthresh = (flight / 2).max(2 * MSS);
                c.cwnd = MSS;
                c.snd_nxt = c.snd_una;
                c.dup_acks = 0;
                c.recover = None;
                if c.fin_sent && !c.fin_acked {
                    c.fin_sent = false; // pump() will retransmit the FIN
                }
                c.rto = (c.rto * 2).min(MAX_RTO);
                c.rtt_sample = None; // Karn: no sampling across retransmits
                self.pump(conn, now);
            }
            State::Done => {}
        }
    }

    // ---------------------------------------------------------------- internals

    fn alloc_ephemeral(&mut self) -> u16 {
        let p = self.next_ephemeral;
        self.next_ephemeral = self.next_ephemeral.checked_add(1).unwrap_or(40_000);
        p
    }

    fn alloc_iss(&mut self) -> u32 {
        let iss = self.next_iss;
        self.next_iss = self.next_iss.wrapping_add(64_000);
        iss
    }

    fn new_conn(
        &self,
        id: ConnId,
        peer_ip: Ipv4Addr,
        peer_port: u16,
        local_port: u16,
        iss: u32,
    ) -> Conn {
        Conn {
            id,
            state: State::SynSent,
            peer_ip,
            peer_port,
            local_port,
            iss,
            snd_buf: Vec::new(),
            snd_una: 0,
            snd_nxt: 0,
            snd_wnd: RECV_WINDOW,
            cwnd: INITIAL_CWND_MSS * MSS,
            ssthresh: INITIAL_SSTHRESH,
            dup_acks: 0,
            recover: None,
            fin_queued: false,
            fin_sent: false,
            fin_acked: false,
            syn_retries: 0,
            irs: 0,
            rcv_nxt: 0,
            ooo: BTreeMap::new(),
            peer_fin: None,
            eof_delivered: false,
            peer_fin_processed: false,
            srtt: None,
            rttvar: SimDuration::ZERO,
            rto: INITIAL_RTO,
            rtt_sample: None,
            timer_gen: 0,
            timer_armed: false,
        }
    }

    fn accept_syn(&mut self, now: SimTime, src_ip: Ipv4Addr, hdr: &TcpHeader) {
        let conn = self.next_conn;
        self.next_conn += 1;
        let iss = self.alloc_iss();
        let mut c = self.new_conn(conn, src_ip, hdr.src_port, hdr.dst_port, iss);
        c.state = State::SynReceived;
        c.irs = hdr.seq;
        c.snd_wnd = unscale_window(hdr.window);
        let synack = TcpHeader {
            src_port: c.local_port,
            dst_port: c.peer_port,
            seq: iss,
            ack: hdr.seq.wrapping_add(1),
            flags: TcpFlags::SYN_ACK,
            window: wire_window(RECV_WINDOW),
        };
        self.by_tuple.insert((src_ip, hdr.src_port, hdr.dst_port), conn);
        self.segments.push(SegmentOut { dst_ip: src_ip, header: synack, payload: Vec::new() });
        self.conns.insert(conn, c);
        self.arm_timer(conn, now);
    }

    fn on_conn_segment(&mut self, conn: ConnId, now: SimTime, hdr: &TcpHeader, payload: &[u8]) {
        let Some(c) = self.conns.get_mut(&conn) else { return };

        match c.state {
            State::SynSent => {
                if hdr.flags.syn && hdr.flags.ack && hdr.ack == c.iss.wrapping_add(1) {
                    c.irs = hdr.seq;
                    c.snd_wnd = unscale_window(hdr.window);
                    c.state = State::Established;
                    c.timer_armed = false;
                    c.timer_gen += 1;
                    let id = c.id;
                    self.events.push(TcpEvent::Connected { conn: id });
                    self.send_ack(conn);
                    self.pump(conn, now);
                }
                return;
            }
            State::SynReceived => {
                if hdr.flags.ack && hdr.ack == c.iss.wrapping_add(1) && !hdr.flags.syn {
                    c.state = State::Established;
                    c.timer_armed = false;
                    c.timer_gen += 1;
                    let (id, lp, peer) = (c.id, c.local_port, (c.peer_ip, c.peer_port));
                    self.events.push(TcpEvent::Accepted { conn: id, local_port: lp, peer });
                    // The handshake ACK may carry data; fall through.
                } else if hdr.flags.syn && !hdr.flags.ack {
                    // Duplicate SYN: re-send SYN-ACK.
                    let synack = TcpHeader {
                        src_port: c.local_port,
                        dst_port: c.peer_port,
                        seq: c.iss,
                        ack: c.irs.wrapping_add(1),
                        flags: TcpFlags::SYN_ACK,
                        window: wire_window(RECV_WINDOW),
                    };
                    let dst = c.peer_ip;
                    self.segments.push(SegmentOut { dst_ip: dst, header: synack, payload: Vec::new() });
                    return;
                } else {
                    return;
                }
            }
            _ => {}
        }

        if hdr.flags.ack {
            self.process_ack(conn, hdr, payload.len(), now);
        }
        if !payload.is_empty() || hdr.flags.fin {
            self.process_data(conn, hdr, payload, now);
        }
        self.maybe_finish(conn);
    }

    fn process_ack(&mut self, conn: ConnId, hdr: &TcpHeader, payload_len: usize, now: SimTime) {
        let Some(c) = self.conns.get_mut(&conn) else { return };
        let fin_offset = c.snd_buf.len() as u64; // FIN occupies this offset
        let ack_off = {
            let raw = hdr.ack.wrapping_sub(c.iss).wrapping_sub(1);
            raw as u64
        };
        c.snd_wnd = unscale_window(hdr.window);

        if ack_off > fin_offset + 1 {
            return; // nonsense ack beyond anything we sent
        }

        if ack_off > c.snd_una {
            // New data acknowledged.
            c.snd_una = ack_off;
            // A late ACK for pre-RTO flight can outrun a rolled-back
            // snd_nxt (go-back-N); sending resumes from the ACK point.
            if c.snd_nxt < c.snd_una {
                c.snd_nxt = c.snd_una;
            }
            c.dup_acks = 0;

            // RTT sample (Karn-safe: sample invalidated on retransmit).
            if let Some((target, sent_at)) = c.rtt_sample {
                if c.snd_una >= target {
                    let sample = now.since(sent_at);
                    update_rtt(c, sample);
                    c.rtt_sample = None;
                }
            }

            if let Some(recover) = c.recover {
                if c.snd_una >= recover {
                    // Exit fast recovery (deflate).
                    c.cwnd = c.ssthresh;
                    c.recover = None;
                } else {
                    // Partial ACK: retransmit the next hole, stay in recovery.
                    self.retransmit_head(conn, now);
                    return;
                }
            } else if c.cwnd < c.ssthresh {
                // Slow start.
                c.cwnd += MSS;
            } else {
                // Congestion avoidance: +MSS per cwnd-worth of ACKs.
                let inc = (MSS * MSS / c.cwnd).max(1);
                c.cwnd += inc;
            }

            if c.fin_sent && c.snd_una > fin_offset {
                c.fin_acked = true;
            }

            // Re-arm or cancel the RTO timer.
            if c.flight_size() > 0 || (c.fin_sent && !c.fin_acked) {
                self.arm_timer(conn, now);
            } else {
                c.timer_armed = false;
                c.timer_gen += 1;
            }
            self.pump(conn, now);
        } else if ack_off == c.snd_una
            && c.flight_size() > 0
            && payload_len == 0
            && !hdr.flags.syn
            && !hdr.flags.fin
        {
            // Duplicate ACK.
            c.dup_acks += 1;
            if c.recover.is_some() {
                // Inflate during recovery; each dupack signals a departure.
                c.cwnd += MSS;
                self.pump(conn, now);
            } else if c.dup_acks == 3 {
                // Fast retransmit.
                let flight = c.flight_size();
                c.ssthresh = (flight / 2).max(2 * MSS);
                c.cwnd = c.ssthresh + 3 * MSS;
                c.recover = Some(c.snd_nxt);
                self.retransmit_head(conn, now);
            }
        }
    }

    /// Retransmit the segment at `snd_una` (or the FIN if all data acked).
    fn retransmit_head(&mut self, conn: ConnId, now: SimTime) {
        let Some(c) = self.conns.get_mut(&conn) else { return };
        c.rtt_sample = None; // Karn
        let data_len = c.snd_buf.len() as u64;
        if c.snd_una >= data_len {
            if c.fin_sent {
                Self::emit_fin(&mut self.segments, c, RECV_WINDOW);
            }
        } else {
            let end = (c.snd_una + MSS).min(data_len);
            let seg = c.snd_buf[c.snd_una as usize..end as usize].to_vec();
            Self::emit_data(&mut self.segments, c, c.snd_una, seg, RECV_WINDOW);
        }
        self.arm_timer(conn, now);
    }

    /// Transmit as much new data (and possibly the FIN) as windows allow.
    fn pump(&mut self, conn: ConnId, now: SimTime) {
        let Some(c) = self.conns.get_mut(&conn) else { return };
        if !matches!(c.state, State::Established | State::Closing) {
            return;
        }
        let data_len = c.snd_buf.len() as u64;
        let mut sent_any = false;

        while c.snd_nxt < data_len {
            let wnd = c.send_window();
            let in_flight = c.flight_size();
            if in_flight >= wnd {
                break;
            }
            let budget = (wnd - in_flight).min(MSS);
            let end = (c.snd_nxt + budget).min(data_len);
            if end == c.snd_nxt {
                break;
            }
            let seg = c.snd_buf[c.snd_nxt as usize..end as usize].to_vec();
            let offset = c.snd_nxt;
            c.snd_nxt = end;
            // One RTT sample at a time.
            if c.rtt_sample.is_none() {
                c.rtt_sample = Some((end, now));
            }
            Self::emit_data(&mut self.segments, c, offset, seg, RECV_WINDOW);
            sent_any = true;
        }

        // FIN once all data is out (it rides after the final byte).
        if c.fin_queued && !c.fin_sent && c.snd_nxt == data_len && c.flight_size() < c.send_window()
        {
            c.fin_sent = true;
            c.snd_nxt = data_len + 1; // FIN consumes one sequence slot
            Self::emit_fin(&mut self.segments, c, RECV_WINDOW);
            sent_any = true;
        }

        if sent_any && !c.timer_armed {
            self.arm_timer(conn, now);
        }
    }

    fn emit_data(
        segments: &mut Vec<SegmentOut>,
        c: &Conn,
        offset: u64,
        payload: Vec<u8>,
        recv_window: u32,
    ) {
        let hdr = TcpHeader {
            src_port: c.local_port,
            dst_port: c.peer_port,
            seq: c.wire_seq(offset),
            ack: c.wire_ack(),
            flags: TcpFlags::ACK,
            window: wire_window(recv_window),
        };
        segments.push(SegmentOut { dst_ip: c.peer_ip, header: hdr, payload });
    }

    fn emit_fin(segments: &mut Vec<SegmentOut>, c: &Conn, recv_window: u32) {
        let hdr = TcpHeader {
            src_port: c.local_port,
            dst_port: c.peer_port,
            seq: c.wire_seq(c.snd_buf.len() as u64),
            ack: c.wire_ack(),
            flags: TcpFlags::FIN_ACK,
            window: wire_window(recv_window),
        };
        segments.push(SegmentOut { dst_ip: c.peer_ip, header: hdr, payload: Vec::new() });
    }

    fn send_ack(&mut self, conn: ConnId) {
        let Some(c) = self.conns.get(&conn) else { return };
        let hdr = TcpHeader {
            src_port: c.local_port,
            dst_port: c.peer_port,
            seq: c.wire_seq(c.snd_nxt),
            ack: c.wire_ack(),
            flags: TcpFlags::ACK,
            window: wire_window(RECV_WINDOW),
        };
        self.segments.push(SegmentOut { dst_ip: c.peer_ip, header: hdr, payload: Vec::new() });
    }

    fn process_data(&mut self, conn: ConnId, hdr: &TcpHeader, payload: &[u8], now: SimTime) {
        let Some(c) = self.conns.get_mut(&conn) else { return };
        let seg_off = c.peer_offset(hdr.seq);

        if !payload.is_empty() {
            if seg_off < 0 {
                // Entirely before the stream start — stray; just ack.
                self.send_ack(conn);
                return;
            }
            let seg_off = seg_off as u64;
            if seg_off <= c.rcv_nxt {
                // In-order (possibly overlapping retransmission).
                let skip = (c.rcv_nxt - seg_off) as usize;
                if skip < payload.len() {
                    let mut delivered = payload[skip..].to_vec();
                    c.rcv_nxt += delivered.len() as u64;
                    // Drain contiguous out-of-order segments.
                    while let Some((&off, _)) = c.ooo.first_key_value() {
                        if off > c.rcv_nxt {
                            break;
                        }
                        let (off, buf) = c.ooo.pop_first().expect("checked non-empty");
                        let skip = (c.rcv_nxt - off) as usize;
                        if skip < buf.len() {
                            delivered.extend_from_slice(&buf[skip..]);
                            c.rcv_nxt = off + buf.len() as u64;
                        }
                    }
                    let id = c.id;
                    self.events.push(TcpEvent::Data { conn: id, data: delivered });
                }
            } else {
                // Out of order: buffer (keep the longest variant per offset).
                let entry = c.ooo.entry(seg_off).or_default();
                if entry.len() < payload.len() {
                    *entry = payload.to_vec();
                }
            }
        }

        let Some(c) = self.conns.get_mut(&conn) else { return };
        if hdr.flags.fin {
            let fin_off = {
                let base = c.peer_offset(hdr.seq);
                (base.max(0) as u64) + payload.len() as u64
            };
            c.peer_fin = Some(fin_off);
        }
        if let Some(fin_off) = c.peer_fin {
            if c.rcv_nxt == fin_off && !c.peer_fin_processed {
                c.peer_fin_processed = true;
                c.rcv_nxt += 1; // FIN consumes one sequence slot
                if !c.eof_delivered {
                    c.eof_delivered = true;
                    let id = c.id;
                    self.events.push(TcpEvent::Closed { conn: id });
                }
                // Passive close: if the app never queued data and never
                // closed, close now so the handshake completes.
                if !c.fin_queued {
                    c.fin_queued = true;
                    if c.state == State::Established {
                        c.state = State::Closing;
                    }
                }
            }
        }

        self.send_ack(conn);
        self.pump(conn, now);
    }

    /// Sender-side completion check: FIN acked ⇒ notify and drop state.
    fn maybe_finish(&mut self, conn: ConnId) {
        let Some(c) = self.conns.get_mut(&conn) else { return };
        if c.fin_acked && c.state != State::Done {
            c.state = State::Done;
            c.timer_armed = false;
            c.timer_gen += 1;
            if !c.eof_delivered {
                c.eof_delivered = true;
                let id = c.id;
                self.events.push(TcpEvent::Closed { conn: id });
            }
            // Keep the tuple mapping so late retransmissions from the peer
            // can still be acked; drop fully once the peer is also done.
            if c.peer_fin_processed {
                self.drop_conn(conn);
            }
        } else if c.state != State::Done {
            // Receiver side: both FINs exchanged?
            if c.peer_fin_processed && c.fin_acked {
                self.drop_conn(conn);
            }
        }
    }

    fn drop_conn(&mut self, conn: ConnId) {
        if let Some(c) = self.conns.remove(&conn) {
            self.by_tuple.remove(&(c.peer_ip, c.peer_port, c.local_port));
        }
    }

    fn arm_timer(&mut self, conn: ConnId, now: SimTime) {
        let Some(c) = self.conns.get_mut(&conn) else { return };
        c.timer_gen += 1;
        c.timer_armed = true;
        self.timers.push(TimerRequest {
            conn,
            deadline: now + c.rto,
            generation: c.timer_gen,
        });
    }
}

impl Conn {
    /// Current cumulative ACK value on the wire.
    fn wire_ack(&self) -> u32 {
        debug_assert!(self.rcv_nxt < u32::MAX as u64);
        self.irs.wrapping_add(1).wrapping_add(self.rcv_nxt as u32)
    }
}

fn update_rtt(c: &mut Conn, sample: SimDuration) {
    match c.srtt {
        None => {
            c.srtt = Some(sample);
            c.rttvar = SimDuration::from_nanos(sample.as_nanos() / 2);
        }
        Some(srtt) => {
            // RFC 6298: rttvar = 3/4 rttvar + 1/4 |srtt - sample|
            //           srtt   = 7/8 srtt   + 1/8 sample
            let diff = if srtt >= sample { srtt - sample } else { sample - srtt };
            c.rttvar = SimDuration::from_nanos(
                (3 * c.rttvar.as_nanos() + diff.as_nanos()) / 4,
            );
            c.srtt =
                Some(SimDuration::from_nanos((7 * srtt.as_nanos() + sample.as_nanos()) / 8));
        }
    }
    let rto = SimDuration::from_nanos(
        c.srtt.expect("just set").as_nanos() + 4 * c.rttvar.as_nanos().max(1_000_000),
    );
    c.rto = rto.max(MIN_RTO).min(MAX_RTO);
}

#[cfg(test)]
mod tests {
    use super::*;

    const A_IP: Ipv4Addr = Ipv4Addr::new(10, 0, 0, 1);
    const B_IP: Ipv4Addr = Ipv4Addr::new(10, 0, 0, 2);

    /// A zero-latency fake network: repeatedly exchange segments between
    /// two hosts until quiescent. `drop_filter(from_a, header, payload_len)`
    /// returns true to drop a segment.
    fn exchange(
        a: &mut TcpHost,
        b: &mut TcpHost,
        now: SimTime,
        mut drop_filter: impl FnMut(bool, &TcpHeader, usize) -> bool,
    ) {
        for _round in 0..10_000 {
            let from_a = a.take_segments();
            let from_b = b.take_segments();
            if from_a.is_empty() && from_b.is_empty() {
                return;
            }
            for s in from_a {
                if !drop_filter(true, &s.header, s.payload.len()) {
                    b.on_segment(now, A_IP, &s.header, &s.payload);
                }
            }
            for s in from_b {
                if !drop_filter(false, &s.header, s.payload.len()) {
                    a.on_segment(now, B_IP, &s.header, &s.payload);
                }
            }
        }
        panic!("exchange did not quiesce");
    }

    fn pair() -> (TcpHost, TcpHost) {
        (TcpHost::new(A_IP), TcpHost::new(B_IP))
    }

    fn collect_data(events: &[TcpEvent]) -> Vec<u8> {
        let mut out = Vec::new();
        for e in events {
            if let TcpEvent::Data { data, .. } = e {
                out.extend_from_slice(data);
            }
        }
        out
    }

    #[test]
    fn handshake_and_small_transfer() {
        let (mut a, mut b) = pair();
        b.listen(7100);
        let conn = a.next_conn;
        a.next_conn += 1;
        a.connect(conn, B_IP, 7100, SimTime::ZERO);
        exchange(&mut a, &mut b, SimTime(1), |_, _, _| false);

        let ev_a = a.take_events();
        assert!(matches!(ev_a[0], TcpEvent::Connected { .. }), "{ev_a:?}");
        let ev_b = b.take_events();
        assert!(matches!(ev_b[0], TcpEvent::Accepted { local_port: 7100, .. }), "{ev_b:?}");

        a.send(conn, b"hello edge", SimTime(2));
        a.close(conn, SimTime(2));
        exchange(&mut a, &mut b, SimTime(3), |_, _, _| false);

        let ev_b = b.take_events();
        assert_eq!(collect_data(&ev_b), b"hello edge");
        assert!(
            ev_b.iter().any(|e| matches!(e, TcpEvent::Closed { .. })),
            "receiver sees EOF: {ev_b:?}"
        );
        let ev_a = a.take_events();
        assert!(
            ev_a.iter().any(|e| matches!(e, TcpEvent::Closed { .. })),
            "sender learns completion: {ev_a:?}"
        );
    }

    #[test]
    fn bulk_transfer_multiple_segments() {
        let (mut a, mut b) = pair();
        b.listen(7100);
        let conn = a.next_conn;
        a.next_conn += 1;
        a.connect(conn, B_IP, 7100, SimTime::ZERO);
        exchange(&mut a, &mut b, SimTime(1), |_, _, _| false);
        a.take_events();
        b.take_events();

        let data: Vec<u8> = (0..100_000u32).map(|i| (i % 251) as u8).collect();
        a.send(conn, &data, SimTime(2));
        a.close(conn, SimTime(2));
        exchange(&mut a, &mut b, SimTime(3), |_, _, _| false);

        assert_eq!(collect_data(&b.take_events()), data);
    }

    #[test]
    fn lost_data_segment_recovers_via_fast_retransmit() {
        let (mut a, mut b) = pair();
        b.listen(7100);
        let conn = a.next_conn;
        a.next_conn += 1;
        a.connect(conn, B_IP, 7100, SimTime::ZERO);
        exchange(&mut a, &mut b, SimTime(1), |_, _, _| false);
        a.take_events();
        b.take_events();

        let data: Vec<u8> = (0..50_000u32).map(|i| (i % 253) as u8).collect();
        a.send(conn, &data, SimTime(2));
        a.close(conn, SimTime(2));

        // Drop exactly one data segment (the 3rd) once.
        let mut dropped = 0;
        let mut count = 0;
        exchange(&mut a, &mut b, SimTime(3), |from_a, _h, plen| {
            if from_a && plen > 0 {
                count += 1;
                if count == 3 && dropped == 0 {
                    dropped += 1;
                    return true;
                }
            }
            false
        });
        assert_eq!(dropped, 1, "the drop actually happened");
        assert_eq!(collect_data(&b.take_events()), data, "stream intact after loss");
    }

    #[test]
    fn lost_syn_recovers_via_rto() {
        let (mut a, mut b) = pair();
        b.listen(7100);
        let conn = a.next_conn;
        a.next_conn += 1;
        a.connect(conn, B_IP, 7100, SimTime::ZERO);

        // Drop the first SYN.
        let segs = a.take_segments();
        assert_eq!(segs.len(), 1);
        assert!(segs[0].header.flags.syn);

        // Fire the connect RTO.
        let timers = a.take_timer_requests();
        assert_eq!(timers.len(), 1);
        a.on_timer(timers[0].conn, timers[0].generation, timers[0].deadline);

        exchange(&mut a, &mut b, timers[0].deadline, |_, _, _| false);
        assert!(a.take_events().iter().any(|e| matches!(e, TcpEvent::Connected { .. })));
    }

    #[test]
    fn rto_go_back_n_recovers_tail_loss() {
        let (mut a, mut b) = pair();
        b.listen(7100);
        let conn = a.next_conn;
        a.next_conn += 1;
        a.connect(conn, B_IP, 7100, SimTime::ZERO);
        exchange(&mut a, &mut b, SimTime(1), |_, _, _| false);
        a.take_events();
        b.take_events();

        // Send less than one window so no dupacks can be generated, then
        // drop the final data segment: only RTO can recover.
        let data = vec![7u8; 3 * 1400];
        a.send(conn, &data, SimTime(2));
        let mut data_segs = 0;
        exchange(&mut a, &mut b, SimTime(3), |from_a, _h, plen| {
            if from_a && plen > 0 {
                data_segs += 1;
                return data_segs == 3; // drop the 3rd and final segment
            }
            false
        });
        assert!(collect_data(&b.take_events()).len() < data.len());

        // Fire the pending RTO (latest generation wins).
        let t = a
            .take_timer_requests()
            .into_iter()
            .max_by_key(|t| t.generation)
            .expect("timer armed");
        a.on_timer(t.conn, t.generation, t.deadline);
        exchange(&mut a, &mut b, t.deadline, |_, _, _| false);

        a.close(conn, t.deadline);
        exchange(&mut a, &mut b, t.deadline, |_, _, _| false);
        let got = collect_data(&b.take_events());
        assert_eq!(got.len(), data.len() - 2 * 1400, "remaining bytes arrive after RTO");
    }

    #[test]
    fn stale_timer_generation_is_ignored() {
        let (mut a, mut b) = pair();
        b.listen(7100);
        let conn = a.next_conn;
        a.next_conn += 1;
        a.connect(conn, B_IP, 7100, SimTime::ZERO);
        let stale = a.take_timer_requests()[0];
        exchange(&mut a, &mut b, SimTime(1), |_, _, _| false);
        a.take_events();

        let segs_before = a.take_segments().len();
        a.on_timer(stale.conn, stale.generation, SimTime(2));
        assert_eq!(a.take_segments().len(), segs_before, "stale timer does nothing");
    }

    #[test]
    fn cwnd_grows_in_slow_start() {
        let (mut a, mut b) = pair();
        b.listen(7100);
        let conn = a.next_conn;
        a.next_conn += 1;
        a.connect(conn, B_IP, 7100, SimTime::ZERO);
        exchange(&mut a, &mut b, SimTime(1), |_, _, _| false);

        let before = a.conns[&conn].cwnd;
        let data = vec![1u8; 200_000];
        a.send(conn, &data, SimTime(2));
        exchange(&mut a, &mut b, SimTime(3), |_, _, _| false);
        let after = a.conns[&conn].cwnd;
        assert!(after > before, "cwnd grew: {before} -> {after}");
    }

    #[test]
    fn loss_halves_effective_window() {
        let (mut a, mut b) = pair();
        b.listen(7100);
        let conn = a.next_conn;
        a.next_conn += 1;
        a.connect(conn, B_IP, 7100, SimTime::ZERO);
        exchange(&mut a, &mut b, SimTime(1), |_, _, _| false);

        let data = vec![1u8; 500_000];
        a.send(conn, &data, SimTime(2));
        let mut count = 0;
        exchange(&mut a, &mut b, SimTime(3), |from_a, _h, plen| {
            if from_a && plen > 0 {
                count += 1;
                return count == 20; // drop one mid-stream segment
            }
            false
        });
        let c = &a.conns[&conn];
        assert!(
            c.ssthresh < INITIAL_SSTHRESH,
            "ssthresh reduced after loss: {}",
            c.ssthresh
        );
        assert_eq!(collect_data(&b.take_events()), data);
    }

    #[test]
    fn two_simultaneous_connections_are_independent() {
        let (mut a, mut b) = pair();
        b.listen(7100);
        b.listen(7200);
        let c1 = a.next_conn;
        a.next_conn += 1;
        let c2 = a.next_conn;
        a.next_conn += 1;
        a.connect(c1, B_IP, 7100, SimTime::ZERO);
        a.connect(c2, B_IP, 7200, SimTime::ZERO);
        exchange(&mut a, &mut b, SimTime(1), |_, _, _| false);
        a.take_events();
        let mut port_of = std::collections::HashMap::new();
        for e in b.take_events() {
            if let TcpEvent::Accepted { conn, local_port, .. } = e {
                port_of.insert(conn, local_port);
            }
        }

        a.send(c1, b"first", SimTime(2));
        a.send(c2, b"second", SimTime(2));
        a.close(c1, SimTime(2));
        a.close(c2, SimTime(2));
        exchange(&mut a, &mut b, SimTime(3), |_, _, _| false);

        let evs = b.take_events();
        let mut by_port: Vec<(u16, Vec<u8>)> = Vec::new();
        for e in &evs {
            if let TcpEvent::Data { conn, data } = e {
                by_port.push((port_of[conn], data.clone()));
            }
        }
        assert!(by_port.contains(&(7100, b"first".to_vec())));
        assert!(by_port.contains(&(7200, b"second".to_vec())));
    }

    #[test]
    fn syn_to_non_listening_port_is_dropped() {
        let (mut a, mut b) = pair();
        let conn = a.next_conn;
        a.next_conn += 1;
        a.connect(conn, B_IP, 9999, SimTime::ZERO);
        let segs = a.take_segments();
        for s in segs {
            b.on_segment(SimTime(1), A_IP, &s.header, &s.payload);
        }
        assert!(b.take_segments().is_empty(), "no response to closed port");
        assert_eq!(b.conn_count(), 0);
    }

    #[test]
    fn rtt_estimator_tracks_sample() {
        let mut c = TcpHost::new(A_IP).new_conn(1, B_IP, 1, 2, 0);
        update_rtt(&mut c, SimDuration::from_millis(40));
        assert_eq!(c.srtt.unwrap(), SimDuration::from_millis(40));
        assert_eq!(c.rto, SimDuration::from_millis(120).max(MIN_RTO));
        // Converges toward a stable series of samples.
        for _ in 0..50 {
            update_rtt(&mut c, SimDuration::from_millis(60));
        }
        let srtt = c.srtt.unwrap().as_millis_f64();
        assert!((srtt - 60.0).abs() < 2.0, "srtt converged: {srtt}");
    }
}

#[cfg(test)]
mod window_tests {
    use super::*;

    const A_IP: Ipv4Addr = Ipv4Addr::new(10, 0, 0, 1);
    const B_IP: Ipv4Addr = Ipv4Addr::new(10, 0, 0, 2);

    #[test]
    fn window_scale_roundtrips_and_rounds_up() {
        assert_eq!(unscale_window(wire_window(1024 * 1024)), 1024 * 1024);
        assert_eq!(unscale_window(wire_window(64)), 64);
        // Non-multiple rounds up, never to zero.
        assert!(unscale_window(wire_window(65)) >= 65);
        assert!(wire_window(1) > 0);
        assert_eq!(wire_window(0), 0);
    }

    #[test]
    fn sender_respects_peer_receive_window() {
        // Tiny receiver window: the sender must not exceed it in flight.
        // The test plays the network and shrinks the window every segment
        // of the receiver advertises.
        let mut a = TcpHost::new(A_IP);
        let mut b = TcpHost::new(B_IP);
        b.listen(7100);
        let conn = a.alloc_conn_id();
        a.connect(conn, B_IP, 7100, SimTime(0));

        // Handshake.
        for _ in 0..4 {
            for s in a.take_segments() {
                b.on_segment(SimTime(1), A_IP, &s.header, &s.payload);
            }
            for s in b.take_segments() {
                let small = TcpHeader { window: wire_window(4096), ..s.header };
                a.on_segment(SimTime(1), B_IP, &small, &s.payload);
            }
        }
        a.take_events();
        b.take_events();

        // Queue much more than the window; count unacked bytes in flight.
        a.send(conn, &vec![0u8; 100_000], SimTime(2));
        let in_flight: usize = a.take_segments().iter().map(|s| s.payload.len()).sum();
        assert!(in_flight <= 4096 + 64, "flight {in_flight} bounded by peer window");
    }

    #[test]
    fn connect_gives_up_after_max_syn_retries() {
        let mut a = TcpHost::new(A_IP);
        let conn = a.alloc_conn_id();
        a.connect(conn, B_IP, 9999, SimTime(0));
        assert_eq!(a.conn_count(), 1);
        // Fire every retransmission without ever delivering the SYN.
        for _ in 0..=CONNECT_MAX_RETRIES + 1 {
            a.take_segments();
            for t in a.take_timer_requests() {
                a.on_timer(t.conn, t.generation, t.deadline);
            }
        }
        assert_eq!(a.conn_count(), 0, "abandoned after bounded retries");
    }

    #[test]
    fn out_of_order_segments_reassemble() {
        let (mut a, mut b) = (
            TcpHost::new(A_IP),
            TcpHost::new(B_IP),
        );
        b.listen(7100);
        let conn = a.alloc_conn_id();
        a.connect(conn, B_IP, 7100, SimTime(0));
        for _ in 0..4 {
            for s in a.take_segments() {
                b.on_segment(SimTime(1), A_IP, &s.header, &s.payload);
            }
            for s in b.take_segments() {
                a.on_segment(SimTime(1), B_IP, &s.header, &s.payload);
            }
        }
        a.take_events();
        b.take_events();

        let data: Vec<u8> = (0..7000u32).map(|i| (i % 251) as u8).collect();
        a.send(conn, &data, SimTime(2));
        // Deliver the sender's burst in REVERSE order.
        let segs = a.take_segments();
        assert!(segs.len() >= 3, "several segments in flight");
        for s in segs.iter().rev() {
            b.on_segment(SimTime(3), A_IP, &s.header, &s.payload);
        }
        let mut got = Vec::new();
        for e in b.take_events() {
            if let TcpEvent::Data { data, .. } = e {
                got.extend_from_slice(&data);
            }
        }
        assert_eq!(got, data, "reassembled in order despite reversed delivery");
    }
}
