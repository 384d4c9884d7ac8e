package core

import (
	"encoding/binary"
	"errors"
	"sort"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"rpcoib/internal/exec"
	"rpcoib/internal/trace"
	"rpcoib/internal/tracing"
	"rpcoib/internal/transport"
	"rpcoib/internal/wire"
)

// ErrTimeout reports that a call exceeded the client's timeout.
var ErrTimeout = errors.New("rpc: call timed out")

// ErrClosed reports a connection torn down with calls in flight.
var ErrClosed = errors.New("rpc: connection closed")

// ErrDeadlineExceeded reports a call whose propagated deadline passed before
// a response arrived. The server may have dropped it undispatched
// (statusExpired) or the wait may have expired locally; either way no more
// work is done on it anywhere.
var ErrDeadlineExceeded = errors.New("rpc: call deadline exceeded")

// ErrServerTooBusy reports a call shed by the server's admission control
// (full call queue). It is retriable; the TooBusyError carrying it suggests
// how long to back off.
var ErrServerTooBusy = errors.New("rpc: server too busy")

// TooBusyError is the client-side face of a shed call: it matches
// ErrServerTooBusy under errors.Is and carries the server-suggested backoff
// that CallPolicy honors before the next attempt.
type TooBusyError struct{ Backoff time.Duration }

// Error implements error.
func (e *TooBusyError) Error() string {
	return "rpc: server too busy (retry after " + e.Backoff.String() + ")"
}

// Unwrap makes errors.Is(err, ErrServerTooBusy) work.
func (e *TooBusyError) Unwrap() error { return ErrServerTooBusy }

// RemoteError carries a server-side failure back to the caller.
type RemoteError struct{ Msg string }

// Error implements error.
func (e *RemoteError) Error() string { return "rpc: remote error: " + e.Msg }

// ClientStats counts client activity. Calls counts call attempts issued and
// Resolved counts futures that reached an outcome (success or failure); the
// two match once every future has been waited, which is the no-leaked-future
// invariant fault-injection runs assert at quiescence.
type ClientStats struct {
	Calls    atomic.Int64
	Resolved atomic.Int64
	Errors   atomic.Int64
	BytesOut atomic.Int64
}

// Client issues RPC calls. One Client multiplexes any number of caller
// threads over cached per-server connections, exactly like Hadoop's
// RPC.getProxy machinery: callers serialize and send under a per-connection
// lock; a dedicated Connection thread receives and dispatches responses.
type Client struct {
	engine
	net     transport.Network
	timeout time.Duration

	mu       sync.Mutex
	connMu   *emutex
	conns    map[connKey]*Connection
	breakers map[string]*breaker
	railSets map[string]*railSet // per peer, multi-rail networks only
	idSeq    atomic.Int32
	m        clientMetrics
	keys     keyCache

	// Stats counts issued calls and failures.
	Stats ClientStats
}

// connKey names one cached connection: the peer address, which transport
// flavor reaches it, and — on multi-rail networks — which rail carries it.
// Primary and fallback connections to the same peer coexist, so a half-open
// probe on the primary never tears down the fallback the other callers are
// still using (and vice versa); likewise connections on different rails
// coexist, which is what lets the selector spread load and keep a healthy
// rail's connection warm while probing a healed one.
type connKey struct {
	addr     string
	fallback bool
	rail     int // always 0 on single-rail networks
}

// NewClient creates a client over net with the given options.
func NewClient(net transport.Network, opts Options) *Client {
	opts = opts.withDefaults()
	if opts.Pool != nil {
		opts.Pool.Instrument(opts.Metrics, mClientPoolPrefix)
	}
	return &Client{
		engine:  engine{opts: opts},
		net:     net,
		timeout: opts.CallTimeout,
		conns:   map[connKey]*Connection{},
		m:       newClientMetrics(opts.Metrics),
	}
}

// Connection is the client side of one transport connection plus its
// pending-call table and receiver thread.
type Connection struct {
	client    *Client
	tc        transport.Conn
	fallback  bool     // riding the network's fallback transport
	br        *breaker // non-nil when failover guards this peer
	rail      int      // rail carrying this connection (multi-rail networks)
	rs        *railSet // non-nil on multi-rail networks (primary conns only)
	sendMu    *emutex
	mu        sync.Mutex
	calls     map[int32]*Future
	streamBuf []byte // persistent BufferedOutputStream analog (baseline)
	lastSend  time.Duration
	lastUsed  time.Duration // last call issue, for idle reaping
	closed    bool
	closeErr  error
}

// touch records call activity for the idle reaper.
func (conn *Connection) touch(now time.Duration) {
	conn.mu.Lock()
	conn.lastUsed = now
	conn.mu.Unlock()
}

func (conn *Connection) isClosed() bool {
	conn.mu.Lock()
	defer conn.mu.Unlock()
	return conn.closed
}

func (conn *Connection) closeError() error {
	conn.mu.Lock()
	defer conn.mu.Unlock()
	return conn.closeErr
}

// connection returns (establishing on demand) the connection to addr. With
// failover armed, the peer's circuit breaker chooses between the primary
// transport and the network's fallback; each flavor is cached independently.
func (c *Client) connection(e exec.Env, addr string) (*Connection, error) {
	c.mu.Lock()
	if c.connMu == nil {
		c.connMu = newEmutex(e)
	}
	mu := c.connMu
	c.mu.Unlock()

	// The emutex may be held across the blocking Dial; a sync.Mutex must
	// not be (it would wedge the cooperative scheduler).
	mu.lock(e)
	defer mu.unlock()

	var br *breaker
	fd, hasFallback := c.net.(transport.FallbackDialer)
	if c.opts.Failover && hasFallback {
		br = c.breaker(addr)
	}
	key := connKey{addr: addr}
	if br != nil {
		key.fallback = br.route(e.Now())
	}
	// Rail selection on the primary path of a multi-rail network: the
	// selector places this connection by health, affinity, and load, and may
	// nominate it as the half-open probe of a cooled-down rail. railSet is
	// nil on single-rail networks, keeping the historical path untouched.
	var rs *railSet
	var rd transport.RailDialer
	if !key.fallback {
		if rs = c.railSet(addr); rs != nil {
			rd = c.net.(transport.RailDialer)
			key.rail, _ = rs.pick(e.Now(), rd.RailUp)
		}
	}
	c.reapIdle(e, key)
	c.mu.Lock()
	conn := c.conns[key]
	c.mu.Unlock()
	if conn != nil && !conn.isClosed() {
		return conn, nil
	}
	if conn != nil {
		// A cached connection died and is being replaced.
		c.m.retries.Inc()
	}
	var tc transport.Conn
	var err error
	switch {
	case key.fallback:
		tc, err = fd.DialFallback(e, addr)
	case rs != nil:
		tc, err = rd.DialRail(e, addr, key.rail)
	default:
		tc, err = c.net.Dial(e, addr)
	}
	if err != nil {
		if rs != nil {
			// A failed rail dial marks the rail down; only when that leaves
			// no healthy rail does the failure widen to the S19 breaker.
			if rs.onFailure(key.rail, e.Now()) && br != nil {
				br.onFailure(e.Now())
			}
		} else if br != nil && !key.fallback {
			br.onFailure(e.Now())
		}
		return nil, err
	}
	if key.fallback {
		c.m.failovers.Inc()
	}
	conn = &Connection{client: c, tc: tc, fallback: key.fallback, br: br,
		rail: key.rail, rs: rs,
		sendMu: newEmutex(e), calls: map[int32]*Future{}, lastUsed: e.Now()}
	c.mu.Lock()
	c.conns[key] = conn
	c.mu.Unlock()
	c.m.connections.Inc()
	e.Spawn("rpc-conn-recv:"+addr, conn.receiveLoop)
	return conn, nil
}

// reapIdle closes connections that have sat past MaxIdleTime with no calls
// in flight — Hadoop's ipc.client.connection.maxidletime, done lazily on
// client activity rather than by a background thread so a finished
// simulation can drain. keep is the connection about to be used. Keys are
// visited in sorted order so the teardown sequence is deterministic under
// simulation regardless of map iteration order. Idle teardown is
// administrative: it never feeds the circuit breaker.
func (c *Client) reapIdle(e exec.Env, keep connKey) {
	maxIdle := c.opts.MaxIdleTime
	if maxIdle <= 0 {
		return
	}
	now := e.Now()
	c.mu.Lock()
	var idle []*Connection
	for _, k := range c.sortedConnKeys() {
		if k == keep {
			continue
		}
		conn := c.conns[k]
		conn.mu.Lock()
		expired := !conn.closed && len(conn.calls) == 0 && now-conn.lastUsed >= maxIdle
		conn.mu.Unlock()
		if expired {
			delete(c.conns, k)
			idle = append(idle, conn)
		}
	}
	c.mu.Unlock()
	for _, conn := range idle {
		conn.fail(ErrClosed)
	}
}

// sortedConnKeys lists the cached connections' keys in a fixed order, so
// teardown fails them, and wakes their callers, the same way on every run.
// The caller holds c.mu.
func (c *Client) sortedConnKeys() []connKey {
	keys := make([]connKey, 0, len(c.conns))
	for k := range c.conns {
		keys = append(keys, k)
	}
	sort.Slice(keys, func(i, j int) bool {
		if keys[i].addr != keys[j].addr {
			return keys[i].addr < keys[j].addr
		}
		if keys[i].fallback != keys[j].fallback {
			return !keys[i].fallback
		}
		return keys[i].rail < keys[j].rail
	})
	return keys
}

func (conn *Connection) addCall(id int32, f *Future) {
	conn.mu.Lock()
	conn.calls[id] = f
	conn.mu.Unlock()
	conn.client.m.outstanding.Inc()
	if conn.rs != nil && !conn.fallback {
		conn.rs.acquire(conn.rail)
	}
}

func (conn *Connection) takeCall(id int32) *Future {
	conn.mu.Lock()
	f := conn.calls[id]
	delete(conn.calls, id)
	conn.mu.Unlock()
	if f != nil {
		conn.client.m.outstanding.Dec()
		if conn.rs != nil && !conn.fallback {
			conn.rs.release(conn.rail)
		}
	}
	return f
}

// organicFail is fail for failures the transport produced (receive errors,
// send errors) rather than administrative teardown: on a primary connection
// it charges the rail selector first (rail-to-rail failover), widening to
// the peer's circuit breaker only when no healthy rail remains — or
// immediately, on single-rail networks. now is the caller's virtual time,
// for the cooldown clocks.
func (conn *Connection) organicFail(now time.Duration, err error) {
	conn.mu.Lock()
	already := conn.closed
	conn.mu.Unlock()
	if !already && !conn.fallback {
		if conn.rs != nil {
			if conn.rs.onFailure(conn.rail, now) && conn.br != nil {
				conn.br.onFailure(now)
			}
		} else if conn.br != nil {
			conn.br.onFailure(now)
		}
	}
	conn.fail(err)
}

// fail tears the connection down and fails every pending call.
func (conn *Connection) fail(err error) {
	conn.mu.Lock()
	if conn.closed {
		conn.mu.Unlock()
		return
	}
	conn.closed = true
	conn.closeErr = err
	pending := conn.calls
	conn.calls = map[int32]*Future{}
	conn.mu.Unlock()
	conn.client.m.connections.Dec()
	conn.client.m.outstanding.Add(-int64(len(pending)))
	if conn.rs != nil && !conn.fallback {
		for range pending {
			conn.rs.release(conn.rail)
		}
	}
	conn.tc.Close()
	// Wake the callers in call-id order: each Close schedules a wake, and
	// map order would reorder same-instant resumes from run to run.
	ids := make([]int32, 0, len(pending))
	for id := range pending {
		ids = append(ids, id)
	}
	sort.Slice(ids, func(i, j int) bool { return ids[i] < ids[j] })
	for _, id := range ids {
		pending[id].replyQ.Close()
	}
}

// Call invokes protocol.method(param) on the server at addr, deserializing
// the result into reply (which may be nil for void-like methods whose value
// the caller ignores). It blocks the calling thread until the response
// arrives, a timeout fires, or the connection fails. When the client's
// Options carry a retrying Policy it is applied here, uniformly for every
// synchronous caller.
func (c *Client) Call(e exec.Env, addr, protocol, method string, param, reply wire.Writable) error {
	if p := c.opts.Policy; p.MaxAttempts > 1 || p.Deadline > 0 {
		return c.CallWith(e, p, addr, protocol, method, param, reply)
	}
	return c.issue(e, addr, protocol, method, param, reply, c.timeout, 0).Wait(e)
}

// CallAsync starts protocol.method(param) on the server at addr and returns
// immediately with a Future; the caller overlaps its own work with the round
// trip and collects the outcome with Wait. reply is filled by the receiver
// thread before the future resolves, so the caller must not touch it until
// Wait/TryWait reports completion.
func (c *Client) CallAsync(e exec.Env, addr, protocol, method string, param, reply wire.Writable) *Future {
	return c.issue(e, addr, protocol, method, param, reply, c.timeout, 0)
}

// issue performs the send half of one call attempt — connection lookup,
// serialization, wire send — and registers the pending-call state. Issue
// failures come back as already-resolved futures so callers have exactly one
// error path. deadline, when non-zero, is the absolute virtual time the call
// must complete by; it rides the request header so the server can drop the
// call undispatched once it has expired.
func (c *Client) issue(e exec.Env, addr, protocol, method string, param, reply wire.Writable, timeout, deadline time.Duration) *Future {
	c.Stats.Calls.Add(1)
	c.m.calls.Inc()
	c.m.issued(protocol, method).Inc()
	callStart := e.Now()
	tr := c.opts.Trace
	span := tr.Start("client.call", "client", tracing.ContextOf(e), callStart)
	if span != nil {
		span.SetAttr("protocol", protocol)
		span.SetAttr("method", method)
		span.SetAttr("peer", addr)
	}
	conn, err := c.connection(e, addr)
	if err != nil {
		return c.failedFutureSpan(e, span, protocol, method, err)
	}
	if span != nil && conn.fallback {
		span.SetAttr("transport", "fallback")
	}
	if conn.rs != nil && !conn.fallback {
		conn.rs.countCall(conn.rail)
	}
	conn.touch(callStart)
	id := c.idSeq.Add(1)
	f := &Future{
		c: c, conn: conn, id: id,
		protocol: protocol, method: method,
		start: callStart, timeout: timeout, deadline: deadline,
		reply: reply, replyQ: e.NewQueue(1), span: span,
	}
	conn.addCall(id, f)

	conn.sendMu.lock(e)
	if conn.isClosed() {
		conn.sendMu.unlock()
		conn.takeCall(id)
		return c.failedFutureSpan(e, span, protocol, method, ErrClosed)
	}
	var sample trace.SendSample
	sample.Key = trace.Key{Protocol: protocol, Method: method}
	sendStart := e.Now()
	tw := traceWireOf(span)
	if c.opts.Mode == ModeRPCoIB {
		err = c.sendRPCoIB(e, conn, id, deadline, tw, protocol, method, param, &sample)
	} else {
		err = c.sendBaseline(e, conn, id, deadline, tw, protocol, method, param, &sample)
	}
	conn.sendMu.unlock()
	if err != nil {
		conn.takeCall(id)
		conn.organicFail(e.Now(), err)
		return c.failedFutureSpan(e, span, protocol, method, err)
	}
	if span != nil {
		// The serialize and send windows are exactly the profiler's
		// SendSample stage timings, re-emitted as causal child spans.
		tr.Child(span, "client.serialize", "client", sendStart, sample.Serialize)
		tr.Child(span, "client.send", "client", sendStart+sample.Serialize, sample.Send,
			"bytes", strconv.Itoa(sample.MsgBytes))
	}
	c.Stats.BytesOut.Add(int64(sample.MsgBytes))
	c.m.bytesOut.Add(int64(sample.MsgBytes))
	c.opts.Tracer.RecordSend(sample)
	return f
}

// sendBaseline is the paper's Listing 1: serialize into a fresh 32-byte
// DataOutputBuffer (Algorithm 1 growth), copy onto the connection's stream
// buffer behind a 4-byte length, copy heap-to-native, syscall, send.
func (c *Client) sendBaseline(e exec.Env, conn *Connection, id int32, deadline time.Duration, tw traceWire, protocol, method string, param wire.Writable, sample *trace.SendSample) error {
	cost := c.cost()
	t0 := e.Now()
	d := wire.NewDataOutputBuffer()
	out := wire.NewDataOutput(d)
	encodeRequestHeader(out, id, deadline, tw, protocol, method)
	if param != nil {
		param.Write(out)
	}
	st := d.TakeStats()
	c.work(e, cost.Serialize(out.Ops())+cost.Copy(d.Len())+c.bufferCost(st))
	sample.Serialize = e.Now() - t0

	t1 := e.Now()
	n := d.Len()
	if cap(conn.streamBuf) < 4+n {
		// The BufferedOutputStream's backing array grows rarely and
		// persists across calls; its growth is not part of the per-call
		// bottleneck, so it is not charged.
		conn.streamBuf = make([]byte, 4+n)
	}
	frame := conn.streamBuf[:4+n]
	binary.BigEndian.PutUint32(frame, uint32(n))
	copy(frame[4:], d.Data())
	c.work(e, cost.Copy(4+n))
	native := append([]byte(nil), frame...) // the heap-to-native crossing
	c.work(e, cost.HeapNative(4+n)+cost.Syscall+cost.RPCOverhead)
	err := conn.tc.Send(e, native)
	sample.Send = e.Now() - t1
	sample.MsgBytes = n
	sample.Adjustments = st.Adjustments
	return err
}

// poolKey builds the shadow-pool history key for a call kind.
func poolKey(protocol, method string) string { return protocol + "+" + method }

// callKind identifies a <protocol, method> pair without concatenation; it is
// the comparable map key of the pool-key cache.
type callKind struct{ protocol, method string }

// keyCache interns shadow-pool history keys so the hot send path looks up a
// struct-keyed map instead of allocating protocol+"+"+method per call.
type keyCache struct {
	mu sync.RWMutex
	m  map[callKind]string
}

func (kc *keyCache) get(protocol, method, suffix string) string {
	k := callKind{protocol, method}
	kc.mu.RLock()
	s, ok := kc.m[k]
	kc.mu.RUnlock()
	if ok {
		return s
	}
	kc.mu.Lock()
	if kc.m == nil {
		kc.m = map[callKind]string{}
	}
	if s, ok = kc.m[k]; !ok {
		s = poolKey(protocol, method) + suffix
		kc.m[k] = s
	}
	kc.mu.Unlock()
	return s
}

// sendRPCoIB serializes straight into a history-sized registered buffer and
// hands it to the verbs transport with zero copies.
func (c *Client) sendRPCoIB(e exec.Env, conn *Connection, id int32, deadline time.Duration, tw traceWire, protocol, method string, param wire.Writable, sample *trace.SendSample) error {
	cost := c.cost()
	t0 := e.Now()
	s := NewRDMAOutputStream(c.opts.Pool, c.keys.get(protocol, method, ""))
	c.work(e, cost.PoolGet)
	out := wire.NewDataOutput(s)
	encodeRequestHeader(out, id, deadline, tw, protocol, method)
	if param != nil {
		param.Write(out)
	}
	c.work(e, cost.Serialize(out.Ops())+cost.Copy(s.Len())+c.regetCost(s))
	sample.Serialize = e.Now() - t0

	t1 := e.Now()
	buf, n := s.Buffer()
	c.work(e, cost.RPCOverhead)
	if conn.lastSend > 0 && e.Now()-conn.lastSend < cost.ReapIdleGap {
		c.work(e, cost.SendReap)
	}
	conn.lastSend = e.Now()
	var err error
	if ps, ok := conn.tc.(transport.PooledSender); ok {
		err = ps.SendPooled(e, buf, n)
	} else {
		// Real-mode fallback (plain TCP): the pool still eliminates the
		// per-call serialization-buffer churn; the transport copy remains.
		err = conn.tc.Send(e, append([]byte(nil), buf.Data[:n]...))
	}
	s.Release()
	sample.Send = e.Now() - t1
	sample.MsgBytes = n
	sample.Adjustments = int64(s.Regets())
	return err
}

// regetCost prices the doubling re-gets a cold history record causes.
func (g *engine) regetCost(s *RDMAOutputStream) time.Duration {
	cost := g.cost()
	if s.Regets() == 0 {
		return 0
	}
	d := time.Duration(s.Regets()) * (cost.PoolGet + cost.CopyBase)
	d += time.Duration(int64(cost.CopyPerKB) * s.CopiedBytes() / 1024)
	return d
}

// receiveLoop is the Connection thread: it reads every response on the
// connection, deserializes it into the waiting caller's reply, and wakes the
// caller.
func (conn *Connection) receiveLoop(e exec.Env) {
	c := conn.client
	cost := c.cost()
	baseline := c.opts.Mode == ModeBaseline
	for {
		data, release, err := conn.tc.Recv(e)
		if err != nil {
			conn.organicFail(e.Now(), err)
			return
		}
		n := len(data)
		if baseline {
			// Listing 2 on the client: ByteBuffer.allocate(4) for the
			// length, ByteBuffer.allocate(len) for the body, native-to-heap
			// copy, then deserialize.
			c.work(e, cost.Syscall+cost.Alloc(4)+cost.Alloc(n)+cost.HeapNative(n))
		}
		c.work(e, cost.RPCOverhead)
		in := wire.NewDataInput(data)
		if baseline {
			in.ReadInt32() // frame length
		}
		id := in.ReadInt32()
		status := in.ReadU8()
		f := conn.takeCall(id)
		if f != nil {
			switch status {
			case statusSuccess:
				if f.reply != nil {
					f.reply.ReadFields(in)
				}
				if err := in.Err(); err != nil {
					f.outErr = err
				}
			case statusBusy:
				c.m.busyRejections.Inc()
				f.outErr = &TooBusyError{Backoff: time.Duration(in.ReadVLong())}
			case statusExpired:
				f.outErr = ErrDeadlineExceeded
			case statusError:
				f.outErr = &RemoteError{Msg: in.ReadText()}
			default:
				// Unknown status byte from a newer peer: surface it rather
				// than silently decoding garbage as an error text.
				f.outErr = &RemoteError{Msg: "unknown response status"}
			}
		}
		c.work(e, cost.Serialize(in.Ops())+cost.Copy(n))
		release()
		if f != nil {
			c.work(e, cost.ThreadHandoff)
			// Completion is stamped here, not at Wait, so RTT accounting
			// reflects the wire round trip even when the caller parks the
			// future and collects it later. The outcome fields are published
			// by the queue hand-off; nothing is boxed through the queue.
			f.outAt = e.Now()
			f.replyQ.TryPut(nil)
		}
	}
}

// Close tears down every cached connection (administratively: the circuit
// breakers are not charged).
func (c *Client) Close() {
	c.mu.Lock()
	conns := make([]*Connection, 0, len(c.conns))
	for _, k := range c.sortedConnKeys() {
		conns = append(conns, c.conns[k])
	}
	c.conns = map[connKey]*Connection{}
	c.mu.Unlock()
	for _, conn := range conns {
		conn.fail(ErrClosed)
	}
}
