package vnet

import (
	"bufio"
	"context"
	"crypto/hmac"
	"crypto/rand"
	"crypto/sha256"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	mrand "math/rand/v2"
	"net"
	"runtime"
	"sync"
	"time"
)

// maxWriteStall bounds how long one request frame may take to drain into a
// shared pooled connection before the connection is declared dead; it
// protects every caller queued on the connection's write lock from a peer
// that stopped reading.
const maxWriteStall = 30 * time.Second

// ErrAuth is wrapped by all TCP authentication failures.
var ErrAuth = errors.New("vnet: authentication failed")

// TCPEndpoint implements Endpoint over real TCP sockets, so the same TACOMA
// kernel that runs on the simulator runs between processes and machines
// (cmd/tacomad).
//
// Connections are persistent and pipelined: the first Call to a peer dials
// one connection, and every subsequent Call reuses it. Requests carry a
// per-connection id; multiple calls may be in flight at once, their
// responses demultiplexed by id, so concurrent remote meets batch onto one
// socket instead of paying a dial + teardown per meet. A connection that
// dies (peer restart, idle reset) fails its in-flight calls and is redialed
// on the next Call.
//
// Frame layout, all variable parts uvarint-length-prefixed and the id a bare
// uvarint:
//
//	request  := 'q' id from kind payload
//	response := 'r' id status(1: 0=ok, 1=error) payload-or-error-text
//
// With a shared auth key installed (SetAuthKey), frames carry an HMAC
// handshake instead:
//
//	request  := 'a' id from nonce kind payload mac
//	response := 's' id status payload-or-error-text mac
//
// The request MAC covers (id, from, nonce, kind, payload) under HMAC-SHA256
// of the shared key; the response MAC covers (id, nonce, status, body),
// binding the reply to the caller's nonce so a recorded response cannot be
// replayed against a later call. An endpoint with a key refuses plain 'q'
// frames and requests whose MAC does not verify — this is the firewall
// handshake at the transport layer, below the site-level briefcase checks.
// Any other request tag ends the connection unanswered.
type TCPEndpoint struct {
	id          SiteID
	incarnation int64

	mu      sync.RWMutex
	peers   map[SiteID]string // site -> host:port
	handler HandlerFunc
	authKey []byte

	// Nonce replay window: two generations of seen request nonces,
	// rotated when the current one fills. A recorded authenticated frame
	// replays successfully only after at least nonceWindow further
	// requests have rotated its nonce out — a bounded-memory defense, not
	// an absolute one.
	nonceMu    sync.Mutex
	noncesCur  map[string]struct{}
	noncesPrev map[string]struct{}

	// pcmu guards the client-side connection pool: one persistent
	// multiplexed connection per peer.
	pcmu   sync.Mutex
	pconns map[SiteID]*peerConn

	// scmu tracks accepted server-side connections so Close can shut down
	// persistent streams that would otherwise outlive the listener.
	scmu   sync.Mutex
	sconns map[net.Conn]struct{}

	ln     net.Listener
	closed chan struct{}
	wg     sync.WaitGroup
}

var _ Endpoint = (*TCPEndpoint)(nil)

// NewTCPEndpoint starts a listener on addr (e.g. "127.0.0.1:0") serving
// calls addressed to site id.
func NewTCPEndpoint(id SiteID, addr string) (*TCPEndpoint, error) {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return nil, fmt.Errorf("vnet: listen %s: %w", addr, err)
	}
	var incb [8]byte
	if _, err := rand.Read(incb[:]); err != nil {
		ln.Close()
		return nil, fmt.Errorf("vnet: incarnation: %w", err)
	}
	ep := &TCPEndpoint{
		id:          id,
		incarnation: int64(binary.LittleEndian.Uint64(incb[:]) >> 1),
		peers:       make(map[SiteID]string),
		pconns:      make(map[SiteID]*peerConn),
		sconns:      make(map[net.Conn]struct{}),
		ln:          ln,
		closed:      make(chan struct{}),
	}
	ep.wg.Add(1)
	go ep.acceptLoop()
	return ep, nil
}

// ID returns the site name.
func (ep *TCPEndpoint) ID() SiteID { return ep.id }

// Incarnation identifies this process's boot; a fresh daemon gets a fresh
// random incarnation, which is what "restart" means for real processes.
func (ep *TCPEndpoint) Incarnation() int64 { return ep.incarnation }

// Addr returns the listener's actual address, useful with port 0.
func (ep *TCPEndpoint) Addr() string { return ep.ln.Addr().String() }

// AddPeer registers the network address of another site.
func (ep *TCPEndpoint) AddPeer(id SiteID, addr string) {
	ep.mu.Lock()
	ep.peers[id] = addr
	ep.mu.Unlock()
}

// SetHandler installs the serving function for incoming calls.
func (ep *TCPEndpoint) SetHandler(h HandlerFunc) {
	ep.mu.Lock()
	ep.handler = h
	ep.mu.Unlock()
}

// SetAuthKey installs the cluster's shared authentication key. With a key
// set, outgoing calls use the authenticated handshake and incoming calls
// must pass it; a nil key restores the open protocol. Pooled connections
// are retired so the new key takes effect for subsequent calls.
func (ep *TCPEndpoint) SetAuthKey(key []byte) {
	ep.mu.Lock()
	if key == nil {
		ep.authKey = nil
	} else {
		ep.authKey = append([]byte(nil), key...)
	}
	ep.mu.Unlock()
	ep.pcmu.Lock()
	for id, pc := range ep.pconns {
		pc.fail(errors.New("vnet: auth key changed"))
		delete(ep.pconns, id)
	}
	ep.pcmu.Unlock()
}

func (ep *TCPEndpoint) auth() []byte {
	ep.mu.RLock()
	defer ep.mu.RUnlock()
	return ep.authKey
}

// nonceWindow bounds how many request nonces each generation remembers.
const nonceWindow = 4096

// nonceFresh records a request nonce, reporting false when it was already
// seen within the replay window.
func (ep *TCPEndpoint) nonceFresh(nonce []byte) bool {
	ep.nonceMu.Lock()
	defer ep.nonceMu.Unlock()
	k := string(nonce)
	if _, ok := ep.noncesCur[k]; ok {
		return false
	}
	if _, ok := ep.noncesPrev[k]; ok {
		return false
	}
	if ep.noncesCur == nil {
		ep.noncesCur = make(map[string]struct{}, nonceWindow)
	}
	ep.noncesCur[k] = struct{}{}
	if len(ep.noncesCur) >= nonceWindow {
		ep.noncesPrev = ep.noncesCur
		ep.noncesCur = make(map[string]struct{}, nonceWindow)
	}
	return true
}

// frameMAC computes the handshake MAC over length-prefixed parts, with a
// domain label separating request from response MACs.
func frameMAC(key []byte, label string, parts ...[]byte) []byte {
	mac := hmac.New(sha256.New, key)
	var tmp [binary.MaxVarintLen64]byte
	mac.Write([]byte(label))
	for _, p := range parts {
		n := binary.PutUvarint(tmp[:], uint64(len(p)))
		mac.Write(tmp[:n])
		mac.Write(p)
	}
	return mac.Sum(nil)
}

// uvarintBytes renders v as a uvarint for inclusion in a MAC.
func uvarintBytes(v uint64) []byte {
	var tmp [binary.MaxVarintLen64]byte
	n := binary.PutUvarint(tmp[:], v)
	return tmp[:n]
}

// --- write coalescing ---
//
// Every frame (request or response) is rendered into a pooled scratch buffer
// and handed to the connection's connWriter. The writer batches frames that
// arrive while a flush is in progress into the next single flush: a lone
// caller flushes immediately (no added latency), while N concurrent callers
// on one connection pay ~1 flush syscall instead of N. Frame bytes reach the
// socket atomically per frame, so batching never interleaves frames.

// maxPooledFrame bounds the capacity of scratch buffers kept in framePool so
// one huge briefcase cannot pin its buffer in the pool forever.
const maxPooledFrame = 64 << 10

var framePool = sync.Pool{
	New: func() any {
		b := make([]byte, 0, 512)
		return &b
	},
}

func getFrame() []byte { return (*framePool.Get().(*[]byte))[:0] }

func putFrame(b []byte) {
	if cap(b) > maxPooledFrame {
		return
	}
	b = b[:0]
	framePool.Put(&b)
}

// appendChunk appends a uvarint-length-prefixed chunk.
func appendChunk(dst, b []byte) []byte {
	dst = binary.AppendUvarint(dst, uint64(len(b)))
	return append(dst, b...)
}

// appendChunkString is appendChunk without a []byte(s) conversion alloc.
func appendChunkString(dst []byte, s string) []byte {
	dst = binary.AppendUvarint(dst, uint64(len(s)))
	return append(dst, s...)
}

// Write-failure classification for the redial logic in callOnce.
var (
	// errWriteUnsent marks a frame that was never handed to the socket
	// (queued behind a flush that failed, or enqueued on an already-dead
	// writer). The peer cannot have seen it; redialing is always safe.
	errWriteUnsent = errors.New("vnet: frame not sent")
	// errWriteLone marks a single-frame batch whose flush failed. As with
	// the old per-call flush, a failed lone flush cannot have delivered a
	// complete frame, so one redial on a reused connection is safe.
	errWriteLone = errors.New("vnet: lone frame flush failed")
)

// wframe is one queued frame: pooled bytes, an optional write-outcome
// channel (buffered; nil for fire-and-forget server responses), and an
// optional caller deadline that tightens the cycle's write deadline (zero
// for none).
type wframe struct {
	buf []byte
	res chan error
	dl  time.Time
}

// maxCycleBytes bounds how much one flush cycle writes before flushing and
// returning to the outer loop. The gather loop is naturally bounded for
// client writers (one frame in flight per caller) but not for a server
// writer under sustained pipelined load; without this cap a healthy
// saturated connection could keep gathering past the cycle's write
// deadline and fail on a spurious timeout. Each cycle re-arms the
// deadline, so steady progress never trips it.
const maxCycleBytes = 256 << 10

// connWriter serializes and batches frame writes on one connection.
type connWriter struct {
	conn  net.Conn
	bw    *bufio.Writer
	onErr func(error) // invoked once, outside mu, on the first write error

	mu       sync.Mutex
	queue    []wframe
	batch    []wframe // recycled accumulator for flushCycle
	flushing bool
	err      error
}

func newConnWriter(conn net.Conn, onErr func(error)) *connWriter {
	return &connWriter{
		conn:  conn,
		bw:    bufio.NewWriterSize(conn, 64<<10),
		onErr: onErr,
	}
}

// enqueue hands one frame to the writer, taking ownership of buf (a pooled
// frame buffer). If no flush is in progress the calling goroutine becomes
// the flusher and drains the queue — including frames other goroutines
// append while it is flushing — with one buffered flush per batch.
func (w *connWriter) enqueue(buf []byte, res chan error, dl time.Time) {
	w.mu.Lock()
	if w.err != nil {
		err := w.err
		w.mu.Unlock()
		putFrame(buf)
		if res != nil {
			res <- fmt.Errorf("%w: %v", errWriteUnsent, err)
		}
		return
	}
	w.queue = append(w.queue, wframe{buf, res, dl})
	if w.flushing {
		w.mu.Unlock()
		return
	}
	w.flushing = true
	for w.err == nil && len(w.queue) > 0 {
		w.flushCycle() // unlocks and relocks w.mu around the socket I/O
	}
	w.flushing = false
	w.mu.Unlock()
}

// flushCycle writes every queued frame and flushes once. Called with w.mu
// held by the flusher; the lock is released around socket I/O.
//
// Between writing frames and flushing, the flusher yields the processor
// once: callers that are already runnable get to append their frames, which
// the flusher then folds into the same flush. Under load this turns N
// concurrent calls into one write syscall; on an idle connection the yield
// returns immediately and a lone frame flushes with no added latency.
// Gathering is bounded two ways: each client caller has at most one frame
// in flight per connection, and a cycle flushes after maxCycleBytes even
// when new frames keep arriving (the server's fire-and-forget responses
// under sustained pipelined load), so a healthy saturated connection makes
// steady progress and re-arms its write deadline every cycle.
func (w *connWriter) flushCycle() {
	// Bound the write: the connection is shared, so a peer that stops
	// reading (frozen process, full receive window) must fail this batch —
	// and thereby the connection — rather than hang every caller forever.
	// A caller deadline sooner than the stall cap tightens it, as the old
	// per-call flush did; a timed-out write fails the shared connection.
	dl := time.Now().Add(maxWriteStall)
	w.conn.SetWriteDeadline(dl)
	// The queue and batch backing arrays live on the connWriter and are
	// reused across cycles, so steady-state coalescing allocates nothing.
	batch := w.batch[:0]
	w.batch = nil
	var werr error
	written := 0    // frames fully handed to the buffered writer
	cycleBytes := 0 // flush early once the cycle has written maxCycleBytes
	for werr == nil && len(w.queue) > 0 && cycleBytes < maxCycleBytes {
		wrote := len(batch)
		batch = append(batch, w.queue...)
		clear(w.queue) // drop frame refs so the array does not pin buffers
		w.queue = w.queue[:0]
		w.mu.Unlock()
		for _, f := range batch[wrote:] {
			if !f.dl.IsZero() && f.dl.Before(dl) {
				dl = f.dl
				w.conn.SetWriteDeadline(dl)
			}
			if _, werr = w.bw.Write(f.buf); werr != nil {
				break
			}
			written++
			cycleBytes += len(f.buf)
		}
		if werr == nil {
			runtime.Gosched() // gather: let runnable callers join this flush
		}
		w.mu.Lock()
	}
	w.mu.Unlock()
	if werr == nil {
		werr = w.bw.Flush()
	}
	for i, f := range batch {
		putFrame(f.buf)
		if f.res == nil {
			continue
		}
		switch {
		case werr == nil:
			f.res <- nil
		case i > written:
			// Never handed to the buffered writer: the failure hit an
			// earlier frame's Write. Provably unsent, safe to redial.
			f.res <- fmt.Errorf("%w: %v", errWriteUnsent, werr)
		case len(batch) == 1:
			f.res <- fmt.Errorf("%w: %v", errWriteLone, werr)
		default:
			// At or before the failure point of a multi-frame batch: bytes
			// may have reached the peer; the caller must not resend.
			f.res <- werr
		}
	}
	w.mu.Lock()
	clear(batch)
	w.batch = batch[:0]
	if werr != nil {
		w.err = werr
		// Frames enqueued while the failing batch was in flight were never
		// handed to the socket.
		stranded := w.queue
		w.queue = nil
		w.mu.Unlock()
		for _, f := range stranded {
			putFrame(f.buf)
			if f.res != nil {
				f.res <- fmt.Errorf("%w: %v", errWriteUnsent, werr)
			}
		}
		if w.onErr != nil {
			w.onErr(werr)
		}
		w.mu.Lock()
	}
}

// Close stops the listener, retires pooled client connections, shuts down
// persistent server streams, and waits for in-flight handlers.
func (ep *TCPEndpoint) Close() error {
	select {
	case <-ep.closed:
		return nil
	default:
	}
	close(ep.closed)
	err := ep.ln.Close()
	ep.pcmu.Lock()
	for id, pc := range ep.pconns {
		pc.fail(ErrClosed)
		delete(ep.pconns, id)
	}
	ep.pcmu.Unlock()
	ep.scmu.Lock()
	for c := range ep.sconns {
		c.Close()
	}
	ep.scmu.Unlock()
	ep.wg.Wait()
	return err
}

func (ep *TCPEndpoint) acceptLoop() {
	defer ep.wg.Done()
	for {
		conn, err := ep.ln.Accept()
		if err != nil {
			select {
			case <-ep.closed:
				return
			default:
				continue
			}
		}
		ep.scmu.Lock()
		ep.sconns[conn] = struct{}{}
		ep.scmu.Unlock()
		// Close may have swept sconns between the Accept and the insert
		// above; re-checking here guarantees every registered connection is
		// either swept by Close or closed by us, so wg.Wait cannot hang on
		// a serveConn blocked reading an open pipelined stream.
		select {
		case <-ep.closed:
			conn.Close()
		default:
		}
		ep.wg.Add(1)
		go func() {
			defer ep.wg.Done()
			defer func() {
				ep.scmu.Lock()
				delete(ep.sconns, conn)
				ep.scmu.Unlock()
				conn.Close()
			}()
			ep.serveConn(conn)
		}()
	}
}

// request is one decoded inbound request frame.
type request struct {
	authed  bool // 'a'
	id      uint64
	from    []byte
	nonce   []byte
	kind    []byte
	payload []byte
	mac     []byte
}

// readRequest parses one request frame, returning io.EOF-ish errors when the
// stream ends or the bytes are not a valid frame.
func readRequest(r *bufio.Reader) (*request, error) {
	tag, err := r.ReadByte()
	if err != nil {
		return nil, err
	}
	if tag != 'q' && tag != 'a' {
		return nil, fmt.Errorf("vnet: unknown frame tag %q", tag)
	}
	req := &request{authed: tag == 'a'}
	if req.id, err = binary.ReadUvarint(r); err != nil {
		return nil, err
	}
	if req.from, err = readChunk(r); err != nil {
		return nil, err
	}
	if req.authed {
		if req.nonce, err = readChunk(r); err != nil {
			return nil, err
		}
	}
	if req.kind, err = readChunk(r); err != nil {
		return nil, err
	}
	if req.payload, err = readChunk(r); err != nil {
		return nil, err
	}
	if req.authed {
		if req.mac, err = readChunk(r); err != nil {
			return nil, err
		}
	}
	return req, nil
}

// serveConn serves one inbound connection: a loop over request frames.
// Clients keep the stream open and may have several requests outstanding,
// each answered — possibly out of order — through the connection's
// coalescing writer, so responses that finish together leave in one flush.
func (ep *TCPEndpoint) serveConn(conn net.Conn) {
	r := bufio.NewReader(conn)
	// A response write error means the client is gone (or stopped reading
	// past the stall bound); closing the connection unblocks the read loop.
	cw := newConnWriter(conn, func(error) { conn.Close() })
	var handlers sync.WaitGroup
	defer handlers.Wait()
	for {
		req, err := readRequest(r)
		if err != nil {
			return
		}
		// Requests are served concurrently: a slow meet must not
		// head-of-line-block the responses of later requests on the same
		// stream.
		handlers.Add(1)
		ep.wg.Add(1)
		go func() {
			defer handlers.Done()
			defer ep.wg.Done()
			ep.serveRequest(req, cw)
		}()
	}
}

// serveRequest authenticates, dispatches, and answers one request frame.
func (ep *TCPEndpoint) serveRequest(req *request, cw *connWriter) {
	ep.mu.RLock()
	h := ep.handler
	key := ep.authKey
	ep.mu.RUnlock()

	// The handshake: a keyed endpoint admits only requests proving
	// knowledge of the shared key; a keyless endpoint cannot verify (or
	// sign) and refuses authenticated frames rather than guessing.
	var status byte
	var resp []byte
	switch {
	case key != nil && !req.authed:
		status, resp = 1, []byte(fmt.Sprintf("site %s requires authentication", ep.id))
	case key == nil && req.authed:
		status, resp = 1, []byte(fmt.Sprintf("site %s does not accept authenticated frames", ep.id))
	case key != nil && !hmac.Equal(req.mac, ep.requestMAC(key, req)):
		status, resp = 1, []byte(fmt.Sprintf("site %s: request authentication failed", ep.id))
	case key != nil && !ep.nonceFresh(req.nonce):
		status, resp = 1, []byte(fmt.Sprintf("site %s: replayed request refused", ep.id))
	case h == nil:
		status, resp = 1, []byte(ErrNoHandler.Error())
	default:
		if data, herr := h(SiteID(req.from), string(req.kind), req.payload); herr != nil {
			status, resp = 1, []byte(herr.Error())
		} else {
			status, resp = 0, data
		}
	}

	authed := req.authed && key != nil
	buf := getFrame()
	if authed {
		buf = append(buf, 's')
	} else {
		buf = append(buf, 'r')
	}
	buf = binary.AppendUvarint(buf, req.id)
	buf = append(buf, status)
	buf = appendChunk(buf, resp)
	if authed {
		buf = appendChunk(buf, frameMAC(key, "presp", uvarintBytes(req.id), req.nonce, []byte{status}, resp))
	}
	cw.enqueue(buf, nil, time.Time{})
}

// requestMAC computes the expected MAC for an inbound authenticated request.
func (ep *TCPEndpoint) requestMAC(key []byte, req *request) []byte {
	return frameMAC(key, "preq", uvarintBytes(req.id), req.from, req.nonce, req.kind, req.payload)
}

// rpcResult is one demultiplexed response frame (or a connection error).
type rpcResult struct {
	authed bool // 's' frame
	status byte
	body   []byte
	mac    []byte
	err    error
}

// Channel pools for the two per-call rendezvous channels. A channel is
// recycled only after its receiver got a value: every registered response
// channel and every write-result channel is sent to exactly once, so a
// completed receive proves no other goroutine still holds the channel.
// Abandoned channels (context cancellation) are left to the GC.
var (
	rpcChPool = sync.Pool{New: func() any { return make(chan rpcResult, 1) }}
	werrPool  = sync.Pool{New: func() any { return make(chan error, 1) }}
)

// peerConn is one persistent multiplexed client connection to a peer.
type peerConn struct {
	conn net.Conn
	w    *connWriter // coalesces concurrent request frames

	mu      sync.Mutex
	pending map[uint64]chan rpcResult
	nextID  uint64
	dead    bool
	err     error
}

// register allocates a call id and its response channel.
func (pc *peerConn) register() (uint64, chan rpcResult, error) {
	pc.mu.Lock()
	defer pc.mu.Unlock()
	if pc.dead {
		return 0, nil, pc.err
	}
	pc.nextID++
	id := pc.nextID
	ch := rpcChPool.Get().(chan rpcResult)
	pc.pending[id] = ch
	return id, ch, nil
}

// forget abandons a call (context cancellation); a late response frame for
// the id is discarded by the read loop.
func (pc *peerConn) forget(id uint64) {
	pc.mu.Lock()
	delete(pc.pending, id)
	pc.mu.Unlock()
}

// fail marks the connection dead and fails every in-flight call.
func (pc *peerConn) fail(err error) {
	pc.mu.Lock()
	if pc.dead {
		pc.mu.Unlock()
		return
	}
	pc.dead = true
	pc.err = err
	pending := pc.pending
	pc.pending = make(map[uint64]chan rpcResult)
	pc.mu.Unlock()
	pc.conn.Close()
	for _, ch := range pending {
		ch <- rpcResult{err: err}
	}
}

// readLoop demultiplexes response frames to their callers.
func (pc *peerConn) readLoop() {
	r := bufio.NewReader(pc.conn)
	for {
		tag, err := r.ReadByte()
		if err != nil {
			pc.fail(fmt.Errorf("%w: connection lost: %v", ErrTimeout, err))
			return
		}
		if tag != 'r' && tag != 's' {
			pc.fail(fmt.Errorf("%w: bad response tag %q", ErrTimeout, tag))
			return
		}
		id, err := binary.ReadUvarint(r)
		if err != nil {
			pc.fail(fmt.Errorf("%w: bad response id: %v", ErrTimeout, err))
			return
		}
		status, err := r.ReadByte()
		if err != nil {
			pc.fail(fmt.Errorf("%w: bad response status: %v", ErrTimeout, err))
			return
		}
		body, err := readChunk(r)
		if err != nil {
			pc.fail(fmt.Errorf("%w: bad response body: %v", ErrTimeout, err))
			return
		}
		res := rpcResult{authed: tag == 's', status: status, body: body}
		if res.authed {
			if res.mac, err = readChunk(r); err != nil {
				pc.fail(fmt.Errorf("%w: bad response mac: %v", ErrTimeout, err))
				return
			}
		}
		pc.mu.Lock()
		ch, ok := pc.pending[id]
		if ok {
			delete(pc.pending, id)
		}
		pc.mu.Unlock()
		if ok {
			ch <- res
		}
	}
}

// peerConn returns the pooled connection to a peer, dialing a fresh one when
// none is alive. The second return reports whether the connection was
// reused (a reused connection that fails mid-call is worth one redial).
func (ep *TCPEndpoint) peerConn(ctx context.Context, to SiteID) (*peerConn, bool, error) {
	ep.mu.RLock()
	addr, ok := ep.peers[to]
	ep.mu.RUnlock()
	if !ok {
		return nil, false, fmt.Errorf("%w: %s", ErrUnknownSite, to)
	}
	ep.pcmu.Lock()
	if pc, ok := ep.pconns[to]; ok && !pc.isDead() {
		ep.pcmu.Unlock()
		return pc, true, nil
	}
	ep.pcmu.Unlock()

	var d net.Dialer
	conn, err := d.DialContext(ctx, "tcp", addr)
	if err != nil {
		return nil, false, fmt.Errorf("%w: dial %s: %v", ErrTimeout, to, err)
	}
	pc := &peerConn{
		conn:    conn,
		pending: make(map[uint64]chan rpcResult),
	}
	pc.w = newConnWriter(conn, func(werr error) {
		pc.fail(fmt.Errorf("%w: send to %s: %v", ErrTimeout, to, werr))
	})
	ep.pcmu.Lock()
	if cur, ok := ep.pconns[to]; ok && !cur.isDead() {
		// Lost the dial race; use the winner and retire ours.
		ep.pcmu.Unlock()
		conn.Close()
		return cur, true, nil
	}
	ep.pconns[to] = pc
	ep.pcmu.Unlock()
	// As with server connections: if Close swept pconns while we were
	// dialing, retire this connection immediately instead of leaking its
	// read loop past shutdown.
	select {
	case <-ep.closed:
		ep.pcmu.Lock()
		if ep.pconns[to] == pc {
			delete(ep.pconns, to)
		}
		ep.pcmu.Unlock()
		pc.fail(ErrClosed)
		return nil, false, ErrClosed
	default:
	}
	ep.wg.Add(1)
	go func() {
		defer ep.wg.Done()
		pc.readLoop()
	}()
	return pc, false, nil
}

func (pc *peerConn) isDead() bool {
	pc.mu.Lock()
	defer pc.mu.Unlock()
	return pc.dead
}

// Call performs one request/response exchange with a peer over the pooled
// pipelined connection. Concurrent Calls to the same peer share the
// connection; a dead pooled connection is redialed once.
func (ep *TCPEndpoint) Call(ctx context.Context, to SiteID, kind string, payload []byte) ([]byte, error) {
	select {
	case <-ep.closed:
		return nil, ErrClosed
	default:
	}
	key := ep.auth()
	res, id, nonce, err := ep.callOnce(ctx, to, kind, payload, key)
	if err != nil {
		return nil, err
	}
	if res.err != nil {
		return nil, res.err
	}

	switch {
	case key != nil && !res.authed:
		// The peer answered in the clear; surface its refusal as a
		// handshake failure rather than a framing error.
		if res.status != 0 {
			return nil, fmt.Errorf("%w: remote %s: %s", ErrAuth, to, res.body)
		}
		return nil, fmt.Errorf("%w: unauthenticated reply from %s", ErrAuth, to)
	case key == nil && res.authed:
		return nil, fmt.Errorf("%w: unexpected authenticated reply from %s", ErrTimeout, to)
	case key != nil:
		if !hmac.Equal(res.mac, frameMAC(key, "presp", uvarintBytes(id), nonce, []byte{res.status}, res.body)) {
			return nil, fmt.Errorf("%w: response from %s", ErrAuth, to)
		}
	}
	if res.status != 0 {
		return nil, fmt.Errorf("vnet: remote %s: %s", to, res.body)
	}
	return res.body, nil
}

// redialBackoff sleeps a small jittered delay before a stale-pool redial.
// When a pooled connection to a restarted peer dies, every caller queued on
// it fails at once; without jitter they would all redial in the same
// instant, a thundering herd the dial-race handling resolves by dialing N
// connections and keeping one.
func redialBackoff(ctx context.Context) {
	d := time.Duration(200+mrand.Int64N(1800)) * time.Microsecond
	t := time.NewTimer(d)
	defer t.Stop()
	select {
	case <-t.C:
	case <-ctx.Done():
	}
}

// callOnce sends one request frame and waits for its response, redialing a
// stale pooled connection once. It returns the raw result, the call id, and
// the nonce used (both needed for response MAC verification).
func (ep *TCPEndpoint) callOnce(ctx context.Context, to SiteID, kind string, payload []byte, key []byte) (rpcResult, uint64, []byte, error) {
	for attempt := 0; ; attempt++ {
		pc, reused, err := ep.peerConn(ctx, to)
		if err != nil {
			return rpcResult{}, 0, nil, err
		}
		id, ch, err := pc.register()
		if err != nil {
			if reused && attempt == 0 {
				redialBackoff(ctx)
				continue
			}
			return rpcResult{}, 0, nil, err
		}

		var nonce []byte
		if key != nil {
			nonce = make([]byte, 16)
			if _, err := rand.Read(nonce); err != nil {
				pc.forget(id)
				return rpcResult{}, 0, nil, fmt.Errorf("vnet: nonce: %w", err)
			}
		}

		// Render the request into a pooled scratch buffer and hand it to
		// the connection's coalescing writer: a lone call flushes at once,
		// concurrent calls batch into one flush.
		buf := getFrame()
		if key != nil {
			buf = append(buf, 'a')
			buf = binary.AppendUvarint(buf, id)
			buf = appendChunkString(buf, string(ep.id))
			buf = appendChunk(buf, nonce)
			buf = appendChunkString(buf, kind)
			buf = appendChunk(buf, payload)
			buf = appendChunk(buf, frameMAC(key, "preq", uvarintBytes(id), []byte(ep.id), nonce, []byte(kind), payload))
		} else {
			buf = append(buf, 'q')
			buf = binary.AppendUvarint(buf, id)
			buf = appendChunkString(buf, string(ep.id))
			buf = appendChunkString(buf, kind)
			buf = appendChunk(buf, payload)
		}
		var wdl time.Time
		if d, ok := ctx.Deadline(); ok {
			wdl = d
		}
		wres := werrPool.Get().(chan error)
		pc.w.enqueue(buf, wres, wdl)

		var werr error
		select {
		case werr = <-wres:
			// Fast path: when this call became the flusher, enqueue returned
			// with the outcome already delivered.
			werrPool.Put(wres)
		default:
			select {
			case werr = <-wres:
				werrPool.Put(wres)
			case <-ctx.Done():
				// The frame may still be flushed by the active batch; a late
				// response for the forgotten id is discarded by the read loop.
				pc.forget(id)
				return rpcResult{}, 0, nil, ctx.Err()
			case <-ep.closed:
				pc.forget(id)
				return rpcResult{}, 0, nil, ErrClosed
			}
		}
		if werr != nil {
			pc.forget(id)
			// Fail the connection here, synchronously, even though the
			// flusher's onErr hook does the same: the write outcome is
			// delivered before onErr runs, so a retry racing ahead of it
			// could otherwise pull the same dying connection back out of
			// the pool and burn its one redial on it. fail is idempotent.
			pc.fail(fmt.Errorf("%w: send to %s: %v", ErrTimeout, to, werr))
			// Redial only when this frame provably never reached the peer:
			// it was never handed to the socket (errWriteUnsent), or it was
			// a lone-frame batch whose failed flush cannot have delivered a
			// complete frame (errWriteLone). A frame inside a failed
			// multi-frame batch may have been executed by the peer;
			// re-sending would run a non-idempotent meet twice.
			if (errors.Is(werr, errWriteUnsent) || errors.Is(werr, errWriteLone)) && reused && attempt == 0 {
				redialBackoff(ctx)
				continue
			}
			return rpcResult{}, 0, nil, fmt.Errorf("%w: send to %s: %v", ErrTimeout, to, werr)
		}

		select {
		case res := <-ch:
			// No retry here even on a connection error: the request was
			// fully flushed, so the peer may already have executed the meet
			// — re-sending would run a non-idempotent meet (cabinet
			// mutations, cash debits) twice. Only pre-flush failures above
			// are safe to redial.
			rpcChPool.Put(ch)
			return res, id, nonce, nil
		case <-ctx.Done():
			pc.forget(id)
			return rpcResult{}, 0, nil, ctx.Err()
		case <-ep.closed:
			pc.forget(id)
			return rpcResult{}, 0, nil, ErrClosed
		}
	}
}

func readChunk(r *bufio.Reader) ([]byte, error) {
	n, err := binary.ReadUvarint(r)
	if err != nil {
		return nil, err
	}
	const maxChunk = 64 << 20 // refuse absurd frames rather than OOM
	if n > maxChunk {
		return nil, fmt.Errorf("vnet: chunk of %d bytes exceeds limit", n)
	}
	buf := make([]byte, n)
	if _, err := io.ReadFull(r, buf); err != nil {
		return nil, err
	}
	return buf, nil
}
