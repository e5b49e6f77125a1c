package cluster

import (
	"bufio"
	"context"
	"encoding/binary"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net"
	"slices"
	"sync"
	"time"

	"ftbar/internal/wire"
)

// The internal RPC carries JSON documents (rpc.go) over a minimal
// length-prefixed TCP framing:
//
//	handshake  both sides send magic "FTBW" + uvarint wire version
//	request    uvarint method | uvarint len | payload
//	response   uvarint status | uvarint len | payload
//
// status 0 carries the method's reply document; status 1 carries a
// wire.Error as JSON, decoded back into a typed *wire.Error on the
// caller — so errors.Is classification crosses the boundary. Anything
// else the caller sees is a transport error, the master's signal to
// reroute.

// transportMagic leads the handshake in both directions.
const transportMagic = "FTBW"

// maxFrameBytes bounds a frame payload; a cache-shard handoff snapshot
// is the largest legitimate message.
const maxFrameBytes = 256 << 20

// payloadChunk is the first allocation for a frame payload; larger
// payloads grow by doubling as their bytes arrive.
const payloadChunk = 64 << 10

const (
	statusOK   = 0
	statusErr  = 1
	frameLimit = 10 // max uvarint length
)

var errBadMagic = errors.New("cluster: bad transport magic")

// writeHandshake and readHandshake exchange magic + wire version.
func writeHandshake(w *bufio.Writer) error {
	if _, err := w.WriteString(transportMagic); err != nil {
		return err
	}
	var buf [frameLimit]byte
	n := binary.PutUvarint(buf[:], wire.Version)
	if _, err := w.Write(buf[:n]); err != nil {
		return err
	}
	return w.Flush()
}

func readHandshake(r *bufio.Reader) (uint64, error) {
	var magic [len(transportMagic)]byte
	if _, err := io.ReadFull(r, magic[:]); err != nil {
		return 0, err
	}
	if string(magic[:]) != transportMagic {
		return 0, errBadMagic
	}
	return binary.ReadUvarint(r)
}

func writeFrame(w *bufio.Writer, head uint64, payload []byte) error {
	var buf [frameLimit]byte
	n := binary.PutUvarint(buf[:], head)
	if _, err := w.Write(buf[:n]); err != nil {
		return err
	}
	n = binary.PutUvarint(buf[:], uint64(len(payload)))
	if _, err := w.Write(buf[:n]); err != nil {
		return err
	}
	if _, err := w.Write(payload); err != nil {
		return err
	}
	return w.Flush()
}

func readFrame(r *bufio.Reader) (uint64, []byte, error) {
	head, err := binary.ReadUvarint(r)
	if err != nil {
		return 0, nil, err
	}
	size, err := binary.ReadUvarint(r)
	if err != nil {
		return 0, nil, err
	}
	if size > maxFrameBytes {
		return 0, nil, fmt.Errorf("cluster: frame of %d bytes exceeds limit", size)
	}
	payload, err := readPayload(r, int(size))
	if err != nil {
		return 0, nil, err
	}
	return head, payload, nil
}

// readPayload reads exactly size bytes. The buffer grows with the bytes
// actually received, never with the peer's claim: a header announcing a
// 200 MB frame followed by EOF costs one payloadChunk, not 200 MB.
func readPayload(r io.Reader, size int) ([]byte, error) {
	payload := make([]byte, 0, min(size, payloadChunk))
	for len(payload) < size {
		n := min(size-len(payload), max(len(payload), payloadChunk))
		start := len(payload)
		payload = slices.Grow(payload, n)[:start+n]
		if _, err := io.ReadFull(r, payload[start:]); err != nil {
			if err == io.EOF {
				err = io.ErrUnexpectedEOF
			}
			return nil, err
		}
	}
	return payload, nil
}

// HandlerFunc serves one RPC: the raw request payload of method in, the
// reply payload or a typed application error out.
type HandlerFunc func(method uint64, payload []byte) ([]byte, *wire.Error)

// Server accepts framed RPC connections and dispatches to a HandlerFunc,
// one goroutine per connection, one request in flight per connection
// (mirroring the client's conn-per-call discipline).
type Server struct {
	ln      net.Listener
	handler HandlerFunc

	mu    sync.Mutex
	conns map[net.Conn]struct{}
	done  chan struct{}
	wg    sync.WaitGroup
}

// NewServer starts serving on ln immediately.
func NewServer(ln net.Listener, h HandlerFunc) *Server {
	s := &Server{ln: ln, handler: h, conns: make(map[net.Conn]struct{}), done: make(chan struct{})}
	s.wg.Add(1)
	go s.acceptLoop()
	return s
}

// Addr returns the listen address.
func (s *Server) Addr() string { return s.ln.Addr().String() }

// Close stops accepting and severs every live connection.
func (s *Server) Close() {
	select {
	case <-s.done:
		return
	default:
	}
	close(s.done)
	s.ln.Close()
	s.mu.Lock()
	for c := range s.conns {
		c.Close()
	}
	s.mu.Unlock()
	s.wg.Wait()
}

func (s *Server) acceptLoop() {
	defer s.wg.Done()
	for {
		conn, err := s.ln.Accept()
		if err != nil {
			select {
			case <-s.done:
				return
			default:
				return
			}
		}
		s.mu.Lock()
		s.conns[conn] = struct{}{}
		s.mu.Unlock()
		s.wg.Add(1)
		go s.serveConn(conn)
	}
}

func (s *Server) serveConn(conn net.Conn) {
	defer s.wg.Done()
	defer func() {
		conn.Close()
		s.mu.Lock()
		delete(s.conns, conn)
		s.mu.Unlock()
	}()
	br := bufio.NewReader(conn)
	bw := bufio.NewWriter(conn)
	ver, err := readHandshake(br)
	if err != nil {
		return
	}
	// Always answer with our version; a mismatched client learns what it
	// is talking to before the connection drops.
	if err := writeHandshake(bw); err != nil {
		return
	}
	if ver != wire.Version {
		return
	}
	for {
		method, payload, err := readFrame(br)
		if err != nil {
			return
		}
		reply, appErr := s.handler(method, payload)
		if appErr != nil {
			data, err := json.Marshal(appErr)
			if err != nil {
				return
			}
			if err := writeFrame(bw, statusErr, data); err != nil {
				return
			}
			continue
		}
		if err := writeFrame(bw, statusOK, reply); err != nil {
			return
		}
	}
}

// Client calls a worker's RPC server over pooled connections, one
// request in flight per connection. A transport failure discards the
// connection; application errors keep it.
type Client struct {
	addr string

	mu   sync.Mutex
	idle []*clientConn
}

type clientConn struct {
	conn net.Conn
	br   *bufio.Reader
	bw   *bufio.Writer
}

// NewClient returns a client for addr; connections are dialed lazily.
func NewClient(addr string) *Client { return &Client{addr: addr} }

// Addr returns the dialed address.
func (c *Client) Addr() string { return c.addr }

func (c *Client) get(ctx context.Context) (*clientConn, error) {
	c.mu.Lock()
	if n := len(c.idle); n > 0 {
		cc := c.idle[n-1]
		c.idle = c.idle[:n-1]
		c.mu.Unlock()
		return cc, nil
	}
	c.mu.Unlock()
	var d net.Dialer
	conn, err := d.DialContext(ctx, "tcp", c.addr)
	if err != nil {
		return nil, err
	}
	cc := &clientConn{conn: conn, br: bufio.NewReader(conn), bw: bufio.NewWriter(conn)}
	if dl, ok := ctx.Deadline(); ok {
		conn.SetDeadline(dl)
	}
	if err := writeHandshake(cc.bw); err != nil {
		conn.Close()
		return nil, err
	}
	ver, err := readHandshake(cc.br)
	if err != nil {
		conn.Close()
		return nil, err
	}
	if ver != wire.Version {
		conn.Close()
		return nil, wire.ErrVersionMismatch.WithField("peer_version", fmt.Sprint(ver))
	}
	return cc, nil
}

func (c *Client) put(cc *clientConn) {
	cc.conn.SetDeadline(time.Time{})
	c.mu.Lock()
	c.idle = append(c.idle, cc)
	c.mu.Unlock()
}

// Close severs the idle pool. In-flight calls fail on their own.
func (c *Client) Close() {
	c.mu.Lock()
	for _, cc := range c.idle {
		cc.conn.Close()
	}
	c.idle = nil
	c.mu.Unlock()
}

// Call performs one RPC. An error that unwraps to *wire.Error came from
// the peer's application layer (the worker answered); anything else is a
// transport failure and the peer's health is suspect.
func (c *Client) Call(ctx context.Context, method uint64, payload []byte) ([]byte, error) {
	cc, err := c.get(ctx)
	if err != nil {
		return nil, err
	}
	if dl, ok := ctx.Deadline(); ok {
		cc.conn.SetDeadline(dl)
	} else {
		cc.conn.SetDeadline(time.Time{})
	}
	if err := writeFrame(cc.bw, method, payload); err != nil {
		cc.conn.Close()
		return nil, err
	}
	status, reply, err := readFrame(cc.br)
	if err != nil {
		cc.conn.Close()
		return nil, err
	}
	switch status {
	case statusOK:
		c.put(cc)
		return reply, nil
	case statusErr:
		c.put(cc)
		werr, err := decodeError(reply)
		if err != nil {
			return nil, fmt.Errorf("cluster: undecodable error reply for method %d: %w", method, err)
		}
		return nil, werr
	default:
		cc.conn.Close()
		return nil, fmt.Errorf("cluster: unknown response status %d", status)
	}
}
