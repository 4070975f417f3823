package http1

import (
	"bufio"
	"io"
	"net"
	"net/http"
	"sync"
	"time"
)

// Listener is a server's accept loop. It serves each connection on a
// goroutine of its own and keeps the set of open connections, so Close
// can close them all.
type Listener struct {
	ln    net.Listener
	serve func(net.Conn)
	done  chan struct{}  // closed by Close
	wg    sync.WaitGroup // the accept loop and every connection's goroutine
	mu    sync.Mutex
	conns map[net.Conn]struct{} // nil once closed
}

// Serve runs ln's accept loop until Close. It hands each connection to
// serve on a new goroutine, and closes it when serve returns.
func Serve(ln net.Listener, serve func(net.Conn)) *Listener {
	l := &Listener{ln: ln, serve: serve, done: make(chan struct{}), conns: make(map[net.Conn]struct{})}
	l.wg.Add(1)
	go l.accept()
	return l
}

func (l *Listener) accept() {
	defer l.wg.Done()
	var delay time.Duration
	for {
		nc, err := l.ln.Accept()
		if err != nil {
			// Closed, or out of file descriptors, say: back off as
			// net/http does.
			delay = min(max(2*delay, 5*time.Millisecond), time.Second)
			select {
			case <-l.done:
				return
			case <-time.After(delay):
			}
			continue
		}
		delay = 0
		l.mu.Lock()
		if l.conns == nil {
			l.mu.Unlock()
			_ = nc.Close() // closed while this one was accepted
			return
		}
		l.conns[nc] = struct{}{}
		l.wg.Add(1)
		l.mu.Unlock()
		go func() {
			defer l.wg.Done()
			l.serve(nc)
			l.mu.Lock()
			delete(l.conns, nc)
			l.mu.Unlock()
			_ = nc.Close() // serve has returned; nothing is left to report
		}()
	}
}

// Done is closed when Close is first called.
func (l *Listener) Done() <-chan struct{} { return l.done }

// Close closes the listener and every open connection; each connection's
// goroutine sees the error and returns. A second call returns nil.
func (l *Listener) Close() error {
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.conns == nil {
		return nil
	}
	close(l.done)
	err := l.ln.Close()
	for nc := range l.conns {
		_ = nc.Close()
	}
	l.conns = nil
	return err
}

// Wait returns once the accept loop and every connection's goroutine have
// returned.
func (l *Listener) Wait() { l.wg.Wait() }

// Linger bounds.
const (
	lingerTime = 500 * time.Millisecond
	lingerMax  = 256 << 10
)

// Linger ends a connection after its last response: it sends FIN, then
// drops what the client still sends, read through br, until EOF, for at
// most lingerTime and lingerMax bytes. Closing a socket with unread input
// resets it, which can destroy the response in flight.
func Linger(nc net.Conn, br *bufio.Reader) {
	if cw, ok := nc.(interface{ CloseWrite() error }); ok {
		_ = cw.CloseWrite() // best effort: the close that follows still ends the connection
	}
	if nc.SetReadDeadline(time.Now().Add(lingerTime)) == nil {
		_, _ = io.CopyN(io.Discard, br, lingerMax) // ends at EOF, the deadline or the bound
	}
}

// Date is a connection's Date field value, formatted at most once a
// second.
type Date struct {
	b   []byte
	sec int64
}

// Append appends the current Date value to b.
func (d *Date) Append(b []byte) []byte {
	if now := time.Now(); now.Unix() != d.sec {
		d.sec = now.Unix()
		d.b = now.UTC().AppendFormat(d.b[:0], http.TimeFormat)
	}
	return append(b, d.b...)
}
