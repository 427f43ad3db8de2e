package main

import (
	"bufio"
	"bytes"
	"fmt"
	"math"
	"net"
	"net/http"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"sync"
	"syscall"
	"time"
)

// Statuses the driver assigns itself.
const (
	statusTransport = -1 // the request never got an HTTP answer
	statusSaturated = -2 // not sent: it was already SaturateAfter late
)

// sample is one operation's outcome. Times are offsets from the phase
// origin. Latency is done-due: a request is timed from when it was due,
// not from when it was sent, so a stall on the server is charged to
// every request due while it lasted, including those queued behind it.
type sample struct {
	class     string
	due, sent time.Duration
	done      time.Duration
	status    int
	// late is how far past due the driver sent a request it was idle
	// for (the generator's own lateness); -1 when the connection was
	// still busy with the previous request at due time.
	late time.Duration
}

func (s *sample) latency() time.Duration { return s.done - s.due }

// ok reports an answered operation: 200, or the guard's 403 verdict on
// a write.
func (s *sample) ok() bool {
	return s.status == http.StatusOK || (s.class == "write" && s.status == http.StatusForbidden)
}

// doer sends one request and returns the status and body. The body is
// valid until the next call.
type doer interface {
	do(method, path string, body []byte) (int, []byte, error)
}

// httpConn is one keep-alive HTTP/1.1 connection to the server, driven
// synchronously from the calling goroutine: the request is written and
// the response read on the same goroutine, with none of the handoffs
// between the caller, a write loop and a read loop that net/http's
// client makes per request. Those handoffs cost more than a warm verdict
// on a 2-vCPU host and vary with scheduling.
type httpConn struct {
	base string // http://host:port
	host string
	c    net.Conn
	br   *bufio.Reader
	bw   *bufio.Writer
	buf  bytes.Buffer
}

func newConn(base string) *httpConn {
	return &httpConn{base: base, host: strings.TrimPrefix(base, "http://")}
}

func (c *httpConn) do(method, path string, body []byte) (int, []byte, error) {
	status, err := c.roundTrip(method, path, body)
	if err != nil {
		c.close() // the next request redials
		return statusTransport, nil, err
	}
	return status, c.buf.Bytes(), nil
}

func (c *httpConn) roundTrip(method, path string, body []byte) (int, error) {
	if c.c == nil {
		conn, err := net.DialTimeout("tcp", c.host, 10*time.Second)
		if err != nil {
			return 0, err
		}
		c.c, c.br, c.bw = conn, bufio.NewReaderSize(conn, 64<<10), bufio.NewWriterSize(conn, 64<<10)
	}
	if err := c.c.SetDeadline(time.Now().Add(60 * time.Second)); err != nil {
		return 0, err
	}
	c.bw.WriteString(method + " " + path + " HTTP/1.1\r\nHost: " + c.host + "\r\n")
	if body != nil {
		c.bw.WriteString("Content-Type: application/json\r\nContent-Length: " + strconv.Itoa(len(body)) + "\r\n")
	}
	c.bw.WriteString("\r\n")
	c.bw.Write(body)
	if err := c.bw.Flush(); err != nil {
		return 0, err
	}
	resp, err := http.ReadResponse(c.br, nil)
	if err != nil {
		return 0, err
	}
	c.buf.Reset()
	_, err = c.buf.ReadFrom(resp.Body)
	resp.Body.Close()
	if err != nil {
		return 0, err
	}
	if resp.Close {
		c.close()
	}
	return resp.StatusCode, nil
}

func (c *httpConn) close() {
	if c.c != nil {
		c.c.Close()
		c.c = nil
	}
}

// phaseResult is one open-loop phase's samples.
type phaseResult struct {
	reads, writes []sample
	origin        time.Time
}

// runPhase drives reads on one connection and writes on another, each
// in due order, open loop: a connection sends each request at its due
// time or, if still busy, as soon as the previous answer arrives.
func runPhase(rc, wc doer, ph phase, wr *writer, satAfter time.Duration) phaseResult {
	reads, writes := ph.reads, ph.writes
	res := phaseResult{reads: make([]sample, len(reads)), writes: make([]sample, len(writes))}
	origin := time.Now().Add(5 * time.Millisecond)
	res.origin = origin
	var wg sync.WaitGroup
	wg.Add(2)
	go func() {
		defer wg.Done()
		drive(rc, origin, reads, res.reads, nil, satAfter)
	}()
	go func() {
		defer wg.Done()
		drive(wc, origin, writes, res.writes, wr, satAfter)
	}()
	wg.Wait()
	return res
}

func drive(c doer, origin time.Time, ops []op, out []sample, wr *writer, satAfter time.Duration) {
	// The pacing sleeps block this thread in the kernel; keep the
	// goroutine on it so a wake-up does not wait for another thread.
	runtime.LockOSThread()
	defer runtime.UnlockOSThread()
	for i := range ops {
		o := &ops[i]
		s := &out[i]
		*s = sample{class: o.class(), due: o.due, late: -1}
		idle := pace(origin, o.due)
		s.sent = time.Since(origin)
		if idle {
			s.late = s.sent - o.due
		}
		if s.sent-o.due > satAfter {
			s.status, s.done = statusSaturated, s.sent
			continue
		}
		method, path, body := o.method, o.path, o.body
		var w pending
		if o.write != "" {
			w = wr.next(o.write)
			method, path, body = "POST", "/apply", w.body
		}
		status, _, err := c.do(method, path, body)
		s.done = time.Since(origin)
		s.status = status
		if err != nil {
			s.status = statusTransport
		}
		if o.write != "" {
			wr.done(w, s.status)
		}
	}
}

// pace waits until origin+due and reports whether it had to wait (the
// caller was idle at due time). time.Sleep wakes up to a millisecond
// late on Linux (the runtime's poller sleeps in whole milliseconds), ten
// times a warm read, so pace sleeps in the kernel until shortly before
// due and spins the rest.
func pace(origin time.Time, due time.Duration) bool {
	at := origin.Add(due)
	d := time.Until(at)
	if d <= 0 {
		return false
	}
	if d > spinFor {
		ts := syscall.NsecToTimespec(int64(d - spinFor))
		_ = syscall.Nanosleep(&ts, nil) // EINTR only shortens the sleep; the spin covers it
	}
	for time.Now().Before(at) {
	}
	return true
}

// spinFor covers the kernel's wake-up latency (about 60-90µs measured on
// a 2-vCPU VM) and bounds the CPU the driver burns per request.
const spinFor = 150 * time.Microsecond

// latencies collects the latencies of the samples of one class that
// answered.
func latencies(ss []sample, class string) []time.Duration {
	var out []time.Duration
	for i := range ss {
		if ss[i].class == class && ss[i].ok() {
			out = append(out, ss[i].latency())
		}
	}
	return out
}

// quantile returns the q-quantile of ds by nearest rank (ds is sorted in
// place).
func quantile(ds []time.Duration, q float64) time.Duration {
	if len(ds) == 0 {
		return 0
	}
	sort.Slice(ds, func(i, j int) bool { return ds[i] < ds[j] })
	i := int(math.Ceil(q*float64(len(ds)))) - 1
	if i < 0 {
		i = 0
	}
	if i >= len(ds) {
		i = len(ds) - 1
	}
	return ds[i]
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// failures counts operations that did not answer.
func failures(ss []sample) int {
	n := 0
	for i := range ss {
		if !ss[i].ok() {
			n++
		}
	}
	return n
}

// describeFailures summarises failure statuses for the error report.
func describeFailures(ss []sample) string {
	by := map[string]int{}
	for i := range ss {
		if !ss[i].ok() {
			by[fmt.Sprintf("%s:%d", ss[i].class, ss[i].status)]++
		}
	}
	return fmt.Sprint(by)
}
